"""Well-formedness rules, the transition set, and graph export.

Violations are collected exhaustively and returned as :class:`Diagnostic`
values; nothing here raises on a bad spec.  The transition rules read the
transition set once, into the successors and predecessors of each state and
the successors of each (state, action, value), where a value matches only a
value of its own type (``1`` is not ``true``); they and the graph export find
a declared branch with :meth:`~tsmon.model.Typestate.find`, one dict lookup.
Each rule's findings are sorted, and only the findings are: a spec that
breaks no rule is checked without a sort.  So checking a spec takes time
linear in its branches, and exporting its graph adds one sort of its edges.
The brute-force searches :func:`is_reachable` and :func:`is_productive` are
kept as the reference oracles that the index is tested against.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .model import (
    PlainDest,
    ProtocolSpec,
    Record,
    SourceSpan,
    Typestate,
    Value,
    enum_labels,
    outcome_text,
    _outcomes,
    _setattr,
)

__all__ = [
    "Diagnostic",
    "TransitionSet",
    "RATIO_TOLERANCE",
    "RULE_RATIO_SUM",
    "RULE_DECISIONS",
    "RULE_USEFUL_STATES",
    "RULE_DETERMINISTIC",
    "RULE_WEAK_CONNECTIVITY",
    "RULE_DECISION_TOTALITY",
    "RULE_NON_ENUMERABLE",
    "RULE_ENUMERABLE",
    "RULE_TRANSITION_SET",
    "build_trs",
    "check_transition_rules",
    "check_well_formed",
    "export_dot",
    "is_productive",
    "is_reachable",
    "validate",
]

# Ratio sums are compared against 1 within this tolerance; decimal ratio
# literals are not exactly representable in binary.
RATIO_TOLERANCE = 1e-9

RULE_RATIO_SUM = "VALID-RATIO-SUM"
RULE_DECISIONS = "ENUMERATE-ALL-DECISIONS"
RULE_USEFUL_STATES = "USEFUL-STATES"
RULE_DETERMINISTIC = "DETERMINISTIC"
RULE_WEAK_CONNECTIVITY = "WEAK-CONNECTIVITY"
RULE_DECISION_TOTALITY = "DECISION-TOTALITY"
RULE_NON_ENUMERABLE = "NON-ENUMERABLE-VALUES"
RULE_ENUMERABLE = "ENUMERABLE-VALUES"
RULE_TRANSITION_SET = "TRANSITION-SET"


class Diagnostic(Record):
    """One rule violation, with enough context to point at the source."""

    __slots__ = ("rule", "state", "action", "detail", "span")
    _compare = __slots__[:-1]  # the span is shown but not compared

    def __init__(
        self, rule: str, state: Optional[str] = None, action: Optional[str] = None, detail: str = "",
        span: Optional[SourceSpan] = None,
    ) -> None:
        _setattr(self, "rule", rule)
        _setattr(self, "state", state)
        _setattr(self, "action", action)
        _setattr(self, "detail", detail)
        _setattr(self, "span", span)

    def message(self) -> str:
        parts = []
        if self.state is not None:
            parts.append(f"state {self.state}")
        if self.action is not None:
            parts.append(f"action {self.action}")
        ctx = ", ".join(parts)
        return f"{ctx}: {self.detail}" if ctx else self.detail


Transition = tuple[str, str, Value, str]
# The relation Trs: tuples (state, action, value, next state).
TransitionSet = frozenset[Transition]


def _state_diagnostic(
    ts: Typestate, rule: str, state: str, detail: str, action: Optional[str] = None
) -> Diagnostic:
    """A violation anchored at a state: it points at the state's declaration."""
    return Diagnostic(rule, state, action, detail, ts.state_spans.get(state))


def _value_key(v: Value) -> str:
    if v is None:
        return ""
    if v is True:
        return "\x01true"
    if v is False:
        return "\x01false"
    return f"\x02{v}"


def check_well_formed(spec: ProtocolSpec) -> list[Diagnostic]:
    """Check the typestate rules; empty result means well-formed.

    Duplicate state names cannot be represented by :class:`Typestate` (an
    ordered map), so that rule holds structurally; the ratio-sum and
    decision-enumeration rules are checked here.
    """
    ts = spec.typestate
    diags: list[Diagnostic] = []
    for state, body in ts.states.items():
        ratios = [br.ratio for br in body.branches() if br.ratio is not None]
        if ratios:
            total = sum(ratios)
            if abs(total - 1.0) > RATIO_TOLERANCE:
                detail = f"declared ratios sum to {total!r}, expected 1"
                diags.append(_state_diagnostic(ts, RULE_RATIO_SUM, state, detail))
        for br in body.branches():
            expected = enum_labels(spec, br.action.return_type)
            got = _outcomes(br)
            if got != expected:
                diags.append(
                    Diagnostic(
                        rule=RULE_DECISIONS,
                        state=state,
                        action=br.action.name,
                        detail=(
                            f"destination enumerates {_values_text(got)}, "
                            f"return type has {_values_text(expected)}"
                        ),
                        span=br.span,
                    )
                )
    return diags


def _values_text(values: Iterable[Value]) -> str:
    return "{" + ", ".join(outcome_text(v) for v in sorted(values, key=_value_key)) + "}"


def build_trs(spec: ProtocolSpec) -> TransitionSet:
    """Build the transition set: one tuple per plain branch, one per outcome."""
    tuples: set[Transition] = set()
    for state, body in spec.typestate.states.items():
        for br in body.branches():
            if isinstance(br.dest, PlainDest):
                tuples.add((state, br.action.name, None, br.dest.state))
            else:
                for outcome, target in br.dest.cases:
                    tuples.add((state, br.action.name, outcome, target))
    return frozenset(tuples)


def is_reachable(state: str, trs: TransitionSet, start: str) -> bool:
    """True iff ``state`` can be reached from ``start`` along trs edges."""
    if state == start:
        return True
    visited = {start}
    frontier = [start]
    while frontier:
        src = frontier.pop()
        for s, _m, _v, dst in trs:
            if s == src and dst not in visited:
                if dst == state:
                    return True
                visited.add(dst)
                frontier.append(dst)
    return False


def is_productive(state: str, trs: TransitionSet) -> bool:
    """True iff some terminal node (no outgoing tuples) is reachable from
    ``state``, or ``state`` itself is terminal."""
    sources = {t[0] for t in trs}
    visited = set()
    frontier = [state]
    while frontier:
        node = frontier.pop()
        if node in visited:
            continue
        visited.add(node)
        if node not in sources:
            return True
        for s, _m, _v, dst in trs:
            if s == node and dst not in visited:
                frontier.append(dst)
    return False


def _closure(seeds: Iterable[str], *edges: Mapping[str, Iterable[str]]) -> set[str]:
    """The seeds plus every node reachable from them along any of ``edges``."""
    reached = set(seeds)
    frontier = list(reached)
    while frontier:
        node = frontier.pop()
        for nexts in edges:
            for nxt in nexts.get(node, ()):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
    return reached


def check_transition_rules(spec: ProtocolSpec, trs: TransitionSet) -> list[Diagnostic]:
    """Check the transition-set rules and the derived consistency properties.

    Useful States requires every declared state to be reachable and, when at
    least one declared terminal state exists, every state to be productive.
    Determinism is per value: one successor per (state, action, value), and a
    plain transition cannot coexist with decision outcomes for one action.
    """
    ts = spec.typestate
    diags: list[Diagnostic] = []
    start = ts.start

    succ: dict[str, set[str]] = {}
    pred: dict[str, set[str]] = {}
    index: dict[tuple[str, str, str], list[str]] = {}  # (state, action, value key) -> successors
    tuple_findings = []  # TRANSITION-SET and the value rules, by tuple
    for src, action, value, dst in trs:
        vkey = _value_key(value)
        succ.setdefault(src, set()).add(dst)
        pred.setdefault(dst, set()).add(src)
        index.setdefault((src, action, vkey), []).append(dst)
        found = ts.find(src, action)
        if found is None:
            rule, detail = RULE_TRANSITION_SET, "tuple whose action is not offered by its source state"
        elif isinstance(found[0].dest, PlainDest):
            if value is None and found[0].dest.state == dst:
                continue
            rule, detail = RULE_NON_ENUMERABLE, "tuple disagrees with the plain destination"
        elif found[0].dest.target(value) == dst:
            continue
        else:
            rule, detail = RULE_ENUMERABLE, "tuple disagrees with the decision map"
        tuple_findings.append(((src, action, vkey, dst), rule, detail))

    reachable = _closure([start], succ)
    # Terminal nodes have no outgoing tuple; undeclared (dangling)
    # destinations count, as they do for is_productive.
    productive = _closure((ts.states.keys() | pred.keys()) - succ.keys(), pred)
    terminal_exists = any(s not in succ for s in ts.states)
    for state in ts.states:
        if state not in reachable:
            detail = "not reachable from the start state"
            diags.append(_state_diagnostic(ts, RULE_USEFUL_STATES, state, detail))
        if terminal_exists and state not in productive:
            detail = "cannot reach a terminal state"
            diags.append(_state_diagnostic(ts, RULE_USEFUL_STATES, state, detail))

    # By (state, action): each value with several successors, by value key,
    # then a plain tuple beside decision tuples ("" is the key of None).
    det_findings: dict[tuple, str] = {}
    for (state, action, vkey), dsts in index.items():
        if len(dsts) > 1:
            det_findings[state, action, 0, vkey] = f"one value maps to several successors {sorted(set(dsts))}"
        if vkey and (state, action, "") in index:
            det_findings[state, action, 1] = "plain and decision transitions coexist"
    for (state, action, *_), detail in sorted(det_findings.items()):
        diags.append(_state_diagnostic(ts, RULE_DETERMINISTIC, state, detail, action))

    if len(ts.states) > 1:
        connected = _closure([start], succ, pred)
        for state in ts.states:
            if state not in connected:
                detail = "disconnected from the rest of the typestate"
                diags.append(_state_diagnostic(ts, RULE_WEAK_CONNECTIVITY, state, detail))

    # By declaration of the state, then action name, then value key.
    totality_findings = []
    for i, (state, body) in enumerate(ts.states.items()):
        for br in body.branches():
            for value in (None,) if isinstance(br.dest, PlainDest) else br.dest.outcomes():
                vkey = _value_key(value)
                if (state, br.action.name, vkey) not in index:
                    detail = f"no transition for outcome {_values_text([value])}"
                    totality_findings.append(((i, br.action.name, vkey), state, detail))
    for (_, action, _), state, detail in sorted(totality_findings):
        diags.append(_state_diagnostic(ts, RULE_DECISION_TOTALITY, state, detail, action))

    for (src, action, *_), rule, detail in sorted(tuple_findings):
        diags.append(Diagnostic(rule, src, action, detail))
    return diags


def validate(spec: ProtocolSpec) -> list[Diagnostic]:
    """Run all checks a spec must pass before execution or monitoring."""
    diags = check_well_formed(spec)
    trs = build_trs(spec)
    diags.extend(check_transition_rules(spec, trs))
    return diags


def _dot_quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def export_dot(spec: ProtocolSpec, trs: TransitionSet) -> str:
    """Render the transition set as a Graphviz digraph.

    Output actions are prefixed ``!``, input actions ``?``; decision edges
    are labelled ``action/value``.  The start state is drawn bold.
    """
    ts = spec.typestate
    lines = ["digraph typestate {", "  rankdir=LR;", "  node [shape=circle];"]
    for state in ts.states:
        attr = " [penwidth=2]" if state == ts.start else ""
        lines.append(f"  {_dot_quote(state)}{attr};")
    for src, action, value, dst in sorted(trs, key=lambda t: (t[0], t[1], _value_key(t[2]), t[3])):
        found = ts.find(src, action)
        label = action if found is None else ("?" if found[1] else "!") + action
        if value is not None:
            label += f"/{outcome_text(value)}"
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
