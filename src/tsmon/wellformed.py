"""Well-formedness rules, the transition set, and graph export.

Violations are collected exhaustively and returned as :class:`Diagnostic`
values; nothing here raises on a bad spec.  The transition rules run on one
successor/predecessor index built from the transition set; the brute-force
searches :func:`is_reachable` and :func:`is_productive` are kept as the
reference oracles that the index is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .model import (
    PlainDest,
    ProtocolSpec,
    SourceSpan,
    Value,
    actions_of,
    decisions_of,
    enum_labels,
    outcome_text,
    ratios_of,
    resolve_state,
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


@dataclass(frozen=True)
class Diagnostic:
    """One rule violation, with enough context to point at the source."""

    rule: str
    state: Optional[str] = None
    action: Optional[str] = None
    detail: str = ""
    span: Optional[SourceSpan] = field(default=None, compare=False)

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


def _value_key(v: Value) -> str:
    if v is None:
        return ""
    if v is True:
        return "\x01true"
    if v is False:
        return "\x01false"
    return f"\x02{v}"


def _sorted_tuples(trs: TransitionSet) -> list[Transition]:
    return sorted(trs, key=lambda t: (t[0], t[1], _value_key(t[2]), t[3]))


def check_well_formed(spec: ProtocolSpec) -> list[Diagnostic]:
    """Check the typestate rules; empty result means well-formed.

    Duplicate state names cannot be represented by :class:`Typestate` (an
    ordered map), so that rule holds structurally; the ratio-sum and
    decision-enumeration rules are checked here.
    """
    ts = spec.typestate
    diags: list[Diagnostic] = []
    for state, body in ts.states.items():
        ratios = ratios_of(ts, state)
        if ratios:
            total = sum(ratios)
            if abs(total - 1.0) > RATIO_TOLERANCE:
                diags.append(
                    Diagnostic(
                        rule=RULE_RATIO_SUM,
                        state=state,
                        detail=f"declared ratios sum to {total!r}, expected 1",
                        span=ts.state_spans.get(state),
                    )
                )
        for br in body.branches():
            expected = enum_labels(spec, br.action.return_type)
            got = decisions_of(ts, state, br.action.name)
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


def _closure(seeds: Iterable[str], edges: Mapping[str, Iterable[str]]) -> set[str]:
    """The seeds plus every node reachable from them along ``edges``."""
    reached = set(seeds)
    frontier = list(reached)
    while frontier:
        for nxt in edges.get(frontier.pop(), ()):
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
    for src, _m, _v, dst in trs:
        succ.setdefault(src, set()).add(dst)
        pred.setdefault(dst, set()).add(src)

    reachable = _closure([start], succ)
    # Terminal nodes have no outgoing tuple; undeclared (dangling)
    # destinations count, as they do for is_productive.
    productive = _closure((ts.states.keys() | pred.keys()) - succ.keys(), pred)
    terminal_exists = any(s not in succ for s in ts.states)
    for state in ts.states:
        span = ts.state_spans.get(state)
        if state not in reachable:
            diags.append(
                Diagnostic(
                    rule=RULE_USEFUL_STATES,
                    state=state,
                    detail="not reachable from the start state",
                    span=span,
                )
            )
        if terminal_exists and state not in productive:
            diags.append(
                Diagnostic(
                    rule=RULE_USEFUL_STATES,
                    state=state,
                    detail="cannot reach a terminal state",
                    span=span,
                )
            )

    by_action: dict[tuple[str, str], list[Transition]] = {}
    for t in _sorted_tuples(trs):
        by_action.setdefault((t[0], t[1]), []).append(t)
    for (state, action), tuples in sorted(by_action.items()):
        targets: dict[str, set[str]] = {}
        values = set()
        for _s, _m, v, dst in tuples:
            targets.setdefault(_value_key(v), set()).add(dst)
            values.add(v)
        for vkey, dsts in sorted(targets.items()):
            if len(dsts) > 1:
                diags.append(
                    Diagnostic(
                        rule=RULE_DETERMINISTIC,
                        state=state,
                        action=action,
                        detail=f"one value maps to several successors {sorted(dsts)}",
                        span=ts.state_spans.get(state),
                    )
                )
        if None in values and len(values) > 1:
            diags.append(
                Diagnostic(
                    rule=RULE_DETERMINISTIC,
                    state=state,
                    action=action,
                    detail="plain and decision transitions coexist",
                    span=ts.state_spans.get(state),
                )
            )

    if len(ts.states) > 1:
        neighbours = {n: succ.get(n, set()) | pred.get(n, set()) for n in succ.keys() | pred.keys()}
        connected = _closure([start], neighbours)
        for state in ts.states:
            if state not in connected:
                diags.append(
                    Diagnostic(
                        rule=RULE_WEAK_CONNECTIVITY,
                        state=state,
                        detail="disconnected from the rest of the typestate",
                        span=ts.state_spans.get(state),
                    )
                )

    keys = {t[:3] for t in trs}
    for state in ts.states:
        for action in sorted(actions_of(ts, state)):
            for value in sorted(decisions_of(ts, state, action), key=_value_key):
                if (state, action, value) not in keys:
                    diags.append(
                        Diagnostic(
                            rule=RULE_DECISION_TOTALITY,
                            state=state,
                            action=action,
                            detail=f"no transition for outcome {_values_text([value])}",
                            span=ts.state_spans.get(state),
                        )
                    )

    for src, action, value, dst in _sorted_tuples(trs):
        body = ts.states.get(src)
        found = body.find(action) if body is not None else None
        if found is None:
            diags.append(
                Diagnostic(
                    rule=RULE_TRANSITION_SET,
                    state=src,
                    action=action,
                    detail="tuple whose action is not offered by its source state",
                )
            )
            continue
        dest = found[0].dest
        if isinstance(dest, PlainDest):
            if value is not None or dest.state != dst:
                diags.append(
                    Diagnostic(
                        rule=RULE_NON_ENUMERABLE,
                        state=src,
                        action=action,
                        detail="tuple disagrees with the plain destination",
                    )
                )
        else:
            if dest.target(value) != dst:
                diags.append(
                    Diagnostic(
                        rule=RULE_ENUMERABLE,
                        state=src,
                        action=action,
                        detail="tuple disagrees with the decision map",
                    )
                )
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
    for src, action, value, dst in _sorted_tuples(trs):
        body = resolve_state(ts, src)
        prefix = ""
        if not isinstance(body, str):
            found = body.find(action)
            if found is not None:
                prefix = "?" if found[1] else "!"
        label = f"{prefix}{action}"
        if value is not None:
            label += f"/{outcome_text(value)}"
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
