"""Core domain model for probabilistic typestates with internal mutable state.

A protocol participant is described by a :class:`ProtocolSpec`: a typestate
(named states offering input/output action branches) plus declarations of the
internal integer state (constants, variables, named assignments, named
predicates) and enumerations used as action return types.

All values are immutable after construction and safe to share between
threads.  Source locations (:class:`SourceSpan`) are carried for diagnostics
but excluded from structural equality.

The constructors own the structural rules of a spec (names resolve, no name
is both a const and a var, no action, decision outcome or enum label is
repeated, ratios lie in [0, 1], expressions nest at most
:data:`MAX_EXPR_DEPTH` operator levels) and raise :class:`StructureError`
naming the offending token; the parser adds its span.  An integer literal or
constant of more than 640 digits raises a plain ``ValueError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Container, Iterable, Optional, Union

__all__ = [
    "ActionSignature",
    "Assignment",
    "BinOp",
    "Branch",
    "Comparison",
    "DecisionDest",
    "Destination",
    "Expr",
    "IntLit",
    "InternalStateDecl",
    "MAX_EXPR_DEPTH",
    "Name",
    "PlainDest",
    "Predicate",
    "ProtocolSpec",
    "SourceSpan",
    "SpecError",
    "StateBody",
    "StructureError",
    "TypeRef",
    "Typestate",
    "UndefinedActionError",
    "UnknownEnumError",
    "Value",
    "actions_of",
    "decisions_of",
    "enum_labels",
    "outcome_text",
    "ratios_of",
    "resolve_state",
    "UNIT",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Operator levels allowed in one expression.  Compiling an expression to
# closures, calling those closures and serializing the expression each take
# one stack frame per level; this keeps all three within the interpreter's stack.
MAX_EXPR_DEPTH = 100

# The most digits an integer literal may have.  640 is the lowest limit on int
# conversion that the interpreter accepts (``PYTHONINTMAXSTRDIGITS``), so a
# literal converts, and prints in an overflow message, under any setting.
_MAX_INT_DIGITS = 640
_INT_LIMIT = 10**_MAX_INT_DIGITS

# A transition value: None for actions with a plain destination, True/False
# for boolean outcomes, a label string for enumeration outcomes.
Value = Union[None, bool, str]


def outcome_text(value: Value) -> str:
    """Source spelling of a transition value: ``none``, ``true``, ``false``
    or the enumeration label."""
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


class SpecError(Exception):
    """Base class for semantic errors raised while querying a spec."""


class UndefinedActionError(SpecError):
    """Raised when an action is looked up in a state that does not offer it."""


class UnknownEnumError(SpecError):
    """Raised when a type refers to an enumeration that is not declared."""


class StructureError(ValueError):
    """A broken structural rule: ``kind`` is ``reference``, ``duplicate`` or
    ``range``, ``name`` the offending token as written in source and ``role``
    what it stands for there.  For a reference, ``role`` is ``constant`` (in
    an initializer), ``name`` (in another expression), ``variable`` (an
    assignment target), ``assign``, ``pred`` or ``enum`` (named by a branch);
    a repeat is an ``action``, ``outcome``, ``label`` (of the enum ``scope``)
    or the ``declaration`` of a const and a var; out of range is a ``ratio``
    or the ``expression`` of the declaration ``name``."""

    def __init__(self, kind: str, role: str, name: str, message: str, scope: str = ""):
        super().__init__(message)
        self.kind, self.role, self.name, self.scope = kind, role, name, scope


_ROLE_TEXT = {"assign": "assignment key", "pred": "predicate key"}


def _resolve(
    role: str, name: str, declared: Container[str], wrong: Container[str] = (), why: str = ""
) -> None:
    """Raise a ``reference`` error unless ``name`` is declared; ``why`` says
    what is wrong with a name in ``wrong``."""
    if name in wrong:
        raise StructureError("reference", role, name, why.format(name))
    if name not in declared:
        raise StructureError("reference", role, name, f"undeclared {_ROLE_TEXT.get(role, role)} {name!r}")


def _reject_repeats(role: str, message: str, values: Iterable[Value], scope: str = "") -> None:
    """Raise a ``duplicate`` error for the first value seen twice."""
    seen = set()
    for value in values:
        if value in seen:
            name = outcome_text(value)
            raise StructureError("duplicate", role, name, message.format(name), scope)
        seen.add(value)


def _require_ident(name: str, what: str) -> None:
    if not _IDENT_RE.match(name):
        raise ValueError(f"{what} {name!r} is not a valid identifier")


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a token in a source file."""

    line: int
    column: int
    length: int = 0


# --------------------------------------------------------------------------
# Integer expressions and predicates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int

    def __post_init__(self) -> None:
        if abs(self.value) >= _INT_LIMIT:
            raise ValueError("integer literal too long")


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - *
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*"):
            raise ValueError(f"unsupported operator {self.op!r}")


Expr = Union[IntLit, Name, BinOp]


def _names_within_depth(key: str, *exprs: Expr) -> list[str]:
    """Identifiers of the expressions of declaration ``key``, left to right;
    more than :data:`MAX_EXPR_DEPTH` operator levels is a ``range`` error.
    The walk is iterative, so it is safe on any depth."""
    names: list[str] = []
    stack = [(expr, 1) for expr in reversed(exprs)]
    while stack:
        node, level = stack.pop()
        if isinstance(node, Name):
            names.append(node.ident)
        elif isinstance(node, BinOp):
            if level > MAX_EXPR_DEPTH:
                message = f"expression of {key!r} nested deeper than {MAX_EXPR_DEPTH} levels"
                raise StructureError("range", "expression", key, message)
            stack += ((node.right, level + 1), (node.left, level + 1))
    return names


_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Comparison:
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise ValueError(f"unsupported comparison {self.op!r}")


@dataclass(frozen=True)
class Predicate:
    """A conjunction of integer comparisons over the internal state."""

    clauses: tuple[Comparison, ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("predicate needs at least one comparison")


@dataclass(frozen=True)
class Assignment:
    """A named update rule `target := expr` for one internal variable."""

    target: str
    expr: Expr

    def __post_init__(self) -> None:
        _require_ident(self.target, "assignment target")


# --------------------------------------------------------------------------
# Typestate structure
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeRef:
    """Return type of an action: unit, boolean, or a declared enumeration."""

    kind: str  # "unit" | "boolean" | "enum"
    enum_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("unit", "boolean", "enum"):
            raise ValueError(f"unknown type kind {self.kind!r}")
        if self.kind == "enum":
            if not self.enum_name:
                raise ValueError("enum type needs an enumeration name")
            _require_ident(self.enum_name, "enum name")
        elif self.enum_name is not None:
            raise ValueError(f"{self.kind} type cannot carry an enum name")


UNIT = TypeRef("unit")


@dataclass(frozen=True)
class ActionSignature:
    name: str
    param_types: tuple[str, ...] = ()
    return_type: TypeRef = UNIT

    def __post_init__(self) -> None:
        _require_ident(self.name, "action name")


@dataclass(frozen=True)
class PlainDest:
    """Unconditional destination state."""

    state: str


@dataclass(frozen=True)
class DecisionDest:
    """Destination chosen by the action's returned value.

    ``cases`` is an ordered (outcome, state) sequence; outcomes are booleans
    or enumeration labels and must be pairwise distinct.
    """

    cases: tuple[tuple[Value, str], ...]

    def __post_init__(self) -> None:
        if not self.cases:
            raise ValueError("decision needs at least one outcome")
        if any(outcome is None for outcome, _state in self.cases):
            raise ValueError("decision outcomes cannot be empty")
        _reject_repeats("outcome", "duplicate decision outcome {!r}", (o for o, _ in self.cases))

    def target(self, outcome: Value) -> Optional[str]:
        """The state ``outcome`` selects, or ``None``.  Matching is type-exact:
        a value that is not a bool or a string (``1``, ``1.0``) selects none."""
        if isinstance(outcome, (bool, str)):
            for o, s in self.cases:
                if type(o) is type(outcome) and o == outcome:
                    return s
        return None

    def outcomes(self) -> frozenset[Value]:
        return frozenset(o for o, _ in self.cases)


Destination = Union[PlainDest, DecisionDest]


@dataclass(frozen=True)
class Branch:
    """One action offered by a state.

    ``ratio`` is the expected share of the state's monitored executions taken
    by this action, or ``None`` for an unmonitored action.  ``pre_assigns``
    and ``post_assigns`` name assignment rules applied before predicate
    evaluation and after a triggered transition; ``preds`` names the
    predicates gating the transition.
    """

    action: ActionSignature
    ratio: Optional[float]
    pre_assigns: tuple[str, ...]
    preds: tuple[str, ...]
    dest: Destination
    post_assigns: tuple[str, ...] = ()
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.ratio is not None and not 0.0 <= self.ratio <= 1.0:
            raise StructureError("range", "ratio", repr(self.ratio), f"ratio {self.ratio!r} outside [0, 1]")


@dataclass(frozen=True)
class StateBody:
    """Input and output branches of one state.

    Both sides non-empty means a mixed session; both empty is an explicit
    terminal state.  Action names must be unique across the combined set.
    """

    in_branches: tuple[Branch, ...] = ()
    out_branches: tuple[Branch, ...] = ()

    def __post_init__(self) -> None:
        _reject_repeats("action", "duplicate action {!r} in state", (b.action.name for b in self.branches()))

    def branches(self) -> tuple[Branch, ...]:
        return self.in_branches + self.out_branches

    def find(self, action: str) -> Optional[tuple[Branch, bool]]:
        """Return (branch, is_input) for the named action, if offered."""
        for br in self.in_branches:
            if br.action.name == action:
                return br, True
        for br in self.out_branches:
            if br.action.name == action:
                return br, False
        return None

    @property
    def terminal(self) -> bool:
        return not self.in_branches and not self.out_branches


@dataclass(frozen=True)
class Typestate:
    """Ordered map of state names to bodies; the first entry is the start."""

    states: dict[str, StateBody]
    state_spans: dict[str, SourceSpan] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("typestate needs at least one state")
        for name in self.states:
            _require_ident(name, "state name")

    @property
    def start(self) -> str:
        return next(iter(self.states))


@dataclass(frozen=True)
class InternalStateDecl:
    """Declarations of the internal state and named rules.

    ``consts`` are read-only integers, ``vars`` map to initializer
    expressions over constants and literals, ``assigns``/``preds`` are the
    named rules referenced from branches, and ``enums`` declares label sets
    for enumeration return types.
    """

    consts: dict[str, int] = field(default_factory=dict)
    vars: dict[str, Expr] = field(default_factory=dict)
    assigns: dict[str, Assignment] = field(default_factory=dict)
    preds: dict[str, Predicate] = field(default_factory=dict)
    enums: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(abs(value) >= _INT_LIMIT for value in self.consts.values()):
            raise ValueError("integer literal too long")
        _reject_repeats("declaration", "name {!r} declared as both const and var", [*self.consts, *self.vars])
        declared = self.consts.keys() | self.vars.keys()
        for name, init in self.vars.items():
            for ident in _names_within_depth(name, init):
                why = "initializers may only reference constants, {!r} is a variable"
                _resolve("constant", ident, self.consts, self.vars, why)
        for key, assign in self.assigns.items():
            why = "assignment target {!r} is a constant, not a variable"
            _resolve("variable", assign.target, self.vars, self.consts, why)
            for ident in _names_within_depth(key, assign.expr):
                _resolve("name", ident, declared)
        for key, pred in self.preds.items():
            for ident in _names_within_depth(key, *(e for c in pred.clauses for e in (c.left, c.right))):
                _resolve("name", ident, declared)
        for name, labels in self.enums.items():
            if not labels:
                raise ValueError(f"enum {name!r} has no labels")
            _reject_repeats("label", "duplicate enum label {!r}", labels, scope=name)


@dataclass(frozen=True)
class ProtocolSpec:
    """One participant: a typestate plus its internal-state declarations."""

    typestate: Typestate
    internal: InternalStateDecl = field(default_factory=InternalStateDecl)

    def __post_init__(self) -> None:
        internal = self.internal
        for body in self.typestate.states.values():
            for br in body.branches():
                for key in br.pre_assigns + br.post_assigns:
                    _resolve("assign", key, internal.assigns)
                for key in br.preds:
                    _resolve("pred", key, internal.preds)
                rt = br.action.return_type
                if rt.kind == "enum":
                    _resolve("enum", rt.enum_name, internal.enums)


# --------------------------------------------------------------------------
# Accessors
# --------------------------------------------------------------------------


def resolve_state(ts: Typestate, state: str) -> Union[StateBody, str]:
    """Return the body bound to ``state``, or the name itself if undefined.

    Total by definition: unresolved names are returned verbatim so that
    dangling destinations behave as opaque terminal states.
    """
    body = ts.states.get(state)
    return body if body is not None else state


def actions_of(ts: Typestate, state: str) -> frozenset[str]:
    """Names of all actions offered by a state; empty for unresolved names."""
    body = resolve_state(ts, state)
    if isinstance(body, str):
        return frozenset()
    return frozenset(br.action.name for br in body.branches())


def decisions_of(ts: Typestate, state: str, action: str) -> frozenset[Value]:
    """Outcome set of an action: its decision labels, or {None} when plain."""
    body = ts.states.get(state)
    found = body.find(action) if body is not None else None
    if found is None:
        raise UndefinedActionError(f"state {state!r} offers no action {action!r}")
    dest = found[0].dest
    if isinstance(dest, DecisionDest):
        return dest.outcomes()
    return frozenset((None,))


def enum_labels(spec: ProtocolSpec, tref: TypeRef) -> frozenset[Value]:
    """Observable values of a return type: labels, {True, False}, or {None}."""
    if tref.kind == "boolean":
        return frozenset((True, False))
    if tref.kind == "enum":
        labels = spec.internal.enums.get(tref.enum_name or "")
        if labels is None:
            raise UnknownEnumError(f"enum {tref.enum_name!r} is not declared")
        return frozenset(labels)
    return frozenset((None,))


def ratios_of(ts: Typestate, state: str) -> list[float]:
    """Numeric ratios declared in a state, unmonitored entries excluded."""
    body = resolve_state(ts, state)
    if isinstance(body, str):
        return []
    return [br.ratio for br in body.branches() if br.ratio is not None]
