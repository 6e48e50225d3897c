"""Core domain model for probabilistic typestates with internal mutable state.

A protocol participant is described by a :class:`ProtocolSpec`: a typestate
(named states offering input/output action branches) plus declarations of the
internal integer state (constants, variables, named assignments, named
predicates) and enumerations used as action return types.

All values are immutable after construction and safe to share between
threads.  Source locations (:class:`SourceSpan`) are carried for diagnostics
but excluded from structural equality.

Every record class here and in the other modules derives from
:class:`Record`: it lists its fields in ``__slots__`` and fills them in an
explicit ``__init__`` with ``object.__setattr__``, after its checks.  The
base refuses any later assignment or deletion with ``AttributeError`` and
derives ``==`` (``NotImplemented`` against another class), ``hash`` and a
``Name(field=value, ...)`` repr from the class's ``_compare`` and ``_repr``
field names, which default to all of its fields.  Pickle and copy rebuild a
record through ``__init__`` from the fields whose names do not start with
``_``; such a slot holds data derived from the others.

The constructors own the structural rules of a spec (names resolve, no name
is both a const and a var, no action, decision outcome or enum label is
repeated, ratios lie in [0, 1], expressions nest at most
:data:`MAX_EXPR_DEPTH` operator levels) and raise :class:`StructureError`
naming the offending token; the parser adds its span.  An integer literal or
constant of more than 640 digits raises a plain ``ValueError``.
"""

from __future__ import annotations

import re
from operator import attrgetter
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
    "Record",
    "SourceSpan",
    "SpecError",
    "StateBody",
    "StructureError",
    "TypeRef",
    "Typestate",
    "UnknownEnumError",
    "Value",
    "enum_labels",
    "outcome_text",
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


_setattr = object.__setattr__  # fills a record's slots past Record.__setattr__


class Record:
    """Base of the immutable records; see the module docstring."""

    __slots__ = ()
    _compare: tuple[str, ...]  # the fields that == and hash read
    _repr: tuple[str, ...]  # the fields repr shows

    def __init_subclass__(cls) -> None:
        cls._repr = cls.__dict__.get("_repr", cls.__slots__)
        cls._key = attrgetter(*cls.__dict__.get("_compare", cls.__slots__))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        """Rebuild through ``__init__``, so pickle and copy work."""
        return type(self), tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")


class SourceSpan(Record):
    """1-based position of a token in a source file."""

    __slots__ = ("line", "column", "length")

    def __init__(self, line: int, column: int, length: int = 0) -> None:
        _setattr(self, "line", line)
        _setattr(self, "column", column)
        _setattr(self, "length", length)


# --------------------------------------------------------------------------
# Integer expressions and predicates
# --------------------------------------------------------------------------


class IntLit(Record):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if abs(value) >= _INT_LIMIT:
            raise ValueError("integer literal too long")
        _setattr(self, "value", value)


class Name(Record):
    __slots__ = ("ident",)

    def __init__(self, ident: str) -> None:
        _setattr(self, "ident", ident)


class BinOp(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr") -> None:
        if op not in ("+", "-", "*"):
            raise ValueError(f"unsupported operator {op!r}")
        _setattr(self, "op", op)
        _setattr(self, "left", left)
        _setattr(self, "right", right)


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


class Comparison(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _CMP_OPS:
            raise ValueError(f"unsupported comparison {op!r}")
        _setattr(self, "op", op)
        _setattr(self, "left", left)
        _setattr(self, "right", right)


class Predicate(Record):
    """A conjunction of integer comparisons over the internal state."""

    __slots__ = ("clauses",)

    def __init__(self, clauses: tuple[Comparison, ...]) -> None:
        if not clauses:
            raise ValueError("predicate needs at least one comparison")
        _setattr(self, "clauses", clauses)


class Assignment(Record):
    """A named update rule `target := expr` for one internal variable."""

    __slots__ = ("target", "expr")

    def __init__(self, target: str, expr: Expr) -> None:
        _require_ident(target, "assignment target")
        _setattr(self, "target", target)
        _setattr(self, "expr", expr)


# --------------------------------------------------------------------------
# Typestate structure
# --------------------------------------------------------------------------


class TypeRef(Record):
    """Return type of an action: unit, boolean, or a declared enumeration."""

    __slots__ = ("kind", "enum_name")  # kind is "unit", "boolean" or "enum"

    def __init__(self, kind: str, enum_name: Optional[str] = None) -> None:
        if kind not in ("unit", "boolean", "enum"):
            raise ValueError(f"unknown type kind {kind!r}")
        if kind == "enum":
            if not enum_name:
                raise ValueError("enum type needs an enumeration name")
            _require_ident(enum_name, "enum name")
        elif enum_name is not None:
            raise ValueError(f"{kind} type cannot carry an enum name")
        _setattr(self, "kind", kind)
        _setattr(self, "enum_name", enum_name)


UNIT = TypeRef("unit")


class ActionSignature(Record):
    __slots__ = ("name", "param_types", "return_type")

    def __init__(self, name: str, param_types: tuple[str, ...] = (), return_type: TypeRef = UNIT) -> None:
        _require_ident(name, "action name")
        _setattr(self, "name", name)
        _setattr(self, "param_types", param_types)
        _setattr(self, "return_type", return_type)


class PlainDest(Record):
    """Unconditional destination state."""

    __slots__ = ("state",)

    def __init__(self, state: str) -> None:
        _setattr(self, "state", state)


class DecisionDest(Record):
    """Destination chosen by the action's returned value.

    ``cases`` is an ordered (outcome, state) sequence; outcomes are booleans
    or enumeration labels and must be pairwise distinct.
    """

    __slots__ = ("cases",)

    def __init__(self, cases: tuple[tuple[Value, str], ...]) -> None:
        if not cases:
            raise ValueError("decision needs at least one outcome")
        if any(outcome is None for outcome, _state in cases):
            raise ValueError("decision outcomes cannot be empty")
        _reject_repeats("outcome", "duplicate decision outcome {!r}", (o for o, _ in cases))
        _setattr(self, "cases", cases)

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


class Branch(Record):
    """One action offered by a state.

    ``ratio`` is the expected share of the state's monitored executions taken
    by this action, or ``None`` for an unmonitored action.  ``pre_assigns``
    and ``post_assigns`` name assignment rules applied before predicate
    evaluation and after a triggered transition; ``preds`` names the
    predicates gating the transition.
    """

    __slots__ = ("action", "ratio", "pre_assigns", "preds", "dest", "post_assigns", "span")
    _compare = _repr = __slots__[:-1]  # all but the span

    def __init__(
        self, action: ActionSignature, ratio: Optional[float], pre_assigns: tuple[str, ...],
        preds: tuple[str, ...], dest: Destination, post_assigns: tuple[str, ...] = (),
        span: Optional[SourceSpan] = None,
    ) -> None:
        if ratio is not None and not 0.0 <= ratio <= 1.0:
            raise StructureError("range", "ratio", repr(ratio), f"ratio {ratio!r} outside [0, 1]")
        _setattr(self, "action", action)
        _setattr(self, "ratio", ratio)
        _setattr(self, "pre_assigns", pre_assigns)
        _setattr(self, "preds", preds)
        _setattr(self, "dest", dest)
        _setattr(self, "post_assigns", post_assigns)
        _setattr(self, "span", span)


class StateBody(Record):
    """Input and output branches of one state.

    Both sides non-empty means a mixed session; both empty is an explicit
    terminal state.  Action names must be unique across the combined set.
    :meth:`Typestate.find` looks a branch up by (state, action).
    """

    __slots__ = ("in_branches", "out_branches")

    def __init__(self, in_branches: tuple[Branch, ...] = (), out_branches: tuple[Branch, ...] = ()) -> None:
        names = (b.action.name for b in in_branches + out_branches)
        _reject_repeats("action", "duplicate action {!r} in state", names)
        _setattr(self, "in_branches", in_branches)
        _setattr(self, "out_branches", out_branches)

    def branches(self) -> tuple[Branch, ...]:
        return self.in_branches + self.out_branches


class Typestate(Record):
    """Ordered map of state names to bodies; the first entry is the start.
    ``==``, hash, repr, pickle and copy leave out the index :meth:`find` fills."""

    __slots__ = ("states", "state_spans", "_index")
    _compare = _repr = ("states",)  # not the spans nor the index

    def __init__(
        self, states: dict[str, StateBody], state_spans: Optional[dict[str, SourceSpan]] = None
    ) -> None:
        if not states:
            raise ValueError("typestate needs at least one state")
        for name in states:
            _require_ident(name, "state name")
        _setattr(self, "states", states)
        _setattr(self, "state_spans", {} if state_spans is None else state_spans)
        _setattr(self, "_index", None)

    @property
    def start(self) -> str:
        return next(iter(self.states))

    def find(self, state: str, action: str) -> Optional[tuple[Branch, bool]]:
        """(branch, is_input) of ``action`` in ``state``, or ``None`` if the state
        is undeclared or does not offer it.  The first call fills an index of every
        branch, so each call is one dict lookup; two first calls at once build equal dicts."""
        if self._index is None:
            _setattr(self, "_index", {
                (name, br.action.name): (br, is_input)
                for name, body in self.states.items()
                for is_input, side in ((True, body.in_branches), (False, body.out_branches))
                for br in side
            })
        return self._index.get((state, action))


class InternalStateDecl(Record):
    """Declarations of the internal state and named rules.

    ``consts`` are read-only integers, ``vars`` map to initializer
    expressions over constants and literals, ``assigns``/``preds`` are the
    named rules referenced from branches, and ``enums`` declares label sets
    for enumeration return types.  Each defaults to a new empty dict.
    """

    __slots__ = ("consts", "vars", "assigns", "preds", "enums")

    def __init__(
        self, consts: Optional[dict[str, int]] = None, vars: Optional[dict[str, Expr]] = None,
        assigns: Optional[dict[str, Assignment]] = None, preds: Optional[dict[str, Predicate]] = None,
        enums: Optional[dict[str, tuple[str, ...]]] = None,
    ) -> None:
        consts, vars, assigns, preds, enums = (
            {} if table is None else table for table in (consts, vars, assigns, preds, enums)
        )
        if any(abs(value) >= _INT_LIMIT for value in consts.values()):
            raise ValueError("integer literal too long")
        _reject_repeats("declaration", "name {!r} declared as both const and var", [*consts, *vars])
        declared = consts.keys() | vars.keys()
        for name, init in vars.items():
            for ident in _names_within_depth(name, init):
                why = "initializers may only reference constants, {!r} is a variable"
                _resolve("constant", ident, consts, vars, why)
        for key, assign in assigns.items():
            why = "assignment target {!r} is a constant, not a variable"
            _resolve("variable", assign.target, vars, consts, why)
            for ident in _names_within_depth(key, assign.expr):
                _resolve("name", ident, declared)
        for key, pred in preds.items():
            for ident in _names_within_depth(key, *(e for c in pred.clauses for e in (c.left, c.right))):
                _resolve("name", ident, declared)
        for name, labels in enums.items():
            if not labels:
                raise ValueError(f"enum {name!r} has no labels")
            _reject_repeats("label", "duplicate enum label {!r}", labels, scope=name)
        _setattr(self, "consts", consts)
        _setattr(self, "vars", vars)
        _setattr(self, "assigns", assigns)
        _setattr(self, "preds", preds)
        _setattr(self, "enums", enums)


class ProtocolSpec(Record):
    """One participant: a typestate plus its internal-state declarations,
    which default to new empty ones."""

    __slots__ = ("typestate", "internal")

    def __init__(self, typestate: Typestate, internal: Optional[InternalStateDecl] = None) -> None:
        if internal is None:
            internal = InternalStateDecl()
        for body in typestate.states.values():
            for br in body.branches():
                for key in br.pre_assigns + br.post_assigns:
                    _resolve("assign", key, internal.assigns)
                for key in br.preds:
                    _resolve("pred", key, internal.preds)
                rt = br.action.return_type
                if rt.kind == "enum":
                    _resolve("enum", rt.enum_name, internal.enums)
        _setattr(self, "typestate", typestate)
        _setattr(self, "internal", internal)


# --------------------------------------------------------------------------
# Accessors
# --------------------------------------------------------------------------


def _outcomes(br: Branch) -> frozenset[Value]:
    """Outcome set of a branch: its decision labels, or {None} when plain."""
    if isinstance(br.dest, DecisionDest):
        return br.dest.outcomes()
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
