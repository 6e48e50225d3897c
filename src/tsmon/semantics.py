"""Execution semantics: internal-state updates and transition stepping.

A configuration pairs the current state name with a :class:`VarStore`.
Executing an action first applies its pre-assignments, then evaluates its
predicates: if they do not all hold the configuration keeps its state (a
non-triggering step), otherwise it moves to the destination selected by the
returned value and applies the post-assignments.

:func:`compile_transition` resolves one (state, action) pair to a
:class:`Transition` once, with its assignments and predicates compiled to
closures over a *scope*: one dict of the constants and variables by name.
:func:`fire` executes a transition on a scope.  The monitor and the
simulator look transitions up in a :class:`Transitions` table, which
compiles each pair on first use, and carry the state and the scope
themselves.  :func:`step` compiles the one transition a call takes and runs
the same closures.

For a transition with no ``effect`` and a plain ``target``, :func:`fire` with
the value ``None`` returns ``(t.target, scope, True)`` and changes nothing, so
a caller may take ``t.target`` directly without the call.  The simulator
and the monitor do so; every other case (an effect, a decision, a missing
transition, a unit action given a value) goes through :func:`fire`.

Every literal, name read and operator result is checked against the int64
range.  A literal is checked when compiled: one out of range compiles to a
closure that raises the overflow when evaluated.
"""

from __future__ import annotations

import operator
from typing import Callable, Container, Mapping, NamedTuple, NoReturn, Optional

from .model import (
    Assignment,
    Branch,
    Expr,
    IntLit,
    Name,
    PlainDest,
    Predicate,
    ProtocolSpec,
    Record,
    SpecError,
    Value,
    _setattr,
)

__all__ = [
    "EvalError",
    "IllegalActionError",
    "INT64_MAX",
    "INT64_MIN",
    "StepOutcome",
    "TInfo",
    "Transition",
    "Transitions",
    "VarStore",
    "compile_transition",
    "fire",
    "initial_config",
    "scope_of",
    "step",
    "store_of",
]

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class EvalError(SpecError):
    """An expression could not be evaluated (unknown name or overflow)."""


class IllegalActionError(SpecError):
    """An action/value pair with no transition in the current state."""


class VarStore(Record):
    """Integer variables plus read-only constants.

    The key sets are fixed for the life of a run; updates produce a new
    store with the same constants.
    """

    __slots__ = ("vars", "consts")

    def __init__(self, vars: Mapping[str, int], consts: Mapping[str, int]) -> None:
        _setattr(self, "vars", vars)
        _setattr(self, "consts", consts)


class TInfo(Record):
    """A semantics configuration: current state plus internal store."""

    __slots__ = ("state", "store")

    def __init__(self, state: str, store: VarStore) -> None:
        _setattr(self, "state", state)
        _setattr(self, "store", store)


class StepOutcome(Record):
    """Result of executing one action: the next configuration, whether the
    transition triggered (``False`` keeps the pre-step state), the branch
    that was executed and whether it sits on the state's input side."""

    __slots__ = ("next", "triggered", "branch", "is_input")

    def __init__(self, next: TInfo, triggered: bool, branch: Branch, is_input: bool) -> None:
        _setattr(self, "next", next)
        _setattr(self, "triggered", triggered)
        _setattr(self, "branch", branch)
        _setattr(self, "is_input", is_input)


Scope = dict[str, int]


def scope_of(store: VarStore) -> Scope:
    """The store's constants and variables in one dict; a name that is both
    reads as the variable."""
    return {**store.consts, **store.vars}


def store_of(scope: Scope, store: VarStore) -> VarStore:
    """``store`` with its variables' values taken from ``scope``."""
    return VarStore({name: scope[name] for name in store.vars}, store.consts)


def _overflow(value: int) -> EvalError:
    return EvalError(f"arithmetic overflow: {value} outside 64-bit range")


def _raising(make_error: Callable[..., EvalError], *args) -> Callable[[Scope], NoReturn]:
    def fail(scope: Scope) -> NoReturn:
        raise make_error(*args)

    return fail


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_CMP = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compile_expr(expr: Expr) -> Callable[[Scope], int]:
    if isinstance(expr, IntLit):
        literal = expr.value
        if INT64_MIN <= literal <= INT64_MAX:
            return lambda scope: literal
        return _raising(_overflow, literal)
    if isinstance(expr, Name):
        ident = expr.ident

        def read(scope: Scope) -> int:
            try:
                value = scope[ident]
            except KeyError:
                raise EvalError(f"unknown name {ident!r}") from None
            if INT64_MIN <= value <= INT64_MAX:
                return value
            raise _overflow(value)

        return read
    left, right, apply = _compile_expr(expr.left), _compile_expr(expr.right), _ARITH[expr.op]

    def binop(scope: Scope) -> int:
        value = apply(left(scope), right(scope))
        if INT64_MIN <= value <= INT64_MAX:
            return value
        raise _overflow(value)

    return binop


def _compile_assign(
    key: str, assigns: Mapping[str, Assignment], variables: Container[str]
) -> Callable[[Scope], None]:
    rule = assigns[key]
    value, target = _compile_expr(rule.expr), rule.target
    if target not in variables:

        def not_a_variable(scope: Scope) -> None:
            value(scope)
            raise EvalError(f"{target!r} is not a variable")

        return not_a_variable

    def assign(scope: Scope) -> None:
        scope[target] = value(scope)

    return assign


def _compile_pred(key: str, preds: Mapping[str, Predicate]) -> Callable[[Scope], bool]:
    pred = preds[key]
    clauses = [(_CMP[c.op], _compile_expr(c.left), _compile_expr(c.right)) for c in pred.clauses]

    def holds(scope: Scope) -> bool:
        for compare, left, right in clauses:
            if not compare(left(scope), right(scope)):
                return False
        return True

    return holds


def initial_config(spec: ProtocolSpec) -> TInfo:
    """Start-state configuration with variable initializers evaluated once.
    A constant or an initial value outside the int64 range raises the overflow."""
    consts = dict(spec.internal.consts)
    for value in consts.values():
        if not INT64_MIN <= value <= INT64_MAX:
            raise _overflow(value)
    values = {name: _compile_expr(init)(consts) for name, init in spec.internal.vars.items()}
    return TInfo(state=spec.typestate.start, store=VarStore(vars=values, consts=consts))


class Transition(NamedTuple):
    """One (state, action) pair, compiled: the branch and its side, then the
    plain destination ``target`` or, for a decision, ``outcomes`` keyed by
    ``(type(value), value)`` so that ``1`` selects no boolean outcome.
    ``effect`` applies the pre-assignments to a scope and returns whether the
    predicates hold, after applying the post-assignments if they do; it is
    ``None`` when the branch has no assignment and no predicate."""

    branch: Branch
    is_input: bool
    target: Optional[str]
    outcomes: Optional[dict[tuple[type, Value], str]]
    effect: Optional[Callable[[Scope], bool]]


def compile_transition(
    spec: ProtocolSpec, state: str, action: str, variables: Container[str]
) -> Optional[Transition]:
    """The transition ``state`` offers for ``action``, or ``None`` (a state
    that is not declared offers none); ``variables`` are the names its
    assignments may write."""
    found = spec.typestate.find(state, action)
    if found is None:
        return None
    branch, is_input = found
    internal = spec.internal
    pre = [_compile_assign(key, internal.assigns, variables) for key in branch.pre_assigns]
    preds = [_compile_pred(key, internal.preds) for key in branch.preds]
    post = [_compile_assign(key, internal.assigns, variables) for key in branch.post_assigns]

    def effect(scope: Scope) -> bool:
        for assign in pre:
            assign(scope)
        for holds in preds:
            if not holds(scope):
                return False
        for assign in post:
            assign(scope)
        return True

    if not (pre or preds or post):
        effect = None
    if isinstance(branch.dest, PlainDest):
        return Transition(branch, is_input, branch.dest.state, None, effect)
    outcomes = {(type(o), o): s for o, s in branch.dest.cases}
    return Transition(branch, is_input, None, outcomes, effect)


class Transitions(dict):
    """The transitions of one spec by (state, action), each compiled on its
    first lookup; ``None`` marks a pair with no transition."""

    def __init__(self, spec: ProtocolSpec, variables: Container[str]):
        super().__init__()
        self.spec, self.variables = spec, variables

    def __missing__(self, key: tuple[str, str]) -> Optional[Transition]:
        compiled = self[key] = compile_transition(self.spec, *key, self.variables)
        return compiled


def fire(
    t: Optional[Transition], state: str, action: str, value: Value, scope: Scope
) -> tuple[str, Scope, bool]:
    """Execute ``t``, the transition of (``state``, ``action``), on ``scope``
    with the returned ``value``: the next state and scope, and whether it
    triggered.  ``scope`` is not changed; an effect runs on a copy.  Raises
    :class:`IllegalActionError` when there is no transition for (action,
    value) and :class:`EvalError` when an expression cannot be evaluated."""
    if t is None:
        raise IllegalActionError(f"state {state!r} offers no action {action!r}")
    if t.outcomes is None:
        if value is not None:
            raise IllegalActionError(
                f"action {action!r} in state {state!r} returns no value, got {value!r}"
            )
        target = t.target
    else:
        try:
            target = t.outcomes.get((type(value), value))
        except TypeError:  # an unhashable value matches no outcome
            target = None
        if target is None:
            raise IllegalActionError(
                f"action {action!r} in state {state!r} has no outcome {value!r}"
            )
    if t.effect is None:
        return target, scope, True
    scope = dict(scope)
    if t.effect(scope):
        return target, scope, True
    return state, scope, False


def step(spec: ProtocolSpec, cfg: TInfo, action: str, value: Value = None) -> StepOutcome:
    """Execute one action in the given configuration.

    ``value`` is the action's returned value: ``None`` for unit actions, a
    boolean or enumeration label for decisions.  Raises
    :class:`IllegalActionError` when the current state has no transition for
    (action, value) -- a protocol violation.  States that are not declared
    offer no action.
    """
    store = cfg.store
    t = compile_transition(spec, cfg.state, action, store.vars)
    scope = scope_of(store)
    state, after, triggered = fire(t, cfg.state, action, value, scope)
    if after is not scope:
        store = store_of(after, store)
    return StepOutcome(TInfo(state, store), triggered, t.branch, t.is_input)
