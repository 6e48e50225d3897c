"""Execution semantics: internal-state updates and transition stepping.

A configuration pairs the current state name with a :class:`VarStore`.
Executing an action first applies its pre-assignments, then evaluates its
predicates: if they do not all hold the configuration keeps its state (a
non-triggering step), otherwise it moves to the destination selected by the
returned value and applies the post-assignments.

:func:`step` is the one place that resolves (state, action) to a branch: it
looks the action up once and returns the branch with its session side, so
the monitor reads the ratio and checks an event's direction (a wrong one is
still illegal) and the simulator writes trace directions from that result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .model import (
    Assignment,
    Branch,
    Comparison,
    Expr,
    IntLit,
    Name,
    PlainDest,
    Predicate,
    ProtocolSpec,
    SpecError,
    Value,
)

__all__ = [
    "EvalError",
    "IllegalActionError",
    "INT64_MAX",
    "INT64_MIN",
    "StepOutcome",
    "TInfo",
    "VarStore",
    "eval_expr",
    "eval_preds",
    "initial_config",
    "step",
    "update",
]

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class EvalError(SpecError):
    """An expression could not be evaluated (unknown name or overflow)."""


class IllegalActionError(SpecError):
    """An action/value pair with no transition in the current state."""


@dataclass(frozen=True)
class VarStore:
    """Integer variables plus read-only constants.

    The key sets are fixed for the life of a run; updates produce a new
    store with the same constants.
    """

    vars: Mapping[str, int]
    consts: Mapping[str, int]

    def value(self, name: str) -> int:
        if name in self.vars:
            return self.vars[name]
        if name in self.consts:
            return self.consts[name]
        raise EvalError(f"unknown name {name!r}")


@dataclass(frozen=True)
class TInfo:
    """A semantics configuration: current state plus internal store."""

    state: str
    store: VarStore


@dataclass(frozen=True)
class StepOutcome:
    """Result of executing one action: the next configuration, whether the
    transition triggered (``False`` keeps the pre-step state), the branch
    that was executed and whether it sits on the state's input side."""

    next: TInfo
    triggered: bool
    branch: Branch
    is_input: bool


def _check_range(value: int) -> int:
    if not INT64_MIN <= value <= INT64_MAX:
        raise EvalError(f"arithmetic overflow: {value} outside 64-bit range")
    return value


def eval_expr(expr: Expr, store: VarStore) -> int:
    if isinstance(expr, IntLit):
        return _check_range(expr.value)
    if isinstance(expr, Name):
        return _check_range(store.value(expr.ident))
    left = eval_expr(expr.left, store)
    right = eval_expr(expr.right, store)
    if expr.op == "+":
        return _check_range(left + right)
    if expr.op == "-":
        return _check_range(left - right)
    return _check_range(left * right)


_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _eval_clause(clause: Comparison, store: VarStore) -> bool:
    return _CMP[clause.op](eval_expr(clause.left, store), eval_expr(clause.right, store))


def update(
    keys: tuple[str, ...], store: VarStore, assigns: Mapping[str, Assignment]
) -> VarStore:
    """Apply the named assignments left to right; () returns the store as is."""
    if not keys:
        return store
    # One copy per call: ``updated`` reads the dict the loop writes, so each
    # assignment sees the ones before it.
    values = dict(store.vars)
    updated = VarStore(vars=values, consts=store.consts)
    for key in keys:
        rule = assigns.get(key)
        if rule is None:
            raise EvalError(f"unknown assignment key {key!r}")
        value = eval_expr(rule.expr, updated)
        if rule.target not in values:
            raise EvalError(f"{rule.target!r} is not a variable")
        values[rule.target] = value
    return updated


def eval_preds(
    keys: tuple[str, ...], store: VarStore, preds: Mapping[str, Predicate]
) -> bool:
    """Conjunction of the named predicates; () evaluates to true."""
    for key in keys:
        pred = preds.get(key)
        if pred is None:
            raise EvalError(f"unknown predicate key {key!r}")
        if not all(_eval_clause(c, store) for c in pred.clauses):
            return False
    return True


def initial_config(spec: ProtocolSpec) -> TInfo:
    """Start-state configuration with variable initializers evaluated once."""
    consts = dict(spec.internal.consts)
    empty = VarStore(vars={}, consts=consts)
    values = {name: eval_expr(init, empty) for name, init in spec.internal.vars.items()}
    return TInfo(state=spec.typestate.start, store=VarStore(vars=values, consts=consts))


def step(spec: ProtocolSpec, cfg: TInfo, action: str, value: Value = None) -> StepOutcome:
    """Execute one action in the given configuration.

    ``value`` is the action's returned value: ``None`` for unit actions, a
    boolean or enumeration label for decisions.  Raises
    :class:`IllegalActionError` when the current state has no transition for
    (action, value) -- a protocol violation.  States that are not declared
    offer no action.
    """
    body = spec.typestate.states.get(cfg.state)
    found = body.find(action) if body is not None else None
    if found is None:
        raise IllegalActionError(f"state {cfg.state!r} offers no action {action!r}")
    branch, is_input = found
    if isinstance(branch.dest, PlainDest):
        if value is not None:
            raise IllegalActionError(
                f"action {action!r} in state {cfg.state!r} returns no value, got {value!r}"
            )
        target = branch.dest.state
    else:
        chosen = branch.dest.target(value)
        if chosen is None:
            raise IllegalActionError(
                f"action {action!r} in state {cfg.state!r} has no outcome {value!r}"
            )
        target = chosen
    assigns = spec.internal.assigns
    store = update(branch.pre_assigns, cfg.store, assigns)
    if not eval_preds(branch.preds, store, spec.internal.preds):
        return StepOutcome(TInfo(cfg.state, store), False, branch, is_input)
    store = update(branch.post_assigns, store, assigns)
    return StepOutcome(TInfo(target, store), True, branch, is_input)
