"""Stepping semantics, checked against a direct interpreter of the rules."""

import itertools

import pytest

from tsmon import specs
from tsmon.dsl import parse_protocol
from tsmon.model import DecisionDest, IntLit, Name, PlainDest, decisions_of
from tsmon.semantics import (
    EvalError,
    IllegalActionError,
    INT64_MAX,
    TInfo,
    VarStore,
    eval_preds,
    initial_config,
    step,
    update,
)

from specgen import random_stateful_spec


def store(values, consts=None):
    return VarStore(vars=dict(values), consts=dict(consts or {}))


class TestUpdate:
    def test_empty_sequence_is_identity(self, counting):
        s = store({"acks": 3})
        assert update((), s, counting.internal.assigns) is s

    def test_single_increment(self, counting):
        s = update(("A1",), store({"acks": 0}), counting.internal.assigns)
        assert s.vars == {"acks": 1}

    def test_applies_left_to_right(self):
        spec = parse_protocol(
            "var x = 5\nassign F: x := 1\nassign G: x := x * 2\n"
            "state S = ?{ unit m() [_; [F, G]; []] : S [] }\n"
        )
        s = update(("F", "G"), store({"x": 5}), spec.internal.assigns)
        assert s.vars == {"x": 2}  # right-to-left would give 11

    def test_unknown_key(self, counting):
        with pytest.raises(EvalError):
            update(("A9",), store({"acks": 0}), counting.internal.assigns)

    def test_overflow_reported(self):
        spec = parse_protocol(
            "var x = 1\nassign D: x := x * 2\n"
            "state S = ?{ unit m() [_; [D]; []] : S [] }\n"
        )
        s = store({"x": INT64_MAX})
        with pytest.raises(EvalError, match="overflow"):
            update(("D",), s, spec.internal.assigns)

    def test_consts_never_change(self, leader):
        s = store({"acks": 0, "retries": 5}, {"n": 2, "k": 5})
        out = update(("A1", "A2", "A3", "A4"), s, leader.internal.assigns)
        assert out.consts == {"n": 2, "k": 5}
        assert set(out.vars) == {"acks", "retries"}


class TestEvalPreds:
    def test_empty_sequence_is_true(self, counting):
        assert eval_preds((), store({"acks": 0}), counting.internal.preds)

    def test_single_predicate(self, counting):
        preds = counting.internal.preds
        assert eval_preds(("P1",), store({"acks": 2}), preds)
        assert not eval_preds(("P1",), store({"acks": 1}), preds)

    def test_conjunction_short_circuits_to_false(self, leader):
        preds = leader.internal.preds
        s = store({"acks": 2, "retries": 3}, {"n": 2, "k": 5})
        assert eval_preds(("P1",), s, preds)
        assert not eval_preds(("P1", "P2"), s, preds)

    def test_reads_constants(self, leader):
        s = store({"acks": 2, "retries": 0}, {"n": 2, "k": 5})
        assert eval_preds(("P1", "P2"), s, leader.internal.preds)


class TestInitialConfig:
    def test_leader(self, leader):
        cfg = initial_config(leader)
        assert cfg.state == "L0"
        assert cfg.store.vars == {"acks": 0, "retries": 5}
        assert cfg.store.consts == {"n": 2, "k": 5}

    def test_counting(self, counting):
        cfg = initial_config(counting)
        assert cfg.state == "S0"
        assert cfg.store.vars == {"acks": 0}

    def test_no_vars(self, sender):
        cfg = initial_config(sender)
        assert cfg.state == "S0"
        assert cfg.store.vars == {}


class TestStep:
    def test_non_triggering_accumulates(self, counting):
        cfg = initial_config(counting)
        out = step(counting, cfg, "m")
        assert not out.triggered
        assert out.next.state == "S0"
        assert out.next.store.vars == {"acks": 1}

    def test_triggering_applies_post_assigns(self, counting):
        cfg = initial_config(counting)
        out = step(counting, step(counting, cfg, "m").next, "m")
        assert out.triggered
        assert out.next.state == "S1"
        assert out.next.store.vars == {"acks": 0}

    def test_leader_retry_exhaustion(self, leader):
        cfg = initial_config(leader)
        flags = []
        for _ in range(5):
            out = step(leader, cfg, "vreq")
            flags.append(out.triggered)
            cfg = out.next
        assert flags == [True, False, False, False, True]
        assert cfg.state == "L2"
        assert cfg.store.vars == {"acks": 0, "retries": 5}

    def test_leader_quorum(self, leader):
        cfg = initial_config(leader)
        for action in ("vreq", "vack", "vack"):
            cfg = step(leader, cfg, action).next
        assert cfg.state == "L2"
        assert cfg.store.vars == {"acks": 0, "retries": 5}

    def test_illegal_action(self, counting):
        cfg = initial_config(counting)
        moved = step(counting, step(counting, cfg, "m").next, "m").next
        assert moved.state == "S1"
        with pytest.raises(IllegalActionError):
            step(counting, moved, "ack")

    def test_decision_selects_destination(self, auth):
        cfg = initial_config(auth)
        assert step(auth, cfg, "login", "failure").next.state == "Unauth"
        assert step(auth, cfg, "login", "success").next.state == "Auth"

    def test_missing_value_for_decision(self, auth):
        with pytest.raises(IllegalActionError):
            step(auth, initial_config(auth), "login")

    @pytest.mark.parametrize("value", [1, 1.0, 0])
    def test_number_selects_no_boolean_outcome(self, ask, value):
        cfg = initial_config(ask)
        assert step(ask, cfg, "ask", True).next.state == "S1"
        with pytest.raises(IllegalActionError):
            step(ask, cfg, "ask", value)

    def test_value_on_plain_action(self, sender):
        with pytest.raises(IllegalActionError):
            step(sender, initial_config(sender), "msg", True)

    def test_step_is_a_function(self, leader):
        cfg = initial_config(leader)
        assert step(leader, cfg, "vreq") == step(leader, cfg, "vreq")

    def test_frame_conditions(self, leader):
        cfg = initial_config(leader)
        out = step(leader, cfg, "vreq")
        assert out.next.store.consts == cfg.store.consts
        assert set(out.next.store.vars) == set(cfg.store.vars)

    def test_outcome_names_branch_and_side(self):
        for name in specs.BUNDLED:
            spec = specs.load(name)
            start = initial_config(spec).store
            for state, body in spec.typestate.states.items():
                for br in body.branches():
                    for value in decisions_of(spec.typestate, state, br.action.name):
                        out = step(spec, TInfo(state, start), br.action.name, value)
                        assert out.branch is br
                        assert out.is_input == (br in body.in_branches)


# --------------------------------------------------------------------------
# Oracle: a direct transcription of the two transition rules, with its own
# expression interpreter.  Compared exhaustively against step() on small
# random specs over all configurations with variable values in [0, 4].
# --------------------------------------------------------------------------


def _oracle_eval(expr, env):
    if isinstance(expr, IntLit):
        value = expr.value
    elif isinstance(expr, Name):
        value = env[expr.ident]
    else:
        left = _oracle_eval(expr.left, env)
        right = _oracle_eval(expr.right, env)
        if expr.op == "+":
            value = left + right
        elif expr.op == "-":
            value = left - right
        else:
            value = left * right
    if not -(2**63) <= value <= 2**63 - 1:
        raise OverflowError
    return value


_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _oracle_step(spec, state, values, action, value):
    body = spec.typestate.states.get(state)
    branch = None
    if body is not None:
        for br in body.in_branches + body.out_branches:
            if br.action.name == action:
                branch = br
    if branch is None:
        return "illegal"
    if isinstance(branch.dest, PlainDest):
        if value is not None:
            return "illegal"
        target = branch.dest.state
    else:
        assert isinstance(branch.dest, DecisionDest)
        matches = [s for o, s in branch.dest.cases if o == value]
        if not matches:
            return "illegal"
        target = matches[0]
    consts = dict(spec.internal.consts)
    sigma = dict(values)
    for key in branch.pre_assigns:
        rule = spec.internal.assigns[key]
        sigma[rule.target] = _oracle_eval(rule.expr, {**consts, **sigma})
    holds = True
    for key in branch.preds:
        for clause in spec.internal.preds[key].clauses:
            env = {**consts, **sigma}
            if not _OPS[clause.op](_oracle_eval(clause.left, env), _oracle_eval(clause.right, env)):
                holds = False
    if not holds:
        return (state, sigma, False)
    for key in branch.post_assigns:
        rule = spec.internal.assigns[key]
        sigma[rule.target] = _oracle_eval(rule.expr, {**consts, **sigma})
    return (target, sigma, True)


@pytest.mark.parametrize("seed", range(30))
def test_step_matches_rule_interpreter(seed):
    spec = random_stateful_spec(seed)
    var_names = sorted(spec.internal.vars)
    consts = dict(spec.internal.consts)
    actions = {
        (state, br.action.name, outcome)
        for state, body in spec.typestate.states.items()
        for br in body.branches()
        for outcome in (
            [None]
            if isinstance(br.dest, PlainDest)
            else [o for o, _ in br.dest.cases] + [None]
        )
    }
    for combo in itertools.product(range(5), repeat=len(var_names)):
        values = dict(zip(var_names, combo))
        for state in spec.typestate.states:
            for _, action, outcome in {a for a in actions}:
                cfg_store = VarStore(vars=values, consts=consts)
                expected = _oracle_step(spec, state, values, action, outcome)
                try:
                    got = step(spec, TInfo(state, cfg_store), action, outcome)
                except IllegalActionError:
                    assert expected == "illegal", (state, action, outcome, values)
                    continue
                assert expected != "illegal", (state, action, outcome, values)
                assert got.next.state == expected[0]
                assert dict(got.next.store.vars) == expected[1]
                assert got.triggered == expected[2]
