"""Stepping semantics, checked against a direct interpreter of the rules and
against the tree-walking interpreter that the compiled transitions replaced."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsmon import semantics, specs
from tsmon.dsl import parse_protocol
from tsmon.model import (
    ActionSignature,
    Assignment,
    BinOp,
    Branch,
    Comparison,
    DecisionDest,
    InternalStateDecl,
    IntLit,
    Name,
    PlainDest,
    Predicate,
    ProtocolSpec,
    StateBody,
    Typestate,
    _outcomes,
)
from tsmon.monitor import Monitor, MonitorConfig, TraceEvent, run_trace
from tsmon.semantics import (
    EvalError,
    IllegalActionError,
    INT64_MAX,
    INT64_MIN,
    StepOutcome,
    TInfo,
    Transitions,
    VarStore,
    fire,
    initial_config,
    scope_of,
    step,
)

from specgen import chain_spec, overflow_prone_spec, random_stateful_spec


def store(values, consts=None):
    return VarStore(vars=dict(values), consts=dict(consts or {}))


def _step_m(decls, branch, values, consts=None):
    """``step`` of ``m`` from state S and a store of ``values`` and ``consts``,
    in the spec of ``decls`` where S offers ``unit m() branch``."""
    spec = parse_protocol(f"{decls}\nstate S = ?{{ unit m() {branch} }}\nstate T = end\n")
    return step(spec, TInfo("S", store(values, consts)), "m")


_LEADER_DECLS = (
    "const n = 2\nconst k = 5\nvar acks = 0\nvar retries = k\n"
    "assign A1: acks := acks + 1\nassign A2: retries := retries - 1\n"
    "assign A3: acks := 0\nassign A4: retries := k\n"
    "pred P1: acks == n\npred P2: retries == 0"
)


class TestUpdate:
    def test_empty_sequence_is_identity(self):
        spec = parse_protocol("var x = 0\nstate S = ?{ unit m() : S }\n")
        s = store({"x": 3})
        assert step(spec, TInfo("S", s), "m").next.store is s

    def test_single_increment(self):
        out = _step_m("var x = 0\nassign A: x := x + 1", "[_; [A]; []] : T", {"x": 0})
        assert out.next.store.vars == {"x": 1}

    def test_applies_left_to_right(self):
        decls = "var x = 5\nassign F: x := 1\nassign G: x := x * 2"
        out = _step_m(decls, "[_; [F, G]; []] : T", {"x": 5})
        assert out.next.store.vars == {"x": 2}  # right-to-left would give 11

    def test_overflow_reported(self):
        with pytest.raises(EvalError, match="overflow"):
            _step_m("var x = 1\nassign D: x := x * 2", "[_; [D]; []] : T", {"x": INT64_MAX})

    def test_consts_never_change(self):
        values, consts = {"acks": 0, "retries": 5}, {"n": 2, "k": 5}
        out = _step_m(_LEADER_DECLS, "[_; [A1, A2]; []] : T [A3, A4]", values, consts)
        assert out.next.store.consts == {"n": 2, "k": 5}
        assert set(out.next.store.vars) == {"acks", "retries"}


class TestEvalPreds:
    def test_empty_sequence_is_true(self):
        out = _step_m("var x = 0\nassign A: x := x + 1", "[_; [A]; []] : T", {"x": 0})
        assert out.triggered
        assert out.next.state == "T"

    def test_single_predicate(self):
        decls = "var x = 0\npred P: x == 2"
        assert _step_m(decls, "[_; []; [P]] : T", {"x": 2}).triggered
        out = _step_m(decls, "[_; []; [P]] : T", {"x": 1})
        assert not out.triggered
        assert out.next.state == "S"

    def test_conjunction_short_circuits_to_false(self):
        values, consts = {"acks": 2, "retries": 3}, {"n": 2, "k": 5}
        assert _step_m(_LEADER_DECLS, "[_; []; [P1]] : T", values, consts).triggered
        assert not _step_m(_LEADER_DECLS, "[_; []; [P1, P2]] : T", values, consts).triggered

    def test_reads_constants(self):
        values = {"acks": 2, "retries": 0}
        assert _step_m(_LEADER_DECLS, "[_; []; [P1, P2]] : T", values, {"n": 2, "k": 5}).triggered
        assert not _step_m(_LEADER_DECLS, "[_; []; [P1, P2]] : T", values, {"n": 3, "k": 5}).triggered


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
                    for value in _outcomes(br):
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


# --------------------------------------------------------------------------
# Differential check against the tree-walking interpreter that the compiled
# transitions replaced, kept here verbatim as an oracle.  The one addition:
# an overflow error records in ``where`` the node that raised it (a literal,
# a name or an operator), so that a test can tell which checks it reached.
# --------------------------------------------------------------------------


def _old_check_range(value, where):
    if not INT64_MIN <= value <= INT64_MAX:
        exc = EvalError(f"arithmetic overflow: {value} outside 64-bit range")
        exc.where = where
        raise exc
    return value


def _old_value(store, name):
    if name in store.vars:
        return store.vars[name]
    if name in store.consts:
        return store.consts[name]
    raise EvalError(f"unknown name {name!r}")


def _old_eval_expr(expr, store):
    if isinstance(expr, IntLit):
        return _old_check_range(expr.value, "literal")
    if isinstance(expr, Name):
        return _old_check_range(_old_value(store, expr.ident), "name")
    left = _old_eval_expr(expr.left, store)
    right = _old_eval_expr(expr.right, store)
    if expr.op == "+":
        return _old_check_range(left + right, "+")
    if expr.op == "-":
        return _old_check_range(left - right, "-")
    return _old_check_range(left * right, "*")


def _old_eval_clause(clause, store):
    return _OPS[clause.op](_old_eval_expr(clause.left, store), _old_eval_expr(clause.right, store))


def _old_update(keys, store, assigns):
    if not keys:
        return store
    values = dict(store.vars)
    updated = VarStore(vars=values, consts=store.consts)
    for key in keys:
        rule = assigns.get(key)
        if rule is None:
            raise EvalError(f"unknown assignment key {key!r}")
        value = _old_eval_expr(rule.expr, updated)
        if rule.target not in values:
            raise EvalError(f"{rule.target!r} is not a variable")
        values[rule.target] = value
    return updated


def _old_eval_preds(keys, store, preds):
    for key in keys:
        pred = preds.get(key)
        if pred is None:
            raise EvalError(f"unknown predicate key {key!r}")
        if not all(_old_eval_clause(c, store) for c in pred.clauses):
            return False
    return True


def _old_find(spec, state, action):
    """(branch, is_input) of ``action`` in ``state``, or None, by a scan of the
    state's branches: the oracle does not share ``Typestate.find``'s index."""
    body = spec.typestate.states.get(state)
    if body is not None:
        for is_input, side in ((True, body.in_branches), (False, body.out_branches)):
            for br in side:
                if br.action.name == action:
                    return br, is_input
    return None


def _old_step(spec, cfg, action, value=None):
    found = _old_find(spec, cfg.state, action)
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
    store = _old_update(branch.pre_assigns, cfg.store, assigns)
    if not _old_eval_preds(branch.preds, store, spec.internal.preds):
        return StepOutcome(TInfo(cfg.state, store), False, branch, is_input)
    store = _old_update(branch.post_assigns, store, assigns)
    return StepOutcome(TInfo(target, store), True, branch, is_input)


def _result(fn, *args):
    """("ok", the result), or the exception's type and message."""
    try:
        return "ok", fn(*args)
    except (IllegalActionError, EvalError) as exc:
        return type(exc), str(exc)


def _kind(spec, cfg, action, value):
    """What ``_old_step`` does with the step, for the coverage check."""
    try:
        out = _old_step(spec, cfg, action, value)
    except EvalError as exc:
        return f"overflow at {exc.where}" if hasattr(exc, "where") else "eval error"
    except IllegalActionError as exc:
        if type(value) is int and value == 1 and "has no outcome" in str(exc):
            return "1 for true"
        return "wrong outcome" if "has no outcome" in str(exc) else "illegal"
    return "triggered" if out.triggered else "not triggered"


# Start values: 0 to 4 as random_stateful_spec expects, the int64 bounds, and
# values outside them that only a hand-built store can hold.
_START_VALUES = [0, 1, 2, 3, 4, INT64_MAX, INT64_MIN, INT64_MAX + 1, INT64_MIN - 1]
_WRONG_VALUES = [None, True, False, 1, 0, 1.0, "c0", []]


def _differential_walk(spec, store, choose, steps):
    """Walk ``spec`` from ``store`` along actions and values picked by
    ``choose``; at every step the compiled ``step`` must give what the
    oracle gives.  Returns the kinds of step seen."""
    cfg = TInfo(spec.typestate.start, store)
    seen = set()
    for _ in range(steps):
        body = spec.typestate.states.get(cfg.state)
        branches = body.branches() if body is not None else ()
        action = choose([br.action.name for br in branches] + ["nope"])
        found = _old_find(spec, cfg.state, action)
        right = [None]
        if found is not None and not isinstance(found[0].dest, PlainDest):
            right = [o for o, _ in found[0].dest.cases]
        value = choose(right * 3 + _WRONG_VALUES)
        want = _result(_old_step, spec, cfg, action, value)
        assert _result(step, spec, cfg, action, value) == want, (cfg, action, value)
        seen.add(_kind(spec, cfg, action, value))
        if want[0] == "ok":
            cfg = want[1].next
    return seen


def _start_store(spec, choose):
    """The initial store, or one with each variable set by ``choose``."""
    store = initial_config(spec).store
    if choose([False, True]):
        store = VarStore({name: choose(_START_VALUES) for name in store.vars}, store.consts)
    return store


_SPECS = [random_stateful_spec, overflow_prone_spec]


class TestCompiledMatchesTreeWalker:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_walks(self, data):
        def choose(options):
            return data.draw(st.sampled_from(options))

        spec = choose(_SPECS)(data.draw(st.integers(0, 10_000)))
        _differential_walk(spec, _start_store(spec, choose), choose, 25)

    def test_walks_reach_every_kind_of_step(self):
        rng = random.Random(0)
        seen = set()
        for seed in range(40):
            spec = _SPECS[seed % 2](seed)
            seen |= _differential_walk(spec, _start_store(spec, rng.choice), rng.choice, 40)
        assert seen >= {
            "triggered",
            "not triggered",
            "wrong outcome",
            "1 for true",
            "illegal",
            "overflow at literal",
            "overflow at name",
            "overflow at +",
            "overflow at -",
            "overflow at *",
        }

    def test_wrappers_match_on_hand_built_stores(self, leader):
        # x is both a variable and a constant, y is out of range, z is not
        # a variable and c only a constant.
        store = VarStore({"x": INT64_MAX, "y": INT64_MAX + 1}, {"c": 2, "x": 0})
        cfg = TInfo("S", store)

        def check(assigns=None, pre=(), preds=None, keys=()):
            # Every name is declared a variable, so that a spec carries it.
            names = {name: IntLit(0) for name in ("x", "y", "z", "c", "nope")}
            internal = InternalStateDecl(vars=names, assigns=assigns or {}, preds=preds or {})
            branch = Branch(ActionSignature("m"), None, pre, keys, PlainDest("S"))
            spec = ProtocolSpec(Typestate({"S": StateBody(in_branches=(branch,))}), internal)
            assert _result(step, spec, cfg, "m") == _result(_old_step, spec, cfg, "m")

        for expr in (
            IntLit(INT64_MIN - 1),
            Name("x"),
            Name("y"),
            Name("c"),
            Name("nope"),
            BinOp("+", Name("x"), IntLit(1)),
            BinOp("-", IntLit(INT64_MIN), Name("c")),
            BinOp("*", Name("c"), BinOp("-", Name("x"), IntLit(1))),
            BinOp("*", IntLit(INT64_MIN), IntLit(-1)),
        ):
            check(assigns={"E": Assignment("x", expr)}, pre=("E",))
        assigns = {
            "up": Assignment("x", BinOp("+", Name("x"), IntLit(1))),
            "down": Assignment("x", BinOp("-", Name("x"), Name("c"))),
            "const": Assignment("c", IntLit(1)),
            "z": Assignment("z", Name("c")),
            "z_overflow": Assignment("z", Name("y")),
        }
        for keys in [
            ("down", "down"), ("down", "up"), ("down", "const"), ("z",), ("z_overflow",), ("down", "z"),
        ]:
            check(assigns=assigns, pre=keys)
        preds = {
            "above": Predicate((Comparison(">", Name("x"), Name("c")),)),
            "below": Predicate((Comparison("<", Name("x"), IntLit(0)), Comparison("==", Name("y"), IntLit(0)))),
        }
        for keys in [("above",), ("above", "below")]:
            check(preds=preds, keys=keys)
        # The leader's rules on stores that lack a variable or hold it as a constant.
        for vars_, consts in [({"acks": 0}, {"n": 2, "k": 5}), ({"acks": 0}, {"retries": 3, "n": 2, "k": 5})]:
            cfg = TInfo("L1", VarStore(vars_, consts))
            for action in ("vreq", "vack"):
                assert _result(step, leader, cfg, action) == _result(_old_step, leader, cfg, action)


# --------------------------------------------------------------------------
# Each (state, action) is compiled once per run, and a single step compiles
# only the transition it takes.
# --------------------------------------------------------------------------


@pytest.fixture
def compiled(monkeypatch):
    """The (state, action) of every compile_transition call, in order."""
    calls = []
    compile_transition = semantics.compile_transition

    def counting(spec, state, action, variables):
        calls.append((state, action))
        return compile_transition(spec, state, action, variables)

    monkeypatch.setattr(semantics, "compile_transition", counting)
    return calls


def _chain_events(n_states):
    """Forward to the end of the chain, back and forth in the middle, then
    back to the start, with an action the chain does not offer at each end."""
    actions = ["fwd"] * n_states + ["nope"] + ["back", "fwd"] * 50 + ["back"] * n_states + ["nope"]
    return [
        TraceEvent("c", a, "in" if a != "back" else "out", None, i) for i, a in enumerate(actions)
    ]


class TestCompileOnce:
    def test_step_compiles_one_transition_per_call(self, compiled, leader):
        cfg = initial_config(leader)
        for i, action in enumerate(["vreq", "vack", "vack", "vwb", "vreq"], start=1):
            cfg = step(leader, cfg, action).next
            assert len(compiled) == i
        with pytest.raises(IllegalActionError):
            step(leader, cfg, "nope")
        assert len(compiled) == 6

    def test_monitor_feed_compiles_each_pair_at_most_once(self, compiled):
        spec = chain_spec(1600)
        events = _chain_events(1600)
        conf = MonitorConfig(warmup=0)
        m = Monitor(spec, conf)
        log = []
        for ev in events:
            log += m.feed((ev,))
        assert len(compiled) == len(set(compiled)) == 1600 + 1 + 1600 + 1
        assert (m.config(), tuple(log)) == run_trace(spec, conf, events)

    def test_monitor_feed_takes_a_generator(self):
        spec = chain_spec(1600)
        events = _chain_events(1600)
        conf = MonitorConfig(warmup=0)
        m = Monitor(spec, conf)
        log = m.feed(ev for ev in events)
        assert (m.config(), tuple(log)) == run_trace(spec, conf, events)

    def test_run_trace_compiles_each_pair_at_most_once(self, compiled):
        spec = chain_spec(1600)
        events = _chain_events(1600)
        result = run_trace(spec, MonitorConfig(warmup=0), events)
        assert len(compiled) == len(set(compiled))
        assert len(compiled) == 1600 + 1 + 1600 + 1  # fwd and back at each state, nope at both ends
        assert result.final.state == "C0"
        assert result.final.store.vars == {"hops": 1600 + 50}
        assert sum(e.verdict == "illegal" for e in result.log) == 2


# --------------------------------------------------------------------------
# fire on an effect-free plain transition returns its target and the scope
# unchanged, which the simulator relies on to skip the call.
# --------------------------------------------------------------------------


class TestEffectFreeTransitions:
    @pytest.mark.parametrize("name", specs.BUNDLED)
    def test_fire_returns_the_target(self, name):
        spec = specs.load(name)
        cfg = initial_config(spec)
        scope = scope_of(cfg.store)
        table = Transitions(spec, cfg.store.vars)
        for state, body in spec.typestate.states.items():
            for branch in body.branches():
                action = branch.action.name
                t = table[state, action]
                if t.effect is None and t.target is not None:
                    got = fire(t, state, action, None, scope)
                    assert got == (t.target, scope, True)
                    assert got[1] is scope

    @pytest.mark.parametrize("name", ["sender", "receiver", "peer"])
    def test_every_simulated_transition_is_effect_free_and_plain(self, name):
        spec = specs.load(name)
        table = Transitions(spec, initial_config(spec).store.vars)
        for state, body in spec.typestate.states.items():
            for branch in body.branches():
                t = table[state, branch.action.name]
                assert t.effect is None and t.target is not None, (state, branch.action.name)
