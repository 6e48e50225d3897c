"""Well-formedness rules, transition sets, graph predicates, DOT export."""

import random
from functools import partial

import pytest

from tsmon import specs
from tsmon.dsl import parse_protocol
from tsmon.wellformed import (
    RULE_DECISION_TOTALITY,
    RULE_DECISIONS,
    RULE_DETERMINISTIC,
    RULE_ENUMERABLE,
    RULE_NON_ENUMERABLE,
    RULE_RATIO_SUM,
    RULE_TRANSITION_SET,
    RULE_USEFUL_STATES,
    RULE_WEAK_CONNECTIVITY,
    TransitionSet,
    build_trs,
    check_transition_rules,
    check_well_formed,
    export_dot,
    validate,
)

from growth import assert_grows_linearly
from specgen import (
    chain_spec,
    fixpoint_reachable,
    fixpoint_weak_component,
    perturbed_trs,
    random_wellformed_spec,
    trs_rule_oracle,
    useful_states_oracle,
    wide_spec,
)


class TestCheckWellFormed:
    @pytest.mark.parametrize("name", specs.BUNDLED)
    def test_bundled_specs_are_well_formed(self, name):
        assert check_well_formed(specs.load(name)) == []

    def test_ratio_sum_violation(self):
        spec = parse_protocol(
            "state R0 = ?{ unit msg() : R1 }\n"
            "state R1 = !{ unit ack() [0.5; []; []] : R1 [] }"
            " + ?{ unit msg() [0.4; []; []] : R1 [] }\n"
        )
        diags = check_well_formed(spec)
        assert [d.rule for d in diags] == [RULE_RATIO_SUM]
        assert diags[0].state == "R1"

    def test_missing_decision_label(self):
        spec = parse_protocol(
            "enum LoginResult { success, failure }\n"
            "state Unauth = ?{ LoginResult login() : <success: Auth> }\n"
            "state Auth = ?{ unit logoff() : Unauth }\n"
        )
        diags = check_well_formed(spec)
        assert [d.rule for d in diags] == [RULE_DECISIONS]
        assert diags[0].action == "login"

    def test_decision_on_unit_action(self):
        spec = parse_protocol("state A = ?{ unit poke() : <yes: A, no: A> }\n")
        assert [d.rule for d in check_well_formed(spec)] == [RULE_DECISIONS]

    def test_epsilon_entries_excluded_from_sum(self, peer):
        # vwb carries no ratio; 0.5 + 0.5 must still count as exactly 1.
        assert check_well_formed(peer) == []


class TestBuildTrs:
    def test_abp_sender(self, sender):
        assert build_trs(sender) == {
            ("S0", "msg", None, "S1"),
            ("S1", "msg", None, "S1"),
            ("S1", "ack", None, "S0"),
        }

    def test_authentication(self, auth):
        assert build_trs(auth) == {
            ("Unauth", "login", "success", "Auth"),
            ("Unauth", "login", "failure", "Unauth"),
            ("Auth", "logoff", None, "Unauth"),
        }

    def test_empty_terminal_spec(self):
        spec = parse_protocol("state Done = end\n")
        assert build_trs(spec) == frozenset()

    @pytest.mark.parametrize("seed", range(40))
    def test_tuple_counting_formula(self, seed):
        from tsmon.model import PlainDest

        spec = random_wellformed_spec(seed)
        expected = 0
        for body in spec.typestate.states.values():
            for br in body.branches():
                expected += 1 if isinstance(br.dest, PlainDest) else len(br.dest.cases)
        # Identical tuples can only collapse if two branches coincide, which
        # the generator never produces within one state; across states the
        # tuples differ in their source.
        assert len(build_trs(spec)) == expected


NOT_REACHABLE = "not reachable from the start state"
NOT_PRODUCTIVE = "cannot reach a terminal state"


def _useful_states(spec):
    """The USEFUL-STATES findings of ``spec`` as (state, detail), checked
    against what the fixpoint oracles give."""
    trs = build_trs(spec)
    got = [(d.state, d.detail) for d in check_transition_rules(spec, trs) if d.rule == RULE_USEFUL_STATES]
    assert got == useful_states_oracle(trs, spec.typestate.states, spec.typestate.start)
    return got


class TestReachability:
    """USEFUL-STATES: every state is reachable and, if a terminal state
    exists, productive."""

    def test_start_is_reachable(self, sender):
        assert _useful_states(sender) == []
        # The start state has no incoming tuple.
        assert _useful_states(parse_protocol("state A = !{ unit m() : Done }\nstate Done = end\n")) == []

    def test_isolated_state(self):
        spec = parse_protocol("state A = !{ unit m() : A }\nstate B = !{ unit m() : B }\n")
        assert _useful_states(spec) == [("B", NOT_REACHABLE)]

    def test_leader_l2_via_path(self, leader):
        assert ("L2", NOT_REACHABLE) not in _useful_states(leader)

    def test_terminal_state_is_productive(self):
        spec = parse_protocol(
            "state A = !{ unit m() : Done, unit s() : B }\nstate B = !{ unit m() : B }\nstate Done = end\n"
        )
        assert _useful_states(spec) == [("B", NOT_PRODUCTIVE)]

    def test_abp_sender_never_productive(self):
        # The sender's states with an end state that nothing leads to.
        spec = parse_protocol(
            "state S0 = !{ unit msg() : S1 }\n"
            "state S1 = !{ unit msg() : S1 } + ?{ unit ack() : S0 }\n"
            "state Done = end\n"
        )
        assert _useful_states(spec) == [("S0", NOT_PRODUCTIVE), ("S1", NOT_PRODUCTIVE), ("Done", NOT_REACHABLE)]

    @pytest.mark.parametrize("seed", range(60))
    def test_agrees_with_fixpoint_oracle(self, seed):
        spec = random_wellformed_spec(seed)
        states = spec.typestate.states
        start = spec.typestate.start
        full = sorted(build_trs(spec), key=repr)
        # A seeded subset of the tuples, sometimes plus one into an undeclared
        # state, leaves unreachable, unproductive, disconnected and dangling
        # nodes.
        rng = random.Random(seed)
        pruned = {t for t in full if rng.random() < 0.6}
        if rng.random() < 0.5:
            pruned.add((rng.choice(list(states)), "ghost", None, "Dangling"))
        for tuples in (frozenset(full), frozenset(pruned)):
            trs = TransitionSet(tuples)
            # The indexed rules report exactly what the oracles imply, in
            # declaration order.
            expected = [
                (RULE_USEFUL_STATES, state, detail) for state, detail in useful_states_oracle(tuples, states, start)
            ]
            component = fixpoint_weak_component(tuples, start)
            if len(states) > 1:
                expected += [
                    (RULE_WEAK_CONNECTIVITY, state, "disconnected from the rest of the typestate")
                    for state in states
                    if state not in component
                ]
            got = [
                (d.rule, d.state, d.detail)
                for d in check_transition_rules(spec, trs)
                if d.rule in (RULE_USEFUL_STATES, RULE_WEAK_CONNECTIVITY)
            ]
            assert got == expected


class TestTransitionRules:
    def test_leader_is_clean(self, leader):
        assert check_transition_rules(leader, build_trs(leader)) == []

    def test_unreachable_state(self):
        spec = parse_protocol(
            "state S0 = !{ unit msg() : S0 }\n"
            "state S1 = !{ unit msg() : S1 } + ?{ unit ack() : S0 }\n"
        )
        diags = check_transition_rules(spec, build_trs(spec))
        assert [d.rule for d in diags] == [RULE_USEFUL_STATES]
        assert diags[0].state == "S1"

    def test_abp_sender_loops_forever(self, sender):
        # No terminal state exists, so the productivity clause is vacuous.
        assert check_transition_rules(sender, build_trs(sender)) == []

    def test_unproductive_state_with_terminal_present(self):
        spec = parse_protocol(
            "state A = !{ unit go() : Done, unit spin() : B }\n"
            "state B = !{ unit spin() : B }\n"
            "state Done = end\n"
        )
        diags = check_transition_rules(spec, build_trs(spec))
        assert [d.rule for d in diags] == [RULE_USEFUL_STATES]
        assert diags[0].state == "B"

    def test_disconnected_component(self):
        spec = parse_protocol(
            "state A = !{ unit m() : A }\nstate B = !{ unit m() : C }\nstate C = ?{ unit m() : B }\n"
        )
        diags = check_transition_rules(spec, build_trs(spec))
        rules = {d.rule for d in diags}
        assert RULE_USEFUL_STATES in rules
        assert RULE_WEAK_CONNECTIVITY in rules

    def test_nondeterministic_value(self, sender):
        trs = TransitionSet(
            frozenset(
                {
                    ("S0", "msg", None, "S1"),
                    ("S0", "msg", None, "S0"),
                }
            )
        )
        diags = check_transition_rules(sender, trs)
        assert any(d.rule == RULE_DETERMINISTIC for d in diags)

    def test_plain_and_decision_coexisting(self, auth):
        trs = build_trs(auth)
        extended = TransitionSet(trs | {("Unauth", "login", None, "Auth")})
        diags = check_transition_rules(auth, extended)
        rules = [d.rule for d in diags]
        assert RULE_DETERMINISTIC in rules
        assert RULE_ENUMERABLE in rules

    def test_missing_decision_tuple(self, auth):
        pruned = frozenset(
            t for t in build_trs(auth) if t[2] != "failure"
        )
        diags = check_transition_rules(auth, TransitionSet(pruned))
        assert any(d.rule == RULE_DECISION_TOTALITY for d in diags)

    @pytest.mark.parametrize("value", [1, "yes"])
    def test_tuple_with_foreign_outcome(self, ask, value):
        # 1 == True in Python, so only a type-exact match flags the first and
        # finds outcome true without a tuple.
        tuples = build_trs(ask) - {("S0", "ask", True, "S1")}
        trs = TransitionSet(tuples | {("S0", "ask", value, "S1")})
        diags = check_transition_rules(ask, trs)
        assert any(d.rule == RULE_ENUMERABLE for d in diags)
        totality = [d.detail for d in diags if d.rule == RULE_DECISION_TOTALITY]
        assert totality == ["no transition for outcome {true}"]

    def test_tuple_with_wrong_plain_target(self, sender):
        trs = TransitionSet(
            frozenset(
                {
                    ("S0", "msg", None, "S0"),
                    ("S1", "msg", None, "S1"),
                    ("S1", "ack", None, "S0"),
                }
            )
        )
        diags = check_transition_rules(sender, trs)
        assert any(d.rule == RULE_NON_ENUMERABLE for d in diags)

    def test_tuple_with_unknown_action(self, sender):
        trs = TransitionSet(build_trs(sender) | {("S0", "ghost", None, "S1")})
        diags = check_transition_rules(sender, trs)
        assert any(d.rule == RULE_TRANSITION_SET for d in diags)

    def test_totality_order_is_declaration_then_name_then_value(self):
        spec = parse_protocol(
            "state B = !{ boolean zed() : <true: A, false: A>, unit abe() : A }\n"
            "state A = ?{ unit m() : B }\n"
        )
        diags = check_transition_rules(spec, TransitionSet())
        assert [(d.state, d.action, d.detail) for d in diags if d.rule == RULE_DECISION_TOTALITY] == [
            ("B", "abe", "no transition for outcome {none}"),
            ("B", "zed", "no transition for outcome {false}"),
            ("B", "zed", "no transition for outcome {true}"),
            ("A", "m", "no transition for outcome {none}"),
        ]

    @pytest.mark.parametrize("seed", range(100))
    def test_consistency_rules_agree_with_oracle(self, seed):
        consistency = (
            RULE_DETERMINISTIC,
            RULE_DECISION_TOTALITY,
            RULE_TRANSITION_SET,
            RULE_NON_ENUMERABLE,
            RULE_ENUMERABLE,
        )

        def got(spec, trs):
            diags = check_transition_rules(spec, trs)
            return sorted((d.rule, d.state, d.action, d.detail) for d in diags if d.rule in consistency)

        spec = random_wellformed_spec(seed)
        assert got(spec, build_trs(spec)) == []
        rng = random.Random(seed)
        for _ in range(8):
            trs = perturbed_trs(spec, rng)
            assert got(spec, trs) == trs_rule_oracle(spec, trs), sorted(trs, key=repr)

    @pytest.mark.parametrize("seed", range(60))
    def test_accepted_specs_are_weakly_connected(self, seed):
        spec = random_wellformed_spec(seed)
        trs = build_trs(spec)
        if check_transition_rules(spec, trs):
            return
        states = list(spec.typestate.states)
        undirected = fixpoint_reachable(
            trs | {(d, m, v, s) for s, m, v, d in trs},
            spec.typestate.start,
        )
        assert all(s in undirected for s in states)

    @pytest.mark.parametrize("name", specs.BUNDLED)
    def test_bundled_specs_pass_everything(self, name):
        assert validate(specs.load(name)) == []


class TestGrowth:
    @pytest.mark.parametrize("name", ["validate", "export_dot"])
    def test_grows_linearly_in_a_states_actions(self, name):
        # Each branch is looked up once, so eight times the actions take about
        # eight times as long, ten with the sorts; a search per branch would
        # take about 64 times as long.
        def prepare(n_actions):
            spec = wide_spec(n_actions)
            return partial(validate, spec) if name == "validate" else partial(export_dot, spec, build_trs(spec))

        assert_grows_linearly(prepare, 500)

    def test_validate_grows_linearly_along_a_chain(self):
        # Reachability, productivity and connectivity each visit a state once,
        # so 2,000 states take about eight times as long as 250.
        assert_grows_linearly(lambda n_states: partial(validate, chain_spec(n_states)), 250)


class TestDotExport:
    @staticmethod
    def _nodes_and_edges(dot):
        nodes = [l for l in dot.splitlines() if l.strip().endswith(";") and "->" not in l and "rankdir" not in l and "node [" not in l]
        edges = [l for l in dot.splitlines() if "->" in l]
        return nodes, edges

    def test_abp_sender_graph(self, sender):
        dot = export_dot(sender, build_trs(sender))
        nodes, edges = self._nodes_and_edges(dot)
        assert len(nodes) == 2
        assert len(edges) == 3
        assert any('label="!msg"' in e for e in edges)
        assert any('label="?ack"' in e for e in edges)

    def test_empty_terminal_graph(self):
        spec = parse_protocol("state Done = end\n")
        dot = export_dot(spec, build_trs(spec))
        nodes, edges = self._nodes_and_edges(dot)
        assert len(nodes) == 1
        assert edges == []

    def test_auth_decision_labels(self, auth):
        dot = export_dot(auth, build_trs(auth))
        nodes, edges = self._nodes_and_edges(dot)
        assert len(nodes) == 2
        assert len(edges) == 3
        assert any('label="?login/success"' in e for e in edges)
        assert any('label="?login/failure"' in e for e in edges)

    def test_output_is_deterministic(self, leader):
        trs = build_trs(leader)
        assert export_dot(leader, trs) == export_dot(leader, trs)
