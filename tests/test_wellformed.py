"""Well-formedness rules, transition sets, graph predicates, DOT export."""

import random

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
    is_productive,
    is_reachable,
    validate,
)

from specgen import (
    fixpoint_productive,
    fixpoint_reachable,
    fixpoint_weak_component,
    random_wellformed_spec,
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


class TestReachability:
    def test_start_is_reachable(self, sender):
        trs = build_trs(sender)
        assert is_reachable("S0", trs, "S0")

    def test_isolated_state(self):
        spec = parse_protocol("state A = !{ unit m() : A }\nstate B = !{ unit m() : B }\n")
        trs = build_trs(spec)
        assert not is_reachable("B", trs, "A")

    def test_leader_l2_via_path(self, leader):
        trs = build_trs(leader)
        assert is_reachable("L2", trs, "L0")

    def test_terminal_state_is_productive(self):
        spec = parse_protocol("state A = !{ unit m() : Done }\nstate Done = end\n")
        trs = build_trs(spec)
        assert is_productive("Done", trs)
        assert is_productive("A", trs)

    def test_abp_sender_never_productive(self, sender):
        trs = build_trs(sender)
        assert not is_productive("S0", trs)
        assert not is_productive("S1", trs)

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
            reachable = fixpoint_reachable(tuples, start)
            productive = fixpoint_productive(tuples, states)
            for state in states:
                assert is_reachable(state, trs, start) == (state in reachable)
                assert is_productive(state, trs) == (state in productive)

            # The indexed rules report exactly what the oracles imply, in
            # declaration order.
            terminal_exists = any(all(t[0] != s for t in tuples) for s in states)
            expected = []
            for state in states:
                if not is_reachable(state, trs, start):
                    expected.append((RULE_USEFUL_STATES, state, "not reachable from the start state"))
                if terminal_exists and not is_productive(state, trs):
                    expected.append((RULE_USEFUL_STATES, state, "cannot reach a terminal state"))
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
        # 1 == True in Python, so only a type-exact match flags the first.
        tuples = build_trs(ask) - {("S0", "ask", True, "S1")}
        trs = TransitionSet(tuples | {("S0", "ask", value, "S1")})
        diags = check_transition_rules(ask, trs)
        assert any(d.rule == RULE_ENUMERABLE for d in diags)

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
