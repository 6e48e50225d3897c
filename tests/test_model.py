"""Accessor operations over the bundled specs."""

import pytest

from tsmon.model import (
    MAX_EXPR_DEPTH,
    ActionSignature,
    Assignment,
    BinOp,
    Branch,
    DecisionDest,
    IntLit,
    InternalStateDecl,
    Name,
    PlainDest,
    StateBody,
    TypeRef,
    Typestate,
    UndefinedActionError,
    UnknownEnumError,
    actions_of,
    decisions_of,
    enum_labels,
    ratios_of,
    resolve_state,
)

from specgen import random_wellformed_spec


class TestResolveState:
    def test_defined_state_returns_body(self, sender):
        body = resolve_state(sender.typestate, "S0")
        assert isinstance(body, StateBody)
        assert body.out_branches[0].action.name == "msg"
        assert body.out_branches[0].dest == PlainDest("S1")

    def test_undefined_name_returned_verbatim(self, sender):
        assert resolve_state(sender.typestate, "Nowhere") == "Nowhere"

    def test_single_state_lookup(self):
        ts = Typestate(states={"Only": StateBody()})
        assert resolve_state(ts, "Only") == StateBody()


class TestDecisionsOf:
    def test_login_outcomes(self, auth):
        assert decisions_of(auth.typestate, "Unauth", "login") == {"success", "failure"}

    def test_plain_destination_is_none(self, sender):
        assert decisions_of(sender.typestate, "S0", "msg") == {None}

    def test_boolean_decision(self):
        branch = Branch(
            action=ActionSignature("check", (), TypeRef("boolean")),
            ratio=None,
            pre_assigns=(),
            preds=(),
            dest=DecisionDest(((True, "Yes"), (False, "No"))),
        )
        ts = Typestate(states={"Q": StateBody(in_branches=(branch,))})
        assert decisions_of(ts, "Q", "check") == {True, False}

    def test_undefined_action_raises(self, auth):
        with pytest.raises(UndefinedActionError):
            decisions_of(auth.typestate, "Auth", "login")


class TestEnumLabels:
    def test_declared_enum(self, auth):
        labels = enum_labels(auth, TypeRef("enum", "LoginResult"))
        assert labels == {"success", "failure"}

    def test_boolean(self, auth):
        assert enum_labels(auth, TypeRef("boolean")) == {True, False}

    def test_unit(self, auth):
        assert enum_labels(auth, TypeRef("unit")) == {None}

    def test_unknown_enum_raises(self, auth):
        with pytest.raises(UnknownEnumError):
            enum_labels(auth, TypeRef("enum", "Nope"))


class TestActionsOf:
    def test_mixed_state(self, sender):
        assert actions_of(sender.typestate, "S1") == {"msg", "ack"}

    def test_single_action_state(self, leader):
        assert actions_of(leader.typestate, "L2") == {"vwb"}

    def test_undefined_name_is_empty(self, sender):
        assert actions_of(sender.typestate, "Missing") == frozenset()


class TestRatiosOf:
    def test_receiver_r1(self, receiver):
        assert ratios_of(receiver.typestate, "R1") == [0.5, 0.5]

    def test_all_unmonitored(self, sender):
        assert ratios_of(sender.typestate, "S1") == []

    def test_peer_excludes_vwb(self, peer):
        assert ratios_of(peer.typestate, "Pr1") == [0.5, 0.5]

    @pytest.mark.parametrize("seed", range(25))
    def test_never_contains_empty_marker(self, seed):
        spec = random_wellformed_spec(seed)
        for state in spec.typestate.states:
            for r in ratios_of(spec.typestate, state):
                assert r is not None
                assert 0.0 <= r <= 1.0


class TestInvariants:
    def test_duplicate_action_names_rejected(self):
        br = Branch(
            action=ActionSignature("m"),
            ratio=None,
            pre_assigns=(),
            preds=(),
            dest=PlainDest("X"),
        )
        with pytest.raises(ValueError, match="duplicate action"):
            StateBody(in_branches=(br,), out_branches=(br,))

    def test_ratio_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            Branch(
                action=ActionSignature("m"),
                ratio=1.5,
                pre_assigns=(),
                preds=(),
                dest=PlainDest("X"),
            )

    def test_duplicate_decision_outcomes_rejected(self):
        with pytest.raises(ValueError, match="duplicate decision outcome"):
            DecisionDest((("a", "X"), ("a", "Y")))

    def test_const_var_overlap_rejected(self):
        with pytest.raises(ValueError, match="both const and var"):
            InternalStateDecl(consts={"x": 1}, vars={"x": IntLit(0)})

    def test_assignment_to_const_rejected(self):
        with pytest.raises(ValueError, match="not a variable"):
            InternalStateDecl(
                consts={"k": 1},
                vars={"x": IntLit(0)},
                assigns={"A1": Assignment("k", IntLit(2))},
            )

    def test_unclosed_expression_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            InternalStateDecl(
                vars={"x": IntLit(0)},
                assigns={"A1": Assignment("x", Name("ghost"))},
            )

    def test_initializer_must_use_constants(self):
        with pytest.raises(ValueError, match="constants"):
            InternalStateDecl(vars={"x": IntLit(0), "y": Name("x")})

    @pytest.mark.parametrize("sign", [1, -1])
    def test_literal_of_more_than_640_digits_rejected(self, sign):
        IntLit(sign * int("9" * 640))
        for value in (10**640, 10**5000):
            with pytest.raises(ValueError, match="integer literal too long"):
                IntLit(sign * value)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_constant_of_more_than_640_digits_rejected(self, sign):
        InternalStateDecl(consts={"n": sign * int("9" * 640)})
        for value in (10**640, 10**5000):
            with pytest.raises(ValueError, match="integer literal too long"):
                InternalStateDecl(consts={"n": sign * value})

    def test_deep_expression_rejected(self):
        def chain(depth):
            expr = Name("x")
            for _ in range(depth):
                expr = BinOp("+", expr, IntLit(1))
            return expr

        def decl(expr):
            return InternalStateDecl(vars={"x": IntLit(0)}, assigns={"A": Assignment("x", expr)})

        decl(chain(MAX_EXPR_DEPTH))
        with pytest.raises(ValueError, match="deeper than"):
            decl(chain(MAX_EXPR_DEPTH + 1))
        with pytest.raises(ValueError, match="deeper than"):
            decl(chain(3000))

    def test_empty_typestate_rejected(self):
        with pytest.raises(ValueError):
            Typestate(states={})

    def test_start_state_is_first_declared(self, leader):
        assert leader.typestate.start == "L0"
