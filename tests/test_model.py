"""What the bundled specs offer in each state, read with
``Typestate.find`` or off a state's body, and the structural rules."""

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
    UnknownEnumError,
    _outcomes,
    enum_labels,
)

from specgen import random_wellformed_spec


def _names(body):
    return {br.action.name for br in body.branches()}


def _ratios(body):
    return [br.ratio for br in body.branches() if br.ratio is not None]


class TestResolveState:
    """A (state, action) pair resolves to its branch through ``find``."""

    def test_defined_state_returns_body(self, sender):
        body = sender.typestate.states["S0"]
        assert sender.typestate.find("S0", "msg") == (body.out_branches[0], False)
        assert body.out_branches[0].dest == PlainDest("S1")

    def test_undefined_name_returned_verbatim(self, sender):
        assert "Nowhere" not in sender.typestate.states
        assert sender.typestate.find("Nowhere", "msg") is None

    def test_single_state_lookup(self):
        ts = Typestate(states={"Only": StateBody()})
        assert ts.start == "Only" and ts.states["Only"] == StateBody()
        assert ts.find("Only", "go") is None


class TestDecisionsOf:
    """The outcomes of a branch come from its destination."""

    def test_login_outcomes(self, auth):
        branch, is_input = auth.typestate.find("Unauth", "login")
        assert is_input and _outcomes(branch) == {"success", "failure"}

    def test_plain_destination_is_none(self, sender):
        branch, _ = sender.typestate.find("S0", "msg")
        assert _outcomes(branch) == {None}

    def test_boolean_decision(self):
        branch = Branch(
            action=ActionSignature("check", (), TypeRef("boolean")),
            ratio=None,
            pre_assigns=(),
            preds=(),
            dest=DecisionDest(((True, "Yes"), (False, "No"))),
        )
        ts = Typestate(states={"Q": StateBody(in_branches=(branch,))})
        assert ts.find("Q", "check") == (branch, True)
        assert _outcomes(branch) == {True, False}

    def test_undefined_action_is_not_found(self, auth):
        assert auth.typestate.find("Auth", "login") is None


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
    """The actions a state offers are the branches of its body."""

    def test_mixed_state(self, sender):
        body = sender.typestate.states["S1"]
        assert body.in_branches and body.out_branches
        assert _names(body) == {"msg", "ack"}

    def test_single_action_state(self, leader):
        assert _names(leader.typestate.states["L2"]) == {"vwb"}


class TestRatiosOf:
    """The declared ratios of a state, unmonitored branches left out."""

    def test_receiver_r1(self, receiver):
        assert _ratios(receiver.typestate.states["R1"]) == [0.5, 0.5]

    def test_all_unmonitored(self, sender):
        assert _ratios(sender.typestate.states["S1"]) == []

    def test_peer_excludes_vwb(self, peer):
        body = peer.typestate.states["Pr1"]
        assert _ratios(body) == [0.5, 0.5]
        assert peer.typestate.find("Pr1", "vwb")[0].ratio is None

    @pytest.mark.parametrize("seed", range(25))
    def test_never_contains_empty_marker(self, seed):
        """A branch's ratio is the empty marker ``_`` (None) or lies in
        [0, 1], and a well-formed state's declared ratios sum to 1."""
        spec = random_wellformed_spec(seed)
        for body in spec.typestate.states.values():
            for br in body.branches():
                assert br.ratio is None or 0.0 <= br.ratio <= 1.0
            ratios = _ratios(body)
            assert not ratios or sum(ratios) == pytest.approx(1.0)


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
