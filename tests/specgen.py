"""Random protocol generators and brute-force graph oracles for tests.

Generated specs satisfy the well-formedness typestate rules by construction:
decision destinations enumerate exactly the return type's labels, and
declared ratios are multiples of 1/8 that sum to exactly 1 (dyadic, so the
float sum is exact).  Reachability and productivity of the generated graphs
are arbitrary on purpose.  :func:`mutated_bundled_spec` instead draws
mostly broken source text, for the parse-error contract.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from tsmon import specs
from tsmon.dsl import _lex
from tsmon.model import (
    ActionSignature,
    Assignment,
    BinOp,
    Branch,
    Comparison,
    DecisionDest,
    IntLit,
    InternalStateDecl,
    Name,
    PlainDest,
    Predicate,
    ProtocolSpec,
    StateBody,
    TypeRef,
    Typestate,
)


def random_wellformed_spec(seed: int, max_states: int = 6) -> ProtocolSpec:
    rng = random.Random(seed)
    n_states = rng.randint(1, max_states)
    names = [f"T{i}" for i in range(n_states)]
    enums = {}
    if rng.random() < 0.5:
        enums["Color"] = tuple(f"c{i}" for i in range(rng.randint(2, 3)))

    states: dict[str, StateBody] = {}
    for state in names:
        if rng.random() < 0.12:
            states[state] = StateBody()
            continue
        n_in = rng.randint(0, 2)
        n_out = rng.randint(0, 2)
        if n_in + n_out == 0:
            n_in = 1
        branches = []
        for j in range(n_in + n_out):
            kind = rng.random()
            if kind < 0.6 or (kind >= 0.8 and not enums):
                rtype = TypeRef("unit")
                dest = PlainDest(rng.choice(names))
            elif kind < 0.8:
                rtype = TypeRef("boolean")
                dest = DecisionDest(
                    ((True, rng.choice(names)), (False, rng.choice(names)))
                )
            else:
                rtype = TypeRef("enum", "Color")
                dest = DecisionDest(
                    tuple((label, rng.choice(names)) for label in enums["Color"])
                )
            branches.append(
                Branch(
                    action=ActionSignature(f"a{j}", (), rtype),
                    ratio=None,
                    pre_assigns=(),
                    preds=(),
                    dest=dest,
                )
            )
        monitored = [b for b in branches if rng.random() < 0.5]
        if monitored:
            parts = [1] * len(monitored)
            for _ in range(8 - len(monitored)):
                parts[rng.randrange(len(parts))] += 1
            by_name = dict(zip([b.action.name for b in monitored], parts))
            branches = [
                Branch(
                    action=b.action,
                    ratio=by_name[b.action.name] / 8.0 if b.action.name in by_name else None,
                    pre_assigns=(),
                    preds=(),
                    dest=b.dest,
                )
                for b in branches
            ]
        states[state] = StateBody(
            in_branches=tuple(branches[:n_in]), out_branches=tuple(branches[n_in:])
        )
    return ProtocolSpec(
        typestate=Typestate(states=states),
        internal=InternalStateDecl(enums=enums),
    )


def random_stateful_spec(seed: int) -> ProtocolSpec:
    """A small spec with variables, assignment rules and predicates, for
    exhaustive comparison of the step function against a rule interpreter."""
    rng = random.Random(seed)
    n_states = rng.randint(1, 3)
    names = [f"Q{i}" for i in range(n_states)]
    var_names = [f"x{i}" for i in range(rng.randint(1, 2))]
    consts = {"c0": rng.randint(0, 3)}
    vars_ = {v: IntLit(rng.randint(0, 4)) for v in var_names}

    def small_expr(target: str):
        pick = rng.random()
        if pick < 0.4:
            return BinOp(rng.choice("+-"), Name(target), IntLit(1))
        if pick < 0.6:
            return IntLit(rng.randint(0, 4))
        if pick < 0.8:
            return Name(rng.choice(var_names))
        return BinOp("+", Name("c0"), IntLit(rng.randint(0, 2)))

    assigns = {}
    for i in range(rng.randint(2, 4)):
        target = rng.choice(var_names)
        assigns[f"A{i}"] = Assignment(target=target, expr=small_expr(target))

    preds = {}
    for i in range(rng.randint(1, 3)):
        op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
        right = Name("c0") if rng.random() < 0.3 else IntLit(rng.randint(0, 4))
        preds[f"P{i}"] = Predicate((Comparison(op, Name(rng.choice(var_names)), right),))

    assign_keys = list(assigns)
    pred_keys = list(preds)
    states: dict[str, StateBody] = {}
    for state in names:
        branches = []
        for j in range(rng.randint(1, 2)):
            if rng.random() < 0.25:
                rtype = TypeRef("boolean")
                dest = DecisionDest(((True, rng.choice(names)), (False, rng.choice(names))))
            else:
                rtype = TypeRef("unit")
                dest = PlainDest(rng.choice(names))
            branches.append(
                Branch(
                    action=ActionSignature(f"a{j}", (), rtype),
                    ratio=None,
                    pre_assigns=tuple(rng.sample(assign_keys, rng.randint(0, min(2, len(assign_keys))))),
                    preds=tuple(rng.sample(pred_keys, rng.randint(0, 1))),
                    dest=dest,
                    post_assigns=tuple(rng.sample(assign_keys, rng.randint(0, min(2, len(assign_keys))))),
                )
            )
        half = rng.randint(0, len(branches))
        states[state] = StateBody(
            in_branches=tuple(branches[:half]), out_branches=tuple(branches[half:])
        )
    return ProtocolSpec(
        typestate=Typestate(states=states),
        internal=InternalStateDecl(consts=consts, vars=vars_, assigns=assigns, preds=preds),
    )


def overflow_prone_spec(seed: int) -> ProtocolSpec:
    """A small spec whose rules overflow int64 from values near the bounds:
    ``lit`` assigns a literal outside the range, ``add``, ``sub`` and ``mul``
    push a variable past a bound with ``+``, ``-`` and ``*``."""
    rng = random.Random(seed)
    big = 1 << 62
    consts = {"big": big}
    vars_ = {
        "x": IntLit(rng.choice([0, 1, big, (1 << 63) - 1, -(1 << 63)])),
        "y": IntLit(rng.choice([2, -3, 1 << 32, -(1 << 33)])),
    }
    assigns = {
        "lit": Assignment("x", IntLit(rng.choice([1 << 63, -(1 << 63) - 1]))),
        "add": Assignment("x", BinOp("+", Name("x"), Name("big"))),
        "sub": Assignment("x", BinOp("-", Name("x"), Name("big"))),
        "mul": Assignment("y", BinOp("*", Name("y"), Name("y"))),
        "copy": Assignment("y", Name("x")),
        "zero": Assignment("x", IntLit(0)),
    }
    preds = {
        "pos": Predicate((Comparison(">", Name("x"), IntLit(0)),)),
        "apart": Predicate(
            (Comparison("<", Name("y"), Name("big")), Comparison("!=", Name("x"), Name("y")))
        ),
    }
    names = ["Q0", "Q1"]
    states: dict[str, StateBody] = {}
    for state in names:
        branches = []
        for j in range(rng.randint(2, 3)):
            if rng.random() < 0.3:
                rtype = TypeRef("boolean")
                dest = DecisionDest(((True, rng.choice(names)), (False, rng.choice(names))))
            else:
                rtype = TypeRef("unit")
                dest = PlainDest(rng.choice(names))
            branches.append(
                Branch(
                    action=ActionSignature(f"a{j}", (), rtype),
                    ratio=None,
                    pre_assigns=tuple(rng.sample(sorted(assigns), rng.randint(0, 2))),
                    preds=tuple(rng.sample(sorted(preds), rng.randint(0, 1))),
                    dest=dest,
                    post_assigns=tuple(rng.sample(sorted(assigns), rng.randint(0, 2))),
                )
            )
        half = rng.randint(0, len(branches))
        states[state] = StateBody(
            in_branches=tuple(branches[:half]), out_branches=tuple(branches[half:])
        )
    return ProtocolSpec(
        typestate=Typestate(states=states),
        internal=InternalStateDecl(consts=consts, vars=vars_, assigns=assigns, preds=preds),
    )


def chain_spec(n_states: int) -> ProtocolSpec:
    """States ``C0`` .. ``C<n-1>`` in a line: ``fwd`` (input) moves right and
    counts the step in ``hops``, ``back`` (output, ratio 1) moves left."""
    names = [f"C{i}" for i in range(n_states)]
    states = {}
    for i, state in enumerate(names):
        right, left = names[min(i + 1, n_states - 1)], names[max(i - 1, 0)]
        fwd = Branch(ActionSignature("fwd"), None, ("inc",), (), PlainDest(right))
        back = Branch(ActionSignature("back"), 1.0, (), (), PlainDest(left))
        states[state] = StateBody(in_branches=(fwd,), out_branches=(back,))
    return ProtocolSpec(
        typestate=Typestate(states=states),
        internal=InternalStateDecl(
            vars={"hops": IntLit(0)},
            assigns={"inc": Assignment("hops", BinOp("+", Name("hops"), IntLit(1)))},
        ),
    )


# --------------------------------------------------------------------------
# Token-level mutations of the bundled specs
# --------------------------------------------------------------------------


def _pieces(text: str) -> tuple[list[tuple[str, str]], str]:
    """(gap, token) pairs that join back into ``text``, and the text after
    the last token."""
    pieces, end = [], 0
    for _, word, offset in _lex(text)[:-1]:
        pieces.append((text[end:offset], word))
        end = offset + len(word)
    return pieces, text[end:]


_BUNDLED_PIECES = {name: _pieces(specs.source(name)) for name in specs.BUNDLED}
# Every token of the bundled specs, plus undeclared names, an out-of-range
# ratio and a character the lexer rejects.
_WORDS = sorted(
    {tok for pieces, _ in _BUNDLED_PIECES.values() for _, tok in pieces}
    | {"A9", "Ghost", "1.5", "2", "@"}
)


@st.composite
def mutated_bundled_spec(draw) -> str:
    """A bundled spec with one to three token edits: a token replaced,
    deleted, or preceded by an inserted one."""
    pieces, tail = _BUNDLED_PIECES[draw(st.sampled_from(specs.BUNDLED))]
    pieces = list(pieces)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(pieces) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "delete":
            del pieces[i]
        elif edit == "replace":
            pieces[i] = (pieces[i][0], draw(st.sampled_from(_WORDS)))
        else:
            pieces.insert(i, (" ", draw(st.sampled_from(_WORDS))))
    return "".join(gap + tok for gap, tok in pieces) + tail


# --------------------------------------------------------------------------
# Brute-force fixpoint oracles
# --------------------------------------------------------------------------


def fixpoint_reachable(tuples, start: str) -> set[str]:
    reached = {start}
    changed = True
    while changed:
        changed = False
        for src, _m, _v, dst in tuples:
            if src in reached and dst not in reached:
                reached.add(dst)
                changed = True
    return reached


def fixpoint_productive(tuples, nodes) -> set[str]:
    nodes = set(nodes)
    for src, _m, _v, dst in tuples:
        nodes.add(src)
        nodes.add(dst)
    sources = {t[0] for t in tuples}
    productive = {n for n in nodes if n not in sources}
    changed = True
    while changed:
        changed = False
        for src, _m, _v, dst in tuples:
            if dst in productive and src not in productive:
                productive.add(src)
                changed = True
    return productive


def fixpoint_weak_component(tuples, start: str) -> set[str]:
    component = {start}
    changed = True
    while changed:
        changed = False
        for src, _m, _v, dst in tuples:
            if (src in component) != (dst in component):
                component |= {src, dst}
                changed = True
    return component
