"""Parsing, diagnostics, and round-trip stability of the .tsp format."""

import re
import time
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsmon import specs
from tsmon.dsl import ParseError, _lex, _line_starts, _span, parse_protocol, serialize_protocol
from tsmon.model import DecisionDest, PlainDest, SourceSpan

from specgen import chain_spec, mutated_bundled_spec, random_wellformed_spec


class TestParsing:
    def test_receiver_structure(self):
        spec = specs.load("receiver")
        ts = spec.typestate
        assert list(ts.states) == ["R0", "R1"]
        r0 = ts.states["R0"]
        assert len(r0.in_branches) == 1 and not r0.out_branches
        assert r0.in_branches[0].ratio is None
        r1 = ts.states["R1"]
        assert len(r1.in_branches) == 1 and len(r1.out_branches) == 1
        assert r1.in_branches[0].ratio == 0.5
        assert r1.out_branches[0].ratio == 0.5

    def test_leader_internal_state(self):
        spec = specs.load("leader")
        assert spec.internal.consts == {"n": 2, "k": 5}
        assert set(spec.internal.vars) == {"acks", "retries"}
        assert set(spec.internal.assigns) == {"A1", "A2", "A3", "A4"}
        assert set(spec.internal.preds) == {"P1", "P2"}

    def test_decision_destination(self):
        spec = specs.load("auth")
        dest = spec.typestate.states["Unauth"].in_branches[0].dest
        assert isinstance(dest, DecisionDest)
        assert dest.cases == (("success", "Auth"), ("failure", "Unauth"))

    def test_sugar_defaults(self):
        spec = parse_protocol("state A = !{ unit go() : A }\n")
        br = spec.typestate.states["A"].out_branches[0]
        assert br.ratio is None
        assert br.pre_assigns == () and br.preds == () and br.post_assigns == ()

    def test_terminal_state(self):
        spec = parse_protocol("state A = ?{ unit quit() : Done }\nstate Done = end\n")
        assert spec.typestate.states["Done"].terminal

    def test_comments_and_whitespace_insignificant(self):
        spec = parse_protocol(
            "// header\nstate A =\n  !{ unit go() // trailing\n     : A }\n"
        )
        assert spec.typestate.states["A"].out_branches[0].dest == PlainDest("A")

    def test_parsing_is_deterministic(self):
        text = specs.source("leader")
        assert parse_protocol(text) == parse_protocol(text)

    def test_boolean_decision_values(self):
        spec = parse_protocol(
            "state A = ?{ boolean ask() : <true: B, false: A> }\nstate B = end\n"
        )
        dest = spec.typestate.states["A"].in_branches[0].dest
        assert dest.cases == ((True, "B"), (False, "A"))

    def test_param_types_recorded(self):
        spec = parse_protocol("state A = !{ unit send(boolean, Payload) : A }\n")
        sig = spec.typestate.states["A"].out_branches[0].action
        assert sig.param_types == ("boolean", "Payload")


def _error(text):
    with pytest.raises(ParseError) as info:
        parse_protocol(text)
    return info.value


def _token(text, span):
    """The source text a span covers."""
    start = _offset(text, span)
    return text[start : start + span.length]


class TestErrors:
    def test_duplicate_state(self):
        text = "state S0 = !{ unit m() : S0 }\nstate S0 = end\n"
        err = _error(text)
        assert err.kind == "duplicate"
        assert err.span.line == 2
        assert _token(text, err.span) == "S0"

    def test_ratio_out_of_range(self):
        text = "state S = !{ unit m() [1.5; []; []] : S [] }\n"
        err = _error(text)
        assert err.kind == "range"
        assert _token(text, err.span) == "1.5"

    def test_negative_ratio_is_syntax_level(self):
        # The grammar has no signed ratio literals.
        err = _error("state S = !{ unit m() [-0.5; []; []] : S [] }\n")
        assert err.kind == "syntax"

    def test_undeclared_assign_key(self):
        text = "state S = !{ unit m() [_; [A9]; []] : S [] }\n"
        err = _error(text)
        assert err.kind == "reference"
        assert _token(text, err.span) == "A9"

    def test_undeclared_pred_key(self):
        text = "state S = !{ unit m() [_; []; [P9]] : S [] }\n"
        err = _error(text)
        assert err.kind == "reference"
        assert _token(text, err.span) == "P9"

    def test_undeclared_enum(self):
        text = "state S = ?{ Ghost m() : <a: S> }\n"
        err = _error(text)
        assert err.kind == "reference"
        assert _token(text, err.span) == "Ghost"

    def test_duplicate_action_in_state(self):
        text = "state S = !{ unit m() : S } + ?{ unit m() : S }\n"
        err = _error(text)
        assert err.kind == "duplicate"
        # The input side is read first, so the output side holds the repeat.
        assert (_offset(text, err.span), _token(text, err.span)) == (text.index("m()"), "m")

    def test_duplicate_decision_outcome(self):
        text = "enum E { a, b }\nstate S = ?{ E m() : <a: S, a: S> }\n"
        err = _error(text)
        assert err.kind == "duplicate"
        assert (_offset(text, err.span), _token(text, err.span)) == (text.rindex("a: S"), "a")

    def test_duplicate_enum_label(self):
        text = "enum E { a, b }\nenum F { b, a, a }\nstate S = end\n"
        err = _error(text)
        assert err.kind == "duplicate"
        assert _offset(text, err.span) == text.rindex("a }")

    def test_empty_ratio_in_decision_map(self):
        err = _error("enum E { a }\nstate S = ?{ E m() : <_: S> }\n")
        assert err.kind == "syntax"

    def test_var_initializer_referencing_var(self):
        text = "var x = 0\nvar y = x\nstate S = end\n"
        err = _error(text)
        assert err.kind == "reference"
        assert (err.span.line, _token(text, err.span)) == (2, "x")

    def test_assignment_target_const(self):
        text = "const k = 1\nvar x = 0\nassign A: k := 2\nstate S = end\n"
        err = _error(text)
        assert err.kind == "reference"
        assert (err.span.line, _token(text, err.span)) == (3, "k")

    def test_pred_with_undeclared_name(self):
        text = "pred P: ghost == 1\nstate S = end\n"
        err = _error(text)
        assert err.kind == "reference"
        assert _token(text, err.span) == "ghost"

    @pytest.mark.parametrize(
        "text, what",
        [
            ("var x = 0\npred P: x", "a comparison operator"),
            ("state S = !{ unit m(", "a parameter type"),
            ("state S = !{ unit m() [", "a ratio or '_'"),
        ],
        ids=["comparison", "parameter", "ratio"],
    )
    def test_end_of_input_is_named(self, text, what):
        err = _error(text)
        assert err.message == f"expected {what}, found 'end of input'"
        last_line = text.split("\n")[-1]
        assert (err.kind, err.span) == ("syntax", SourceSpan(text.count("\n") + 1, len(last_line) + 1, 0))

    def test_two_output_sessions_rejected(self):
        err = _error("state S = !{ unit a() : S } + !{ unit b() : S }\n")
        assert err.kind == "syntax"

    def test_mixed_session_error_is_at_the_second_session(self):
        text = "state S = !{ unit a() : S } + !{ unit b() : S }\nstate T = end"
        err = _error(text)
        assert err.message.startswith("a mixed session combines")
        assert err.span == SourceSpan(1, 31, 1)
        assert _offset(text, err.span) == text.rindex("!")

    def test_empty_session_rejected(self):
        err = _error("state S = !{}\n")
        assert err.kind == "syntax"

    def test_no_states(self):
        err = _error("const k = 1\n")
        assert err.kind == "syntax"

    def test_expression_depth_limit(self):
        # Parentheses and operators both count: (x + 1) nests two levels.
        assign = "assign A: x := " + "(" * 49 + "x + 1" + ")" * 49 + " + 1" * 50
        spec = parse_protocol(f"var x = 0\n{assign}\nstate S = end\n")
        assert spec.internal.assigns["A"].expr.op == "+"
        err = _error(f"var x = 0\n{assign} + 1\nstate S = end\n")
        assert err.kind == "range"
        assert (err.span.line, err.span.column) == (2, len(assign) + 2)

    @pytest.mark.parametrize("decl", ["const n = ", "var n = -", "var n = 2 * "])
    def test_huge_integer_literal_is_a_range_error(self, decl):
        # More digits than ``int`` converts from text, at the literal.
        digits = "1" + "0" * 5000
        err = _error(f"{decl}{digits}\nstate S = end\n")
        assert (err.kind, err.message) == ("range", "integer literal too long")
        assert err.span == SourceSpan(1, len(decl) + 1, len(digits))

    def test_spans_point_into_source(self):
        text = "state S = !{ unit m() [2.0; []; []] : S [] }\n"
        err = _error(text)
        line = text.splitlines()[err.span.line - 1]
        token = line[err.span.column - 1 : err.span.column - 1 + err.span.length]
        assert token == "2.0"


class TestErrorContract:
    @settings(max_examples=300, deadline=None)
    @given(mutated_bundled_spec())
    def test_mutated_specs_parse_or_raise_parse_error(self, text):
        # Anything other than a spec or a ParseError escapes and fails the test.
        try:
            parse_protocol(text)
        except ParseError as err:
            assert err.kind in ("syntax", "range", "reference", "duplicate")
            lines = text.split("\n")
            assert 1 <= err.span.line <= len(lines)
            assert 1 <= err.span.column
            assert err.span.column - 1 + err.span.length <= len(lines[err.span.line - 1])


# Pieces that always lex as exactly one token when set off by a separator.
_TOKEN_PIECES = st.one_of(
    st.tuples(st.sampled_from("azAZ_"), st.text("azAZ_09", max_size=5)).map("".join),
    st.tuples(st.text("0189", min_size=1, max_size=4), st.sampled_from(["", ".0", ".25"])).map(
        "".join
    ),
    st.sampled_from(":= == != <= >= && { } [ ] ( ) < > + - * , ; : = ! ?".split()),
)
_SEPARATORS = st.sampled_from([" ", "\t", "\r", "\n", " \t", " // note\n"])
# Characters outside the token alphabet; ``.`` is one unless it sits between
# digits, and the non-ASCII letter and digit are not identifier characters.
_FOREIGN = st.sampled_from([".", "\u00e9", "\f", "\u0663", "@", "#"])
# Pieces of text that lex apart or run together, for comparing two lexers:
# comments (one holding another ``//``), every whitespace character the lexer
# skips and one it rejects, non-ASCII letters and digits, ``1.``, ``_`` and a
# lone ``/``.  The empty list makes the empty input, and a comment drawn last
# is a trailing comment.
_LEXER_PIECES = st.one_of(
    st.sampled_from(
        ["// c", "// a // b", "//", "/", " ", "\t", "\r\n", "\n", "\r", "\f", "_", "1.", "."]
    ),
    st.sampled_from(["\u00e9", "\u0663", "\u00e9t\u00e9", "x\u00e9"]),
    _TOKEN_PIECES,
)


@st.composite
def _tokenish(draw):
    """Source text, the token pieces in it, and the offset of its first
    foreign character (``None`` if it has none)."""
    text, words, first_foreign = "", [], None
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            if first_foreign is None:
                first_foreign = len(text)
            text += draw(_FOREIGN)
        else:
            word = draw(_TOKEN_PIECES)
            words.append(word)
            text += draw(_SEPARATORS) + word
    return text, words, first_foreign


def _offset(text, span):
    line_start = sum(len(line) + 1 for line in text.split("\n")[: span.line - 1])
    return line_start + span.column - 1


# --------------------------------------------------------------------------
# Differential check against the regex lexer that made one match per token,
# whitespace run and comment, kept here verbatim as an oracle.
# --------------------------------------------------------------------------

_OLD_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<float>[0-9]+\.[0-9]+)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<punct>:=|==|!=|<=|>=|&&|[{}\[\]()<>+\-*,;:=!?])"
    r"|(?P<error>.)"
)


class _OldToken(NamedTuple):
    type: str  # "ident", "int", "float", "eof", or a punctuation literal
    text: str
    offset: int  # of the first character in the source text


def _old_lex(text: str) -> list[_OldToken]:
    tokens: list[_OldToken] = []
    end = len(text)
    for m in _OLD_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "comment":
            # A trailing comment does not move the end-of-input offset.
            if m.end() == len(text):
                end = m.start()
        elif kind == "error":
            span = _span(_line_starts(text), m.start(), 1)
            raise ParseError("syntax", f"unexpected character {m.group()!r}", span)
        else:
            word = m.group()
            # Punctuation and a bare ``_`` are typed by their own text.
            if kind == "punct" or word == "_":
                kind = word
            tokens.append(_OldToken(kind, word, m.start()))
    tokens.append(_OldToken("eof", "", end))
    return tokens


def _lexed(lex, text):
    """The ``(type, text, offset)`` tokens ``lex`` makes of ``text``, or the
    kind, message and span of the error it raises."""
    try:
        return [tuple(tok) for tok in lex(text)]
    except ParseError as err:
        return err.kind, err.message, err.span


class TestLexer:
    @settings(max_examples=200, deadline=None)
    @given(_tokenish())
    def test_token_spans_slice_the_source(self, case):
        text, words, first_foreign = case
        if first_foreign is not None:
            with pytest.raises(ParseError) as info:
                _lex(text)
            assert info.value.message.startswith("unexpected character")
            assert info.value.span.length == 1
            assert _offset(text, info.value.span) == first_foreign
            return
        tokens = _lex(text)
        assert tokens[-1][0] == "eof"
        assert [word for _, word, _ in tokens[:-1]] == words
        for _, word, offset in tokens[:-1]:
            assert text[offset : offset + len(word)] == word

    def test_int_then_dot_is_an_error_at_the_dot(self):
        with pytest.raises(ParseError) as info:
            _lex("x 1.")
        assert info.value.span == SourceSpan(1, 4, 1)

    def test_comment_does_not_advance_the_column(self):
        assert _lex("ab // c")[-1] == ("eof", "", 3)
        assert _lex("ab // c\n")[-1] == ("eof", "", 8)
        assert _error("state S = ?{ unit m() // c").span == SourceSpan(1, 23, 0)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_LEXER_PIECES, max_size=12).map("".join))
    @example("")
    @example("a // x")
    @example("a // a // b")
    @example("x\r\n1. _")
    @example("\u00e9\f")
    def test_same_tokens_and_errors_as_the_old_lexer(self, text):
        assert _lexed(_lex, text) == _lexed(_old_lex, text)


class TestRoundTrip:
    @pytest.mark.parametrize("name", specs.BUNDLED)
    def test_bundled_specs(self, name):
        spec = specs.load(name)
        text = serialize_protocol(spec)
        again = parse_protocol(text)
        assert again == spec
        assert list(again.typestate.states) == list(spec.typestate.states)

    def test_sugar_serializes_to_full_form(self):
        spec = parse_protocol("state A = !{ unit go() : A }\n")
        assert "[_; []; []] : A []" in serialize_protocol(spec)

    def test_peer_keeps_unmonitored_marker(self):
        spec = specs.load("peer")
        text = serialize_protocol(spec)
        assert "unit vwb() [_; []; []]" in text
        assert parse_protocol(text) == spec

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_specs(self, seed):
        spec = random_wellformed_spec(seed)
        assert parse_protocol(serialize_protocol(spec)) == spec

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_serialization_fixpoint(self, seed):
        spec = random_wellformed_spec(seed)
        text = serialize_protocol(spec)
        assert serialize_protocol(parse_protocol(text)) == text


class TestParseGrowth:
    def test_parse_grows_linearly(self):
        # Eight times the states take about eight times as long; a rule that
        # rescanned the tokens or lines read so far would take about 64 times.
        def best_of_3(n_states):
            text = serialize_protocol(chain_spec(n_states))
            times = []
            for _ in range(3):
                start = time.perf_counter()
                parse_protocol(text)
                times.append(time.perf_counter() - start)
            return min(times)

        small, large = best_of_3(200), best_of_3(1600)
        assert large <= 16 * small, (small, large)
