"""Parser and serializer for the ``.tsp`` protocol description format.

A ``.tsp`` file describes one participant.  Declarations may appear in any
order; references are resolved after the whole file is read.

::

    // comments run to end of line
    enum LoginResult { success, failure }
    const n = 2
    var acks = 0
    assign A1: acks := acks + 1
    pred P1: acks == n

    state L0 = !{ unit vreq() [_; [A2]; []] : L1 [] }
    state L1 = !{ unit vreq() [0.5; [A2]; [P2]] : L2 [A3, A4] }
             + ?{ unit vack() [0.5; [A1]; [P1]] : L2 [A3, A4] }

Output sessions are written ``!{ ... }``, input sessions ``?{ ... }``, and a
mixed session joins one of each with ``+``.  A branch is
``ret name(params) [r; [pre...]; [preds...]] : Dest [post...]`` where the
ratio ``r`` is a literal in [0, 1] or ``_`` for an unmonitored action, and
``Dest`` is a state name or a decision ``<outcome: State, ...>``.  The
attribute block and the trailing post-assignment list may be omitted and
default to ``[_; []; []]`` and ``[]``.  A terminal state is written
``state X = end``.

Parsing is deterministic and aborts on the first error.  The parser checks
syntax and that no declaration kind names one thing twice; the structural
rules belong to the :mod:`tsmon.model` constructors, and the parser reports
their :class:`~tsmon.model.StructureError` at the offending token.  So that
its own recursion stays within the interpreter's stack, an expression may
nest at most :data:`~tsmon.model.MAX_EXPR_DEPTH` levels, counting each
parenthesis and each operator on the path from its root to a leaf.

Tokens are plain ``(type, text, offset)`` tuples, one regex match each, and
a position stays a character offset until a span is needed: only the spans
the model keeps (state names and branches) and the span of a
:class:`ParseError` are worked out, by bisecting the offsets of line starts.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Callable, Optional, TypeVar

from .model import (
    ActionSignature,
    Assignment,
    BinOp,
    Branch,
    Comparison,
    DecisionDest,
    Destination,
    Expr,
    IntLit,
    InternalStateDecl,
    MAX_EXPR_DEPTH,
    Name,
    PlainDest,
    Predicate,
    ProtocolSpec,
    SourceSpan,
    StateBody,
    StructureError,
    TypeRef,
    Typestate,
    Value,
    outcome_text,
)

__all__ = ["ParseError", "parse_protocol", "serialize_protocol"]

_KEYWORDS = {
    "state",
    "const",
    "var",
    "assign",
    "pred",
    "enum",
    "end",
    "true",
    "false",
    "unit",
    "boolean",
}
_BUILTIN_TYPES = ("unit", "boolean")

# Binary operators by precedence, loosest first; all associate to the left.
_PREC = {"+": 1, "-": 1, "*": 2}
_TIGHTEST = max(_PREC.values())

# The most digits an integer literal may have.  640 is the lowest limit on int
# conversion that the interpreter accepts (``PYTHONINTMAXSTRDIGITS``), so a
# literal converts, and prints in an overflow message, under any setting.
_MAX_INT_DIGITS = 640

# One match per token: the whitespace and comments before a token are a prefix
# of its match, and the match of the empty ``eof`` at the end of the text takes
# the trailing ones.  The token alternatives are tried in order.  Multi-character
# operators come first so the longest one wins; explicit ASCII classes keep
# non-ASCII letters and digits out of identifiers and numbers.  ``1.`` is an
# int followed by an unexpected ``.``.  Any other character matches ``error``.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|(?P<comment>//[^\n]*))*"
    r"(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<float>[0-9]+\.[0-9]+)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<punct>:=|==|!=|<=|>=|&&|[{}\[\]()<>+\-*,;:=!?])"
    r"|(?P<eof>\Z)"
    r"|(?P<error>.))"
)


class ParseError(Exception):
    """A rejected input, with its location and error category.

    ``kind`` is one of ``syntax``, ``range``, ``reference`` or ``duplicate``.
    """

    def __init__(self, kind: str, message: str, span: SourceSpan):
        super().__init__(f"{span.line}:{span.column}: {message}")
        self.kind = kind
        self.message = message
        self.span = span


# A token is a ``(type, text, offset)`` tuple.  The type is "ident", "int",
# "float", "eof" or a punctuation literal; the offset is that of the token's
# first character in the source text.
_Token = tuple[str, str, int]


def _line_starts(text: str) -> list[int]:
    return [0] + [m.end() for m in re.finditer("\n", text)]


def _span(line_starts: list[int], offset: int, length: int) -> SourceSpan:
    """The ``length`` characters at ``offset`` of a text whose lines begin
    at ``line_starts``."""
    line = bisect_right(line_starts, offset)
    return SourceSpan(line, offset - line_starts[line - 1] + 1, length)


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        word = m[kind]
        start = m.start(kind)
        # Punctuation and a bare ``_`` are typed by their own text.
        if kind == "punct" or word == "_":
            kind = word
        elif kind == "eof":
            # A trailing comment does not move the end-of-input offset.
            if m.end("comment") == start:
                start = m.start("comment")
            tokens.append((kind, word, start))
            break  # else ``finditer`` matches the empty end once more
        elif kind == "error":
            raise ParseError("syntax", f"unexpected character {word!r}", _span(_line_starts(text), start, 1))
        tokens.append((kind, word, start))
    return tokens


_T = TypeVar("_T")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.line_starts = _line_starts(text)
        self.pos = 0
        self.consts: dict[str, int] = {}
        self.vars: dict[str, Expr] = {}
        self.assigns: dict[str, Assignment] = {}
        self.preds: dict[str, Predicate] = {}
        self.enums: dict[str, tuple[str, ...]] = {}
        self.states: dict[str, StateBody] = {}
        self.state_spans: dict[str, SourceSpan] = {}
        self.decl = ""  # the keyword of the declaration being parsed
        # Where each name occurs, keyed by the (role, scope, name) of the
        # StructureError the model would report it with.
        self.uses: dict[tuple[str, str, str], list[_Token]] = {}

    # -- token plumbing ----------------------------------------------------
    # The rules most tokens pass through read ``self.tokens[self.pos]`` and
    # move ``self.pos`` themselves, without a method call per token.

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def span(self, tok: _Token) -> SourceSpan:
        _, text, offset = tok
        return _span(self.line_starts, offset, len(text))

    def syntax(self, what: str, tok: _Token) -> ParseError:
        return ParseError("syntax", f"expected {what}, found {tok[1] or 'end of input'!r}", self.span(tok))

    def expect(self, ttype: str, what: Optional[str] = None) -> _Token:
        """The next token, which must be of ``ttype``; ``what`` names it in
        the error, by default the quoted ``ttype``."""
        tok = self.tokens[self.pos]
        if tok[0] != ttype:
            raise self.syntax(what or repr(ttype), tok)
        self.pos += 1
        return tok

    def expect_ident(self, what: str, keywords: tuple[str, ...] = ()) -> _Token:
        """The next token, which must be an identifier: a name, or one of
        ``keywords``."""
        tok = self.tokens[self.pos]
        if tok[0] != "ident" or (tok[1] in _KEYWORDS and tok[1] not in keywords):
            raise self.syntax(what, tok)
        self.pos += 1
        return tok

    def parse_list(self, item: Callable[[], _T], sep: str = ",", close: Optional[str] = None) -> list[_T]:
        """``item (sep item)*``, or no item at all when ``close`` is next."""
        tokens = self.tokens
        if tokens[self.pos][0] == close:
            return []
        items = [item()]
        while tokens[self.pos][0] == sep:
            self.pos += 1
            items.append(item())
        return items

    # -- locating model errors -----------------------------------------------

    def note(self, role: str, tok: _Token, scope: str = "") -> None:
        self.uses.setdefault((role, scope, tok[1]), []).append(tok)

    def located(self, err: StructureError, toks: list[_Token]) -> ParseError:
        """``err`` at its token.  ``toks`` are the occurrences of the
        offending name, a repeat's in the order the model reads them: a bad
        reference is reported at its first use, a repeat at its second
        occurrence."""
        return ParseError(err.kind, str(err), self.span(toks[err.kind == "duplicate"]))

    # -- declarations ------------------------------------------------------

    def parse_file(self) -> ProtocolSpec:
        parsers = {
            "const": self.parse_const,
            "var": self.parse_var,
            "assign": self.parse_assign,
            "pred": self.parse_pred,
            "enum": self.parse_enum,
            "state": self.parse_state,
        }
        while (tok := self.peek())[0] != "eof":
            if tok[0] != "ident" or tok[1] not in parsers:
                raise self.syntax("a declaration", tok)
            self.pos += 1
            self.decl = tok[1]
            parsers[self.decl]()
        if not self.states:
            raise ParseError("syntax", "no states declared", self.span(self.peek()))
        try:
            internal = InternalStateDecl(
                consts=self.consts,
                vars=self.vars,
                assigns=self.assigns,
                preds=self.preds,
                enums=self.enums,
            )
            ts = Typestate(states=self.states, state_spans=self.state_spans)
            return ProtocolSpec(typestate=ts, internal=internal)
        except StructureError as err:
            raise self.located(err, self.uses[err.role, err.scope, err.name]) from None

    def declare(self, kind: str, name: _Token, table: dict) -> None:
        # A dict holds one declaration per name, so the parser checks this
        # rule itself; a const and a var of one name are the model's to reject.
        if name[1] in table:
            raise ParseError("duplicate", f"{kind} {name[1]!r} is already declared", self.span(name))

    def parse_const(self) -> None:
        name = self.expect_ident("constant name")
        self.declare("const", name, self.consts)
        self.note("declaration", name)
        self.expect("=")
        self.consts[name[1]] = self.parse_int()

    def parse_var(self) -> None:
        name = self.expect_ident("variable name")
        self.declare("var", name, self.vars)
        self.note("declaration", name)
        self.expect("=")
        self.vars[name[1]] = self.parse_expr()[0]

    def parse_assign(self) -> None:
        key = self.expect_ident("assignment key")
        self.declare("assign", key, self.assigns)
        self.expect(":")
        target = self.expect_ident("target variable")
        self.note("variable", target)
        self.expect(":=")
        expr = self.parse_expr()[0]
        self.assigns[key[1]] = Assignment(target=target[1], expr=expr)

    def parse_pred(self) -> None:
        key = self.expect_ident("predicate key")
        self.declare("pred", key, self.preds)
        self.expect(":")
        clauses = self.parse_list(self.parse_comparison, sep="&&")
        self.preds[key[1]] = Predicate(clauses=tuple(clauses))

    def parse_enum(self) -> None:
        name = self.expect_ident("enum name")
        self.declare("enum", name, self.enums)
        self.expect("{")
        labels = self.parse_list(lambda: self.expect_ident("enum label"))
        self.expect("}")
        for tok in labels:
            self.note("label", tok, scope=name[1])
        self.enums[name[1]] = tuple(t[1] for t in labels)

    # -- expressions ---------------------------------------------------------

    def parse_comparison(self) -> Comparison:
        left = self.parse_expr()[0]
        tok = self.peek()
        if tok[0] not in ("==", "!=", "<", "<=", ">", ">=", "="):
            raise self.syntax("a comparison operator", tok)
        self.pos += 1
        right = self.parse_expr()[0]
        return Comparison(op="==" if tok[0] == "=" else tok[0], left=left, right=right)

    def parse_int(self) -> int:
        """An integer literal, optionally negated."""
        negate = self.peek()[0] == "-"
        if negate:
            self.pos += 1
        tok = self.expect("int", "integer literal")
        if len(tok[1]) > _MAX_INT_DIGITS:
            raise ParseError("range", "integer literal too long", self.span(tok))
        value = int(tok[1])
        return -value if negate else value

    # Each expression parser returns the expression with its depth: the
    # ``nest`` enclosing parentheses plus the most operators and parentheses
    # on any path from its root to a leaf.

    def check_depth(self, depth: int, tok: _Token) -> int:
        if depth > MAX_EXPR_DEPTH:
            raise ParseError(
                "range", f"expression nested deeper than {MAX_EXPR_DEPTH} levels", self.span(tok)
            )
        return depth

    def parse_expr(self, nest: int = 0, prec: int = 1) -> tuple[Expr, int]:
        """An expression whose operators all bind at least as tightly as ``prec``."""
        if prec > _TIGHTEST:
            return self.parse_factor(nest)
        left, depth = self.parse_expr(nest, prec + 1)
        while _PREC.get((op := self.peek())[0]) == prec:
            self.pos += 1
            right, right_depth = self.parse_expr(nest, prec + 1)
            left = BinOp(op=op[0], left=left, right=right)
            depth = self.check_depth(1 + max(depth, right_depth), op)
        return left, depth

    def parse_factor(self, nest: int) -> tuple[Expr, int]:
        tok = self.peek()
        if tok[0] in ("int", "-"):
            return IntLit(self.parse_int()), nest
        if tok[0] == "(":
            self.pos += 1
            inner = self.parse_expr(self.check_depth(nest + 1, tok))
            self.expect(")")
            return inner
        if tok[0] == "ident" and tok[1] not in _KEYWORDS:
            self.pos += 1
            # An initializer may only use constants; other expressions also variables.
            self.note("constant" if self.decl == "var" else "name", tok)
            return Name(tok[1]), nest
        raise self.syntax("an expression", tok)

    # -- states --------------------------------------------------------------

    def parse_state(self) -> None:
        name = self.expect_ident("state name")
        self.declare("state", name, self.states)
        self.expect("=")
        if self.peek()[1] == "end":
            self.pos += 1
            body = StateBody()
        else:
            first, branches = self.parse_session()
            sessions = {first[0]: branches}
            if self.peek()[0] == "+":
                self.pos += 1
                second, branches = self.parse_session()
                if second[0] == first[0]:
                    raise ParseError(
                        "syntax",
                        "a mixed session combines one input and one output session",
                        self.span(second),
                    )
                sessions[second[0]] = branches
            in_branches, out_branches = sessions.get("?", ()), sessions.get("!", ())
            try:
                body = StateBody(in_branches=in_branches, out_branches=out_branches)
            except StructureError as err:  # a repeated action, at its second branch
                spans = [b.span for b in in_branches + out_branches if b.action.name == err.name]
                raise ParseError(err.kind, str(err), spans[1]) from None
        self.states[name[1]] = body
        self.state_spans[name[1]] = self.span(name)

    def parse_session(self) -> tuple[_Token, tuple[Branch, ...]]:
        """The session's ``!`` or ``?`` and its branches."""
        marker = self.peek()
        if marker[0] not in ("!", "?"):
            raise self.syntax("'!{' or '?{'", marker)
        self.pos += 1
        self.expect("{")
        if self.peek()[0] == "}":
            raise ParseError(
                "syntax", "empty session; write 'end' for a terminal state", self.span(self.peek())
            )
        branches = self.parse_list(self.parse_branch)
        self.expect("}")
        return marker, tuple(branches)

    def parse_type(self) -> TypeRef:
        tok = self.expect_ident("a type", keywords=_BUILTIN_TYPES)
        if tok[1] in _BUILTIN_TYPES:
            return TypeRef(tok[1])
        self.note("enum", tok)
        return TypeRef("enum", tok[1])

    def parse_branch(self) -> Branch:
        tokens = self.tokens
        rtype = self.parse_type()
        name = self.expect_ident("action name")
        self.expect("(")
        params = self.parse_list(
            lambda: self.expect_ident("a parameter type", keywords=_BUILTIN_TYPES)[1],
            close=")",
        )
        self.expect(")")
        ratio: Optional[float] = None
        ratio_tok = tokens[self.pos]
        pre: tuple[str, ...] = ()
        preds: tuple[str, ...] = ()
        if ratio_tok[0] == "[":
            self.pos += 1
            ratio_tok = tokens[self.pos]
            if ratio_tok[0] not in ("_", "int", "float"):
                raise self.syntax("a ratio or '_'", ratio_tok)
            self.pos += 1
            if ratio_tok[0] != "_":
                ratio = float(ratio_tok[1])
            self.expect(";")
            pre = self.parse_key_list("assign")
            self.expect(";")
            preds = self.parse_key_list("pred")
            self.expect("]")
        self.expect(":")
        dest = self.parse_dest()
        post: tuple[str, ...] = ()
        if tokens[self.pos][0] == "[":
            post = self.parse_key_list("assign")
        try:
            return Branch(
                action=ActionSignature(name[1], tuple(params), rtype),
                ratio=ratio,
                pre_assigns=pre,
                preds=preds,
                dest=dest,
                post_assigns=post,
                span=self.span(name),
            )
        except StructureError as err:  # a ratio outside [0, 1]
            raise self.located(err, [ratio_tok]) from None

    def parse_key_list(self, kind: str) -> tuple[str, ...]:
        self.expect("[")
        keys = self.parse_list(lambda: self.expect_ident(f"{kind} key"), close="]")
        self.expect("]")
        for tok in keys:
            self.note(kind, tok)
        return tuple(tok[1] for tok in keys)

    def parse_dest(self) -> Destination:
        if self.tokens[self.pos][0] == "<":
            self.pos += 1
            cases = self.parse_list(self.parse_case)
            self.expect(">")
            try:
                return DecisionDest(cases=tuple((o, s) for o, s, _ in cases))
            except StructureError as err:
                raise self.located(
                    err, [tok for o, _, tok in cases if outcome_text(o) == err.name]
                ) from None
        return PlainDest(state=self.expect_ident("a destination state or '<'")[1])

    def parse_case(self) -> tuple[Value, str, _Token]:
        """An outcome, its state and the outcome's token."""
        tok = self.expect_ident("a decision outcome", keywords=("true", "false"))
        outcome: Value = {"true": True, "false": False}.get(tok[1], tok[1])
        self.expect(":")
        state = self.expect_ident("a destination state")
        return outcome, state[1], tok


def parse_protocol(text: str) -> ProtocolSpec:
    """Parse ``.tsp`` source into a structurally valid :class:`ProtocolSpec`.

    Raises :class:`ParseError` on the first syntax error or broken
    structural rule, at the offending token.  Well-formedness rules are not
    checked here.
    """
    return _Parser(text).parse_file()


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def _expr_text(expr: Expr, ctx: int = 0) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Name):
        return expr.ident
    prec = _PREC[expr.op]
    text = f"{_expr_text(expr.left, prec)} {expr.op} {_expr_text(expr.right, prec + 1)}"
    return f"({text})" if prec < ctx else text


def _pred_text(pred: Predicate) -> str:
    return " && ".join(
        f"{_expr_text(c.left)} {c.op} {_expr_text(c.right)}" for c in pred.clauses
    )


def _type_text(tref: TypeRef) -> str:
    return tref.enum_name if tref.kind == "enum" else tref.kind


def _dest_text(dest: Destination) -> str:
    if isinstance(dest, PlainDest):
        return dest.state
    cases = ", ".join(f"{outcome_text(o)}: {s}" for o, s in dest.cases)
    return f"<{cases}>"


def _ratio_text(ratio: Optional[float]) -> str:
    return "_" if ratio is None else repr(ratio)


def _branch_text(br: Branch) -> str:
    params = ", ".join(br.action.param_types)
    attrs = f"[{_ratio_text(br.ratio)}; [{', '.join(br.pre_assigns)}]; [{', '.join(br.preds)}]]"
    post = f"[{', '.join(br.post_assigns)}]"
    return (
        f"{_type_text(br.action.return_type)} {br.action.name}({params}) "
        f"{attrs} : {_dest_text(br.dest)} {post}"
    )


def _session_text(marker: str, branches: tuple[Branch, ...]) -> str:
    return f"{marker}{{ {', '.join(_branch_text(b) for b in branches)} }}"


def _body_text(body: StateBody) -> str:
    parts = []
    if body.out_branches:
        parts.append(_session_text("!", body.out_branches))
    if body.in_branches:
        parts.append(_session_text("?", body.in_branches))
    if not parts:
        return "end"
    return " + ".join(parts)


def serialize_protocol(spec: ProtocolSpec) -> str:
    """Render a spec as canonical ``.tsp`` text.

    Sugared input forms are expanded (every branch carries the full
    attribute block and post-assignment list), so
    ``parse_protocol(serialize_protocol(s))`` is structurally equal to ``s``.
    """
    lines: list[str] = []
    internal = spec.internal
    for name, labels in internal.enums.items():
        lines.append(f"enum {name} {{ {', '.join(labels)} }}")
    for name, value in internal.consts.items():
        lines.append(f"const {name} = {value}")
    for name, init in internal.vars.items():
        lines.append(f"var {name} = {_expr_text(init)}")
    for key, assign in internal.assigns.items():
        lines.append(f"assign {key}: {assign.target} := {_expr_text(assign.expr)}")
    for key, pred in internal.preds.items():
        lines.append(f"pred {key}: {_pred_text(pred)}")
    if lines:
        lines.append("")
    for name, body in spec.typestate.states.items():
        lines.append(f"state {name} = {_body_text(body)}")
    return "\n".join(lines) + "\n"
