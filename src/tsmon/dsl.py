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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

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

# One alternative per token class, tried in order.  Multi-character operators
# come first so the longest one wins; explicit ASCII classes keep non-ASCII
# letters and digits out of identifiers and numbers.  ``1.`` is an int followed
# by an unexpected ``.``.  Any other character matches ``error``.
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)"
    r"|(?P<space>[ \t\r]+)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<float>[0-9]+\.[0-9]+)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<punct>:=|==|!=|<=|>=|&&|[{}\[\]()<>+\-*,;:=!?])"
    r"|(?P<error>.)"
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


@dataclass(frozen=True)
class _Token:
    type: str  # "ident", "int", "float", "eof", or a punctuation literal
    text: str
    span: SourceSpan


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            col = 1
        elif kind == "error":
            raise ParseError(
                "syntax", f"unexpected character {m.group()!r}", SourceSpan(line, col, 1)
            )
        elif kind != "comment":  # a comment does not advance the column
            word = m.group()
            if kind != "space":
                # Punctuation and a bare ``_`` are typed by their own text.
                if kind == "punct" or word == "_":
                    kind = word
                tokens.append(_Token(kind, word, SourceSpan(line, col, len(word))))
            col += len(word)
    tokens.append(_Token("eof", "", SourceSpan(line, col, 0)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
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
        self.uses: dict[tuple[str, str, str], list[SourceSpan]] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, ttype: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.type == ttype and (text is None or tok.text == text)

    def expect(self, ttype: str, what: str) -> _Token:
        tok = self.peek()
        if tok.type != ttype:
            raise ParseError("syntax", f"expected {what}, found {tok.text or 'end of input'!r}", tok.span)
        return self.advance()

    def expect_ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.type != "ident" or tok.text in _KEYWORDS:
            raise ParseError("syntax", f"expected {what}, found {tok.text or 'end of input'!r}", tok.span)
        return self.advance()

    # -- locating model errors -----------------------------------------------

    def note(self, role: str, tok: _Token, scope: str = "") -> None:
        self.uses.setdefault((role, scope, tok.text), []).append(tok.span)

    @staticmethod
    def located(err: StructureError, spans: list[SourceSpan]) -> ParseError:
        """``err`` at its token.  ``spans`` are the occurrences of the
        offending name, a repeat's in the order the model reads them: a bad
        reference is reported at its first use, a repeat at its second
        occurrence."""
        return ParseError(err.kind, str(err), spans[err.kind == "duplicate"])

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
        while not self.at("eof"):
            tok = self.peek()
            if tok.type != "ident" or tok.text not in parsers:
                raise ParseError("syntax", f"expected a declaration, found {tok.text!r}", tok.span)
            self.decl = self.advance().text
            parsers[self.decl]()
        if not self.states:
            raise ParseError("syntax", "no states declared", self.peek().span)
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
        if name.text in table:
            raise ParseError("duplicate", f"{kind} {name.text!r} is already declared", name.span)

    def parse_const(self) -> None:
        name = self.expect_ident("constant name")
        self.declare("const", name, self.consts)
        self.note("declaration", name)
        self.expect("=", "'='")
        negate = False
        if self.at("-"):
            self.advance()
            negate = True
        tok = self.expect("int", "integer literal")
        self.consts[name.text] = -int(tok.text) if negate else int(tok.text)

    def parse_var(self) -> None:
        name = self.expect_ident("variable name")
        self.declare("var", name, self.vars)
        self.note("declaration", name)
        self.expect("=", "'='")
        self.vars[name.text] = self.parse_expr()[0]

    def parse_assign(self) -> None:
        key = self.expect_ident("assignment key")
        self.declare("assign", key, self.assigns)
        self.expect(":", "':'")
        target = self.expect_ident("target variable")
        self.note("variable", target)
        self.expect(":=", "':='")
        expr = self.parse_expr()[0]
        self.assigns[key.text] = Assignment(target=target.text, expr=expr)

    def parse_pred(self) -> None:
        key = self.expect_ident("predicate key")
        self.declare("pred", key, self.preds)
        self.expect(":", "':'")
        clauses = [self.parse_comparison()]
        while self.at("&&"):
            self.advance()
            clauses.append(self.parse_comparison())
        self.preds[key.text] = Predicate(clauses=tuple(clauses))

    def parse_enum(self) -> None:
        name = self.expect_ident("enum name")
        self.declare("enum", name, self.enums)
        self.expect("{", "'{'")
        labels = [self.expect_ident("enum label")]
        while self.at(","):
            self.advance()
            labels.append(self.expect_ident("enum label"))
        self.expect("}", "'}'")
        for tok in labels:
            self.note("label", tok, scope=name.text)
        self.enums[name.text] = tuple(t.text for t in labels)

    # -- expressions ---------------------------------------------------------

    def parse_comparison(self) -> Comparison:
        left = self.parse_expr()[0]
        tok = self.peek()
        if tok.type in ("==", "!=", "<", "<=", ">", ">="):
            op = self.advance().type
        elif tok.type == "=":
            self.advance()
            op = "=="
        else:
            raise ParseError("syntax", f"expected a comparison operator, found {tok.text!r}", tok.span)
        right = self.parse_expr()[0]
        return Comparison(op=op, left=left, right=right)

    # Each expression parser returns the expression with its depth: the
    # ``nest`` enclosing parentheses plus the most operators and parentheses
    # on any path from its root to a leaf.

    def check_depth(self, depth: int, tok: _Token) -> int:
        if depth > MAX_EXPR_DEPTH:
            raise ParseError(
                "range", f"expression nested deeper than {MAX_EXPR_DEPTH} levels", tok.span
            )
        return depth

    def parse_expr(self, nest: int = 0) -> tuple[Expr, int]:
        left, depth = self.parse_term(nest)
        while self.peek().type in ("+", "-"):
            op = self.advance()
            right, right_depth = self.parse_term(nest)
            left = BinOp(op=op.type, left=left, right=right)
            depth = self.check_depth(1 + max(depth, right_depth), op)
        return left, depth

    def parse_term(self, nest: int) -> tuple[Expr, int]:
        left, depth = self.parse_factor(nest)
        while self.at("*"):
            op = self.advance()
            right, right_depth = self.parse_factor(nest)
            left = BinOp(op="*", left=left, right=right)
            depth = self.check_depth(1 + max(depth, right_depth), op)
        return left, depth

    def parse_factor(self, nest: int) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.type == "int":
            self.advance()
            return IntLit(int(tok.text)), nest
        if tok.type == "-":
            self.advance()
            lit = self.expect("int", "integer literal")
            return IntLit(-int(lit.text)), nest
        if tok.type == "(":
            self.advance()
            inner = self.parse_expr(self.check_depth(nest + 1, tok))
            self.expect(")", "')'")
            return inner
        if tok.type == "ident" and tok.text not in _KEYWORDS:
            self.advance()
            # An initializer may only use constants; other expressions also variables.
            self.note("constant" if self.decl == "var" else "name", tok)
            return Name(tok.text), nest
        raise ParseError("syntax", f"expected an expression, found {tok.text or 'end of input'!r}", tok.span)

    # -- states --------------------------------------------------------------

    def parse_state(self) -> None:
        name = self.expect_ident("state name")
        self.declare("state", name, self.states)
        self.expect("=", "'='")
        if self.at("ident", "end"):
            self.advance()
            body = StateBody()
        else:
            first_kind, first = self.parse_session()
            in_branches = first if first_kind == "in" else ()
            out_branches = first if first_kind == "out" else ()
            if self.at("+"):
                self.advance()
                second_kind, second = self.parse_session()
                if second_kind == first_kind:
                    raise ParseError(
                        "syntax",
                        "a mixed session combines one input and one output session",
                        self.peek().span,
                    )
                if second_kind == "in":
                    in_branches = second
                else:
                    out_branches = second
            try:
                body = StateBody(in_branches=in_branches, out_branches=out_branches)
            except StructureError as err:
                spans = [b.span for b in in_branches + out_branches if b.action.name == err.name]
                raise self.located(err, spans) from None
        self.states[name.text] = body
        self.state_spans[name.text] = name.span

    def parse_session(self) -> tuple[str, tuple[Branch, ...]]:
        tok = self.peek()
        if tok.type == "!":
            kind = "out"
        elif tok.type == "?":
            kind = "in"
        else:
            raise ParseError(
                "syntax", f"expected '!{{' or '?{{', found {tok.text or 'end of input'!r}", tok.span
            )
        self.advance()
        self.expect("{", "'{'")
        if self.at("}"):
            raise ParseError(
                "syntax", "empty session; write 'end' for a terminal state", self.peek().span
            )
        branches = [self.parse_branch()]
        while self.at(","):
            self.advance()
            branches.append(self.parse_branch())
        self.expect("}", "'}'")
        return kind, tuple(branches)

    def parse_type(self) -> TypeRef:
        tok = self.peek()
        if tok.type != "ident":
            raise ParseError("syntax", f"expected a type, found {tok.text or 'end of input'!r}", tok.span)
        self.advance()
        if tok.text == "unit":
            return TypeRef("unit")
        if tok.text == "boolean":
            return TypeRef("boolean")
        if tok.text in _KEYWORDS:
            raise ParseError("syntax", f"expected a type, found {tok.text!r}", tok.span)
        self.note("enum", tok)
        return TypeRef("enum", tok.text)

    def parse_branch(self) -> Branch:
        rtype = self.parse_type()
        name = self.expect_ident("action name")
        self.expect("(", "'('")
        params: list[str] = []
        if not self.at(")"):
            params.append(self.parse_param())
            while self.at(","):
                self.advance()
                params.append(self.parse_param())
        self.expect(")", "')'")
        ratio: Optional[float] = None
        ratio_tok = self.peek()
        pre: tuple[str, ...] = ()
        preds: tuple[str, ...] = ()
        if self.at("["):
            self.advance()
            ratio_tok = self.peek()
            ratio = self.parse_ratio()
            self.expect(";", "';'")
            pre = self.parse_key_list("assign")
            self.expect(";", "';'")
            preds = self.parse_key_list("pred")
            self.expect("]", "']'")
        self.expect(":", "':'")
        dest = self.parse_dest(rtype)
        post: tuple[str, ...] = ()
        if self.at("["):
            post = self.parse_key_list("assign")
        try:
            return Branch(
                action=ActionSignature(name.text, tuple(params), rtype),
                ratio=ratio,
                pre_assigns=pre,
                preds=preds,
                dest=dest,
                post_assigns=post,
                span=name.span,
            )
        except StructureError as err:  # a ratio outside [0, 1]
            raise self.located(err, [ratio_tok.span]) from None

    def parse_param(self) -> str:
        tok = self.peek()
        if tok.type != "ident":
            raise ParseError("syntax", f"expected a parameter type, found {tok.text!r}", tok.span)
        self.advance()
        if tok.text not in ("unit", "boolean") and tok.text in _KEYWORDS:
            raise ParseError("syntax", f"expected a parameter type, found {tok.text!r}", tok.span)
        return tok.text

    def parse_ratio(self) -> Optional[float]:
        tok = self.peek()
        if tok.type == "_":
            self.advance()
            return None
        if tok.type in ("int", "float"):
            self.advance()
            return float(tok.text)
        raise ParseError("syntax", f"expected a ratio or '_', found {tok.text!r}", tok.span)

    def parse_key_list(self, kind: str) -> tuple[str, ...]:
        self.expect("[", "'['")
        keys: list[str] = []
        if not self.at("]"):
            while True:
                tok = self.expect_ident(f"{kind} key")
                self.note(kind, tok)
                keys.append(tok.text)
                if not self.at(","):
                    break
                self.advance()
        self.expect("]", "']'")
        return tuple(keys)

    def parse_dest(self, rtype: TypeRef) -> Destination:
        if self.at("<"):
            self.advance()
            cases = [self.parse_case()]
            while self.at(","):
                self.advance()
                cases.append(self.parse_case())
            self.expect(">", "'>'")
            try:
                return DecisionDest(cases=tuple((o, s) for o, s, _ in cases))
            except StructureError as err:
                raise self.located(
                    err, [span for o, _, span in cases if outcome_text(o) == err.name]
                ) from None
        tok = self.expect_ident("a destination state or '<'")
        return PlainDest(state=tok.text)

    def parse_case(self) -> tuple[Value, str, SourceSpan]:
        tok = self.peek()
        outcome: Value
        if tok.type == "ident" and tok.text == "true":
            outcome = True
        elif tok.type == "ident" and tok.text == "false":
            outcome = False
        elif tok.type == "ident" and tok.text not in _KEYWORDS:
            outcome = tok.text
        else:
            raise ParseError(
                "syntax", f"expected a decision outcome, found {tok.text or 'end of input'!r}", tok.span
            )
        self.advance()
        self.expect(":", "':'")
        state = self.expect_ident("a destination state")
        return outcome, state.text, tok.span


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

_PREC = {"+": 1, "-": 1, "*": 2}


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
