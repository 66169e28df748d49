"""Tokenizer, parser, and canonical serializer for the ``.shape`` language.

A shape file is a flat list of named bindings compiled to field
expressions, ended by exactly one export: either a ``field = ...;``
binding or a ``morph(initial=..., final=..., p=...);`` statement.

    # pac-man: two mouth segments joined with a trimmed arc
    s1   = segment(p1=(0, 0), p2=(0.6495, 0.375));
    s2   = segment(p1=(0, 0), p2=(0.6495, -0.375));
    arc  = trim(circle(c=(0, 0), r=0.75), halfplane(o=(0.6495, 0), n=(-1, 0)));
    field = requiv(m=2, s1, s2, arc);

Grammar (EBNF; ``#`` starts a line comment, whitespace is free):

    program    = { statement } ;
    statement  = binding | morph_stmt ;
    binding    = IDENT "=" expr ";" ;
    morph_stmt = "morph" "(" kwarg { "," kwarg } ")" ";" ;
    expr       = call | IDENT ;
    call       = CTOR "(" [ arg { "," arg } ] ")" ;
    arg        = kwarg | expr ;
    kwarg      = IDENT "=" value ;
    value      = NUMBER | point | BOOL | expr ;
    point      = "(" NUMBER "," NUMBER [ "," NUMBER ] ")" ;

Constructors: ``circle(c, r)``, ``segment(p1, p2)``,
``sphere(c, r, normalized)``, ``plane(o, n)``, ``halfplane(o, n)``,
``neg(x)``, ``union(a, b, s)``, ``inter(a, b, s)``,
``requiv(m, x, y, ...)``, ``trim(base, trimmer)``.  The morph statement
takes only keyword arguments: the shape names ``initial`` and ``final``,
the ramp rate ``p``, and an optional ``s`` (default 0).  No keyword may
be given twice.  All lengths are in meters; names must be defined before
use.

Parsing normalizes programs: optional parameters are materialized with
their defaults and keyword arguments are stored in signature order, so
``parse(serialize(p))`` reproduces ``p`` structurally.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

from .fields import (
    Circle,
    Conjunction,
    Disjunction,
    Equivalence,
    FieldError,
    FieldExpr,
    Negation,
    Plane,
    Segment,
    Sphere,
    Trim,
    validate,
)
from .morph import MorphSchedule

__all__ = [
    "Token",
    "ParseError",
    "SemanticError",
    "ShapeProgram",
    "tokenize",
    "parse",
    "serialize",
    "format_number",
]


# the validate() findings that leave a definition without a field; s > 1 is
# only outside the well-behaved range, and clamps its radicand at run time
# with a warning, as a morph's s > 1 does
_REFUSED_DIAGNOSTICS = frozenset({"dimension-mismatch", "degenerate-segment"})


class ShapeLangError(Exception):
    """Base for shape-language errors; carries a 1-based source position."""

    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}:{col}: {message}")


class ParseError(ShapeLangError):
    """Lexical or syntactic error, with the token set that was expected."""

    def __init__(self, line: int, col: int, message: str, expected: frozenset[str] = frozenset()):
        self.expected = expected
        super().__init__(line, col, message)


class SemanticError(ShapeLangError):
    """Well-formed syntax with an invalid meaning (names, ranges, dimensions)."""


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | lparen | rparen | comma | eq | semi | eof
    value: object
    line: int
    col: int


_PUNCT = {"(": "lparen", ")": "rparen", ",": "comma", "=": "eq", ";": "semi"}
# One alternative per lexeme of a line; 'illegal' takes any character no
# other one starts with, so the matches tile the line.  A number needs a digit
# or '.' after its optional sign (a bare sign is illegal), and an 'e' joins the
# number even without exponent digits so that case reads as a malformed exponent.
_TOKEN = re.compile(
    r"(?P<punct>[(),=;])|(?P<skip>[ \t\r]+|#.*)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>[+-]?(?=[0-9.])[0-9]*(?:\.[0-9]*)?(?:(?P<exp>[eE][+-]?)[0-9]*)?)"
    r"|(?P<illegal>.)"
)
# characters that may not directly follow a number
_NUMBER_STOP = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_."


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into tokens; raises :class:`ParseError` on bad input."""
    toks: list[Token] = []
    lines = source.split("\n")
    for line, text in enumerate(lines, 1):
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "skip":
                continue
            col = m.start() + 1
            if kind == "punct":
                toks.append(Token(_PUNCT[m.group()], m.group(), line, col))
            elif kind == "ident":
                toks.append(Token("ident", m.group(), line, col))
            elif kind == "number":
                end = m.end()
                if m.end("exp") == end:  # an 'e' with no exponent digits
                    if line == len(lines):  # at the end of input, point at the last character
                        end = min(end, len(text) - 1)
                    raise ParseError(line, end + 1, "malformed exponent in number")
                if end < len(text) and text[end] in _NUMBER_STOP:
                    raise ParseError(line, end + 1, f"invalid character {text[end]!r} in number")
                try:
                    toks.append(Token("number", float(m.group()), line, col))
                except ValueError:
                    raise ParseError(line, col, f"malformed number {m.group()!r}") from None
            else:
                raise ParseError(line, col, f"illegal character {m.group()!r}")
    return toks


# ---------------------------------------------------------------------------
# Source trees (references preserved for faithful serialization)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SRef:
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SCall:
    ctor: str
    children: tuple  # of SRef | SCall
    params: tuple  # of (key, float | tuple | bool), in signature order
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class _Param:
    key: str
    kind: str  # number | int | point | bool | name (of an earlier binding)
    required: bool = True
    default: object = None


@dataclass(frozen=True)
class _Ctor:
    name: str
    params: tuple[_Param, ...]
    min_children: int
    max_children: int | None  # None = unbounded
    build: Callable[[tuple, dict], FieldExpr]  # (compiled children, params) -> node
    params_first: bool = False  # requiv prints m before its children


_S = _Param("s", "number", required=False, default=0.0)

_CONSTRUCTORS = {
    c.name: c
    for c in (
        _Ctor("circle", (_Param("c", "point"), _Param("r", "number")), 0, 0,
              lambda kids, a: Circle(a["c"], a["r"])),
        _Ctor("segment", (_Param("p1", "point"), _Param("p2", "point")), 0, 0,
              lambda kids, a: Segment(a["p1"], a["p2"])),
        _Ctor("sphere", (_Param("c", "point"), _Param("r", "number"),
                         _Param("normalized", "bool", required=False, default=True)), 0, 0,
              lambda kids, a: Sphere(a["c"], a["r"], a["normalized"])),
        _Ctor("plane", (_Param("o", "point"), _Param("n", "point")), 0, 0,
              lambda kids, a: Plane(a["o"], a["n"])),
        _Ctor("halfplane", (_Param("o", "point"), _Param("n", "point")), 0, 0,
              lambda kids, a: Plane(a["o"], a["n"])),
        _Ctor("neg", (), 1, 1, lambda kids, a: Negation(kids[0])),
        _Ctor("union", (_S,), 2, 2, lambda kids, a: Disjunction(kids[0], kids[1], s=a["s"])),
        _Ctor("inter", (_S,), 2, 2, lambda kids, a: Conjunction(kids[0], kids[1], s=a["s"])),
        _Ctor("requiv", (_Param("m", "int", required=False, default=2),), 2, None,
              lambda kids, a: Equivalence(kids, m=a["m"]), params_first=True),
        _Ctor("trim", (), 2, 2, lambda kids, a: Trim(kids[0], kids[1])),
    )
}

_MORPH_PARAMS = (_Param("initial", "name"), _Param("final", "name"), _Param("p", "number"), _S)
_RESERVED = set(_CONSTRUCTORS) | {"morph", "true", "false"}


@dataclass(frozen=True)
class ShapeProgram:
    """Parsed and validated shape program.

    ``order`` lists binding names in source order; ``defs_src`` holds the
    reference-preserving source trees used by :func:`serialize`; the
    compiled per-name field expressions are available via
    :attr:`definitions`.  Exactly one export is present: the ``field``
    binding or a morph statement.
    """

    order: tuple[str, ...]
    defs_src: dict
    morph_src: tuple | None  # (initial, final, p, s) or None
    resolved: dict = field(compare=False, default_factory=dict)

    @property
    def has_field(self) -> bool:
        return "field" in self.defs_src

    @property
    def has_morph(self) -> bool:
        return self.morph_src is not None

    @property
    def definitions(self) -> dict[str, FieldExpr]:
        """Compiled field expression for every binding."""
        return dict(self.resolved)

    def field_expr(self) -> FieldExpr:
        """The exported field; raises if the program exports a morph."""
        if not self.has_field:
            raise SemanticError(1, 1, "program exports a morph, not a field")
        return self.resolved["field"]

    def morph_schedule(self) -> MorphSchedule:
        """The exported morph schedule; raises if the program exports a field."""
        if not self.has_morph:
            raise SemanticError(1, 1, "program exports a field, not a morph")
        initial, final, p, s = self.morph_src
        return MorphSchedule(self.resolved[initial], self.resolved[final], p=p, s=s)


class _Parser:
    def __init__(self, source: str):
        self.toks = tokenize(source)
        eline, ecol = 1, 1
        if self.toks:
            last = self.toks[-1]
            eline, ecol = last.line, last.col
        self.toks.append(Token("eof", None, eline, ecol))
        self.i = 0

    # No call moves past the final eof token: the parser steps only over a
    # token whose kind it has checked, and looks ahead only from an ident.
    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

    def advance(self) -> Token:
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                tok.line,
                tok.col,
                f"expected {what} but found {self._describe(tok)}",
                expected=frozenset((what,)),
            )
        self.i += 1
        return tok

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.kind == "eof":
            return "end of input"
        return repr(str(tok.value))

    # -- program ----------------------------------------------------------

    def parse(self) -> ShapeProgram:
        order: list[str] = []
        defs_src: dict = {}
        resolved: dict = {}
        morph_src = None
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                raise ParseError(
                    tok.line,
                    tok.col,
                    f"expected a binding or morph export but found {self._describe(tok)}",
                    expected=frozenset(("identifier",)),
                )
            if tok.value == "morph" and self.peek(1).kind == "lparen":
                if morph_src is not None:
                    raise SemanticError(tok.line, tok.col, "duplicate morph export")
                if "field" in defs_src:
                    raise SemanticError(
                        tok.line, tok.col, "program already exports a field"
                    )
                morph_src = self._morph_stmt(resolved)
                continue
            name_tok = self.advance()
            name = name_tok.value
            if name in _RESERVED:
                raise SemanticError(
                    name_tok.line, name_tok.col, f"{name!r} is a reserved word"
                )
            if name in defs_src:
                raise SemanticError(
                    name_tok.line, name_tok.col, f"duplicate definition of {name!r}"
                )
            if name == "field" and morph_src is not None:
                raise SemanticError(
                    name_tok.line, name_tok.col, "program already exports a morph"
                )
            self.expect("eq", "'='")
            src = self._expr(resolved)
            self.expect("semi", "';'")
            expr = self._compile(src, resolved)
            refused = [d for d in validate(expr) if d.code in _REFUSED_DIAGNOSTICS]
            if refused:
                raise SemanticError(name_tok.line, name_tok.col, str(refused[0]))
            order.append(name)
            defs_src[name] = src
            resolved[name] = expr
        if morph_src is None and "field" not in defs_src:
            end = self.peek()
            raise SemanticError(
                end.line, end.col, "program must export a field or a morph"
            )
        return ShapeProgram(
            order=tuple(order),
            defs_src=defs_src,
            morph_src=morph_src,
            resolved=resolved,
        )

    def _morph_stmt(self, resolved: dict) -> tuple:
        head = self.advance()  # 'morph'
        self.expect("lparen", "'('")
        got: dict = {}
        self._kwarg("morph", _MORPH_PARAMS, got, resolved)
        while self.peek().kind == "comma":
            self.advance()
            self._kwarg("morph", _MORPH_PARAMS, got, resolved)
        self.expect("rparen", "')'")
        self.expect("semi", "';'")
        initial, final, p, s = (v for _, v in _signature(head, "morph", _MORPH_PARAMS, got))
        try:
            MorphSchedule(resolved[initial], resolved[final], p=p, s=s)
        except ValueError as err:
            raise SemanticError(head.line, head.col, str(err)) from None
        return (initial, final, p, s)

    # -- expressions --------------------------------------------------------

    def _expr(self, resolved: dict):
        tok = self.expect("ident", "shape expression")
        if tok.value in _CONSTRUCTORS:
            return self._call(tok, resolved)
        return SRef(_known(tok, resolved), tok.line, tok.col)

    def _call(self, head: Token, resolved: dict) -> SCall:
        spec = _CONSTRUCTORS[head.value]
        self.expect("lparen", "'('")
        children: list = []
        got: dict = {}
        if self.peek().kind != "rparen":
            while True:
                if self.peek().kind == "ident" and self.peek(1).kind == "eq":
                    self._kwarg(spec.name, spec.params, got, resolved)
                else:
                    children.append(self._expr(resolved))
                if self.peek().kind != "comma":
                    break
                self.advance()
        self.expect("rparen", "')'")
        hi = spec.max_children if spec.max_children is not None else len(children)
        if not (spec.min_children <= len(children) <= hi):
            want = (
                f"{spec.min_children}"
                if spec.max_children == spec.min_children
                else f"at least {spec.min_children}"
            )
            raise SemanticError(
                head.line,
                head.col,
                f"{spec.name} takes {want} shape argument(s), got {len(children)}",
            )
        params = _signature(head, spec.name, spec.params, got)
        return SCall(spec.name, tuple(children), params, head.line, head.col)

    def _kwarg(self, owner: str, specs: tuple[_Param, ...], got: dict, resolved: dict) -> None:
        """Read one ``key=value`` argument of ``owner`` into ``got``."""
        key_tok = self.expect("ident", "keyword argument")
        self.expect("eq", "'='")
        key = key_tok.value
        pspec = next((p for p in specs if p.key == key), None)
        if pspec is None:
            raise SemanticError(key_tok.line, key_tok.col, f"{owner} has no argument {key!r}")
        if key in got:
            raise SemanticError(key_tok.line, key_tok.col, f"duplicate argument {key!r}")
        got[key] = self._value(pspec, resolved)

    def _value(self, pspec: _Param, resolved: dict):
        if pspec.kind in ("number", "int"):
            num = self.expect("number", "number")
            val = float(num.value)
            if pspec.kind == "int":
                if not val.is_integer():
                    raise SemanticError(
                        num.line, num.col, f"{pspec.key} must be an integer"
                    )
                return int(val)
            return val
        if pspec.kind == "point":
            self.expect("lparen", "'('")
            coords = [float(self.expect("number", "number").value)]
            self.expect("comma", "','")
            coords.append(float(self.expect("number", "number").value))
            if self.peek().kind == "comma":
                self.advance()
                coords.append(float(self.expect("number", "number").value))
            self.expect("rparen", "')'")
            return tuple(coords)
        if pspec.kind == "name":
            return _known(self.expect("ident", "shape name"), resolved)
        word = self.expect("ident", "'true' or 'false'")
        if word.value not in ("true", "false"):
            raise SemanticError(word.line, word.col, f"{pspec.key} must be true or false")
        return word.value == "true"

    # -- compilation --------------------------------------------------------

    def _compile(self, src, resolved: dict) -> FieldExpr:
        if isinstance(src, SRef):
            return resolved[src.name]
        kids = tuple(self._compile(c, resolved) for c in src.children)
        try:
            return _CONSTRUCTORS[src.ctor].build(kids, dict(src.params))
        except FieldError as err:
            raise SemanticError(src.line, src.col, str(err)) from None


def _known(tok: Token, resolved: dict) -> str:
    """The name ``tok`` refers to; it must be bound earlier in the program."""
    if tok.value not in resolved:
        raise SemanticError(tok.line, tok.col, f"unknown name {tok.value!r}")
    return tok.value


def _signature(head: Token, owner: str, specs: tuple[_Param, ...], got: dict) -> tuple:
    """``(key, value)`` pairs in signature order, with defaults filled in."""
    out = []
    for pspec in specs:
        if pspec.key in got:
            out.append((pspec.key, got[pspec.key]))
        elif pspec.required:
            raise SemanticError(head.line, head.col, f"{owner} is missing {pspec.key!r}")
        else:
            out.append((pspec.key, pspec.default))
    return tuple(out)


def parse(source: str) -> ShapeProgram:
    """Parse and validate shape-language source text.

    Raises :class:`ParseError` for lexical/syntactic problems and
    :class:`SemanticError` for unknown names, bad parameter ranges,
    dimension mismatches, or degenerate segments; both carry 1-based
    (line, col) positions.  An R-operation with s > 1 parses: where its
    radicand goes negative it is clamped to 0, with a warning.
    """
    return _Parser(source).parse()


def format_number(v: float) -> str:
    """Canonical decimal form: integral floats print as integers, everything
    else as the shortest digits that round-trip bit-exactly."""
    v = float(v)
    if math.isnan(v) or math.isinf(v):
        raise ValueError("cannot serialize non-finite numbers")
    if v.is_integer() and abs(v) < 1e17:
        if v == 0.0 and math.copysign(1.0, v) < 0.0:
            return "-0"
        return str(int(v))
    return repr(v)


def _render_value(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, tuple):
        return "(" + ", ".join(format_number(c) for c in val) + ")"
    return format_number(val)


def _render(src) -> str:
    if isinstance(src, SRef):
        return src.name
    spec = _CONSTRUCTORS[src.ctor]
    parts = [f"{k}={_render_value(v)}" for k, v in src.params]
    kids = [_render(c) for c in src.children]
    inner = parts + kids if spec.params_first else kids + parts
    return f"{src.ctor}({', '.join(inner)})"


def serialize(program: ShapeProgram) -> str:
    """Canonical text for ``program``; ``parse(serialize(p))`` equals ``p``."""
    lines = [f"{name} = {_render(program.defs_src[name])};" for name in program.order]
    if program.morph_src is not None:
        initial, final, p, s = program.morph_src
        lines.append(
            f"morph(initial={initial}, final={final}, "
            f"p={format_number(p)}, s={format_number(s)});"
        )
    return "\n".join(lines) + "\n"
