"""Input language for rings, ideals, modules, forms, and verification tasks.

One global ring per script, semicolon-terminated statements, '#' line
comments.  Variable declaration order fixes the monomial-order ranking,
so scripts reproduce degrevlex results exactly.

    ring x1 x2 y1;
    ideal I = x1*y1, x2*y1;
    module M = R/I;
    forms F = y1 - x1;
    verify M F i=1;
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from hilbcalc.polyring import (
    DegRevLex,
    LinearForm,
    Polynomial,
)
from hilbcalc.series import MAX_SHIFT

# '/' is not needed by polynomial literals (rationals lex as one token)
# but module declarations spell R/I with it
OPERATORS = frozenset("+-*^=,();/")


class DslError(ValueError):
    """Common base so drivers can map language errors to one exit path."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class LexError(DslError):
    pass


class ParseError(DslError):
    def __init__(self, message: str, line: int, column: int, expected=()):
        self.expected = frozenset(expected)
        if self.expected:
            message += f" (expected {', '.join(sorted(self.expected))})"
        super().__init__(message, line, column)


class SemanticError(DslError):
    pass


class Token(NamedTuple):
    kind: str  # "ident", "int", "rat", a keyword, or an operator char
    text: str
    line: int
    column: int


# One alternative per token class, after the blanks before it.  Every
# character that is not a blank falls into one of them (`illegal` last),
# so finditer never skips text; it skips only blanks that end the input.
# `[^\W\d]` is a letter, `_`, or a numeric character that is no decimal
# digit (`²`, `½`); tokenize refuses the last as an illegal character.
_TOKEN_PATTERN = re.compile(
    r"[^\S\n]*(?:"
    r"(?P<newline>\n)|(?P<comment>#[^\n]*)|(?P<word>[^\W\d]\w*)"
    # a/b with no interior whitespace is one rational literal
    r"|(?P<rat>\d+/\d+)|(?P<int>\d+)"
    rf"|(?P<operator>[{re.escape(''.join(sorted(OPERATORS)))}])|(?P<illegal>\S))"
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = 0  # offset of the current line's first character
    for match in _TOKEN_PATTERN.finditer(text):
        kind = match.lastgroup
        if kind == "newline":
            line += 1
            line_start = match.end()
            continue
        if kind == "comment":
            continue
        word = match[kind]
        column = match.start(kind) - line_start + 1
        if kind == "word":
            if not (word[0].isalpha() or word[0] == "_"):
                raise LexError(f"illegal character {word[0]!r}", line, column)
            kind = word if word in KEYWORDS else "ident"
        elif kind == "operator":
            kind = word
        elif kind == "illegal":
            raise LexError(f"illegal character {word!r}", line, column)
        # tuple.__new__ skips the Python-level __new__ of a NamedTuple
        tokens.append(tuple.__new__(Token, (kind, word, line, column)))
    return tokens


def _integer(tok: Token, digits: str) -> int:
    """The value of `digits`, a run of decimal digits in the literal `tok`.
    A run longer than the interpreter converts is a language error at the
    literal (str-to-int raises ValueError only for that)."""
    try:
        return int(digits)
    except ValueError:
        raise SemanticError(
            f"a literal has {len(digits)} digits, more than "
            f"{sys.get_int_max_str_digits()}, the interpreter's limit for "
            "reading an integer",
            tok.line,
            tok.column,
        ) from None


def _coefficient(tok: Token) -> int | Fraction:
    """The value of an "int" or "rat" literal."""
    if tok.kind == "int":
        return _integer(tok, tok.text)
    num, _, den = tok.text.partition("/")
    numerator, denominator = _integer(tok, num), _integer(tok, den)
    if not denominator:
        raise SemanticError(
            f"zero denominator in literal {tok.text}", tok.line, tok.column
        )
    return Fraction(numerator, denominator)


def _unexpected(tok: Token, label: str) -> ParseError:
    return ParseError(
        f"unexpected {describe(tok)}", tok.line, tok.column, expected=[label]
    )


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class RingDecl:
    variables: tuple[str, ...]


@dataclass(frozen=True)
class IdealDecl:
    name: str
    generators: tuple[Polynomial, ...]


@dataclass(frozen=True)
class ModuleDecl:
    name: str
    ideal_name: str
    shift: int = 0


@dataclass(frozen=True)
class FormsDecl:
    name: str
    forms: tuple[LinearForm, ...]


@dataclass(frozen=True)
class SeriesCmd:
    module: str


@dataclass(frozen=True)
class CoeffsCmd:
    module: str


@dataclass(frozen=True)
class DepthCmd:
    module: str


@dataclass(frozen=True)
class SuperficialCmd:
    module: str
    forms: str


@dataclass(frozen=True)
class AdmissibleCmd:
    module: str
    forms: str


@dataclass(frozen=True)
class VerifyCmd:
    module: str
    forms: str
    index: int


@dataclass(frozen=True)
class OracleCmd:
    module: str
    degree: int


# The command grammar, written once: a command is its keyword, then one
# token group per field of its class in field order -- a module name, a
# forms-group name, `i = INT` for index, a bare INT for degree.  The
# parser, pretty_print and the CLI's report entries and subcommands all
# read this table.
COMMANDS: dict[str, type] = {
    "series": SeriesCmd,
    "coeffs": CoeffsCmd,
    "depth": DepthCmd,
    "superficial": SuperficialCmd,
    "admissible": AdmissibleCmd,
    "verify": VerifyCmd,
    "oracle": OracleCmd,
}
_KEYWORD_OF = {cls: keyword for keyword, cls in COMMANDS.items()}

STATEMENT_KEYWORDS = frozenset({"ring", "ideal", "module", "forms", *COMMANDS})
KEYWORDS = STATEMENT_KEYWORDS | {"shift", "i"}

Statement = object  # any of the decl/cmd dataclasses above


@dataclass(frozen=True)
class Script:
    statements: tuple

    @property
    def ring(self) -> RingDecl:
        for s in self.statements:
            if isinstance(s, RingDecl):
                return s
        raise SemanticError("script declares no ring", 0, 0)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.ring.variables

    def ideals(self) -> dict[str, IdealDecl]:
        return {s.name: s for s in self.statements if isinstance(s, IdealDecl)}

    def modules(self) -> dict[str, ModuleDecl]:
        return {s.name: s for s in self.statements if isinstance(s, ModuleDecl)}

    def form_groups(self) -> dict[str, FormsDecl]:
        return {s.name: s for s in self.statements if isinstance(s, FormsDecl)}

    def commands(self) -> Iterator[Statement]:
        for s in self.statements:
            if not isinstance(s, (RingDecl, IdealDecl, ModuleDecl, FormsDecl)):
                yield s


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = list(tokens)
        if self.tokens:
            last = self.tokens[-1]
            eof = Token(
                "end of input", "", last.line, last.column + max(len(last.text), 1)
            )
        else:
            eof = Token("end of input", "", 1, 1)
        # the list ends in the end-of-input token, and nothing moves past
        # it, so reading the token after any other one needs no bounds check
        self.tokens.append(eof)
        self.pos = 0
        self.variables: Optional[tuple[str, ...]] = None
        self.var_index: dict[str, int] = {}
        # one table: names for ideals, modules, and form groups all share it
        self.symbols: dict[str, str] = {}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end of input":
            self.pos += 1
        return tok

    def expect(self, kind: str, label: Optional[str] = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise _unexpected(tok, label or kind)
        self.pos += 1
        return tok

    def _degree(self, tok: Token, what: str) -> int:
        """A shift, exponent or oracle degree literal, at most MAX_SHIFT
        (numerators and oracle counts are dense)."""
        if tok.kind != "int":
            raise _unexpected(tok, "an integer")
        n = _integer(tok, tok.text)
        if n > MAX_SHIFT:
            raise SemanticError(
                f"{what} {n} is above {MAX_SHIFT}, the largest a series "
                "numerator holds",
                tok.line,
                tok.column,
            )
        return n

    def expect_degree(self, what: str) -> int:
        n = self._degree(self.peek(), what)
        self.pos += 1
        return n

    # -- statements --------------------------------------------------------

    def parse_script(self) -> Script:
        statements: list[Statement] = []
        if self.peek().kind == "end of input":
            tok = self.peek()
            raise ParseError(
                "empty script", tok.line, tok.column, expected=["a statement"]
            )
        while self.peek().kind != "end of input":
            statements.append(self.parse_statement())
        if self.variables is None:
            raise SemanticError("script declares no ring", 1, 1)
        return Script(tuple(statements))

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.kind not in STATEMENT_KEYWORDS:
            raise ParseError(
                f"unexpected {describe(tok)}",
                tok.line,
                tok.column,
                expected=sorted(STATEMENT_KEYWORDS),
            )
        if tok.kind in COMMANDS:
            stmt = self._parse_command()
        else:
            stmt = getattr(self, f"_parse_{tok.kind}")()
        self.expect(";")
        return stmt

    def _parse_ring(self) -> RingDecl:
        tok = self.advance()
        if self.variables is not None:
            raise SemanticError(
                "a script declares exactly one ring", tok.line, tok.column
            )
        names: list[str] = []
        while self.peek().kind == "ident":
            v = self.advance()
            if v.text in names:
                raise SemanticError(
                    f"variable {v.text} declared twice", v.line, v.column
                )
            if v.text == "R":
                raise SemanticError(
                    "R names the ambient ring and cannot be a variable",
                    v.line,
                    v.column,
                )
            names.append(v.text)
        if not names:
            nxt = self.peek()
            raise ParseError(
                f"unexpected {describe(nxt)}",
                nxt.line,
                nxt.column,
                expected=["a variable name"],
            )
        self.variables = tuple(names)
        self.var_index = {name: k for k, name in enumerate(names)}
        return RingDecl(self.variables)

    def _declare(self, tok: Token, kind: str) -> str:
        if tok.text in self.symbols:
            raise SemanticError(
                f"{tok.text} already declared as {self.symbols[tok.text]}",
                tok.line,
                tok.column,
            )
        self.symbols[tok.text] = kind
        return tok.text

    def _lookup(self, tok: Token, kind: str) -> str:
        declared = self.symbols.get(tok.text)
        if declared is None:
            raise SemanticError(f"undeclared name {tok.text}", tok.line, tok.column)
        if declared != kind:
            raise SemanticError(
                f"{tok.text} names {declared}, not {kind}", tok.line, tok.column
            )
        return tok.text

    def _parse_ideal(self) -> IdealDecl:
        self.advance()
        name_tok = self.expect("ident", "an ideal name")
        name = self._declare(name_tok, "ideal")
        self.expect("=")
        first = self.peek()
        gens = [self.parse_polynomial()]
        while self.peek().kind == ",":
            self.advance()
            gens.append(self.parse_polynomial())
        kept = tuple(g for g in gens if not g.is_zero)
        # the zero ideal has no literal spelling, so an empty list here
        # would break the print/parse round trip
        if not kept:
            raise SemanticError(
                f"every generator of {name} cancels to zero",
                first.line,
                first.column,
            )
        return IdealDecl(name, kept)

    def _parse_module(self) -> ModuleDecl:
        self.advance()
        name_tok = self.expect("ident", "a module name")
        self.expect("=")
        r = self.expect("ident", "R")
        if r.text != "R":
            raise ParseError(
                f"unexpected {describe(r)}", r.line, r.column, expected=["R"]
            )
        self.expect("/")
        ideal_name = self._lookup(self.expect("ident", "an ideal name"), "ideal")
        shift = 0
        if self.peek().kind == "shift":
            self.advance()
            shift = self.expect_degree("shift")
        name = self._declare(name_tok, "module")
        return ModuleDecl(name, ideal_name, shift)

    def _parse_forms(self) -> FormsDecl:
        self.advance()
        name = self._declare(self.expect("ident", "a forms name"), "forms")
        self.expect("=")
        members = [self.parse_linear_form()]
        while self.peek().kind == ",":
            self.advance()
            members.append(self.parse_linear_form())
        return FormsDecl(name, tuple(members))

    def _parse_command(self) -> Statement:
        cls = COMMANDS[self.advance().kind]
        args = []
        for field in fields(cls):
            if field.name in ("module", "forms"):
                tok = self.expect("ident", f"a {field.name} name")
                args.append(self._lookup(tok, field.name))
                continue
            if field.name == "degree":
                args.append(self.expect_degree("oracle degree"))
                continue
            if field.name == "index":
                self.expect("i")
                self.expect("=")
            tok = self.expect("int", "an integer")
            args.append(_integer(tok, tok.text))
        return cls(*args)

    # -- polynomial literals ------------------------------------------------

    def _require_ring(self, tok: Token) -> None:
        if self.variables is None:
            raise SemanticError(
                "polynomial literal before the ring declaration", tok.line, tok.column
            )

    def parse_polynomial(self) -> Polynomial:
        # The literal grammar read by index into self.tokens, without
        # peek/advance/expect: this loop runs once per token of every
        # generator, most of the tokens of a script.
        tokens = self.tokens
        pos = self.pos
        start = tokens[pos]
        self._require_ring(start)
        var_index = self.var_index
        d = len(self.variables)
        sign = 1
        if start.kind in ("+", "-"):
            sign = -1 if start.kind == "-" else 1
            pos += 1
        # the terms summed in one dict, a monomial dropped when it cancels,
        # as Polynomial addition drops it
        terms: dict = {}
        while True:
            # one term: an optional coefficient, then one or more factors
            # `variable ('^' INT)?`, with each '*' optional
            tok = tokens[pos]
            coeff = 1
            if tok.kind in ("int", "rat"):
                coeff = _coefficient(tok)
                pos += 1
                if tokens[pos].kind == "*":
                    pos += 1
            e = [0] * d
            while True:
                v = tokens[pos]
                if v.kind != "ident":
                    raise _unexpected(v, "a ring variable")
                idx = var_index.get(v.text)
                if idx is None:
                    raise SemanticError(
                        f"undeclared name {v.text}", v.line, v.column
                    )
                pos += 1
                if tokens[pos].kind == "^":
                    e[idx] += self._degree(tokens[pos + 1], "exponent")
                    pos += 2
                else:
                    e[idx] += 1
                if e[idx] > MAX_SHIFT:
                    raise SemanticError(
                        f"exponent of {v.text} reaches {e[idx]} in one term, "
                        f"above {MAX_SHIFT}, the largest a series numerator "
                        "holds",
                        v.line,
                        v.column,
                    )
                kind = tokens[pos].kind
                if kind == "*":
                    pos += 1
                elif kind != "ident":
                    break
            m = tuple(e)
            value = terms.get(m, 0) + sign * coeff
            if value:
                terms[m] = value
            else:
                terms.pop(m, None)
            kind = tokens[pos].kind
            if kind not in ("+", "-"):
                break
            sign = 1 if kind == "+" else -1
            pos += 1
        self.pos = pos
        poly = Polynomial(d, terms)
        degrees = {sum(m) for m in poly.nums}
        if len(degrees) > 1:
            raise SemanticError(
                f"inhomogeneous polynomial: mixes degrees {sorted(degrees)}",
                start.line,
                start.column,
            )
        return poly

    def parse_linear_form(self) -> LinearForm:
        start = self.peek()
        poly = self.parse_polynomial()
        degrees = sorted({sum(m) for m in poly.nums})
        if degrees != [1]:
            shown = degrees if degrees else "the zero form"
            raise SemanticError(
                f"form must have degree exactly 1, got {shown}",
                start.line,
                start.column,
            )
        nums = [0] * len(self.variables)
        for m, c in poly.nums.items():
            nums[m.index(1)] = c
        return LinearForm.from_numerators(nums, poly.den)


def describe(tok: Token) -> str:
    if tok.kind == "ident":
        return f"identifier {tok.text}"
    if tok.kind in ("int", "rat"):
        return f"literal {tok.text}"
    if tok.kind == "end of input":
        return "end of input"
    return f"{tok.text!r}"


def parse(tokens: Sequence[Token]) -> Script:
    return _Parser(tokens).parse_script()


def parse_text(text: str) -> Script:
    return parse(tokenize(text))


# ---------------------------------------------------------------------------
# pretty-printing; parse(pretty_print(s)) is structurally s again


def format_polynomial(poly: Polynomial, variables: Sequence[str]) -> str:
    if poly.is_zero:
        return "0"
    terms = poly.terms
    pieces: list[str] = []
    for m in sorted(terms, key=DegRevLex(poly.nvars).key):
        c = terms[m]
        factors = []
        for k, e in enumerate(m):
            if e == 1:
                factors.append(variables[k])
            elif e > 1:
                factors.append(f"{variables[k]}^{e}")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces)


def format_form(form: LinearForm, variables: Sequence[str]) -> str:
    return format_polynomial(form.to_polynomial(), variables)


def command_keyword(cmd: Statement) -> str:
    """The keyword of a command: the key of its class in COMMANDS."""
    return _KEYWORD_OF[type(cmd)]


def format_command(cmd: Statement) -> str:
    """A command as written in a script, without its ';'."""
    words = [command_keyword(cmd)]
    for field in fields(cmd):
        value = getattr(cmd, field.name)
        words.append(f"i={value}" if field.name == "index" else str(value))
    return " ".join(words)


def pretty_print(script: Script) -> str:
    variables = script.variables
    lines: list[str] = []
    for s in script.statements:
        if isinstance(s, RingDecl):
            lines.append(f"ring {' '.join(s.variables)};")
        elif isinstance(s, IdealDecl):
            gens = ", ".join(format_polynomial(g, variables) for g in s.generators)
            lines.append(f"ideal {s.name} = {gens};")
        elif isinstance(s, ModuleDecl):
            tail = f" shift {s.shift}" if s.shift else ""
            lines.append(f"module {s.name} = R/{s.ideal_name}{tail};")
        elif isinstance(s, FormsDecl):
            members = ", ".join(format_form(f, variables) for f in s.forms)
            lines.append(f"forms {s.name} = {members};")
        elif type(s) in _KEYWORD_OF:
            lines.append(f"{format_command(s)};")
        else:
            raise TypeError(f"unknown statement {s!r}")
    return "\n".join(lines) + "\n"
