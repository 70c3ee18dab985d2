import string
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbcalc.dsl import (
    COMMANDS,
    KEYWORDS,
    OPERATORS,
    DslError,
    FormsDecl,
    IdealDecl,
    LexError,
    ModuleDecl,
    ParseError,
    RingDecl,
    Script,
    SemanticError,
    Token,
    VerifyCmd,
    format_polynomial,
    parse_text,
    pretty_print,
    tokenize,
)
from hilbcalc.polyring import LinearForm, Polynomial
from hilbcalc.series import MAX_SHIFT

FIXTURE = (
    "ring x1 x2 y1; ideal I = x1*y1, x2*y1; module M = R/I; "
    "forms F = y1 - x1; verify M F i=1;"
)


def reference_tokenize(text: str) -> list[Token]:
    """The character-by-character lexer that tokenize replaced, kept as the
    reference its one-pattern scan must agree with."""
    tokens: list[Token] = []
    line = 1
    col = 1
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            pos += 1
            col += 1
            continue
        if ch == "#":
            while pos < n and text[pos] != "\n":
                pos += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            end = pos
            while end < n and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[pos:end]
            kind = word if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, start_col))
            col += end - pos
            pos = end
            continue
        if ch.isdecimal():
            end = pos
            while end < n and text[end].isdecimal():
                end += 1
            if end < n and text[end] == "/" and end + 1 < n and text[end + 1].isdecimal():
                end += 1
                while end < n and text[end].isdecimal():
                    end += 1
                tokens.append(Token("rat", text[pos:end], line, start_col))
            else:
                tokens.append(Token("int", text[pos:end], line, start_col))
            col += end - pos
            pos = end
            continue
        if ch in OPERATORS:
            tokens.append(Token(ch, ch, line, start_col))
            pos += 1
            col += 1
            continue
        raise LexError(f"illegal character {ch!r}", line, col)
    return tokens


def _lexed(lexer, text):
    try:
        return lexer(text)
    except LexError as exc:
        return ("LexError", exc.message, exc.line, exc.column)


# ASCII word characters, every operator, comment and blank characters, and
# non-ASCII ones from each class the identifier rules tell apart: a digit
# that is not decimal (²), a numeric character (½), a decimal digit (٣), a
# lowercase letter (é) and a titlecase letter (ǅ).
LEXER_ALPHABET = sorted(
    set(string.ascii_letters + string.digits + "_#\n\t\r\x0b ²½٣éǅ") | OPERATORS
)


class TestTokenizer:
    @given(st.text(alphabet=LEXER_ALPHABET, max_size=60))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_reference_lexer(self, text):
        assert _lexed(tokenize, text) == _lexed(reference_tokenize, text)

    @pytest.mark.parametrize(
        "text", ["", "  \n\t", "x  ", "# a comment", "x # c\n  y²1", "1/2/3", "4/x"]
    )
    def test_matches_the_reference_lexer_at_the_edges(self, text):
        assert _lexed(tokenize, text) == _lexed(reference_tokenize, text)

    def test_tokens_are_named_tuples(self):
        tok = tokenize("ring x;")[1]
        assert tok == Token("ident", "x", 1, 6)
        assert tuple(tok) == ("ident", "x", 1, 6)

    def test_ideal_statement(self):
        kinds = [t.kind for t in tokenize("ideal I = x1*y1, x2*y1;")]
        assert kinds == [
            "ideal", "ident", "=", "ident", "*", "ident",
            ",", "ident", "*", "ident", ";",
        ]

    def test_minus_operator(self):
        kinds = [t.kind for t in tokenize("forms F = y1 - x1;")]
        assert "-" in kinds

    def test_rational_literal(self):
        toks = tokenize("1/2*x1^2")
        assert [t.kind for t in toks] == ["rat", "*", "ident", "^", "int"]
        assert toks[0].text == "1/2"

    def test_slash_outside_rational_is_an_operator(self):
        kinds = [t.kind for t in tokenize("R/I")]
        assert kinds == ["ident", "/", "ident"]

    def test_positions(self):
        toks = tokenize("ring x;\nideal I = x;")
        assert (toks[0].line, toks[0].column) == (1, 1)
        ideal = next(t for t in toks if t.kind == "ideal")
        assert (ideal.line, ideal.column) == (2, 1)

    def test_comments_are_skipped(self):
        toks = tokenize("ring x; # the whole ring\nideal I = x;")
        assert all(t.text != "#" for t in toks)
        assert sum(1 for t in toks if t.kind == "ident") == 3

    def test_lex_error_position(self):
        with pytest.raises(LexError) as exc:
            tokenize("ring x;\n  @")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_keyword_i_is_reserved(self):
        assert tokenize("i")[0].kind == "i"


class TestParser:
    def test_fixture_golden_tree(self):
        s = parse_text(FIXTURE)
        assert len(s.statements) == 5
        ring, ideal, module, forms, verify = s.statements
        assert ring == RingDecl(("x1", "x2", "y1"))
        xy1 = Polynomial.from_monomial(3, (1, 0, 1))
        xy2 = Polynomial.from_monomial(3, (0, 1, 1))
        assert ideal == IdealDecl("I", (xy1, xy2))
        assert module == ModuleDecl("M", "I", 0)
        assert forms == FormsDecl(
            "F", (LinearForm((Fraction(-1), Fraction(0), Fraction(1))),)
        )
        assert verify == VerifyCmd("M", "F", 1)

    def test_undeclared_ideal_names_the_culprit(self):
        with pytest.raises(SemanticError, match="J"):
            parse_text("ring x; module M = R/J;")

    def test_nonlinear_form(self):
        with pytest.raises(SemanticError, match="degree exactly 1"):
            parse_text("ring x; forms F = x^2;")

    def test_inhomogeneous_with_degree_annotation(self):
        with pytest.raises(SemanticError, match=r"\[1, 3\]"):
            parse_text("ring x y; ideal I = x + x^2*y;")

    def test_zero_denominator_is_semantic_error(self):
        with pytest.raises(SemanticError, match="zero denominator") as exc:
            parse_text("ring x y;\nideal I = x^2 + 3/0*x*y;")
        assert (exc.value.line, exc.value.column) == (2, 17)
        assert str(exc.value).startswith("2:17: ")

    @pytest.mark.parametrize(
        "statement, literal",
        [
            ("ideal I = {n}*x;", "{n}"),
            ("ideal I = x^{n};", "{n}"),
            ("ideal I = 1/{n}*x;", "1/{n}"),
            ("ideal I = {n}/2*x;", "{n}"),
            ("ideal I = x; module M = R/I shift {n};", "{n}"),
            ("ideal I = x; module M = R/I; oracle M {n};", "{n}"),
            ("ideal I = x; module M = R/I; forms F = x; verify M F i={n};", "{n}"),
        ],
    )
    def test_literal_past_the_digit_limit_is_a_language_error(
        self, statement, literal
    ):
        # was an internal ValueError; now an error at the literal
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(SemanticError, match=f"has {digits} digits") as exc:
            parse_text("ring x;\n" + statement.format(n="7" * digits))
        assert (exc.value.line, exc.value.column) == (2, statement.index(literal) + 1)

    def test_two_rings_rejected(self):
        with pytest.raises(SemanticError, match="exactly one ring"):
            parse_text("ring x; ring y; ideal I = x;")

    def test_no_ring_rejected(self):
        with pytest.raises(SemanticError):
            parse_text("ideal I = x;")

    def test_redeclaration(self):
        with pytest.raises(SemanticError, match="already declared"):
            parse_text("ring x; ideal I = x; ideal I = x^2;")

    def test_wrong_kind_reference(self):
        with pytest.raises(SemanticError, match="names ideal"):
            parse_text("ring x; ideal I = x; series I;")

    def test_variable_R_reserved(self):
        with pytest.raises(SemanticError, match="ambient ring"):
            parse_text("ring R x; ideal I = x;")

    def test_module_shift(self):
        s = parse_text("ring x; ideal I = x; module M = R/I shift 2; series M;")
        assert s.modules()["M"].shift == 2

    def test_shift_bound(self):
        s = parse_text(f"ring x; ideal I = x; module M = R/I shift {MAX_SHIFT};")
        assert s.modules()["M"].shift == MAX_SHIFT
        with pytest.raises(SemanticError, match=f"shift {MAX_SHIFT + 1} is above") as exc:
            parse_text(f"ring x; ideal I = x;\nmodule M = R/I shift {MAX_SHIFT + 1};")
        assert (exc.value.line, exc.value.column) == (2, 22)

    def test_exponent_bound(self):
        s = parse_text(f"ring x y; ideal I = x^{MAX_SHIFT}*y;")
        assert s.ideals()["I"].generators[0].nums == {(MAX_SHIFT, 1): 1}
        with pytest.raises(SemanticError, match=f"exponent {MAX_SHIFT + 1} is above") as exc:
            parse_text(f"ring x y;\nideal I = y*x^{MAX_SHIFT + 1};")
        assert (exc.value.line, exc.value.column) == (2, 15)

    def test_exponent_bound_per_variable_and_term(self):
        # each literal is in range, but x reaches 2 * MAX_SHIFT in one term
        half = MAX_SHIFT // 2 + 1
        s = parse_text(f"ring x y; ideal I = x^{MAX_SHIFT - 1}*y*x, x^{half}*y^{half};")
        assert s.ideals()["I"].generators[0].nums == {(MAX_SHIFT, 1): 1}
        message = f"exponent of x reaches {2 * half} in one term"
        with pytest.raises(SemanticError, match=message) as exc:
            parse_text(f"ring x y;\nideal I = x^{half}*y*x^{half}, y^2;")
        assert (exc.value.line, exc.value.column) == (2, 22)
        # the bound is per term: separate terms reach it each on their own
        s = parse_text(f"ring x y; ideal I = x^{MAX_SHIFT}*y + x*y^{MAX_SHIFT};")
        assert s.ideals()["I"].generators[0].degree() == MAX_SHIFT + 1

    def test_rational_coefficients(self):
        s = parse_text("ring x y; ideal I = 1/2*x^2 + y^2;")
        gen = s.ideals()["I"].generators[0]
        assert gen.terms[(2, 0)] == Fraction(1, 2)
        assert gen.terms[(0, 2)] == Fraction(1)

    def test_juxtaposition_multiplies(self):
        s = parse_text("ring x y; ideal I = x y, 2x^2;")
        gens = s.ideals()["I"].generators
        assert gens[0] == Polynomial.from_monomial(2, (1, 1))
        assert gens[1] == Polynomial(2, {(2, 0): 2})

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("+-"),
                st.sampled_from(["", "1", "3", "2/4", "7/3", "0"]),
                st.sampled_from([(2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 2)]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_literal_is_the_sum_of_its_terms(self, terms):
        """One pass over the terms gives the Polynomial sum of the terms,
        down to the order of its numerators."""
        pieces, expected = [], Polynomial(3)
        for sign, coeff, m in terms:
            factors = [f"{v}^{e}" for v, e in zip("xyz", m) if e]
            pieces.append(f"{sign} {'*'.join(([coeff] if coeff else []) + factors)}")
            term = Polynomial(3, {m: Fraction(coeff or 1)})
            expected = expected + term if sign == "+" else expected - term
        try:
            s = parse_text(f"ring x y z; ideal I = {' '.join(pieces)};")
        except SemanticError as exc:
            assert expected.is_zero and "cancels to zero" in str(exc)
            return
        (gen,) = s.ideals()["I"].generators
        assert list(gen.nums.items()) == list(expected.nums.items())
        assert gen.den == expected.den

    def test_only_decimal_digits_make_numbers(self):
        # a superscript two is a digit to str.isdigit but no integer literal
        with pytest.raises(LexError, match="illegal character"):
            parse_text("ring x; ideal I = ²*x;")
        s = parse_text("ring x; ideal I = ٣*x;")
        assert s.ideals()["I"].generators[0] == Polynomial(1, {(1,): 3})

    def test_cancelling_generator_is_dropped(self):
        s = parse_text("ring x y; ideal I = x - x, y;")
        assert len(s.ideals()["I"].generators) == 1

    def test_fully_cancelling_ideal_is_rejected(self):
        # there is no literal for the zero ideal, so accepting this would
        # break the print/parse round trip
        with pytest.raises(SemanticError, match="cancels to zero") as exc:
            parse_text("ring x y;\nideal I = x - x, 0*y;")
        # placed at the first generator, which a one-shot --ideal can name
        assert (exc.value.line, exc.value.column) == (2, 11)

    def test_parse_error_carries_expectations(self):
        with pytest.raises(ParseError) as exc:
            parse_text("ring x; ideal I = ;")
        assert exc.value.expected
        assert exc.value.line == 1

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_text("ring x")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_text("   # nothing here\n")


class TestPrettyPrinter:
    ROUND_TRIPPERS = [
        FIXTURE,
        "ring x; ideal I = x^2; module M = R/I shift 3; series M; coeffs M;",
        "ring x y z; ideal I = 1/2*x*y + z^2, x^3; module M = R/I; "
        "depth M; oracle M 12;",
        "ring a b; ideal I = a*b; module M = R/I; forms F = a + b, a - b; "
        "superficial M F; admissible M F; verify M F i=0;",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPPERS)
    def test_round_trip(self, text):
        first = parse_text(text)
        printed = pretty_print(first)
        assert parse_text(printed) == first
        # printing is a fixed point once canonical
        assert pretty_print(parse_text(printed)) == printed

    def test_polynomial_formatting(self):
        s = parse_text("ring x y; ideal I = x^2 - 2*x*y + 1/3*y^2;")
        gen = s.ideals()["I"].generators[0]
        assert format_polynomial(gen, ("x", "y")) == "x^2 - 2*x*y + 1/3*y^2"


# Pinned per command: its canonical line, and the full error text when
# the script stops right after its keyword and right after its module
# name.
GRAMMAR_PREFIX = "ring x y;\nideal I = x*y;\nmodule M = R/I;\nforms F = x - y;\n"
GRAMMAR_GOLDEN = {
    "series": (
        "series M;",
        "5:7: unexpected end of input (expected a module name)",
        "5:9: unexpected end of input (expected ;)",
    ),
    "coeffs": (
        "coeffs M;",
        "5:7: unexpected end of input (expected a module name)",
        "5:9: unexpected end of input (expected ;)",
    ),
    "depth": (
        "depth M;",
        "5:6: unexpected end of input (expected a module name)",
        "5:8: unexpected end of input (expected ;)",
    ),
    "superficial": (
        "superficial M F;",
        "5:12: unexpected end of input (expected a module name)",
        "5:14: unexpected end of input (expected a forms name)",
    ),
    "admissible": (
        "admissible M F;",
        "5:11: unexpected end of input (expected a module name)",
        "5:13: unexpected end of input (expected a forms name)",
    ),
    "verify": (
        "verify M F i=1;",
        "5:7: unexpected end of input (expected a module name)",
        "5:9: unexpected end of input (expected a forms name)",
    ),
    "oracle": (
        "oracle M 7;",
        "5:7: unexpected end of input (expected a module name)",
        "5:9: unexpected end of input (expected an integer)",
    ),
}


class TestCommandGrammar:
    def test_golden_covers_the_table(self):
        assert set(GRAMMAR_GOLDEN) == set(COMMANDS)

    @pytest.mark.parametrize("keyword", sorted(GRAMMAR_GOLDEN))
    def test_printed_line(self, keyword):
        line = GRAMMAR_GOLDEN[keyword][0]
        script = parse_text(GRAMMAR_PREFIX + line)
        assert isinstance(list(script.commands())[0], COMMANDS[keyword])
        assert pretty_print(script).splitlines()[-1] == line

    @pytest.mark.parametrize("keyword", sorted(GRAMMAR_GOLDEN))
    def test_error_after_keyword(self, keyword):
        with pytest.raises(ParseError) as exc:
            parse_text(GRAMMAR_PREFIX + keyword)
        assert str(exc.value) == GRAMMAR_GOLDEN[keyword][1]

    @pytest.mark.parametrize("keyword", sorted(GRAMMAR_GOLDEN))
    def test_error_after_module(self, keyword):
        with pytest.raises(ParseError) as exc:
            parse_text(GRAMMAR_PREFIX + keyword + " M")
        assert str(exc.value) == GRAMMAR_GOLDEN[keyword][2]


TOKEN_POOL = [
    "ring", "ideal", "module", "forms", "shift", "series", "coeffs",
    "depth", "superficial", "admissible", "verify", "oracle", "i",
    "x", "y", "I", "M", "F", "R", "0", "1", "2", "1/2",
    "+", "-", "*", "^", "=", ",", "(", ")", ";", "/",
]


class TestFuzz:
    @given(st.lists(st.sampled_from(TOKEN_POOL), max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_random_token_streams_never_crash(self, pieces):
        text = " ".join(pieces)
        try:
            result = parse_text(text)
        except DslError:
            return
        assert isinstance(result, Script)

    @given(st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_random_text_never_crashes(self, text):
        try:
            parse_text(text)
        except DslError:
            pass
