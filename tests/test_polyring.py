"""Polynomial arithmetic, Groebner bases, and the ideal operations."""

import ast
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clear_memos
from test_oracle import monomials_of_degree
from hilbcalc import polyring, presentation
from hilbcalc.monomial import monomial_divides
from hilbcalc.oracle import graded_dimension
from hilbcalc.polyring import (
    DegRevLex,
    EliminationOrder,
    EmptySpan,
    LinearForm,
    Monomial,
    Order,
    PolyIdeal,
    Polynomial,
    RingMismatch,
    buchberger,
    colon,
    eliminate_form,
    form_combination,
    forms_independent,
    initial_ideal,
    minimalize_exponents,
    monomial_mul,
    normal_form,
    quotient_by_linear,
)
from hilbcalc.presentation import CyclicModule, module_table, series_of_cyclic
from hilbcalc.superficial import (
    QuotientChain,
    _combination_stream,
    depth,
    find_superficial_sequence,
    superficial_chain,
)


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of x^a / x^b, for b dividing a."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomials_coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def P(nvars, *terms):
    """Shorthand: P(3, (1, (1,0,2)), (-2, (0,1,0))) builds a polynomial."""
    return Polynomial(nvars, {m: Fraction(c) for c, m in terms})


def var(nvars, i):
    return Polynomial.variable(nvars, i)


def leading(p: Polynomial, order: Order) -> tuple[Monomial, Fraction]:
    """(leading monomial, its coefficient as in `terms`): the smallest key
    leads."""
    m = min(p.nums, key=order.key)
    return m, Fraction(p.nums[m], p.den)


def monic(p: Polynomial, order: Order) -> Polynomial:
    return p * (1 / leading(p, order)[1])


def reference_normal_form(
    f: Polynomial, basis: Sequence[Polynomial], order: Optional[Order] = None
) -> Polynomial:
    """Plain Fraction long division, kept as the reference for the
    fraction-free kernel.  This is the earlier normal_form body; its one
    change is min() in place of max() for the smallest-key-leads orders."""
    order = order or DegRevLex(f.nvars)
    divisors = []
    for g in basis:
        if g.is_zero:
            continue
        if g.nvars != f.nvars:
            raise RingMismatch("division across different rings")
        lm, lc = leading(g, order)
        divisors.append((lm, lc, g.terms))
    work = dict(f.terms)
    remainder: dict[Monomial, Fraction] = {}
    key = order.key
    while work:
        m = min(work, key=key)
        c = work[m]
        hit = None
        for lm, lc, terms in divisors:
            if monomial_divides(lm, m):
                hit = (lm, lc, terms)
                break
        if hit is None:
            del work[m]
            remainder[m] = c
            continue
        lm, lc, terms = hit
        shift_exp = monomial_div(m, lm)
        factor = c / lc
        for mg, cg in terms.items():
            mm = monomial_mul(mg, shift_exp)
            v = work.get(mm, 0) - factor * cg
            if v:
                work[mm] = v
            else:
                work.pop(mm, None)
    return Polynomial(f.nvars, remainder)


def reference_map_polynomial(elim, p: Polynomial) -> Polynomial:
    """Polynomial products of the Fraction replacement, kept as the
    reference for the integer substitution.  This is the earlier
    map_polynomial body, with the replacement polynomial built inline."""
    if p.nvars != elim.nvars:
        raise RingMismatch("polynomial is not in the eliminated ring")
    n = elim.nvars - 1
    terms = {}
    for i, c in enumerate(Fraction(v, elim.den) for v in elim.rep):
        if c != 0:
            exp = [0] * n
            exp[i] = 1
            terms[tuple(exp)] = c
    rep = Polynomial(n, terms)
    powers: dict[int, Polynomial] = {0: Polynomial.one(n)}
    result = Polynomial(n)
    for m, c in p.terms.items():
        e = m[elim.pivot]
        base = m[: elim.pivot] + m[elim.pivot + 1 :]
        if e not in powers:
            prev = powers[max(powers)]
            for k in range(max(powers) + 1, e + 1):
                prev = prev * rep
                powers[k] = prev
        result = result + powers[e].term_mul(c, base)
    return result


def reference_forms_independent(forms: Sequence[LinearForm]) -> bool:
    """Gauss-Jordan over Fraction, kept as the reference for the
    IntEchelon test.  This is the earlier forms_independent body."""
    if not forms:
        return True
    n = forms[0].nvars
    rows = [list(f.coefficients) for f in forms]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        head = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / head
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == len(forms)


def reference_spoly(f: Polynomial, g: Polynomial, order: Order) -> Polynomial:
    """x^u f / lc(f) - x^v g / lc(g): with a, b the leading numerators of
    f and g, the integer polynomial b x^u f.nums - a x^v g.nums over a b.
    This is the S-polynomial the tuple Buchberger kernel reduced."""
    lmf, lmg = leading(f, order)[0], leading(g, order)[0]
    top = monomial_lcm(lmf, lmg)
    a, b = f.nums[lmf], g.nums[lmg]
    diff = f.term_mul(b * f.den, monomial_div(top, lmf)) - g.term_mul(
        a * g.den, monomial_div(top, lmg)
    )
    return polyring._lowest(f.nvars, diff.nums, a * b)


def reference_reduced_basis(
    gens: Sequence[Polynomial], order: Order
) -> tuple[Polynomial, ...]:
    """Plain Buchberger with the coprime and chain criteria, all generators
    at once, kept as the reference for the incremental loop.  This is the
    earlier _reduced_basis body; it divides by Fraction long division,
    looked up by name so that a test can count its reductions."""
    G: list[Polynomial] = []
    for g in gens:
        if not g.is_zero:
            G.append(monic(g, order))
    if not G:
        return ()

    lms = [leading(g, order)[0] for g in G]
    pairs: set[tuple[int, int]] = set()
    done: set[tuple[int, int]] = set()

    def push_pairs(j: int) -> None:
        for i in range(j):
            pairs.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    def pair_priority(p):
        m = monomial_lcm(lms[p[0]], lms[p[1]])
        return (-sum(m), order.key(m), -p[0], -p[1])

    while pairs:
        i, j = max(pairs, key=pair_priority)
        pairs.discard((i, j))
        done.add((i, j))
        if monomials_coprime(lms[i], lms[j]):
            continue
        pair_lcm = monomial_lcm(lms[i], lms[j])
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if monomial_divides(lms[k], pair_lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        r = reference_normal_form(reference_spoly(G[i], G[j], order), G, order)
        if r.is_zero:
            continue
        G.append(monic(r, order))
        lms.append(leading(G[-1], order)[0])
        push_pairs(len(G) - 1)

    keep: list[int] = []
    for i in sorted(range(len(G)), key=lambda i: order.key(lms[i]), reverse=True):
        if not any(monomial_divides(lms[k], lms[i]) for k in keep):
            keep.append(i)
    minimal = [G[i] for i in keep]
    reduced = []
    for i, g in enumerate(minimal):
        others = [h for j, h in enumerate(minimal) if j != i]
        r = reference_normal_form(g, others, order)
        reduced.append(monic(r, order))
    reduced.sort(key=lambda g: order.key(leading(g, order)[0]))
    return tuple(reduced)


def reference_buchberger(I: PolyIdeal, order: Order) -> tuple[Polynomial, ...]:
    """buchberger with the reference loop."""
    return reference_reduced_basis(I.generators, order)


small_exponents = st.tuples(
    st.integers(0, 3), st.integers(0, 3)
)


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        m = draw(small_exponents)
        c = draw(st.integers(-4, 4))
        if c:
            terms[m] = Fraction(c)
    return Polynomial(2, terms)


class TestMonomialHelpers:
    def test_mul_div_lcm(self):
        # products on tuples; lcm, colon and degree on packed monomials
        a, b = (2, 0, 1), (1, 1, 0)
        assert monomial_mul(a, b) == (3, 1, 1)
        assert monomial_divides(b, monomial_mul(a, b))
        k = polyring.RationalKernel(DegRevLex(3), [Polynomial.from_monomial(3, (3, 1, 1))])
        ka, kb, kab = k._pack(a), k._pack(b), k._pack((3, 1, 1))
        assert k._unpack(k.lcm(ka, kb)) == monomial_lcm(a, b) == (2, 1, 1)
        assert k.colon(kab, kb) == monomial_div((3, 1, 1), b) == a
        assert k.divides(kb, kab) and not k.divides(kab, kb)
        assert k.degree(kab) == 5

    def test_minimalize_drops_multiples(self):
        exps = [(2, 0), (1, 0), (0, 3), (1, 2)]
        assert minimalize_exponents(exps) == frozenset({(1, 0), (0, 3)})


class TestOrders:
    # keys sort from the top of the order down: the larger monomial has
    # the smaller key
    def test_degrevlex_examples(self):
        order = DegRevLex(2)
        # x1^2 beats x1 x2, which beats x2^2
        assert order.key((2, 0)) < order.key((1, 1)) < order.key((0, 2))

    def test_elimination_blocks(self):
        # auxiliary w is variable 0; w*x1 beats x1^3 despite lower degree
        order = EliminationOrder(2)
        assert order.key((1, 1)) < order.key((0, 3))

    @given(st.lists(small_exponents, min_size=2, max_size=2))
    def test_degrevlex_total(self, ms):
        # distinct monomials get distinct keys, so no two tie
        a, b = ms
        order = DegRevLex(2)
        assert (order.key(a) == order.key(b)) == (a == b)


class TestPolynomialArithmetic:
    def test_canonical_collapse(self):
        p = P(2, (1, (1, 0))) + P(2, (-1, (1, 0)))
        assert p.is_zero
        assert Polynomial(2, {(1, 0): Fraction(0)}).is_zero

    def test_exponents_are_natural_ints(self):
        # x^-1 y^2 used to pass as a form of degree 1, and PolyIdeal gave
        # it the series numerator 1 - t
        with pytest.raises(ValueError):
            Polynomial(2, {(-1, 2): 1})
        for bad in ((1.5, 0.5), (1.0, 0), (Fraction(1), 0)):
            with pytest.raises(TypeError):
                Polynomial(2, {bad: 1})
        assert Polynomial(2, {(0, 3): 2}).homogeneous_degree() == 3

    def test_homogeneous_degree(self):
        assert P(2, (1, (2, 0)), (3, (1, 1))).homogeneous_degree() == 2
        assert P(2, (1, (2, 0)), (3, (0, 1))).homogeneous_degree() is None
        assert Polynomial(2).is_homogeneous

    def test_leading_degrevlex(self):
        # the leading monomial has the smallest key, and the reduced basis
        # of a principal ideal is its generator made monic
        p = P(2, (2, (2, 0)), (5, (1, 1)))
        assert min(p.nums, key=DegRevLex(2).key) == (2, 0)
        assert buchberger(PolyIdeal(2, [p])) == (p * Fraction(1, 2),)

    @settings(max_examples=60)
    @given(small_polys(), small_polys(), small_polys())
    def test_ring_axioms(self, f, g, h):
        assert (f + g) - g == f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f

    def test_scalar_mul(self):
        p = var(2, 0) + var(2, 1)
        assert 2 * p == p + p
        assert p * Fraction(1, 2) + p * Fraction(1, 2) == p


class TestNormalForm:
    def test_monomial_reductions(self):
        order = DegRevLex(2)
        x1 = var(2, 0)
        assert normal_form(x1 * x1, [x1], order).is_zero
        x2 = var(2, 1)
        assert normal_form(x2, [x1], order) == x2

    def test_mixed_terms_reduce_to_zero(self):
        # both terms of x1 y1 + x2 y1 are multiples of the generators
        I = PolyIdeal(3, [P(3, (1, (1, 0, 1))), P(3, (1, (0, 1, 1)))])
        G = buchberger(I)
        f = P(3, (1, (1, 0, 1)), (1, (0, 1, 1)))
        assert normal_form(f, G).is_zero

    def test_remainder_irreducible_and_idempotent(self):
        order = DegRevLex(3)
        I = PolyIdeal(
            3, [P(3, (1, (2, 0, 0)), (-1, (0, 1, 1))), P(3, (1, (1, 1, 0)))]
        )
        G = buchberger(I, order)
        f = P(3, (1, (3, 0, 0)), (1, (0, 2, 1)))
        r = normal_form(f, G, order)
        assert normal_form(r, G, order) == r
        assert normal_form(f - r, G, order).is_zero


# leading coefficients the kernel must scale through: negative, rational,
# and large enough that a float or a dropped factor would show
AWKWARD_COEFFS = (
    Fraction(-1),
    Fraction(-3),
    Fraction(2, 3),
    Fraction(-7, 5),
    Fraction(10**15),
    Fraction(-(10**15)),
    Fraction(1, 10**15),
)

ORDERS = (
    DegRevLex(3),
    EliminationOrder(3),
)

coefficients = st.one_of(
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from(AWKWARD_COEFFS),
)


@st.composite
def polys3(draw, max_terms=5, degree=None):
    """Up to max_terms terms with exponents up to 3, or, given a degree, a
    form of that degree."""
    if degree is None:
        exponents = st.tuples(*[st.integers(0, 3)] * 3)
    else:
        exponents = st.sampled_from(
            [m for m in itertools.product(range(degree + 1), repeat=3) if sum(m) == degree]
        )
    return Polynomial(3, draw(st.dictionaries(exponents, coefficients, max_size=max_terms)))


@st.composite
def division_problems(draw):
    """(f, basis, order): divisors scaled to an awkward leading coefficient,
    a zero divisor now and then, and f sometimes zero or a divisor.  Half
    the draws are forms, which every order's kernel takes."""
    order = draw(st.sampled_from(ORDERS))
    graded = draw(st.booleans())

    def poly(max_terms=5, degree=None):
        if graded and degree is None:
            degree = draw(st.integers(0, 4))
        return draw(polys3(max_terms, degree if graded else None))

    basis = []
    for _ in range(draw(st.integers(0, 4))):
        p = poly()
        if not p.is_zero and draw(st.booleans()):
            lc = draw(st.sampled_from(AWKWARD_COEFFS))
            p = p * (lc / leading(p, order)[1])
        basis.append(p)
    kind = draw(st.sampled_from(["random", "zero", "divisor", "multiple"]))
    f = poly(max_terms=8)
    if kind == "zero":
        f = Polynomial(3)
    elif kind == "divisor" and basis:
        f = draw(st.sampled_from(basis))
    elif kind == "multiple" and basis:
        f = f * draw(st.sampled_from(basis))
        f = f + poly(degree=f.degree() if f else None)
    return f, basis, order


def packable(polys: Sequence[Polynomial], order: Order) -> bool:
    """Whether the packed kernel takes polys under order: anything under
    degrevlex; under an elimination order, input homogeneous in all
    variables or in the variables other than the eliminated one."""
    if not isinstance(order, EliminationOrder):
        return True
    return all(p.is_homogeneous for p in polys) or all(
        len({sum(m) - m[0] for m in p.nums}) <= 1 for p in polys
    )


class TestDivisionKernel:
    @settings(max_examples=300, deadline=None)
    @given(division_problems())
    def test_agrees_with_fraction_long_division(self, problem):
        f, basis, order = problem
        if packable([f, *basis], order):
            assert normal_form(f, basis, order) == reference_normal_form(f, basis, order)
        else:
            with pytest.raises(ValueError, match="homogeneous"):
                normal_form(f, basis, order)

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.cache_token())
    def test_edge_cases(self, order):
        # the first g, h and f are not homogeneous, which only degrevlex
        # packs; the second are forms, which every order packs
        zero = Polynomial(3)
        for g, h, extra in (
            (
                P(3, (Fraction(-7, 5), (1, 1, 0)), (10**15, (0, 0, 2)), (1, (0, 1, 0))),
                P(3, (-3, (0, 2, 0)), (Fraction(2, 3), (1, 0, 0))),
                (2, 0, 1),
            ),
            (
                P(3, (Fraction(-7, 5), (1, 1, 0)), (10**15, (0, 0, 2)), (1, (0, 1, 1))),
                P(3, (-3, (0, 2, 0)), (Fraction(2, 3), (1, 0, 1))),
                (2, 0, 2),
            ),
        ):
            f = g * h + P(3, (5, extra))
            if not packable([f, g, h], order):
                continue
            assert normal_form(zero, [g, h], order).is_zero
            assert normal_form(f, [], order) == f
            assert normal_form(f, [zero], order) == f
            assert normal_form(g, [g], order).is_zero
            assert normal_form(g * h, [h, g], order).is_zero
            for divisors in ([g], [h, g], [g, zero, h]):
                assert normal_form(f, divisors, order) == reference_normal_form(
                    f, divisors, order
                )

    def test_elimination_order_outside_the_packed_domain_is_refused(self):
        # x^2 + y is homogeneous neither in all variables nor in y, z
        f = P(3, (1, (2, 0, 0)), (1, (0, 1, 0)))
        g = P(3, (1, (1, 0, 0)), (-1, (0, 0, 1)))
        elim = EliminationOrder(3)
        for call in (
            lambda: normal_form(f, [g], elim),
            lambda: normal_form(g, [f], elim),
            lambda: polyring._exact_divide(f * g, g, elim),
        ):
            with pytest.raises(ValueError, match="homogeneous"):
                call()
        # the same input under degrevlex, and input homogeneous only in the
        # non-eliminated variables, which the elimination order takes:
        # x^2 z + y and x z - z are homogeneous in y, z
        assert normal_form(f, [g], DegRevLex(3)) == reference_normal_form(
            f, [g], DegRevLex(3)
        )
        u = P(3, (1, (2, 0, 1)), (1, (0, 1, 0)))
        v = P(3, (1, (1, 0, 1)), (-1, (0, 0, 1)))
        assert normal_form(u, [v], elim) == P(3, (1, (0, 1, 0)), (1, (0, 0, 1)))
        assert normal_form(u, [v], elim) == reference_normal_form(u, [v], elim)

    @settings(max_examples=100, deadline=None)
    @given(polys3(), polys3(), polys3(), st.sampled_from(ORDERS))
    def test_exact_divide_recovers_the_cofactor(self, p, f, q, order):
        if f.is_zero:
            return
        if packable([p * f, f], order):
            assert polyring._exact_divide(p * f, f, order) == p
        g = p * f + q
        if not packable([g, f], order):
            with pytest.raises(ValueError, match="homogeneous"):
                polyring._exact_divide(g, f, order)
        # {f} is a Groebner basis of (f): p f + q is a multiple of f exactly
        # when q leaves no remainder
        elif reference_normal_form(q, [f], order).is_zero:
            assert polyring._exact_divide(g, f, order) * f == g
        else:
            with pytest.raises(ArithmeticError):
                polyring._exact_divide(g, f, order)


@st.composite
def homogeneous_generators(draw):
    """1-3 forms of degree 1-3 in 3 variables, some of them zero."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 3))
        support = [m for m in itertools.product(range(deg + 1), repeat=3) if sum(m) == deg]
        chosen = draw(st.lists(st.sampled_from(support), min_size=1, max_size=4, unique=True))
        gens.append(Polynomial(3, {m: draw(coefficients) for m in chosen}))
    return gens


def small_homogeneous_ideals():
    return homogeneous_generators().map(lambda gens: PolyIdeal(3, gens))


class TestBuchbergerAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(small_homogeneous_ideals(), st.sampled_from(ORDERS))
    def test_same_reduced_basis(self, I, order):
        expected = reference_buchberger(I, order)
        assert buchberger(I, order) == expected

    def test_same_colon(self):
        f1 = P(3, (3, (2, 0, 0)), (-1, (0, 1, 1)), (Fraction(1, 2), (1, 0, 1)))
        f2 = P(3, (-2, (1, 1, 0)), (7, (0, 0, 2)))
        g = P(3, (Fraction(-5, 3), (1, 0, 0)), (2, (0, 0, 1)))
        I = PolyIdeal(3, [f1, f2])
        Q = colon(I, g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyring, "_reduced_basis", reference_reduced_basis)
            assert Q == colon(I, g)
        assert not Q.is_unit and Q != I


def bench_quadrics(nvars: int, count: int, seed: int) -> list[Polynomial]:
    """The benchmark's generic quadrics: every coefficient over the
    degree-2 monomials from randint(-5, 5), all-zero draws redrawn."""
    rng = random.Random(seed)
    gens = []
    while len(gens) < count:
        terms = {}
        for a, b in itertools.combinations_with_replacement(range(nvars), 2):
            c = rng.randint(-5, 5)
            if c:
                m = [0] * nvars
                m[a] += 1
                m[b] += 1
                terms[tuple(m)] = Fraction(c)
        if terms:
            gens.append(Polynomial(nvars, terms))
    return gens


def test_golden_reduced_basis_of_three_quadrics():
    # every coefficient of the reduced basis, not just its leading monomials
    # (the coefficient table sees only those); recorded with Fraction long
    # division, terms listed leading first
    order = DegRevLex(6)
    G = buchberger(PolyIdeal(6, bench_quadrics(6, 3, 0)), order)
    rows = [
        [[list(m), g.terms[m].numerator, g.terms[m].denominator]
         for m in sorted(g.terms, key=order.key)]
        for g in G
    ]
    golden = Path(__file__).parent / "data" / "quadrics_6_vars_basis.json"
    assert json.dumps(rows, separators=(",", ":")) == golden.read_text()


def test_golden_table_of_five_quadrics_without_a_rational_basis(monkeypatch):
    # 5 generic quadrics in 9 variables are a regular sequence, so the
    # modular run certifies the series (1 + t)^5 / (1 - t)^4 on its own
    def refuse(*args, **kwargs):
        raise AssertionError("a complete intersection needs no rational basis")

    monkeypatch.setattr(polyring, "buchberger", refuse)
    monkeypatch.setattr(presentation, "RationalKernel", refuse)
    M = CyclicModule(9, PolyIdeal(9, bench_quadrics(9, 5, 0)))
    assert module_table(M).coeffs == (32, 80, 80, 40, 10, 1)


def test_golden_table_of_eight_quadrics_in_six_variables(monkeypatch):
    # more generators than variables, so only the rational loop runs.  A
    # degree whose Hilbert bound max(0, H(n) - H(n - e)) is 0 is spanned
    # already, so its pairs are skipped instead of reduced to zero.
    reduced = []
    spair = polyring.RationalKernel.spair

    def spy(self, *args):
        r = spair(self, *args)
        reduced.append(r)
        return r

    monkeypatch.setattr(polyring.RationalKernel, "spair", spy)
    M = CyclicModule(6, PolyIdeal(6, bench_quadrics(6, 8, 0)))
    assert module_table(M).coeffs == (28, 56, 37, 8)
    assert reduced and None not in reduced


def _form(draw, deg: int, dense: bool) -> Polynomial:
    """A degree-deg form in 3 variables: every monomial of that degree, or
    one to four of them, with nonzero coefficients."""
    support = [m for m in itertools.product(range(deg + 1), repeat=3) if sum(m) == deg]
    if not dense:
        support = draw(
            st.lists(st.sampled_from(support), min_size=1, max_size=4, unique=True)
        )
    return Polynomial(3, {m: draw(coefficients.filter(bool)) for m in support})


@st.composite
def staged_ideals(draw):
    """Homogeneous ideals shaped for the incremental loop, generators in a
    drawn (not degree-sorted) order: dense forms of mixed degrees (a
    regular sequence, so the Hilbert bound is attained), multiples of one
    common factor (x*f, y*f: the bound is not attained), ideals with a
    redundant generator (a combination of the others, or a rescaled
    copy), and sparse random forms."""
    shape = draw(st.sampled_from(["regular", "common-factor", "redundant", "sparse"]))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    if shape == "regular":
        gens = [_form(draw, d, dense=True) for d in degrees]
    elif shape == "common-factor":
        f = _form(draw, draw(st.integers(1, 2)), dense=draw(st.booleans()))
        gens = [_form(draw, d, dense=False) * f for d in degrees]
    elif shape == "redundant":
        gens = [_form(draw, d, dense=draw(st.booleans())) for d in degrees]
        extra = Polynomial(3)
        for g in gens:
            m = (0, 0, 0) if g.degree() == 3 else draw(
                st.sampled_from(
                    [m for m in itertools.product(range(4), repeat=3)
                     if sum(m) == 3 - g.degree()]
                )
            )
            extra = extra + g.term_mul(draw(coefficients.filter(bool)), m)
        gens.append(extra if not extra.is_zero else gens[0] * Fraction(-3, 2))
    else:
        gens = [_form(draw, d, dense=False) for d in degrees]
    return PolyIdeal(3, draw(st.permutations(gens)))


def _counting_reductions(mp) -> list[bool]:
    """Patch the rational kernel's reduction to record, per call, whether
    the remainder was zero; returns the record."""
    zero: list[bool] = []
    original = polyring.RationalKernel._reduce

    def counted(self, work, G):
        r = original(self, work, G)
        zero.append(r is None)
        return r

    mp.setattr(polyring.RationalKernel, "_reduce", counted)
    return zero


def _counting_division(mp) -> list[bool]:
    """Patch the reference loop's division, reference_normal_form, to
    record, per call, whether the remainder was zero; returns the record."""
    zero: list[bool] = []
    original = reference_normal_form

    def counted(f, basis, order=None):
        r = original(f, basis, order)
        zero.append(r.is_zero)
        return r

    mp.setattr(sys.modules[__name__], "reference_normal_form", counted)
    return zero


class TestIncrementalBuchberger:
    @settings(max_examples=200, deadline=None)
    @given(staged_ideals(), st.sampled_from(ORDERS))
    def test_same_reduced_basis_as_reference(self, I, order):
        assert buchberger(I, order) == reference_buchberger(I, order)

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.cache_token())
    def test_common_factor_and_redundant_generators(self, order):
        x, y, z = (var(3, i) for i in range(3))
        f = x * x - y * z + z * z * Fraction(2, 3)
        for gens in (
            [y * f, x * f],
            [x * f, y * f, z * f, (x + y) * f],
            [x * y - z * z, x * x, (x * y - z * z) * z + x * x * y],
            [x * x * x - y * y * z, x * y, y * y, x + y - z],
        ):
            I = PolyIdeal(3, gens)
            assert buchberger(I, order) == reference_buchberger(I, order)

    @settings(max_examples=40, deadline=None)
    @given(staged_ideals(), st.integers(1, 2), st.data())
    def test_colon_matches_reference(self, I, deg, data):
        # colon's auxiliary ideal in k[w, v, x] is homogeneous, so this runs
        # the loop with the Hilbert bound under the elimination order
        g = _form(data.draw, deg, dense=data.draw(st.booleans()))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyring, "_reduced_basis", reference_reduced_basis)
            expected = colon(I, g)
        assert colon(I, g) == expected

    def test_complete_intersection_has_no_zero_reduction(self):
        # 3 generic quadrics in 6 variables: a regular sequence, whose
        # Koszul syzygies the coprime and chain criteria cannot see; the
        # Hilbert bound skips every one of them
        I = PolyIdeal(6, bench_quadrics(6, 3, 0))
        order = DegRevLex(6)
        with pytest.MonkeyPatch.context() as mp:
            zero = _counting_reductions(mp)
            G = buchberger(I, order)
        assert zero and not any(zero)
        with pytest.MonkeyPatch.context() as mp:
            zero = _counting_division(mp)
            assert reference_buchberger(I, order) == G
        assert any(zero)


class TestBuchberger:
    def test_duplicates_collapse(self):
        x1 = var(2, 0)
        G = buchberger(PolyIdeal(2, [x1, x1]))
        assert G == (x1,)

    def test_monomial_ideal_is_own_basis(self):
        I = PolyIdeal(3, [P(3, (1, (1, 0, 1))), P(3, (1, (0, 1, 1)))])
        G = buchberger(I)
        assert sorted(leading(g, DegRevLex(3))[0] for g in G) == [
            (0, 1, 1),
            (1, 0, 1),
        ]
        assert all(len(g.nums) == 1 for g in G)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=6),
        st.sampled_from(ORDERS),
    )
    def test_monomial_basis_is_the_minimal_generators(self, exps, order):
        # the rational run on a monomial ideal reduces every S-pair to zero
        # and keeps the minimal generators, leading monomial first
        I = PolyIdeal(3, [Polynomial.from_monomial(3, m) for m in exps])
        minimal = sorted(I.monomial_exponents(), key=order.key)
        assert buchberger(I, order) == tuple(Polynomial.from_monomial(3, m) for m in minimal)

    def test_idempotent_and_permutation_stable(self):
        f1 = P(3, (1, (2, 0, 0)), (-1, (0, 1, 1)))
        f2 = P(3, (1, (1, 1, 0)))
        G = buchberger(PolyIdeal(3, [f1, f2]))
        G2 = buchberger(PolyIdeal(3, list(G)))
        Gp = buchberger(PolyIdeal(3, [f2, f1]))
        assert set(G) == set(G2) == set(Gp)
        for gen in (f1, f2):
            assert normal_form(gen, G).is_zero

    def test_against_dimension_counts(self):
        # graded dimensions of R/I from the raw generators (Macaulay matrix
        # ranks) must match those of R/in(I) (monomial counts), degree by
        # degree; this pins the basis without hardcoding it
        f1 = P(3, (1, (2, 0, 0)), (-1, (0, 1, 1)))
        f2 = P(3, (1, (1, 1, 0)))
        I = PolyIdeal(3, [f1, f2])
        J = initial_ideal(I)
        assert J.is_monomial
        M_raw = CyclicModule(3, I)
        M_in = CyclicModule(3, J)
        for n in range(7):
            assert graded_dimension(M_raw, n) == graded_dimension(M_in, n)

    def test_initial_ideal_long_range(self):
        f1 = P(3, (1, (2, 0, 0)), (-1, (0, 1, 1)))
        f2 = P(3, (1, (1, 1, 0)))
        I = PolyIdeal(3, [f1, f2])
        J = initial_ideal(I)
        for n in range(11):
            assert graded_dimension(CyclicModule(3, I), n) == graded_dimension(
                CyclicModule(3, J), n
            )

    def test_initial_of_monomial_is_itself(self):
        I = PolyIdeal(3, [P(3, (1, (1, 0, 1))), P(3, (1, (0, 1, 1)))])
        assert initial_ideal(I) == I

    def test_initial_of_principal(self):
        f = P(2, (1, (2, 0)), (1, (1, 1)))
        J = initial_ideal(PolyIdeal(2, [f]))
        assert J.monomial_exponents() == frozenset({(2, 0)})


class TestColon:
    def test_monomial_example_and_brute_force(self):
        # ring (x1, x2, y1); ((x1 y1, x2 y1) : y1) = (x1, x2)
        I = PolyIdeal(3, [P(3, (1, (1, 0, 1))), P(3, (1, (0, 1, 1)))])
        y1 = P(3, (1, (0, 0, 1)))
        Q = colon(I, y1)
        assert Q == PolyIdeal(3, [var(3, 0), var(3, 1)])
        # brute force: membership of y1*m in I decides membership of m in Q
        gens = I.monomial_exponents()
        G = buchberger(Q)
        for n in range(4):
            for m in monomials_of_degree(3, n):
                in_I = any(
                    monomial_divides(g, monomial_mul(m, (0, 0, 1))) for g in gens
                )
                in_Q = normal_form(
                    Polynomial.from_monomial(3, m), G
                ).is_zero
                assert in_I == in_Q

    def test_monomial_colon_is_minimally_generated(self):
        # ((y z^2, x y z) : x^2) = (y z): the exponent-wise colons y z^2
        # and y z, of which y z^2 is redundant
        I = PolyIdeal(3, [P(3, (1, (0, 1, 2))), P(3, (1, (1, 1, 1)))])
        assert colon(I, P(3, (1, (2, 0, 0)))).generators == (P(3, (1, (0, 1, 1))),)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=5),
                st.tuples(*[st.integers(0, 3)] * d),
            )
        ),
        coefficients.filter(bool),
    )
    def test_monomial_colon_is_the_exponentwise_colon(self, problem, c):
        exps, fm = problem
        d = len(fm)
        I = PolyIdeal(d, [Polynomial.from_monomial(d, m) for m in exps])
        expected = minimalize_exponents(
            tuple(max(a - b, 0) for a, b in zip(m, fm)) for m in I.monomial_exponents()
        )
        # the generators are x^m / c, equal to the x^m up to scalars
        Q = colon(I, Polynomial(d, {fm: c}))
        assert len(Q.generators) == len(expected)
        assert Q == PolyIdeal(d, [Polynomial.from_monomial(d, m) for m in expected])

    @settings(max_examples=40, deadline=None)
    @given(staged_ideals(), st.integers(1, 2), st.data())
    def test_w_free_basis_elements_have_v_degree_one(self, I, deg, data):
        # J meets k[v, x] in v (I cap (f)), so its w-free reduced basis
        # elements are v h_j with h_j free of v
        g = _form(data.draw, deg, dense=data.draw(st.booleans()))
        bases = []
        real = polyring._reduced_basis

        def recorded(*args):
            bases.append(real(*args))
            return bases[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyring, "_reduced_basis", recorded)
            colon(I, g)
        (basis,) = bases
        w_free = [p for p in basis if all(m[0] == 0 for m in p.nums)]
        assert w_free
        assert all(m[1] == 1 for p in w_free for m in p.nums)

    def test_regular_element_fixes_ideal(self):
        I = PolyIdeal(2, [P(2, (1, (2, 0)))])
        assert colon(I, var(2, 1)) == I

    def test_full_ring(self):
        I = PolyIdeal(2, [var(2, 0)])
        assert colon(I, var(2, 0)).is_unit

    def test_contains_original(self):
        f1 = P(3, (1, (2, 0, 0)), (-1, (0, 1, 1)))
        f2 = P(3, (1, (1, 1, 0)))
        I = PolyIdeal(3, [f1, f2])
        g = P(3, (1, (1, 0, 0)), (2, (0, 0, 1)))
        Q = colon(I, g)
        GQ = buchberger(Q)
        for gen in I.generators:
            assert normal_form(gen, GQ).is_zero
        # and f*q lands in I for every generator q of the colon
        GI = buchberger(I)
        for q in Q.generators:
            assert normal_form(g * q, GI).is_zero


class TestQuotientByLinear:
    def test_substitution_example(self):
        # (x1 y1, x2 y1) along y1 - x1 becomes (x1^2, x1 x2)
        I = PolyIdeal(3, [P(3, (1, (1, 0, 1))), P(3, (1, (0, 1, 1)))])
        f = LinearForm((Fraction(-1), Fraction(0), Fraction(1)))
        J = quotient_by_linear(I, f)
        assert J == PolyIdeal(2, [P(2, (1, (2, 0))), P(2, (1, (1, 1)))])

    def test_kill_last_variable(self):
        # mp with p = (x1, x2) in three variables, cut by x3
        d = 3
        gens = []
        for a in range(2):
            for b in range(a, d):
                e = [0] * d
                e[a] += 1
                e[b] += 1
                gens.append(Polynomial.from_monomial(d, tuple(e)))
        I = PolyIdeal(d, gens)
        f = LinearForm((Fraction(0), Fraction(0), Fraction(1)))
        J = quotient_by_linear(I, f)
        expect = PolyIdeal(
            2, [P(2, (1, (2, 0))), P(2, (1, (1, 1))), P(2, (1, (0, 2)))]
        )
        assert J == expect

    def test_zero_ideal(self):
        f = LinearForm((Fraction(0), Fraction(1)))
        J = quotient_by_linear(PolyIdeal(2), f)
        assert J.ring_dim == 1 and J.is_zero

    def test_degrees_preserved(self):
        I = PolyIdeal(3, [P(3, (1, (2, 0, 0)), (1, (0, 1, 1)))])
        f = LinearForm((Fraction(1), Fraction(2), Fraction(1)))
        J = quotient_by_linear(I, f)
        assert [g.homogeneous_degree() for g in J.generators] == [2]


class TestLinearElimination:
    def test_form_maps_to_zero(self):
        f = LinearForm((Fraction(2), Fraction(-1), Fraction(3)))
        elim = eliminate_form(f)
        assert elim.map_polynomial(f.to_polynomial()).is_zero

    def test_old_index_skips_pivot(self):
        f = LinearForm((Fraction(0), Fraction(1), Fraction(0)))
        elim = eliminate_form(f)
        assert elim.pivot == 1
        # the surviving x0 and x2 become x0 and x1
        assert [elim.map_polynomial(var(3, i)) for i in (0, 2)] == [var(2, 0), var(2, 1)]

    def test_map_form_death(self):
        f = LinearForm((Fraction(1), Fraction(0)))
        elim = eliminate_form(f)
        assert elim.map_form(f) is None
        survivor = elim.map_form(LinearForm((Fraction(1), Fraction(1))))
        assert survivor is not None and survivor.coefficients == (Fraction(1),)

    def test_multiplicativity(self):
        f = LinearForm((Fraction(1), Fraction(1), Fraction(1)))
        elim = eliminate_form(f)
        p = P(3, (1, (1, 1, 0)), (2, (0, 0, 2)))
        q = P(3, (1, (1, 0, 1)))
        assert elim.map_polynomial(p * q) == elim.map_polynomial(
            p
        ) * elim.map_polynomial(q)


@st.composite
def substitution_problems(draw):
    """(f, p): a form with an awkward pivot coefficient and a polynomial in
    its ring, sometimes zero, free of the pivot or a pure pivot power."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(Fraction(0)), coefficients)
    cs = draw(st.lists(entry, min_size=n, max_size=n))
    pivot = draw(st.integers(0, n - 1))
    cs[pivot + 1 :] = [Fraction(0)] * (n - pivot - 1)
    cs[pivot] = draw(st.sampled_from(AWKWARD_COEFFS + (Fraction(-1), Fraction(-3, 7))))
    f = LinearForm(tuple(cs))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    p = Polynomial(n, draw(st.dictionaries(exps, coefficients, max_size=6)))
    kind = draw(st.sampled_from(["random", "homogeneous", "pivot-free", "pivot-power", "zero"]))
    if kind == "homogeneous":
        D = draw(st.integers(0, 4))
        support = [m for m in itertools.product(range(D + 1), repeat=n) if sum(m) == D]
        chosen = draw(st.lists(st.sampled_from(support), max_size=6))
        p = Polynomial(n, {m: draw(coefficients) for m in chosen})
    elif kind == "pivot-free":
        p = Polynomial(n, {m[:pivot] + (0,) + m[pivot + 1 :]: c for m, c in p.terms.items()})
    elif kind == "pivot-power":
        m = tuple(draw(st.integers(0, 6)) if i == pivot else 0 for i in range(n))
        p = Polynomial(n, {m: draw(coefficients.filter(bool))})
    elif kind == "zero":
        p = Polynomial(n)
    return f, p


def same_image(elim, p: Polynomial) -> bool:
    """map_polynomial gives the reference's terms, in the same order."""
    image, expected = elim.map_polynomial(p), reference_map_polynomial(elim, p)
    return list(image.terms.items()) == list(expected.terms.items()) and image == expected


class TestIntegerSubstitution:
    @settings(max_examples=300, deadline=None)
    @given(substitution_problems())
    def test_agrees_with_fraction_products(self, problem):
        f, p = problem
        elim = eliminate_form(f)
        assert same_image(elim, p)
        # the integer powers kept on the elimination serve a second call
        assert same_image(elim, p)

    def test_edge_cases(self):
        f = LinearForm((Fraction(2, 3), Fraction(0), Fraction(-7, 5)))
        elim = eliminate_form(f)
        pivot_cubed = P(3, (Fraction(-5, 4), (0, 0, 3)))
        mixed = P(3, (Fraction(1, 6), (1, 1, 1)), (10**15, (0, 2, 1)), (-3, (3, 0, 0)))
        pivot_free = P(3, (Fraction(3, 10**15), (2, 1, 0)))
        for p in (Polynomial(3), pivot_free, pivot_cubed, mixed):
            assert same_image(elim, p)
        # x2 = (10/21) x0 on f = 0
        cubed = Fraction(-5, 4) * Fraction(10, 21) ** 3
        assert elim.map_polynomial(pivot_cubed) == P(2, (cubed, (3, 0)))
        one_var = eliminate_form(LinearForm((Fraction(-3),)))
        assert one_var.map_polynomial(P(1, (2, (4,)))).is_zero
        assert one_var.map_polynomial(P(1, (2, (0,)))) == P(0, (2, ()))

    def test_quotient_keeps_the_canonical_key(self):
        g1 = P(3, (Fraction(3, 2), (2, 0, 0)), (-1, (0, 1, 1)), (Fraction(-7, 5), (0, 0, 2)))
        g2 = P(3, (10**15, (1, 1, 1)), (Fraction(1, 3), (0, 0, 3)), (-2, (2, 1, 0)))
        I = PolyIdeal(3, [g1, g2])
        f = LinearForm((Fraction(1, 2), Fraction(-4), Fraction(-5, 3)))
        elim = eliminate_form(f)
        expected = PolyIdeal(2, [reference_map_polynomial(elim, g) for g in I.generators])
        assert quotient_by_linear(I, f).canonical_key() == expected.canonical_key()
        assert elim.map_ideal(I).canonical_key() == expected.canonical_key()

    def test_map_ideal_rejects_another_ring(self):
        elim = eliminate_form(LinearForm((Fraction(1), Fraction(2))))
        with pytest.raises(RingMismatch):
            elim.map_ideal(PolyIdeal(3, [P(3, (1, (1, 0, 0)))]))


def _fraction_free(fn, *args):
    """fn(*args) with every Fraction construction and operation raising."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a Fraction was built or used")

    operations = (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
        "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__", "__eq__", "__lt__",
        "__le__", "__gt__", "__ge__", "__bool__", "__hash__",
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(forbidden))
        for name in operations:
            mp.setattr(Fraction, name, forbidden)
        return fn(*args)


class TestIntegerRepresentation:
    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), coefficients, max_size=6),
        st.sampled_from(ORDERS),
    )
    def test_one_stored_form_per_value(self, terms, order):
        p = Polynomial(3, terms)
        assert p.den > 0
        assert math.gcd(p.den, *p.nums.values()) == 1
        assert p.terms == {m: c for m, c in terms.items() if c}
        assert Polynomial(3, p.terms) == p
        rebuilt = [p * 3 * Fraction(1, 3), (p + p) * Fraction(1, 2), -(-p)]
        if p:
            rebuilt.append(monic(p, order) * leading(p, order)[1])
        for q in rebuilt:
            assert (q.den, q.nums) == (p.den, p.nums)
            assert q == p and hash(q) == hash(p)

    def test_kernels_build_no_fraction(self):
        g = P(3, (Fraction(-7, 5), (1, 1, 0)), (10**15, (0, 0, 2)), (1, (0, 1, 0)))
        h = P(3, (-3, (0, 2, 0)), (Fraction(2, 3), (1, 0, 0)))
        f = g * h + P(3, (Fraction(5, 6), (2, 0, 1)), (Fraction(-1, 4), (0, 1, 2)))
        assert _fraction_free(normal_form, f, [g, h]) == reference_normal_form(f, [g, h])
        q1 = P(3, (Fraction(-7, 5), (1, 1, 0)), (10**15, (0, 0, 2)), (1, (0, 1, 1)))
        q2 = P(3, (-3, (0, 2, 0)), (Fraction(2, 3), (1, 0, 1)))
        # forms, which every order packs
        fq = q1 * q2 + P(3, (Fraction(5, 6), (2, 0, 2)), (Fraction(-1, 4), (0, 1, 3)))
        for order in ORDERS:
            assert _fraction_free(normal_form, fq, [q1, q2], order) == (
                reference_normal_form(fq, [q1, q2], order)
            )
            assert _fraction_free(polyring._exact_divide, fq * q1, q1, order) == fq
        I = PolyIdeal(3, [q1, q2, P(3, (Fraction(1, 2), (2, 1, 0)), (3, (0, 0, 3)))])
        for order in ORDERS:
            assert _fraction_free(buchberger, I, order) == reference_buchberger(I, order)
        monomial = PolyIdeal(3, [P(3, (Fraction(2, 3), (1, 1, 0))), P(3, (5, (0, 0, 2)))])
        assert _fraction_free(buchberger, monomial) == buchberger(monomial)
        elim = eliminate_form(LinearForm((Fraction(2, 3), Fraction(0), Fraction(-7, 5))))
        image = _fraction_free(elim.map_polynomial, f)
        assert image == reference_map_polynomial(elim, f)


    def test_search_layer_builds_no_fraction(self):
        gens = [
            P(4, (1, (1, 0, 1, 0)), (Fraction(-2, 3), (0, 2, 0, 0))),
            P(4, (Fraction(1, 5), (0, 1, 0, 1))),
            P(4, (3, (1, 0, 0, 1))),
        ]
        M = CyclicModule(4, PolyIdeal(4, gens))
        fs = [
            LinearForm((Fraction(1, 2), 0, -1, 0)),
            LinearForm((0, 3, Fraction(1, 7), Fraction(-2, 5))),
        ]
        calls = [
            (depth, M),
            (find_superficial_sequence, M, fs),
            (superficial_chain, M, fs),
            (form_combination, [Fraction(2, 3), -4], fs),
            (eliminate_form(fs[0]).map_form, fs[1]),
            (forms_independent, fs),
        ]
        for fn, *args in calls:
            clear_memos()
            got = _fraction_free(fn, *args)
            clear_memos()
            assert got == fn(*args)
        chain = QuotientChain((M,)).cut(fs[0])
        pushed = _fraction_free(chain.push, fs[1])
        assert pushed == eliminate_form(fs[0]).map_form(fs[1])
        lifted = _fraction_free(chain.pull, pushed)
        cs = pushed.coefficients
        assert lifted.coefficients == cs[:2] + (0,) + cs[2:]

    def test_only_boundary_modules_import_fractions(self):
        # Fraction is built where input is parsed (dsl), in the views of
        # polyring, and in linalg's FractionEchelon
        importers = set()
        for path in Path(polyring.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if "fractions" in names:
                    importers.add(path.stem)
        assert importers == {"dsl", "linalg", "polyring"}


class TestForms:
    def test_combination_and_independence(self):
        a = LinearForm((Fraction(1), Fraction(0)))
        b = LinearForm((Fraction(0), Fraction(1)))
        c = form_combination([1, 1], [a, b])
        assert c is not None and c.coefficients == (Fraction(1), Fraction(1))
        assert form_combination([0, 0], [a, b]) is None
        assert forms_independent([a, b])
        assert not forms_independent([a, b, c])

    def test_pivot_is_last_nonzero(self):
        f = LinearForm((Fraction(1), Fraction(2), Fraction(0)))
        assert f.pivot() == 1


@st.composite
def form_families(draw):
    """Forms over 1-4 variables with rational and +-10^15 coefficients;
    some families get a repeat or a combination of the earlier members
    appended, so dependent families are common."""
    n = draw(st.integers(1, 4))
    rows = st.lists(coefficients, min_size=n, max_size=n).filter(any)
    forms = [LinearForm(tuple(r)) for r in draw(st.lists(rows, max_size=4))]
    kind = draw(st.sampled_from(["free", "repeat", "combination"]))
    if kind == "repeat" and forms:
        forms.append(draw(st.sampled_from(forms)))
    elif kind == "combination" and forms:
        cs = draw(st.lists(coefficients, min_size=len(forms), max_size=len(forms)))
        combo = form_combination(cs, forms)
        if combo is not None:
            forms.append(combo)
    return draw(st.permutations(forms))


class TestFormsIndependentReference:
    @settings(max_examples=300, deadline=None)
    @given(form_families())
    def test_agrees_with_fraction_gauss_jordan(self, forms):
        assert forms_independent(forms) == reference_forms_independent(forms)

    def test_edge_cases(self):
        big = Fraction(10**15)
        a = LinearForm((big, Fraction(1, 3), Fraction(0)))
        b = LinearForm((Fraction(0), -big, Fraction(2, 7)))
        c = form_combination([Fraction(-7, 5), big], [a, b])
        z = LinearForm((Fraction(0), Fraction(0), Fraction(-1, 10**15)))
        for forms, verdict in (
            ([], True),
            ([a, b], True),
            ([a, b, c], False),
            ([c, b, a], False),
            ([a, a], False),
            ([a, b, z], True),
        ):
            assert forms_independent(forms) is verdict
            assert reference_forms_independent(forms) is verdict


class TestRandomLinearForm:
    # the package draws a form in a span as the span's combination with a
    # coefficient vector from superficial._combination_stream
    def test_span_membership(self):
        span = [
            LinearForm((Fraction(1), Fraction(0), Fraction(1))),
            LinearForm((Fraction(0), Fraction(1), Fraction(0))),
        ]
        stream = _combination_stream(len(span), random.Random(3), 8)
        for coeffs in itertools.islice(stream, 12):
            g = form_combination(coeffs, span)
            assert g is not None
            assert not forms_independent(span + [g])

    def test_empty_span_rejected(self):
        with pytest.raises(EmptySpan):
            form_combination([], [])


def cleared_combination(coeffs, forms: Sequence[LinearForm]) -> Optional[LinearForm]:
    """form_combination with every coefficient vector cleared of
    denominators first, as it was before integer vectors skipped that."""
    cden, cnums = polyring.clear_denominators(dict(enumerate(coeffs)))
    den = math.lcm(*(f.den for f in forms))
    acc = [0] * forms[0].nvars
    for c, f in zip(cnums.values(), forms):
        for i, x in enumerate(f.nums):
            acc[i] += c * (den // f.den) * x
    return LinearForm.from_numerators(acc, cden * den) if any(acc) else None


class TestIntegerCandidates:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32), st.integers(1, 16))
    def test_stream_vectors_build_the_constructor_form(self, k, seed, trials):
        vectors = list(_combination_stream(k, random.Random(seed), trials))
        for c in vectors + [(2, 4), (0, -6, 9), (10, 5, -5)]:
            f = LinearForm.from_numerators(c, 1)
            # a non-primitive vector keeps its integers over den 1
            assert f == LinearForm(c) and (f.nums, f.den) == (tuple(c), 1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-12, 12), min_size=1, max_size=5).filter(any),
        st.integers(-12, 12).filter(bool),
    )
    def test_numerators_over_any_den_build_the_constructor_form(self, nums, den):
        # the gcd-1 case keeps the numerators; a den of -1 still flips signs
        f = LinearForm.from_numerators(nums, den)
        expected = LinearForm([Fraction(v, den) for v in nums])
        assert (f.nums, f.den) == (expected.nums, expected.den)
        assert f.den > 0 and math.gcd(f.den, *f.nums) == 1
        assert type(f.nums) is tuple

    @settings(max_examples=200, deadline=None)
    @given(form_families(), st.data())
    def test_combination_agrees_with_the_cleared_route(self, forms, data):
        if not forms:
            return
        mixed = st.one_of(st.integers(-5, 5), st.integers(-(10**15), 10**15), coefficients)
        cs = data.draw(st.lists(mixed, min_size=len(forms), max_size=len(forms)))
        expected = cleared_combination(cs, forms)
        as_fractions = [Fraction(c) for c in cs]
        as_ints = [int(c) if c.denominator == 1 else c for c in as_fractions]
        for vector in (cs, as_fractions, as_ints):
            assert form_combination(vector, forms) == expected


def generators_up_to_scalars(I: PolyIdeal) -> tuple:
    """Reference for the ideal key: each generator divided by the
    coefficient of its first monomial in sorted order, as a set."""
    normed = set()
    for g in I.generators:
        lead = g.terms[min(g.terms)]
        normed.add(frozenset((m, c / lead) for m, c in g.terms.items()))
    return I.ring_dim, frozenset(normed)


nonzero_scalars = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)


@st.composite
def ideal_pairs(draw):
    """(I, J, scaled): J is I with every generator scaled, shuffled and
    possibly repeated at another scale, or I with one generator
    perturbed by a term of its degree, or an unrelated ideal."""
    I = draw(small_homogeneous_ideals())
    kind = draw(st.sampled_from(["scaled", "perturbed", "unrelated"]))
    gens = list(I.generators)
    if kind == "scaled":
        gens = [g * draw(nonzero_scalars) for g in gens]
        if gens and draw(st.booleans()):
            gens.append(draw(st.sampled_from(gens)) * draw(nonzero_scalars))
        gens = draw(st.permutations(gens))
        return I, PolyIdeal(3, gens), True
    if kind == "perturbed" and gens:
        j = draw(st.integers(0, len(gens) - 1))
        deg = gens[j].homogeneous_degree()
        support = [m for m in itertools.product(range(deg + 1), repeat=3) if sum(m) == deg]
        extra = Polynomial(3, {draw(st.sampled_from(support)): draw(nonzero_scalars)})
        gens[j] = gens[j] + extra
        return I, PolyIdeal(3, gens), False
    return I, draw(small_homogeneous_ideals()), False


class TestScaleInvariantKey:
    @settings(max_examples=200, deadline=None)
    @given(ideal_pairs())
    def test_key_is_equality_up_to_scalars(self, pair):
        I, J, scaled = pair
        same = generators_up_to_scalars(I) == generators_up_to_scalars(J)
        assert same or not scaled
        assert (I.canonical_key() == J.canonical_key()) == same
        assert (I == J) == same and (hash(I) == hash(J) or not same)

    @settings(max_examples=40, deadline=None)
    @given(ideal_pairs().filter(lambda pair: pair[2]))
    def test_scaled_ideals_have_the_same_series(self, pair):
        I, J, _ = pair
        clear_memos()
        S = series_of_cyclic(CyclicModule(3, I))
        clear_memos()
        assert series_of_cyclic(CyclicModule(3, J)) == S

    def test_fixed_cases(self):
        g = P(2, (Fraction(3, 2), (2, 0)), (-3, (1, 1)))
        scaled = PolyIdeal(2, [g * Fraction(-4, 9), P(2, (5, (0, 2)))])
        assert PolyIdeal(2, [P(2, (1, (0, 2))), g]).canonical_key() == scaled.canonical_key()
        # x^2 - 2xy and x^2 + 2xy are not multiples of each other
        flipped = P(2, (Fraction(3, 2), (2, 0)), (3, (1, 1)))
        assert PolyIdeal(2, [g]) != PolyIdeal(2, [flipped])
        # scalar multiples collapse to the normal form of the first: the
        # first sorted term of 3/2 x^2 - 3 x y is x y, so it is 2 x y - x^2
        assert PolyIdeal(2, [g, 2 * g]).generators == (P(2, (2, (1, 1)), (-1, (2, 0))),)
        assert PolyIdeal(2, [g, 2 * g]) == PolyIdeal(2, [g])
        # a constant generator makes the unit ideal, generated by 1
        unit = PolyIdeal(2, [g, P(2, (Fraction(-3, 4), (0, 0)))])
        assert unit.generators == (Polynomial.one(2),)


def reference_ideal(ring_dim: int, gens) -> tuple[tuple[Polynomial, ...], tuple]:
    """(generators, key) of the earlier construction: each nonzero
    generator made primitive by a sort, a content gcd and a second gcd
    pass in lowest terms, kept at its first occurrence, and the unit ideal
    cut down to 1.  Kept as the reference for the one-pass normal form."""
    stored: dict[tuple, Polynomial] = {}
    unit = False
    for g in gens:
        if g.is_zero:
            continue
        unit = unit or g.homogeneous_degree() == 0
        terms = sorted(g.nums.items())
        content = math.gcd(*g.nums.values())
        if terms[0][1] < 0:
            content = -content
        p = Polynomial(ring_dim, {m: c // content for m, c in terms})
        stored.setdefault(tuple(p.nums.items()), p)
    if unit:
        one = (((0,) * ring_dim, 1),)
        stored = {one: stored[one]}
    return tuple(stored.values()), (ring_dim, tuple(sorted(stored)))


@st.composite
def normal_form_inputs(draw):
    """Generators in 3 variables: forms with Fraction coefficients, often a
    negative first term, scalar repeats of earlier ones, zeros, constants
    and monomials."""
    gens: list[Polynomial] = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["form", "repeat", "zero", "constant", "monomial"]))
        if kind == "repeat" and gens:
            gens.append(draw(st.sampled_from(gens)) * draw(nonzero_scalars))
        elif kind == "zero":
            gens.append(Polynomial(3))
        elif kind == "constant":
            gens.append(Polynomial(3, {(0, 0, 0): draw(nonzero_scalars)}))
        elif kind == "monomial":
            m = draw(st.tuples(*[st.integers(0, 2)] * 3).filter(any))
            gens.append(Polynomial(3, {m: draw(nonzero_scalars)}))
        else:
            gens.extend(draw(homogeneous_generators()))
    return gens


class TestIdealNormalForm:
    @settings(max_examples=200, deadline=None)
    @given(homogeneous_generators(), st.data())
    def test_generators_are_stored_once_and_primitive(self, gens, data):
        I = PolyIdeal(3, gens)
        scaled = [g * data.draw(nonzero_scalars) for g in gens]
        assert PolyIdeal(3, scaled).generators == I.generators
        for g in I.generators:
            assert g.den == 1 and math.gcd(*g.nums.values()) == 1
            assert g.nums[min(g.nums)] > 0
        # no two generators are scalar multiples, and scaled repeats of
        # the generators add nothing
        assert len(I.generators) == len(generators_up_to_scalars(I)[1])
        again = PolyIdeal(3, [*gens, *scaled])
        assert again.generators == I.generators
        key = (3, tuple(sorted(tuple(sorted(g.nums.items())) for g in I.generators)))
        assert I.canonical_key() == again.canonical_key() == key
        assert hash(I) == hash(again) == hash(key)

    @settings(max_examples=300, deadline=None)
    @given(normal_form_inputs())
    def test_one_pass_matches_the_primitive_route(self, gens):
        I = PolyIdeal(3, gens)
        generators, key = reference_ideal(3, gens)
        assert I.generators == generators
        assert [list(g.nums.items()) for g in I.generators] == [
            list(g.nums.items()) for g in generators
        ]
        assert all(g.den == 1 for g in I.generators)
        assert I.canonical_key() == key and hash(I) == hash(key)
        assert I.is_monomial == all(len(g.nums) == 1 for g in generators)
        if I.is_monomial:
            exps = I.monomial_exponents()
            assert exps == minimalize_exponents(next(iter(g.nums)) for g in generators)
            assert I.monomial_exponents() is exps
        else:
            with pytest.raises(ValueError):
                I.monomial_exponents()

    def test_fixed_cases_match_the_primitive_route(self):
        x2, xy, y2 = (2, 0, 0), (1, 1, 0), (0, 2, 0)
        cases = [
            [P(3, (Fraction(-3, 4), x2), (Fraction(9, 2), y2))],
            [P(3, (-6, xy)), P(3, (Fraction(2, 7), xy)), P(3, (4, x2), (-2, y2))],
            [P(3, (2, x2), (-2, y2)), P(3, (-1, x2), (1, y2))],
            [Polynomial(3), P(3, (5, x2)), Polynomial(3)],
            [P(3, (3, x2)), P(3, (Fraction(-1, 3), (0, 0, 0))), P(3, (1, y2))],
            [Polynomial(3)],
        ]
        for gens in cases:
            I = PolyIdeal(3, gens)
            generators, key = reference_ideal(3, gens)
            assert I.generators == generators and I.canonical_key() == key
        # the first sorted term is y^2's, so the normal form is y^2 - x^2
        assert PolyIdeal(3, cases[2]).generators == (P(3, (1, y2), (-1, x2)),)
        assert PolyIdeal(3, cases[4]).generators == (Polynomial.one(3),)


@st.composite
def monomial_lists(draw):
    """(d, exps): up to 12 exponent tuples in 1-4 variables, drawn from a
    pool of at most 8 and the zero exponent, so repeats are common."""
    d = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), max_size=8))
    return d, draw(st.lists(st.sampled_from(pool + [(0,) * d]), max_size=12))


class TestMonomialIdealBuilder:
    @settings(max_examples=300, deadline=None)
    @given(monomial_lists())
    def test_matches_the_polynomial_route(self, case):
        d, exps = case
        I = PolyIdeal._of_monomials(d, exps)
        expected = PolyIdeal(d, [Polynomial.from_monomial(d, m) for m in exps])
        assert I.generators == expected.generators
        assert [list(g.nums.items()) for g in I.generators] == [
            list(g.nums.items()) for g in expected.generators
        ]
        assert all(g.den == 1 for g in I.generators)
        assert I.canonical_key() == expected.canonical_key()
        assert hash(I) == hash(expected)
        assert I.is_monomial == expected.is_monomial


@st.composite
def monomial_cuts(draw):
    """(I, f): a monomial ideal in 2-4 variables with non-minimal, repeated,
    scaled and sometimes unit generators, and a form that is one variable,
    a signed pair x_a +- x_b or a scaled pair c x_a + e x_b."""
    d = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 3)] * d)
    pool = draw(st.lists(exps.filter(any), min_size=0, max_size=5))
    gens = []
    for _ in range(draw(st.integers(0, 8))):
        m = draw(st.sampled_from(pool)) if pool and draw(st.booleans()) else draw(exps)
        gens.append(Polynomial(d, {m: draw(nonzero_scalars)}))
    a, b = draw(st.permutations(range(d)))[:2]
    kind = draw(st.sampled_from(["variable", "signed", "scaled"]))
    coeffs = [Fraction(0)] * d
    if kind == "variable":
        coeffs[a] = draw(nonzero_scalars)
    elif kind == "signed":
        coeffs[a], coeffs[b] = Fraction(1), Fraction(draw(st.sampled_from([1, -1])))
    else:
        coeffs[a], coeffs[b] = draw(nonzero_scalars), draw(nonzero_scalars)
    return PolyIdeal(d, gens), LinearForm(tuple(coeffs))


class TestExponentCut:
    @settings(max_examples=300, deadline=None)
    @given(monomial_cuts())
    def test_matches_the_substituted_generators(self, cut):
        I, f = cut
        elim = eliminate_form(f)
        J = elim.map_ideal(I)
        expected = PolyIdeal(
            I.ring_dim - 1, [reference_map_polynomial(elim, g) for g in I.generators]
        )
        assert J.generators == expected.generators
        assert J.canonical_key() == expected.canonical_key() and hash(J) == hash(expected)
        assert J.is_monomial and J.monomial_exponents() == expected.monomial_exponents()

    def test_takes_no_polynomial_substitution(self, monkeypatch):
        def refuse(self, p):
            raise AssertionError("map_polynomial called")

        monkeypatch.setattr(polyring.LinearElimination, "map_polynomial", refuse)
        # (x^2, x y, y z^2) along x = 0 and along x = 3 y
        I = PolyIdeal(3, [P(3, (1, (2, 0, 0))), P(3, (1, (1, 1, 0))), P(3, (1, (0, 1, 2)))])
        kill = eliminate_form(LinearForm((Fraction(1), Fraction(0), Fraction(0))))
        assert kill.map_ideal(I) == PolyIdeal(2, [P(2, (1, (1, 2)))])
        move = eliminate_form(LinearForm((Fraction(1), Fraction(-3), Fraction(0))))
        assert move.map_ideal(I).generators == (P(2, (1, (2, 0))), P(2, (1, (1, 2))))

    def test_other_cuts_take_the_polynomial_route(self, monkeypatch):
        calls = []
        real = polyring.LinearElimination.map_polynomial
        monkeypatch.setattr(
            polyring.LinearElimination,
            "map_polynomial",
            lambda self, p: calls.append(p) or real(self, p),
        )
        x2, binomial = P(3, (1, (2, 0, 0))), P(3, (1, (0, 1, 1)), (2, (0, 0, 2)))
        # a monomial ideal along a form of three terms, and an ideal with a
        # binomial along a pair
        eliminate_form(LinearForm((1, 1, 1))).map_ideal(PolyIdeal(3, [x2]))
        eliminate_form(LinearForm((1, -1, 0))).map_ideal(PolyIdeal(3, [x2, binomial]))
        assert len(calls) == 3
