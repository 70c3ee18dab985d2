"""Module presentations and their series, checked against direct counts."""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, le, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clear_memos
from test_polyring import (
    leading,
    monic,
    monomial_div,
    monomial_lcm,
    reference_normal_form,
    reference_spoly,
)
from test_oracle import monomials_of_degree
from hilbcalc import polyring, presentation
from hilbcalc.monomial import (
    _numerator_of_monomial,
    minimalize_exponents,
    monomial_mul,
)
from hilbcalc.oracle import verify_series
from hilbcalc.polyring import (
    DegRevLex,
    EliminationOrder,
    LinearForm,
    ModPKernel,
    PolyIdeal,
    Polynomial,
    RationalKernel,
    Uncertified,
    _buchberger_run,
    buchberger,
    colon,
    initial_ideal,
    quotient_by_linear,
)
from hilbcalc.presentation import (
    BadParams,
    CyclicModule,
    FAMILY_CASES,
    NotMonomial,
    ResolutionPresentation,
    closed_form_family,
    determinantal_check_module,
    module_dimension,
    module_table,
    series_of_cyclic,
    series_of_monomial_quotient,
    series_of_resolution,
)
from hilbcalc.sampling import random_monomial_ideal
from hilbcalc.series import (
    DEFAULT_TRUNCATION,
    HilbertSeries,
    IntPolynomial,
    binomial,
    expand,
    hilbert_coefficients,
    shift,
)


def monomial_ideal(d, *exps):
    return PolyIdeal(d, [Polynomial.from_monomial(d, e) for e in exps])


def mp_ideal(d, s):
    """(x1..xd)(x1..x_{d-s}) as a monomial ideal."""
    gens = []
    for a in range(d - s):
        for b in range(a, d):
            e = [0] * d
            e[a] += 1
            e[b] += 1
            gens.append(tuple(e))
    return monomial_ideal(d, *gens)


class TestMonomialSeries:
    def test_zero_ideal(self):
        S = series_of_monomial_quotient(PolyIdeal(3))
        assert S == HilbertSeries(3, IntPolynomial.one())

    def test_pure_variables(self):
        S = series_of_monomial_quotient(monomial_ideal(3, (1, 0, 0), (0, 1, 0)))
        assert S.numerator == IntPolynomial((1, -2, 1))

    def test_unit_ideal(self):
        I = PolyIdeal(2, [Polynomial.one(2)])
        S = series_of_monomial_quotient(I)
        assert S.is_zero

    def test_two_gen_example(self):
        S = series_of_monomial_quotient(monomial_ideal(3, (1, 0, 1), (0, 1, 1)))
        assert S.numerator == IntPolynomial((1, 0, -2, 1))
        assert verify_series(CyclicModule(3, monomial_ideal(3, (1, 0, 1), (0, 1, 1))))

    def test_rejects_general_ideal(self):
        d = 2
        f = Polynomial(d, {(2, 0): Fraction(1), (1, 1): Fraction(1)})
        with pytest.raises(NotMonomial):
            series_of_monomial_quotient(PolyIdeal(d, [f]))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 3),
        st.sets(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            max_size=4,
        ),
    )
    def test_random_monomial_vs_counts(self, _unused, exps):
        exps = {e for e in exps if any(e)}
        I = monomial_ideal(3, *exps) if exps else PolyIdeal(3)
        assert verify_series(CyclicModule(3, I), max_degree=9)


class TestCyclicSeries:
    def test_mp_table(self):
        M = CyclicModule(3, mp_ideal(3, 1))
        T = module_table(M)
        assert T.dim == 1
        assert (T.e(0), T.e(1)) == (1, -2)
        assert verify_series(M)

    def test_shifted_free(self):
        M = CyclicModule(4, PolyIdeal(4), shift=3)
        S = series_of_cyclic(M)
        assert S.numerator == IntPolynomial.t_power(3)

    def test_field_quotient(self):
        M = CyclicModule(1, monomial_ideal(1, (1,)))
        assert module_dimension(M) == 0
        assert module_table(M).e(0) == 1

    def test_general_ideal_through_initial(self):
        d = 3
        f1 = Polynomial(d, {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(-1)})
        f2 = Polynomial(d, {(1, 1, 0): Fraction(1)})
        M = CyclicModule(d, PolyIdeal(d, [f1, f2]))
        assert verify_series(M)

    def test_shift_commutes(self):
        M0 = CyclicModule(3, mp_ideal(3, 1))
        M2 = CyclicModule(3, mp_ideal(3, 1), shift=2)
        assert series_of_cyclic(M2) == shift(series_of_cyclic(M0), 2)
        assert verify_series(M2)

    def test_dimension_is_shift_invariant(self):
        M0 = CyclicModule(4, mp_ideal(4, 2))
        M3 = CyclicModule(4, mp_ideal(4, 2), shift=3)
        assert module_dimension(M0) == module_dimension(M3) == 2

    def test_shift_is_an_integer(self):
        # a float or a Fraction shift used to construct and then fail in
        # series_of_cyclic with "can't multiply sequence by non-int"
        M = CyclicModule(2, mp_ideal(2, 1), Fraction(3, 1))
        assert M.shift == 3 and type(M.shift) is int
        assert series_of_cyclic(M) == series_of_cyclic(CyclicModule(2, mp_ideal(2, 1), 3))
        for bad in (1.5, 2.0, Fraction(5, 2), "2"):
            with pytest.raises(TypeError):
                CyclicModule(2, mp_ideal(2, 1), bad)
        with pytest.raises(ValueError):
            CyclicModule(2, mp_ideal(2, 1), Fraction(-1))


def rational_series(I: PolyIdeal) -> HilbertSeries:
    """The series read off the leading monomials of the rational reduced
    basis, the route every non-monomial ideal took before the modular
    certificate."""
    d = I.ring_dim
    order = DegRevLex(d)
    exps = frozenset(leading(g, order)[0] for g in buchberger(I, order))
    return HilbertSeries(d, _numerator_of_monomial(d, minimalize_exponents(exps)))


def refuse(*args, **kwargs):
    raise AssertionError("this series must not need that computation")


def counted_kernels(monkeypatch) -> list:
    """The kernels `presentation` builds from here on, as (name, number of
    variables) in the order it builds them."""
    built = []

    def counting(kernel):
        class Counted(kernel):
            def __init__(self, order, gens):
                built.append((kernel.__name__, order.nvars))
                super().__init__(order, gens)

        return Counted

    monkeypatch.setattr(presentation, "ModPKernel", counting(ModPKernel))
    monkeypatch.setattr(presentation, "RationalKernel", counting(RationalKernel))
    return built


@st.composite
def certificate_ideals(draw):
    """Homogeneous ideals in 2-5 variables: generic complete intersections
    of mixed degree, generators with a common factor, redundant generators,
    more generators than variables, and pairs that agree mod the kernel's
    prime, with small, rational or 10^15-sized coefficients.  Dense coefficients come from a drawn seed, so the draw
    stays small."""
    d = draw(st.integers(2, 5))
    top = 3 if d <= 3 else 2
    rng = random.Random(draw(st.integers(0, 2**32)))
    style = draw(st.sampled_from(["small", "rational", "huge"]))

    def coefficient():
        c = rng.randint(-5, 5)
        if style == "rational":
            return Fraction(c, rng.randint(1, 9))
        if style == "huge" and c:
            return c * 10**15 + rng.randint(-5, 5)
        return c

    def form(deg: int) -> Polynomial:
        while True:
            terms = {m: coefficient() for m in monomials_of_degree(d, deg)}
            if any(terms.values()):
                return Polynomial(d, terms)

    def forms(count: int) -> list[Polynomial]:
        return [form(draw(st.integers(1, top))) for _ in range(count)]

    kind = draw(
        st.sampled_from(["generic", "common factor", "redundant", "many", "unlucky"])
    )
    if kind == "generic":
        gens = forms(draw(st.integers(2, d)))
    elif kind == "common factor":
        factor = form(1)
        gens = [factor * g for g in forms(2)] + forms(draw(st.integers(0, d - 2)))
    elif kind == "redundant":
        gens = forms(draw(st.integers(1, d - 1)))
        deg = max(g.degree() for g in gens) + draw(st.integers(0, 1))
        extra = Polynomial(d)
        for g in gens:
            if g.degree() < deg:
                extra = extra + form(deg - g.degree()) * g
            else:
                extra = extra + g * draw(st.sampled_from([1, -3, Fraction(5, 2)]))
        gens.append(extra)
    elif kind == "many":
        gens = forms(d + draw(st.integers(1, 2)))
    else:
        # g and g + p h agree mod p, so the modular run loses a generator
        gens = forms(draw(st.integers(1, d - 1)))
        g = gens[0]
        gens.append(g + form(g.degree()) * polyring._PRIME)
    return PolyIdeal(d, draw(st.permutations(gens)))


class TestModularCertificate:
    @settings(max_examples=150, deadline=None)
    @given(certificate_ideals())
    def test_series_equals_rational_basis(self, I):
        clear_memos()
        expected = rational_series(I)
        clear_memos()
        assert series_of_cyclic(CyclicModule(I.ring_dim, I)) == expected

    def test_unlucky_prime_falls_back(self, monkeypatch):
        # mod p the two generators are x^2 twice, so the second one reduces
        # to zero and misses the bound; over Q they are a regular sequence
        p = polyring._PRIME
        x2 = Polynomial(2, {(2, 0): 1})
        I = PolyIdeal(2, [x2, Polynomial(2, {(2, 0): 1, (0, 2): p})])
        built = counted_kernels(monkeypatch)
        S = series_of_cyclic(CyclicModule(2, I))
        assert S.numerator == IntPolynomial((1, 0, -2, 0, 1))
        assert built == [("ModPKernel", 2), ("RationalKernel", 2)]

    def test_series_only_never_the_initial_ideal(self, monkeypatch):
        # the leading monomials mod p are (y, z^2), over Q (x, z^2): the
        # series agree, the initial ideal comes from the rational basis
        p = polyring._PRIME
        I = PolyIdeal(
            3, [Polynomial(3, {(1, 0, 0): p, (0, 1, 0): 1}), Polynomial(3, {(0, 0, 2): 1})]
        )
        with monkeypatch.context() as mp:
            mp.setattr(polyring, "buchberger", refuse)
            mp.setattr(presentation, "RationalKernel", refuse)
            S = series_of_cyclic(CyclicModule(3, I))
        assert S.numerator == IntPolynomial((1, -1, -1, 1))
        lead = sorted(next(iter(g.nums)) for g in initial_ideal(I).generators)
        assert lead == [(0, 0, 2), (1, 0, 0)]

    def test_exits_without_a_modular_run(self, monkeypatch):
        # a principal ideal is certified by the first stage of the mod-p run
        with monkeypatch.context() as mp:
            mp.setattr(polyring, "buchberger", refuse)
            mp.setattr(presentation, "RationalKernel", refuse)
            f = Polynomial(3, {(3, 0, 0): 2, (1, 1, 1): Fraction(-1, 3), (0, 0, 3): 5})
            S = series_of_cyclic(CyclicModule(3, PolyIdeal(3, [f])))
        assert S.numerator == IntPolynomial((1, 0, 0, -1))
        monkeypatch.setattr(polyring, "ModPKernel", refuse)
        monkeypatch.setattr(presentation, "ModPKernel", refuse)
        # generators sharing the variable x, and more generators than
        # variables, go straight to the rational basis
        xy_xz = PolyIdeal(
            3, [Polynomial(3, {(1, 1, 0): 1, (2, 0, 0): 1}), Polynomial(3, {(1, 0, 1): 1})]
        )
        many = PolyIdeal(
            2,
            [
                Polynomial(2, {(2, 0): 1, (1, 1): 1}),
                Polynomial(2, {(0, 2): 1, (1, 1): 2}),
                Polynomial(2, {(2, 0): 3, (0, 2): 1}),
            ],
        )
        for I in (xy_xz, many):
            S = series_of_cyclic(CyclicModule(I.ring_dim, I))
            clear_memos()
            assert S == rational_series(I)


def ordered(order):
    """The class of exponent tuples that compare like packed ints under
    order: ascending is ascending order.key, -m sorts the other way round,
    and m + u is the product."""
    key = order.key

    class Reversed:
        __slots__ = ("m",)

        def __init__(self, m):
            self.m = m

        def __eq__(self, other):
            return self.m == other.m

        def __lt__(self, other):
            return key(other.m) < key(self.m)

        def __neg__(self):
            return self.m

    class Ordered(tuple):
        __slots__ = ()

        def __lt__(self, other):
            return key(self) < key(other)

        def __add__(self, other):
            return Ordered(map(add, self, other))

        def __neg__(self):
            return Reversed(self)

    return Ordered


class TupleMonomials:
    """The run's monomial interface on exponent tuples: the reference for
    the packed lcm, divisor test, degree and colon.  An element's leading
    monomial, its first field, is an `ordered` tuple."""

    def __init__(self, order, gens=()):
        self.order = order
        self.nvars = order.nvars
        self.monomial = ordered(order)

    def lcm(self, m, u):
        return self.monomial(map(max, m, u))

    def divides(self, u, m):
        return all(map(le, u, m))

    def degree(self, m):
        return sum(m)

    def colon(self, m, u):
        return tuple(a - b if a > b else 0 for a, b in zip(m, u))

    def room(self, n, G):
        return False


class TupleModPKernel(TupleMonomials):
    """The mod-p kernel on exponent tuples, as it was before monomials were
    packed into ints: the reference for `ModPKernel`, step for step."""

    exact = False

    def enter(self, f, G):
        content = gcd(*f.nums.values())
        return self._top_reduce(
            {m: v // content % polyring._PRIME for m, v in f.nums.items()}, G
        )

    def spair(self, G, i, j, top):
        (lmi, taili), (lmj, tailj) = G[i], G[j]
        u, v = monomial_div(top, lmi), monomial_div(top, lmj)
        work = {monomial_mul(m, u): c for m, c in taili}
        for m, c in tailj:
            m = monomial_mul(m, v)
            work[m] = (work.get(m, 0) - c) % polyring._PRIME
        return self._top_reduce(work, G)

    def _top_reduce(self, work, G):
        p, key = polyring._PRIME, self.order.key
        heap = [(key(m), m) for m in work]
        heapify(heap)
        while heap:
            m = heappop(heap)[1]
            c = work.pop(m)
            if not c:
                continue
            for lm, tail in G:
                if all(map(le, lm, m)):
                    break
            else:
                inv = pow(c, -1, p)
                tail = tuple((t, v * inv % p) for t, v in work.items() if v)
                return self.monomial(m), tail
            shift = tuple(map(sub, m, lm))
            for mt, ct in tail:
                mm = tuple(map(add, mt, shift))
                v = work.get(mm)
                if v is None:
                    work[mm] = -c * ct % p
                    heappush(heap, (key(mm), mm))
                else:
                    work[mm] = (v - c * ct) % p
        return None


class TupleRationalKernel(TupleMonomials):
    """The rational kernel on exponent tuples, as it was before monomials
    were packed into ints: monic Polynomials reduced fully by Fraction long
    division.  The reference for `RationalKernel`, step for step.  An
    element is (leading monomial, monic polynomial)."""

    exact = True

    def _element(self, r):
        if r.is_zero:
            return None
        r = monic(r, self.order)
        return self.monomial(leading(r, self.order)[0]), r

    def enter(self, f, G):
        return self._element(reference_normal_form(f, [g for _, g in G], self.order))

    def spair(self, G, i, j, top):
        order = self.order
        s = reference_spoly(G[i][1], G[j][1], order)
        return self._element(reference_normal_form(s, [g for _, g in G], order))

    def reduced(self, G):
        order = self.order
        basis = [g for _, g in G]
        reduced = []
        for i, g in enumerate(basis):
            others = basis[:i] + basis[i + 1 :]
            reduced.append(monic(reference_normal_form(g, others, order), order))
        reduced.sort(key=lambda g: order.key(leading(g, order)[0]))
        return tuple(reduced)


def tuple_reduced_basis(gens, order) -> tuple:
    """`polyring._reduced_basis` on the tuple kernel, which leaves the exact
    division in `colon` to the packed one."""
    kernel = TupleRationalKernel(order)
    return kernel.reduced(polyring._buchberger_run(gens, kernel)[0])


def terms_of(kernel, g) -> dict:
    """An element a kernel adds, as {exponent tuple: coefficient} scaled to
    leading coefficient 1."""
    if isinstance(kernel, TupleRationalKernel):
        return g[1].terms
    if isinstance(kernel, TupleModPKernel):
        return {tuple(g[0]): 1, **dict(g[1])}
    k, _, lc, tail = g
    unpack = kernel._unpack
    return {unpack(k): 1, **{unpack(m): Fraction(c, lc) for m, c in tail}}


def kernel_run(gens, kernel) -> tuple[list, object]:
    """Every element a run on gens adds, in order, and its result: the
    final leading monomials with the Hilbert numerator, or Uncertified."""
    steps: list = []

    def recording(method):
        def record(*args):
            g = method(*args)
            if g is not None:
                steps.append(terms_of(kernel, g))
            return g

        return record

    kernel.enter, kernel.spair = recording(kernel.enter), recording(kernel.spair)
    try:
        G, h = _buchberger_run(gens, kernel)
    except Uncertified:
        return steps, Uncertified
    if isinstance(kernel, TupleMonomials):
        return steps, ([tuple(g[0]) for g in G], h)
    return steps, ([kernel._unpack(g[0]) for g in G], h)


def make_order(name: str, d: int):
    return DegRevLex(d) if name == "degrevlex" else EliminationOrder(d)


@st.composite
def wide_ideals(draw, top: int = 3):
    """2-4 forms of degree 1-top in 6-9 variables, sparse or dense, so that
    a packed monomial spans many fields."""
    d = draw(st.integers(6, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.1, 0.4, 1.0]))

    def form(deg: int) -> Polynomial:
        while True:
            terms = {
                m: rng.randint(-5, 5)
                for m in monomials_of_degree(d, deg)
                if rng.random() < density
            }
            if any(terms.values()):
                return Polynomial(d, terms)

    count = draw(st.integers(2, 4))
    return PolyIdeal(d, [form(draw(st.integers(1, top))) for _ in range(count)])


@st.composite
def cut_ideals(draw):
    """A random monomial ideal in 3-6 variables cut by one or two random
    linear forms, as the sweep's quotient walk cuts them; redrawn until
    the cut is not monomial."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    while True:
        d = rng.randint(3, 6)
        I = random_monomial_ideal(rng, d)
        for _ in range(rng.randint(1, 2)):
            form = LinearForm([rng.randint(-5, 5) or 1 for _ in range(I.ring_dim)])
            I = quotient_by_linear(I, form)
        if not I.is_monomial and not I.is_unit:
            return I


def generic_quadrics(seed: int, d: int = 8, count: int = 4) -> PolyIdeal:
    """count quadrics in d variables with coefficients from randint(-5, 5)."""
    rng = random.Random(seed)

    def quadric() -> Polynomial:
        while True:
            terms = {m: rng.randint(-5, 5) for m in monomials_of_degree(d, 2)}
            if any(terms.values()):
                return Polynomial(d, terms)

    return PolyIdeal(d, [quadric() for _ in range(count)])


def common_variable(gens) -> bool:
    """Whether some variable divides two of the generators: the gate the
    mod-p run once had, which a restriction implies."""
    seen: set[int] = set()
    for g in gens:
        factors = set.intersection(*({i for i, a in enumerate(m) if a} for m in g.nums))
        if factors & seen:
            return True
        seen |= factors
    return False


class TestRestrictedCertificate:
    def test_miss_falls_back_to_the_rational_run(self, monkeypatch):
        # y^2 - yz - xz and y^2 - z^2 keep (y, z); at x = 0 they are
        # y (y - z) and (y - z)(y + z), which share y - z, so the
        # restricted run misses and the rational run gives the series of
        # the complete intersection
        f = Polynomial(3, {(0, 2, 0): 1, (0, 1, 1): -1, (1, 0, 1): -1})
        g = Polynomial(3, {(0, 2, 0): 1, (0, 0, 2): -1})
        I = PolyIdeal(3, [f, g])
        # in normal form the first sorted term, y z and z^2, is positive
        assert presentation._restriction(I.generators, 3) == [
            Polynomial(2, {(2, 0): -1, (1, 1): 1}),
            Polynomial(2, {(2, 0): -1, (0, 2): 1}),
        ]
        built = counted_kernels(monkeypatch)
        S = series_of_cyclic(CyclicModule(3, I))
        assert S.numerator == IntPolynomial((1, 0, -2, 0, 1))
        assert built == [("ModPKernel", 2), ("RationalKernel", 3)]

    def test_no_restriction_without_a_pure_power(self):
        # x y + z^2 keeps z and x^2 + y z keeps x; x y + z w has no pure
        # power, and four copies of one generator cannot keep four
        # variables
        d = 4
        gens = [
            Polynomial(d, {(1, 1, 0, 0): 1, (0, 0, 2, 0): 1}),
            Polynomial(d, {(2, 0, 0, 0): 1, (0, 1, 1, 0): 1}),
            Polynomial(d, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}),
        ]
        assert presentation._restriction(gens[:2], d) == [
            Polynomial(2, {(0, 2): 1}),
            Polynomial(2, {(2, 0): 1}),
        ]
        assert presentation._restriction(gens, d) is None
        assert presentation._restriction(gens[:1] * 4, d) is None
        # with y^2 and w^2 + x y added, d generators keep all d variables
        # and restrict to themselves
        full = gens[:2] + [
            Polynomial(d, {(0, 2, 0, 0): 1}),
            Polynomial(d, {(0, 0, 0, 2): 1, (1, 1, 0, 0): -1}),
        ]
        assert presentation._restriction(full, d) == full

    @pytest.mark.parametrize("seed", range(2))
    def test_d_quadrics_certify_on_all_variables(self, monkeypatch, seed):
        built = counted_kernels(monkeypatch)
        S = series_of_cyclic(CyclicModule(5, generic_quadrics(seed, 5, 5)))
        assert S.numerator == IntPolynomial((1, 0, -5, 0, 10, 0, -10, 0, 5, 0, -1))
        assert built == [("ModPKernel", 5)]

    def test_no_pure_power_takes_only_the_rational_run(self, monkeypatch):
        # x y has no pure power, so (x y, x^2 + y^2) makes no mod-p run
        I = PolyIdeal(
            2, [Polynomial(2, {(1, 1): 1}), Polynomial(2, {(2, 0): 1, (0, 2): 1})]
        )
        built = counted_kernels(monkeypatch)
        S = series_of_cyclic(CyclicModule(2, I))
        assert S.numerator == IntPolynomial((1, 0, -2, 0, 1))
        assert built == [("RationalKernel", 2)]

    @pytest.mark.parametrize("seed", range(8))
    def test_quadrics_certify_on_four_variables(self, monkeypatch, seed):
        built = counted_kernels(monkeypatch)
        S = series_of_cyclic(CyclicModule(8, generic_quadrics(seed)))
        assert S.numerator == IntPolynomial((1, 0, -4, 0, 6, 0, -4, 0, 1))
        assert built == [("ModPKernel", 4)]

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(certificate_ideals(), wide_ideals()))
    def test_restriction_shares_no_variable(self, I):
        gens, d = I.generators, I.ring_dim
        restricted = presentation._restriction(gens, d)
        if restricted is not None:
            assert len(restricted) <= d
            assert not common_variable(gens)

    # cubics in 6-9 variables can keep the rational reference busy for
    # minutes; certificate_ideals() still draws cubics in few variables
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(certificate_ideals(), wide_ideals(top=2)))
    def test_certified_restriction_has_the_rational_series(self, I):
        restricted = presentation._restriction(I.generators, I.ring_dim)
        if restricted is None:
            return
        kernel = ModPKernel(DegRevLex(len(restricted)), restricted)
        try:
            h = _buchberger_run(restricted, kernel)[1]
        except Uncertified:
            return
        clear_memos()
        assert h == rational_series(I).numerator


class TestPackedKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(certificate_ideals(), wide_ideals(), cut_ideals()))
    def test_same_steps_as_the_tuple_kernel(self, I):
        gens, d = I.generators, I.ring_dim
        order = DegRevLex(d)
        packed = kernel_run(gens, ModPKernel(order, gens))
        assert packed == kernel_run(gens, TupleModPKernel(order))

    # forms of degree 3 in 9 variables can take minutes over Q under the
    # elimination order, so the wide ideals here stop at degree 2
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(certificate_ideals(), wide_ideals(top=2), cut_ideals()),
        st.sampled_from(["degrevlex", "elim"]),
    )
    def test_rational_run_has_the_tuple_kernel_steps(self, I, name):
        gens, d = I.generators, I.ring_dim
        order = make_order(name, d)
        packed = kernel_run(gens, RationalKernel(order, gens))
        assert packed == kernel_run(gens, TupleRationalKernel(order))

    @settings(max_examples=25, deadline=None)
    @given(
        st.one_of(certificate_ideals(), cut_ideals()),
        st.sampled_from(["degrevlex", "elim"]),
        st.data(),
    )
    def test_bases_initial_ideals_and_colons_match_the_tuple_kernel(self, I, name, data):
        d = I.ring_dim
        order = make_order(name, d)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        g = Polynomial(d, {m: rng.randint(-3, 3) for m in monomials_of_degree(d, 1)})
        if g.is_zero:
            g = Polynomial.variable(d, 0)
        # the run inside colon, on its auxiliary ideal in k[w, v, x]
        w, v = Polynomial.variable(d + 2, 0), Polynomial.variable(d + 2, 1)
        aux = [w * polyring._lift(f, 2) for f in I.generators]
        aux.append((v - w) * polyring._lift(g, 2))
        elim = EliminationOrder(d + 2)
        packed = kernel_run(aux, RationalKernel(elim, aux))
        assert packed == kernel_run(aux, TupleRationalKernel(elim))

        def results():
            return (
                buchberger(I, order),
                initial_ideal(I, order).generators,
                colon(I, g).generators,
            )

        packed = results()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyring, "_reduced_basis", tuple_reduced_basis)
            assert packed == results()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.lists(st.tuples(*[st.integers(0, 7)] * d), min_size=1, max_size=12)
        ),
        st.sampled_from(["degrevlex", "elim"]),
        st.sampled_from([RationalKernel, ModPKernel]),
    )
    def test_ascending_packs_are_ascending_keys(self, ms, name, kernel):
        d = len(ms[0])
        order = make_order(name, d)
        top = max(map(sum, ms))
        k = kernel(order, [Polynomial.from_monomial(d, (max(top, 1),) + (0,) * (d - 1))])
        assert top <= k.limit
        assert sorted(ms, key=k._pack) == sorted(ms, key=order.key)
        for a in ms:
            assert k._unpack(k._pack(a)) == a
            for b in ms:
                ka, kb = k._pack(a), k._pack(b)
                assert k._pack(monomial_mul(a, b)) == ka + kb
                assert k.divides(ka, kb) == all(map(le, a, b))
                assert k.degree(ka) == sum(a)
                assert k.colon(ka, kb) == tuple(max(x - y, 0) for x, y in zip(a, b))
                top = k.lcm(ka, kb)
                assert top == k._pack(monomial_lcm(a, b))
                assert k.degree(top) == sum(monomial_lcm(a, b))
                assert (top == ka + kb) == all(x == 0 or y == 0 for x, y in zip(a, b))

    @pytest.mark.parametrize("kernel", [ModPKernel, RationalKernel])
    def test_run_past_the_field_limit_widens(self, kernel):
        # (x^n, x y^(n-1) - z^n) is a regular sequence whose degrevlex basis
        # holds x^(n-k) z^(kn) for k = 1..n, up to z^(n^2): degree 36 at
        # n = 6, past fields sized for generators of degree 6
        n = 6
        I = PolyIdeal(
            3,
            [
                Polynomial(3, {(n, 0, 0): 1}),
                Polynomial(3, {(1, n - 1, 0): 1, (0, 0, n): -1}),
            ],
        )
        order = DegRevLex(3)
        k = kernel(order, I.generators)
        limit = k.limit
        assert limit < n * n
        reference = TupleModPKernel if kernel is ModPKernel else TupleRationalKernel
        run = kernel_run(I.generators, k)
        assert run[1] is not Uncertified
        assert run == kernel_run(I.generators, reference(order))
        assert max(map(sum, run[1][0])) == n * n
        assert k.limit >= n * n and k.field == 2 * limit.bit_length() + 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyring, "RationalKernel", TupleRationalKernel)
            expected = buchberger(I)
        assert buchberger(I) == expected
        S = series_of_cyclic(CyclicModule(3, I))
        clear_memos()
        assert S == rational_series(I)

    @pytest.mark.parametrize("kernel", [ModPKernel, RationalKernel])
    def test_repack_rekeys_the_pending_pairs(self, kernel):
        # (x^5, x y^4 - z^5, y z^4 - u^5) outgrows its 6-bit fields in a
        # stage that still holds pairs keyed by the old packing: left with
        # those keys, they pop out of order and shift by a wrong lcm
        x5 = Polynomial(4, {(5, 0, 0, 0): 1})
        f = Polynomial(4, {(1, 4, 0, 0): 1, (0, 0, 5, 0): -1})
        g = Polynomial(4, {(0, 1, 4, 0): 1, (0, 0, 0, 5): -1})
        gens, order = [x5, f, g], DegRevLex(4)
        k = kernel(order, gens)
        field = k.field
        run = kernel_run(gens, k)
        assert k.field == 2 * field and run[1] is not Uncertified
        reference = TupleModPKernel if kernel is ModPKernel else TupleRationalKernel
        assert run == kernel_run(gens, reference(order))

    def test_a_run_computes_no_order_key(self, monkeypatch):
        # the run, its minimal bases and the callers that unpack its result
        # compare packed ints only, also across a re-pack
        x5 = Polynomial(4, {(5, 0, 0, 0): 1})
        f = Polynomial(4, {(1, 4, 0, 0): 1, (0, 0, 5, 0): -1})
        g = Polynomial(4, {(0, 1, 4, 0): 1, (0, 0, 0, 5): -1})
        I = generic_quadrics(0, d=5, count=3)
        h = Polynomial(5, {m: 1 for m in monomials_of_degree(5, 1)})
        monkeypatch.setattr(DegRevLex, "key", refuse)
        monkeypatch.setattr(EliminationOrder, "key", refuse)
        for kernel in (ModPKernel, RationalKernel):
            for gens, order in (([x5, f, g], DegRevLex(4)), (I.generators, DegRevLex(5))):
                _buchberger_run(gens, kernel(order, gens))
        buchberger(PolyIdeal(4, [x5, f, g]))
        initial_ideal(I, EliminationOrder(5))
        colon(I, h)

    @pytest.mark.parametrize("seed", range(8))
    def test_generic_quadrics_stay_inside_the_fields(self, seed):
        I = generic_quadrics(seed)
        gens, d = I.generators, I.ring_dim
        k = ModPKernel(DegRevLex(d), gens)
        field = k.field
        run = kernel_run(gens, k)
        assert run[1] is not Uncertified and k.field == field
        assert run == kernel_run(gens, TupleModPKernel(DegRevLex(d)))

    def test_elimination_order_packs(self):
        # the aux exponent (variable 0) leads, then the degree of the
        # others, then the others from the last variable down
        order = EliminationOrder(3)
        f = Polynomial(3, {(1, 1, 0): 1, (0, 0, 2): 1})
        k = RationalKernel(order, [f])
        ms = [(1, 0, 0), (0, 3, 0), (0, 0, 2), (0, 1, 1), (2, 0, 0), (1, 2, 0), (0, 0, 1)]
        expected = [
            (2, 0, 0), (1, 2, 0), (1, 0, 0), (0, 3, 0), (0, 1, 1), (0, 0, 2), (0, 0, 1)
        ]
        assert sorted(ms, key=k._pack) == sorted(ms, key=order.key) == expected
        # colon's generators are homogeneous in the other variables only;
        # v is homogeneous in the variables other than x1, which is not
        # the eliminated one
        w = Polynomial(3, {(1, 0, 1): 1, (0, 0, 1): -1})
        v = Polynomial(3, {(0, 1, 1): 1, (0, 0, 1): -1})
        RationalKernel(order, [w])
        with pytest.raises(ValueError, match="homogeneous"):
            RationalKernel(order, [v])
        with pytest.raises(ValueError, match="homogeneous"):
            RationalKernel(order, [f, w])

        class Lex:
            def __init__(self, nvars):
                self.nvars = nvars

            def key(self, m):
                return tuple(-e for e in m)

        for kernel in (RationalKernel, ModPKernel):
            with pytest.raises(TypeError, match="no packing for the Lex order"):
                kernel(Lex(3), [f])


class TestResolutionSeries:
    def test_free_ring(self):
        P = ResolutionPresentation(2, ((0,),))
        assert series_of_resolution(P) == HilbertSeries(2, IntPolynomial.one())

    def test_koszul_two_forms(self):
        k, l = 2, 3
        P = ResolutionPresentation(4, ((0,), (k, l), (k + l,)))
        T = hilbert_coefficients(series_of_resolution(P))
        for i in range(len(T.coeffs)):
            assert T.e(i) == binomial(k + l, i + 2) - binomial(k, i + 2) - binomial(
                l, i + 2
            )

    def test_three_points_resolution(self):
        P = ResolutionPresentation(3, ((0,), (3, 3, 3, 3), (4, 4, 4)))
        T = hilbert_coefficients(series_of_resolution(P))
        assert (T.e(0), T.e(1), T.e(2)) == (6, 8, 3)

    def test_rejects_empty_step_zero(self):
        with pytest.raises(ValueError):
            ResolutionPresentation(2, ((), (1,)))

    def test_rejects_negative_series(self):
        with pytest.raises(ValueError):
            ResolutionPresentation(2, ((0,), (0, 0)))

    def test_twists_are_integers_never_truncated(self):
        # int() read the twist 5/2 as 2 and 2.7 as 2, with h = 1 - t^2
        P = ResolutionPresentation(3, ((Fraction(0),), (Fraction(4, 2),)))
        assert P.steps == ((0,), (2,))
        assert type(P.steps[1][0]) is int
        for twist in (Fraction(5, 2), 2.7, 2.0, "2"):
            with pytest.raises(TypeError):
                ResolutionPresentation(3, ((0,), (twist,)))


    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 6),
        st.lists(
            st.lists(st.integers(0, 24), max_size=5), min_size=1, max_size=4
        ),
    )
    def test_series_is_the_alternating_sum_of_its_twists(self, ring_dim, steps):
        reference = IntPolynomial.zero()
        for k, step in enumerate(steps):
            for r in step:
                reference = reference + (-1) ** k * IntPolynomial.t_power(r)
        steps = tuple(map(tuple, steps))
        refused = not steps[0] or any(
            c < 0
            for c in expand(HilbertSeries(ring_dim, reference), DEFAULT_TRUNCATION)
        )
        if refused:
            with pytest.raises(ValueError):
                ResolutionPresentation(ring_dim, steps)
            return
        P = ResolutionPresentation(ring_dim, steps)
        S = series_of_resolution(P)
        assert (S.ambient_dim, S.numerator) == (ring_dim, reference)
        assert series_of_resolution(P) is S


class TestClosedFormFamilies:
    def test_all_cases_match_their_resolutions(self):
        instances = [
            closed_form_family("shifted-free", d=6, r=4),
            closed_form_family("hypersurface", d=4, k=3),
            closed_form_family("complete-intersection-2", d=4, k=2, l=3),
            closed_form_family("hilbert-burch", d=3, m=2),
        ]
        for inst in instances:
            T = hilbert_coefficients(series_of_resolution(inst.presentation))
            assert T == inst.expected, inst.case

    def test_case_list_is_exhaustive(self):
        assert set(FAMILY_CASES) == {
            "shifted-free",
            "hypersurface",
            "complete-intersection-2",
            "hilbert-burch",
        }

    def test_bad_params(self):
        with pytest.raises(BadParams):
            closed_form_family("hypersurface", d=0, k=2)
        with pytest.raises(BadParams):
            closed_form_family("hilbert-burch", d=1, m=2)
        with pytest.raises(BadParams):
            closed_form_family("shifted-free", d=3)
        with pytest.raises(BadParams):
            closed_form_family("no-such-case", d=3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 8), st.integers(1, 6))
    def test_shifted_free_expansion(self, r, d):
        inst = closed_form_family("shifted-free", d=d, r=r)
        T = hilbert_coefficients(series_of_resolution(inst.presentation))
        assert T == inst.expected


class TestDeterminantalInstance:
    def test_dimension_table_and_counts(self):
        M = determinantal_check_module(0)
        assert module_dimension(M) == 1
        T = module_table(M)
        assert (T.e(0), T.e(1)) == (3, 2)
        assert verify_series(M)

    def test_deterministic_in_seed(self):
        assert determinantal_check_module(0) == determinantal_check_module(0)
