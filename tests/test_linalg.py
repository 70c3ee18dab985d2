"""Exact rank and echelon helpers."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbcalc.linalg import FractionEchelon, IntEchelon, int_rank

int_matrices = st.lists(
    st.lists(st.integers(-5, 5), min_size=4, max_size=4),
    min_size=0,
    max_size=6,
)


def rank_by_echelon(rows):
    if not rows:
        return 0
    ech = FractionEchelon(len(rows[0]))
    for r in rows:
        ech.insert(r)
    return ech.rank


def bareiss_rank(rows):
    """Reference rank by dense Bareiss elimination (the former int_rank)."""
    M = [list(r) for r in rows if any(r)]
    if not M:
        return 0
    ncols = len(M[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, len(M)):
            if M[r][col]:
                piv = r
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        lead = M[rank][col]
        top = M[rank]
        for r in range(rank + 1, len(M)):
            row = M[r]
            head = row[col]
            # rows with zero head still pick up the lead/prev scaling
            for c in range(col + 1, ncols):
                row[c] = (lead * row[c] - head * top[c]) // prev
            row[col] = 0
        prev = lead
        rank += 1
        if rank == len(M):
            break
    return rank


@st.composite
def degenerate_matrices(draw):
    """0-10 rows of 1-10 columns, small or 15-digit entries, with zero
    rows, duplicated rows and integer multiples of rows mixed in."""
    ncols = draw(st.integers(1, 10))
    bound = draw(st.sampled_from([5, 10**15]))
    entry = st.integers(-bound, bound)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=10))
    for _ in range(draw(st.integers(0, max(0, 10 - len(rows))))):
        kind = draw(st.sampled_from(["zero", "copy", "multiple"]))
        if kind == "zero" or not rows:
            extra = [0] * ncols
        else:
            source = draw(st.sampled_from(rows))
            factor = 1 if kind == "copy" else draw(st.integers(-bound, bound))
            extra = [factor * c for c in source]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


class TestIntRank:
    def test_known_ranks(self):
        assert int_rank([]) == 0
        assert int_rank([[0, 0], [0, 0]]) == 0
        assert int_rank([[1, 0], [0, 1]]) == 2
        assert int_rank([[1, 2], [2, 4]]) == 1
        assert int_rank([[2, 3, 5], [4, 6, 10], [1, 1, 1]]) == 2

    def test_tall_thin(self):
        rows = [[1, 1], [1, 2], [1, 3], [1, 4]]
        assert int_rank(rows) == 2

    @settings(max_examples=80)
    @given(int_matrices)
    def test_agrees_with_rational_elimination(self, rows):
        assert int_rank(rows) == rank_by_echelon(rows)

    @settings(max_examples=200)
    @given(degenerate_matrices())
    def test_agrees_with_bareiss_and_echelon(self, rows):
        assert int_rank(rows) == bareiss_rank(rows) == rank_by_echelon(rows)

    @settings(max_examples=40)
    @given(degenerate_matrices())
    def test_accepts_a_generator(self, rows):
        assert int_rank(list(r) for r in rows) == bareiss_rank(rows)


def sparse(row):
    return {j: c for j, c in enumerate(row) if c}


class TestIntEchelon:
    def test_insert_reports_independence(self):
        ech = IntEchelon()
        assert ech.insert(sparse([1, 0, 1]))
        assert ech.insert(sparse([0, 2, 0]))
        assert not ech.insert(sparse([3, 4, 3]))
        assert not ech.insert({})
        assert ech.rank == 2

    def test_insert_returns_the_stored_pivot_row(self):
        ech = IntEchelon()
        row = ech.insert(sparse([2, 0, 4]))
        assert row is ech.pivots[max(row)] and row == {0: 1, 2: 2}
        # 3*(1, 2, 1) reduces at column 2 to (1, 4, 0), a new pivot at 1
        row = ech.insert(sparse([3, 6, 3]))
        assert row is ech.pivots[1] and row == {0: 1, 1: 4}
        assert ech.insert(sparse([4, 8, 4])) is None
        assert ech.insert({}) is None
        assert ech.rank == 2

    @settings(max_examples=100)
    @given(degenerate_matrices())
    def test_insert_returns_a_primitive_pivot_row_or_none(self, rows):
        ech = IntEchelon()
        for r in rows:
            rank = ech.rank
            row = ech.insert(sparse(r))
            if row is None:
                assert ech.rank == rank
            else:
                assert ech.rank == rank + 1
                assert row is ech.pivots[max(row)]
                assert gcd(*row.values()) == 1

    def test_pivot_rows_are_primitive(self):
        ech = IntEchelon()
        ech.insert(sparse([6, 0, -4]))
        ech.insert(sparse([10**15, 3 * 10**15, 0]))
        assert ech.pivots == {2: {0: 3, 2: -2}, 1: {0: 1, 1: 3}}

    @settings(max_examples=200)
    @given(degenerate_matrices(), degenerate_matrices())
    def test_pivot_copy_adds_rank_and_leaves_the_base(self, rows, more):
        width = min(len(rows[0]) if rows else 10, len(more[0]) if more else 10)
        rows = [r[:width] for r in rows]
        more = [r[:width] for r in more]
        base = IntEchelon()
        for r in rows:
            base.insert(sparse(r))
        before = {col: dict(row) for col, row in base.pivots.items()}
        grown = IntEchelon(base.pivots)
        for r in more:
            grown.insert(sparse(r))
        assert base.pivots == before
        assert grown.rank - base.rank == rank_by_echelon(rows + more) - rank_by_echelon(rows)
        # a row already in the base's span adds nothing
        for r in rows:
            assert not grown.insert(sparse(r))


class TestFractionEchelon:
    def test_incremental_rank(self):
        ech = FractionEchelon(3)
        assert ech.insert([1, 0, 1])
        assert ech.insert([0, 1, 0])
        assert not ech.insert([1, 1, 1])
        assert ech.rank == 2

    def test_reduce_residual(self):
        ech = FractionEchelon(2)
        ech.insert([2, 0])
        res = ech.reduce([3, 5])
        assert res == [Fraction(0), Fraction(5)]
        assert not any(ech.reduce([7, 0]))
        assert any(ech.reduce([0, 1]))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            FractionEchelon(2).reduce([1, 2, 3])

    @settings(max_examples=40)
    @given(int_matrices, st.randoms(use_true_random=False))
    def test_rank_order_independent(self, rows, rng):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert rank_by_echelon(rows) == rank_by_echelon(shuffled)
