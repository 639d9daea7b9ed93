"""Property tests of the one exact elimination kernel, `mpoly.row_reduce`,
and of `mpoly.solve_exact` built on it, against sympy as an independent
oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from siegelcy.mpoly import row_reduce, solve_exact

#: half the entries are zero, so rank deficiency and empty rows come up often
ENTRIES = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=3))

#: integers up to 10^6 in size, some of them as Fractions of denominator 1:
#: the integer rows then carry large contents and negative leads
LARGE_INTEGERS = st.integers(-10 ** 6, 10 ** 6)
INTEGER_ENTRIES = st.one_of(st.just(0), LARGE_INTEGERS, LARGE_INTEGERS.map(Fraction))


@st.composite
def matrices(draw, max_rows: int = 6, max_cols: int = 6,
             entries=ENTRIES) -> list[list[Fraction]]:
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    return [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]


def sparse(matrix: list[list[Fraction]]) -> list[dict[int, Fraction]]:
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def sympy_rref(sympy, matrix: list[list[Fraction]]):
    """Nonzero rows of sympy's reduced echelon form, with their pivots."""
    m = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                      for row in matrix])
    reduced, pivots = m.rref()
    rows = [[Fraction(int(x.p), int(x.q)) for x in reduced.row(i)]
            for i in range(len(pivots))]
    return list(pivots), rows


def assert_matches_sympy(matrix):
    sympy = pytest.importorskip("sympy")
    ncols = len(matrix[0])
    result = row_reduce(sparse(matrix))
    pivots, rows = sympy_rref(sympy, matrix)
    assert [p for p, _ in result] == pivots
    assert [[row.get(j, 0) for j in range(ncols)] for _, row in result] == rows
    assert all(all(v != 0 for v in row.values()) for _, row in result)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_row_reduce_matches_sympy(matrix):
    assert_matches_sympy(matrix)


@settings(max_examples=200, deadline=None)
@given(matrices(entries=INTEGER_ENTRIES))
def test_row_reduce_matches_sympy_on_large_integers(matrix):
    assert_matches_sympy(matrix)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_row_reduce_ignores_row_order(matrix, data):
    order = data.draw(st.permutations(range(len(matrix))))
    shuffled = [matrix[i] for i in order]
    assert row_reduce(sparse(shuffled)) == row_reduce(sparse(matrix))


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_exact_solves_or_refutes(matrix, data):
    sympy = pytest.importorskip("sympy")
    nrows, ncols = len(matrix), len(matrix[0])
    target = data.draw(st.lists(ENTRIES, min_size=nrows, max_size=nrows))
    columns = [{i: matrix[i][j] for i in range(nrows) if matrix[i][j]}
               for j in range(ncols)]
    solution = solve_exact(columns, target)
    augmented = [row + [t] for row, t in zip(matrix, target)]
    rank = len(sympy_rref(sympy, matrix)[0])
    augmented_rank = len(sympy_rref(sympy, augmented)[0])
    if solution is None:
        assert augmented_rank > rank
    else:
        assert len(solution) == ncols
        assert all(sum(a * x for a, x in zip(row, solution)) == t
                   for row, t in zip(matrix, target))
