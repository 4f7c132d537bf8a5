"""Exact elimination checked against an independent oracle: sympy's DomainMatrix.

rref, rank, kernel, solve_linear, invert and express are compared with
sympy over QQ, GF(5) and GF(7) on matrices drawn by a derandomized
Hypothesis strategy: 0-row and 0-column shapes, full-rank and
rank-deficient matrices, and right-hand sides with several columns that
are consistent or not.  Each answer is checked by a property the oracle
decides on its own (RREF equality, A X = B, ranks), never by running
exactlin a second way.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from entwine.exactlin import Field, Matrix, QQ, express, invert, kernel, rank, rref, solve_linear  # noqa: E402
from conftest import col_matrix, zeros  # noqa: E402

FIELDS = (QQ, Field(5), Field(7))
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80)


def domain(field: Field):
    return sympy.QQ if field.p is None else sympy.GF(field.p, symmetric=False)


def to_dm(m: Matrix) -> DomainMatrix:
    k = domain(m.field)
    if m.field.p is None:
        rows = [[k(m[i, j].numerator, m[i, j].denominator) for j in range(m.cols)] for i in range(m.rows)]
    else:
        rows = [[k(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), k)


def from_dm(field: Field, d: DomainMatrix) -> Matrix:
    rows, cols = d.shape
    if field.p is None:
        entries = [Fraction(int(x.numerator), int(x.denominator)) for r in d.to_list() for x in r]
    else:
        entries = [int(x) % field.p for r in d.to_list() for x in r]
    return Matrix(field, rows, cols, entries)


def oracle_rref(d: DomainMatrix) -> tuple[DomainMatrix, tuple[int, ...]]:
    """sympy's RREF with its zero rows dropped, as exactlin.rref returns it."""
    r, pivots = d.rref()
    return r.extract(list(range(len(pivots))), list(range(d.shape[1]))), tuple(pivots)


def oracle_row_space(d: DomainMatrix, cols: int) -> DomainMatrix:
    """Canonical RREF basis of the row space of d, a matrix with `cols` columns."""
    if d.shape[0] == 0:
        return DomainMatrix.zeros((0, cols), d.domain)
    return oracle_rref(d)[0]


@st.composite
def matrices(draw, field=None, rows=None, cols=None):
    """A matrix over QQ, GF(5) or GF(7): sparse random, or a product of lower rank."""
    field = field if field is not None else draw(st.sampled_from(FIELDS))
    rows = rows if rows is not None else draw(st.integers(0, 5))
    cols = cols if cols is not None else draw(st.integers(0, 5))
    if field.p is None:
        # plain ints too, as exactlin keeps whole numbers, so rows mix int and Fraction and pivots reach +-2..4
        scalar = st.one_of(st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 1, 2, 3))),
                           st.integers(-4, 4))
    else:
        scalar = st.integers(0, field.p - 1)
    zero_or = st.one_of(st.just(field.zero()), scalar)

    def plain(r, c):
        return Matrix(field, r, c, draw(st.lists(zero_or, min_size=r * c, max_size=r * c)))

    if draw(st.booleans()):
        return plain(rows, cols)
    inner = draw(st.integers(0, max(0, min(rows, cols) - 1)))
    return plain(rows, inner) @ plain(inner, cols)


@st.composite
def systems(draw):
    """(A, B) with B of 0-3 columns, built as A Y (consistent) or drawn freely."""
    a = draw(matrices())
    k = draw(st.integers(0, 3))
    if draw(st.booleans()):
        return a, a @ draw(matrices(a.field, a.cols, k))
    return a, draw(matrices(a.field, a.rows, k))


def assert_solution(a: Matrix, b: Matrix, x: Matrix):
    """A X = B by the oracle's product, and X is zero on every free variable of A."""
    assert (x.rows, x.cols) == (a.cols, b.cols)
    assert from_dm(a.field, to_dm(a) * to_dm(x)) == b
    pivots = set(oracle_rref(to_dm(a))[1])
    for i in range(a.cols):
        if i not in pivots:
            assert all(a.field.is_zero(x[i, j]) for j in range(x.cols))


def check_rref(m: Matrix):
    got, pivots = rref(m)
    want, want_pivots = oracle_rref(to_dm(m))
    assert pivots == want_pivots
    assert got == from_dm(m.field, want)
    assert rank(m) == to_dm(m).rank()


def check_kernel(m: Matrix):
    got = kernel(m)
    assert got.ambient == m.cols
    assert got.basis == from_dm(m.field, oracle_row_space(to_dm(m).nullspace(), m.cols))


def check_solve(a: Matrix, b: Matrix):
    sol = solve_linear(a, b)
    rank_a = to_dm(a).rank()
    if to_dm(a).hstack(to_dm(b)).rank() > rank_a:
        assert sol is None
        return
    assert sol is not None
    assert_solution(a, b, sol)


def check_invert(m: Matrix):
    got = invert(m)
    if to_dm(m).rank() < m.rows:
        assert got is None
    else:
        assert got == from_dm(m.field, to_dm(m).inv())


def check_express(basis: Matrix, vectors: Matrix):
    x, bad = express(basis, vectors)
    span = to_dm(basis)
    for j in range(vectors.cols):
        if span.vstack(to_dm(col_matrix(vectors, j).transpose())).rank() > span.rank():
            assert (x, bad) == (None, j)
            return
    assert bad is None
    assert_solution(basis.transpose(), vectors, x)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 2)], ids=str)
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_degenerate_shapes(field, shape):
    rows, cols = shape
    zero = zeros(field, rows, cols)
    check_rref(zero)
    check_kernel(zero)
    for k in (0, 2):
        check_solve(zero, zeros(field, rows, k))
        check_express(zero, zeros(field, cols, k))
    if rows:
        check_solve(zero, Matrix.identity(field, rows))
    if cols:
        check_express(zero, Matrix.identity(field, cols))
    if rows == cols:
        check_invert(zero)
        check_invert(Matrix.identity(field, rows))


@SETTINGS
@given(matrices())
def test_rref_and_rank(m):
    check_rref(m)


@SETTINGS
@given(matrices())
def test_kernel(m):
    check_kernel(m)


@SETTINGS
@given(systems())
def test_solve_linear(system):
    check_solve(*system)


@SETTINGS
@given(st.integers(0, 4).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_invert(m):
    check_invert(m)


@SETTINGS
@given(matrices().flatmap(lambda basis: st.tuples(
    st.just(basis),
    st.one_of(
        matrices(basis.field, basis.rows, 3).map(lambda c: basis.transpose() @ c),
        matrices(basis.field, basis.cols, 3),
    ))))
def test_express(case):
    check_express(*case)
