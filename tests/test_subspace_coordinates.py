"""Subspace.coordinates reads a block of columns at the pivots of an RREF basis; express solves for them.

Both must give the same coordinates, or the same first column outside the
span, on random subspaces over Q and F_p: 0-dimensional ones, zero
columns, and columns in and out of the span.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from entwine.exactlin import Field, Matrix, QQ, Subspace, express  # noqa: E402

FIELDS = (QQ, Field(5), Field(7))


def scalars(field):
    if field.p is None:
        return st.fractions(-3, 3, max_denominator=3).map(lambda x: x.numerator if x.denominator == 1 else x)
    return st.integers(0, field.p - 1)


@st.composite
def subspaces(draw):
    """(subspace, vectors): an RREF span of up to four rows, and columns that are zero, in it, off it or drawn at
    random."""
    field = draw(st.sampled_from(FIELDS))
    ambient = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(scalars(field), min_size=ambient, max_size=ambient), max_size=4))
    s = Subspace.from_matrix_rows(Matrix(field, len(rows), ambient, [x for r in rows for x in r]))
    free = [c for c in range(ambient) if c not in s.pivots]
    columns = []
    for kind in draw(st.lists(st.sampled_from(("zero", "inside", "outside", "random")), max_size=5)):
        if kind == "zero":
            columns.append(Matrix(field, ambient, 1, [0] * ambient))
        elif kind in ("inside", "outside"):
            coeffs = draw(st.lists(scalars(field), min_size=s.dim, max_size=s.dim))
            v = s.basis.transpose() @ Matrix(field, s.dim, 1, coeffs)
            if kind == "outside" and free:   # a vector of the span moved off it at a column without a pivot
                v = v + Matrix.basis_column(field, ambient, draw(st.sampled_from(free)))
            columns.append(v)
        else:
            columns.append(Matrix(field, ambient, 1, draw(st.lists(scalars(field), min_size=ambient,
                                                                   max_size=ambient))))
    return s, Matrix.from_columns(field, ambient, columns)


def q(rows, cols, entries):
    return Matrix(QQ, rows, cols, entries)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(subspaces())
# a 0-dimensional subspace, against a zero column and then a nonzero one
@example((Subspace.from_matrix_rows(q(0, 3, [])), q(3, 2, [0, 0, 0, 0, 0, 1])))
# span{(1, 0, 1/2), (0, 1, 0)}: a column inside, one outside, a zero column, and no column at all
@example((Subspace.from_matrix_rows(q(2, 3, [2, 0, 1, 0, 3, 0])), q(3, 3, [1, 0, 0, 5, 1, 0, Fraction(1, 2), 1, 0])))
@example((Subspace.from_matrix_rows(q(1, 2, [1, 1])), q(2, 0, [])))
def test_pivot_read_agrees_with_express(case):
    s, vectors = case
    got = s.coordinates(vectors)
    assert got == express(s.basis, vectors)
    x, bad = got
    if x is not None:
        assert s.basis.transpose() @ x == vectors
    else:
        assert not s.contains(vectors.col_matrix(bad))
        assert all(s.contains(vectors.col_matrix(j)) for j in range(bad))


def test_shape_is_checked():
    s = Subspace.full(QQ, 2)
    with pytest.raises(ValueError):
        s.coordinates(q(3, 1, [1, 0, 0]))
