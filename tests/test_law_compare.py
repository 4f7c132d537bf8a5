"""report.compare checked against a brute-force reference.

The reference lays both sides of a law out with @ and kron and scans their
columns in index order; compare reads the difference of the sides along
its shorter dimension through exactlin.law_vectors.  Both must give the same verdict,
witness and lhs=/rhs= text on sides drawn by a derandomized Hypothesis
strategy: wide, tall and square, over Q and F_p, with pairs (X, k) and
(k, X), signed terms that cancel, columns that are zero on one side only,
and laws on no basis inputs (col_dims ()).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from entwine import report  # noqa: E402
from entwine.exactlin import Field, Matrix, QQ  # noqa: E402
from conftest import layout  # noqa: E402

FIELDS = (QQ, Field(5), Field(7))
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def reference(op: str, axiom: str, lhs, rhs, col_dims):
    """The first column, in index order, where the laid-out sides differ, as compare reports it."""
    left, right = layout(lhs), layout(rhs)
    field = left.field
    for j in range(left.cols):
        x, y = left.col(j), right.col(j)
        if x != y:
            if col_dims is None:
                witness = (j,)
            else:
                witness = tuple(j // prod(col_dims[k + 1:]) % col_dims[k] for k in range(len(col_dims))) or None

            def text(column):
                return "{" + ", ".join(f"{i}: {field.fmt(v)}" for i, v in enumerate(column)
                                       if not field.is_zero(v)) + "}"

            return report.fail(op, axiom, witness=witness, lhs=text(x), rhs=text(y))
    return None


@st.composite
def matrices(draw, field: Field, rows: int, cols: int) -> Matrix:
    if field.p is None:
        scalar = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.sampled_from((2, 3))))
    else:
        scalar = st.integers(0, field.p - 1)
    entry = st.one_of(st.just(field.zero()), st.just(field.zero()), scalar)
    return Matrix(field, rows, cols, draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))


@st.composite
def sides(draw, field: Field, rows: int, cols: int):
    """Factors from F^cols to F^rows: up to two pairs with an identity, then a Matrix."""
    factors, width = [], cols
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.sampled_from([k for k in (1, 2, 3) if width % k == 0]))
        x = draw(matrices(field, draw(st.integers(1, 3)), width // k))
        factors.append(draw(st.sampled_from(((x, k), (k, x)))))
        width = x.rows * k
    factors.append(draw(matrices(field, rows, width)))
    return tuple(factors)


@st.composite
def laws(draw):
    """(lhs, rhs, col_dims) of one shape: rhs equal to lhs through cancelling terms, or apart from it."""
    field = draw(st.sampled_from(FIELDS))
    shape = draw(st.sampled_from(("wide", "tall", "square", "no inputs")))
    if shape == "wide":
        rows = draw(st.integers(0, 3))
        cols = draw(st.integers(rows + 1, rows + 8))
    elif shape == "tall":
        cols = draw(st.integers(0, 3))
        rows = draw(st.integers(cols + 1, cols + 8))
    elif shape == "square":
        rows = cols = draw(st.integers(0, 5))
    else:
        rows, cols = draw(st.integers(0, 4)), 1
    lhs = draw(sides(field, rows, cols))
    other = draw(sides(field, rows, cols))
    kind = draw(st.sampled_from(("cancelling", "cancelling", "another", "masked", "bumped")))
    if kind == "cancelling":     # the same map, with two more terms that cancel
        rhs = [(1, other), (1, lhs), (-1, other)]
    elif kind == "another":
        rhs = draw(st.sampled_from((other, [(1, lhs), (-1, other)], [(-1, other)])))
    elif kind == "masked":       # some columns of lhs zeroed, so they are zero on one side only
        keep = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
        mask = Matrix.from_entries(field, cols, cols, [(j, j, field.one()) for j in range(cols) if keep[j]])
        rhs = (mask, *lhs)
    else:                        # one entry off by a nonzero scalar
        bump = Matrix.zeros(field, rows, cols)
        if rows and cols:
            c = draw(matrices(field, 1, 1))[0, 0] or field.one()
            bump = Matrix.from_entries(field, rows, cols,
                                       [(draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)), c)])
        rhs = [(1, lhs), (1, bump)]
    if draw(st.booleans()):
        lhs, rhs = rhs, lhs
    if shape == "no inputs":
        col_dims = ()
    else:
        col_dims = draw(st.sampled_from([None, (cols,)] + [(d, cols // d) for d in range(2, cols) if cols % d == 0]))
    return lhs, rhs, col_dims


@SETTINGS
@given(laws())
def test_compare_agrees_with_the_laid_out_reference(law):
    lhs, rhs, col_dims = law
    assert report.compare("op", "law", lhs, rhs, col_dims) == reference("op", "law", lhs, rhs, col_dims)


def test_the_strategy_reaches_every_case():
    """Wide, tall and square sides fail and pass over Q and F_p, and some fail on a column zero on one side."""
    seen = set()

    @SETTINGS
    @given(laws())
    def collect(law):
        lhs, rhs, col_dims = law
        left, right = layout(lhs), layout(rhs)
        shape = "wide" if left.cols > left.rows else "tall" if left.cols < left.rows else "square"
        bad = reference("op", "law", lhs, rhs, col_dims)
        seen.add((shape, left.field.p is None, bad is None))
        if bad is not None and "{}" in (bad.lhs, bad.rhs):
            seen.add("zero on one side")
        if col_dims == () and bad is not None:
            seen.add("no inputs")
        if any(isinstance(side, list) and len(side) == 3 for side in (lhs, rhs)) and bad is None:
            seen.add("cancelling terms")

    collect()
    for shape in ("wide", "tall", "square"):
        for over_q in (True, False):
            assert (shape, over_q, True) in seen and (shape, over_q, False) in seen
    assert {"zero on one side", "no inputs", "cancelling terms"} <= seen
