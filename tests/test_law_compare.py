"""report.compare checked against a brute-force reference.

The reference (conftest.compare_reference) lays both sides of a law out
with @ and kron and scans their columns in index order; compare reads the
difference of the sides along its shorter dimension through
exactlin.law_vectors.  Both must give the same verdict, witness and
lhs=/rhs= text on sides drawn by derandomized Hypothesis strategies: wide,
tall and square, over Q and F_p, with pairs (X, k) and (k, X), signed terms
that cancel, columns that are zero on one side only, and laws on no basis
inputs (col_dims ()); and dense sides over F_p whose lines reach the
packing floor, so that the kernel reads them as packed stages, mixed with
sparse stages, with unreduced entries, and over p = 2**31 - 1, where the
64-bit slot bound keeps dense factors sparse.
"""

from __future__ import annotations

import random
from fractions import Fraction
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from entwine import report  # noqa: E402
from entwine.exactlin import Field, Matrix, QQ, _push_packed, _stages, _terms, law_shape  # noqa: E402
from conftest import compare_reference as reference, layout, packed_stages  # noqa: E402

FIELDS = (QQ, Field(5), Field(7))
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


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


BIG = Field(2**31 - 1)
DENSE_FIELDS = (Field(2), Field(5), Field(7), BIG)


@st.composite
def dense_or_sparse(draw, field: Field, rows: int, cols: int) -> Matrix:
    """Mostly dense, about seven entries in eight nonzero and some unreduced (-1, p + 1); else about one in five."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = field.p
    if draw(st.integers(0, 3)) == 0:
        return Matrix(field, rows, cols, [rng.randrange(1, p) if rng.random() < 0.2 else 0
                                          for _ in range(rows * cols)])
    return Matrix(field, rows, cols, [rng.choice((0, -1, p + 1, *(rng.randrange(1, p) for _ in range(5))))
                                      for _ in range(rows * cols)])


@st.composite
def chains(draw, field: Field, dims):
    """Factors along dims[0] -> ... -> dims[-1]: Matrices, and pairs (X, k) or (k, X) with k dividing both ends."""
    factors = []
    for d_in, d_out in zip(dims, dims[1:]):
        k = draw(st.sampled_from([k for k in (1, 2) if d_in % k == 0 and d_out % k == 0]))
        x = draw(dense_or_sparse(field, d_out // k, d_in // k))
        factors.append(draw(st.sampled_from((x, (x, k), (k, x)) if k == 1 else ((x, k), (k, x)))))
    return tuple(factors)


@st.composite
def dense_laws(draw):
    """(lhs, rhs, col_dims) over F_p with lines of 16 entries or more in the direction compare reads."""
    field = draw(st.sampled_from(DENSE_FIELDS))
    shape = draw(st.sampled_from(("wide", "tall", "square")))
    small, big = st.integers(1, 4), st.sampled_from((16, 18, 32))
    if shape == "wide":
        rows, cols = draw(small), draw(big)
    elif shape == "tall":
        rows, cols = draw(big), draw(small)
    else:
        rows = cols = draw(big)

    def side():
        inner = draw(st.lists(st.sampled_from((2, 4, 16, 32)), min_size=1, max_size=2))
        return draw(chains(field, [cols, *inner, rows]))

    lhs, other = side(), side()
    kind = draw(st.sampled_from(("cancelling", "another", "bumped")))
    if kind == "cancelling":     # the same map, with two more terms that cancel
        rhs = [(1, other), (1, lhs), (-1, other)]
    elif kind == "another":
        rhs = draw(st.sampled_from((other, [(1, lhs), (-1, other)], [(-1, other)])))
    else:                        # one entry off by a nonzero scalar
        c = draw(st.sampled_from((1, -1, field.p + 1)))
        bump = Matrix.from_entries(field, rows, cols,
                                   [(draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)), c)])
        rhs = [(1, lhs), (1, bump)]
    if draw(st.booleans()):
        lhs, rhs = rhs, lhs
    col_dims = draw(st.sampled_from([None, (cols,)] + [(d, cols // d) for d in (2, 4) if cols % d == 0]))
    return lhs, rhs, col_dims


def packed_count(lhs, rhs) -> int:
    """How many stages the kernel itself packs when compare reads lhs - rhs."""
    _, rows, cols = law_shape(lhs)
    _, terms = _stages(_terms([(1, lhs), (-1, rhs)]), cols > rows)
    return sum(push.func is _push_packed for _, stages, last in terms for push in (*stages, last))


@SETTINGS
@given(dense_laws())
def test_compare_agrees_with_the_laid_out_reference_on_dense_sides(law):
    lhs, rhs, col_dims = law
    assert packed_count(lhs, rhs) == len(packed_stages(lhs, rhs))
    assert report.compare("op", "law", lhs, rhs, col_dims) == reference("op", "law", lhs, rhs, col_dims)


def test_the_dense_strategy_packs():
    """Enough drawn cases pack, and they pack every way the kernel can: the test cannot go vacuous."""
    seen, packing, drawn = set(), 0, 0

    @SETTINGS
    @given(dense_laws())
    def collect(law):
        nonlocal packing, drawn
        lhs, rhs, col_dims = law
        packed = packed_stages(lhs, rhs)
        _, rows, cols = law_shape(lhs)
        by_rows = cols > rows
        drawn += 1
        packing += bool(packed)
        for x, k, x_first in packed:
            seen.add(("packed", "(X, k)" if x_first else "(k, X)"))
            if any(not isinstance(v, int) or not 0 <= v < x.field.p for v in x.data):
                seen.add("unreduced entries packed")
        if packed:
            bad = reference("op", "law", lhs, rhs, col_dims)
            seen.add(("packed", "passes" if bad is None else "fails"))
            if bad is None and any(isinstance(s, list) and len(s) == 3 for s in (lhs, rhs)):
                seen.add("cancelling terms packed")
        for _, factors in _terms([(1, lhs), (-1, rhs)]):
            read = factors[-2::-1] if by_rows else factors[1:]
            flags = [f in packed for f in read]
            if any(flags) and not all(flags):
                seen.add("packed and sparse stages in one term")
            for x, k, x_first in read:
                dense = 2 * sum(1 for v in x.data if v % x.field.p) >= x.rows * x.cols
                if x.field == BIG and dense and (x.cols if by_rows else x.rows) >= 16 and (x, k, x_first) not in packed:
                    seen.add("the slot bound keeps a dense factor sparse")

    collect()
    assert 5 * packing >= 2 * drawn, (packing, drawn)
    assert {("packed", "(X, k)"), ("packed", "(k, X)"), ("packed", "passes"), ("packed", "fails"),
            "unreduced entries packed", "cancelling terms packed", "packed and sparse stages in one term",
            "the slot bound keeps a dense factor sparse"} <= seen, seen

