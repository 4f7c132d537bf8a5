"""report.compare checked against a brute-force reference.

The reference (conftest.compare_reference) lays both sides of a law out
with @ and kron and scans their columns in index order; compare reads the
difference of the sides along its shorter dimension a block of vectors at
a time (exactlin._least_column).  Both must give the same verdict, witness and
lhs=/rhs= text on sides drawn by derandomized Hypothesis strategies: wide,
tall and square, over Q and F_p, with pairs (X, k) and (k, X), Permutations
of tensor factors beside them (laid out by conftest.perm_tensor) and read
by rows and by columns, signed terms that cancel, columns that are zero on
one side only, and laws on no basis inputs (col_dims ()); and dense sides over F_p whose lines reach the
packing floor, or stop one nonzero short of it, so that the kernel reads
them as packed stages, mixed with sparse stages, from entries drawn
unreduced, which Matrix stores reduced.
The primes put the packed slots on both sides of their edges: p = 127
packs 4 lines in 16-bit slots that byte tables reduce and 5 lines in
32-bit slots reduced one slot at a time; p = 131 is past the byte tables
in any slot; p = 2**31 - 1 packs at most 4 lines, in 64-bit slots, and
the last stages of two such terms overflow a shared slot.
The block reader is held to the same reference with the cap
(exactlin._BLOCK_ENTRIES) patched small, so that a law spans blocks: on
monomial sides whose keys fan in, on the drawn laws of every shape, at the
cap and one entry past it, on a tall law that differs in its last block or
stops early (both also through a packed last stage, which reads the same
blocks), on a wide law whose least differing column is in a later block
than its first difference, and on terms that cancel in every block.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, seed, settings, strategies as st  # noqa: E402

from entwine import report  # noqa: E402
from entwine import exactlin  # noqa: E402
from entwine.exactlin import Field, Matrix, Permutation, QQ, _packs, _plan, _push_packed, _stages  # noqa: E402
from conftest import (  # noqa: E402
    compare_reference as reference,
    law_shape,
    law_terms,
    law_vectors,
    layout,
    packed_stages,
    perm_tensor,
    zeros,
)

FIELDS = (QQ, Field(5), Field(7))
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)
# derandomize seeds a test's draws from a digest of its source, so the collecting functions of the two reach
# tests get fixed seeds: an edit to such a function must not change which cases it sees.  The cases that few
# seeds reach are pinned as examples (pinned_laws, pinned_dense_laws), so the reach tests hold for seeds 1-6
STRATEGY_SEED, DENSE_SEED = 4, 5


@st.composite
def matrices(draw, field: Field, rows: int, cols: int) -> Matrix:
    if field.p is None:
        scalar = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.sampled_from((2, 3))))
    else:
        scalar = st.integers(0, field.p - 1)
    entry = st.one_of(st.just(field.zero()), st.just(field.zero()), scalar)
    return Matrix(field, rows, cols, draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))


@st.composite
def permutations(draw, field: Field, width: int) -> Permutation:
    """A Permutation of F^width: width split into one to three tensor factors, mostly of 2 or more, in a drawn
    order."""
    dims = []
    for _ in range(draw(st.integers(0, 2))):
        split = [d for d in range(2, width) if width % d == 0] or [1]
        dims.append(draw(st.sampled_from(split)))
        width //= dims[-1]
    dims.append(width)
    return Permutation(field, dims, draw(st.permutations(range(len(dims)))))


@st.composite
def sides(draw, field: Field, rows: int, cols: int):
    """Factors from F^cols to F^rows: up to two pairs with an identity, each maybe after a Permutation, then a
    Matrix, maybe followed by a Permutation."""
    factors, width = [], cols
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            factors.append(draw(permutations(field, width)))
        k = draw(st.sampled_from([k for k in (1, 2, 3) if width % k == 0]))
        x = draw(matrices(field, draw(st.integers(1, 3)), width // k))
        factors.append(draw(st.sampled_from(((x, k), (k, x)))))
        width = x.rows * k
    factors.append(draw(matrices(field, rows, width)))
    if draw(st.booleans()):
        factors.append(draw(permutations(field, rows)))
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
        bump = zeros(field, rows, cols)
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


def pinned_laws() -> list:
    """One law for each case that test_the_strategy_reaches_every_case asserts, so that no seed can miss one.

    Wide, tall and square sides over Q and F_5 that pass through cancelling terms or fail by one entry; a
    column that the rhs zeroes; a law on no basis inputs.
    """
    out = []
    for field in (QQ, Field(5)):
        for rows, cols in ((1, 3), (3, 1), (2, 2)):
            x = Matrix(field, rows, cols, [field.of(t + 1) for t in range(rows * cols)])
            y = Matrix(field, rows, cols, [field.one()] * (rows * cols))
            bump = Matrix.from_entries(field, rows, cols, [(rows - 1, cols - 1, field.one())])
            out += [((x,), [(1, (y,)), (1, (x,)), (-1, (y,))], None), ((x,), [(1, (x,)), (1, (bump,))], (cols,))]
    x = Matrix(QQ, 2, 3, [1, 0, 2, 0, 3, 1])
    out.append(((x,), (Matrix.from_entries(QQ, 3, 3, [(0, 0, 1), (2, 2, 1)]), x), None))
    column = Matrix(QQ, 3, 1, [1, 0, 2])
    out.append(((column,), [(1, (column,)), (1, (Matrix(QQ, 3, 1, [0, 1, 0]),))], ()))
    return out + pinned_permutation_laws()


def pinned_permutation_laws() -> list:
    """The swap of C^2 (x) C^3, which is not its own inverse, beside a pair: read by rows in a wide law F^6 -> F^2
    and by columns in a square one, passing through cancelling terms or failing by one entry, over Q and F_5."""
    out = []
    for field in (QQ, Field(5)):
        swap = Permutation(field, (2, 3), (1, 0))
        x = Matrix(field, 1, 3, [1, field.of(-1), 2])
        y = Matrix(field, 3, 3, [field.of(t % 4 - 1) for t in range(9)])
        other = Matrix(field, 6, 6, [field.of(t % 3) for t in range(36)])
        for lhs, rows, cols, rest in (((swap, (x, 2)), 2, 6, ((x, 2),)), ((swap, (2, y)), 6, 6, (other,))):
            bump = Matrix.from_entries(field, rows, cols, [(rows - 1, 1, field.one())])
            out += [(lhs, [(1, rest), (1, lhs), (-1, rest)], None), (lhs, [(1, lhs), (1, bump)], (2, 3))]
    return out


def with_examples(cases):
    """Run a @given test on each of cases too, before the drawn ones."""
    def apply(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test
    return apply


@SETTINGS
@with_examples(pinned_laws())
@given(laws())
def test_compare_agrees_with_the_laid_out_reference(law):
    lhs, rhs, col_dims = law
    assert report.compare("op", "law", lhs, rhs, col_dims) == reference("op", "law", lhs, rhs, col_dims)


def test_the_strategy_reaches_every_case():
    """Wide, tall and square sides fail and pass over Q and F_p, and some fail on a column zero on one side."""
    seen = set()

    @seed(STRATEGY_SEED)
    @SETTINGS
    @with_examples(pinned_laws())
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
        for _, factors in _plan(lhs, rhs)[2]:
            for n, (x, _, _) in enumerate(factors):
                if isinstance(x, Permutation) and x.images(True) != x.images(False):   # not its own inverse
                    seen.add(("permutation", "read by rows" if left.cols > left.rows else "read by columns",
                              "passes" if bad is None else "fails"))
                    if any(k > 1 for _, k, _ in factors[max(n - 1, 0):n + 2]):
                        seen.add("permutation beside a pair")

    collect()
    want = {(shape, over_q, passes) for shape in ("wide", "tall", "square") for over_q in (True, False)
            for passes in (True, False)} | {"zero on one side", "no inputs", "cancelling terms"}
    want |= {("permutation", read, passes) for read in ("read by rows", "read by columns")
             for passes in ("passes", "fails")} | {"permutation beside a pair"}
    assert want <= seen, want - seen


@pytest.mark.parametrize("field", (QQ, Field(5)), ids=("Q", "F5"))
@pytest.mark.parametrize("dims, perm", [((2, 3), (1, 0)), ((2, 3, 2), (2, 0, 1)), ((3, 2, 2), (1, 2, 0)),
                                        ((2, 2, 3, 2), (0, 2, 1, 3))])
def test_a_permutation_reads_as_its_matrix(field, dims, perm):
    """A Permutation alone, and between pairs (X, k) and (k, Y), read by rows and by columns, gives the rows and
    the columns of its laid-out perm_tensor; none of these permutations is its own inverse."""
    rng = random.Random(repr((dims, perm)))
    p = Permutation(field, dims, perm)
    n = p.rows
    assert p.images(True) != p.images(False)
    x = Matrix(field, 3, n // 2, [rng.randrange(-2, 3) for _ in range(3 * n // 2)])
    y = Matrix(field, n // 2, 2, [rng.randrange(-2, 3) for _ in range(n)])
    for side in ((p,), ((2, y), p, (x, 2))):
        laid = layout(side)
        for by_rows in (True, False):
            vector = law_vectors(side, by_rows)
            for i in range(laid.rows if by_rows else laid.cols):
                line = laid.row(i) if by_rows else laid.col(i)
                assert vector(i) == {t: v for t, v in enumerate(line) if v}, (side, by_rows, i)
    assert layout((p,)) == perm_tensor(field, dims, perm)


BIG = Field(2**31 - 1)
DENSE_FIELDS = (Field(2), Field(5), Field(7), Field(127), Field(131), BIG)


def floor(count: int, width: int) -> int:
    """The fewest nonzeros on count lines of width entries that pack: 8 a line and one entry in 8."""
    return max(8 * count, -(-width * count // 8))


def pays(x: Matrix, by_rows: bool) -> bool:
    """The packing rule, stated apart from exactlin: wide lines, one in 8 nonzero, 8 a line, a 64-bit block bound."""
    p = x.field.p
    count, width = (x.rows, x.cols) if by_rows else (x.cols, x.rows)
    nonzeros = sum(1 for v in x.data if v % p)
    return width >= 16 and count * (p - 1) ** 2 < 2**64 and nonzeros >= floor(count, width)


@st.composite
def dense_or_sparse(draw, field: Field, rows: int, cols: int, by_rows: bool) -> Matrix:
    """Mostly dense, about seven entries in eight nonzero and some unreduced (-1, p + 1); else about one in five;
    else the packing floor of the lines read by_rows, or one nonzero less."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = field.p
    kind = draw(st.sampled_from(("dense", "dense", "sparse", "floor", "below the floor")))
    if kind == "sparse":
        return Matrix(field, rows, cols, [rng.randrange(1, p) if rng.random() < 0.2 else 0
                                          for _ in range(rows * cols)])
    if kind != "dense":
        count, width = (rows, cols) if by_rows else (cols, rows)
        at = set(rng.sample(range(rows * cols), min(rows * cols, floor(count, width) - (kind != "floor"))))
        return Matrix(field, rows, cols, [rng.randrange(1, p) if t in at else 0 for t in range(rows * cols)])
    return Matrix(field, rows, cols, [rng.choice((0, -1, p + 1, *(rng.randrange(1, p) for _ in range(5))))
                                      for _ in range(rows * cols)])


@st.composite
def chains(draw, field: Field, dims, by_rows: bool):
    """Factors along dims[0] -> ... -> dims[-1]: Matrices, and pairs (X, k) or (k, X) with k dividing both ends."""
    factors = []
    for d_in, d_out in zip(dims, dims[1:]):
        k = draw(st.sampled_from([k for k in (1, 2) if d_in % k == 0 and d_out % k == 0]))
        x = draw(dense_or_sparse(field, d_out // k, d_in // k, by_rows))
        factors.append(draw(st.sampled_from((x, (x, k), (k, x)) if k == 1 else ((x, k), (k, x)))))
    return tuple(factors)


@st.composite
def dense_laws(draw):
    """(lhs, rhs, col_dims) over F_p with lines of 16 entries or more in the direction compare reads."""
    field = draw(st.sampled_from(DENSE_FIELDS))
    shape = draw(st.sampled_from(("wide", "tall", "square")))
    small, big = st.integers(1, 5), st.sampled_from((16, 18, 32, 72))
    if shape == "wide":
        rows, cols = draw(small), draw(big)
    elif shape == "tall":
        rows, cols = draw(big), draw(small)
    else:
        rows = cols = draw(st.sampled_from((16, 18, 32)))

    def side():
        inner = draw(st.lists(st.sampled_from((2, 4, 5, 16, 32)), min_size=1, max_size=2))
        return draw(chains(field, [cols, *inner, rows], cols > rows))

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


def pinned_dense_laws() -> list:
    """Laws F^32 -> F^2 whose middle stage, count lines of 32 nonzeros, packs in each slot width that
    test_the_dense_strategy_packs asserts: p = 127 in 2 and 4 bytes, p = 131 in 2, p = 2**31 - 1 in 8."""
    out = []
    for p, count in ((127, 2), (127, 5), (131, 2), (BIG.p, 4)):
        f, rng = Field(p), random.Random(p * count)

        def dense(rows, cols):
            return Matrix(f, rows, cols, [rng.randrange(1, p) for _ in range(rows * cols)])

        lhs = (dense(32, 32), dense(count, 32), dense(2, count))   # read by rows: the 2 x count factor first
        out.append((lhs, [(1, lhs), (1, Matrix.from_entries(f, 2, 32, [(1, 31, 1)]))], None))
    return out


def packed_pushes(plan) -> list:
    """The packed stages of the terms _stages plans, each the partial of _push_packed that reads it."""
    return [stage for _, stages, last in plan for stage in (*stages, last)
            if isinstance(stage, partial) and stage.func is _push_packed]


def packed_count(lhs, rhs) -> int:
    """How many stages the kernel itself packs when compare reads lhs - rhs."""
    _, rows, cols = law_shape(lhs)
    _, plan, _, _ = _stages(_plan(lhs, rhs)[2], cols > rows)
    return len(packed_pushes(plan))


@SETTINGS
@with_examples(pinned_dense_laws())
@given(dense_laws())
def test_compare_agrees_with_the_laid_out_reference_on_dense_sides(law):
    lhs, rhs, col_dims = law
    assert packed_count(lhs, rhs) == len(packed_stages(lhs, rhs))
    assert report.compare("op", "law", lhs, rhs, col_dims) == reference("op", "law", lhs, rhs, col_dims)


def slot_bytes(bound: int) -> int:
    return next(size for size in (2, 4, 8) if bound < 256**size)


def test_the_dense_strategy_packs():
    """Enough drawn cases pack, and they pack every way the kernel can: the test cannot go vacuous."""
    seen, packing, drawn = set(), 0, 0

    @seed(DENSE_SEED)
    @SETTINGS
    @with_examples(pinned_dense_laws())
    @given(dense_laws())
    def collect(law):
        nonlocal packing, drawn
        lhs, rhs, col_dims = law
        packed = packed_stages(lhs, rhs)
        _, rows, cols = law_shape(lhs)
        by_rows = cols > rows
        p = law_shape(lhs)[0].p
        drawn += 1
        packing += bool(packed)
        bad = reference("op", "law", lhs, rhs, col_dims)
        for x, k, x_first in packed:
            seen.add(("packed", "(X, k)" if x_first else "(k, X)"))
            assert all(isinstance(v, int) and 0 <= v < p for v in x.data), "Matrix stores an entry unreduced"
        if packed:
            seen.add(("packed", "passes" if bad is None else "fails"))
            if bad is None and any(isinstance(s, list) and len(s) == 3 for s in (lhs, rhs)):
                seen.add("cancelling terms packed")
        last_bound, last_kinds = 0, set()
        for _, factors in _plan(lhs, rhs)[2]:
            read = factors[::-1] if by_rows else factors
            packs = [n > 0 and pays(x, by_rows) for n, (x, _, _) in enumerate(read)]
            for n, (x, _, _) in enumerate(read):
                assert _packs(x, by_rows) == pays(x, by_rows)
                count, width = (x.rows, x.cols) if by_rows else (x.cols, x.rows)
                nonzeros = sum(1 for v in x.data if v % p)
                if n and width >= 16 and count * (p - 1) ** 2 < 2**64 and nonzeros in (floor(count, width) - 1,
                                                                                      floor(count, width)):
                    seen.add("at the floor" if packs[n] else "below the floor")
                if n and width >= 16 and nonzeros >= floor(count, width) and count * (p - 1) ** 2 >= 2**64:
                    seen.add("the block bound keeps a paying factor sparse")
                if packs[n] and n < len(read) - 1:   # an intermediate stage, in slots of its own bound
                    seen.add((p, slot_bytes(count * (p - 1) ** 2)))
            if packs[-1]:   # packed last stages share slots that hold the sum of their block bounds
                x = read[-1][0]
                block = (x.rows if by_rows else x.cols) * (p - 1) ** 2
                packs[-1] = last_bound + block < 2**64
                last_bound += packs[-1] * block
                if not packs[-1]:
                    seen.add("a full shared slot keeps a last stage sparse")
            if len(read) > 1:
                last_kinds.add("packed" if packs[-1] else "sparse")
            if any(packs[1:]) and not all(packs[1:]):
                seen.add("packed and sparse stages in one term")
        if last_bound:
            seen.add((p, slot_bytes(last_bound)))
            if last_kinds == {"packed", "sparse"}:
                seen.add(("packed and sparse last stages in one law", "passes" if bad is None else "fails"))

    collect()
    assert 5 * packing >= 2 * drawn, (packing, drawn)
    want = {("packed", "(X, k)"), ("packed", "(k, X)"), ("packed", "passes"), ("packed", "fails"),
            "cancelling terms packed", "packed and sparse stages in one term",
            "at the floor", "below the floor", "the block bound keeps a paying factor sparse",
            (127, 2), (127, 4), (131, 2), (BIG.p, 8), "a full shared slot keeps a last stage sparse",
            ("packed and sparse last stages in one law", "passes"),
            ("packed and sparse last stages in one law", "fails")}
    assert want <= seen, want - seen


@pytest.mark.parametrize("by_rows", (True, False), ids=("rows", "columns"))
@pytest.mark.parametrize("width", (16, 72))   # 8 nonzeros a line bind at 16, one entry in 8 at 72
@pytest.mark.parametrize("short", (0, 1), ids=("at the floor", "one nonzero below"))
def test_the_packing_floor(by_rows, width, short):
    """A factor read after a term's first stage packs at the floor and not one nonzero below it."""
    f, rng = Field(7), random.Random(width)
    count = 4
    rows, cols = (count, width) if by_rows else (width, count)
    at = set(rng.sample(range(rows * cols), floor(count, width) - short))
    x = Matrix(f, rows, cols, [rng.randrange(1, 7) if t in at else 0 for t in range(rows * cols)])
    y = Matrix(f, 2, count, [rng.randrange(7) for _ in range(2 * count)]) if by_rows else \
        Matrix(f, count, 2, [rng.randrange(7) for _ in range(2 * count)])
    lhs = (x, y) if by_rows else (y, x)   # compare reads y first, then x
    bump = Matrix.from_entries(f, *law_shape(lhs)[1:], [(1, 1, 1)])
    rhs = [(1, lhs), (1, bump)]
    assert _packs(x, by_rows) is not bool(short) and pays(x, by_rows) is not bool(short)
    assert packed_stages(lhs, rhs) == ([] if short else [(x, 1, True)] * 2)   # in lhs and in rhs
    assert report.compare("op", "law", lhs, rhs) == reference("op", "law", lhs, rhs, None)


def test_the_byte_tables_stop_at_their_bound():
    """p = 127 reduces 16-bit slots by byte tables, 2 * 126 < 256, and 32-bit slots one slot at a time."""
    assert exactlin._byte_tables(127, 2) is not None
    assert exactlin._byte_tables(127, 4) is None and exactlin._byte_tables(131, 2) is None
    for p, size in ((127, 2), (2, 8), (7, 8), (127, 4), (131, 2), (BIG.p, 8)):
        rng = random.Random(p)
        values = [0, 1, p - 1, p, 256**size - 1, *(rng.randrange(256**size) for _ in range(20))]
        total = sum(v << (8 * size * t) for t, v in enumerate(values))
        assert list(exactlin._residues(total, len(values), size, p)) == [v % p for v in values]


def test_a_second_compare_packs_nothing_again(monkeypatch):
    """The packing decisions and the packed lines of a matrix are made once, not once per compare (Matrix._kernel).

    A sparse pair (X, k) reads the lines of X itself, so nothing is made for it.
    """
    f = Field(7)
    rng = random.Random(3)
    dense, other = (Matrix(f, 16, 16, [rng.randrange(1, 7) for _ in range(256)]) for _ in range(2))
    # read by columns: (dense, 4) is a term's first stage, read sparsely; then (4, other) and (dense, 4) pack
    lhs = ((dense, 4), (4, other), (dense, 4))
    rhs = [(1, lhs), (1, Matrix.from_entries(f, 64, 64, [(0, 0, 1)]))]
    lines = []
    real = exactlin._stages

    def stages(terms, by_rows):
        planned = real(terms, by_rows)
        lines.append([push.args[0] for push in packed_pushes(planned[1])])
        return planned

    monkeypatch.setattr(exactlin, "_stages", stages)
    first = report.compare("op", "law", lhs, rhs)
    assert first is not None and len(packed_stages(lhs, rhs)) == 4
    kept = {id(x): dict(x._kernel) for x in (dense, other)}

    def fails(*args):
        raise AssertionError("packed again")

    monkeypatch.setattr(exactlin, "_pack", fails)
    assert report.compare("op", "law", lhs, rhs) == first
    # a tall law is staged once a compare, and its witness columns are read from those stages
    assert len(lines) == 2 and len(lines[0]) == len(lines[1]) == 4
    assert all(a is b for a, b in zip(lines[0], lines[1]))   # the same packed lines are read
    for x in (dense, other):   # nothing was decided or made again
        assert x._kernel.keys() == kept[id(x)].keys() and all(x._kernel[k] is v for k, v in kept[id(x)].items())


# ---------------------------------------------------------------------------
# the block reader: _least_column reads max(1, _BLOCK_ENTRIES // w) vectors at a time, w the widest stage


def read_blocks(lhs, rhs) -> tuple[list, int]:
    """The (start, stop) of each block _least_column reads on lhs - rhs, in order, and the most keys a sparse stage
    of a block held or slots a packed one reduced."""
    _, rows, cols = law_shape(lhs)
    block, push, residues = exactlin._block, exactlin._push, exactlin._residues
    spans, most = [], 0

    def spy_block(*args):
        spans.append(args[-2:])
        return block(*args)

    def spy_push(*args):
        nonlocal most
        out = push(*args)
        most = max(most, len(out))
        return out

    def spy_residues(total, n, *args):
        nonlocal most
        most = max(most, n)
        return residues(total, n, *args)

    with mock.patch.object(exactlin, "_block", spy_block), mock.patch.object(exactlin, "_push", spy_push), \
            mock.patch.object(exactlin, "_residues", spy_residues):
        exactlin._least_column(_plan(lhs, rhs)[2], cols > rows, rows, cols)
    return spans, most


@st.composite
def monomials(draw, field: Field, rows: int, cols: int, by_rows: bool) -> Matrix:
    """A matrix whose lines read by_rows (its rows, else its columns) hold at most one entry each, most of them at
    the first two indices, so that several lines land on one index (fan-in)."""
    count, width = (rows, cols) if by_rows else (cols, rows)
    entries = []
    for line in range(count):
        if width and draw(st.integers(0, 3)):
            at = draw(st.one_of(st.integers(0, min(width, 2) - 1), st.integers(0, width - 1)))
            c = draw(st.sampled_from((1, -1, 2))) if field.p is None else draw(st.integers(1, field.p - 1))
            entries.append((line, at, c) if by_rows else (at, line, c))
    return Matrix.from_entries(field, rows, cols, entries)


@st.composite
def monomial_laws(draw):
    """(lhs, rhs, col_dims) whose every factor is monomial in the direction compare reads: wide or tall, passing
    through cancelling terms or apart by a bumped entry."""
    field = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.sampled_from(((2, 6), (3, 12), (8, 2), (12, 4), (6, 6))))
    by_rows = cols > rows

    def side():
        factors, width = [], cols
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.sampled_from([k for k in (1, 2, 3) if width % k == 0]))
            x = draw(monomials(field, draw(st.integers(1, 4)), width // k, by_rows))
            factors.append(draw(st.sampled_from(((x, k), (k, x)))))
            width = x.rows * k
        factors.append(draw(monomials(field, rows, width, by_rows)))
        return tuple(factors)

    lhs, other = side(), side()
    kind = draw(st.sampled_from(("cancelling", "another", "bumped")))
    if kind == "cancelling":
        rhs = [(1, other), (1, lhs), (-1, other)]
    elif kind == "another":
        rhs = other
    else:
        bump = Matrix.from_entries(field, rows, cols,
                                   [(draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)), 1)])
        rhs = [(1, lhs), (1, bump)]
    return lhs, rhs, draw(st.sampled_from((None, (cols,))))


def pinned_fan_in() -> list:
    """Four rows of a wide monomial side land on one column, two by two on another after a pair; over Q and F_5."""
    out = []
    for field in (QQ, Field(5)):
        x = Matrix.from_entries(field, 2, 6, [(0, 0, 1), (0, 1, -1), (1, 0, 2), (1, 3, 1)])   # read by rows
        y = Matrix.from_entries(field, 6, 6, [(t, t % 2, 1) for t in range(6)])
        lhs = (y, x)
        out += [(lhs, [(1, lhs), (1, Matrix.from_entries(field, 2, 6, [(1, 5, 1)]))], (2, 3)),
                (lhs, [(1, (y, y, x)), (1, lhs), (-1, (y, y, x))], None)]
    return out


@SETTINGS
@with_examples([(law, cap) for law in pinned_fan_in() for cap in (1, 4096)])
@given(st.tuples(monomial_laws(), st.sampled_from((1, 2, 5, 12, 4096))))
def test_compare_agrees_on_monomial_sides_in_blocks(case):
    """Monomial sides, whose keys fan in to shared indices, give compare's verdict and witness in blocks of any
    size (the cap drawn beside the law): one vector, a few, the whole law."""
    (lhs, rhs, col_dims), cap = case
    with mock.patch.object(exactlin, "_BLOCK_ENTRIES", cap):
        assert report.compare("op", "law", lhs, rhs, col_dims) == reference("op", "law", lhs, rhs, col_dims)


MONOMIAL_SEED = 6


def test_the_monomial_strategy_reaches_fan_in():
    """Drawn monomial laws pass and fail, wide and tall, over Q and F_p, and some factor lands two of the lines
    compare reads on one index."""
    seen = set()

    @seed(MONOMIAL_SEED)
    @SETTINGS
    @given(monomial_laws())
    def collect(law):
        lhs, rhs, col_dims = law
        field, rows, cols = law_shape(lhs)
        by_rows = cols > rows
        seen.add(("wide" if by_rows else "tall", field.p is None,
                  "passes" if reference("op", "law", lhs, rhs, col_dims) is None else "fails"))
        for _, factors in _plan(lhs, rhs)[2]:
            for x, _, _ in factors:
                lines = x._rows if by_rows else exactlin.columns_of(x)
                assert all(len(line) <= 1 for line in lines)
                landed = [t for line in lines for t in line]
                if len(landed) > len(set(landed)):
                    seen.add("fan-in")

    collect()
    want = {(shape, over_q, verdict) for shape in ("wide", "tall") for over_q in (True, False)
            for verdict in ("passes", "fails")} | {"fan-in"}
    assert want <= seen, want - seen


@SETTINGS
@with_examples([(law, 3) for law in pinned_laws()])
@given(st.tuples(laws(), st.sampled_from((1, 3, 8, 20))))
def test_compare_agrees_when_a_law_spans_blocks(case):
    """The drawn laws of every shape, read with a cap (drawn beside the law) that splits them into two or more
    blocks: the same verdict, witness and text, cancelling terms and laws on no basis inputs (col_dims ())
    included."""
    (lhs, rhs, col_dims), cap = case
    with mock.patch.object(exactlin, "_BLOCK_ENTRIES", cap):
        assert report.compare("op", "law", lhs, rhs, col_dims) == reference("op", "law", lhs, rhs, col_dims)


def dense_wide(field: Field, rows: int, cols: int, rng: random.Random) -> Matrix:
    return Matrix(field, rows, cols, [rng.randrange(1, 5) for _ in range(rows * cols)])


# tall laws whose last stage packs (packed_tall): the field, the count of X's columns, the form of the pair, and,
# in a law of the side beside a copy of it, the slot bytes that the packed last stages share and how many pack
PACKED_TALL = {f"F{p} {form}": (Field(p), count, form, size, packed)
               for p, count, size, packed in ((127, 2, 2, 2), (131, 5, 4, 2), (BIG.p, 4, 8, 1))
               for form in ("(X, k)", "(k, X)")}


def packed_tall(law: str, rng: random.Random) -> tuple:
    """A tall side F^10 -> F^32 whose last stage packs: a dense F^10 -> F^(2 * count), then (X, 2) or (2, X) for a
    dense 16 x count X, so its widest stage is 32 wide.  Beside a copy of itself, its packed last stages share 2-byte
    slots over F_127, which byte tables reduce, 4-byte ones over F_131, reduced one slot at a time, and 8-byte ones
    over F_(2**31 - 1), where the copy's last stage overflows the shared slot and is read sparsely."""
    field, count, form, _, _ = PACKED_TALL[law]
    p = field.p
    a = Matrix(field, 2 * count, 10, [rng.randrange(1, p) for _ in range(20 * count)])
    x = Matrix(field, 16, count, [rng.randrange(1, p) for _ in range(16 * count)])
    return a, (x, 2) if form == "(X, k)" else (2, x)


@pytest.mark.parametrize("law", ("Q", "F7", *PACKED_TALL))
@pytest.mark.parametrize("past", (0, 1), ids=("at the cap", "one past it"))
def test_a_block_holds_at_most_the_cap(law, past):
    """A dense tall side F^10 -> F^12 through F^6 holds 12 entries a vector at its widest stage: with the cap at
    3 * 12 a block reads 3 vectors and holds exactly the cap; one entry past it, a block reads 2.  A side F^10 -> F^32
    whose last stage packs (packed_tall) reads 3 or 2 vectors a block the same way, at a cap of 3 * 32 or one less,
    and its packed stage reduces 32 slots a vector.  Either way it agrees with the reference, passing and failing."""
    if law in PACKED_TALL:
        field, rng = PACKED_TALL[law][0], random.Random(law)
        lhs = packed_tall(law, rng)
    else:
        field = QQ if law == "Q" else Field(7)
        rng = random.Random(repr(field))
        lhs = (dense_wide(field, 6, 10, rng), dense_wide(field, 12, 6, rng))
    rows = law_shape(lhs)[1]   # the widest stage
    rhs = [(1, lhs), (1, zeros(field, rows, 10))]
    bump = [(1, lhs), (1, Matrix.from_entries(field, rows, 10, [(rows - 1, 9, 1)]))]
    with mock.patch.object(exactlin, "_BLOCK_ENTRIES", 3 * rows - past):
        spans, most = read_blocks(lhs, rhs)
        step = 3 - past
        assert spans == [(start, min(start + step, 10)) for start in range(0, 10, step)]
        assert most == rows * step <= exactlin._BLOCK_ENTRIES
        if law in PACKED_TALL:
            _, _, _, size, packed = PACKED_TALL[law]
            assert packed_count(lhs, rhs) == packed and _stages(_plan(lhs, rhs)[2], False)[2] == size
        assert report.compare("op", "law", lhs, rhs) is None and reference("op", "law", lhs, rhs, None) is None
        assert report.compare("op", "law", lhs, lhs) is None
        assert report.compare("op", "law", lhs, bump, (2, 5)) == reference("op", "law", lhs, bump, (2, 5))


def test_the_cap_at_its_edge():
    """With the cap as it is, a side whose widest stage is w reads _BLOCK_ENTRIES // w vectors at a time: 2 at a
    width of half the cap, 1 at one more, and 1 past the cap; no pair is laid out to find it.  Dense columns of
    half the cap fill a block of two to the cap; one entry longer, a block holds one."""
    cap = exactlin._BLOCK_ENTRIES
    half = cap // 2
    for width, step in ((half, 2), (half + 1, 1), (cap, 1), (cap + 1, 1), (half // 2, 4)):
        x = Matrix.from_entries(QQ, 1, 1, [(0, 0, 1)])
        assert exactlin._stages(law_terms(((x, width),)), False)[3] == step   # kron(x, id_width), read by columns
    for rows, step in ((half, 2), (half + 1, 1)):
        x = Matrix(QQ, rows, 4, [1 + t % 3 for t in range(4 * rows)])    # tall: four dense columns
        bump = Matrix.from_entries(QQ, rows, 4, [(rows - 1, 3, 1)])
        spans, most = read_blocks((x,), [(1, (x,))])
        assert spans == [(start, start + step) for start in range(0, 4, step)] and most == rows * step <= cap
        assert report.compare("op", "law", (x,), [(1, (x,)), (1, bump)], (2, 2)) == \
            reference("op", "law", (x,), [(1, (x,)), (1, bump)], (2, 2))


@pytest.mark.parametrize("law", ("Q", "F5", *PACKED_TALL))
@pytest.mark.parametrize("column", (9, 4))
def test_a_tall_law_stops_at_the_first_block_that_differs(law, column):
    """Blocks of 3 columns of a tall law F^10 -> F^12, or F^10 -> F^32 through a packed last stage (packed_tall): a
    difference in column 9, the last block, is found there; one in column 4 stops the reading after the second
    block."""
    rng = random.Random(column)
    if law in PACKED_TALL:
        field = PACKED_TALL[law][0]
        lhs = packed_tall(law, rng)
    else:
        field = QQ if law == "Q" else Field(5)
        lhs = (dense_wide(field, 6, 10, rng), dense_wide(field, 12, 6, rng))
    rows = law_shape(lhs)[1]   # the widest stage
    rhs = [(1, lhs), (1, Matrix.from_entries(field, rows, 10, [(0, column, 1), (5, 9, 1)]))]
    with mock.patch.object(exactlin, "_BLOCK_ENTRIES", 3 * rows):
        spans, _ = read_blocks(lhs, rhs)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)][:column // 3 + 1]
        assert packed_count(lhs, rhs) == (PACKED_TALL[law][4] if law in PACKED_TALL else 0)
        got = report.compare("op", "law", lhs, rhs, (10,))
    assert got == reference("op", "law", lhs, rhs, (10,)) and got.witness == (column,)


@pytest.mark.parametrize("field", (QQ, Field(5)), ids=("Q", "F5"))
def test_a_wide_law_finds_its_least_column_in_a_later_block(field):
    """Rows 0-1 of a wide law F^12 -> F^6 differ first, at column 7; row 5, in the last block of two rows, differs
    at column 2, which is the least differing column and the witness."""
    rng = random.Random(6)
    lhs = (dense_wide(field, 4, 12, rng), dense_wide(field, 6, 4, rng))
    rhs = [(1, lhs), (1, Matrix.from_entries(field, 6, 12, [(0, 7, 1), (5, 2, 1), (3, 9, 1)]))]
    with mock.patch.object(exactlin, "_BLOCK_ENTRIES", 24):     # the widest stage is 12 wide: two rows a block
        spans, _ = read_blocks(lhs, rhs)
        assert spans == [(0, 2), (2, 4), (4, 6)]
        got = report.compare("op", "law", lhs, rhs, (3, 4))
    assert got == reference("op", "law", lhs, rhs, (3, 4)) and got.witness == (0, 2)


@pytest.mark.parametrize("field", (QQ, Field(5)), ids=("Q", "F5"))
def test_terms_cancel_in_every_block(field):
    """A tall law whose rhs adds two terms that cancel, each term read through a pair and a Permutation, passes in
    blocks of one, two and five columns, and fails at the bumped column."""
    rng = random.Random(7)
    x, y = dense_wide(field, 4, 4, rng), dense_wide(field, 2, 2, rng)
    swap = Permutation(field, (2, 4), (1, 0))
    lhs = ((x, 2), swap, (4, y))                       # F^8 -> F^8 -> F^8 -> F^8
    other = ((2, x.transpose()), (y, 4))
    rhs = [(1, other), (1, lhs), (-1, other)]
    bump = Matrix.from_entries(field, 8, 8, [(3, 6, field.of(-1))])
    for cap in (8, 16, 40):
        with mock.patch.object(exactlin, "_BLOCK_ENTRIES", cap):
            assert len(read_blocks(lhs, rhs)[0]) == -(-8 // (cap // 8))
            assert report.compare("op", "law", lhs, rhs, (2, 4)) is None
            assert reference("op", "law", lhs, rhs, (2, 4)) is None
            bad = [(1, other), (1, lhs), (-1, other), (1, bump)]
            assert report.compare("op", "law", lhs, bad, (2, 4)) == reference("op", "law", lhs, bad, (2, 4))


@pytest.mark.parametrize("field", (QQ, Field(5)), ids=("Q", "F5"))
def test_a_law_on_no_basis_inputs_reads_one_block(field):
    """col_dims (): one column, one block, no witness; the failure text is that column of each side."""
    x = Matrix(field, 3, 1, [1, 0, 2])
    one = [(1, (x,)), (1, Matrix(field, 3, 1, [0, 1, 0]))]
    assert read_blocks((x,), one)[0] == [(0, 1)]
    got = report.compare("op", "law", (x,), one, ())
    assert got == reference("op", "law", (x,), one, ()) and got.witness is None
    assert report.compare("op", "law", (x,), [(1, (x,)), (1, (x,)), (-1, (x,))], ()) is None


@pytest.mark.parametrize("field", (QQ, Field(5)), ids=("Q", "F5"))
@pytest.mark.parametrize("cap", (6, 40, 4096))
def test_each_factor_form_reads_as_its_layout_in_blocks(field, cap):
    """A pair (k, X) or (X, k), a Permutation and a Matrix, each a term's first stage and a later one, read by
    columns (tall) and by rows (wide) in blocks of several vectors, agree with the laid-out side on every column,
    and a bump in the last column is found there."""
    rng = random.Random(repr((field, cap)))

    def dense(rows, cols):
        return Matrix(field, rows, cols, [rng.randrange(-2, 3) for _ in range(rows * cols)])

    x = dense(3, 2)
    sides = []
    for f in ((2, x), (x, 2), Permutation(field, (2, 3), (1, 0)), dense(6, 4)):
        r, c = law_shape((f,))[1:]
        sides += [(f,),                     # tall, alone
                  (f, dense(r + 2, r)),     # tall, read first by columns
                  (dense(c, r + 2), f),     # wide, read first by rows
                  (dense(c, 2), f),         # tall, read second by columns
                  (f, dense(2, r))]         # wide, read second by rows
    for side in sides:
        laid = layout(side)
        bump = Matrix.from_entries(field, laid.rows, laid.cols, [(laid.rows - 1, laid.cols - 1, 1)])
        with mock.patch.object(exactlin, "_BLOCK_ENTRIES", cap):
            assert report.compare("op", "law", side, laid) is None, side
            assert report.compare("op", "law", side, [(1, laid), (1, bump)]) == \
                reference("op", "law", side, [(1, laid), (1, bump)], None)


def test_compare_plans_each_side_once(monkeypatch):
    """compare splits and shape-checks each side once (exactlin._split), whether the law passes or fails, and
    stages it once, by its shorter dimension; a wide law that fails is staged by columns a second time, for its
    witness column, and a tall one reads its witness from the stages it was read by."""
    split, stages = exactlin._split, exactlin._stages
    sides, staged = [], []
    monkeypatch.setattr(exactlin, "_split", lambda side, *args: sides.append(side) or split(side, *args))
    monkeypatch.setattr(exactlin, "_stages", lambda terms, by_rows: staged.append(by_rows) or stages(terms, by_rows))
    rng = random.Random(5)

    def dense(rows, cols):
        return Matrix(QQ, rows, cols, [rng.randrange(1, 4) for _ in range(rows * cols)])

    for rows, cols, by_rows in ((5, 3, False), (2, 6, True)):
        a, b = dense(4, cols), dense(rows, 4)
        bump = Matrix.from_entries(QQ, rows, cols, [(rows - 1, cols - 1, 1)])
        lhs = (a, b)
        for rhs, fails in (([(1, (a, b))], False), ([(1, (a, b)), (1, bump)], True)):
            sides.clear()
            staged.clear()
            got = report.compare("op", "law", lhs, rhs, (cols,))
            assert got == reference("op", "law", lhs, rhs, (cols,)) and (got is not None) == fails
            assert [s is lhs for s in sides].count(True) == 1 and [s is rhs for s in sides].count(True) == 1
            assert staged == ([by_rows, False] if fails and by_rows else [by_rows])
