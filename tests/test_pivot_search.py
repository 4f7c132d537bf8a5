"""exactlin._eliminate against the plain pivot search (conftest.eliminate_by_min).

_eliminate tries the column after the last pivot first and reads the
leftmost entry of every row left only when no row holds that column; the
reference rebuilds min(row) of every row left at every pivot.  Both must
give the same pivots and the same rows, entry for entry and type for type,
on sparse systems over Q and F_p drawn by a derandomized Hypothesis
strategy: empty rows, repeated rows and multiples of earlier rows, free
columns between pivots, and right-hand-side columns at or past `width`
that no pivot may take.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from entwine.exactlin import Field, QQ, _eliminate, _whole  # noqa: E402
from conftest import eliminate_by_min  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def systems(draw):
    """(field, width, rows): up to 9 row dicts over width + 0..3 columns, the trailing ones right-hand sides."""
    field = draw(st.sampled_from((QQ, Field(2), Field(5), Field(7))))
    width = draw(st.integers(0, 8))
    ncols = width + draw(st.integers(0, 3))
    if field.p is None:
        scalar = st.one_of(st.integers(-3, 3).filter(bool), st.builds(Fraction, st.sampled_from((1, -1, 2)),
                                                                      st.sampled_from((2, 3))))
    else:
        scalar = st.integers(1, field.p - 1)
    rows: list[dict] = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(("sparse", "sparse", "sparse", "empty", "repeat", "multiple")))
        if kind == "empty" or not ncols:
            rows.append({})
        elif kind in ("repeat", "multiple") and rows:
            row = draw(st.sampled_from(rows))
            c = draw(scalar) if kind == "multiple" else 1
            rows.append({k: (c * v) % field.p if field.p else _whole(c * v) for k, v in row.items()})
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=min(ncols, 4)))
            rows.append({k: draw(scalar) for k in sorted(cols)})
    return field, width, rows


def typed(rows: list[dict]) -> list:
    """Each row's entries in index order, with the type of each value: an int and an equal Fraction differ."""
    return [sorted((k, type(v).__name__, v) for k, v in row.items()) for row in rows]


@SETTINGS
@given(systems())
def test_the_pivot_search_keeps_the_pivot_rule(system):
    field, width, rows = system
    ours, theirs = [dict(r) for r in rows], [dict(r) for r in rows]
    assert _eliminate(ours, field, width) == eliminate_by_min(theirs, field, width)
    assert typed(ours) == typed(theirs)


def test_the_strategy_reaches_every_case():
    """Empty and repeated rows, a free column before a later pivot, and rows left that hold only right-hand sides."""
    seen = set()

    @seed(1)
    @SETTINGS
    @given(systems())
    def collect(system):
        field, width, rows = system
        work = [dict(r) for r in rows]
        pivots = eliminate_by_min(work, field, width)
        seen.add(("Q" if field.p is None else "F_p", bool(pivots)))
        if any(not r for r in rows):
            seen.add("empty row")
        if any(rows[i] and rows[i] == rows[j] for i in range(len(rows)) for j in range(i)):
            seen.add("repeated row")
        if any(b - a > 1 for a, b in zip(pivots, pivots[1:])) or (pivots and pivots[0] > 0):
            seen.add("free column before a pivot")
        if any(work[len(pivots):]):
            seen.add("rows left hold only right-hand sides")
        if any(k >= width for r in rows for k in r):
            seen.add("right-hand-side column")

    collect()
    want = {("Q", True), ("F_p", True), ("Q", False), ("F_p", False), "empty row", "repeated row",
            "free column before a pivot", "rows left hold only right-hand sides", "right-hand-side column"}
    assert want <= seen, want - seen
