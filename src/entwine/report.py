"""Verification reports: pass, or the first broken law with a witness.

A verifier is rows that first_failure reads in order: its components
(part, report) first, then its laws (axiom, lhs, rhs, basis dims), whose
sides are compositions of structure maps that compare reads along the
shorter dimension, by rows or by columns, a block of vectors at a time
(exactlin._least_column, at most exactlin._BLOCK_ENTRIES entries a
block), sparsely or, for dense laws over F_p, sliced.  A failed report
names the law, as part[axiom] for a component's, the basis indices of
the least differing column, and both sides there as canonical sparse
vectors {index: scalar}, so a failure is always reproducible by hand.
A handed law is stated once, right-handed; mirror gives its left row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlin import (DimensionMismatch, Matrix, Permutation, _least_column, _plan, _witness_columns,
                       sparse_render, unflat)


@dataclass(frozen=True)
class Report:
    op: str
    passed: bool
    axiom: str | None = None
    witness: tuple[int, ...] | None = None
    lhs: str | None = None
    rhs: str | None = None
    details: tuple[tuple[str, str], ...] = field(default=())

    def __bool__(self) -> bool:
        return self.passed

    def detail(self, key: str) -> str | None:
        for k, v in self.details:
            if k == key:
                return v
        return None

    def summary(self) -> str:
        if self.passed:
            extra = "".join(f" {k}={v}" for k, v in self.details)
            return f"{self.op}: PASS{extra}"
        parts = [f"{self.op}: FAIL {self.axiom}"]
        if self.witness is not None:
            parts.append(f"at basis {self.witness}")
        if self.lhs is not None:
            parts.append(f"lhs={self.lhs}")
        if self.rhs is not None:
            parts.append(f"rhs={self.rhs}")
        parts.extend(f"{k}={v}" for k, v in self.details)
        return " ".join(parts)


def ok(op: str, **details) -> Report:
    return Report(op, True, details=tuple((k, str(v)) for k, v in details.items()))


def fail(op: str, axiom: str, witness=None, lhs=None, rhs=None, **details) -> Report:
    return Report(op, False, axiom=axiom,
                  witness=tuple(witness) if witness is not None else None,
                  lhs=lhs, rhs=rhs,
                  details=tuple((k, str(v)) for k, v in details.items()))


class CheckError(Exception):
    """A verification that is part of a constructor's contract failed."""

    def __init__(self, report: Report):
        super().__init__(report.summary())
        self.report = report


def require(rep: Report) -> None:
    """Raise CheckError unless the report passed, for checks a constructor guarantees."""
    if not rep.passed:
        raise CheckError(rep)


def within(op: str, part: str, rep: Report) -> Report:
    """A failed report of a component, reported again by op under the axiom part[axiom]."""
    return fail(op, f"{part}[{rep.axiom}]", witness=rep.witness, lhs=rep.lhs, rhs=rep.rhs)


class ClosureViolation(CheckError):
    """A chosen pair of dual subobjects does not close under the dual map."""


def compare(op: str, axiom: str, lhs, rhs, col_dims=None) -> Report | None:
    """None when the two sides of a law agree; otherwise a failure at the first differing column.

    One planning pass (exactlin._plan) splits each side into its terms and
    checks its shape, once; the difference lhs - rhs is then staged and
    read along its shorter dimension, a block of vectors at a time
    (exactlin._least_column): by rows when it is wide (more columns than
    rows), by columns otherwise.  A block holds at most
    exactlin._BLOCK_ENTRIES entries at any stage unless a single vector is
    wider.  A dense law over F_p, on blocks of at least
    exactlin._SLICED_VECTORS vectors, is read sliced (exactlin._sliced),
    vector v in slot v of one int per index, each slot at or below (p - 1)
    times (p - 1) times the fan-in of each stage, summed over the terms;
    any other law sparsely (exactlin._block).  A wide law that fails is
    read to its last row for the least differing column; a tall one stops
    at the first block that differs.  Then that column of each side is
    read sparsely for the report from the same terms, and a tall law's
    stages are reused (exactlin._witness_columns).  The witness is the
    input basis multi-index, decoded from the column via the tensor index
    convention using col_dims; a law on no basis inputs, col_dims (), has
    one column and no witness.
    """
    if isinstance(lhs, Matrix) and lhs == rhs:   # laid out and equal: no vector needs reading
        return None
    (field, rows, cols), (rfield, rrows, rcols), terms, split = _plan(lhs, rhs)
    if (rrows, rcols) != (rows, cols):
        raise AssertionError(f"{op}/{axiom}: comparing {rows}x{cols} with {rrows}x{rcols}")
    if rfield is not field and rfield != field:
        raise DimensionMismatch("the terms of a law side differ in shape or field")
    by_rows = cols > rows
    j, staged = _least_column(terms, by_rows, rows, cols)
    if j is None:
        return None
    left, right = _witness_columns(terms, split, None if by_rows else staged, rows, j)
    witness = (j,) if col_dims is None else unflat(j, col_dims) or None
    return fail(op, axiom, witness=witness, lhs=sparse_render(left, field), rhs=sparse_render(right, field))


def mirror(row: tuple) -> tuple:
    """The left law of a right-handed law row: the row read with every tensor product reversed.

    A pair (X, k) becomes (k, X), a Permutation the same permutation of
    the reversed factors, and col_dims is reversed; a Matrix is kept, as
    left data is stored in its own index order.  The result is the left
    law up to the order of stages on independent tensor factors, so the
    same matrix.  A side is a Matrix or a tuple of factors, as in every
    handed row.
    """
    def flip(f):
        if isinstance(f, Permutation):
            n = len(f.perm)
            return Permutation(f.field, f.dims[::-1], [n - 1 - a for a in reversed(f.perm)])
        return f if isinstance(f, Matrix) else f[::-1]

    axiom, lhs, rhs, col_dims = row
    return axiom, *(s if isinstance(s, Matrix) else tuple(map(flip, s)) for s in (lhs, rhs)), col_dims[::-1]


def first_failure(op: str, rows) -> Report:
    """Check rows in order; the first failure wins.

    A row is a component (part, report), failing as part[axiom] with the
    component's witness and sides, or a law (axiom, lhs, rhs, col_dims)
    read by compare along its shorter dimension.  rows may be a lazy
    generator, one yield per row: nothing after the first failure is
    evaluated.
    """
    for row in rows:
        if len(row) == 2:
            part, rep = row
            bad = None if rep.passed else within(op, part, rep)
        else:
            bad = compare(op, *row)
        if bad is not None:
            return bad
    return ok(op)
