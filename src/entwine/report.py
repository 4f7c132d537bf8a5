"""Verification reports: pass, or the first broken law with a witness.

Every law is a row (axiom, lhs, rhs, basis dims), its sides compositions
of structure maps, and compare is the one checker that reads them.  A
failed report names the law, the basis indices it was evaluated at, and
both sides there as canonical sparse vectors {index: scalar}, so a
failure is always reproducible by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlin import Matrix, law_columns, sparse_render, unflat


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

    Each side is read one basis column at a time (exactlin.law_columns).
    The witness is the input basis multi-index, decoded from the column
    via the tensor index convention using col_dims; a law on no basis
    inputs, col_dims (), has one column and no witness.
    """
    if isinstance(lhs, Matrix) and lhs == rhs:   # laid out and equal: no column needs reading
        return None
    field, shape, left = law_columns(lhs)
    _, rshape, right = law_columns(rhs)
    if shape != rshape:
        raise AssertionError(f"{op}/{axiom}: comparing {shape[0]}x{shape[1]} with {rshape[0]}x{rshape[1]}")
    for j, (x, y) in enumerate(zip(left, right)):
        if x != y:
            witness = (j,) if col_dims is None else unflat(j, col_dims) or None
            return fail(op, axiom, witness=witness, lhs=sparse_render(x, field), rhs=sparse_render(y, field))
    return None


def first_failure(op: str, checks) -> Report:
    """Check (axiom, lhs, rhs, col_dims) laws in order; the first failure wins.

    checks may be a lazy generator: nothing after the first failure is
    evaluated.
    """
    for axiom, lhs, rhs, col_dims in checks:
        bad = compare(op, axiom, lhs, rhs, col_dims)
        if bad is not None:
            return bad
    return ok(op)
