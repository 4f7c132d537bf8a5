"""Verification reports: pass, or the first broken law with a witness.

A failed report names the law, the basis indices it was evaluated at, and
both evaluated sides rendered as canonical scalar vectors, so a failure is
always reproducible by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlin import Matrix, columns_of, sparse_render, unflat


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


def render_column(m: Matrix, j: int) -> str:
    fmt = m.field.fmt
    return "(" + ", ".join(fmt(x) for x in m.col(j)) + ")"


def compare(op: str, axiom: str, lhs: Matrix, rhs: Matrix, col_dims=None) -> Report | None:
    """None when lhs = rhs; otherwise a failure at the first differing column.

    The witness is the input basis multi-index, decoded from the column
    via the tensor index convention using col_dims.
    """
    if lhs.rows != rhs.rows or lhs.cols != rhs.cols:
        raise AssertionError(f"{op}/{axiom}: comparing {lhs.rows}x{lhs.cols} with {rhs.rows}x{rhs.cols}")
    if lhs == rhs:
        return None
    for j, (x, y) in enumerate(zip(columns_of(lhs), columns_of(rhs))):
        if x != y:
            witness = unflat(j, col_dims) if col_dims else (j,)
            return fail(op, axiom, witness=witness,
                        lhs=render_column(lhs, j), rhs=render_column(rhs, j))
    return None


def first_failure(op: str, checks) -> Report:
    """Run (axiom, lhs, rhs, col_dims) comparisons in order; first failure wins."""
    for axiom, lhs, rhs, col_dims in checks:
        bad = compare(op, axiom, lhs, rhs, col_dims)
        if bad is not None:
            return bad
    return ok(op)


def first_sparse_failure(op: str, laws, field) -> Report:
    """Check (axiom, witness, lhs, rhs) sparse vectors in order; first failure wins.

    Both sides must be canonical (see exactlin.sparse_combine), so they are
    compared as plain dicts.  laws may be a lazy generator: nothing after
    the first failure is evaluated.
    """
    for axiom, witness, lhs, rhs in laws:
        if lhs != rhs:
            return fail(op, axiom, witness=witness,
                        lhs=sparse_render(lhs, field), rhs=sparse_render(rhs, field))
    return ok(op)
