"""Algebras, coalgebras, bialgebras and Hopf algebras by structure constants,
with modules, comodules, convolution, duals, measuring pairings and rational
submodules.

All structure maps are exactlin matrices, which hold only their nonzeros,
in the tensor index convention of exactlin: multiplication is dim x dim^2,
comultiplication is dim^2 x dim, a right action M (x) A -> M is
dim_M x (dim_M * dim_A), a right coaction M -> M (x) C is
(dim_M * dim_C) x dim_M, and the left ones A (x) M -> M and M -> C (x) M
are dim_M x (dim_A * dim_M) and (dim_C * dim_M) x dim_M.  A left law is
its right row read through report.mirror.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import chain
from math import prod

from .exactlin import (
    DimensionMismatch,
    Field,
    Matrix,
    Permutation,
    PresentationError,
    Subspace,
    _axis_offsets,
    _offsets,
    express,
    kernel,
    kron,
    nonzeros,
    permute,
    rank,
    solve_linear,
)
from . import report
from .report import Report

STRUCTURE_KINDS = ("algebra", "coalgebra", "bialgebra", "hopf")


@dataclass(frozen=True)
class StructurePresentation:
    """An algebra, coalgebra, bialgebra or Hopf algebra on a chosen basis; _passed is kept by verify_structure."""

    kind: str
    field: Field
    dim: int
    labels: tuple[str, ...]
    mul: Matrix | None = None
    unit: Matrix | None = None
    comul: Matrix | None = None
    counit: Matrix | None = None
    antipode: Matrix | None = None
    _passed: set = dataclass_field(default_factory=set, init=False, repr=False, compare=False)

    @property
    def has_algebra(self) -> bool:
        return self.mul is not None

    @property
    def has_coalgebra(self) -> bool:
        return self.comul is not None

    def identity_matrix(self) -> Matrix:
        return Matrix.identity(self.field, self.dim)


def default_labels(dim: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(dim))


# Sparse quadruples (i, j, k, c) add c to the entry Q[i, j, k] of a 3-axis
# tensor; each layout is the permute() carrying Q to a structure map's matrix:
# the matrix's axes, named by the axes of Q, and how many of them are row axes.
QUAD_LAYOUTS = {
    "mul": ((2, 0, 1), 1),             # e_i e_j gains c e_k: mul[k, (i, j)]
    "comul": ((1, 2, 0), 2),           # Delta(e_i) gains c e_j (x) e_k: comul[(j, k), i]
    "right-action": ((2, 0, 1), 1),    # m_i . a_j gains c m_k: action[k, (i, j)]
    "left-action": ((2, 1, 0), 1),     # a_j . m_i gains c m_k: action[k, (j, i)]
    "right-coaction": ((1, 2, 0), 2),  # rho(m_i) gains c m_j (x) c_k: coaction[(j, k), i]
    "left-coaction": ((2, 1, 0), 2),   # rho(m_i) gains c c_k (x) m_j: coaction[(k, j), i]
}


def matrix_from_quads(field: Field, layout: str, dims, quads, values=None) -> Matrix:
    """The layout's matrix: each quadruple's scalar summed, once, at the entry permute() carries Q[i, j, k] to.

    The entry's row and column are read off one table per index and
    layout, cached by shape (exactlin._axis_offsets), so no Q is laid out
    and each quadruple is placed in one pass (Matrix.from_quads).  values
    holds the quadruples' scalars when the caller has read them, canonical
    (over F_p, already in [0, p)); without them each quadruple's own
    scalar is taken, reduced mod p first over F_p.  An index outside dims
    raises PresentationError.
    """
    perm, nrows = QUAD_LAYOUTS[layout]
    dims = tuple(dims)
    if values is None:
        quads, p = list(quads), field.p
        values = [c for *_, c in quads] if p is None else [c % p for *_, c in quads]
    try:
        return Matrix.from_quads(field, prod(dims[a] for a in perm[:nrows]), prod(dims[a] for a in perm[nrows:]),
                                 _axis_offsets(dims, perm, nrows), quads, values)
    except PresentationError as exc:
        raise PresentationError(f"{layout} {exc}") from None


def quads_from_matrix(m: Matrix, layout: str, dims) -> list[tuple]:
    """The nonzero entries of m as quadruples (i, j, k, c), in lexicographic order.

    The inverse of matrix_from_quads: each stored entry (exactlin.nonzeros)
    at (r, s) is at offset (i * d1 + j) * d2 + k of Q, the row's offset plus
    the column's along the layout's strides (exactlin._offsets), so no Q is
    laid out; sorting the offsets sorts the quadruples, and divmod decodes
    them.
    """
    perm, nrows = QUAD_LAYOUTS[layout]
    axes, back = tuple(dims[a] for a in perm), tuple(map(perm.index, range(3)))
    row_at, col_at = _offsets(axes, back, range(nrows)), _offsets(axes, back, range(nrows, 3))
    d12, d2 = dims[1] * dims[2], dims[2]
    out = []
    for t, v in sorted((row_at[r] + col_at[s], v) for r, s, v in nonzeros(m)):
        i, jk = divmod(t, d12)
        out.append((i, *divmod(jk, d2), v))
    return out


def mul_from_triples(field: Field, dim: int, triples) -> Matrix:
    """Sparse (i, j, k, c): e_i * e_j gains c * e_k."""
    return matrix_from_quads(field, "mul", (dim, dim, dim), triples)


def comul_from_triples(field: Field, dim: int, triples) -> Matrix:
    """Sparse (i, j, k, c): Delta(e_i) gains c * e_j (x) e_k."""
    return matrix_from_quads(field, "comul", (dim, dim, dim), triples)


def _scalar(field: Field, c):
    if isinstance(c, int):
        return field.of(c)
    return c


def make_structure(kind: str, field: Field, dim: int, labels=None, *, mul=None, unit=None,
                   comul=None, counit=None, antipode=None) -> StructurePresentation:
    """Assemble a presentation from sparse constants and vectors.

    mul/comul accept sparse triples or ready matrices; unit/counit accept
    coefficient sequences or ready matrices.
    """
    if kind not in STRUCTURE_KINDS:
        raise PresentationError(f"unknown structure kind {kind!r}")
    labels = tuple(labels) if labels is not None else default_labels(dim)
    if len(labels) != dim:
        raise PresentationError("label count must match dimension")
    if mul is not None and not isinstance(mul, Matrix):
        mul = mul_from_triples(field, dim, mul)
    if comul is not None and not isinstance(comul, Matrix):
        comul = comul_from_triples(field, dim, comul)
    if unit is not None and not isinstance(unit, Matrix):
        unit = Matrix.column(field, [_scalar(field, c) for c in unit])
    if counit is not None and not isinstance(counit, Matrix):
        counit = Matrix(field, 1, dim, [_scalar(field, c) for c in counit])
    pres = StructurePresentation(kind, field, dim, labels, mul, unit, comul, counit, antipode)
    _check_shapes(pres)
    return pres


def _check_shapes(p: StructurePresentation):
    n = p.dim
    need_alg = p.kind in ("algebra", "bialgebra", "hopf")
    need_coalg = p.kind in ("coalgebra", "bialgebra", "hopf")
    if need_alg and (p.mul is None or p.unit is None):
        raise PresentationError(f"{p.kind} needs mul and unit")
    if need_coalg and (p.comul is None or p.counit is None):
        raise PresentationError(f"{p.kind} needs comul and counit")
    if p.kind == "algebra" and (p.comul is not None or p.counit is not None or p.antipode is not None):
        raise PresentationError("algebra carries no coalgebra data")
    if p.kind == "coalgebra" and (p.mul is not None or p.unit is not None or p.antipode is not None):
        raise PresentationError("coalgebra carries no algebra data")
    if p.kind == "bialgebra" and p.antipode is not None:
        raise PresentationError("bialgebra carries no antipode; use kind 'hopf'")
    if p.kind == "hopf" and p.antipode is None:
        raise PresentationError("hopf presentation needs an antipode")
    for m, r, c, what in ((p.mul, n, n * n, "mul"), (p.unit, n, 1, "unit"),
                          (p.comul, n * n, n, "comul"), (p.counit, 1, n, "counit"),
                          (p.antipode, n, n, "antipode")):
        if m is not None:
            if m.field != p.field:
                raise PresentationError(f"{what} is over the wrong field")
            if (m.rows, m.cols) != (r, c):
                raise DimensionMismatch(f"{what} must be {r}x{c}, got {m.rows}x{m.cols}")


@dataclass(frozen=True)
class ModulePresentation:
    """A space with an action and/or a coaction over fixed structures."""

    dim: int
    algebra: StructurePresentation | None = None
    action: Matrix | None = None
    action_side: str = "right"
    coalgebra: StructurePresentation | None = None
    coaction: Matrix | None = None
    coaction_side: str = "right"

    def __post_init__(self):
        for side in (self.action_side, self.coaction_side):
            if side not in ("left", "right"):
                raise PresentationError(f"unknown side {side!r}")
        if self.action is not None:
            if self.algebra is None:
                raise PresentationError("action without algebra")
            n, a = self.dim, self.algebra.dim
            if (self.action.rows, self.action.cols) != (n, n * a):
                raise DimensionMismatch(f"action must be {n}x{n * a}")
        if self.coaction is not None:
            if self.coalgebra is None:
                raise PresentationError("coaction without coalgebra")
            n, c = self.dim, self.coalgebra.dim
            if (self.coaction.rows, self.coaction.cols) != (n * c, n):
                raise DimensionMismatch(f"coaction must be {n * c}x{n}")


# ---------------------------------------------------------------------------
# verification


def _algebra_checks(p: StructurePresentation):
    n, mul, unit = p.dim, p.mul, p.unit
    yield ("associativity", ((mul, n), mul), ((n, mul), mul), (n, n, n))
    yield ("left-unit", ((unit, n), mul), p.identity_matrix(), (n,))
    yield ("right-unit", ((n, unit), mul), p.identity_matrix(), (n,))


def _coalgebra_checks(p: StructurePresentation):
    n, comul, counit = p.dim, p.comul, p.counit
    yield ("coassociativity", (comul, (comul, n)), (comul, (n, comul)), (n,))
    yield ("left-counit", (comul, (counit, n)), p.identity_matrix(), (n,))
    yield ("right-counit", (comul, (n, counit)), p.identity_matrix(), (n,))


def _bialgebra_checks(p: StructurePresentation):
    """The laws that tie the multiplication to the comultiplication, read after the algebra and coalgebra laws."""
    n, mul, unit, comul, counit = p.dim, p.mul, p.unit, p.comul, p.counit
    # Delta(a b) = Delta(a) Delta(b): (mul (x) mul) . (id (x) swap (x) id) . (comul (x) comul)
    yield ("comul-multiplicative", (mul, comul),
           ((n, comul), (comul, n * n), Permutation(p.field, (n, n, n, n), (0, 2, 1, 3)), (n * n, mul), (mul, n)),
           (n, n))
    yield ("comul-unit", (unit, comul), (unit, (unit, n)), (1,))
    yield ("counit-multiplicative", (mul, counit), ((n, counit), counit), (n, n))
    yield ("counit-unit", (unit, counit), Matrix(p.field, 1, 1, [p.field.one()]), (1,))


def _hopf_checks(p: StructurePresentation):
    """antipode-left, S * id = unit, read after the bialgebra laws; id * S = unit (antipode-right) is implied.

    Hom(H, H) is then a finite-dimensional algebra under convolution, where
    S * id = unit makes id * - injective, so id * T = unit for some T, and
    T = (S * id) * T = S * (id * T) = S.
    """
    yield ("antipode-left", (p.comul, (p.antipode, p.dim), p.mul), (p.counit, p.unit), (p.dim,))


_LAW_GROUPS = {"algebra": _algebra_checks, "coalgebra": _coalgebra_checks,
               "bialgebra": _bialgebra_checks, "hopf": _hopf_checks}
# the law groups each kind reads, in order
_KIND_LAWS = {"algebra": ("algebra",), "coalgebra": ("coalgebra",), "bialgebra": STRUCTURE_KINDS[:3],
              "hopf": STRUCTURE_KINDS}


def verify_structure(kind: str | None, pres) -> Report:
    """Exhaustive check of the defining laws on basis elements.

    kind defaults to the presentation's own kind; for ModulePresentation use
    'module', 'comodule' or None for both of the parts it carries.  A law
    that the laws before it imply is not read (_hopf_checks).  The law
    groups of a passed verification are kept in pres._passed, as Matrix
    keeps _kernel, and not read again: as an algebra after hopf passed,
    nothing is read, and as hopf after bialgebra passed, antipode-left
    alone.  A skipped row would pass again on the same immutable maps, so
    no report changes; dataclasses.replace starts the record empty.
    """
    if isinstance(pres, ModulePresentation):
        return _verify_module(kind, pres)
    if kind is None:
        kind = pres.kind
    if kind not in _KIND_LAWS:
        raise PresentationError(f"unknown kind {kind!r}")
    if kind != "coalgebra" and (pres.mul is None or pres.unit is None):
        raise PresentationError(f"{kind} verification needs mul and unit")
    if kind != "algebra" and (pres.comul is None or pres.counit is None):
        raise PresentationError(f"{kind} verification needs comul and counit")
    if kind == "hopf" and pres.antipode is None:
        raise PresentationError("hopf verification needs an antipode")
    groups = [group for group in _KIND_LAWS[kind] if group not in pres._passed]
    rep = report.first_failure(f"verify_structure[{kind}]", chain.from_iterable(_LAW_GROUPS[g](pres) for g in groups))
    if rep.passed:
        pres._passed.update(groups)
    return rep


def _module_checks(m: ModulePresentation):
    a, n, act = m.algebra, m.dim, m.action
    rows = [("action-associativity", ((act, a.dim), act), ((n, a.mul), act), (n, a.dim, a.dim)),
            ("action-unit", ((n, a.unit), act), Matrix.identity(a.field, n), (n,))]
    return rows if m.action_side == "right" else map(report.mirror, rows)


def _comodule_checks(m: ModulePresentation):
    c, n, coact = m.coalgebra, m.dim, m.coaction
    rows = [("coaction-coassociativity", (coact, (coact, c.dim)), (coact, (n, c.comul)), (n,)),
            ("coaction-counit", (coact, (n, c.counit)), Matrix.identity(c.field, n), (n,))]
    return rows if m.coaction_side == "right" else map(report.mirror, rows)


def _verify_module(kind: str | None, m: ModulePresentation) -> Report:
    checks = []
    if kind in (None, "module"):
        if m.action is None and kind == "module":
            raise PresentationError("no action to verify")
        if m.action is not None:
            checks.extend(_module_checks(m))
    if kind in (None, "comodule"):
        if m.coaction is None and kind == "comodule":
            raise PresentationError("no coaction to verify")
        if m.coaction is not None:
            checks.extend(_comodule_checks(m))
    return report.first_failure(f"verify_structure[{kind or 'module+comodule'}]", checks)


# ---------------------------------------------------------------------------
# convolution


def convolution_unit(c: StructurePresentation, a: StructurePresentation) -> Matrix:
    return a.unit @ c.counit


def convolution(c: StructurePresentation, a: StructurePresentation, f: Matrix, g: Matrix) -> Matrix:
    """f * g = mul . (f (x) g) . comul for f, g : C -> A."""
    for m in (f, g):
        if (m.rows, m.cols) != (a.dim, c.dim):
            raise DimensionMismatch(f"expected {a.dim}x{c.dim} map from C to A")
    return a.mul @ kron(f, g) @ c.comul


def convolution_inverse(c: StructurePresentation, a: StructurePresentation, f: Matrix) -> Matrix | None:
    """The convolution inverse of f, or None: g with f * g = unit, by exact linear algebra.

    g -> f * g is the matrix T[(z, w), (y, x)] = sum_u P[z, (u, y)] comul[(u, x), w]
    with P = mul (f (x) id_A), built as one contraction over u, and
    f * g = unit is solved once for g[y, x].  C must be a verified
    coalgebra and A a verified algebra, as every caller ensures; Hom(C, A)
    is then a finite-dimensional algebra under convolution, where a right
    inverse is two-sided, so g * f = unit holds.
    """
    if (f.rows, f.cols) != (a.dim, c.dim):
        raise DimensionMismatch(f"expected {a.dim}x{c.dim} map from C to A")
    na, nc = a.dim, c.dim
    mf = permute(a.mul @ kron(f, a.identity_matrix()), (na, nc, na), (0, 2, 1), 2)    # P as [(z, y), u]
    t = mf @ permute(c.comul, (nc, nc, nc), (0, 1, 2), 1)                            # [(z, y), (x, w)]
    t = permute(t, (na, na, nc, nc), (0, 3, 1, 2), 2)                                # [(z, w), (y, x)]
    g = solve_linear(t, Matrix.from_columns(a.field, na * nc, [convolution_unit(c, a)]))
    return None if g is None else g.reshape(na, nc)


def compute_antipode(h: StructurePresentation) -> Matrix | None:
    """Antipode as the two-sided convolution inverse of the identity map.

    h is read as a bialgebra first; a failed law raises CheckError with its witness.
    """
    report.require(verify_structure("bialgebra", h))
    return convolution_inverse(h, h, h.identity_matrix())


# ---------------------------------------------------------------------------
# duals


def dualize_structure(kind: str | None, pres):
    """Transpose the structure constants onto the dual space.

    algebra -> coalgebra, coalgebra -> algebra, bialgebra -> bialgebra,
    hopf -> hopf; a module dualizes to a module on the other side, and a
    C-comodule to a C*-module on its own side, whose action is the
    coaction transposed.
    """
    if isinstance(pres, ModulePresentation):
        return _dualize_module(pres)
    if kind is None:
        kind = pres.kind
    if kind not in STRUCTURE_KINDS:
        raise PresentationError(f"unknown kind {kind!r}")
    if kind == "hopf" and pres.antipode is None:
        raise PresentationError("hopf presentation needs an antipode")
    parts = {}  # the maps the kind reads, each transposed onto the dual: comul^T is the dual's mul
    if kind != "algebra":
        parts.update(mul=pres.comul, unit=pres.counit)
    if kind != "coalgebra":
        parts.update(comul=pres.mul, counit=pres.unit)
    if kind == "hopf":
        parts.update(antipode=pres.antipode)
    return make_structure({"algebra": "coalgebra", "coalgebra": "algebra"}.get(kind, kind), pres.field, pres.dim,
                          tuple(f"{name}*" for name in pres.labels),
                          **{name: x.transpose() for name, x in parts.items() if x is not None})


def dual_action_on_dual(action: Matrix, mdim: int, adim: int, side: str) -> Matrix:
    """Action induced on M*: a right action gives (a.h)(m) = h(m.a) on the left,
    a left action gives (h.a)(m) = h(a.m) on the right."""
    if side == "right":  # action[r, (s, j)] -> out[s, (j, r)]
        return permute(action, (mdim, mdim, adim), (1, 2, 0), 1)
    if side == "left":  # action[r, (j, s)] -> out[s, (r, j)]
        return permute(action, (mdim, adim, mdim), (2, 0, 1), 1)
    raise PresentationError(f"unknown side {side!r}")


def coaction_to_dual_action(coaction: Matrix, mdim: int, cdim: int) -> Matrix:
    """The left C*-action f . m = sum m_0 f(m_1) carried by a right coaction."""
    # coaction[(k, j), i] -> out[k, (j, i)]
    return permute(coaction, (mdim, cdim, mdim), (0, 1, 2), 1)


def _dualize_module(m: ModulePresentation) -> ModulePresentation:
    """M* of a module (the other side) or of a comodule (a C*-module on the coaction's side)."""
    if m.action is not None and m.coaction is not None:
        raise PresentationError("dualize one structure at a time for mixed modules")
    if m.action is not None:
        return ModulePresentation(m.dim, m.algebra, dual_action_on_dual(m.action, m.dim, m.algebra.dim, m.action_side),
                                  "left" if m.action_side == "right" else "right")
    if m.coaction is not None:
        # (h . f)(m) = sum h(m_0) f(m_1) on a right comodule, (f . h)(m) = sum f(m_-1) h(m_0) on a left one
        return ModulePresentation(m.dim, dualize_structure("coalgebra", m.coalgebra), m.coaction.transpose(),
                                  m.coaction_side)
    return ModulePresentation(m.dim)


# ---------------------------------------------------------------------------
# morphism predicates (shared by the entwining and dual layers)


def _algebra_morphism_laws(a: StructurePresentation, b: StructurePresentation, g: Matrix):
    if (g.rows, g.cols) != (b.dim, a.dim):
        raise DimensionMismatch(f"morphism must be {b.dim}x{a.dim}")
    yield "multiplicative", (a.mul, g), ((a.dim, g), (g, b.dim), b.mul), (a.dim, a.dim)
    yield "unital", (a.unit, g), b.unit, (1,)


def _coalgebra_morphism_laws(c: StructurePresentation, d: StructurePresentation, g: Matrix):
    if (g.rows, g.cols) != (d.dim, c.dim):
        raise DimensionMismatch(f"morphism must be {d.dim}x{c.dim}")
    yield "comultiplicative", (g, d.comul), (c.comul, (c.dim, g), (g, d.dim)), (c.dim,)
    yield "counital", (g, d.counit), c.counit, (c.dim,)


def algebra_morphism_report(a: StructurePresentation, b: StructurePresentation, g: Matrix) -> Report:
    return report.first_failure("algebra_morphism", _algebra_morphism_laws(a, b, g))


def coalgebra_morphism_report(c: StructurePresentation, d: StructurePresentation, g: Matrix) -> Report:
    return report.first_failure("coalgebra_morphism", _coalgebra_morphism_laws(c, d, g))


def bialgebra_morphism_report(a: StructurePresentation, b: StructurePresentation, g: Matrix) -> Report:
    """The algebra morphism laws, then the coalgebra morphism laws."""
    return report.first_failure("bialgebra_morphism", chain(_algebra_morphism_laws(a, b, g),
                                                            _coalgebra_morphism_laws(a, b, g)))


# ---------------------------------------------------------------------------
# measuring pairings


@dataclass(frozen=True)
class PairingPresentation:
    """A bilinear pairing of an algebra against a coalgebra.

    matrix[i, j] = <a_i, c_j>; kappa : a -> <a, -> must be an algebra map
    into the convolution algebra C*.
    """

    algebra: StructurePresentation
    coalgebra: StructurePresentation
    matrix: Matrix

    def __post_init__(self):
        if (self.matrix.rows, self.matrix.cols) != (self.algebra.dim, self.coalgebra.dim):
            raise DimensionMismatch("pairing matrix must be dim A x dim C")

    def kappa(self) -> Matrix:
        """The matrix of a -> <a, -> : A -> C*."""
        return self.matrix.transpose()


def canonical_pairing(c: StructurePresentation) -> PairingPresentation:
    """The evaluation pairing (C*, C)."""
    cstar = dualize_structure("coalgebra", c)
    return PairingPresentation(cstar, c, Matrix.identity(c.field, c.dim))


def verify_measuring_pairing(p: PairingPresentation) -> Report:
    """<ab, c> = sum <a, c1><b, c2> and <1, c> = eps(c), on all basis pairs."""
    return report.first_failure("verify_measuring_pairing", _measuring_laws(p))


def _measuring_laws(p: PairingPresentation):
    a, c, kappa = p.algebra, p.coalgebra, p.kappa()
    # the product of C* is C's comultiplication transposed
    yield "measuring", (a.mul, kappa), ((a.dim, kappa), (kappa, c.dim), c.comul.transpose()), (a.dim, a.dim)
    yield "unit-counit", (a.unit, kappa), c.counit.transpose(), (1,)


def pairing_action(p: PairingPresentation, side: str, a: Matrix | int, c: Matrix | int) -> Matrix:
    """a -> c = sum c1 <a, c2> (left-harpoon) or c <- a = sum <a, c1> c2."""
    if isinstance(a, int):
        a = Matrix.basis_column(p.algebra.field, p.algebra.dim, a)
    if isinstance(c, int):
        c = Matrix.basis_column(p.coalgebra.field, p.coalgebra.dim, c)
    n = p.coalgebra.dim
    idc = Matrix.identity(p.coalgebra.field, n)
    pair_a = a.transpose() @ p.matrix  # row: <a, c_j>
    if side == "left-harpoon":
        return kron(idc, pair_a) @ p.coalgebra.comul @ c
    if side == "right-harpoon":
        return kron(pair_a, idc) @ p.coalgebra.comul @ c
    raise PresentationError(f"unknown side {side!r}")


def check_alpha_condition(p: PairingPresentation) -> Report:
    """Finite-dimensional criterion: the pairing matrix has rank dim C.

    Equivalently the canonical maps M (x) C -> Hom(A, M) are injective for
    every M, and kappa maps A onto C*.
    """
    r = rank(p.matrix)
    if r == p.coalgebra.dim:
        return report.ok("check_alpha_condition", rank=r, dim_c=p.coalgebra.dim)
    return report.fail("check_alpha_condition", "rank-deficient", witness=None,
                       rank=r, dim_c=p.coalgebra.dim)


class AlphaConditionError(PresentationError):
    """A pairing that fails the rank criterion; criterion is check_alpha_condition's report."""

    def __init__(self, criterion: Report):
        super().__init__(f"rational_submodule pairing fails the rank criterion: "
                         f"rank {criterion.detail('rank')} < dim C {criterion.detail('dim_c')}")
        self.criterion = criterion


# ---------------------------------------------------------------------------
# rational submodules


@dataclass(frozen=True)
class RationalSubmodule:
    """Rat of a module: the subspace together with its induced (co)structures,
    both written in the subspace basis coordinates, and the rank criterion
    the pairing passed."""

    subspace: Subspace
    action: Matrix
    coaction: Matrix
    side: str
    criterion: Report

    @property
    def dim(self) -> int:
        return self.subspace.dim


def rational_submodule(p: PairingPresentation, m: ModulePresentation) -> RationalSubmodule:
    """The largest submodule whose action comes from a C-coaction through p.

    m is a module that has passed verify_structure, and no module law of
    it is read: the rat command verifies m first, and the dual-module
    functors pass modules built from verified ones.  For a left module the
    result carries a right C-coaction (and mirrored for right modules);
    both the restricted action and the coaction are returned in the
    canonical basis of the subspace.  m must be a module over p's own
    algebra: another dimension, field, multiplication or unit raises
    PresentationError, before the rank criterion on p is computed; without
    the criterion AlphaConditionError is raised.  The core is left-handed:
    a right action is read as the left action a.m = m.a (of the opposite
    algebra; the core reads no product of A), and its results are permuted
    back.

    No Kronecker layout is eliminated.  The image of id_M (x) P is
    M (x) im(P), so the rational part is the kernel of (id_M (x) N) rho,
    with N the small annihilator of im(P) (no rows when the pairing is a
    full evaluation).  P has full column rank, so the legs of every
    rho(w_t) come from one solve on P, with each block as a column, and the
    coaction and action are read in the RREF basis of W by
    Subspace.coordinates.
    """
    if m.action is None:
        raise PresentationError("rational_submodule needs an action")
    if m.algebra.dim != p.algebra.dim or m.algebra.field != p.algebra.field:
        raise DimensionMismatch(
            f"the module's algebra (dim {m.algebra.dim} over {m.algebra.field}) does not match "
            f"the pairing's (dim {p.algebra.dim} over {p.algebra.field})")
    if (m.algebra.mul, m.algebra.unit) != (p.algebra.mul, p.algebra.unit):
        raise PresentationError("the module's algebra does not match the pairing's in its multiplication or unit")
    criterion = check_alpha_condition(p)
    if not criterion.passed:
        raise AlphaConditionError(criterion)
    mdim, na, nc = m.dim, p.algebra.dim, p.coalgebra.dim
    # the left action [i, (j, k)]: a_j . m_k gains its coefficient at m_i
    lact = m.action if m.action_side == "left" else permute(m.action, (mdim, mdim, na), (0, 2, 1), 1)
    # rho : M -> Hom(A, M), m -> (a -> a.m), at [(i, j), k]: the m_i-coefficient at argument a_j of rho(m_k)
    rho = permute(lact, (mdim, na, mdim), (0, 1, 2), 2)
    # alpha = id_M (x) P : M (x) C -> Hom(A, M) has image M (x) im(P), the kernel of id_M (x) N for N with
    # N P = 0 and rows spanning the annihilator of im(P): W is the kernel of (id_M (x) N) rho, with rows (r, i)
    n = kernel(p.matrix.transpose()).basis
    w = kernel(permute(n @ permute(lact, (mdim, na, mdim), (1, 0, 2), 1), (n.rows, mdim, mdim), (0, 1, 2), 2))
    k = w.dim
    y = rho @ w.basis.transpose()   # column t is rho(w_t)
    # alpha is injective, so the legs of rho(w_t) solve P x = (the a-block of rho(w_t) at m_i), one column (t, i) each
    x, bad = express(p.matrix.transpose(), permute(y, (mdim, na, k), (1, 2, 0), 1))
    if x is None:
        raise report.CheckError(report.fail("rational_submodule", "internal-rho-outside-alpha-image",
                                            (bad // mdim,)))
    # column (t, c) of legs is the c_c leg of rho(w_t); column (t, j) of images is a_j acting on w_t
    legs = permute(x, (nc, k, mdim), (2, 1, 0), 1)
    images = permute(y, (mdim, na, k), (0, 2, 1), 1)
    coact, bad = w.coordinates(legs)  # [s, (t, c)]
    if coact is None:
        raise report.CheckError(report.fail("rational_submodule", "coaction-leaves-subspace", divmod(bad, nc)))
    act, bad = w.coordinates(images)  # [s, (t, j)]
    if act is None:
        raise report.CheckError(report.fail("rational_submodule", "action-leaves-subspace", divmod(bad, na)))
    if m.action_side == "left":  # coaction[(s, c), t], action[s, (j, t)]
        return RationalSubmodule(w, permute(act, (k, k, na), (0, 2, 1), 1), permute(coact, (k, k, nc), (0, 2, 1), 2),
                                 "left", criterion)
    # coaction[(c, s), t], action[s, (t, j)]
    return RationalSubmodule(w, act, permute(coact, (k, k, nc), (2, 0, 1), 2), "right", criterion)


def module_from_coaction(p: PairingPresentation, coaction: Matrix, mdim: int,
                         side: str = "right") -> Matrix:
    """Action induced by a coaction through the pairing: a.m = sum m_0 <a, m_1>
    for a right coaction (left action); mirrored for a left coaction."""
    na = p.algebra.dim
    idm = Matrix.identity(p.matrix.field, mdim)
    if side == "right":  # [(i, j), k] = sum_c <a_j, c_c> coaction[(i, c), k] -> out[i, (j, k)]
        return permute(kron(idm, p.matrix) @ coaction, (mdim, na, mdim), (0, 1, 2), 1)
    if side == "left":  # [(j, i), k] = sum_c <a_j, c_c> coaction[(c, i), k] -> out[i, (k, j)]
        return permute(kron(p.matrix, idm) @ coaction, (na, mdim, mdim), (1, 2, 0), 1)
    raise PresentationError(f"unknown side {side!r}")


# ---------------------------------------------------------------------------
# pairing morphisms


def check_adjoint_pair(p: PairingPresentation, q: PairingPresentation,
                       xi: Matrix, theta: Matrix) -> Report:
    """Adjointness <xi(a), d> = <a, theta(d)> plus its morphism consequences.

    When the adjointness identity holds and the relevant injectivity is
    available (a rank condition, automatic for nondegenerate pairings),
    an algebra morphism xi forces theta to be a coalgebra morphism and
    conversely; both implications are checked where they apply.
    """
    a, c = p.algebra, p.coalgebra
    b, d = q.algebra, q.coalgebra
    if (xi.rows, xi.cols) != (b.dim, a.dim) or (theta.rows, theta.cols) != (c.dim, d.dim):
        raise DimensionMismatch("xi must be dim B x dim A, theta dim C x dim D")
    # [i, j] = <xi(a_i), d_j> on the left, <a_i, theta(d_j)> on the right
    bad = report.compare("check_adjoint_pair", "adjointness", (q.matrix, xi.transpose()), (theta, p.matrix), None)
    if bad is not None:
        return bad
    xi_alg = algebra_morphism_report(a, b, xi)
    theta_coalg = coalgebra_morphism_report(d, c, theta)
    details = {"xi_algebra_morphism": xi_alg.passed, "theta_coalgebra_morphism": theta_coalg.passed}
    if xi_alg.passed and rank(p.matrix) == c.dim and not theta_coalg.passed:
        name, inner = "theta-not-coalgebra-morphism", theta_coalg
    elif theta_coalg.passed and rank(q.matrix.transpose()) == b.dim and not xi_alg.passed:
        name, inner = "xi-not-algebra-morphism", xi_alg
    else:
        return report.ok("check_adjoint_pair", **details)
    return report.fail("check_adjoint_pair", f"{name}[{inner.axiom}]",
                       witness=inner.witness, lhs=inner.lhs, rhs=inner.rhs, **details)
