"""Algebras, coalgebras, bialgebras and Hopf algebras by structure constants,
with modules, comodules, convolution, duals, measuring pairings and rational
submodules.

All structure maps are exactlin matrices, which hold only their nonzeros,
in the tensor index convention of exactlin: multiplication is dim x dim^2,
comultiplication is dim^2 x dim, a right action M (x) A -> M is
dim_M x (dim_M * dim_A), a right coaction M -> M (x) C is
(dim_M * dim_C) x dim_M.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

from .exactlin import (
    DimensionMismatch,
    Field,
    Matrix,
    PresentationError,
    Subspace,
    columns_of,
    express,
    image,
    kron,
    permute,
    preimage,
    rank,
    solve_linear,
    swap_middle,
)
from . import report
from .report import Report

STRUCTURE_KINDS = ("algebra", "coalgebra", "bialgebra", "hopf")


@dataclass(frozen=True)
class StructurePresentation:
    """An algebra, coalgebra, bialgebra or Hopf algebra on a chosen basis."""

    kind: str
    field: Field
    dim: int
    labels: tuple[str, ...]
    mul: Matrix | None = None
    unit: Matrix | None = None
    comul: Matrix | None = None
    counit: Matrix | None = None
    antipode: Matrix | None = None

    @property
    def has_algebra(self) -> bool:
        return self.mul is not None

    @property
    def has_coalgebra(self) -> bool:
        return self.comul is not None

    def identity_matrix(self) -> Matrix:
        return Matrix.identity(self.field, self.dim)

    def with_antipode(self, s: Matrix) -> "StructurePresentation":
        return replace(self, kind="hopf", antipode=s)


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


def matrix_from_quads(field: Field, layout: str, dims, quads) -> Matrix:
    """Sum the quadruples into Q (axes dims) and permute Q into the layout's matrix."""
    d0, d1, d2 = dims
    entries = []
    for i, j, k, c in quads:
        if not (0 <= i < d0 and 0 <= j < d1 and 0 <= k < d2):
            raise PresentationError(f"{layout} index out of range: {(i, j, k)}")
        entries.append((i * d1 + j, k, _scalar(field, c)))
    perm, nrows = QUAD_LAYOUTS[layout]
    return permute(Matrix.from_entries(field, d0 * d1, d2, entries), dims, perm, nrows)


def quads_from_matrix(m: Matrix, layout: str, dims) -> list[tuple]:
    """The nonzero entries of m as quadruples (i, j, k, c), in lexicographic order."""
    perm, _ = QUAD_LAYOUTS[layout]
    q = columns_of(permute(m, [dims[a] for a in perm], [perm.index(a) for a in range(3)], 2))
    return sorted((*divmod(t, dims[1]), k, v) for k, column in enumerate(q) for t, v in column.items())


def mul_from_triples(field: Field, dim: int, triples) -> Matrix:
    """Sparse (i, j, k, c): e_i * e_j gains c * e_k."""
    return matrix_from_quads(field, "mul", (dim, dim, dim), triples)


def comul_from_triples(field: Field, dim: int, triples) -> Matrix:
    """Sparse (i, j, k, c): Delta(e_i) gains c * e_j (x) e_k."""
    return matrix_from_quads(field, "comul", (dim, dim, dim), triples)


def action_from_triples(field: Field, mdim: int, adim: int, triples, side: str = "right") -> Matrix:
    """Sparse (m, a, m2, c): m_m . a_a gains c * m_m2 (a_a . m_m when side is left)."""
    _check_side(side)
    return matrix_from_quads(field, f"{side}-action", (mdim, adim, mdim), triples)


def coaction_from_triples(field: Field, mdim: int, cdim: int, triples, side: str = "right") -> Matrix:
    """Sparse (m, m2, c_idx, c): rho(m_m) gains c * m_m2 (x) c_{c_idx} (flipped when left)."""
    _check_side(side)
    return matrix_from_quads(field, f"{side}-coaction", (mdim, mdim, cdim), triples)


def _scalar(field: Field, c):
    if isinstance(c, int):
        return field.of(c)
    return c


def _check_side(side: str):
    if side not in ("left", "right"):
        raise PresentationError(f"unknown side {side!r}")


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
        if self.action is not None:
            if self.algebra is None:
                raise PresentationError("action without algebra")
            n, a = self.dim, self.algebra.dim
            want = (n, n * a) if self.action_side == "right" else (n, a * n)
            if (self.action.rows, self.action.cols) != want:
                raise DimensionMismatch(f"action must be {want[0]}x{want[1]}")
        if self.coaction is not None:
            if self.coalgebra is None:
                raise PresentationError("coaction without coalgebra")
            n, c = self.dim, self.coalgebra.dim
            if (self.coaction.rows, self.coaction.cols) != (n * c, n):
                raise DimensionMismatch(f"coaction must be {n * c}x{n}")


# ---------------------------------------------------------------------------
# verification


def _algebra_checks(p: StructurePresentation):
    n = p.dim
    idn = Matrix.identity(p.field, n)
    yield ("associativity", p.mul @ kron(p.mul, idn), p.mul @ kron(idn, p.mul), (n, n, n))
    yield ("left-unit", p.mul @ kron(p.unit, idn), idn, (n,))
    yield ("right-unit", p.mul @ kron(idn, p.unit), idn, (n,))


def _coalgebra_checks(p: StructurePresentation):
    n = p.dim
    idn = Matrix.identity(p.field, n)
    yield ("coassociativity", kron(p.comul, idn) @ p.comul, kron(idn, p.comul) @ p.comul, (n,))
    yield ("left-counit", kron(p.counit, idn) @ p.comul, idn, (n,))
    yield ("right-counit", kron(idn, p.counit) @ p.comul, idn, (n,))


def _bialgebra_checks(p: StructurePresentation):
    n = p.dim
    yield from _algebra_checks(p)
    yield from _coalgebra_checks(p)
    yield ("comul-multiplicative",
           p.comul @ p.mul,
           kron(p.mul, p.mul) @ swap_middle(kron(p.comul, p.comul), (n, n, n, n)), (n, n))
    yield ("comul-unit", p.comul @ p.unit, kron(p.unit, p.unit), (1,))
    yield ("counit-multiplicative", p.counit @ p.mul, kron(p.counit, p.counit), (n, n))
    yield ("counit-unit", p.counit @ p.unit, Matrix(p.field, 1, 1, [p.field.one()]), (1,))


def _hopf_checks(p: StructurePresentation):
    n = p.dim
    idn = Matrix.identity(p.field, n)
    e = p.unit @ p.counit
    yield from _bialgebra_checks(p)
    yield ("antipode-left", p.mul @ kron(p.antipode, idn) @ p.comul, e, (n,))
    yield ("antipode-right", p.mul @ kron(idn, p.antipode) @ p.comul, e, (n,))


_KIND_LAWS = {"algebra": _algebra_checks, "coalgebra": _coalgebra_checks,
              "bialgebra": _bialgebra_checks, "hopf": _hopf_checks}


def verify_structure(kind: str | None, pres) -> Report:
    """Exhaustive check of the defining laws on basis elements.

    kind defaults to the presentation's own kind; for ModulePresentation use
    'module', 'comodule' or None for both of the parts it carries.
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
    return report.first_failure(f"verify_structure[{kind}]", _KIND_LAWS[kind](pres))


def _module_checks(m: ModulePresentation):
    a = m.algebra
    n = m.dim
    idm = Matrix.identity(a.field, n)
    ida = Matrix.identity(a.field, a.dim)
    if m.action_side == "right":
        yield ("action-associativity",
               m.action @ kron(m.action, ida), m.action @ kron(idm, a.mul), (n, a.dim, a.dim))
        yield ("action-unit", m.action @ kron(idm, a.unit), idm, (n,))
    else:
        yield ("action-associativity",
               m.action @ kron(ida, m.action), m.action @ kron(a.mul, idm), (a.dim, a.dim, n))
        yield ("action-unit", m.action @ kron(a.unit, idm), idm, (n,))


def _comodule_checks(m: ModulePresentation):
    c = m.coalgebra
    n = m.dim
    idm = Matrix.identity(c.field, n)
    idc = Matrix.identity(c.field, c.dim)
    if m.coaction_side == "right":
        yield ("coaction-coassociativity",
               kron(m.coaction, idc) @ m.coaction, kron(idm, c.comul) @ m.coaction, (n,))
        yield ("coaction-counit", kron(idm, c.counit) @ m.coaction, idm, (n,))
    else:
        yield ("coaction-coassociativity",
               kron(idc, m.coaction) @ m.coaction, kron(c.comul, idm) @ m.coaction, (n,))
        yield ("coaction-counit", kron(c.counit, idm) @ m.coaction, idm, (n,))


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


def convolution_inverse(c: StructurePresentation, a: StructurePresentation, f: Matrix):
    """Two-sided convolution inverse of f, or None.

    Solves f * g = unit for g by exact linear algebra, then verifies the
    left identity too; a strictly one-sided inverse is reported as
    ('left'|'right', g) instead of being accepted silently.
    """
    if (f.rows, f.cols) != (a.dim, c.dim):
        raise DimensionMismatch(f"expected {a.dim}x{c.dim} map from C to A")
    e = convolution_unit(c, a)
    n = a.dim * c.dim
    target = Matrix.from_columns(a.field, n, [e])
    units = [Matrix.basis_column(a.field, n, s).reshape(a.dim, c.dim) for s in range(n)]
    t = Matrix.from_columns(a.field, n, [convolution(c, a, f, u) for u in units])
    sol = solve_linear(t, target)
    if sol is None:
        # no right inverse; try the left side for the one-sided report
        t = Matrix.from_columns(a.field, n, [convolution(c, a, u, f) for u in units])
        sol = solve_linear(t, target)
        if sol is None:
            return None
        return ("left", sol.particular.reshape(a.dim, c.dim))
    g = sol.particular.reshape(a.dim, c.dim)
    if convolution(c, a, g, f) == e:
        return g
    return ("right", g)


def compute_antipode(h: StructurePresentation) -> Matrix | None:
    """Antipode as the two-sided convolution inverse of the identity map."""
    rep = verify_structure("bialgebra", h)
    if not rep.passed:
        raise PresentationError(f"not a bialgebra: {rep.summary()}")
    inv = convolution_inverse(h, h, h.identity_matrix())
    if inv is None or isinstance(inv, tuple):
        return None
    return inv


# ---------------------------------------------------------------------------
# duals


def dualize_structure(kind: str | None, pres):
    """Transpose the structure constants onto the dual space.

    algebra -> coalgebra, coalgebra -> algebra, bialgebra -> bialgebra,
    hopf -> hopf; modules and comodules dualize to the induced structures
    on the dual space (right module -> left module, and so on).
    """
    if isinstance(pres, ModulePresentation):
        return _dualize_module(pres)
    if kind is None:
        kind = pres.kind
    field, n = pres.field, pres.dim
    labels = tuple(f"{name}*" for name in pres.labels)
    mul = comul = unit = counit = None
    if pres.has_coalgebra:
        mul, unit = pres.comul.transpose(), pres.counit.transpose()
    if pres.has_algebra:
        comul, counit = pres.mul.transpose(), pres.unit.transpose()
    if kind == "algebra":
        return make_structure("coalgebra", field, n, labels, comul=comul, counit=counit)
    if kind == "coalgebra":
        return make_structure("algebra", field, n, labels, mul=mul, unit=unit)
    if kind == "bialgebra":
        return make_structure("bialgebra", field, n, labels, mul=mul, unit=unit,
                              comul=comul, counit=counit)
    if kind == "hopf":
        if pres.antipode is None:
            raise PresentationError("hopf presentation needs an antipode")
        return make_structure("hopf", field, n, labels, mul=mul, unit=unit,
                              comul=comul, counit=counit, antipode=pres.antipode.transpose())
    raise PresentationError(f"unknown kind {kind!r}")


def dual_action_on_dual(action: Matrix, mdim: int, adim: int, side: str) -> Matrix:
    """Action induced on M*: a right action gives (a.h)(m) = h(m.a) on the left,
    a left action gives (h.a)(m) = h(a.m) on the right."""
    if side == "right":  # action[r, (s, j)] -> out[s, (j, r)]
        return permute(action, (mdim, mdim, adim), (1, 2, 0), 1)
    return permute(action, (mdim, adim, mdim), (2, 0, 1), 1)  # action[r, (j, s)] -> out[s, (r, j)]


def coaction_to_dual_action(coaction: Matrix, mdim: int, cdim: int, side: str = "right") -> Matrix:
    """The C*-action carried by a coaction: f . m = sum m_0 f(m_1) for a right
    coaction (a left C*-action), mirrored for a left coaction."""
    if side == "right":  # coaction[(k, j), i] -> out[k, (j, i)]
        return permute(coaction, (mdim, cdim, mdim), (0, 1, 2), 1)
    return permute(coaction, (cdim, mdim, mdim), (1, 2, 0), 1)  # coaction[(j, k), i] -> out[k, (i, j)]


def _dualize_module(m: ModulePresentation) -> ModulePresentation:
    algebra = action = None
    action_side = "right"
    coalgebra = coaction = None
    coaction_side = "right"
    if m.action is not None:
        algebra = m.algebra
        action_side = "left" if m.action_side == "right" else "right"
        action = dual_action_on_dual(m.action, m.dim, m.algebra.dim, m.action_side)
    if m.coaction is not None:
        # a comodule dualizes to a module over the convolution algebra C*
        algebra2 = dualize_structure("coalgebra", m.coalgebra)
        act2 = coaction_to_dual_action(m.coaction, m.dim, m.coalgebra.dim, m.coaction_side)
        side2 = "left" if m.coaction_side == "right" else "right"
        act2 = dual_action_on_dual(act2, m.dim, m.coalgebra.dim, side2)
        if algebra is None:
            algebra, action, action_side = algebra2, act2, m.coaction_side
        else:
            raise PresentationError("dualize one structure at a time for mixed modules")
    return ModulePresentation(m.dim, algebra, action, action_side, coalgebra, coaction, coaction_side)


# ---------------------------------------------------------------------------
# morphism predicates (shared by the entwining and dual layers)


def _algebra_morphism_laws(a: StructurePresentation, b: StructurePresentation, g: Matrix):
    if (g.rows, g.cols) != (b.dim, a.dim):
        raise DimensionMismatch(f"morphism must be {b.dim}x{a.dim}")
    yield from [("multiplicative", g @ a.mul, b.mul @ kron(g, g), (a.dim, a.dim)),
                ("unital", g @ a.unit, b.unit, (1,))]


def _coalgebra_morphism_laws(c: StructurePresentation, d: StructurePresentation, g: Matrix):
    if (g.rows, g.cols) != (d.dim, c.dim):
        raise DimensionMismatch(f"morphism must be {d.dim}x{c.dim}")
    yield from [("comultiplicative", d.comul @ g, kron(g, g) @ c.comul, (c.dim,)),
                ("counital", d.counit @ g, c.counit, (c.dim,))]


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
    cstar = dualize_structure("coalgebra", p.coalgebra)
    return report.first_failure(
        "verify_measuring_pairing",
        [("measuring", p.kappa() @ p.algebra.mul,
          cstar.mul @ kron(p.kappa(), p.kappa()), (p.algebra.dim, p.algebra.dim)),
         ("unit-counit", p.kappa() @ p.algebra.unit, p.coalgebra.counit.transpose(), (1,))],
    )


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


def harpoon_action_matrix(p: PairingPresentation, side: str = "left-harpoon") -> Matrix:
    """The action matrix A (x) C -> C (or C (x) A -> C) realizing the harpoons."""
    na, nc = p.algebra.dim, p.coalgebra.dim
    f = p.algebra.field
    if side == "left-harpoon":
        pairs = [(i, j) for i in range(na) for j in range(nc)]
    else:
        pairs = [(i, j) for j in range(nc) for i in range(na)]
    return Matrix.from_columns(f, nc, [pairing_action(p, side, i, j) for i, j in pairs])


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
    pass


def require_alpha(p: PairingPresentation, what: str = "pairing"):
    rep = check_alpha_condition(p)
    if not rep.passed:
        raise AlphaConditionError(
            f"{what} fails the rank criterion: rank {rep.detail('rank')} < dim C {rep.detail('dim_c')}")


# ---------------------------------------------------------------------------
# rational submodules


@dataclass(frozen=True)
class RationalSubmodule:
    """Rat of a module: the subspace together with its induced (co)structures,
    both written in the subspace basis coordinates."""

    subspace: Subspace
    action: Matrix
    coaction: Matrix
    side: str

    @property
    def dim(self) -> int:
        return self.subspace.dim


def _rho_matrix(action: Matrix, mdim: int, adim: int, side: str) -> Matrix:
    """rho : M -> Hom(A, M), m -> (a -> a.m) (or m.a); coordinates (i, j) mean
    the m_i-coefficient at argument a_j."""
    if side == "left":  # action[i, (j, k)] -> rho[(i, j), k]
        return permute(action, (mdim, adim, mdim), (0, 1, 2), 2)
    return permute(action, (mdim, mdim, adim), (0, 2, 1), 2)  # action[i, (k, j)] -> rho[(i, j), k]


def _alpha_matrix(p: PairingPresentation, mdim: int, side: str) -> Matrix:
    """alpha : M (x) C -> Hom(A, M) (or C (x) M for right modules)."""
    na, nc = p.algebra.dim, p.coalgebra.dim
    alpha = kron(Matrix.identity(p.matrix.field, mdim), p.matrix)  # [(i, j), (i, k)] = <a_j, c_k>
    return permute(alpha, (mdim, na, mdim, nc), (0, 1, 2, 3) if side == "left" else (0, 1, 3, 2), 2)


def rational_submodule(p: PairingPresentation, m: ModulePresentation, side: str | None = None) -> RationalSubmodule:
    """The largest submodule whose action comes from a C-coaction through p.

    For a left module the result carries a right C-coaction (and mirrored
    for right modules); both the restricted action and the coaction are
    returned in the canonical basis of the subspace.  Requires the rank
    criterion on p.
    """
    require_alpha(p, "rational_submodule pairing")
    side = side or ("left" if m.action_side == "left" else "right")
    if m.action is None:
        raise PresentationError("rational_submodule needs an action")
    if side != m.action_side:
        raise PresentationError("side flag must match the module's action side")
    if m.algebra.dim != p.algebra.dim or m.algebra.field != p.algebra.field:
        raise DimensionMismatch(
            f"the module's algebra (dim {m.algebra.dim} over {m.algebra.field}) does not match "
            f"the pairing's (dim {p.algebra.dim} over {p.algebra.field})")
    f = p.matrix.field
    mdim, na, nc = m.dim, p.algebra.dim, p.coalgebra.dim
    rho = _rho_matrix(m.action, mdim, na, side)
    alpha = _alpha_matrix(p, mdim, side)
    w = preimage(rho, image(alpha))
    k = w.dim
    wt = w.basis.transpose()
    # column t of x is an element of M (x) C (or C (x) M) that alpha sends to rho(w_t)
    x, bad = express(alpha.transpose(), rho @ wt)
    if x is None:
        raise report.CheckError(report.fail("rational_submodule", "internal-rho-outside-alpha-image", (bad,)))
    # column (t, c) of legs is the c_c leg of rho(w_t); column (t, j) of images is a_j acting on w_t
    if side == "left":
        legs = permute(x, (mdim, nc, k), (0, 2, 1), 1)
        images = permute(m.action @ kron(Matrix.identity(f, na), wt), (mdim, na, k), (0, 2, 1), 1)
    else:
        legs = permute(x, (nc, mdim, k), (1, 2, 0), 1)
        images = m.action @ kron(wt, Matrix.identity(f, na))
    coact, bad = express(w.basis, legs)  # [s, (t, c)]
    if coact is None:
        raise report.CheckError(report.fail("rational_submodule", "coaction-leaves-subspace", divmod(bad, nc)))
    act, bad = express(w.basis, images)  # [s, (t, j)]
    if act is None:
        raise report.CheckError(report.fail("rational_submodule", "action-leaves-subspace", divmod(bad, na)))
    if side == "left":  # coaction[(s, c), t], action[s, (j, t)]
        coaction = permute(coact, (k, k, nc), (0, 2, 1), 2)
        action = permute(act, (k, k, na), (0, 2, 1), 1)
    else:  # coaction[(c, s), t], action[s, (t, j)]
        coaction = permute(coact, (k, k, nc), (2, 0, 1), 2)
        action = act
    return RationalSubmodule(w, action, coaction, side)


def birational_subspace(p: PairingPresentation, m: ModulePresentation,
                        right_action: Matrix) -> Subspace:
    """Intersection of the left and right rational parts of a bimodule."""
    left = rational_submodule(p, m, "left").subspace
    mr = ModulePresentation(m.dim, m.algebra, right_action, "right")
    right = rational_submodule(p, mr, "right").subspace
    return left.intersect(right)


def module_from_coaction(p: PairingPresentation, coaction: Matrix, mdim: int,
                         side: str = "right") -> Matrix:
    """Action induced by a coaction through the pairing: a.m = sum m_0 <a, m_1>
    for a right coaction (left action); mirrored for a left coaction."""
    na = p.algebra.dim
    idm = Matrix.identity(p.matrix.field, mdim)
    if side == "right":  # [(i, j), k] = sum_c <a_j, c_c> coaction[(i, c), k] -> out[i, (j, k)]
        return permute(kron(idm, p.matrix) @ coaction, (mdim, na, mdim), (0, 1, 2), 1)
    # [(j, i), k] = sum_c <a_j, c_c> coaction[(c, i), k] -> out[i, (k, j)]
    return permute(kron(p.matrix, idm) @ coaction, (na, mdim, mdim), (1, 2, 0), 1)


def coaction_from_module(p: PairingPresentation, m: ModulePresentation) -> Matrix:
    """Recover the coaction of a fully rational module (Rat = M required)."""
    rat = rational_submodule(p, m)
    if rat.dim != m.dim:
        raise PresentationError("module is not rational: Rat is a proper subspace")
    f = p.matrix.field
    nc = p.coalgebra.dim
    # rewrite the coaction from subspace coordinates back to the module basis
    b = rat.subspace.basis
    binv = solve_linear(b.transpose(), Matrix.identity(f, m.dim)).particular
    side = rat.side
    if side == "left":
        lift = kron(b.transpose(), Matrix.identity(f, nc))
    else:
        lift = kron(Matrix.identity(f, nc), b.transpose())
    return lift @ rat.coaction @ binv


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
    lhs = xi.transpose() @ q.matrix          # [i, j] = <xi(a_i), d_j>
    rhs = p.matrix @ theta                   # [i, j] = <a_i, theta(d_j)>
    bad = report.compare("check_adjoint_pair", "adjointness", lhs, rhs, None)
    if bad is not None:
        return bad
    xi_alg = algebra_morphism_report(a, b, xi).passed
    theta_coalg = coalgebra_morphism_report(d, c, theta).passed
    details = {"xi_algebra_morphism": xi_alg, "theta_coalgebra_morphism": theta_coalg}
    if xi_alg and rank(p.matrix) == c.dim and not theta_coalg:
        inner = coalgebra_morphism_report(d, c, theta)
        return report.fail("check_adjoint_pair", f"theta-not-coalgebra-morphism[{inner.axiom}]",
                           witness=inner.witness, lhs=inner.lhs, rhs=inner.rhs, **details)
    if theta_coalg and rank(q.matrix.transpose()) == b.dim and not xi_alg:
        inner = algebra_morphism_report(a, b, xi)
        return report.fail("check_adjoint_pair", f"xi-not-algebra-morphism[{inner.axiom}]",
                           witness=inner.witness, lhs=inner.lhs, rhs=inner.rhs, **details)
    return report.ok("check_adjoint_pair", **details)
