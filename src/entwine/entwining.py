"""Entwining structures and what they generate.

A right-right entwining (A, C, psi) is an algebra, a coalgebra, and a map
psi : C (x) A -> A (x) C satisfying four compatibility laws.  From a
verified entwining we build the coring A (x) C, the smash ring on
Hom(C, A) with the twisted multiplication, the isomorphism between the
smash ring and the left dual of the coring, and the category equivalence
between entwined modules and smash-ring modules, all checked exhaustively
on basis elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import (
    DimensionMismatch,
    Matrix,
    PresentationError,
    columns_of,
    kernel,
    kron,
    permute,
    solve_linear,
    sparse_combine,
)
from . import report
from .report import Report
from .structures import (
    ModulePresentation,
    StructurePresentation,
    algebra_morphism_report,
    coalgebra_morphism_report,
    make_structure,
    verify_structure,
)


@dataclass(frozen=True)
class EntwiningPresentation:
    """(A, C, psi) with psi a matrix C (x) A -> A (x) C in the tensor basis."""

    algebra: StructurePresentation
    coalgebra: StructurePresentation
    psi: Matrix

    def __post_init__(self):
        na, nc = self.algebra.dim, self.coalgebra.dim
        if (self.psi.rows, self.psi.cols) != (na * nc, nc * na):
            raise DimensionMismatch(f"psi must be {na * nc}x{nc * na}")
        if self.algebra.field != self.coalgebra.field or self.psi.field != self.algebra.field:
            raise PresentationError("entwining components disagree on the field")

    @property
    def field(self):
        return self.algebra.field


def flip_entwining(a: StructurePresentation, c: StructurePresentation) -> EntwiningPresentation:
    """psi(c (x) a) = a (x) c, the trivial entwining."""
    from .exactlin import swap_matrix

    return EntwiningPresentation(a, c, swap_matrix(a.field, c.dim, a.dim))


def verify_entwining(e: EntwiningPresentation) -> Report:
    """A as an algebra, C as a coalgebra, then the four entwining laws on basis pairs.

    A failure of A or C is reported as algebra[axiom] or coalgebra[axiom];
    the entwining laws check the interaction of psi with multiplication,
    unit, comultiplication and counit.
    """
    a, c, psi = e.algebra, e.coalgebra, e.psi
    for part, pres in (("algebra", a), ("coalgebra", c)):
        rep = verify_structure(part, pres)
        if not rep.passed:
            return report.within("verify_entwining", part, rep)
    na, nc = a.dim, c.dim
    ida = Matrix.identity(e.field, na)
    idc = Matrix.identity(e.field, nc)
    checks = [
        ("psi-multiplicativity",
         psi @ kron(idc, a.mul),
         kron(a.mul, idc) @ kron(ida, psi) @ kron(psi, ida),
         (nc, na, na)),
        ("psi-unitality", psi @ kron(idc, a.unit), kron(a.unit, idc), (nc,)),
        ("psi-comultiplicativity",
         kron(ida, c.comul) @ psi,
         kron(psi, idc) @ kron(idc, psi) @ kron(c.comul, ida),
         (nc, na)),
        ("psi-counitality", kron(ida, c.counit) @ psi, kron(c.counit, ida), (nc, na)),
    ]
    return report.first_failure("verify_entwining", checks)


def verify_entwining_morphism(e: EntwiningPresentation, f: EntwiningPresentation,
                              gamma: Matrix, delta: Matrix) -> Report:
    """(gamma, delta) intertwines psi with Psi; component morphisms checked first."""
    rep = algebra_morphism_report(e.algebra, f.algebra, gamma)
    if not rep.passed:
        return report.within("verify_entwining_morphism", "gamma", rep)
    rep = coalgebra_morphism_report(e.coalgebra, f.coalgebra, delta)
    if not rep.passed:
        return report.within("verify_entwining_morphism", "delta", rep)
    lhs = kron(gamma, delta) @ e.psi
    rhs = f.psi @ kron(delta, gamma)
    bad = report.compare("verify_entwining_morphism", "intertwining", lhs, rhs,
                         (e.coalgebra.dim, e.algebra.dim))
    return bad if bad is not None else report.ok("verify_entwining_morphism")


# ---------------------------------------------------------------------------
# the coring A (x) C


@dataclass(frozen=True)
class CoringPresentation:
    """The comonoid A (x) C in A-bimodules, written on the plain tensor space.

    The comultiplication is stored as a map into (A (x) C) (x) (A (x) C);
    equalities that only hold over A are checked modulo the balancing
    subspace spanned by (x.a) (x) y - x (x) (a.y).
    """

    entwining: EntwiningPresentation
    dim: int
    left_action: Matrix   # A (x) V -> V
    right_action: Matrix  # V (x) A -> V
    comul: Matrix         # V -> V (x) V
    counit: Matrix        # V -> A

    @property
    def field(self):
        return self.entwining.field


def build_coring(e: EntwiningPresentation) -> CoringPresentation:
    """Assemble and verify the coring carried by an entwining."""
    a, c, psi = e.algebra, e.coalgebra, e.psi
    na, nc = a.dim, c.dim
    f = e.field
    ida = Matrix.identity(f, na)
    idc = Matrix.identity(f, nc)
    n = na * nc
    idv = Matrix.identity(f, n)
    left = kron(a.mul, idc)                      # a (a~ (x) c) = a a~ (x) c
    right = kron(a.mul, idc) @ kron(ida, psi)    # (a~ (x) c) a through psi
    comul = kron(idv, kron(a.unit, idc)) @ kron(ida, c.comul)
    counit = kron(ida, c.counit)
    coring = CoringPresentation(e, n, left, right, comul, counit)
    report.require(verify_coring(coring))
    return coring


class _Columns(dict):
    """Sparse columns of a map, each made by make(j) when first asked for and kept.

    The tensor maps the coring laws apply (comul (x) id and the like) have
    far more columns than a sparse comultiplication ever reaches, so they
    are never laid out in full.
    """

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, j):
        col = self[j] = self.make(j)
        return col


def verify_coring(coring: CoringPresentation) -> Report:
    """Bimodule laws, coassociativity, counit laws and balanced bilinearity.

    Everything is evaluated on basis elements as canonical sparse vectors
    (exactlin.sparse_combine over the sparse columns of the structure maps),
    so the check scales past the point where the iterated tensor matrices
    would, and the two sides of a law compare as plain dicts.  Columns of
    the tensor maps, such as comul (x) id, are made only when a law reaches
    them.  Right linearity of the comultiplication only holds modulo the
    balancing relations (x.a) (x) y - x (x) (a.y); it is certified by
    exhibiting the explicit combination of relations that closes the gap.
    """
    return report.first_sparse_failure("verify_coring", _coring_laws(coring), coring.field)


def _coring_laws(coring: CoringPresentation):
    """The laws of verify_coring as lazy (axiom, witness, lhs, rhs) sparse vectors."""
    e = coring.entwining
    a = e.algebra
    f = coring.field
    n, na, nc = coring.dim, a.dim, e.coalgebra.dim
    one = f.one()
    difference = {0: one, 1: f.neg(one)}   # sparse_combine((x, y), difference, f) = x - y
    la = columns_of(coring.left_action)     # column (j, t) = j * n + t
    ra = columns_of(coring.right_action)    # column (t, j) = t * na + j
    dl = columns_of(coring.comul)           # keys (p, q) = p * n + q
    eps = columns_of(coring.counit)         # dicts over A
    amul = columns_of(a.mul)
    aunit = columns_of(a.unit)[0]
    comul_c = columns_of(e.coalgebra.comul)
    la_by = [la[j * n:(j + 1) * n] for j in range(na)]        # x -> a_j . x
    ra_by = [ra[j::na] for j in range(na)]                    # x -> x . a_j
    la_on = [la[t::n] for t in range(n)]                      # a_x -> a_x . t
    ra_on = [ra[t * na:(t + 1) * na] for t in range(n)]       # a_x -> t . a_x
    amul_by = [amul[j * na:(j + 1) * na] for j in range(na)]  # x -> a_j a_x
    amul_on = [amul[j::na] for j in range(na)]                # x -> a_x a_j
    for j1 in range(na):
        for j2 in range(na):
            prod = amul[j1 * na + j2]
            for t in range(n):
                yield "left-action-associativity", (j1, j2, t), \
                    sparse_combine(la_by[j1], la[j2 * n + t], f), sparse_combine(la_on[t], prod, f)
                yield "right-action-associativity", (t, j1, j2), \
                    sparse_combine(ra_by[j2], ra[t * na + j1], f), sparse_combine(ra_on[t], prod, f)
    for t in range(n):
        yield "left-action-unit", (t,), sparse_combine(la_on[t], aunit, f), {t: one}
        yield "right-action-unit", (t,), sparse_combine(ra_on[t], aunit, f), {t: one}
    for j1 in range(na):
        for t in range(n):
            for j2 in range(na):
                yield "bimodule-compatibility", (j1, t, j2), \
                    sparse_combine(ra_by[j2], la[j1 * n + t], f), \
                    sparse_combine(la_by[j1], ra[t * na + j2], f)
    # columns (p, q) = p * n + q of comul (x) id, id (x) comul, eps (x) id, id (x) eps
    comul_id = _Columns(lambda pq: {rs * n + pq % n: w for rs, w in dl[pq // n].items()})
    id_comul = _Columns(lambda pq: {pq // n * n * n + rs: w for rs, w in dl[pq % n].items()})
    counit_id = _Columns(lambda pq: {x * n + pq % n: w for x, w in eps[pq // n].items()})
    id_counit = _Columns(lambda pq: {pq // n * na + x: w for x, w in eps[pq % n].items()})
    for t in range(n):
        base = dl[t]
        yield "coassociativity", (t,), sparse_combine(comul_id, base, f), sparse_combine(id_comul, base, f)
        yield "left-counit", (t,), sparse_combine(la, sparse_combine(counit_id, base, f), f), {t: one}
        yield "right-counit", (t,), sparse_combine(ra, sparse_combine(id_counit, base, f), f), {t: one}
    # drop each section's columns once it is done: on dense corings they set the peak memory
    del comul_id, id_comul, counit_id, id_counit
    # left action (x) id, column (j, p, q) = (j * n + p) * n + q
    la_id = _Columns(lambda k: {y * n + k % n: w for y, w in la[k // n].items()})
    for j in range(na):
        for t in range(n):
            yield "comul-left-linear", (j, t), sparse_combine(dl, la[j * n + t], f), \
                sparse_combine(la_id, {j * n * n + pq: v for pq, v in dl[t].items()}, f)
            yield "counit-left-linear", (j, t), sparse_combine(eps, la[j * n + t], f), \
                sparse_combine(amul_by[j], eps[t], f)
            yield "counit-right-linear", (t, j), sparse_combine(eps, ra[t * na + j], f), \
                sparse_combine(amul_on[j], eps[t], f)
    del la_id
    # comul(x.b) - comul(x).b must be a combination of balancing relations
    # (y.b') (x) z - y (x) (b'.z); the combination is written down explicitly.
    # For x = a (x) c it is the relation at y = a (x) c_1 and z = 1 (x) c',
    # summed over comul(c) = c_1 (x) c_2 and psi(c_2 (x) b) = b' (x) c'.
    # id (x) right action, column (p, q, j) = (p * n + q) * na + j
    id_ra = _Columns(lambda k: {k // (n * na) * n + y: w for y, w in ra[k % (n * na)].items()})
    # c (x) b -> b' (x) (1 (x) c'), column (c, j) = c * na + j, keys (b', z) = b' * n + z
    lift = columns_of(kron(Matrix.identity(f, na), kron(a.unit, Matrix.identity(f, nc))) @ e.psi)
    # id (x) lift, column (y, c, j) = (y * nc + c) * na + j, keys (y, b', z) = (y * na + b') * n + z
    id_lift = _Columns(lambda k: {k // (nc * na) * na * n + i: w for i, w in lift[k % (nc * na)].items()})

    def relation(k):
        """(y.b) (x) z - y (x) (b.z) at k = (y * na + b) * n + z."""
        yb, z = divmod(k, n)
        y, b = divmod(yb, na)
        return sparse_combine(({y2 * n + z: w for y2, w in ra[yb].items()},
                               {y * n + z2: w for z2, w in la[b * n + z].items()}), difference, f)

    relations = _Columns(relation)
    for t in range(n):
        ia, ic = divmod(t, nc)
        for j in range(na):
            diff = sparse_combine((sparse_combine(dl, ra[t * na + j], f),
                                   sparse_combine(id_ra, {pq * na + j: v for pq, v in dl[t].items()}, f)),
                                  difference, f)
            # (id (x) lift)((a (x) comul(c)) (x) b): the coefficient of each relation
            coeffs = sparse_combine(id_lift, {(ia * nc * nc + cc) * na + j: v
                                              for cc, v in comul_c[ic].items()}, f)
            yield "comul-right-linear-mod-balancing", (t, j), diff, sparse_combine(relations, coeffs, f)


# ---------------------------------------------------------------------------
# the smash ring on Hom(C, A)


@dataclass(frozen=True)
class SmashRing:
    """Hom(C, A) with the psi-twisted opposite multiplication.

    Basis index idx(x, u) = x * dim_C + u is the map sending c_u to a_x;
    a vector of coefficients is the same thing as an A-valued matrix on C,
    so elements convert to and from dim_A x dim_C matrices by reshaping.
    """

    entwining: EntwiningPresentation
    dim: int
    mul: Matrix           # S (x) S -> S structure constants
    unit: Matrix          # column in S coordinates
    left_action: Matrix   # A (x) S -> S
    right_action: Matrix  # S (x) A -> S

    @property
    def field(self):
        return self.entwining.field

    def as_map(self, v: Matrix) -> Matrix:
        """S-coordinates column -> matrix C -> A."""
        return v.reshape(self.entwining.algebra.dim, self.entwining.coalgebra.dim)

    def from_map(self, m: Matrix) -> Matrix:
        a, c = self.entwining.algebra, self.entwining.coalgebra
        if (m.rows, m.cols) != (a.dim, c.dim):
            raise DimensionMismatch(f"expected {a.dim}x{c.dim} map")
        return Matrix.from_columns(self.field, self.dim, [m])

    def as_algebra(self) -> StructurePresentation:
        labels = tuple(f"E{x}_{u}" for x in range(self.entwining.algebra.dim)
                       for u in range(self.entwining.coalgebra.dim))
        return make_structure("algebra", self.field, self.dim, labels,
                              mul=self.mul, unit=self.unit)


def smash_product_map(e: EntwiningPresentation, f: Matrix, g: Matrix) -> Matrix:
    """(f . g)(c) = sum f(c_2)_psi g(c_1^psi), for f, g : C -> A."""
    a, c = e.algebra, e.coalgebra
    ida = Matrix.identity(e.field, a.dim)
    idc = Matrix.identity(e.field, c.dim)
    return a.mul @ kron(ida, g) @ e.psi @ kron(idc, f) @ c.comul


def build_smash(e: EntwiningPresentation) -> SmashRing:
    """Assemble the twisted ring on Hom(C, A) and verify it exhaustively."""
    a, c = e.algebra, e.coalgebra
    na, nc = a.dim, c.dim
    f = e.field
    n = na * nc
    ida = Matrix.identity(f, na)
    idc = Matrix.identity(f, nc)
    units = [Matrix.basis_column(f, n, s).reshape(na, nc) for s in range(n)]
    # (f.g) = mul . (id (x) g) . psi . (id (x) f) . comul; the part up to g
    # depends on f alone, so it is hoisted out of the pair loop
    right_parts = [e.psi @ kron(idc, units[s]) @ c.comul for s in range(n)]
    left_parts = [a.mul @ kron(ida, units[s]) for s in range(n)]
    mul = Matrix.from_columns(f, n, [left_parts[s2] @ rp for rp in right_parts for s2 in range(n)])
    unit = Matrix.from_columns(f, n, [a.unit @ c.counit])
    psi_a = [e.psi @ kron(idc, Matrix.basis_column(f, na, j)) for j in range(na)]
    lact = Matrix.from_columns(f, n, [left_parts[s] @ psi_aj for psi_aj in psi_a for s in range(n)])
    # (E_{x,u} . a_j)(c_u) = a_x a_j: column (x, u, j) of the right action is
    # column (x, j) of mul, placed at c_u
    ract = permute(kron(a.mul, idc), (na, nc, na, na, nc), (0, 1, 2, 4, 3), 2)
    smash = SmashRing(e, n, mul, unit, lact, ract)
    report.require(verify_smash(smash))
    return smash


def verify_smash(s: SmashRing) -> Report:
    """Associativity, unit laws, and the A-ring axioms, on all basis tuples."""
    return report.first_sparse_failure("verify_smash", _smash_laws(s), s.field)


def _smash_laws(s: SmashRing):
    """The laws of verify_smash as lazy (axiom, witness, lhs, rhs) sparse vectors."""
    f = s.field
    n = s.dim
    a = s.entwining.algebra
    na = a.dim
    one = f.one()
    mul = columns_of(s.mul)        # column (r, t) = r * n + t
    la = columns_of(s.left_action)   # column (j, t) = j * n + t
    ra = columns_of(s.right_action)  # column (t, j) = t * na + j
    amul = columns_of(a.mul)
    unit = columns_of(s.unit)[0]
    aunit = columns_of(a.unit)[0]
    mul_by = [mul[r * n:(r + 1) * n] for r in range(n)]    # x -> E_r E_x
    mul_on = [mul[t::n] for t in range(n)]                 # x -> E_x E_t
    la_by = [la[j * n:(j + 1) * n] for j in range(na)]     # x -> a_j . x
    ra_by = [ra[j::na] for j in range(na)]                 # x -> x . a_j
    la_on = [la[t::n] for t in range(n)]                   # a_x -> a_x . t
    ra_on = [ra[t * na:(t + 1) * na] for t in range(n)]    # a_x -> t . a_x
    for r in range(n):
        for t in range(n):
            prod = mul[r * n + t]
            for u in range(n):
                yield "associativity", (r, t, u), sparse_combine(mul_on[u], prod, f), \
                    sparse_combine(mul_by[r], mul[t * n + u], f)
    for t in range(n):
        yield "left-unit", (t,), sparse_combine(mul_on[t], unit, f), {t: one}
        yield "right-unit", (t,), sparse_combine(mul_by[t], unit, f), {t: one}
        yield "left-action-unit", (t,), sparse_combine(la_on[t], aunit, f), {t: one}
        yield "right-action-unit", (t,), sparse_combine(ra_on[t], aunit, f), {t: one}
    for j1 in range(na):
        for j2 in range(na):
            prod = amul[j1 * na + j2]
            for t in range(n):
                yield "left-action-module", (j1, j2, t), \
                    sparse_combine(la_by[j1], la[j2 * n + t], f), sparse_combine(la_on[t], prod, f)
                yield "right-action-module", (t, j1, j2), \
                    sparse_combine(ra_by[j2], ra[t * na + j1], f), sparse_combine(ra_on[t], prod, f)
    for j1 in range(na):
        for t in range(n):
            for j2 in range(na):
                yield "bimodule-compatibility", (j1, t, j2), \
                    sparse_combine(ra_by[j2], la[j1 * n + t], f), \
                    sparse_combine(la_by[j1], ra[t * na + j2], f)
    for j in range(na):
        for r in range(n):
            for t in range(n):
                yield "mul-left-linear", (j, r, t), sparse_combine(mul_on[t], la[j * n + r], f), \
                    sparse_combine(la_by[j], mul[r * n + t], f)
                yield "mul-right-linear", (r, t, j), sparse_combine(ra_by[j], mul[r * n + t], f), \
                    sparse_combine(mul_by[r], ra[t * na + j], f)
                yield "mul-balanced", (r, j, t), sparse_combine(mul_on[t], ra[r * na + j], f), \
                    sparse_combine(mul_by[r], la[j * n + t], f)
    for j in range(na):
        yield "unit-central", (j,), sparse_combine(la_by[j], unit, f), sparse_combine(ra_by[j], unit, f)


# ---------------------------------------------------------------------------
# the smash ring as the left dual of the coring


@dataclass(frozen=True)
class NuIso:
    """The mutually inverse maps between the smash ring and Hom_{A-}(coring, A).

    nu sends f to a (x) c -> a f(c); elements of the left dual are stored
    as full matrices A (x) C -> A, and nu/nu_inv are the matrices of the
    two linear maps on flattened coordinates.
    """

    smash: SmashRing
    coring: CoringPresentation
    nu: Matrix
    nu_inv: Matrix
    left_dual_basis: tuple[Matrix, ...]


def nu_map(e: EntwiningPresentation, f: Matrix) -> Matrix:
    """nu(f) : a (x) c -> a f(c) as a dim_A x (dim_A * dim_C) matrix."""
    a = e.algebra
    return a.mul @ kron(Matrix.identity(e.field, a.dim), f)


def nu_inv_map(e: EntwiningPresentation, h: Matrix) -> Matrix:
    """nu^{-1}(h) : c -> h(1_A (x) c)."""
    a, c = e.algebra, e.coalgebra
    return h @ kron(a.unit, Matrix.identity(e.field, c.dim))


def left_star_factor(coring: CoringPresentation, f: Matrix) -> Matrix:
    """The map x -> sum x_1 f(x_2) on the coring, so that f *_l g = g . factor.

    The comultiplication's second leg always has the form 1 (x) c_2, so
    (id (x) f) . comul factors through f(1 (x) -); that keeps the
    intermediate spaces no bigger than V (x) A.
    """
    e = coring.entwining
    a, c = e.algebra, e.coalgebra
    fld = coring.field
    ida = Matrix.identity(fld, a.dim)
    idc = Matrix.identity(fld, c.dim)
    f_res = f @ kron(a.unit, idc)           # c -> f(1 (x) c)
    spread = kron(ida, kron(idc, f_res) @ c.comul)   # x -> sum x_1 (x) f(x_2)
    return coring.right_action @ spread


def left_star_product(coring: CoringPresentation, f: Matrix, g: Matrix) -> Matrix:
    """(f *_l g)(x) = sum g(x_1 f(x_2)) on the left dual of the coring."""
    return g @ left_star_factor(coring, f)


def nu_iso(coring: CoringPresentation) -> NuIso:
    """Build nu and its inverse for a built coring and verify every claimed identity.

    The smash ring of the coring's entwining is built (and verified) here.
    Checks: nu_inv nu = id, the image of nu consists of left A-linear maps,
    nu takes the smash multiplication to the *_l product, preserves units,
    and is A-bilinear.  Raises CheckError if anything fails.

    nu nu_inv = id on the left dual needs no check of its own.  The matrix
    nu_inv is the matrix of nu_inv_map, so once nu_inv nu = id holds,
    nu_map(nu_inv_map(nu(E_s))) = nu(E_s) for every basis map E_s; and any
    left A-linear h equals nu(nu_inv(h)) pointwise, since
    h(a (x) c) = a.h(1 (x) c), so the image of nu is the whole left dual.
    """
    e = coring.entwining
    smash = build_smash(e)
    a = e.algebra
    na = a.dim
    f = e.field
    n = smash.dim
    ida = Matrix.identity(f, na)
    nu_images = [nu_map(e, smash.as_map(Matrix.basis_column(f, n, s))) for s in range(n)]
    nu = Matrix.from_columns(f, na * n, nu_images)
    # column (x, w) of nu_inv is nu_inv_map(E_{x,w}): row x holds row w of kron(unit, id_C)
    nu_inv = kron(ida, kron(a.unit, Matrix.identity(f, e.coalgebra.dim)).transpose())
    idn = Matrix.identity(f, n)
    bad = report.compare("nu_iso", "nu-inv-nu", nu_inv @ nu, idn, (n,))
    if bad is not None:
        raise report.CheckError(bad)
    for s, img in enumerate(nu_images):
        if img @ coring.left_action != a.mul @ kron(ida, img):
            raise report.CheckError(report.fail("nu_iso", "nu-image-left-linear", witness=(s,)))
    # multiplicativity into *_l, on flattened left-dual elements, and unit preservation
    for s1 in range(n):
        star = left_star_factor(coring, nu_images[s1])
        for s2 in range(n):
            lhs = nu @ smash.mul.col_matrix(s1 * n + s2)
            if lhs != Matrix.from_columns(f, na * n, [nu_images[s2] @ star]):
                raise report.CheckError(report.fail("nu_iso", "nu-multiplicative", witness=(s1, s2)))
    if nu_map(e, smash.as_map(smash.unit)) != coring.counit:
        raise report.CheckError(report.fail("nu_iso", "nu-unit"))
    # A-bilinearity: nu(a f) = a nu(f) and nu(f a) = nu(f) a on the left dual
    # a_j (x) f_s and f_s (x) a_j are basis vectors, so each action is one column
    for j in range(na):
        aj = Matrix.basis_column(f, na, j)
        ract_j = coring.right_action @ kron(idn, aj)
        for s in range(n):
            af = smash.as_map(smash.left_action.col_matrix(j * n + s))
            lhs = nu_map(e, af)
            rhs = nu_images[s] @ ract_j
            if lhs != rhs:
                raise report.CheckError(report.fail("nu_iso", "nu-left-linear", witness=(j, s)))
            fa = smash.as_map(smash.right_action.col_matrix(s * na + j))
            lhs = nu_map(e, fa)
            rhs = a.mul @ kron(nu_images[s], aj)
            if lhs != rhs:
                raise report.CheckError(report.fail("nu_iso", "nu-right-linear", witness=(s, j)))
    return NuIso(smash, coring, nu, nu_inv, tuple(nu_images))


# ---------------------------------------------------------------------------
# entwined modules


@dataclass(frozen=True)
class EntwinedModulePresentation:
    """A right A-module and right C-comodule tied together by psi."""

    entwining: EntwiningPresentation
    dim: int
    action: Matrix    # M (x) A -> M
    coaction: Matrix  # M -> M (x) C

    def __post_init__(self):
        na, nc = self.entwining.algebra.dim, self.entwining.coalgebra.dim
        if (self.action.rows, self.action.cols) != (self.dim, self.dim * na):
            raise DimensionMismatch("action must be dim x (dim * dim_A)")
        if (self.coaction.rows, self.coaction.cols) != (self.dim * nc, self.dim):
            raise DimensionMismatch("coaction must be (dim * dim_C) x dim")

    def as_module(self) -> ModulePresentation:
        return ModulePresentation(self.dim, self.entwining.algebra, self.action, "right",
                                  self.entwining.coalgebra, self.coaction, "right")


def verify_entwined_module(e: EntwiningPresentation, m: EntwinedModulePresentation) -> Report:
    """Module and comodule laws, then the psi-compatibility on basis pairs."""
    rep = verify_structure("module", m.as_module())
    if not rep.passed:
        return report.within("verify_entwined_module", "action", rep)
    rep = verify_structure("comodule", m.as_module())
    if not rep.passed:
        return report.within("verify_entwined_module", "coaction", rep)
    na, nc = e.algebra.dim, e.coalgebra.dim
    f = e.field
    idm = Matrix.identity(f, m.dim)
    ida = Matrix.identity(f, na)
    idc = Matrix.identity(f, nc)
    lhs = m.coaction @ m.action
    rhs = kron(m.action, idc) @ kron(idm, e.psi) @ kron(m.coaction, ida)
    bad = report.compare("verify_entwined_module", "psi-compatibility", lhs, rhs, (m.dim, na))
    return bad if bad is not None else report.ok("verify_entwined_module")


def entwined_to_smash_module(e: EntwiningPresentation, m: EntwinedModulePresentation,
                             smash: SmashRing | None = None) -> ModulePresentation:
    """m . f = sum m_0 f(m_1), the smash-ring action carried by an entwined module."""
    smash = smash or build_smash(e)
    f = e.field
    idm = Matrix.identity(f, m.dim)
    # id (x) f_s for each basis map f_s; rho(m_i) is column i of the coaction
    spreads = [kron(idm, smash.as_map(Matrix.basis_column(f, smash.dim, s))) for s in range(smash.dim)]
    rhos = [m.coaction.col_matrix(i) for i in range(m.dim)]
    action = Matrix.from_columns(f, m.dim, [m.action @ (spread @ rho) for rho in rhos for spread in spreads])
    return ModulePresentation(m.dim, smash.as_algebra(), action, "right")


def smash_unit_embedding(e: EntwiningPresentation, smash: SmashRing) -> Matrix:
    """The ring map A -> S, a -> a . 1_S (equal to 1_S . a)."""
    return smash.left_action @ kron(Matrix.identity(e.field, e.algebra.dim), smash.unit)


def smash_module_to_entwined(e: EntwiningPresentation, m: ModulePresentation,
                             smash: SmashRing | None = None) -> EntwinedModulePresentation:
    """Recover the entwined structure of a smash-ring module.

    The A-action restricts along a -> a . 1_S; the coaction is the unique
    solution of alpha(rho(m)) through the canonical injection
    M (x) C -> Hom(S, M), m (x) c -> (f -> m f(c)).
    """
    smash = smash or build_smash(e)
    if m.algebra is None or m.action_side != "right" or m.algebra.dim != smash.dim:
        raise PresentationError("expected a right module over the smash ring")
    f = e.field
    na, nc = e.algebra.dim, e.coalgebra.dim
    n, ns = m.dim, smash.dim
    # restricted A-action m . a = m . (a . 1_S)
    action = m.action @ kron(Matrix.identity(f, n), smash_unit_embedding(e, smash))
    # alpha : M (x) C -> Hom(S, M), m_k (x) c_u -> (E_{x,u'} -> delta(u, u') m_k . a_x),
    # coordinates (r, (x, u')) of Hom(S, M)
    alpha_m = permute(kron(action, Matrix.identity(f, nc)), (n, nc, n, na, nc), (0, 3, 1, 2, 4), 3)
    if kernel(alpha_m).dim != 0:
        raise PresentationError("alpha map is not injective; cannot recover a coaction")
    rho = permute(m.action, (n, n, ns), (0, 2, 1), 2)  # rho(m_k)[(r, s)] = m.action[r, (k, s)]
    sol = solve_linear(alpha_m, rho)
    if sol is None:
        raise PresentationError("module is not rational over the smash ring")
    out = EntwinedModulePresentation(e, n, action, sol.particular)
    report.require(verify_entwined_module(e, out))
    return out


def entwined_smash_roundtrip(e: EntwiningPresentation, m, direction: str):
    """Cross the category equivalence once: 'to_smash' or 'to_entwined'."""
    if direction == "to_smash":
        return entwined_to_smash_module(e, m)
    if direction == "to_entwined":
        return smash_module_to_entwined(e, m)
    raise PresentationError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# morphisms of entwined modules


def hom_entwined(e: EntwiningPresentation, m: EntwinedModulePresentation,
                 n: EntwinedModulePresentation, f: Matrix) -> Report:
    """Is f : M -> N both A-linear and C-colinear?"""
    if (f.rows, f.cols) != (n.dim, m.dim):
        raise DimensionMismatch(f"morphism must be {n.dim}x{m.dim}")
    na, nc = e.algebra.dim, e.coalgebra.dim
    ida = Matrix.identity(e.field, na)
    idc = Matrix.identity(e.field, nc)
    checks = [
        ("a-linearity", f @ m.action, n.action @ kron(f, ida), (m.dim, na)),
        ("c-colinearity", n.coaction @ f, kron(f, idc) @ m.coaction, (m.dim,)),
    ]
    return report.first_failure("hom_entwined", checks)


def hom_entwined_basis(e: EntwiningPresentation, m: EntwinedModulePresentation,
                       n: EntwinedModulePresentation) -> tuple[Matrix, ...]:
    """Canonical basis of Hom_A^C(M, N), by solving the joint linear system."""
    na, nc = e.algebra.dim, e.coalgebra.dim
    f = e.field
    ida = Matrix.identity(f, na)
    idc = Matrix.identity(f, nc)
    units = [Matrix.basis_column(f, n.dim * m.dim, t).reshape(n.dim, m.dim) for t in range(n.dim * m.dim)]
    lin = Matrix.from_columns(f, n.dim * m.dim * na, [u @ m.action - n.action @ kron(u, ida) for u in units])
    colin = Matrix.from_columns(f, n.dim * nc * m.dim,
                                [n.coaction @ u - kron(u, idc) @ m.coaction for u in units])
    sols = kernel(lin.vstack(colin))
    return tuple(sols.basis.row_matrix(i).reshape(n.dim, m.dim) for i in range(sols.dim))
