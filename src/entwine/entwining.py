"""Entwining structures and what they generate.

A right-right entwining (A, C, psi) is an algebra, a coalgebra, and a map
psi : C (x) A -> A (x) C satisfying four compatibility laws, checked
exhaustively on basis elements as rows of report.first_failure, each side
of a law a composition of structure maps.  From a verified entwining we
build the coring A (x) C, the smash ring on Hom(C, A) with the twisted
multiplication, the isomorphism between the smash ring and the left dual
of the coring, and the category equivalence between entwined modules and
smash-ring modules.  These constructions read no law: A (x) C is an
A-coring exactly when psi is an entwining (Brzezinski, Algebr. Represent.
Theory 5, 2002, Prop. 2.2), and the smash ring is then an associative
unital A-ring, the coring's left dual (Brzezinski, J. Algebra 215, 1999).
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
    nonzeros,
    permute,
    solve_linear,
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
    the entwining laws (entwining_laws) check the interaction of psi with
    multiplication, unit, comultiplication and counit.
    """
    def rows():
        yield "algebra", verify_structure("algebra", e.algebra)
        yield "coalgebra", verify_structure("coalgebra", e.coalgebra)
        yield from entwining_laws(e)
    return report.first_failure("verify_entwining", rows())


def entwining_laws(e: EntwiningPresentation) -> list:
    """The four psi laws of verify_entwining as (axiom, lhs, rhs, basis dims) rows, without A and C."""
    a, c, psi = e.algebra, e.coalgebra, e.psi
    na, nc = a.dim, c.dim
    return [
        ("psi-multiplicativity", ((nc, a.mul), psi), ((psi, na), (na, psi), (a.mul, nc)), (nc, na, na)),
        ("psi-unitality", ((nc, a.unit), psi), (a.unit, nc), (nc,)),
        ("psi-comultiplicativity", (psi, (na, c.comul)), ((c.comul, na), (nc, psi), (psi, nc)), (nc, na)),
        ("psi-counitality", (psi, (na, c.counit)), (c.counit, na), (nc, na)),
    ]


def entwining_morphism_rows(e: EntwiningPresentation, f: EntwiningPresentation, gamma: Matrix, delta: Matrix):
    """gamma an algebra morphism and delta a coalgebra morphism, as component rows, then the intertwining of psi
    with Psi; the rows of verify_entwining_morphism and of verify_dk_morphism after its beta."""
    yield "gamma", algebra_morphism_report(e.algebra, f.algebra, gamma)
    yield "delta", coalgebra_morphism_report(e.coalgebra, f.coalgebra, delta)
    na, nc = e.algebra.dim, e.coalgebra.dim
    yield ("intertwining", (e.psi, (na, delta), (gamma, f.coalgebra.dim)),
           ((nc, gamma), (delta, f.algebra.dim), f.psi), (nc, na))


def verify_entwining_morphism(e: EntwiningPresentation, f: EntwiningPresentation,
                              gamma: Matrix, delta: Matrix) -> Report:
    """(gamma, delta) intertwines psi with Psi; component morphisms checked first."""
    return report.first_failure("verify_entwining_morphism", entwining_morphism_rows(e, f, gamma, delta))


# ---------------------------------------------------------------------------
# the coring A (x) C


@dataclass(frozen=True)
class CoringPresentation:
    """The comonoid A (x) C in A-bimodules, written on the plain tensor space.

    The comultiplication is stored as a map into (A (x) C) (x) (A (x) C);
    equalities that only hold over A hold modulo the balancing subspace
    spanned by (x.a) (x) y - x (x) (a.y).
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
    """The coring carried by an entwining that has passed verify_entwining, built and not read.

    A (x) C with these maps is an A-coring exactly when psi is an entwining
    (Brzezinski, Algebr. Represent. Theory 5, 2002, Prop. 2.2): the left
    action is A's multiplication, so its laws are A's; the right action,
    the counit's right linearity and the comultiplication's right
    linearity modulo balancing are the four psi laws; coassociativity and
    the counit laws are C's.  So no coring law is read here, and the
    coring command prints its dimension, dim A * dim C, without it.
    """
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
    return CoringPresentation(e, n, left, right, comul, counit)


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


def smash_algebra(e: EntwiningPresentation, mul: Matrix) -> StructurePresentation:
    """The smash ring of e with table mul, an algebra on the basis maps E{x}_{u}; its unit is c -> epsilon(c) 1_A."""
    a, c = e.algebra, e.coalgebra
    labels = tuple(f"E{x}_{u}" for x in range(a.dim) for u in range(c.dim))
    return make_structure("algebra", e.field, a.dim * c.dim, labels, mul=mul,
                          unit=Matrix.from_columns(e.field, a.dim * c.dim, [a.unit @ c.counit]))


def twisted_product(e: EntwiningPresentation) -> Matrix:
    """The smash product (f . g)(c) = sum f(c_2)_psi g(c_1^psi) on basis maps, contracted over p, then y:

    mul_S[(z, w), ((x1, u1), (x2, u2))] = sum_{p, y} comul[(p, u1), w] psi[(y, u2), (p, x1)] mul_A[z, (y, x2)].
    """
    a, c = e.algebra, e.coalgebra
    na, nc = a.dim, c.dim
    # rows (y, u2, x1), columns (u1, w)
    inner = permute(e.psi, (na, nc, nc, na), (0, 1, 3, 2), 3) @ permute(c.comul, (nc, nc, nc), (0, 1, 2), 1)
    # rows (z, x2), columns (u2, x1, u1, w)
    outer = permute(a.mul, (na, na, na), (0, 2, 1), 2) @ permute(inner, (na, nc, na, nc, nc), (0, 1, 2, 3, 4), 1)
    return permute(outer, (na, na, nc, na, nc, nc), (0, 5, 3, 4, 1, 2), 2)


def twisted_left_action(e: EntwiningPresentation) -> Matrix:
    """The left A-action on Hom(C, A), lact[(z, w), (j, (x, u))] = sum_y psi[(y, u), (w, j)] mul_A[z, (y, x)]."""
    na, nc = e.algebra.dim, e.coalgebra.dim
    # rows (z, x), columns (u, w, j)
    out = permute(e.algebra.mul, (na, na, na), (0, 2, 1), 2) @ permute(e.psi, (na, nc, nc, na), (0, 1, 2, 3), 1)
    return permute(out, (na, na, nc, nc, na), (0, 3, 4, 1, 2), 2)


def build_smash(e: EntwiningPresentation) -> SmashRing:
    """The twisted ring on Hom(C, A) of an entwining that has passed verify_entwining, built and not read.

    Its table is twisted_product(e) and its left action
    twisted_left_action(e), contractions of the structure constants.  For
    an entwining, Hom(C, A) with the psi-twisted product is an associative
    unital A-ring (Brzezinski, J. Algebra 215, 1999), so no ring law is
    read here; the smash command prints its dimension, dim A * dim C, and
    builds it only for --table.
    """
    a, c = e.algebra, e.coalgebra
    na, nc = a.dim, c.dim
    # (E_{x,u} . a_j)(c_u) = a_x a_j: column (x, u, j) of the right action is
    # column (x, j) of mul, placed at c_u
    ract = permute(kron(a.mul, Matrix.identity(e.field, nc)), (na, nc, na, na, nc), (0, 1, 2, 4, 3), 2)
    ring = smash_algebra(e, twisted_product(e))
    return SmashRing(e, ring.dim, ring.mul, ring.unit, twisted_left_action(e), ract)


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


def nu_iso(coring: CoringPresentation) -> NuIso:
    """nu and its inverse for the coring of an entwining that has passed verify_entwining, built and not read.

    nu sends f to a (x) c -> a f(c), and nu_inv sends h to c -> h(1 (x) c).
    The smash ring of the coring's entwining is built here.  For an
    entwining, nu is an isomorphism of A-rings from the smash ring onto the
    left dual Hom_{A-}(A (x) C, A) with its *_l product (Brzezinski,
    J. Algebra 215, 1999; Algebr. Represent. Theory 5, 2002): its image is
    left A-linear, it is multiplicative, unital and A-linear on both sides,
    and nu_inv nu = id by A's unit law.  So no claim is read here, and the
    coring command prints the left dual's dimension, dim A * dim C, without nu.
    """
    e = coring.entwining
    smash = build_smash(e)
    a, c = e.algebra, e.coalgebra
    na, nc, f = a.dim, c.dim, e.field
    n = smash.dim
    # nu(E_{x,u})(a_b (x) c_w) = delta(u, w) a_b a_x: entry ((y, b, w), (x, u)) of nu is
    # entry ((y, w), ((b, x), u)) of mul (x) id_C
    nu = permute(kron(a.mul, Matrix.identity(f, nc)), (na, nc, na, na, nc), (0, 2, 1, 3, 4), 3)
    # column (x, w) of nu_inv is nu^{-1}(E_{x,w}): row x holds row w of kron(unit, id_C)
    nu_inv = kron(Matrix.identity(f, na), kron(a.unit, Matrix.identity(f, nc)).transpose())
    # nu(E_s) is column s of nu, its entry (y, v) at row y * n + v
    return NuIso(smash, coring, nu, nu_inv,
                 tuple(Matrix.from_entries(f, na, n, ((*divmod(t, n), w) for t, w in col.items()))
                       for col in columns_of(nu)))


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
    def rows():
        yield "action", verify_structure("module", m.as_module())
        yield "coaction", verify_structure("comodule", m.as_module())
        na = e.algebra.dim
        yield ("psi-compatibility", (m.action, m.coaction),
               ((m.coaction, na), (m.dim, e.psi), (m.action, e.coalgebra.dim)), (m.dim, na))
    return report.first_failure("verify_entwined_module", rows())


def entwined_to_smash_module(e: EntwiningPresentation, m: EntwinedModulePresentation) -> ModulePresentation:
    """m . f = sum m_0 f(m_1), the action of the smash ring of e carried by an entwined module: one matmul.

    e has passed verify_entwining, so the ring reads nothing, and only its
    table and unit are built (smash_algebra), not build_smash's A-actions.
    """
    nm, na, nc = m.dim, e.algebra.dim, e.coalgebra.dim
    # action[k', (i, (x, u))] = sum_k m.action[k', (k, x)] coaction[(k, u), i]: rows (k', x), columns (u, i)
    out = permute(m.action, (nm, nm, na), (0, 2, 1), 2) @ permute(m.coaction, (nm, nc, nm), (0, 1, 2), 1)
    action = permute(out, (nm, na, nc, nm), (0, 3, 1, 2), 1)
    return ModulePresentation(nm, smash_algebra(e, twisted_product(e)), action, "right")


def smash_unit_embedding(e: EntwiningPresentation) -> Matrix:
    """The ring map A -> S, a -> a . 1_S = 1_S . a, which is c -> epsilon(c) a by psi-counitality: no contraction."""
    return kron(Matrix.identity(e.field, e.algebra.dim), e.coalgebra.counit.transpose())


def smash_module_to_entwined(e: EntwiningPresentation, m: ModulePresentation) -> EntwinedModulePresentation:
    """Recover the entwined structure of a module over build_smash(e).

    The A-action restricts along a -> a . 1_S; the coaction is the unique
    solution of alpha(rho(m)) through the canonical injection
    M (x) C -> Hom(S, M), m (x) c -> (f -> m f(c)).  e has passed
    verify_entwining and m is a verified module, so the ring is not built
    and the result is not read: for finite C a right module over the smash
    ring is an entwined module (Brzezinski, J. Algebra 215, 1999).
    """
    f = e.field
    na, nc = e.algebra.dim, e.coalgebra.dim
    n, ns = m.dim, na * nc
    if m.algebra is None or m.action_side != "right" or m.algebra.dim != ns:
        raise PresentationError("expected a right module over the smash ring")
    # restricted A-action m . a = m . (a . 1_S)
    action = m.action @ kron(Matrix.identity(f, n), smash_unit_embedding(e))
    # alpha : M (x) C -> Hom(S, M), m_k (x) c_u -> (E_{x,u'} -> delta(u, u') m_k . a_x),
    # coordinates (r, (x, u')) of Hom(S, M)
    alpha_m = permute(kron(action, Matrix.identity(f, nc)), (n, nc, n, na, nc), (0, 3, 1, 2, 4), 3)
    if kernel(alpha_m).dim != 0:
        raise PresentationError("alpha map is not injective; cannot recover a coaction")
    rho = permute(m.action, (n, n, ns), (0, 2, 1), 2)  # rho(m_k)[(r, s)] = m.action[r, (k, s)]
    sol = solve_linear(alpha_m, rho)
    if sol is None:
        raise PresentationError("module is not rational over the smash ring")
    return EntwinedModulePresentation(e, n, action, sol.particular)


# ---------------------------------------------------------------------------
# morphisms of entwined modules


def hom_entwined(e: EntwiningPresentation, m: EntwinedModulePresentation,
                 n: EntwinedModulePresentation, f: Matrix) -> Report:
    """Is f : M -> N both A-linear and C-colinear?"""
    if (f.rows, f.cols) != (n.dim, m.dim):
        raise DimensionMismatch(f"morphism must be {n.dim}x{m.dim}")
    na, nc = e.algebra.dim, e.coalgebra.dim
    return report.first_failure("hom_entwined", [
        ("a-linearity", (m.action, f), ((f, na), n.action), (m.dim, na)),
        ("c-colinearity", (f, n.coaction), (m.coaction, (f, nc)), (m.dim,))])


def hom_entwined_basis(e: EntwiningPresentation, m: EntwinedModulePresentation,
                       n: EntwinedModulePresentation) -> tuple[Matrix, ...]:
    """Canonical basis of Hom_A^C(M, N), the kernel of hom_entwined_system."""
    sols = kernel(hom_entwined_system(e, m, n))
    return tuple(sols.basis.row_matrix(i).reshape(n.dim, m.dim) for i in range(sols.dim))


def hom_entwined_system(e: EntwiningPresentation, m: EntwinedModulePresentation,
                        n: EntwinedModulePresentation) -> Matrix:
    """f m.action - n.action (f (x) id_A) over n.coaction f - (f (x) id_C) m.coaction, linear in f at (i, k).

    Each part is a Kronecker product with an identity, written entry by
    entry from the nonzeros of one action or coaction, so none is laid out:
    f m.action at ((i', k', j), (i, k)) is delta(i', i) m.action[k, (k', j)],
    n.action (f (x) id_A) there is n.action[i', (i, j)] delta(k', k),
    n.coaction f at ((i', c, k'), (i, k)) is n.coaction[(i', c), i] delta(k', k)
    and (f (x) id_C) m.coaction there is delta(i', i) m.coaction[(k, c), k'].
    Terms at one entry add.
    """
    na, nc = e.algebra.dim, e.coalgebra.dim
    nm, nn = m.dim, n.dim
    colin = nn * nm * na   # the first colinearity row

    def entries():
        for k, kj, v in nonzeros(m.action):
            yield from ((i * nm * na + kj, i * nm + k, v) for i in range(nn))
        for i2, ij, v in nonzeros(n.action):
            i, j = divmod(ij, na)
            yield from (((i2 * nm + k) * na + j, i * nm + k, -v) for k in range(nm))
        for ic, i, v in nonzeros(n.coaction):
            yield from ((colin + ic * nm + k, i * nm + k, v) for k in range(nm))
        for kc, k2, v in nonzeros(m.coaction):
            k, c = divmod(kc, nc)
            yield from ((colin + (i * nc + c) * nm + k2, i * nm + k, -v) for i in range(nn))

    return Matrix.from_entries(e.field, colin + nn * nc * nm, nn * nm, entries())
