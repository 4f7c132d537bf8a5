"""Entwining structures and what they generate.

A right-right entwining (A, C, psi) is an algebra, a coalgebra, and a map
psi : C (x) A -> A (x) C satisfying four compatibility laws.  From a
verified entwining we build the coring A (x) C, the smash ring on
Hom(C, A) with the twisted multiplication, the isomorphism between the
smash ring and the left dual of the coring, and the category equivalence
between entwined modules and smash-ring modules, all checked exhaustively
on basis elements as rows of report.first_failure, each side of a law a
composition of structure maps.
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


def verify_entwining_morphism(e: EntwiningPresentation, f: EntwiningPresentation,
                              gamma: Matrix, delta: Matrix) -> Report:
    """(gamma, delta) intertwines psi with Psi; component morphisms checked first."""
    def rows():
        yield "gamma", algebra_morphism_report(e.algebra, f.algebra, gamma)
        yield "delta", coalgebra_morphism_report(e.coalgebra, f.coalgebra, delta)
        na, nc = e.algebra.dim, e.coalgebra.dim
        yield ("intertwining", (e.psi, (na, delta), (gamma, f.coalgebra.dim)),
               ((nc, gamma), (delta, f.algebra.dim), f.psi), (nc, na))
    return report.first_failure("verify_entwining_morphism", rows())


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


def verify_coring(coring: CoringPresentation) -> Report:
    """Bimodule laws, coassociativity, counit laws and balanced bilinearity.

    Each law is a row of report.first_failure whose sides are compositions
    of the structure maps, checked one row or column at a time; tensor maps
    such as comul (x) id are pairs that are never laid out.  Right
    linearity of the comultiplication only holds modulo the balancing
    relations (x.a) (x) y - x (x) (a.y); it is certified by exhibiting the
    explicit combination of relations that closes the gap.
    """
    return report.first_failure("verify_coring", _coring_laws(coring))


def _coring_laws(coring: CoringPresentation) -> list:
    """The laws of verify_coring as (axiom, lhs, rhs, basis dims) rows."""
    e = coring.entwining
    a, c = e.algebra, e.coalgebra
    f = coring.field
    n, na = coring.dim, a.dim
    la, ra, comul, counit = coring.left_action, coring.right_action, coring.comul, coring.counit
    idv = Matrix.identity(f, n)
    # comul(x.b) - comul(x).b, x = a (x) c, is the sum of the balancing relations (y.b') (x) z - y (x) (b'.z)
    # at y = a (x) c_1, z = 1 (x) c' over comul(c) = c_1 (x) c_2, psi(c_2 (x) b) = b' (x) c'; lift is
    # c (x) b -> b' (x) (1 (x) c'), and coefficients send x (x) b to those y (x) b' (x) z
    lift = kron(Matrix.identity(f, na), kron(a.unit, Matrix.identity(f, c.dim))) @ e.psi
    coefficients = ((na, kron(c.comul, Matrix.identity(f, na))), (n, lift))
    return [
        ("left-action-associativity", ((na, la), la), ((a.mul, n), la), (na, na, n)),
        ("right-action-associativity", ((ra, na), ra), ((n, a.mul), ra), (n, na, na)),
        ("left-action-unit", ((a.unit, n), la), idv, (n,)),
        ("right-action-unit", ((n, a.unit), ra), idv, (n,)),
        ("bimodule-compatibility", ((la, na), ra), ((na, ra), la), (na, n, na)),
        ("coassociativity", (comul, (comul, n)), (comul, (n, comul)), (n,)),
        ("left-counit", (comul, (counit, n), la), idv, (n,)),
        ("right-counit", (comul, (n, counit), ra), idv, (n,)),
        ("comul-left-linear", (la, comul), ((na, comul), (la, n)), (na, n)),
        ("counit-left-linear", (la, counit), ((na, counit), a.mul), (na, n)),
        ("counit-right-linear", (ra, counit), ((counit, na), a.mul), (n, na)),
        ("comul-right-linear-mod-balancing",
         [(1, (ra, comul)), (-1, ((comul, na), (n, ra)))],
         [(1, (*coefficients, (ra, n))), (-1, (*coefficients, (n, la)))], (n, na)),
    ]


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

    def as_algebra(self) -> StructurePresentation:
        labels = tuple(f"E{x}_{u}" for x in range(self.entwining.algebra.dim)
                       for u in range(self.entwining.coalgebra.dim))
        return make_structure("algebra", self.field, self.dim, labels,
                              mul=self.mul, unit=self.unit)


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
    """Assemble the twisted ring on Hom(C, A) from contractions of the structure constants and verify it.

    The table is twisted_product(e), so only the ring rows are read:
    verify_smash's twisted-product row holds for it by construction.
    """
    a, c = e.algebra, e.coalgebra
    na, nc = a.dim, c.dim
    f = e.field
    unit = Matrix.from_columns(f, na * nc, [a.unit @ c.counit])
    # (E_{x,u} . a_j)(c_u) = a_x a_j: column (x, u, j) of the right action is
    # column (x, j) of mul, placed at c_u
    ract = permute(kron(a.mul, Matrix.identity(f, nc)), (na, nc, na, na, nc), (0, 1, 2, 4, 3), 2)
    smash = SmashRing(e, na * nc, twisted_product(e), unit, twisted_left_action(e), ract)
    report.require(report.first_failure("verify_smash", _smash_laws(smash)))
    return smash


def verify_smash(s: SmashRing) -> Report:
    """Associativity, unit laws, the A-ring axioms, then the table against twisted_product, on all basis tuples."""
    return report.first_failure("verify_smash", [
        *_smash_laws(s), ("twisted-product", s.mul, twisted_product(s.entwining), (s.dim, s.dim))])


def _smash_laws(s: SmashRing) -> list:
    """The ring laws of verify_smash as (axiom, lhs, rhs, basis dims) rows, without twisted-product."""
    a = s.entwining.algebra
    n, na = s.dim, a.dim
    mul, unit, la, ra = s.mul, s.unit, s.left_action, s.right_action
    ids = Matrix.identity(s.field, n)
    return [
        ("associativity", ((mul, n), mul), ((n, mul), mul), (n, n, n)),
        ("left-unit", ((unit, n), mul), ids, (n,)),
        ("right-unit", ((n, unit), mul), ids, (n,)),
        ("left-action-unit", ((a.unit, n), la), ids, (n,)),
        ("right-action-unit", ((n, a.unit), ra), ids, (n,)),
        ("left-action-module", ((na, la), la), ((a.mul, n), la), (na, na, n)),
        ("right-action-module", ((ra, na), ra), ((n, a.mul), ra), (n, na, na)),
        ("bimodule-compatibility", ((la, na), ra), ((na, ra), la), (na, n, na)),
        ("mul-left-linear", ((la, n), mul), ((na, mul), la), (na, n, n)),
        ("mul-right-linear", ((mul, na), ra), ((n, ra), mul), (n, n, na)),
        ("mul-balanced", ((ra, n), mul), ((n, la), mul), (n, na, n)),
        ("unit-central", ((na, unit), la), ((unit, na), ra), (na,)),
    ]


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
    """Build nu and its inverse for a built coring and verify every claimed identity.

    The smash ring of the coring's entwining is built (and verified) here.
    The claims are the rows of _nu_laws, checked by report.first_failure
    on all their basis tuples at once: the image of nu consists of left
    A-linear maps (nu-image-left-linear), nu takes the smash multiplication
    to the *_l product (nu-multiplicative), preserves units (nu-unit), and
    is left A-linear (nu-left-linear).  Raises CheckError if anything
    fails, with the first differing column of both sides.

    The other claims need no row: the coring passed verify_coring, whose
    left-action rows are A's laws on left_action = mul (x) id_C.
    nu_inv nu = id, as nu_inv(nu(f))(c) = nu(f)(1 (x) c) = f(c) by A's
    left unit law; nu is right A-linear, as
    nu(f . a)(b (x) c) = b (f(c) a) = (b f(c)) a by A's associativity.
    Then nu nu_inv = id on the left dual: nu(nu_inv(nu(E_s))) = nu(E_s),
    and any left A-linear h is nu(nu_inv(h)), as h(a (x) c) = a.h(1 (x) c).
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
    report.require(report.first_failure("nu_iso", _nu_laws(coring, smash, nu)))
    # nu(E_s) is column s of nu, its entry (y, v) at row y * n + v
    return NuIso(smash, coring, nu, nu_inv,
                 tuple(Matrix.from_entries(f, na, n, ((*divmod(t, n), w) for t, w in col.items()))
                       for col in columns_of(nu)))


def _nu_laws(coring: CoringPresentation, smash: SmashRing, nu: Matrix) -> list:
    """The claims of nu_iso as (axiom, lhs, rhs, basis dims) rows, but the two that A's laws imply (see nu_iso).

    Column s of nu is nu(E_s) : V -> A flattened with rows (y, v), and nu_t
    holds the same maps transposed, rows (v, y).  Two claims precompose
    nu(E_s) with an endomorphism of V: nu-multiplicative with the factor
    x -> x_1 f(x_2) of f = nu(E_s1), since f *_l g = g . ra . (id_V (x) f)
    . comul, and nu-left-linear with x -> x a_j, since (a.h)(x) = h(x a).
    With endomorphism T_k stored as column k of a matrix, at row (w, v) for
    T_k[v, w], the pairs (that matrix, n) then (n, nu_cols) send k (x) s to
    (nu(E_s) . T_k)^T, where nu_cols is nu with rows y and columns (v, s).
    The factors of every s1 (stars) take two products, and they read the
    coring's own right action and comultiplication.
    """
    a = coring.entwining.algebra
    n, na = coring.dim, a.dim
    ra = coring.right_action
    nu_t = permute(nu, (na, n, n), (1, 0, 2), 2)
    nu_cols = permute(nu, (na, n, n), (0, 1, 2), 1)
    # star_s[v, w] = sum ra[v, (v', b)] nu(E_s)[b, v''] comul[(v', v''), w], at row (w, v) and column s
    images = permute(nu, (na, n, n), (2, 0, 1), 2)                      # rows (s, b), columns v''
    spread = images @ permute(coring.comul, (n, n, n), (1, 0, 2), 1)    # rows (s, b), columns (v', w)
    stars = permute(ra @ permute(spread, (n, na, n, n), (2, 1, 0, 3), 2), (n, n, n), (2, 0, 1), 2)
    right_by = permute(ra, (n, n, na), (1, 0, 2), 2)                     # column j: ra(- (x) a_j), rows (w, v)
    return [
        ("nu-image-left-linear", (nu, (na, coring.left_action.transpose())),
         (nu, (permute(a.mul, (na, na, na), (0, 1, 2), 2), n)), (n,)),
        ("nu-multiplicative", (smash.mul, nu_t), ((stars, n), (n, nu_cols)), (n, n)),
        ("nu-unit", (smash.unit, nu), Matrix.from_columns(coring.field, na * n, [coring.counit]), ()),
        ("nu-left-linear", (smash.left_action, nu_t), ((right_by, n), (n, nu_cols)), (na, n)),
    ]


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
    """m . f = sum m_0 f(m_1), the action of build_smash(e) carried by an entwined module: one matmul."""
    nm, na, nc = m.dim, e.algebra.dim, e.coalgebra.dim
    # action[k', (i, (x, u))] = sum_k m.action[k', (k, x)] coaction[(k, u), i]: rows (k', x), columns (u, i)
    out = permute(m.action, (nm, nm, na), (0, 2, 1), 2) @ permute(m.coaction, (nm, nc, nm), (0, 1, 2), 1)
    action = permute(out, (nm, na, nc, nm), (0, 3, 1, 2), 1)
    return ModulePresentation(nm, build_smash(e).as_algebra(), action, "right")


def smash_unit_embedding(e: EntwiningPresentation, smash: SmashRing) -> Matrix:
    """The ring map A -> S, a -> a . 1_S (equal to 1_S . a)."""
    return smash.left_action @ kron(Matrix.identity(e.field, e.algebra.dim), smash.unit)


def smash_module_to_entwined(e: EntwiningPresentation, m: ModulePresentation) -> EntwinedModulePresentation:
    """Recover the entwined structure of a module over build_smash(e).

    The A-action restricts along a -> a . 1_S; the coaction is the unique
    solution of alpha(rho(m)) through the canonical injection
    M (x) C -> Hom(S, M), m (x) c -> (f -> m f(c)).  m is a verified
    module, and the result is not read: for finite C a right module over
    the smash ring is an entwined module (Brzezinski, J. Algebra 215, 1999).
    """
    smash = build_smash(e)
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

    Each of the four parts is a kron with an identity, permuted: f m.action at ((i', k', j), (i, k)) is
    delta(i', i) m.action[k, (k', j)], and (f (x) id_C) m.coaction at ((i', c, k'), (i, k)) is
    delta(i', i) m.coaction[(k, c), k'].
    """
    na, nc = e.algebra.dim, e.coalgebra.dim
    nm, nn, f = m.dim, n.dim, e.field
    idm, idn = Matrix.identity(f, nm), Matrix.identity(f, nn)
    lin = kron(idn, m.action.transpose()) \
        - permute(kron(n.action, idm), (nn, nm, nn, na, nm), (0, 1, 3, 2, 4), 3)
    colin = kron(n.coaction, idm) - kron(idn, permute(m.coaction, (nm, nc, nm), (1, 2, 0), 2))
    return lin.vstack(colin)
