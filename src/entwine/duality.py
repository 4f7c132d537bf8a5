"""Dual entwining structures and dual entwined modules.

Given a verified entwining (A, C, psi), a subalgebra of C* containing the
counit and a subcoalgebra of A* that psi* maps into each other induce a
dual entwining on the chosen subobjects.  In finite dimension the full
duals always work, and are built by transposition, with nothing solved;
proper subobjects are accepted but must pass the closure check, and a
failure is reported with the witness pair rather than silently patched.
Each construction on proper subobjects decides closure with one solve: it
builds the images of all its basis elements (or pairs) as one
matrix and writes them in the target basis with exactlin.express, which
names the first image outside the span; the witness pair is decoded from
that column index.

Each construction builds from verified input and reads no law that the
input implies; its docstring names the theorem.

The module-level functors send an entwined module M to the rational part
of M* over the dual data and back; the two directions are mutually
adjoint, which adjunction_check verifies literally on computed Hom bases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import Matrix, PresentationError, Subspace, express, kron, rank
from . import report
from .report import ClosureViolation, Report
from .structures import (
    ModulePresentation,
    PairingPresentation,
    StructurePresentation,
    dual_action_on_dual,
    make_structure,
    rational_submodule,
)
from .entwining import (
    EntwinedModulePresentation,
    EntwiningPresentation,
    hom_entwined,
    hom_entwined_basis,
    verify_entwined_module,
    verify_entwining_morphism,
)


def restrict_dual_algebra(c: StructurePresentation, basis: Matrix) -> StructurePresentation:
    """The subalgebra of the convolution algebra C* spanned by the given rows.

    Requires the counit (the unit of C*) in the span and closure under
    convolution; the structure constants come back in the given basis.
    """
    k = basis.rows
    f = basis.field
    if basis.cols != c.dim:
        raise PresentationError("basis rows must be functionals on C")
    unit_coords, _ = express(basis, c.counit.transpose())
    if unit_coords is None:
        raise PresentationError("subalgebra of C* must contain the counit")
    # row (i, j) of the products is the convolution of basis rows i and j
    mul, bad = express(basis, (kron(basis, basis) @ c.comul).transpose())
    if mul is None:
        raise PresentationError(f"not closed under convolution at basis pair {divmod(bad, k)}")
    return make_structure("algebra", f, k, tuple(f"u{i}" for i in range(k)),
                          mul=mul, unit=unit_coords)


def restrict_dual_coalgebra(a: StructurePresentation, basis: Matrix) -> StructurePresentation:
    """The subcoalgebra of A* spanned by the given rows (closure checked)."""
    k = basis.rows
    f = basis.field
    if basis.cols != a.dim:
        raise PresentationError("basis rows must be functionals on A")
    comul, bad = express(kron(basis, basis), (basis @ a.mul).transpose())
    if comul is None:
        raise PresentationError(f"not a subcoalgebra of the dual at basis row {bad}")
    counit = (basis @ a.unit).transpose()
    return make_structure("coalgebra", f, k, tuple(f"v{i}" for i in range(k)),
                          comul=comul, counit=counit)


@dataclass(frozen=True)
class DualDatum:
    """A dual entwining: the chosen subobjects and the entwining they form, with psi* as its psi."""

    source: EntwiningPresentation
    atil_basis: Matrix   # rows: functionals on C spanning the dual algebra
    ctil_basis: Matrix   # rows: functionals on A spanning the dual coalgebra
    atil: StructurePresentation
    ctil: StructurePresentation
    dual: EntwiningPresentation

    def pairing_a_ctil(self) -> PairingPresentation:
        """<a, f~> = f~(a), the measuring pairing of A against the dual coalgebra."""
        return PairingPresentation(self.source.algebra, self.ctil, self.ctil_basis.transpose())

    def pairing_atil_c(self) -> PairingPresentation:
        """<g~, c> = g~(c), the pairing of the dual algebra against C."""
        return PairingPresentation(self.atil, self.source.coalgebra, self.atil_basis)


def dual_entwining(e: EntwiningPresentation, atil_basis: Matrix | None = None,
                   ctil_basis: Matrix | None = None) -> DualDatum:
    """The dual entwining on (A~, C~) of an entwining that has passed verify_entwining.

    Defaults to the full duals A~ = C*, C~ = A*, which always close in
    finite dimension: their structure maps are C's and A's transposed, and
    psi* is psi transposed, so nothing is solved.  Given bases must have
    linearly independent rows, or PresentationError is raised; for proper
    subobjects the closure of psi* is tested on every basis pair with one
    solve and a violation raises ClosureViolation with the witness pair.
    Nothing built is read again (the paper): A~ is a subalgebra of the
    convolution algebra C* of a verified coalgebra and C~ a subcoalgebra
    of the dual coalgebra A*, the two pairings measure because A~ and C~
    carry the structure they inherit from C* and A*, and each psi law of
    the dual is a psi law of e, transposed and restricted to A~ and C~.
    """
    a, c, psi = e.algebra, e.coalgebra, e.psi
    f = e.field
    if atil_basis is None and ctil_basis is None:
        atil = make_structure("algebra", f, c.dim, tuple(f"u{i}" for i in range(c.dim)),
                              mul=c.comul.transpose(), unit=c.counit.transpose())
        ctil = make_structure("coalgebra", f, a.dim, tuple(f"v{i}" for i in range(a.dim)),
                              comul=a.mul.transpose(), counit=a.unit.transpose())
        return DualDatum(e, Matrix.identity(f, c.dim), Matrix.identity(f, a.dim), atil, ctil,
                         EntwiningPresentation(atil, ctil, psi.transpose()))
    if atil_basis is None:
        atil_basis = Matrix.identity(f, c.dim)
    if ctil_basis is None:
        ctil_basis = Matrix.identity(f, a.dim)
    for name, basis in (("atil_basis", atil_basis), ("ctil_basis", ctil_basis)):
        if rank(basis) < basis.rows:
            raise PresentationError(f"the rows of {name} are linearly dependent")
    atil = restrict_dual_algebra(c, atil_basis)
    ctil = restrict_dual_coalgebra(a, ctil_basis)
    # row (i, j) of the images is psi* of the i-th C~ and j-th A~ basis functionals
    images = kron(ctil_basis, atil_basis) @ psi
    phi, bad = express(kron(atil_basis, ctil_basis), images.transpose())
    if phi is None:
        raise ClosureViolation(report.fail(
            "dual_entwining", "closure-violated", witness=divmod(bad, atil.dim),
            lhs=images.row_matrix(bad).render(), rhs="span(A~ (x) C~)"))
    return DualDatum(e, atil_basis, ctil_basis, atil, ctil, EntwiningPresentation(atil, ctil, phi))


def double_dual_comparison(e: EntwiningPresentation) -> Report:
    """Compare the double dual against the original under evaluation bases.

    The result is reported, never asserted: agreement is not part of the
    construction's contract.
    """
    dd = dual_entwining(dual_entwining(e).dual)
    agrees = dd.dual.psi == e.psi
    return report.ok("double_dual_comparison", agrees=agrees)


# ---------------------------------------------------------------------------
# dual modules


@dataclass(frozen=True)
class DualModule:
    """A rational part of a dual space, as an entwined module.

    basis rows live in the coordinates of the dual of the source module,
    and are the RREF basis of the rational part; the module structure is
    written in those basis coordinates.
    """

    basis: Matrix
    module: EntwinedModulePresentation

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def subspace(self) -> Subspace:
        """The span of the basis rows, with the basis as it is."""
        return Subspace(self.basis.field, self.basis.cols, self.basis)


def _dual_module(m: EntwinedModulePresentation, rat_pairing: PairingPresentation,
                 act_pairing: PairingPresentation, target: EntwiningPresentation) -> DualModule:
    """The rational part of M* along rat_pairing, with the right action that act_pairing carries.

    M* is a left module over rat_pairing's algebra by (a.h)(m) = h(m a);
    its rational part picks up a coaction of rat_pairing's coalgebra.  The
    right action of act_pairing's algebra, (h.a)(m) = sum h(m_0) <a, m_1>,
    is M's coaction transposed and paired, and is restricted to the
    rational part, which it preserves when m is a verified module; its
    coordinates are read at the pivots of the rational part's RREF basis.
    """
    lact = dual_action_on_dual(m.action, m.dim, rat_pairing.algebra.dim, "right")
    rat = rational_submodule(rat_pairing, ModulePresentation(m.dim, rat_pairing.algebra, lact, "left"))
    w = rat.subspace.basis
    # column (t, j) of the images is w_t acted on by a_j
    images = m.coaction.transpose() @ kron(w.transpose(), act_pairing.matrix.transpose())
    ract, bad = rat.subspace.coordinates(images)
    if ract is None:
        raise report.CheckError(report.fail("dual_module", "action-leaves-subspace",
                                            witness=divmod(bad, act_pairing.algebra.dim)))
    return DualModule(w, EntwinedModulePresentation(target, rat.dim, ract, rat.coaction))


def dual_module_r(d: DualDatum, m: EntwinedModulePresentation) -> DualModule:
    """The rational part M_r of M* as an entwined module over the dual data.

    M* carries the left A-action (a.h)(m) = h(m a) and the right action of
    the dual algebra through the coaction of M; the rational part over the
    (A, C~) pairing picks up the dual-coalgebra coaction.  rational_submodule
    checks the rank criterion on that pairing and raises
    AlphaConditionError.  m is a verified module over d.source, and the
    result is not read: M_r of an entwined module is a dual entwined
    module (the paper), each of its laws one of M's, transposed.
    """
    if m.entwining != d.source:
        raise PresentationError("module does not live over the source entwining")
    return _dual_module(m, d.pairing_a_ctil(), d.pairing_atil_c(), d.dual)


def dual_module_upper_r(d: DualDatum, k: EntwinedModulePresentation) -> DualModule:
    """The mirror functor, from modules over the dual data back to (A, C, psi), along the (A~, C) pairing.

    k is a verified module over d.dual, and the result is not read: K^r of
    a dual entwined module is an entwined module (the paper), as for M_r.
    """
    if k.entwining != d.dual:
        raise PresentationError("module does not live over the dual entwining")
    return _dual_module(k, d.pairing_atil_c(), d.pairing_a_ctil(), d.source)


# ---------------------------------------------------------------------------
# the adjunction


def adjunction_check(d: DualDatum, m: EntwinedModulePresentation,
                     k: EntwinedModulePresentation | None = None) -> Report:
    """Verify the two Hom-space bijections are mutually inverse, exactly.

    M is verified over d.source and K over d.dual first, and a failure is
    reported as module[...] or dual-module[...]; K defaults to M_r, built
    from M, and then K^r is also the double dual of M_r, as M_r is the
    double dual of K whenever K^r is M.  Hom(M, K^r) and
    Hom(K, M_r) are computed as joint kernels; the maps f -> f* . lambda_K
    and g -> g* . lambda_M are applied to every basis element, checked to
    land in the opposite Hom space, and composed both ways back to the
    identity.  Every coordinate in M_r, K^r and the double duals is read
    at the pivots of their RREF bases (Subspace.coordinates), with no
    solve.
    """
    parts = report.first_failure("adjunction_check", (
        (part, verify_entwined_module(e, module))
        for part, e, module in (("module", d.source, m), ("dual-module", d.dual, k)) if module is not None))
    if not parts.passed:
        return parts
    mr = dual_module_r(d, m)
    k = mr.module if k is None else k   # M_r of a verified M needs no check
    kr = dual_module_upper_r(d, k)
    hom_mkr = hom_entwined_basis(d.source, m, kr.module)
    hom_kmr = hom_entwined_basis(d.dual, k, mr.module)
    if len(hom_mkr) != len(hom_kmr):
        return report.fail("adjunction_check", "hom-dimension-mismatch",
                           dim_hom_m_kr=len(hom_mkr), dim_hom_k_mr=len(hom_kmr))
    lam_m = mr.basis   # lambda_M : M -> (M_r)*, evaluation
    lam_k = kr.basis
    # evaluation lands in the double duals; (M_r)^r is K^r when K is M_r, and (K^r)_r is M_r when K^r is M
    mrr = kr if k is mr.module else dual_module_upper_r(d, mr.module)
    krr = mr if kr.module == m else dual_module_r(d, kr.module)
    for name, rr, lam in (("lambda_M", mrr, lam_m), ("lambda_K", krr, lam_k)):
        _, bad = rr.subspace.coordinates(lam)
        if bad is not None:
            return report.fail("adjunction_check", f"{name}-outside-double-dual", witness=(bad,))
    mr_span, kr_span = mr.subspace, kr.subspace

    def fwd(fmat: Matrix) -> Matrix:
        g, _ = mr_span.coordinates(fmat.transpose() @ lam_k)
        if g is None:
            raise report.CheckError(report.fail("adjunction_check", "Lambda-image-outside-subspace"))
        return g

    def bwd(gmat: Matrix) -> Matrix:
        f, _ = kr_span.coordinates(gmat.transpose() @ lam_m)
        if f is None:
            raise report.CheckError(report.fail("adjunction_check", "Gamma-image-outside-subspace"))
        return f

    for idx, fmat in enumerate(hom_mkr):
        g = fwd(fmat)
        rep = hom_entwined(d.dual, k, mr.module, g)
        if not rep.passed:
            return report.fail("adjunction_check", f"Lambda-image-not-morphism[{rep.axiom}]",
                               witness=(idx,))
        back = bwd(g)
        if back != fmat:
            return report.fail("adjunction_check", "Gamma-Lambda-not-identity", witness=(idx,),
                               lhs=back.render(), rhs=fmat.render())
    for idx, gmat in enumerate(hom_kmr):
        fmat = bwd(gmat)
        rep = hom_entwined(d.source, m, kr.module, fmat)
        if not rep.passed:
            return report.fail("adjunction_check", f"Gamma-image-not-morphism[{rep.axiom}]",
                               witness=(idx,))
        back = fwd(fmat)
        if back != gmat:
            return report.fail("adjunction_check", "Lambda-Gamma-not-identity", witness=(idx,),
                               lhs=back.render(), rhs=gmat.render())
    return report.ok("adjunction_check", hom_dim=len(hom_mkr))


def dual_entwining_morphism(d_e: DualDatum, d_f: DualDatum,
                            gamma: Matrix, delta: Matrix) -> Report:
    """Transpose a morphism of entwinings to a morphism of the dual entwinings.

    (gamma, delta) : source(d_e) -> source(d_f) must be a verified
    morphism whose transposes respect the chosen subobjects.  The induced
    pair (delta*, gamma*) : dual(d_f) -> dual(d_e) is not checked again:
    each of its morphism laws is one of (gamma, delta), transposed and
    restricted to the chosen subobjects.
    """
    rep = verify_entwining_morphism(d_e.source, d_f.source, gamma, delta)
    if not rep.passed:
        return rep
    # delta* : B~ -> A~ and gamma* : D~ -> C~ on the chosen bases
    _, bad = express(d_e.atil_basis, (d_f.atil_basis @ delta).transpose())
    if bad is not None:
        return report.fail("dual_entwining_morphism", "delta-transpose-inclusion", witness=(bad,))
    _, bad = express(d_e.ctil_basis, (d_f.ctil_basis @ gamma).transpose())
    if bad is not None:
        return report.fail("dual_entwining_morphism", "gamma-transpose-inclusion", witness=(bad,))
    return report.ok("dual_entwining_morphism")
