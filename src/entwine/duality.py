"""Dual entwining structures and dual entwined modules.

Given a verified entwining (A, C, psi), a subalgebra of C* containing the
counit and a subcoalgebra of A* that psi* maps into each other induce a
dual entwining on the chosen subobjects.  In finite dimension the full
duals always work; proper subobjects are accepted but must pass the
closure check, and a failure is reported with the witness pair rather
than silently patched.  Each construction decides closure with one
solve: it builds the images of all its basis elements (or pairs) as one
matrix and writes them in the target basis with exactlin.express, which
names the first image outside the span; the witness pair is decoded from
that column index.

The module-level functors send an entwined module M to the rational part
of M* over the dual data and back; the two directions are mutually
adjoint, which adjunction_check verifies literally on computed Hom bases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import Matrix, PresentationError, Subspace, express, kron
from . import report
from .report import ClosureViolation, Report
from .structures import (
    ModulePresentation,
    PairingPresentation,
    StructurePresentation,
    coaction_to_dual_action,
    dual_action_on_dual,
    make_structure,
    module_from_coaction,
    rational_submodule,
    require_alpha,
    verify_measuring_pairing,
    verify_structure,
)
from .entwining import (
    EntwinedModulePresentation,
    EntwiningPresentation,
    hom_entwined,
    hom_entwined_basis,
    verify_entwined_module,
    verify_entwining,
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
    """A dual entwining: the chosen subobjects, the induced map, and the
    verified entwining they form."""

    source: EntwiningPresentation
    atil_basis: Matrix   # rows: functionals on C spanning the dual algebra
    ctil_basis: Matrix   # rows: functionals on A spanning the dual coalgebra
    atil: StructurePresentation
    ctil: StructurePresentation
    phi: Matrix
    dual: EntwiningPresentation

    def pairing_a_ctil(self) -> PairingPresentation:
        """<a, f~> = f~(a), the measuring pairing of A against the dual coalgebra."""
        return PairingPresentation(self.source.algebra, self.ctil, self.ctil_basis.transpose())

    def pairing_atil_c(self) -> PairingPresentation:
        """<g~, c> = g~(c), the pairing of the dual algebra against C."""
        return PairingPresentation(self.atil, self.source.coalgebra, self.atil_basis)


def dual_entwining(e: EntwiningPresentation, atil_basis: Matrix | None = None,
                   ctil_basis: Matrix | None = None) -> DualDatum:
    """Construct and verify the dual entwining on (A~, C~).

    Defaults to the full duals A~ = C*, C~ = A*, which always close in
    finite dimension.  For proper subobjects the closure of psi* is
    tested on every basis pair and a violation raises ClosureViolation
    with the witness pair.
    """
    a, c, psi = e.algebra, e.coalgebra, e.psi
    f = e.field
    if atil_basis is None:
        atil_basis = Matrix.identity(f, c.dim)
    if ctil_basis is None:
        ctil_basis = Matrix.identity(f, a.dim)
    atil = restrict_dual_algebra(c, atil_basis)
    ctil = restrict_dual_coalgebra(a, ctil_basis)
    # row (i, j) of the images is psi* of the i-th C~ and j-th A~ basis functionals
    images = kron(ctil_basis, atil_basis) @ psi
    phi, bad = express(kron(atil_basis, ctil_basis), images.transpose())
    if phi is None:
        raise ClosureViolation(report.fail(
            "dual_entwining", "closure-violated", witness=divmod(bad, atil.dim),
            lhs=images.row_matrix(bad).render(), rhs="span(A~ (x) C~)"))
    dual = EntwiningPresentation(atil, ctil, phi)
    for rep in (verify_structure(None, atil), verify_structure(None, ctil),
                verify_measuring_pairing(PairingPresentation(a, ctil, ctil_basis.transpose())),
                verify_measuring_pairing(PairingPresentation(atil, c, atil_basis)),
                verify_entwining(dual)):
        report.require(rep)
    return DualDatum(e, atil_basis, ctil_basis, atil, ctil, phi, dual)


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

    basis rows live in the coordinates of the dual of the source module;
    the module structure is written in those basis coordinates.
    """

    basis: Matrix
    module: EntwinedModulePresentation

    @property
    def dim(self) -> int:
        return self.basis.rows


def _restrict_right_action(action: Matrix, w: Subspace, adim: int, op: str) -> Matrix:
    """Rewrite a right action on the ambient space in subspace coordinates."""
    # column (t, j) of the images is w_t acted on by a_j
    images = action @ kron(w.basis.transpose(), Matrix.identity(action.field, adim))
    coords, bad = express(w.basis, images)
    if coords is None:
        raise report.CheckError(report.fail(op, "action-leaves-subspace", witness=divmod(bad, adim)))
    return coords


def dual_module_r(d: DualDatum, m: EntwinedModulePresentation) -> DualModule:
    """The rational part of M* as an entwined module over the dual data.

    M* carries the left A-action (a.h)(m) = h(m a) and the right action of
    the dual algebra through the coaction of M; the rational part over the
    (A, C~) pairing picks up the dual-coalgebra coaction, and the result
    is verified over (A~, C~, phi).
    """
    e = d.source
    if m.entwining != e:
        raise PresentationError("module does not live over the source entwining")
    pairing = d.pairing_a_ctil()
    require_alpha(pairing, "(A, C~) pairing")
    na, nc = e.algebra.dim, e.coalgebra.dim
    lact = dual_action_on_dual(m.action, m.dim, na, "right")
    cstar_on_m = coaction_to_dual_action(m.coaction, m.dim, nc, "right")
    # the C*-action restricted to A~, the span of the atil_basis functionals
    atil_on_m = cstar_on_m @ kron(d.atil_basis.transpose(), Matrix.identity(e.field, m.dim))
    ract_mstar = dual_action_on_dual(atil_on_m, m.dim, d.atil.dim, "left")
    rat = rational_submodule(pairing, ModulePresentation(m.dim, e.algebra, lact, "left"))
    ract = _restrict_right_action(ract_mstar, rat.subspace, d.atil.dim, "dual_module_r")
    out = EntwinedModulePresentation(d.dual, rat.dim, ract, rat.coaction)
    report.require(verify_entwined_module(d.dual, out))
    return DualModule(rat.subspace.basis, out)


def dual_module_upper_r(d: DualDatum, k: EntwinedModulePresentation) -> DualModule:
    """The mirror functor, from modules over the dual data back to (A, C, psi)."""
    e = d.source
    if k.entwining != d.dual:
        raise PresentationError("module does not live over the dual entwining")
    pairing = d.pairing_atil_c()
    require_alpha(pairing, "(A~, C) pairing")
    na = e.algebra.dim
    katil = d.atil.dim
    lact = dual_action_on_dual(k.action, k.dim, katil, "right")
    # left A-action on K through the dual-coalgebra coaction
    a_on_k = module_from_coaction(d.pairing_a_ctil(), k.coaction, k.dim)
    ract_kstar = dual_action_on_dual(a_on_k, k.dim, na, "left")
    rat = rational_submodule(pairing, ModulePresentation(k.dim, d.atil, lact, "left"))
    ract = _restrict_right_action(ract_kstar, rat.subspace, na, "dual_module_upper_r")
    out = EntwinedModulePresentation(e, rat.dim, ract, rat.coaction)
    report.require(verify_entwined_module(e, out))
    return DualModule(rat.subspace.basis, out)


# ---------------------------------------------------------------------------
# the adjunction


def adjunction_check(d: DualDatum, m: EntwinedModulePresentation,
                     k: EntwinedModulePresentation | None = None) -> Report:
    """Verify the two Hom-space bijections are mutually inverse, exactly.

    M is verified over d.source and K over d.dual first, and a failure is
    reported as module[...] or dual-module[...]; K defaults to M_r, built
    from M.  Hom(M, K^r) and Hom(K, M_r) are computed as joint kernels; the
    maps f -> f* . lambda_K and g -> g* . lambda_M are applied to every
    basis element, checked to land in the opposite Hom space, and composed
    both ways back to the identity.
    """
    parts = report.first_failure("adjunction_check", (
        (part, verify_entwined_module(e, module))
        for part, e, module in (("module", d.source, m), ("dual-module", d.dual, k)) if module is not None))
    if not parts.passed:
        return parts
    mr = dual_module_r(d, m)
    k = mr.module if k is None else k   # dual_module_r verifies the module it builds
    kr = dual_module_upper_r(d, k)
    hom_mkr = hom_entwined_basis(d.source, m, kr.module)
    hom_kmr = hom_entwined_basis(d.dual, k, mr.module)
    if len(hom_mkr) != len(hom_kmr):
        return report.fail("adjunction_check", "hom-dimension-mismatch",
                           dim_hom_m_kr=len(hom_mkr), dim_hom_k_mr=len(hom_kmr))
    lam_m = mr.basis   # lambda_M : M -> (M_r)*, evaluation
    lam_k = kr.basis
    # evaluation lands in the double duals
    mrr = dual_module_upper_r(d, mr.module)
    krr = dual_module_r(d, kr.module)
    for name, rr, lam in (("lambda_M", mrr, lam_m), ("lambda_K", krr, lam_k)):
        _, bad = express(rr.basis, lam)
        if bad is not None:
            return report.fail("adjunction_check", f"{name}-outside-double-dual", witness=(bad,))

    def fwd(fmat: Matrix) -> Matrix:
        g, _ = express(mr.basis, fmat.transpose() @ lam_k)
        if g is None:
            raise report.CheckError(report.fail("adjunction_check", "Lambda-image-outside-subspace"))
        return g

    def bwd(gmat: Matrix) -> Matrix:
        f, _ = express(kr.basis, gmat.transpose() @ lam_m)
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


def dual_morphism_r(d: DualDatum, f: Matrix, source: DualModule, target: DualModule) -> Matrix:
    """The dual of a morphism f : M -> N, as a map N_r -> M_r in basis coordinates."""
    raw = target.basis @ f  # rows: the functionals h . f on M
    f_r, _ = express(source.basis, raw.transpose())
    if f_r is None:
        raise report.CheckError(report.fail("dual_morphism_r", "image-outside-subspace"))
    return f_r


def dual_entwining_morphism(d_e: DualDatum, d_f: DualDatum,
                            gamma: Matrix, delta: Matrix) -> Report:
    """Transpose a morphism of entwinings to a morphism of the dual entwinings.

    (gamma, delta) : source(d_e) -> source(d_f) must be a verified
    morphism whose transposes respect the chosen subobjects; the induced
    pair is then checked as a morphism dual(d_f) -> dual(d_e).
    """
    rep = verify_entwining_morphism(d_e.source, d_f.source, gamma, delta)
    if not rep.passed:
        return rep
    # delta* : B~ -> A~ and gamma* : D~ -> C~ on the chosen bases
    delta_star, bad = express(d_e.atil_basis, (d_f.atil_basis @ delta).transpose())
    if delta_star is None:
        return report.fail("dual_entwining_morphism", "delta-transpose-inclusion", witness=(bad,))
    gamma_star, bad = express(d_e.ctil_basis, (d_f.ctil_basis @ gamma).transpose())
    if gamma_star is None:
        return report.fail("dual_entwining_morphism", "gamma-transpose-inclusion", witness=(bad,))
    return verify_entwining_morphism(d_f.dual, d_e.dual, delta_star, gamma_star)
