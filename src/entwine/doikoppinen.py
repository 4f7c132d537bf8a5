"""Doi-Koppinen structures and their dualization.

A right-right Doi-Koppinen structure is a bialgebra H, a right H-comodule
algebra A and a right H-module coalgebra C; it induces the entwining
psi(c (x) a) = sum a_0 (x) c.a_1 and Koppinen's twisted ring on Hom(C, A).
Dualizing every ingredient against the dual bialgebra yields a dual
structure whose entwining agrees with the dual of the original entwining;
module coalgebras also quotient to coextensions, whose duals are cleft
extensions when a convolution-invertible cointegral exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import (
    Matrix,
    PresentationError,
    Subspace,
    express,
    image,
    invert,
    kernel,
    kron,
    perm_tensor,
    permute,
    swap_matrix,
    swap_middle,
)
from . import report
from .report import Report
from .structures import (
    ModulePresentation,
    PairingPresentation,
    StructurePresentation,
    algebra_morphism_report,
    bialgebra_morphism_report,
    coalgebra_morphism_report,
    coaction_to_dual_action,
    convolution_inverse,
    convolution_unit,
    dual_action_on_dual,
    dualize_structure,
    make_structure,
    rational_submodule,
    verify_structure,
)
from .entwining import (
    EntwinedModulePresentation,
    EntwiningPresentation,
    SmashRing,
    build_smash,
    verify_entwined_module,
    verify_entwining,
)
from .duality import DualDatum, DualModule, dual_entwining, dual_module_r, dual_module_upper_r


class UnsupportedDualization(PresentationError):
    """Requested a dualization the theory does not provide."""


COMPAT_KINDS = ("module-algebra", "module-coalgebra", "comodule-algebra", "comodule-coalgebra")


def _as_module(h: StructurePresentation, x: StructurePresentation, m: Matrix,
               kind: str, side: str) -> ModulePresentation:
    if kind.startswith("module"):
        return ModulePresentation(x.dim, h, m, side)
    return ModulePresentation(x.dim, None, None, "right", h, m, side)


def verify_dk_compat(kind: str, h: StructurePresentation, x: StructurePresentation,
                     m: Matrix, side: str = "right") -> Report:
    """Compatibility of an action or coaction with an algebra or coalgebra.

    kind picks the pair of structures, side the handedness; the plain
    module/comodule laws are checked first, then the interaction laws on
    all basis pairs.
    """
    if kind not in COMPAT_KINDS:
        raise PresentationError(f"unknown compatibility kind {kind!r}")
    if side not in ("left", "right"):
        raise PresentationError(f"unknown side {side!r}")
    return report.first_failure(f"verify_dk_compat[{kind}]", _compat_laws(kind, side, h, x, m))


def _compat_laws(kind: str, side: str, h: StructurePresentation, x: StructurePresentation, m: Matrix):
    """The (co)module laws as the structure component, then the interaction laws for (kind, side)."""
    yield "structure", verify_structure("module" if kind.startswith("module") else "comodule",
                                        _as_module(h, x, m, kind, side))
    nh, nx = h.dim, x.dim
    idh, idx = Matrix.identity(h.field, nh), Matrix.identity(h.field, nx)
    laws = {
        ("module-algebra", "right"): lambda: [
            ("action-multiplicative", m @ kron(x.mul, idh),
             x.mul @ kron(m, m) @ swap_middle(kron(kron(idx, idx), h.comul), (nx, nx, nh, nh)), (nx, nx, nh)),
            ("action-on-unit", m @ kron(x.unit, idh), x.unit @ h.counit, (nh,))],
        ("module-algebra", "left"): lambda: [
            ("action-multiplicative", m @ kron(idh, x.mul),
             x.mul @ kron(m, m) @ swap_middle(kron(h.comul, kron(idx, idx)), (nh, nh, nx, nx)), (nh, nx, nx)),
            ("action-on-unit", m @ kron(idh, x.unit), x.unit @ h.counit, (nh,))],
        ("module-coalgebra", "right"): lambda: [
            ("action-comultiplicative", x.comul @ m,
             kron(m, m) @ swap_middle(kron(x.comul, h.comul), (nx, nx, nh, nh)), (nx, nh)),
            ("action-counital", x.counit @ m, kron(x.counit, h.counit), (nx, nh))],
        ("module-coalgebra", "left"): lambda: [
            ("action-comultiplicative", x.comul @ m,
             kron(m, m) @ swap_middle(kron(h.comul, x.comul), (nh, nh, nx, nx)), (nh, nx)),
            ("action-counital", x.counit @ m, kron(h.counit, x.counit), (nh, nx))],
        ("comodule-algebra", "right"): lambda: [
            ("coaction-multiplicative", m @ x.mul,
             kron(x.mul, h.mul) @ swap_middle(kron(m, m), (nx, nh, nx, nh)), (nx, nx)),
            ("coaction-on-unit", m @ x.unit, kron(x.unit, h.unit), (1,))],
        ("comodule-algebra", "left"): lambda: [
            ("coaction-multiplicative", m @ x.mul,
             kron(h.mul, x.mul) @ swap_middle(kron(m, m), (nh, nx, nh, nx)), (nx, nx)),
            ("coaction-on-unit", m @ x.unit, kron(h.unit, x.unit), (1,))],
        ("comodule-coalgebra", "right"): lambda: [
            ("coaction-comultiplicative", kron(x.comul, idh) @ m,
             kron(kron(idx, idx), h.mul) @ swap_middle(kron(m, m), (nx, nh, nx, nh)) @ x.comul, (nx,)),
            ("coaction-counital", kron(x.counit, idh) @ m, h.unit @ x.counit, (nx,))],
        ("comodule-coalgebra", "left"): lambda: [
            ("coaction-comultiplicative", kron(idh, x.comul) @ m,
             kron(h.mul, kron(idx, idx)) @ swap_middle(kron(m, m), (nh, nx, nh, nx)) @ x.comul, (nx,)),
            ("coaction-counital", kron(idh, x.counit) @ m, h.unit @ x.counit, (nx,))],
    }
    yield from laws[(kind, side)]()


@dataclass(frozen=True)
class DKStructure:
    """(H, A, C): a bialgebra, a right H-comodule algebra, a right H-module coalgebra."""

    h: StructurePresentation
    alg: StructurePresentation
    alg_coaction: Matrix    # A -> A (x) H
    coalg: StructurePresentation
    coalg_action: Matrix    # C (x) H -> C

    @property
    def field(self):
        return self.h.field


def verify_dk(s: DKStructure) -> Report:
    """H, A and C, then both compatibilities; a failure names its part, as in bialgebra[associativity]."""
    return report.first_failure("verify_dk", _dk_rows(s.h, (s.alg, "comodule-algebra", s.alg_coaction),
                                                      (s.coalg, "module-coalgebra", s.coalg_action)))


def _dk_rows(h: StructurePresentation, alg: tuple, coalg: tuple):
    """H, A and C, then the compatibility with H of each of A and C, given as (structure, kind, map)."""
    yield "bialgebra", verify_structure("bialgebra", h)
    yield "algebra", verify_structure("algebra", alg[0])
    yield "coalgebra", verify_structure("coalgebra", coalg[0])
    for x, kind, m in (alg, coalg):
        yield kind, verify_dk_compat(kind, h, x, m, "right")


@dataclass(frozen=True)
class AltDKStructure:
    """(H, A, C) with A a right H-module algebra and C a right H-comodule coalgebra."""

    h: StructurePresentation
    alg: StructurePresentation
    alg_action: Matrix      # A (x) H -> A
    coalg: StructurePresentation
    coalg_coaction: Matrix  # C -> C (x) H

    def verify(self) -> Report:
        """H, A and C, then both compatibilities; a failure names its part, as in module-algebra[...]."""
        return report.first_failure("verify_alt_dk", _dk_rows(
            self.h, (self.alg, "module-algebra", self.alg_action),
            (self.coalg, "comodule-coalgebra", self.coalg_coaction)))


def dk_entwining(s: DKStructure) -> EntwiningPresentation:
    """psi(c (x) a) = sum a_0 (x) c.a_1; the result must pass all four laws."""
    f = s.field
    na, nc, nh = s.alg.dim, s.coalg.dim, s.h.dim
    psi = kron(Matrix.identity(f, na), s.coalg_action) \
        @ kron(swap_matrix(f, nc, na), Matrix.identity(f, nh)) \
        @ kron(Matrix.identity(f, nc), s.alg_coaction)
    e = EntwiningPresentation(s.alg, s.coalg, psi)
    report.require(verify_entwining(e))
    return e


def alt_dk_entwining(s: AltDKStructure) -> EntwiningPresentation:
    """psi(c (x) a) = sum a.c_1 (x) c_0 for the alternative structures."""
    report.require(s.verify())
    f = s.h.field
    na, nc, nh = s.alg.dim, s.coalg.dim, s.h.dim
    psi = kron(s.alg_action, Matrix.identity(f, nc)) \
        @ perm_tensor(f, (nc, nh, na), (2, 1, 0)) \
        @ kron(s.coalg_coaction, Matrix.identity(f, na))
    e = EntwiningPresentation(s.alg, s.coalg, psi)
    report.require(verify_entwining(e))
    return e


def koppinen_table(s: DKStructure) -> Matrix:
    """Koppinen's (f . g)(c) = sum f(c_2)_0 g(c_1 . f(c_2)_1) on Hom(C, A), from the DK data, never psi.

    E_{x1,u1} . E_{x2,u2} at (z, w) is, contracted over p, then h, then y,
    sum_{p, y, h} comul[(p, u1), w] coact_A[(y, h), x1] act_C[u2, (p, h)] mul_A[z, (y, x2)].
    """
    na, nc, nh = s.alg.dim, s.coalg.dim, s.h.dim
    # rows (u2, h), columns (u1, w)
    acted = permute(s.coalg_action, (nc, nc, nh), (0, 2, 1), 2) @ permute(s.coalg.comul, (nc, nc, nc), (0, 1, 2), 1)
    # rows (y, x1), columns (u2, u1, w)
    coacted = permute(s.alg_coaction, (na, nh, na), (0, 2, 1), 2) @ permute(acted, (nc, nh, nc, nc), (1, 0, 2, 3), 1)
    # rows (z, x2), columns (x1, u2, u1, w)
    out = permute(s.alg.mul, (na, na, na), (0, 2, 1), 2) @ permute(coacted, (na, na, nc, nc, nc), (0, 1, 2, 3, 4), 1)
    return permute(out, (na, na, na, nc, nc, nc), (0, 5, 2, 4, 1, 3), 2)


def koppinen_smash(s: DKStructure, e: EntwiningPresentation | None = None) -> SmashRing:
    """Koppinen's ring built directly, checked against the entwining smash.

    The full multiplication table (koppinen_table) and the unit must agree
    entry by entry with the smash ring of the induced entwining,
    e = dk_entwining(s) unless the caller has built it.
    """
    n = s.alg.dim * s.coalg.dim
    via_entwining = build_smash(dk_entwining(s) if e is None else e)
    bad = report.compare("koppinen_smash", "table-equality", koppinen_table(s), via_entwining.mul, (n, n))
    if bad is not None:
        raise report.CheckError(bad)
    if Matrix.from_columns(s.field, n, [convolution_unit(s.coalg, s.alg)]) != via_entwining.unit:
        raise report.CheckError(report.fail("koppinen_smash", "unit-equality"))
    return via_entwining


# ---------------------------------------------------------------------------
# ingredient dualization


@dataclass(frozen=True)
class DKIngredient:
    """An algebra or coalgebra equipped with an action or coaction of a bialgebra."""

    kind: str
    side: str
    h: StructurePresentation
    structure: StructurePresentation
    matrix: Matrix
    subspace: Subspace | None = None

    def verify(self) -> Report:
        return verify_dk_compat(self.kind, self.h, self.structure, self.matrix, self.side)


def _verified(kind: str, side: str, h: StructurePresentation, structure: StructurePresentation,
              matrix: Matrix, subspace: Subspace | None = None) -> DKIngredient:
    out = DKIngredient(kind, side, h, structure, matrix, subspace)
    report.require(out.verify())
    return out


def _pairing_h_u(h: StructurePresentation, u: StructurePresentation) -> PairingPresentation:
    """<h, u> = u(h) for U the full dual of H."""
    return PairingPresentation(h, u, Matrix.identity(h.field, h.dim))


def comodule_algebra_to_module_algebra(h: StructurePresentation, a: StructurePresentation,
                                       coaction: Matrix) -> DKIngredient:
    """f -> a = sum a_0 f(a_1): a right H-comodule algebra is a left U-module algebra."""
    return _verified("module-algebra", "left", dualize_structure(None, h), a,
                     coaction_to_dual_action(coaction, a.dim, h.dim, "right"))


def comodule_algebra_to_dual_module_coalgebra(h: StructurePresentation, a: StructurePresentation,
                                              coaction: Matrix) -> DKIngredient:
    """A* is a right U-module coalgebra via (f . u)(a) = sum f(a_0) u(a_1)."""
    return _verified("module-coalgebra", "right", dualize_structure(None, h), dualize_structure("algebra", a),
                     coaction.transpose())


def module_algebra_to_comodule_algebra(h: StructurePresentation, a: StructurePresentation,
                                       action: Matrix, side: str = "left") -> DKIngredient:
    """The rational part of a module algebra is a comodule algebra over the dual.

    With the full dual the rational part is everything in finite
    dimension; the result carries the transported multiplication on the
    rational subspace, which is checked to be a unital subalgebra.
    """
    u = dualize_structure(None, h)
    pairing = _pairing_h_u(h, u)
    rat = rational_submodule(pairing, ModulePresentation(a.dim, h, action, side))
    w = rat.subspace
    # the rational part must be a unital subalgebra of A
    unit_coords = w.coordinates(a.unit)
    if unit_coords is None:
        raise report.CheckError(report.fail("dualize_dk_ingredient", "rational-part-missing-unit"))
    k = w.dim
    wt = w.basis.transpose()
    mul, bad = express(w.basis, a.mul @ kron(wt, wt))
    if mul is None:
        raise report.CheckError(report.fail("dualize_dk_ingredient", "rational-part-not-subalgebra",
                                            witness=divmod(bad, k)))
    sub = make_structure("algebra", h.field, k, tuple(f"r{i}" for i in range(k)), mul=mul, unit=unit_coords)
    coact_side = "right" if side == "left" else "left"
    return _verified("comodule-algebra", coact_side, u, sub, rat.coaction, subspace=w)


def module_coalgebra_to_dual_module_algebra(h: StructurePresentation, c: StructurePresentation,
                                            action: Matrix, side: str = "right") -> DKIngredient:
    """C* is a module algebra on the other side via (h . f)(c) = f(c . h)."""
    cstar = dualize_structure("coalgebra", c)
    dual_side = "left" if side == "right" else "right"
    return _verified("module-algebra", dual_side, h, cstar, dual_action_on_dual(action, c.dim, h.dim, side))


def module_coalgebra_to_comodule_algebra(h: StructurePresentation, c: StructurePresentation,
                                         action: Matrix) -> DKIngredient:
    """The rational dual of a right H-module coalgebra: a right U-comodule algebra."""
    inner = module_coalgebra_to_dual_module_algebra(h, c, action, "right")
    return module_algebra_to_comodule_algebra(h, inner.structure, inner.matrix, "left")


def comodule_coalgebra_to_module_coalgebra(h: StructurePresentation, c: StructurePresentation,
                                           coaction: Matrix) -> DKIngredient:
    """f -> c = sum c_0 f(c_1): a right H-comodule coalgebra is a left U-module coalgebra."""
    return _verified("module-coalgebra", "left", dualize_structure(None, h), c,
                     coaction_to_dual_action(coaction, c.dim, h.dim, "right"))


def comodule_coalgebra_to_dual_module_algebra(h: StructurePresentation, c: StructurePresentation,
                                              coaction: Matrix) -> DKIngredient:
    """C* is a right U-module algebra via (f . u)(c) = f(u -> c)."""
    u = dualize_structure(None, h)
    inner = comodule_coalgebra_to_module_coalgebra(h, c, coaction)
    cstar = dualize_structure("coalgebra", c)
    return _verified("module-algebra", "right", u, cstar, dual_action_on_dual(inner.matrix, c.dim, u.dim, "left"))


def module_algebra_to_dual_module(h: StructurePresentation, a: StructurePresentation,
                                  action: Matrix, side: str = "right") -> DKIngredient:
    """A* as an H-module coalgebra on the other side; the dual of a module algebra."""
    dual_side = "left" if side == "right" else "right"
    astar = dualize_structure("algebra", a)
    return _verified("module-coalgebra", dual_side, h, astar, dual_action_on_dual(action, a.dim, h.dim, side))


# (input kind, target) -> (constructor, input side it consumes, whether it takes that side)
_DUAL_ARROWS = {
    ("comodule-algebra", "module-algebra"): (comodule_algebra_to_module_algebra, "right", False),
    ("comodule-algebra", "dual-module-coalgebra"): (comodule_algebra_to_dual_module_coalgebra, "right", False),
    ("module-algebra", "comodule-algebra"): (module_algebra_to_comodule_algebra, "left", True),
    ("module-coalgebra", "dual-module-algebra"): (module_coalgebra_to_dual_module_algebra, "right", True),
    ("module-coalgebra", "comodule-algebra"): (module_coalgebra_to_comodule_algebra, "right", False),
    ("comodule-coalgebra", "module-coalgebra"): (comodule_coalgebra_to_module_coalgebra, "right", False),
    ("comodule-coalgebra", "dual-module-algebra"): (comodule_coalgebra_to_dual_module_algebra, "right", False),
    ("module-algebra", "dual-module"): (module_algebra_to_dual_module, "right", True),
}


def dualize_dk_ingredient(kind: str, h: StructurePresentation, x: StructurePresentation,
                          m: Matrix, direction: str) -> tuple[DKIngredient, Report]:
    """Dualize one (co)module (co)algebra, with the passing report of its output.

    direction names the target structure; the supported arrows are the
    keys of the dualization table, each consuming its canonical side.
    Every constructor runs verify_dk_compat on its output and raises
    CheckError on failure, so a returned ingredient is always verified.
    """
    entry = _DUAL_ARROWS.get((kind, direction))
    if entry is None:
        raise UnsupportedDualization(f"no dualization {kind!r} -> {direction!r}")
    arrow, side, takes_side = entry
    report.require(verify_dk_compat(kind, h, x, m, side))
    out = arrow(h, x, m, side) if takes_side else arrow(h, x, m)
    return out, report.ok(f"verify_dk_compat[{out.kind}]")


# ---------------------------------------------------------------------------
# the dual Doi-Koppinen structure


def dual_dk(s: DKStructure, e: EntwiningPresentation | None = None) -> tuple[DKStructure, Report]:
    """(H*, C0, A*) with full duals, verified, plus the entwining coherence.

    C0 (here all of C*) becomes the comodule algebra and A* the module
    coalgebra of the dual structure; the induced entwining must equal the
    dual of the original entwining under the evaluation bases, and that
    equality is part of the returned report.  A caller that has verified s
    and built e = dk_entwining(s) passes e, and neither is done again.
    """
    if e is None:
        report.require(verify_dk(s))
        e = dk_entwining(s)
    hdual = dualize_structure(None, s.h)
    c0 = module_coalgebra_to_comodule_algebra(s.h, s.coalg, s.coalg_action)
    astar = comodule_algebra_to_dual_module_coalgebra(s.h, s.alg, s.alg_coaction)
    # rewrite the C0 coaction on the nose when the rational part is everything
    if c0.subspace is not None and c0.subspace.dim != s.coalg.dim:
        raise report.CheckError(report.fail("dual_dk", "rational-part-proper",
                                            dim=c0.subspace.dim))
    dual = DKStructure(hdual, c0.structure, c0.matrix, astar.structure, astar.matrix)
    report.require(verify_dk(dual))
    coherence = report.compare(
        "dual_dk", "entwining-coherence",
        dk_entwining(dual).psi, dual_entwining(e).dual.psi,
        (astar.structure.dim, c0.structure.dim))
    if coherence is not None:
        return dual, coherence
    return dual, report.ok("dual_dk", entwining_coherence=True)


def dual_alt_dk(s: AltDKStructure):
    """Alternative structures do not dualize componentwise in general."""
    raise UnsupportedDualization(
        "not supported: the dual of an alternative structure need not be an "
        "alternative structure, so no dualization is attempted")


def dk_dual_module(s: DKStructure, m: EntwinedModulePresentation,
                   direction: str = "to_dual") -> tuple[DualModule, Report]:
    """M -> Rat(M*) over the dual structure, or back; delegates to the dual layer."""
    datum = dual_entwining(dk_entwining(s))
    if direction == "to_dual":
        out = dual_module_r(datum, m)
    elif direction == "from_dual":
        out = dual_module_upper_r(datum, m)
    else:
        raise PresentationError(f"unknown direction {direction!r}")
    rep = verify_entwined_module(out.module.entwining, out.module)
    return out, rep


def dk_adjunction_datum(s: DKStructure) -> DualDatum:
    return dual_entwining(dk_entwining(s))


# ---------------------------------------------------------------------------
# coinvariants, integrals, extensions


def coinvariants(h: StructurePresentation, b: StructurePresentation, coaction: Matrix) -> Subspace:
    """{x : coaction(x) = x (x) 1_H}, verified to be a unital subalgebra."""
    f = h.field
    diff = coaction - kron(Matrix.identity(f, b.dim), h.unit)
    w = kernel(diff)
    if not w.contains(b.unit):
        raise report.CheckError(report.fail("coinvariants", "missing-unit"))
    wt = w.basis.transpose()
    _, bad = express(w.basis, b.mul @ kron(wt, wt))
    if bad is not None:
        raise report.CheckError(report.fail("coinvariants", "not-a-subalgebra", witness=divmod(bad, w.dim)))
    return w


@dataclass(frozen=True)
class HExtension:
    """A comodule algebra over its coinvariants, with an optional integral."""

    h: StructurePresentation
    b: StructurePresentation
    coaction: Matrix
    coinv: Subspace
    integral: Matrix | None = None


def h_extension(h: StructurePresentation, b: StructurePresentation, coaction: Matrix,
                integral: Matrix | None = None) -> HExtension:
    """Verify the comodule algebra and compute its coinvariant subalgebra."""
    report.require(verify_dk_compat("comodule-algebra", h, b, coaction, "right"))
    return HExtension(h, b, coaction, coinvariants(h, b, coaction), integral)


@dataclass(frozen=True)
class IntegralReport:
    colinear: Report
    total: bool
    cleft: bool
    inverse: Matrix | None

    @property
    def passed(self) -> bool:
        return self.colinear.passed and self.total and self.cleft


def check_integral(ext: HExtension, gamma: Matrix) -> IntegralReport:
    """Colinearity, totality and convolution invertibility of gamma : H -> B."""
    h, b = ext.h, ext.b
    f = h.field
    idh = Matrix.identity(f, h.dim)
    colinear = report.first_failure("check_integral", [
        ("h-colinearity", ext.coaction @ gamma, kron(gamma, idh) @ h.comul, (h.dim,)),
    ])
    total = (gamma @ h.unit) == b.unit
    inv = convolution_inverse(h, b, gamma)
    cleft = inv is not None and not isinstance(inv, tuple)
    return IntegralReport(colinear, total, cleft, inv if cleft else None)


# ---------------------------------------------------------------------------
# coextensions


@dataclass(frozen=True)
class HCoextension:
    """A module coalgebra D with its quotient C = D / D.ker(counit_H)."""

    h: StructurePresentation
    d: StructurePresentation
    action: Matrix
    dplus: Subspace            # the coideal D . H+
    quotient: StructurePresentation
    quotient_action: Matrix
    projection: Matrix         # D -> C
    section: Matrix            # C -> D, the complement-basis section
    cointegral: Matrix | None = None


def coextension_quotient(h: StructurePresentation, d: StructurePresentation, action: Matrix,
                         cointegral: Matrix | None = None) -> HCoextension:
    """Build D / D.H+ with its induced module-coalgebra structure.

    H+ is the kernel of the counit; the quotient basis is the set of
    non-pivot coordinates of the RREF of D.H+, so the presentation is
    deterministic.  The coideal and stability properties, the quotient
    laws, and the projection's equivariance are all verified.
    """
    report.require(verify_dk_compat("module-coalgebra", h, d, action, "right"))
    f = h.field
    nd, nh = d.dim, h.dim
    idd, idh = Matrix.identity(f, nd), Matrix.identity(f, nh)
    # D.H+ is spanned by the columns (i, t): d_i acted on by the t-th basis vector of H+
    w = image(action @ kron(idd, kernel(h.counit).basis.transpose()))
    wt = w.basis.transpose()
    # coideal: counit vanishes, comul lands in W (x) D + D (x) W
    _, bad = express(kernel(d.counit).basis, wt)
    if bad is not None:
        raise report.CheckError(report.fail("coextension_quotient", "counit-not-vanishing", (bad,)))
    mixed = Subspace.from_matrix_rows(kron(w.basis, idd)).add(Subspace.from_matrix_rows(kron(idd, w.basis)))
    _, bad = express(mixed.basis, d.comul @ wt)
    if bad is not None:
        raise report.CheckError(report.fail("coextension_quotient", "not-a-coideal", (bad,)))
    _, bad = express(w.basis, action @ kron(wt, idh))
    if bad is not None:
        raise report.CheckError(report.fail("coextension_quotient", "not-h-stable", divmod(bad, nh)))
    # deterministic complement: standard vectors at the non-pivot columns;
    # 1 - W^T pick^T kills W and fixes those vectors, since W is in RREF
    free = [c for c in range(nd) if c not in w.pivots]
    nq = len(free)
    sect = Matrix.from_columns(f, nd, [Matrix.basis_column(f, nd, c) for c in free])
    pick = Matrix.from_columns(f, nd, [Matrix.basis_column(f, nd, c) for c in w.pivots])
    proj = sect.transpose() @ (idd - wt @ pick.transpose())
    comul_q = kron(proj, proj) @ d.comul @ sect
    counit_q = d.counit @ sect
    quotient = make_structure("coalgebra", f, nq, tuple(d.labels[fc] + "~" for fc in free),
                              comul=comul_q, counit=counit_q)
    action_q = proj @ action @ kron(sect, idh)
    for rep in (verify_structure("coalgebra", quotient),
                verify_dk_compat("module-coalgebra", h, quotient, action_q, "right"),
                report.first_failure("coextension_quotient", [
                    ("projection-comultiplicative", quotient.comul @ proj, kron(proj, proj) @ d.comul, (nd,)),
                    ("projection-counital", quotient.counit @ proj, d.counit, (nd,)),
                    ("projection-equivariant", proj @ action,
                     action_q @ kron(proj, idh), (nd, nh)),
                ])):
        report.require(rep)
    return HCoextension(h, d, action, w, quotient, action_q, proj, sect, cointegral)


@dataclass(frozen=True)
class CointegralReport:
    linear: Report
    total: bool
    cocleft: bool
    inverse: Matrix | None
    twist: Report | None

    @property
    def passed(self) -> bool:
        return self.linear.passed and self.total and self.cocleft \
            and (self.twist is None or self.twist.passed)


def check_cointegral(coext: HCoextension, omega: Matrix) -> CointegralReport:
    """H-linearity, totality and convolution invertibility of omega : D -> H.

    When omega is invertible the twisted-linearity law
    omega^{-1}(d h) = S(h) omega^{-1}(d) is also checked on basis pairs
    (the antipode must exist for that law to make sense).
    """
    h, d = coext.h, coext.d
    f = h.field
    idh = Matrix.identity(f, h.dim)
    linear = report.first_failure("check_cointegral", [
        ("h-linearity", omega @ coext.action, h.mul @ kron(omega, idh), (d.dim, h.dim)),
    ])
    total = (h.counit @ omega) == d.counit
    inv = convolution_inverse(d, h, omega)
    cocleft = inv is not None and not isinstance(inv, tuple)
    twist = None
    if cocleft and h.antipode is not None:
        lhs = inv @ coext.action
        rhs = h.mul @ kron(h.antipode, inv) @ swap_matrix(f, d.dim, h.dim)
        bad = report.compare("check_cointegral", "inverse-twisted-linearity", lhs, rhs, (d.dim, h.dim))
        twist = bad if bad is not None else report.ok("check_cointegral")
    return CointegralReport(linear, total, cocleft, inv if cocleft else None, twist)


def dualize_coextension(coext: HCoextension) -> tuple[HExtension, Report]:
    """The dual of a coextension: D* over H* with coinvariants the quotient dual.

    Needs a Hopf algebra with bijective antipode.  The coinvariants of
    the dual comodule algebra must equal the image of the projection's
    transpose; when a cocleft cointegral is present its transpose is
    checked to be a total integral whose convolution inverse transposes
    the inverse cointegral.
    """
    h = coext.h
    if h.kind != "hopf" or h.antipode is None:
        raise PresentationError("dualize_coextension needs a Hopf algebra")
    if invert(h.antipode) is None:
        raise PresentationError("antipode is not bijective")
    hdual = dualize_structure(None, h)
    ddual = dualize_structure("coalgebra", coext.d)
    # coaction on D*: coefficient of g_s (x) delta_u in rho(g_r) is action[r, s*nh + u]
    ext = h_extension(hdual, ddual, coext.action.transpose())
    expected = Subspace.from_matrix_rows(coext.projection)
    if ext.coinv != expected:
        return ext, report.fail("dualize_coextension", "coinvariants-mismatch",
                                lhs=ext.coinv.basis.render(), rhs=expected.basis.render())
    details: dict = {"coinvariants_equal_quotient_dual": True}
    integral = None
    if coext.cointegral is not None:
        integral = coext.cointegral.transpose()
        rep = check_integral(ext, integral)
        if not rep.colinear.passed:
            return ext, rep.colinear
        if not rep.total:
            return ext, report.fail("dualize_coextension", "dual-integral-not-total")
        inner = check_cointegral(coext, coext.cointegral)
        if inner.cocleft:
            if not rep.cleft:
                return ext, report.fail("dualize_coextension", "dual-integral-not-cleft")
            if rep.inverse != inner.inverse.transpose():
                return ext, report.fail("dualize_coextension", "inverse-transpose-mismatch",
                                        lhs=rep.inverse.render(),
                                        rhs=inner.inverse.transpose().render())
            details["cleft"] = True
        ext = HExtension(ext.h, ext.b, ext.coaction, ext.coinv, integral)
    return ext, report.ok("dualize_coextension", **details)


# ---------------------------------------------------------------------------
# Long dimodules


def long_dimodule_check(a: StructurePresentation, c: StructurePresentation,
                        m: ModulePresentation) -> Report:
    """No-interaction compatibility rho(m a) = sum m_0 a (x) m_1.

    Rows: the module, the comodule, then the long-compatibility law, which
    is psi-compatibility over the flip entwining: a passing Long dimodule
    is an entwined module over flip_entwining(a, c) by definition.
    """
    if m.action is None or m.coaction is None or m.action_side != "right" or m.coaction_side != "right":
        raise PresentationError("need a right action and a right coaction")
    from .entwining import flip_entwining

    def rows():
        yield "module", verify_structure("module", m)
        yield "comodule", verify_structure("comodule", m)
        f = a.field
        na, nc, n = a.dim, c.dim, m.dim
        yield ("long-compatibility", m.coaction @ m.action,
               kron(m.action, Matrix.identity(f, nc)) @ kron(Matrix.identity(f, n), flip_entwining(a, c).psi)
               @ kron(m.coaction, Matrix.identity(f, na)), (n, na))
    rep = report.first_failure("long_dimodule_check", rows())
    return report.ok("long_dimodule_check", flip_equivalent=True) if rep.passed else rep


# ---------------------------------------------------------------------------
# morphisms


def verify_dk_morphism(s: DKStructure, t: DKStructure, beta: Matrix,
                       gamma: Matrix, delta: Matrix) -> Report:
    """Component morphisms plus the mixed compatibility on basis pairs."""
    def rows():
        yield "beta", bialgebra_morphism_report(s.h, t.h, beta)
        yield "gamma", algebra_morphism_report(s.alg, t.alg, gamma)
        yield "delta", coalgebra_morphism_report(s.coalg, t.coalg, delta)
        yield ("mixed-compatibility", kron(gamma, delta) @ dk_entwining(s).psi,
               dk_entwining(t).psi @ kron(delta, gamma), (s.coalg.dim, s.alg.dim))
    return report.first_failure("verify_dk_morphism", rows())


def dual_dk_morphism(s: DKStructure, t: DKStructure, beta: Matrix,
                     gamma: Matrix, delta: Matrix) -> Report:
    """The transposed triple as a morphism between the dual structures."""
    rep = verify_dk_morphism(s, t, beta, gamma, delta)
    if not rep.passed:
        return rep
    dual_s, rep_s = dual_dk(s)
    dual_t, rep_t = dual_dk(t)
    for r in (rep_s, rep_t):
        if not r.passed:
            return r
    # full duals: delta* automatically lands in C0 = C*
    return verify_dk_morphism(dual_t, dual_s, beta.transpose(), delta.transpose(),
                              gamma.transpose())
