"""Doi-Koppinen structures and their dualization.

A right-right Doi-Koppinen structure is a bialgebra H, a right H-comodule
algebra A and a right H-module coalgebra C; it induces the entwining
psi(c (x) a) = sum a_0 (x) c.a_1 and Koppinen's twisted ring on Hom(C, A).
Dualizing every ingredient against the full dual bialgebra yields a dual
structure whose entwining agrees with the dual of the original entwining;
module coalgebras also quotient to coextensions, whose duals are cleft
extensions when a convolution-invertible cointegral exists.  verify_dk
judges a triple; a construction takes a verified one and reads no law
that the triple implies.  Its entwining is built and not read, since a
Doi-Koppinen datum always induces one (Brzezinski and Majid, CMP 191,
1998).  A full dual is a transpose: in finite dimension a rational part
against H* is the whole module (Montgomery, CBMS 82, 1.6), so each dual
ingredient re-indexes its input, whose laws imply its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .exactlin import (
    Matrix,
    Permutation,
    PresentationError,
    Subspace,
    image,
    kernel,
    kron,
    nonzeros,
    permute,
)
from . import report
from .report import Report
from .structures import (
    ModulePresentation,
    StructurePresentation,
    bialgebra_morphism_report,
    coaction_to_dual_action,
    convolution_inverse,
    convolution_unit,
    dual_action_on_dual,
    dualize_structure,
    make_structure,
    verify_structure,
)
from .entwining import EntwiningPresentation, SmashRing, build_smash, entwining_morphism_rows


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
    all basis pairs.  Each law is stated once, right-handed; a left (co)action
    reads the right rows through report.mirror, and ModulePresentation
    refuses another side.
    """
    if kind not in COMPAT_KINDS:
        raise PresentationError(f"unknown compatibility kind {kind!r}")
    return report.first_failure(f"verify_dk_compat[{kind}]", _compat_laws(kind, side, h, x, m))


def _compat_laws(kind: str, side: str, h: StructurePresentation, x: StructurePresentation, m: Matrix):
    """The (co)module laws as the structure component, then the interaction laws of kind, mirrored for side left."""
    yield "structure", verify_structure("module" if kind.startswith("module") else "comodule",
                                        _as_module(h, x, m, kind, side))
    nh, nx = h.dim, x.dim
    # kron(m, m) as two stages, and the swap of the middle two of four tensor factors, pushed as an index map
    mm = ((m.cols, m), (m, m.rows))

    def swap(*dims):
        return Permutation(h.field, dims, (0, 2, 1, 3))

    laws = {
        "module-algebra": lambda: [
            ("action-multiplicative", ((x.mul, nh), m),
             ((nx * nx, h.comul), swap(nx, nx, nh, nh), *mm, x.mul), (nx, nx, nh)),
            ("action-on-unit", ((x.unit, nh), m), (h.counit, x.unit), (nh,))],
        "module-coalgebra": lambda: [
            ("action-comultiplicative", (m, x.comul),
             ((nx, h.comul), (x.comul, nh * nh), swap(nx, nx, nh, nh), *mm), (nx, nh)),
            ("action-counital", (m, x.counit), ((nx, h.counit), x.counit), (nx, nh))],
        "comodule-algebra": lambda: [
            ("coaction-multiplicative", (x.mul, m),
             (*mm, swap(nx, nh, nx, nh), (nx * nx, h.mul), (x.mul, nh)), (nx, nx)),
            ("coaction-on-unit", (x.unit, m), (h.unit, (x.unit, nh)), (1,))],
        "comodule-coalgebra": lambda: [
            ("coaction-comultiplicative", (m, (x.comul, nh)),
             (x.comul, *mm, swap(nx, nh, nx, nh), (nx * nx, h.mul)), (nx,)),
            ("coaction-counital", (m, (x.counit, nh)), (x.counit, h.unit), (nx,))],
    }
    rows = laws[kind]()
    yield from rows if side == "right" else map(report.mirror, rows)


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
    yield from _part_rows(h, ("algebra", alg[0]), ("coalgebra", coalg[0]))
    for x, kind, m in (alg, coalg):
        yield kind, verify_dk_compat(kind, h, x, m, "right")


def _part_rows(h: StructurePresentation, *parts: tuple, hkind: str = "bialgebra"):
    """H at hkind, then each part (kind, structure) as an algebra or a coalgebra, as component rows."""
    yield "bialgebra", verify_structure(hkind, h)
    for kind, x in parts:
        yield kind, verify_structure(kind, x)


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
    """psi(c (x) a) = sum a_0 (x) c.a_1 of a triple that has passed verify_dk, built and not read.

    A Doi-Koppinen datum always induces an entwining (Brzezinski and Majid,
    CMP 191, 1998): the psi laws follow from A being a comodule algebra
    and C a module coalgebra, which verify_dk read.  psi is one contraction
    over h, as in koppinen_table, so its cost follows the nonzeros of the
    two maps: psi[(y, u), (w, x)] = sum_h coact_A[(y, h), x] act_C[u, (w, h)].
    """
    na, nc, nh = s.alg.dim, s.coalg.dim, s.h.dim
    # rows (y, x), columns h; then rows h, columns (u, w)
    out = permute(s.alg_coaction, (na, nh, na), (0, 2, 1), 2) @ permute(s.coalg_action, (nc, nc, nh), (2, 0, 1), 1)
    return EntwiningPresentation(s.alg, s.coalg, permute(out, (na, na, nc, nc), (0, 2, 3, 1), 2))


def alt_dk_entwining(s: AltDKStructure) -> EntwiningPresentation:
    """psi(c (x) a) = sum a.c_1 (x) c_0 for the alternative structures, once s.verify() has passed.

    The psi laws are not read: they follow from A being a module algebra
    and C a comodule coalgebra, as for dk_entwining (Brzezinski and Majid,
    CMP 191, 1998).  psi is one contraction over h:
    psi[(y, u), (w, x)] = sum_h act_A[y, (x, h)] coact_C[(u, h), w].
    """
    report.require(s.verify())
    na, nc, nh = s.alg.dim, s.coalg.dim, s.h.dim
    # rows (y, x), columns h; then rows h, columns (u, w)
    out = permute(s.alg_action, (na, na, nh), (0, 1, 2), 2) @ permute(s.coalg_coaction, (nc, nh, nc), (1, 0, 2), 1)
    return EntwiningPresentation(s.alg, s.coalg, permute(out, (na, na, nc, nc), (0, 2, 3, 1), 2))


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


# Two identities of the index code, true for any maps of the right shapes: dk prints both once verify_dk has
# passed, and no command compares them.  Koppinen's table is the smash table of dk_entwining(s), the same sum with
# the sum over h taken inside psi, and both units are c -> eps(c) 1_A:
KOPPINEN_NOTE = "twisted ring agrees with the entwining smash ring, table and unit"
# the DK psi of dual_dk(s) at ((y, u), (w, x)) is sum_h act_C[x, (y, h)] coact_A[(w, h), u], which is psi at
# ((w, x), (y, u)): psi transposed, the dual entwining's psi for full duals:
DUAL_DK_COHERENT = report.ok("dual_dk", entwining_coherence=True)


def koppinen_smash(s: DKStructure, e: EntwiningPresentation) -> SmashRing:
    """Koppinen's ring built directly, checked against the entwining smash; no command calls it.

    s is a verified triple and e = dk_entwining(s), an entwining, so
    build_smash(e) reads no ring law (see build_smash).  The full
    multiplication table (koppinen_table) and the unit must agree entry by
    entry with the smash ring of e, which they do for any maps
    (KOPPINEN_NOTE): dk prints that note instead of building either ring.
    """
    n = s.alg.dim * s.coalg.dim
    via_entwining = build_smash(e)
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
    """An algebra or coalgebra with an action or coaction of a bialgebra; no arrow reads its laws."""

    kind: str
    side: str
    h: StructurePresentation
    structure: StructurePresentation
    matrix: Matrix


def comodule_algebra_to_module_algebra(h: StructurePresentation, a: StructurePresentation,
                                       coaction: Matrix) -> DKIngredient:
    """f -> a = sum a_0 f(a_1): a right H-comodule algebra is a left U-module algebra."""
    return DKIngredient("module-algebra", "left", dualize_structure(None, h), a,
                        coaction_to_dual_action(coaction, a.dim, h.dim))


def comodule_algebra_to_dual_module_coalgebra(h: StructurePresentation, a: StructurePresentation,
                                              coaction: Matrix) -> DKIngredient:
    """A* is a right U-module coalgebra via (f . u)(a) = sum f(a_0) u(a_1)."""
    return DKIngredient("module-coalgebra", "right", dualize_structure(None, h), dualize_structure("algebra", a),
                        coaction.transpose())


def module_algebra_to_comodule_algebra(h: StructurePresentation, a: StructurePresentation,
                                       action: Matrix) -> DKIngredient:
    """The rational part of a left H-module algebra: a right comodule algebra over U = H*.

    The evaluation pairing of H with U is square and nondegenerate, so the
    rational part is all of A and rho(a) = sum a_0 (x) a_1 is read off
    h . a = sum a_0 a_1(h): the action re-indexed.  The algebra is A's,
    relabelled r0, r1, ... as the rational part.
    """
    coaction = permute(action, (a.dim, h.dim, a.dim), (0, 1, 2), 2)
    rational = make_structure("algebra", h.field, a.dim, tuple(f"r{i}" for i in range(a.dim)),
                              mul=a.mul, unit=a.unit)
    return DKIngredient("comodule-algebra", "right", dualize_structure(None, h), rational, coaction)


def module_coalgebra_to_dual_module_algebra(h: StructurePresentation, c: StructurePresentation,
                                            action: Matrix) -> DKIngredient:
    """C* of a right module coalgebra is a left module algebra via (h . f)(c) = f(c . h)."""
    cstar = dualize_structure("coalgebra", c)
    return DKIngredient("module-algebra", "left", h, cstar, dual_action_on_dual(action, c.dim, h.dim, "right"))


def module_coalgebra_to_comodule_algebra(h: StructurePresentation, c: StructurePresentation,
                                         action: Matrix) -> DKIngredient:
    """The rational dual of a right H-module coalgebra, through C*: a right U-comodule algebra.

    Its coaction is the action transposed, rho(f)(c (x) h) = f(c . h), on C*
    relabelled r0, r1, ...; each of its laws is a module-coalgebra law of
    C, transposed.
    """
    rational = make_structure("algebra", h.field, c.dim, tuple(f"r{i}" for i in range(c.dim)),
                              mul=c.comul.transpose(), unit=c.counit.transpose())
    return DKIngredient("comodule-algebra", "right", dualize_structure(None, h), rational, action.transpose())


def comodule_coalgebra_to_module_coalgebra(h: StructurePresentation, c: StructurePresentation,
                                           coaction: Matrix) -> DKIngredient:
    """f -> c = sum c_0 f(c_1): a right H-comodule coalgebra is a left U-module coalgebra."""
    return DKIngredient("module-coalgebra", "left", dualize_structure(None, h), c,
                        coaction_to_dual_action(coaction, c.dim, h.dim))


def comodule_coalgebra_to_dual_module_algebra(h: StructurePresentation, c: StructurePresentation,
                                              coaction: Matrix) -> DKIngredient:
    """C* is a right U-module algebra via (f . u)(c) = f(u -> c), dualizing the U-action on C.

    Its action is the coaction transposed, (f . u)(c) = sum f(c_0) u(c_1).
    C is a verified comodule coalgebra, so the action is not checked: row by row, its laws are C's.
    """
    return DKIngredient("module-algebra", "right", dualize_structure(None, h), dualize_structure("coalgebra", c),
                        coaction.transpose())


def module_algebra_to_dual_module(h: StructurePresentation, a: StructurePresentation,
                                  action: Matrix) -> DKIngredient:
    """A* of a right module algebra as a left H-module coalgebra; the dual of a module algebra."""
    astar = dualize_structure("algebra", a)
    return DKIngredient("module-coalgebra", "left", h, astar, dual_action_on_dual(action, a.dim, h.dim, "right"))


# (input kind, target) -> (constructor, the input side it consumes)
_DUAL_ARROWS = {
    ("comodule-algebra", "module-algebra"): (comodule_algebra_to_module_algebra, "right"),
    ("comodule-algebra", "dual-module-coalgebra"): (comodule_algebra_to_dual_module_coalgebra, "right"),
    ("module-algebra", "comodule-algebra"): (module_algebra_to_comodule_algebra, "left"),
    ("module-coalgebra", "dual-module-algebra"): (module_coalgebra_to_dual_module_algebra, "right"),
    ("module-coalgebra", "comodule-algebra"): (module_coalgebra_to_comodule_algebra, "right"),
    ("comodule-coalgebra", "module-coalgebra"): (comodule_coalgebra_to_module_coalgebra, "right"),
    ("comodule-coalgebra", "dual-module-algebra"): (comodule_coalgebra_to_dual_module_algebra, "right"),
    ("module-algebra", "dual-module"): (module_algebra_to_dual_module, "right"),
}


def dualize_dk_ingredient(kind: str, h: StructurePresentation, x: StructurePresentation,
                          m: Matrix, target: str) -> DKIngredient:
    """Dualize one (co)module (co)algebra.

    target names the structure to build; the supported arrows are the
    keys of the dualization table, each consuming its canonical side.
    The input's rows are read, and a failure raises CheckError; then the
    arrow builds.  The output is not read: every arrow re-indexes its
    input's constants, so each of the output's laws is one of the input's.
    """
    entry = _DUAL_ARROWS.get((kind, target))
    if entry is None:
        raise UnsupportedDualization(f"no dualization {kind!r} -> {target!r}")
    arrow, side = entry
    report.require(verify_dk_compat(kind, h, x, m, side))
    return arrow(h, x, m)


# ---------------------------------------------------------------------------
# the dual Doi-Koppinen structure


def dual_dk(s: DKStructure) -> DKStructure:
    """(H*, C*, A*) with full duals, of a verified triple s, built and not read.

    No row of the dual is read: its rows are the transposes of those
    verify_dk(s) read.  Its DK psi is psi transposed, the dual entwining's
    psi for full duals (DUAL_DK_COHERENT), so that is not compared either.
    """
    c0 = module_coalgebra_to_comodule_algebra(s.h, s.coalg, s.coalg_action)
    astar = comodule_algebra_to_dual_module_coalgebra(s.h, s.alg, s.alg_coaction)
    return DKStructure(c0.h, c0.structure, c0.matrix, astar.structure, astar.matrix)


# ---------------------------------------------------------------------------
# coinvariants, integrals, extensions


def coinvariants(h: StructurePresentation, b: StructurePresentation, coaction: Matrix) -> Subspace:
    """{x : coaction(x) = x (x) 1_H}, a unital subalgebra of B once the coaction passed the comodule-algebra rows.

    Both callers read those rows first: coaction-on-unit puts 1 in it, and
    coaction-multiplicative gives coaction(x y) = (x (x) 1)(y (x) 1) = x y (x) 1.
    """
    return kernel(coaction - kron(Matrix.identity(h.field, b.dim), h.unit))


class _BuiltOnRead:
    """The default of a field of a frozen dataclass that is built from the other fields on first read and kept.

    A descriptor-typed field: the class default reads as None, so __init__
    and dataclasses.replace take the field as optional; a value given to
    either is kept as it is, and None leaves it to be built.
    """

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None
        if self.name not in obj.__dict__:
            obj.__dict__[self.name] = self.build(obj)
        return obj.__dict__[self.name]

    def __set__(self, obj, value):
        if value is not None:
            obj.__dict__[self.name] = value


@dataclass(frozen=True)
class HExtension:
    """A comodule algebra over its coinvariants, with an optional integral.

    The coinvariants are built on first read: check prints their dimension,
    and neither cleft nor cocleft reads them.
    """

    h: StructurePresentation
    b: StructurePresentation
    coaction: Matrix
    integral: Matrix | None = None
    coinv: Subspace = _BuiltOnRead(lambda ext: coinvariants(ext.h, ext.b, ext.coaction))


def h_extension(h: StructurePresentation, b: StructurePresentation, coaction: Matrix,
                integral: Matrix | None = None) -> HExtension:
    """Verify H as a bialgebra, B as an algebra, then the comodule algebra; the coinvariants are built on read."""
    report.require(report.first_failure("h_extension", _part_rows(h, ("algebra", b))))
    report.require(verify_dk_compat("comodule-algebra", h, b, coaction, "right"))
    return HExtension(h, b, coaction, integral)


@dataclass(frozen=True)
class IntegralReport:
    colinear: Report
    total: bool
    cleft: bool
    inverse: Matrix | None

    @property
    def passed(self) -> bool:
        return self.colinear.passed and self.total and self.cleft

    def summary(self) -> str:
        return f"colinear={self.colinear.passed} total={self.total} cleft={self.cleft}"


def check_integral(ext: HExtension, gamma: Matrix) -> IntegralReport:
    """Colinearity, totality and convolution invertibility of gamma : H -> B."""
    h, b = ext.h, ext.b
    colinear = report.first_failure("check_integral", [
        ("h-colinearity", (gamma, ext.coaction), (h.comul, (gamma, h.dim)), (h.dim,))])
    total = (gamma @ h.unit) == b.unit
    inv = convolution_inverse(h, b, gamma)
    return IntegralReport(colinear, total, inv is not None, inv)


# ---------------------------------------------------------------------------
# coextensions


def _free_columns(w: Subspace) -> list[int]:
    """The columns where W's RREF has no pivot: the quotient D / W keeps the basis vectors there."""
    return [c for c in range(w.ambient) if c not in w.pivots]


def _dplus(coext: "HCoextension") -> Subspace:
    """W = D.H+, spanned by the columns (i, t): d_i acted on by the t-th basis vector of H+ = ker(counit)."""
    f, nd = coext.h.field, coext.d.dim
    return image(coext.action @ kron(Matrix.identity(f, nd), kernel(coext.h.counit).basis.transpose()))


def _projection(coext: "HCoextension") -> Matrix:
    """D -> C: it kills W and fixes the standard vectors at the free columns.

    As W is in RREF, row r of the projection is e_c minus W's column c placed
    at the pivots, for the r-th free column c.
    """
    w = coext.dplus
    row_of = {c: r for r, c in enumerate(_free_columns(w))}
    return Matrix.from_entries(coext.h.field, len(row_of), w.ambient, chain(
        ((r, c, 1) for c, r in row_of.items()),
        ((row_of[c], w.pivots[t], -v) for t, c, v in nonzeros(w.basis) if c in row_of)))


def _section(coext: "HCoextension") -> Matrix:
    f, nd = coext.d.field, coext.d.dim
    return Matrix.from_columns(f, nd, [Matrix.basis_column(f, nd, c) for c in _free_columns(coext.dplus)])


def _quotient(coext: "HCoextension") -> StructurePresentation:
    d, proj, sect = coext.d, coext.projection, coext.section
    return make_structure("coalgebra", d.field, sect.cols, tuple(d.labels[c] + "~" for c in _free_columns(coext.dplus)),
                          comul=kron(proj, proj) @ d.comul @ sect, counit=d.counit @ sect)


def _quotient_action(coext: "HCoextension") -> Matrix:
    return coext.projection @ coext.action @ kron(coext.section, coext.h.identity_matrix())


@dataclass(frozen=True)
class HCoextension:
    """A module coalgebra D with its quotient C = D / D.H+.

    W = D.H+, the projection, the section, the quotient and its action are
    built on first read: check prints the quotient's dimension from W alone,
    and cocleft reads none of them.
    """

    h: StructurePresentation
    d: StructurePresentation
    action: Matrix
    cointegral: Matrix | None = None
    dplus: Subspace = _BuiltOnRead(_dplus)              # the coideal D . H+
    projection: Matrix = _BuiltOnRead(_projection)      # D -> C
    section: Matrix = _BuiltOnRead(_section)   # C -> D, the standard vectors at the free columns of W
    quotient: StructurePresentation = _BuiltOnRead(_quotient)
    quotient_action: Matrix = _BuiltOnRead(_quotient_action)


def coextension_quotient(h: StructurePresentation, d: StructurePresentation, action: Matrix,
                         cointegral: Matrix | None = None) -> HCoextension:
    """Verify H and D as a module coalgebra; D / D.H+ with its induced module-coalgebra structure is built on read.

    H+ is the kernel of the counit; the quotient basis is the set of
    non-pivot coordinates of the RREF of D.H+, so the presentation is
    deterministic.  H (a bialgebra, and a Hopf algebra when it carries
    the antipode that check_cointegral and dualize_coextension read) and D
    (a coalgebra, then a module coalgebra) are verified, and imply the
    rest.  W = D.H+ is an H-stable coideal on which the counit vanishes
    (Brzezinski and Majid, CMP 191, 1998), so none of that is read:
    eps(d.h) = eps(d) eps(h) is zero for h in H+; H+ is a coideal, the
    kernel of the coalgebra map eps, so Delta(d.h) = sum d_1.h_1 (x) d_2.h_2
    lies in W (x) D + D (x) W; and H+ is an ideal, since eps is
    multiplicative, so (d.h).k = d.(h k) lies in W.  Then proj kills W,
    proj sect = 1 and sect proj = 1 - P_W, so the quotient is a module
    coalgebra and proj a map of module coalgebras.  Nothing is eliminated
    here: W, the projection, the section, the quotient and its action are
    built on first read.
    """
    hkind = "bialgebra" if h.antipode is None else "hopf"
    report.require(report.first_failure("coextension_quotient", _part_rows(h, ("coalgebra", d), hkind=hkind)))
    report.require(verify_dk_compat("module-coalgebra", h, d, action, "right"))
    return HCoextension(h, d, action, cointegral)


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

    def summary(self) -> str:
        twist = self.twist.passed if self.twist is not None else None
        return f"linear={self.linear.passed} total={self.total} cocleft={self.cocleft} inverse_twist={twist}"


def check_cointegral(coext: HCoextension, omega: Matrix) -> CointegralReport:
    """H-linearity, totality and convolution invertibility of omega : D -> H.

    When omega is invertible the twisted-linearity law
    omega^{-1}(d h) = S(h) omega^{-1}(d) is also checked on basis pairs
    (the antipode must exist for that law to make sense); its row is
    _inverse_twist_row.
    """
    h, d = coext.h, coext.d
    linear = report.first_failure("check_cointegral", [
        ("h-linearity", (coext.action, omega), ((omega, h.dim), h.mul), (d.dim, h.dim))])
    total = (h.counit @ omega) == d.counit
    inv = convolution_inverse(d, h, omega)
    cocleft = inv is not None
    twist = None
    if cocleft and h.antipode is not None:
        bad = report.compare("check_cointegral", *_inverse_twist_row(coext, inv))
        twist = bad if bad is not None else report.ok("check_cointegral")
    return CointegralReport(linear, total, cocleft, inv, twist)


def _inverse_twist_row(coext: HCoextension, inv: Matrix) -> tuple:
    """omega^{-1}(d h) = S(h) omega^{-1}(d) as an (axiom, lhs, rhs, basis dims) row, for inv = omega^{-1}.

    d (x) h -> S(h) omega^{-1}(d): the swap, pushed as an index map, then S (x) omega^{-1} as two stages, then
    the multiplication.
    """
    h, nd = coext.h, coext.d.dim
    rhs = (Permutation(h.field, (nd, h.dim), (1, 0)), (h.dim, inv), (h.antipode, h.dim), h.mul)
    return "inverse-twisted-linearity", (coext.action, inv), rhs, (nd, h.dim)


def dualize_coextension(coext: HCoextension, inner: CointegralReport | None) -> tuple[HExtension, Report]:
    """The dual of a coextension: D* over H*, whose coinvariants are the quotient dual.

    inner is check_cointegral(coext, coext.cointegral), None exactly when
    coext carries no cointegral.  Needs a Hopf algebra, which
    coextension_quotient read as hopf; its antipode is bijective, as that
    of every finite-dimensional Hopf algebra is (Larson and Sweedler, Amer.
    J. Math. 91, 1969), so it is not inverted here.  D* over H* is
    module_coalgebra_to_comodule_algebra of D, and none of its rows is
    read: they are the rows of H and D, transposed, which
    coextension_quotient read.  Its coinvariants are not built: f in D* is
    coinvariant exactly when f(d.h) = f(d) eps(h) for all d and h, and with
    d.1 = d, D's action-unit law, which coextension_quotient read, that is
    f(d.(h - eps(h) 1)) = 0, f vanishing on W = D.H+: the image of the
    projection's transpose, the quotient dual.  The integral
    omega^T : H* -> D* is not read either: omega -> omega^T is an algebra
    isomorphism Hom(D, H) -> Hom(H*, D*) under convolution, since the mul
    of D* is D's comul transposed, the comul of H* is H's mul transposed,
    and the units are transposed too.  So omega^T is colinear, total and
    cleft exactly when inner finds omega H-linear, total and cocleft, and
    its convolution inverse is inner.inverse transposed.  A cointegral that
    is not H-linear, or not total, fails the report.
    """
    h = coext.h
    if h.kind != "hopf" or h.antipode is None:
        raise PresentationError("dualize_coextension needs a Hopf algebra")
    dstar = module_coalgebra_to_comodule_algebra(h, coext.d, coext.action)
    ext = HExtension(dstar.h, dstar.structure, dstar.matrix)
    details: dict = {"coinvariants_equal_quotient_dual": True}
    if coext.cointegral is not None:
        if not inner.linear.passed:
            return ext, report.within("dualize_coextension", "cointegral", inner.linear)
        if not inner.total:
            return ext, report.fail("dualize_coextension", "cointegral-not-total")
        if inner.cocleft:
            details["cleft"] = True
        # built anew, not by dataclasses.replace, which would read the coinvariants to copy them
        ext = HExtension(dstar.h, dstar.structure, dstar.matrix, coext.cointegral.transpose())
    return ext, report.ok("dualize_coextension", **details)


# ---------------------------------------------------------------------------
# morphisms


def verify_dk_morphism(s: DKStructure, t: DKStructure, beta: Matrix,
                       gamma: Matrix, delta: Matrix) -> Report:
    """beta a bialgebra morphism, then (gamma, delta) a morphism of the entwinings the verified triples induce."""
    def rows():
        yield "beta", bialgebra_morphism_report(s.h, t.h, beta)
        yield from entwining_morphism_rows(dk_entwining(s), dk_entwining(t), gamma, delta)
    return report.first_failure("verify_dk_morphism", rows())
