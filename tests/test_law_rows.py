"""Every law is a composition of structure maps that only exactlin._block evaluates.

Two kinds of test: the verifiers pass on every catalog object with Matrix
products and Kronecker products disabled, so no law side is laid out; and
the rows that no first failure of a catalog object reaches each fail, at
row level, under a +1 on one structure constant, with the witness and both
sides pinned.  psi = 0 and an idempotent algebra map make psi-unitality
and psi-counitality first failures of verify_entwining; antipode-right
cannot be a first failure, a test pins that too, and its row is read from
the conftest oracle, since verify_structure does not read it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import permutations

import pytest

from entwine.catalog import VERIFIERS, catalog_get, catalog_names, trivial_bialgebra
from entwine.doikoppinen import (
    COMPAT_KINDS,
    HCoextension,
    _compat_laws,
    _inverse_twist_row,
    check_cointegral,
    check_integral,
)
from entwine.entwining import (
    EntwinedModulePresentation,
    EntwiningPresentation,
    entwining_laws,
    flip_entwining,
    hom_entwined,
    verify_entwined_module,
    verify_entwining,
    verify_entwining_morphism,
)
from entwine.exactlin import Matrix, Permutation, QQ
from entwine.report import compare, mirror
from entwine.structures import (
    ModulePresentation,
    StructurePresentation,
    algebra_morphism_report,
    bialgebra_morphism_report,
    canonical_pairing,
    check_adjoint_pair,
    coalgebra_morphism_report,
    verify_measuring_pairing,
    verify_structure,
    _bialgebra_checks,
    _comodule_checks,
    _measuring_laws,
    _module_checks,
)
from conftest import (
    BOTH_FIELDS,
    antipode_right_rows,
    corrupt,
    layout,
    left_comodule_rows,
    left_compat_rows,
    left_module_rows,
    perm_tensor,
    projection_rows,
    quotient_of,
    random_matrix,
    zeros,
)


class TestNoLayout:
    """With Matrix.__matmul__ and Matrix.kron raising, every law verifier still passes on every catalog object.

    verify_dk_morphism is left out: it builds each psi with dk_entwining, a
    construction and not a law.
    """

    @pytest.fixture
    def objects(self, monkeypatch):
        objects = {name: catalog_get(name) for name in catalog_names()}

        def refuse(*_):
            raise AssertionError("a law side was laid out")

        monkeypatch.setattr(Matrix, "__matmul__", refuse)
        monkeypatch.setattr(Matrix, "kron", refuse)
        return objects

    def test_verifiers(self, objects):
        checked = set()
        for name, obj in objects.items():
            if type(obj) in VERIFIERS:
                assert VERIFIERS[type(obj)](obj).passed, name
                checked.add(type(obj).__name__)
        assert {"StructurePresentation", "EntwiningPresentation", "EntwinedModulePresentation", "DKStructure",
                "AltDKStructure"} <= checked

    def test_pairings_and_morphism_reports(self, objects):
        kinds = set()
        for name, obj in objects.items():
            if isinstance(obj, StructurePresentation):
                ident = obj.identity_matrix()
                reports = []
                if obj.has_algebra:
                    reports.append(algebra_morphism_report(obj, obj, ident))
                if obj.has_coalgebra:
                    pairing = canonical_pairing(obj)
                    reports += [coalgebra_morphism_report(obj, obj, ident), verify_measuring_pairing(pairing),
                                check_adjoint_pair(pairing, pairing, ident, ident)]
                if obj.has_algebra and obj.has_coalgebra:
                    reports.append(bialgebra_morphism_report(obj, obj, ident))
            elif isinstance(obj, EntwiningPresentation):
                reports = [verify_entwining_morphism(obj, obj, obj.algebra.identity_matrix(),
                                                     obj.coalgebra.identity_matrix())]
            elif isinstance(obj, EntwinedModulePresentation):
                reports = [hom_entwined(obj.entwining, obj, obj, Matrix.identity(obj.entwining.field, obj.dim))]
            else:
                continue
            for rep in reports:
                assert rep.passed, (name, rep.summary())
                kinds.add(rep.op)
        assert kinds == {"algebra_morphism", "coalgebra_morphism", "bialgebra_morphism", "verify_measuring_pairing",
                         "check_adjoint_pair", "verify_entwining_morphism", "hom_entwined"}


# (catalog bialgebra, map given +1 at entry, the row, its failure)
BIALGEBRA_ROW_BITES = [
    ("sweedler4", "unit", (3, 0), "comul-unit",
     "at basis (0,) lhs={0: 1, 3: 1, 13: 1} rhs={0: 1, 3: 1, 12: 1, 15: 1}"),
    ("sweedler4", "counit", (0, 3), "counit-multiplicative", "at basis (1, 2) lhs={0: 1} rhs={}"),
    ("qc2", "counit", (0, 0), "counit-unit", "at basis (0,) lhs={0: 2} rhs={0: 1}"),
]

# (catalog entwining, Hopf algebra or entwined module, map given +1 at entry, the row, its failure)
FIRST_UNREACHED_ROW_BITES = [
    ("hopfmod_qc2_entwining", "psi", (2, 2), "psi-unitality", "at basis (1,) lhs={1: 1, 2: 1} rhs={1: 1}"),
    ("hopfmod_sweedler4_entwining", "psi", (1, 1), "psi-counitality", "at basis (0, 1) lhs={0: 1, 1: 1} rhs={1: 1}"),
    ("sweedler4", "antipode", (3, 2), "antipode-right", "at basis (2,) lhs={2: 1} rhs={}"),
    ("hopfmod_qc2", "action", (1, 0), "action-unit", "at basis (0,) lhs={0: 1, 1: 1} rhs={0: 1}"),
    ("hopfmod_qc2", "coaction", (0, 1), "coaction-counit", "at basis (1,) lhs={0: 1, 1: 1} rhs={1: 1}"),
    ("coext_sweedler4", "inverse", (0, 0), "inverse-twisted-linearity", "at basis (0, 1) lhs={1: 1} rhs={1: 2}"),
]


@dataclass(frozen=True)
class CointegralInverse:
    """A coextension with the convolution inverse of its cointegral, which check_cointegral solves for and
    inverse-twisted-linearity reads: its right-hand side swaps d (x) h by a Permutation."""

    coext: HCoextension
    inverse: Matrix


def inverse_twist_rows(x: CointegralInverse) -> list:
    return [_inverse_twist_row(x.coext, x.inverse)]


def module_rows(m: EntwinedModulePresentation) -> list:
    """The module and comodule rows that verify_entwined_module reads of m, before psi-compatibility."""
    return [*_module_checks(m.as_module()), *_comodule_checks(m.as_module())]

# (catalog coextension, row of the projection D -> C given +1 at (0, 0), its failure)
PROJECTION_ROW_BITES = [
    ("coext_sweedler4", "projection-comultiplicative", "at basis (0,) lhs={0: 2} rhs={0: 4}"),
    ("coext_sweedler4", "projection-counital", "at basis (0,) lhs={0: 2} rhs={0: 1}"),
    ("coext_sweedler4", "projection-equivariant", "at basis (0, 1) lhs={0: 1} rhs={0: 2}"),
]


# (catalog object, map given +1 at entry, the row, its failure): the identity M -> N with N's action or coaction
# bumped, and an integral or cointegral bumped in check_integral or check_cointegral
MORPHISM_ROW_BITES = [
    ("hopfmod_sweedler4", "action", (0, 0), "a-linearity", "at basis (0, 0) lhs={0: 1} rhs={0: 2}"),
    ("hopfmod_sweedler4", "coaction", (0, 0), "c-colinearity", "at basis (0,) lhs={0: 2} rhs={0: 1}"),
    ("ext_sweedler4", "integral", (0, 0), "h-colinearity", "at basis (3,) lhs={3: 1, 13: 1} rhs={3: 2, 13: 1}"),
    ("coext_sweedler4", "cointegral", (0, 0), "h-linearity", "at basis (0, 1) lhs={1: 1} rhs={1: 2}"),
]


# (catalog coalgebra, map of its canonical pairing given +1 at entry, the row, its failure): the pairing matrix, and
# the coalgebra's counit
PAIRING_ROW_BITES = [
    ("sweedler4", "matrix", (0, 0), "measuring", "at basis (0, 0) lhs={0: 2} rhs={0: 4}"),
    ("sweedler4", "counit", (0, 0), "unit-counit", "at basis (0,) lhs={0: 1, 1: 1} rhs={0: 2, 1: 1}"),
]


def morphism_row(obj, attr: str, bumped=None):
    """The report of the map that MORPHISM_ROW_BITES bumps, at obj's own map or at bumped."""
    if attr == "integral":
        return check_integral(obj, obj.integral if bumped is None else bumped).colinear
    if attr == "cointegral":
        return check_cointegral(obj, obj.cointegral if bumped is None else bumped).linear
    target = obj if bumped is None else replace(obj, **{attr: bumped})
    return hom_entwined(obj.entwining, obj, target, Matrix.identity(obj.entwining.field, obj.dim))


class TestEveryUnreachedRowBites:
    """Rows that no first failure of a catalog object names, each failed at row level by a +1.

    A bump of unit or counit breaks an algebra or coalgebra law before the
    bialgebra rows are read; the closure checks of coextension_quotient
    imply the projection rows, so they are read from the conftest oracle
    on a bumped projection.
    """

    @pytest.mark.parametrize("name, attr, entry, axiom, failure", BIALGEBRA_ROW_BITES,
                             ids=[axiom for _, _, _, axiom, _ in BIALGEBRA_ROW_BITES])
    def test_bialgebra_row(self, name, attr, entry, axiom, failure):
        def row(h):
            return next(r for r in _bialgebra_checks(h) if r[0] == axiom)

        h = catalog_get(name)
        assert compare("verify_structure[bialgebra]", *row(h)) is None
        bad = replace(h, **{attr: corrupt(getattr(h, attr), *entry)})
        rep = compare("verify_structure[bialgebra]", *row(bad))
        assert rep.summary() == f"verify_structure[bialgebra]: FAIL {axiom} {failure}"

    @pytest.mark.parametrize("name, attr, entry, axiom, failure", FIRST_UNREACHED_ROW_BITES,
                             ids=[axiom for _, _, _, axiom, _ in FIRST_UNREACHED_ROW_BITES])
    def test_row_that_no_bump_fails_first(self, name, attr, entry, axiom, failure):
        """A +1 on psi, on the antipode or on a module's (co)action fails an earlier law first, so each of these rows
        is read alone; so is the row that reads the convolution inverse check_cointegral solves for, bumped."""
        obj = catalog_get(name)
        if isinstance(obj, HCoextension):
            obj = CointegralInverse(obj, check_cointegral(obj, obj.cointegral).inverse)
        op, laws = {EntwiningPresentation: ("verify_entwining", entwining_laws),
                    EntwinedModulePresentation: ("verify_structure[module+comodule]", module_rows),
                    StructurePresentation: ("verify_structure[hopf]", antipode_right_rows),
                    CointegralInverse: ("check_cointegral", inverse_twist_rows)}[type(obj)]

        def row(x):
            return next(r for r in laws(x) if r[0] == axiom)

        assert compare(op, *row(obj)) is None
        bad = replace(obj, **{attr: corrupt(getattr(obj, attr), *entry)})
        assert compare(op, *row(bad)).summary() == f"{op}: FAIL {axiom} {failure}"

    def test_psi_zero_fails_unitality_first(self):
        e = catalog_get("hopfmod_qc2_entwining")
        assert verify_entwining(replace(e, psi=zeros(QQ, 4, 4))).summary() == \
            "verify_entwining: FAIL psi-unitality at basis (0,) lhs={} rhs={0: 1}"

    def test_an_idempotent_algebra_map_fails_counitality_first(self):
        """Over the dim-1 coalgebra, psi is a map f : A -> A, and the first three psi laws say that f is an
        idempotent algebra map; counitality says f = id, so g -> 1 on qc2 fails it first."""
        e = flip_entwining(catalog_get("qc2"), trivial_bialgebra())
        assert verify_entwining(e).passed
        bad = replace(e, psi=Matrix.from_rows(QQ, [[1, 1], [0, 0]]))
        assert verify_entwining(bad).summary() == \
            "verify_entwining: FAIL psi-counitality at basis (0, 1) lhs={0: 1} rhs={1: 1}"

    @pytest.mark.parametrize("name", ["hopfmod_qc2", "hopfmod_sweedler4"])
    def test_unit_rows_are_never_the_first_failure(self, name):
        """A +1 on one entry of the action fails action-associativity first, and on the coaction
        coaction-coassociativity or psi-compatibility, so action-unit and coaction-counit are pinned at row level."""
        m = catalog_get(name)
        firsts = set()
        for attr in ("action", "coaction"):
            x = getattr(m, attr)
            for entry in ((i, j) for i in range(x.rows) for j in range(x.cols)):
                firsts.add(verify_entwined_module(m.entwining, replace(m, **{attr: corrupt(x, *entry)})).axiom)
        assert firsts <= {"action[action-associativity]", "coaction[coaction-coassociativity]", "psi-compatibility"}

    def test_antipode_right_is_never_the_first_failure(self):
        """Once the bialgebra laws hold, antipode-left makes S the convolution inverse of id, which is two-sided,
        so antipode-right holds too: no perturbation of a Hopf algebra fails it first."""
        h = catalog_get("sweedler4")
        for entry in ((i, j) for i in range(h.dim) for j in range(h.dim)):
            rep = verify_structure(None, replace(h, antipode=corrupt(h.antipode, *entry)))
            assert rep.axiom == "antipode-left", (entry, rep.summary())

    @staticmethod
    def bite(axiom: str):
        """The MORPHISM_ROW_BITES entry of axiom: the row passes on the catalog object, and fails when bumped."""
        name, attr, entry, _, failure = next(b for b in MORPHISM_ROW_BITES if b[3] == axiom)
        obj = catalog_get(name)
        rep = morphism_row(obj, attr)
        assert rep.passed
        assert morphism_row(obj, attr, corrupt(getattr(obj, attr), *entry)).summary() == \
            f"{rep.op}: FAIL {axiom} {failure}"

    @pytest.mark.parametrize("axiom", ["a-linearity", "c-colinearity"])
    def test_hom_entwined_row(self, axiom):
        """The identity M -> N fails exactly the law whose structure map of N is bumped."""
        self.bite(axiom)

    def test_h_colinearity(self):
        self.bite("h-colinearity")

    def test_h_linearity(self):
        self.bite("h-linearity")

    @pytest.mark.parametrize("name, attr, entry, axiom, failure", PAIRING_ROW_BITES,
                             ids=[axiom for _, _, _, axiom, _ in PAIRING_ROW_BITES])
    def test_measuring_pairing_row(self, name, attr, entry, axiom, failure):
        """The rows that rat reads of a pairing: +1 on the pairing fails measuring, +1 on the counit unit-counit."""
        def row(p):
            return next(r for r in _measuring_laws(p) if r[0] == axiom)

        p = canonical_pairing(catalog_get(name))
        assert compare("verify_measuring_pairing", *row(p)) is None
        if attr == "matrix":
            bad = replace(p, matrix=corrupt(p.matrix, *entry))
        else:
            bad = replace(p, coalgebra=replace(p.coalgebra, counit=corrupt(p.coalgebra.counit, *entry)))
        assert compare("verify_measuring_pairing", *row(bad)).summary() == \
            f"verify_measuring_pairing: FAIL {axiom} {failure}"

    @pytest.mark.parametrize("name, axiom, failure", PROJECTION_ROW_BITES,
                             ids=[axiom for _, axiom, _ in PROJECTION_ROW_BITES])
    def test_projection_row(self, name, axiom, failure):
        def row(coext, q):
            return next(r for r in projection_rows(coext, q) if r[0] == axiom)

        coext = catalog_get(name)
        q = quotient_of(coext)
        assert compare("coextension_quotient", *row(coext, q)) is None
        bad = replace(q, projection=corrupt(q.projection, 0, 0))
        assert compare("coextension_quotient", *row(coext, bad)).summary() == \
            f"coextension_quotient: FAIL {axiom} {failure}"


def random_structure(field, rng, n: int) -> StructurePresentation:
    """Random mul, unit, comul and counit on dimension n: the shapes of a bialgebra, its laws broken."""
    return StructurePresentation("bialgebra", field, n, tuple(f"e{i}" for i in range(n)),
                                 random_matrix(field, rng, n, n * n), random_matrix(field, rng, n, 1),
                                 random_matrix(field, rng, n * n, n), random_matrix(field, rng, 1, n))


class TestMirror:
    """Each left row is its right row through report.mirror: laid out, it is the hand-written left row of the
    conftest oracle, with the same col_dims and the same first failure, on random maps that break the laws."""

    @staticmethod
    def failing_rows(mirrored, old) -> int:
        """Assert each mirrored row is its old row; return how many of them fail."""
        assert [row[0] for row in mirrored] == [row[0] for row in old]
        failing = 0
        for new_row, old_row in zip(mirrored, old):
            assert new_row[3] == old_row[3], new_row[0]
            assert layout(new_row[1]) == layout(old_row[1]), new_row[0]
            assert layout(new_row[2]) == layout(old_row[2]), new_row[0]
            rep = compare("mirror", *new_row)
            assert rep == compare("mirror", *old_row), new_row[0]
            failing += rep is not None
        return failing

    @pytest.mark.parametrize("dims", [(2, 3, 4), (2, 1, 3, 2)], ids=str)
    def test_permutation_is_conjugated_by_the_reversal(self, dims):
        """A mirrored Permutation is the reversal of its output factors after it, and of its input before it, on
        every permutation: the handed rows use only the middle swap, which is its own mirror."""
        n = len(dims)

        def reversal(ds):
            return perm_tensor(QQ, ds, range(n - 1, -1, -1))

        for perm in permutations(range(n)):
            p = Permutation(QQ, dims, perm)
            _, lhs, _, col_dims = mirror(("perm", (p,), (p,), dims))
            assert col_dims == dims[::-1]
            assert layout(lhs) == reversal([dims[a] for a in perm]) @ layout(p) @ reversal(dims[::-1])

    @pytest.mark.parametrize("field", BOTH_FIELDS, ids=str)
    def test_compat_rows(self, field, rng):
        checked = failing = 0
        for kind in COMPAT_KINDS:
            for nh, nx in ((1, 2), (2, 3), (3, 2)):
                h, x = random_structure(field, rng, nh), random_structure(field, rng, nx)
                # a left action H (x) X -> X, or a left coaction X -> H (x) X
                m = random_matrix(field, rng, *((nx, nh * nx) if kind.startswith("module") else (nh * nx, nx)))
                rows = [row for row in _compat_laws(kind, "left", h, x, m) if len(row) == 4]
                failing += self.failing_rows(rows, left_compat_rows(kind, h, x, m))
                checked += len(rows)
        assert checked == 2 * 3 * len(COMPAT_KINDS)
        assert failing > checked // 2

    @pytest.mark.parametrize("field", BOTH_FIELDS, ids=str)
    def test_module_and_comodule_rows(self, field, rng):
        failing = 0
        for na, n in ((1, 2), (2, 3), (3, 2)):
            a = random_structure(field, rng, na)
            m = ModulePresentation(n, a, random_matrix(field, rng, n, na * n), "left",
                                   a, random_matrix(field, rng, na * n, n), "left")
            failing += self.failing_rows(list(_module_checks(m)), left_module_rows(m))
            failing += self.failing_rows(list(_comodule_checks(m)), left_comodule_rows(m))
        assert failing > 6
