import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import pytest

from entwine.exactlin import Field, Matrix, QQ, invert, kernel, kron, permute, rank
from entwine.report import CheckError
from entwine.structures import (
    AlphaConditionError,
    ModulePresentation,
    PairingPresentation,
    StructurePresentation,
    algebra_morphism_report,
    canonical_pairing,
    check_adjoint_pair,
    check_alpha_condition,
    compute_antipode,
    convolution,
    convolution_inverse,
    convolution_unit,
    dual_action_on_dual,
    dualize_structure,
    make_structure,
    matrix_from_quads,
    module_from_coaction,
    mul_from_triples,
    pairing_action,
    rational_submodule,
    verify_measuring_pairing,
    verify_structure,
)
from entwine.catalog import (
    catalog_get,
    catalog_names,
    cyclic_group_algebra,
    nonhopf_bialgebra,
    sweedler4,
    trivial_bialgebra,
)
from entwine.document import document_from_objects, emit_document, parse_document
from entwine.duality import dual_entwining, dual_module_r
from entwine.exactlin import PresentationError
from conftest import (
    BOTH_FIELDS,
    birational_subspace,
    coaction_from_module,
    col_matrix,
    convolution_inverse_by_units,
    corrupt,
    harpoon_action_matrix,
    random_invertible,
    random_matrix,
    rational_submodule_by_layout,
    rational_submodule_two_branch,
    scale,
    with_antipode,
    zeros,
)
from test_exactlin import sparse_matrix


# the regular action of the group algebra of C2 on itself, as quadruples
C2_REGULAR = [(0, 0, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 0, 1)]


def qq_mat(rows):
    return Matrix.from_rows(QQ, [[QQ.of(x) for x in r] for r in rows])


@pytest.fixture(scope="module")
def qc2():
    return catalog_get("qc2")


@pytest.fixture(scope="module")
def h4():
    return catalog_get("sweedler4")


class TestVerifyStructure:
    def test_group_algebra_is_hopf(self, qc2):
        assert verify_structure(None, qc2).passed
        assert verify_structure("bialgebra", qc2).passed

    def test_dim1_grouplike_coalgebra(self):
        c = make_structure("coalgebra", QQ, 1, ("e",), comul=[(0, 0, 0, 1)], counit=[1])
        assert verify_structure(None, c).passed

    def test_sweedler_h4(self, h4):
        assert verify_structure(None, h4).passed

    def test_failure_carries_witness(self):
        # (e1 e1) e1 = e2 e1 = 0 but e1 (e1 e1) = e1 e2 = e0
        unital = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (0, 2, 2, 1), (2, 0, 2, 1)]
        worse = make_structure("algebra", QQ, 3, None,
                               mul=unital + [(1, 1, 2, 1), (1, 2, 0, 1)],
                               unit=[1, 0, 0])
        rep = verify_structure(None, worse)
        assert not rep.passed
        assert rep.axiom == "associativity"
        assert rep.witness == (1, 1, 1)
        assert rep.lhs != rep.rhs

    def test_malformed_presentation(self):
        with pytest.raises(PresentationError):
            make_structure("algebra", QQ, 2, None, mul=[(0, 0, 2, 1)], unit=[1, 0])
        with pytest.raises(PresentationError):
            make_structure("hopf", QQ, 1, None, mul=[(0, 0, 0, 1)], unit=[1],
                           comul=[(0, 0, 0, 1)], counit=[1])

    def test_module_axioms(self, qc2):
        act = matrix_from_quads(QQ, "right-action", (2, 2, 2), C2_REGULAR)
        m = ModulePresentation(2, qc2, act, "right")
        assert verify_structure("module", m).passed
        bad = matrix_from_quads(QQ, "right-action", (2, 2, 2), C2_REGULAR[:3] + [(1, 1, 1, 1)])
        assert not verify_structure("module", ModulePresentation(2, qc2, bad, "right")).passed

    def test_unknown_side_is_refused(self, h4):
        """A side other than left or right is refused, not read as left by the laws and as right by Rat."""
        p = canonical_pairing(h4)
        act = module_from_coaction(p, h4.comul, h4.dim)
        for sides in ({"action_side": "sideways"}, {"coaction_side": "sideways"}):
            with pytest.raises(PresentationError, match="unknown side 'sideways'"):
                ModulePresentation(h4.dim, p.algebra, act, **sides)
        for helper in (lambda: dual_action_on_dual(act, h4.dim, h4.dim, "sideways"),
                       lambda: module_from_coaction(p, h4.comul, h4.dim, "sideways")):
            with pytest.raises(PresentationError, match="^unknown side 'sideways'$"):
                helper()

    def test_comodule_axioms(self, qc2):
        coact = matrix_from_quads(QQ, "right-coaction", (2, 2, 2), [(0, 0, 0, 1), (1, 1, 1, 1)])
        m = ModulePresentation(2, None, None, "right", qc2, coact, "right")
        assert verify_structure("comodule", m).passed


class TestPassedGroups:
    """verify_structure keeps on a presentation the law groups it passed and skips them after: no report changes."""

    @staticmethod
    def kinds(h) -> list:
        both = h.has_algebra and h.has_coalgebra
        return [kind for kind, carried in (("algebra", h.has_algebra), ("coalgebra", h.has_coalgebra),
                                           ("bialgebra", both), ("hopf", h.antipode is not None)) if carried]

    def test_no_order_changes_a_report(self):
        """Every catalog structure and seeded +1 bumps of its maps, verified at each kind it carries in every order:
        each report equals the one a fresh copy gives at that kind."""
        rng = random.Random("passed groups")
        structures = [x for x in map(catalog_get, catalog_names()) if isinstance(x, StructurePresentation)]
        assert len(structures) == 9
        verdicts = set()
        for h in structures:
            maps = [a for a in ("mul", "unit", "comul", "counit", "antipode") if getattr(h, a) is not None]
            variants = [h]
            for _ in range(4):
                m = getattr(h, attr := rng.choice(maps))
                variants.append(replace(h, **{attr: corrupt(m, rng.randrange(m.rows), rng.randrange(m.cols))}))
            for x in variants:
                kinds = self.kinds(x)
                fresh = {kind: verify_structure(kind, replace(x)) for kind in kinds}
                verdicts |= {(kind, rep.passed) for kind, rep in fresh.items()}
                for order in permutations(kinds):
                    y = replace(x)
                    for kind in order:
                        assert verify_structure(kind, y) == fresh[kind], (h.labels, order, kind)
                    assert y._passed == {kind for kind, rep in fresh.items() if rep.passed}, order
        assert {(kind, passed) for kind in ("algebra", "coalgebra", "bialgebra", "hopf")
                for passed in (True, False)} <= verdicts

    def test_a_passed_group_is_not_read_again(self, monkeypatch):
        """After hopf passes, no kind reads a row; after bialgebra passes, hopf reads antipode-left alone; a failed
        verification keeps nothing."""
        from entwine import report

        axioms = []
        compare = report.compare

        def recording(op, axiom, *rest):
            axioms.append(axiom)
            return compare(op, axiom, *rest)

        monkeypatch.setattr(report, "compare", recording)
        h = replace(catalog_get("sweedler4"))
        assert verify_structure("bialgebra", h).passed and len(axioms) == 10
        axioms.clear()
        assert verify_structure("hopf", h).passed and axioms == ["antipode-left"]
        axioms.clear()
        for kind in ("algebra", "coalgebra", "bialgebra", "hopf"):
            assert verify_structure(kind, h).passed
        assert axioms == [] and h._passed == {"algebra", "coalgebra", "bialgebra", "hopf"}
        bad = replace(h, antipode=corrupt(h.antipode, 0, 2))
        assert not verify_structure("hopf", bad).passed and bad._passed == set()


# (catalog Hopf algebra, map given +1 at entry, the whole first failure)
HOPF_BITES = [
    ("sweedler4", "antipode", (0, 2), "antipode-left at basis (2,) lhs={0: 1} rhs={}"),
    ("qc2", "mul", (0, 3), "comul-multiplicative at basis (1, 1) lhs={0: 2} rhs={0: 4}"),
    ("qc2_dual", "comul", (3, 1), "comul-multiplicative at basis (0, 1) lhs={} rhs={3: 1}"),
]


class TestEveryHopfLawBites:
    """A +1 on one map of a catalog Hopf algebra makes a bialgebra or Hopf law the first failure.

    No single bump of a catalog Hopf algebra reaches antipode-right first.
    """

    @pytest.mark.parametrize("name, attr, entry, failure", HOPF_BITES,
                             ids=[f"{n}-{a}-{f.split()[0]}" for n, a, _, f in HOPF_BITES])
    def test_bump_fails_the_law(self, name, attr, entry, failure):
        h = catalog_get(name)
        m = getattr(h, attr)
        i, j = entry
        data = list(m.data)
        data[i * m.cols + j] = h.field.add(data[i * m.cols + j], h.field.one())
        bad = replace(h, **{attr: Matrix(h.field, m.rows, m.cols, data)})
        assert verify_structure(None, bad).summary() == f"verify_structure[hopf]: FAIL {failure}"


class TestConvolution:
    def test_unit_law(self, qc2, rng):
        e = convolution_unit(qc2, qc2)
        g = random_matrix(QQ, rng, 2, 2)
        assert convolution(qc2, qc2, e, g) == g
        assert convolution(qc2, qc2, g, e) == g

    def test_dim1_pointwise(self, qc2):
        c = make_structure("coalgebra", QQ, 1, ("c",), comul=[(0, 0, 0, 1)], counit=[1])
        f = qq_mat([[1], [2]])
        g = qq_mat([[0], [1]])
        # image is f(c) g(c) by grouplikeness
        expect = qc2.mul @ kron(f, g)
        assert convolution(c, qc2, f, g) == expect

    def test_id_star_antipode(self, qc2):
        s = compute_antipode(qc2)
        assert convolution(qc2, qc2, qc2.identity_matrix(), s) == convolution_unit(qc2, qc2)

    def test_associative_unital_exhaustively(self, qc2, h4):
        for a in (qc2, h4):
            n = a.dim * a.dim
            if n > 16:
                continue
            units = []
            for t in range(n):
                units.append(Matrix(QQ, a.dim, a.dim,
                                    [QQ.one() if i == t else QQ.zero() for i in range(n)]))
            e = convolution_unit(a, a)
            for f in units:
                assert convolution(a, a, e, f) == f
                assert convolution(a, a, f, e) == f
                for g in units:
                    fg = convolution(a, a, f, g)
                    for h in units:
                        lhs = convolution(a, a, fg, h)
                        rhs = convolution(a, a, f, convolution(a, a, g, h))
                        assert lhs == rhs

    def test_inverse_of_unit(self, qc2):
        e = convolution_unit(qc2, qc2)
        assert convolution_inverse(qc2, qc2, e) == e

    def test_identity_inverse_is_inversion(self, qc2):
        got = convolution_inverse(qc2, qc2, qc2.identity_matrix())
        assert got == Matrix.identity(QQ, 2)  # g^{-1} = g in C2

    def test_zero_map_not_invertible(self, qc2):
        assert convolution_inverse(qc2, qc2, zeros(QQ, 2, 2)) is None

    def test_inverse_is_the_per_unit_solve_on_catalog_pairs(self):
        """On every (coalgebra, algebra) pair of the catalog over Q: the unit map, the identity where the dims
        agree, and seeded maps, dense and sparse."""
        rng = random.Random("convolution inverse on catalog pairs")
        structures = [x for name in catalog_names() if isinstance(x := catalog_get(name), StructurePresentation)
                      and x.field == QQ]
        algebras = [x for x in structures if x.has_algebra]
        coalgebras = [x for x in structures if x.has_coalgebra]
        assert (len(algebras), len(coalgebras)) == (7, 7)
        inverses = []
        for a in algebras:
            for c in coalgebras:
                maps = [convolution_unit(c, a), random_matrix(QQ, rng, a.dim, c.dim),
                        sparse_matrix(QQ, rng, a.dim, c.dim, 0.3)]
                if a.dim == c.dim:
                    maps.append(a.identity_matrix())
                for f in maps:
                    got = convolution_inverse(c, a, f)
                    assert got == convolution_inverse_by_units(c, a, f), (a.labels, c.labels, f)
                    inverses.append(got)
        assert len(inverses) == 162 and 0 < inverses.count(None) < len(inverses)

    @pytest.mark.parametrize("field", BOTH_FIELDS, ids=str)
    def test_inverse_is_the_per_unit_solve_on_random_maps(self, field):
        """Seeded maps C -> A between group algebras, Sweedler's algebra and a bialgebra with no antipode, of
        dims 1 to 4 on either side, some with an inverse and some without."""
        rng = random.Random(f"convolution inverse over {field}")
        structures = [trivial_bialgebra(field), cyclic_group_algebra(field, 2), cyclic_group_algebra(field, 3),
                      sweedler4(field), nonhopf_bialgebra(field)]
        inverses = []
        for a in structures:
            for c in structures:
                for density in (0.2, 0.5, 1.0):
                    f = sparse_matrix(field, rng, a.dim, c.dim, density)
                    got = convolution_inverse(c, a, f)
                    assert got == convolution_inverse_by_units(c, a, f), (a.labels, c.labels, f)
                    inverses.append((a.dim != c.dim, got is None))
        assert len(inverses) == 75
        assert {(True, True), (True, False), (False, True), (False, False)} <= set(inverses)


class TestAntipode:
    def test_group_algebra_inversion(self):
        for n, field in ((2, QQ), (3, QQ), (5, Field(5))):
            h = cyclic_group_algebra(field, n)
            s = compute_antipode(h)
            perm = Matrix.from_rows(field, [
                [field.one() if i == (-j) % n else field.zero() for j in range(n)]
                for i in range(n)])
            assert s == perm

    def test_sweedler(self, h4):
        s = compute_antipode(h4)
        # S(g) = g and S(x) = -gx, re-verified against both antipode laws
        assert s.col(1) == (QQ.zero(), QQ.one(), QQ.zero(), QQ.zero())
        assert s.col(2) == (QQ.zero(), QQ.zero(), QQ.zero(), QQ.of(-1))
        withs = with_antipode(h4, s)
        assert verify_structure("hopf", withs).passed

    def test_trivial(self):
        t = trivial_bialgebra()
        assert compute_antipode(t) == Matrix.identity(QQ, 1)

    def test_no_antipode(self):
        m2 = catalog_get("monoid2")
        assert compute_antipode(m2) is None


class TestDualize:
    def test_dual_of_qc2(self, qc2):
        dual = dualize_structure(None, qc2)
        assert verify_structure(None, dual).passed
        # Delta(d_e) = d_e (x) d_e + d_g (x) d_g, Delta(d_g) = d_e (x) d_g + d_g (x) d_e
        assert dual.comul.col(0) == (QQ.one(), QQ.zero(), QQ.zero(), QQ.one())
        assert dual.comul.col(1) == (QQ.zero(), QQ.one(), QQ.one(), QQ.zero())

    def test_double_dual_identity(self):
        for name in ("qc2", "qc3", "sweedler4", "monoid2", "trivial"):
            h = catalog_get(name)
            dd = dualize_structure(None, dualize_structure(None, h))
            assert dd.mul == h.mul and dd.unit == h.unit
            assert dd.comul == h.comul and dd.counit == h.counit
            assert dd.antipode == h.antipode

    def test_dim1(self):
        a = make_structure("algebra", QQ, 1, ("e",), mul=[(0, 0, 0, 1)], unit=[1])
        dual = dualize_structure(None, a)
        assert dual.kind == "coalgebra" and verify_structure(None, dual).passed

    def test_dual_outputs_verify(self):
        for name in ("qc2", "qc3", "f5c5", "sweedler4", "monoid2"):
            dual = dualize_structure(None, catalog_get(name))
            assert verify_structure(None, dual).passed

    def test_dual_module(self, qc2, rng):
        act = matrix_from_quads(QQ, "right-action", (2, 2, 2), C2_REGULAR)
        m = ModulePresentation(2, qc2, act, "right")
        dual = dualize_structure(None, m)
        assert dual.action_side == "left"
        assert verify_structure("module", dual).passed

    def test_dual_comodule_is_module_over_dual(self, qc2):
        # the regular comodule of qc2 dualizes to a module over its convolution algebra
        m = ModulePresentation(2, None, None, "right", qc2, qc2.comul, "right")
        dual = dualize_structure(None, m)
        assert dual.action_side == "right"
        assert dual.algebra.kind == "algebra"
        assert verify_structure("module", dual).passed
        # (h . d_u)(m) = h(m d_u(m)); for the group algebra d_u . d_u has value h(u)
        act = dual.action
        # column (r = d_e, j = d_e): the result is d_e scaled by d_e(e) = 1
        assert col_matrix(act, 0) == Matrix.from_rows(QQ, [[QQ.one()], [QQ.zero()]])

    def test_sweedler4_duals_take_their_documented_side(self, h4):
        """On sweedler4, neither commutative nor cocommutative, each dual is a module only at its documented side."""
        span_g_x = matrix_from_quads(QQ, "right-coaction", (2, 2, 4), [(0, 0, 1, 1), (1, 1, 0, 1), (1, 0, 2, 1)])
        span_1_x = matrix_from_quads(QQ, "left-coaction", (2, 2, 4), [(0, 0, 0, 1), (1, 0, 2, 1), (1, 1, 1, 1)])
        cases = [  # a module dualizes to the other side, a comodule to a C*-module on its own side
            (ModulePresentation(4, h4, h4.mul, "right"), "left"),
            (ModulePresentation(4, h4, h4.mul, "left"), "right"),
            (ModulePresentation(2, None, None, "right", h4, span_g_x, "right"), "right"),
            (ModulePresentation(2, None, None, "right", h4, span_1_x, "left"), "left"),
        ]
        for m, side in cases:
            assert verify_structure(None, m).passed
            dual = dualize_structure(None, m)
            assert dual.action_side == side and verify_structure("module", dual).passed
            swapped = replace(dual, action_side="left" if side == "right" else "right")
            assert not verify_structure("module", swapped).passed, side

    def test_refusals_keep_their_messages(self):
        a = make_structure("algebra", QQ, 1, ("e",), mul=[(0, 0, 0, 1)], unit=[1])
        for kind, pres, message in (("module", a, "unknown kind 'module'"),
                                    ("hopf", catalog_get("monoid2"), "hopf presentation needs an antipode"),
                                    ("hopf", a, "hopf presentation needs an antipode"),
                                    ("coalgebra", a, "algebra needs mul and unit"),
                                    ("bialgebra", a, "bialgebra needs mul and unit")):
            with pytest.raises(PresentationError, match=f"^{message}$"):
                dualize_structure(kind, pres)

    def test_mixed_module_is_refused(self):
        with pytest.raises(PresentationError, match="^dualize one structure at a time for mixed modules$"):
            dualize_structure(None, catalog_get("hopfmod_sweedler4").as_module())


class TestMeasuringPairings:
    def test_canonical_pairing(self, qc2, h4):
        for c in (qc2, h4):
            p = canonical_pairing(c)
            assert verify_measuring_pairing(p).passed

    def test_full_dual_pairing_for_qc2(self, qc2):
        dual = dualize_structure(None, qc2)
        p = PairingPresentation(qc2, dual, Matrix.identity(QQ, 2))
        assert verify_measuring_pairing(p).passed

    def test_zero_pairing_fails_unit_axiom(self, qc2):
        p = PairingPresentation(qc2, qc2, zeros(QQ, 2, 2))
        rep = verify_measuring_pairing(p)
        assert not rep.passed and rep.axiom == "unit-counit"

    def test_harpoon_unit(self, qc2):
        p = canonical_pairing(qc2)
        unit_index = 0  # epsilon = d_e + d_g is not a basis vector; use the unit column
        eps = p.algebra.unit
        c = Matrix.basis_column(QQ, 2, 1)
        assert pairing_action(p, "left-harpoon", eps, c) == c
        assert pairing_action(p, "right-harpoon", eps, c) == c

    def test_harpoon_values(self, qc2):
        p = canonical_pairing(qc2)
        g = Matrix.basis_column(QQ, 2, 1)
        # d_g -> g = g d_g(g) = g; d_e -> g = 0
        assert pairing_action(p, "left-harpoon", 1, g) == g
        assert pairing_action(p, "left-harpoon", 0, g).is_zero()

    def test_harpoons_are_actions(self, qc2, h4):
        for c in (qc2, h4):
            p = canonical_pairing(c)
            left = harpoon_action_matrix(p, "left-harpoon")
            m = ModulePresentation(c.dim, p.algebra, left, "left")
            assert verify_structure("module", m).passed
            right = harpoon_action_matrix(p, "right-harpoon")
            m = ModulePresentation(c.dim, p.algebra, right, "right")
            assert verify_structure("module", m).passed


class TestAlphaCondition:
    def test_canonical_holds(self, qc2):
        assert check_alpha_condition(canonical_pairing(qc2)).passed

    def test_restriction_pairing(self):
        a = make_structure("algebra", QQ, 2, ("p", "q"),
                           mul=[(0, 0, 0, 1), (1, 1, 1, 1)], unit=[1, 1])
        ctil = make_structure("coalgebra", QQ, 1, ("d1",), comul=[(0, 0, 0, 1)], counit=[1])
        p = PairingPresentation(a, ctil, qq_mat([[1], [0]]))
        rep = check_alpha_condition(p)
        assert rep.passed and rep.detail("rank") == "1"

    def test_zero_pairing_fails(self, qc2):
        p = PairingPresentation(qc2, qc2, zeros(QQ, 2, 2))
        assert not check_alpha_condition(p).passed

    def test_agrees_with_direct_injectivity(self, rng):
        # rank criterion versus the kernel of alpha on scalars and on a module
        trials = 0
        for field in BOTH_FIELDS:
            for _ in range(60):
                na, nc = rng.randint(1, 4), rng.randint(1, 4)
                alg = cyclic_group_algebra(field, na) if na > 1 else trivial_bialgebra(field)
                coalg = cyclic_group_algebra(field, nc) if nc > 1 else trivial_bialgebra(field)
                pm = random_matrix(field, rng, na, nc)
                p = PairingPresentation(alg, coalg, pm)
                criterion = check_alpha_condition(p).passed
                direct = kernel(pm).dim == 0
                assert criterion == direct
                mdim = rng.randint(1, 3)
                alpha_m = kron(Matrix.identity(field, mdim), pm)
                assert criterion == (kernel(alpha_m).dim == 0)
                trials += 1
        assert trials >= 100


def projection_pairing(field):
    """A = C* x Q with the projection pairing onto the dual of qc2's coalgebra."""
    h = cyclic_group_algebra(field, 2)
    cstar = dualize_structure(None, h)
    # direct product algebra C* x k
    n = 3
    mul = []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                v = cstar.mul[k, i * 2 + j]
                if not field.is_zero(v):
                    mul.append((i, j, k, v))
    mul.append((2, 2, 2, field.one()))
    unit = list(cstar.unit.col(0)) + [field.one()]
    a = make_structure("algebra", field, n, ("u0", "u1", "t"), mul=mul, unit=unit)
    pm = Matrix.from_rows(field, [
        [field.one(), field.zero()],
        [field.zero(), field.one()],
        [field.zero(), field.zero()],
    ])
    return a, h, PairingPresentation(a, h, pm)


class TestRationalSubmodule:
    def test_full_space_for_canonical_pairing(self, qc2):
        p = canonical_pairing(qc2)
        act = harpoon_action_matrix(p, "left-harpoon")
        m = ModulePresentation(2, p.algebra, act, "left")
        rat = rational_submodule(p, m)
        assert rat.dim == 2

    def test_proper_rational_part(self):
        a = make_structure("algebra", QQ, 2, ("p", "q"),
                           mul=[(0, 0, 0, 1), (1, 1, 1, 1)], unit=[1, 1])
        ctil = make_structure("coalgebra", QQ, 1, ("d1",), comul=[(0, 0, 0, 1)], counit=[1])
        p = PairingPresentation(a, ctil, qq_mat([[1], [0]]))
        act = matrix_from_quads(QQ, "left-action", (2, 2, 2), [(0, 0, 0, 1), (1, 1, 1, 1)])
        m = ModulePresentation(2, a, act, "left")
        rat = rational_submodule(p, m)
        assert rat.dim == 1
        assert rat.subspace.basis == qq_mat([[1, 0]])

    def test_zero_module(self, qc2):
        p = canonical_pairing(qc2)
        m = ModulePresentation(0, p.algebra, Matrix(QQ, 0, 0, []), "left")
        assert rational_submodule(p, m).dim == 0

    def test_alpha_failure_raises(self, qc2):
        p = PairingPresentation(qc2, qc2, zeros(QQ, 2, 2))
        act = matrix_from_quads(QQ, "left-action", (2, 2, 2), C2_REGULAR)
        with pytest.raises(AlphaConditionError):
            rational_submodule(p, ModulePresentation(2, qc2, act, "left"))

    def test_birational_intersection(self):
        a = make_structure("algebra", QQ, 2, ("p", "q"),
                           mul=[(0, 0, 0, 1), (1, 1, 1, 1)], unit=[1, 1])
        ctil = make_structure("coalgebra", QQ, 1, ("d1",), comul=[(0, 0, 0, 1)], counit=[1])
        p = PairingPresentation(a, ctil, qq_mat([[1], [0]]))
        lact = matrix_from_quads(QQ, "left-action", (2, 2, 2), [(0, 0, 0, 1), (1, 1, 1, 1)])
        ract = matrix_from_quads(QQ, "right-action", (2, 2, 2), [(0, 0, 0, 1), (1, 1, 1, 1)])
        m = ModulePresentation(2, a, lact, "left")
        both = birational_subspace(p, m, ract)
        assert both.dim == 1 and both.basis == qq_mat([[1, 0]])
        with pytest.raises(PresentationError, match="needs m to be the left module"):
            birational_subspace(p, ModulePresentation(2, a, ract, "right"), ract)


def random_module_over(a, pairing, rng, copies=1):
    """A random left module with interesting rational part: the regular module
    of A (which mixes rational and irrational directions) twisted by a random
    change of basis."""
    field = a.field
    n = a.dim * copies
    # left regular action on A^copies
    data = [field.zero()] * (n * a.dim * n)
    for c in range(copies):
        for j in range(a.dim):
            for k in range(a.dim):
                for i in range(a.dim):
                    v = a.mul[i, j * a.dim + k]
                    if not field.is_zero(v):
                        row = c * a.dim + i
                        col = j * n + (c * a.dim + k)
                        data[row * (a.dim * n) + col] = v
    act = Matrix(field, n, a.dim * n, data)
    t = random_invertible(field, rng, n)
    tinv = None
    from entwine.exactlin import invert

    tinv = invert(t)
    twisted = t @ act @ kron(Matrix.identity(field, a.dim), tinv)
    return ModulePresentation(n, a, twisted, "left")


def submodule_presentation(m, subspace):
    """Restrict a left module to an invariant subspace, in its basis."""
    field = m.algebra.field
    k = subspace.dim
    na = m.algebra.dim
    data = [field.zero()] * (k * na * k)
    for j in range(na):
        for t in range(k):
            v = m.action @ kron(Matrix.basis_column(field, na, j),
                                subspace.basis.row_matrix(t).transpose())
            coords, _ = subspace.coordinates(v)
            assert coords is not None, "not an invariant subspace"
            for s in range(k):
                data[s * (na * k) + (j * k + t)] = coords[s, 0]
    return ModulePresentation(k, m.algebra, Matrix(field, k, na * k, data), "left")


def ambient_subspace(sub_in_coords, big):
    from entwine.exactlin import Subspace

    rows = [(sub_in_coords.basis @ big.basis).row(i) for i in range(sub_in_coords.dim)]
    return Subspace.from_spanning(big.field, big.ambient, rows)


def right_reading(m) -> ModulePresentation:
    """A left module over a commutative algebra as the right module m.a = a.m."""
    n, na = m.dim, m.algebra.dim
    return ModulePresentation(n, m.algebra, permute(m.action, (n, na, n), (0, 2, 1), 1), "right")


class TestRationalSubmoduleCore:
    """The one left-handed core agrees with the two-branch reference on left and right modules over Q and F_5."""

    @staticmethod
    def outcome(rat, p, m):
        try:
            r = rat(p, m)
        except CheckError as e:
            return e.report.summary()
        return r.subspace, r.action, r.coaction, r.side, r.criterion

    def test_agrees_with_two_branch_reference(self, rng):
        dims = []
        for field in BOTH_FIELDS:
            a, _, p = projection_pairing(field)
            h = sweedler4(field)
            q = canonical_pairing(h)
            for _ in range(6):
                left = random_module_over(a, p, rng, copies=rng.randint(1, 2))
                noise = random_matrix(field, rng, 2, 2 * a.dim)
                cases = [(p, left), (p, right_reading(left)),
                         # an action that is no module: both read it to the same result or the same failure
                         (p, ModulePresentation(2, a, noise, "left")), (p, ModulePresentation(2, a, noise, "right"))]
                # H as a right and as a left H-comodule by its comultiplication, the M leg rebased by t
                t, ident = random_invertible(field, rng, h.dim), Matrix.identity(field, h.dim)
                right_coact, left_coact = (kron(t, ident) @ h.comul @ invert(t), kron(ident, t) @ h.comul @ invert(t))
                cases += [(q, ModulePresentation(h.dim, q.algebra, module_from_coaction(q, coact, h.dim, side),
                                                 "left" if side == "right" else "right"))
                          for coact, side in ((right_coact, "right"), (left_coact, "left"))]
                for pairing, m in cases:
                    got = self.outcome(rational_submodule, pairing, m)
                    assert got == self.outcome(rational_submodule_two_branch, pairing, m), (field, m.action_side)
                    if not isinstance(got, str):
                        dims.append((m.action_side, pairing is p, got[0].dim, m.dim))
        # right modules with a proper rational part, and fully rational ones, on both sides
        assert any(side == "right" and proj and 0 < d < n for side, proj, d, n in dims)
        assert {(side, d == n) for side, proj, d, n in dims if not proj} == {("left", True), ("right", True)}


class TestRationalSubmoduleByFactors:
    """The core solved on the factors equals the one eliminated on kron(id_M, P): subspace, action, coaction, side
    and criterion, or the same failure."""

    @staticmethod
    def agree(p, m) -> tuple:
        got = TestRationalSubmoduleCore.outcome(rational_submodule, p, m)
        assert got == TestRationalSubmoduleCore.outcome(rational_submodule_by_layout, p, m), (p.algebra.field, m)
        return got

    def test_dual_module_pairings(self):
        """The two pairings the dual-module functors read, with the modules they pass, on the catalog entwined
        modules: (A, C~) for M* and (A~, C) for M_r*."""
        for name in ("hopfmod_qc2", "hopfmod_qc3", "hopfmod_f5c5", "hopfmod_sweedler4", "longmod_qc2"):
            m = catalog_get(name)
            d = dual_entwining(m.entwining)
            mr = dual_module_r(d, m).module
            for pairing, x in ((d.pairing_a_ctil(), m), (d.pairing_atil_c(), mr)):
                na = pairing.algebra.dim
                lact = dual_action_on_dual(x.action, x.dim, na, "right")
                got = self.agree(pairing, ModulePresentation(x.dim, pairing.algebra, lact, "left"))
                assert got[0].dim == x.dim, name   # a full dual: all of M* is rational

    def test_projection_pairing(self, rng):
        """im(P) is a proper part of F^dim A, so N has a row: seeded left and right modules, and actions that are
        no module, over Q and F_5."""
        dims = []
        for field in BOTH_FIELDS:
            a, _, p = projection_pairing(field)
            assert kernel(p.matrix.transpose()).dim == 1
            for _ in range(8):
                left = random_module_over(a, p, rng, copies=rng.randint(1, 2))
                noise = random_matrix(field, rng, 2, 2 * a.dim)
                for m in (left, right_reading(left), ModulePresentation(2, a, noise, "left"),
                          ModulePresentation(2, a, noise, "right")):
                    got = self.agree(p, m)
                    dims.append(got if isinstance(got, str) else (m.action_side, got[0].dim, m.dim))
        assert {side for side, d, n in (x for x in dims if not isinstance(x, str)) if 0 < d < n} == {"left", "right"}

    def test_zero_module(self, qc2):
        for p in (canonical_pairing(qc2), projection_pairing(QQ)[2]):
            for side in ("left", "right"):
                got = self.agree(p, ModulePresentation(0, p.algebra, Matrix(QQ, 0, 0, []), side))
                assert got[0].dim == 0


class TestRationalModuleLaws:
    def test_closure_laws_randomized(self, rng):
        trials = 0
        for field in BOTH_FIELDS:
            a, c, p = projection_pairing(field)
            for _ in range(55):
                m = random_module_over(a, p, rng)
                rat = rational_submodule(p, m)
                w = rat.subspace
                # (1) Rat is a submodule
                for j in range(a.dim):
                    for t in range(w.dim):
                        v = m.action @ kron(Matrix.basis_column(field, a.dim, j),
                                            w.basis.row_matrix(t).transpose())
                        assert w.contains(v)
                # (3) idempotence, computed in the subspace presentation
                inner = rational_submodule(p, ModulePresentation(
                    w.dim, a, rat.action, "left"))
                assert inner.dim == w.dim
                # (2) Rat(N) = N cap Rat(M) for a submodule N; take N = A . v
                v = random_matrix(field, rng, m.dim, 1)
                from entwine.exactlin import Subspace

                spanning = [ (m.action @ kron(Matrix.basis_column(field, a.dim, j), v)).col(0)
                             for j in range(a.dim) ]
                nsub = Subspace.from_spanning(field, m.dim, spanning)
                nmod = submodule_presentation(m, nsub)
                rat_n = rational_submodule(p, nmod)
                assert ambient_subspace(rat_n.subspace, nsub) == nsub.intersect(w)
                # (4) images of A-linear maps respect Rat: f = right mult by algebra elt
                # on the regular-type module; use the module endomorphism m -> t.m
                trials += 1
        assert trials >= 100

    def test_morphism_image_law(self, rng):
        # f(Rat(M)) inside Rat(L) for A-linear f, on randomized twists
        for field in BOTH_FIELDS:
            a, c, p = projection_pairing(field)
            for _ in range(25):
                m = random_module_over(a, p, rng)
                l = random_module_over(a, p, rng)
                f = _random_module_map(a, m, l, rng)
                rat_m = rational_submodule(p, m)
                rat_l = rational_submodule(p, l)
                for t in range(rat_m.dim):
                    v = f @ rat_m.subspace.basis.row_matrix(t).transpose()
                    assert rat_l.subspace.contains(v)


def _random_module_map(a, m, l, rng):
    """A random A-linear map M -> L, from the joint kernel of the linearity system."""
    field = a.field
    na = a.dim
    cols = []
    for t in range(l.dim * m.dim):
        unit = Matrix(field, l.dim, m.dim,
                      [field.one() if i == t else field.zero() for i in range(l.dim * m.dim)])
        diff = unit @ m.action - l.action @ kron(Matrix.identity(field, na), unit)
        cols.append(diff.data)
    system = Matrix.from_rows(field, cols).transpose()
    sols = kernel(system)
    if sols.dim == 0:
        return zeros(field, l.dim, m.dim)
    combo = [random_matrix(field, rng, 1, 1)[0, 0] for _ in range(sols.dim)]
    out = zeros(field, l.dim, m.dim)
    for c, i in zip(combo, range(sols.dim)):
        out = out + scale(Matrix(field, l.dim, m.dim, sols.basis.row(i)), c)
    return out


class TestPairingRoundtrips:
    def _random_comodule(self, c, rng, copies=1):
        field = c.field
        n = c.dim * copies
        data = [field.zero()] * (n * c.dim * n)
        for cc in range(copies):
            for k in range(c.dim):
                for i in range(c.dim):
                    for j in range(c.dim):
                        v = c.comul[i * c.dim + j, k]
                        if not field.is_zero(v):
                            row = (cc * c.dim + i) * c.dim + j
                            data[row * n + (cc * c.dim + k)] = field.add(
                                data[row * n + (cc * c.dim + k)], v)
        coact = Matrix(field, n * c.dim, n, data)
        t = random_invertible(field, rng, n)
        from entwine.exactlin import invert

        twisted = kron(t, Matrix.identity(field, c.dim)) @ coact @ invert(t)
        return ModulePresentation(n, None, None, "right", c, twisted, "right")

    def test_comodule_module_comodule(self, rng):
        trials = 0
        for field in BOTH_FIELDS:
            for cname in (2, 3):
                c = cyclic_group_algebra(field, cname)
                p = canonical_pairing(c)
                for _ in range(15):
                    m = self._random_comodule(c, rng)
                    assert verify_structure("comodule", m).passed
                    act = module_from_coaction(p, m.coaction, m.dim, "right")
                    mod = ModulePresentation(m.dim, p.algebra, act, "left")
                    assert verify_structure("module", mod).passed
                    got = coaction_from_module(p, mod)
                    assert got == m.coaction
                    trials += 1
        assert trials >= 50

    def test_module_comodule_module(self, rng):
        trials = 0
        for field in BOTH_FIELDS:
            c = cyclic_group_algebra(field, 2)
            p = canonical_pairing(c)
            for _ in range(30):
                m = self._random_comodule(c, rng)
                act = module_from_coaction(p, m.coaction, m.dim, "right")
                mod = ModulePresentation(m.dim, p.algebra, act, "left")
                coact = coaction_from_module(p, mod)
                act2 = module_from_coaction(p, coact, m.dim, "right")
                assert act2 == act
                trials += 1
        assert trials >= 50


class TestAdjointPairs:
    def test_identity_pair(self, qc2):
        p = canonical_pairing(qc2)
        rep = check_adjoint_pair(p, p, Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
        assert rep.passed

    def test_transpose_of_algebra_morphism(self):
        # xi : A -> B an algebra morphism between group algebras, theta = xi^T
        a = cyclic_group_algebra(QQ, 2)
        b = cyclic_group_algebra(QQ, 2)
        xi = Matrix.identity(QQ, 2)
        pa = PairingPresentation(a, dualize_structure(None, a), Matrix.identity(QQ, 2))
        pb = PairingPresentation(b, dualize_structure(None, b), Matrix.identity(QQ, 2))
        # adjointness <xi(a), d> = <a, theta(d)> with theta = xi transposed
        rep = check_adjoint_pair(pb, pa, xi, xi.transpose())
        assert rep.passed
        assert rep.detail("theta_coalgebra_morphism") == "True"

    def test_perturbed_theta_reported(self, qc2):
        p = canonical_pairing(qc2)
        theta = qq_mat([[1, 0], [1, 1]])
        rep = check_adjoint_pair(p, p, Matrix.identity(QQ, 2), theta)
        assert not rep.passed


class TestSparseScale:
    """A sparse algebra costs what its nonzero constants cost, not its dense tensor sizes.

    At dim 40, kron(mul, id) is 1600 x 64000: 10^8 entries, about 800 MB as
    a dense tuple of pointers.  The dense layout already passed 1 MB of
    traced peak at dim 10.
    """

    @staticmethod
    def one_constant_algebra(n):
        return make_structure("algebra", QQ, n, mul=[(0, 0, 0, 1)], unit=[1] + [0] * (n - 1))

    def test_verify_peak_memory(self):
        a = self.one_constant_algebra(40)
        tracemalloc.start()
        try:
            rep = verify_structure("algebra", a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.summary().startswith("verify_structure[algebra]: FAIL left-unit at basis (1,) ")
        assert peak < 1_000_000

    def test_emit_and_parse_peak_memory(self):
        # the dense quadruple tensor of dim 80 alone is 512,000 entries, about 4 MB of pointers
        big = self.one_constant_algebra(80)
        tracemalloc.start()
        try:
            text = emit_document(document_from_objects(QQ, {"big": big}))
            emit_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            doc = parse_document(text)
            parse_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert doc.resolved["big"].mul == big.mul
        assert emit_peak < 2_000_000 and parse_peak < 2_000_000

    @pytest.mark.parametrize("field", BOTH_FIELDS, ids=repr)
    def test_repeated_quads_add_and_cancel(self, field):
        one = field.one()
        summed = mul_from_triples(field, 2, [(0, 1, 1, one), (0, 1, 1, one), (1, 0, 0, one), (1, 0, 0, -one),
                                             (1, 1, 0, one)])
        assert summed == mul_from_triples(field, 2, [(0, 1, 1, one + one), (1, 1, 0, one)])
        with pytest.raises(PresentationError, match=r"mul index out of range: \(0, 2, 0\)"):
            mul_from_triples(field, 2, [(0, 2, 0, one)])

    def test_check_command_peak_rss(self, tmp_path):
        pytest.importorskip("resource")
        path = tmp_path / "alg40.ent"
        path.write_text(emit_document(document_from_objects(QQ, {"big": self.one_constant_algebra(40)})))
        # VmHWM belongs to the child's own address space, fresh at exec; ru_maxrss can start from the
        # high-water mark of the process that forked it, which here is the test runner
        child = ("import os, resource, sys\n"
                 "from entwine.cli import run_command\n"
                 "code, _ = run_command(['check', sys.argv[1]])\n"
                 "if os.path.exists('/proc/self/status'):\n"
                 "    with open('/proc/self/status') as fh:\n"
                 "        kb = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
                 "else:\n"
                 "    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                 "    kb = rss // 1024 if sys.platform == 'darwin' else rss\n"
                 "print(code, kb)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", child, str(path)], capture_output=True, text=True,
                              env=env, check=True, timeout=120)
        code, peak_kb = map(int, done.stdout.split())
        assert code == 1 and peak_kb / 1024 < 100
