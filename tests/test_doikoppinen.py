from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from entwine.exactlin import Matrix, QQ, PresentationError, Subspace, kron, swap_matrix
from entwine.report import CheckError
from entwine.structures import (
    compute_antipode,
    dualize_structure,
    make_structure,
    verify_structure,
)
from entwine.entwining import (
    EntwinedModulePresentation,
    build_smash,
    flip_entwining,
    verify_entwined_module,
    verify_entwining,
)
from entwine.duality import dual_entwining, dual_module_r, dual_module_upper_r
from entwine.doikoppinen import (
    AltDKStructure,
    DKStructure,
    DUAL_COEXTENSION_CLEFT,
    HCoextension,
    HExtension,
    UnsupportedDualization,
    alt_dk_entwining,
    check_cointegral,
    check_integral,
    coextension_quotient,
    coinvariants,
    dk_entwining,
    dual_dk,
    dualize_coextension,
    dualize_dk_ingredient,
    h_extension,
    koppinen_smash,
    verify_dk,
    verify_dk_compat,
    verify_dk_morphism,
)
from entwine.catalog import catalog_get, catalog_names, cyclic_group_algebra, long_dk, trivial_bialgebra

import conftest
from conftest import (
    arrow_inputs,
    coinvariant_subalgebra,
    corrupt,
    entwining_coherence,
    dual_alt_dk,
    dual_dk_morphism,
    quotient_of,
    scale,
    verify_ingredient,
    zeros,
)


@pytest.fixture(scope="module")
def qc2():
    return catalog_get("qc2")


@pytest.fixture(scope="module")
def h4():
    return catalog_get("sweedler4")


@pytest.fixture(scope="module")
def dk_qc2():
    return catalog_get("dk_qc2")


class TestCompat:
    def test_module_coalgebra_regular(self, qc2, h4):
        for h in (qc2, h4):
            assert verify_dk_compat("module-coalgebra", h, h, h.mul, "right").passed

    def test_comodule_algebra_regular(self, qc2, h4):
        for h in (qc2, h4):
            assert verify_dk_compat("comodule-algebra", h, h, h.comul, "right").passed

    def test_trivial_coaction_is_comodule_algebra(self, qc2):
        triv = trivial_bialgebra()
        coact = Matrix.identity(QQ, 2)
        assert verify_dk_compat("comodule-algebra", triv, qc2, coact, "right").passed

    def test_left_module_algebra(self, qc2):
        # f -> a = sum a_0 f(a_1) over the dual: proved by re-verification
        u = dualize_structure(None, qc2)
        from entwine.structures import coaction_to_dual_action

        act = coaction_to_dual_action(qc2.comul, 2, 2)
        assert verify_dk_compat("module-algebra", u, qc2, act, "left").passed

    def test_bad_side_rejected(self, qc2):
        with pytest.raises(PresentationError):
            verify_dk_compat("module-algebra", qc2, qc2, qc2.mul, "sideways")

    def test_left_module_coalgebra_regular(self, qc2, h4):
        # H acting on itself from the left is a left module coalgebra
        for h in (qc2, h4):
            assert verify_dk_compat("module-coalgebra", h, h, h.mul, "left").passed

    def test_left_comodule_algebra_regular(self, qc2, h4):
        # comultiplication read as a left coaction (H-part in the first factor)
        for h in (qc2, h4):
            assert verify_dk_compat("comodule-algebra", h, h, h.comul, "left").passed

    def test_left_comodule_coalgebra_grading(self, qc2):
        # mirror of the grading coaction: delta_u -> u (x) delta_u
        from entwine.catalog import grading_comodule_coalgebra
        from entwine.exactlin import swap_matrix

        dual, coact = grading_comodule_coalgebra(qc2)
        left_coact = swap_matrix(QQ, dual.dim, qc2.dim) @ coact
        assert verify_dk_compat("comodule-coalgebra", qc2, dual, left_coact, "left").passed

    def test_left_sided_failures_detected(self, qc2):
        # g . e = g and g . g = g: g(g.e) = g while (gg).e = e, so not a module
        bad = Matrix.from_rows(QQ, [
            [QQ.one(), QQ.zero(), QQ.zero(), QQ.zero()],
            [QQ.zero(), QQ.one(), QQ.one(), QQ.one()],
        ])
        rep = verify_dk_compat("module-coalgebra", qc2, qc2, bad, "left")
        assert not rep.passed

    def test_corrupted_action_fails(self, qc2):
        data = list(qc2.mul.data)
        data[0] = QQ.of(2)
        bad = Matrix(QQ, 2, 4, data)
        rep = verify_dk_compat("module-coalgebra", qc2, qc2, bad, "right")
        assert not rep.passed

    def test_structure_failure_summary(self, qc2):
        bad = Matrix(QQ, 2, 4, [QQ.add(qc2.mul.data[0], QQ.one()), *qc2.mul.data[1:]])
        assert verify_dk_compat("module-coalgebra", qc2, qc2, bad, "right").summary() == (
            "verify_dk_compat[module-coalgebra]: FAIL structure[action-associativity] at basis (0, 0, 0) "
            "lhs={0: 4} rhs={0: 2}")


def compat_base(kind: str, side: str):
    """A passing (h, x, m) for each kind and side: sweedler4 regular, translation and coaction
    bases, and the grading comodule coalgebra of qc2."""
    from entwine.catalog import grading_comodule_coalgebra, translation_module_algebra
    from entwine.structures import coaction_to_dual_action

    h4, qc2 = catalog_get("sweedler4"), catalog_get("qc2")
    if kind == "module-coalgebra":
        return h4, h4, h4.mul
    if kind == "comodule-algebra":
        return h4, h4, h4.comul
    if kind == "module-algebra" and side == "right":
        return (h4, *translation_module_algebra(h4))
    if kind == "module-algebra":
        return dualize_structure(None, h4), h4, coaction_to_dual_action(h4.comul, 4, 4)
    dual, coact = grading_comodule_coalgebra(qc2)
    return qc2, dual, coact if side == "right" else swap_matrix(QQ, 2, 2) @ coact


# (kind, side, map of x, entry bumped by +1, the first failure it gives)
COMPAT_BITES = [
    ("module-algebra", "right", "mul", (0, 0), "action-multiplicative at basis (0, 0, 1) lhs={1: 2} rhs={1: 1}"),
    ("module-algebra", "right", "unit", (0, 0),
     "action-on-unit at basis (1,) lhs={0: 1, 1: 2} rhs={0: 2, 1: 1}"),
    ("module-algebra", "left", "mul", (0, 0), "action-multiplicative at basis (3, 0, 3) lhs={0: 1} rhs={0: 2}"),
    ("module-algebra", "left", "unit", (1, 0), "action-on-unit at basis (0,) lhs={0: 1} rhs={0: 1, 1: 1}"),
    ("module-coalgebra", "right", "comul", (0, 0),
     "action-comultiplicative at basis (0, 1) lhs={5: 1} rhs={5: 2}"),
    ("module-coalgebra", "right", "counit", (0, 0), "action-counital at basis (0, 1) lhs={0: 1} rhs={0: 2}"),
    ("module-coalgebra", "left", "comul", (0, 0),
     "action-comultiplicative at basis (1, 0) lhs={5: 1} rhs={5: 2}"),
    ("module-coalgebra", "left", "counit", (0, 0), "action-counital at basis (1, 0) lhs={0: 1} rhs={0: 2}"),
    ("comodule-algebra", "right", "mul", (0, 0),
     "coaction-multiplicative at basis (0, 3) lhs={3: 1, 13: 1} rhs={3: 2, 13: 1}"),
    ("comodule-algebra", "right", "unit", (1, 0),
     "coaction-on-unit at basis (0,) lhs={0: 1, 5: 1} rhs={0: 1, 4: 1}"),
    ("comodule-algebra", "left", "mul", (0, 0),
     "coaction-multiplicative at basis (0, 2) lhs={6: 1, 8: 1} rhs={6: 1, 8: 2}"),
    ("comodule-algebra", "left", "unit", (1, 0),
     "coaction-on-unit at basis (0,) lhs={0: 1, 5: 1} rhs={0: 1, 1: 1}"),
    ("comodule-coalgebra", "right", "comul", (0, 1),
     "coaction-comultiplicative at basis (1,) lhs={1: 1, 3: 1, 5: 1} rhs={0: 1, 3: 1, 5: 1}"),
    ("comodule-coalgebra", "right", "counit", (0, 1), "coaction-counital at basis (1,) lhs={1: 1} rhs={0: 1}"),
    ("comodule-coalgebra", "left", "comul", (0, 1),
     "coaction-comultiplicative at basis (1,) lhs={4: 1, 5: 1, 6: 1} rhs={0: 1, 5: 1, 6: 1}"),
    ("comodule-coalgebra", "left", "counit", (0, 1), "coaction-counital at basis (1,) lhs={1: 1} rhs={0: 1}"),
]


class TestEveryCompatRowBites:
    """A +1 on one structure constant of x makes each verify_dk_compat row the first failure."""

    def test_every_row_is_listed(self):
        from entwine.doikoppinen import COMPAT_KINDS

        rows = {(kind, side, failure.split(" at ")[0]) for kind, side, _, _, failure in COMPAT_BITES}
        assert len(rows) == len(COMPAT_BITES) == 4 * len(COMPAT_KINDS)
        assert {kind for kind, _, _ in rows} == set(COMPAT_KINDS)

    @pytest.mark.parametrize("kind, side, name, entry, failure", COMPAT_BITES,
                             ids=[f"{k}-{s}-{f.split(' at ')[0]}" for k, s, _, _, f in COMPAT_BITES])
    def test_bump_fails_the_row(self, kind, side, name, entry, failure):
        h, x, m = compat_base(kind, side)
        assert verify_dk_compat(kind, h, x, m, side).passed
        old = getattr(x, name)
        data = list(old.data)
        i, j = entry
        data[i * old.cols + j] = QQ.add(data[i * old.cols + j], QQ.one())
        bad = replace(x, **{name: Matrix(QQ, old.rows, old.cols, data)})
        rep = verify_dk_compat(kind, h, bad, m, side)
        assert rep.summary() == f"verify_dk_compat[{kind}]: FAIL {failure}"


class TestDKEntwining:
    def test_trivial_h_gives_flip(self, qc2):
        s = long_dk(qc2, qc2)
        e = dk_entwining(s)
        assert e.psi == swap_matrix(QQ, 2, 2)

    def test_hopf_module_triples(self):
        for name in ("dk_qc2", "dk_qc3", "dk_f5c5", "dk_sweedler4"):
            s = catalog_get(name)
            assert verify_dk(s).passed
            e = dk_entwining(s)
            assert verify_entwining(e).passed

    def test_qc2_psi_formula(self, dk_qc2):
        # psi(c (x) a) = sum a_1 (x) c a_2 for the Hopf-module structure
        e = dk_entwining(dk_qc2)
        h = dk_qc2.h
        for c in range(2):
            for a in range(2):
                got = e.psi @ kron(Matrix.basis_column(QQ, 2, c), Matrix.basis_column(QQ, 2, a))
                # group algebra: a grouplike, psi(c (x) a) = a (x) ca
                prod = h.mul @ kron(Matrix.basis_column(QQ, 2, c), Matrix.basis_column(QQ, 2, a))
                want = kron(Matrix.basis_column(QQ, 2, a), prod)
                assert got == want


class TestVerifyDK:
    def test_components_then_compatibilities(self, qc2):
        """A failing component or compatibility is reported by verify_dk under its part name."""
        bad_h = replace(qc2, mul=Matrix(QQ, 2, 4, [QQ.add(qc2.mul.data[0], QQ.one()), *qc2.mul.data[1:]]))
        assert verify_dk(DKStructure(bad_h, qc2, qc2.comul, qc2, qc2.mul)).summary() == \
            "verify_dk: FAIL bialgebra[associativity] at basis (0, 0, 1) lhs={1: 2} rhs={1: 1}"
        # two orthogonal idempotents: qc2's comultiplication coacts on them but does not multiply
        idem = make_structure("algebra", QQ, 2, mul=[(0, 0, 0, 1), (1, 1, 1, 1)], unit=[1, 1])
        assert verify_dk(DKStructure(qc2, idem, qc2.comul, qc2, qc2.mul)).summary() == \
            "verify_dk: FAIL comodule-algebra[coaction-multiplicative] at basis (1, 1) lhs={3: 1} rhs={2: 1}"


class TestAltDK:
    def test_trivial_coaction_gives_flip(self, qc2):
        triv_coact = kron(Matrix.identity(QQ, 2), qc2.unit)
        alt = AltDKStructure(qc2, qc2, qc2.mul, qc2, triv_coact)
        # qc2 acting on itself by multiplication is a module algebra only if
        # the action is through the counit; use the dual translation instead
        from entwine.catalog import translation_module_algebra

        dual, action = translation_module_algebra(qc2)
        alt = AltDKStructure(qc2, dual, action, qc2, triv_coact)
        e = alt_dk_entwining(alt)
        assert e.psi == swap_matrix(QQ, 2, 2)

    def test_catalog_instance(self):
        alt = catalog_get("alt_qc2")
        assert alt.verify().passed
        e = alt_dk_entwining(alt)
        assert verify_entwining(e).passed
        # the instance is genuinely twisted
        assert e.psi != swap_matrix(QQ, 2, 2)

    def test_components_are_verified_first(self):
        alt = catalog_get("alt_qc2")
        # each perturbation breaks only a component; the report names it and keeps its witness
        cases = (
            ("h", "mul", "verify_alt_dk: FAIL bialgebra[associativity] at basis (0, 0, 1) "
                         "lhs={1: 2} rhs={1: 1}"),
            ("alg", "mul", "verify_alt_dk: FAIL algebra[left-unit] at basis (0,) lhs={0: 2} rhs={0: 1}"),
            ("coalg", "comul", "verify_alt_dk: FAIL coalgebra[coassociativity] at basis (0,) "
                               "lhs={0: 4, 3: 1, 5: 1, 6: 2} rhs={0: 4, 3: 2, 5: 1, 6: 1}"),
        )
        for part, constants, summary in cases:
            pres = getattr(alt, part)
            m = getattr(pres, constants)
            data = list(m.data)
            data[0] = QQ.add(data[0], QQ.one())
            bad = replace(alt, **{part: replace(pres, **{constants: Matrix(QQ, m.rows, m.cols, data)})})
            assert bad.verify().summary() == summary
            with pytest.raises(CheckError):
                alt_dk_entwining(bad)

    def test_a_and_c_are_verified_once(self, monkeypatch):
        """alt_dk_entwining checks A and C inside s.verify() and reads nothing after it."""
        import entwine.doikoppinen as dk
        import entwine.entwining as entwining

        alt = catalog_get("alt_qc2")
        checked = []
        for module in (dk, entwining):
            def counting(kind, pres, real=module.verify_structure):
                checked.append(kind)
                return real(kind, pres)
            monkeypatch.setattr(module, "verify_structure", counting)
        alt_dk_entwining(alt)
        assert checked.count("algebra") == checked.count("coalgebra") == 1

    def test_compatibility_failure_names_it(self, qc2):
        # qc2 acting on itself by right multiplication is a module but not a module algebra
        bad = replace(catalog_get("alt_qc2"), alg=qc2, alg_action=qc2.mul)
        assert bad.verify().summary() == \
            "verify_alt_dk: FAIL module-algebra[action-multiplicative] at basis (0, 0, 1) lhs={1: 1} rhs={0: 1}"

    def test_corrupted_coaction_fails(self):
        alt = catalog_get("alt_qc2")
        data = list(alt.coalg_coaction.data)
        data[0] = QQ.add(data[0], QQ.one())
        bad = AltDKStructure(alt.h, alt.alg, alt.alg_action, alt.coalg,
                             Matrix(QQ, 4, 2, data))
        with pytest.raises(CheckError):
            alt_dk_entwining(bad)

    def test_dualization_refused(self):
        alt = catalog_get("alt_qc2")
        with pytest.raises(UnsupportedDualization):
            dual_alt_dk(alt)


class TestKoppinen:
    def test_trivial_h_is_opposite_convolution(self, qc2):
        s = long_dk(qc2, qc2)
        smash = koppinen_smash(s, dk_entwining(s))
        flip_smash = build_smash(flip_entwining(qc2, qc2))
        assert smash.mul == flip_smash.mul

    @pytest.mark.parametrize("name", ["dk_qc2", "dk_qc3", "dk_sweedler4", "dk_long_qc2",
                                      "dk_f5c5", "dk_long_f5c5"])
    def test_tables_agree(self, name):
        s = catalog_get(name)
        smash = koppinen_smash(s, dk_entwining(s))  # raises if the tables differ
        assert smash.dim == s.alg.dim * s.coalg.dim


class TestDualizeIngredient:
    def test_regular_coaction_to_module_algebra(self, qc2, h4):
        for h in (qc2, h4):
            out = dualize_dk_ingredient("comodule-algebra", h, h, h.comul, "module-algebra")
            assert verify_ingredient(out).passed
            assert out.side == "left" and out.kind == "module-algebra"

    def test_module_coalgebra_to_comodule_algebra(self, qc2, h4):
        # C = H with the regular action; C0 = H*, all rational, coacting by the action transposed
        for h in (qc2, h4):
            out = dualize_dk_ingredient("module-coalgebra", h, h, h.mul, "comodule-algebra")
            assert verify_ingredient(out).passed
            assert out.matrix == h.mul.transpose()
            assert out.structure.labels == tuple(f"r{i}" for i in range(h.dim))

    def test_trivial_h_dualizations_identity(self):
        triv = trivial_bialgebra()
        a = catalog_get("qc2")
        coact = Matrix.identity(QQ, 2)
        out = dualize_dk_ingredient("comodule-algebra", triv, a, coact, "module-algebra")
        assert verify_ingredient(out).passed
        # the induced action of the one-dimensional dual is trivial
        assert out.matrix == Matrix.identity(QQ, 2)

    def test_a0_module(self, qc2, h4):
        from entwine.catalog import translation_module_algebra

        for h in (qc2, h4):
            dual, action = translation_module_algebra(h)
            out = dualize_dk_ingredient("module-algebra", h, dual, action, "dual-module")
            assert verify_ingredient(out).passed

    def test_comodule_coalgebra_cases(self):
        alt = catalog_get("alt_qc2")
        out = dualize_dk_ingredient("comodule-coalgebra", alt.h, alt.coalg, alt.coalg_coaction, "module-coalgebra")
        assert verify_ingredient(out).passed
        out = dualize_dk_ingredient("comodule-coalgebra", alt.h, alt.coalg, alt.coalg_coaction, "dual-module-algebra")
        assert verify_ingredient(out).passed

    def test_every_arrow_returns_a_verified_output(self, qc2):
        """The output-ingredient oracle of conftest.IMPLIED_CHECKS, on every arrow."""
        from entwine.doikoppinen import _DUAL_ARROWS

        inputs = arrow_inputs(qc2)
        assert len(_DUAL_ARROWS) == 8
        for (kind, target), (_, side) in _DUAL_ARROWS.items():
            out = dualize_dk_ingredient(kind, *inputs[kind, side], target)
            assert verify_ingredient(out).passed, (kind, target)

    def test_no_ingredient_is_verified(self, qc2, monkeypatch):
        """The arrow re-indexes its verified input: neither its output nor the C* it builds through is read."""
        import entwine.doikoppinen as dk

        read = []

        def counting(kind, h, x, m, side="right"):
            read.append(x)
            return verify_dk_compat(kind, h, x, m, side)

        monkeypatch.setattr(dk, "verify_dk_compat", counting)
        out = dualize_dk_ingredient("module-coalgebra", qc2, qc2, qc2.mul, "comodule-algebra")
        assert read == [qc2]
        assert verify_ingredient(out).passed

    def test_unknown_arrow(self, qc2):
        with pytest.raises(UnsupportedDualization):
            dualize_dk_ingredient("comodule-algebra", qc2, qc2, qc2.comul, "nonsense")


# (catalog triple, map given +1 at entry, the row, its failure): a bumped action of s fails koppinen_smash(s, e)
# for the e of the unbumped triple
DK_ROW_BITES = [
    ("dk_qc2", "coalg_action", (0, 0), "table-equality", "at basis (0, 0) lhs={0: 2} rhs={0: 1}"),
    ("dk_sweedler4", "coalg_action", (0, 0), "table-equality", "at basis (0, 0) lhs={0: 2} rhs={0: 1}"),
]


class TestDKRowsBite:
    """The row of koppinen_smash, which ties Koppinen's table to the smash table of the entwining, fails through
    (s, e)."""

    @pytest.mark.parametrize("name, attr, entry, axiom, failure", DK_ROW_BITES,
                             ids=[f"{name}-{axiom}" for name, _, _, axiom, _ in DK_ROW_BITES])
    def test_bump_fails_the_row(self, name, attr, entry, axiom, failure):
        s = catalog_get(name)
        with pytest.raises(CheckError) as exc:
            koppinen_smash(replace(s, **{attr: corrupt(getattr(s, attr), *entry)}), dk_entwining(s))
        assert exc.value.report.summary() == f"koppinen_smash: FAIL {axiom} {failure}"


class TestDualDK:
    def test_long_dimodule_dual(self, qc2):
        s = long_dk(qc2, qc2)
        dual = dual_dk(s)
        assert entwining_coherence(s).passed
        assert dual.h.dim == 1
        cstar = dualize_structure("coalgebra", qc2)
        astar = dualize_structure("algebra", qc2)
        assert dual.alg.mul == cstar.mul
        assert dual.coalg.comul == astar.comul
        # trivial (co)actions on both sides
        assert dual.alg_coaction == Matrix.identity(QQ, 2)
        assert dual.coalg_action == Matrix.identity(QQ, 2)

    @pytest.mark.parametrize("name", ["dk_qc2", "dk_qc3", "dk_sweedler4", "dk_f5c5"])
    def test_hopf_module_duals(self, name):
        s = catalog_get(name)
        assert verify_dk(dual_dk(s)).passed
        assert entwining_coherence(s).detail("entwining_coherence") == "True"

    def test_coherence_with_paragraph_two(self, dk_qc2):
        dual = dual_dk(dk_qc2)
        lhs = dk_entwining(dual).psi
        rhs = dual_entwining(dk_entwining(dk_qc2)).dual.psi
        assert lhs == rhs

    def test_coherence_row_ties_the_dual_psi_to_the_dual_entwining(self, tmp_path, monkeypatch):
        """The dual's DK psi is not run through verify_entwining, so +1 on it fails the coherence oracle; dk builds
        no psi, so it prints the identity all the same."""
        from entwine.cli import run_command

        build = dk_entwining
        monkeypatch.setattr(conftest, "dk_entwining", lambda s: replace(build(s), psi=corrupt(build(s).psi, 1, 2))
                            if s.h.labels[0].endswith("*") else build(s))
        s = catalog_get("dk_sweedler4")
        assert entwining_coherence(s).summary() == ("dual_dk: FAIL entwining-coherence at basis (0, 2) "
                                                    "lhs={1: 1, 7: 1, 8: 1} rhs={7: 1, 8: 1}")
        path = tmp_path / "dk4.ent"
        path.write_text(run_command(["catalog", "dk_sweedler4"])[1])
        code, text = run_command(["dk", str(path), "--name", "dk_sweedler4"])
        assert code == 0 and text.splitlines()[-1] == "dk_sweedler4_dual: dual_dk: PASS entwining_coherence=True"


class TestDKDualModules:
    """M -> Rat(M*) over the dual entwining of a verified triple, and back."""

    def test_hopf_module_to_dual(self, dk_qc2):
        m = catalog_get("hopfmod_qc2")
        out = dual_module_r(dual_entwining(dk_entwining(dk_qc2)), m)
        assert verify_entwined_module(out.module.entwining, out.module).passed
        assert out.dim == 2

    def test_zero_module(self, dk_qc2):
        e = dk_entwining(dk_qc2)
        z = EntwinedModulePresentation(e, 0, Matrix(QQ, 0, 0, []), Matrix(QQ, 0, 0, []))
        out = dual_module_r(dual_entwining(e), z)
        assert verify_entwined_module(out.module.entwining, out.module).passed and out.dim == 0

    def test_long_dimodule_roundtrip(self, qc2):
        s = long_dk(qc2, qc2)
        m = catalog_get("longmod_qc2")
        d = dual_entwining(dk_entwining(s))
        out = dual_module_r(d, m)
        assert verify_entwined_module(out.module.entwining, out.module).passed
        back = dual_module_upper_r(d, out.module)
        assert verify_entwined_module(back.module.entwining, back.module).passed and back.dim == m.dim

    def test_adjunction_through_dk(self, dk_qc2):
        from entwine.duality import adjunction_check

        d = dual_entwining(dk_entwining(dk_qc2))
        m = catalog_get("hopfmod_qc2")
        k = dual_module_r(d, m).module
        assert adjunction_check(d, m, k).passed


class TestCoinvariants:
    def test_regular_coaction_coinvariants_are_scalars(self, qc2, h4):
        for h in (qc2, h4):
            w = coinvariants(h, h, h.comul)
            assert w.dim == 1
            assert w.contains(h.unit)

    def test_trivial_coaction_everything(self, qc2):
        triv = trivial_bialgebra()
        w = coinvariants(triv, qc2, Matrix.identity(QQ, 2))
        assert w.dim == 2

    @staticmethod
    def _perturbed_trivial_coaction(qc2, col):
        # x -> x (x) 1, plus e_0 (x) 1 added at basis vector col: the kernel misses only col
        data = list(kron(Matrix.identity(QQ, 4), qc2.unit).data)
        data[col] += QQ.one()
        return Matrix(QQ, 8, 4, data)

    # a coaction that fails the comodule-algebra rows, which coinvariants' callers read first, so the unital
    # subalgebra checks that those rows imply are read from the conftest oracle
    def test_coinvariants_missing_unit(self, qc2, h4):
        coaction = self._perturbed_trivial_coaction(qc2, 0)
        assert not verify_dk_compat("comodule-algebra", qc2, h4, coaction, "right").passed
        assert coinvariant_subalgebra(h4, coinvariants(qc2, h4, coaction)).summary() == \
            "coinvariants: FAIL missing-unit"

    def test_coinvariants_not_a_subalgebra_at_asymmetric_pair(self, qc2, h4):
        # coinvariants span{1, g, x}: g.x = gx is the first product outside, at (1, 2)
        coaction = self._perturbed_trivial_coaction(qc2, 3)
        assert not verify_dk_compat("comodule-algebra", qc2, h4, coaction, "right").passed
        assert coinvariant_subalgebra(h4, coinvariants(qc2, h4, coaction)).summary() == \
            "coinvariants: FAIL not-a-subalgebra at basis (1, 2)"


class TestIntegrals:
    def test_identity_integral_qc2(self, qc2):
        ext = catalog_get("ext_qc2")
        rep = check_integral(ext, Matrix.identity(QQ, 2))
        assert rep.colinear.passed and rep.total and rep.cleft
        assert rep.inverse == compute_antipode(qc2)

    def test_identity_integral_h4(self, h4):
        ext = catalog_get("ext_sweedler4")
        rep = check_integral(ext, Matrix.identity(QQ, 4))
        assert rep.colinear.passed and rep.total and rep.cleft
        assert rep.inverse == compute_antipode(h4)

    def test_zero_map(self, qc2):
        ext = catalog_get("ext_qc2")
        rep = check_integral(ext, zeros(QQ, 2, 2))
        assert rep.colinear.passed
        assert not rep.total and not rep.cleft

    def test_hopf_criterion_over_catalog(self):
        # cleft for the identity integral over H itself iff the antipode exists
        for name in ("trivial", "qc2", "qc3", "f5c5", "sweedler4", "monoid2"):
            h = catalog_get(name)
            ext = h_extension(h, h, h.comul)
            rep = check_integral(ext, h.identity_matrix())
            has_antipode = compute_antipode(h) is not None
            assert rep.cleft == has_antipode


class TestCoextensions:
    def test_regular_quotient_is_one_dimensional(self, qc2, h4):
        for h, name in ((qc2, "coext_qc2"), (h4, "coext_sweedler4")):
            coext = catalog_get(name)
            assert coext.dplus.dim == h.dim - 1
            assert quotient_of(coext).coalgebra.dim == 1
            assert verify_structure("coalgebra", quotient_of(coext).coalgebra).passed

    def test_trivial_h_quotient_is_everything(self, qc2):
        triv = trivial_bialgebra()
        coext = coextension_quotient(triv, qc2, Matrix.identity(QQ, 2))
        assert coext.dplus.dim == 0
        assert quotient_of(coext).coalgebra.dim == 2

    def test_identity_cointegral(self, qc2, h4):
        for h, name in ((qc2, "coext_qc2"), (h4, "coext_sweedler4")):
            coext = catalog_get(name)
            rep = check_cointegral(coext, h.identity_matrix())
            assert rep.linear.passed and rep.total and rep.cocleft
            assert rep.inverse == compute_antipode(h)
            assert rep.twist is not None and rep.twist.passed

    def test_unit_counit_cointegral_linearity(self, qc2):
        coext = catalog_get("coext_qc2")
        omega = qc2.unit @ qc2.counit
        rep = check_cointegral(coext, omega)
        # the regular action is not trivial, so eta.eps is not H-linear
        assert not rep.linear.passed

    def test_corrupted_cointegral(self, qc2):
        coext = catalog_get("coext_qc2")
        bad = Matrix.from_rows(QQ, [[QQ.one(), QQ.one()], [QQ.zero(), QQ.zero()]])
        rep = check_cointegral(coext, bad)
        assert not rep.linear.passed
        assert rep.linear.witness is not None


class TestDerivedDataOnRead:
    """An extension's coinvariants and a coextension's W = D.H+ are built on first read, and by nothing else."""

    BUILDS = {"coinv": "coinvariants", "dplus": "image"}

    @staticmethod
    def fresh(obj):
        """obj built anew from its fields alone, so nothing derived is cached yet."""
        return type(obj)(*(getattr(obj, f.name) for f in fields(obj)))

    @pytest.fixture
    def extensions(self):
        objs = [obj for name in catalog_names() if isinstance(obj := catalog_get(name), (HExtension, HCoextension))]
        assert len(objs) == 4
        return objs

    def test_equality_hash_repr_and_replace_build_nothing(self, extensions, monkeypatch):
        from entwine import doikoppinen

        for fn in self.BUILDS.values():
            monkeypatch.setattr(doikoppinen, fn, lambda *_, fn=fn: pytest.fail(f"{fn} called"))
        for obj in extensions:
            a, b = self.fresh(obj), self.fresh(obj)
            copy = replace(a)
            assert a == b == copy == obj
            assert hash(a) == hash(b) == hash(copy) == hash(obj)
            assert repr(a) == repr(copy) == repr(obj)

    def test_first_read_builds_and_second_reads_the_cache(self, extensions, monkeypatch):
        from entwine import doikoppinen

        calls = Counter()
        for fn in self.BUILDS.values():
            build = getattr(doikoppinen, fn)
            monkeypatch.setattr(doikoppinen, fn, lambda *args, fn=fn, build=build: calls.update([fn]) or build(*args))
        for obj in extensions:
            attr = "coinv" if isinstance(obj, HExtension) else "dplus"
            obj = self.fresh(obj)
            calls.clear()
            first = getattr(obj, attr)
            assert calls == {self.BUILDS[attr]: 1}
            assert getattr(obj, attr) is first
            assert calls == {self.BUILDS[attr]: 1}


class TestDualizeCoextension:
    @pytest.mark.parametrize("name", ["coext_qc2", "coext_sweedler4"])
    def test_full_pipeline(self, name):
        coext = catalog_get(name)
        ext, rep = dualize_coextension(coext, check_cointegral(coext, coext.cointegral))
        assert rep.passed
        assert rep.detail("coinvariants_equal_quotient_dual") == "True"
        assert rep.detail("cleft") == "True"
        # the report that cocleft prints without building D*
        assert rep == DUAL_COEXTENSION_CLEFT
        # coinvariants equal the quotient dual embedded along the projection
        assert ext.coinv == Subspace.from_matrix_rows(quotient_of(coext).projection)

    def test_inverse_transposes(self):
        coext = catalog_get("coext_qc2")
        inner = check_cointegral(coext, coext.cointegral)
        ext, rep = dualize_coextension(coext, inner)
        outer = check_integral(ext, ext.integral)
        assert outer.inverse == inner.inverse.transpose()

    def test_trivial_h(self, qc2):
        triv = make_structure("hopf", QQ, 1, ("1",), mul=[(0, 0, 0, 1)], unit=[1],
                              comul=[(0, 0, 0, 1)], counit=[1],
                              antipode=Matrix.identity(QQ, 1))
        coext = coextension_quotient(triv, qc2, Matrix.identity(QQ, 2),
                                     cointegral=qc2.counit)
        ext, rep = dualize_coextension(coext, check_cointegral(coext, coext.cointegral))
        assert rep.passed
        assert ext.coinv.dim == 2  # trivial coaction: everything coinvariant

    def test_needs_hopf(self, qc2):
        m2 = catalog_get("monoid2")
        coext = coextension_quotient(m2, m2, m2.mul)
        with pytest.raises(PresentationError):
            dualize_coextension(coext, None)

    @pytest.mark.parametrize("name", ["coext_qc2", "coext_sweedler4"])
    def test_a_failing_cointegral_is_read_off_inner(self, name):
        """omega^T is not read: an omega that is not H-linear or not total fails the dual through inner's report,
        and one that is not invertible gives a total integral and no cleft detail."""
        coext = catalog_get(name)
        h, omega = coext.h, coext.cointegral
        x = Matrix.column(QQ, [Fraction(1, 2), Fraction(1, 2)] + [0] * (h.dim - 2))   # idempotent, counit 1
        for bad, summary in (
                (corrupt(omega, 0, 1), "FAIL cointegral[h-linearity] at basis (0, 1) lhs={0: 1, 1: 1} rhs={1: 1}"),
                (scale(omega, 2), "FAIL cointegral-not-total"),
                (h.mul @ kron(x, omega), "PASS coinvariants_equal_quotient_dual=True")):
            c = replace(coext, cointegral=bad)
            ext, rep = dualize_coextension(c, check_cointegral(c, bad))
            assert rep.summary() == f"dualize_coextension: {summary}"
            assert (ext.integral is not None) == rep.passed

    def test_cocleft_implies_cleft_over_catalog(self):
        for name in ("coext_qc2", "coext_sweedler4"):
            coext = catalog_get(name)
            inner = check_cointegral(coext, coext.cointegral)
            if inner.cocleft:
                ext, rep = dualize_coextension(coext, inner)
                outer = check_integral(ext, ext.integral)
                assert outer.cleft


def long_dimodule(a, c, action, coaction) -> EntwinedModulePresentation:
    """A Long dimodule, rho(m a) = sum m_0 a (x) m_1, is by definition an entwined module over the flip."""
    flip = flip_entwining(a, c)
    return EntwinedModulePresentation(flip, action.rows, action, coaction)


class TestLongDimodules:
    """Long dimodules are read by verify_entwined_module over flip_entwining(a, c)."""

    def test_free_dimodule(self, qc2):
        m = catalog_get("longmod_qc2")
        x = long_dimodule(qc2, qc2, m.action, m.coaction)
        assert verify_entwined_module(x.entwining, x).passed

    def test_flip_identification(self, qc2):
        """The catalog's free Long dimodule lives on the flip entwining of qc2 with itself."""
        m = catalog_get("longmod_qc2")
        assert m.entwining.psi == flip_entwining(qc2, qc2).psi
        assert verify_entwined_module(m.entwining, m).passed

    def test_corrupted_action(self, qc2):
        m = catalog_get("longmod_qc2")
        x = long_dimodule(qc2, qc2, m.action, corrupt(m.coaction, 0, 0))
        assert verify_entwined_module(x.entwining, x).summary() == (
            "verify_entwined_module: FAIL coaction[coaction-coassociativity] at basis (0,) lhs={0: 4} rhs={0: 2}")

    def test_failing_module_is_a_component_row(self, qc2):
        m = catalog_get("longmod_qc2")
        x = long_dimodule(qc2, qc2, corrupt(m.action, 0, 0), m.coaction)
        assert verify_entwined_module(x.entwining, x).summary() == (
            "verify_entwined_module: FAIL action[action-associativity] at basis (0, 0, 0) lhs={0: 4} rhs={0: 2}")

    def test_hopf_module_is_no_long_dimodule(self, qc2):
        """The regular Hopf module of qc2 is a module and a comodule, but rho(g g) != g g (x) g."""
        m = catalog_get("hopfmod_qc2")
        x = long_dimodule(qc2, qc2, m.action, m.coaction)
        assert verify_entwined_module(x.entwining, x).summary() == (
            "verify_entwined_module: FAIL psi-compatibility at basis (0, 1) lhs={3: 1} rhs={2: 1}")

    def test_passing_summary(self, qc2):
        m = catalog_get("longmod_qc2")
        x = long_dimodule(qc2, qc2, m.action, m.coaction)
        assert verify_entwined_module(x.entwining, x).summary() == "verify_entwined_module: PASS"


class TestDKMorphisms:
    def test_identity_triple(self, dk_qc2):
        i2 = Matrix.identity(QQ, 2)
        assert verify_dk_morphism(dk_qc2, dk_qc2, i2, i2, i2).passed
        assert dual_dk_morphism(dk_qc2, dk_qc2, i2, i2, i2).passed

    def test_hopf_automorphism(self, dk_qc2, qc2):
        s = qc2.antipode  # identity twisted by group inversion
        assert verify_dk_morphism(dk_qc2, dk_qc2, s, s, s).passed
        assert dual_dk_morphism(dk_qc2, dk_qc2, s, s, s).passed

    def test_bad_gamma_attributed(self, dk_qc2):
        i2 = Matrix.identity(QQ, 2)
        bad = Matrix.from_rows(QQ, [[QQ.one(), QQ.one()], [QQ.zero(), QQ.one()]])
        rep = verify_dk_morphism(dk_qc2, dk_qc2, i2, bad, i2)
        assert not rep.passed
        assert rep.axiom.startswith("gamma[")

    def test_failure_summaries(self, dk_qc2):
        """beta, gamma, delta, then the intertwining of the two psis; eps sends both basis elements to e."""
        i2 = Matrix.identity(QQ, 2)
        shear = Matrix.from_rows(QQ, [[QQ.one(), QQ.one()], [QQ.zero(), QQ.one()]])
        eps = Matrix.from_rows(QQ, [[QQ.one(), QQ.one()], [QQ.zero(), QQ.zero()]])
        cases = (
            ((shear, i2, i2), "beta[multiplicative] at basis (1, 1) lhs={0: 1} rhs={0: 2, 1: 2}"),
            ((i2, shear, i2), "gamma[multiplicative] at basis (1, 1) lhs={0: 1} rhs={0: 2, 1: 2}"),
            ((i2, i2, shear), "delta[comultiplicative] at basis (1,) lhs={0: 1, 3: 1} rhs={0: 1, 1: 1, 2: 1, 3: 1}"),
            ((i2, i2, eps), "intertwining at basis (0, 1) lhs={2: 1} rhs={3: 1}"),
        )
        for maps, failure in cases:
            rep = verify_dk_morphism(dk_qc2, dk_qc2, *maps)
            assert rep.summary() == f"verify_dk_morphism: FAIL {failure}"
