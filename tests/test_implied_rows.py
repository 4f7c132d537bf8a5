"""Checks that src does not read, because the laws its inputs have passed imply them.

Each such check lives in conftest as an oracle (IMPLIED_CHECKS names
them with their theorems).  Here every oracle is read on every catalog
object of its kind and must pass, and a perturbation that src never lets
through shows that each one can still fail.  The coverage test reads every
law of every catalog object through the src paths that reach it, and
asserts that each law name is pinned by a bite table or is an implied check.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from entwine import report
from entwine.catalog import catalog_get, catalog_names, cyclic_group_algebra, sweedler4
from entwine.doikoppinen import (
    _DUAL_ARROWS,
    AltDKStructure,
    DKStructure,
    HCoextension,
    HExtension,
    alt_dk_entwining,
    check_cointegral,
    check_integral,
    coextension_quotient,
    dk_entwining,
    dual_dk,
    dualize_coextension,
    h_extension,
    koppinen_smash,
    module_coalgebra_to_comodule_algebra,
    module_coalgebra_to_dual_module_algebra,
    verify_dk,
    verify_dk_compat,
    verify_dk_morphism,
)
from entwine.duality import adjunction_check, dual_entwining, dual_module_r, dual_module_upper_r
from entwine.entwining import (
    EntwinedModulePresentation,
    EntwiningPresentation,
    build_coring,
    build_smash,
    entwined_to_smash_module,
    hom_entwined,
    nu_iso,
    smash_module_to_entwined,
    verify_entwined_module,
    verify_entwining,
    verify_entwining_morphism,
)
from entwine.exactlin import Field, Matrix, PresentationError, QQ, kron
from entwine.report import first_failure
from entwine.structures import (
    StructurePresentation,
    algebra_morphism_report,
    bialgebra_morphism_report,
    canonical_pairing,
    check_adjoint_pair,
    coalgebra_morphism_report,
    compute_antipode,
    convolution,
    convolution_inverse,
    convolution_unit,
    make_structure,
    verify_measuring_pairing,
    verify_structure,
)
from conftest import (
    IMPLIED_CHECKS,
    INNER_ARROWS,
    antipode_bijective,
    antipode_right_rows,
    arrow_inputs,
    coinvariant_subalgebra,
    coinvariants_match,
    coring_laws,
    corrupt,
    dual_entwining_rows,
    dual_integral,
    dual_morphism_transpose,
    dplus_closure,
    entwining_coherence,
    inner_ingredient,
    left_inverse_rows,
    module_output,
    nu_implied_rows,
    nu_laws,
    psi_laws,
    quotient_of,
    quotient_rows,
    random_matrix,
    rational_route,
    scale,
    smash_laws,
    verify_coring,
    verify_ingredient,
    verify_smash,
    zeros,
)
from test_doikoppinen import COMPAT_BITES, DK_ROW_BITES
from test_entwining import ENTWINED_MODULE_BITES, ENTWINING_BITES, NU_ROW_MUTATIONS, ROW_MUTATIONS
from test_law_rows import BIALGEBRA_ROW_BITES, FIRST_UNREACHED_ROW_BITES, MORPHISM_ROW_BITES, PAIRING_ROW_BITES
from test_structures import HOPF_BITES


def catalog_of(cls) -> dict:
    return {name: obj for name in catalog_names() if isinstance(obj := catalog_get(name), cls)}


def dual_extension(coext: HCoextension) -> HExtension:
    return dualize_coextension(coext, check_cointegral(coext, coext.cointegral))[0]


def module_coalgebras() -> dict:
    """(H, C, action) of every catalog right module coalgebra: the C of each triple and the D of each coextension."""
    out = {name: (s.h, s.coalg, s.coalg_action) for name, s in catalog_of(DKStructure).items()}
    out.update({name: (c.h, c.d, c.action) for name, c in catalog_of(HCoextension).items()})
    return out


def bump(m: Matrix, rng: random.Random) -> Matrix:
    """m with +1 at an entry that rng picks."""
    return corrupt(m, rng.randrange(m.rows), rng.randrange(m.cols))


def bump_part(obj, part: str, attr: str | None, rng: random.Random):
    """obj with +1 at an entry of its map obj.part, or of obj.part.attr, that rng picks."""
    if attr is None:
        return replace(obj, **{part: bump(getattr(obj, part), rng)})
    x = getattr(obj, part)
    return replace(obj, **{part: replace(x, **{attr: bump(getattr(x, attr), rng)})})


# the structure maps of an entwining, as (part, attr) for bump_part
ENTWINING_MAPS = (("algebra", "mul"), ("algebra", "unit"), ("coalgebra", "comul"), ("coalgebra", "counit"),
                  ("psi", None))


def entwining_oracles(e) -> dict:
    """The smash, coring and nu oracles on what build_smash, build_coring and nu_iso build from e, by name."""
    coring = build_coring(e)
    iso = nu_iso(coring)
    return {"smash": verify_smash(build_smash(e)), "coring": verify_coring(coring),
            "nu": first_failure("nu_iso", nu_laws(coring, iso.smash, iso.nu))}


class TestImpliedChecksHold:
    """Every oracle passes on every catalog object of its kind."""

    def test_smash_coring_and_nu(self):
        """Every catalog entwining, and the entwining of every catalog DK and alternative datum."""
        entwinings = list(catalog_of(EntwiningPresentation).values())
        entwinings += [dk_entwining(s) for s in catalog_of(DKStructure).values()]
        entwinings += [alt_dk_entwining(s) for s in catalog_of(AltDKStructure).values()]
        assert len(entwinings) == 18
        for e in entwinings:
            assert all(rep.passed for rep in entwining_oracles(e).values())
        e = entwinings[0]
        iso = nu_iso(build_coring(e))
        rows = [("verify_smash", smash_laws(iso.smash)), ("verify_coring", coring_laws(iso.coring)),
                ("nu_iso", nu_laws(iso.coring, iso.smash, iso.nu))]
        named = {f"{op}[{row[0]}]" for op, laws in rows for row in laws}
        assert len(named) == 28 and named <= set(IMPLIED_CHECKS)

    def test_antipode_right(self):
        hopf = {name: h for name, h in catalog_of(StructurePresentation).items() if h.kind == "hopf"}
        assert len(hopf) == 7
        for name, h in hopf.items():
            assert first_failure("verify_structure[hopf]", antipode_right_rows(h)).passed, name

    def test_nu_rows(self):
        entwinings = catalog_of(EntwiningPresentation)
        assert len(entwinings) == 11
        for name, e in entwinings.items():
            iso = nu_iso(build_coring(e))
            assert first_failure("nu_iso", nu_implied_rows(iso.coring, iso.smash, iso.nu, iso.nu_inv)).passed, name

    def test_quotient_and_projection(self):
        coextensions = catalog_of(HCoextension)
        assert len(coextensions) == 2
        for name, coext in coextensions.items():
            assert first_failure("coextension_quotient", quotient_rows(coext)).passed, name

    def test_dplus_is_an_h_stable_coideal(self):
        """W = D.H+ of every catalog right module coalgebra: the C of each triple and the D of each coextension."""
        coalgebras = module_coalgebras()
        assert len(coalgebras) == 8
        for name, (h, d, action) in coalgebras.items():
            assert dplus_closure(h, d, action).passed, name

    def test_antipode_is_bijective(self):
        """Every catalog Hopf algebra, which includes the H of each catalog coextension."""
        hopf = {name: h for name, h in catalog_of(StructurePresentation).items() if h.kind == "hopf"}
        assert len(hopf) == 7
        assert {c.h.kind for c in catalog_of(HCoextension).values()} == {"hopf"}
        for name, h in hopf.items():
            assert antipode_bijective(h).passed, name

    def test_coinvariants_are_a_unital_subalgebra(self):
        # both callers of coinvariants: h_extension, and dualize_coextension
        extensions = [*catalog_of(HExtension).values(), *map(dual_extension, catalog_of(HCoextension).values())]
        assert len(extensions) == 4
        for ext in extensions:
            assert coinvariant_subalgebra(ext.b, ext.coinv).passed

    def test_inner_ingredient(self):
        inputs = [("module-coalgebra", s.h, s.coalg, s.coalg_action) for s in catalog_of(DKStructure).values()]
        inputs += [("module-coalgebra", c.h, c.d, c.action) for c in catalog_of(HCoextension).values()]
        inputs += [("comodule-coalgebra", s.h, s.coalg, s.coalg_coaction) for s in catalog_of(AltDKStructure).values()]
        assert len(inputs) == 9
        for kind, h, x, m in inputs:
            assert inner_ingredient(kind, h, x, m).passed, (kind, x.labels)

    def test_left_inverse(self):
        pairs = []   # (C, A, f) for every caller of convolution_inverse
        for h in catalog_of(StructurePresentation).values():
            if h.kind in ("bialgebra", "hopf"):
                pairs.append((h, h, h.identity_matrix()))
        pairs += [(ext.h, ext.b, ext.integral) for ext in catalog_of(HExtension).values()]
        pairs += [(coext.d, coext.h, coext.cointegral) for coext in catalog_of(HCoextension).values()]
        pairs += [(ext.h, ext.b, ext.integral) for ext in map(dual_extension, catalog_of(HCoextension).values())]
        inverses = [(c, a, f, convolution_inverse(c, a, f)) for c, a, f in pairs]
        assert sum(g is not None for *_, g in inverses) == 14 and len(inverses) == 15
        for c, a, f, g in inverses:
            if g is not None:
                assert first_failure("convolution_inverse", left_inverse_rows(c, a, f, g)).passed

    def test_rational_part_is_everything(self):
        """The elimination route of conftest gives the arrow's coaction, algebra and labels, with W all of C*."""
        coalgebras = module_coalgebras()
        assert len(coalgebras) == 8
        for name, (h, c, action) in coalgebras.items():
            inner = module_coalgebra_to_dual_module_algebra(h, c, action)
            w, algebra, coaction = rational_route(h, inner.structure, inner.matrix)
            out = module_coalgebra_to_comodule_algebra(h, c, action)
            assert w.dim == c.dim, name
            assert (out.structure, out.matrix) == (algebra, coaction), name
            assert out.matrix == action.transpose(), name

    def test_dual_triple(self):
        triples = catalog_of(DKStructure)
        assert len(triples) == 6
        for name, s in triples.items():
            assert verify_dk(dual_dk(s)).passed, name

    def test_entwining_coherence(self):
        """The DK psi of the dual of every catalog triple is psi transposed, as dk and dualize print."""
        triples = catalog_of(DKStructure)
        assert len(triples) == 6
        for name, s in triples.items():
            assert entwining_coherence(s).summary() == "dual_dk: PASS entwining_coherence=True", name

    def test_coinvariants_are_the_quotient_dual(self):
        coextensions = catalog_of(HCoextension)
        assert len(coextensions) == 2
        for name, coext in coextensions.items():
            assert coinvariants_match(coext).passed, name

    def test_dual_entwining_psi(self):
        entwinings = catalog_of(EntwiningPresentation)
        assert len(entwinings) == 11
        for name, e in entwinings.items():
            assert dual_entwining(e).dual.psi == e.psi.transpose(), name

    def test_dual_coextension_rows(self):
        for name, coext in catalog_of(HCoextension).items():
            ext = dual_extension(coext)
            assert verify_dk_compat("comodule-algebra", ext.h, ext.b, ext.coaction, "right").passed, name

    def test_dual_integral(self):
        """omega^T is a colinear, total, cleft integral on every catalog coextension, with inverse inner's, transposed."""
        coextensions = catalog_of(HCoextension)
        assert len(coextensions) == 2
        for name, coext in coextensions.items():
            inner = check_cointegral(coext, coext.cointegral)
            outer = dual_integral(coext, inner)
            assert inner.passed and outer.passed, name
            assert outer.inverse == inner.inverse.transpose(), name

    def test_dual_entwining(self):
        entwinings = catalog_of(EntwiningPresentation)
        assert len(entwinings) == 11
        for name, e in entwinings.items():
            assert first_failure("dual_entwining", dual_entwining_rows(dual_entwining(e))).passed, name

    def test_dk_psi_laws(self):
        entwinings = [dk_entwining(s) for s in catalog_of(DKStructure).values()]
        entwinings += [alt_dk_entwining(s) for s in catalog_of(AltDKStructure).values()]
        assert len(entwinings) == 7
        for e in entwinings:
            assert psi_laws(e).passed

    def test_dual_modules(self):
        modules = catalog_of(EntwinedModulePresentation)
        assert len(modules) == 5
        for name, m in modules.items():
            d = dual_entwining(m.entwining)
            k = dual_module_r(d, m).module
            assert module_output(k).passed, name
            assert module_output(dual_module_upper_r(d, k).module).passed, name

    def test_smash_modules(self):
        for name, m in catalog_of(EntwinedModulePresentation).items():
            e = m.entwining
            assert module_output(smash_module_to_entwined(e, entwined_to_smash_module(e, m))).passed, name

    def test_dual_morphism_transpose(self):
        """The identity of every catalog entwining, and the inclusion of a proper dual pair of flip_qc3 in the full."""
        for name, e in catalog_of(EntwiningPresentation).items():
            d = dual_entwining(e)
            assert dual_morphism_transpose(d, d, e.algebra.identity_matrix(), e.coalgebra.identity_matrix()).passed
        e = catalog_get("flip_qc3")
        small = dual_entwining(e, atil_basis=Matrix.from_rows(QQ, [[1, 1, 1], [1, 0, 0]]))
        i3 = Matrix.identity(QQ, 3)
        assert dual_morphism_transpose(dual_entwining(e), small, i3, i3).passed


class TestImpliedChecksBite:
    """Each oracle fails on an input that src does not let through, so reading it is not vacuous.

    antipode-right, nu-inv-nu, nu-right-linear and the projection rows keep
    their pinned row-level bites in FIRST_UNREACHED_ROW_BITES,
    NU_ROW_MUTATIONS and PROJECTION_ROW_BITES, read through the oracle.
    """

    def test_quotient(self):
        """A +1 on the quotient's comultiplication or action of coext_sweedler4 (a quotient of dim 1)."""
        coext = catalog_get("coext_sweedler4")
        q = quotient_of(coext)
        for bad, failure in (
                (replace(q, coalgebra=replace(q.coalgebra, comul=corrupt(q.coalgebra.comul, 0, 0))),
                 "quotient-coalgebra[left-counit] at basis (0,) lhs={0: 2} rhs={0: 1}"),
                (replace(q, action=corrupt(q.action, 0, 0)),
                 "quotient-module-coalgebra[structure[action-associativity]] "
                 "at basis (0, 0, 0) lhs={0: 4} rhs={0: 2}")):
            assert first_failure("coextension_quotient", quotient_rows(coext, bad)).summary() == \
                f"coextension_quotient: FAIL {failure}"

    def test_dplus_closure(self):
        """+1 bumps of coext_qc2 fail each closure check of W = D.H+; coextension_quotient refuses each of them at D's
        coalgebra rows or at its module-coalgebra rows, which it reads first."""
        coext = catalog_get("coext_qc2")
        h, d, action = coext.h, coext.d, coext.action
        for d_bad, action_bad, failure in (
                (d, corrupt(action, 0, 0), "counit-not-vanishing at basis (0,)"),
                (replace(d, comul=corrupt(d.comul, 0, 0)), action, "not-a-coideal at basis (0,)"),
                (d, corrupt(corrupt(action, 0, 0), 0, 1), "not-h-stable at basis (0, 0)")):
            assert dplus_closure(h, d_bad, action_bad).summary() == f"coextension_quotient: FAIL {failure}"
            with pytest.raises(report.CheckError) as refused:
                coextension_quotient(h, d_bad, action_bad)
            rep = refused.value.report
            assert rep.op == "verify_dk_compat[module-coalgebra]" or rep.axiom.startswith("coalgebra["), rep.summary()

    def test_antipode_bijective(self):
        """The zero map as the antipode of qc2 does not invert; coextension_quotient refuses it at antipode-left."""
        h = catalog_get("qc2")
        bad = replace(h, antipode=zeros(QQ, 2, 2))
        assert antipode_bijective(bad).summary() == "dualize_coextension: FAIL antipode-not-bijective"
        with pytest.raises(report.CheckError) as refused:
            coextension_quotient(bad, bad, bad.mul)
        assert refused.value.report.axiom == "bialgebra[antipode-left]"

    def test_left_inverse(self):
        """A non-associative A on 1, x, y with x y = 1 and y x = 0: x has a right inverse that is not a left one."""
        point = make_structure("coalgebra", QQ, 1, comul=[(0, 0, 0, 1)], counit=[1])   # Hom(point, A) is A
        a = make_structure("algebra", QQ, 3, mul=[(0, j, j, 1) for j in range(3)] + [(1, 0, 1, 1), (2, 0, 2, 1),
                                                                                   (1, 2, 0, 1)], unit=[1, 0, 0])
        assert verify_structure(None, a).summary().startswith("verify_structure[algebra]: FAIL associativity")
        x = Matrix.column(QQ, [0, 1, 0])
        g = convolution_inverse(point, a, x)
        assert convolution(point, a, x, g) == convolution_unit(point, a)
        assert first_failure("convolution_inverse", left_inverse_rows(point, a, x, g)).summary() == \
            "convolution_inverse: FAIL left-inverse at basis (0,) lhs={} rhs={0: 1}"

    def test_dual_triple_fails_with_the_triple(self):
        """Seeded +1 bumps of each triple's maps fail the dual that dual_dk builds exactly when they fail the triple."""
        rng = random.Random("dual triple")
        verdicts = []
        for name, s in catalog_of(DKStructure).items():
            for part, attr in (("h", "mul"), ("h", "comul"), ("alg", "mul"), ("coalg", "comul"),
                               ("alg_coaction", None), ("coalg_action", None)):
                for _ in range(8):
                    bad = bump_part(s, part, attr, rng)
                    given = verify_dk(bad).passed
                    assert verify_dk(dual_dk(bad)).passed == given, (name, part, attr)
                    verdicts.append(given)
        assert len(verdicts) == 288 and 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("name", ["dk_qc2", "dk_sweedler4"])
    def test_entwining_coherence_bites(self, name):
        """A +1 on psi of the entwining the dual is compared with fails the coherence oracle."""
        s = catalog_get(name)
        e = dk_entwining(s)
        assert entwining_coherence(s, replace(e, psi=corrupt(e.psi, 0, 0))).summary() == \
            "dual_dk: FAIL entwining-coherence at basis (0, 0) lhs={0: 1} rhs={0: 2}"

    def test_dk_identities_hold_with_any_maps(self):
        """Both identities that dk prints hold on seeded +1 bumps of every catalog triple, and on random triples whose
        algebra, coalgebra, coaction and action are random matrices (F_5, F_7 and Q; H = C_2, C_3 or sweedler4; dim A
        and dim C from 1 to 3): entwining coherence, and Koppinen's table and unit against the smash ring's."""
        rng = random.Random("dk identities")
        triples = [bump_part(s, part, attr, rng) for s in catalog_of(DKStructure).values()
                   for part, attr in (("alg", "mul"), ("coalg", "comul"), ("alg_coaction", None),
                                      ("coalg_action", None)) for _ in range(4)]
        for f in (Field(5), Field(7), QQ):
            for h in (cyclic_group_algebra(f, 2), cyclic_group_algebra(f, 3), sweedler4(f)):
                for na in (1, 2, 3):
                    for nc in (1, 2, 3):
                        a = make_structure("algebra", f, na, mul=random_matrix(f, rng, na, na * na),
                                           unit=random_matrix(f, rng, na, 1))
                        c = make_structure("coalgebra", f, nc, comul=random_matrix(f, rng, nc * nc, nc),
                                           counit=random_matrix(f, rng, 1, nc))
                        triples.append(DKStructure(h, a, random_matrix(f, rng, na * h.dim, na), c,
                                                   random_matrix(f, rng, nc, nc * h.dim)))
        verdicts = []
        for s in triples:
            assert entwining_coherence(s).passed
            koppinen_smash(s, dk_entwining(s))   # raises CheckError if the table or the unit differs
            verdicts.append(verify_dk(s).passed)
        assert len(verdicts) == 96 + 81 and sum(verdicts) < len(verdicts) // 2

    def test_coinvariants_bite(self):
        """The zero action on D = qc2: d.1 = 0, so no functional but 0 is coinvariant, while W = 0."""
        coext = catalog_get("coext_qc2")
        bad = HCoextension(coext.h, coext.d, zeros(QQ, coext.action.rows, coext.action.cols))
        assert coinvariants_match(bad).summary() == \
            "dualize_coextension: FAIL coinvariants-mismatch lhs=[] rhs=[1, 0; 0, 1]"

    def test_coinvariants_hold_with_the_action_unit_law(self):
        """Seeded pairs of +1 bumps of the action of each catalog coextension: the coinvariants of D* over H* are the
        quotient dual whenever d.1 = d still holds, and some bumps that break that law break them too."""
        rng = random.Random("coinvariants bumps")
        verdicts = []
        for name, coext in catalog_of(HCoextension).items():
            h, d = coext.h, coext.d
            for _ in range(24):
                bad = HCoextension(h, d, bump(bump(coext.action, rng), rng), coext.cointegral)
                unit_law = bad.action @ kron(d.identity_matrix(), h.unit) == d.identity_matrix()
                got = coinvariants_match(bad).passed
                assert got or not unit_law, name
                verdicts.append((unit_law, got))
        assert len(verdicts) == 48 and {(True, True), (False, False)} <= set(verdicts)

    def test_coinvariants_need_only_the_action_unit_law(self):
        """Random actions of H on random coalgebras D (F_5 and Q; H = C_2, C_3 or sweedler4; dim D from 1 to 3):
        with d.1 = d imposed, the coinvariants of D* are the quotient dual every time; left free, some are not."""
        rng = random.Random("coinvariants random")
        mismatches = {True: 0, False: 0}   # d.1 = d imposed -> actions whose coinvariants differ
        for f in (Field(5), QQ):
            for h in (cyclic_group_algebra(f, 2), cyclic_group_algebra(f, 3), sweedler4(f)):
                one = h.unit.col(0).index(f.one())   # 1_H is a basis vector
                assert h.unit == Matrix.basis_column(f, h.dim, one)
                for nd in (1, 2, 3):
                    d = make_structure("coalgebra", f, nd, comul=random_matrix(f, rng, nd * nd, nd),
                                       counit=random_matrix(f, rng, 1, nd))
                    for imposed in (True, False):
                        for _ in range(6):
                            rows = [list(random_matrix(f, rng, 1, nd * h.dim).row(0)) for _ in range(nd)]
                            if imposed:
                                for i in range(nd):
                                    for r in range(nd):
                                        rows[r][i * h.dim + one] = f.one() if r == i else f.zero()
                            coext = HCoextension(h, d, Matrix.from_rows(f, rows))
                            mismatches[imposed] += not coinvariants_match(coext).passed
        assert mismatches[True] == 0 and mismatches[False] > 0

    @pytest.mark.parametrize("name", ["qc2", "qc3", "sweedler4"])
    def test_output_fails_with_the_input(self, name):
        """Seeded +1 bumps of h, x or m fail each arrow's output exactly when they fail its input."""
        inputs = arrow_inputs(catalog_get(name))
        verdicts = []
        for (kind, target), (arrow, side) in _DUAL_ARROWS.items():
            if (kind, side) not in inputs:
                continue
            h, x, m = inputs[kind, side]
            rng = random.Random(f"{name}: {kind} -> {target}")
            maps = [(h, a) for a in ("mul", "comul")] + [(x, a) for a in ("mul", "comul") if getattr(x, a) is not None]
            for _ in range(16):
                pres, attr = rng.choice(maps + [(None, None)])
                args = [h, x, bump(m, rng) if pres is None else m]
                if pres is not None:
                    args[0 if pres is h else 1] = replace(pres, **{attr: bump(getattr(pres, attr), rng)})
                given = verify_dk_compat(kind, *args, side).passed
                assert verify_ingredient(arrow(*args)).passed == given, (kind, target, attr)
                verdicts.append(given)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_dual_integral_fails_with_the_cointegral(self):
        """Seeded +1 bumps of omega or of the action, and omega scaled by 2, zero or x omega for the idempotent
        x = (1 + g)/2 (H-linear and total, not invertible): omega^T passes check_integral exactly when omega passes
        check_cointegral, each verdict is the transposed one, and the inverse of omega^T is inner's, transposed."""
        rng = random.Random("dual integral")
        verdicts = []
        for name, coext in catalog_of(HCoextension).items():
            h, omega = coext.h, coext.cointegral
            x = Matrix.column(QQ, [Fraction(1, 2), Fraction(1, 2)] + [0] * (h.dim - 2))
            bumped = [bump_part(coext, part, None, rng) for part in ("cointegral", "action") for _ in range(24)]
            bumped += [replace(coext, cointegral=m) for m in (scale(omega, 2), zeros(QQ, h.dim, coext.d.dim),
                                                              h.mul @ kron(x, omega))]
            for bad in bumped:
                inner = check_cointegral(bad, bad.cointegral)
                outer = dual_integral(bad, inner)
                assert outer.passed == inner.passed, name
                assert (outer.colinear.passed, outer.total, outer.cleft) == \
                    (inner.linear.passed, inner.total, inner.cocleft), name
                assert outer.inverse == (None if inner.inverse is None else inner.inverse.transpose()), name
                verdicts.append((inner.linear.passed, inner.total, inner.cocleft))
        assert len(verdicts) == 102
        assert {(False, True, True), (True, False, True), (True, False, False), (True, True, False)} <= set(verdicts)

    def test_smash_coring_and_nu_hold_with_the_entwining(self):
        """Seeded +1 bumps of psi, A's mul and C's comul: wherever the entwining passes verify_entwining, the smash,
        coring and nu oracles pass on what the constructions build.  The coring is an A-coring exactly when psi is an
        entwining (Brzezinski, Algebr. Represent. Theory 5, 2002), so on a psi bump the coring oracle fails exactly
        when verify_entwining does."""
        rng = random.Random("smash coring nu")
        caught = {"psi": [0, 0], "algebra": [0, 0], "coalgebra": [0, 0]}   # [bumps, verify_entwining failures]
        for name, e in catalog_of(EntwiningPresentation).items():
            for part, attr in (("psi", None), ("algebra", "mul"), ("coalgebra", "comul")):
                for _ in range(25):
                    bad = bump_part(e, part, attr, rng)
                    given = verify_entwining(bad).passed
                    if given:
                        assert all(rep.passed for rep in entwining_oracles(bad).values()), (name, part)
                    elif part == "psi":
                        assert not verify_coring(build_coring(bad)).passed, name
                    caught[part][0] += 1
                    caught[part][1] += not given
        assert caught == {"psi": [275, 272], "algebra": [275, 269], "coalgebra": [275, 266]}

    def test_dual_entwining_fails_with_the_entwining(self):
        """Seeded +1 bumps of A, C or psi fail what dual_entwining builds exactly when they fail the entwining."""
        rng = random.Random("dual entwining")
        verdicts = []
        for name, e in catalog_of(EntwiningPresentation).items():
            for part, attr in ENTWINING_MAPS:
                for _ in range(4):
                    bad = bump_part(e, part, attr, rng)
                    given = verify_entwining(bad).passed
                    got = first_failure("dual_entwining", dual_entwining_rows(dual_entwining(bad))).passed
                    assert got == given, (name, part, attr)
                    verdicts.append(given)
        assert len(verdicts) == 220 and 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("kind", ["dk", "alt"])
    def test_psi_laws_hold_with_the_datum(self, kind, monkeypatch):
        """Seeded +1 bumps of a datum: its psi laws pass whenever the datum passes its verifier, and fail exactly
        when it fails on a bump of the two maps psi is made of.  psi does not read H, so a bump of H keeps them."""
        rng = random.Random(f"{kind} psi laws")
        if kind == "dk":
            data, verify, build = catalog_of(DKStructure).values(), verify_dk, dk_entwining
            maps = ("alg_coaction", "coalg_action")
        else:
            data, verify, build = catalog_of(AltDKStructure).values(), AltDKStructure.verify, alt_dk_entwining
            maps = ("alg_action", "coalg_coaction")
            # build psi from a datum that fails too, as dk_entwining does
            monkeypatch.setattr(AltDKStructure, "verify", lambda s: report.ok("verify_alt_dk"))
        verdicts = []
        for s in data:
            for part, attr in (("h", "mul"), ("h", "comul"), ("alg", "mul"), ("alg", "unit"), ("coalg", "comul"),
                               ("coalg", "counit"), *((x, None) for x in maps)):
                for _ in range(16 if kind == "alt" else 4):
                    bad = bump_part(s, part, attr, rng)
                    given, got = verify(bad).passed, psi_laws(build(bad)).passed
                    if part == "h":
                        assert got, (part, attr)
                    elif attr is None:
                        assert got == given, part
                    else:
                        assert got or not given, (part, attr)
                    verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_dual_modules_fail_with_the_module(self):
        """Seeded +1 bumps of M's action or coaction fail M_r exactly when they fail M, and bumps of K = M_r fail K^r
        exactly when they fail K."""
        rng = random.Random("dual modules")
        verdicts = []
        for name, m in catalog_of(EntwinedModulePresentation).items():
            d = dual_entwining(m.entwining)
            for functor, x in ((dual_module_r, m), (dual_module_upper_r, dual_module_r(d, m).module)):
                for attr in ("action", "coaction"):
                    for _ in range(6):
                        bad = bump_part(x, attr, None, rng)
                        given = module_output(bad).passed
                        assert module_output(functor(d, bad).module).passed == given, (name, functor.__name__, attr)
                        verdicts.append(given)
        assert len(verdicts) == 120 and not any(verdicts)

    def test_smash_module_fails_with_the_module(self):
        """Seeded +1 bumps of a smash module's action: smash_module_to_entwined refuses it or builds an entwined module
        that fails, exactly when the bump fails the module laws."""
        rng = random.Random("smash modules")
        verdicts = []
        for name, m in catalog_of(EntwinedModulePresentation).items():
            e = m.entwining
            sm = entwined_to_smash_module(e, m)
            for _ in range(12):
                bad = bump_part(sm, "action", None, rng)
                given = verify_structure("module", bad).passed
                try:
                    got = module_output(smash_module_to_entwined(e, bad)).passed
                except PresentationError:
                    got = False
                assert got == given, name
                verdicts.append(given)
        assert len(verdicts) == 60 and not any(verdicts)

    def test_dual_morphism_fails_with_the_morphism(self):
        """Seeded +1 bumps of the identity morphism of each entwining fail the transposed pair exactly when they
        fail the morphism."""
        rng = random.Random("dual morphisms")
        verdicts = []
        for name, e in catalog_of(EntwiningPresentation).items():
            d = dual_entwining(e)
            for _ in range(8):
                gamma, delta = e.algebra.identity_matrix(), e.coalgebra.identity_matrix()
                if rng.random() < 0.5:
                    gamma = bump(gamma, rng)
                else:
                    delta = bump(delta, rng)
                given = verify_entwining_morphism(e, e, gamma, delta).passed
                assert dual_morphism_transpose(d, d, gamma, delta).passed == given, name
                verdicts.append(given)
        assert len(verdicts) == 88 and not all(verdicts)

    @pytest.mark.parametrize("kind", sorted(INNER_ARROWS))
    def test_inner_ingredient_fails_with_the_input(self, kind):
        """Each +1 on the input's (co)action fails the intermediate exactly when it fails the input's own laws."""
        if kind == "module-coalgebra":
            s = catalog_get("dk_qc2")
            h, x, m = s.h, s.coalg, s.coalg_action
        else:
            s = catalog_get("alt_qc2")
            h, x, m = s.h, s.coalg, s.coalg_coaction
        verdicts = []
        for i in range(m.rows):
            for j in range(m.cols):
                bad = corrupt(m, i, j)
                given = verify_dk_compat(kind, h, x, bad, "right").passed
                assert inner_ingredient(kind, h, x, bad).passed == given, (i, j)
                verdicts.append(given)
        assert not any(verdicts)


# law names that src reads on catalog objects but that no bite table pins yet; this set may only shrink
UNPINNED = {"adjointness", "comultiplicative", "counital", "intertwining", "multiplicative", "unital"}


def bite_table_axioms() -> set:
    return ({failure.split(" at ")[0] for *_, failure in COMPAT_BITES}
            | {summary.split()[2] for *_, summary in ENTWINING_BITES}
            | {summary.split()[2].split("[")[-1].rstrip("]") for *_, summary in ENTWINED_MODULE_BITES}
            | {axiom for _, axiom, _, _ in ROW_MUTATIONS}
            | {axiom for axiom, *_ in NU_ROW_MUTATIONS}
            | {failure.split()[0] for *_, failure in HOPF_BITES}
            | {axiom for _, _, _, axiom, _ in BIALGEBRA_ROW_BITES}
            | {axiom for _, _, _, axiom, _ in FIRST_UNREACHED_ROW_BITES}
            | {axiom for _, _, _, axiom, _ in MORPHISM_ROW_BITES}
            | {axiom for _, _, _, axiom, _ in PAIRING_ROW_BITES}
            | {axiom for _, _, _, axiom, _ in DK_ROW_BITES})


def read_every_law(obj) -> None:
    """Run each src verifier and construction that reads a law of obj's kind."""
    if isinstance(obj, StructurePresentation):
        verify_structure(None, obj)
        ident = obj.identity_matrix()
        if obj.has_algebra:
            algebra_morphism_report(obj, obj, ident)
        if obj.has_coalgebra:
            pairing = canonical_pairing(obj)
            coalgebra_morphism_report(obj, obj, ident)
            verify_measuring_pairing(pairing)
            check_adjoint_pair(pairing, pairing, ident, ident)
        if obj.has_algebra and obj.has_coalgebra:
            bialgebra_morphism_report(obj, obj, ident)
            compute_antipode(obj)
    elif isinstance(obj, EntwiningPresentation):
        verify_entwining(obj)
        verify_entwining_morphism(obj, obj, obj.algebra.identity_matrix(), obj.coalgebra.identity_matrix())
        build_smash(obj)
        nu_iso(build_coring(obj))
        dual_entwining(obj)
    elif isinstance(obj, EntwinedModulePresentation):
        e = obj.entwining
        verify_entwined_module(e, obj)
        hom_entwined(e, obj, obj, Matrix.identity(e.field, obj.dim))
        d = dual_entwining(e)
        adjunction_check(d, obj, dual_module_r(d, obj).module)
    elif isinstance(obj, DKStructure):
        verify_dk(obj)
        koppinen_smash(obj, dk_entwining(obj))
        dual_dk(obj)
        verify_dk_morphism(obj, obj, obj.h.identity_matrix(), obj.alg.identity_matrix(), obj.coalg.identity_matrix())
    elif isinstance(obj, AltDKStructure):
        obj.verify()
        alt_dk_entwining(obj)
    elif isinstance(obj, HExtension):
        check_integral(h_extension(obj.h, obj.b, obj.coaction, obj.integral), obj.integral)
    elif isinstance(obj, HCoextension):
        coext = coextension_quotient(obj.h, obj.d, obj.action, obj.cointegral)
        dualize_coextension(coext, check_cointegral(coext, coext.cointegral))


def test_every_law_name_is_pinned_or_implied(monkeypatch):
    """Each law name read on the catalog is in a bite table or is an implied check; UNPINNED lists the rest.

    The catalog is built afresh inside the recording: a structure reads each law group once (verify_structure), so
    the cached objects, verified before, would read no structure law.
    """
    from entwine import catalog

    read, qualified = set(), set()
    compare = report.compare
    monkeypatch.setattr(catalog, "_CACHE", {})

    def recording(op, axiom, *rest):
        read.add(axiom)
        qualified.add(f"{op}[{axiom}]")
        return compare(op, axiom, *rest)

    monkeypatch.setattr(report, "compare", recording)
    for name in catalog_names():
        read_every_law(catalog_get(name))
    pinned = bite_table_axioms()
    assert not (read | qualified) & set(IMPLIED_CHECKS), "src reads a check that its inputs imply"
    assert not pinned & UNPINNED, "a pinned law name is still listed as unpinned"
    assert UNPINNED <= read, "an unpinned law name is no longer read"
    assert {"associativity", "coassociativity", "comul-multiplicative", "antipode-left"} <= read
    assert read <= pinned | UNPINNED, f"law names in no bite table: {sorted(read - pinned - UNPINNED)}"
