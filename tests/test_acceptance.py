"""Acceptance criteria: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line so the suite reads as a checklist;
every assertion is an exact equality (the base fields are Q and F_5, so
there are no tolerances anywhere).
"""

import json
import random

import pytest

from entwine.exactlin import Field, Matrix, QQ, kernel, kron
from entwine.structures import (
    ModulePresentation,
    PairingPresentation,
    canonical_pairing,
    check_alpha_condition,
    compute_antipode,
    convolution,
    convolution_unit,
    make_structure,
    module_from_coaction,
    rational_submodule,
    verify_structure,
)
from entwine.entwining import (
    build_coring,
    build_smash,
    entwined_to_smash_module,
    nu_iso,
    smash_module_to_entwined,
    verify_entwining,
)
from entwine.duality import adjunction_check, dual_entwining, dual_module_r
from entwine.doikoppinen import (
    check_cointegral,
    check_integral,
    dk_entwining,
    dual_dk,
    dualize_coextension,
    h_extension,
    koppinen_smash,
)
from entwine.catalog import (
    catalog_get,
    catalog_names,
    cyclic_group_algebra,
    trivial_bialgebra,
)
from entwine.cli import run_command
from entwine.entwining import EntwiningPresentation
from entwine.report import first_failure
from conftest import (
    BOTH_FIELDS,
    coaction_from_module,
    nu_implied_rows,
    nu_laws,
    random_invertible,
    random_matrix,
    verify_coring,
    verify_smash,
    with_antipode,
)

import test_structures as ts


def _entwinings():
    from entwine.entwining import EntwiningPresentation

    return [(name, catalog_get(name)) for name in catalog_names()
            if isinstance(catalog_get(name), EntwiningPresentation)]


def _entwined_modules():
    from entwine.entwining import EntwinedModulePresentation

    return [(name, catalog_get(name)) for name in catalog_names()
            if isinstance(catalog_get(name), EntwinedModulePresentation)]


def _dk_triples():
    from entwine.doikoppinen import DKStructure

    return [(name, catalog_get(name)) for name in catalog_names()
            if isinstance(catalog_get(name), DKStructure)]


def _report(criterion: str, ok: bool):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_entwining_axioms():
    ok = True
    for name, e in _entwinings():
        rep = verify_entwining(e)
        ok = ok and rep.passed
    _report("1 entwining axioms on all catalog entwinings", ok)


def test_criterion_02_smash_rings():
    ok = True
    for name, e in _entwinings():
        if e.algebra.dim * e.coalgebra.dim > 16:
            continue
        ok = ok and verify_smash(build_smash(e)).passed  # build_smash reads no law; the oracle reads them all
    _report("2 smash associativity and units (dim <= 16)", ok)


def test_criterion_03_nu_isomorphism():
    ok = True
    for name, e in _entwinings():
        coring = build_coring(e)
        iso = nu_iso(coring)  # reads nothing; the oracles read the coring and bijectivity, multiplicativity, unit
        claims = [*nu_laws(coring, iso.smash, iso.nu), *nu_implied_rows(coring, iso.smash, iso.nu, iso.nu_inv)]
        ok = ok and verify_coring(coring).passed and first_failure("nu_iso", claims).passed
        ok = ok and len(iso.left_dual_basis) == iso.smash.dim
    _report("3 nu isomorphism on all catalog entwinings", ok)


def test_criterion_04_dual_entwinings():
    ok = True
    for name, e in _entwinings():
        d = dual_entwining(e)
        ok = ok and verify_entwining(d.dual).passed
    _report("4 dual entwinings with full duals", ok)


def test_criterion_05_roundtrips():
    ok = True
    for name, m in _entwined_modules():
        e = m.entwining
        back = smash_module_to_entwined(e, entwined_to_smash_module(e, m))
        ok = ok and back.action == m.action and back.coaction == m.coaction
    _report("5 entwined/smash round trips are identities", ok)


def test_criterion_06_adjunction():
    ok = True
    for name in ("hopfmod_qc2", "hopfmod_sweedler4"):
        m = catalog_get(name)
        d = dual_entwining(m.entwining)
        k = dual_module_r(d, m).module
        ok = ok and adjunction_check(d, m, k).passed
    _report("6 adjunction on computed Hom bases (qc2, sweedler4)", ok)


def test_criterion_07_koppinen_coherence():
    ok = True
    for name, s in _dk_triples():
        smash = koppinen_smash(s, dk_entwining(s))  # asserts table equality internally
        ok = ok and smash.dim == s.alg.dim * s.coalg.dim
    _report("7 Koppinen ring equals the entwining smash ring", ok)


def test_criterion_08_dual_dk_coherence():
    ok = True
    for name, s in _dk_triples():
        dual, rep = dual_dk(s, dk_entwining(s))
        ok = ok and rep.passed and rep.detail("entwining_coherence") == "True"
        lhs = dk_entwining(dual).psi
        rhs = dual_entwining(dk_entwining(s)).dual.psi
        ok = ok and lhs == rhs
    _report("8 dual Doi-Koppinen structures and entwining coherence", ok)


def test_criterion_09_rational_laws_and_roundtrips():
    rng = random.Random(90817)
    trials = 0
    ok = True
    for field in BOTH_FIELDS:
        a, c, p = ts.projection_pairing(field)
        for _ in range(30):
            m = ts.random_module_over(a, p, rng)
            rat = rational_submodule(p, m)
            w = rat.subspace
            for j in range(a.dim):
                for t in range(w.dim):
                    v = m.action @ kron(Matrix.basis_column(field, a.dim, j),
                                        w.basis.row_matrix(t).transpose())
                    ok = ok and w.contains(v)
            inner = rational_submodule(p, ModulePresentation(w.dim, a, rat.action, "left"))
            ok = ok and inner.dim == w.dim
            v = random_matrix(field, rng, m.dim, 1)
            from entwine.exactlin import Subspace

            spanning = [(m.action @ kron(Matrix.basis_column(field, a.dim, j), v)).col(0)
                        for j in range(a.dim)]
            nsub = Subspace.from_spanning(field, m.dim, spanning)
            nmod = ts.submodule_presentation(m, nsub)
            rat_n = rational_submodule(p, nmod)
            ok = ok and ts.ambient_subspace(rat_n.subspace, nsub) == nsub.intersect(w)
            l = ts.random_module_over(a, p, rng)
            f = ts._random_module_map(a, m, l, rng)
            rat_l = rational_submodule(p, l)
            for t in range(rat.dim):
                img = f @ rat.subspace.basis.row_matrix(t).transpose()
                ok = ok and rat_l.subspace.contains(img)
            trials += 1
    # Theorem-equal round trips
    helper = ts.TestPairingRoundtrips()
    for field in BOTH_FIELDS:
        for n in (2, 3):
            c = cyclic_group_algebra(field, n)
            p = canonical_pairing(c)
            for _ in range(10):
                m = helper._random_comodule(c, rng)
                act = module_from_coaction(p, m.coaction, m.dim, "right")
                mod = ModulePresentation(m.dim, p.algebra, act, "left")
                got = coaction_from_module(p, mod)
                ok = ok and got == m.coaction
                act2 = module_from_coaction(p, got, m.dim, "right")
                ok = ok and act2 == act
                trials += 1
    _report(f"9 rational-module laws and round trips ({trials} instances)", ok and trials >= 100)


def test_criterion_10_alpha_equivalence():
    rng = random.Random(1017)
    trials = 0
    ok = True
    for field in BOTH_FIELDS:
        for _ in range(60):
            na, nc = rng.randint(1, 4), rng.randint(1, 4)
            alg = cyclic_group_algebra(field, na) if na > 1 else trivial_bialgebra(field)
            coalg = cyclic_group_algebra(field, nc) if nc > 1 else trivial_bialgebra(field)
            pm = random_matrix(field, rng, na, nc)
            p = PairingPresentation(alg, coalg, pm)
            criterion = check_alpha_condition(p).passed
            ok = ok and criterion == (kernel(pm).dim == 0)
            mdim = rng.randint(1, 3)
            ok = ok and criterion == (kernel(kron(Matrix.identity(field, mdim), pm)).dim == 0)
            trials += 1
    _report(f"10 alpha-condition rank criterion vs direct injectivity ({trials} pairings)",
            ok and trials >= 100)


def test_criterion_11_antipodes():
    qc2 = catalog_get("qc2")
    ok = compute_antipode(qc2) == Matrix.identity(QQ, 2)
    h4 = catalog_get("sweedler4")
    s = compute_antipode(h4)
    ok = ok and s is not None
    # both antipode identities, re-verified from scratch
    ok = ok and verify_structure("hopf", with_antipode(h4, s)).passed
    # S(x) = -gx
    ok = ok and s.col(2) == (QQ.zero(), QQ.zero(), QQ.zero(), QQ.of(-1))
    _report("11 antipodes of qc2 and sweedler4", ok)


def test_criterion_12_cleft_cocleft_duality():
    ok = True
    for name in ("coext_qc2", "coext_sweedler4"):
        coext = catalog_get(name)
        h = coext.h
        rep = check_cointegral(coext, h.identity_matrix())
        ok = ok and rep.linear.passed and rep.total and rep.cocleft
        ok = ok and rep.twist is not None and rep.twist.passed
        ext, dual_rep = dualize_coextension(coext, check_cointegral(coext, coext.cointegral))
        ok = ok and dual_rep.passed
        ok = ok and dual_rep.detail("coinvariants_equal_quotient_dual") == "True"
        ok = ok and dual_rep.detail("cleft") == "True"
        outer = check_integral(ext, ext.integral)
        ok = ok and outer.cleft and outer.inverse == rep.inverse.transpose()
    _report("12 cocleft coextensions dualize to cleft extensions", ok)


def test_criterion_13_hopf_criterion():
    ok = True
    for name in ("trivial", "qc2", "qc3", "f5c5", "sweedler4", "monoid2",
                 "qc2_dual", "qc3_dual", "f5c5_dual"):
        h = catalog_get(name)
        if not (h.has_algebra and h.has_coalgebra):
            continue
        ext = h_extension(h, h, h.comul)
        cleft = check_integral(ext, h.identity_matrix()).cleft
        ok = ok and cleft == (compute_antipode(h) is not None)
    _report("13 cleft identity integral iff an antipode exists", ok)


def test_criterion_14_determinism(tmp_path):
    ok = True
    code, text = run_command(["catalog", "qc2"])
    path = tmp_path / "qc2.ent"
    path.write_text(text)
    code2, text2 = run_command(["catalog", "qc2"])
    ok = ok and (code, text) == (code2, text2)
    for argv in (["check", str(path)],
                 ["--json", "check", str(path)],
                 ["dualize", str(path), "--name", "qc2"],
                 ["antipode", str(path), "--name", "qc2"],
                 ["catalog"]):
        ok = ok and run_command(list(argv)) == run_command(list(argv))
    _report("14 byte-identical repeated command runs", ok)
