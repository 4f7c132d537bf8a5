import random
from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest

from entwine.exactlin import Field, Matrix, QQ, columns_of, kron
from entwine.report import compare, first_failure
from entwine.structures import (
    ModulePresentation,
    convolution,
    convolution_unit,
    make_structure,
    verify_structure,
)
from entwine.entwining import (
    EntwinedModulePresentation,
    EntwiningPresentation,
    build_coring,
    build_smash,
    entwined_to_smash_module,
    flip_entwining,
    hom_entwined,
    hom_entwined_basis,
    nu_iso,
    smash_module_to_entwined,
    twisted_product,
    verify_entwined_module,
    verify_entwining,
    verify_entwining_morphism,
)
from entwine.catalog import catalog_get, catalog_names, cyclic_group_algebra, free_flip_module
from conftest import (
    as_map,
    assert_canonical_vector,
    col_matrix,
    compare_reference,
    coring_laws,
    corrupt,
    law_shape,
    law_vectors,
    layout,
    left_star_product,
    nu_implied_rows,
    nu_inv_map,
    nu_laws,
    nu_map,
    packed_stages,
    rebase,
    scale,
    smash_laws,
    smash_product_map,
    smash_rows,
    unimodular,
    verify_coring,
    verify_smash,
    zeros,
)


@pytest.fixture(scope="module")
def qc2():
    return catalog_get("qc2")


@pytest.fixture(scope="module")
def ent_qc2():
    return catalog_get("hopfmod_qc2_entwining")


@pytest.fixture(scope="module")
def ent_h4():
    return catalog_get("hopfmod_sweedler4_entwining")


def grouplike_dim1():
    return make_structure("coalgebra", QQ, 1, ("c",), comul=[(0, 0, 0, 1)], counit=[1])


class TestVerifyEntwining:
    def test_flip_always_passes(self, qc2):
        for name in ("qc2", "qc3", "sweedler4", "monoid2"):
            s = catalog_get(name)
            assert verify_entwining(flip_entwining(s, s)).passed

    def test_components_are_verified_first(self):
        e = catalog_get("flip_qc3")
        bad_a = replace(e.algebra, mul=corrupt(e.algebra.mul, 0, 0))
        assert verify_structure("algebra", bad_a).summary() == \
            "verify_structure[algebra]: FAIL associativity at basis (0, 0, 1) lhs={1: 2} rhs={1: 1}"
        assert verify_entwining(replace(e, algebra=bad_a)).summary() == \
            "verify_entwining: FAIL algebra[associativity] at basis (0, 0, 1) lhs={1: 2} rhs={1: 1}"
        bad_c = replace(e.coalgebra, comul=corrupt(e.coalgebra.comul, 0, 0))
        assert verify_entwining(replace(e, coalgebra=bad_c)).summary() == \
            "verify_entwining: FAIL coalgebra[left-counit] at basis (0,) lhs={0: 2} rhs={0: 1}"

    def test_hopf_module_entwining(self, ent_qc2):
        assert verify_entwining(ent_qc2).passed

    def test_corrupted_flip_fails_with_witness(self, qc2):
        e = flip_entwining(qc2, qc2)
        bad = EntwiningPresentation(qc2, qc2, corrupt(e.psi, 0, 3))
        rep = verify_entwining(bad)
        assert not rep.passed
        assert rep.witness is not None
        assert rep.lhs is not None and rep.rhs is not None
        assert rep.summary() == \
            "verify_entwining: FAIL psi-multiplicativity at basis (1, 1, 1) lhs={1: 1} rhs={1: 1, 2: 2}"


# (catalog entwining, part bumped, its map, entry given +1, the whole first failure)
ENTWINING_BITES = [
    ("alt_qc2_entwining", "psi", None, (0, 1),
     "verify_entwining: FAIL psi-multiplicativity at basis (0, 0, 1) lhs={} rhs={0: 1}"),
    ("hopfmod_qc2_entwining", "algebra", "mul", (1, 3),
     "verify_entwining: FAIL psi-multiplicativity at basis (0, 1, 1) lhs={0: 1, 3: 1} rhs={0: 1, 2: 1}"),
    ("flip_sweedler4", "psi", None, (8, 1),
     "verify_entwining: FAIL psi-comultiplicativity at basis (0, 1) lhs={16: 1, 32: 1} rhs={16: 1, 32: 2}"),
    ("alt_qc2_entwining", "coalgebra", "comul", (3, 1),
     "verify_entwining: FAIL psi-comultiplicativity at basis (1, 0) lhs={5: 1, 6: 1, 7: 1} rhs={3: 1, 5: 1, 6: 1}"),
]


class TestEveryEntwiningLawBites:
    """A +1 on psi or on one map of A or C makes an entwining law the first failure of verify_entwining.

    No single bump of a catalog entwining reaches psi-unitality or psi-counitality first.
    """

    @pytest.mark.parametrize("name, part, attr, entry, summary", ENTWINING_BITES,
                             ids=[f"{n}-{p}-{s.split()[2]}" for n, p, _, _, s in ENTWINING_BITES])
    def test_bump_fails_the_law(self, name, part, attr, entry, summary):
        e = catalog_get(name)
        if part == "psi":
            bad = replace(e, psi=corrupt(e.psi, *entry))
        else:
            pres = getattr(e, part)
            bad = replace(e, **{part: replace(pres, **{attr: corrupt(getattr(pres, attr), *entry)})})
        assert verify_entwining(bad).summary() == summary


class TestEntwiningMorphism:
    def test_identity(self, ent_qc2):
        i2 = Matrix.identity(QQ, 2)
        assert verify_entwining_morphism(ent_qc2, ent_qc2, i2, i2).passed

    def test_flip_naturality(self, qc2):
        # any algebra morphism and coalgebra morphism intertwine two flips
        e = flip_entwining(qc2, qc2)
        gamma = qc2.antipode  # a Hopf-algebra map for the abelian group C2
        delta = qc2.antipode
        assert verify_entwining_morphism(e, e, gamma, delta).passed

    def test_bad_gamma_attributed(self, qc2):
        e = flip_entwining(qc2, qc2)
        gamma = Matrix.from_rows(QQ, [[QQ.one(), QQ.one()], [QQ.zero(), QQ.one()]])
        rep = verify_entwining_morphism(e, e, gamma, Matrix.identity(QQ, 2))
        assert not rep.passed
        assert rep.axiom.startswith("gamma[")

    def test_failure_summaries(self, ent_qc2):
        """gamma, then delta, then the intertwining law; eps sends both basis elements to e."""
        i2 = Matrix.identity(QQ, 2)
        shear = Matrix.from_rows(QQ, [[QQ.one(), QQ.one()], [QQ.zero(), QQ.one()]])
        eps = Matrix.from_rows(QQ, [[QQ.one(), QQ.one()], [QQ.zero(), QQ.zero()]])
        cases = (
            (shear, i2, "gamma[multiplicative] at basis (1, 1) lhs={0: 1} rhs={0: 2, 1: 2}"),
            (i2, shear, "delta[comultiplicative] at basis (1,) lhs={0: 1, 3: 1} rhs={0: 1, 1: 1, 2: 1, 3: 1}"),
            (i2, eps, "intertwining at basis (0, 1) lhs={2: 1} rhs={3: 1}"),
        )
        for gamma, delta, failure in cases:
            rep = verify_entwining_morphism(ent_qc2, ent_qc2, gamma, delta)
            assert rep.summary() == f"verify_entwining_morphism: FAIL {failure}"


class TestCoring:
    def test_flip_coring_right_action(self, qc2):
        coring = build_coring(flip_entwining(qc2, qc2))
        # (a~ (x) c) a = a~ a (x) c for the flip, on all basis triples
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    x = Matrix.basis_column(QQ, 4, i * 2 + j)
                    a = Matrix.basis_column(QQ, 2, k)
                    got = coring.right_action @ kron(x, a)
                    prod = qc2.mul @ kron(Matrix.basis_column(QQ, 2, i), a)
                    want = kron(prod, Matrix.basis_column(QQ, 2, j))
                    assert got == want

    def test_hopf_module_coring_verifies(self, ent_qc2, ent_h4):
        for e in (ent_qc2, ent_h4):
            coring = build_coring(e)
            assert verify_coring(coring).passed

    def test_dim1_coring_is_base_algebra(self, qc2):
        e = flip_entwining(qc2, grouplike_dim1())
        coring = build_coring(e)
        assert coring.dim == 2
        assert coring.counit == Matrix.identity(QQ, 2)

    def test_corrupted_coring_reports(self, ent_qc2):
        coring = build_coring(ent_qc2)
        from dataclasses import replace

        bad = replace(coring, comul=corrupt(coring.comul, 0, 0))
        assert not verify_coring(bad).passed

    def test_laws_stop_at_the_first_failure(self):
        from entwine.report import first_failure

        one = Matrix.identity(QQ, 1)
        row = Matrix.from_rows(QQ, [[QQ.one(), QQ.one()]])

        def laws():
            yield "holds", one, (one, one), (1,)
            yield "broken", row, (Matrix.from_entries(QQ, 2, 2, [(0, 0, QQ.one())]), row), (2,)
            raise AssertionError("evaluated past the first failure")

        rep = first_failure("op", laws())
        assert (rep.axiom, rep.witness, rep.lhs, rep.rhs) == ("broken", (1,), "{0: 1}", "{}")

    def test_a_failing_component_stops_the_rows(self):
        from entwine.report import fail, ok

        def rows():
            yield "coalgebra", ok("verify_structure[coalgebra]")
            yield "algebra", fail("verify_structure[algebra]", "associativity", (0, 1, 1), "{0: 1}", "{}")
            raise AssertionError("evaluated past the failing component")

        assert first_failure("op", rows()).summary() == \
            "op: FAIL algebra[associativity] at basis (0, 1, 1) lhs={0: 1} rhs={}"


class TestSmash:
    def test_flip_smash_is_opposite_convolution(self, qc2):
        e = flip_entwining(qc2, qc2)
        smash = build_smash(e)
        n = smash.dim
        for s1 in range(n):
            f1 = as_map(smash, Matrix.basis_column(QQ, n, s1))
            for s2 in range(n):
                f2 = as_map(smash, Matrix.basis_column(QQ, n, s2))
                got = as_map(smash, smash.mul @ kron(Matrix.basis_column(QQ, n, s1),
                                                    Matrix.basis_column(QQ, n, s2)))
                assert got == convolution(qc2, qc2, f2, f1)

    def test_dim1_smash_is_base_algebra(self, qc2):
        e = flip_entwining(qc2, grouplike_dim1())
        smash = build_smash(e)
        assert smash.dim == 2
        assert smash.mul == qc2.mul
        assert smash.unit == qc2.unit

    def test_hopf_module_smash_tables(self, ent_qc2):
        smash = build_smash(ent_qc2)
        assert verify_smash(smash).passed
        # unit is eta . eps
        assert as_map(smash, smash.unit) == convolution_unit(ent_qc2.coalgebra, ent_qc2.algebra)

    def test_smash_product_map_agrees_with_table(self, ent_h4, rng):
        smash = build_smash(ent_h4)
        n = smash.dim
        for _ in range(10):
            s1 = rng.randrange(n)
            s2 = rng.randrange(n)
            f1 = as_map(smash, Matrix.basis_column(QQ, n, s1))
            f2 = as_map(smash, Matrix.basis_column(QQ, n, s2))
            via_table = as_map(smash, smash.mul @ kron(Matrix.basis_column(QQ, n, s1),
                                                      Matrix.basis_column(QQ, n, s2)))
            assert via_table == smash_product_map(ent_h4, f1, f2)

    def test_corrupted_smash_fails(self, ent_qc2):
        smash = build_smash(ent_qc2)
        from dataclasses import replace

        bad = replace(smash, mul=corrupt(smash.mul, 0, 0))
        rep = verify_smash(bad)
        assert not rep.passed


class TestLawVectors:
    def test_law_vectors_are_canonical(self):
        """Every column and row of every law, passing or failing, is canonical and is that of its @/kron layout."""
        entwinings = [e for e in map(catalog_get, catalog_names()) if isinstance(e, EntwiningPresentation)]
        laws = []
        for e in entwinings:
            laws += [(e.field, smash_rows(build_smash(e)), 13), (e.field, coring_laws(build_coring(e)), 12)]
        e = catalog_get("hopfmod_sweedler4_entwining")
        smash, coring = build_smash(e), build_coring(e)
        laws += [(e.field, smash_rows(replace(smash, mul=corrupt(smash.mul, 9, 130, Fraction(3)))), 13),
                 (e.field, coring_laws(replace(coring, comul=corrupt(coring.comul, 250, 11, Fraction(2, 3)))), 12)]
        for field, rows, count in laws:
            assert len(rows) == count
            for _, lhs, rhs, dims in rows:
                for side in (lhs, rhs):
                    laid = layout(side)
                    assert law_shape(side) == (field, laid.rows, laid.cols) and laid.cols == prod(dims)
                    columns = list(map(law_vectors(side, False), range(laid.cols)))
                    rows = list(map(law_vectors(side, True), range(laid.rows)))
                    assert columns == list(columns_of(laid)) and rows == list(laid._rows)
                    for vector in columns + rows:
                        assert_canonical_vector(vector, field)

    @pytest.mark.parametrize("name, part, i, j, c, summary", [
        ("hopfmod_sweedler4_entwining", "smash", 9, 130, Fraction(3),
         "verify_smash: FAIL associativity at basis (0, 8, 2) lhs={4: 1, 9: 3, 10: 1} rhs={4: 1, 10: 1}"),
        ("hopfmod_sweedler4_entwining", "coring", 250, 11, Fraction(2, 3),
         "verify_coring: FAIL coassociativity at basis (11,) "
         "lhs={2051: 1, 2097: 1, 2833: 1, 3130: 2/3, 3866: 2/3, 4001: 2/3} "
         "rhs={2051: 1, 2097: 1, 2833: 1, 3986: 2/3, 4000: 2/3}"),
        ("hopfmod_f5c5_entwining", "smash", 0, 255, 3,
         "verify_smash: FAIL associativity at basis (5, 6, 5) lhs={0: 3} rhs={}"),
        ("hopfmod_f5c5_entwining", "coring", 17, 2, 4,
         "verify_coring: FAIL coassociativity at basis (2,) "
         "lhs={17: 4, 427: 4, 1302: 1} rhs={427: 4, 1267: 4, 1302: 1}"),
    ], ids=["sweedler4-smash", "sweedler4-coring", "f5c5-smash", "f5c5-coring"])
    def test_perturbed_constant_failure_report(self, name, part, i, j, c, summary):
        """A perturbed smash mul or coring comul keeps its first failure, witness and sides."""
        e = catalog_get(name)
        if part == "smash":
            smash = build_smash(e)
            rep = verify_smash(replace(smash, mul=corrupt(smash.mul, i, j, c)))
        else:
            coring = build_coring(e)
            rep = verify_coring(replace(coring, comul=corrupt(coring.comul, i, j, c)))
        assert rep.summary() == summary


ROW_MUTATIONS = [
    # (part, row, map perturbed by +1 at entry (0, 0), witness of that row alone) on hopfmod_qc2_entwining
    ("smash", "associativity", "mul", (0, 0, 2)),
    ("smash", "left-unit", "unit", (0,)),
    ("smash", "right-unit", "unit", (0,)),
    ("smash", "left-action-unit", "left_action", (0,)),
    ("smash", "right-action-unit", "right_action", (0,)),
    ("smash", "left-action-module", "left_action", (0, 0, 0)),
    ("smash", "right-action-module", "right_action", (0, 0, 0)),
    ("smash", "bimodule-compatibility", "right_action", (1, 0, 0)),
    ("smash", "mul-left-linear", "left_action", (0, 0, 2)),
    ("smash", "mul-right-linear", "right_action", (2, 3, 0)),
    ("smash", "mul-balanced", "mul", (0, 1, 3)),
    ("smash", "unit-central", "unit", (1,)),
    ("smash", "twisted-product", "mul", (0, 0)),
    ("coring", "left-action-associativity", "left_action", (0, 0, 0)),
    ("coring", "right-action-associativity", "right_action", (0, 0, 0)),
    ("coring", "left-action-unit", "left_action", (0,)),
    ("coring", "right-action-unit", "right_action", (0,)),
    ("coring", "bimodule-compatibility", "right_action", (1, 0, 0)),
    ("coring", "coassociativity", "comul", (2,)),
    ("coring", "left-counit", "counit", (0,)),
    ("coring", "right-counit", "counit", (0,)),
    ("coring", "comul-left-linear", "comul", (1, 0)),
    ("coring", "counit-left-linear", "counit", (1, 0)),
    ("coring", "counit-right-linear", "counit", (0, 1)),
    ("coring", "comul-right-linear-mod-balancing", "comul", (0, 1)),
]


class TestEveryRowBites:
    """Each smash and coring law, checked on its own, fails under some single-constant perturbation."""

    @staticmethod
    def rows(part, obj):
        return smash_rows(obj) if part == "smash" else coring_laws(obj)

    def test_every_row_is_listed(self, ent_qc2):
        for part, build in (("smash", build_smash), ("coring", build_coring)):
            listed = [axiom for p, axiom, _, _ in ROW_MUTATIONS if p == part]
            assert listed == [row[0] for row in self.rows(part, build(ent_qc2))]

    @pytest.mark.parametrize("part, axiom, name, witness", ROW_MUTATIONS,
                             ids=[f"{part}-{axiom}" for part, axiom, _, _ in ROW_MUTATIONS])
    def test_perturbation_breaks_the_row(self, ent_qc2, part, axiom, name, witness):
        from entwine.report import compare

        obj = build_smash(ent_qc2) if part == "smash" else build_coring(ent_qc2)
        row = next(r for r in self.rows(part, obj) if r[0] == axiom)
        assert compare(part, *row) is None
        bad = replace(obj, **{name: corrupt(getattr(obj, name), 0, 0)})
        rep = compare(part, *next(r for r in self.rows(part, bad) if r[0] == axiom))
        assert rep is not None and rep.witness == witness


class TestNuIso:
    def test_identities(self, ent_qc2):
        iso = nu_iso(build_coring(ent_qc2))
        assert len(iso.left_dual_basis) == iso.smash.dim
        # nu of the unit is the counit of the coring
        assert nu_map(ent_qc2, as_map(iso.smash, iso.smash.unit)) == iso.coring.counit

    def test_multiplicativity_exhaustive(self, ent_qc2):
        iso = nu_iso(build_coring(ent_qc2))
        smash, coring = iso.smash, iso.coring
        n = smash.dim
        for s1 in range(n):
            for s2 in range(n):
                f1 = as_map(smash, Matrix.basis_column(QQ, n, s1))
                f2 = as_map(smash, Matrix.basis_column(QQ, n, s2))
                prod = as_map(smash, smash.mul @ kron(Matrix.basis_column(QQ, n, s1),
                                                     Matrix.basis_column(QQ, n, s2)))
                assert nu_map(ent_qc2, prod) == left_star_product(
                    coring, nu_map(ent_qc2, f1), nu_map(ent_qc2, f2))

    def test_nu_inv_is_the_matrix_of_nu_inv_map(self):
        # with nu_inv nu = id this makes nu nu_inv = id on the image of nu, which nu_iso does not check
        entwinings = [e for e in map(catalog_get, catalog_names()) if isinstance(e, EntwiningPresentation)]
        assert len(entwinings) == 11
        for e in entwinings:
            iso = nu_iso(build_coring(e))
            f = e.field
            na, n = e.algebra.dim, iso.smash.dim
            units = [Matrix(f, na, n, [f.one() if i == t else f.zero() for i in range(na * n)])
                     for t in range(na * n)]
            assert iso.nu_inv == Matrix.from_columns(f, n, [nu_inv_map(e, u) for u in units])

    def test_left_dual_basis_is_nu_column_by_column(self):
        assert len(CATALOG_ENTWININGS) == 11
        for name in CATALOG_ENTWININGS:
            iso = nu_iso(build_coring(catalog_get(name)))
            na, n = iso.smash.entwining.algebra.dim, iso.smash.dim
            assert iso.left_dual_basis == tuple(col_matrix(iso.nu, s).reshape(na, n) for s in range(n)), name

    def test_inverse_matrices(self, ent_h4):
        iso = nu_iso(build_coring(ent_h4))
        n = iso.smash.dim
        assert iso.nu_inv @ iso.nu == Matrix.identity(QQ, n)


def nu_reference(coring, smash):
    """The claims of nu_iso checked one basis tuple at a time, from the definitions.

    nu(f)(a (x) c) = a f(c), and (f *_l g)(x) = g(x_1 f(x_2)) with
    x_1 (x) x_2 read off coring.comul.  Returns (axiom, witness) of the
    first failure in the order of conftest.nu_laws, or None.  nu-inv-nu
    and nu-right-linear are read by conftest.nu_implied_rows.
    """
    e = coring.entwining
    a, c = e.algebra, e.coalgebra
    f = e.field
    na, nc, n = a.dim, c.dim, coring.dim

    def basis(dim, i):
        return Matrix.basis_column(f, dim, i)

    def nu_of(fm):
        return Matrix.from_columns(f, na, [a.mul @ kron(basis(na, b), fm @ basis(nc, w))
                                           for b in range(na) for w in range(nc)])

    def nu_at(vector):   # nu of the smash element with these coordinates, by linearity
        return sum((scale(h, k) for k, h in zip(vector, images) if k), zeros(f, na, n))

    images = [nu_of(as_map(smash, basis(n, s))) for s in range(n)]
    for s, h in enumerate(images):
        if h @ coring.left_action != a.mul @ kron(Matrix.identity(f, na), h):
            return "nu-image-left-linear", (s,)
    for s1, h1 in enumerate(images):
        spread = Matrix.from_columns(f, n, [
            sum((scale(coring.right_action, k) @ kron(basis(n, v1), h1 @ basis(n, v2))
                 for (v1, v2), k in ((divmod(i, n), k) for i, k in enumerate(coring.comul.col(x)) if k)),
                zeros(f, n, 1))
            for x in range(n)])
        for s2, h2 in enumerate(images):
            if nu_at(smash.mul.col(s1 * n + s2)) != h2 @ spread:
                return "nu-multiplicative", (s1, s2)
    if nu_at(smash.unit.col(0)) != coring.counit:
        return "nu-unit", None
    for j in range(na):
        right_by_j = Matrix.from_columns(f, n, [coring.right_action @ kron(basis(n, x), basis(na, j))
                                                for x in range(n)])
        for s, h in enumerate(images):
            if nu_at(smash.left_action.col(j * n + s)) != h @ right_by_j:
                return "nu-left-linear", (j, s)
    return None


def nu_verdict(coring, smash, nu):
    """(axiom, witness) of the first failing row of the nu oracle, or None."""
    rep = first_failure("nu_iso", nu_laws(coring, smash, nu))
    return None if rep.passed else (rep.axiom, rep.witness)


CATALOG_ENTWININGS = [name for name in catalog_names() if isinstance(catalog_get(name), EntwiningPresentation)]


def test_constructions_read_no_law(monkeypatch):
    """build_smash, build_coring and nu_iso contract and permute the structure maps of a verified entwining, and read
    no law row of what they build."""
    from entwine import report

    entwinings = [catalog_get(name) for name in CATALOG_ENTWININGS]
    calls = []
    for name in ("compare", "first_failure"):
        monkeypatch.setattr(report, name, lambda *args, name=name: calls.append(name))
    for e in entwinings:
        build_smash(e)
        nu_iso(build_coring(e))
    assert calls == []


def verified_entwinings() -> list:
    """The 11 catalog entwinings, then the entwinings of the catalog DK and alternative DK data."""
    from entwine.doikoppinen import AltDKStructure, DKStructure, alt_dk_entwining, dk_entwining

    objects = [catalog_get(name) for name in catalog_names()]
    return ([obj for obj in objects if isinstance(obj, EntwiningPresentation)]
            + [dk_entwining(obj) for obj in objects if isinstance(obj, DKStructure)]
            + [alt_dk_entwining(obj) for obj in objects if isinstance(obj, AltDKStructure)])


class TestWhatIsNotBuilt:
    """The smash and coring commands print dim A * dim C without building, and the way back from smash modules
    embeds A by a -> a epsilon without contracting: each is tied here to what the constructions build."""

    def test_printed_dimension_is_each_constructions(self):
        entwinings = verified_entwinings()
        assert len(entwinings) == 18
        for e in entwinings:
            coring = build_coring(e)
            dims = (build_smash(e).dim, coring.dim, len(nu_iso(coring).left_dual_basis))
            assert dims == (e.algebra.dim * e.coalgebra.dim,) * 3, dims

    def test_unit_embedding_is_the_left_action_on_the_unit(self):
        from entwine.entwining import smash_unit_embedding

        for e in verified_entwinings():
            smash = build_smash(e)
            assert smash_unit_embedding(e) == \
                smash.left_action @ kron(Matrix.identity(e.field, e.algebra.dim), smash.unit)


class TestNuReference:
    """The rows of the nu oracle agree with the per-basis reference on verdict, axiom and witness."""

    def test_catalog_entwinings_pass(self):
        assert len(CATALOG_ENTWININGS) == 11
        for name in CATALOG_ENTWININGS:
            e = catalog_get(name)
            coring = build_coring(e)
            iso = nu_iso(coring)
            assert nu_reference(coring, iso.smash) is None
            f, na, n = e.field, e.algebra.dim, iso.smash.dim
            images = [nu_map(e, as_map(iso.smash, Matrix.basis_column(f, n, s))) for s in range(n)]
            assert iso.nu == Matrix.from_columns(f, na * n, images)
            assert iso.left_dual_basis == tuple(images)

    @pytest.mark.parametrize("name", CATALOG_ENTWININGS)
    def test_perturbations_agree(self, name):
        """Seeded +1 bumps of the coring and of the smash ring, read by the nu oracle."""
        coring = build_coring(catalog_get(name))
        iso = nu_iso(coring)
        rng = random.Random(f"nu-reference:{name}")
        verdicts = []
        bumps = [("coring", part) for part in ("left_action", "right_action", "counit", "comul") for _ in range(2)]
        bumps += [("smash", part) for part in ("mul", "unit", "left_action", "right_action")]
        for which, part in bumps:
            obj = coring if which == "coring" else iso.smash
            m = getattr(obj, part)
            bad = replace(obj, **{part: corrupt(m, rng.randrange(m.rows), rng.randrange(m.cols))})
            bad_coring, bad_smash = (bad, iso.smash) if which == "coring" else (coring, bad)
            verdict = nu_verdict(bad_coring, bad_smash, iso.nu)
            assert verdict == nu_reference(bad_coring, bad_smash), (which, part, verdict)
            verdicts.append(verdict)
        assert any(v is not None for v in verdicts)


def nu_rows(coring, smash, iso) -> list:
    """The rows of the nu oracle, then the two that A's laws imply."""
    return [*nu_laws(coring, smash, iso.nu), *nu_implied_rows(coring, smash, iso.nu, iso.nu_inv)]


NU_ROW_MUTATIONS = [
    # (row, object, map perturbed by +1 at entry (0, 0), witness of that row alone) on hopfmod_qc2_entwining
    ("nu-image-left-linear", "coring", "left_action", (0,)),
    ("nu-multiplicative", "coring", "comul", (0, 0)),
    ("nu-unit", "coring", "counit", None),
    ("nu-left-linear", "smash", "left_action", (0, 0)),
    ("nu-inv-nu", "iso", "nu_inv", (0,)),
    ("nu-right-linear", "smash", "right_action", (0, 0)),
]


class TestEveryNuRowBites:
    """Each claim of the nu isomorphism that the oracle reads fails on its own under a single-constant bump."""

    def test_every_row_is_listed(self, ent_qc2):
        iso = nu_iso(build_coring(ent_qc2))
        assert [axiom for axiom, _, _, _ in NU_ROW_MUTATIONS] == [row[0] for row in nu_rows(iso.coring, iso.smash, iso)]

    @pytest.mark.parametrize("axiom, part, name, witness", NU_ROW_MUTATIONS,
                             ids=[axiom for axiom, _, _, _ in NU_ROW_MUTATIONS])
    def test_perturbation_breaks_the_row(self, ent_qc2, axiom, part, name, witness):
        def row(coring, smash, iso):
            return next(r for r in nu_rows(coring, smash, iso) if r[0] == axiom)

        iso = nu_iso(build_coring(ent_qc2))
        objects = {"coring": iso.coring, "smash": iso.smash, "iso": iso}
        assert compare("nu_iso", *row(**objects)) is None
        objects[part] = replace(objects[part], **{name: corrupt(getattr(objects[part], name), 0, 0)})
        rep = compare("nu_iso", *row(**objects))
        assert rep is not None and rep.witness == witness
        assert rep.lhs is not None and rep.rhs is not None

    @pytest.mark.parametrize("name", ["hopfmod_qc2_entwining", "flip_qc2"])
    def test_multiplicativity_reads_the_coring_comul(self, name):
        """Here every +1 on the coring's comul changes the *_l product, so the nu oracle fails."""
        coring = build_coring(catalog_get(name))
        iso = nu_iso(coring)
        m = coring.comul
        for i in range(m.rows):
            for j in range(m.cols):
                assert nu_verdict(replace(coring, comul=corrupt(m, i, j)), iso.smash, iso.nu)[0] == "nu-multiplicative"

    def test_build_smash_contracts_the_table_once(self, ent_qc2, monkeypatch):
        """build_smash contracts its table once, and the oracle's twisted-product row passes on it."""
        from entwine import entwining

        calls = []

        def counted(e):
            calls.append(e)
            return twisted_product(e)

        monkeypatch.setattr(entwining, "twisted_product", counted)
        smash = build_smash(ent_qc2)
        assert len(calls) == 1
        assert verify_smash(smash).passed

    def test_twisted_product_ties_the_smash_table_to_psi(self):
        """A smash table off the psi-twisted product can still be an A-ring: twisted-product catches it, as does nu."""
        iso = nu_iso(build_coring(catalog_get("flip_qc2_dual")))
        bad = replace(iso.smash, mul=corrupt(iso.smash.mul, 3, 15))
        assert iso.smash.mul[3, 15] == 0
        assert first_failure("verify_smash", smash_laws(bad)).passed
        assert verify_smash(bad).summary() == \
            "verify_smash: FAIL twisted-product at basis (3, 3) lhs={2: 1, 3: 1} rhs={2: 1}"
        assert nu_verdict(iso.coring, bad, iso.nu) == ("nu-multiplicative", (3, 3))


def dense_hopf_module_entwining():
    """The Hopf-module entwining of F_7[C_4] rebased by a fixed unimodular matrix: smash ring of dim 16."""
    from entwine.catalog import hopf_module_dk
    from entwine.doikoppinen import dk_entwining

    h = cyclic_group_algebra(Field(7), 4)
    return dk_entwining(hopf_module_dk(rebase(h, unimodular(h.field, h.dim, random.Random("dense rows")))))


# rows that this entwining reads through no packed stage: twisted-product compares two laid-out tables, each
# a term's only stage; after their first stage, right-action-unit reads the columns of right_action (212
# nonzeros in 64 columns) and nu-inv-nu those of nu_inv (one nonzero each), below 8 nonzeros per line
NEVER_PACKED = {"right-action-unit", "twisted-product", "nu-inv-nu"}


class TestDenseRowsBite:
    """On a dense entwining over F_7, a +1 in one map fails each smash and nu row as the laid-out reference does."""

    @pytest.fixture(scope="class")
    def iso(self):
        return nu_iso(build_coring(dense_hopf_module_entwining()))

    def test_the_entwining_is_dense(self, iso):
        mul = iso.smash.mul
        assert 4 * sum(1 for v in mul.data if v) >= 3 * mul.rows * mul.cols

    @pytest.mark.parametrize("axiom, name", [(axiom, name) for part, axiom, name, _ in ROW_MUTATIONS
                                              if part == "smash"],
                             ids=[axiom for part, axiom, _, _ in ROW_MUTATIONS if part == "smash"])
    def test_smash_row(self, iso, axiom, name):
        row = next(r for r in smash_rows(iso.smash) if r[0] == axiom)
        assert compare("verify_smash", *row) is None
        bad = replace(iso.smash, **{name: corrupt(getattr(iso.smash, name), 0, 0)})
        row = next(r for r in smash_rows(bad) if r[0] == axiom)
        self.check(axiom, row)

    @pytest.mark.parametrize("axiom, part, name", [(axiom, part, name) for axiom, part, name, _ in NU_ROW_MUTATIONS],
                             ids=[axiom for axiom, _, _, _ in NU_ROW_MUTATIONS])
    def test_nu_row(self, iso, axiom, part, name):
        def row(coring, smash, iso):
            return next(r for r in nu_rows(coring, smash, iso) if r[0] == axiom)

        objects = {"coring": iso.coring, "smash": iso.smash, "iso": iso}
        assert compare("nu_iso", *row(**objects)) is None
        objects[part] = replace(objects[part], **{name: corrupt(getattr(objects[part], name), 0, 0)})
        self.check(axiom, row(**objects))

    @staticmethod
    def check(axiom, row):
        rep = compare("op", *row)
        assert rep is not None and rep == compare_reference("op", *row)
        assert bool(packed_stages(row[1], row[2])) == (axiom not in NEVER_PACKED)


@pytest.mark.parametrize("argv, packed", [
    (["check"], 16),
    (["smash", "--name", "dense_f7c4"], 12),
    (["coring", "--name", "dense_f7c4"], 12),
], ids=["check", "smash", "coring"])
def test_dense_commands_read_packed_stages(tmp_path, monkeypatch, argv, packed):
    """On the dense F_7 document of the CI's dense smoke run, check reads the Hopf algebra's and the entwining's laws
    through packed stages, and the entwining's algebra and coalgebra, the Hopf algebra itself, are not read again;
    smash and coring read only verify_entwining's, and none of what they build."""
    from entwine import exactlin
    from entwine.catalog import hopf_module_dk
    from entwine.cli import run_command
    from entwine.doikoppinen import dk_entwining
    from entwine.document import document_from_objects, emit_document

    h = cyclic_group_algebra(Field(7), 4)
    e = dk_entwining(hopf_module_dk(rebase(h, unimodular(h.field, h.dim, random.Random("dense smoke")))))
    path = tmp_path / "dense.json"
    path.write_text(emit_document(document_from_objects(h.field, {"dense_f7c4": e})))
    calls = []
    stage = exactlin._packed_stage
    monkeypatch.setattr(exactlin, "_packed_stage", lambda *args: calls.append(args) or stage(*args))
    code, _ = run_command([argv[0], str(path), *argv[1:]])
    assert code == 0 and len(calls) == packed


# (catalog entwined module, map bumped, entry given +1, the whole first failure)
ENTWINED_MODULE_BITES = [
    ("hopfmod_sweedler4", "action", (1, 6),
     "verify_entwined_module: FAIL action[action-associativity] at basis (0, 1, 2) lhs={1: 1, 3: 1} rhs={3: 1}"),
    ("hopfmod_sweedler4", "coaction", (9, 2),
     "verify_entwined_module: FAIL coaction[coaction-coassociativity] at basis (2,) "
     "lhs={22: 1, 24: 1, 25: 1, 32: 1, 33: 1, 36: 1, 37: 1} rhs={22: 1, 24: 1, 32: 1, 37: 1}"),
    ("hopfmod_sweedler4", "coaction", (3, 3),
     "verify_entwined_module: FAIL psi-compatibility at basis (0, 3) lhs={3: 2, 13: 1} rhs={3: 1, 13: 1}"),
]


class TestEveryEntwinedModuleLawBites:
    """A +1 on a module's action or coaction makes each of these rows the first failure of verify_entwined_module.

    No single bump reaches action-unit or coaction-counit first; test_law_rows pins those at row level.
    """

    @pytest.mark.parametrize("name, attr, entry, summary", ENTWINED_MODULE_BITES,
                             ids=[f"{n}-{a}-{s.split()[2]}" for n, a, _, s in ENTWINED_MODULE_BITES])
    def test_bump_fails_the_law(self, name, attr, entry, summary):
        m = catalog_get(name)
        bad = replace(m, **{attr: corrupt(getattr(m, attr), *entry)})
        assert verify_entwined_module(m.entwining, bad).summary() == summary


class TestEntwinedModules:
    def test_flip_trivial_coaction(self, qc2):
        c = grouplike_dim1()
        e = flip_entwining(qc2, c)
        m = EntwinedModulePresentation(e, 2, qc2.mul, Matrix.identity(QQ, 2))
        assert verify_entwined_module(e, m).passed

    def test_regular_hopf_module(self, ent_qc2):
        m = catalog_get("hopfmod_qc2")
        assert verify_entwined_module(ent_qc2, m).passed

    def test_corrupted_coaction_fails(self, ent_qc2):
        m = catalog_get("hopfmod_qc2")
        bad = EntwinedModulePresentation(ent_qc2, m.dim, m.action, corrupt(m.coaction, 0, 0))
        rep = verify_entwined_module(ent_qc2, bad)
        assert not rep.passed
        assert rep.witness is not None

    def test_failure_summaries(self, ent_qc2):
        """The action, then the coaction, then psi-compatibility, which the flip entwining breaks."""
        m = catalog_get("hopfmod_qc2")
        flip = catalog_get("flip_qc2")
        cases = (
            (ent_qc2, corrupt(m.action, 0, 0), m.coaction,
             "action[action-associativity] at basis (0, 0, 0) lhs={0: 4} rhs={0: 2}"),
            (ent_qc2, m.action, corrupt(m.coaction, 0, 0),
             "coaction[coaction-coassociativity] at basis (0,) lhs={0: 4} rhs={0: 2}"),
            (flip, m.action, m.coaction, "psi-compatibility at basis (0, 1) lhs={3: 1} rhs={2: 1}"),
        )
        for e, action, coaction, failure in cases:
            rep = verify_entwined_module(e, EntwinedModulePresentation(e, m.dim, action, coaction))
            assert rep.summary() == f"verify_entwined_module: FAIL {failure}"


class TestRoundtrip:
    def test_dim1_roundtrip_trivial(self, qc2):
        c = grouplike_dim1()
        e = flip_entwining(qc2, c)
        m = EntwinedModulePresentation(e, 2, qc2.mul, Matrix.identity(QQ, 2))
        sm = entwined_to_smash_module(e, m)
        assert sm.action == qc2.mul  # smash = A for dim-1 grouplike C
        back = smash_module_to_entwined(e, sm)
        assert back.action == m.action and back.coaction == m.coaction

    @pytest.mark.parametrize("name", ["hopfmod_qc2", "hopfmod_qc3", "hopfmod_f5c5",
                                      "hopfmod_sweedler4", "longmod_qc2"])
    def test_catalog_modules_roundtrip(self, name):
        m = catalog_get(name)
        e = m.entwining
        sm = entwined_to_smash_module(e, m)
        assert verify_structure("module", sm).passed
        back = smash_module_to_entwined(e, sm)
        assert back.action == m.action
        assert back.coaction == m.coaction

    def test_the_way_back_eliminates_once(self, monkeypatch):
        """smash_module_to_entwined runs one elimination and reads injectivity off its rank, before consistency.

        A zero action makes alpha zero and the zero coaction a solution; a 1 at action[0, 2] leaves alpha zero
        and no coaction solving, so only the order of the checks names injectivity; a 1 added at action[0, 0] of
        the smash module of hopfmod_sweedler4 keeps alpha injective and leaves no coaction solving.
        """
        from entwine import exactlin
        from entwine.exactlin import PresentationError

        m = catalog_get("hopfmod_sweedler4")
        e = m.entwining
        sm = entwined_to_smash_module(e, m)
        eliminate, calls = exactlin._eliminate, []
        monkeypatch.setattr(exactlin, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
        assert smash_module_to_entwined(e, sm).coaction == m.coaction
        assert len(calls) == 1
        zero = Matrix(QQ, sm.action.rows, sm.action.cols, [0] * (sm.action.rows * sm.action.cols))
        for action in (zero, corrupt(zero, 0, 2)):
            with pytest.raises(PresentationError, match=r"^alpha map is not injective; cannot recover a coaction$"):
                smash_module_to_entwined(e, replace(sm, action=action))
        with pytest.raises(PresentationError, match=r"^module is not rational over the smash ring$"):
            smash_module_to_entwined(e, replace(sm, action=corrupt(sm.action, 0, 0)))
        assert len(calls) == 4

    def test_zero_module(self, ent_qc2):
        z = EntwinedModulePresentation(ent_qc2, 0, Matrix(QQ, 0, 0, []), Matrix(QQ, 0, 0, []))
        sm = entwined_to_smash_module(ent_qc2, z)
        assert sm.dim == 0
        back = smash_module_to_entwined(ent_qc2, sm)
        assert back.dim == 0

    def test_randomized_twists_roundtrip(self, ent_qc2, ent_h4, rng):
        from entwine.exactlin import invert
        from conftest import random_invertible

        for name, e in (("hopfmod_qc2", ent_qc2), ("hopfmod_sweedler4", ent_h4)):
            base = catalog_get(name)
            for _ in range(5):
                t = random_invertible(QQ, rng, base.dim)
                tinv = invert(t)
                m = EntwinedModulePresentation(
                    e, base.dim,
                    t @ base.action @ kron(tinv, Matrix.identity(QQ, e.algebra.dim)),
                    kron(t, Matrix.identity(QQ, e.coalgebra.dim)) @ base.coaction @ tinv)
                assert verify_entwined_module(e, m).passed
                sm = entwined_to_smash_module(e, m)
                back = smash_module_to_entwined(e, sm)
                assert back.action == m.action and back.coaction == m.coaction

    @pytest.mark.parametrize("functor", ("to_smash",))
    def test_each_functor_builds_a_ring_the_oracle_passes(self, functor, monkeypatch):
        """The functor to smash modules builds only the ring's table and unit, which read no law, and not build_smash:
        its algebra is the table and unit of build_smash, the oracle passes on that ring for every catalog module, and
        a table with +1 at mul[0, 0] fails the algebra the functor builds at associativity.  The way back builds no
        ring (test_round_trip_contracts_the_table_once)."""
        import entwine.entwining as entwining

        modules = [catalog_get(name) for name in catalog_names()
                   if isinstance(catalog_get(name), EntwinedModulePresentation)]
        build, table = entwining.build_smash, entwining.twisted_product

        def refuse(e):
            raise AssertionError("the functor built the whole smash ring")

        monkeypatch.setattr(entwining, "build_smash", refuse)
        for m in modules:
            ring = entwined_to_smash_module(m.entwining, m).algebra
            smash = build(m.entwining)
            assert (ring.mul, ring.unit) == (smash.mul, smash.unit) and verify_smash(smash).passed
        assert len(modules) == 5
        monkeypatch.setattr(entwining, "twisted_product", lambda e: corrupt(table(e), 0, 0))
        m = catalog_get("hopfmod_qc2")
        assert verify_structure("algebra", entwined_to_smash_module(m.entwining, m).algebra).summary() == (
            "verify_structure[algebra]: FAIL associativity at basis (0, 0, 2) lhs={2: 2} rhs={2: 1}")

    def test_round_trip_contracts_the_table_once(self, monkeypatch):
        """A round trip through the two functors contracts twisted_product once, in entwined_to_smash_module, which
        builds the table and unit and no left action: the way back reads only na * nc and the unit embedding, and
        builds no ring and no left action."""
        import entwine.entwining as entwining

        calls = {"twisted_product": 0, "twisted_left_action": 0, "build_smash": 0}

        def counting(name, fn):
            def wrapper(e):
                calls[name] += 1
                return fn(e)
            return wrapper

        for name in calls:
            monkeypatch.setattr(entwining, name, counting(name, getattr(entwining, name)))
        names = [name for name in catalog_names() if isinstance(catalog_get(name), EntwinedModulePresentation)]
        assert len(names) == 5
        for name in names:
            m = catalog_get(name)
            sm = entwined_to_smash_module(m.entwining, m)
            assert calls == {"twisted_product": 1, "twisted_left_action": 0, "build_smash": 0}, name
            back = smash_module_to_entwined(m.entwining, sm)
            assert calls == {"twisted_product": 1, "twisted_left_action": 0, "build_smash": 0}, name
            assert (back.action, back.coaction) == (m.action, m.coaction), name
            calls.update(dict.fromkeys(calls, 0))

    def test_unit_embedding_is_algebra_map(self, ent_qc2, ent_h4):
        from entwine.entwining import smash_algebra, smash_unit_embedding
        from entwine.structures import algebra_morphism_report

        for e in (ent_qc2, ent_h4):
            smash = build_smash(e)
            emb = smash_unit_embedding(e)
            assert algebra_morphism_report(e.algebra, smash_algebra(e, smash.mul), emb).passed

    def test_smash_to_entwined_from_scratch(self, ent_qc2):
        # a module given directly over the smash ring comes back entwined
        smash = build_smash(ent_qc2)
        m = catalog_get("hopfmod_qc2")
        sm = entwined_to_smash_module(ent_qc2, m)
        # twist the smash module by a basis change and recover a verified module
        from conftest import random_invertible
        import random

        rng = random.Random(7)
        from entwine.exactlin import invert

        t = random_invertible(QQ, rng, sm.dim)
        twisted = t @ sm.action @ kron(invert(t), Matrix.identity(QQ, smash.dim))
        tm = ModulePresentation(sm.dim, sm.algebra, twisted, "right")
        assert verify_structure("module", tm).passed
        back = smash_module_to_entwined(ent_qc2, tm)
        assert verify_entwined_module(ent_qc2, back).passed


class TestHom:
    def test_identity_and_zero(self, ent_qc2):
        m = catalog_get("hopfmod_qc2")
        assert hom_entwined(ent_qc2, m, m, Matrix.identity(QQ, 2)).passed
        assert hom_entwined(ent_qc2, m, m, zeros(QQ, 2, 2)).passed

    def test_hom_basis_dimension(self, ent_qc2):
        # endomorphisms of the regular Hopf module: computed by the joint solve
        m = catalog_get("hopfmod_qc2")
        basis = hom_entwined_basis(ent_qc2, m, m)
        assert len(basis) == 1
        for f in basis:
            assert hom_entwined(ent_qc2, m, m, f).passed

    def test_hom_closed_under_composition(self, ent_qc2, ent_h4):
        for name, e in (("hopfmod_qc2", ent_qc2), ("hopfmod_sweedler4", ent_h4)):
            m = catalog_get(name)
            basis = hom_entwined_basis(e, m, m)
            span_rows = [f.data for f in basis]
            from entwine.exactlin import Subspace

            span = Subspace.from_spanning(QQ, m.dim * m.dim, span_rows)
            for f in basis:
                for g in basis:
                    assert span.contains(Matrix.column(QQ, (f @ g).data))

    def test_non_morphism_detected(self, ent_qc2):
        m = catalog_get("hopfmod_qc2")
        bad = Matrix.from_rows(QQ, [[QQ.one(), QQ.one()], [QQ.zero(), QQ.zero()]])
        assert not hom_entwined(ent_qc2, m, m, bad).passed
