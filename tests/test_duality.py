from dataclasses import replace

import pytest

from entwine.exactlin import Matrix, QQ, PresentationError, Subspace
from entwine.report import ClosureViolation
from entwine.structures import dualize_structure, make_structure, verify_structure
from entwine.entwining import (
    EntwinedModulePresentation,
    flip_entwining,
    hom_entwined,
    hom_entwined_basis,
    hom_entwined_system,
    verify_entwined_module,
    verify_entwining,
)
from entwine.duality import (
    adjunction_check,
    double_dual_comparison,
    dual_entwining,
    dual_entwining_morphism,
    dual_module_r,
    dual_module_upper_r,
    restrict_dual_algebra,
    restrict_dual_coalgebra,
)
from entwine.catalog import catalog_get, free_flip_module
from conftest import (
    corrupt,
    dual_module_r_by_permutes,
    dual_module_upper_r_by_permutes,
    dual_morphism_r,
    hom_entwined_system_by_kron,
)


def proper_flip_dual(n: int, c):
    """The flip on A = Q^n against C, dualized with C~ spanned by the first n - 1 coordinate functionals of A*."""
    a = make_structure("algebra", QQ, n, None, mul=[(i, i, i, 1) for i in range(n)], unit=[1] * n)
    ctil = Matrix.from_rows(QQ, [[int(i == j) for j in range(n)] for i in range(n - 1)])
    return dual_entwining(flip_entwining(a, c), ctil_basis=ctil)


def one_dim_coalgebra():
    return make_structure("coalgebra", QQ, 1, ("c",), comul=[(0, 0, 0, 1)], counit=[1])


def bump_first(m: Matrix) -> Matrix:
    """m with one added to its first entry."""
    data = list(m.data)
    data[0] = m.field.add(data[0], m.field.one())
    return Matrix(m.field, m.rows, m.cols, data)


@pytest.fixture(scope="module")
def ent_qc2():
    return catalog_get("hopfmod_qc2_entwining")


@pytest.fixture(scope="module")
def ent_h4():
    return catalog_get("hopfmod_sweedler4_entwining")


class TestDualEntwining:
    def test_flip_dualizes_to_flip(self):
        qc2 = catalog_get("qc2")
        e = flip_entwining(qc2, qc2)
        d = dual_entwining(e)
        from entwine.exactlin import swap_matrix

        assert d.dual.psi == swap_matrix(QQ, 2, 2)

    @pytest.mark.parametrize("name", ["flip_qc2", "flip_qc3", "flip_f5c5", "flip_sweedler4",
                                      "flip_qc2_dual", "flip_trivial",
                                      "hopfmod_qc2_entwining", "hopfmod_qc3_entwining",
                                      "hopfmod_f5c5_entwining", "hopfmod_sweedler4_entwining",
                                      "alt_qc2_entwining"])
    def test_full_duals_always_close(self, name):
        e = catalog_get(name)
        d = dual_entwining(e)
        assert verify_entwining(d.dual).passed

    def test_full_duals_are_the_identity_bases_dual(self, monkeypatch):
        # by transposition, with no rank and no solve: the same datum as the solve on identity bases
        from entwine import duality
        from entwine.catalog import catalog_names
        from entwine.entwining import EntwiningPresentation

        entwinings = [e for name in catalog_names() if isinstance(e := catalog_get(name), EntwiningPresentation)]
        assert len(entwinings) == 11
        solved = [dual_entwining(e, Matrix.identity(e.field, e.coalgebra.dim),
                                 Matrix.identity(e.field, e.algebra.dim)) for e in entwinings]

        def refuse(*args):
            raise AssertionError("a full dual eliminates nothing")

        monkeypatch.setattr(duality, "rank", refuse)
        monkeypatch.setattr(duality, "express", refuse)
        for e, d in zip(entwinings, solved):
            assert dual_entwining(e) == d

    def test_dual_components_match_structure_duals(self, ent_qc2):
        d = dual_entwining(ent_qc2)
        cstar = dualize_structure("coalgebra", ent_qc2.coalgebra)
        astar = dualize_structure("algebra", ent_qc2.algebra)
        assert d.atil.mul == cstar.mul and d.atil.unit == cstar.unit
        assert d.ctil.comul == astar.comul and d.ctil.counit == astar.counit

    def test_missing_counit_is_precondition_error(self, ent_qc2):
        # span{d_g} misses the counit of C
        atil = Matrix.from_rows(QQ, [[QQ.zero(), QQ.one()]])
        with pytest.raises(PresentationError):
            dual_entwining(ent_qc2, atil_basis=atil)

    def test_proper_subobjects(self):
        # flip on A = Q x Q against the one-dimensional coalgebra span{c}
        d = proper_flip_dual(2, one_dim_coalgebra())
        assert d.ctil.dim == 1
        assert verify_entwining(d.dual).passed

    def test_closure_violation_is_reported(self):
        # Atil too small to absorb psi* when psi twists by the group action:
        # take the Hopf-module entwining of qc2 and a subalgebra of C* missing d_g
        e = catalog_get("hopfmod_qc2_entwining")
        # span{eps} is a subalgebra of C* containing the counit
        atil = Matrix.from_rows(QQ, [[QQ.one(), QQ.one()]])
        ctil = Matrix.identity(QQ, 2)
        try:
            d = dual_entwining(e, atil_basis=atil, ctil_basis=ctil)
        except ClosureViolation as exc:
            assert exc.report.axiom == "closure-violated"
        else:
            # for this particular entwining the closure happens to hold; force
            # a violation with the coalgebra side instead
            ctil = Matrix.from_rows(QQ, [[QQ.one(), QQ.of(2)]])
            with pytest.raises((ClosureViolation, PresentationError)):
                dual_entwining(e, atil_basis=atil, ctil_basis=ctil)

    def test_double_dual_comparison_runs(self, ent_qc2):
        rep = double_dual_comparison(ent_qc2)
        assert rep.passed
        assert rep.detail("agrees") in ("True", "False")


class TestDualModules:
    @pytest.mark.parametrize("name", ["hopfmod_qc2", "hopfmod_qc3", "hopfmod_f5c5",
                                      "hopfmod_sweedler4", "longmod_qc2"])
    def test_full_duals_give_whole_dual_space(self, name):
        m = catalog_get(name)
        d = dual_entwining(m.entwining)
        mr = dual_module_r(d, m)
        assert mr.dim == m.dim
        assert verify_entwined_module(d.dual, mr.module).passed

    def test_one_core_agrees_with_the_functors_by_permutes(self):
        """M_r and K^r come from one core; both equal the functors written apart, basis, action and coaction."""
        cases = []
        for name in ("hopfmod_qc2", "hopfmod_qc3", "hopfmod_f5c5", "hopfmod_sweedler4", "longmod_qc2"):
            m = catalog_get(name)
            d = dual_entwining(m.entwining)
            cases += [(d, m), (d, dual_module_r(d, m).module)]
        # proper dual pairs with a nonzero module: M_r is a proper part of M*; on the second, A~ and M_r are
        # too big for a right action built with its tensor factors swapped to pass
        for n, c, dims in ((2, one_dim_coalgebra(), (1, 2)), (3, catalog_get("qc2"), (4, 6))):
            d = proper_flip_dual(n, c)
            m = free_flip_module(d.source.algebra, c)
            mr = dual_module_r(d, m)
            assert (mr.dim, m.dim) == dims
            assert verify_entwined_module(d.dual, mr.module).passed
            cases += [(d, m), (d, mr.module)]
        for d, x in cases:
            if x.entwining == d.source:
                assert dual_module_r(d, x) == dual_module_r_by_permutes(d, x)
            else:
                assert dual_module_upper_r(d, x) == dual_module_upper_r_by_permutes(d, x)

    def test_zero_module(self, ent_qc2):
        d = dual_entwining(ent_qc2)
        z = EntwinedModulePresentation(ent_qc2, 0, Matrix(QQ, 0, 0, []), Matrix(QQ, 0, 0, []))
        assert dual_module_r(d, z).dim == 0

    def test_upper_r_inverse_direction(self, ent_qc2):
        d = dual_entwining(ent_qc2)
        m = catalog_get("hopfmod_qc2")
        mr = dual_module_r(d, m)
        back = dual_module_upper_r(d, mr.module)
        assert back.dim == m.dim
        assert verify_entwined_module(ent_qc2, back.module).passed

    def test_atil_too_small_fails_alpha(self, ent_qc2):
        from entwine.structures import AlphaConditionError

        # dual data where Atil = span{eps} has rank 1 < dim C = 2
        e = catalog_get("flip_qc2")
        atil = Matrix.from_rows(QQ, [[QQ.one(), QQ.one()]])
        d = dual_entwining(e, atil_basis=atil)
        k = EntwinedModulePresentation(d.dual, 1, Matrix.identity(QQ, 1), _trivial_coaction(d))
        with pytest.raises(AlphaConditionError):
            dual_module_upper_r(d, k)

    def test_full_dual_transposes_the_action(self, ent_qc2):
        # with full duals, the dual-coalgebra coaction of M_r transposes the action
        m = catalog_get("hopfmod_qc2")
        d = dual_entwining(ent_qc2)
        mr = dual_module_r(d, m)
        na = ent_qc2.algebra.dim
        coact = mr.module.coaction
        for r in range(m.dim):
            for j in range(na):
                for s in range(m.dim):
                    assert coact[r * na + j, s] == m.action[s, r * na + j]


def _trivial_coaction(d):
    # rho(k) = k (x) (evaluation-at-one functional, expressed in Ctil)
    vec = d.ctil_basis @ d.source.algebra.unit
    return Matrix(d.dual.field, d.dual.coalgebra.dim, 1, vec.col(0))


class TestAdjunction:
    @pytest.mark.parametrize("name", ["hopfmod_qc2", "hopfmod_sweedler4"])
    def test_regular_hopf_modules(self, name):
        m = catalog_get(name)
        d = dual_entwining(m.entwining)
        k = dual_module_r(d, m).module
        rep = adjunction_check(d, m, k)
        assert rep.passed

    def test_bad_inputs_are_blamed_before_duals_are_built(self):
        m = catalog_get("hopfmod_qc2")
        d = dual_entwining(m.entwining)
        bad_m = replace(m, action=bump_first(m.action))
        assert adjunction_check(d, bad_m).summary() == (
            "adjunction_check: FAIL module[action[action-associativity]] at basis (0, 0, 0) lhs={0: 4} rhs={0: 2}")
        k = dual_module_r(d, m).module
        rep = adjunction_check(d, m, replace(k, action=bump_first(k.action)))
        assert rep.axiom == "dual-module[action[action-associativity]]"
        assert adjunction_check(d, m).summary() == adjunction_check(d, m, k).summary() == \
            "adjunction_check: PASS hom_dim=1"

    def test_zero_modules(self, ent_qc2):
        d = dual_entwining(ent_qc2)
        z = EntwinedModulePresentation(ent_qc2, 0, Matrix(QQ, 0, 0, []), Matrix(QQ, 0, 0, []))
        zk = EntwinedModulePresentation(d.dual, 0, Matrix(QQ, 0, 0, []), Matrix(QQ, 0, 0, []))
        rep = adjunction_check(d, z, zk)
        assert rep.passed
        assert rep.detail("hom_dim") == "0"

    def test_mixed_sizes(self, ent_qc2):
        m = catalog_get("hopfmod_qc2")
        d = dual_entwining(ent_qc2)
        z = EntwinedModulePresentation(d.dual, 0, Matrix(QQ, 0, 0, []), Matrix(QQ, 0, 0, []))
        assert adjunction_check(d, m, z).passed

    def test_twisted_k(self, ent_h4, rng):
        from entwine.exactlin import invert, kron
        from conftest import random_invertible

        m = catalog_get("hopfmod_sweedler4")
        d = dual_entwining(ent_h4)
        k = dual_module_r(d, m).module
        t = random_invertible(QQ, rng, k.dim)
        tinv = invert(t)
        twisted = EntwinedModulePresentation(
            d.dual, k.dim,
            t @ k.action @ kron(tinv, Matrix.identity(QQ, d.atil.dim)),
            kron(t, Matrix.identity(QQ, d.ctil.dim)) @ k.coaction @ tinv)
        assert verify_entwined_module(d.dual, twisted).passed
        assert adjunction_check(d, m, twisted).passed

    def test_prime_field_adjunction(self):
        m = catalog_get("hopfmod_f5c5")
        d = dual_entwining(m.entwining)
        k = dual_module_r(d, m).module
        assert adjunction_check(d, m, k).passed


class TestHomSystemByFactors:
    def test_agrees_with_the_kron_layout(self, rng):
        """hom_entwined_system written from the nonzeros equals the kron/permute layout: on the catalog entwined
        modules, their M_r and K^r, a proper dual pair, and seeded +1 bumps of an action or a coaction."""
        triples = []
        for name in ("hopfmod_qc2", "hopfmod_qc3", "hopfmod_f5c5", "hopfmod_sweedler4", "longmod_qc2"):
            m = catalog_get(name)
            d = dual_entwining(m.entwining)
            mr = dual_module_r(d, m).module
            kr = dual_module_upper_r(d, mr).module
            triples += [(d.source, m, m), (d.dual, mr, mr), (d.source, m, kr), (d.source, kr, m)]
            for _ in range(4):
                part = rng.choice(("action", "coaction"))
                x = getattr(m, part)
                bumped = replace(m, **{part: corrupt(x, rng.randrange(x.rows), rng.randrange(x.cols))})
                triples += [(d.source, m, bumped), (d.source, bumped, m)]
        d = proper_flip_dual(3, catalog_get("qc2"))
        m = free_flip_module(d.source.algebra, d.source.coalgebra)
        mr = dual_module_r(d, m).module
        kr = dual_module_upper_r(d, mr).module
        triples += [(d.source, m, kr), (d.source, kr, m), (d.dual, mr, mr)]
        assert {(x.dim, y.dim) for _, x, y in triples if x.dim != y.dim} == {(6, 4), (4, 6)}
        for e, x, y in triples:
            assert hom_entwined_system(e, x, y) == hom_entwined_system_by_kron(e, x, y)


class TestFunctoriality:
    def test_identity_and_composition(self, ent_qc2):
        m = catalog_get("hopfmod_qc2")
        d = dual_entwining(ent_qc2)
        mr = dual_module_r(d, m)
        endos = hom_entwined_basis(ent_qc2, m, m)
        # (id)_r = id
        ident = dual_morphism_r(Matrix.identity(QQ, m.dim), mr, mr)
        assert ident == Matrix.identity(QQ, mr.dim)
        for f in endos:
            for g in endos:
                fg_r = dual_morphism_r(f @ g, mr, mr)
                f_r = dual_morphism_r(f, mr, mr)
                g_r = dual_morphism_r(g, mr, mr)
                assert fg_r == g_r @ f_r
                rep = hom_entwined(d.dual, mr.module, mr.module, f_r)
                assert rep.passed


class TestDualEntwiningMorphism:
    def test_identity(self, ent_qc2):
        d = dual_entwining(ent_qc2)
        i2 = Matrix.identity(QQ, 2)
        rep = dual_entwining_morphism(d, d, i2, i2)
        assert rep.passed

    def test_flip_to_flip(self):
        qc2 = catalog_get("qc2")
        e = flip_entwining(qc2, qc2)
        d = dual_entwining(e)
        gamma = qc2.antipode
        delta = qc2.antipode
        assert dual_entwining_morphism(d, d, gamma, delta).passed

    def test_hopf_automorphism(self, ent_qc2):
        d = dual_entwining(ent_qc2)
        # the antipode of qc2 is a Hopf automorphism (commutative, cocommutative)
        s = catalog_get("qc2").antipode
        assert dual_entwining_morphism(d, d, s, s).passed


def _rows(field, rows):
    return Matrix.from_rows(field, [[field.of(x) for x in r] for r in rows])


class TestFailurePaths:
    """Each closure failure names the first basis element (or pair) outside the span."""

    def test_dual_algebra_not_closed(self):
        with pytest.raises(PresentationError,
                           match=r"^not closed under convolution at basis pair \(1, 1\)$"):
            restrict_dual_algebra(catalog_get("qc3"), _rows(QQ, [[1, 1, 1], [1, 2, 0]]))

    def test_dual_algebra_not_closed_at_asymmetric_pair(self):
        # convolution on sweedler4* is not commutative; (0, 1) fails before (1, 0)
        with pytest.raises(PresentationError,
                           match=r"^not closed under convolution at basis pair \(0, 1\)$"):
            restrict_dual_algebra(catalog_get("sweedler4"),
                                  _rows(QQ, [[1, 0, -1, -1], [0, -1, 0, 0], [1, 1, 0, 0]]))

    def test_dual_algebra_missing_counit(self, ent_qc2):
        with pytest.raises(PresentationError, match=r"^subalgebra of C\* must contain the counit$"):
            dual_entwining(ent_qc2, atil_basis=_rows(QQ, [[0, 1]]))

    def test_dependent_rows_are_an_input_error(self):
        # flip_qc3: A~ = span{eps, 2 eps} would close, and C~ = A* spanned by four rows would too
        e = catalog_get("flip_qc3")
        with pytest.raises(PresentationError, match=r"^the rows of atil_basis are linearly dependent$"):
            dual_entwining(e, atil_basis=_rows(QQ, [[1, 1, 1], [2, 2, 2]]))
        with pytest.raises(PresentationError, match=r"^the rows of ctil_basis are linearly dependent$"):
            dual_entwining(e, ctil_basis=_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]))

    def test_dual_coalgebra_not_closed(self):
        with pytest.raises(PresentationError,
                           match=r"^not a subcoalgebra of the dual at basis row 0$"):
            restrict_dual_coalgebra(catalog_get("qc3"), _rows(QQ, [[1, 2, 0]]))

    def test_dual_entwining_closure_witness(self, ent_qc2):
        with pytest.raises(ClosureViolation) as exc:
            dual_entwining(ent_qc2, ctil_basis=_rows(QQ, [[1, 1]]))
        assert exc.value.report.summary() == (
            "dual_entwining: FAIL closure-violated at basis (0, 0) lhs=[1, 0, 0, 1] "
            "rhs=span(A~ (x) C~)")

    def test_dual_entwining_closure_witness_asymmetric(self):
        # C~ has one basis row and A~ two, so the witness (0, 1) is column 1
        with pytest.raises(ClosureViolation) as exc:
            dual_entwining(catalog_get("alt_qc2_entwining"), ctil_basis=_rows(QQ, [[0, -1]]))
        assert exc.value.report.summary() == (
            "dual_entwining: FAIL closure-violated at basis (0, 1) lhs=[0, 0, -1, 0] "
            "rhs=span(A~ (x) C~)")

    def test_delta_transpose_inclusion(self):
        e = catalog_get("flip_qc3")
        i3 = Matrix.identity(QQ, 3)
        small = dual_entwining(e, atil_basis=_rows(QQ, [[1, 1, 1], [1, 0, 0]]))
        rep = dual_entwining_morphism(small, dual_entwining(e), i3, i3)
        assert rep.summary() == "dual_entwining_morphism: FAIL delta-transpose-inclusion at basis (1,)"

    def test_gamma_transpose_inclusion(self):
        e = catalog_get("flip_qc3")
        i3 = Matrix.identity(QQ, 3)
        small = dual_entwining(e, ctil_basis=_rows(QQ, [[1, 1, 1]]))
        full = dual_entwining(e, ctil_basis=_rows(QQ, [[1, 1, 1], [1, -1, 0], [0, 1, -1]]))
        rep = dual_entwining_morphism(small, full, i3, i3)
        assert rep.summary() == "dual_entwining_morphism: FAIL gamma-transpose-inclusion at basis (1,)"
