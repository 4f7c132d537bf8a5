"""The smash, Koppinen and Hom tables equal their per-basis definitions.

Each reference builds its table one basis element (or pair) at a time from
the defining formula, as a composition of maps laid out with @ and kron.
The package builds the same tables as contractions of the structure
constants; they must agree as Matrix on every catalog entwining, DK triple
and module pair, and on seeded random sparse maps that satisfy no axiom,
with dim A != dim C so that a swap of the A and C axes shows.
"""

from __future__ import annotations

import random

import pytest

from entwine.exactlin import Field, Matrix, QQ, kron
from entwine.structures import make_structure
from entwine.entwining import (
    EntwinedModulePresentation,
    EntwiningPresentation,
    build_smash,
    entwined_to_smash_module,
    hom_entwined_system,
    twisted_left_action,
    twisted_product,
)
from entwine.doikoppinen import DKStructure, koppinen_table
from entwine.catalog import catalog_get, catalog_names, free_flip_module
from conftest import col_matrix, perm_tensor, smash_product_map

F5 = Field(5)


def units(f: Field, rows: int, cols: int) -> list[Matrix]:
    """The basis maps E_t, t = (i, k), of rows x cols matrices, in index order."""
    return [Matrix.basis_column(f, rows * cols, t).reshape(rows, cols) for t in range(rows * cols)]


def smash_reference(e: EntwiningPresentation) -> tuple[Matrix, Matrix]:
    """mul and left action of the smash ring, one basis pair at a time.

    Column (s1, s2) of mul is E_s1 . E_s2 by smash_product_map; column (j, s)
    of the left action is (a_j . E_s)(c) = mul (id (x) E_s) psi(c (x) a_j).
    """
    a, f = e.algebra, e.field
    n = a.dim * e.coalgebra.dim
    maps = units(f, a.dim, e.coalgebra.dim)
    mul = Matrix.from_columns(f, n, [smash_product_map(e, u1, u2) for u1 in maps for u2 in maps])
    psi_a = [e.psi @ kron(Matrix.identity(f, e.coalgebra.dim), Matrix.basis_column(f, a.dim, j)) for j in range(a.dim)]
    lact = Matrix.from_columns(f, n, [a.mul @ kron(Matrix.identity(f, a.dim), u) @ pa for pa in psi_a for u in maps])
    return mul, lact


def koppinen_reference(s: DKStructure) -> Matrix:
    """Koppinen's product (f . g)(c) = sum f(c_2)_0 g(c_1 . f(c_2)_1), one basis pair at a time."""
    f = s.field
    na, nc, nh = s.alg.dim, s.coalg.dim, s.h.dim
    ida, idc = Matrix.identity(f, na), Matrix.identity(f, nc)
    twist = kron(ida, s.coalg_action) @ perm_tensor(f, (nc, na, nh), (1, 0, 2)) @ kron(idc, s.alg_coaction)

    def product(fm: Matrix, gm: Matrix) -> Matrix:
        return s.alg.mul @ kron(ida, gm) @ twist @ kron(idc, fm) @ s.coalg.comul

    maps = units(f, na, nc)
    return Matrix.from_columns(f, na * nc, [product(u1, u2) for u1 in maps for u2 in maps])


def hom_reference(e: EntwiningPresentation, m: EntwinedModulePresentation,
                  n: EntwinedModulePresentation) -> Matrix:
    """f m.action - n.action (f (x) id) over n.coaction f - (f (x) id) m.coaction, for each basis map f."""
    f = e.field
    ida, idc = Matrix.identity(f, e.algebra.dim), Matrix.identity(f, e.coalgebra.dim)
    maps = units(f, n.dim, m.dim)
    lin = Matrix.from_columns(f, n.dim * m.dim * e.algebra.dim,
                              [u @ m.action - n.action @ kron(u, ida) for u in maps])
    colin = Matrix.from_columns(f, n.dim * e.coalgebra.dim * m.dim,
                                [n.coaction @ u - kron(u, idc) @ m.coaction for u in maps])
    return lin.vstack(colin)


def smash_action_reference(e: EntwiningPresentation, m: EntwinedModulePresentation) -> Matrix:
    """m . f = sum m_0 f(m_1), one basis element of M and one basis map f at a time."""
    f = e.field
    idm = Matrix.identity(f, m.dim)
    spreads = [kron(idm, u) for u in units(f, e.algebra.dim, e.coalgebra.dim)]
    rhos = [col_matrix(m.coaction, i) for i in range(m.dim)]
    return Matrix.from_columns(f, m.dim, [m.action @ (spread @ rho) for rho in rhos for spread in spreads])


def catalog_of(kind: type) -> dict:
    return {name: obj for name in catalog_names() if isinstance(obj := catalog_get(name), kind)}


def sparse_matrix(f: Field, rng: random.Random, rows: int, cols: int) -> Matrix:
    """About half of the entries nonzero, each small."""
    return Matrix(f, rows, cols, [f.of(rng.choice((-2, -1, 1, 2, 3))) if rng.random() < 0.5 else 0
                                  for _ in range(rows * cols)])


def random_entwining(f: Field, rng: random.Random, na: int, nc: int) -> EntwiningPresentation:
    """A, C and psi with random sparse constants: shapes only, no law holds."""
    a = make_structure("algebra", f, na, mul=sparse_matrix(f, rng, na, na * na), unit=sparse_matrix(f, rng, na, 1))
    c = make_structure("coalgebra", f, nc, comul=sparse_matrix(f, rng, nc * nc, nc),
                       counit=sparse_matrix(f, rng, 1, nc))
    return EntwiningPresentation(a, c, sparse_matrix(f, rng, na * nc, nc * na))


def random_module(f: Field, rng: random.Random, e: EntwiningPresentation, dim: int) -> EntwinedModulePresentation:
    na, nc = e.algebra.dim, e.coalgebra.dim
    return EntwinedModulePresentation(e, dim, sparse_matrix(f, rng, dim, dim * na),
                                      sparse_matrix(f, rng, dim * nc, dim))


RANDOM_CASES = [(f, na, nc, seed) for f in (QQ, F5) for na, nc in ((2, 3), (3, 2)) for seed in range(3)]
RANDOM_IDS = [f"{'Q' if f.p is None else f'F{f.p}'}-A{na}-C{nc}-{seed}" for f, na, nc, seed in RANDOM_CASES]


class TestSmashTables:
    @pytest.mark.parametrize("name", sorted(catalog_of(EntwiningPresentation)))
    def test_catalog_entwinings(self, name):
        e = catalog_get(name)
        smash = build_smash(e)
        assert (smash.mul, smash.left_action) == smash_reference(e)

    @pytest.mark.parametrize("f, na, nc, seed", RANDOM_CASES, ids=RANDOM_IDS)
    def test_random_maps(self, f, na, nc, seed):
        e = random_entwining(f, random.Random(seed), na, nc)
        mul, lact = smash_reference(e)
        assert not mul.is_zero() and not lact.is_zero()
        assert twisted_product(e) == mul
        assert twisted_left_action(e) == lact


class TestKoppinenTable:
    @pytest.mark.parametrize("name", sorted(catalog_of(DKStructure)))
    def test_catalog_triples(self, name):
        s = catalog_get(name)
        assert koppinen_table(s) == koppinen_reference(s)

    @pytest.mark.parametrize("f, na, nc, seed", RANDOM_CASES, ids=RANDOM_IDS)
    def test_random_maps(self, f, na, nc, seed):
        rng = random.Random(seed)
        nh = 2
        e = random_entwining(f, rng, na, nc)
        h = make_structure("algebra", f, nh, mul=sparse_matrix(f, rng, nh, nh * nh), unit=sparse_matrix(f, rng, nh, 1))
        s = DKStructure(h, e.algebra, sparse_matrix(f, rng, na * nh, na),
                        e.coalgebra, sparse_matrix(f, rng, nc, nc * nh))
        table = koppinen_reference(s)
        assert not table.is_zero() and koppinen_table(s) == table


# every ordered pair of modules over one entwining: the catalog's, and the free flip module over qc2
MODULES = catalog_of(EntwinedModulePresentation) | {"free_flip_qc2": free_flip_module(*[catalog_get("qc2")] * 2)}
PAIRS = [(m, n) for m in sorted(MODULES) for n in sorted(MODULES) if MODULES[m].entwining == MODULES[n].entwining]


class TestHomSystem:
    @pytest.mark.parametrize("m, n", PAIRS, ids=[f"{m}-{n}" for m, n in PAIRS])
    def test_catalog_module_pairs(self, m, n):
        m, n = MODULES[m], MODULES[n]
        assert hom_entwined_system(m.entwining, m, n) == hom_reference(m.entwining, m, n)

    @pytest.mark.parametrize("f, na, nc, seed", RANDOM_CASES, ids=RANDOM_IDS)
    def test_random_maps(self, f, na, nc, seed):
        rng = random.Random(seed)
        e = random_entwining(f, rng, na, nc)
        for dm, dn in ((2, 3), (3, 2)):
            m, n = random_module(f, rng, e, dm), random_module(f, rng, e, dn)
            system = hom_reference(e, m, n)
            assert not system.is_zero() and hom_entwined_system(e, m, n) == system


class TestSmashModule:
    @pytest.mark.parametrize("name", sorted(catalog_of(EntwinedModulePresentation)))
    def test_catalog_modules(self, name):
        m = catalog_get(name)
        assert entwined_to_smash_module(m.entwining, m).action == smash_action_reference(m.entwining, m)

    @pytest.mark.parametrize("f, na, nc, seed", RANDOM_CASES, ids=RANDOM_IDS)
    def test_random_maps(self, f, na, nc, seed):
        # no law holds on random maps; the functor builds its ring with build_smash, which reads none
        rng = random.Random(seed)
        e = random_entwining(f, rng, na, nc)
        m = random_module(f, rng, e, 2)
        action = smash_action_reference(e, m)
        assert not action.is_zero()
        assert entwined_to_smash_module(e, m).action == action
