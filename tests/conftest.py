"""Shared generators for randomized exact-arithmetic tests.

Everything is seeded, so failures reproduce; scalars stay small to keep
fraction arithmetic honest about exactness rather than magnitude.  Over Q
they are ints, as exactlin makes whole numbers; fractions enter through
elimination.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest

from entwine import report
from entwine.doikoppinen import (
    comodule_coalgebra_to_module_coalgebra,
    module_coalgebra_to_dual_module_algebra,
    verify_dk_compat,
)
from entwine.exactlin import Field, Matrix, QQ, _packs, _terms, express, invert, kron, law_shape, permute
from entwine.structures import make_structure, verify_structure


def random_scalar(field: Field, rng: random.Random):
    if field.p is not None:
        return rng.randrange(field.p)
    return field.of(rng.randint(-3, 3))


def random_matrix(field: Field, rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix(field, rows, cols, [random_scalar(field, rng) for _ in range(rows * cols)])


def random_invertible(field: Field, rng: random.Random, n: int) -> Matrix:
    while True:
        m = random_matrix(field, rng, n, n)
        if invert(m) is not None:
            return m


def corrupt(matrix: Matrix, i: int, j: int, c=None) -> Matrix:
    """Add c (default 1) to entry (i, j)."""
    data = list(matrix.data)
    f = matrix.field
    data[i * matrix.cols + j] = f.add(data[i * matrix.cols + j], f.one() if c is None else c)
    return Matrix(f, matrix.rows, matrix.cols, data)


def layout(side) -> Matrix:
    """A law side laid out with @ and kron: the reference for exactlin.law_vectors and report.compare."""
    if isinstance(side, Matrix):
        return side
    if isinstance(side, list):
        terms = [layout(term) for _, term in side]
        terms = [t.scale(t.field.of(sign)) for (sign, _), t in zip(side, terms)]
        return sum(terms[1:], terms[0])
    out = None
    for factor in side:
        if not isinstance(factor, Matrix):
            f = next(x.field for x in factor if isinstance(x, Matrix))
            factor = kron(*(Matrix.identity(f, x) if isinstance(x, int) else x for x in factor))
        out = factor if out is None else factor @ out
    return out


def compare_reference(op: str, axiom: str, lhs, rhs, col_dims):
    """report.compare from the laid-out sides: the first column, in index order, where they differ."""
    left, right = layout(lhs), layout(rhs)
    field = left.field
    for j in range(left.cols):
        x, y = left.col(j), right.col(j)
        if x != y:
            if col_dims is None:
                witness = (j,)
            else:
                witness = tuple(j // prod(col_dims[k + 1:]) % col_dims[k] for k in range(len(col_dims))) or None

            def text(column):
                return "{" + ", ".join(f"{i}: {field.fmt(v)}" for i, v in enumerate(column)
                                       if not field.is_zero(v)) + "}"

            return report.fail(op, axiom, witness=witness, lhs=text(x), rhs=text(y))
    return None


def packed_stages(lhs, rhs) -> list:
    """The factors (X, k, x_first) that report.compare reads as packed stages, by exactlin's own predicate.

    compare reads lhs - rhs by rows when it has more columns than rows, last
    factor first, and by columns otherwise, first factor first; a term's
    first stage never packs, and a term's packed last stage is added to the
    others in shared slots, so it packs only while the block bounds
    len(lines) * (p - 1)**2 of the packed last stages so far sum below 2**64.
    """
    _, rows, cols = law_shape(lhs)
    by_rows = cols > rows
    out, bound = [], 0
    for _, factors in _terms([(1, lhs), (-1, rhs)]):
        read = factors[::-1] if by_rows else factors
        out += [f for f in read[1:-1] if _packs(f[0], by_rows)]
        x = read[-1][0]
        if len(read) > 1 and _packs(x, by_rows):
            block = (x.rows if by_rows else x.cols) * (x.field.p - 1) ** 2
            if bound + block < 2**64:
                bound += block
                out.append(read[-1])
    return out


def unimodular(field: Field, n: int, rng: random.Random) -> Matrix:
    """L U with unit diagonals and every off-diagonal factor entry nonzero, so det = 1."""
    def triangle(lower: bool) -> Matrix:
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
            for j in range(i) if lower else range(i + 1, n):
                data[i * n + j] = rng.randrange(1, field.p)
        return Matrix(field, n, n, data)

    return triangle(True) @ triangle(False)


def rebase(h, p: Matrix):
    """The Hopf algebra h written in the basis b_j = sum_i p[i, j] e_i."""
    pinv = invert(p)
    return make_structure(h.kind, h.field, h.dim,
                          mul=pinv @ h.mul @ kron(p, p), unit=pinv @ h.unit,
                          comul=kron(pinv, pinv) @ h.comul @ p, counit=h.counit @ p,
                          antipode=pinv @ h.antipode @ p)


def assert_canonical_vector(vec: dict, field: Field):
    """Reduced and free of zeros: the form of every vector exactlin.law_vectors returns.

    Over Q a value is an int or a Fraction; over F_p an int in (0, p).
    """
    for v in vec.values():
        assert not field.is_zero(v)
        if field.p is not None:
            assert isinstance(v, int) and 0 < v < field.p
        else:
            assert type(v) in (int, Fraction)


def smash_product_map(e, f: Matrix, g: Matrix) -> Matrix:
    """(f . g)(c) = sum f(c_2)_psi g(c_1^psi), for f, g : C -> A, the smash product of one pair of maps."""
    a, c = e.algebra, e.coalgebra
    return a.mul @ kron(Matrix.identity(e.field, a.dim), g) @ e.psi @ kron(Matrix.identity(e.field, c.dim), f) @ c.comul


def nu_map(e, f: Matrix) -> Matrix:
    """nu(f) : a (x) c -> a f(c) as a dim_A x (dim_A * dim_C) matrix."""
    return e.algebra.mul @ kron(Matrix.identity(e.field, e.algebra.dim), f)


def nu_inv_map(e, h: Matrix) -> Matrix:
    """nu^{-1}(h) : c -> h(1_A (x) c)."""
    return h @ kron(e.algebra.unit, Matrix.identity(e.field, e.coalgebra.dim))


def left_star_product(coring, f: Matrix, g: Matrix) -> Matrix:
    """(f *_l g)(x) = sum g(x_1 f(x_2)) on the left dual of the coring, read off its right action and comul."""
    return g @ coring.right_action @ kron(Matrix.identity(coring.field, coring.dim), f) @ coring.comul


# ---------------------------------------------------------------------------
# Implied checks: what src does not read, because the laws its inputs have passed imply it.  Each oracle
# below reads one as src read it; tests/test_implied_rows.py reads it on every catalog object of its kind.

# the name of each implied check, and the laws that imply it
IMPLIED_CHECKS = {
    "antipode-right": "the bialgebra laws and antipode-left: in the finite-dimensional convolution algebra "
                      "Hom(H, H), a one-sided inverse of id is two-sided (structures._hopf_checks)",
    "nu-inv-nu": "A's left unit law, read by verify_coring as left-action-unit (entwining.nu_iso)",
    "nu-right-linear": "A's associativity, read by verify_coring as left-action-associativity (entwining.nu_iso)",
    "quotient-coalgebra": "D's coalgebra laws, with W = D.H+ a coideal on which the counit vanishes: "
                          "proj kills W, proj sect = 1 and sect proj = 1 - P_W (doikoppinen.coextension_quotient)",
    "quotient-module-coalgebra": "D's module-coalgebra laws, with W a coideal and W.H in W",
    "projection-comultiplicative": "W is a coideal, and sect proj = 1 - P_W",
    "projection-counital": "the counit vanishes on W",
    "projection-equivariant": "W.H lies in W",
    "missing-unit": "coaction-on-unit, read by h_extension and dualize_coextension (doikoppinen.coinvariants)",
    "not-a-subalgebra": "coaction-multiplicative over a verified bialgebra (doikoppinen.coinvariants)",
    "inner-ingredient": "row by row, the intermediate's laws are those of the verified input, transposed "
                        "(doikoppinen.module_coalgebra_to_comodule_algebra, comodule_coalgebra_to_dual_module_algebra)",
    "left-inverse": "in the finite-dimensional convolution algebra Hom(C, A) of a verified coalgebra and "
                    "algebra, a right inverse is two-sided (structures.convolution_inverse)",
}


def antipode_right_rows(h) -> list:
    """id * S = unit, the row that _hopf_checks leaves out."""
    n = h.dim
    return [("antipode-right", (h.comul, (n, h.antipode), h.mul), (h.counit, h.unit), (n,))]


def nu_implied_rows(coring, smash, nu, nu_inv) -> list:
    """nu_inv nu = id and nu(f . a) = nu(f) a, the rows that _nu_laws leaves out."""
    a = coring.entwining.algebra
    n, na = coring.dim, a.dim
    nu_t = permute(nu, (na, n, n), (1, 0, 2), 2)
    return [("nu-inv-nu", (nu, nu_inv), Matrix.identity(coring.field, n), (n,)),
            ("nu-right-linear", (smash.right_action, nu_t), ((nu_t, na), (n, a.mul)), (n, na))]


def projection_rows(coext) -> list:
    """The projection D -> C as a map of H-module coalgebras, as (axiom, lhs, rhs, basis dims) rows."""
    d, nh, proj = coext.d, coext.h.dim, coext.projection
    return [
        ("projection-comultiplicative", (proj, coext.quotient.comul),
         (d.comul, (d.dim, proj), (proj, proj.rows)), (d.dim,)),
        ("projection-counital", (proj, coext.quotient.counit), d.counit, (d.dim,)),
        ("projection-equivariant", (coext.action, proj), ((proj, nh), coext.quotient_action), (d.dim, nh)),
    ]


def quotient_rows(coext):
    """What coextension_quotient leaves unread after its closure checks: the quotient, then the projection."""
    yield "quotient-coalgebra", verify_structure("coalgebra", coext.quotient)
    yield "quotient-module-coalgebra", verify_dk_compat("module-coalgebra", coext.h, coext.quotient,
                                                        coext.quotient_action, "right")
    yield from projection_rows(coext)


def coinvariant_subalgebra(b, w) -> report.Report:
    """missing-unit, then not-a-subalgebra, as coinvariants checked the subspace w of b."""
    if not w.contains(b.unit):
        return report.fail("coinvariants", "missing-unit")
    wt = w.basis.transpose()
    _, bad = express(w.basis, b.mul @ kron(wt, wt))
    if bad is not None:
        return report.fail("coinvariants", "not-a-subalgebra", witness=divmod(bad, w.dim))
    return report.ok("coinvariants")


# input kind -> the intermediate that the arrow from it builds through
INNER_ARROWS = {"module-coalgebra": module_coalgebra_to_dual_module_algebra,
                "comodule-coalgebra": comodule_coalgebra_to_module_coalgebra}


def inner_ingredient(kind, h, x, m) -> report.Report:
    """The intermediate's own verification, which the two arrows through one leave out."""
    return INNER_ARROWS[kind](h, x, m).verify()


def left_inverse_rows(c, a, f, g) -> list:
    """g * f = unit for g = convolution_inverse(c, a, f), the check that convolution_inverse leaves out."""
    return [("left-inverse", (c.comul, (c.dim, f), (g, a.dim), a.mul), (c.counit, a.unit), (c.dim,))]


@pytest.fixture
def rng():
    return random.Random(20240817)


BOTH_FIELDS = (QQ, Field(5))
