"""Shared generators for randomized exact-arithmetic tests.

Everything is seeded, so failures reproduce; scalars stay small to keep
fraction arithmetic honest about exactness rather than magnitude.  Over Q
they are ints, as exactlin makes whole numbers; fractions enter through
elimination.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from entwine.exactlin import Field, Matrix, QQ, kron


def random_scalar(field: Field, rng: random.Random):
    if field.p is not None:
        return rng.randrange(field.p)
    return field.of(rng.randint(-3, 3))


def random_matrix(field: Field, rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix(field, rows, cols, [random_scalar(field, rng) for _ in range(rows * cols)])


def random_invertible(field: Field, rng: random.Random, n: int) -> Matrix:
    from entwine.exactlin import invert

    while True:
        m = random_matrix(field, rng, n, n)
        if invert(m) is not None:
            return m


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


@pytest.fixture
def rng():
    return random.Random(20240817)


BOTH_FIELDS = (QQ, Field(5))
