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


@pytest.fixture
def rng():
    return random.Random(20240817)


BOTH_FIELDS = (QQ, Field(5))
