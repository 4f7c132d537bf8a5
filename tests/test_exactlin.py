import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from entwine.exactlin import (
    DimensionMismatch,
    Field,
    Matrix,
    PresentationError,
    QQ,
    Subspace,
    express,
    image,
    invert,
    kernel,
    kron,
    permute,
    preimage,
    rank,
    rref,
    solve_linear,
    swap_matrix,
)
from conftest import (
    BOTH_FIELDS,
    perm_tensor,
    assert_canonical_vector,
    col_matrix,
    law_shape,
    law_vectors,
    random_invertible,
    random_matrix,
    random_scalar,
    scale,
    zeros,
)


def M(rows, field=QQ):
    return Matrix.from_rows(field, [[field.of(x) for x in r] for r in rows])


KERNEL_FIELDS = (QQ, Field(5), Field(7))


def random_rows(field, rng, rows, cols, density=0.3):
    """A dense reference matrix: a list of rows of scalars, zeros included."""
    return [[random_scalar(field, rng) if rng.random() < density else field.zero() for _ in range(cols)]
            for _ in range(rows)]


def build(field, ref, cols):
    """The Matrix of a dense reference; cols is given so that 0-row shapes keep their width."""
    return Matrix(field, len(ref), cols, [x for r in ref for x in r])


def sparse_matrix(field, rng, rows, cols, density=0.3):
    return build(field, random_rows(field, rng, rows, cols, density), cols)


def ref_matmul(f, a, b, cols):
    """Reference product: every entry a full dot product through Field."""
    out = []
    for row in a:
        out.append([])
        for j in range(cols):
            s = f.zero()
            for k, x in enumerate(row):
                s = f.add(s, f.mul(x, b[k][j]))
            out[-1].append(s)
    return out


def ref_kron(f, a, b):
    return [[f.mul(x, y) for x in ra for y in rb] for ra in a for rb in b]


def ref_transpose(a, cols):
    return [[r[j] for r in a] for j in range(cols)]


def ref_permute(a, dims, perm, nrows):
    """Reference re-indexing: move every entry to its permuted multi-index, one at a time."""
    entries = [x for r in a for x in r]
    out_dims = [dims[k] for k in perm]
    out = [None] * len(entries)
    for t, index in enumerate(product(*(range(d) for d in dims))):
        pos = 0
        for k, d in enumerate(out_dims):
            pos = pos * d + index[perm[k]]
        out[pos] = entries[t]
    rows, cols = prod(out_dims[:nrows]), prod(out_dims[nrows:])
    return [out[i * cols:(i + 1) * cols] for i in range(rows)], cols


def ref_entrywise(op, *refs):
    return [[op(*xs) for xs in zip(*rows)] for rows in zip(*refs)]


def ref_render(f, a):
    return "[" + "; ".join(", ".join(f.fmt(x) for x in r) for r in a) + "]"


def assert_matches(got, field, ref, cols):
    """got is the reference matrix entry for entry, and stores exactly its nonzeros, reduced."""
    assert (got.field, got.rows, got.cols) == (field, len(ref), cols)
    assert got.data == tuple(x for r in ref for x in r)
    assert len(got._rows) == len(ref)
    for stored, r in zip(got._rows, ref):
        assert stored == {j: x for j, x in enumerate(r) if not field.is_zero(x)}
        assert_canonical_vector(stored, field)


def ref_layout(f, side):
    """A law side laid out as dense rows, every entry through Field: (rows, cols)."""
    if isinstance(side, Matrix):
        return [list(side.row(i)) for i in range(side.rows)], side.cols
    if isinstance(side, list):
        terms = [(f.of(sign), *ref_layout(f, t)) for sign, t in side]
        total, cols = [[f.zero()] * terms[0][2] for _ in terms[0][1]], terms[0][2]
        for sign, ref, _ in terms:
            total = ref_entrywise(lambda x, y: f.add(x, f.mul(sign, y)), total, ref)
        return total, cols
    out = None
    for factor in side:
        if isinstance(factor, Matrix):
            ref, cols = ref_layout(f, factor)
        else:
            (a, ac), (b, bc) = (ref_layout(f, Matrix.identity(f, x) if isinstance(x, int) else x) for x in factor)
            ref, cols = ref_kron(f, a, b), ac * bc
        out = (ref, cols) if out is None else (ref_matmul(f, ref, out[0], out[1]), out[1])
    return out


def read(side, by_rows=False):
    """Every column of a law side in order, or every row; each must be canonical."""
    field, rows, cols = law_shape(side)
    got = list(map(law_vectors(side, by_rows), range(rows if by_rows else cols)))
    for vector in got:
        assert_canonical_vector(vector, field)
    return got


def random_side(field, rng, cols, rows, density):
    """Random factors, some of them pairs with an identity, from F^cols to F^rows."""
    factors, width = [], cols
    for _ in range(rng.randint(0, 2)):
        k = rng.choice([k for k in (1, 2, 3) if width % k == 0])
        x = sparse_matrix(field, rng, rng.randint(0, 3), width // k, density)
        factors.append(rng.choice(((x, k), (k, x))))
        width = x.rows * k
    factors.append(sparse_matrix(field, rng, rows, width, density))
    return tuple(factors)


class TestField:
    def test_rational_canonical_form(self):
        assert QQ.fmt(Fraction(2, 4)) == "1/2"
        assert QQ.fmt(QQ.of(-3)) == "-3"
        assert QQ.parse("1/2") == Fraction(1, 2)

    def test_rejects_noncanonical_literals(self):
        # several of these are ints to int(); the last is past its digit limit
        for bad in ("2/4", "1/1", "-0", "1/-2", "01", "+1", "1_000", " 1", "1.0", "1e3", "\u0663", "0/5",
                    "1" * 5000):
            with pytest.raises(PresentationError):
                QQ.parse(bad)

    def test_rational_scalars_are_int_unless_proper_fractions(self):
        for x in (QQ.of(-3), QQ.zero(), QQ.one(), QQ.parse("7"), QQ.parse("-12"), QQ.inv(1), QQ.inv(-1),
                  QQ.inv(Fraction(1, 3))):
            assert type(x) is int
        assert QQ.inv(Fraction(1, 3)) == 3
        for x in (QQ.parse("1/2"), QQ.parse("-5/3"), QQ.inv(2), QQ.inv(-3)):
            assert type(x) is Fraction and x.denominator != 1

    def test_int_and_whole_fraction_entries_are_one_matrix(self):
        ints = Matrix(QQ, 2, 2, [2, 0, -1, 3])
        fractions = Matrix(QQ, 2, 2, [Fraction(2), Fraction(0), Fraction(-1), Fraction(3)])
        assert ints == fractions and hash(ints) == hash(fractions)
        assert ints.render() == fractions.render() == "[2, 0; -1, 3]"

    def test_pivot_scaling_keeps_whole_entries_int(self):
        basis, _ = rref(Matrix(QQ, 1, 3, [2, 4, 1]))
        assert basis.render() == "[1, 2, 1/2]"
        assert [type(x) for x in basis.data] == [int, int, Fraction]

    def test_one_class_per_characteristic(self):
        f5 = Field(5)
        assert type(Field()) is type(QQ) is not type(f5)
        assert isinstance(QQ, Field) and isinstance(f5, Field)
        assert (QQ.p, f5.p) == (None, 5)
        assert Field() == QQ and Field(5) == f5 and QQ != f5
        assert hash(Field()) == hash(QQ) and hash(Field(5)) == hash(f5)
        assert (repr(QQ), repr(f5)) == ("Field(Q)", "Field(F_5)")

    def test_prime_field(self):
        f5 = Field(5)
        assert f5.add(3, 4) == 2
        assert f5.inv(2) == 3
        assert f5.parse(4) == 4
        with pytest.raises(PresentationError):
            f5.parse(5)

    def test_modulus_must_be_prime(self):
        with pytest.raises(PresentationError):
            Field(6)
        with pytest.raises(PresentationError):
            Field(2**31 + 11)


class TestSolve:
    def test_identity_system(self):
        i2 = Matrix.identity(QQ, 2)
        assert solve_linear(i2, i2) == i2
        assert kernel(i2).dim == 0

    def test_zero_system(self):
        z = zeros(QQ, 2, 2)
        assert solve_linear(z, z) == z
        assert kernel(z).dim == 2

    def test_rank_one_system(self):
        # worked by hand: x + y = 3 twice over; particular (3, 0), kernel (1, -1)
        a = M([[1, 1], [2, 2]])
        b = M([[3], [6]])
        assert solve_linear(a, b) == M([[3], [0]])
        assert kernel(a).dim == 1
        assert kernel(a).basis == M([[1, -1]])

    def test_inconsistent(self):
        a = M([[1, 1], [2, 2]])
        b = M([[3], [7]])
        assert solve_linear(a, b) is None

    def test_solutions_are_exact(self, rng):
        for field in BOTH_FIELDS:
            for _ in range(40):
                a = random_matrix(field, rng, rng.randint(1, 4), rng.randint(1, 4))
                x = random_matrix(field, rng, a.cols, 2)
                sol = solve_linear(a, a @ x)
                assert sol is not None
                assert a @ sol == a @ x
                for i in range(kernel(a).dim):
                    v = kernel(a).basis.row_matrix(i).transpose()
                    assert (a @ v).is_zero()


class TestOneEliminationPerQuestion:
    """solve_linear, express and invert each answer from one elimination, whether the answer is yes or no."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        from entwine import exactlin

        eliminate, calls = exactlin._eliminate, []
        monkeypatch.setattr(exactlin, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
        return calls

    def test_solve_linear(self, eliminations):
        a = M([[1, 1], [2, 2]])
        assert solve_linear(a, M([[3], [6]])) == M([[3], [0]])
        assert len(eliminations) == 1
        assert solve_linear(a, M([[3], [7]])) is None
        assert len(eliminations) == 2

    def test_express(self, eliminations):
        basis = M([[1, 0, 1], [0, 1, 1]])
        assert express(basis, M([[1, 2], [0, 1], [1, 3]])) == (M([[1, 2], [0, 1]]), None)
        assert len(eliminations) == 1
        # the last of three columns is outside the span
        assert express(basis, M([[1, 2, 1], [0, 1, 0], [1, 3, 0]])) == (None, 2)
        assert len(eliminations) == 2

    def test_invert(self, eliminations):
        a = M([[1, 2], [3, 4]])
        assert a @ invert(a) == Matrix.identity(QQ, 2)
        assert len(eliminations) == 1
        assert invert(M([[1, 2], [2, 4]])) is None
        assert len(eliminations) == 2


def _per_column_express(basis, vectors):
    """Reference for express: one solve_linear per column, as the callers once did."""
    a = basis.transpose()
    cols = []
    for j in range(vectors.cols):
        sol = solve_linear(a, col_matrix(vectors, j))
        if sol is None:
            return None, j
        cols.append(sol.col(0))
    return Matrix(basis.field, basis.rows, vectors.cols,
                  [cols[j][i] for i in range(basis.rows) for j in range(vectors.cols)]), None


class TestExpress:
    @staticmethod
    def _basis(field, rng):
        """Random rows, some of them combinations of the others."""
        n = rng.randint(1, 5)
        rows = [random_matrix(field, rng, 1, n) for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 2) if rows else 0):
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append(scale(a, random_scalar(field, rng)) + b)
        rng.shuffle(rows)
        return Matrix(field, len(rows), n, [x for r in rows for x in r.data])

    @staticmethod
    def _outside(basis):
        """A standard basis vector outside the row span of basis (by rank, not by solving), or None."""
        for i in range(basis.cols):
            e = Matrix.basis_column(basis.field, basis.cols, i)
            if rank(basis.vstack(e.transpose())) > rank(basis):
                return e
        return None

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
    def test_agrees_with_per_column_solves(self, field, rng):
        for _ in range(60):
            basis = self._basis(field, rng)
            m = rng.randint(0, 5)
            coeffs = random_matrix(field, rng, basis.rows, m)
            vectors = basis.transpose() @ coeffs if basis.rows else zeros(field, basis.cols, m)
            cols = [vectors.col(j) for j in range(m)]
            for j in range(m):
                if rng.random() < 0.2:
                    cols[j] = (field.zero(),) * basis.cols
            vectors = Matrix(field, basis.cols, m, [c[i] for i in range(basis.cols) for c in cols])
            x, bad = express(basis, vectors)
            assert bad is None
            assert (x, bad) == _per_column_express(basis, vectors)
            assert basis.transpose() @ x == vectors
            outside = self._outside(basis)
            if outside is None or m == 0:
                continue
            # one to three columns outside the span, at random positions: the first comes back
            at = sorted(rng.sample(range(m), rng.randint(1, min(3, m))))
            for j in at:
                cols[j] = (scale(outside, random_scalar(field, rng) or field.one()) + col_matrix(vectors, j)).col(0)
            vectors = Matrix(field, basis.cols, m, [c[i] for i in range(basis.cols) for c in cols])
            assert express(basis, vectors) == (None, at[0]) == _per_column_express(basis, vectors)

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
    def test_basis_with_no_rows(self, field):
        empty = Matrix(field, 0, 3, [])
        x, bad = express(empty, zeros(field, 3, 2))
        assert bad is None and x == Matrix(field, 0, 2, [])
        v = zeros(field, 3, 1).hstack(Matrix.basis_column(field, 3, 1))
        assert express(empty, v) == (None, 1)

    def test_no_vectors(self):
        x, bad = express(M([[1, 2], [2, 4]]), Matrix(QQ, 2, 0, []))
        assert bad is None and x == Matrix(QQ, 2, 0, [])

    def test_free_coefficients_are_zero(self):
        # rows 0 and 1 are equal: the solve puts the whole coefficient on row 0
        x, bad = express(M([[1, 1, 0], [1, 1, 0], [0, 0, 1]]), M([[2, 0], [2, 0], [3, 0]]))
        assert bad is None and x == M([[2, 0], [0, 0], [3, 0]])


class TestRref:
    def test_idempotent_and_canonical(self, rng):
        for field in BOTH_FIELDS:
            for _ in range(30):
                m = random_matrix(field, rng, rng.randint(1, 4), rng.randint(1, 5))
                r1, piv = rref(m)
                assert rref(r1)[0] == r1
                # a different spanning set of the same row space gives the same basis
                t = random_invertible(field, rng, m.rows)
                r2, _ = rref(t @ m)
                assert r1 == r2
                assert rank(m) == len(piv)


class TestKron:
    def test_identity(self):
        assert kron(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 6)

    def test_scalar_block(self):
        assert kron(M([[2]]), Matrix.identity(QQ, 2)) == M([[2, 0], [0, 2]])

    def test_mixed_product_law(self, rng):
        for field in BOTH_FIELDS:
            for n in (2, 3):
                a = random_matrix(field, rng, n, n)
                b = random_matrix(field, rng, n, n)
                c = random_matrix(field, rng, n, n)
                d = random_matrix(field, rng, n, n)
                assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)

    def test_index_convention(self, rng):
        # (M1 (x) M2)(v (x) w) = M1 v (x) M2 w under idx(i, j) = i * dim2 + j
        m1 = random_matrix(QQ, rng, 2, 2)
        m2 = random_matrix(QQ, rng, 3, 3)
        v = random_matrix(QQ, rng, 2, 1)
        w = random_matrix(QQ, rng, 3, 1)
        assert kron(m1, m2) @ kron(v, w) == kron(m1 @ v, m2 @ w)

    def test_swap_matrix(self, rng):
        v = random_matrix(QQ, rng, 2, 1)
        w = random_matrix(QQ, rng, 3, 1)
        assert swap_matrix(QQ, 2, 3) @ kron(v, w) == kron(w, v)

    def test_perm_tensor(self, rng):
        u = random_matrix(QQ, rng, 2, 1)
        v = random_matrix(QQ, rng, 3, 1)
        w = random_matrix(QQ, rng, 2, 1)
        p = perm_tensor(QQ, (2, 3, 2), (2, 0, 1))
        assert p @ kron(u, kron(v, w)) == kron(w, kron(u, v))

    def test_permute(self, rng):
        m = random_matrix(QQ, rng, 2, 3)
        assert permute(m, (2, 3), (1, 0), 1) == m.transpose()
        assert permute(m, (2, 3), (0, 1), 2) == Matrix.column(QQ, m.data)
        t = random_matrix(QQ, rng, 2, 12)  # axes (a, b, c, d) of sizes (2, 2, 3, 2)
        got = permute(t, (2, 2, 3, 2), (3, 0, 2, 1), 2)
        assert (got.rows, got.cols) == (4, 6)
        for a in range(2):
            for b in range(2):
                for c in range(3):
                    for d in range(2):
                        assert got[d * 2 + a, c * 2 + b] == t[a, (b * 3 + c) * 2 + d]
        for dims, perm in (((2, 3), (0, 0)), ((2, 2), (1, 0)), ((2, 3), (1, 0, 2))):
            with pytest.raises(DimensionMismatch):
                permute(m, dims, perm, 1)


class TestSparseKernels:
    """Every Matrix operation against a naive dense reference on lists of rows."""

    @staticmethod
    def _check_all(field, rng, r, k, c, density):
        """Each operation on random r x k and k x c operands, entry for entry."""
        f = field
        a_ref = random_rows(f, rng, r, k, density)
        b_ref = random_rows(f, rng, k, c, density)
        a2_ref = random_rows(f, rng, r, k, density)
        h_ref = random_rows(f, rng, r, c, density)
        v_ref = random_rows(f, rng, c, k, density)
        a, b, a2 = build(f, a_ref, k), build(f, b_ref, c), build(f, a2_ref, k)
        assert_matches(a, f, a_ref, k)
        assert_matches(a @ b, f, ref_matmul(f, a_ref, b_ref, c), c)
        assert_matches(kron(a, b), f, ref_kron(f, a_ref, b_ref), k * c)
        assert_matches(a.transpose(), f, ref_transpose(a_ref, k), r)
        assert_matches(a + a2, f, ref_entrywise(f.add, a_ref, a2_ref), k)
        assert_matches(a - a2, f, ref_entrywise(f.sub, a_ref, a2_ref), k)
        assert_matches(-a, f, ref_entrywise(f.neg, a_ref), k)
        assert_matches(a.hstack(build(f, h_ref, c)), f, [x + y for x, y in zip(a_ref, h_ref)], k + c)
        assert_matches(a.vstack(build(f, v_ref, k)), f, a_ref + v_ref, k)
        for i in range(r):
            assert a.row(i) == tuple(a_ref[i])
            for j in range(k):
                assert a[i, j] == a_ref[i][j]
        for j in range(k):
            assert a.col(j) == tuple(row[j] for row in a_ref)
        assert a.render() == ref_render(f, a_ref)
        assert (a == a2) == (a_ref == a2_ref)

    def test_against_naive_reference(self, rng):
        for field in KERNEL_FIELDS:
            for _ in range(40):
                r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
                self._check_all(field, rng, r, k, c, rng.choice((0.1, 0.4, 1.0)))

    def test_empty_shapes(self, rng):
        for field in KERNEL_FIELDS:
            for r in (0, 1, 3):
                for k in (0, 1, 3):
                    for c in (0, 2):
                        self._check_all(field, rng, r, k, c, 0.7)
                        if k == 0:
                            assert sparse_matrix(field, rng, r, k) @ sparse_matrix(field, rng, k, c) \
                                == zeros(field, r, c)
        assert Matrix(QQ, 0, 3, []).render() == "[]"
        assert Matrix(QQ, 2, 0, []).render() == "[; ]"

    def test_permute_against_reference(self, rng):
        for field in KERNEL_FIELDS:
            for _ in range(40):
                dims = [rng.randint(0 if rng.random() < 0.1 else 1, 3) for _ in range(rng.randint(1, 4))]
                split = rng.randint(0, len(dims))
                perm = list(range(len(dims)))
                rng.shuffle(perm)
                nrows = rng.randint(0, len(dims))
                rows, cols = prod(dims[:split]), prod(dims[split:])
                ref = random_rows(field, rng, rows, cols, rng.choice((0.2, 1.0)))
                want, want_cols = ref_permute(ref, dims, perm, nrows)
                assert_matches(permute(build(field, ref, cols), dims, perm, nrows), field, want, want_cols)

    def test_cancelling_entries_are_not_stored(self, rng):
        for field in KERNEL_FIELDS:
            one, minus_one = field.one(), field.neg(field.one())
            a = M([[1, 1, 0], [1, 0, 1]], field)
            b = Matrix.from_rows(field, [[one, field.of(2)], [minus_one, one], [minus_one, field.zero()]])
            got = a @ b      # row 0: (0, 3); row 1: (0, 2)
            assert_matches(got, field, [[field.zero(), field.of(3)], [field.zero(), field.of(2)]], 2)
            m = sparse_matrix(field, rng, 3, 4, 0.8)
            zero_rows = [[field.zero()] * 4 for _ in range(3)]
            for cancelled in (m - m, m + -m, -m + m):
                assert_matches(cancelled, field, zero_rows, 4)
                assert cancelled.is_zero()
            assert_matches(Matrix(field, 1, 3, [field.zero(), one, field.zero()]), field,
                           [[field.zero(), one, field.zero()]], 3)
        f5 = Field(5)
        got = M([[1, 1]], f5) @ M([[2], [3]], f5)     # 2 + 3 = 0 in F_5
        assert_matches(got, f5, [[0]], 1)
        assert_matches(M([[1, 4]], f5) + M([[4, 1]], f5), f5, [[0, 0]], 2)

    def test_chains_of_products(self, rng):
        for field in KERNEL_FIELDS:
            for _ in range(15):
                n = rng.randint(1, 4)
                refs = [random_rows(field, rng, n, n, 0.4) for _ in range(4)]
                a, b, c, d = (build(field, x, n) for x in refs)
                ab_ref = ref_matmul(field, refs[0], refs[1], n)
                ab = a @ b
                assert_matches(ab @ c, field, ref_matmul(field, ab_ref, refs[2], n), n)
                assert a @ (b @ c) == ab @ c
                k = kron(ab, c)
                k_ref = ref_kron(field, ab_ref, refs[2])
                assert_matches(k @ kron(d, a), field,
                               ref_matmul(field, k_ref, ref_kron(field, refs[3], refs[0]), n * n), n * n)
                assert kron(k, d) == kron(ab, kron(c, d))

    def test_equal_however_built(self, rng):
        for field in KERNEL_FIELDS:
            for r, c in ((3, 2), (1, 4), (0, 3), (2, 0)):
                ref = random_rows(field, rng, r, c, 0.5)
                m = build(field, ref, c)
                other = sparse_matrix(field, rng, r, c, 0.5)
                ways = [
                    m,
                    Matrix.identity(field, r) @ m,
                    m @ Matrix.identity(field, c),
                    m.transpose().transpose(),
                    permute(m.transpose(), (c, r), (1, 0), 1),
                    permute(permute(m, (r, c), (0, 1), 2), (r, c, 1), (0, 1, 2), 1),
                    Matrix.from_columns(field, r, [col_matrix(m, j) for j in range(c)]),
                    (m + other) - other,
                    -(-m),
                    m + zeros(field, r, c),
                ]
                if r:
                    ways.append(Matrix.from_rows(field, [m.row(i) for i in range(r)]))
                    ways.append(m.row_matrix(0).vstack(Matrix(field, r - 1, c, m.data[c:])))
                for w in ways:
                    assert w == m
                    assert hash(w) == hash(m)
                    assert_matches(w, field, ref, c)
                assert len(set(ways)) == 1
            # the same nonzeros listed in another order within a row
            m, other = M([[1, 0, 2]], field), M([[0, 0, 1]], field)
            reordered = (other + m) - other
            assert list(reordered._rows[0]) != list(m._rows[0])
            assert reordered == m and hash(reordered) == hash(m)
            a, b = sparse_matrix(field, rng, 3, 4, 0.5), sparse_matrix(field, rng, 4, 2, 0.5)
            a_ref = [list(a.row(i)) for i in range(3)]
            b_ref = [list(b.row(i)) for i in range(4)]
            dense = build(field, ref_kron(field, a_ref, b_ref), 8)
            assert kron(a, b) == dense and hash(kron(a, b)) == hash(dense)

    def test_entries_over_fp_are_stored_reduced(self):
        """Matrix(F_7, 1, 2, [8, 0]) is the matrix [1, 0]: equal, with one hash, and reading 1 at (0, 0)."""
        f = Field(7)
        m, reduced = Matrix(f, 1, 2, [8, 0]), Matrix(f, 1, 2, [1, 0])
        assert m[0, 0] == 1 and m.data == (1, 0)
        assert m == reduced and hash(m) == hash(reduced)
        assert (m - reduced).is_zero()
        assert Matrix(f, 2, 2, [-1, 14, 7, 15]) == Matrix(f, 2, 2, [6, 0, 0, 1])

    def test_data_view_is_kept(self, rng):
        m = sparse_matrix(QQ, rng, 3, 4, 0.5)
        assert m.data is m.data


class TestSparseCombine:
    """The law vector kernel sums plain products and must agree with per-term Field arithmetic."""

    def test_against_naive_reference(self, rng):
        for field in KERNEL_FIELDS:
            for _ in range(60):
                cols, rows = rng.randint(1, 6), rng.randint(0, 4)
                density = rng.choice((0.2, 0.5, 1.0))
                side = random_side(field, rng, cols, rows, density)
                if rng.random() < 0.5:
                    side = [(1, side), (-1, random_side(field, rng, cols, rows, density))]
                ref, ref_cols = ref_layout(field, side)
                assert law_shape(side) == (field, rows, ref_cols) and ref_cols == cols
                assert read(side) == [{i: r[j] for i, r in enumerate(ref) if not field.is_zero(r[j])}
                                      for j in range(cols)]
                assert read(side, by_rows=True) == [{j: x for j, x in enumerate(r) if not field.is_zero(x)}
                                                    for r in ref]

    def test_empty_vector(self):
        for field in KERNEL_FIELDS:
            one = Matrix.identity(field, 1)
            empty = zeros(field, 1, 1)
            for by_rows in (False, True):
                assert read((empty, one), by_rows)[0] == {}     # nothing to apply the second factor to
                assert read((one, empty), by_rows)[0] == {}     # a vector with no entries
                assert read(((2, empty), (one, 2)), by_rows)[1] == {}
            no_rows, no_cols = (zeros(field, 0, 2), (0, one)), (zeros(field, 1, 0), one.vstack(one))
            assert law_shape(no_rows) == (field, 0, 2) and read(no_rows) == [{}, {}] and read(no_rows, True) == []
            assert law_shape(no_cols) == (field, 2, 0) and read(no_cols) == [] and read(no_cols, True) == [{}, {}]

    def test_a_bare_pair_is_a_side_of_one_factor(self, rng):
        """(X, k) or (k, X) on its own reads as the side ((X, k),), in law_vectors and in compare."""
        from entwine.report import compare

        for field in KERNEL_FIELDS:
            x = sparse_matrix(field, rng, 2, 3, 0.5)
            for pair in ((x, 2), (2, x)):
                assert law_shape(pair) == law_shape((pair,)) == (field, 4, 6)
                assert read(pair) == read((pair,)) and read(pair, True) == read((pair,), True)
                assert read([(1, pair), (-1, (pair,))]) == [{}] * 6
        unit = Matrix.column(QQ, [1, 0])
        assert compare("op", "law", (unit, 2), kron(unit, Matrix.identity(QQ, 2)), (2,)) is None
        assert compare("op", "law", (2, unit), kron(unit, Matrix.identity(QQ, 2)), (2,)).summary() == \
            "op: FAIL law at basis (1,) lhs={2: 1} rhs={1: 1}"

    def test_cancelling_terms_leave_no_key(self):
        for field in KERNEL_FIELDS:
            one, minus_one = field.one(), field.neg(field.one())
            cols = Matrix.from_entries(field, 3, 2, [(0, 0, one), (1, 0, field.of(2)), (0, 1, one), (2, 1, one)])
            side = (Matrix.column(field, [one, minus_one]), cols)
            assert read(side)[0] == {1: field.of(2), 2: minus_one}
            assert read(side, by_rows=True) == [{}, {0: field.of(2)}, {0: minus_one}]   # row 0 is 1 - 1
            terms = [(1, (cols, (1, cols.transpose()))), (-1, (cols, (cols.transpose(), 1)))]
            assert read(terms) == read(terms, by_rows=True) == [{}, {}]
        f5 = Field(5)
        cols = Matrix.from_entries(f5, 2, 2, [(0, 0, 2), (0, 1, 3), (1, 1, 1)])
        side = (Matrix.column(f5, [1, 1]), cols)
        assert read(side)[0] == {1: 1} and read(side, by_rows=True) == [{}, {0: 1}]   # 2 + 3 = 0

    def test_unreduced_intermediate_sums(self):
        for p in (5, 7):
            f = Field(p)
            # every product (p - 1)^2 and every partial sum is at least p before the one reduction
            cols = Matrix(f, 2, p + 1, [p - 1] * (2 * (p + 1)))
            vec = Matrix.column(f, [p - 1] * (p + 1))
            assert read((vec, cols))[0] == {0: 1, 1: 1}
            assert read((vec, cols), by_rows=True) == [{0: 1}, {0: 1}]
            # through a pair the products stay unreduced: (p - 1)^3 summed 2(p + 1) times is -2
            side = (vec, (cols, 1), (1, Matrix(f, 1, 2, [p - 1, p - 1])))
            assert read(side) == read(side, by_rows=True) == [{0: p - 2}]
            # p such terms sum to p, which is zero
            side = (Matrix.column(f, [p - 1] * p), Matrix(f, 2, p, [p - 1] * (2 * p)))
            assert read(side) == [{}] and read(side, by_rows=True) == [{}, {}]


class TestSubspaces:
    def test_kernel_of_identity(self):
        assert kernel(Matrix.identity(QQ, 3)).dim == 0

    def test_intersection(self):
        s1 = Subspace.from_spanning(QQ, 3, [[1, 0, 0], [0, 1, 0]])
        s2 = Subspace.from_spanning(QQ, 3, [[0, 1, 0], [0, 0, 1]])
        got = s1.intersect(s2)
        assert got == Subspace.from_spanning(QQ, 3, [[0, 1, 0]])

    def test_preimage_example(self):
        # Mv = (v1 + v2, 0) always lies in span{e1}, so the preimage is everything
        m = M([[1, 1], [0, 0]])
        s = Subspace.from_spanning(QQ, 2, [[1, 0]])
        assert preimage(m, s) == Subspace.full(QQ, 2)

    def _preimage_oracle(self, m, s):
        # independent route: kernel of [M | -B^T] projected onto the first block
        bt = s.basis.transpose()
        block = m.hstack(Matrix(m.field, m.rows, bt.cols,
                                [m.field.neg(x) for x in bt.data]))
        ker = kernel(block)
        rows = [ker.basis.row(i)[:m.cols] for i in range(ker.dim)]
        return Subspace.from_spanning(m.field, m.cols, rows)

    def test_preimage_against_oracle(self, rng):
        for field in BOTH_FIELDS:
            for _ in range(25):
                m = random_matrix(field, rng, rng.randint(1, 4), rng.randint(1, 4))
                span = [random_matrix(field, rng, 1, m.rows).row(0)
                        for _ in range(rng.randint(0, 2))]
                s = Subspace.from_spanning(field, m.rows, span)
                assert preimage(m, s) == self._preimage_oracle(m, s)

    def test_membership(self, rng):
        s = Subspace.from_spanning(QQ, 3, [[1, 0, 1], [0, 1, 0]])
        assert s.contains(M([[1], [2], [1]]))
        assert not s.contains(M([[1], [0], [0]]))

    def test_dispatch(self):
        """Each subspace operation on a small case: kernel, intersection, image, preimage, membership."""
        assert kernel(Matrix.identity(QQ, 2)).dim == 0
        s1 = Subspace.from_spanning(QQ, 3, [[1, 0, 0], [0, 1, 0]])
        s2 = Subspace.from_spanning(QQ, 3, [[0, 1, 0], [0, 0, 1]])
        assert s1.intersect(s2).dim == 1
        assert image(M([[1, 2], [2, 4]])).dim == 1
        assert preimage(M([[1, 1], [0, 0]]), Subspace.from_spanning(QQ, 2, [[1, 0]])).dim == 2
        assert s1.contains(M([[0], [1], [0]]))

    def test_image(self):
        m = M([[1, 2], [2, 4]])
        assert image(m) == Subspace.from_spanning(QQ, 2, [[1, 2]])

    def test_coordinates_roundtrip(self, rng):
        for _ in range(20):
            s = Subspace.from_spanning(QQ, 4, [random_matrix(QQ, rng, 1, 4).row(0)
                                               for _ in range(2)])
            if s.dim == 0:
                continue
            coeffs = random_matrix(QQ, rng, s.dim, 1)
            v = s.basis.transpose() @ coeffs
            got, _ = s.coordinates(v)
            assert got == coeffs

    def test_zero_dimensional_spaces(self):
        z = Matrix(QQ, 0, 3, [])
        s = Subspace.from_matrix_rows(z)
        assert s.dim == 0
        assert s.contains(zeros(QQ, 3, 1))
        m = Matrix(QQ, 2, 0, [])
        assert (m @ Matrix(QQ, 0, 5, [])).is_zero()


class TestInvert:
    def test_invert(self, rng):
        for field in BOTH_FIELDS:
            t = random_invertible(field, rng, 3)
            assert t @ invert(t) == Matrix.identity(field, 3)
        assert invert(M([[1, 1], [1, 1]])) is None

    def test_integer_entries_over_q_invert_exactly(self):
        # the public constructor keeps int entries as given; their inverses must still be fractions
        inv = invert(Matrix(QQ, 2, 2, [2, 1, 0, 3]))
        assert inv.render() == "[1/2, -1/6; 0, 1/3]"
        assert all(isinstance(x, Fraction) for x in inv.data if x)


def offsets_by_strides(dims, perm, axes) -> list[int]:
    """exactlin._offsets from its definition: index (i_a for a in axes) sits at sum i_a * (stride of a in the
    output), the output axes being dims permuted by perm, row-major."""
    out_dims = [dims[a] for a in perm]
    stride = {a: prod(out_dims[k + 1:]) for k, a in enumerate(perm)}
    return [sum(i * stride[a] for i, a in zip(index, axes)) for index in product(*(range(dims[a]) for a in axes))]


class TestOffsetTables:
    """_offsets keeps one table per (dims, perm, axes): a tuple equal to a fresh computation, the same object on
    every call."""

    @staticmethod
    def check(dims, perm, axes):
        from entwine.exactlin import _offsets

        table = _offsets(dims, perm, axes)
        assert type(table) is tuple and list(table) == offsets_by_strides(dims, perm, axes)
        assert _offsets(dims, perm, axes) is table

    def test_every_permutation_of_up_to_four_axes(self):
        from itertools import permutations

        for n in range(1, 5):
            for dims in product(range(1, 4), repeat=n):
                for perm in permutations(range(n)):
                    for split in range(n + 1):
                        self.check(dims, perm, tuple(range(split)))
                        self.check(dims, perm, tuple(range(split, n)))

    def test_the_tables_of_every_quad_layout(self):
        from entwine.structures import QUAD_LAYOUTS

        for perm, nrows in QUAD_LAYOUTS.values():
            back = tuple(map(perm.index, range(3)))
            for dims in product(range(1, 4), repeat=3):
                for a in range(3):                      # matrix_from_quads: one axis at a time
                    self.check(dims, perm, (a,))
                axes = tuple(dims[a] for a in perm)     # quads_from_matrix: the row and column axes, permuted back
                self.check(axes, back, range(nrows))
                self.check(axes, back, range(nrows, 3))

    def test_a_permutation_reads_its_cached_table(self):
        from entwine.exactlin import Permutation

        p = Permutation(QQ, (2, 3, 2), (2, 0, 1))
        for by_rows in (True, False):
            assert p.images(by_rows) is Permutation(QQ, (2, 3, 2), (2, 0, 1)).images(by_rows)
        assert type(p.images(True)) is tuple
