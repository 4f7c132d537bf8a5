"""Exact linear algebra over Q and prime fields F_p.

Scalars are fractions.Fraction for Q and plain ints reduced mod p for F_p.
Matrices are immutable and row-major: `data` holds every entry, and the
nonzero entries of each row are cached beside it, found once per matrix or
handed over by the product that made it.  `@` and `kron` walk only those
nonzeros, so the arithmetic of a product grows with its nonzero products
(pairs of nonzero factors), not with the dense sizes; only laying out the
dense result touches every entry.  The law checks work on sparse vectors,
index -> value dicts: sparse_combine sums their plain products without a
Field call per term and returns them canonical (reduced, no zero values),
so two vectors are equal exactly when their dicts are.  A linear map
V -> W with dim V = n, dim W = m is an m x n matrix acting on column
vectors.  Tensor products follow the index convention
idx(i, j) = i * dim2 + j, so that kron(M1, M2) applied to v (x) w equals
M1 v (x) M2 w.

express(basis, vectors) writes every column of `vectors` in the rows of
`basis` with one solve, or returns the index of the first column outside
their span; the constructions that must land in a chosen subspace build
all their images as one matrix and decide closure with one call.

Everything here is a pure function of immutable values; results are in
canonical form (reduced fractions, RREF bases) so they are reproducible
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import prod


class PresentationError(ValueError):
    """Malformed input: bad dimensions, bad scalars, bad references."""


class DimensionMismatch(PresentationError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Q (p is None) or the prime field F_p, p prime and below 2**31."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and (p < 2 or p >= 2**31 or not _is_prime(p)):
            raise PresentationError(f"modulus must be a prime below 2**31, got {p!r}")
        self.p = p

    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    def one(self):
        return 1 % self.p if self.p is not None else Fraction(1)

    def of(self, n: int):
        """Embed an integer."""
        return n % self.p if self.p is not None else Fraction(n)

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if self.p is not None:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        # Fraction.__eq__ is slow; the numerator test is equivalent and cheap
        if self.p is not None:
            return a % self.p == 0
        return a.numerator == 0 if isinstance(a, Fraction) else a == 0

    def fmt(self, a) -> str:
        """Canonical string form: 'n' or 'n/d' over Q, '0 <= n < p' over F_p."""
        if self.p is not None:
            return str(a % self.p)
        f = Fraction(a)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def parse(self, s: str):
        """Parse a canonical scalar string; reject non-canonical forms like '2/4'."""
        if self.p is not None:
            if not isinstance(s, int) or not 0 <= s < self.p:
                raise PresentationError(f"prime-field scalar must be an integer in [0, {self.p}), got {s!r}")
            return s
        if not isinstance(s, str):
            raise PresentationError(f"rational scalar must be a string, got {s!r}")
        try:
            value = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise PresentationError(f"bad rational literal {s!r}") from exc
        if self.fmt(value) != s:
            raise PresentationError(f"non-canonical rational literal {s!r}")
        return value

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Field(Q)" if self.p is None else f"Field(F_{self.p})"


QQ = Field()


def unflat(i: int, dims) -> tuple[int, ...]:
    out = []
    for d in reversed(dims):
        out.append(i % d)
        i //= d
    return tuple(reversed(out))


class Matrix:
    """Immutable dense matrix with exact entries.

    `data` holds every entry, row-major.  The nonzero entries of each row
    are cached on first use (see nonzero_rows); the cache is derived from
    `data` and takes no part in equality or hashing.
    """

    __slots__ = ("field", "rows", "cols", "data", "_nz")

    def __init__(self, field: Field, rows: int, cols: int, data):
        data = tuple(data)
        if len(data) != rows * cols:
            raise DimensionMismatch(f"expected {rows}x{cols}={rows * cols} entries, got {len(data)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data
        self._nz = None

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls(field, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        data = [z] * (n * n)
        for i in range(n):
            data[i * n + i] = o
        return cls(field, n, n, data)

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(field, n, m, [x for r in rows for x in r])

    @classmethod
    def column(cls, field: Field, entries) -> "Matrix":
        entries = list(entries)
        return cls(field, len(entries), 1, entries)

    @classmethod
    def basis_column(cls, field: Field, n: int, i: int) -> "Matrix":
        if not 0 <= i < n:
            raise PresentationError(f"basis index {i} out of range [0, {n})")
        data = [field.zero()] * n
        data[i] = field.one()
        return cls(field, n, 1, data)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def row_matrix(self, i: int) -> "Matrix":
        return Matrix(self.field, 1, self.cols, self.row(i))

    def col_matrix(self, j: int) -> "Matrix":
        return Matrix(self.field, self.rows, 1, self.col(j))

    def nonzero_rows(self) -> tuple:
        """Per row, (column indices, values) of its nonzero entries, in no set order; cached."""
        nz = self._nz
        if nz is None:
            is_zero = self.field.is_zero
            data, c = self.data, self.cols
            rows = []
            for i in range(self.rows):
                row = data[i * c:(i + 1) * c]
                js = tuple(j for j, x in enumerate(row) if not is_zero(x))
                rows.append((js, tuple(row[j] for j in js)))
            self._nz = nz = tuple(rows)
        return nz

    def is_zero(self) -> bool:
        is_zero = self.field.is_zero
        return all(is_zero(x) for x in self.data)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        add = self.field.add
        return Matrix(self.field, self.rows, self.cols,
                      [add(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        sub = self.field.sub
        return Matrix(self.field, self.rows, self.cols,
                      [sub(a, b) for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, self.rows, self.cols, [neg(a) for a in self.data])

    def scale(self, c) -> "Matrix":
        mul = self.field.mul
        return Matrix(self.field, self.rows, self.cols, [mul(c, a) for a in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        p = f.p
        oc = other.cols
        out = [f.zero()] * (self.rows * oc)
        onz = other.nonzero_rows()
        nz = []
        base = 0
        # one dict per output row, fed only by products of two nonzeros
        for ks, avs in self.nonzero_rows():
            acc: dict = {}
            for k, a in zip(ks, avs):
                js, bvs = onz[k]
                for j, b in zip(js, bvs):
                    if j in acc:
                        acc[j] += a * b
                    else:
                        acc[j] = a * b
            js, vs = [], []
            for j, v in acc.items():
                if p is not None:
                    v %= p
                if v:
                    js.append(j)
                    vs.append(v)
                    out[base + j] = v
            nz.append((tuple(js), tuple(vs)))
            base += oc
        m = Matrix(f, self.rows, oc, out)
        m._nz = tuple(nz)
        return m

    def transpose(self) -> "Matrix":
        data = [self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return Matrix(self.field, self.cols, self.rows, data)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; (M1 (x) M2)(v (x) w) = M1 v (x) M2 w."""
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        f = self.field
        p = f.p
        oc = other.cols
        c = self.cols * oc
        out = [f.zero()] * (self.rows * other.rows * c)
        onz = other.nonzero_rows()
        nz = []
        base = 0
        # a product of two nonzeros in a field is nonzero: nothing cancels
        for js1, vs1 in self.nonzero_rows():
            for js2, vs2 in onz:
                js = [j1 * oc + j2 for j1 in js1 for j2 in js2]
                if p is None:
                    vs = [a * b for a in vs1 for b in vs2]
                else:
                    vs = [a * b % p for a in vs1 for b in vs2]
                for j, v in zip(js, vs):
                    out[base + j] = v
                nz.append((tuple(js), tuple(vs)))
                base += c
        m = Matrix(f, self.rows * other.rows, c, out)
        m._nz = tuple(nz)
        return m

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("row count mismatch in hstack")
        rows = [self.row(i) + other.row(i) for i in range(self.rows)]
        return Matrix.from_rows(self.field, rows) if rows else Matrix(self.field, 0, self.cols + other.cols, [])

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("column count mismatch in vstack")
        return Matrix(self.field, self.rows + other.rows, self.cols, self.data + other.data)

    def vec(self) -> tuple:
        """Row-major flattening (the tensor index convention applied to entries)."""
        return self.data

    def render(self) -> str:
        fmt = self.field.fmt
        return "[" + "; ".join(", ".join(fmt(x) for x in self.row(i)) for i in range(self.rows)) + "]"

    def _same_shape(self, other: "Matrix"):
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape or field mismatch")

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.render()})"


def kron(m1: Matrix, m2: Matrix) -> Matrix:
    return m1.kron(m2)


def permute(m: Matrix, dims, perm, nrows: int) -> Matrix:
    """Re-index the entries of m as a tensor.

    The row-major entries of m form a tensor with axes `dims`, the row axes
    first and then the column axes.  Output axis k is input axis perm[k],
    and the first `nrows` output axes index the rows of the result.
    """
    dims, perm = tuple(dims), tuple(perm)
    if sorted(perm) != list(range(len(dims))) or prod(dims) != len(m.data):
        raise DimensionMismatch(f"cannot permute {m.rows}x{m.cols} with axes {dims} by {perm}")
    strides = [prod(dims[a + 1:]) for a in range(len(dims))]
    offsets = [0]
    for a in perm[:-1]:
        s = strides[a]
        offsets = [o + i * s for o in offsets for i in range(dims[a])]
    # the last output axis is copied as one strided slice per offset
    step = strides[perm[-1]]
    span = dims[perm[-1]] * step
    data = m.data
    return Matrix(m.field, prod(dims[a] for a in perm[:nrows]), prod(dims[a] for a in perm[nrows:]),
                  chain.from_iterable(data[o:o + span:step] for o in offsets))


def swap_middle(k: Matrix, dims) -> Matrix:
    """perm_tensor(dims, (0, 2, 1, 3)) @ k: swap the middle two tensor factors of k's rows."""
    return permute(k, (*dims, k.cols), (0, 2, 1, 3, 4), 4)


def swap_matrix(field: Field, m: int, n: int) -> Matrix:
    """Matrix of V (x) W -> W (x) V, e_i (x) e_j -> e_j (x) e_i, dim V = m, dim W = n."""
    return perm_tensor(field, (m, n), (1, 0))


def perm_tensor(field: Field, dims, perm) -> Matrix:
    """Matrix permuting tensor factors: output factor k is input factor perm[k]."""
    dims, perm = tuple(dims), tuple(perm)
    total = prod(dims)
    return permute(Matrix.identity(field, total), dims + (total,), perm + (len(dims),), len(dims))


def _eliminate(rows: list[list], field: Field, width: int | None = None) -> list[int]:
    """In-place reduced row echelon form; returns pivot column indices.

    Only the first `width` columns are eligible as pivots (used for
    augmented solving); trailing columns are carried along.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    if width is None:
        width = ncols
    is_zero = field.is_zero
    sub, mul = field.sub, field.mul
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if not is_zero(rows[i][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        if inv != field.one():
            rows[r] = [mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [sub(x, mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Canonical reduced row echelon form with zero rows dropped."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = _eliminate(rows, m.field)
    kept = rows[:len(pivots)]
    if not kept:
        return Matrix(m.field, 0, m.cols, []), ()
    return Matrix.from_rows(m.field, kept), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


class Subspace:
    """A subspace of F^n, held as a canonical RREF basis (rows)."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: Field, ambient: int, basis: Matrix):
        self.field = field
        self.ambient = ambient
        self.basis = basis
        is_zero = field.is_zero
        self.pivots = tuple(
            next(c for c in range(ambient) if not is_zero(basis[r, c]))
            for r in range(basis.rows))

    @classmethod
    def from_spanning(cls, field: Field, ambient: int, vectors) -> "Subspace":
        """Span of row vectors (any iterable of length-`ambient` rows)."""
        rows = [list(v) for v in vectors]
        if any(len(r) != ambient for r in rows):
            raise DimensionMismatch("wrong vector length")
        if not rows:
            return cls(field, ambient, Matrix(field, 0, ambient, []))
        basis, _ = rref(Matrix.from_rows(field, rows))
        return cls(field, ambient, basis)

    @classmethod
    def from_matrix_rows(cls, m: Matrix) -> "Subspace":
        basis, _ = rref(m)
        return cls(m.field, m.cols, basis)

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix(field, 0, ambient, []))

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix.identity(field, ambient))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, v: Matrix) -> bool:
        """Exact membership of a column vector."""
        return self.coordinates(v) is not None

    def coordinates(self, v: Matrix) -> Matrix | None:
        """Column of coefficients x with basis^T x = v, or None if v is outside."""
        if v.rows != self.ambient or v.cols != 1:
            raise DimensionMismatch("vector has wrong shape")
        return express(self.basis, v)[0]

    def annihilator_matrix(self) -> Matrix:
        """A matrix N with {v : N v = 0} equal to this subspace."""
        ker = kernel(self.basis) if self.dim else Subspace.full(self.field, self.ambient)
        return ker.basis

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient mismatch")
        stacked = self.annihilator_matrix().vstack(other.annihilator_matrix())
        return kernel(stacked)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient mismatch")
        return Subspace.from_matrix_rows(self.basis.vstack(other.basis))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient}, basis {self.basis.render()})"


@dataclass(frozen=True)
class LinearSolution:
    particular: Matrix
    kernel: Subspace


def solve_linear(a: Matrix, b: Matrix) -> LinearSolution | None:
    """Solve A X = B exactly; None when inconsistent.

    The particular solution sets all free variables to zero; the kernel
    comes back as a canonical RREF subspace of the column space of A.
    """
    if a.field != b.field:
        raise DimensionMismatch("field mismatch")
    if a.rows != b.rows:
        raise DimensionMismatch(f"A has {a.rows} rows but B has {b.rows}")
    field = a.field
    zero = field.zero()
    rows = [list(a.row(i)) + list(b.row(i)) for i in range(a.rows)]
    if not rows:
        return LinearSolution(Matrix.zeros(field, a.cols, b.cols), kernel(a))
    pivots = _eliminate(rows, field, width=a.cols)
    for i in range(len(pivots), len(rows)):
        if any(x != zero for x in rows[i][a.cols:]):
            return None
    part = [[zero] * b.cols for _ in range(a.cols)]
    for r, c in enumerate(pivots):
        part[c] = list(rows[r][a.cols:])
    particular = Matrix.from_rows(field, part) if a.cols else Matrix(field, 0, b.cols, [])
    return LinearSolution(particular, _kernel_from_rref(field, a.cols, rows[:len(pivots)], pivots))


def express(basis: Matrix, vectors: Matrix) -> tuple[Matrix, None] | tuple[None, int]:
    """Write every column of `vectors` in the rows of `basis`, with one solve.

    Returns (X, None) with basis^T X = vectors, free coefficients zero, or
    (None, j) with j the first column outside the row span of basis.
    """
    a = basis.transpose()
    sol = solve_linear(a, vectors)
    if sol is not None:
        return sol.particular, None
    return None, next(j for j in range(vectors.cols) if solve_linear(a, vectors.col_matrix(j)) is None)


def _kernel_from_rref(field: Field, ncols: int, rows: list[list], pivots: list[int]) -> Subspace:
    zero, one = field.zero(), field.one()
    free = [c for c in range(ncols) if c not in pivots]
    vectors = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(rows[r][fc])
        vectors.append(v)
    return Subspace.from_spanning(field, ncols, vectors)


def kernel(m: Matrix) -> Subspace:
    """Null space {v : M v = 0} as a canonical subspace of F^cols."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = _eliminate(rows, m.field) if rows else []
    return _kernel_from_rref(m.field, m.cols, rows[:len(pivots)], list(pivots))


def image(m: Matrix) -> Subspace:
    """Column space of M as a subspace of F^rows."""
    return Subspace.from_matrix_rows(m.transpose())


def preimage(m: Matrix, s: Subspace) -> Subspace:
    """{v : M v in S} as a subspace of F^cols."""
    if s.ambient != m.rows:
        raise DimensionMismatch("subspace ambient must match M's row count")
    n = s.annihilator_matrix()
    if n.rows == 0:
        return Subspace.full(m.field, m.cols)
    return kernel(n @ m)


def member(v: Matrix, s: Subspace) -> bool:
    return s.contains(v)


def subspace_ops(kind: str, *args):
    """Dispatch for subspace operations: kernel, image, intersect, preimage, membership."""
    table = {
        "kernel": kernel,
        "image": image,
        "intersect": lambda s1, s2: s1.intersect(s2),
        "preimage": preimage,
        "membership": member,
    }
    if kind not in table:
        raise PresentationError(f"unknown subspace operation {kind!r}")
    return table[kind](*args)


def columns_of(m: Matrix) -> list[dict]:
    """Columns as sparse index -> value dicts, for dimension-safe evaluation."""
    cols: list[dict] = [{} for _ in range(m.cols)]
    for i, (js, vs) in enumerate(m.nonzero_rows()):
        for j, v in zip(js, vs):
            cols[j][i] = v
    return cols


def sparse_combine(cols, vec: dict, field: Field) -> dict:
    """sum vec[j] * cols[j] over sparse index -> value dicts, in canonical form.

    cols is anything indexable by the keys of vec.  Plain products are summed
    per entry and reduced once (mod p over F_p, Fraction sums over Q), and
    entries that cancel are dropped, so the result is reduced and holds no
    zero: two results are equal exactly when they are equal as dicts.
    """
    acc: dict = {}
    for j, v in vec.items():
        for i, w in cols[j].items():
            if i in acc:
                acc[i] += v * w
            else:
                acc[i] = v * w
    p = field.p
    if p is None:
        return {i: s for i, s in acc.items() if s}
    return {i: r for i, s in acc.items() if (r := s % p)}


def sparse_render(vec: dict, field: Field) -> str:
    """A canonical sparse vector as '{index: scalar, ...}' in index order."""
    return "{" + ", ".join(f"{k}: {field.fmt(v)}" for k, v in sorted(vec.items())) + "}"


def invert(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices invert")
    sol = solve_linear(m, Matrix.identity(m.field, m.rows))
    if sol is None or sol.kernel.dim != 0:
        return None
    return sol.particular
