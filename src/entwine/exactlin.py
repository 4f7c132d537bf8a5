"""Exact linear algebra over Q and prime fields F_p.

Scalars over F_p are ints reduced mod p.  Over Q they are ints, and a
Fraction only where a division leaves a proper fraction; a whole-number
Fraction from a sum or product equals and hashes as its int.
Matrices are immutable and hold only their nonzeros: one dict per row,
from column index to value.  Every operation reads and writes that form,
so the work and the memory of a product, a Kronecker product, a transpose,
a re-indexing or an elimination grow with the nonzeros (and the number of
rows), not with the dense sizes; elimination returns canonical RREF
bases.  _vectors reads a side of a law, a composition of structure
maps whose tensor factors kron(X, id) are never laid out, one row or one
column at a time, as a sparse row product (Gustavson): it pushes a basis
vector through the factors, sums plain products without a Field call per
term and returns each vector canonical (an index -> value dict, reduced,
no zero values), so two vectors are equal exactly when their dicts are.
A factor kron(X, id_k) or kron(id_k, X) reads the lines of X itself and
moves each index where it lands as it pushes: no shifted copy of a line
is made; a Permutation of tensor factors moves each index and reads no
line at all.
A factor over F_p whose lines are wide and nonzero enough is pushed
packed instead, each of its lines one int with a 2-, 4- or 8-byte slot per
entry (Kronecker substitution), so a line read costs one big-int
operation, not one Python step per entry, and a packed vector is reduced
mod p by byte tables; _shape gives a side's shape without evaluating
it.  A linear map V -> W with
dim V = n, dim W = m is an m x n matrix acting on column vectors.
Tensor products follow the index convention idx(i, j) = i * dim2 + j, so
that kron(M1, M2) applied to v (x) w equals M1 v (x) M2 w.

express(basis, vectors) writes every column of `vectors` in the rows of
`basis` with one solve, or returns the index of the first column outside
their span; the constructions that must land in a chosen subspace build
all their images as one matrix and decide closure with one call.  When
the rows are a Subspace's RREF basis, Subspace.coordinates gives the same
answer with no elimination: it reads each column's entries at the pivots
and checks them all with one product.

Everything here is a pure function of immutable values; results are in
canonical form (reduced fractions, RREF bases) so they are reproducible
byte for byte.
"""

from __future__ import annotations

import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain, compress
from math import isqrt, prod


class PresentationError(ValueError):
    """Malformed input: bad dimensions, bad scalars, bad references."""


class DimensionMismatch(PresentationError):
    pass


class Field:
    """Q (Field(), p None) or the prime field F_p (Field(p), p prime below 2**31).

    Field(...) makes an instance of the class for its characteristic, so no
    scalar op tests p.  In both, zero and one are the ints 0 and 1.
    """

    __slots__ = ("p",)

    def __new__(cls, p: int | None = None):
        return object.__new__((Rationals if p is None else PrimeField) if cls is Field else cls)

    def __init__(self, p: int | None = None):
        if p is not None and not (2 <= p < 2**31 and all(p % d for d in range(2, isqrt(p) + 1))):
            raise PresentationError(f"modulus must be a prime below 2**31, got {p!r}")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Field(Q)" if self.p is None else f"Field(F_{self.p})"


class Rationals(Field):
    """Q: the whole numbers made here are ints and the Fractions proper; sums and products are left as is."""

    __slots__ = ()
    of = staticmethod(operator.index)   # embed an integer
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    is_zero = staticmethod(operator.not_)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _whole(Fraction(1) / a)

    def fmt(self, a) -> str:
        """Canonical string form: 'n' or 'n/d'."""
        return str(a) if type(a) is int else str(Fraction(a))

    def parse(self, s: str):
        """Parse a canonical scalar string; reject non-canonical forms like '2/4' or '+1'."""
        if not isinstance(s, str):
            raise PresentationError(f"rational scalar must be a string, got {s!r}")
        try:
            value = int(s)
        except ValueError:
            try:
                value = Fraction(s)
            except (ValueError, ZeroDivisionError) as exc:
                raise PresentationError(f"bad rational literal {s!r}") from exc
        if str(value) != s:
            raise PresentationError(f"non-canonical rational literal {s!r}")
        return value


class PrimeField(Field):
    """F_p: scalars are ints in [0, p)."""

    __slots__ = ()

    def of(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def fmt(self, a) -> str:
        return str(a % self.p)

    def parse(self, s):
        if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < self.p:
            raise PresentationError(f"prime-field scalar must be an integer in [0, {self.p}), got {s!r}")
        return s


def _whole(x):
    """A rational scalar as an int when it is a whole number."""
    return x.numerator if x.denominator == 1 else x


QQ = Field()


def unflat(i: int, dims) -> tuple[int, ...]:
    out = []
    for d in reversed(dims):
        out.append(i % d)
        i //= d
    return tuple(reversed(out))


class Matrix:
    """Immutable matrix with exact entries, held as its nonzeros only.

    Each row is a dict from column index to the nonzero entry there; a zero
    is never stored, so two matrices are equal exactly when their row dicts
    are.  Row dicts are shared between matrices and never written after the
    matrix that made them is built.  `data` is a read-only row-major tuple of
    every entry, for readers outside the package, nonzeros gives the stored
    entries, and columns_of gives the column dicts; data and the columns
    are laid out on first read and kept, as is what
    _vectors derives from the matrix (_kernel_data): whether it packs,
    and its packed lines.
    """

    __slots__ = ("field", "rows", "cols", "_rows", "_data", "_cols", "_kernel")

    def __init__(self, field: Field, rows: int, cols: int, data):
        """The matrix with the given row-major entries, zeros included; over F_p an entry x is stored as x % p."""
        p = field.p
        data = tuple(data) if p is None else tuple(map(p.__rmod__, data))
        if len(data) != rows * cols:
            raise DimensionMismatch(f"expected {rows}x{cols}={rows * cols} entries, got {len(data)}")
        self.field, self.rows, self.cols, self._data, self._cols, self._kernel = field, rows, cols, None, None, None
        # an entry is kept where it is nonzero, that is truthy
        self._rows = tuple(dict(compress(enumerate(line), line))
                           for line in (data[i * cols:(i + 1) * cols] for i in range(rows)))

    @classmethod
    def _of_rows(cls, field: Field, rows: int, cols: int, entries) -> "Matrix":
        """The matrix whose rows are the given dicts: nonzero values only, never written again."""
        m = object.__new__(cls)
        m.field, m.rows, m.cols, m._rows = field, rows, cols, tuple(entries)
        m._data, m._cols, m._kernel = None, None, None
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls._of_rows(field, n, n, ({i: 1} for i in range(n)))
        m._cols = m._rows   # its own transpose: a law side that reads it by columns transposes nothing
        return m

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(field, n, m, [x for r in rows for x in r])

    @classmethod
    def from_entries(cls, field: Field, rows: int, cols: int, entries) -> "Matrix":
        """The sum of the (i, j, value) entries, each position in range: repeats add, zero sums drop.

        Sums are plain, reduced once at the end over F_p.
        """
        p = field.p
        out = [{} for _ in range(rows)]
        for i, j, v in entries:
            r = out[i]
            r[j] = r.get(j, 0) + v
        if p is None:
            return cls._of_rows(field, rows, cols, (dict(compress(r.items(), r.values())) for r in out))
        return cls._of_rows(field, rows, cols, ({j: x for j, v in r.items() if (x := v % p)} for r in out))

    @classmethod
    def from_columns(cls, field: Field, rows: int, columns) -> "Matrix":
        """The matrix whose j-th column holds the entries of columns[j], read row-major.

        A column vector gives itself; a matrix gives its flattening in the
        tensor index convention.
        """
        columns = list(columns)
        out = [{} for _ in range(rows)]
        for j, c in enumerate(columns):
            if c.field != field or c.rows * c.cols != rows:
                raise DimensionMismatch(f"column {j} is {c.rows}x{c.cols} over {c.field}, expected {rows} entries")
            for i, r in enumerate(c._rows):
                base = i * c.cols
                for k, v in r.items():
                    out[base + k][j] = v
        return cls._of_rows(field, rows, len(columns), out)

    @classmethod
    def column(cls, field: Field, entries) -> "Matrix":
        entries = list(entries)
        return cls(field, len(entries), 1, entries)

    @classmethod
    def basis_column(cls, field: Field, n: int, i: int) -> "Matrix":
        if not 0 <= i < n:
            raise PresentationError(f"basis index {i} out of range [0, {n})")
        return cls._of_rows(field, n, 1, ({0: 1} if k == i else {} for k in range(n)))

    @property
    def data(self) -> tuple:
        if self._data is None:
            self._data = tuple(chain.from_iterable(self.row(i) for i in range(self.rows)))
        return self._data

    def __getitem__(self, ij):
        return self._rows[ij[0]].get(ij[1], 0)

    def row(self, i: int) -> tuple:
        r, z = self._rows[i], self.field.zero()
        return tuple(r.get(j, z) for j in range(self.cols))

    def col(self, j: int) -> tuple:
        z = self.field.zero()
        return tuple(r.get(j, z) for r in self._rows)

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """A row or column vector's entries, read row-major, as a rows x cols matrix."""
        return permute(self, (rows, cols), (0, 1), 1)

    def row_matrix(self, i: int) -> "Matrix":
        return Matrix._of_rows(self.field, 1, self.cols, (self._rows[i],))

    def col_matrix(self, j: int) -> "Matrix":
        return Matrix._of_rows(self.field, self.rows, 1, ({0: r[j]} if j in r else {} for r in self._rows))

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, tuple(frozenset(r.items()) for r in self._rows)))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        add, is_zero = self.field.add, self.field.is_zero
        out = []
        for r1, r2 in zip(self._rows, other._rows):
            row = dict(r1)
            for j, b in r2.items():
                v = add(row.get(j, 0), b)
                if is_zero(v):
                    row.pop(j, None)
                else:
                    row[j] = v
            out.append(row)
        return Matrix._of_rows(self.field, self.rows, self.cols, out)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix._of_rows(self.field, self.rows, self.cols,
                               ({j: neg(v) for j, v in r.items()} for r in self._rows))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p = self.field.p
        orows = other._rows
        out = []
        # one dict per output row, fed only by products of two nonzeros
        for row in self._rows:
            acc: dict = {}
            for k, a in row.items():
                for j, b in orows[k].items():
                    if j in acc:
                        acc[j] += a * b
                    else:
                        acc[j] = a * b
            if p is None:
                out.append({j: v for j, v in acc.items() if v})
            else:
                out.append({j: r for j, v in acc.items() if (r := v % p)})
        return Matrix._of_rows(self.field, self.rows, other.cols, out)

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._rows):
            for j, v in r.items():
                out[j][i] = v
        return Matrix._of_rows(self.field, self.cols, self.rows, out)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; (M1 (x) M2)(v (x) w) = M1 v (x) M2 w."""
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        p = self.field.p
        oc = other.cols
        orows = other._rows
        out = []
        # a product of two nonzeros in a field is nonzero: nothing cancels
        for r1 in self._rows:
            shifted = [(j1 * oc, a) for j1, a in r1.items()]
            for r2 in orows:
                if p is None:
                    out.append({base + j2: a * b for base, a in shifted for j2, b in r2.items()})
                else:
                    out.append({base + j2: a * b % p for base, a in shifted for j2, b in r2.items()})
        return Matrix._of_rows(self.field, self.rows * other.rows, self.cols * oc, out)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("row count mismatch in hstack")
        c = self.cols
        return Matrix._of_rows(self.field, self.rows, c + other.cols,
                               (r1 | {j + c: v for j, v in r2.items()}
                                for r1, r2 in zip(self._rows, other._rows)))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("column count mismatch in vstack")
        return Matrix._of_rows(self.field, self.rows + other.rows, self.cols, self._rows + other._rows)

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
    first and then the column axes, so a prefix of dims multiplies to
    m.rows.  Output axis k is input axis perm[k], and the first `nrows`
    output axes index the rows of the result.
    """
    dims, perm = tuple(dims), tuple(perm)
    split = next((k for k in range(len(dims) + 1) if prod(dims[:k]) == m.rows), None)
    if sorted(perm) != list(range(len(dims))) or prod(dims) != m.rows * m.cols or split is None:
        raise DimensionMismatch(f"cannot permute {m.rows}x{m.cols} with axes {dims} by {perm}")
    row_at, col_at = _offsets(dims, perm, range(split)), _offsets(dims, perm, range(split, len(dims)))
    cols = prod(dims[a] for a in perm[nrows:])
    out = [{} for _ in range(prod(dims[a] for a in perm[:nrows]))]
    for i, r in enumerate(m._rows):
        base = row_at[i]
        for j, v in r.items():
            oi, oj = divmod(base + col_at[j], cols)
            out[oi][oj] = v
    return Matrix._of_rows(m.field, len(out), cols, out)


def _offsets(dims, perm, axes) -> list[int]:
    """The output offset, row-major, of every index over these input axes of a tensor permuted as in permute."""
    strides, step = [0] * len(dims), 1   # stride of each input axis in the row-major entries of the output
    for a in reversed(perm):
        strides[a], step = step, step * dims[a]
    out = [0]
    for a in axes:
        out = [o + i * strides[a] for o in out for i in range(dims[a])]
    return out


def swap_matrix(field: Field, m: int, n: int) -> Matrix:
    """Matrix of V (x) W -> W (x) V, e_i (x) e_j -> e_j (x) e_i, dim V = m, dim W = n."""
    # row (j, i) holds its 1 at column (i, j)
    return Matrix._of_rows(field, m * n, m * n, ({r % m * n + r // m: 1} for r in range(m * n)))


class Permutation:
    """A law factor that permutes tensor factors, output factor k input factor perm[k] of dims, never laid out.

    _vectors pushes each key to its image (images) with its coefficient
    unchanged; it has the field, rows and cols that _shape reads.
    """

    __slots__ = ("field", "rows", "cols", "dims", "perm")

    def __init__(self, field: Field, dims, perm):
        dims, perm = tuple(dims), tuple(perm)
        if sorted(perm) != list(range(len(dims))):
            raise DimensionMismatch(f"cannot permute axes {dims} by {perm}")
        self.field, self.dims, self.perm = field, dims, perm
        self.rows = self.cols = prod(dims)

    def images(self, by_rows: bool) -> list[int]:
        """Where each input index goes (by columns), or, by rows, where each output index comes from."""
        dims, perm = self.dims, self.perm
        if by_rows:     # the inverse permutation, of the permuted axes
            dims, perm = tuple(dims[a] for a in perm), tuple(map(perm.index, range(len(perm))))
        return _offsets(dims, perm, range(len(dims)))


def _eliminate(rows: list[dict], field: Field, width: int) -> list[int]:
    """Bring row dicts to reduced row echelon form in place; returns the pivot columns.

    The dicts must belong to the caller: they are written.  Each pivot is
    the leftmost column below `width` holding a nonzero in the rows not yet
    used, taken from the first such row; trailing columns (the right-hand
    sides of solve_linear) are carried along.  The pivot rows end up first,
    in pivot order.  Entries are plain products, reduced mod p over F_p,
    and an entry that cancels is dropped, so every row stays canonical;
    over Q a pivot row scaled by a fraction keeps its whole entries as int.
    The rows left hold nothing at or before the last pivot column, so the
    search tries the next column first, and reads the leftmost entry of
    every row left only when no row left holds that one.
    """
    p = field.p
    pivots: list[int] = []
    n, c = len(rows), 0
    for r in range(n):
        i = next((i for i in range(r, n) if c in rows[i]), None) if c < width else None
        if i is None:
            # the leftmost column holding a nonzero in the rows left; at or past width, only right-hand sides are
            c = min((min(row) for row in rows[r:] if row), default=width)
            if c >= width:
                break
            i = next(i for i in range(r, n) if c in rows[i])
        row = rows[i]
        rows[i] = rows[r]
        if row[c] != 1:
            inv = field.inv(row[c])
            row = {k: v * inv % p for k, v in row.items()} if p else {k: _whole(v * inv) for k, v in row.items()}
        rows[r] = row
        for other in rows:
            if other is row or c not in other:
                continue
            factor = other[c]
            for k, v in row.items():
                x = other.get(k, 0) - factor * v
                if p is not None:
                    x %= p
                if x:
                    other[k] = x
                else:   # a product of two nonzeros is nonzero, so k was in other
                    del other[k]
        pivots.append(c)
        c += 1
    return pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Canonical reduced row echelon form with zero rows dropped."""
    rows = [dict(r) for r in m._rows]
    pivots = _eliminate(rows, m.field, m.cols)
    return Matrix._of_rows(m.field, len(pivots), m.cols, rows[:len(pivots)]), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


class Subspace:
    """A subspace of F^n, held as a canonical RREF basis (rows).

    The constructor takes the basis as given: it must already be in RREF,
    as from_matrix_rows makes it, since pivots and coordinates read it so.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: Field, ambient: int, basis: Matrix):
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = tuple(min(r) for r in basis._rows)

    @classmethod
    def from_spanning(cls, field: Field, ambient: int, vectors) -> "Subspace":
        """Span of row vectors (any iterable of length-`ambient` rows)."""
        rows = [list(v) for v in vectors]
        if any(len(r) != ambient for r in rows):
            raise DimensionMismatch("wrong vector length")
        return cls.from_matrix_rows(Matrix(field, len(rows), ambient, [x for r in rows for x in r]))

    @classmethod
    def from_matrix_rows(cls, m: Matrix) -> "Subspace":
        basis, _ = rref(m)
        return cls(m.field, m.cols, basis)

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix.identity(field, ambient))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, v: Matrix) -> bool:
        """Exact membership of a column vector."""
        if v.cols != 1:
            raise DimensionMismatch("vector has wrong shape")
        return self.coordinates(v)[0] is not None

    def coordinates(self, vectors: Matrix) -> tuple[Matrix, None] | tuple[None, int]:
        """Write every column of `vectors` in the basis, as express does, with no elimination.

        Returns (X, None) with basis^T X = vectors, or (None, j) with j the
        first column outside the span.  The basis is in RREF, so a vector
        of the span has its coordinates at the pivots: X is read off there,
        and one product basis^T X checks every column at once.
        """
        if vectors.rows != self.ambient or vectors.field != self.field:
            raise DimensionMismatch("vectors have the wrong length or field")
        rows = vectors._rows
        x = Matrix._of_rows(self.field, self.dim, vectors.cols, (rows[c] for c in self.pivots))
        back = Matrix._of_rows(self.field, self.ambient, self.dim, columns_of(self.basis)) @ x
        if back._rows == rows:
            return x, None
        return None, min(j for r, s in zip(back._rows, rows) if r != s
                         for j in r.keys() | s.keys() if r.get(j) != s.get(j))

    def annihilator_matrix(self) -> Matrix:
        """A matrix N with {v : N v = 0} equal to this subspace."""
        return kernel(self.basis).basis

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
    n = a.cols
    rows = list(a.hstack(b)._rows)   # fresh dicts, B's columns shifted by n
    pivots = _eliminate(rows, a.field, n)
    if any(rows[len(pivots):]):
        return None
    part = [{} for _ in range(n)]
    for row, c in zip(rows, pivots):
        part[c] = {k - n: v for k, v in row.items() if k >= n}
    return LinearSolution(Matrix._of_rows(a.field, n, b.cols, part), _kernel_from_rref(a.field, n, rows, pivots))


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


def _kernel_from_rref(field: Field, ncols: int, rows: list[dict], pivots: list[int]) -> Subspace:
    """{v : R v = 0} for R in RREF, given by its pivot rows; entries at columns >= ncols are ignored."""
    taken = set(pivots)
    # one vector per free column fc: e_fc minus R's column fc placed at the pivot columns
    free = {fc: {fc: field.one()} for fc in range(ncols) if fc not in taken}
    for row, pc in zip(rows, pivots):
        for k, v in row.items():
            if k in free:
                free[k][pc] = field.neg(v)
    return Subspace.from_matrix_rows(Matrix._of_rows(field, len(free), ncols, free.values()))


def kernel(m: Matrix) -> Subspace:
    """Null space {v : M v = 0} as a canonical subspace of F^cols."""
    rows = [dict(r) for r in m._rows]
    return _kernel_from_rref(m.field, m.cols, rows, _eliminate(rows, m.field, m.cols))


def image(m: Matrix) -> Subspace:
    """Column space of M as a subspace of F^rows."""
    return Subspace.from_matrix_rows(m.transpose())


def preimage(m: Matrix, s: Subspace) -> Subspace:
    """{v : M v in S} as a subspace of F^cols."""
    if s.ambient != m.rows:
        raise DimensionMismatch("subspace ambient must match M's row count")
    return kernel(s.annihilator_matrix() @ m)


def columns_of(m: Matrix) -> tuple[dict, ...]:
    """Columns as sparse index -> value dicts (the rows of the transpose); read-only, kept once made."""
    if m._cols is None:
        m._cols = m.transpose()._rows
    return m._cols


def nonzeros(m: Matrix):
    """The stored entries (i, j, value) of m, row by row, each row in the order its dict keeps."""
    return ((i, j, v) for i, r in enumerate(m._rows) for j, v in r.items())


def _terms(side, sign: int = 1) -> list:
    """sign times a law side as (sign, factors) terms, each factor (X, k, x_first): kron(X, id_k) or kron(id_k, X)."""
    if isinstance(side, list):
        return [term for s, t in side for term in _terms(t, sign * s)]
    if isinstance(side, (Matrix, Permutation)) or isinstance(side[0], int) or isinstance(side[-1], int):
        side = (side,)
    return [(sign, [(f, 1, True) if isinstance(f, (Matrix, Permutation)) else
                    (f[0], f[1], True) if isinstance(f[0], Matrix) else (f[1], f[0], False)
                    for f in side])]


def _shape(terms) -> tuple[Field, int, int]:
    """(field, rows, cols) of a law side split into its terms, read off the factors without evaluating any."""
    shape = None
    for _, factors in terms:
        x, k, _ = factors[0]
        field, rows, cols = x.field, x.rows * k, x.cols * k
        for x, k, _ in factors[1:]:
            if x.cols * k != rows or x.field != field:
                raise DimensionMismatch(f"cannot apply {x.rows * k}x{x.cols * k} after {rows} rows")
            rows = x.rows * k
        if shape not in (None, (field, rows, cols)):
            raise DimensionMismatch("the terms of a law side differ in shape or field")
        shape = (field, rows, cols)
    return shape


def _vectors(terms, by_rows: bool):
    """Read a law side one vector at a time: vector(i) is row i when by_rows, else column i.

    The side comes split by _terms into terms of one shape and field
    (_shape reads that shape off the factors).  A side is a Matrix; a
    tuple of factors applied left to right, each a Matrix, a Permutation
    of tensor factors, or a pair (X, k) or (k, X), k an int, that stands
    for kron(X, id_k) or kron(id_k, X); neither a Permutation nor a pair is
    laid out.  A side may also be such a pair on its own, or a list of
    (sign, side) terms, sign 1 or -1, for their sum.
    The kernel pushes the basis vector i, times the sign of a term, through
    the factors' rows, last factor first, or through their columns (the
    rows of the transposed composition, columns_of), first factor first,
    summing plain products.  It reduces once, at the end (mod p over F_p),
    so each vector comes back canonical (an index -> value dict, no zero
    values): two vectors are equal exactly when their dicts are.

    A Permutation moves each key to its image (Permutation.images) and
    multiplies nothing.  A factor over F_p is read as a packed stage
    (Kronecker substitution),
    unless a term reads it first, when its lines (the rows or columns read)
    pay for it: they have at least 16 entries, at least one in 8 of them
    nonzero and at least 8 nonzeros each on average, and the block bound
    len(lines) * (p - 1)**2 is below 2**64.  Each line is then one int with
    one slot per entry, the narrowest of 2, 4 or 8 bytes that holds the
    block bound, entries reduced mod p (-1 is stored as p - 1); pushing a
    key adds c * line into one int per output block, c the key's
    coefficient reduced mod p, so a block sums at most len(lines) products
    below (p - 1)**2 and no slot carries into the next.  The blocks are
    joined into one int with one slot per output index.  The packed last
    stages of a side's terms are added as ints, in slots that hold the sum
    of their block bounds; a term's last stage packs only while that sum
    stays below 2**64.  A packed sum is reduced mod p slot by slot with
    byte tables: byte j of a B-byte slot maps to its value times 256**j mod
    p, and the B images of a slot are summed in a single byte, which holds
    them while B * (p - 1) < 256; a wider slot or a larger prime is
    reduced one slot at a time instead.  An intermediate packed stage hands
    its nonzero residues to the next stage; the sparse terms are added
    after the reduction.  Every other factor, and every law over Q, is
    pushed sparsely, one dict update per product.
    """
    p, pushes, size = _stages(terms, by_rows)

    if size is None:     # no last stage packs: every term lands in one sparse sum
        def vector(i: int) -> dict:
            acc: dict = {}
            for sign, stages, last in pushes:
                v = {i: sign}
                for push in stages:
                    v = push(v, {})
                last(v, acc)
            if p is None:
                return {t: s for t, s in acc.items() if s}
            return {t: r for t, s in acc.items() if (r := s % p)}

        return vector

    x, k, _ = terms[0][1][0] if by_rows else terms[0][1][-1]
    n = (x.cols if by_rows else x.rows) * k    # the length of a vector

    def packed_vector(i: int) -> dict:
        acc: dict = {}
        total = 0          # the sum of the terms whose last stage packs, in slots of `size` bytes
        for sign, stages, last in pushes:
            v = {i: sign}
            for push in stages:
                v = push(v, {})
            out = last(v, acc)
            if out is not acc:
                total += out
        res = _residues(total, n, size, p)
        for t, s in acc.items():
            res[t] = (res[t] + s) % p
        if res.count(0) == len(res):
            return {}
        return dict(compress(enumerate(res), res))

    return packed_vector


def _stages(terms, by_rows: bool) -> tuple[int | None, list, int | None]:
    """p, the terms of _vectors and the slot bytes their packed last stages share, None when none packs.

    Each term is (sign, push of every stage but the last, push of the last).
    """
    p = terms[0][1][0][0].field.p
    out, lasts, bound = [], [], 0
    for sign, factors in terms:
        stages, last = [], len(factors) - 1
        for n, (x, k, x_first) in enumerate(reversed(factors) if by_rows else factors):
            # the first stage reads one line per vector: nothing to pack
            if not n or p is None or not _packs(x, by_rows):
                stages.append(_sparse_stage(x, k, x_first, by_rows))
            elif n < last:
                stages.append(_packed_stage(x, k, x_first, by_rows, None))
            elif bound + _block_bound(x, by_rows) < 2**64:   # the packed last stages add up in shared slots
                bound += _block_bound(x, by_rows)
                lasts.append((len(out), x, k, x_first))
                stages.append(None)   # made below, once the shared slots are known
            else:
                stages.append(_sparse_stage(x, k, x_first, by_rows))
        out.append([sign, stages[:-1], stages[-1]])
    if not lasts:
        return p, out, None
    size = _slot_bytes(bound)
    for t, x, k, x_first in lasts:
        out[t][2] = _packed_stage(x, k, x_first, by_rows, size)
    return p, out, size


def _sparse_stage(x: Matrix, k: int, x_first: bool, by_rows: bool):
    """The push of one factor, one dict update per product; a Permutation's, one per key."""
    if type(x) is Permutation:
        return partial(_push_permuted, x.images(by_rows))
    lines = x._rows if by_rows else columns_of(x)
    if k == 1:      # key q: line q of X
        return partial(_push_plain, lines)
    if x_first:     # key q * k + r: line q of X, its indices t moved to t * k + r
        return partial(_push_strided, lines, k)
    d_in, d_out = (x.rows, x.cols) if by_rows else (x.cols, x.rows)
    return partial(_push, lines, d_in, d_out)   # key q * d_in + r: line r of X, in block q of the output


def _packed_stage(x: Matrix, k: int, x_first: bool, by_rows: bool, size: int | None):
    """The push of one packed factor: a last stage's, unreduced in slots of size bytes; else (size None) reduced.

    An intermediate stage's slots are the narrowest that hold its own block bound.
    """
    kept = _kernel_data(x)
    d_in, d_out = (x.rows, x.cols) if by_rows else (x.cols, x.rows)
    slot = size or _slot_bytes(_block_bound(x, by_rows))
    key = ("packed", by_rows, slot)
    if key not in kept:
        kept[key] = _pack(x._rows if by_rows else columns_of(x), d_out, slot, x.field.p)
    # key q * k + r: line q into block r, strided; key q * d_in + r: line r into block q, contiguous
    return partial(_push_packed, kept[key], k if x_first else d_in, x_first, d_out, k, slot, x.field.p, size is None)


# the array codes of the packed slots by their width in bytes, narrowest first: at least 2, 4 and 8
_SLOT_CODES = {array(code).itemsize: code for code in "QIH"}
_SLOT_SIZES = sorted(_SLOT_CODES)
# array slots are read and written in native byte order; packed ints are little-endian
_BIG_ENDIAN = sys.byteorder == "big"


def _kernel_data(x: Matrix) -> dict:
    """What _vectors derives from x once and keeps: its packing decisions and packed lines.

    A sparse stage keeps nothing: a pair (X, k) reads X's own lines and
    moves each index as it pushes, so no shifted copy of a line is made.
    """
    if x._kernel is None:
        x._kernel = {}
    return x._kernel


def _packs(x: Matrix, by_rows: bool) -> bool:
    """Whether x, read by rows or by columns after a term's first stage, pays for packing (_vectors).

    Its lines have 16 entries or more, the block bound fits 64 bits, and x
    has at least one nonzero in 8 entries and 8 nonzeros a line; the count
    of nonzeros is made once per matrix and side.
    """
    p = x.field.p
    width, count = x.cols if by_rows else x.rows, x.rows if by_rows else x.cols
    if p is None or type(x) is Permutation or width < 16 or count * (p - 1) ** 2 >= 2**64:
        return False
    kept = _kernel_data(x)
    key = ("packs", by_rows)
    if key not in kept:
        nonzeros = sum(map(len, x._rows))
        kept[key] = 8 * nonzeros >= width * count and nonzeros >= 8 * count
    return kept[key]


def _block_bound(x: Matrix, by_rows: bool) -> int:
    """A bound on every slot of a packed push through x: one product below (p - 1)**2 per line."""
    return (x.rows if by_rows else x.cols) * (x.field.p - 1) ** 2


def _slot_bytes(bound: int) -> int:
    """The narrowest slot width, in bytes, that holds every value up to bound."""
    return next(size for size in _SLOT_SIZES if bound < 256**size)


def _pack(lines, width: int, size: int, p: int) -> list[int]:
    """Each line as one int, entry t reduced mod p in bytes [size t, size t + size)."""
    out = []
    for line in lines:
        slots = array(_SLOT_CODES[size], bytes(size * width))
        for t, w in line.items():
            slots[t] = w % p
        if _BIG_ENDIAN:
            slots.byteswap()
        out.append(int.from_bytes(slots, "little"))
    return out


@cache
def _byte_tables(p: int, size: int) -> tuple[tuple[bytes, ...], bytes] | None:
    """The tables that reduce slots of size bytes mod p: byte j to its value times 256**j mod p, then a byte mod p.

    None when the size images of a slot could sum past a byte.
    """
    if size * (p - 1) >= 256:
        return None
    return (tuple(bytes(b * pow(256, j, p) % p for b in range(256)) for j in range(size)),
            bytes(b % p for b in range(256)))


def _residues(total: int, n: int, size: int, p: int):
    """The n slots of size bytes of total, each reduced mod p: a bytearray by byte tables, else a list."""
    data = total.to_bytes(n * size, "little")
    tables = _byte_tables(p, size)
    if tables is None:
        slots = array(_SLOT_CODES[size], data)
        if _BIG_ENDIAN:
            slots.byteswap()
        return [s % p for s in slots]
    spread, fold = tables
    # the images of one slot's bytes sum below 256, so the ints add bytewise, with no carry
    folded = sum(int.from_bytes(data[j::size].translate(table), "little") for j, table in enumerate(spread))
    return bytearray(folded.to_bytes(n, "little")).translate(fold)


def _push_permuted(images, v: dict, acc: dict) -> dict:
    """_push through a Permutation: key q moves to images[q], its coefficient unchanged."""
    if not acc:     # distinct keys have distinct images
        acc.update(zip(map(images.__getitem__, v), v.values()))
        return acc
    get = acc.get
    for key, c in v.items():
        t = images[key]
        acc[t] = get(t, 0) + c
    return acc


def _push_plain(lines, v: dict, acc: dict) -> dict:
    """_push through a factor with no identity tensor factor: key q reads line q."""
    get = acc.get
    for key, c in v.items():
        for t, w in lines[key].items():
            acc[t] = get(t, 0) + c * w
    return acc


def _push_strided(lines, k: int, v: dict, acc: dict) -> dict:
    """_push through kron(X, id_k): key q * k + r reads line q of X, in place, its index t moved to t * k + r."""
    get = acc.get
    for key, c in v.items():
        q, r = divmod(key, k)
        for t, w in lines[q].items():
            t = t * k + r
            acc[t] = get(t, 0) + c * w
    return acc


def _push(lines, d_in: int, d_out: int, v: dict, acc: dict) -> dict:
    """Add the sparse vector v, through kron(id_k, X) given by X's lines, to acc; products unreduced.

    Key q * d_in + r reads line r of X, its index t moved to q * d_out + t.
    """
    get = acc.get
    for key, c in v.items():
        q, r = divmod(key, d_in)
        shift = q * d_out
        for t, w in lines[r].items():
            t += shift
            acc[t] = get(t, 0) + c * w
    return acc


def _push_packed(lines: list[int], div: int, x_first: bool, width: int, blocks: int, size: int, p: int,
                 reduce: bool, v: dict, _acc):
    """The sparse vector v through one packed factor: one int, a slot of size bytes per output index, unreduced.

    When reduce, its nonzero residues instead, as the sparse vector the next stage reads.
    """
    sums = [0] * blocks
    for key, c in v.items():
        if c := c % p:
            q, r = divmod(key, div)
            if x_first:
                sums[r] += c * lines[q]
            else:
                sums[q] += c * lines[r]
    if blocks == 1:
        total = sums[0]
    elif x_first:   # block r holds the output indices t * blocks + r: interleave its slots
        code = _SLOT_CODES[size]
        joined = bytearray(size * width * blocks)
        slots = memoryview(joined).cast(code)
        for r, s in enumerate(sums):
            if s:
                slots[r::blocks] = memoryview(s.to_bytes(size * width, "little")).cast(code)
        total = int.from_bytes(joined, "little")
    else:           # block q holds the output indices q * width + t
        total = int.from_bytes(b"".join(s.to_bytes(size * width, "little") for s in sums), "little")
    if not reduce:
        return total
    res = _residues(total, width * blocks, size, p)
    return dict(compress(enumerate(res), res))


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
