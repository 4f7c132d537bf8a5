"""Exact linear algebra over Q and prime fields F_p.

Scalars over F_p are ints reduced mod p.  Over Q they are ints, and a
Fraction only where a division leaves a proper fraction; a whole-number
Fraction from a sum or product equals and hashes as its int.
Matrices are immutable and hold only their nonzeros: one dict per row,
from column index to value.  Every operation reads and writes that form,
so the work and the memory of a product, a Kronecker product, a transpose,
a re-indexing or an elimination grow with the nonzeros (and the number of
rows), not with the dense sizes; elimination returns canonical RREF
bases.  _block reads a side of a law, a composition of structure maps
whose tensor factors kron(X, id) are never laid out, a block of rows or
of columns at a time, as a sparse row product (Gustavson) on the block:
the block is one dict keyed vector * width + index, a term starts from
its basis vectors, every stage is one pass over the block, and at most
_BLOCK_ENTRIES entries are held a stage, unless one vector is wider.  It
sums plain products without a Field call per term and returns the block
canonical (an index -> value dict, reduced, no zero values), so two
vectors are equal exactly when their dicts are; _least_column reads the
blocks of a law's difference for the least column that differs, and
_witness_columns reads that column of each side, a block of one.  A
factor kron(X, id_k) or kron(id_k, X) reads the lines of X itself and
moves each index where it lands: no shifted copy of a line is made; a
Permutation of tensor factors moves each index, from one index table per
shape and direction, kept once made unless it is long (_offsets), and
reads no line at all.  A law over F_p whose factors are dense is read
sliced instead (_sliced): the block is one int per index, whose slot v
holds vector v's coefficient, so a stage costs one big-int multiply-add
per nonzero of its factor however many vectors the block holds; every
slot stays non-negative and at or below a bound _stages states, so none
carries into the next, and the block is reduced mod p once, slot by
slot, by byte tables where the slots are narrow.  _plan is a law's
planning pass: it splits each side into its terms and reads its shape
off the factors without evaluating any, once.  A linear map V -> W with
dim V = n, dim W = m is an m x n matrix acting on column vectors.
Tensor products follow the index convention idx(i, j) = i * dim2 + j, so
that kron(M1, M2) applied to v (x) w equals M1 v (x) M2 w.

express(basis, vectors) writes every column of `vectors` in the rows of
`basis`, or returns the index of the first column outside their span,
from one elimination of the stacked system: the rows left once basis^T
is reduced hold only right-hand sides, and the least column among them
is the first one outside the span.  The constructions that must land in
a chosen subspace build all their images as one matrix and decide
closure with one call.  When
the rows are a Subspace's RREF basis, Subspace.coordinates gives the same
answer with no elimination: it reads each column's entries at the pivots
and checks them all with one product.

Everything here is a pure function of immutable values; results are in
canonical form (reduced fractions, RREF bases) so they are reproducible
byte for byte.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache, lru_cache, partial
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
    are laid out on first read and kept, as are the nonzeros less the zeros
    that _stages counts to choose a law's reader (_kernel).
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
    def from_canonical_rows(cls, field: Field, rows: int, cols: int, lines) -> "Matrix":
        """The matrix whose rows are the given rows lists of cols canonical scalars each (over F_p, ints in [0, p)).

        Each list goes straight to its dict of nonzeros: nothing is checked
        or reduced again, and no flat copy of the entries is made.
        """
        return cls._of_rows(field, rows, cols, (dict(compress(enumerate(line), line)) for line in lines))

    @classmethod
    def from_quads(cls, field: Field, rows: int, cols: int, at, quads, values) -> "Matrix":
        """The sum of the quadruples (i, j, k, _), each with its scalar from values, placed in one pass.

        at is (row tables, column tables) of the three indices, as
        _axis_offsets makes them: quadruple (i, j, k) lands in row
        r0[i] + r1[j] + r2[k] and column c0[i] + c1[j] + c2[k].  The
        scalars must be canonical (over F_p, ints in [0, p)); one is stored
        as it is unless a repeat lands on its entry, and only such a sum is
        reduced mod p, or dropped when it cancels.  An index outside its
        table raises PresentationError.
        """
        p = field.p
        out = [{} for _ in range(rows)]
        (r0, r1, r2), (c0, c1, c2) = at
        try:
            for (i, j, k, _), c in zip(quads, values):
                if i < 0 or j < 0 or k < 0:   # a negative index would read its table from the end
                    raise IndexError
                row = out[r0[i] + r1[j] + r2[k]]
                t = c0[i] + c1[j] + c2[k]
                if t in row:
                    s = row[t] + c
                    if p is not None:
                        s %= p
                    if s:
                        row[t] = s
                    else:
                        del row[t]
                elif c:
                    row[t] = c
        except IndexError:
            raise PresentationError(f"index out of range: {(i, j, k)}") from None
        return cls._of_rows(field, rows, cols, out)

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


# The longest index table that _offsets and _axis_offsets keep once made.  A longer one is made afresh on each call:
# only large declared dims ask for one, and when every table was kept, reading one document with a module of dim 10^5
# left 9.6 MB of them in the process (tracemalloc, CPython 3.11).  The golden commands and the benchmark decks read
# none longer than 1,296 entries.
_KEPT_TABLE = 4096


class _LongTable(Exception):
    """A table longer than _KEPT_TABLE, raised out of its lru_cache, which keeps no exception, for _kept to return."""


def _kept(table, *args) -> tuple:
    """table(*args), made once per args and kept by its lru_cache, or made afresh when it is longer than _KEPT_TABLE."""
    try:
        return table(*args)
    except _LongTable as long:
        return long.args[0]


@lru_cache(maxsize=1024)
def _offset_table(dims: tuple, perm: tuple, axes) -> tuple[int, ...]:
    """The output offset, row-major, of every index over these input axes of a tensor permuted as in permute.

    The table depends only on the shapes, so it is made once per (dims,
    perm, axes), all hashable (tuples, or a range for axes), and kept as a
    tuple that no caller can write into (_offsets), unless it is longer
    than _KEPT_TABLE.
    """
    strides, step = [0] * len(dims), 1   # stride of each input axis in the row-major entries of the output
    for a in reversed(perm):
        strides[a], step = step, step * dims[a]
    out = [0]
    for a in axes:
        out = [o + i * strides[a] for o in out for i in range(dims[a])]
    if len(out) > _KEPT_TABLE:
        raise _LongTable(tuple(out))
    return tuple(out)


@lru_cache(maxsize=1024)
def _axis_tables(dims: tuple, perm: tuple, nrows: int) -> tuple[tuple, tuple]:
    """(row tables, column tables): per input axis, the row and the column offset of each index along it.

    The matrix is the one permute(m, dims, perm, nrows) lays out: input
    axis a is output axis perm.index(a), a row axis among the first nrows,
    where an index moves the row by its stride among the row axes and the
    column by nothing; a column axis the other way round.  The tables
    depend only on the shapes, so they are made once per (dims, perm,
    nrows) and kept (_axis_offsets), as _offset_table's is, unless a dim is
    longer than _KEPT_TABLE.
    """
    row_at, col_at = [()] * len(dims), [()] * len(dims)
    for axes, mine, other in ((perm[:nrows], row_at, col_at), (perm[nrows:], col_at, row_at)):
        step = 1
        for a in reversed(axes):
            mine[a], other[a] = tuple(i * step for i in range(dims[a])), (0,) * dims[a]
            step *= dims[a]
    if max(dims, default=0) > _KEPT_TABLE:
        raise _LongTable((tuple(row_at), tuple(col_at)))
    return tuple(row_at), tuple(col_at)


_offsets, _axis_offsets = partial(_kept, _offset_table), partial(_kept, _axis_tables)


def swap_matrix(field: Field, m: int, n: int) -> Matrix:
    """Matrix of V (x) W -> W (x) V, e_i (x) e_j -> e_j (x) e_i, dim V = m, dim W = n."""
    # row (j, i) holds its 1 at column (i, j)
    return Matrix._of_rows(field, m * n, m * n, ({r % m * n + r // m: 1} for r in range(m * n)))


class Permutation:
    """A law factor that permutes tensor factors, output factor k input factor perm[k] of dims, never laid out.

    _block moves each key to its image (images) with its coefficient
    unchanged; it has the field, rows and cols that _split reads.
    """

    __slots__ = ("field", "rows", "cols", "dims", "perm")

    def __init__(self, field: Field, dims, perm):
        dims, perm = tuple(dims), tuple(perm)
        if sorted(perm) != list(range(len(dims))):
            raise DimensionMismatch(f"cannot permute axes {dims} by {perm}")
        self.field, self.dims, self.perm = field, dims, perm
        self.rows = self.cols = prod(dims)

    def images(self, by_rows: bool) -> tuple[int, ...]:
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
    sides that _solve stacks beside A) are carried along, and the loop ends
    once the rows left hold only them.  The pivot rows end up first,
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


def _solve(a: Matrix, b: Matrix) -> tuple[Matrix | None, int | None, int]:
    """One elimination of [A | B]: (X, None, rank A) with A X = B, free variables zero, or (None, j, rank A).

    j is the first bad column.  The rows left once A's part is in RREF
    hold only B's columns, and they span every y^T B with y^T A = 0, so
    column j of B is consistent exactly when no row left holds it.  The
    rank is the count of A's pivots, so A is injective exactly when it
    equals A's column count.
    """
    if a.field != b.field:
        raise DimensionMismatch("field mismatch")
    if a.rows != b.rows:
        raise DimensionMismatch(f"A has {a.rows} rows but B has {b.rows}")
    n = a.cols
    rows = list(a.hstack(b)._rows)   # fresh dicts, B's columns shifted by n
    pivots = _eliminate(rows, a.field, n)
    left = [row for row in rows[len(pivots):] if row]
    if left:
        return None, min(min(row) for row in left) - n, len(pivots)
    part = [{} for _ in range(n)]
    for row, c in zip(rows, pivots):
        part[c] = {k - n: v for k, v in row.items() if k >= n}
    return Matrix._of_rows(a.field, n, b.cols, part), None, len(pivots)


def solve_linear(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve A X = B exactly, with one elimination: the solution whose free variables are zero, or None."""
    return _solve(a, b)[0]


def express(basis: Matrix, vectors: Matrix) -> tuple[Matrix, None] | tuple[None, int]:
    """Write every column of `vectors` in the rows of `basis`, with one elimination.

    Returns (X, None) with basis^T X = vectors, free coefficients zero, or
    (None, j) with j the first column outside the row span of basis.
    """
    return _solve(basis.transpose(), vectors)[:2]


def kernel(m: Matrix) -> Subspace:
    """Null space {v : M v = 0} as a canonical subspace of F^cols."""
    f, rows = m.field, [dict(r) for r in m._rows]
    pivots = _eliminate(rows, f, m.cols)
    taken = set(pivots)
    # one vector per free column fc: e_fc minus the RREF's column fc placed at the pivot columns
    free = {fc: {fc: f.one()} for fc in range(m.cols) if fc not in taken}
    for row, pc in zip(rows, pivots):
        for k, v in row.items():
            if k in free:
                free[k][pc] = f.neg(v)
    return Subspace.from_matrix_rows(Matrix._of_rows(f, len(free), m.cols, free.values()))


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


def _plan(lhs, rhs) -> tuple[tuple, tuple, list, int]:
    """The planning pass of a law: (lhs shape, rhs shape, terms, split), each side split and shape-checked once.

    The terms are the lhs's, terms[:split], then the rhs's with their
    signs negated, so together they are lhs - rhs; a shape is (field,
    rows, cols).  _stages reads the terms, and a failing law reads its
    witness columns from them (_witness_columns).
    """
    terms: list = []
    left = _split(lhs, 1, terms)
    split = len(terms)
    return left, _split(rhs, -1, terms), terms, split


def _split(side, sign: int, terms: list, shape=None) -> tuple[Field, int, int]:
    """Append sign times a law side to terms; returns its (field, rows, cols), read off the factors, none evaluated.

    A term is (sign, factors), each factor (X, k, x_first): kron(X, id_k)
    when x_first, else kron(id_k, X).  Each factor is checked against the
    one before as it is split, and each term against the side's first.
    """
    if type(side) is list:
        for s, t in side:
            shape = _split(t, sign * s, terms, shape)
        return shape
    if type(side) is not tuple or type(side[0]) is int or type(side[-1]) is int:   # one factor
        side = (side,)
    factors = []
    for f in side:
        x, k, x_first = (f, 1, True) if type(f) is not tuple else (f[1], f[0], False) if type(f[0]) is int else \
            (f[0], f[1], True)
        if not factors:
            field, rows, cols = x.field, x.rows * k, x.cols * k
        elif x.cols * k != rows or x.field is not field and x.field != field:
            raise DimensionMismatch(f"cannot apply {x.rows * k}x{x.cols * k} after {rows} rows")
        else:
            rows = x.rows * k
        factors.append((x, k, x_first))
    terms.append((sign, factors))
    if shape not in (None, (field, rows, cols)):
        raise DimensionMismatch("the terms of a law side differ in shape or field")
    return field, rows, cols


# The most entries a block of law vectors may hold (_block, _sliced): a law is
# read max(1, _BLOCK_ENTRIES // w) vectors at a time, w the widest of its
# stages, so no stage of a block holds more than _BLOCK_ENTRIES keys or slots
# unless one vector alone is wider.
_BLOCK_ENTRIES = 4096
# The fewest vectors a block holds for _stages to read a dense law over F_p sliced.  On the dense_basis benchmark deck
# (seed 1, Python 3.11, 2 vCPUs), laws on 2 or 3 vectors, the unit, counit and associativity laws of the dim-2 and
# dim-3 rungs, read x1.1 to x2.5 slower sliced than sparsely, and laws on 4 or more read faster: timed command by
# command over 30 rounds, a cycle took 81.1 ms with a floor of 2 vectors, 77.6 ms with 4, 78.0 with 5 and 78.2 with 9,
# and its median command 0.537, 0.505, 0.507 and 0.505 ms.
_SLICED_VECTORS = 4


def _least_column(terms, by_rows: bool, rows: int, cols: int) -> tuple[int | None, tuple]:
    """The least column at which a rows x cols law side is nonzero, None when it is zero, and the side's stages.

    The terms are staged once (_stages) and read a block at a time along
    the shorter dimension, sparsely (_block) or sliced (_sliced): by
    columns, the first block with a nonzero names the column; by rows, it
    is the least index over the nonzeros of every block.
    """
    count, width = (rows, cols) if by_rows else (cols, rows)
    staged = _stages(terms, by_rows, count)
    p, plan, size, step = staged
    least = None
    for start in range(0, count, step):
        stop = min(start + step, count)
        if size is None:
            block = _block(p, plan, start, stop)
            if not block:
                continue
            if not by_rows:
                return start + min(block) // width, staged
            j = min(key % width for key in block)
        else:
            (indices, res), nvec = _sliced(p, plan, size, start, stop), stop - start
            if res.count(0) == len(res):
                continue
            if not by_rows:
                return start + next(v for v in range(nvec) if res[v::nvec].count(0) < len(indices)), staged
            j = min(indices[i // nvec] for i, r in enumerate(res) if r)
        least = j if least is None else min(least, j)
    return least, staged


def _witness_columns(terms: list, split: int, staged, rows: int, j: int) -> tuple[dict, dict]:
    """Column j of a law's lhs and of its rhs, from its planned terms (_plan), each one canonical vector (_block).

    staged is the law's stages by columns, as _least_column read a tall
    law, sparsely or sliced, and is reused: both readers read the same
    stages.  When the law was read by rows (staged None), the terms are
    staged by columns here.  The rhs's terms are read with their signs
    negated back.
    """
    p, plan, _, _ = staged or _stages(terms, False, 1)
    right = [(-sign, stages) for sign, stages in plan[split:]]
    return _block(p, plan[:split], j, j + 1), _block(p, right, j, j + 1)


def _block(p: int | None, plan: list, start: int, stop: int) -> dict:
    """Vectors start..stop-1 of a law side, planned sparsely by _stages, as one dict keyed (i - start) * width + index.

    The side comes split by _plan into terms of one shape and field
    (_split reads that shape off the factors).  A side is a Matrix; a
    tuple of factors applied left to right, each a Matrix, a Permutation
    of tensor factors, or a pair (X, k) or (k, X), k an int, that stands
    for kron(X, id_k) or kron(id_k, X); neither a Permutation nor a pair is
    laid out.  A side may also be such a pair on its own, or a list of
    (sign, side) terms, sign 1 or -1, for their sum.  Its vectors are its
    rows when by_rows, else its columns, each of width entries;
    _least_column reads them in blocks of at most _BLOCK_ENTRIES entries
    a stage.

    A block is one dict keyed v * w + t, for index t of vector start + v in
    a stage of width w, read as a sparse row product (Gustavson): through
    the factors' rows, last factor first, or through their columns (the
    rows of the transposed composition, columns_of), first factor first.
    A term's first stage reads one line per vector, the basis vector
    e_start+v times the term's sign, and no two of its products land on one
    key, so it is one comprehension (_first).  Every later stage takes the
    block the stage before it gave and is one pass over it (_push), merging
    repeated keys as it goes, and the last stages of every term add into
    one dict.  It sums plain products and reduces once, at the end (mod p
    over F_p), so the block comes back canonical: an index -> value dict,
    no zero values.  A pair (X, k) or (k, X) reads the lines of X itself
    and moves each key where it lands, so no shifted copy of a line is
    made; a Permutation moves each key to its image (Permutation.images)
    and reads no line at all.
    """
    acc: dict = {}
    for sign, stages in plan:
        block = _first(*stages[0], sign, start, stop)
        for stage in stages[1:-1]:
            block = _push(*stage, block, {})
        if len(stages) > 1:
            acc = _push(*stages[-1], block, acc)
        elif acc:   # a term of one stage: its products land on the keys of the terms before it
            for t, c in block.items():
                acc[t] = acc.get(t, 0) + c
        else:
            acc = block
    if p is None:
        return {t: s for t, s in acc.items() if s}
    return {t: r for t, s in acc.items() if (r := s % p)}


def _stages(terms, by_rows: bool, count: int) -> tuple[int | None, list, int | None, int]:
    """p, the terms (sign, stages) that _block and _sliced read, the slot bytes of _sliced (None: sparse), and the step.

    count is the number of vectors the law has.  A term's stages are in
    the order they are read, each (lines, d_in, d_out, k, strided): the
    lines of X read (its rows by rows, else its columns), d_in of them,
    each d_out wide, for kron(X, id_k) when strided, else kron(id_k, X) (k
    1 for X itself), or for a Permutation the images of its n keys,
    (images, n, n, 1, None).  The step is the most vectors a block holds:
    _BLOCK_ENTRIES over the widest stage.

    A law over F_p is read sliced when its blocks hold _SLICED_VECTORS
    vectors or more (its last block may hold fewer) and its Matrix factors
    are dense: more than half of their entries, all counted together, are
    nonzero.  Each Matrix's nonzeros less its zeros are counted once and
    kept in its _kernel.  Every slot of _sliced
    stays at or below the sum over the terms of (p - 1), for the sign,
    times (p - 1) times the fan-in of each Matrix stage: 1 for a term's
    first stage, which reads one basis vector a slot, else d_in; a
    Permutation multiplies nothing.  The slot bytes are the fewest that
    hold that sum.
    """
    p = terms[0][1][0][0].field.p
    weigh = p is not None and count >= _SLICED_VECTORS   # whether the law may read sliced
    plan, widest, excess = [], 1, 0
    for sign, factors in terms:
        stages = []
        for x, k, x_first in reversed(factors) if by_rows else factors:
            if type(x) is Permutation:
                stage = (x.images(by_rows), x.rows, x.rows, 1, None)
            elif by_rows:
                stage = (x._rows, x.rows, x.cols, k, x_first and k > 1)
            else:
                stage = (columns_of(x), x.cols, x.rows, k, x_first and k > 1)
            if weigh and type(x) is not Permutation:
                if x._kernel is None:
                    x._kernel = 2 * sum(map(len, x._rows)) - x.rows * x.cols
                excess += x._kernel
            if stage[2] * k > widest:
                widest = stage[2] * k
            stages.append(stage)
        plan.append((sign, stages))
    step = max(1, _BLOCK_ENTRIES // widest)
    if not weigh or step < _SLICED_VECTORS or excess <= 0:
        return p, plan, None, step
    bound = sum((p - 1) * prod((p - 1) * (stage[1] if n else 1) for n, stage in enumerate(stages)
                               if stage[4] is not None) for _, stages in plan)
    return p, plan, -(-bound.bit_length() // 8), step


def _first(lines, d_in: int, d_out: int, k: int, strided: bool | None, sign: int, start: int, stop: int) -> dict:
    """Vectors start..stop-1 through a term's first stage (_stages): the lines they read, times sign, at their keys.

    Vector i is e_i: index i of a Permutation moves to its image, index
    r * k + s of kron(X, id_k) reads line r, its index t moved to t * k + s,
    and index q * d_in + r of kron(id_k, X) reads line r, t moved to
    q * d_out + t.
    """
    if strided is None:
        return {v * d_in + lines[i]: sign for v, i in enumerate(range(start, stop))}
    width = d_out * k
    if strided:
        return {base + t * k: sign * w for v, i in enumerate(range(start, stop))
                for base in (v * width + i % k,) for t, w in lines[i // k].items()}
    return {base + t: sign * w for v, i in enumerate(range(start, stop))
            for base in ((v * k + i // d_in) * d_out,) for t, w in lines[i % d_in].items()}


def _push(lines, d_in: int, d_out: int, k: int, strided: bool | None, block: dict, acc: dict) -> dict:
    """Add a block through one stage (_stages) to acc, or to a new dict when acc is empty; products unreduced.

    Key v * w + i is index i of the block's vector v, w the stage's width,
    and it lands at v * w' + t, w' the width out.  A key of kron(id_k, X)
    (or X) is q * d_in + r, q the vector and the copy of X, and moves to
    q * d_out + t; a key of kron(X, id_k) is (q * d_in + r) * k + s, q the
    vector, and moves to (q * d_out + t) * k + s; a Permutation moves index
    i to lines[i] and multiplies nothing.
    """
    if strided is None:
        if not acc:     # distinct keys have distinct images
            return {key - (i := key % d_in) + lines[i]: c for key, c in block.items()}
        get = acc.get
        for key, c in block.items():
            t = key - (i := key % d_in) + lines[i]
            acc[t] = get(t, 0) + c
        return acc
    get = acc.get
    if strided:
        width = d_out * k
        for key, c in block.items():
            q = key // k
            base = q // d_in * width + key % k
            for t, w in lines[q % d_in].items():
                t = base + t * k
                acc[t] = get(t, 0) + c * w
        return acc
    for key, c in block.items():
        base = key // d_in * d_out
        for t, w in lines[key % d_in].items():
            t += base
            acc[t] = get(t, 0) + c * w
    return acc


def _sliced(p: int, plan: list, size: int, start: int, stop: int) -> tuple[list, bytearray | list]:
    """Vectors start..stop-1 of a law side over F_p, read sliced: the indices they reach, and the residues.

    A block is one dict, index -> int, whose slot v, size bytes wide,
    holds the coefficient of vector start + v there, so _push reads all n
    = stop - start vectors as one: a stage costs one big-int multiply-add
    per nonzero of the line a nonzero index reads, however many vectors the
    block holds, and a Permutation moves each index.  A term starts from
    its basis vectors, e_start+v in slot v times the term's sign, -1
    entering as p - 1; every entry is in [0, p), so no slot goes negative,
    and the slots hold the bound _stages states, so none carries into the
    next.  The last stages of every term add into one dict, and it is
    reduced once (_residues): the residues of indices[i] are at i * n ..
    i * n + n - 1.
    """
    nvec, bits = stop - start, 8 * size
    acc: dict = {}
    for sign, stages in plan:
        block = {start + v: (sign % p) << bits * v for v in range(nvec)}
        for stage in stages[:-1]:
            block = _push(*stage, block, {})
        acc = _push(*stages[-1], block, acc)
    data = b"".join(map(partial(int.to_bytes, length=nvec * size, byteorder="little"), acc.values()))
    return list(acc), _residues(data, size, p)


@cache
def _byte_tables(p: int, size: int) -> tuple[tuple[bytes, ...], bytes] | None:
    """The tables that reduce slots of size bytes mod p: byte j to its value times 256**j mod p, then a byte mod p.

    None when the size images of a slot could sum past a byte.
    """
    if size * (p - 1) >= 256:
        return None
    return (tuple(bytes(b * pow(256, j, p) % p for b in range(256)) for j in range(size)),
            bytes(b % p for b in range(256)))


def _residues(data: bytes, size: int, p: int):
    """The slots of size bytes of data, little-endian, each reduced mod p: a bytearray by byte tables, else a list."""
    tables = _byte_tables(p, size)
    if tables is None:
        return [int.from_bytes(data[i:i + size], "little") % p for i in range(0, len(data), size)]
    spread, fold = tables
    # the images of one slot's bytes sum below 256, so the ints add bytewise, with no carry
    folded = sum(int.from_bytes(data[j::size].translate(table), "little") for j, table in enumerate(spread))
    return bytearray(folded.to_bytes(len(data) // size, "little")).translate(fold)


def sparse_render(vec: dict, field: Field) -> str:
    """A canonical sparse vector as '{index: scalar, ...}' in index order."""
    return "{" + ", ".join(f"{k}: {field.fmt(v)}" for k, v in sorted(vec.items())) + "}"


def invert(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None when singular: A X = I is solvable exactly when A is invertible."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices invert")
    return solve_linear(m, Matrix.identity(m.field, m.rows))
