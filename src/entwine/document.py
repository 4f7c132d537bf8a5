"""The document format: named objects over a single exact field.

A document is canonical JSON with top-level keys version, field and
objects.  Scalars over Q are canonical strings "a" or "a/b" (positive
denominator, reduced); scalars over F_p are plain integers in [0, p).
Sparse structure constants are integer-index quadruples with a trailing
scalar; dense matrices are row lists.  Emission sorts every key, so
parse and emit are mutually inverse and byte-stable; canonical_json
writes the text, as json.dumps(..., sort_keys=True, indent=2) would, in
one straight-line pass, and quadruples are read back from stored rows by
structures.quads_from_matrix.

Parsing goes straight to stored rows: quadruples are placed in one pass
by structures.matrix_from_quads, which lays out no tensor, dense rows go
straight to row dicts (Matrix.from_canonical_rows), and each scalar and
index passes one fast check (_Scalars), after which an F_p scalar is not
reduced again.  Paths and messages are made only when a value fails it:
the input is then read again with the full checks, which name the JSON
path of the first bad value.

TYPES has one row per object type: its name, class, constructor, parse
stage and fields in document order.  The parser and the emitter both read
it, so a new object type is one row.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _quoted
from dataclasses import dataclass
from itertools import count
from math import prod
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple

from .exactlin import QQ, Field, Matrix, PresentationError
from .structures import (
    QUAD_LAYOUTS,
    STRUCTURE_KINDS,
    ModulePresentation,
    PairingPresentation,
    StructurePresentation,
    make_structure,
    matrix_from_quads,
    quads_from_matrix,
)
from .entwining import EntwinedModulePresentation, EntwiningPresentation
from .doikoppinen import DKStructure, HCoextension, HExtension, coextension_quotient, h_extension

FORMAT_VERSION = 1
# the most rows, and the most columns, a map of quadruples may lay out.  Its matrix is a list of one dict per row,
# made before any quadruple is placed, and its transpose, which the law checks read, one dict per column, so the
# declared dims alone decide its memory: a dim of 3,000,000 with no quadruple at all asks for 9 * 10^12 rows of
# comultiplication, and an algebra of dim 20,000 for 4 * 10^8 columns of multiplication.  The largest planned input,
# the Taft algebra T_7 (dim 49), has 2,401 of either; 10^5 empty rows and their index tables take about 22 MB (CPython
# 3.11, tracemalloc), and an algebra or a coalgebra may still have dim 316
MAX_QUAD_SIDE = 10 ** 5
# json.loads joins an escaped surrogate pair into one code point, so a surrogate left in a str is unpaired
_SURROGATE = re.compile("[\ud800-\udfff]").search


class ParseError(PresentationError):
    """A document problem, annotated with the path of the offending value."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class Document:
    """Raw canonical content plus the resolved, validated objects."""

    version: int
    field: Field
    raw: dict
    resolved: dict


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ParseError(path, message)


def _is_int(value) -> bool:
    """A JSON integer; true and false are ints to Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_scalar(field: Field, value, path: str):
    try:
        return field.parse(value)
    except PresentationError as exc:
        raise ParseError(path, str(exc)) from None


def _emit_scalar(field: Field, value):
    return value if field.p is not None else field.fmt(value)


class _Literals(dict):
    """Canonical Q literals by their string, each parsed once per document; a bad one raises PresentationError."""

    def __missing__(self, literal):
        value = self[literal] = QQ.parse(literal)
        return value


class _Scalars:
    """The scalars of one document, read by one fast check each.

    Over Q a literal is parsed once per document and looked up after; over
    F_p a scalar passes when type(x) is int and 0 <= x < p, and is kept as
    it is, with no second reduction.  values, rows and quads give None when
    a value fails its check, and the caller reads the same input again
    with _parse_scalar, which names the path and the problem.
    """

    def __init__(self, field: Field):
        self.field = field
        self._literals = _Literals()

    def values(self, xs: list) -> list | None:
        p = self.field.p
        if p is not None:
            return xs if all(type(x) is int and 0 <= x < p for x in xs) else None
        literals = self._literals
        try:
            return [literals[x] for x in xs]
        except (PresentationError, TypeError):   # not a canonical literal, or unhashable
            return None

    def rows(self, rows: list) -> list | None:
        """The scalars of a list of rows, row by row, each row as a list."""
        p = self.field.p
        if p is not None:
            return rows if all(type(x) is int and 0 <= x < p for row in rows for x in row) else None
        literals = self._literals
        try:
            return [[literals[x] for x in row] for row in rows]
        except (PresentationError, TypeError):
            return None

    def quads(self, quads) -> Iterable | None:
        """The scalars of a list of [i, j, k, scalar] quadruples with int indices, in order."""
        p = self.field.p
        if type(quads) is not list:
            return None
        if p is not None:   # one pass: each quadruple's shape, indices and scalar
            for q in quads:
                if type(q) is not list or len(q) != 4:
                    return None
                i, j, k, c = q
                if not (type(i) is type(j) is type(k) is type(c) is int and 0 <= c < p):
                    return None
            return map(itemgetter(3), quads)
        if not all(type(q) is list and len(q) == 4 and type(q[0]) is type(q[1]) is type(q[2]) is int
                   for q in quads):
            return None
        return self.values([q[3] for q in quads])


def _parse_matrix(sc: _Scalars, rows, r: int, c: int, path: str) -> Matrix:
    """A dense r x c matrix from a list of rows: straight to its row dicts once every value passes its fast check."""
    if type(rows) is list and len(rows) == r and all(type(row) is list and len(row) == c for row in rows):
        lines = sc.rows(rows)
        if lines is not None:
            return Matrix.from_canonical_rows(sc.field, r, c, lines)
    _expect(isinstance(rows, list) and len(rows) == r, path, f"expected {r} rows")
    data = []
    for i, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == c, f"{path}[{i}]", f"expected {c} entries")
        for j, x in enumerate(row):
            data.append(_parse_scalar(sc.field, x, f"{path}[{i}][{j}]"))
    return Matrix(sc.field, r, c, data)


def _emit_matrix(field: Field, m: Matrix):
    return [[_emit_scalar(field, x) for x in m.row(i)] for i in range(m.rows)]


def _parse_quads(sc: _Scalars, quads, layout: str, dims: tuple[int, int, int], path: str) -> Matrix:
    """[i, j, k, scalar] rows, each index below its bound in dims, summed into QUAD_LAYOUTS[layout].

    Each quadruple is checked once (_Scalars.quads), and placed in one pass
    by matrix_from_quads, which also checks the bounds; any failure reads
    the quadruples again, one check at a time, to name the first bad one.
    A layout of more than MAX_QUAD_SIDE rows or columns is refused before
    any row is made.
    """
    perm, nrows = QUAD_LAYOUTS[layout]
    rows, cols = prod(dims[a] for a in perm[:nrows]), prod(dims[a] for a in perm[nrows:])
    if rows > MAX_QUAD_SIDE or cols > MAX_QUAD_SIDE:
        raise ParseError(path, f"{layout} would lay out {rows} x {cols}, past {MAX_QUAD_SIDE} rows or columns")
    values = sc.quads(quads)
    if values is not None:
        try:
            return matrix_from_quads(sc.field, layout, dims, quads, values)
        except PresentationError:
            pass
    _expect(isinstance(quads, list), path, "expected a list of quadruples")
    out = []
    for t, quad in enumerate(quads):
        qpath = f"{path}[{t}]"
        _expect(isinstance(quad, list) and len(quad) == 4, qpath, "expected [i, j, k, scalar]")
        i, j, k, c = quad
        for value, bound, name in ((i, dims[0], "first"), (j, dims[1], "second"), (k, dims[2], "third")):
            _expect(_is_int(value) and 0 <= value < bound, qpath,
                    f"{name} index {value!r} out of range [0, {bound})")
        out.append((i, j, k, _parse_scalar(sc.field, c, qpath)))
    return matrix_from_quads(sc.field, layout, dims, out)


def _emit_quads(field: Field, m: Matrix, layout: str, dims):
    return [[i, j, k, _emit_scalar(field, v)] for i, j, k, v in quads_from_matrix(m, layout, dims)]


def _parse_field(raw, path: str) -> Field:
    if raw == "Q":
        return Field()
    if isinstance(raw, dict) and set(raw) == {"p"} and _is_int(raw["p"]):
        try:
            return Field(raw["p"])
        except PresentationError as exc:
            raise ParseError(path, str(exc)) from None
    raise ParseError(path, f"field must be \"Q\" or {{\"p\": prime}}, got {raw!r}")


def _emit_field(field: Field):
    return "Q" if field.p is None else {"p": field.p}


def _parse_structure(sc: _Scalars, body: dict, path: str) -> StructurePresentation:
    kind, dim = _KIND.read(body, path), _DIM.read(body, path)
    labels = body.get("labels")
    if labels is not None:
        _expect(isinstance(labels, list) and len(labels) == dim
                and all(isinstance(x, str) for x in labels), f"{path}.labels",
                f"labels must be {dim} strings")
    allowed = {"type", "kind", "dim", "labels", "mul", "unit", "comul", "counit", "antipode"}
    for key in body:
        _expect(key in allowed, f"{path}.{key}", "unknown field")
    kwargs = {}
    for key in ("mul", "comul"):
        if key in body:
            kwargs[key] = _parse_quads(sc, body[key], key, (dim, dim, dim), f"{path}.{key}")
    for key in ("unit", "counit"):
        if key in body:
            xs = body[key]
            _expect(isinstance(xs, list) and len(xs) == dim, f"{path}.{key}", f"{key} must have {dim} coefficients")
            values = sc.values(xs)
            if values is None:
                values = [_parse_scalar(sc.field, x, f"{path}.{key}[{i}]") for i, x in enumerate(xs)]
            # the unit is a column, the counit a row
            kwargs[key] = Matrix.from_canonical_rows(sc.field, dim, 1, ([x] for x in values)) if key == "unit" \
                else Matrix.from_canonical_rows(sc.field, 1, dim, (values,))
    if "antipode" in body:
        kwargs["antipode"] = _parse_matrix(sc, body["antipode"], dim, dim, f"{path}.antipode")
    try:
        return make_structure(kind, sc.field, dim, labels, **kwargs)
    except PresentationError as exc:
        raise ParseError(path, str(exc)) from None


def _emit_structure(field: Field, s: StructurePresentation) -> dict:
    body: dict = {"kind": s.kind, "dim": s.dim, "labels": list(s.labels)}
    if s.mul is not None:
        body["mul"] = _emit_quads(field, s.mul, "mul", (s.dim,) * 3)
        body["unit"] = [_emit_scalar(field, x) for x in s.unit.col(0)]
    if s.comul is not None:
        body["comul"] = _emit_quads(field, s.comul, "comul", (s.dim,) * 3)
        body["counit"] = [_emit_scalar(field, x) for x in s.counit.row(0)]
    if s.antipode is not None:
        body["antipode"] = _emit_matrix(field, s.antipode)
    return body


class Plain(NamedTuple):
    """A JSON value kept as it is once ok accepts it; message is formatted with the value."""

    key: str
    ok: Callable
    message: str

    def read(self, body: dict, path: str):
        value = body.get(self.key)
        _expect(self.ok(value), f"{path}.{self.key}", self.message.format(value))
        return value


_DIM = Plain("dim", lambda v: _is_int(v) and v >= 0, "dim must be a nonnegative integer")
_KIND = Plain("kind", STRUCTURE_KINDS.__contains__, "unknown structure kind {!r}")


class Ref(NamedTuple):
    """The name of an earlier object of class cls.  needs ("algebra", "coalgebra" or "bialgebra")
    names the parts a structure must have and prefixes any name that emission makes up for it;
    needs "role" takes them from the object's role, a structure kind, once that is read."""

    key: str
    attr: str
    needs: str = ""
    cls: type = StructurePresentation


class Quads(NamedTuple):
    """Structure constants as [i, j, k, scalar] rows placed by QUAD_LAYOUTS[layout]."""

    key: str
    attr: str
    layout: str
    shape: Callable     # the bounds of i, j and k, from the fields before


class Dense(NamedTuple):
    """A matrix as a list of rows; an optional one may be left out."""

    key: str
    shape: Callable     # (rows, columns), from the fields before
    optional: bool = False


class Block(NamedTuple):
    """A module's optional action or coaction {"structure", "side": "right", "triples"}: it sets
    the module's <needs>, <key> and <key>_side, and checks the parts of its structure last."""

    key: str            # "action" or "coaction"
    needs: str          # "algebra" or "coalgebra"
    shape: Callable     # the bounds of the triples, from the module and the structure


@dataclass(frozen=True)
class Morphism:
    role: str
    source: StructurePresentation
    target: StructurePresentation
    matrix: Matrix


class ObjectType(NamedTuple):
    """How the objects of one document type are read and written."""

    name: str
    cls: type
    stage: int          # parsed after every object of a lower stage, so references resolve
    make: Callable      # called with the parsed fields by attribute
    fields: tuple       # in document order; none for a structure, read by _parse_structure instead


TYPES = {row.name: row for row in (
    ObjectType("structure", StructurePresentation, 0, make_structure, ()),
    ObjectType("pairing", PairingPresentation, 1, PairingPresentation, (
        Ref("algebra", "algebra", "algebra"), Ref("coalgebra", "coalgebra", "coalgebra"),
        Dense("matrix", lambda o: (o.algebra.dim, o.coalgebra.dim)))),
    ObjectType("module", ModulePresentation, 1, ModulePresentation, (
        _DIM, Block("action", "algebra", lambda o, s: (o.dim, s.dim, o.dim)),
        Block("coaction", "coalgebra", lambda o, s: (o.dim, o.dim, s.dim)))),
    ObjectType("entwining", EntwiningPresentation, 1, EntwiningPresentation, (
        Ref("algebra", "algebra", "algebra"), Ref("coalgebra", "coalgebra", "coalgebra"),
        Dense("psi", lambda o: (o.algebra.dim * o.coalgebra.dim, o.coalgebra.dim * o.algebra.dim)))),
    ObjectType("entwined_module", EntwinedModulePresentation, 2, EntwinedModulePresentation, (
        Ref("entwining", "entwining", cls=EntwiningPresentation), _DIM,
        Quads("action", "action", "right-action", lambda o: (o.dim, o.entwining.algebra.dim, o.dim)),
        Quads("coaction", "coaction", "right-coaction", lambda o: (o.dim, o.dim, o.entwining.coalgebra.dim)))),
    ObjectType("dk", DKStructure, 1, DKStructure, (
        Ref("bialgebra", "h", "bialgebra"), Ref("algebra", "alg", "algebra"),
        Ref("coalgebra", "coalg", "coalgebra"),
        Quads("coaction", "alg_coaction", "right-coaction", lambda o: (o.alg.dim, o.alg.dim, o.h.dim)),
        Quads("action", "coalg_action", "right-action", lambda o: (o.coalg.dim, o.h.dim, o.coalg.dim)))),
    ObjectType("extension", HExtension, 1, h_extension, (
        Ref("bialgebra", "h", "bialgebra"), Ref("algebra", "b", "algebra"),
        Quads("coaction", "coaction", "right-coaction", lambda o: (o.b.dim, o.b.dim, o.h.dim)),
        Dense("integral", lambda o: (o.b.dim, o.h.dim), optional=True))),
    ObjectType("coextension", HCoextension, 1, coextension_quotient, (
        Ref("bialgebra", "h", "bialgebra"), Ref("coalgebra", "d", "coalgebra"),
        Quads("action", "action", "right-action", lambda o: (o.d.dim, o.h.dim, o.d.dim)),
        Dense("cointegral", lambda o: (o.h.dim, o.d.dim), optional=True))),
    ObjectType("morphism", Morphism, 1, Morphism, (
        Ref("source", "source", "role"), Ref("target", "target", "role"),
        Plain("role", STRUCTURE_KINDS.__contains__, "unknown morphism role {!r}"),
        Dense("matrix", lambda o: (o.target.dim, o.source.dim)))),
)}


def _resolve(ref: Ref, resolved: dict, name, path: str):
    _expect(isinstance(name, str), path, "expected an object name")
    _expect(name in resolved, path, f"dangling reference to {name!r}")
    obj = resolved[name]
    _expect(isinstance(obj, ref.cls), path, f"{name!r} is not a {ref.cls.__name__}")
    return obj


def _check_parts(needs: str, obj, path: str):
    """obj has the parts of the structure kind needs; any other value of needs asks for none."""
    if needs in ("algebra", "bialgebra", "hopf"):
        _expect(obj.has_algebra, path, "referenced object has no algebra structure")
    if needs in ("coalgebra", "bialgebra", "hopf"):
        _expect(obj.has_coalgebra, path, "referenced object has no coalgebra structure")


def _parse_object(row: ObjectType, sc: _Scalars, body: dict, resolved: dict, path: str):
    """Unknown keys, all references, then their parts, then the other fields in document order; then row.make."""
    if not row.fields:
        return _parse_structure(sc, body, path)
    for key in body:
        _expect(key == "type" or any(f.key == key for f in row.fields), f"{path}.{key}", "unknown field")
    refs = [f for f in row.fields if isinstance(f, Ref)]
    got = SimpleNamespace(**{f.attr: _resolve(f, resolved, body.get(f.key), f"{path}.{f.key}") for f in refs})
    for f in refs:
        _check_parts(f.needs, getattr(got, f.attr), f"{path}.{f.key}")
    for f in row.fields:
        at = f"{path}.{f.key}"
        if isinstance(f, Plain):
            setattr(got, f.key, f.read(body, path))
            for r in refs:   # the references whose parts this field names: a morphism's source and target
                if r.needs == f.key:
                    _check_parts(getattr(got, f.key), getattr(got, r.attr), f"{path}.{r.key}")
        elif isinstance(f, Dense) and (f.key in body or not f.optional):
            setattr(got, f.key, _parse_matrix(sc, body.get(f.key), *f.shape(got), at))
        elif isinstance(f, Quads):
            setattr(got, f.attr, _parse_quads(sc, body.get(f.key), f.layout, f.shape(got), at))
        elif isinstance(f, Block) and f.key in body:
            block, ref = body[f.key], Ref("structure", f.needs, f.needs)
            _expect(isinstance(block, dict), at, "expected an object")
            for key in block:
                _expect(key in ("structure", "side", "triples"), f"{at}.{key}", "unknown field")
            over = _resolve(ref, resolved, block.get("structure"), f"{at}.structure")
            side = block.get("side", "right")
            _expect(side in ("left", "right"), f"{at}.side", f"bad side {side!r}")
            m = _parse_quads(sc, block.get("triples"), f"{side}-{f.key}", f.shape(got, over), f"{at}.triples")
            _check_parts(ref.needs, over, f"{at}.structure")
            vars(got).update({f.needs: over, f.key: m, f"{f.key}_side": side})
    return row.make(**vars(got))


def _emit_field_value(f, field: Field, obj, name_of):
    """The document value of one field of obj, or None to leave it out."""
    if isinstance(f, Ref):
        return name_of(getattr(obj, f.attr), f.needs or f.key)
    if isinstance(f, Plain):
        return getattr(obj, f.key)
    if isinstance(f, Quads):
        return _emit_quads(field, getattr(obj, f.attr), f.layout, f.shape(obj))
    m = getattr(obj, f.key)
    if m is None or isinstance(f, Dense):
        return None if m is None else _emit_matrix(field, m)
    over, side = getattr(obj, f.needs), getattr(obj, f"{f.key}_side")
    return {"structure": name_of(over, f.needs), "side": side,
            "triples": _emit_quads(field, m, f"{side}-{f.key}", f.shape(obj, over))}


def _parse_objects(sc: _Scalars, raw_objects: dict) -> dict:
    _expect(all(isinstance(n, str) for n in raw_objects), "objects", "object names must be strings")
    rows = {name: TYPES.get(body.get("type")) if isinstance(body, dict) and isinstance(body.get("type"), str)
            else None for name, body in raw_objects.items()}
    resolved: dict = {}
    for name in sorted(raw_objects, key=lambda n: (rows[n].stage if rows[n] else 9, n)):
        body, path = raw_objects[name], f"objects.{name}"
        _expect(isinstance(body, dict), path, "expected an object")
        _expect(rows[name] is not None, f"{path}.type", f"unknown object type {body.get('type')!r}")
        resolved[name] = _parse_object(rows[name], sc, body, resolved, path)
    return resolved


def parse_document(text: str | bytes) -> Document:
    """Parse and validate; errors carry a JSON path or a position: a byte offset, a line and column, or $.

    Bytes that are not UTF-8 are refused at the offset of the first bad
    byte, JSON nested past the interpreter's recursion limit and a number
    with more digits than int() reads at $, and a key repeated in one JSON
    object, or a key or string holding an unpaired surrogate (an escape no
    UTF-8 text can write), at the path of the object or the string.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {exc.start}", f"not UTF-8 text ({exc.reason})") from None
    # id of each object whose text repeats a key -> the object, kept alive so that no later object reuses its id, and
    # the first key it repeats
    repeated = {}

    def object_of(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    repeated[id(obj)] = obj, key
                    break
                seen.add(key)
        return obj

    try:
        raw = json.loads(text, object_pairs_hook=object_of)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    except ValueError:     # past the int string limit (sys.set_int_max_str_digits)
        raise ParseError("$", "a JSON number has too many digits to read") from None
    except RecursionError:
        raise ParseError("$", "JSON nested too deeply to read") from None
    # refuse the first object that repeats a key and the first key or string that holds an unpaired surrogate, in
    # document order, a key named by its repr at its object's path, so that the message can be written as UTF-8; ASCII
    # text makes a surrogate only through an escape
    stack = [("$", raw)] if repeated or "\\u" in text or not text.isascii() else []
    while stack:
        path, value = stack.pop()
        if isinstance(value, str):
            _expect(not _SURROGATE(value), path, "string holds an unpaired surrogate")
        elif isinstance(value, dict):
            if id(value) in repeated:
                raise ParseError(path, f"key {repeated[id(value)][1]!r} is repeated")
            for key in value:
                _expect(not _SURROGATE(key), path, f"key {key!r} holds an unpaired surrogate")
            stack.extend((key if path == "$" else f"{path}.{key}", value[key]) for key in reversed(value))
        elif isinstance(value, list):
            stack.extend((f"{path}[{i}]", value[i]) for i in reversed(range(len(value))))
    _expect(isinstance(raw, dict), "$", "document must be an object")
    for key in raw:
        _expect(key in ("version", "field", "objects"), key, "unknown top-level key")
    _expect(_is_int(raw.get("version")) and raw["version"] == FORMAT_VERSION, "version",
            f"unsupported version {raw.get('version')!r}")
    field = _parse_field(raw.get("field"), "field")
    objects = raw.get("objects")
    _expect(isinstance(objects, dict), "objects", "objects must be a name -> object map")
    return Document(FORMAT_VERSION, field, raw, _parse_objects(_Scalars(field), objects))


def canonical_json(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, from one straight-line writer.

    Dicts (with string keys) and lists or tuples are laid out one item to a
    line; a string is written by json.encoder.encode_basestring_ascii, an
    int by int.__repr__, and any other scalar (bool, None, float) by
    json.dumps itself.
    """
    parts: list[str] = []
    _write_json(value, "\n", parts.append)
    return "".join(parts)


def _write_json(value, pad: str, put) -> None:
    """Write value at the indentation pad (a newline and the spaces of its line) through put."""
    if isinstance(value, str):
        put(_quoted(value))
    elif type(value) is int:
        put(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            put(sep + _quoted(key) + ": ")
            _write_json(value[key], inner, put)
            sep = "," + inner
        put(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _write_json(item, inner, put)
            sep = "," + inner
        put(pad + "]")
    else:
        put(json.dumps(value))


def emit_document(doc: Document) -> str:
    """Canonical byte-stable emission: sorted keys, two-space indent (canonical_json)."""
    body = {"version": doc.version, "field": _emit_field(doc.field), "objects": doc.raw["objects"]}
    return canonical_json(body) + "\n"


def document_from_objects(field: Field, objects: dict) -> Document:
    """Build a Document from named in-memory objects (structures and friends).

    An object referenced but not given is written too, named <needs or key>_<n> (see Ref), n
    counting up from 1 across the document.  Morphisms are read, never written.
    """
    names = {id(obj): name for name, obj in objects.items()}
    raw_objects, resolved, invented = {}, {}, count(1)

    def name_of(obj, prefix: str) -> str:
        if id(obj) not in names:
            names[id(obj)] = f"{prefix}_{next(invented)}"
            emit(names[id(obj)], obj)
        return names[id(obj)]

    def emit(name: str, obj):
        row = next((r for r in TYPES.values() if isinstance(obj, r.cls) and r.cls is not Morphism), None)
        if row is None:
            raise PresentationError(f"cannot emit object {name!r} of type {type(obj).__name__}")
        body = {"type": row.name, **(_emit_structure(field, obj) if not row.fields else {})}
        for f in row.fields:
            value = _emit_field_value(f, field, obj, name_of)
            if value is not None:
                body[f.key] = value
        raw_objects[name], resolved[name] = body, obj

    for name, obj in objects.items():
        emit(name, obj)
    return Document(FORMAT_VERSION, field, {"version": FORMAT_VERSION, "field": _emit_field(field),
                                            "objects": raw_objects}, resolved)
