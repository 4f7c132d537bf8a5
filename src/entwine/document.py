"""The document format: named objects over a single exact field.

A document is canonical JSON with top-level keys version, field and
objects.  Scalars over Q are canonical strings "a" or "a/b" (positive
denominator, reduced); scalars over F_p are plain integers in [0, p).
Sparse structure constants are integer-index quadruples with a trailing
scalar; dense matrices are row lists.  Emission sorts every key, so
parse and emit are mutually inverse and byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .exactlin import Field, Matrix, PresentationError
from .structures import (
    ModulePresentation,
    PairingPresentation,
    StructurePresentation,
    action_from_triples,
    coaction_from_triples,
    comul_from_triples,
    make_structure,
    mul_from_triples,
    quads_from_matrix,
)
from .entwining import EntwinedModulePresentation, EntwiningPresentation
from .doikoppinen import DKStructure, HCoextension, HExtension, coextension_quotient, h_extension

FORMAT_VERSION = 1

OBJECT_TYPES = ("structure", "pairing", "module", "entwining", "entwined_module",
                "dk", "extension", "coextension", "morphism")


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


def _parse_dim(body: dict, path: str) -> int:
    dim = body.get("dim")
    _expect(_is_int(dim) and dim >= 0, f"{path}.dim", "dim must be a nonnegative integer")
    return dim


def _parse_scalar(field: Field, value, path: str):
    try:
        return field.parse(value)
    except PresentationError as exc:
        raise ParseError(path, str(exc)) from None


def _emit_scalar(field: Field, value):
    return value if field.p is not None else field.fmt(value)


def _parse_matrix(field: Field, rows, r: int, c: int, path: str) -> Matrix:
    _expect(isinstance(rows, list) and len(rows) == r, path, f"expected {r} rows")
    data = []
    for i, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == c, f"{path}[{i}]", f"expected {c} entries")
        for j, x in enumerate(row):
            data.append(_parse_scalar(field, x, f"{path}[{i}][{j}]"))
    return Matrix(field, r, c, data)


def _emit_matrix(field: Field, m: Matrix):
    return [[_emit_scalar(field, x) for x in m.row(i)] for i in range(m.rows)]


def _parse_quads(field: Field, quads, dims: tuple[int, int, int], path: str):
    _expect(isinstance(quads, list), path, "expected a list of quadruples")
    out = []
    for t, quad in enumerate(quads):
        qpath = f"{path}[{t}]"
        _expect(isinstance(quad, list) and len(quad) == 4, qpath, "expected [i, j, k, scalar]")
        i, j, k, c = quad
        for value, bound, name in ((i, dims[0], "first"), (j, dims[1], "second"), (k, dims[2], "third")):
            _expect(_is_int(value) and 0 <= value < bound, qpath,
                    f"{name} index {value!r} out of range [0, {bound})")
        out.append((i, j, k, _parse_scalar(field, c, qpath)))
    return out


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


def _ref(resolved: dict, name, want, path: str):
    _expect(isinstance(name, str), path, "expected an object name")
    _expect(name in resolved, path, f"dangling reference to {name!r}")
    obj = resolved[name]
    _expect(isinstance(obj, want), path, f"{name!r} is not a {want.__name__}")
    return obj


def _need_parts(obj: StructurePresentation, alg: bool, coalg: bool, path: str):
    if alg:
        _expect(obj.has_algebra, path, "referenced object has no algebra structure")
    if coalg:
        _expect(obj.has_coalgebra, path, "referenced object has no coalgebra structure")


def _parse_structure(field: Field, body: dict, path: str) -> StructurePresentation:
    kind = body.get("kind")
    _expect(kind in ("algebra", "coalgebra", "bialgebra", "hopf"), f"{path}.kind",
            f"unknown structure kind {kind!r}")
    dim = _parse_dim(body, path)
    labels = body.get("labels")
    if labels is not None:
        _expect(isinstance(labels, list) and len(labels) == dim
                and all(isinstance(x, str) for x in labels), f"{path}.labels",
                f"labels must be {dim} strings")
    allowed = {"kind", "dim", "labels", "mul", "unit", "comul", "counit", "antipode"}
    for key in body:
        _expect(key in allowed, f"{path}.{key}", "unknown field")
    kwargs = {}
    if "mul" in body:
        kwargs["mul"] = mul_from_triples(field, dim, _parse_quads(field, body["mul"], (dim, dim, dim), f"{path}.mul"))
    if "comul" in body:
        kwargs["comul"] = comul_from_triples(field, dim, _parse_quads(field, body["comul"], (dim, dim, dim), f"{path}.comul"))
    if "unit" in body:
        _expect(isinstance(body["unit"], list) and len(body["unit"]) == dim, f"{path}.unit",
                f"unit must have {dim} coefficients")
        kwargs["unit"] = Matrix.column(field, [
            _parse_scalar(field, x, f"{path}.unit[{i}]") for i, x in enumerate(body["unit"])])
    if "counit" in body:
        _expect(isinstance(body["counit"], list) and len(body["counit"]) == dim, f"{path}.counit",
                f"counit must have {dim} coefficients")
        kwargs["counit"] = Matrix(field, 1, dim, [
            _parse_scalar(field, x, f"{path}.counit[{i}]") for i, x in enumerate(body["counit"])])
    if "antipode" in body:
        kwargs["antipode"] = _parse_matrix(field, body["antipode"], dim, dim, f"{path}.antipode")
    try:
        return make_structure(kind, field, dim, labels, **kwargs)
    except PresentationError as exc:
        raise ParseError(path, str(exc)) from None


def _emit_structure(field: Field, s: StructurePresentation) -> dict:
    body: dict = {"type": "structure", "kind": s.kind, "dim": s.dim, "labels": list(s.labels)}
    if s.mul is not None:
        body["mul"] = _emit_quads(field, s.mul, "mul", (s.dim,) * 3)
        body["unit"] = [_emit_scalar(field, x) for x in s.unit.col(0)]
    if s.comul is not None:
        body["comul"] = _emit_quads(field, s.comul, "comul", (s.dim,) * 3)
        body["counit"] = [_emit_scalar(field, x) for x in s.counit.row(0)]
    if s.antipode is not None:
        body["antipode"] = _emit_matrix(field, s.antipode)
    return body


def _parse_action_block(field: Field, body, resolved: dict, bounds_of, path: str):
    _expect(isinstance(body, dict), path, "expected an object")
    over = _ref(resolved, body.get("structure"), StructurePresentation, f"{path}.structure")
    side = body.get("side", "right")
    _expect(side in ("left", "right"), f"{path}.side", f"bad side {side!r}")
    quads = _parse_quads(field, body.get("triples"), bounds_of(over), f"{path}.triples")
    return over, side, quads


def _parse_module(field: Field, body: dict, resolved: dict, path: str) -> ModulePresentation:
    dim = _parse_dim(body, path)
    algebra = action = None
    action_side = "right"
    coalgebra = coaction = None
    coaction_side = "right"
    if "action" in body:
        algebra, action_side, quads = _parse_action_block(
            field, body["action"], resolved, lambda s: (dim, s.dim, dim), f"{path}.action")
        _need_parts(algebra, True, False, f"{path}.action.structure")
        action = action_from_triples(field, dim, algebra.dim, quads, action_side)
    if "coaction" in body:
        coalgebra, coaction_side, quads = _parse_action_block(
            field, body["coaction"], resolved, lambda s: (dim, dim, s.dim), f"{path}.coaction")
        _need_parts(coalgebra, False, True, f"{path}.coaction.structure")
        coaction = coaction_from_triples(field, dim, coalgebra.dim, quads, coaction_side)
    return ModulePresentation(dim, algebra, action, action_side, coalgebra, coaction, coaction_side)


def _parse_objects(field: Field, raw_objects: dict) -> dict:
    resolved: dict = {}
    names = list(raw_objects)
    _expect(all(isinstance(n, str) for n in names), "objects", "object names must be strings")
    # structures first, then everything that references them, then dk-level data
    order = {"structure": 0, "pairing": 1, "module": 1, "entwining": 1, "morphism": 1,
             "entwined_module": 2, "dk": 1, "extension": 1, "coextension": 1}
    def stage(name):
        otype = raw_objects[name].get("type") if isinstance(raw_objects[name], dict) else None
        return order.get(otype, 9) if isinstance(otype, str) else 9

    names.sort(key=lambda n: (stage(n), n))
    for name in names:
        body = raw_objects[name]
        path = f"objects.{name}"
        _expect(isinstance(body, dict), path, "expected an object")
        otype = body.get("type")
        _expect(otype in OBJECT_TYPES, f"{path}.type", f"unknown object type {otype!r}")
        if otype == "structure":
            resolved[name] = _parse_structure(field, {k: v for k, v in body.items() if k != "type"}, path)
        elif otype == "pairing":
            alg = _ref(resolved, body.get("algebra"), StructurePresentation, f"{path}.algebra")
            coalg = _ref(resolved, body.get("coalgebra"), StructurePresentation, f"{path}.coalgebra")
            _need_parts(alg, True, False, f"{path}.algebra")
            _need_parts(coalg, False, True, f"{path}.coalgebra")
            matrix = _parse_matrix(field, body.get("matrix"), alg.dim, coalg.dim, f"{path}.matrix")
            resolved[name] = PairingPresentation(alg, coalg, matrix)
        elif otype == "module":
            resolved[name] = _parse_module(field, body, resolved, path)
        elif otype == "entwining":
            alg = _ref(resolved, body.get("algebra"), StructurePresentation, f"{path}.algebra")
            coalg = _ref(resolved, body.get("coalgebra"), StructurePresentation, f"{path}.coalgebra")
            _need_parts(alg, True, False, f"{path}.algebra")
            _need_parts(coalg, False, True, f"{path}.coalgebra")
            psi = _parse_matrix(field, body.get("psi"), alg.dim * coalg.dim, coalg.dim * alg.dim, f"{path}.psi")
            resolved[name] = EntwiningPresentation(alg, coalg, psi)
        elif otype == "entwined_module":
            ent = _ref(resolved, body.get("entwining"), EntwiningPresentation, f"{path}.entwining")
            dim = _parse_dim(body, path)
            aq = _parse_quads(field, body.get("action"), (dim, ent.algebra.dim, dim), f"{path}.action")
            cq = _parse_quads(field, body.get("coaction"), (dim, dim, ent.coalgebra.dim), f"{path}.coaction")
            resolved[name] = EntwinedModulePresentation(
                ent, dim,
                action_from_triples(field, dim, ent.algebra.dim, aq, "right"),
                coaction_from_triples(field, dim, ent.coalgebra.dim, cq, "right"))
        elif otype == "dk":
            h = _ref(resolved, body.get("bialgebra"), StructurePresentation, f"{path}.bialgebra")
            alg = _ref(resolved, body.get("algebra"), StructurePresentation, f"{path}.algebra")
            coalg = _ref(resolved, body.get("coalgebra"), StructurePresentation, f"{path}.coalgebra")
            _need_parts(h, True, True, f"{path}.bialgebra")
            _need_parts(alg, True, False, f"{path}.algebra")
            _need_parts(coalg, False, True, f"{path}.coalgebra")
            cq = _parse_quads(field, body.get("coaction"), (alg.dim, alg.dim, h.dim), f"{path}.coaction")
            aq = _parse_quads(field, body.get("action"), (coalg.dim, h.dim, coalg.dim), f"{path}.action")
            resolved[name] = DKStructure(
                h, alg, coaction_from_triples(field, alg.dim, h.dim, cq, "right"),
                coalg, action_from_triples(field, coalg.dim, h.dim, aq, "right"))
        elif otype == "extension":
            h = _ref(resolved, body.get("bialgebra"), StructurePresentation, f"{path}.bialgebra")
            b = _ref(resolved, body.get("algebra"), StructurePresentation, f"{path}.algebra")
            _need_parts(h, True, True, f"{path}.bialgebra")
            _need_parts(b, True, False, f"{path}.algebra")
            cq = _parse_quads(field, body.get("coaction"), (b.dim, b.dim, h.dim), f"{path}.coaction")
            integral = None
            if "integral" in body:
                integral = _parse_matrix(field, body["integral"], b.dim, h.dim, f"{path}.integral")
            resolved[name] = h_extension(
                h, b, coaction_from_triples(field, b.dim, h.dim, cq, "right"), integral)
        elif otype == "coextension":
            h = _ref(resolved, body.get("bialgebra"), StructurePresentation, f"{path}.bialgebra")
            d = _ref(resolved, body.get("coalgebra"), StructurePresentation, f"{path}.coalgebra")
            _need_parts(h, True, True, f"{path}.bialgebra")
            _need_parts(d, False, True, f"{path}.coalgebra")
            aq = _parse_quads(field, body.get("action"), (d.dim, h.dim, d.dim), f"{path}.action")
            cointegral = None
            if "cointegral" in body:
                cointegral = _parse_matrix(field, body["cointegral"], h.dim, d.dim, f"{path}.cointegral")
            resolved[name] = coextension_quotient(
                h, d, action_from_triples(field, d.dim, h.dim, aq, "right"), cointegral)
        elif otype == "morphism":
            src = _ref(resolved, body.get("source"), StructurePresentation, f"{path}.source")
            dst = _ref(resolved, body.get("target"), StructurePresentation, f"{path}.target")
            role = body.get("role")
            _expect(role in ("algebra", "coalgebra", "bialgebra", "hopf"), f"{path}.role",
                    f"unknown morphism role {role!r}")
            matrix = _parse_matrix(field, body.get("matrix"), dst.dim, src.dim, f"{path}.matrix")
            resolved[name] = Morphism(role, body["source"], body["target"], src, dst, matrix)
    return resolved


@dataclass(frozen=True)
class Morphism:
    role: str
    source_name: str
    target_name: str
    source: StructurePresentation
    target: StructurePresentation
    matrix: Matrix


def parse_document(text: str | bytes) -> Document:
    """Parse and validate; errors carry a JSON path or line/column position."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    _expect(isinstance(raw, dict), "$", "document must be an object")
    for key in raw:
        _expect(key in ("version", "field", "objects"), key, "unknown top-level key")
    _expect(_is_int(raw.get("version")) and raw["version"] == FORMAT_VERSION, "version",
            f"unsupported version {raw.get('version')!r}")
    field = _parse_field(raw.get("field"), "field")
    objects = raw.get("objects")
    _expect(isinstance(objects, dict), "objects", "objects must be a name -> object map")
    resolved = _parse_objects(field, objects)
    return Document(FORMAT_VERSION, field, raw, resolved)


def emit_document(doc: Document) -> str:
    """Canonical byte-stable emission: sorted keys, two-space indent."""
    body = {"version": doc.version, "field": _emit_field(doc.field), "objects": doc.raw["objects"]}
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def document_from_objects(field: Field, objects: dict) -> Document:
    """Build a Document from named in-memory objects (structures and friends)."""
    raw_objects: dict = {}
    resolved: dict = {}
    names: dict = {}
    for name, obj in objects.items():
        names[id(obj)] = name
    counter = [0]

    def ensure_structure(s: StructurePresentation, hint: str) -> str:
        key = id(s)
        if key in names and names[key] in raw_objects:
            return names[key]
        if key not in names:
            counter[0] += 1
            names[key] = f"{hint}{counter[0]}"
        name = names[key]
        raw_objects[name] = _emit_structure(field, s)
        resolved[name] = s
        return name

    def emit_entwining(e: EntwiningPresentation) -> dict:
        return {
            "type": "entwining",
            "algebra": ensure_structure(e.algebra, "algebra_"),
            "coalgebra": ensure_structure(e.coalgebra, "coalgebra_"),
            "psi": _emit_matrix(field, e.psi),
        }

    for name, obj in objects.items():
        if isinstance(obj, StructurePresentation):
            raw_objects[name] = _emit_structure(field, obj)
            resolved[name] = obj
    for name, obj in objects.items():
        if isinstance(obj, StructurePresentation):
            continue
        if isinstance(obj, EntwiningPresentation):
            raw_objects[name] = emit_entwining(obj)
        elif isinstance(obj, PairingPresentation):
            raw_objects[name] = {
                "type": "pairing",
                "algebra": ensure_structure(obj.algebra, "algebra_"),
                "coalgebra": ensure_structure(obj.coalgebra, "coalgebra_"),
                "matrix": _emit_matrix(field, obj.matrix),
            }
        elif isinstance(obj, EntwinedModulePresentation):
            ent_name = None
            for other, cand in objects.items():
                if cand is obj.entwining:
                    ent_name = other
            if ent_name is None:
                counter[0] += 1
                ent_name = f"entwining_{counter[0]}"
                raw_objects[ent_name] = emit_entwining(obj.entwining)
                resolved[ent_name] = obj.entwining
            raw_objects[name] = {
                "type": "entwined_module",
                "entwining": ent_name,
                "dim": obj.dim,
                "action": _emit_quads(field, obj.action, "right-action",
                                      (obj.dim, obj.entwining.algebra.dim, obj.dim)),
                "coaction": _emit_quads(field, obj.coaction, "right-coaction",
                                        (obj.dim, obj.dim, obj.entwining.coalgebra.dim)),
            }
        elif isinstance(obj, DKStructure):
            raw_objects[name] = {
                "type": "dk",
                "bialgebra": ensure_structure(obj.h, "bialgebra_"),
                "algebra": ensure_structure(obj.alg, "algebra_"),
                "coalgebra": ensure_structure(obj.coalg, "coalgebra_"),
                "coaction": _emit_quads(field, obj.alg_coaction, "right-coaction",
                                        (obj.alg.dim, obj.alg.dim, obj.h.dim)),
                "action": _emit_quads(field, obj.coalg_action, "right-action",
                                      (obj.coalg.dim, obj.h.dim, obj.coalg.dim)),
            }
        elif isinstance(obj, HExtension):
            raw_objects[name] = {
                "type": "extension",
                "bialgebra": ensure_structure(obj.h, "bialgebra_"),
                "algebra": ensure_structure(obj.b, "algebra_"),
                "coaction": _emit_quads(field, obj.coaction, "right-coaction", (obj.b.dim, obj.b.dim, obj.h.dim)),
            }
            if obj.integral is not None:
                raw_objects[name]["integral"] = _emit_matrix(field, obj.integral)
        elif isinstance(obj, HCoextension):
            raw_objects[name] = {
                "type": "coextension",
                "bialgebra": ensure_structure(obj.h, "bialgebra_"),
                "coalgebra": ensure_structure(obj.d, "coalgebra_"),
                "action": _emit_quads(field, obj.action, "right-action", (obj.d.dim, obj.h.dim, obj.d.dim)),
            }
            if obj.cointegral is not None:
                raw_objects[name]["cointegral"] = _emit_matrix(field, obj.cointegral)
        elif isinstance(obj, ModulePresentation):
            body: dict = {"type": "module", "dim": obj.dim}
            if obj.action is not None:
                body["action"] = {
                    "structure": ensure_structure(obj.algebra, "algebra_"),
                    "side": obj.action_side,
                    "triples": _emit_quads(field, obj.action, f"{obj.action_side}-action",
                                          (obj.dim, obj.algebra.dim, obj.dim)),
                }
            if obj.coaction is not None:
                body["coaction"] = {
                    "structure": ensure_structure(obj.coalgebra, "coalgebra_"),
                    "side": obj.coaction_side,
                    "triples": _emit_quads(field, obj.coaction, f"{obj.coaction_side}-coaction",
                                          (obj.dim, obj.dim, obj.coalgebra.dim)),
                }
            raw_objects[name] = body
        else:
            raise PresentationError(f"cannot emit object {name!r} of type {type(obj).__name__}")
        resolved[name] = obj
    return Document(FORMAT_VERSION, field, {"version": FORMAT_VERSION, "field": _emit_field(field),
                                            "objects": raw_objects}, resolved)
