import io
import json
import sys

import pytest

from entwine.document import (
    Document,
    ParseError,
    document_from_objects,
    emit_document,
    parse_document,
)
from entwine import cli
from entwine.cli import run_command
from entwine.catalog import catalog_get, catalog_names
from entwine.doikoppinen import DKStructure, HCoextension, verify_dk
from entwine.exactlin import Matrix, QQ
from entwine.structures import StructurePresentation
from conftest import quotient_of


def catalog_doc(name: str) -> str:
    code, text = run_command(["catalog", name])
    assert code == 0, text
    return text


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParse:
    def test_roundtrip_catalog_exports(self, tmp_path):
        for name in ("qc2", "sweedler4", "f5c5", "dk_qc2", "hopfmod_qc2",
                     "ext_qc2", "coext_qc2", "alt_qc2_entwining"):
            text = catalog_doc(name)
            doc = parse_document(text)
            assert emit_document(doc) == text
            # parse . emit is the identity on documents
            again = parse_document(emit_document(doc))
            assert again.raw == doc.raw

    def test_noncanonical_fraction_rejected(self):
        text = catalog_doc("qc2").replace('"1"', '"2/2"', 1)
        with pytest.raises(ParseError) as exc:
            parse_document(text)
        assert "non-canonical" in str(exc.value)

    def test_dangling_reference(self):
        body = {
            "version": 1,
            "field": "Q",
            "objects": {"e": {"type": "entwining", "algebra": "missing",
                              "coalgebra": "missing", "psi": []}},
        }
        with pytest.raises(ParseError) as exc:
            parse_document(json.dumps(body))
        assert "dangling" in str(exc.value)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_document("{ not json")
        assert "line" in str(exc.value)

    def test_unknown_field_rejected(self):
        body = {"version": 1, "field": "R", "objects": {}}
        with pytest.raises(ParseError):
            parse_document(json.dumps(body))
        body = {"version": 1, "field": "Q", "objects": {}, "extra": 1}
        with pytest.raises(ParseError):
            parse_document(json.dumps(body))

    def test_index_out_of_range(self):
        body = {
            "version": 1, "field": "Q",
            "objects": {"a": {"type": "structure", "kind": "algebra", "dim": 1,
                              "mul": [[0, 0, 1, "1"]], "unit": ["1"]}},
        }
        with pytest.raises(ParseError) as exc:
            parse_document(json.dumps(body))
        assert "out of range" in str(exc.value)

    def test_prime_field_scalars_are_ints(self):
        text = catalog_doc("f5c5")
        doc = parse_document(text)
        assert doc.field.p == 5
        bad = text.replace("[[0, 0, 0, 1]", '[[0, 0, 0, "1"]', 1)
        if bad != text:
            with pytest.raises(ParseError):
                parse_document(bad)

    def test_version_check(self):
        with pytest.raises(ParseError):
            parse_document(json.dumps({"version": 99, "field": "Q", "objects": {}}))



def one_dim_document():
    """F_5 as a bialgebra, with a module, the identity entwining and an entwined module over it."""
    unit_quad = [[0, 0, 0, 1]]
    return {"version": 1, "field": {"p": 5}, "objects": {
        "k": {"type": "structure", "kind": "bialgebra", "dim": 1,
              "mul": unit_quad, "unit": [1], "comul": unit_quad, "counit": [1]},
        "m": {"type": "module", "dim": 1, "action": {"structure": "k", "triples": unit_quad}},
        "e": {"type": "entwining", "algebra": "k", "coalgebra": "k", "psi": [[1]]},
        "em": {"type": "entwined_module", "entwining": "e", "dim": 1,
               "action": unit_quad, "coaction": unit_quad},
    }}


class TestJsonBooleans:
    """true and false are ints to Python; a document that uses one as a number is an input error."""

    @staticmethod
    def check(tmp_path, body):
        code, text = run_command(["check", write(tmp_path, "doc.ent", json.dumps(body))])
        return code, text

    def test_one_dim_document_passes(self, tmp_path):
        code, text = self.check(tmp_path, one_dim_document())
        assert code == 0, text

    def test_prime_field_scalar(self, tmp_path):
        body = json.loads(catalog_doc("f5c5"))
        body["objects"]["f5c5"]["mul"][0][3] = True
        code, text = self.check(tmp_path, body)
        assert code == 2 and "objects.f5c5.mul[0]: prime-field scalar" in text

    def test_quad_index(self, tmp_path):
        body = json.loads(catalog_doc("f5c5"))
        body["objects"]["f5c5"]["mul"][0][0] = False
        code, text = self.check(tmp_path, body)
        assert code == 2 and "objects.f5c5.mul[0]: first index False" in text

    @pytest.mark.parametrize("name", ["k", "m", "em"])
    def test_dim(self, tmp_path, name):
        body = one_dim_document()
        body["objects"][name]["dim"] = True
        code, text = self.check(tmp_path, body)
        assert code == 2 and f"objects.{name}.dim: dim must be a nonnegative integer" in text

    def test_field_modulus(self, tmp_path):
        body = one_dim_document()
        body["field"] = {"p": True}
        code, text = self.check(tmp_path, body)
        assert code == 2 and "field: field must be" in text

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version(self, tmp_path, version):
        body = one_dim_document()
        body["version"] = version
        code, text = self.check(tmp_path, body)
        assert code == 2 and f"version: unsupported version {version!r}" in text


def _input_error(argv, line):
    """run_command on argv, as text and with --json, must exit 2 with the one line `input error: <line>`."""
    assert run_command(argv) == (2, f"input error: {line}\n")
    code, text = run_command(["--json", *argv])
    assert code == 2 and json.loads(text) == {"passed": False, "records": [{"note": f"input error: {line}"}]}


class TestUnreadableInput:
    """Bytes that are not UTF-8, JSON nested past the recursion limit, a number too long for int(), a name that holds
    an unpaired surrogate, a repeated key and a map whose dims lay out too many rows or columns exit 2 with their
    position."""

    CASES = {
        "not-utf8": (b"\xff\xfe{}", "byte 0: not UTF-8 text (invalid start byte)"),
        "nested": (b"[" * 100000 + b"]" * 100000, "$: JSON nested too deeply to read"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_with_a_position(self, tmp_path, case):
        data, line = self.CASES[case]
        path = tmp_path / "doc.ent"
        path.write_bytes(data)
        _input_error(["check", str(path)], line)

    def test_a_number_too_long_for_int_exits_2(self, tmp_path):
        """A version of 5,001 digits is past Python's int string limit, where it has one; on 3.10.0-3.10.6, which has
        none, the version check refuses it instead.  Either way the command exits 2 with an input error."""
        argv = ["check", write(tmp_path, "doc.ent", '{"version": 1' + "0" * 5000 + ', "field": "Q", "objects": {}}')]
        if hasattr(sys, "get_int_max_str_digits"):
            _input_error(argv, "$: a JSON number has too many digits to read")
        for as_json in ([], ["--json"]):
            code, text = run_command([*as_json, *argv])
            assert code == 2 and "input error: " in text

    def test_an_unpaired_surrogate_exits_2_through_main(self, tmp_path, monkeypatch):
        """An object named by the escape \\ud800 has a name that no UTF-8 text can write: the document is refused, and
        the message names the key by its repr, so that cli.main writes it to a strict UTF-8 stdout."""
        body = json.dumps(one_dim_document()).replace('"k"', '"\\ud800"')
        argv = ["check", write(tmp_path, "doc.ent", body)]
        line = "objects: key '\\ud800' holds an unpaired surrogate"
        _input_error(argv, line)
        for as_json in ([], ["--json"]):
            stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
            monkeypatch.setattr(sys, "argv", ["entwine", *as_json, *argv])
            monkeypatch.setattr(sys, "stdout", stdout)
            with pytest.raises(SystemExit) as exc:
                cli.main()
            stdout.flush()
            assert exc.value.code == 2
            assert stdout.buffer.getvalue().decode("utf-8") == run_command([*as_json, *argv])[1]

    @pytest.mark.parametrize("twice", ["kind", "version"])
    def test_a_repeated_key_exits_2_at_its_object(self, tmp_path, twice):
        """qc2's export with its kind written twice, algebra then hopf, and one with its version written twice: JSON
        keeps the last value, so either was read without a word; each is refused at the object that repeats it."""
        text = catalog_doc("qc2")
        if twice == "kind":
            text, line = text.replace('"kind": "hopf"', '"kind": "algebra", "kind": "hopf"', 1), "objects.qc2"
        else:
            text, line = text.replace('"version": 1', '"version": 1, "version": 1', 1), "$"
        _input_error(["check", write(tmp_path, "doc.ent", text)], f"{line}: key {twice!r} is repeated")

    # objects added to one_dim_document whose first quadruple map lays out 9 rows or 9 columns: a coalgebra of dim 3,
    # whose comultiplication has 3 * 3 rows, an algebra of dim 3, whose multiplication has 3 * 3 columns, and a module
    # and an entwined module of dim 9, one row per basis vector of the action
    SIZE_LIMIT_CASES = {
        "comul": ({"c": {"type": "structure", "kind": "coalgebra", "dim": 3, "comul": [], "counit": [1, 0, 0]}},
                  "objects.c.comul: comul would lay out 9 x 3, past 8 rows or columns"),
        "mul": ({"a": {"type": "structure", "kind": "algebra", "dim": 3, "mul": [], "unit": [1, 0, 0]}},
                "objects.a.mul: mul would lay out 3 x 9, past 8 rows or columns"),
        "triples": ({"m": {"type": "module", "dim": 9, "action": {"structure": "k", "triples": []}}},
                    "objects.m.action.triples: right-action would lay out 9 x 9, past 8 rows or columns"),
        "entwined": ({"em": {"type": "entwined_module", "entwining": "e", "dim": 9, "action": [], "coaction": []}},
                     "objects.em.action: right-action would lay out 9 x 9, past 8 rows or columns"),
    }

    @pytest.mark.parametrize("case", sorted(SIZE_LIMIT_CASES))
    def test_a_map_past_the_size_limit_exits_2(self, tmp_path, monkeypatch, case):
        """A quadruple map is refused at its path when its declared dims lay out more rows or columns than
        MAX_QUAD_SIDE, set low here so that no test lays out a large map; at exactly the limit it is read."""
        from entwine import document

        body = one_dim_document()
        objects, line = self.SIZE_LIMIT_CASES[case]
        body["objects"].update(objects)
        argv = ["check", write(tmp_path, "doc.ent", json.dumps(body))]
        monkeypatch.setattr(document, "MAX_QUAD_SIDE", 8)
        _input_error(argv, line)
        monkeypatch.setattr(document, "MAX_QUAD_SIDE", 9)
        code, text = run_command(argv)
        assert code in (0, 1) and "input error" not in text


# one_dim_document's places for an F_p scalar: a quadruple, a dense psi row, a unit list and a module's triples
PRIME_FIELD_PLACES = {
    "quadruple": (("k", "mul", 0, 3), "objects.k.mul[0]"),
    "psi": (("e", "psi", 0, 0), "objects.e.psi[0][0]"),
    "unit": (("k", "unit", 0), "objects.k.unit[0]"),
    "triples": (("m", "action", "triples", 0, 3), "objects.m.action.triples[0]"),
}
# what is not an int in [0, 5), by its JSON text
PRIME_FIELD_BAD = {"5": 5, "-1": -1, "true": True, "1.0": 1.0, '"1"': "1"}


class TestPrimeFieldScalars:
    """An F_5 scalar equal to p, -1, true, 1.0 or "1" exits 2 with the path of its place and the value's repr."""

    @pytest.mark.parametrize("value", sorted(PRIME_FIELD_BAD))
    @pytest.mark.parametrize("place", sorted(PRIME_FIELD_PLACES))
    def test_exit_2_at_its_path(self, tmp_path, place, value):
        body = json.loads(json.dumps(one_dim_document()))    # no quadruple list shared between objects
        (*parents, last), path = PRIME_FIELD_PLACES[place]
        node = body["objects"]
        for key in parents:
            node = node[key]
        node[last] = PRIME_FIELD_BAD[value]
        _input_error(["check", write(tmp_path, "doc.ent", json.dumps(body))],
                     f"{path}: prime-field scalar must be an integer in [0, 5), got {PRIME_FIELD_BAD[value]!r}")


def reference_document():
    """Every referencing type once, over structures of dims 1, 2 and 3, so each shape reads distinct dims.

    h = qc2 (dim 2) and k = qc3 (dim 3) are Hopf algebras, one the dim-1 bialgebra, alg and coalg
    dim-1 structures with only one part.  aut sorts before every other stage-1 object, so a
    stage-1 reference to it resolves and names the wrong class.
    """
    def structure(name):
        return json.loads(catalog_doc(name))["objects"][name]

    trivial_action = [[0, j, 0, "1"] for j in range(2)]        # over h, on a dim-1 space
    body = {"version": 1, "field": "Q", "objects": {
        "h": structure("qc2"), "k": structure("qc3"), "one": structure("trivial"),
        "alg": {"type": "structure", "kind": "algebra", "dim": 1, "mul": [[0, 0, 0, "1"]], "unit": ["1"]},
        "coalg": {"type": "structure", "kind": "coalgebra", "dim": 1,
                  "comul": [[0, 0, 0, "1"]], "counit": ["1"]},
        "aut": {"type": "morphism", "role": "hopf", "source": "h", "target": "h",
                "matrix": [["1", "0"], ["0", "1"]]},
        "hom": {"type": "morphism", "role": "hopf", "source": "k", "target": "h",
                "matrix": [["1", "1", "1"], ["0", "0", "0"]]},
        "pair": {"type": "pairing", "algebra": "h", "coalgebra": "k", "matrix": [["1"] * 3] * 2},
        "mod": {"type": "module", "dim": 1,
                "action": {"structure": "h", "triples": trivial_action},
                "coaction": {"structure": "k", "side": "left", "triples": [[0, 0, 0, "1"]]}},
        "ent": {"type": "entwining", "algebra": "h", "coalgebra": "k",
                "psi": [["1" if (r // 3, r % 3) == (c % 2, c // 2) else "0" for c in range(6)]
                        for r in range(6)]},
        "emod": {"type": "entwined_module", "entwining": "ent", "dim": 1,
                 "action": trivial_action, "coaction": [[0, 0, 0, "1"]]},
        "dk": {"type": "dk", "bialgebra": "h", "algebra": "k", "coalgebra": "one",
               "coaction": [[i, i, 0, "1"] for i in range(3)], "action": trivial_action},
        "ext": {"type": "extension", "bialgebra": "h", "algebra": "k",
                "coaction": [[i, i, 0, "1"] for i in range(3)], "integral": [["0"] * 2] * 3},
        "coext": {"type": "coextension", "bialgebra": "h", "coalgebra": "k",
                  "action": [[i, j, i, "1"] for i in range(3) for j in range(2)],
                  "cointegral": [["0"] * 3] * 2},
    }}
    return json.loads(json.dumps(body))    # no list shared between objects


def _set(path, value):
    """A mutation of reference_document: set objects.<path> (dotted) to value."""
    def mutate(objects):
        *head, last = path.split(".")
        target = objects
        for key in head:
            target = target[key]
        target[last] = value
    return mutate


def _quad(path, position, value):
    def mutate(objects):
        obj, *keys = path.split(".")
        quads = objects[obj]
        for key in keys:
            quads = quads[key]
        quads[0][position] = value
    return mutate


def _drop_row(path):
    def mutate(objects):
        obj, key = path.split(".")
        objects[obj][key] = objects[obj][key][1:]
    return mutate


def _drop_entry(path):
    def mutate(objects):
        obj, key = path.split(".")
        objects[obj][key] = [objects[obj][key][0][1:]] + objects[obj][key][1:]
    return mutate


REFERENCE_ERRORS = [
    # dangling references
    ("pair.algebra", _set("pair.algebra", "nowhere"), "objects.pair.algebra: dangling reference to 'nowhere'"),
    ("pair.coalgebra", _set("pair.coalgebra", "nowhere"),
     "objects.pair.coalgebra: dangling reference to 'nowhere'"),
    ("mod.action", _set("mod.action.structure", "nowhere"),
     "objects.mod.action.structure: dangling reference to 'nowhere'"),
    ("mod.coaction", _set("mod.coaction.structure", "nowhere"),
     "objects.mod.coaction.structure: dangling reference to 'nowhere'"),
    ("ent.algebra", _set("ent.algebra", "nowhere"), "objects.ent.algebra: dangling reference to 'nowhere'"),
    ("ent.coalgebra", _set("ent.coalgebra", "nowhere"), "objects.ent.coalgebra: dangling reference to 'nowhere'"),
    ("emod.entwining", _set("emod.entwining", "nowhere"),
     "objects.emod.entwining: dangling reference to 'nowhere'"),
    ("dk.bialgebra", _set("dk.bialgebra", "nowhere"), "objects.dk.bialgebra: dangling reference to 'nowhere'"),
    ("dk.algebra", _set("dk.algebra", "nowhere"), "objects.dk.algebra: dangling reference to 'nowhere'"),
    ("dk.coalgebra", _set("dk.coalgebra", "nowhere"), "objects.dk.coalgebra: dangling reference to 'nowhere'"),
    ("ext.bialgebra", _set("ext.bialgebra", "nowhere"), "objects.ext.bialgebra: dangling reference to 'nowhere'"),
    ("ext.algebra", _set("ext.algebra", "nowhere"), "objects.ext.algebra: dangling reference to 'nowhere'"),
    ("coext.bialgebra", _set("coext.bialgebra", "nowhere"),
     "objects.coext.bialgebra: dangling reference to 'nowhere'"),
    ("coext.coalgebra", _set("coext.coalgebra", "nowhere"),
     "objects.coext.coalgebra: dangling reference to 'nowhere'"),
    ("hom.source", _set("hom.source", "nowhere"), "objects.hom.source: dangling reference to 'nowhere'"),
    ("hom.target", _set("hom.target", "nowhere"), "objects.hom.target: dangling reference to 'nowhere'"),
    ("mod.action-unnamed", _set("mod.action", {"triples": []}),
     "objects.mod.action.structure: expected an object name"),
    ("dk.bialgebra-unnamed", _set("dk.bialgebra", 3), "objects.dk.bialgebra: expected an object name"),
    # a reference to an object of the wrong class
    ("pair.algebra-class", _set("pair.algebra", "aut"), "objects.pair.algebra: 'aut' is not a StructurePresentation"),
    ("mod.coaction-class", _set("mod.coaction.structure", "aut"),
     "objects.mod.coaction.structure: 'aut' is not a StructurePresentation"),
    ("ent.coalgebra-class", _set("ent.coalgebra", "aut"),
     "objects.ent.coalgebra: 'aut' is not a StructurePresentation"),
    ("emod.entwining-class", _set("emod.entwining", "h"),
     "objects.emod.entwining: 'h' is not a EntwiningPresentation"),
    ("dk.algebra-class", _set("dk.algebra", "aut"), "objects.dk.algebra: 'aut' is not a StructurePresentation"),
    ("ext.bialgebra-class", _set("ext.bialgebra", "aut"),
     "objects.ext.bialgebra: 'aut' is not a StructurePresentation"),
    ("coext.coalgebra-class", _set("coext.coalgebra", "aut"),
     "objects.coext.coalgebra: 'aut' is not a StructurePresentation"),
    ("hom.target-class", _set("hom.target", "aut"), "objects.hom.target: 'aut' is not a StructurePresentation"),
    # a structure without the algebra or coalgebra part the reference needs
    ("pair.algebra-part", _set("pair.algebra", "coalg"),
     "objects.pair.algebra: referenced object has no algebra structure"),
    ("pair.coalgebra-part", _set("pair.coalgebra", "alg"),
     "objects.pair.coalgebra: referenced object has no coalgebra structure"),
    ("mod.action-part", _set("mod.action", {"structure": "coalg", "triples": [[0, 0, 0, "1"]]}),
     "objects.mod.action.structure: referenced object has no algebra structure"),
    ("mod.coaction-part", _set("mod.coaction", {"structure": "alg", "triples": [[0, 0, 0, "1"]]}),
     "objects.mod.coaction.structure: referenced object has no coalgebra structure"),
    ("ent.algebra-part", _set("ent.algebra", "coalg"),
     "objects.ent.algebra: referenced object has no algebra structure"),
    ("ent.coalgebra-part", _set("ent.coalgebra", "alg"),
     "objects.ent.coalgebra: referenced object has no coalgebra structure"),
    ("dk.bialgebra-algebra-part", _set("dk.bialgebra", "coalg"),
     "objects.dk.bialgebra: referenced object has no algebra structure"),
    ("dk.bialgebra-coalgebra-part", _set("dk.bialgebra", "alg"),
     "objects.dk.bialgebra: referenced object has no coalgebra structure"),
    ("dk.algebra-part", _set("dk.algebra", "coalg"),
     "objects.dk.algebra: referenced object has no algebra structure"),
    ("dk.coalgebra-part", _set("dk.coalgebra", "alg"),
     "objects.dk.coalgebra: referenced object has no coalgebra structure"),
    ("ext.bialgebra-part", _set("ext.bialgebra", "alg"),
     "objects.ext.bialgebra: referenced object has no coalgebra structure"),
    ("ext.algebra-part", _set("ext.algebra", "coalg"),
     "objects.ext.algebra: referenced object has no algebra structure"),
    ("coext.bialgebra-part", _set("coext.bialgebra", "coalg"),
     "objects.coext.bialgebra: referenced object has no algebra structure"),
    ("coext.coalgebra-part", _set("coext.coalgebra", "alg"),
     "objects.coext.coalgebra: referenced object has no coalgebra structure"),
    # a morphism whose role names a part that its source or target lacks
    ("hom.role-algebra", _set("hom", {"type": "morphism", "role": "algebra", "source": "coalg", "target": "coalg",
                                      "matrix": [["1"]]}),
     "objects.hom.source: referenced object has no algebra structure"),
    ("hom.role-hopf", _set("hom", {"type": "morphism", "role": "hopf", "source": "alg", "target": "alg",
                                   "matrix": [["1"]]}),
     "objects.hom.source: referenced object has no coalgebra structure"),
    ("hom.role-coalgebra", _set("hom", {"type": "morphism", "role": "coalgebra", "source": "alg", "target": "alg",
                                        "matrix": [["1"]]}),
     "objects.hom.source: referenced object has no coalgebra structure"),
    ("hom.role-target", _set("hom", {"type": "morphism", "role": "bialgebra", "source": "h", "target": "alg",
                                     "matrix": [["1", "0"]]}),
     "objects.hom.target: referenced object has no coalgebra structure"),
    # every index of every quadruple block, set to its bound
    *[(f"{path}[{pos}]", _quad(path, pos, bound), f"objects.{shown}[0]: {name} index {bound} out of range [0, {bound})")
      for path, shown, bounds in (
          ("mod.action.triples", "mod.action.triples", (1, 2, 1)),
          ("mod.coaction.triples", "mod.coaction.triples", (1, 1, 3)),
          ("emod.action", "emod.action", (1, 2, 1)),
          ("emod.coaction", "emod.coaction", (1, 1, 3)),
          ("dk.coaction", "dk.coaction", (3, 3, 2)),
          ("dk.action", "dk.action", (1, 2, 1)),
          ("ext.coaction", "ext.coaction", (3, 3, 2)),
          ("coext.action", "coext.action", (3, 2, 3)))
      for pos, (name, bound) in enumerate(zip(("first", "second", "third"), bounds))],
    # wrong matrix shapes, required and optional
    *[(f"{path}-{what}", mutate(path), f"objects.{path}{where}: expected {count}")
      for path, rows, cols in (("pair.matrix", 2, 3), ("ent.psi", 6, 6), ("hom.matrix", 2, 3),
                               ("ext.integral", 3, 2), ("coext.cointegral", 2, 3))
      for what, mutate, where, count in (("rows", _drop_row, "", f"{rows} rows"),
                                         ("entries", _drop_entry, "[0]", f"{cols} entries"))],
    # a key that no field of the type reads: one object of each type, and each block of a module
    *[(f"{path}-unknown", _set(f"{path}.bogus", 1), f"objects.{path}.bogus: unknown field")
      for path in ("h", "pair", "mod", "ent", "emod", "dk", "ext", "coext", "aut", "mod.action", "mod.coaction")],
]


class TestReferenceErrors:
    """Each referencing type reports a broken reference, part, index or shape at its JSON path."""

    def test_reference_document_parses(self):
        doc = parse_document(json.dumps(reference_document()))
        assert sorted(doc.resolved) == sorted(reference_document()["objects"])
        assert sorted(type(doc.resolved[name]).__name__ for name in ("pair", "mod", "ent", "emod", "dk",
                                                                    "ext", "coext", "hom")) == [
            "DKStructure", "EntwinedModulePresentation", "EntwiningPresentation", "HCoextension",
            "HExtension", "ModulePresentation", "Morphism", "PairingPresentation"]

    @pytest.mark.parametrize("case, mutate, line", REFERENCE_ERRORS, ids=[c for c, _, _ in REFERENCE_ERRORS])
    def test_input_error_line(self, tmp_path, case, mutate, line):
        body = reference_document()
        mutate(body["objects"])
        code, text = run_command(["check", write(tmp_path, "doc.ent", json.dumps(body))])
        assert (code, text) == (2, f"input error: {line}\n")


    def test_reference_document_check(self, tmp_path):
        """Each object's verifier, a Hopf morphism's under op bialgebra_morphism."""
        code, text = run_command(["check", write(tmp_path, "doc.ent", json.dumps(reference_document()))])
        assert (code, text.splitlines()) == (1, [
            "alg: verify_structure[algebra]: PASS",
            "aut: bialgebra_morphism: PASS",
            "coalg: verify_structure[coalgebra]: PASS",
            "coext: coextension verified at parse time; quotient dim 3",
            "coext: cointegral linear=True total=False cocleft=False inverse_twist=None",
            "dk: verify_dk: PASS",
            "emod: verify_entwined_module: PASS",
            "ent: verify_entwining: PASS",
            "ext: extension verified at parse time; coinvariants dim 3",
            "ext: integral colinear=True total=False cleft=False",
            "h: verify_structure[hopf]: PASS",
            "hom: bialgebra_morphism: PASS",
            "k: verify_structure[hopf]: PASS",
            "mod: verify_structure[module+comodule]: PASS",
            "one: verify_structure[bialgebra]: PASS",
            "pair: verify_measuring_pairing: PASS",
        ])


class TestEmittedNames:
    """document_from_objects names an object the caller did not: <key>_<n>, from one counter."""

    @staticmethod
    def pinned(objects: dict) -> str:
        return json.dumps({"version": 1, "field": "Q", "objects": objects}, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def structure(name: str) -> dict:
        return json.loads(catalog_doc(name))["objects"][name]

    def test_entwined_module_without_its_entwining(self):
        text = emit_document(document_from_objects(QQ, {"hopfmod_qc2": catalog_get("hopfmod_qc2")}))
        assert text == self.pinned({
            "algebra_2": self.structure("qc2"),
            "entwining_1": {"type": "entwining", "algebra": "algebra_2", "coalgebra": "algebra_2",
                            "psi": [["1", "0", "0", "0"], ["0", "0", "1", "0"],
                                    ["0", "0", "0", "1"], ["0", "1", "0", "0"]]},
            "hopfmod_qc2": {"type": "entwined_module", "entwining": "entwining_1", "dim": 2,
                            "action": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
                            "coaction": [[0, 0, 0, "1"], [1, 1, 1, "1"]]},
        })

    def test_given_algebra_keeps_its_name(self):
        from entwine.entwining import EntwinedModulePresentation, flip_entwining
        from entwine.structures import matrix_from_quads

        qc2, trivial = catalog_get("qc2"), catalog_get("trivial")
        m = EntwinedModulePresentation(flip_entwining(qc2, trivial), 1,
                                       matrix_from_quads(QQ, "right-action", (1, 2, 1), [(0, 0, 0, 1), (0, 1, 0, 1)]),
                                       matrix_from_quads(QQ, "right-coaction", (1, 1, 1), [(0, 0, 0, 1)]))
        text = emit_document(document_from_objects(QQ, {"A": qc2, "M": m}))
        assert text == self.pinned({
            "A": self.structure("qc2"),
            "M": {"type": "entwined_module", "entwining": "entwining_1", "dim": 1,
                  "action": [[0, 0, 0, "1"], [0, 1, 0, "1"]], "coaction": [[0, 0, 0, "1"]]},
            "coalgebra_2": self.structure("trivial"),
            "entwining_1": {"type": "entwining", "algebra": "A", "coalgebra": "coalgebra_2",
                            "psi": [["1", "0"], ["0", "1"]]},
        })

    def test_module_and_pairing_parts(self):
        from entwine.structures import ModulePresentation, canonical_pairing

        qc2, trivial = catalog_get("qc2"), catalog_get("trivial")
        m = ModulePresentation(1, qc2, Matrix.from_rows(QQ, [[1, 1]]), "left",
                               trivial, Matrix.from_rows(QQ, [[1]]), "left")
        p = canonical_pairing(trivial)
        text = emit_document(document_from_objects(QQ, {"m": m, "p": p}))
        assert text == self.pinned({
            "algebra_1": self.structure("qc2"),
            "coalgebra_2": self.structure("trivial"),
            "m": {"type": "module", "dim": 1,
                  "action": {"structure": "algebra_1", "side": "left", "triples": [[0, 0, 0, "1"], [0, 1, 0, "1"]]},
                  "coaction": {"structure": "coalgebra_2", "side": "left", "triples": [[0, 0, 0, "1"]]}},
            "p": {"type": "pairing", "algebra": "algebra_3", "coalgebra": "coalgebra_2", "matrix": [["1"]]},
            "algebra_3": {"type": "structure", "kind": "algebra", "dim": 1, "labels": ["1*"],
                          "mul": [[0, 0, 0, "1"]], "unit": ["1"]},
        })

    def test_morphism_is_not_emitted(self):
        from entwine.exactlin import PresentationError

        doc = parse_document(json.dumps(reference_document()))
        with pytest.raises(PresentationError) as exc:
            document_from_objects(QQ, {"aut": doc.resolved["aut"]})
        assert str(exc.value) == "cannot emit object 'aut' of type Morphism"


class TestCheckCommand:
    def test_catalog_exports_pass(self, tmp_path):
        for name in ("qc2", "dk_qc2", "hopfmod_qc2", "ext_qc2", "coext_qc2"):
            path = write(tmp_path, name + ".ent", catalog_doc(name))
            code, text = run_command(["check", path])
            assert code == 0, text

    def test_corrupted_structure_fails_with_witness(self, tmp_path):
        text = catalog_doc("qc2")
        body = json.loads(text)
        body["objects"]["qc2"]["mul"][0][3] = "2"
        path = write(tmp_path, "bad.ent", json.dumps(body))
        code, text = run_command(["check", path])
        assert code == 1
        assert "FAIL" in text and "basis" in text

    def test_missing_file_is_input_error(self):
        code, text = run_command(["check", "/nonexistent/х.ent"])
        assert code == 2

    def test_parse_error_is_input_error(self, tmp_path):
        path = write(tmp_path, "bad.ent", "{")
        code, text = run_command(["check", path])
        assert code == 2
        assert "input error" in text

    def test_noncanonical_rational_is_input_error(self, tmp_path):
        body = json.loads(catalog_doc("qc2"))
        body["objects"]["qc2"]["mul"][0][3] = "+1"
        code, text = run_command(["check", write(tmp_path, "bad.ent", json.dumps(body))])
        assert code == 2 and "objects.qc2.mul[0]: non-canonical rational literal '+1'" in text

    def test_json_input_error_fails_the_run(self, tmp_path):
        body = json.loads(catalog_doc("qc2"))
        body["objects"]["x"] = {"type": "frobenius"}
        for path in ("/nonexistent/doc.ent", write(tmp_path, "bad.ent", json.dumps(body))):
            code, text = run_command(["--json", "check", path])
            data = json.loads(text)
            assert (code, data["passed"]) == (2, False)
            assert data["records"][0]["note"].startswith("input error: ")

    def test_json_report(self, tmp_path):
        path = write(tmp_path, "qc2.ent", catalog_doc("qc2"))
        code, text = run_command(["--json", "check", path])
        assert code == 0
        data = json.loads(text)
        assert data["passed"] is True


class TestCommands:
    def test_dualize_structure(self, tmp_path):
        path = write(tmp_path, "qc2.ent", catalog_doc("qc2"))
        code, text = run_command(["dualize", path, "--name", "qc2"])
        assert code == 0
        emitted = text.split("\n", 1)[1]
        doc = parse_document(emitted)
        assert "qc2_dual" in doc.resolved

    def test_dualize_entwining(self, tmp_path):
        path = write(tmp_path, "e.ent", catalog_doc("hopfmod_qc2_entwining"))
        code, text = run_command(["dualize", path, "--name", "hopfmod_qc2_entwining"])
        assert code == 0
        assert "_dual" in text

    def test_dualize_dk(self, tmp_path):
        path = write(tmp_path, "dk.ent", catalog_doc("dk_qc2"))
        code, text = run_command(["dualize", path, "--name", "dk_qc2"])
        assert code == 0

    def test_smash_and_coring(self, tmp_path):
        path = write(tmp_path, "e.ent", catalog_doc("hopfmod_qc2_entwining"))
        code, text = run_command(["smash", path, "--name", "hopfmod_qc2_entwining", "--table"])
        assert code == 0
        assert "dimension 4" in text
        code, text = run_command(["coring", path, "--name", "hopfmod_qc2_entwining"])
        assert code == 0

    def test_antipode(self, tmp_path):
        path = write(tmp_path, "h.ent", catalog_doc("sweedler4"))
        code, text = run_command(["antipode", path, "--name", "sweedler4"])
        assert code == 0
        path = write(tmp_path, "m.ent", catalog_doc("monoid2"))
        code, text = run_command(["antipode", path, "--name", "monoid2"])
        assert code == 1
        assert "no antipode" in text

    def test_rat(self, tmp_path):
        body = {
            "version": 1,
            "field": "Q",
            "objects": {
                "a": {"type": "structure", "kind": "algebra", "dim": 2,
                      "mul": [[0, 0, 0, "1"], [1, 1, 1, "1"]], "unit": ["1", "1"]},
                "ct": {"type": "structure", "kind": "coalgebra", "dim": 1,
                       "comul": [[0, 0, 0, "1"]], "counit": ["1"]},
                "p": {"type": "pairing", "algebra": "a", "coalgebra": "ct",
                      "matrix": [["1"], ["0"]]},
                "m": {"type": "module", "dim": 2,
                      "action": {"structure": "a", "side": "left",
                                 "triples": [[0, 0, 0, "1"], [1, 1, 1, "1"]]}},
            },
        }
        path = write(tmp_path, "rat.ent", json.dumps(body))
        code, text = run_command(["rat", path, "--pairing", "p", "--module", "m"])
        assert code == 0
        assert "dimension 1" in text

    @staticmethod
    def _rat_doc(tmp_path, pairing, mdim, action):
        """A = span{e0, e1} with e0 e0 = e0, e1 e1 = e1 and unit e0 + e1, paired with the 1-dim coalgebra."""
        body = {"version": 1, "field": "Q", "objects": {
            "a": {"type": "structure", "kind": "algebra", "dim": 2,
                  "mul": [[0, 0, 0, "1"], [1, 1, 1, "1"]], "unit": ["1", "1"]},
            "ct": {"type": "structure", "kind": "coalgebra", "dim": 1, "comul": [[0, 0, 0, "1"]], "counit": ["1"]},
            "p": {"type": "pairing", "algebra": "a", "coalgebra": "ct", "matrix": pairing},
            "m": {"type": "module", "dim": mdim, "action": {"structure": "a", "side": "left", "triples": action}}}}
        return write(tmp_path, "rat.ent", json.dumps(body))

    def test_rat_reads_the_module_laws(self, tmp_path):
        # e0.m = e1.m = m is no module: e0.(e1.m) = m, but (e0 e1).m = 0
        path = self._rat_doc(tmp_path, [["1"], ["0"]], 1, [[0, 0, 0, "1"], [0, 1, 0, "1"]])
        assert run_command(["rat", path, "--pairing", "p", "--module", "m"]) == (1, (
            "error: rat: FAIL module[action-associativity] at basis (0, 1, 0) lhs={0: 1} rhs={}\n"))

    def test_rat_reads_the_measuring_rows(self, tmp_path):
        # <e0 e1, c> = 0, but <e0, c><e1, c> = 1
        path = self._rat_doc(tmp_path, [["1"], ["1"]], 2, [[0, 0, 0, "1"], [1, 1, 1, "1"]])
        assert run_command(["rat", path, "--pairing", "p", "--module", "m"]) == (1, (
            "error: rat: FAIL pairing[measuring] at basis (0, 1) lhs={} rhs={0: 1}\n"))

    def test_rat_refuses_a_module_over_another_algebra(self, tmp_path):
        # B has A's multiplication but unit e0, so it fails left-unit; the character e0.m = m, e1.m = 0 is a module
        # over B all the same, and its rational part along A's pairing is an input error, not a certificate
        with open(self._rat_doc(tmp_path, [["1"], ["0"]], 1, [[0, 0, 0, "1"]])) as fh:
            body = json.load(fh)
        body["objects"]["b"] = dict(body["objects"]["a"], unit=["1", "0"])
        body["objects"]["m"]["action"]["structure"] = "b"
        path = write(tmp_path, "rat-b.ent", json.dumps(body))
        assert run_command(["rat", path, "--pairing", "p", "--module", "m"]) == (
            2, "input error: the module's algebra does not match the pairing's in its multiplication or unit\n")
        code, text = run_command(["check", path])
        assert code == 1 and "b: verify_structure[algebra]: FAIL left-unit at basis (1,)" in text

    def test_rat_computes_the_rank_criterion_once(self, tmp_path, monkeypatch):
        from entwine import cli, structures

        calls = []
        criterion = structures.check_alpha_condition
        for module in (cli, structures):   # wherever the command could call it from
            monkeypatch.setattr(module, "check_alpha_condition", lambda p: calls.append(p) or criterion(p),
                                raising=False)
        path = self._rat_doc(tmp_path, [["1"], ["0"]], 1, [[0, 0, 0, "1"]])
        assert run_command(["rat", path, "--pairing", "p", "--module", "m"]) == (0, (
            "p: check_alpha_condition: PASS rank=1 dim_c=1\n"
            "m: rational part has dimension 1; basis [1]\n"))
        assert len(calls) == 1

    def test_adjunction(self, tmp_path):
        path = write(tmp_path, "m.ent", catalog_doc("hopfmod_qc2"))
        code, text = run_command(["adjunction", path, "--entwining", "entwining_1",
                                  "--module", "hopfmod_qc2"])
        assert code == 0

    def test_adjunction_blames_the_input_module(self, tmp_path):
        from dataclasses import replace
        from entwine.document import document_from_objects, emit_document
        from entwine.exactlin import Matrix

        m = catalog_get("hopfmod_qc2")
        data = list(m.action.data)
        data[0] += 1
        bad = replace(m, action=Matrix(QQ, m.action.rows, m.action.cols, data))
        path = write(tmp_path, "adj.ent", emit_document(document_from_objects(QQ, {"e": m.entwining, "m": bad})))
        code, text = run_command(["adjunction", path, "--entwining", "e", "--module", "m"])
        assert (code, text) == (1, "m: adjunction_check: FAIL module[action[action-associativity]] "
                                   "at basis (0, 0, 0) lhs={0: 4} rhs={0: 2}\n")

    def test_adjunction_explicit_dual_module(self, tmp_path):
        # supply K explicitly: the dual of the regular module, exported by hand
        from entwine.duality import dual_entwining, dual_module_r
        from entwine.document import document_from_objects, emit_document

        m = catalog_get("hopfmod_qc2")
        d = dual_entwining(m.entwining)
        k = dual_module_r(d, m).module
        doc = document_from_objects(QQ, {"e": m.entwining, "m": m, "dual_e": k.entwining, "k": k})
        path = write(tmp_path, "adj.ent", emit_document(doc))
        code, text = run_command(["adjunction", path, "--entwining", "e",
                                  "--module", "m", "--dual-module", "k"])
        assert code == 0, text

    def test_module_with_left_coaction_roundtrips(self, tmp_path):
        from entwine.document import document_from_objects, emit_document
        from entwine.structures import ModulePresentation, verify_structure

        qc2 = catalog_get("qc2")
        # left regular comodule: coaction = comul with the coalgebra part first
        m = ModulePresentation(2, None, None, "right", qc2, qc2.comul, "left")
        assert verify_structure("comodule", m).passed
        doc = document_from_objects(QQ, {"h": qc2, "m": m})
        text = emit_document(doc)
        parsed = parse_document(text)
        again = parsed.resolved["m"]
        assert again.coaction == m.coaction and again.coaction_side == "left"
        path = write(tmp_path, "mod.ent", text)
        code, out = run_command(["check", path])
        assert code == 0, out

    def test_dk(self, tmp_path):
        path = write(tmp_path, "dk.ent", catalog_doc("dk_qc2"))
        code, text = run_command(["dk", path, "--name", "dk_qc2"])
        assert code == 0
        assert "agrees" in text

    @pytest.mark.parametrize("argv, counts", [
        # the triple passes verify_dk once, and nothing more is read: neither its entwining nor its dual, a
        # transpose, nor Koppinen's table, since both identities that dk prints hold for any maps.  H = A = C is
        # read once as a bialgebra: its algebra and coalgebra rows are not read again
        (["dk", "dk_qc2", "--name", "dk_qc2"], (8, 18, 1, 0, 0)),
        (["dualize", "dk_qc2", "--name", "dk_qc2"], (8, 18, 1, 0, 0)),
        # the entwining passes verify_entwining once, and nothing that dual_entwining builds is read
        (["dualize", "hopfmod_sweedler4_entwining", "--name", "hopfmod_sweedler4_entwining"], (3, 10, 0, 1, 0)),
        # the entwining passes verify_entwining once, and neither command builds the smash ring, the coring or nu:
        # each prints dim A * dim C
        (["smash", "hopfmod_sweedler4_entwining", "--name", "hopfmod_sweedler4_entwining"], (3, 10, 0, 1, 0)),
        (["coring", "hopfmod_sweedler4_entwining", "--name", "hopfmod_sweedler4_entwining"], (3, 10, 0, 1, 0)),
        # the structure is read, and its dual, a transpose, is not
        (["dualize", "sweedler4", "--name", "sweedler4"], (1, 11, 0, 0, 0)),
        # the entwining and the module are read once each, and no dual module is read; M_r is built once: it is
        # also the double dual of K = M_r, since K^r is M
        (["adjunction", "hopfmod_qc2", "--entwining", "entwining_1", "--module", "hopfmod_qc2"], (9, 19, 0, 1, 0)),
        # H is read as a Hopf algebra, since its antipode is read, and D = H is not read again as a coalgebra; the
        # cointegral is checked once, and its report is the dual integral's, transposed: neither D* over H* nor the
        # integral omega^T is read
        (["cocleft", "coext_sweedler4", "--name", "coext_sweedler4"], (6, 17, 0, 0, 1)),
    ], ids=["dk", "dualize-dk", "dualize-entwining", "smash", "coring", "dualize-structure", "adjunction",
            "cocleft"])
    def test_each_object_is_verified_once(self, tmp_path, monkeypatch, argv, counts):
        from entwine import cli, doikoppinen, duality, entwining, report

        cmd, doc, *options = argv
        path = write(tmp_path, "doc.ent", catalog_doc(doc))   # the catalog's own checks run before counting
        calls = dict.fromkeys(("first_failure", "compare", "verify_dk", "verify_entwining", "check_cointegral"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("first_failure", "compare"):
            monkeypatch.setattr(report, name, counting(name, getattr(report, name)))
        modules = (entwining, doikoppinen, duality, cli)
        for name in ("verify_dk", "verify_entwining", "check_cointegral"):
            wrapped = counting(name, getattr(next(m for m in modules if hasattr(m, name)), name))
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        code, text = run_command([cmd, path, *options])
        assert code == 0, text
        assert calls == dict(zip(calls, counts))

    def test_dk_reads_only_the_triple(self, tmp_path, monkeypatch):
        """On every catalog triple, dk reads through report.compare exactly the rows that verify_dk reads, and builds
        neither the entwining, Koppinen's table, the smash ring nor the dual."""
        from entwine import cli, doikoppinen, entwining, report

        compare, read = report.compare, []

        def recording(op, axiom, *rest):
            read.append((op, axiom))
            return compare(op, axiom, *rest)

        def refuse(*_):
            raise AssertionError("dk built what it does not print")

        names = [name for name in catalog_names() if isinstance(catalog_get(name), DKStructure)]
        assert len(names) == 6
        for name in names:
            path = write(tmp_path, f"{name}.ent", catalog_doc(name))
            doc = parse_document(catalog_doc(name))
            monkeypatch.setattr(report, "compare", recording)
            verify_dk(doc.resolved[name])
            rows, read[:] = list(read), []
            with monkeypatch.context() as refusing:
                for module in (cli, doikoppinen, entwining):
                    for fn in ("dk_entwining", "koppinen_table", "build_smash", "dual_dk"):
                        refusing.setattr(module, fn, refuse, raising=False)
                code, text = run_command(["dk", path, "--name", name])
            monkeypatch.setattr(report, "compare", compare)
            assert code == 0 and text.splitlines()[1:] == [
                f"{name}: twisted ring agrees with the entwining smash ring, table and unit",
                f"{name}_dual: dual_dk: PASS entwining_coherence=True"], name
            assert read == rows and rows, name
            read.clear()

    def test_coextensions_eliminate_nothing_until_read(self, tmp_path, monkeypatch):
        """Parsing a catalog coextension runs no elimination, and cocleft builds neither W, the projection nor the
        coinvariants of the dual; check builds W alone for the quotient's dimension."""
        from entwine import doikoppinen, exactlin

        eliminate, calls = exactlin._eliminate, []
        monkeypatch.setattr(exactlin, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
        names = [name for name in catalog_names() if isinstance(catalog_get(name), HCoextension)]
        assert len(names) == 2
        for name in names:
            text = catalog_doc(name)
            calls.clear()
            coext = parse_document(text).resolved[name]
            assert not calls, name
            assert coext.d.dim - coext.dplus.dim == quotient_of(coext).coalgebra.dim == 1
        for module, fn in ((doikoppinen, "coinvariants"), (doikoppinen, "image")):
            monkeypatch.setattr(module, fn, lambda *_: pytest.fail("cocleft built what it does not print"))
        for name in names:
            code, text = run_command(["cocleft", write(tmp_path, f"{name}.ent", catalog_doc(name)), "--name", name])
            assert code == 0 and text.endswith(
                f"{name}_dual: dualize_coextension: PASS coinvariants_equal_quotient_dual=True cleft=True\n"), text

    def test_cleft_cocleft(self, tmp_path):
        path = write(tmp_path, "ext.ent", catalog_doc("ext_qc2"))
        code, text = run_command(["cleft", path, "--name", "ext_qc2"])
        assert code == 0
        assert "cleft=True" in text
        path = write(tmp_path, "coext.ent", catalog_doc("coext_qc2"))
        code, text = run_command(["cocleft", path, "--name", "coext_qc2"])
        assert code == 0
        assert "cocleft=True" in text

    def test_cocleft_over_a_bialgebra(self, tmp_path):
        """coext_qc2 with its H written as a bialgebra, without the antipode: the cointegral passes, and cocleft
        refuses the dual, which reads the antipode; check reads no dual and passes."""
        doc = json.loads(catalog_doc("coext_qc2"))
        h = doc["objects"][doc["objects"]["coext_qc2"]["bialgebra"]]
        h["kind"] = "bialgebra"
        del h["antipode"]
        path = write(tmp_path, "coext-bialgebra.ent", json.dumps(doc))
        inner = "coext_qc2: linear=True total=True cocleft=True inverse_twist=None"
        refused = "input error: dualize_coextension needs a Hopf algebra"
        assert run_command(["cocleft", path, "--name", "coext_qc2"]) == (2, f"{inner}\n{refused}\n")
        code, text = run_command(["--json", "cocleft", path, "--name", "coext_qc2"])
        assert code == 2
        assert json.loads(text) == {"passed": False, "records": [{"note": inner}, {"note": refused}]}
        assert run_command(["check", path]) == (0, "bialgebra_1: verify_structure[bialgebra]: PASS\n"
                                                   "coext_qc2: coextension verified at parse time; quotient dim 1\n"
                                                   "coext_qc2: cointegral linear=True total=True cocleft=True "
                                                   "inverse_twist=None\n")

    def test_cocleft_builds_no_dual(self, tmp_path, monkeypatch):
        """cocleft prints the dual's verdict without building D* over H*, nor any dual structure."""
        from entwine import cli, doikoppinen, structures

        paths = {name: write(tmp_path, f"{name}.ent", catalog_doc(name)) for name in ("coext_qc2", "coext_sweedler4")}
        for module, fn in ((doikoppinen, "module_coalgebra_to_comodule_algebra"), (doikoppinen, "dualize_structure"),
                           (structures, "dualize_structure"), (cli, "dualize_structure")):
            monkeypatch.setattr(module, fn, lambda *_, fn=fn: pytest.fail(f"cocleft called {fn}"))
        for name, path in paths.items():
            code, text = run_command(["cocleft", path, "--name", name])
            assert code == 0 and text.endswith(
                f"{name}_dual: dualize_coextension: PASS coinvariants_equal_quotient_dual=True cleft=True\n"), text

    def test_cleft_reads_the_algebra_laws_of_b(self, tmp_path):
        """B = span{1, x, y} with x x = y, x y = 1, y x = x is not associative, (x x) x = x but x (x x) = 1;
        the coaction b -> b (x) 1 over the trivial bialgebra passes the comodule-algebra rows all the same."""
        unital = [[0, j, j, "1"] for j in range(3)] + [[j, 0, j, "1"] for j in (1, 2)]
        body = {"version": 1, "field": "Q", "objects": {
            "h": {"type": "structure", "kind": "bialgebra", "dim": 1, "labels": ["1"], "mul": [[0, 0, 0, "1"]],
                  "unit": ["1"], "comul": [[0, 0, 0, "1"]], "counit": ["1"]},
            "b": {"type": "structure", "kind": "algebra", "dim": 3, "labels": ["1", "x", "y"],
                  "mul": unital + [[1, 1, 2, "1"], [1, 2, 0, "1"], [2, 1, 1, "1"]], "unit": ["1", "0", "0"]},
            "ext": {"type": "extension", "bialgebra": "h", "algebra": "b",
                    "coaction": [[j, j, 0, "1"] for j in range(3)], "integral": [["1"], ["0"], ["0"]]}}}
        path = write(tmp_path, "ext.ent", json.dumps(body))
        line = "error: h_extension: FAIL algebra[associativity] at basis (1, 1, 1) lhs={1: 1} rhs={0: 1}\n"
        assert run_command(["cleft", path, "--name", "ext"]) == (1, line)
        assert run_command(["check", path]) == (1, line)

    def test_cocleft_reads_the_bialgebra_laws_of_h(self, tmp_path):
        body = json.loads(catalog_doc("coext_qc2"))
        h = body["objects"][body["objects"]["coext_qc2"]["bialgebra"]]
        assert h["mul"][0] == [0, 0, 0, "1"]
        h["mul"][0][3] = "2"
        path = write(tmp_path, "coext.ent", json.dumps(body))
        assert run_command(["cocleft", path, "--name", "coext_qc2"]) == (1, (
            "error: coextension_quotient: FAIL bialgebra[associativity] at basis (0, 0, 1) lhs={1: 2} rhs={1: 1}\n"))

    def test_cocleft_reads_the_antipode_of_h(self, tmp_path):
        """check_cointegral reads H's antipode, so H is read as a Hopf algebra: a wrong antipode is blamed on H,
        not on the cointegral, by cocleft and check alike."""
        body = json.loads(catalog_doc("coext_sweedler4"))
        h = body["objects"][body["objects"]["coext_sweedler4"]["bialgebra"]]
        assert h["antipode"][3][2] == "-1"
        h["antipode"][3][2] = "1"
        path = write(tmp_path, "coext.ent", json.dumps(body))
        line = "error: coextension_quotient: FAIL bialgebra[antipode-left] at basis (2,) lhs={3: 2} rhs={}\n"
        assert run_command(["cocleft", path, "--name", "coext_sweedler4"]) == (1, line)
        assert run_command(["check", path]) == (1, line)

    @staticmethod
    def _sweedler4_bumped_comul(tmp_path) -> str:
        """sweedler4 with coefficient 2 on its first comul quadruple, which fails coassociativity."""
        body = json.loads(catalog_doc("sweedler4"))
        comul = body["objects"]["sweedler4"]["comul"]
        assert comul[0] == [0, 0, 0, "1"]
        comul[0][3] = "2"
        return write(tmp_path, "sw4.ent", json.dumps(body))

    def test_dualize_verifies_the_structure(self, tmp_path):
        """dualize reads the input at its own kind, gives check's witness, and writes no document after a FAIL."""
        path = self._sweedler4_bumped_comul(tmp_path)
        failure = ("verify_structure[hopf]: FAIL coassociativity at basis (2,) "
                   "lhs={22: 1, 24: 1, 32: 1} rhs={22: 1, 24: 1, 32: 2}\n")
        assert run_command(["check", path]) == (1, f"sweedler4: {failure}")
        assert run_command(["dualize", path, "--name", "sweedler4"]) == (1, f"error: {failure}")

    def test_antipode_reports_a_failed_bialgebra_law(self, tmp_path):
        """A bialgebra law that fails is a law failure, exit 1 with check's witness, not an input error."""
        path = self._sweedler4_bumped_comul(tmp_path)
        assert run_command(["antipode", path, "--name", "sweedler4"]) == (1, (
            "error: verify_structure[bialgebra]: FAIL coassociativity at basis (2,) "
            "lhs={22: 1, 24: 1, 32: 1} rhs={22: 1, 24: 1, 32: 2}\n"))
        code, text = run_command(["--json", "antipode", path, "--name", "sweedler4"])
        assert code == 1 and json.loads(text)["records"][0]["axiom"] == "coassociativity"

    def test_catalog_listing(self):
        code, text = run_command(["catalog"])
        assert code == 0
        assert "qc2" in text

    def test_morphism_objects(self, tmp_path):
        body = json.loads(catalog_doc("qc2"))
        body["objects"]["inv"] = {
            "type": "morphism", "role": "hopf", "source": "qc2", "target": "qc2",
            "matrix": [["1", "0"], ["0", "1"]],
        }
        path = write(tmp_path, "m.ent", json.dumps(body))
        code, text = run_command(["check", path])
        assert code == 0, text
        body["objects"]["inv"]["matrix"] = [["1", "1"], ["0", "1"]]
        path = write(tmp_path, "bad.ent", json.dumps(body))
        code, text = run_command(["check", path])
        assert code == 1

    @pytest.mark.parametrize("role, matrix, line", [
        ("algebra", [["1", "0"], ["0", "1"]], "f: algebra_morphism: PASS"),
        ("algebra", [["2", "0"], ["0", "1"]],
         "f: algebra_morphism: FAIL multiplicative at basis (0, 0) lhs={0: 2} rhs={0: 4}"),
        ("coalgebra", [["1", "0"], ["0", "1"]], "f: coalgebra_morphism: PASS"),
        ("coalgebra", [["2", "0"], ["0", "1"]],
         "f: coalgebra_morphism: FAIL comultiplicative at basis (0,) lhs={0: 2} rhs={0: 4}"),
    ], ids=["algebra-identity", "algebra-bumped", "coalgebra-identity", "coalgebra-bumped"])
    def test_morphism_roles(self, tmp_path, role, matrix, line):
        """A morphism of role algebra or coalgebra is read by its own report: the identity of qc2 passes, and the
        identity with +1 at (0, 0) fails with its witness."""
        body = json.loads(catalog_doc("qc2"))
        body["objects"]["f"] = {"type": "morphism", "role": role, "source": "qc2", "target": "qc2", "matrix": matrix}
        code, text = run_command(["check", write(tmp_path, "m.ent", json.dumps(body))])
        assert (code, text) == (int("FAIL" in line), f"{line}\nqc2: verify_structure[hopf]: PASS\n")

    def test_dualize_entwining_output_parses(self, tmp_path):
        path = write(tmp_path, "e.ent", catalog_doc("hopfmod_qc2_entwining"))
        code, text = run_command(["dualize", path, "--name", "hopfmod_qc2_entwining"])
        assert code == 0
        emitted = text.split("\n", 1)[1]
        doc = parse_document(emitted)
        assert any(k.endswith("_dual") for k in doc.resolved)

    def test_rat_pairing_and_module_over_different_algebras(self, tmp_path):
        # the pairing's algebra is qc3* (dim 3), the module's is qc2 (dim 2)
        from entwine.structures import ModulePresentation, canonical_pairing

        qc2 = catalog_get("qc2")
        doc = document_from_objects(QQ, {
            "p": canonical_pairing(catalog_get("qc3")),
            "m": ModulePresentation(2, qc2, qc2.mul, "left"),
        })
        path = write(tmp_path, "rat.ent", emit_document(doc))
        code, text = run_command(["rat", path, "--pairing", "p", "--module", "m"])
        assert code == 2
        assert text.startswith("input error") and text.count("\n") == 1 and "does not match the pairing" in text

    def test_unhashable_object_type_is_input_error(self, tmp_path):
        body = json.loads(catalog_doc("qc2"))
        body["objects"]["qc2"]["type"] = ["structure"]
        path = write(tmp_path, "bad.ent", json.dumps(body))
        code, text = run_command(["check", path])
        assert code == 2
        assert "objects.qc2.type: unknown object type" in text


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        paths = {
            "qc2": write(tmp_path, "qc2.ent", catalog_doc("qc2")),
            "dk": write(tmp_path, "dk.ent", catalog_doc("dk_qc2")),
            "ent": write(tmp_path, "e.ent", catalog_doc("hopfmod_qc2_entwining")),
        }
        commands = [
            ["check", paths["qc2"]],
            ["--json", "check", paths["qc2"]],
            ["dualize", paths["qc2"], "--name", "qc2"],
            ["smash", paths["ent"], "--name", "hopfmod_qc2_entwining", "--table"],
            ["coring", paths["ent"], "--name", "hopfmod_qc2_entwining"],
            ["antipode", paths["qc2"], "--name", "qc2"],
            ["dk", paths["dk"], "--name", "dk_qc2"],
            ["catalog"],
            ["catalog", "sweedler4"],
        ]
        for argv in commands:
            first = run_command(list(argv))
            second = run_command(list(argv))
            assert first == second, argv

    def test_one_parser_serves_every_command(self, tmp_path, monkeypatch):
        """Commands run in a row through the shared parser and subparsers answer as fresh ones do."""
        from entwine import cli

        qc2 = write(tmp_path, "qc2.ent", catalog_doc("qc2"))
        ent = write(tmp_path, "e.ent", catalog_doc("hopfmod_qc2_entwining"))
        name = ["--name", "hopfmod_qc2_entwining"]
        commands = [
            ["--json", "check", qc2],
            ["check", qc2],
            ["smash", ent],                     # argparse error: --name is required
            ["smash", ent, *name, "--table"],
            ["smash", ent, *name],
            ["--json", "coring", ent, *name],
            ["no-such-command"],                # argparse error
            ["coring", ent, *name],
            ["catalog"],
        ]
        shared = [cli.run_command(list(argv)) for argv in commands]
        fresh = []
        for argv in commands:
            subparsers: dict = {}
            monkeypatch.setattr(cli, "_PARSER", cli.build_parser(subparsers))
            monkeypatch.setattr(cli, "_COMMANDS", subparsers)
            fresh.append(cli.run_command(list(argv)))
        assert shared == fresh
        assert [code for code, _ in shared] == [0, 0, 2, 0, 0, 0, 2, 0, 0]
        assert "row 0:" in shared[3][1] and "row 0:" not in shared[4][1]
