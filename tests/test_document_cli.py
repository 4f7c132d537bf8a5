import json

import pytest

from entwine.document import (
    Document,
    ParseError,
    document_from_objects,
    emit_document,
    parse_document,
)
from entwine.cli import run_command
from entwine.catalog import catalog_get
from entwine.exactlin import Matrix, QQ
from entwine.structures import StructurePresentation


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
        from entwine.structures import action_from_triples, coaction_from_triples

        qc2, trivial = catalog_get("qc2"), catalog_get("trivial")
        m = EntwinedModulePresentation(flip_entwining(qc2, trivial), 1,
                                       action_from_triples(QQ, 1, 2, [(0, 0, 0, 1), (0, 1, 0, 1)]),
                                       coaction_from_triples(QQ, 1, 1, [(0, 0, 0, 1)]))
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

    def test_dk_verifies_each_triple_once(self, tmp_path, monkeypatch):
        import entwine.cli
        import entwine.doikoppinen as dk

        path = write(tmp_path, "dk.ent", catalog_doc("dk_qc2"))
        calls = {"verify_dk": 0, "dk_entwining": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            wrapped = counting(name, getattr(dk, name))
            monkeypatch.setattr(dk, name, wrapped)
            monkeypatch.setattr(entwine.cli, name, wrapped)
        code, text = run_command(["dk", path, "--name", "dk_qc2"])
        assert code == 0, text
        # the triple and its dual, each verified once and each giving one entwining
        assert calls == {"verify_dk": 2, "dk_entwining": 2}

    def test_cleft_cocleft(self, tmp_path):
        path = write(tmp_path, "ext.ent", catalog_doc("ext_qc2"))
        code, text = run_command(["cleft", path, "--name", "ext_qc2"])
        assert code == 0
        assert "cleft=True" in text
        path = write(tmp_path, "coext.ent", catalog_doc("coext_qc2"))
        code, text = run_command(["cocleft", path, "--name", "coext_qc2"])
        assert code == 0
        assert "cocleft=True" in text

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
        assert "input error" in text and "does not match the pairing" in text

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
        """Commands run in a row through the shared parser answer as fresh parsers do."""
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
            monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            fresh.append(cli.run_command(list(argv)))
        assert shared == fresh
        assert [code for code, _ in shared] == [0, 0, 2, 0, 0, 0, 2, 0, 0]
        assert "row 0:" in shared[3][1] and "row 0:" not in shared[4][1]
