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
from entwine.exactlin import QQ
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
