"""Golden CLI outputs: exit code and report bytes of every catalog entry
through every subcommand that applies to it, plus one `rat` and one
`adjunction` input built from public constructors.

The expectations live in golden/cli_outputs.json.  Regenerate them only for
a deliberate change of output, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from entwine.catalog import catalog_get, catalog_names, free_flip_module
from entwine.cli import run_command
from entwine.document import document_from_objects, emit_document, parse_document
from entwine.doikoppinen import DKStructure, HCoextension, HExtension
from entwine.duality import dual_entwining, dual_module_r
from entwine.entwining import EntwinedModulePresentation, EntwiningPresentation
from entwine.exactlin import QQ, Matrix
from entwine.structures import (
    ModulePresentation,
    PairingPresentation,
    StructurePresentation,
    canonical_pairing,
    make_structure,
    module_from_coaction,
)

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"

SUBCOMMANDS = (
    (StructurePresentation, (("check",), ("dualize", "--name", "{name}"), ("antipode", "--name", "{name}"))),
    (EntwiningPresentation, (("check",), ("dualize", "--name", "{name}"),
                             ("smash", "--name", "{name}", "--table"), ("coring", "--name", "{name}"))),
    (EntwinedModulePresentation, (("check",),
                                  ("adjunction", "--entwining", "{entwining}", "--module", "{name}"))),
    (DKStructure, (("check",), ("dualize", "--name", "{name}"), ("dk", "--name", "{name}"))),
    (HExtension, (("check",), ("cleft", "--name", "{name}"))),
    (HCoextension, (("check",), ("cocleft", "--name", "{name}"))),
)

# --json is pinned on the entries of dimension at most 3; the dimension-4 and -5
# entries are pinned in text mode only, which keeps the test near ten seconds
TEXT_ONLY = ("f5c5", "sweedler4")


def _rat_objects():
    """Rat along sweedler4's evaluation pairing (left and right modules), and
    a pairing whose rational part is a proper subspace."""
    h = catalog_get("sweedler4")
    p = canonical_pairing(h)
    left = ModulePresentation(h.dim, p.algebra, module_from_coaction(p, h.comul, h.dim, "right"), "left")
    right = ModulePresentation(h.dim, p.algebra, module_from_coaction(p, h.comul, h.dim, "left"), "right")
    a = make_structure("algebra", QQ, 2, mul=[(0, 0, 0, 1), (1, 1, 1, 1)], unit=[1, 1])
    c = make_structure("coalgebra", QQ, 1, comul=[(0, 0, 0, 1)], counit=[1])
    q = PairingPresentation(a, c, Matrix.from_rows(QQ, [[QQ.one()], [QQ.zero()]]))
    proper = ModulePresentation(2, a, a.mul, "left")
    return {"h": h, "p": p, "m_left": left, "m_right": right, "a": a, "c": c, "q": q, "m_proper": proper}


def _adjunction_objects():
    """The free flip-entwined module qc2 (x) qc3 with its dual module given explicitly."""
    m = free_flip_module(catalog_get("qc2"), catalog_get("qc3"))
    k = dual_module_r(dual_entwining(m.entwining), m).module
    return {"e": m.entwining, "m": m, "dual_e": k.entwining, "k": k}


def cases(workdir: Path):
    """(key, argv) for every pinned command; documents are written into workdir."""
    def write(name: str, text: str) -> str:
        path = workdir / f"{name}.ent"
        path.write_text(text)
        return str(path)

    yield "catalog", ["catalog"]
    for name in catalog_names():
        yield f"catalog {name}", ["catalog", name]
        code, text = run_command(["catalog", name])
        if code != 0:
            continue
        path = write(name, text)
        resolved = parse_document(text).resolved
        entwining = next((n for n in sorted(resolved) if isinstance(resolved[n], EntwiningPresentation)), None)
        value = catalog_get(name)
        for cls, subs in SUBCOMMANDS:
            if isinstance(value, cls):
                for sub in subs:
                    args = [x.format(name=name, entwining=entwining) for x in sub[1:]]
                    yield f"{sub[0]} {name}", [sub[0], path, *args]
    path = write("rat", emit_document(document_from_objects(QQ, _rat_objects())))
    for pairing, module in (("p", "m_left"), ("p", "m_right"), ("q", "m_proper")):
        yield f"rat {module}", ["rat", path, "--pairing", pairing, "--module", module]
    path = write("adjunction", emit_document(document_from_objects(QQ, _adjunction_objects())))
    yield "adjunction free_flip_qc2_qc3", ["adjunction", path, "--entwining", "e", "--module", "m",
                                          "--dual-module", "k"]


def run_all(workdir: Path) -> dict:
    out = {}
    for key, argv in cases(workdir):
        code, text = run_command(argv)
        out[key] = {"code": code, "text": text}
        if not any(tag in key for tag in TEXT_ONLY):
            code, text = run_command(["--json", *argv])
            out[f"--json {key}"] = {"code": code, "text": text}
    return out


def test_cli_outputs_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = run_all(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"CLI output changed for: {changed}"


def test_smash_and_coring_build_nothing_they_do_not_print(tmp_path, monkeypatch):
    """With build_smash, build_coring and nu_iso raising, smash and coring print their golden lines on every catalog
    entwining; smash --table builds the ring once, with the real build_smash, and prints its golden table."""
    import entwine.cli as cli
    import entwine.entwining as entwining

    expected = json.loads(GOLDEN.read_text())
    build = entwining.build_smash

    def refuse(*_):
        raise AssertionError("built what the command does not print")

    for module in (cli, entwining):
        for name in ("build_smash", "build_coring", "nu_iso"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    names = [name for name in catalog_names() if isinstance(catalog_get(name), EntwiningPresentation)]
    assert len(names) == 11
    for name in names:
        path = tmp_path / f"{name}.ent"
        path.write_text(run_command(["catalog", name])[1])
        for prefix in ([], ["--json"]):
            key = " ".join([*prefix, "smash", name])
            if key not in expected:
                continue
            table = expected[key]
            smash = run_command([*prefix, "smash", str(path), "--name", name])
            if prefix:
                report = json.loads(table["text"])
                report["records"] = [r for r in report["records"] if not r.get("note", "").startswith("row ")]
                assert smash[0] == table["code"] and json.loads(smash[1]) == report, key
            else:
                text = "".join(line for line in table["text"].splitlines(True) if not line.startswith("row "))
                assert smash == (table["code"], text), key
            coring = " ".join([*prefix, "coring", name])
            assert run_command([*prefix, "coring", str(path), "--name", name]) == \
                (expected[coring]["code"], expected[coring]["text"]), coring
            built = []
            monkeypatch.setattr(cli, "build_smash", lambda e: built.append(e) or build(e))
            assert run_command([*prefix, "smash", str(path), "--name", name, "--table"]) == \
                (table["code"], table["text"]), key
            assert len(built) == 1, key
            monkeypatch.setattr(cli, "build_smash", refuse)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(run_all(Path(tmp)), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
