"""The same-output sweep: every catalog export, and seeded bumps of it, through every command that can read it.

Each of the 35 documents that `entwine catalog <name>` writes goes in as
it is and with 12 bumps, each +1 on one scalar of one structure map (a
quadruple's scalar, a unit or counit coefficient, or an entry of a dense
matrix), chosen by a generator seeded with the entry's name: 455
documents.  Each runs through every command of cli.COMMAND_TABLE that its
objects can fill, as text and with --json: check; each command with one
input on every object of a type it reads; smash with and without --table;
and adjunction on every entwining and entwined module, without
--dual-module and with each entwined module as it.  A bump keeps every
object's type, so the commands are read off the unbumped export.

`rat` is pinned by the goldens alone (golden/cli_outputs.json): it reads
a pairing and a module, and no catalog export holds both.

Each output, its exit code and its bytes, is pinned by a 12-digit sha256
prefix in golden/same_output.json, by document and argv (the document's
path left out).  Regenerate it only for a deliberate change of output, and
say so in CHANGES.md:

    PYTHONPATH=src:tests python tests/test_same_output.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from fractions import Fraction
from itertools import product
from pathlib import Path

from entwine.catalog import catalog_names
from entwine.cli import COMMAND_TABLE, run_command
from entwine.document import TYPES

GOLDEN = Path(__file__).parent / "golden" / "same_output.json"
BUMPS = 12
QUADS = ("mul", "comul", "action", "coaction")   # a list of quadruples, or a module's block that holds one
DENSE = ("antipode", "psi", "matrix", "integral", "cointegral")
VECTORS = ("unit", "counit")


def _scalars(objects: dict) -> list[tuple]:
    """The path of every scalar of every structure map of a document's objects, in document order."""
    out = []
    for name, body in objects.items():
        for key, value in body.items():
            if key in QUADS:
                triples = value["triples"] if isinstance(value, dict) else value
                inner = (key, "triples") if isinstance(value, dict) else (key,)
                out += [(name, *inner, t, 3) for t in range(len(triples))]
            elif key in DENSE:
                out += [(name, key, i, j) for i, row in enumerate(value) for j in range(len(row))]
            elif key in VECTORS:
                out += [(name, key, i) for i in range(len(value))]
    return out


def documents():
    """(key, document text) of every export, then of each of its bumps, keyed by its number and its place."""
    for name in catalog_names():
        code, text = run_command(["catalog", name])
        if code != 0:
            continue
        yield name, text
        doc = json.loads(text)
        p = doc["field"]["p"] if isinstance(doc["field"], dict) else None
        for b, path in enumerate(random.Random(f"same output {name}").choices(_scalars(doc["objects"]), k=BUMPS)):
            bumped = json.loads(text)
            holder = bumped["objects"]
            for key in path[:-1]:
                holder = holder[key]
            x = holder[path[-1]]
            holder[path[-1]] = (x + 1) % p if p is not None else str(Fraction(x) + 1)
            yield f"{name} bump {b}: +1 at {'.'.join(map(str, path))}", json.dumps(bumped)


def commands(objects: dict) -> list[list[str]]:
    """The argv, without the document, of every command of the table that the objects can fill."""
    cls = {name: TYPES[body["type"]].cls for name, body in objects.items()}
    entwined = [name for name in sorted(objects) if objects[name]["type"] == "entwined_module"]
    extras = {"smash": [["--table"]], "adjunction": [["--dual-module", k] for k in entwined]}
    out = []
    for command, row in COMMAND_TABLE.items():
        fits = [[name for name in sorted(cls) if issubclass(cls[name], i.accepts)] for i in row.inputs]
        for names in product(*fits):
            argv = [command, *(x for i, name in zip(row.inputs, names) for x in (i.option, name))]
            out += [argv] + [argv + extra for extra in extras.get(command, [])]
    return out


def digest(code: int, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:12]


def run_all(workdir: Path) -> dict:
    """{document key: {argv: digest}} of every command, as text and with --json."""
    out = {}
    plain = {}
    for key, text in documents():
        name = key.split(" ")[0]
        if name not in plain:
            plain[name] = commands(json.loads(text)["objects"])
        path = workdir / "doc.ent"
        path.write_text(text)
        out[key] = {" ".join(mode + argv): digest(*run_command([*mode, argv[0], str(path), *argv[1:]]))
                    for argv in plain[name] for mode in ([], ["--json"])}
    return out


def test_every_output_is_pinned(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = run_all(tmp_path)
    assert sorted(got) == sorted(expected)
    for key in expected:
        for argv, pinned in expected[key].items():
            if got[key].get(argv) != pinned:
                path = tmp_path / "doc.ent"
                path.write_text(dict(documents())[key])
                words = argv.split(" ")
                mode, words = (words[:1], words[1:]) if words[0] == "--json" else ([], words)
                code, text = run_command([*mode, words[0], str(path), *words[1:]])
                raise AssertionError(f"{key}: {argv}: exit {code}, now\n{text}")
        assert sorted(got[key]) == sorted(expected[key]), key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(run_all(Path(tmp)), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
