"""Pinned CLI outputs of `dk` and `dualize` on Doi-Koppinen triples that fail verify_dk.

Each triple is a catalog Hopf-module triple with +1 on entry (0, 0) of one
structure map: H's multiplication, A's multiplication, C's
comultiplication, the coaction on A or the action on C. Both commands must
name the failing part with its witness, in text and with --json, and exit 1.

The expectations live in golden/bumped_dk_outputs.json.  Regenerate them only
for a deliberate change of output, and say so in CHANGES.md:

    PYTHONPATH=src:tests python tests/test_bumped_dk_cli.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from entwine.catalog import catalog_get
from entwine.cli import run_command
from entwine.document import document_from_objects, emit_document
from conftest import corrupt

GOLDEN = Path(__file__).parent / "golden" / "bumped_dk_outputs.json"

# (label, part of the triple holding the map or None for the triple itself, the map)
BUMPS = (
    ("H", "h", "mul"),
    ("A", "alg", "mul"),
    ("C", "coalg", "comul"),
    ("coaction", None, "alg_coaction"),
    ("action", None, "coalg_action"),
)


def bumped(name: str, part: str | None, attr: str):
    s = catalog_get(name)
    if part is None:
        return replace(s, **{attr: corrupt(getattr(s, attr), 0, 0)})
    x = getattr(s, part)
    return replace(s, **{part: replace(x, **{attr: corrupt(getattr(x, attr), 0, 0)})})


def cases(workdir: Path):
    """(golden key, argv) of every command, each document written to workdir before its commands are yielded."""
    for name in ("dk_qc2", "dk_sweedler4"):
        for label, part, attr in BUMPS:
            s = bumped(name, part, attr)
            path = workdir / f"{name}-{label}.ent"
            path.write_text(emit_document(document_from_objects(s.field, {"t": s})))
            for cmd in ("dk", "dualize"):
                for mode in ((), ("--json",)):
                    yield " ".join((*mode, cmd, name, label)), [*mode, cmd, str(path), "--name", "t"]


def run_all(workdir: Path) -> dict:
    out = {}
    for key, argv in cases(workdir):
        code, text = run_command(argv)
        out[key] = {"code": code, "text": text}
    return out


def test_bumped_triples_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = run_all(tmp_path)
    assert sorted(got) == sorted(expected)
    assert all(v["code"] == 1 for v in got.values())
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"CLI output changed for: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(run_all(Path(tmp)), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
