"""The command line is total: a mutated catalog export gives exit 0, 1 or 2, never a traceback.

Each example takes the document that `entwine catalog <name>` writes,
applies one to three mutations anywhere in it, and runs one subcommand
on it in-process through cli.run_command, as text or --json: check, or a
command of cli.COMMAND_TABLE whose one input, --name, accepts the entry's
type.  The mutations delete a key or a list entry, replace a value by
null, a bool, a float, a string or an empty container, write a malformed
quadruple, shift a number (an index, a dim, a modulus or an integer
scalar) by -1, +1 or +2, or add a key that no object type reads.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from entwine.catalog import catalog_names  # noqa: E402
from entwine.cli import COMMAND_TABLE, run_command  # noqa: E402
from entwine.document import TYPES  # noqa: E402

# per document type, the commands of cli.COMMAND_TABLE whose one input is --name and accepts that type, in table order
COMMANDS = {kind: tuple(name for name, row in COMMAND_TABLE.items()
                        if [i.option for i in row.inputs] == ["--name"] and issubclass(t.cls, row.inputs[0].accepts))
            for kind, t in TYPES.items()}
# as JSON text, so each replacement is a new value and no two places share a container
REPLACEMENTS = ("null", "true", "false", "0.5", "-1.0", '"x"', '"1/0"', '""', "[]", "{}")
BAD_QUADS = ([0, 0, 0], [0, 0, 0, "1", 0], [-1, 0, 0, "1"], [0, 0, 99, "1"], ["0", 0, 0, "1"],
             [0, 0, 0, "one"], [0, 0, 0, None], [0.5, 0, 0, "1"], [True, 0, 0, "1"])


def _exports() -> dict:
    """Every catalog entry that the catalog command can write, as its document text."""
    out = {}
    for name in catalog_names():
        code, text = run_command(["catalog", name])
        if code == 0:
            out[name] = text
    return out


EXPORTS = _exports()


def _nodes(value, path=()):
    """(path, value) for the document and every value inside it."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _nodes(inner, (*path, key))


def _is_number(value) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)) or \
        (isinstance(value, str) and value.lstrip("-").isdigit())


def _is_quad(value) -> bool:
    return isinstance(value, list) and len(value) == 4 and all(_is_number(v) for v in value[:3])


@st.composite
def commands(draw):
    """A subcommand that applies to a catalog entry, and the entry's export with one to three mutations."""
    name = draw(st.sampled_from(sorted(EXPORTS)))
    doc = json.loads(EXPORTS[name])
    command = draw(st.sampled_from(("check", *COMMANDS[doc["objects"][name]["type"]])))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        kind = draw(st.sampled_from(("delete", "replace", "bad quadruple", "shift", "unknown key")))
        wanted = {"bad quadruple": _is_quad, "shift": _is_number,
                  "unknown key": lambda v: isinstance(v, dict)}.get(kind, lambda v: True)
        candidates = [(path, value) for path, value in nodes if wanted(value) and (path or kind == "unknown key")]
        if not candidates:
            continue
        path, value = draw(st.sampled_from(candidates))
        if kind == "unknown key":
            value["bogus"] = json.loads(draw(st.sampled_from(REPLACEMENTS)))
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "replace":
            parent[path[-1]] = json.loads(draw(st.sampled_from(REPLACEMENTS)))
        elif kind == "bad quadruple":
            parent[path[-1]] = list(draw(st.sampled_from(BAD_QUADS)))
        else:
            shifted = int(value) + draw(st.sampled_from((-1, 1, 2)))
            parent[path[-1]] = shifted if isinstance(value, int) else str(shifted)
    return command, name, doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("total")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(commands(), st.booleans())
def test_every_mutated_export_exits_0_1_or_2(workdir, case, as_json):
    command, name, doc = case
    path = workdir / "mutated.ent"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] + ([] if command == "check" else ["--name", name])
    code, _ = run_command(["--json", *argv] if as_json else argv)
    assert code in (0, 1, 2)
