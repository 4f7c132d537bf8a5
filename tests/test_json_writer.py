"""document.canonical_json writes exactly what json.dumps(value, sort_keys=True, indent=2) writes.

A derandomized Hypothesis test draws arbitrary JSON values: nested and
empty dicts and lists, strings and keys with non-ASCII characters, quotes,
backslashes and control characters, bools, null, negative and large ints,
and floats (NaN and the infinities included).  Then every catalog export
and every --json record pinned in golden/cli_outputs.json is read back and
written again by both.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from entwine.catalog import catalog_names  # noqa: E402
from entwine.cli import run_command  # noqa: E402
from entwine.document import canonical_json  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"

# characters that json escapes, or writes as \uXXXX: quotes, backslashes, controls, DEL, non-ASCII, astral
TRICKY = st.sampled_from(['"', "\\", "/", "\x00", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f", "é", " ",
                          "\ud800", "\U0001f600"])
STRINGS = st.text(alphabet=st.characters() | TRICKY, max_size=8)
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
           | st.floats(allow_nan=True, allow_infinity=True) | STRINGS)
VALUES = st.recursive(SCALARS, lambda children: st.lists(children, max_size=4)
                      | st.dictionaries(STRINGS, children, max_size=4), max_leaves=24)


def stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(VALUES)
@example({})
@example([])
@example({"": {}, "a": [], "b": [[]], "c": {"d": {}}})
@example([True, False, None, -1, 0, 2**100, -0.0, 1e300, float("nan"), float("-inf")])
@example({"é\"\\\n": "\x00 \U0001f600", "A": "a", "a": "A"})
@example((1, ("x", {"k": (2,)})))
def test_the_writer_is_json_dumps(value):
    assert canonical_json(value) == stdlib(value)


def test_every_catalog_export_is_written_as_json_dumps_writes_it():
    exported = 0
    for name in catalog_names():
        code, text = run_command(["catalog", name])
        if code == 0:
            value = json.loads(text)
            assert text == canonical_json(value) + "\n" == stdlib(value) + "\n", name
            exported += 1
    assert exported == 35


def test_every_pinned_json_record_is_written_as_json_dumps_writes_it():
    records = {key: out["text"] for key, out in json.loads(GOLDEN.read_text()).items() if key.startswith("--json ")}
    assert len(records) == 92
    for key, text in records.items():
        value = json.loads(text)
        assert text == canonical_json(value) + "\n" == stdlib(value) + "\n", key
