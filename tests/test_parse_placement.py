"""Documents parse straight into stored rows, and a bad value still names its JSON path.

matrix_from_quads places each quadruple once, at the entry that
permute() would carry Q[i, j, k] to; a Hypothesis oracle compares it, for
all six QUAD_LAYOUTS, with the long way (conftest.quads_by_permute): Q
laid out, then permuted.  quads_from_matrix, its inverse, is compared the
same way with the matrix permuted back to Q (conftest.quads_by_transpose).
Documents over F_p are drawn as well, with canonical scalars at 0, p - 1
and between and repeats that sum past p, placed by the parser in every
layout's place.  The parser checks each value with one fast test
(a memoised canonical literal over Q, an int in [0, p) over F_p) and, when
one fails, reads the input again with the full checks; the last tests pin
the path and message of every kind of value that leaves a fast check.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import quads_by_permute, quads_by_transpose  # noqa: E402
from entwine.catalog import catalog_names  # noqa: E402
from entwine.cli import run_command  # noqa: E402
from entwine.document import ParseError, emit_document, parse_document  # noqa: E402
from entwine.exactlin import QQ, Field  # noqa: E402
from entwine.structures import QUAD_LAYOUTS, matrix_from_quads, quads_from_matrix  # noqa: E402

FIELDS = (QQ, Field(2), Field(7))
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def placements(draw):
    """(field, dims, quads): dims from 0 to 3, quads with repeats and cancelling pairs, in any order."""
    field = draw(st.sampled_from(FIELDS))
    dims = tuple(draw(st.integers(0, 3)) for _ in range(3))
    if 0 in dims:
        return field, dims, []
    if field.p is None:   # ints, whole Fractions and proper ones
        scalar = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:                 # any int, reduced mod p by both routes
        scalar = st.integers(-2 * field.p, 2 * field.p)
    index = st.tuples(*(st.integers(0, d - 1) for d in dims))
    quads = [(*ijk, c) for ijk, c in draw(st.lists(st.tuples(index, scalar), max_size=8))]
    if quads:
        quads += draw(st.lists(st.sampled_from(quads), max_size=3))
        quads += [(i, j, k, -c) for i, j, k, c in draw(st.lists(st.sampled_from(quads), max_size=3))]
    return field, dims, draw(st.permutations(quads))


@pytest.mark.parametrize("layout", sorted(QUAD_LAYOUTS))
@SETTINGS
@given(placements())
@example((QQ, (1, 1, 1), [(0, 0, 0, 1), (0, 0, 0, -1)]))
@example((Field(7), (2, 1, 3), [(1, 0, 2, 3), (1, 0, 2, 4), (0, 0, 1, 9)]))
@example((QQ, (2, 3, 2), [(1, 2, 0, Fraction(1, 2)), (1, 2, 0, Fraction(1, 2)), (0, 1, 1, Fraction(-2, 3))]))
def test_placement_matches_the_permuted_tensor(layout, case):
    field, dims, quads = case
    assert matrix_from_quads(field, layout, dims, quads) == quads_by_permute(field, layout, dims, quads)


@pytest.mark.parametrize("layout", sorted(QUAD_LAYOUTS))
@SETTINGS
@given(placements())
@example((Field(7), (2, 1, 3), [(1, 0, 2, 3), (0, 0, 1, 9), (1, 0, 0, 1)]))
def test_quadruples_are_read_back_in_order(layout, case):
    """quads_from_matrix decodes each stored entry from the layout's strides: the sorted quadruples of the
    matrix permuted back to Q, which matrix_from_quads places again at the same entries."""
    field, dims, quads = case
    m = matrix_from_quads(field, layout, dims, quads)
    got = quads_from_matrix(m, layout, dims)
    assert got == quads_by_transpose(m, layout, dims)
    assert matrix_from_quads(field, layout, dims, got) == m


PRIME_FIELDS = (Field(2), Field(5), Field(7))


@st.composite
def prime_field_documents(draw, layout: str):
    """(field, dims, quads, body): quadruples in canonical F_p scalars, at 0 and p - 1 and between, with repeats
    that sum past p, written where a document places them by the layout: a structure's mul or comul, or a
    module's action or coaction on its side.  The structures are an algebra a and a coalgebra c of dim d, the
    module m of dim n; their other constants are zero."""
    field = draw(st.sampled_from(PRIME_FIELDS))
    p, d, n = field.p, draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dims = {"mul": (d, d, d), "comul": (d, d, d)}.get(layout) or \
        ((n, d, n) if layout.endswith("-action") else (n, n, d))
    index = st.tuples(*(st.integers(0, b - 1) for b in dims))
    scalar = st.sampled_from((0, p - 1)) | st.integers(0, p - 1)
    quads = [[*ijk, c] for ijk, c in draw(st.lists(st.tuples(index, scalar), max_size=8))]
    if quads:   # repeats of the largest scalar sum past p
        quads += [[*q[:3], p - 1] for q in draw(st.lists(st.sampled_from(quads), max_size=4))]
    quads = draw(st.permutations(quads))
    objects = {
        "a": {"type": "structure", "kind": "algebra", "dim": d,
              "mul": quads if layout == "mul" else [], "unit": [0] * d},
        "c": {"type": "structure", "kind": "coalgebra", "dim": d,
              "comul": quads if layout == "comul" else [], "counit": [0] * d},
    }
    if layout not in ("mul", "comul"):
        side, key = layout.split("-")
        objects["m"] = {"type": "module", "dim": n,
                        key: {"structure": "a" if key == "action" else "c", "side": side, "triples": quads}}
    return field, dims, [tuple(q) for q in quads], {"version": 1, "field": {"p": p}, "objects": objects}


@pytest.mark.parametrize("layout", sorted(QUAD_LAYOUTS))
@settings(SETTINGS, max_examples=80)
@given(data=st.data())
def test_prime_field_documents_place_their_quadruples(layout, data):
    """The parser places canonical F_p quadruples at the entries permute() carries them to, repeats summed mod p."""
    field, dims, quads, body = data.draw(prime_field_documents(layout))
    doc = parse_document(json.dumps(body))
    if layout in ("mul", "comul"):
        got = getattr(doc.resolved["a" if layout == "mul" else "c"], layout)
    else:
        got = getattr(doc.resolved["m"], layout.split("-")[1])
    assert got == quads_by_permute(field, layout, dims, quads)


def test_catalog_documents_parse_and_emit_byte_identical():
    exported = 0
    for name in catalog_names():
        code, text = run_command(["catalog", name])
        if code == 0:
            assert emit_document(parse_document(text)) == text, name
            exported += 1
    assert exported >= 30


def _doc(field) -> dict:
    """An algebra of dim 2, a coalgebra of dim 1 and a pairing with a dense 2 x 1 matrix."""
    one, zero = ("1", "0") if field == "Q" else (1, 0)
    return {"version": 1, "field": field, "objects": {
        "a": {"type": "structure", "kind": "algebra", "dim": 2,
              "mul": [[0, 0, 0, one], [1, 1, 1, one]], "unit": [one, one]},
        "c": {"type": "structure", "kind": "coalgebra", "dim": 1, "comul": [[0, 0, 0, one]], "counit": [one]},
        "p": {"type": "pairing", "algebra": "a", "coalgebra": "c", "matrix": [[one], [zero]]}}}


def _with(field, path, value) -> str:
    body = copy.deepcopy(_doc(field))
    *parents, last = path
    node = body["objects"]
    for key in parents:
        node = node[key]
    node[last] = value
    return json.dumps(body)


FALLBACKS = [
    # a bool scalar over F_p, in a vector, a quadruple and a dense row
    ({"p": 5}, ("a", "unit", 0), True, "objects.a.unit[0]", "prime-field scalar must be an integer in [0, 5), got True"),
    ({"p": 5}, ("a", "mul", 1, 3), False, "objects.a.mul[1]",
     "prime-field scalar must be an integer in [0, 5), got False"),
    ({"p": 5}, ("p", "matrix", 1, 0), True, "objects.p.matrix[1][0]",
     "prime-field scalar must be an integer in [0, 5), got True"),
    ({"p": 5}, ("c", "counit", 0), 5, "objects.c.counit[0]", "prime-field scalar must be an integer in [0, 5), got 5"),
    ({"p": 5}, ("a", "mul", 0, 3), "1", "objects.a.mul[0]", "prime-field scalar must be an integer in [0, 5), got '1'"),
    # non-canonical literals over Q, in each place a scalar can stand
    ("Q", ("a", "mul", 1, 3), "2/4", "objects.a.mul[1]", "non-canonical rational literal '2/4'"),
    ("Q", ("a", "unit", 1), "+1", "objects.a.unit[1]", "non-canonical rational literal '+1'"),
    ("Q", ("p", "matrix", 0, 0), "2/4", "objects.p.matrix[0][0]", "non-canonical rational literal '2/4'"),
    ("Q", ("c", "counit", 0), "+1", "objects.c.counit[0]", "non-canonical rational literal '+1'"),
    ("Q", ("a", "mul", 0, 3), "1/0", "objects.a.mul[0]", "bad rational literal '1/0'"),
    ("Q", ("a", "unit", 0), 1, "objects.a.unit[0]", "rational scalar must be a string, got 1"),
    ("Q", ("a", "unit", 0), ["1"], "objects.a.unit[0]", "rational scalar must be a string, got ['1']"),
    # a bool as an index, at each position
    ("Q", ("a", "mul", 1, 0), True, "objects.a.mul[1]", "first index True out of range [0, 2)"),
    ("Q", ("a", "mul", 1, 1), False, "objects.a.mul[1]", "second index False out of range [0, 2)"),
    ({"p": 5}, ("c", "comul", 0, 2), False, "objects.c.comul[0]", "third index False out of range [0, 1)"),
    # a ragged dense row
    ("Q", ("p", "matrix", 1), ["0", "0"], "objects.p.matrix[1]", "expected 1 entries"),
    ({"p": 5}, ("p", "matrix", 0), [], "objects.p.matrix[0]", "expected 1 entries"),
    # a quadruple that is no list of four
    ("Q", ("a", "mul", 1), "0001", "objects.a.mul[1]", "expected [i, j, k, scalar]"),
    ("Q", ("a", "mul", 0), {"i": 0, "j": 0, "k": 0, "c": "1"}, "objects.a.mul[0]", "expected [i, j, k, scalar]"),
    ({"p": 5}, ("c", "comul", 0), [0, 0, 0], "objects.c.comul[0]", "expected [i, j, k, scalar]"),
]


@pytest.mark.parametrize("field, where, value, path, message", FALLBACKS,
                         ids=[f"{json.dumps(f)}-{'.'.join(map(str, w))}={json.dumps(v)}"
                              for f, w, v, *_ in FALLBACKS])
def test_a_value_that_leaves_a_fast_check_names_its_path(field, where, value, path, message):
    with pytest.raises(ParseError) as exc:
        parse_document(_with(field, where, value))
    assert (exc.value.path, str(exc.value)) == (path, f"{path}: {message}")


def test_a_literal_seen_before_is_checked_again_where_it_is_bad():
    # "1" is read and kept first; "01" and "1.0" are other strings, and each is refused at its own path
    for bad in ("01", "1.0"):
        with pytest.raises(ParseError) as exc:
            parse_document(_with("Q", ("p", "matrix", 1, 0), bad))
        assert str(exc.value) == f"objects.p.matrix[1][0]: non-canonical rational literal {bad!r}"


def test_the_fast_checks_accept_what_the_full_checks_accept():
    for field in ("Q", {"p": 5}):
        doc = parse_document(json.dumps(_doc(field)))
        assert emit_document(doc) == emit_document(parse_document(emit_document(doc)))
        assert doc.resolved["a"].mul.render() == "[1, 0, 0, 0; 0, 0, 0, 1]"
