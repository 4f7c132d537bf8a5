import dataclasses
import json
from pathlib import Path

import pytest

from entwine.exactlin import Matrix, PresentationError, QQ, Subspace
from entwine import catalog
from entwine.catalog import catalog_get, catalog_names
from entwine.structures import StructurePresentation, compute_antipode, verify_structure
from entwine.entwining import EntwinedModulePresentation, EntwiningPresentation, verify_entwining
from entwine.doikoppinen import DKStructure, verify_dk
from entwine.document import document_from_objects, emit_document
from entwine.cli import _field_of, run_command


def test_every_entry_verifies():
    for name in catalog_names():
        value = catalog_get(name)  # builders verify on construction
        assert value is not None


def _matrices(obj, seen):
    """Every Matrix reachable from a catalog value through dataclass fields and subspace bases."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Matrix):
        yield obj
    elif isinstance(obj, Subspace):
        yield obj.basis
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _matrices(getattr(obj, f.name), seen)


def test_rational_structure_constants_are_int():
    over_q = 0
    for name in catalog_names():
        for m in _matrices(catalog_get(name), set()):
            if m.field == QQ:
                over_q += 1
                assert all(type(x) is int for x in m.data), name
    assert over_q > 100


def test_unknown_name():
    with pytest.raises(PresentationError):
        catalog_get("nope")


def test_required_entries_present():
    names = set(catalog_names())
    required = {
        "trivial", "qc2", "qc3", "f5c5", "sweedler4",
        "qc2_dual", "qc3_dual", "f5c5_dual",
        "flip_qc2", "flip_qc3", "flip_f5c5", "flip_sweedler4",
        "dk_qc2", "dk_qc3", "dk_f5c5", "dk_sweedler4",
        "dk_long_qc2", "alt_qc2",
        "ext_qc2", "ext_sweedler4", "coext_qc2", "coext_sweedler4",
    }
    assert required <= names


def test_qc2_shape():
    h = catalog_get("qc2")
    assert h.kind == "hopf" and h.dim == 2
    assert verify_structure(None, h).passed


def test_sweedler_antipode_value():
    h = catalog_get("sweedler4")
    s = compute_antipode(h)
    assert s == h.antipode
    assert s.col(2) == (QQ.zero(), QQ.zero(), QQ.zero(), QQ.of(-1))


def test_trivial_entry():
    t = catalog_get("trivial")
    assert t.dim == 1 and t.kind == "bialgebra"


def test_descriptions_exist():
    for name in catalog_names():
        assert catalog._BUILDERS[name][0]


def test_the_listing_builds_nothing(monkeypatch):
    """entwine catalog prints the descriptions without building or verifying an entry."""
    monkeypatch.setattr(catalog, "_CACHE", {})
    code, text = run_command(["catalog"])
    assert catalog._CACHE == {}
    golden = json.loads((Path(__file__).parent / "golden" / "cli_outputs.json").read_text())
    assert {"code": code, "text": text} == golden["catalog"]


def test_emission_byte_stable():
    for name in ("qc2", "sweedler4", "dk_qc2", "hopfmod_qc2", "ext_qc2", "coext_qc2",
                 "flip_f5c5", "alt_qc2_entwining"):
        value = catalog_get(name)
        field = _field_of(value)
        one = emit_document(document_from_objects(field, {name: value}))
        two = emit_document(document_from_objects(field, {name: value}))
        assert one == two


def test_catalog_objects_cached():
    assert catalog_get("qc2") is catalog_get("qc2")


def test_no_natural_basis_law_reads_sliced(tmp_path, monkeypatch):
    """Every command the goldens run, on every catalog export and on the two documents they add, reads its laws
    sparsely: the catalog's natural bases give sparse structure maps, and the sliced reader (exactlin._sliced) is for
    dense ones.  Hundreds of those laws are over F_p on blocks of _SLICED_VECTORS vectors or more, where density
    decides."""
    from entwine import exactlin
    from test_golden_cli import cases

    staged = []
    stages = exactlin._stages
    monkeypatch.setattr(exactlin, "_stages", lambda *args: staged.append((args[2], stages(*args))) or staged[-1][1])
    for _, argv in cases(tmp_path):
        run_command(argv)
    assert sum(1 for count, (p, _, _, step) in staged
               if p is not None and min(count, step) >= exactlin._SLICED_VECTORS) >= 200
    assert not [size for _, (_, _, size, _) in staged if size is not None]
