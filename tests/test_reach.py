"""The reach gate: the golden CLI commands call every function and method defined in src/entwine, but a few.

Every command of golden/cli_outputs.json and of
golden/bumped_dk_outputs.json (Doi-Koppinen triples that fail a law, so
their witnesses are read and rendered) runs in process under
sys.setprofile, which records the code object of each Python call; the
documents they read are written before the recording starts.  One more
parser is built (cli.build_parser) and one golden command runs through
the entry point (cli.main), which must write its golden bytes and exit
with its golden code.  Each
top-level function of a package module, and each method of its top-level
classes, dunder methods aside, must be among them, except the names in
UNCALLED.  A definition is matched by its file and first line (its first
decorator's, if any), as its code object records them.  The catalog and the
functools caches of the package are emptied first, so what an earlier test
built or cached is built again and the result does not depend on test order.
"""

from __future__ import annotations

import ast
import io
import json
import sys
from pathlib import Path
from unittest import mock

from entwine.cli import build_parser, main, run_command
import test_bumped_dk_cli
from test_golden_cli import GOLDEN, TEXT_ONLY, cases

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "entwine"

# definitions that no golden command calls; this set may only shrink
UNCALLED = frozenset({
    "document._parse_scalar",
    "doikoppinen.comodule_algebra_to_module_algebra", "doikoppinen.comodule_coalgebra_to_dual_module_algebra",
    "doikoppinen.comodule_coalgebra_to_module_coalgebra", "doikoppinen.dualize_coextension",
    "doikoppinen.dualize_dk_ingredient", "doikoppinen.koppinen_smash", "doikoppinen.koppinen_table",
    "doikoppinen.module_algebra_to_comodule_algebra", "doikoppinen.module_algebra_to_dual_module",
    "doikoppinen.module_coalgebra_to_dual_module_algebra", "doikoppinen.verify_dk_morphism",
    "duality.DualModule.dim", "duality.double_dual_comparison", "duality.dual_entwining_morphism",
    "duality.restrict_dual_algebra", "duality.restrict_dual_coalgebra",
    "entwining.CoringPresentation.field", "entwining.SmashRing.field", "entwining.build_coring",
    "entwining.build_smash", "entwining.entwined_to_smash_module", "entwining.entwining_morphism_rows",
    "entwining.nu_iso", "entwining.smash_module_to_entwined", "entwining.smash_unit_embedding",
    "entwining.twisted_left_action", "entwining.verify_entwining_morphism",
    "exactlin.Matrix.basis_column", "exactlin.Matrix.data", "exactlin.Matrix.is_zero", "exactlin.Matrix.vstack",
    "exactlin.PrimeField.add", "exactlin.PrimeField.is_zero", "exactlin.PrimeField.mul", "exactlin.PrimeField.parse",
    "exactlin.PrimeField.sub", "exactlin.Subspace.add", "exactlin.Subspace.annihilator_matrix",
    "exactlin.Subspace.contains", "exactlin.Subspace.from_spanning", "exactlin.Subspace.full",
    "exactlin.Subspace.intersect", "exactlin._byte_tables", "exactlin._residues", "exactlin._sliced",
    "exactlin.invert", "exactlin.preimage", "report.Report.detail",
    "structures._algebra_morphism_laws", "structures._coalgebra_morphism_laws", "structures._dualize_module",
    "structures.algebra_morphism_report", "structures.bialgebra_morphism_report", "structures.check_adjoint_pair",
    "structures.canonical_pairing", "structures.coaction_to_dual_action", "structures.coalgebra_morphism_report",
    "structures.convolution", "structures.default_labels", "structures.module_from_coaction",
    "structures.pairing_action",
})


def definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.name of each top-level function and non-dunder method of a top-level class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            named = [(node, node.name)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                named += [(m, f"{node.name}.{m.name}") for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
            for fn, name in named:
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                found[(str(path), first)] = f"{path.stem}.{name}"
    return found


def test_golden_commands_reach_every_definition(tmp_path, monkeypatch):
    from entwine import catalog

    commands = []   # the golden keys' argv, documents written first, outside the recording
    golden, entry = json.loads(GOLDEN.read_text()), "check sweedler4"   # entry also runs through cli.main
    for key, argv in cases(tmp_path):
        commands.append(argv)
        if not any(tag in key for tag in TEXT_ONLY):
            commands.append(["--json", *argv])
        if key == entry:
            entry_argv = ["entwine", *argv]
    assert len(commands) == len(golden)
    bumped = [argv for _, argv in test_bumped_dk_cli.cases(tmp_path)]
    assert len(bumped) == len(json.loads(test_bumped_dk_cli.GOLDEN.read_text()))
    commands += bumped
    monkeypatch.setattr(catalog, "_CACHE", {})
    for name, module in list(sys.modules.items()):
        if name.startswith("entwine"):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    stdout = io.StringIO()
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for argv in commands:
            run_command(argv)
        build_parser({})
        with mock.patch.object(sys, "argv", entry_argv), mock.patch.object(sys, "stdout", stdout):
            try:
                main()
            except SystemExit as exc:
                exit_code = exc.code
    finally:
        sys.setprofile(previous)
    assert (exit_code, stdout.getvalue()) == (golden[entry]["code"], golden[entry]["text"])
    reached = {(code.co_filename, code.co_firstlineno) for code in called}
    defined = definitions()
    uncalled = {name for at, name in defined.items() if at not in reached}
    assert not UNCALLED - set(defined.values()), f"no longer defined: {sorted(UNCALLED - set(defined.values()))}"
    assert not UNCALLED - uncalled, f"now called, take them off UNCALLED: {sorted(UNCALLED - uncalled)}"
    assert not uncalled - UNCALLED, f"defined but called by no golden command: {sorted(uncalled - UNCALLED)}"
