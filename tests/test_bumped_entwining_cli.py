"""`dualize` and `adjunction` verify an entwining before they build its dual.

Every catalog entwining, as it is and with seeded +1 bumps of A's
multiplication and unit, C's comultiplication and counit, and psi, goes
through `check`, `dualize` and `adjunction` (on the zero module, a module
over every entwining).  `dualize` and `adjunction` exit 1 exactly when
`check` fails the entwining, and their error line is then check's verdict
on it, the input's law; otherwise they exit 0.
"""

from __future__ import annotations

import random

from entwine.catalog import catalog_get, catalog_names
from entwine.cli import run_command
from entwine.document import document_from_objects, emit_document
from entwine.entwining import EntwinedModulePresentation, EntwiningPresentation
from entwine.exactlin import Matrix
from test_implied_rows import ENTWINING_MAPS, bump_part


def test_dualize_and_adjunction_exit_1_exactly_when_check_fails_the_entwining(tmp_path):
    rng = random.Random("bumped entwinings")
    entwinings = [catalog_get(name) for name in catalog_names()]
    entwinings = [e for e in entwinings if isinstance(e, EntwiningPresentation)]
    assert len(entwinings) == 11
    verdicts = []
    for i, e in enumerate(entwinings):
        bumped = [bump_part(e, part, attr, rng) for part, attr in ENTWINING_MAPS for _ in range(4)]
        for j, bad in enumerate([e, *bumped]):
            zero = EntwinedModulePresentation(bad, 0, Matrix(bad.field, 0, 0, []), Matrix(bad.field, 0, 0, []))
            path = tmp_path / f"{i}-{j}.ent"
            path.write_text(emit_document(document_from_objects(bad.field, {"e": bad, "m": zero})))
            verdict = next(line for line in run_command(["check", str(path)])[1].splitlines()
                           if line.startswith("e: "))[len("e: "):]
            passed = verdict == "verify_entwining: PASS"
            code, text = run_command(["dualize", str(path), "--name", "e"])
            if passed:
                assert code == 0 and text.startswith("e: verify_entwining: PASS\n"), (i, j, text)
            else:
                assert (code, text) == (1, f"error: {verdict}\n"), (i, j)
            code, text = run_command(["adjunction", str(path), "--entwining", "e", "--module", "m"])
            assert (code, text) == ((0, "m: adjunction_check: PASS hom_dim=0\n") if passed
                                    else (1, f"error: {verdict}\n")), (i, j)
            verdicts.append(passed)
    assert len(verdicts) == 231 and 11 <= sum(verdicts) < len(verdicts)
