"""cli.COMMAND_TABLE names what each document command reads, and the goldens and the errors follow it.

Every command of the table runs on some golden argv, and every golden argv
runs a command of the table or catalog, the one command that reads no
document.  For each object a row reads, and for adjunction's optional
--dual-module, a document whose named object has another type exits 2
with the words each command has always used; when several inputs are
wrong, the first in row order is named.
"""

from __future__ import annotations

import pytest

from entwine.cli import COMMAND_TABLE, run_command
from entwine.document import document_from_objects, emit_document
from entwine.exactlin import QQ
from test_golden_cli import _adjunction_objects, _rat_objects, cases

# (command, option) -> the command's words for an object of a type it does not read
NOT_READ = {
    ("dualize", "--name"): "dualizable from the command line",
    ("smash", "--name"): "a entwining",
    ("coring", "--name"): "a entwining",
    ("antipode", "--name"): "a structure",
    ("rat", "--pairing"): "a pairing",
    ("rat", "--module"): "a module",
    ("adjunction", "--entwining"): "a entwining",
    ("adjunction", "--module"): "a entwined module",
    ("adjunction", "--dual-module"): "a entwined module",
    ("dk", "--name"): "a Doi-Koppinen structure",
    ("cleft", "--name"): "a extension",
    ("cocleft", "--name"): "a coextension",
}
# the rat and adjunction objects of the goldens in one document, and a right one for each input
READ = {"--pairing": "p", "--module": "m_left", "--entwining": "e", "--dual-module": "k"}
ADJUNCTION_MODULE = "m"


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "doc.ent"
    path.write_text(emit_document(document_from_objects(QQ, {**_rat_objects(), **_adjunction_objects()})))
    return str(path)


def test_every_table_command_runs_in_the_goldens(tmp_path):
    named = {argv[0] for _, argv in cases(tmp_path)}
    assert set(COMMAND_TABLE) <= named
    assert named <= {*COMMAND_TABLE, "catalog"}


def test_every_input_has_its_words():
    inputs = {(name, i.option) for name, row in COMMAND_TABLE.items() for i in row.inputs}
    assert inputs | {("adjunction", "--dual-module")} == set(NOT_READ)
    assert {(name, i.option): i.noun for name, row in COMMAND_TABLE.items() for i in row.inputs} == \
        {key: NOT_READ[key] for key in inputs}


@pytest.mark.parametrize("command, option", sorted(NOT_READ), ids=[" ".join(key) for key in sorted(NOT_READ)])
def test_an_object_of_another_type_exits_2(document, command, option):
    options = [i.option for i in COMMAND_TABLE[command].inputs]
    if option not in options:
        options.append(option)
    wrong = "h" if (command, option) == ("rat", "--pairing") else "p"   # the algebra h, or the pairing p
    argv = [command, document]
    for o in options:
        right = ADJUNCTION_MODULE if (command, o) == ("adjunction", "--module") else READ.get(o)
        argv += [o, wrong if o == option else right]
    line = f"input error: {wrong!r} is not {NOT_READ[command, option]}"
    assert run_command(argv) == (2, line + "\n")
    code, text = run_command(["--json", *argv])
    assert code == 2 and line in text


@pytest.mark.parametrize("command", ["rat", "adjunction"])
def test_the_first_wrong_input_in_row_order_is_named(document, command):
    inputs = COMMAND_TABLE[command].inputs
    argv = [command, document]
    for i in inputs:
        argv += [i.option, "c"]
    assert run_command(argv) == (2, f"input error: 'c' is not {inputs[0].noun}\n")
