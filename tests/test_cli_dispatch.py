"""An argv goes to its command's own subparser; the top-level parser reads only what that one leaves.

cli._parse_args hands an argv made of an optional leading --json and a
command name to that command's subparser, the one the top-level parser
would hand the same arguments to.  So every golden command runs with the
top-level parse_args refused, and for help, abbreviated options, --opt=x,
a missing option, an unknown command, leftover arguments and "--", the
namespace, exit code, stdout and stderr are those of _PARSER.parse_args,
as they were when _PARSER read every argv.
"""

from __future__ import annotations

import json

import pytest

from entwine import cli
from entwine.cli import run_command
from test_golden_cli import GOLDEN, TEXT_ONLY, cases

ARGVS = [
    ["check", "doc.ent"], ["--json", "check", "doc.ent"], ["catalog"], ["catalog", "qc2"],
    ["adjunction", "doc.ent", "--entwining", "e", "--module", "m", "--dual-module", "k"],
    # help, at the top and in a command
    ["-h"], ["--json", "--help"], ["check", "-h"], ["--json", "smash", "-h"], ["smash", "doc.ent", "--help"],
    ["rat", "--he"],
    # abbreviated options, and --opt=x
    ["smash", "doc.ent", "--na", "e"], ["smash", "doc.ent", "--ta", "--name", "e"],
    ["adjunction", "doc.ent", "--ent", "e", "--mod", "m", "--dual", "k"], ["dualize", "doc.ent", "--name=x"],
    ["rat", "doc.ent", "--pairing=p", "--module=m"], ["--json", "cocleft", "doc.ent", "--n=x"],
    # a missing argument or option
    ["check"], ["smash", "doc.ent"], ["rat", "doc.ent", "--pairing", "p"], ["--json", "dk", "--name", "x"],
    ["smash", "doc.ent", "--name"],
    # no command, or an unknown one
    [], ["--json"], ["nope", "doc.ent"], ["--json", "nope"], ["--js", "check", "doc.ent"], ["Check", "doc.ent"],
    # leftover arguments, and arguments the top-level parser reads before the command
    ["check", "doc.ent", "extra"], ["check", "doc.ent", "--json"], ["smash", "doc.ent", "--name", "e", "--bogus"],
    ["--json", "--json", "check", "doc.ent"], ["catalog", "qc2", "extra"], ["--json", "catalog", "qc2", "-x"],
    ["dk", "doc.ent", "--name", "x", "--name", "y"],
    # "--" anywhere
    ["check", "--", "doc.ent"], ["check", "doc.ent", "--"], ["--", "check", "doc.ent"],
    ["smash", "doc.ent", "--name", "e", "--", "x"],
]


def _outcome(parse, argv, capsys):
    """(namespace as a dict or None, exit code or None, stdout, stderr) of one parse."""
    try:
        space, code = vars(parse(argv)), None
    except SystemExit as exc:
        space, code = None, exc.code
    out, err = capsys.readouterr()
    return space, code, out, err


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a) or "(empty)" for a in ARGVS])
def test_dispatch_matches_the_top_level_parser(argv, capsys):
    assert _outcome(cli._parse_args, argv, capsys) == _outcome(cli._PARSER.parse_args, argv, capsys)


def test_golden_commands_never_reach_the_top_level_parser(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser read a command line")

    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    expected = json.loads(GOLDEN.read_text())
    ran = 0
    for key, argv in cases(tmp_path):
        modes = [("", argv)] if any(tag in key for tag in TEXT_ONLY) else [("", argv), ("--json ", ["--json", *argv])]
        for prefix, line in modes:
            code, text = run_command(line)
            assert {"code": code, "text": text} == expected[prefix + key], prefix + key
            ran += 1
    assert ran == len(expected)
