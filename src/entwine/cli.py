"""Command-line surface.

Every command reads a document, runs the corresponding verification or
construction, and writes a human-readable report (or, with --json, a
structured one).  Exit code 0 means every check passed, 1 means some law
or theorem check failed (the witness is in the report), 2 means the
input could not be used at all.
"""

from __future__ import annotations

import argparse
import sys

from .exactlin import PresentationError
from .report import CheckError, Report, first_failure, require
from .structures import (
    AlphaConditionError,
    ModulePresentation,
    PairingPresentation,
    StructurePresentation,
    compute_antipode,
    dualize_structure,
    rational_submodule,
    verify_measuring_pairing,
    verify_structure,
)
from .entwining import (
    EntwinedModulePresentation,
    EntwiningPresentation,
    smash_algebra,
    twisted_product,
    verify_entwining,
)
from .duality import adjunction_check, dual_entwining
from .doikoppinen import (
    DUAL_DK_COHERENT,
    KOPPINEN_NOTE,
    DKStructure,
    HCoextension,
    HExtension,
    check_cointegral,
    check_integral,
    dual_dk,
    dualize_coextension,
    verify_dk,
)
from .document import Document, canonical_json, document_from_objects, emit_document, parse_document
from . import catalog


class _Out:
    """Order-preserving report accumulator with a canonical text rendering."""

    def __init__(self):
        self.lines: list[str] = []
        self.records: list[dict] = []
        self.failed = False

    def report(self, name: str, rep: Report):
        self.lines.append(f"{name}: {rep.summary()}")
        rec = {"object": name, "op": rep.op, "passed": rep.passed}
        if not rep.passed:
            self.failed = True
            rec.update(axiom=rep.axiom, lhs=rep.lhs, rhs=rep.rhs,
                       witness=list(rep.witness) if rep.witness else None)
        if rep.details:
            rec["details"] = dict(rep.details)
        self.records.append(rec)

    def note(self, text: str, **extra):
        self.lines.append(text)
        self.records.append({"note": text, **extra})

    def render(self, as_json: bool) -> str:
        if as_json:
            return canonical_json({"passed": not self.failed, "records": self.records}) + "\n"
        return "\n".join(self.lines) + "\n"


def _load(path: str) -> Document:
    with open(path, "rb") as fh:
        return parse_document(fh.read())


def _get(doc: Document, name: str, want, what: str):
    if name not in doc.resolved:
        raise PresentationError(f"no object named {name!r} in the document")
    obj = doc.resolved[name]
    if not isinstance(obj, want):
        raise PresentationError(f"{name!r} is not a {what}")
    return obj


def _check_object(out: _Out, name: str, obj) -> None:
    if type(obj) in catalog.VERIFIERS:
        out.report(name, catalog.VERIFIERS[type(obj)](obj))
    elif isinstance(obj, HExtension):
        out.note(f"{name}: extension verified at parse time; coinvariants dim {obj.coinv.dim}")
        if obj.integral is not None:
            rep = check_integral(obj, obj.integral)
            out.note(f"{name}: integral {rep.summary()}")
            if not rep.passed:
                out.failed = True
    elif isinstance(obj, HCoextension):
        # the quotient keeps the basis vectors at W's free columns, one for each column past W's rank
        out.note(f"{name}: coextension verified at parse time; quotient dim {obj.d.dim - obj.dplus.dim}")
        if obj.cointegral is not None:
            rep = check_cointegral(obj, obj.cointegral)
            out.note(f"{name}: cointegral {rep.summary()}")
            if not rep.passed:
                out.failed = True
    else:
        out.note(f"{name}: nothing to check")


def cmd_check(args, out: _Out) -> None:
    doc = _load(args.document)
    for name in sorted(doc.resolved):
        _check_object(out, name, doc.resolved[name])


def cmd_dualize(args, out: _Out) -> None:
    doc = _load(args.document)
    name = args.name
    obj = doc.resolved.get(name)
    if obj is None:
        raise PresentationError(f"no object named {name!r} in the document")
    if isinstance(obj, StructurePresentation):
        # the dual's laws are the input's, transposed, so the input's verdict is the dual's
        rep = verify_structure(None, obj)
        require(rep)
        out.report(name, rep)
        emitted = document_from_objects(doc.field, {f"{name}_dual": dualize_structure(None, obj)})
    elif isinstance(obj, EntwiningPresentation):
        rep = verify_entwining(obj)
        require(rep)
        datum = dual_entwining(obj)
        out.report(name, rep)
        emitted = document_from_objects(doc.field, {
            f"{name}_dual_algebra": datum.atil,
            f"{name}_dual_coalgebra": datum.ctil,
            f"{name}_dual": datum.dual,
        })
    elif isinstance(obj, DKStructure):
        require(verify_dk(obj))
        out.report(name, DUAL_DK_COHERENT)
        emitted = document_from_objects(doc.field, {f"{name}_dual": dual_dk(obj)})
    else:
        raise PresentationError(f"{name!r} is not dualizable from the command line")
    out.note(emit_document(emitted).rstrip("\n"))


def cmd_smash(args, out: _Out) -> None:
    doc = _load(args.document)
    e = _get(doc, args.name, EntwiningPresentation, "entwining")
    rep = verify_entwining(e)
    out.report(args.name, rep)
    if not rep.passed:
        return
    out.note(f"{args.name}: smash ring of dimension {e.algebra.dim * e.coalgebra.dim}; associativity, units and "
             "bimodule laws verified")
    if args.table:   # the table and the unit alone, without the ring's A-actions
        smash = smash_algebra(e, twisted_product(e))
        fmt = smash.field.fmt
        for s1 in range(smash.dim):
            row = []
            for s2 in range(smash.dim):
                col = smash.mul.col(s1 * smash.dim + s2)
                row.append("(" + ",".join(fmt(x) for x in col) + ")")
            out.note(f"row {s1}: " + " ".join(row))


def cmd_coring(args, out: _Out) -> None:
    doc = _load(args.document)
    e = _get(doc, args.name, EntwiningPresentation, "entwining")
    rep = verify_entwining(e)
    out.report(args.name, rep)
    if not rep.passed:
        return
    n = e.algebra.dim * e.coalgebra.dim
    out.note(f"{args.name}: coring on a space of dimension {n}; bimodule, coassociativity, counit and "
             "balanced-linearity laws verified")
    out.note(f"{args.name}: smash ring is isomorphic to the left dual (dimension {n})")


def cmd_antipode(args, out: _Out) -> None:
    doc = _load(args.document)
    h = _get(doc, args.name, StructurePresentation, "structure")
    s = compute_antipode(h)
    if s is None:
        out.note(f"{args.name}: no antipode")
        out.failed = True
        return
    out.note(f"{args.name}: antipode {s.render()}")


def _rat_rows(p: PairingPresentation, m: ModulePresentation):
    """The pairing's algebra and coalgebra, its measuring rows, then the module's laws, as component rows."""
    yield "algebra", verify_structure("algebra", p.algebra)
    yield "coalgebra", verify_structure("coalgebra", p.coalgebra)
    yield "pairing", verify_measuring_pairing(p)
    yield "module", verify_structure(None, m)


def cmd_rat(args, out: _Out) -> None:
    doc = _load(args.document)
    p = _get(doc, args.pairing, PairingPresentation, "pairing")
    m = _get(doc, args.module, ModulePresentation, "module")
    require(first_failure("rat", _rat_rows(p, m)))
    try:   # refuses a module over another algebra before it computes the rank criterion
        rat = rational_submodule(p, m)
    except AlphaConditionError as exc:
        out.report(args.pairing, exc.criterion)
        return
    out.report(args.pairing, rat.criterion)
    out.note(f"{args.module}: rational part has dimension {rat.dim}; "
             f"basis {rat.subspace.basis.render()}")


def cmd_adjunction(args, out: _Out) -> None:
    doc = _load(args.document)
    e = _get(doc, args.entwining, EntwiningPresentation, "entwining")
    m = _get(doc, args.module, EntwinedModulePresentation, "entwined module")
    require(verify_entwining(e))
    datum = dual_entwining(e)
    k = (_get(doc, args.dual_module, EntwinedModulePresentation, "entwined module")
         if args.dual_module else None)
    out.report(args.module, adjunction_check(datum, m, k))


def cmd_dk(args, out: _Out) -> None:
    doc = _load(args.document)
    s = _get(doc, args.name, DKStructure, "Doi-Koppinen structure")
    rep = verify_dk(s)
    out.report(args.name, rep)
    if not rep.passed:
        return
    out.note(f"{args.name}: {KOPPINEN_NOTE}")
    out.report(f"{args.name}_dual", DUAL_DK_COHERENT)


def cmd_cleft(args, out: _Out) -> None:
    doc = _load(args.document)
    ext = _get(doc, args.name, HExtension, "extension")
    gamma = ext.integral
    if gamma is None:
        raise PresentationError(f"{args.name!r} carries no integral")
    rep = check_integral(ext, gamma)
    out.note(f"{args.name}: {rep.summary()}")
    if not rep.passed:
        out.failed = True


def cmd_cocleft(args, out: _Out) -> None:
    doc = _load(args.document)
    coext = _get(doc, args.name, HCoextension, "coextension")
    omega = coext.cointegral
    if omega is None:
        raise PresentationError(f"{args.name!r} carries no cointegral")
    rep = check_cointegral(coext, omega)
    out.note(f"{args.name}: {rep.summary()}")
    if not rep.passed:
        out.failed = True
        return
    _, drep = dualize_coextension(coext, rep)
    out.report(f"{args.name}_dual", drep)


def cmd_catalog(args, out: _Out) -> None:
    if not args.name:
        for name in catalog.catalog_names():
            out.note(f"{name}: {catalog._BUILDERS[name][0]}")
        return
    value = catalog.catalog_get(args.name)
    field = _field_of(value)
    emitted = document_from_objects(field, {args.name: value})
    out.note(emit_document(emitted).rstrip("\n"))


def _field_of(value):
    if hasattr(value, "field"):
        return value.field
    for attr in ("entwining", "h", "algebra"):
        inner = getattr(value, attr, None)
        if inner is not None:
            return _field_of(inner)
    raise PresentationError("cannot determine the field of this object")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entwine",
        description="verify and dualize finite-dimensional entwining and Doi-Koppinen data")
    parser.add_argument("--json", action="store_true", help="emit a structured report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify every object in a document")
    p.add_argument("document")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("dualize", help="dualize a structure, entwining or DK triple")
    p.add_argument("document")
    p.add_argument("--name", required=True)
    p.set_defaults(fn=cmd_dualize)

    p = sub.add_parser("smash", help="verify an entwining and state its smash ring; --table builds and prints it")
    p.add_argument("document")
    p.add_argument("--name", required=True)
    p.add_argument("--table", action="store_true", help="build the smash ring and print its multiplication table")
    p.set_defaults(fn=cmd_smash)

    p = sub.add_parser("coring", help="verify an entwining and state its coring and the coring's left dual")
    p.add_argument("document")
    p.add_argument("--name", required=True)
    p.set_defaults(fn=cmd_coring)

    p = sub.add_parser("antipode", help="compute the antipode of a bialgebra")
    p.add_argument("document")
    p.add_argument("--name", required=True)
    p.set_defaults(fn=cmd_antipode)

    p = sub.add_parser("rat", help="rational submodule of a module along a pairing")
    p.add_argument("document")
    p.add_argument("--pairing", required=True)
    p.add_argument("--module", required=True)
    p.set_defaults(fn=cmd_rat)

    p = sub.add_parser("adjunction", help="check the dual-module adjunction")
    p.add_argument("document")
    p.add_argument("--entwining", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--dual-module")
    p.set_defaults(fn=cmd_adjunction)

    p = sub.add_parser("dk", help="verify a Doi-Koppinen structure and its dual")
    p.add_argument("document")
    p.add_argument("--name", required=True)
    p.set_defaults(fn=cmd_dk)

    p = sub.add_parser("cleft", help="check an integral for colinearity, totality, cleftness")
    p.add_argument("document")
    p.add_argument("--name", required=True)
    p.set_defaults(fn=cmd_cleft)

    p = sub.add_parser("cocleft", help="check a cointegral and dualize the coextension")
    p.add_argument("document")
    p.add_argument("--name", required=True)
    p.set_defaults(fn=cmd_cocleft)

    p = sub.add_parser("catalog", help="list catalog entries or emit one as a document")
    p.add_argument("name", nargs="?")
    p.set_defaults(fn=cmd_catalog)

    return parser


# parse_args keeps no state between calls, so one parser serves every command
_PARSER = build_parser()


def run_command(argv: list[str]) -> tuple[int, str]:
    """Execute one command; returns (exit code, report text)."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code not in (0, None) else 0, "")
    out = _Out()
    try:
        args.fn(args, out)
    except CheckError as exc:
        out.report("error", exc.report)
        return 1, out.render(args.json)
    except (PresentationError, OSError) as exc:
        out.note(f"input error: {exc}")
        out.failed = True
        return 2, out.render(args.json)
    return (1 if out.failed else 0), out.render(args.json)


def main() -> None:
    code, text = run_command(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
