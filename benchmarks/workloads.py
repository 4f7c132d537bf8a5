"""Seeded inputs for the entwine benchmark.

A workload is a deck: a set of documents and a fixed list of CLI commands
over them, each with the exit code and verdict lines it must produce. The
seed picks the basis each input is written in, which structure constant a
perturbed input changes, and the order of the commands; the algebras, the
commands and their number are the same for every seed, so runs with
different seeds measure the same work.

Every input is built through the public constructors and must pass
verification before it is written. A perturbed input must fail it, and the
failure report it gives becomes the verdict the CLI has to print.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from entwine import catalog
from entwine.catalog import (
    cyclic_group_algebra,
    flip_entwining,
    hopf_module_dk,
    identity_cointegral_coextension,
    identity_integral_extension,
    regular_hopf_module,
    sweedler4,
)
from entwine.document import document_from_objects, emit_document
from entwine.entwining import (
    EntwiningPresentation,
    build_smash,
    verify_entwined_module,
    verify_entwining,
)
from entwine.doikoppinen import dk_entwining, verify_dk
from entwine.exactlin import QQ, Field, Matrix, invert, kron
from entwine.structures import (
    ModulePresentation,
    canonical_pairing,
    compute_antipode,
    make_structure,
    module_from_coaction,
    verify_measuring_pairing,
    verify_structure,
)


class SetupError(RuntimeError):
    """An input failed the verification it needs before it may be timed."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the verdict it must give."""

    label: str                  # e.g. "coring c5_q"
    args: tuple[str, ...]       # run_command argv; `doc` is spliced in after args[0]
    doc: str                    # document file name inside the deck directory
    code: int                   # expected exit code
    expect: tuple[str, ...]     # each must start some line of the report


@dataclass
class Deck:
    docs: dict[str, str] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)

    def write(self, name: str, fld: Field, objects: dict) -> str:
        self.docs[name] = emit_document(document_from_objects(fld, objects))
        return name

    def add(self, label: str, cmd: str, doc: str, options: tuple[str, ...], code: int,
            expect: tuple[str, ...]):
        self.commands.append(Command(label, (cmd, *options), doc, code, expect))


def _require(rep, what: str):
    if not rep.passed:
        raise SetupError(f"{what}: {rep.summary()}")


# ---------------------------------------------------------------------------
# seeded transforms


def _unit(fld: Field, rng: random.Random):
    """A seeded nonzero scalar: +-1 over Q, anything nonzero over F_p."""
    return fld.of(rng.choice((-1, 1)) if fld.p is None else rng.randrange(1, fld.p))


def monomial(fld: Field, n: int, rng: random.Random) -> Matrix:
    """A seeded relabelling of the basis with unit rescalings (+-1 over Q).

    It keeps every input exactly as sparse as before, with coefficients of
    the same size, so the work a command does does not depend on the seed.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    data = [fld.zero()] * (n * n)
    for j, i in enumerate(perm):
        data[i * n + j] = _unit(fld, rng)
    return Matrix(fld, n, n, data)


def unimodular(fld: Field, n: int, rng: random.Random) -> Matrix:
    """L U with unit diagonals, so det = 1; every off-diagonal factor entry is nonzero.

    Over Q the entries are +-1, so the inverse is integral too and the
    coefficients of the rebased constants grow only by products.
    """
    def triangle(lower: bool) -> Matrix:
        data = [fld.zero()] * (n * n)
        for i in range(n):
            data[i * n + i] = fld.one()
            for j in range(i) if lower else range(i + 1, n):
                data[i * n + j] = _unit(fld, rng)
        return Matrix(fld, n, n, data)

    return triangle(True) @ triangle(False)


def rebase(h, p: Matrix):
    """h written in the basis b_j = sum_i p[i, j] e_i; the inverse comes from exactlin."""
    pinv = invert(p)
    if pinv is None:
        raise SetupError("change of basis is singular")
    return make_structure(h.kind, h.field, h.dim,
                          mul=pinv @ h.mul @ kron(p, p), unit=pinv @ h.unit,
                          comul=kron(pinv, pinv) @ h.comul @ p, counit=h.counit @ p,
                          antipode=pinv @ h.antipode @ p)


def _bump(m: Matrix, rng: random.Random) -> Matrix:
    """Add one to a seeded nonzero entry: one structure constant changed."""
    f = m.field
    nonzero = [i for i, x in enumerate(m.data) if not f.is_zero(x)]
    i = rng.choice(nonzero)
    data = list(m.data)
    data[i] = f.add(data[i], f.one())
    return Matrix(f, m.rows, m.cols, data)


def perturbed_structure(h, part: str, rng: random.Random):
    """h with one constant of `part` ("mul" or "comul") changed, and the failure it gives."""
    for _ in range(100):
        maps = {"mul": h.mul, "comul": h.comul}
        maps[part] = _bump(maps[part], rng)
        bad = make_structure(h.kind, h.field, h.dim, mul=maps["mul"], unit=h.unit,
                             comul=maps["comul"], counit=h.counit, antipode=h.antipode)
        rep = verify_structure(None, bad)
        if not rep.passed:
            return bad, rep
    raise SetupError(f"no perturbation of {part} breaks a law")


def perturbed_entwining(e: EntwiningPresentation, rng: random.Random):
    for _ in range(100):
        bad = EntwiningPresentation(e.algebra, e.coalgebra, _bump(e.psi, rng))
        rep = verify_entwining(bad)
        if not rep.passed:
            return bad, rep
    raise SetupError("no perturbation of psi breaks a law")


# ---------------------------------------------------------------------------
# command groups


LAW_COMMANDS = ("check", "check_bad", "check_module", "smash_hm", "smash_flip", "smash_bad",
                "coring_hm", "coring_flip", "coring_bad")


def add_law_rung(deck: Deck, tag: str, h, rng: random.Random, which: tuple[str, ...],
                 perturb_part: str):
    """check / smash / coring on h, its Hopf-module and flip entwinings and regular module.

    `which` picks from LAW_COMMANDS; `perturb_part` is the map ("mul" or
    "comul") the perturbed structure changes.
    """
    f, n = h.field, h.dim
    _require(verify_structure(None, h), f"{tag} structure")
    wanted = set(which)
    doc_h = deck.write(f"{tag}_h.ent", f, {"h": h})
    if "check" in wanted:
        deck.add(f"check {tag}", "check", doc_h, (), 0, ("h: verify_structure[hopf]: PASS",))
    if "check_bad" in wanted:
        bad, rep = perturbed_structure(h, perturb_part, rng)
        doc = deck.write(f"{tag}_h_bad.ent", f, {"h": bad})
        deck.add(f"check-bad {tag}", "check", doc, (), 1, (f"h: {rep.summary()}",))
    if not wanted - {"check", "check_bad"}:
        return
    m = regular_hopf_module(h)   # builds the Hopf-module entwining; dk_entwining verifies it
    e = m.entwining
    flip = flip_entwining(h, h)
    _require(verify_entwining(flip), f"{tag} flip entwining")
    _require(verify_entwined_module(e, m), f"{tag} regular Hopf module")
    doc_e = deck.write(f"{tag}_e.ent", f, {"e": e})
    doc_flip = deck.write(f"{tag}_flip.ent", f, {"e": flip})
    smash_line = f"e: smash ring of dimension {n * n};"
    coring_lines = (f"e: coring on a space of dimension {n * n};",
                    f"e: smash ring is isomorphic to the left dual (dimension {n * n})")
    if "check_module" in wanted:
        doc = deck.write(f"{tag}_m.ent", f, {"h": h, "e": e, "m": m})
        deck.add(f"check-module {tag}", "check", doc, (), 0,
                 ("h: verify_structure[hopf]: PASS", "e: verify_entwining: PASS",
                  "m: verify_entwined_module: PASS"))
    for key, doc in (("smash_hm", doc_e), ("smash_flip", doc_flip)):
        if key in wanted:
            deck.add(f"smash-{key[6:]} {tag}", "smash", doc, ("--name", "e"), 0,
                     ("e: verify_entwining: PASS", smash_line))
    for key, doc in (("coring_hm", doc_e), ("coring_flip", doc_flip)):
        if key in wanted:
            deck.add(f"coring-{key[7:]} {tag}", "coring", doc, ("--name", "e"), 0,
                     ("e: verify_entwining: PASS", *coring_lines))
    for key, cmd, base in (("smash_bad", "smash", e), ("coring_bad", "coring", flip)):
        if key in wanted:
            bad, rep = perturbed_entwining(base, rng)
            doc = deck.write(f"{tag}_{cmd}_bad.ent", f, {"e": bad})
            deck.add(f"{cmd}-bad {tag}", cmd, doc, ("--name", "e"), 1, (f"e: {rep.summary()}",))


def add_duality_rung(deck: Deck, tag: str, h):
    """dk, dualize, adjunction, antipode, rat, cleft and cocleft on one Hopf algebra."""
    f, n = h.field, h.dim
    _require(verify_structure(None, h), f"{tag} structure")
    dk = hopf_module_dk(h)
    _require(verify_dk(dk), f"{tag} Hopf-module DK triple")
    m = regular_hopf_module(h)
    e = m.entwining
    _require(verify_entwined_module(e, m), f"{tag} regular Hopf module")
    p = canonical_pairing(h)
    _require(verify_measuring_pairing(p), f"{tag} evaluation pairing")
    # H is a right H-comodule by comul, hence a left H*-module through the pairing
    mod = ModulePresentation(n, p.algebra, module_from_coaction(p, h.comul, n, "right"), "left")
    _require(verify_structure(None, mod), f"{tag} H*-module")
    ext = identity_integral_extension(h)       # verified by its constructor
    coext = identity_cointegral_coextension(h)  # verified by its constructor

    doc_h = deck.write(f"{tag}_h.ent", f, {"h": h})
    doc_dk = deck.write(f"{tag}_dk.ent", f, {"dk": dk})
    doc_e = deck.write(f"{tag}_e.ent", f, {"e": e})
    doc_m = deck.write(f"{tag}_m.ent", f, {"h": h, "e": e, "m": m})
    doc_rat = deck.write(f"{tag}_rat.ent", f, {"h": h, "p": p, "m": mod})
    dual_dk_line = "dual_dk: PASS entwining_coherence=True"
    deck.add(f"dk {tag}", "dk", doc_dk, ("--name", "dk"), 0,
             ("dk: verify_dk: PASS",
              "dk: twisted ring agrees with the entwining smash ring, table and unit",
              f"dk_dual: {dual_dk_line}"))
    deck.add(f"dualize-dk {tag}", "dualize", doc_dk, ("--name", "dk"), 0, (f"dk: {dual_dk_line}",))
    deck.add(f"dualize-e {tag}", "dualize", doc_e, ("--name", "e"), 0, ("e: verify_entwining: PASS",))
    deck.add(f"dualize-h {tag}", "dualize", doc_h, ("--name", "h"), 0,
             ("h: verify_structure[hopf]: PASS",))
    deck.add(f"adjunction {tag}", "adjunction", doc_m, ("--entwining", "e", "--module", "m"), 0,
             ("m: adjunction_check: PASS",))
    deck.add(f"antipode {tag}", "antipode", doc_h, ("--name", "h"), 0,
             (f"h: antipode {h.antipode.render()}",))
    deck.add(f"rat {tag}", "rat", doc_rat, ("--pairing", "p", "--module", "m"), 0,
             (f"p: check_alpha_condition: PASS rank={n} dim_c={n}",
              f"m: rational part has dimension {n};"))
    add_extension_commands(deck, tag, f, ext, coext)


def add_extension_commands(deck: Deck, tag: str, f: Field, ext, coext):
    doc_x = deck.write(f"{tag}_ext.ent", f, {"x": ext})
    doc_y = deck.write(f"{tag}_coext.ent", f, {"y": coext})
    deck.add(f"cleft {tag}", "cleft", doc_x, ("--name", "x"), 0,
             ("x: colinear=True total=True cleft=True",))
    deck.add(f"cocleft {tag}", "cocleft", doc_y, ("--name", "y"), 0,
             ("y: linear=True total=True cocleft=True inverse_twist=True",
              "y_dual: dualize_coextension: PASS coinvariants_equal_quotient_dual=True cleft=True"))


def _check_rebased(tag: str, natural, rebased, natural_smash_dim: int):
    """The rebased Hopf algebra must keep the smash-ring dimension and the antipode.

    add_law_rung verifies the rebased structure itself.
    """
    dim = build_smash(dk_entwining(hopf_module_dk(rebased))).dim
    if dim != natural_smash_dim:
        raise SetupError(f"{tag}: smash ring dimension {dim} after rebasing, {natural_smash_dim} before")
    s_nat, s_reb = compute_antipode(natural), compute_antipode(rebased)
    if (s_nat is None) != (s_reb is None) or s_reb != rebased.antipode:
        raise SetupError(f"{tag}: rebasing changed the antipode")


# ---------------------------------------------------------------------------
# workloads

F5, F7 = Field(5), Field(7)
TOP = ("check", "check_bad", "check_module", "smash_bad", "coring_bad")


def laws(deck: Deck, rng: random.Random):
    """Sparse natural-basis inputs up the ladder; the top rungs keep only their tail commands."""
    full = LAW_COMMANDS
    rungs = [  # tag, algebra, instances, commands, perturbed map
        ("c2_q", cyclic_group_algebra(QQ, 2), 4, full, "comul"),
        ("c3_q", cyclic_group_algebra(QQ, 3), 2, full, "comul"),
        ("c3_f5", cyclic_group_algebra(F5, 3), 3, full, "mul"),
        ("c4_q", cyclic_group_algebra(QQ, 4), 1, full[:-2] + ("coring_bad",), "comul"),
        ("sw4_q", sweedler4(QQ), 1, full[:-2] + ("coring_bad",), "mul"),
        ("c5_q", cyclic_group_algebra(QQ, 5), 1, TOP + ("smash_hm",), "mul"),
        ("c5_f5", cyclic_group_algebra(F5, 5), 1, TOP + ("smash_hm", "smash_flip"), "mul"),
        ("c6_f7", cyclic_group_algebra(F7, 6), 1, TOP + ("coring_hm",), "mul"),
    ]
    for tag, h, instances, which, part in rungs:
        for k in range(instances):
            relabelled = rebase(h, monomial(h.field, h.dim, rng))
            add_law_rung(deck, f"{tag}.{k}", relabelled, rng, which, part)


def dense_basis(deck: Deck, rng: random.Random):
    """The laws mix at dimension 2-4 after a seeded unimodular change of basis.

    The dense factor of each change of basis is fixed per input and the
    seed picks a monomial factor, so every seed does the same arithmetic: a
    fresh dense factor per seed moved the cycle time by a third between seeds.
    """
    full = LAW_COMMANDS
    dim4 = ("check", "check_bad", "check_module", "smash_hm", "smash_bad", "coring_flip", "coring_bad")
    rungs = [
        ("c2_q", cyclic_group_algebra(QQ, 2), 3, full, "comul"),
        ("c3_q", cyclic_group_algebra(QQ, 3), 1,
         ("check", "check_bad", "check_module", "smash_flip", "smash_bad", "coring_bad"), "mul"),
        ("c2_f5", cyclic_group_algebra(F5, 2), 3, full, "comul"),
        ("c3_f5", cyclic_group_algebra(F5, 3), 3, full, "mul"),
        ("c3_f7", cyclic_group_algebra(F7, 3), 3, full, "comul"),
        ("sw4_f5", sweedler4(F5), 1, dim4, "mul"),
        ("c4_f7", cyclic_group_algebra(F7, 4), 1, dim4, "mul"),
    ]
    for tag, h, instances, which, part in rungs:
        natural_smash_dim = build_smash(dk_entwining(hopf_module_dk(h))).dim
        for k in range(instances):
            dense = unimodular(h.field, h.dim, random.Random(f"dense_basis:{tag}.{k}"))
            rebased = rebase(h, dense @ monomial(h.field, h.dim, rng))
            _check_rebased(f"{tag}.{k}", h, rebased, natural_smash_dim)
            add_law_rung(deck, f"{tag}.{k}", rebased, rng, which, part)


def duality(deck: Deck, rng: random.Random):
    """Doi-Koppinen, dual entwinings and modules, antipodes, Rat and (co)cleft data."""
    rungs = [("c2_f5", cyclic_group_algebra(F5, 2), 4), ("c2_q", cyclic_group_algebra(QQ, 2), 4),
             ("c3_f5", cyclic_group_algebra(F5, 3), 2), ("c4_f5", cyclic_group_algebra(F5, 4), 1),
             ("c5_f5", cyclic_group_algebra(F5, 5), 1), ("sw4_q", sweedler4(QQ), 1)]
    for tag, h, instances in rungs:
        for k in range(instances):
            add_duality_rung(deck, f"{tag}.{k}", rebase(h, monomial(h.field, h.dim, rng)))
    for name in ("qc2", "sweedler4"):
        add_extension_commands(deck, f"catalog_{name}", QQ,
                               catalog.catalog_get(f"ext_{name}"),
                               catalog.catalog_get(f"coext_{name}"))


def build(workload: str, seed: int) -> Deck:
    """The deck of one workload; the same seed gives the same documents and order."""
    rng = random.Random(f"{workload}:{seed}")
    deck = Deck()
    {"laws": laws, "dense_basis": dense_basis, "duality": duality}[workload](deck, rng)
    rng.shuffle(deck.commands)
    return deck
