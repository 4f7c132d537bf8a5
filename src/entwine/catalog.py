"""Deterministic constructors for the worked examples used everywhere.

Every entry is verified when first built and cached; catalog_get(name)
always returns the same object for the same name.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import Field, Matrix, PresentationError, QQ, permute
from .report import require
from .structures import (
    ModulePresentation,
    PairingPresentation,
    StructurePresentation,
    algebra_morphism_report,
    bialgebra_morphism_report,
    coalgebra_morphism_report,
    dualize_structure,
    make_structure,
    verify_measuring_pairing,
    verify_structure,
)
from .entwining import (
    EntwinedModulePresentation,
    EntwiningPresentation,
    flip_entwining,
    verify_entwined_module,
    verify_entwining,
)
from .doikoppinen import (
    AltDKStructure,
    DKStructure,
    HCoextension,
    HExtension,
    alt_dk_entwining,
    coextension_quotient,
    dk_entwining,
    h_extension,
    verify_dk,
)
from .document import Morphism


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    value: object


def trivial_bialgebra(field: Field = QQ) -> StructurePresentation:
    return make_structure("bialgebra", field, 1, ("1",),
                          mul=[(0, 0, 0, 1)], unit=[1],
                          comul=[(0, 0, 0, 1)], counit=[1])


def cyclic_group_algebra(field: Field, n: int) -> StructurePresentation:
    """Group algebra of the cyclic group of order n, as a Hopf algebra."""
    labels = tuple("e" if i == 0 else f"g{i}" if n > 2 else "g" for i in range(n))
    mul = [(i, j, (i + j) % n, 1) for i in range(n) for j in range(n)]
    comul = [(i, i, i, 1) for i in range(n)]
    counit = [1] * n
    antipode = Matrix.from_rows(field, [
        [field.one() if i == (-j) % n else field.zero() for j in range(n)] for i in range(n)
    ])
    return make_structure("hopf", field, n, labels, mul=mul, unit=[1] + [0] * (n - 1),
                          comul=comul, counit=counit, antipode=antipode)


def sweedler4(field: Field = QQ) -> StructurePresentation:
    """The 4-dimensional Hopf algebra on 1, g, x, gx with g2 = 1, x2 = 0, xg = -gx."""
    one = field.one()
    neg = field.neg(one)
    mul = [
        (0, 0, 0, one), (0, 1, 1, one), (0, 2, 2, one), (0, 3, 3, one),
        (1, 0, 1, one), (2, 0, 2, one), (3, 0, 3, one),
        (1, 1, 0, one), (1, 2, 3, one), (1, 3, 2, one),
        (2, 1, 3, neg), (3, 1, 2, neg),
    ]
    comul = [
        (0, 0, 0, one), (1, 1, 1, one),
        (2, 2, 0, one), (2, 1, 2, one),
        (3, 3, 1, one), (3, 0, 3, one),
    ]
    z = field.zero()
    antipode = Matrix.from_rows(field, [
        [one, z, z, z],
        [z, one, z, z],
        [z, z, z, one],
        [z, z, neg, z],
    ])
    return make_structure("hopf", field, 4, ("1", "g", "x", "gx"),
                          mul=mul, unit=[1, 0, 0, 0], comul=comul, counit=[1, 1, 0, 0],
                          antipode=antipode)


def nonhopf_bialgebra(field: Field = QQ) -> StructurePresentation:
    """Monoid algebra of {1, t} with t*t = t; a bialgebra without antipode."""
    return make_structure("bialgebra", field, 2, ("1", "t"),
                          mul=[(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)],
                          unit=[1, 0],
                          comul=[(0, 0, 0, 1), (1, 1, 1, 1)], counit=[1, 1])


def hopf_module_dk(h: StructurePresentation) -> DKStructure:
    """The triple (H, H, H): H coacts on itself by comul, acts by mul."""
    return DKStructure(h, h, h.comul, h, h.mul)


def long_dk(a: StructurePresentation, c: StructurePresentation) -> DKStructure:
    """Trivial bialgebra, A with trivial coaction, C with trivial action."""
    field = a.field
    triv = trivial_bialgebra(field)
    coaction = Matrix.identity(field, a.dim)  # a -> a (x) 1 in A (x) R = A
    action = Matrix.identity(field, c.dim)
    return DKStructure(triv, a, coaction, c, action)


def regular_hopf_module(h: StructurePresentation) -> EntwinedModulePresentation:
    """H over its own Hopf-module entwining: multiplication action, comul coaction."""
    e = dk_entwining(hopf_module_dk(h))
    return EntwinedModulePresentation(e, h.dim, h.mul, h.comul)


def free_flip_module(a: StructurePresentation, c: StructurePresentation) -> EntwinedModulePresentation:
    """A (x) C with the left-factor action and right-factor coaction (flip entwined)."""
    e = flip_entwining(a, c)
    f = a.field
    idc = Matrix.identity(f, c.dim)
    ida = Matrix.identity(f, a.dim)
    from .exactlin import perm_tensor

    # action: (a~ (x) c) (x) b -> a~ b (x) c
    action = a.mul.kron(idc) @ perm_tensor(f, (a.dim, c.dim, a.dim), (0, 2, 1))
    coaction = ida.kron(c.comul)
    return EntwinedModulePresentation(e, a.dim * c.dim, action, coaction)


def translation_module_algebra(h: StructurePresentation):
    """H* as a right H-module algebra via (f . h)(k) = f(h k)."""
    dual = dualize_structure(None, h)
    n = h.dim
    # the delta_s-coefficient of delta_u . h_j is (delta_u . h_j)(h_s) = delta_u(h_j h_s) = mul[u, (j, s)]
    return dual, permute(h.mul, (n, n, n), (2, 0, 1), 1)


def grading_comodule_coalgebra(h: StructurePresentation):
    """H* of a group algebra, coacting by total degree: delta_g -> delta_g (x) g."""
    field = h.field
    dual = dualize_structure(None, h)
    n = h.dim
    z = field.zero()
    coact = [z] * (n * n * n)
    for u in range(n):
        coact[(u * n + u) * n + u] = field.one()
    return dual, Matrix(field, n * n, n, coact)


def schauenburg_instance(field: Field = QQ) -> AltDKStructure:
    """A module-algebra / comodule-coalgebra pair over the order-2 group algebra."""
    h = cyclic_group_algebra(field, 2)
    alg, action = translation_module_algebra(h)
    coalg, coaction = grading_comodule_coalgebra(h)
    return AltDKStructure(h, alg, action, coalg, coaction)


def identity_integral_extension(h: StructurePresentation) -> HExtension:
    """H over its coinvariants, with the identity map as total integral."""
    return h_extension(h, h, h.comul, integral=Matrix.identity(h.field, h.dim))


def identity_cointegral_coextension(h: StructurePresentation) -> HCoextension:
    """H as a module coalgebra over itself, with the identity as cointegral."""
    return coextension_quotient(h, h, h.mul, cointegral=Matrix.identity(h.field, h.dim))


_BUILDERS = {
    "trivial": ("dim-1 trivial bialgebra over Q", trivial_bialgebra),
    "qc2": ("group algebra of C2 over Q", lambda: cyclic_group_algebra(QQ, 2)),
    "qc3": ("group algebra of C3 over Q", lambda: cyclic_group_algebra(QQ, 3)),
    "f5c5": ("group algebra of C5 over F5", lambda: cyclic_group_algebra(Field(5), 5)),
    "sweedler4": ("the 4-dimensional Hopf algebra over Q", sweedler4),
    "monoid2": ("bialgebra of the two-element idempotent monoid (no antipode)", nonhopf_bialgebra),
    "qc2_dual": ("dual Hopf algebra of qc2", lambda: dualize_structure(None, catalog_get("qc2"))),
    "qc3_dual": ("dual Hopf algebra of qc3", lambda: dualize_structure(None, catalog_get("qc3"))),
    "f5c5_dual": ("dual Hopf algebra of f5c5", lambda: dualize_structure(None, catalog_get("f5c5"))),
    "flip_trivial": ("flip entwining over the trivial bialgebra",
                     lambda: flip_entwining(catalog_get("trivial"), catalog_get("trivial"))),
    "flip_qc2": ("flip entwining on (qc2, qc2)",
                 lambda: flip_entwining(catalog_get("qc2"), catalog_get("qc2"))),
    "flip_qc3": ("flip entwining on (qc3, qc3)",
                 lambda: flip_entwining(catalog_get("qc3"), catalog_get("qc3"))),
    "flip_f5c5": ("flip entwining on (f5c5, f5c5)",
                  lambda: flip_entwining(catalog_get("f5c5"), catalog_get("f5c5"))),
    "flip_sweedler4": ("flip entwining on (sweedler4, sweedler4)",
                       lambda: flip_entwining(catalog_get("sweedler4"), catalog_get("sweedler4"))),
    "flip_qc2_dual": ("flip entwining on (qc2_dual, qc2_dual)",
                      lambda: flip_entwining(catalog_get("qc2_dual"), catalog_get("qc2_dual"))),
    "dk_qc2": ("Hopf-module triple (H, H, H) for H = qc2",
               lambda: hopf_module_dk(catalog_get("qc2"))),
    "dk_qc3": ("Hopf-module triple for qc3", lambda: hopf_module_dk(catalog_get("qc3"))),
    "dk_f5c5": ("Hopf-module triple for f5c5", lambda: hopf_module_dk(catalog_get("f5c5"))),
    "dk_sweedler4": ("Hopf-module triple for sweedler4",
                     lambda: hopf_module_dk(catalog_get("sweedler4"))),
    "dk_long_qc2": ("Long-dimodule triple (R, qc2, qc2)",
                    lambda: long_dk(catalog_get("qc2"), catalog_get("qc2"))),
    "dk_long_f5c5": ("Long-dimodule triple (R, f5c5, f5c5)",
                     lambda: long_dk(catalog_get("f5c5"), catalog_get("f5c5"))),
    "alt_qc2": ("alternative module-algebra/comodule-coalgebra structure over qc2",
                schauenburg_instance),
    "hopfmod_qc2_entwining": ("entwining of the Hopf-module triple for qc2",
                              lambda: dk_entwining(catalog_get("dk_qc2"))),
    "hopfmod_qc3_entwining": ("entwining of the Hopf-module triple for qc3",
                              lambda: dk_entwining(catalog_get("dk_qc3"))),
    "hopfmod_f5c5_entwining": ("entwining of the Hopf-module triple for f5c5",
                               lambda: dk_entwining(catalog_get("dk_f5c5"))),
    "hopfmod_sweedler4_entwining": ("entwining of the Hopf-module triple for sweedler4",
                                    lambda: dk_entwining(catalog_get("dk_sweedler4"))),
    "alt_qc2_entwining": ("entwining of the alternative structure over qc2",
                          lambda: alt_dk_entwining(catalog_get("alt_qc2"))),
    "hopfmod_qc2": ("regular Hopf module H over the qc2 entwining",
                    lambda: regular_hopf_module(catalog_get("qc2"))),
    "hopfmod_qc3": ("regular Hopf module over qc3",
                    lambda: regular_hopf_module(catalog_get("qc3"))),
    "hopfmod_f5c5": ("regular Hopf module over f5c5",
                     lambda: regular_hopf_module(catalog_get("f5c5"))),
    "hopfmod_sweedler4": ("regular Hopf module over sweedler4",
                          lambda: regular_hopf_module(catalog_get("sweedler4"))),
    "longmod_qc2": ("free flip-entwined module qc2 (x) qc2",
                    lambda: free_flip_module(catalog_get("qc2"), catalog_get("qc2"))),
    "ext_qc2": ("cleft extension data (qc2, id)", lambda: identity_integral_extension(catalog_get("qc2"))),
    "ext_sweedler4": ("cleft extension data (sweedler4, id)",
                      lambda: identity_integral_extension(catalog_get("sweedler4"))),
    "coext_qc2": ("cocleft coextension data (qc2, id)",
                  lambda: identity_cointegral_coextension(catalog_get("qc2"))),
    "coext_sweedler4": ("cocleft coextension data (sweedler4, id)",
                        lambda: identity_cointegral_coextension(catalog_get("sweedler4"))),
}

_CACHE: dict[str, CatalogEntry] = {}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def catalog_get(name: str):
    """Build (or fetch) a verified catalog object by name."""
    if name in _CACHE:
        return _CACHE[name].value
    if name not in _BUILDERS:
        raise PresentationError(f"unknown catalog entry {name!r}")
    description, builder = _BUILDERS[name]
    value = builder()
    _verify_entry(name, value)
    _CACHE[name] = CatalogEntry(name, description, value)
    return value


def catalog_entry(name: str) -> CatalogEntry:
    catalog_get(name)
    return _CACHE[name]


# each object class and its verifier, read by catalog entries and by the check command; an entry
# looks its verifier up by name at each call, so a wrapper rebound over that name (benchmarks/tracing.py) runs
VERIFIERS = {
    StructurePresentation: lambda o: verify_structure(None, o),
    ModulePresentation: lambda o: verify_structure(None, o),
    PairingPresentation: lambda o: verify_measuring_pairing(o),
    EntwiningPresentation: lambda o: verify_entwining(o),
    EntwinedModulePresentation: lambda o: verify_entwined_module(o.entwining, o),
    DKStructure: lambda o: verify_dk(o),
    AltDKStructure: lambda o: o.verify(),
    Morphism: lambda o: {"algebra": algebra_morphism_report, "coalgebra": coalgebra_morphism_report}.get(
        o.role, bialgebra_morphism_report)(o.source, o.target, o.matrix),
}


def _verify_entry(name: str, value):
    if isinstance(value, (HExtension, HCoextension)):
        return  # verified by their constructors
    if type(value) not in VERIFIERS:
        raise PresentationError(f"catalog entry {name!r} has unknown type {type(value)!r}")
    require(VERIFIERS[type(value)](value))
