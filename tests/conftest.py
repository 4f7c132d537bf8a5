"""Shared generators for randomized exact-arithmetic tests.

Everything is seeded, so failures reproduce; scalars stay small to keep
fraction arithmetic honest about exactness rather than magnitude.  Over Q
they are ints, as exactlin makes whole numbers; fractions enter through
elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod

import pytest

from entwine import report
from entwine.catalog import grading_comodule_coalgebra, translation_module_algebra
from entwine.doikoppinen import (
    UnsupportedDualization,
    check_integral,
    coinvariants,
    comodule_coalgebra_to_module_coalgebra,
    dk_entwining,
    dual_dk,
    dualize_coextension,
    dualize_dk_ingredient,
    module_coalgebra_to_comodule_algebra,
    module_coalgebra_to_dual_module_algebra,
    verify_dk,
    verify_dk_compat,
    verify_dk_morphism,
)
from entwine.duality import DualModule
from entwine.entwining import (
    EntwinedModulePresentation,
    entwining_laws,
    twisted_product,
    verify_entwined_module,
    verify_entwining_morphism,
)
from entwine.exactlin import (
    DimensionMismatch,
    Field,
    Matrix,
    Permutation,
    PresentationError,
    QQ,
    Subspace,
    _offsets,
    _block,
    _plan,
    _split,
    _stages,
    _whole,
    columns_of,
    express,
    image,
    invert,
    kernel,
    kron,
    nonzeros,
    permute,
    preimage,
    solve_linear,
    swap_matrix,
)
from entwine.structures import (
    QUAD_LAYOUTS,
    AlphaConditionError,
    ModulePresentation,
    PairingPresentation,
    RationalSubmodule,
    StructurePresentation,
    check_alpha_condition,
    coaction_to_dual_action,
    convolution,
    convolution_unit,
    dual_action_on_dual,
    dualize_structure,
    make_structure,
    module_from_coaction,
    pairing_action,
    rational_submodule,
    verify_measuring_pairing,
    verify_structure,
)


def quads_by_permute(field: Field, layout: str, dims, quads) -> Matrix:
    """matrix_from_quads the long way: the quadruples summed into Q (rows (i, j), column k), then Q permuted."""
    d0, d1, d2 = dims
    q = [field.zero()] * (d0 * d1 * d2)
    for i, j, k, c in quads:
        assert 0 <= i < d0 and 0 <= j < d1 and 0 <= k < d2
        t = (i * d1 + j) * d2 + k
        q[t] = field.add(q[t], c)
    perm, nrows = QUAD_LAYOUTS[layout]
    return permute(Matrix(field, d0 * d1, d2, q), dims, perm, nrows)


def quads_by_transpose(m: Matrix, layout: str, dims) -> list[tuple]:
    """quads_from_matrix the long way: m permuted back to Q (rows (i, j), column k), its columns read, then sorted."""
    perm, _ = QUAD_LAYOUTS[layout]
    q = columns_of(permute(m, [dims[a] for a in perm], [perm.index(a) for a in range(3)], 2))
    return sorted((*divmod(t, dims[1]), k, v) for k, column in enumerate(q) for t, v in column.items())


def convolution_inverse_by_units(c, a, f: Matrix) -> Matrix | None:
    """structures.convolution_inverse the long way: g -> f * g laid out one basis map E_s at a time, then solved.

    Column s of the system is f * E_s flattened, for E_s the s-th basis
    vector of A (x) C read as a dim A x dim C map; the reference for the
    one contraction that convolution_inverse builds the system with.
    """
    n = a.dim * c.dim
    units = [Matrix.basis_column(a.field, n, s).reshape(a.dim, c.dim) for s in range(n)]
    t = Matrix.from_columns(a.field, n, [convolution(c, a, f, u) for u in units])
    g = solve_linear(t, Matrix.from_columns(a.field, n, [convolution_unit(c, a)]))
    return None if g is None else g.reshape(a.dim, c.dim)


def perm_tensor(field: Field, dims, perm) -> Matrix:
    """The matrix permuting tensor factors, output factor k input factor perm[k]: a Permutation laid out.

    Input index j has its 1 at row at[j], at = exactlin._offsets over every axis; its columns are laid out too.
    """
    dims, perm = tuple(dims), tuple(perm)
    at = _offsets(dims, perm, range(len(dims)))
    m = Matrix._of_rows(field, len(at), len(at), ({j: 1} for j in sorted(range(len(at)), key=at.__getitem__)))
    m._cols = tuple({i: 1} for i in at)
    return m


def eliminate_by_min(rows: list[dict], field: Field, width: int) -> list[int]:
    """exactlin._eliminate with the plain pivot search: min(row) of every row left, at every pivot.

    The reference for the search that follows its rows: each pivot is the least (min(row), i) over the nonempty
    rows left, a column below width; the elimination itself is the same.
    """
    p = field.p
    pivots: list[int] = []
    for r in range(len(rows)):
        live = [(min(row), i) for i, row in enumerate(rows[r:], r) if row]
        c, i = min(live, default=(width, r))
        if c >= width:
            break
        row = rows[i]
        rows[i] = rows[r]
        if row[c] != 1:
            inv = field.inv(row[c])
            row = {k: v * inv % p for k, v in row.items()} if p else {k: _whole(v * inv) for k, v in row.items()}
        rows[r] = row
        for other in rows:
            if other is row or c not in other:
                continue
            factor = other[c]
            for k, v in row.items():
                x = other.get(k, 0) - factor * v
                if p is not None:
                    x %= p
                if x:
                    other[k] = x
                else:
                    del other[k]
        pivots.append(c)
    return pivots


def zeros(field: Field, rows: int, cols: int) -> Matrix:
    return Matrix(field, rows, cols, [field.zero()] * (rows * cols))


def col_matrix(m: Matrix, j: int) -> Matrix:
    """Column j of m as a column vector."""
    return Matrix._of_rows(m.field, m.rows, 1, ({0: r[j]} if j in r else {} for r in m._rows))


def scale(m: Matrix, c) -> Matrix:
    """c m, entry by entry."""
    return Matrix(m.field, m.rows, m.cols, [m.field.mul(c, x) for x in m.data])


def with_antipode(h, s: Matrix):
    """h as a Hopf algebra with antipode s."""
    return replace(h, kind="hopf", antipode=s)


def as_map(smash, v: Matrix) -> Matrix:
    """An element of the smash ring, a column in its coordinates, as the matrix C -> A it is."""
    return v.reshape(smash.entwining.algebra.dim, smash.entwining.coalgebra.dim)


def random_scalar(field: Field, rng: random.Random):
    if field.p is not None:
        return rng.randrange(field.p)
    return field.of(rng.randint(-3, 3))


def random_matrix(field: Field, rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix(field, rows, cols, [random_scalar(field, rng) for _ in range(rows * cols)])


def random_invertible(field: Field, rng: random.Random, n: int) -> Matrix:
    while True:
        m = random_matrix(field, rng, n, n)
        if invert(m) is not None:
            return m


def corrupt(matrix: Matrix, i: int, j: int, c=None) -> Matrix:
    """Add c (default 1) to entry (i, j)."""
    data = list(matrix.data)
    f = matrix.field
    data[i * matrix.cols + j] = f.add(data[i * matrix.cols + j], f.one() if c is None else c)
    return Matrix(f, matrix.rows, matrix.cols, data)


def law_shape(side) -> tuple[Field, int, int]:
    """(field, rows, cols) of a law side, read off its factors without evaluating any (exactlin._split)."""
    return _split(side, 1, [])


def law_terms(side) -> list:
    """A law side split into its (sign, factors) terms, as exactlin._plan splits each side."""
    terms: list = []
    _split(side, 1, terms)
    return terms


def law_vectors(side, by_rows: bool):
    """Read a law side one vector at a time, each a block of one (exactlin._block), as report.compare reads a witness."""
    terms: list = []
    _, rows, cols = _split(side, 1, terms)
    p, plan, _, _ = _stages(terms, by_rows, 1)
    return lambda i: _block(p, plan, i, i + 1)


def layout(side) -> Matrix:
    """A law side laid out with @ and kron: the reference for law_vectors and report.compare.

    A Permutation is laid out by perm_tensor.
    """
    if isinstance(side, Permutation):
        return perm_tensor(side.field, side.dims, side.perm)
    if isinstance(side, Matrix):
        return side
    if isinstance(side, list):
        terms = [layout(term) for _, term in side]
        terms = [scale(t, t.field.of(sign)) for (sign, _), t in zip(side, terms)]
        return sum(terms[1:], terms[0])
    out = None
    for factor in side:
        if isinstance(factor, Permutation):
            factor = layout(factor)
        elif not isinstance(factor, Matrix):
            f = next(x.field for x in factor if isinstance(x, Matrix))
            factor = kron(*(Matrix.identity(f, x) if isinstance(x, int) else x for x in factor))
        out = factor if out is None else factor @ out
    return out


def compare_reference(op: str, axiom: str, lhs, rhs, col_dims):
    """report.compare from the laid-out sides: the first column, in index order, where they differ."""
    left, right = layout(lhs), layout(rhs)
    field = left.field
    for j in range(left.cols):
        x, y = left.col(j), right.col(j)
        if x != y:
            if col_dims is None:
                witness = (j,)
            else:
                witness = tuple(j // prod(col_dims[k + 1:]) % col_dims[k] for k in range(len(col_dims))) or None

            def text(column):
                return "{" + ", ".join(f"{i}: {field.fmt(v)}" for i, v in enumerate(column)
                                       if not field.is_zero(v)) + "}"

            return report.fail(op, axiom, witness=witness, lhs=text(x), rhs=text(y))
    return None


def reads_sliced(lhs, rhs) -> bool:
    """Whether report.compare reads lhs - rhs sliced (exactlin._sliced), by exactlin's own choice (_stages).

    compare reads the law by rows when it has more columns than rows, else
    by columns, and it has as many vectors as it has rows, or columns.
    """
    (_, rows, cols), _, terms, _ = _plan(lhs, rhs)
    by_rows = cols > rows
    return _stages(terms, by_rows, rows if by_rows else cols)[2] is not None


def unimodular(field: Field, n: int, rng: random.Random) -> Matrix:
    """L U with unit diagonals and every off-diagonal factor entry nonzero, so det = 1."""
    def triangle(lower: bool) -> Matrix:
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
            for j in range(i) if lower else range(i + 1, n):
                data[i * n + j] = rng.randrange(1, field.p)
        return Matrix(field, n, n, data)

    return triangle(True) @ triangle(False)


def rebase(h, p: Matrix):
    """The Hopf algebra h written in the basis b_j = sum_i p[i, j] e_i."""
    pinv = invert(p)
    return make_structure(h.kind, h.field, h.dim,
                          mul=pinv @ h.mul @ kron(p, p), unit=pinv @ h.unit,
                          comul=kron(pinv, pinv) @ h.comul @ p, counit=h.counit @ p,
                          antipode=pinv @ h.antipode @ p)


def assert_canonical_vector(vec: dict, field: Field):
    """Reduced and free of zeros: the form of every vector exactlin.law_vectors returns.

    Over Q a value is an int or a Fraction; over F_p an int in (0, p).
    """
    for v in vec.values():
        assert not field.is_zero(v)
        if field.p is not None:
            assert isinstance(v, int) and 0 < v < field.p
        else:
            assert type(v) in (int, Fraction)


def smash_product_map(e, f: Matrix, g: Matrix) -> Matrix:
    """(f . g)(c) = sum f(c_2)_psi g(c_1^psi), for f, g : C -> A, the smash product of one pair of maps."""
    a, c = e.algebra, e.coalgebra
    return a.mul @ kron(Matrix.identity(e.field, a.dim), g) @ e.psi @ kron(Matrix.identity(e.field, c.dim), f) @ c.comul


def nu_map(e, f: Matrix) -> Matrix:
    """nu(f) : a (x) c -> a f(c) as a dim_A x (dim_A * dim_C) matrix."""
    return e.algebra.mul @ kron(Matrix.identity(e.field, e.algebra.dim), f)


def nu_inv_map(e, h: Matrix) -> Matrix:
    """nu^{-1}(h) : c -> h(1_A (x) c)."""
    return h @ kron(e.algebra.unit, Matrix.identity(e.field, e.coalgebra.dim))


def left_star_product(coring, f: Matrix, g: Matrix) -> Matrix:
    """(f *_l g)(x) = sum g(x_1 f(x_2)) on the left dual of the coring, read off its right action and comul."""
    return g @ coring.right_action @ kron(Matrix.identity(coring.field, coring.dim), f) @ coring.comul


# ---------------------------------------------------------------------------
# Implied checks: what src does not read, because the laws its inputs have passed imply it.  Each oracle
# below reads one as src read it; tests/test_implied_rows.py reads it on every catalog object of its kind.

# the name of each implied check, and the laws that imply it
IMPLIED_CHECKS = {
    "antipode-right": "the bialgebra laws and antipode-left: in the finite-dimensional convolution algebra "
                      "Hom(H, H), a one-sided inverse of id is two-sided (structures._hopf_checks)",
    "nu-inv-nu": "A's left unit law, read by verify_entwining as algebra[left-unit] (entwining.nu_iso)",
    "nu-right-linear": "A's associativity, read by verify_entwining as algebra[associativity] (entwining.nu_iso)",
    "quotient-coalgebra": "D's coalgebra laws, with W = D.H+ a coideal on which the counit vanishes: "
                          "proj kills W, proj sect = 1 and sect proj = 1 - P_W (doikoppinen.coextension_quotient)",
    "quotient-module-coalgebra": "D's module-coalgebra laws, with W a coideal and W.H in W",
    "projection-comultiplicative": "W is a coideal, and sect proj = 1 - P_W",
    "projection-counital": "the counit vanishes on W",
    "projection-equivariant": "W.H lies in W",
    "missing-unit": "coaction-on-unit, read by h_extension and dualize_coextension (doikoppinen.coinvariants)",
    "not-a-subalgebra": "coaction-multiplicative over a verified bialgebra (doikoppinen.coinvariants)",
    "inner-ingredient": "row by row, the intermediate's laws are those of the verified input, transposed "
                        "(doikoppinen.module_coalgebra_to_comodule_algebra, comodule_coalgebra_to_dual_module_algebra)",
    "left-inverse": "in the finite-dimensional convolution algebra Hom(C, A) of a verified coalgebra and "
                    "algebra, a right inverse is two-sided (structures.convolution_inverse)",
    "rational-part-missing-unit": "the evaluation pairing of H with H* is square and nondegenerate, so the "
                                  "rational part of A is all of A (doikoppinen.module_algebra_to_comodule_algebra)",
    "rational-part-not-subalgebra": "the rational part is all of A, so its multiplication is A's",
    "rational-part-proper": "the rational part of C* against the full dual is all of C* (doikoppinen.dual_dk)",
    "dual-triple": "H*, C* and A* with their (co)actions satisfy exactly the transposes of the rows that "
                   "verify_dk read on the triple (doikoppinen.dual_dk)",
    "dual-entwining-psi": "for full duals the psi of dual_entwining(e) is psi transposed, which the "
                          "entwining-coherence oracle ties to the dual's DK psi (doikoppinen.dual_dk)",
    "entwining-coherence": "the DK psi of dual_dk(s) is dk_entwining(s).psi transposed: at ((y, u), (w, x)) both are "
                           "sum_h act_C[x, (y, h)] coact_A[(w, h), u], an identity of the index code for any maps "
                           "(doikoppinen.DUAL_DK_COHERENT)",
    "coinvariants-mismatch": "f in D* is coinvariant over H* exactly when f(d.h) = f(d) eps(h); with d.1 = d, D's "
                             "action-unit law, which coextension_quotient read, that is f vanishing on W = D.H+, so "
                             "the coinvariants are the image of the projection's transpose "
                             "(doikoppinen.dualize_coextension)",
    "output-ingredient": "every arrow re-indexes its input's constants, so each law of the output is a law of the "
                         "input (doikoppinen.dualize_dk_ingredient); verify_ingredient is the oracle, read on "
                         "every arrow by test_doikoppinen's test_every_arrow_returns_a_verified_output",
    "dual-coextension-rows": "the comodule-algebra rows of D* over H* are D's module-coalgebra rows, transposed, "
                             "which coextension_quotient read (doikoppinen.dualize_coextension)",
    "dual-algebra": "A~ is a subalgebra of the convolution algebra C* of a verified coalgebra: closed under "
                    "convolution, holding the counit, and written in independent rows (duality.dual_entwining)",
    "dual-coalgebra": "C~ is a subcoalgebra of the dual coalgebra A* of a verified algebra (duality.dual_entwining)",
    "dual-pairings": "A~ and C~ carry the structure they inherit from C* and A*, on which the evaluation pairings "
                     "measure by the definition of convolution and of the dual coalgebra (duality.dual_entwining)",
    "dual-psi-laws": "each psi law of the dual is a psi law of the verified entwining, transposed and restricted to "
                     "A~ and C~ (the paper; duality.dual_entwining)",
    "dual-module-output": "M_r of a verified entwined module is a dual entwined module, and K^r of a verified dual "
                          "entwined module an entwined module (the paper; duality.dual_module_r, dual_module_upper_r)",
    "dual-morphism-transpose": "each morphism law of the transposed pair is one of the verified morphism, transposed "
                               "and restricted to the chosen subobjects (duality.dual_entwining_morphism)",
    "smash-module-output": "for finite C a right module over the smash ring is an entwined module (Brzezinski, "
                           "J. Algebra 215, 1999; entwining.smash_module_to_entwined)",
    "dk-psi-laws": "a Doi-Koppinen datum induces an entwining: the psi laws follow from the comodule-algebra and "
                   "module-coalgebra rows that verify_dk read (Brzezinski and Majid, CMP 191, 1998; "
                   "doikoppinen.dk_entwining)",
    "dual-integral-colinear": "omega -> omega^T is an algebra isomorphism Hom(D, H) -> Hom(H*, D*) under "
                              "convolution: D*'s mul is D's comul transposed, H*'s comul is H's mul transposed, and "
                              "the units are transposed.  The h-colinearity row of omega^T is the h-linearity row of "
                              "omega, transposed, which check_cointegral read (doikoppinen.dualize_coextension)",
    "dual-integral-not-total": "omega^T is total exactly when omega is: the one equation, transposed",
    "dual-integral-not-cleft": "omega^T is convolution invertible exactly when omega is, by the transposition "
                               "isomorphism",
    "inverse-transpose-mismatch": "the transposition isomorphism carries the convolution inverse of omega to that of "
                                  "omega^T, so the inverse of omega^T is inner.inverse transposed",
    "alt-dk-psi-laws": "the alternative datum induces an entwining: the psi laws follow from the module-algebra and "
                       "comodule-coalgebra rows that s.verify() read (doikoppinen.alt_dk_entwining)",
    "counit-not-vanishing": "eps(d.h) = eps(d) eps(h), the action-counital row of the module coalgebra D, is zero "
                            "for h in H+, so the counit vanishes on W = D.H+ (doikoppinen.coextension_quotient)",
    "not-a-coideal": "Delta(d.h) = sum d_1.h_1 (x) d_2.h_2, the action-comultiplicative row, with H+ a coideal as the "
                     "kernel of the coalgebra map eps (H's counit rows), puts Delta(W) in W (x) D + D (x) W "
                     "(Brzezinski and Majid, CMP 191, 1998; doikoppinen.coextension_quotient)",
    "not-h-stable": "(d.h).k = d.(h k), the action-associativity row, with H+ an ideal since eps is multiplicative "
                    "(counit-multiplicative), puts W.H in W (doikoppinen.coextension_quotient)",
    "antipode-not-bijective": "the antipode of a finite-dimensional Hopf algebra is bijective (Larson and Sweedler, "
                              "Amer. J. Math. 91, 1969), and coextension_quotient read H as hopf "
                              "(doikoppinen.dualize_coextension)",
}

# the rows of the smash ring, the coring and nu, which build_smash, build_coring and nu_iso do not read of a verified
# entwining; keyed op[axiom], as the oracles below read them, since verifiers that src runs share these axiom names
SMASH_RING = ("Hom(C, A) with the psi-twisted product of an entwining is an associative unital A-ring (Brzezinski, "
              "J. Algebra 215, 1999; entwining.build_smash)")
CORING = ("A (x) C is an A-coring exactly when psi is an entwining (Brzezinski, Algebr. Represent. Theory 5, 2002, "
          "Prop. 2.2; entwining.build_coring); this row is ")
LEFT_DUAL = ("the smash ring of an entwining is the left dual of its coring through nu (Brzezinski, J. Algebra 215, "
             "1999; Algebr. Represent. Theory 5, 2002; entwining.nu_iso); this row is ")
IMPLIED_CHECKS.update({f"verify_smash[{axiom}]": SMASH_RING for axiom in (
    "associativity", "left-unit", "right-unit", "left-action-unit", "right-action-unit", "left-action-module",
    "right-action-module", "bimodule-compatibility", "mul-left-linear", "mul-right-linear", "mul-balanced",
    "unit-central")})
IMPLIED_CHECKS.update({f"verify_coring[{axiom}]": CORING + law for axiom, law in (
    ("left-action-associativity", "A's associativity"),
    ("right-action-associativity", "psi-multiplicativity with A's associativity"),
    ("left-action-unit", "A's unit law"),
    ("right-action-unit", "psi-unitality"),
    ("bimodule-compatibility", "A's associativity"),
    ("coassociativity", "C's coassociativity"),
    ("left-counit", "C's counit law with A's unit law"),
    ("right-counit", "C's counit law with psi-unitality"),
    ("comul-left-linear", "A's associativity"),
    ("counit-left-linear", "A's associativity"),
    ("counit-right-linear", "psi-counitality"),
    ("comul-right-linear-mod-balancing", "psi-comultiplicativity"))})
IMPLIED_CHECKS.update({f"nu_iso[{axiom}]": LEFT_DUAL + law for axiom, law in (
    ("nu-image-left-linear", "A's associativity"),
    ("nu-multiplicative", "A's associativity, the table being the psi-twisted product"),
    ("nu-unit", "A's right unit law"),
    ("nu-left-linear", "A's associativity, the left action being the psi-twisted one"))})


def antipode_right_rows(h) -> list:
    """id * S = unit, the row that _hopf_checks leaves out."""
    n = h.dim
    return [("antipode-right", (h.comul, (n, h.antipode), h.mul), (h.counit, h.unit), (n,))]


def verify_smash(s) -> report.Report:
    """The smash ring's ring laws, then its table against twisted_product, on all basis tuples."""
    return report.first_failure("verify_smash", smash_rows(s))


def smash_rows(s) -> list:
    """The rows of verify_smash: smash_laws, then twisted-product."""
    return [*smash_laws(s), ("twisted-product", s.mul, twisted_product(s.entwining), (s.dim, s.dim))]


def smash_laws(s) -> list:
    """The A-ring laws of a smash ring as (axiom, lhs, rhs, basis dims) rows, which build_smash does not read."""
    a = s.entwining.algebra
    n, na = s.dim, a.dim
    mul, unit, la, ra = s.mul, s.unit, s.left_action, s.right_action
    ids = Matrix.identity(s.field, n)
    return [
        ("associativity", ((mul, n), mul), ((n, mul), mul), (n, n, n)),
        ("left-unit", ((unit, n), mul), ids, (n,)),
        ("right-unit", ((n, unit), mul), ids, (n,)),
        ("left-action-unit", ((a.unit, n), la), ids, (n,)),
        ("right-action-unit", ((n, a.unit), ra), ids, (n,)),
        ("left-action-module", ((na, la), la), ((a.mul, n), la), (na, na, n)),
        ("right-action-module", ((ra, na), ra), ((n, a.mul), ra), (n, na, na)),
        ("bimodule-compatibility", ((la, na), ra), ((na, ra), la), (na, n, na)),
        ("mul-left-linear", ((la, n), mul), ((na, mul), la), (na, n, n)),
        ("mul-right-linear", ((mul, na), ra), ((n, ra), mul), (n, n, na)),
        ("mul-balanced", ((ra, n), mul), ((n, la), mul), (n, na, n)),
        ("unit-central", ((na, unit), la), ((unit, na), ra), (na,)),
    ]


def verify_coring(coring) -> report.Report:
    """Bimodule laws, coassociativity, counit laws and balanced bilinearity of a coring, which build_coring does not
    read.

    Right linearity of the comultiplication only holds modulo the balancing
    relations (x.a) (x) y - x (x) (a.y); it is certified by exhibiting the
    explicit combination of relations that closes the gap.
    """
    return report.first_failure("verify_coring", coring_laws(coring))


def coring_laws(coring) -> list:
    """The laws of verify_coring as (axiom, lhs, rhs, basis dims) rows."""
    e = coring.entwining
    a, c = e.algebra, e.coalgebra
    f = coring.field
    n, na = coring.dim, a.dim
    la, ra, comul, counit = coring.left_action, coring.right_action, coring.comul, coring.counit
    idv = Matrix.identity(f, n)
    # comul(x.b) - comul(x).b, x = a (x) c, is the sum of the balancing relations (y.b') (x) z - y (x) (b'.z)
    # at y = a (x) c_1, z = 1 (x) c' over comul(c) = c_1 (x) c_2, psi(c_2 (x) b) = b' (x) c'; lift is
    # c (x) b -> b' (x) (1 (x) c'), and coefficients send x (x) b to those y (x) b' (x) z
    lift = kron(Matrix.identity(f, na), kron(a.unit, Matrix.identity(f, c.dim))) @ e.psi
    coefficients = ((na, kron(c.comul, Matrix.identity(f, na))), (n, lift))
    return [
        ("left-action-associativity", ((na, la), la), ((a.mul, n), la), (na, na, n)),
        ("right-action-associativity", ((ra, na), ra), ((n, a.mul), ra), (n, na, na)),
        ("left-action-unit", ((a.unit, n), la), idv, (n,)),
        ("right-action-unit", ((n, a.unit), ra), idv, (n,)),
        ("bimodule-compatibility", ((la, na), ra), ((na, ra), la), (na, n, na)),
        ("coassociativity", (comul, (comul, n)), (comul, (n, comul)), (n,)),
        ("left-counit", (comul, (counit, n), la), idv, (n,)),
        ("right-counit", (comul, (n, counit), ra), idv, (n,)),
        ("comul-left-linear", (la, comul), ((na, comul), (la, n)), (na, n)),
        ("counit-left-linear", (la, counit), ((na, counit), a.mul), (na, n)),
        ("counit-right-linear", (ra, counit), ((counit, na), a.mul), (n, na)),
        ("comul-right-linear-mod-balancing",
         [(1, (ra, comul)), (-1, ((comul, na), (n, ra)))],
         [(1, (*coefficients, (ra, n))), (-1, (*coefficients, (n, la)))], (n, na)),
    ]


def nu_laws(coring, smash, nu: Matrix) -> list:
    """Four claims of the nu isomorphism as (axiom, lhs, rhs, basis dims) rows, which nu_iso does not read.

    Column s of nu is nu(E_s) : V -> A flattened with rows (y, v), and nu_t
    holds the same maps transposed, rows (v, y).  Two claims precompose
    nu(E_s) with an endomorphism of V: nu-multiplicative with the factor
    x -> x_1 f(x_2) of f = nu(E_s1), since f *_l g = g . ra . (id_V (x) f)
    . comul, and nu-left-linear with x -> x a_j, since (a.h)(x) = h(x a).
    With endomorphism T_k stored as column k of a matrix, at row (w, v) for
    T_k[v, w], the pairs (that matrix, n) then (n, nu_cols) send k (x) s to
    (nu(E_s) . T_k)^T, where nu_cols is nu with rows y and columns (v, s).
    The factors of every s1 (stars) take two products, and they read the
    coring's own right action and comultiplication.  nu_implied_rows holds
    the other two claims.
    """
    a = coring.entwining.algebra
    n, na = coring.dim, a.dim
    ra = coring.right_action
    nu_t = permute(nu, (na, n, n), (1, 0, 2), 2)
    nu_cols = permute(nu, (na, n, n), (0, 1, 2), 1)
    # star_s[v, w] = sum ra[v, (v', b)] nu(E_s)[b, v''] comul[(v', v''), w], at row (w, v) and column s
    images = permute(nu, (na, n, n), (2, 0, 1), 2)                      # rows (s, b), columns v''
    spread = images @ permute(coring.comul, (n, n, n), (1, 0, 2), 1)    # rows (s, b), columns (v', w)
    stars = permute(ra @ permute(spread, (n, na, n, n), (2, 1, 0, 3), 2), (n, n, n), (2, 0, 1), 2)
    right_by = permute(ra, (n, n, na), (1, 0, 2), 2)                     # column j: ra(- (x) a_j), rows (w, v)
    return [
        ("nu-image-left-linear", (nu, (na, coring.left_action.transpose())),
         (nu, (permute(a.mul, (na, na, na), (0, 1, 2), 2), n)), (n,)),
        ("nu-multiplicative", (smash.mul, nu_t), ((stars, n), (n, nu_cols)), (n, n)),
        ("nu-unit", (smash.unit, nu), Matrix.from_columns(coring.field, na * n, [coring.counit]), ()),
        ("nu-left-linear", (smash.left_action, nu_t), ((right_by, n), (n, nu_cols)), (na, n)),
    ]


def nu_implied_rows(coring, smash, nu, nu_inv) -> list:
    """nu_inv nu = id and nu(f . a) = nu(f) a, the rows that nu_laws leaves out."""
    a = coring.entwining.algebra
    n, na = coring.dim, a.dim
    nu_t = permute(nu, (na, n, n), (1, 0, 2), 2)
    return [("nu-inv-nu", (nu, nu_inv), Matrix.identity(coring.field, n), (n,)),
            ("nu-right-linear", (smash.right_action, nu_t), ((nu_t, na), (n, a.mul)), (n, na))]


@dataclass(frozen=True)
class Quotient:
    """C = D / W of a coextension, W = D.H+: the projection D -> C, C's coalgebra and C's action."""

    projection: Matrix
    coalgebra: StructurePresentation
    action: Matrix


def quotient_of(coext) -> Quotient:
    """The quotient that doikoppinen.coextension_quotient names and no command builds.

    C keeps the basis vectors at the columns where W's RREF has no pivot.
    Row r of the projection is e_c minus W's column c placed at the pivots,
    for the r-th free column c; the section C -> D is the standard vectors
    there.
    """
    w, d, h = coext.dplus, coext.d, coext.h
    free = [c for c in range(w.ambient) if c not in w.pivots]
    row_of = {c: r for r, c in enumerate(free)}
    proj = Matrix.from_entries(h.field, len(free), w.ambient, [(r, c, 1) for c, r in row_of.items()] + [
        (row_of[c], w.pivots[t], -v) for t, c, v in nonzeros(w.basis) if c in row_of])
    sect = Matrix.from_columns(d.field, d.dim, [Matrix.basis_column(d.field, d.dim, c) for c in free])
    coalgebra = make_structure("coalgebra", d.field, len(free), tuple(d.labels[c] + "~" for c in free),
                               comul=kron(proj, proj) @ d.comul @ sect, counit=d.counit @ sect)
    return Quotient(proj, coalgebra, proj @ coext.action @ kron(sect, h.identity_matrix()))


def projection_rows(coext, q: Quotient | None = None) -> list:
    """The projection D -> C as a map of H-module coalgebras, as (axiom, lhs, rhs, basis dims) rows.

    q is quotient_of(coext) unless given, as a test gives a corrupted one.
    """
    q = quotient_of(coext) if q is None else q
    d, nh, proj = coext.d, coext.h.dim, q.projection
    return [
        ("projection-comultiplicative", (proj, q.coalgebra.comul),
         (d.comul, (d.dim, proj), (proj, proj.rows)), (d.dim,)),
        ("projection-counital", (proj, q.coalgebra.counit), d.counit, (d.dim,)),
        ("projection-equivariant", (coext.action, proj), ((proj, nh), q.action), (d.dim, nh)),
    ]


def dplus_closure(h, d, action) -> report.Report:
    """counit-not-vanishing, not-a-coideal, then not-h-stable: the closure of W = D.H+ of a right H-module
    coalgebra D, which coextension_quotient leaves out.

    W is made from H, D and the action, as coextension_quotient makes it, so a bumped action moves it too.
    """
    f, nd, nh = h.field, d.dim, h.dim
    idd = Matrix.identity(f, nd)
    w = image(action @ kron(idd, kernel(h.counit).basis.transpose()))
    wt = w.basis.transpose()
    _, bad = express(kernel(d.counit).basis, wt)
    if bad is not None:
        return report.fail("coextension_quotient", "counit-not-vanishing", (bad,))
    mixed = Subspace.from_matrix_rows(kron(w.basis, idd)).add(Subspace.from_matrix_rows(kron(idd, w.basis)))
    _, bad = express(mixed.basis, d.comul @ wt)
    if bad is not None:
        return report.fail("coextension_quotient", "not-a-coideal", (bad,))
    _, bad = express(w.basis, action @ kron(wt, Matrix.identity(f, nh)))
    if bad is not None:
        return report.fail("coextension_quotient", "not-h-stable", divmod(bad, nh))
    return report.ok("coextension_quotient")


def antipode_bijective(h) -> report.Report:
    """The check dualize_coextension leaves out: the antipode of H inverts."""
    if invert(h.antipode) is None:
        return report.fail("dualize_coextension", "antipode-not-bijective")
    return report.ok("dualize_coextension")


def quotient_rows(coext, q: Quotient | None = None):
    """What coextension_quotient leaves unread besides the closure of W (dplus_closure): the quotient, then the
    projection; q is quotient_of(coext) unless given."""
    q = quotient_of(coext) if q is None else q
    yield "quotient-coalgebra", verify_structure("coalgebra", q.coalgebra)
    yield "quotient-module-coalgebra", verify_dk_compat("module-coalgebra", coext.h, q.coalgebra, q.action, "right")
    yield from projection_rows(coext, q)


def coinvariant_subalgebra(b, w) -> report.Report:
    """missing-unit, then not-a-subalgebra, as coinvariants checked the subspace w of b."""
    if not w.contains(b.unit):
        return report.fail("coinvariants", "missing-unit")
    wt = w.basis.transpose()
    _, bad = express(w.basis, b.mul @ kron(wt, wt))
    if bad is not None:
        return report.fail("coinvariants", "not-a-subalgebra", witness=divmod(bad, w.dim))
    return report.ok("coinvariants")


# input kind -> the intermediate that the arrow from it builds through
INNER_ARROWS = {"module-coalgebra": module_coalgebra_to_dual_module_algebra,
                "comodule-coalgebra": comodule_coalgebra_to_module_coalgebra}


def inner_ingredient(kind, h, x, m) -> report.Report:
    """The intermediate's own verification, which the two arrows through one leave out."""
    return verify_ingredient(INNER_ARROWS[kind](h, x, m))


def arrow_inputs(h) -> dict:
    """(kind, side) -> (H, X, map): a verified input of each kind that the dual arrows consume, built on h.

    Comodule coalgebras come from the grading of a group algebra, so h must
    be cocommutative for that input to be there.
    """
    left = dualize_dk_ingredient("comodule-algebra", h, h, h.comul, "module-algebra")
    out = {("comodule-algebra", "right"): (h, h, h.comul),
           ("module-algebra", "left"): (left.h, left.structure, left.matrix),
           ("module-algebra", "right"): (h, *translation_module_algebra(h)),
           ("module-coalgebra", "right"): (h, h, h.mul)}
    if h.comul == swap_matrix(h.field, h.dim, h.dim) @ h.comul:
        out["comodule-coalgebra", "right"] = (h, *grading_comodule_coalgebra(h))
    return out


def left_inverse_rows(c, a, f, g) -> list:
    """g * f = unit for g = convolution_inverse(c, a, f), the check that convolution_inverse leaves out."""
    return [("left-inverse", (c.comul, (c.dim, f), (g, a.dim), a.mul), (c.counit, a.unit), (c.dim,))]


def dual_integral(coext, inner):
    """check_integral of omega^T on D* over H*, as dualize_coextension built them: the reading it leaves out.

    inner is check_cointegral(coext, coext.cointegral); the IntegralReport
    carries the dual-integral-* verdicts and the inverse that
    inverse-transpose-mismatch compared with inner.inverse transposed.
    """
    ext, _ = dualize_coextension(coext, inner)
    return check_integral(ext, coext.cointegral.transpose())


def entwining_coherence(s, e=None) -> report.Report:
    """The DK psi of dual_dk(s) against e.psi transposed, for e = dk_entwining(s) unless given: the row that dk and
    dualize leave out, with the report they print."""
    e = dk_entwining(s) if e is None else e
    dual = dual_dk(s)
    bad = report.compare("dual_dk", "entwining-coherence", dk_entwining(dual).psi, e.psi.transpose(),
                         (dual.coalg.dim, dual.alg.dim))
    return bad if bad is not None else report.ok("dual_dk", entwining_coherence=True)


def coinvariants_match(coext) -> report.Report:
    """The coinvariants of D* over H*, as dualize_coextension builds D*, against the image of the projection's
    transpose: the check that cocleft leaves out."""
    dstar = module_coalgebra_to_comodule_algebra(coext.h, coext.d, coext.action)
    got = coinvariants(dstar.h, dstar.structure, dstar.matrix)
    expected = Subspace.from_matrix_rows(quotient_of(coext).projection)
    if got != expected:
        return report.fail("dualize_coextension", "coinvariants-mismatch", lhs=got.basis.render(),
                           rhs=expected.basis.render())
    return report.ok("dualize_coextension")


def dual_entwining_rows(d):
    """What dual_entwining leaves unread: A~, C~, the two measuring pairings, then the dual's psi laws."""
    yield "dual-algebra", verify_structure("algebra", d.atil)
    yield "dual-coalgebra", verify_structure("coalgebra", d.ctil)
    yield "dual-pairings", verify_measuring_pairing(d.pairing_a_ctil())
    yield "dual-pairings", verify_measuring_pairing(d.pairing_atil_c())
    yield "dual-psi-laws", psi_laws(d.dual)


def psi_laws(e) -> report.Report:
    """The four psi laws of e alone, which dk_entwining, alt_dk_entwining and dual_entwining leave unread."""
    return report.first_failure("verify_entwining", entwining_laws(e))


def module_output(out) -> report.Report:
    """An entwined module built by dual_module_r, dual_module_upper_r or smash_module_to_entwined, read over
    the entwining it lives on: the check those functors leave out."""
    return verify_entwined_module(out.entwining, out)


def dual_morphism_transpose(d_e, d_f, gamma, delta) -> report.Report:
    """(delta*, gamma*) as a morphism dual(d_f) -> dual(d_e), the check dual_entwining_morphism leaves out."""
    delta_star, _ = express(d_e.atil_basis, (d_f.atil_basis @ delta).transpose())
    gamma_star, _ = express(d_e.ctil_basis, (d_f.ctil_basis @ gamma).transpose())
    return verify_entwining_morphism(d_f.dual, d_e.dual, delta_star, gamma_star)


def verify_ingredient(x) -> report.Report:
    """The laws of a DKIngredient, which no arrow reads: the output-ingredient oracle."""
    return verify_dk_compat(x.kind, x.h, x.structure, x.matrix, x.side)


def rational_route(h, a, action):
    """module_algebra_to_comodule_algebra by elimination: (rational part W, its algebra, its coaction).

    The reference for the arrow, which re-indexes the action instead: Rat
    of the left H-module A against the evaluation pairing of H with H*,
    with the multiplication carried to W, raising CheckError as the
    rational-part-* checks did.  rational-part-proper is W smaller than A.
    """
    u = dualize_structure(None, h)
    rat = rational_submodule(PairingPresentation(h, u, Matrix.identity(h.field, h.dim)),
                             ModulePresentation(a.dim, h, action, "left"))
    w = rat.subspace
    unit, _ = w.coordinates(a.unit)
    if unit is None:
        raise report.CheckError(report.fail("dualize_dk_ingredient", "rational-part-missing-unit"))
    wt = w.basis.transpose()
    mul, bad = express(w.basis, a.mul @ kron(wt, wt))
    if mul is None:
        raise report.CheckError(report.fail("dualize_dk_ingredient", "rational-part-not-subalgebra",
                                            witness=divmod(bad, w.dim)))
    if w.dim != a.dim:
        raise report.CheckError(report.fail("dual_dk", "rational-part-proper", dim=w.dim))
    labels = tuple(f"r{i}" for i in range(w.dim))
    return w, make_structure("algebra", h.field, w.dim, labels, mul=mul, unit=unit), rat.coaction


# ---------------------------------------------------------------------------
# Pairings and dual modules: constructions that only tests call.


def harpoon_action_matrix(p, side: str = "left-harpoon") -> Matrix:
    """The action matrix A (x) C -> C (or C (x) A -> C) realizing the harpoons."""
    na, nc = p.algebra.dim, p.coalgebra.dim
    f = p.algebra.field
    if side == "left-harpoon":
        pairs = [(i, j) for i in range(na) for j in range(nc)]
    else:
        pairs = [(i, j) for j in range(nc) for i in range(na)]
    return Matrix.from_columns(f, nc, [pairing_action(p, side, i, j) for i, j in pairs])


def birational_subspace(p, m, right_action: Matrix):
    """Intersection of the left and right rational parts of a bimodule, given as the left module m."""
    if m.action_side != "left":
        raise PresentationError("birational_subspace needs m to be the left module")
    left = rational_submodule(p, m).subspace
    right = rational_submodule(p, ModulePresentation(m.dim, m.algebra, right_action, "right")).subspace
    return left.intersect(right)


def coaction_from_module(p, m) -> Matrix:
    """Recover the coaction of a fully rational module (Rat = M required)."""
    rat = rational_submodule(p, m)
    if rat.dim != m.dim:
        raise PresentationError("module is not rational: Rat is a proper subspace")
    f = p.matrix.field
    nc = p.coalgebra.dim
    # rewrite the coaction from subspace coordinates back to the module basis
    b = rat.subspace.basis
    binv = solve_linear(b.transpose(), Matrix.identity(f, m.dim))
    if rat.side == "left":
        lift = kron(b.transpose(), Matrix.identity(f, nc))
    else:
        lift = kron(Matrix.identity(f, nc), b.transpose())
    return lift @ rat.coaction @ binv


def dual_morphism_r(f: Matrix, source, target) -> Matrix:
    """The dual of a morphism f : M -> N, as a map N_r -> M_r in the bases of the dual modules."""
    raw = target.basis @ f  # rows: the functionals h . f on M
    f_r, _ = express(source.basis, raw.transpose())
    if f_r is None:
        raise report.CheckError(report.fail("dual_morphism_r", "image-outside-subspace"))
    return f_r


# ---------------------------------------------------------------------------
# Doi-Koppinen duality that no command reaches.


def dual_alt_dk(s):
    """Alternative structures do not dualize componentwise in general."""
    raise UnsupportedDualization(
        "not supported: the dual of an alternative structure need not be an "
        "alternative structure, so no dualization is attempted")


def dual_dk_morphism(s, t, beta: Matrix, gamma: Matrix, delta: Matrix) -> report.Report:
    """The transposed triple as a morphism between the dual structures; s and t are verified here."""
    for x in (s, t):
        report.require(verify_dk(x))
    rep = verify_dk_morphism(s, t, beta, gamma, delta)
    if not rep.passed:
        return rep
    # full duals: delta* automatically lands in C0 = C*
    return verify_dk_morphism(dual_dk(t), dual_dk(s), beta.transpose(), delta.transpose(), gamma.transpose())


# ---------------------------------------------------------------------------
# Handed laws: the left rows as they were written by hand, before src read each one as its right row through
# report.mirror, and rational_submodule with one branch per side.  The oracles the mirrored rows and the
# one-core rational_submodule are held to.


def left_module_rows(m) -> list:
    """The hand-written left rows of _module_checks: associativity and unit of A (x) M -> M."""
    a, n, act = m.algebra, m.dim, m.action
    return [("action-associativity", ((a.dim, act), act), ((a.mul, n), act), (a.dim, a.dim, n)),
            ("action-unit", ((a.unit, n), act), Matrix.identity(a.field, n), (n,))]


def left_comodule_rows(m) -> list:
    """The hand-written left rows of _comodule_checks: coassociativity and counit of M -> C (x) M."""
    c, n, coact = m.coalgebra, m.dim, m.coaction
    return [("coaction-coassociativity", (coact, (c.dim, coact)), (coact, (c.comul, n)), (n,)),
            ("coaction-counit", (coact, (c.counit, n)), Matrix.identity(c.field, n), (n,))]


def left_compat_rows(kind: str, h, x, m) -> list:
    """The hand-written left interaction rows of doikoppinen._compat_laws for kind."""
    nh, nx = h.dim, x.dim
    mm = ((m.cols, m), (m, m.rows))

    def swap(*dims):
        return Permutation(h.field, dims, (0, 2, 1, 3))

    laws = {
        "module-algebra": lambda: [
            ("action-multiplicative", ((nh, x.mul), m),
             ((h.comul, nx * nx), swap(nh, nh, nx, nx), *mm, x.mul), (nh, nx, nx)),
            ("action-on-unit", ((nh, x.unit), m), (h.counit, x.unit), (nh,))],
        "module-coalgebra": lambda: [
            ("action-comultiplicative", (m, x.comul),
             ((nh, x.comul), (h.comul, nx * nx), swap(nh, nh, nx, nx), *mm), (nh, nx)),
            ("action-counital", (m, x.counit), ((nh, x.counit), h.counit), (nh, nx))],
        "comodule-algebra": lambda: [
            ("coaction-multiplicative", (x.mul, m),
             (*mm, swap(nh, nx, nh, nx), (nh * nh, x.mul), (h.mul, nx)), (nx, nx)),
            ("coaction-on-unit", (x.unit, m), (x.unit, (h.unit, nx)), (1,))],
        "comodule-coalgebra": lambda: [
            ("coaction-comultiplicative", (m, (nh, x.comul)),
             (x.comul, *mm, swap(nh, nx, nh, nx), (h.mul, nx * nx)), (nx,)),
            ("coaction-counital", (m, (nh, x.counit)), (x.counit, h.unit), (nx,))],
    }
    return laws[kind]()


def rational_submodule_two_branch(p, m):
    """structures.rational_submodule with one branch per side, rho and alpha laid out for each.

    The reference for the one left-handed core, which reads a right action
    as a left one.  Only the rank criterion is checked: the algebra checks
    of rational_submodule come before its core.
    """
    side = m.action_side
    criterion = check_alpha_condition(p)
    if not criterion.passed:
        raise AlphaConditionError(criterion)
    f = p.matrix.field
    mdim, na, nc = m.dim, p.algebra.dim, p.coalgebra.dim
    if side == "left":  # action[i, (j, k)] -> rho[(i, j), k]
        rho = permute(m.action, (mdim, na, mdim), (0, 1, 2), 2)
    else:  # action[i, (k, j)] -> rho[(i, j), k]
        rho = permute(m.action, (mdim, mdim, na), (0, 2, 1), 2)
    # alpha : M (x) C -> Hom(A, M) (or C (x) M for right modules)
    alpha = permute(kron(Matrix.identity(f, mdim), p.matrix), (mdim, na, mdim, nc),
                    (0, 1, 2, 3) if side == "left" else (0, 1, 3, 2), 2)
    w = preimage(rho, image(alpha))
    k = w.dim
    wt = w.basis.transpose()
    x, bad = express(alpha.transpose(), rho @ wt)
    if x is None:
        raise report.CheckError(report.fail("rational_submodule", "internal-rho-outside-alpha-image", (bad,)))
    if side == "left":
        legs = permute(x, (mdim, nc, k), (0, 2, 1), 1)
        images = permute(m.action @ kron(Matrix.identity(f, na), wt), (mdim, na, k), (0, 2, 1), 1)
    else:
        legs = permute(x, (nc, mdim, k), (1, 2, 0), 1)
        images = m.action @ kron(wt, Matrix.identity(f, na))
    coact, bad = express(w.basis, legs)
    if coact is None:
        raise report.CheckError(report.fail("rational_submodule", "coaction-leaves-subspace", divmod(bad, nc)))
    act, bad = express(w.basis, images)
    if act is None:
        raise report.CheckError(report.fail("rational_submodule", "action-leaves-subspace", divmod(bad, na)))
    if side == "left":
        coaction = permute(coact, (k, k, nc), (0, 2, 1), 2)
        action = permute(act, (k, k, na), (0, 2, 1), 1)
    else:
        coaction = permute(coact, (k, k, nc), (2, 0, 1), 2)
        action = act
    return RationalSubmodule(w, action, coaction, side, criterion)


def _restrict_right_action(action: Matrix, w: Subspace, adim: int, op: str) -> Matrix:
    """Rewrite a right action on the ambient space in subspace coordinates."""
    # column (t, j) of the images is w_t acted on by a_j
    images = action @ kron(w.basis.transpose(), Matrix.identity(action.field, adim))
    coords, bad = express(w.basis, images)
    if coords is None:
        raise report.CheckError(report.fail(op, "action-leaves-subspace", witness=divmod(bad, adim)))
    return coords


def dual_module_r_by_permutes(d, m) -> DualModule:
    """duality.dual_module_r written on its own: the right A~-action on M* through C* and two permutes.

    With dual_module_upper_r_by_permutes, the reference for the one core that
    reads both right actions as a transposed coaction along a pairing.
    """
    e = d.source
    na, nc = e.algebra.dim, e.coalgebra.dim
    lact = dual_action_on_dual(m.action, m.dim, na, "right")
    cstar_on_m = coaction_to_dual_action(m.coaction, m.dim, nc)
    # the C*-action restricted to A~, the span of the atil_basis functionals
    atil_on_m = cstar_on_m @ kron(d.atil_basis.transpose(), Matrix.identity(e.field, m.dim))
    ract_mstar = dual_action_on_dual(atil_on_m, m.dim, d.atil.dim, "left")
    rat = rational_submodule(d.pairing_a_ctil(), ModulePresentation(m.dim, e.algebra, lact, "left"))
    ract = _restrict_right_action(ract_mstar, rat.subspace, d.atil.dim, "dual_module_r")
    return DualModule(rat.subspace.basis, EntwinedModulePresentation(d.dual, rat.dim, ract, rat.coaction))


def dual_module_upper_r_by_permutes(d, k) -> DualModule:
    """duality.dual_module_upper_r written on its own: the right A-action on K* through module_from_coaction."""
    na = d.source.algebra.dim
    lact = dual_action_on_dual(k.action, k.dim, d.atil.dim, "right")
    # left A-action on K through the dual-coalgebra coaction
    a_on_k = module_from_coaction(d.pairing_a_ctil(), k.coaction, k.dim)
    ract_kstar = dual_action_on_dual(a_on_k, k.dim, na, "left")
    rat = rational_submodule(d.pairing_atil_c(), ModulePresentation(k.dim, d.atil, lact, "left"))
    ract = _restrict_right_action(ract_kstar, rat.subspace, na, "dual_module_upper_r")
    return DualModule(rat.subspace.basis, EntwinedModulePresentation(d.source, rat.dim, ract, rat.coaction))


# ---------------------------------------------------------------------------
# Kronecker layouts: rational_submodule and hom_entwined_system as they were written before each was solved on
# its factors.  The oracles the factor-wise versions are held to.


def rational_submodule_by_layout(p, m):
    """structures.rational_submodule on the layouts: W = preimage(rho, image(id_M (x) P)), and every solve by express.

    The reference for the core that takes W as the kernel of (id_M (x) N) rho, reads the legs off one solve on P
    and the coordinates at W's pivots.
    """
    if m.action is None:
        raise PresentationError("rational_submodule needs an action")
    if m.algebra.dim != p.algebra.dim or m.algebra.field != p.algebra.field:
        raise DimensionMismatch(
            f"the module's algebra (dim {m.algebra.dim} over {m.algebra.field}) does not match "
            f"the pairing's (dim {p.algebra.dim} over {p.algebra.field})")
    if (m.algebra.mul, m.algebra.unit) != (p.algebra.mul, p.algebra.unit):
        raise PresentationError("the module's algebra does not match the pairing's in its multiplication or unit")
    criterion = check_alpha_condition(p)
    if not criterion.passed:
        raise AlphaConditionError(criterion)
    f = p.matrix.field
    mdim, na, nc = m.dim, p.algebra.dim, p.coalgebra.dim
    lact = m.action if m.action_side == "left" else permute(m.action, (mdim, mdim, na), (0, 2, 1), 1)
    rho = permute(lact, (mdim, na, mdim), (0, 1, 2), 2)
    alpha = kron(Matrix.identity(f, mdim), p.matrix)
    w = preimage(rho, image(alpha))
    k = w.dim
    wt = w.basis.transpose()
    x, bad = express(alpha.transpose(), rho @ wt)
    if x is None:
        raise report.CheckError(report.fail("rational_submodule", "internal-rho-outside-alpha-image", (bad,)))
    legs = permute(x, (mdim, nc, k), (0, 2, 1), 1)
    images = permute(lact @ kron(Matrix.identity(f, na), wt), (mdim, na, k), (0, 2, 1), 1)
    coact, bad = express(w.basis, legs)
    if coact is None:
        raise report.CheckError(report.fail("rational_submodule", "coaction-leaves-subspace", divmod(bad, nc)))
    act, bad = express(w.basis, images)
    if act is None:
        raise report.CheckError(report.fail("rational_submodule", "action-leaves-subspace", divmod(bad, na)))
    if m.action_side == "left":
        return RationalSubmodule(w, permute(act, (k, k, na), (0, 2, 1), 1), permute(coact, (k, k, nc), (0, 2, 1), 2),
                                 "left", criterion)
    return RationalSubmodule(w, act, permute(coact, (k, k, nc), (2, 0, 1), 2), "right", criterion)


def hom_entwined_system_by_kron(e, m, n) -> Matrix:
    """entwining.hom_entwined_system with each of its four parts laid out as a kron with an identity, permuted."""
    na, nc = e.algebra.dim, e.coalgebra.dim
    nm, nn, f = m.dim, n.dim, e.field
    idm, idn = Matrix.identity(f, nm), Matrix.identity(f, nn)
    lin = kron(idn, m.action.transpose()) \
        - permute(kron(n.action, idm), (nn, nm, nn, na, nm), (0, 1, 3, 2, 4), 3)
    colin = kron(n.coaction, idm) - kron(idn, permute(m.coaction, (nm, nc, nm), (1, 2, 0), 2))
    return lin.vstack(colin)


@pytest.fixture
def rng():
    return random.Random(20240817)


BOTH_FIELDS = (QQ, Field(5))
