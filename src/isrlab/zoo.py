"""Named subalgebra constructions, witness computations, and growth suites.

Every scenario here is deterministic given its parameters.  A suite is
a generator under ``suite``: it yields one row at a time, in report
order, and the ``suite`` driver builds the JSON-ready report {name,
anchor, parameters, checks} from them; the driver is the only code that
knows that layout.  Checks carry exact values only — rationals are
rendered as "p/q" strings, never floats.  Each builder's support window
is licensed by a finite-orbit containment; the anchor string names the
statement being instantiated.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .algebra import (
    AlgebraElement,
    GaussianRational,
    _moved,
    ad,
    combine,
    inner_product,
    unit,
)
from .characters import (
    CharacterSpec,
    evaluate,
    is_central,
    is_positive_definite,
)
from .errors import DimensionOutOfRange, ModulusOutOfRange, Overflow
from .expectation import (
    SubalgebraSpec,
    character_of,
    check_E_properties,
    check_ES_subset_S,
    verify_closure,
    verify_invariance,
)
from .f2 import (
    F2Matrix,
    F2Vector,
    _range_basis,
    _subset_sums,
    mat_inverse,
    range_subgroup,
    transvection_factorize,
)
from .groups import (
    DEFAULT_CAP,
    Affine,
    Cantor,
    Lamplighter,
    Truncation,
    Wreath,
    affine_vector_centralizer_gens,
    cantor_indicator_centralizer_gens,
    cantor_involution_centralizer_gens,
    capped_count,
    cylinder_points,
    enumerate_group,
    gl_elements,
    multiply,
    normal_closure,
    orbit_under,
    transposition,
    truncation,
)
from .projections import (
    CylinderWord,
    PartitionSpec,
    _stars,
    _unit_rows,
    cylinder_conjugation_check,
    half_projection,
    make_cylinder,
    make_f,
    make_part_generator,
    make_q_power,
    walsh_sum,
    word_times_matrix,
)
from .serialize import encode_algebra, encode_coefficient, encode_rational

DEFAULT_SEED = 7


# ---------------------------------------------------------------------------
# report plumbing


def _render(v):
    if isinstance(v, AlgebraElement):
        return encode_algebra(v)
    if isinstance(v, GaussianRational):
        return encode_coefficient(v)
    if isinstance(v, Fraction):
        return encode_rational(v)
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    if isinstance(v, (list, tuple)):
        return [_render(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _render(x) for k, x in v.items()}
    return str(v)


def check(description: str, expected, actual, passed: bool | None = None) -> dict:
    """One report row.  It passes when the rendered expected and actual
    agree, or, for a predicate row, when ``passed`` holds."""
    e, a = _render(expected), _render(actual)
    return {
        "description": description,
        "expected": e,
        "actual": a,
        "pass": e == a if passed is None else bool(passed),
    }


def suite(body):
    """Runs a suite body, the only code that knows the report's layout.

    The body is a generator.  It yields the argument tuple of one
    ``check`` per row, in report order, and returns (name, anchor,
    parameters) or (name, anchor, parameters, extra keys).  Rows are
    pulled one at a time, so each one is computed after the rows above
    it, and a body that refuses its input raises from the call."""

    @functools.wraps(body)
    def run(*args, **kwargs) -> dict:
        rows = body(*args, **kwargs)
        checks = []
        try:
            while True:
                checks.append(check(*next(rows)))
        except StopIteration as done:
            name, anchor, parameters, *extra = done.value
        out = {"name": name, "anchor": anchor, "parameters": _render(parameters), "checks": checks}
        for keys in extra:  # observations, tables
            out.update(_render(keys))
        return out

    return run


def report_passed(rep: dict) -> bool:
    return all(c["pass"] for c in rep["checks"])


# ---------------------------------------------------------------------------
# M_exo: the subalgebra spanned by {u_g f_g u_v} in the affine family


def _coset_basis(window, n: int, gens_of) -> list:
    """head·u_v for each 2^n-element coset {(g, v)} of the window (contiguous,
    v ascending, in ``elements`` order) and each v, for the head
    walsh_sum(coset.__getitem__, gens_of(coset[0])) = 2^{-k} Σ_z ε_z u_{(g, z)}:
    the relabel (g, z) -> coset[z ^ v].  v + z gives ε_z times v's vector,
    so one vector is shared per class of v modulo the z with ε_z = +1; a −1
    class gets its own relabel, keeping walsh_sum's shared coefficient pairs."""
    basis = []
    for i in range(0, len(window), 1 << n):
        coset = window[i : i + (1 << n)]
        head = walsh_sum(coset.__getitem__, gens_of(coset[0]))
        terms = [(g.bits, d) for g, d in head.ints.items()]
        plus = [z for z, d in terms if d[0] > 0]
        made: list = [None] * (1 << n)
        for v in range(1 << n):
            if made[v] is None:
                b = head if not v else AlgebraElement._trusted(
                    head.den, {coset[z ^ v]: d for z, d in terms}
                )
                for z in plus:
                    made[z ^ v] = b
        basis += made
    return basis


def build_mexo(n: int, cap: int = DEFAULT_CAP) -> SubalgebraSpec:
    """Span of {u_g·f_g·u_v : g ∈ GL(n,F2), v ∈ F2^n}; contains every u_v
    (g = I gives f_I = 1) and is closed by f_{h^{-1}gh}·f_h = f_{gh}·f_h."""
    window = MODELS["mexo"].window(n, 1, cap)
    basis = _coset_basis(window.elements, n, lambda x: [(b, 1) for b in _range_basis(x.rows)])
    return SubalgebraSpec(f"mexo:n={n}", basis, window)


def mexo_expected_expectation(x: Affine) -> AlgebraElement:
    """u_g·f_g·u_v — the closed form of E(u_{g·v}) on the mexo span."""
    return unit(Affine.matrix(x.g)) * make_f(x.g) * unit(Affine.vector(x.v))


def mexo_exoticness_witness(n: int, spec: SubalgebraSpec | None = None) -> bool:
    """True only if the span is none of L({e}), L(F2^n), L(G), the group
    algebras of the normal-subgroup candidates, read off three
    memberships.  With t = I+E12, x = u_t(u_0 − u_{e1}) is orthogonal to
    the span and ⟨x, u_t⟩ = 1, so u_t lies outside it: not L(G).  u_{e1},
    of trace 0, lies in it: not the scalars.  u_t·f_t, whose support
    holds (t, 0) with t ≠ I, lies in it: not L(F2^n).  Those three fixed
    facts are pinned in the tests, not recomputed here.

    ``spec`` is build_mexo(n), built here when not given.  The pairings
    τ(x*b) are read as ⟨x, b⟩, with no product, once per distinct b."""
    if n < 2:
        raise DimensionOutOfRange("witness needs dimension at least 2")
    if spec is None:
        spec = build_mexo(n)
    t = F2Matrix.transvection(1, 2)
    ut = unit(Affine.matrix(t))
    x = ut * (unit(Affine.vector(F2Vector(0))) - unit(Affine.vector(F2Vector.basis(1))))
    if any(not inner_product(x, b).is_zero() for b in spec._distinct):
        return False
    return spec.contains(unit(Affine.vector(F2Vector.basis(1)))) and spec.contains(ut * make_f(t))


def mexo_fproduct_identity(g: F2Matrix) -> bool:
    """With s1…sk = transvection_factorize(g) and t_i = s_{i+1}…s_k,
    the ordered product of f_{t_i^{-1} s_i t_i} equals f_g."""
    factors = transvection_factorize(g)
    k = len(factors)
    suffix = F2Matrix.identity()
    conjugated = []
    for i in range(k - 1, -1, -1):
        ti = suffix
        ti_inv = mat_inverse(ti)
        conjugated.append(ti_inv * factors[i] * ti)
        suffix = factors[i] * suffix
    conjugated.reverse()
    prod = unit(Affine.identity())
    for c in conjugated:
        prod = prod * make_f(c)
    return prod == make_f(g)


@suite
def suite_mexo(n: int = 2, seed: int = DEFAULT_SEED, cap: int = DEFAULT_CAP):
    spec = build_mexo(n, cap)
    if n == 2:
        yield "closure of the span", True, verify_closure(spec)
        # the generators suffice: each element has finite order, so the
        # group they generate is their positive words
        yield "invariance under the full truncation", True, verify_invariance(
            spec, Affine.generators(n)
        )
        pool = enumerate_group("affine", n, cap)
    else:
        rng = random.Random(seed)
        full = enumerate_group("affine", n, cap)
        pool = [full[rng.randrange(len(full))] for _ in range(50)]
    yield f"E(u_g·v) = u_g f_g u_v on {len(pool)} elements", True, all(
        spec.expect_unit(x) == mexo_expected_expectation(x) for x in pool
    )
    chi = CharacterSpec("affine", k=1, d=1)
    yield "expectation character is 2^{-rank(g-I)}", True, all(
        character_of(spec, x) == evaluate(chi, x) for x in pool
    )
    s12 = Affine.matrix(F2Matrix.swap(1, 2))
    yield (
        "E(u_s) for the coordinate swap is u_s([0,0]+[1,1])",
        mexo_expected_expectation(s12),
        spec.expect_unit(s12),
    )
    yield "exoticness witness", True, mexo_exoticness_witness(n, spec)
    return (
        spec.label,
        "span{u_g f_g u_v} is an invariant subalgebra strictly between L(F2^n) and L(G)",
        {"n": n, "seed": seed, "basis_size": len(spec.basis)},
    )


# ---------------------------------------------------------------------------
# the f-calculus: commuting projection laws and the factorization identity


def _f_calculus_keys(gl, n: int) -> tuple[dict, set, dict]:
    """The range keys the f-calculus laws read, from packed rows.

    Returns ``r``, which maps each g of GL(n, F2) (listed in ``gl``) to
    its key R(g-I), the set of triples (R_g, R_h, R_gh) over all pairs,
    and for each key a and each h the key of h^{-1}gh, for g the first
    element of ``gl`` with R_g = a.  Equal subspaces share one key
    object, so key tuples match by identity.  Rows are padded to n, and
    row i of x·y is entry x_i of y's subset-sum table, so a product
    costs n list reads; its key is read off its rows (None for rows of
    no element of ``gl``).
    """
    keys: dict = {}
    r = {}
    for g in gl:
        s = range_subgroup(g)
        r[g] = keys.setdefault(s, s)

    def pad(g: F2Matrix) -> tuple[int, ...]:
        return g.rows + tuple([1 << i for i in range(g.n, n)])

    keyed = [(r[g], pad(g)) for g in gl]
    key_of = {rows: a for a, rows in keyed}.get
    sums = {g: _subset_sums(pad(g)) for g in gl}
    reps: dict = {}
    for g in gl:
        reps.setdefault(r[g], g)
    dom, conj = set(), {}
    for h in gl:
        sh, kh = sums[h].__getitem__, r[h]
        for a, rows in keyed:
            dom.add((a, kh, key_of(tuple(map(sh, rows)))))
        hinv = pad(mat_inverse(h))
        for a, g in reps.items():
            sg = sums[g]
            conj[a, h] = key_of(tuple([sh(sg[x]) for x in hinv]))
    return r, dom, conj


@suite
def f_calculus_report(n: int = 3, cap: int = DEFAULT_CAP):
    """f_g f_h = f_h f_g ≤ f_{gh} on all GL(n,F2) pairs, plus recomposition
    and range-sum checks of transvection_factorize and the conjugated
    f-product identity, for every non-identity element.  The pair check
    is refused when it has more than cap pairs."""
    if n < 2:
        raise DimensionOutOfRange(f"fcalculus truncation {n} below 2: GL(n, F2) is trivial")
    # |GL(n,F2)| = |Affine(n)|/2^n ≥ 2^{n(n-1)}
    pairs = capped_count(
        2 * (Affine.order_log2_floor(n) - n),
        lambda: (Affine.order(n) >> n) ** 2,
        cap,
        lambda text: Overflow(f"fcalculus at n={n} checks {text} pairs, above cap {cap}"),
    )
    gl = gl_elements(n)
    # f_g only depends on R(g-I), so each law is checked once per distinct
    # key it depends on
    r, dom, conj = _f_calculus_keys(gl, n)
    f = {r[g]: make_f(g) for g in gl}
    # every pair of subspaces occurs as (R_g, R_h); equal products are
    # interned by (den, ints), so dominance is checked once per distinct
    # (f_a·f_b, c) pair
    interned: dict = {}
    products = {(a, b): interned.setdefault(p := f[a] * f[b], p) for a in f for b in f}
    dominance = {(id(p := products[a, b]), c): p for a, b, c in dom}
    # a key outside f marks a product row set that is not in GL(n, F2)
    yield (
        f"f_g f_h = f_h f_g ≤ f_gh and f_g u_h = u_h f_(h^-1 gh) on {pairs} pairs",
        True,
        all(p == products[b, a] for (a, b), p in products.items())
        # p ≤ q for projections means pq = p
        and all(c in f and p * f[c] == p for (_, c), p in dominance.items())
        # f_g u_h = u_h f_{h^{-1}gh}, read as u_h f_{h^{-1}gh} u_h^{-1} = f_g
        and all(c in f and ad(Affine.matrix(h), f[c]) == f[a] for (a, h), c in conj.items()),
    )
    factored = {g: transvection_factorize(g) for g in gl if not g.is_identity()}
    yield "factorizations recompose to g", True, all(
        math.prod(factors, start=F2Matrix.identity()) == g for g, factors in factored.items()
    )
    # the subgroup sum of the R(t - I) is spanned by their bases together
    yield "factor ranges sum to R(g-I)", True, all(
        set(_subset_sums([v for t in factors for v in _range_basis(t.rows)]))
        == set(_subset_sums(_range_basis(g.rows)))
        for g, factors in factored.items()
    )
    yield "conjugated f-product equals f_g for every g ≠ I", True, all(
        mexo_fproduct_identity(g) for g in factored
    )
    return (
        f"fcalculus:n={n}",
        "f_g is the range projection of R(g-I); products obey the subspace-sum law",
        {"n": n, "pairs": pairs},
    )


# ---------------------------------------------------------------------------
# cylinder calculus


@suite
def suite_cylinder(n: int = 3, cap: int = DEFAULT_CAP):
    """Fully specified words match their signed-sum form; the conjugation
    rule u_g[w]u_g* = [w·g^{-1}] holds on every in-hypothesis pair.  The
    pair loop is refused when GL(n,F2) × the words has more than cap
    pairs."""
    if n < 2:
        raise DimensionOutOfRange(f"cylinder truncation {n} below 2: GL(n, F2) is trivial")
    # |GL(n,F2)|·Σ_k 3^k ≥ |GL(n,F2)|·2^n = |Affine(n)|
    capped_count(
        Affine.order_log2_floor(n),
        lambda: (Affine.order(n) >> n) * sum(3**k for k in range(1, n + 1)),
        cap,
        lambda text: Overflow(f"cylinder at n={n} checks {text} pairs, above cap {cap}"),
    )
    # make_cylinder's signed sum against the product of its ½(1 ± u_{e_i})
    signed_ok = True
    for length in range(1, 5):
        for bits in itertools.product((0, 1), repeat=length):
            product = unit(Affine.identity())
            for i, c in enumerate(bits, 1):
                product = product * half_projection(Affine.vector(F2Vector.basis(i)), (-1) ** c)
            signed_ok &= make_cylinder(CylinderWord(bits)) == product
    yield "[w] equals its signed-sum expansion, words up to length 4", True, signed_ok
    conj_total = 0
    conj_ok = True
    letters = (0, 1, "*")
    words = [
        CylinderWord(t)
        for length in range(1, n + 1)
        for t in itertools.product(letters, repeat=length)
    ]
    # cylinder_conjugation_check on each pair, with g's inverse, unit-row
    # mask and conjugation made once per g and each word's ⋆-mask once
    starred = [(w, _stars(w, n)) for w in words]
    for g in gl_elements(n):
        ginv = mat_inverse(g)
        units = _unit_rows(ginv, n)
        conj = Affine.matrix(g).conjugation()
        for w, stars in starred:
            if stars & ~units:
                continue
            conj_total += 1
            if _moved(make_cylinder(w), conj) != make_cylinder(word_times_matrix(w, ginv)):
                conj_ok = False
    yield f"u_g[w]u_g* = [w·g^-1] on {conj_total} in-hypothesis pairs", True, conj_ok
    return (
        f"cylinder:n={n}",
        "cylinder idempotents transform as row vectors under the GL action",
        {"n": n, "in_hypothesis_pairs": conj_total},
    )


# ---------------------------------------------------------------------------
# M_Q and M_Part in the wreath family


def build_mq(n: int, sign: int = 1, cap: int = DEFAULT_CAP) -> SubalgebraSpec:
    """Span of {u_s·Q^{supp(s)}·u_v : s ∈ S_n, v ∈ Z2^n};
    u_s·Q^{supp(s)} = ∏ ½(1 ± u_{(s, e_j)}) over the e_j that s moves."""
    window = MODELS["mq"].window(n, sign, cap)
    basis = _coset_basis(
        window.elements, n, lambda x: [(1 << i, sign) for i, j in enumerate(x.sigma) if i != j]
    )
    label = f"mq:n={n},sign={'+' if sign > 0 else '-'}"
    return SubalgebraSpec(label, basis, window)


def mq_expected_expectation(x: Wreath, sign: int) -> AlgebraElement:
    """u_s·Q^{supp(s)}·u_v — the closed form of E(u_{s·v}) on the mq span."""
    moved = {j + 1 for j, i in enumerate(x.sigma) if i != j}
    return unit(Wreath.perm(x.sigma)) * make_q_power(sign, moved) * unit(Wreath.vector(x.v))


def _partitions_of(n: int):
    """All set partitions of {1..n}, deterministically ordered."""
    if n == 0:
        yield []
        return
    for rest in _partitions_of(n - 1):
        yield rest + [[n]]
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [n]] + rest[i + 1 :]


def _block_preserving_perms(blocks, n: int):
    """Permutations of {0..n-1} fixing each (1-indexed) block setwise."""
    per_block = []
    for block in blocks:
        pts = sorted(i - 1 for i in block)
        per_block.append([dict(zip(pts, img)) for img in itertools.permutations(pts)])
    for choice in itertools.product(*per_block):
        p = list(range(n))
        for mapping in choice:
            for src, dst in mapping.items():
                p[src] = dst
        yield tuple(p)


def build_mpart(n: int, cap: int = DEFAULT_CAP) -> SubalgebraSpec:
    """Span of the partition generators s·∏_K(P1^K + sign(s|_K)P2^K)
    over partitions of {1..n} and block-preserving s."""
    window = MODELS["mpart"].window(n, 1, cap)
    basis = []
    for blocks in _partitions_of(n):
        pspec = PartitionSpec(blocks)
        for s in _block_preserving_perms(blocks, n):
            basis.append(make_part_generator(s, pspec))
    return SubalgebraSpec(f"mpart:n={n}", basis, window)


@suite
def suite_mq(n: int = 3, cap: int = DEFAULT_CAP):
    spec = build_mq(n, 1, cap)
    s12 = Wreath.perm(transposition(0, 1))
    expected = mq_expected_expectation(s12, 1)
    yield "closure of the span", True, verify_closure(spec)
    yield "E(u_(12)) = u_(12)·Q^{1,2}", expected, spec.expect_unit(s12)
    resid = unit(s12) - expected
    yield "u_(12) − u_(12)Q^{1,2} is orthogonal to the span", True, all(
        inner_product(b, resid).is_zero() for b in spec._distinct
    )
    quarter = GaussianRational(Fraction(1, 4))
    yield "expectation character at (12) is 1/4", quarter, character_of(spec, s12)
    return (
        spec.label,
        "span{u_s Q^{supp(s)} u_v} is invariant; E(u_s) = u_s Q^{supp(s)}",
        {"n": n, "sign": 1, "basis_size": len(spec.basis)},
    )


@suite
def suite_mpart(n: int = 3, seed: int = DEFAULT_SEED, cap: int = DEFAULT_CAP):
    spec = build_mpart(n, cap)
    yield "closure of the span", True, verify_closure(spec)
    yield "E(u_(12)) = 0", AlgebraElement({}), spec.expect_unit(Wreath.perm(transposition(0, 1)))
    center = combine(1, make_q_power(1, {1, 2}), 1, make_q_power(-1, {1, 2}))
    pool = list(spec.basis)
    yield "P1^{1,2}+P2^{1,2} commutes with every generator", True, all(
        center * b == b * center for b in pool
    )
    rng = random.Random(seed)
    sample = [pool[rng.randrange(len(pool))] for _ in range(50)]
    yield "P1^{1,2}+P2^{1,2} commutes with 50 sampled generators", True, all(
        center * b == b * center for b in sample
    )
    return (
        spec.label,
        "the partition-generator span kills u_(12) under E and has P1+P2 central",
        {"n": n, "seed": seed, "basis_size": len(spec.basis)},
    )


# ---------------------------------------------------------------------------
# Cantor-model witness: case 3 of the invariant-subalgebra trichotomy


def cantor_case3_witness() -> bool:
    """At level 3, with g the embedded swap of the level-2 cylinders
    [10] and [11], A = [000] ∪ [100] and B = [10] ∪ [11]: for both signs
    the candidate E(g) = ½·u_g(1 ± f̃_B) fails to commute with f̃_A:
    both products match their displayed closed forms, and those differ
    (pinned in the tests, not recomputed here)."""
    sw = list(range(4))
    sw[1], sw[3] = 3, 1
    g = Cantor.perm(2, tuple(sw))
    ug = unit(g)
    f_a = unit(Cantor.indicator(3, {0, 1}))
    f_b = unit(Cantor.indicator(2, {1, 3}))
    one = unit(Cantor.identity())
    half = Fraction(1, 2)
    for sgn in (1, -1):
        e_cand = ug * combine(half, one, sgn * half, f_b)
        left = e_cand * f_a
        right = f_a * e_cand
        exp_left = ug * combine(
            half, f_a, sgn * half, unit(Cantor.indicator(3, {0, 3, 5, 7}))
        )
        exp_right = ug * combine(
            half,
            unit(Cantor.indicator(3, {0, 3})),
            sgn * half,
            unit(Cantor.indicator(3, {0, 1, 5, 7})),
        )
        if left != exp_left or right != exp_right:
            return False
    return True


@suite
def suite_cantor():
    yield "both signed candidates fail to commute with f̃_A", True, cantor_case3_witness()
    return (
        "cantor-case3",
        "no invariant subalgebra element ½g(1 ± f̃_B) commutes with every f̃_A",
        {"level": 3},
    )


# ---------------------------------------------------------------------------
# vanishing-product expansion over generic coefficients

# (conjugator rows, the word map (i, j) -> [i,j,⋆]·h, and the displayed
# monomials (c_a, c_b, word): c_a·c_b·[word] is one term of A_g·h^{-1}A_g h)
E12_CASES = (
    (
        [[0, 0, 1], [0, 1, 1], [1, 0, 0]],
        lambda i, j: ("*", j, i ^ j),
        [
            ((0, 0), (0, 0), (0, 0, 0)),
            ((0, 1), (0, 1), (0, 1, 1)),
            ((1, 0), (1, 0), (1, 0, 1)),
            ((1, 1), (1, 1), (1, 1, 0)),
            ((0, 0), (1, 0), (0, 0, 1)),
            ((0, 1), (1, 1), (0, 1, 0)),
            ((1, 0), (0, 0), (1, 0, 0)),
            ((1, 1), (0, 1), (1, 1, 1)),
        ],
    ),
    (
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        lambda i, j: ("*", j, i),
        [
            ((0, 0), (0, 0), (0, 0, 0)),
            ((0, 1), (0, 1), (0, 1, 0)),
            ((1, 0), (1, 0), (1, 0, 1)),
            ((1, 1), (1, 1), (1, 1, 1)),
            ((0, 0), (1, 0), (0, 0, 1)),
            ((0, 1), (1, 1), (0, 1, 1)),
            ((1, 0), (0, 0), (1, 0, 0)),
            ((1, 1), (0, 1), (1, 1, 0)),
        ],
    ),
)


def _by_monomial(terms) -> dict:
    """Sums the (a, b, x) terms per monomial c_a·c_b; zero sums are dropped."""
    out: dict = {}
    for a, b, x in terms:
        key = tuple(sorted((a, b)))
        out[key] = out.get(key, AlgebraElement({})) + x
    return {k: v for k, v in out.items() if not v.is_zero()}


def affine_e12_vanishing_check() -> bool:
    """Expands A_g · (h^{-1} A_g h) with A_g = Σ c_ij [i,j,⋆] over generic
    coefficients, for the two 3×3 conjugators of the coordinate-swap
    classification, and matches the expansion against the displayed
    eight-monomial lists.  The product is bilinear in the c_ij, so its
    coefficient of c_a·c_b is [a]·[b·h] summed over both orders of (a, b)."""
    for rows, transform, monomials in E12_CASES:
        h = F2Matrix.from_lists(rows)
        left: dict = {}
        right: dict = {}
        for ij in itertools.product((0, 1), repeat=2):
            w = CylinderWord(ij)
            moved = word_times_matrix(w, h)
            if moved != CylinderWord(transform(*ij)):
                return False
            # conjugation is licensed: every ⋆-row of h has one entry
            if not cylinder_conjugation_check(w, mat_inverse(h)):
                return False
            left[ij] = make_cylinder(w)
            right[ij] = make_cylinder(moved)
        product = _by_monomial(
            (a, b, left[a] * right[b]) for a, b in itertools.product(left, right)
        )
        expected = _by_monomial(
            (a, b, make_cylinder(CylinderWord(word))) for a, b, word in monomials
        )
        if product != expected:
            return False
    return True


@suite
def suite_e12():
    yield "both symbolic expansions match the displayed monomial lists", True, (
        affine_e12_vanishing_check()
    )
    return (
        "affine-e12-vanishing",
        "the coordinate-swap expectation classification: A_g·h^{-1}A_g h expands "
        "into squares and cross terms whose vanishing forces the coefficient law",
        {"cases": 2, "generic_coefficients": 4},
    )


# ---------------------------------------------------------------------------
# lamplighter finite-cyclic analog (report, not assertion)


def _lamp_cylinder(m: int, word: int) -> AlgebraElement:
    """The dual idempotent δ_word = ∏_j ½(1 ± u_{lamp j}) over the m lamp
    coordinates."""
    return walsh_sum(
        lambda z: Lamplighter(m, z, 0), [(1 << j, -1 if (word >> j) & 1 else 1) for j in range(m)]
    )


def _shift_orbits(m: int) -> list[list[int]]:
    """The orbits of the cyclic shift on m-bit lamp words, each ascending,
    ordered by their least word."""
    mask = (1 << m) - 1
    orbits: dict[int, list[int]] = {}
    for w in range(1 << m):
        orbit = sorted({((w << t) | (w >> (m - t))) & mask for t in range(m)})
        orbits.setdefault(orbit[0], orbit)
    return list(orbits.values())


@suite
def lamplighter_scenarios(m: int = 4, cap: int = DEFAULT_CAP):
    """Finite-cyclic analog suites: shift-invariant function subalgebras
    joined with a shift subgroup, and the normal closure of the lamp-shift
    generator.  The infinite statement concerns the integer lamplighter;
    here the closure can genuinely differ, so everything is reported.

    The work is refused when it is above cap.  It is estimated as the
    (m·2^m)² products of the window, once for each of the 3·d(m) spans
    (d(m) the number of divisors of m): 153,600 at m = 5 and 1,769,472
    at m = 6, so the default cap runs m ≤ 5.
    """
    if not 3 <= m <= 8:
        raise ModulusOutOfRange(f"lamplighter modulus {m} not in [3, 8]")
    divisors = [k for k in range(1, m + 1) if m % k == 0]
    capped_count(
        2 * Lamplighter.order_log2_floor(m),
        lambda: 3 * len(divisors) * Lamplighter.order(m) ** 2,
        cap,
        lambda text: Overflow(f"lamplighter at m={m} checks {text} window products, above cap {cap}"),
    )
    window = truncation("lamplighter", m, cap)
    shift = Lamplighter.shift(m, 1)
    lamp0 = Lamplighter.lamp(m, 0)

    # (a) span(Y ∪ u_{s^k}·Y) for shift-invariant Y and divisors k of m
    orbit_sums = [
        sum((_lamp_cylinder(m, x) for x in orbit), AlgebraElement({}))
        for orbit in _shift_orbits(m)
    ]
    y_choices = [
        ("scalars", [unit(Lamplighter.identity(m))]),
        ("full", [unit(Lamplighter(m, bits, 0)) for bits in range(1 << m)]),
        ("shift-orbit-sums", orbit_sums),
    ]
    for y_name, y_basis in y_choices:
        for k in divisors:
            basis = [
                unit(Lamplighter.shift(m, k * t)) * y
                for t in range(m // k)
                for y in y_basis
            ]
            spec = SubalgebraSpec(f"lamp:{y_name},k={k}", basis, window)
            # the basis is independent: the exact check convolves its
            # |basis|² pivot pairs, or, for the unit spans (Y=scalars and
            # Y=full), makes |basis|² group products; the cap estimate
            # above counts (m·2^m)² for every span alike
            closed = verify_closure(spec)
            inv_shift = verify_invariance(spec, [shift])
            inv_lamp = verify_invariance(spec, [lamp0])
            yield (
                f"Y={y_name}, k={k}: closure / shift-invariance / lamp-invariance",
                "reported",
                {"closed": closed, "shift": inv_shift, "lamp": inv_lamp},
                True,
            )
            if y_name == "scalars" and k == 1:
                yield "Y=scalars, k=1 is invariant under the shift", True, inv_shift
            if y_name == "full" and k == 1:
                yield (
                    "Y=full, k=1 is the whole group algebra (E = identity)",
                    True,
                    closed and inv_shift and inv_lamp,
                )

    # (b) normal closure of the lamp-shift generator
    n_set = normal_closure([multiply(lamp0, shift)], m, cap)
    n_cap_a = {x for x in n_set if x.t == 0}
    even = {
        Lamplighter(m, bits, 0)
        for bits in range(1 << m)
        if bin(bits).count("1") % 2 == 0
    }
    shifts = sorted({x.t for x in n_set})
    nontrivial = [t for t in shifts if t]
    k0 = min(nontrivial) if nontrivial else 0
    semidirect = bool(k0) and len(n_set) == len(n_cap_a) * len(shifts) and all(
        t % k0 == 0 for t in shifts
    )
    observations = {
        "closure_size": len(n_set),
        "closure_cap_a_size": len(n_cap_a),
        "cap_a_equals_even_support": n_cap_a == even,
        "shift_exponents": shifts,
        "semidirect_over_k": {"k": k0, "holds": semidirect},
    }
    yield (
        "normal closure of (lamp at 0)·(shift): size and A-part comparison",
        "reported",
        observations,
        True,
    )
    return (
        f"lamplighter:m={m}",
        "finite-cyclic analog of the lamplighter invariant-subalgebra splitting; "
        "the shift generator has finite order here, so divergences are expected",
        {"m": m, "group_order": len(window)},
        {"observations": observations},
    )


# ---------------------------------------------------------------------------
# finite-partial-centralizer (fpc) orbit growth


@suite
def fpc_growth_suite(cap: int = DEFAULT_CAP):
    """Orbit sizes under centralizer conjugation, across truncations.

    Claimed members of each fpc set must have constant orbit size ≤ 2;
    sampled non-members must grow strictly across three truncations.
    Every orbit is bounded by cap.
    """

    def run(lemma, trunc_label, truncations, gens_of, members, nonmembers):
        for label, el in members:
            sizes = [len(orbit_under(el, gens_of(t), cap)) for t in truncations]
            yield (
                f"{lemma}: member {label} at {trunc_label}={truncations}",
                "constant orbit of size <= 2",
                sizes,
                all(s <= 2 for s in sizes) and len(set(sizes)) == 1,
            )
        for label, el in nonmembers:
            sizes = [len(orbit_under(el, gens_of(t), cap)) for t in truncations]
            yield (
                f"{lemma}: non-member {label} at {trunc_label}={truncations}",
                "strictly increasing orbit sizes",
                sizes,
                all(a < b for a, b in zip(sizes, sizes[1:])),
            )

    # fpc of a pure vector in the affine family: {e, v}
    e1 = Affine.vector(F2Vector.basis(1))
    yield from run(
        "fpc(v)={v,e}",
        "n",
        [3, 4, 5],
        affine_vector_centralizer_gens,
        [("e", Affine.identity()), ("e1", e1)],
        [
            ("swap(1,2)", Affine.matrix(F2Matrix.swap(1, 2))),
            ("e2", Affine.vector(F2Vector.basis(2))),
        ],
    )

    # fpc of an indicator involution in the Cantor model: {e, f̃_A}
    f_a = Cantor.indicator(1, {1})

    def indicator_gens(m):
        return cantor_indicator_centralizer_gens(m, cylinder_points("1", m))

    yield from run(
        "fpc(f̃_A)={e,f̃_A}",
        "m",
        [2, 3, 4],
        indicator_gens,
        [("e", Cantor.identity()), ("f̃_[1]", f_a)],
        [
            ("f̃_[01]", Cantor.indicator(2, cylinder_points("01", 2))),
            ("swap([00],[01])", Cantor.perm(2, (2, 1, 0, 3))),
        ],
    )

    # fpc of a cylinder transposition: {e, s, f̃_supp(s), s·f̃_supp(s)}
    s_el = Cantor.perm(2, (1, 0, 2, 3))
    f_supp = Cantor.indicator(2, {0, 1})

    def involution_gens(m):
        return cantor_involution_centralizer_gens(m, s_el)

    yield from run(
        "fpc(s)={e,s,f̃_supp,s·f̃_supp}",
        "m",
        [2, 3, 4],
        involution_gens,
        [
            ("e", Cantor.identity()),
            ("s", s_el),
            ("f̃_supp(s)", f_supp),
            ("s·f̃_supp(s)", multiply(s_el, f_supp)),
        ],
        [
            ("f̃_[01]", Cantor.indicator(2, {2})),
            ("swap([01],[11])", Cantor.perm(2, (0, 1, 3, 2))),
        ],
    )
    return (
        "fpc-growth",
        "orbit finiteness under the centralizer detects fpc membership; "
        "outside the fpc set the conjugation orbit diverges with the truncation",
        {"lemmas": 3},
    )


# ---------------------------------------------------------------------------
# normal-closure truncation shadows


# the normal-closure tables, each a family and a truncation level, and
# the representative seeds of each family's table at level n
CLOSURE_TABLES = (("affine", 3), ("wreath", 4), ("cantor", 2))
_CLOSURE_SEEDS = {
    "affine": lambda n: [
        ("e", Affine.identity()),
        ("e1", Affine.vector(F2Vector.basis(1))),
        ("swap(1,2)", Affine.matrix(F2Matrix.swap(1, 2))),
    ],
    "wreath": lambda n: [
        ("e", Wreath.identity()),
        ("z1", Wreath.vector(F2Vector.basis(1))),
        ("(12)", Wreath.perm(transposition(0, 1))),
    ],
    "cantor": lambda n: [
        ("e", Cantor.identity()),
        ("f̃_{1}", Cantor.indicator(n, {1})),
        ("swap(0,1)", Cantor.perm(n, (1, 0) + tuple(range(2, 1 << n)))),
    ],
}


def closure_table(family: str, n: int, cap: int = DEFAULT_CAP) -> list[tuple[str, int]]:
    """Normal-closure sizes of representative seeds in the truncation."""
    seeds = _CLOSURE_SEEDS.get(family)
    if seeds is None:
        raise ValueError(f"no closure table for family {family!r}")
    return [(label, len(normal_closure([g], n, cap))) for label, g in seeds(n)]


@suite
def suite_closures(cap: int = DEFAULT_CAP):
    affine, wreath, cantor = (dict(closure_table(f, n, cap)) for f, n in CLOSURE_TABLES)
    yield "affine n=3 closure sizes are {1, 8, 1344}", [1, 8, 1344], list(affine.values())
    yield "wreath n=4 closure table computed under cap", "no overflow", wreath, True
    yield "cantor m=2 closure table computed under cap", "no overflow", cantor, True
    return (
        "normal-closures",
        "truncation shadow: the only proper nontrivial normal subgroup of the "
        "affine group is the vector subgroup",
        {"cap": cap},
        {"tables": {"affine:n=3": affine, "wreath:n=4": wreath, "cantor:m=2": cantor}},
    )


# ---------------------------------------------------------------------------
# character suites


@suite
def suite_characters(seed: int = DEFAULT_SEED, cap: int = DEFAULT_CAP):
    rng = random.Random(seed)
    specs = [(CharacterSpec("affine", k=k, d=d), 3) for k in (1, 2) for d in (0, 1)]
    specs += [(CharacterSpec("cantor", k=k), 2) for k in (1, 2)]
    for chi, n in specs:
        pool = [g for g in enumerate_group(chi.family, n, cap) if chi.accepts(g)]
        psd = all(
            is_positive_definite(chi, [pool[rng.randrange(len(pool))] for _ in range(8)])
            for _ in range(20)
        )
        pairs = [
            (pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))])
            for _ in range(100)
        ]
        yield (
            f"{chi.name()}: PSD on 20 Grams, central on 100 pairs, normalized",
            [True, True, Fraction(1)],
            [psd, is_central(chi, pairs), evaluate(chi, pool[0].identity_like())],
        )
    return (
        "characters",
        "the rank and fixed-point-measure formulas define normalized central "
        "positive-definite functions",
        {"seed": seed, "samples_per_gram": 8, "grams": 20, "central_pairs": 100},
    )


# ---------------------------------------------------------------------------
# structural expectation properties


@suite
def suite_properties(seed: int = DEFAULT_SEED, cap: int = DEFAULT_CAP):
    yield (
        "expectation identities hold on mexo:n=2, full truncation",
        True,
        check_E_properties(build_mexo(2, cap), enumerate_group("affine", 2, cap)),
    )
    rng = random.Random(seed)
    wpool = enumerate_group("wreath", 3, cap)
    wsample = [Wreath.identity()] + [
        wpool[rng.randrange(len(wpool))] for _ in range(11)
    ]
    yield (
        "expectation identities hold on mq:n=3 samples",
        True,
        check_E_properties(build_mq(3, cap=cap), wsample),
    )
    yield (
        "expectation identities hold on mpart:n=3 samples",
        True,
        check_E_properties(build_mpart(3, cap), wsample),
    )
    # E(S) ⊆ S for S = the (12)-coset of L(Z2^2) against the mq span
    s12 = Wreath.perm(transposition(0, 1))
    a_basis = [unit(Wreath.vector(F2Vector(b))) for b in range(4)]
    s_basis = [
        unit(multiply(s12, Wreath.vector(F2Vector(b)))) for b in range(4)
    ]
    yield (
        "E(S) ⊆ S for the swap coset against mq:n=2",
        True,
        check_ES_subset_S(build_mq(2, cap=cap), a_basis, s_basis),
    )
    return (
        "expectation-properties",
        "trace compatibility, equivariance, relative commutants, the 0/1 "
        "dichotomy, and the coset-stability criterion",
        {"seed": seed},
    )


# ---------------------------------------------------------------------------
# model table and suite registry


class Model(NamedTuple):
    """A builtin model: its window's family, the sizes n and signs it is
    built at, its builder (n, cap=, sign=) for one of those signs, the
    closed form (x, sign) ↦ E(u_x) or None, and the rank of its span at
    size n."""

    name: str
    family: str
    sizes: range
    signs: tuple
    build: Callable
    expected: Callable | None
    rank: Callable

    def window(self, n: int, sign: int, cap: int) -> Truncation:
        """The shared truncation at size n; a size or a sign the model
        lacks is refused."""
        if n not in self.sizes:
            sizes = f"[{self.sizes[0]}, {self.sizes[-1]}]"
            raise DimensionOutOfRange(f"{self.name} truncation {n} not in {sizes}")
        if sign not in self.signs:
            raise ValueError("sign must be " + " or ".join(f"{s:+d}" for s in self.signs))
        return truncation(self.family, n, cap)


MODELS = {m.name: m for m in (
    Model("mexo", "affine", range(2, 5), (1,),
          lambda n, cap=DEFAULT_CAP, sign=1: build_mexo(n, cap),
          lambda x, sign: mexo_expected_expectation(x),
          lambda n: 2 * math.prod((1 << n) - (1 << k) for k in range(n))),
    Model("mq", "wreath", range(2, 5), (1, -1), build_mq, mq_expected_expectation,
          lambda n: sum(math.perm(n, k) for k in range(n + 1))),
    Model("mpart", "wreath", range(2, 5), (1,),
          lambda n, cap=DEFAULT_CAP, sign=1: build_mpart(n, cap), None,
          lambda n: math.factorial(n + 1) // 2),
)}


SUITES = {
    "fcalculus": f_calculus_report,
    "cylinder": suite_cylinder,
    "mexo": suite_mexo,
    "mq": suite_mq,
    "mpart": suite_mpart,
    "cantor": suite_cantor,
    "e12": suite_e12,
    "closures": suite_closures,
    "fpc": fpc_growth_suite,
    "lamplighter": lamplighter_scenarios,
    "characters": suite_characters,
    "properties": suite_properties,
}
