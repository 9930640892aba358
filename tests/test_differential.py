"""Differential tests of the fast paths against the forms they replaced,
which are kept here as the references: the Cantor orbit search on
level-m payloads against an element-level search, the unit-span closure
check against the pivot-product check, the row-mask ⋆-product against
the entry loop, the conjugation law of the f-calculus read through
``ad`` against its two-product form, the cached R(g − I) kernel against
the uncached echelon, the spec's Gram–Schmidt over its vectors
distinct up to sign against the one that keeps the sign twins, the
span's shared-tuple index against a list per id frozen at the end,
E(u_g) memoized per row class against one projection per element, and
the one-pass conditional expectation against the three calls
project, norm_sq(x − E x) and inner_product(x, E x)."""

import hashlib
import itertools
import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isrlab import zoo
from isrlab.algebra import AlgebraElement, GaussianRational, ad, inner_product, norm_sq, unit
from isrlab.errors import FamilyMismatch, Overflow
from isrlab.expectation import SubalgebraSpec, _Span, conditional_expectation, verify_closure
from isrlab.f2 import F2Matrix, F2Vector, _echelon, _range_basis, range_subgroup, rank_defect
from isrlab.groups import (
    Affine,
    Cantor,
    Lamplighter,
    Wreath,
    _reach,
    cantor_indicator_centralizer_gens,
    cantor_involution_centralizer_gens,
    conjugate,
    cylinder_points,
    enumerate_group,
    gl_elements,
    multiply,
    orbit_under,
    subgroup_closure,
    transposition,
)
from isrlab.projections import STAR, CylinderWord, make_f, word_times_matrix

# ---------------------------------------------------------------------------
# Cantor orbits on payloads against the element-level search


def element_orbit(h, conjugators, cap):
    """The search orbit_under ran before payloads: _reach over elements,
    one ``conjugate`` per step, by one of each pair {c, c^{-1}}."""
    steps, paired = [], set()
    for c in conjugators:
        if c not in paired:
            paired.update((c, c.inv()))
            steps.append(c)
    maps = [lambda x, c=c: conjugate(c, x) for c in steps]
    return _reach(h, maps, cap, "conjugation orbit")


def product_conjugate(c, x):
    return multiply(multiply(c, x), c.inv())


S_EL = Cantor.perm(2, (1, 0, 2, 3))
FPC_INPUTS = [
    (lambda m: cantor_indicator_centralizer_gens(m, cylinder_points("1", m)),
     [Cantor.identity(), Cantor.indicator(1, {1}),
      Cantor.indicator(2, cylinder_points("01", 2)), Cantor.perm(2, (2, 1, 0, 3))]),
    (lambda m: cantor_involution_centralizer_gens(m, S_EL),
     [Cantor.identity(), S_EL, Cantor.indicator(2, {0, 1}),
      multiply(S_EL, Cantor.indicator(2, {0, 1})), Cantor.indicator(2, {2}),
      Cantor.perm(2, (0, 1, 3, 2))]),
]


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("case", range(len(FPC_INPUTS)))
def test_fpc_orbits_match_the_element_search(m, case):
    gens_of, elements = FPC_INPUTS[case]
    gens = gens_of(m)
    for h in elements:
        assert orbit_under(h, gens) == element_orbit(h, gens, 10**6)


def test_orbit_cap_boundary():
    gens = cantor_indicator_centralizer_gens(3, cylinder_points("1", 3))
    h = Cantor.perm(2, (2, 1, 0, 3))
    size = len(element_orbit(h, gens, 10**6))
    assert size > 2
    assert len(orbit_under(h, gens, size)) == size
    with pytest.raises(Overflow, match=f"^conjugation orbit exceeds cap {size - 1}$"):
        orbit_under(h, gens, size - 1)


def cantor(m):
    npts = 1 << m
    return st.builds(
        Cantor, st.just(m), st.permutations(range(npts)), st.sets(st.integers(0, npts - 1))
    )


any_cantor = st.integers(0, 3).flatmap(cantor)


@given(h=any_cantor, cs=st.lists(any_cantor, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_drawn_orbits_match_the_element_search(h, cs):
    conjugators = list(dict.fromkeys(cs + [c.inv() for c in cs]))
    cap = 300
    try:
        expected = element_orbit(h, conjugators, cap)
    except Overflow as exc:
        with pytest.raises(Overflow, match=f"^{exc}$"):
            orbit_under(h, conjugators, cap)
    else:
        assert orbit_under(h, conjugators, cap) == expected


@given(x=any_cantor, c=any_cantor, up=st.integers(0, 1))
@settings(max_examples=100, deadline=None)
def test_drawn_conjugations_match_products(x, c, up):
    y = product_conjugate(c, x)
    assert conjugate(c, x) == y
    # the kernel maps payloads to payloads: the conjugate's own, bit 0
    # of the mask cleared by complement, at the top level and above it
    m = max(x.m, c.m) + up
    assert c._conjugation_at(m)(x._payload(m)) == y._payload(m)


def test_conjugation_above_a_byte():
    # 2^9 points do not fit in a byte: the payload's σ is a tuple
    rng = random.Random(9)
    npts = 1 << 9

    def draw():
        sigma = list(range(npts))
        rng.shuffle(sigma)
        return Cantor(9, sigma, rng.sample(range(npts), 40))

    for _ in range(3):
        x, c = draw(), draw()
        assert conjugate(c, x) == product_conjugate(c, x)
        # across levels: x below c, and c below x
        low = Cantor.perm(2, (1, 2, 3, 0))
        assert conjugate(c, low) == product_conjugate(c, low)
        assert conjugate(low, x) == product_conjugate(low, x)
    swap = Cantor.perm(9, transposition(0, npts - 1))
    flip = Cantor.indicator(9, {3, 500})
    h = multiply(swap, Cantor.indicator(9, {1, 2}))
    assert orbit_under(h, [swap, flip]) == element_orbit(h, [swap, flip], 10**6)


# ---------------------------------------------------------------------------
# unit-span closure against the pivot-product check


def closure_over_basis(spec):
    """verify_closure before unit spans: every adjoint and pairwise
    product of the pivots lies in the window and in the span."""
    pivots = spec._orthogonal_basis().pivots
    return all(
        x.support() <= spec.window and spec.contains(x)
        for x in chain((b.adjoint() for b in pivots), (a * b for a in pivots for b in pivots))
    )


def unit_spec(elements, window, scale=1):
    return SubalgebraSpec("units", [unit(g).scale(scale) for g in elements], window)


@pytest.mark.parametrize("m", [3, 4])
def test_lamplighter_unit_spans(m):
    window = enumerate_group("lamplighter", m)
    for k in (k for k in range(1, m + 1) if m % k == 0):
        for y in ([Lamplighter.identity(m)], [Lamplighter(m, b, 0) for b in range(1 << m)]):
            basis = [
                unit(Lamplighter.shift(m, k * t)) * unit(g) for t in range(m // k) for g in y
            ]
            spec = SubalgebraSpec("lamp", basis, window)
            assert verify_closure(spec) == closure_over_basis(spec) is True


SUBGROUP_SEEDS = [
    ("affine", 2, [Affine.matrix(F2Matrix.swap(1, 2))]),
    ("affine", 2, Affine.generators(2)),
    ("wreath", 3, [Wreath.perm(transposition(0, 1)), Wreath.perm((1, 2, 0))]),
    ("wreath", 3, Wreath.generators(3)[:1]),
    ("lamplighter", 4, [Lamplighter.shift(4, 2)]),
    ("lamplighter", 4, [Lamplighter.lamp(4, 0), Lamplighter.shift(4, 2)]),
    ("cantor", 1, Cantor.generators(1)),
    ("cantor", 2, [Cantor.indicator(2, {1}), Cantor.perm(2, (1, 0, 2, 3))]),
]


@pytest.mark.parametrize("family, n, gens", SUBGROUP_SEEDS)
def test_subgroup_spans_are_closed(family, n, gens):
    group = subgroup_closure(gens)
    window = enumerate_group(family, n) if family != "cantor" or n < 2 else group
    for scale in (1, 2):
        spec = unit_spec(group, window, scale)
        assert verify_closure(spec) == closure_over_basis(spec) is True


@pytest.mark.parametrize("family, n", [("affine", 2), ("wreath", 3), ("lamplighter", 3),
                                       ("cantor", 2)])
def test_unit_spans_that_are_not_closed(family, n):
    window = enumerate_group(family, n)
    rng = random.Random(n)
    e = window[0].identity_like()
    verdicts = set()
    for size in (2, 3, 5, len(window) // 2):
        for _ in range(6):
            elements = [e] + rng.sample(window, size)
            spec = unit_spec(elements, window)
            verdict = verify_closure(spec)
            assert verdict == closure_over_basis(spec)
            verdicts.add(verdict)
    assert False in verdicts


@pytest.mark.parametrize("elements, closed", [
    # involutions: closed under inverses, not under products
    ([Lamplighter.identity(3), Lamplighter.lamp(3, 0), Lamplighter.lamp(3, 1)], False),
    # products of the shift stay, but its inverse is missing
    ([Lamplighter.identity(3), Lamplighter.shift(3, 1)], False),
    ([Lamplighter.identity(3), Lamplighter.shift(3, 1), Lamplighter.shift(3, 2)], True),
])
def test_inverse_and_product_failures(elements, closed):
    spec = unit_spec(elements, enumerate_group("lamplighter", 3))
    assert verify_closure(spec) is closure_over_basis(spec) is closed


def test_mixed_spans_keep_the_pivot_check():
    # one pivot with two terms sends the check down the general path
    window = enumerate_group("affine", 2)
    half = AlgebraElement({Affine.identity(): 1, Affine.vector(F2Vector(1)): 1})
    spec = SubalgebraSpec("mixed", [half, unit(Affine.matrix(F2Matrix.swap(1, 2)))], window)
    assert verify_closure(spec) == closure_over_basis(spec)


# ---------------------------------------------------------------------------
# the ⋆-product of words by matrices


def old_word_times_matrix(w, ginv):
    """The n² entry loop word_times_matrix replaced."""
    n = max(len(w), ginv.n)
    out = []
    for j in range(1, n + 1):
        acc = 0
        star = False
        for i in range(1, n + 1):
            if not ginv.entry(i, j):
                continue
            c = w.letter(i)
            if c == STAR:
                star = True
            else:
                acc ^= c
        out.append(STAR if star else acc)
    return CylinderWord(out)


def test_word_times_matrix_matches_the_entry_loop():
    words = [
        CylinderWord(t) for k in range(4) for t in itertools.product((0, 1, STAR), repeat=k)
    ]
    for g in gl_elements(3):
        for w in words:
            assert word_times_matrix(w, g) == old_word_times_matrix(w, g)


# ---------------------------------------------------------------------------
# the f-calculus conjugation law


def test_conjugation_law_through_ad_matches_the_two_products():
    gl = gl_elements(3)
    r, _, conj = zoo._f_calculus_keys(gl, 3)
    f = {r[g]: make_f(g) for g in gl}
    keys = list(f)
    agreed = set()
    for (a, h), c in conj.items():
        u = unit(Affine.matrix(h))
        # the true partner c, and a wrong one
        for cand in (c, keys[(keys.index(c) + 1) % len(keys)]):
            via_ad = ad(Affine.matrix(h), f[cand]) == f[a]
            via_products = f[a] * u == u * f[cand]
            assert via_ad == via_products
            agreed.add(via_ad)
        assert ad(Affine.matrix(h), f[c]) == f[a]
    assert agreed == {True, False}


# ---------------------------------------------------------------------------
# the cached R(g − I) kernel


def uncached_range_basis(g):
    """The echelon basis of R(g − I) built afresh from the columns."""
    diff = [g.rows[i] ^ (1 << i) for i in range(g.n)]
    cols = [sum(((d >> j) & 1) << i for i, d in enumerate(diff)) for j in range(g.n)]
    return _echelon(cols)


def gl4_sample():
    rng = random.Random(4)
    out = []
    while len(out) < 300:
        rows = tuple(rng.randrange(16) for _ in range(4))
        g = F2Matrix(rows)
        if len(_echelon(g.rows)) == g.n:
            out.append(g)
    return out


def test_cached_range_kernel_matches_the_echelon():
    for g in list(gl_elements(3)) + gl4_sample():
        basis = _range_basis(g.rows)
        assert isinstance(basis, tuple)
        assert list(basis) == uncached_range_basis(g)
        assert _range_basis(g.rows) is basis  # served from the cache
        assert rank_defect(g) == len(basis)
        assert len(range_subgroup(g)) == 1 << len(basis)


# ---------------------------------------------------------------------------
# the spec's Gram–Schmidt without sign twins, against the one with them

# every (model, sign, n) of zoo.MODELS, labelled mexo:2, …, mq+:2, …, mq-:4, …
SPECS = {
    f"{name}{'+-'[sign < 0] if len(m.signs) > 1 else ''}:{n}": (m, n, sign)
    for name, m in zoo.MODELS.items() for sign in m.signs for n in m.sizes
}
# (vectors distinct up to exact repeats, distinct up to sign) per spec
DISTINCT = {
    "mexo:2": (12, 12), "mq+:2": (5, 5), "mq-:2": (6, 5), "mpart:2": (3, 3),
    "mexo:3": (336, 336), "mq+:3": (16, 16), "mq-:3": (24, 16), "mpart:3": (13, 13),
    "mexo:4": (40320, 40320), "mq+:4": (65, 65), "mq-:4": (114, 65), "mpart:4": (73, 73),
}


def build(label):
    model, n, sign = SPECS[label]
    return model.build(n, sign=sign)


@pytest.mark.parametrize("label", SPECS)
def test_sign_twins_leave_the_span_as_it_was(monkeypatch, label):
    exact, kept = DISTINCT[label]
    spec = build(label)
    with_twins = list(dict.fromkeys(spec.basis))
    calls = []
    reduce = _Span._reduce
    monkeypatch.setattr(_Span, "_reduce", lambda self, row: calls.append(1) or reduce(self, row))
    span = spec._orthogonal_basis()
    # one reduction per vector kept: 65 for mq:4−, not 114
    assert (len(with_twins), len(calls)) == (exact, kept)
    model, n, _ = SPECS[label]
    assert len(span) == model.rank(n)
    if exact != kept:
        whole = _Span(with_twins)
        assert span.ids == whole.ids
        assert span.rows == whole.rows
        assert [id(b) for b in span.pivots] == [id(b) for b in whole.pivots]


# ---------------------------------------------------------------------------
# E(u_g) read off the row-class memo, against a projection of u_g and
# against the model's closed form

# the mexo:4 window has 322,560 elements
SWEPT_SPECS = [label for label in SPECS if label != "mexo:4"]
# sha256 of the spans of SWEPT_SPECS (rows as sorted items with their
# norms, ids, pivot reprs), pinned from the Gram–Schmidt that ran the
# residual pass on every vector
SPAN_SHA256 = "9b07198d9ae9b29635f9676180ee26c8c8491bde9c82f142a7cb5ffccce56e11"


def listed_index(span):
    """The index as the build formed it before the shared tuples: a list
    of (row, re, im) per id, rows in order, each frozen at the end."""
    index: dict = {}
    for k, (r, _) in enumerate(span.rows):
        for i, (a, c) in r.items():
            index.setdefault(i, []).append((k, a, c))
    return {i: tuple(entries) for i, entries in index.items()}


@pytest.mark.parametrize("label", SWEPT_SPECS)
def test_memoized_unit_images_match_the_projection(label):
    model, _, sign = SPECS[label]
    spec = build(label)
    # the memo keys, value for value, so every row class is as it was
    span = spec._orthogonal_basis()
    assert span.index == listed_index(span)
    window = sorted(spec.window, key=lambda g: g.sort_key())
    for g in window:
        assert spec.expect_unit(g) == spec.project(unit(g))
        if model.expected:
            assert spec.expect_unit(g) == model.expected(g, sign)
    # a second sweep reads the memo
    assert all(spec.expect_unit(g) == spec.project(unit(g)) for g in window)


def test_spans_match_the_pin():
    h = hashlib.sha256()
    for label in SWEPT_SPECS:
        span = build(label)._orthogonal_basis()
        h.update(repr((
            label,
            [(sorted(r.items()), norm) for r, norm in span.rows],
            list(span.ids.items()),
            [repr(b) for b in span.pivots],
        )).encode())
    assert h.hexdigest() == SPAN_SHA256


# ---------------------------------------------------------------------------
# conditional_expectation in one pass, against the three-call formula

REPORT_SPECS = ["mexo:2", "mexo:3", "mq+:3", "mq+:4", "mq-:3", "mq-:4", "mpart:3", "mpart:4"]


def three_call_report(x, spec):
    """The report as conditional_expectation formed it before the one pass."""
    out = spec.project(x)
    return out, norm_sq(x - out), inner_product(x, out)


def coefficient(rng):
    """A Gaussian rational with a nonzero imaginary part."""
    im = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
    return GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), im)


def combinations(spec, n, seed, count=40):
    """Seeded combinations of window elements, elements that no row meets
    and elements outside the window, with non-real coefficients; the zero
    element first, then c·(u_g − u_h) for g, h of one row class, whose
    terms rows meet but E leaves at 0."""
    rng = random.Random(seed)
    window = sorted(spec.window, key=lambda g: g.sort_key())
    span = spec._orthogonal_basis()
    unmet = [g for g in window if span.index.get(span.ids.get(g)) is None]
    classes: dict = {}
    for g in window:
        classes.setdefault(span.index.get(span.ids.get(g)), []).append(g)
    twins = [c[:2] for key, c in classes.items() if key is not None and len(c) > 1]
    xs = [AlgebraElement({})]
    for g, h in twins[:5]:
        c = coefficient(rng)
        xs.append(AlgebraElement({g: c, h: -c}))
    # a vector on coordinate n + 1 moves any element of the rank-n window
    # outside it
    lift = type(window[0]).vector(F2Vector(1 << n))
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            pool = rng.choice([window, window, unmet or window, None])
            g = multiply(lift, rng.choice(window)) if pool is None else rng.choice(pool)
            terms[g] = coefficient(rng)
        xs.append(AlgebraElement(terms))
    return xs, bool(unmet)


@pytest.mark.parametrize("label", REPORT_SPECS)
def test_one_pass_report_matches_the_three_calls(label):
    spec = build(label)
    xs, has_unmet = combinations(spec, int(label[-1]), seed=REPORT_SPECS.index(label))
    assert has_unmet == label.startswith("mpart")
    outside = 0
    for x in xs:
        rep = conditional_expectation(x, spec)
        out, residual, character = three_call_report(x, spec)
        assert (rep.input, rep.output, rep.residual_norm_sq, rep.character_value) == (
            x, out, residual, character)
        assert type(rep.residual_norm_sq) is Fraction
        assert type(rep.character_value.re) is type(rep.character_value.im) is Fraction
        outside += any(g not in spec.window for g in x.ints)
    assert outside


@pytest.mark.parametrize("label", ["mexo:2", "mq+:3", "mpart:3"])
def test_one_pass_report_checks_the_family(label):
    spec = build(label)
    strays = [Lamplighter.identity(4), Wreath.identity() if label == "mexo:2" else Affine.identity()]
    for g in strays:
        with pytest.raises(FamilyMismatch):
            conditional_expectation(unit(g), spec)


def test_residual_is_not_derived_from_pythagoras(monkeypatch):
    # with one entry of P bumped, E(x) is no longer the orthogonal
    # projection, and a residual summed from L·x_g − P_g sees it:
    # ‖x‖² = ‖E x‖² + residual fails, where ‖x‖² − ‖E x‖² would hold
    spec = build("mq+:3")
    xs, _ = combinations(spec, 3, seed=5)
    for x in xs:
        rep = conditional_expectation(x, spec)
        assert norm_sq(x) == norm_sq(rep.output) + rep.residual_norm_sq
    project = _Span._project

    def bumped(self, row):
        scale, p = project(self, row)
        for i, (re, im) in p.items():
            p[i] = (re + 1, im)
            break
        return scale, p

    xs = [x for x in xs if not spec.project(x).is_zero()]
    assert xs
    monkeypatch.setattr(_Span, "_project", bumped)
    broken = [conditional_expectation(x, spec) for x in xs]
    assert all(norm_sq(r.input) != norm_sq(r.output) + r.residual_norm_sq for r in broken)
