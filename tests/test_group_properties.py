"""Property tests for the four group families, and a differential test
of the bitmask Cantor arithmetic against the frozenset algorithm it
replaced."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isrlab.f2 import F2Vector
from isrlab.groups import (
    Affine,
    Cantor,
    Lamplighter,
    Wreath,
    conjugate,
    enumerate_group,
    gl_elements,
    identity_like,
    inverse,
    multiply,
    orbit_under,
)


# ---------------------------------------------------------------------------
# strategies: triples of elements of one group


def affine(n):
    return st.builds(
        Affine, st.sampled_from(gl_elements(n)), st.integers(0, (1 << n) - 1).map(F2Vector)
    )


def wreath(n):
    return st.builds(Wreath, st.permutations(range(n)), st.integers(0, (1 << n) - 1).map(F2Vector))


def lamplighter(m):
    return st.builds(Lamplighter, st.just(m), st.integers(0, (1 << m) - 1), st.integers(0, m - 1))


def cantor(m):
    npts = 1 << m
    return st.builds(
        Cantor, st.just(m), st.permutations(range(npts)), st.sets(st.integers(0, npts - 1))
    )


def cantor_any_level(top=3):
    return st.integers(0, top).flatmap(cantor)


def triples(element):
    return st.tuples(element, element, element)


FAMILIES = {
    # affine and wreath elements of different sizes share one group
    "affine": triples(st.integers(1, 3).flatmap(affine)),
    "wreath": triples(st.integers(1, 6).flatmap(wreath)),
    # the lamplighter modulus is part of the group
    "lamplighter": st.integers(1, 7).flatmap(lambda m: triples(lamplighter(m))),
    # Cantor elements of different levels share one group
    "cantor": triples(cantor_any_level()),
}
# groups small enough that every conjugation orbit is cheap to close
SMALL_FAMILIES = {
    "affine": triples(st.integers(1, 2).flatmap(affine)),
    "wreath": triples(st.integers(1, 4).flatmap(wreath)),
    "lamplighter": st.integers(1, 5).flatmap(lambda m: triples(lamplighter(m))),
    "cantor": triples(cantor_any_level(2)),
}


def family_property(families=FAMILIES):
    """Run test(a, b, c) on hypothesis triples drawn from every family."""

    def decorate(test):
        @pytest.mark.parametrize("family", list(families))
        @given(data=st.data())
        @settings(max_examples=50, deadline=None)
        def run(family, data):
            test(*data.draw(families[family]))

        run.__name__ = test.__name__
        return run

    return decorate


@family_property()
def test_associativity(a, b, c):
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@family_property()
def test_inverse(a, b, c):
    e = identity_like(a)
    assert multiply(a, inverse(a)) == e == multiply(inverse(a), a)
    assert inverse(inverse(a)) == a
    assert inverse(multiply(a, b)) == multiply(inverse(b), inverse(a))


@family_property()
def test_identity_law(a, b, c):
    e = identity_like(a)
    assert e.is_identity()
    assert multiply(e, a) == a == multiply(a, e)


@family_property()
def test_conjugate_is_product(a, b, c):
    assert conjugate(a, b) == multiply(multiply(a, b), inverse(a))
    assert conjugate(a, multiply(b, c)) == multiply(conjugate(a, b), conjugate(a, c))


@family_property()
def test_eq_and_hash_agree(a, b, c):
    # the same element reached through a product is equal and hashes alike
    again = multiply(multiply(a, b), inverse(b))
    assert again == a and hash(again) == hash(a)
    assert len({a, again, b}) == (1 if a == b else 2)


@family_property(SMALL_FAMILIES)
def test_orbit_closed_under_conjugation(a, b, c):
    # orbit_under's per-conjugator maps agree with conjugate
    gens = [b, inverse(b), c, inverse(c)]
    orbit = orbit_under(a, gens)
    assert a in orbit
    for x in orbit:
        for t in gens:
            assert conjugate(t, x) in orbit


@given(cantor_any_level(), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_cantor_level_embedding(g, k):
    lifted = Cantor(g.m + k, *g.at_level(g.m + k))
    assert lifted == g and hash(lifted) == hash(g)
    assert (lifted.m, lifted.sigma, lifted.a) == (g.m, g.sigma, g.a)
    assert g.at_level(g.m) == (g.sigma, g.a)


@given(st.integers(0, 4).flatmap(lambda m: st.tuples(st.just(m), st.sets(st.integers(0, (1 << m) - 1)))))
@settings(max_examples=150, deadline=None)
def test_cantor_indicator_mod_complement(m_a):
    m, a = m_a
    complement = set(range(1 << m)) - a
    assert Cantor.indicator(m, a) == Cantor.indicator(m, complement)
    assert 0 not in Cantor.indicator(m, a).a


def test_cantor_rejects_points_outside_the_level():
    with pytest.raises(ValueError):
        Cantor.indicator(1, {2})


# ---------------------------------------------------------------------------
# differential test: the frozenset Cantor algorithm, payloads (m, σ, A)


def ref_canonical(m, sigma, a):
    sigma, a = tuple(sigma), frozenset(a)
    if 0 in a:
        a = frozenset(range(1 << m)) - a
    while m > 0:
        half = 1 << (m - 1)
        ok = all(
            sigma[w] < half and sigma[w + half] == sigma[w] + half
            for w in range(half)
        )
        if ok:
            ok = all((w in a) == ((w ^ half) in a) for w in a)
        if not ok:
            break
        m -= 1
        sigma = sigma[:half]
        a = frozenset(w for w in a if w < half)
    return m, sigma, a


def ref_at_level(x, m):
    lvl0, sigma, a = x
    for lvl in range(lvl0, m):
        half = 1 << lvl
        sigma = sigma + tuple(s + half for s in sigma)
        a = frozenset(a) | {w + half for w in a}
    return sigma, a


def ref_multiply(x, y):
    m = max(x[0], y[0])
    s1, a1 = ref_at_level(x, m)
    s2, a2 = ref_at_level(y, m)
    s2_inv = [0] * (1 << m)
    for i, j in enumerate(s2):
        s2_inv[j] = i
    prod = tuple(s1[s2[i]] for i in range(1 << m))
    moved = frozenset(s2_inv[p] for p in a1)
    return ref_canonical(m, prod, moved ^ a2)


def ref_inverse(x):
    m, sigma, a = x
    inv = [0] * len(sigma)
    for i, j in enumerate(sigma):
        inv[j] = i
    return ref_canonical(m, tuple(inv), frozenset(sigma[p] for p in a))


def payload(g):
    return (g.m, g.sigma, g.a)


def check_against_reference(g, h):
    x, y = payload(g), payload(h)
    assert payload(multiply(g, h)) == ref_multiply(x, y)
    assert payload(inverse(g)) == ref_inverse(x)
    assert payload(conjugate(g, h)) == ref_multiply(ref_multiply(x, y), ref_inverse(x))


def test_cantor_reference_canonical_form():
    for g in enumerate_group("cantor", 2):
        assert payload(g) == ref_canonical(2, *g.at_level(2))


def test_cantor_reference_exhaustive_m2():
    elems = enumerate_group("cantor", 2)
    assert len(elems) == 192
    for g, h in itertools.product(elems, repeat=2):
        x, y = payload(g), payload(h)
        assert payload(multiply(g, h)) == ref_multiply(x, y)
    for g in elems:
        assert payload(inverse(g)) == ref_inverse(payload(g))


def random_cantor(rng, m):
    npts = 1 << m
    sigma = list(range(npts))
    rng.shuffle(sigma)
    if rng.random() < 0.3:
        # a transposition, as in the centralizer generators
        sigma = list(range(npts))
        i, j = rng.sample(range(npts), 2)
        sigma[i], sigma[j] = j, i
    a = {p for p in range(npts) if rng.random() < 0.5}
    if rng.random() < 0.3:
        a = {rng.randrange(npts)}
    if rng.random() < 0.2:
        a = set()
    return Cantor(m, sigma, a)


@pytest.mark.parametrize("m,count", [(3, 1500), (4, 400)])
def test_cantor_reference_sampled(m, count):
    rng = random.Random(m)
    for _ in range(count):
        g = random_cantor(rng, rng.randint(max(m - 2, 0), m))
        h = random_cantor(rng, rng.randint(max(m - 2, 0), m))
        check_against_reference(g, h)
        # lifting to a common level and reducing again is exact
        check_against_reference(h, g)
