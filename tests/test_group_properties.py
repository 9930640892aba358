"""Property tests for the four group families, a differential test of
the bitmask Cantor arithmetic against the frozenset algorithm it
replaced, and one of the packed-int Affine and Wreath arithmetic
against dense 0/1-list references and the dataclasses they replaced."""

import itertools
import random
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isrlab.f2 import F2Matrix, F2Vector
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


# ---------------------------------------------------------------------------
# differential test: the packed-int Affine and Wreath arithmetic against a
# dense 0/1-list reference, and against the frozen dataclasses they replaced

AffineRecord = make_dataclass("Affine", [("g", F2Matrix), ("v", F2Vector)], frozen=True)
WreathRecord = make_dataclass("Wreath", [("sigma", tuple), ("v", F2Vector)], frozen=True)


def dense_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def dense_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] & b[k][j] for k in range(n)) & 1 for j in range(n)] for i in range(n)]


def dense_apply(a, v):
    return [sum(a[i][k] & v[k] for k in range(len(v))) & 1 for i in range(len(a))]


def dense_inverse(a):
    """Gauss–Jordan on [A | I] over GF(2), row by row."""
    n = len(a)
    aug = [a[i][:] + dense_identity(n)[i] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                aug[r] = [x ^ y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def dense_rank(a):
    rows = [row[:] for row in a]
    rank = 0
    for col in range(len(a)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [x ^ y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def dense_of_rows(rows, n):
    full = [rows[i] if i < len(rows) else 1 << i for i in range(n)]
    return [[(r >> j) & 1 for j in range(n)] for r in full]


def canonical_rows(dense):
    """Pack the rows, then drop trailing identity row/column pairs."""
    n = len(dense)
    while n and all(dense[n - 1][j] == (j == n - 1) for j in range(n)) and not any(
        dense[i][n - 1] for i in range(n - 1)
    ):
        n -= 1
    return tuple(sum(dense[i][j] << j for j in range(n)) for i in range(n))


def bits_of(v):
    return sum(b << i for i, b in enumerate(v))


def vec_of(bits, n):
    return [(bits >> i) & 1 for i in range(n)]


@st.composite
def packed_affine(draw):
    """An element of GL(n, F2) ⋉ F2^∞ with n ≤ 5 and a vector whose bits
    may reach three coordinates past the matrix block."""
    n = draw(st.integers(0, 5))
    rows = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n).filter(
            lambda rows: dense_rank(dense_of_rows(rows, n)) == n
        )
    )
    return Affine(F2Matrix(rows), F2Vector(draw(st.integers(0, (1 << (n + 3)) - 1))))


@st.composite
def packed_wreath(draw):
    """An element of S_k ⋉ Z2^∞ with k ≤ 6 and a vector whose bits may
    reach three coordinates past the permutation."""
    k = draw(st.integers(0, 6))
    sigma = draw(st.permutations(range(k)))
    return Wreath(sigma, F2Vector(draw(st.integers(0, (1 << (k + 3)) - 1))))


def affine_dense(a, n):
    return dense_of_rows(a.rows, n), vec_of(a.bits, n)


def assert_affine_is(a, dense_g, v):
    assert a.rows == canonical_rows(dense_g)
    assert a.bits == bits_of(v)


def assert_like_record(x, record, key):
    assert repr(x) == repr(record)
    assert hash(x) == hash(record)
    assert x.sort_key() == key


@given(packed_affine(), packed_affine())
@settings(max_examples=300, deadline=None)
def test_affine_packed_matches_dense_reference(a, b):
    n = max(len(a.rows), len(b.rows), a.bits.bit_length(), b.bits.bit_length())
    (g1, v1), (g2, v2) = affine_dense(a, n), affine_dense(b, n)
    # (g1, v1)(g2, v2) = (g1 g2, g2^{-1}(v1) + v2) and (g, v)^{-1} = (g^{-1}, g(v))
    moved = dense_apply(dense_inverse(g2), v1)
    assert_affine_is(a.mul(b), dense_mul(g1, g2), [x ^ y for x, y in zip(moved, v2)])
    assert_affine_is(a.inv(), dense_inverse(g1), dense_apply(g1, v1))


@given(packed_affine())
@settings(max_examples=200, deadline=None)
def test_affine_packed_reads_like_the_dataclass(a):
    record = AffineRecord(F2Matrix(a.rows), F2Vector(a.bits))
    assert a.g == record.g and a.v == record.v
    assert_like_record(a, record, (record.g.rows, record.v.bits))
    assert hash(a) == hash((a.g, a.v))
    assert Affine(a.g, a.v) == a and Affine(a.g, a.v) is not a


def perm_dense(sigma, n):
    return [sigma[i] if i < len(sigma) else i for i in range(n)]


def perm_canonical_ref(p):
    p = list(p)
    while p and p[-1] == len(p) - 1:
        p.pop()
    return tuple(p)


def permute(p, v):
    """(p·v)_{p(i)} = v_i."""
    out = [0] * len(v)
    for i, x in enumerate(v):
        out[p[i]] = x
    return out


def perm_inverse_ref(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return out


@given(packed_wreath(), packed_wreath())
@settings(max_examples=300, deadline=None)
def test_wreath_packed_matches_dense_reference(a, b):
    n = max(len(a.sigma), len(b.sigma), a.bits.bit_length(), b.bits.bit_length())
    s1, s2 = perm_dense(a.sigma, n), perm_dense(b.sigma, n)
    v1, v2 = vec_of(a.bits, n), vec_of(b.bits, n)
    prod = a.mul(b)
    assert prod.sigma == perm_canonical_ref([s1[s2[i]] for i in range(n)])
    moved = permute(perm_inverse_ref(s2), v1)
    assert prod.bits == bits_of([x ^ y for x, y in zip(moved, v2)])
    inv = a.inv()
    assert inv.sigma == perm_canonical_ref(perm_inverse_ref(s1))
    assert inv.bits == bits_of(permute(s1, v1))


@given(packed_wreath(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_wreath_packed_reads_like_the_dataclass(a, pad):
    # a permutation given with trailing fixed points is the same element
    padded = list(a.sigma) + list(range(len(a.sigma), len(a.sigma) + pad))
    assert Wreath(padded, a.v) == a
    record = WreathRecord(perm_canonical_ref(padded), F2Vector(a.bits))
    assert a.sigma == record.sigma and a.v == record.v
    assert_like_record(a, record, (record.sigma, record.v.bits))
    assert hash(a) == hash((a.sigma, a.v))
