"""Property tests for the four group families, a differential test of
the bitmask Cantor arithmetic against the frozenset algorithm it
replaced, one of the packed-int Affine and Wreath arithmetic against
dense 0/1-list references and the dataclasses they replaced, one of the
slotted Lamplighter against the dataclass it replaced, and orbit and
closure tests of the minimal centralizer generating sets against the
longer lists they replaced."""

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
    affine_vector_centralizer_gens,
    cantor_indicator_centralizer_gens,
    cantor_involution_centralizer_gens,
    conjugate,
    cylinder_points,
    enumerate_group,
    gl_elements,
    inverse,
    multiply,
    orbit_under,
    subgroup_closure,
    transposition,
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
    e = a.identity_like()
    assert multiply(a, inverse(a)) == e == multiply(inverse(a), a)
    assert inverse(inverse(a)) == a
    assert inverse(multiply(a, b)) == multiply(inverse(b), inverse(a))


@family_property()
def test_identity_law(a, b, c):
    e = a.identity_like()
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


# ---------------------------------------------------------------------------
# differential test: the slotted Lamplighter against the frozen dataclass
# it replaced


def ref_shift_bits(v, t, m):
    """Lamp i of v moved to lamp i + t (mod m), one lamp at a time."""
    return sum(1 << ((i + t) % m) for i in range(m) if v >> i & 1)


def _record_post_init(self):
    if self.m < 1:
        raise ValueError("modulus must be positive")
    object.__setattr__(self, "v", self.v & ((1 << self.m) - 1))
    object.__setattr__(self, "t", self.t % self.m)


LamplighterRecord = make_dataclass(
    "Lamplighter",
    [("m", int), ("v", int), ("t", int)],
    frozen=True,
    namespace={
        "__post_init__": _record_post_init,
        "sort_key": lambda self: (self.m, self.t, self.v),
        "mul": lambda self, other: LamplighterRecord(
            self.m, ref_shift_bits(self.v, -other.t, self.m) ^ other.v, self.t + other.t
        ),
        "inv": lambda self: LamplighterRecord(
            self.m, ref_shift_bits(self.v, self.t, self.m), -self.t
        ),
    },
)


def assert_lamplighter_like(x, record):
    assert (x.m, x.v, x.t) == (record.m, record.v, record.t)
    assert_like_record(x, record, record.sort_key())
    assert hash(x) == hash((x.m, x.v, x.t))


# unnormalized payloads: lamps past the modulus and shifts of any sign
raw_lamplighter_pairs = st.integers(1, 7).flatmap(
    lambda m: st.tuples(
        *[st.tuples(st.just(m), st.integers(-(1 << 9), 1 << 9), st.integers(-20, 20))] * 2
    )
)


@given(raw_lamplighter_pairs)
@settings(max_examples=300, deadline=None)
def test_lamplighter_slotted_matches_the_dataclass(pair):
    (a, ra), (b, rb) = [(Lamplighter(*p), LamplighterRecord(*p)) for p in pair]
    assert_lamplighter_like(a, ra)
    assert (a == b) == (ra == rb)
    assert (hash(a) == hash(b)) == (hash(ra) == hash(rb))
    assert_lamplighter_like(a.mul(b), ra.mul(rb))
    assert_lamplighter_like(a.inv(), ra.inv())
    assert Lamplighter(a.m, a.v, a.t) == a and a != Lamplighter(a.m + 1, a.v, a.t)


@pytest.mark.parametrize("m", [0, -1])
def test_lamplighter_rejects_nonpositive_modulus(m):
    for cls in (Lamplighter, LamplighterRecord):
        with pytest.raises(ValueError):
            cls(m, 0, 0)


# ---------------------------------------------------------------------------
# the centralizer generating sets against the longer lists they replaced:
# every orbit is the same set, and so is every generated group that can be
# enumerated


def ref_affine_vector_centralizer_gens(n):
    gens = [Affine.vector(F2Vector.basis(k)) for k in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(2, n + 1):
            if i != j:
                gens.append(Affine.matrix(F2Matrix.transvection(i, j)))
    return gens


def ref_cantor_indicator_centralizer_gens(m, a):
    a = set(Cantor.indicator(m, a).at_level(m)[1])
    npts = 1 << m
    comp = sorted(set(range(npts)) - a)
    a_sorted = sorted(a)
    gens = [Cantor.indicator(m, {p}) for p in range(1, npts)]
    for block in (a_sorted, comp):
        for i in range(len(block) - 1):
            gens.append(
                Cantor.perm(m, transposition(block[i], block[i + 1]) + tuple(
                    range(max(block[i], block[i + 1]) + 1, npts)
                ))
            )
    if len(a_sorted) == len(comp) and a_sorted:
        swap = list(range(npts))
        for x, y in zip(a_sorted, comp):
            swap[x], swap[y] = swap[y], swap[x]
        gens.append(Cantor.perm(m, swap))
    return gens


def ref_cantor_involution_centralizer_gens(m, s):
    sigma, a = s.at_level(m)
    npts = 1 << m
    pairs = sorted((x, sigma[x]) for x in range(npts) if sigma[x] > x)
    fixed = sorted(x for x in range(npts) if sigma[x] == x)

    def full_perm(mapping):
        p = list(range(npts))
        for src, dst in mapping.items():
            p[src] = dst
        return Cantor.perm(m, tuple(p))

    gens = []
    for a0, b0 in pairs:
        gens.append(full_perm({a0: b0, b0: a0}))
    for (a0, b0), (a1, b1) in zip(pairs, pairs[1:]):
        gens.append(full_perm({a0: a1, a1: a0, b0: b1, b1: b0}))
    for x, y in zip(fixed, fixed[1:]):
        gens.append(full_perm({x: y, y: x}))
    for a0, b0 in pairs:
        gens.append(Cantor.indicator(m, {a0, b0}))
    for x in fixed:
        gens.append(Cantor.indicator(m, {x}))
    return gens


def assert_same_orbits(elements, gens, ref_gens):
    for el in elements:
        assert orbit_under(el, gens) == orbit_under(el, ref_gens), el


def all_involutions_with_a_fixed_point(m):
    """The point involutions of level m, as Cantor elements."""
    npts = 1 << m
    out = []
    for k in range(npts // 2 + 1):
        for support in itertools.combinations(range(npts), 2 * k):
            if 2 * k == npts:
                continue
            for matching in _matchings(support):
                p = list(range(npts))
                for x, y in matching:
                    p[x], p[y] = y, x
                out.append(Cantor.perm(m, p))
    return out


def _matchings(points):
    if not points:
        yield []
        return
    x, rest = points[0], points[1:]
    for i, y in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield [(x, y)] + tail


# the suite's elements (fpc_growth_suite), with its truncations
E1 = Affine.vector(F2Vector.basis(1))
AFFINE_FPC = [Affine.identity(), E1, Affine.matrix(F2Matrix.swap(1, 2)),
              Affine.vector(F2Vector.basis(2))]
INDICATOR_FPC = [Cantor.identity(), Cantor.indicator(1, {1}),
                 Cantor.indicator(2, cylinder_points("01", 2)), Cantor.perm(2, (2, 1, 0, 3))]
S_EL = Cantor.perm(2, (1, 0, 2, 3))
F_SUPP = Cantor.indicator(2, {0, 1})
INVOLUTION_FPC = [Cantor.identity(), S_EL, F_SUPP, multiply(S_EL, F_SUPP),
                  Cantor.indicator(2, {2}), Cantor.perm(2, (0, 1, 3, 2))]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_affine_centralizer_orbits_as_before(n):
    # the pins count distinct generators: the conjugations orbit_under runs
    gens = affine_vector_centralizer_gens(n)
    assert len(set(gens)) == 5
    assert_same_orbits(AFFINE_FPC, gens, ref_affine_vector_centralizer_gens(n))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cantor_indicator_centralizer_orbits_as_before(m):
    a = cylinder_points("1", m)
    gens = cantor_indicator_centralizer_gens(m, a)
    assert len(set(gens)) == {2: 5, 3: 7, 4: 7}[m]
    assert_same_orbits(INDICATOR_FPC, gens, ref_cantor_indicator_centralizer_gens(m, a))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cantor_involution_centralizer_orbits_as_before(m):
    gens = cantor_involution_centralizer_gens(m, S_EL)
    assert len(set(gens)) == {2: 4, 3: 6, 4: 7}[m]
    assert_same_orbits(
        INVOLUTION_FPC, gens, ref_cantor_involution_centralizer_gens(m, S_EL)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_affine_centralizer_generates_as_before(n):
    gens = affine_vector_centralizer_gens(n)
    closure = subgroup_closure(gens)
    assert closure == subgroup_closure(ref_affine_vector_centralizer_gens(n))
    # the whole centralizer of e1: F2^n times the e1-stabilizer in GL(n)
    stabilizer = sum(1 for g in gl_elements(n) if conjugate(Affine.matrix(g), E1) == E1)
    assert len(closure) == stabilizer << n


def cantor_point_sets(m):
    """One point set per class modulo complement."""
    rest = range(1, 1 << m)
    return [set(c) for r in range(1 << m) for c in itertools.combinations(rest, r)]


@pytest.mark.parametrize("m", [1, 2])
def test_cantor_indicator_centralizer_generates_as_before(m):
    for a in cantor_point_sets(m):
        gens = cantor_indicator_centralizer_gens(m, a)
        assert subgroup_closure(gens) == subgroup_closure(
            ref_cantor_indicator_centralizer_gens(m, a)
        ), a


def test_cantor_involution_centralizer_generates_as_before():
    for s in all_involutions_with_a_fixed_point(2):
        gens = cantor_involution_centralizer_gens(2, s)
        assert subgroup_closure(gens) == subgroup_closure(
            ref_cantor_involution_centralizer_gens(2, s)
        ), s


# elements whose orbits at m = 3 stay small under every centralizer below
SMALL_CANTOR = [Cantor.indicator(1, {1}), Cantor.indicator(2, {2}), Cantor.indicator(3, {5}),
                Cantor.perm(2, (1, 0, 2, 3)), Cantor.perm(2, (2, 1, 0, 3))]


def test_cantor_indicator_centralizer_orbits_at_m3():
    for a in [{1}, {1, 2}, {1, 2, 4}, {3, 5, 6}, {1, 3, 5, 7}, {1, 2, 3, 4, 5, 6, 7}]:
        assert_same_orbits(
            SMALL_CANTOR,
            cantor_indicator_centralizer_gens(3, a),
            ref_cantor_indicator_centralizer_gens(3, a),
        )


def test_cantor_involution_centralizer_orbits_at_m3():
    involutions = all_involutions_with_a_fixed_point(3)
    for s in involutions[:: max(1, len(involutions) // 40)]:
        assert_same_orbits(
            SMALL_CANTOR,
            cantor_involution_centralizer_gens(3, s),
            ref_cantor_involution_centralizer_gens(3, s),
        )

