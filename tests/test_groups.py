import copy
import itertools
import pickle
import random
import sys
from fractions import Fraction

import pytest

from isrlab import groups, zoo
from isrlab.algebra import AlgebraElement, GaussianRational, convolve, unit
from isrlab.errors import FamilyMismatch, GroupTooLarge, NotSymmetric
from isrlab.f2 import F2Matrix, F2Vector, _rank_of_rows
from isrlab.groups import (
    FAMILIES,
    Affine,
    Cantor,
    Lamplighter,
    Wreath,
    conjugate,
    cycle,
    capped_count,
    cylinder_points,
    enumerate_group,
    inverse,
    multiply,
    normal_closure,
    orbit_under,
    subgroup_closure,
    transposition,
)

S = F2Matrix.from_lists([[0, 1], [1, 0]])


def random_elements(family, n, count, seed=0):
    rng = random.Random(seed)
    pool = enumerate_group(family, n)
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


class TestGroupAxioms:
    """Exhaustive axiom checks at the smallest truncations."""

    @pytest.mark.parametrize(
        "family,n,order",
        [("affine", 2, 24), ("wreath", 3, 48), ("lamplighter", 4, 64), ("cantor", 2, 192)],
    )
    def test_orders(self, family, n, order):
        elems = enumerate_group(family, n)
        assert len(elems) == order == FAMILIES[family].order(n)
        assert len(set(elems)) == order

    @pytest.mark.parametrize(
        "family,n", [("affine", 2), ("wreath", 3), ("lamplighter", 4), ("cantor", 2)]
    )
    def test_closure_identity_inverse(self, family, n):
        elems = enumerate_group(family, n)
        eset = set(elems)
        ident = elems[0].identity_like()
        for a in elems:
            assert multiply(a, inverse(a)) == ident
            assert multiply(ident, a) == a
            assert multiply(a, ident) == a
        for a in elems:
            for b in elems:
                assert multiply(a, b) in eset

    @pytest.mark.parametrize(
        "family,n", [("affine", 2), ("wreath", 3), ("lamplighter", 4), ("cantor", 2)]
    )
    def test_associativity_sampled(self, family, n):
        rng = random.Random(3)
        elems = enumerate_group(family, n)
        for _ in range(300):
            a, b, c = (elems[rng.randrange(len(elems))] for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


class TestProductRule:
    def test_identity_neutral(self):
        g = Affine(S, F2Vector.basis(1))
        assert multiply(Affine.identity(), g) == g

    def test_affine_example(self):
        a = Affine(S, F2Vector.basis(1))
        b = Affine(S, F2Vector.basis(2))
        # s^{-1}(e1) + e2 = e2 + e2 = 0
        assert multiply(a, b) == Affine.identity()

    def test_wreath_example(self):
        a = Wreath(transposition(0, 1), F2Vector.from_bitstring("10"))
        b = Wreath(transposition(0, 1), F2Vector.from_bitstring("01"))
        assert multiply(a, b) == Wreath.identity()

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatch):
            multiply(Affine.identity(), Wreath.identity())
        with pytest.raises(FamilyMismatch):
            multiply(Lamplighter.identity(3), Lamplighter.identity(4))

    def test_lamplighter_inverse_roundtrip(self):
        g = multiply(Lamplighter.lamp(5, 0), Lamplighter.shift(5, 2))
        assert multiply(g, inverse(g)) == Lamplighter.identity(5)

    def test_affine_inverse_formula(self):
        g = Affine(S, F2Vector.basis(1))
        assert inverse(g) == Affine(S, F2Vector.basis(2))


class TestConjugation:
    def test_by_identity(self):
        h = Affine(S, F2Vector.basis(2))
        assert conjugate(Affine.identity(), h) == h

    def test_affine_vector_rule(self):
        # s · e1 · s^{-1} = s(e1) = e2
        got = conjugate(Affine.matrix(S), Affine.vector(F2Vector.basis(1)))
        assert got == Affine.vector(F2Vector.basis(2))

    def test_cantor_indicator_rule(self):
        # σ f̃_A σ^{-1} = f̃_{σ(A)}, exhaustive at m=2
        for g in enumerate_group("cantor", 2):
            if g.a:
                continue
            for abits in range(1, 8):
                a = {p for p in range(1, 4) if (abits >> (p - 1)) & 1}
                fa = Cantor.indicator(2, a)
                sigma2, _ = g.at_level(2)
                image = frozenset(sigma2[p] for p in Cantor.indicator(2, a).at_level(2)[1])
                assert conjugate(g, fa) == Cantor.indicator(2, image)

    def test_homomorphism_in_second_slot(self):
        rng = random.Random(9)
        for family, n in [("affine", 2), ("wreath", 3), ("cantor", 2)]:
            elems = enumerate_group(family, n)
            for _ in range(100):
                g, a, b = (elems[rng.randrange(len(elems))] for _ in range(3))
                assert conjugate(g, multiply(a, b)) == multiply(
                    conjugate(g, a), conjugate(g, b)
                )


class TestEmbedding:
    def test_affine_wreath_embed(self):
        # products agree whether or not elements are padded with identity
        a = Affine(S, F2Vector.basis(1))
        a_pad = Affine(
            F2Matrix([0b10, 0b01, 0b100]), F2Vector.basis(1)
        )
        assert a == a_pad

    def test_cantor_level_reduction(self):
        # (s, s) embedding of the point swap at m=1 is canonical at m=1
        swap1 = Cantor.perm(1, (1, 0))
        swap2 = Cantor.perm(2, (1, 0, 3, 2))
        assert swap1 == swap2

    def test_cantor_product_across_levels(self):
        swap1 = Cantor.perm(1, (1, 0))
        f = Cantor.indicator(2, {1})
        prod = multiply(swap1, f)
        assert prod.m == 2
        s2, _ = swap1.at_level(2)
        assert prod.sigma == s2

    def test_cantor_hash_across_levels(self):
        # the stored hash is that of the canonical (σ, mask), whatever
        # level the element was written at
        pairs = [
            (Cantor.perm(1, (1, 0)), Cantor.perm(3, (1, 0, 3, 2, 5, 4, 7, 6))),
            (Cantor.indicator(1, {1}), Cantor.indicator(2, {1, 3})),
            (Cantor.indicator(2, {0, 1, 2, 3}), Cantor.identity()),
        ]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
            assert hash(x) == hash((x.sigma, x.mask))
        assert len({x for pair in pairs for x in pair}) == len(pairs)

    def test_cantor_subset_mod_complement(self):
        assert Cantor.indicator(2, {0, 2}) == Cantor.indicator(2, {1, 3})
        assert Cantor.indicator(2, {0, 1, 2, 3}) == Cantor.identity()

    def test_cylinder_points(self):
        assert cylinder_points("11", 3) == frozenset({3, 7})
        assert cylinder_points("000", 3) == frozenset({0})


class TestOrbit:
    def test_identity_orbit(self):
        c = set(enumerate_group("wreath", 3))
        assert orbit_under(Wreath.identity(), c) == {Wreath.identity()}

    def test_vector_fixed_by_own_centralizer(self):
        e1 = Affine.vector(F2Vector.basis(1))
        c = {x for x in enumerate_group("affine", 2) if multiply(x, e1) == multiply(e1, x)}
        assert orbit_under(e1, c) == {e1}

    def test_not_symmetric(self):
        # a coordinate 3-cycle is not its own inverse
        three = Affine.matrix(F2Matrix([0b010, 0b100, 0b001]))
        assert inverse(three) != three
        with pytest.raises(NotSymmetric):
            orbit_under(Affine.matrix(S), {three})

    def test_not_symmetric_after_a_full_pair(self):
        # the search keeps one of each {c, c^-1}; a later conjugator whose
        # inverse is missing is still refused
        three = Affine.matrix(F2Matrix([0b010, 0b100, 0b001]))
        four = Affine.matrix(F2Matrix([0b0010, 0b0100, 0b1000, 0b0001]))
        with pytest.raises(NotSymmetric):
            orbit_under(Affine.matrix(S), [three, inverse(three), four])
        assert orbit_under(Affine.matrix(S), [three, inverse(three)]) == reference_orbit(
            Affine.matrix(S), [three, inverse(three)]
        )


def plain_conjugate(c, x):
    """c·x·c^{-1} from two products."""
    return multiply(multiply(c, x), inverse(c))


def reference_orbit(h, conjugators):
    """BFS conjugating by every element of an inverse-closed set."""
    orbit, frontier = {h}, [h]
    while frontier:
        frontier = {plain_conjugate(c, x) for x in frontier for c in conjugators} - orbit
        orbit.update(frontier)
    return orbit


def reference_subgroup(gens):
    """BFS multiplying by the generators and their inverses."""
    sym = list(gens) + [inverse(g) for g in gens]
    ident = sym[0].identity_like()
    elems, frontier = {ident}, [ident]
    while frontier:
        frontier = {multiply(x, s) for x in frontier for s in sym} - elems
        elems.update(frontier)
    return elems


def reference_normal_closure(gens, n):
    """Closure under products and conjugation by the truncation's
    generators and their inverses."""
    ggens = type(gens[0]).generators(n)
    conj = ggens + [inverse(t) for t in ggens]
    closure = reference_subgroup(gens)
    while True:
        extra = {plain_conjugate(t, x) for x in closure for t in conj} - closure
        if not extra:
            return closure
        closure = reference_subgroup(list(closure | extra))


def recorded_calls(monkeypatch, module, name, run):
    """The argument tuples of every call run() makes to module.name."""
    calls = []
    real = getattr(module, name)

    def record(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
    run()
    return calls


class TestCantorConjugationAcrossLevels:
    def test_every_pair_up_to_level_2(self):
        # the pool holds elements of levels 0, 1 and 2, so x is below, at
        # and above c's level; one map per c serves every x
        pool = enumerate_group("cantor", 2)
        for c in pool:
            conj = c.conjugation()
            for x in pool:
                assert conj(x) == plain_conjugate(c, x)

    def test_fpc_level_4_orbits(self, monkeypatch):
        calls = recorded_calls(monkeypatch, zoo, "orbit_under", zoo.fpc_growth_suite)
        checked = 0
        for h, conjugators, cap in calls:
            conjugators = list(conjugators)
            if h.family != "cantor" or max(c.m for c in conjugators) != 4:
                continue
            maps = [(c, c.conjugation()) for c in conjugators]
            for x in orbit_under(h, conjugators):
                for c, conj in maps:
                    assert conj(x) == plain_conjugate(c, x)
                    checked += 1
        assert checked > 10_000


class TestBFSAgainstInverseClosedReference:
    def test_fpc_orbits(self, monkeypatch):
        calls = recorded_calls(monkeypatch, zoo, "orbit_under", zoo.fpc_growth_suite)
        assert len(calls) == 42  # 14 elements at 3 truncations
        for h, conjugators, cap in calls:
            assert orbit_under(h, conjugators, cap) == reference_orbit(h, list(conjugators))

    def test_closures(self, monkeypatch):
        calls = recorded_calls(monkeypatch, zoo, "normal_closure", zoo.suite_closures)
        assert len(calls) == 9
        for gens, n, cap in calls:
            assert normal_closure(gens, n, cap) == reference_normal_closure(list(gens), n)
            for seeds in (gens, type(gens[0]).generators(n) + list(gens)):
                assert subgroup_closure(seeds) == reference_subgroup(list(seeds))

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_lamplighter_normal_closures(self, m):
        lamp, shift = Lamplighter.lamp(m, 0), Lamplighter.shift(m)
        for seed in (multiply(lamp, shift), lamp, shift):
            assert normal_closure([seed], m) == reference_normal_closure([seed], m)


class TestElementOrder:
    # build_mexo and build_mq read each coset {(g, v)} off the window as
    # one slice of 2^n elements, v ascending
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_affine_cosets_are_contiguous(self, n):
        elements = Affine.elements(n)
        assert elements == [
            Affine(g, F2Vector(v)) for g in groups.gl_elements(n) for v in range(1 << n)
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gl_elements_match_the_rank_filter(self, n):
        # the rank filter over all 2^{n²} row tuples that the row-by-row
        # construction replaced, kept here as the reference order
        reference = [
            F2Matrix(rows)
            for rows in itertools.product(range(1 << n), repeat=n)
            if _rank_of_rows(rows) == n
        ]
        assert list(groups.gl_elements(n)) == reference

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_wreath_cosets_are_contiguous(self, n):
        elements = Wreath.elements(n)
        assert elements == [
            Wreath(p, F2Vector(v)) for p in itertools.permutations(range(n)) for v in range(1 << n)
        ]


class TestGenerators:
    # normal_closure conjugates by these generators alone, so they must
    # generate the whole truncation
    @pytest.mark.parametrize(
        "family,n",
        [
            ("affine", 1), ("affine", 2), ("affine", 3),
            ("wreath", 1), ("wreath", 2), ("wreath", 3),
            ("lamplighter", 3), ("lamplighter", 4),
            ("cantor", 1), ("cantor", 2),
        ],
    )
    def test_generate_the_truncation(self, family, n):
        gens = FAMILIES[family].generators(n)
        assert subgroup_closure(gens) == set(enumerate_group(family, n))

    def test_trivial_cantor_level(self):
        # level 0 is the trivial group: no generator is needed
        assert Cantor.generators(0) == []
        assert enumerate_group("cantor", 0) == [Cantor.identity()]


class TestNormalClosure:
    def test_identity(self):
        assert normal_closure([Affine.identity()], 3) == {Affine.identity()}

    def test_pure_vector_closure(self):
        got = normal_closure([Affine.vector(F2Vector.basis(1))], 3)
        assert len(got) == 8
        assert all(x.g.is_identity() for x in got)

    def test_gl_part_closure(self):
        got = normal_closure([Affine.matrix(S)], 3)
        assert len(got) == 1344  # the whole truncated group

    def test_every_nonidentity_vector(self):
        for bits in range(1, 8):
            got = normal_closure([Affine.vector(F2Vector(bits))], 3)
            assert len(got) == 8


@pytest.mark.parametrize("family,n,stride", [
    ("affine", 2, 1), ("affine", 3, 97), ("wreath", 3, 1),
], ids=["affine:2", "affine:3", "wreath:3"])
def test_semidirect_conjugation_matches_products(family, n, stride):
    # every conjugator against every x its closed form covers (a vector:
    # all x; (h, 0): the vectors) and against the other cosets, every
    # stride-th one: all 1.8M pairs of affine:3 take 30 s
    window = enumerate_group(family, n)
    vectors = window[: 1 << n]
    assert all(not x[0] for x in vectors)
    for c in window:
        xs = window if not c[0] else vectors + window[1 << n :: stride]
        conj, c_inv = c.conjugation(), c.inv()
        assert [conj(x) for x in xs] == [c.mul(x).mul(c_inv) for x in xs]


class TestAffineConjugation:
    @pytest.mark.parametrize("cls,c,vectors,other", [
        (Affine, Affine.matrix(F2Matrix.transvection(1, 3)),
         [Affine.vector(F2Vector(b)) for b in range(8)], Affine.matrix(F2Matrix.swap(1, 2))),
        (Wreath, Wreath.perm(cycle(3)),
         [Wreath.vector(F2Vector(b)) for b in range(8)], Wreath.perm(transposition(0, 1))),
    ], ids=["affine", "wreath"])
    def test_pure_conjugator_inverts_only_for_non_vectors(self, monkeypatch, cls, c,
                                                          vectors, other):
        # by (A, 0) or (σ, 0), vectors take the closed form and need no
        # inverse; c is inverted once, on the first x that is no vector
        calls = []
        inv = cls.inv
        monkeypatch.setattr(cls, "inv", lambda self: calls.append(self) or inv(self))
        conj = c.conjugation()
        assert [conj(x) for x in vectors] == [c.mul(x).mul(inv(c)) for x in vectors]
        assert calls == []
        xs = [other, vectors[5], other.mul(vectors[3])]
        assert [conj(x) for x in xs] == [c.mul(x).mul(inv(c)) for x in xs]
        assert calls == [c]


class TestCaps:
    def test_group_too_large(self):
        with pytest.raises(GroupTooLarge):
            enumerate_group("cantor", 3, cap=1000)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_order_log2_floor_is_a_floor(self, family):
        cls = FAMILIES[family]
        for n in range(1, 7):
            assert cls.order(n) >= 1 << cls.order_log2_floor(n)

    def test_cantor_floor_refuses_before_the_order(self, monkeypatch):
        # (2^m)! alone costs seconds at m = 18; the floor refuses first
        def order(m):
            raise AssertionError("exact order computed")

        monkeypatch.setattr(Cantor, "order", staticmethod(order))
        for m in (6, 11, 30, 10**9):
            with pytest.raises(GroupTooLarge, match="has at least 2\\^"):
                enumerate_group("cantor", m)

    def test_capped_count_texts(self):
        def refusal(text):
            return GroupTooLarge(text)

        assert capped_count(0, lambda: 10, 10, refusal) == 10
        with pytest.raises(GroupTooLarge, match="^11$"):
            capped_count(0, lambda: 11, 10, refusal)
        # above 64 bits the count reads by its size, never as digits
        with pytest.raises(GroupTooLarge, match="^at least 2\\^19999$"):
            capped_count(0, lambda: 3 << 19998, 10, refusal)
        # a floor above cap and 2^64 refuses without computing the count
        with pytest.raises(GroupTooLarge, match="^at least 2\\^70$"):
            capped_count(70, None, 10, refusal)
        # a floor of 2^70 under a larger cap still asks for the count
        assert capped_count(70, lambda: 1 << 80, 1 << 90, refusal) == 1 << 80

    def test_inverse_cache_holds_gl4(self):
        # every mexo:4 product inverts a GL(4, F2) matrix; a bound below
        # |GL(4, F2)| = 20160 evicts entries a random stream needs again
        gl4 = Affine.order(4) >> 4
        assert gl4 == 20160
        assert groups._mat_inverse_cached.cache_info().maxsize > gl4


# every name an element answers to, fields of the tuple first, in order
ELEMENT_NAMES = {
    Affine: (("rows", "bits"), ("g", "v")),
    Wreath: (("sigma", "bits"), ("v",)),
    Lamplighter: (("m", "v", "t"), ()),
    Cantor: (("sigma", "mask"), ("m", "a")),
}
ONE_OF_EACH = [
    Affine(F2Matrix.transvection(1, 2), F2Vector(3)),
    Wreath((1, 2, 0), F2Vector(5)),
    Lamplighter(5, 9, 2),
    Cantor(2, (1, 0, 3, 2), {1, 2}),
]


class TestElementTuples:
    """Elements are tuples of their fields; the class still decides
    equality, and no element can be changed."""

    def test_equal_payloads_of_two_families_are_unequal(self):
        v = F2Vector(5)
        for a, w in ((Affine.vector(v), Wreath.vector(v)), (Affine.identity(), Wreath.identity())):
            assert tuple(a) == tuple(w) and hash(a) == hash(w)
            assert (a == w, w == a, a != w, w != a) == (False, False, True, True)
            assert len({a, w}) == 2 and len({unit(a), unit(w)}) == 2
            assert unit(a) != unit(w) and not unit(a) == unit(w)
            assert a != tuple(a) and not a == tuple(a) and not tuple(a) == a

    def test_equal_elements(self):
        for x in ONE_OF_EACH:
            y = x.mul(x.identity_like())
            assert y is not x
            assert (x == y, x != y, hash(x) == hash(y)) == (True, False, True)

    def test_convolve_memo_keeps_families_apart(self):
        # one product memo serves every family: a Wreath pair right after
        # the Affine pair with the same payloads must not read its entry
        v1, v2, v12 = F2Vector(1), F2Vector(2), F2Vector(3)
        for first, then in ((Affine, Wreath), (Wreath, Affine)):
            convolve(unit(first.vector(v1)), unit(first.vector(v2)))
            z = convolve(unit(then.vector(v1)), unit(then.vector(v2)))
            assert [type(g) for g in z.ints] == [then]
            assert z == unit(then.vector(v12))

    @pytest.mark.parametrize("x", ONE_OF_EACH, ids=lambda x: x.family)
    def test_fields_are_the_tuple(self, x):
        fields, _ = ELEMENT_NAMES[type(x)]
        assert tuple(x) == tuple(getattr(x, name) for name in fields)
        assert hash(x) == hash(tuple(x))

    @pytest.mark.parametrize("x", ONE_OF_EACH, ids=lambda x: x.family)
    def test_immutable(self, x):
        fields, derived = ELEMENT_NAMES[type(x)]
        before = tuple(x)
        for name in fields + derived + ("extra",):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
        assert tuple(x) == before
        assert not hasattr(x, "__dict__")
        assert sys.getsizeof(x) == sys.getsizeof(before)
        for cls in type(x).__mro__[:-2]:  # all but tuple and object
            assert vars(cls).get("__slots__") == ()


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def _values():
    """Every element of four small windows, the F2 parts of the affine
    ones, and an algebra element with a non-real coefficient."""
    out = []
    for family, n in [("affine", 2), ("wreath", 2), ("lamplighter", 3), ("cantor", 1)]:
        out += enumerate_group(family, n)
    for x in enumerate_group("affine", 2):
        out += [x.g, x.v]
    out.append(
        AlgebraElement({
            Affine.identity(): GaussianRational(Fraction(1, 2), Fraction(-1, 3)),
            Affine.matrix(S): 1,
        })
    )
    return out


class TestCopyAndPickle:
    @pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    def test_round_trip_keeps_value_class_and_hash(self, round_trip):
        values = _values()
        assert {type(x).__name__ for x in values} == {
            "Affine", "Wreath", "Lamplighter", "Cantor", "F2Matrix", "F2Vector", "AlgebraElement",
        }
        for x in values:
            y = round_trip(x)
            assert y == x
            assert type(y) is type(x)
            assert hash(y) == hash(x)
