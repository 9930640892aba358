import itertools
from fractions import Fraction

import pytest

from isrlab import algebra, zoo
from isrlab.algebra import AlgebraElement, combine, one_like, trace, unit
from isrlab.errors import BlockNotInvariant, HypothesisViolated
from isrlab.f2 import F2Matrix, F2Vector, mat_inverse
from isrlab.groups import (
    Affine,
    Cantor,
    Lamplighter,
    Wreath,
    gl_elements,
    perm_mul,
    transposition,
)
from isrlab.projections import (
    _MINUS,
    _PLUS,
    STAR,
    CylinderWord,
    PartitionSpec,
    cylinder_conjugation_check,
    half_projection,
    make_cylinder,
    make_f,
    make_part_generator,
    make_q_power,
    mu_fix,
    perm_sign,
    walsh_sum,
    word_times_matrix,
)

S = F2Matrix.from_lists([[0, 1], [1, 0]])
T = F2Matrix.from_lists([[0, 1], [1, 1]])
HALF = Fraction(1, 2)


def is_projection(p: AlgebraElement) -> bool:
    return p == p.adjoint() and p * p == p


class TestMakeF:
    def test_identity(self):
        assert make_f(F2Matrix.identity()) == unit(Affine.identity())

    def test_swap(self):
        expected = combine(
            HALF,
            one_like(Affine.identity()),
            HALF,
            unit(Affine.vector(F2Vector.from_bitstring("11"))),
        )
        assert make_f(S) == expected

    def test_full_range(self):
        f_t = make_f(T)
        assert f_t == AlgebraElement(
            {Affine.vector(F2Vector(b)): Fraction(1, 4) for b in range(4)}
        )

    def test_projection_law_sample(self):
        for g in [S, T, F2Matrix.transvection(1, 3)]:
            assert is_projection(make_f(g))

    def test_trace(self):
        assert trace(make_f(S)) == HALF


def words(length):
    for letters in itertools.product((0, 1, STAR), repeat=length):
        yield CylinderWord(letters)


def merged_product(w, v, length):
    """Oracle for [w]·[v]: zero on a clash, merged word otherwise."""
    out = []
    for i in range(1, length + 1):
        a, b = w.letter(i), v.letter(i)
        if a == STAR:
            out.append(b)
        elif b == STAR or a == b:
            out.append(a)
        else:
            return None
    return CylinderWord(out)


def factor_product(identity, factors) -> AlgebraElement:
    """∏ ½(1 ± u_z) over (z, letter) factors, sign (−1)^letter, convolved."""
    out = unit(identity)
    for z, letter in factors:
        out = out * half_projection(z, -1 if letter else 1)
    return out


def cylinder_signed_sum(letters) -> AlgebraElement:
    """2^{-n} Σ_v (−1)^{w·v} u_v for a fully specified word w."""
    n = len(letters)
    return AlgebraElement(
        {
            Affine.vector(F2Vector(v)): Fraction(
                (-1) ** sum(c for i, c in enumerate(letters) if v >> i & 1), 1 << n
            )
            for v in range(1 << n)
        }
    )


class TestCylinders:
    def test_all_star_is_identity(self):
        assert make_cylinder(CylinderWord((STAR, STAR))) == unit(Affine.identity())

    def test_single_zero(self):
        e1 = Affine.vector(F2Vector.basis(1))
        assert make_cylinder(CylinderWord((0,))) == combine(
            HALF, one_like(e1), HALF, unit(e1)
        )

    def test_00_plus_11_is_f_swap(self):
        lhs = make_cylinder(CylinderWord((0, 0))) + make_cylinder(
            CylinderWord((1, 1))
        )
        assert lhs == make_f(S)

    def test_signed_sum_matches_product(self):
        for n in range(1, 5):
            for letters in itertools.product((0, 1), repeat=n):
                w = CylinderWord(letters)
                product = factor_product(
                    Affine.identity(),
                    [(Affine.vector(F2Vector.basis(i)), c) for i, c in enumerate(letters, 1)],
                )
                assert make_cylinder(w) == product == cylinder_signed_sum(letters)

    def test_product_rule_exhaustive_len3(self):
        cache = {w.letters: make_cylinder(w) for w in words(3)}
        for w in words(3):
            for v in words(3):
                got = cache[w.letters] * cache[v.letters]
                merged = merged_product(w, v, 3)
                if merged is None:
                    assert got.is_zero()
                else:
                    assert got == cache[merged.letters]

    def test_all_projections(self):
        for w in words(3):
            assert is_projection(make_cylinder(w))


class TestCylinderConjugation:
    def test_identity(self):
        for w in words(2):
            assert cylinder_conjugation_check(w, F2Matrix.identity())

    def test_swap(self):
        w = CylinderWord((0, 1))
        assert word_times_matrix(w, mat_inverse(S)).letters == (1, 0)
        assert cylinder_conjugation_check(w, S)

    def test_shear(self):
        g = F2Matrix.from_lists([[1, 1], [0, 1]])
        w = CylinderWord((1, 0))
        assert word_times_matrix(w, mat_inverse(g)).letters == (1, 1)
        assert cylinder_conjugation_check(w, g)

    def test_hypothesis_violated(self):
        g = F2Matrix.from_lists([[1, 1], [0, 1]])
        with pytest.raises(HypothesisViolated):
            cylinder_conjugation_check(CylinderWord((STAR, 0)), g)

    def test_in_hypothesis_pairs_n2(self):
        from isrlab.f2 import _rank_of_rows

        for rows in itertools.product(range(1, 4), repeat=2):
            if _rank_of_rows(rows) != 2:
                continue
            g = F2Matrix(rows)
            for w in words(2):
                try:
                    assert cylinder_conjugation_check(w, g)
                except HypothesisViolated:
                    pass


class TestQPower:
    def test_empty(self):
        assert make_q_power(1, ()) == unit(Wreath.identity())

    def test_single(self):
        z1 = Wreath.vector(F2Vector.basis(1))
        assert make_q_power(1, {1}) == combine(
            HALF, one_like(z1), HALF, unit(z1)
        )

    def test_idempotent_both_signs(self):
        for sign in (1, -1):
            q = make_q_power(sign, {1, 2})
            assert is_projection(q)

    def test_signs_orthogonal(self):
        assert (make_q_power(1, {1}) * make_q_power(-1, {1})).is_zero()


class TestPartGenerators:
    def test_identity_perm_singletons(self):
        gen = make_part_generator((), PartitionSpec([{1}, {2}]))
        assert gen == unit(Wreath.identity())

    def test_transposition_block(self):
        gen = make_part_generator(transposition(0, 1), PartitionSpec([{1, 2}]))
        p1 = make_q_power(1, {1, 2})
        p2 = make_q_power(-1, {1, 2})
        assert gen == unit(Wreath.perm(transposition(0, 1))) * (p1 - p2)

    def test_block_not_invariant(self):
        with pytest.raises(BlockNotInvariant):
            make_part_generator(transposition(0, 1), PartitionSpec([{1}, {2}]))

    def test_product_is_join_generator(self):
        # (12) on {{1,2}} squared: permutation cancels, partitions join
        s = transposition(0, 1)
        k = PartitionSpec([{1, 2}])
        gen = make_part_generator(s, k)
        assert gen * gen == make_part_generator((), k)

    def test_product_overlapping_blocks(self):
        s = transposition(0, 1)
        g = transposition(1, 2)
        a = make_part_generator(s, PartitionSpec([{1, 2}, {3}]))
        b = make_part_generator(g, PartitionSpec([{1}, {2, 3}]))
        joined = make_part_generator(perm_mul(s, g), PartitionSpec([{1, 2, 3}]))
        assert a * b == joined

    def test_perm_sign(self):
        assert perm_sign(()) == 1
        assert perm_sign(transposition(0, 1)) == -1
        assert perm_sign(perm_mul(transposition(0, 1), transposition(1, 2))) == 1



def block_sign(s, block) -> int:
    """sign(s|_K) for a full-length permutation s fixing the block K."""
    pts = sorted(block)
    return perm_sign(tuple(pts.index(s[p - 1] + 1) for p in pts))


def part_generator_product(s, partition: PartitionSpec) -> AlgebraElement:
    """The definition: u_s · ∏_K (P1^K + sign(s|_K)·P2^K), convolved."""
    out = unit(Wreath.perm(s))
    for block in partition.blocks:
        out = out * combine(
            1, make_q_power(1, block), block_sign(s, block), make_q_power(-1, block)
        )
    return out


def block_preserving_pairs(n: int):
    for blocks in zoo._partitions_of(n):
        for s in zoo._block_preserving_perms(blocks, n):
            yield blocks, s


class TestPartGeneratorClosedForm:
    def test_matches_product_definition(self):
        # every (partition, block-preserving s) pair with n ≤ 4
        pairs = [(b, s) for n in range(1, 5) for b, s in block_preserving_pairs(n)]
        assert len(pairs) == 90
        for blocks, s in pairs:
            partition = PartitionSpec(blocks)
            assert make_part_generator(s, partition) == part_generator_product(s, partition)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_build_mpart_basis_unchanged(self, n):
        expected = [
            part_generator_product(s, PartitionSpec(blocks))
            for blocks, s in block_preserving_pairs(n)
        ]
        assert list(zoo.build_mpart(n).basis) == expected

    def test_build_mpart_makes_no_convolution(self, monkeypatch):
        calls = []
        convolve = algebra.convolve

        def counting(x, y):
            calls.append(1)
            return convolve(x, y)

        # AlgebraElement.__mul__ reads the module global
        monkeypatch.setattr(algebra, "convolve", counting)
        zoo.build_mpart(4)
        assert not calls
        unit(Wreath.identity()) * unit(Wreath.identity())
        assert len(calls) == 1

    def test_moved_block_still_refused(self):
        # (13) fixes {2} but moves {1, 2} and {3} setwise
        with pytest.raises(BlockNotInvariant):
            make_part_generator(transposition(0, 2), PartitionSpec([{1, 2}, {3}]))
        with pytest.raises(BlockNotInvariant):
            make_part_generator((0, 1, 3, 2), PartitionSpec([{1, 2, 3}]))

class TestWalshSum:
    """walsh_sum is the one written-out form of a product of ½(1 ± u_b);
    half_projection products are the reference."""

    def test_empty_product_is_one(self):
        assert walsh_sum(lambda z: Affine.vector(F2Vector(z)), []) == unit(Affine.identity())

    def test_matches_factor_product_off_the_coordinate_masks(self):
        gens = [(0b011, 1), (0b110, -1), (0b100, -1)]
        element = lambda z: Wreath.vector(F2Vector(z))
        expected = factor_product(Wreath.identity(), [(element(b), eps < 0) for b, eps in gens])
        assert walsh_sum(element, gens) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_lamp_cylinders_match_factor_product(self, m):
        total = AlgebraElement({})
        for word in range(1 << m):
            delta = zoo._lamp_cylinder(m, word)
            lamps = [(Lamplighter.lamp(m, j), word >> j & 1) for j in range(m)]
            assert delta == factor_product(Lamplighter.identity(m), lamps)
            total = total + delta
        assert total == unit(Lamplighter.identity(m))

    def test_builders_make_no_convolution(self, monkeypatch):
        def refuse(x, y):
            raise AssertionError("convolve called")

        # AlgebraElement.__mul__ reads the module global
        monkeypatch.setattr(algebra, "convolve", refuse)
        make_cylinder.cache_clear()
        make_cylinder(CylinderWord((1, STAR, 0, 1)))
        make_part_generator((1, 0, 3, 2), PartitionSpec([{1, 2}, {3, 4}]))
        zoo._lamp_cylinder(5, 0b10110)
        zoo.build_mq(4, -1)
        zoo.build_mexo(3)
        for g in gl_elements(3):
            make_f(g)
        with pytest.raises(AssertionError):
            unit(Wreath.identity()) * unit(Wreath.identity())

    @pytest.mark.parametrize(
        "name,n,sign",
        [("mexo", 3, 1), ("mq", 4, 1), ("mq", 4, -1), ("mpart", 4, 1)],
        ids=["mexo3", "mq4+", "mq4-", "mpart4"],
    )
    def test_terms_share_two_coefficient_pairs(self, name, n, sign):
        pairs = [p for b in zoo.MODELS[name].build(n, sign=sign).basis for p in b.ints.values()]
        assert all(p is _PLUS or p is _MINUS for p in pairs)


class TestMuFix:
    def test_identity(self):
        assert mu_fix(Cantor.identity()) == 1

    def test_transposition_level3(self):
        sw = list(range(8)); sw[0], sw[4] = 4, 0
        t = Cantor.perm(3, tuple(sw))
        assert t.m == 3
        assert mu_fix(t) == Fraction(3, 4)

    def test_embedding_stability(self):
        # the (s,s) duplicate at level 4 canonicalizes back to level 3,
        # and a direct count at level 4 gives the same measure
        sw = list(range(8)); sw[0], sw[4] = 4, 0
        t = Cantor.perm(3, tuple(sw))
        sigma4, _ = t.at_level(4)
        fixed = sum(1 for x in range(16) if sigma4[x] == x)
        assert Fraction(fixed, 16) == mu_fix(t) == Fraction(12, 16)

    def test_multiplicative_disjoint_coordinates(self):
        # σ permutes low letters, τ the high letter block: Fix factorizes
        sigma = transposition(0, 1) + (2, 3, 4, 5, 6, 7)  # on letters 1,2
        tau_hi = [(x & 3) | ((x >> 2) ^ 1) << 2 if x >> 2 in (0, 1) else x for x in range(8)]
        tau = tuple((x & 3) | ((1 - (x >> 2)) << 2) for x in range(8))
        s_el = Cantor.perm(3, sigma)
        t_el = Cantor.perm(3, tau)
        from isrlab.groups import multiply

        prod = multiply(s_el, t_el)
        assert mu_fix(prod) == mu_fix(s_el) * mu_fix(t_el)

    def test_nontrivial_set_part_rejected(self):
        with pytest.raises(HypothesisViolated):
            mu_fix(Cantor.indicator(2, {1}))
