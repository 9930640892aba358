import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isrlab import algebra
from isrlab.algebra import (
    AlgebraElement,
    GaussianRational,
    ad,
    combine,
    convolve,
    inner_product,
    norm_sq,
    one_like,
    trace,
    unit,
)
from isrlab.errors import FamilyMismatch
from isrlab.f2 import F2Matrix, F2Vector
from isrlab.groups import (
    Affine,
    Lamplighter,
    Wreath,
    enumerate_group,
    inverse,
    multiply,
)

S = F2Matrix.from_lists([[0, 1], [1, 0]])
HALF = Fraction(1, 2)
GR_I = GaussianRational(0, 1)


def random_algebra_elements(family, n, count, seed=1, width=3):
    rng = random.Random(seed)
    pool = enumerate_group(family, n)
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(width):
            g = pool[rng.randrange(len(pool))]
            c = GaussianRational(
                Fraction(rng.randrange(-3, 4), rng.choice([1, 2, 4])),
                Fraction(rng.randrange(-2, 3), 2),
            )
            terms[g] = terms.get(g, GaussianRational()) + c
        out.append(AlgebraElement(terms))
    return out


class TestGaussianRational:
    def test_field_ops(self):
        a = GaussianRational(HALF, 1)
        b = GaussianRational(2, -1)
        assert a * b == GaussianRational(2, Fraction(3, 2))
        assert (a / b) * b == a
        assert a - a == 0

    def test_conjugation(self):
        assert GR_I.conjugate() == GaussianRational(0, -1)
        assert (GR_I * GR_I.conjugate()) == 1

    def test_int_equality(self):
        assert GaussianRational(3) == 3
        assert GaussianRational(3, 1) != 3


class TestCombine:
    def test_linear(self):
        x = unit(Affine.matrix(S))
        y = unit(Affine.identity())
        assert combine(1, x, 0, y) == x
        assert combine(1, x, -1, x).is_zero()

    def test_delta_projection(self):
        z = Wreath.vector(F2Vector.basis(1))
        delta0 = combine(HALF, one_like(z), HALF, unit(z))
        assert delta0 * delta0 == delta0
        assert delta0.adjoint() == delta0


class TestConvolve:
    def test_units_multiply(self):
        g = Affine.matrix(S)
        h = Affine.vector(F2Vector.basis(1))
        assert unit(g) * unit(h) == unit(multiply(g, h))

    def test_idempotent_square(self):
        z = Affine.vector(F2Vector.from_bitstring("11"))
        p = combine(HALF, one_like(z), HALF, unit(z))
        assert p * p == p

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatch):
            convolve(unit(Affine.identity()), unit(Wreath.identity()))

    def test_lamplighter_moduli_never_meet(self):
        # one family rule for every operation: a modulus is part of the group
        x, y = unit(Lamplighter(4, 1, 0)), unit(Lamplighter(5, 1, 0))
        with pytest.raises(FamilyMismatch):
            AlgebraElement({Lamplighter(4, 1, 0): 1, Lamplighter(5, 1, 0): 1})
        with pytest.raises(FamilyMismatch):
            x + y
        with pytest.raises(FamilyMismatch):
            inner_product(x, y)
        # the zero element meets every group
        assert x + AlgebraElement({}) == x

    def test_associative_random(self):
        for fam, n in [("affine", 2), ("cantor", 2)]:
            xs = random_algebra_elements(fam, n, 12, seed=5)
            for x, y, z in zip(xs[::3], xs[1::3], xs[2::3]):
                assert (x * y) * z == x * (y * z)

    def test_support_containment(self):
        xs = random_algebra_elements("wreath", 3, 10, seed=6)
        for x, y in zip(xs[::2], xs[1::2]):
            prod_support = {
                multiply(g, h) for g in x.support() for h in y.support()
            }
            assert (x * y).support() <= prod_support


def naive_convolve(x, y):
    """The product summed term by term in GaussianRational arithmetic."""
    out = {}
    for g, c in x.terms.items():
        for h, d in y.terms.items():
            k = multiply(g, h)
            out[k] = out.get(k, GaussianRational()) + c * d
    return AlgebraElement(out)


class TestConvolveExact:
    def test_matches_naive_product(self):
        # non-real coefficients with denominators 1, 2, 4
        for family, n in [("affine", 2), ("wreath", 3), ("cantor", 2)]:
            xs = random_algebra_elements(family, n, 40, seed=5)
            for x, y in zip(xs, xs[1:]):
                got = convolve(x, y)
                assert got == naive_convolve(x, y)
                assert all(not c.is_zero() for c in got.terms.values())

    def test_cancelling_terms_are_pruned(self):
        s = Affine.matrix(S)
        e = Affine.identity()
        # (1 + u_s)(1 - u_s) = 1 - u_{s^2} = 0
        zero = convolve(combine(1, unit(e), 1, unit(s)), combine(1, unit(e), -1, unit(s)))
        assert zero.is_zero() and zero.terms == {}

    def test_purely_imaginary_result(self):
        s = Affine.matrix(S)
        e = Affine.identity()
        # (1 + i u_s)^2 = 1 + 2i u_s - u_{s^2} = 2i u_s; the identity cancels
        x = combine(1, unit(e), GR_I, unit(s))
        got = convolve(x, x)
        assert got == naive_convolve(x, x)
        assert got.terms == {s: GaussianRational(0, 2)}
        assert not got.terms[s].re


# ---------------------------------------------------------------------------
# the product memo of convolve and ad


POOLS = {
    "affine": enumerate_group("affine", 3),
    "wreath": enumerate_group("wreath", 3),
    "lamplighter": enumerate_group("lamplighter", 4),
    "cantor": enumerate_group("cantor", 2),
}


@st.composite
def algebra_pairs(draw, family):
    pool = st.sampled_from(POOLS[family])
    coeff = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-2, 2))

    def element():
        return AlgebraElement(draw(st.dictionaries(pool, coeff, max_size=6)))

    return element(), element()


def memo_consistent():
    """Every stored product is interned, and the count is the table's size."""
    stored = [k for row in algebra._PRODUCTS.values() for k in row.values()]
    return (
        all(algebra._ELEMENTS.get(k) is k for k in stored)
        and len(algebra._ELEMENTS) == len(set(stored))
        and algebra._stored == len(stored)
    )


class TestProductMemo:
    @pytest.mark.parametrize("family", list(POOLS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cold_and_warm_match_reference(self, family, data):
        x, y = data.draw(algebra_pairs(family))
        expected = naive_convolve(x, y)
        algebra._clear_products()
        assert convolve(x, y) == expected  # cold
        assert memo_consistent()
        assert convolve(x, y) == expected  # warm
        assert convolve(y, x) == naive_convolve(y, x)
        assert memo_consistent()

    @pytest.mark.parametrize("family", list(POOLS))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_after_overflow_clear_matches_reference(self, family, data):
        x, y = data.draw(algebra_pairs(family))
        with pytest.MonkeyPatch.context() as mp:
            # a limit of 3 products empties the memo inside most products
            mp.setattr(algebra, "_MEMO_LIMIT", 3)
            algebra._clear_products()
            for _ in range(2):
                assert convolve(x, y) == naive_convolve(x, y)
                assert algebra._stored <= 3 + len(y.ints)
                assert memo_consistent()

    def test_overflow_empties_both_tables(self, monkeypatch):
        pool = POOLS["affine"]
        monkeypatch.setattr(algebra, "_MEMO_LIMIT", 40)
        algebra._clear_products()
        x = AlgebraElement({g: 1 for g in pool[:7]})
        y = AlgebraElement({g: 1 for g in pool[7:14]})
        convolve(x, y)  # 49 products: the clear comes before the last row
        assert algebra._stored == 7 and len(algebra._PRODUCTS) == 1
        assert memo_consistent()

    def test_equal_products_are_one_object(self):
        algebra._clear_products()
        a, b, c = POOLS["affine"][5], POOLS["affine"][77], POOLS["affine"][300]
        ha, hb = multiply(inverse(a), c), multiply(inverse(b), c)
        convolve(unit(a) + unit(b), unit(ha) + unit(hb))
        got = algebra._PRODUCTS[a][ha]
        assert got == c and got is algebra._PRODUCTS[b][hb]

    def test_lamplighter_moduli_after_warm_memo(self):
        x = AlgebraElement({Lamplighter(4, v, t): 1 for v in range(3) for t in range(2)})
        algebra._clear_products()
        convolve(x, x)
        for m in (3, 5):
            with pytest.raises(FamilyMismatch):
                convolve(x, unit(Lamplighter(m, 1, 0)))
            with pytest.raises(FamilyMismatch):
                convolve(unit(Lamplighter(m, 1, 0)), x)

    # ad moves each term through g.conjugation(), beside the memo

    @pytest.mark.parametrize("family", list(POOLS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ad_cold_and_warm_match_reference(self, family, data):
        x, y = data.draw(algebra_pairs(family))
        g = data.draw(st.sampled_from(POOLS[family]))
        expected = naive_ad(g, x)
        algebra._clear_products()
        assert ad(g, x) == expected  # cold
        convolve(x, y)
        assert ad(g, x) == expected  # warm
        assert ad(g, y) == naive_ad(g, y)
        assert ad(inverse(g), expected) == x

    @pytest.mark.parametrize("family", list(POOLS))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_ad_after_overflow_clear_matches_reference(self, family, data):
        x, y = data.draw(algebra_pairs(family))
        g = data.draw(st.sampled_from(POOLS[family]))
        with pytest.MonkeyPatch.context() as mp:
            # a limit of 3 products empties the memo inside most products
            mp.setattr(algebra, "_MEMO_LIMIT", 3)
            algebra._clear_products()
            for _ in range(2):
                assert ad(g, x) == naive_ad(g, x)
                convolve(x, y)

    @pytest.mark.parametrize("family", list(POOLS))
    def test_ad_leaves_the_memo_alone(self, family):
        x = AlgebraElement({h: 1 for h in POOLS[family][:20]})
        algebra._clear_products()
        convolve(x, x)
        stored = algebra._stored
        for g in POOLS[family][:10]:
            ad(g, x)
        assert algebra._stored == stored and memo_consistent()

    def test_ad_lamplighter_moduli_after_warm_memo(self):
        x = AlgebraElement({Lamplighter(4, v, t): 1 for v in range(3) for t in range(2)})
        g = Lamplighter(4, 5, 1)
        algebra._clear_products()
        ad(g, x)
        convolve(x, x)
        for m in (3, 5):
            with pytest.raises(FamilyMismatch):
                ad(Lamplighter(m, 1, 0), x)
            # one family, two moduli: the element itself is refused
            with pytest.raises(FamilyMismatch):
                mixed = AlgebraElement({Lamplighter(4, 1, 0): 1, Lamplighter(m, 1, 0): 1})
                ad(g, mixed)


def naive_ad(g, x):
    """u_g x u_g^{-1} term by term from two products, apart from the
    family conjugation maps that ad uses."""
    ginv = inverse(g)
    return AlgebraElement({multiply(multiply(g, h), ginv): c for h, c in x.terms.items()})


def naive_sum(x, y, sign=1):
    """x + sign·y as a dict of nonzero GaussianRational coefficients."""
    out = dict(x.terms)
    for g, c in y.terms.items():
        out[g] = out.get(g, GaussianRational()) + c * sign
    return {g: c for g, c in out.items() if not c.is_zero()}


def naive_dot(x, y):
    """Σ_g conj(c_g) d_g over x's terms."""
    return sum(
        (c.conjugate() * y.terms.get(g, GaussianRational()) for g, c in x.terms.items()),
        GaussianRational(),
    )


def linear_pairs():
    # a narrow x against a wide y, so inner_product sees both operand orders
    for family, n in [("affine", 2), ("wreath", 3), ("cantor", 2)]:
        xs = random_algebra_elements(family, n, 20, seed=5, width=2)
        ys = random_algebra_elements(family, n, 20, seed=6, width=5)
        yield from zip(xs, ys)


class TestLinearLayerExact:
    """The integer form against dict arithmetic on the coefficients."""

    C = GaussianRational(Fraction(-2, 3), Fraction(5, 6))

    def test_add_sub(self):
        for x, y in linear_pairs():
            assert (x + y).terms == naive_sum(x, y)
            assert (x - y).terms == naive_sum(x, y, -1)
            assert (y - x).terms == naive_sum(y, x, -1)

    def test_scale(self):
        for x, _ in linear_pairs():
            assert x.scale(self.C).terms == {g: c * self.C for g, c in x.terms.items()}
            assert x.scale(GR_I).terms == {g: c * GR_I for g, c in x.terms.items()}
            assert (-x).terms == {g: -c for g, c in x.terms.items()}
            zero = x.scale(0)
            assert zero.is_zero() and zero == AlgebraElement({})
            assert hash(zero) == hash(AlgebraElement({}))

    def test_adjoint(self):
        for x, _ in linear_pairs():
            assert x.adjoint().terms == {inverse(g): c.conjugate() for g, c in x.terms.items()}

    def test_trace_and_coefficient(self):
        for x, y in linear_pairs():
            e = next(iter(y.terms)).identity_like()
            for g in list(y.terms) + [e]:
                assert x.coefficient(g) == x.terms.get(g, GaussianRational())
            assert trace(x) == x.coefficient(e)
            assert trace(unit(e).scale(self.C) + x) == self.C + x.coefficient(e)

    def test_norm_sq_and_inner_product(self):
        for x, y in linear_pairs():
            assert norm_sq(x) == naive_dot(x, x).re
            assert naive_dot(x, x).is_real()
            assert inner_product(x, y) == naive_dot(x, y)
            assert inner_product(y, x) == naive_dot(y, x)
            assert inner_product(x, x) == naive_dot(x, x)

    def test_canonical_form(self):
        # equal elements built along different paths are == and hash alike
        for x, y in linear_pairs():
            paths = [
                AlgebraElement(x.terms),
                (x + y) - y,
                x.scale(self.C).scale(GaussianRational(Fraction(-24, 41), Fraction(-30, 41))),
                x.scale(GaussianRational(0, 2)).scale(GaussianRational(0, HALF).conjugate()),
                x.adjoint().adjoint(),
            ]
            for z in paths:
                assert z == x and hash(z) == hash(x)
            assert (x - x) == AlgebraElement({}) and hash(x - x) == hash(AlgebraElement({}))

    def test_denominators_cancel(self):
        g = Affine.matrix(S)
        e = Affine.identity()
        x = combine(HALF, unit(g), Fraction(1, 4), unit(e))
        y = combine(Fraction(3, 4), unit(e), Fraction(-1, 6), unit(g))
        # x + y = (1/3)u_g + u_e: the common denominator 12 reduces to 3
        total = AlgebraElement({g: Fraction(1, 3), e: 1})
        assert x + y == total and hash(x + y) == hash(total)
        assert (x + y) - y == x and hash((x + y) - y) == hash(x)
        assert x.scale(4) == AlgebraElement({g: 2, e: 1})


class TestAdjoint:
    def test_unit(self):
        from isrlab.groups import inverse

        g = Affine(S, F2Vector.basis(1))
        assert unit(g).adjoint() == unit(inverse(g))

    def test_coefficient_conjugated(self):
        from isrlab.groups import inverse

        g = Affine.matrix(S)
        x = unit(g).scale(GaussianRational(1, 1))
        assert x.adjoint() == unit(inverse(g)).scale(GaussianRational(1, -1))

    def test_antimultiplicative(self):
        xs = random_algebra_elements("affine", 2, 10, seed=7)
        for x, y in zip(xs[::2], xs[1::2]):
            assert (x * y).adjoint() == y.adjoint() * x.adjoint()


class TestTrace:
    def test_units(self):
        assert trace(unit(Affine.identity())) == 1
        assert trace(unit(Affine.matrix(S))) == 0

    def test_f_s(self):
        z = Affine.vector(F2Vector.from_bitstring("11"))
        f_s = combine(HALF, one_like(z), HALF, unit(z))
        assert trace(f_s) == HALF

    def test_tracial(self):
        xs = random_algebra_elements("wreath", 3, 10, seed=8)
        for x, y in zip(xs[::2], xs[1::2]):
            assert trace(x * y) == trace(y * x)

    def test_faithful(self):
        for x in random_algebra_elements("affine", 2, 8, seed=9):
            v = trace(x.adjoint() * x)
            assert v.is_real() and v.re >= 0
            assert (v == 0) == x.is_zero()


def full_gcd_reduced(den, ints):
    """The reduced form through one gcd over den and every part."""
    g = math.gcd(den, *(part for pair in ints.values() for part in pair))
    return den // g, {k: (re // g, im // g) for k, (re, im) in ints.items()}


class TestTrustedReduction:
    POOL = enumerate_group("affine", 2)

    def check(self, den, pairs):
        ints = dict(zip(self.POOL, pairs))
        x = AlgebraElement._trusted(den, ints)
        assert (x.den, x.ints) == full_gcd_reduced(den, ints)
        assert list(x.ints) == list(ints)

    def test_seeded_inputs(self):
        rng = random.Random(12)
        for _ in range(300):
            f = rng.choice([1, 2, 3, 4, 6, 12])
            pairs = [
                (f * rng.randint(-9, 9), f * rng.randint(-9, 9))
                for _ in range(rng.randint(1, 6))
            ]
            pairs = [p for p in pairs if p != (0, 0)]
            self.check(f * rng.randint(1, 8), pairs)

    def test_only_the_last_pair_reaches_one(self):
        self.check(30, [(6, 12), (18, 0), (0, -24), (5, 7)])

    def test_a_factor_kept_to_the_end(self):
        self.check(36, [(6, 12), (18, 0), (0, -24), (30, 42)])
        self.check(12, [(4, 0), (0, 8), (-20, 4)])

    def test_den_one_and_zero_are_left(self):
        self.check(1, [(6, 12)])
        self.check(6, [])


class TestInnerProduct:
    def test_orthonormal_units(self):
        g = Affine.matrix(S)
        assert inner_product(unit(g), unit(g)) == 1
        assert inner_product(unit(g), one_like(g)) == 0

    def test_matches_trace_form(self):
        xs = random_algebra_elements("cantor", 2, 10, seed=10)
        for x, y in zip(xs[::2], xs[1::2]):
            assert inner_product(x, y) == trace(x.adjoint() * y)
            assert norm_sq(x) == inner_product(x, x).re

    def test_f_s_norm(self):
        z = Affine.vector(F2Vector.from_bitstring("11"))
        f_s = combine(HALF, one_like(z), HALF, unit(z))
        assert inner_product(f_s, f_s) == HALF


class TestAd:
    def test_identity(self):
        x = random_algebra_elements("affine", 2, 1, seed=11)[0]
        assert ad(Affine.identity(), x) == x

    def test_vector_rule(self):
        g = Affine.matrix(S)
        v = Affine.vector(F2Vector.basis(1))
        assert ad(g, unit(v)) == unit(Affine.vector(F2Vector.basis(2)))

    def test_automorphism(self):
        pool = enumerate_group("wreath", 3)
        rng = random.Random(12)
        xs = random_algebra_elements("wreath", 3, 10, seed=13)
        for x, y in zip(xs[::2], xs[1::2]):
            g = pool[rng.randrange(len(pool))]
            assert ad(g, x * y) == ad(g, x) * ad(g, y)
            assert trace(ad(g, x)) == trace(x)

    def test_matches_unit_conjugation(self):
        pool = enumerate_group("cantor", 2)
        rng = random.Random(14)
        for x in random_algebra_elements("cantor", 2, 6, seed=15):
            g = pool[rng.randrange(len(pool))]
            assert ad(g, x) == unit(g) * x * unit(inverse(g))

    def test_terms_above_the_conjugator_level(self):
        # one conjugation map serves terms above and at g's level
        low = [g for g in enumerate_group("cantor", 2) if g.m <= 1]
        for g in low:
            for x in random_algebra_elements("cantor", 2, 3, seed=16, width=4):
                assert ad(g, x) == unit(g) * x * unit(inverse(g))

    def test_zero_and_family_mismatch(self):
        assert ad(Affine.identity(), AlgebraElement({})).is_zero()
        with pytest.raises(FamilyMismatch):
            ad(Affine.identity(), unit(Wreath.identity()))
