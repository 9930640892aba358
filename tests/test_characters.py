import random
from fractions import Fraction

import pytest

from isrlab.characters import (
    INF,
    CharacterSpec,
    evaluate,
    is_central,
    is_positive_definite,
    is_positive_semidefinite_matrix,
    parse_character,
)
from isrlab.errors import FamilyMismatch
from isrlab.f2 import F2Matrix, F2Vector, rank_defect, range_subgroup
from isrlab.groups import Affine, Cantor, enumerate_group

S = F2Matrix.from_lists([[0, 1], [1, 0]])
T = F2Matrix.from_lists([[0, 1], [1, 1]])


def cantor_perms(m):
    return [g for g in enumerate_group("cantor", m) if not g.a]


class TestEvaluate:
    def test_k_zero_constant(self):
        chi = CharacterSpec("affine", k=0, d=1)
        for g in enumerate_group("affine", 2):
            assert evaluate(chi, g) == 1

    def test_rank_formula(self):
        chi = CharacterSpec("affine", k=1, d=1)
        for bits in range(4):
            g = Affine(S, F2Vector(bits))
            assert evaluate(chi, g) == Fraction(1, 2)
        assert evaluate(chi, Affine.matrix(T)) == Fraction(1, 4)

    def test_d_zero_branch(self):
        chi = CharacterSpec("affine", k=1, d=0)
        assert evaluate(chi, Affine(S, F2Vector(0b11))) == Fraction(1, 2)
        assert evaluate(chi, Affine(S, F2Vector(0b01))) == 0

    def test_inf_is_vector_subgroup_indicator(self):
        chi = CharacterSpec("affine", k=INF, d=0)
        assert evaluate(chi, Affine.vector(F2Vector.basis(1))) == 1
        assert evaluate(chi, Affine.matrix(S)) == 0

    def test_gl_family(self):
        chi = CharacterSpec("gl", k=2)
        assert evaluate(chi, Affine.matrix(T)) == Fraction(1, 16)
        with pytest.raises(FamilyMismatch):
            evaluate(chi, Affine.vector(F2Vector.basis(1)))

    def test_cantor_family(self):
        chi = CharacterSpec("cantor", k=2)
        sw = list(range(4))
        sw[0], sw[1] = 1, 0
        g = Cantor.perm(2, tuple(sw))
        assert evaluate(chi, g) == Fraction(1, 4)
        with pytest.raises(FamilyMismatch):
            evaluate(chi, Cantor.indicator(2, {1}))

    def test_regular(self):
        chi = CharacterSpec("regular")
        assert evaluate(chi, Affine.identity()) == 1
        assert evaluate(chi, Affine.matrix(S)) == 0

    def test_normalized(self):
        for chi in [
            CharacterSpec("affine", k=1, d=0),
            CharacterSpec("affine", k=2, d=1),
            CharacterSpec("gl", k=1),
            CharacterSpec("cantor", k=1),
            CharacterSpec("regular"),
        ]:
            ident = Cantor.identity() if chi.kind == "cantor" else Affine.identity()
            assert evaluate(chi, ident) == 1


class TestPSDMatrix:
    def test_basic(self):
        one = Fraction(1)
        two = Fraction(2)
        assert is_positive_semidefinite_matrix([[two, one], [one, two]])
        assert not is_positive_semidefinite_matrix([[one, two], [two, one]])

    def test_zero_pivot(self):
        z = Fraction(0)
        one = Fraction(1)
        assert is_positive_semidefinite_matrix([[z, z], [z, one]])
        assert not is_positive_semidefinite_matrix([[z, one], [one, z]])

    def test_negative_diagonal(self):
        assert not is_positive_semidefinite_matrix([[Fraction(-1)]])


def fraction_psd(m):
    """The Fraction Schur-complement PSD test: the reference the integer
    routine is checked against."""
    m = [row[:] for row in m]
    active = list(range(len(m)))
    while active:
        i = active[0]
        piv = m[i][i]
        if piv < 0:
            return False
        if piv == 0:
            if any(m[i][j] != 0 or m[j][i] != 0 for j in active):
                return False
            active.pop(0)
            continue
        rest = active[1:]
        for r in rest:
            factor = m[r][i] / piv
            for c in rest:
                m[r][c] -= factor * m[i][c]
        active = rest
    return True


def random_symmetric(rng, n):
    """A seeded symmetric rational matrix: a Gram matrix B·Bᵀ (PSD, of low
    rank when B has few columns, so zero pivots occur), sometimes with
    one row and column zeroed, one diagonal entry zeroed or one entry
    pair perturbed."""
    cols = rng.randrange(1, n + 1)
    b = [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 5)) for _ in range(cols)] for _ in range(n)]
    m = [[sum(x * y for x, y in zip(b[i], b[j])) for j in range(n)] for i in range(n)]
    kind = rng.randrange(4)
    i, j = rng.randrange(n), rng.randrange(n)
    if kind == 1:
        for k in range(n):
            m[i][k] = m[k][i] = Fraction(0)
    elif kind == 2:
        m[i][i] = Fraction(0)  # a zero pivot whose row need not vanish
    elif kind == 3:
        d = Fraction(rng.randrange(-2, 3), rng.randrange(1, 4))
        m[i][j] += d
        if i != j:
            m[j][i] += d
    return m


class TestPSDMatrixAgainstFractions:
    def test_seeded_symmetric(self):
        rng = random.Random(11)
        verdicts = []
        for _ in range(600):
            m = random_symmetric(rng, rng.randrange(1, 8))
            expect = fraction_psd(m)
            assert is_positive_semidefinite_matrix(m) is expect
            verdicts.append(expect)
        assert 100 < sum(verdicts) < 500  # both verdicts are exercised

    def test_zero_pivot_cases(self):
        z, one = Fraction(0), Fraction(1)
        cases = [
            [[z, z, z], [z, one, one], [z, one, Fraction(2)]],  # zero row: PSD
            [[z, z, one], [z, one, z], [one, z, one]],  # zero pivot, nonzero row
            [[one, one], [one, one]],  # a later pivot becomes 0
            [[one, one, z], [one, one, one], [z, one, one]],  # ... with a nonzero row
            [[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]],  # negative
        ]
        for m in cases:
            assert is_positive_semidefinite_matrix(m) is fraction_psd(m)
        assert [is_positive_semidefinite_matrix(m) for m in cases] == [True, False, True, False, False]

    def test_input_unchanged(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
        copy = [row[:] for row in m]
        is_positive_semidefinite_matrix(m)
        assert m == copy


class TestAffineCharacterDefinition:
    def test_all_of_affine3(self):
        """χ_{k,d}(g·v) = 2^{-k·rank(g-I)}, times [v ∈ R(g-I)] when d = 0,
        with R(g-I) enumerated."""
        for g in enumerate_group("affine", 3):
            in_range = g.v in range_subgroup(g.g)
            for k in (1, 2):
                for d in (0, 1):
                    expect = Fraction(1, 1 << (k * rank_defect(g.g)))
                    if d == 0 and not in_range:
                        expect = Fraction(0)
                    assert evaluate(CharacterSpec("affine", k=k, d=d), g) == expect


class TestPSDCharacters:
    def test_singleton(self):
        assert is_positive_definite(CharacterSpec("regular"), [Affine.identity()])

    def test_regular_any_sample(self):
        pool = enumerate_group("affine", 2)
        rng = random.Random(0)
        sample = rng.sample(pool, 8)
        assert is_positive_definite(CharacterSpec("regular"), sample)

    def test_three_element_example(self):
        chi = CharacterSpec("affine", k=1, d=1)
        sample = [Affine.identity(), Affine.matrix(S), Affine.matrix(T)]
        assert is_positive_definite(chi, sample)

    def test_affine_random_samples(self):
        pool = enumerate_group("affine", 3)
        rng = random.Random(1)
        for k in (1, 2):
            for d in (0, 1):
                chi = CharacterSpec("affine", k=k, d=d)
                for _ in range(5):
                    assert is_positive_definite(chi, rng.sample(pool, 8))

    def test_cantor_random_samples(self):
        pool = cantor_perms(2)
        rng = random.Random(2)
        for k in (1, 2):
            chi = CharacterSpec("cantor", k=k)
            for _ in range(5):
                assert is_positive_definite(chi, rng.sample(pool, 8))


class TestCentrality:
    def test_affine(self):
        pool = enumerate_group("affine", 3)
        rng = random.Random(3)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(50)]
        assert is_central(CharacterSpec("affine", k=1, d=1), pairs)
        assert is_central(CharacterSpec("affine", k=1, d=0), pairs)

    def test_cantor(self):
        pool = cantor_perms(2)
        rng = random.Random(4)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(50)]
        assert is_central(CharacterSpec("cantor", k=2), pairs)


class TestBranchOrder:
    def test_d1_dominates_d0(self):
        chi1 = CharacterSpec("affine", k=1, d=1)
        chi0 = CharacterSpec("affine", k=1, d=0)
        for g in enumerate_group("affine", 2):
            assert evaluate(chi1, g) >= evaluate(chi0, g)


class TestParse:
    def test_roundtrip(self):
        for name in ["affine:k=1,d=1", "gl:m=2", "cantor:k=inf", "regular"]:
            assert parse_character(name).name() == name

    def test_bad(self):
        with pytest.raises((ValueError, KeyError)):
            parse_character("mystery:k=1")


class TestMatchExpectation:
    def test_scalars_vs_regular(self):
        from isrlab.algebra import unit
        from isrlab.expectation import SubalgebraSpec, character_of
        from isrlab.groups import Wreath

        spec = SubalgebraSpec("scalars", [unit(Wreath.identity())], [Wreath.identity()])
        sample = enumerate_group("wreath", 2)
        cand = CharacterSpec("regular")
        assert all(character_of(spec, g) == evaluate(cand, g) for g in sample)

    def test_vectors_vs_inf(self):
        from isrlab.algebra import unit
        from isrlab.expectation import SubalgebraSpec, character_of

        basis = [unit(Affine.vector(F2Vector(b))) for b in range(4)]
        spec = SubalgebraSpec(
            "vectors", basis, [b.support().pop() for b in basis]
        )
        sample = enumerate_group("affine", 2)
        cand = CharacterSpec("affine", k=INF, d=0)
        assert all(character_of(spec, g) == evaluate(cand, g) for g in sample)
