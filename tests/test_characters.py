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
from isrlab.f2 import F2Matrix, F2Vector
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
