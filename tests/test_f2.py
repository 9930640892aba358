import hashlib
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isrlab import f2
from isrlab.errors import IdentityInput, SingularMatrix
from isrlab.f2 import (
    F2Matrix,
    F2Vector,
    _canonical_rows,
    _mul_rows,
    _subset_sums,
    mat_inverse,
    mat_mul,
    range_subgroup,
    rank_defect,
    transvection_factorize,
)

I = F2Matrix.identity()
S = F2Matrix.from_lists([[0, 1], [1, 0]])
T = F2Matrix.from_lists([[0, 1], [1, 1]])

# sha256 pins of transvection_factorize output (see TestFactorizeGolden)
GOLDEN_GL3 = "adb4738ca7a14783bef2762e21be84afd4a4dc137b37cdc07304e6a4409b8eb4"
GOLDEN_GL4 = "bb7cb47e03ef5b75384081afe41a00adc663f1d71bd747e4c27421966fb92e31"
GOLDEN_SINGULAR4 = "95602dcc0e67f99d162f261578ed569e216b061dc6c12c893f78da62edb23941"
GOLDEN_GL9 = "bd299ab69473ef11c4ff6e67cf6360401648385f1b842dc1ad6e1047275d7457"
GOLDEN_GL10 = "f06785688793cb46b7096dc32c22d11a5dcb2fb2da18ee17c1254f61f3c0b146"


def all_gl(n):
    """Every invertible n x n matrix over GF(2), brute-force filtered."""
    out = []
    for rows in itertools.product(range(1, 1 << n), repeat=n):
        m = F2Matrix(rows)
        if is_invertible(m):
            out.append(m)
    return out


def is_invertible(m):
    try:
        mat_inverse(m)
    except SingularMatrix:
        return False
    return True


def matrices(n):
    return st.lists(
        st.integers(min_value=0, max_value=(1 << n) - 1), min_size=n, max_size=n
    ).map(F2Matrix)


class TestVector:
    def test_canonical_dim(self):
        assert F2Vector.basis(3).dim == 3
        assert F2Vector(0).dim == 0
        assert F2Vector.from_bitstring("0100") == F2Vector.basis(2)

    def test_add_is_xor(self):
        v = F2Vector.basis(1) + F2Vector.basis(2)
        assert v.support() == [1, 2]
        assert v + v == F2Vector(0)

    def test_dot(self):
        v = F2Vector.from_bitstring("110")
        w = F2Vector.from_bitstring("011")
        assert v.dot(w) == 1
        assert v.dot(v) == 0


class TestMatMul:
    def test_identity_neutral(self):
        assert mat_mul(I, T) == T
        assert mat_mul(T, I) == T

    def test_involution(self):
        assert mat_mul(S, S) == I

    def test_hand_product(self):
        b = F2Matrix.from_lists([[1, 1], [0, 1]])
        assert mat_mul(S, b) == F2Matrix.from_lists([[0, 1], [1, 1]])

    @given(matrices(3), matrices(3), matrices(3))
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))

    def test_embedding_coherence(self):
        # same product whether computed at n=2 or padded to n=4
        a4 = F2Matrix([0b10, 0b01, 0b0100, 0b1000])
        assert a4 == S
        assert mat_mul(a4, T) == mat_mul(S, T)


class TestRowsInsideTheBlock:
    """Every row of an n-row matrix is below 2^n: the set-bit kernels
    index by it, and a row past the block would store I + E13 as (5,)."""

    @pytest.mark.parametrize("rows, i", [((5, 2), 0), ((1, 6), 1), ((0b100,), 0), ((1, -1), 1)])
    def test_row_outside_the_block_raises(self, rows, i):
        with pytest.raises(ValueError, match=f"^row {i} of a {len(rows)}-row matrix has a bit outside its block: "):
            F2Matrix(rows)

    def test_from_lists_checks_too(self):
        with pytest.raises(ValueError, match="^row 0 "):
            F2Matrix.from_lists([[0, 0, 1]])

    def test_padded_rows_give_the_one_form(self):
        e13 = F2Matrix((5, 2, 4))
        assert e13 == F2Matrix.transvection(1, 3) and e13.rows == (5, 2, 4)
        assert mat_mul(e13, e13) == I


def entrywise_product(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """a·b from the entry formula (ab)_ij = Σ_k a_ik b_kj, at the larger
    of the two stored dimensions."""
    n = max(a.n, b.n)
    return F2Matrix.from_lists(
        [
            [sum(a.entry(i, k) * b.entry(k, j) for k in range(1, n + 1)) & 1 for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    )


class TestMulRowsKernel:
    """The set-bit row kernel against the entry formula."""

    @staticmethod
    def samples(d, rng):
        """Canonical rows of dimension-d matrices: random ones, singular
        ones included, and invertible ones with their inverses."""
        out = [F2Matrix(tuple(rng.randrange(1 << d) for _ in range(d))) for _ in range(6)]
        for _ in range(3):
            g = F2Matrix(tuple(rng.randrange(1 << d) for _ in range(d)))
            if is_invertible(g):
                out += [g, mat_inverse(g)]
        return [m.rows for m in out]

    def test_every_pair_of_dimensions(self):
        # every small dimension, and both sides of the byte-wide table
        rng = random.Random(13)
        checked = trimmed = 0
        for da, db in itertools.product((*range(6), 8, 9, 10), repeat=2):
            for a in self.samples(da, rng):
                for b in self.samples(db, rng):
                    got = _mul_rows(a, b)
                    assert got == entrywise_product(F2Matrix(a), F2Matrix(b)).rows
                    assert got == _canonical_rows(got)
                    checked += 1
                    trimmed += len(got) < max(len(a), len(b))
        assert checked > 1000 and trimmed > 10

    def test_product_with_inverse_trims_to_identity(self):
        for n in range(1, 4):
            for g in all_gl(n):
                assert _mul_rows(g.rows, mat_inverse(g).rows) == ()

    def test_subset_sums(self):
        rows = (0b011, 0b110, 0b100)
        sums = _subset_sums(rows)
        for x in range(8):
            expect = 0
            for j in range(3):
                if x >> j & 1:
                    expect ^= rows[j]
            assert sums[x] == expect


class TestInverse:
    def test_identity(self):
        assert mat_inverse(I) == I

    def test_involution(self):
        assert mat_inverse(S) == S

    def test_elimination(self):
        assert mat_inverse(T) == F2Matrix.from_lists([[1, 1], [1, 0]])

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            mat_inverse(F2Matrix([0b11, 0b11]))

    def test_all_gl3(self):
        for g in all_gl(3):
            assert mat_mul(g, mat_inverse(g)) == I


class TestRankDefect:
    def test_examples(self):
        assert rank_defect(I) == 0
        assert rank_defect(S) == 1
        assert rank_defect(T) == 2

    def test_embedding_invariant(self):
        s4 = F2Matrix([0b10, 0b01, 0b100, 0b1000])
        assert rank_defect(s4) == 1

    def test_subadditive_dim3(self):
        gl3 = all_gl(3)
        for g in gl3[:40]:
            for h in gl3[:40]:
                assert rank_defect(mat_mul(g, h)) <= rank_defect(g) + rank_defect(h)


class TestRangeSubgroup:
    def test_identity(self):
        assert range_subgroup(I) == {F2Vector(0)}

    def test_swap(self):
        assert range_subgroup(S) == {F2Vector(0b00), F2Vector(0b11)}

    def test_full_range(self):
        assert range_subgroup(T) == {F2Vector(b) for b in range(4)}

    def test_size_matches_rank(self):
        for g in all_gl(3):
            assert len(range_subgroup(g)) == 1 << rank_defect(g)

    def test_containment_under_product(self):
        gl3 = all_gl(3)
        for g in gl3[:25]:
            for h in gl3[:25]:
                rg = range_subgroup(g)
                rh = range_subgroup(h)
                sums = {a + b for a in rg for b in rh}
                assert range_subgroup(mat_mul(g, h)) <= sums


def range_sum(factors):
    acc = {F2Vector(0)}
    for s in factors:
        acc = {a + b for a in acc for b in range_subgroup(s)}
    return frozenset(acc)


def check_factorization(g):
    """Rank-1 involution factors, each in canonical form, recomposing to
    g, ranges summing to R(g - I), and exactly rank(g - I) of them."""
    factors = transvection_factorize(g)
    prod = I
    for s in factors:
        assert s.rows == _canonical_rows(s.rows)
        assert rank_defect(s) == 1
        assert mat_mul(s, s) == I
        prod = mat_mul(prod, s)
    assert prod == g
    assert range_sum(factors) == range_subgroup(g)
    assert len(factors) == rank_defect(g)


class TestFactorize:
    def test_identity_rejected(self):
        with pytest.raises(IdentityInput):
            transvection_factorize(I)

    def test_swap_is_own_factor(self):
        assert transvection_factorize(S) == [S]

    def test_transvection(self):
        e12 = F2Matrix.transvection(1, 2)
        assert transvection_factorize(e12) == [e12]

    def test_t_example(self):
        factors = transvection_factorize(T)
        prod = I
        for s in factors:
            prod = mat_mul(prod, s)
        assert prod == T
        assert range_sum(factors) == range_subgroup(T)

    def test_exhaustive_gl3(self):
        gl3 = all_gl(3)
        assert len(gl3) == 168
        for g in gl3:
            if g != I:
                check_factorization(g)

    def test_dim4_samples(self):
        import random

        rng = random.Random(7)
        done = 0
        while done < 500:
            g = F2Matrix([rng.randrange(1, 16) for _ in range(4)])
            if g == I or not is_invertible(g):
                continue
            check_factorization(g)
            done += 1

    @given(st.integers(min_value=5, max_value=10).flatmap(matrices).filter(is_invertible))
    @settings(max_examples=60)
    def test_large_dims(self, g):
        assume(g != I)
        check_factorization(g)

    def test_singular_rejected(self):
        count = 0
        for n in (2, 3):
            for rows in itertools.product(range(1 << n), repeat=n):
                g = F2Matrix(rows)
                if is_invertible(g):
                    continue
                with pytest.raises(SingularMatrix):
                    transvection_factorize(g)
                count += 1
        assert count == 10 + 344


def sample(n, count, seed, invertible):
    """count seeded uniform draws of n x n matrices: from GL(n, F2) minus
    the identity, or singular ones."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = F2Matrix([rng.randrange(1 << n) for _ in range(n)])
        if g != I and is_invertible(g) == invertible:
            out.append(g)
    return out


def sample4(count, seed, invertible):
    return sample(4, count, seed, invertible)


def factor_digest(ms):
    """sha256 over the factor row tuples of each matrix, in order."""
    h = hashlib.sha256()
    for g in ms:
        h.update(repr(tuple(t.rows for t in transvection_factorize(g))).encode() + b"\n")
    return h.hexdigest()


def singular_messages(ms):
    out = []
    for g in ms:
        with pytest.raises(SingularMatrix) as exc:
            transvection_factorize(g)
        out.append(str(exc.value))
    return out


class TestFactorizeGolden:
    """The factors and singular-input messages, pinned from the
    factorization that checked invertibility up front: the f-calculus
    rows and the reports read the factors in this order."""

    def test_gl3(self):
        gl3 = [g for g in all_gl(3) if g != I]
        assert len(gl3) == 167
        assert factor_digest(gl3) == GOLDEN_GL3

    def test_gl4_sample(self):
        assert factor_digest(sample4(2000, 23, invertible=True)) == GOLDEN_GL4

    def test_singular4_messages(self):
        ms = sample4(500, 29, invertible=False)
        messages = singular_messages(ms)
        assert messages == [f"matrix of dimension {g.n} is singular" for g in ms]
        assert hashlib.sha256("\n".join(messages).encode()).hexdigest() == GOLDEN_SINGULAR4


class TestFactorizePastAByte:
    """Seeded GL(9) and GL(10) samples, whose rows do not fit the
    byte-wide set-bit table, pinned from the single-copy peel loop that
    walked set bits one lowest bit at a time."""

    @pytest.mark.parametrize("n, seed, golden", [(9, 31, GOLDEN_GL9), (10, 37, GOLDEN_GL10)])
    def test_gl_sample(self, n, seed, golden):
        ms = sample(n, 300, seed, invertible=True)
        assert min(g.n for g in ms) == n
        assert factor_digest(ms) == golden


class _Watched(dict):
    """A dict that records the largest size it ever reached."""

    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


class TestFactorizeShared:
    """The factors are interned across calls; each call's list is its own."""

    def test_calls_share_factors_not_lists(self):
        a, b = transvection_factorize(T), transvection_factorize(T)
        assert len(a) == 2 and a is not b
        assert all(s is t for s, t in zip(a, b, strict=True))

    def test_caller_edits_do_not_leak(self):
        expected = list(transvection_factorize(T))
        transvection_factorize(T).clear()
        transvection_factorize(T).append(S)
        assert transvection_factorize(T) == expected

    def test_singular_after_interning(self, monkeypatch):
        monkeypatch.setattr(f2, "_transvections", {})
        ms = sample4(500, 29, invertible=False)
        grew = 0
        for g in ms:
            before = len(f2._transvections)
            with pytest.raises(SingularMatrix, match=f"^matrix of dimension {g.n} is singular$"):
                transvection_factorize(g)
            grew += len(f2._transvections) > before
        assert grew > 0
        assert factor_digest(sample4(2000, 23, invertible=True)) == GOLDEN_GL4

    def test_bound_binds(self, monkeypatch):
        table = _Watched()
        monkeypatch.setattr(f2, "_transvections", table)
        monkeypatch.setattr(f2, "_TRANSVECTION_LIMIT", 8)
        assert factor_digest(sample4(2000, 23, invertible=True)) == GOLDEN_GL4
        assert table.peak == 8 and len(table) <= 8


@st.composite
def rank_deficient(draw):
    """An n x n matrix, 5 <= n <= 10, one of whose rows is the sum of a
    subset of the others (the empty sum included)."""
    n = draw(st.integers(min_value=5, max_value=10))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    k = draw(st.integers(0, n - 1))
    subset = draw(st.integers(0, (1 << n) - 1)) & ~(1 << k)
    rows[k] = 0
    for i in range(n):
        if subset >> i & 1:
            rows[k] ^= rows[i]
    return F2Matrix(rows)


class TestFactorizeSingular:
    @given(rank_deficient())
    @settings(max_examples=200)
    def test_rank_deficient_raises(self, g):
        assert not is_invertible(g)
        with pytest.raises(SingularMatrix, match=f"^matrix of dimension {g.n} is singular$"):
            transvection_factorize(g)
