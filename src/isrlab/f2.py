"""Exact GF(2) vectors and matrices, bit-packed into Python ints.

Vectors and matrices model the finitary objects of the direct-limit
groups: a vector is zero beyond some index, a matrix is the identity
beyond some index.  Every value is stored in canonical (minimal
dimension) form, so equality across truncation levels is plain
equality and identity-embedding is a no-op.

Coordinates are 1-indexed in the math and 0-indexed in the bit layout:
bit ``i`` of ``F2Vector.bits`` is coordinate ``i+1``.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .errors import IdentityInput, SingularMatrix


def _parity(x: int) -> int:
    return x.bit_count() & 1


class F2Vector:
    """A finitely supported column vector over GF(2)."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("bits must be a nonnegative int")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *a):
        raise AttributeError("F2Vector is immutable")

    def __reduce__(self):
        return F2Vector, (self.bits,)

    @classmethod
    def basis(cls, i: int) -> "F2Vector":
        """Standard basis vector e_i (1-indexed)."""
        return cls(1 << (i - 1))

    @classmethod
    def from_bits(cls, coords) -> "F2Vector":
        bits = 0
        for k, c in enumerate(coords):
            if c & 1:
                bits |= 1 << k
        return cls(bits)

    @property
    def dim(self) -> int:
        """Minimal n with all later coordinates zero."""
        return self.bits.bit_length()

    def support(self):
        """Sorted 1-indexed coordinates equal to 1."""
        return [i + 1 for i in range(self.dim) if (self.bits >> i) & 1]

    def __add__(self, other: "F2Vector") -> "F2Vector":
        return F2Vector(self.bits ^ other.bits)

    __xor__ = __add__
    __sub__ = __add__

    def dot(self, other: "F2Vector") -> int:
        return _parity(self.bits & other.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, F2Vector) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def to_bitstring(self, width: int | None = None) -> str:
        n = self.dim if width is None else width
        return "".join(str((self.bits >> i) & 1) for i in range(n))

    @classmethod
    def from_bitstring(cls, s: str) -> "F2Vector":
        return cls.from_bits(int(c) for c in s)

    def __repr__(self):
        return f"F2Vector({self.to_bitstring() or '0'})"


def _canonical_rows(rows) -> tuple[int, ...]:
    """Drop trailing row/column pairs that are identity rows/columns."""
    rows = tuple(rows)
    n = len(rows)
    while n:
        last = 1 << (n - 1)
        if rows[n - 1] != last:
            break
        col = 0
        for r in rows[: n - 1]:
            col |= r
        if col & last:
            break
        n -= 1
    return rows[:n]


class F2Matrix:
    """A matrix over GF(2) equal to the identity beyond its stored block.

    Row ``i`` (0-indexed) is an int bitmask whose bit ``j`` is entry
    (i+1, j+1).  The stored block is minimal: the last stored row/column
    pair is not an identity row/column.  Every row of an n-row matrix is
    below 2^n; the constructor raises ValueError naming the first that
    is not.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(rows)
        n = len(rows)
        for i, r in enumerate(rows):
            if r >> n:  # a bit at or above n; a negative row has them all
                raise ValueError(f"row {i} of a {n}-row matrix has a bit outside its block: {r}")
        object.__setattr__(self, "rows", _canonical_rows(rows))

    def __setattr__(self, *a):
        raise AttributeError("F2Matrix is immutable")

    def __reduce__(self):
        return F2Matrix, (self.rows,)

    @classmethod
    def identity(cls) -> "F2Matrix":
        return cls(())

    @classmethod
    def from_lists(cls, entries) -> "F2Matrix":
        rows = []
        for r in entries:
            bits = 0
            for j, c in enumerate(r):
                if c & 1:
                    bits |= 1 << j
            rows.append(bits)
        return cls(rows)

    @classmethod
    def transvection(cls, i: int, j: int) -> "F2Matrix":
        """I + E_ij, 1-indexed, i != j."""
        if i == j:
            raise ValueError("transvection requires i != j")
        n = max(i, j)
        rows = [(1 << k) for k in range(n)]
        rows[i - 1] |= 1 << (j - 1)
        return cls(rows)

    @classmethod
    def swap(cls, i: int, j: int) -> "F2Matrix":
        """Permutation matrix exchanging coordinates i and j (1-indexed)."""
        n = max(i, j)
        rows = [(1 << k) for k in range(n)]
        rows[i - 1], rows[j - 1] = rows[j - 1], rows[i - 1]
        return cls(rows)

    @property
    def n(self) -> int:
        """Dimension of the minimal non-identity block."""
        return len(self.rows)

    def row(self, i: int) -> int:
        """Row i (0-indexed) of the matrix viewed in any dimension > i."""
        return self.rows[i] if i < len(self.rows) else 1 << i

    def entry(self, i: int, j: int) -> int:
        """Entry at (i, j), 1-indexed."""
        return (self.row(i - 1) >> (j - 1)) & 1

    def is_identity(self) -> bool:
        return not self.rows

    def __eq__(self, other) -> bool:
        return isinstance(other, F2Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other: "F2Matrix") -> "F2Matrix":
        return mat_mul(self, other)

    def to_bitstring(self, width: int | None = None) -> str:
        """Row-major bitstring of the width x width upper-left block."""
        n = self.n if width is None else width
        mask = (1 << n) - 1
        return "".join(
            format(self.row(i) & mask, f"0{n}b")[::-1] for i in range(n)
        )

    @classmethod
    def from_bitstring(cls, s: str) -> "F2Matrix":
        n = isqrt(len(s))
        if n * n != len(s):
            raise ValueError("bitstring length is not a perfect square")
        return cls.from_lists(
            [[int(s[i * n + j]) for j in range(n)] for i in range(n)]
        )

    def __repr__(self):
        n = self.n
        if n == 0:
            return "F2Matrix(I)"
        return "F2Matrix(" + self.to_bitstring() + f", n={n})"


# Row kernels on canonical row tuples; the matrix API and the affine
# group elements both go through them.


class _SetBits(dict):
    """x -> the ascending tuple of the set-bit indices of x, each entry
    filled on first use.  Past n = 8 the kernels read a fresh one per
    call; up to n = 8 they read its 256 byte entries, ``_SET_BITS``."""

    def __missing__(self, x):
        t = self[x] = tuple([i for i in range(x.bit_length()) if x >> i & 1])
        return t


_SET_BITS = tuple(map(_SetBits().__getitem__, range(256)))


def _mul_rows(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical rows of the product a·b: row i of a·b is the sum of
    the rows of b selected by the set bits of row i of a."""
    la, lb = len(a), len(b)
    if la < lb:
        a += tuple([1 << i for i in range(la, lb)])
    elif lb < la:
        b += tuple([1 << i for i in range(lb, la)])
    set_bits = _SET_BITS if len(a) <= 8 else _SetBits()
    out = []
    for r in a:
        acc = 0
        for i in set_bits[r]:
            acc ^= b[i]
        out.append(acc)
    n = len(out)
    if n and out[-1] != 1 << (n - 1):  # the last row alone shows it canonical
        return tuple(out)
    return _canonical_rows(out)


def _subset_sums(rows) -> list[int]:
    """The 2^len(rows) table whose entry x is the sum of the rows
    selected by the set bits of x: the row vector x·M, for M the matrix
    with these rows."""
    sums = [0]
    for r in rows:
        sums += [s ^ r for s in sums]
    return sums


def _inverse_rows(a: tuple[int, ...]) -> tuple[int, ...]:
    """Rows of a^{-1} (canonical whenever a is); raises SingularMatrix."""
    n = len(a)
    # Gauss-Jordan on [A | I] packed into single ints.
    aug = [a[i] | (1 << (n + i)) for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if (aug[r] >> col) & 1:
                piv = r
                break
        if piv is None:
            raise SingularMatrix(f"matrix of dimension {n} is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and (aug[r] >> col) & 1:
                aug[r] ^= aug[col]
    return tuple([r >> n for r in aug])


# inverses of packed matrix rows, shared by ``mat_inverse`` and every
# Affine product; the bound holds all of GL(4, F2), 20,160 matrices
_mat_inverse_cached = lru_cache(maxsize=1 << 15)(_inverse_rows)


def _apply_rows(rows: tuple[int, ...], bits: int) -> int:
    """The vector g(v) for g given by rows: coordinates beyond the
    stored block pass through unchanged."""
    n = len(rows)
    out = bits >> n << n
    for i in range(n):
        if (rows[i] & bits).bit_count() & 1:
            out |= 1 << i
    return out


def mat_mul(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Exact GF(2) matrix product, auto-embedding to a common dimension."""
    return F2Matrix(_mul_rows(a.rows, b.rows))


def mat_inverse(a: F2Matrix) -> F2Matrix:
    """Inverse over GF(2); raises SingularMatrix on rank deficiency."""
    return F2Matrix(_mat_inverse_cached(a.rows))


def _echelon(vectors) -> list[int]:
    """A basis of the span of the vector bitmasks in echelon form:
    leading bits distinct and descending, so v lies in the span iff
    v -> min(v, v ^ b) over the basis, in order, ends at 0."""
    basis: list[int] = []
    for r in vectors:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return basis


def _rank_of_rows(rows) -> int:
    return len(_echelon(rows))


@lru_cache(maxsize=1 << 15)
def _range_basis(rows: tuple[int, ...]) -> tuple[int, ...]:
    """An echelon basis of R(g - I) as vector bitmasks (``_echelon``),
    for g given by its canonical rows; cached, like the inverse, over
    all of GL(4, F2), and a tuple, so no caller can change the cache."""
    n = len(rows)
    cols = []
    for j in range(n):
        c = 0
        for i in range(n):
            if (rows[i] ^ (1 << i)) >> j & 1:
                c |= 1 << i
        cols.append(c)
    return tuple(_echelon(cols))


def rank_defect(g: F2Matrix) -> int:
    """rank(g - I) over GF(2); invariant under identity-embedding."""
    return len(_range_basis(g.rows))


def range_subgroup(g: F2Matrix) -> frozenset[F2Vector]:
    """The enumerated subspace R(g - I), of size 2**rank_defect(g)."""
    return frozenset(F2Vector(x) for x in _subset_sums(_range_basis(g.rows)))


# the factors I + v·phi of transvection_factorize, keyed by (v, phi) and
# emptied past the bound, which holds every transvection up to n = 8
_TRANSVECTION_LIMIT = 1 << 15
_transvections: dict[tuple[int, int], F2Matrix] = {}


def transvection_factorize(g: F2Matrix) -> list[F2Matrix]:
    """Write g as an ordered product t1·t2·…·tk of rank-1 involutions
    whose ranges sum to R(g - I), with exactly k = rank(g - I) factors.

    Each step peels one factor: with D = g - I, x = e_j for the lowest
    nonzero column j of D and v = D·x, it picks phi in the row space of
    D with phi(v) = 0 and phi(x) = 1.  Then t = I + v·phi is a rank-1
    involution with range in R(g - I), and t·g - I = D + v·(phi·g) has
    rank one less: it kills x, and it kills ker D, where phi·g = phi
    and phi, a sum of rows of D, vanishes.  So a zero column of D stays
    zero, and the lowest nonzero column only moves right.
    Such phi is the row of D at an index in supp v ∖ supp D·v or, failing
    that, the sum of the rows at an index in supp v and one in
    supp D·v ∖ supp v.

    D is kept both as rows and as columns, each a bitmask.  Then v is
    column j, D·v the sum of the columns at supp v, and phi·D the sum of
    the rows at supp phi; the update D += v·(phi·g) adds phi·g to the
    rows at supp v and v to the columns at supp phi·g.  Every walk over
    set bits reads ``_SET_BITS`` (or, for n > 8, its per-call fill).

    Singular g is found inside the loop, with no rank pass up front.
    When neither choice exists, D·v = v, so g·v = 0 and g is singular.
    Conversely, each step that finds phi lowers rank(g - I) by one
    without using invertibility, and a product of invertible t's with a
    singular g is never I: so for singular g the loop meets D·v = v
    within rank(g - I) steps and raises SingularMatrix there.
    """
    if g.is_identity():
        raise IdentityInput("cannot factorize the identity")
    n = g.n
    set_bits = _SET_BITS if n <= 8 else _SetBits()
    diff = [r ^ (1 << i) for i, r in enumerate(g.rows)]  # the rows of D
    cols = [0] * n  # the columns of D
    for i, d in enumerate(diff):
        for k in set_bits[d]:
            cols[k] |= 1 << i
    factors: list[F2Matrix] = []
    j = 0
    while True:
        while not cols[j]:
            j += 1
            if j == n:
                return factors
        v = cols[j]
        dv = 0
        for i in set_bits[v]:
            dv ^= cols[i]
        m = v & ~dv
        if m:
            phi = diff[set_bits[m][0]]
        else:
            m = dv ^ v  # supp D·v ∖ supp v, as v ⊆ D·v here
            if not m:
                raise SingularMatrix(f"matrix of dimension {n} is singular")
            phi = diff[set_bits[v][0]] ^ diff[set_bits[m][0]]
        # t·g - I = D + v·(phi·g), and phi·g = phi + phi·D
        phi_g = phi
        for i in set_bits[phi]:
            phi_g ^= diff[i]
        # t = I + v·phi is shared by every call that peels it (F2Matrix is
        # immutable).  A miss builds it here, not in a helper: the first
        # call in a fresh process misses on every step, and a helper's
        # first call there costs more than this work.  t is the identity
        # beyond supp v ∪ supp phi, so its rows are canonical.
        f = _transvections.get((v, phi))
        if f is None:
            if len(_transvections) >= _TRANSVECTION_LIMIT:
                _transvections.clear()
            t = [1 << i for i in range((v | phi).bit_length())]
            for i in set_bits[v]:
                t[i] ^= phi
            f = object.__new__(F2Matrix)
            object.__setattr__(f, "rows", tuple(t))
            _transvections[v, phi] = f
        factors.append(f)
        for i in set_bits[v]:
            diff[i] ^= phi_g
        for k in set_bits[phi_g]:
            cols[k] ^= v
