"""Element arithmetic for the four group families, at finite truncation.

All four families share the normal form g·v with the product rule

    (g1, v1)(g2, v2) = (g1 g2, g2^{-1}(v1) + v2),

where g acts on the vector part: by matrix-vector product (Affine),
coordinate permutation (Wreath), cyclic shift (Lamplighter), or image
of a point set (Cantor, with "+" the symmetric difference taken modulo
complement).

Elements are immutable tuples of their fields, canonical at minimal
truncation level, so equality across truncations is plain equality.
The field order fixes each hash, and so the order of every set.

Affine and Wreath share ``_Semidirect``: the rule above, the inverse
and the conjugation closed forms over four hooks of H (product, inverse,
action on a bitmask both ways).  Lamplighter (its ``(m, v, t)`` layout)
and Cantor (factors lifted to a common level, canonical modulo
complement) keep their own ``mul`` and ``inv``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import itemgetter

from .errors import DimensionOutOfRange, FamilyMismatch, GroupTooLarge, NotSymmetric, Overflow
from .f2 import F2Matrix, F2Vector, _apply_rows, _mat_inverse_cached, _mul_rows, _rank_of_rows

DEFAULT_CAP = 10**6


# ---------------------------------------------------------------------------
# permutations as tuples of 0-indexed images, trailing fixed points stripped

def perm_canonical(p) -> tuple[int, ...]:
    p = list(p)
    while p and p[-1] == len(p) - 1:
        p.pop()
    return tuple(p)


def perm_image(p, i: int) -> int:
    return p[i] if i < len(p) else i


def perm_mul(p, q) -> tuple[int, ...]:
    """(p∘q)(i) = p(q(i))."""
    lp = len(p)
    out = [p[j] if j < lp else j for j in q]
    out.extend(p[len(out):])
    return perm_canonical(out)


def _perm_inverse(p) -> tuple[int, ...]:
    """p^{-1}; canonical when p is, since p^{-1} fixes its last point
    only if p does."""
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def transposition(i: int, j: int) -> tuple[int, ...]:
    """Transposition of 0-indexed points i and j."""
    n = max(i, j) + 1
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return perm_canonical(p)


def cycle(n: int) -> tuple[int, ...]:
    """The n-cycle (0 1 … n-1)."""
    return perm_canonical([(i + 1) % n for i in range(n)])


# ---------------------------------------------------------------------------
# the four element types


_tuple_eq, _tuple_ne = tuple.__eq__, tuple.__ne__


class _Element(tuple):
    """A tuple of the family's fields, read through properties, equal
    only to an element of its own class (Affine.vector(v) and
    Wreath.vector(v) share one tuple and hash but are unequal), plus the
    operations every family derives from its own ``mul`` / ``inv``.

    Each family states the ``order``, ``elements`` and a small generating
    set (``generators``) of its level-n truncation, an exponent k with
    order ≥ 2^k that is cheap at any level (``order_log2_floor``), and
    its JSON form:
    matrices as row-major bitstrings, vectors as bitstrings, permutations
    as image lists of 1..k, Cantor point sets as sorted letter-words.
    """

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and _tuple_eq(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or _tuple_ne(self, other)

    __hash__ = tuple.__hash__

    def __reduce__(self):
        return tuple.__new__, (type(self), tuple(self))

    def identity_like(self):
        return type(self).identity()

    def conjugation(self):
        """The map x -> self·x·self^{-1}, with the inverse computed once,
        on the first call: a family's closed forms may serve every x."""
        mul, inv = self.mul, None

        def conj(x):
            nonlocal inv
            if inv is None:
                inv = self.inv()
            return mul(x).mul(inv)

        return conj

    def _orbit(self, conjugators, cap: int) -> set:
        """The BFS of ``orbit_under``: self under the conjugations by the
        conjugators."""
        return _reach(self, [c.conjugation() for c in conjugators], cap, "conjugation orbit")


class _Semidirect(_Element):
    """Element (h, v) of H ⋉ ⊕Z2, the tuple ``(h, bits)``: h in H's
    canonical form, with H's identity stored as ``()``, and the bits of v,
    so its hash equals the hash of ``(h, bits)``.  ``v`` builds the
    F2Vector on read.

    The product rule, the inverse and the conjugation closed forms are
    written here once; a family supplies four hooks: H's product
    ``_h_mul``, H's inverse ``_h_inv``, and H's action on a bitmask,
    ``_push(h, v)`` = h(v) and ``_pull(h, v)`` = h^{-1}(v).
    """

    __slots__ = ()

    bits = property(itemgetter(1))

    @property
    def v(self) -> F2Vector:
        return F2Vector(self.bits)

    @classmethod
    def _of(cls, h, bits: int):
        """The element with canonical h and vector bits, unchecked."""
        return tuple.__new__(cls, (h, bits))

    @classmethod
    def identity(cls):
        return cls._of((), 0)

    @classmethod
    def vector(cls, v: F2Vector):
        return cls._of((), v.bits)

    def is_identity(self) -> bool:
        return not self[0] and not self[1]

    def sort_key(self):
        return tuple(self)

    # mul, inv, the conjugation maps and each family's ``elements`` build
    # their results with tuple.__new__ inline, not through _of: they are
    # the hot path
    def mul(self, other):
        h1, v1 = self
        h2, v2 = other
        if not h2:  # vector factors are the common hot path
            return tuple.__new__(self.__class__, (h1, v1 ^ v2))
        return tuple.__new__(self.__class__, (self._h_mul(h1, h2), self._pull(h2, v1) ^ v2))

    def inv(self):
        h, v = self
        if not h:
            return self
        return tuple.__new__(self.__class__, (self._h_inv(h), self._push(h, v)))

    def conjugation(self):
        """The map x -> self·x·self^{-1}, in closed form where self is a
        vector (e, a): (h, w) -> (h, w + h^{-1}(a) + a); and where self is
        (h, 0) and x a vector (e, w): (e, w) -> (e, h(w)).  Every other
        pair takes the general map, which inverts self only once an x
        that is not a vector shows up."""
        h, a = self
        cls, pull, push = self.__class__, self._pull, self._push
        if not h:
            return lambda x: tuple.__new__(cls, (x[0], pull(x[0], a) ^ x[1] ^ a))
        general = _Element.conjugation(self)
        if a:
            return general
        return lambda x: general(x) if x[0] else tuple.__new__(cls, ((), push(h, x[1])))


class Affine(_Semidirect):
    """Element (g, v) of GL(n,F2) ⋉ F2^n: the tuple ``(rows, bits)``, g
    as canonical packed rows.  ``g`` builds the F2Matrix on read.
    """

    __slots__ = ()

    family = "affine"
    rows = property(itemgetter(0))
    _h_mul = staticmethod(_mul_rows)
    _h_inv = staticmethod(_mat_inverse_cached)
    _push = staticmethod(_apply_rows)

    @staticmethod
    def _pull(rows, v: int) -> int:
        return _apply_rows(_mat_inverse_cached(rows), v)

    def __new__(cls, g: F2Matrix, v: F2Vector):
        return cls._of(g.rows, v.bits)

    @property
    def g(self) -> F2Matrix:
        return F2Matrix(self.rows)

    def __repr__(self):
        return f"Affine(g={self.g!r}, v={self.v!r})"

    @staticmethod
    def matrix(g: F2Matrix) -> "Affine":
        return Affine._of(g.rows, 0)

    @staticmethod
    def order(n: int) -> int:
        _check_level("affine", n)
        return math.prod((1 << n) - (1 << k) for k in range(n)) << n

    @staticmethod
    def order_log2_floor(n: int) -> int:
        # each factor 2^n − 2^k of |GL(n,F2)| is at least 2^{n-1}
        return n * n

    @staticmethod
    def elements(n: int) -> list["Affine"]:
        """Cosets in ``gl_elements`` order, v ascending: (g_i, v) is at i·2^n + v."""
        new = tuple.__new__
        return [new(Affine, (g.rows, bits)) for g in gl_elements(n) for bits in range(1 << n)]

    @staticmethod
    def generators(n: int) -> list["Affine"]:
        gens = [Affine.vector(F2Vector.basis(1))]
        if n >= 2:
            gens.append(Affine.matrix(F2Matrix.transvection(1, 2)))
            perm_rows = [1 << ((i + 1) % n) for i in range(n)]
            gens.append(Affine.matrix(F2Matrix(perm_rows)))
        return gens

    def to_json(self) -> dict:
        n = max(self.g.n, self.v.dim)
        return {
            "family": "affine",
            "n": n,
            "g": self.g.to_bitstring(n),
            "v": self.v.to_bitstring(n),
        }

    @staticmethod
    def from_json(d: dict) -> "Affine":
        g = F2Matrix.from_bitstring(_bits(d.get("g"), "g"))
        if _rank_of_rows(g.rows) < g.n:
            raise ValueError("g must be an invertible matrix")
        return Affine(g, F2Vector.from_bitstring(_bits(d.get("v"), "v")))



class Wreath(_Semidirect):
    """Element (σ, v) of S_n ⋉ Z2^n; σ permutes the n lamp coordinates.
    The tuple ``(sigma, bits)``, σ without trailing fixed points.
    """

    __slots__ = ()

    family = "wreath"
    sigma = property(itemgetter(0))
    _h_mul = staticmethod(perm_mul)
    _h_inv = staticmethod(_perm_inverse)

    @staticmethod
    def _pull(sigma, v: int) -> int:
        """σ^{-1}(v): coordinate j is coordinate σ(j) of v."""
        n = len(sigma)
        out = v >> n << n
        for j in range(n):
            out |= ((v >> sigma[j]) & 1) << j
        return out

    @staticmethod
    def _push(sigma, v: int) -> int:
        """σ(v): coordinate σ(i) is coordinate i of v."""
        n = len(sigma)
        out = v >> n << n
        for i in range(n):
            out |= ((v >> i) & 1) << sigma[i]
        return out

    def __new__(cls, sigma, v: F2Vector):
        return cls._of(perm_canonical(sigma), v.bits)

    def __repr__(self):
        return f"Wreath(sigma={self.sigma!r}, v={self.v!r})"

    @staticmethod
    def perm(p) -> "Wreath":
        return Wreath._of(perm_canonical(p), 0)

    @staticmethod
    def order(n: int) -> int:
        _check_level("wreath", n)
        return math.factorial(n) << n

    @staticmethod
    def order_log2_floor(n: int) -> int:
        # n! ≥ 2^{n-1}
        return max(2 * n - 1, 0)

    @staticmethod
    def elements(n: int) -> list["Wreath"]:
        """Cosets in ``permutations`` order, v ascending: (σ_i, v) is at i·2^n + v."""
        perms = map(perm_canonical, itertools.permutations(range(n)))
        return [tuple.__new__(Wreath, (sigma, bits)) for sigma in perms for bits in range(1 << n)]

    @staticmethod
    def generators(n: int) -> list["Wreath"]:
        gens = [Wreath.vector(F2Vector.basis(1))]
        if n >= 2:
            gens.append(Wreath.perm(transposition(0, 1)))
            gens.append(Wreath.perm(cycle(n)))
        return gens

    def to_json(self) -> dict:
        n = max(len(self.sigma), self.v.dim)
        return {
            "family": "wreath",
            "n": n,
            "perm": [perm_image(self.sigma, i) + 1 for i in range(n)],
            "v": self.v.to_bitstring(n),
        }

    @staticmethod
    def from_json(d: dict) -> "Wreath":
        return Wreath(
            _perm(d.get("perm"), "perm"),
            F2Vector.from_bitstring(_bits(d.get("v"), "v")),
        )



class Lamplighter(_Element):
    """Element (v, t) of Z2 ≀ (Z/m): lamps v indexed by Z/m, shift t.

    The tuple ``(m, v, t)``; ``v`` is the lamp bitmask over Z/m.
    """

    __slots__ = ()

    family = "lamplighter"
    m = property(itemgetter(0))
    v = property(itemgetter(1))
    t = property(itemgetter(2))

    def __new__(cls, m: int, v: int, t: int):
        if m < 1:
            raise ValueError("modulus must be positive")
        return _lamplighter(m, v & ((1 << m) - 1), t % m)

    def __repr__(self):
        return f"Lamplighter(m={self.m!r}, v={self.v!r}, t={self.t!r})"

    @staticmethod
    def identity(m: int) -> "Lamplighter":
        return Lamplighter(m, 0, 0)

    def identity_like(self) -> "Lamplighter":
        return _lamplighter(self.m, 0, 0)

    @staticmethod
    def lamp(m: int, i: int) -> "Lamplighter":
        """δ at position i (0-indexed mod m)."""
        return Lamplighter(m, 1 << (i % m), 0)

    @staticmethod
    def shift(m: int, t: int = 1) -> "Lamplighter":
        return Lamplighter(m, 0, t)

    def is_identity(self) -> bool:
        return self.v == 0 and self.t == 0

    def sort_key(self):
        return (self.m, self.t, self.v)

    def mul(self, other: "Lamplighter") -> "Lamplighter":
        m, v1, t1 = self
        _, v2, t2 = other
        return _lamplighter(m, _shift_bits(v1, -t2, m) ^ v2, (t1 + t2) % m)

    def inv(self) -> "Lamplighter":
        m, v, t = self
        return _lamplighter(m, _shift_bits(v, t, m), -t % m)

    @staticmethod
    def order(m: int) -> int:
        _check_level("lamplighter", m)
        return m << m

    @staticmethod
    def order_log2_floor(m: int) -> int:
        # m·2^m ≥ 2^m once m ≥ 1; the empty level m = 0 has no elements
        return m

    @staticmethod
    def elements(m: int) -> list["Lamplighter"]:
        return [_lamplighter(m, bits, t) for t in range(m) for bits in range(1 << m)]

    @staticmethod
    def generators(m: int) -> list["Lamplighter"]:
        return [Lamplighter.lamp(m, 0), Lamplighter.shift(m, 1)]

    def to_json(self) -> dict:
        return {
            "family": "lamplighter",
            "m": self.m,
            "v": F2Vector(self.v).to_bitstring(self.m),
            "t": self.t,
        }

    @staticmethod
    def from_json(d: dict) -> "Lamplighter":
        v = F2Vector.from_bitstring(_bits(d.get("v"), "v"))
        return Lamplighter(_int(d.get("m"), "m"), v.bits, _int(d.get("t"), "t"))


def _lamplighter(m: int, v: int, t: int) -> Lamplighter:
    """The element with modulus m, lamps v < 2^m and shift 0 <= t < m,
    unchecked."""
    return tuple.__new__(Lamplighter, (m, v, t))


def _shift_bits(v: int, t: int, m: int) -> int:
    """Cyclically shift the lamp mask by t positions (bit i -> bit i+t)."""
    t %= m
    mask = (1 << m) - 1
    return ((v << t) | (v >> (m - t))) & mask if t else v


def _points(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Cantor(_Element):
    """Element (σ, A) of S(2^m) ⋉ C̃_m.

    The tuple ``(sigma, mask)``.  Points of the level-m Cantor
    truncation are ints in [0, 2^m); bit j-1 of a point is its j-th
    letter.  σ is a tuple of 2^m point images, so ``m`` is read off its
    length.  A is a point set taken modulo complement, stored as the
    int ``mask`` whose bit p is point p; the stored representative
    omits the all-zeros point, so bit 0 is always clear (a set holding
    point 0 is replaced by its complement, ``mask ^ full``).  The level
    is minimal under the duplicating embedding s -> (s, s), which maps
    point w to the pair {w, w + 2^m}: ``mask | mask << 2^m`` one level
    up.  ``a`` is the point set as a frozenset.
    """

    __slots__ = ()

    family = "cantor"
    sigma = property(itemgetter(0))
    mask = property(itemgetter(1))

    @property
    def m(self) -> int:
        return len(self[0]).bit_length() - 1

    def __new__(cls, m: int, sigma, a=()):
        sigma = tuple(sigma)
        if len(sigma) != 1 << m:
            raise ValueError("permutation size must be 2^m")
        mask = 0
        for p in a:
            mask |= 1 << p
        if mask >> len(sigma):
            raise ValueError("point outside the level-m truncation")
        return _cantor(m, sigma, mask)

    @property
    def a(self) -> frozenset[int]:
        return frozenset(_points(self.mask))

    def __repr__(self):
        return f"Cantor(m={self.m!r}, sigma={self.sigma!r}, a={self.a!r})"

    @staticmethod
    def identity() -> "Cantor":
        return Cantor(0, (0,))

    @staticmethod
    def perm(m: int, sigma) -> "Cantor":
        return Cantor(m, sigma)

    @staticmethod
    def indicator(m: int, a) -> "Cantor":
        """The projection-like involution f̃_A for a point set A."""
        return Cantor(m, range(1 << m), a)

    def is_identity(self) -> bool:
        return self.m == 0

    def _lift(self, m: int) -> tuple[tuple[int, ...], int]:
        """The (σ, mask) payload embedded to level m ≥ self.m."""
        sigma, mask = self
        for lvl in range(self.m, m):
            half = 1 << lvl
            sigma = sigma + tuple([x + half for x in sigma])
            mask |= mask << half
        return sigma, mask

    def at_level(self, m: int) -> tuple[tuple[int, ...], frozenset[int]]:
        """The (σ, A) payload embedded to level m ≥ self.m."""
        sigma, mask = self._lift(m)
        return sigma, frozenset(_points(mask))

    def sort_key(self):
        return (self.m, self.sigma, tuple(_points(self.mask)))

    def mul(self, other: "Cantor") -> "Cantor":
        m = max(self.m, other.m)
        s1, a1 = self._lift(m)
        s2, a2 = other._lift(m)
        # σ2^{-1}(A1) is the set of i with σ2(i) in A1
        for p in _points(a1):
            a2 ^= 1 << s2.index(p)
        return _cantor(m, tuple([s1[j] for j in s2]), a2)

    def inv(self) -> "Cantor":
        sigma, mask = self
        image = 0
        for p in _points(mask):
            image |= 1 << sigma[p]
        return _cantor(self.m, _perm_inverse(sigma), image)

    @staticmethod
    def order(m: int) -> int:
        _check_level("cantor", m)
        return math.factorial(1 << m) << ((1 << m) - 1)

    @staticmethod
    def order_log2_floor(m: int) -> int:
        # N! ≥ 2^{N-1} with N = 2^m; m is clamped so the bound stays a
        # small int (it only grows with m, and 2^65 − 2 outruns any cap)
        return (2 << min(m, 64)) - 2

    @staticmethod
    def elements(m: int) -> list["Cantor"]:
        npts = 1 << m
        # point sets without point 0: representatives mod complement
        sets = [c for r in range(npts) for c in itertools.combinations(range(1, npts), r)]
        return [Cantor(m, p, a) for p in itertools.permutations(range(npts)) for a in sets]

    @staticmethod
    def generators(m: int) -> list["Cantor"]:
        npts = 1 << m
        gens = [Cantor.indicator(m, {1})] if m >= 1 else []
        if npts >= 2:
            gens.append(Cantor.perm(m, transposition(0, 1) + tuple(range(2, npts))))
            gens.append(Cantor.perm(m, cycle(npts)))
        return gens

    def to_json(self) -> dict:
        return {
            "family": "cantor",
            "m": self.m,
            "perm": [x + 1 for x in self.sigma],
            "a": sorted(F2Vector(p).to_bitstring(self.m) for p in _points(self.mask)),
        }

    @staticmethod
    def from_json(d: dict) -> "Cantor":
        words = d.get("a")
        if not isinstance(words, list):
            raise ValueError("a must be a list of point words")
        pts = frozenset(F2Vector.from_bitstring(_bits(w, "a point word")).bits for w in words)
        m, sigma = _int(d.get("m"), "m"), _perm(d.get("perm"), "perm")
        if m < 0 or len(sigma).bit_length() != m + 1:  # before any 1 << m
            raise ValueError("perm must have 2^m entries")
        return Cantor(m, sigma, pts)

    def _payload(self, m: int):
        """The level-m payload (σ, mask) that ``_conjugation_at(m)`` maps,
        for m ≥ self.m: σ as bytes while its 2^m points fit in a byte,
        as a tuple above that.  Payloads and elements of level ≤ m are in
        bijection, the mask's bit 0 cleared by complement."""
        sigma, mask = self._lift(m)
        return (bytes(sigma) if m <= 8 else sigma), mask

    def conjugation(self):
        """The map x -> self·x·self^{-1}: x's payload at the higher of
        the two levels, through that level's ``_conjugation_at`` (built
        once, on the first x that needs it), made canonical."""
        at_level: dict = {}
        own = self.m

        def conj(x: "Cantor") -> "Cantor":
            m = x.m
            if m < own:
                m = own
            f = at_level.get(m)
            if f is None:
                f = at_level[m] = self._conjugation_at(m)
            sigma, mask = f(x._payload(m))
            return _cantor(m, tuple(sigma), mask)

        return conj

    def _conjugation_at(self, m: int):
        """self's conjugation as a map on level-m payloads, m ≥ self.m,
        touching only the points τ moves and those of B or its complement,
        whichever is smaller (B is taken modulo complement).  For
        x = (σ, A) and self = (τ, B) = τ·f̃_B, conjugation by f̃_B adds
        B + σ^{-1}(B) to A (σ^{-1}(b) is ``σ.index(b)``), and conjugation
        by τ then maps (σ, A) to (τστ^{-1}, τ(A)): τ∘σ relabels the
        images and the reorder by τ^{-1} moves the positions."""
        tau, bmask = self._lift(m)
        full = (1 << (1 << m)) - 1
        if bmask.bit_count() > (1 << m) // 2:
            bmask ^= full
        bpts = _points(bmask)
        moves = [(1 << i, 1 << j) for i, j in enumerate(tau) if i != j]
        pmask = sum(src for src, _ in moves)
        reorder = itemgetter(*_perm_inverse(tau))
        if m <= 8:
            table = bytes(tau) + bytes(range(len(tau), 256))

            def relabel(sigma):
                return bytes(reorder(sigma.translate(table)))
        else:

            def relabel(sigma):
                return reorder(tuple(map(tau.__getitem__, sigma)))

        def conj(payload):
            sigma, mask = payload
            if bpts:
                mask ^= bmask
                for b in bpts:
                    mask ^= 1 << sigma.index(b)
            if moves:
                sigma = relabel(sigma)
                image = mask & ~pmask
                for src, dst in moves:
                    if mask & src:
                        image |= dst
                mask = image
            return sigma, mask ^ full if mask & 1 else mask

        return conj

    def _orbit(self, conjugators, cap: int) -> set["Cantor"]:
        """The BFS of ``orbit_under`` on payloads at the top level of self
        and the conjugators, each orbit element made canonical once."""
        m = max([self.m] + [c.m for c in conjugators])
        maps = [c._conjugation_at(m) for c in conjugators]
        seen = _reach(self._payload(m), maps, cap, "conjugation orbit")
        return {_cantor(m, tuple(sigma), mask) for sigma, mask in seen}


def _cantor(m: int, sigma: tuple[int, ...], mask: int) -> Cantor:
    """The canonical element of a level-m payload: bit 0 of the mask
    clear and the level minimal."""
    if mask & 1:
        mask ^= (1 << (1 << m)) - 1
    # reduce while both halves act identically and A is a union of
    # {w, w + 2^(m-1)} pairs
    while m:
        half = 1 << (m - 1)
        low = (1 << half) - 1
        if (
            mask >> half != mask & low
            or sigma[half] != sigma[0] + half
            or sigma[half:] != tuple([x + half for x in sigma[:half]])
        ):
            break
        m -= 1
        sigma = sigma[:half]
        mask &= low
    return tuple.__new__(Cantor, (sigma, mask))


GroupElement = Affine | Wreath | Lamplighter | Cantor

FAMILIES = {cls.family: cls for cls in (Affine, Wreath, Lamplighter, Cantor)}


def _check_level(family: str, n: int) -> None:
    if n < 0:
        raise DimensionOutOfRange(f"{family} truncation {n} is negative")


# validators of outside JSON input: each raises ValueError
def _bits(s, name: str) -> str:
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"{name} must be a string of 0s and 1s")
    return s


def _int(x, name: str) -> int:
    if type(x) is not int:
        raise ValueError(f"{name} must be an integer")
    return x


def _perm(p, name: str) -> tuple[int, ...]:
    """A one-line image list of 1..k, as 0-indexed images."""
    if (
        not isinstance(p, list)
        or any(type(i) is not int for i in p)
        or sorted(p) != list(range(1, len(p) + 1))
    ):
        raise ValueError(f"{name} must be a permutation of 1..k")
    return tuple(i - 1 for i in p)


def cylinder_points(word: str, m: int) -> frozenset[int]:
    """Points of {0,1}^m whose first len(word) letters spell word."""
    k = len(word)
    if k > m:
        raise ValueError("word longer than level")
    base = 0
    for j, c in enumerate(word):
        if c == "1":
            base |= 1 << j
    return frozenset(base | (rest << k) for rest in range(1 << (m - k)))


# ---------------------------------------------------------------------------
# group operations


def _check_family(a: GroupElement, b: GroupElement):
    if a.family != b.family:
        raise FamilyMismatch(f"{a.family} vs {b.family}")
    if isinstance(a, Lamplighter) and a.m != b.m:
        raise FamilyMismatch(f"lamplighter moduli differ: {a.m} vs {b.m}")


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """(g1,v1)(g2,v2) = (g1 g2, g2^{-1}(v1) + v2)."""
    _check_family(a, b)
    return a.mul(b)


def inverse(a: GroupElement) -> GroupElement:
    """(g, v)^{-1} = (g^{-1}, g(v))."""
    return a.inv()


def conjugate(g: GroupElement, h: GroupElement) -> GroupElement:
    """g · h · g^{-1}."""
    _check_family(g, h)
    return g.conjugation()(h)


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def gl_elements(n: int) -> tuple[F2Matrix, ...]:
    """All of GL(n, F2), with the row tuples in lexicographic order.

    Built row by row: each prefix of independent rows is extended by
    every row, ascending, outside the span of the rows above it.  A
    prefix of independent rows always extends to an invertible matrix
    and a dependent one never does, so this lists, in the same order,
    exactly the rows of ``itertools.product(range(2^n), repeat=n)`` of
    rank n, without testing the other 2^{n²} − |GL(n, F2)| candidates.
    """
    prefixes = [()]
    for _ in range(n):
        extended = []
        for rows in prefixes:
            span = [0]
            for x in rows:
                span += [s ^ x for s in span]
            extended += [rows + (r,) for r in range(1 << n) if r not in span]
        prefixes = extended
    return tuple([F2Matrix(rows) for rows in prefixes])


def capped_count(log2_floor: int, count, cap: int, refusal) -> int:
    """count() when it is at most cap; otherwise raises refusal(text).

    ``count()`` is exact but can cost more time than the work the cap
    bounds, so it is skipped once the floor 2^log2_floor alone is above
    cap and 2^64.  Past 64 bits the text reads "at least 2^j": a count
    that large is read by its size, and past 4300 digits Python will not
    convert it to a string at all.
    """
    if log2_floor < max(cap.bit_length(), 64):
        k = count()
        if k <= cap:
            return k
        log2_floor = k.bit_length() - 1
        if log2_floor < 64:
            raise refusal(str(k))
    raise refusal(f"at least 2^{log2_floor}")


def enumerate_group(family: str, n: int, cap: int = DEFAULT_CAP) -> list[GroupElement]:
    """All elements of the truncated group, deterministically ordered."""
    cls = FAMILIES.get(family)
    if cls is None:
        raise FamilyMismatch(f"unknown family {family!r}")
    _check_level(family, n)
    capped_count(
        cls.order_log2_floor(n),
        lambda: cls.order(n),
        cap,
        lambda text: GroupTooLarge(f"{family} truncation {n} has {text} elements, above cap {cap}"),
    )
    return cls.elements(n)


def _reach(start: GroupElement, maps, cap: int, what: str) -> set[GroupElement]:
    """Every element reached from start by the maps, by BFS; raises
    Overflow once the set would pass cap elements."""
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for x in frontier:
            for f in maps:
                y = f(x)
                if y not in seen:
                    if len(seen) >= cap:
                        raise Overflow(f"{what} exceeds cap {cap}")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _right_multiplications(gens) -> list:
    """The maps x -> x·s for s in gens, one family."""
    if not gens:
        raise ValueError("need at least one generator")
    for s in gens:
        _check_family(gens[0], s)
    return [lambda x, s=s: x.mul(s) for s in gens]


def orbit_under(
    h: GroupElement, conjugators, cap: int = DEFAULT_CAP
) -> set[GroupElement]:
    """Conjugation orbit of h under the group generated by the conjugators.

    When the conjugator set is a subgroup this is exactly
    {t^{-1} h t : t in C}.  The set must be closed under inverse.

    The search conjugates by one of each pair {c, c^{-1}}: the elements
    lie in a finite truncation, so each c has finite order k and
    conjugation by c^{-1} is conjugation by c done k − 1 times.
    """
    conjugators = list(conjugators)
    cset = set(conjugators)
    steps, paired = [], set()
    for c in conjugators:
        _check_family(c, h)
        c_inv = inverse(c)
        if c_inv not in cset:
            raise NotSymmetric(f"conjugator set lacks the inverse of {c!r}")
        if c not in paired:
            paired.update((c, c_inv))
            steps.append(c)
    return h._orbit(steps, cap)


def subgroup_closure(gens, cap: int = DEFAULT_CAP) -> set[GroupElement]:
    """The subgroup generated by gens, by BFS over products.

    The search multiplies by the generators alone: they lie in a finite
    truncation, so the products of generators already form a group
    (g^{-1} = g^{k-1} for g of order k).
    """
    gens = list(gens)
    maps = _right_multiplications(gens)
    return _reach(gens[0].identity_like(), maps, cap, "subgroup closure")


def normal_closure(
    gens, n: int, cap: int = DEFAULT_CAP
) -> set[GroupElement]:
    """Smallest subgroup of the level-n truncation containing gens and
    closed under conjugation by the whole truncated group.

    One search from the identity, by x -> x·s for s in gens and by
    conjugation by each generator t of the truncation.  The reached set
    N is the normal closure:

    - each map sends a product of conjugates of gens to another, so N
      lies in the normal closure;
    - N is closed under conjugation by every t; it is finite, so
      tNt^{-1} = N, and N is closed under conjugation by t^{-1} (a
      power of t) too, and so by the whole group, which the t generate;
    - x·csc^{-1} = c(c^{-1}xc·s)c^{-1} for s in gens, so N is closed
      under right multiplication by every conjugate csc^{-1};
    - N is finite and contains e, so it holds the subgroup those
      conjugates generate, which is the normal closure.
    """
    gens = list(gens)
    maps = _right_multiplications(gens)
    for t in type(gens[0]).generators(n):
        _check_family(t, gens[0])
        maps.append(t.conjugation())
    return _reach(gens[0].identity_like(), maps, cap, "normal closure")


# ---------------------------------------------------------------------------
# structure-aware centralizer generating sets (for orbit growth at
# truncations too large to enumerate)


def affine_vector_centralizer_gens(n: int) -> list[GroupElement]:
    """Generators of the centralizer of the pure vector e1 in the level-n
    affine truncation: the e1-stabilizer in GL times all of F2^n.

    Stab(e1) ≅ F2^{n-1} ⋊ GL(n-1).  GL(n-1) on coordinates 2..n is
    generated by I + E_23 and the cycle of 2..n with its inverse (the
    kind of pair ``Affine.generators`` uses), and it is transitive on the
    nonzero first rows, so its conjugates of I + E_12 give the F2^{n-1}
    part.  Stab(e1) is transitive on F2^n minus {0, e1}, so e1 and e2
    give every vector.
    """
    gens: list[GroupElement] = [Affine.vector(F2Vector.basis(1))]
    if n >= 2:
        gens.append(Affine.vector(F2Vector.basis(2)))
        gens.append(Affine.matrix(F2Matrix.transvection(1, 2)))
    if n >= 3:
        gens.append(Affine.matrix(F2Matrix.transvection(2, 3)))
        # row i of the cycle of coordinates 2..n, 0-indexed 1..n-1
        rows = [1] + [1 << (1 + i % (n - 1)) for i in range(1, n)]
        cyc = Affine.matrix(F2Matrix(rows))
        gens += [cyc, cyc.inv()]
    return list(dict.fromkeys(gens))


def _cantor_perm(m: int, mapping: dict) -> Cantor:
    """The level-m point permutation moving src to dst for each item."""
    p = list(range(1 << m))
    for src, dst in mapping.items():
        p[src] = dst
    return Cantor.perm(m, p)


def _cantor_sym_gens(m: int, items: list[tuple[int, ...]]) -> list[Cantor]:
    """A transposition and the cycle of the items with its inverse: they
    generate Sym(items), moving the points of each item (tuples of one
    length) in parallel."""
    if len(items) < 2:
        return []

    def move(pairs) -> Cantor:
        return _cantor_perm(m, {x: y for p, q in pairs for x, y in zip(p, q)})

    cyc = move(zip(items, items[1:] + items[:1]))
    return [move([(items[0], items[1]), (items[1], items[0])]), cyc, cyc.inv()]


def cantor_indicator_centralizer_gens(m: int, a) -> list[GroupElement]:
    """Generators of the centralizer of f̃_A at level m: permutations
    preserving {A, complement(A)} times the whole abelian part.

    The permutations are Sym(A) × Sym(Aᶜ), with the A↔Aᶜ swap when
    |A| = |Aᶜ|: a transposition and the block cycle per block.  They move
    one point of a block onto each of its points, so f̃ of one point per
    block gives every single-point f̃, and single-point sets span the
    point sets modulo complement.
    """
    a = set(Cantor.indicator(m, a).at_level(m)[1])
    npts = 1 << m
    comp = sorted(set(range(npts)) - a)
    a_sorted = sorted(a)
    gens: list[GroupElement] = []
    for block in (a_sorted, comp):
        if block:
            gens.append(Cantor.indicator(m, {block[0]}))
            gens += _cantor_sym_gens(m, [(p,) for p in block])
    if len(a_sorted) == len(comp) and a_sorted:
        swap = dict(zip(a_sorted, comp))
        swap.update(zip(comp, a_sorted))
        gens.append(_cantor_perm(m, swap))
    return list(dict.fromkeys(gens))


def cantor_involution_centralizer_gens(m: int, s: Cantor) -> list[GroupElement]:
    """Generators of the centralizer of a point involution at level m.

    The involution is a product of disjoint transpositions with support
    strictly smaller than the whole point set; its centralizer is the
    pair-preserving wreath-type group times the permutations of the
    fixed points, with the s-invariant point sets as the abelian part.

    The pair-preserving group Z2 ≀ Sym(pairs) is generated by the swap
    inside one pair and Sym(pairs): the swap of pairs 0 and 1 and the
    pair cycle with its inverse.  Sym(fixed) takes a transposition and
    the cycle of the fixed points.  These move pair 0 onto every pair
    and one fixed point onto every fixed point, so one pair indicator
    and one fixed-point indicator give the whole abelian part.
    """
    sigma, a = s.at_level(m)
    if a:
        raise FamilyMismatch("centralizer helper needs a pure permutation")
    npts = 1 << m
    pairs = sorted(
        (x, sigma[x]) for x in range(npts) if sigma[x] > x
    )
    fixed = sorted(x for x in range(npts) if sigma[x] == x)
    if any(sigma[sigma[x]] != x for x in range(npts)):
        raise FamilyMismatch("element is not an involution")
    if not fixed:
        raise FamilyMismatch("involution must have a fixed point")

    gens: list[GroupElement] = []
    if pairs:
        a0, b0 = pairs[0]
        gens.append(_cantor_perm(m, {a0: b0, b0: a0}))
        gens += _cantor_sym_gens(m, pairs)
        gens.append(Cantor.indicator(m, {a0, b0}))
    gens += _cantor_sym_gens(m, [(x,) for x in fixed])
    gens.append(Cantor.indicator(m, {fixed[0]}))
    return list(dict.fromkeys(gens))
