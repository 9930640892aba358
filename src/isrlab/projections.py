"""Named idempotents and their calculus: f_g, cylinder idempotents [w],
Q^A, partition generators, and the fixed-point measure.

All constructions return exact AlgebraElements; every projection built
here satisfies p = p* = p² on the nose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .algebra import AlgebraElement, combine, one_like, unit
from .errors import BlockNotInvariant, HypothesisViolated
from .f2 import F2Matrix, F2Vector, mat_inverse, range_subgroup
from .groups import Affine, Cantor, GroupElement, Wreath, perm_canonical, perm_image


STAR = "*"


@dataclass(frozen=True)
class CylinderWord:
    """A word over {0, 1, ⋆}; ⋆ leaves the coordinate unconstrained.

    Stored with trailing ⋆ stripped, so the all-⋆ word is the empty
    word and denotes the algebra identity.
    """

    letters: tuple

    def __init__(self, letters):
        out = []
        for c in letters:
            if c in (0, 1):
                out.append(int(c))
            elif c in (STAR, None):
                out.append(STAR)
            else:
                raise ValueError(f"bad cylinder letter {c!r}")
        while out and out[-1] == STAR:
            out.pop()
        object.__setattr__(self, "letters", tuple(out))

    def letter(self, i: int):
        """Letter at 1-indexed position i (⋆ beyond the stored word)."""
        return self.letters[i - 1] if i <= len(self.letters) else STAR

    def specified(self):
        """1-indexed positions carrying 0 or 1."""
        return [i + 1 for i, c in enumerate(self.letters) if c != STAR]

    def __str__(self):
        return "".join(str(c) for c in self.letters)

    def __len__(self):
        return len(self.letters)


@dataclass(frozen=True)
class PartitionSpec:
    """A partition of {1..n} into disjoint nonempty blocks."""

    blocks: tuple[frozenset[int], ...]

    def __init__(self, blocks):
        blocks = tuple(sorted((frozenset(b) for b in blocks), key=min))
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("empty partition block")
            if seen & b:
                raise ValueError("overlapping partition blocks")
            seen |= b
        n = max(seen) if seen else 0
        if seen != set(range(1, n + 1)):
            raise ValueError("blocks must cover {1..n} exactly")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)


def make_f(g: F2Matrix) -> AlgebraElement:
    """f_g: the normalized indicator projection of R(g - I)."""
    vs = range_subgroup(g)
    w = Fraction(1, len(vs))
    return AlgebraElement({Affine.vector(v): w for v in vs})


def half_projection(z: GroupElement, sign: int) -> AlgebraElement:
    """½(1 ± u_z): for an involution z, the projection onto the ±1
    eigenspace of u_z."""
    return combine(Fraction(1, 2), one_like(z), Fraction(sign, 2), unit(z))


@cache
def make_cylinder(w: CylinderWord) -> AlgebraElement:
    """[w]: the product of the specified per-coordinate idempotents
    δ_letter = ½(1 + (−1)^letter u_{e_i}).  Memoized per word; the result
    is immutable."""
    out = unit(Affine.identity())
    for i in w.specified():
        out = out * half_projection(Affine.vector(F2Vector.basis(i)), -1 if w.letter(i) else 1)
    return out


def cylinder_signed_sum(w: CylinderWord) -> AlgebraElement:
    """For a fully specified word: 2^{-n} Σ_v (−1)^{w·v} u_v."""
    n = len(w)
    if any(c == STAR for c in w.letters):
        raise HypothesisViolated("signed-sum form needs a fully specified word")
    wbits = 0
    for i, c in enumerate(w.letters):
        if c:
            wbits |= 1 << i
    coef = Fraction(1, 1 << n)
    terms = {}
    for v in range(1 << n):
        sign = -1 if bin(wbits & v).count("1") & 1 else 1
        terms[Affine.vector(F2Vector(v))] = coef * sign
    return AlgebraElement(terms)


def word_times_matrix(w: CylinderWord, ginv: F2Matrix) -> CylinderWord:
    """The row-vector product w·g^{-1} with ⋆-arithmetic:
    ⋆·0 = 0, ⋆·1 = ⋆, and ⋆ absorbs addition."""
    n = max(len(w), ginv.n)
    out = []
    for j in range(1, n + 1):
        acc = 0
        star = False
        for i in range(1, n + 1):
            if not ginv.entry(i, j):
                continue
            c = w.letter(i)
            if c == STAR:
                star = True
            else:
                acc ^= c
        out.append(STAR if star else acc)
    return CylinderWord(out)


def cylinder_conjugation_check(w: CylinderWord, g: F2Matrix) -> bool:
    """Whether u_g [w] u_g* = [w·g^{-1}] holds termwise.

    Requires the hypothesis that every ⋆-row of g^{-1} has exactly one
    nonzero entry; outside it the rule is not asserted.
    """
    from .algebra import ad

    ginv = mat_inverse(g)
    n = max(len(w), g.n)
    for i in range(1, n + 1):
        if w.letter(i) == STAR:
            row = ginv.row(i - 1)
            if bin(row).count("1") != 1:
                raise HypothesisViolated(
                    f"row {i} of the inverse has {bin(row).count('1')} "
                    "nonzero entries under a ⋆ letter"
                )
    lhs = ad(Affine.matrix(g), make_cylinder(w))
    rhs = make_cylinder(word_times_matrix(w, ginv))
    return lhs == rhs


def make_q_power(sign: int, a) -> AlgebraElement:
    """Q^A = ∏_{n∈A} ½(1 ± u_{z^{(n)}}) in the wreath family."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = unit(Wreath.identity())
    for j in sorted(a):
        out = out * half_projection(Wreath.vector(F2Vector.basis(j)), sign)
    return out


def perm_sign(p) -> int:
    """Parity of a permutation given as a tuple of 0-indexed images."""
    p = perm_canonical(p)
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _restricted_sign(p, block: frozenset[int]) -> int:
    """sign of p restricted to a p-invariant block of 1-indexed points."""
    pts = sorted(block)
    index = {pt: i for i, pt in enumerate(pts)}
    images = []
    for pt in pts:
        img = perm_image(p, pt - 1) + 1
        if img not in index:
            raise BlockNotInvariant(f"block {sorted(block)} moved by the permutation")
        images.append(index[img])
    return perm_sign(tuple(images))


def make_part_generator(s, partition: PartitionSpec) -> AlgebraElement:
    """s · ∏_K (P1^K + sign(s|_K)·P2^K) with P1 = ½(1+u_z), P2 = P1^⊥.

    Written term by term from its closed form.  With z_B = Σ_{j∈B} e_j,
    P1^K = 2^{-|K|} Σ_{B⊆K} u_{z_B} and P2^K = 2^{-|K|} Σ_{B⊆K} (−1)^{|B|}
    u_{z_B}, so for sgn = sign(s|_K)

        P1^K + sgn·P2^K = 2^{1-|K|} Σ u_{z_B} over the B ⊆ K with (−1)^{|B|} = sgn.

    The blocks are disjoint, so the product sums over the unions
    B = ⊔_K B_K with coefficient 2^{Σ_K (1-|K|)}, and u_s·u_{z_B} = u_{(s, z_B)}.
    A singleton block contributes 1: its only even subset is ∅.
    """
    s = perm_canonical(s)
    if len(s) > partition.n:
        raise BlockNotInvariant("permutation moves points outside the partition")
    zs = [0]
    for block in partition.blocks:
        sgn = _restricted_sign(s, block)
        pts = sorted(block)
        picks = [
            sum(1 << (j - 1) for j, bit in zip(pts, pick) if bit)
            for pick in itertools.product((0, 1), repeat=len(pts))
            if (-1) ** sum(pick) == sgn
        ]
        zs = [z | b for z in zs for b in picks]
    den = 1 << (partition.n - len(partition.blocks))
    return AlgebraElement._trusted(den, {Wreath(s, F2Vector(z)): (1, 0) for z in zs})


def mu_fix(g: Cantor) -> Fraction:
    """μ(Fix(g)) for a point permutation: fixed points over 2^m.

    Stable under the duplicating level embedding.
    """
    if g.a:
        raise HypothesisViolated("fixed-point measure needs a trivial set part")
    npts = 1 << g.m
    fixed = sum(1 for x in range(npts) if g.sigma[x] == x)
    return Fraction(fixed, npts)
