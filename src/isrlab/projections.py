"""Named idempotents and their calculus: f_g, cylinder idempotents [w],
Q^A, partition generators, and the fixed-point measure.

All constructions return exact AlgebraElements; every projection built
here satisfies p = p* = p² on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .algebra import AlgebraElement, ad, combine, one_like, unit
from .errors import BlockNotInvariant, HypothesisViolated
from .f2 import F2Matrix, F2Vector, _range_basis, mat_inverse
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
    """f_g = ∏ ½(1 + u_b) over a basis b of R(g − I): the normalized
    indicator projection of R(g − I)."""
    return walsh_sum(lambda z: Affine.vector(F2Vector(z)), [(b, 1) for b in _range_basis(g.rows)])


def half_projection(z: GroupElement, sign: int) -> AlgebraElement:
    """½(1 ± u_z): for an involution z, the projection onto the ±1
    eigenspace of u_z."""
    return combine(Fraction(1, 2), one_like(z), Fraction(sign, 2), unit(z))


# the two coefficient pairs of walsh_sum's terms, shared by every term
_PLUS, _MINUS = (1, 0), (-1, 0)


def walsh_sum(element, gens) -> AlgebraElement:
    """∏_{(b, ε) ∈ gens} ½(1 + ε·u_b) = 2^{-k} Σ_B (∏_B ε)·u_{element(z_B)}
    over the subsets B of the k gens, z_B the XOR of their bitmasks b.

    The bitmasks must be independent over F2, and ``element`` must map
    XOR to a product of commuting involutions.  Every coefficient is
    one of two shared pairs."""
    signs = {0: 1}
    for b, eps in gens:
        signs.update([(z ^ b, s * eps) for z, s in signs.items()])
    return AlgebraElement._trusted(
        len(signs), {element(z): _PLUS if s > 0 else _MINUS for z, s in signs.items()}
    )


@cache
def make_cylinder(w: CylinderWord) -> AlgebraElement:
    """[w]: the product of the specified per-coordinate idempotents
    δ_letter = ½(1 + (−1)^letter u_{e_i}).  Memoized per word; the result
    is immutable."""
    return walsh_sum(
        lambda z: Affine.vector(F2Vector(z)),
        [(1 << (i - 1), -1 if w.letter(i) else 1) for i in w.specified()],
    )


def word_times_matrix(w: CylinderWord, ginv: F2Matrix) -> CylinderWord:
    """The row-vector product w·g^{-1} with ⋆-arithmetic:
    ⋆·0 = 0, ⋆·1 = ⋆, and ⋆ absorbs addition.  Letter j is ⋆ where a ⋆
    row of g^{-1} has bit j, else bit j of the sum of the 1 rows."""
    n = max(len(w), ginv.n)
    stars = ones = 0
    for i in range(n):
        c = w.letter(i + 1)
        if c == STAR:
            stars |= ginv.row(i)
        elif c:
            ones ^= ginv.row(i)
    return CylinderWord([STAR if stars >> j & 1 else ones >> j & 1 for j in range(n)])


def _stars(w: CylinderWord, n: int) -> int:
    """The bitmask of the ⋆ positions among w's first n letters."""
    return sum(1 << i for i in range(n) if w.letter(i + 1) == STAR)


def _unit_rows(ginv: F2Matrix, n: int) -> int:
    """The bitmask of the rows of ginv, viewed in dimension n, that have
    exactly one nonzero entry."""
    return sum(1 << i for i in range(n) if ginv.row(i).bit_count() == 1)


def cylinder_conjugation_check(w: CylinderWord, g: F2Matrix) -> bool:
    """Whether u_g [w] u_g* = [w·g^{-1}] holds termwise.

    Requires the hypothesis that every ⋆-row of g^{-1} has exactly one
    nonzero entry; outside it the rule is not asserted.
    """
    ginv = mat_inverse(g)
    n = max(len(w), ginv.n)
    if _stars(w, n) & ~_unit_rows(ginv, n):
        raise HypothesisViolated("a ⋆-row of the inverse has other than one nonzero entry")
    lhs = ad(Affine.matrix(g), make_cylinder(w))
    rhs = make_cylinder(word_times_matrix(w, ginv))
    return lhs == rhs


def make_q_power(sign: int, a) -> AlgebraElement:
    """Q^A = ∏_{n∈A} ½(1 ± u_{z^{(n)}}) in the wreath family."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    # each factor is idempotent, so a repeated n counts once
    gens = [(1 << (j - 1), sign) for j in sorted(set(a))]
    return walsh_sum(lambda z: Wreath.vector(F2Vector(z)), gens)


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

    With z_B = Σ_{j∈B} e_j, for sgn = sign(s|_K) and k = min K,

        P1^K + sgn·P2^K = 2^{1-|K|} Σ u_{z_B} over the B ⊆ K with (−1)^{|B|} = sgn
                        = u_{z_B0}·∏_{j ∈ K∖k} ½(1 + u_{e_k + e_j}),

    B0 = ∅ if sgn = 1, else {k}: the even B are the span of the e_k + e_j.
    The blocks are disjoint, so the product is one ``walsh_sum`` shifted
    by the XOR of the z_B0, and u_s·u_{z_B} = u_{(s, z_B)}.
    """
    s = perm_canonical(s)
    if len(s) > partition.n:
        raise BlockNotInvariant("permutation moves points outside the partition")
    gens = []
    shift = 0
    for block in partition.blocks:
        k, *rest = sorted(block)
        gens += [((1 << (k - 1)) | (1 << (j - 1)), 1) for j in rest]
        if _restricted_sign(s, block) < 0:
            shift ^= 1 << (k - 1)
    return walsh_sum(lambda z: Wreath._of(s, z ^ shift), gens)


def mu_fix(g: Cantor) -> Fraction:
    """μ(Fix(g)) for a point permutation: fixed points over 2^m.

    Stable under the duplicating level embedding.
    """
    if g.a:
        raise HypothesisViolated("fixed-point measure needs a trivial set part")
    npts = 1 << g.m
    fixed = sum(1 for x in range(npts) if g.sigma[x] == x)
    return Fraction(fixed, npts)
