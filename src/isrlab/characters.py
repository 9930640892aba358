"""Closed-form characters and exact positive-definiteness testing.

Implemented families:

* ``affine:k=…,d=…`` on GL(n,F2) ⋉ F2^n:
  χ_{k,1}(g·v) = 2^{-k·rank(g-I)}; χ_{k,0} additionally vanishes
  unless v ∈ R(g-I).  For k = inf both are the indicator of the vector
  subgroup, the character of the expectation onto L(F2^n).  For d = 1
  that is the pointwise limit in k; for d = 0 it is not, since
  χ_{k,0}(I, e1) = 0 at every finite k but χ_{inf,0}(I, e1) = 1.
* ``gl:m=…`` on pure GL elements: 2^{-m·rank(g-I)}.
* ``cantor:k=…`` on point permutations: μ(Fix(g))^k; k = inf gives
  the delta at the identity.
* ``regular`` on any family: δ_{g,e}.

The infinite parameter is spelled "inf".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import FamilyMismatch
from .f2 import _range_basis
from .groups import GroupElement, conjugate, inverse, multiply
from .projections import mu_fix

INF = "inf"


@dataclass(frozen=True)
class CharacterSpec:
    kind: str  # affine | gl | cantor | regular
    k: int | str | None = None
    d: int | None = None

    def __post_init__(self):
        if self.kind not in _PARAMETERS:
            raise ValueError(f"unknown character kind {self.kind!r}")
        if self.kind == "regular":
            return
        k = self.k
        if not (k == INF or (isinstance(k, int) and k >= 0)):
            # gl's m is stored as k
            key = _PARAMETERS[self.kind][0]
            raise ValueError(f"parameter {key} must be a nonnegative integer or 'inf'")
        if self.kind == "affine" and self.d not in (0, 1):
            raise ValueError("affine characters need d in {0, 1}")

    def name(self) -> str:
        values = zip(_PARAMETERS[self.kind], (self.k, self.d))
        params = ",".join(f"{key}={val}" for key, val in values)
        return f"{self.kind}:{params}" if params else self.kind

    @property
    def family(self) -> str:
        """The family tables enumerate; ``regular`` is tabulated on affine."""
        return "cantor" if self.kind == "cantor" else "affine"

    def accepts(self, g: GroupElement) -> bool:
        """Whether g lies in the kind's domain."""
        return _DOMAINS[self.kind](g)


_PARAMETERS = {"affine": ("k", "d"), "gl": ("m",), "cantor": ("k",), "regular": ()}
_DOMAINS = {
    "affine": lambda g: g.family == "affine",
    "gl": lambda g: g.family == "affine" and not g.bits,  # pure matrices
    "cantor": lambda g: g.family == "cantor" and not g.mask,  # point permutations
    "regular": lambda g: True,
}


def parse_character(name: str) -> CharacterSpec:
    """Parse CLI names like "affine:k=1,d=1", "gl:m=2", "cantor:k=inf".
    An unknown kind, an unknown, missing or repeated parameter and a
    value that is neither an integer nor "inf" raise ValueError."""
    kind, _, params = name.partition(":")
    kind = kind.strip().lower()
    if kind not in _PARAMETERS:
        raise ValueError(f"unknown character {name!r}")
    needed = _PARAMETERS[kind]
    kv = {}
    for part in params.split(","):
        if not part.strip():
            continue
        key, _, val = part.partition("=")
        key = key.strip().lower()
        val = val.strip().lower()
        if key not in needed:
            raise ValueError(f"character {name!r} takes no parameter {key!r}")
        if key in kv:
            raise ValueError(f"character {name!r} repeats parameter {key!r}")
        try:
            kv[key] = INF if val in (INF, "∞") else int(val)
        except ValueError:
            raise ValueError(
                f"character parameter {key!r} must be an integer or 'inf', got {val!r}"
            ) from None
    missing = [key for key in needed if key not in kv]
    if missing:
        raise ValueError(f"character {name!r} needs {' and '.join(missing)}")
    # the parameters fill the fields in order: gl's m is stored as k
    return CharacterSpec(kind, *(kv[key] for key in needed))


def evaluate(spec: CharacterSpec, g: GroupElement) -> Fraction:
    """Exact character value; χ(e) = 1 for every implemented character.
    An element outside the kind's domain raises FamilyMismatch."""
    if not spec.accepts(g):
        raise FamilyMismatch(f"{spec.name()} character is not defined on {g!r}")
    if spec.kind == "regular":
        return Fraction(1 if g.is_identity() else 0)
    if spec.kind == "cantor":
        if spec.k == INF:
            return Fraction(1 if g.is_identity() else 0)
        return mu_fix(g) ** spec.k
    # affine and gl: k = inf is the indicator of the vector subgroup, and
    # rank(g - I) is the size of the cached echelon basis of R(g - I)
    if spec.k == INF:
        return Fraction(0 if g.rows else 1)
    basis = _range_basis(g.rows)
    if spec.d == 0:
        v = g.bits
        for b in basis:
            v = min(v, v ^ b)
        if v:  # v is not in R(g-I)
            return Fraction(0)
    return Fraction(1, 1 << (spec.k * len(basis)))


def is_positive_semidefinite_matrix(m: list[list[Fraction]]) -> bool:
    """Exact PSD test by fraction-free diagonal-pivot Schur complements.

    The entries are scaled to integers by their common denominator.  A
    positive pivot p turns each remaining entry into
    (p·m[r][c] − m[r][i]·m[i][c]) / q, q the previous positive pivot (1
    at first): p/q > 0 times the Schur complement, so the verdict is
    unchanged, and by Sylvester's identity the division is exact (the
    entries are minors of the scaled matrix).  A zero diagonal pivot
    forces its whole row and column to vanish; a negative pivot refutes
    PSD.
    """
    den = lcm(*(x.denominator for row in m for x in row))
    m = [[x.numerator * (den // x.denominator) for x in row] for row in m]
    active = list(range(len(m)))
    prev = 1
    while active:
        i = active[0]
        piv = m[i][i]
        if piv < 0:
            return False
        if piv == 0:
            if any(m[i][j] or m[j][i] for j in active):
                return False
            active.pop(0)
            continue
        rest = active[1:]
        row_i = m[i]
        for r in rest:
            row, factor = m[r], m[r][i]
            for c in rest:
                row[c] = (piv * row[c] - factor * row_i[c]) // prev
        prev = piv
        active = rest
    return True


def is_positive_definite(spec: CharacterSpec, sample) -> bool:
    """Exact PSD check of the Gram matrix [χ(g_i^{-1} g_j)]."""
    sample = list(sample)
    gram = [
        [evaluate(spec, multiply(gi_inv, gj)) for gj in sample]
        for gi_inv in map(inverse, sample)
    ]
    return is_positive_semidefinite_matrix(gram)


def is_central(spec: CharacterSpec, pairs) -> bool:
    """χ(hgh^{-1}) = χ(g) on every sampled (g, h) pair."""
    return all(
        evaluate(spec, conjugate(h, g)) == evaluate(spec, g) for g, h in pairs
    )
