"""Closed-form characters and exact positive-definiteness testing.

Implemented families:

* ``affine:k=…,d=…`` on GL(n,F2) ⋉ F2^n:
  χ_{k,1}(g·v) = 2^{-k·rank(g-I)}; χ_{k,0} additionally vanishes
  unless v ∈ R(g-I).  For k = inf both collapse to the indicator of
  the vector subgroup (the pointwise limit).
* ``gl:m=…`` on pure GL elements: 2^{-m·rank(g-I)}.
* ``cantor:k=…`` on point permutations: μ(Fix(g))^k; k = inf gives
  the delta at the identity.
* ``regular`` on any family: δ_{g,e}.

The infinite parameter is spelled "inf".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FamilyMismatch
from .f2 import rank_defect, range_subgroup
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
            raise ValueError("parameter k must be a nonnegative integer or 'inf'")
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
    An unknown kind, an unknown or missing parameter and a value that is
    neither an integer nor "inf" raise ValueError."""
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
    if spec.kind == "affine":
        if spec.k == INF:
            return Fraction(1 if g.g.is_identity() else 0)
        r = rank_defect(g.g)
        if spec.d == 0 and g.v not in range_subgroup(g.g):
            return Fraction(0)
        return Fraction(1, 1 << (spec.k * r))
    if spec.kind == "gl":
        if spec.k == INF:
            return Fraction(1 if g.g.is_identity() else 0)
        return Fraction(1, 1 << (spec.k * rank_defect(g.g)))
    # cantor
    if spec.k == INF:
        return Fraction(1 if g.is_identity() else 0)
    return mu_fix(g) ** spec.k


def is_positive_semidefinite_matrix(m: list[list[Fraction]]) -> bool:
    """Exact PSD test by diagonal-pivot Schur complements.

    A zero diagonal pivot forces its whole row and column to vanish;
    a negative pivot refutes PSD.
    """
    m = [row[:] for row in m]
    n = len(m)
    active = list(range(n))
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


def is_positive_definite(spec: CharacterSpec, sample) -> bool:
    """Exact PSD check of the Gram matrix [χ(g_i^{-1} g_j)]."""
    sample = list(sample)
    gram = [
        [evaluate(spec, multiply(inverse(gi), gj)) for gj in sample]
        for gi in sample
    ]
    return is_positive_semidefinite_matrix(gram)


def is_central(spec: CharacterSpec, pairs) -> bool:
    """χ(hgh^{-1}) = χ(g) on every sampled (g, h) pair."""
    return all(
        evaluate(spec, conjugate(h, g)) == evaluate(spec, g) for g, h in pairs
    )
