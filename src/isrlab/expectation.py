"""Exact trace-orthogonal conditional expectation onto a finitely
spanned invariant subalgebra, within a declared support window.

The expectation is the orthogonal projection in the ⟨x,y⟩ = τ(x*y)
inner product onto the exact linear span of the spec's basis.  The
basis may be linearly dependent; a rank-revealing Gram–Schmidt over
Gaussian rationals absorbs redundancy.  Basis vectors with disjoint
supports are automatically orthogonal, so the orthogonalization runs
per support-component — this keeps the large scenario specs cheap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    GaussianRational,
    ad,
    inner_product,
    norm_sq,
    trace,
    unit,
)
from .errors import FamilyMismatch, HypothesisViolated, WindowNotNormalized
from .groups import GroupElement, conjugate, inverse
from .serialize import decode_algebra, decode_group, encode_algebra, encode_group


@dataclass(frozen=True)
class ExpectationReport:
    input: AlgebraElement
    output: AlgebraElement
    residual_norm_sq: Fraction
    character_value: GaussianRational


class SubalgebraSpec:
    """A spanning set plus a declared support window.

    The window is the finite set of group elements the subalgebra is
    allowed to touch; faithfulness of the finite computation as a
    shadow of the infinite expectation is the caller's obligation
    (each zoo scenario records the containment that licenses it).
    """

    def __init__(self, label: str, basis, window):
        basis = tuple(b for b in basis if not b.is_zero())
        window = frozenset(window)
        if not basis:
            raise ValueError("spec needs at least one nonzero basis element")
        fam = basis[0].family()
        for b in basis:
            if b.family() != fam:
                raise FamilyMismatch("basis elements from different families")
            if not b.support() <= window:
                raise ValueError(f"basis element escapes the window: {b!r}")
        if not any(g.is_identity() for g in window):
            raise ValueError("window must contain the identity")
        self.label = label
        self.family = fam
        self.basis = basis
        self.window = window
        self._orth: list[tuple[AlgebraElement, GaussianRational]] | None = None
        self._unit_cache: dict[GroupElement, AlgebraElement] = {}

    # -- orthogonal structure ---------------------------------------------

    def _orthogonal_basis(self):
        if self._orth is None:
            self._orth = _orthogonalize(self.basis)
        return self._orth

    def project(self, x: AlgebraElement) -> AlgebraElement:
        """The exact orthogonal projection of x onto span(basis)."""
        if x.family() is not None and x.family() != self.family:
            raise FamilyMismatch(f"{x.family()} element against {self.family} spec")
        out = AlgebraElement({})
        for o, n2 in self._orthogonal_basis():
            c = inner_product(o, x)
            if not c.is_zero():
                out = out + o.scale(c / n2)
        return out

    def expect_unit(self, g: GroupElement) -> AlgebraElement:
        """E(u_g), memoized."""
        cached = self._unit_cache.get(g)
        if cached is None:
            cached = self.project(unit(g))
            self._unit_cache[g] = cached
        return cached

    def contains(self, x: AlgebraElement) -> bool:
        """Exact span membership."""
        return (x - self.project(x)).is_zero()


def verify_invariance(spec: SubalgebraSpec, conjugators) -> bool:
    """Whether ad(g, b) stays in the span for every conjugator and basis
    element.  Conjugators must map the window into itself."""
    conjugators = list(conjugators)
    for c in conjugators:
        for w in spec.window:
            if conjugate(c, w) not in spec.window:
                raise WindowNotNormalized(
                    f"conjugator {c!r} moves {w!r} out of the window"
                )
    return all(
        spec.contains(ad(c, b)) for c in conjugators for b in spec.basis
    )


def verify_closure(spec: SubalgebraSpec, pairs=None) -> bool:
    """Whether the span is a *-subalgebra supported in the window.

    By default all basis pairs are checked; pass an iterable of (i, j)
    index pairs to sample instead.
    """
    for b in spec.basis:
        adj = b.adjoint()
        if not adj.support() <= spec.window or not spec.contains(adj):
            return False
    if pairs is None:
        pairs = (
            (i, j)
            for i in range(len(spec.basis))
            for j in range(len(spec.basis))
        )
    for i, j in pairs:
        prod = spec.basis[i] * spec.basis[j]
        if not prod.support() <= spec.window or not spec.contains(prod):
            return False
    return True


def conditional_expectation(x: AlgebraElement, spec: SubalgebraSpec) -> ExpectationReport:
    """Project x onto the span; report the exact residual and the
    matrix coefficient ⟨x, E(x)⟩ (which is τ(g^{-1}E(g)) when x = u_g)."""
    out = spec.project(x)
    return ExpectationReport(
        input=x,
        output=out,
        residual_norm_sq=norm_sq(x - out),
        character_value=inner_product(x, out),
    )


def character_of(spec: SubalgebraSpec, g: GroupElement) -> GaussianRational:
    """τ(u_{g^{-1}} E(u_g))."""
    return inner_product(unit(g), spec.expect_unit(g))


def check_E_properties(spec: SubalgebraSpec, samples) -> bool:
    """Trace compatibility, equivariance, relative commutants, and the
    χ ∈ {0, 1} dichotomy, on all sample pairs."""
    samples = list(samples)
    e_of = {g: spec.expect_unit(g) for g in samples}
    for g in samples:
        eg = e_of[g]
        # (5) E(g) = 0 iff χ(g) = 0; E(g) = u_g iff χ(g) = 1
        chi = inner_product(unit(g), eg)
        if eg.is_zero() != (chi == 0):
            return False
        if (eg == unit(g)) != (chi == 1):
            return False
        # (3) u_g E(u_{g^{-1}}) commutes with the whole basis
        m = unit(g) * spec.expect_unit(inverse(g))
        for b in spec.basis:
            if m * b != b * m:
                return False
    for s in samples:
        for g in samples:
            # (1) τ(E(g)s) = τ(E(g)E(s)) = τ(gE(s))
            t1 = trace(e_of[g] * unit(s))
            t2 = trace(e_of[g] * e_of[s])
            t3 = trace(unit(g) * e_of[s])
            if not (t1 == t2 == t3):
                return False
            # (2) s E(g) s^{-1} = E(sgs^{-1})
            if ad(s, e_of[g]) != spec.expect_unit(conjugate(s, g)):
                return False
    return True


def check_ES_subset_S(spec: SubalgebraSpec, a_basis, s_basis) -> bool:
    """If E preserves span(A), E(S) ⊆ S + span(A), and τ vanishes on
    S·A, then E(S) ⊆ S.  The three hypotheses are verified exactly."""
    a_orth = _orthogonalize(a_basis)
    s_orth = _orthogonalize(s_basis)
    sa_orth = _orthogonalize(list(a_basis) + list(s_basis))
    for a in a_basis:
        if not _residual(a_orth, spec.project(a)).is_zero():
            raise HypothesisViolated("E does not preserve the subalgebra A")
    for s in s_basis:
        if not _residual(sa_orth, spec.project(s)).is_zero():
            raise HypothesisViolated("E(S) is not contained in S + A")
    for s in s_basis:
        for a in a_basis:
            if not trace(s * a).is_zero():
                raise HypothesisViolated("trace does not vanish on S·A")
    return all(_residual(s_orth, spec.project(s)).is_zero() for s in s_basis)


def _residual(orth, x: AlgebraElement) -> AlgebraElement:
    """x minus its components along the orthogonal (o, ⟨o,o⟩) pairs."""
    for o, n2 in orth:
        c = inner_product(o, x)
        if not c.is_zero():
            x = x - o.scale(c / n2)
    return x


def _orthogonalize(basis) -> list[tuple[AlgebraElement, GaussianRational]]:
    """(o, ⟨o,o⟩) pairs spanning span(basis), with o pairwise orthogonal.

    Gram–Schmidt runs per component of the support-overlap graph (a
    union-find over the supports); zero vectors are dropped."""
    basis = [b for b in basis if not b.is_zero()]
    parent = {g: g for b in basis for g in b.support()}

    def find(x):
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b in basis:
        it = iter(b.support())
        first = find(next(it))
        for g in it:
            parent[find(g)] = first
    components: dict = {}
    for b in basis:
        components.setdefault(find(next(iter(b.support()))), []).append(b)
    orth: list[tuple[AlgebraElement, GaussianRational]] = []
    for group in components.values():
        local: list[tuple[AlgebraElement, GaussianRational]] = []
        for b in group:
            r = _residual(local, b)
            if not r.is_zero():
                local.append((r, inner_product(r, r)))
        orth.extend(local)
    return orth


# -- JSON spec files -------------------------------------------------------


def spec_to_dict(spec: SubalgebraSpec, truncation: int | None = None) -> dict:
    d = {
        "label": spec.label,
        "family": spec.family,
        "basis": [encode_algebra(b) for b in spec.basis],
        "window": sorted(
            (encode_group(g) for g in spec.window), key=json.dumps
        ),
    }
    if truncation is not None:
        d["truncation"] = truncation
    return d


def spec_from_dict(d: dict) -> SubalgebraSpec:
    basis = [decode_algebra(b) for b in d["basis"]]
    window = [decode_group(g) for g in d["window"]]
    spec = SubalgebraSpec(d["label"], basis, window)
    if spec.family != d["family"]:
        raise FamilyMismatch(
            f"spec file says {d['family']}, basis decodes to {spec.family}"
        )
    return spec


def load_spec(path) -> SubalgebraSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))
