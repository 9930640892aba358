"""Exact trace-orthogonal conditional expectation onto a finitely
spanned invariant subalgebra, within a declared support window.

The expectation is the orthogonal projection in the ⟨x,y⟩ = τ(x*y)
inner product onto the exact linear span of the spec's basis.  The
basis may be linearly dependent; a rank-revealing Gram–Schmidt absorbs
redundancy.  It runs once per basis on sparse Gaussian-integer rows
over int ids, read straight from each element's integer form: a
projection does not change when a vector is rescaled, so each
orthogonal vector is kept primitive (its entries share no factor) with
its integer norm, and the update needs no fractions.  An inverted index
from ids to the rows that touch them makes every dot product visit only
the rows meeting the vector's support; a vector orthogonal to every row
is its own residual.  E(x) goes back as an integer form over den(x)·L,
for the L that clears the row's projection.  One integer pass gives a
conditional expectation's whole report: E(x) = P/(den·L), the residual
‖x − E(x)‖² summed from L·x_g − P_g, and ⟨x, E(x)⟩ from conj(x_g)·P_g.
The index is built straight into immutable tuples, shared by the ids
of one row with one coefficient pair, so the build allocates few
objects for the cyclic GC to track and walk.  E(u_g) depends only on
the index entries at g, so it is memoized once per distinct entry
tuple; a g that no row meets shares one stored zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .algebra import (
    AlgebraElement,
    GaussianRational,
    _gaussian,
    ad,
    inner_product,
    trace,
    unit,
)
from .errors import FamilyMismatch, HypothesisViolated, WindowNotNormalized
from .groups import GroupElement, _check_family, conjugate, inverse
from .serialize import decode_algebra, decode_group, encode_algebra

# E(u_g) for every g that no row of a span meets
_ZERO = AlgebraElement._trusted(1, {})


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

    ``basis`` keeps the generating family as given, repeats included.
    The family and window checks and the Gram–Schmidt run over
    ``_distinct``, the basis with repeats up to sign dropped: a vector
    equal to an earlier one (equal ``(den, ints)``) or to the negation
    of an earlier one lies in the span that one already gave and
    touches no new element.
    """

    def __init__(self, label: str, basis, window):
        basis = tuple(b for b in basis if not b.is_zero())
        window = frozenset(window)
        if not basis:
            raise ValueError("spec needs at least one nonzero basis element")
        # x and −x share a support, so a vector is compared only with the
        # earlier ones of its support; a repeated object is dropped first
        supports: dict[frozenset, list[AlgebraElement]] = {}
        distinct = []
        for b in {id(b): b for b in basis}.values():
            same = supports.setdefault(frozenset(b.ints), [])
            if not same or (b not in same and -b not in same):
                same.append(b)
                distinct.append(b)
        distinct = tuple(distinct)
        for b in distinct:
            distinct[0]._check(b)
            if not window.issuperset(b.ints):
                raise ValueError(f"basis element escapes the window: {b!r}")
        g0 = next(iter(distinct[0].ints))
        for w in window:
            try:
                _check_family(g0, w)
            except FamilyMismatch as exc:
                raise FamilyMismatch(f"window leaves the basis group: {exc}") from None
        # the window is of g0's family now, so its identity is g0's
        if g0.identity_like() not in window:
            raise ValueError("window must contain the identity")
        self.label = label
        self.family = distinct[0].family()
        self.basis = basis
        self._distinct = distinct
        self.window = window
        self._span: _Span | None = None

    # -- orthogonal structure ---------------------------------------------

    def _orthogonal_basis(self) -> "_Span":
        if self._span is None:
            self._span = _Span(self._distinct)
        return self._span

    def project(self, x: AlgebraElement) -> AlgebraElement:
        """The exact orthogonal projection of x onto span(basis)."""
        self._distinct[0]._check(x)
        return self._orthogonal_basis().project(x)

    def expect_unit(self, g: GroupElement) -> AlgebraElement:
        """E(u_g) = Σ (conj(o_g)/N_o)·o over the rows o meeting g, memoized
        by g's index entries.  A g that no row meets gets the one stored
        zero, after the family check."""
        span = self._orthogonal_basis()
        key = span.index.get(span.ids.get(g))
        if key is None:
            _check_family(next(iter(self._distinct[0].ints)), g)
            return _ZERO
        out = span.unit_images.get(key)
        if out is None:
            out = span.unit_images[key] = self.project(unit(g))
        return out

    def contains(self, x: AlgebraElement) -> bool:
        """Exact span membership."""
        self._distinct[0]._check(x)
        return self._orthogonal_basis().contains(x)


def verify_invariance(spec: SubalgebraSpec, conjugators) -> bool:
    """Whether ad(g, b) stays in the span for every conjugator and basis
    element.  Conjugators must map the window into itself.

    ad(g, ·) is linear, so the span is invariant iff the images of a
    basis of it are in it: only the span's pivots are conjugated.
    """
    conjugators = list(conjugators)
    for c in conjugators:
        _check_family(c, next(iter(spec.window)))
        conj = c.conjugation()
        for w in spec.window:
            if conj(w) not in spec.window:
                raise WindowNotNormalized(
                    f"conjugator {c!r} moves {w!r} out of the window"
                )
    pivots = spec._orthogonal_basis().pivots
    return all(spec.contains(ad(c, b)) for c in conjugators for b in pivots)


def verify_closure(spec: SubalgebraSpec) -> bool:
    """Whether the span is a *-subalgebra supported in the window.

    The adjoint is conjugate-linear and the product bilinear, so the
    span is closed iff the adjoints and pairwise products of a basis of
    it lie in it: the span's pivots are checked, rank² products instead
    of |basis|².

    When every pivot is a multiple of one unit, the span is C[S] for S
    the pivots' supports, which lie in the window, and u_a·u_b = u_ab,
    u_a* = u_{a^{-1}}: it is closed iff S·S ⊆ S and S^{-1} ⊆ S, read on
    group elements.  S is finite and every element of a truncation has
    finite order, so S·S ⊆ S already puts each a^{-1} = a^{k-1} in S.
    """
    pivots = spec._orthogonal_basis().pivots
    if all(len(b.ints) == 1 for b in pivots):
        s = {g for b in pivots for g in b.ints}
        return all(a.mul(b) in s for a in s for b in s)
    return all(
        x.support() <= spec.window and spec.contains(x)
        for x in chain((b.adjoint() for b in pivots), (a * b for a in pivots for b in pivots))
    )


def conditional_expectation(x: AlgebraElement, spec: SubalgebraSpec) -> ExpectationReport:
    """Project x onto the span; report the exact residual ‖x − E(x)‖² and
    the matrix coefficient ⟨x, E(x)⟩ (which is τ(g^{-1}E(g)) when x = u_g),
    all three read off the integers of one projection pass."""
    spec._distinct[0]._check(x)
    return spec._orthogonal_basis().expect(x)


def character_of(spec: SubalgebraSpec, g: GroupElement) -> GaussianRational:
    """τ(u_{g^{-1}} E(u_g))."""
    return inner_product(unit(g), spec.expect_unit(g))


def check_E_properties(spec: SubalgebraSpec, samples) -> bool:
    """Trace compatibility, equivariance, relative commutants, and the
    χ ∈ {0, 1} dichotomy, on all sample pairs.

    The commutator [m, ·] is linear, so m commutes with the span iff it
    commutes with a basis of it: the relative-commutant law is checked
    against the span's pivots.
    """
    samples = list(samples)
    pivots = spec._orthogonal_basis().pivots
    e_of = {g: spec.expect_unit(g) for g in samples}
    for g in samples:
        eg = e_of[g]
        # (5) E(g) = 0 iff χ(g) = 0; E(g) = u_g iff χ(g) = 1
        chi = inner_product(unit(g), eg)
        if eg.is_zero() != (chi == 0):
            return False
        if (eg == unit(g)) != (chi == 1):
            return False
        # (3) u_g E(u_{g^{-1}}) commutes with the whole span
        m = unit(g) * spec.expect_unit(inverse(g))
        for b in pivots:
            if m * b != b * m:
                return False
    # τ(xy) = ⟨x*, y⟩: a coefficient sum, with no product formed
    adj = {g: e_of[g].adjoint() for g in samples}
    for s in samples:
        for g in samples:
            # (1) τ(E(g)s) = τ(E(g)E(s)) = τ(gE(s))
            t1 = inner_product(adj[g], unit(s))
            t2 = inner_product(adj[g], e_of[s])
            t3 = inner_product(unit(inverse(g)), e_of[s])
            if not (t1 == t2 == t3):
                return False
            # (2) s E(g) s^{-1} = E(sgs^{-1})
            if ad(s, e_of[g]) != spec.expect_unit(conjugate(s, g)):
                return False
    return True


def check_ES_subset_S(spec: SubalgebraSpec, a_basis, s_basis) -> bool:
    """If E preserves span(A), E(S) ⊆ S + span(A), and τ vanishes on
    S·A, then E(S) ⊆ S.  The three hypotheses are verified exactly."""
    a_span = _Span(a_basis)
    s_span = _Span(s_basis)
    sa_span = _Span(list(a_basis) + list(s_basis))
    for a in a_basis:
        if not a_span.contains(spec.project(a)):
            raise HypothesisViolated("E does not preserve the subalgebra A")
    for s in s_basis:
        if not sa_span.contains(spec.project(s)):
            raise HypothesisViolated("E(S) is not contained in S + A")
    for s in s_basis:
        for a in a_basis:
            if not trace(s * a).is_zero():
                raise HypothesisViolated("trace does not vanish on S·A")
    return all(s_span.contains(spec.project(s)) for s in s_basis)


class _Span:
    """An orthogonal basis of span(vectors), built once by Gram–Schmidt.

    Group elements map to int ids.  Each orthogonal vector o is a
    primitive Gaussian-integer row {id: (re, im)} stored with its norm
    N = ⟨o,o⟩; ``index`` maps an id to the tuple of (row, re, im)
    entries at it, in row order, which keys ``unit_images``, the E(u_g)
    memo.  It is built immutable: the ids of one coefficient pair in a
    row share one ``((k, re, im),)`` and a later row appends with
    ``prev + entry``.  A list per id, frozen at the end, tracked one
    object per id and per entry, and the cyclic GC they set off walked
    the whole window (1,390 gen-0 collections in the mexo:4 first
    projection, against 209).  ``pivots`` are the input vectors that
    gave a row, a basis of the span.  The length is the rank.

    A vector already in the span reduces to nothing and leaves every
    row, id and pivot as it was, so passing each distinct vector once
    (as ``SubalgebraSpec`` does) gives the same rows, ids, pivots and
    projections as passing the repeats too, with none of their
    reductions.
    """

    def __init__(self, vectors):
        ids: dict[GroupElement, int] = {}
        self.ids = ids
        self.rows: list[tuple[dict, int]] = []
        index: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self.index = index
        self.pivots: list[AlgebraElement] = []
        for b in vectors:
            r = self._reduce({ids.setdefault(g, len(ids)): p for g, p in b.ints.items()})
            if r:
                k = len(self.rows)
                self.rows.append((r, sum(a * a + c * c for a, c in r.values())))
                shared: dict[tuple[int, int], tuple] = {}
                for i, pair in r.items():
                    entry = shared.get(pair)
                    if entry is None:
                        entry = shared[pair] = ((k, *pair),)
                    prev = index.get(i)
                    index[i] = entry if prev is None else prev + entry
                self.pivots.append(b)
        self.elements = list(ids)
        self.unit_images: dict[tuple, AlgebraElement] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def project(self, x: AlgebraElement) -> AlgebraElement:
        ids = self.ids
        # den·x as a row, without the elements no row touches (they are
        # orthogonal to the span); then E(x) = P / (den·L)
        scale, p = self._project(
            {i: pair for g, pair in x.ints.items() if (i := ids.get(g)) is not None}
        )
        return self._element(x.den * scale, p)

    def expect(self, x: AlgebraElement) -> ExpectationReport:
        """E(x) = P/(den·L) as ``project`` gives it, with the residual
        Σ|L·x_g − P_g|² / (den·L)² over every g of x or P and
        ⟨x, E(x)⟩ = Σ conj(x_g)·P_g / (den²·L), from the same integers."""
        ids = self.ids
        row: dict[int, tuple[int, int]] = {}
        # Σ|den·x_g|² over the g of x where P is 0: first those no row touches
        untouched = 0
        for g, (c, d) in x.ints.items():
            i = ids.get(g)
            if i is None:
                untouched += c * c + d * d
            else:
                row[i] = (c, d)
        scale, p = self._project(row)
        # |L·x_g − P_g|² over the g of P as if x were 0 there, then the g
        # of x put right: few terms of x, many of P
        residual = sum(a * a + b * b for a, b in p.values())
        re = im = 0
        for i, (c, d) in row.items():
            pr, pi = p.get(i, (0, 0))
            # conj(c + id)·(pr + i·pi)
            re += c * pr + d * pi
            im += c * pi - d * pr
            a, b = scale * c - pr, scale * d - pi
            residual += a * a + b * b - pr * pr - pi * pi
        residual += untouched * scale * scale
        den = x.den * scale
        return ExpectationReport(
            input=x,
            output=self._element(den, p),
            residual_norm_sq=Fraction(residual, den * den),
            character_value=_gaussian(re, im, x.den * den),
        )

    def _element(self, den: int, p: dict) -> AlgebraElement:
        """The AlgebraElement P/den of an integer row over ids."""
        elements = self.elements
        return AlgebraElement._trusted(
            den, {elements[i]: (re, im) for i, (re, im) in p.items() if re or im}
        )

    def contains(self, x: AlgebraElement) -> bool:
        ids = self.ids
        if any(g not in ids for g in x.ints):
            return False
        return not self._reduce({ids[g]: pair for g, pair in x.ints.items()})

    def _project(self, row: dict) -> tuple[int, dict]:
        """(L, P) with E(row) = P / L and P a Gaussian-integer row:
        E(row) = Σ_o (⟨o,row⟩ / N_o)·o over the rows meeting row."""
        dots: dict[int, list[int]] = {}
        index = self.index
        for i, (c, d) in row.items():
            for k, a, b in index.get(i, ()):
                acc = dots.get(k)
                if acc is None:
                    acc = dots[k] = [0, 0]
                # conj(a + ib)·(c + id)
                acc[0] += a * c + b * d
                acc[1] += a * d - b * c
        terms = []
        scale = 1
        for k, (re, im) in dots.items():
            if re or im:
                o, n = self.rows[k]
                g = gcd(re, im, n)
                q = n // g
                terms.append((o, re // g, im // g, q))
                scale = lcm(scale, q)
        out: dict[int, tuple[int, int]] = {}
        for o, re, im, q in terms:
            f = scale // q
            re *= f
            im *= f
            for i, (a, b) in o.items():
                pr, pi = out.get(i, (0, 0))
                out[i] = (pr + re * a - im * b, pi + re * b + im * a)
        return scale, out

    def _reduce(self, row: dict) -> dict:
        """The primitive row along row − E(row); empty iff row is in the span."""
        scale, p = self._project(row)
        r = row
        if p:
            r = {}
            for i in row.keys() | p.keys():
                c, d = row.get(i, (0, 0))
                pr, pi = p.get(i, (0, 0))
                re, im = scale * c - pr, scale * d - pi
                if re or im:
                    r[i] = (re, im)
        # the gcd is folded pair by pair and stops at 1, as in _trusted
        g = 0
        for re, im in r.values():
            g = gcd(g, re, im)
            if g == 1:
                return r
        return {i: (re // g, im // g) for i, (re, im) in r.items()} if g > 1 else r


# -- JSON spec files -------------------------------------------------------


def spec_to_dict(spec: SubalgebraSpec) -> dict:
    return {
        "label": spec.label,
        "family": spec.family,
        "basis": [encode_algebra(b) for b in spec.basis],
        "window": sorted(
            (g.to_json() for g in spec.window), key=json.dumps
        ),
    }


def spec_from_dict(d: dict) -> SubalgebraSpec:
    """Inverse of spec_to_dict; malformed input raises ValueError (or
    KeyError for a missing field)."""
    if not isinstance(d, dict):
        raise ValueError("a spec must be a JSON object")
    if not isinstance(d["basis"], list) or not isinstance(d["window"], list):
        raise ValueError("a spec's basis and window must be lists")
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
