"""Closure of a span decided coset by coset in the Walsh basis of A.

The affine, wreath and lamplighter groups are G = H ⋉ A with A = Z2^N,
so C[G] is C(Â) ⋊ H.  Write x = Σ_v c_v u_v in C[A].  Its integer Walsh
coefficients X(w) = Σ_v c_v (−1)^{w·v} are its coordinates on the
minimal idempotents p_w = 2^{−N} Σ_v (−1)^{w·v} u_v of C[A], where the
product is pointwise; no 2^{−N} factor is needed, so no fraction
appears.  A family's ``_dual(N)`` table reads kᵀw, for kᵀ the transpose
of ``_pull(k, ·)``.  Since u_v·u_k = u_k·u_{pull(k, v)}:

- (u_h x)(u_k y) = u_{hk}·Σ_w X(kᵀw)·Y(w)·p_w;
- (u_h x)* = u_{h⁻¹}·Σ_w conj(X(hᵀw))·p_w, for hᵀ the transpose of
  ``_push(h, ·)``.  That map is the inverse of h's own table, so the
  coefficient X(u) lands at w = ``h._dual(N)[u]``.

So a span whose pivots each lie in one coset hA is V = ⊕ u_h V_h, and
it is closed iff the pointwise product of each V_h pivot with each V_k
pivot lies in V_{hk} (0 when no pivot lies in hk) and each adjoint image
lies in V_{h⁻¹}.  Each V_h is a ``_Span`` over Walsh coordinates, the one
Gram–Schmidt.  A truncation of these families is a finite group, so the
products stay in the window, as the product route checks.
"""

from __future__ import annotations

from .algebra import AlgebraElement
from .expectation import _Span
from .groups import Truncation


def closure(window, pivots) -> bool | None:
    """Whether span(pivots) is closed, read block by block in Walsh
    coordinates; None when the route does not apply: the window is not a
    ``Truncation`` of a family with a ``_dual``, or a pivot meets two
    cosets of A."""
    if type(window) is not Truncation or not hasattr(window.elements[0], "_dual"):
        return None
    n = window.level
    size = 1 << n
    rows: dict = {}  # u_h -> the Walsh rows {w: (re, im)} of its pivots
    for b in pivots:
        h = None
        re, im = [0] * size, [0] * size
        for g, (c, d) in b.ints.items():
            k, v = g._coset()
            if h is None:
                h = k
            elif k != h:
                return None
            re[v], im[v] = c, d
        _walsh(re)
        if any(im):
            _walsh(im)
        rows.setdefault(h, []).append(
            {w: (c, d) for w, (c, d) in enumerate(zip(re, im)) if c or d}
        )
    spans = {h: _Span([AlgebraElement._trusted(1, x) for x in xs]) for h, xs in rows.items()}
    duals = {h: h._dual(n) for h in rows}
    for h, xs in rows.items():
        t, inside = duals[h], spans.get(h.inv())
        if not all(_in(inside, {t[u]: (c, -d) for u, (c, d) in x.items()}) for x in xs):
            return False
        for k, ys in rows.items():
            t, inside = duals[k], spans.get(h.mul(k))
            for x in xs:
                for y in ys:
                    z = {}
                    for w, (c, d) in y.items():
                        p = x.get(t[w])
                        if p is not None:
                            a, b = p
                            z[w] = (a * c - b * d, a * d + b * c)
                    if not _in(inside, z):
                        return False
    return True


def _in(span: _Span | None, z: dict) -> bool:
    """Whether the Walsh row z lies in span, with None the zero block."""
    return not z if span is None else span.contains(AlgebraElement._trusted(1, z))


def _walsh(x: list[int]) -> None:
    """x(v) -> Σ_v x(v)·(−1)^{w·v} at w, in place: the fast Walsh–Hadamard
    transform, log2(len x)·len x integer steps."""
    h = 1
    while h < len(x):
        for i in range(0, len(x), 2 * h):
            for j in range(i, i + h):
                a, b = x[j], x[j + h]
                x[j], x[j + h] = a + b, a - b
        h *= 2
