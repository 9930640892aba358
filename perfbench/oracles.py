"""Exact oracles for the benchmark, written without the library.

Everything here works on plain Python values, so a defect in the
library's group law, GF(2) arithmetic or Gram–Schmidt cannot cancel out
of the comparison:

* a GF(2) matrix is the tuple of its row bitmasks (bit j of row i is
  entry (i+1, j+1)); a shorter tuple means the identity beyond it;
* an affine element (g, v) is the key ``(rows, vbits)``, a wreath
  element (σ, v) is ``(sigma, vbits)`` with σ a tuple of 0-indexed
  images;
* an algebra element is a dict from such keys to ``(re, im)`` pairs of
  Fractions, with no zero entries.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))


# -- Gaussian-rational vectors ---------------------------------------------


def add_scaled(acc: dict, coef, x: dict) -> None:
    """acc += coef·x in place, pruning zeros."""
    cr, ci = coef
    for k, (xr, xi) in x.items():
        ar, ai = acc.get(k, ZERO)
        v = (ar + cr * xr - ci * xi, ai + cr * xi + ci * xr)
        if v == ZERO:
            acc.pop(k, None)
        else:
            acc[k] = v


def inner(x: dict, y: dict):
    """⟨x, y⟩ = Σ conj(x_k)·y_k, linear on the right."""
    if len(y) < len(x):
        re, im = inner(y, x)
        return re, -im
    re = im = Fraction(0)
    for k, (xr, xi) in x.items():
        d = y.get(k)
        if d is not None:
            yr, yi = d
            re += xr * yr + xi * yi
            im += xr * yi - xi * yr
    return re, im


def norm_sq(x: dict) -> Fraction:
    return sum((r * r + i * i for r, i in x.values()), Fraction(0))


# -- GF(2) linear algebra ----------------------------------------------------


def embed(rows, n: int) -> tuple:
    """The rows of a matrix, padded with identity rows to dimension n."""
    return tuple(rows) + tuple(1 << i for i in range(len(rows), n))


def mat_mul(a, b) -> tuple:
    """(AB) row i = XOR of the rows j of B over the bits j of row i of A."""
    n = max(len(a), len(b))
    a, b = embed(a, n), embed(b, n)
    out = []
    for r in a:
        acc = 0
        for j in range(n):
            if (r >> j) & 1:
                acc ^= b[j]
        out.append(acc)
    return tuple(out)


def span(vectors) -> frozenset:
    """All F2-linear combinations of the given bitmask vectors."""
    out = {0}
    for v in vectors:
        if v not in out:
            out |= {x ^ v for x in out}
    return frozenset(out)


def range_of(rows) -> frozenset:
    """R(g − I): the span of the columns of g − I."""
    n = len(rows)
    diff = [rows[i] ^ (1 << i) for i in range(n)]
    cols = []
    for j in range(n):
        c = 0
        for i in range(n):
            if (diff[i] >> j) & 1:
                c |= 1 << i
        cols.append(c)
    return span(cols)


def rank(rows) -> int:
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return len(basis)


# -- closed forms of the conditional expectations ----------------------------


def mexo_expectation(rows, vbits: int) -> dict:
    """E(u_(g,v)) = u_g f_g u_v = |R|⁻¹ Σ_{w ∈ R(g−I)} u_(g, v+w)."""
    r = range_of(rows)
    c = (Fraction(1, len(r)), Fraction(0))
    return {(tuple(rows), vbits ^ w): c for w in r}


def mq_expectation(sigma, vbits: int, sign: int) -> dict:
    """E(u_(s,v)) = u_s Q^{supp s} u_v, where Q^A = Π_{j∈A} ½(1 ± u_{z_j})
    expands to 2^{-|A|} Σ_{B⊆A} (±1)^{|B|} u_{z_B}."""
    moved = [j for j, img in enumerate(sigma) if img != j]
    scale = Fraction(1, 1 << len(moved))
    out = {}
    for mask in range(1 << len(moved)):
        z = 0
        for k, j in enumerate(moved):
            if (mask >> k) & 1:
                z |= 1 << j
        coef = -scale if sign < 0 and bin(mask).count("1") % 2 else scale
        out[(tuple(sigma), vbits ^ z)] = (coef, Fraction(0))
    return out


def linear_extension(closed_form, x: dict) -> dict:
    """Σ c_g·E(u_g) for x = Σ c_g u_g, with E(u_g) = closed_form(*g)."""
    out: dict = {}
    for key, coef in x.items():
        add_scaled(out, coef, closed_form(*key))
    return out


def residual_orthogonal(x: dict, ex: dict, basis) -> bool:
    """Whether x − E(x) is orthogonal to every basis element."""
    resid = dict(x)
    add_scaled(resid, (Fraction(-1), Fraction(0)), ex)
    return all(inner(b, resid) == ZERO for b in basis)


def pythagoras(x: dict, ex: dict, residual_norm_sq, character) -> bool:
    """The reported ‖x − E(x)‖² and ⟨x, E(x)⟩ of an orthogonal projection:
    ‖x‖² − ‖E(x)‖² and ‖E(x)‖²."""
    n_ex = norm_sq(ex)
    return residual_norm_sq == norm_sq(x) - n_ex and character == (n_ex, Fraction(0))


# -- transvection factorizations ---------------------------------------------


def factorization_ok(g_rows, factors) -> bool:
    """The factors are rank-1 involutions, their ordered product is g, and
    their ranges sum to R(g − I)."""
    n = max([len(g_rows)] + [len(f) for f in factors])
    ident = embed((), n)
    prod = ident
    ranges = []
    for f in factors:
        f = embed(f, n)
        if rank([f[i] ^ (1 << i) for i in range(n)]) != 1 or mat_mul(f, f) != ident:
            return False
        prod = mat_mul(prod, f)
        ranges.extend(range_of(f))
    g = embed(g_rows, n)
    return prod == g and span(ranges) == range_of(g)
