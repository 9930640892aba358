"""Sparse exact group-algebra arithmetic with the canonical trace.

An AlgebraElement is a finitely supported vector of the group algebra
C[G], stored in integers: the coefficient at g is (re + i·im)/den for
ints[g] = (re, im).  Zero pairs are pruned and the form is reduced
(gcd(den, every part) = 1), so equality is equality of (den, ints).
All arithmetic runs on these integers; GaussianRational is the value
type at the edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .groups import GroupElement, _check_family, inverse, multiply


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class GaussianRational:
    """Exact element of Q(i)."""

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __add__(self, other):
        other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-as_gaussian(other))

    def __mul__(self, other):
        other = as_gaussian(other)
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_gaussian(other)
        n2 = other.re * other.re + other.im * other.im
        if not n2:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(other.re / n2, -other.im / n2)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        if not self.im:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


def as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


GR_ZERO = GaussianRational(0)


def _gaussian(re: int, im: int, den: int) -> GaussianRational:
    """(re + i·im)/den."""
    return GaussianRational(Fraction(re, den), Fraction(im, den) if im else 0)


def _ints(c: GaussianRational, den: int) -> tuple[int, int]:
    """den·c as a Gaussian-integer pair; den must clear c's denominators."""
    return (c.re.numerator * (den // c.re.denominator),
            c.im.numerator * (den // c.im.denominator))


class AlgebraElement:
    """Finitely supported C[G] vector; keys are canonical group elements."""

    __slots__ = ("den", "ints")

    def __init__(self, terms: dict):
        """From a map g → int, Fraction or GaussianRational of one group; zeros drop."""
        pruned = {}
        first = None
        den = 1
        for g, c in terms.items():
            c = as_gaussian(c)
            if c.is_zero():
                continue
            if first is None:
                first = g
            else:
                _check_family(first, g)
            pruned[g] = c
            den = lcm(den, c.re.denominator, c.im.denominator)
        # the lcm of reduced denominators already leaves gcd 1
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ints", {g: _ints(c, den) for g, c in pruned.items()})

    @classmethod
    def _trusted(cls, den: int, ints: dict) -> "AlgebraElement":
        """Wrap nonzero Gaussian-integer pairs of one family over den > 0,
        reduced to lowest terms.  The gcd is folded pair by pair and
        stops at 1, which the first pair usually reaches."""
        if den > 1:
            g = den
            for re, im in ints.values():
                g = gcd(g, re, im)
                if g == 1:
                    break
            if g > 1:
                den //= g
                ints = {k: (re // g, im // g) for k, (re, im) in ints.items()}
        x = object.__new__(cls)
        object.__setattr__(x, "den", den)
        object.__setattr__(x, "ints", ints)
        return x

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

    def __reduce__(self):
        return AlgebraElement._trusted, (self.den, self.ints)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """A fresh map g → GaussianRational of the nonzero coefficients."""
        return {g: _gaussian(re, im, self.den) for g, (re, im) in self.ints.items()}

    def support(self):
        return set(self.ints)

    def coefficient(self, g: GroupElement) -> GaussianRational:
        return _gaussian(*self.ints.get(g, (0, 0)), self.den)

    def is_zero(self) -> bool:
        return not self.ints

    def family(self) -> str | None:
        for g in self.ints:
            return g.family
        return None

    def _check(self, other: "AlgebraElement"):
        """FamilyMismatch unless both lie in one group (one family and, for
        the lamplighter, one modulus); zero fits every group."""
        if self.ints and other.ints:
            _check_family(next(iter(self.ints)), next(iter(other.ints)))

    # -- linear operations -------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        den = lcm(self.den, other.den)
        fx, fy = den // self.den, den // other.den
        out = {g: (re * fx, im * fx) for g, (re, im) in self.ints.items()}
        for g, (re, im) in other.ints.items():
            a, b = out.get(g, (0, 0))
            out[g] = (a + re * fy, b + im * fy)
        return AlgebraElement._trusted(den, {g: p for g, p in out.items() if p != (0, 0)})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + -other

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._trusted(
            self.den, {g: (-re, -im) for g, (re, im) in self.ints.items()}
        )

    def scale(self, c) -> "AlgebraElement":
        c = as_gaussian(c)
        m = lcm(c.re.denominator, c.im.denominator)
        p, q = _ints(c, m)
        # (re + i·im)(p + iq) is nonzero unless c is: Z[i] has no zero divisors
        ints = {g: (re * p - im * q, re * q + im * p) for g, (re, im) in self.ints.items()}
        return AlgebraElement._trusted(self.den * m, ints if p or q else {})

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return convolve(self, other)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement._trusted(
            self.den, {inverse(g): (re, -im) for g, (re, im) in self.ints.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return False
        return self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.den, frozenset(self.ints.items())))

    def __repr__(self):
        if not self.ints:
            return "AlgebraElement(0)"
        items = sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        body = " + ".join(f"{c}*u[{g}]" for g, c in items)
        return f"AlgebraElement({body})"


def unit(g: GroupElement) -> AlgebraElement:
    """The canonical unitary u_g."""
    return AlgebraElement._trusted(1, {g: (1, 0)})


def one_like(g: GroupElement) -> AlgebraElement:
    """The algebra identity u_e in g's group."""
    return unit(g.identity_like())


def combine(alpha, x: AlgebraElement, beta, y: AlgebraElement) -> AlgebraElement:
    """αx + βy, pruned."""
    return x.scale(alpha) + y.scale(beta)


# the product memo of convolve: _PRODUCTS[g][h] = g·h, each
# distinct product interned in _ELEMENTS; _stored counts the (g, h) entries
_PRODUCTS: dict = {}
_ELEMENTS: dict = {}
_MEMO_LIMIT = 1 << 11
_stored = 0


def _clear_products() -> None:
    global _stored
    _PRODUCTS.clear()
    _ELEMENTS.clear()
    _stored = 0


def convolve(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in C[G]: bilinear extension of the group law.

    The sums run over the stored integers; the result is reduced once,
    over the product of the two denominators.  Group products come from
    a memo, emptied once it holds more than _MEMO_LIMIT = 2048 (g, h)
    pairs; a pair it lacks goes through ``multiply``, with its family
    checks.  Equal products are stored as one object, so the sums match
    them by identity.
    """
    global _stored
    x._check(y)
    products, elements = _PRODUCTS, _ELEMENTS
    re: dict = {}
    im: dict = {}
    for g, (cr, ci) in x.ints.items():
        if _stored > _MEMO_LIMIT:
            _clear_products()
        row = products.get(g)
        if row is None:
            row = products[g] = {}
        for h, (dr, di) in y.ints.items():
            k = row.get(h)
            if k is None:
                k = multiply(g, h)
                k = row[h] = elements.setdefault(k, k)
                _stored += 1
            if ci or di:
                im[k] = im.get(k, 0) + cr * di + ci * dr
                re[k] = re.get(k, 0) + cr * dr - ci * di
            else:
                re[k] = re.get(k, 0) + cr * dr
    return AlgebraElement._trusted(
        x.den * y.den,
        {
            k: (r, im.get(k, 0))
            for k, r in re.items()
            if r or (im and im.get(k))
        },
    )


def trace(x: AlgebraElement) -> GaussianRational:
    """τ(x): the coefficient at the identity."""
    for g, (re, im) in x.ints.items():
        if g.is_identity():
            return _gaussian(re, im, x.den)
    return GR_ZERO


def inner_product(x: AlgebraElement, y: AlgebraElement) -> GaussianRational:
    """⟨x, y⟩ = τ(x* y) = Σ_g conj(c_g) d_g, linear on the right."""
    x._check(y)
    small, big = (x, y) if len(x.ints) <= len(y.ints) else (y, x)
    re = im = 0
    for g, (a, b) in small.ints.items():
        d = big.ints.get(g)
        if d is not None:
            # conj(a + ib)·(c + ie)
            c, e = d
            re += a * c + b * e
            im += a * e - b * c
    # summed over small, that is ⟨small, big⟩ = conj(⟨big, small⟩)
    return _gaussian(re, im if small is x else -im, x.den * y.den)


def norm_sq(x: AlgebraElement) -> Fraction:
    """⟨x, x⟩, an exact nonnegative rational."""
    total = sum(re * re + im * im for re, im in x.ints.values())
    return Fraction(total, x.den * x.den)


def ad(g: GroupElement, x: AlgebraElement) -> AlgebraElement:
    """The adjoint action u_g x u_g^{-1}: each term moves through
    ``g.conjugation()`` and keeps its coefficient."""
    if not x.ints:
        return x
    _check_family(g, next(iter(x.ints)))
    return _moved(x, g.conjugation())


def _moved(x: AlgebraElement, conj) -> AlgebraElement:
    """x with each term at h moved to conj(h), for conj a bijection of
    x's group such as a ``conjugation()`` map built once for many x."""
    return AlgebraElement._trusted(x.den, {conj(h): pair for h, pair in x.ints.items()})
