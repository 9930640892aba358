"""Sparse exact group-algebra arithmetic with the canonical trace.

An AlgebraElement is a finitely supported map from group elements to
Gaussian-rational coefficients — a vector of the group algebra C[G].
All arithmetic is exact; zero coefficients are pruned eagerly so that
equality is termwise equality of canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import FamilyMismatch
from .groups import GroupElement, _check_family, identity_like, inverse, multiply


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

    def __rsub__(self, other):
        return as_gaussian(other) + (-self)

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

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

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
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


class AlgebraElement:
    """Finitely supported C[G] vector; keys are canonical group elements."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        pruned = {}
        fam = None
        for g, c in terms.items():
            c = as_gaussian(c)
            if c.is_zero():
                continue
            if fam is None:
                fam = g.family
            elif g.family != fam:
                raise FamilyMismatch("mixed families in one algebra element")
            pruned[g] = c
        object.__setattr__(self, "terms", pruned)

    @classmethod
    def _trusted(cls, terms: dict) -> "AlgebraElement":
        """Wrap terms already known to be nonzero and of one family."""
        x = object.__new__(cls)
        object.__setattr__(x, "terms", terms)
        return x

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

    # -- structure ---------------------------------------------------------

    def support(self):
        return set(self.terms)

    def coefficient(self, g: GroupElement) -> GaussianRational:
        return self.terms.get(g, GR_ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def family(self) -> str | None:
        for g in self.terms:
            return g.family
        return None

    def _check(self, other: "AlgebraElement"):
        f1, f2 = self.family(), other.family()
        if f1 is not None and f2 is not None and f1 != f2:
            raise FamilyMismatch(f"{f1} vs {f2}")

    # -- linear operations -------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, GR_ZERO) + c
        return AlgebraElement(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def scale(self, c) -> "AlgebraElement":
        c = as_gaussian(c)
        if c.is_zero():
            return AlgebraElement({})
        return AlgebraElement._trusted({g: x * c for g, x in self.terms.items()})

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return convolve(self, other)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(
            {inverse(g): c.conjugate() for g, c in self.terms.items()}
        )

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement(0)"
        items = sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        body = " + ".join(f"{c}*u[{g}]" for g, c in items)
        return f"AlgebraElement({body})"


def unit(g: GroupElement) -> AlgebraElement:
    """The canonical unitary u_g."""
    return AlgebraElement({g: GR_ONE})


def one_like(g: GroupElement) -> AlgebraElement:
    """The algebra identity u_e in g's group."""
    return unit(identity_like(g))


def combine(alpha, x: AlgebraElement, beta, y: AlgebraElement) -> AlgebraElement:
    """αx + βy, pruned."""
    return x.scale(alpha) + y.scale(beta)


def _scaled(x: AlgebraElement):
    """(D, [(g, D·Re c_g, D·Im c_g)]): the coefficients as integers over
    one common denominator D."""
    den = 1
    for c in x.terms.values():
        den = lcm(den, c.re.denominator, c.im.denominator)
    return den, [
        (g, c.re.numerator * (den // c.re.denominator),
         c.im.numerator * (den // c.im.denominator))
        for g, c in x.terms.items()
    ]


def convolve(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in C[G]: bilinear extension of the group law.

    The sums run over exact integers; each output coefficient becomes a
    fraction once, over the product of the two common denominators.
    """
    x._check(y)
    dx, xs = _scaled(x)
    dy, ys = _scaled(y)
    re: dict = {}
    im: dict = {}
    for g, cr, ci in xs:
        for h, dr, di in ys:
            k = multiply(g, h)
            if ci or di:
                im[k] = im.get(k, 0) + cr * di + ci * dr
                re[k] = re.get(k, 0) + cr * dr - ci * di
            else:
                re[k] = re.get(k, 0) + cr * dr
    den = dx * dy
    return AlgebraElement._trusted(
        {
            k: GaussianRational(
                Fraction(r, den), Fraction(im.get(k, 0), den) if im else 0
            )
            for k, r in re.items()
            if r or (im and im.get(k))
        }
    )


def trace(x: AlgebraElement) -> GaussianRational:
    """τ(x): the coefficient at the identity."""
    for g, c in x.terms.items():
        if g.is_identity():
            return c
    return GR_ZERO


def inner_product(x: AlgebraElement, y: AlgebraElement) -> GaussianRational:
    """⟨x, y⟩ = τ(x* y) = Σ_g conj(c_g) d_g, linear on the right."""
    x._check(y)
    small, big = (x, y) if len(x.terms) <= len(y.terms) else (y, x)
    acc = GR_ZERO
    for g, c in small.terms.items():
        d = big.terms.get(g)
        if d is not None:
            if small is x:
                acc = acc + c.conjugate() * d
            else:
                acc = acc + d.conjugate() * c
    return acc


def norm_sq(x: AlgebraElement) -> Fraction:
    """⟨x, x⟩, an exact nonnegative rational."""
    acc = Fraction(0)
    for c in x.terms.values():
        acc += c.norm_sq()
    return acc


def ad(g: GroupElement, x: AlgebraElement) -> AlgebraElement:
    """The adjoint action u_g x u_g^{-1}, applied termwise."""
    if not x.terms:
        return x
    _check_family(g, next(iter(x.terms)))
    conj = g.conjugation()
    return AlgebraElement._trusted({conj(h): c for h, c in x.terms.items()})
