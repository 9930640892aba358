"""JSON forms for group elements, algebra elements, and subalgebra specs.

Conventions: GF(2) matrices are row-major bitstrings, vectors are
bitstrings, permutations are one-line image lists, Cantor point sets
are sorted letter-words, rationals are "p/q" strings.  All encodings
are deterministic (sorted) so reports are byte-stable.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, GaussianRational
from .f2 import F2Matrix, F2Vector, _rank_of_rows
from .groups import Affine, Cantor, GroupElement, Lamplighter, Wreath


def encode_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def decode_rational(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den or 1))


def _point_word(p: int, m: int) -> str:
    return "".join(str((p >> j) & 1) for j in range(m))


def encode_group(g: GroupElement) -> dict:
    if isinstance(g, Affine):
        n = max(g.g.n, g.v.dim)
        return {
            "family": "affine",
            "n": n,
            "g": g.g.to_bitstring(n),
            "v": g.v.to_bitstring(n),
        }
    if isinstance(g, Wreath):
        n = max(len(g.sigma), g.v.dim)
        return {
            "family": "wreath",
            "n": n,
            "perm": [g.sigma[i] + 1 if i < len(g.sigma) else i + 1 for i in range(n)],
            "v": g.v.to_bitstring(n),
        }
    if isinstance(g, Lamplighter):
        return {
            "family": "lamplighter",
            "m": g.m,
            "v": "".join(str((g.v >> i) & 1) for i in range(g.m)),
            "t": g.t,
        }
    if isinstance(g, Cantor):
        return {
            "family": "cantor",
            "m": g.m,
            "perm": [x + 1 for x in g.sigma],
            "a": sorted(_point_word(p, g.m) for p in g.a),
        }
    raise TypeError(f"not a group element: {g!r}")


def _bits(s, name: str) -> str:
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"{name} must be a string of 0s and 1s")
    return s


def _int(x, name: str) -> int:
    if type(x) is not int:
        raise ValueError(f"{name} must be an integer")
    return x


def _perm(p, name: str) -> tuple[int, ...]:
    """A one-line image list of 1..k, as 0-indexed images."""
    if (
        not isinstance(p, list)
        or any(type(i) is not int for i in p)
        or sorted(p) != list(range(1, len(p) + 1))
    ):
        raise ValueError(f"{name} must be a permutation of 1..k")
    return tuple(i - 1 for i in p)


def decode_group(d: dict) -> GroupElement:
    """Inverse of encode_group; malformed input raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError("a group element must be a JSON object")
    fam = d.get("family")
    if fam == "affine":
        g = F2Matrix.from_bitstring(_bits(d.get("g"), "g"))
        if _rank_of_rows(g.rows) < g.n:
            raise ValueError("g must be an invertible matrix")
        return Affine(g, F2Vector.from_bitstring(_bits(d.get("v"), "v")))
    if fam == "wreath":
        return Wreath(
            _perm(d.get("perm"), "perm"),
            F2Vector.from_bitstring(_bits(d.get("v"), "v")),
        )
    if fam == "lamplighter":
        v = _bits(d.get("v"), "v")
        bits = sum(1 << i for i, c in enumerate(v) if c == "1")
        return Lamplighter(_int(d.get("m"), "m"), bits, _int(d.get("t"), "t"))
    if fam == "cantor":
        words = d.get("a")
        if not isinstance(words, list):
            raise ValueError("a must be a list of point words")
        pts = frozenset(
            sum(1 << j for j, c in enumerate(_bits(w, "a point word")) if c == "1")
            for w in words
        )
        m, sigma = _int(d.get("m"), "m"), _perm(d.get("perm"), "perm")
        if m < 0 or len(sigma).bit_length() != m + 1:  # before any 1 << m
            raise ValueError("perm must have 2^m entries")
        return Cantor(m, sigma, pts)
    raise ValueError(f"unknown family {fam!r}")


def encode_coefficient(c: GaussianRational) -> dict:
    return {"re": encode_rational(c.re), "im": encode_rational(c.im)}


def encode_algebra(x: AlgebraElement) -> list[dict]:
    items = sorted(x.terms.items(), key=lambda kv: kv[0].sort_key())
    return [
        {"g": encode_group(g), **encode_coefficient(c)} for g, c in items
    ]


def decode_algebra(entries: list[dict]) -> AlgebraElement:
    terms = {}
    for e in entries:
        g = decode_group(e["g"])
        c = GaussianRational(decode_rational(e["re"]), decode_rational(e["im"]))
        terms[g] = terms.get(g, GaussianRational()) + c
    return AlgebraElement(terms)
