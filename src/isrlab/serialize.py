"""JSON forms for rationals ("p/q" strings) and algebra elements, and
the decoder of group elements, which each family encodes itself.  All
encodings are deterministic (sorted) so reports are byte-stable.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, GaussianRational
from .groups import FAMILIES, GroupElement


def encode_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def decode_rational(s: str) -> Fraction:
    """Inverse of encode_rational; malformed input raises ValueError."""
    if not isinstance(s, str):
        raise ValueError(f"a rational must be a 'p/q' string, got {s!r}")
    num, _, den = s.partition("/")
    q = int(den or 1)
    if not q:
        raise ValueError(f"rational {s!r} has a zero denominator")
    return Fraction(int(num), q)


def decode_group(d: dict) -> GroupElement:
    """Inverse of ``g.to_json()``; malformed input raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError("a group element must be a JSON object")
    fam = d.get("family")
    cls = FAMILIES.get(fam) if isinstance(fam, str) else None
    if cls is None:
        raise ValueError(f"unknown family {fam!r}")
    return cls.from_json(d)


def encode_coefficient(c: GaussianRational) -> dict:
    return {"re": encode_rational(c.re), "im": encode_rational(c.im)}


def encode_algebra(x: AlgebraElement) -> list[dict]:
    items = sorted(x.terms.items(), key=lambda kv: kv[0].sort_key())
    return [
        {"g": g.to_json(), **encode_coefficient(c)} for g, c in items
    ]


def decode_algebra(entries: list[dict]) -> AlgebraElement:
    """Inverse of encode_algebra; malformed input raises ValueError."""
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("an algebra element must be a list of JSON objects")
    terms = {}
    for e in entries:
        g = decode_group(e["g"])
        c = GaussianRational(decode_rational(e["re"]), decode_rational(e["im"]))
        terms[g] = terms.get(g, GaussianRational()) + c
    return AlgebraElement(terms)
