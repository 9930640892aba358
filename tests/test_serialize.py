import json

import pytest

from isrlab.f2 import F2Matrix, F2Vector
from isrlab.groups import Affine, Cantor, Lamplighter, Wreath, enumerate_group
from isrlab.serialize import decode_group

# one element per family with its JSON form, keys sorted
LITERALS = [
    (
        Affine(F2Matrix.from_lists([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), F2Vector(0b101)),
        '{"family": "affine", "g": "110010001", "n": 3, "v": "101"}',
    ),
    (
        Wreath((2, 0, 1), F2Vector(0b110)),
        '{"family": "wreath", "n": 3, "perm": [3, 1, 2], "v": "011"}',
    ),
    (
        Lamplighter(4, 0b1011, 3),
        '{"family": "lamplighter", "m": 4, "t": 3, "v": "1101"}',
    ),
    (
        Cantor(2, (1, 0, 3, 2), {1, 2}),
        '{"a": ["01", "10"], "family": "cantor", "m": 2, "perm": [2, 1, 4, 3]}',
    ),
]


@pytest.mark.parametrize("g,text", LITERALS, ids=[g.family for g, _ in LITERALS])
def test_literal_encoding(g, text):
    assert json.dumps(g.to_json(), sort_keys=True) == text
    assert decode_group(json.loads(text)) == g


TRUNCATIONS = [
    ("affine", 1), ("affine", 2), ("affine", 3),
    ("wreath", 1), ("wreath", 2), ("wreath", 3),
    ("lamplighter", 3), ("lamplighter", 4),
    ("cantor", 0), ("cantor", 1), ("cantor", 2),
]


@pytest.mark.parametrize("family,n", TRUNCATIONS)
def test_round_trip_exhaustive(family, n):
    for g in enumerate_group(family, n):
        assert decode_group(json.loads(json.dumps(g.to_json()))) == g


@pytest.mark.parametrize("v", ["0001", "11111", "1000001"])
def test_lamplighter_refuses_lamps_at_or_beyond_m(v):
    # masked to m bits, "0001" would read as the identity and "11111" as v = 7
    with pytest.raises(ValueError, match="beyond position m = 3"):
        decode_group({"family": "lamplighter", "m": 3, "v": v, "t": 0})


def test_lamplighter_keeps_short_words_and_reduces_t():
    assert decode_group({"family": "lamplighter", "m": 3, "v": "1", "t": 0}) == Lamplighter(3, 1, 0)
    # a trailing 0 at position m names no lamp
    assert decode_group({"family": "lamplighter", "m": 3, "v": "1110", "t": 5}) == Lamplighter(3, 7, 2)
    assert decode_group({"family": "lamplighter", "m": 3, "v": "011", "t": -1}) == Lamplighter(3, 6, 2)
