"""Acceptance gate: one test per criterion, exact equality throughout.

Every check is an equality of exact rationals (tolerance zero).  Each
test prints a single pass line with its runtime and asserts the
criterion's time budget.
"""

import hashlib
import json
import random
import time
import weakref
from fractions import Fraction
from functools import lru_cache

from isrlab import algebra, groups, zoo
from isrlab.algebra import AlgebraElement, unit
from isrlab.cli import main
from isrlab.expectation import character_of, check_E_properties, check_ES_subset_S
from isrlab.f2 import F2Matrix, F2Vector, rank_defect
from isrlab.groups import (
    Affine,
    Wreath,
    enumerate_group,
    multiply,
    transposition,
)
from isrlab.projections import CylinderWord, make_cylinder, make_q_power

SEED = 7
# sha256 of `run --suite all --seed 7`: the report bytes are a contract
SEED7_REPORT_SHA256 = "05b154d9b30c6e82ee0b50267da903aeba43bb4887da5943b0dae5f37c24faa1"
# sha256 of `run --suite all --seed 31`: a second seed under the same contract
SEED31_REPORT_SHA256 = "05483904c4ed82226724dc829e7d7878e776a1f609639ff343141eebb0c6c51e"


@lru_cache(maxsize=None)
def _mexo(n):
    return zoo.build_mexo(n)


@lru_cache(maxsize=None)
def _affine_sample_n3():
    rng = random.Random(SEED)
    pool = enumerate_group("affine", 3)
    return tuple(pool[rng.randrange(len(pool))] for _ in range(50))


def _finish(num, label, t0, bound):
    dt = time.perf_counter() - t0
    assert dt < bound, f"criterion {num} took {dt:.1f}s, budget {bound}s"
    print(f"criterion {num:>2} ({label}): PASS in {dt:.1f}s (< {bound}s)")


def test_criterion_01_mexo_expectation_law():
    t0 = time.perf_counter()
    spec2 = _mexo(2)
    for x in enumerate_group("affine", 2):
        assert spec2.expect_unit(x) == zoo.mexo_expected_expectation(x)
    spec3 = _mexo(3)
    for x in _affine_sample_n3():
        assert spec3.expect_unit(x) == zoo.mexo_expected_expectation(x)
    s = Affine.matrix(F2Matrix.swap(1, 2))
    diag = make_cylinder(CylinderWord((0, 0))) + make_cylinder(CylinderWord((1, 1)))
    assert spec2.expect_unit(s) == unit(s) * diag
    _finish(1, "M_exo expectation law", t0, 30)


def test_criterion_02_character_match():
    t0 = time.perf_counter()
    spec2 = _mexo(2)
    for x in enumerate_group("affine", 2):
        assert character_of(spec2, x) == Fraction(1, 1 << rank_defect(x.g))
    spec3 = _mexo(3)
    for x in _affine_sample_n3():
        assert character_of(spec3, x) == Fraction(1, 1 << rank_defect(x.g))
    s = Affine.matrix(F2Matrix.swap(1, 2))
    assert character_of(spec2, s) == Fraction(1, 2)
    _finish(2, "character match", t0, 10)


def test_criterion_03_exoticness_witness():
    t0 = time.perf_counter()
    assert zoo.mexo_exoticness_witness(2)
    assert zoo.mexo_exoticness_witness(3)
    _finish(3, "exoticness witness", t0, 10)


def test_criterion_04_f_calculus():
    t0 = time.perf_counter()
    rep = zoo.f_calculus_report(n=3)
    assert rep["parameters"]["pairs"] == 168 * 168
    assert zoo.report_passed(rep)
    _finish(4, "f-calculus", t0, 60)


def test_criterion_05_cylinder_calculus():
    t0 = time.perf_counter()
    rep = zoo.suite_cylinder(n=3)
    assert zoo.report_passed(rep)
    assert rep["parameters"]["in_hypothesis_pairs"] > 0
    _finish(5, "cylinder calculus", t0, 30)


def test_criterion_06_e12_classification_instances():
    t0 = time.perf_counter()
    s12 = Wreath.perm(transposition(0, 1))
    for sign in (1, -1):
        spec_q = zoo.build_mq(3, sign)
        assert spec_q.expect_unit(s12) == unit(s12) * make_q_power(sign, {1, 2})
    spec_p = zoo.build_mpart(3)
    assert spec_p.expect_unit(s12) == AlgebraElement({})
    center = make_q_power(1, {1, 2}) + make_q_power(-1, {1, 2})
    for b in spec_p.basis:
        assert center * b == b * center
    _finish(6, "E((12)) classification instances", t0, 60)


def test_criterion_07_cantor_case3_witness():
    t0 = time.perf_counter()
    assert zoo.cantor_case3_witness()
    _finish(7, "Cantor case-3 witness", t0, 5)


def test_criterion_08_normal_closure_shadows():
    t0 = time.perf_counter()
    affine = zoo.closure_table("affine", 3)
    assert [size for _, size in affine] == [1, 8, 1344]
    wreath = zoo.closure_table("wreath", 4)
    cantor = zoo.closure_table("cantor", 2)
    for table in (wreath, cantor):
        assert all(size >= 1 for _, size in table)
    _finish(8, "normal-closure shadows", t0, 30)


def test_criterion_09_fpc_growth():
    t0 = time.perf_counter()
    rep = zoo.fpc_growth_suite()
    assert zoo.report_passed(rep)
    members = [
        c
        for c in rep["checks"]
        if "member" in c["description"] and "non-member" not in c["description"]
    ]
    nonmembers = [c for c in rep["checks"] if "non-member" in c["description"]]
    assert len(members) == 8 and len(nonmembers) == 6
    for c in members:
        assert all(s <= 2 for s in c["actual"])
        assert len(set(c["actual"])) == 1
    for c in nonmembers:
        sizes = c["actual"]
        assert len(sizes) == 3
        assert sizes[0] < sizes[1] < sizes[2]
    _finish(9, "fpc growth", t0, 60)


def test_criterion_10_character_psd_centrality():
    t0 = time.perf_counter()
    rep = zoo.suite_characters(seed=SEED)
    assert zoo.report_passed(rep)
    names = {c["description"].split(": ")[0] for c in rep["checks"]}
    assert names == {
        "affine:k=1,d=0",
        "affine:k=1,d=1",
        "affine:k=2,d=0",
        "affine:k=2,d=1",
        "cantor:k=1",
        "cantor:k=2",
    }
    _finish(10, "character PSD/centrality", t0, 30)


def test_criterion_11_e_structure_lemmas():
    t0 = time.perf_counter()
    assert check_E_properties(_mexo(2), enumerate_group("affine", 2))
    rng = random.Random(SEED)
    wpool = enumerate_group("wreath", 3)
    sample = [Wreath.identity()] + [
        wpool[rng.randrange(len(wpool))] for _ in range(11)
    ]
    assert check_E_properties(zoo.build_mq(3), sample)
    assert check_E_properties(zoo.build_mpart(3), sample)
    mq2 = zoo.build_mq(2)
    s12 = Wreath.perm(transposition(0, 1))
    a_basis = [unit(Wreath.vector(F2Vector(b))) for b in range(4)]
    s_basis = [unit(multiply(s12, Wreath.vector(F2Vector(b)))) for b in range(4)]
    assert check_ES_subset_S(mq2, a_basis, s_basis)
    _finish(11, "E-structure lemmas", t0, 30)


def test_criterion_12_determinism(tmp_path):
    t0 = time.perf_counter()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    # the first run starts with an empty product memo, the second with
    # the one the first left behind
    algebra._clear_products()
    for out in (first, second):
        code = main(["run", "--suite", "all", "--seed", "7", "--out", str(out)])
        assert code == 0
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    json.loads(blob)  # well-formed
    assert hashlib.sha256(blob).hexdigest() == SEED7_REPORT_SHA256
    dt = time.perf_counter() - t0
    print(f"criterion 12 (determinism): PASS in {dt:.1f}s")


def test_criterion_12_seed31_report(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "seed31.json"
    assert main(["run", "--suite", "all", "--seed", "31", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SEED31_REPORT_SHA256
    dt = time.perf_counter() - t0
    print(f"criterion 12 (seed-31 report): PASS in {dt:.1f}s")


def test_criterion_13_mexo4_build_and_first_projection(monkeypatch):
    # a truncation map of this test's own, so the window is enumerated here
    monkeypatch.setattr(groups, "_TRUNCATIONS", weakref.WeakValueDictionary())
    t0 = time.perf_counter()
    spec = zoo.build_mexo(4)
    one = unit(Affine.identity())
    assert spec.project(one) == one
    assert len(spec._orthogonal_basis()) == zoo.MODELS["mexo"].rank(4) == 40320
    _finish(13, "mexo:4 build and first projection", t0, 3)
