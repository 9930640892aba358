"""The three benchmark workloads.

Each workload has three steps, run in one fresh process by worker.py:

* ``inputs(seed, scratch)`` builds the seeded inputs (part of set-up);
* ``run(inputs)`` is the timed phase and returns the outputs plus
  ``wall_s``, ``build_s`` and the per-operation latencies;
* ``check(inputs, outputs)`` compares every output with an exact oracle,
  outside the timed phase, and returns ``(attempted, failed)``.

The library is driven only through its public functions, looked up on
their modules at call time so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import sys
import traceback
import weakref
from fractions import Fraction
from time import perf_counter

from isrlab import cli, expectation, f2, zoo
from isrlab.algebra import AlgebraElement, GaussianRational, unit
from isrlab.expectation import SubalgebraSpec
from isrlab.f2 import F2Matrix, F2Vector
from isrlab.groups import Affine, Wreath

import oracles


def _timed(fn, acc: list):
    """fn, adding the seconds each call takes to acc[0]."""

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[0] += perf_counter() - t0

    return timed


def _guarded(fn, *args):
    """fn(*args), or the exception it raised: a raising operation is a
    failed one, not the end of the run."""
    try:
        return fn(*args)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return exc


def _plain(x: AlgebraElement) -> dict:
    """An affine or wreath algebra element as an oracle dict."""
    return {
        (g.g.rows if isinstance(g, Affine) else g.sigma, g.v.bits): (c.re, c.im)
        for g, c in x.terms.items()
    }


def _random_gl_rows(rng: random.Random, n: int) -> tuple:
    while True:
        rows = tuple(rng.randrange(1 << n) for _ in range(n))
        if oracles.rank(rows) == n:
            return rows


# ---------------------------------------------------------------------------
# verify-all: `isrlab run --suite all --seed <seed>`, in process

# sha256 of the seed-7 report at the commit that introduced the benchmark
SEED7_REPORT_SHA256 = "05b154d9b30c6e82ee0b50267da903aeba43bb4887da5943b0dae5f37c24faa1"


def verify_all_inputs(seed: int, scratch: str) -> dict:
    out = os.path.join(scratch, f"report-{os.getpid()}.json")
    return {"seed": seed, "out": out,
            "argv": ["run", "--suite", "all", "--seed", str(seed), "--out", out]}


def verify_all_run(inputs: dict) -> dict:
    """The verdict is the one operation.  build_s is the time spent
    constructing subalgebra specs, including the lazy Gram–Schmidt that
    the first projection onto each spec runs."""
    build = [0.0]
    for name in ("build_mexo", "build_mq", "build_mpart"):
        setattr(zoo, name, _timed(getattr(zoo, name), build))
    project = SubalgebraSpec.project
    timed_project = _timed(project, build)
    projected = weakref.WeakSet()

    def first_project(spec, x):
        if spec in projected:
            return project(spec, x)
        projected.add(spec)
        return timed_project(spec, x)

    SubalgebraSpec.project = first_project
    t0 = perf_counter()
    rc = _guarded(cli.main, inputs["argv"])
    wall = perf_counter() - t0
    try:
        with open(inputs["out"], "rb") as fh:
            blob = fh.read()
        os.remove(inputs["out"])
    except FileNotFoundError:
        blob = b""
    return {"wall_s": wall, "build_s": build[0], "latencies": [wall],
            "rc": rc, "report": blob}


def verify_all_check(inputs: dict, out: dict):
    """Exit code 0, every check row passes, and for seed 7 the report
    bytes hash to the reference."""
    attempted, failed = 1, int(out["rc"] != 0)
    try:
        doc = json.loads(out["report"])
        rows = [c["pass"] for rep in doc["reports"] for c in rep["checks"]]
    except (ValueError, KeyError, TypeError):
        return attempted + 1, failed + 1
    attempted += len(rows)
    failed += sum(1 for ok in rows if ok is not True)
    if inputs["seed"] == 7:
        attempted += 1
        failed += hashlib.sha256(out["report"]).hexdigest() != SEED7_REPORT_SHA256
    return attempted, failed


# ---------------------------------------------------------------------------
# project: spec build, then a stream of expectation queries

# Queries per worker.  With windows of 1344 and 384 elements about a
# fifth of the queries repeat an earlier expect_unit and hit the memo,
# which keeps the median among the projections rather than on the edge
# between the ~3 µs hits and the projections.
PROJECT_QUERIES = 1200
# every COMBINATION_EVERY-th round of one query per spec uses
# conditional_expectation on a 2–3 term combination with non-real
# coefficients; all other queries are expect_unit(g)
COMBINATION_EVERY = 10
# (builder, window family, closed form of E(u_g), or None to check that
# the residual is orthogonal to the basis)
PROJECT_SPECS = (
    (lambda: zoo.build_mexo(3), "affine", oracles.mexo_expectation),
    (lambda: zoo.build_mq(4, 1), "wreath", functools.partial(oracles.mq_expectation, sign=1)),
    (lambda: zoo.build_mq(4, -1), "wreath", functools.partial(oracles.mq_expectation, sign=-1)),
    (lambda: zoo.build_mpart(4), "wreath", None),
)


def _window_element(rng: random.Random, family: str):
    """A uniform element of the affine n=3 or wreath n=4 window."""
    if family == "affine":
        return Affine(F2Matrix(_random_gl_rows(rng, 3)), F2Vector(rng.randrange(8)))
    sigma = list(range(4))
    rng.shuffle(sigma)
    return Wreath(tuple(sigma), F2Vector(rng.randrange(16)))


def _gaussian(rng: random.Random) -> GaussianRational:
    """A random Gaussian rational with a nonzero imaginary part."""
    im = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
    return GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), im)


def project_inputs(seed: int, scratch: str = "") -> dict:
    rng = random.Random(seed)
    queries = []
    seen = set()
    units = repeats = 0
    for i in range(PROJECT_QUERIES):
        si = i % len(PROJECT_SPECS)
        family = PROJECT_SPECS[si][1]
        if (i // len(PROJECT_SPECS)) % COMBINATION_EVERY == COMBINATION_EVERY - 1:
            terms, size = {}, rng.choice((2, 3))
            while len(terms) < size:
                terms[_window_element(rng, family)] = _gaussian(rng)
            queries.append((si, AlgebraElement(terms)))
        else:
            g = _window_element(rng, family)
            units += 1
            repeats += (si, g) in seen
            seen.add((si, g))
            queries.append((si, g))
    return {"queries": queries, "expect_unit_repeat_share": repeats / units}


def project_run(inputs: dict) -> dict:
    """build_s covers constructing the four specs and the first projection
    onto each (E(1), which runs the lazy Gram–Schmidt)."""
    t0 = perf_counter()
    specs, firsts = [], []
    for build, family, _ in PROJECT_SPECS:
        spec = build()
        one = unit(Affine.identity() if family == "affine" else Wreath.identity())
        firsts.append((one, spec.project(one)))
        specs.append(spec)
    build_s = perf_counter() - t0
    latencies, outputs = [], []
    for si, q in inputs["queries"]:
        t = perf_counter()
        if isinstance(q, AlgebraElement):
            out = _guarded(expectation.conditional_expectation, q, specs[si])
        else:
            out = _guarded(specs[si].expect_unit, q)
        latencies.append(perf_counter() - t)
        outputs.append(out)
    wall = perf_counter() - t0
    return {"wall_s": wall, "build_s": build_s, "latencies": latencies,
            "specs": specs, "firsts": firsts, "outputs": outputs}


def project_check(inputs: dict, out: dict):
    """E(1) = 1 on each spec; mexo and mq outputs equal their closed forms
    extended linearly; mpart residuals are orthogonal to the whole basis;
    conditional_expectation reports satisfy Pythagoras."""
    failed = sum(1 for one, e in out["firsts"] if e != one)
    bases = {}
    for (si, q), result in zip(inputs["queries"], out["outputs"]):
        if isinstance(result, Exception):
            failed += 1
            continue
        if isinstance(q, AlgebraElement):
            x, ex = _plain(q), _plain(result.output)
            ok = oracles.pythagoras(x, ex, result.residual_norm_sq,
                                    (result.character_value.re, result.character_value.im))
        else:
            x, ex, ok = _plain(unit(q)), _plain(result), True
        closed_form = PROJECT_SPECS[si][2]
        if closed_form is not None:
            ok = ok and ex == oracles.linear_extension(closed_form, x)
        else:
            if si not in bases:
                bases[si] = [_plain(b) for b in out["specs"][si].basis]
            ok = ok and oracles.residual_orthogonal(x, ex, bases[si])
        failed += not ok
    return len(out["firsts"]) + len(out["outputs"]), failed


# ---------------------------------------------------------------------------
# factor-dim4: transvection_factorize on GL(4, F2)

FACTOR_SAMPLES = 10000
# every FPRODUCT_STRIDE-th sample is also checked with mexo_fproduct_identity
FPRODUCT_STRIDE = 500


def factor_inputs(seed: int, scratch: str = "") -> dict:
    """A first element with rank(g − I) = 4, so the first call pays for
    the rank-4 shortest-word table, then uniform non-identity samples."""
    rng = random.Random(seed)
    while True:
        first = _random_gl_rows(rng, 4)
        if oracles.rank([first[i] ^ (1 << i) for i in range(4)]) == 4:
            break
    samples = []
    while len(samples) < FACTOR_SAMPLES:
        rows = _random_gl_rows(rng, 4)
        if rows != oracles.embed((), 4):
            samples.append(F2Matrix(rows))
    return {"first": F2Matrix(first), "samples": samples}


def factor_run(inputs: dict) -> dict:
    t0 = perf_counter()
    outputs = [_guarded(f2.transvection_factorize, inputs["first"])]
    build_s = perf_counter() - t0
    latencies = []
    for g in inputs["samples"]:
        t = perf_counter()
        outputs.append(_guarded(f2.transvection_factorize, g))
        latencies.append(perf_counter() - t)
    wall = perf_counter() - t0
    return {"wall_s": wall, "build_s": build_s, "latencies": latencies, "outputs": outputs}


def factor_check(inputs: dict, out: dict):
    """Recomposition, rank-1 involution factors and the range sum on every
    result; the conjugated f-product identity on a stride of samples."""
    elements = [inputs["first"]] + inputs["samples"]
    failed = sum(
        1 for g, factors in zip(elements, out["outputs"])
        if isinstance(factors, Exception)
        or not oracles.factorization_ok(g.rows, [f.rows for f in factors])
    )
    stride = inputs["samples"][::FPRODUCT_STRIDE]
    failed += sum(1 for g in stride if _guarded(zoo.mexo_fproduct_identity, g) is not True)
    return len(out["outputs"]) + len(stride), failed


WORKLOADS = {
    "verify-all": (verify_all_inputs, verify_all_run, verify_all_check),
    "project": (project_inputs, project_run, project_check),
    "factor-dim4": (factor_inputs, factor_run, factor_check),
}
