"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

They check that BENCHMARK.json matches metrics.py, that the closed-form
oracles agree with the library on whole windows, that a corrupted output
is counted as a failure, and that tracing changes no report byte and
counts the same work on every run.  About two minutes on two cores.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from isrlab import cli, zoo  # noqa: E402
from isrlab.algebra import AlgebraElement, unit  # noqa: E402
from isrlab.groups import Affine, Wreath, enumerate_group  # noqa: E402

import metrics  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER
    ]


def test_closed_forms_match_library():
    """E(u_x) equals the mexo and mq closed forms on every window element."""
    mexo = zoo.build_mexo(3)
    for g in enumerate_group("affine", 3):
        expected = oracles.mexo_expectation(g.g.rows, g.v.bits)
        assert workloads._plain(mexo.expect_unit(g)) == expected, g
    for sign in (1, -1):
        mq = zoo.build_mq(4, sign)
        for s in enumerate_group("wreath", 4):
            expected = oracles.mq_expectation(s.sigma, s.v.bits, sign)
            assert workloads._plain(mq.expect_unit(s)) == expected, (sign, s)


def test_corrupted_project_outputs_fail():
    inputs = workloads.project_inputs(3)
    inputs["queries"] = inputs["queries"][:400]
    out = workloads.project_run(inputs)
    assert workloads.project_check(inputs, out) == (404, 0)
    first = {}
    for i, (si, q) in enumerate(inputs["queries"]):
        first.setdefault((si, isinstance(q, AlgebraElement)), i)
    assert len(first) == 8, first  # every spec, on units and on combinations
    for (si, _), i in first.items():
        e = Affine.identity() if workloads.PROJECT_SPECS[si][1] == "affine" else Wreath.identity()
        bump = unit(e).scale(Fraction(1, 7919))
        result = out["outputs"][i]
        if isinstance(result, AlgebraElement):
            out["outputs"][i] = result + bump
        else:
            out["outputs"][i] = dataclasses.replace(result, output=result.output + bump)
    assert workloads.project_check(inputs, out) == (404, len(first))


def test_corrupted_factorizations_fail():
    samples = [
        g for g in workloads.factor_inputs(5)["samples"]
        if oracles.rank([oracles.embed(g.rows, 4)[i] ^ (1 << i) for i in range(4)]) < 4
    ][:201]
    inputs = {"first": samples[0], "samples": samples[1:]}
    out = workloads.factor_run(inputs)
    attempted, failed = workloads.factor_check(inputs, out)
    assert attempted > 201 and failed == 0
    for i in (0, 1):
        out["outputs"][i] = out["outputs"][i][:-1]
    out["outputs"][2] = ValueError("a raising call is a failed operation")
    assert workloads.factor_check(inputs, out) == (attempted, 3)


def test_corrupted_report_fails():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        rc = cli.main(["run", "--suite", "mexo", "--out", path])
        with open(path, "rb") as fh:
            blob = fh.read()
    inputs = {"seed": 8}
    attempted, failed = workloads.verify_all_check(inputs, {"rc": rc, "report": blob})
    assert failed == 0 and attempted > 1
    bad = blob.replace(b'"pass": true', b'"pass": false', 1)
    assert workloads.verify_all_check(inputs, {"rc": rc, "report": bad}) == (attempted, 1)
    assert workloads.verify_all_check(inputs, {"rc": 1, "report": blob}) == (attempted, 1)
    assert workloads.verify_all_check({"seed": 7}, {"rc": rc, "report": blob}) == (attempted + 1, 1)


def _counts(record) -> dict:
    return {k: v for k, v in record["layers"].items()
            if k.endswith(("_calls", "_hits", "bfs_elements", "_pairs", "gs_basis", "gs_rank"))}


def test_tracing_keeps_reports_and_counts():
    scratch = os.path.join(run.ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    deadline = time.monotonic() + 600
    plain = run.spawn("verify-all", 7, scratch, deadline)
    assert plain["report_sha256"] == workloads.SEED7_REPORT_SHA256
    for workload in run.WORKLOADS:
        first, second = (run.spawn(workload, 7, scratch, deadline, "--trace") for _ in range(2))
        assert first["failed"] == second["failed"] == 0
        assert _counts(first) == _counts(second), workload
        if workload == "verify-all":
            assert first["report_sha256"] == second["report_sha256"] == plain["report_sha256"]
    # the benchmark's own calls into the library are traced too
    calls = first["layers"]
    assert calls["f2.transvection_factorize_calls"] > workloads.FACTOR_SAMPLES
    assert calls["f2.first_factorize_s"] > 0.5 * first["build_s"]


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        t0 = time.monotonic()
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name} ({time.monotonic() - t0:.1f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
