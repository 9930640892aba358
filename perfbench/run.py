"""The isrlab benchmark.  Run it from the repository root:

    python3 perfbench/run.py --workload {verify-all,project,factor-dim4} \\
        --seed N --seconds S --trace {0,1}

Every measurement runs in a fresh worker process (worker.py), so the
library's lazy caches start cold, as they do for every CLI call.  The
workers run one after another: one caller, closed loop, no threads.

``--trace 0`` starts workers until ``--seconds`` have passed (at least
three), plus a few set-up-only workers, and reports the end-to-end
metrics: medians over the workers, and latency percentiles over the
pooled operations.  ``--trace 1`` alternates untraced and traced workers
(at least one of each) and reports the per-layer metrics of the traced
ones and the tracing overhead.  Both check every output against an
exact oracle.

The second-to-last line of standard output is a JSON object of run
information (Python version, cores, commit, sample counts); the last is
the result: ``{"correct", "attempted", "failed", "metrics"}``.  The full
record, with the spans of a traced run, is written to
``.perfbench_out/`` under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-all", "project", "factor-dim4")
MIN_WORKERS = 3
SETUP_PROBES = 3
# the whole run must end within 180 s; workers get what is left of this
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # fixed string hashing, so set iteration order and every count repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, scratch: str, deadline: float, *flags: str) -> dict:
    """Run one worker process and return its record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scratch", scratch, *flags, "--t0"]
    env = _env()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    """Fingerprint of the library sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "isrlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def end_to_end(runs: list[dict], setups: list[float]) -> tuple[dict, dict]:
    latencies = [x for r in runs for x in r["latencies"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "build_s": statistics.median(r["build_s"] for r in runs),
        "query_p50_ms": 1e3 * statistics.median(latencies),
        "query_p99_ms": 1e3 * percentile(latencies, 0.99),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    info = {
        "setup_samples": len(setups),
        "query_samples": len(latencies),
        "query_samples_beyond_p99": sum(1 for x in latencies if 1e3 * x > values["query_p99_ms"]),
    }
    return values, info


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    values = {}
    for name, _, _, key in metrics.PER_LAYER:
        if name == "trace.overhead_ratio":
            values[name] = (statistics.median(r["wall_s"] for r in traced)
                            / statistics.median(r["wall_s"] for r in untraced) - 1)
        elif name == "cli.report_bytes":
            values[name] = statistics.median(r.get("report_bytes", 0) for r in traced)
        else:
            values[name] = statistics.median(r["layers"].get(key or name, 0) for r in traced)
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "isrlab", "__init__.py")):
        print("error: no isrlab sources under src/isrlab", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    end = start + args.seconds

    def worker(*flags):
        return spawn(args.workload, args.seed, scratch, deadline, *flags)

    try:
        if args.trace:
            untraced, traced = [], []
            while not traced or time.monotonic() < end:
                untraced.append(worker())
                traced.append(worker("--trace"))
            runs = untraced + traced
            values = per_layer(traced, untraced)
            info = {}
        else:
            runs = []
            while len(runs) < MIN_WORKERS or time.monotonic() < end:
                runs.append(worker())
            setups = [r["setup_s"] for r in runs]
            setups += [worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
            values, info = end_to_end(runs, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    shares = [r["expect_unit_repeat_share"] for r in runs if "expect_unit_repeat_share" in r]
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "workers": len(runs),
        "wall_s_each": [r["wall_s"] for r in runs],
        "fail_ratio": failed / attempted,
        "expect_unit_repeat_share": shares[0] if shares else None,
    })
    units = {m[0]: m[1] for m in metrics.END_TO_END + metrics.PER_LAYER}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {"info": info, "result": result,
              "spans": [r["spans"] for r in runs if "spans" in r]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(scratch, name), "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
