"""One workload in one fresh process; run.py starts it.

    python3 perfbench/worker.py --workload W --seed N --t0 T --scratch DIR
                                [--setup-only] [--trace]

``--t0`` is the CLOCK_MONOTONIC reading taken just before the process
was started, so ``setup_s`` covers interpreter start, the library
import and building the seeded inputs.  The worker prints one JSON
object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--scratch", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    make_inputs, run, check = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, args.scratch)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = run(inputs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = check(inputs, out)
    record = {
        "setup_s": setup_s,
        "wall_s": out["wall_s"],
        "build_s": out["build_s"],
        "latencies": out["latencies"],
        "peak_rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
    }
    if "expect_unit_repeat_share" in inputs:
        record["expect_unit_repeat_share"] = inputs["expect_unit_repeat_share"]
    if "report" in out:
        record["report_bytes"] = len(out["report"])
        record["report_sha256"] = hashlib.sha256(out["report"]).hexdigest()
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["spans"] = tracer.span_records()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
