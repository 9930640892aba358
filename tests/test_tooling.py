"""The repository's scripts: the demos run, the two pins of the seed-7
report hash agree, and the benchmark builds only models of the table."""

import inspect
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PIN = re.compile(r'^SEED7_REPORT_SHA256 = "([0-9a-f]{64})"$', re.MULTILINE)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_seed7_pins_agree():
    # the benchmark's verify-all check pins the same report hash
    pins = [
        PIN.findall((ROOT / path).read_text())
        for path in ("tests/test_acceptance.py", "perfbench/workloads.py")
    ]
    assert len(pins[0]) == 1
    assert pins[0] == pins[1]


def test_project_specs_build_table_models():
    # the benchmark's project workload keeps its own list of builder
    # calls; each names a model of zoo.MODELS at one of its sizes and signs
    from isrlab import zoo

    text = (ROOT / "perfbench" / "workloads.py").read_text()
    block = text.split("\nPROJECT_SPECS = (\n", 1)[1].split("\n)\n", 1)[0]
    calls = re.findall(r"zoo\.build_(\w+)\(([^)]*)\)", block)
    assert len(calls) == block.count("\n") + 1 == 4
    for name, args in calls:
        model = zoo.MODELS[name]
        builder = getattr(zoo, f"build_{name}")
        call = inspect.signature(builder).bind(*(int(a) for a in args.split(",")))
        assert call.arguments["n"] in model.sizes
        assert call.arguments.get("sign", model.signs[0]) in model.signs


def test_factorize_fills_no_cache():
    # factor-dim4's peak_rss_mb stays flat only while factoring leaves
    # the inverse and range caches as they were; its one table, the
    # interned factors, is bounded by the 105 transvections of GL(4, F2),
    # and sharing them is what lowers peak_rss_mb
    from isrlab import f2
    from isrlab.f2 import (F2Matrix, _mat_inverse_cached, _range_basis, _rank_of_rows,
                           transvection_factorize)

    rng = random.Random(5)
    sample = []
    while len(sample) < 1000:
        g = F2Matrix([rng.randrange(16) for _ in range(4)])
        if not g.is_identity() and _rank_of_rows(g.rows) == g.n:
            sample.append(g)
    before = _mat_inverse_cached.cache_info(), _range_basis.cache_info()
    interned = len(f2._transvections)
    factors = [f for g in sample for f in transvection_factorize(g)]
    assert (_mat_inverse_cached.cache_info(), _range_basis.cache_info()) == before
    assert len({id(f) for f in factors}) <= 105
    assert len(f2._transvections) - interned <= 105


def test_span_index_shares_its_tuples():
    # the span index is built from shared tuples, one per row and
    # coefficient pair; one tuple per id gave the mexo:4 first projection
    # about 1,390 gen-0 collections against about 210.  A count, not a timing
    from isrlab import zoo

    index = zoo.build_mexo(3)._orthogonal_basis().index
    assert (len({id(t) for t in index.values()}), len(index)) == (336, 1344)
    index = zoo.build_mpart(4)._orthogonal_basis().index
    assert len({id(t) for t in index.values()}) < len(index)


def test_library_tour_names_live_code():
    # every identifier the README's library tour names in backticks, as
    # `name` or `name(…)`, read by its last dotted part, still occurs in
    # the library source, so a rename cannot leave the tour stale
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    source = "\n".join(p.read_text() for p in sorted((ROOT / "src" / "isrlab").glob("*.py")))
    names = set()
    for span in re.findall(r"`([^`\n]+)`", tour):
        m = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span)
        if m:
            names.add(m.group(1).rpartition(".")[2])
    assert len(names) > 50
    assert sorted(w for w in names if not re.search(rf"\b{re.escape(w)}\b", source)) == []
