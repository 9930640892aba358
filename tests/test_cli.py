import contextlib
import functools
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from isrlab import zoo
from isrlab.characters import parse_character
from isrlab.cli import main
from isrlab.expectation import spec_to_dict
from isrlab.f2 import F2Vector
from isrlab.groups import Affine, Cantor, Lamplighter, enumerate_group
from isrlab.algebra import unit
from isrlab.expectation import SubalgebraSpec
from isrlab.serialize import decode_group

EXPECT_SHA256 = "5ae3c747bd09151c636515df5af8fc2105ae27784ad41593de81b82ab471d224"
SWAP_JSON = '{"family": "affine", "g": "0110", "n": 2, "v": "00"}'


class TestRun:
    def test_mexo_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["run", "--suite", "mexo", "--n", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["suite"] == "mexo"
        assert all(c["pass"] for r in doc["reports"] for c in r["checks"])

    def test_unknown_suite(self, capsys):
        assert main(["run", "--suite", "mystery"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["--suite", "characters", "--n", "5"], "suite characters takes no --n"),
            (["--suite", "mq", "--seed", "3"], "suite mq takes no --seed"),
            (["--suite", "cantor", "--n", "2", "--m", "3"], "suite cantor takes no --n, --m"),
            (["--suite", "lamplighter", "--n", "3"], "suite lamplighter takes no --n"),
        ],
    )
    def test_option_the_suite_does_not_take(self, capsys, monkeypatch, argv, err):
        # refused before the suite runs, not ignored
        @functools.wraps(zoo.SUITES[argv[1]])
        def never(*args, **kwargs):
            raise AssertionError("a suite ran with an option it does not take")

        monkeypatch.setitem(zoo.SUITES, argv[1], never)
        assert main(["run", *argv]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_cap_is_ignored_by_suites_without_one(self, capsys):
        # cantor and e12 take no cap: --cap still binds the suites that
        # name it and is not refused as an option these two do not take
        assert main(["run", "--suite", "e12", "--cap", "0"]) == 0
        assert main(["run", "--suite", "cantor", "--cap", "0"]) == 0
        capsys.readouterr()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(
                ["run", "--suite", "characters", "--seed", "7", "--out", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out(self, capsys):
        assert main(["run", "--suite", "cantor"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reports"][0]["name"] == "cantor-case3"

    @pytest.mark.parametrize(
        "argv,seed",
        [(["--suite", "mq"], None), (["--suite", "mexo"], 7),
         (["--suite", "properties", "--seed", "3"], 3)],
        ids=["mq", "mexo", "properties"],
    )
    def test_report_names_a_seed_only_when_a_suite_takes_one(self, capsys, argv, seed):
        assert main(["run", *argv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.get("seed", None) == seed
        assert ("seed" in doc) == (seed is not None)

    def test_cap_flag_propagates(self):
        # a tiny cap makes the closure BFS overflow, surfaced as exit 2
        assert main(["run", "--suite", "closures", "--cap", "10"]) == 2

    def test_cap_binds_the_normal_closure(self, capsys):
        # the affine n = 3 closure of swap(1,2) is the whole 1344-element group
        assert main(["run", "--suite", "closures", "--cap", "100"]) == 2
        assert capsys.readouterr().err == "error: normal closure exceeds cap 100\n"

    def test_cap_binds_fpc_orbits(self, capsys):
        # the fpc suite's conjugation orbits reach 3360 elements
        assert main(["run", "--suite", "fpc", "--cap", "10"]) == 2
        assert capsys.readouterr().err == "error: conjugation orbit exceeds cap 10\n"
        assert main(["tables", "--table", "fpc", "--cap", "10"]) == 2

    @pytest.mark.parametrize(
        "suite", ["mexo", "mq", "mpart", "lamplighter", "characters", "properties"]
    )
    def test_cap_binds_enumerations(self, capsys, suite):
        # each suite enumerates a truncation with more than 10 elements
        assert main(["run", "--suite", suite, "--cap", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "above cap 10" in err

    def test_cylinder_refuses_infeasible_pairs(self, capsys):
        # |GL(4,F2)| × 120 words = 2419200 pairs is refused up front, not run
        t0 = time.perf_counter()
        assert main(["run", "--suite", "cylinder", "--n", "4"]) == 2
        assert time.perf_counter() - t0 < 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2419200 pairs" in err
        # 168 × 39 words = 6552 pairs
        assert main(["run", "--suite", "cylinder", "--n", "3", "--cap", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "6552 pairs, above cap 1000" in err

    def test_fcalculus_refuses_infeasible_pairs(self, capsys):
        # |GL(4,F2)|² = 20160² pairs is refused up front, not run
        t0 = time.perf_counter()
        assert main(["run", "--suite", "fcalculus", "--n", "4"]) == 2
        assert time.perf_counter() - t0 < 2
        err = capsys.readouterr().err
        assert "406425600 pairs" in err and err.count("\n") == 1
        assert main(["run", "--suite", "fcalculus", "--n", "3", "--cap", "1000"]) == 2
        assert "28224 pairs" in capsys.readouterr().err

    def test_lamplighter_refuses_infeasible_modulus(self, capsys):
        # 3·4 spans × (8·2^8)² window products at m = 8, refused up front
        t0 = time.perf_counter()
        assert main(["run", "--suite", "lamplighter", "--m", "8"]) == 2
        assert time.perf_counter() - t0 < 1
        err = capsys.readouterr().err
        assert err == "error: lamplighter at m=8 checks 50331648 window products, above cap 1000000\n"
        # m = 5: 2·3 spans × 160² = 153600 products, under the cap
        assert main(["run", "--suite", "lamplighter", "--m", "5", "--cap", "153599"]) == 2
        assert "153600 window products, above cap 153599" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,text",
        [
            (["tables", "--table", "characters", "--n", "120"], "at least 2^14400 elements"),
            (["run", "--suite", "fcalculus", "--n", "90"], "at least 2^16020 pairs"),
            (
                ["tables", "--table", "characters", "--character", "cantor:k=1", "--n", "11"],
                "at least 2^4094 elements",
            ),
        ],
        ids=["characters-table", "fcalculus", "cantor-characters"],
    )
    def test_huge_counts_refused_by_size(self, capsys, argv, text):
        # each count has more than 4300 digits, too many to print
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert text in err

    def test_cantor_level_refused_before_its_order(self, capsys):
        # (2^30)! would run effectively forever; the floor refuses at once
        t0 = time.perf_counter()
        argv = ["tables", "--table", "characters", "--character", "cantor:k=1", "--n", "30"]
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1
        err = capsys.readouterr().err
        assert err.startswith("error: cantor truncation 30 has at least 2^") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--suite", "fcalculus", "--n", "-1"],
            ["run", "--suite", "cylinder", "--n", "-1"],
            ["tables", "--table", "characters", "--n", "-1"],
            # GL(1, F2) is trivial: no f-calculus or cylinder row could fail
            ["run", "--suite", "fcalculus", "--n", "1"],
            ["run", "--suite", "cylinder", "--n", "1"],
        ],
        ids=["fcalculus", "cylinder", "characters-table", "fcalculus-trivial", "cylinder-trivial"],
    )
    def test_truncation_out_of_range_refused(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_cap_env(self, monkeypatch):
        monkeypatch.setenv("ISRLAB_CAP", "10")
        assert main(["run", "--suite", "closures"]) == 2

    def test_cap_env_not_an_int(self, monkeypatch, capsys):
        monkeypatch.setenv("ISRLAB_CAP", "abc")
        assert main(["run", "--suite", "closures"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ISRLAB_CAP" in err

    @pytest.mark.parametrize("where", ["missing/r.json", "."])
    def test_out_unwritable(self, tmp_path, monkeypatch, capsys, where):
        # refused before any suite runs: a missing directory, or a directory
        def never(**_):
            raise AssertionError("a suite ran before the --out check")

        for name in zoo.SUITES:
            monkeypatch.setitem(zoo.SUITES, name, never)
        out = tmp_path / where
        assert main(["run", "--suite", "all", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --out") and err.count("\n") == 1


MALFORMED_ELEMENTS = {
    "list": "[1,2,3]",
    "string": '"affine"',
    "int-field": '{"family":"affine","g":5,"v":"0"}',
    "not-a-permutation": '{"family":"wreath","perm":[3,1],"v":"0"}',
    "singular-matrix": '{"family":"affine","g":"0000","v":"00"}',
    "bad-bit": '{"family":"wreath","perm":[2,1],"v":"02"}',
    "missing-field": '{"family":"lamplighter","m":3,"v":"001"}',
    "cantor-level": '{"family":"cantor","m":1000000000000,"perm":[1,2],"a":[]}',
    "unhashable-family": '{"family":["affine"],"g":"1","v":"0"}',
    "unknown-family": '{"family":"heisenberg","g":"1","v":"0"}',
    "lamp-at-m": '{"family":"lamplighter","m":3,"v":"0001","t":0}',
    "lamps-past-m": '{"family":"lamplighter","m":3,"v":"11111","t":0}',
}


def _set_first_re(d, value):
    d["basis"][0][0]["re"] = value
    return d


# each maps a well-formed spec dict to a malformed spec file's content
MALFORMED_SPECS = {
    "basis-not-a-list": lambda d: {**d, "basis": 5},
    "window-not-a-list": lambda d: {**d, "window": 5},
    "basis-entry-not-an-object": lambda d: {**d, "basis": [[5]]},
    "re-not-a-string": lambda d: _set_first_re(d, 5),
    "zero-denominator": lambda d: _set_first_re(d, "1/0"),
    "top-level-list": lambda d: [d],
}


class TestModuleEntry:
    def test_python_m_isrlab(self, tmp_path):
        # `python -m isrlab` runs the same command line as `isrlab`
        src = pathlib.Path(zoo.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = tmp_path / "report.json"
        argv = [sys.executable, "-m", "isrlab", "run", "--suite", "cantor", "--out", str(out)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["reports"][0]["name"] == "cantor-case3"
        argv = [sys.executable, "-m", "isrlab", "run", "--suite", "mystery"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and "unknown suite" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--suite", "all"],
            ["run", "--suite", "cantor"],
            ["tables", "--table", "characters", "--n", "3"],
        ],
        ids=["run", "run-small", "tables"],
    )
    def test_closed_pipe_exits_quietly(self, argv):
        # the reader is gone before the first write (`isrlab … | head -0`):
        # no traceback, and the command's own status.  A small output only
        # meets the closed pipe in the final flush, a large one in print
        # (stdout block-buffered, as it is by default on a pipe)
        src = pathlib.Path(zoo.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen([sys.executable, "-m", "isrlab", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--suite", "cantor", "--out", "/dev/full"],
            ["run", "--suite", "cantor"],
            ["tables", "--table", "closures"],
            ["tables", "--table", "characters", "--n", "3"],
        ],
        ids=["out", "stdout", "tables-small", "tables-large"],
    )
    def test_output_that_cannot_be_written_exits_2(self, argv):
        # a full disk is bad output, not a failed check: one error line and
        # status 2, whether the report goes to --out or stdout, and whether
        # stdout meets it in print (a large output) or in the final flush
        src = pathlib.Path(zoo.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "isrlab", *argv], env=env,
                                  stdout=subprocess.DEVNULL if "--out" in argv else full,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "No space left on device" in proc.stderr


class TestExpect:
    @pytest.mark.parametrize("text", MALFORMED_ELEMENTS.values(), ids=MALFORMED_ELEMENTS)
    def test_malformed_element(self, capsys, text):
        with pytest.raises(ValueError):
            decode_group(json.loads(text))
        assert main(["expect", "mq:2", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_builtin_mexo_swap(self, capsys):
        assert main(["expect", "mexo:2", SWAP_JSON]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["character"] == {"re": "1/2", "im": "0/1"}
        assert doc["residual_norm_sq"] == "1/2"
        assert len(doc["expectation"]) == 2

    def test_builtin_mq_swap(self, capsys):
        elem = '{"family": "wreath", "n": 2, "perm": [2, 1], "v": "00"}'
        assert main(["expect", "mq:2", elem]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["character"] == {"re": "1/4", "im": "0/1"}

    def test_element_outside_the_window(self, capsys):
        # u_(12)·u_{e3} lies in the mq:3 window but not in the mq:2 one,
        # where E would read as 0 against the closed form u_(12)·Q^{1,2}·u_{e3}
        elem = '{"family": "wreath", "perm": [2, 1, 3], "v": "001"}'
        assert main(["expect", "mq:2", elem]) == 2
        assert capsys.readouterr().err == (
            "error: element lies outside the window of spec mq:n=2,sign=+\n"
        )
        assert main(["expect", "mq:3", elem]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["character"] == {"re": "1/4", "im": "0/1"}

    def test_spec_file(self, tmp_path, capsys):
        basis = [unit(Affine.vector(F2Vector(b))) for b in range(4)]
        spec = SubalgebraSpec("vectors", basis, [b.support().pop() for b in basis])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_dict(spec)))
        elem = '{"family": "affine", "g": "1", "n": 1, "v": "1"}'
        assert main(["expect", str(path), elem]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["character"] == {"re": "1/1", "im": "0/1"}
        assert doc["residual_norm_sq"] == "0/1"

    def test_cantor_spec_and_element_files(self, tmp_path, capsys):
        # span{1 + f̃} on the level-1 Cantor truncation: E(f̃) = ½(1 + f̃),
        # two terms that encode_algebra orders by Cantor.sort_key
        one, f = Cantor.identity(), Cantor.indicator(1, {1})
        spec = SubalgebraSpec("f-span", [unit(one) + unit(f)], Cantor.elements(1))
        spec_path, elem_path = tmp_path / "spec.json", tmp_path / "elem.json"
        spec_path.write_text(json.dumps(spec_to_dict(spec)))
        elem_path.write_text(json.dumps(f.to_json()))
        assert main(["expect", str(spec_path), str(elem_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        half = {"re": "1/2", "im": "0/1"}
        assert doc["expectation"] == [{"g": one.to_json(), **half}, {"g": f.to_json(), **half}]
        assert doc["character"] == half
        assert doc["residual_norm_sq"] == "1/2"

    @pytest.mark.parametrize("name", MALFORMED_SPECS)
    def test_malformed_spec_file(self, tmp_path, capsys, name):
        basis = [unit(Affine.vector(F2Vector(b))) for b in range(2)]
        spec = SubalgebraSpec("vectors", basis, [b.support().pop() for b in basis])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(MALFORMED_SPECS[name](spec_to_dict(spec))))
        elem = '{"family":"affine","g":"1","v":"0","n":1}'
        assert main(["expect", str(path), elem]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_spec_path_that_cannot_be_read(self, tmp_path, capsys):
        # a directory passes the exists test of a spec path, then fails to open
        assert main(["expect", str(tmp_path), SWAP_JSON]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_mixed_window_spec_file(self, tmp_path, capsys):
        basis = [unit(Affine.vector(F2Vector(b))) for b in range(2)]
        spec = SubalgebraSpec("vectors", basis, [b.support().pop() for b in basis])
        d = spec_to_dict(spec)
        d["window"].append({"family": "lamplighter", "m": 5, "v": "10000", "t": 0})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(d))
        elem = '{"family":"affine","g":"1","v":"0","n":1}'
        assert main(["expect", str(path), elem]) == 2
        assert capsys.readouterr().err == (
            "error: window leaves the basis group: affine vs lamplighter\n"
        )

    def test_window_lamp_beyond_the_modulus(self, tmp_path, capsys):
        # a window entry with a lamp at position m is refused, not read as
        # the element without that lamp
        lamps = Lamplighter.elements(3)
        spec = SubalgebraSpec("lamps", [unit(g) for g in lamps[:8]], lamps)
        d = spec_to_dict(spec)
        d["window"][-1]["v"] += "1"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(d))
        elem = json.dumps(Lamplighter(3, 1, 0).to_json())
        assert main(["expect", str(path), elem]) == 2
        assert capsys.readouterr().err == "error: v lights a lamp at or beyond position m = 3\n"
        d["window"][-1]["v"] = d["window"][-1]["v"][:-1]
        path.write_text(json.dumps(d))
        assert main(["expect", str(path), elem]) == 0

    def test_bad_spec_name(self, capsys):
        assert main(["expect", "nope:2", SWAP_JSON]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name",
        ["mq:3:x", "mq:3:", "mq:3:0", "mq:2:+:1", "mpart:2:-", "mexo:2:-", "mexo:2:3:4", "mexo:x",
         "mexo:"],
    )
    def test_strict_builtin_spec_name(self, capsys, name):
        assert main(["expect", name, SWAP_JSON]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: builtin spec {name!r}") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["mq:2:+", "mq:2:-", "mq:2", "mq"])
    def test_builtin_mq_signs(self, capsys, name):
        elem = '{"family": "wreath", "n": 2, "perm": [2, 1], "v": "00"}'
        assert main(["expect", name, elem]) == 0
        doc = json.loads(capsys.readouterr().out)
        # E(u_swap) carries u_(swap, e1) with sign ± 1/4, from Q = ½(1 ± u_e1)
        (coeff,) = [t["re"] for t in doc["expectation"] if t["g"]["v"] == "10"]
        assert coeff == ("-1/4" if name.endswith("-") else "1/4")

    def test_builtin_spec_honours_cap_env(self, monkeypatch, capsys):
        # the 24-element affine truncation is above a cap of 10
        monkeypatch.setenv("ISRLAB_CAP", "10")
        elem = '{"family": "affine", "g": "0110", "n": 2, "v": "0"}'
        assert main(["expect", "mexo:2", elem]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "above cap 10" in err

    def test_bad_element(self, capsys):
        assert main(["expect", "mexo:2", "not-json"]) == 2

    def test_whole_windows_match_the_pin(self):
        # sha256 over the exit code and stdout of `expect` for every g of
        # four windows, in enumerate_group order, pinned from the report
        # that projected, subtracted and took the inner product in turn
        h = hashlib.sha256()
        for spec, family, n in (("mexo:2", "affine", 2), ("mq:3", "wreath", 3),
                                ("mq:3:-", "wreath", 3), ("mpart:3", "wreath", 3)):
            for g in enumerate_group(family, n):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = main(["expect", spec, json.dumps(g.to_json())])
                h.update(repr(rc).encode())
                h.update(out.getvalue().encode())
        assert h.hexdigest() == EXPECT_SHA256

    def test_lamplighter_modulus_mismatch(self, tmp_path, capsys):
        window = enumerate_group("lamplighter", 4)
        spec = SubalgebraSpec("lamps", [unit(g) for g in window], window)
        path = tmp_path / "lamp4.json"
        path.write_text(json.dumps(spec_to_dict(spec)))
        elem = '{"family": "lamplighter", "m": 5, "v": "10000", "t": 0}'
        assert main(["expect", str(path), elem]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "moduli" in err


MALFORMED_CHARACTERS = [
    "foo",
    "affine:k=1",
    "affine:k=x,d=1",
    "affine:k=-1,d=1",
    # a key the kind does not take
    "gl:m=1,zz=3",
    "affine:k=1,d=1,kk=2",
    "regular:x=1",
    # gl's m is range-checked as the spec's k field
    "gl:m=-1",
    # a parameter given twice
    "affine:k=1,d=1,d=0",
]


class TestTables:
    @pytest.mark.parametrize("name", MALFORMED_CHARACTERS)
    def test_malformed_character(self, capsys, name):
        with pytest.raises(ValueError):
            parse_character(name)
        assert main(["tables", "--table", "characters", "--character", name]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name,key", [("gl:m=1,zz=3", "zz"), ("regular:x=1", "x")])
    def test_unknown_character_key_is_named(self, name, key):
        with pytest.raises(ValueError, match=f"no parameter '{key}'"):
            parse_character(name)

    @pytest.mark.parametrize(
        "name,message",
        [
            ("gl:m=-1", "parameter m must be"),
            ("cantor:k=-1", "parameter k must be"),
            ("affine:k=1,d=1,d=0", "repeats parameter 'd'"),
        ],
    )
    def test_bad_character_parameter_is_named(self, name, message):
        with pytest.raises(ValueError, match=message):
            parse_character(name)

    @pytest.mark.parametrize(
        "argv,env",
        [
            (["--table", "characters", "--n", "3", "--cap", "10"], None),
            (["--table", "characters", "--n", "3"], "10"),
            (["--table", "closures", "--cap", "0"], None),
            (["--table", "fpc", "--cap", "0"], None),
        ],
        ids=["characters-flag", "characters-env", "closures-zero", "fpc-zero"],
    )
    def test_cap_binds(self, monkeypatch, capsys, argv, env):
        # --cap, else ISRLAB_CAP, bounds every table; 0 is a cap, not unset
        if env is not None:
            monkeypatch.setenv("ISRLAB_CAP", env)
        assert main(["tables"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_characters_row_count(self, capsys):
        assert main(["tables", "--table", "characters", "--n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # comment + header + 24 group elements
        assert len(lines) == 26

    def test_closures(self, capsys):
        assert main(["tables", "--table", "closures"]) == 0
        out = capsys.readouterr().out
        assert "1344" in out

    def test_fpc_monotone_columns(self, capsys):
        assert main(["tables", "--table", "fpc"]) == 0
        rows = [
            line.split("\t")
            for line in capsys.readouterr().out.strip().splitlines()[2:]
        ]
        assert rows
        for desc, sizes, ok in rows:
            assert ok == "True"
            vals = [int(s) for s in sizes.split(",")]
            if "non-member" in desc:
                assert all(a < b for a, b in zip(vals, vals[1:]))


class TestNegativeCap:
    """A negative cap is refused before any work, naming its source."""

    @pytest.mark.parametrize("argv", [
        ["run", "--suite", "all", "--cap", "-1"],
        ["run", "--suite", "fpc", "--cap", "-7"],
        ["tables", "--table", "fpc", "--cap", "-1"],
        ["tables", "--table", "characters", "--cap", "-1"],
    ])
    def test_flag(self, capsys, monkeypatch, argv):
        def never(**_):
            raise AssertionError("a suite ran before the cap check")

        for name in zoo.SUITES:
            monkeypatch.setitem(zoo.SUITES, name, never)
        monkeypatch.setattr(zoo, "fpc_growth_suite", never)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: --cap must be a nonnegative integer, got {argv[-1]}\n"

    @pytest.mark.parametrize("argv", [
        ["run", "--suite", "closures"],
        ["tables", "--table", "fpc"],
        ["expect", "mexo:2", '{"family": "affine", "n": 1, "g": "1", "v": "0"}'],
    ])
    def test_env(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("ISRLAB_CAP", "-3")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: ISRLAB_CAP must be a nonnegative integer, got '-3'\n"

    def test_zero_stays_a_cap(self, capsys):
        assert main(["run", "--suite", "closures", "--cap", "0"]) == 2
        assert capsys.readouterr().err == "error: normal closure exceeds cap 0\n"
