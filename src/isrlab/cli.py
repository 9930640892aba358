"""Command-line front end: run scenario suites, compute one-off
expectations, print tables.

Exit codes for ``run``: 0 all checks passed, 1 a check failed (the
report is still written), 2 unknown suite, bad input or unwritable output.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from .algebra import unit
from .characters import evaluate, parse_character
from .errors import IsrlabError
from .expectation import conditional_expectation, load_spec
from .groups import DEFAULT_CAP, _check_family, enumerate_group
from .serialize import (
    decode_group,
    encode_algebra,
    encode_coefficient,
    encode_rational,
)
from .zoo import SUITES, report_passed
from . import zoo


def _resolve_cap(args) -> int:
    """--cap, else ISRLAB_CAP, else DEFAULT_CAP; 0 is a cap like any
    other, and a negative cap is refused before any work."""
    if getattr(args, "cap", None) is not None:
        if args.cap < 0:
            raise IsrlabError(f"--cap must be a nonnegative integer, got {args.cap}")
        return args.cap
    env = os.environ.get("ISRLAB_CAP")
    if not env:
        return DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = -1  # refused below, with the text as given
    if cap < 0:
        raise IsrlabError(f"ISRLAB_CAP must be a nonnegative integer, got {env!r}")
    return cap


def _suite_kwargs(args) -> dict:
    """The options given to ``run``, and the cap; ``cmd_run`` passes each
    suite those its signature names."""
    kw = {k: getattr(args, k) for k in ("n", "m", "seed") if getattr(args, k) is not None}
    kw["cap"] = _resolve_cap(args)
    return kw


def _check_writable(path: str) -> None:
    """Refuse a report path that cannot be written, before any suite runs."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = "is a directory"
    elif not os.path.isdir(parent):
        problem = "its directory does not exist"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise IsrlabError(f"cannot write --out {path}: {problem}")


def _say(text: str) -> None:
    """Print one chunk of output.  A reader that closes the pipe early
    (``| head``) is no error: stdout then points at os.devnull, so the
    rest of the output and the interpreter's final flush go nowhere,
    and the command still returns its own status.  Any other failed
    write (a full disk) points stdout there too and is raised."""
    try:
        print(text)
    except BrokenPipeError:
        _drop_stdout()
    except OSError:
        _drop_stdout()
        raise


def _drop_stdout() -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def cmd_run(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            print(f"unknown suite: {name}", file=sys.stderr)
            return 2
    if args.out:
        _check_writable(args.out)
    kw = _suite_kwargs(args)
    takes = {name: inspect.signature(SUITES[name]).parameters for name in names}
    if args.suite != "all":
        stray = [f"--{k}" for k in kw if k != "cap" and k not in takes[args.suite]]
        if stray:
            raise IsrlabError(f"suite {args.suite} takes no {', '.join(stray)}")
    reports = [SUITES[name](**{k: v for k, v in kw.items() if k in takes[name]}) for name in names]
    doc = {"suite": args.suite, "reports": reports}
    # the report names a seed only when a suite of the run drew with one
    if any("seed" in takes[name] for name in names):
        doc["seed"] = kw.get("seed", zoo.DEFAULT_SEED)
    blob = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(blob + "\n")
    else:
        _say(blob)
    return 0 if all(report_passed(r) for r in reports) else 1


def _sign_marks(model) -> dict:
    """The sign parts of a builtin spec name: + for 1, - for −1."""
    return {mark: sign for mark, sign in (("+", 1), ("-", -1)) if sign in model.signs}


def _usage(model) -> str:
    marks = "|".join(_sign_marks(model))
    return f"{model.name}[:n[:{marks}]]" if len(model.signs) > 1 else f"{model.name}[:n]"


def _load_spec_arg(text: str, cap: int):
    """A spec file path, or a model of ``zoo.MODELS`` built under cap as
    its ``_usage`` reads, at its least size and first sign by default."""
    if os.path.exists(text):
        return load_spec(text)
    name, *rest = text.split(":")
    model = zoo.MODELS.get(name)
    if model is None:
        raise IsrlabError(f"no spec file or builtin named {text!r}")
    marks = _sign_marks(model)
    if len(rest) > 1 + (len(model.signs) > 1):
        raise IsrlabError(f"builtin spec {text!r} has too many parts; it reads {_usage(model)}")
    try:
        n = int(rest[0]) if rest else model.sizes[0]
    except ValueError:
        raise IsrlabError(f"builtin spec {text!r}: size {rest[0]!r} is not an integer") from None
    if rest[1:] and rest[1] not in marks:
        raise IsrlabError(f"builtin spec {text!r}: sign {rest[1]!r} is not {' or '.join(marks)}")
    return model.build(n, cap=cap, sign=marks[rest[1]] if rest[1:] else model.signs[0])


def _load_element_arg(text: str):
    if os.path.exists(text):
        with open(text) as fh:
            return decode_group(json.load(fh))
    return decode_group(json.loads(text))


def cmd_expect(args) -> int:
    try:
        spec = _load_spec_arg(args.spec, _resolve_cap(args))
        g = _load_element_arg(args.element)
        # outside the window the projection reads 0, a wrong E
        _check_family(next(iter(spec.window)), g)
        if g not in spec.window:
            raise IsrlabError(f"element lies outside the window of spec {spec.label}")
        rep = conditional_expectation(unit(g), spec)
    except (IsrlabError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = {
        "element": g.to_json(),
        "expectation": encode_algebra(rep.output),
        "residual_norm_sq": encode_rational(rep.residual_norm_sq),
        "character": encode_coefficient(rep.character_value),
    }
    _say(json.dumps(out, sort_keys=True, indent=2, ensure_ascii=False))
    return 0


def _print_tsv(rows) -> None:
    for row in rows:
        _say("\t".join(str(c) for c in row))


def cmd_tables(args) -> int:
    which = args.table
    cap = _resolve_cap(args)
    if which in ("characters", "all"):
        try:
            chi = parse_character(args.character)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        n = args.n if args.n is not None else 2
        pool = [g for g in enumerate_group(chi.family, n, cap) if chi.accepts(g)]
        _say(f"# character {chi.name()} on {chi.family} truncation {n}")
        _print_tsv(
            [("element", "value")]
            + [
                (json.dumps(g.to_json(), sort_keys=True), encode_rational(evaluate(chi, g)))
                for g in pool
            ]
        )
    if which in ("fpc", "all"):
        rep = zoo.fpc_growth_suite(cap=cap)
        _say("# fpc orbit growth")
        _print_tsv(
            [("case", "orbit sizes", "pass")]
            + [
                (c["description"], ",".join(str(s) for s in c["actual"]), c["pass"])
                for c in rep["checks"]
            ]
        )
    if which in ("closures", "all"):
        _say("# normal-closure sizes")
        for family, n in zoo.CLOSURE_TABLES:
            for label, size in zoo.closure_table(family, n, cap):
                _say(f"{family}:{n}\t{label}\t{size}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="isrlab")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario suite and write a JSON report")
    run.add_argument("--suite", default="all")
    run.add_argument("--n", type=int, default=None)
    run.add_argument("--m", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--cap", type=int, default=None)
    run.set_defaults(fn=cmd_run)

    exp = sub.add_parser("expect", help="project a group unitary onto a subalgebra spec")
    builtins = ", ".join(_usage(m) for m in zoo.MODELS.values())
    exp.add_argument("spec", help=f"spec JSON file, or builtin ({builtins})")
    exp.add_argument("element", help="group element as JSON (inline or a file path)")
    exp.set_defaults(fn=cmd_expect)

    tab = sub.add_parser("tables", help="print character/fpc/closure tables as TSV")
    tab.add_argument("--table", choices=["characters", "fpc", "closures", "all"], default="all")
    tab.add_argument("--character", default="affine:k=1,d=1")
    tab.add_argument("--n", type=int, default=None, help="characters table only (default 2)")
    tab.add_argument("--cap", type=int, default=None)
    tab.set_defaults(fn=cmd_tables)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
    except (IsrlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    except OSError as exc:
        # output that cannot be written (a full disk) is no failed check
        _drop_stdout()
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
