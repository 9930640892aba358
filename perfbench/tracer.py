"""Per-layer tracing from outside the library.

A layer is one ``isrlab`` module.  ``Tracer.install`` wraps the public
functions of each module (plus the public methods of ``AlgebraElement``
and ``SubalgebraSpec``) and rebinds every name that refers to them, in
every module: ``from .groups import multiply`` leaves a second binding
``isrlab.algebra.multiply`` that must be patched as well, and the
``zoo.SUITES`` registry holds the suite functions by value.

Each wrapped call keeps a call count and its inclusive time, and adds
its self time — its duration minus that of the wrapped calls it makes —
to its layer.  Calls of the coarse functions (the zoo suites and
builders, the CLI, the expectation checkers, the group BFS routines and
the character tests) also record a span (name, start, end, parent) in
memory.  Time outside every wrapped call belongs to the benchmark.

Helpers that run once per coordinate or per coefficient (the ``perm_*``
functions and ``as_gaussian``) are not wrapped; their time counts to
the layer that calls them.  Cached calls to ``mat_inverse`` go through
the ``lru_cache`` the group layer built at import, which the tracer
reads instead of wrapping.
"""

from __future__ import annotations

import functools
import inspect
import weakref
from time import perf_counter

import isrlab
from isrlab import algebra, characters, cli, expectation, f2, groups, projections, serialize, zoo

LAYERS = (f2, groups, algebra, projections, expectation, characters, serialize, zoo, cli)
CLASSES = {
    algebra: (algebra.AlgebraElement, ("__add__", "__sub__", "__neg__", "scale", "adjoint")),
    expectation: (expectation.SubalgebraSpec, ("project", "expect_unit", "contains")),
}
UNWRAPPED = {
    "groups.perm_canonical", "groups.perm_image", "groups.perm_mul",
    "groups.perm_inv", "groups.perm_apply_vec", "algebra.as_gaussian",
}
SPANNED_LAYERS = {"zoo", "cli"}
SPANNED = {
    "expectation.verify_closure", "expectation.verify_invariance",
    "expectation.check_E_properties", "expectation.check_ES_subset_S",
    "groups.orbit_under", "groups.subgroup_closure", "groups.normal_closure",
    "groups.enumerate_group", "groups.centralizer",
    "characters.is_positive_definite", "characters.is_central",
    "characters.match_expectation_character",
}
MAX_SPANS = 50_000


def _layer(module) -> str:
    return module.__name__.rpartition(".")[2]


class Tracer:
    def __init__(self):
        # stack[-1] accumulates the time of the wrapped calls the
        # innermost open call has made; stack[0] is the benchmark itself
        self.stack = [0.0]
        self.span_stack = [-1]
        self.spans: list[tuple] = []
        self.calls: dict[str, list] = {}  # key -> [calls, inclusive s, depth]
        self.layer_self: dict[str, list] = {}
        self.suites: dict[str, str] = {}
        self.extra = {
            "groups.cantor_multiply_calls": 0, "groups.bfs_elements": 0,
            "algebra.convolve_pairs": 0,
            "expectation.expect_unit_hits": 0, "expectation.first_project_s": 0.0,
            "expectation.gs_basis": 0, "expectation.gs_rank": 0,
            "f2.first_factorize_s": 0.0,
        }
        self._projected = weakref.WeakSet()
        self._factorized = False
        self._inverse_cache_start = None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for module in LAYERS:
            layer = _layer(module)
            for name, obj in vars(module).items():
                key = f"{layer}.{name}"
                if (name.startswith("_") or key in UNWRAPPED
                        or getattr(obj, "__module__", None) != module.__name__
                        or not (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper))
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(layer, key, obj))
            if module in CLASSES:
                cls, methods = CLASSES[module]
                for name in methods:
                    key = f"{layer}.{cls.__name__}.{name}"
                    setattr(cls, name, self._wrap(layer, key, getattr(cls, name)))
        self.suites = {name: f"zoo.{fn.__name__}" for name, fn in zoo.SUITES.items()}
        for module in [isrlab] + list(LAYERS):
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
        for name, fn in list(zoo.SUITES.items()):
            zoo.SUITES[name] = wrapped[id(fn)][1]
        self._inverse_cache_start = groups._mat_inverse_cached.cache_info()

    def _post(self, key):
        """The extra accounting some calls need, or None."""
        extra = self.extra
        if key == "groups.multiply":
            def post(args, result, t0, dt, child):
                if args[0].family == "cantor":
                    extra["groups.cantor_multiply_calls"] += 1
        elif key in ("groups.orbit_under", "groups.subgroup_closure"):
            def post(args, result, t0, dt, child):
                extra["groups.bfs_elements"] += len(result)
        elif key == "algebra.convolve":
            def post(args, result, t0, dt, child):
                extra["algebra.convolve_pairs"] += len(args[0].terms) * len(args[1].terms)
        elif key == "expectation.SubalgebraSpec.expect_unit":
            def post(args, result, t0, dt, child):
                # a memo hit makes no wrapped call
                extra["expectation.expect_unit_hits"] += child == 0.0
        elif key == "expectation.SubalgebraSpec.project":
            def post(args, result, t0, dt, child):
                spec = args[0]
                if spec in self._projected:
                    return
                self._projected.add(spec)
                extra["expectation.first_project_s"] += dt
                extra["expectation.gs_basis"] += len(spec.basis)
                orth = getattr(spec, "_orthogonal_basis", None)
                if orth is not None:
                    extra["expectation.gs_rank"] += len(orth())
                self._span("expectation.first_project", t0, t0 + dt)
        elif key == "f2.transvection_factorize":
            def post(args, result, t0, dt, child):
                if not self._factorized:
                    self._factorized = True
                    extra["f2.first_factorize_s"] = dt
                    self._span("f2.first_factorize", t0, t0 + dt)
        else:
            post = None
        return post

    def _span(self, name, start, end) -> None:
        """Record a span for a call that has already returned."""
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, start, end, self.span_stack[-1]))

    def _wrap(self, layer: str, key: str, fn):
        stack, span_stack, spans = self.stack, self.span_stack, self.spans
        rec = self.calls.setdefault(key, [0, 0.0, 0])
        lrec = self.layer_self.setdefault(layer, [0.0])
        post = self._post(key)
        spanned = layer in SPANNED_LAYERS or key in SPANNED
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if spanned:
                idx = len(spans) if len(spans) < MAX_SPANS else -1
                if idx >= 0:
                    spans.append(None)
                span_stack.append(idx)
            stack.append(0.0)
            rec[2] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                lrec[0] += dt - child
                rec[0] += 1
                rec[2] -= 1
                if not rec[2]:
                    rec[1] += dt
                if spanned:
                    span_stack.pop()
                    if idx >= 0:
                        spans[idx] = (key, t0, t0 + dt, span_stack[-1])
            if post is not None:
                post(args, result, t0, dt, child)
            return result

        return wrapper

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict:
        """Every count and time by name: ``<key>_calls`` and ``<key>_s``
        per wrapped function, ``<layer>.self_s`` per layer, and the
        layer-specific counters."""
        out = {}
        for key, (calls, incl, _) in self.calls.items():
            out[f"{key}_calls"] = calls
            out[f"{key}_s"] = incl
        for layer, (self_s,) in self.layer_self.items():
            out[f"{layer}.self_s"] = self_s
        for name, key in self.suites.items():
            out[f"zoo.{name}_s"] = out[f"{key}_s"]
        out.update(self.extra)
        ex = self.extra
        eu_calls = out["expectation.SubalgebraSpec.expect_unit_calls"]
        out["expectation.expect_unit_hit_ratio"] = (
            ex["expectation.expect_unit_hits"] / eu_calls if eu_calls else 0.0)
        out["expectation.gs_useful_ratio"] = (
            ex["expectation.gs_rank"] / ex["expectation.gs_basis"] if ex["expectation.gs_basis"] else 0.0)
        info, start = groups._mat_inverse_cached.cache_info(), self._inverse_cache_start
        hits, misses = info.hits - start.hits, info.misses - start.misses
        out["groups.mat_inverse_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        # inversions actually computed: direct calls plus cache misses
        out["f2.mat_inverse_calls"] += misses
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
            for s in self.spans if s is not None
        ]
