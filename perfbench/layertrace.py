"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions and methods of horokit's
modules with wrappers that record a span (name, start, end, parent, job)
around each call, plus counts of the work done.  A function is replaced in
every horokit module that bound it (say `cayley_ball` in `boundary`, or
`limit_restrictions` in `cli`).  Hot distance oracles are counted, not
timed.  Spans stay in memory; `self_times()` turns them into self times, a
span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

import horokit.boundary
import horokit.cli
import horokit.dynamics
import horokit.extension
import horokit.functionals
import horokit.groups
import horokit.metric
import horokit.serialize
import horokit.spaces

LAYERS = ("cli", "serialize", "groups", "boundary", "functionals", "extension",
          "metric", "spaces", "dynamics")


def _count_ball(c, args, out):
    c["groups.cayley_ball.elements"] += len(out.elements)


def _count_sphere(c, args, out):
    ball, r, R = args[:3]
    rows = ball.sphere_offsets[R + 1] - ball.sphere_offsets[R]
    c["boundary.sphere_rows"] += rows
    c["boundary.values"] += rows * ball.sphere_offsets[r + 1]
    c["boundary.patterns"] += len(out)


def _count_check(c, args, out):
    n = len(args[0].points)
    c["functionals.ball_check.calls"] += 1
    c["functionals.ball_check.pairs"] += n * (n - 1) // 2


def _count_emit(c, args, out):
    c["serialize.report_bytes"] += len(out)  # emit_json escapes to ASCII


def _count_space_init(c, args, out):
    c["metric.finite_space_init.triples"] += len(args[1]) ** 3


def _count_validate(c, args, out):
    c["metric.validate_metric.triples"] += out.triples_checked


def _count_partial(c, args, out):
    n = len(args[2])
    c["extension.partial_init.pairs"] += n * (n - 1) // 2


def _one(key):
    def count(c, args, out):
        c[key] += 1
    return count


def _witnesses(key):
    """Witnesses consumed by a fresh (uncached) limit evaluation."""
    def count(c, args, out, before):
        if len(args[0]._cache) > before:
            c[key] += out.used
    return count


def _cache_size(args):
    return len(args[0]._cache)


# (span name, owner, attribute, counter, pre-call probe for the counter)
SPANS = (
    ("cli.main", horokit.cli, "main", None, None),
    ("serialize.emit_json", horokit.serialize, "emit_json", _count_emit, None),
    ("groups.cayley_ball", horokit.groups, "cayley_ball", _count_ball, None),
    ("groups.word_length", horokit.groups, "word_length", _one("groups.word_length.queries"), None),
    ("boundary.sphere_restrictions", horokit.boundary, "sphere_restrictions", _count_sphere, None),
    ("boundary.limit_restrictions", horokit.boundary, "limit_restrictions", None, None),
    ("functionals.ball_check", horokit.functionals.BallFunctional, "check", _count_check, None),
    ("functionals.realized", horokit.functionals.RealizedFunctional, "evaluate",
     _witnesses("functionals.realized.witnesses"), _cache_size),
    ("metric.finite_space_init", horokit.metric.FiniteMetricSpace, "__init__", _count_space_init, None),
    ("metric.validate_metric", horokit.metric, "validate_metric", _count_validate, None),
    ("extension.partial_init", horokit.extension.PartialFunctional, "__init__", _count_partial, None),
    ("extension.mcshane_eval", horokit.extension.McShaneExtension, "evaluate",
     _one("extension.mcshane_eval.calls"), None),
    ("extension.pigeonhole_eval", horokit.extension.PigeonholeLimit, "evaluate",
     _witnesses("extension.pigeonhole_eval.witnesses"), _cache_size),
    ("dynamics.translation_number", horokit.dynamics, "translation_number", None, None),
    ("dynamics.orbit_space", horokit.dynamics.OrbitSpace, "from_selfmap", None, None),
    ("dynamics.parabolic_orbit_functional", horokit.dynamics, "parabolic_orbit_functional", None, None),
    ("dynamics.tracial_check", horokit.dynamics, "tracial_check", None, None),
)

COUNTS = (
    "groups.cayley_ball.elements", "boundary.sphere_rows", "boundary.values", "boundary.patterns",
    "functionals.ball_check.calls", "functionals.ball_check.pairs", "groups.word_length.queries",
    "groups.distance.calls", "metric.finite_space_init.triples", "metric.validate_metric.triples",
    "extension.partial_init.pairs", "extension.mcshane_eval.calls",
    "extension.pigeonhole_eval.witnesses", "functionals.realized.witnesses", "spaces.distance.calls",
)

# Hot distance oracles: counted only.
COUNTERS = (
    ("groups.distance.calls", horokit.groups.CayleyGraphSpace, "distance"),
    *(("spaces.distance.calls", cls, "distance") for cls in (
        horokit.spaces.SpokeRaySpace, horokit.spaces.StarTreeSpace,
        horokit.spaces.UpperHalfPlane, horokit.spaces.PoincareDisk,
        horokit.spaces.LpSpace, horokit.spaces.DistortedLine)),
)


class Tracer:
    def __init__(self):
        # span: [name, parent index, job, start, end]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.job = -1
        self._undo: list[tuple] = []

    def _error(self, layer: str, depth: int) -> None:
        """Count an exception once per layer boundary it crosses; `depth` is
        the position on the span stack of the caller's span."""
        outer = self.spans[self.stack[depth]][0] if len(self.stack) >= -depth else "driver"
        if outer.split(".")[0] != layer:
            self.errors[layer] += 1

    def _span(self, name, fn, count, before):
        spans, stack, counts = self.spans, self.stack, self.counts
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.job, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                pre = before(args) if before else None
                out = fn(*args, **kwargs)
                if count is not None:
                    if before:
                        count(counts, args, out, pre)
                    else:
                        count(counts, args, out)
                return out
            except Exception:
                self._error(layer, -2)
                raise
            finally:
                rec[4] = perf_counter()
                stack.pop()

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts
        layer = key.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                self._error(layer, -1)
                raise

        return wrapper

    def _replace(self, owner, attr, make) -> None:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        orig = getattr(owner, attr)
        new = make(orig)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "horokit":
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, name, orig))
                    setattr(mod, name, new)

    def install(self) -> None:
        for name, owner, attr, count, before in SPANS:
            self._replace(owner, attr, lambda fn, n=name, c=count, b=before: self._span(n, fn, c, b))
        for key, owner, attr in COUNTERS:
            self._replace(owner, attr, lambda fn, k=key: self._counter(k, fn))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def self_times(self) -> tuple[dict, dict]:
        """Self time per span name, in total and per job."""
        child = [0.0] * len(self.spans)
        for name, parent, job, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        per_job: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, parent, job, start, end), covered in zip(self.spans, child):
            own = end - start - covered
            total[name] += own
            per_job[job][name] += own
        return total, per_job

    def layer_metrics(self, self_s: dict, job_s: float) -> dict[str, dict]:
        """Self-time shares of the traced job time, counts and per-layer
        exception counts as metrics.  A layer the traced jobs never called
        reads 0; shares rather than seconds, so that such a layer does not
        report a time that reads 0 on every run."""
        c = self.counts
        out = {f"{name}.self_share": (self_s.get(name, 0.0) / job_s, "1") for name, *_ in SPANS}
        out.update({key: (c.get(key, 0), "count") for key in COUNTS})
        rows = c.get("boundary.sphere_rows", 0)
        out["boundary.dedup_ratio"] = (c.get("boundary.patterns", 0) / rows if rows else 0.0, "1")
        out["serialize.report_bytes"] = (c.get("serialize.report_bytes", 0), "bytes")
        out.update({f"{layer}.errors": (self.errors.get(layer, 0), "count") for layer in LAYERS})
        return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, parent, job, start, end in self.spans:
                fh.write(json.dumps([name, parent, job, round(start, 9), round(end, 9)]) + "\n")
