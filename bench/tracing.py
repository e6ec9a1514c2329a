"""Span tracer for the traced run.

Wrappers are attached from outside the package, at the names the callers look
up: module attributes (``distortion.run_curve``, ``jets.push_jet2``), names
imported into another module (``distortion.max_angle_of_tangents``,
``scenarios.estimate_seminorms``), ``NaturalCurve`` methods, and the callbacks
of the ``SmoothMap``s an engine receives.  Nothing under ``src/`` changes, and
every wrapper returns exactly what the wrapped call returns.

Boundary spans (engines, CLI stages, seminorm grids, max angle, ...) are kept
one by one: name, start, end, parent, case id and self time.  Per-point and
per-batch callbacks run up to ~10⁵ times a case, so they are kept as one
aggregate per (case, parent span, name): calls, rows, total and self time.
Self time is a span's duration minus the durations of its child spans.
"""

import dataclasses
import inspect
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

ENGINES = ("run_1d", "interval_ratio_1d", "run_curve", "run_curve_holder", "arc_ratio_curve")
PAIR_ENGINES = {"run_curve", "run_curve_holder", "arc_ratio_curve"}
POINT_CALLBACKS = ("func", "jacobian", "second")
BATCH_CALLBACKS = ("func_batch", "jacobian_batch")
#: spans whose union is the "slow fallback" time of the pointwise-maps prediction
FALLBACK = {"maps.point", "jets.push_jet2", "maps.estimate_seminorms"}


class Tracer:
    """Spans, per-name totals and counters of one traced run."""

    def __init__(self):
        self.case = None
        self.spans = []  # [id, name, start, end, parent, case, self]
        self.aggregates = defaultdict(lambda: [0, 0, 0.0, 0.0])  # calls, rows, total, self
        self.totals = defaultdict(lambda: [0, 0, 0.0, 0.0])
        self.counters = defaultdict(float)
        self._stack = []  # open frames: [child_time, owner span id]
        self._engine_depth = 0
        self._fallback_depth = 0
        self._wrapped_maps = {}

    # -- spans --------------------------------------------------------------

    def wrap(self, name, fn, keep=False, rows=False):
        """``fn`` timed as span ``name``; ``keep`` stores each call's span."""
        tracer = self
        fallback = name in FALLBACK

        def traced(*args, **kwargs):
            stack = tracer._stack
            owner = stack[-1][1] if stack else None
            span_id = len(tracer.spans) if keep else owner
            if keep:
                tracer.spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            if fallback:
                tracer._fallback_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                if fallback:
                    tracer._fallback_depth -= 1
                    if tracer._fallback_depth == 0:
                        tracer.counters["fallback_s"] += dur
                n_rows = len(args[0]) if rows and args else 0
                own = dur - frame[0]
                if keep:
                    tracer.spans[span_id] = [span_id, name, t0, t1, owner, tracer.case, own]
                else:
                    agg = tracer.aggregates[(tracer.case, owner, name)]
                    agg[0] += 1
                    agg[1] += n_rows
                    agg[2] += dur
                    agg[3] += own
                tot = tracer.totals[name]
                tot[0] += 1
                tot[1] += n_rows
                tot[2] += dur
                tot[3] += own

        traced.bench_traced = True
        return traced

    def count(self, name, value):
        self.counters[name] += value

    # -- maps ---------------------------------------------------------------

    def wrap_map(self, m):
        """A copy of ``m`` whose callbacks are traced (the same copy per map)."""
        if getattr(m.func, "bench_traced", False):
            return m
        key = id(m)
        if key not in self._wrapped_maps:
            names = {f.name for f in dataclasses.fields(m)}
            changes = {}
            for attr in POINT_CALLBACKS + BATCH_CALLBACKS:
                fn = getattr(m, attr, None) if attr in names else None
                if fn is not None:
                    batch = attr in BATCH_CALLBACKS
                    label = "maps.batch" if batch else "maps.point"
                    changes[attr] = self.wrap(label, fn, rows=batch)
            self._wrapped_maps[key] = (m, dataclasses.replace(m, **changes))
        return self._wrapped_maps[key][1]

    def wrap_sequence(self, seq):
        return dataclasses.replace(seq, maps=tuple(self.wrap_map(m) for m in seq))

    def new_case(self, case_id):
        self.case = case_id
        self._wrapped_maps.clear()

    # -- output -------------------------------------------------------------

    def dump(self, path, meta):
        aggregates = [[c, p, n, *v] for (c, p, n), v in self.aggregates.items()]
        doc = {
            "meta": meta,
            "span_fields": ["id", "name", "start", "end", "parent", "case", "self"],
            "spans": self.spans,
            "aggregate_fields": ["case", "parent", "name", "calls", "rows", "total", "self"],
            "aggregates": aggregates,
        }
        path.write_text(json.dumps(doc))


def _trace_nbytes(obj, seen=None):
    """Bytes of the numpy arrays reachable from a trace object."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_trace_nbytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_trace_nbytes(v, seen) for v in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_trace_nbytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    return 0


class Patches:
    """Installs the tracer's wrappers on the bdp modules; ``close`` undoes them."""

    def __init__(self, tracer, bdp):
        self.tracer = tracer
        self.saved = []
        t = tracer
        d, c, s, m, j, cli = bdp.distortion, bdp.curves, bdp.scenarios, bdp.maps, bdp.jets, bdp.cli
        for name in ENGINES:
            self._set(d, name, lambda fn, name=name: self._engine(name, fn))
        self._set(d, "lemma_step_checks", lambda fn: t.wrap("distortion.lemma_step_checks", fn, keep=True))
        for mod in (d, c):
            self._set(mod, "max_angle_of_tangents",
                      lambda fn: t.wrap("curves.max_angle_of_tangents", fn, keep=True, rows=True))
        for mod in (d, s, c):
            self._set(mod, "reparameterize_natural",
                      lambda fn: t.wrap("curves.reparameterize_natural", fn, keep=True))
        for attr in ("pos", "tan", "position", "tangent"):
            self._set(c.NaturalCurve, attr, lambda fn: t.wrap("curves.sample", fn))
        self._set(j, "push_jet2", lambda fn: t.wrap("jets.push_jet2", fn))
        self._set(j, "eval_map", lambda fn: t.wrap("jets.eval_map", fn))
        self._set(s, "build_sequence", lambda fn: t.wrap("scenarios.build_sequence", fn, keep=True))
        for mod in (s, m):
            self._set(mod, "estimate_seminorms", self._seminorms)
        self._set(cli, "main", lambda fn: t.wrap("cli.main", fn, keep=True))
        self._set(cli, "parse_config", lambda fn: t.wrap("cli.parse_config", fn, keep=True))
        self._set(cli, "run_experiment", lambda fn: t.wrap("cli.run_experiment", fn, keep=True))

    def _set(self, owner, attr, make):
        # a name a later version drops is skipped; its metrics then read 0
        if attr not in vars(owner):
            return
        original = vars(owner)[attr]
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def close(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    def _engine(self, name, fn):
        tracer = self.tracer
        timed = tracer.wrap(f"distortion.{name}", fn, keep=True)
        sig = inspect.signature(fn)

        def engine(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            seq = bound.arguments["seq"] = tracer.wrap_sequence(bound.arguments["seq"])
            outer = tracer._engine_depth == 0
            tracer._engine_depth += 1
            t0 = perf_counter()
            try:
                report = timed(*bound.args, **bound.kwargs)
            finally:
                tracer._engine_depth -= 1
            if outer:
                tracer.count("engine_s", perf_counter() - t0)
                tracer.count("steps", len(seq))
                if name in PAIR_ENGINES:
                    tracer.count("pair_evals", len(seq) * bound.arguments["samples"] ** 2)
                tracer.count("trace_bytes", _trace_nbytes(report.trace))
            return report

        return engine

    def _seminorms(self, fn):
        tracer = self.tracer
        timed = tracer.wrap("maps.estimate_seminorms", fn, keep=True)
        sig = inspect.signature(fn)

        def estimate(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["m"] = tracer.wrap_map(bound.arguments["m"])
            est = timed(*bound.args, **bound.kwargs)
            if est.provenance == "sampled":
                region = bound.arguments["region"]
                tracer.count("seminorm_points", bound.arguments["resolution"] ** region.dim)
            return est

        return estimate
