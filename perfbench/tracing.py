"""In-memory span tracing of the pufsec modules, and the per-layer metrics
computed from the spans.

`Tracer.install` replaces each public function of a pufsec module with a
recording wrapper, in every pufsec module namespace that bound the function
at import (``per_w_channels`` is bound in ``channel``, ``bounds``,
``optimize`` and the package itself, for example).  A span is
``[name, start, end, parent, op, probe]``; ``parent`` is the index of the
enclosing span and ``op`` the harness operation it belongs to.  Nothing
inside ``src/`` is changed: the wrappers live only while the tracer is
installed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
import types

MODULES = ("stats", "quantizer", "channel", "info", "bounds", "optimize",
           "sim", "tables")
HARNESS_OP = "harness.op"
CLI_MAIN = "cli.main"


def _summary_probe(fn, args, kwargs, result):
    a = inspect.signature(fn).bind(*args, **kwargs)
    a.apply_defaults()
    q, model, nodes = a.arguments["q"], a.arguments["model"], a.arguments["nodes"]
    model = model or q.model
    key = (q.borders.tobytes(), model.sigma_p, model.sigma_n, nodes)
    return {"key": hash(key),
            "delta": result.metadata.get("refinement_delta", 0.0),
            "warning": bool(result.metadata.get("quadrature_warning"))}


# Per-function counters, read from (function, args, kwargs, result).
PROBES = {
    "quantizer.sibling_points": lambda f, a, k, r: {"points": int(r.size)},
    "channel.per_w_channels": lambda f, a, k, r: {
        "nodes": int(r.shape[0]), "entries": int(r.size)},
    "bounds.summarize_channel": _summary_probe,
    "optimize.optimize_quantizer": lambda f, a, k, r: {
        "evaluations": int(r.evaluations),
        "budget_exhausted": bool(r.budget_exhausted)},
    "sim.run_simulation": lambda f, a, k, r: {"samples": a[0].samples},
    "sim.leakage_test": lambda f, a, k, r: {"samples": a[0].samples},
    "sim.attacker_observations": lambda f, a, k, r: {"samples": a[0].samples},
    "tables.generate_table": lambda f, a, k, r: {"rows": len(r["rows"])},
}


class Tracer:
    """Records spans in memory; `install`/`uninstall` patch the modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self.stream_passes = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self.op, None]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[1] = time.perf_counter()
        return rec

    def _exit(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name` (used for harness-level
        spans such as one op or one in-process CLI invocation)."""
        rec = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(rec)

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(rec)
            if probe is not None:
                rec[5] = probe(fn, args, kwargs, result)
            return result
        return wrapper

    def _count_stream(self, fn):
        # sim draws its Philox stream in chunks; a chunk at counter 0 starts
        # one pass over the stream.  Counted only, no span.
        tracer = self

        @functools.wraps(fn)
        def wrapper(seed, start, size):
            if start == 0:
                tracer.stream_passes += 1
            return fn(seed, start, size)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        import pufsec
        mods = {m: importlib.import_module(f"pufsec.{m}") for m in MODULES}
        namespaces = [pufsec, importlib.import_module("pufsec.cli"),
                      *mods.values()]
        replace = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_")
                        and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    replace[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        uniforms = getattr(mods["sim"], "_uniforms", None)
        if uniforms is not None:
            replace[id(uniforms)] = self._count_stream(uniforms)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replace:
                    setattr(ns, attr, replace[id(obj)])
                    self._patches.append((ns, attr, obj))

    def uninstall(self):
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span]) + "\n")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans (union of the children, clipped to it)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (name, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, stream_passes: int, rule_misses: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    probes: dict[str, list] = {}
    for (name, start, end, parent, _, probe), st in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
        incl[name] = incl.get(name, 0.0) + (end - start)
        if probe is not None:
            probes.setdefault(name, []).append(probe)

    def total(name, key):
        return sum(p[key] for p in probes.get(name, ()))

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m: dict[str, tuple] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def fn_metrics(name, *, with_calls=True):
        if with_calls:
            put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.self_s", self_s.get(name, 0.0), "s")

    put("stats.unit_interval_rule.misses", rule_misses, "count")
    fn_metrics("stats.q_inverse")

    fn_metrics("quantizer.sibling_points")
    put("quantizer.sibling_points.points",
        total("quantizer.sibling_points", "points"), "count")
    fn_metrics("quantizer.output_quantizer")

    pw = "channel.per_w_channels"
    fn_metrics(pw)
    nodes = total(pw, "nodes")
    entries = total(pw, "entries")
    put(f"{pw}.nodes", nodes, "count")
    put(f"{pw}.entries", entries, "count")
    put(f"{pw}.bytes_computed", 8 * entries, "B")
    put(f"{pw}.ns_per_entry",
        1e9 * self_s.get(pw, 0.0) / entries if entries else 0.0, "ns")
    fallback = sum(1 for name, _, _, parent, *_ in spans
                   if name == "quantizer.output_quantizer"
                   and parent is not None and spans[parent][0] == pw)
    put("channel.merge_node_frac", fallback / nodes if nodes else 0.0, "ratio")
    fn_metrics("channel.averaged_channel")

    sc = "bounds.summarize_channel"
    fn_metrics(sc)
    put(f"{sc}.distinct", len({p["key"] for p in probes.get(sc, ())}), "count")
    fn_metrics("bounds.min_cells")
    put("bounds.refinement_delta_max",
        max((p["delta"] for p in probes.get(sc, ())), default=0.0), "prob")
    put("bounds.quadrature_warnings", total(sc, "warning"), "count")

    oq = "optimize.optimize_quantizer"
    fn_metrics(oq)
    evals = total(oq, "evaluations")
    put(f"{oq}.evaluations", evals, "count")
    put(f"{oq}.budget_exhausted", total(oq, "budget_exhausted"), "count")
    put("optimize.evals_per_s", per_s(evals, incl.get(oq, 0.0)), "1/s")
    fn_metrics("optimize.best_equidistant_step")

    for fn in ("run_simulation", "leakage_test", "attacker_observations"):
        name = f"sim.{fn}"
        fn_metrics(name, with_calls=False)
        put(f"{name}.samples_per_s",
            per_s(total(name, "samples"), incl.get(name, 0.0)), "1/s")
    put("sim.passes", stream_passes, "count")

    fn_metrics("tables.generate_table", with_calls=False)
    put("tables.generate_table.rows", total("tables.generate_table", "rows"),
        "count")
    fn_metrics(CLI_MAIN)

    # Layer totals: each span's self time belongs to one layer, so these and
    # cli.main.self_s sum to the total duration of the harness ops.
    layers = {}
    for name, st in self_s.items():
        layer = "harness" if name == HARNESS_OP else name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + st
    for layer in (*MODULES, "harness"):
        put(f"{layer}.self_s", layers.get(layer, 0.0), "s")
    return m
