"""Spans around the program's public functions, for the traced run.

The tracer rebinds each traced function in every tdbcsim module that holds
it, since the modules import these names directly (E1, for one, is looked up
in endnode_policy, relay_policy and scenario_cli).  `FadingSampler.
sample_block` is rebound on its class.  The program's source is untouched.

Each call records one span: name, start, end (perf_counter_ns), the span
that was open when it began, and a unit count.  Spans live in flat arrays
and are written as JSON columns when the run ends.  A function passed to `solve_monotone` is wrapped
too, so its evaluations are counted and their own time is charged to the
layer that defined the function rather than to the solver.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

import numpy as np

#: (layer, function) of each traced public function; the layer is the
#: tdbcsim module that defines it.
TRACED_FUNCTIONS = (
    ("specfun", "exp_integral_e1"),
    ("specfun", "solve_monotone"),
    ("endnode_policy", "solve_cutoff"),
    ("relay_policy", "policies_from_config"),
    ("relay_policy", "solve_rho"),
    ("relay_policy", "avg_relay_power"),
    ("outage_analytics", "outage_opa"),
    ("outage_analytics", "outage_fpa"),
    ("mc_engine", "run_opa"),
    ("mc_engine", "run_fpa"),
    ("scenario_cli", "main"),
    ("scenario_cli", "write_csv"),
)
LAYERS = ("specfun", "endnode_policy", "relay_policy", "outage_analytics",
          "system_model", "mc_engine", "scenario_cli")
ROOT = "bench.op"


class Tracer:
    """Span recorder.  `install` rebinds the traced functions, `uninstall`
    restores them; spans accumulate across installs."""

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.units = array("q")   # states drawn, trials run, evaluations, op index
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def full(self) -> bool:
        return len(self.start) >= self.max_spans

    def wrap(self, name: str, fn, units=None):
        """`fn` recording a span named `name`; `units(args, result)` gives the
        span's unit count."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.units.append(0)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if units is not None:
                self.units[idx] = units(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__traced__ = True
        return traced

    def operation(self, run):
        """`run(i)` recording the root span of operation i."""
        return self.wrap(ROOT, run, units=lambda a, r: a[0])

    def _solver(self, solve):
        def counted_solve(f, *args, **kwargs):
            evals = [0]
            if getattr(f, "__traced__", False):
                inner = f
            else:
                layer = f.__module__.rsplit(".", 1)[-1]
                inner = self.wrap(f"{layer}.eval", f)

            def g(x):
                evals[0] += 1
                return inner(x)

            traced = self.wrap("specfun.solve_monotone", solve,
                               units=lambda a, r: evals[0])
            return traced(g, *args, **kwargs)
        return counted_solve

    def install(self) -> None:
        from tdbcsim import system_model
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "tdbcsim" or n.startswith("tdbcsim."))]
        for layer, fname in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"tdbcsim.{layer}"], fname)
            if fname == "solve_monotone":
                wrapper = self._solver(original)
            elif fname.startswith("run_"):
                wrapper = self.wrap(f"{layer}.{fname}", original,
                                    units=lambda a, r: r.trials)
            else:
                wrapper = self.wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        cls = system_model.FadingSampler
        original = cls.sample_block
        self._patches.append((cls, "sample_block", original))
        cls.sample_block = self.wrap("system_model.sample_block", original,
                                     units=lambda a, r: r[0].size)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        """Write the spans as JSON columns, one column at a time."""
        columns = (("name", self.name), ("start_ns", self.start), ("end_ns", self.end),
                   ("parent", self.parent), ("units", self.units))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": ' + json.dumps(self.names))
            for key, column in columns:
                fh.write(f', "{key}": ' + json.dumps(column.tolist()))
            fh.write("}\n")


def layer_metrics(tracer: Tracer, completed_ops: set[int], untraced: tuple[int, float],
                  overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced operations that completed.

    `untraced` is (operations, seconds) of the untraced rounds of the same
    run, which give the throughput.  Counts and self times are per
    operation; `_us` and `_ns` metrics are per call or per unit.
    """
    name = np.frombuffer(tracer.name, dtype=np.int32)
    start = np.frombuffer(tracer.start, dtype=np.int64)
    end = np.frombuffer(tracer.end, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    units = np.frombuffer(tracer.units, dtype=np.int64)
    n = len(name)
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - child

    root_id = tracer.names.index(ROOT)
    root = np.empty(n, dtype=np.int64)
    for i in range(n):                       # parents precede children
        p = parent[i]
        root[i] = i if p < 0 else root[p]
    is_root = name == root_id
    kept_roots = is_root & np.isin(units, sorted(completed_ops))
    keep = kept_roots[root]
    ops = max(int(kept_roots.sum()), 1)
    op_ns = float(dur[kept_roots].sum())

    layer_of = np.array([nm.split(".")[0] for nm in tracer.names])
    span_layer = layer_of[name]

    def select(span_name):
        if span_name not in tracer.names:
            return np.zeros(n, dtype=bool)
        return keep & (name == tracer.names.index(span_name))

    def calls(span_name):
        return float(select(span_name).sum()) / ops

    def per_call_us(span_name):
        mask = select(span_name)
        return float(dur[mask].mean()) / 1e3 if mask.any() else 0.0

    def self_ms(layer):
        return float(self_ns[keep & (span_layer == layer)].sum()) / ops / 1e6

    e1 = select("specfun.exp_integral_e1")
    solves = select("specfun.solve_monotone")
    samples = select("system_model.sample_block")
    runs = select("mc_engine.run_opa") | select("mc_engine.run_fpa")
    states = float(units[samples].sum())
    trials = float(units[runs].sum())
    mc_self = float(self_ns[keep & (span_layer == "mc_engine")].sum())
    layer_self = sum(float(self_ns[keep & (span_layer == layer)].sum()) for layer in LAYERS)
    untraced_ops, untraced_s = untraced

    return {
        "specfun.e1_calls": (float(e1.sum()) / ops, "count"),
        "specfun.e1_ns": (float(dur[e1].mean()) if e1.any() else 0.0, "ns"),
        "specfun.solve_calls": (float(solves.sum()) / ops, "count"),
        "specfun.solve_evals": (float(units[solves].mean()) if solves.any() else 0.0, "count"),
        "specfun.self_ms": (self_ms("specfun"), "ms"),
        "endnode_policy.solve_cutoff_calls": (calls("endnode_policy.solve_cutoff"), "count"),
        "endnode_policy.solve_cutoff_us": (per_call_us("endnode_policy.solve_cutoff"), "us"),
        "endnode_policy.self_ms": (self_ms("endnode_policy"), "ms"),
        "relay_policy.policies_calls": (calls("relay_policy.policies_from_config"), "count"),
        "relay_policy.policies_us": (per_call_us("relay_policy.policies_from_config"), "us"),
        "relay_policy.solve_rho_calls": (calls("relay_policy.solve_rho"), "count"),
        "relay_policy.solve_rho_us": (per_call_us("relay_policy.solve_rho"), "us"),
        "relay_policy.avg_relay_power_us": (per_call_us("relay_policy.avg_relay_power"), "us"),
        "relay_policy.self_ms": (self_ms("relay_policy"), "ms"),
        "outage_analytics.outage_opa_us": (per_call_us("outage_analytics.outage_opa"), "us"),
        "outage_analytics.outage_fpa_us": (per_call_us("outage_analytics.outage_fpa"), "us"),
        "outage_analytics.self_ms": (self_ms("outage_analytics"), "ms"),
        "system_model.states_drawn": (states / ops, "count"),
        "system_model.draws_per_trial": (states / trials if trials else 0.0, "ratio"),
        "system_model.sample_ns_per_state": (
            float(dur[samples].sum()) / states if states else 0.0, "ns"),
        "system_model.self_ms": (self_ms("system_model"), "ms"),
        "mc_engine.run_calls": (float(runs.sum()) / ops, "count"),
        "mc_engine.self_ms": (mc_self / ops / 1e6, "ms"),
        "mc_engine.kernel_ns_per_trial": (mc_self / trials if trials else 0.0, "ns"),
        "mc_trials_per_s": (
            trials / ops * untraced_ops / untraced_s if untraced_s else 0.0, "trials/s"),
        "scenario_cli.self_ms": (self_ms("scenario_cli"), "ms"),
        "scenario_cli.write_csv_ms": (
            float(dur[select("scenario_cli.write_csv")].sum()) / ops / 1e6, "ms"),
        "bench.self_ms": (self_ms("bench"), "ms"),
        "trace.op_ms": (op_ns / ops / 1e6, "ms"),
        "trace.layer_share_pct": (100.0 * layer_self / op_ns if op_ns else 0.0, "%"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
