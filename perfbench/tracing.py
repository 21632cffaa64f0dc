"""Outside-in per-layer tracing of privmask.

Layers are the package modules.  ``Tracer.install`` wraps every public
function of each layer module, ``cli.main``, and the ``Philox`` and
``ndtri`` names that ``privmask.simulation`` binds, then replaces every
binding of each wrapped object in every ``privmask.*`` module namespace,
including values of module-level dicts such as the CLI's command table.
Lazy ``from .rates import ...`` statements inside function bodies read the
patched module attribute, so they are covered too.

Each call records a span (name, start, end, parent span, job id) in
in-memory arrays.  A span's self time is its duration minus the time its
child spans cover, minus the calibrated cost of each child's wrapper, which
runs outside the child's own timestamps and would otherwise be charged to
the caller (mostly to ``cli``).
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "privmask"
LAYERS = ("params", "riccati", "rates", "design", "oracle", "simulation")

# Public functions the three workloads reach.  Each is reported as
# <layer>.<function>.calls / .self_s / .total_s, per traced job.
REPORTED = {
    "params": ("closed_loop_stable",),
    "riccati": ("solve_are", "prediction_covariances"),
    "rates": ("uplink_rate", "downlink_rate", "mi_rate", "nnr_prediction_ratio",
              "mi_rate_from_nnr", "mi_rate_from_nnr_derivative", "mi_rate_from_nnr_alt",
              "control_cost_rate", "control_cost_rate_from_nnr",
              "control_cost_rate_from_nnr_derivative", "finite_horizon_info"),
    "design": ("quartic_coefficients", "optimal_nnr", "masks_from_nnr", "tradeoff_point",
               "tradeoff_curve"),
    "oracle": ("joint_covariance", "exact_mi", "exact_directed_info", "consistency_report"),
    "simulation": ("simulate", "empirical_cost", "empirical_prediction_error"),
}

NOISE_SPANS = ("simulation.Philox", "simulation.Philox.random_raw", "simulation.ndtri")

DERIVED = (
    ("cli.main.total_s", "s"), ("cli.self_s", "s"), ("cli.out_bytes", "B"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("simulation.noise_s", "s"), ("simulation.recursion_s", "s"), ("simulation.moments_s", "s"),
    ("simulation.sample_steps", "count"), ("simulation.ns_per_sample_step", "ns"),
    ("simulation.batch_bytes_computed", "B"), ("simulation.batch_to_llc", "ratio"),
    ("riccati.prediction_covariances.steps", "count"),
    ("rates.control_cost_rate.raised", "count"),
    ("design.objective_evals", "count"), ("design.at_boundary", "count"),
    ("oracle.singular_block.raised", "count"),
    ("trace.spans", "count"), ("trace.span_cost_ns", "ns"), ("trace.span_overhead_s", "s"),
    ("trace.traced_job_s", "s"), ("trace.untraced_job_s", "s"),
    ("trace.jobs_per_s_delta", "1/s"), ("trace.accounted_share", "ratio"),
    ("trace.overhead_error_share", "ratio"),
)


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, functions in REPORTED.items():
        for fn in functions:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s"),
                    (f"{layer}.{fn}.total_s", "s")]
    return out + list(DERIVED)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.job = array("q")
        self.raised = array("b")
        self.exc_names = []
        self.stack = [-1]
        self.current_job = [0]
        self.counters = {"simulation.sample_steps": 0, "simulation.batch_bytes_computed": 0,
                         "riccati.prediction_covariances.steps": 0, "design.at_boundary": 0}
        self._patches = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _exc_id(self, exc_name: str) -> int:
        """1-based id of an exception type name; 0 in ``raised`` means none."""
        if exc_name not in self.exc_names:
            self.exc_names.append(exc_name)
        return self.exc_names.index(exc_name) + 1

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span named ``name``; ``after(args, kwargs, result)`` counts."""
        nid = self._name_id(name)
        start, end, parent, names, job = self.start, self.end, self.parent, self.name, self.job
        raised, stack, current_job = self.raised, self.stack, self.current_job
        exc_id = self._exc_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(nid)
            job.append(current_job[0])
            end.append(0.0)
            raised.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[sid] = clock()
                stack.pop()
                # count an exception once, at the innermost boundary it crossed
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    raised[sid] = exc_id(type(exc).__name__)
                raise
            end[sid] = clock()
            stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ----------------------------------------------------------- patching

    def _hooks(self) -> dict:
        import privmask.riccati
        import privmask.simulation

        c = self.counters
        sim_sig = inspect.signature(privmask.simulation.simulate)
        cov_sig = inspect.signature(privmask.riccati.prediction_covariances)

        def simulate(args, kwargs, batch):
            bound = sim_sig.bind(*args, **kwargs).arguments
            c["simulation.sample_steps"] += bound["horizon"] * bound["n_trajectories"]
            # computed from shapes: nine (trajectories, T+1) float64 signals plus
            # the shared s_pred and gain vectors; not a measured byte count
            c["simulation.batch_bytes_computed"] += 8 * (bound["horizon"] + 1) * (
                9 * bound["n_trajectories"] + 2)

        def prediction_covariances(args, kwargs, result):
            c["riccati.prediction_covariances.steps"] += cov_sig.bind(*args, **kwargs).arguments["horizon"]

        def tradeoff_point(args, kwargs, point):
            c["design.at_boundary"] += bool(point.at_boundary)

        return {"simulation.simulate": simulate,
                "riccati.prediction_covariances": prediction_covariances,
                "design.tradeoff_point": tradeoff_point}

    def _philox(self, philox):
        random_raw = self.wrap("simulation.Philox.random_raw",
                               lambda bitgen, *a, **kw: bitgen.random_raw(*a, **kw))

        class TracedPhilox:
            __slots__ = ("bitgen",)

            def __init__(self, *args, **kwargs):
                self.bitgen = philox(*args, **kwargs)

            def random_raw(self, *args, **kwargs):
                return random_raw(self.bitgen, *args, **kwargs)

        return self.wrap("simulation.Philox", TracedPhilox)

    def _bindings(self) -> list:
        """(namespace, key, original, wrapper) for every binding to replace."""
        hooks = self._hooks()
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    targets[id(obj)] = (obj, self.wrap(name, obj, hooks.get(name)))
        cli = sys.modules[f"{PACKAGE}.cli"]
        targets[id(cli.main)] = (cli.main, self.wrap("cli.main", cli.main))
        sim = sys.modules[f"{PACKAGE}.simulation"]
        targets[id(sim.Philox)] = (sim.Philox, self._philox(sim.Philox))
        targets[id(sim.ndtri)] = (sim.ndtri, self.wrap("simulation.ndtri", sim.ndtri))

        bindings = []
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            namespaces = [vars(module)]
            namespaces += [v for v in vars(module).values() if isinstance(v, dict)]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    hit = targets.get(id(value))
                    if hit is not None and hit[0] is value:
                        bindings.append((ns, key, value, hit[1]))
        return bindings

    def install(self) -> None:
        """Point every binding in privmask.* namespaces at its wrapper."""
        if not self._patches:
            self._patches = self._bindings()
        for ns, key, _, wrapper in self._patches:
            ns[key] = wrapper

    def uninstall(self) -> None:
        """Restore the original bindings; ``install`` may be called again."""
        for ns, key, original, _ in self._patches:
            ns[key] = original

    # -------------------------------------------------------- aggregation

    def spans(self) -> dict:
        """The span store as numpy arrays (views, no copies)."""
        return {"start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "name": np.frombuffer(self.name, dtype=np.int64),
                "job": np.frombuffer(self.job, dtype=np.int64),
                "raised": np.frombuffer(self.raised, dtype=np.int8).astype(np.int64)}

    def write_job(self, path, job_id: int) -> None:
        """Write one job's spans as TSV: id, job, parent, name, start_s, end_s, raised."""
        s = self.spans()
        idx = np.flatnonzero(s["job"] == job_id)
        with open(path, "w") as fh:
            fh.write("id\tjob\tparent\tname\tstart_s\tend_s\traised\n")
            for i in idx:
                fh.write(f"{i}\t{s['job'][i]}\t{s['parent'][i]}\t{self.names[s['name'][i]]}\t"
                         f"{s['start'][i]!r}\t{s['end'][i]!r}\t"
                         f"{self.exc_names[s['raised'][i] - 1] if s['raised'][i] else ''}\n")

    def aggregate(self, cost_outside: float, cost_inside: float) -> dict:
        """Whole-run totals: per-name calls, self and total time, plus counters.

        Self times exclude the calibrated wrapper costs (from ``calibrate``):
        ``cost_outside`` per child span and ``cost_inside`` per span.
        """
        s = self.spans()
        n, k = len(s["start"]), len(self.names)
        dur = s["end"] - s["start"]
        par = s["parent"]
        has_par = par >= 0
        child_time = np.bincount(par[has_par], weights=dur[has_par], minlength=n)
        child_count = np.bincount(par[has_par], minlength=n)
        self_time = dur - child_time - child_count * cost_outside - cost_inside

        by_name = lambda w=None: np.bincount(s["name"], weights=w, minlength=k)
        calls, self_s, total_s = by_name(), by_name(self_time), by_name(dur)
        hit = s["raised"] > 0
        raised = np.zeros((k, len(self.exc_names) + 1), dtype=np.int64)
        np.add.at(raised, (s["name"][hit], s["raised"][hit]), 1)

        # spans below a design.tradeoff_point span (parents precede children)
        under = s["name"] == self._name_ids.get("design.tradeoff_point", -1)
        while True:
            grown = under | (has_par & under[np.where(has_par, par, 0)])
            if (grown == under).all():
                break
            under = grown
        mi_nnr = s["name"] == self._name_ids.get("rates.mi_rate_from_nnr", -1)

        out = {"spans": n, "objective_evals": int((under & mi_nnr).sum()), **self.counters}
        out["functions"] = {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                                   "total_s": float(total_s[i]),
                                   "raised": {exc: int(raised[i, j + 1])
                                              for j, exc in enumerate(self.exc_names)
                                              if raised[i, j + 1]}}
                            for i, name in enumerate(self.names)}
        return out


def calibrate(calls: int = 5000) -> tuple:
    """One sample of the (outside, inside) wrapper cost per span, in seconds.

    An empty two-argument function (most wrapped functions take two or
    three) is called ``calls`` times plainly, then wrapped from inside a
    traced loop.  ``outside`` is the cost the loop's span sees beyond the
    plain loop: it is charged to the caller.  ``inside`` is what each empty
    child span records beyond a plain call.  The CPU's speed drifts within
    seconds, so callers take medians of samples spread over the traced run.
    A tight loop keeps code and data in cache, so this underestimates the
    cost inside a real workload; ``trace.overhead_error_share`` shows by how
    much.
    """
    def empty(a, b):
        return None

    tracer = Tracer()
    child = tracer.wrap("child", empty)

    def traced_loop():
        for _ in range(calls):
            child(1.0, 2.0)

    t0 = time.perf_counter()
    for _ in range(calls):
        empty(1.0, 2.0)
    plain = time.perf_counter() - t0
    tracer.wrap("loop", traced_loop)()
    s = tracer.spans()
    dur = s["end"] - s["start"]
    children = dur[1:].sum()  # span 0 is the loop
    return (dur[0] - children - plain) / calls, (children - plain) / calls
