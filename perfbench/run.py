"""privmask benchmark: a single-thread, closed-loop job runner.

    python3 perfbench/run.py --workload {montecarlo,surface,certify}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the repository root.  The runner imports ``privmask.cli`` from
``./src`` and calls ``privmask.cli.main(argv)`` in-process, one job at a
time; the next job starts only when the previous one has finished.  Jobs
come from ``workloads.make_job(workload, seed, index)``; privmask sees only
the generated argv.  Every output is checked against the independent
closed forms in ``check.py``.

``--trace 0`` prints the end-to-end metrics: jobs per second (passed jobs
over the summed job wall time), the tail job wall time, the process's peak
RSS, the set-up time of a fresh ``privmask`` interpreter and the share of
jobs that passed.  The median job wall time goes to the report line: job
times are bimodal on hosts whose CPU speed flips between two states, and
the median jumps between the modes from run to run, so it cannot gate.  ``--trace 1`` runs each job untraced and then traced
(see ``tracing.py``) and prints the per-layer metrics, per traced job.

Earlier stdout lines carry a JSON report (provenance, tail percentile,
failures); the last line is the result object.  ``--smoke`` switches to
tiny job shapes for the self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
TAIL_BEYOND = 10
SETUP_CODE = "import privmask.cli as cli; cli.build_parser()"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny job shapes (self-test)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_cli():
    """privmask.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "privmask" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no privmask sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import privmask.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported privmask from {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> list:
    """Wall seconds from a fresh interpreter to privmask.cli imported and the parser built.

    One unmeasured warm-up spawn fills the bytecode cache first.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()[-500:]}")
        if i:
            samples.append(elapsed)
    return samples


class Jobs:
    """Wall times, failures and output sizes of the jobs run so far."""

    def __init__(self):
        self.walls, self.failures, self.out_bytes, self.step_walls = [], [], 0, {}

    def run(self, cli, steps, index: int) -> None:
        """Run one job's CLI steps back to back and check every output."""
        wall, reason = 0.0, None
        for step in steps:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(list(step.argv))
                except SystemExit as exc:
                    rc = exc.code
                except Exception:  # a traceback is a failed job, not a failed run
                    rc = None
                    err.write(traceback.format_exc())
            elapsed = time.perf_counter() - t0
            wall += elapsed
            self.step_walls.setdefault(step.command, []).append(elapsed)
            text = out.getvalue()
            self.out_bytes += len(text.encode())
            reason = reason or check.check_step(step, rc, text, err.getvalue())
        self.walls.append(wall)
        if reason is not None:
            self.failures.append(f"job {index}: {reason}")

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def passed(self) -> int:
        return len(self.walls) - len(self.failures)

    def jobs_per_s(self) -> float:
        """Passed jobs per second of job wall time (failed jobs take time, count no job)."""
        return self.passed / sum(self.walls)


def tail(walls: list) -> tuple:
    """(value, percentile, samples beyond) of the job-time tail.

    The highest order statistic with TAIL_BEYOND samples above it once
    there are 10 * TAIL_BEYOND jobs; with fewer, the one with a tenth of
    the jobs above it (about p90), so the tail moves smoothly with the job
    count instead of jumping when the count crosses a threshold.
    """
    ordered = sorted(walls)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 10)
    rank = n - 1 - beyond
    return ordered[rank], 100.0 * (rank + 1) / n, beyond


def llc_bytes() -> int:
    """Last-level cache size as getconf reports it (L3, else L2); 0 if unknown."""
    for name in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            proc = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return 0
        if proc.returncode == 0 and proc.stdout.strip().isdigit() and int(proc.stdout) > 0:
            return int(proc.stdout)
    return 0


def source_digest() -> str:
    """sha256 over src/privmask/*.py, so a result names the code it measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "privmask").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, shape) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "llc_bytes": llc_bytes(), "machine": platform.machine(),
            "commit": git_commit(), "src_sha256": source_digest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "shape": shape, "job_shape": workloads.job_shape(args.workload, shape),
            "loop": "closed, 1 client, 1 thread, privmask.cli.main in-process"}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cli, args, shape, report) -> tuple:
    setup = measure_setup()
    make_job = lambda index: workloads.make_job(args.workload, args.seed, index, shape)
    Jobs().run(cli, make_job(0), 0)  # warm-up, not counted
    phase = Jobs()
    deadline, index = time.perf_counter() + args.seconds, 1
    while time.perf_counter() < deadline:
        phase.run(cli, make_job(index), index)
        index += 1
    tail_s, tail_pct, beyond = tail(phase.walls)
    report.update(setup_samples_s=setup, jobs=phase.attempted, failures=phase.failures[:5],
                  job_s_tail={"percentile": tail_pct, "samples_beyond": beyond,
                              "samples": len(phase.walls)},
                  step_s_p50={cmd: statistics.median(w) for cmd, w in phase.step_walls.items()},
                  job_walls_s=phase.walls,
                  job_s_p50=metric(statistics.median(phase.walls), "s"))
    metrics = {
        "jobs_per_s": metric(phase.jobs_per_s(), "1/s"),
        "job_s_tail": metric(tail_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
        "ok_ratio": metric(phase.passed / phase.attempted, "ratio"),
    }
    return phase.attempted, phase.failures, [], metrics


def layer_check(workload: str, layer_calls: dict) -> list:
    """Problems with the layer mapping: heavy layers idle, idle layers busy."""
    problems = []
    for layer, spec in workloads.LAYER_MAP.items():
        calls = layer_calls.get(layer, 0)
        if workload in spec["heavy"] and calls == 0:
            problems.append(f"layer {layer} shows zero calls on its heavy workload {workload}")
        if workload in spec["idle"] and calls != 0:
            problems.append(f"layer {layer} shows {calls} calls on idle workload {workload}")
    return problems


def per_layer(cli, args, shape, report) -> tuple:
    """Each job runs twice, untraced and then traced, so that both see the same
    inputs and, as far as possible, the same machine state."""
    make_job = lambda index: workloads.make_job(args.workload, args.seed, index, shape)
    Jobs().run(cli, make_job(0), 0)  # warm-up, not counted
    plain, traced, calibration = Jobs(), Jobs(), []
    tracer = tracing.Tracer()
    deadline, index = time.perf_counter() + args.seconds, 1
    while time.perf_counter() < deadline:
        plain.run(cli, make_job(index), index)
        calibration.append(tracing.calibrate())
        tracer.current_job[0] = index
        tracer.install()
        try:
            traced.run(cli, make_job(index), index)
        finally:
            tracer.uninstall()
        index += 1
    cost_outside = max(statistics.median(c[0] for c in calibration), 0.0)
    cost_inside = max(statistics.median(c[1] for c in calibration), 0.0)
    span_cost = cost_outside + cost_inside

    agg = tracer.aggregate(cost_outside, cost_inside)
    llc = report["provenance"]["llc_bytes"]
    jobs = traced.attempted
    fns = agg["functions"]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "raised": {}}
    fn = lambda name: fns.get(name, zero)
    layer_sum = lambda layer, key: sum(v[key] for k, v in fns.items() if k.startswith(layer + "."))

    values = {}
    for layer, functions in tracing.REPORTED.items():
        for name in functions:
            f = fn(f"{layer}.{name}")
            for key in ("calls", "self_s", "total_s"):
                values[f"{layer}.{name}.{key}"] = f[key] / jobs
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = layer_sum(layer, "self_s") / jobs
    traced_job_s = sum(traced.walls) / len(traced.walls)
    sample_steps = agg["simulation.sample_steps"]
    noise_s = sum(fn(name)["total_s"] for name in tracing.NOISE_SPANS)
    simulate_s = fn("simulation.simulate")["total_s"]
    values.update({
        "cli.main.total_s": fn("cli.main")["total_s"] / jobs,
        "cli.self_s": fn("cli.main")["self_s"] / jobs,
        "cli.out_bytes": traced.out_bytes / jobs,
        "simulation.noise_s": noise_s / jobs,
        "simulation.recursion_s": fn("simulation.simulate")["self_s"] / jobs,
        "simulation.moments_s": (fn("simulation.empirical_cost")["total_s"]
                                 + fn("simulation.empirical_prediction_error")["total_s"]) / jobs,
        "simulation.sample_steps": sample_steps / jobs,
        "simulation.ns_per_sample_step": 1e9 * simulate_s / sample_steps if sample_steps else 0.0,
        "simulation.batch_bytes_computed": agg["simulation.batch_bytes_computed"] / jobs,
        "simulation.batch_to_llc": (agg["simulation.batch_bytes_computed"] / jobs / llc
                                    if llc else 0.0),
        "riccati.prediction_covariances.steps": agg["riccati.prediction_covariances.steps"] / jobs,
        "rates.control_cost_rate.raised":
            sum(fn("rates.control_cost_rate")["raised"].values()) / jobs,
        "design.objective_evals": agg["objective_evals"] / jobs,
        "design.at_boundary": agg["design.at_boundary"] / jobs,
        "oracle.singular_block.raised": sum(
            v["raised"].get("SingularBlock", 0) for k, v in fns.items()
            if k.startswith("oracle.")) / jobs,
        "trace.spans": agg["spans"] / jobs,
        "trace.span_cost_ns": span_cost * 1e9,
        "trace.span_overhead_s": agg["spans"] * span_cost / jobs,
        "trace.traced_job_s": traced_job_s,
        "trace.untraced_job_s": sum(plain.walls) / len(plain.walls),
        "trace.jobs_per_s_delta": traced.jobs_per_s() - plain.jobs_per_s(),
    })
    accounted = (sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
                 + values["cli.self_s"] + values["trace.span_overhead_s"])
    values["trace.accounted_share"] = accounted / traced_job_s
    # independent of the span bookkeeping: does the calibrated cost explain
    # the measured traced-minus-untraced job time?
    values["trace.overhead_error_share"] = (
        traced_job_s - values["trace.untraced_job_s"] - values["trace.span_overhead_s"]) / traced_job_s

    layer_calls = {layer: layer_sum(layer, "calls") for layer in tracing.LAYERS}
    layer_calls["cli"] = fn("cli.main")["calls"]
    problems = layer_check(args.workload, layer_calls)
    if abs(values["trace.accounted_share"] - 1.0) > 0.05:
        problems.append(f"spans account for {values['trace.accounted_share']:.3f} "
                        "of the traced job wall time, not 1 +- 0.05")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}.tsv"
    tracer.write_job(spans_path, 1)
    listed = {f"{layer}.{name}" for layer, names in tracing.REPORTED.items() for name in names}
    listed.update(tracing.NOISE_SPANS, ["cli.main"])
    unlisted = sorted(name for name, f in fns.items() if f["calls"] and name not in listed)
    report.update(jobs_untraced=len(plain.walls), jobs_traced=len(traced.walls),
                  failures=(plain.failures + traced.failures)[:5], trace_problems=problems,
                  unlisted_functions_reached=unlisted, spans_file=str(spans_path.relative_to(ROOT)),
                  layer_calls_per_job={k: v / jobs for k, v in layer_calls.items()})
    units = dict(tracing.per_layer_metrics())
    metrics = {name: metric(values[name], units[name]) for name, _ in tracing.per_layer_metrics()}
    return (plain.attempted + traced.attempted, plain.failures + traced.failures,
            problems, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    shape = "smoke" if args.smoke else "full"
    cli = import_cli()
    report = {"provenance": provenance(args, shape)}
    measure = per_layer if args.trace else end_to_end
    attempted, failures, problems, metrics = measure(cli, args, shape, report)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures and not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
