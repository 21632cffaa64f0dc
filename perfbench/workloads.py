"""Seeded job generators for the three benchmark workloads.

A job is a short list of privmask CLI invocations that the runner issues
back to back; its wall time is the sum of theirs.  The workload seed picks
parameter values only.  The job mix is fixed by the job index and never by
the seed: the share of unstable plants, the ``n = 0`` row of every grid,
the lambda list and every job shape stay the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1

LAMBDAS = "0,0.0001,0.001,0.01,0.1,1,10,100,1000,10000"
ALPHA_RANGE_LO, ALPHA_RANGE_HI = 1e-4, 1e4

# Job shapes.  "full" is what the benchmark measures; "smoke" is the tiny
# shape the self-test uses to exercise every code path in seconds.
SHAPES = {
    "full": {"sim_T": 100_000, "sim_trajectories": 64, "grid_cells": 200,
             "sweep_points": 20001, "verify_T": 20},
    "smoke": {"sim_T": 3000, "sim_trajectories": 16, "grid_cells": 12,
              "sweep_points": 101, "verify_T": 5},
}

# Every UNSTABLE_EVERY-th surface job (by index) has |a+k| >= 1.
UNSTABLE_EVERY = 4

WHY = {
    "montecarlo": "simulate at T=100000 x 64 trajectories: the simulation layer "
                  "(noise, time recursion, moments, full-batch memory) does nearly all the work",
    "surface": "200x200 grid CSV plus 20001-point alpha-sweep JSON per plant: rates, riccati, "
               "the stability guard and CLI serializers work in bulk, incl. the inf paths",
    "certify": "design over 10 lambdas plus verify --T 20 per stable plant: the exact oracle and "
               "the trade-off search, with rates called one scalar at a time",
}

# The layers each workload must load (heavy) and must leave alone (idle).
# The traced run fails when a layer shows zero calls on one of its heavy
# workloads, or any call on one of its idle workloads.  README.md maps each
# layer's metrics to the end-to-end metrics they should move.
LAYER_MAP = {
    "simulation": {"heavy": ("montecarlo",), "idle": ("surface", "certify")},
    "riccati": {"heavy": ("montecarlo", "surface", "certify"), "idle": ()},
    "rates": {"heavy": ("surface", "certify"), "idle": ()},
    "params": {"heavy": ("surface", "certify"), "idle": ()},
    "design": {"heavy": ("certify",), "idle": ("montecarlo", "surface")},
    "oracle": {"heavy": ("certify",), "idle": ("montecarlo", "surface")},
    "cli": {"heavy": ("montecarlo", "surface", "certify"), "idle": ()},
}


@dataclass(frozen=True)
class Step:
    """One CLI invocation: its argv and the parameters it was built from."""

    command: str
    argv: tuple
    params: dict


def _num(x: float) -> str:
    return f"{x:.6f}"


def _plant(rng: random.Random, stable: bool) -> tuple:
    """(a, k) with |a+k| < 0.8 when stable, 1.05 <= |a+k| <= 1.6 otherwise."""
    while True:
        a = rng.uniform(-1.5, 1.5)
        if stable:
            loop = rng.uniform(-0.8, 0.8)
        else:
            loop = rng.choice((-1.0, 1.0)) * rng.uniform(1.05, 1.6)
        k = loop - a
        if abs(k) >= 0.1:
            return float(_num(a)), float(_num(k))


def _step(command: str, fixed: dict, **values) -> Step:
    argv = [command] + [f"--{key}={_num(v)}" for key, v in values.items()]
    argv += [f"--{key}={v}" if v is not True else f"--{key}" for key, v in fixed.items()]
    return Step(command=command, argv=tuple(argv), params=dict(values, **fixed))


def make_job(workload: str, seed: int, index: int, shape: str = "full") -> list:
    """The steps of job ``index`` of ``workload`` under ``seed``."""
    sz = SHAPES[shape]
    rng = random.Random(f"{workload}:{seed}:{index}")
    variance = lambda: float(_num(rng.uniform(0.01, 0.5)))
    if workload == "montecarlo":
        a, k = _plant(rng, stable=True)
        w, m, n = variance(), variance(), variance()
        fixed = {"T": sz["sim_T"], "trajectories": sz["sim_trajectories"], "workers": 1,
                 "seed": rng.randrange(1, 2**31)}
        return [_step("simulate", fixed, a=a, k=k, w=w, m=m, n=n)]
    if workload == "surface":
        a, k = _plant(rng, stable=index % UNSTABLE_EVERY != UNSTABLE_EVERY - 1)
        w = variance()
        m_hi, n_hi = float(_num(rng.uniform(0.2, 2.0))), float(_num(rng.uniform(0.2, 2.0)))
        cells = sz["grid_cells"]
        grid = _step("grid", {"m-range": f"0:{_num(m_hi)}:{cells}",
                              "n-range": f"0:{_num(n_hi)}:{cells}"}, a=a, k=k, w=w)
        sweep = _step("alpha-sweep", {
            "alpha-range": f"{ALPHA_RANGE_LO!r}:{ALPHA_RANGE_HI!r}:{sz['sweep_points']}",
            "format": "json", "bits": True}, a=a, k=k)
        return [grid, sweep]
    if workload == "certify":
        a, k = _plant(rng, stable=True)
        w, m, n = variance(), variance(), variance()
        return [_step("design", {"lambda": LAMBDAS}, a=a, k=k, w=w, m=m),
                _step("verify", {"T": sz["verify_T"]}, a=a, k=k, w=w, m=m, n=n)]
    raise ValueError(f"unknown workload {workload!r}")


def job_shape(workload: str, shape: str = "full") -> list:
    """The seed-independent shape of a workload's jobs, for provenance."""
    sz = SHAPES[shape]
    return {
        "montecarlo": [f"simulate --T={sz['sim_T']} --trajectories={sz['sim_trajectories']} "
                       "--workers=1"],
        "surface": [f"grid {sz['grid_cells']}x{sz['grid_cells']} csv, ranges from 0, "
                    f"|a+k|>=1 on every {UNSTABLE_EVERY}th job",
                    f"alpha-sweep {sz['sweep_points']} points json --bits"],
        "certify": [f"design --lambda={LAMBDAS}", f"verify --T={sz['verify_T']}"],
    }[workload]
