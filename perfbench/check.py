"""Independent output check: the paper's closed forms re-derived in numpy.

Nothing here imports privmask.  Every ``grid``, ``alpha-sweep`` and
``design`` value is recomputed from the job's own parameters and compared
at a relative tolerance of 1e-9, with ``inf`` matching only ``inf``.  A
``simulate`` job must match in its closed-form fields and land within
``SIM_SE`` standard errors in its empirical ones; its own 3-SE ``pass``
flag is ignored, because a 3-SE test fails by chance on about 0.5% of
seeds.  A ``verify`` job passes on exit 0 with every gating row true.

``check_step`` returns None when the output is right, else a one-line
reason.
"""

from __future__ import annotations

import io
import json
import math
import re

import numpy as np

RTOL = 1e-9
SIM_SE = 5.0
FIRST_ORDER_ATOL = 1e-8
LN2 = math.log(2.0)

GRID_HEADER = "m,n,alpha,sigma,uplink_nats,downlink_nats,mi_nats,cost"
VERIFY_HEADER = "name,lhs,rhs,abs_err,pass,gating"


# ------------------------------------------------------- closed forms


def riccati_root(a, p, n):
    """Nonnegative root of s^2 - ((a^2-1) n + p) s - p n = 0 (vectorized).

    For b >= 0 the '+' root is evaluated directly; for b < 0 it is taken
    from the product of the roots, -p n, which avoids cancellation.
    """
    p, n = np.broadcast_arrays(np.asarray(p, float), np.asarray(n, float))
    b = (a * a - 1.0) * n + p
    disc = np.sqrt(b * b + 4.0 * p * n)
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_branch = np.where(p * n == 0, 0.0, 2.0 * p * n / (disc - b))
    return np.where(b >= 0, 0.5 * (b + disc), neg_branch)


def flows(a, k, p, n):
    """(sigma, uplink, downlink) in nats; n = 0 leaks (uplink inf) when p > 0."""
    p, n = np.broadcast_arrays(np.asarray(p, float), np.asarray(n, float))
    sigma = riccati_root(a, p, n)
    with np.errstate(divide="ignore"):
        up = np.where(n > 0, 0.5 * np.log1p(sigma / np.where(n > 0, n, 1.0)), np.inf)
    down = 0.5 * np.log1p(k * k * n / p)
    return sigma, up, down


def cost(a, k, w, q, r, m, n):
    """Steady cost (q + r k^2)(m + k^2 n + w)/(1 - (a+k)^2) + r k^2 n; inf if unstable."""
    m, n = np.broadcast_arrays(np.asarray(m, float), np.asarray(n, float))
    if abs(a + k) >= 1.0:
        return np.full(m.shape, np.inf)
    k2 = k * k
    return (q + r * k2) * (m + k2 * n + w) / (1.0 - (a + k) ** 2) + r * k2 * n


def nnr_flows(a, k, alpha):
    """(s, uplink, downlink) along n = alpha (m + w), where s = sigma / n."""
    alpha = np.asarray(alpha, float)
    s = riccati_root(a, 1.0 / alpha, np.ones_like(alpha))
    return s, 0.5 * np.log1p(s), 0.5 * np.log1p(k * k * alpha)


def nnr_cost(a, k, w, q, r, alpha):
    """Cost along the m = 0 line, n = alpha w."""
    return cost(a, k, w, q, r, 0.0, alpha * w)


def quartic_residual(a, k, alpha):
    """|(a^2-1)^2 x^4 + 2(a^2+1) x^3 - (2/k^2) x - 1/k^4| relative to its largest term."""
    terms = ((a * a - 1.0) ** 2 * alpha**4, 2.0 * (a * a + 1.0) * alpha**3,
             -2.0 / (k * k) * alpha, -1.0 / k**4)
    return abs(math.fsum(terms)) / max(abs(t) for t in terms)


def tradeoff_slope(a, k, w, q, r, lam, alpha):
    """(d/d(alpha) of rate + lam * cost along m = 0, size of its cost term)."""
    s = float(nnr_flows(a, k, alpha)[0])
    # s solves s^2 - (a^2 - 1 + 1/x) s - 1/x = 0; differentiate implicitly in x
    ds = -(s + 1.0) / (alpha * alpha * (2.0 * s - (a * a - 1.0 + 1.0 / alpha)))
    k2 = k * k
    cost_term = lam * ((q + r * k2) * w * k2 / (1.0 - (a + k) ** 2) + r * k2 * w)
    return ds / (2.0 * (1.0 + s)) + k2 / (2.0 * (1.0 + k2 * alpha)) + cost_term, abs(cost_term)


# ------------------------------------------------------------- checks


def _close(got, want) -> np.ndarray:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return np.isclose(got, want, rtol=RTOL, atol=0.0) & ~np.isnan(got)


def _mismatch(label, got, want):
    ok = _close(got, want)
    if ok.all():
        return None
    i = int(np.flatnonzero(~ok.ravel())[0])
    return (f"{label}: {np.asarray(got, float).ravel()[i]!r} != "
            f"{np.asarray(want, float).ravel()[i]!r} (first of {int((~ok).sum())})")


def _linspace_range(text):
    lo, hi, count = text.split(":")
    return np.linspace(float(lo), float(hi), int(count))


def _geomspace_range(text):
    lo, hi, count = text.split(":")
    return np.geomspace(float(lo), float(hi), int(count))


def _plant(params):
    return (params["a"], params["k"], params.get("w", 0.05),
            params.get("q", 1.0), params.get("r", 1.0))


def check_grid(params, out):
    a, k, w, q, r = _plant(params)
    lines = out.split("\n", 2)
    if lines[:2] != ["# schema=1", GRID_HEADER]:
        return f"grid header {lines[:2]!r}"
    table = np.loadtxt(io.StringIO(lines[2]), delimiter=",", ndmin=2)
    mm, nn = np.meshgrid(_linspace_range(params["m-range"]),
                         _linspace_range(params["n-range"]), indexing="ij")
    m, n = mm.ravel(), nn.ravel()
    if table.shape != (m.size, 8):
        return f"grid shape {table.shape}, want {(m.size, 8)}"
    p = m + w
    sigma, up, down = flows(a, k, p, n)
    want = (m, n, n / p, sigma, up, down, up + down, cost(a, k, w, q, r, m, n))
    for col, (name, ref) in enumerate(zip(GRID_HEADER.split(","), want)):
        bad = _mismatch(f"grid {name}", table[:, col], ref)
        if bad:
            return bad
    return None


def check_alpha_sweep(params, out):
    a, k = params["a"], params["k"]
    rows = json.loads(out)["rows"]
    alpha = _geomspace_range(params["alpha-range"])
    if len(rows) != alpha.size:
        return f"alpha-sweep has {len(rows)} rows, want {alpha.size}"
    keys = ("alpha", "uplink_bits", "downlink_bits", "mi_bits", "mi_nats_alt")
    if any(tuple(row) != keys for row in rows):
        return f"alpha-sweep keys {tuple(rows[0])}, want {keys}"
    got = np.array([[row[key] for key in keys] for row in rows], dtype=float)
    s, up, down = nnr_flows(a, k, alpha)
    alt = 0.5 * np.log(s) + down  # the alternative convention stays in nats
    want = (alpha, up / LN2, down / LN2, (up + down) / LN2, alt)
    for col, (name, ref) in enumerate(zip(keys, want)):
        bad = _mismatch(f"alpha-sweep {name}", got[:, col], ref)
        if bad:
            return bad
    return None


def check_design(params, out):
    a, k, w, q, r = _plant(params)
    m = params.get("m", 0.0)
    report = json.loads(out)
    alpha_star = report["alpha_star"]
    if not alpha_star > 0 or quartic_residual(a, k, alpha_star) > RTOL:
        return f"design alpha_star {alpha_star!r} is not the quartic root"
    _, up, down = nnr_flows(a, k, alpha_star)
    bad = (_mismatch("design mi_min_nats", report["mi_min_nats"], up + down)
           or _mismatch("design recommended.n", report["recommended"]["n"], alpha_star * (m + w))
           or _mismatch("design recommended.m", report["recommended"]["m"], m))
    if bad:
        return bad
    lambdas = [float(x) for x in params["lambda"].split(",")]
    if [pt["lambda"] for pt in report["tradeoff"]] != lambdas:
        return "design trade-off rows do not follow the lambda list"
    for pt in report["tradeoff"]:
        lam, alpha = pt["lambda"], pt["alpha"]
        if not 0 < alpha <= alpha_star * (1 + RTOL):
            return f"design alpha {alpha!r} outside (0, alpha_star] at lambda={lam}"
        _, up, down = nnr_flows(a, k, alpha)
        c = nnr_cost(a, k, w, q, r, alpha)
        bad = (_mismatch(f"design mi_nats lambda={lam}", pt["mi_nats"], up + down)
               or _mismatch(f"design cost lambda={lam}", pt["cost"], c)
               or _mismatch(f"design objective lambda={lam}", pt["objective"], up + down + lam * c))
        if bad:
            return bad
        if lam == 0:
            bad = _mismatch("design alpha at lambda=0 vs alpha_star", alpha, alpha_star)
            if bad:
                return bad
        elif not pt["at_boundary"]:
            slope, scale = tradeoff_slope(a, k, w, q, r, lam, alpha)
            if abs(slope) > FIRST_ORDER_ATOL + 1e-12 * scale:
                return f"design first-order residual {slope:.3e} at lambda={lam}"
    return None


def check_simulate(params, out):
    a, k, w, q, r = _plant(params)
    m, n = params["m"], params["n"]
    rep = json.loads(out)
    sigma = riccati_root(a, m + w, n)
    bad = (_mismatch("simulate closed_form_cost", rep["closed_form_cost"], cost(a, k, w, q, r, m, n))
           or _mismatch("simulate closed_form_sigma", rep["closed_form_sigma"], sigma))
    if bad:
        return bad
    for name, ref in (("cost", rep["closed_form_cost"]), ("sigma", rep["closed_form_sigma"])):
        emp, se = rep[f"empirical_{name}"], rep[f"{name}_stderr"]
        if not se > 0 or abs(emp - ref) > SIM_SE * se:
            return f"simulate empirical_{name} {emp!r} is {abs(emp - ref) / se:.2f} SE from {ref!r}"
    return None


def check_verify(params, out):
    lines = out.splitlines()
    if lines[:2] != ["# schema=1", VERIFY_HEADER]:
        return f"verify header {lines[:2]!r}"
    rows = [line.split(",") for line in lines[2:]]
    gating = [row for row in rows if row[5] == "true"]
    if len(gating) != 4 + int(params["T"]):
        return f"verify has {len(gating)} gating rows, want {4 + int(params['T'])}"
    failed = [row[0] for row in gating if row[4] != "true"]
    return f"verify gating rows failed: {failed}" if failed else None


CHECKS = {
    "grid": check_grid,
    "alpha-sweep": check_alpha_sweep,
    "design": check_design,
    "simulate": check_simulate,
    "verify": check_verify,
}


def check_step(step, rc, out, err):
    """None when one CLI invocation's exit code, stdout and stderr are right."""
    if rc != 0:
        return f"{step.command} exit code {rc}: {err.strip()[:200]}"
    if "Traceback" in err:
        return f"{step.command} printed a traceback"
    if "nan" in out.lower() and re.search(r"\bnan\b", out, re.IGNORECASE):
        return f"{step.command} printed NaN"
    try:
        return CHECKS[step.command](step.params, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{step.command} output unreadable: {type(exc).__name__}: {exc}"
