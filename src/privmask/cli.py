"""Batch command-line front-end emitting CSV/JSON.

Subcommands: ``analyze``, ``grid``, ``alpha-sweep``, ``design``,
``simulate``, ``verify``.  Values may come from a JSON config file
(``--config``); explicit flags always override config entries.  Exit
codes: 0 success, 1 verification failure, 2 usage/validation error (with a
machine-readable JSON error object on stderr).

Serialization rules, applied in one place (``_emit``): numeric fields are
written with full double precision (shortest round-trip form); divergent
metrics serialize as the literal string ``inf``, never NaN; ``--bits``
converts ``*_nats`` fields to ``*_bits`` by dividing by ln 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys as _sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .design import (
    boundary_diagnostics,
    masks_from_nnr,
    optimal_nnr,
    tradeoff_curve,
)
from .errors import NonPositiveCount, PrivmaskError
from .oracle import CHECK_TOL, consistency_report
from .params import MaskParams, SystemParams
from .rates import control_cost_rate, mi_rate, mi_rate_from_nnr, mi_rate_from_nnr_alt
from .riccati import solve_are

LN2 = math.log(2.0)

_DEFAULTS = {
    "w": 0.05, "q": 1.0, "r": 1.0, "m": 0.0, "n": 0.05,
    "seed": 7, "trajectories": 64, "workers": 1,
    "lambda": [0.0],
    "m_range": "0.01:0.5:50", "n_range": "0.01:0.5:50",
    "alpha_range": "0.01:100:601",
}
_T_DEFAULTS = {"simulate": 100_000, "verify": 10}

# argparse reads only "-1" and "-0.5" as negative numbers and takes "-1e-9"
# for an unknown option; this form also admits an exponent
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_FLAG = re.compile(r"--[A-Za-z][\w-]*")


@dataclass
class RunConfig:
    """Merged command configuration (flags over config file over defaults)."""

    command: str
    a: float
    k: float
    w: float
    q: float
    r: float
    m: float
    n: float
    alpha: float | None
    lambdas: list
    horizon: int | None
    trajectories: int
    seed: int
    m_range: tuple
    n_range: tuple
    alpha_range: tuple
    output: str | None
    fmt: str | None
    bits: bool

    @property
    def system(self) -> SystemParams:
        return SystemParams(a=self.a, k=self.k, w=self.w, q=self.q, r=self.r)

    @property
    def masks(self) -> MaskParams:
        return MaskParams(m=self.m, n=self.n)


def _parse_range(text: str, name: str) -> tuple:
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except (AttributeError, ValueError):
        raise PrivmaskError(f"--{name} must be lo:hi:count, got {text!r}") from None
    if count < 1 or hi < lo:
        raise PrivmaskError(f"--{name} needs hi >= lo and count >= 1, got {text!r}")
    return lo, hi, count


def _parse_lambdas(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise PrivmaskError(f"--lambda must be a comma-separated float list, got {text!r}") from None


def _real(value) -> float:
    """A float from a number or a numeric string; never from a bool."""
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


def _integral(value) -> int:
    """An int, or a float with an integral value; never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _accept(test):
    """A converter that passes a value through when ``test`` accepts it."""
    def convert(value):
        if not test(value):
            raise ValueError(value)
        return value
    return convert


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are typed errors; its subparsers are ``_Parser`` too."""

    def error(self, message):
        raise PrivmaskError(message)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    g = shared.add_argument_group("parameters")
    g.add_argument("--a", type=float, help="state coefficient (required)")
    g.add_argument("--k", type=float, help="feedback gain, nonzero (required)")
    g.add_argument("--w", type=float, help="process-noise variance")
    g.add_argument("--q", type=float, help="state cost weight")
    g.add_argument("--r", type=float, help="input cost weight")
    g.add_argument("--m", type=float, help="downlink mask variance")
    g.add_argument("--n", type=float, help="uplink mask variance")
    g.add_argument("--alpha", type=float, help="noise-to-noise ratio for single-point sweeps")
    g.add_argument("--lambda", dest="lambdas", type=str, help="comma-separated trade-off weights")
    g.add_argument("--T", dest="horizon", type=int, help="horizon / number of steps")
    g.add_argument("--trajectories", type=int, help="Monte Carlo trajectory count")
    g.add_argument("--seed", type=int, help="random seed")
    g.add_argument("--workers", type=int,
                   help="accepted for compatibility, must be >= 1; has no effect")
    g.add_argument("--m-range", dest="m_range", type=str, help="lo:hi:count (linear)")
    g.add_argument("--n-range", dest="n_range", type=str, help="lo:hi:count (linear)")
    g.add_argument("--alpha-range", dest="alpha_range", type=str, help="lo:hi:count (log-spaced)")
    g.add_argument("--config", type=str, help="JSON config file; flags override its entries")
    g.add_argument("--output", type=str, help="output path (default: stdout)")
    g.add_argument("--format", dest="fmt", choices=("csv", "json"), help="output format")
    g.add_argument("--bits", action="store_true", default=None,
                   help="report information in bits instead of nats")

    parser = _Parser(
        prog="privmask",
        description="Privacy-mask analysis and design for cloud-controlled scalar plants.",
    )
    parser.add_argument("--version", action="version", version=f"privmask {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[shared], help="closed-form rates and cost at one point")
    sub.add_parser("grid", parents=[shared], help="rate/cost surface over an (m, n) grid")
    sub.add_parser("alpha-sweep", parents=[shared], help="rate as a function of the noise ratio")
    sub.add_parser("design", parents=[shared], help="optimal ratio, trade-off curve, masks")
    sub.add_parser("simulate", parents=[shared], help="Monte Carlo validation of cost and sigma")
    sub.add_parser("verify", parents=[shared], help="exact-oracle consistency checks")
    return parser


def _join_negative_values(argv: list) -> list:
    """``--flag -1e-9`` as ``--flag=-1e-9``, which argparse reads as the flag's value."""
    out = []
    for token in argv:
        if out and _NEGATIVE_NUMBER.fullmatch(token) and _FLAG.fullmatch(out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process (parsing leaves it unchanged)."""
    return build_parser()


def load_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = {}
    if args.config is not None:
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as exc:
                raise PrivmaskError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise PrivmaskError(f"config file must hold a JSON object, got {type(file_cfg).__name__}")

    def pick(flag_value, key, default=None, convert=None):
        """Flag, else config entry (``null`` counts as absent), else default, then ``convert``."""
        value = flag_value if flag_value is not None else file_cfg.get(key)
        if value is None:
            value = default
        if value is None or convert is None:
            return value
        try:
            return convert(value)
        except (OverflowError, TypeError, ValueError):
            raise PrivmaskError(f"config entry {key!r} has an invalid value {value!r}") from None

    a = pick(args.a, "a", convert=_real)
    k = pick(args.k, "k", convert=_real)
    if a is None or k is None:
        raise PrivmaskError("both --a and --k are required (flag or config file)")

    if args.lambdas is not None:
        lambdas = _parse_lambdas(args.lambdas)
    else:
        lambdas = pick(None, "lambda", _DEFAULTS["lambda"], lambda v: [_real(x) for x in v])

    # --workers has no effect; it stays accepted for existing scripts, and a
    # count below 1 is refused
    workers = pick(args.workers, "workers", _DEFAULTS["workers"], _integral)
    if workers < 1:
        raise NonPositiveCount(f"--workers must be >= 1, got {workers}")
    return RunConfig(
        command=args.command,
        a=a,
        k=k,
        w=pick(args.w, "w", _DEFAULTS["w"], _real),
        q=pick(args.q, "q", _DEFAULTS["q"], _real),
        r=pick(args.r, "r", _DEFAULTS["r"], _real),
        m=pick(args.m, "m", _DEFAULTS["m"], _real),
        n=pick(args.n, "n", _DEFAULTS["n"], _real),
        alpha=pick(args.alpha, "alpha", convert=_real),
        lambdas=lambdas,
        horizon=pick(args.horizon, "T", _T_DEFAULTS.get(args.command), _integral),
        trajectories=pick(args.trajectories, "trajectories", _DEFAULTS["trajectories"],
                          _integral),
        seed=pick(args.seed, "seed", _DEFAULTS["seed"], _integral),
        m_range=_parse_range(pick(args.m_range, "m_range", _DEFAULTS["m_range"]), "m-range"),
        n_range=_parse_range(pick(args.n_range, "n_range", _DEFAULTS["n_range"]), "n-range"),
        alpha_range=_parse_range(pick(args.alpha_range, "alpha_range", _DEFAULTS["alpha_range"]),
                                 "alpha-range"),
        output=pick(args.output, "output", convert=_accept(lambda v: isinstance(v, str))),
        fmt=pick(args.fmt, "format", convert=_accept(lambda v: v in ("csv", "json"))),
        bits=pick(args.bits, "bits", False, _accept(lambda v: isinstance(v, bool))),
    )


# ---------------------------------------------------------------- output


def _plain(value, bits: bool):
    """``value`` in plain JSON types, with units and divergence decided here alone.

    Under ``bits``, a ``*_nats`` key becomes ``*_bits`` and its number is
    divided by ln 2.  numpy's float64 scalars become Python floats, and
    infinities the strings ``"inf"`` and ``"-inf"``.
    """
    if isinstance(value, float):  # numpy's float64 is a float subclass: the common case first
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(value)
    if isinstance(value, dict):
        out = {}
        for key, v in value.items():
            if bits and key.endswith("_nats"):
                key, v = key[:-len("_nats")] + "_bits", v / LN2
            out[key] = _plain(v, bits)
        return out
    if isinstance(value, list):
        return [_plain(v, bits) for v in value]
    return value


def _emit(cfg: RunConfig, report: dict, table: str | None = None) -> None:
    """Write ``report`` as JSON, or as CSV of the rows ``report[table]`` unless ``--format json``."""
    report = _plain(report, cfg.bits)
    if table is None or cfg.fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        rows = report[table]
        lines = ["# schema=1", ",".join(rows[0])]
        # str of a float is its shortest round-trip form, as repr is
        lines += [",".join(["true" if v is True else "false" if v is False else str(v)
                            for v in row.values()]) for row in rows]
        text = "\n".join(lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


# ------------------------------------------------------------- commands


def cmd_analyze(cfg: RunConfig) -> int:
    sysp, masks = cfg.system, cfg.masks
    rates = mi_rate(sysp, masks)
    _emit(cfg, {
        "sigma": solve_are(cfg.a, cfg.m + cfg.w, cfg.n),
        "uplink_nats": rates.uplink,
        "downlink_nats": rates.downlink,
        "mi_nats": rates.total,
        "cost": control_cost_rate(sysp, masks).cost,
        "diagnostics": boundary_diagnostics(masks, cfg.w).value,
    })
    return 0


def cmd_grid(cfg: RunConfig) -> int:
    sysp = cfg.system
    m_lo, m_hi, m_count = cfg.m_range
    n_lo, n_hi, n_count = cfg.n_range
    rows = []
    for m in np.linspace(m_lo, m_hi, m_count):
        for n in np.linspace(n_lo, n_hi, n_count):
            masks = MaskParams(m=float(m), n=float(n))
            p = masks.m + sysp.w
            if p > 0:
                alpha = masks.n / p
            else:
                alpha = math.inf if masks.n > 0 else 0.0
            rates = mi_rate(sysp, masks)
            rows.append({"m": masks.m, "n": masks.n, "alpha": alpha,
                         "sigma": solve_are(sysp.a, p, masks.n),
                         "uplink_nats": rates.uplink, "downlink_nats": rates.downlink,
                         "mi_nats": rates.total, "cost": control_cost_rate(sysp, masks).cost})
    _emit(cfg, {"schema": 1, "rows": rows}, table="rows")
    return 0


def cmd_alpha_sweep(cfg: RunConfig) -> int:
    sysp = cfg.system
    if cfg.alpha is not None:
        alphas = np.array([cfg.alpha])
    else:
        lo, hi, count = cfg.alpha_range
        if lo <= 0:
            raise PrivmaskError(f"--alpha-range lower end must be > 0, got {lo}")
        alphas = np.geomspace(lo, hi, count)
    if not np.isfinite(alphas).all():
        raise PrivmaskError("--alpha and --alpha-range must give finite ratios")
    rows = []
    for alpha in alphas:
        rates = mi_rate_from_nnr(sysp, float(alpha))
        rows.append({"alpha": float(alpha), "uplink_nats": rates.uplink,
                     "downlink_nats": rates.downlink, "mi_nats": rates.total,
                     "mi_nats_alt": mi_rate_from_nnr_alt(sysp, float(alpha))})
    _emit(cfg, {"schema": 1, "rows": rows}, table="rows")
    return 0


def cmd_design(cfg: RunConfig) -> int:
    sysp = cfg.system  # validates every parameter before the quartic reads a and k
    report = optimal_nnr(sysp.a, sysp.k)
    points = tradeoff_curve(sysp, cfg.lambdas)
    recommended = masks_from_nnr(report.alpha_star, cfg.w, cfg.m)
    if cfg.m == 0:
        _sys.stderr.write(
            "warning: recommended masks use m = 0; the achieved noise ratio is then "
            "maximally sensitive to errors in w (pass --m to add a downlink mask)\n")
    _emit(cfg, {
        "alpha_star": report.alpha_star,
        "residual": report.residual,
        "mi_min_nats": report.mi_min,
        "tradeoff": [
            {"lambda": pt.lam, "alpha": pt.alpha, "mi_nats": pt.mi,
             "cost": pt.cost, "objective": pt.objective, "at_boundary": pt.at_boundary}
            for pt in points
        ],
        "recommended": {"m": recommended.m, "n": recommended.n},
    })
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    from .simulation import simulate_moments  # loads scipy; no other command needs it

    sysp, masks = cfg.system, cfg.masks
    (cost, cost_se), (sigma, sigma_se) = simulate_moments(
        sysp, masks, cfg.horizon, cfg.trajectories, cfg.seed, cfg.q, cfg.r)
    cf_cost = control_cost_rate(sysp, masks).cost
    cf_sigma = solve_are(cfg.a, cfg.m + cfg.w, cfg.n)
    ok = abs(cost - cf_cost) <= 3 * cost_se and abs(sigma - cf_sigma) <= 3 * sigma_se
    _emit(cfg, {
        "empirical_cost": cost,
        "cost_stderr": cost_se,
        "closed_form_cost": cf_cost,
        "empirical_sigma": sigma,
        "sigma_stderr": sigma_se,
        "closed_form_sigma": cf_sigma,
        "pass": bool(ok),
    })
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    report = consistency_report(cfg.system, cfg.masks, cfg.horizon)
    checks = [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "abs_err": c.abs_err,
               "pass": bool(c.passed), "gating": not c.informational} for c in report]
    _emit(cfg, {"tolerance": CHECK_TOL, "checks": checks}, table="checks")
    return 0 if all(c.passed for c in report if not c.informational) else 1


_COMMANDS = {
    "analyze": cmd_analyze,
    "grid": cmd_grid,
    "alpha-sweep": cmd_alpha_sweep,
    "design": cmd_design,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}

# analyze/design/simulate emit structured reports, not tables
_JSON_ONLY = {"analyze", "design", "simulate"}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_join_negative_values(_sys.argv[1:] if argv is None else argv))
        cfg = load_config(args)
        if cfg.command in _JSON_ONLY and cfg.fmt == "csv":
            raise PrivmaskError(f"{cfg.command} emits a JSON report; --format csv is not available")
        # overflow shows in-band as inf or as a typed error, never as numpy's warnings
        with np.errstate(all="ignore"):
            return _COMMANDS[cfg.command](cfg)
    except (PrivmaskError, OSError) as exc:
        kind = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        _sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
