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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .design import boundary_diagnostics, masks_from_nnr, tradeoff_curve
from .errors import NonPositiveCount, PrivmaskError
from .oracle import CHECK_TOL, consistency_report
from .params import MaskParams, SystemParams
from .rates import control_cost_rate, mi_rate, mi_rate_from_nnr, mi_rate_from_nnr_alt
from .riccati import solve_are

LN2 = math.log(2.0)
_FORMATS = ("csv", "json")

# argparse reads only "-1" and "-0.5" as negative numbers and takes "-1e-9"
# for an unknown option; this form also admits an exponent
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_FLAG = re.compile(r"--[A-Za-z][\w-]*")


def _parse_range(text) -> tuple:
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except (AttributeError, ValueError):
        raise PrivmaskError(f"must be lo:hi:count, got {text!r}") from None
    if count < 1 or hi < lo:
        raise PrivmaskError(f"needs hi >= lo and count >= 1, got {text!r}")
    return lo, hi, count


def _parse_lambdas(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise PrivmaskError(f"must be a comma-separated float list, got {text!r}") from None


def _real(value) -> float:
    """A float from a number or a numeric string; never from a bool."""
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


def _reals(value) -> list:
    """A list of floats from a list of numbers or numeric strings; never from a string."""
    if not isinstance(value, list):
        raise TypeError(value)
    return [_real(x) for x in value]


def _integral(value) -> int:
    """An int, or a float with an integral value; never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _at_least_one(value) -> int:
    count = _integral(value)
    if count < 1:
        raise NonPositiveCount(f"must be >= 1, got {count}")
    return count


def _accept(test):
    """A converter that passes a value through when ``test`` accepts it."""
    def convert(value):
        if not test(value):
            raise ValueError(value)
        return value
    return convert


class _Option(NamedTuple):
    """A shared option; ``key`` names its config entry (``None`` for ``--config``).

    ``convert`` checks a config entry and sets the flag's type (``_FLAG_TYPES``);
    ``...`` as ``default`` marks a required option; ``metavar`` names the value in ``--help``.
    """

    flag: str
    key: str | None
    default: object
    convert: Callable | None
    help: str
    metavar: str | None = None


_OPTIONS = (
    _Option("--a", "a", ..., _real, "state coefficient (required)"),
    _Option("--k", "k", ..., _real, "feedback gain, nonzero (required)"),
    _Option("--w", "w", 0.05, _real, "process-noise variance"),
    _Option("--q", "q", 1.0, _real, "state cost weight"),
    _Option("--r", "r", 1.0, _real, "input cost weight"),
    _Option("--m", "m", 0.0, _real, "downlink mask variance"),
    _Option("--n", "n", 0.05, _real, "uplink mask variance"),
    _Option("--alpha", "alpha", None, _real, "noise-to-noise ratio for single-point sweeps"),
    # a comma-separated string as a flag, a list of numbers in the config file
    _Option("--lambda", "lambda", [0.0], _reals, "comma-separated trade-off weights", "LAMBDAS"),
    _Option("--T", "T", {"simulate": 100_000, "verify": 10}, _integral,
            "horizon / number of steps", "HORIZON"),
    _Option("--trajectories", "trajectories", 64, _integral, "Monte Carlo trajectory count"),
    _Option("--seed", "seed", 7, _integral, "random seed"),
    _Option("--workers", "workers", 1, _at_least_one,
            "accepted for compatibility, must be >= 1; has no effect"),
    _Option("--m-range", "m_range", "0.01:0.5:50", _parse_range, "lo:hi:count (linear)"),
    _Option("--n-range", "n_range", "0.01:0.5:50", _parse_range, "lo:hi:count (linear)"),
    _Option("--alpha-range", "alpha_range", "0.01:100:601", _parse_range,
            "lo:hi:count (log-spaced)"),
    _Option("--config", None, None, None, "JSON config file; flags override its entries"),
    _Option("--output", "output", None, _accept(lambda v: isinstance(v, str)),
            "output path (default: stdout)"),
    _Option("--format", "format", None, _accept(lambda v: v in _FORMATS), "output format"),
    _Option("--bits", "bits", False, _accept(lambda v: isinstance(v, bool)),
            "report information in bits instead of nats"),
)
_FLAG_TYPES = {_real: float, _integral: int, _at_least_one: int}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are typed errors; its subparsers are ``_Parser`` too."""

    def error(self, message):
        raise PrivmaskError(message)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    g = shared.add_argument_group("parameters")
    for opt in _OPTIONS:
        if opt.key == "bits":
            kind = {"action": "store_true", "default": None}
        else:
            kind = {"type": _FLAG_TYPES.get(opt.convert, str), "metavar": opt.metavar,
                    "choices": _FORMATS if opt.key == "format" else None}
        g.add_argument(opt.flag, dest=opt.key, help=opt.help, **kind)

    parser = _Parser(
        prog="privmask",
        description="Privacy-mask analysis and design for cloud-controlled scalar plants.",
    )
    parser.add_argument("--version", action="version", version=f"privmask {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[shared], help=help_text)
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


def load_config(args: argparse.Namespace) -> dict:
    """Every option's value by config key: flag, else config entry, else default, converted.

    An entry of ``null`` counts as absent; an entry with no option is an error.
    """
    file_cfg = {}
    if args.config is not None:
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as exc:
                raise PrivmaskError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise PrivmaskError(f"config file must hold a JSON object, got {type(file_cfg).__name__}")
        unknown = sorted(file_cfg.keys() - {opt.key for opt in _OPTIONS})
        if unknown:
            raise PrivmaskError(f"config file has entries that name no option: {unknown}")

    cfg = {}
    for opt in _OPTIONS:
        if opt.key is None:
            continue
        flag = getattr(args, opt.key)
        value = file_cfg.get(opt.key) if flag is None else flag
        if value is None:
            value = opt.default.get(args.command) if opt.key == "T" else opt.default
        if value is ...:
            raise PrivmaskError("both --a and --k are required (flag or config file)")
        try:
            if flag is not None and opt.key == "lambda":
                value = _parse_lambdas(flag)
            cfg[opt.key] = None if value is None else opt.convert(value)
        except PrivmaskError as exc:  # the message of a range, lambda or count check lacks the flag
            raise type(exc)(f"{opt.flag} {exc}") from None
        except (OverflowError, TypeError, ValueError):
            raise PrivmaskError(f"config entry {opt.key!r} has an invalid value {value!r}") from None
    return cfg


def _system(cfg: dict) -> SystemParams:
    return SystemParams(a=cfg["a"], k=cfg["k"], w=cfg["w"], q=cfg["q"], r=cfg["r"])


def _masks(cfg: dict) -> MaskParams:
    return MaskParams(m=cfg["m"], n=cfg["n"])


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


def _emit(cfg: dict, report: dict, table: str | None = None) -> None:
    """Write ``report`` as JSON, or as CSV of the rows ``report[table]`` unless ``--format json``."""
    report = _plain(report, cfg["bits"])
    if table is None or cfg["format"] == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        rows = report[table]
        lines = ["# schema=1", ",".join(rows[0])]
        # str of a float is its shortest round-trip form, as repr is
        lines += [",".join(["true" if v is True else "false" if v is False else str(v)
                            for v in row.values()]) for row in rows]
        text = "\n".join(lines) + "\n"
    if cfg["output"]:
        with open(cfg["output"], "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


# ------------------------------------------------------------- commands


def _closed_forms(sysp: SystemParams, masks: MaskParams) -> dict:
    """The columns ``analyze`` and ``grid`` share: sigma, the three flows and the cost."""
    rates = mi_rate(sysp, masks)
    return {"sigma": solve_are(sysp.a, masks.m + sysp.w, masks.n),
            "uplink_nats": rates.uplink, "downlink_nats": rates.downlink,
            "mi_nats": rates.total, "cost": control_cost_rate(sysp, masks)}


def cmd_analyze(cfg: dict) -> int:
    sysp, masks = _system(cfg), _masks(cfg)
    _emit(cfg, {**_closed_forms(sysp, masks),
                "diagnostics": boundary_diagnostics(masks, cfg["w"]).value})
    return 0


def cmd_grid(cfg: dict) -> int:
    sysp = _system(cfg)
    m_lo, m_hi, m_count = cfg["m_range"]
    n_lo, n_hi, n_count = cfg["n_range"]
    rows = []
    for m in np.linspace(m_lo, m_hi, m_count):
        for n in np.linspace(n_lo, n_hi, n_count):
            masks = MaskParams(m=float(m), n=float(n))
            p = masks.m + sysp.w
            if p > 0:
                alpha = masks.n / p
            else:
                alpha = math.inf if masks.n > 0 else 0.0
            rows.append({"m": masks.m, "n": masks.n, "alpha": alpha,
                         **_closed_forms(sysp, masks)})
    _emit(cfg, {"schema": 1, "rows": rows}, table="rows")
    return 0


def cmd_alpha_sweep(cfg: dict) -> int:
    sysp = _system(cfg)
    if cfg["alpha"] is not None:
        alphas = np.array([cfg["alpha"]])
    else:
        lo, hi, count = cfg["alpha_range"]
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


def cmd_design(cfg: dict) -> int:
    report = tradeoff_curve(_system(cfg), cfg["lambda"])
    recommended = masks_from_nnr(report.alpha_star, cfg["w"], cfg["m"])
    if cfg["m"] == 0:
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
            for pt in report.tradeoff
        ],
        "recommended": {"m": recommended.m, "n": recommended.n},
    })
    return 0


def cmd_simulate(cfg: dict) -> int:
    from .simulation import simulate_moments  # loads scipy; no other command needs it

    sysp, masks = _system(cfg), _masks(cfg)
    (cost, cost_se), (sigma, sigma_se) = simulate_moments(
        sysp, masks, cfg["T"], cfg["trajectories"], cfg["seed"])
    cf_cost = control_cost_rate(sysp, masks)
    cf_sigma = solve_are(cfg["a"], cfg["m"] + cfg["w"], cfg["n"])
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


def cmd_verify(cfg: dict) -> int:
    report = consistency_report(_system(cfg), _masks(cfg), cfg["T"])
    checks = [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "abs_err": c.abs_err,
               "pass": bool(c.passed), "gating": not c.informational} for c in report]
    _emit(cfg, {"tolerance": CHECK_TOL, "checks": checks}, table="checks")
    return 0 if all(c.passed for c in report if not c.informational) else 1


# each command's function, its help, and whether it emits a table (else a JSON report)
_COMMANDS = {
    "analyze": (cmd_analyze, "closed-form rates and cost at one point", False),
    "grid": (cmd_grid, "rate/cost surface over an (m, n) grid", True),
    "alpha-sweep": (cmd_alpha_sweep, "rate as a function of the noise ratio", True),
    "design": (cmd_design, "optimal ratio, trade-off curve, masks", False),
    "simulate": (cmd_simulate, "Monte Carlo validation of cost and sigma", False),
    "verify": (cmd_verify, "exact-oracle consistency checks", True),
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_join_negative_values(_sys.argv[1:] if argv is None else argv))
        cfg = load_config(args)
        run, _, tabular = _COMMANDS[args.command]
        if not tabular and cfg["format"] == "csv":
            raise PrivmaskError(f"{args.command} emits a JSON report; --format csv is not available")
        # overflow shows in-band as inf or as a typed error, never as numpy's warnings
        with np.errstate(all="ignore"):
            return run(cfg)
    except (PrivmaskError, OSError, MemoryError) as exc:
        # FileNotFoundError reports as OSError, numpy's refused allocation as MemoryError
        kind = next(c for c in (OSError, MemoryError, type(exc)) if isinstance(exc, c)).__name__
        _sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
