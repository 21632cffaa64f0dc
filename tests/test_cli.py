import contextlib
import io
import json
import math
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from privmask import cli, design, oracle
from privmask.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestAnalyze:
    def test_anchor_report(self, capsys):
        doc = run_json(capsys, "analyze", "--a", "1", "--k", "-1", "--w", "0.05",
                       "--m", "0", "--n", "0.05", "--q", "1", "--r", "1")
        assert doc["mi_nats"] == pytest.approx(0.827786, abs=1e-6)
        assert doc["cost"] == pytest.approx(0.25)
        assert doc["sigma"] == pytest.approx(0.0809017, abs=1e-7)
        assert doc["diagnostics"] == "ok"

    def test_divergent_uplink_serializes_inf(self, capsys):
        code, out, err = run(capsys, "analyze", "--a", "1", "--k", "-1",
                             "--w", "0.05", "--m", "0", "--n", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["mi_nats"] == "inf"
        assert doc["uplink_nats"] == "inf"
        assert doc["diagnostics"] == "uplink_unbounded"

    def test_finite_root_whose_sum_overflows(self, capsys):
        doc = run_json(capsys, "analyze", "--a", "1", "--k", "-1", "--m", "1e308",
                       "--w", "0", "--n", "1")
        assert doc["sigma"] == 1e308
        assert doc["uplink_nats"] == pytest.approx(0.5 * math.log(1e308), rel=1e-15)

    def test_zero_gain_is_a_machine_readable_error(self, capsys):
        code, out, err = run(capsys, "analyze", "--a", "1", "--k", "0")
        assert code == 2
        assert json.loads(err)["error"] == "ZeroGain"

    def test_bits_conversion(self, capsys):
        nats = run_json(capsys, "analyze", "--a", "1", "--k", "-1")
        bits = run_json(capsys, "analyze", "--a", "1", "--k", "-1", "--bits")
        assert bits["mi_bits"] == pytest.approx(nats["mi_nats"] / math.log(2), rel=1e-15)
        assert "mi_nats" not in bits
        assert bits["cost"] == nats["cost"]

    @pytest.mark.parametrize("flag, value", [("--k", "-1e-9"), ("--n", "-2e-3"),
                                             ("--k", "-1.5E+2"), ("--k", "-.5e-1")])
    def test_negative_scientific_value_after_a_space(self, capsys, flag, value):
        base = ["analyze", "--a", "1", "--k", "-1"]
        spaced = run(capsys, *base, flag, value)
        joined = run(capsys, *base, f"{flag}={value}")
        assert spaced == joined
        assert "expected one argument" not in spaced[2]

    def test_missing_required_params(self, capsys):
        code, out, err = run(capsys, "analyze", "--k", "-1")
        assert code == 2
        assert "error" in json.loads(err)


# the flags every run of a command starts from, small enough to be quick
OPTION_BASE = {
    "analyze": ["--a", "1", "--k", "-1"],
    "grid": ["--a", "1", "--k", "-1", "--m-range", "0:0.3:3", "--n-range", "0:0.3:3"],
    "alpha-sweep": ["--a", "1", "--k", "-1", "--alpha-range", "0.01:100:5"],
    "design": ["--a", "0.5", "--k", "-0.4"],
    "simulate": ["--a", "0.5", "--k", "-0.4", "--T", "1200", "--trajectories", "2"],
    "verify": ["--a", "1", "--k", "-1", "--T", "5"],
}
# one case per config entry: a command that reads it, its flag form and its config form;
# "OUT" stands for a path in the test's temporary directory
OPTION_CASES = [
    ("a", "analyze", ["--a", "0.5"], 0.5),
    ("k", "analyze", ["--k", "-0.4"], -0.4),
    ("w", "analyze", ["--w", "0.2"], 0.2),
    ("q", "analyze", ["--q", "2"], 2),
    ("r", "analyze", ["--r", "3"], 3),
    ("m", "analyze", ["--m", "0.1"], 0.1),
    ("n", "analyze", ["--n", "0.3"], 0.3),
    ("alpha", "alpha-sweep", ["--alpha", "0.7"], 0.7),
    ("lambda", "design", ["--lambda", "0.5,2"], [0.5, 2]),
    ("T", "verify", ["--T", "3"], 3),
    ("trajectories", "simulate", ["--trajectories", "3"], 3),
    ("seed", "simulate", ["--seed", "11"], 11),
    ("workers", "simulate", ["--workers", "0"], 0),
    ("m_range", "grid", ["--m-range", "0:0.2:2"], "0:0.2:2"),
    ("n_range", "grid", ["--n-range", "0:0.2:2"], "0:0.2:2"),
    ("alpha_range", "alpha-sweep", ["--alpha-range", "0.1:10:3"], "0.1:10:3"),
    ("output", "analyze", ["--output", "OUT"], "OUT"),
    ("format", "verify", ["--format", "json"], "json"),
    ("bits", "analyze", ["--bits"], True),
]


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a": 1, "k": -1, "n": 0.4}))
        doc_cfg = run_json(capsys, "analyze", "--config", str(cfg))
        doc_flag = run_json(capsys, "analyze", "--config", str(cfg), "--n", "0.05")
        assert doc_cfg["sigma"] != doc_flag["sigma"]
        assert doc_flag["sigma"] == pytest.approx(0.0809017, abs=1e-7)

    def test_config_equivalent_to_flags_byte_for_byte(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"a": 1, "k": -1, "w": 0.05, "m": 0.0, "n": 0.05, "q": 1, "r": 1}))
        _, out_cfg, _ = run(capsys, "analyze", "--config", str(cfg))
        _, out_flags, _ = run(capsys, "analyze", "--a", "1", "--k", "-1", "--w", "0.05",
                              "--m", "0", "--n", "0.05", "--q", "1", "--r", "1")
        assert out_cfg == out_flags

    def test_typed_entries_still_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a": 1, "k": -1, "T": 3.0, "format": "json", "bits": True}))
        _, out_cfg, _ = run(capsys, "verify", "--config", str(cfg))
        _, out_flags, _ = run(capsys, "verify", "--a", "1", "--k", "-1", "--T", "3",
                              "--format", "json", "--bits")
        assert out_cfg == out_flags != ""

    @pytest.mark.parametrize("key, command, flag, entry", OPTION_CASES,
                             ids=[case[0] for case in OPTION_CASES])
    def test_each_entry_equals_its_flag(self, capsys, tmp_path, key, command, flag, entry):
        out_path = tmp_path / "out.txt"
        flag = [str(out_path) if token == "OUT" else token for token in flag]
        entry = str(out_path) if entry == "OUT" else entry
        base = list(OPTION_BASE[command])
        if flag[0] in base:
            del base[base.index(flag[0]):base.index(flag[0]) + 2]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: entry}))

        def outcome(*extra):
            result = run(capsys, command, *base, *extra)
            written = out_path.read_text() if out_path.exists() else None
            out_path.unlink(missing_ok=True)
            return result, written

        via_flag = outcome(*flag)
        assert outcome("--config", str(cfg)) == via_flag
        assert outcome() != via_flag  # the option changes the run

    def test_every_option_has_a_case(self):
        assert [case[0] for case in OPTION_CASES] == [opt.key for opt in cli._OPTIONS
                                                      if opt.key is not None]

    def test_bad_config_shape(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2, 3]")
        code, _, err = run(capsys, "analyze", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("command, text", [
        ("analyze", '{"a": 1, "k": -1,'),
        ("analyze", '{"a": 1, "k": -1, "n": "abc"}'),
        ("design", '{"a": 1, "k": -1, "lambda": 5}'),
        ("analyze", '{"a": 1, "k": -1, "output": 5}'),
        ("verify", '{"a": 1, "k": -1, "T": 1.7}'),
        ("verify", '{"a": 1, "k": -1, "T": true}'),
        ("grid", '{"a": 1, "k": -1, "format": "xml"}'),
        ("analyze", '{"a": 1, "k": -1, "bits": "false"}'),
        ("analyze", '{"a": 1, "k": -1, "n": true}'),
        ("design", '{"a": 1, "k": -1, "lambda": "0,1"}'),
        ("verify", '{"a": 1, "k": -1, "T": "3"}'),
        ("grid", '{"a": 1, "k": -1, "m-range": "0:0:1"}'),
        ("analyze", '{"a": 1, "k": -1, "nn": 0.1}'),
        ("design", '{"a": 0.5, "k": -0.4, "lambda": "10"}'),
        ("design", '{"a": 0.5, "k": -0.4, "lambda": {"1": 0}}'),
    ], ids=["malformed-json", "non-numeric-entry", "non-list-lambda", "non-string-output",
            "fractional-integer", "boolean-integer", "unknown-format", "non-boolean-bits",
            "boolean-number", "string-lambda", "string-integer", "flag-spelled-key",
            "unknown-key", "digit-string-lambda", "object-lambda"])
    def test_malformed_config_is_a_typed_error(self, capsys, tmp_path, command, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "PrivmaskError"


class TestGrid:
    def test_single_cell_matches_analyze(self, capsys):
        doc = run_json(capsys, "analyze", "--a", "1", "--k", "-1")
        code, out, _ = run(capsys, "grid", "--a", "1", "--k", "-1",
                           "--m-range", "0:0:1", "--n-range", "0.05:0.05:1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# schema=1"
        assert lines[1] == "m,n,alpha,sigma,uplink_nats,downlink_nats,mi_nats,cost"
        row = lines[2].split(",")
        assert float(row[3]) == doc["sigma"]
        assert float(row[6]) == doc["mi_nats"]
        assert float(row[7]) == doc["cost"]

    def test_boundary_cells_carry_inf(self, capsys):
        code, out, _ = run(capsys, "grid", "--a", "1", "--k", "-1",
                           "--m-range", "0:0:1", "--n-range", "0:0.05:2")
        rows = out.strip().split("\n")[2:]
        assert rows[0].split(",")[6] == "inf"  # n = 0 cell
        assert rows[1].split(",")[6] != "inf"

    @pytest.mark.parametrize("a", ["0.5", "1", "1.5", "-2"])
    def test_noise_free_corner_cell_is_zero(self, capsys, a):
        # m = n = w = 0: the state stays at 0 whatever the plant
        flags = ("--a", a, "--k", "0.3", "--w", "0")
        doc = run_json(capsys, "analyze", *flags, "--m", "0", "--n", "0")
        assert (doc["sigma"], doc["mi_nats"], doc["cost"]) == (0.0, 0.0, 0.0)
        code, out, _ = run(capsys, "grid", *flags, "--m-range", "0:0:1", "--n-range", "0:0:1")
        row = out.strip().split("\n")[2].split(",")
        assert code == 0
        assert [float(row[i]) for i in (3, 6, 7)] == [0.0, 0.0, 0.0]

    def test_constant_rate_along_ratio_lines(self, capsys):
        alpha = 0.7
        vals = []
        for m in (0.0, 0.1, 0.2, 0.3, 0.4):
            n = alpha * (m + 0.05)
            code, out, _ = run(capsys, "grid", "--a", "1", "--k", "-1", "--w", "0.05",
                               "--m-range", f"{m}:{m}:1", "--n-range", f"{n}:{n}:1")
            vals.append(float(out.strip().split("\n")[2].split(",")[6]))
        assert max(vals) - min(vals) <= 1e-12

    def test_row_minima_track_design_line(self, capsys):
        code, out, _ = run(capsys, "grid", "--a", "1", "--k", "-1", "--w", "0.05",
                           "--m-range", "0.01:0.5:50", "--n-range", "0.01:0.5:50")
        data = np.array([[float(v) for v in ln.split(",")]
                         for ln in out.strip().split("\n")[2:]])
        m = data[:, 0].reshape(50, 50)
        n = data[:, 1].reshape(50, 50)
        mi = data[:, 6].reshape(50, 50)
        astar = 0.8846461771193157
        step = n[0, 1] - n[0, 0]
        for i in range(50):
            j = int(np.argmin(mi[i]))
            assert abs(n[i, j] - astar * (m[i, 0] + 0.05)) <= step

    def test_bits_applies_to_rate_columns_only(self, capsys):
        _, out_n, _ = run(capsys, "grid", "--a", "1", "--k", "-1",
                          "--m-range", "0:0:1", "--n-range", "0.05:0.05:1")
        _, out_b, _ = run(capsys, "grid", "--a", "1", "--k", "-1",
                          "--m-range", "0:0:1", "--n-range", "0.05:0.05:1", "--bits")
        head_n = out_n.strip().split("\n")[1].split(",")
        head_b = out_b.strip().split("\n")[1].split(",")
        assert head_b == [h.replace("_nats", "_bits") for h in head_n]
        row_n = [float(v) for v in out_n.strip().split("\n")[2].split(",")]
        row_b = [float(v) for v in out_b.strip().split("\n")[2].split(",")]
        assert row_b[6] == pytest.approx(row_n[6] / math.log(2), rel=1e-15)
        assert row_b[7] == row_n[7]  # cost untouched

    def test_bad_range_is_exit_2(self, capsys):
        code, _, err = run(capsys, "grid", "--a", "1", "--k", "-1", "--m-range", "oops")
        assert code == 2


class TestAlphaSweep:
    def test_minimum_near_optimal_ratio(self, capsys):
        code, out, _ = run(capsys, "alpha-sweep", "--a", "1", "--k", "-1",
                           "--alpha-range", "0.01:100:601")
        lines = out.strip().split("\n")
        assert lines[1] == "alpha,uplink_nats,downlink_nats,mi_nats,mi_nats_alt"
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
        i = int(np.argmin(data[:, 3]))
        assert data[i, 0] == pytest.approx(0.885, abs=0.02)
        assert data[i, 3] == pytest.approx(0.8262, abs=1e-3)
        assert data[0, 3] > data[i, 3] and data[-1, 3] > data[i, 3]

    def test_factoring_case(self, capsys):
        code, out, _ = run(capsys, "alpha-sweep", "--a", "0", "--k", "0.5",
                           "--alpha-range", "0.01:100:601")
        data = np.array([[float(v) for v in ln.split(",")]
                         for ln in out.strip().split("\n")[2:]])
        i = int(np.argmin(data[:, 3]))
        assert data[i, 0] == pytest.approx(2.0, rel=0.02)
        assert data[i, 3] == pytest.approx(math.log(1.5), abs=1e-4)

    def test_single_point_via_alpha_flag(self, capsys):
        code, out, _ = run(capsys, "alpha-sweep", "--a", "1", "--k", "-1", "--alpha", "1")
        rows = out.strip().split("\n")[2:]
        assert len(rows) == 1
        assert float(rows[0].split(",")[3]) == pytest.approx(0.827785, abs=1e-5)


class TestDesign:
    def test_factoring_case_report(self, capsys):
        doc = run_json(capsys, "design", "--a", "0", "--k", "0.5", "--w", "0.05")
        assert doc["alpha_star"] == pytest.approx(2.0, abs=1e-9)
        assert doc["mi_min_nats"] == pytest.approx(0.405465, abs=1e-6)
        assert doc["recommended"]["m"] == 0.0
        assert doc["recommended"]["n"] == pytest.approx(0.1, rel=1e-9)

    def test_tradeoff_list(self, capsys):
        doc = run_json(capsys, "design", "--a", "1", "--k", "-1", "--w", "0.05",
                       "--lambda", "0,1")
        alphas = [pt["alpha"] for pt in doc["tradeoff"]]
        assert alphas[0] == pytest.approx(0.88465, abs=1e-4)
        assert alphas[1] == pytest.approx(0.59, abs=0.01)

    def test_zero_process_noise_with_tradeoff(self, capsys):
        code, _, err = run(capsys, "design", "--a", "1", "--k", "-1", "--w", "0",
                           "--lambda", "1")
        assert code == 2
        assert json.loads(err)["error"] == "ZeroProcessNoise"

    def test_zero_downlink_mask_warns(self, capsys):
        code, out, err = run(capsys, "design", "--a", "0", "--k", "0.5", "--w", "0.05")
        assert "warning" in err

    def test_optimal_ratio_whose_square_is_subnormal(self, capsys):
        # alpha* is about 1e-152, and the search meets alpha**2 below the normal range
        code, out, _ = run(capsys, "design", "--a", "1e76", "--k", "-1e76", "--w", "1",
                           "--lambda", "0,1,1e5")
        assert code == 0
        assert json.loads(out)["alpha_star"] == pytest.approx(1e-152, rel=1e-12)

    def test_empty_lambda_list(self, capsys):
        code, _, err = run(capsys, "design", "--a", "0", "--k", "0.5", "--lambda", "")
        assert code == 2
        assert json.loads(err)["error"] == "EmptyInput"

    def test_quartic_is_solved_once(self, capsys, monkeypatch):
        solves, bracketings = [], []
        solve, coefficients = design.optimal_nnr, design.quartic_coefficients
        monkeypatch.setattr(design, "optimal_nnr", lambda a, k: solves.append(a) or solve(a, k))
        monkeypatch.setattr(design, "quartic_coefficients",
                            lambda a, k: bracketings.append(a) or coefficients(a, k))
        run_json(capsys, "design", "--a", "1", "--k", "-1", "--lambda", "0,1,10")
        assert len(solves) == len(bracketings) == 1
        assert not hasattr(cli, "optimal_nnr")

    def test_quartic_refusal_precedes_the_weight_check(self, capsys):
        code, out, err = run(capsys, "design", "--a", "2e77", "--k", "-2e77", "--lambda", "-1")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "PrivmaskError",
            "message": "the optimality quartic needs finite a^4 and k^4 > 0, got a=2e+77, k=-2e+77"}

    def test_optimal_ratio_past_1e30(self, capsys):
        # alpha* is about 5e61, far above the first bracket [0, 1]
        doc = run_json(capsys, "design", "--a", "-0.5478869477246051",
                       "--k", "-2.3903594829625453e-62", "--w", "1.32", "--lambda", "0")
        assert doc["tradeoff"][0]["alpha"] == doc["alpha_star"] > 1e30

    def test_csv_format_is_refused(self, capsys):
        code, out, err = run(capsys, "design", "--a", "1", "--k", "-1", "--format", "csv")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "PrivmaskError",
            "message": "design emits a JSON report; --format csv is not available"}


class TestSimulateCmd:
    ARGS = ("simulate", "--a", "1", "--k", "-1", "--T", "20000",
            "--trajectories", "16", "--seed", "7")

    def test_validates_against_closed_forms(self, capsys):
        doc = run_json(capsys, *self.ARGS)
        assert doc["closed_form_cost"] == pytest.approx(0.25)
        assert doc["closed_form_sigma"] == pytest.approx(0.0809017, abs=1e-7)
        assert doc["pass"] is True

    def test_byte_identical_reruns_and_workers(self, capsys):
        _, out1, _ = run(capsys, *self.ARGS)
        _, out2, _ = run(capsys, *self.ARGS)
        _, out3, _ = run(capsys, *self.ARGS, "--workers", "4")
        assert out1 == out2 == out3

    def test_unstable_rejected(self, capsys):
        code, _, err = run(capsys, "simulate", "--a", "0.9", "--k", "0.2")
        assert code == 2
        assert json.loads(err)["error"] == "UnstableClosedLoop"

    def test_noise_free_loop_passes(self, capsys):
        doc = run_json(capsys, "simulate", "--a", "1.2", "--k", "-0.5", "--w", "0",
                       "--m", "0", "--n", "0", "--T", "1500")
        assert doc["pass"] is True
        assert doc["closed_form_sigma"] == doc["empirical_sigma"] == 0.0
        assert doc["closed_form_cost"] == doc["empirical_cost"] == 0.0

    @pytest.mark.parametrize("flag", ["--trajectories", "--workers"])
    def test_zero_count_is_a_typed_error(self, capsys, flag):
        code, out, err = run(capsys, *self.ARGS, flag, "0")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "NonPositiveCount"


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--a", "1", "--k", "-1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "name,lhs,rhs,abs_err,pass,gating"
        gating = [ln for ln in lines[2:] if ln.endswith(",true") or ln.endswith(",true\r")]
        assert all(ln.split(",")[4] == "true" for ln in gating)

    def test_one_step_conservation_row(self, capsys):
        code, out, _ = run(capsys, "verify", "--a", "1", "--k", "-1", "--T", "1")
        row = [ln for ln in out.strip().split("\n")
               if ln.startswith("conservation_measurement")][0]
        _, lhs, rhs, *_ = row.split(",")
        assert float(lhs) == pytest.approx(0.693147, abs=1e-6)
        fwd = [ln for ln in out.strip().split("\n")
               if ln.startswith("forward_sum_closed_form")][0]
        assert float(fwd.split(",")[1]) == pytest.approx(0.346574, abs=1e-6)

    def test_horizon_cap_is_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--a", "1", "--k", "-1", "--T", "257")
        assert code == 2
        assert json.loads(err)["error"] == "HorizonTooLarge"

    def test_horizons_up_to_the_cap_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--a", "1", "--k", "-1", "--T", "256")
        assert code == 0
        assert len(out.strip().split("\n")) == 2 + 4 + 256 + 3

    def test_ill_conditioned_oracle_is_exit_2(self, capsys):
        # |a + k| = 1.7: the closed forms hold, but by T = 20 the oracle's
        # factorizations are too ill-conditioned to check them to 1e-9
        flags = ("--a", "1.5", "--k", "0.2", "--w", "0.2", "--m", "0.1", "--n", "0.3")
        code, out, err = run(capsys, "verify", *flags, "--T", "20")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "SingularBlock"
        code, _, _ = run(capsys, "verify", *flags, "--T", "10")
        assert code == 0

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_short_horizon_is_exit_2(self, capsys, horizon):
        code, out, err = run(capsys, "verify", "--a", "1", "--k", "-1", "--T", horizon)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "HorizonTooShort"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--a", "1", "--k", "-1", "--T", "5",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert all(c["pass"] for c in doc["checks"] if c["gating"])

    def test_csv_and_json_carry_the_same_rows(self, capsys):
        argv = ("verify", "--a", "0.7", "--k", "-0.9", "--m", "0.1", "--T", "6")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = run_json(capsys, *argv, "--format", "json")
        lines = out.splitlines()
        assert lines[0] == "# schema=1"
        header = lines[1].split(",")
        assert all(list(c) == header for c in doc["checks"])

        def cell(v):
            return str(v).lower() if isinstance(v, bool) else v if isinstance(v, str) else repr(v)

        assert [ln.split(",") for ln in lines[2:]] == [
            [cell(v) for v in c.values()] for c in doc["checks"]]


class TestOutputRoundTrip:
    def test_csv_reparses_to_full_precision(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "alpha-sweep", "--a", "1", "--k", "-1",
                         "--alpha-range", "0.5:2:7", "--output", str(path))
        assert code == 0
        text = path.read_text().strip().split("\n")
        from privmask import mi_rate_from_nnr, SystemParams
        sys_ = SystemParams(a=1, k=-1, w=0.05, q=1, r=1)
        for line in text[2:]:
            alpha, up, down, total, alt = (float(v) for v in line.split(","))
            assert mi_rate_from_nnr(sys_, alpha).total == total  # bit-exact round trip

    def test_output_file_equals_stdout(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        _, out, _ = run(capsys, "analyze", "--a", "1", "--k", "-1")
        code, empty, _ = run(capsys, "analyze", "--a", "1", "--k", "-1",
                             "--output", str(path))
        assert empty == ""
        assert path.read_text() == out


class TestParserReuse:
    CALLS = (
        ("analyze", "--a", "1", "--k", "-1"),
        ("design", "--a", "0.5", "--k", "-0.4", "--lambda", "0,1"),
        ("analyze", "--a", "1", "--k"),  # argparse error
        ("verify", "--a", "1", "--k", "-1", "--T", "3"),
        ("grid", "--a", "1", "--k", "-1", "--m-range", "0:0.1:2", "--n-range", "0:0.1:2",
         "--format", "json"),
        ("analyze", "--a", "1", "--k", "-1e-9", "--bits"),
    )

    def test_main_builds_one_parser_per_process(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            for argv in self.CALLS:
                run(capsys, *argv)
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_reused_parser_gives_the_bytes_of_fresh_ones(self, capsys):
        fresh = []
        for argv in self.CALLS:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert fresh[2][0] == 2
        assert json.loads(fresh[2][2]) == {"error": "PrivmaskError",
                                           "message": "argument --k: expected one argument"}
        for _ in range(2):
            assert [run(capsys, *argv) for argv in self.CALLS] == fresh


class TestLazySimulation:
    def test_only_simulate_loads_scipy(self):
        # a fresh interpreter, since this test process has imported scipy
        code = textwrap.dedent("""
            import contextlib, io, sys
            import privmask, privmask.cli
            privmask.cli.build_parser()
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in (["analyze", "--a", "1", "--k", "-1"],
                             ["design", "--a", "0.5", "--k", "-0.4", "--lambda", "0,1"],
                             ["verify", "--a", "1", "--k", "-1", "--T", "5"]):
                    assert privmask.cli.main(argv) == 0, argv
            assert "scipy" not in sys.modules
            assert "concurrent.futures" not in sys.modules
            assert privmask.simulate_moments is privmask.simulation.simulate_moments
            from privmask import TrajectoryBatch
            from privmask import *
            assert simulate is privmask.simulation.simulate
            assert "scipy" in sys.modules
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr

    @staticmethod
    def footprint(*argvs):
        """Exit codes of ``main`` on ``argvs`` in a fresh interpreter, then whether numpy
        and scipy were loaded; every layer module must be loaded by ``import privmask.cli``."""
        code = textwrap.dedent(f"""
            import contextlib, io, json, sys
            import privmask, privmask.cli
            privmask.cli.build_parser()
            layers = ("params", "riccati", "rates", "design", "oracle")
            assert all("privmask." + m in sys.modules for m in layers)
            codes = []
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                for argv in {[list(argv) for argv in argvs]!r}:
                    try:
                        codes.append(privmask.cli.main(argv))
                    except SystemExit as exc:
                        codes.append(exc.code)
            print(json.dumps([codes, "numpy" in sys.modules, "scipy" in sys.modules]))
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_closed_form_commands_load_neither_numpy_nor_scipy(self):
        codes, numpy_loaded, scipy_loaded = self.footprint(
            ["analyze", "--a", "1", "--k", "-1"],
            ["design", "--a", "0.5", "--k", "-0.4", "--lambda", "0,1"],
            ["--version"], ["verify", "--help"],
            ["analyze", "--a", "1", "--k", "-1", "--T", "1.5"])
        assert codes == [0, 0, 0, 0, 2]
        assert not numpy_loaded and not scipy_loaded

    @pytest.mark.parametrize("argv", [
        ["verify", "--a", "1", "--k", "-1", "--T", "5"],
        ["grid", "--a", "1", "--k", "-1", "--m-range", "0:1:2", "--n-range", "0.1:1:2"],
        ["alpha-sweep", "--a", "1", "--k", "-1", "--alpha-range", "0.1:10:3"],
    ], ids=["verify", "grid", "alpha-sweep"])
    def test_array_commands_load_numpy_only(self, argv):
        assert self.footprint(argv) == [[0], True, False]

    def test_simulate_loads_numpy_and_scipy(self):
        argv = ["simulate", "--a", "0.5", "--k", "-0.4", "--T", "1200", "--trajectories", "2"]
        assert self.footprint(argv) == [[0], True, True]

    def test_overflow_in_the_first_array_command_warns_nothing(self):
        # np.linspace overflows to nan here, and under -W error a warning would end in a traceback
        argv = ["grid", "--a", "0.5", "--k", "-0.3", "--m-range=-1e308:1e308:3",
                "--n-range", "0.1:0.2:1"]
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "privmask.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines() == [json.dumps(
            {"error": "PrivmaskError", "message": "m must be finite, got nan"})]

    def test_pivot_tolerance_is_numpys_epsilon(self):
        assert oracle.PIVOT_RTOL == 10 * np.finfo(float).eps / oracle.CHECK_TOL


class TestGoldenOutputs:
    """Replays small invocations against stdout recorded in ``data/cli_golden.json``.

    A refactor that must keep outputs identical has to keep these bytes.
    ``verify`` is left out: its last bits depend on the LAPACK build
    (``TestVerify`` checks that its CSV and JSON forms agree instead).
    """

    @pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
    def test_stdout_is_unchanged(self, capsys, case):
        code, out, _ = run(capsys, *case["argv"])
        assert code == case["exit"]
        assert out == case["stdout"]


NUMBERS = st.sampled_from(["0", "-0", "1", "-1", "0.5", "-0.4", "2", "-1e-9", "1e-300", "1e150",
                           "1e300", "inf", "-inf", "nan"])
RANGES = st.sampled_from(["0:0.5:3", "0.01:1:2", "0:0:1", "1e-3:1e3:3", "-1:1:2", "1:0:3",
                          "0:1:0", "0:1:-2", "oops", "1:2", "0:inf:2", "nan:1:2"])
HORIZONS = {"simulate": ["-5", "0", "1001", "1200", "1.5"],
            "verify": ["-1", "0", "1", "2", "5", "257", "1.5"]}


@st.composite
def argvs(draw):
    """A command line, well-formed or not.

    Besides values out of every range, it draws argparse's own usage errors:
    an unknown subcommand, an integer flag given ``1.5``, ``-inf`` or a
    negative range after a space, an unknown flag and a flag without its value.
    """
    def option(flag, value):
        return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]

    command = draw(st.sampled_from(["analyze", "grid", "alpha-sweep", "design", "simulate",
                                    "verify", "frobnicate"]))
    argv = [command]
    dropped = draw(st.sampled_from([None] * 8 + ["--a", "--k"]))
    for flag in ("--a", "--k", "--w", "--q", "--r", "--m", "--n"):
        if flag in ("--a", "--k") and flag != dropped or draw(st.booleans()):
            argv += [flag, draw(NUMBERS)]
    if command == "grid":
        argv += option("--m-range", draw(RANGES)) + option("--n-range", draw(RANGES))
    elif command == "alpha-sweep":
        argv += (["--alpha", draw(NUMBERS)] if draw(st.booleans())
                 else option("--alpha-range", draw(RANGES)))
    elif command == "design":
        argv += ["--lambda", draw(st.sampled_from(["0", "0,1", "1,100000", "", "-1", "nan",
                                                   "inf", "a,b"]))]
    if command in HORIZONS:
        argv += ["--T", draw(st.sampled_from(HORIZONS[command]))]
    if command == "simulate":
        argv += ["--trajectories", draw(st.sampled_from(["-1", "0", "2", "3", "4"])),
                 "--seed", draw(st.sampled_from(["-1", "0", "7", str(2**64)])),
                 "--workers", draw(st.sampled_from(["0", "1", "3"]))]
    argv += draw(st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]))
    argv += draw(st.sampled_from([[], ["--bits"]]))
    argv += draw(st.sampled_from([[]] * 6 + [["--bogus"], ["--seed"], ["--lambda"]]))
    return argv


class TestGeneratedArgv:
    """Every command line ends in a result, a failed ``verify`` or a typed error.

    That holds for argparse's own usage errors too: they exit 2 with the
    JSON error object, never with usage text or ``SystemExit``.
    """

    @settings(max_examples=200, deadline=None)
    @given(argv=argvs())
    # inputs that once ended in a traceback, NaN on stdout or a warning before the error
    @example(argv=["alpha-sweep", "--a", "1", "--k", "-1", "--alpha", "inf"])
    @example(argv=["alpha-sweep", "--a", "1", "--k", "-1", "--alpha", "nan"])
    @example(argv=["alpha-sweep", "--a", "1", "--k", "-1", "--alpha-range=1:inf:3"])
    @example(argv=["simulate", "--a", "0.5", "--k", "-0.4", "--T", "1001", "--trajectories", "2",
                   "--seed", "-1"])
    @example(argv=["grid", "--a", "1e300", "--k", "1e300", "--m-range=0:0.5:3",
                   "--n-range=0:0.5:3"])
    @example(argv=["design", "--a", "1e150", "--k", "1", "--lambda", "0"])
    @example(argv=["design", "--a", "0.5", "--k", "1e-90", "--lambda", "0"])
    @example(argv=["design", "--a", "-0.4", "--k", "-1e-9", "--w", "1e300", "--lambda", "0"])
    @example(argv=["verify", "--a", "1e150", "--k", "1e150", "--n", "1e150", "--T", "5"])
    # argparse's usage errors
    @example(argv=["frobnicate", "--a", "1", "--k", "-1"])
    @example(argv=["verify", "--a", "1", "--k", "-1", "--T", "1.5"])
    @example(argv=["analyze", "--a", "1", "--k"])
    @example(argv=["analyze", "--a", "1", "--k", "-1", "--w", "-inf"])
    @example(argv=["grid", "--a", "1", "--k", "-1", "--n-range", "-1:1:2"])
    # an allocation numpy refuses outright: 10**15 doubles exceed any address space
    @example(argv=["simulate", "--a", "0.5", "--k", "-0.4", "--T", str(10**15)])
    def test_outcome_is_a_result_or_a_typed_error(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # an exception here is the traceback the CLI must never show
        assert code in (0, 1, 2)
        assert code != 1 or argv[0] == "verify"
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}
        assert "nan" not in out.getvalue().lower()

    # 10**15 doubles exceed any address space, so numpy refuses them before touching memory
    @pytest.mark.parametrize("argv", [
        ["simulate", "--a", "0.5", "--k", "-0.4", "--T", str(10**15)],
        ["alpha-sweep", "--a", "1", "--k", "-1", "--alpha-range", f"1:2:{10**15}"],
        ["grid", "--a", "1", "--k", "-1", "--m-range", f"0:1:{10**15}"],
    ], ids=["simulate-horizon", "alpha-sweep-count", "grid-count"])
    def test_refused_allocation_is_a_typed_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "MemoryError"


class TestReadme:
    """README's lists of shared flags and config keys are the option table's."""

    README = (Path(__file__).parent.parent / "README.md").read_text()

    def paragraph(self, start):
        text = self.README[self.README.index(start):]
        return text[:text.index("\n\n")]

    def test_shared_flags(self, capsys):
        listed = set(re.findall(r"--[a-zA-Z][\w-]*", self.paragraph("Shared flags:")))
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        parsed = set(re.findall(r"--[a-zA-Z][\w-]*", capsys.readouterr().out)) - {"--help"}
        assert listed == parsed == {opt.flag for opt in cli._OPTIONS}

    def test_config_keys(self):
        listed = re.search(r"Config keys: `([^`]*)`", self.README).group(1).split()
        assert listed == [opt.key for opt in cli._OPTIONS if opt.key is not None]
