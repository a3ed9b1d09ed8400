"""Tests for the command-line interface."""

import argparse
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy

import wbcsim
import wbcsim.analytics as analytics
from wbcsim import cli, optimizer
from wbcsim.cli import EXIT_INPUT, EXIT_OK, EXIT_PARAMETER, EXIT_USAGE, OUTPUT_DIR_ENV, build_parser, main
from wbcsim.metrics import TARGET_STATE
from wbcsim.protocol import ABORT, AdversaryConfig, ProtocolParams

from test_protocol import BROADCAST_TABLE, CONFIGS, WEAK_BROADCAST_TABLE


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def bound_calls(monkeypatch):
    """Count the (config, m) rows the analytic formulas evaluate; `blocks`
    keeps each formula call's (config, [m, ...]) in call order."""
    calls = Counter()
    calls.blocks = []
    for config, name in (
        ("no-faulty", "_no_faulty_rows"),
        ("s-faulty", "_s_rows"),
        ("r0-faulty", "_r_rows"),
    ):
        def counted(m, *args, _fn=getattr(analytics, name), _config=config):
            calls.blocks.append((_config, m.tolist()))
            calls.update((_config, row_m) for row_m in m.tolist())
            return _fn(m, *args)

        monkeypatch.setattr(analytics, name, counted)
    return calls


def assert_design_scan(calls, p_target=0.05, crossings=(143, 246, 280)):
    """The design scan at (0.272, 0.94) evaluates each row at most once per
    configuration, in ascending m, up to the end of the run of m holding the
    overall crossing: no-faulty on every m, R0 on the m where no-faulty is
    below the target (rule (a), from the no-faulty crossing on), and S on
    those of them whose run opens before the S crossing or where R0 is
    below too (rule (b))."""
    assert set(calls.values()) == {1}
    evaluated = {config: [m for name, ms in calls.blocks if name == config for m in ms] for config in ("no-faulty", "s-faulty", "r0-faulty")}
    no_faulty_crossing, s_crossing, crossing = crossings
    ms = range(1, -(-crossing // optimizer._RUN) * optimizer._RUN + 1)
    rows = np.array([(p.m, p.T, p.Q) for p in (ProtocolParams.create("0.272", "0.94", m) for m in ms)])
    below = {cfg.value: dict(zip(ms, [*analytics._report_rows(cfg, rows).values()][-1] < p_target)) for cfg in AdversaryConfig}
    s_open = {m: s_crossing >= (m - 1) // optimizer._RUN * optimizer._RUN + 1 for m in ms}
    assert evaluated["no-faulty"] == list(ms)
    assert evaluated["r0-faulty"] == [m for m in ms if below["no-faulty"][m]]
    assert evaluated["s-faulty"] == [m for m in ms if below["no-faulty"][m] and (s_open[m] or below["r0-faulty"][m])]
    assert evaluated["r0-faulty"][0] == evaluated["s-faulty"][0] == no_faulty_crossing


# verdicts of the default `optimize` grid: mu -> verdict at each lambda
DEFAULT_LAMBDAS = ("0.9325", "0.935", "0.9375", "0.94", "0.9425", "0.945", "0.9475")
DEFAULT_OPTIMIZE = {
    "0.269": ("NOT_FOUND", "NOT_FOUND", 287, 287, 287, 287, 287),
    "0.27": ("NOT_FOUND", "NOT_FOUND", 282, 282, 282, 282, 282),
    "0.271": ("NOT_FOUND", "NOT_FOUND", 281, 281, 281, 281, 281),
    "0.272": ("NOT_FOUND", "NOT_FOUND", 280, 280, 280, 280, 280),
    "0.273": ("NOT_FOUND", "NOT_FOUND", 280, 280, 280, 280, 280),
    "0.274": ("NOT_FOUND", "NOT_FOUND", 280, 280, 280, 280, 280),
    "0.275": ("NOT_FOUND", "NOT_FOUND", 280, 280, 280, 280, 280),
}


def _mixed_state_with_one_nan() -> str:
    rho = [[[float(i == j) / 16, 0.0] for j in range(16)] for i in range(16)]
    rho[0][0][0] = float("nan")
    return json.dumps(rho)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "mmin", "--mu", "0.272", "--lambda", "0.94", "--pft", "0.05", "--bogus")
        assert code == EXIT_USAGE

    def test_bounds_rejects_lambda_one_half(self, capsys):
        # chernoff_S accepted lambda = 1/2, outside the protocol's 1/2 < lambda < 1, and printed 3.58 at m = 100
        code, out, err = run(capsys, "bounds", "--mu", "0.3", "--lambda", "0.5", "--m", "100")
        assert code == EXIT_PARAMETER and out == "" and "1/2 < lambda < 1" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_parameter_violation_names_the_inequality(self, capsys):
        code, _, err = run(capsys, "exact", "--config", "no-faulty", "--mu", "0.4", "--lambda", "0.94", "--m", "10")
        assert code == EXIT_PARAMETER
        assert "1/3" in err

    def test_missing_input_file(self, capsys):
        code, _, _ = run(capsys, "fidelity", "--counts", "/nonexistent/counts.json")
        assert code == EXIT_INPUT

    def test_malformed_input_file(self, capsys, tmp_path):
        bad = tmp_path / "counts.json"
        bad.write_text('{"00110": 3}')
        code, _, err = run(capsys, "fidelity", "--counts", str(bad))
        assert code == EXIT_INPUT and "00110" in err

    @pytest.mark.parametrize("flag", ["--counts", "--density"])
    def test_input_file_that_is_not_utf8_is_input_error(self, capsys, tmp_path, flag):
        # a UTF-16 byte order mark used to exit 2 (usage) with a bare codec error
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = run(capsys, "fidelity", flag, str(path))
        assert code == EXIT_INPUT and out == "" and "not valid UTF-8 JSON" in err

    @pytest.mark.parametrize(
        "flag,payload",
        [
            ("--counts", '{"0011": NaN}'),
            ("--counts", '{"0011": Infinity, "1100": 1}'),
            ("--density", _mixed_state_with_one_nan()),
        ],
        ids=["nan-count", "infinite-count", "nan-density-entry"],
    )
    def test_non_finite_fidelity_input_is_input_error(self, capsys, tmp_path, flag, payload):
        path = tmp_path / "input.json"
        path.write_text(payload)
        code, out, err = run(capsys, "fidelity", flag, str(path))
        assert code == EXIT_INPUT and out == "" and "finite" in err

    def test_boolean_count_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text('{"0011": true, "1100": 1}')
        code, out, err = run(capsys, "fidelity", "--counts", str(path))
        assert code == EXIT_INPUT and out == "" and "0011" in err

    def test_boolean_density_entry_is_input_error(self, capsys, tmp_path):
        rho = [[[False, False] for _ in range(16)] for _ in range(16)]
        rho[0][0] = [True, False]
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(rho))
        code, out, err = run(capsys, "fidelity", "--density", str(path))
        assert code == EXIT_INPUT and out == "" and "numbers" in err

    @pytest.mark.parametrize("pft", ["-1", "0", "1.5"])
    def test_mmin_rejects_target_outside_unit_interval(self, capsys, pft):
        code, out, err = run(capsys, "mmin", "--mu", "0.272", "--lambda", "0.94", "--pft", pft)
        assert code == EXIT_USAGE and out == "" and "(0, 1]" in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_simulate_rejects_nonpositive_jobs(self, capsys, jobs):
        code, out, _ = run(
            capsys, "simulate", "--config", "no-faulty", "--mu", "0.3", "--lambda", "0.8", "--m", "4", "--jobs", jobs
        )
        assert code == EXIT_USAGE and out == ""

    def test_simulate_rejects_negative_seed(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--config", "no-faulty", "--mu", "0.3", "--lambda", "0.8", "--m", "4", "--seed", "-1"
        )
        assert code == EXIT_USAGE and out == "" and "seed must be a non-negative int, got -1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--config", "no-faulty", "--mu", "0.3", "--lambda", "0.8", "--trials", "10"),
            ("exact", "--config", "no-faulty", "--mu", "0.272", "--lambda", "0.94"),
            ("bounds", "--mu", "0.272", "--lambda", "0.94"),
            ("optimize", "--mu-steps", "2", "--lambda-steps", "2"),
        ],
        ids=["simulate", "exact", "bounds", "optimize"],
    )
    def test_inverted_m_range_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--m", "10,300..270")
        assert code == EXIT_USAGE and out == "" and "300..270" in err

    @pytest.mark.parametrize("part", ["1..3..5", "1..", "..5", "a..b"])
    def test_malformed_m_range_is_named(self, capsys, part):
        # these used to fail with "too many values to unpack" or "invalid literal for int()"
        text = f"10,{part}"
        code, out, err = run(capsys, "exact", "--config", "no-faulty", "--mu", "0.272", "--lambda", "0.94", "--m", text)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: invalid m range {part!r} in {text!r}\n"

    @pytest.mark.parametrize("text,part", [("abc", "abc"), ("1,,2", ""), ("2.5", "2.5"), ("10,x", "x")])
    def test_malformed_plain_m_is_named(self, capsys, text, part):
        # these printed Python's "invalid literal for int() with base 10: 'abc'"
        code, out, err = run(capsys, "exact", "--config", "no-faulty", "--mu", "0.272", "--lambda", "0.94", "--m", text)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: invalid m {part!r} in {text!r}\n"

    @pytest.mark.parametrize("text", ["0", "0..2", "5,-1"])
    def test_m_below_one_is_usage_error(self, capsys, text):
        code, out, err = run(capsys, "exact", "--config", "no-faulty", "--mu", "0.272", "--lambda", "0.94", "--m", text)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: invalid m list {text!r}\n"

    @pytest.mark.parametrize("m", [0, -3])
    def test_oracle_m_below_one_is_usage_error(self, capsys, m):
        # it exited 3 with "parameter error", where exact, simulate and bounds exit 2
        code, out, err = run(capsys, "oracle", "--config", "no-faulty", "--mu", "0.272", "--lambda", "0.94", "--m", str(m))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: invalid m {m}\n"

    def test_oracle_m_above_eight_is_usage_error(self, capsys):
        code, out, err = run(capsys, "oracle", "--config", "no-faulty", "--mu", "0.272", "--lambda", "0.94", "--m", "9")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: exhaustive enumeration limited to m <= 8\n"

    @pytest.mark.parametrize("flag", ["--mu-lo", "--mu-hi", "--lambda-lo", "--lambda-hi"])
    @pytest.mark.parametrize("value", ["abc", "1/4"])
    def test_optimize_grid_bounds_are_plain_decimals(self, capsys, flag, value):
        # parsed as --mu and --lambda are: "abc" used to exit 2 with Fraction's
        # "Invalid literal", and "1/4" was accepted
        code, out, err = run(capsys, "optimize", f"{flag}={value}")
        assert code == EXIT_PARAMETER and out == ""
        assert err == f"parameter error: {value!r} is not a plain decimal; --inexact allows floats for --mu and --lambda\n"

    @pytest.mark.parametrize("ms", ["300,280", "270..300,300"])
    def test_optimize_rejects_candidates_not_strictly_ascending(self, capsys, ms):
        code, out, err = run(capsys, "optimize", "--m", ms)
        assert code == EXIT_USAGE and out == "" and "m_candidates" in err

    def test_mmin_outside_region_evaluates_no_bound(self, capsys, bound_calls):
        code, out, _ = run(capsys, "mmin", "--mu", "0.25", "--lambda", "0.90", "--pft", "0.05")
        assert code == EXIT_PARAMETER and out == ""
        assert not bound_calls

    @pytest.mark.parametrize("steps", ["1", "0", "-3"])
    def test_region_rejects_fewer_than_two_steps(self, capsys, steps):
        code, out, _ = run(capsys, "region", f"--steps={steps}")
        assert code == EXIT_USAGE and out == ""

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_inexact_rejects_non_finite_values(self, capsys, value):
        code, out, _ = run(capsys, "mmin", f"--mu={value}", "--lambda", "0.94", "--pft", "0.05", "--inexact")
        assert code == EXIT_PARAMETER and out == ""
        argv = ("exact", "--config", "no-faulty", "--mu", "0.272", f"--lambda={value}", "--m", "10", "--inexact")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_PARAMETER and out == ""

    def test_inexact_required_for_float_parsing(self, capsys):
        code, _, _ = run(capsys, "exact", "--config", "no-faulty", "--mu", "0.272e0", "--lambda", "0.94", "--m", "10")
        assert code == EXIT_PARAMETER
        code, out, _ = run(
            capsys, "exact", "--config", "no-faulty", "--mu", "0.272e0", "--lambda", "0.94", "--m", "10", "--inexact"
        )
        assert code == EXIT_OK


class TestCommands:
    def test_mmin_prints_reference_value(self, capsys, bound_calls):
        code, out, _ = run(capsys, "mmin", "--mu", "0.272", "--lambda", "0.94", "--pft", "0.05")
        assert code == EXIT_OK and out.strip() == "280"
        assert_design_scan(bound_calls)

    def test_mmin_per_config(self, capsys, bound_calls):
        code, out, _ = run(
            capsys, "mmin", "--mu", "0.272", "--lambda", "0.94", "--pft", "0.05", "--per-config", "--format", "json"
        )
        rows = {r["config"]: r["m_min"] for r in json.loads(out)}
        assert rows == {"no-faulty": 143, "s-faulty": 246, "r0-faulty": 280, "overall": 280}
        assert_design_scan(bound_calls)

    def test_mmin_inexact_past_int64_thresholds(self, capsys):
        # --inexact reads 0.3 as a float with a numerator of 5.4e15, so
        # mu.numerator * m is past int64 for every m of this window; the
        # exact decimals give the same m
        argv = ("mmin", "--mu", "0.3", "--lambda", "0.945", "--pft", "1e-4", "--m-lo", "1750", "--m-hi", "4000", "--per-config")
        expected = "config,m_min\nno-faulty,2700\ns-faulty,2700\nr0-faulty,2700\noverall,2700\n"
        assert run(capsys, *argv, "--inexact") == (EXIT_OK, expected, "")
        assert run(capsys, *argv) == (EXIT_OK, expected, "")

    def test_optimize_default_table(self, capsys):
        code, out, _ = run(capsys, "optimize")
        assert code == EXIT_OK
        assert out.splitlines() == ["mu,lambda,verdict"] + [
            f"{mu},{lam},{verdict}" for mu, verdicts in DEFAULT_OPTIMIZE.items() for lam, verdict in zip(DEFAULT_LAMBDAS, verdicts)
        ]
        code, out, _ = run(capsys, "optimize", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == [
            {"mu": float(mu), "lambda": float(lam), "verdict": verdict}
            for mu, verdicts in DEFAULT_OPTIMIZE.items()
            for lam, verdict in zip(DEFAULT_LAMBDAS, verdicts)
        ]

    @pytest.mark.parametrize("config", ["s-faulty", "r0-faulty"])
    def test_exact_both_kinds_evaluate_each_bound_once(self, capsys, bound_calls, config):
        argv = ("exact", "--config", config, "--mu", "0.272", "--lambda", "0.94", "--m", "50,100", "--kind", "both")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert [line.split(",")[:3] for line in out.splitlines()[1:]] == [
            [m, config, kind] for m in ("50", "100") for kind in ("lower", "upper")
        ]
        assert bound_calls == {(config, 50): 1, (config, 100): 1}

    def test_exact_value_below_target(self, capsys):
        code, out, _ = run(capsys, "exact", "--config", "no-faulty", "--mu", "0.272", "--lambda", "0.94", "--m", "143")
        assert code == EXIT_OK
        value = float(out.strip().splitlines()[1].split(",")[3])
        assert value < 0.05

    @pytest.mark.parametrize("kind,rows", [("weak", 54), ("broadcast", 24)])
    def test_truth_table_row_counts(self, capsys, kind, rows):
        code, out, _ = run(capsys, "truth-table", "--kind", kind)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == rows + 1  # header
        # every row carries the verdict of the reference table, ABORT as "abort"
        table = WEAK_BROADCAST_TABLE if kind == "weak" else BROADCAST_TABLE
        shown = {0: "0", 1: "1", ABORT: "abort"}
        expected = {
            ",".join((cfg.value, shown[y_s], shown[y0], shown[y1], verdict.value))
            for y_s, y0, y1, *verdicts in table
            for cfg, verdict in zip(CONFIGS, verdicts)
        }
        assert set(lines[1:]) == expected

    def test_simulate_deterministic(self, capsys):
        argv = ("simulate", "--config", "no-faulty", "--mu", "0.3", "--lambda", "0.8", "--m", "4,6", "--trials", "200", "--seed", "5")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 3

    def test_bounds_emits_three_configs_per_m(self, capsys):
        code, out, _ = run(capsys, "bounds", "--mu", "0.272", "--lambda", "0.94", "--m", "100,200")
        assert code == EXIT_OK and len(out.strip().splitlines()) == 7

    def test_bounds_just_below_a_third(self, capsys):
        # in the region, so accepted; its float rounds to 1/3, which the
        # float range check used to reject with exit 3
        code, out, _ = run(capsys, "bounds", "--mu", "0.33333333333333333", "--lambda", "0.99", "--m", "10")
        assert code == EXIT_OK and len(out.strip().splitlines()) == 4

    def test_oracle_reports_exact_rational(self, capsys):
        code, out, _ = run(capsys, "oracle", "--config", "no-faulty", "--mu", "0.3", "--lambda", "0.8", "--m", "2")
        assert code == EXIT_OK
        assert "4/9" in out

    def test_region_grid(self, capsys):
        code, out, _ = run(capsys, "region", "--steps", "5")
        assert code == EXIT_OK and len(out.strip().splitlines()) == 26

    def test_fidelity_from_counts(self, capsys, tmp_path):
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({"0011": 4, "1100": 4, "0101": 1, "0110": 1, "1001": 1, "1010": 1}))
        code, out, _ = run(capsys, "fidelity", "--counts", str(counts), "--format", "json")
        assert code == EXIT_OK
        value = json.loads(out)[0]["value"]
        assert value == pytest.approx(1.0, abs=1e-12)
        code, out, _ = run(capsys, "fidelity", "--counts", str(counts), "--format", "csv")
        assert code == EXIT_OK
        assert out == f"metric,value\nclassical_fidelity,{value!r}\n"

    def test_fidelity_from_density_matrix(self, capsys, tmp_path):
        rho = np.outer(TARGET_STATE, TARGET_STATE)
        payload = [[[float(rho[i, j]), 0.0] for j in range(16)] for i in range(16)]
        mat = tmp_path / "rho.json"
        mat.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "fidelity", "--density", str(mat), "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)[0]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_requires_an_input(self, capsys):
        code, _, _ = run(capsys, "fidelity")
        assert code == EXIT_PARAMETER


class TestParserReuse:
    EXACT = ("exact", "--config", "r0-faulty", "--mu", "0.272", "--lambda", "0.94", "--m", "50,2000", "--kind", "both")

    @pytest.fixture
    def added(self, monkeypatch):
        """Every add_argument call, on a parser cache emptied before and after."""
        calls = []

        def spy(parser, *args, _add=argparse.ArgumentParser.add_argument, **kwargs):
            calls.append(args)
            return _add(parser, *args, **kwargs)

        cli._parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
        yield calls
        cli._parser.cache_clear()

    def test_repeated_calls_print_the_same_bytes(self, capsys):
        first = run(capsys, *self.EXACT)
        assert first[0] == EXIT_OK and run(capsys, *self.EXACT) == first

    def test_usage_error_leaves_the_next_call_unchanged(self, capsys):
        first = run(capsys, *self.EXACT)
        code, out, _ = run(capsys, "exact", "--config", "r0-faulty", "--mu", "0.272", "--kind", "neither")
        assert code == EXIT_USAGE and out == ""
        assert run(capsys, *self.EXACT) == first

    def test_parser_is_built_once_per_process(self, capsys, added):
        run(capsys, *self.EXACT)
        per_build = len(added)
        assert per_build > 50  # the whole tree: every subcommand's arguments
        run(capsys, *self.EXACT)
        run(capsys, "mmin", "--mu", "0.272", "--lambda", "0.94", "--pft", "0.05")
        assert len(added) == per_build

    def test_build_parser_returns_a_new_parser_each_call(self, added):
        first = build_parser()
        per_build = len(added)
        assert build_parser() is not first and len(added) == 2 * per_build

    @pytest.mark.parametrize("argv", [("--help",), ("exact", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK and out.startswith("usage: wbcsim")


class TestOutputFiles:
    def test_output_dir_and_manifest(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        argv = (
            "optimize", "--mu-lo", "0.271", "--mu-hi", "0.273", "--mu-steps", "2",
            "--lambda-lo", "0.9375", "--lambda-hi", "0.945", "--lambda-steps", "2",
            "--m", "278..282", "--pft", "0.05", "--output", "sweep",
        )
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_OK
        heatmap = (tmp_path / "sweep.csv").read_text()
        assert heatmap.splitlines()[0] == "mu,lambda,verdict"
        assert len(heatmap.splitlines()) == 5
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert list(manifest) == [
            "command", "mu_lo", "mu_hi", "mu_steps", "lambda_lo", "lambda_hi", "lambda_steps", "m", "pft",
            "timestamp", "versions",
        ]
        assert manifest["command"] == "optimize" and manifest["timestamp"]
        assert [manifest[key] for key in list(manifest)[1:-2]] == ["0.271", "0.273", 2, "0.9375", "0.945", 2, "278..282", 0.05]

    def test_reruns_are_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        argv = ("simulate", "--config", "s-faulty", "--mu", "0.3", "--lambda", "0.8", "--m", "8", "--trials", "150", "--seed", "2", "--output", "mc")
        run(capsys, *argv)
        first = (tmp_path / "mc.csv").read_bytes()
        run(capsys, *argv)
        assert (tmp_path / "mc.csv").read_bytes() == first
        header, row = first.decode().splitlines()
        assert header == "m,config,N,estimate,stderr,seed"
        fields = row.split(",")
        assert fields[:3] == ["8", "s-faulty", "150"] and fields[5] == "2"
        assert float(fields[4]) == pytest.approx((float(fields[3]) * (1 - float(fields[3])) / 150) ** 0.5)

    def test_simulate_manifest_records_the_configuration(self, capsys, tmp_path, monkeypatch):
        # the estimate depends on the configuration, so its manifest names it
        # as exact's does; the CSV is the same bytes with or without it
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        argv = ("simulate", "--config", "r0-faulty", "--mu", "0.3", "--lambda", "0.8", "--m", "8")
        argv += ("--trials", "150", "--seed", "2")
        run(capsys, *argv, "--output", "mc")
        manifest = json.loads((tmp_path / "mc.manifest.json").read_text())
        assert list(manifest) == [
            "command", "mu", "lam", "inexact", "config", "m", "trials", "seed", "jobs", "timestamp", "versions",
        ]
        assert manifest["config"] == "r0-faulty" and manifest["command"] == "simulate"
        assert [manifest[key] for key in ("mu", "lam", "inexact", "m", "trials", "seed", "jobs")] == ["0.3", "0.8", False, "8", 150, 2, 1]
        _, out, _ = run(capsys, *argv)
        assert (tmp_path / "mc.csv").read_text() == out

    def test_every_subcommand_writes_a_manifest_naming_its_code(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        counts = tmp_path / "counts.json"
        counts.write_text('{"0011": 1, "1100": 1}')
        mu_lambda = ("--mu", "0.272", "--lambda", "0.94")
        argvs = {
            "simulate": ("--config", "s-faulty", *mu_lambda, "--m", "4", "--trials", "10"),
            "exact": ("--config", "s-faulty", *mu_lambda, "--m", "4"),
            "bounds": (*mu_lambda, "--m", "4"),
            "optimize": ("--mu-steps", "2", "--lambda-steps", "2", "--m", "270,280"),
            "mmin": (*mu_lambda, "--pft", "0.05", "--m-hi", "10"),
            "truth-table": (),
            "fidelity": ("--counts", str(counts)),
            "oracle": ("--config", "r0-faulty", *mu_lambda, "--m", "2"),
            "region": ("--steps", "2"),
        }
        assert set(argvs) == set(_subparsers().choices)
        versions = {"wbcsim": wbcsim.__version__, "python": platform.python_version()}
        versions.update(numpy=np.__version__, scipy=scipy.__version__)
        for command, argv in argvs.items():
            assert run(capsys, command, *argv, "--output", command) == (EXIT_OK, "", "")
            manifest = json.loads((tmp_path / f"{command}.manifest.json").read_text())
            assert manifest["command"] == command and manifest["versions"] == versions
        # a command that fails writes no manifest
        assert run(capsys, "mmin", "--mu", "0.2", "--lambda", "0.94", "--pft", "0.05", "--output", "bad")[0] == EXIT_PARAMETER
        assert not (tmp_path / "bad.manifest.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--config", "r0-faulty", "--mu", "0.3", "--lambda", "0.8", "--m", "8", "--trials", "150", "--seed", "2"),
            ("exact", "--config", "no-faulty", "--mu", "0.27", "--lambda", "0.94", "--m", "100", "--inexact"),
            ("exact", "--config", "s-faulty", "--mu", "0.272", "--lambda", "0.94", "--m", "279,280", "--kind", "lower"),
            ("bounds", "--mu", "0.272", "--lambda", "0.94", "--m", "100..102", "--format", "json"),
            ("optimize", "--mu-steps", "3", "--lambda-steps", "3", "--pft", "0.04"),
            ("mmin", "--mu", "0.3", "--lambda", "0.945", "--pft", "0.05", "--m-lo", "1750", "--m-hi", "4000", "--inexact"),
            ("mmin", "--mu", "0.272", "--lambda", "0.94", "--pft", "0.05", "--per-config", "--no-region-check"),
        ],
        ids=["simulate", "exact-inexact", "exact-kind", "bounds-json", "optimize", "mmin-m-window", "mmin-per-config"],
    )
    def test_manifest_reruns_to_the_same_data(self, capsys, tmp_path, monkeypatch, argv):
        # the command line rebuilt from a manifest's recorded arguments gives
        # the same bytes; the manifests once left out --inexact, --kind and
        # --m-lo/--m-hi, each of which changes these outputs
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        fmt = "json" if "json" in argv else "csv"
        assert run(capsys, *argv, "--output", "first") == (EXIT_OK, "", "")
        manifest = json.loads((tmp_path / "first.manifest.json").read_text())
        rerun = _recorded_argv(manifest)
        assert run(capsys, *rerun, "--format", fmt, "--output", "again") == (EXIT_OK, "", "")
        assert (tmp_path / f"again.{fmt}").read_bytes() == (tmp_path / f"first.{fmt}").read_bytes()

    @pytest.mark.parametrize(
        "fmt,m_hi,expected",
        [("csv", "400", "280\n"), ("json", "400", "280\n"), ("csv", "100", "NOT_FOUND\n"), ("json", "100", '"NOT_FOUND"\n')],
    )
    def test_plain_mmin_goes_where_its_format_and_output_say(self, capsys, tmp_path, monkeypatch, fmt, m_hi, expected):
        # without --per-config the overall value used to be printed whatever
        # --output said, and NOT_FOUND unquoted under --format json
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        argv = ("mmin", "--mu", "0.272", "--lambda", "0.94", "--pft", "0.05", "--m-hi", m_hi, "--format", fmt)
        assert run(capsys, *argv) == (EXIT_OK, expected, "")
        assert run(capsys, *argv, "--output", "plain") == (EXIT_OK, "", "")
        assert (tmp_path / f"plain.{fmt}").read_text() == expected


def _subparsers() -> argparse._SubParsersAction:
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))


def _recorded_argv(manifest: dict) -> list[str]:
    """The command line a manifest records: each recorded argument becomes
    the option of the parser action whose destination it is. Every recorded
    argument must belong to one."""
    argv, recorded = [manifest["command"]], set(manifest) - {"command", "timestamp", "versions"}
    for action in _subparsers().choices[manifest["command"]]._actions:
        if action.dest not in recorded:
            continue
        recorded.remove(action.dest)
        value = manifest[action.dest]
        if isinstance(action, argparse._StoreTrueAction):
            argv += action.option_strings if value else []
        elif value is not None:
            argv += [action.option_strings[0], str(value)]
    assert not recorded
    return argv


def _python(*args):
    """Run this interpreter in a subprocess that imports wbcsim from where the tests do."""
    src = str(Path(wbcsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize(
    "argv,loads",
    [
        ((), False),
        (("oracle", "--config", "s-faulty", "--mu", "0.3", "--lambda", "0.8", "--m", "3"), False),
        (("simulate", "--config", "r0-faulty", "--mu", "0.3", "--lambda", "0.8", "--m", "8", "--trials", "50"), False),
        (("mmin", "--mu", "0.272", "--lambda", "0.94", "--pft", "0.05"), True),
    ],
    ids=["import", "oracle", "simulate", "mmin"],
)
def test_cli_import_does_not_load_scipy_stats(argv, loads):
    # scipy.stats costs about a second of start-up on every command, and
    # scipy.special about half of the rest: it loads on the first float bound
    code = "import sys, wbcsim.cli; wbcsim.cli.build_parser(); argv = sys.argv[1:]; argv and wbcsim.cli.main(argv); "
    code += "print(sorted({'scipy.stats', 'scipy.special'} & set(sys.modules)), file=sys.stderr)"
    result = _python("-c", code, *argv)
    assert result.returncode == 0 and result.stderr.strip() == str(["scipy.special"] if loads else [])


@pytest.mark.parametrize(
    "argv",
    [(), ("simulate", "--config", "s-faulty", "--mu", "0.3", "--lambda", "0.8", "--m", "8", "--trials", "50", "--jobs", "1")],
    ids=["import", "simulate"],
)
def test_cli_loads_no_process_pool_for_one_worker(argv):
    # concurrent.futures costs about 15 ms of every fresh interpreter; only
    # a run with more than one worker process needs it
    code = "import sys, wbcsim.cli; wbcsim.cli.build_parser(); argv = sys.argv[1:]; argv and wbcsim.cli.main(argv); "
    code += "print('concurrent.futures' in sys.modules, file=sys.stderr)"
    result = _python("-c", code, *argv)
    assert result.returncode == 0 and result.stderr.strip() == "False"


def test_module_entry_point_exits_with_the_code_of_main():
    # `python -m wbcsim.cli` runs `sys.exit(main())`, the module's entry point
    argv = ("-m", "wbcsim.cli", "mmin", "--mu", "0.272", "--lambda", "0.94", "--pft", "0.05")
    result = _python(*argv)
    assert (result.returncode, result.stdout) == (EXIT_OK, "280\n")
    result = _python(*argv, "--m-lo", "0")
    assert result.returncode == EXIT_USAGE and result.stdout == ""
