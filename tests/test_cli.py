"""Tests for the command-line interface."""

import json
import os

import numpy as np
import pytest

from wbcsim.cli import EXIT_INPUT, EXIT_OK, EXIT_PARAMETER, EXIT_USAGE, OUTPUT_DIR_ENV, main
from wbcsim.metrics import TARGET_STATE


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "mmin", "--mu", "0.272", "--lambda", "0.94", "--pft", "0.05", "--bogus")
        assert code == EXIT_USAGE

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

    @pytest.mark.parametrize("pft", ["-1", "0", "1.5"])
    def test_mmin_rejects_target_outside_unit_interval(self, capsys, pft):
        code, out, err = run(capsys, "mmin", "--mu", "0.272", "--lambda", "0.94", "--pft", pft)
        assert code == EXIT_USAGE and out == "" and "(0, 1]" in err

    def test_inexact_required_for_float_parsing(self, capsys):
        code, _, _ = run(capsys, "exact", "--config", "no-faulty", "--mu", "0.272e0", "--lambda", "0.94", "--m", "10")
        assert code == EXIT_PARAMETER
        code, out, _ = run(
            capsys, "exact", "--config", "no-faulty", "--mu", "0.272e0", "--lambda", "0.94", "--m", "10", "--inexact"
        )
        assert code == EXIT_OK


class TestCommands:
    def test_mmin_prints_reference_value(self, capsys):
        code, out, _ = run(capsys, "mmin", "--mu", "0.272", "--lambda", "0.94", "--pft", "0.05")
        assert code == EXIT_OK and out.strip() == "280"

    def test_mmin_per_config(self, capsys):
        code, out, _ = run(
            capsys, "mmin", "--mu", "0.272", "--lambda", "0.94", "--pft", "0.05", "--per-config", "--format", "json"
        )
        rows = {r["config"]: r["m_min"] for r in json.loads(out)}
        assert rows == {"no-faulty": 143, "s-faulty": 246, "r0-faulty": 280, "overall": 280}

    def test_exact_value_below_target(self, capsys):
        code, out, _ = run(capsys, "exact", "--config", "no-faulty", "--mu", "0.272", "--lambda", "0.94", "--m", "143")
        assert code == EXIT_OK
        value = float(out.strip().splitlines()[1].split(",")[3])
        assert value < 0.05

    @pytest.mark.parametrize("kind,rows", [("weak", 54), ("broadcast", 24)])
    def test_truth_table_row_counts(self, capsys, kind, rows):
        code, out, _ = run(capsys, "truth-table", "--kind", kind)
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == rows + 1  # header

    def test_simulate_deterministic(self, capsys):
        argv = ("simulate", "--config", "no-faulty", "--mu", "0.3", "--lambda", "0.8", "--m", "4,6", "--trials", "200", "--seed", "5")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 3

    def test_bounds_emits_three_configs_per_m(self, capsys):
        code, out, _ = run(capsys, "bounds", "--mu", "0.272", "--lambda", "0.94", "--m", "100,200")
        assert code == EXIT_OK and len(out.strip().splitlines()) == 7

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
        assert json.loads(out)[0]["value"] == pytest.approx(1.0, abs=1e-12)

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
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["p_target"] == 0.05 and manifest["command"] == "optimize"

    def test_reruns_are_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        argv = ("simulate", "--config", "s-faulty", "--mu", "0.3", "--lambda", "0.8", "--m", "8", "--trials", "150", "--seed", "2", "--output", "mc")
        run(capsys, *argv)
        first = (tmp_path / "mc.csv").read_bytes()
        run(capsys, *argv)
        assert (tmp_path / "mc.csv").read_bytes() == first
