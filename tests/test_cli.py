import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import max_abs
import sdoflab
from sdoflab import cli


def run_cli(args):
    return cli.main(args)


class TestSdofCommand:
    def test_prints_exact_and_decimal(self, capsys):
        assert run_cli(["sdof", "--m1", "2", "--m2", "2", "--n", "3", "--ne", "1"]) == 0
        out = capsys.readouterr().out
        assert "D_s = 5/2 (2.5)" in out
        assert "C2" in out
        assert "bounds:" in out
        assert "two-slot" in out

    def test_zero_clamp(self, capsys):
        assert run_cli(["sdof", "--m1", "1", "--m2", "1", "--n", "4", "--ne", "2"]) == 0
        assert "D_s = 0 (0)" in capsys.readouterr().out

    def test_missing_argument_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["sdof", "--m1", "2", "--m2", "2", "--ne", "1"])
        assert exc.value.code == 2

    def test_invalid_count_is_usage_error(self, capsys):
        assert run_cli(["sdof", "--m1", "0", "--m2", "2", "--n", "3", "--ne", "1"]) == 2


class TestDesignCommand:
    def test_report_roundtrip(self, tmp_path):
        out = tmp_path / "design.json"
        code = run_cli(
            ["design", "--m1", "2", "--m2", "2", "--n", "3", "--ne", "2", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert float(doc["residuals"]["alignment"]) <= 1e-8
        assert doc["allocation"]["audit_passed"] is True

        # re-parse and re-check: the recorded verdicts must be reproducible
        h1 = cli.decode_matrix(doc["channel"]["h1"])
        h2 = cli.decode_matrix(doc["channel"]["h2"])
        v1_j = cli.decode_matrix(doc["precoders"]["v1_j"])
        v2_j = cli.decode_matrix(doc["precoders"]["v2_j"])
        u = cli.decode_matrix(doc["precoders"]["u"])
        assert max_abs(u @ np.hstack([h1 @ v1_j, h2 @ v2_j])) <= 1e-8
        for key in ("v1_l", "v2_l"):
            vl = cli.decode_matrix(doc["precoders"][key])
            vj = cli.decode_matrix(doc["precoders"]["v1_j" if key == "v1_l" else "v2_j"])
            stacked = np.hstack([vl, vj])
            gram = stacked.conj().T @ stacked
            assert max_abs(gram - np.eye(stacked.shape[1])) <= 1e-9

    def test_nullspace_region_records_identity_projector(self, tmp_path):
        out = tmp_path / "design.json"
        assert run_cli(
            ["design", "--m1", "4", "--m2", "1", "--n", "2", "--ne", "1", "--seed", "1", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        u = cli.decode_matrix(doc["precoders"]["u"])
        assert max_abs(u - np.eye(2)) <= 1e-9

    def test_no_eavesdropper_gives_empty_jamming(self, tmp_path):
        out = tmp_path / "design.json"
        assert run_cli(
            ["design", "--m1", "2", "--m2", "2", "--n", "3", "--ne", "0", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["precoders"]["v1_j"]["cols"] == 0
        assert doc["precoders"]["v2_j"]["cols"] == 0


class TestSimulateCommand:
    def test_summary_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        summary_path = tmp_path / "summary.json"
        code = run_cli(
            [
                "simulate", "--m1", "1", "--m2", "1", "--n", "1", "--ne", "1",
                "--trials", "8", "--seed", "3",
                "--csv", str(csv_path), "--summary", str(summary_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "p_db,trial,legit_rate_bits,eve_leakage_bits"
        assert len(lines) == 1 + 5 * 8
        summary = json.loads(summary_path.read_text())
        assert summary["passed"] is True
        assert abs(summary["legit_slope"] - 0.5) <= 0.15
        assert summary["theory_value_exact"] == "1/2"

    def test_zero_trials_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            ["simulate", "--m1", "1", "--m2", "1", "--n", "1", "--ne", "1", "--trials", "0"]
        )
        assert code == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert run_cli(
                [
                    "simulate", "--m1", "2", "--m2", "2", "--n", "3", "--ne", "2",
                    "--trials", "4", "--seed", "11",
                    "--csv", str(path), "--summary", str(tmp_path / "s.json"),
                ]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_run_config_file(self, tmp_path):
        config = {
            "m1": 2, "m2": 2, "n": 3, "ne": 2,
            "trials": 3, "master_seed": 5, "mode": "static_eve",
            "p_start_db": 60.0, "p_stop_db": 80.0, "p_step_db": 10.0,
            "csv_out": str(tmp_path / "out.csv"),
            "summary_out": str(tmp_path / "out.json"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli(["simulate", "--config", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / "out.json").read_text())
        assert summary["mode"] == "static_eve"
        assert summary["p_grid_db"] == [60.0, 70.0, 80.0]

    def test_flag_overrides_config(self, tmp_path):
        config = {"m1": 1, "m2": 1, "n": 1, "ne": 1, "trials": 2,
                  "csv_out": str(tmp_path / "c.csv"), "summary_out": str(tmp_path / "s.json")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli(["simulate", "--config", str(cfg_path), "--trials", "3"]) == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["trials"] == 3

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"m1": 1, "m2": 1, "n": 1, "ne": 1, "bogus": 2}))
        assert run_cli(["simulate", "--config", str(cfg_path)]) == 2

    def test_unwritable_output_is_io_error(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = run_cli(
            ["simulate", "--m1", "1", "--m2", "1", "--n", "1", "--ne", "1",
             "--trials", "1", "--csv", str(target), "--summary", "-"]
        )
        assert code == 4


class TestExitCodes:
    def test_infeasible_allocation_maps_to_exit_3(self, monkeypatch, capsys):
        from sdoflab.errors import InfeasibleAllocation

        def explode(*args, **kwargs):
            raise InfeasibleAllocation("forced for the exit-code contract")

        monkeypatch.setattr(cli, "build_precoders", explode)
        code = run_cli(["design", "--m1", "2", "--m2", "2", "--n", "3", "--ne", "2"])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err


_SIM = ["simulate", "--m1", "1", "--m2", "1", "--n", "1", "--ne", "1", "--trials", "2"]


@pytest.mark.parametrize(
    "argv, env, config",
    [
        (_SIM + ["--threads", "0"], None, None),
        (["design", "--m1", "2", "--m2", "2", "--n", "3", "--ne", "2", "--seed", "-1"], None, None),
        (_SIM, "abc", None),
        (["simulate"], None, {"m1": 1, "m2": 1, "n": 1, "ne": 1, "window_db": 5}),
        (_SIM + ["--window-lo", "90"], None, None),
        (_SIM + ["--seed", "-3"], None, None),
        (["simulate"], None, {"m1": 1, "m2": 1, "n": 1, "ne": 1, "trials": "many"}),
        (["simulate"], None, {"m1": 1, "m2": 1, "n": 1, "ne": 1, "trials": 2.5}),
        (_SIM + ["--config", "no-such-run.json"], None, None),
        (_SIM + ["--tolerance", "-1"], None, None),
        (["simulate"], None, {"m1": True, "m2": 1, "n": 1, "ne": 1}),
        (_SIM, None, {"master_seed": False}),
        (_SIM, None, {"window_db": [True, 100.0]}),
        (_SIM, None, {"rank_rel_tol": 1e-6}),
    ],
    ids=["threads-0", "design-seed-negative", "env-threads-abc", "window-not-a-pair",
         "window-under-3-points", "simulate-seed-negative", "trials-not-integer",
         "trials-fractional", "config-missing", "tolerance-negative", "config-bool-count",
         "config-bool-seed", "config-bool-window", "config-rank-rel-tol"],
)
def test_bad_input_is_usage_error_before_sampling(argv, env, config, tmp_path, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started before the input was validated")

    monkeypatch.setattr(cli, "sample_channels", no_sampling)
    monkeypatch.setattr(cli, "sweep", no_sampling)
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("SDOFLAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("SDOFLAB_THREADS", env)
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_quick_verify_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--max-antennas", "3", "--seeds", "2", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "[PASS] theory_consistency" in printed
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} == {
            "theory_consistency", "allocation_audits", "precoder_invariants",
        }


def test_console_entry_point():
    # The child interpreter finds the package where this one did, installed or not.
    src = str(Path(sdoflab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "sdoflab.cli", "sdof", "--m1", "1", "--m2", "1", "--n", "1", "--ne", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "D_s = 1/2 (0.5)" in result.stdout
