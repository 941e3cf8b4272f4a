import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import bound_stacks, max_abs, real2
import sdoflab
from sdoflab import cli, simulate


def run_cli(args):
    return cli.main(args)


# SHA-256 of every count the CLI prints in paper units: ``sdof`` stdout for
# each configuration with m1, m2, n <= 5 and 0 <= n_e <= m1 + m2, then the
# ``allocation`` block of ``design --seed 5`` for each of DESIGN_CONFIGS.
PRINTED_COUNTS_DIGEST = "871ca4668c5d892e5352ad1a854232fad688891656f59b7315c4a5c3eb9cbcf5"
DESIGN_CONFIGS = ((3, 3, 4, 2), (5, 1, 2, 5), (2, 2, 3, 1), (4, 4, 6, 3), (1, 1, 1, 1))
# SHA-256 of the ``residuals`` and ``ranks`` blocks of ``design --seed 5`` for
# each of DESIGN_CONFIGS: the set audit's values, bit for bit.
DESIGN_AUDIT_DIGEST = "56158e48739967674be71fa1dfa06b362c090b7eee088949b40ce07985e9731c"


def _antenna_flags(m1, m2, n, ne):
    return ["--m1", str(m1), "--m2", str(m2), "--n", str(n), "--ne", str(ne)]


def test_printed_counts_are_pinned(capsys):
    digest = hashlib.sha256()
    for m1, m2, n in itertools.product(range(1, 6), repeat=3):
        for ne in range(m1 + m2 + 1):
            assert run_cli(["sdof", *_antenna_flags(m1, m2, n, ne)]) == 0
            digest.update(capsys.readouterr().out.encode())
    for cfg in DESIGN_CONFIGS:
        assert run_cli(["design", *_antenna_flags(*cfg), "--seed", "5"]) == 0
        allocation = json.loads(capsys.readouterr().out)["allocation"]
        digest.update(json.dumps(allocation, indent=2).encode())
    assert digest.hexdigest() == PRINTED_COUNTS_DIGEST


def test_design_audit_is_pinned(capsys):
    digest = hashlib.sha256()
    for cfg in DESIGN_CONFIGS:
        assert run_cli(["design", *_antenna_flags(*cfg), "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for block in ("residuals", "ranks"):
            digest.update(json.dumps(doc[block], indent=2).encode())
    assert digest.hexdigest() == DESIGN_AUDIT_DIGEST


def test_the_parser_is_built_once_per_process(capsys):
    # Parsing leaves the one parser as it was: usage errors and help read
    # the same on every call.
    assert cli._build_parser() is cli._build_parser()
    seen = []
    for _ in range(2):
        for argv in (["sdof", "--m1", "2"], ["simulate", "--help"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(argv)
            captured = capsys.readouterr()
            seen.append((exc.value.code, captured.out, captured.err))
    assert [code for code, _, _ in seen] == [2, 0, 2, 0]
    assert seen[:2] == seen[2:]


class TestSdofCommand:
    def test_prints_exact_and_decimal(self, capsys):
        assert run_cli(["sdof", "--m1", "2", "--m2", "2", "--n", "3", "--ne", "1"]) == 0
        out = capsys.readouterr().out
        assert "D_s = 5/2 (2.5)" in out
        assert "C2" in out
        assert "bounds:" in out
        assert "j_s = 1/2, d1 = 3/2, d2 = 1\n" in out

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
        # on the real forms of the recorded complex channels
        h1 = real2(cli.decode_matrix(doc["channel"]["h1"]))
        h2 = real2(cli.decode_matrix(doc["channel"]["h2"]))
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
        assert max_abs(u - np.eye(4)) <= 1e-9  # on the 2n real receive dimensions

    def test_no_eavesdropper_gives_empty_jamming(self, tmp_path):
        out = tmp_path / "design.json"
        assert run_cli(
            ["design", "--m1", "2", "--m2", "2", "--n", "3", "--ne", "0", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["precoders"]["v1_j"]["cols"] == 0
        assert doc["precoders"]["v2_j"]["cols"] == 0


    def test_real_matrices_carry_no_imaginary_part(self, tmp_path):
        out = tmp_path / "design.json"
        args = ["--m1", "4", "--m2", "4", "--n", "6", "--ne", "3", "--seed", "2"]
        assert run_cli(["design", *args, "--out", str(out)]) == 0
        text = out.read_text()
        doc = json.loads(text)
        assert not any("im" in m for m in doc["precoders"].values())
        assert all("im" in m for m in doc["channel"].values())
        # Every matrix round-trips exactly: the channels as complex arrays,
        # the precoders and the projector as real ones.
        config = sdoflab.AntennaConfig(4, 4, 6, 3)
        rngs = [sdoflab.RngStream(2)]
        ch = sdoflab.sample_channels(config, rngs, sdoflab.EveMode.TIME_VARYING)
        pre = sdoflab.build_precoders(ch, sdoflab.allocate_jamming(config), rngs)
        for group, source in (("channel", ch), ("precoders", pre)):
            for key, encoded in doc[group].items():
                got, want = cli.decode_matrix(encoded), getattr(source, key)[0]
                assert got.dtype == want.dtype and np.array_equal(got, want), key
        # The file is smaller than with an all-zero imaginary part per real matrix.
        for encoded in doc["precoders"].values():
            encoded["im"] = [["0" for _ in row] for row in encoded["re"]]
        assert len(text) < len(json.dumps(doc, indent=2) + "\n")


# SHA-256 of the ``simulate`` CSV and summary bytes of each of SIMULATE_CONFIGS
# in both modes at 1 and 2 threads, 5 trials on the default grid.  Recorded
# with NumPy 2.4.6; it pins the rates across commits, where criterion 8 only
# compares reruns within one.
SIMULATE_OUTPUTS_DIGEST = "bb7da0f799b34f2798e8de016c64d7b3fc9db525143c80546bd36daa30bf4441"
# The same runs' ``p_db,trial,legit_rate_bits`` columns alone: a change to
# the leakage leaves it as it is.
LEGIT_COLUMNS_DIGEST = "a56099db4cfafe25b211a1c7773bbba806e4ac0def608a43db89cd0cdfb949c5"
# The static-mode runs alone, CSV and summary without its ``mode`` field: a
# change to the time-varying eavesdropper leaves it as it is.
STATIC_OUTPUTS_DIGEST = "648f3a6cc664471de2837020b1531dbf6d74a486cd16530605c981a9ca4fd27c"
SIMULATE_CONFIGS = ((2, 2, 3, 1), (3, 3, 4, 2))


def _simulate_legs(tmp_path, monkeypatch, forks, modes=("time_varying_eve", "static_eve")):
    """The (CSV, summary) bytes of each of SIMULATE_CONFIGS in ``modes`` at 1 and 2 threads, and each leg's workers.

    Stacks hold at most 2 trials: 5 trials take 3 stacks, so every threads-2
    leg runs on 2 worker processes, this one and one forked.  ``forks`` is
    the fixture of that name.
    """
    legs, workers = [], []
    csv_path, summary_path = tmp_path / "sweep.csv", tmp_path / "summary.json"
    for cfg, mode, threads in itertools.product(SIMULATE_CONFIGS, modes, ("1", "2")):
        bound_stacks(monkeypatch, sdoflab.AntennaConfig(*cfg), 2, sdoflab.EveMode(mode))
        forks.clear()
        assert run_cli(
            ["simulate", *_antenna_flags(*cfg), "--mode", mode, "--threads", threads,
             "--trials", "5", "--seed", "7", "--csv", str(csv_path), "--summary", str(summary_path)]
        ) == 0
        legs.append((csv_path.read_bytes(), summary_path.read_bytes()))
        workers.append(1 + len(forks))
    return legs, workers


def test_simulate_outputs_are_pinned(tmp_path, uncapped_workers, monkeypatch, forks):
    legs, workers = _simulate_legs(tmp_path, monkeypatch, forks)
    digest = hashlib.sha256()
    for csv, summary in legs:
        digest.update(csv)
        digest.update(summary)
    assert digest.hexdigest() == SIMULATE_OUTPUTS_DIGEST
    assert workers == [1, 2] * 4


def test_simulate_legit_columns_are_pinned(tmp_path, uncapped_workers, monkeypatch, forks):
    legs, _ = _simulate_legs(tmp_path, monkeypatch, forks)
    digest = hashlib.sha256()
    for csv, _ in legs:
        for line in csv.decode().splitlines():
            digest.update(line.rsplit(",", 1)[0].encode() + b"\n")
    assert digest.hexdigest() == LEGIT_COLUMNS_DIGEST


def test_static_simulate_outputs_are_pinned(tmp_path, uncapped_workers, monkeypatch, forks):
    legs, _ = _simulate_legs(tmp_path, monkeypatch, forks, ("static_eve",))
    digest = hashlib.sha256()
    for csv, summary in legs:
        fields = json.loads(summary)
        del fields["mode"]
        digest.update(csv)
        digest.update(json.dumps(fields, indent=2).encode())
    assert digest.hexdigest() == STATIC_OUTPUTS_DIGEST


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
        # Every value is a plain number: a NumPy scalar repr would not parse.
        for line in lines[1:]:
            p_db, trial, legit, leak = line.split(",")
            assert float(p_db) in (60.0, 70.0, 80.0, 90.0, 100.0)
            assert 0 <= int(trial) < 8
            assert float(legit) >= 0.0 and float(leak) >= 0.0
        summary = json.loads(summary_path.read_text())
        assert summary["passed"] is True
        assert abs(summary["legit_slope"] - 0.5) <= 0.15
        assert summary["theory_value_exact"] == "1/2"

    def test_finite_snr_whose_scaled_singular_values_overflow_runs(self, tmp_path):
        # At 3080 dB every per-stream SNR is finite, but SNR x s^2 passes
        # the float range in the rate kernel.
        summary_path = tmp_path / "summary.json"
        code = run_cli(
            ["simulate", *_antenna_flags(2, 2, 3, 1), "--alpha", "0.9",
             "--p-start", "3060", "--p-stop", "3080",
             "--trials", "1", "--csv", str(tmp_path / "sweep.csv"), "--summary", str(summary_path)]
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert summary["passed"] is True
        assert summary["theory_value_exact"] == "5/2"

    def test_zero_trials_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            ["simulate", "--m1", "1", "--m2", "1", "--n", "1", "--ne", "1", "--trials", "0"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --trials must be at least 1, got 0\n"

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

    def test_config_flag_is_refused(self, tmp_path, capsys):
        # Flags are the one way to set a run: a run file is an unrecognised argument.
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"m1": 1, "m2": 1, "n": 1, "ne": 1, "trials": 2}))
        with pytest.raises(SystemExit) as exc:
            run_cli(_SIM + ["--config", str(cfg_path), "--csv", str(tmp_path / "c.csv"),
                            "--summary", str(tmp_path / "s.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

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
_HUGE = ["--m1", "1000000", "--m2", "1", "--n", "1000000", "--ne", "1"]
_OVER_BUDGET = ["--m1", "1500", "--m2", "1500", "--n", "1500", "--ne", "750"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (_SIM + ["--threads", "0"], "--threads"),
        (["design", "--m1", "2", "--m2", "2", "--n", "3", "--ne", "2", "--seed", "-1"], None),
        # The slope is regressed over the whole grid: 60 and 90 dB are too few points.
        (_SIM + ["--p-step", "30"], None),
        (_SIM + ["--seed", "-3"], None),
        (_SIM + ["--alpha", "nan"], "--alpha"),
        (_SIM + ["--p-step", "inf"], "--p-step"),
        (_SIM + ["--p-stop", "inf"], "--p-stop"),
        (_SIM + ["--p-start", "3070", "--p-stop", "3100"], None),
        # p is finite at 3080 dB, but the one legitimate real stream of
        # (1, 1, 1, 1) has SNR 0.9 p / (1/2) at alpha = 0.1, past the float range.
        (_SIM + ["--alpha", "0.1", "--p-start", "3060", "--p-stop", "3080"], None),
        (["simulate", "--m1", "2", "--m2", "2", "--n", "3", "--ne", "1", "--p-start=-1e308",
          "--p-stop=1e308", "--trials", "1"], None),
        # 40 dB in steps of 0.004 dB is 10,001 points, one past the cap.
        (_SIM + ["--p-step", "0.004"], None),
        # A step below the float spacing at 60 dB repeats grid points.
        (["simulate", "--m1", "1", "--m2", "1", "--n", "1", "--ne", "1", "--trials", "1",
          "--p-start", "60", "--p-stop", "60.00000000001", "--p-step", "1e-15"], None),
        (_SIM + ["--p-step", "0"], "--p-step"),
        (_SIM + ["--p-start", "80", "--p-stop", "70"], "--p-stop"),
        # 5 x 10**15 samples: the rate arrays alone would take 80 PB.
        (_SIM + ["--trials", "1000000000000000"], "--trials"),
        # One trial's draw and build: 232,000 GB, then 1.13 GB, against 1 GB.
        (["design"] + _HUGE, "--m1"),
        (["simulate"] + _OVER_BUDGET, "--m1"),
    ],
    ids=["threads-0", "design-seed-negative", "grid-under-3-points", "simulate-seed-negative",
         "alpha-nan", "p-step-inf", "p-stop-inf",
         "power-overflow", "per-stream-overflow", "grid-span-overflow", "grid-over-point-cap",
         "grid-step-below-spacing", "p-step-zero", "p-stop-below-p-start", "samples-over-cap",
         "design-trial-over-memory", "simulate-trial-over-memory"],
)
def test_bad_input_is_usage_error_before_sampling(argv, flag, tmp_path, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started before the input was validated")

    monkeypatch.setattr(cli, "sample_channels", no_sampling)
    monkeypatch.setattr(cli, "sweep", no_sampling)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    if flag is not None:
        assert err.startswith(f"error: {flag} "), err


@pytest.mark.parametrize("command", ["design", "simulate"])
def test_antennas_whose_trial_fits_in_memory_reach_sampling(command, monkeypatch):
    # A (1400, 1400, 1400, 700) trial's draw and build model 0.99 GB.
    class Sampled(Exception):
        pass

    def sampled(*args, **kwargs):
        raise Sampled

    monkeypatch.setattr(cli, "sample_channels", sampled)
    monkeypatch.setattr(cli, "sweep", sampled)
    with pytest.raises(Sampled):
        run_cli([command, "--m1", "1400", "--m2", "1400", "--n", "1400", "--ne", "700"])


def test_sdof_has_no_antenna_bound(capsys):
    assert run_cli(["sdof"] + _HUGE) == 0
    assert capsys.readouterr().out.startswith("D_s = 1999999/2 ")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--m1", "1", "--m2", "1", "--n", "1", "--trials", "2"],
        _SIM + ["--trials", "many"],
        _SIM + ["--trials", "2.5"],
        _SIM + ["--threads", "1.5"],
        # The regression window is the grid and the slope tolerance fixed: neither is a flag.
        _SIM + ["--window-lo", "60"],
        _SIM + ["--window-hi", "100"],
        _SIM + ["--tolerance", "0.15"],
    ],
    ids=["ne-missing", "trials-not-integer", "trials-fractional", "threads-fractional",
         "window-lo", "window-hi", "tolerance"],
)
def test_malformed_flag_is_refused_by_the_parser(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err


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

    def test_max_antennas_over_cap_is_usage_error(self, monkeypatch, capsys):
        # The theory table holds A^3 (A + 2) rows of about 700 B: 34 is the
        # largest A within 1 GB, and it is refused before the table is built.
        started = []

        def record(max_antennas, seeds, full):
            started.append(max_antennas)
            return {"checks": [], "passed": True}

        monkeypatch.setattr(cli, "run_verification", record)
        assert cli._ANTENNAS_MAX == 34
        assert run_cli(["verify", "--max-antennas", "35"]) == 2
        assert capsys.readouterr().err == "error: --max-antennas must be at most 34, got 35\n"
        assert run_cli(["verify", "--max-antennas", "34"]) == 0
        assert started == [34]
        with pytest.raises(SystemExit):
            run_cli(["verify", "--help"])
        assert "1 to 34" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("seeds", [cli._SEEDS_MAX + 1, 10**12], ids=["one-over-cap", "10^12"])
    def test_seeds_over_cap_is_usage_error(self, seeds, monkeypatch, capsys):
        # Refused before any seed's streams are drawn: the walk's memory
        # grows with the seeds.
        def refuse(*args, **kwargs):
            raise AssertionError("verification started before --seeds was checked")

        monkeypatch.setattr(cli, "run_verification", refuse)
        assert run_cli(["verify", "--seeds", str(seeds)]) == 2
        assert capsys.readouterr().err == f"error: --seeds must be at most {cli._SEEDS_MAX}, got {seeds}\n"
        with pytest.raises(SystemExit):
            run_cli(["verify", "--help"])
        assert f"1 to {cli._SEEDS_MAX}" in " ".join(capsys.readouterr().out.split())


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
