"""The benchmark's workloads: their inputs, one timed pass, and the gates.

Each workload runs sdoflab through its public API in this process.  A pass
is the unit that ``wall_s`` times, made of ``steps`` that are timed one by
one (one per configuration, or the whole pass); ``check`` turns a pass's
step results into operations that pass or fail, and ``final_checks`` runs
whatever must stay out of the timed passes.  Every input is a function of
the workload seed and the pass index.

Calls go through module attributes (``simulate.sweep``, not a name bound
at import) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sdoflab import cli, simulate, verify
from sdoflab.channel import EveMode, SignalParams
from sdoflab.sdof import AntennaConfig, sum_sdof

# Two single-slot and two two-slot configurations.
CONFIGS = ((3, 3, 4, 2), (5, 1, 2, 5), (2, 2, 3, 1), (4, 4, 6, 3))
WINDOW_DB = (60.0, 100.0)
SLOPE_TOLERANCE = 0.15
LEAKAGE_SLOPE_MAX = 0.05

# Module entry points the traced run wraps, with the layer key each one
# reports under.  Both precoder builders are one layer: simulate reaches
# the build through ``build_precoders``, verify and cli through
# ``_build_with_report``.
SUBSPACE_FUNCTIONS = (
    "as_matrix",
    "orthonormal_basis",
    "nullspace",
    "intersect",
    "solve_into",
    "complement_projector",
    "complete_orthonormal",
)
ENTRY_POINTS = (
    ("sdoflab.channel", "sample_channels", "channel.sample_channels"),
    ("sdoflab.kernels", "logdet_eye_plus_gram", "kernels.logdet"),
    ("sdoflab.precoding", "build_precoders", "precoding.build"),
    ("sdoflab.precoding", "_build_with_report", "precoding.build"),
    ("sdoflab.precoding", "leakage_rank", "precoding.leakage_rank"),
    *(("sdoflab.subspaces", name, "subspaces") for name in SUBSPACE_FUNCTIONS),
    ("sdoflab.sdof", "allocate_jamming", "sdof.allocate_jamming"),
    ("sdoflab.simulate", "sweep", "simulate.sweep"),
    ("sdoflab.simulate", "legit_rate", "simulate.legit_rate"),
    ("sdoflab.simulate", "eve_leakage", "simulate.eve_leakage"),
    ("sdoflab.simulate", "estimate_dof", "simulate.estimate_dof"),
    ("sdoflab.verify", "run_verification", "verify.run_verification"),
    ("sdoflab.verify", "check_theory", "verify.check_theory"),
    ("sdoflab.verify", "check_allocations", "verify.check_allocations"),
    ("sdoflab.verify", "check_precoders", "verify.check_precoders"),
    ("sdoflab.cli", "main", "cli.main"),
    ("sdoflab.cli", "render_csv", "cli.render_csv"),
)
# Layers that only orchestrate the others: trace.coverage counts the time
# spent inside the other layers.
ORCHESTRATION = frozenset(
    {
        "simulate.sweep",
        "verify.run_verification",
        "verify.check_theory",
        "verify.check_allocations",
        "verify.check_precoders",
        "cli.main",
    }
)


def reference_time() -> float:
    """Seconds a fixed NumPy kernel takes: the machine-speed yardstick.

    Small complex SVD, QR, product and Cholesky calls, the same mix of
    interpreter and dispatch work as sdoflab's inner loops, on inputs that
    never change.  It runs no sdoflab code, so no change to sdoflab can
    move it; only the speed of the machine can.
    """
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    for _ in range(1200):
        a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        np.linalg.svd(a)
        np.linalg.qr(a.T)
        np.linalg.cholesky(a @ a.conj().T + np.eye(4))
    return time.perf_counter() - start


def pass_seed(seed: int, index: int) -> int:
    """Master seed of pass ``index``: distinct per pass, fixed by the workload seed."""
    return (seed * 1_000_003 + index) % 2**63


@dataclass(frozen=True)
class Check:
    """One operation's verdict."""

    name: str
    ok: bool
    detail: str


def _slope_check(config, legit_slope, leak_slope=None) -> Check:
    theory = sum_sdof(config).value
    ok = abs(legit_slope - theory) <= SLOPE_TOLERANCE
    detail = f"legit slope {legit_slope:.4f} vs D_s {theory:g}"
    if leak_slope is not None:
        ok = ok and abs(leak_slope) <= LEAKAGE_SLOPE_MAX
        detail += f", leakage slope {leak_slope:+.4f}"
    return Check(f"sweep {config}", ok, detail)


class Workload:
    """Interface of a workload; a subclass sets ``builds_per_pass`` and ``samples_per_pass``.

    ``steps(index)`` returns the callables of pass ``index``, ``check``
    turns their results into ``Check`` verdicts, ``pass_bytes`` gives the
    CSV bytes the pass wrote and ``final_checks`` runs after the last pass.
    """

    name = ""
    samples_per_pass = 0

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def warm_up(self) -> None:
        raise NotImplementedError

    def steps(self, index: int):
        raise NotImplementedError

    def check(self, outcome) -> list[Check]:
        raise NotImplementedError

    def pass_bytes(self, outcome) -> int:
        return 0

    def final_checks(self) -> list[Check]:
        return []


class SweepTimeVarying(Workload):
    """``simulate.sweep`` on a dense grid with a time-varying eavesdropper.

    Rate evaluation and channel sampling dominate: every grid point draws
    fresh eavesdropper matrices and evaluates three log-determinants, and
    each trial builds its precoders once.
    """

    name = "sweep-tv-dense"
    grid = tuple(60.0 + 2.5 * i for i in range(17))
    # The trial count keeps the leakage-slope gate well clear of Monte
    # Carlo noise: its standard deviation is about 0.011 at 160 trials for
    # (3, 3, 4, 2), the noisiest configuration.
    trials = 160
    builds_per_pass = len(CONFIGS) * trials
    samples_per_pass = builds_per_pass * len(grid)

    def params(self) -> dict:
        return {
            "configs": CONFIGS,
            "p_grid_db": self.grid,
            "trials": self.trials,
            "mode": EveMode.TIME_VARYING.value,
            "threads": 1,
            "window_db": WINDOW_DB,
        }

    def _sweep(self, config, trials, master_seed):
        samples = simulate.sweep(
            config,
            SignalParams(1.0),
            self.grid,
            trials=trials,
            master_seed=master_seed,
            mode=EveMode.TIME_VARYING,
            threads=1,
        )
        legit, leak = simulate.estimate_dof(samples, WINDOW_DB)
        return config, legit.slope, leak.slope

    def warm_up(self) -> None:
        self._sweep(AntennaConfig(*CONFIGS[0]), 1, 0)

    def steps(self, index: int):
        master = pass_seed(self.seed, index)
        return [
            functools.partial(self._sweep, AntennaConfig(*cfg), self.trials, master)
            for cfg in CONFIGS
        ]

    def check(self, outcome) -> list[Check]:
        return [_slope_check(*result) for result in outcome]


class VerifyPrecoders(Workload):
    """``verify.run_verification`` without the Monte Carlo smoke tests.

    Precoder synthesis dominates: 750 antenna configurations times the
    channel seeds, each built, audited and rank-checked, with no rate
    evaluation.  Its channel seeds are fixed by the library (0 to
    ``seeds - 1``), so the workload seed does not change its inputs.  One
    seed keeps a pass near a second, short enough for the reference kernel
    around it to follow the machine's speed.
    """

    name = "verify-precoders"
    max_antennas = 5
    seeds = 1
    builds_per_pass = 750 * seeds  # 750 configurations in the precoder grid up to 5 antennas

    def params(self) -> dict:
        return {"max_antennas": self.max_antennas, "seeds": self.seeds, "full": False}

    def warm_up(self) -> None:
        verify.run_verification(max_antennas=1, seeds=1, full=False)

    def steps(self, index: int):
        return [
            functools.partial(
                verify.run_verification,
                max_antennas=self.max_antennas,
                seeds=self.seeds,
                full=False,
            )
        ]

    def check(self, outcome) -> list[Check]:
        (report,) = outcome
        return [Check(c["name"], c["passed"], c["detail"]) for c in report["checks"]]


class SimulateStaticThreads(Workload):
    """``sdoflab simulate`` in-process, static eavesdropper, two worker threads.

    One draw per trial on a coarse grid makes the precoder build the
    largest share; the CLI adds the thread pool, slope regression and the
    CSV and summary files.  The determinism check compares each
    configuration's CSV from the first pass with a rerun and with a
    one-thread run.
    """

    name = "simulate-static-threads2"
    grid = (60.0, 100.0, 20.0)  # start, stop, step in dB: 60, 80, 100
    trials = 200
    threads = 2
    builds_per_pass = len(CONFIGS) * trials
    samples_per_pass = builds_per_pass * 3

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self._first_hashes = None

    def params(self) -> dict:
        return {
            "configs": CONFIGS,
            "p_grid_db": self.grid,
            "trials": self.trials,
            "mode": EveMode.STATIC.value,
            "threads": self.threads,
            "window_db": WINDOW_DB,
        }

    def _simulate(self, cfg, trials, master_seed, threads, tag):
        csv = self.tmp / f"{tag}-{'-'.join(map(str, cfg))}.csv"
        summary = csv.with_suffix(".json")
        m1, m2, n, n_e = cfg
        code = cli.main(
            [
                "simulate",
                "--m1", str(m1), "--m2", str(m2), "--n", str(n), "--ne", str(n_e),
                "--trials", str(trials),
                "--seed", str(master_seed),
                "--mode", EveMode.STATIC.value,
                "--threads", str(threads),
                "--p-start", str(self.grid[0]),
                "--p-stop", str(self.grid[1]),
                "--p-step", str(self.grid[2]),
                "--csv", str(csv),
                "--summary", str(summary),
            ]
        )
        return AntennaConfig(*cfg), code, csv, summary

    def warm_up(self) -> None:
        self._simulate(CONFIGS[0], 1, 0, self.threads, "warm")

    def steps(self, index: int):
        master = pass_seed(self.seed, index)
        return [
            functools.partial(self._simulate, cfg, self.trials, master, self.threads, "pass")
            for cfg in CONFIGS
        ]

    def check(self, outcome) -> list[Check]:
        checks = []
        for config, code, _, summary in outcome:
            if code != 0:
                checks.append(Check(f"simulate {config}", False, f"exit code {code}"))
                continue
            doc = json.loads(summary.read_text(encoding="utf-8"))
            checks.append(_slope_check(config, doc["legit_slope"]))
        if self._first_hashes is None:
            self._first_hashes = [_sha256(csv) for _, _, csv, _ in outcome]
        return checks

    def pass_bytes(self, outcome) -> int:
        return sum(csv.stat().st_size for _, _, csv, _ in outcome)

    def final_checks(self) -> list[Check]:
        """CSV byte identity against a rerun and a one-thread run of pass 0."""
        master = pass_seed(self.seed, 0)
        checks = []
        for cfg, first in zip(CONFIGS, self._first_hashes):
            for threads, label in ((self.threads, "rerun"), (1, "threads 1")):
                _, code, csv, _ = self._simulate(cfg, self.trials, master, threads, "det")
                same = code == 0 and _sha256(csv) == first
                checks.append(
                    Check(f"determinism {cfg} {label}", same, "CSV SHA-256 " + ("matches" if same else "differs"))
                )
        return checks


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


WORKLOADS = {w.name: w for w in (SweepTimeVarying, VerifyPrecoders, SimulateStaticThreads)}
