"""Shared helpers and independent oracles for the test suite.

Oracles here deliberately avoid the library's SVD-based code paths:
rank is computed by pivoted Gaussian elimination and intersection
dimensions by principal angles, so the checks stay independent of what
they verify.
"""

import dataclasses

import numpy as np

from sdoflab import channel, simulate
from sdoflab.sdof import allocate_jamming


def crandn(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian matrix."""
    return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2.0)


def elimination_rank(a, tol: float = 1e-8) -> int:
    """Rank via Gaussian elimination with partial pivoting (no SVD)."""
    work = np.array(a, dtype=np.complex128)
    rows, cols = work.shape
    rank = 0
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot = row + int(np.argmax(np.abs(work[row:, col])))
        if np.abs(work[pivot, col]) <= tol:
            continue
        work[[row, pivot]] = work[[pivot, row]]
        work[row] = work[row] / work[row, col]
        for other in range(rows):
            if other != row:
                work[other] = work[other] - work[other, col] * work[row]
        row += 1
        rank += 1
    return rank


def principal_angle_intersection_dim(qa, qb, tol: float = 1e-8) -> int:
    """Intersection dimension via principal angles between orthonormal bases."""
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return 0
    cosines = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    return int(np.count_nonzero(cosines >= 1.0 - tol))


def real2(a) -> np.ndarray:
    """The real form [[Re a, -Im a], [Im a, Re a]] of one complex matrix, assembled with np.block."""
    a = np.asarray(a, dtype=np.complex128)
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


def max_abs(mat) -> float:
    mat = np.asarray(mat)
    return float(np.abs(mat).max()) if mat.size else 0.0


def ks_statistic(samples, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov statistic against a given CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    theoretical = cdf(xs)
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(empirical_hi - theoretical),
                                   np.abs(theoretical - empirical_lo))))


def seed_sequence_eavesdropper(config, seed: int, key) -> tuple[np.ndarray, np.ndarray]:
    """The (n_e, m1) g1 and (n_e, m2) g2 CN(0, 1) matrices of one eavesdropper address, from NumPy alone.

    ``key`` is the address's spawn key: NumPy's ``SeedSequence(seed,
    spawn_key=key)`` seeds a ``default_rng`` whose leading standard
    normals are the real and then the imaginary parts of g1, row by row,
    then those of g2, each complex entry scaled by sqrt(1/2).
    """
    a, b = config.n_e * config.m1, config.n_e * config.m2
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    re1, im1, re2, im2 = np.split(gen.standard_normal(2 * (a + b)), [a, 2 * a, 2 * a + b])
    g1 = np.sqrt(0.5) * (re1 + 1j * im1)
    g2 = np.sqrt(0.5) * (re2 + 1j * im2)
    return g1.reshape(config.n_e, config.m1), g2.reshape(config.n_e, config.m2)


def member(stack, t: int):
    """Member ``t`` of a trial-stacked dataclass: every array and nested dataclass indexed at ``t``.

    Turns ``sample_channels`` draws, ``build_precoders`` sets and their
    reports into one trial's matrices and scalars for the oracles above.
    """
    values = {}
    for field in dataclasses.fields(stack):
        value = getattr(stack, field.name)
        if dataclasses.is_dataclass(value):
            value = member(value, t)
        elif isinstance(value, np.ndarray):
            value = value[t]
        values[field.name] = value
    return type(stack)(**values)


def bound_stacks(monkeypatch, config, trials: int, mode) -> None:
    """Bound every stack of a sweep of ``config`` at ``trials`` trials.

    A sweep then needs more stacks, and so may start more worker threads,
    than its trials alone would.
    """
    build = simulate._stack_bytes(config, allocate_jamming(config), mode).build
    monkeypatch.setattr(simulate, "STACK_BYTES_MAX", simulate._STACK_FIXED_BYTES + trials * build)


def count_generators(monkeypatch) -> list:
    """Record the state words of every generator the channel module seeds from now on.

    Each stream's generator reads its state words from a ``_StateWords``
    once, so the returned list grows by one per generator made.
    """
    made = []

    class Counting(channel._StateWords):
        def generate_state(self, n_words, dtype=np.uint32):
            made.append(self.words)
            return super().generate_state(n_words, dtype)

    monkeypatch.setattr(channel, "_StateWords", Counting)
    return made
