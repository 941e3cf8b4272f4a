"""Jamming and legitimate precoder construction plus zero-forcing reception.

Each transmitter's precoder is assembled from per-method jamming blocks
(nullspace, aligned, random), re-orthonormalized within the transmitter,
and completed with orthonormal legitimate columns.  The receiver-side
post-processor is the orthogonal projector onto the complement of the
received jamming columns.

Two-slot allocations (half-integer stream counts) are realized on a
slot-doubled block-diagonal channel, where every count becomes integral.
The doubled aligned directions are built as explicitly slot-balanced
mixtures of the per-slot intersection basis: a slot-pure doubled basis
would leave one slot's eavesdropper under-jammed, so each aligned column
carries equal energy in both slots by construction.

The build runs on a stack of trials: every matrix carries a leading trial
axis, one stacked SVD or QR per step serves all trials, and each trial
draws its random directions from its own generator, so a trial's set does
not depend on the stack it was built in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelRealization, RngStream, jamming_generators, slot_extend
from .errors import DimensionMismatch, InfeasibleAllocation
from .sdof import AntennaConfig, JammingAllocation, JammingMethod
from .subspaces import (
    as_matrix,
    complement_projector,
    complete_orthonormal,
    intersect,
    nullspace,
    orthonormal_basis,
    ranks,
    solve_into,
    svd,
)

__all__ = [
    "PrecoderSet",
    "random_jamming",
    "nullspace_jamming",
    "build_precoders",
    "leakage_rank",
]


@dataclass(frozen=True)
class BuildReport:
    """Residuals and ranks recorded while assembling a precoder set."""

    nullspace_residual: float
    alignment_residual: float
    unitarity_residual: float
    zero_forcing_residual: float
    u_rank: int
    legit_rank: int


@dataclass(frozen=True)
class PrecoderSet:
    """Precoders for both transmitters plus the receiver post-processor.

    For ``slots == 1`` the shapes are v1_l: (m1, d1), v1_j: (m1, j_tx1),
    likewise for transmitter two, and u is the (n, n) zero-forcing
    projector.  For ``slots == 2`` every matrix lives on the slot-stacked
    spaces (rows doubled, stream counts doubled) and rate evaluations
    normalize per slot.  ``report`` holds the residuals and ranks the
    build measured on this set.
    """

    v1_l: np.ndarray
    v1_j: np.ndarray
    v2_l: np.ndarray
    v2_j: np.ndarray
    u: np.ndarray
    slots: int
    report: BuildReport


def _haar_columns(m: int, streams: int, gens) -> np.ndarray:
    """One Haar-random m x streams isometry per generator, stacked in their order."""
    w = np.array([g.standard_normal((2, m, streams)) for g in gens])
    q, r = np.linalg.qr(w[:, 0] + 1j * w[:, 1])
    # Fixing the R-diagonal phases makes the column distribution Haar.
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_jamming(m: int, streams: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-random orthonormal jamming directions: an m x streams isometry."""
    if streams < 0 or streams > m:
        raise DimensionMismatch(f"cannot place {streams} random streams on {m} antennas")
    if streams == 0:
        return np.zeros((m, 0), dtype=np.complex128)
    return _haar_columns(m, streams, [gen])[0]


def _nullspace_block(h: np.ndarray, streams: int, factors=None) -> np.ndarray:
    ns = nullspace(h, factors)
    if streams > ns.shape[-1]:
        raise InfeasibleAllocation(
            f"nullspace of a {h.shape[-2]}x{h.shape[-1]} channel has dimension "
            f"{ns.shape[-1]}, cannot take {streams} streams"
        )
    return ns[..., :streams]


def nullspace_jamming(h, streams: int) -> np.ndarray:
    """Orthonormal jamming columns invisible at the receiver: h @ V ~ 0."""
    return _nullspace_block(as_matrix(h, "h"), streams)


def _aligned_targets(q1: np.ndarray, q2: np.ndarray, pairs: int, slots: int) -> np.ndarray:
    """Orthonormal receive directions that both transmitters' aligned jamming hits.

    ``q1`` and ``q2`` are orthonormal bases of one slot's received signal
    spaces, the column spaces of h1 and h2 (stacks allowed).  They
    intersect in c_0, c_1, ..., which generically has positive dimension
    only when m1 + m2 > n.  One slot takes the first ``pairs`` of these.
    Two slots alternate (c_j; c_j)/sqrt(2) and (c_j; -c_j)/sqrt(2) on the
    doubled receive space: any prefix of that list is orthonormal and gives
    every transmitter full-rank jamming in each slot.
    """
    base = intersect(q1, q2)
    if pairs > slots * base.shape[-1]:
        raise InfeasibleAllocation(
            f"received signal spaces intersect in {base.shape[-1]} dimensions per slot, "
            f"cannot align {pairs} streams over {slots} slot(s)"
        )
    if slots == 1:
        return base[..., :pairs]
    t = np.arange(pairs)
    c = base[..., t // 2]
    signed = np.where(t % 2 == 0, 1.0, -1.0) * c
    return np.concatenate([c, signed], axis=-2) * (1.0 / np.sqrt(2.0))


def _solve_per_slot(h_slot: np.ndarray, targets: np.ndarray, factors) -> np.ndarray:
    """Minimum-norm V with ``h @ V = targets``, h the one- or two-slot channel of ``h_slot``.

    The two-slot channel diag(h_slot, h_slot) is block diagonal, so its
    minimum-norm solution is each slot's half of ``targets`` solved through
    ``h_slot`` alone: one solve with both halves side by side.
    """
    n = h_slot.shape[-2]
    if targets.shape[-2] == n:
        return solve_into(h_slot, targets, factors)
    pairs = targets.shape[-1]
    side_by_side = np.concatenate([targets[..., :n, :], targets[..., n:, :]], axis=-1)
    v = solve_into(h_slot, side_by_side, factors)
    return np.concatenate([v[..., :pairs], v[..., pairs:]], axis=-2)


def _max_abs(mat: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of every matrix of a stack (0 for an empty matrix)."""
    if mat.size:
        return np.abs(mat).max(axis=(-2, -1))
    return np.zeros(mat.shape[:-2])


def _hstack(blocks) -> np.ndarray:
    return np.concatenate(blocks, axis=-1)


def build_precoders(
    config: AntennaConfig,
    ch: ChannelRealization,
    alloc: JammingAllocation,
    rng: RngStream | Sequence[RngStream],
) -> PrecoderSet | list[PrecoderSet]:
    """Assemble the full precoder set for an audited allocation.

    Jamming blocks are built per method, stacked, and re-orthonormalized
    within each transmitter; legitimate columns are an orthonormal
    completion against the jamming columns; the post-processor u is the
    complement projector of the received jamming.  Random directions come
    from ``jamming_generators``, one per trial.  The set's ``report``
    records the construction's residuals and ranks.

    One trial: ``ch.h1`` and ``ch.h2`` are matrices, ``rng`` is the
    trial's ``RngStream`` and the result is its ``PrecoderSet``.  A stack
    of trials: ``ch.h1`` and ``ch.h2`` carry a leading trial axis
    (``sample_channels`` on a sequence of streams), ``rng`` is a sequence
    with one ``RngStream`` per trial, and the result is a list with one
    ``PrecoderSet`` per trial, each with its own report.  Every SVD and QR
    runs once over the whole stack, and each trial draws from its own
    generator in a fixed order (transmitter one's random block,
    transmitter two's, then the legitimate completions of one and two), so
    a trial's set is bit for bit the same in any stack, alone or not.

    InfeasibleAllocation propagates from the per-method constructors when
    the allocation does not fit the channel (which for generic channels
    indicates an allocation/configuration mismatch, not bad luck).
    InvalidMatrix means ``ch.h1`` or ``ch.h2`` is not a finite matrix, or
    stack of matrices.  A trial whose channel has a non-generic rank fails
    the stack with NumericalFailure; the error's ``member`` names it.
    """
    if isinstance(rng, RngStream):
        h1 = as_matrix(ch.h1, "h1")[None]
        h2 = as_matrix(ch.h2, "h2")[None]
        rngs = [rng]
    else:
        h1 = as_matrix(ch.h1, "h1", stack=True)
        h2 = as_matrix(ch.h2, "h2", stack=True)
        rngs = list(rng)
        if not len(h1) == len(h2) == len(rngs):
            raise DimensionMismatch(
                f"{len(h1)} h1 and {len(h2)} h2 matrices for {len(rngs)} random streams"
            )
    sets = _build_stack(h1, h2, alloc, jamming_generators(rngs))
    return sets[0] if isinstance(rng, RngStream) else sets


def _build_stack(h1_slot, h2_slot, alloc: JammingAllocation, gens) -> list[PrecoderSet]:
    """``build_precoders`` on validated (trials, n, m) channel stacks, one generator per trial."""
    slots = alloc.slots
    h1 = slot_extend(h1_slot) if slots == 2 else h1_slot
    h2 = slot_extend(h2_slot) if slots == 2 else h2_slot

    def scaled(count) -> int:
        value, rest = divmod(count.numerator * slots, count.denominator)
        if rest:
            raise InfeasibleAllocation(f"stream count {count} not integral over {slots} slot(s)")
        return value

    aligned_pairs = scaled(alloc.method_streams(1, JammingMethod.ALIGNED))
    if aligned_pairs != scaled(alloc.method_streams(2, JammingMethod.ALIGNED)):
        raise InfeasibleAllocation("aligned stream counts must match across transmitters")

    # One SVD per channel serves its received basis, its aligned solve
    # and, on one slot, its nullspace block.  A two-slot nullspace block
    # factors the slot-space channel itself.
    def factored(h_slot, entries):
        nulls = slots == 1 and any(m is JammingMethod.NULLSPACE and c for m, c in entries)
        return svd(h_slot) if aligned_pairs or nulls else None

    f1 = factored(h1_slot, alloc.tx1)
    f2 = factored(h2_slot, alloc.tx2)

    # Minimum-norm solves, so h1 v1 = h2 v2 = targets up to noise.  Their
    # columns are not orthonormal; assembly re-orthonormalizes them within
    # each transmitter, an invertible mix that keeps every rank count.
    if aligned_pairs:
        bases = orthonormal_basis(h1_slot, f1), orthonormal_basis(h2_slot, f2)
        targets = _aligned_targets(*bases, aligned_pairs, slots)
        v1_aligned = _solve_per_slot(h1_slot, targets, f1)
        v2_aligned = _solve_per_slot(h2_slot, targets, f2)
        alignment_residual = _max_abs(h1 @ v1_aligned - h2 @ v2_aligned)
    else:
        targets = np.zeros(h1.shape[:-1] + (0,), dtype=np.complex128)
        v1_aligned = v2_aligned = None  # no transmitter has an aligned block
        alignment_residual = np.zeros(len(gens))

    # Receiver dimensions actually occupied by jamming: the aligned targets
    # (once; both transmitters land there) plus each random block's image.
    # Nullspace blocks are invisible by construction and must not enter the
    # zero-forcing span, where their noise-level image would distort the
    # rank decision.
    visible_received = [targets]
    nullspace_residual = np.zeros(len(gens))

    def assemble(entries, h_tx, factors, aligned_block):
        nonlocal nullspace_residual
        blocks = []
        for method, count in entries:
            k = scaled(count)
            if k == 0:
                continue
            if method is JammingMethod.NULLSPACE:
                block = _nullspace_block(h_tx, k, factors)
                nullspace_residual = np.maximum(nullspace_residual, _max_abs(h_tx @ block))
                blocks.append(block)
            elif method is JammingMethod.ALIGNED:
                blocks.append(aligned_block)
            else:
                block = _haar_columns(h_tx.shape[-1], k, gens)
                visible_received.append(h_tx @ block)
                blocks.append(block)
        if not blocks:
            return np.zeros(h_tx.shape[:-2] + (h_tx.shape[-1], 0), dtype=np.complex128)
        q, _ = np.linalg.qr(_hstack(blocks))
        return q

    v1_j = assemble(alloc.tx1, h1, f1 if slots == 1 else None, v1_aligned)
    v2_j = assemble(alloc.tx2, h2, f2 if slots == 1 else None, v2_aligned)
    del f1, f2  # the factors are among a long stack's largest arrays

    received_jam = _hstack([h1 @ v1_j, h2 @ v2_j])
    u = complement_projector(_hstack(visible_received))

    def legit_completion(vj: np.ndarray, d_cols: int) -> np.ndarray:
        # Haar-mix the completion into general position: the structured
        # (Householder) complement of an aligned jamming column can overlap
        # the receive-space intersection preimage and cost legitimate rank.
        antennas, jam_cols = vj.shape[-2:]
        comp_dim = antennas - jam_cols
        if d_cols > comp_dim:
            raise InfeasibleAllocation(
                f"{d_cols} legitimate streams do not fit next to {jam_cols} "
                f"jamming columns on {antennas} antenna dimensions"
            )
        if d_cols == 0:
            return np.zeros(vj.shape[:-2] + (antennas, 0), dtype=np.complex128)
        comp = complete_orthonormal(vj, comp_dim)
        comp = comp @ _haar_columns(comp_dim, comp_dim, gens)
        return comp[..., :d_cols]

    v1_l = legit_completion(v1_j, scaled(alloc.d1))
    v2_l = legit_completion(v2_j, scaled(alloc.d2))

    unitarity_residual = np.zeros(len(gens))
    for vl, vj in ((v1_l, v1_j), (v2_l, v2_j)):
        stacked = _hstack([vl, vj])
        if stacked.shape[-1]:
            gram = stacked.conj().swapaxes(-1, -2) @ stacked
            unitarity_residual = np.maximum(
                unitarity_residual, _max_abs(gram - np.eye(stacked.shape[-1]))
            )

    zero_forcing_residual = _max_abs(u @ received_jam)
    u_rank = ranks(u)
    legit_rank = ranks(u @ _hstack([h1 @ v1_l, h2 @ v2_l]))

    columns = (
        nullspace_residual,
        alignment_residual,
        unitarity_residual,
        zero_forcing_residual,
        u_rank,
        legit_rank,
    )
    reports = [BuildReport(*values) for values in zip(*(c.tolist() for c in columns))]
    return [
        PrecoderSet(v1_l[t], v1_j[t], v2_l[t], v2_j[t], u[t], slots, report)
        for t, report in enumerate(reports)
    ]


# perfbench/workloads.ENTRY_POINTS still names this; drop it there first (ROADMAP item 6).
_build_with_report = build_precoders


def leakage_rank(ch: ChannelRealization, pre: PrecoderSet) -> int:
    """Rank of the eavesdropper-received jamming matrix [g1 v1_j | g2 v2_j].

    Generically equals min(n_e, total jamming streams), which the
    allocations make n_e: the jamming overwhelms the full eavesdropper
    space.  ``ch`` is on the precoders' slot space (``channel_use``), so a
    fully jammed two-slot set has rank 2 n_e.  That needs per-slot
    eavesdropper draws: against a static eavesdropper a cross-slot aligned
    pair's images can coincide (the gap that exact fractional alignment
    would close).  InvalidMatrix means ``ch.g1`` or ``ch.g2`` is not a
    finite two-dimensional matrix.
    """
    if ch.g1.shape[0] == 0:
        return 0
    g1 = as_matrix(ch.g1, "g1")
    g2 = as_matrix(ch.g2, "g2")
    return int(ranks(np.concatenate([g1 @ pre.v1_j, g2 @ pre.v2_j], axis=1)))
