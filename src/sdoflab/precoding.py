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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, RngStream, jamming_generator, slot_extend
from .errors import DimensionMismatch, InfeasibleAllocation
from .sdof import AntennaConfig, JammingAllocation, JammingMethod
from .subspaces import (
    as_matrix,
    complement_projector,
    complete_orthonormal,
    intersect,
    nullspace,
    orthonormal_basis,
    solve_into,
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


def random_jamming(m: int, streams: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-random orthonormal jamming directions: an m x streams isometry."""
    if streams < 0 or streams > m:
        raise DimensionMismatch(f"cannot place {streams} random streams on {m} antennas")
    if streams == 0:
        return np.zeros((m, 0), dtype=np.complex128)
    z = gen.standard_normal((m, streams)) + 1j * gen.standard_normal((m, streams))
    q, r = np.linalg.qr(z)
    # Fixing the R-diagonal phases makes the column distribution Haar.
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def nullspace_jamming(h, streams: int) -> np.ndarray:
    """Orthonormal jamming columns invisible at the receiver: h @ V ~ 0."""
    h = as_matrix(h, "h")
    ns = nullspace(h)
    if streams > ns.shape[1]:
        raise InfeasibleAllocation(
            f"nullspace of a {h.shape[0]}x{h.shape[1]} channel has dimension "
            f"{ns.shape[1]}, cannot take {streams} streams"
        )
    return ns[:, :streams]


def _aligned_targets(h1, h2, pairs: int, slots: int) -> np.ndarray:
    """Orthonormal receive directions that both transmitters' aligned jamming hits.

    ``h1`` and ``h2`` are one slot's channels.  Their received column spaces
    intersect in c_0, c_1, ..., which generically has positive dimension only
    when m1 + m2 > n.  One slot takes the first ``pairs`` of these.  Two
    slots alternate (c_j; c_j)/sqrt(2) and (c_j; -c_j)/sqrt(2) on the doubled
    receive space: any prefix of that list is orthonormal and gives every
    transmitter full-rank jamming in each slot.
    """
    if pairs == 0:
        return np.zeros((slots * h1.shape[0], 0), dtype=np.complex128)
    base = intersect(orthonormal_basis(h1), orthonormal_basis(h2))
    if pairs > slots * base.shape[1]:
        raise InfeasibleAllocation(
            f"received signal spaces intersect in {base.shape[1]} dimensions per slot, "
            f"cannot align {pairs} streams over {slots} slot(s)"
        )
    if slots == 1:
        return base[:, :pairs]
    t = np.arange(pairs)
    c = base[:, t // 2]
    return np.vstack([c, np.where(t % 2 == 0, 1.0, -1.0) * c]) * (1.0 / np.sqrt(2.0))


def _max_abs(mat: np.ndarray) -> float:
    return float(np.abs(mat).max()) if mat.size else 0.0


def build_precoders(
    config: AntennaConfig,
    ch: ChannelRealization,
    alloc: JammingAllocation,
    rng: RngStream,
) -> PrecoderSet:
    """Assemble the full precoder set for an audited allocation.

    Jamming blocks are built per method, stacked, and re-orthonormalized
    within each transmitter; legitimate columns are an orthonormal
    completion against the jamming columns; the post-processor u is the
    complement projector of the received jamming.  Random directions come
    from ``jamming_generator(rng)``.  The set's ``report`` records the
    construction's residuals and ranks.  InfeasibleAllocation propagates
    from the per-method constructors when the allocation does not fit the
    channel (which for generic channels indicates an allocation/configuration
    mismatch, not bad luck).  InvalidMatrix means ``ch.h1`` or ``ch.h2`` is
    not a finite two-dimensional matrix.
    """
    h1_slot = as_matrix(ch.h1, "h1")
    h2_slot = as_matrix(ch.h2, "h2")
    gen = jamming_generator(rng)
    slots = alloc.slots
    h1 = slot_extend(h1_slot) if slots == 2 else h1_slot
    h2 = slot_extend(h2_slot) if slots == 2 else h2_slot

    def scaled(count) -> int:
        value = count * slots
        if value.denominator != 1:
            raise InfeasibleAllocation(f"stream count {count} not integral over {slots} slot(s)")
        return int(value)

    aligned_pairs = scaled(alloc.method_streams(1, JammingMethod.ALIGNED))
    if aligned_pairs != scaled(alloc.method_streams(2, JammingMethod.ALIGNED)):
        raise InfeasibleAllocation("aligned stream counts must match across transmitters")

    # Minimum-norm solves, so h1 v1 = h2 v2 = targets up to noise.  Their
    # columns are not orthonormal; assembly re-orthonormalizes them within
    # each transmitter, an invertible mix that keeps every rank count.
    targets = _aligned_targets(h1_slot, h2_slot, aligned_pairs, slots)
    v1_aligned = solve_into(h1, targets)
    v2_aligned = solve_into(h2, targets)
    alignment_residual = _max_abs(h1 @ v1_aligned - h2 @ v2_aligned)

    # Receiver dimensions actually occupied by jamming: the aligned targets
    # (once; both transmitters land there) plus each random block's image.
    # Nullspace blocks are invisible by construction and must not enter the
    # zero-forcing span, where their noise-level image would distort the
    # rank decision.
    visible_received = [targets]
    nullspace_residual = 0.0

    def assemble(tx: int, h_tx: np.ndarray, aligned_block: np.ndarray) -> np.ndarray:
        nonlocal nullspace_residual
        entries = alloc.tx1 if tx == 1 else alloc.tx2
        blocks = []
        for method, count in entries:
            k = scaled(count)
            if k == 0:
                continue
            if method is JammingMethod.NULLSPACE:
                block = nullspace_jamming(h_tx, k)
                nullspace_residual = max(nullspace_residual, _max_abs(h_tx @ block))
                blocks.append(block)
            elif method is JammingMethod.ALIGNED:
                blocks.append(aligned_block)
            else:
                block = random_jamming(h_tx.shape[1], k, gen)
                visible_received.append(h_tx @ block)
                blocks.append(block)
        if not blocks:
            return np.zeros((h_tx.shape[1], 0), dtype=np.complex128)
        raw = np.hstack(blocks)
        q, _ = np.linalg.qr(raw)
        return q

    v1_j = assemble(1, h1, v1_aligned)
    v2_j = assemble(2, h2, v2_aligned)

    received_jam = np.hstack([h1 @ v1_j, h2 @ v2_j])
    u = complement_projector(np.hstack(visible_received))

    def legit_completion(vj: np.ndarray, d_cols: int) -> np.ndarray:
        # Haar-mix the completion into general position: the structured
        # (Householder) complement of an aligned jamming column can overlap
        # the receive-space intersection preimage and cost legitimate rank.
        antennas, jam_cols = vj.shape
        comp_dim = antennas - jam_cols
        if d_cols > comp_dim:
            raise InfeasibleAllocation(
                f"{d_cols} legitimate streams do not fit next to {jam_cols} "
                f"jamming columns on {antennas} antenna dimensions"
            )
        if d_cols == 0:
            return np.zeros((antennas, 0), dtype=np.complex128)
        comp = complete_orthonormal(vj, comp_dim)
        comp = comp @ random_jamming(comp_dim, comp_dim, gen)
        return comp[:, :d_cols]

    v1_l = legit_completion(v1_j, scaled(alloc.d1))
    v2_l = legit_completion(v2_j, scaled(alloc.d2))

    unitarity_residual = 0.0
    for vl, vj in ((v1_l, v1_j), (v2_l, v2_j)):
        stacked = np.hstack([vl, vj])
        if stacked.shape[1]:
            gram = stacked.conj().T @ stacked
            unitarity_residual = max(
                unitarity_residual, _max_abs(gram - np.eye(stacked.shape[1]))
            )

    zero_forcing_residual = _max_abs(u @ received_jam)
    u_rank = orthonormal_basis(u).shape[1]
    legit_received = np.hstack([h1 @ v1_l, h2 @ v2_l])
    legit_rank = orthonormal_basis(u @ legit_received).shape[1]

    report = BuildReport(
        nullspace_residual=nullspace_residual,
        alignment_residual=alignment_residual,
        unitarity_residual=unitarity_residual,
        zero_forcing_residual=zero_forcing_residual,
        u_rank=u_rank,
        legit_rank=legit_rank,
    )
    return PrecoderSet(v1_l, v1_j, v2_l, v2_j, u, slots, report)


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
    received = np.hstack([g1 @ pre.v1_j, g2 @ pre.v2_j])
    if received.shape[1] == 0:
        return 0
    return orthonormal_basis(received).shape[1]
