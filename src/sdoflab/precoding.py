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
    DEFAULT_TOL,
    Subspace,
    Tolerance,
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
    "aligned_jamming",
    "build_precoders",
    "leakage_rank",
]


@dataclass(frozen=True)
class PrecoderSet:
    """Precoders for both transmitters plus the receiver post-processor.

    For ``slots == 1`` the shapes are v1_l: (m1, d1), v1_j: (m1, j_tx1),
    likewise for transmitter two, and u is the (n, n) zero-forcing
    projector.  For ``slots == 2`` every matrix lives on the slot-stacked
    spaces (rows doubled, stream counts doubled) and rate evaluations
    normalize per slot.
    """

    v1_l: np.ndarray
    v1_j: np.ndarray
    v2_l: np.ndarray
    v2_j: np.ndarray
    u: np.ndarray
    slots: int = 1


@dataclass(frozen=True)
class BuildReport:
    """Residuals and ranks recorded while assembling a precoder set."""

    nullspace_residual: float
    alignment_residual: float
    unitarity_residual: float
    zero_forcing_residual: float
    u_rank: int
    legit_rank: int


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return jamming_generator(rng)
    return np.random.default_rng(rng)


def random_jamming(m: int, streams: int, rng) -> np.ndarray:
    """Haar-random orthonormal jamming directions: an m x streams isometry."""
    if streams < 0 or streams > m:
        raise DimensionMismatch(f"cannot place {streams} random streams on {m} antennas")
    if streams == 0:
        return np.zeros((m, 0), dtype=np.complex128)
    gen = _as_generator(rng)
    z = gen.standard_normal((m, streams)) + 1j * gen.standard_normal((m, streams))
    q, r = np.linalg.qr(z)
    # Fixing the R-diagonal phases makes the column distribution Haar.
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def nullspace_jamming(h, streams: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal jamming columns invisible at the receiver: h @ V ~ 0."""
    h = as_matrix(h, "h")
    ns = nullspace(h, tol)
    if streams > ns.dim:
        raise InfeasibleAllocation(
            f"nullspace of a {h.shape[0]}x{h.shape[1]} channel has dimension "
            f"{ns.dim}, cannot take {streams} streams"
        )
    return ns.basis[:, :streams]


def aligned_jamming(h1, h2, streams: int, tol: Tolerance = DEFAULT_TOL):
    """Jamming precoders steering both transmitters into one shared space.

    Returns (v1j, v2j, shared) with ``h1 @ v1j = h2 @ v2j = shared.basis``
    as exact minimum-norm solutions, so the pairwise alignment residual is
    at numerical noise level.  The shared space is the intersection of the
    two received column spaces, which generically has positive dimension
    only when m1 + m2 > n.  Columns are not orthonormal here; assembly
    re-orthonormalizes them within each transmitter, which mixes the
    received basis invertibly and preserves all rank counts.
    """
    h1 = as_matrix(h1, "h1")
    h2 = as_matrix(h2, "h2")
    if h1.shape[0] != h2.shape[0]:
        raise DimensionMismatch("h1 and h2 must share the receive dimension")
    shared_full = intersect(orthonormal_basis(h1, tol), orthonormal_basis(h2, tol), tol)
    if streams > shared_full.dim:
        raise InfeasibleAllocation(
            f"received signal spaces intersect in {shared_full.dim} dimensions, "
            f"cannot align {streams} streams"
        )
    shared = Subspace(shared_full.basis[:, :streams])
    if streams == 0:
        return (
            np.zeros((h1.shape[1], 0), dtype=np.complex128),
            np.zeros((h2.shape[1], 0), dtype=np.complex128),
            shared,
        )
    v1j = solve_into(h1, shared.basis, tol)
    v2j = solve_into(h2, shared.basis, tol)
    return v1j, v2j, shared


def _two_slot_aligned_targets(h1, h2, pairs: int, tol: Tolerance) -> np.ndarray:
    """Slot-balanced aligned directions on the doubled receive space.

    From a per-slot intersection basis c_0, c_1, ... the doubled targets
    alternate (c_j; c_j)/sqrt(2) and (c_j; -c_j)/sqrt(2).  Any prefix of
    this list is orthonormal and gives every transmitter full-rank jamming
    in each slot.
    """
    base = intersect(orthonormal_basis(h1, tol), orthonormal_basis(h2, tol), tol)
    if pairs > 2 * base.dim:
        raise InfeasibleAllocation(
            f"two-slot alignment needs {pairs} doubled directions, intersection "
            f"offers {2 * base.dim}"
        )
    cols = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for t in range(pairs):
        c = base.basis[:, t // 2]
        sign = 1.0 if t % 2 == 0 else -1.0
        cols.append(np.concatenate([c, sign * c]) * inv_sqrt2)
    return np.column_stack(cols)


def _max_abs(mat: np.ndarray) -> float:
    return float(np.abs(mat).max()) if mat.size else 0.0


def build_precoders(
    config: AntennaConfig,
    ch: ChannelRealization,
    alloc: JammingAllocation,
    rng,
    tol: Tolerance = DEFAULT_TOL,
) -> PrecoderSet:
    """Assemble the full precoder set for an audited allocation.

    Jamming blocks are built per method, stacked, and re-orthonormalized
    within each transmitter; legitimate columns are an orthonormal
    completion against the jamming columns; the post-processor u is the
    complement projector of the received jamming.  InfeasibleAllocation
    propagates from the per-method constructors when the allocation does
    not fit the channel (which for generic channels indicates an
    allocation/configuration mismatch, not bad luck).
    """
    pre, _ = _build_with_report(config, ch, alloc, rng, tol)
    return pre


def _build_with_report(config, ch, alloc, rng, tol):
    gen = _as_generator(rng)
    slots = 2 if alloc.needs_two_slot else 1
    h1 = slot_extend(ch.h1) if slots == 2 else ch.h1
    h2 = slot_extend(ch.h2) if slots == 2 else ch.h2

    def scaled(count) -> int:
        value = count * slots
        if value.denominator != 1:
            raise InfeasibleAllocation(f"stream count {count} not integral over {slots} slot(s)")
        return int(value)

    aligned_pairs = scaled(alloc.method_streams(1, JammingMethod.ALIGNED))
    if aligned_pairs != scaled(alloc.method_streams(2, JammingMethod.ALIGNED)):
        raise InfeasibleAllocation("aligned stream counts must match across transmitters")

    alignment_residual = 0.0
    if aligned_pairs:
        if slots == 2:
            targets = _two_slot_aligned_targets(ch.h1, ch.h2, aligned_pairs, tol)
            v1_aligned = solve_into(h1, targets, tol)
            v2_aligned = solve_into(h2, targets, tol)
        else:
            v1_aligned, v2_aligned, shared = aligned_jamming(h1, h2, aligned_pairs, tol)
            targets = shared.basis
        alignment_residual = _max_abs(h1 @ v1_aligned - h2 @ v2_aligned)
    else:
        targets = np.zeros((h1.shape[0], 0), dtype=np.complex128)
        v1_aligned = np.zeros((h1.shape[1], 0), dtype=np.complex128)
        v2_aligned = np.zeros((h2.shape[1], 0), dtype=np.complex128)

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
                block = nullspace_jamming(h_tx, k, tol)
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
        space = Subspace(vj)
        comp_dim = space.ambient_dim - space.dim
        if d_cols > comp_dim:
            raise InfeasibleAllocation(
                f"{d_cols} legitimate streams do not fit next to {space.dim} "
                f"jamming columns on {space.ambient_dim} antenna dimensions"
            )
        if d_cols == 0:
            return np.zeros((space.ambient_dim, 0), dtype=np.complex128)
        comp = complete_orthonormal(space, comp_dim)
        comp = comp @ random_jamming(comp_dim, comp_dim, gen)
        return comp[:, :d_cols]

    v1_l = legit_completion(v1_j, scaled(alloc.d1))
    v2_l = legit_completion(v2_j, scaled(alloc.d2))
    pre = PrecoderSet(v1_l, v1_j, v2_l, v2_j, u, slots)

    unitarity_residual = 0.0
    for vl, vj in ((v1_l, v1_j), (v2_l, v2_j)):
        stacked = np.hstack([vl, vj])
        if stacked.shape[1]:
            gram = stacked.conj().T @ stacked
            unitarity_residual = max(
                unitarity_residual, _max_abs(gram - np.eye(stacked.shape[1]))
            )

    zero_forcing_residual = _max_abs(u @ received_jam)
    u_rank = orthonormal_basis(u, tol).dim
    legit_received = np.hstack([h1 @ v1_l, h2 @ v2_l])
    legit_rank = orthonormal_basis(u @ legit_received, tol).dim

    report = BuildReport(
        nullspace_residual=nullspace_residual,
        alignment_residual=alignment_residual,
        unitarity_residual=unitarity_residual,
        zero_forcing_residual=zero_forcing_residual,
        u_rank=u_rank,
        legit_rank=legit_rank,
    )
    return pre, report


def leakage_rank(ch: ChannelRealization, pre: PrecoderSet, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of the eavesdropper-received jamming matrix [g1 v1_j | g2 v2_j].

    Generically equals min(n_e, total jamming streams), which the
    allocations make n_e: the jamming overwhelms the full eavesdropper
    space.  ``ch`` is on the precoders' slot space (``channel_use``), so a
    fully jammed two-slot set has rank 2 n_e.  That needs per-slot
    eavesdropper draws: against a static eavesdropper a cross-slot aligned
    pair's images can coincide (the gap that exact fractional alignment
    would close).
    """
    if ch.g1.shape[0] == 0:
        return 0
    received = np.hstack([ch.g1 @ pre.v1_j, ch.g2 @ pre.v2_j])
    if received.shape[1] == 0:
        return 0
    return orthonormal_basis(received, tol).dim
