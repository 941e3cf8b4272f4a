"""Jamming and legitimate precoder construction plus zero-forcing reception.

Each transmitter's precoder is assembled from per-method jamming blocks
(nullspace, aligned, random), re-orthonormalized within the transmitter,
and completed with orthonormal legitimate columns.  The receiver-side
post-processor is the orthogonal projector onto the complement of the
received jamming columns.

Precoders are real-valued and act on the real form of each complex
channel (``channel.real_form``), one column per real stream of the
allocation, in one channel use.  An aligned pair hits one real receive
direction from both transmitters, while the eavesdropper, whose channel
generically rotates the two streams by different complex gains, sees
them apart; every allocation therefore jams the eavesdropper fully,
static or not.

The build runs on a stack of trials and returns one set for the stack:
every matrix carries a leading trial axis, as do the channels it was built
from, and every entry of its report is an array with one value per trial.
One stacked SVD or QR per step serves all trials, and each trial reads its
random directions from its own jamming stream, so a trial's member of the
set does not depend on the stack it was built in.

The build reports only what it alone can see, the residuals of its blocks
before re-orthonormalization.  What the finished set shows against its
channels (unitarity, zero forcing and the matrices whose ranks judge it)
is an audit, ``audit_set``, that only its readers pay for.

Builds of several allocations on one legitimate draw can share what
they take from it (``DrawFactors``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelRealization, RngStream, TrialNormals, real_form
from .errors import DimensionMismatch, InfeasibleAllocation
from .sdof import JammingAllocation, JammingMethod
from .subspaces import (
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
    "DrawFactors",
    "PrecoderSet",
    "SetAudit",
    "audit_set",
    "build_precoders",
    "leakage_rank",
]


@dataclass(frozen=True)
class BuildReport:
    """Residuals of the jamming blocks as built, before their re-orthonormalization: one entry per trial.

    The finished set cannot reproduce these bit for bit, so the build keeps
    them; everything else about the set is ``audit_set``'s.
    """

    nullspace_residual: np.ndarray
    alignment_residual: np.ndarray


@dataclass(frozen=True)
class SetAudit:
    """Residuals of a finished precoder set against its channels and the matrices its ranks are taken of.

    The residuals are arrays with one entry per trial; the three rank
    matrices, ``rank_matrices``, are stacks with a leading trial axis,
    left undecided so that a caller can rank many sets' matrices in one
    stacked SVD.
    """

    unitarity_residual: np.ndarray
    zero_forcing_residual: np.ndarray
    u: np.ndarray
    legit_post_projection: np.ndarray
    eavesdropper_jamming: np.ndarray

    @property
    def rank_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """u, u [h1 v1_l | h2 v2_l] and [g1 v1_j | g2 v2_j], in that order."""
        return self.u, self.legit_post_projection, self.eavesdropper_jamming

    def ranks(self) -> np.ndarray:
        """The ranks of ``rank_matrices`` in real dimensions: a (3, trials) int array."""
        return np.array([ranks(m) for m in self.rank_matrices])


@dataclass(frozen=True)
class PrecoderSet:
    """Precoders for both transmitters plus the receiver post-processor, per trial.

    Every matrix is real, in real dimensions, with a leading trial axis:
    v1_l is (trials, 2 m1, d1), v1_j (trials, 2 m1, j_tx1), likewise
    for transmitter two, and u is the (trials, 2 n, 2 n) zero-forcing
    projector.  ``report`` holds the block residuals the build
    measured on each trial.
    """

    v1_l: np.ndarray
    v1_j: np.ndarray
    v2_l: np.ndarray
    v2_j: np.ndarray
    u: np.ndarray
    report: BuildReport


def _haar_columns(m: int, streams: int, normals: np.ndarray) -> np.ndarray:
    """One Haar-random real m x streams isometry per row of ``normals``, stacked in their order.

    Each isometry is made from its row's first m * streams standard
    normals, read as an m x streams matrix row by row.
    """
    if streams > m:
        raise DimensionMismatch(f"cannot place {streams} random streams on {m} dimensions")
    q, r = np.linalg.qr(normals[:, : m * streams].reshape(len(normals), m, streams))
    # Fixing the R-diagonal signs makes the column distribution Haar.
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _nullspace_block(ns: np.ndarray, h: np.ndarray, streams: int) -> np.ndarray:
    """The first ``streams`` columns of ``ns``, a nullspace basis of every matrix of ``h``."""
    if streams > ns.shape[-1]:
        raise InfeasibleAllocation(
            f"nullspace of a {h.shape[-2]}x{h.shape[-1]} channel has dimension "
            f"{ns.shape[-1]}, cannot take {streams} streams"
        )
    return ns[..., :streams]


def _aligned_targets(base: np.ndarray, pairs: int) -> np.ndarray:
    """Orthonormal receive directions that both transmitters' aligned jamming hits.

    ``base`` is an orthonormal basis of the intersection of the received
    signal spaces, the column spaces of h1 and h2, which generically has
    positive dimension only when m1 + m2 > n; the targets are its first
    ``pairs`` columns.
    """
    if pairs > base.shape[-1]:
        raise InfeasibleAllocation(
            f"received signal spaces intersect in {base.shape[-1]} real dimensions, "
            f"cannot align {pairs} real streams"
        )
    return base[..., :pairs]


def _max_abs(mat: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of every matrix of a stack (0 for an empty matrix)."""
    if mat.size:
        return np.abs(mat).max(axis=(-2, -1))
    return np.zeros(mat.shape[:-2])


def _hstack(blocks) -> np.ndarray:
    return np.concatenate(blocks, axis=-1)


class DrawFactors:
    """What every build on one legitimate draw shares, each part made at its first use.

    The real forms of h1 and h2, their SVDs and nullspaces, and the
    intersection of their received signal spaces depend on the
    legitimate draw alone, never on n_e or the allocation, because the
    precoders never see the eavesdropper: the legitimate draw at a
    trial's address depends on (m1, m2, n) only, so one instance serves
    the builds of every n_e of an antenna family, as ``verify`` walks
    them.  The first build that needs a part computes it and later builds
    on the same draw reuse it; every part is exactly what a build on its
    own computes.  ``build_precoders`` makes a fresh instance for a call
    without one, and ``audit_set`` reads the real forms of the one a set
    was built on.
    """

    def __init__(self, ch: ChannelRealization):
        self.h1, self.h2 = ch.h1, ch.h2
        self._real = [None, None]
        self._svd = [None, None]
        self._nullspace = [None, None]
        self._intersection = None

    def real(self, tx: int) -> np.ndarray:
        """The real form of transmitter ``tx``'s legitimate channel stack, validated."""
        if self._real[tx - 1] is None:
            self._real[tx - 1] = real_form(self.h1 if tx == 1 else self.h2, f"h{tx}")
        return self._real[tx - 1]

    def svd(self, tx: int):
        if self._svd[tx - 1] is None:
            self._svd[tx - 1] = svd(self.real(tx))
        return self._svd[tx - 1]

    def nullspace(self, tx: int) -> np.ndarray:
        if self._nullspace[tx - 1] is None:
            self._nullspace[tx - 1] = nullspace(self.real(tx), self.svd(tx))
        return self._nullspace[tx - 1]

    def intersection(self) -> np.ndarray:
        """Orthonormal basis of the intersection of the two received signal spaces."""
        if self._intersection is None:
            bases = [orthonormal_basis(self.real(tx), self.svd(tx)) for tx in (1, 2)]
            self._intersection = intersect(*bases)
        return self._intersection


def jamming_length(alloc: JammingAllocation, dims1: int, dims2: int) -> int:
    """Normals a build of ``alloc`` reads from each trial's jamming stream.

    ``dims1`` and ``dims2`` are the transmitters' real dimensions, twice
    their antennas.  A random block of k streams on d dimensions reads
    d k normals, and a legitimate completion of the c dimensions its
    jamming leaves reads c squared; a transmitter without legitimate
    streams completes nothing.
    """
    length = 0
    for dims, entries, d in ((dims1, alloc.tx1, alloc.d1), (dims2, alloc.tx2, alloc.d2)):
        jammed = 0
        for method, k in entries:
            jammed += k
            if method is JammingMethod.RANDOM:
                length += dims * k
        if d and dims > jammed:
            length += (dims - jammed) ** 2
    return length


def build_precoders(
    ch: ChannelRealization,
    alloc: JammingAllocation,
    rngs: Sequence[RngStream],
    _factors: DrawFactors | None = None,
    _jamming: np.ndarray | None = None,
) -> PrecoderSet:
    """Assemble the precoder set of an audited allocation for a stack of trials.

    Jamming blocks are built per method, stacked, and re-orthonormalized
    within each transmitter; legitimate columns are an orthonormal
    completion against the jamming columns; the post-processor u is the
    complement projector of the received jamming, all real and built on
    the real forms of ``ch.h1`` and ``ch.h2``.  Those carry a leading trial
    axis (``sample_channels``) and ``rngs`` holds one ``RngStream`` per
    trial; so does every matrix of the result, and its ``report`` records
    each trial's block residuals (``audit_set`` checks the finished set).
    Every SVD and QR runs once over the whole stack, and each trial reads
    its random directions from the leading normals of its own jamming
    stream (``TrialNormals``, ``jamming_length`` of them) in a fixed order
    (transmitter one's random block, transmitter two's, then the
    legitimate completions of one and two), so a trial's member is bit for
    bit the same in any stack, alone or not.  ``_factors`` is the
    ``DrawFactors`` of ``ch``'s legitimate draw when several builds share
    it, and ``_jamming`` the trials' jamming rows when a caller drew them
    once for many builds, at least as long as this build reads.

    InfeasibleAllocation propagates from the per-method constructors when
    the allocation does not fit the channel (which for generic channels
    indicates an allocation/configuration mismatch, not bad luck).
    InvalidMatrix means ``ch.h1`` or ``ch.h2`` is not a finite, nonempty
    stack of matrices.  A trial whose channel has a non-generic rank fails
    the stack with NumericalFailure; the error's ``member`` names it.
    """
    factors = DrawFactors(ch) if _factors is None else _factors
    if factors.h1 is not ch.h1 or factors.h2 is not ch.h2:
        raise ValueError("the shared factors belong to another draw")
    h1, h2 = factors.real(1), factors.real(2)
    if not len(h1) == len(h2) == len(rngs):
        raise DimensionMismatch(
            f"{len(h1)} h1 and {len(h2)} h2 matrices for {len(rngs)} random streams"
        )
    length = jamming_length(alloc, h1.shape[-1], h2.shape[-1])
    if _jamming is None:
        _jamming = TrialNormals.draw(rngs, jamming=length).jamming
    if len(_jamming) != len(rngs) or _jamming.shape[-1] < length:
        raise ValueError(f"the jamming rows {_jamming.shape} do not hold {length} normals per stream")
    return _build_stack(h1, h2, factors, alloc, _jamming)


def _build_stack(h1, h2, factors: DrawFactors, alloc: JammingAllocation, jamming) -> PrecoderSet:
    """``build_precoders`` on the real forms of a validated legitimate draw and their factors."""
    aligned_pairs = alloc.method_streams(1, JammingMethod.ALIGNED)
    if aligned_pairs != alloc.method_streams(2, JammingMethod.ALIGNED):
        raise InfeasibleAllocation("aligned stream counts must match across transmitters")

    # Minimum-norm solves, so h1 v1 = h2 v2 = targets up to noise.  Their
    # columns are not orthonormal; assembly re-orthonormalizes them within
    # each transmitter, an invertible mix that keeps every rank count.
    # One SVD per channel serves its received basis, its aligned solve and
    # its nullspace block.
    if aligned_pairs:
        targets = _aligned_targets(factors.intersection(), aligned_pairs)
        v1_aligned = solve_into(h1, targets, factors.svd(1))
        v2_aligned = solve_into(h2, targets, factors.svd(2))
        alignment_residual = _max_abs(h1 @ v1_aligned - h2 @ v2_aligned)
    else:
        targets = np.zeros(h1.shape[:-1] + (0,))
        v1_aligned = v2_aligned = None  # no transmitter has an aligned block
        alignment_residual = np.zeros(len(h1))

    # Receiver dimensions actually occupied by jamming: the aligned targets
    # (once; both transmitters land there) plus each random block's image.
    # Nullspace blocks are invisible by construction and must not enter the
    # zero-forcing span, where their noise-level image would distort the
    # rank decision.
    visible_received = [targets]
    nullspace_residual = np.zeros(len(h1))
    read = 0  # normals of each jamming row taken so far

    def haar(m, streams):
        nonlocal read
        block = _haar_columns(m, streams, jamming[:, read:])
        read += m * streams
        return block

    def assemble(tx, entries, h_tx, aligned_block):
        nonlocal nullspace_residual
        blocks = []
        for method, k in entries:
            if k == 0:
                continue
            if method is JammingMethod.NULLSPACE:
                block = _nullspace_block(factors.nullspace(tx), h_tx, k)
                nullspace_residual = np.maximum(nullspace_residual, _max_abs(h_tx @ block))
                blocks.append(block)
            elif method is JammingMethod.ALIGNED:
                blocks.append(aligned_block)
            else:
                block = haar(h_tx.shape[-1], k)
                visible_received.append(h_tx @ block)
                blocks.append(block)
        if not blocks:
            return np.zeros(h_tx.shape[:-2] + (h_tx.shape[-1], 0))
        q, _ = np.linalg.qr(_hstack(blocks))
        return q

    v1_j = assemble(1, alloc.tx1, h1, v1_aligned)
    v2_j = assemble(2, alloc.tx2, h2, v2_aligned)

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
            return np.zeros(vj.shape[:-2] + (antennas, 0))
        comp = complete_orthonormal(vj, comp_dim)
        comp = comp @ haar(comp_dim, comp_dim)
        return comp[..., :d_cols]

    v1_l = legit_completion(v1_j, alloc.d1)
    v2_l = legit_completion(v2_j, alloc.d2)
    report = BuildReport(nullspace_residual, alignment_residual)
    return PrecoderSet(v1_l, v1_j, v2_l, v2_j, u, report)


def audit_set(factors: DrawFactors, pre: PrecoderSet, draw: ChannelRealization) -> SetAudit:
    """Unitarity and zero-forcing residuals and the rank matrices of a set, per trial.

    ``factors`` is the ``DrawFactors`` of the legitimate draw ``pre`` was
    built on, whose real forms serve the products, and ``draw`` holds the
    static eavesdropper (g1, g2) the jamming is checked against.  The
    unitarity residual is the largest deviation of [v_l | v_j]^T
    [v_l | v_j] from the identity over both transmitters and the
    zero-forcing residual the largest entry of u [h1 v1_j | h2 v2_j].  The
    rank matrices are u, u [h1 v1_l | h2 v2_l] and the eavesdropper's
    received jamming [g1 v1_j | g2 v2_j], all in real dimensions; with
    n_e = 0 the last has no rows.  Nothing of the build reads them;
    ``verify`` and ``design`` do.
    """
    h1, h2 = factors.real(1), factors.real(2)
    received_jam = _hstack([h1 @ pre.v1_j, h2 @ pre.v2_j])
    unitarity_residual = np.zeros(len(pre.u))
    for vl, vj in ((pre.v1_l, pre.v1_j), (pre.v2_l, pre.v2_j)):
        stacked = _hstack([vl, vj])
        if stacked.shape[-1]:
            gram = stacked.swapaxes(-1, -2) @ stacked
            unitarity_residual = np.maximum(
                unitarity_residual, _max_abs(gram - np.eye(stacked.shape[-1]))
            )
    jam_cols = pre.v1_j.shape[-1] + pre.v2_j.shape[-1]
    eve_jam = np.zeros((len(pre.u), 0, jam_cols))
    if draw.g1.shape[-2]:
        g1, g2 = real_form(draw.g1, "g1"), real_form(draw.g2, "g2")
        eve_jam = _hstack([g1 @ pre.v1_j, g2 @ pre.v2_j])
    return SetAudit(
        unitarity_residual,
        _max_abs(pre.u @ received_jam),
        pre.u,
        pre.u @ _hstack([h1 @ pre.v1_l, h2 @ pre.v2_l]),
        eve_jam,
    )


# perfbench/workloads.ENTRY_POINTS still names this; drop it there first (ROADMAP item 6).
_build_with_report = build_precoders


def check_pairing(
    ch: ChannelRealization, pre: PrecoderSet, eavesdropper: bool, points: int | None = None
) -> None:
    """Raise DimensionMismatch unless ``ch`` holds the trials of ``pre`` in the layout its reader needs.

    The legitimate h1 and h2 are (trials, n, m) stacks, or with
    ``eavesdropper`` the g1 and g2 of ``channel_uses`` are (trials, uses,
    n_e, m) stacks, with as many trials as the set and, given a grid of
    ``points`` power levels, one use held over the grid or one use per
    point.  NumPy would otherwise broadcast a stack of one trial over the
    set, pair each trial's eavesdropper with every trial's set, or fail on
    the rates' shapes.
    """
    names, ndim = (("g1", "g2"), 4) if eavesdropper else (("h1", "h2"), 3)
    trials = len(pre.u)
    for name in names:
        shape = np.shape(getattr(ch, name))
        if len(shape) != ndim or shape[0] != trials:
            layout = "channel_uses" if eavesdropper else "sample_channels or channel_uses"
            raise DimensionMismatch(
                f"{name} of shape {shape} does not pair with a set of {trials} trials: "
                f"pass the {layout} realization of the draw the set was built on"
            )
        if points is not None and shape[1] not in (1, points):
            raise DimensionMismatch(
                f"{name} holds {shape[1]} channel uses, which do not pair with a grid of "
                f"{points} point(s): pass one use, or one per grid point"
            )


def leakage_rank(ch: ChannelRealization, pre: PrecoderSet) -> np.ndarray:
    """Rank of the eavesdropper-received jamming matrix [g1 v1_j | g2 v2_j], per trial and use.

    The products are taken on the real forms of g1 and g2, so the rank
    counts real dimensions.  It generically equals 2 min(n_e, total
    jamming streams), which the allocations make 2 n_e: the jamming
    overwhelms the full eavesdropper space, against a static eavesdropper
    as against a time-varying one.  ``ch`` holds a (trials, uses, n_e, m)
    stack of each eavesdropper channel (``channel_uses``).  Returns a
    (trials, uses) int array from one stacked rank decision.
    InvalidMatrix means ``ch.g1`` or ``ch.g2`` is not a finite stack; its
    ``member`` names the trial, and DimensionMismatch that ``ch`` is not
    ``pre``'s (``check_pairing``).
    """
    check_pairing(ch, pre, eavesdropper=True)
    if ch.g1.shape[-2] == 0:
        return np.zeros(ch.g1.shape[:-2], dtype=int)
    g1, g2 = real_form(ch.g1, "g1"), real_form(ch.g2, "g2")
    return ranks(np.concatenate([g1 @ pre.v1_j[:, None], g2 @ pre.v2_j[:, None]], axis=-1))
