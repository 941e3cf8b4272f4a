"""Complex-matrix subspace algebra used by every precoder construction.

Everything here reduces to a handful of SVD-backed primitives: column-space
bases, nullspaces, subspace intersections, constrained minimum-norm solves,
orthogonal-complement projectors and orthonormal completions.  Rank
decisions use the relative singular-value cutoff ``RANK_REL_TOL``; residual
checks use the absolute bound ``RESIDUAL_ABS_TOL`` (channel entries are
O(1) by construction).

Every primitive acts on the last two axes of a ``(..., rows, cols)``
array, so one stacked LAPACK call serves a whole stack of trials; a plain
2-D matrix is a stack of one.  Rank is decided per matrix.  Where a rank
sets the shape of a result (a basis, a nullspace, an intersection), the
members of a stack must agree on it: a member that does not raises
``NumericalFailure`` naming its index.  ``svd`` factors a stack once, and
``orthonormal_basis``, ``nullspace`` and ``solve_into`` all accept its
result, so one SVD per channel serves all three.

The primitives take and return plain complex ndarrays and do not re-check
them: their inputs are matrices the library built itself.  Outside input
is checked once, by ``as_matrix``, where a channel enters the library.

All operations are pure functions of their inputs: identical arguments
produce bitwise-identical outputs, a member's result does not depend on
the rest of its stack, and nothing here holds shared mutable state, so
concurrent use is safe.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidMatrix, NumericalFailure, Unsolvable

__all__ = [
    "as_matrix",
    "svd",
    "ranks",
    "orthonormal_basis",
    "nullspace",
    "intersect",
    "solve_into",
    "complement_projector",
    "complete_orthonormal",
]


# Singular values below RANK_REL_TOL times the largest count as zero.  Channel
# entries are CN(0, 1), so every subspace the construction forms has its
# generic dimension almost surely and one fixed cutoff serves every build.
RANK_REL_TOL = 1e-10
# Largest accepted residual, such as ||H V - T||_max in ``solve_into``.
RESIDUAL_ABS_TOL = 1e-9


def _member_error(cls, a: np.ndarray, member: int, message: str):
    """``cls(message)`` carrying ``member``, which a stack's message also names."""
    if a.ndim > 2:
        message = f"stack member {member}: {message}"
    exc = cls(message)
    exc.member = member
    return exc


def as_matrix(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Return ``a`` as a dense complex128 matrix, rejecting NaN/Inf entries.

    With ``stack`` the input must be a ``(members, rows, cols)`` stack of
    matrices, and a non-finite entry is reported with its member's index.
    """
    arr = np.asarray(a, dtype=np.complex128)
    ndim = 3 if stack else 2
    if arr.ndim != ndim:
        kind = "a stack of matrices" if stack else "two-dimensional"
        raise InvalidMatrix(f"{name} must be {kind}, got shape {arr.shape}")
    if arr.shape[-2] < 1:
        raise InvalidMatrix(f"{name} must have at least one row, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        finite = np.isfinite(arr).reshape(-1, arr.shape[-2] * arr.shape[-1]).all(axis=1)
        member = int(np.argmin(finite))
        raise _member_error(InvalidMatrix, arr, member, f"{name} contains non-finite entries")
    return arr


def svd(a: np.ndarray):
    """SVD ``(u, s, vh)`` of every matrix of a stack, for reuse.

    ``u`` has min(rows, cols) columns and ``vh`` is square: all that
    ``orthonormal_basis``, ``nullspace`` and ``solve_into`` use, which take
    it as their ``factors`` argument in place of factoring ``a`` again.
    """
    return np.linalg.svd(a, full_matrices=a.shape[-2] < a.shape[-1])


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _ranks(s: np.ndarray) -> np.ndarray:
    """Rank of every member of a stack from its descending singular values."""
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=int)
    return (s > RANK_REL_TOL * s[..., :1]).sum(axis=-1)


def _shared_rank(a: np.ndarray, s: np.ndarray) -> int:
    """The one rank every member of the stack has; a member without it raises."""
    if s.size == 0:
        return 0
    kept = s > RANK_REL_TOL * s[..., :1]
    members = kept.size // s.shape[-1]
    rank, spare = divmod(int(np.count_nonzero(kept)), members)
    # Each member keeps a prefix of its descending singular values, so the
    # members agree iff the kept count splits evenly and every member keeps
    # its rank-th value.
    if spare or (members > 1 and rank and not kept[..., rank - 1].all()):
        member_ranks = kept.sum(axis=-1).reshape(-1)
        # Generic members share the largest rank; name a deficient one.
        top = int(member_ranks.max())
        member = int(np.argmax(member_ranks != top))
        raise _member_error(
            NumericalFailure,
            a,
            member,
            f"rank {member_ranks[member]} where the rest of the stack has rank {top}",
        )
    return rank


def ranks(a: np.ndarray) -> np.ndarray:
    """Rank of every matrix of a stack under ``RANK_REL_TOL``: an int array of the stack's shape."""
    if a.shape[-1] == 0 or a.shape[-2] == 0:
        return np.zeros(a.shape[:-2], dtype=int)
    return _ranks(np.linalg.svd(a, compute_uv=False))


def orthonormal_basis(a: np.ndarray, factors=None) -> np.ndarray:
    """Orthonormal basis of the column space of every matrix of a stack.

    The basis has ``rank(a)`` columns under ``RANK_REL_TOL``; a zero
    matrix (or a zero-column matrix) yields a zero-column basis.
    ``factors`` is ``svd(a)`` if already computed.
    """
    if a.shape[-1] == 0:
        return np.zeros(a.shape, dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False) if factors is None else factors
    return u[..., : _shared_rank(a, s)]


def nullspace(a: np.ndarray, factors=None) -> np.ndarray:
    """Orthonormal basis of the (right) nullspace of every matrix of a stack.

    The basis has ``cols(a)`` rows and ``cols(a) - rank(a)`` columns; every
    basis vector v satisfies ``||a @ v||_max <= RESIDUAL_ABS_TOL``.
    ``factors`` is ``svd(a)`` if already computed.
    """
    cols = a.shape[-1]
    if cols == 0:
        return np.zeros(a.shape[:-2] + (0, 0), dtype=np.complex128)
    _, s, vh = svd(a) if factors is None else factors
    return _adjoint(vh[..., _shared_rank(a, s) :, :])


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the intersection of two orthonormal column spans.

    Computed from the nullspace of the stacked system ``[a | -b]``: a null
    vector (x; y) certifies ``a @ x = b @ y``, which is a coefficient
    representation of an intersection vector.  For subspaces in generic
    position the basis has ``max(0, cols(a) + cols(b) - rows)`` columns.
    """
    if a.shape[-2] != b.shape[-2]:
        raise DimensionMismatch(f"ambient dimensions differ: {a.shape[-2]} vs {b.shape[-2]}")
    empty = np.zeros(a.shape[:-1] + (0,), dtype=np.complex128)
    if a.shape[-1] == 0 or b.shape[-1] == 0:
        return empty
    coeff = nullspace(np.concatenate([a, -b], axis=-1))
    if coeff.shape[-1] == 0:
        return empty
    return orthonormal_basis(a @ coeff[..., : a.shape[-1], :])


def solve_into(h: np.ndarray, target: np.ndarray, factors=None) -> np.ndarray:
    """Minimum-norm V with ``h @ V = target``, for every member of a stack.

    The pseudo-inverse of each member drops its singular values below
    ``RANK_REL_TOL`` times the largest.  ``factors`` is ``svd(h)`` if
    already computed.

    Raises
    ------
    Unsolvable
        If some target column lies outside the column space of ``h``
        (max residual beyond ``RESIDUAL_ABS_TOL``).  In precoder
        synthesis this signals aligned jamming being requested outside
        its validity region.
    """
    if h.shape[-2] != target.shape[-2]:
        raise DimensionMismatch(
            f"row counts differ: h has {h.shape[-2]}, target has {target.shape[-2]}"
        )
    if target.shape[-1] == 0:
        return np.zeros(h.shape[:-2] + (h.shape[-1], 0), dtype=np.complex128)
    u, s, vh = svd(h) if factors is None else factors
    k = s.shape[-1]
    kept = s > RANK_REL_TOL * s[..., :1]
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    v = _adjoint(vh[..., :k, :]) @ (inv_s[..., None] * (_adjoint(u) @ target))
    error = np.abs(h @ v - target)
    if error.max() > RESIDUAL_ABS_TOL:
        residual = error.max(axis=(-2, -1))
        member = int(np.argmax(residual.reshape(-1) > RESIDUAL_ABS_TOL))
        raise _member_error(
            Unsolvable,
            h,
            member,
            "target columns are not reachable through h "
            f"(residual {residual.reshape(-1)[member]:.3e})",
        )
    return v


def complement_projector(cols: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the complement of the column space of ``cols``.

    Returns the N x N matrix ``I - Q Q^H`` per member, where Q spans
    col(cols); it is Hermitian, idempotent, annihilates every column of
    ``cols`` and has rank ``N - rank(cols)``.  Zero-column input yields
    the identity.
    """
    q = orthonormal_basis(cols)
    u = np.eye(cols.shape[-2], dtype=np.complex128) - q @ _adjoint(q)
    u += _adjoint(u)
    u *= 0.5
    return u


def complete_orthonormal(partial: np.ndarray, extra: int) -> np.ndarray:
    """``extra`` orthonormal columns orthogonal to an orthonormal ``partial``.

    Stacking ``[partial | result]`` gives an isometry; with
    ``cols(partial) + extra == rows(partial)`` the stack is unitary.  Used to
    fill legitimate precoder columns around already-placed jamming columns.
    """
    if extra < 0:
        raise DimensionMismatch("extra must be nonnegative")
    n, d = partial.shape[-2:]
    if d + extra > n:
        raise DimensionMismatch(
            f"cannot add {extra} orthonormal columns to a dim-{d} basis in ambient {n}"
        )
    if extra == 0:
        return np.zeros(partial.shape[:-1] + (0,), dtype=np.complex128)
    u, _, _ = np.linalg.svd(partial, full_matrices=True)
    return u[..., d : d + extra]
