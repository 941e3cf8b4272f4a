"""Complex-matrix subspace algebra used by every precoder construction.

Everything here reduces to a handful of SVD-backed primitives: column-space
bases, nullspaces, subspace intersections, constrained minimum-norm solves,
orthogonal-complement projectors and orthonormal completions.  Rank
decisions use the relative singular-value cutoff ``RANK_REL_TOL``; residual
checks use the absolute bound ``RESIDUAL_ABS_TOL`` (channel entries are
O(1) by construction).

The primitives take and return plain complex ndarrays and do not re-check
them: their inputs are matrices the library built itself.  Outside input
is checked once, by ``as_matrix``, where a channel enters the library.

All operations are pure functions of their inputs: identical arguments
produce bitwise-identical outputs, and nothing here holds shared
mutable state, so concurrent use is safe.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidMatrix, Unsolvable

__all__ = [
    "as_matrix",
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


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a dense complex128 matrix, rejecting NaN/Inf entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise InvalidMatrix(f"{name} must be two-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InvalidMatrix(f"{name} must have at least one row, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return arr


def _rank_from_singular_values(s: np.ndarray) -> int:
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > RANK_REL_TOL * s[0]))


def orthonormal_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of ``a``.

    The basis has ``rank(a)`` columns under ``RANK_REL_TOL``; a zero
    matrix (or a zero-column matrix) yields a zero-column basis.
    """
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, : _rank_from_singular_values(s)]


def nullspace(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the (right) nullspace of ``a``.

    The basis has ``cols(a)`` rows and ``cols(a) - rank(a)`` columns; every
    basis vector v satisfies ``||a @ v||_max <= RESIDUAL_ABS_TOL``.
    """
    if a.shape[1] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return vh[_rank_from_singular_values(s) :].conj().T


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the intersection of two orthonormal column spans.

    Computed from the nullspace of the stacked system ``[a | -b]``: a null
    vector (x; y) certifies ``a @ x = b @ y``, which is a coefficient
    representation of an intersection vector.  For subspaces in generic
    position the basis has ``max(0, cols(a) + cols(b) - rows)`` columns.
    """
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"ambient dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    ambient = a.shape[0]
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((ambient, 0), dtype=np.complex128)
    coeff = nullspace(np.hstack([a, -b]))
    if coeff.shape[1] == 0:
        return np.zeros((ambient, 0), dtype=np.complex128)
    return orthonormal_basis(a @ coeff[: a.shape[1], :])


def solve_into(h: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimum-norm V with ``h @ V = target``.

    Raises
    ------
    Unsolvable
        If some target column lies outside the column space of ``h``
        (max residual beyond ``RESIDUAL_ABS_TOL``).  In precoder
        synthesis this signals aligned jamming being requested outside
        its validity region.
    """
    if h.shape[0] != target.shape[0]:
        raise DimensionMismatch(
            f"row counts differ: h has {h.shape[0]}, target has {target.shape[0]}"
        )
    if target.shape[1] == 0:
        return np.zeros((h.shape[1], 0), dtype=np.complex128)
    v, _, _, _ = np.linalg.lstsq(h, target, rcond=RANK_REL_TOL)
    residual = float(np.abs(h @ v - target).max())
    if residual > RESIDUAL_ABS_TOL:
        raise Unsolvable(
            f"target columns are not reachable through h (residual {residual:.3e})"
        )
    return v


def complement_projector(cols: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the complement of the column space of ``cols``.

    Returns the N x N matrix ``I - Q Q^H`` where Q spans col(cols); it is
    Hermitian, idempotent, annihilates every column of ``cols`` and has rank
    ``N - rank(cols)``.  Zero-column input yields the identity.
    """
    q = orthonormal_basis(cols)
    u = np.eye(cols.shape[0], dtype=np.complex128) - q @ q.conj().T
    return (u + u.conj().T) * 0.5


def complete_orthonormal(partial: np.ndarray, extra: int) -> np.ndarray:
    """``extra`` orthonormal columns orthogonal to an orthonormal ``partial``.

    Stacking ``[partial | result]`` gives an isometry; with
    ``cols(partial) + extra == rows(partial)`` the stack is unitary.  Used to
    fill legitimate precoder columns around already-placed jamming columns.
    """
    if extra < 0:
        raise DimensionMismatch("extra must be nonnegative")
    n, d = partial.shape
    if d + extra > n:
        raise DimensionMismatch(
            f"cannot add {extra} orthonormal columns to a dim-{d} basis in ambient {n}"
        )
    if extra == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    u, _, _ = np.linalg.svd(partial, full_matrices=True)
    return u[:, d : d + extra]
