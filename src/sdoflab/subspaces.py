"""Complex-matrix subspace algebra used by every precoder construction.

Everything here reduces to a handful of SVD-backed primitives: column-space
bases, nullspaces, subspace intersections, constrained minimum-norm solves,
orthogonal-complement projectors and orthonormal completions.  Rank
decisions use the relative singular-value cutoff ``RANK_REL_TOL``; residual
checks use the absolute bound ``RESIDUAL_ABS_TOL`` (channel entries are
O(1) by construction).

All operations are pure functions of their inputs: identical arguments
produce bitwise-identical outputs, and nothing here holds shared
mutable state, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidMatrix, Unsolvable

__all__ = [
    "Subspace",
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


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient_dim held as an orthonormal column basis.

    ``basis`` has shape (ambient_dim, dim); dim may be zero (the trivial
    subspace), which is how empty precoder blocks flow through the library.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.complex128)
        if basis.ndim != 2:
            raise InvalidMatrix("subspace basis must be two-dimensional")
        if basis.size and not np.isfinite(basis).all():
            raise InvalidMatrix("subspace basis contains non-finite entries")
        if basis.shape[1] > basis.shape[0]:
            raise DimensionMismatch(
                f"basis of shape {basis.shape} has more columns than ambient dimensions"
            )
        if basis.shape[1]:
            gram_err = np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max()
            if gram_err > 1e-10:
                raise InvalidMatrix(f"basis columns not orthonormal (error {gram_err:.3e})")
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _rank_from_singular_values(s: np.ndarray) -> int:
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > RANK_REL_TOL * s[0]))


def orthonormal_basis(a) -> Subspace:
    """Orthonormal basis of the column space of ``a``.

    The returned dimension is the numerical rank of ``a`` under
    ``RANK_REL_TOL``; a zero matrix (or a zero-column matrix) yields the
    trivial subspace.
    """
    a = as_matrix(a)
    if a.shape[1] == 0:
        return Subspace(np.zeros((a.shape[0], 0), dtype=np.complex128))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = _rank_from_singular_values(s)
    return Subspace(u[:, :rank])


def nullspace(a) -> Subspace:
    """Orthonormal basis of the (right) nullspace of ``a``.

    The ambient dimension of the result equals the column count of ``a``
    and its dimension is ``cols(a) - rank(a)``; every basis vector v
    satisfies ``||a @ v||_max <= RESIDUAL_ABS_TOL``.
    """
    a = as_matrix(a)
    cols = a.shape[1]
    if cols == 0:
        return Subspace(np.zeros((0, 0), dtype=np.complex128))
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = _rank_from_singular_values(s)
    return Subspace(vh[rank:].conj().T)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space.

    Computed from the nullspace of the stacked system ``[a.basis | -b.basis]``:
    a null vector (x; y) certifies ``a.basis @ x = b.basis @ y``, which is a
    coefficient representation of an intersection vector.  For subspaces in
    generic position the dimension is ``max(0, a.dim + b.dim - ambient_dim)``.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    ambient = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace(np.zeros((ambient, 0), dtype=np.complex128))
    stacked = np.hstack([a.basis, -b.basis])
    coeff = nullspace(stacked)
    if coeff.dim == 0:
        return Subspace(np.zeros((ambient, 0), dtype=np.complex128))
    vectors = a.basis @ coeff.basis[: a.dim, :]
    return orthonormal_basis(vectors)


def solve_into(h, target) -> np.ndarray:
    """Minimum-norm V with ``h @ V = target``.

    Raises
    ------
    Unsolvable
        If some target column lies outside the column space of ``h``
        (max residual beyond ``RESIDUAL_ABS_TOL``).  In precoder
        synthesis this signals aligned jamming being requested outside
        its validity region.
    """
    h = as_matrix(h, "h")
    target = as_matrix(target, "target")
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


def complement_projector(cols) -> np.ndarray:
    """Orthogonal projector onto the complement of the column space of ``cols``.

    Returns the N x N matrix ``I - Q Q^H`` where Q spans col(cols); it is
    Hermitian, idempotent, annihilates every column of ``cols`` and has rank
    ``N - rank(cols)``.  Zero-column input yields the identity.
    """
    cols = as_matrix(cols, "cols")
    n = cols.shape[0]
    q = orthonormal_basis(cols).basis
    u = np.eye(n, dtype=np.complex128) - q @ q.conj().T
    return (u + u.conj().T) * 0.5


def complete_orthonormal(partial: Subspace, extra: int) -> np.ndarray:
    """``extra`` orthonormal columns orthogonal to an existing partial basis.

    Stacking ``[partial.basis | result]`` gives an isometry; with
    ``partial.dim + extra == ambient_dim`` the stack is unitary.  Used to
    fill legitimate precoder columns around already-placed jamming columns.
    """
    if extra < 0:
        raise DimensionMismatch("extra must be nonnegative")
    n, d = partial.ambient_dim, partial.dim
    if d + extra > n:
        raise DimensionMismatch(
            f"cannot add {extra} orthonormal columns to a dim-{d} basis in ambient {n}"
        )
    if extra == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    u, _, _ = np.linalg.svd(partial.basis, full_matrices=True)
    return u[:, d : d + extra]
