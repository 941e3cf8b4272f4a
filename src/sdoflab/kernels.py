"""The log-determinant kernel behind every rate evaluation, over a power grid.

A rate at power p is ``log2 det(I + p E E^H)`` for a unit-power real or
complex matrix E, so one SVD of E serves every grid point.  The rate
functions pass one real stack per chunk of trials, shaped (trials, 1 |
grid, rows, cols): a length-1 axis holds one matrix per trial over the
whole grid, a grid axis holds one matrix per grid point.  ``BACKEND``
names the implementation so run manifests can record it.
"""

import numpy as np

BACKEND = "numpy"

__all__ = ["BACKEND", "logdet_eye_plus_gram"]


def logdet_eye_plus_gram(e, powers) -> np.ndarray:
    """log2 det(I + p_k E E^H) at every power p_k of a grid.

    ``e`` is one real or complex (n, k) matrix, held over the grid, or a
    stack whose axis next to the matrix axes has length 1 (a matrix held over
    the grid) or the grid's length (one matrix per grid point), after any
    leading axes: ``simulate`` passes (trials, 1 | grid, n, k).  ``powers``
    is the 1-D grid of nonnegative scale factors.  Returns the leading
    axes and a grid axis, (grid,) for a matrix and (trials, grid) for
    ``simulate``: ``sum_i log2(1 + p_k s_i^2)`` over the singular values
    s_i of the matrix at grid point k.  No Gram matrix is formed, so each
    term stays accurate to roundoff at any power level, where a
    factorization of ``I + p E E^H`` loses the identity once ``p s_i^2``
    outgrows 1 / eps; a term whose finite ``p_k`` and ``s_i`` have a product
    past the float range is ``log2(p_k) + 2 log2(s_i)``, which is finite.
    A zero power gives exactly 0, and an empty matrix gives zeros of the
    grid's shape, which broadcast against the stack's.
    """
    e = np.asarray(e)
    powers = np.asarray(powers, dtype=float)
    if e.shape[-2] == 0 or e.shape[-1] == 0:
        return np.zeros(powers.shape)
    s = np.linalg.svd(e, compute_uv=False)
    with np.errstate(over="ignore"):  # an overflowed term is taken in logs below
        scaled = powers[:, None] * (s * s)
    terms = np.log2(1.0 + scaled)
    # Past DBL_MAX, 1 + p s^2 is p s^2 to far below roundoff, so a term whose
    # finite factors overflow is their sum of logs.
    over = np.isinf(scaled) & np.isfinite(s) & np.isfinite(powers)[:, None]
    if over.any():
        p_k, s_i = np.broadcast_arrays(powers[:, None], s)
        terms[over] = np.log2(p_k[over]) + 2.0 * np.log2(s_i[over])
    return np.sum(terms, axis=-1)
