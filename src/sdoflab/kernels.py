"""The log-determinant kernel behind every rate evaluation.

``BACKEND`` names the implementation so run manifests can record it.
"""

import numpy as np

BACKEND = "numpy"

__all__ = ["BACKEND", "logdet_eye_plus_gram"]


def logdet_eye_plus_gram(e) -> float:
    """log2 det(I + E E^H) for a complex matrix E of shape (n, k).

    Computed as ``sum_i log2(1 + s_i^2)`` over the singular values s_i of
    E, so no Gram matrix is formed: the sum stays accurate to roundoff in
    every term at any power level, where a factorization of ``I + E E^H``
    loses the identity once ``s_i^2`` outgrows 1 / eps.
    """
    e = np.asarray(e, dtype=np.complex128)
    if e.size == 0:
        return 0.0
    s = np.linalg.svd(e, compute_uv=False)
    return float(np.sum(np.log2(1.0 + s * s)))
