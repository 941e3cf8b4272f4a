"""The log-determinant kernel behind every rate evaluation.

``BACKEND`` names the implementation so run manifests can record it.
"""

import numpy as np

BACKEND = "numpy"

__all__ = ["BACKEND", "logdet_eye_plus_gram"]


def logdet_eye_plus_gram(e) -> float:
    """log2 det(I + E E^H) for a complex matrix E of shape (n, k).

    The argument ``I + E E^H`` is Hermitian positive definite by
    construction, so the Cholesky factorization cannot fail for finite
    input.  The Gram matrix is explicitly symmetrized before factoring to
    suppress roundoff asymmetry, and the determinant is accumulated in the
    log domain.
    """
    e = np.asarray(e, dtype=np.complex128)
    n, k = e.shape
    if n == 0:
        return 0.0
    if k == 0:
        return 0.0
    a = e @ e.conj().T
    a = (a + a.conj().T) * 0.5
    a.flat[:: n + 1] += 1.0
    chol = np.linalg.cholesky(a)
    diag = np.real(np.diagonal(chol))
    return float(2.0 * np.sum(np.log2(diag)))
