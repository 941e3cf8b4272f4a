import mpmath
import numpy as np
import pytest

from helpers import crandn
from sdoflab import kernels


def _reference(e):
    n = e.shape[0]
    if n == 0 or e.shape[1] == 0:
        return 0.0
    sign, logdet = np.linalg.slogdet(np.eye(n) + e @ e.conj().T)
    assert sign.real > 0
    return logdet / np.log(2.0)


shapes = [(1, 1), (2, 3), (4, 2), (5, 5), (8, 12), (16, 24), (3, 0), (0, 4)]


@pytest.mark.parametrize("shape", shapes)
def test_fallback_matches_slogdet(shape):
    gen = np.random.default_rng(hash(shape) % 2**32)
    e = crandn(gen, *shape)
    assert kernels.logdet_eye_plus_gram(e) == pytest.approx(_reference(e), abs=1e-9)


def test_selected_backend_is_exported():
    assert kernels.BACKEND == "numpy"
    gen = np.random.default_rng(1)
    e = crandn(gen, 4, 4)
    assert kernels.logdet_eye_plus_gram(e) == pytest.approx(_reference(e), abs=1e-9)


def test_real_input_accepted():
    e = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert kernels.logdet_eye_plus_gram(e) == pytest.approx(np.log2(2.0) + np.log2(5.0))


def _mpmath_reference(e) -> float:
    """log2 det(I + E E^H) in 50-digit arithmetic on the exact float entries of E."""
    with mpmath.workdps(50):
        m = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in e])
        gram = mpmath.eye(e.shape[0]) + m * m.transpose_conj()
        return float(mpmath.log(mpmath.re(mpmath.det(gram)), 2))


@pytest.mark.parametrize("p_db", [100.0, 160.0])
@pytest.mark.parametrize("seed", range(3))
def test_accurate_at_high_power(p_db, seed):
    # At high power I + E E^H is numerically E E^H, so a factorization of
    # it loses the identity; the kernel must stay exact against mpmath.
    gen = np.random.default_rng(seed)
    e = np.sqrt(10.0 ** (p_db / 10.0)) * crandn(gen, 4, 3)
    assert abs(kernels.logdet_eye_plus_gram(e) - _mpmath_reference(e)) <= 1e-12
