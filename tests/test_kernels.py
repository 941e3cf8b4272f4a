import mpmath
import numpy as np
import pytest

from helpers import crandn
from sdoflab import kernels


def _reference(e, power=1.0):
    """log2 det(I + p E E^H) by slogdet on the Gram matrix."""
    n = e.shape[0]
    if n == 0 or e.shape[1] == 0:
        return 0.0
    sign, logdet = np.linalg.slogdet(np.eye(n) + power * (e @ e.conj().T))
    assert sign.real > 0
    return logdet / np.log(2.0)


shapes = [(1, 1), (2, 3), (4, 2), (5, 5), (8, 12), (16, 24), (3, 0), (0, 4)]
GRID = np.array([0.0, 0.5, 1.0, 30.0])


@pytest.mark.parametrize("shape", shapes)
def test_logdet_matches_slogdet_on_each_shape(shape):
    gen = np.random.default_rng(hash(shape) % 2**32)
    e = crandn(gen, *shape)
    values = kernels.logdet_eye_plus_gram(e, GRID)
    assert values.shape == GRID.shape
    for value, power in zip(values, GRID):
        assert value == pytest.approx(_reference(e, power), abs=1e-9)


def test_selected_backend_is_exported():
    assert kernels.BACKEND == "numpy"
    gen = np.random.default_rng(1)
    e = crandn(gen, 4, 4)
    assert kernels.logdet_eye_plus_gram(e, [1.0])[0] == pytest.approx(_reference(e), abs=1e-9)


def test_real_input_accepted():
    e = np.array([[1.0, 0.0], [0.0, 2.0]])
    (value,) = kernels.logdet_eye_plus_gram(e, [1.0])
    assert value == pytest.approx(np.log2(2.0) + np.log2(5.0))


def test_stacked_input_matches_per_point_slogdet():
    gen = np.random.default_rng(7)
    stack = np.stack([crandn(gen, 3, 5) for _ in range(4)])
    powers = np.array([0.1, 2.0, 1e3, 1e6])
    values = kernels.logdet_eye_plus_gram(stack, powers)
    assert values.shape == (4,)
    for value, e, power in zip(values, stack, powers):
        assert value == pytest.approx(_reference(e, power), abs=1e-9)


@pytest.mark.parametrize("stacked", [False, True])
def test_zero_power_point_is_exactly_zero(stacked):
    gen = np.random.default_rng(3)
    e = crandn(gen, 4, 3)
    if stacked:
        e = np.stack([e, crandn(gen, 4, 3)])
    values = kernels.logdet_eye_plus_gram(e, [0.0, 1e4])
    assert values[0] == 0.0
    assert values[1] > 0.0


def _mpmath_reference(e, power) -> float:
    """log2 det(I + p E E^H) in 50-digit arithmetic on the exact float values of E and p."""
    with mpmath.workdps(50):
        m = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in e])
        gram = mpmath.eye(e.shape[0]) + mpmath.mpf(power) * (m * m.transpose_conj())
        return float(mpmath.log(mpmath.re(mpmath.det(gram)), 2))


@pytest.mark.parametrize("p_db", [100.0, 160.0])
@pytest.mark.parametrize("seed", range(3))
def test_accurate_at_high_power(p_db, seed):
    # At high power I + p E E^H is numerically p E E^H, so a factorization
    # of it loses the identity; the kernel must stay exact against mpmath.
    gen = np.random.default_rng(seed)
    e = crandn(gen, 4, 3)
    power = 10.0 ** (p_db / 10.0)
    (value,) = kernels.logdet_eye_plus_gram(e, [power])
    assert abs(value - _mpmath_reference(e, power)) <= 1e-12


def test_accurate_over_a_140_to_300_db_grid():
    gen = np.random.default_rng(11)
    e = crandn(gen, 4, 3)
    powers = 10.0 ** (np.arange(140.0, 301.0, 20.0) / 10.0)
    values = kernels.logdet_eye_plus_gram(e, powers)
    for value, power in zip(values, powers):
        assert abs(value - _mpmath_reference(e, power)) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_accurate_where_p_times_s_squared_is_past_the_float_range(seed):
    # At the top powers p s_i^2 overflows for some or all s_i although p and
    # s_i are finite; the rate is still finite and exact against mpmath.  A
    # (3, 4) matrix has full row rank, so 50 digits resolve det(I + p E E^H).
    gen = np.random.default_rng(seed)
    e = crandn(gen, 3, 4)
    powers = np.array([1e307, 1e308, np.finfo(float).max])
    s2 = np.linalg.svd(e, compute_uv=False) ** 2
    assert (s2 > np.finfo(float).max / powers[-1]).any()
    assert not (s2 > np.finfo(float).max / powers[0]).any()
    values = kernels.logdet_eye_plus_gram(e, powers)
    for value, power in zip(values, powers):
        assert abs(value - _mpmath_reference(e, power)) <= 1e-12
    # Below the overflow the value is the plain sum, bit for bit.
    assert values[0] == np.sum(np.log2(1.0 + powers[0] * s2))
