import math

import numpy as np
import pytest

from thurston_willmore.numerics import (
    derivative1,
    derivative2,
    sample_quadrature,
    sample_quadrature_with_error,
)

# Reference stencils: each stride-m subgrid y[offset::m] differentiated on
# its own, one kernel call per offset, with the plain 5-point formulas.


def _reference_d1(y, h):
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * h)
    d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * h)
    d[-2] = -(-3.0 * y[-1] - 10.0 * y[-2] + 18.0 * y[-3] - 6.0 * y[-4] + y[-5]) / (12.0 * h)
    d[-1] = -(-25.0 * y[-1] + 48.0 * y[-2] - 36.0 * y[-3] + 16.0 * y[-4] - 3.0 * y[-5]) / (12.0 * h)
    return d


def _reference_d2(y, h):
    hh = 12.0 * h * h
    d = np.empty_like(y)
    d[2:-2] = (-y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2] + 16.0 * y[3:-1] - y[4:]) / hh
    d[0] = (35.0 * y[0] - 104.0 * y[1] + 114.0 * y[2] - 56.0 * y[3] + 11.0 * y[4]) / hh
    d[1] = (11.0 * y[0] - 20.0 * y[1] + 6.0 * y[2] + 4.0 * y[3] - y[4]) / hh
    d[-2] = (11.0 * y[-1] - 20.0 * y[-2] + 6.0 * y[-3] + 4.0 * y[-4] - y[-5]) / hh
    d[-1] = (35.0 * y[-1] - 104.0 * y[-2] + 114.0 * y[-3] - 56.0 * y[-4] + 11.0 * y[-5]) / hh
    return d


def _reference_strided(kernel, y, h, m):
    d = np.empty_like(y)
    for offset in range(m):
        d[offset::m] = kernel(y[offset::m], h * m)
    return d


def _reference_derivative1(y, h, m):
    if np.ndim(h) == 0:
        return _reference_strided(_reference_d1, y, h, m)
    return _reference_strided(_reference_d1, y, 1.0, m) / h


def _reference_derivative2(y, h, m):
    if np.ndim(h) == 0:
        return _reference_strided(_reference_d2, y, h, m)
    h_dot = _reference_strided(_reference_d1, h, 1.0, m)
    y_dot = _reference_strided(_reference_d1, y, 1.0, m)
    return (_reference_strided(_reference_d2, y, 1.0, m) - h_dot * y_dot / h) / (h * h)


def test_derivatives_exact_on_cubics():
    # 5-point stencils integrate polynomials up to degree 4 exactly
    x = np.linspace(-1.0, 2.0, 41)
    h = x[1] - x[0]
    y = 2.0 * x**3 - x**2 + 0.5 * x - 3.0
    np.testing.assert_allclose(derivative1(y, h), 6.0 * x**2 - 2.0 * x + 0.5, atol=1e-12)
    np.testing.assert_allclose(derivative2(y, h), 12.0 * x - 2.0, atol=1e-11)


def test_derivative_convergence_fourth_order():
    def err(n):
        x = np.linspace(0.0, math.pi, n)
        h = x[1] - x[0]
        d = derivative1(np.sin(x), h)
        return np.max(np.abs(d[2:-2] - np.cos(x[2:-2])))

    e1, e2 = err(101), err(201)
    order = math.log2(e1 / e2)
    assert order > 3.7


def test_strided_derivatives_match_plain_on_smooth_data():
    x = np.linspace(0.0, 1.0, 201)
    h = x[1] - x[0]
    y = np.exp(x)
    for stride in (2, 4):
        np.testing.assert_allclose(derivative1(y, h, stride), y, rtol=1e-7)
        np.testing.assert_allclose(derivative2(y, h, stride), y, rtol=1e-5)


def test_strided_derivative_damps_white_noise():
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 1.0, 2049)
    h = x[1] - x[0]
    noise = 1e-12 * rng.standard_normal(x.size)
    plain = np.abs(derivative2(noise, h)).max()
    strided = np.abs(derivative2(noise, h, 4)[8:-8]).max()
    assert strided < plain / 8.0


def _assert_same_bits(d, reference):
    # tobytes() tells -0.0 from 0.0, which np.array_equal does not; NaN only by position
    nan = np.isnan(reference)
    assert np.array_equal(np.isnan(d), nan)
    assert d[~nan].tobytes() == reference[~nan].tobytes()


def _special_samples(rng, n):
    """Signed zeros among samples near 1e300 and 1e-300, and the same samples beside ones near 1."""
    y = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 9.0, n)
    y *= 10.0 ** rng.choice([-300.0, 300.0], n)
    zero = rng.random(n) < 0.3
    y[zero] = rng.choice([-0.0, 0.0], zero.sum())
    return y, np.where(rng.random(n) < 0.5, y, rng.standard_normal(n))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_one_pass_stencils_match_per_offset_reference_bit_for_bit(m):
    rng, special = np.random.default_rng(19 + m), np.random.default_rng(41 + m)
    for n in (5 * m, 5 * m + 1, 2049, 2050):
        spacings = (0.37 / n, 0.5 + rng.uniform(0.0, 0.25, n), 0.0)
        samples = (rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 6.0),)
        samples += (*_special_samples(special, n), np.copysign(0.0, special.standard_normal(n)))
        for y in samples:
            for h in spacings:
                with np.errstate(all="ignore"):
                    _assert_same_bits(derivative1(y, h, m), _reference_derivative1(y, h, m))
                    _assert_same_bits(derivative2(y, h, m), _reference_derivative2(y, h, m))


def test_stencil_errors_keep_their_messages():
    with pytest.raises(ValueError, match=r"^stride must be >= 1$"):
        derivative1(np.zeros(10), 0.1, 0)
    with pytest.raises(ValueError, match=r"^need at least 20 samples for stride 4$"):
        derivative2(np.zeros(19), 0.1, 4)
    with pytest.raises(ValueError, match=r"^samples must be a 1-D array, got shape \(3, 19\)$"):
        derivative2(np.zeros((3, 19)), 0.1, 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda y: derivative1(y, 0.1),
        lambda y: derivative2(y, 0.1, 4),
        lambda y: sample_quadrature(y, 0.1),
        lambda y: sample_quadrature_with_error(y, 0.1),
    ],
    ids=["derivative1", "derivative2", "sample_quadrature", "sample_quadrature_with_error"],
)
def test_samples_must_be_one_dimensional(call):
    with pytest.raises(ValueError, match=r"^samples must be a 1-D array, got shape \(3, 21\)$"):
        call(np.zeros((3, 21)))
    with pytest.raises(ValueError, match=r"^samples must be a 1-D array, got shape \(\)$"):
        call(0.0)


def test_quadrature_polynomial_exactness():
    x = np.linspace(0.0, 2.0, 2049)
    h = x[1] - x[0]
    y = 7.0 * x**8 - 3.0 * x**5 + x
    exact = 7.0 * 2.0**9 / 9.0 - 3.0 * 2.0**6 / 6.0 + 2.0
    assert sample_quadrature(y, h) == pytest.approx(exact, rel=1e-13)


def test_quadrature_sin():
    x = np.linspace(0.0, math.pi, 2049)
    h = x[1] - x[0]
    value, estimate = sample_quadrature_with_error(np.sin(x), h)
    assert value == pytest.approx(2.0, abs=1e-13)
    assert estimate < 1e-12


def test_quadrature_remainder_panel():
    # 2043 samples: 2042 intervals = 255 panels of 8 plus a remainder of 2
    x = np.linspace(0.0, 1.0, 2043)
    h = x[1] - x[0]
    assert sample_quadrature(np.exp(x), h) == pytest.approx(math.e - 1.0, rel=1e-12)


def _graded_grid(n):
    """Samples of s = x + 0.4 sin(x), uniform in x on [0, pi], and their ds/di."""
    x = np.linspace(0.0, math.pi, n)
    return x + 0.4 * np.sin(x), (x[1] - x[0]) * (1.0 + 0.4 * np.cos(x))


def test_array_spacing_differentiates_against_s():
    s, h = _graded_grid(401)
    y = np.exp(0.5 * s)
    for stride in (1, 2, 4):
        np.testing.assert_allclose(derivative1(y, h, stride), 0.5 * y, rtol=1e-6)
        np.testing.assert_allclose(derivative2(y, h, stride), 0.25 * y, rtol=1e-4)


def test_array_spacing_integrates_against_s():
    s, h = _graded_grid(2049)
    value, estimate = sample_quadrature_with_error(np.cos(s), h)
    assert value == pytest.approx(math.sin(s[-1]) - math.sin(s[0]), abs=1e-12)
    assert estimate < 1e-10


def test_uniform_array_spacing_agrees_with_scalar():
    x = np.linspace(0.0, 1.0, 257)
    h = x[1] - x[0]
    y = np.exp(x)
    spacing = np.full(x.size, h)
    np.testing.assert_allclose(derivative1(y, spacing), derivative1(y, h), rtol=1e-12)
    assert sample_quadrature(y, spacing) == pytest.approx(sample_quadrature(y, h), rel=1e-14)
