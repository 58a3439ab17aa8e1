import math

import numpy as np
import pytest

from thurston_willmore.numerics import (
    derivative1,
    derivative2,
    sample_quadrature,
    sample_quadrature_with_error,
)


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
