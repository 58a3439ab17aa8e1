"""Trigonometric evaluation of the mode family, the oracle of the Chebyshev form.

The package evaluates P and N of u(sigma) = (1/H) sin(sigma) P(sigma) as
Chebyshev series in t = cos(2 sigma).  This module sums the same functions
mode by mode in sigma, independently of those series, for the tests that
check them.
"""

import numpy as np


def reduced_sine_ratio(sigma: np.ndarray, m: int) -> np.ndarray:
    """sin(2 m sigma) / cos(sigma), evaluated through its removable zeros.

    Uses sin(2 m sigma)/cos(sigma) = 2 sum_j (-1)^j sin((2m-1-2j) sigma).
    """
    out = np.zeros_like(sigma)
    for j in range(m):
        out += (-1.0) ** j * np.sin((2 * m - 1 - 2 * j) * sigma)
    return 2.0 * out


def mode_shape(H: float, coeffs: np.ndarray, sigma: np.ndarray):
    """sin(sigma), modulation P, numerator N and radius u of the mode family on ``sigma``.

    The family is u(sigma) = (1/H) sin(sigma) P(sigma) with modulation
    P = 1 + sum_m c_m cos(2 m sigma).  The numerator N = u'(sigma)/cos(sigma)
    (computed through the removable equator zero) determines regularity:
    ds/dsigma = N / (H (1 + k u^2/4)) must stay positive.
    """
    p = np.ones_like(sigma)
    for m, c in enumerate(coeffs, start=1):
        p = p + c * np.cos(2 * m * sigma)
    sin_sig = np.sin(sigma)
    n = p
    for m, c in enumerate(coeffs, start=1):
        if c != 0.0:
            n = n - 2 * m * c * sin_sig * reduced_sine_ratio(sigma, m)
    return sin_sig, p, n, sin_sig * p / abs(H)
