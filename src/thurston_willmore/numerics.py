"""Finite-difference stencils and quadrature on sampled grids.

All profile post-processing differentiates and integrates stored sample
arrays only, so repeated runs and CSV round trips are bit-identical.
Every function takes one profile's samples as a 1-D array.  Derivatives
use 5-point stencils (4th order in the interior, one-sided at the two edge
samples on each side), one routine over each derivative's rows.  A
stride-m stencil takes its points m samples apart and fills every sample
in one pass, in place over the interior and by the one-sided rows on the
first and last 2m samples, which take the edge samples as Python floats;
each sample still sees only its own stride-m subgrid.  Integration
applies 16-point Gauss-Legendre rules to the local interpolant of each
panel of eight grid intervals, which reduces to fixed weights on the
samples; the error estimate compares against the same rule on the
stride-2 subgrid.

Samples uniform in a turning angle sigma on [0, pi] (``sine_quadrature``)
take the sine rule instead: the integrand times ds/dsigma is an odd
2 pi-periodic function of sigma, whose sine series the samples determine
up to the term M = n - 1, and the rule integrates that series exactly, so
it converges geometrically in n for analytic integrands (Trefethen &
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
56, 2014).  Its error estimate is the tail of the same sine coefficients
(Aurentz & Trefethen, "Chopping a Chebyshev series", ACM TOMS 43, 2017).

The spacing ``h`` is either a scalar, the step of samples uniform in the
variable s, or an array s'_i = ds/di per sample, i the sample index, for
samples uniform in some other variable.  An array spacing makes the
stencils act on the index: d/ds = (d/di)/s'_i,
d^2/ds^2 = (d^2/di^2 - s''_i d/ds)/s'_i^2, and the integral of f ds is the
sum of w_i f_i s'_i.  A stride-m subgrid is uniform in i with step m.  The
scalar path is the plain uniform-grid arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "derivative1",
    "derivative2",
    "sample_quadrature",
    "sample_quadrature_with_error",
    "sine_quadrature",
    "sine_quadrature_with_tail",
]

_PANEL = 8  # grid intervals per quadrature panel
_TAIL_TERMS = 16  # the most sine terms in a tail


# 5-point rules: the interior row, the rows at the first two samples and the
# order p; a stencil divides them by 12 (stride h)^p.
_FIRST = (
    (1.0, -8.0, 0.0, 8.0, -1.0),
    ((-25.0, 48.0, -36.0, 16.0, -3.0), (-3.0, -10.0, 18.0, -6.0, 1.0)),
    1,
)
_SECOND = (
    (-1.0, 16.0, -30.0, 16.0, -1.0),
    ((35.0, -104.0, 114.0, -56.0, 11.0), (11.0, -20.0, 6.0, 4.0, -1.0)),
    2,
)


def _samples(y) -> np.ndarray:
    """``y`` as a float array, which must be 1-D."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"samples must be a 1-D array, got shape {y.shape}")
    return y


def _stencil(rule, y, h, stride: int) -> np.ndarray:
    """The 5-point ``rule`` on the samples y with spacing h, its points ``stride`` samples apart.

    A stride divides the amplification of sample-level white noise by stride
    (d/ds) or stride^2 (d^2/ds^2) at an O((stride h)^4) truncation cost.
    The interior [2m, n - 2m), m the stride, is summed in place in the row's
    order from its second term (w1 y1 + w0 y0 = w0 y0 + w1 y1).  The edge
    rows give each subgrid's first two samples and, on its points read
    backward and negated for d/ds, its last two, on Python floats
    (``y[i]`` would make a numpy scalar per sample).
    """
    y = _samples(y)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if len(y) < 5 * stride:
        raise ValueError(f"need at least {5 * stride} samples for stride {stride}")
    interior, ((a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4)), order = rule
    m, n, h = stride, len(y), h * stride
    # x / c follows numpy, not ZeroDivisionError
    c = np.float64(12.0 * h * h if order == 2 else 12.0 * h)
    d = np.empty_like(y)
    inner = d[2 * m : n - 2 * m]
    np.multiply(y[m : n - 3 * m], interior[1], out=inner)
    for j in (0, 2, 3, 4):
        w = interior[j]
        if w == 1.0:
            inner += y[j * m : n + (j - 4) * m]
        elif w == -1.0:
            inner -= y[j * m : n + (j - 4) * m]
        elif w:
            inner += w * y[j * m : n + (j - 4) * m]
    inner /= c
    head, tail = y[: 5 * m].tolist(), y[: -5 * m - 1 : -1].tolist()  # the last 5m reversed
    for i in range(m):
        y0, y1, y2, y3, y4 = head[i :: m]
        d[i] = (a0 * y0 + a1 * y1 + a2 * y2 + a3 * y3 + a4 * y4) / c
        d[i + m] = (b0 * y0 + b1 * y1 + b2 * y2 + b3 * y3 + b4 * y4) / c
        y0, y1, y2, y3, y4 = tail[i :: m]
        last = a0 * y0 + a1 * y1 + a2 * y2 + a3 * y3 + a4 * y4
        next_to_last = b0 * y0 + b1 * y1 + b2 * y2 + b3 * y3 + b4 * y4
        if order == 1:
            last, next_to_last = -last, -next_to_last
        d[-1 - i], d[-1 - i - m] = last / c, next_to_last / c
    return d


def derivative1(y: np.ndarray, h, stride: int = 1) -> np.ndarray:
    """First derivative d/ds of samples with spacing ``h``, 5-point stencils."""
    if getattr(h, "ndim", 0) == 0:
        return _stencil(_FIRST, y, h, stride)
    return _stencil(_FIRST, y, 1.0, stride) / h


def derivative2(y: np.ndarray, h, stride: int = 1) -> np.ndarray:
    """Second derivative d^2/ds^2 of samples with spacing ``h``, 5-point stencils."""
    if getattr(h, "ndim", 0) == 0:
        return _stencil(_SECOND, y, h, stride)
    h_dot = _stencil(_FIRST, h, 1.0, stride)
    y_dot = _stencil(_FIRST, y, 1.0, stride)
    return (_stencil(_SECOND, y, 1.0, stride) - h_dot * y_dot / h) / (h * h)


@lru_cache(maxsize=None)
def _panel_weights(p: int) -> tuple:
    """Weights on p+1 uniform nodes integrating their interpolant over the panel.

    Computed by evaluating the Lagrange basis at 16 Gauss-Legendre nodes of
    the panel [0, p]; the rule is exact for the degree-p interpolant, so the
    result coincides with the closed Newton-Cotes weights (in units of the
    grid spacing).
    """
    gx, gwt = np.polynomial.legendre.leggauss(16)
    t = 0.5 * p * (gx + 1.0)
    gw = 0.5 * p * gwt
    nodes = np.arange(p + 1, dtype=float)
    w = np.empty(p + 1)
    for j in range(p + 1):
        others = np.delete(nodes, j)
        basis = np.prod((t[:, None] - others[None, :]) / (nodes[j] - others), axis=1)
        w[j] = gw @ basis
    return tuple(w)


@lru_cache(maxsize=None)
def _grid_weights(n: int) -> np.ndarray:
    """Full-grid quadrature weights for n samples (unit spacing)."""
    if n < 2:
        raise ValueError("need at least 2 samples to integrate")
    w = np.zeros(n)
    intervals = n - 1
    full, rest = divmod(intervals, _PANEL)
    pw = np.asarray(_panel_weights(_PANEL))
    for m in range(full):
        w[m * _PANEL : m * _PANEL + _PANEL + 1] += pw
    if rest:
        w[full * _PANEL :] += np.asarray(_panel_weights(rest))
    return w


@lru_cache(maxsize=None)
def _sine_rule(n: int) -> np.ndarray:
    """The sine rule's weights and tail rows for n samples uniform in sigma on [0, pi] (unit spacing).

    Row 0 holds the weights.  With M = n - 1, the weight of sample j in
    units of the sample step is (M/pi) (2/M) sum over odd m < M of (2/m)
    sin(m pi j/M): the integral over [0, pi] of the sine series that
    interpolates the samples.  One real FFT of length 2M sums it for every
    j; the end weights are 0.  The other rows are (4/pi) sin(m pi j/M), one
    per tail term m: the odd m >= 3M/4 below M, at most the last
    ``_TAIL_TERMS``.  Such a row applied to samples gives 2 c_m, c_m the
    term's coefficient in the sine series in sigma: the most that a copy
    of the term aliased onto a lower odd term adds to the rule's result
    (the weight 2/m' of term m' is at most 2).  (1 + terms, n), so O(n)
    memory; read-only, since every later call shares it.
    """
    if n < 3:
        raise ValueError("the sine rule needs at least 3 samples")
    m = n - 1
    terms = np.arange(max((3 * m + 3) // 4, m - 2 * _TAIL_TERMS) | 1, m, 2)
    rule = np.empty((1 + terms.size, n))
    factors = np.zeros(2 * m)
    factors[1:m:2] = 4.0 / (math.pi * np.arange(1, m, 2))
    np.negative(np.fft.rfft(factors).imag, out=rule[0])
    rule[0, [0, -1]] = 0.0
    # sin(m pi j/M) read off one period of 2M samples at the phase m j mod 2M,
    # reduced exactly in integers: 2M sines rather than one per table entry
    period = np.sin(np.arange(2 * m) * (math.pi / m))
    period *= 4.0 / math.pi
    j = np.arange(n)
    for row, term in zip(rule[1:], terms):
        np.take(period, j * term % (2 * m), out=row)
    rule.flags.writeable = False
    return rule


def sample_quadrature(y: np.ndarray, h) -> float:
    """Integral of samples with spacing ``h`` over their full span."""
    y = _samples(y)
    weights = _grid_weights(len(y))
    if getattr(h, "ndim", 0):
        y, h = y * h, 1.0  # the spacing enters each term; 1.0 * the sum is exact
    return float(h * (y @ weights))


def sample_quadrature_with_error(y: np.ndarray, h) -> tuple[float, float]:
    """Integral plus an error estimate from the stride-2 subgrid.

    The fine and coarse rules are both of high order, so their difference
    is a conservative bound on the quadrature error of the fine result.
    The estimate is NaN where the samples have no stride-2 subgrid (an even
    count, or fewer than 5).
    """
    y = _samples(y)
    value = sample_quadrature(y, h)
    n = len(y)
    if n >= 5 and (n - 1) % 2 == 0:
        coarse = sample_quadrature(y[::2], 2.0 * (h[::2] if getattr(h, "ndim", 0) else h))
        return value, abs(value - coarse)
    return value, np.nan


def sine_quadrature(y: np.ndarray, h) -> float:
    """Integral by the sine rule of samples uniform in sigma on [0, pi], spacing ``h`` (ds/di)."""
    y = _samples(y)
    weights = _sine_rule(len(y))[0]
    if getattr(h, "ndim", 0):
        y, h = y * h, 1.0
    return float(h * (y @ weights))


def sine_quadrature_with_tail(y: np.ndarray, h) -> tuple[float, float]:
    """:func:`sine_quadrature` and the tail of the integrand's sine series.

    The tail is the sum of 2 |c_m| over the series' top terms: the odd
    m >= 3M/4 below M = n - 1, at most the last ``_TAIL_TERMS``
    (:func:`_sine_rule`).  The rule's error is the terms beyond M, each
    aliased onto a lower term or cut off; on a geometrically converging
    series they are far smaller than the top resolved ones, so the tail
    bounds the error, and on an unresolved series it stays large.  A
    feature narrower than the sample step is invisible to the samples and
    to their tail alike.  The tail is NaN where there are no such terms
    (3, 4, 6 or 8 samples), as the Newton-Cotes estimate is where there
    is no stride-2 subgrid.
    """
    y = _samples(y)
    if getattr(h, "ndim", 0):
        y, h = y * h, 1.0
    rule = _sine_rule(len(y))
    if len(rule) == 1:
        return sine_quadrature(y, h), np.nan
    return sine_quadrature(y, h), abs(h) * float(np.abs(rule[1:] @ y).sum())
