"""Finite-difference stencils and quadrature on sampled grids.

All profile post-processing differentiates and integrates stored sample
arrays only, so repeated runs and CSV round trips are bit-identical.
Every function takes one profile's samples as a 1-D array.  Derivatives
use 5-point stencils (4th order in the interior, one-sided at the two edge
samples on each side).  A stride-m stencil takes its points m samples
apart and fills every sample in one pass, one expression over the interior
and the one-sided formulas on the first and last 2m samples, which take
the edge samples as Python floats; each sample still sees only its own
stride-m subgrid.  Integration applies 16-point Gauss-Legendre rules to
the local interpolant of each panel of eight grid intervals, which
reduces to fixed weights on the samples; the error estimate compares
against the same rule on the stride-2 subgrid.

The spacing ``h`` is either a scalar, the step of samples uniform in the
variable s, or an array s'_i = ds/di per sample, i the sample index, for
samples uniform in some other variable.  An array spacing makes the
stencils act on the index: d/ds = (d/di)/s'_i,
d^2/ds^2 = (d^2/di^2 - s''_i d/ds)/s'_i^2, and the integral of f ds is the
sum of w_i f_i s'_i.  A stride-m subgrid is uniform in i with step m.  The
scalar path is the plain uniform-grid arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["derivative1", "derivative2", "sample_quadrature", "sample_quadrature_with_error"]

_PANEL = 8  # grid intervals per quadrature panel


def _derivative1_unit(y: np.ndarray, h: float, m: int) -> np.ndarray:
    c = np.float64(12.0 * h)  # a float divided by it follows numpy, not ZeroDivisionError
    d = np.empty_like(y)
    n = len(y)
    # interior in place, in the order of (y0 - 8 y1 + 8 y3 - y4) / c
    inner = d[2 * m : n - 2 * m]
    np.multiply(y[m : n - 3 * m], 8.0, out=inner)
    np.subtract(y[: n - 4 * m], inner, out=inner)
    inner += 8.0 * y[3 * m : n - m]
    inner -= y[4 * m :]
    inner /= c
    head, tail = y[: 5 * m].tolist(), y[: -5 * m - 1 : -1].tolist()  # the last 5m reversed
    for i in range(m):
        y0, y1, y2, y3, y4 = head[i :: m]
        d[i] = (-25.0 * y0 + 48.0 * y1 - 36.0 * y2 + 16.0 * y3 - 3.0 * y4) / c
        d[i + m] = (-3.0 * y0 - 10.0 * y1 + 18.0 * y2 - 6.0 * y3 + y4) / c
        y0, y1, y2, y3, y4 = tail[i :: m]
        d[-1 - i - m] = -(-3.0 * y0 - 10.0 * y1 + 18.0 * y2 - 6.0 * y3 + y4) / c
        d[-1 - i] = -(-25.0 * y0 + 48.0 * y1 - 36.0 * y2 + 16.0 * y3 - 3.0 * y4) / c
    return d


def _derivative2_unit(y: np.ndarray, h: float, m: int) -> np.ndarray:
    hh = np.float64(12.0 * h * h)
    d = np.empty_like(y)
    n = len(y)
    # interior in place, in the order of (-y0 + 16 y1 - 30 y2 + 16 y3 - y4) / hh
    inner = d[2 * m : n - 2 * m]
    np.multiply(y[m : n - 3 * m], 16.0, out=inner)
    np.subtract(inner, y[: n - 4 * m], out=inner)
    inner -= 30.0 * y[2 * m : n - 2 * m]
    inner += 16.0 * y[3 * m : n - m]
    inner -= y[4 * m :]
    inner /= hh
    head, tail = y[: 5 * m].tolist(), y[: -5 * m - 1 : -1].tolist()
    for i in range(m):
        y0, y1, y2, y3, y4 = head[i :: m]
        d[i] = (35.0 * y0 - 104.0 * y1 + 114.0 * y2 - 56.0 * y3 + 11.0 * y4) / hh
        d[i + m] = (11.0 * y0 - 20.0 * y1 + 6.0 * y2 + 4.0 * y3 - y4) / hh
        y0, y1, y2, y3, y4 = tail[i :: m]
        d[-1 - i - m] = (11.0 * y0 - 20.0 * y1 + 6.0 * y2 + 4.0 * y3 - y4) / hh
        d[-1 - i] = (35.0 * y0 - 104.0 * y1 + 114.0 * y2 - 56.0 * y3 + 11.0 * y4) / hh
    return d


def _samples(y) -> np.ndarray:
    """``y`` as a float array, which must be 1-D."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"samples must be a 1-D array, got shape {y.shape}")
    return y


def _strided(kernel, y: np.ndarray, h: float, stride: int) -> np.ndarray:
    """Apply a stencil kernel to the samples y, its points ``stride`` samples apart.

    Stencil points sit ``stride`` samples apart, which divides the
    amplification of sample-level white noise by stride (first derivative)
    or stride^2 (second derivative) at an O((stride h)^4) truncation cost.
    One pass fills every sample: the interior [2 stride, n - 2 stride) as
    one expression over slices offset by multiples of ``stride``, and the
    first and last 2 stride samples by the one-sided formulas, one offset
    at a time.  So sample values are never mixed across the interleaved
    stride-subgrids, and every sample equals the same stencil applied to
    its own subgrid.  The kernels read the edges once with ``tolist()``
    (``y[i]`` makes a numpy scalar per sample).
    """
    y = _samples(y)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if len(y) < 5 * stride:
        raise ValueError(f"need at least {5 * stride} samples for stride {stride}")
    return kernel(y, h * stride, stride)


def derivative1(y: np.ndarray, h, stride: int = 1) -> np.ndarray:
    """First derivative d/ds of samples with spacing ``h``, 5-point stencils."""
    if getattr(h, "ndim", 0) == 0:
        return _strided(_derivative1_unit, y, h, stride)
    return _strided(_derivative1_unit, y, 1.0, stride) / h


def derivative2(y: np.ndarray, h, stride: int = 1) -> np.ndarray:
    """Second derivative d^2/ds^2 of samples with spacing ``h``, 5-point stencils."""
    if getattr(h, "ndim", 0) == 0:
        return _strided(_derivative2_unit, y, h, stride)
    h_dot = _strided(_derivative1_unit, h, 1.0, stride)
    y_dot = _strided(_derivative1_unit, y, 1.0, stride)
    return (_strided(_derivative2_unit, y, 1.0, stride) - h_dot * y_dot / h) / (h * h)


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
