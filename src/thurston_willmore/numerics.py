"""Finite-difference stencils and quadrature on sampled grids.

All profile post-processing differentiates and integrates stored sample
arrays only, so repeated runs and CSV round trips are bit-identical.
Derivatives use 5-point stencils (4th order in the interior, one-sided at
the two edge samples on each side).  Integration applies 16-point
Gauss-Legendre rules to the local interpolant of each panel of eight grid
intervals, which reduces to fixed weights on the samples; the error
estimate compares against the same rule on the stride-2 subgrid.

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


def _derivative1_unit(y: np.ndarray, h: float) -> np.ndarray:
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * h)
    d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * h)
    d[-2] = -(-3.0 * y[-1] - 10.0 * y[-2] + 18.0 * y[-3] - 6.0 * y[-4] + y[-5]) / (12.0 * h)
    d[-1] = -(-25.0 * y[-1] + 48.0 * y[-2] - 36.0 * y[-3] + 16.0 * y[-4] - 3.0 * y[-5]) / (12.0 * h)
    return d


def _derivative2_unit(y: np.ndarray, h: float) -> np.ndarray:
    hh = 12.0 * h * h
    d = np.empty_like(y)
    d[2:-2] = (-y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2] + 16.0 * y[3:-1] - y[4:]) / hh
    d[0] = (35.0 * y[0] - 104.0 * y[1] + 114.0 * y[2] - 56.0 * y[3] + 11.0 * y[4]) / hh
    d[1] = (11.0 * y[0] - 20.0 * y[1] + 6.0 * y[2] + 4.0 * y[3] - y[4]) / hh
    d[-2] = (11.0 * y[-1] - 20.0 * y[-2] + 6.0 * y[-3] + 4.0 * y[-4] - y[-5]) / hh
    d[-1] = (35.0 * y[-1] - 104.0 * y[-2] + 114.0 * y[-3] - 56.0 * y[-4] + 11.0 * y[-5]) / hh
    return d


def _strided(kernel, y: np.ndarray, h: float, stride: int) -> np.ndarray:
    """Apply a stencil kernel on the interleaved stride-subgrids of y.

    Stencil points sit ``stride`` samples apart, which divides the
    amplification of sample-level white noise by stride (first derivative)
    or stride^2 (second derivative) at an O((stride h)^4) truncation cost.
    Sample values themselves are never mixed across subgrids.
    """
    y = np.asarray(y, dtype=float)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if y.size < 5 * stride:
        raise ValueError(f"need at least {5 * stride} samples for stride {stride}")
    if stride == 1:
        return kernel(y, h)
    d = np.empty_like(y)
    for offset in range(stride):
        d[offset::stride] = kernel(y[offset::stride], h * stride)
    return d


def derivative1(y: np.ndarray, h, stride: int = 1) -> np.ndarray:
    """First derivative d/ds of samples with spacing ``h``, 5-point stencils."""
    if np.ndim(h) == 0:
        return _strided(_derivative1_unit, y, h, stride)
    return _strided(_derivative1_unit, y, 1.0, stride) / h


def derivative2(y: np.ndarray, h, stride: int = 1) -> np.ndarray:
    """Second derivative d^2/ds^2 of samples with spacing ``h``, 5-point stencils."""
    if np.ndim(h) == 0:
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
    y = np.asarray(y, dtype=float)
    if np.ndim(h) == 0:
        return h * float(_grid_weights(y.size) @ y)
    return float(_grid_weights(y.size) @ (y * h))


def sample_quadrature_with_error(y: np.ndarray, h) -> tuple[float, float]:
    """Integral plus an error estimate from the stride-2 subgrid.

    The fine and coarse rules are both of high order, so their difference
    is a conservative bound on the quadrature error of the fine result.
    """
    y = np.asarray(y, dtype=float)
    value = sample_quadrature(y, h)
    if y.size >= 5 and (y.size - 1) % 2 == 0:
        coarse = sample_quadrature(y[::2], 2.0 * (h if np.ndim(h) == 0 else h[::2]))
        return value, abs(value - coarse)
    return value, np.nan
