"""The sphere generators' Gauss panels as 2-D node arrays, the oracle of their panel sums.

``generate_cmc_sphere`` and ``sphere_from_modes`` evaluate their 8-point
Gauss panels left of the equator only and repeat the panel integrals in
mirror order right of it.  This module evaluates the same integrands on
(panels, 8) arrays of the nodes, sums each row with ``np.sum(axis=1)``
and mirrors the sums as well; the tests require the generators' samples to
equal these bit for bit.  With ``mirror=False`` every panel of the full
grid is evaluated and summed instead, the reference the mirrored sums
must stay close to.  :func:`family_half_rule` is the family energy's rule
as the package first built it, from the panels of the whole of [0, pi].
"""

import math

import numpy as np
from numpy.polynomial import chebyshev as cheb

from thurston_willmore.profile import _mode_basis

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(8)


def panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each interval of ``edges``, as (intervals, 8) arrays."""
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (b - a) * (_NODES[None, :] + 1.0) + a
    weights = 0.5 * (b - a) * _WEIGHTS[None, :]
    return nodes, weights


def running_sum(panel_sums: np.ndarray, mirror: bool) -> np.ndarray:
    """Running sum from 0 of ``panel_sums``, followed by the same sums in mirror order if ``mirror``."""
    if mirror:
        panel_sums = np.concatenate((panel_sums, panel_sums[::-1]))
    return np.concatenate(([0.0], np.cumsum(panel_sums)))


def cmc_sphere_samples(
    k: float, tau: float, H: float, n_samples: int, mirror: bool = True
) -> tuple[np.ndarray, ...]:
    """s, u, v and sigma of the closed-form CMC sphere of mean curvature |H|.

    x = w s is uniform on [0, pi].  At the Gauss nodes of x, sin(sigma) is
    a/sqrt(a^2 + b^2) with a = H sin x and b = w cos x, and the weights in
    s are those in x divided by w, as the generator computes them.
    """
    h_abs = abs(H)
    w = math.sqrt(h_abs * h_abs + 0.25 * k)
    x = np.linspace(0.0, math.pi, n_samples)
    sigma = np.arctan2(h_abs * np.sin(x), w * np.cos(x))
    sigma[-1] = math.pi
    u = np.sin(sigma) / h_abs
    u[0] = 0.0
    u[-1] = 0.0
    nodes, weights = panel_nodes(x[: n_samples // 2 + 1] if mirror else x)
    a = h_abs * np.sin(nodes)
    b = w * np.cos(nodes)
    sin_nodes = a / np.sqrt(a * a + b * b)
    u_nodes = sin_nodes / h_abs
    dv = np.sum(np.sqrt(1.0 + tau**2 * u_nodes * u_nodes) * sin_nodes * weights / w, axis=1)
    return x / w, u, running_sum(dv, mirror), sigma


def cmc_sphere_direct_heights(k: float, tau: float, H: float, n_samples: int) -> np.ndarray:
    """v of the CMC sphere with every node value from sin(atan2(H sin(w s), w cos(w s)))."""
    h_abs = abs(H)
    w = math.sqrt(h_abs * h_abs + 0.25 * k)
    nodes, weights = panel_nodes(np.linspace(0.0, math.pi / w, n_samples))
    sin_nodes = np.sin(np.arctan2(h_abs * np.sin(w * nodes), w * np.cos(w * nodes)))
    u_nodes = sin_nodes / h_abs
    dv = np.sum(np.sqrt(1.0 + tau**2 * u_nodes * u_nodes) * sin_nodes * weights, axis=1)
    return np.concatenate(([0.0], np.cumsum(dv)))


def mode_sphere_samples(
    k: float, tau: float, H: float, p: np.ndarray, n: np.ndarray, n_samples: int,
    mirror: bool = True,
) -> tuple[np.ndarray, ...]:
    """s, u, v, sigma and ds/dsigma of the mode-family sphere.

    ``p`` and ``n`` are the Chebyshev series of P and N in t = cos(2 sigma).
    """
    h_abs = abs(H)

    def radius_and_speed(sig):
        sin_sig = np.sin(sig)
        t = np.cos(2.0 * sig)
        u = sin_sig * cheb.chebval(t, p) / h_abs
        return sin_sig, u, cheb.chebval(t, n) / (h_abs * (1.0 + 0.25 * k * u * u))

    sigma = np.linspace(0.0, math.pi, n_samples)
    nodes, weights = panel_nodes(sigma[: n_samples // 2 + 1] if mirror else sigma)
    sin_nodes, u_nodes, ds_nodes = radius_and_speed(nodes)
    dv_nodes = np.sqrt(1.0 + tau**2 * u_nodes * u_nodes) * sin_nodes * ds_nodes
    s = running_sum(np.sum(ds_nodes * weights, axis=1), mirror)
    v = running_sum(np.sum(dv_nodes * weights, axis=1), mirror)
    _, u, ds_dsigma = radius_and_speed(sigma)
    u[0] = 0.0
    u[-1] = 0.0
    return s, u, v, sigma, ds_dsigma


def family_half_rule(panels: int, dims: int) -> tuple[np.ndarray, ...]:
    """The family energy's Gauss rule from ``panels`` 8-point panels over all of [0, pi].

    The first half of the raveled nodes, with doubled weights: the energy
    on this rule is 2 pi times the weighted sum.  Returns the weights,
    sin, cos and t = cos(2 sigma) at the nodes, and the mode terms of P
    and of N at t, as the package's ``_family_half_rule`` does.
    """
    sig, weights = (
        a.ravel()[: a.size // 2] for a in panel_nodes(np.linspace(0.0, math.pi, panels + 1))
    )
    modulation, numerator, _, _ = _mode_basis(dims)
    t = np.cos(2.0 * sig)
    return (
        2.0 * weights,
        np.sin(sig),
        np.cos(sig),
        t,
        cheb.chebval(t, modulation.T),
        cheb.chebval(t, numerator.T),
    )
