"""Ambient geometry of the homogeneous Riemannian 3-manifolds E(k, tau).

The two-parameter family E(k, tau) collects the Thurston model geometries
with 4-dimensional isometry group: Nil (k = 0, tau != 0), the universal
cover of SL(2,R) (k < 0, tau != 0), H^2 x R (k = -1, tau = 0), S^2 x R
minus one fibre (k = 1, tau = 0) and covers of the Berger spheres
(k > 0, tau != 0).  The manifold fibres over a surface of constant
curvature k, with bundle curvature tau; the unit vertical field along the
fibres is Killing.

This module holds the parameter pair, the cylindrical form of the ambient
metric, the curvature quantities entering the surface functionals
(sectional curvature of a tangent plane, Ricci curvature in the normal
direction), the metric on the quotient half-plane by the rotation group,
and the circumference factor of a rotation orbit.  Everything here is a
closed-form, pure function; all array arguments broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

__all__ = [
    "NU_TOLERANCE",
    "GeometryParams",
    "CylindricalPoint",
    "DomainError",
    "sectional_curvature",
    "ricci_normal",
    "ambient_metric_cylindrical",
    "quotient_metric",
    "orbit_volume_factor",
]

# Slack on the |nu| <= 1 guard: nu is a scalar product of unit vectors, but
# values produced by ODE output or quadrature may overshoot by roundoff.
NU_TOLERANCE = 1e-9


class DomainError(ValueError):
    """A radial coordinate lies outside [0, domain_radius)."""


def _record_dict(record) -> dict:
    """JSON form of a record: the ``to_dict`` of the geometry, the coefficients and every report.

    Its init and repr fields by name; a record-valued field contributes its
    own fields, records in a tuple become dicts, tuples become lists and
    dict keys pass through ``str``.
    """
    out = {}
    for f in fields(record):
        if f.init and f.repr:
            value = getattr(record, f.name)
            if is_dataclass(value):
                out.update(_record_dict(value))
            else:
                out[f.name] = _json_value(value)
    return out


def _json_value(value):
    if is_dataclass(value):
        return _record_dict(value)
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class GeometryParams:
    """The pair (k, tau): base curvature and bundle curvature.

    For k < 0 the underlying space is a disc bundle: the radial coordinate
    is confined to [0, R) with R = 2/sqrt(-k).  For k >= 0 the radius is
    unbounded and ``domain_radius`` is ``math.inf`` (an explicit infinity,
    never a large sentinel).
    """

    k: float
    tau: float
    domain_radius: float = field(init=False)
    _k_bar_slope: float = field(init=False, repr=False, compare=False)  # k - 4 tau^2, see _k_bar

    def __post_init__(self):
        k = float(self.k)
        tau = float(self.tau)
        if not (math.isfinite(k) and math.isfinite(tau)):
            raise ValueError(f"k and tau must be finite, got k={self.k}, tau={self.tau}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "tau", tau)
        radius = 2.0 / math.sqrt(-k) if k < 0 else math.inf
        object.__setattr__(self, "domain_radius", radius)
        object.__setattr__(self, "_k_bar_slope", k - 4.0 * tau * tau)

    to_dict = _record_dict

    @classmethod
    def from_dict(cls, data: dict) -> "GeometryParams":
        return cls(k=float(data["k"]), tau=float(data["tau"]))


@dataclass(frozen=True)
class CylindricalPoint:
    """A point (rho, theta, z) in cylindrical coordinates around the axis."""

    rho: float
    theta: float
    z: float

    def __post_init__(self):
        if not self.rho >= 0.0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")


def _check_nu(nu) -> np.ndarray:
    nu = np.asarray(nu, dtype=float)
    if np.any(np.abs(nu) > 1.0 + NU_TOLERANCE):
        raise ValueError(
            f"|nu| must not exceed 1 (tolerance {NU_TOLERANCE:g}); got max {np.max(np.abs(nu))}"
        )
    return nu


def _check_radius(g: GeometryParams, u, *, name: str = "u") -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0):
        raise DomainError(f"{name} must be nonnegative, got min {np.min(u)}")
    if np.any(u >= g.domain_radius):
        raise DomainError(
            f"{name} must stay below the domain radius {g.domain_radius}, got max {np.max(u)}"
        )
    return u


# The orbit factors of the quotient metric du^2/B^2 + dv^2/A^2, on floats and arrays alike.
def _a_squared(g: GeometryParams, u):
    return 1.0 + g.tau * g.tau * u * u


def _b_factor(g: GeometryParams, u):
    return 1.0 + 0.25 * g.k * u * u


def _k_bar(g: GeometryParams, nu):
    """Sectional curvature tau^2 + (k - 4 tau^2) nu^2, unchecked."""
    return g.tau * g.tau + g._k_bar_slope * nu * nu


def sectional_curvature(g: GeometryParams, nu):
    """Sectional curvature of a 2-plane with vertical normal component nu.

    nu is the scalar product of a unit normal of the plane with the unit
    vertical Killing field.  The curvature is tau^2 + (k - 4 tau^2) nu^2;
    when k = 4 tau^2 (a space form) the nu-dependence cancels exactly.
    """
    out = _k_bar(g, _check_nu(nu))
    return out if out.ndim else float(out)


def ricci_normal(g: GeometryParams, nu):
    """Ricci curvature Ric(n, n) for a unit vector with vertical component nu.

    Equals the sum of the sectional curvatures of two orthogonal planes
    containing n, which gives k - 2 tau^2 - (k - 4 tau^2) nu^2.
    """
    nu = _check_nu(nu)
    out = g.k - 2.0 * g.tau * g.tau - g._k_bar_slope * nu * nu
    return out if out.ndim else float(out)


def ambient_metric_cylindrical(g: GeometryParams, p: CylindricalPoint) -> np.ndarray:
    """Coefficient matrix of the ambient metric at p, in (rho, theta, z) order.

    The matrix is symmetric positive definite for rho inside the domain;
    the theta-z coupling carries the bundle curvature.
    """
    rho = float(_check_radius(g, p.rho, name="rho"))
    w = _b_factor(g, rho)
    g_rr = 1.0 / (w * w)
    g_tt = (rho * rho + g.tau * g.tau * rho**4) / (w * w)
    g_tz = -g.tau * rho * rho / w
    return np.array(
        [
            [g_rr, 0.0, 0.0],
            [0.0, g_tt, g_tz],
            [0.0, g_tz, 1.0],
        ]
    )


def quotient_metric(g: GeometryParams, u):
    """Diagonal coefficients (g_uu, g_vv) of the metric on the orbit quotient.

    The quotient of E(k, tau) by the rotation group is the half-plane
    {u in [0, R), v in R} carrying 1/(1 + k u^2/4)^2 du^2 + 1/(1 + tau^2 u^2) dv^2.
    """
    u = _check_radius(g, u)
    g_uu = 1.0 / _b_factor(g, u) ** 2
    g_vv = 1.0 / _a_squared(g, u)
    if g_uu.ndim:
        return g_uu, g_vv
    return float(g_uu), float(g_vv)


def orbit_volume_factor(g: GeometryParams, u):
    """Length factor mu(u) of the rotation orbit through radius u.

    mu = u sqrt(1 + tau^2 u^2) / (1 + k u^2/4).  It vanishes at the axis and
    is the density converting profile-arclength integrals into surface
    integrals.
    """
    u = _check_radius(g, u)
    out = u * np.sqrt(_a_squared(g, u)) / _b_factor(g, u)
    return out if out.ndim else float(out)
