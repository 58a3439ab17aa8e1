"""Surface quantities and energy functionals along profile curves.

The energies have the form

    E_{alpha,beta}(f) = integral of (H^2 + alpha K_bar + beta) dmu
                      = integral of (H^2 + alpha (k - 4 tau^2) nu^2
                                     + beta + alpha tau^2) dmu,

where K_bar is the ambient sectional curvature of the tangent plane and nu
the vertical component of the unit normal.  The canonical coefficient
choice alpha = 1/4, beta = k/4 - tau^2/4 makes every CMC sphere a critical
point, and on rotationally invariant spheres the canonical energy splits
into a nonnegative part that vanishes exactly on CMC spheres plus a
topological part whose integrand is a total derivative with value 4 pi.

All evaluations work on the sample arrays of a profile: arclength
derivatives come from 5-point stencils, integrals from the fixed
sample-quadrature weights, both scaled by the profile's spacing ds/di (a
scalar for samples uniform in arclength, an array otherwise; see
:mod:`.numerics`).  Ratios sin(sigma)/u appearing near the poles
are replaced by their limit dsigma/ds where u is below ``POLE_U``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import GeometryParams
from .numerics import derivative1, derivative2, sample_quadrature, sample_quadrature_with_error
from .profile import Closure, Profile

__all__ = [
    "POLE_U",
    "INTERIOR_MARGIN",
    "FunctionalCoefficients",
    "SurfacePointData",
    "EnergyReport",
    "canonical_coefficients",
    "mean_curvature",
    "nu_on_profile",
    "gauss_curvature_profile",
    "div_nuT_profile",
    "energy",
    "el_residual",
    "max_interior_residual",
    "willmore_relation_check",
    "h_squared_identity_check",
    "second_summand_derivative_check",
    "gauss_bonnet_total",
    "profile_mean_curvature",
    "surface_point_data",
    "residual_trace",
]

# Below this radius the ratio sin(sigma)/u switches to its pole limit
# dsigma/ds (the two agree to first order on any profile through the axis).
POLE_U = 1e-7
# Samples skipped at each end when taking maxima of differentiated
# quantities: the one-sided edge stencils and the 1/u amplification next to
# the poles are excluded there.
INTERIOR_MARGIN = 8
# Stencil points sit this many samples apart.  Profile samples carry
# roundoff-level white noise;
# nested differentiation amplifies it by the inverse cube of the stencil
# spacing, and spacing 4 buys a factor 64 while the O((4h)^4) truncation
# stays far below every tolerance.
FD_STRIDE = 4


@dataclass(frozen=True)
class FunctionalCoefficients:
    """Coefficient pair (alpha, beta) of the generalized Willmore energy."""

    alpha: float
    beta: float

    @classmethod
    def canonical(cls, g: GeometryParams) -> "FunctionalCoefficients":
        return cls(alpha=0.25, beta=0.25 * g.k - 0.25 * g.tau**2)

    @classmethod
    def plain_willmore(cls) -> "FunctionalCoefficients":
        return cls(alpha=1.0, beta=0.0)

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta}


def canonical_coefficients(g: GeometryParams) -> FunctionalCoefficients:
    """Coefficients making CMC spheres critical: alpha = 1/4, beta = k/4 - tau^2/4."""
    return FunctionalCoefficients.canonical(g)


@dataclass(frozen=True)
class SurfacePointData:
    """Pointwise surface quantities at one profile sample."""

    H: float
    K: float
    K_bar: float
    K_e: float
    nu: float
    div_nuT: float
    mu: float


@dataclass(frozen=True)
class EnergyReport:
    """Energy E with its decomposition, the Willmore energy, and the area.

    ``first_summand`` and ``second_summand`` always refer to the canonical
    split of the canonical energy (they are coefficient-independent shape
    integrals); E itself uses the coefficients passed to :func:`energy`.
    """

    E: float
    first_summand: float
    second_summand: float
    willmore_W: float
    area: float
    quadrature_error: float

    def to_dict(self) -> dict:
        return {
            "E": self.E,
            "first_summand": self.first_summand,
            "second_summand": self.second_summand,
            "willmore_W": self.willmore_W,
            "area": self.area,
            "quadrature_error": self.quadrature_error,
        }


# -- pointwise formulas ----------------------------------------------------


def _mean_curvature(k: float, u, sin_sig, sigma_dot, ratio):
    """H = (1/2)(sigma' + sin(sigma)/u - k u sin(sigma)/4).

    The caller supplies ``ratio`` = sin(sigma)/u in the form valid on its
    grid (pole limit, closed form), and sigma' per unit of quotient arclength.
    """
    return 0.5 * (sigma_dot + ratio - 0.25 * k * u * sin_sig)


def _energy_density(g: GeometryParams, coeffs: FunctionalCoefficients, H, nu, mu, jacobian):
    """Integrand of E_{alpha,beta} per unit parameter: (H^2 + alpha K_bar + beta) mu jacobian.

    K_bar = tau^2 + (k - 4 tau^2) nu^2; ``jacobian`` converts quotient
    arclength to the caller's integration variable.
    """
    tau = g.tau
    return (
        H * H
        + coeffs.alpha * ((g.k - 4.0 * tau * tau) * nu * nu)
        + coeffs.beta
        + coeffs.alpha * tau * tau
    ) * mu * jacobian


def _pole_safe_ratio(u, sin_sig, limit, u_min: float = POLE_U):
    """sin(sigma)/u, replaced by its pole limit ``limit`` where u <= ``u_min``."""
    safe_u = np.where(u > u_min, u, 1.0)
    return np.where(u > u_min, sin_sig / safe_u, limit)


def mean_curvature(g: GeometryParams, u, sigma, dsigma_ds):
    """Mean curvature (1/2)(dsigma/ds + (1/u - k u/4) sin(sigma)); needs u > 0."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0):
        raise ValueError("mean_curvature requires u > 0; the axis limit is the caller's job")
    sin_sig = np.sin(np.asarray(sigma, dtype=float))
    out = _mean_curvature(g.k, u_arr, sin_sig, np.asarray(dsigma_ds, dtype=float), sin_sig / u_arr)
    return out if out.ndim else float(out)


def nu_on_profile(g: GeometryParams, u, sigma):
    """Vertical component of the unit normal: cos(sigma)/sqrt(1 + tau^2 u^2)."""
    u_arr = np.asarray(u, dtype=float)
    out = np.cos(np.asarray(sigma, dtype=float)) / np.sqrt(1.0 + g.tau**2 * u_arr * u_arr)
    return out if out.ndim else float(out)


def h_squared_identity_check(g: GeometryParams, u, sigma, dsigma_ds):
    """Residual of the square completion used by the energy decomposition.

    H^2 equals (1/4)(sigma' - (1/u + k u/4) sin sigma)^2
    + sigma' sin(sigma)/u - k sin^2(sigma)/4 as an exact algebraic identity;
    the return value is the absolute difference of the two sides.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0):
        raise ValueError("identity check requires u > 0")
    sig = np.asarray(sigma, dtype=float)
    sd = np.asarray(dsigma_ds, dtype=float)
    h = mean_curvature(g, u_arr, sig, sd)
    sin_sig = np.sin(sig)
    rhs = (
        0.25 * (sd - (1.0 / u_arr + 0.25 * g.k * u_arr) * sin_sig) ** 2
        + sd * sin_sig / u_arr
        - 0.25 * g.k * sin_sig * sin_sig
    )
    out = np.abs(h * h - rhs)
    return out if out.ndim else float(out)


# -- per-profile field assembly ---------------------------------------------


class _ProfileFields:
    """Arrays of derived quantities along a profile's samples.

    Two flavors of the turning rate coexist.  ``sigma_dot`` (stencil
    spacing 1) feeds the energy integrands and the pointwise mean curvature
    ``H``: single differentiation barely amplifies sample noise and the
    truncation error is smallest.  The residual path (``gauss_curvature``,
    ``div_nuT``, ``laplacian_H`` and the matching ``H_smooth``) uses
    spacing ``FD_STRIDE``, since nesting stencils turns sample-level
    roundoff into the dominant error otherwise.
    """

    def __init__(self, profile: Profile):
        g = profile.geometry
        self.profile = profile
        self.g = g
        self.h = profile.spacing
        u = profile.u
        sig = profile.sigma
        k, tau = g.k, g.tau

        self.u = u
        self.sigma = sig
        self.A = np.sqrt(1.0 + tau * tau * u * u)
        self.B = 1.0 + 0.25 * k * u * u
        self.mu = u * self.A / self.B
        self.sin = np.sin(sig)
        self.cos = np.cos(sig)
        self.u_dot = self.B * self.cos  # definition of sigma, exact on samples
        self.nu = self.cos / self.A
        self.K_bar = tau * tau + (k - 4.0 * tau * tau) * self.nu * self.nu

    def _mean_curvature_from(self, sigma_dot: np.ndarray) -> np.ndarray:
        # sin(sigma)/u takes the pole limit sigma'.
        ratio = _pole_safe_ratio(self.u, self.sin, sigma_dot)
        return _mean_curvature(self.g.k, self.u, self.sin, sigma_dot, ratio)

    # Stencil quantities are built lazily: the energy path reads only the
    # spacing-1 ones, the residual path only the spacing-``FD_STRIDE`` ones.

    @cached_property
    def sigma_dot(self) -> np.ndarray:
        return derivative1(self.sigma, self.h)

    @cached_property
    def ratio(self) -> np.ndarray:
        return _pole_safe_ratio(self.u, self.sin, self.sigma_dot)

    @cached_property
    def H(self) -> np.ndarray:
        return _mean_curvature(self.g.k, self.u, self.sin, self.sigma_dot, self.ratio)

    @cached_property
    def H_smooth(self) -> np.ndarray:
        return self._mean_curvature_from(derivative1(self.sigma, self.h, FD_STRIDE))

    def _pole_extrapolated(self, values: np.ndarray, denominator: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        inner = slice(1, -1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[inner] = values[inner] / denominator[inner]
        # Pole samples by quadratic one-sided extrapolation.
        out[0] = 3.0 * out[1] - 3.0 * out[2] + out[3]
        out[-1] = 3.0 * out[-2] - 3.0 * out[-3] + out[-4]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = 0.0
        return out

    def gauss_curvature(self) -> np.ndarray:
        return self._pole_extrapolated(-derivative2(self.mu, self.h, FD_STRIDE), self.mu)

    def div_nuT(self) -> np.ndarray:
        D = self.u * self.cos * self.sin / (self.B * self.A)
        return self._pole_extrapolated(derivative1(D, self.h, FD_STRIDE), self.mu)

    def laplacian_H(self, stride: int = FD_STRIDE) -> np.ndarray:
        """Laplace-Beltrami of H: H'' + (mu'/mu) H' on the warped metric.

        mu'/mu = (u dln(mu)/du) u'/u has a bounded prefactor; the remaining
        H'/u pole factor is taken as 0 at the pole samples, where H' itself
        vanishes by symmetry.
        """
        u, A, B = self.u, self.A, self.B
        tau, k = self.g.tau, self.g.k
        if stride == FD_STRIDE:
            H = self.H_smooth
        else:
            H = self._mean_curvature_from(derivative1(self.sigma, self.h, stride))
        Hd = derivative1(H, self.h, stride)
        Hdd = derivative2(H, self.h, stride)
        t = 1.0 + tau * tau * u * u / (A * A) - 0.5 * k * u * u / B
        safe_u = np.where(u > POLE_U, u, 1.0)
        hd_over_u = np.where(u > POLE_U, Hd / safe_u, 0.0)
        return Hdd + t * self.u_dot * hd_over_u


def profile_mean_curvature(profile: Profile) -> np.ndarray:
    """Pointwise mean curvature along the samples (sigma' by stencils)."""
    return _ProfileFields(profile).H


def gauss_curvature_profile(profile: Profile, index: int | None = None):
    """Intrinsic Gauss curvature from the warped-metric second derivative.

    K = -(mu'')/mu with mu the orbit factor along the profile.  Pole samples
    are filled by one-sided extrapolation; prefer interior indices.
    """
    K = _ProfileFields(profile).gauss_curvature()
    return K if index is None else float(K[index])


def div_nuT_profile(profile: Profile, index: int | None = None):
    """Divergence of nu times the tangential part of the vertical field."""
    d = _ProfileFields(profile).div_nuT()
    return d if index is None else float(d[index])


def surface_point_data(profile: Profile, index: int) -> SurfacePointData:
    """All pointwise quantities at one sample (extrinsic K_e = K - K_bar)."""
    f = _ProfileFields(profile)
    K = float(f.gauss_curvature()[index])
    K_bar = float(f.K_bar[index])
    return SurfacePointData(
        H=float(f.H[index]),
        K=K,
        K_bar=K_bar,
        K_e=K - K_bar,
        nu=float(f.nu[index]),
        div_nuT=float(f.div_nuT()[index]),
        mu=float(f.mu[index]),
    )


# -- integral quantities -----------------------------------------------------


def _require_closed(profile: Profile) -> None:
    if profile.closure is not Closure.CLOSED_SPHERE:
        raise ValueError("operation requires a ClosedSphere profile; got an open profile")


def energy(profile: Profile, coeffs: FunctionalCoefficients | None = None) -> EnergyReport:
    """Evaluate E_{alpha,beta}, its canonical decomposition, W, and the area.

    The reported ``quadrature_error`` is the stride-2 Richardson estimate
    for the E integral.
    """
    _require_closed(profile)
    f = _ProfileFields(profile)
    g = profile.geometry
    if coeffs is None:
        coeffs = canonical_coefficients(g)
    k, tau = g.k, g.tau
    h = f.h

    e_value, e_err = sample_quadrature_with_error(
        _energy_density(g, coeffs, f.H, f.nu, f.mu, 1.0), h
    )

    # Canonical split: nonnegative square plus the topological integrand.
    square = f.sigma_dot - f.ratio - 0.25 * k * f.u * f.sin
    first = 0.25 * square * square * f.mu
    # (sigma' sin/u) mu cancels the 1/u against mu = u A / B.
    second = (
        f.sigma_dot * f.sin * f.A / f.B
        - 0.25 * k * f.sin * f.sin * f.mu
        + (0.25 * k - tau * tau) * (f.cos * f.cos / (f.A * f.A)) * f.mu
        + 0.25 * k * f.mu
    )
    willmore = (f.H * f.H + f.K_bar) * f.mu

    two_pi = 2.0 * math.pi
    return EnergyReport(
        E=two_pi * e_value,
        first_summand=two_pi * sample_quadrature(first, h),
        second_summand=two_pi * sample_quadrature(second, h),
        willmore_W=two_pi * sample_quadrature(willmore, h),
        area=two_pi * sample_quadrature(f.mu, h),
        quadrature_error=two_pi * e_err,
    )


def el_residual(
    profile: Profile,
    coeffs: FunctionalCoefficients,
    index: int | None = None,
):
    """Euler-Lagrange residual of E_{alpha,beta} at profile samples.

    Evaluates Delta H + H (2 H^2 - 2 K + (1 - 2 alpha)(k - 4 tau^2) nu^2
    + k - 2 beta - 2 alpha tau^2) + 2 alpha (k - 4 tau^2) div(nu T), with H
    computed pointwise from the samples (never assumed constant) and Delta H
    by the rotationally invariant reduction (mu H')'/mu.  The coefficient
    2 alpha tau^2 is forced by eliminating the extrinsic curvature through
    the Gauss equation; with alpha tau^2 instead, the expression picks up a
    spurious H alpha tau^2 and no longer vanishes on CMC spheres.

    With ``index`` given it must lie at least ``INTERIOR_MARGIN`` samples
    from either pole; without it the full array is returned, edge values
    included but unreliable.
    """
    _require_closed(profile)
    f = _ProfileFields(profile)
    g = profile.geometry
    k, tau = g.k, g.tau
    H = f.H_smooth
    res = (
        f.laplacian_H()
        + H
        * (
            2.0 * H * H
            - 2.0 * f.gauss_curvature()
            + (1.0 - 2.0 * coeffs.alpha) * (k - 4.0 * tau * tau) * f.nu * f.nu
            + k
            - 2.0 * coeffs.beta
            - 2.0 * coeffs.alpha * tau * tau
        )
        + 2.0 * coeffs.alpha * (k - 4.0 * tau * tau) * f.div_nuT()
    )
    if index is None:
        return res
    n = len(profile)
    if not (INTERIOR_MARGIN <= index < n - INTERIOR_MARGIN):
        raise ValueError(
            f"index {index} is a boundary sample; interior is "
            f"[{INTERIOR_MARGIN}, {n - INTERIOR_MARGIN})"
        )
    return float(res[index])


def max_interior_residual(
    profile: Profile,
    coeffs: FunctionalCoefficients,
    margin: int = INTERIOR_MARGIN,
) -> float:
    """Maximum absolute Euler-Lagrange residual over interior samples."""
    res = el_residual(profile, coeffs)
    return float(np.max(np.abs(res[margin:-margin])))


def willmore_relation_check(profile: Profile) -> float:
    """Gap in the identity E = W + integral of (-3/4 K_bar + k/4 - tau^2/4) dmu.

    An algebraic identity between quadratures over the same samples, so the
    result is roundoff-small for any closed profile.
    """
    _require_closed(profile)
    f = _ProfileFields(profile)
    g = profile.geometry
    report = energy(profile, canonical_coefficients(g))
    correction = (-0.75 * f.K_bar + 0.25 * g.k - 0.25 * g.tau**2) * f.mu
    corr = 2.0 * math.pi * sample_quadrature(correction, f.h)
    return abs(report.E - (report.willmore_W + corr))


def second_summand_derivative_check(profile: Profile) -> float:
    """Verify the topological integrand is the derivative of its potential.

    Compares the expanded integrand of the second summand (written with
    u-derivatives) against the stencil derivative of
    -u' sqrt(1 + tau^2 u^2) / (1 + k u^2/4)^2, over interior samples.
    """
    _require_closed(profile)
    f = _ProfileFields(profile)
    g = profile.geometry
    k, tau = g.k, g.tau
    u, A, B = f.u, f.A, f.B
    u_dot = f.u_dot
    u_ddot = derivative1(u_dot, f.h)
    integrand = -u_ddot * A / (B * B) + (
        u * u_dot * u_dot / (B * B * B)
    ) * (0.75 * k * A + (0.25 * k - tau * tau) / A)
    bracket = -u_dot * A / (B * B)
    fd = derivative1(bracket, f.h)
    m = INTERIOR_MARGIN
    return float(np.max(np.abs(integrand[m:-m] - fd[m:-m])))


def gauss_bonnet_total(profile: Profile) -> float:
    """Total curvature integral of K dmu; 4 pi on any closed sphere.

    Uses K mu = -(mu)'' directly, which is finite through the poles.
    """
    _require_closed(profile)
    f = _ProfileFields(profile)
    return -2.0 * math.pi * sample_quadrature(derivative2(f.mu, f.h, FD_STRIDE), f.h)


def residual_trace(profile: Profile, coeffs: FunctionalCoefficients) -> dict:
    """Per-sample arrays for exporting residual diagnostics."""
    f = _ProfileFields(profile)
    return {
        "s": profile.s,
        "u": profile.u,
        "sigma": profile.sigma,
        "H": f.H,
        "K": f.gauss_curvature(),
        "nu": f.nu,
        "residual": el_residual(profile, coeffs),
    }
