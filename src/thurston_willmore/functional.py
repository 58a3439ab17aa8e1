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
derivatives come from 5-point stencils, integrals from fixed weights on
the samples, both scaled by the profile's spacing ds/di (a scalar for
samples uniform in arclength, an array otherwise; see :mod:`.numerics`).
The weights are one rule per parametrization: Newton-Cotes panels on
arclength samples, the sine rule on turning-angle samples, whose
integrands are odd periodic functions of sigma.  Ratios sin(sigma)/u
appearing near the poles are replaced by their limit dsigma/ds where u is
at most ``_POLE_CUT`` max(u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import GeometryParams, _a_squared, _b_factor, _k_bar, _record_dict
from .numerics import (
    derivative1,
    derivative2,
    sample_quadrature,
    sample_quadrature_with_error,
    sine_quadrature,
    sine_quadrature_with_tail,
)
from .profile import TURNING_ANGLE, Closure, Profile, _check_samples, _grid_rates

__all__ = [
    "INTERIOR_MARGIN",
    "FunctionalCoefficients",
    "EnergyReport",
    "canonical_coefficients",
    "mean_curvature",
    "nu_on_profile",
    "surface_fields",
    "energy",
    "el_residual",
    "max_interior_residual",
    "willmore_relation_check",
    "h_squared_identity_check",
    "second_summand_derivative_check",
    "gauss_bonnet_total",
]

# Where u is at most this fraction of its largest value, the ratio sin(sigma)/u
# switches to its pole limit dsigma/ds (the two agree to first order on any
# profile through the axis): a cut relative to the sphere's size.
_POLE_CUT = 1e-7
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
# The fewest samples the residual path takes: the least odd count (odd, so
# that the equator is a sample) with room for the spacing-FD_STRIDE
# stencils, which need 5 * FD_STRIDE samples.
LEAST_SAMPLES = 5 * FD_STRIDE + 1


@dataclass(frozen=True)
class FunctionalCoefficients:
    """Coefficient pair (alpha, beta) of the generalized Willmore energy."""

    alpha: float
    beta: float

    @classmethod
    def plain_willmore(cls) -> "FunctionalCoefficients":
        return cls(alpha=1.0, beta=0.0)

    to_dict = _record_dict


def canonical_coefficients(g: GeometryParams) -> FunctionalCoefficients:
    """Coefficients making CMC spheres critical: alpha = 1/4, beta = k/4 - tau^2/4."""
    return FunctionalCoefficients(alpha=0.25, beta=0.25 * g.k - 0.25 * g.tau * g.tau)


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

    to_dict = _record_dict


# -- pointwise formulas ----------------------------------------------------


def _mean_curvature(k: float, u, sin_sig, sigma_dot, ratio):
    """H = (1/2)(sigma' + sin(sigma)/u - k u sin(sigma)/4).

    The caller supplies ``ratio`` = sin(sigma)/u in the form valid on its
    grid (pole limit, closed form), and sigma' per unit of quotient arclength.
    """
    return 0.5 * (sigma_dot + ratio - 0.25 * k * u * sin_sig)


def _energy_weight(g: GeometryParams, coeffs: FunctionalCoefficients, H, nu):
    """The weight H^2 + alpha K_bar + beta of E_{alpha,beta}, K_bar = tau^2 + (k - 4 tau^2) nu^2."""
    return (
        H * H
        + coeffs.alpha * (g._k_bar_slope * nu * nu)
        + coeffs.beta
        + coeffs.alpha * g.tau * g.tau
    )


def _pole_cut(u):
    """The off-pole mask u > ``_POLE_CUT`` max(u), and u there (1.0 elsewhere) as denominator."""
    off_pole = u > _POLE_CUT * u.max()
    return off_pole, np.where(off_pole, u, 1.0)


def _pole_safe_ratio(cut, numerator, limit):
    """numerator/u off the poles of ``cut`` (:func:`_pole_cut`), their limit ``limit`` at them."""
    return np.where(cut[0], numerator / cut[1], limit)


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
    out = np.cos(np.asarray(sigma, dtype=float)) / np.sqrt(_a_squared(g, u_arr))
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
    """Arrays of derived quantities along samples of spacing ``h``: :meth:`of` a profile's.

    Two flavors of the turning rate coexist.  ``sigma_dot`` (stencil
    spacing 1; a caller that holds it sets it) feeds the energy integrands
    and the pointwise mean curvature ``H``: single differentiation barely
    amplifies sample noise and the truncation error is smallest.  The
    residual path (``gauss_curvature``, ``div_nuT``, ``laplacian_H`` and the
    matching ``H_smooth``) uses spacing ``FD_STRIDE``, since nesting
    stencils turns sample-level roundoff into the dominant error otherwise.

    A suite call builds one set per sphere and hands it to :func:`energy`
    and :func:`max_interior_residual` as ``_fields``.  Nothing caches it: it
    dies with the call that built it.
    """

    def __init__(self, g: GeometryParams, u, sigma, h, sin_sig, cos_sig):
        self.g, self.h, self.u, self.sigma = g, h, u, sigma
        self.A = np.sqrt(_a_squared(g, u))
        self.B = _b_factor(g, u)
        self.mu = u * self.A / self.B
        self.sin, self.cos = sin_sig, cos_sig
        self.nu = cos_sig / self.A

    @classmethod
    def of(cls, profile: Profile) -> "_ProfileFields":
        sig = profile.sigma
        return cls(profile.geometry, profile.u, sig, profile.spacing, np.sin(sig), np.cos(sig))

    @cached_property
    def K_bar(self) -> np.ndarray:
        return _k_bar(self.g, self.nu)

    # Stencil quantities are built lazily: the energy path reads only the
    # spacing-1 ones, the residual path only the spacing-``FD_STRIDE`` ones.

    @cached_property
    def sigma_dot(self) -> np.ndarray:
        return derivative1(self.sigma, self.h)

    @cached_property
    def cut(self) -> tuple:
        return _pole_cut(self.u)

    @cached_property
    def ratio(self) -> np.ndarray:
        return _pole_safe_ratio(self.cut, self.sin, self.sigma_dot)

    @cached_property
    def H(self) -> np.ndarray:
        return _mean_curvature(self.g.k, self.u, self.sin, self.sigma_dot, self.ratio)

    def strided(self, derivative, y: np.ndarray) -> np.ndarray:
        """``derivative`` of ``y`` by the spacing-``FD_STRIDE`` stencils, after the one floor check."""
        if (n := self.u.size) < 5 * FD_STRIDE:
            raise ValueError(
                f"profile has {n} samples; K and the EL residual need at least {5 * FD_STRIDE}"
            )
        return derivative(y, self.h, FD_STRIDE)

    @cached_property
    def H_smooth(self) -> np.ndarray:
        sigma_dot = self.strided(derivative1, self.sigma)
        # sin(sigma)/u takes the pole limit sigma'.
        ratio = _pole_safe_ratio(self.cut, self.sin, sigma_dot)
        return _mean_curvature(self.g.k, self.u, self.sin, sigma_dot, ratio)

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
        return self._pole_extrapolated(-self.strided(derivative2, self.mu), self.mu)

    def div_nuT(self) -> np.ndarray:
        D = self.u * self.cos * self.sin / (self.B * self.A)
        return self._pole_extrapolated(self.strided(derivative1, D), self.mu)

    def laplacian_H(self) -> np.ndarray:
        """Laplace-Beltrami of H: H'' + (mu'/mu) H' on the warped metric.

        mu'/mu = (u dln(mu)/du) u'/u has a bounded prefactor; the remaining
        H'/u pole factor is taken as 0 at the pole samples, where H' itself
        vanishes by symmetry.
        """
        u, A, B = self.u, self.A, self.B
        tau, k = self.g.tau, self.g.k
        H = self.H_smooth
        Hd = self.strided(derivative1, H)
        Hdd = self.strided(derivative2, H)
        t = 1.0 + tau * tau * u * u / (A * A) - 0.5 * k * u * u / B
        return Hdd + t * (B * self.cos) * _pole_safe_ratio(self.cut, Hd, 0.0)  # t u' H'/u


def surface_fields(profile: Profile) -> dict[str, np.ndarray]:
    """Per-sample surface quantities along a profile, open or closed.

    Keys: ``H`` (mean curvature, sigma' by stencils), ``K`` (intrinsic
    Gauss curvature -mu''/mu), ``K_bar`` (ambient sectional curvature of
    the tangent plane), ``nu`` (vertical normal component), ``div_nuT``
    (divergence of nu times the tangential part of the vertical field) and
    ``mu`` (orbit factor).  The extrinsic curvature is ``K - K_bar``.
    K and div_nuT come from spacing-``FD_STRIDE`` stencils, so the profile
    needs at least ``5 * FD_STRIDE`` (20) samples.  Their pole samples are
    extrapolated: read edge values ``INTERIOR_MARGIN`` samples off each pole.
    """
    f = _ProfileFields.of(profile)
    return {
        "H": f.H,
        "K": f.gauss_curvature(),
        "K_bar": f.K_bar,
        "nu": f.nu,
        "div_nuT": f.div_nuT(),
        "mu": f.mu,
    }


# -- integral quantities -----------------------------------------------------


def _require_closed(profile: Profile) -> None:
    if profile.closure is not Closure.CLOSED_SPHERE:
        raise ValueError("operation requires a ClosedSphere profile; got an open profile")


def _rules(profile: Profile) -> tuple:
    """The profile's quadrature and its quadrature with an error estimate.

    The sine rule and its coefficient tail on turning-angle samples, the
    Newton-Cotes panels and their stride-2 gap on arclength samples.
    """
    if profile.parametrization == TURNING_ANGLE:
        return sine_quadrature, sine_quadrature_with_tail
    return sample_quadrature, sample_quadrature_with_error


def _energy_densities(f: _ProfileFields, coeffs: FunctionalCoefficients) -> tuple:
    """The integrands of E_{alpha,beta} and of the canonical second summand, per unit arclength."""
    k = f.g.k
    # (sigma' sin/u) mu cancels the 1/u against mu = u A / B.
    second = (
        f.sigma_dot * f.sin * f.A / f.B
        - 0.25 * k * f.sin * f.sin * f.mu
        + 0.25 * f.g._k_bar_slope * (f.cos * f.cos / (f.A * f.A)) * f.mu
        + 0.25 * k * f.mu
    )
    return _energy_weight(f.g, coeffs, f.H, f.nu) * f.mu, second


def energy(
    profile: Profile,
    coeffs: FunctionalCoefficients | None = None,
    *,
    _fields: _ProfileFields | None = None,
) -> EnergyReport:
    """Evaluate E_{alpha,beta}, its canonical decomposition, W, and the area.

    Every integral takes the rule of the profile's parametrization
    (:func:`_rules`).  The reported ``quadrature_error`` is that rule's
    estimate for the E integral: the tail of the sine coefficients on
    turning-angle samples, the stride-2 Richardson gap on arclength ones.
    ``_fields``, the caller's field set of this same profile, spares
    building one; the value is the same bit for bit.
    """
    _require_closed(profile)
    f = _fields or _ProfileFields.of(profile)
    if coeffs is None:
        coeffs = canonical_coefficients(profile.geometry)
    h = f.h
    quadrature, with_error = _rules(profile)
    density, second = _energy_densities(f, coeffs)
    e_value, e_err = with_error(density, h)

    # Canonical split: nonnegative square plus the topological integrand.
    square = f.sigma_dot - f.ratio - 0.25 * f.g.k * f.u * f.sin
    first = 0.25 * square * square * f.mu
    willmore = (f.H * f.H + f.K_bar) * f.mu

    two_pi = 2.0 * math.pi
    return EnergyReport(
        E=two_pi * e_value,
        first_summand=two_pi * quadrature(first, h),
        second_summand=two_pi * quadrature(second, h),
        willmore_W=two_pi * quadrature(willmore, h),
        area=two_pi * quadrature(f.mu, h),
        quadrature_error=two_pi * e_err,
    )


def _turning_angle_energy(
    g: GeometryParams, coeffs: FunctionalCoefficients, u, ds_dsigma, *, tails: bool = False
):
    """E and second summand of :func:`profile._mode_samples`' u and ds/dsigma, as :func:`energy`.

    Both by the sine rule.  With ``tails``, (E, second summand, E's tail,
    the second summand's tail): each tail as :func:`energy` reports E's
    ``quadrature_error``, bit for bit.
    """
    _check_samples({"u": u, "ds_dsigma": ds_dsigma}, u.size, g, closed=True)
    sigma, sin_sig, cos_sig, step, stencil = _grid_rates(u.size)
    spacing = ds_dsigma * step
    f = _ProfileFields(g, u, sigma, spacing, sin_sig, cos_sig)
    f.sigma_dot = stencil / spacing
    two_pi = 2.0 * math.pi
    densities = _energy_densities(f, coeffs)
    if not tails:
        return tuple(two_pi * sine_quadrature(y, spacing) for y in densities)
    (e_value, e_tail), (s_value, s_tail) = (
        sine_quadrature_with_tail(y, spacing) for y in densities
    )
    return two_pi * e_value, two_pi * s_value, two_pi * e_tail, two_pi * s_tail


def el_residual(
    profile: Profile,
    coeffs: FunctionalCoefficients,
    *,
    _fields: _ProfileFields | None = None,
) -> np.ndarray:
    """Euler-Lagrange residual of E_{alpha,beta} at every profile sample.

    Evaluates Delta H + H (2 H^2 - 2 K + (1 - 2 alpha)(k - 4 tau^2) nu^2
    + k - 2 beta - 2 alpha tau^2) + 2 alpha (k - 4 tau^2) div(nu T), with H
    computed pointwise from the samples (never assumed constant) and Delta H
    by the rotationally invariant reduction (mu H')'/mu.  The coefficient
    2 alpha tau^2 is forced by eliminating the extrinsic curvature through
    the Gauss equation; with alpha tau^2 instead, the expression picks up a
    spurious H alpha tau^2 and no longer vanishes on CMC spheres.

    Edge values are unreliable: read the array ``INTERIOR_MARGIN`` samples
    off each pole.  ``_fields`` is as in :func:`energy`.
    """
    _require_closed(profile)
    f = _fields or _ProfileFields.of(profile)
    g = profile.geometry
    k, tau = g.k, g.tau
    H = f.H_smooth
    return (
        f.laplacian_H()
        + H
        * (
            2.0 * H * H
            - 2.0 * f.gauss_curvature()
            + (1.0 - 2.0 * coeffs.alpha) * g._k_bar_slope * f.nu * f.nu
            + k
            - 2.0 * coeffs.beta
            - 2.0 * coeffs.alpha * tau * tau
        )
        + 2.0 * coeffs.alpha * g._k_bar_slope * f.div_nuT()
    )


def max_interior_residual(
    profile: Profile,
    coeffs: FunctionalCoefficients,
    *,
    _fields: _ProfileFields | None = None,
) -> float:
    """Maximum absolute Euler-Lagrange residual, ``INTERIOR_MARGIN`` samples off each pole."""
    res = el_residual(profile, coeffs, _fields=_fields)
    return float(np.abs(res[INTERIOR_MARGIN:-INTERIOR_MARGIN]).max())


def willmore_relation_check(profile: Profile) -> float:
    """Gap in the identity E = W + integral of (-3/4 K_bar + k/4 - tau^2/4) dmu.

    An algebraic identity between quadratures over the same samples by the
    same rule as E and W (:func:`_rules`), so the result is roundoff-small
    for any closed profile.
    """
    _require_closed(profile)
    f = _ProfileFields.of(profile)
    g = profile.geometry
    report = energy(profile, canonical_coefficients(g), _fields=f)
    correction = (-0.75 * f.K_bar + 0.25 * g.k - 0.25 * g.tau * g.tau) * f.mu
    corr = 2.0 * math.pi * _rules(profile)[0](correction, f.h)
    return abs(report.E - (report.willmore_W + corr))


def second_summand_derivative_check(profile: Profile) -> float:
    """Verify the topological integrand is the derivative of its potential.

    Compares the expanded integrand of the second summand (written with
    u-derivatives) against the stencil derivative of
    -u' sqrt(1 + tau^2 u^2) / (1 + k u^2/4)^2, over interior samples.
    """
    _require_closed(profile)
    m = INTERIOR_MARGIN
    if (n := len(profile)) < 2 * m + 1:
        raise ValueError(
            f"profile has {n} samples; the second-summand check needs at least {2 * m + 1}"
        )
    f = _ProfileFields.of(profile)
    g = profile.geometry
    u, A, B = f.u, f.A, f.B
    u_dot = B * f.cos  # definition of sigma, exact on samples
    u_ddot = derivative1(u_dot, f.h)
    integrand = -u_ddot * A / (B * B) + (
        u * u_dot * u_dot / (B * B * B)
    ) * (0.75 * g.k * A + 0.25 * g._k_bar_slope / A)
    bracket = -u_dot * A / (B * B)
    fd = derivative1(bracket, f.h)
    return float(np.max(np.abs(integrand[m:-m] - fd[m:-m])))


def gauss_bonnet_total(profile: Profile) -> float:
    """Total curvature integral of K dmu; 4 pi on any closed sphere.

    Uses K mu = -(mu)'' directly, which is finite through the poles.
    """
    _require_closed(profile)
    f = _ProfileFields.of(profile)
    return -2.0 * math.pi * sample_quadrature(f.strided(derivative2, f.mu), f.h)

