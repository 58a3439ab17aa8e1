"""Verification experiments: criticality, minimality, descent, identities, and sweeps.

Criticality of CMC spheres is checked by two independent routes: the
pointwise Euler-Lagrange residual, and the exact first variation of the
sampled energy under explicit normal deformations of the profile (moving
the curve along its quotient unit normal with a chosen velocity profile and
differentiating the energy of the deformed samples, with no unit-speed
assumption on the deformed curve).  Minimality is probed with the explicit
mode family of competitor spheres, and a Newton descent on the exact
gradient and Hessian of the family energy recovers the CMC sphere from a
perturbed start.
Each suite decides its verdict once, as its report's ``failure``: the first
check that missed (a NaN misses every check), or None on a pass.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import product

import numpy as np

from .functional import (
    FunctionalCoefficients,
    LEAST_SAMPLES,
    canonical_coefficients,
    energy,
    gauss_bonnet_total,
    h_squared_identity_check,
    max_interior_residual,
    second_summand_derivative_check,
    willmore_relation_check,
    _energy_weight,
    _mean_curvature,
    _pole_cut,
    _pole_safe_ratio,
    _ProfileFields,
    _turning_angle_energy,
)
from .geometry import GeometryParams, _a_squared, _b_factor, _record_dict
from .numerics import derivative1, sample_quadrature
from .profile import (
    DEFAULT_SAMPLES,
    ExistenceViolation,
    InadmissiblePerturbation,
    PerturbationSpec,
    Profile,
    Tolerances,
    generate_cmc_sphere,
    perturbed_sphere,
    _family_half_rule,
    _family_nodes,
    _family_panels,
    _mode_samples,
    _mode_shape,
    _require_admissible,
    _require_sphere_exists,
    _shape_samples,
    _turning_angle_grid,
)

__all__ = [
    "RESIDUAL_TOL",
    "ENERGY_TOL",
    "MIN_EXCESS",
    "SECOND_SUMMAND_TOL",
    "VELOCITY_PROFILES",
    "VariationResult",
    "CriticalityReport",
    "MinimalityEntry",
    "MinimalityReport",
    "DescentReport",
    "IdentitiesReport",
    "SweepSpec",
    "SweepRow",
    "sweep",
    "write_sweep_csv",
    "verify_criticality",
    "verify_minimality",
    "descend_energy",
    "verify_identities",
    "deformed_curve_energy",
    "first_variation",
    "mode_family_energy",
    "default_acceptance_grid",
    "default_perturbation_grid",
]

# Default thresholds by name, for callers that gate on them; the suites read a Tolerances.
RESIDUAL_TOL = Tolerances.residual
ENERGY_TOL = Tolerances.energy
MIN_EXCESS = Tolerances.min_excess
SECOND_SUMMAND_TOL = Tolerances.second_summand
FOUR_PI = 4.0 * math.pi

VELOCITY_PROFILES = ("constant", "cos_sigma", "bump")


def default_acceptance_grid() -> list[tuple[GeometryParams, float]]:
    """The (k, tau, H) cases exercised by the verification suites.

    Covers the four Thurston model cases plus Berger-family parameters;
    every H satisfies the sphere existence condition with margin.
    """
    cases = []
    for k in (-1.0, -0.25, 0.0, 0.25, 1.0):
        for tau in (-0.5, 0.0, 0.3, 0.5):
            for H in (0.6, 0.8, 1.0):
                cases.append((GeometryParams(k, tau), H))
    return cases


def default_perturbation_grid() -> list[PerturbationSpec]:
    return [
        PerturbationSpec(eps, mode)
        for mode in (1, 2)
        for eps in (-0.2, -0.1, -0.05, 0.05, 0.1, 0.2)
    ]


# -- first variation --------------------------------------------------------


def _unwrap(sigma: np.ndarray) -> np.ndarray:
    """``np.unwrap(sigma)`` bit for bit; in place unless a step before the last is NaN or >= pi."""
    if not np.abs(np.diff(sigma[:-1])).max(initial=0.0) < math.pi:
        return np.unwrap(sigma)
    sigma[1:] += 0.0  # np.unwrap's zero correction, which turns -0.0 into 0.0
    if not abs(sigma[-1] - sigma[-2]) < math.pi:  # its correction sums zeros up to the last step
        sigma[-1] = np.unwrap(sigma[-2:])[1]
    return sigma


def deformed_curve_energy(
    g: GeometryParams,
    s: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    coeffs: FunctionalCoefficients,
    *,
    du: np.ndarray | None = None,
    dv: np.ndarray | None = None,
):
    """Energy of a profile curve given by samples, without unit speed.

    The curve (u(s0), v(s0)) may carry any regular parametrization; the
    quotient speed, tangent angle and turning rate are recomputed from the
    samples, and the area element picks up the speed Jacobian.  With ``du``
    and ``dv``, equal-length sequences of velocity rows (a (rows, samples)
    array is one), the result is (E, dE/dt) with one dE/dt per row: the
    exact derivative of this discrete energy along (u + t du, v + t dv) at
    t = 0, each line carried to first order in t (forward-mode
    differentiation; Griewank & Walther, *Evaluating Derivatives*, 2008).
    The base curve's fields and row factors are computed once; each row is linearized alone.
    Each array is freed once nothing reads it, so that a pass reuses its heap from call to call.
    """
    k, tau = g.k, g.tau
    # Only the step's scale enters, and the energy does not depend on it:
    # samples uniform in arclength or in any other variable both work.
    h = float(s[1] - s[0])
    A = np.sqrt(_a_squared(g, u))
    B = _b_factor(g, u)
    x = derivative1(u, h) / B
    y = derivative1(v, h) / A
    speed = np.hypot(x, y)
    # Profiles end at sigma = pi, where arctan2 may read -pi by one rounding.
    sigma = _unwrap(np.arctan2(y, x))
    sigma_dot = derivative1(sigma, h) / speed
    sin_sig, cos_sig = np.sin(sigma), np.cos(sigma)
    cut = _pole_cut(u)
    ratio = _pole_safe_ratio(cut, sin_sig, sigma_dot)
    H = _mean_curvature(k, u, sin_sig, sigma_dot, ratio)
    nu, mu = cos_sig / A, u * A / B
    # the density weight * mu * speed: mu per unit quotient arclength, speed per unit parameter
    weight = _energy_weight(g, coeffs, H, nu)
    value = 2.0 * math.pi * sample_quadrature(weight * mu * speed, h)
    if du is None:
        return value
    # its tangent 2 (H dH + alpha (k - 4 tau^2) nu dnu) mu speed + weight (dmu speed + mu dspeed)
    scale = 2.0 * mu * speed
    by_dH = scale * H
    by_dnu = scale * coeffs.alpha * g._k_bar_slope * nu
    by_dmu, by_dspeed = weight * speed, weight * mu
    dA_du, dB_du = tau * tau * u / A, 0.5 * k * u
    dmu_du = (A + u * dA_du - mu * dB_du) / B
    x_dB, y_dA, nu_dA, speed_sq = x * dB_du, y * dA_du, nu * dA_du, speed * speed
    del sigma, H, nu, mu, weight, scale, dA_du, dB_du

    def rate(du_row, dv_row):
        dx = derivative1(du_row, h)
        dx -= x_dB * du_row
        dx /= B
        dy = derivative1(dv_row, h)
        dy -= y_dA * du_row
        dy /= A
        dspeed = (x * dx + y * dy) / speed
        dsigma = (x * dy - y * dx) / speed_sq
        del dx, dy
        dsigma_dot = derivative1(dsigma, h)
        dsigma_dot -= sigma_dot * dspeed
        dsigma_dot /= speed
        dsin = cos_sig * dsigma
        dnu = -(sin_sig * dsigma + nu_dA * du_row) / A
        del dsigma
        # d(sin/u) = (dsin - (sin/u) du)/u, and the pole limit's variation at the poles
        dratio = _pole_safe_ratio(cut, dsin - ratio * du_row, dsigma_dot)
        ddensity = by_dH * (0.5 * (dsigma_dot + dratio - 0.25 * k * (sin_sig * du_row + u * dsin)))
        ddensity += by_dnu * dnu
        ddensity += by_dmu * (dmu_du * du_row)
        ddensity += by_dspeed * dspeed
        return 2.0 * math.pi * sample_quadrature(ddensity, h)

    return value, np.array([rate(du_row, dv_row) for du_row, dv_row in zip(du, dv, strict=True)])


@dataclass(frozen=True)
class VariationResult:
    """First variation dE/dt under one velocity profile.

    ``truncation_estimate`` is |dE/dt - the same derivative on the stride-2
    subgrid|, the discretization gap of the sampled energy's derivative.
    """

    velocity_profile: str
    dE_dt: float
    truncation_estimate: float

    to_dict = _record_dict


def _normal_velocities(profile: Profile) -> tuple[np.ndarray, np.ndarray]:
    """(du, dv) of the normal deformations, one row per entry of ``VELOCITY_PROFILES``.

    The profile moves along its quotient unit normal
    n = (-(1 + k u^2/4) sin sigma, sqrt(1 + tau^2 u^2) cos sigma) at rate phi(s):
    1, cos(sigma), and the bump sin(pi x)^4 of x = (s - s_0)/arclength.
    """
    g, s, u, sigma = profile.geometry, profile.s, profile.u, profile.sigma
    cos_sig = np.cos(sigma)
    phi = [np.ones_like(s), cos_sig, np.sin(math.pi * ((s - s[0]) / profile.arclength)) ** 4]
    n_u = -_b_factor(g, u) * np.sin(sigma)
    n_v = np.sqrt(_a_squared(g, u)) * cos_sig
    return np.stack([p * n_u for p in phi]), np.stack([p * n_v for p in phi])


def first_variation(
    profile: Profile, coeffs: FunctionalCoefficients
) -> tuple[VariationResult, ...]:
    """dE/dt for the normal deformation with each velocity profile of ``VELOCITY_PROFILES``.

    The profile moves along its quotient unit normal at rate phi(s)
    (:func:`_normal_velocities`).  All three derivatives come from one
    linearized pass of :func:`deformed_curve_energy`, exact for the discrete
    energy, so no step and no rounding divided by a step enter; a second
    pass on the stride-2 subgrid gives each truncation estimate.  The
    sample count must be odd, so that the subgrid keeps both ends.
    """
    if len(profile) % 2 == 0:
        raise ValueError("first_variation needs an odd sample count")
    g, s, u, v = profile.geometry, profile.s, profile.u, profile.v
    du, dv = _normal_velocities(profile)
    _, fine = deformed_curve_energy(g, s, u, v, coeffs, du=du, dv=dv)
    _, coarse = deformed_curve_energy(
        g, s[::2], u[::2], v[::2], coeffs, du=du[:, ::2], dv=dv[:, ::2]
    )
    return tuple(
        VariationResult(name, float(d), float(abs(d - c)))
        for name, d, c in zip(VELOCITY_PROFILES, fine, coarse, strict=True)
    )


# -- criticality --------------------------------------------------------------


@dataclass(frozen=True)
class CriticalityReport:
    """Criticality verdict; ``failure`` and the sphere checked, ``profile``, are not serialized."""

    geometry: GeometryParams
    H: float
    coefficients: FunctionalCoefficients
    max_residual: float
    residual_tol: float
    variations: tuple[VariationResult, ...]
    variation_tol: float
    energy: float
    passed: bool
    failure: str | None = field(repr=False)
    profile: Profile = field(repr=False)

    to_dict = _record_dict


def _require_stencil_samples(n_samples: int) -> None:
    """Reject a sample count too small or even for the residual path's stencils."""
    if n_samples < LEAST_SAMPLES or n_samples % 2 == 0:
        raise ValueError(f"n_samples must be odd and at least {LEAST_SAMPLES}, got {n_samples}")


def verify_criticality(
    g: GeometryParams,
    H: float,
    coeffs: FunctionalCoefficients | None = None,
    *,
    tolerances: Tolerances = Tolerances(),
    n_samples: int = DEFAULT_SAMPLES,
) -> CriticalityReport:
    """Check that the CMC sphere is critical for E_{alpha,beta}.

    Two independent tests must both stay below tolerance: the maximum
    interior Euler-Lagrange residual, and the first variation of the
    sampled energy (:func:`first_variation`) for each of the velocity
    profiles in ``VELOCITY_PROFILES`` (``tolerances.residual`` and
    ``tolerances.variation``).  With non-canonical coefficients the same
    quantities are computed and typically fail, which is the point of the
    negative control.
    """
    _require_stencil_samples(n_samples)
    if coeffs is None:
        coeffs = canonical_coefficients(g)
    profile = generate_cmc_sphere(g, H, n_samples=n_samples)
    # One field set for the residual and the energy, dropped before the
    # first variation's passes allocate theirs.
    sphere_fields = _ProfileFields.of(profile)
    max_res = max_interior_residual(profile, coeffs, _fields=sphere_fields)
    energy_value = energy(profile, coeffs, _fields=sphere_fields).E
    del sphere_fields
    variations = first_variation(profile, coeffs)
    failure = None
    if not max_res < tolerances.residual:
        failure = f"max residual {max_res:.3e}"
    elif missed := [v for v in variations if not abs(v.dE_dt) < tolerances.variation]:
        worst = max(missed, key=lambda v: abs(v.dE_dt))
        failure = f"first variation {worst.dE_dt:.3e} ({worst.velocity_profile})"
    return CriticalityReport(
        geometry=g,
        H=H,
        coefficients=coeffs,
        max_residual=max_res,
        residual_tol=tolerances.residual,
        variations=variations,
        variation_tol=tolerances.variation,
        energy=energy_value,
        passed=failure is None,
        failure=failure,
        profile=profile,
    )


# -- minimality ----------------------------------------------------------------


@dataclass(frozen=True)
class MinimalityEntry:
    """One competitor: E and the second summand at the ``n_samples`` its tail certified.

    ``quadrature_error`` is E's sine-coefficient tail there, as
    :func:`energy` reports it; an inadmissible shape carries its ``error``.
    """

    epsilon: float
    mode: int
    admissible: bool
    E: float | None = None
    second_summand: float | None = None
    n_samples: int | None = None
    quadrature_error: float | None = None
    error: str | None = None

    to_dict = _record_dict


@dataclass(frozen=True)
class MinimalityReport:
    geometry: GeometryParams
    H: float
    coefficients: FunctionalCoefficients
    baseline_E: float
    baseline_second_summand: float
    entries: tuple[MinimalityEntry, ...]
    evenness_gaps: dict
    passed: bool
    failure: str | None = field(repr=False)

    to_dict = _record_dict


def verify_minimality(
    g: GeometryParams,
    H: float,
    grid: list[PerturbationSpec] | None = None,
    *,
    coeffs: FunctionalCoefficients | None = None,
    tolerances: Tolerances = Tolerances(),
    n_samples: int = DEFAULT_SAMPLES,
) -> MinimalityReport:
    """Check that the CMC sphere minimizes E_{alpha,beta} within the competitor family.

    ``coeffs`` defaults to the canonical pair.  Passing requires the baseline
    CMC sphere to sit at 4 pi within ``tolerances.energy``, every admissible
    perturbed sphere to exceed it by more than ``tolerances.min_excess``, and
    every second summand to equal 4 pi within ``tolerances.second_summand``.
    Perturbed spheres are evaluated from their samples with no Profile, by
    the sine rule, bit for bit :func:`energy` of :func:`perturbed_sphere` at
    the entry's ``n_samples``: the first count of the ladder 129, 257,
    513, ... up to ``n_samples`` (:func:`_sample_ladder`) at which the
    sine-coefficient tails of E and of the second summand fall below
    ``_CERTIFY`` times ``tolerances.min_excess`` and
    ``tolerances.second_summand``, or ``n_samples`` itself, the largest
    count; the baseline CMC sphere takes ``n_samples``.  A shape that is
    not a regular profile is reported as inadmissible, never fatal.  The
    report also lists |E(+eps) - E(-eps)| per admissible pair; the energy of
    this family is measurably asymmetric in eps (the shapes are not
    congruent), so the gaps are diagnostics rather than thresholds.  With
    non-canonical coefficients (plain Willmore, say) the baseline misses 4 pi
    outside the space forms and the suite fails: the negative control.  The
    second summands are the canonical split's and do not depend on
    ``coeffs``.
    """
    if grid is None:
        grid = default_perturbation_grid()
    if coeffs is None:
        coeffs = canonical_coefficients(g)
    baseline = energy(generate_cmc_sphere(g, H, n_samples=n_samples), coeffs)
    ladder = _sample_ladder(n_samples)
    bounds = (_CERTIFY * tolerances.min_excess, _CERTIFY * tolerances.second_summand)
    entries = []
    for spec in grid:
        try:
            h_abs, shape = _mode_shape(g, H, [0.0] * (spec.mode - 1) + [spec.epsilon], n_samples)
        except InadmissiblePerturbation as exc:
            entries.append(MinimalityEntry(spec.epsilon, spec.mode, False, error=str(exc)))
            continue
        for count in ladder:
            samples = _shape_samples(g, h_abs, shape, count)
            E, second, *tails = _turning_angle_energy(
                g, coeffs, samples["u"], samples["ds_dsigma"], tails=True
            )
            if all(tail < bound for tail, bound in zip(tails, bounds)):
                break
        entries.append(MinimalityEntry(spec.epsilon, spec.mode, True, E, second, count, tails[0]))
    values = {(e.epsilon, e.mode): e.E for e in entries if e.admissible}
    gaps = {}
    for (eps, mode), e_plus in values.items():
        if eps > 0 and (-eps, mode) in values:
            gaps[(eps, mode)] = abs(e_plus - values[(-eps, mode)])
    failure = _minimality_failure(baseline, entries, tolerances)
    return MinimalityReport(
        geometry=g,
        H=H,
        coefficients=coeffs,
        baseline_E=baseline.E,
        baseline_second_summand=baseline.second_summand,
        entries=tuple(entries),
        evenness_gaps=gaps,
        passed=failure is None,
        failure=failure,
    )


# A competitor's sample count is certified where its coefficient tails sit
# this far below the gates they feed.
_CERTIFY = 1e-3
# The competitors' least sample count.
_LADDER_START = 129


def _sample_ladder(n_samples: int) -> list[int]:
    """The counts 129, 257, 513, ... below ``n_samples``, then ``n_samples``."""
    counts = []
    count = _LADDER_START
    while count < n_samples:
        counts.append(count)
        count = 2 * count - 1
    return counts + [n_samples]


def _minimality_failure(baseline, entries, tol: Tolerances) -> str | None:
    """The first check of :func:`verify_minimality` that missed, with its value and bound."""
    miss = abs(baseline.E - FOUR_PI)
    if not miss < tol.energy:
        return f"baseline |E - 4 pi| {miss:.3e} not below {tol.energy:.3e}"
    miss = abs(baseline.second_summand - FOUR_PI)
    if not miss < tol.second_summand:
        return f"baseline |second summand - 4 pi| {miss:.3e} not below {tol.second_summand:.3e}"
    for entry in (e for e in entries if e.admissible):
        name = f"competitor (epsilon {entry.epsilon!r}, mode {entry.mode})"
        if entry.epsilon != 0.0 and not entry.E > baseline.E + tol.min_excess:
            return f"{name} energy excess {entry.E - baseline.E:.3e} not above {tol.min_excess:.3e}"
        miss = abs(entry.second_summand - FOUR_PI)
        if not miss <= tol.second_summand:
            return f"{name} |second summand - 4 pi| {miss:.3e} above {tol.second_summand:.3e}"
    return None


# -- Newton descent over the mode family ---------------------------------------


def _family_energy(
    g: GeometryParams,
    H: float,
    coeffs_vec,
    functional_coeffs: FunctionalCoefficients | None = None,
    *,
    derivatives: bool = False,
):
    """Family energy E, or with ``derivatives`` (E, gradient, Hessian), for any (alpha, beta).

    One Gauss sum on the half rule of :func:`_family_panels` panels, half
    the integral over [0, pi], times 4 pi; the node terms are
    :func:`_family_nodes`'s, as in :func:`sphere_from_modes`.  At each
    node the density is rho = G M, with G the weight H_m^2 + alpha K_bar + beta
    of :func:`functional._energy_weight` and M = u A N/(H B^2) = mu ds/dsigma;
    it depends on the coefficients only through P and N (their Chebyshev series
    in t = cos(2 sigma)), both linear in them.  E and the node terms come from
    the value stage :func:`_family_value`, which keeps the last point it
    evaluated, so derivatives asked for right after E at the same point reuse
    them (:func:`_family_derivatives`).  Raises :class:`ExistenceViolation` or
    :class:`IntegrationError` where the CMC sphere of (g, H) does not exist or
    overflows float64, and :class:`InadmissiblePerturbation` where the shape is
    not a regular profile.
    """
    if functional_coeffs is None:
        functional_coeffs = canonical_coefficients(g)
    c = np.atleast_1d(np.asarray(coeffs_vec, dtype=float))
    h = abs(H)
    alpha = functional_coeffs.alpha
    key = _FAMILY_HEAD.pack(g.k, g.tau, h, alpha, functional_coeffs.beta) + c.tobytes()
    value, nodes = _family_value(key, g, H, functional_coeffs)
    if not derivatives:
        return value
    return value, *_family_derivatives(g, h, alpha, nodes)


# The float64 fields k, tau, |H|, alpha, beta that open a family point's memo key.
_FAMILY_HEAD = struct.Struct("5d")


@lru_cache(maxsize=1)
def _family_value(
    key: bytes, g: GeometryParams, H: float, functional_coeffs: FunctionalCoefficients
) -> tuple:
    """The value stage of :func:`_family_energy`: E and the node terms its derivatives read.

    ``key`` holds the float64 bytes of k, tau, |H|, alpha, beta and then
    the coefficients, so -0.0 and 0.0 never share an entry (as in
    :func:`profile._shape_core`).  The other arguments are the objects those
    bits come from; floats with equal bits compare equal, so they split no
    entry that the bits share.  One entry: a descent's accepted trial, whose
    gradient and Hessian follow at once.  Existence and float64 overflow
    are decided first (:func:`_require_sphere_exists`).  Returns E and the node
    terms (weights, sin(sigma), the P and N mode terms, P, N, u, B, A^2,
    ds/dsigma, dsigma/ds, H_m, nu, G, mu) at the half rule's nodes.
    """
    _require_sphere_exists(g, H)
    h = abs(H)
    c = np.frombuffer(key, offset=_FAMILY_HEAD.size)
    shape = _require_admissible(g, h, c)
    weights, sin_sig, cos_sig, t, p_modes, n_modes = _family_half_rule(
        _family_panels(g, h, shape), c.size
    )
    # The series, not the rule's mode terms: near the regularity edge
    # (min N ~ 1e-4) summing the mode terms moves the energy by up to 1e-13.
    p, n, u, b, ds_dsigma = _family_nodes(g, h, shape, sin_sig, t)
    a2 = _a_squared(g, u)
    A = np.sqrt(a2)
    # H_m with sin(sigma)/u = H/P in closed form, no pole at the ends.
    turning = 1.0 / ds_dsigma
    hm = _mean_curvature(g.k, u, sin_sig, turning, h / p)
    nu = cos_sig / A
    G = _energy_weight(g, functional_coeffs, hm, nu)
    mu = u * A / b
    # w (G mu) ds/dsigma in this order: near the apex edge a reordering moves E by ~1e-11
    value = FOUR_PI * float(np.dot(weights, G * mu * ds_dsigma))
    nodes = (weights, sin_sig, p_modes, n_modes, p, n, u, b, a2, ds_dsigma, turning, hm, nu, G, mu)
    return value, nodes


def _family_derivatives(g: GeometryParams, h: float, alpha: float, nodes: tuple) -> tuple:
    """Gradient and Hessian of the family energy from the node terms of :func:`_family_value`.

    The partials of rho in (P, N), hand-derived below, contracted with the
    rule's mode terms.
    """
    weights, sin_sig, p_modes, n_modes, p, n, u, b, a2, ds_dsigma, turning, hm, nu, G, mu = nodes
    k4, tau2 = 0.25 * g.k, g.tau * g.tau
    # the weight's part alpha (k - 4 tau^2) nu^2, which the partials below differentiate
    e = alpha * (g._k_bar_slope * nu * nu)
    M = weights * mu * ds_dsigma
    inv_p, inv_n, inv_b, inv_a2 = 1.0 / p, 1.0 / n, 1.0 / b, 1.0 / a2
    inv_p2 = inv_p * inv_p
    r = sin_sig / h  # du/dP
    ku, tu = k4 * u, tau2 * u
    kru, krr = ku * r, k4 * r * r
    # first P-derivatives lb, la of log B and log A^2, and the partials of H_m
    lb = 2.0 * kru * inv_b
    la = 2.0 * tu * r * inv_a2
    taa = tau2 * r * r * inv_a2
    hm_n = -0.5 * turning * inv_n
    hm_p = 0.5 * h * (2.0 * kru * inv_n - inv_p2 - krr)
    hm_pp = h * (krr * inv_n + inv_p2 * inv_p)
    hm_pn = hm_n * lb
    e_p = -e * la
    e_pp = e * (2.0 * la * la - 2.0 * taa)
    G_p = 2.0 * hm * hm_p + e_p
    G_n = 2.0 * hm * hm_n
    # first and second P-derivatives of log M = log(u A N/(H B^2))
    lm = inv_p + 0.5 * la - 2.0 * lb
    lm_p = -inv_p2 + taa - 0.5 * la * la - 2.0 * (2.0 * krr * inv_b - lb * lb)
    gp = G_p + G * lm
    gn = G_n + G * inv_n
    rho_p = M * gp
    rho_n = M * gn
    rho_pp = M * (2.0 * (hm_p * hm_p + hm * hm_pp) + e_pp + G_p * lm + lm * gp + G * lm_p)
    rho_nn = M * (2.0 * hm_n * (hm_n - 2.0 * hm * inv_n) + 2.0 * G_n * inv_n)
    rho_pn = M * (2.0 * (hm_p * hm_n + hm * hm_pn) + G_p * inv_n + lm * gn)
    gradient = p_modes @ rho_p + n_modes @ rho_n
    # einsum, not a matrix product: no BLAS level-3 work buffers for a d x d result
    hessian = np.einsum("in,jn->ij", p_modes * rho_pp + n_modes * rho_pn, p_modes) + np.einsum(
        "in,jn->ij", p_modes * rho_pn + n_modes * rho_nn, n_modes
    )
    return FOUR_PI * gradient, FOUR_PI * hessian


def mode_family_energy(
    g: GeometryParams,
    H: float,
    coeffs_vec,
    functional_coeffs: FunctionalCoefficients | None = None,
) -> float:
    """Energy of the mode-family sphere in closed form (:func:`_family_energy`).

    Everything is analytic in the turning angle: an 8-point Gauss sum over
    64 panels in sigma, or 1024 where the density has a complex singularity
    close to the real axis, with no profile and no stencils.  Shapes that
    :func:`sphere_from_modes` rejects return infinity; a CMC sphere of
    (g, H) that does not exist or that float64 cannot hold raises, as both
    generators do (:class:`ExistenceViolation`, :class:`IntegrationError`).
    The point's node terms stay for derivatives asked for next at the same
    point.  The descent objective, and a cross-check of the sample-based
    energy pipeline.
    """
    try:
        return _family_energy(g, H, coeffs_vec, functional_coeffs)
    except InadmissiblePerturbation:
        return math.inf


@dataclass(frozen=True)
class DescentReport:
    """Outcome of :func:`descend_energy`.

    ``stop_reason`` is "converged", "iteration budget used up" (after
    ``max_iterations`` steps), "line search stalled" (no step, however
    short, lowered the energy enough) or "final shape check failed" (the
    loop criterion held, but the energy of the samples of the final shape
    that :func:`sphere_from_modes` takes missed 4 pi).
    ``hessian_eigenvalues`` are the ascending eigenvalues of d^2E/dc^2 at
    c = 0, the CMC sphere: the second variation inside the family.
    ``failure`` (not serialized) names the stop reason of a failed descent.
    """

    geometry: GeometryParams
    H: float
    converged: bool
    iterations: int
    energy_final: float
    coefficients_final: tuple[float, ...]
    gradient_norm: float
    refit_H: float
    identity_residual: float
    start_coefficients: tuple[float, ...]
    start_adjusted: bool
    stop_reason: str
    hessian_eigenvalues: tuple[float, ...]
    failure: str | None = field(repr=False)

    to_dict = _record_dict


# Least |eigenvalue| of the modified Newton model, relative to the largest.
_HESSIAN_FLOOR = 1e-8
# Armijo sufficient-decrease constant of the line search.
_ARMIJO = 1e-4


def descend_energy(
    g: GeometryParams,
    H_init: float,
    family_dims: int,
    *,
    start: PerturbationSpec | None = None,
    max_iterations: int = 200,
    tolerances: Tolerances = Tolerances(),
    n_samples: int = DEFAULT_SAMPLES,
) -> DescentReport:
    """Newton descent over the mode-family coefficients toward the CMC sphere.

    The objective is :func:`mode_family_energy` at the fixed comparison mean
    curvature ``H_init``; the best H is refit on the final shape.  Each
    iteration takes a modified Newton step on the exact gradient and
    Hessian of the same Gauss sum (:func:`_family_energy`, also at c = 0
    for ``hessian_eigenvalues``): the Hessian's eigenvalues are replaced by
    their absolute values, floored at ``_HESSIAN_FLOOR`` times the largest,
    and the step is halved until the Armijo condition holds (Nocedal &
    Wright, *Numerical Optimization*, ch. 3).  Trial points need E alone,
    from :func:`mode_family_energy`, which is infinite on inadmissible
    shapes, so no step leaves the family.  The accepted trial is the last
    point evaluated, so its gradient and Hessian read its kept node terms
    (:func:`_family_value`): each point of a descent is evaluated once.  A
    start outside the family or on its regularity boundary (amplitude 0.2
    in mode 1, where ds/dsigma vanishes at the equator) is scaled by 0.97
    until it is admissible with the exact minimum of the regularity
    numerator N above 0.03; a start that cannot be pulled in raises
    :class:`InadmissiblePerturbation`.  Convergence means every coefficient
    below ``tolerances.descent_coeff`` and the energy within
    ``tolerances.energy`` of 4 pi, on the ``n_samples`` samples of the final
    shape that :func:`sphere_from_modes` takes, evaluated with no Profile.
    """
    _require_sphere_exists(g, H_init)
    coeff_tol, energy_tol = tolerances.descent_coeff, tolerances.energy
    if family_dims < 1:
        raise ValueError("family_dims must be at least 1")
    if max_iterations < 0:
        raise ValueError("max_iterations must be nonnegative")
    if start is None:
        start = PerturbationSpec(0.2, 1)
    if start.mode > family_dims:
        raise ValueError("start mode exceeds family_dims")

    c = np.zeros(family_dims)
    c[start.mode - 1] = start.epsilon
    start_vec = tuple(c)
    adjusted = False
    for _ in range(40):
        try:
            if _require_admissible(g, abs(H_init), c).n_range[0] > 0.03:
                break
        except InadmissiblePerturbation:
            pass
        c = c * 0.97
        adjusted = True
    else:
        raise InadmissiblePerturbation("descent start could not be pulled into the family")

    coeffs = canonical_coefficients(g)
    f_val, grad, hess = _family_energy(g, H_init, c, coeffs, derivatives=True)
    stop_reason = "iteration budget used up"
    iterations = max_iterations
    for i in range(max_iterations + 1):
        if np.abs(c).max() < coeff_tol and f_val - FOUR_PI < energy_tol:
            stop_reason, iterations = "converged", i
            break
        if i == max_iterations:
            break
        eigenvalues, vectors = np.linalg.eigh(hess)
        curvature = np.maximum(np.abs(eigenvalues), _HESSIAN_FLOOR * np.abs(eigenvalues).max())
        step = -vectors @ ((vectors.T @ grad) / curvature)
        slope = float(grad @ step)
        trial = 1.0
        # a zero (or non-finite) gradient gives no descent direction: no trials
        for _ in range(50 if slope < 0.0 else 0):
            candidate = c + trial * step
            f_new = mode_family_energy(g, H_init, candidate, coeffs)
            if f_new <= f_val + _ARMIJO * trial * slope:
                break
            trial *= 0.5
        else:
            stop_reason, iterations = "line search stalled", i + 1
            break
        c, f_val = candidate, f_new
        # the accepted trial was the last point evaluated: its node terms are a memo hit
        _, grad, hess = _family_energy(g, H_init, c, coeffs, derivatives=True)

    final = _mode_samples(g, H_init, c, n_samples)
    u = final["u"]
    final_energy, _ = _turning_angle_energy(g, coeffs, u, final["ds_dsigma"])
    sin_sig = _turning_angle_grid(n_samples)[1]
    refit = float(np.dot(sin_sig, u) / np.dot(u, u))
    identity_residual = float(np.abs(sin_sig - refit * u).max())
    if stop_reason == "converged" and not abs(final_energy - FOUR_PI) < energy_tol:
        stop_reason = "final shape check failed"
    gradient_norm = float(np.linalg.norm(grad))
    failure = None if stop_reason == "converged" else (
        f"descent not converged: {stop_reason} after {iterations} iterations"
        f" (gradient norm {gradient_norm:.3e})"
    )
    sphere_hessian = _family_energy(g, H_init, np.zeros(family_dims), coeffs, derivatives=True)[2]
    return DescentReport(
        geometry=g,
        H=H_init,
        converged=failure is None,
        iterations=iterations,
        energy_final=final_energy,
        coefficients_final=tuple(float(x) for x in c),
        gradient_norm=gradient_norm,
        refit_H=refit,
        identity_residual=identity_residual,
        start_coefficients=start_vec,
        start_adjusted=adjusted,
        stop_reason=stop_reason,
        hessian_eigenvalues=tuple(float(x) for x in np.linalg.eigvalsh(sphere_hessian)),
        failure=failure,
    )


# -- algebraic and integral identities ---------------------------------------------


@dataclass(frozen=True)
class IdentitiesReport:
    """Each identity check's value and threshold by name; ``failure`` is not serialized."""

    checks: dict
    thresholds: dict
    failed: tuple[str, ...]
    passed: bool
    failure: str | None = field(repr=False)

    to_dict = _record_dict


def verify_identities(
    g: GeometryParams,
    H: float,
    spec: PerturbationSpec,
    *,
    seed: int,
    tolerances: Tolerances = Tolerances(),
    n_samples: int = DEFAULT_SAMPLES,
) -> IdentitiesReport:
    """Check the paper's identities; each passes at most at its ``tolerances`` threshold.

    The H^2 identity at 10000 random (u, sigma, sigma') drawn with ``seed``, then the
    Willmore relation, Gauss-Bonnet and the second-summand derivative on the CMC sphere
    and on the sphere perturbed by ``spec``.
    """
    _require_stencil_samples(n_samples)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.05, min(3.0, 0.9 * g.domain_radius), 10_000)
    sigma = rng.uniform(0.0, math.pi, 10_000)
    sigma_dot = rng.uniform(-2.0, 2.0, 10_000)
    identity_max = float(np.max(h_squared_identity_check(g, u, sigma, sigma_dot)))

    cmc = generate_cmc_sphere(g, H, n_samples=n_samples)
    perturbed = perturbed_sphere(g, H, spec, n_samples=n_samples)
    table = [("h_squared_identity", identity_max, tolerances.identity)]
    for name, check, threshold in (
        ("willmore_relation", willmore_relation_check, tolerances.relation),
        ("gauss_bonnet", lambda p: abs(gauss_bonnet_total(p) - FOUR_PI), tolerances.gauss_bonnet),
        ("second_summand_derivative", second_summand_derivative_check, tolerances.derivative_check),
    ):
        for label, prof in (("cmc", cmc), ("perturbed", perturbed)):
            table.append((f"{name}_{label}", check(prof), threshold))
    failed = tuple(name for name, value, threshold in table if not value <= threshold)
    failure = f"identity check {failed[0]}" if failed else None
    return IdentitiesReport(
        checks={name: value for name, value, _ in table},
        thresholds={name: threshold for name, _, threshold in table},
        failed=failed,
        passed=failure is None,
        failure=failure,
    )


# -- parameter sweeps -----------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Cross product of parameter values for a sweep."""

    k_values: tuple[float, ...]
    tau_values: tuple[float, ...]
    H_values: tuple[float, ...]

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """The spec from ``data``, which must hold every list: ``KeyError`` names a missing one.

        A value that is not a list of numbers, one that holds an integer beyond float range, or
        any other key, raises ``ValueError`` naming it.
        """
        names = [f.name for f in fields(cls)]
        lists = []
        for name in names:
            values = data[name]
            if type(values) is not list or any(type(x) not in (int, float) for x in values):
                raise ValueError(f"{name} must be an array of numbers, got {values!r}")
            try:
                lists.append(tuple(float(x) for x in values))
            except OverflowError:
                raise ValueError(f"{name} holds an integer beyond float range") from None
        spec = cls(*lists)
        for key in data:
            if key not in names:
                raise ValueError(f"unknown key {key!r}")
        return spec

    def cases(self) -> list[tuple[float, float, float]]:
        return list(product(self.k_values, self.tau_values, self.H_values))


@dataclass(frozen=True)
class SweepRow:
    k: float
    tau: float
    H: float
    exists: bool
    E: float | None = None
    max_residual: float | None = None
    second_summand: float | None = None
    u_max: float | None = None
    area: float | None = None
    error: str = ""


def _sweep_row(case: tuple[float, float, float], n_samples: int) -> SweepRow:
    k, tau, H = case
    try:
        g = GeometryParams(k, tau)
    except ValueError as exc:  # k or tau not finite: no such geometry
        return SweepRow(k=k, tau=tau, H=H, exists=False, error=f"{type(exc).__name__}: {exc}")
    try:
        profile = generate_cmc_sphere(g, H, n_samples=n_samples)
        sphere_fields = _ProfileFields.of(profile)  # one field set for both calls
        report = energy(profile, _fields=sphere_fields)
        residual = max_interior_residual(profile, canonical_coefficients(g), _fields=sphere_fields)
        return SweepRow(
            k=k,
            tau=tau,
            H=H,
            exists=True,
            E=report.E,
            max_residual=residual,
            second_summand=report.second_summand,
            u_max=float(profile.u.max()),
            area=report.area,
        )
    except ExistenceViolation as exc:
        return SweepRow(k=k, tau=tau, H=H, exists=False, error=f"ExistenceViolation: {exc}")
    except Exception as exc:  # per-row isolation: a sweep never aborts
        # the sphere exists; generating or evaluating it failed
        return SweepRow(k=k, tau=tau, H=H, exists=True, error=f"{type(exc).__name__}: {exc}")


def sweep(spec: SweepSpec, *, n_samples: int = DEFAULT_SAMPLES) -> list[SweepRow]:
    """One row per (k, tau, H) in input order.

    Failures stay in their row.  ``exists`` is false only where there is no
    sphere: an :class:`ExistenceViolation`, or a (k, tau) that
    :class:`GeometryParams` rejects.  Any other failure keeps
    ``exists=True`` next to its error text.  An ``n_samples`` that is even
    or below ``LEAST_SAMPLES`` raises ``ValueError`` before the first row.
    """
    _require_stencil_samples(n_samples)
    return [_sweep_row(c, n_samples) for c in spec.cases()]


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value).replace('"', "'")
    return f'"{text}"' if "," in text else text


def write_sweep_csv(rows: list[SweepRow], fh) -> None:
    """Write the sweep table, one column per :class:`SweepRow` field, floats round-trip."""
    names = [f.name for f in fields(SweepRow)]
    fh.write(",".join(names) + "\n")
    for r in rows:
        fh.write(",".join(_format_field(getattr(r, name)) for name in names) + "\n")
