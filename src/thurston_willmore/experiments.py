"""Verification experiments: criticality, minimality, descent, and sweeps.

Criticality of CMC spheres is checked by two independent routes: the
pointwise Euler-Lagrange residual, and the finite-difference first
variation of the energy under explicit normal deformations of the profile
(moving the curve along its quotient unit normal with a chosen velocity
profile and re-evaluating the energy, with no unit-speed assumption on the
deformed curve).  Minimality is probed with the explicit mode family of
competitor spheres, and a gradient descent over the family's shape
coefficients recovers the CMC sphere from a perturbed start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .functional import (
    FunctionalCoefficients,
    INTERIOR_MARGIN,
    canonical_coefficients,
    el_residual,
    energy,
    max_interior_residual,
    _ProfileFields,
    _energy_density,
    _mean_curvature,
    _pole_safe_ratio,
)
from .geometry import GeometryParams
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
    sphere_from_modes,
    _ModeShape,
    _numerator_min,
    _one_minus_t,
    _panel_nodes,
    _require_admissible,
    _require_sphere_exists,
    _zero_distance,
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
    "SweepSpec",
    "SweepRow",
    "sweep",
    "write_sweep_csv",
    "verify_criticality",
    "verify_minimality",
    "descend_energy",
    "deformed_curve_energy",
    "finite_difference_variation",
    "weak_form_variation",
    "mode_family_energy",
    "default_acceptance_grid",
    "default_perturbation_grid",
]

# Default thresholds by name, for callers that gate on them; the suites read a Tolerances.
RESIDUAL_TOL = Tolerances.residual
ENERGY_TOL = Tolerances.energy
MIN_EXCESS = Tolerances.min_excess
SECOND_SUMMAND_TOL = Tolerances.second_summand
# Central-difference step of the descent gradient.
_GRADIENT_STEP = 1e-6
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


# -- finite-difference first variation --------------------------------------


def _velocity_profile(name: str, profile: Profile) -> np.ndarray:
    if name == "constant":
        return np.ones_like(profile.s)
    if name == "cos_sigma":
        return np.cos(profile.sigma)
    if name == "bump":
        x = (profile.s - profile.s[0]) / profile.arclength
        return np.sin(math.pi * x) ** 4
    raise ValueError(f"unknown velocity profile {name!r}")


def deformed_curve_energy(
    g: GeometryParams,
    s: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    coeffs: FunctionalCoefficients,
) -> float:
    """Energy of a profile curve given by samples, without unit speed.

    The curve (u(s0), v(s0)) may carry any regular parametrization; the
    quotient speed, tangent angle and turning rate are recomputed from the
    samples, and the area element picks up the speed Jacobian.
    """
    k, tau = g.k, g.tau
    # Only the step's scale enters, and the energy does not depend on it:
    # samples uniform in arclength or in any other variable both work.
    h = float(s[1] - s[0])
    A = np.sqrt(1.0 + tau * tau * u * u)
    B = 1.0 + 0.25 * k * u * u
    up = derivative1(u, h)
    vp = derivative1(v, h)
    speed = np.hypot(up / B, vp / A)
    sigma = np.arctan2(vp / A, up / B)
    sigma_dot = derivative1(sigma, h) / speed
    sin_sig = np.sin(sigma)
    ratio = _pole_safe_ratio(u, sin_sig, sigma_dot, u_min=1e-12)
    H = _mean_curvature(k, u, sin_sig, sigma_dot, ratio)
    density = _energy_density(g, coeffs, H, np.cos(sigma) / A, u * A / B, speed)
    return 2.0 * math.pi * sample_quadrature(density, h)


@dataclass(frozen=True)
class VariationResult:
    """Central-difference first variation under one velocity profile."""

    velocity_profile_id: str
    step: float
    dE_dt: float
    truncation_estimate: float

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("variation step must be positive")

    def to_dict(self) -> dict:
        return {
            "velocity_profile": self.velocity_profile_id,
            "step": self.step,
            "dE_dt": self.dE_dt,
            "truncation_estimate": self.truncation_estimate,
        }


def finite_difference_variation(
    profile: Profile,
    coeffs: FunctionalCoefficients,
    velocity: str,
    step: float | None = None,
) -> VariationResult:
    """dE/dt for the normal deformation with the named velocity profile.

    The profile moves along its quotient unit normal
    n = (-(1 + k u^2/4) sin sigma, sqrt(1 + tau^2 u^2) cos sigma) at rate
    phi(s); the derivative is the central difference at half the base step,
    with the step-halving disagreement as truncation estimate.
    """
    g = profile.geometry
    if step is None:
        scale = profile.mean_curvature if profile.mean_curvature else 1.0
        step = 1e-4 / abs(scale)
    phi = _velocity_profile(velocity, profile)
    A = np.sqrt(1.0 + g.tau**2 * profile.u**2)
    B = 1.0 + 0.25 * g.k * profile.u**2
    n_u = -B * np.sin(profile.sigma)
    n_v = A * np.cos(profile.sigma)

    def energy_at(t: float) -> float:
        return deformed_curve_energy(
            g, profile.s, profile.u + t * phi * n_u, profile.v + t * phi * n_v, coeffs
        )

    d_full = (energy_at(step) - energy_at(-step)) / (2.0 * step)
    d_half = (energy_at(0.5 * step) - energy_at(-0.5 * step)) / step
    return VariationResult(
        velocity_profile_id=velocity,
        step=0.5 * step,
        dE_dt=d_half,
        truncation_estimate=abs(d_full - d_half) / 3.0,
    )


def weak_form_variation(
    profile: Profile,
    coeffs: FunctionalCoefficients,
    velocity: str,
) -> float:
    """First variation through the weak form: integral of residual * phi dmu."""
    f = _ProfileFields(profile)
    res = el_residual(profile, coeffs)
    phi = _velocity_profile(velocity, profile)
    m = INTERIOR_MARGIN
    integrand = res * phi * f.mu
    integrand[:m] = 0.0
    integrand[-m:] = 0.0
    return 2.0 * math.pi * sample_quadrature(integrand, f.h)


# -- criticality --------------------------------------------------------------


@dataclass(frozen=True)
class CriticalityReport:
    """Criticality verdict; ``profile`` is the sphere that was checked (not serialized)."""

    geometry: GeometryParams
    H: float
    coefficients: FunctionalCoefficients
    max_residual: float
    residual_tol: float
    variations: tuple[VariationResult, ...]
    variation_tol: float
    energy_value: float
    passed: bool
    profile: Profile = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "k": self.geometry.k,
            "tau": self.geometry.tau,
            "H": self.H,
            "alpha": self.coefficients.alpha,
            "beta": self.coefficients.beta,
            "max_residual": self.max_residual,
            "residual_tol": self.residual_tol,
            "variations": [v.to_dict() for v in self.variations],
            "variation_tol": self.variation_tol,
            "energy": self.energy_value,
            "passed": self.passed,
        }


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
    interior Euler-Lagrange residual, and the finite-difference first
    variation of the energy for each of the velocity profiles in
    ``VELOCITY_PROFILES`` (``tolerances.residual`` and
    ``tolerances.variation``); the sphere is generated under the same
    ``tolerances``.  With non-canonical coefficients the same quantities are
    computed and typically fail, which is the point of the negative control.
    """
    if coeffs is None:
        coeffs = canonical_coefficients(g)
    profile = generate_cmc_sphere(g, H, n_samples=n_samples, tolerances=tolerances)
    max_res = max_interior_residual(profile, coeffs)
    variations = tuple(
        finite_difference_variation(profile, coeffs, name) for name in VELOCITY_PROFILES
    )
    passed = max_res < tolerances.residual and all(
        abs(v.dE_dt) < tolerances.variation for v in variations
    )
    return CriticalityReport(
        geometry=g,
        H=H,
        coefficients=coeffs,
        max_residual=max_res,
        residual_tol=tolerances.residual,
        variations=variations,
        variation_tol=tolerances.variation,
        energy_value=energy(profile, coeffs).E,
        passed=passed,
        profile=profile,
    )


# -- minimality ----------------------------------------------------------------


@dataclass(frozen=True)
class MinimalityEntry:
    epsilon: float
    mode: int
    admissible: bool
    E: float | None = None
    second_summand: float | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "mode": self.mode,
            "admissible": self.admissible,
            "E": self.E,
            "second_summand": self.second_summand,
            "error": self.error,
        }


@dataclass(frozen=True)
class MinimalityReport:
    geometry: GeometryParams
    H: float
    coefficients: FunctionalCoefficients
    baseline_E: float
    baseline_second_summand: float
    entries: tuple[MinimalityEntry, ...]
    evenness_gaps: dict = field(default_factory=dict)
    passed: bool = False

    def to_dict(self) -> dict:
        return {
            "k": self.geometry.k,
            "tau": self.geometry.tau,
            "H": self.H,
            "alpha": self.coefficients.alpha,
            "beta": self.coefficients.beta,
            "baseline_E": self.baseline_E,
            "baseline_second_summand": self.baseline_second_summand,
            "entries": [e.to_dict() for e in self.entries],
            "evenness_gaps": {str(k): v for k, v in self.evenness_gaps.items()},
            "passed": self.passed,
        }


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

    ``coeffs`` defaults to the canonical pair.  Passing requires the
    baseline CMC sphere (generated under ``tolerances``) to sit at 4 pi
    within ``tolerances.energy``, every admissible perturbed sphere to
    exceed it by at least ``tolerances.min_excess``, and every second
    summand to equal 4 pi within ``tolerances.second_summand``.  Grid
    entries whose shape is not a regular profile are reported as
    inadmissible, never fatal.  The report also lists |E(+eps) - E(-eps)| per admissible pair; the energy of this
    family is measurably asymmetric in eps (the shapes are not congruent),
    so the gaps are diagnostics rather than thresholds.  With non-canonical
    coefficients (plain Willmore, say) the baseline misses 4 pi outside the
    space forms and the suite fails: the negative control.  The second
    summands are the canonical split's and do not depend on ``coeffs``.
    """
    if grid is None:
        grid = default_perturbation_grid()
    if coeffs is None:
        coeffs = canonical_coefficients(g)
    baseline = energy(
        generate_cmc_sphere(g, H, n_samples=n_samples, tolerances=tolerances), coeffs
    )
    entries = []
    values: dict[tuple[float, int], float] = {}
    for spec in grid:
        try:
            p = perturbed_sphere(g, H, spec, n_samples=n_samples)
        except InadmissiblePerturbation as exc:
            entries.append(
                MinimalityEntry(
                    epsilon=spec.epsilon, mode=spec.mode, admissible=False, error=str(exc)
                )
            )
            continue
        rep = energy(p, coeffs)
        values[(spec.epsilon, spec.mode)] = rep.E
        entries.append(
            MinimalityEntry(
                epsilon=spec.epsilon,
                mode=spec.mode,
                admissible=True,
                E=rep.E,
                second_summand=rep.second_summand,
            )
        )
    gaps = {}
    for (eps, mode), e_plus in values.items():
        if eps > 0 and (-eps, mode) in values:
            gaps[(eps, mode)] = abs(e_plus - values[(-eps, mode)])
    ok = abs(baseline.E - FOUR_PI) < tolerances.energy
    ok &= abs(baseline.second_summand - FOUR_PI) < tolerances.second_summand
    for entry in entries:
        if not entry.admissible:
            continue
        if entry.epsilon != 0.0 and not entry.E > baseline.E + tolerances.min_excess:
            ok = False
        if abs(entry.second_summand - FOUR_PI) > tolerances.second_summand:
            ok = False
    return MinimalityReport(
        geometry=g,
        H=H,
        coefficients=coeffs,
        baseline_E=baseline.E,
        baseline_second_summand=baseline.second_summand,
        entries=tuple(entries),
        evenness_gaps=gaps,
        passed=ok,
    )


# -- gradient descent over the mode family -------------------------------------


# Gauss-Legendre panels in sigma of mode_family_energy.  The energy
# density is singular at the complex zeros of N and P (poles), of
# B = 1 + k u^2/4 (poles) and of A^2 = 1 + tau^2 u^2 (branch points).  A
# shape whose nearest singularity lies at least _FAMILY_POLE_MARGIN panel
# widths (pi/64 each) off [0, pi] gets 64 panels, any other shape 1024.
# On 16000 random admissible shapes (dims 1-3, k in [-3, 3], |tau| <= 2,
# H down to 0.003 above the existence bound) the 64-panel sum is within
# 6.3e-14 of 1024 panels wherever the singularity lies 2.5 widths off.
# Poles of B are the strongest: 1.5-1.75 widths off they leave up to
# 2.3e-11, 1.75-2 widths 1.5e-13.
_FAMILY_PANELS = 64
_FAMILY_FINE_PANELS = 1024
_FAMILY_POLE_MARGIN = 2.5
# Nodes and weights of the 8-point Gauss panels on [0, pi], by panel count.
_FAMILY_RULES = {
    panels: tuple(a.ravel() for a in _panel_nodes(np.linspace(0.0, math.pi, panels + 1)))
    for panels in (_FAMILY_PANELS, _FAMILY_FINE_PANELS)
}


def _family_panels(g: GeometryParams, h_abs: float, shape: _ModeShape) -> int:
    """Panel count for the family energy of an admissible mode shape."""
    margin = _FAMILY_POLE_MARGIN * math.pi / _FAMILY_PANELS
    distance = math.inf
    # A real trigonometric polynomial f of degree K moves by at most
    # max|f| (e^{K d} - 1) at distance d off the real axis.  P and N have
    # degree 2M: their zeros are sought only when min f is within
    # max f (e^{2 M margin} - 1) of 0.
    growth = math.exp(2 * (shape.p.size - 1) * margin)
    for series, (low, high) in ((shape.p, shape.p_range), (shape.n, shape.n_range)):
        if low <= high * (growth - 1.0):
            distance = min(distance, _zero_distance(series))
    # 1 + a u^2 (A^2 with a = tau^2, B with a = k/4) vanishes only where
    # u = +-1/sqrt(-a) (a < 0) or u = +-i/sqrt(a) (a > 0).  Within the
    # margin, |u| <= max u e^{(2M + 1) margin} (u has degree 2M + 1), and with
    # u = sin(sigma) P/H and delta = max|P - 1| on the real axis,
    # |u| <= (cosh(margin) (1 + delta growth))/H and
    # |Im u| <= (sinh(margin) (1 + delta growth) + cosh(margin) delta (growth - 1))/H.
    p_low, p_high = shape.p_range
    delta = max(p_high - 1.0, 1.0 - p_low)
    reach = min(
        shape.u_max * growth * math.exp(margin),
        math.cosh(margin) * (1.0 + delta * growth) / h_abs,
    )
    imag_reach = min(
        reach,
        (math.sinh(margin) * (1.0 + delta * growth) + math.cosh(margin) * delta * (growth - 1.0))
        / h_abs,
    )
    near = [
        a
        for a in (g.tau * g.tau, 0.25 * g.k)
        if (imag_reach if a > 0.0 else reach) ** 2 * abs(a) >= 1.0
    ]
    if near:
        u_sq = _one_minus_t(cheb.chebmul(shape.p, shape.p)) / (2.0 * h_abs * h_abs)
        for a in near:
            f = a * u_sq
            f[0] += 1.0
            distance = min(distance, _zero_distance(f))
    return _FAMILY_PANELS if distance >= margin else _FAMILY_FINE_PANELS


def mode_family_energy(
    g: GeometryParams,
    H: float,
    coeffs_vec,
    functional_coeffs: FunctionalCoefficients | None = None,
) -> float:
    """Energy of the mode-family sphere, evaluated in closed form.

    Everything is analytic in the turning angle, so the integral needs no
    profile reconstruction and no stencils: an 8-point Gauss sum over 64
    panels in sigma, or 1024 for shapes whose density has a complex
    singularity close to the real axis (:func:`_family_panels`).  Shapes
    that :func:`sphere_from_modes` rejects (decided exactly on the
    Chebyshev series of P and N in cos(2 sigma)) return infinity.  Serves
    both as the descent objective and as an independent cross-check of the
    sample-based energy pipeline.
    """
    if functional_coeffs is None:
        functional_coeffs = canonical_coefficients(g)
    coeffs_vec = np.atleast_1d(np.asarray(coeffs_vec, dtype=float))
    h_abs = abs(H)
    try:
        shape = _require_admissible(g, h_abs, coeffs_vec)
    except InadmissiblePerturbation:
        return math.inf
    k, tau = g.k, g.tau
    sig, weights = _FAMILY_RULES[_family_panels(g, h_abs, shape)]
    sin_sig = np.sin(sig)
    t = np.cos(2.0 * sig)
    p = cheb.chebval(t, shape.p)
    n = cheb.chebval(t, shape.n)
    u = sin_sig * p / h_abs
    A = np.sqrt(1.0 + tau * tau * u * u)
    B = 1.0 + 0.25 * k * u * u
    ds_dsigma = n / (h_abs * B)
    # sin(sigma)/u = H/P in closed form: no pole at the ends.
    Hm = _mean_curvature(k, u, sin_sig, 1.0 / ds_dsigma, h_abs / p)
    density = _energy_density(g, functional_coeffs, Hm, np.cos(sig) / A, u * A / B, ds_dsigma)
    return 2.0 * math.pi * float(np.dot(weights, density))


@dataclass(frozen=True)
class DescentReport:
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

    def to_dict(self) -> dict:
        return {
            "k": self.geometry.k,
            "tau": self.geometry.tau,
            "H": self.H,
            "converged": self.converged,
            "iterations": self.iterations,
            "energy_final": self.energy_final,
            "coefficients_final": list(self.coefficients_final),
            "gradient_norm": self.gradient_norm,
            "refit_H": self.refit_H,
            "identity_residual": self.identity_residual,
            "start_coefficients": list(self.start_coefficients),
            "start_adjusted": self.start_adjusted,
        }


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
    """Gradient descent over the mode-family coefficients toward the CMC sphere.

    The comparison mean curvature stays fixed during the descent; the best
    H is refit on the final shape.  Steps use the Barzilai-Borwein length
    with Armijo backtracking (plain fixed-step descent needs more than the
    iteration budget at this family's conditioning).  A start on the
    family's regularity boundary (for instance amplitude 0.2 in mode 1,
    where ds/dsigma vanishes at the equator) is scaled by 0.97 until the
    exact minimum of the regularity numerator N exceeds 0.03.  Convergence
    means every coefficient below ``tolerances.descent_coeff`` and the
    energy within ``tolerances.energy`` of 4 pi, on the final shape rebuilt
    by :func:`sphere_from_modes` with ``n_samples`` samples.
    """
    _require_sphere_exists(g, H_init)
    coeff_tol, energy_tol = tolerances.descent_coeff, tolerances.energy
    if family_dims < 1:
        raise ValueError("family_dims must be at least 1")
    if start is None:
        start = PerturbationSpec(0.2, 1)
    if start.mode > family_dims:
        raise ValueError("start mode exceeds family_dims")

    c = np.zeros(family_dims)
    c[start.mode - 1] = start.epsilon
    start_vec = tuple(c)

    def objective(vec: np.ndarray) -> float:
        return mode_family_energy(g, H_init, vec)

    adjusted = False
    for _ in range(40):
        if _numerator_min(c) > 0.03:
            break
        c = c * 0.97
        adjusted = True
    else:
        raise InadmissiblePerturbation("descent start could not be pulled into the family")

    def gradient(vec: np.ndarray) -> np.ndarray:
        grad = np.empty_like(vec)
        for i in range(vec.size):
            e = np.zeros_like(vec)
            e[i] = _GRADIENT_STEP
            grad[i] = (objective(vec + e) - objective(vec - e)) / (2.0 * _GRADIENT_STEP)
        return grad

    f_val = objective(c)
    grad = gradient(c)
    prev_c = None
    prev_grad = None
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        if np.max(np.abs(c)) < coeff_tol and f_val - FOUR_PI < energy_tol:
            converged = True
            iterations -= 1
            break
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:
            converged = np.max(np.abs(c)) < coeff_tol
            break
        if prev_c is None:
            step = 0.1 / math.sqrt(gnorm2)
        else:
            dc = c - prev_c
            dg = grad - prev_grad
            denom = float(dc @ dg)
            step = float(dc @ dc) / denom if denom > 0.0 else 0.1 / math.sqrt(gnorm2)
            step = min(max(step, 1e-8), 100.0)
        trial = step
        for _ in range(50):
            candidate = c - trial * grad
            f_new = objective(candidate)
            if f_new <= f_val - 1e-4 * trial * gnorm2:
                break
            trial *= 0.5
        else:
            break
        prev_c, prev_grad = c, grad
        c, f_val = candidate, f_new
        grad = gradient(c)
    else:
        iterations = max_iterations

    final_profile = sphere_from_modes(g, H_init, c, n_samples=n_samples)
    final_energy = energy(final_profile).E
    sin_sig = np.sin(final_profile.sigma)
    refit = float(np.dot(sin_sig, final_profile.u) / np.dot(final_profile.u, final_profile.u))
    identity_residual = float(np.max(np.abs(sin_sig - refit * final_profile.u)))
    if not (np.max(np.abs(c)) < coeff_tol and abs(final_energy - FOUR_PI) < energy_tol):
        converged = False
    return DescentReport(
        geometry=g,
        H=H_init,
        converged=converged,
        iterations=iterations,
        energy_final=final_energy,
        coefficients_final=tuple(float(x) for x in c),
        gradient_norm=float(np.linalg.norm(grad)),
        refit_H=refit,
        identity_residual=identity_residual,
        start_coefficients=start_vec,
        start_adjusted=adjusted,
    )


# -- parameter sweeps -----------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Cross product of parameter values for a sweep."""

    k_values: tuple[float, ...]
    tau_values: tuple[float, ...]
    H_values: tuple[float, ...]
    perturbation_grid: tuple[PerturbationSpec, ...] = ()

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        grid = tuple(
            PerturbationSpec(float(entry["epsilon"]), int(entry["mode"]))
            for entry in data.get("perturbation_grid", [])
        )
        return cls(
            k_values=tuple(float(x) for x in data.get("k_values", [])),
            tau_values=tuple(float(x) for x in data.get("tau_values", [])),
            H_values=tuple(float(x) for x in data.get("H_values", [])),
            perturbation_grid=grid,
        )

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


_SWEEP_HEADER = "k,tau,H,exists,E,max_residual,second_summand,u_max,area,error"


def _sweep_row(
    case: tuple[float, float, float], n_samples: int, tolerances: Tolerances
) -> SweepRow:
    k, tau, H = case
    try:
        g = GeometryParams(k, tau)
    except ValueError as exc:  # k or tau not finite: no such geometry
        return SweepRow(k=k, tau=tau, H=H, exists=False, error=f"{type(exc).__name__}: {exc}")
    try:
        profile = generate_cmc_sphere(g, H, n_samples=n_samples, tolerances=tolerances)
        report = energy(profile)
        residual = max_interior_residual(profile, canonical_coefficients(g))
        return SweepRow(
            k=k,
            tau=tau,
            H=H,
            exists=True,
            E=report.E,
            max_residual=residual,
            second_summand=report.second_summand,
            u_max=float(np.max(profile.u)),
            area=report.area,
        )
    except ExistenceViolation as exc:
        return SweepRow(k=k, tau=tau, H=H, exists=False, error=f"ExistenceViolation: {exc}")
    except Exception as exc:  # per-row isolation: a sweep never aborts
        # the sphere exists; generating or evaluating it failed
        return SweepRow(k=k, tau=tau, H=H, exists=True, error=f"{type(exc).__name__}: {exc}")


def sweep(
    spec: SweepSpec, *, n_samples: int = DEFAULT_SAMPLES, tolerances: Tolerances = Tolerances()
) -> list[SweepRow]:
    """One row per (k, tau, H) in input order, each sphere generated under ``tolerances``.

    Failures stay in their row.  ``exists`` is false only where there is no
    sphere: an :class:`ExistenceViolation`, or a (k, tau) that
    :class:`GeometryParams` rejects.  Any other failure keeps
    ``exists=True`` next to its error text.
    """
    return [_sweep_row(c, n_samples, tolerances) for c in spec.cases()]


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_sweep_csv(rows: list[SweepRow], fh) -> None:
    """Write the sweep table with shortest round-trip float formatting."""
    fh.write(_SWEEP_HEADER + "\n")
    for r in rows:
        fields = [
            r.k, r.tau, r.H, r.exists, r.E, r.max_residual,
            r.second_summand, r.u_max, r.area,
        ]
        text = ",".join(_format_field(x) for x in fields)
        error = r.error.replace('"', "'")
        if "," in error:
            error = f'"{error}"'
        fh.write(f"{text},{error}\n")
