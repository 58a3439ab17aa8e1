"""Shooting the full profile system, the independent check of the closed-form CMC spheres.

The package samples every CMC sphere on its closed-form J = 0 branch
(``generate_cmc_sphere``).  This module integrates the full system

    u' = (1 + k u^2/4) cos(sigma)
    v' = sqrt(1 + tau^2 u^2) sin(sigma)
    sigma' = 2 H - (1/u - k u/4) sin(sigma)

with ``scipy.integrate.solve_ivp`` from any start, for the tests that
compare against it.  The axis is a removable singularity of the sigma
equation: on the sphere branch sin(sigma)/u -> H, so integration starts a
small arclength ``AXIS_SERIES_S0`` off the pole with the first-order
series u = s, sigma = H s, v = v0.  Failures raise the package's
``IntegrationError``; results are open ``Profile`` objects uniform in
arclength.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from thurston_willmore.geometry import GeometryParams, _a_squared, _b_factor
from thurston_willmore.profile import (
    _GENERATOR_BOUNDS,
    DEFAULT_SAMPLES,
    IntegrationError,
    Profile,
    _first_integral,
    _j_drift,
)

# Offset of :func:`integrate`'s series start from the pole (the start error is O(s0^2)).
AXIS_SERIES_S0 = 1e-6
# Integration stops at sigma = pi - margin; on the exact sphere the
# residual u there measures the accumulated error.
SIGMA_STOP_MARGIN = 1e-7
# Integrator tolerances of :func:`integrate`.  Conservation of J to 1e-8 must
# hold on arclengths up to ~20 near the existence boundary, which needs
# tighter tolerances than the conservation target.
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14

_U_AXIS_COLLISION = 1e-10


@dataclass(frozen=True)
class ProfileState:
    """One point (s, u, v, sigma) on a profile curve."""

    s: float
    u: float
    v: float
    sigma: float


@dataclass(frozen=True)
class StopCondition:
    """Termination rule for trajectory integration.

    With ``sigma_target`` set, integration stops when sigma reaches it and
    it is an error to run past ``max_arclength`` without getting there.
    Without it, the trajectory is simply integrated out to
    ``max_arclength``.
    """

    max_arclength: float
    sigma_target: float | None = None

    def __post_init__(self):
        if not self.max_arclength > 0.0:
            raise ValueError("max_arclength must be positive")

    @classmethod
    def sphere_closure(cls, max_arclength: float, margin: float = SIGMA_STOP_MARGIN):
        return cls(max_arclength=max_arclength, sigma_target=math.pi - margin)

    @classmethod
    def arclength(cls, max_arclength: float):
        return cls(max_arclength=max_arclength)


def ode_rhs(g: GeometryParams, H: float, state: ProfileState) -> tuple[float, float, float]:
    """Right-hand side (du/ds, dv/ds, dsigma/ds) of the profile system.

    The sigma equation carries a 1/u term: axis points are rejected and
    must be handled through the series start in :func:`integrate`.
    """
    if not state.u > 0.0:
        raise ValueError("ode_rhs requires u > 0; use the axis series start instead")
    return _make_rhs(g, H)(state.s, (state.u, state.v, state.sigma))


def first_integral(g: GeometryParams, H: float, state: ProfileState) -> float:
    """Conserved quantity J = u (sin(sigma) - H u) / (1 + k u^2/4)."""
    return _first_integral(g, H, state.u, math.sin(state.sigma))


def cmc_sigma_rate(g: GeometryParams, H: float, u) -> float | np.ndarray:
    """Turning rate dsigma/ds on a CMC sphere: H (1 + k u^2/4).

    Follows from substituting the sphere identity sin(sigma) = H u into the
    sigma equation; serves as an independent oracle for the integrator.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0 / abs(H) + 1e-9):
        raise ValueError("u must lie in [0, 1/|H|] on a CMC sphere")
    if np.any(u_arr >= g.domain_radius):
        raise ValueError("u must stay below the domain radius")
    out = H * _b_factor(g, u_arr)
    return out if out.ndim else float(out)


def _is_axis_start(state: ProfileState) -> bool:
    return state.u < AXIS_SERIES_S0


def _make_rhs(g: GeometryParams, H: float):
    k = g.k

    def rhs(s, y):
        u, _, sig = y
        # Floor only shields trial evaluations past the axis event; accepted
        # steps are terminated by the event before reaching it.
        ui = u if u > 1e-13 else 1e-13
        return (
            _b_factor(g, u) * math.cos(sig),
            math.sqrt(_a_squared(g, u)) * math.sin(sig),
            2.0 * H - (1.0 / ui - 0.25 * k * u) * math.sin(sig),
        )

    return rhs


def _initial_point(start: ProfileState, H: float):
    """Initial solver state; axis starts get the series point off the pole."""
    if not start.u >= 0.0:
        raise ValueError(f"start radius must be nonnegative, got {start.u}")
    if not _is_axis_start(start):
        return start.s, (start.u, start.v, start.sigma), None
    sig0 = start.sigma % (2.0 * math.pi)
    if min(abs(sig0), abs(sig0 - 2.0 * math.pi)) < 1e-9:
        base = 0.0
    elif abs(sig0 - math.pi) < 1e-9:
        base = math.pi
    else:
        raise ValueError("axis starts require sigma = 0 or pi")
    s_begin = start.s + AXIS_SERIES_S0
    sign = 1.0 if base == 0.0 else -1.0
    y0 = (AXIS_SERIES_S0, start.v, base + sign * H * AXIS_SERIES_S0)
    return s_begin, y0, AXIS_SERIES_S0 / 4.0


def _terminal(event, direction: float):
    """Mark a solve_ivp event function as terminal, crossing in ``direction``."""
    event.terminal = True
    event.direction = direction
    return event


def integrate(
    g: GeometryParams,
    H: float,
    start: ProfileState,
    stop: StopCondition,
    *,
    n_samples: int = DEFAULT_SAMPLES,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    conservation: float = _GENERATOR_BOUNDS["conservation"],
) -> Profile:
    """Integrate the profile system from ``start`` until ``stop``.

    Axis starts (u = 0 with sigma near 0 or pi) are replaced by the series
    point a distance ``AXIS_SERIES_S0`` along the sphere branch.  The
    result is resampled on a uniform arclength grid, and the drift of the
    first integral over the returned samples must stay below
    ``conservation``, which must be finite and at least 0.
    """
    if not (math.isfinite(conservation) and conservation >= 0.0):
        raise ValueError(f"conservation must be finite and at least 0, got {conservation}")
    if start.u >= g.domain_radius:
        raise ValueError(
            f"start radius {start.u} lies outside the domain (radius {g.domain_radius})"
        )
    s_begin, y0, first_step = _initial_point(start, H)
    events = [_terminal(lambda s, y: y[0] - _U_AXIS_COLLISION, -1.0)]
    if stop.sigma_target is not None:
        events.append(_terminal(lambda s, y: y[2] - stop.sigma_target, 1.0))
    bounded = math.isfinite(g.domain_radius)
    if bounded:
        exit_radius = g.domain_radius * (1.0 - 1e-12)
        events.append(_terminal(lambda s, y: y[0] - exit_radius, 1.0))
    sol = solve_ivp(
        _make_rhs(g, H),
        (s_begin, s_begin + stop.max_arclength),
        y0,
        method="RK45",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=events,
        first_step=first_step,
    )
    if sol.status == -1:
        raise IntegrationError(f"integration failed: {sol.message}")
    if bounded and sol.t_events[-1].size:
        raise IntegrationError("trajectory left the domain of the geometry")
    if sol.t_events[0].size:
        raise IntegrationError("trajectory collided with the rotation axis")
    if stop.sigma_target is None:
        s_end = float(sol.t[-1])
    elif sol.t_events[1].size:
        s_end = float(sol.t_events[1][0])
    else:
        raise IntegrationError(
            f"sigma target {stop.sigma_target} not reached within arclength "
            f"{stop.max_arclength}"
        )
    grid = np.linspace(s_begin, s_end, n_samples)
    u, v, sigma = sol.sol(grid)
    drift = _j_drift(g, H, u, np.sin(sigma), conservation)
    used = {"rtol": rtol, "atol": atol, "conservation": conservation}
    return Profile(s=grid, u=u, v=v, sigma=sigma, geometry=g, j_drift=drift, tolerances=used)
