"""Profile curves of rotationally invariant surfaces in E(k, tau).

A rotationally invariant surface projects to a curve gamma(s) = (u(s), v(s))
in the orbit-quotient half-plane, parametrized by quotient arclength s.
With sigma the angle between the curve tangent and the u-axis, a surface of
mean curvature H satisfies

    u' = (1 + k u^2/4) cos(sigma)
    v' = sqrt(1 + tau^2 u^2) sin(sigma)
    sigma' = 2 H - (1/u - k u/4) sin(sigma)

which conserves J = u (sin(sigma) - H u) / (1 + k u^2/4).  Spheres are the
J = 0 trajectories: they run from an axis touchdown (u = 0, sigma = 0) to
the opposite one (u = 0, sigma = pi) and obey sin(sigma) = H u throughout,
forcing the apex u = 1/H at the equator.  A closed sphere of constant mean
curvature H exists iff H^2 > -k/4 (for k <= 0), respectively H != 0 (for
k > 0, where the domain is unbounded but a minimal sphere still cannot
close up).

On the sphere branch the sigma equation reduces to
sigma' = H + k sin^2(sigma)/(4 H), which integrates in closed form: with
w = sqrt(H^2 + k/4), sigma(s) = atan2(H sin(w s), w cos(w s)) and
u = sin(sigma)/H, closing up at the arclength L = pi/w.  The existence
condition is w^2 > 0.  :func:`generate_cmc_sphere` samples this closed
form; only the height v needs a quadrature.

Shooting the full system stays available through :func:`integrate`, the
independent check of the closed form.  The axis is a removable singularity
of the sigma equation: on the sphere branch sin(sigma)/u -> H, so
integration starts a small arclength ``AXIS_SERIES_S0`` off the pole with
the first-order series u = s, sigma = H s, v = v0.

Perturbed (non-CMC) competitor spheres come from the explicit family
u(sigma) = (1/H) sin(sigma) (1 + sum_m c_m cos(2 m sigma)), reconstructing
the arclength from ds/dsigma = u'(sigma) / ((1 + k u^2/4) cos(sigma)).
The cos(sigma) zero at the equator cancels exactly against the factor
sin(2 m sigma) in u'(sigma), so the reconstruction uses the reduced
identity sin(2 m sigma)/cos(sigma) = 2 sum_j (-1)^j sin((2m-1-2j) sigma)
and is smooth through the equator.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.optimize import brentq  # no caller; perfbench/tracer.py wraps profile.brentq

from .geometry import GeometryParams

__all__ = [
    "Tolerances",
    "AXIS_EPSILON",
    "AXIS_SERIES_S0",
    "SIGMA_STOP_MARGIN",
    "DEFAULT_RTOL",
    "DEFAULT_ATOL",
    "DEFAULT_SAMPLES",
    "ExistenceViolation",
    "IntegrationError",
    "InadmissiblePerturbation",
    "Closure",
    "ProfileState",
    "Profile",
    "PerturbationSpec",
    "StopCondition",
    "ode_rhs",
    "first_integral",
    "profile_first_integral",
    "integrate",
    "generate_cmc_sphere",
    "cmc_sigma_rate",
    "perturbed_sphere",
    "sphere_from_modes",
    "mode_shape_functions",
]


@dataclass(frozen=True)
class Tolerances:
    """Every named threshold of the package, in one frozen record.

    Library calls take it as ``tolerances=``; ``tw`` sets each field with
    ``--tol-<name>`` (underscores hyphenated) and echoes the record it ran with.
    """

    # sphere generator: drift of J, |sin(sigma) - |H| u|, distance of the ends to the axis
    conservation: float = 1e-8
    closure_identity: float = 1e-8
    axis_epsilon: float = 1e-5
    # criticality: interior EL residual, finite-difference first variation
    residual: float = 1e-4
    variation: float = 1e-5
    # minimality and descent: |E - 4 pi|, least E(competitor) - E(sphere),
    # |second summand - 4 pi|
    energy: float = 1e-6
    min_excess: float = 1e-7
    second_summand: float = 1e-6
    # tw verify identities: h^2 identity, Willmore relation, Gauss-Bonnet,
    # second-summand derivative
    identity: float = 1e-12
    relation: float = 1e-8
    gauss_bonnet: float = 1e-3
    derivative_check: float = 1e-5
    # descent converges once every mode coefficient is below this
    descent_coeff: float = 1e-4


# Closure acceptance: how close to the axis the profile must return.
AXIS_EPSILON = Tolerances.axis_epsilon
# Offset of the series start from the pole (the start error is O(s0^2)),
# and of the end samples of a generated sphere.
AXIS_SERIES_S0 = 1e-6
# Integration stops at sigma = pi - margin; on the exact sphere the
# residual u there measures the accumulated error.
SIGMA_STOP_MARGIN = 1e-7
# Integrator tolerances of :func:`integrate`.  Conservation of J to 1e-8 must
# hold on arclengths up to ~20 near the existence boundary, which needs
# tighter tolerances than the conservation target.
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14
# Uniform resampling: 2048 panels.
DEFAULT_SAMPLES = 2049
# Gauss panels in sigma of the mode-family construction.
_CONSTRUCTION_PANELS = 2048

_U_AXIS_COLLISION = 1e-10
_COLUMNS = ("s", "u", "v", "sigma")


class ExistenceViolation(ValueError):
    """No CMC sphere exists for the requested (k, tau, H)."""


class IntegrationError(RuntimeError):
    """Trajectory integration failed or violated a post-condition."""


class InadmissiblePerturbation(ValueError):
    """A perturbed sphere shape is not a regular profile."""


class Closure(enum.Enum):
    CLOSED_SPHERE = "ClosedSphere"
    OPEN = "Open"


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


@dataclass(eq=False)
class Profile:
    """A sampled profile curve with geometry and closure metadata.

    Samples are uniform in arclength.  ``mean_curvature`` is set only for
    profiles generated as CMC spheres and stores the canonical positive H;
    ``orientation`` is -1 when the profile represents the mirror surface of
    a negative requested H.
    """

    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    geometry: GeometryParams
    mean_curvature: float | None = None
    closure: Closure = Closure.OPEN
    orientation: int = 1
    j_drift: float | None = None
    closure_residual: float | None = None
    tolerances: dict | None = None

    def __post_init__(self):
        # Own copies, frozen: profiles are safe to share across threads.
        for name in ("s", "u", "v", "sigma"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            setattr(self, name, arr)
        n = self.s.size
        if n < 5:
            raise ValueError("profile needs at least 5 samples")
        if any(getattr(self, name).size != n for name in ("u", "v", "sigma")):
            raise ValueError("sample arrays must have equal length")
        if not np.all(np.diff(self.s) > 0.0):
            raise ValueError("samples must be strictly increasing in s")
        if np.any(self.u < 0.0):
            raise ValueError("u must be nonnegative")
        if np.any(self.u[1:-1] <= 0.0):
            raise ValueError("interior samples must have u > 0")
        if np.any(self.u >= self.geometry.domain_radius):
            raise ValueError("profile leaves the domain of the geometry")
        if self.closure is Closure.CLOSED_SPHERE:
            if self.u[0] > AXIS_EPSILON or self.u[-1] > AXIS_EPSILON:
                raise ValueError("closed sphere must start and end on the axis")
            if abs(self.sigma[0]) > 1e-3 or abs(self.sigma[-1] - math.pi) > 1e-3:
                raise ValueError("closed sphere must turn from sigma=0 to sigma=pi")

    def __len__(self) -> int:
        return self.s.size

    @property
    def arclength(self) -> float:
        return float(self.s[-1] - self.s[0])

    @property
    def spacing(self) -> float:
        """Uniform grid step; raises if the samples are not uniform."""
        d = np.diff(self.s)
        h = float(d.mean())
        if not np.allclose(d, h, rtol=1e-8, atol=1e-13):
            raise ValueError("profile samples are not uniformly spaced")
        return h

    def state(self, i: int) -> ProfileState:
        return ProfileState(
            s=float(self.s[i]), u=float(self.u[i]), v=float(self.v[i]), sigma=float(self.sigma[i])
        )

    # -- serialization ---------------------------------------------------

    def metadata(self) -> dict:
        """Geometry, closure and diagnostics: the CSV sidecar and the JSON form share it."""
        return {
            "schema": "profile/1",
            "geometry": self.geometry.to_dict(),
            "mean_curvature": self.mean_curvature,
            "closure": self.closure.value,
            "orientation": self.orientation,
            "n_samples": int(self.s.size),
            "j_drift": self.j_drift,
            "closure_residual": self.closure_residual,
            "tolerances": self.tolerances,
        }

    @classmethod
    def _from_metadata(cls, meta: dict, s, u, v, sigma) -> "Profile":
        mean_curvature = meta.get("mean_curvature")
        return cls(
            s=s,
            u=u,
            v=v,
            sigma=sigma,
            geometry=GeometryParams.from_dict(meta["geometry"]),
            mean_curvature=None if mean_curvature is None else float(mean_curvature),
            closure=Closure(meta.get("closure", "Open")),
            orientation=int(meta.get("orientation", 1)),
            j_drift=meta.get("j_drift"),
            closure_residual=meta.get("closure_residual"),
            tolerances=meta.get("tolerances"),
        )

    def to_csv(self, path, metadata: dict | None = None) -> None:
        """Write samples as CSV plus a JSON sidecar ``<path>.json``.

        Floats use shortest round-trip formatting, so reading the file back
        reproduces the arrays bit for bit.
        """
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_COLUMNS)
            for row in zip(self.s, self.u, self.v, self.sigma):
                writer.writerow([repr(float(x)) for x in row])
        _write_json(self._sidecar_path(path), {**self.metadata(), **(metadata or {})})

    @staticmethod
    def _sidecar_path(path: Path) -> Path:
        return path.with_name(path.name + ".json")

    @classmethod
    def from_csv(cls, path) -> "Profile":
        path = Path(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float, ndmin=2)
        if data.shape[1] != 4:
            raise ValueError(f"profile CSV must have 4 columns s,u,v,sigma, got {data.shape[1]}")
        sidecar_path = cls._sidecar_path(path)
        if not sidecar_path.exists():
            raise FileNotFoundError(f"missing profile sidecar {sidecar_path}")
        with sidecar_path.open() as fh:
            meta = json.load(fh)
        return cls._from_metadata(meta, *data.T)

    def to_json(self, path, metadata: dict | None = None) -> None:
        """Write one JSON file: ``metadata`` plus the profile with its samples inlined.

        Samples are stored as shortest round-trip strings, so reading the
        file back reproduces the arrays bit for bit.
        """
        profile = self.metadata()
        profile["samples"] = {
            name: [repr(float(x)) for x in getattr(self, name)] for name in _COLUMNS
        }
        _write_json(Path(path), {**(metadata or {}), "profile": profile})

    @classmethod
    def from_json(cls, path) -> "Profile":
        with Path(path).open() as fh:
            data = json.load(fh)
        if "profile" in data:
            data = data["profile"]
        samples = data["samples"]
        return cls._from_metadata(
            data, *(np.array([float(x) for x in samples[name]]) for name in _COLUMNS)
        )


def _write_json(path: Path, document: dict) -> None:
    with path.open("w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class PerturbationSpec:
    """Amplitude and angular frequency of a sphere shape modulation.

    The amplitude bound keeping the reconstructed profile regular
    (ds/dsigma > 0 everywhere) depends on the mode and is enforced when the
    profile is constructed, not here.
    """

    epsilon: float
    mode: int

    def __post_init__(self):
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        if int(self.mode) != self.mode or self.mode < 1:
            raise ValueError(f"mode must be a positive integer, got {self.mode}")
        object.__setattr__(self, "mode", int(self.mode))
        object.__setattr__(self, "epsilon", float(self.epsilon))


# -- the ODE system -------------------------------------------------------


def ode_rhs(g: GeometryParams, H: float, state: ProfileState) -> tuple[float, float, float]:
    """Right-hand side (du/ds, dv/ds, dsigma/ds) of the profile system.

    The sigma equation carries a 1/u term: axis points are rejected and
    must be handled through the series start in :func:`integrate`.
    """
    if not state.u > 0.0:
        raise ValueError("ode_rhs requires u > 0; use the axis series start instead")
    u, sig = state.u, state.sigma
    b = 1.0 + 0.25 * g.k * u * u
    du = b * math.cos(sig)
    dv = math.sqrt(1.0 + g.tau**2 * u * u) * math.sin(sig)
    dsig = 2.0 * H - (1.0 / u - 0.25 * g.k * u) * math.sin(sig)
    return du, dv, dsig


def first_integral(g: GeometryParams, H: float, state: ProfileState) -> float:
    """Conserved quantity J = u (sin(sigma) - H u) / (1 + k u^2/4)."""
    u = state.u
    return u * (math.sin(state.sigma) - H * u) / (1.0 + 0.25 * g.k * u * u)


def profile_first_integral(g: GeometryParams, H: float, profile: Profile) -> np.ndarray:
    """J evaluated at every sample of a profile."""
    u = profile.u
    return u * (np.sin(profile.sigma) - H * u) / (1.0 + 0.25 * g.k * u * u)


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
    out = H * (1.0 + 0.25 * g.k * u_arr * u_arr)
    return out if out.ndim else float(out)


def _is_axis_start(state: ProfileState) -> bool:
    return state.u < AXIS_SERIES_S0


def _make_rhs(g: GeometryParams, H: float):
    k, tau2 = g.k, g.tau**2

    def rhs(s, y):
        u, _, sig = y
        # Floor only shields trial evaluations past the axis event; accepted
        # steps are terminated by the event before reaching it.
        ui = u if u > 1e-13 else 1e-13
        b = 1.0 + 0.25 * k * u * u
        return (
            b * math.cos(sig),
            math.sqrt(1.0 + tau2 * u * u) * math.sin(sig),
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


def _j_drift(g: GeometryParams, H: float, profile: Profile, conservation_tol: float) -> float:
    """Largest change of J over the samples; raises past ``conservation_tol``."""
    j = profile_first_integral(g, H, profile)
    drift = float(np.max(np.abs(j - j[0])))
    if drift > conservation_tol:
        raise IntegrationError(
            f"first-integral drift {drift:.3e} exceeds tolerance {conservation_tol:.1e}"
        )
    return drift


def integrate(
    g: GeometryParams,
    H: float,
    start: ProfileState,
    stop: StopCondition,
    *,
    n_samples: int = DEFAULT_SAMPLES,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    tolerances: Tolerances = Tolerances(),
) -> Profile:
    """Integrate the profile system from ``start`` until ``stop``.

    Axis starts (u = 0 with sigma near 0 or pi) are replaced by the series
    point a distance ``AXIS_SERIES_S0`` along the sphere branch.  The
    result is resampled on a uniform arclength grid, and the drift of the
    first integral over the returned samples must stay below
    ``tolerances.conservation``.
    """
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
    profile = Profile(s=grid, u=u, v=v, sigma=sigma, geometry=g)
    return replace(
        profile,
        j_drift=_j_drift(g, H, profile, tolerances.conservation),
        tolerances={"rtol": rtol, "atol": atol, "conservation": tolerances.conservation},
    )


def _require_sphere_exists(g: GeometryParams, H: float) -> None:
    if g.k > 0.0:
        if H == 0.0:
            raise ExistenceViolation(
                f"no CMC sphere in E(k={g.k}, tau={g.tau}): requires H != 0 for k > 0"
            )
        return
    if H * H <= -0.25 * g.k + 1e-12:
        raise ExistenceViolation(
            f"no CMC sphere in E(k={g.k}, tau={g.tau}) with H={H}: requires H^2 > -k/4"
        )


_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each interval of ``edges``."""
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (b - a) * (_GL8_NODES[None, :] + 1.0) + a
    weights = 0.5 * (b - a) * _GL8_WEIGHTS[None, :]
    return nodes, weights


def generate_cmc_sphere(
    g: GeometryParams,
    H: float,
    *,
    n_samples: int = DEFAULT_SAMPLES,
    tolerances: Tolerances = Tolerances(),
) -> Profile:
    """The rotationally invariant CMC sphere of mean curvature H, in closed form.

    With w = sqrt(H^2 + k/4) the sphere branch is sigma(s) =
    atan2(H sin(w s), w cos(w s)), u = sin(sigma)/H, of arclength
    L = pi/w.  The samples are uniform in s from ``AXIS_SERIES_S0`` to
    L - ``AXIS_SERIES_S0``, the offset at which :func:`integrate` starts its
    axis series.  The end samples stay off the axis: with u = 0 there, the
    finite-difference first variation of the criticality suite reads about
    6e4 instead of staying below 1e-5.  The height v runs from 0 and adds,
    over each grid interval, the 8-point Gauss integral of
    v' = sqrt(1 + tau^2 u^2) sin(sigma).

    The samples are checked as a shot sphere would be: the first integral
    J drifts by at most ``tolerances.conservation``, sigma increases
    strictly, the identity sin(sigma) = |H| u holds to
    ``tolerances.closure_identity``, and both end samples lie within
    ``tolerances.axis_epsilon`` of the axis with sigma within 1e-3 of 0 and
    pi.  ``closure_residual`` records |sin(sigma) - |H| u| at the
    last sample.  :func:`integrate` shoots the same sphere independently.

    A negative H requests the mirror surface: the returned samples are the
    canonical H > 0 profile with ``orientation`` set to -1.  ``n_samples``
    must be odd so the equator is a sample.
    """
    _require_sphere_exists(g, H)
    if n_samples < 9 or n_samples % 2 == 0:
        raise ValueError("n_samples must be odd and at least 9")
    h_abs = abs(H)
    w = math.sqrt(h_abs * h_abs + 0.25 * g.k)

    def branch(s):
        sigma = np.arctan2(h_abs * np.sin(w * s), w * np.cos(w * s))
        return sigma, np.sin(sigma)

    grid = np.linspace(AXIS_SERIES_S0, math.pi / w - AXIS_SERIES_S0, n_samples)
    sigma, sin_sig = branch(grid)
    u = sin_sig / h_abs
    if np.max(u) >= g.domain_radius * (1.0 - 1e-12):
        raise IntegrationError("sphere leaves the domain of the geometry")
    if u[0] > tolerances.axis_epsilon or u[-1] > tolerances.axis_epsilon:
        raise IntegrationError(
            f"sphere failed to close: u = {max(u[0], u[-1]):.3e} at an end exceeds "
            f"{tolerances.axis_epsilon:.1e}"
        )
    if abs(sigma[0]) > 1e-3 or abs(sigma[-1] - math.pi) > 1e-3:
        raise IntegrationError(
            f"sphere failed to close: sigma runs from {sigma[0]:.6f} to {sigma[-1]:.6f}, "
            "not 0 to pi"
        )

    nodes, weights = _panel_nodes(grid)
    _, sin_nodes = branch(nodes)
    u_nodes = sin_nodes / h_abs
    dv = np.sum(np.sqrt(1.0 + g.tau**2 * u_nodes * u_nodes) * sin_nodes * weights, axis=1)
    v = np.concatenate(([0.0], np.cumsum(dv)))
    profile = Profile(s=grid, u=u, v=v, sigma=sigma, geometry=g)
    drift = _j_drift(g, h_abs, profile, tolerances.conservation)
    if not np.all(np.diff(sigma) > 0.0):
        raise IntegrationError("sigma is not monotone along the generated sphere")
    identity = np.abs(sin_sig - h_abs * u)
    if np.max(identity) > tolerances.closure_identity:
        raise IntegrationError(
            f"sphere identity residual {np.max(identity):.3e} exceeds "
            f"{tolerances.closure_identity:.1e}"
        )
    return replace(
        profile,
        mean_curvature=h_abs,
        closure=Closure.CLOSED_SPHERE,
        orientation=1 if H > 0 else -1,
        j_drift=drift,
        closure_residual=float(identity[-1]),
        tolerances={
            "conservation": tolerances.conservation,
            "closure_identity": tolerances.closure_identity,
            "axis_epsilon": tolerances.axis_epsilon,
        },
    )


# -- the explicit competitor family ---------------------------------------


def _reduced_sine_ratio(sigma: np.ndarray, m: int) -> np.ndarray:
    """sin(2 m sigma) / cos(sigma), evaluated through its removable zeros."""
    out = np.zeros_like(sigma)
    for j in range(m):
        out += (-1.0) ** j * np.sin((2 * m - 1 - 2 * j) * sigma)
    return 2.0 * out


def mode_shape_functions(H: float, coeffs: np.ndarray):
    """Closures (u, modulation, regularity numerator) of the mode family.

    The family is u(sigma) = (1/H) sin(sigma) P(sigma) with modulation
    P = 1 + sum_m c_m cos(2 m sigma).  The numerator N = u'(sigma)/cos(sigma)
    (computed through the removable equator zero) determines regularity:
    ds/dsigma = N / (H (1 + k u^2/4)) must stay positive.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    h_abs = abs(H)

    def modulation(sigma):
        p = np.ones_like(sigma)
        for m, c in enumerate(coeffs, start=1):
            p = p + c * np.cos(2 * m * sigma)
        return p

    def numerator(sigma):
        n = modulation(sigma)
        sin_sig = np.sin(sigma)
        for m, c in enumerate(coeffs, start=1):
            if c != 0.0:
                n = n - 2 * m * c * sin_sig * _reduced_sine_ratio(sigma, m)
        return n

    def radius(sigma):
        return np.sin(sigma) * modulation(sigma) / h_abs

    return radius, modulation, numerator


def sphere_from_modes(
    g: GeometryParams,
    H: float,
    coeffs,
    *,
    n_samples: int = DEFAULT_SAMPLES,
) -> Profile:
    """Build the rotationally invariant sphere with shape coefficients ``coeffs``.

    With all coefficients zero this reproduces the CMC sphere of mean
    curvature |H| by quadrature in sigma, independently of the shooting
    integrator and of :func:`generate_cmc_sphere`.  Raises
    :class:`InadmissiblePerturbation` when the shape is not a regular
    profile (ds/dsigma <= 0 somewhere) or leaves the domain.
    """
    _require_sphere_exists(g, H)
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    h_abs = abs(H)
    radius, modulation, numerator = mode_shape_functions(h_abs, coeffs)

    check = np.linspace(0.0, math.pi, 8193)
    n_check = numerator(check)
    if np.min(n_check) <= 0.0:
        raise InadmissiblePerturbation(
            f"ds/dsigma <= 0 (min numerator {np.min(n_check):.3e}): profile not regular"
        )
    p_check = modulation(check)
    if np.min(p_check) <= 0.0:
        raise InadmissiblePerturbation("profile radius is not positive on the interior")
    u_check = radius(check)
    if np.max(u_check) >= g.domain_radius * (1.0 - 1e-9):
        raise InadmissiblePerturbation(
            f"profile apex {np.max(u_check):.6f} leaves the domain "
            f"(radius {g.domain_radius:.6f})"
        )

    def ds_from(n, u):
        return n / (h_abs * (1.0 + 0.25 * g.k * u * u))

    def ds_dsigma(sigma):
        return ds_from(numerator(sigma), radius(sigma))

    def dv_dsigma(sigma):
        u = radius(sigma)
        return np.sqrt(1.0 + g.tau**2 * u * u) * np.sin(sigma) * ds_dsigma(sigma)

    edges = np.linspace(0.0, math.pi, _CONSTRUCTION_PANELS + 1)
    nodes, weights = _panel_nodes(edges)
    s_edges = np.concatenate(([0.0], np.cumsum(np.sum(ds_dsigma(nodes) * weights, axis=1))))
    v_edges = np.concatenate(([0.0], np.cumsum(np.sum(dv_dsigma(nodes) * weights, axis=1))))

    f_ends = ds_dsigma(np.array([0.0, math.pi]))
    # Near-degenerate shapes (numerator close to zero) get a monotone C1
    # interpolant; regular shapes a clamped C2 spline.
    f_all = ds_from(n_check, u_check)
    if np.min(f_all) > 1e-3 * np.median(f_all):
        sigma_of_s = CubicSpline(s_edges, edges, bc_type=((1, 1.0 / f_ends[0]), (1, 1.0 / f_ends[1])))
    else:
        sigma_of_s = PchipInterpolator(s_edges, edges)
    v_of_s = CubicSpline(s_edges, v_edges, bc_type=((1, 0.0), (1, 0.0)))

    grid = np.linspace(0.0, float(s_edges[-1]), n_samples)
    sigma = np.clip(sigma_of_s(grid), 0.0, math.pi)
    sigma[0] = 0.0
    sigma[-1] = math.pi
    u = radius(sigma)
    u[0] = 0.0
    u[-1] = 0.0
    v = v_of_s(grid)

    is_cmc = bool(np.all(coeffs == 0.0))
    return Profile(
        s=grid,
        u=u,
        v=v,
        sigma=sigma,
        geometry=g,
        mean_curvature=h_abs if is_cmc else None,
        closure=Closure.CLOSED_SPHERE,
        orientation=1 if H > 0 else -1,
        tolerances={"construction_panels": _CONSTRUCTION_PANELS},
    )


def perturbed_sphere(
    g: GeometryParams,
    H: float,
    spec: PerturbationSpec,
    *,
    n_samples: int = DEFAULT_SAMPLES,
) -> Profile:
    """Sphere with a single-mode shape modulation 1 + epsilon cos(2 mode sigma).

    Not CMC for epsilon != 0; reduces to the CMC sphere at epsilon = 0.
    """
    coeffs = np.zeros(spec.mode)
    coeffs[spec.mode - 1] = spec.epsilon
    return sphere_from_modes(g, H, coeffs, n_samples=n_samples)
