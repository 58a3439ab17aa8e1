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
and is smooth through the equator.  The reconstruction samples the profile
uniformly in sigma, sums 8-point Gauss panels between the samples for s and
v, and keeps ds/dsigma at the samples, the spacing the stencils scale by.

Admissibility of a competitor is decided exactly, not on a sample grid.
With t = cos(2 sigma), which covers [-1, 1] once on each half of the
profile, P = 1 + sum_m c_m T_m(t) and, because
sin(sigma) sin(2 m sigma)/cos(sigma) = (1 - t) U_{m-1}(t), the numerator
N = u'(sigma)/cos(sigma) = P - sum_m 2 m c_m (1 - t) U_{m-1}(t) is a
Chebyshev series of degree M as well, and u^2 = (1 - t) P^2 / (2 H^2).
The minima of P and N lie at t = -1, t = 1 or a real root of the
derivative in between; with P > 0 the critical points of u^2 are the
roots of 2 (1 - t) P' - P.  Chebyshev series stay well conditioned for
every M (a power series in cos^2(sigma) loses accuracy like 4^M).
"""

from __future__ import annotations

import cmath
import csv
import enum
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .geometry import GeometryParams

__all__ = [
    "Tolerances",
    "AXIS_EPSILON",
    "AXIS_SERIES_S0",
    "SIGMA_STOP_MARGIN",
    "DEFAULT_RTOL",
    "DEFAULT_ATOL",
    "DEFAULT_SAMPLES",
    "ARCLENGTH",
    "TURNING_ANGLE",
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
# Default sample count: 2048 grid intervals, the equator a sample.
DEFAULT_SAMPLES = 2049
# Parametrizations of a profile's samples: uniform in quotient arclength s,
# or uniform in the turning angle sigma.
ARCLENGTH = "arclength"
TURNING_ANGLE = "turning_angle"

_U_AXIS_COLLISION = 1e-10
_COLUMNS = ("s", "u", "v", "sigma")
# Turning-angle samples carry one more column: ds/dsigma at each sample.
_SPEED_COLUMN = "ds_dsigma"
_SCHEMAS = ("profile/1", "profile/2")


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

    ``parametrization`` names the variable the samples are uniform in:
    ``ARCLENGTH`` (closed-form CMC spheres, :func:`integrate`, and every
    ``profile/1`` file) or ``TURNING_ANGLE`` (:func:`sphere_from_modes`).
    Turning-angle samples also carry ``ds_dsigma``, the arclength per unit
    turning angle at each sample, as computed by their construction:
    differentiating the stored s instead would put its rounding (1e-15
    against steps of 2e-3) into every stencil.
    ``mean_curvature`` is set only for profiles generated as CMC spheres
    and stores the canonical positive H; ``orientation`` is -1 when the
    profile represents the mirror surface of a negative requested H.
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
    parametrization: str = ARCLENGTH
    ds_dsigma: np.ndarray | None = None

    def __post_init__(self):
        if self.parametrization not in (ARCLENGTH, TURNING_ANGLE):
            raise ValueError(f"unknown parametrization {self.parametrization!r}")
        if (self.ds_dsigma is None) != (self.parametrization == ARCLENGTH):
            raise ValueError(f"turning-angle samples, and only they, carry {_SPEED_COLUMN}")
        # Own copies, frozen: profiles are safe to share across threads.
        for name in self._columns():
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            setattr(self, name, arr)
        n = self.s.size
        if n < 5:
            raise ValueError("profile needs at least 5 samples")
        if any(getattr(self, name).size != n for name in self._columns()):
            raise ValueError("sample arrays must have equal length")
        if self.ds_dsigma is not None and not np.all(self.ds_dsigma > 0.0):
            raise ValueError(f"{_SPEED_COLUMN} must be positive")
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
    def spacing(self) -> float | np.ndarray:
        """Arclength per sample index, ds/di.

        The uniform step, a scalar, for ``ARCLENGTH`` samples; for
        ``TURNING_ANGLE`` samples the array ``ds_dsigma`` times the sigma
        step.  Raises if the samples are not uniform in their variable.
        """
        x = self.s if self.ds_dsigma is None else self.sigma
        d = np.diff(x)
        h = float(d.mean())
        if not np.allclose(d, h, rtol=1e-8, atol=1e-13):
            raise ValueError(f"profile samples are not uniformly spaced in {self.parametrization}")
        return h if self.ds_dsigma is None else self.ds_dsigma * h

    def _columns(self) -> tuple[str, ...]:
        return _COLUMNS if self.parametrization == ARCLENGTH else (*_COLUMNS, _SPEED_COLUMN)

    def state(self, i: int) -> ProfileState:
        return ProfileState(
            s=float(self.s[i]), u=float(self.u[i]), v=float(self.v[i]), sigma=float(self.sigma[i])
        )

    # -- serialization ---------------------------------------------------

    def metadata(self) -> dict:
        """Geometry, closure and diagnostics: the CSV sidecar and the JSON form share it."""
        return {
            "schema": "profile/2",
            "parametrization": self.parametrization,
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
    def _from_metadata(cls, meta: dict, s, u, v, sigma, ds_dsigma=None) -> "Profile":
        """Profile from samples and metadata; ``profile/1`` files are uniform in arclength."""
        schema = meta.get("schema", "profile/1")
        if schema not in _SCHEMAS:
            raise ValueError(f"unknown profile schema {schema!r}")
        mean_curvature = meta.get("mean_curvature")
        return cls(
            s=s,
            u=u,
            v=v,
            sigma=sigma,
            ds_dsigma=ds_dsigma,
            geometry=GeometryParams.from_dict(meta["geometry"]),
            mean_curvature=None if mean_curvature is None else float(mean_curvature),
            closure=Closure(meta.get("closure", "Open")),
            orientation=int(meta.get("orientation", 1)),
            j_drift=meta.get("j_drift"),
            closure_residual=meta.get("closure_residual"),
            tolerances=meta.get("tolerances"),
            parametrization=meta.get("parametrization", ARCLENGTH),
        )

    def to_csv(self, path, metadata: dict | None = None) -> None:
        """Write samples as CSV plus a JSON sidecar ``<path>.json``.

        The columns are s, u, v, sigma, and ds_dsigma for turning-angle
        samples.  Floats use shortest round-trip formatting, so reading the
        file back reproduces the arrays bit for bit.
        """
        path = Path(path)
        columns = self._columns()
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in zip(*(getattr(self, name) for name in columns)):
                writer.writerow([repr(float(x)) for x in row])
        _write_json(self._sidecar_path(path), {**self.metadata(), **(metadata or {})})

    @staticmethod
    def _sidecar_path(path: Path) -> Path:
        return path.with_name(path.name + ".json")

    @classmethod
    def from_csv(cls, path) -> "Profile":
        path = Path(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float, ndmin=2)
        if data.shape[1] not in (4, 5):
            raise ValueError(
                f"profile CSV must have columns s,u,v,sigma[,{_SPEED_COLUMN}], got {data.shape[1]}"
            )
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
            name: [repr(float(x)) for x in getattr(self, name)] for name in self._columns()
        }
        _write_json(Path(path), {**(metadata or {}), "profile": profile})

    @classmethod
    def from_json(cls, path) -> "Profile":
        with Path(path).open() as fh:
            data = json.load(fh)
        if "profile" in data:
            data = data["profile"]
        samples = data["samples"]
        columns = (*_COLUMNS, _SPEED_COLUMN) if _SPEED_COLUMN in samples else _COLUMNS
        return cls._from_metadata(
            data, *(np.array([float(x) for x in samples[name]]) for name in columns)
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


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    Only :func:`integrate` solves an initial value problem, so scipy stays
    off the import path of every other entry point.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def brentq(*args, **kwargs):
    """``scipy.optimize.brentq``, imported on the first call.

    The package has no caller; the name stays bound here because the
    traced benchmark run (``perfbench/tracer.py``) wraps ``profile.brentq``
    and counts its calls.
    """
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(*args, **kwargs)


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
    if not math.isfinite(H):
        raise ExistenceViolation(
            f"no CMC sphere in E(k={g.k}, tau={g.tau}) with H={H}: requires H finite"
        )
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


def _mode_shape(H: float, coeffs: np.ndarray, sigma: np.ndarray):
    """sin(sigma), modulation P, numerator N and radius u of the mode family on ``sigma``.

    The family is u(sigma) = (1/H) sin(sigma) P(sigma) with modulation
    P = 1 + sum_m c_m cos(2 m sigma).  The numerator N = u'(sigma)/cos(sigma)
    (computed through the removable equator zero) determines regularity:
    ds/dsigma = N / (H (1 + k u^2/4)) must stay positive.  Each array is
    evaluated once per grid.
    """
    p = np.ones_like(sigma)
    for m, c in enumerate(coeffs, start=1):
        p = p + c * np.cos(2 * m * sigma)
    sin_sig = np.sin(sigma)
    n = p
    for m, c in enumerate(coeffs, start=1):
        if c != 0.0:
            n = n - 2 * m * c * sin_sig * _reduced_sine_ratio(sigma, m)
    return sin_sig, p, n, sin_sig * p / abs(H)


def _one_minus_t(coef: np.ndarray) -> np.ndarray:
    """The Chebyshev series (1 - t) coef(t), one coefficient longer than ``coef``."""
    out = np.zeros(coef.size + 1)
    product = cheb.chebmul(coef, [1.0, -1.0])  # drops trailing zeros
    out[: product.size] = product
    return out


@lru_cache(maxsize=None)
def _mode_basis(n_modes: int) -> tuple[np.ndarray, ...]:
    """The mode-m terms of P and of N as Chebyshev series in t = cos(2 sigma).

    Returns the series (row m - 1 for mode m) and, for each, their values at
    the ends t = 1 (the poles) and t = -1 (the equator).  cos(2 m sigma) =
    T_m(t) and sin(sigma) sin(2 m sigma)/cos(sigma) = (1 - t) U_{m-1}(t) =
    (1 - t) T_m'(t)/m, so the mode-m term of N is T_m - 2 (1 - t) T_m'.
    All entries are integers, exact in floating point.
    """
    modulation = np.eye(n_modes + 1)[1:]
    numerator = modulation - 2.0 * np.array(
        [_one_minus_t(row) for row in cheb.chebder(modulation, axis=1)]
    )
    ends = np.array([1.0, -1.0])
    basis = (modulation, numerator, *(cheb.chebval(ends, b.T) for b in (modulation, numerator)))
    for a in basis:
        a.flags.writeable = False
    return basis


@lru_cache(maxsize=None)
def _series_operators(size: int) -> tuple[np.ndarray, np.ndarray]:
    """d/dt and c -> 2 (1 - t) c' - c on Chebyshev series of ``size`` coefficients.

    Both act from the right on coefficient rows.  The roots of the second
    are the critical points of (1 - t) c^2 where c does not vanish.
    """
    derivative = cheb.chebder(np.eye(size), axis=1)
    critical = 2.0 * np.array([_one_minus_t(row) for row in derivative]) - np.eye(size)
    derivative.flags.writeable = False
    critical.flags.writeable = False
    return derivative, critical


def _roots(coef: np.ndarray) -> list[complex]:
    """Complex roots of the Chebyshev series ``coef``; closed forms up to degree 2.

    Leading coefficients below 1e-300 of the largest are dropped: they move
    the series on [-1, 1] by far less than a rounding, their roots lie far
    off, and dividing by them overflows.
    """
    coef = coef.tolist()
    scale = max(map(abs, coef), default=0.0)
    while coef and abs(coef[-1]) <= 1e-300 * scale:
        coef.pop()
    if len(coef) < 2:
        return []
    if len(coef) == 2:
        return [-coef[0] / coef[1]]
    if len(coef) == 3:  # (c0 - c2) + c1 t + 2 c2 t^2
        c0, c1, c2 = coef[0] - coef[2], coef[1], 2.0 * coef[2]
        sq = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
        q = -0.5 * (c1 + sq if c1 >= 0.0 else c1 - sq)
        return [q / c2, c0 / q] if q != 0.0 else [0.0, 0.0]
    return cheb.chebroots(coef).tolist()


def _interior_points(coef: np.ndarray) -> list[float]:
    """The real parts in (-1, 1) of the roots of the Chebyshev series ``coef``.

    Roots are computed in floating point; a complex pair with a tiny
    imaginary part contributes its real part, which can only add a
    candidate in [-1, 1] and so never moves an extremum past the true one.
    """
    return [t for t in (r.real for r in _roots(coef)) if -1.0 < t < 1.0]


def _series_range(coef: np.ndarray, ends: np.ndarray) -> tuple[float, float]:
    """Exact (min, max) over t in [-1, 1] of the Chebyshev series ``coef``.

    ``ends`` holds its values at t = 1 and t = -1; the interior candidates
    are the real roots of the derivative.
    """
    derivative, _ = _series_operators(coef.size)
    interior = _interior_points(coef @ derivative)
    values = [*ends.tolist(), *(float(cheb.chebval(t, coef)) for t in interior)]
    return min(values), max(values)


class _ModeShape(NamedTuple):
    """P and N of a mode shape as Chebyshev series in t = cos(2 sigma).

    With their (min, max) over the profile and max u.
    """

    p: np.ndarray
    n: np.ndarray
    p_range: tuple[float, float]
    n_range: tuple[float, float]
    u_max: float


def _shape_series(coeffs: np.ndarray) -> tuple[np.ndarray, ...]:
    """P and N as Chebyshev series in t = cos(2 sigma), each with its values at t = 1, -1.

    Returned as (P, P ends, N, N ends).
    """
    modulation, numerator, p_ends, n_ends = _mode_basis(coeffs.size)
    p = coeffs @ modulation
    n = coeffs @ numerator
    p[0] += 1.0
    n[0] += 1.0
    return p, 1.0 + coeffs @ p_ends, n, 1.0 + coeffs @ n_ends


def _numerator_min(coeffs: np.ndarray) -> float:
    """Exact minimum of N over the closed profile sigma in [0, pi]."""
    _, _, n, n_ends = _shape_series(coeffs)
    return _series_range(n, n_ends)[0]


def _zero_distance(coef: np.ndarray) -> float:
    """Distance from [0, pi] of the nearest complex sigma at which ``coef`` vanishes.

    ``coef`` is a Chebyshev series in t = cos(2 sigma): a zero t_0 lies
    |Im arccos(t_0)|/2 off the real sigma axis; infinity when there is no
    zero.
    """
    return 0.5 * min((abs(cmath.acos(t).imag) for t in _roots(coef)), default=math.inf)


def _require_admissible(g: GeometryParams, h_abs: float, coeffs: np.ndarray) -> _ModeShape:
    """Raise :class:`InadmissiblePerturbation` unless the mode shape is a regular profile.

    Decided exactly on sigma in [0, pi], i.e. t = cos(2 sigma) in [-1, 1]:
    N > 0 and P > 0 by their minima over the ends and the real critical
    points, and max u < domain radius (1 - 1e-9).  With P > 0 the critical
    points of u^2 = (1 - t) P^2 / (2 H^2) are the roots of 2 (1 - t) P' - P.
    Ties (a minimum of exactly 0) are inadmissible.  Returns the shape's
    series, ranges and max u.
    """
    if not np.isfinite(coeffs).all():
        raise ValueError(f"shape coefficients must be finite, got {coeffs}")
    p, p_ends, n, n_ends = _shape_series(coeffs)
    n_range = _series_range(n, n_ends)
    if n_range[0] <= 0.0:
        raise InadmissiblePerturbation(
            f"ds/dsigma <= 0 (min numerator {n_range[0]:.3e}): profile not regular"
        )
    p_range = _series_range(p, p_ends)
    if p_range[0] <= 0.0:
        raise InadmissiblePerturbation("profile radius is not positive on the interior")
    # u = P(-1)/H at the equator t = -1, 0 at the poles t = 1
    interior = _interior_points(p @ _series_operators(p.size)[1])
    u_max = max([p_ends[1], *(math.sqrt(0.5 * (1.0 - t)) * cheb.chebval(t, p) for t in interior)])
    u_max = float(u_max) / h_abs
    if u_max >= g.domain_radius * (1.0 - 1e-9):
        raise InadmissiblePerturbation(
            f"profile apex {u_max:.6f} leaves the domain (radius {g.domain_radius:.6f})"
        )
    return _ModeShape(p, n, p_range, n_range, u_max)


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
    profile (ds/dsigma <= 0 somewhere) or leaves the domain; the decision
    is exact, on the Chebyshev series of P and N in cos(2 sigma)
    (:func:`_require_admissible`).  The samples are uniform in the turning
    angle (``TURNING_ANGLE``): sigma runs from 0 to pi in ``n_samples - 1``
    steps, the arclength s(sigma) and the height v(sigma) are running sums
    of 8-point Gauss panels between consecutive samples, and ds/dsigma is
    kept at every sample.  Turning then spreads evenly over the samples,
    also where ds/dsigma is small near the family's regularity edge.
    """
    _require_sphere_exists(g, H)
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    h_abs = abs(H)
    _require_admissible(g, h_abs, coeffs)

    sigma = np.linspace(0.0, math.pi, n_samples)
    nodes, weights = _panel_nodes(sigma)
    sin_nodes, _, n_nodes, u_nodes = _mode_shape(h_abs, coeffs, nodes)
    ds_nodes = n_nodes / (h_abs * (1.0 + 0.25 * g.k * u_nodes * u_nodes))
    dv_nodes = np.sqrt(1.0 + g.tau**2 * u_nodes * u_nodes) * sin_nodes * ds_nodes
    s = np.concatenate(([0.0], np.cumsum(np.sum(ds_nodes * weights, axis=1))))
    v = np.concatenate(([0.0], np.cumsum(np.sum(dv_nodes * weights, axis=1))))
    _, _, n_samp, u = _mode_shape(h_abs, coeffs, sigma)
    ds_dsigma = n_samp / (h_abs * (1.0 + 0.25 * g.k * u * u))
    u[0] = 0.0
    u[-1] = 0.0

    is_cmc = bool(np.all(coeffs == 0.0))
    return Profile(
        s=s,
        u=u,
        v=v,
        sigma=sigma,
        geometry=g,
        mean_curvature=h_abs if is_cmc else None,
        closure=Closure.CLOSED_SPHERE,
        orientation=1 if H > 0 else -1,
        parametrization=TURNING_ANGLE,
        ds_dsigma=ds_dsigma,
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
