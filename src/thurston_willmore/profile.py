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
form; only the height v needs a quadrature.  The package does not shoot
the full system: the tests do, as the independent check of the closed form
(``tests/shooting_oracle.py``, not shipped).

Perturbed (non-CMC) competitor spheres come from the explicit family
u(sigma) = (1/H) sin(sigma) P with the modulation
P = 1 + sum_m c_m cos(2 m sigma), reconstructing the arclength from
ds/dsigma = u'(sigma) / ((1 + k u^2/4) cos(sigma)) = N / (H (1 + k u^2/4)).
The cos(sigma) zero at the equator cancels exactly against u'(sigma), so
the numerator N has no pole there: P and N are polynomials in
t = cos(2 sigma), and the package evaluates both only from their Chebyshev
series below.  The reconstruction samples the profile uniformly in sigma,
sums 8-point Gauss panels between the samples for s and v, and keeps
ds/dsigma at the samples, the spacing the stencils scale by.  Both
integrands are even about the equator sigma = pi/2, so only the panels
left of it are evaluated and their integrals are repeated in mirror order.

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
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .geometry import GeometryParams, _a_squared, _b_factor
from .numerics import derivative1

__all__ = [
    "Tolerances",
    "AXIS_EPSILON",
    "DEFAULT_SAMPLES",
    "ARCLENGTH",
    "TURNING_ANGLE",
    "ExistenceViolation",
    "IntegrationError",
    "InadmissiblePerturbation",
    "Closure",
    "Profile",
    "PerturbationSpec",
    "profile_first_integral",
    "generate_cmc_sphere",
    "perturbed_sphere",
    "sphere_from_modes",
]


@dataclass(frozen=True)
class Tolerances:
    """Every gate of the verification suites, in one frozen record.

    The suites take it as ``tolerances=``; each ``tw verify`` command sets the
    fields it reads with ``--tol-<name>`` (underscores hyphenated) and echoes them.
    """

    # criticality: interior EL residual, first variation
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

    def __post_init__(self):
        # NaN passes every check it gates; a negative bound passes or fails all of them
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and at least 0, got {value}")


# How close to the axis a closed profile must end, times its max u if below 1, as :class:`Profile`
# checks: the one fixed bound that generate_cmc_sphere's profiles echo under ``tolerances``.
_GENERATOR_BOUNDS = {"axis_epsilon": 1e-5}
AXIS_EPSILON = _GENERATOR_BOUNDS["axis_epsilon"]
# Default sample count: 2048 grid intervals, the equator a sample.
DEFAULT_SAMPLES = 2049
# Parametrizations of a profile's samples: uniform in quotient arclength s,
# or uniform in the turning angle sigma.
ARCLENGTH = "arclength"
TURNING_ANGLE = "turning_angle"

_COLUMNS = ("s", "u", "v", "sigma")
# Turning-angle samples carry one more column: ds/dsigma at each sample.
_SPEED_COLUMN = "ds_dsigma"
_SCHEMAS = ("profile/1", "profile/2")


class ExistenceViolation(ValueError):
    """No CMC sphere exists for the requested (k, tau, H)."""


class IntegrationError(RuntimeError):
    """Sphere generation violated a post-condition."""


class InadmissiblePerturbation(ValueError):
    """A perturbed sphere shape is not a regular profile."""


class Closure(enum.Enum):
    CLOSED_SPHERE = "ClosedSphere"
    OPEN = "Open"


@dataclass(eq=False)
class Profile:
    """A sampled profile curve with geometry and closure metadata.

    ``parametrization`` names the variable the samples are uniform in:
    ``ARCLENGTH`` (closed-form CMC spheres and every ``profile/1`` file)
    or ``TURNING_ANGLE`` (:func:`sphere_from_modes`).
    Turning-angle samples also carry ``ds_dsigma``, the arclength per unit
    turning angle at each sample, as computed by their construction:
    differentiating the stored s instead would put its rounding (1e-15
    against steps of 2e-3) into every stencil.
    ``mean_curvature`` is set only for profiles generated as CMC spheres
    and stores the canonical positive H; ``orientation`` is -1 when the
    profile represents the mirror surface of a negative requested H.

    ``v`` may be deferred: given as a function that returns it, it is
    built on its first read, checked as at construction (equal length,
    finite), frozen and kept, so later reads return the same array.
    Only :func:`generate_cmc_sphere` defers a column, its v.
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
    # ds/di, set on construction: the uniform step for ARCLENGTH samples,
    # ds_dsigma times the sigma step (read-only) for TURNING_ANGLE ones.
    spacing: float | np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.parametrization not in (ARCLENGTH, TURNING_ANGLE):
            raise ValueError(f"unknown parametrization {self.parametrization!r}")
        if (self.ds_dsigma is None) != (self.parametrization == ARCLENGTH):
            raise ValueError(f"turning-angle samples, and only they, carry {_SPEED_COLUMN}")
        # Own copies, frozen: profiles are safe to share across threads.  A
        # deferred v leaves the instance, so that a read reaches __getattr__.
        self._build_v = vars(self).pop("v") if callable(self.v) else None
        columns = {}
        for name in self._columns():
            if name in vars(self):
                arr = columns[name] = np.array(getattr(self, name), dtype=float)
                arr.flags.writeable = False
                setattr(self, name, arr)
        n = self.u.size
        if n < 5:
            raise ValueError("profile needs at least 5 samples")
        closed = self.closure is Closure.CLOSED_SPHERE
        h = _check_samples(columns, n, self.geometry, closed, self.parametrization)
        self.spacing = h if self.ds_dsigma is None else self.ds_dsigma * h
        if self.ds_dsigma is not None:
            self.spacing.flags.writeable = False

    def __getattr__(self, name: str):
        """Build, check and keep a deferred v on its first read."""
        build = self.__dict__.get("_build_v")
        if name != "v" or build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        # The builder stays: a thread that raced this one past the attribute
        # lookup builds the same bits, and setdefault hands both the first array kept.
        v = build()
        _check_samples({"v": v}, self.u.size)
        v.flags.writeable = False
        return self.__dict__.setdefault("v", v)

    def __getstate__(self) -> dict:
        # a pickle holds the built v: the deferred function is local to the generator
        return {**self.__dict__, "v": self.v, "_build_v": None}

    def __len__(self) -> int:
        return self.u.size

    @property
    def arclength(self) -> float:
        return float(self.s[-1] - self.s[0])

    def _columns(self) -> tuple[str, ...]:
        return _COLUMNS if self.parametrization == ARCLENGTH else (*_COLUMNS, _SPEED_COLUMN)

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
            "n_samples": int(self.u.size),
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
        _write_csv(path, columns, [getattr(self, name) for name in columns])
        _write_json(_sidecar_path(path), {**self.metadata(), **(metadata or {})})

    @classmethod
    def from_csv(cls, path) -> "Profile":
        path = Path(path)
        lines = path.read_text().splitlines()
        # np.loadtxt only warns on a file with no rows, then fails on its shape
        if not any(map(str.strip, lines)):
            raise ValueError("profile CSV is empty")
        if not any(lines[1:]):
            raise ValueError("profile CSV has a header but no sample rows")
        data = np.loadtxt(lines[1:], delimiter=",", dtype=float, ndmin=2)
        if data.shape[1] not in (4, 5):
            raise ValueError(
                f"profile CSV must have columns s,u,v,sigma[,{_SPEED_COLUMN}], got {data.shape[1]}"
            )
        sidecar_path = _sidecar_path(path)
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
            name: list(map(repr, getattr(self, name).tolist())) for name in self._columns()
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


def _check_samples(columns: dict, n: int, g=None, closed=False, uniform_in=None) -> float | None:
    """:class:`Profile`'s checks, in its order, of the sample ``columns`` at hand, ``n`` each.

    u is checked against the domain of ``g``, the ends of u and sigma when
    ``closed``, and with ``uniform_in`` (the parametrization) the steps of s
    or sigma: each within 1e-8 of their mean, relative, which is returned.
    """
    if any(arr.size != n for arr in columns.values()):
        raise ValueError("sample arrays must have equal length")
    # first, since NaN passes the checks below and inf warns in them: a column is
    # finite when its min and max are (a NaN makes both NaN); the checks reuse them
    ranges = {name: (arr.min(), arr.max()) for name, arr in columns.items()}
    for name, (low, high) in ranges.items():
        if not -math.inf < low <= high < math.inf:
            raise ValueError(f"{name} samples must be finite")
    if _SPEED_COLUMN in columns and not ranges[_SPEED_COLUMN][0] > 0.0:
        raise ValueError(f"{_SPEED_COLUMN} must be positive")
    s_steps = np.diff(columns["s"]) if "s" in columns else None
    if s_steps is not None and not s_steps.min() > 0.0:
        raise ValueError("samples must be strictly increasing in s")
    u, sigma = columns.get("u"), columns.get("sigma")
    if u is not None:
        u_min, u_max = ranges["u"]
        if u_min < 0.0:
            raise ValueError("u must be nonnegative")
        if u[1:-1].min() <= 0.0:
            raise ValueError("interior samples must have u > 0")
        if u_max >= g.domain_radius:
            raise ValueError("profile leaves the domain of the geometry")
        if closed and max(u[0], u[-1]) > AXIS_EPSILON * min(1.0, u_max):
            raise ValueError("closed sphere must start and end on the axis")
    if closed and sigma is not None and (abs(sigma[0]) > 1e-3 or abs(sigma[-1] - math.pi) > 1e-3):
        raise ValueError("closed sphere must turn from sigma=0 to sigma=pi")
    if uniform_in is not None:
        d = s_steps if uniform_in == ARCLENGTH else np.diff(columns["sigma"])
        h = float(d.mean())
        if not (np.abs(d - h) <= 1e-8 * abs(h)).all():
            raise ValueError(f"profile samples are not uniformly spaced in {uniform_in}")
        return h


def _write_csv(path: Path, columns, arrays) -> None:
    """A header row of ``columns``, then one row per sample of ``arrays``, floats round-trip."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*(a.tolist() for a in arrays)))


def _sidecar_path(path: Path) -> Path:
    """The JSON sidecar ``<name>.json`` written next to the CSV file ``path``."""
    return path.with_name(path.name + ".json")


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


# -- CMC spheres ----------------------------------------------------------


def _first_integral(g: GeometryParams, H: float, u, sin_sig):
    return u * (sin_sig - H * u) / _b_factor(g, u)


def profile_first_integral(g: GeometryParams, H: float, profile: Profile) -> np.ndarray:
    """J evaluated at every sample of a profile."""
    return _first_integral(g, H, profile.u, np.sin(profile.sigma))


# The package calls neither scipy shim.  The traced benchmark run
# (perfbench/tracer.py) wraps ``profile.solve_ivp`` and ``profile.brentq`` by
# name and fails when this module binds them no more, so both stay until
# benchmark revision 2 drops those wraps.  Each imports scipy on its first call.


def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def brentq(*args, **kwargs):
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(*args, **kwargs)


# A sphere's apex u lies inside the domain while B(u) = 1 + k u^2/4 = 1 - (u/R)^2
# exceeds this margin, i.e. u < R (1 - 1e-9).
_APEX_MARGIN = 2e-9
# Heights are summed only where their values bound them below this: far below
# float64 overflow, so no rounding carries a sum past it.
_SUM_BOUND = 1e300


def _apex_inside(g: GeometryParams, u: float) -> bool:
    """The apex rule of both generators; B(1/|H|) = (H^2 + k/4)/H^2 depends on k/H^2 only."""
    return _b_factor(g, u) > _APEX_MARGIN


def _require_sphere_exists(g: GeometryParams, H: float) -> float:
    """w = sqrt(H^2 + k/4) of a sphere that exists and float64 holds, decided before any sample."""
    overflow = None
    if not math.isfinite(H):
        reason = f" with H={H}: requires H finite"
    elif H == 0.0 and g.k > 0.0:
        reason = ": requires H != 0 for k > 0"
    elif H * H <= -0.25 * g.k:
        reason = f" with H={H}: requires H^2 > -k/4"
    # The apex 1/|H| bounds every sample's u; the zero shape's admissibility
    # applies the same rule to the same float.
    elif not _apex_inside(g, 1.0 / abs(H)):
        reason = (
            f" with H={H}: its apex 1/|H| reaches the domain radius {g.domain_radius}:"
            f" 1 + k/(4 H^2) is not above {_APEX_MARGIN:g}"
        )
    elif not math.isfinite(w := math.sqrt(H * H + 0.25 * g.k)):
        overflow = "w = sqrt(H^2 + k/4) is not finite"
    elif not math.isfinite(4.0 * g.tau * g.tau):  # the energy's first tau^2 term to overflow
        overflow = "4 tau^2 is not finite"
    # v' <= A(1/|H|) on the sphere's u <= 1/|H|, over its arclength pi/w
    elif not (v_bound := math.sqrt(_a_squared(g, 1.0 / abs(H))) * math.pi / w) < _SUM_BOUND:
        overflow = f"pi A(1/|H|)/w = {v_bound:.3g} is not below {_SUM_BOUND:g}"
    else:
        return w
    name = f"CMC sphere in E(k={g.k}, tau={g.tau})"
    if overflow:
        raise IntegrationError(f"the {name} with H={H} overflows float64: {overflow}")
    raise ExistenceViolation(f"no {name}{reason}")


_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each interval of ``edges``, as (intervals, 8) arrays."""
    a = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - a)
    return half * (_GL8_NODES + 1.0) + a, half * _GL8_WEIGHTS


def _mirrored_running_sum(rates: np.ndarray) -> np.ndarray:
    """Running sum from 0 of the panel integrals of a profile even about its equator.

    ``rates`` holds the weighted integrand at the Gauss nodes of the panels
    left of the equator, as a (panels, 8) array.  The panels right of the
    equator are those of the left in mirror order, and their integrals are
    taken to be equal.
    """
    left = rates.sum(axis=1)
    return np.concatenate(([0.0], np.cumsum(np.concatenate((left, left[::-1])))))


def generate_cmc_sphere(
    g: GeometryParams,
    H: float,
    *,
    n_samples: int = DEFAULT_SAMPLES,
) -> Profile:
    """The rotationally invariant CMC sphere of mean curvature H, in closed form.

    With w = sqrt(H^2 + k/4) the sphere branch is sigma(s) =
    atan2(H sin(w s), w cos(w s)), u = sin(sigma)/H, of arclength
    L = pi/w.  The samples are the turning-angle grid
    (:func:`_turning_angle_grid`) read as x = w s, with its cached sin x and
    cos x, and end at sigma = 0 and pi with u = 0, as those of
    :func:`sphere_from_modes` do.  The height v adds, over each interval,
    the 8-point Gauss integral of v' = sqrt(1 + tau^2 u^2) sin(sigma), with
    sin(sigma) = a/sqrt(a^2 + b^2), a = H sin x and b = w cos x, at the
    cached nodes and with the cached weights divided by w.  v' is even about
    the equator, so the panels left of it are evaluated and repeated in
    mirror order right of it.  v is summed on its first read (:class:`Profile`),
    under the bound pi A(1/|H|)/w that :func:`_require_sphere_exists` checks.

    A sigma that does not increase strictly raises :class:`IntegrationError`.
    Recorded unchecked: ``j_drift``, the drift of the first integral J over
    the samples, and ``closure_residual``, |sin(sigma) - |H| u| at the last
    one.  The latter reads 0.0 by construction: sin(sigma) there is set to 0
    before u = sin(sigma)/|H| is formed, so it measures nothing.

    A negative H requests the mirror surface: the returned samples are the
    canonical H > 0 profile with ``orientation`` set to -1.  ``n_samples``
    must be odd so the equator is a sample.
    """
    w = _require_sphere_exists(g, H)
    if n_samples < 9 or n_samples % 2 == 0:
        raise ValueError("n_samples must be odd and at least 9")
    h_abs = abs(H)
    x, sin_x, cos_x, _, sin_nodes, cos_nodes, _, weights = _turning_angle_grid(n_samples)
    sigma = np.arctan2(h_abs * sin_x, w * cos_x)
    sigma[-1] = math.pi  # exact ends: sin of the float pi is 1.2e-16, so atan2 falls short
    sin_sig = np.sin(sigma)
    sin_sig[-1] = 0.0
    u = sin_sig / h_abs

    def heights() -> np.ndarray:
        # in place, rounding as a / sqrt(a*a + b*b) and sqrt(A^2) sin(sigma) weights / w do
        a = h_abs * sin_nodes
        b = w * cos_nodes
        b *= b
        rates = a * a
        rates += b
        np.sqrt(rates, out=rates)
        a /= rates
        np.divide(a, h_abs, out=b)
        rates = np.sqrt(_a_squared(g, b))
        rates *= a
        rates *= weights
        rates /= w
        return _mirrored_running_sum(rates)

    if not (np.diff(sigma) > 0.0).all():
        raise IntegrationError("sigma is not monotone along the generated sphere")
    j = _first_integral(g, h_abs, u, sin_sig)
    return Profile(
        s=x / w,
        v=heights,
        u=u,
        sigma=sigma,
        geometry=g,
        mean_curvature=h_abs,
        closure=Closure.CLOSED_SPHERE,
        orientation=1 if H > 0 else -1,
        j_drift=float(np.abs(j - j[0]).max()),
        closure_residual=float(abs(sin_sig[-1] - h_abs * u[-1])),
        tolerances=dict(_GENERATOR_BOUNDS),
    )


# -- the explicit competitor family ---------------------------------------


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
    (1 - t) T_m'(t)/m, so the mode-m term of N is T_m - 2 (1 - t) T_m', the
    negated image of T_m under :func:`_series_operators`' second operator
    (``0.0 -`` keeps its zeros unsigned).  All entries are integers, exact in
    floating point.
    """
    modulation = np.eye(n_modes + 1)[1:]
    numerator = 0.0 - _series_operators(n_modes + 1)[1][1:]
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


def _chebval(t, coef: np.ndarray):
    """``cheb.chebval(t, coef)`` bit for bit: its Clenshaw recurrence, on Python floats."""
    c = coef.tolist()
    c0, c1 = c[-2:] if len(c) > 1 else (c[0], 0)
    if len(c) > 2:
        t2 = t + t  # exact, as chebval's 2 * t is
        for ci in c[-3::-1]:
            c0, c1 = ci - c1, c0 + c1 * t2
    return c0 + c1 * t


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
    values = [*ends.tolist(), *(_chebval(t, coef) for t in interior)]
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


def _zero_distance(coef: np.ndarray) -> float:
    """Distance from [0, pi] of the nearest complex sigma at which ``coef`` vanishes.

    ``coef`` is a Chebyshev series in t = cos(2 sigma): a zero t_0 lies
    |Im arccos(t_0)|/2 off the real sigma axis; infinity when there is no
    zero.
    """
    return 0.5 * min((abs(cmath.acos(t).imag) for t in _roots(coef)), default=math.inf)


# Coefficient vectors whose geometry-free part (_shape_core) stays decided: the
# 12 shapes of default_perturbation_grid() and the steps of the descents
# between two suite calls (7-14 distinct shapes per descent).
_SHAPE_CACHE_SIZE = 256


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _shape_core(key: bytes) -> tuple | str:
    """The geometry-free part of :func:`_require_admissible` for the coefficients ``key``.

    ``key`` holds the float64 coefficients' bytes, so -0.0 and 0.0 are
    distinct shapes.  Returns the bytes of the P and N series, their ranges
    and max sqrt((1 - t)/2) P(t), i.e. max u times |H|; or the reason the
    shape is not a regular profile.  Bytes, not arrays: the memo then keeps
    no numpy buffer on the malloc heap among the suites' large temporaries
    (tests/test_page_faults.py).
    """
    p, p_ends, n, n_ends = _shape_series(np.frombuffer(key))
    n_range = _series_range(n, n_ends)
    if n_range[0] <= 0.0:
        return f"ds/dsigma <= 0 (min numerator {n_range[0]:.3e}): profile not regular"
    p_range = _series_range(p, p_ends)
    if p_range[0] <= 0.0:
        return "profile radius is not positive on the interior"
    # u = P(-1)/H at the equator t = -1, 0 at the poles t = 1
    interior = _interior_points(p @ _series_operators(p.size)[1])
    u_max = max([p_ends[1], *(math.sqrt(0.5 * (1.0 - t)) * _chebval(t, p) for t in interior)])
    return p.tobytes(), n.tobytes(), p_range, n_range, float(u_max)


def _require_admissible(g: GeometryParams, h_abs: float, coeffs: np.ndarray) -> _ModeShape:
    """Raise :class:`InadmissiblePerturbation` unless the mode shape is a regular profile.

    Decided exactly on sigma in [0, pi], i.e. t = cos(2 sigma) in [-1, 1]:
    N > 0 and P > 0 by their minima over the ends and the real critical
    points, and max u inside the domain by the generators' apex rule
    (:func:`_apex_inside`, B(max u) > ``_APEX_MARGIN``).  With P > 0 the critical
    points of u^2 = (1 - t) P^2 / (2 H^2) are the roots of 2 (1 - t) P' - P.
    Ties (a minimum of exactly 0) are inadmissible.  All but the apex rule
    depend on the coefficients alone and are decided once per coefficient
    vector (:func:`_shape_core`).  Returns the shape's series (read-only
    views of the cached bytes), ranges and max u.
    """
    if not all(map(math.isfinite, coeffs.tolist())):
        raise ValueError(f"shape coefficients must be finite, got {coeffs}")
    core = _shape_core(np.asarray(coeffs, dtype=float).tobytes())
    if isinstance(core, str):
        raise InadmissiblePerturbation(core)
    p, n, p_range, n_range, u_max = core
    u_max = u_max / h_abs
    if not _apex_inside(g, u_max):
        raise InadmissiblePerturbation(
            f"profile apex {u_max:.6g} leaves the domain (radius {g.domain_radius:.6g})"
        )
    return _ModeShape(np.frombuffer(p), np.frombuffer(n), p_range, n_range, u_max)


@lru_cache(maxsize=4)
def _turning_angle_grid(n_samples: int) -> tuple[np.ndarray, ...]:
    """The sigma grid and Gauss panels of both sphere generators at ``n_samples`` samples.

    Returns sigma uniform on [0, pi], sin, cos and t = cos(2 sigma) at the
    samples, then sin, cos, t and the weights at the Gauss nodes of the
    panels left of the equator, as (panels, 8) arrays.  Built on the first
    call for a sample count; every array is read-only, since every later
    call shares it.  :func:`generate_cmc_sphere` reads sigma as w s; the
    family energy's rule is the nodes (:func:`_family_half_rule`).
    """
    sigma = np.linspace(0.0, math.pi, n_samples)
    nodes, weights = _panel_nodes(sigma[: n_samples // 2 + 1])
    grid = (sigma, np.sin(sigma), np.cos(sigma), np.cos(2.0 * sigma))
    grid += (np.sin(nodes), np.cos(nodes), np.cos(2.0 * nodes), weights)
    for a in grid:
        a.flags.writeable = False
    return grid


@lru_cache(maxsize=4)
def _grid_rates(n_samples: int) -> tuple:
    """sigma, sin, cos, step and d sigma/di of the read-only grid; sigma checked as by Profile."""
    sigma, sin_sig, cos_sig = _turning_angle_grid(n_samples)[:3]
    step = _check_samples({"sigma": sigma}, n_samples, closed=True, uniform_in=TURNING_ANGLE)
    stencil = derivative1(sigma, 1.0)
    stencil.flags.writeable = False
    return sigma, sin_sig, cos_sig, step, stencil


def _family_nodes(g: GeometryParams, h_abs: float, shape: _ModeShape, sin_sig, t) -> tuple:
    """P, N, u, B and ds/dsigma of a family shape at sin(sigma) and t = cos(2 sigma).

    P and N come from their Chebyshev series, u = sin(sigma) P/H,
    B = 1 + k u^2/4 and ds/dsigma = N/(H B).  Callers that need
    A^2 = 1 + tau^2 u^2 form it from u.
    """
    p, n = _chebval(t, shape.p), _chebval(t, shape.n)
    # u and ds/dsigma in place, with the roundings of sin(sigma) P/H and N/(H B): fewer
    # 64 KiB temporaries (one-mode sphere_from_modes peaks at 356 KiB at 2049 samples).
    u = sin_sig * p
    u /= h_abs
    b = _b_factor(g, u)
    ds_dsigma = h_abs * b
    np.divide(n, ds_dsigma, out=ds_dsigma)
    return p, n, u, b, ds_dsigma


def _mode_shape(g: GeometryParams, H: float, coeffs, n_samples: int) -> tuple[float, _ModeShape]:
    """|H| and the admissible shape of :func:`sphere_from_modes`' arguments, each checked."""
    _require_sphere_exists(g, H)
    if n_samples < 9 or n_samples % 2 == 0:
        raise ValueError("n_samples must be odd and at least 9")
    h_abs = abs(H)
    return h_abs, _require_admissible(g, h_abs, np.atleast_1d(np.asarray(coeffs, dtype=float)))


def _shape_samples(g: GeometryParams, h_abs: float, shape: _ModeShape, n_samples: int) -> dict:
    """u and ds/dsigma of a checked mode shape at the turning-angle samples."""
    _, sin_sig, _, t = _turning_angle_grid(n_samples)[:4]
    _, _, u, _, ds_dsigma = _family_nodes(g, h_abs, shape, sin_sig, t)
    u[[0, -1]] = 0.0
    return {"u": u, _SPEED_COLUMN: ds_dsigma}


def _mode_samples(g: GeometryParams, H: float, coeffs, n_samples: int) -> dict:
    """u and ds/dsigma of :func:`sphere_from_modes`, the columns the suites read.

    Each is checked by its consumer, sigma once per sample count in :func:`_grid_rates`.
    """
    return _shape_samples(g, *_mode_shape(g, H, coeffs, n_samples), n_samples)


def sphere_from_modes(
    g: GeometryParams,
    H: float,
    coeffs,
    *,
    n_samples: int = DEFAULT_SAMPLES,
) -> Profile:
    """Build the rotationally invariant sphere with shape coefficients ``coeffs``.

    With all coefficients zero this reproduces the CMC sphere of mean
    curvature |H| by quadrature in sigma, independently of
    :func:`generate_cmc_sphere`.  Raises
    :class:`InadmissiblePerturbation` when the shape is not a regular
    profile (ds/dsigma <= 0 somewhere) or leaves the domain; the decision
    is exact, on the Chebyshev series of P and N in cos(2 sigma)
    (:func:`_require_admissible`).  The samples are uniform in the turning
    angle (``TURNING_ANGLE``): sigma runs from 0 to pi in ``n_samples - 1``
    steps, the arclength s(sigma) and the height v(sigma) are running sums
    of 8-point Gauss panels between consecutive samples, and ds/dsigma is
    kept at every sample.  s and v are summed at the call, once the exact
    ranges of the shape bound them below overflow (else
    :class:`IntegrationError`).  Turning then spreads evenly over the
    samples, also where ds/dsigma is small near the family's regularity edge.
    ds/dsigma and dv/dsigma depend on sigma only through sin(sigma) and
    t = cos(2 sigma), both even about pi/2, so the panels are evaluated
    left of the equator only and repeated in mirror order right of it.
    u and ds/dsigma at the nodes and samples come from the family energy's
    node evaluator (:func:`_family_nodes`) on the grid cached per sample
    count (:func:`_turning_angle_grid`).  ``n_samples`` must be odd so the
    equator is a sample.
    """
    h_abs, shape = _mode_shape(g, H, coeffs, n_samples)
    # v <= pi max(ds/dsigma) A(max u), ds/dsigma = N/(|H| B), min B = min(1, B(max u))
    v_bound = math.pi * shape.n_range[1] * math.sqrt(_a_squared(g, shape.u_max))
    v_bound /= h_abs * min(1.0, _b_factor(g, shape.u_max))
    if not v_bound < _SUM_BOUND:
        raise IntegrationError(f"the mode sphere's heights overflow float64: bound {v_bound:.3g}")
    sigma, *_, sin_nodes, _, t_nodes, weights = _turning_angle_grid(n_samples)
    _, _, u_nodes, _, ds_nodes = _family_nodes(g, h_abs, shape, sin_nodes, t_nodes)
    a = np.sqrt(_a_squared(g, u_nodes))
    return Profile(
        **_shape_samples(g, h_abs, shape, n_samples),
        s=_mirrored_running_sum(ds_nodes * weights),
        v=_mirrored_running_sum(a * sin_nodes * ds_nodes * weights),
        sigma=sigma,
        geometry=g,
        mean_curvature=None if np.asarray(coeffs, dtype=float).any() else h_abs,
        closure=Closure.CLOSED_SPHERE,
        orientation=1 if H > 0 else -1,
        parametrization=TURNING_ANGLE,
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


# Gauss-Legendre panels in sigma of the family energy and its derivatives
# (_family_half_rule).  The energy density is singular at the complex zeros
# of N and P (poles), of B = 1 + k u^2/4 (poles) and of A^2 = 1 + tau^2 u^2
# (branch points).  A shape whose nearest singularity lies at least
# _FAMILY_POLE_MARGIN panel widths (pi/64 each) off [0, pi] gets 64 panels,
# any other shape 1024.
# On 16000 random admissible shapes (dims 1-3, k in [-3, 3], |tau| <= 2,
# H down to 0.003 above the existence bound) the 64-panel sum is within
# 6.3e-14 of 1024 panels wherever the singularity lies 2.5 widths off.
# Poles of B are the strongest: 1.5-1.75 widths off they leave up to
# 2.3e-11, 1.75-2 widths 1.5e-13.
_FAMILY_PANELS = 64
_FAMILY_FINE_PANELS = 1024
_FAMILY_POLE_MARGIN = 2.5


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


@lru_cache(maxsize=None)
def _family_half_rule(panels: int, dims: int) -> tuple[np.ndarray, ...]:
    """The family's Gauss rule on [0, pi/2]: weights, sin, cos, t = cos(2 sigma), mode terms.

    The rule is ``panels`` 8-point Gauss panels on [0, pi], those of
    :func:`_turning_angle_grid` at ``panels + 1`` samples.  The family
    density depends on sigma only through sin(sigma), cos^2(sigma) and
    t = cos(2 sigma), all even about pi/2, and the panels mirror about
    pi/2: the nodes left of it, with their own weights, give half the sum
    over all nodes.  The node arrays are raveled views of the grid's; the
    mode terms are (dims, nodes) arrays, the mode-m Chebyshev series of
    :func:`_mode_basis` at t.
    """
    *_, sin_sig, cos_sig, t, weights = (a.ravel() for a in _turning_angle_grid(panels + 1))
    modulation, numerator, _, _ = _mode_basis(dims)
    modes = (cheb.chebval(t, modulation.T), cheb.chebval(t, numerator.T))
    for a in modes:
        a.flags.writeable = False
    return weights, sin_sig, cos_sig, t, *modes
