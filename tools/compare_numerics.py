"""Compare the numbers of two source trees bit for bit.

Usage::

    python tools/compare_numerics.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``thurston_willmore`` package
(a checkout's ``src``).  For each tree one subprocess, with that tree first
on ``PYTHONPATH``, computes the same seeded items, in groups:

- ``family``: ``mode_family_energy``, then E, gradient and Hessian of
  ``_family_energy`` at the same point, on 3000 random admissible shapes
  (dims 1-3, k in [-3, 3], tau in [-2, 2] or a grid value, H from 0.003 to
  1.5 above the existence bound), canonical and plain-Willmore
  coefficients in turn.  In that order a tree whose family energy keeps
  its last point's node terms (``experiments._family_value``) computes the
  derivatives from them, as a descent does, and a tree without evaluates
  afresh;
- ``acceptance``: the criticality and minimality reports of every
  ``default_acceptance_grid()`` case, with s and v of its CMC sphere and of
  each competitor of ``default_perturbation_grid()``;
- ``descent``: dims-1 and dims-3 default descents on every 6th grid case,
  then 62 descents in the descent benchmark's mix (regular cases, H^2 + k/4
  at least 0.1): 60 dims-1 starts in mode 1 of both signs, their amplitudes
  rotating through the benchmark's four bins below its caps and a fifth bin
  above them whose starts are pulled into the family, one dims-2 start and
  one dims-3 descent from the default start.  A descent asks for the
  derivatives at each accepted step right after its trial's energy, so
  here a tree that keeps the family energy's last point reuses that
  trial's node terms, and one without decides the shape again, a hit in
  the shape memo of ``profile._shape_core``;
- ``modes`` and ``cmc``: 300 random ``sphere_from_modes`` and 300 random
  ``generate_cmc_sphere`` profiles at 1025 samples, with their samples,
  energy report, interior residual, the full ``el_residual`` array,
  the six per-sample arrays H, K, K_bar, nu, div_nuT and mu (through
  ``surface_fields``), the ``gauss_bonnet_total``,
  ``second_summand_derivative_check`` and ``willmore_relation_check``
  values, and the first variation;
- ``geometry``: 2000 draws of the public ``geometry`` functions, tau in
  [-3, 3];
- ``sweep``: every ``SweepRow`` field, error text included, of
  ``experiments.sweep`` on 600 one-case specs at the default sample count,
  in the sweep benchmark's mix: per 20 cases, 16 regular (H^2 + k/4 at
  least 0.1), 3 near the existence boundary (k < 0, H^2 + k/4 log-uniform
  in [1e-6, 1e-1]) and 1 without a sphere (H = 0 with k > 0, or
  H^2 < -k/4);
- ``verify``: the full ``verify_criticality`` and ``verify_minimality``
  reports, each with its failure text and the error text of every
  inadmissible competitor, of 300 cases in the verify benchmark's mix: per
  6 regular cases (H^2 + k/4 at least 0.1), 5 with canonical coefficients
  and 1 plain-Willmore negative control (|k - 4 tau^2| at least 0.1) for
  the criticality suite; the minimality suite runs canonical throughout;
- ``fallbacks``: drawn last, from a stream of its own, so the groups above
  keep their items.  100 first variations at the default sample count on
  ``sphere_from_modes`` profiles (dims 1-3), about half of whose
  ``arctan2`` angles read -pi at the last sample, so that
  ``deformed_curve_energy`` takes both branches of its unwrap; then 100
  mode shapes whose coefficients are signed zeros or within a few decades
  of 1e-300, with the samples and energy of their ``sphere_from_modes``
  profile and ``_family_energy`` with its derivatives;
- ``heights``: drawn last, from a stream of its own, so the groups above
  keep their items.  Mode shapes whose s and v no bound from the shape's
  ranges keeps finite and increasing, so that a tree which defers the
  heights of ``sphere_from_modes`` sums them at the call instead: 100
  shapes (dims 1-3) just inside the regularity edge, with min N / max N
  below 1e-6, then 100 shapes at |tau| log-uniform in [1e150, 1e200].
  Each item holds the samples, s and v included, and the energy report of
  the mode sphere and of the CMC sphere of its case at the default sample
  count, or their error text;
- ``overflow``: drawn last, from a stream of its own, so the groups above
  keep their items.  Cases at the edge of float64 overflow, 25 of each of
  five kinds: |tau| within 2% of 6.7e153 (where 4 tau^2 overflows) and of
  1.34e154 (tau * tau), H within 2% of 1.34e154 (H * H), a tiny H where
  pi A(1/|H|)/w, which bounds the CMC sphere's v, is within 5% of 1e300,
  and a mode-1 shape whose apex lies within 1e-4 to 1e-1 of the domain
  radius at H from 1e-151 to 1e-149 (k = -4 H^2 r, r in [0.3, 0.9]).  Each
  item holds, as ``heights`` does, the samples and energy report of the
  mode sphere and of the CMC sphere, and ``mode_family_energy``, or their
  error text;
- ``stencils``: drawn last, from a stream of its own, so the groups above
  keep their items.  ``derivative1`` and ``derivative2`` at strides 1-4,
  each with a scalar and an array spacing, at 5 stride, 5 stride + 1, 21,
  1025 and 2049 samples, on four kinds of samples: a smooth curve with
  noise, normal draws at a random decade, signed zeros among magnitudes
  near 1e300 and 1e-300, and signed zeros alone;
- ``turning_angle``: drawn last, from a stream of its own, so the groups
  above keep their items.  The energy report of ``sphere_from_modes`` at
  129 and at 2049 samples next to ``mode_family_energy``, or their error
  text: on 100 random admissible shapes, on the apex edge of the family at
  (-1, 0, 0.6) with c = -0.19, -0.199, -0.1995 and -0.1999, and on the
  CMC sphere (c = 0) at k = -1, tau = -0.5 with H^2 + k/4 = 1e-4, 1e-5
  and 1e-6.

A failure is recorded as its exception text.  Per group the script prints
how many items differ in any bit, how many of those were drawn at a tau
with ``tau**2 != tau * tau`` or with ``tau * tau`` not finite (where
``tau**2`` raises), and the largest difference of a value
relative to that value's scale (its largest magnitude), with its key, or,
where no float value differs, the keys that do.  The exit status is 1 if
any item differs, else 0.  A companion of
``compare_outputs.py``, not a test.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

FAMILY_SHAPES = 3000
PROFILES = 300
PROFILE_SAMPLES = 1025
GEOMETRY_DRAWS = 2000
GRID_TAUS = (-0.5, 0.0, 0.3, 0.5)
SWEEP_CASES = 600
VERIFY_CASES = 300
FALLBACK_ITEMS = 100
HEIGHT_ITEMS = 100
OVERFLOW_ITEMS = 25
TURNING_ANGLE_ITEMS = 100
TURNING_ANGLE_SAMPLES = (129, 2049)
STENCIL_STRIDES = (1, 2, 3, 4)
# family_dims of the descent group's benchmark-mix items, laid out as in a descent benchmark block.
DESCENT_MIX = (1,) * 30 + (2,) + (1,) * 30 + (3,)
# The descent benchmark's start amplitude caps per (mode, sign) and its bins below them.
AMPLITUDE_CAP = {(1, 1): 0.19, (1, -1): 0.2, (2, 1): 0.2, (2, -1): 0.05}
AMPLITUDE_BINS = 4


def _flat(obj, prefix: str, out: dict) -> dict:
    """Numbers of a report or array as float arrays by key path, everything else as text."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flat(value, f"{prefix}/{key}", out)
    elif isinstance(obj, (list, tuple)) and not all(isinstance(x, (int, float)) for x in obj):
        for i, value in enumerate(obj):
            _flat(value, f"{prefix}/{i}", out)
    elif isinstance(obj, (int, float, list, tuple, np.ndarray)) and not isinstance(obj, bool):
        out[prefix] = np.asarray(obj, dtype=float)
    else:
        out[prefix] = repr(obj)
    return out


def _attempt(item: dict, name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or None with the exception text stored under ``name``."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a failure is an item value like any other
        item[name] = f"{type(exc).__name__}: {exc}"
        return None


def _random_case(rng):
    """(k, tau, H) with H from 0.003 to 1.5 above the existence bound."""
    from thurston_willmore.geometry import GeometryParams

    k = rng.uniform(-3.0, 3.0)
    tau = rng.choice(GRID_TAUS) if rng.random() < 0.25 else rng.uniform(-2.0, 2.0)
    floor = math.sqrt(-0.25 * k) if k < 0.0 else 0.0
    return GeometryParams(k, float(tau)), floor + rng.uniform(0.003, 1.5)


def _random_shape(rng, g, H):
    """Random mode coefficients (dims 1-3, mode m within 0.3/m^2), redrawn until admissible."""
    from thurston_willmore.profile import InadmissiblePerturbation, _require_admissible

    dims = int(rng.integers(1, 4))
    while True:
        c = rng.uniform(-1.0, 1.0, dims) * 0.3 / np.arange(1, dims + 1) ** 2
        try:
            _require_admissible(g, abs(H), c)
            return c
        except InadmissiblePerturbation:
            pass


def _sweep_case(rng, i: int) -> tuple[float, float, float]:
    """(k, tau, H) of the sweep benchmark's stratum for position ``i`` in a block of 20."""
    tau = rng.uniform(-0.6, 0.6)
    if i % 20 in (4, 10, 16):
        k = rng.uniform(-1.0, -0.25)
        return k, tau, math.sqrt(10.0 ** rng.uniform(-6.0, -1.0) - 0.25 * k)
    if i % 20 == 19:
        if i % 40 == 19:
            return rng.uniform(0.1, 1.0), tau, 0.0
        k = rng.uniform(-1.0, -0.25)
        return k, tau, rng.uniform(0.0, 0.95) * math.sqrt(-0.25 * k)
    k = rng.uniform(-1.0, 1.0)
    return k, tau, rng.uniform(max(0.6, math.sqrt(max(0.0, 0.1 - 0.25 * k))), 1.5)


def _verify_case(rng, i: int) -> tuple[float, float, float, bool]:
    """(k, tau, H, plain) of the verify benchmark's case for position ``i`` in a block of 6."""
    plain = i % 6 == 5
    while True:
        k, tau, H = _regular_case(rng)
        if not plain or abs(k - 4.0 * tau * tau) >= 0.1:
            return k, tau, H, plain


def _regular_case(rng) -> tuple[float, float, float]:
    """(k, tau, H) of the benchmarks' regular stratum: H^2 + k/4 at least 0.1."""
    k, tau = rng.uniform(-1.0, 1.0), rng.uniform(-0.6, 0.6)
    return k, tau, rng.uniform(max(0.6, math.sqrt(max(0.0, 0.1 - 0.25 * k))), 1.5)


def _descent_start(rng, n: int, dims: int) -> tuple[float, int]:
    """(epsilon, mode) of the ``n``-th start in ``dims`` dimensions, in the descent benchmark's mix.

    Modes and signs rotate, then the amplitude bins: the benchmark's four,
    20% to 90% of the cap, and a fifth, 90% to 160% of it, whose starts
    ``descend_energy`` may pull into the family.
    """
    mode = 1 + n % dims
    sign = 1 if (n // dims) % 2 == 0 else -1
    bin_index = (n // (2 * dims)) % (AMPLITUDE_BINS + 1)
    if bin_index < AMPLITUDE_BINS:
        fraction = 0.2 + 0.7 * (bin_index + rng.random()) / AMPLITUDE_BINS
    else:
        fraction = rng.uniform(0.9, 1.6)
    return sign * fraction * AMPLITUDE_CAP[(mode, sign)], mode


def _profile_item(profile_fn, *args) -> dict:
    from thurston_willmore.experiments import first_variation
    from thurston_willmore.functional import (
        canonical_coefficients,
        el_residual,
        energy,
        gauss_bonnet_total,
        max_interior_residual,
        second_summand_derivative_check,
        surface_fields,
        willmore_relation_check,
    )

    item = {}
    p = _attempt(item, "profile", profile_fn, *args, n_samples=PROFILE_SAMPLES)
    if p is None:
        return item
    coeffs = canonical_coefficients(p.geometry)
    for name in p._columns():
        item[name] = np.asarray(getattr(p, name))
    for name, fn in (
        ("energy", lambda: energy(p).to_dict()),
        ("residual", lambda: max_interior_residual(p, coeffs)),
        ("el_residual", lambda: el_residual(p, coeffs)),
        ("surface_fields", lambda: surface_fields(p)),
        ("gauss_bonnet", lambda: gauss_bonnet_total(p)),
        ("second_summand_derivative", lambda: second_summand_derivative_check(p)),
        ("willmore_relation", lambda: willmore_relation_check(p)),
        ("variation", lambda: [v.to_dict() for v in first_variation(p, coeffs)]),
    ):
        value = _attempt(item, name, fn)
        if value is not None:
            _flat(value, name, item)
    return item


def compute() -> dict:
    """Every group's items as (tau, {key: value}) pairs."""
    from thurston_willmore import geometry as geo
    from thurston_willmore.experiments import (
        SweepSpec,
        _family_energy,
        default_acceptance_grid,
        default_perturbation_grid,
        descend_energy,
        first_variation,
        mode_family_energy,
        sweep,
        verify_criticality,
        verify_minimality,
    )
    from thurston_willmore.functional import FunctionalCoefficients, canonical_coefficients, energy
    from thurston_willmore.profile import (
        PerturbationSpec,
        generate_cmc_sphere,
        perturbed_sphere,
        sphere_from_modes,
    )

    rng = np.random.default_rng(20141016)
    names = ("family", "acceptance", "descent", "modes", "cmc", "geometry", "sweep", "verify")
    names += ("fallbacks", "heights", "overflow", "stencils", "turning_angle")
    groups = {name: [] for name in names}

    for i in range(FAMILY_SHAPES):
        g, H = _random_case(rng)
        c = _random_shape(rng, g, H)
        plain = FunctionalCoefficients.plain_willmore()
        coeffs = canonical_coefficients(g) if i % 2 == 0 else plain
        item = {"mode_family_energy": np.asarray(mode_family_energy(g, H, c, coeffs))}
        E, grad, hess = _family_energy(g, H, c, coeffs, derivatives=True)
        item.update(E=np.asarray(E), gradient=grad, hessian=hess)
        groups["family"].append((g.tau, item))

    cases = default_acceptance_grid()
    for g, H in cases:
        item = {}
        crit = verify_criticality(g, H)
        _flat(crit.to_dict(), "criticality", item)
        _flat({"s": crit.profile.s, "v": crit.profile.v}, "sphere", item)
        _flat(verify_minimality(g, H).to_dict(), "minimality", item)
        for spec in default_perturbation_grid():
            p = _attempt(item, f"{spec}", perturbed_sphere, g, H, spec)
            if p is not None:
                _flat({"s": p.s, "v": p.v}, f"{spec}", item)
        groups["acceptance"].append((g.tau, item))

    for g, H in cases[::6]:
        for dims in (1, 3):
            item = _flat(descend_energy(g, H, dims).to_dict(), "descent", {})
            groups["descent"].append((g.tau, item))
    # its own stream, so that the groups below draw the items they drew before this mix
    mix_rng = np.random.default_rng(20141017)
    seen = {1: 0, 2: 0}
    for dims in DESCENT_MIX:
        k, tau, H = _regular_case(mix_rng)
        start = None
        if dims < 3:
            start = PerturbationSpec(*_descent_start(mix_rng, seen[dims], dims))
            seen[dims] += 1
        item = {}
        g = geo.GeometryParams(k, tau)
        report = _attempt(item, "descent", descend_energy, g, H, dims, start=start)
        if report is not None:
            _flat(report.to_dict(), "descent", item)
        groups["descent"].append((tau, item))

    for _ in range(PROFILES):
        g, H = _random_case(rng)
        c = _random_shape(rng, g, H)
        groups["modes"].append((g.tau, _profile_item(sphere_from_modes, g, H, c)))
    for _ in range(PROFILES):
        g, H = _random_case(rng)
        groups["cmc"].append((g.tau, _profile_item(generate_cmc_sphere, g, H)))

    for _ in range(GEOMETRY_DRAWS):
        g = geo.GeometryParams(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        reach = 0.99 * min(g.domain_radius, 5.0)
        u, nu = rng.uniform(0.0, reach, 16), rng.uniform(-1.0, 1.0, 16)
        point = geo.CylindricalPoint(float(u[0]), rng.uniform(0.0, 2.0 * math.pi), rng.normal())
        item = {
            "sectional_curvature": geo.sectional_curvature(g, nu),
            "sectional_curvature_scalar": np.asarray(geo.sectional_curvature(g, float(nu[0]))),
            "ricci_normal": geo.ricci_normal(g, nu),
            "ambient_metric_cylindrical": geo.ambient_metric_cylindrical(g, point),
            "quotient_metric": np.array(geo.quotient_metric(g, u)),
            "quotient_metric_scalar": np.array(geo.quotient_metric(g, float(u[1]))),
            "orbit_volume_factor": geo.orbit_volume_factor(g, u),
            "orbit_volume_factor_scalar": np.asarray(geo.orbit_volume_factor(g, float(u[2]))),
        }
        groups["geometry"].append((g.tau, item))

    for i in range(SWEEP_CASES):
        k, tau, H = _sweep_case(rng, i)
        (row,) = sweep(SweepSpec((k,), (tau,), (H,)))
        groups["sweep"].append((tau, _flat(dataclasses.asdict(row), "row", {})))

    for i in range(VERIFY_CASES):
        k, tau, H, plain = _verify_case(rng, i)
        g = geo.GeometryParams(k, tau)
        coeffs = FunctionalCoefficients.plain_willmore() if plain else None
        item = {}
        for name, suite, args in (
            ("criticality", verify_criticality, (g, H, coeffs)),
            ("minimality", verify_minimality, (g, H)),
        ):
            report = _attempt(item, name, suite, *args)
            if report is not None:
                _flat({**report.to_dict(), "failure": report.failure}, name, item)
        groups["verify"].append((tau, item))

    fallback_rng = np.random.default_rng(20141018)
    for _ in range(FALLBACK_ITEMS):
        g, H = _random_case(fallback_rng)
        item = {}
        p = _attempt(item, "profile", sphere_from_modes, g, H, _random_shape(fallback_rng, g, H))
        if p is not None:
            coeffs = canonical_coefficients(g)
            _flat([v.to_dict() for v in first_variation(p, coeffs)], "variation", item)
        groups["fallbacks"].append((g.tau, item))
    for _ in range(FALLBACK_ITEMS):
        g, H = _random_case(fallback_rng)
        dims = int(fallback_rng.integers(1, 4))
        exponents = fallback_rng.uniform(-300.0, -295.0, dims)
        tiny = fallback_rng.choice([-1.0, 1.0], dims) * 10.0**exponents
        c = np.where(fallback_rng.random(dims) < 0.3, np.copysign(0.0, tiny), tiny)
        item = {"coefficients": c}
        p = _attempt(item, "profile", sphere_from_modes, g, H, c)
        if p is not None:
            _flat({name: getattr(p, name) for name in p._columns()}, "samples", item)
            _flat(energy(p).to_dict(), "energy", item)
        family = _attempt(item, "family", _family_energy, g, H, c, derivatives=True)
        if family is not None:
            _flat(list(family), "family", item)
        groups["fallbacks"].append((g.tau, item))

    for g, H, c in _height_cases():
        groups["heights"].append((g.tau, _spheres_item(g, H, c)))
    for g, H, c in _overflow_cases():
        item = _spheres_item(g, H, c)
        family = _attempt(item, "family", mode_family_energy, g, H, c)
        if family is not None:
            item["family"] = np.asarray(family)
        groups["overflow"].append((g.tau, item))
    groups["stencils"] = _stencil_items()
    groups["turning_angle"] = _turning_angle_items()
    return groups


def _turning_angle_items() -> list:
    """(tau, item) pairs of the ``turning_angle`` group, from a stream of its own."""
    from thurston_willmore.experiments import mode_family_energy
    from thurston_willmore.functional import energy
    from thurston_willmore.geometry import GeometryParams
    from thurston_willmore.profile import sphere_from_modes

    rng = np.random.default_rng(20141022)
    cases = []
    for _ in range(TURNING_ANGLE_ITEMS):
        g, H = _random_case(rng)
        cases.append((g, H, _random_shape(rng, g, H)))
    for c in (-0.19, -0.199, -0.1995, -0.1999):
        cases.append((GeometryParams(-1.0, 0.0), 0.6, np.array([c])))
    for gap in (1e-4, 1e-5, 1e-6):
        cases.append((GeometryParams(-1.0, -0.5), math.sqrt(0.25 + gap), np.array([0.0])))
    items = []
    for g, H, c in cases:
        item = {"coefficients": c}
        for n in TURNING_ANGLE_SAMPLES:
            report = _attempt(item, f"{n}", lambda: energy(sphere_from_modes(g, H, c, n_samples=n)))
            if report is not None:
                _flat(report.to_dict(), f"{n}", item)
        family = _attempt(item, "family", mode_family_energy, g, H, c)
        if family is not None:
            item["family"] = np.asarray(family)
        items.append((g.tau, item))
    return items


def _stencil_items() -> list:
    """(tau, item) pairs of the ``stencils`` group, from a stream of its own; tau is 0."""
    from thurston_willmore.numerics import derivative1, derivative2

    rng = np.random.default_rng(20141021)
    items = []
    for stride in STENCIL_STRIDES:
        for n in sorted({5 * stride, 5 * stride + 1, 21, 1025, 2049}):
            x = np.linspace(0.0, rng.uniform(0.5, 4.0), n)
            extreme = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.choice([-300.0, 300.0], n)
            zero = rng.random(n) < 0.3
            extreme[zero] = rng.choice([-0.0, 0.0], zero.sum())
            samples = {
                "smooth": np.sin(3.0 * x) + 1e-9 * rng.standard_normal(n),
                "normal": rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 6.0),
                "extreme": extreme * rng.uniform(1.0, 9.0, n),
                "zeros": np.copysign(0.0, rng.standard_normal(n)),
            }
            spacings = {"scalar": float(x[1] - x[0]), "array": rng.uniform(0.5, 2.0, n)}
            for kind, y in samples.items():
                item = {}
                with np.errstate(all="ignore"):
                    for spacing, h in spacings.items():
                        item[f"derivative1/{spacing}"] = derivative1(y, h, stride)
                        item[f"derivative2/{spacing}"] = derivative2(y, h, stride)
                items.append((0.0, {"kind": kind, "stride": np.asarray(stride), **item}))
    return items


def _spheres_item(g, H, c) -> dict:
    """Samples and energy report of the mode sphere ``c`` and of the CMC sphere, or their errors."""
    from thurston_willmore.functional import energy
    from thurston_willmore.profile import generate_cmc_sphere, sphere_from_modes

    item = {"coefficients": c}
    for name, fn, args in (
        ("modes", sphere_from_modes, (g, H, c)),
        ("cmc", generate_cmc_sphere, (g, H)),
    ):
        p = _attempt(item, name, fn, *args)
        if p is not None:
            _flat({column: getattr(p, column) for column in p._columns()}, name, item)
            report = _attempt(item, f"{name}/energy", energy, p)
            if report is not None:
                _flat(report.to_dict(), f"{name}/energy", item)
    return item


def _overflow_cases():
    """(g, H, coefficients) of the ``overflow`` group, from a stream of its own."""
    from thurston_willmore.geometry import GeometryParams

    rng = np.random.default_rng(20141020)
    cases = []
    for i in range(2 * OVERFLOW_ITEMS):
        g, H = _random_case(rng)
        edge = 6.7e153 if i % 2 == 0 else 1.34e154
        tau = float(rng.choice([-1.0, 1.0]) * edge * rng.uniform(0.98, 1.02))
        g = GeometryParams(g.k, tau)
        cases.append((g, H, _random_shape(rng, g, H)))
    for _ in range(OVERFLOW_ITEMS):
        g, _ = _random_case(rng)
        H = float(rng.choice([-1.0, 1.0]) * 1.34e154 * rng.uniform(0.98, 1.02))
        cases.append((g, H, _random_shape(rng, g, H)))
    for _ in range(OVERFLOW_ITEMS):
        # pi A(1/|H|)/w = pi sqrt(1 + tau^2/H^2)/|H| at k = 0, about pi |tau|/H^2
        g = GeometryParams(0.0, rng.uniform(0.1, 2.0))
        H = math.sqrt(math.pi * g.tau / (1e300 * rng.uniform(0.95, 1.05)))
        cases.append((g, H, _random_shape(rng, g, H)))
    for _ in range(OVERFLOW_ITEMS):
        H = 10.0 ** rng.uniform(-151.0, -149.0)
        r = rng.uniform(0.3, 0.9)
        g = GeometryParams(-4.0 * r * H * H, rng.uniform(0.01, 1.0))
        # u = sqrt((1 - t)/2) (1 + c t)/H peaks at the equator at (1 - c)/H for c < 0
        c = 1.0 - (1.0 - 10.0 ** rng.uniform(-4.0, -1.0)) / math.sqrt(r)
        cases.append((g, H, np.array([c])))
    return cases


def _height_cases():
    """(g, H, coefficients) of the ``heights`` group, from a stream of its own."""
    from thurston_willmore.geometry import GeometryParams
    from thurston_willmore.profile import (
        InadmissiblePerturbation,
        _require_admissible,
        _series_range,
        _shape_series,
    )

    rng = np.random.default_rng(20141019)
    cases = []
    while len(cases) < HEIGHT_ITEMS:
        g, H = _random_case(rng)
        dims = int(rng.integers(1, 4))
        direction = rng.uniform(-1.0, 1.0, dims) * 0.3 / np.arange(1, dims + 1) ** 2
        # N = 1 + lambda q(t) along the direction, so N's minimum reaches 0 at lambda = -1/min q
        _, _, n, n_ends = _shape_series(direction)
        q_min = _series_range(n, n_ends)[0] - 1.0
        if not q_min < 0.0:
            continue
        c = -(1.0 - 10.0 ** rng.uniform(-13.0, -7.0)) / q_min * direction
        try:
            n_low, n_high = _require_admissible(g, abs(H), c).n_range
        except InadmissiblePerturbation:
            continue
        if n_low < 1e-6 * n_high:
            cases.append((g, H, c))
    while len(cases) < 2 * HEIGHT_ITEMS:
        g, H = _random_case(rng)
        tau = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(150.0, 200.0))
        g = GeometryParams(g.k, tau)
        cases.append((g, H, _random_shape(rng, g, H)))
    return cases


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


def _gap(a: dict, b: dict) -> tuple[float, float, str]:
    """The largest difference of a float value both items hold, relative to that value's scale.

    Returned as (relative, absolute, key).
    """
    worst = (0.0, 0.0, "")
    for key in a.keys() & b.keys():
        x, y = a[key], b[key]
        if isinstance(x, np.ndarray) and isinstance(y, np.ndarray) and x.shape == y.shape:
            with np.errstate(invalid="ignore"):
                d = np.abs(x - y)
            d = d[np.isfinite(d)]
            if d.size and d.max() > 0.0:
                scale = max(float(np.max(np.abs(x[np.isfinite(x)]), initial=0.0)), 1e-300)
                worst = max(worst, (float(d.max()) / scale, float(d.max()), key))
    return worst


def report(parent: dict, change: dict) -> int:
    """Print one line per group; the number of items that differ."""
    total = 0
    for name, items in parent.items():
        other = change[name]
        differ = spelled = 0
        worst = (0.0, 0.0, "")
        keys = set()
        for (tau, a), (_, b) in zip(items, other, strict=True):
            if a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a):
                continue
            differ += 1
            spelled += not math.isfinite(tau * tau) or tau**2 != tau * tau
            worst = max(worst, _gap(a, b))
            keys.update(a.keys() ^ b.keys())
            keys.update(k for k in a.keys() & b.keys() if not _same(a[k], b[k]))
        total += differ
        line = f"{name}: {len(items)} items, {differ} differ"
        line += f" ({spelled} at tau**2 != tau * tau or tau * tau not finite)"
        if worst[1] > 0.0:
            line += f"; largest {worst[1]:.3g} ({worst[0]:.3g} of its scale) in {worst[2]}"
        elif differ:
            line += f"; no float value differs; differing keys {sorted(keys)}"
        print(line)
    return total


def run_tree(src: Path) -> dict:
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, __file__, "--compute"], env=env, capture_output=True, check=True
    )
    return pickle.loads(done.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--compute"]:
        sys.stdout.buffer.write(pickle.dumps(compute()))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (run_tree(Path(root).resolve()) for root in argv)
    return 1 if report(parent, change) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
