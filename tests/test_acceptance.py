"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output of a failing run).  The parameter grid covers the four
named model-geometry cases plus Berger-family parameters; every H value
satisfies the sphere existence condition with margin.
"""

import math
import time

import numpy as np

from thurston_willmore import (
    ExistenceViolation,
    FunctionalCoefficients,
    GeometryParams,
    PerturbationSpec,
    canonical_coefficients,
    energy,
    gauss_bonnet_total,
    generate_cmc_sphere,
    h_squared_identity_check,
    profile_first_integral,
    second_summand_derivative_check,
    willmore_relation_check,
)
from thurston_willmore.experiments import (
    default_acceptance_grid,
    descend_energy,
    verify_criticality,
    verify_minimality,
)

from conftest import cached_perturbed, cached_sphere
from shooting_oracle import ProfileState, StopCondition, integrate

FOUR_PI = 4.0 * math.pi

THURSTON_CASES = [
    (0.0, 0.5, 1.0),
    (-1.0, -0.5, 0.8),
    (1.0, 0.0, 1.0),
    (-1.0, 0.0, 0.8),
]


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} ({name}): {verdict}{suffix}")


def test_criterion_1_energy_value():
    worst = 0.0
    slowest = 0.0
    ok = True
    for g, H in default_acceptance_grid():
        t0 = time.perf_counter()
        rep = energy(generate_cmc_sphere(g, H))
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        gap = abs(rep.E - FOUR_PI) / FOUR_PI
        worst = max(worst, gap)
        ok &= gap < 1e-6 and elapsed < 1.0
    report(1, "energy value", ok, f"worst relative gap {worst:.2e}, slowest case {slowest:.2f}s")
    assert ok


def test_criterion_2_criticality():
    worst_res = 0.0
    worst_var = 0.0
    slowest = 0.0
    ok = True
    for g, H in default_acceptance_grid():
        t0 = time.perf_counter()
        rep = verify_criticality(g, H)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        var = max(abs(v.dE_dt) for v in rep.variations)
        worst_res = max(worst_res, rep.max_residual)
        worst_var = max(worst_var, var)
        ok &= rep.max_residual < 1e-4 and var < 1e-5 and elapsed < 5.0
    report(
        2,
        "criticality",
        ok,
        f"worst residual {worst_res:.2e}, worst variation {worst_var:.2e}, "
        f"slowest case {slowest:.2f}s",
    )
    assert ok


def test_criterion_3_negative_control():
    t0 = time.perf_counter()
    rep = verify_criticality(
        GeometryParams(0.0, 0.5), 1.0, FunctionalCoefficients(1.0, 0.0)
    )
    elapsed = time.perf_counter() - t0
    var = max(abs(v.dE_dt) for v in rep.variations)
    ok = rep.max_residual > 1e-2 and var > 1e-2 and elapsed < 5.0
    report(
        3,
        "negative control",
        ok,
        f"residual {rep.max_residual:.3f}, variation {var:.3f}",
    )
    assert ok


def test_criterion_4_minimality():
    ok = True
    slowest = 0.0
    for k, tau, H in THURSTON_CASES:
        t0 = time.perf_counter()
        rep = verify_minimality(GeometryParams(k, tau), H)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        admissible = [e for e in rep.entries if e.admissible]
        ok &= elapsed < 10.0
        ok &= len(admissible) == 9  # the other three shapes are not regular profiles
        for entry in admissible:
            ok &= entry.E > FOUR_PI + 1e-7
            ok &= abs(entry.second_summand - FOUR_PI) < 1e-6
    report(4, "minimality", ok, f"slowest case {slowest:.2f}s")
    assert ok


def test_criterion_5_descent():
    t0 = time.perf_counter()
    rep = descend_energy(
        GeometryParams(0.0, 0.5), 1.0, 3, start=PerturbationSpec(0.2, 1)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        rep.converged
        and rep.iterations <= 200
        and rep.energy_final - FOUR_PI < 1e-6
        and rep.identity_residual < 1e-3
        and elapsed < 60.0
    )
    report(
        5,
        "descent",
        ok,
        f"{rep.iterations} iterations, E - 4pi = {rep.energy_final - FOUR_PI:.2e}, "
        f"identity {rep.identity_residual:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_conservation():
    worst = 0.0
    ok = True
    for g, H in default_acceptance_grid():
        p = cached_sphere(g.k, g.tau, H)
        j = profile_first_integral(g, H, p)
        worst = max(worst, float(np.max(np.abs(j - j[0]))))
    rng = np.random.default_rng(20260810)
    geometries = {(g.k, g.tau) for g, _ in default_acceptance_grid()}
    for k, tau in sorted(geometries):
        g = GeometryParams(k, tau)
        cap = min(3.0, 0.45 * g.domain_radius)
        for _ in range(5):
            start = ProfileState(0.0, rng.uniform(0.3, cap), 0.0, rng.uniform(0.0, 2 * math.pi))
            p = integrate(g, 0.8, start, StopCondition.arclength(4.0))
            j = profile_first_integral(g, 0.8, p)
            worst = max(worst, float(np.max(np.abs(j - j[0]))))
    ok = worst < 1e-8
    report(6, "conservation", ok, f"worst drift {worst:.2e}")
    assert ok


def test_criterion_7_exact_identities():
    rng = np.random.default_rng(271828)
    g = GeometryParams(-1.0, -0.5)
    u = rng.uniform(0.05, 1.8, 10_000)
    sig = rng.uniform(0.0, math.pi, 10_000)
    sd = rng.uniform(-2.0, 2.0, 10_000)
    identity_max = float(np.max(h_squared_identity_check(g, u, sig, sd)))
    ok = identity_max < 1e-12

    closed_profiles = [cached_sphere(g.k, g.tau, H) for g, H in default_acceptance_grid()]
    closed_profiles += [
        cached_perturbed(0.0, 0.5, 1.0, eps, mode)
        for eps, mode in ((0.1, 1), (-0.1, 1), (0.05, 2), (0.2, 2))
    ]
    worst_rel = 0.0
    worst_gb = 0.0
    worst_ssd = 0.0
    for p in closed_profiles:
        worst_rel = max(worst_rel, willmore_relation_check(p))
        worst_gb = max(worst_gb, abs(gauss_bonnet_total(p) - FOUR_PI))
        worst_ssd = max(worst_ssd, second_summand_derivative_check(p))
    ok &= worst_rel < 1e-8 and worst_gb < 1e-3 and worst_ssd < 1e-5
    report(
        7,
        "exact identities",
        ok,
        f"identity {identity_max:.1e}, relation {worst_rel:.1e}, "
        f"gauss-bonnet {worst_gb:.1e}, derivative {worst_ssd:.1e}",
    )
    assert ok


def test_criterion_8_existence_boundary():
    ok = True
    # failures: k <= 0 with H^2 inside the rejection band
    for k, tau, H in [
        (-1.0, -0.5, 0.5),
        (-1.0, -0.5, math.sqrt(0.25 + 5e-13)),
        (-1.0, 0.0, 0.4),
        (-0.25, 0.3, 0.25),
        (0.0, 0.5, 0.0),
        (1.0, 0.3, 0.0),
    ]:
        try:
            generate_cmc_sphere(GeometryParams(k, tau), H)
            ok = False
        except ExistenceViolation:
            pass
    # successes: H^2 >= -k/4 + 1e-3 closes up, including the mirror sign
    for k, tau in ((-1.0, -0.5), (-0.25, 0.3), (0.0, 0.5)):
        H = math.sqrt(-k / 4.0 + 1e-3)
        p = generate_cmc_sphere(GeometryParams(k, tau), H)
        ok &= float(np.max(np.abs(np.sin(p.sigma) - H * p.u))) < 1e-8
    p = generate_cmc_sphere(GeometryParams(1.0, 0.3), -0.8)
    ok &= p.orientation == -1
    report(8, "existence boundary", ok)
    assert ok


def test_criterion_9_special_coefficients():
    values = {
        (0.0, 0.5): (0.25, -1.0 / 16.0),
        (-1.0, -0.5): (0.25, -5.0 / 16.0),
        (1.0, 0.0): (0.25, 0.25),
    }
    ok = True
    for (k, tau), (alpha, beta) in values.items():
        c = canonical_coefficients(GeometryParams(k, tau))
        ok &= (c.alpha, c.beta) == (alpha, beta)
    report(9, "special coefficients", ok)
    assert ok
