import dataclasses
import json
import math
import pickle
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thurston_willmore import (
    Closure,
    ExistenceViolation,
    GeometryParams,
    InadmissiblePerturbation,
    IntegrationError,
    PerturbationSpec,
    Profile,
    Tolerances,
    energy,
    generate_cmc_sphere,
    perturbed_sphere,
    profile_first_integral,
    sphere_from_modes,
)
from thurston_willmore import profile as profile_module
from thurston_willmore.experiments import (
    ENERGY_TOL,
    SweepSpec,
    default_acceptance_grid,
    default_perturbation_grid,
    descend_energy,
    sweep,
    verify_criticality,
    verify_minimality,
)
from thurston_willmore.numerics import derivative1
from thurston_willmore.profile import (
    ARCLENGTH,
    DEFAULT_SAMPLES,
    TURNING_ANGLE,
    _check_samples,
    _mirrored_running_sum,
    _require_admissible,
    _require_sphere_exists,
)

import shooting_oracle
from mode_oracle import reduced_sine_ratio
from panel_oracle import cmc_sphere_direct_heights, cmc_sphere_samples, mode_sphere_samples
from samples_oracle import check_samples
from shooting_oracle import (
    ProfileState,
    StopCondition,
    cmc_sigma_rate,
    first_integral,
    integrate,
    ode_rhs,
)


# the acceptance grid, mirror surfaces, and k = -1 down to H^2 + k/4 = 1e-8
HEIGHT_CASES = (
    [(g.k, g.tau, H) for g, H in default_acceptance_grid()]
    + [(0.0, 0.5, -1.0), (1.0, 0.6, 0.01)]
    + [(-1.0, tau, math.sqrt(0.25 + m)) for tau in (-0.6, 0.0, 0.6)
       for m in (1e-2, 1e-4, 1e-6, 1e-8)]
)


class TestOdeRhs:
    def test_value_on_sphere_branch(self):
        # on the sphere branch the turning rate is 2H - (1/u) sin(sigma) = 1
        g = GeometryParams(0.0, 0.5)
        state = ProfileState(0.0, 0.5, 0.0, math.asin(0.5))
        du, dv, dsig = ode_rhs(g, 1.0, state)
        assert dsig == pytest.approx(1.0)
        assert dsig == pytest.approx(cmc_sigma_rate(g, 1.0, 0.5))

    def test_horizontal_tangent_freezes_v(self):
        g = GeometryParams(-0.5, 0.2)
        _, dv, _ = ode_rhs(g, 0.7, ProfileState(0.0, 0.4, 1.0, 0.0))
        assert dv == 0.0

    def test_rejects_axis(self):
        with pytest.raises(ValueError):
            ode_rhs(GeometryParams(0.0, 0.0), 1.0, ProfileState(0.0, 0.0, 0.0, 0.0))

    def test_flat_circle(self):
        # in flat space the profile is a circle of radius 1/H centered on
        # the axis at height v0 + 1/H: u = r sin(s/r), v = v0 + r(1 - cos(s/r))
        g = GeometryParams(0.0, 0.0)
        H, r = 2.0, 0.5
        p = generate_cmc_sphere(g, H)
        radii = np.hypot(p.u, p.v - (p.v[0] + r))
        np.testing.assert_allclose(radii, r, atol=1e-6)


class TestFirstIntegral:
    def test_zero_on_sphere_branch(self):
        g = GeometryParams(-1.0, -0.3)
        for u in (0.1, 0.5, 1.2):
            state = ProfileState(0.0, u, 0.0, math.asin(0.8 * u))
            assert first_integral(g, 0.8, state) == pytest.approx(0.0, abs=1e-15)

    def test_zero_on_axis(self):
        g = GeometryParams(0.0, 0.5)
        assert first_integral(g, 1.0, ProfileState(0.0, 0.0, 0.0, 2.1)) == 0.0

    def test_direct_value(self):
        g = GeometryParams(0.0, 0.7)
        assert first_integral(g, 0.0, ProfileState(0.0, 1.0, 0.0, math.pi / 2)) == pytest.approx(1.0)


class TestIntegrate:
    def test_flat_semicircle(self):
        g = GeometryParams(0.0, 0.0)
        start = ProfileState(0.0, 0.0, 0.0, 0.0)
        p = integrate(g, 1.0, start, StopCondition.sphere_closure(10.0))
        assert p.arclength == pytest.approx(math.pi, abs=1e-5)
        assert p.u.max() == pytest.approx(1.0, abs=1e-9)
        assert p.v[-1] - p.v[0] == pytest.approx(2.0, abs=1e-5)

    def test_apex_radius_bundle_case(self):
        g = GeometryParams(0.0, 0.5)
        p = integrate(g, 1.0, ProfileState(0.0, 0.0, 0.0, 0.0), StopCondition.sphere_closure(10.0))
        assert p.u.max() == pytest.approx(1.0, abs=1e-9)

    def test_conservation_along_any_trajectory(self):
        rng = np.random.default_rng(20260810)
        for k, tau in ((-1.0, -0.5), (0.0, 0.5), (1.0, 0.3)):
            g = GeometryParams(k, tau)
            cap = min(3.0, 0.45 * g.domain_radius)
            for _ in range(5):
                start = ProfileState(
                    0.0, rng.uniform(0.3, cap), 0.0, rng.uniform(0.0, 2.0 * math.pi)
                )
                p = integrate(g, 0.8, start, StopCondition.arclength(4.0))
                j = profile_first_integral(g, 0.8, p)
                assert np.max(np.abs(j - j[0])) < 1e-8

    def test_reflection_symmetry_of_full_shot(self):
        # the full integrated sphere trajectory matches its own reflection
        g = GeometryParams(0.0, 0.5)
        p = integrate(g, 1.0, ProfileState(0.0, 0.0, 0.0, 0.0), StopCondition.sphere_closure(10.0))
        np.testing.assert_allclose(p.u, p.u[::-1], atol=1e-6)

    def test_stop_condition_not_met(self):
        g = GeometryParams(0.0, 0.0)
        with pytest.raises(IntegrationError, match="not reached"):
            integrate(g, 1.0, ProfileState(0.0, 0.0, 0.0, 0.0), StopCondition(0.5, math.pi - 1e-7))

    def test_axis_start_requires_polar_angle(self):
        g = GeometryParams(0.0, 0.0)
        with pytest.raises(ValueError, match="axis starts"):
            integrate(g, 1.0, ProfileState(0.0, 0.0, 0.0, 1.0), StopCondition.arclength(1.0))

    def test_start_outside_domain_rejected(self):
        g = GeometryParams(-1.0, 0.0)
        with pytest.raises(ValueError, match="outside the domain"):
            integrate(g, 1.0, ProfileState(0.0, 2.5, 0.0, 0.0), StopCondition.arclength(1.0))

    def test_shooting_matches_closed_form(self):
        # the independent shot agrees with sigma = atan2(H sin(w s), w cos(w s)).
        # The stop stays 1e-2 short of pi: next to the far pole the 1/u factor
        # amplifies the integrator's drift of J, which the closed form lacks.
        cases = [
            (0.0, 0.5, 1.0),
            (-1.0, -0.5, 0.8),
            (1.0, 0.3, 0.7),
            (-0.5, 0.6, 1.3),
            (-1.0, -0.5, math.sqrt(0.25 + 1e-3)),
        ]
        for k, tau, H in cases:
            w = math.sqrt(H * H + 0.25 * k)
            p = integrate(
                GeometryParams(k, tau), H, ProfileState(0.0, 0.0, 0.0, 0.0),
                StopCondition.sphere_closure(2.0 * math.pi / w, margin=1e-2),
                rtol=1e-13, atol=1e-15,
            )
            exact = np.arctan2(H * np.sin(w * p.s), w * np.cos(w * p.s))
            assert np.max(np.abs(p.sigma - exact)) <= 1e-9

    @pytest.mark.parametrize("value", [-5.0, -1e-300, math.nan, math.inf])
    def test_negative_or_non_finite_conservation_rejected(self, value):
        g = GeometryParams(0.0, 0.0)
        with pytest.raises(ValueError, match="conservation must be finite and at least 0"):
            integrate(g, 1.0, ProfileState(0.0, 0.0, 0.0, 0.0), StopCondition.arclength(1.0),
                      conservation=value)

    def test_conservation_bound_is_applied_and_echoed(self):
        g = GeometryParams(0.0, 0.5)
        start, stop = ProfileState(0.0, 0.0, 0.0, 0.0), StopCondition.sphere_closure(10.0)
        p = integrate(g, 1.0, start, stop)
        assert p.tolerances == {"rtol": 1e-12, "atol": 1e-14, "conservation": 1e-8}
        assert integrate(g, 1.0, start, stop, conservation=1e-6).tolerances["conservation"] == 1e-6
        with pytest.raises(IntegrationError, match="first-integral drift"):
            integrate(g, 1.0, start, stop, conservation=0.0)

    def test_axis_start_at_pi_dies_at_axis(self):
        # the branch through (u=0, sigma=pi) exits the chart going forward
        g = GeometryParams(0.0, 0.0)
        with pytest.raises(IntegrationError, match="axis"):
            integrate(g, 1.0, ProfileState(0.0, 0.0, 0.0, math.pi), StopCondition.arclength(1.0))

    def test_shoots_through_the_scipy_solver_once(self, monkeypatch):
        import scipy.integrate

        assert shooting_oracle.solve_ivp is scipy.integrate.solve_ivp
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return scipy.integrate.solve_ivp(*args, **kwargs)

        monkeypatch.setattr(shooting_oracle, "solve_ivp", counting)
        axis = ProfileState(0.0, 0.0, 0.0, 0.0)
        shot = integrate(GeometryParams(0.0, 0.5), 1.0, axis, StopCondition.sphere_closure(10.0))
        assert len(calls) == 1
        assert len(shot) == DEFAULT_SAMPLES


@settings(max_examples=150)
@given(
    H=st.floats(0.5, 1.5),
    k_ratio=st.floats(-2.8, 2.8),
    tau_ratio=st.floats(-0.83, 0.83),
    log_scale=st.floats(-8.0, 8.0),
)
def test_energy_is_invariant_under_rescaling(H, k_ratio, tau_ratio, log_scale):
    # scaling the metric by lambda^2 maps E(k, tau) to E(k/lambda^2, tau/lambda),
    # H to H/lambda, and leaves the energy of every sphere unchanged
    lam = 10.0**log_scale
    k, tau = k_ratio * H * H, tau_ratio * H
    g, scaled = GeometryParams(k, tau), GeometryParams(k / (lam * lam), tau / lam)
    for build in (generate_cmc_sphere, lambda g, H: sphere_from_modes(g, H, [0.0])):
        e, e_scaled = energy(build(g, H)).E, energy(build(scaled, H / lam)).E
        assert abs(e - e_scaled) <= 1e-12


class TestGenerateCmcSphere:
    def test_euclidean_round_sphere(self):
        p = generate_cmc_sphere(GeometryParams(0.0, 0.0), 2.0)
        assert p.closure is Closure.CLOSED_SPHERE
        assert p.mean_curvature == 2.0
        assert p.u.max() == pytest.approx(0.5, abs=1e-9)

    def test_apex_at_equator(self):
        # sin(sigma) = H u forces the apex u = 1/H at sigma = pi/2
        p = generate_cmc_sphere(GeometryParams(-1.0, -0.5), 0.8)
        assert p.u.max() == pytest.approx(1.25, abs=1e-9)
        assert p.u.max() < 2.0
        i = np.argmax(p.u)
        assert p.sigma[i] == pytest.approx(math.pi / 2, abs=1e-6)

    def test_closure_identity(self, sphere):
        for k, tau, H in ((0.0, 0.5, 1.0), (-1.0, -0.5, 0.8), (1.0, 0.3, 0.7)):
            p = sphere(k, tau, H)
            assert np.max(np.abs(np.sin(p.sigma) - H * p.u)) < 1e-8

    def test_conservation(self, sphere):
        p = sphere(0.0, 0.5, 1.0)
        assert p.j_drift is not None and p.j_drift < 1e-8

    def test_turning_rate_oracle(self, sphere):
        # finite-difference dsigma/ds against the closed form H(1 + k u^2/4)
        for k, tau, H in ((0.0, 0.5, 1.0), (-1.0, -0.5, 0.8), (1.0, 0.0, 0.6)):
            p = sphere(k, tau, H)
            fd = derivative1(p.sigma, p.spacing)
            oracle = cmc_sigma_rate(p.geometry, H, p.u)
            assert np.max(np.abs(fd[8:-8] - oracle[8:-8])) < 1e-6

    def test_reflection_symmetry(self, sphere):
        p = sphere(-1.0, -0.5, 0.8)
        np.testing.assert_allclose(p.u, p.u[::-1], atol=1e-6)

    def test_sigma_monotone(self, sphere):
        p = sphere(0.0, 0.5, 1.0)
        assert np.all(np.diff(p.sigma) > 0.0)

    def test_negative_H_gives_mirror_orientation(self):
        p = generate_cmc_sphere(GeometryParams(0.0, 0.5), -1.0)
        assert p.orientation == -1
        assert p.mean_curvature == 1.0
        assert p.sigma[0] < 1e-3 and abs(p.sigma[-1] - math.pi) < 1e-3

    def test_degeneration_toward_domain_radius(self):
        g = GeometryParams(-1.0, -0.5)
        apexes = [generate_cmc_sphere(g, H).u.max() for H in (0.6, 0.55, 0.52)]
        assert apexes == sorted(apexes)
        np.testing.assert_allclose(apexes, [1.0 / 0.6, 1.0 / 0.55, 1.0 / 0.52], rtol=1e-9)

    # the acceptance grid, mirror surfaces, and k = -1 down to H^2 + k/4 = 1e-6
    @pytest.mark.parametrize(
        "k, tau, H",
        [(g.k, g.tau, H) for g, H in default_acceptance_grid()]
        + [(0.0, 0.5, -1.0), (1.0, 0.3, -0.7)]
        + [(-1.0, tau, math.sqrt(0.25 + m)) for tau in (-0.5, 0.0, 0.6)
           for m in (1e-2, 1e-4, 1e-6)],
    )
    def test_samples_equal_the_2d_panel_sums(self, k, tau, H):
        # the generator sums the panels left of the equator with np.sum
        # and repeats the sums in mirror order
        g = GeometryParams(k, tau)
        p = generate_cmc_sphere(g, H)
        expected = cmc_sphere_samples(g.k, g.tau, H, len(p))
        for column, oracle in zip((p.s, p.u, p.v, p.sigma), expected, strict=True):
            assert np.array_equal(column, oracle)
        j = profile_first_integral(g, abs(H), p)
        assert p.j_drift == float(np.max(np.abs(j - j[0])))

    @pytest.mark.parametrize("k, tau, H", HEIGHT_CASES)
    def test_heights_match_direct_node_values(self, k, tau, H):
        # sin(sigma) = a/sqrt(a^2 + b^2) at the Gauss nodes moves v by rounding only
        p = generate_cmc_sphere(GeometryParams(k, tau), H)
        direct = cmc_sphere_direct_heights(k, tau, H, len(p))
        assert np.max(np.abs(p.v - direct)) <= 1e-13 * np.max(np.abs(direct))

    @pytest.mark.parametrize("k, tau, H", HEIGHT_CASES)
    def test_samples_stay_at_the_full_grid_sums(self, k, tau, H):
        # s, u and sigma are evaluated at every sample; v moves from the
        # sums over every panel by rounding only
        p = generate_cmc_sphere(GeometryParams(k, tau), H)
        s, u, v, sigma = cmc_sphere_samples(k, tau, H, len(p), mirror=False)
        for column, oracle in ((p.s, s), (p.u, u), (p.sigma, sigma)):
            assert np.array_equal(column, oracle)
        assert np.max(np.abs(p.v - v)) <= 1e-14 * np.max(np.abs(v))

    @pytest.mark.parametrize("k, tau, H", HEIGHT_CASES)
    def test_height_increments_are_mirror_symmetric(self, k, tau, H):
        # the panel sums mirror exactly, so mirrored increments differ by
        # the rounding of two additions of the running sum: half an ulp of
        # a value below the equator's, half an ulp of max|v| above it
        v = generate_cmc_sphere(GeometryParams(k, tau), H).v
        increments = np.diff(v)
        assert np.max(np.abs(increments - increments[::-1])) <= 0.75 * np.spacing(np.max(v))

    def test_energies_equal_those_of_the_full_grid_sums(self):
        # the energy reads u, sigma and the spacing, never s or v of a
        # turning-angle profile or v of an arclength one: mirroring the
        # panel sums leaves every report bit-identical
        for g, H in default_acceptance_grid():
            p = generate_cmc_sphere(g, H)
            _, _, v, _ = cmc_sphere_samples(g.k, g.tau, H, len(p), mirror=False)
            assert energy(p).to_dict() == energy(dataclasses.replace(p, v=v)).to_dict()
            for spec in default_perturbation_grid():
                coeffs = np.zeros(spec.mode)
                coeffs[-1] = spec.epsilon
                try:
                    shape = _require_admissible(g, abs(H), coeffs)
                except InadmissiblePerturbation:
                    continue
                q = sphere_from_modes(g, H, coeffs)
                s, _, v, _, _ = mode_sphere_samples(
                    g.k, g.tau, H, shape.p, shape.n, len(q), mirror=False
                )
                full = dataclasses.replace(q, s=s, v=v)
                assert energy(q).to_dict() == energy(full).to_dict()

    @pytest.mark.parametrize("n_samples", [21, 257, 2049])
    def test_generators_sum_the_left_panels(self, monkeypatch, n_samples):
        # the rates each generator actually sums: s and v of a mode sphere, v of a CMC sphere,
        # one row of eight node terms per panel left of the equator
        seen = []

        def spy(rates):
            seen.append(rates.shape)
            return _mirrored_running_sum(rates)

        monkeypatch.setattr(profile_module, "_mirrored_running_sum", spy)
        for k, tau, H in ((0.0, 0.5, 1.0), (-1.0, -0.5, 0.6), (1.0, 0.3, -0.7)):
            g = GeometryParams(k, tau)
            generate_cmc_sphere(g, H, n_samples=n_samples).v
            p = sphere_from_modes(g, H, [0.05, -0.02], n_samples=n_samples)
            p.s, p.v
        assert seen == [(n_samples // 2, 8)] * 9

    @pytest.mark.parametrize("n_samples", [1, 7, 10, 2048])
    @pytest.mark.parametrize("generate", [
        generate_cmc_sphere, lambda g, H, **kw: sphere_from_modes(g, H, [0.05], **kw),
    ])
    def test_sample_count_must_be_odd_and_at_least_9(self, generate, n_samples):
        # the equator is a sample, so no panel mirrors onto itself
        with pytest.raises(ValueError, match="n_samples must be odd and at least 9"):
            generate(GeometryParams(0.0, 0.5), 1.0, n_samples=n_samples)


class TestExistence:
    def test_boundary_value_rejected(self):
        # H^2 = -k/4 exactly
        with pytest.raises(ExistenceViolation, match="H\\^2 > -k/4"):
            generate_cmc_sphere(GeometryParams(-1.0, -0.5), 0.5)

    def test_just_inside_tolerance_band_rejected(self):
        with pytest.raises(ExistenceViolation):
            generate_cmc_sphere(GeometryParams(-1.0, -0.5), math.sqrt(0.25 + 5e-13))

    def test_margin_case_succeeds(self):
        H = math.sqrt(0.25 + 1e-3)
        p = generate_cmc_sphere(GeometryParams(-1.0, -0.5), H)
        assert p.closure is Closure.CLOSED_SPHERE
        assert np.max(np.abs(np.sin(p.sigma) - H * p.u)) < 1e-8

    def test_near_boundary_band(self):
        # shooting raised IntegrationError here; the closed form closes
        g = GeometryParams(-1.0, -0.5)
        for margin in (1e-5, 1e-6, 1e-8):
            H = math.sqrt(0.25 + margin)
            p = generate_cmc_sphere(g, H)
            assert p.closure is Closure.CLOSED_SPHERE
            assert np.all(np.diff(p.sigma) > 0.0)
            assert np.max(np.abs(np.sin(p.sigma) - H * p.u)) < 1e-8
            length = math.pi / math.sqrt(H * H - 0.25)
            assert p.arclength == pytest.approx(length, rel=1e-12)

    @pytest.mark.parametrize("k, H", [(-4.0, 1.0000000000008), (-1e6, 500.00000000000006)])
    @pytest.mark.parametrize("generate", [
        generate_cmc_sphere, lambda g, H: sphere_from_modes(g, H, [0.0]),
    ], ids=["cmc", "modes"])
    def test_apex_at_the_domain_radius_rejected(self, generate, k, H):
        # H^2 > -k/4 + 1e-12 holds, but the apex 1/H lies within 1e-12 of the radius
        assert H * H > -0.25 * k + 1e-12
        with pytest.raises(ExistenceViolation, match="apex 1/\\|H\\| reaches the domain radius"):
            generate(GeometryParams(k, 0.0), H)

    @pytest.mark.parametrize("k, tau, H", [(0.0, 0.0, 1e-6), (1e-30, 0.0, 1e-9)])
    def test_spheres_far_from_unit_size_exist(self, k, tau, H):
        # the H = 1 sphere scaled by 1e6, and one whose J rounds to 1e-7 at u ~ 1e9
        p = generate_cmc_sphere(GeometryParams(k, tau), H)
        assert abs(energy(p).E - 4.0 * math.pi) <= ENERGY_TOL

    def test_both_generators_apply_one_apex_rule(self):
        # 1 + k/(4 H^2) = 2e-10 lies below the margin: neither generator builds the sphere
        g = GeometryParams(-4.0, 0.0)
        messages = []
        for generate in (generate_cmc_sphere, lambda g, H: sphere_from_modes(g, H, [0.0])):
            with pytest.raises(ExistenceViolation, match="apex 1/\\|H\\| reaches") as info:
                generate(g, 1.0000000001)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_minimal_sphere_rejected_for_positive_k(self):
        with pytest.raises(ExistenceViolation, match="H != 0"):
            generate_cmc_sphere(GeometryParams(1.0, 0.3), 0.0)

    def test_zero_H_rejected_for_flat_base(self):
        with pytest.raises(ExistenceViolation):
            generate_cmc_sphere(GeometryParams(0.0, 0.5), 0.0)


def _unreachable(*args):
    raise AssertionError("a sample was computed")


class TestFloat64Overflow:
    """A sphere that exists but that float64 cannot hold raises before any sample."""

    BUILDERS = {
        "cmc": generate_cmc_sphere,
        "modes": lambda g, H: sphere_from_modes(g, H, [0.05]),
        "mode_samples": lambda g, H: profile_module._mode_samples(g, H, [0.05], 257),
        # unchecked, tau = 1e200 gave a descent NaN energies (dims 1) or a LinAlgError (dims 3)
        "descent_1": lambda g, H: descend_energy(g, H, 1),
        "descent_3": lambda g, H: descend_energy(g, H, 3),
    }

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    @pytest.mark.parametrize(
        "k, tau, H, message",
        [
            # unchecked, E read nan here: 4 tau^2 overflows, tau * tau does not
            (0.0, 7e153, 1.0, "4 tau\\^2 is not finite"),
            (0.0, 1e200, 1.0, "4 tau\\^2 is not finite"),
            # unchecked, the CMC sphere raised "sigma is not monotone"
            (0.0, -0.5, -1e160, "w = sqrt\\(H\\^2 \\+ k/4\\) is not finite"),
            # unchecked, E read 0.0
            (0.0, 1.0, 1e-150, "pi A\\(1/\\|H\\|\\)/w = 3.14e\\+300 is not below 1e\\+300"),
        ],
        ids=["tau=7e153", "tau=1e200", "H=-1e160", "H=1e-150"],
    )
    def test_overflow_raises_before_any_sample(self, monkeypatch, build, k, tau, H, message):
        monkeypatch.setattr(profile_module, "_turning_angle_grid", _unreachable)
        monkeypatch.setattr(profile_module, "_require_admissible", _unreachable)
        with pytest.raises(IntegrationError, match=f"overflows float64: {message}$"):
            build(GeometryParams(k, tau), H)

    def test_existence_is_decided_first(self):
        with pytest.raises(ExistenceViolation, match="H != 0"):
            generate_cmc_sphere(GeometryParams(1.0, 1e200), 0.0)
        with pytest.raises(ExistenceViolation, match="H\\^2 > -k/4"):
            generate_cmc_sphere(GeometryParams(-1.0, 1e200), 0.5)

    @pytest.mark.parametrize("k, tau, H", [(0.0, 6e153, 1.0), (0.0, 0.5, 1e154)])
    def test_spheres_just_inside_float64_generate(self, k, tau, H):
        g = GeometryParams(k, tau)
        for p in (generate_cmc_sphere(g, H), sphere_from_modes(g, H, [0.05])):
            assert np.isfinite(p.s).all() and np.isfinite(p.v).all()

    def test_a_mode_sphere_at_the_apex_edge_bounds_its_heights(self):
        # B(1/H) = 1/2 keeps the CMC sphere's v below 1e300; c = -0.4 takes max u
        # to 1.4/H, where B = 0.02, and the bound of the mode sphere's v past it
        g, H = GeometryParams(-2e-300, 0.1), 1e-150
        assert np.isfinite(generate_cmc_sphere(g, H).v).all()
        assert np.isfinite(sphere_from_modes(g, H, [0.0]).v).all()
        with pytest.raises(IntegrationError, match="mode sphere's heights overflow float64"):
            sphere_from_modes(g, H, [-0.4])

    def test_the_bounds_hold_the_heights(self):
        # v <= pi A(1/|H|)/w for a CMC sphere, pi max N A(max u)/(|H| min(1, B(max u))) for a
        # mode sphere, and s <= v/A(max u), on seeded shapes near and far from the edges
        rng = np.random.default_rng(34)
        for _ in range(60):
            k, tau = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
            H = math.sqrt(max(0.0, -0.25 * k)) + 10.0 ** rng.uniform(-6.0, 0.5)
            g = GeometryParams(k, tau)
            w = math.sqrt(H * H + 0.25 * k)
            bound = math.pi * math.sqrt(1.0 + tau * tau / (H * H)) / w
            assert generate_cmc_sphere(g, H, n_samples=257).v[-1] <= bound * (1.0 + 1e-12)
            c = rng.uniform(-1.0, 1.0, int(rng.integers(1, 4))) * 0.3
            try:
                shape = _require_admissible(g, H, c)
            except InadmissiblePerturbation:
                continue
            a_max = math.sqrt(1.0 + tau * tau * shape.u_max**2)
            b_min = min(1.0, 1.0 + 0.25 * k * shape.u_max**2)
            bound = math.pi * shape.n_range[1] * a_max / (H * b_min)
            p = sphere_from_modes(g, H, c, n_samples=257)
            assert p.v[-1] <= bound * (1.0 + 1e-12)
            assert p.s[-1] <= bound / a_max * (1.0 + 1e-12)


@given(
    log_H=st.floats(-8.0, 8.0),
    ratio=st.one_of(
        st.floats(-5.0, 5.0),
        st.floats(0.0, 16.0).map(lambda e: -4.0 * (1.0 - 10.0**-e)),
    ),
    dims=st.integers(1, 3),
)
def test_zero_shape_is_admissible_wherever_the_sphere_exists(log_H, ratio, dims):
    # existence and admissibility apply one apex rule to the same float 1/|H|
    H = 10.0**log_H
    g = GeometryParams(ratio * H * H, 0.0)
    try:
        _require_sphere_exists(g, H)
    except ExistenceViolation:
        return
    assert _require_admissible(g, H, np.zeros(dims)).u_max == 1.0 / H


class TestReducedSineRatio:
    def test_matches_direct_ratio_away_from_equator(self):
        sig = np.linspace(0.1, math.pi - 0.1, 500)
        sig = sig[np.abs(np.cos(sig)) > 0.05]
        for m in (1, 2, 3, 5):
            direct = np.sin(2 * m * sig) / np.cos(sig)
            np.testing.assert_allclose(reduced_sine_ratio(sig, m), direct, atol=1e-12)

    def test_finite_at_equator(self):
        for m in (1, 2, 4):
            value = reduced_sine_ratio(np.array([math.pi / 2]), m)[0]
            assert math.isfinite(value)
            # limit: sin(2m sigma)/cos(sigma) -> -2m cos(m pi) at the equator
            assert value == pytest.approx(-2 * m * math.cos(m * math.pi), abs=1e-12)


class TestPerturbedSphere:
    def test_zero_epsilon_reproduces_cmc(self, sphere):
        g = GeometryParams(0.0, 0.5)
        p0 = perturbed_sphere(g, 1.0, PerturbationSpec(0.0, 1))
        assert p0.mean_curvature == 1.0
        # closed-form construction sits on the branch to machine precision
        assert np.max(np.abs(np.sin(p0.sigma) - p0.u)) < 1e-12
        # and agrees with the shooting result pointwise in u(sigma)
        ps = sphere(0.0, 0.5, 1.0)
        u_interp = np.interp(p0.sigma[1:-1], ps.sigma, ps.u)
        assert np.max(np.abs(u_interp - p0.u[1:-1])) < 1e-8

    def test_equator_radius(self):
        g = GeometryParams(0.0, 0.5)
        p = perturbed_sphere(g, 1.0, PerturbationSpec(0.1, 1))
        i = len(p) // 2
        assert p.sigma[i] == pytest.approx(math.pi / 2, abs=1e-9)
        assert p.u[i] == pytest.approx(0.9, abs=1e-9)

    def test_closure_and_interior_positivity(self):
        p = perturbed_sphere(GeometryParams(-1.0, -0.5), 0.8, PerturbationSpec(-0.1, 1))
        assert p.closure is Closure.CLOSED_SPHERE
        assert p.u[0] == 0.0 and p.u[-1] == 0.0
        assert np.all(p.u[1:-1] > 0.0)

    def test_tangent_consistency(self):
        # du/ds = (1 + k u^2/4) cos(sigma) must hold for the reconstruction
        p = perturbed_sphere(GeometryParams(0.0, 0.5), 1.0, PerturbationSpec(0.1, 2))
        fd = derivative1(p.u, p.spacing)
        expected = (1.0 + 0.25 * p.geometry.k * p.u**2) * np.cos(p.sigma)
        assert np.max(np.abs(fd[8:-8] - expected[8:-8])) < 1e-8

    def test_regularity_boundary_rejected(self):
        # ds/dsigma vanishes at the equator exactly when 1 - 5 eps = 0
        with pytest.raises(InadmissiblePerturbation):
            perturbed_sphere(GeometryParams(0.0, 0.5), 1.0, PerturbationSpec(0.2, 1))

    def test_negative_mode2_rejected(self):
        with pytest.raises(InadmissiblePerturbation):
            perturbed_sphere(GeometryParams(0.0, 0.5), 1.0, PerturbationSpec(-0.1, 2))

    def test_domain_exit_rejected(self):
        # apex 1/H (1 + eps) would cross the domain radius 2
        with pytest.raises(InadmissiblePerturbation, match="domain"):
            perturbed_sphere(GeometryParams(-1.0, 0.0), 0.52, PerturbationSpec(0.08, 2))

    def test_existence_checked_first(self):
        with pytest.raises(ExistenceViolation):
            perturbed_sphere(GeometryParams(-1.0, 0.0), 0.4, PerturbationSpec(0.1, 1))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PerturbationSpec(0.1, 0)
        with pytest.raises(ValueError):
            PerturbationSpec(float("nan"), 1)

    def test_samples_uniform_in_turning_angle(self):
        p = perturbed_sphere(GeometryParams(0.0, 0.5), 1.0, PerturbationSpec(0.1, 1))
        assert p.parametrization == TURNING_ANGLE
        assert np.array_equal(p.sigma, np.linspace(0.0, math.pi, len(p)))
        # the spacing is ds/di per sample: ds/dsigma = N / (H B) times pi/(n - 1)
        sigma = p.sigma
        n_exact = 1.0 + 0.1 * np.cos(2 * sigma) - 0.2 * np.sin(sigma) * reduced_sine_ratio(sigma, 1)
        exact = n_exact * math.pi / (len(p) - 1)
        assert np.max(np.abs(p.spacing - exact)) < 1e-13

    def test_multimode_family(self):
        p = sphere_from_modes(GeometryParams(0.0, 0.5), 1.0, [0.05, -0.02, 0.01])
        assert p.closure is Closure.CLOSED_SPHERE
        assert p.mean_curvature is None


class TestProfileContainer:
    def test_validation_strictly_increasing(self):
        g = GeometryParams(0.0, 0.0)
        s = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="increasing"):
            Profile(s=s, u=np.ones(5), v=np.zeros(5), sigma=np.zeros(5), geometry=g)

    def test_validation_interior_positive(self):
        g = GeometryParams(0.0, 0.0)
        s = np.linspace(0, 1, 5)
        u = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="interior"):
            Profile(s=s, u=u, v=np.zeros(5), sigma=np.zeros(5), geometry=g)

    def test_closed_sphere_validation(self):
        g = GeometryParams(0.0, 0.0)
        s = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="axis"):
            Profile(
                s=s, u=np.array([0.5, 1, 1, 1, 0.5]), v=np.zeros(5),
                sigma=np.linspace(0, math.pi, 5), geometry=g,
                closure=Closure.CLOSED_SPHERE,
            )

    def test_closed_sphere_ends_are_relative_to_a_radius_below_one(self):
        # ends half the radius off the axis passed the absolute 1e-5 bound at radius 1e-6,
        # and the energy then read E - 4 pi = 1.19
        p = generate_cmc_sphere(GeometryParams(0.0, 0.0), 1e6)
        columns = dict(s=p.s, v=p.v, sigma=p.sigma, geometry=p.geometry, closure=p.closure)
        with pytest.raises(ValueError, match="^closed sphere must start and end on the axis$"):
            Profile(u=p.u + 5e-7, **columns)
        u = p.u.copy()
        u[[0, -1]] = 0.9e-5 * p.u.max()
        Profile(u=u, **columns)

    @pytest.mark.parametrize("end, closes", [(0.9e-5, True), (1.1e-5, False)])
    def test_closed_sphere_ends_keep_the_absolute_bound_from_radius_one(self, end, closes):
        p = generate_cmc_sphere(GeometryParams(0.0, 0.0), 0.5)  # radius 2
        u = p.u.copy()
        u[[0, -1]] = end
        columns = dict(s=p.s, u=u, v=p.v, sigma=p.sigma, geometry=p.geometry, closure=p.closure)
        if closes:
            Profile(**columns)
        else:
            with pytest.raises(ValueError, match="axis"):
                Profile(**columns)

    def test_non_uniform_samples_rejected_on_construction(self):
        g = GeometryParams(0.0, 0.0)
        s = np.array([0.0, 1.0, 2.0, 3.5, 4.0])
        with pytest.raises(ValueError, match="not uniformly spaced in arclength"):
            Profile(s=s, u=np.ones(5), v=np.zeros(5), sigma=np.zeros(5), geometry=g)

    @pytest.mark.parametrize("parametrization", [ARCLENGTH, TURNING_ANGLE])
    def test_uniform_spacing_is_relative_to_the_mean_step(self, parametrization):
        # |d - h| <= 1e-8 |h|, relative to the mean step h
        g = GeometryParams(0.0, 0.0)
        x = np.linspace(0.0, 1.0, 101)

        def build(samples):
            columns = dict(s=samples, u=np.ones(101), v=np.zeros(101), sigma=np.zeros(101))
            if parametrization == TURNING_ANGLE:
                columns.update(sigma=samples, ds_dsigma=np.ones(101))
            return Profile(geometry=g, parametrization=parametrization, **columns)

        for off, uniform in ((5e-9, True), (2e-8, False)):
            y = x.copy()
            y[51:] += off * 0.01  # one step off by `off` relative
            if uniform:
                build(y)
            else:
                with pytest.raises(ValueError, match=f"not uniformly spaced in {parametrization}"):
                    build(y)

    def test_uniform_spacing_has_no_absolute_floor(self):
        # steps of an H = 1e12 sphere are 1.5e-15: an absolute 1e-13 let 30% jitter pass
        p = generate_cmc_sphere(GeometryParams(0.0, 0.0), 1e12)
        columns = dict(u=p.u, v=p.v, sigma=p.sigma, geometry=p.geometry, closure=p.closure)
        assert Profile(s=p.s, **columns).spacing == p.spacing
        s = p.s.copy()
        s[1::2] += 0.3 * p.spacing
        with pytest.raises(ValueError, match="not uniformly spaced in arclength"):
            Profile(s=s, **columns)

    def test_nan_step_is_not_uniform(self):
        sigma = np.linspace(0.0, 1.0, 9)
        sigma[4] = np.nan
        with pytest.raises(ValueError, match="^sigma samples must be finite$"):
            Profile(
                s=np.linspace(0.0, 1.0, 9), u=np.ones(9), v=np.zeros(9), sigma=sigma,
                ds_dsigma=np.ones(9), geometry=GeometryParams(0.0, 0.0),
                parametrization=TURNING_ANGLE,
            )

    # every column, at an interior and at the last sample
    @pytest.mark.parametrize("row", [100, -1])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["s", "u", "v", "sigma", "ds_dsigma"])
    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_non_finite_sample_rejected_by_both_loaders(
        self, tmp_path, sphere, perturbed, suffix, column, value, row
    ):
        # checked before every other sample check: NaN passes each check that
        # tests for a violation, and an infinite s would warn in the spacing check
        p = perturbed(0.0, 0.5, 1.0, 0.1, 1) if column == "ds_dsigma" else sphere(-1.0, -0.5, 0.8)
        path = tmp_path / f"p.{suffix}"
        if suffix == "csv":
            p.to_csv(path)
            header, *rows = path.read_text().splitlines()
            cells = rows[row].split(",")
            cells[header.split(",").index(column)] = value
            rows[row] = ",".join(cells)
            path.write_text("\n".join([header, *rows]) + "\n")
            load = Profile.from_csv
        else:
            p.to_json(path)
            document = json.loads(path.read_text())
            document["profile"]["samples"][column][row] = value
            path.write_text(json.dumps(document))
            load = Profile.from_json
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{column} samples must be finite$"):
                load(path)

    def test_turning_angle_spacing_is_read_only(self, perturbed):
        p = perturbed(0.0, 0.5, 1.0, 0.1, 1)
        with pytest.raises(ValueError, match="read-only"):
            p.spacing[0] = 0.0

    def test_csv_round_trip_is_exact(self, tmp_path, sphere):
        p = sphere(0.0, 0.5, 1.0)
        path = tmp_path / "profile.csv"
        p.to_csv(path)
        q = Profile.from_csv(path)
        assert np.array_equal(p.s, q.s)
        assert np.array_equal(p.u, q.u)
        assert np.array_equal(p.v, q.v)
        assert np.array_equal(p.sigma, q.sigma)
        assert q.closure is Closure.CLOSED_SPHERE
        assert q.mean_curvature == p.mean_curvature
        assert q.geometry == p.geometry
        # the sidecar records the bound the generator's profile was checked at
        assert q.tolerances == p.tolerances
        assert q.tolerances == {"axis_epsilon": 1e-5}

    def test_turning_angle_round_trip_is_exact(self, tmp_path, perturbed):
        p = perturbed(0.0, 0.5, 1.0, 0.1, 1)
        for name, write, read in (
            ("p.csv", Profile.to_csv, Profile.from_csv),
            ("p.json", Profile.to_json, Profile.from_json),
        ):
            write(p, tmp_path / name)
            q = read(tmp_path / name)
            assert q.parametrization == TURNING_ANGLE
            for column in ("s", "u", "v", "sigma", "ds_dsigma"):
                assert np.array_equal(getattr(p, column), getattr(q, column))
            assert np.array_equal(p.spacing, q.spacing)
        assert (tmp_path / "p.csv").read_text().startswith("s,u,v,sigma,ds_dsigma\n")
        sidecar = json.loads((tmp_path / "p.csv.json").read_text())
        assert (sidecar["schema"], sidecar["parametrization"]) == ("profile/2", TURNING_ANGLE)

    def test_ds_dsigma_belongs_to_turning_angle_samples(self, perturbed):
        p = perturbed(0.0, 0.5, 1.0, 0.1, 1)
        columns = dict(s=p.s, u=p.u, v=p.v, sigma=p.sigma, geometry=p.geometry)
        with pytest.raises(ValueError, match="ds_dsigma"):
            Profile(**columns, parametrization=TURNING_ANGLE)
        with pytest.raises(ValueError, match="ds_dsigma"):
            Profile(**columns, ds_dsigma=p.ds_dsigma)
        with pytest.raises(ValueError, match="positive"):
            Profile(**columns, parametrization=TURNING_ANGLE, ds_dsigma=-p.ds_dsigma)

    def test_profile_1_files_load_as_arclength(self, tmp_path, sphere):
        p = sphere(0.0, 0.5, 1.0)
        path = tmp_path / "old.csv"
        p.to_csv(path)
        sidecar = tmp_path / "old.csv.json"
        meta = json.loads(sidecar.read_text())
        del meta["parametrization"]
        meta["schema"] = "profile/1"
        sidecar.write_text(json.dumps(meta))
        q = Profile.from_csv(path)
        assert q.parametrization == ARCLENGTH
        assert q.spacing == p.spacing

    def test_unknown_schema_and_parametrization_rejected(self, tmp_path, sphere):
        p = sphere(0.0, 0.5, 1.0)
        path = tmp_path / "new.csv"
        p.to_csv(path)
        sidecar = tmp_path / "new.csv.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**meta, "schema": "profile/9"}))
        with pytest.raises(ValueError, match="schema"):
            Profile.from_csv(path)
        sidecar.write_text(json.dumps({**meta, "parametrization": "chord"}))
        with pytest.raises(ValueError, match="parametrization"):
            Profile.from_csv(path)


class TestDeferredHeights:
    """v of a CMC sphere is summed on its first read, s and v of a mode sphere at the call."""

    CASES = ((0.0, 0.5, 1.0), (-1.0, -0.5, 0.6), (1.0, 0.3, -0.7))

    @pytest.fixture
    def sums(self, monkeypatch):
        # the panel sums each read runs, one (panels, 8) shape per call
        calls = []
        real = _mirrored_running_sum

        def spy(rates):
            calls.append(rates.shape)
            return real(rates)

        monkeypatch.setattr(profile_module, "_mirrored_running_sum", spy)
        return calls

    @staticmethod
    def _fresh():
        # both generators at each case, none of their heights read yet
        out = []
        for k, tau, H in TestDeferredHeights.CASES:
            g = GeometryParams(k, tau)
            out += [generate_cmc_sphere(g, H), sphere_from_modes(g, H, [0.05, -0.02])]
        return out

    def test_suites_sum_only_the_heights_they_read(self, sums):
        g = GeometryParams(0.0, 0.5)
        assert verify_minimality(g, 1.0).passed
        (row,) = sweep(SweepSpec((0.0,), (0.5,), (1.0,)))
        assert row.E is not None and not row.error
        descend_energy(g, 1.0, 1)
        assert sums == []
        for p in self._fresh():
            assert len(p) == p.metadata()["n_samples"] == DEFAULT_SAMPLES
        # s and v of each mode sphere, none of a CMC sphere
        assert sums == [(DEFAULT_SAMPLES // 2, 8)] * 2 * len(self.CASES)
        sums.clear()
        assert verify_criticality(g, 1.0).passed
        assert sums == [(DEFAULT_SAMPLES // 2, 8)]  # v of the CMC sphere, in the first variation

    def test_mode_samples_sum_no_heights(self, sums):
        samples = profile_module._mode_samples(GeometryParams(0.0, 0.5), 1.0, [0.05], 257)
        assert sorted(samples) == ["ds_dsigma", "u"]
        assert sums == []

    def test_a_mode_sphere_sums_both_heights_at_the_call(self, sums):
        p = sphere_from_modes(GeometryParams(0.0, 0.5), 1.0, [0.05])
        assert len(sums) == 2 and "s" in vars(p) and "v" in vars(p)
        assert not (p.s.flags.writeable or p.v.flags.writeable)

    def test_pickles_hold_the_built_heights(self):
        for p in self._fresh():
            q = pickle.loads(pickle.dumps(p))
            assert np.array_equal(q.s, p.s) and np.array_equal(q.v, p.v)

    def test_huge_tau_heights_raise_at_construction(self, sums):
        # 4 tau^2 overflows: both generators raise before they sum any height
        g = GeometryParams(0.0, 1e200)
        for build in (generate_cmc_sphere, lambda g, H: sphere_from_modes(g, H, [0.05])):
            with pytest.raises(IntegrationError, match="float64: 4 tau\\^2 is not finite"):
                build(g, 1.0)
        assert sums == []

    def test_huge_tau_sweep_row_keeps_its_error(self):
        (row,) = sweep(SweepSpec((0.0,), (1e200,), (1.0,)))
        assert row.exists and row.E is None
        assert row.error == (
            "IntegrationError: the CMC sphere in E(k=0.0, tau=1e+200) with H=1.0"
            " overflows float64: 4 tau^2 is not finite"
        )

    def test_deferred_v_is_checked_on_its_first_read(self):
        q = generate_cmc_sphere(GeometryParams(0.0, 0.5), 1.0)
        columns = dict(s=q.s, u=q.u, sigma=q.sigma, geometry=q.geometry)
        for bad, message in (
            (np.full(len(q), np.nan), "v samples must be finite"),
            (q.u[1:], "sample arrays must have equal length"),
        ):
            p = Profile(**columns, v=lambda bad=bad: bad.copy())
            with pytest.raises(ValueError, match=message):
                p.v
        with pytest.raises(AttributeError, match="no attribute 'w'"):
            p.w

    def test_threads_read_the_serial_bits(self, monkeypatch):
        serial = [(p.s, p.v) for p in self._fresh()]
        real = _mirrored_running_sum

        def slow(rates):
            # widens the window in which other threads find the column unbuilt
            time.sleep(1e-3)
            return real(rates)

        monkeypatch.setattr(profile_module, "_mirrored_running_sum", slow)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                shared = self._fresh()
                start = threading.Barrier(8, timeout=60)

                def read(shared=shared, start=start):
                    start.wait()
                    return [(p.s, p.v) for p in shared]

                with ThreadPoolExecutor(8) as pool:
                    futures = [pool.submit(read) for _ in range(8)]
                    reads = [f.result(timeout=60) for f in futures]
                for got in reads:
                    for (s, v), (s0, v0), kept in zip(got, serial, shared, strict=True):
                        assert np.array_equal(s, s0) and np.array_equal(v, v0)
                        assert s is kept.s and v is kept.v
        finally:
            sys.setswitchinterval(interval)


# the checks' columns at 129 samples: a CMC sphere uniform in arclength and a mode
# sphere uniform in sigma, max u 1.67 and 1.75 inside the domain radius 2 of k = -1
_SAMPLES_GEOMETRY = GeometryParams(-1.0, -0.5)
_SAMPLES = {
    ARCLENGTH: generate_cmc_sphere(_SAMPLES_GEOMETRY, 0.6, n_samples=129),
    TURNING_ANGLE: sphere_from_modes(_SAMPLES_GEOMETRY, 0.6, [0.05], n_samples=129),
}
# injected values: non-finite, negative, zero, off the axis at the ends, out of the domain
_INJECTED = [math.nan, math.inf, -math.inf, -1e-300, -0.5, 0.0, -0.0, 2e-5, 1e-5, 2.0, 2.5]


class TestSampleChecks:
    """``_check_samples`` reuses each column's min and max, with the oracle's errors and order."""

    @staticmethod
    def _outcome(check, columns, n, g, closed, uniform_in):
        try:
            h = check(columns, n, g, closed, uniform_in)
        except Exception as exc:  # the type and text are the outcome
            return type(exc), str(exc)
        return None if h is None else np.float64(h).tobytes()

    @settings(max_examples=400)
    @given(
        data=st.data(),
        parametrization=st.sampled_from([ARCLENGTH, TURNING_ANGLE]),
        closed=st.booleans(),
        uniform=st.booleans(),
    )
    def test_raises_as_the_oracle(self, data, parametrization, closed, uniform):
        p = _SAMPLES[parametrization]
        names = data.draw(st.sets(st.sampled_from(p._columns()), min_size=1))
        columns = {name: np.array(getattr(p, name)) for name in p._columns() if name in names}
        rows = st.sampled_from([0, 1, 64, 127, 128]) | st.integers(0, 128)
        for _ in range(data.draw(st.integers(0, 3))):
            name = data.draw(st.sampled_from(sorted(columns)))
            columns[name][data.draw(rows)] = data.draw(st.sampled_from(_INJECTED))
        needs = "s" if parametrization == ARCLENGTH else "sigma"
        uniform_in = parametrization if uniform and needs in columns else None
        args = (columns, len(p), p.geometry, closed, uniform_in)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._outcome(_check_samples, *args) == self._outcome(check_samples, *args)

    @pytest.mark.parametrize("name, row, value", [
        ("u", 0, 2e-5), ("u", -1, 1.1e-5), ("u", -1, 1e-5), ("sigma", 0, 2e-3), ("sigma", -1, 3.0),
    ])
    @pytest.mark.parametrize("parametrization", [ARCLENGTH, TURNING_ANGLE])
    def test_closure_ends_as_the_oracle(self, parametrization, name, row, value):
        p = _SAMPLES[parametrization]
        columns = {name: np.array(getattr(p, name)) for name in p._columns()}
        columns[name][row] = value
        args = (columns, len(p), p.geometry, True, parametrization)
        outcome = self._outcome(_check_samples, *args)
        assert outcome == self._outcome(check_samples, *args)
        if value == 1e-5:  # on the bound, which closes
            assert not isinstance(outcome, tuple)
        else:
            assert outcome[1].startswith("closed sphere must")

    def test_mode_sphere_is_checked_once(self, monkeypatch):
        checked = []

        def spy(columns, *args, **kwargs):
            checked.append(sorted(columns))
            return _check_samples(columns, *args, **kwargs)

        monkeypatch.setattr(profile_module, "_check_samples", spy)
        p = sphere_from_modes(_SAMPLES_GEOMETRY, 0.6, [0.05], n_samples=129)
        assert checked == [["ds_dsigma", "s", "sigma", "u", "v"]]
        assert "s" in vars(p) and "v" in vars(p)

    def test_unequal_lengths_raise_first(self):
        columns = {"s": np.array([np.nan] * 5), "u": np.ones(4)}
        with pytest.raises(ValueError, match="^sample arrays must have equal length$"):
            _check_samples(columns, 5, _SAMPLES_GEOMETRY)


class TestTolerances:
    @pytest.mark.parametrize("value", [-5.0, -1e-300, math.nan, math.inf])
    def test_negative_or_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="min_excess must be finite and at least 0"):
            Tolerances(min_excess=value)

    def test_zero_allowed(self):
        assert Tolerances(min_excess=0.0, residual=0.0).min_excess == 0.0
