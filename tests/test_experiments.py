import dataclasses
import gc
import io
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from thurston_willmore import (
    FunctionalCoefficients,
    GeometryParams,
    IntegrationError,
    PerturbationSpec,
    Tolerances,
    canonical_coefficients,
    energy,
    generate_cmc_sphere,
    sphere_from_modes,
)
from thurston_willmore import experiments, functional, profile
from thurston_willmore.experiments import (
    SECOND_SUMMAND_TOL,
    SweepSpec,
    VELOCITY_PROFILES,
    VariationResult,
    deformed_curve_energy,
    descend_energy,
    default_perturbation_grid,
    first_variation,
    mode_family_energy,
    sweep,
    verify_criticality,
    verify_identities,
    verify_minimality,
    write_sweep_csv,
)
from thurston_willmore.functional import INTERIOR_MARGIN, _ProfileFields, el_residual
from thurston_willmore.numerics import sample_quadrature

FOUR_PI = 4.0 * math.pi


class TestDeformedCurveEnergy:
    def test_matches_profile_energy_at_zero_deformation(self, sphere):
        p = sphere(0.0, 0.5, 1.0)
        coeffs = canonical_coefficients(p.geometry)
        direct = energy(p, coeffs).E
        recomputed = deformed_curve_energy(p.geometry, p.s, p.u, p.v, coeffs)
        assert recomputed == pytest.approx(direct, abs=1e-7)

    def test_linearized_call_returns_the_same_energy(self, sphere):
        p = sphere(-1.0, -0.5, 0.8)
        coeffs = canonical_coefficients(p.geometry)
        plain = deformed_curve_energy(p.geometry, p.s, p.u, p.v, coeffs)
        velocities = np.stack([np.cos(p.sigma), np.ones_like(p.s)])
        value, rates = deformed_curve_energy(
            p.geometry, p.s, p.u, p.v, coeffs, du=velocities, dv=velocities[::-1]
        )
        assert value == plain
        assert rates.shape == (2,)

    @pytest.mark.parametrize(
        "build",
        [
            lambda g: generate_cmc_sphere(g, 0.8),
            lambda g: sphere_from_modes(g, 0.8, [0.05, -0.02]),
        ],
        ids=["cmc-scalar-spacing", "modes-array-spacing"],
    )
    def test_each_velocity_alone_matches_its_batch_entry(self, build):
        # a velocity's dE/dt must not depend on the velocities beside it
        p = build(GeometryParams(-1.0, -0.5))
        coeffs = canonical_coefficients(p.geometry)
        du, dv = experiments._normal_velocities(p)
        value, batch = deformed_curve_energy(p.geometry, p.s, p.u, p.v, coeffs, du=du, dv=dv)
        assert batch.shape == (3,)
        for row in range(3):
            alone = deformed_curve_energy(
                p.geometry, p.s, p.u, p.v, coeffs, du=[du[row]], dv=[dv[row]]
            )
            assert alone[0] == value
            assert alone[1][0] == batch[row]


class TestUnwrap:
    """``experiments._unwrap`` is ``np.unwrap`` in value and sign bit."""

    CASES = {
        "no wrap": np.linspace(-1.0, 3.0, 9),
        "-pi at the last sample": np.r_[np.linspace(0.0, math.pi, 9)[:-1], -math.pi],
        "a step of exactly pi": np.array([0.0, math.pi, 0.0, -math.pi]),
        "nan": np.array([0.0, 0.5, math.nan, 1.0]),
        "-0.0 past index 0": np.array([-0.0, -0.0, 0.5, -0.0]),
        "a jump before a last-sample wrap": np.array([0.0, 0.5, 4.0, 4.5, -1.5]),
        "nan at the last sample": np.array([0.0, 0.5, 1.0, math.nan]),
        "two samples": np.array([3.0, -3.0]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_np_unwrap(self, name):
        sigma = self.CASES[name]
        assert experiments._unwrap(sigma.copy()).tobytes() == np.unwrap(sigma).tobytes()

    @given(
        st.lists(
            st.floats(-math.pi, math.pi) | st.sampled_from([-0.0, -math.pi, math.pi, math.nan]),
            min_size=2,
            max_size=12,
        )
    )
    def test_matches_np_unwrap_on_any_angles(self, angles):
        sigma = np.array(angles)
        assert experiments._unwrap(sigma.copy()).tobytes() == np.unwrap(sigma).tobytes()

    @pytest.mark.parametrize("epsilon, wraps", [(0.05, False), (-0.05, True)])
    def test_first_variation_is_as_with_np_unwrap(self, monkeypatch, epsilon, wraps):
        # on the fine grid the second shape's arctan2 reads about -pi at sigma = pi
        p = sphere_from_modes(GeometryParams(0.0, 0.5), 1.0, [epsilon])
        coeffs = canonical_coefficients(p.geometry)
        unwrap, ends = np.unwrap, []
        monkeypatch.setattr(np, "unwrap", lambda a: ends.append(a[-1]) or unwrap(a))
        fast = first_variation(p, coeffs)
        assert bool(ends) is wraps and all(end < -3.14 for end in ends)
        monkeypatch.setattr(experiments, "_unwrap", unwrap)
        plain = first_variation(p, coeffs)
        bits = [np.array([(v.dE_dt, v.truncation_estimate) for v in r]) for r in (fast, plain)]
        assert bits[0].tobytes() == bits[1].tobytes()

    def test_last_sample_wrap_unwraps_two_samples(self, monkeypatch):
        # this shape's arctan2 reads -pi at sigma = pi, its last sample, and nowhere else
        p = sphere_from_modes(GeometryParams(0.0, 0.5), 1.0, [-0.05])
        unwrap, lengths = np.unwrap, []
        monkeypatch.setattr(np, "unwrap", lambda a: lengths.append(len(a)) or unwrap(a))
        first_variation(p, canonical_coefficients(p.geometry))
        assert lengths == [2]


class TestCriticality:
    def test_bundle_case(self, nil_geometry):
        report = verify_criticality(nil_geometry, 1.0)
        assert report.passed
        # the checked sphere comes back with the report, outside its JSON form
        assert report.profile.mean_curvature == 1.0
        assert "profile" not in report.to_dict()
        assert report.max_residual < 1e-4
        assert all(abs(v.dE_dt) < 1e-5 for v in report.variations)
        assert {v.velocity_profile for v in report.variations} == {
            "constant", "cos_sigma", "bump",
        }

    def test_flat_case_recovers_round_sphere(self, flat_geometry):
        report = verify_criticality(flat_geometry, 1.0)
        assert report.passed
        assert report.energy == pytest.approx(FOUR_PI, rel=1e-6)

    def test_berger_family_case(self):
        report = verify_criticality(GeometryParams(1.0, 0.3), 0.7)
        assert report.passed

    def test_negative_control_plain_willmore(self, nil_geometry):
        # with the plain Willmore coefficients both checks must fail loudly
        report = verify_criticality(nil_geometry, 1.0, FunctionalCoefficients(1.0, 0.0))
        assert not report.passed
        assert report.max_residual > 1e-2
        assert max(abs(v.dE_dt) for v in report.variations) > 1e-2

    def test_failure_names_the_worst_missed_variation(self, nil_geometry):
        assert verify_criticality(nil_geometry, 1.0).failure is None
        tight = verify_criticality(nil_geometry, 1.0, tolerances=Tolerances(variation=0.0))
        worst = max(tight.variations, key=lambda v: abs(v.dE_dt))
        assert tight.failure == f"first variation {worst.dE_dt:.3e} ({worst.velocity_profile})"
        assert not tight.passed

    def test_variation_truncation_estimate_present(self, nil_geometry):
        report = verify_criticality(nil_geometry, 1.0)
        for v in report.variations:
            assert v.truncation_estimate >= 0.0

    def test_weak_form_agrees_with_first_variation(self, perturbed):
        # on a non-critical profile the two first-variation routes agree
        p = perturbed(0.0, 0.5, 1.0, 0.1, 1)
        coeffs = canonical_coefficients(p.geometry)
        variations = {v.velocity_profile: v for v in first_variation(p, coeffs)}
        phi = _velocity_table(p)
        for velocity in ("constant", "bump"):
            exact = variations[velocity]
            weak = _weak_form_variation(p, coeffs, phi[velocity])
            assert abs(exact.dE_dt) > 1e-3
            assert np.sign(exact.dE_dt) == np.sign(weak)
            assert exact.dE_dt == pytest.approx(weak, rel=0.02)

    def test_truncation_estimate_small_on_turning_angle_profile(self, perturbed):
        # the profile ends exactly at sigma = pi, where the recomputed tangent
        # angle must not jump to -pi on either grid
        p = perturbed(0.0, 0.5, 1.0, 0.1, 1)
        variations = first_variation(p, canonical_coefficients(p.geometry))
        assert [v.velocity_profile for v in variations] == list(VELOCITY_PROFILES)
        for v in variations:
            assert v.truncation_estimate < Tolerances.variation, v.velocity_profile

    def test_linearization_matches_on_a_turning_angle_profile(self, perturbed):
        # samples uniform in sigma, with u = 0 at both ends
        p = perturbed(-1.0, -0.5, 0.8, 0.1, 1)
        coeffs = canonical_coefficients(p.geometry)
        exact = np.array([v.dE_dt for v in first_variation(p, coeffs)])
        central = _central_difference_variation(p, coeffs, 1e-4)
        assert np.max(np.abs(exact - central)) <= 1e-6 * np.max(np.abs(central))


class TestFirstVariationResolution:
    """(-1, -0.6, 0.6) at 32769 samples: the central difference of the energy
    read 4.1e-5 here on rounding alone, above ``Tolerances.variation``."""

    G, H, N = GeometryParams(-1.0, -0.6), 0.6, 32769

    @pytest.mark.parametrize("n_samples", [2049, 8193, N])
    def test_canonical_sphere_is_critical(self, n_samples):
        report = verify_criticality(self.G, self.H, n_samples=n_samples)
        assert report.passed, report.failure
        assert max(abs(v.dE_dt) for v in report.variations) < 1e-8

    @pytest.mark.parametrize("n_samples", [2049, 8193, N])
    def test_plain_willmore_control_still_fails(self, n_samples):
        control = FunctionalCoefficients(1.0, 0.0)
        report = verify_criticality(self.G, self.H, control, n_samples=n_samples)
        assert not report.passed
        assert max(abs(v.dE_dt) for v in report.variations) > 1.0

    def test_linearization_matches_a_central_difference(self):
        p = verify_criticality(self.G, self.H, n_samples=self.N).profile
        coeffs = FunctionalCoefficients(1.0, 0.0)
        exact = np.array([v.dE_dt for v in first_variation(p, coeffs)])
        central = _central_difference_variation(p, coeffs, 1e-4)
        assert np.max(np.abs(exact - central)) <= 1e-6 * np.max(np.abs(central))


def _velocity_table(p) -> dict:
    """phi(s) of each ``VELOCITY_PROFILES`` name on p's samples, spelled apart from the package."""
    x = (p.s - p.s[0]) / p.arclength
    bump = np.sin(math.pi * x) ** 4
    return {"constant": np.ones_like(p.s), "cos_sigma": np.cos(p.sigma), "bump": bump}


def _weak_form_variation(p, coeffs, phi) -> float:
    """dE/dt by the weak form: 2 pi times the quadrature of residual * phi * mu, off the poles."""
    integrand = el_residual(p, coeffs) * phi * _ProfileFields.of(p).mu
    integrand[:INTERIOR_MARGIN] = 0.0
    integrand[-INTERIOR_MARGIN:] = 0.0
    return 2.0 * math.pi * sample_quadrature(integrand, p.spacing)


def _central_difference_variation(p, coeffs, t: float) -> np.ndarray:
    """dE/dt per velocity profile by the central difference of step t, as a reference."""
    g, u, sigma = p.geometry, p.u, p.sigma
    n_u = -(1.0 + 0.25 * g.k * u * u) * np.sin(sigma)
    n_v = np.sqrt(1.0 + g.tau**2 * u * u) * np.cos(sigma)
    table = _velocity_table(p)
    central = []
    for name in VELOCITY_PROFILES:
        phi = table[name]
        ends = [
            deformed_curve_energy(g, p.s, u + e * phi * n_u, p.v + e * phi * n_v, coeffs)
            for e in (t, -t)
        ]
        central.append((ends[0] - ends[1]) / (2.0 * t))
    return np.array(central)


class TestMinimality:
    @pytest.mark.parametrize(
        "k,tau,H",
        [(0.0, 0.5, 1.0), (-1.0, -0.5, 0.8), (1.0, 0.0, 1.0), (-1.0, 0.0, 0.8)],
    )
    def test_thurston_cases(self, k, tau, H):
        report = verify_minimality(GeometryParams(k, tau), H)
        assert report.passed
        assert report.baseline_E == pytest.approx(FOUR_PI, abs=1e-6)
        admissible = [e for e in report.entries if e.admissible]
        inadmissible = [e for e in report.entries if not e.admissible]
        # the grid deliberately contains irregular shapes; they are reported
        assert {(e.epsilon, e.mode) for e in inadmissible} == {
            (0.2, 1), (-0.1, 2), (-0.2, 2),
        }
        for entry in admissible:
            assert entry.E > FOUR_PI + 1e-7
            assert entry.second_summand == pytest.approx(FOUR_PI, abs=1e-6)

    def test_energy_grows_with_amplitude_mode1(self, nil_geometry):
        # observed empirically; reported here for the admissible branch
        grid = [PerturbationSpec(e, 1) for e in (-0.05, -0.1, -0.2)]
        report = verify_minimality(nil_geometry, 1.0, grid)
        energies = [e.E for e in report.entries]
        assert energies == sorted(energies)

    def test_evenness_gap_reported_not_asserted(self, nil_geometry):
        report = verify_minimality(nil_geometry, 1.0)
        # the family is not symmetric under amplitude sign flip: the gap is
        # orders of magnitude above quadrature error and is surfaced as data
        assert report.evenness_gaps
        assert max(report.evenness_gaps.values()) > 1e-3
        assert report.passed

    def test_family_edge_competitor_holds_second_summand(self, nil_geometry):
        # min N = 1 - 5 (0.196) = 0.02: turning concentrates near the equator;
        # samples uniform in arclength left the second summand 1.5e-3 off
        report = verify_minimality(nil_geometry, 1.0, [PerturbationSpec(0.196, 1)])
        (entry,) = report.entries
        assert entry.admissible
        assert abs(entry.second_summand - FOUR_PI) < SECOND_SUMMAND_TOL
        assert entry.E == pytest.approx(mode_family_energy(nil_geometry, 1.0, [0.196]), abs=1e-7)
        assert report.passed

    def test_plain_willmore_coefficients_reach_every_energy(self, nil_geometry):
        plain = FunctionalCoefficients.plain_willmore()
        report = verify_minimality(nil_geometry, 1.0, [PerturbationSpec(0.1, 1)], coeffs=plain)
        assert report.coefficients == plain
        assert abs(report.baseline_E - FOUR_PI) > 0.1
        assert report.entries[0].E == pytest.approx(
            mode_family_energy(nil_geometry, 1.0, [0.1], plain), abs=1e-7
        )
        assert not report.passed

    def test_failure_names_the_first_check_that_missed(self, nil_geometry):
        grid = [PerturbationSpec(0.2, 1), PerturbationSpec(0.1, 1), PerturbationSpec(-0.1, 1)]
        report = verify_minimality(nil_geometry, 1.0, grid)
        assert report.failure is None
        _, first, _ = report.entries
        # the inadmissible entry is skipped; the competitors are checked in grid order
        excess = Tolerances(min_excess=10.0)
        report = verify_minimality(nil_geometry, 1.0, grid, tolerances=excess)
        assert not report.passed
        assert report.failure == (
            "competitor (epsilon 0.1, mode 1) energy excess"
            f" {first.E - report.baseline_E:.3e} not above 1.000e+01"
        )
        # the baseline energy is checked before everything else
        both = Tolerances(min_excess=10.0, energy=0.0)
        miss = abs(report.baseline_E - FOUR_PI)
        assert verify_minimality(nil_geometry, 1.0, grid, tolerances=both).failure == (
            f"baseline |E - 4 pi| {miss:.3e} not below 0.000e+00"
        )

    def test_bounds_keep_their_verdict_at_equality(self, nil_geometry, monkeypatch):
        # the baseline's second summand must be strictly inside its bound
        grid = [PerturbationSpec(0.1, 1)]
        report = verify_minimality(nil_geometry, 1.0, grid)
        miss = abs(report.baseline_second_summand - FOUR_PI)
        assert miss > 0.0
        at_baseline = Tolerances(second_summand=miss)
        assert verify_minimality(nil_geometry, 1.0, grid, tolerances=at_baseline).failure == (
            f"baseline |second summand - 4 pi| {miss:.3e} not below {miss:.3e}"
        )
        # with an exact baseline, a competitor's second summand passes at its bound
        _second_summands(monkeypatch, FOUR_PI, FOUR_PI + 1e-9)
        miss = abs(FOUR_PI + 1e-9 - FOUR_PI)
        at_entry = Tolerances(second_summand=miss)
        assert verify_minimality(nil_geometry, 1.0, grid, tolerances=at_entry).passed
        below = Tolerances(second_summand=math.nextafter(miss, 0.0))
        assert verify_minimality(nil_geometry, 1.0, grid, tolerances=below).failure == (
            f"competitor (epsilon 0.1, mode 1) |second summand - 4 pi| {miss:.3e}"
            f" above {below.second_summand:.3e}"
        )

    def test_nan_competitor_second_summand_fails(self, nil_geometry, monkeypatch):
        _second_summands(monkeypatch, FOUR_PI, math.nan)
        report = verify_minimality(nil_geometry, 1.0, [PerturbationSpec(0.1, 1)])
        assert not report.passed
        assert report.failure == (
            "competitor (epsilon 0.1, mode 1) |second summand - 4 pi| nan above"
            f" {Tolerances.second_summand:.3e}"
        )

    def test_inadmissible_entry_is_not_fatal(self, nil_geometry):
        report = verify_minimality(nil_geometry, 1.0, [PerturbationSpec(0.2, 1)])
        assert report.passed
        assert not report.entries[0].admissible
        assert "regular" in report.entries[0].error


def _second_summands(monkeypatch, baseline: float, competitor: float) -> None:
    """Make the suite's energies report these second summands, by the sphere they evaluate."""
    real_energy, real_kernel = experiments.energy, experiments._turning_angle_energy

    def patched(profile, coeffs=None):
        # the baseline CMC sphere is a Profile; competitors go through the array kernel
        return dataclasses.replace(real_energy(profile, coeffs), second_summand=baseline)

    monkeypatch.setattr(experiments, "energy", patched)
    monkeypatch.setattr(
        experiments, "_turning_angle_energy", lambda *args: (real_kernel(*args)[0], competitor)
    )


def _outcome(compute):
    """The hex digits of each float ``compute`` returns, or the type and text of what it raises."""
    try:
        return tuple(float.hex(x) for x in compute())
    except Exception as exc:  # the outcome compared, whatever it is
        return type(exc), str(exc)


class TestCompetitorArrays:
    """The suites evaluate mode spheres from their samples, as energy does their Profiles."""

    @given(
        k=st.floats(-3.0, 3.0),
        tau=st.floats(-2.0, 2.0),
        H=st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-6, 6)),
        c=st.integers(1, 3).flatmap(
            lambda dims: st.tuples(*(st.floats(-0.3 / m**2, 0.3 / m**2) for m in range(1, dims + 1)))
        ),
        plain=st.booleans(),
        n_samples=st.sampled_from([9, 257, 2049]),
    )
    @example(k=-1.0, tau=0.0, H=0.6, c=(0.19999999,), plain=False, n_samples=2049)  # regularity edge
    @example(k=0.0, tau=0.5, H=1.0, c=(0.2,), plain=False, n_samples=2049)  # N = 0: inadmissible
    @example(k=0.0, tau=0.5, H=1e-6, c=(0.1, -0.02), plain=True, n_samples=2049)
    @example(k=1.0, tau=0.3, H=-1e6, c=(-0.1, 0.02, 0.01), plain=False, n_samples=257)
    @example(k=-1.0, tau=0.0, H=0.4, c=(0.05,), plain=False, n_samples=2049)  # no sphere
    def test_array_path_equals_energy_of_the_profile(self, k, tau, H, c, plain, n_samples):
        g = GeometryParams(k, tau)
        coeffs = FunctionalCoefficients.plain_willmore() if plain else canonical_coefficients(g)

        def arrays():
            samples = profile._mode_samples(g, H, c, n_samples)
            return functional._turning_angle_energy(g, coeffs, samples["u"], samples["ds_dsigma"])

        def sphere():
            report = energy(sphere_from_modes(g, H, c, n_samples=n_samples), coeffs)
            return report.E, report.second_summand

        assert _outcome(arrays) == _outcome(sphere)

    def test_only_the_profile_sums_the_heights(self):
        # at H = 2e-150 the bound of v passes 1e300 at tau = 1 and not at tau = 0.5, while the
        # CMC sphere's stays below it; u and ds/dsigma do not depend on tau
        c, n_samples, H = [-0.1], 257, 2e-150
        with pytest.raises(IntegrationError, match="mode sphere's heights overflow float64"):
            sphere_from_modes(GeometryParams(0.0, 1.0), H, c, n_samples=n_samples)
        samples = profile._mode_samples(GeometryParams(0.0, 1.0), H, c, n_samples)
        p = sphere_from_modes(GeometryParams(0.0, 0.5), H, c, n_samples=n_samples)
        assert sorted(samples) == ["ds_dsigma", "u"]
        for name, column in samples.items():
            assert column.tobytes() == getattr(p, name).tobytes()

    @pytest.mark.parametrize(
        "column, value",
        [("u", math.nan), ("ds_dsigma", 0.0), ("u", 2.0)],
        ids=["nan", "zero", "domain"],
    )
    def test_corrupt_columns_raise_as_the_profile(self, column, value):
        # the array path checks u and ds/dsigma as Profile does; u = 2 is k = -1's domain radius
        g, H, n_samples = GeometryParams(-1.0, -0.5), 0.6, 129
        samples = profile._mode_samples(g, H, [0.05], n_samples)
        samples[column] = samples[column].copy()
        samples[column][n_samples // 2] = value

        def arrays():
            coeffs = canonical_coefficients(g)
            return functional._turning_angle_energy(g, coeffs, samples["u"], samples["ds_dsigma"])

        heights = sphere_from_modes(g, H, [0.05], n_samples=n_samples)

        def built():
            profile.Profile(
                **samples,
                s=heights.s,
                v=heights.v,
                sigma=profile._turning_angle_grid(n_samples)[0],
                geometry=g,
                closure=profile.Closure.CLOSED_SPHERE,
                parametrization=profile.TURNING_ANGLE,
            )

        outcome = _outcome(arrays)
        assert outcome[0] is ValueError
        assert outcome == _outcome(built)

    @pytest.fixture
    def profiles(self, monkeypatch):
        # one entry per Profile constructed
        built = []
        real = profile.Profile.__post_init__

        def counted(self):
            built.append(self.parametrization)
            real(self)

        monkeypatch.setattr(profile.Profile, "__post_init__", counted)
        return built

    def test_minimality_builds_only_the_baseline_profile(self, nil_geometry, profiles):
        report = verify_minimality(nil_geometry, 1.0)
        assert sum(e.admissible for e in report.entries) > 0
        assert profiles == ["arclength"]

    def test_descent_builds_no_profile(self, nil_geometry, profiles):
        assert descend_energy(nil_geometry, 1.0, 2).converged
        assert profiles == []


class TestDescent:
    def test_recovers_cmc_sphere_from_boundary_start(self, nil_geometry):
        report = descend_energy(nil_geometry, 1.0, 3)
        assert report.converged
        assert report.iterations <= 200
        assert report.energy_final - FOUR_PI < 1e-6
        assert max(abs(c) for c in report.coefficients_final) < 1e-4
        assert report.identity_residual < 1e-3
        assert report.start_adjusted  # amplitude 0.2 sits on the regularity boundary

    def test_negative_curvature_start(self):
        report = descend_energy(
            GeometryParams(-1.0, -0.5), 0.8, 3, start=PerturbationSpec(0.3, 1)
        )
        assert report.converged
        assert report.energy_final - FOUR_PI < 1e-6
        assert abs(report.refit_H - 0.8) < 1e-3

    def test_zero_start_needs_no_iterations(self, nil_geometry):
        report = descend_energy(nil_geometry, 1.0, 3, start=PerturbationSpec(0.0, 1))
        assert report.converged
        assert report.iterations == 0
        assert not report.start_adjusted

    def test_failure_names_the_stop_reason(self, nil_geometry):
        assert descend_energy(nil_geometry, 1.0, 1).failure is None
        report = descend_energy(nil_geometry, 1.0, 1, max_iterations=1)
        assert not report.converged
        assert report.failure == (
            "descent not converged: iteration budget used up after 1 iterations"
            f" (gradient norm {report.gradient_norm:.3e})"
        )

    def test_near_boundary_descent_fails_the_final_shape_check(self):
        # H^2 + k/4 = 1e-4: the family energy converges, the sampled sphere misses 4 pi
        # (a graded sigma grid, ROADMAP item 4, is to make this case converge)
        report = descend_energy(GeometryParams(-1.0, -0.5), 0.5001, 3)
        assert report.stop_reason == "final shape check failed"
        assert not report.converged
        assert report.iterations == 11
        assert abs(report.energy_final - FOUR_PI) >= Tolerances().energy
        assert report.failure.startswith(
            "descent not converged: final shape check failed after 11 iterations"
        )

    def test_line_search_stall_stops_the_descent(self, nil_geometry, monkeypatch):
        # every trial reads infinite: no step lowers the energy (the start's
        # value comes with its derivatives, from _family_energy)
        calls = []

        def infinite(*args):
            calls.append(args)
            return math.inf

        monkeypatch.setattr(experiments, "mode_family_energy", infinite)
        report = descend_energy(nil_geometry, 1.0, 1)
        assert report.stop_reason == "line search stalled"
        assert report.iterations == 1
        assert len(calls) == 50  # 50 halvings
        # no step was taken: the descent ends at its default start 0.2, pulled in once
        assert np.array_equal(report.coefficients_final, [0.2 * 0.97])
        assert not report.converged

    def test_rejects_mode_beyond_family(self, nil_geometry):
        with pytest.raises(ValueError):
            descend_energy(nil_geometry, 1.0, 1, start=PerturbationSpec(0.1, 2))

    def test_rejects_negative_iteration_budget(self, nil_geometry):
        with pytest.raises(ValueError, match="max_iterations"):
            descend_energy(nil_geometry, 1.0, 1, max_iterations=-3)


@pytest.mark.parametrize(
    "suite",
    [
        lambda n: verify_criticality(GeometryParams(0.0, 0.5), 1.0, n_samples=n),
        lambda n: verify_identities(
            GeometryParams(0.0, 0.5), 1.0, PerturbationSpec(0.1, 1), seed=1, n_samples=n
        ),
        lambda n: sweep(SweepSpec((0.0,), (0.5,), (1.0,)), n_samples=n),
    ],
    ids=["verify_criticality", "verify_identities", "sweep"],
)
@pytest.mark.parametrize("n", [19, 22])
def test_sample_count_without_room_for_the_stencils_is_rejected(suite, n, monkeypatch):
    # raised before any work: a sphere is never generated
    monkeypatch.setattr(experiments, "generate_cmc_sphere", None)
    with pytest.raises(ValueError) as info:
        suite(n)
    assert str(info.value) == f"n_samples must be odd and at least 21, got {n}"


class TestIdentities:
    def test_passes_and_fails_at_its_thresholds(self, nil_geometry):
        spec = PerturbationSpec(0.1, 1)
        report = verify_identities(nil_geometry, 1.0, spec, seed=1)
        assert report.passed and report.failure is None and report.failed == ()
        assert list(report.checks) == list(report.thresholds) == [
            "h_squared_identity",
            "willmore_relation_cmc",
            "willmore_relation_perturbed",
            "gauss_bonnet_cmc",
            "gauss_bonnet_perturbed",
            "second_summand_derivative_cmc",
            "second_summand_derivative_perturbed",
        ]
        # a check passes at its threshold and fails just below it
        value = report.checks["gauss_bonnet_perturbed"]
        at = Tolerances(gauss_bonnet=value)
        assert verify_identities(nil_geometry, 1.0, spec, seed=1, tolerances=at).passed
        below = Tolerances(gauss_bonnet=math.nextafter(value, 0.0))
        report = verify_identities(nil_geometry, 1.0, spec, seed=1, tolerances=below)
        assert "gauss_bonnet_perturbed" in report.failed
        assert report.failure == f"identity check {report.failed[0]}"

    def test_nan_identity_value_fails(self, nil_geometry, monkeypatch):
        monkeypatch.setattr(experiments, "willmore_relation_check", lambda profile: math.nan)
        report = verify_identities(nil_geometry, 1.0, PerturbationSpec(0.1, 1), seed=1)
        assert not report.passed
        assert report.failed == ("willmore_relation_cmc", "willmore_relation_perturbed")
        assert report.failure == "identity check willmore_relation_cmc"


class TestModeFamilyEnergy:
    def test_cross_checks_sample_pipeline(self, nil_geometry):
        from thurston_willmore import sphere_from_modes

        coeffs_vec = [0.05, -0.02]
        analytic = mode_family_energy(nil_geometry, 1.0, coeffs_vec)
        pipeline = energy(sphere_from_modes(nil_geometry, 1.0, coeffs_vec)).E
        assert analytic == pytest.approx(pipeline, abs=1e-7)

    def test_zero_coefficients_give_topological_value(self, nil_geometry):
        assert mode_family_energy(nil_geometry, 1.0, [0.0]) == pytest.approx(FOUR_PI, abs=1e-9)

    def test_inadmissible_returns_infinity(self, nil_geometry):
        assert math.isinf(mode_family_energy(nil_geometry, 1.0, [0.25]))


class TestSweep:
    def test_rows_in_input_order_with_failures(self):
        spec = SweepSpec(k_values=(-1.0, 0.0), tau_values=(0.0,), H_values=(0.5, 1.0))
        rows = sweep(spec)
        assert [(r.k, r.H) for r in rows] == [(-1.0, 0.5), (-1.0, 1.0), (0.0, 0.5), (0.0, 1.0)]
        assert not rows[0].exists
        assert "ExistenceViolation" in rows[0].error
        assert rows[1].exists and rows[1].E == pytest.approx(FOUR_PI, rel=1e-6)

    def test_failure_of_an_existing_sphere_keeps_exists_true(self, monkeypatch):
        def failing(*args, **kwargs):
            raise IntegrationError("sphere failed to close")

        monkeypatch.setattr(experiments, "generate_cmc_sphere", failing)
        spec = SweepSpec(k_values=(0.0,), tau_values=(0.5,), H_values=(0.7,))
        row = sweep(spec)[0]
        assert row.exists
        assert row.error == "IntegrationError: sphere failed to close"
        assert row.E is None

    def test_nonexistent_rows_unchanged(self):
        spec = SweepSpec(k_values=(-1.0, 1.0, math.nan), tau_values=(0.0,), H_values=(0.0,))
        buf = io.StringIO()
        write_sweep_csv(sweep(spec), buf)
        assert buf.getvalue().splitlines()[1:] == [
            '-1.0,0.0,0.0,false,,,,,,"ExistenceViolation: no CMC sphere in E(k=-1.0, tau=0.0) '
            'with H=0.0: requires H^2 > -k/4"',
            '1.0,0.0,0.0,false,,,,,,"ExistenceViolation: no CMC sphere in E(k=1.0, tau=0.0): '
            'requires H != 0 for k > 0"',
            'nan,0.0,0.0,false,,,,,,"ValueError: k and tau must be finite, got k=nan, tau=0.0"',
        ]

    @pytest.mark.parametrize("H", [math.nan, math.inf, -math.inf])
    def test_non_finite_H_row_does_not_exist(self, H):
        spec = SweepSpec(k_values=(-1.0, 0.0, 1.0), tau_values=(0.5,), H_values=(H,))
        for row in sweep(spec):
            assert not row.exists
            assert row.error.startswith("ExistenceViolation: ")
            assert row.error.endswith("requires H finite")

    def test_flat_unit_sphere_row(self):
        spec = SweepSpec(k_values=(0.0,), tau_values=(0.0,), H_values=(1.0,))
        row = sweep(spec)[0]
        assert row.E == pytest.approx(FOUR_PI, rel=1e-6)
        assert row.u_max == pytest.approx(1.0, abs=1e-9)
        assert row.area == pytest.approx(FOUR_PI, rel=1e-6)

    def test_csv_deterministic(self):
        spec = SweepSpec(k_values=(0.0, 1.0), tau_values=(0.5,), H_values=(0.8,))
        first, second = io.StringIO(), io.StringIO()
        write_sweep_csv(sweep(spec), first)
        write_sweep_csv(sweep(spec), second)
        assert first.getvalue() == second.getvalue()

    def test_empty_spec_gives_header_only(self):
        buf = io.StringIO()
        write_sweep_csv(sweep(SweepSpec((), (), ())), buf)
        assert buf.getvalue() == "k,tau,H,exists,E,max_residual,second_summand,u_max,area,error\n"

    def test_spec_from_dict(self):
        spec = SweepSpec.from_dict(
            {
                "k_values": [0, 1],
                "tau_values": [0.5],
                "H_values": [1],
            }
        )
        assert spec.k_values == (0.0, 1.0)

    def test_default_grid_shape(self):
        grid = default_perturbation_grid()
        assert len(grid) == 12
        assert all(isinstance(s, PerturbationSpec) for s in grid)


@pytest.fixture
def field_sets(monkeypatch):
    """Weak references to every ``_ProfileFields`` built from here on, in order."""
    built = []
    real_init = _ProfileFields.__init__

    def spy(self, *args, **kwargs):
        built.append(weakref.ref(self))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(_ProfileFields, "__init__", spy)
    return built


# Existing spheres of three geometries, and one (k, tau, H) with no sphere.
_FIELD_SPEC = SweepSpec(k_values=(-1.0, 0.0, 1.0), tau_values=(0.5,), H_values=(0.0, 0.8))


class TestOneFieldSetPerSphere:
    """A suite call builds one field set per sphere, and it dies with the call."""

    def test_each_sweep_row_builds_one(self, field_sets):
        rows = sweep(_FIELD_SPEC)
        assert [r.exists for r in rows] == [False, True, False, True, False, True]
        assert len(field_sets) == 3

    def test_verify_criticality_builds_one(self, field_sets, nil_geometry):
        verify_criticality(nil_geometry, 1.0)
        assert len(field_sets) == 1

    @pytest.mark.parametrize("k, tau, H", [(0.0, 0.5, 0.8), (-1.0, -0.5, 0.8), (1.0, 0.3, 0.7)])
    def test_row_equals_the_standalone_calls_bit_for_bit(self, k, tau, H):
        row = sweep(SweepSpec((k,), (tau,), (H,)))[0]
        g = GeometryParams(k, tau)
        p = generate_cmc_sphere(g, H)
        report = energy(p)
        residual = functional.max_interior_residual(p, canonical_coefficients(g))
        pairs = [
            (row.E, report.E),
            (row.second_summand, report.second_summand),
            (row.area, report.area),
            (row.max_residual, residual),
        ]
        assert [a.hex() for a, _ in pairs] == [b.hex() for _, b in pairs]

    def test_criticality_equals_the_standalone_calls_bit_for_bit(self, nil_geometry):
        report = verify_criticality(nil_geometry, 1.0)
        coeffs = canonical_coefficients(nil_geometry)
        residual = functional.max_interior_residual(report.profile, coeffs)
        assert report.max_residual.hex() == residual.hex()
        assert report.energy.hex() == energy(report.profile, coeffs).E.hex()

    def test_sweep_frees_every_field_set_by_its_return(self, field_sets):
        gc.disable()  # freed by reference counting, not by a later collection
        try:
            rows = sweep(_FIELD_SPEC)
            alive = [ref() is not None for ref in field_sets]
        finally:
            gc.enable()
        assert rows and alive
        assert not any(alive)

    def test_criticality_frees_its_field_set_before_the_first_variation(
        self, field_sets, monkeypatch, nil_geometry
    ):
        # a field set kept through the first variation's passes faults the
        # heap top back in (tests/test_page_faults.py)
        real = experiments.deformed_curve_energy
        at_first_pass = []

        def spy(*args, **kwargs):
            if not at_first_pass:
                at_first_pass.append([ref() is not None for ref in field_sets])
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "deformed_curve_energy", spy)
        gc.disable()
        try:
            report = verify_criticality(nil_geometry, 1.0)
            alive = [ref() is not None for ref in field_sets]
        finally:
            gc.enable()
        assert report.profile is not None  # the report, and its profile, are still held
        assert len(at_first_pass) == 1 and at_first_pass[0]
        assert not any(at_first_pass[0])
        assert alive and not any(alive)


class TestReportJson:
    """The JSON key set of every report record, nested records included."""

    def test_key_sets(self, nil_geometry):
        g, H = nil_geometry, 1.0
        crit = verify_criticality(g, H, n_samples=513).to_dict()
        assert set(crit) == {
            "k", "tau", "H", "alpha", "beta", "max_residual", "residual_tol", "variations",
            "variation_tol", "energy", "passed",
        }
        assert [set(v) for v in crit["variations"]] == 3 * [
            {"velocity_profile", "dE_dt", "truncation_estimate"}
        ]
        minimality = verify_minimality(
            g, H, [PerturbationSpec(e, 1) for e in (0.1, -0.1, 0.2)], n_samples=513
        ).to_dict()
        assert set(minimality) == {
            "k", "tau", "H", "alpha", "beta", "baseline_E", "baseline_second_summand", "entries",
            "evenness_gaps", "passed",
        }
        assert [set(e) for e in minimality["entries"]] == 3 * [
            {"epsilon", "mode", "admissible", "E", "second_summand", "error"}
        ]
        assert set(minimality["evenness_gaps"]) == {"(0.1, 1)"}
        descent = descend_energy(g, H, 2, n_samples=513).to_dict()
        assert set(descent) == {
            "k", "tau", "H", "converged", "iterations", "energy_final", "coefficients_final",
            "gradient_norm", "refit_H", "identity_residual", "start_coefficients",
            "start_adjusted", "stop_reason", "hessian_eigenvalues",
        }
        for key in ("coefficients_final", "start_coefficients", "hessian_eigenvalues"):
            assert isinstance(descent[key], list) and len(descent[key]) == 2
        identities = verify_identities(g, H, PerturbationSpec(0.1, 1), seed=0, n_samples=513)
        identities = identities.to_dict()
        assert list(identities) == ["checks", "thresholds", "failed", "passed"]
        assert identities["failed"] == []
        # the failure line is the verdict's explanation on stderr, not a report key
        for report in (crit, minimality, descent, identities):
            assert "failure" not in report
        assert canonical_coefficients(g).to_dict() == {"alpha": 0.25, "beta": -0.0625}
