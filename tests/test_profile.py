import json
import math

import numpy as np
import pytest

from thurston_willmore import (
    Closure,
    ExistenceViolation,
    GeometryParams,
    InadmissiblePerturbation,
    IntegrationError,
    PerturbationSpec,
    Profile,
    ProfileState,
    StopCondition,
    cmc_sigma_rate,
    first_integral,
    generate_cmc_sphere,
    integrate,
    ode_rhs,
    perturbed_sphere,
    profile_first_integral,
    sphere_from_modes,
)
from thurston_willmore.numerics import derivative1
from thurston_willmore.profile import (
    ARCLENGTH,
    AXIS_SERIES_S0,
    TURNING_ANGLE,
    _reduced_sine_ratio,
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

    def test_axis_start_at_pi_dies_at_axis(self):
        # the branch through (u=0, sigma=pi) exits the chart going forward
        g = GeometryParams(0.0, 0.0)
        with pytest.raises(IntegrationError, match="axis"):
            integrate(g, 1.0, ProfileState(0.0, 0.0, 0.0, math.pi), StopCondition.arclength(1.0))


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
            assert p.arclength + 2.0 * AXIS_SERIES_S0 == pytest.approx(length, rel=1e-12)

    def test_minimal_sphere_rejected_for_positive_k(self):
        with pytest.raises(ExistenceViolation, match="H != 0"):
            generate_cmc_sphere(GeometryParams(1.0, 0.3), 0.0)

    def test_zero_H_rejected_for_flat_base(self):
        with pytest.raises(ExistenceViolation):
            generate_cmc_sphere(GeometryParams(0.0, 0.5), 0.0)


class TestReducedSineRatio:
    def test_matches_direct_ratio_away_from_equator(self):
        sig = np.linspace(0.1, math.pi - 0.1, 500)
        sig = sig[np.abs(np.cos(sig)) > 0.05]
        for m in (1, 2, 3, 5):
            direct = np.sin(2 * m * sig) / np.cos(sig)
            np.testing.assert_allclose(_reduced_sine_ratio(sig, m), direct, atol=1e-12)

    def test_finite_at_equator(self):
        for m in (1, 2, 4):
            value = _reduced_sine_ratio(np.array([math.pi / 2]), m)[0]
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
        n_exact = 1.0 + 0.1 * np.cos(2 * sigma) - 0.2 * np.sin(sigma) * _reduced_sine_ratio(sigma, 1)
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
        # the sidecar records the tolerances the generator ran with
        assert q.tolerances == p.tolerances
        assert q.tolerances == {
            "conservation": 1e-8, "closure_identity": 1e-8, "axis_epsilon": 1e-5
        }

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

    def test_state_accessor(self, sphere):
        p = sphere(0.0, 0.5, 1.0)
        st = p.state(0)
        assert st.s == p.s[0] and st.u == p.u[0]
