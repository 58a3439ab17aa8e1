import io
import math

import numpy as np
import pytest

from thurston_willmore import (
    FunctionalCoefficients,
    GeometryParams,
    PerturbationSpec,
    Tolerances,
    canonical_coefficients,
    energy,
)
from thurston_willmore.experiments import (
    SECOND_SUMMAND_TOL,
    SweepSpec,
    VariationResult,
    deformed_curve_energy,
    descend_energy,
    default_perturbation_grid,
    finite_difference_variation,
    mode_family_energy,
    sweep,
    verify_criticality,
    verify_minimality,
    weak_form_variation,
    write_sweep_csv,
)

FOUR_PI = 4.0 * math.pi


class TestDeformedCurveEnergy:
    def test_matches_profile_energy_at_zero_deformation(self, sphere):
        p = sphere(0.0, 0.5, 1.0)
        coeffs = canonical_coefficients(p.geometry)
        direct = energy(p, coeffs).E
        recomputed = deformed_curve_energy(p.geometry, p.s, p.u, p.v, coeffs)
        assert recomputed == pytest.approx(direct, abs=1e-7)


class TestCriticality:
    def test_bundle_case(self, nil_geometry):
        report = verify_criticality(nil_geometry, 1.0)
        assert report.passed
        # the checked sphere comes back with the report, outside its JSON form
        assert report.profile.mean_curvature == 1.0
        assert "profile" not in report.to_dict()
        assert report.max_residual < 1e-4
        assert all(abs(v.dE_dt) < 1e-5 for v in report.variations)
        assert {v.velocity_profile_id for v in report.variations} == {
            "constant", "cos_sigma", "bump",
        }

    def test_flat_case_recovers_round_sphere(self, flat_geometry):
        report = verify_criticality(flat_geometry, 1.0)
        assert report.passed
        assert report.energy_value == pytest.approx(FOUR_PI, rel=1e-6)

    def test_berger_family_case(self):
        report = verify_criticality(GeometryParams(1.0, 0.3), 0.7)
        assert report.passed

    def test_negative_control_plain_willmore(self, nil_geometry):
        # with the plain Willmore coefficients both checks must fail loudly
        report = verify_criticality(nil_geometry, 1.0, FunctionalCoefficients(1.0, 0.0))
        assert not report.passed
        assert report.max_residual > 1e-2
        assert max(abs(v.dE_dt) for v in report.variations) > 1e-2

    def test_variation_truncation_estimate_present(self, nil_geometry):
        report = verify_criticality(nil_geometry, 1.0)
        for v in report.variations:
            assert v.step > 0.0
            assert v.truncation_estimate >= 0.0

    def test_variation_result_validates_step(self):
        with pytest.raises(ValueError):
            VariationResult("constant", 0.0, 0.0, 0.0)

    def test_weak_form_agrees_with_finite_difference(self, perturbed):
        # on a non-critical profile the two first-variation routes agree
        p = perturbed(0.0, 0.5, 1.0, 0.1, 1)
        coeffs = canonical_coefficients(p.geometry)
        for velocity in ("constant", "bump"):
            fd = finite_difference_variation(p, coeffs, velocity)
            weak = weak_form_variation(p, coeffs, velocity)
            assert abs(fd.dE_dt) > 1e-3
            assert np.sign(fd.dE_dt) == np.sign(weak)
            assert fd.dE_dt == pytest.approx(weak, rel=0.02)


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

    def test_inadmissible_entry_is_not_fatal(self, nil_geometry):
        report = verify_minimality(nil_geometry, 1.0, [PerturbationSpec(0.2, 1)])
        assert report.passed
        assert not report.entries[0].admissible
        assert "regular" in report.entries[0].error


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

    def test_rejects_mode_beyond_family(self, nil_geometry):
        with pytest.raises(ValueError):
            descend_energy(nil_geometry, 1.0, 1, start=PerturbationSpec(0.1, 2))


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

    def test_failure_of_an_existing_sphere_keeps_exists_true(self):
        spec = SweepSpec(k_values=(0.0,), tau_values=(0.5,), H_values=(0.7,))
        row = sweep(spec, tolerances=Tolerances(closure_identity=1e-30))[0]
        assert row.exists
        assert row.error.startswith("IntegrationError: sphere identity residual")
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
                "perturbation_grid": [{"epsilon": 0.1, "mode": 2}],
            }
        )
        assert spec.k_values == (0.0, 1.0)
        assert spec.perturbation_grid == (PerturbationSpec(0.1, 2),)

    def test_default_grid_shape(self):
        grid = default_perturbation_grid()
        assert len(grid) == 12
        assert all(isinstance(s, PerturbationSpec) for s in grid)
