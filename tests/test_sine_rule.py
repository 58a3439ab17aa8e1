"""One quadrature per parametrization: the sine rule on turning-angle samples.

Energies of turning-angle profiles (``sphere_from_modes`` and the minimality
competitors) integrate with the sine rule, whose error is the tail of the
integrand's sine series; arclength profiles keep the Newton-Cotes panels.
The minimality suite evaluates each competitor on the ladder 129, 257, ...
up to ``n_samples`` and keeps the first count whose tails certify its gates.
"""

import math

import pytest

from thurston_willmore import (
    FunctionalCoefficients,
    GeometryParams,
    PerturbationSpec,
    Tolerances,
    canonical_coefficients,
    energy,
    generate_cmc_sphere,
    perturbed_sphere,
    sphere_from_modes,
)
from thurston_willmore import numerics, profile
from thurston_willmore.experiments import (
    SECOND_SUMMAND_TOL,
    _sample_ladder,
    default_acceptance_grid,
    default_perturbation_grid,
    descend_energy,
    mode_family_energy,
    verify_minimality,
)
from thurston_willmore.functional import (
    _energy_densities,
    _ProfileFields,
    willmore_relation_check,
)
from thurston_willmore.numerics import sample_quadrature_with_error

FOUR_PI = 4.0 * math.pi
# The mode family's apex edge, where c = -0.2 reaches the domain radius.
APEX = (GeometryParams(-1.0, 0.0), 0.6)
# H^2 + k/4 = 1e-4, near the existence boundary.
NEAR_BOUNDARY = (GeometryParams(-1.0, -0.5), math.sqrt(0.25 + 1e-4))


def test_energy_converges_at_the_distance_of_the_pole_singularity():
    # c = 0 at (k, tau, H) = (0, 10, 1): u = sin(sigma), and A^2 = 1 + 100 sin^2(sigma)
    # vanishes at sigma = +-i asinh(0.1).  E - 4 pi is the quadrature error, which falls
    # like e^{-M d} in the M = n - 1 intervals; the tail bounds it
    g, d = GeometryParams(0.0, 10.0), math.asinh(0.1)
    errors = {}
    for n in (65, 129, 257):
        report = energy(sphere_from_modes(g, 1.0, [0.0], n_samples=n))
        errors[n] = abs(report.E - FOUR_PI)
        assert 0.0 < errors[n] <= report.quadrature_error
    for coarse, fine in ((65, 129), (129, 257)):
        rate = math.log(errors[coarse] / errors[fine]) / (fine - coarse)
        assert d <= rate <= 1.25 * d


def test_apex_edge_competitor_holds_its_second_summand():
    # Newton-Cotes read 5.85e-6 off 4 pi at 2049 samples
    report = energy(sphere_from_modes(*APEX, [-0.1995], n_samples=2049))
    assert abs(report.second_summand - FOUR_PI) < SECOND_SUMMAND_TOL
    assert abs(report.second_summand - FOUR_PI) < 1e-10


def test_near_boundary_sphere_reads_4pi():
    # Newton-Cotes read 4.5e-5 off 4 pi at 2049 samples
    report = energy(sphere_from_modes(*NEAR_BOUNDARY, [0.0], n_samples=2049))
    assert abs(report.E - FOUR_PI) < 1e-9


def test_arclength_profiles_keep_newton_cotes():
    g, H = GeometryParams(-1.0, -0.5), 0.8
    p = generate_cmc_sphere(g, H, n_samples=2049)
    coeffs = canonical_coefficients(g)
    density, _ = _energy_densities(_ProfileFields.of(p), coeffs)
    value, error = sample_quadrature_with_error(density, p.spacing)
    report = energy(p, coeffs)
    assert (report.E, report.quadrature_error) == (2.0 * math.pi * value, 2.0 * math.pi * error)


@pytest.mark.parametrize("n_samples", [21, 129, 2049])
def test_willmore_relation_holds_to_rounding_at_every_count(n_samples):
    # E, W and the correction share one rule, so E = W + correction is an identity
    g, H = GeometryParams(-1.0, -0.5), 0.8
    p = perturbed_sphere(g, H, PerturbationSpec(0.1, 1), n_samples=n_samples)
    assert willmore_relation_check(p) <= 1e-12


class TestLadder:
    def test_counts(self):
        assert _sample_ladder(2049) == [129, 257, 513, 1025, 2049]
        assert _sample_ladder(1001) == [129, 257, 513, 1001]
        assert _sample_ladder(129) == [129]
        assert _sample_ladder(21) == [21]

    def test_regular_competitor_certifies_at_129(self):
        report = verify_minimality(GeometryParams(-1.0, -0.5), 0.8, [PerturbationSpec(0.05, 1)])
        (entry,) = report.entries
        assert entry.n_samples == 129
        assert entry.quadrature_error < 1e-3 * Tolerances.min_excess
        assert report.passed

    @pytest.mark.parametrize("n_samples", [1025, 2049])
    def test_apex_edge_competitor_climbs_to_the_cap(self, n_samples):
        report = verify_minimality(*APEX, [PerturbationSpec(-0.1995, 1)], n_samples=n_samples)
        (entry,) = report.entries
        assert entry.n_samples == n_samples

    def test_the_gates_set_the_certified_count(self):
        # a gate of 0 certifies no count below the cap
        grid = [PerturbationSpec(0.05, 1)]
        g, H = GeometryParams(-1.0, -0.5), 0.8
        for tolerances in (Tolerances(min_excess=0.0), Tolerances(second_summand=0.0)):
            report = verify_minimality(g, H, grid, tolerances=tolerances)
            assert report.entries[0].n_samples == 2049

    def test_a_count_below_the_ladder_evaluates_at_itself(self, nil_geometry):
        report = verify_minimality(nil_geometry, 1.0, [PerturbationSpec(0.1, 1)], n_samples=21)
        (entry,) = report.entries
        assert entry.n_samples == 21

    @pytest.mark.parametrize(
        "g, H, plain",
        [
            (GeometryParams(-1.0, -0.5), 0.8, False),
            (*APEX, False),
            (GeometryParams(0.0, 0.5), 1.0, True),
        ],
    )
    def test_entries_are_the_energy_of_the_mode_sphere_at_their_count(self, g, H, plain):
        coeffs = FunctionalCoefficients.plain_willmore() if plain else canonical_coefficients(g)
        grid = default_perturbation_grid() + [PerturbationSpec(-0.1995, 1)]
        report = verify_minimality(g, H, grid, coeffs=coeffs)
        admissible = [e for e in report.entries if e.admissible]
        assert admissible
        for entry in admissible:
            c = [0.0] * (entry.mode - 1) + [entry.epsilon]
            sphere = energy(sphere_from_modes(g, H, c, n_samples=entry.n_samples), coeffs)
            pairs = (
                (entry.E, sphere.E),
                (entry.second_summand, sphere.second_summand),
                (entry.quadrature_error, sphere.quadrature_error),
            )
            for ours, theirs in pairs:
                assert float.hex(ours) == float.hex(theirs)
        for entry in report.entries:
            assert (entry.n_samples is None) == (not entry.admissible)


def test_acceptance_grid_competitors_match_the_family_energy():
    for g, H in default_acceptance_grid():
        report = verify_minimality(g, H)
        assert report.passed
        for entry in (e for e in report.entries if e.admissible):
            c = [0.0] * (entry.mode - 1) + [entry.epsilon]
            assert abs(entry.E - mode_family_energy(g, H, c)) <= 1e-12
            assert abs(entry.second_summand - FOUR_PI) <= 1e-12


def test_repeated_suites_build_no_grid_or_rule_again():
    # the ladder's counts, the family's 65 and 1025 and the default 2049 all stay cached
    caches = (
        profile._turning_angle_grid,
        profile._grid_rates,
        numerics._sine_rule,
    )
    grid = default_perturbation_grid() + [PerturbationSpec(-0.1995, 1)]

    def suites():
        report = verify_minimality(*APEX, grid)
        assert {e.n_samples for e in report.entries if e.admissible} >= {129, 2049}
        descend_energy(*APEX, 2)

    suites()
    misses = [cache.cache_info().misses for cache in caches]
    suites()
    suites()
    assert [cache.cache_info().misses for cache in caches] == misses
