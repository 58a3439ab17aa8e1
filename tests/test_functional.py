import math

import numpy as np
import pytest
import sympy as sp

from thurston_willmore import (
    FunctionalCoefficients,
    GeometryParams,
    Profile,
    canonical_coefficients,
    el_residual,
    energy,
    gauss_bonnet_total,
    generate_cmc_sphere,
    h_squared_identity_check,
    max_interior_residual,
    mean_curvature,
    nu_on_profile,
    orbit_volume_factor,
    second_summand_derivative_check,
    sectional_curvature,
    sphere_from_modes,
    surface_fields,
    willmore_relation_check,
)
from thurston_willmore import functional
from thurston_willmore.functional import INTERIOR_MARGIN, _ProfileFields

from shooting_oracle import ProfileState, StopCondition, integrate

FOUR_PI = 4.0 * math.pi
M = INTERIOR_MARGIN


def symbolic_sphere_fields(k, tau, H):
    """Closed forms of K, div(nu T), nu along the CMC sphere branch.

    Parametrized by the turning angle with u = sin(sigma)/H and the
    turning rate H(1 + k u^2/4); independent of the stencil pipeline.
    """
    sig = sp.symbols("sigma", positive=True)
    u = sp.sin(sig) / H
    A = sp.sqrt(1 + tau**2 * u**2)
    B = 1 + sp.Rational(1, 4) * k * u**2

    def dds(expr):
        return sp.diff(expr, sig) * H * B

    G = u * A / B
    K = -dds(dds(G)) / G
    div = dds(u * sp.cos(sig) * sp.sin(sig) / (B * A)) / G
    nu = sp.cos(sig) / A
    return sig, {
        "K": sp.lambdify(sig, sp.simplify(K), "numpy"),
        "div": sp.lambdify(sig, sp.simplify(div), "numpy"),
        "nu": sp.lambdify(sig, nu, "numpy"),
    }


class TestCanonicalCoefficients:
    def test_exact_named_cases(self):
        # all three regression values are dyadic, so compare exactly
        c = canonical_coefficients(GeometryParams(0.0, 0.5))
        assert (c.alpha, c.beta) == (0.25, -0.0625)
        c = canonical_coefficients(GeometryParams(-1.0, -0.5))
        assert (c.alpha, c.beta) == (0.25, -0.3125)
        c = canonical_coefficients(GeometryParams(1.0, 0.0))
        assert (c.alpha, c.beta) == (0.25, 0.25)


class TestMeanCurvature:
    def test_round_sphere(self):
        g = GeometryParams(0.0, 0.0)
        for r in (0.5, 1.0, 2.0):
            # u = r sin(s/r), sigma = s/r, sigma' = 1/r
            assert mean_curvature(g, r * math.sin(0.7), 0.7, 1.0 / r) == pytest.approx(1.0 / r)

    def test_constant_along_generated_sphere(self, sphere):
        for k, tau, H in ((0.0, 0.5, 1.0), (-1.0, -0.5, 0.8), (1.0, 0.3, 0.7)):
            p = sphere(k, tau, H)
            h_values = surface_fields(p)["H"]
            assert np.max(np.abs(h_values[M:-M] - H)) < 1e-6

    def test_nonconstant_on_perturbed(self, perturbed):
        p = perturbed(0.0, 0.5, 1.0, 0.1, 1)
        h_values = surface_fields(p)["H"][M:-M]
        assert h_values.max() - h_values.min() > 1e-3

    def test_rejects_axis(self):
        with pytest.raises(ValueError):
            mean_curvature(GeometryParams(0.0, 0.0), 0.0, 0.0, 1.0)


class TestNu:
    def test_equator(self):
        assert nu_on_profile(GeometryParams(0.0, 0.5), 1.0, math.pi / 2) == pytest.approx(0.0)

    def test_pole(self):
        assert nu_on_profile(GeometryParams(-1.0, 0.3), 0.0, 0.0) == 1.0

    def test_direct_value(self):
        assert nu_on_profile(GeometryParams(0.0, 0.5), 1.0, math.pi / 3) == pytest.approx(
            0.5 / math.sqrt(1.25)
        )


def test_closed_forms_match_the_profile_fields_bit_for_bit():
    # the one 3-decimal tau in [-3, 3] at which the two spellings of tau^2 round apart
    tau = 2.759
    assert tau**2 != tau * tau
    g = GeometryParams(-0.5, tau)
    p = generate_cmc_sphere(g, 0.8, n_samples=2049)
    f = _ProfileFields.of(p)
    assert np.array_equal(orbit_volume_factor(g, p.u), f.mu)
    assert np.array_equal(sectional_curvature(g, f.nu), f.K_bar)
    assert np.array_equal(nu_on_profile(g, p.u, p.sigma), f.nu)


class TestSurfaceFields:
    @pytest.mark.parametrize("kind", ["arclength", "turning_angle", "open"])
    def test_arrays_are_the_profile_fields(self, kind):
        g = GeometryParams(-0.5, 0.3)
        if kind == "arclength":
            p = generate_cmc_sphere(g, 0.8)
        elif kind == "turning_angle":
            p = sphere_from_modes(g, 0.8, [0.05, -0.02])
        else:  # the accessor, unlike the energy, takes open profiles
            p = integrate(g, 0.8, ProfileState(0.0, 0.5, 0.0, 0.3), StopCondition.arclength(2.0))
        f = _ProfileFields.of(p)
        expected = {
            "H": f.H,
            "K": f.gauss_curvature(),
            "K_bar": f.K_bar,
            "nu": f.nu,
            "div_nuT": f.div_nuT(),
            "mu": f.mu,
        }
        fields = surface_fields(p)
        assert list(fields) == list(expected)
        for name, value in expected.items():
            assert fields[name].shape == (len(p),)
            assert np.array_equal(fields[name], value), name


class TestSampleFloor:
    # the stride-4 stencils need 20 samples: below that, one error naming the count
    @pytest.mark.parametrize(
        "call",
        [
            surface_fields,
            lambda p: el_residual(p, canonical_coefficients(p.geometry)),
            lambda p: max_interior_residual(p, canonical_coefficients(p.geometry)),
            gauss_bonnet_total,
        ],
        ids=["surface_fields", "el_residual", "max_interior_residual", "gauss_bonnet_total"],
    )
    def test_too_few_samples_named(self, call):
        p = generate_cmc_sphere(GeometryParams(0.0, 0.5), 1.0, n_samples=19)
        with pytest.raises(ValueError, match=r"^profile has 19 samples; .* need at least 20$"):
            call(p)

    def test_second_summand_check_names_its_floor(self):
        # 2 INTERIOR_MARGIN + 1 = 17 samples leave one interior sample
        p = generate_cmc_sphere(GeometryParams(0.0, 0.5), 1.0, n_samples=15)
        with pytest.raises(
            ValueError,
            match=r"^profile has 15 samples; the second-summand check needs at least 17$",
        ):
            second_summand_derivative_check(p)

    def test_spacing_one_paths_take_fewer(self):
        q = generate_cmc_sphere(GeometryParams(0.0, 0.5), 1.0, n_samples=17)
        assert math.isfinite(second_summand_derivative_check(q))  # one sample past the margins
        p = Profile(s=q.s[::4], u=q.u[::4], v=q.v[::4], sigma=q.sigma[::4], geometry=q.geometry,
                    closure=q.closure)
        assert len(p) == 5
        assert math.isfinite(energy(p).E)
        assert math.isfinite(willmore_relation_check(p))


class TestGaussCurvature:
    def test_round_sphere(self, flat_geometry):
        from thurston_willmore import generate_cmc_sphere

        for r in (0.5, 2.0):
            p = generate_cmc_sphere(flat_geometry, 1.0 / r)
            K = surface_fields(p)["K"]
            assert np.max(np.abs(K[M:-M] - 1.0 / r**2)) < 1e-4

    def test_symbolic_oracle(self, sphere):
        for k, tau, H in ((0.0, 0.5, 1.0), (-1.0, -0.5, 0.8), (1.0, 0.3, 0.7)):
            p = sphere(k, tau, H)
            _, fields = symbolic_sphere_fields(k, tau, H)
            K = surface_fields(p)["K"]
            expected = fields["K"](p.sigma[M:-M])
            assert np.max(np.abs(K[M:-M] - expected)) < 1e-4

    def test_gauss_bonnet(self, sphere, perturbed):
        assert gauss_bonnet_total(sphere(0.0, 0.5, 1.0)) == pytest.approx(FOUR_PI, abs=1e-3)
        assert gauss_bonnet_total(sphere(-1.0, -0.5, 0.8)) == pytest.approx(FOUR_PI, abs=1e-3)
        assert gauss_bonnet_total(perturbed(0.0, 0.5, 1.0, 0.1, 1)) == pytest.approx(
            FOUR_PI, abs=1e-3
        )

    def test_equator_principal_product_tau_zero(self, sphere):
        # for tau = 0 the orbit and meridian directions are principal, so at
        # the equator K - K_bar equals sigma' (2H - sigma'); K_bar vanishes
        # there since the tangent plane is vertical and tau = 0
        for k, H in ((-1.0, 0.8), (1.0, 0.8), (0.0, 1.0)):
            p = sphere(k, 0.0, H)
            i = len(p) // 2
            assert p.sigma[i] == pytest.approx(math.pi / 2, abs=1e-9)
            sigma_dot = H * (1.0 + 0.25 * k * p.u[i] ** 2)
            expected = sigma_dot * (2.0 * H - sigma_dot)
            data = surface_fields(p)
            assert data["K_bar"][i] == pytest.approx(0.0, abs=1e-12)
            assert data["K"][i] == pytest.approx(expected, abs=1e-5)

    def test_gauss_equation_definition(self, sphere):
        nu = surface_fields(sphere(0.0, 0.5, 1.0))["nu"]
        assert np.all(np.abs(nu) <= 1.0 + 1e-9)


class TestDivNuT:
    def test_flat_analytic_oracle(self, flat_geometry):
        # round sphere radius r: div = (3 cos^2(sigma) - 1)/r
        from thurston_willmore import generate_cmc_sphere

        r = 1.0
        p = generate_cmc_sphere(flat_geometry, 1.0 / r)
        div = surface_fields(p)["div_nuT"]
        expected = (3.0 * np.cos(p.sigma) ** 2 - 1.0) / r
        assert np.max(np.abs(div[M:-M] - expected[M:-M])) < 1e-5

    def test_symbolic_oracle(self, sphere):
        for k, tau, H in ((0.0, 0.5, 1.0), (-1.0, -0.5, 0.8)):
            p = sphere(k, tau, H)
            _, fields = symbolic_sphere_fields(k, tau, H)
            div = surface_fields(p)["div_nuT"]
            expected = fields["div"](p.sigma[M:-M])
            assert np.max(np.abs(div[M:-M] - expected)) < 1e-4

    def test_vanishes_at_equator_and_seams(self, sphere):
        # the driven quantity u cos(sigma) sin(sigma) vanishes at sigma = 0, pi/2
        p = sphere(0.0, 0.5, 1.0)
        f = _ProfileFields.of(p)
        product = p.u * np.cos(p.sigma) * np.sin(p.sigma)
        i = len(p) // 2
        assert product[i] == pytest.approx(0.0, abs=1e-9)
        assert product[0] == pytest.approx(0.0, abs=1e-11)


class TestEnergy:
    def test_cmc_energy_is_topological(self, sphere):
        for k, tau, H in ((0.0, 0.5, 1.0), (-1.0, -0.5, 0.8), (1.0, 0.0, 0.6), (0.25, 0.3, 1.0)):
            rep = energy(sphere(k, tau, H))
            assert rep.E == pytest.approx(FOUR_PI, rel=1e-6)
            assert rep.first_summand == pytest.approx(0.0, abs=1e-9)
            assert rep.second_summand == pytest.approx(FOUR_PI, abs=1e-6)

    def test_round_sphere_scale_invariance(self, flat_geometry):
        from thurston_willmore import generate_cmc_sphere

        for r in (0.5, 1.0, 2.0):
            rep = energy(generate_cmc_sphere(flat_geometry, 1.0 / r))
            assert rep.E == pytest.approx(FOUR_PI, rel=1e-8)
            assert rep.willmore_W == pytest.approx(FOUR_PI, rel=1e-8)
            assert rep.area == pytest.approx(4.0 * math.pi * r * r, rel=1e-8)

    def test_decomposition_identity(self, sphere, perturbed):
        for p in (sphere(0.0, 0.5, 1.0), perturbed(0.0, 0.5, 1.0, 0.1, 1)):
            rep = energy(p)
            assert rep.E == pytest.approx(rep.first_summand + rep.second_summand, abs=1e-9)

    def test_perturbed_exceeds_minimum(self, perturbed):
        rep = energy(perturbed(0.0, 0.5, 1.0, 0.1, 1))
        assert rep.E > FOUR_PI + 1e-7
        assert rep.second_summand == pytest.approx(FOUR_PI, abs=1e-6)
        assert rep.first_summand > 0.0

    def test_minimality_lower_bound(self, sphere, perturbed):
        profiles = [
            sphere(0.0, 0.5, 1.0),
            perturbed(0.0, 0.5, 1.0, -0.2, 1),
            perturbed(-1.0, -0.5, 0.8, 0.1, 2),
        ]
        for p in profiles:
            rep = energy(p)
            assert rep.E >= FOUR_PI - 1e-6
            h_values = surface_fields(p)["H"][M:-M]
            spread = h_values.max() - h_values.min()
            at_minimum = abs(rep.E - FOUR_PI) < 1e-6
            assert at_minimum == (spread < 1e-6)

    def test_rejects_open_profile(self):
        g = GeometryParams(0.0, 0.5)
        p = integrate(g, 0.8, ProfileState(0.0, 0.5, 0.0, 0.3), StopCondition.arclength(2.0))
        with pytest.raises(ValueError, match="open profile"):
            energy(p)

    def test_quadrature_error_reported(self, sphere):
        rep = energy(sphere(0.0, 0.5, 1.0))
        assert 0.0 <= rep.quadrature_error < 1e-8

    def test_report_serialization_keys(self, sphere):
        payload = energy(sphere(0.0, 0.5, 1.0)).to_dict()
        assert set(payload) == {
            "E", "first_summand", "second_summand", "willmore_W", "area",
            "quadrature_error",
        }


class TestElResidual:
    def test_canonical_on_cmc_spheres(self, sphere):
        for k, tau, H in ((0.0, 0.5, 1.0), (-1.0, -0.5, 0.8), (1.0, 0.3, 0.7)):
            p = sphere(k, tau, H)
            assert max_interior_residual(p, canonical_coefficients(p.geometry)) < 1e-4

    def test_flat_willmore_any_alpha(self, flat_geometry):
        # in flat space the residual reduces to 2H^3 - 2HK + Delta H for
        # every alpha, and vanishes on round spheres
        from thurston_willmore import generate_cmc_sphere

        p = generate_cmc_sphere(flat_geometry, 1.0)
        for alpha in (0.0, 0.25, 0.7, 1.0):
            assert max_interior_residual(p, FunctionalCoefficients(alpha, 0.0)) < 1e-4

    def test_symbolic_zero_for_canonical(self):
        # the canonical combination vanishes identically on the sphere branch
        sig, k, tau, H = sp.symbols("sigma k tau H", positive=True)
        u = sp.sin(sig) / H
        A = sp.sqrt(1 + tau**2 * u**2)
        B = 1 + k * u**2 / 4

        def dds(e):
            return sp.diff(e, sig) * H * B

        G = u * A / B
        K = -dds(dds(G)) / G
        nu = sp.cos(sig) / A
        div = dds(u * sp.cos(sig) * sp.sin(sig) / (B * A)) / G
        alpha = sp.Rational(1, 4)
        beta = k / 4 - tau**2 / 4
        residual = H * (
            2 * H**2 - 2 * K + (1 - 2 * alpha) * (k - 4 * tau**2) * nu**2
            + k - 2 * beta - 2 * alpha * tau**2
        ) + 2 * alpha * (k - 4 * tau**2) * div
        assert sp.simplify(residual) == 0

    def test_perturbed_not_critical(self, perturbed):
        p = perturbed(0.0, 0.5, 1.0, -0.2, 1)
        res = max_interior_residual(p, canonical_coefficients(p.geometry))
        assert res > 1e-2

    def test_one_pole_cut_per_pass(self, monkeypatch):
        # H_smooth and laplacian_H divide by u off the same poles
        calls = []
        cut = functional._pole_cut

        def counted(u):
            calls.append(u)
            return cut(u)

        monkeypatch.setattr(functional, "_pole_cut", counted)
        p = generate_cmc_sphere(GeometryParams(0.0, 0.5), 1.0)
        max_interior_residual(p, canonical_coefficients(p.geometry))
        assert len(calls) == 1



class TestIdentities:
    def test_h_squared_identity_random(self):
        rng = np.random.default_rng(31415)
        for k, tau in ((-1.0, -0.5), (0.0, 0.5), (1.0, 0.3)):
            g = GeometryParams(k, tau)
            hi = min(3.0, 0.9 * g.domain_radius)
            u = rng.uniform(0.05, hi, 10_000)
            sig = rng.uniform(0.0, math.pi, 10_000)
            sd = rng.uniform(-2.0, 2.0, 10_000)
            assert np.max(h_squared_identity_check(g, u, sig, sd)) < 1e-12

    def test_h_squared_identity_degenerate_angle(self):
        g = GeometryParams(-1.0, 0.2)
        # sigma = 0: both sides reduce to (sigma'/2)^2
        assert h_squared_identity_check(g, 0.7, 0.0, 1.3) < 1e-15

    def test_h_squared_identity_on_sphere_samples(self, sphere):
        p = sphere(0.0, 0.5, 1.0)
        f = _ProfileFields.of(p)
        sl = slice(M, -M)
        gap = h_squared_identity_check(
            p.geometry, p.u[sl], p.sigma[sl], f.sigma_dot[sl]
        )
        assert np.max(gap) < 1e-12

    def test_willmore_relation(self, sphere, perturbed):
        assert willmore_relation_check(sphere(0.0, 0.5, 1.0)) < 1e-8
        assert willmore_relation_check(sphere(-1.0, -0.5, 0.8)) < 1e-8
        assert willmore_relation_check(perturbed(0.0, 0.5, 1.0, 0.1, 1)) < 1e-8

    def test_willmore_equals_energy_in_flat_space(self, flat_geometry):
        from thurston_willmore import generate_cmc_sphere

        rep = energy(generate_cmc_sphere(flat_geometry, 1.0))
        assert rep.E == pytest.approx(rep.willmore_W, abs=1e-10)

    def test_second_summand_derivative(self, sphere, perturbed):
        assert second_summand_derivative_check(sphere(-1.0, -0.5, 0.8)) < 1e-5
        assert second_summand_derivative_check(sphere(0.0, 0.0, 1.0)) < 1e-5
        assert second_summand_derivative_check(perturbed(0.0, 0.5, 1.0, 0.1, 1)) < 1e-5
