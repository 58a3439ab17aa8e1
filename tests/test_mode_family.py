"""The mode family: exact admissibility, the tangent root, the family energy,
its exact derivatives, and the Newton descent on them.

Property tests run under the hypothesis profile registered in conftest.py
(derandomized, bounded example counts).  The 30-digit mpmath oracle
integrates the family's energy density with tanh-sinh quadrature,
independently of the Gauss panels of ``mode_family_energy``.
"""

import math
import re
from contextlib import contextmanager
from unittest.mock import patch

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thurston_willmore import (
    FunctionalCoefficients,
    GeometryParams,
    PerturbationSpec,
    energy,
    sphere_from_modes,
)
from thurston_willmore import experiments, profile
from thurston_willmore.experiments import (
    FOUR_PI,
    SECOND_SUMMAND_TOL,
    _family_energy,
    _family_panels,
    descend_energy,
    mode_family_energy,
)
from thurston_willmore.profile import (
    ExistenceViolation,
    InadmissiblePerturbation,
    IntegrationError,
    _one_minus_t,
    _require_admissible,
    _series_range,
    _shape_series,
    _turning_angle_grid,
    _zero_distance,
)

from mode_oracle import mode_shape
from panel_oracle import family_half_rule, mode_sphere_samples

# (k, tau, H): Nil, H^2 x R near its domain edge, SL(2, R)-type, Berger
GEOMETRIES = [(0.0, 0.5, 1.0), (-1.0, 0.0, 0.6), (-1.0, -0.5, 0.8), (1.0, 0.3, 0.6)]

cases = st.sampled_from(GEOMETRIES)
# dims 1-3, mode m bounded by 0.3/m^2: both admissible and inadmissible shapes
coefficients = st.integers(1, 3).flatmap(
    lambda dims: st.tuples(
        *(st.floats(-0.3 / m**2, 0.3 / m**2) for m in range(1, dims + 1))
    )
)


def _numerator_min(c: np.ndarray) -> float:
    """Exact minimum of N over the closed profile sigma in [0, pi]."""
    _, _, n, n_ends = _shape_series(c)
    return _series_range(n, n_ends)[0]


def _admissible(g, H, c) -> bool:
    try:
        _require_admissible(g, H, c)
    except InadmissiblePerturbation:
        return False
    return True


class TestExactAdmissibility:
    @given(case=cases, c=coefficients)
    def test_verdict_matches_dense_sampling(self, case, c):
        k, tau, H = case
        g = GeometryParams(k, tau)
        c = np.array(c)
        _, p, n, u = mode_shape(H, c, np.linspace(0.0, math.pi, 65537))
        margins = (n.min(), p.min(), g.domain_radius * (1.0 - 1e-9) - u.max())
        # the exact ranges contain every sample
        p_series, p_ends, n_series, n_ends = _shape_series(c)
        for (low, high), samples in (
            (_series_range(n_series, n_ends), n),
            (_series_range(p_series, p_ends), p),
        ):
            assert low <= samples.min() + 1e-12
            assert high >= samples.max() - 1e-12
        assume(all(abs(m) > 1e-9 for m in margins))
        assert _admissible(g, H, c) == (min(margins) > 0.0)
        if min(margins) > 0.0:
            assert _require_admissible(g, H, c).u_max >= u.max() - 1e-12

    def test_tangent_root_is_inadmissible(self):
        # N = 1 - 5 eps + 6 eps cos^2(sigma): at eps = 0.2 its minimum is the
        # double root at the equator, a tie, which is inadmissible
        g = GeometryParams(0.0, 0.5)
        for c in ([0.2], [0.2, 0.0, 0.0]):
            assert _numerator_min(np.array(c)) == 0.0
            with pytest.raises(InadmissiblePerturbation, match="not regular"):
                sphere_from_modes(g, 1.0, c)
            assert math.isinf(mode_family_energy(g, 1.0, c))

    def test_just_inside_the_tangent_root_is_admissible(self):
        g = GeometryParams(0.0, 0.5)
        eps = math.nextafter(0.2, 0.0)
        assert _numerator_min(np.array([eps])) > 0.0
        assert math.isfinite(mode_family_energy(g, 1.0, [eps]))

    def test_descent_pulls_the_tangent_start_inside(self):
        # one step of 0.97 leaves min N = 1 - 5 (0.194), just above 0.03
        report = descend_energy(GeometryParams(0.0, 0.5), 1.0, 1, max_iterations=0)
        assert report.start_adjusted
        assert _numerator_min(np.array([0.2 * 0.97])) > 0.03

    def test_domain_exit_decided_at_the_apex(self):
        # k = -1: domain radius 2; mode 1 apex (1 - c)/H sits at the equator
        g = GeometryParams(-1.0, 0.0)
        assert _admissible(g, 0.6, np.array([-0.19]))
        assert not _admissible(g, 0.6, np.array([-0.2]))

    def test_apex_message_is_relative(self):
        # domain radius 2/sqrt(4e12) = 1e-6, apex 1.05/1.02e6: both below 6 decimals
        with pytest.raises(InadmissiblePerturbation) as exc:
            _require_admissible(GeometryParams(-4e12, 0.0), 1.02e6, np.array([-0.05]))
        assert str(exc.value) == "profile apex 1.02941e-06 leaves the domain (radius 1e-06)"


def _decision(g, H, c):
    """What ``_require_admissible`` returns, bit for bit, or the text it raises."""
    try:
        shape = _require_admissible(g, H, c)
    except InadmissiblePerturbation as exc:
        return str(exc)
    values = np.array([*shape.p_range, *shape.n_range, shape.u_max])
    return shape.p.tobytes(), shape.n.tobytes(), values.tobytes()


def _fresh_decision(g, H, c):
    """:func:`_decision` with the geometry-free part computed anew, bypassing its memo."""
    with patch.object(profile, "_shape_core", profile._shape_core.__wrapped__):
        return _decision(g, H, c)


class TestShapeMemo:
    """``_require_admissible`` decides a shape's geometry-free part once per coefficient vector."""

    # apex (1 + 0.2)/0.6 = 2 reaches the domain radius 2 at k = -1; k = 0 has no edge
    APEX_REJECTING = GeometryParams(-1.0, 0.0)
    ADMISSIBLE = GeometryParams(0.0, 0.5)

    @pytest.mark.parametrize("first_rejects", [True, False])
    def test_hit_never_carries_the_apex_decision(self, first_rejects):
        c = np.array([-0.2])
        order = [self.APEX_REJECTING, self.ADMISSIBLE]
        if not first_rejects:
            order.reverse()
        profile._shape_core.cache_clear()
        for g in order:
            assert _decision(g, 0.6, c) == _fresh_decision(g, 0.6, c)
        assert profile._shape_core.cache_info()[:2] == (1, 1)  # (hits, misses)
        with pytest.raises(InadmissiblePerturbation, match="apex"):
            _require_admissible(self.APEX_REJECTING, 0.6, c)
        assert _require_admissible(self.ADMISSIBLE, 0.6, c).u_max == 1.2 / 0.6

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zeros_are_distinct_shapes(self, zero):
        # the other sign first: keyed on bytes, the memo decides each sign once
        profile._shape_core.cache_clear()
        _require_admissible(self.ADMISSIBLE, 1.0, np.array([-zero]))
        c = np.array([zero])
        shape = _require_admissible(self.ADMISSIBLE, 1.0, c)
        p, p_ends, n, n_ends = _shape_series(c)
        assert shape.p.tobytes() == p.tobytes()
        assert shape.n.tobytes() == n.tobytes()
        ranges = [*shape.p_range, *shape.n_range]
        expected = [*_series_range(p, p_ends), *_series_range(n, n_ends)]
        assert np.array(ranges).tobytes() == np.array(expected).tobytes()
        assert _decision(self.ADMISSIBLE, 1.0, c) == _fresh_decision(self.ADMISSIBLE, 1.0, c)
        assert profile._shape_core.cache_info()[:2] == (1, 2)  # (hits, misses)

    @pytest.mark.parametrize("g, H, c", [
        (ADMISSIBLE, 1.0, [0.3]),  # min N = 1 - 5 (0.3) < 0
        (APEX_REJECTING, 0.6, [-0.2]),
    ])
    def test_inadmissible_shape_raises_alike_on_miss_and_hit(self, g, H, c):
        profile._shape_core.cache_clear()
        raised = []
        for _ in range(2):
            with pytest.raises(InadmissiblePerturbation) as exc:
                _require_admissible(g, H, np.array(c))
            raised.append((type(exc.value), str(exc.value)))
        assert profile._shape_core.cache_info()[:2] == (1, 1)
        assert raised[0] == raised[1]

    def test_series_are_read_only(self):
        c = np.array([0.1, -0.02])
        for _ in range(2):  # a miss, then a hit
            shape = _require_admissible(self.ADMISSIBLE, 1.0, c)
            for series in (shape.p, shape.n):
                assert not series.flags.writeable
                with pytest.raises(ValueError):
                    series[0] = 0.0

    def test_memo_stays_at_its_bound(self):
        bound = profile._SHAPE_CACHE_SIZE
        for i in range(bound + 10):
            _require_admissible(self.ADMISSIBLE, 1.0, np.array([1e-4 * i, 1e-3]))
        assert profile._shape_core.cache_info().currsize == bound

    def test_suite_decides_each_competitor_once(self):
        g, H = self.APEX_REJECTING, 0.6
        experiments.verify_minimality(g, H)
        before = profile._shape_core.cache_info()
        experiments.verify_minimality(g, H)
        after = profile._shape_core.cache_info()
        grid = len(experiments.default_perturbation_grid())
        assert (after.hits - before.hits, after.misses - before.misses) == (grid, 0)

    @given(case_a=cases, case_b=cases, c=coefficients)
    def test_repeated_calls_match_a_fresh_decision(self, case_a, case_b, c):
        c = np.array(c)
        for k, tau, H in (case_a, case_b, case_a):
            g = GeometryParams(k, tau)
            assert _decision(g, H, c) == _fresh_decision(g, H, c)


    @pytest.mark.parametrize("c", [[math.nan], [0.1, math.inf], [-math.inf, 0.0, 0.01]])
    def test_non_finite_coefficients_raise_before_the_memo(self, c):
        c = np.array(c)
        before = profile._shape_core.cache_info()
        with pytest.raises(ValueError) as exc:
            _require_admissible(self.ADMISSIBLE, 1.0, c)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"shape coefficients must be finite, got {c}"
        assert profile._shape_core.cache_info()[:2] == before[:2]


# Chebyshev coefficients across the family's range, 1e-300 to 1e3, and signed zeros
_CHEB_COEFFICIENTS = st.lists(
    st.sampled_from([0.0, -0.0])
    | st.builds(
        lambda sign, exponent: sign * 10.0**exponent,
        st.sampled_from([1.0, -1.0]),
        st.floats(-300.0, 3.0),
    ),
    min_size=1,
    max_size=5,
)


class TestChebval:
    """``profile._chebval`` is numpy's ``chebval`` bit for bit, on every grid it evaluates."""

    GRIDS = {
        "samples": _turning_angle_grid(2049)[3],
        "64 panels": profile._family_half_rule(64, 1)[3],
        "1024 panels": profile._family_half_rule(1024, 1)[3],
        "random": np.random.default_rng(7).uniform(-1.0, 1.0, 1000),
        "ends and zeros": np.array([1.0, -1.0, 0.0, -0.0]),
    }

    @given(coef=_CHEB_COEFFICIENTS)
    def test_matches_chebval_on_the_grids(self, coef):
        coef = np.array(coef)
        for t in self.GRIDS.values():
            assert profile._chebval(t, coef).tobytes() == cheb.chebval(t, coef).tobytes()

    @given(coef=_CHEB_COEFFICIENTS, t=st.floats(-1.0, 1.0))
    def test_matches_chebval_at_a_python_float(self, coef, t):
        coef = np.array(coef)
        value = profile._chebval(t, coef)
        assert np.float64(value).tobytes() == np.float64(cheb.chebval(t, coef)).tobytes()

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_every_length_matches_with_signed_zeros(self, size):
        t = self.GRIDS["samples"]
        for signs in np.ndindex(*(2,) * size):
            coef = np.array([-0.0 if s else 0.0 for s in signs])
            assert profile._chebval(t, coef).tobytes() == cheb.chebval(t, coef).tobytes()


class TestConstruction:
    @given(case=cases, c=coefficients)
    def test_samples_match_trigonometric_oracle(self, case, c):
        # sphere_from_modes evaluates the Chebyshev series of P and N; the
        # oracle sums cos(2 m sigma) mode by mode.  Next to the apex edge
        # (1 + k u^2/4 small) one rounding of u moves ds/dsigma by ~1e-14.
        k, tau, H = case
        g = GeometryParams(k, tau)
        c = np.array(c)
        assume(_admissible(g, H, c))
        p = sphere_from_modes(g, H, c)
        _, _, n, u = mode_shape(H, c, p.sigma)
        ds_dsigma = n / (H * (1.0 + 0.25 * k * u * u))
        u[[0, -1]] = 0.0
        assert np.max(np.abs(p.u - u)) <= 1e-13 * np.max(u)
        assert np.max(np.abs(p.ds_dsigma - ds_dsigma)) <= 1e-13 * np.max(ds_dsigma)


class TestFamilyEnergy:
    @given(case=cases, c=coefficients)
    def test_energy_at_least_4pi(self, case, c):
        k, tau, H = case
        value = mode_family_energy(GeometryParams(k, tau), H, list(c))
        assume(math.isfinite(value))
        assert value >= FOUR_PI - 1e-9

    @settings(max_examples=20)
    @given(case=cases, c=coefficients)
    def test_sampled_second_summand_is_4pi(self, case, c):
        # No restriction on min N or on the apex: sampled uniformly in the
        # turning angle, the pipeline resolves the min N edge, and the apex
        # edge up to about 0.999 of the domain radius (3000 random shapes
        # stayed below 9e-8).  At apex 0.9996 R it misses by 5.9e-6.
        k, tau, H = case
        g = GeometryParams(k, tau)
        c = np.array(c)
        assume(_admissible(g, H, c))
        report = energy(sphere_from_modes(g, H, c))
        assert abs(report.second_summand - FOUR_PI) < SECOND_SUMMAND_TOL


def _oracle_energy(k: float, tau: float, H: float, coeffs, alpha=None, beta=None) -> mp.mpf:
    """Energy of the mode-family sphere by 30-digit tanh-sinh quadrature.

    ``alpha`` and ``beta`` default to the canonical pair.
    """
    with mp.workdps(30):
        k, tau, H = mp.mpf(k), mp.mpf(tau), mp.mpf(H)
        c = [mp.mpf(x) for x in coeffs]
        alpha = mp.mpf(1) / 4 if alpha is None else mp.mpf(alpha)
        beta = k / 4 - tau**2 / 4 if beta is None else mp.mpf(beta)

        def density(s):
            sin_s, cos_s = mp.sin(s), mp.cos(s)
            P = 1 + mp.fsum(cm * mp.cos(2 * m * s) for m, cm in enumerate(c, 1))
            dP = -mp.fsum(2 * m * cm * mp.sin(2 * m * s) for m, cm in enumerate(c, 1))
            u = sin_s * P / H
            A, B = mp.sqrt(1 + tau**2 * u**2), 1 + k * u**2 / 4
            ds = (P + sin_s * dP / cos_s) / (H * B)  # ds/dsigma = u'(sigma) / (B cos(sigma))
            Hm = (1 / ds + H / P - k * u * sin_s / 4) / 2  # sin(sigma)/u = H/P
            nu = cos_s / A
            k_bar = tau**2 + (k - 4 * tau**2) * nu**2
            return (Hm**2 + alpha * k_bar + beta) * u * A / B * ds

        # the equator is an end point, never a node: ds has a removable 0/0 there
        return 2 * mp.pi * mp.quad(density, [0, mp.pi / 2, mp.pi])


def _oracle_gradient(
    k: float, tau: float, H: float, coeffs: list[float], alpha=None, beta=None
) -> np.ndarray:
    """Central difference of the oracle energy, step 1e-10 in 30-digit arithmetic."""
    with mp.workdps(30):
        step = mp.mpf("1e-10")
        gradient = []
        for i in range(len(coeffs)):
            plus = [mp.mpf(x) for x in coeffs]
            minus = list(plus)
            plus[i] += step
            minus[i] -= step
            difference = _oracle_energy(k, tau, H, plus, alpha, beta) - _oracle_energy(
                k, tau, H, minus, alpha, beta
            )
            gradient.append(float(difference / (2 * step)))
    return np.array(gradient)


ORACLE_SHAPES = [
    (0.0, 0.5, 1.0, [0.05, -0.02], 64),
    (-1.0, -0.5, 0.8, [-0.1, 0.02, 0.01], 64),
    (1.0, 0.3, 0.6, [0.194], 64),  # min N = 1 - 5 (0.194) = 0.03, the pull-in margin
    (1.0, 0.3, 0.6, [0.198], 1024),  # min N = 0.01: N vanishes 1.9 panel widths off
    (-1.0, 0.0, 0.6, [-0.195], 1024),  # apex 0.996 of the domain radius
    # branch point of A = sqrt(1 + tau^2 u^2) about 1 panel width off
    (0.0, 1.0, 0.05, [0.05], 1024),
    # zero of B = 1 + k u^2/4 (k > 0) about 0.8 panel widths off
    (1.0, 0.0, 0.03, [0.05], 1024),
]


def _assert_samples_equal_the_2d_panel_sums(k, tau, H, coeffs, n_samples):
    g = GeometryParams(k, tau)
    c = np.array(coeffs)
    shape = _require_admissible(g, abs(H), c)
    p = sphere_from_modes(g, H, c, n_samples=n_samples)
    expected = mode_sphere_samples(g.k, g.tau, H, shape.p, shape.n, n_samples)
    for column, oracle in zip((p.s, p.u, p.v, p.sigma, p.ds_dsigma), expected, strict=True):
        assert np.array_equal(column, oracle)


class TestNoSphere:
    # existence and float64 overflow are decided before the shape: unchecked, the
    # first two read -inf and 0.0, and each case read inf with the inadmissible shape
    @pytest.mark.parametrize("k, tau, H, error, message", [
        (0.0, 7e153, 1.0, IntegrationError, "with H=1.0 overflows float64: 4 tau^2 is not finite"),
        (0.0, 1.0, 1e-150, IntegrationError, "with H=1e-150 overflows float64: pi A(1/|H|)/w"),
        (0.0, 1.0, -1e-150, IntegrationError, "with H=-1e-150 overflows float64: pi A(1/|H|)/w"),
        (1.0, 0.0, 0.0, ExistenceViolation, "requires H != 0 for k > 0"),
        (-1.0, 0.0, -0.4, ExistenceViolation, "with H=-0.4: requires H^2 > -k/4"),
    ])
    @pytest.mark.parametrize("c", [[0.05], [0.5]], ids=["admissible", "inadmissible"])
    def test_family_energy_raises_the_typed_error(self, k, tau, H, error, message, c):
        g = GeometryParams(k, tau)
        with pytest.raises(error, match=re.escape(message)):
            mode_family_energy(g, H, c)
        with pytest.raises(error, match=re.escape(message)):
            _family_energy(g, H, c, derivatives=True)


class TestMirroredPanelSums:
    # sphere_from_modes sums the panels left of the equator with np.sum
    # and repeats the sums in mirror order, on a grid cached
    # per sample count
    @pytest.mark.parametrize("k, tau, H, coeffs, panels", ORACLE_SHAPES)
    def test_oracle_shapes_equal_the_2d_panel_sums(self, k, tau, H, coeffs, panels):
        _assert_samples_equal_the_2d_panel_sums(k, tau, H, coeffs, 2049)

    @given(case=cases, c=coefficients, n_samples=st.sampled_from([9, 257, 2049]))
    def test_samples_equal_the_2d_panel_sums(self, case, c, n_samples):
        k, tau, H = case
        assume(_admissible(GeometryParams(k, tau), H, np.array(c)))
        _assert_samples_equal_the_2d_panel_sums(k, tau, -H, c, n_samples)
        _assert_samples_equal_the_2d_panel_sums(k, tau, H, c, n_samples)

    @pytest.mark.parametrize("k, tau, H, coeffs, panels", ORACLE_SHAPES)
    def test_samples_stay_at_the_full_grid_sums(self, k, tau, H, coeffs, panels):
        # u, sigma and ds/dsigma are evaluated at every sample; s and v
        # move from the sums over every panel by rounding only
        g = GeometryParams(k, tau)
        shape = _require_admissible(g, abs(H), np.array(coeffs))
        p = sphere_from_modes(g, H, coeffs)
        s, u, v, sigma, ds_dsigma = mode_sphere_samples(
            k, tau, H, shape.p, shape.n, len(p), mirror=False
        )
        for column, oracle in ((p.u, u), (p.sigma, sigma), (p.ds_dsigma, ds_dsigma)):
            assert np.array_equal(column, oracle)
        for column, oracle in ((p.s, s), (p.v, v)):
            assert np.max(np.abs(column - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @given(case=cases, c=coefficients)
    def test_increments_are_mirror_symmetric(self, case, c):
        # the panel sums mirror exactly, so mirrored increments differ by
        # the rounding of two additions of the running sum: half an ulp of
        # a value below the equator's, half an ulp of max|.| above it
        k, tau, H = case
        g = GeometryParams(k, tau)
        assume(_admissible(g, H, np.array(c)))
        p = sphere_from_modes(g, H, c, n_samples=257)
        for column in (p.s, p.v):
            increments = np.diff(column)
            assert np.max(np.abs(increments - increments[::-1])) <= 0.75 * np.spacing(np.max(column))

    def test_grid_is_read_only(self):
        grid = _turning_angle_grid(257)
        assert len(grid) == 8
        for a in grid:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0.0

    def test_each_sample_count_has_its_own_grid(self):
        small, large = _turning_angle_grid(9), _turning_angle_grid(17)
        assert _turning_angle_grid(9) is small
        # sigma, sin, cos and t at the samples; sin, cos, t and weights at
        # the nodes of the panels left of the equator
        assert [a.shape for a in small] == [(9,)] * 4 + [(4, 8)] * 4
        assert [a.shape for a in large] == [(17,)] * 4 + [(8, 8)] * 4
        assert small[0][-1] == large[0][-1] == math.pi


@pytest.mark.parametrize("k, tau, H, coeffs, panels", ORACLE_SHAPES)
def test_family_energy_matches_mpmath_oracle(k, tau, H, coeffs, panels):
    g = GeometryParams(k, tau)
    assert _family_panels(g, H, _require_admissible(g, H, np.array(coeffs))) == panels
    value = mode_family_energy(g, H, coeffs)
    assert value == pytest.approx(float(_oracle_energy(k, tau, H, coeffs)), rel=1e-12)


PLAIN_WILLMORE = FunctionalCoefficients(alpha=1.0, beta=0.0)


@contextmanager
def _patched(name, replacement):
    # experiments.<name> replaced, with the family energy's one-point memo
    # (experiments._family_value) cleared on entry and on exit: no evaluation
    # under the patch reads an entry made outside it, and none outside reads its entries
    with patch.object(experiments, name, replacement):
        experiments._family_value.cache_clear()
        try:
            yield
        finally:
            experiments._family_value.cache_clear()


class TestFamilyRuleOracle:
    # The package sums the rule of _turning_angle_grid at panels + 1 samples
    # with undoubled weights and scales by 4 pi; the oracle rule doubles its
    # weights, so the package's energy on it is twice the 2 pi sum, exactly.
    @pytest.mark.parametrize("functional_coeffs", [None, PLAIN_WILLMORE], ids=["canonical", "plain"])
    @pytest.mark.parametrize("panels", [64, 1024])
    @pytest.mark.parametrize("k, tau, H, coeffs", [shape[:4] for shape in ORACLE_SHAPES])
    def test_energy_and_derivatives_equal_the_oracle_rule(
        self, k, tau, H, coeffs, panels, functional_coeffs
    ):
        g = GeometryParams(k, tau)
        with _patched("_family_panels", lambda *_: panels):
            value, gradient, hessian = _family_energy(
                g, H, coeffs, functional_coeffs, derivatives=True
            )
            with _patched("_family_half_rule", family_half_rule):
                doubled = _family_energy(g, H, coeffs, functional_coeffs, derivatives=True)
        assert value == 0.5 * doubled[0]
        assert np.array_equal(gradient, 0.5 * doubled[1])
        assert np.array_equal(hessian, 0.5 * doubled[2])

    @pytest.mark.parametrize("panels", [64, 1024])
    @pytest.mark.parametrize("dims", [1, 3])
    def test_rule_is_the_first_half_of_the_full_grid(self, panels, dims):
        rule = profile._family_half_rule(panels, dims)
        oracle = family_half_rule(panels, dims)
        assert np.array_equal(2.0 * rule[0], oracle[0])
        for package, expected in zip(rule[1:], oracle[1:], strict=True):
            assert np.array_equal(package, expected)
            assert not package.flags.writeable


def _assert_one_energy(g, H, c, functional_coeffs):
    # the energy that comes with the derivatives is the objective itself
    value = mode_family_energy(g, H, c, functional_coeffs)
    experiments._family_value.cache_clear()  # the derivative call evaluates afresh
    if math.isinf(value):
        with pytest.raises(InadmissiblePerturbation):
            _family_energy(g, H, c, functional_coeffs, derivatives=True)
    else:
        assert _family_energy(g, H, c, functional_coeffs, derivatives=True)[0] == value


class TestOneEvaluation:
    @pytest.mark.parametrize("functional_coeffs", [None, PLAIN_WILLMORE], ids=["canonical", "plain"])
    @pytest.mark.parametrize("k, tau, H, coeffs, panels", ORACLE_SHAPES)
    def test_oracle_shapes(self, k, tau, H, coeffs, panels, functional_coeffs):
        _assert_one_energy(GeometryParams(k, tau), H, coeffs, functional_coeffs)

    @given(case=cases, c=coefficients, plain=st.booleans())
    def test_sampled_shapes(self, case, c, plain):
        k, tau, H = case
        _assert_one_energy(GeometryParams(k, tau), H, list(c), PLAIN_WILLMORE if plain else None)

    @pytest.mark.parametrize("k, tau, H, coeffs, panels", ORACLE_SHAPES)
    def test_plain_willmore_energy_matches_mpmath_oracle(self, k, tau, H, coeffs, panels):
        value = mode_family_energy(GeometryParams(k, tau), H, coeffs, PLAIN_WILLMORE)
        expected = float(_oracle_energy(k, tau, H, coeffs, alpha=1.0, beta=0.0))
        assert value == pytest.approx(expected, rel=1e-12)


def _bits(result) -> list[bytes]:
    return [np.asarray(x).tobytes() for x in result]


class TestValueMemo:
    """The family energy's value stage keeps its last point for the derivatives that follow."""

    @pytest.mark.parametrize("k, tau, H, dims, start", [
        (0.0, 0.5, 1.0, 3, None),
        (-1.0, -0.5, 0.8, 1, PerturbationSpec(-0.15, 1)),
        (1.0, 0.3, 0.6, 2, PerturbationSpec(0.1, 2)),
    ])
    def test_descent_evaluates_each_point_once(self, k, tau, H, dims, start):
        # every point the descent evaluates (start, trials, c = 0) picks its panels,
        # and so runs the value stage, once; an accepted trial's derivatives reuse it
        g = GeometryParams(k, tau)
        points, panel_calls = [], []
        family_energy, family_panels = experiments._family_energy, experiments._family_panels

        def recording(g, H, c, *args, **kwargs):
            points.append(np.asarray(c, dtype=float).tobytes())
            return family_energy(g, H, c, *args, **kwargs)

        def counting(*args):
            panel_calls.append(args)
            return family_panels(*args)

        experiments._family_value.cache_clear()
        with patch.object(experiments, "_family_energy", recording), patch.object(
            experiments, "_family_panels", counting
        ):
            report = descend_energy(g, H, dims, start=start)
        assert report.converged
        distinct = list(dict.fromkeys(points))
        admissible = [c for c in distinct if _admissible(g, H, np.frombuffer(c))]
        assert np.zeros(dims).tobytes() in distinct
        # each accepted step is asked for twice: its trial's E, then its derivatives
        assert len(points) == len(distinct) + report.iterations
        assert len(panel_calls) == len(admissible)

    @pytest.mark.parametrize("functional_coeffs", [None, PLAIN_WILLMORE], ids=["canonical", "plain"])
    @pytest.mark.parametrize("k, tau, H, coeffs, panels", ORACLE_SHAPES)
    def test_derivatives_after_a_value_call_equal_a_fresh_evaluation(
        self, k, tau, H, coeffs, panels, functional_coeffs
    ):
        g = GeometryParams(k, tau)
        experiments._family_value.cache_clear()
        fresh = _family_energy(g, H, coeffs, functional_coeffs, derivatives=True)
        experiments._family_value.cache_clear()
        value = mode_family_energy(g, H, coeffs, functional_coeffs)
        reused = _family_energy(g, H, coeffs, functional_coeffs, derivatives=True)
        assert experiments._family_value.cache_info()[:2] == (1, 1)  # (hits, misses)
        assert _bits([value]) == _bits(reused[:1])
        assert _bits(reused) == _bits(fresh)

    @pytest.mark.parametrize("first, second", [
        ((0.0, 0.5, 1.0, [0.05], None), (-0.0, 0.5, 1.0, [0.05], None)),
        ((0.0, 0.0, 1.0, [0.05], None), (0.0, -0.0, 1.0, [0.05], None)),
        ((0.0, 0.5, 1.0, [0.0], None), (0.0, 0.5, 1.0, [-0.0], None)),
        ((0.0, 0.5, 1.0, [0.05, -0.0], None), (0.0, 0.5, 1.0, [0.05, 0.0], None)),
        ((0.0, 0.5, 1.0, [0.05], (1.0, 0.0)), (0.0, 0.5, 1.0, [0.05], (1.0, -0.0))),
        ((0.0, 0.5, 1.0, [0.05], (0.0, 1.0)), (0.0, 0.5, 1.0, [0.05], (-0.0, 1.0))),
    ], ids=["k", "tau", "coefficient", "second coefficient", "beta", "alpha"])
    def test_signed_zeros_never_share_an_entry(self, first, second):
        experiments._family_value.cache_clear()
        for k, tau, H, c, pair in (first, second):
            functional_coeffs = None if pair is None else FunctionalCoefficients(*pair)
            _family_energy(GeometryParams(k, tau), H, c, functional_coeffs, derivatives=True)
        assert experiments._family_value.cache_info()[:2] == (0, 2)  # (hits, misses)


class TestFamilyDerivatives:
    @pytest.mark.parametrize("k, tau, H, coeffs, panels", ORACLE_SHAPES)
    def test_gradient_matches_oracle_difference(self, k, tau, H, coeffs, panels):
        # The Gauss sum of the differentiated density is off the oracle by
        # about 2e-15 of max|dE/dc|, 7e-11 next to the apex edge.
        _, gradient, _ = _family_energy(GeometryParams(k, tau), H, coeffs, derivatives=True)
        expected = _oracle_gradient(k, tau, H, coeffs)
        assert np.max(np.abs(gradient - expected)) <= 1e-9 * np.max(np.abs(expected))

    @pytest.mark.parametrize("k, tau, H, coeffs, panels", ORACLE_SHAPES)
    def test_plain_willmore_gradient_matches_oracle_difference(self, k, tau, H, coeffs, panels):
        # the partials hold for any (alpha, beta), not only the canonical pair
        g = GeometryParams(k, tau)
        _, gradient, _ = _family_energy(g, H, coeffs, PLAIN_WILLMORE, derivatives=True)
        expected = _oracle_gradient(k, tau, H, coeffs, alpha=1.0, beta=0.0)
        assert np.max(np.abs(gradient - expected)) <= 1e-9 * np.max(np.abs(expected))

    @pytest.mark.parametrize("k, tau, H, coeffs, panels", ORACLE_SHAPES)
    def test_hessian_is_the_derivative_of_the_gradient(self, k, tau, H, coeffs, panels):
        g = GeometryParams(k, tau)
        c = np.array(coeffs)
        _, _, hessian = _family_energy(g, H, c, derivatives=True)
        scale = np.max(np.abs(hessian))
        assert np.max(np.abs(hessian - hessian.T)) <= 1e-13 * scale

        def central(step):
            return np.array([
                _family_energy(g, H, c + step * e, derivatives=True)[1]
                - _family_energy(g, H, c - step * e, derivatives=True)[1]
                for e in np.eye(c.size)
            ]) / (2.0 * step)

        # Richardson-extrapolated central difference of the exact gradient:
        # within 2e-8 of the largest Hessian entry on these shapes, 1.7e-6
        # next to the apex edge, where the gradient carries 1e-10 of rounding
        step = 3e-5
        difference = (4.0 * central(0.5 * step) - central(step)) / 3.0
        assert np.max(np.abs(difference - hessian)) <= 1e-5 * scale

    @pytest.mark.parametrize("k, tau, H", GEOMETRIES)
    def test_cmc_sphere_is_a_strict_minimum_in_the_family(self, k, tau, H):
        # the second variation inside the family, three modes
        _, gradient, hessian = _family_energy(
            GeometryParams(k, tau), H, np.zeros(3), derivatives=True
        )
        assert np.max(np.abs(gradient)) < 1e-9
        assert np.all(np.linalg.eigvalsh(hessian) > 0.0)


# Start amplitude caps per (mode, sign) of the descent benchmark
# (perfbench/workloads.py): below the single-mode amplitude at which min N
# falls to the 0.03 pull-in margin, and never above the default start 0.2.
AMPLITUDE_CAP = {(1, 1): 0.19, (1, -1): 0.2, (2, 1): 0.2, (2, -1): 0.05}
descent_starts = st.integers(1, 3).flatmap(
    lambda dims: st.tuples(
        st.just(dims), st.integers(1, min(dims, 2)), st.sampled_from((1, -1)), st.floats(0.0, 1.0)
    )
)


class TestNewtonDescent:
    @pytest.mark.parametrize("k, tau, H", [(0.0, 0.5, 1.0), (-1.0, -0.5, 0.6), (1.0, 0.3, 0.8)])
    def test_default_start_converges_in_few_steps(self, k, tau, H):
        report = descend_energy(GeometryParams(k, tau), H, 3)
        assert report.converged
        assert report.stop_reason == "converged"
        assert report.iterations <= 15
        eigenvalues = report.hessian_eigenvalues
        assert len(eigenvalues) == 3
        assert 0.0 < eigenvalues[0] <= eigenvalues[1] <= eigenvalues[2]

    @given(case=cases, start=descent_starts)
    def test_converges_from_every_capped_start(self, case, start):
        k, tau, H = case
        dims, mode, sign, fraction = start
        epsilon = sign * fraction * AMPLITUDE_CAP[(mode, sign)]
        report = descend_energy(
            GeometryParams(k, tau), H, dims, start=PerturbationSpec(epsilon, mode)
        )
        assert report.converged, report.stop_reason

    def test_start_outside_the_domain_is_pulled_in(self):
        # apex (1 + 0.2)/0.6 = 2 is the domain radius: the start's energy is
        # infinite, so it must be pulled in on the exact admissibility verdict
        g = GeometryParams(-1.0, 0.0)
        assert not _admissible(g, 0.6, np.array([-0.2]))
        report = descend_energy(g, 0.6, 1, start=PerturbationSpec(-0.2, 1))
        assert report.start_adjusted
        assert report.converged

    def test_start_that_cannot_be_pulled_in_raises(self):
        # P = 1 + eps cos(2 sigma) stays negative at the equator for 40 steps of 0.97
        with pytest.raises(InadmissiblePerturbation, match="pulled into the family"):
            descend_energy(GeometryParams(0.0, 0.5), 1.0, 1, start=PerturbationSpec(100.0, 1))

    def test_iteration_budget_is_reported(self):
        report = descend_energy(GeometryParams(0.0, 0.5), 1.0, 3, max_iterations=2)
        assert not report.converged
        assert report.iterations == 2
        assert report.stop_reason == "iteration budget used up"


# Broad geometries: k in [-3, 3], |tau| <= 2, H down to 0.003 above the
# existence bound, where the density's singularities come near [0, pi].
broad_cases = st.tuples(
    st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    st.floats(-2.5, 0.5),
)


@given(case=broad_cases, c=coefficients)
def test_coarse_panels_match_fine_panels(case, c):
    # wherever the panel rule picks the coarse rule, it agrees with the fine one
    k, tau, log_excess = case
    g = GeometryParams(k, tau)
    H = math.sqrt(max(-0.25 * k, 0.0)) + 10.0**log_excess
    c = np.array(c)
    try:
        shape = _require_admissible(g, H, c)
    except InadmissiblePerturbation:
        assume(False)
    assume(_family_panels(g, H, shape) == profile._FAMILY_PANELS)
    coarse = mode_family_energy(g, H, c)
    with _patched("_family_panels", lambda *_: profile._FAMILY_FINE_PANELS):
        fine = mode_family_energy(g, H, c)
    assert coarse == pytest.approx(fine, rel=1e-12)


@given(case=broad_cases, c=coefficients)
def test_panel_rule_sees_every_near_singularity(case, c):
    # the rule skips root finding only where its bounds exclude a zero within
    # the margin: it picks the coarse rule iff every zero of P, N, A^2 and B
    # lies at least the margin off [0, pi]
    k, tau, log_excess = case
    g = GeometryParams(k, tau)
    H = math.sqrt(max(-0.25 * k, 0.0)) + 10.0**log_excess
    try:
        shape = _require_admissible(g, H, np.array(c))
    except InadmissiblePerturbation:
        assume(False)
    distances = [_zero_distance(shape.p), _zero_distance(shape.n)]
    u_sq = _one_minus_t(cheb.chebmul(shape.p, shape.p)) / (2.0 * H * H)
    for a in (tau * tau, 0.25 * k):
        f = a * u_sq
        f[0] += 1.0
        distances.append(_zero_distance(f))
    margin = profile._FAMILY_POLE_MARGIN * math.pi / profile._FAMILY_PANELS
    coarse = min(distances) >= margin
    assert _family_panels(g, H, shape) == (
        profile._FAMILY_PANELS if coarse else profile._FAMILY_FINE_PANELS
    )
