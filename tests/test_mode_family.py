"""The mode family: exact admissibility, the tangent root, and the family energy.

Property tests run under the hypothesis profile registered in conftest.py
(derandomized, bounded example counts).  The 30-digit mpmath oracle
integrates the family's energy density with tanh-sinh quadrature,
independently of the Gauss panels of ``mode_family_energy``.
"""

import math
from unittest.mock import patch

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thurston_willmore import GeometryParams, energy, sphere_from_modes
from thurston_willmore import experiments
from thurston_willmore.experiments import (
    FOUR_PI,
    SECOND_SUMMAND_TOL,
    _family_panels,
    descend_energy,
    mode_family_energy,
)
from thurston_willmore.profile import (
    InadmissiblePerturbation,
    _mode_shape,
    _numerator_min,
    _one_minus_t,
    _require_admissible,
    _series_range,
    _shape_series,
    _zero_distance,
)

# (k, tau, H): Nil, H^2 x R near its domain edge, SL(2, R)-type, Berger
GEOMETRIES = [(0.0, 0.5, 1.0), (-1.0, 0.0, 0.6), (-1.0, -0.5, 0.8), (1.0, 0.3, 0.6)]

cases = st.sampled_from(GEOMETRIES)
# dims 1-3, mode m bounded by 0.3/m^2: both admissible and inadmissible shapes
coefficients = st.integers(1, 3).flatmap(
    lambda dims: st.tuples(
        *(st.floats(-0.3 / m**2, 0.3 / m**2) for m in range(1, dims + 1))
    )
)


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
        _, p, n, u = _mode_shape(H, c, np.linspace(0.0, math.pi, 65537))
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


def _oracle_energy(k: float, tau: float, H: float, coeffs: list[float]) -> float:
    """Canonical energy of the mode-family sphere by 30-digit tanh-sinh quadrature."""
    with mp.workdps(30):
        k, tau, H = mp.mpf(k), mp.mpf(tau), mp.mpf(H)
        c = [mp.mpf(x) for x in coeffs]
        alpha, beta = mp.mpf(1) / 4, k / 4 - tau**2 / 4

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
        return float(2 * mp.pi * mp.quad(density, [0, mp.pi / 2, mp.pi]))


@pytest.mark.parametrize(
    "k, tau, H, coeffs, panels",
    [
        (0.0, 0.5, 1.0, [0.05, -0.02], 64),
        (-1.0, -0.5, 0.8, [-0.1, 0.02, 0.01], 64),
        (1.0, 0.3, 0.6, [0.194], 64),  # min N = 1 - 5 (0.194) = 0.03, the pull-in margin
        (1.0, 0.3, 0.6, [0.198], 1024),  # min N = 0.01: N vanishes 1.9 panel widths off
        (-1.0, 0.0, 0.6, [-0.195], 1024),  # apex 0.996 of the domain radius
        # branch point of A = sqrt(1 + tau^2 u^2) about 1 panel width off
        (0.0, 1.0, 0.05, [0.05], 1024),
        # zero of B = 1 + k u^2/4 (k > 0) about 0.8 panel widths off
        (1.0, 0.0, 0.03, [0.05], 1024),
    ],
)
def test_family_energy_matches_mpmath_oracle(k, tau, H, coeffs, panels):
    g = GeometryParams(k, tau)
    assert _family_panels(g, H, _require_admissible(g, H, np.array(coeffs))) == panels
    value = mode_family_energy(g, H, coeffs)
    assert value == pytest.approx(_oracle_energy(k, tau, H, coeffs), rel=1e-12)


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
    assume(_family_panels(g, H, shape) == experiments._FAMILY_PANELS)
    coarse = mode_family_energy(g, H, c)
    with patch.object(experiments, "_family_panels", lambda *_: experiments._FAMILY_FINE_PANELS):
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
    margin = experiments._FAMILY_POLE_MARGIN * math.pi / experiments._FAMILY_PANELS
    coarse = min(distances) >= margin
    assert _family_panels(g, H, shape) == (
        experiments._FAMILY_PANELS if coarse else experiments._FAMILY_FINE_PANELS
    )
