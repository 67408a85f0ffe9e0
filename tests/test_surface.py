"""Surface catalogue, line elements, charts, and the exponential map."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lorentzcc import (
    Chart,
    CurvatureSign,
    DomainError,
    MetricField,
    OnLimitingCurve,
    ProfileZero,
    Signature,
    SingularPoint,
    SurfaceSpec,
    exp_map_pushforward,
    exp_map_to_cartesian,
    gauss_curvature_of_profile,
    line_element_cartesian,
    line_element_isometric,
    rho_from_u,
)

ALL_NAMES = ("def-pos", "def-neg", "lorentz-pos", "lorentz-neg")


class TestSurfaceSpec:
    def test_catalogue(self):
        spec = SurfaceSpec.definite_positive(radius=2.0)
        assert spec.signature is Signature.DEFINITE
        assert spec.curvature_sign is CurvatureSign.POSITIVE
        assert spec.gauss_curvature == pytest.approx(0.25)
        assert spec.metric_sign == 1.0

        spec = SurfaceSpec.lorentzian_negative()
        assert spec.name == "lorentz-neg"
        assert spec.gauss_curvature == pytest.approx(-1.0)
        assert spec.metric_sign == -1.0

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_curvature_sign(self, name):
        spec = SurfaceSpec.from_name(name, 2.5)
        assert spec.kappa == (1.0 if name.endswith("pos") else -1.0)
        assert spec.gauss_curvature == spec.kappa / 6.25

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_from_name_round_trip(self, name):
        spec = SurfaceSpec.from_name(name, radius=1.5)
        assert spec.name == name
        assert spec.radius == 1.5
        assert spec.normalized().radius == 1.0
        assert spec.normalized().name == name

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="radius must be positive"):
            SurfaceSpec.definite_positive(radius=0.0)
        for radius in (math.inf, math.nan):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                SurfaceSpec.definite_negative(radius=radius)
        with pytest.raises(ValueError):
            SurfaceSpec.from_name("banana")


class TestProfileCurvature:
    """K = -r''/r recovered from a rotation/boost profile by finite differences."""

    @pytest.mark.parametrize("r0", [0.5, 1.0, 3.0])
    def test_sine_profile(self, r0):
        profile = lambda u: r0 * math.sin(u / r0)
        for u in np.linspace(0.4 * r0, 2.6 * r0, 7):
            k = gauss_curvature_of_profile(profile, float(u), step=1e-4 * max(1.0, r0))
            assert k == pytest.approx(1.0 / r0**2, rel=1e-6)

    @pytest.mark.parametrize("r0", [0.5, 1.0, 3.0])
    def test_hyperbolic_profile(self, r0):
        profile = lambda u: r0 * math.sinh(u / r0)
        for u in np.linspace(0.4 * r0, 2.5 * r0, 7):
            k = gauss_curvature_of_profile(profile, float(u), step=1e-4 * max(1.0, r0))
            assert k == pytest.approx(-1.0 / r0**2, rel=1e-6)

    def test_flat_profile(self):
        k = gauss_curvature_of_profile(lambda u: u, 1.3)
        assert k == pytest.approx(0.0, abs=1e-6)

    def test_zero_profile_rejected(self):
        with pytest.raises(ProfileZero, match="vanishes"):
            gauss_curvature_of_profile(math.sin, math.pi)


class TestRhoFromU:
    def test_positive_curvature_values(self):
        spec = SurfaceSpec.definite_positive()
        assert rho_from_u(spec, 1.0) == pytest.approx(math.log(1.0 / math.tan(0.5)))
        assert rho_from_u(spec, 1.0) == pytest.approx(0.6045824459415916)
        assert rho_from_u(spec, math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_negative_curvature_values(self):
        spec = SurfaceSpec.definite_negative()
        assert rho_from_u(spec, 1.0) == pytest.approx(math.log(math.tanh(0.5)))
        assert rho_from_u(spec, 1.0) == pytest.approx(-0.7719368329053047)
        # monotone decreasing toward the axis, to 0 at infinity
        assert rho_from_u(spec, 5.0) > rho_from_u(spec, 1.0)
        assert rho_from_u(spec, 5.0) < 0.0

    def test_radius_scaling(self):
        spec = SurfaceSpec.lorentzian_negative(radius=2.0)
        assert rho_from_u(spec, 2.0) == pytest.approx(math.log(math.tanh(0.5)))

    @pytest.mark.parametrize("u", [0.0, -0.5, math.pi, 4.0])
    def test_positive_domain(self, u):
        with pytest.raises(DomainError, match="pi R"):
            rho_from_u(SurfaceSpec.definite_positive(), u)

    def test_negative_domain(self):
        with pytest.raises(DomainError, match="u > 0"):
            rho_from_u(SurfaceSpec.definite_negative(), 0.0)


class TestLineElements:
    def test_isometric_negative_definite(self):
        spec = SurfaceSpec.definite_negative()
        ds2 = line_element_isometric(spec, 1.0, 0.2, 0.0)
        assert ds2 == pytest.approx(0.04 / math.sinh(1.0) ** 2)
        assert ds2 == pytest.approx(0.0289624664386524, rel=1e-12)

    def test_isometric_positive_lorentz(self):
        spec = SurfaceSpec.lorentzian_positive()
        ds2 = line_element_isometric(spec, 1.0, 0.2, 0.1)
        assert ds2 == pytest.approx(0.03 / math.cosh(1.0) ** 2)
        assert ds2 == pytest.approx(0.0125992302484208, rel=1e-12)

    def test_isometric_timelike_sign(self):
        spec = SurfaceSpec.lorentzian_positive()
        assert line_element_isometric(spec, 0.4, 0.0, 0.3) < 0.0

    def test_cartesian_positive_definite(self):
        spec = SurfaceSpec.definite_positive()
        ds2 = line_element_cartesian(spec, 0.5, 0.5, 0.3, 0.1)
        assert ds2 == pytest.approx(16.0 / 9.0 * 0.1)

    def test_cartesian_positive_lorentz(self):
        spec = SurfaceSpec.lorentzian_positive()
        ds2 = line_element_cartesian(spec, 1.5, 0.5, 0.3, 0.1)
        assert ds2 == pytest.approx(4.0 / 9.0 * 0.08)
        assert ds2 == pytest.approx(0.0355555555555556, rel=1e-12)

    @pytest.mark.parametrize("name", ["lorentz-pos", "lorentz-neg"])
    @pytest.mark.parametrize("x, y", [(155.0, 154.9987), (155.3, -155.2991)])
    def test_cartesian_factor_far_out_near_a_null_line(self, name, x, y):
        """x^2 - y^2 must not be formed by cancellation: far out next to
        |x| = |y| that loses about four digits."""
        spec = SurfaceSpec.from_name(name)
        fx, fy = Fraction(x), Fraction(y)
        base = fx * fx - fy * fy + (1 if name == "lorentz-pos" else -1)
        exact = 4 / (base * base)
        got = MetricField(spec, Chart.CARTESIAN).factor(x, y)
        assert abs(Fraction(got) - exact) / exact < 1e-14

    def test_singular_points_flagged(self):
        with pytest.raises(SingularPoint):
            line_element_isometric(SurfaceSpec.definite_negative(), 0.0, 0.1, 0.0)
        with pytest.raises(OnLimitingCurve):
            line_element_cartesian(SurfaceSpec.definite_negative(), 1.0, 0.0, 0.1, 0.0)
        with pytest.raises(OnLimitingCurve):
            line_element_cartesian(SurfaceSpec.lorentzian_positive(), 0.0, 1.0, 0.1, 0.0)


class TestMetricField:
    def test_tensor_is_conformal_diagonal(self):
        spec = SurfaceSpec.lorentzian_negative()
        field = MetricField(spec, Chart.CARTESIAN)
        g = field.tensor(1.5, 0.2)
        lam = field.factor(1.5, 0.2)
        assert g[0, 0] == pytest.approx(lam)
        assert g[1, 1] == pytest.approx(-lam)
        assert g[0, 1] == g[1, 0] == 0.0

    def test_boundary_distances(self):
        inf = math.inf
        assert MetricField(SurfaceSpec.definite_positive(), Chart.CARTESIAN).boundary_distance(9.0, 9.0) == inf
        f = MetricField(SurfaceSpec.definite_negative(), Chart.CARTESIAN)
        assert f.boundary_distance(0.5, 0.0) == pytest.approx(0.5)
        assert f.boundary_distance(3.0, 4.0) == pytest.approx(4.0)
        f = MetricField(SurfaceSpec.definite_negative(), Chart.ISOMETRIC)
        assert f.boundary_distance(-0.7, 2.0) == pytest.approx(0.7)
        f = MetricField(SurfaceSpec.lorentzian_negative(), Chart.CARTESIAN)
        # |x^2 - y^2 - 1| / (2 hypot): a safe but pessimistic estimate
        assert f.boundary_distance(2.0, 0.0) == pytest.approx(3.0 / 4.0)

    def test_factor_radius_scaling(self):
        spec = SurfaceSpec.definite_positive(radius=2.0)
        field = MetricField(spec, Chart.CARTESIAN)
        assert field.factor(0.0, 0.0) == pytest.approx(4.0)


class TestExponentialMap:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_push_forward_matches_finite_differences(self, name):
        spec = SurfaceSpec.from_name(name, radius=1.3)
        rng = np.random.default_rng(21)
        h = 1e-6
        for _ in range(25):
            rho = rng.uniform(0.2, 1.5)
            phi = rng.uniform(-1.0, 1.0)
            drho = rng.uniform(-1.0, 1.0)
            dphi = rng.uniform(-1.0, 1.0)
            dx, dy = exp_map_pushforward(spec, rho, phi, drho, dphi)
            xp = exp_map_to_cartesian(spec, rho + h * drho, phi + h * dphi)
            xm = exp_map_to_cartesian(spec, rho - h * drho, phi - h * dphi)
            assert dx == pytest.approx((xp[0] - xm[0]) / (2 * h), rel=1e-6, abs=1e-6)
            assert dy == pytest.approx((xp[1] - xm[1]) / (2 * h), rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_signed_map_keeps_each_surface_bits(self, name):
        spec = SurfaceSpec.from_name(name, 1.3)
        rng = np.random.default_rng(22)
        for rho, phi, drho, dphi in rng.uniform(-1.5, 1.5, size=(50, 4)).tolist():
            r = 1.3 * math.exp(rho)
            if name.startswith("lorentz"):
                x, y = r * math.cosh(phi), r * math.sinh(phi)
                push = (x * drho + y * dphi, y * drho + x * dphi)
            else:
                x, y = r * math.cos(phi), r * math.sin(phi)
                push = (x * drho - y * dphi, y * drho + x * dphi)
            assert exp_map_to_cartesian(spec, rho, phi) == (x, y)
            assert exp_map_pushforward(spec, rho, phi, drho, dphi) == push

    def test_lorentz_map_is_exponential_polar(self):
        spec = SurfaceSpec.lorentzian_positive(radius=2.0)
        x, y = exp_map_to_cartesian(spec, 0.3, 0.7)
        assert x == pytest.approx(2.0 * math.exp(0.3) * math.cosh(0.7))
        assert y == pytest.approx(2.0 * math.exp(0.3) * math.sinh(0.7))

    def test_definite_map_is_exponential_polar(self):
        spec = SurfaceSpec.definite_negative()
        x, y = exp_map_to_cartesian(spec, -0.4, 2.0)
        assert x == pytest.approx(math.exp(-0.4) * math.cos(2.0))
        assert y == pytest.approx(math.exp(-0.4) * math.sin(2.0))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_line_element_agrees_between_charts(self, name):
        """Pull the cartesian metric back through the map: same ds^2."""
        spec = SurfaceSpec.from_name(name)
        rng = np.random.default_rng(22)
        for _ in range(25):
            rho = rng.uniform(0.2, 1.2)
            phi = rng.uniform(-0.9, 0.9)
            drho = rng.uniform(-1.0, 1.0)
            dphi = rng.uniform(-1.0, 1.0)
            iso = line_element_isometric(spec, rho, drho, dphi)
            x, y = exp_map_to_cartesian(spec, rho, phi)
            dx, dy = exp_map_pushforward(spec, rho, phi, drho, dphi)
            cart = line_element_cartesian(spec, x, y, dx, dy)
            assert cart == pytest.approx(iso, rel=1e-10, abs=1e-12)
