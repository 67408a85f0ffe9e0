"""Surface catalogue, line elements, charts, and the exponential map."""

import argparse
import math
from fractions import Fraction

import numpy as np
import pytest

from lorentzcc import cli, verify
from lorentzcc import (
    SURFACE_NAMES,
    Chart,
    CurvatureSign,
    DomainError,
    MetricField,
    OnLimitingCurve,
    Signature,
    SingularPoint,
    SurfaceSpec,
    exp_map_pushforward,
    exp_map_to_cartesian,
    line_element_cartesian,
    line_element_isometric,
)


class TestSurfaceSpec:
    def test_catalogue(self):
        spec = SurfaceSpec.from_name("def-pos", radius=2.0)
        assert spec.signature is Signature.DEFINITE
        assert spec.curvature_sign is CurvatureSign.POSITIVE
        assert spec.gauss_curvature == pytest.approx(0.25)
        assert spec.metric_sign == 1.0

        spec = SurfaceSpec.from_name("lorentz-neg")
        assert spec.name == "lorentz-neg"
        assert spec.gauss_curvature == pytest.approx(-1.0)
        assert spec.metric_sign == -1.0

    def test_one_catalogue_for_the_cli_and_the_battery(self):
        assert SURFACE_NAMES == ("def-pos", "def-neg", "lorentz-pos", "lorentz-neg")
        assert tuple(spec.name for spec in verify._SURFACES) == SURFACE_NAMES
        commands = next(
            a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ).choices
        for command in ("geodesic", "distance"):
            (surface,) = [a for a in commands[command]._actions if a.dest == "surface"]
            assert tuple(surface.choices) == SURFACE_NAMES

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_curvature_sign(self, name):
        spec = SurfaceSpec.from_name(name, 2.5)
        assert spec.kappa == (1.0 if name.endswith("pos") else -1.0)
        assert spec.gauss_curvature == spec.kappa / 6.25

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_from_name_round_trip(self, name):
        spec = SurfaceSpec.from_name(name, radius=1.5)
        assert spec.name == name
        assert spec.radius == 1.5

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="radius must be positive"):
            SurfaceSpec.from_name("def-pos", radius=0.0)
        for radius in (math.inf, math.nan):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                SurfaceSpec.from_name("def-neg", radius=radius)
        with pytest.raises(ValueError):
            SurfaceSpec.from_name("banana")


class TestLineElements:
    def test_isometric_negative_definite(self):
        spec = SurfaceSpec.from_name("def-neg")
        ds2 = line_element_isometric(spec, 1.0, 0.2, 0.0)
        assert ds2 == pytest.approx(0.04 / math.sinh(1.0) ** 2)
        assert ds2 == pytest.approx(0.0289624664386524, rel=1e-12)

    def test_isometric_positive_lorentz(self):
        spec = SurfaceSpec.from_name("lorentz-pos")
        ds2 = line_element_isometric(spec, 1.0, 0.2, 0.1)
        assert ds2 == pytest.approx(0.03 / math.cosh(1.0) ** 2)
        assert ds2 == pytest.approx(0.0125992302484208, rel=1e-12)

    def test_isometric_timelike_sign(self):
        spec = SurfaceSpec.from_name("lorentz-pos")
        assert line_element_isometric(spec, 0.4, 0.0, 0.3) < 0.0

    def test_cartesian_positive_definite(self):
        spec = SurfaceSpec.from_name("def-pos")
        ds2 = line_element_cartesian(spec, 0.5, 0.5, 0.3, 0.1)
        assert ds2 == pytest.approx(16.0 / 9.0 * 0.1)

    def test_cartesian_positive_lorentz(self):
        spec = SurfaceSpec.from_name("lorentz-pos")
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

    @pytest.mark.parametrize("name", ["def-pos", "lorentz-neg"])
    @pytest.mark.parametrize("rho", [711.0, -711.0, 1e4])
    def test_isometric_factor_where_cosh_sinh_overflow(self, name, rho):
        # the factor (2R e^-|rho|)^2 underflows; it was an OverflowError
        spec = SurfaceSpec.from_name(name, 2.5)
        assert MetricField(spec, Chart.ISOMETRIC).factor(rho, 0.0) == 0.0
        assert line_element_isometric(spec, rho, 1.0, 0.5) == 0.0

    @pytest.mark.parametrize("name", ["def-pos", "lorentz-neg"])
    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_isometric_factor_needs_finite_rho(self, name, rho):
        with pytest.raises(DomainError, match="finite rho"):
            line_element_isometric(SurfaceSpec.from_name(name), rho, 1.0, 0.5)

    def test_singular_points_flagged(self):
        with pytest.raises(SingularPoint):
            line_element_isometric(SurfaceSpec.from_name("def-neg"), 0.0, 0.1, 0.0)
        with pytest.raises(OnLimitingCurve):
            line_element_cartesian(SurfaceSpec.from_name("def-neg"), 1.0, 0.0, 0.1, 0.0)
        with pytest.raises(OnLimitingCurve):
            line_element_cartesian(SurfaceSpec.from_name("lorentz-pos"), 0.0, 1.0, 0.1, 0.0)


class TestMetricField:
    def test_tensor_is_conformal_diagonal(self):
        spec = SurfaceSpec.from_name("lorentz-neg")
        field = MetricField(spec, Chart.CARTESIAN)
        g = field.tensor(1.5, 0.2)
        lam = field.factor(1.5, 0.2)
        assert g[0][0] == pytest.approx(lam)
        assert g[1][1] == pytest.approx(-lam)
        assert g[0][1] == g[1][0] == 0.0

    def test_boundary_distances(self):
        inf = math.inf
        assert MetricField(SurfaceSpec.from_name("def-pos"), Chart.CARTESIAN).boundary_distance(9.0, 9.0) == inf
        f = MetricField(SurfaceSpec.from_name("def-neg"), Chart.CARTESIAN)
        assert f.boundary_distance(0.5, 0.0) == pytest.approx(0.5)
        assert f.boundary_distance(3.0, 4.0) == pytest.approx(4.0)
        f = MetricField(SurfaceSpec.from_name("def-neg"), Chart.ISOMETRIC)
        assert f.boundary_distance(-0.7, 2.0) == pytest.approx(0.7)
        f = MetricField(SurfaceSpec.from_name("lorentz-neg"), Chart.CARTESIAN)
        # |x^2 - y^2 - 1| / (2 hypot): a safe but pessimistic estimate
        assert f.boundary_distance(2.0, 0.0) == pytest.approx(3.0 / 4.0)
        # the gradient of the base vanishes at the origin, far from the curve
        assert f.boundary_distance(0.0, 0.0) == inf

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.5])
    def test_factor_raises_where_the_chart_ends(self, radius):
        r = radius
        iso = MetricField(SurfaceSpec.from_name("lorentz-neg", r), Chart.ISOMETRIC)
        for rho in (0.0, -0.0, 5e-13):
            with pytest.raises(SingularPoint):
                iso.factor(rho, 0.3)
        for rho in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite rho"):
                iso.factor(rho, 0.3)
        cart = MetricField(SurfaceSpec.from_name("def-neg", r), Chart.CARTESIAN)
        with pytest.raises(OnLimitingCurve):
            cart.factor(0.6 * r, 0.8 * r)
        cart = MetricField(SurfaceSpec.from_name("lorentz-pos", r), Chart.CARTESIAN)
        with pytest.raises(OnLimitingCurve):
            cart.factor(0.75 * r, 1.25 * r)
        # the guard is 1e-12 R^2 on |x^2 + s y^2 + kappa R^2|
        assert cart.factor(0.0, r * (1.0 + 1e-11)) > 0.0
        # def-pos has no limiting curve, and its isometric chart no pole
        assert MetricField(SurfaceSpec.from_name("def-pos", r), Chart.ISOMETRIC).factor(0.0, 0.0) == r * r

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    @pytest.mark.parametrize(
        "x, y", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.5, -math.inf)]
    )
    def test_cartesian_factor_needs_a_finite_point(self, name, x, y):
        # once nan, or 0.0 at an infinite coordinate
        spec = SurfaceSpec.from_name(name)
        with pytest.raises(DomainError):
            MetricField(spec, Chart.CARTESIAN).factor(x, y)
        with pytest.raises(DomainError):
            line_element_cartesian(spec, x, y, 0.1, 0.0)

    def test_cartesian_base_overflow(self):
        # a finite point: (x - y)(x + y) is 0 * inf = nan on the null line
        # (once answered nan), a plain overflow keeps the factor 0.0
        cart = MetricField(SurfaceSpec.from_name("lorentz-pos"), Chart.CARTESIAN)
        with pytest.raises(DomainError):
            cart.factor(1e308, 1e308)
        assert cart.factor(1e308, 0.0) == 0.0
        cart = MetricField(SurfaceSpec.from_name("def-neg"), Chart.CARTESIAN)
        assert cart.factor(1e200, 1e200) == 0.0

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_equality_hash_and_repr_read_spec_and_chart_only(self, name):
        spec = SurfaceSpec.from_name(name, 2.5)
        field = MetricField(spec, Chart.CARTESIAN)
        assert field == MetricField(SurfaceSpec.from_name(name, 2.5), Chart.CARTESIAN)
        assert field != MetricField(spec, Chart.ISOMETRIC)
        assert hash(field) == hash((spec, Chart.CARTESIAN))
        assert repr(field) == f"MetricField(spec={spec!r}, chart={Chart.CARTESIAN!r})"
        assert hash(spec) == hash((spec.signature, spec.curvature_sign, 2.5))
        assert repr(spec) == (
            f"SurfaceSpec(signature={spec.signature!r}, "
            f"curvature_sign={spec.curvature_sign!r}, radius=2.5)"
        )

    def test_factor_radius_scaling(self):
        spec = SurfaceSpec.from_name("def-pos", radius=2.0)
        field = MetricField(spec, Chart.CARTESIAN)
        assert field.factor(0.0, 0.0) == pytest.approx(4.0)


class TestExponentialMap:
    @pytest.mark.parametrize("name", SURFACE_NAMES)
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

    @pytest.mark.parametrize("name", SURFACE_NAMES)
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

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_exp_map_needs_finite_rho(self, rho):
        # a NaN rho once came back as (nan, nan)
        with pytest.raises(DomainError, match="rho must be finite"):
            exp_map_to_cartesian(SurfaceSpec.from_name("def-pos"), rho, 0.1)

    @pytest.mark.parametrize(
        "name, rho, phi",
        [(name, 1000.0, 0.1) for name in SURFACE_NAMES] + [("lorentz-pos", 5.0, 706.0)],
    )
    def test_exp_map_overflow_is_a_domain_error(self, name, rho, phi):
        # exp(1000) once raised a bare OverflowError; e^5 cosh(706) is inf
        with pytest.raises(DomainError, match="overflows"):
            exp_map_to_cartesian(SurfaceSpec.from_name(name), rho, phi)

    @pytest.mark.parametrize(
        "drho, dphi", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (1.5e308, 0.0)]
    )
    def test_pushforward_needs_finite_tangent(self, drho, dphi):
        # a NaN drho once came back as (nan, nan), and a finite tangent whose
        # image overflows as (inf, ...)
        with pytest.raises(DomainError, match="must be finite"):
            exp_map_pushforward(SurfaceSpec.from_name("def-pos"), 0.3, 0.1, drho, dphi)

    def test_lorentz_map_is_exponential_polar(self):
        spec = SurfaceSpec.from_name("lorentz-pos", radius=2.0)
        x, y = exp_map_to_cartesian(spec, 0.3, 0.7)
        assert x == pytest.approx(2.0 * math.exp(0.3) * math.cosh(0.7))
        assert y == pytest.approx(2.0 * math.exp(0.3) * math.sinh(0.7))

    def test_definite_map_is_exponential_polar(self):
        spec = SurfaceSpec.from_name("def-neg")
        x, y = exp_map_to_cartesian(spec, -0.4, 2.0)
        assert x == pytest.approx(math.exp(-0.4) * math.cos(2.0))
        assert y == pytest.approx(math.exp(-0.4) * math.sin(2.0))

    @pytest.mark.parametrize("name", SURFACE_NAMES)
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
