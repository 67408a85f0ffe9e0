"""Geodesics in closed form: conics, parametrizations, windows, envelopes.

The strongest checks here are cross-route: a parametric point must sit on
the conic produced independently from the same two constants, the velocity
must match a finite difference of the position, and the speed must be one.
"""

import math

import numpy as np
import pytest

from lorentzcc import (
    SURFACE_NAMES,
    DegenerateEpsilon,
    DomainError,
    LineKind,
    NoRealIntersection,
    OutOfChart,
    PlaneLine,
    SurfaceSpec,
    Worldline,
    circle_parameters,
    constant_A,
    epsilon_from_constant,
    exp_map_to_cartesian,
    geodesic_from_AB,
    geodesic_family,
    geodesic_from_constants,
    geodesic_parametric,
    geodesic_parametric_with_velocity,
    hyperbola_parameters,
    limiting_curve,
    limiting_intersections,
    line_element_isometric,
    origin_line,
)
from lorentzcc.geodesic import GeodesicConic


def _safe_taus(spec, eps, sigma, n=15):
    """A batch of parameter values comfortably inside the chart window."""
    fam = geodesic_family(spec, eps, sigma)
    tau0 = fam.tau0
    lo, hi = (tau0 + spec.radius * u for u in fam.window)
    if math.isinf(lo) and math.isinf(hi):
        lo, hi = tau0 - 1.0, tau0 + 1.0
    elif math.isinf(hi):
        span = 1.0
        lo, hi = lo + 0.05 * span, lo + span
    else:
        span = hi - lo
        lo, hi = lo + 0.05 * span, hi - 0.05 * span
    return np.linspace(lo, hi, n)


class TestFamilyConstants:
    def test_constant_A_by_family(self):
        # tan on the rows where signature and curvature sign agree
        assert constant_A(SurfaceSpec.from_name("def-pos"), 0.5) == pytest.approx(math.sin(0.5))
        assert constant_A(SurfaceSpec.from_name("lorentz-neg"), 0.5) == pytest.approx(math.sin(0.5))
        assert constant_A(SurfaceSpec.from_name("def-neg"), 0.5) == pytest.approx(math.sinh(0.5))
        assert constant_A(SurfaceSpec.from_name("lorentz-pos"), 0.5) == pytest.approx(math.sinh(0.5))

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_epsilon_round_trip(self, name):
        spec = SurfaceSpec.from_name(name, radius=1.7)
        for eps in (-1.1, -0.3, 0.2, 0.9):
            a = constant_A(spec, eps)
            assert epsilon_from_constant(spec, a) == pytest.approx(eps, rel=1e-12)

    @pytest.mark.parametrize("A", [math.nan, math.inf])
    def test_non_finite_constant_rejected(self, A):
        # the asinh row once returned nan / inf
        with pytest.raises(DomainError, match="not finite"):
            epsilon_from_constant(SurfaceSpec.from_name("lorentz-pos"), A)

    def test_constant_out_of_range(self):
        with pytest.raises(DomainError, match=r"\|A\| < R"):
            epsilon_from_constant(SurfaceSpec.from_name("def-pos"), 1.0)

    @pytest.mark.parametrize("name", ["def-neg", "lorentz-pos"])
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_sinh_row_needs_finite_eps(self, name, eps):
        # the sinh rows once returned nan / inf
        with pytest.raises(DomainError, match="finite"):
            constant_A(SurfaceSpec.from_name(name), eps)

    def test_sinh_overflow_is_a_domain_error(self):
        for name in ("def-neg", "lorentz-pos"):
            spec = SurfaceSpec.from_name(name)
            with pytest.raises(DomainError, match="overflows"):
                constant_A(spec, 800.0)
            with pytest.raises(DomainError, match="overflows"):
                geodesic_parametric(spec, 800.0, 0.1, 0.0)

    def test_overflowing_momentum_or_turning_point_is_a_domain_error(self):
        # sinh(710) is finite but A = R sinh(eps) at R = 2 is not; both read inf
        spec = SurfaceSpec.from_name("lorentz-pos", radius=2.0)
        with pytest.raises(DomainError, match="A = R sinh"):
            constant_A(spec, 710.0)
        with pytest.raises(DomainError, match="A = R sinh"):
            geodesic_family(spec, 710.0, 0.1)
        # A is finite, tau0 = A sigma is not
        with pytest.raises(DomainError, match="tau0"):
            geodesic_family(SurfaceSpec.from_name("lorentz-pos"), 700.0, 1e10)

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_non_finite_family_input_rejected(self, name):
        spec = SurfaceSpec.from_name(name)
        for eps, sigma, tau in (
            (math.nan, 0.1, 0.0),
            (0.5, math.nan, 0.0),
            (0.5, math.inf, 0.0),
            (-math.inf, 0.1, 0.0),
            (0.5, 0.1, math.nan),
            (0.5, 0.1, -math.inf),
        ):
            with pytest.raises(DomainError, match="must be finite"):
                geodesic_parametric_with_velocity(spec, eps, sigma, tau)
            if math.isfinite(tau):
                with pytest.raises(DomainError, match="must be finite"):
                    geodesic_from_constants(spec, eps, sigma)
                with pytest.raises(DomainError, match="must be finite"):
                    geodesic_family(spec, eps, sigma)

    @pytest.mark.parametrize("name", ["lorentz-pos", "lorentz-neg"])
    def test_cosh_overflow_of_sigma_is_a_domain_error(self, name):
        spec = SurfaceSpec.from_name(name)
        with pytest.raises(DomainError, match="not finite"):
            geodesic_from_constants(spec, 0.5, 1000.0)

    def test_eps_zero_is_degenerate(self):
        with pytest.raises(DegenerateEpsilon, match="origin_line"):
            geodesic_from_constants(SurfaceSpec.from_name("def-pos"), 0.0, 0.3)

    def test_eps_near_right_angle_rejected_on_tan_rows(self):
        with pytest.raises(DomainError, match="pi/2"):
            geodesic_from_constants(SurfaceSpec.from_name("lorentz-neg"), math.pi / 2, 0.0)

    def test_geodesic_from_AB_matches_constants_route(self):
        spec = SurfaceSpec.from_name("lorentz-pos", radius=1.2)
        eps, sigma = 0.6, -0.4
        c1 = geodesic_from_constants(spec, eps, sigma)
        c2 = geodesic_from_AB(spec, constant_A(spec, eps), sigma)
        assert c2.quad == pytest.approx(c1.quad)
        assert c2.lin_x == pytest.approx(c1.lin_x)
        assert c2.lin_y == pytest.approx(c1.lin_y)
        assert c2.const_term == pytest.approx(c1.const_term)


class TestSignedFormulas:
    """One body on the surface signs (s, kappa) gives each surface the bits
    of its own textbook formula: multiplying by +-1 is exact."""

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_family_conic_bits(self, name):
        spec = SurfaceSpec.from_name(name, 1.7)
        r = spec.radius
        rng = np.random.default_rng(21)
        for _ in range(50):
            eps = float(rng.uniform(0.05, 1.2)) * (1.0 if rng.random() < 0.5 else -1.0)
            sigma = float(rng.uniform(-2.0, 2.0))
            tan_row = name in ("def-pos", "lorentz-neg")
            rt = r * (math.tan(eps) if tan_row else math.tanh(eps))
            if name.startswith("def"):
                lin = (2.0 * math.sin(sigma) / rt, -2.0 * math.cos(sigma) / rt)
                line = (math.sin(sigma), -math.cos(sigma))
            else:
                lin = (-2.0 * math.sinh(sigma) / rt, 2.0 * math.cosh(sigma) / rt)
                line = (-math.sinh(sigma), math.cosh(sigma))
            const = -1.0 if name.endswith("pos") else 1.0
            want = GeodesicConic(1.0 / (r * r), *lin, const, spec)
            assert geodesic_from_constants(spec, eps, sigma) == want
            assert origin_line(spec, sigma) == GeodesicConic(0.0, *line, 0.0, spec)
        lim = limiting_curve(spec).const_term
        assert lim == (r * r if name.endswith("pos") else -(r * r))


class TestConicForm:
    def test_frozen_lorentz_negative_coefficients(self):
        conic = geodesic_from_constants(SurfaceSpec.from_name("lorentz-neg"), 0.3, 0.2)
        assert conic.quad == pytest.approx(1.0)
        assert conic.lin_x == pytest.approx(-1.3017291235358055)
        assert conic.lin_y == pytest.approx(6.5951970188193698)
        assert conic.const_term == pytest.approx(1.0)

    def test_degenerate_conic_rejected(self):
        with pytest.raises(ValueError, match="quadratic or linear"):
            GeodesicConic(0.0, 0.0, 0.0, 1.0, SurfaceSpec.from_name("def-pos"))

    def test_gradient_matches_finite_difference(self):
        conic = geodesic_from_constants(SurfaceSpec.from_name("def-neg"), 0.8, 0.1)
        h = 1e-7
        for x, y in ((0.3, -0.2), (-0.5, 0.4)):
            gx, gy = conic.gradient(x, y)
            assert gx == pytest.approx(
                (conic.residual(x + h, y) - conic.residual(x - h, y)) / (2 * h), rel=1e-6
            )
            assert gy == pytest.approx(
                (conic.residual(x, y + h) - conic.residual(x, y - h)) / (2 * h), rel=1e-6
            )

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_parametric_points_lie_on_the_conic(self, name):
        spec = SurfaceSpec.from_name(name, radius=1.4)
        rng = np.random.default_rng(31)
        for _ in range(8):
            eps = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.1, 1.1)
            sigma = rng.uniform(-1.2, 1.2)
            conic = geodesic_from_constants(spec, eps, sigma)
            for tau in _safe_taus(spec, eps, sigma):
                rho, phi = geodesic_parametric(spec, eps, sigma, float(tau))
                x, y = exp_map_to_cartesian(spec, rho, phi)
                scale = max(1.0, abs(conic.lin_x * x), abs(conic.lin_y * y))
                assert abs(conic.residual(x, y)) / scale < 1e-11


class TestParametrization:
    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_unit_speed(self, name):
        spec = SurfaceSpec.from_name(name, radius=0.8)
        rng = np.random.default_rng(32)
        for _ in range(6):
            eps = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.15, 1.0)
            sigma = rng.uniform(-1.0, 1.0)
            for tau in _safe_taus(spec, eps, sigma, n=9):
                (rho, phi), (drho, dphi) = geodesic_parametric_with_velocity(
                    spec, eps, sigma, float(tau)
                )
                ds2 = line_element_isometric(spec, rho, drho, dphi)
                assert ds2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_velocity_matches_finite_difference(self, name):
        spec = SurfaceSpec.from_name(name)
        h = 1e-6
        for tau in _safe_taus(spec, 0.45, -0.3, n=7):
            (_, _), (drho, dphi) = geodesic_parametric_with_velocity(spec, 0.45, -0.3, float(tau))
            rp = geodesic_parametric(spec, 0.45, -0.3, float(tau) + h)
            rm = geodesic_parametric(spec, 0.45, -0.3, float(tau) - h)
            assert drho == pytest.approx((rp[0] - rm[0]) / (2 * h), rel=1e-5, abs=1e-7)
            assert dphi == pytest.approx((rp[1] - rm[1]) / (2 * h), rel=1e-5, abs=1e-7)

    def test_unit_speed_next_to_lorentz_negative_branch_boundary(self):
        """cos(eps) cosh(u) - 1 = 8.6e-9 here, so c^2 - 1 formed by
        cancellation would put |ds^2| off one by 1.4e-8."""
        spec = SurfaceSpec.from_name("lorentz-neg", radius=2.0)
        eps, sigma, u = -0.024938759472635973, 1.1866265070776025, 0.024941690271326866
        tau = constant_A(spec, eps) * sigma + spec.radius * u
        (rho, phi), (drho, dphi) = geodesic_parametric_with_velocity(spec, eps, sigma, tau)
        ds2 = line_element_isometric(spec, rho, drho, dphi)
        assert abs(abs(ds2) - 1.0) <= 1e-10

    @pytest.mark.parametrize("radius", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("eps", [0.02, -0.05, 0.1])
    def test_unit_speed_next_to_the_definite_negative_turning_point(self, radius, eps):
        """coth(rho) - 1 is formed without cancellation on def-neg too; from
        1 - tanh(rho)^2 the speed was off by up to 5e-13 here."""
        spec = SurfaceSpec.from_name("def-neg", radius=radius)
        sigma = 0.3
        for u in np.linspace(-0.02, 0.02, 21):
            tau = constant_A(spec, eps) * sigma + radius * float(u)
            (rho, _), (drho, dphi) = geodesic_parametric_with_velocity(spec, eps, sigma, tau)
            ds2 = line_element_isometric(spec, rho, drho, dphi)
            assert abs(abs(ds2) - 1.0) <= 1e-13

    @pytest.mark.parametrize("name", ["def-neg", "lorentz-neg"])
    @pytest.mark.parametrize("tau", [400.0, 800.0, 2000.0, 1e6])
    def test_far_along_a_negative_curvature_branch_is_out_of_chart(self, name, tau):
        # coth(rho)^2 - 1 overflows: once a silent (-0.0, 0.0) velocity on
        # lorentz-neg at tau = 400 and a bare OverflowError elsewhere
        with pytest.raises(OutOfChart, match="u = "):
            geodesic_parametric_with_velocity(SurfaceSpec.from_name(name), 0.5, 0.1, tau)

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_overflowing_arc_parameter_is_a_domain_error(self, name):
        # tau - A sigma overflows; sin(u) once raised a bare ValueError
        spec = SurfaceSpec.from_name(name, radius=4.0)
        with pytest.raises(DomainError, match="u = "):
            geodesic_parametric_with_velocity(spec, 0.5, -5e307, 1.7e308)
        # A sigma itself overflows: the family rejects it first
        with pytest.raises(DomainError, match="tau0 = A sigma overflows"):
            geodesic_parametric_with_velocity(spec, 0.5, 1e308, 0.0)

    def test_definite_positive_crosses_many_turns(self):
        """The angle branch must stay continuous across u = pi multiples."""
        spec = SurfaceSpec.from_name("def-pos")
        taus = np.linspace(-7.0, 7.0, 1201)
        phis = [geodesic_parametric(spec, 0.35, 0.0, float(t))[1] for t in taus]
        jumps = np.abs(np.diff(phis))
        assert jumps.max() < 0.2


class TestWindows:
    def test_definite_windows_are_unbounded(self):
        for name in ("def-pos", "def-neg"):
            lo, hi = geodesic_family(SurfaceSpec.from_name(name), 0.5, 0.1).window
            assert lo == -math.inf and hi == math.inf

    def test_positive_lorentz_window(self):
        spec = SurfaceSpec.from_name("lorentz-pos", radius=2.0)
        eps, sigma = 0.7, 0.3
        fam = geodesic_family(spec, eps, sigma)
        tau0 = constant_A(spec, eps) * sigma
        assert fam.tau0 == tau0
        u_star = math.asin(1.0 / math.cosh(eps))
        lo, hi = fam.window
        assert lo == pytest.approx(-u_star)
        assert hi == pytest.approx(u_star)
        tau_hi = tau0 + 2.0 * hi  # R = 2
        geodesic_parametric(spec, eps, sigma, tau_hi - 1e-6)  # inside: fine
        with pytest.raises(OutOfChart):
            geodesic_parametric(spec, eps, sigma, tau_hi + 1e-6)
        fam.state(hi - 1e-9)
        with pytest.raises(OutOfChart, match="u = "):
            fam.state(hi + 1e-9)

    def test_negative_lorentz_window(self):
        spec = SurfaceSpec.from_name("lorentz-neg")
        eps, sigma = 0.4, -0.2
        fam = geodesic_family(spec, eps, sigma)
        tau0 = constant_A(spec, eps) * sigma
        lo, hi = fam.window
        assert lo == pytest.approx(math.acosh(1.0 / math.cos(eps)))
        assert hi == math.inf
        geodesic_parametric(spec, eps, sigma, tau0 + lo + 1e-6)
        with pytest.raises(OutOfChart):
            geodesic_parametric(spec, eps, sigma, tau0 + lo - 1e-6)
        with pytest.raises(OutOfChart):
            # the branch point itself is outside the chart
            geodesic_parametric(spec, eps, sigma, tau0)
        with pytest.raises(OutOfChart):
            fam.state(0.0)

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_non_finite_arc_parameter(self, name):
        fam = geodesic_family(SurfaceSpec.from_name(name), 0.5, 0.1)
        for u in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="u = "):
                fam.state(u)


class TestOriginLines:
    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_line_contains_the_ray(self, name):
        spec = SurfaceSpec.from_name(name, radius=1.1)
        sigma = 0.6
        line = origin_line(spec, sigma)
        assert line.quad == 0.0
        for rho in (-0.5, 0.1, 1.3):
            x, y = exp_map_to_cartesian(spec, rho, sigma)
            assert line.residual(x, y) == pytest.approx(0.0, abs=1e-12)


class TestCircleGeodesics:
    def test_positive_circle_radius(self):
        spec = SurfaceSpec.from_name("def-pos", radius=1.5)
        xc, yc, rad = circle_parameters(spec, 0.5, 0.2)
        assert rad == pytest.approx(1.5 / abs(math.sin(0.5)))

    def test_negative_circle_radius(self):
        spec = SurfaceSpec.from_name("def-neg", radius=1.5)
        xc, yc, rad = circle_parameters(spec, 0.5, 0.2)
        assert rad == pytest.approx(1.5 / abs(math.sinh(0.5)))

    def test_circle_points_lie_on_conic(self):
        spec = SurfaceSpec.from_name("def-neg")
        conic = geodesic_from_constants(spec, 0.7, -0.4)
        xc, yc, rad = circle_parameters(spec, 0.7, -0.4)
        for ang in np.linspace(0.0, 2.0 * math.pi, 17):
            x, y = xc + rad * math.cos(ang), yc + rad * math.sin(ang)
            assert conic.residual(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_lorentz_rejected(self):
        with pytest.raises(DomainError, match="hyperbola"):
            circle_parameters(SurfaceSpec.from_name("lorentz-pos"), 0.5, 0.2)


class TestHyperbolaGeodesics:
    def test_frozen_negative_lorentz_values(self):
        spec = SurfaceSpec.from_name("lorentz-neg")
        x0, y0, d = hyperbola_parameters(spec, math.sin(0.3), 0.2)
        assert x0 == pytest.approx(0.6508645617679029)
        assert y0 == pytest.approx(3.2975985094096854)
        assert d == pytest.approx(3.3838633618241229)

    @pytest.mark.parametrize("name", ["lorentz-pos", "lorentz-neg"])
    def test_completed_square_identity(self, name):
        """(y - y0)^2 - (x - x0)^2 - d^2 = -R^2 * residual, everywhere."""
        spec = SurfaceSpec.from_name(name, radius=1.3)
        rng = np.random.default_rng(33)
        a = constant_A(spec, 0.6)
        x0, y0, d = hyperbola_parameters(spec, a, -0.5)
        conic = geodesic_from_AB(spec, a, -0.5)
        for _ in range(40):
            x, y = rng.uniform(-3.0, 3.0, size=2)
            lhs = (y - y0) ** 2 - (x - x0) ** 2 - d * d
            rhs = -spec.radius**2 * conic.residual(x, y)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)

    def test_definite_rejected(self):
        with pytest.raises(DomainError, match="circle"):
            hyperbola_parameters(SurfaceSpec.from_name("def-pos"), 0.3, 0.0)

    def test_radial_constant_rejected(self):
        with pytest.raises(DegenerateEpsilon):
            hyperbola_parameters(SurfaceSpec.from_name("lorentz-pos"), 0.0, 0.1)

    def test_negative_lorentz_needs_small_constant(self):
        with pytest.raises(DomainError, match=r"\|A\| < R"):
            hyperbola_parameters(SurfaceSpec.from_name("lorentz-neg"), 1.0, 0.1)

    @pytest.mark.parametrize(
        "A, B, match",
        [
            (0.5, 1000.0, "cosh, sinh"),  # was a bare OverflowError
            (0.5, math.nan, "cosh, sinh"),  # was (nan, nan, 2.0)
            (math.inf, 0.1, "A must be finite"),  # was (nan, nan, 0.0)
            (1e-6, 700.0, "not finite"),  # was (inf, inf, 1e6)
        ],
    )
    def test_non_finite_or_overflowing_input_is_a_domain_error(self, A, B, match):
        with pytest.raises(DomainError, match=match):
            hyperbola_parameters(SurfaceSpec.from_name("lorentz-pos"), A, B)


class TestLimitingCurve:
    def test_curve_equations(self):
        lim = limiting_curve(SurfaceSpec.from_name("def-neg", radius=2.0))
        assert lim.residual(2.0, 0.0) == pytest.approx(0.0)
        assert lim.residual(0.0, -2.0) == pytest.approx(0.0)
        lim = limiting_curve(SurfaceSpec.from_name("lorentz-neg", radius=2.0))
        assert lim.residual(2.0 * math.cosh(0.4), 2.0 * math.sinh(0.4)) == pytest.approx(0.0, abs=1e-12)
        lim = limiting_curve(SurfaceSpec.from_name("lorentz-pos", radius=2.0))
        assert lim.residual(2.0 * math.sinh(0.4), 2.0 * math.cosh(0.4)) == pytest.approx(0.0, abs=1e-12)

    def test_crossings_are_pseudo_orthogonal(self):
        spec = SurfaceSpec.from_name("lorentz-neg")
        rng = np.random.default_rng(34)
        lim = limiting_curve(spec)
        for _ in range(10):
            eps = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.1, 1.2)
            sigma = rng.uniform(-1.2, 1.2)
            conic = geodesic_from_constants(spec, eps, sigma)
            hits = limiting_intersections(spec, conic)
            assert len(hits) == 2
            for hit in hits:
                assert conic.residual(hit.x, hit.y) == pytest.approx(0.0, abs=1e-9)
                assert lim.residual(hit.x, hit.y) == pytest.approx(0.0, abs=1e-9)
                assert hit.product == pytest.approx(0.0, abs=1e-9)

    def test_positive_lorentz_geodesics_never_reach_the_curve(self):
        spec = SurfaceSpec.from_name("lorentz-pos")
        conic = geodesic_from_constants(spec, 0.5, 0.3)
        with pytest.raises(NoRealIntersection):
            limiting_intersections(spec, conic)

    def test_origin_line_crossings(self):
        spec = SurfaceSpec.from_name("lorentz-neg", radius=1.2)
        sigma = 0.7
        hits = limiting_intersections(spec, origin_line(spec, sigma))
        xs = sorted(h.x for h in hits)
        assert xs[0] == pytest.approx(-1.2 * math.cosh(sigma))
        assert xs[1] == pytest.approx(1.2 * math.cosh(sigma))
        for h in hits:
            assert abs(h.y) == pytest.approx(1.2 * abs(math.sinh(sigma)))
            assert h.product == pytest.approx(0.0, abs=1e-9)

    def test_definite_negative_circles_cross_orthogonally(self):
        """Geodesic circles meet the limiting circle at Euclidean right angles."""
        spec = SurfaceSpec.from_name("def-neg")
        rng = np.random.default_rng(35)
        for _ in range(10):
            eps = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.15, 1.4)
            sigma = rng.uniform(-1.5, 1.5)
            conic = geodesic_from_constants(spec, eps, sigma)
            hits = limiting_intersections(spec, conic)
            assert len(hits) == 2
            for hit in hits:
                assert math.hypot(hit.x, hit.y) == pytest.approx(1.0, abs=1e-9)
                assert hit.product == pytest.approx(0.0, abs=1e-9)

    def test_positive_definite_has_no_curve(self):
        spec = SurfaceSpec.from_name("def-pos")
        conic = geodesic_from_constants(spec, 0.5, 0.3)
        with pytest.raises(DomainError, match="no real limiting curve"):
            limiting_intersections(spec, conic)

    # (surface, quad, lin_x, lin_y, const_term, crossings) at R = 1; family
    # conics always have |lin_y| > |lin_x|, so these reach the other branches
    HAND_BUILT = [
        ("lorentz-pos", 0.5, 2.0, 1.0, 1.5, 2),  # |a| > |b|
        ("lorentz-pos", 0.0, 1.0, 0.5, 0.0, 2),  # |a| > |b|, a straight line
        ("lorentz-pos", 0.0, 1.0, 1.0, -2.0, 1),  # parallel to an asymptote
        ("lorentz-neg", 1.0, 1.0, -0.5, -3.0, 2),  # |a| > |b|
        ("lorentz-neg", 1.0, 1.0, -1.0, -3.0, 1),  # parallel to an asymptote
        ("lorentz-neg", 0.0, 1.0, 0.0, -2.0, 2),  # |b| = 0
        ("def-neg", 1.0, 2.0, 1.0, -1.5, 2),  # |a| > |b|
        ("def-neg", 0.0, 1.0, 1.0, -0.5, 2),  # |a| = |b|
    ]

    @pytest.mark.parametrize("radius", [1.0, 2.5])
    @pytest.mark.parametrize("name, quad, a, b, c, count", HAND_BUILT)
    def test_hand_built_conics_hit_both_curves(self, radius, name, quad, a, b, c, count):
        spec = SurfaceSpec.from_name(name, radius)
        # the R = 1 picture scaled by R
        conic = GeodesicConic(quad / radius**2, a / radius, b / radius, c, spec)
        lim = limiting_curve(spec)
        hits = limiting_intersections(spec, conic)
        assert len(hits) == count
        for hit in hits:
            scale = max(1.0, hit.x * hit.x, hit.y * hit.y)
            assert abs(conic.residual(hit.x, hit.y)) <= 1e-14 * scale
            assert abs(lim.residual(hit.x, hit.y)) <= 1e-14 * scale * radius**2

    @pytest.mark.parametrize(
        "name, quad, a, b, c",
        [
            ("lorentz-neg", 0.0, 1.0, 1.0, 0.0),  # asymptote itself
            ("lorentz-neg", 0.0, 1.0, 0.0, -0.5),  # |b| = 0, between the branches
            ("def-neg", 0.0, 1.0, 0.5, 3.0),  # line outside the circle
        ],
    )
    def test_hand_built_conics_that_miss(self, name, quad, a, b, c):
        spec = SurfaceSpec.from_name(name)
        with pytest.raises(NoRealIntersection):
            limiting_intersections(spec, GeodesicConic(quad, a, b, c, spec))

    @pytest.mark.parametrize(
        "name, conic_name", [("lorentz-neg", "def-neg"), ("def-neg", "lorentz-neg")]
    )
    def test_conic_of_the_other_signature_rejected(self, name, conic_name):
        # the line-quadric reduction needs a shared x^2 + s y^2; lorentz-neg
        # with a def-neg conic once returned hits with conic residual 1.6
        conic = geodesic_from_constants(SurfaceSpec.from_name(conic_name), 0.5, 0.3)
        with pytest.raises(ValueError, match="quadratic part"):
            limiting_intersections(SurfaceSpec.from_name(name), conic)

    def test_conic_of_another_radius_accepted(self):
        # the reduction holds for any quad, so the hits lie on both curves
        spec = SurfaceSpec.from_name("lorentz-neg", 2.0)
        conic = geodesic_from_constants(SurfaceSpec.from_name("lorentz-neg"), 0.5, 0.3)
        hits = limiting_intersections(spec, conic)
        assert len(hits) == 2
        for hit in hits:
            assert conic.residual(hit.x, hit.y) == pytest.approx(0.0, abs=1e-12)
            assert limiting_curve(spec).residual(hit.x, hit.y) == pytest.approx(0.0, abs=1e-12)


class TestPlaneLines:
    def test_first_kind_is_spacelike(self):
        line = PlaneLine(LineKind.FIRST, 0.6, 1.2)
        tx, ty = line.tangent
        assert tx * tx - ty * ty == pytest.approx(1.0)
        for s in (-2.0, 0.0, 1.5):
            x, y = line.point_at(s)
            assert line.residual(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_second_kind_is_timelike(self):
        line = PlaneLine(LineKind.SECOND, -0.4, 0.7)
        tx, ty = line.tangent
        assert tx * tx - ty * ty == pytest.approx(-1.0)
        x, y = line.point_at(2.0)
        assert line.residual(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_line_equation(self):
        line = PlaneLine(LineKind.FIRST, 0.6, 1.2)
        x, y = line.point_at(0.8)
        assert x * math.sinh(0.6) + y * math.cosh(0.6) == pytest.approx(1.2)


class TestWorldline:
    def test_position_and_velocity(self):
        wl = Worldline(0.5, -1.0, 2.0)
        t, x = wl.position(0.75)
        assert t == pytest.approx(0.5 + math.sinh(1.5) / 2.0)
        assert x == pytest.approx(-1.0 + (math.cosh(1.5) - 1.0) / 2.0)
        vt, vx = wl.velocity(0.75)
        assert vt == pytest.approx(math.cosh(1.5))
        assert vx == pytest.approx(math.sinh(1.5))
        # unit timelike velocity everywhere
        assert vt * vt - vx * vx == pytest.approx(1.0)

    def test_coordinate_speed_approaches_light(self):
        wl = Worldline(0.0, 0.0, 1.0)
        vt, vx = wl.velocity(20.0)
        assert vx / vt == pytest.approx(1.0, abs=1e-10)

    def test_invariant_residual_small(self):
        wl = Worldline(-2.0, 3.0, 0.5)
        for s in np.linspace(-6.0, 6.0, 25):
            assert abs(wl.invariant_residual(float(s))) < 1e-12

    @pytest.mark.parametrize("accel, s", [(1.0, 400.0), (1.0, -700.0), (2.0, 300.0)])
    def test_residual_finite_where_dx_squared_overflows(self, accel, s):
        # dx * dx overflows while the position is still finite
        res = Worldline(0.3, -1.0, accel).invariant_residual(s)
        assert math.isfinite(res) and res <= 1e-12

    def test_overflow_is_a_domain_error(self):
        wl = Worldline(0.0, 0.0, 1.0)
        for s in (1000.0, -1000.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="not finite"):
                wl.position(s)
            with pytest.raises(DomainError, match="not finite"):
                wl.velocity(s)

    def test_bad_acceleration(self):
        with pytest.raises(ValueError, match="positive"):
            Worldline(0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            Worldline(0.0, 0.0, -1.0)

    @pytest.mark.parametrize("accel", [1e200, math.inf, 1e-200, 1e-160])
    def test_acceleration_whose_square_leaves_the_floats(self, accel):
        # accel^2 overflows, underflows to zero, or is subnormal (1/accel^2 = inf)
        with pytest.raises(DomainError, match="1/accel"):
            Worldline(0.0, 0.0, accel)

    @pytest.mark.parametrize("t0, x0", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_start_event(self, t0, x0):
        with pytest.raises(DomainError, match="not finite"):
            Worldline(t0, x0, 1.0)
