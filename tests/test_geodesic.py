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
    completed_square,
    constant_A,
    epsilon_from_constant,
    exp_map_to_cartesian,
    geodesic_family,
    geodesic_from_constants,
    geodesic_parametric,
    geodesic_parametric_with_velocity,
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

    # today's answer of each family entry point at a bad eps, sigma = 0.1 and
    # tau = 0: (geodesic_from_constants, geodesic_family,
    # geodesic_parametric_with_velocity, constant_A) on the tan rows (def-pos,
    # lorentz-neg) and on the tanh rows; None answers
    _D, _E = DomainError, DegenerateEpsilon
    _BAD_EPS = (
        (math.nan, (_D, _D, _D, _D), (_D, _D, _D, _D)),
        (math.inf, (_D, _D, _D, _D), (_D, _D, _D, _D)),
        (-math.inf, (_D, _D, _D, _D), (_D, _D, _D, _D)),
        (math.pi / 2.0, (_D, _D, _D, _D), (None, None, None, None)),
        (-math.pi / 2.0, (_D, _D, _D, _D), (None, None, None, None)),
        (800.0, (_D, _D, _D, _D), (None, _D, _D, _D)),  # sinh(800) overflows
        (1e-13, (_E, _E, _E, None), (_E, _E, _E, None)),  # a straight line
    )

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    @pytest.mark.parametrize("eps, on_tan, on_tanh", _BAD_EPS)
    def test_bad_eps_table(self, name, eps, on_tan, on_tanh):
        spec = SurfaceSpec.from_name(name)
        entry_points = (
            lambda: geodesic_from_constants(spec, eps, 0.1),
            lambda: geodesic_family(spec, eps, 0.1),
            lambda: geodesic_parametric_with_velocity(spec, eps, 0.1, 0.0),
            lambda: constant_A(spec, eps),
        )
        expected = on_tan if spec.metric_sign == spec.kappa else on_tanh
        for call, want in zip(entry_points, expected):
            if want is None:
                call()
                continue
            with pytest.raises(want) as info:
                call()
            assert info.type is want


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

    def test_residual_where_both_squares_overflow(self):
        # x*x - y*y once read inf - inf = nan at this finite limiting-curve hit
        spec = SurfaceSpec.from_name("lorentz-neg", 2.5)
        conic = GeodesicConic(-1.0, -3.55, -3.47, 3.48e171, spec)
        x, y = max(limiting_intersections(conic))
        assert x == -y and x > 1e172
        term = max(abs(conic.lin_x * x), abs(conic.lin_y * y), abs(conic.const_term))
        assert abs(conic.residual(x, y)) <= 1e-15 * term
        # on the null line y = -x the curve's residual is exactly -R^2
        assert limiting_curve(spec).residual(x, y) == -2.5 * 2.5

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


class TestCompletedSquare:
    """``s (x - x0)^2 + (y - y0)^2 = d^2``: circles on the definite surfaces,
    rectangular hyperbolas on the Lorentzian ones, one closed form."""

    @pytest.mark.parametrize(
        "name, trig", [("def-pos", math.sin), ("def-neg", math.sinh)]
    )
    def test_circle_radius(self, name, trig):
        spec = SurfaceSpec.from_name(name, radius=1.5)
        _, _, d = completed_square(spec, constant_A(spec, 0.5), 0.2)
        assert abs(d) == pytest.approx(1.5 / abs(trig(0.5)), rel=1e-15)

    @pytest.mark.parametrize("name", ["def-pos", "def-neg"])
    def test_circle_points_lie_on_conic(self, name):
        spec = SurfaceSpec.from_name(name)
        conic = geodesic_from_constants(spec, 0.7, -0.4)
        xc, yc, rad = completed_square(spec, constant_A(spec, 0.7), -0.4)
        for ang in np.linspace(0.0, 2.0 * math.pi, 17):
            x, y = xc + rad * math.cos(ang), yc + rad * math.sin(ang)
            assert conic.residual(x, y) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "eps, sigma",
        [
            (10.0, 0.3),  # 1.4e-9 relative error when the radius cancelled
            (20.0, 0.3),  # the cancelling radius read 0.0
            (50.0, -0.3675520613974119),  # once a bare ValueError, math domain error
        ],
    )
    def test_far_def_neg_circle_keeps_its_radius(self, eps, sigma):
        # a radius from x0^2 + y0^2 - const/quad cancels where eps is large
        spec = SurfaceSpec.from_name("def-neg")
        xc, yc, d = completed_square(spec, math.sinh(eps), sigma)
        assert d == pytest.approx(1.0 / math.sinh(eps), rel=1e-15)
        assert math.hypot(xc, yc) == pytest.approx(1.0 / math.tanh(eps), rel=1e-15)

    def test_frozen_negative_lorentz_values(self):
        spec = SurfaceSpec.from_name("lorentz-neg")
        x0, y0, d = completed_square(spec, math.sin(0.3), 0.2)
        assert x0 == pytest.approx(0.6508645617679029)
        assert y0 == pytest.approx(3.2975985094096854)
        assert d == pytest.approx(3.3838633618241229)

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_completed_square_identity(self, name):
        """s (x - x0)^2 + (y - y0)^2 - d^2 = s R^2 * residual, everywhere."""
        spec = SurfaceSpec.from_name(name, radius=1.3)
        s = spec.metric_sign
        rng = np.random.default_rng(33)
        x0, y0, d = completed_square(spec, constant_A(spec, 0.6), -0.5)
        conic = geodesic_from_constants(spec, 0.6, -0.5)
        for _ in range(40):
            x, y = rng.uniform(-3.0, 3.0, size=2)
            lhs = s * (x - x0) ** 2 + (y - y0) ** 2 - d * d
            rhs = s * spec.radius**2 * conic.residual(x, y)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)

    def test_radial_constant_rejected(self):
        with pytest.raises(DegenerateEpsilon):
            completed_square(SurfaceSpec.from_name("lorentz-pos"), 0.0, 0.1)

    @pytest.mark.parametrize("name", ["def-pos", "lorentz-neg"])
    def test_constant_must_stay_below_the_radius(self, name):
        # the wording of epsilon_from_constant, on both surfaces where A = R sin(eps)
        with pytest.raises(DomainError, match=rf"^{name} needs \|A\| < R = 1.0, got A = 1.0$"):
            completed_square(SurfaceSpec.from_name(name), 1.0, 0.1)

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
            completed_square(SurfaceSpec.from_name("lorentz-pos"), A, B)


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
            hits = limiting_intersections(conic)
            assert len(hits) == 2
            for x, y in hits:
                assert conic.residual(x, y) == pytest.approx(0.0, abs=1e-9)
                assert lim.residual(x, y) == pytest.approx(0.0, abs=1e-9)

    def test_positive_lorentz_geodesics_never_reach_the_curve(self):
        spec = SurfaceSpec.from_name("lorentz-pos")
        conic = geodesic_from_constants(spec, 0.5, 0.3)
        with pytest.raises(NoRealIntersection):
            limiting_intersections(conic)

    def test_origin_line_crossings(self):
        spec = SurfaceSpec.from_name("lorentz-neg", radius=1.2)
        sigma = 0.7
        hits = limiting_intersections(origin_line(spec, sigma))
        xs = sorted(x for x, _ in hits)
        assert xs[0] == pytest.approx(-1.2 * math.cosh(sigma))
        assert xs[1] == pytest.approx(1.2 * math.cosh(sigma))
        for _, y in hits:
            assert abs(y) == pytest.approx(1.2 * abs(math.sinh(sigma)))

    def test_definite_negative_circles_cross_orthogonally(self):
        """Geodesic circles meet the limiting circle at Euclidean right angles."""
        spec = SurfaceSpec.from_name("def-neg")
        rng = np.random.default_rng(35)
        for _ in range(10):
            eps = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.15, 1.4)
            sigma = rng.uniform(-1.5, 1.5)
            conic = geodesic_from_constants(spec, eps, sigma)
            hits = limiting_intersections(conic)
            assert len(hits) == 2
            for x, y in hits:
                assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-9)
                # the gradients are Euclidean-orthogonal there
                g1, g2 = conic.gradient(x, y), (2.0 * x, 2.0 * y)
                assert g1[0] * g2[0] + g1[1] * g2[1] == pytest.approx(0.0, abs=1e-9)

    def test_positive_definite_has_no_curve(self):
        spec = SurfaceSpec.from_name("def-pos")
        conic = geodesic_from_constants(spec, 0.5, 0.3)
        with pytest.raises(DomainError, match="no real limiting curve"):
            limiting_intersections(conic)

    # (surface, quad, lin_x, lin_y, const_term, crossings) at R = 1; family
    # conics always have |lin_y| > |lin_x|, so these reach the other orientation
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
        hits = limiting_intersections(conic)
        assert len(hits) == count
        for x, y in hits:
            scale = max(1.0, x * x, y * y)
            assert abs(conic.residual(x, y)) <= 1e-14 * scale
            assert abs(lim.residual(x, y)) <= 1e-14 * scale * radius**2

    @pytest.mark.parametrize(
        "name, quad, a, b, c",
        [
            ("lorentz-neg", 0.0, 1.0, 1.0, 0.0),  # asymptote itself
            ("lorentz-neg", 0.0, 1.0, 0.0, -0.5),  # |b| = 0, between the branches
            ("def-neg", 0.0, 1.0, 0.5, 3.0),  # line outside the circle
            ("lorentz-pos", 1.0, 0.0, 0.0, 2.0),  # concentric, no linear part
            ("def-neg", 2.0, 0.0, 0.0, -1.0),  # concentric circle of radius 1/sqrt(2)
        ],
    )
    def test_hand_built_conics_that_miss(self, name, quad, a, b, c):
        spec = SurfaceSpec.from_name(name)
        with pytest.raises(NoRealIntersection):
            limiting_intersections(GeodesicConic(quad, a, b, c, spec))

    @pytest.mark.parametrize("name", ["def-neg", "lorentz-pos", "lorentz-neg"])
    def test_limiting_curve_itself_rejected(self, name):
        spec = SurfaceSpec.from_name(name, 2.5)
        with pytest.raises(ValueError, match="coincides"):
            limiting_intersections(limiting_curve(spec))

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.5])
    def test_swapping_x_and_y_carries_lorentz_pos_onto_lorentz_neg(self, radius):
        # h (x + h y) = y + h x swaps x and y, which takes x^2 - y^2 = -R^2
        # onto x^2 - y^2 = R^2: the line (a, b, k) on lorentz-pos and (b, a, k)
        # on lorentz-neg solve one quadratic up to sign, each in the other
        # orientation, so their hits agree bit for bit.  The draws are nonzero
        # with |a| != |b|: a tie solves both in the same orientation, and where
        # 2 a k = 0 the two roots come out in the other order.
        pos, neg = (SurfaceSpec.from_name(n, radius) for n in ("lorentz-pos", "lorentz-neg"))
        rng = np.random.default_rng(22)

        def outcome(spec, a, b, k):
            try:
                hits = limiting_intersections(GeodesicConic(0.0, a, b, k, spec))
            except NoRealIntersection as exc:
                return str(exc)
            return [(x.hex(), y.hex()) for x, y in hits]

        crossed = 0
        for _ in range(2000):
            a, b, k = (float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)) for _ in "abk")
            want = outcome(pos, a, b, k)
            got = outcome(neg, b, a, k)
            if isinstance(got, list):
                got = [(y, x) for x, y in got]
                crossed += 1
            assert got == want
        assert crossed > 1000

    def test_lines_whose_squares_leave_the_floats(self):
        # b^2 + s a^2 underflowed to 0, so these read as asymptote-parallel
        def_neg = SurfaceSpec.from_name("def-neg", 2.5)
        miss = GeodesicConic(0.0, 1.34e-195, 1.34e-195, -1.95, def_neg)
        with pytest.raises(NoRealIntersection, match="discriminant"):  # once a hit at 7.3e194
            limiting_intersections(miss)
        lorentz_neg = SurfaceSpec.from_name("lorentz-neg", 2.5)
        # x = -k/a = -5e169 crosses both branches; once "asymptote-parallel line misses"
        cross = GeodesicConic(0.0, 1e-170, 0.0, 0.5, lorentz_neg)
        assert sorted(limiting_intersections(cross)) == [
            pytest.approx((-5e169, -5e169), rel=1e-15),
            pytest.approx((-5e169, 5e169), rel=1e-15),
        ]
        # with quad = 1 the hits sit at x = -6.75e170, where the float pairing
        # of the gradients overflows; once a DomainError for these finite hits
        hits = limiting_intersections(GeodesicConic(1.0, 1e-170, 0.0, 0.5, lorentz_neg))
        assert sorted(hits) == [
            pytest.approx((-6.75e170, -6.75e170), rel=1e-15),
            pytest.approx((-6.75e170, 6.75e170), rel=1e-15),
        ]

    @pytest.mark.parametrize(
        "radius, conic, want",
        [
            # the exact pairings are -5.1e125 and -3.4e125, but the float g1.g2
            # read nan, so these hits once raised "product nan is not finite"
            (0.5, (-8.331645178500165e125, 0.6266272425638078, -2.8382538590041673,
                   3.188009164469935),
             [(-9.4180060917222679e124, -9.4180060917222679e124),
              (6.011494286723010709e124, -6.011494286723010709e124)]),
            # k^2 overflows; once (inf, -inf, nan), then the same product error
            (2.5, (-1.0, -3.55, -3.47, 3.48e171),
             [(4.9572649572649573543e170, 4.9572649572649573543e170),
              (4.3500000000000203732e172, -4.3500000000000203732e172)]),
        ],
    )
    def test_finite_hits_whose_gradient_pairing_overflows(self, radius, conic, want):
        # want: the hits to 20 digits, from the quadratic solved in mpmath; the
        # second line is near an asymptote, where b^2 - a^2 cancels to a 44th
        # of its terms, hence 1e-14
        spec = SurfaceSpec.from_name("lorentz-neg", radius)
        hits = sorted(limiting_intersections(GeodesicConic(*conic, spec)))
        assert hits == [pytest.approx(w, rel=1e-14) for w in want]

    def test_line_whose_k_vanishes_in_the_scaling(self):
        # k = quad R^2 = 4.2e-121 underflows when the line is scaled down by
        # 2^-931, which once read as "asymptote-parallel line misses the
        # curve"; the exact hits (3.8e399, 3.8e399) lie beyond the floats
        spec = SurfaceSpec.from_name("lorentz-neg", 0.5)
        conic = GeodesicConic(
            1.6864670896490195e-120, -1.2915856019334868e280, 1.2915856019334868e280, 0.0, spec
        )
        with pytest.raises(DomainError, match="beyond the float range"):
            limiting_intersections(conic)

    @pytest.mark.parametrize(
        "quad, a, b, c, message",
        [
            (-1.0, -3.55, -3.47, 1.7e308, "not finite"),  # the exact hit x = 2.1e309
            (0.0, 5e-324, 0.0, 1e308, "beyond the float range"),  # |k/a| overflows
        ],
    )
    def test_non_finite_hit_is_a_domain_error(self, quad, a, b, c, message):
        spec = SurfaceSpec.from_name("lorentz-neg", 2.5)
        with pytest.raises(DomainError, match=message):
            limiting_intersections(GeodesicConic(quad, a, b, c, spec))


class TestPlaneLines:
    @pytest.mark.parametrize("theta, c", [(0.6, 1.2), (-0.4, 0.7), (1.3, -2.5), (0.0, 0.0)])
    def test_each_kind_keeps_its_own_bits(self, theta, c):
        # the residual of each kind, written out; hex tells -0.0 from 0.0
        ch, sh = math.cosh(theta), math.sinh(theta)
        x, y = 0.3, -1.7
        want = {
            LineKind.FIRST: x * sh + y * ch - c,
            LineKind.SECOND: x * ch + y * sh - c,
        }
        for kind, residual in want.items():
            assert PlaneLine(kind, theta, c).residual(x, y).hex() == residual.hex()

    @pytest.mark.parametrize("theta", [math.nan, math.inf, 1000.0])
    def test_non_finite_angle_is_a_domain_error(self, theta):
        # once (nan, nan) answers or a bare OverflowError from math.cosh
        line = PlaneLine(LineKind.SECOND, theta, 1.0)
        with pytest.raises(DomainError):
            line.residual(0.1, 0.2)


class TestWorldline:
    def test_position(self):
        wl = Worldline(0.5, -1.0, 2.0)
        t, x = wl.position(0.75)
        assert t == pytest.approx(0.5 + math.sinh(1.5) / 2.0)
        assert x == pytest.approx(-1.0 + (math.cosh(1.5) - 1.0) / 2.0)

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
