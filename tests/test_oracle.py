"""Numerical layer: FD Christoffels, RK4 geodesics, quadrature, tau fields.

For a conformal metric ds^2 = lambda (dx^2 + s dy^2) with u = ln(lambda)/2
the Christoffel symbols have a closed form:

    definite (s=+1):   G^x = [[ux, uy], [uy, -ux]],  G^y = [[-uy, ux], [ux, uy]]
    lorentzian (s=-1): G^x = [[ux, uy], [uy,  ux]],  G^y = [[ uy, ux], [ux, uy]]

which this file uses as the independent truth for the FD stencil.
"""

import math
import random
import subprocess
import sys

import numpy as np
import pytest

from lorentzcc import oracle
from lorentzcc.verify import _ScaledField
from lorentzcc import (
    SURFACE_NAMES,
    Chart,
    DomainError,
    DomainExit,
    FlatPlaneField,
    GeodesicState,
    GeometryError,
    LineKind,
    MetricField,
    MixedCausality,
    NearSingular,
    OnLimitingCurve,
    PlaneLine,
    Signature,
    SurfaceSpec,
    TauField,
    arc_length,
    beltrami_delta1,
    christoffel,
    constant_A,
    exp_map_pushforward,
    exp_map_to_cartesian,
    geodesic_family,
    geodesic_parametric,
    geodesic_parametric_with_velocity,
    integrate_geodesic,
    isothermal_curvature,
)


def _analytic_christoffel(spec, x, y):
    r2 = spec.radius**2
    if spec.name == "def-pos":
        base, sy = r2 + x * x + y * y, 1.0
    elif spec.name == "def-neg":
        base, sy = x * x + y * y - r2, 1.0
    elif spec.name == "lorentz-pos":
        base, sy = r2 + x * x - y * y, -1.0
    else:
        base, sy = x * x - y * y - r2, -1.0
    ux = -2.0 * x / base
    uy = -sy * 2.0 * y / base
    g = np.empty((2, 2, 2))
    if spec.signature is Signature.DEFINITE:
        g[0] = [[ux, uy], [uy, -ux]]
        g[1] = [[-uy, ux], [ux, uy]]
    else:
        g[0] = [[ux, uy], [uy, ux]]
        g[1] = [[uy, ux], [ux, uy]]
    return g


class TestChristoffel:
    @pytest.mark.parametrize("name", ["def-pos", "def-neg", "lorentz-pos", "lorentz-neg"])
    def test_matches_conformal_closed_form(self, name):
        spec = SurfaceSpec.from_name(name, radius=1.2)
        field = MetricField(spec, Chart.CARTESIAN)
        rng = np.random.default_rng(51)
        for _ in range(15):
            if name == "def-neg":
                x, y = rng.uniform(-0.45, 0.45, size=2)
            elif name == "lorentz-neg":
                x = float(rng.choice([-1.0, 1.0])) * rng.uniform(1.5, 2.5)
                y = rng.uniform(-0.4, 0.4)
            else:
                x, y = rng.uniform(-1.0, 1.0, size=2)
            got = christoffel(field, float(x), float(y))
            want = _analytic_christoffel(spec, float(x), float(y))
            assert got == pytest.approx(want, abs=2e-7)

    def test_second_order_convergence(self):
        spec = SurfaceSpec.from_name("def-pos")
        field = MetricField(spec, Chart.CARTESIAN)
        want = _analytic_christoffel(spec, 0.4, 0.2)
        errs = []
        for h in (4e-2, 2e-2, 1e-2):
            got = christoffel(field, 0.4, 0.2, step=h)
            errs.append(np.abs(got - want).max())
        # halving the step should cut the error about four-fold
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.35)

    def test_symmetry_in_lower_indices(self):
        field = MetricField(SurfaceSpec.from_name("lorentz-neg"), Chart.CARTESIAN)
        g = christoffel(field, 1.7, 0.3)
        assert g[0][0][1] == g[0][1][0]
        assert g[1][0][1] == g[1][1][0]

    # each route of the cross stencil, one step h off the limiting circle of
    # def-neg (or the rho = 0 pole), so the point a - h is on it
    @pytest.mark.parametrize(
        "route, chart",
        [
            ("christoffel", Chart.CARTESIAN),
            ("beltrami_delta1", Chart.CARTESIAN),
            ("isothermal_curvature", Chart.CARTESIAN),
            ("isothermal_curvature", Chart.ISOMETRIC),
        ],
    )
    def test_near_singular_stencil(self, route, chart):
        field = MetricField(SurfaceSpec.from_name("def-neg"), chart)
        h = 2.0**-13
        a = h if chart is Chart.ISOMETRIC else 1.0 + h
        call = {
            "christoffel": lambda: christoffel(field, a, 0.0, step=h),
            "beltrami_delta1": lambda: beltrami_delta1(field, field.factor, (a, 0.0), step=h),
            "isothermal_curvature": lambda: isothermal_curvature(field, a, 0.0, step=h),
        }[route]
        with pytest.raises(NearSingular, match="stencil") as info:
            call()
        assert isinstance(info.value.__cause__, GeometryError)

    def test_flat_plane_is_flat(self):
        g = christoffel(FlatPlaneField(), 0.7, -0.4)
        assert np.abs(g).max() < 1e-12


class TestIntegrateGeodesic:
    def test_flat_plane_straight_line(self):
        field = FlatPlaneField()
        vx, vy = math.cosh(0.3), math.sinh(0.3)  # unit spacelike
        state = GeodesicState((0.1, -0.2), (vx, vy))
        states = integrate_geodesic(field, state, 2.0, step=1e-2)
        assert len(states) == 201
        end = states[-1]
        assert end.position[0] == pytest.approx(0.1 + 2.0 * vx, abs=1e-12)
        assert end.position[1] == pytest.approx(-0.2 + 2.0 * vy, abs=1e-12)
        assert end.velocity[0] == pytest.approx(vx, abs=1e-12)

    def test_fourth_order_convergence(self):
        """Halving the RK4 step cuts the end-point error about 16x against
        the closed-form track (Hairer, Norsett & Wanner, Solving ODEs I,
        section II.4)."""
        spec = SurfaceSpec.from_name("def-neg")
        field = MetricField(spec, Chart.CARTESIAN)
        eps, sigma, length = 0.5, 0.3, 0.4
        tau = constant_A(spec, eps) * sigma - 0.5
        (rho, phi), (drho, dphi) = geodesic_parametric_with_velocity(spec, eps, sigma, tau)
        state = GeodesicState(
            exp_map_to_cartesian(spec, rho, phi),
            exp_map_pushforward(spec, rho, phi, drho, dphi),
        )
        want = exp_map_to_cartesian(spec, *geodesic_parametric(spec, eps, sigma, tau + length))
        errs = []
        for h in (0.04, 0.02, 0.01):
            px, py = integrate_geodesic(field, state, length, step=h)[-1].position
            errs.append(math.hypot(px - want[0], py - want[1]))
        assert 12.0 <= errs[0] / errs[1] <= 20.0
        assert 12.0 <= errs[1] / errs[2] <= 20.0

    def test_requires_unit_speed(self):
        field = FlatPlaneField()
        state = GeodesicState((0.0, 0.0), (2.0, 0.0))
        with pytest.raises(ValueError, match="unit speed"):
            integrate_geodesic(field, state, 1.0)

    def test_nan_start_is_rejected(self):
        # both once integrated to 11 NaN states: the unit-speed test was
        # false for NaN, and the factor answered NaN
        field = MetricField(SurfaceSpec.from_name("def-neg"), Chart.CARTESIAN)
        at_nan = GeodesicState((math.nan, 0.0), (1.0, 0.0))
        with pytest.raises(DomainError):
            integrate_geodesic(field, at_nan, 0.01)
        lam = field.factor(0.1, 0.0)
        moving_nan = GeodesicState((0.1, 0.0), (math.nan, 1.0 / math.sqrt(lam)))
        with pytest.raises(ValueError, match="unit speed"):
            integrate_geodesic(field, moving_nan, 0.01)

    @pytest.mark.parametrize(
        "length, n_steps",
        [(1e-4, 1), (1.0015, 1002), (1.0025, 1003), (0.3, 300), (0.2499, 250)],
    )
    def test_ends_at_the_requested_length(self, length, n_steps):
        # once round(length / step) whole steps, at least one: 1e-4 went to
        # 1e-3, and 1.0015 and 1.0025 both to 1.002; 0.3 / 1e-3 is
        # 299.99999999999994, within rounding of 300 whole steps
        state = GeodesicState((0.0, 0.0), (1.0, 0.0))
        states = integrate_geodesic(FlatPlaneField(), state, length, step=1e-3)
        assert len(states) == n_steps + 1
        assert states[-1].position[0] == pytest.approx(length, rel=1e-14)

    @pytest.mark.parametrize(
        "length, step",
        [
            (-1.0, 1e-3),
            (0.0, 1e-3),
            (math.inf, 1e-3),
            (math.nan, 1e-3),
            (1.0, -1e-3),
            (1.0, 0.0),
            (1.0, math.inf),
            (1.0, math.nan),
            (1e300, 1e-10),  # length / step overflows
        ],
    )
    def test_requires_positive_finite_length_and_step(self, length, step):
        # round(length / step) once turned these into one forward or
        # backward step, an OverflowError or a ZeroDivisionError
        state = GeodesicState((0.0, 0.0), (1.0, 0.0))
        with pytest.raises(ValueError, match="positive and finite"):
            integrate_geodesic(FlatPlaneField(), state, length, step=step)

    def test_domain_exit_carries_partial_trajectory(self):
        spec = SurfaceSpec.from_name("def-neg")
        field = MetricField(spec, Chart.CARTESIAN)
        lam = field.factor(0.9, 0.0)
        state = GeodesicState((0.9, 0.0), (1.0 / math.sqrt(lam), 0.0))
        # hyperbolic distance from 0.9 out to the guard zone is about 2.35,
        # so a length-4 request must stop early
        with pytest.raises(DomainExit) as info:
            integrate_geodesic(field, state, 4.0, step=1e-3)
        track = info.value.trajectory
        assert len(track) > 1
        assert track[-1].position[0] < 1.0  # stopped short of the limiting circle
        assert track[-1].position[0] > 0.9


class TestFlatPlaneField:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "route, error",
        [
            # each once answered: nan or inf, NaN or infinite states, -0.0, zeros
            (lambda f, p: arc_length(f, [(0.0, 0.0), p]), DomainError),
            (lambda f, p: integrate_geodesic(f, GeodesicState(p, (1.0, 0.0)), 0.01),
             DomainError),
            (lambda f, p: isothermal_curvature(f, *p), DomainError),
            (lambda f, p: christoffel(f, *p), NearSingular),
        ],
        ids=["arc_length", "integrate_geodesic", "isothermal_curvature", "christoffel"],
    )
    def test_non_finite_point_rejected(self, route, error, bad):
        with pytest.raises(error, match="flat-plane factor") as info:
            route(FlatPlaneField(), (bad, 0.0))
        assert info.type is error


class TestAdaptiveSimpson:
    @pytest.mark.parametrize(
        "fn, match",
        [
            (lambda t: math.nan if t == 0.0 else 1.0, "not finite at 0.0, 0.5 or 1.0"),
            (lambda t: math.inf if t == 0.25 else 1.0, r"not finite on \[0.0, 1.0\]"),
        ],
        ids=["first sample", "panel sum"],
    )
    def test_non_finite_integrand_is_a_domain_error(self, fn, match):
        with pytest.raises(DomainError, match=match):
            oracle._adaptive_simpson(fn, 0.0, 1.0, 1e-10)

    def test_infinite_bound_is_a_domain_error(self):
        tau = TauField(0.7, 0.3, SurfaceSpec.from_name("lorentz-pos"))
        with pytest.raises(DomainError, match="quadrature bounds"):
            tau(math.inf, 0.1)


class TestArcLength:
    def test_nan_point_is_a_domain_error(self):
        # once answered nan
        field = MetricField(SurfaceSpec.from_name("def-pos"), Chart.CARTESIAN)
        with pytest.raises(DomainError):
            arc_length(field, [(0.0, 0.0), (math.nan, 0.5)])

    def test_round_trip_around_a_small_circle(self):
        # circumference of x^2 + y^2 = r^2 under 4 (1 + x^2 + y^2)^-2 (dx^2+dy^2)
        spec = SurfaceSpec.from_name("def-pos")
        field = MetricField(spec, Chart.CARTESIAN)
        r = 0.7
        ang = np.linspace(0.0, 2.0 * math.pi, 4001)
        pts = [(r * math.cos(a), r * math.sin(a)) for a in ang]
        want = 4.0 * math.pi * r / (1.0 + r * r)
        assert arc_length(field, pts) == pytest.approx(want, abs=2e-6)

    def test_duplicate_points_are_skipped(self):
        field = FlatPlaneField()
        pts = [(0.0, 0.0), (0.5, 0.0), (0.5, 0.0), (1.0, 0.0)]
        assert arc_length(field, pts) == pytest.approx(1.0)

    def test_mixed_causality_rejected(self):
        field = MetricField(SurfaceSpec.from_name("lorentz-pos"), Chart.CARTESIAN)
        pts = [(0.5, 0.0), (0.9, 0.1), (0.95, 0.6)]  # spacelike then timelike leg
        with pytest.raises(MixedCausality):
            arc_length(field, pts)

    @pytest.mark.parametrize("pts", [[], [(0.3, 0.2)]])
    def test_fewer_than_two_points_measure_zero(self, pts):
        field = MetricField(SurfaceSpec.from_name("lorentz-neg"), Chart.CARTESIAN)
        assert arc_length(field, pts) == 0.0

    def test_repeated_points_add_nothing(self):
        field = MetricField(SurfaceSpec.from_name("def-neg"), Chart.CARTESIAN)
        pts = [(0.0, 0.0), (0.1, 0.2), (0.3, -0.1)]
        doubled = [p for p in pts for _ in range(2)]
        assert arc_length(field, doubled) == arc_length(field, pts)
        assert arc_length(field, [(0.1, 0.2)] * 3) == 0.0

    def test_timelike_then_spacelike_rejected(self):
        field = FlatPlaneField()
        with pytest.raises(MixedCausality):
            arc_length(field, [(0.0, 0.0), (0.1, 0.5), (0.1, 0.5), (0.9, 0.6)])

    def test_null_segments_do_not_vote(self):
        # a null leg measures zero and lets either causal type follow
        field = FlatPlaneField()
        assert arc_length(field, [(0.0, 0.0), (0.5, 0.5), (1.5, 0.5)]) == 1.0
        assert arc_length(field, [(0.0, 0.0), (0.5, 0.5), (0.5, 1.5)]) == 1.0

    def test_timelike_path_measures_proper_time(self):
        field = FlatPlaneField()
        pts = [(0.0, float(t)) for t in np.linspace(0.0, 2.0, 11)]
        assert arc_length(field, pts) == pytest.approx(2.0)

    def test_one_pass_matches_the_two_slice_loop(self):
        """Bit for bit, with the same factor calls in the same order, errors
        included: seeded walks on every surface and chart, a tampered field
        and the flat plane, with repeated points, null legs and mixed legs."""
        rng = random.Random(71)
        fields = [
            (MetricField(spec, chart), 0.5 if chart is Chart.CARTESIAN else 1.0)
            for spec in (SurfaceSpec.from_name(name, 1.5) for name in SURFACE_NAMES)
            for chart in (Chart.CARTESIAN, Chart.ISOMETRIC)
        ]
        fields += [
            (_ScaledField(SurfaceSpec.from_name(name), Chart.CARTESIAN, 1.001), 0.3)
            for name in ("def-neg", "lorentz-pos")
        ]
        fields.append((FlatPlaneField(), 0.5))
        outcomes = set()
        for field, center in fields:
            for _ in range(40):
                pts = _seeded_walk(rng, field.signature_sign, center)
                got, want = _recorded(arc_length, field, pts), _recorded(_reference_arc_length, field, pts)
                assert got == want, (field, pts)
                outcomes.add(got[0][0] if isinstance(got[0], tuple) else "ok")
            # a zero segment between signed zeros, whose second end starts the next one
            for pts in ([(0.0, center), (-0.0, center), (-0.0, center + 0.1)],
                        [(center, 0.0), (center, -0.0), (center + 0.1, -0.0)]):
                assert _recorded(arc_length, field, pts) == _recorded(_reference_arc_length, field, pts)
            # a mixed walk with a NaN point past its first mixed segment
            pts = [(center, center), (center + 0.1, center + 0.01), (center + 0.11, center + 0.2),
                   (math.nan, center), (center, center)]
            if field.signature_sign < 0.0:
                got = _recorded(arc_length, field, pts)
                assert got == _recorded(_reference_arc_length, field, pts)
                assert got[0] == ("MixedCausality", "polyline mixes spacelike and timelike segments")
                assert len(got[1]) == 2  # the mixed segment is the last one measured
        assert outcomes == {"ok", "MixedCausality", "DomainError"}


def _reference_arc_length(field, points):
    """The two-slice loop that ``arc_length`` replaced."""
    factor = field.factor
    s = field.signature_sign
    total = 0.0
    spacelike = timelike = False
    for (ax, ay), (bx, by) in zip(points[:-1], points[1:]):
        dx, dy = bx - ax, by - ay
        if dx == 0.0 and dy == 0.0:
            continue
        ds2 = factor(0.5 * (ax + bx), 0.5 * (ay + by)) * (dx * dx + s * dy * dy)
        if ds2 > 0.0:
            spacelike = True
        elif ds2 < 0.0:
            timelike = True
        if spacelike and timelike:
            raise MixedCausality("polyline mixes spacelike and timelike segments")
        total += math.sqrt(abs(ds2))
    return total


class _Recording:
    """A field that logs the points its factor is read at, as hex."""

    def __init__(self, field):
        self.field, self.calls = field, []
        self.signature_sign = field.signature_sign

    def factor(self, a, b):
        self.calls.append((a.hex(), b.hex()))
        return self.field.factor(a, b)


def _recorded(f, field, pts):
    """``f(field, pts)`` as hex or as the error's type name and message,
    with the factor calls it made."""
    rec = _Recording(field)
    try:
        out = f(rec, pts).hex()
    except GeometryError as exc:
        out = (type(exc).__name__, str(exc))
    return out, rec.calls


def _seeded_walk(rng, s, center):
    """A polyline of 2 to 30 points around ``(center, center)``: steps of one
    causal type (or of either, on a Lorentzian walk, one time in four), with
    repeated points, null legs (``|dx| = |dy|``), signed zeros, and now and
    then a point far out or NaN."""
    x = y = center
    pts = [(x, y)]
    mixed = rng.random() < 0.25
    timelike = rng.random() < 0.5
    for _ in range(rng.randrange(1, 30)):
        k = rng.random()
        if k < 0.1:
            pts.append(pts[-1])  # a repeated point
            continue
        if k < 0.12:
            pts.append((rng.choice((math.nan, 40.0, -0.0)), y))
            continue
        a, b = rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05)
        big, small = max(a, b), min(a, b)
        if k < 0.25:
            small = big  # a null leg on a Lorentzian walk
        if mixed:
            timelike = rng.random() < 0.5
        dx, dy = (small, big) if timelike and s < 0.0 else (big, small)
        x += rng.choice((-1.0, 1.0)) * dx
        y += rng.choice((-1.0, 1.0)) * dy
        pts.append((x, y))
    return pts


class TestTauField:
    def test_frozen_value(self):
        tau = TauField(0.7, 0.3, SurfaceSpec.from_name("lorentz-pos"))
        assert tau(0.8, 0.5) == pytest.approx(1.567854255158543, rel=1e-10)

    def test_reference_radii(self):
        assert TauField(0.2, 0.0, SurfaceSpec.from_name("lorentz-pos")).rho_ref == 0.0
        assert TauField(0.2, 0.0, SurfaceSpec.from_name("lorentz-neg")).rho_ref == 1.0

    def test_offset_and_linearity(self):
        tau = TauField(0.4, 1.5, SurfaceSpec.from_name("lorentz-pos"))
        assert tau(0.0, 0.0) == pytest.approx(1.5)
        assert tau(0.9, 1.2) - tau(0.9, -0.3) == pytest.approx(0.4 * 1.5, rel=1e-12)

    def test_definite_rejected(self):
        with pytest.raises(DomainError, match="Lorentzian"):
            TauField(0.4, 0.0, SurfaceSpec.from_name("def-neg"))

    def test_equality_hash_and_repr_read_the_constants_only(self):
        spec = SurfaceSpec.from_name("lorentz-neg")
        tau = TauField(0.4, 1.5, spec)
        assert tau == TauField(0.4, 1.5, spec)
        assert hash(tau) == hash((0.4, 1.5, spec))
        assert repr(tau).startswith("TauField(A=0.4, C=1.5, spec=SurfaceSpec(")

    def test_negative_surface_domain(self):
        tau = TauField(0.4, 0.0, SurfaceSpec.from_name("lorentz-neg"))
        with pytest.raises(DomainError, match="rho > 0"):
            tau(-0.1, 0.0)

    @pytest.mark.parametrize("A, rho", [(0.7, "nan"), (0.7, "inf"), ("nan", 0.8)])
    def test_non_finite_quadrature_is_a_domain_error(self, A, rho):
        # adaptive Simpson once recursed to depth 48 on a NaN bound or
        # integrand; the subprocess turns a regression into a failure
        code = (
            "from lorentzcc import DomainError, SurfaceSpec, TauField\n"
            f"tau = TauField(float('{A}'), 0.3, SurfaceSpec.from_name('lorentz-pos'))\n"
            "try:\n"
            f"    tau(float('{rho}'), 0.1)\n"
            "except DomainError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('no DomainError')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 0, proc.stderr


class TestBeltrami:
    def test_plane_line_families(self):
        # the first-kind residual is a timelike gradient, the second spacelike
        first = PlaneLine(LineKind.FIRST, 0.6, 0.2)
        second = PlaneLine(LineKind.SECOND, -0.3, 1.0)
        plane = FlatPlaneField()
        val1 = beltrami_delta1(plane, lambda x, y: first.residual(x, y), (0.4, -0.7))
        val2 = beltrami_delta1(plane, lambda x, y: second.residual(x, y), (0.4, -0.7))
        assert val1 == pytest.approx(-1.0, abs=1e-9)
        assert val2 == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "name, a", [("lorentz-pos", 0.7), ("lorentz-neg", 0.3)]
    )
    def test_arc_field_normalization(self, name, a):
        """Delta_1 tau equals the conformal factor on the geodesic family."""
        spec = SurfaceSpec.from_name(name)
        tau = TauField(a, 0.0, spec)
        field = MetricField(spec, Chart.ISOMETRIC)
        # at the last two rho a quadrature to tol 1e-10 refines differently
        # at rho - h and rho + h; the lorentz-pos probe read 5.4e-5 and 4.3e-5
        points = ((0.6, -0.4), (1.0, 0.8), (1.4, 0.1),
                  (0.6586864035243256, 0.3), (1.317726700614119, -0.2))
        for rho, phi in points:
            val = beltrami_delta1(field, tau, (rho, phi), step=1e-4)
            assert val == pytest.approx(field.factor(rho, 0.0), abs=1e-6)

    def test_quadrature_next_to_the_pole_stops_at_rounding_level(self, monkeypatch):
        # 1/sinh(r)^2 near r = 0: deep panels cannot meet their halved
        # tolerance, so without a rounding floor the calls explode
        # (9.2e5 at tol 1e-10, about 3e7 at rho = 1e-6 and tol 1e-13)
        calls = []
        factor = MetricField.factor
        monkeypatch.setattr(
            MetricField, "factor", lambda self, a, b: calls.append(a) or factor(self, a, b)
        )
        tau = TauField(0.3, 0.0, SurfaceSpec.from_name("lorentz-neg"))
        assert tau(1e-9, 0.0) == pytest.approx(-20.668575499742627, rel=1e-12)
        assert len(calls) < 300_000

    def test_near_singular(self):
        spec = SurfaceSpec.from_name("lorentz-neg")
        tau = TauField(0.3, 0.0, spec)
        with pytest.raises(NearSingular, match="stencil"):
            beltrami_delta1(MetricField(spec, Chart.ISOMETRIC), tau, (5e-5, 0.0), step=1e-4)


class TestConstantsCheck:
    """The tau field built from the conserved momentum ``A`` measures arc
    length along the closed-form geodesic with that ``A``: by quadrature,
    tau changes by exactly the parameter step between any two points."""

    @staticmethod
    def _tau_residuals(spec, eps, sigma, count=5, span=3.0):
        field = TauField(constant_A(spec, eps), 0.0, spec)
        fam = geodesic_family(spec, eps, sigma)
        lo, hi = (fam.tau0 + spec.radius * u for u in fam.window)
        taus = np.linspace(lo, min(hi, lo + span), count + 2)[1:-1]
        t_ref = float(taus[0])
        f_ref = field(*geodesic_parametric(spec, eps, sigma, t_ref))
        return [
            abs(abs(field(*geodesic_parametric(spec, eps, sigma, float(t))) - f_ref) - (t - t_ref))
            for t in taus[1:]
        ]

    def test_positive_surface_residuals(self):
        for radius, eps, sigma in ((1.0, 0.4, 0.1), (2.0, -0.3, 0.2)):
            spec = SurfaceSpec.from_name("lorentz-pos", radius)
            assert max(self._tau_residuals(spec, eps, sigma)) < 1e-10

    def test_negative_surface_residuals(self):
        for radius, eps, sigma in ((1.0, 0.4, 0.1), (1.3, -0.7, 0.3)):
            spec = SurfaceSpec.from_name("lorentz-neg", radius)
            assert max(self._tau_residuals(spec, eps, sigma)) < 1e-10


class TestIsothermalCurvature:
    @pytest.mark.parametrize(
        "name, x, y",
        [
            ("def-pos", 0.3, 0.2),
            ("def-neg", 0.3, -0.2),
            ("lorentz-pos", 0.0, 0.0),
            ("lorentz-pos", 0.4, 0.3),
            ("lorentz-neg", 1.8, 0.4),
        ],
    )
    def test_recovers_gauss_curvature(self, name, x, y):
        spec = SurfaceSpec.from_name(name)
        k = isothermal_curvature(MetricField(spec, Chart.CARTESIAN), x, y)
        assert k == pytest.approx(spec.gauss_curvature, rel=1e-6)

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_isometric_chart(self, name, radius):
        # L = ln factor depends on rho alone, so K = -L_rho_rho / (2 factor)
        spec = SurfaceSpec.from_name(name, radius)
        field = MetricField(spec, Chart.ISOMETRIC)
        for rho in (0.4, 0.9, 1.4):
            k = isothermal_curvature(field, rho, -0.3)
            assert k == pytest.approx(spec.gauss_curvature, rel=1e-6)

    def test_radius_scaling(self):
        field = MetricField(SurfaceSpec.from_name("def-neg", radius=2.0), Chart.CARTESIAN)
        assert isothermal_curvature(field, 0.4, 0.1) == pytest.approx(-0.25, rel=1e-6)

    def test_flat_plane_is_flat(self):
        assert isothermal_curvature(FlatPlaneField(), 0.7, -0.4) == 0.0

    def test_point_off_the_chart_raises_its_own_error(self):
        # the stencil around it is clear, the point itself is on the curve
        field = MetricField(SurfaceSpec.from_name("def-neg"), Chart.CARTESIAN)
        with pytest.raises(OnLimitingCurve):
            isothermal_curvature(field, 1.0, 0.0)
