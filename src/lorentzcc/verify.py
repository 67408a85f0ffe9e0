"""Cross-verification battery.

Ten independent checks, each pairing a closed-form statement with a purely
numerical route (finite differences, RK4 integration, quadrature) or with an
exactly known value.  The same battery backs ``lorentzcc verify`` and the
acceptance test suite; seeds make every run reproducible.

Each check is a function ``(rng, scale, perturb) -> (measured, detail)``
that only measures: ``rng`` is its own seeded generator, ``scale`` sizes
its randomized workload and ``perturb`` is the metric-tampering knob of
:func:`run_all`.  A check that cannot measure at all (too few valid draws,
an expected intersection missing, a null input accepted) raises
``_Unmeasured(detail)``.  The table ``_CHECKS`` maps each name, in battery
order, to its function and default tolerance, and :func:`run_all` alone
turns a measurement into a :class:`CheckResult`: passed when ``measured <=
tolerance``, and failed with ``measured = inf`` under any tolerance when
the check could not measure.

Checks that bundle several sub-measurements with different natural scales
report ``measured`` as the worst sub-error divided by its own default bound,
against a tolerance of 1.0; single-quantity checks report the raw worst
error against an absolute tolerance.  The per-check meaning is spelled out
in each ``detail`` string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, NoRealIntersection
from .geodesic import (
    LineKind,
    _uses_tan,
    constant_A,
    geodesic_from_AB,
    geodesic_from_constants,
    geodesic_parametric,
    geodesic_parametric_with_velocity,
    hyperbola_parameters,
    limiting_curve,
    limiting_intersections,
    plane_geodesic,
    worldline_hyperbolic,
)
from .hypernum import (
    HyperbolicNumber,
    hyper_exp,
    inverse,
    mul,
    polar,
    square_modulus,
)
from .motion import (
    BilinearMotion,
    apply as motion_apply,
    geodesic_distance,
    geodesic_through,
    inverse_motion,
    number_for,
    solve_two_point,
)
from .oracle import (
    GeodesicState,
    TauField,
    arc_length,
    beltrami_delta1,
    integrate_geodesic,
)
from .surface import (
    Chart,
    MetricField,
    SurfaceSpec,
    exp_map_pushforward,
    exp_map_to_cartesian,
    gauss_curvature_of_profile,
    line_element_cartesian,
)

__all__ = ["CheckResult", "CHECK_NAMES", "DEFAULT_TOLERANCES", "run_all"]


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: measured {self.measured:.3e} "
            f"(tolerance {self.tolerance:.1e}) - {self.detail}"
        )


class _Unmeasured(Exception):
    """A check could not measure; its argument is the detail to report."""


_SURFACES = (
    SurfaceSpec.definite_positive(),
    SurfaceSpec.definite_negative(),
    SurfaceSpec.lorentzian_positive(),
    SurfaceSpec.lorentzian_negative(),
)


def _conic_error(conic, x: float, y: float) -> float:
    """Conic residual at ``(x, y)`` relative to the conic's largest term."""
    term = max(
        1.0,
        abs(conic.quad) * (x * x + y * y),
        abs(conic.lin_x * x),
        abs(conic.lin_y * y),
        abs(conic.const_term),
    )
    return abs(conic.residual(x, y)) / term


def _sign_draw(rng) -> float:
    return 1.0 if rng.integers(0, 2) == 0 else -1.0


def _eps_range(spec: SurfaceSpec) -> tuple[float, float]:
    # tan-based families keep a margin below pi/2
    return (0.05, 1.2) if _uses_tan(spec) else (0.05, 1.5)


def _u_window(spec: SurfaceSpec, eps: float) -> tuple[float, float]:
    """Arc-parameter window (in u = (tau - tau0)/R) safely inside the chart."""
    if spec.metric_sign > 0.0:
        return (-0.4, 0.4)
    if spec.kappa > 0.0:
        h = min(0.4, 0.8 * math.asin(1.0 / math.cosh(eps)))
        return (-h, h)
    # lorentz-neg: start where rho = 2 and walk down the branch
    u_s = math.acosh(1.0 / (math.tanh(2.0) * math.cos(eps)))
    return (u_s, u_s + 0.8)


# --------------------------------------------------------------------------
# 1. profile curvature


def _check_profile_curvature(rng, scale, perturb) -> tuple[float, str]:
    worst = 0.0
    count = 0
    for r in (0.5, 1.0, 3.0):
        cases = (
            (lambda u, r=r: r * math.sin(u / r), 1.0 / (r * r), 0.3 * r, (math.pi - 0.3) * r),
            (lambda u, r=r: r * math.sinh(u / r), -1.0 / (r * r), 0.3 * r, 3.0 * r),
        )
        for profile, expected, lo, hi in cases:
            # keep the FD step near the optimum for a second difference:
            # rounding noise grows with the profile value, so scale with R
            step = 1e-4 * max(1.0, r)
            for u in np.linspace(lo, hi, 10):
                k = gauss_curvature_of_profile(profile, float(u), step=step)
                worst = max(worst, abs(k - expected) / abs(expected))
                count += 1
    return (
        worst,
        f"max relative curvature error over {count} probes "
        "(sin/sinh profiles, R in {0.5, 1, 3}, FD step 1e-4*max(1,R))",
    )


# --------------------------------------------------------------------------
# 2. parametric geodesics vs conics and arc length


def _check_closed_form_consistency(rng, scale, perturb) -> tuple[float, str]:
    n_draws = max(3, int(round(20 * scale)))
    n_poly = max(2000, int(round(3000 * scale)))
    worst_conic = 0.0
    worst_arc = 0.0
    for spec in _SURFACES:
        field = MetricField(spec, Chart.ISOMETRIC)
        lo_e, hi_e = _eps_range(spec)
        for _ in range(n_draws):
            eps = _sign_draw(rng) * rng.uniform(lo_e, hi_e)
            sigma = rng.uniform(-1.5, 1.5)
            conic = geodesic_from_constants(spec, eps, sigma)
            tau0 = constant_A(spec, eps) * sigma
            u_lo, u_hi = _u_window(spec, eps)
            for u in np.linspace(u_lo, u_hi, 40):
                rho, phi = geodesic_parametric(spec, eps, sigma, tau0 + float(u))
                x, y = exp_map_to_cartesian(spec, rho, phi)
                worst_conic = max(worst_conic, _conic_error(conic, x, y))
            poly = [
                geodesic_parametric(spec, eps, sigma, tau0 + float(u))
                for u in np.linspace(u_lo, u_hi, n_poly + 1)
            ]
            length = arc_length(field, poly)
            expect = u_hi - u_lo
            worst_arc = max(worst_arc, abs(length - expect) / max(1.0, expect))
    measured = max(worst_conic / 1e-9, worst_arc / 1e-6)
    return (
        measured,
        f"worst of conic residual / 1e-9 (= {worst_conic:.2e}) and polyline "
        f"arc-length error / 1e-6 (= {worst_arc:.2e}), "
        f"{n_draws} draws per surface",
    )


# --------------------------------------------------------------------------
# 3. closed forms vs RK4 on the FD metric


class _ScaledField:
    """Conformal factor multiplied by a constant (metric tampering hook)."""

    def __init__(self, base: MetricField, scale: float):
        self._base = base
        self._scale = scale
        self.signature_sign = base.signature_sign
        self.chart = base.chart

    def factor(self, a: float, b: float) -> float:
        return self._scale * self._base.factor(a, b)

    def boundary_distance(self, a: float, b: float) -> float:
        return self._base.boundary_distance(a, b)


def _check_oracle_equivalence(rng, scale, perturb) -> tuple[float, str]:
    n_geo = max(1, int(round(5 * scale)))
    length = 1.0 if scale >= 1.0 else max(0.2, float(scale))
    step = 1e-3
    worst = 0.0
    for spec in _SURFACES:
        base_field = MetricField(spec, Chart.CARTESIAN)
        field = _ScaledField(base_field, 1.0 + perturb) if perturb else base_field
        for _ in range(n_geo):
            eps = _sign_draw(rng) * rng.uniform(0.1, 1.0)
            sigma = rng.uniform(-1.5, 1.5)
            tau0 = constant_A(spec, eps) * sigma
            if spec.metric_sign < 0.0 and spec.kappa < 0.0:
                tau_launch = tau0 + _u_window(spec, eps)[0]
            else:
                tau_launch = tau0 - 0.5
            (rho, phi), (drho, dphi) = geodesic_parametric_with_velocity(
                spec, eps, sigma, tau_launch
            )
            x, y = exp_map_to_cartesian(spec, rho, phi)
            vx, vy = exp_map_pushforward(spec, rho, phi, drho, dphi)
            lam = field.factor(x, y)
            speed = math.sqrt(abs(lam * (vx * vx + field.signature_sign * vy * vy)))
            state = GeodesicState((x, y), (vx / speed, vy / speed), Chart.CARTESIAN)
            states = integrate_geodesic(field, state, length, step)
            for k in range(0, len(states), 50):
                expected = exp_map_to_cartesian(
                    spec, *geodesic_parametric(spec, eps, sigma, tau_launch + k * step)
                )
                px, py = states[k].position
                worst = max(worst, math.hypot(px - expected[0], py - expected[1]))
    return (
        worst,
        f"max Cartesian-chart distance between RK4 (FD Christoffels, step {step}) "
        f"and the closed-form track, {n_geo} geodesics per surface, length {length}",
    )


# --------------------------------------------------------------------------
# 4. motions preserve the line element and distances


def _draw_offnull(rng, spec: SurfaceSpec, bound: float, floor: float = 1e-3):
    """A point of the square ``[-bound, bound]^2`` with ``|x| + |y| >= floor``,
    kept 5% away from the null lines on Lorentzian surfaces."""
    while True:
        x = rng.uniform(-bound, bound)
        y = rng.uniform(-bound, bound)
        ax, ay = abs(x), abs(y)
        if spec.metric_sign < 0.0 and abs(ax - ay) <= 0.05 * (ax + ay):
            continue
        if ax + ay < floor:
            continue
        return number_for(spec, x, y)


def _check_motion_invariance(rng, scale, perturb) -> tuple[float, str]:
    n = max(5, int(round(50 * scale)))
    worst_push = 0.0
    worst_dist = 0.0
    short = None
    for spec in _SURFACES:
        made = 0
        attempts = 0
        while made < n and attempts < 400 * n:
            attempts += 1
            alpha = number_for(spec, 1.0, rng.uniform(-0.3, 0.3))
            beta = number_for(spec, rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            z1 = _draw_offnull(rng, spec, 0.4)
            z2 = _draw_offnull(rng, spec, 0.4)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            dx, dy = math.cos(ang), math.sin(ang)
            # skip near-null directions (never met on definite surfaces)
            if abs(dx * dx + spec.metric_sign * dy * dy) < 1e-3 * (dx * dx + dy * dy):
                continue
            try:
                motion = BilinearMotion(alpha, beta, spec)
                w1 = motion_apply(motion, z1)
                w2 = motion_apply(motion, z2)
                ds2_src = line_element_cartesian(spec, z1.x, z1.y, dx, dy)
                delta = 1e-6
                zp = motion_apply(motion, type(z1)(z1.x + delta * dx, z1.y + delta * dy))
                zm = motion_apply(motion, type(z1)(z1.x - delta * dx, z1.y - delta * dy))
                dwx = (zp.x - zm.x) / (2.0 * delta)
                dwy = (zp.y - zm.y) / (2.0 * delta)
                ds2_img = line_element_cartesian(spec, w1.x, w1.y, dwx, dwy)
                l_src = solve_two_point(spec, z1, z2).l
                l_img = solve_two_point(spec, w1, w2).l
            except GeometryError:
                continue
            worst_push = max(worst_push, abs(ds2_img - ds2_src) / abs(ds2_src))
            worst_dist = max(worst_dist, abs(l_img - l_src))
            made += 1
        if made < n:
            short = spec.name
    if short is not None:
        raise _Unmeasured(f"could not draw enough valid samples on {short}")
    measured = max(worst_push / 1e-6, worst_dist / 1e-9)
    return (
        measured,
        f"worst of line-element FD invariance / 1e-6 (= {worst_push:.2e}) and "
        f"two-point abscissa invariance / 1e-9 (= {worst_dist:.2e}), "
        f"{n} motions per surface",
    )


# --------------------------------------------------------------------------
# 5. two-point normal form round trips


def _check_two_point_solver(rng, scale, perturb) -> tuple[float, str]:
    n = max(3, int(round(20 * scale)))
    n_quad = max(400, int(round(2000 * scale)))
    worst_round = 0.0
    worst_conic = 0.0
    worst_dist = 0.0
    for spec in _SURFACES:
        field = MetricField(spec, Chart.CARTESIAN)
        made = 0
        attempts = 0
        while made < n and attempts < 400 * n:
            attempts += 1
            z1 = _draw_offnull(rng, spec, 0.4)
            z2 = _draw_offnull(rng, spec, 0.4)
            try:
                sol = solve_two_point(spec, z1, z2)
            except GeometryError:
                continue
            motion = sol.motion
            w1 = motion_apply(motion, z1)
            w2 = motion_apply(motion, z2)
            inv = inverse_motion(motion)
            b1 = motion_apply(inv, w1)
            b2 = motion_apply(inv, w2)
            worst_round = max(
                worst_round,
                abs(w1.x),
                abs(w1.y),
                abs(w2.y),
                abs(w2.x - sol.l),
                abs(b1.x - z1.x),
                abs(b1.y - z1.y),
                abs(b2.x - z2.x),
                abs(b2.y - z2.y),
            )
            conic = geodesic_through(spec, z1, z2)
            for z in (z1, z2):
                worst_conic = max(worst_conic, _conic_error(conic, z.x, z.y))
            dist = geodesic_distance(spec, z1, z2)
            path = [
                motion_apply(inv, number_for(spec, t, 0.0))
                for t in np.linspace(0.0, sol.l, n_quad + 1)
            ]
            qlen = arc_length(field, [(p.x, p.y) for p in path])
            worst_dist = max(worst_dist, abs(qlen - dist))
            made += 1
        if made < n:
            raise _Unmeasured(f"could not draw enough joinable pairs on {spec.name}")
    measured = max(worst_round / 1e-12, worst_conic / 1e-9, worst_dist / 1e-6)
    return (
        measured,
        f"worst of normal-form round trip / 1e-12 (= {worst_round:.2e}), "
        f"conic-through-points residual / 1e-9 (= {worst_conic:.2e}), "
        f"distance vs quadrature / 1e-6 (= {worst_dist:.2e}), "
        f"{n} pairs per surface",
    )


# --------------------------------------------------------------------------
# 6. a pinned distance value, two surfaces, two routes


def _check_distance_benchmark(rng, scale, perturb) -> tuple[float, str]:
    target = math.log(3.0)
    n_quad = max(20000, int(round(20000 * scale)))
    worst = 0.0
    for spec in [sp for sp in _SURFACES if sp.kappa < 0.0]:
        d = geodesic_distance(spec, (0.0, 0.0), (0.5, 0.0))
        worst = max(worst, abs(d - target))
        xs = np.linspace(0.0, 0.5, n_quad + 1)
        qlen = arc_length(
            MetricField(spec, Chart.CARTESIAN), [(float(x), 0.0) for x in xs]
        )
        worst = max(worst, abs(qlen - target))
    return (
        worst,
        "distance from the center to (0.5, 0) on both R=1 negative-curvature "
        f"surfaces vs ln 3, closed form and {n_quad}-segment quadrature",
    )


# --------------------------------------------------------------------------
# 7. geodesics vs the limiting curve


def _check_limiting_orthogonality(rng, scale, perturb) -> tuple[float, str]:
    n = max(3, int(round(20 * scale)))
    worst = 0.0
    spec_p, spec_n = _SURFACES[2:]
    lim_n = limiting_curve(spec_n)
    for _ in range(n):
        eps = _sign_draw(rng) * rng.uniform(0.05, 1.2)
        sigma = rng.uniform(-1.5, 1.5)
        conic = geodesic_from_constants(spec_n, eps, sigma)
        try:
            hits = limiting_intersections(spec_n, conic)
        except NoRealIntersection:
            raise _Unmeasured(
                f"lorentz-neg geodesic (eps={eps:.3f}, sigma={sigma:.3f}) "
                "unexpectedly missed the limiting curve"
            )
        if len(hits) != 2:
            raise _Unmeasured(f"expected 2 limiting-curve crossings, got {len(hits)}")
        for hit in hits:
            g1 = conic.gradient(hit.x, hit.y)
            g2 = lim_n.gradient(hit.x, hit.y)
            norm = math.hypot(*g1) * math.hypot(*g2)
            worst = max(worst, abs(hit.product) / norm)
    for _ in range(n):
        eps = _sign_draw(rng) * rng.uniform(0.05, 1.5)
        sigma = rng.uniform(-1.5, 1.5)
        conic = geodesic_from_constants(spec_p, eps, sigma)
        try:
            hits = limiting_intersections(spec_p, conic)
        except NoRealIntersection:
            continue
        raise _Unmeasured(
            f"lorentz-pos geodesic (eps={eps:.3f}) unexpectedly crossed the "
            f"limiting curve at {len(hits)} points"
        )
    return (
        worst,
        "max normalized gradient pairing at lorentz-neg limiting-curve "
        f"crossings ({n} geodesics; lorentz-pos checked to never cross)",
    )


# --------------------------------------------------------------------------
# 8. arc-length fields solve the eikonal property


def _check_beltrami_fields(rng, scale, perturb) -> tuple[float, str]:
    worst = 0.0
    # flat plane: the two line families give -1 / +1 exactly
    for kind, expected in ((LineKind.FIRST, -1.0), (LineKind.SECOND, 1.0)):
        for _ in range(3):
            theta = rng.uniform(-1.2, 1.2)
            c = rng.uniform(-1.0, 1.0)
            line = plane_geodesic(kind, theta, c)

            def tau_plane(a: float, b: float, line=line) -> float:
                return line.residual(a, b)

            pt = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            val = beltrami_delta1(None, tau_plane, pt, step=1e-4)
            worst = max(worst, abs(val - expected))
    # curved: tau fields built by quadrature, compared to the conformal factor
    n_pts = max(2, int(round(5 * scale)))
    for spec, a_const in zip(_SURFACES[2:], (0.7, 0.3)):
        tau = TauField(a_const, 0.3, spec)
        metric = MetricField(spec, Chart.ISOMETRIC)
        for _ in range(n_pts):
            rho = rng.uniform(0.5, 1.5)
            phi = rng.uniform(-1.0, 1.0)
            val = beltrami_delta1(spec, tau, (rho, phi), step=1e-4)
            worst = max(worst, abs(val - metric.factor(rho, 0.0)))
    return (
        worst,
        "max |(d_rho tau)^2 - (d_phi tau)^2 - factor| on curved tau fields "
        "(A = 0.7 / 0.3) and |... -/+ 1| for the two flat line families, "
        "FD step 1e-4",
    )


# --------------------------------------------------------------------------
# 9. worldline hyperbola invariant + completed-square conic forms


def _check_worldline_invariant(rng, scale, perturb) -> tuple[float, str]:
    worst_wl = 0.0
    for g in (0.5, 1.0, 2.0):
        wl = worldline_hyperbolic(g, t0=rng.uniform(-1.0, 1.0), x0=rng.uniform(-1.0, 1.0))
        for s in np.linspace(-5.0, 5.0, 101):
            worst_wl = max(worst_wl, wl.invariant_residual(float(s)))
    worst_cs = 0.0
    n = max(2, int(round(5 * scale)))
    for spec in [sp for sp in _SURFACES if sp.metric_sign < 0.0]:
        hi = 0.9 if spec.kappa < 0.0 else 2.0
        for _ in range(n):
            a_const = _sign_draw(rng) * rng.uniform(0.1, hi)
            b_const = rng.uniform(-1.5, 1.5)
            x0, y0, d = hyperbola_parameters(spec, a_const, b_const)
            conic = geodesic_from_AB(spec, a_const, b_const)
            for _ in range(4):
                x = rng.uniform(-2.0, 2.0)
                y = rng.uniform(-2.0, 2.0)
                completed = (y - y0) ** 2 - (x - x0) ** 2 - d * d
                # the completed square equals -R^2 * residual (R = 1 here)
                err = abs(completed + conic.residual(x, y))
                worst_cs = max(worst_cs, err / max(1.0, abs(completed)))
    measured = max(worst_wl / 1e-12, worst_cs / 1e-9)
    return (
        measured,
        f"worst of worldline invariant residual / 1e-12 (= {worst_wl:.2e}, "
        "scale-relative) and completed-square conic identity / 1e-9 "
        f"(= {worst_cs:.2e})",
    )


# --------------------------------------------------------------------------
# 10. split-complex algebra laws


def _rejects(fn, z) -> bool:
    """True when ``fn(z)`` raises a :class:`GeometryError`."""
    try:
        fn(z)
    except GeometryError:
        return True
    return False


def _check_algebra_properties(rng, scale, perturb) -> tuple[float, str]:
    n = max(50, int(round(1000 * scale)))
    plane = SurfaceSpec.lorentzian_positive()  # draws hyperbolic numbers
    worst = 0.0
    for _ in range(n):
        a = _draw_offnull(rng, plane, 3.0, floor=0.1)
        b = _draw_offnull(rng, plane, 3.0, floor=0.1)
        da, db = square_modulus(a), square_modulus(b)
        dab = square_modulus(mul(a, b))
        worst = max(worst, abs(dab - da * db) / max(1.0, abs(da * db)))
        unit = mul(a, inverse(a))
        worst = max(worst, abs(unit.x - 1.0), abs(unit.y))
        w1 = HyperbolicNumber(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        w2 = HyperbolicNumber(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        lhs = hyper_exp(w1 + w2)
        rhs = mul(hyper_exp(w1), hyper_exp(w2))
        norm = max(1.0, abs(lhs.x), abs(lhs.y))
        worst = max(worst, abs(lhs.x - rhs.x) / norm, abs(lhs.y - rhs.y) / norm)
        dexp = square_modulus(hyper_exp(w1))
        expect = math.exp(2.0 * w1.x)
        worst = max(worst, abs(dexp - expect) / max(1.0, expect))
        back = polar(a).reconstruct()
        norm = max(1.0, abs(a.x), abs(a.y))
        worst = max(worst, abs(back.x - a.x) / norm, abs(back.y - a.y) / norm)
        t = rng.uniform(0.5, 3.0)
        null = HyperbolicNumber(t, math.copysign(t, rng.uniform(-1.0, 1.0)))
        if not _rejects(polar, null):
            raise _Unmeasured(f"polar form failed to reject the null element {null}")
        if not _rejects(inverse, null):
            raise _Unmeasured(f"inverse failed to reject the divisor of zero {null}")
    return (
        worst,
        f"max relative defect over {n} draws: D multiplicativity, inverses, "
        "exponential law, D(exp), polar round trip (null inputs rejected)",
    )


# --------------------------------------------------------------------------

# name -> (check, default tolerance), in battery order
_CHECKS = {
    "profile_curvature": (_check_profile_curvature, 1e-6),
    "closed_form_consistency": (_check_closed_form_consistency, 1.0),
    "oracle_equivalence": (_check_oracle_equivalence, 1e-5),
    "motion_invariance": (_check_motion_invariance, 1.0),
    "two_point_solver": (_check_two_point_solver, 1.0),
    "distance_benchmark": (_check_distance_benchmark, 1e-9),
    "limiting_orthogonality": (_check_limiting_orthogonality, 1e-9),
    "beltrami_fields": (_check_beltrami_fields, 1e-6),
    "worldline_invariant": (_check_worldline_invariant, 1.0),
    "algebra_properties": (_check_algebra_properties, 1e-12),
}

CHECK_NAMES = tuple(_CHECKS)
DEFAULT_TOLERANCES = {name: tol for name, (_, tol) in _CHECKS.items()}


def run_all(
    seed: int = 1234,
    tolerances: dict[str, float] | None = None,
    perturb: float = 0.0,
    scale: float = 1.0,
    names: tuple[str, ...] | None = None,
) -> list[CheckResult]:
    """Run the battery (or the subset ``names``), reproducibly.

    ``tolerances`` overrides per-check thresholds; ``scale`` shrinks or grows
    the randomized workloads; ``perturb`` multiplies the metric used by the
    numerical route of ``oracle_equivalence`` by ``1 + perturb`` (a tampering
    knob: any nonzero value must make that check fail).
    """
    overrides = tolerances or {}
    unknown = set(overrides) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown check names in tolerances: {sorted(unknown)}")
    if names is not None:
        missing = set(names) - set(CHECK_NAMES)
        if missing:
            raise ValueError(f"unknown check names: {sorted(missing)}")
    results = []
    for idx, (name, (check, default_tol)) in enumerate(_CHECKS.items()):
        if names is not None and name not in names:
            continue
        rng = np.random.default_rng([seed, idx])
        tol = float(overrides.get(name, default_tol))
        try:
            measured, detail = check(rng, scale, perturb)
            passed = measured <= tol
        except _Unmeasured as exc:
            measured, detail, passed = math.inf, str(exc), False
        results.append(CheckResult(name, bool(passed), float(measured), tol, detail))
    return results
