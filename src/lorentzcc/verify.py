"""Cross-verification battery.

Ten independent checks, each pairing a closed-form statement with a purely
numerical route (finite differences, RK4 integration, quadrature) or with an
exactly known value.  The same battery backs ``lorentzcc verify`` and the
acceptance test suite; seeds make every run reproducible.

Each check is a function ``(rng, scale, perturb) -> (errors, note)`` that
only measures: ``rng`` is its own seeded generator, ``scale`` sizes its
randomized workload and ``perturb`` is the metric-tampering knob of
:func:`run_all`.  ``errors`` holds named sub-errors ``(name, value, bound)``,
each value the worst over the workload, and ``note`` describes the
workload.  A check bundling quantities of different natural scales gives
each its own bound and a tolerance of 1.0; a single-quantity check gives
``bound = 1.0`` and an absolute tolerance.  A check that cannot measure at
all (too few valid draws, an expected intersection missing, a null input
accepted) raises ``_Unmeasured(detail)``.

The table ``_CHECKS`` maps each name, in battery order, to its function and
its one pinned tolerance, a finite constant.  :func:`run_all` alone turns
errors into a :class:`CheckResult`: ``measured`` is the largest
``value / bound``, the check passes when ``measured <= tolerance``, and
``detail`` renders every sub-error and the note.  A check that could not
measure has no errors and fails with ``measured = inf``.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass

from .errors import GeometryError, NoRealIntersection
from .geodesic import (
    GeodesicFamily,
    LineKind,
    PlaneLine,
    Worldline,
    completed_square,
    epsilon_from_constant,
    geodesic_family,
    geodesic_from_constants,
    limiting_curve,
    limiting_intersections,
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
    inverse_motion,
    number_for,
    solve_two_point,
)
from .oracle import (
    FlatPlaneField,
    GeodesicState,
    TauField,
    arc_length,
    beltrami_delta1,
    integrate_geodesic,
    isothermal_curvature,
)
from .surface import (
    SURFACE_NAMES,
    Chart,
    MetricField,
    SurfaceSpec,
    exp_map_pushforward,
    exp_map_to_cartesian,
    line_element_cartesian,
)

__all__ = ["CheckResult", "CHECK_NAMES", "run_all"]


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    detail: str
    errors: tuple[tuple[str, float, float], ...]

    @property
    def passed(self) -> bool:
        """``measured <= tolerance``: false for a NaN or infinite ``measured``."""
        return self.measured <= self.tolerance

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: measured {self.measured:.3e} "
            f"(tolerance {self.tolerance:.1e}) - {self.detail}"
        )


class _Unmeasured(Exception):
    """A check could not measure; its argument is the detail to report."""


_SURFACES = tuple(SurfaceSpec.from_name(name) for name in SURFACE_NAMES)


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


def _worst(*values: float) -> float:
    """``max(values)``, but NaN if any value is NaN (``max`` keeps only a first NaN)."""
    return math.nan if any(v != v for v in values) else max(values)


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """``n >= 2`` evenly spaced floats from ``start`` to ``stop``:
    ``start + k step``, then ``stop`` exactly (``numpy.linspace``'s values)."""
    step = (stop - start) / (n - 1)
    return [start + k * step for k in range(n - 1)] + [stop]


def _valid_draws(rng, n: int, spec: SurfaceSpec, draw) -> list:
    """``n`` results of ``draw(rng, spec)``, skipping None and GeometryError;
    ``_Unmeasured`` if ``400 n`` attempts give fewer."""
    samples = []
    for _ in range(400 * n):
        try:
            sample = draw(rng, spec)
        except GeometryError:
            continue
        if sample is not None:
            samples.append(sample)
            if len(samples) == n:
                return samples
    raise _Unmeasured(f"could not draw {n} valid samples on {spec.name}")


def _signed_draw(rng, lo: float, hi: float) -> tuple[float, float]:
    """A family constant of random sign and magnitude in ``[lo, hi]``, and a
    phase in ``[-1.5, 1.5]``; drawn in that order: sign, magnitude, phase."""
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * rng.uniform(lo, hi), rng.uniform(-1.5, 1.5)


def _eps_range(spec: SurfaceSpec) -> tuple[float, float]:
    # the tan families (s = kappa) keep a margin below pi/2
    return (0.05, 1.2) if spec.metric_sign == spec.kappa else (0.05, 1.5)


def _u_window(fam: GeodesicFamily) -> tuple[float, float]:
    """A u-interval safely inside ``fam.window``."""
    if fam.spec.metric_sign > 0.0:
        return (-0.4, 0.4)
    if fam.spec.kappa > 0.0:
        h = min(0.4, 0.8 * fam.window[1])
        return (-h, h)
    # lorentz-neg: start where rho = 2 and walk down the branch
    u_s = math.acosh(1.0 / (math.tanh(2.0) * fam.C))
    return (u_s, u_s + 0.8)


@dataclass(frozen=True, slots=True)
class _ScaledField(MetricField):
    """A metric field whose factor is multiplied by ``scale``."""

    scale: float

    def factor(self, a: float, b: float) -> float:
        return self.scale * MetricField.factor(self, a, b)


def _metric(spec: SurfaceSpec, chart: Chart, perturb: float) -> MetricField:
    """The field the numerical routes read: tampered by ``1 + perturb``."""
    return _ScaledField(spec, chart, 1.0 + perturb) if perturb else MetricField(spec, chart)


# --------------------------------------------------------------------------
# 1. profile curvature: K of the library's metrics from ln(factor)


def _check_profile_curvature(rng, scale, perturb):
    # a fixed 3 x 3 grid per chart, clear of the limiting curves (|x|, |y|
    # <= 0.6 R) and of the kappa < 0 pole (rho >= 0.3)
    rel = []
    for r in (0.5, 1.0, 3.0):
        cart = _linspace(-0.6 * r, 0.6 * r, 3)
        grids = (
            (Chart.CARTESIAN, cart, 1e-4 * r),
            (Chart.ISOMETRIC, _linspace(0.3, 1.5, 3), 1e-4),
        )
        for name in SURFACE_NAMES:
            spec = SurfaceSpec.from_name(name, r)
            for chart, a_grid, step in grids:
                field = _metric(spec, chart, perturb)
                for a, b in itertools.product(a_grid, cart):
                    k = isothermal_curvature(field, a, b, step=step)
                    rel.append(abs(k / spec.gauss_curvature - 1.0))
    return (
        (("relative curvature error", _worst(*rel), 1.0),),
        f"{len(rel)} probes, K from FD of ln(factor) on both charts, R in {{0.5, 1, 3}}, "
        "step 1e-4 (1e-4*R Cartesian)",
    )


# --------------------------------------------------------------------------
# 2. parametric geodesics vs conics and arc length


def _check_closed_form_consistency(rng, scale, perturb):
    n_draws = max(3, int(round(20 * scale)))
    n_poly = max(2000, int(round(3000 * scale)))
    worst_conic = 0.0
    worst_arc = 0.0
    for spec in _SURFACES:
        field = MetricField(spec, Chart.ISOMETRIC)
        lo_e, hi_e = _eps_range(spec)
        for _ in range(n_draws):
            eps, sigma = _signed_draw(rng, lo_e, hi_e)
            conic = geodesic_from_constants(spec, eps, sigma)
            fam = geodesic_family(spec, eps, sigma)
            u_lo, u_hi = _u_window(fam)
            for u in _linspace(u_lo, u_hi, 40):
                x, y = exp_map_to_cartesian(spec, *fam.state(u)[0])
                worst_conic = _worst(worst_conic, _conic_error(conic, x, y))
            poly = [fam.state(u)[0] for u in _linspace(u_lo, u_hi, n_poly + 1)]
            length = arc_length(field, poly)
            expect = u_hi - u_lo
            worst_arc = _worst(worst_arc, abs(length - expect) / max(1.0, expect))
    return (
        ("conic residual", worst_conic, 1e-9),
        ("polyline arc-length error", worst_arc, 1e-6),
    ), f"{n_draws} draws per surface"


# --------------------------------------------------------------------------
# 3. closed forms vs RK4 on the FD metric


def _check_oracle_equivalence(rng, scale, perturb):
    n_geo = max(1, int(round(5 * scale)))
    length = 1.0 if scale >= 1.0 else max(0.2, float(scale))
    step = 1e-3
    worst = 0.0
    for spec in _SURFACES:
        field = _metric(spec, Chart.CARTESIAN, perturb)
        for _ in range(n_geo):
            eps, sigma = _signed_draw(rng, 0.1, 1.0)
            fam = geodesic_family(spec, eps, sigma)
            if spec.metric_sign < 0.0 and spec.kappa < 0.0:
                u_launch = _u_window(fam)[0]
            else:
                u_launch = -0.5
            (rho, phi), (drho, dphi) = fam.state(u_launch)
            x, y = exp_map_to_cartesian(spec, rho, phi)
            vx, vy = exp_map_pushforward(spec, rho, phi, drho, dphi)
            lam = field.factor(x, y)
            speed = math.sqrt(abs(lam * (vx * vx + field.signature_sign * vy * vy)))
            state = GeodesicState((x, y), (vx / speed, vy / speed))
            states = integrate_geodesic(field, state, length, step)
            for k in range(0, len(states), 50):
                # the last step ends at length, and may be short
                tau = min(k * step, length)
                expected = exp_map_to_cartesian(spec, *fam.state(u_launch + tau)[0])
                px, py = states[k].position
                worst = _worst(worst, math.hypot(px - expected[0], py - expected[1]))
    return (
        (("RK4 distance from the closed-form track", worst, 1.0),),
        f"Cartesian chart, step {step} on FD of ln(factor), "
        f"{n_geo} geodesics per surface, length {length}",
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


def _motion_sample(rng, spec: SurfaceSpec):
    """Line-element and two-point-abscissa defects of one random motion, or
    None for a near-null direction (never met on definite surfaces)."""
    alpha = number_for(spec, 1.0, rng.uniform(-0.3, 0.3))
    beta = number_for(spec, rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
    z1 = _draw_offnull(rng, spec, 0.4)
    z2 = _draw_offnull(rng, spec, 0.4)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    dx, dy = math.cos(ang), math.sin(ang)
    if abs(dx * dx + spec.metric_sign * dy * dy) < 1e-3 * (dx * dx + dy * dy):
        return None
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
    return abs(ds2_img - ds2_src) / abs(ds2_src), abs(l_img - l_src)


def _check_motion_invariance(rng, scale, perturb):
    n = max(5, int(round(50 * scale)))
    worst_push = 0.0
    worst_dist = 0.0
    for spec in _SURFACES:
        for push, dist in _valid_draws(rng, n, spec, _motion_sample):
            worst_push = _worst(worst_push, push)
            worst_dist = _worst(worst_dist, dist)
    return (
        ("line-element FD invariance", worst_push, 1e-6),
        ("two-point abscissa invariance", worst_dist, 1e-9),
    ), f"{n} motions per surface"


# --------------------------------------------------------------------------
# 5. two-point normal form round trips


def _joinable_pair(rng, spec: SurfaceSpec):
    z1, z2 = _draw_offnull(rng, spec, 0.4), _draw_offnull(rng, spec, 0.4)
    return z1, z2, solve_two_point(spec, z1, z2)


def _check_two_point_solver(rng, scale, perturb):
    n = max(3, int(round(20 * scale)))
    n_quad = 2 * max(200, int(round(1000 * scale)))  # even, for the half path
    worst_round = 0.0
    worst_conic = 0.0
    worst_dist = 0.0
    for spec in _SURFACES:
        field = MetricField(spec, Chart.CARTESIAN)
        for z1, z2, sol in _valid_draws(rng, n, spec, _joinable_pair):
            motion = sol.motion
            w1 = motion_apply(motion, z1)
            w2 = motion_apply(motion, z2)
            inv = inverse_motion(motion)
            b1 = motion_apply(inv, w1)
            b2 = motion_apply(inv, w2)
            worst_round = _worst(
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
            conic = sol.conic
            for z in (z1, z2):
                worst_conic = _worst(worst_conic, _conic_error(conic, z.x, z.y))
            dist = sol.distance
            ts = _linspace(0.0, sol.l, n_quad + 1)
            path = [motion_apply(inv, number_for(spec, t, 0.0)) for t in ts]
            pts = [(p.x, p.y) for p in path]
            # Richardson: the half path cancels the midpoint rule's h^2 term
            qlen = (4.0 * arc_length(field, pts) - arc_length(field, pts[::2])) / 3.0
            worst_dist = _worst(worst_dist, abs(qlen - dist))
    return (
        ("normal-form round trip", worst_round, 1e-12),
        ("conic-through-points residual", worst_conic, 1e-9),
        ("distance vs quadrature", worst_dist, 1e-6),
    ), f"{n} pairs per surface"


# --------------------------------------------------------------------------
# 6. a pinned distance value, two surfaces, two routes


def _check_distance_benchmark(rng, scale, perturb):
    target = math.log(3.0)
    n_quad = max(20000, int(round(20000 * scale)))
    worst = 0.0
    for spec in [sp for sp in _SURFACES if sp.kappa < 0.0]:
        d = geodesic_distance(spec, (0.0, 0.0), (0.5, 0.0))
        worst = _worst(worst, abs(d - target))
        xs = _linspace(0.0, 0.5, n_quad + 1)
        qlen = arc_length(MetricField(spec, Chart.CARTESIAN), [(x, 0.0) for x in xs])
        worst = _worst(worst, abs(qlen - target))
    return (
        (("|distance - ln 3|", worst, 1.0),),
        "center to (0.5, 0) on both R=1 negative-curvature surfaces, "
        f"closed form and {n_quad}-segment quadrature",
    )


# --------------------------------------------------------------------------
# 7. geodesics vs the limiting curve


def _check_limiting_orthogonality(rng, scale, perturb):
    n = max(3, int(round(20 * scale)))
    worst_pair = 0.0
    worst_hit = 0.0
    spec_p, spec_n = _SURFACES[2:]
    lim_n = limiting_curve(spec_n)
    s = spec_n.metric_sign
    for _ in range(n):
        eps, sigma = _signed_draw(rng, 0.05, 1.2)
        conic = geodesic_from_constants(spec_n, eps, sigma)
        try:
            hits = limiting_intersections(conic)
        except NoRealIntersection:
            raise _Unmeasured(
                f"lorentz-neg geodesic (eps={eps:.3f}, sigma={sigma:.3f}) "
                "unexpectedly missed the limiting curve"
            )
        if len(hits) != 2:
            raise _Unmeasured(f"expected 2 limiting-curve crossings, got {len(hits)}")
        for x, y in hits:
            g1 = conic.gradient(x, y)
            g2 = lim_n.gradient(x, y)
            pairing = g1[0] * g2[0] + s * g1[1] * g2[1]
            worst_pair = _worst(worst_pair, abs(pairing) / (math.hypot(*g1) * math.hypot(*g2)))
            worst_hit = _worst(worst_hit, _conic_error(conic, x, y), _conic_error(lim_n, x, y))
    for _ in range(n):
        eps, sigma = _signed_draw(rng, 0.05, 1.5)
        conic = geodesic_from_constants(spec_p, eps, sigma)
        try:
            hits = limiting_intersections(conic)
        except NoRealIntersection:
            continue
        raise _Unmeasured(
            f"lorentz-pos geodesic (eps={eps:.3f}) unexpectedly crossed the "
            f"limiting curve at {len(hits)} points"
        )
    return (
        ("normalized gradient pairing", worst_pair, 1e-9),
        ("hit residual on both curves", worst_hit, 1e-12),
    ), (
        f"limiting-curve crossings of {n} lorentz-neg geodesics; "
        "lorentz-pos checked to never cross"
    )


# --------------------------------------------------------------------------
# 8. arc-length fields solve the eikonal property


def _check_beltrami_fields(rng, scale, perturb):
    worst = 0.0
    plane = FlatPlaneField()
    # flat plane: the two line families give -1 / +1 exactly
    for kind, expected in ((LineKind.FIRST, -1.0), (LineKind.SECOND, 1.0)):
        for _ in range(3):
            theta = rng.uniform(-1.2, 1.2)
            c = rng.uniform(-1.0, 1.0)
            line = PlaneLine(kind, theta, c)
            pt = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            val = beltrami_delta1(plane, line.residual, pt, step=1e-4)
            worst = _worst(worst, abs(val - expected))
    # curved: tau fields built by quadrature, compared to the conformal factor
    n_pts = max(2, int(round(5 * scale)))
    for spec, a_const in zip(_SURFACES[2:], (0.7, 0.3)):
        tau = TauField(a_const, 0.3, spec)
        metric = MetricField(spec, Chart.ISOMETRIC)
        for _ in range(n_pts):
            rho = rng.uniform(0.5, 1.5)
            phi = rng.uniform(-1.0, 1.0)
            val = beltrami_delta1(metric, tau, (rho, phi), step=1e-4)
            worst = _worst(worst, abs(val - metric.factor(rho, 0.0)))
    return (
        (("|(d_rho tau)^2 - (d_phi tau)^2 - factor|", worst, 1.0),),
        "curved tau fields (A = 0.7 / 0.3), flat line families (factor -/+ 1), "
        "FD step 1e-4",
    )


# --------------------------------------------------------------------------
# 9. worldline hyperbola invariant + completed-square conic forms


def _check_worldline_invariant(rng, scale, perturb):
    worst_wl = 0.0
    for g in (0.5, 1.0, 2.0):
        wl = Worldline(t0=rng.uniform(-1.0, 1.0), x0=rng.uniform(-1.0, 1.0), accel=g)
        for s in _linspace(-5.0, 5.0, 101):
            worst_wl = _worst(worst_wl, wl.invariant_residual(s))
    worst_cs = 0.0
    n = max(2, int(round(5 * scale)))
    for spec in _SURFACES:
        s = spec.metric_sign
        hi = 0.9 if s == spec.kappa else 2.0
        for _ in range(n):
            a_const, b_const = _signed_draw(rng, 0.1, hi)
            x0, y0, d = completed_square(spec, a_const, b_const)
            conic = geodesic_from_constants(spec, epsilon_from_constant(spec, a_const), b_const)
            for _ in range(4):
                x = rng.uniform(-2.0, 2.0)
                y = rng.uniform(-2.0, 2.0)
                completed = s * (x - x0) ** 2 + (y - y0) ** 2 - d * d
                # the completed square equals s R^2 * residual (R = 1 here)
                err = abs(completed - s * conic.residual(x, y))
                worst_cs = _worst(worst_cs, err / max(1.0, abs(completed)))
    return (
        ("scale-relative worldline residual", worst_wl, 1e-12),
        ("completed-square conic identity", worst_cs, 1e-9),
    ), f"{n} conics per surface"


# --------------------------------------------------------------------------
# 10. split-complex algebra laws


def _rejects(fn, z) -> bool:
    """True when ``fn(z)`` raises a :class:`GeometryError`."""
    try:
        fn(z)
    except GeometryError:
        return True
    return False


def _check_algebra_properties(rng, scale, perturb):
    n = max(50, int(round(1000 * scale)))
    plane = SurfaceSpec.from_name("lorentz-pos")  # draws hyperbolic numbers
    worst = 0.0
    for _ in range(n):
        a = _draw_offnull(rng, plane, 3.0, floor=0.1)
        b = _draw_offnull(rng, plane, 3.0, floor=0.1)
        da, db = square_modulus(a), square_modulus(b)
        dab = square_modulus(mul(a, b))
        worst = _worst(worst, abs(dab - da * db) / max(1.0, abs(da * db)))
        unit = mul(a, inverse(a))
        worst = _worst(worst, abs(unit.x - 1.0), abs(unit.y))
        w1 = HyperbolicNumber(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        w2 = HyperbolicNumber(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        lhs = hyper_exp(w1 + w2)
        rhs = mul(hyper_exp(w1), hyper_exp(w2))
        norm = max(1.0, abs(lhs.x), abs(lhs.y))
        worst = _worst(worst, abs(lhs.x - rhs.x) / norm, abs(lhs.y - rhs.y) / norm)
        dexp = square_modulus(hyper_exp(w1))
        expect = math.exp(2.0 * w1.x)
        worst = _worst(worst, abs(dexp - expect) / max(1.0, expect))
        back = polar(a).reconstruct()
        norm = max(1.0, abs(a.x), abs(a.y))
        worst = _worst(worst, abs(back.x - a.x) / norm, abs(back.y - a.y) / norm)
        t = rng.uniform(0.5, 3.0)
        null = HyperbolicNumber(t, math.copysign(t, rng.uniform(-1.0, 1.0)))
        if not _rejects(polar, null):
            raise _Unmeasured(f"polar form failed to reject the null element {null}")
        if not _rejects(inverse, null):
            raise _Unmeasured(f"inverse failed to reject the divisor of zero {null}")
    return (
        (("relative defect", worst, 1.0),),
        f"{n} draws: D multiplicativity, inverses, exponential law, D(exp), "
        "polar round trip (null inputs rejected)",
    )


# --------------------------------------------------------------------------

# name -> (check, pinned tolerance), in battery order
_CHECKS = {
    "profile_curvature": (_check_profile_curvature, 1e-6),
    "closed_form_consistency": (_check_closed_form_consistency, 1.0),
    "oracle_equivalence": (_check_oracle_equivalence, 1e-5),
    "motion_invariance": (_check_motion_invariance, 1.0),
    "two_point_solver": (_check_two_point_solver, 1.0),
    "distance_benchmark": (_check_distance_benchmark, 1e-9),
    "limiting_orthogonality": (_check_limiting_orthogonality, 1.0),
    "beltrami_fields": (_check_beltrami_fields, 1e-6),
    "worldline_invariant": (_check_worldline_invariant, 1.0),
    "algebra_properties": (_check_algebra_properties, 1e-12),
}

CHECK_NAMES = tuple(_CHECKS)


def run_all(
    seed: int = 1234,
    perturb: float = 0.0,
    scale: float = 1.0,
    names: tuple[str, ...] | None = None,
) -> list[CheckResult]:
    """Run the battery (or the subset ``names``), reproducibly.

    Each check is judged against its pinned tolerance in ``_CHECKS``.
    ``scale`` shrinks or grows the randomized workloads; ``perturb``
    multiplies the metric read by the numerical routes of
    ``profile_curvature`` and ``oracle_equivalence`` by ``1 + perturb`` (a
    tampering knob: the measured curvature scales by ``1 / (1 + perturb)``
    and the RK4 track advances ``1 / sqrt(1 + perturb)`` as far per step, so
    any nonzero value must make both checks fail).  Each check draws from
    its own ``random.Random`` stream, seeded by the string
    ``"lorentzcc/{seed}/{index}"``, so a run is the same on every platform.
    """
    if operator.index(seed) < 0:  # a float seed would name another stream
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if names is not None:
        missing = set(names) - set(CHECK_NAMES)
        if missing:
            raise ValueError(f"unknown check names: {sorted(missing)}")
    results = []
    for idx, (name, (check, tol)) in enumerate(_CHECKS.items()):
        if names is not None and name not in names:
            continue
        rng = random.Random(f"lorentzcc/{seed}/{idx}")
        try:
            errors, note = check(rng, scale, perturb)
        except _Unmeasured as exc:
            results.append(CheckResult(name, math.inf, tol, str(exc), ()))
            continue
        measured = _worst(*(value / bound for _, value, bound in errors))
        shown = ", ".join(
            f"{label} {value:.2e}" + ("" if bound == 1.0 else f" (bound {bound:g})")
            for label, value, bound in errors
        )
        detail = f"{shown}; {note}"
        results.append(CheckResult(name, measured, tol, detail, errors))
    return results
