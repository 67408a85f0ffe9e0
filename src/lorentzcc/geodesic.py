"""Closed-form geodesics of the four constant-curvature surfaces.

In the conformal Cartesian chart every geodesic of every surface is a conic,
and the whole geodesic family is parametrized by two constants
``(eps, sigma)``:

    quad = 1/R^2,   const_term = -kappa
    (lin_x, lin_y) = (2 s S, -2 s C)/(R t),   (C, S) = cos_sin(-s, sigma)

with the surface signs ``s`` and ``kappa`` of :mod:`lorentzcc.surface`, so
``(C, S) = (cos, sin)(sigma)`` on definite and ``(cosh, sinh)(sigma)`` on
Lorentzian surfaces, and

    t = tan(eps),  A = R sin(eps)   where s = kappa: def-pos, lorentz-neg
    t = tanh(eps), A = R sinh(eps)  where s = -kappa: def-neg, lorentz-pos

(``|eps| < pi/2`` in the tan family).

``A`` is the conserved momentum conjugate to ``phi`` and ``sigma`` the
conserved phase; ``eps -> 0`` degenerates the conic into a straight line
through the origin (see :func:`origin_line`).  On definite surfaces the
conics are circles, on Lorentzian ones rectangular hyperbolas whose
completed-square form is returned by :func:`hyperbola_parameters`.

Arc-length parametrizations use ``u = (tau - tau0)/R`` with ``tau0 = A *
sigma``; the isometric-chart formulas per surface are implemented in
:func:`geodesic_parametric_with_velocity` and their validity intervals in
:func:`parametric_window`.

The flat Lorentz plane is covered separately by :class:`PlaneLine` (two
families of straight lines, by the causal character of the tangent) and
:class:`Worldline` (timelike hyperbolas of constant proper acceleration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DegenerateEpsilon,
    DomainError,
    NoRealIntersection,
    OutOfChart,
)
from .hypernum import cos_sin
from .surface import CurvatureSign, Signature, SurfaceSpec

__all__ = [
    "LineKind",
    "PlaneLine",
    "plane_geodesic",
    "GeodesicConic",
    "Worldline",
    "worldline_hyperbolic",
    "geodesic_from_constants",
    "geodesic_from_AB",
    "origin_line",
    "constant_A",
    "epsilon_from_constant",
    "geodesic_parametric",
    "geodesic_parametric_with_velocity",
    "parametric_window",
    "hyperbola_parameters",
    "circle_parameters",
    "limiting_curve",
    "LimitingIntersection",
    "limiting_intersections",
]


# --------------------------------------------------------------------------
# flat Lorentz plane


class LineKind(Enum):
    FIRST = "first_kind"
    SECOND = "second_kind"


@dataclass(frozen=True, slots=True)
class PlaneLine:
    """A straight geodesic of the flat Lorentz plane.

    First kind:   x sinh(theta) + y cosh(theta) = c   (unit spacelike tangent)
    Second kind:  x cosh(theta) + y sinh(theta) = c   (unit timelike tangent)
    """

    kind: LineKind
    theta: float
    c: float

    @property
    def base_point(self) -> tuple[float, float]:
        if self.kind is LineKind.FIRST:
            return (-self.c * math.sinh(self.theta), self.c * math.cosh(self.theta))
        return (self.c * math.cosh(self.theta), -self.c * math.sinh(self.theta))

    @property
    def tangent(self) -> tuple[float, float]:
        """Unit tangent: |dx^2 - dy^2| = 1 exactly."""
        if self.kind is LineKind.FIRST:
            return (math.cosh(self.theta), -math.sinh(self.theta))
        return (math.sinh(self.theta), -math.cosh(self.theta))

    def point_at(self, s: float) -> tuple[float, float]:
        bx, by = self.base_point
        tx, ty = self.tangent
        return (bx + s * tx, by + s * ty)

    def residual(self, x: float, y: float) -> float:
        if self.kind is LineKind.FIRST:
            return x * math.sinh(self.theta) + y * math.cosh(self.theta) - self.c
        return x * math.cosh(self.theta) + y * math.sinh(self.theta) - self.c


def plane_geodesic(kind: LineKind, theta: float, c: float) -> PlaneLine:
    """Geodesic of the flat Lorentz plane in normal form."""
    return PlaneLine(kind, theta, c)


@dataclass(frozen=True, slots=True)
class Worldline:
    """Uniformly accelerated observer in the flat Lorentz plane.

    Starting at rest at ``(t0, x0)`` with proper acceleration ``accel > 0``:

        t(s) = t0 + sinh(accel s)/accel
        x(s) = x0 + (cosh(accel s) - 1)/accel

    so that ``(x - x0 + 1/accel)^2 - (t - t0)^2 = 1/accel^2`` for every
    proper time ``s``.
    """

    t0: float
    x0: float
    accel: float

    def __post_init__(self) -> None:
        if not self.accel > 0.0:
            raise ValueError(f"proper acceleration must be positive, got {self.accel}")
        # the invariant holds 1/accel^2, which must be finite and nonzero
        a2 = self.accel * self.accel
        if not (0.0 < a2 < math.inf and 1.0 / a2 < math.inf):
            raise DomainError(f"1/accel^2 is not finite and nonzero at accel = {self.accel}")
        if not (math.isfinite(self.t0) and math.isfinite(self.x0)):
            raise DomainError(f"start event (t0, x0) = ({self.t0}, {self.x0}) is not finite")

    def _boost(self, s: float) -> tuple[float, float]:
        """``(cosh(accel s), sinh(accel s))``; a :class:`DomainError` where
        they overflow or ``accel s`` is not finite."""
        return cos_sin(1.0, self.accel * s)

    def position(self, s: float) -> tuple[float, float]:
        g = self.accel
        ch, sh = self._boost(s)
        return (self.t0 + sh / g, self.x0 + (ch - 1.0) / g)

    def velocity(self, s: float) -> tuple[float, float]:
        """(dt/ds, dx/ds); a unit timelike vector, so dx/dt = tanh(accel s)."""
        return self._boost(s)

    def invariant_residual(self, s: float) -> float:
        """Scale-relative defect of the hyperbola invariant at proper time s.

        Measured against ``max(1/accel^2, dx^2)`` because the raw difference
        of two nearly equal squares grows like ``dx^2 * ulp`` far along the
        branch, which no parametrization can beat in double precision.
        Where ``dx^2`` overflows (``accel s`` beyond about 355) the identity
        is divided through by ``dx^2`` before anything is squared.
        """
        t, x = self.position(s)
        dt = t - self.t0
        dx = x - self.x0 + 1.0 / self.accel
        target = 1.0 / (self.accel * self.accel)
        dx2 = dx * dx
        if math.isfinite(dx2):
            return abs((dx2 - dt * dt) - target) / max(target, dx2)
        q, k = dt / dx, 1.0 / (self.accel * dx)
        return abs((1.0 - q) * (1.0 + q) - k * k)


def worldline_hyperbolic(accel: float, t0: float = 0.0, x0: float = 0.0) -> Worldline:
    """Worldline of constant proper acceleration through ``(t0, x0)``."""
    return Worldline(t0, x0, accel)


# --------------------------------------------------------------------------
# conics


@dataclass(frozen=True, slots=True)
class GeodesicConic:
    """Conic ``quad (x^2 +/- y^2) + lin_x x + lin_y y + const_term = 0``.

    The sign inside the quadratic form follows the surface signature:
    ``x^2 + y^2`` on definite surfaces, ``x^2 - y^2`` on Lorentzian ones.
    """

    quad: float
    lin_x: float
    lin_y: float
    const_term: float
    spec: SurfaceSpec

    def __post_init__(self) -> None:
        if self.quad == 0.0 and self.lin_x == 0.0 and self.lin_y == 0.0:
            raise ValueError("conic must have a quadratic or linear part")

    def residual(self, x: float, y: float) -> float:
        s = self.spec.metric_sign
        return (
            self.quad * (x * x + s * y * y)
            + self.lin_x * x
            + self.lin_y * y
            + self.const_term
        )

    def gradient(self, x: float, y: float) -> tuple[float, float]:
        s = self.spec.metric_sign
        return (2.0 * self.quad * x + self.lin_x, 2.0 * s * self.quad * y + self.lin_y)


def _uses_tan(spec: SurfaceSpec) -> bool:
    # tan(eps) where s = kappa (def-pos, lorentz-neg), tanh(eps) elsewhere
    return spec.metric_sign == spec.kappa


def _check_eps(spec: SurfaceSpec, eps: float, sigma: float, tau: float = 0.0) -> None:
    if not (math.isfinite(eps) and math.isfinite(sigma) and math.isfinite(tau)):
        raise DomainError(
            f"eps, sigma and tau must be finite, got {eps}, {sigma} and {tau}"
        )
    if abs(eps) < 1e-12:
        raise DegenerateEpsilon(
            f"eps = {eps} degenerates the conic; use origin_line(spec, sigma) "
            "for the straight geodesic through the origin"
        )
    if _uses_tan(spec) and not abs(eps) < math.pi / 2.0:
        raise DomainError(f"{spec.name} needs |eps| < pi/2, got {eps}")


def constant_A(spec: SurfaceSpec, eps: float) -> float:
    """Conserved momentum A of the (eps, sigma) family.

    Raises:
        DomainError: |eps| >= pi/2 where A = R sin(eps); sinh(eps) overflows.
    """
    if _uses_tan(spec):
        if not abs(eps) < math.pi / 2.0:
            raise DomainError(f"{spec.name} needs |eps| < pi/2, got {eps}")
        return spec.radius * math.sin(eps)
    try:
        return spec.radius * math.sinh(eps)
    except OverflowError:
        raise DomainError(f"sinh(eps) overflows at eps = {eps}") from None


def epsilon_from_constant(spec: SurfaceSpec, A: float) -> float:
    """Inverse of :func:`constant_A`."""
    r = spec.radius
    if _uses_tan(spec):
        if not abs(A) < r:
            raise DomainError(f"{spec.name} needs |A| < R = {r}, got A = {A}")
        return math.asin(A / r)
    return math.asinh(A / r)


def geodesic_from_constants(
    spec: SurfaceSpec, eps: float, sigma: float
) -> GeodesicConic:
    """Conic of the geodesic with family constants ``(eps, sigma)``.

    Raises:
        DegenerateEpsilon: |eps| < 1e-12 (straight line; see origin_line).
        DomainError: |eps| >= pi/2 where t = tan(eps); eps or sigma not
            finite; cosh(sigma) overflows on a Lorentzian surface.
    """
    _check_eps(spec, eps, sigma)
    r, s = spec.radius, spec.metric_sign
    t = math.tan(eps) if _uses_tan(spec) else math.tanh(eps)
    c, sn = cos_sin(-s, sigma)
    lin_x = 2.0 * s * sn / (r * t)
    lin_y = -2.0 * s * c / (r * t)
    return GeodesicConic(1.0 / (r * r), lin_x, lin_y, -spec.kappa, spec)


def geodesic_from_AB(spec: SurfaceSpec, A: float, B: float) -> GeodesicConic:
    """Same family, entered through the conserved pair ``(A, B)``."""
    return geodesic_from_constants(spec, epsilon_from_constant(spec, A), B)


def origin_line(spec: SurfaceSpec, sigma: float) -> GeodesicConic:
    """Degenerate (eps = 0) member: the straight geodesic through the origin.

    Definite surfaces: the radial line at polar angle sigma.  Lorentzian
    surfaces: the timelike line ``y = tanh(sigma) x``.
    """
    s = spec.metric_sign
    c, sn = cos_sin(-s, sigma)
    return GeodesicConic(0.0, s * sn, -s * c, 0.0, spec)


# --------------------------------------------------------------------------
# arc-length parametrizations


def _sign(x: float) -> float:
    return math.copysign(1.0, x)


def geodesic_parametric_with_velocity(
    spec: SurfaceSpec, eps: float, sigma: float, tau: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Point and velocity of the (eps, sigma) geodesic at arc length tau.

    Returns ``((rho, phi), (drho/dtau, dphi/dtau))`` in the isometric chart;
    the parametrization is unit speed, ``tau`` is measured so that the
    turning point sits at ``tau0 = A * sigma``.

    Raises:
        OutOfChart: tau outside the window where the geodesic stays in the
            chart (see :func:`parametric_window`).
        DomainError: eps, sigma or tau not finite, or sinh(eps) overflows.
    """
    _check_eps(spec, eps, sigma, tau)
    r = spec.radius
    u = (tau - constant_A(spec, eps) * sigma) / r
    definite, positive = spec.metric_sign > 0.0, spec.kappa > 0.0

    if definite and positive:  # def-pos
        w = math.cos(eps) * math.sin(u)
        if abs(w) >= 1.0:
            raise OutOfChart(f"tau = {tau} hits the chart's removed point")
        rho = math.atanh(w)
        m = round(u / math.pi)
        delta = u - m * math.pi
        phi = sigma + _sign(eps) * m * math.pi + math.atan(math.sin(eps) * math.tan(delta))
        one_w2 = 1.0 - w * w
        drho = math.cos(eps) * math.cos(u) / one_w2
        cu, su = math.cos(u), math.sin(u)
        dphi = math.sin(eps) / (cu * cu + math.sin(eps) ** 2 * su * su)
        return (rho, phi), (drho / r, dphi / r)

    if definite:  # def-neg
        ch = math.cosh(eps) * math.cosh(u)
        w = 1.0 / ch
        if w >= 1.0:
            raise OutOfChart(f"tau = {tau} hits the chart's removed point")
        rho = math.atanh(w)
        phi = sigma + _sign(eps) * math.pi / 2.0 + math.atan(math.tanh(u) / math.sinh(eps))
        one_w2 = 1.0 - w * w
        drho = -w * math.tanh(u) / one_w2
        sh, se = math.sinh(u), math.sinh(eps)
        dphi = se / (se * se * math.cosh(u) ** 2 + sh * sh)
        return (rho, phi), (drho / r, dphi / r)

    if positive:  # lorentz-pos
        w = math.cosh(eps) * math.sin(u)
        if abs(w) >= 1.0:
            raise OutOfChart(
                f"tau = {tau} leaves the chart (|cosh(eps) sin(u)| >= 1, u = {u})"
            )
        rho = math.atanh(w)
        one_w2 = 1.0 - w * w
        sinh_rho = w / math.sqrt(one_w2)
        phi = sigma - math.asinh(math.tanh(eps) * sinh_rho)
        drho = math.cosh(eps) * math.cos(u) / one_w2
        dphi = -math.sinh(eps) * _sign(math.cos(u)) / one_w2
        return (rho, phi), (drho / r, dphi / r)

    # lorentz-neg
    # c - 1 for c = cos(eps) cosh(u), written without cancellation so that
    # c^2 - 1, rho and the velocity stay accurate next to the branch boundary
    cm1 = 2.0 * (math.cos(eps) * math.sinh(0.5 * u) ** 2 - math.sin(0.5 * eps) ** 2)
    if cm1 <= 0.0:
        raise OutOfChart(
            f"tau = {tau} is outside the branch (cos(eps) cosh(u) <= 1, u = {u})"
        )
    c = 1.0 + cm1
    rho = 0.5 * math.log1p(2.0 / cm1)
    c2m1 = cm1 * (c + 1.0)
    cosh_rho = c / math.sqrt(c2m1)
    phi = sigma - math.asinh(math.tan(eps) * cosh_rho)
    drho = -math.cos(eps) * math.sinh(u) / c2m1
    dphi = math.sin(eps) * _sign(u) / c2m1
    return (rho, phi), (drho / r, dphi / r)


def geodesic_parametric(
    spec: SurfaceSpec, eps: float, sigma: float, tau: float
) -> tuple[float, float]:
    """Isometric-chart point of the (eps, sigma) geodesic at arc length tau."""
    return geodesic_parametric_with_velocity(spec, eps, sigma, tau)[0]


def parametric_window(
    spec: SurfaceSpec, eps: float, sigma: float
) -> tuple[float, float]:
    """Principal open tau-interval on which the parametrization is in-chart.

    Definite surfaces: the whole line.  lorentz-pos: the window around the
    turning point tau0.  lorentz-neg: the branch beyond tau0 (the mirror
    branch ``tau < tau0 - ...`` is the reflection u -> -u).
    """
    _check_eps(spec, eps, sigma)
    r = spec.radius
    tau0 = constant_A(spec, eps) * sigma
    if spec.signature is Signature.DEFINITE:
        return (-math.inf, math.inf)
    if spec.curvature_sign is CurvatureSign.POSITIVE:
        u_star = math.asin(1.0 / math.cosh(eps))
        return (tau0 - r * u_star, tau0 + r * u_star)
    u_min = math.acosh(1.0 / math.cos(eps))
    return (tau0 + r * u_min, math.inf)


# --------------------------------------------------------------------------
# shapes in the Cartesian chart


def circle_parameters(
    spec: SurfaceSpec, eps: float, sigma: float
) -> tuple[float, float, float]:
    """Center and radius of a definite-surface geodesic circle."""
    if spec.signature is not Signature.DEFINITE:
        raise DomainError(
            f"{spec.name} geodesics are hyperbolas; see hyperbola_parameters"
        )
    conic = geodesic_from_constants(spec, eps, sigma)
    xc = -conic.lin_x / (2.0 * conic.quad)
    yc = -conic.lin_y / (2.0 * conic.quad)
    rad2 = xc * xc + yc * yc - conic.const_term / conic.quad
    return (xc, yc, math.sqrt(rad2))


def hyperbola_parameters(
    spec: SurfaceSpec, A: float, B: float
) -> tuple[float, float, float]:
    """Completed-square form of a Lorentzian geodesic conic.

    Returns ``(x0, y0, d)`` with ``(y - y0)^2 - (x - x0)^2 = d^2``:

        x0 = R sinh(B) root / A,  y0 = R cosh(B) root / A,  d = R^2 / A

    where ``root = sqrt(R^2 + A^2)`` on lorentz-pos and ``sqrt(R^2 - A^2)``
    on lorentz-neg (which therefore needs |A| < R).

    Raises:
        DegenerateEpsilon: A = 0 (the center escapes to infinity; the conic
            is the straight line y = tanh(B) x).
    """
    if spec.signature is not Signature.LORENTZIAN:
        raise DomainError(f"{spec.name} geodesics are circles, not hyperbolas")
    r = spec.radius
    if abs(A) < 1e-12 * r:
        raise DegenerateEpsilon(f"A = {A} gives a straight line, not a hyperbola")
    if spec.curvature_sign is CurvatureSign.POSITIVE:
        root = math.sqrt(r * r + A * A)
    else:
        if not abs(A) < r:
            raise DomainError(f"lorentz-neg needs |A| < R = {r}, got A = {A}")
        root = math.sqrt((r - A) * (r + A))
    return (
        r * math.sinh(B) * root / A,
        r * math.cosh(B) * root / A,
        r * r / A,
    )


def limiting_curve(spec: SurfaceSpec) -> GeodesicConic:
    """Curve where the Cartesian conformal factor diverges.

    ``x^2 + s y^2 + kappa R^2 = 0``; on def-pos the curve is imaginary
    (that chart has no boundary).
    """
    return GeodesicConic(1.0, 0.0, 0.0, spec.kappa * spec.radius * spec.radius, spec)


@dataclass(frozen=True, slots=True)
class LimitingIntersection:
    """Intersection of a conic with the limiting curve.

    ``product`` is the signature pairing of the two gradients there,
    ``g1.g2 = d_x F1 d_x F2 + s d_y F1 d_y F2``; its vanishing means the
    curves cross orthogonally in the sense of the ambient quadratic form.
    """

    x: float
    y: float
    product: float


def _solve_quadratic(qa: float, qb: float, qc: float) -> tuple[float, float]:
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        raise NoRealIntersection(
            f"discriminant {disc} < 0: no real intersection with the limiting curve"
        )
    sq = math.sqrt(disc)
    qq = -(qb + sq) / 2.0 if qb >= 0.0 else -(qb - sq) / 2.0
    r1 = qq / qa
    r2 = qc / qq if qq != 0.0 else -qb / qa - r1
    return r1, r2


def limiting_intersections(
    spec: SurfaceSpec, conic: GeodesicConic
) -> list[LimitingIntersection]:
    """Real intersections of a conic with the limiting curve of the chart.

    Family geodesics of lorentz-neg always yield two (this is how that
    surface's geodesics terminate); lorentz-pos family geodesics never meet
    the curve and raise :class:`NoRealIntersection`.  On def-neg the
    limiting curve is the circle ``x^2 + y^2 = R^2`` and geodesic circles
    cross it (orthogonally); def-pos has no real limiting curve at all.

    Raises:
        DomainError: def-pos (imaginary limiting curve).
        NoRealIntersection: no real common point.
    """
    s = spec.metric_sign
    if s > 0.0 and spec.kappa > 0.0:
        raise DomainError("def-pos has no real limiting curve")
    # both curves share the quadratic part x^2 + s y^2, so their common points
    # lie on the line a x + b y + k = 0 and on x^2 + s y^2 = rhs
    rhs = -spec.kappa * (spec.radius * spec.radius)
    a, b, k = conic.lin_x, conic.lin_y, conic.const_term + conic.quad * rhs
    if a == 0.0 and b == 0.0:
        if k == 0.0:
            raise ValueError("conic coincides with the limiting curve")
        raise NoRealIntersection("conic and limiting curve are disjoint level sets")
    if s < 0.0 and abs(a) == abs(b):
        # line parallel to an asymptote: a single crossing
        p = -k / a
        if p == 0.0:
            raise NoRealIntersection("asymptote-parallel line misses the curve")
        q = rhs / p
        if _sign(a) == _sign(b):
            pts = [((p + q) / 2.0, (p - q) / 2.0)]
        else:
            pts = [((q + p) / 2.0, (q - p) / 2.0)]
    elif abs(b) > abs(a):
        xs = _solve_quadratic(b * b + s * a * a, 2.0 * s * a * k, s * k * k - b * b * rhs)
        pts = [(x, -(a * x + k) / b) for x in xs]
    else:
        ys = _solve_quadratic(b * b + s * a * a, 2.0 * b * k, k * k - a * a * rhs)
        pts = [(-(b * y + k) / a, y) for y in ys]

    lim = limiting_curve(spec)
    out = []
    for x, y in pts:
        g1 = conic.gradient(x, y)
        g2 = lim.gradient(x, y)
        out.append(LimitingIntersection(x, y, g1[0] * g2[0] + s * g1[1] * g2[1]))
    return out
