"""Closed-form geodesics of the four constant-curvature surfaces.

In the conformal Cartesian chart every geodesic of every surface is a conic,
and the whole geodesic family is parametrized by two constants
``(eps, sigma)``:

    quad = 1/R^2,   const_term = -kappa
    (lin_x, lin_y) = (2 s sn, -2 s cs)/(R t),   (cs, sn) = cos_sin(-s, sigma)

with the surface signs ``s`` and ``kappa`` of :mod:`lorentzcc.surface`, so
``(cs, sn) = (cos, sin)(sigma)`` on definite and ``(cosh, sinh)(sigma)`` on
Lorentzian surfaces.  ``eps`` enters through one pair ``(C, S)``, with
``t = S/C`` and ``A = R S``:

    (C, S) = (cos, sin)(eps)    where s = kappa: def-pos, lorentz-neg (|eps| < pi/2)
    (C, S) = (cosh, sinh)(eps)  where s = -kappa: def-neg, lorentz-pos

``A`` is the conserved momentum conjugate to ``phi`` and ``sigma`` the
conserved phase; ``eps -> 0`` degenerates the conic into a straight line
through the origin (see :func:`origin_line`).  On definite surfaces the
conics are circles, on Lorentzian ones rectangular hyperbolas: one conic
``s (x - x0)^2 + (y - y0)^2 = d^2`` read with ``s = +1`` or ``-1``, whose
center and ``d`` :func:`completed_square` returns from ``(A, sigma)``.
Their crossings with the limiting curve are plain ``(x, y)`` points
(:func:`limiting_intersections`).

The arc-length parametrization lives in ``u = (tau - A sigma)/R``: a
:class:`GeodesicFamily`, built once per ``(eps, sigma)`` by
:func:`geodesic_family`, holds ``(C, S)``, the in-chart u-window, the
point and velocity at ``u`` (:func:`geodesic_parametric_with_velocity` is
its tau form) and the points alone at a sequence of ``u``, in one loop
that forms the family constants once.  It has one branch per curvature
sign, primes d/du, definite surface first:

    kappa > 0:  tanh(rho) = w = C sin(u),   1 - w^2 = cos(u)^2 + s S^2 sin(u)^2
                rho' = C cos(u)/(1 - w^2),  phi' = (S or -S sign(cos u))/(1 - w^2)
    kappa < 0:  coth(rho) = c = C cosh(u),  c - 1 = 2 C sinh(u/2)^2 + s S^2/(1 + C)
                rho' = -C sinh(u)/(c^2 - 1),  phi' = (S or S sign(u))/(c^2 - 1)

Neither form cancels (``S^2/(1 + C)`` is ``2 S(eps/2)^2``), and ``rho`` is
read from it, as ``asinh(g)`` with ``g = sinh(rho) = w/sqrt(1 - w^2)`` and as
``log1p(2/(c - 1))/2``, so point and velocity agree to rounding.  ``phi`` is
the unwrapped ``atan`` on def-pos, ``±pi/2 + atan`` on def-neg, and
``sigma - asinh(t g)`` on the Lorentzian surfaces, where ``g = cosh(rho) =
c/sqrt(c^2 - 1)`` when kappa < 0.

The flat Lorentz plane is covered separately by :class:`PlaneLine` (two
families of straight lines, by the causal character of the tangent) and
:class:`Worldline` (timelike hyperbolas of constant proper acceleration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import (
    DegenerateEpsilon,
    DomainError,
    NoRealIntersection,
    OutOfChart,
)
from .hypernum import cos_sin
from .surface import SurfaceSpec

__all__ = [
    "LineKind",
    "PlaneLine",
    "GeodesicConic",
    "Worldline",
    "geodesic_from_constants",
    "origin_line",
    "constant_A",
    "epsilon_from_constant",
    "geodesic_parametric",
    "geodesic_parametric_with_velocity",
    "GeodesicFamily",
    "geodesic_family",
    "completed_square",
    "limiting_curve",
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

    def residual(self, x: float, y: float) -> float:
        ch, sh = cos_sin(1.0, self.theta)
        nx, ny = (sh, ch) if self.kind is LineKind.FIRST else (ch, sh)
        return x * nx + y * ny - self.c


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

    def position(self, s: float) -> tuple[float, float]:
        """``(t, x)`` at proper time s; raises :class:`DomainError` where
        ``accel s`` is not finite, cosh overflows, or ``t`` or ``x`` is not
        finite (``sinh(accel s) / accel`` overflows)."""
        g = self.accel
        ch, sh = cos_sin(1.0, g * s)
        t, x = self.t0 + sh / g, self.x0 + (ch - 1.0) / g
        if not (math.isfinite(t) and math.isfinite(x)):
            raise DomainError(f"worldline event ({t}, {x}) at s = {s} is not finite")
        return t, x

    def invariant_residual(self, s: float) -> float:
        """Scale-relative defect of the hyperbola invariant at proper time s.

        Measured against ``max(1/accel^2, dx^2)`` because the raw difference
        of two nearly equal squares grows like ``dx^2 * ulp`` far along the
        branch, which no parametrization can beat in double precision.
        Where ``dx^2`` overflows (``accel s`` beyond about 355) the identity
        is divided through by ``dx^2`` before anything is squared.

        Raises:
            DomainError: as :meth:`position`, or the residual is not finite
                (``x0`` absorbs the displacement, so ``dx`` cannot hold it).
        """
        t, x = self.position(s)
        dt = t - self.t0
        dx = x - self.x0 + 1.0 / self.accel
        target = 1.0 / (self.accel * self.accel)
        dx2 = dx * dx
        if math.isfinite(dx2):
            res = abs((dx2 - dt * dt) - target) / max(target, dx2)
        else:
            q, k = dt / dx, 1.0 / (self.accel * dx)
            res = abs((1.0 - q) * (1.0 + q) - k * k)
        if not math.isfinite(res):
            raise DomainError(f"invariant residual {res} at s = {s} is not finite")
        return res


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
        # factored where s < 0: x*x - y*y is inf - inf once both squares overflow
        square = x * x + y * y if self.spec.metric_sign > 0.0 else (x - y) * (x + y)
        return (
            self.quad * square
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


def _check_eps(spec: SurfaceSpec, eps: float, sigma: float = 0.0, line_ok: bool = False) -> None:
    """The one test of the family constants: both finite, ``|eps| >= 1e-12``
    unless ``line_ok``, and ``|eps| < pi/2`` where ``C = cos(eps)``."""
    if not (math.isfinite(eps) and math.isfinite(sigma)):
        raise DomainError(f"eps and sigma must be finite, got {eps} and {sigma}")
    if abs(eps) < 1e-12 and not line_ok:
        raise DegenerateEpsilon(
            f"eps = {eps} degenerates the conic; use origin_line(spec, sigma) "
            "for the straight geodesic through the origin"
        )
    if _uses_tan(spec) and not abs(eps) < math.pi / 2.0:
        raise DomainError(f"{spec.name} needs |eps| < pi/2, got {eps}")


def _family_trig(spec: SurfaceSpec, eps: float) -> tuple[float, float]:
    """``(C, S)`` of a checked eps: ``(cos, sin)(eps)`` where s = kappa,
    ``(cosh, sinh)(eps)`` elsewhere; raises where sinh(eps) or A overflows."""
    if _uses_tan(spec):
        return math.cos(eps), math.sin(eps)
    try:
        C, S = math.cosh(eps), math.sinh(eps)
    except OverflowError:
        raise DomainError(f"sinh(eps) overflows at eps = {eps}") from None
    if not math.isfinite(spec.radius * S):
        raise DomainError(f"A = R sinh(eps) overflows at R = {spec.radius}, eps = {eps}")
    return C, S


def constant_A(spec: SurfaceSpec, eps: float) -> float:
    """Conserved momentum ``A = R S`` of the (eps, sigma) family.

    Raises:
        DomainError: eps is not finite; |eps| >= pi/2 where A = R sin(eps);
            sinh(eps) or A overflows where A = R sinh(eps).
    """
    _check_eps(spec, eps, line_ok=True)
    return spec.radius * _family_trig(spec, eps)[1]


def _check_A(spec: SurfaceSpec, A: float) -> None:
    """``|A| < R`` where ``A = R sin(eps)``: the one test of the momentum's range."""
    if _uses_tan(spec) and not abs(A) < spec.radius:
        raise DomainError(f"{spec.name} needs |A| < R = {spec.radius}, got A = {A}")


def epsilon_from_constant(spec: SurfaceSpec, A: float) -> float:
    """Inverse of :func:`constant_A`.

    Raises:
        DomainError: |A| >= R where A = R sin(eps); eps is not finite.
    """
    _check_A(spec, A)
    r = spec.radius
    if _uses_tan(spec):
        return math.asin(A / r)
    eps = math.asinh(A / r)
    if not math.isfinite(eps):
        raise DomainError(f"eps of A = {A} is not finite")
    return eps


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


class GeodesicFamily(NamedTuple):
    """The (eps, sigma) geodesic family of one surface, in ``u = (tau - tau0)/R``.

    Built once by :func:`geodesic_family`, which checks ``(eps, sigma)``;
    ``(C, S)`` is the family's trig pair (see the module docstring).
    """

    spec: SurfaceSpec
    sigma: float
    C: float
    S: float

    @property
    def tau0(self) -> float:
        """Arc length ``A sigma = R S sigma`` of the turning point ``u = 0``."""
        return self.spec.radius * self.S * self.sigma

    @property
    def window(self) -> tuple[float, float]:
        """Principal open u-interval on which the family is in-chart.

        Definite surfaces: the whole line.  lorentz-pos: ``|u| < asin(1/C)``
        around the turning point.  lorentz-neg: the branch ``u > acosh(1/C)``
        (the mirror branch ``u < -acosh(1/C)`` is the reflection u -> -u).
        """
        if self.spec.metric_sign > 0.0:
            return (-math.inf, math.inf)
        if self.spec.kappa > 0.0:
            u_star = math.asin(1.0 / self.C)
            return (-u_star, u_star)
        return (math.acosh(1.0 / self.C), math.inf)

    def _track(self, us):
        """Yield, for each ``u`` of ``us``, the point ``(rho, phi)`` and the
        two numbers its velocity is formed from: ``(cos u, 1 - w^2)`` where
        kappa > 0, ``(u, c^2 - 1)`` where kappa < 0.  The family constants are
        formed once; each point raises what :meth:`state` raises."""
        spec, sigma, C, S = self
        s = spec.metric_sign
        # phi's constant: the sign of S on definite surfaces, t = S/C on Lorentzian ones
        if s > 0.0:
            sign_s = math.copysign(1.0, S)
        else:
            t = S / C

        if spec.kappa > 0.0:  # def-pos, lorentz-pos: tanh(rho) = w
            for u in us:
                if not math.isfinite(u):
                    raise DomainError(f"u = {u} is not finite")
                cu, su = math.cos(u), math.sin(u)
                w, v = C * su, S * su
                one_w2 = cu * cu + s * v * v
                if not (abs(w) < 1.0 and one_w2 > 0.0):
                    raise OutOfChart(f"u = {u} leaves the chart (|C sin(u)| >= 1)")
                sinh_rho = w / math.sqrt(one_w2)
                if s > 0.0:  # the angle unwrapped across the turns u = m pi
                    m = round(u / math.pi)
                    phi = sigma + sign_s * m * math.pi + math.atan(S * math.tan(u - m * math.pi))
                else:
                    phi = sigma - math.asinh(t * sinh_rho)
                yield (math.asinh(sinh_rho), phi), cu, one_w2
            return

        # def-neg, lorentz-neg: coth(rho) = c = 1 + cm1
        floor = s * S * (S / (1.0 + C))
        if s > 0.0:
            quarter = sigma + sign_s * math.pi / 2.0
        for u in us:
            if not math.isfinite(u):
                raise DomainError(f"u = {u} is not finite")
            sh = math.sinh(0.5 * u) if abs(u) < 1400.0 else math.inf  # sinh overflows past 1420
            cm1 = 2.0 * C * sh * sh + floor
            c2m1 = cm1 * (cm1 + 2.0)
            if not (cm1 > 0.0 and c2m1 < math.inf):
                raise OutOfChart(f"u = {u} is off the branch or overflows (c - 1 = {cm1})")
            if s > 0.0:
                phi = quarter + math.atan(math.tanh(u) / S)
            else:
                phi = sigma - math.asinh(t * ((1.0 + cm1) / math.sqrt(c2m1)))
            yield (0.5 * math.log1p(2.0 / cm1), phi), u, c2m1

    def points(self, us) -> list[tuple[float, float]]:
        """The points ``(rho, phi)`` of :meth:`state` at each ``u`` of ``us``,
        bit for bit, without the velocities: one pass with the family
        constants formed once.

        Raises:
            OutOfChart, DomainError: at the first ``u`` where :meth:`state`
                raises, with its message.
        """
        return [point for point, _, _ in self._track(us)]

    def state(self, u: float) -> tuple[tuple[float, float], tuple[float, float]]:
        """Point and velocity at ``u``: ``((rho, phi), (drho/dtau, dphi/dtau))``
        in the isometric chart, unit speed in ``tau = tau0 + R u``.  The point
        is that of :meth:`points`; only the velocity is formed here.

        Conditioning: near the lorentz-pos edge ``|u| -> asin(1/C)`` the
        velocity's relative error is about
        ``2^-53 2 C |cos u| |u| / (1 - w^2)``, inherited from rounding ``u``
        alone, so no formula in ``u`` does better there.

        Raises:
            OutOfChart: u outside the chart (see :attr:`window`), or where
                c^2 - 1 overflows.
            DomainError: u not finite.
        """
        ((point, a, b),) = self._track((u,))  # runs the one-point loop to its end
        spec, _, C, S = self
        r = spec.radius
        if spec.kappa > 0.0:  # a = cos(u), b = 1 - w^2
            dphi = S / b if spec.metric_sign > 0.0 else -S * math.copysign(1.0, a) / b
            return point, (C * a / b / r, dphi / r)
        # a = u, b = c^2 - 1
        dphi = S / b if spec.metric_sign > 0.0 else S * math.copysign(1.0, a) / b
        return point, (-C * math.sinh(a) / b / r, dphi / r)


def geodesic_family(spec: SurfaceSpec, eps: float, sigma: float) -> GeodesicFamily:
    """The (eps, sigma) family, its constants checked once.

    Raises:
        DegenerateEpsilon: |eps| < 1e-12 (straight line; see origin_line).
        DomainError: eps or sigma not finite, |eps| >= pi/2 where
            (C, S) = (cos, sin)(eps), or sinh(eps), A = R S or
            tau0 = A sigma overflows.
    """
    _check_eps(spec, eps, sigma)
    fam = GeodesicFamily(spec, sigma, *_family_trig(spec, eps))
    if not math.isfinite(fam.tau0):
        raise DomainError(f"tau0 = A sigma overflows at eps = {eps}, sigma = {sigma}")
    return fam


def geodesic_parametric_with_velocity(
    spec: SurfaceSpec, eps: float, sigma: float, tau: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Point and velocity of the (eps, sigma) geodesic at arc length tau.

    The tau form of :meth:`GeodesicFamily.state`, at ``u = (tau - tau0)/R``
    with the turning point at ``tau0 = A sigma``.

    Raises:
        OutOfChart: u outside the chart window, or where c^2 - 1 overflows.
        DomainError: tau not finite, or as :func:`geodesic_family`.
    """
    if not math.isfinite(tau):
        raise DomainError(f"tau must be finite, got {tau}")
    fam = geodesic_family(spec, eps, sigma)
    return fam.state((tau - fam.tau0) / spec.radius)


def geodesic_parametric(
    spec: SurfaceSpec, eps: float, sigma: float, tau: float
) -> tuple[float, float]:
    """Isometric-chart point of the (eps, sigma) geodesic at arc length tau."""
    return geodesic_parametric_with_velocity(spec, eps, sigma, tau)[0]


# --------------------------------------------------------------------------
# shapes in the Cartesian chart


def completed_square(
    spec: SurfaceSpec, A: float, B: float
) -> tuple[float, float, float]:
    """Completed-square form of the geodesic conic with constants ``(A, B)``.

    Returns ``(x0, y0, d)`` with ``s (x - x0)^2 + (y - y0)^2 = d^2``, a
    circle on definite surfaces and a rectangular hyperbola on Lorentzian
    ones; ``B`` is the phase sigma and ``A = R S`` the momentum:

        x0 = -s R sn root / A,  y0 = R cs root / A,  d = R^2 / A

    where ``(cs, sn) = cos_sin(-s, B)``, ``root = sqrt((R - A)(R + A))``
    where s = kappa (def-pos, lorentz-neg, which therefore need |A| < R)
    and ``sqrt(R^2 + A^2)`` elsewhere.  Nothing cancels: ``|d|`` is
    ``R/|sin(eps)|`` or ``R/|sinh(eps)|``.

    Raises:
        DegenerateEpsilon: |A| < 1e-12 R (the center escapes to infinity;
            the conic is the straight line through the origin).
        DomainError: A or B is not finite, cosh(B) overflows, |A| >= R where
            s = kappa, or a returned value is not finite.
    """
    if not math.isfinite(A):
        raise DomainError(f"A must be finite, got {A}")
    s = spec.metric_sign
    cs, sn = cos_sin(-s, B)
    r = spec.radius
    if abs(A) < 1e-12 * r:
        raise DegenerateEpsilon(f"A = {A} gives a straight line, not a circle or hyperbola")
    _check_A(spec, A)
    root = math.sqrt((r - A) * (r + A)) if _uses_tan(spec) else math.sqrt(r * r + A * A)
    out = (-s * r * sn * root / A, r * cs * root / A, r * r / A)
    if not all(math.isfinite(v) for v in out):
        raise DomainError(f"completed-square parameters {out} at A = {A}, B = {B} are not finite")
    return out


def limiting_curve(spec: SurfaceSpec) -> GeodesicConic:
    """Curve where the Cartesian conformal factor diverges.

    ``x^2 + s y^2 + kappa R^2 = 0``; on def-pos the curve is imaginary
    (that chart has no boundary).
    """
    return GeodesicConic(1.0, 0.0, 0.0, spec.kappa * spec.radius * spec.radius, spec)


def _solve_quadratic(qa: float, qb: float, qc: float) -> tuple[float, ...]:
    """Real roots of ``qa t^2 + qb t + qc``; where ``qa = 0`` (a line parallel
    to an asymptote) the one root ``-qc / qb``."""
    if qa == 0.0:
        if qb == 0.0:
            raise NoRealIntersection("asymptote-parallel line misses the curve")
        return (-qc / qb,)
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


def limiting_intersections(conic: GeodesicConic) -> list[tuple[float, float]]:
    """Real intersections ``(x, y)`` of a conic with the limiting curve of its
    surface.

    The conic carries its surface (``conic.spec``), and with it the curve.
    Family geodesics of lorentz-neg always yield two (this is how that
    surface's geodesics terminate); lorentz-pos family geodesics never meet
    the curve and raise :class:`NoRealIntersection`.  On def-neg the
    limiting curve is the circle ``x^2 + y^2 = R^2`` and geodesic circles
    cross it (orthogonally); def-pos has no real limiting curve at all.

    Both curves share the quadratic part, so at every common point the
    signature pairing of their gradients is ``2 (quad rhs - const_term)``
    with ``rhs = -kappa R^2``: the same at both hits, and zero for every
    family conic, whose ``quad rhs = -kappa = const_term``.

    Raises:
        DomainError: def-pos (imaginary limiting curve); the line lies
            beyond the float range, or a hit is not finite.
        NoRealIntersection: no real common point.
    """
    spec = conic.spec
    s = spec.metric_sign
    if s > 0.0 and spec.kappa > 0.0:
        raise DomainError("def-pos has no real limiting curve")
    # both curves share the quadratic part x^2 + s y^2, so their common points
    # lie on the line a x + b y + k = 0 and on x^2 + s y^2 = rhs
    rhs = -limiting_curve(spec).const_term
    a, b, k = conic.lin_x, conic.lin_y, conic.const_term + conic.quad * rhs
    if a == 0.0 and b == 0.0:
        if k == 0.0:
            raise ValueError("conic coincides with the limiting curve")
        raise NoRealIntersection("conic and limiting curve are disjoint level sets")
    # scale the line by an exact power of two, to m = max(|a|, |b|) near 1, or
    # to m |k| near 1 where |k| > m, so that the coefficients below neither
    # overflow nor vanish where the hits are floats; the roots keep their bits
    m = max(abs(a), abs(b))
    e = -(math.frexp(m)[1] + math.frexp(max(m, abs(k)))[1]) // 2
    try:
        scaled = math.ldexp(a, e), math.ldexp(b, e), math.ldexp(k, e)
    except OverflowError:
        scaled = None
    # a k that vanishes in the scaling would read as an asymptote-parallel line
    if scaled is None or (scaled[2] == 0.0 and k != 0.0):
        raise DomainError(f"line {a} x + {b} y + {k} = 0 lies beyond the float range")
    a, b, k = scaled
    # solve for x where |b| > |a|; else swap x and y, which turns the
    # weights (1, s) of x^2 + s y^2 into (s, 1)
    swap = abs(a) >= abs(b)
    a, b, wx, wy = (b, a, s, 1.0) if swap else (a, b, 1.0, s)
    us = _solve_quadratic(wx * b * b + wy * a * a, 2.0 * wy * a * k, wy * k * k - b * b * rhs)

    out = []
    for u in us:
        v = -(a * u + k) / b
        x, y = (v, u) if swap else (u, v)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"hit ({x}, {y}) is not finite")
        out.append((x, y))
    return out
