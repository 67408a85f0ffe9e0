"""Numerical cross-checks that know nothing about the closed forms.

This module treats a surface purely as a conformal metric field
``lambda (da^2 + s db^2)``: Christoffel symbols come from finite differences
of ``L = ln lambda``, geodesics from a fixed-step RK4 integration of the
geodesic equation, lengths from midpoint quadrature of polylines, and the
arc-length field tau from adaptive Simpson quadrature of its defining
integral.  Nothing in here looks at the conic family, so agreement between
the two routes is an actual test.  Each routine reads its ``field``
through ``factor`` and ``signature_sign`` alone (the integrator also through
``boundary_distance``), so any chart or tampered field works.

Numerical notes
---------------
* ``_cross`` is the one finite-difference stencil, ``f(a +- h, b)`` and
  ``f(a, b +- h)``, turning a stencil point's ``GeometryError`` into
  ``NearSingular``; ``(L_a, L_b)`` (``ln(lambda_+ / lambda_-) / (2 h)``), the
  Beltrami and the curvature differences read it.  The error is O(h^2), so
  it shrinks about 4x when h halves.  ``christoffel`` fills its nested
  (2, 2, 2) tuple from ``(L_a, L_b)`` by a conformal metric's index formulas.
* ``integrate_geodesic`` is classical RK4 in plain floats; every stage
  re-evaluates ``(L_a, L_b)`` (stencil half-width one hundredth of the time
  step) and forms the acceleration from it directly, so halving the step
  cuts the error about 16x.  The last step is shortened to end at
  ``length`` unless ``length`` is within 1e-12 (relative) of a step
  multiple.  It refuses non-unit-speed (or NaN) starts and raises
  :class:`~lorentzcc.errors.DomainExit` carrying the partial trajectory when
  the path drifts within ``10 * step`` of a chart boundary.
* ``arc_length`` binds ``field.factor`` once per polyline and tracks the
  causal type with two flags; a segment costs one factor call and no
  container operation.  ``FlatPlaneField`` rejects a NaN or infinite point
  with :class:`~lorentzcc.errors.DomainError`, as the Cartesian
  ``MetricField`` does, so no routine answers NaN on the flat plane.
* ``_adaptive_simpson`` accepts an interval when ``|S2 - S1| <= 15 tol``,
  which bounds the extrapolated error by roughly ``tol``, or when
  ``|S2 - S1|`` is at rounding level, ``1e-15 |S2|``: next to an integrable
  singularity the halved ``tol`` of deep panels falls below what their
  sums can resolve, and refining on would only burn calls.  A non-finite
  bound, sample or panel sum could never pass that test, so it raises
  :class:`~lorentzcc.errors.DomainError`.  The result is only piecewise
  smooth in a bound ``b``: where the refinement pattern differs between
  ``b - h`` and ``b + h`` it jumps by up to about ``tol``, and a central
  difference of step ``h`` divides that jump by ``2 h``.  ``TauField``
  therefore integrates to ``tol = 1e-13``; at 1e-10, a step-1e-4 Beltrami
  probe read errors up to 5e-5.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    DomainError,
    DomainExit,
    GeometryError,
    MixedCausality,
    NearSingular,
)
from .surface import Chart, MetricField, SurfaceSpec

__all__ = [
    "GeodesicState",
    "FlatPlaneField",
    "christoffel",
    "integrate_geodesic",
    "arc_length",
    "TauField",
    "beltrami_delta1",
    "isothermal_curvature",
]


@dataclass(frozen=True, slots=True)
class GeodesicState:
    """Point and velocity of a geodesic, in the chart of the field that
    integrates it (the field owns the chart; the state does not repeat it)."""

    position: tuple[float, float]
    velocity: tuple[float, float]


@dataclass(frozen=True, slots=True)
class FlatPlaneField:
    """Metric field of the flat Lorentz plane (duck-typed like MetricField)."""

    signature_sign = -1.0

    def factor(self, a: float, b: float) -> float:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"the flat-plane factor at ({a}, {b}) is undefined")
        return 1.0

    def boundary_distance(self, a: float, b: float) -> float:
        return math.inf


def _cross(f: Callable[[float, float], float], a: float, b: float, h: float) -> tuple:
    """``f`` at ``(a + h, b), (a - h, b), (a, b + h), (a, b - h)``; raises
    :class:`NearSingular` where one of them leaves the domain of ``f``."""
    try:
        return f(a + h, b), f(a - h, b), f(a, b + h), f(a, b - h)
    except GeometryError as exc:
        raise NearSingular(f"stencil at ({a}, {b}) with step {h} left the domain: {exc}") from exc


def _log_factor_gradient(factor, a: float, b: float, step: float) -> tuple[float, float]:
    """``(d_a ln lambda, d_b ln lambda)`` by central differences of
    ``factor``; raises as :func:`_cross`."""
    fpa, fma, fpb, fmb = _cross(factor, a, b, step)
    width = 2.0 * step
    return math.log(fpa / fma) / width, math.log(fpb / fmb) / width


def christoffel(field, a: float, b: float, step: float = 1e-5) -> tuple:
    """Christoffel symbols Gamma^l_ik of the conformal metric
    ``lambda diag(1, s)`` from finite differences of ``L = ln lambda``.

    Returns nested tuples of floats indexed ``[l][i][k]`` (two of two of
    two), symmetric in (i, k):

        G^0_00 = G^1_01 = L_a / 2      G^0_11 = -s L_a / 2
        G^0_01 = G^1_11 = L_b / 2      G^1_00 = -s L_b / 2

    Raises:
        NearSingular: a stencil point left the chart domain.
    """
    la, lb = _log_factor_gradient(field.factor, a, b, step)
    ha, hb = 0.5 * la, 0.5 * lb
    s = field.signature_sign
    return (((ha, hb), (hb, -s * ha)), ((-s * hb, ha), (ha, hb)))


def integrate_geodesic(
    field, state: GeodesicState, length: float, step: float = 1e-3
) -> list[GeodesicState]:
    """RK4 integration of the geodesic equation, fixed step in arc length.

    ``state`` and the returned states are read in the chart of ``field``.
    The initial velocity must be unit speed in the field's metric (to 1e-9),
    so the curve parameter coincides with arc length.  Returns the list of
    states after each step, the initial one included.  Every step is
    ``step`` long but the last, which is shortened to end at ``length``;
    a length within 1e-12 (relative) of a step multiple takes that many
    whole steps.

    Raises:
        ValueError: not unit speed, or a bad length or step.
        DomainExit: the path came within ``10 * step`` of a chart boundary;
            the partial trajectory rides on the exception.
    """
    if not (0.0 < length < math.inf and 0.0 < step < math.inf and length / step < math.inf):
        raise ValueError(
            f"length {length} and step {step} must be positive and finite, "
            "and so must length / step"
        )
    x, y = state.position
    vx, vy = state.velocity
    s, factor = field.signature_sign, field.factor
    speed2 = factor(x, y) * (vx * vx + s * vy * vy)
    if not abs(abs(speed2) - 1.0) < 1e-9:
        raise ValueError(f"initial velocity is not unit speed: |ds^2| = {abs(speed2)}")

    # FD step: well below the integration step so the O(fd^2) stencil
    # truncation stays negligible against the RK4 error even where the
    # conformal factor has steep higher derivatives.
    fd_step = 0.01 * step
    ratio = length / step
    n_steps = round(ratio)
    if abs(ratio - n_steps) <= 1e-12 * ratio:
        steps = itertools.repeat(step, n_steps)
    else:
        n_steps = math.floor(ratio)
        steps = itertools.chain(itertools.repeat(step, n_steps), (length - n_steps * step,))

    def accel(x: float, y: float, vx: float, vy: float) -> tuple[float, float]:
        # -Gamma^l_ik v^i v^k = n (L_a, s L_b) - (v . grad L) v, n = <v, v>_s / 2
        la, lb = _log_factor_gradient(factor, x, y, fd_step)
        n = 0.5 * (vx * vx + s * vy * vy)
        dot = la * vx + lb * vy
        return la * n - vx * dot, s * lb * n - vy * dot

    states = [state]
    for h in steps:
        if field.boundary_distance(x, y) < 10.0 * step:
            raise DomainExit(
                f"geodesic reached the chart boundary near ({x}, {y})", states
            )
        half, sixth = 0.5 * h, h / 6.0
        ax1, ay1 = accel(x, y, vx, vy)
        vx2, vy2 = vx + half * ax1, vy + half * ay1
        ax2, ay2 = accel(x + half * vx, y + half * vy, vx2, vy2)
        vx3, vy3 = vx + half * ax2, vy + half * ay2
        ax3, ay3 = accel(x + half * vx2, y + half * vy2, vx3, vy3)
        vx4, vy4 = vx + h * ax3, vy + h * ay3
        ax4, ay4 = accel(x + h * vx3, y + h * vy3, vx4, vy4)
        x += sixth * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4)
        y += sixth * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4)
        vx += sixth * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
        vy += sixth * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4)
        states.append(GeodesicState((x, y), (vx, vy)))
    return states


def arc_length(field, points: Sequence[tuple[float, float]]) -> float:
    """Metric length of a polyline: midpoint conformal factor per segment.

    All segments must have one causal character; null (zero) segments are
    skipped.

    Raises:
        MixedCausality: some segments measure spacelike and others timelike.
    """
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


def _adaptive_simpson(fn: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Adaptive Simpson quadrature with Richardson end correction.

    Raises:
        DomainError: a bound, a first sample or a panel sum is not finite.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"quadrature bounds ({a}, {b}) are not finite")

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm, frm = fn(lmid), fn(rmid)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        both = left + right
        if not math.isfinite(both):
            raise DomainError(f"integrand is not finite on [{lo}, {hi}]")
        if depth <= 0 or abs(both - whole) <= max(15.0 * eps, 1e-15 * abs(both)):
            return both + (both - whole) / 15.0
        half = eps / 2.0
        return recurse(lo, mid, flo, flm, fmid, left, half, depth - 1) + recurse(
            mid, hi, fmid, frm, fhi, right, half, depth - 1
        )

    fa, fb = fn(a), fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)
    if not (math.isfinite(fa) and math.isfinite(fb) and math.isfinite(fm)):
        raise DomainError(f"integrand is not finite at {a}, {m} or {b}")
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 48)


@dataclass(frozen=True, slots=True)
class TauField:
    """Arc-length field of a Lorentzian geodesic family member,

        tau(rho, phi) = A phi + integral from rho_ref to rho of
                        sqrt(factor(r) + A^2) dr + C,

    evaluated by adaptive quadrature (no closed form involved).  The
    reference point is rho_ref = 0 at positive curvature and 1 at negative
    curvature, where the rho = 0 pole forces the field onto one side; there
    the domain is rho > 0.
    """

    A: float
    C: float
    spec: SurfaceSpec

    def __post_init__(self) -> None:
        if self.spec.metric_sign > 0.0:
            raise DomainError("tau fields are defined for Lorentzian surfaces")

    @property
    def rho_ref(self) -> float:
        return 0.0 if self.spec.kappa > 0.0 else 1.0

    def __call__(self, rho: float, phi: float) -> float:
        if self.spec.kappa < 0.0 and rho <= 0.0:
            raise DomainError(f"need rho > 0 on {self.spec.name}, got {rho}")
        factor = MetricField(self.spec, Chart.ISOMETRIC).factor
        a2 = self.A * self.A

        def integrand(r: float) -> float:
            return math.sqrt(factor(r, 0.0) + a2)

        arc = _adaptive_simpson(integrand, self.rho_ref, rho, tol=1e-13)
        return self.A * phi + arc + self.C


def beltrami_delta1(
    field,
    tau: Callable[[float, float], float],
    point: tuple[float, float],
    step: float = 1e-5,
) -> float:
    """Raw first-order Beltrami quantity ``(d_a tau)^2 + s (d_b tau)^2`` by
    central differences, ``s = field.signature_sign``.

    For an arc-length field this equals the field's conformal factor at the
    point (1 on the flat plane) — that is the property worth testing.

    Raises:
        NearSingular: the stencil left the field's domain.
    """
    tpa, tma, tpb, tmb = _cross(tau, *point, step)
    ta = (tpa - tma) / (2.0 * step)
    tb = (tpb - tmb) / (2.0 * step)
    return ta * ta + field.signature_sign * tb * tb


def isothermal_curvature(field, a: float, b: float, step: float = 1e-4) -> float:
    """Gauss curvature ``K = -(L_aa + s L_bb) / (2 lambda)`` of a conformal
    field of either chart, ``L = ln lambda`` and ``s = field.signature_sign``,
    from second central differences of ``L``: a rescale ``c lambda`` reads
    ``K / c``; truncation and rounding (``|L| 2^-52 / step^2``) balance near 1e-4.

    Raises:
        NearSingular: a stencil point around ``(a, b)`` left the chart domain
            (``(a, b)`` itself raises the field's own error).
    """
    lam = field.factor(a, b)
    l0 = math.log(lam)
    fpa, fma, fpb, fmb = _cross(field.factor, a, b, step)
    laa = math.log(fpa) - 2.0 * l0 + math.log(fma)
    lbb = math.log(fpb) - 2.0 * l0 + math.log(fmb)
    return -(laa + field.signature_sign * lbb) / (2.0 * lam * step * step)
