"""Constant-curvature surfaces: specs, charts, and metric fields.

Four surfaces are indexed by two signs: the metric sign ``s`` (``+1`` for
a definite signature, ``-1`` for a Lorentzian one) and the curvature sign
``kappa`` (the sign of K).  Each one carries an isometric chart
``(rho, phi)`` and a conformal Cartesian chart ``(x, y)``:

    name         s   kappa  K        isometric factor    Cartesian denominator
    -----------  --  -----  -------  ------------------  ---------------------
    def-pos      +1  +1     +1/R^2   R^2 / cosh(rho)^2   R^2 + x^2 + y^2
    def-neg      +1  -1     -1/R^2   R^2 / sinh(rho)^2   x^2 + y^2 - R^2
    lorentz-pos  -1  +1     +1/R^2   R^2 / cosh(rho)^2   R^2 + x^2 - y^2
    lorentz-neg  -1  -1     -1/R^2   R^2 / sinh(rho)^2   x^2 - y^2 - R^2

with line elements

    ds^2 = factor(rho) * (drho^2 + s dphi^2)
    ds^2 = (4 R^4 / base^2) * (dx^2 + s dy^2),   base = x^2 + s y^2 + kappa R^2

The curve ``base = 0`` (when real) is the limiting curve of the chart:
the conformal factor diverges there and the curve sits at infinite distance.
For ``def-pos`` the denominator never vanishes, so that chart covers the
whole plane.

The two charts are linked by the exponential-type map

    (x, y) = R e^rho cos_sin(-s, phi)
    lorentzian:  x = R e^rho cosh(phi),  y = R e^rho sinh(phi)
    definite:    x = R e^rho cos(phi),   y = R e^rho sin(phi)

whose image is the wedge ``x > |y|`` (lorentzian) or the punctured plane
(definite, with ``phi`` understood modulo 2 pi).  On negative-curvature
surfaces both signs of ``rho`` chart the surface — ``rho -> -rho`` is an
isometry of the isometric line element — so the wedge splits into the part
inside the limiting curve (``rho < 0``) and the part outside (``rho > 0``).

Formulas that differ between the surfaces only by a sign are written once,
keyed on ``SurfaceSpec.metric_sign`` and ``SurfaceSpec.kappa``; multiplying
by ``+-1.0`` is exact, so each surface gets the bits of its own formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DomainError, OnLimitingCurve, ProfileZero, SingularPoint
from .hypernum import cos_sin

__all__ = [
    "Signature",
    "CurvatureSign",
    "Chart",
    "SurfaceSpec",
    "MetricField",
    "gauss_curvature_of_profile",
    "rho_from_u",
    "line_element_isometric",
    "line_element_cartesian",
    "exp_map_to_cartesian",
    "exp_map_pushforward",
]


class Signature(Enum):
    DEFINITE = "definite"
    LORENTZIAN = "lorentzian"


class CurvatureSign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class Chart(Enum):
    ISOMETRIC = "isometric_rho_phi"
    CARTESIAN = "cartesian_xy"


@dataclass(frozen=True, slots=True)
class SurfaceSpec:
    """A constant-curvature surface: signature, sign of K, and finite radius R > 0.

    ``metric_sign`` is s in ``ds^2 = factor * (da^2 + s db^2)``: +1 definite,
    -1 Lorentzian.  ``kappa`` is the sign of the Gauss curvature.  Both are
    derived from the enums and stored, since every chart formula reads them.
    """

    signature: Signature
    curvature_sign: CurvatureSign
    radius: float = 1.0
    metric_sign: float = field(init=False, repr=False, compare=False)
    kappa: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        s = 1.0 if self.signature is Signature.DEFINITE else -1.0
        kappa = 1.0 if self.curvature_sign is CurvatureSign.POSITIVE else -1.0
        object.__setattr__(self, "metric_sign", s)
        object.__setattr__(self, "kappa", kappa)

    # -- constructors ------------------------------------------------------

    @classmethod
    def definite_positive(cls, radius: float = 1.0) -> "SurfaceSpec":
        return cls(Signature.DEFINITE, CurvatureSign.POSITIVE, radius)

    @classmethod
    def definite_negative(cls, radius: float = 1.0) -> "SurfaceSpec":
        return cls(Signature.DEFINITE, CurvatureSign.NEGATIVE, radius)

    @classmethod
    def lorentzian_positive(cls, radius: float = 1.0) -> "SurfaceSpec":
        return cls(Signature.LORENTZIAN, CurvatureSign.POSITIVE, radius)

    @classmethod
    def lorentzian_negative(cls, radius: float = 1.0) -> "SurfaceSpec":
        return cls(Signature.LORENTZIAN, CurvatureSign.NEGATIVE, radius)

    @classmethod
    def from_name(cls, name: str, radius: float = 1.0) -> "SurfaceSpec":
        """Parse one of def-pos / def-neg / lorentz-pos / lorentz-neg."""
        table = {
            "def-pos": (Signature.DEFINITE, CurvatureSign.POSITIVE),
            "def-neg": (Signature.DEFINITE, CurvatureSign.NEGATIVE),
            "lorentz-pos": (Signature.LORENTZIAN, CurvatureSign.POSITIVE),
            "lorentz-neg": (Signature.LORENTZIAN, CurvatureSign.NEGATIVE),
        }
        try:
            sig, curv = table[name]
        except KeyError:
            raise ValueError(
                f"unknown surface {name!r}; expected one of {sorted(table)}"
            ) from None
        return cls(sig, curv, radius)

    # -- derived -----------------------------------------------------------

    @property
    def name(self) -> str:
        sig = "def" if self.signature is Signature.DEFINITE else "lorentz"
        curv = "pos" if self.curvature_sign is CurvatureSign.POSITIVE else "neg"
        return f"{sig}-{curv}"

    @property
    def gauss_curvature(self) -> float:
        return self.kappa / (self.radius * self.radius)

    def normalized(self) -> "SurfaceSpec":
        """Same surface rescaled to R = 1 (model coordinates)."""
        return SurfaceSpec(self.signature, self.curvature_sign, 1.0)


def _isometric_factor(spec: SurfaceSpec, rho: float) -> float:
    r2 = spec.radius * spec.radius
    if spec.curvature_sign is CurvatureSign.POSITIVE:
        c = math.cosh(rho)
        return r2 / (c * c)
    if abs(rho) < 1e-12:
        raise SingularPoint(
            f"isometric chart of {spec.name} is singular at rho = 0 (got {rho})"
        )
    s = math.sinh(rho)
    return r2 / (s * s)


def _cartesian_base(spec: SurfaceSpec, x: float, y: float) -> float:
    r2 = spec.radius * spec.radius
    if spec.signature is Signature.DEFINITE:
        quad = x * x + y * y
    else:
        # factored: x*x - y*y loses digits far out near the null lines
        quad = (x - y) * (x + y)
    return quad + spec.kappa * r2


def _cartesian_factor(spec: SurfaceSpec, x: float, y: float) -> float:
    base = _cartesian_base(spec, x, y)
    r2 = spec.radius * spec.radius
    if abs(base) < 1e-12 * r2:
        raise OnLimitingCurve(
            f"({x}, {y}) lies on the limiting curve of the {spec.name} chart"
        )
    return 4.0 * r2 * r2 / (base * base)


@dataclass(frozen=True, slots=True)
class MetricField:
    """Conformal metric of one chart, packaged for the numerical routines.

    ``factor(a, b)`` is the scalar lambda in ``ds^2 = lambda (da^2 + s db^2)``
    with ``s = signature_sign``; it is all the numerical oracle reads (its
    Christoffel symbols come from central differences of ``ln lambda``).
    ``tensor`` is the same data as a 2x2 matrix, for callers that want one.
    ``boundary_distance`` estimates how far a point is from the nearest
    metric singularity of the chart (first-order estimate where no exact
    expression is available); it returns ``inf`` for charts without one.
    """

    spec: SurfaceSpec
    chart: Chart

    @property
    def signature_sign(self) -> float:
        return self.spec.metric_sign

    def factor(self, a: float, b: float) -> float:
        if self.chart is Chart.ISOMETRIC:
            return _isometric_factor(self.spec, a)
        return _cartesian_factor(self.spec, a, b)

    def tensor(self, a: float, b: float) -> np.ndarray:
        lam = self.factor(a, b)
        return np.array([[lam, 0.0], [0.0, self.signature_sign * lam]])

    def boundary_distance(self, a: float, b: float) -> float:
        spec = self.spec
        if self.chart is Chart.ISOMETRIC:
            if spec.curvature_sign is CurvatureSign.NEGATIVE:
                return abs(a)
            return math.inf
        if spec.signature is Signature.DEFINITE:
            if spec.curvature_sign is CurvatureSign.POSITIVE:
                return math.inf
            return abs(math.hypot(a, b) - spec.radius)
        base = _cartesian_base(spec, a, b)
        grad = 2.0 * math.hypot(a, b)
        if grad == 0.0:
            return math.inf
        return abs(base) / grad


def gauss_curvature_of_profile(
    profile: Callable[[float], float], u: float, step: float = 1e-5
) -> float:
    """Curvature ``K = -r''(u) / r(u)`` of a surface of revolution profile.

    ``r`` is the unit-speed profile (distance from the axis as a function of
    arc length along a meridian); the second derivative is taken by central
    differences with the given step.

    Raises:
        ProfileZero: the profile vanishes at ``u`` and K is undefined there.
    """
    r0 = profile(u)
    if abs(r0) < 1e-12:
        raise ProfileZero(f"profile vanishes at u = {u}")
    second = (profile(u + step) - 2.0 * r0 + profile(u - step)) / (step * step)
    return -second / r0


def rho_from_u(spec: SurfaceSpec, u: float) -> float:
    """Isometric coordinate rho as a function of geodesic distance u from the
    profile origin.

    Positive curvature: ``rho = ln cot(u / 2R)`` on ``0 < u < pi R``.
    Negative curvature: ``rho = ln tanh(u / 2R)`` on ``u > 0``; note the
    value is negative, i.e. this branch charts the side of the surface inside
    the limiting curve (the other side is the isometric image ``rho > 0``).
    """
    r = spec.radius
    if spec.curvature_sign is CurvatureSign.POSITIVE:
        if not 0.0 < u < math.pi * r:
            raise DomainError(f"need 0 < u < pi R = {math.pi * r}, got u = {u}")
        return math.log(1.0 / math.tan(u / (2.0 * r)))
    if not u > 0.0:
        raise DomainError(f"need u > 0, got u = {u}")
    return math.log(math.tanh(u / (2.0 * r)))


def line_element_isometric(
    spec: SurfaceSpec, rho: float, drho: float, dphi: float
) -> float:
    """Signed ``ds^2`` of a tangent vector in the isometric chart.

    Raises:
        SingularPoint: negative curvature at rho = 0 (the chart's pole).
    """
    lam = _isometric_factor(spec, rho)
    return lam * (drho * drho + spec.metric_sign * dphi * dphi)


def line_element_cartesian(
    spec: SurfaceSpec, x: float, y: float, dx: float, dy: float
) -> float:
    """Signed ``ds^2`` of a tangent vector in the Cartesian chart.

    Raises:
        OnLimitingCurve: the point is on the curve where the factor diverges.
    """
    lam = _cartesian_factor(spec, x, y)
    return lam * (dx * dx + spec.metric_sign * dy * dy)


def exp_map_to_cartesian(
    spec: SurfaceSpec, rho: float, phi: float
) -> tuple[float, float]:
    """Isometric -> Cartesian chart change."""
    r = spec.radius * math.exp(rho)
    c, s = cos_sin(-spec.metric_sign, phi)
    return r * c, r * s


def exp_map_pushforward(
    spec: SurfaceSpec, rho: float, phi: float, drho: float, dphi: float
) -> tuple[float, float]:
    """Tangent map of :func:`exp_map_to_cartesian` at ``(rho, phi)``."""
    x, y = exp_map_to_cartesian(spec, rho, phi)
    return x * drho - spec.metric_sign * y * dphi, y * drho + x * dphi
