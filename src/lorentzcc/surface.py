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

``SURFACE_NAMES`` is this catalogue, in this order; a surface is built with
``SurfaceSpec.from_name(name, R)`` or, from the two signs, with
``SurfaceSpec(signature, curvature_sign, R)``.  The line elements are

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
import sys
from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError, OnLimitingCurve
from .hypernum import cos_sin

__all__ = [
    "SURFACE_NAMES",
    "Signature",
    "CurvatureSign",
    "Chart",
    "SurfaceSpec",
    "MetricField",
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


# the surface catalogue, in battery and CLI order: name -> (signature, sign of K)
_SIGNS = {
    "def-pos": (Signature.DEFINITE, CurvatureSign.POSITIVE),
    "def-neg": (Signature.DEFINITE, CurvatureSign.NEGATIVE),
    "lorentz-pos": (Signature.LORENTZIAN, CurvatureSign.POSITIVE),
    "lorentz-neg": (Signature.LORENTZIAN, CurvatureSign.NEGATIVE),
}
_NAMES = {signs: name for name, signs in _SIGNS.items()}
SURFACE_NAMES = tuple(_SIGNS)


class Chart(Enum):
    ISOMETRIC = "isometric_rho_phi"
    CARTESIAN = "cartesian_xy"


@dataclass(frozen=True, slots=True)
class SurfaceSpec:
    """A constant-curvature surface: signature, sign of K, and radius R.

    R lies in about [1.2e-71, 8.2e75]: there ``4 R^4``, the limiting-curve
    guard and ``base^2`` out to ``|x|, |y| <= 10 R`` are normal floats.

    ``metric_sign`` is s in ``ds^2 = factor * (da^2 + s db^2)``: +1 definite,
    -1 Lorentzian.  ``kappa`` is the sign of the Gauss curvature.  Both are
    derived from the enums and stored, since every chart formula reads them.
    """

    signature: Signature
    curvature_sign: CurvatureSign
    radius: float = 1.0
    metric_sign: float = field(init=False, repr=False, compare=False)
    kappa: float = field(init=False, repr=False, compare=False)
    # conformal-factor constants: R^2, kappa R^2, 4 R^4 and the
    # limiting-curve guard 1e-12 R^2
    _r2: float = field(init=False, repr=False, compare=False)
    _kappa_r2: float = field(init=False, repr=False, compare=False)
    _four_r4: float = field(init=False, repr=False, compare=False)
    _guard: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        r2 = self.radius * self.radius
        guard = 1e-12 * r2
        big = 201.0 * r2  # |base| runs from the guard up to 201 R^2
        if not (sys.float_info.min <= guard * guard and big * big < math.inf):
            raise ValueError(
                "radius must lie in [1.221338669755462e-71, 8.167344249464855e75] "
                f"for the metric factors to be normal floats, got {self.radius}"
            )
        s = 1.0 if self.signature is Signature.DEFINITE else -1.0
        kappa = 1.0 if self.curvature_sign is CurvatureSign.POSITIVE else -1.0
        object.__setattr__(self, "metric_sign", s)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "_r2", r2)
        object.__setattr__(self, "_kappa_r2", kappa * r2)
        object.__setattr__(self, "_four_r4", 4.0 * r2 * r2)
        object.__setattr__(self, "_guard", guard)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_name(cls, name: str, radius: float = 1.0) -> "SurfaceSpec":
        """Parse one of :data:`SURFACE_NAMES`."""
        try:
            sig, curv = _SIGNS[name]
        except KeyError:
            raise ValueError(
                f"unknown surface {name!r}; expected one of {sorted(_SIGNS)}"
            ) from None
        return cls(sig, curv, radius)

    # -- derived -----------------------------------------------------------

    @property
    def name(self) -> str:
        return _NAMES[self.signature, self.curvature_sign]

    @property
    def gauss_curvature(self) -> float:
        return self.kappa / (self.radius * self.radius)


def _isometric_factor(spec: SurfaceSpec, rho: float) -> float:
    """``R^2 / cosh(rho)^2`` (kappa > 0) or ``R^2 / sinh(rho)^2``; past the
    overflow of cosh/sinh, ``(2R e^-|rho|)^2``, which the formula rounds to."""
    if not math.isfinite(rho):
        raise DomainError(f"isometric factor of {spec.name} needs a finite rho, got {rho}")
    if spec.kappa < 0.0 and abs(rho) < 1e-12:
        raise OnLimitingCurve(f"rho = {rho} lies on the limiting curve of {spec.name}")
    try:
        c = math.cosh(rho) if spec.kappa > 0.0 else math.sinh(rho)
    except OverflowError:
        return (2.0 * spec.radius * math.exp(-abs(rho))) ** 2
    return spec._r2 / (c * c)


def _cartesian_factor(spec: SurfaceSpec, x: float, y: float) -> float:
    """``4 R^4 / base^2``, ``base = x^2 + s y^2 + kappa R^2``.

    Raises:
        DomainError: x or y is not finite, or base is NaN.
        OnLimitingCurve: ``|base| < 1e-12 R^2``.
    """
    if spec.metric_sign > 0.0:
        base = x * x + y * y + spec._kappa_r2
    else:
        # factored: x*x - y*y loses digits far out near the null lines
        base = (x - y) * (x + y) + spec._kappa_r2
    if not spec._guard <= abs(base) < math.inf:
        # a finite point whose base overflows keeps the factor 0.0
        if base != base or not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"the {spec.name} factor at ({x}, {y}) is undefined (base {base})")
        if abs(base) < spec._guard:
            raise OnLimitingCurve(
                f"({x}, {y}) lies on the limiting curve of the {spec.name} chart"
            )
    return spec._four_r4 / (base * base)


@dataclass(frozen=True, slots=True)
class MetricField:
    """Conformal metric of one chart, packaged for the numerical routines.

    ``factor(a, b)`` is the scalar lambda in ``ds^2 = lambda (da^2 + s db^2)``
    with ``s = signature_sign``; it is all the numerical oracle reads (its
    Christoffel symbols and curvature come from differences of ``ln lambda``).
    ``tensor`` is the same data as a 2x2 matrix of nested tuples,
    ``((lambda, 0), (0, s lambda))``, for callers that want one.
    ``boundary_distance`` estimates how far a point is from the nearest
    metric singularity of the chart (first-order estimate where no exact
    expression is available); it returns ``inf`` for charts without one.

    Nothing is recomputed per evaluation: the chart test is made once, at
    construction, and the radius constants (``R^2``, ``kappa R^2``,
    ``4 R^4`` and the limiting-curve guard ``1e-12 R^2``) once per
    :class:`SurfaceSpec`.  ``factor`` makes one call into the chart's
    formula, the same one ``line_element_*`` reads, with the operations in
    their written order, so each value is bit for bit the formula's.
    """

    spec: SurfaceSpec
    chart: Chart
    _isometric: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_isometric", self.chart is Chart.ISOMETRIC)

    @property
    def signature_sign(self) -> float:
        return self.spec.metric_sign

    def factor(self, a: float, b: float) -> float:
        if self._isometric:
            return _isometric_factor(self.spec, a)
        return _cartesian_factor(self.spec, a, b)

    def tensor(self, a: float, b: float) -> tuple:
        """``((lambda, 0), (0, s lambda))``, indexed ``[i][k]``."""
        lam = self.factor(a, b)
        return ((lam, 0.0), (0.0, self.signature_sign * lam))

    def boundary_distance(self, a: float, b: float) -> float:
        spec = self.spec
        if self._isometric:
            return abs(a) if spec.kappa < 0.0 else math.inf
        if spec.metric_sign > 0.0:
            if spec.kappa > 0.0:
                return math.inf
            return abs(math.hypot(a, b) - spec.radius)
        grad = 2.0 * math.hypot(a, b)
        if grad == 0.0:
            return math.inf
        # |base| / |grad base|, base as in the Lorentzian conformal factor
        return abs((a - b) * (a + b) + spec._kappa_r2) / grad


def _line_element(spec: SurfaceSpec, lam: float, da: float, db: float) -> float:
    """``lam (da^2 + s db^2)``; overflow to +-inf is returned as is.

    Raises:
        DomainError: a tangent component is not finite, or ds^2 is NaN (the
            factor underflows to 0 where the quadratic form overflows).
    """
    ds2 = lam * (da * da + spec.metric_sign * db * db)
    if ds2 != ds2 or not (math.isfinite(da) and math.isfinite(db)):
        raise DomainError(
            f"{spec.name} ds^2 of the tangent ({da}, {db}) under the factor {lam} is {ds2}"
        )
    return ds2


def line_element_isometric(
    spec: SurfaceSpec, rho: float, drho: float, dphi: float
) -> float:
    """Signed ``ds^2`` of a tangent vector in the isometric chart.

    Raises:
        DomainError: rho, drho or dphi is not finite, or ds^2 is NaN.
        OnLimitingCurve: negative curvature at ``|rho| < 1e-12``; ``rho = 0``
            is the limiting curve, as ``x^2 + s y^2 = R^2 e^(2 rho)``.
    """
    return _line_element(spec, _isometric_factor(spec, rho), drho, dphi)


def line_element_cartesian(
    spec: SurfaceSpec, x: float, y: float, dx: float, dy: float
) -> float:
    """Signed ``ds^2`` of a tangent vector in the Cartesian chart.

    Raises:
        DomainError: a coordinate or tangent component is not finite, or the
            factor's base or ds^2 is NaN.
        OnLimitingCurve: the point is on the curve where the factor diverges.
    """
    return _line_element(spec, _cartesian_factor(spec, x, y), dx, dy)


def exp_map_to_cartesian(
    spec: SurfaceSpec, rho: float, phi: float
) -> tuple[float, float]:
    """Isometric -> Cartesian chart change.

    Raises:
        DomainError: ``rho`` or ``phi`` is not finite, or the point overflows.
    """
    if not math.isfinite(rho):
        raise DomainError(f"rho must be finite, got {rho}")
    try:
        r = spec.radius * math.exp(rho)
    except OverflowError:
        r = math.inf
    c, s = cos_sin(-spec.metric_sign, phi)
    x, y = r * c, r * s
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"the Cartesian point of (rho, phi) = ({rho}, {phi}) overflows")
    return x, y


def exp_map_pushforward(
    spec: SurfaceSpec, rho: float, phi: float, drho: float, dphi: float
) -> tuple[float, float]:
    """Tangent map of :func:`exp_map_to_cartesian` at ``(rho, phi)``.

    Raises:
        DomainError: as :func:`exp_map_to_cartesian`, or ``drho`` or ``dphi``
            is not finite, or the pushed-forward vector overflows.
    """
    x, y = exp_map_to_cartesian(spec, rho, phi)
    vx, vy = x * drho - spec.metric_sign * y * dphi, y * drho + x * dphi
    if not (math.isfinite(vx) and math.isfinite(vy)):
        raise DomainError(f"drho, dphi = {drho}, {dphi} must be finite and map to finite values")
    return vx, vy
