"""Arithmetic of split-complex (hyperbolic) and ordinary complex numbers.

Both planes share one number type, ``x + j*y`` with a unit ``j`` whose
square is the class constant ``unit``: ``+1`` for a hyperbolic number
(:class:`HyperbolicNumber`, ``j = h``) and ``-1`` for a complex number
(:class:`ComplexNumber`, ``j = i``), as in Yaglom's uniform treatment of
the two planes.  The product and the square modulus are then one formula,

    (a.x + j a.y)(b.x + j b.y) = a.x b.x + unit a.y b.y + j (a.x b.y + a.y b.x)
    D(z) = z conj(z) = x*x - unit y*y,

signed in the hyperbolic plane, where the lines ``|x| = |y|`` are null
lines whose elements are divisors of zero.  Multiplying by ``unit = +-1``
is exact, so each plane gets the same bits as its own textbook formula.
Only the null test and the zero guard of the inverse, the exponential
and the polar form differ in kind between the planes; they branch on
``unit``.  ``cos_sin(unit, t)`` is the one such branch for the
pair ``(cosh t, sinh t)`` / ``(cos t, sin t)``: the two parts of
``exp(j t)``, shared with :meth:`PolarForm.reconstruct` and the chart
maps of the surfaces.

The one null rule of the hyperbolic plane is ``abs(|x| - |y|) <=
_NULL_ANGLE * max(|x|, |y|)``: ``z`` is a divisor of zero when its direction
is within that angle of a null line, whatever its size.  The rule is
homogeneous, so it cannot overflow.  Where ``D`` of a non-null ``z`` leaves
the float range, ``polar`` forms the modulus from the angle and
``inverse_parts`` refuses to divide.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import DivisorOfZero, DomainError

__all__ = [
    "HyperbolicNumber",
    "ComplexNumber",
    "Number",
    "Sector",
    "PolarForm",
    "mul",
    "conj",
    "square_modulus",
    "inverse",
    "hyper_exp",
    "polar",
]


@dataclass(frozen=True, slots=True)
class Number:
    """``x + j*y`` with ``j*j = unit``; instantiate one of the two planes.

    :func:`mul` is the product; ``scalar * z`` scales both parts."""

    x: float
    y: float

    def __add__(self, other: "Number") -> "Number":
        return type(self)(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Number") -> "Number":
        return type(self)(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Number":
        return type(self)(-self.x, -self.y)

    def __rmul__(self, scalar: float) -> "Number":
        return type(self)(scalar * self.x, scalar * self.y)


class HyperbolicNumber(Number):
    """``x + h*y``, ``h*h = +1``."""

    __slots__ = ()
    unit = 1.0


class ComplexNumber(Number):
    """``x + i*y``, ``i*i = -1``."""

    __slots__ = ()
    unit = -1.0


class Sector(Enum):
    """Connected component of the hyperbolic plane minus its null lines."""

    RIGHT = "right"
    UP = "up"
    LEFT = "left"
    DOWN = "down"


_RIGHT_LEFT = (Sector.RIGHT, Sector.LEFT)
_UP_DOWN = (Sector.UP, Sector.DOWN)


@dataclass(frozen=True, slots=True)
class PolarForm:
    """Polar decomposition of a non-null number.

    For a hyperbolic number the sector records which of the four wedges the
    number lies in and ``sign`` is the sign of the dominant component, so

        right/left:  sign * rho * (cosh(theta) + h sinh(theta))
        up/down:     sign * rho * (sinh(theta) + h cosh(theta))

    For a complex number ``sector`` is ``None``, ``sign`` is ``+1`` and the
    pair is the usual modulus/argument.
    """

    rho: float
    theta: float
    sector: Sector | None
    sign: int

    def reconstruct(self) -> Number:
        """Rebuild the number this form was computed from.

        Raises:
            DomainError: ``theta`` is not finite, or ``cosh theta`` overflows.
        """
        cls = ComplexNumber if self.sector is None else HyperbolicNumber
        c, s = cos_sin(cls.unit, self.theta)
        if self.sector in _UP_DOWN:
            c, s = s, c
        r = self.sign * self.rho  # sign is +1 for complex numbers: exact
        return cls(r * c, r * s)


def mul(a: Number, b: Number) -> Number:
    """Product; the two factors must be of the same kind."""
    cls = type(a)
    if type(b) is not cls or not isinstance(a, Number):
        raise TypeError(f"cannot multiply {cls.__name__} by {type(b).__name__}")
    return cls(a.x * b.x + a.unit * a.y * b.y, a.x * b.y + a.y * b.x)


def conj(z: Number) -> Number:
    """Conjugation ``x + j*y -> x - j*y`` (same formula in both planes)."""
    return type(z)(z.x, -z.y)


def square_modulus(z: Number) -> float:
    """``x*x - y*y`` (signed) for hyperbolic, ``x*x + y*y`` for complex."""
    return z.x * z.x - z.unit * z.y * z.y


# the null rule's bound on t = 1 - min / max of (|x|, |y|); where max = 1,
# |D| = t (2 - t), so the rule reads |D| <= 1e-12 on numbers of unit size
_NULL_ANGLE = 5e-13
_MIN_NORMAL = sys.float_info.min


def _null_parts(unit: float, x: float, y: float) -> bool:
    """The null rule (module docstring) on float parts; complex null is zero."""
    ax, ay = abs(x), abs(y)
    return abs(ax - ay) <= _NULL_ANGLE * max(ax, ay) if unit > 0.0 else ax == ay == 0.0


def is_null(z: Number) -> bool:
    """True when ``z`` is a divisor of zero by the null rule, at any size."""
    return _null_parts(z.unit, z.x, z.y)


def inverse_parts(unit: float, x: float, y: float) -> tuple[float, float]:
    """Parts ``(x/D, -y/D)`` of the inverse of ``x + j*y``, ``j*j = unit``;
    the one divisor-of-zero guard of a quotient.

    Raises:
        DivisorOfZero: ``x + j*y`` is null (:func:`is_null`), as in :func:`polar`.
        DomainError: ``D`` is not finite, or it underflows below the normal
            range; the quotient would silently read zero, NaN or lost digits.
    """
    d = x * x - unit * y * y
    if not math.isfinite(d):
        raise DomainError(f"D({x}, {y}) = {d} is not finite; no inverse")
    if _null_parts(unit, x, y):
        if unit > 0.0:
            raise DivisorOfZero(f"({x}, {y}) lies on a null line and has no inverse")
        raise DivisorOfZero("complex zero has no inverse")
    if abs(d) < _MIN_NORMAL:
        raise DomainError(f"D({x}, {y}) = {d} underflows; no inverse")
    return x / d, -y / d


def inverse(z: Number) -> Number:
    """Multiplicative inverse ``conj(z) / square_modulus(z)``; raises what
    :func:`inverse_parts` raises."""
    return type(z)(*inverse_parts(z.unit, z.x, z.y))


def cos_sin(unit: float, t: float) -> tuple[float, float]:
    """``(cosh t, sinh t)`` for ``unit = +1``, ``(cos t, sin t)`` for ``-1``.

    Raises:
        DomainError: ``t`` is not finite, or ``cosh t`` overflows.
    """
    if math.isfinite(t):
        if unit < 0.0:
            return math.cos(t), math.sin(t)
        try:
            return math.cosh(t), math.sinh(t)
        except OverflowError:
            pass
    pair = "(cosh, sinh)" if unit > 0.0 else "(cos, sin)"
    raise DomainError(f"{pair} of {t} is not finite")


def hyper_exp(w: Number) -> Number:
    """Exponential; ``exp(x) * (cosh y + h sinh y)`` in the hyperbolic plane.

    Note ``square_modulus(hyper_exp(w)) = exp(2 w.x)``: the image always lies
    in the right sector.

    Raises:
        DomainError: ``w`` or a part of the image is not finite.
    """
    try:
        e = math.exp(w.x)
    except OverflowError:
        e = math.inf
    c, s = cos_sin(w.unit, w.y)
    x, y = e * c, e * s
    if not (math.isfinite(w.x) and math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"exp({w.x}, {w.y}) = ({x}, {y}) is not finite")
    return type(w)(x, y)


def polar_parts(unit: float, x: float, y: float) -> tuple[float, float, Sector | None, int]:
    """``(rho, theta, sector, sign)`` of the polar form of ``x + j*y``,
    ``j*j = unit``; the one body of :func:`polar`, which raises what this
    raises."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"({x}, {y}) is not finite; no polar form")
    if _null_parts(unit, x, y):
        raise DivisorOfZero(f"({x}, {y}) is null and has no polar form")
    if unit < 0.0:
        return math.hypot(x, y), math.atan2(y, x), None, 1
    # h (x + h y) = y + h x: up/down are right/left with the parts swapped
    p, q = x, y
    ap, aq = abs(p), abs(q)
    pos, neg = _RIGHT_LEFT
    if aq >= ap:
        p, q, ap, aq = q, p, aq, ap
        pos, neg = _UP_DOWN
    d, t = (ap - aq) * (ap + aq), (ap - aq) / ap
    # where D over- or underflows, not the modulus: |p| sqrt(t (2 - t))
    rho = math.sqrt(d) if _MIN_NORMAL <= d < math.inf else ap * math.sqrt(t * (2.0 - t))
    sector, sign = (pos, 1) if p > 0 else (neg, -1)
    return rho, math.atanh(q / p), sector, sign


def polar(z: Number) -> PolarForm:
    """Polar decomposition.

    Raises:
        DivisorOfZero: ``z`` is null (:func:`is_null`): on a null line, at any
            size, or complex zero.
        DomainError: ``z`` is not finite.
    """
    return PolarForm(*polar_parts(z.unit, z.x, z.y))
