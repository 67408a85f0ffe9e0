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
Only the modulus, the null test and the zero guard of the inverse, the
exponential and the polar form differ in kind between the planes; they
branch on ``unit``.  ``cos_sin(unit, t)`` is the one such branch for the
pair ``(cosh t, sinh t)`` / ``(cos t, sin t)``: the two parts of
``exp(j t)``, shared with the chart maps of the surfaces.

The near-null guard of the hyperbolic plane is

    tol = 1e-12 * max(1, |x|, |y|)

applied to ``|D(z)|``; small numbers are deliberately treated as near-null
because every statement downstream degrades in the same absolute way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DivisorOfZero, DomainError, OnNullLine

__all__ = [
    "HyperbolicNumber",
    "ComplexNumber",
    "Number",
    "Sector",
    "PolarForm",
    "mul",
    "conj",
    "square_modulus",
    "modulus",
    "inverse",
    "hyper_exp",
    "polar",
    "is_null",
    "zero_divisor_tolerance",
]


@dataclass(frozen=True, slots=True)
class Number:
    """``x + j*y`` with ``j*j = unit``; instantiate one of the two planes."""

    x: float
    y: float

    def __add__(self, other: "Number") -> "Number":
        return type(self)(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Number") -> "Number":
        return type(self)(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Number":
        return type(self)(-self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, Number):
            return mul(self, other)
        return type(self)(self.x * other, self.y * other)

    def __rmul__(self, scalar: float) -> "Number":
        return type(self)(scalar * self.x, scalar * self.y)

    def __truediv__(self, scalar: float) -> "Number":
        return type(self)(self.x / scalar, self.y / scalar)


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
        """Rebuild the number this form was computed from."""
        if self.sector is None:
            return ComplexNumber(
                self.rho * math.cos(self.theta), self.rho * math.sin(self.theta)
            )
        c, s = math.cosh(self.theta), math.sinh(self.theta)
        r = self.sign * self.rho
        if self.sector in (Sector.RIGHT, Sector.LEFT):
            return HyperbolicNumber(r * c, r * s)
        return HyperbolicNumber(r * s, r * c)


def zero_divisor_tolerance(z: Number) -> float:
    """Absolute guard under which ``D(z)`` counts as vanishing."""
    return 1e-12 * max(1.0, abs(z.x), abs(z.y))


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


def modulus(z: Number) -> float:
    """``sqrt(|square_modulus|)``; equals ``hypot(x, y)`` in the complex case."""
    if z.unit > 0.0:
        return math.sqrt(abs((abs(z.x) - abs(z.y)) * (abs(z.x) + abs(z.y))))
    return math.hypot(z.x, z.y)


def is_null(z: Number) -> bool:
    """True when ``z`` is (numerically) a divisor of zero."""
    if z.unit > 0.0:
        return abs(square_modulus(z)) <= zero_divisor_tolerance(z)
    return z.x == 0.0 and z.y == 0.0


def inverse(z: Number) -> Number:
    """Multiplicative inverse ``conj(z) / square_modulus(z)``.

    Raises:
        DivisorOfZero: hyperbolic ``z`` with ``|D| <= tol``, or complex ``z``
            whose ``D`` is zero (which includes underflow of ``x*x + y*y``).
        DomainError: ``D`` is not finite (it overflows, or ``z`` is not
            finite); the quotient would silently read zero or NaN.
    """
    d = square_modulus(z)
    if not math.isfinite(d):
        raise DomainError(f"D({z.x}, {z.y}) = {d} is not finite; no inverse")
    if z.unit > 0.0:
        if abs(d) <= zero_divisor_tolerance(z):
            raise DivisorOfZero(
                f"({z.x}, {z.y}) lies on a null line and has no inverse"
            )
    elif d == 0.0:
        raise DivisorOfZero("complex zero has no inverse")
    return type(z)(z.x / d, -z.y / d)


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
    """
    e = math.exp(w.x)
    c, s = cos_sin(w.unit, w.y)
    return type(w)(e * c, e * s)


def polar(z: Number) -> PolarForm:
    """Polar decomposition.

    Hyperbolic case raises :class:`OnNullLine` when ``|D(z)| <= tol``; the
    complex case raises :class:`DivisorOfZero` at the origin only.
    """
    if z.unit < 0.0:
        if z.x == 0.0 and z.y == 0.0:
            raise DivisorOfZero("complex zero has no polar form")
        return PolarForm(math.hypot(z.x, z.y), math.atan2(z.y, z.x), None, 1)

    ax, ay = abs(z.x), abs(z.y)
    if abs(z.x * z.x - z.y * z.y) <= zero_divisor_tolerance(z):
        raise OnNullLine(f"({z.x}, {z.y}) lies on a null line")
    if ax > ay:
        sector = Sector.RIGHT if z.x > 0 else Sector.LEFT
        sign = 1 if z.x > 0 else -1
        rho = math.sqrt((ax - ay) * (ax + ay))
        theta = math.atanh(z.y / z.x)
    else:
        sector = Sector.UP if z.y > 0 else Sector.DOWN
        sign = 1 if z.y > 0 else -1
        rho = math.sqrt((ay - ax) * (ay + ax))
        theta = math.atanh(z.x / z.y)
    return PolarForm(rho, theta, sector, sign)
