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

The near-null guard of the hyperbolic plane is

    tol = 1e-12 * max(1, |x|, |y|)

applied to ``|D(z)|``; small numbers are deliberately treated as near-null
because every statement downstream degrades in the same absolute way.
The rule also holds for a finite ``z`` whose ``D`` overflows: ``is_null``
then tests ``|D| / max(|x|, |y|)`` and ``polar`` returns the finite
modulus, both from ``1 - r``, ``r = min(|x|, |y|) / max(|x|, |y|)``.
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


def is_null(z: Number) -> bool:
    """True when ``z`` is (numerically) a divisor of zero."""
    if z.unit < 0.0:
        return z.x == 0.0 and z.y == 0.0
    d = square_modulus(z)
    if d != d and math.isfinite(z.x) and math.isfinite(z.y):
        # both squares overflow: the same rule divided by m = max(|x|, |y|),
        # |D| / m = m (1 - r)(1 + r) with r = min / m and t = 1 - r exact
        m = max(abs(z.x), abs(z.y))
        t = (m - min(abs(z.x), abs(z.y))) / m
        return m * (t * (2.0 - t)) <= 1e-12
    return abs(d) <= zero_divisor_tolerance(z)


def inverse_parts(unit: float, x: float, y: float) -> tuple[float, float]:
    """Parts ``(x/D, -y/D)`` of the inverse of ``x + j*y``, ``j*j = unit``;
    the one divisor-of-zero guard (tolerance inline: no call per division).

    Raises:
        DivisorOfZero: hyperbolic ``|D| <= tol``, or complex ``D`` zero
            (which includes underflow of ``x*x + y*y``).
        DomainError: ``D`` is not finite (it overflows, or a part is not
            finite); the quotient would silently read zero or NaN.
    """
    d = x * x - unit * y * y
    if not math.isfinite(d):
        raise DomainError(f"D({x}, {y}) = {d} is not finite; no inverse")
    if unit > 0.0:
        if abs(d) <= 1e-12 * max(1.0, abs(x), abs(y)):
            raise DivisorOfZero(f"({x}, {y}) lies on a null line and has no inverse")
    elif d == 0.0:
        raise DivisorOfZero("complex zero has no inverse")
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


def polar(z: Number) -> PolarForm:
    """Polar decomposition.

    Hyperbolic case raises :class:`OnNullLine` when ``|D(z)| <= tol``; the
    complex case raises :class:`DivisorOfZero` at the origin only.  Both
    raise :class:`DomainError` where ``z`` is not finite.
    """
    if not (math.isfinite(z.x) and math.isfinite(z.y)):
        raise DomainError(f"({z.x}, {z.y}) is not finite; no polar form")
    if z.unit < 0.0:
        if z.x == 0.0 and z.y == 0.0:
            raise DivisorOfZero("complex zero has no polar form")
        return PolarForm(math.hypot(z.x, z.y), math.atan2(z.y, z.x), None, 1)

    if is_null(z):
        raise OnNullLine(f"({z.x}, {z.y}) lies on a null line")
    # h (x + h y) = y + h x: up/down are right/left with the parts swapped
    p, q = z.x, z.y
    ap, aq = abs(p), abs(q)
    pos, neg = _RIGHT_LEFT
    if aq >= ap:
        p, q, ap, aq = q, p, aq, ap
        pos, neg = _UP_DOWN
    rho = math.sqrt((ap - aq) * (ap + aq))
    if rho == math.inf:  # D overflowed, not the modulus: |p| sqrt((1 - r)(1 + r))
        t = (ap - aq) / ap
        rho = ap * math.sqrt(t * (2.0 - t))
    sector, sign = (pos, 1) if p > 0 else (neg, -1)
    return PolarForm(rho, math.atanh(q / p), sector, sign)
