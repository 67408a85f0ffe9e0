"""Isometries as linear-fractional maps, and what they buy: a two-point
geodesic solver, invariant distance, and cross ratios.

Everything in this module works in NORMALIZED model coordinates
``zeta = z / R`` (radius scaled out).  Motions of the curved surfaces are

    w = (alpha z + beta) / (-kappa conj(beta) z + conj(alpha))

(``kappa`` the sign of the curvature) with hyperbolic-number constants on
Lorentzian surfaces and complex ones on definite surfaces, defined up to a
common scale, nondegenerate when ``D(alpha) + kappa D(beta) != 0``
(``|alpha|^2 +/- |beta|^2`` in the complex case) and finite.  A pair of
points is solved once: the :class:`TwoPointSolution` carries its conic and
distance, the only values converted back to physical units (factor ``2R``
on distances, ``1/R`` powers on conic coefficients).

Points and motion constants carry the number type of the surface's
signature (:func:`number_for`); plain ``(x, y)`` pairs are accepted, and
every point entering a motion, the two-point solver or the distance must be
finite.  The flat-plane rigid motions ``w = a z + b`` / ``w = a conj(z) + b``
with ``D(a) = 1`` are kept separately in :class:`PlaneMotion` and applied by
:func:`plane_apply`.

:func:`apply`, :func:`solve_two_point` and :attr:`TwoPointSolution.conic`
work on the float parts, term for term in the order of
:func:`~lorentzcc.hypernum.mul`, ``conj`` and ``inverse`` (signed zeros
included), and build a ``Number`` only for what they return or print.
They take the divisor-of-zero guard of the inverse, with its messages,
from :func:`~lorentzcc.hypernum.inverse_parts`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import (
    CoincidentPoints,
    DegenerateTuple,
    DivisorOfZero,
    DomainError,
    InvalidMotion,
    MapsToInfinity,
    NoGeodesic,
    OnNullLine,
    OutOfDisk,
)
from .geodesic import GeodesicConic
from .hypernum import (
    ComplexNumber,
    HyperbolicNumber,
    Number,
    PolarForm,
    Sector,
    conj,
    cos_sin,
    inverse,
    inverse_parts,
    is_null,
    mul,
    polar,
    square_modulus,
)
from .surface import SurfaceSpec

__all__ = [
    "PlaneMotion",
    "plane_apply",
    "BilinearMotion",
    "apply",
    "inverse_motion",
    "TwoPointSolution",
    "solve_two_point",
    "geodesic_through",
    "geodesic_distance",
    "cross_ratio",
    "number_for",
]


# --------------------------------------------------------------------------
# flat plane


@dataclass(frozen=True, slots=True)
class PlaneMotion:
    """Rigid motion of the flat Lorentz plane: ``z -> a z + b`` (or
    ``a conj(z) + b`` when ``reflect``), with unit constant ``D(a) = 1``."""

    a: HyperbolicNumber
    b: HyperbolicNumber
    reflect: bool = False


def plane_apply(motion: PlaneMotion, z: HyperbolicNumber) -> HyperbolicNumber:
    """Apply a plane motion.

    Raises:
        DomainError: a constant, the point or the image is not finite, or
            D(a) overflows.
        InvalidMotion: a finite D(a) differs from 1 beyond 1e-12 (relative).
    """
    a, b = motion.a, motion.b
    if not all(math.isfinite(v) for v in (a.x, a.y, b.x, b.y)):
        raise DomainError(f"plane motion constants {a}, {b} are not finite")
    if not (math.isfinite(z.x) and math.isfinite(z.y)):
        raise DomainError(f"plane point ({z.x}, {z.y}) is not finite")
    d = square_modulus(a)
    if not math.isfinite(d):
        raise DomainError(f"D(a) of the plane motion constant {a} overflows")
    if abs(d - 1.0) > 1e-12 * max(1.0, abs(d)):
        raise InvalidMotion(f"plane motion needs D(a) = 1, got {d}")
    w = mul(a, conj(z) if motion.reflect else z) + b
    if not (math.isfinite(w.x) and math.isfinite(w.y)):
        raise DomainError(f"image ({w.x}, {w.y}) of {z} is not finite")
    return w


# --------------------------------------------------------------------------
# curved surfaces


def _number_type(spec: SurfaceSpec) -> type[Number]:
    return HyperbolicNumber if spec.metric_sign < 0.0 else ComplexNumber


def number_for(spec: SurfaceSpec, x: float, y: float) -> Number:
    """Wrap chart components in the number type matching the signature."""
    return _number_type(spec)(float(x), float(y))


def _parts(spec: SurfaceSpec, z) -> tuple[float, float]:
    """Chart components of a point given as a pair or in the surface's
    number type.

    Raises:
        DomainError: a component is NaN or infinite.
    """
    if isinstance(z, (tuple, list)):
        x, y = float(z[0]), float(z[1])
    else:
        want = _number_type(spec)
        if not isinstance(z, want):
            raise TypeError(f"{spec.name} points must be {want.__name__}, got {type(z).__name__}")
        x, y = z.x, z.y
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"{spec.name} point ({x}, {y}) is not finite")
    return x, y


def _shown(spec: SurfaceSpec, z) -> Number:
    """A point accepted by :func:`_parts` as the error messages print it."""
    return z if isinstance(z, Number) else number_for(spec, z[0], z[1])


@dataclass(frozen=True, slots=True)
class BilinearMotion:
    """Isometry of a curved surface in normalized model coordinates.

    Raises:
        DomainError: a constant is not finite, or its ``D`` overflows.
        InvalidMotion: ``|D(alpha) + kappa D(beta)| <= 1e-12 max(|D(alpha)|, |D(beta)|)``.
    """

    alpha: Number
    beta: Number
    spec: SurfaceSpec

    def __post_init__(self) -> None:
        spec = self.spec
        want = _number_type(spec)
        if not (isinstance(self.alpha, want) and isinstance(self.beta, want)):
            raise TypeError(f"{spec.name} motions need {want.__name__} constants")
        da, db = square_modulus(self.alpha), square_modulus(self.beta)
        if not (math.isfinite(da) and math.isfinite(db)):
            raise DomainError(
                f"{spec.name} motion constants {self.alpha}, {self.beta} are not "
                f"finite or overflow D (D(alpha) = {da}, D(beta) = {db})"
            )
        kappa = spec.kappa
        nd = da + kappa * db
        if abs(nd) <= 1e-12 * max(abs(da), abs(db)):
            sign = "+" if kappa > 0.0 else "-"
            raise InvalidMotion(f"degenerate motion: D(alpha) {sign} D(beta) = {nd}")


def apply(motion: BilinearMotion, z) -> Number:
    """Image of a normalized point under the motion.

    Raises:
        MapsToInfinity: the denominator is not invertible at ``z``, or the
            image is not finite.
    """
    spec = motion.spec
    x, y = _parts(spec, z)
    alpha, beta = motion.alpha, motion.beta
    cls = type(alpha)
    u = cls.unit
    ax, ay, bx, by = alpha.x, alpha.y, beta.x, beta.y
    # alpha z + beta
    nx, ny = ax * x + u * ay * y + bx, ax * y + ay * x + by
    # conj(beta) z, and the denominator -kappa conj(beta) z + conj(alpha),
    # formed as conj(alpha) - m or m + conj(alpha) to keep the signs of zeros
    cy = -by
    mx, my = bx * x + u * cy * y, bx * y + cy * x
    if spec.kappa > 0.0:
        dx, dy = ax - mx, -ay - my
    else:
        dx, dy = mx + ax, my + -ay
    try:
        ix, iy = inverse_parts(u, dx, dy)
    except DivisorOfZero as exc:
        raise MapsToInfinity(
            f"denominator {cls(dx, dy)} is not invertible at {_shown(spec, z)}"
        ) from exc
    wx, wy = nx * ix + u * ny * iy, nx * iy + ny * ix
    if not (math.isfinite(wx) and math.isfinite(wy)):
        raise MapsToInfinity(f"image ({wx}, {wy}) of {_shown(spec, z)} is not finite")
    return cls(wx, wy)


def inverse_motion(motion: BilinearMotion) -> BilinearMotion:
    """The inverse isometry; same family with constants (conj(alpha), -beta)."""
    return BilinearMotion(conj(motion.alpha), -motion.beta, motion.spec)


# --------------------------------------------------------------------------
# two-point problems


@dataclass(frozen=True, slots=True)
class TwoPointSolution:
    """Motion taking ``z1 -> 0`` and ``z2`` onto the positive real axis.

    ``l`` is the model abscissa of the image of ``z2`` (so the invariant
    separation in normalized units); ``theta_alpha`` / ``theta_beta`` are the
    arguments of the motion constants and ``rho_beta`` the signed modulus of
    ``beta`` (both zero by convention where ``beta = -alpha z1`` has no polar
    form: ``z1`` at the origin, or on a null line through it, where
    ``sqrt|D(beta)| = 0``).  ``r`` is ``sinh^2`` (negative curvature) or
    ``tan^2`` (positive) of half the normalized distance: ``D(z2 - z1)``
    over ``(1 - D(z1))(1 - D(z2))``, or over ``D`` of the normal-form
    denominator.  It is not read from the quotient whose modulus is ``l``:
    where the denominator is near null, the parts of that quotient cannot
    hold its small ``D``, and ``l`` keeps only a few digits.
    """

    motion: BilinearMotion
    l: float
    theta_alpha: float
    r: float

    @property
    def _polar_beta(self) -> PolarForm:
        beta = self.motion.beta
        return PolarForm(0.0, 0.0, None, 1) if is_null(beta) else polar(beta)

    @property
    def theta_beta(self) -> float:
        return self._polar_beta.theta

    @property
    def rho_beta(self) -> float:
        pb = self._polar_beta
        return pb.sign * pb.rho  # sign is +1 for complex numbers

    @property
    def conic(self) -> GeodesicConic:
        """Physical-chart conic through the two points: with ``G = alpha beta``
        and ``S = alpha^2 + kappa conj(beta)^2`` the normalized conic is
        ``(-kappa G.y, S.y, S.x, G.y)``, rescaled here to the physical chart."""
        alpha, beta, spec = self.motion.alpha, self.motion.beta, self.motion.spec
        u, kappa = alpha.unit, spec.kappa
        ax, ay, bx, by = alpha.x, alpha.y, beta.x, beta.y
        cy = -by
        gy = ax * by + ay * bx
        sx = ax * ax + u * ay * ay + kappa * (bx * bx + u * cy * cy)
        sy = ax * ay + ay * ax + kappa * (bx * cy + cy * bx)
        r = spec.radius
        return GeodesicConic(-kappa * gy / (r * r), sy / r, sx / r, gy, spec)

    @property
    def distance(self) -> float:
        """Physical distance: ``2R asinh(sqrt(r))`` at negative curvature,
        ``2R atan(sqrt(r))`` at positive (``2R atanh(l)``, ``2R atan(l)``).

        Raises:
            OutOfDisk: negative curvature with ``l >= 1``, or with ``r``
                outside ``[0, inf)`` (the second point is not inside the
                model domain).
        """
        spec = self.motion.spec
        l, r = self.l, self.r
        if spec.kappa < 0.0:
            if l >= 1.0:
                raise OutOfDisk(f"image abscissa l = {l} >= 1; point outside the model")
            if not 0.0 <= r < math.inf:
                raise OutOfDisk(f"sinh^2 of half the distance r = {r}; point on the boundary")
            return 2.0 * spec.radius * math.asinh(math.sqrt(r))
        return 2.0 * spec.radius * math.atan(math.sqrt(r))


def solve_two_point(spec: SurfaceSpec, z1, z2) -> TwoPointSolution:
    """Motion normal form of the geodesic through two normalized points.

    A point on a null line through the origin is an ordinary point of a
    Lorentzian surface, so it may be either point; only the separation
    ``z2 - z1`` is tested against the null cone.

    Raises:
        CoincidentPoints: z1 == z2 to 1e-14 of their largest coordinate.
        DomainError: ``D`` of the base point overflows, ``D(z2 - z1)``
            underflows, or ``r`` is NaN because ``D(z2 - z1)``, ``D(z2)`` or
            ``D`` of the normal-form denominator overflows.
        NoGeodesic: no geodesic of the closed-form family joins the points
            (null or spacelike separation on a Lorentzian surface, a
            limiting-curve base point, antipodal points, ...).
    """
    x1, y1 = _parts(spec, z1)
    x2, y2 = _parts(spec, z2)
    tol = 1e-14 * max(abs(x1), abs(y1), abs(x2), abs(y2))
    if abs(x1 - x2) <= tol and abs(y1 - y2) <= tol:
        raise CoincidentPoints(f"points coincide: {_shown(spec, z1)}")
    cls = _number_type(spec)
    u = cls.unit
    d1 = x1 * x1 - u * y1 * y1
    if not math.isfinite(d1):
        raise DomainError(f"D of the base point {_shown(spec, z1)} overflows")
    kappa = spec.kappa
    # the normalized limiting curve D(z) + kappa = 0 (never met on def-pos)
    if abs(d1 + kappa) <= 1e-12 * max(1.0, abs(d1)):
        raise NoGeodesic(f"base point {_shown(spec, z1)} lies on the limiting curve")

    # the denominator 1 +/- conj(z1) z2, and q = (z2 - z1) / denominator
    cy = -y1
    px, py = x1 * x2 + u * cy * y2, x1 * y2 + cy * x2
    ex, ey = (1.0 + px, 0.0 + py) if kappa > 0.0 else (1.0 - px, 0.0 - py)
    sx, sy = x2 - x1, y2 - y1
    try:
        ix, iy = inverse_parts(u, ex, ey)
    except DivisorOfZero as exc:
        raise NoGeodesic(f"normal-form denominator degenerates: {exc}") from exc
    q = cls(sx * ix + u * sy * iy, sx * iy + sy * ix)

    try:
        pol = polar(q)
    except OnNullLine as exc:
        raise NoGeodesic(f"{_shown(spec, z1)} and {_shown(spec, z2)} are null-separated") from exc
    if pol.sector in (Sector.UP, Sector.DOWN):
        raise NoGeodesic(
            f"{_shown(spec, z1)} and {_shown(spec, z2)} are separated across the null cone "
            "(no geodesic of the family joins them)"
        )
    # alpha = exp(-j half), times h on the left sector
    half = pol.theta / 2.0
    c, s = cos_sin(u, half)
    ax, ay = (-s, c) if pol.sector is Sector.LEFT else (c, -s)

    # beta = -alpha z1
    bx, by = -(ax * x1 + u * ay * y1), -(ax * y1 + ay * x1)
    n = sx * sx - u * sy * sy
    if abs(n) < sys.float_info.min:
        raise DomainError(f"D(z2 - z1) = {n} underflows: the points are too close to resolve")
    m = ex * ex - u * ey * ey if kappa > 0.0 else (1.0 - d1) * (1.0 - (x2 * x2 - u * y2 * y2))
    r = n / m if m else math.inf
    # r = inf is the antipodal or boundary limit; only a NaN is refused
    if r != r:
        raise DomainError(f"r = D(z2 - z1) / m = {n} / {m} is not a number")
    return TwoPointSolution(BilinearMotion(cls(ax, ay), cls(bx, by), spec), pol.rho, -half, r)


def geodesic_through(spec: SurfaceSpec, z1, z2) -> GeodesicConic:
    """:attr:`TwoPointSolution.conic` of two normalized points; raises
    everything :func:`solve_two_point` raises."""
    return solve_two_point(spec, z1, z2).conic


def geodesic_distance(spec: SurfaceSpec, z1, z2) -> float:
    """:attr:`TwoPointSolution.distance` of two normalized points, ``0.0``
    where they coincide to 1e-14 of their largest coordinate; raises
    everything else that :func:`solve_two_point` and the property raise."""
    try:
        return solve_two_point(spec, z1, z2).distance
    except CoincidentPoints:
        return 0.0


def cross_ratio(a: Number, b: Number, c: Number, d: Number) -> Number:
    """Cross ratio ``(a-c)(b-d) / ((a-d)(b-c))``, invariant under motions.

    Raises:
        DegenerateTuple: repeated points, or a non-invertible denominator
            (distinct points that are null-separated).
    """
    pts = (a, b, c, d)
    for i in range(4):
        for j in range(i + 1, 4):
            if pts[i] == pts[j]:
                raise DegenerateTuple(f"repeated point {pts[i]} in cross ratio")
    try:
        return mul(mul(a - c, b - d), inverse(mul(a - d, b - c)))
    except DivisorOfZero as exc:
        raise DegenerateTuple(f"cross-ratio denominator degenerates: {exc}") from exc
