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

:func:`apply` and the two-point solver work on the float parts, term for
term in the order of :func:`~lorentzcc.hypernum.mul`, ``conj`` and
``inverse`` (signed zeros included).  They take the divisor-of-zero guard
and the polar form, with their messages, from
:func:`~lorentzcc.hypernum.inverse_parts` and
:func:`~lorentzcc.hypernum.polar_parts`.  The solver is one kernel,
``_solve``, that returns the parts of a pair's normal form; the checks of
the motion, its conic and the distance are float functions of those parts.
:func:`solve_two_point` builds from them the two constants, the
:class:`BilinearMotion` and the :class:`TwoPointSolution` it returns,
:func:`geodesic_through` only the conic, and :func:`geodesic_distance` no
object at all.  Otherwise a ``Number`` is built only where an error message
prints one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import (
    CoincidentPoints,
    DivisorOfZero,
    DomainError,
    InvalidMotion,
    MapsToInfinity,
    NoGeodesic,
    OutOfDisk,
)
from .geodesic import GeodesicConic
from .hypernum import (
    ComplexNumber,
    HyperbolicNumber,
    Number,
    PolarForm,
    Sector,
    _null_parts,
    conj,
    cos_sin,
    inverse,
    inverse_parts,
    is_null,
    mul,
    polar,
    polar_parts,
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
        DomainError: a constant is not finite, its ``D`` overflows, or both
            ``D`` underflow below the normal range while a constant is not
            null (:func:`~lorentzcc.hypernum.is_null`), so that their
            nondegeneracy cannot be read.
        InvalidMotion: ``|D(alpha) + kappa D(beta)| <= 1e-12 max(|D(alpha)|, |D(beta)|)``.
    """

    alpha: Number
    beta: Number
    spec: SurfaceSpec

    def __post_init__(self) -> None:
        spec, alpha, beta = self.spec, self.alpha, self.beta
        want = _number_type(spec)
        if not (isinstance(alpha, want) and isinstance(beta, want)):
            raise TypeError(f"{spec.name} motions need {want.__name__} constants")
        _check_motion(spec, alpha.x, alpha.y, beta.x, beta.y)


def _check_motion(spec: SurfaceSpec, ax: float, ay: float, bx: float, by: float) -> None:
    """The checks of :class:`BilinearMotion`, with its errors, on the parts
    ``(ax, ay)`` of ``alpha`` and ``(bx, by)`` of ``beta``."""
    cls = _number_type(spec)
    u = cls.unit
    da, db = ax * ax - u * ay * ay, bx * bx - u * by * by
    if not (math.isfinite(da) and math.isfinite(db)):
        raise DomainError(
            f"{spec.name} motion constants {cls(ax, ay)}, {cls(bx, by)} are not "
            f"finite or overflow D (D(alpha) = {da}, D(beta) = {db})"
        )
    if max(abs(da), abs(db)) < sys.float_info.min and not (
        _null_parts(u, ax, ay) and _null_parts(u, bx, by)
    ):
        raise DomainError(
            f"{spec.name} motion constants {cls(ax, ay)}, {cls(bx, by)} underflow D "
            f"(D(alpha) = {da}, D(beta) = {db}); their nondegeneracy cannot be read"
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
    # m = conj(beta) z, and the denominator conj(alpha) - kappa m; kappa = +-1
    # is an exact factor, and a - (-b) is a + b, signed zeros included
    cy = -by
    mx, my = bx * x + u * cy * y, bx * y + cy * x
    kappa = spec.kappa
    dx, dy = ax - kappa * mx, -ay - kappa * my
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
        alpha, beta = self.motion.alpha, self.motion.beta
        return _conic(self.motion.spec, alpha.x, alpha.y, beta.x, beta.y)

    @property
    def distance(self) -> float:
        """Physical distance: ``2R asinh(sqrt(r))`` at negative curvature,
        ``2R atan(sqrt(r))`` at positive (``2R atanh(l)``, ``2R atan(l)``).

        Raises:
            OutOfDisk: negative curvature with ``l >= 1``, or with ``r``
                outside ``[0, inf)`` (the second point is not inside the
                model domain).
        """
        return _distance(self.motion.spec, self.l, self.r)


def _conic(spec: SurfaceSpec, ax: float, ay: float, bx: float, by: float) -> GeodesicConic:
    """:attr:`TwoPointSolution.conic` of the motion with constants
    ``(ax, ay)`` and ``(bx, by)``."""
    u, kappa = _number_type(spec).unit, spec.kappa
    cy = -by
    gy = ax * by + ay * bx
    sx = ax * ax + u * ay * ay + kappa * (bx * bx + u * cy * cy)
    sy = ax * ay + ay * ax + kappa * (bx * cy + cy * bx)
    r = spec.radius
    return GeodesicConic(-kappa * gy / (r * r), sy / r, sx / r, gy, spec)


def _distance(spec: SurfaceSpec, l: float, r: float) -> float:
    """:attr:`TwoPointSolution.distance` of the normal form with ``l`` and ``r``."""
    if spec.kappa < 0.0:
        if l >= 1.0:
            raise OutOfDisk(f"image abscissa l = {l} >= 1; point outside the model")
        if not 0.0 <= r < math.inf:
            raise OutOfDisk(f"sinh^2 of half the distance r = {r}; point on the boundary")
        return 2.0 * spec.radius * math.asinh(math.sqrt(r))
    return 2.0 * spec.radius * math.atan(math.sqrt(r))


def _solve(spec: SurfaceSpec, z1, z2) -> tuple[float, float, float, float, float, float, float]:
    """Parts ``(ax, ay, bx, by, l, theta_alpha, r)`` of the normal form of two
    normalized points, the motion's constants not yet checked
    (:func:`_check_motion`); raises what :func:`solve_two_point` raises
    before that check."""
    x1, y1 = _parts(spec, z1)
    x2, y2 = _parts(spec, z2)
    tol = 1e-14 * max(abs(x1), abs(y1), abs(x2), abs(y2))
    if abs(x1 - x2) <= tol and abs(y1 - y2) <= tol:
        raise CoincidentPoints(f"points coincide: {_shown(spec, z1)}")
    u = _number_type(spec).unit
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
    ex, ey = 1.0 + kappa * px, 0.0 + kappa * py
    sx, sy = x2 - x1, y2 - y1
    try:
        ix, iy = inverse_parts(u, ex, ey)
    except DivisorOfZero as exc:
        raise NoGeodesic(f"normal-form denominator degenerates: {exc}") from exc
    qx, qy = sx * ix + u * sy * iy, sx * iy + sy * ix

    # q is null only on a null line: complex q != 0 once z1 != z2, D(den) finite
    try:
        rho, theta, sector, _ = polar_parts(u, qx, qy)
    except DivisorOfZero as exc:
        raise NoGeodesic(f"{_shown(spec, z1)} and {_shown(spec, z2)} are null-separated") from exc
    if sector in (Sector.UP, Sector.DOWN):
        raise NoGeodesic(
            f"{_shown(spec, z1)} and {_shown(spec, z2)} are separated across the null cone "
            "(no geodesic of the family joins them)"
        )
    # alpha = exp(-j half), times h on the left sector
    half = theta / 2.0
    c, s = cos_sin(u, half)
    ax, ay = (-s, c) if sector is Sector.LEFT else (c, -s)

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
    return ax, ay, bx, by, rho, -half, r


def _base_point_fault(spec: SurfaceSpec, z1, exc: Exception) -> Exception:
    """The base point's fault behind a failed check of the solver's own
    constants: ``D(alpha) = +-1``, so a degenerate motion puts ``z1`` on the
    limiting curve, and ``D(beta) = +-D(z1)`` overflows only with ``D(z1)``."""
    if isinstance(exc, InvalidMotion):
        return NoGeodesic(f"base point {_shown(spec, z1)} lies on the limiting curve")
    return DomainError(f"D of the base point {_shown(spec, z1)} overflows in beta = -alpha z1")


def solve_two_point(spec: SurfaceSpec, z1, z2) -> TwoPointSolution:
    """Motion normal form of the geodesic through two normalized points.

    A point on a null line through the origin is an ordinary point of a
    Lorentzian surface, so it may be either point; only the separation
    ``z2 - z1`` is tested against the null cone.

    Raises:
        CoincidentPoints: z1 == z2 to 1e-14 of their largest coordinate.
        DomainError: ``D`` of the base point overflows (also as ``D(beta)``,
            ``beta = -alpha z1``), ``D(z2 - z1)`` underflows, or ``r`` is NaN
            because ``D(z2 - z1)``, ``D(z2)`` or ``D`` of the normal-form
            denominator overflows.
        NoGeodesic: no geodesic of the closed-form family joins the points
            (null or spacelike separation on a Lorentzian surface, a
            limiting-curve base point, also where the solver's own motion is
            degenerate, antipodal points, ...).
    """
    ax, ay, bx, by, l, theta_alpha, r = _solve(spec, z1, z2)
    cls = _number_type(spec)
    try:
        motion = BilinearMotion(cls(ax, ay), cls(bx, by), spec)
    except (DomainError, InvalidMotion) as exc:
        raise _base_point_fault(spec, z1, exc) from exc
    return TwoPointSolution(motion, l, theta_alpha, r)


def geodesic_through(spec: SurfaceSpec, z1, z2) -> GeodesicConic:
    """:attr:`TwoPointSolution.conic` of two normalized points, from the
    solver's parts without a motion object; raises everything
    :func:`solve_two_point` raises."""
    ax, ay, bx, by, _, _, _ = _solve(spec, z1, z2)
    try:
        _check_motion(spec, ax, ay, bx, by)
    except (DomainError, InvalidMotion) as exc:
        raise _base_point_fault(spec, z1, exc) from exc
    return _conic(spec, ax, ay, bx, by)


def geodesic_distance(spec: SurfaceSpec, z1, z2) -> float:
    """:attr:`TwoPointSolution.distance` of two normalized points, from the
    solver's parts without a motion object; ``0.0`` where they coincide to
    1e-14 of their largest coordinate; raises everything else that
    :func:`solve_two_point` and the property raise."""
    try:
        ax, ay, bx, by, l, _, r = _solve(spec, z1, z2)
    except CoincidentPoints:
        return 0.0
    try:
        _check_motion(spec, ax, ay, bx, by)
    except (DomainError, InvalidMotion) as exc:
        raise _base_point_fault(spec, z1, exc) from exc
    return _distance(spec, l, r)


def cross_ratio(a: Number, b: Number, c: Number, d: Number) -> Number:
    """Cross ratio ``(a-c)(b-d) / ((a-d)(b-c))``, invariant under motions.

    Raises:
        CoincidentPoints: a repeated point.
        DivisorOfZero: the denominator is null (distinct points that are
            null-separated).
    """
    pts = (a, b, c, d)
    for i, p in enumerate(pts):
        if p in pts[i + 1:]:
            raise CoincidentPoints(f"repeated point {p} in cross ratio")
    return mul(mul(a - c, b - d), inverse(mul(a - d, b - c)))
