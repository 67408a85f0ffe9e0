"""Exception types shared across the package.

Everything raised on purpose derives from :class:`GeometryError`, so callers
(and the CLI) can treat "the input left the mathematical domain" uniformly
while still catching specific conditions.
"""

from __future__ import annotations

__all__ = [
    "GeometryError",
    "DivisorOfZero",
    "OnNullLine",
    "ProfileZero",
    "DomainError",
    "SingularPoint",
    "OnLimitingCurve",
    "DegenerateEpsilon",
    "OutOfChart",
    "NoRealIntersection",
    "InvalidMotion",
    "MapsToInfinity",
    "NoGeodesic",
    "CoincidentPoints",
    "OutOfDisk",
    "DegenerateTuple",
    "NearSingular",
    "MixedCausality",
    "DomainExit",
]


class GeometryError(Exception):
    """Base class for all domain and algebra errors raised by this package."""


# --- scalar algebra -------------------------------------------------------

class DivisorOfZero(GeometryError):
    """Inversion of a split-complex number whose indefinite modulus vanishes."""


class OnNullLine(GeometryError):
    """Polar decomposition requested on a null line (|x| = |y|)."""


# --- surface charts -------------------------------------------------------

class ProfileZero(GeometryError):
    """Curvature of a revolution profile evaluated where the profile vanishes."""


class DomainError(GeometryError):
    """Argument outside the validity range of a chart or formula."""


class SingularPoint(GeometryError):
    """Evaluation at a pole of the conformal factor (rho = 0 on a
    negative-curvature isometric chart)."""


class OnLimitingCurve(GeometryError):
    """Cartesian-chart evaluation on the curve where the conformal factor
    diverges."""


# --- closed-form geodesics ------------------------------------------------

class DegenerateEpsilon(GeometryError):
    """Geodesic family parameter too close to zero; the conic degenerates to
    a straight line through the origin (see ``origin_line``)."""


class OutOfChart(GeometryError):
    """Arc-length parameter outside the window where the parametric geodesic
    stays inside the chart."""


class NoRealIntersection(GeometryError):
    """A conic/limiting-curve system has no real solution."""


# --- motions --------------------------------------------------------------

class InvalidMotion(GeometryError):
    """Motion constants violate their defining constraint (unit modulus or
    nondegeneracy)."""


class MapsToInfinity(GeometryError):
    """The bilinear map's denominator is not invertible at this point; the
    image leaves the chart."""


class NoGeodesic(GeometryError):
    """The two points are not joined by a geodesic of the closed-form family
    (null separation, unsupported sector, or a point on the limiting curve)."""


class CoincidentPoints(GeometryError):
    """Two-point construction called with equal points."""


class OutOfDisk(GeometryError):
    """Distance requested for a configuration outside the unit-model domain
    (negative curvature, image abscissa >= 1)."""


class DegenerateTuple(GeometryError):
    """Cross ratio of a tuple with repeated points or non-invertible
    denominators."""


# --- numerical oracle -----------------------------------------------------

class NearSingular(GeometryError):
    """A finite-difference stencil point left the chart domain."""


class MixedCausality(GeometryError):
    """Arc length requested for a polyline whose segments are not causally
    uniform (some timelike, some spacelike)."""


class DomainExit(GeometryError):
    """Geodesic integration approached the chart boundary and stopped early.

    The partial trajectory (a list of states, including the initial one) is
    carried in :attr:`trajectory`.
    """

    def __init__(self, message: str, trajectory: list):
        super().__init__(message)
        self.trajectory = trajectory
