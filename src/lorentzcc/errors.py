"""Exception types shared across the package.

Everything raised on purpose derives from :class:`GeometryError`, so callers
(and the CLI) can treat "the input left the mathematical domain" uniformly
while still catching specific conditions.
"""

from __future__ import annotations

__all__ = [
    "GeometryError",
    "DivisorOfZero",
    "DomainError",
    "OnLimitingCurve",
    "DegenerateEpsilon",
    "OutOfChart",
    "NoRealIntersection",
    "InvalidMotion",
    "MapsToInfinity",
    "NoGeodesic",
    "CoincidentPoints",
    "OutOfDisk",
    "NearSingular",
    "MixedCausality",
    "DomainExit",
]


class GeometryError(Exception):
    """Base class for all domain and algebra errors raised by this package."""


# --- scalar algebra -------------------------------------------------------

class DivisorOfZero(GeometryError):
    """Inverse or polar form of a null number: a hyperbolic number on a null
    line, or complex zero."""


# --- surface charts -------------------------------------------------------

class DomainError(GeometryError):
    """Argument outside the validity range of a chart or formula."""


class OnLimitingCurve(GeometryError):
    """Conformal factor evaluated where it diverges: the limiting curve, which
    is ``rho = 0`` of the isometric chart (kappa < 0) and ``base = 0`` of the
    Cartesian chart."""


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
    """Motion constants given by the caller violate their defining constraint
    (unit modulus or nondegeneracy)."""


class MapsToInfinity(GeometryError):
    """The bilinear map's denominator is not invertible at this point; the
    image leaves the chart."""


class NoGeodesic(GeometryError):
    """The two points are not joined by a geodesic of the closed-form family
    (null separation, unsupported sector, or a point on the limiting curve)."""


class CoincidentPoints(GeometryError):
    """Two-point construction or cross ratio called with a repeated point."""


class OutOfDisk(GeometryError):
    """Distance requested for a configuration outside the unit-model domain
    (negative curvature, image abscissa >= 1)."""


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
