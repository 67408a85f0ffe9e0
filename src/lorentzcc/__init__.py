"""Closed-form geometry of constant-curvature Riemann and Lorentz surfaces.

The library models the four surfaces of constant Gauss curvature +-1/R^2 with
definite or Lorentzian metric, in both the isometric (rho, phi) chart and the
conformal Cartesian chart.  Geodesics, rigid motions, and invariant distances
come in closed form, built on complex and hyperbolic (split-complex) number
arithmetic; an independent numerical layer (Christoffel symbols, geodesic
integration, quadrature) cross-checks every closed-form result.
"""

from . import errors, geodesic, hypernum, motion, oracle, surface, verify
from .errors import *
from .hypernum import *
from .surface import *
from .geodesic import *
from .motion import *
from .oracle import *
from .verify import *

__version__ = "0.1.0"

# each module's own __all__ is the one list of its public names
__all__ = [
    *errors.__all__,
    *hypernum.__all__,
    *surface.__all__,
    *geodesic.__all__,
    *motion.__all__,
    *oracle.__all__,
    *verify.__all__,
]
