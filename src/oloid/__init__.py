"""Integral geometry of the oloid.

The oloid is the convex hull of two unit circles in perpendicular planes,
each passing through the other's center.  This package computes its
intrinsic volumes (volume, surface area, integral of mean curvature, mean
width) by independent routes -- closed forms in complete elliptic
integrals, certified numerical quadrature, a watertight mesh oracle and
Monte Carlo -- and derives parallel-body and kinematic-formula quantities
from them.

numpy is imported only inside the mesh and Monte Carlo functions, so the
closed-form and quadrature routes run on the standard library alone.

Each submodule lists its public names in its own ``__all__``; the package
re-exports them and ``__all__`` here is their concatenation.
"""

from . import intrinsic, quadrature, specfun, steiner_kinematic, support, surface
from .specfun import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .surface import *  # noqa: F403
from .intrinsic import *  # noqa: F403
from .support import *  # noqa: F403
from .steiner_kinematic import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (specfun, quadrature, surface, intrinsic, support, steiner_kinematic)
    for name in module.__all__
]
