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
"""

from .specfun import agm, ellipe, ellipk
from .quadrature import (
    QuadResult,
    QuadratureError,
    integrate,
    integrate2d,
    integrate_singular,
)
from .surface import (
    MetricCoeffs,
    TriMesh,
    build_mesh,
    circle_point_a,
    circle_point_b,
    edge_angle,
    euler_characteristic,
    export_obj,
    jacobian_xy,
    mean_curvature_density,
    mesh_area,
    mesh_is_closed,
    mesh_volume,
    metric,
    area_element,
    second_form_b22,
    surface_point,
    unit_normal,
)
from .intrinsic import (
    AppendixCheck,
    IntrinsicVolumes,
    appendix_identity_check,
    coxeter_like_integral,
    curvature_integral,
    edge_integral,
    mean_curvature_total,
    mean_width,
    oloid_intrinsic_volumes,
    surface_area,
    volume,
)
from .support import (
    WidthEstimate,
    mean_width_direct,
    mean_width_montecarlo,
    support_cartesian,
    support_spherical,
    switching_angle,
    width,
)
from .steiner_kinematic import (
    BallBallMC,
    Expectations,
    KinematicFunctionals,
    ParallelBody,
    ball_intrinsic_volumes,
    intersection_expectations,
    kinematic_coefficient,
    kinematic_functionals,
    lens_surface,
    lens_volume,
    mc_ball_ball_expectations,
    parallel_body,
    steiner_volume,
    unit_ball_volume,
)

__version__ = "0.1.0"

__all__ = [
    "agm",
    "ellipe",
    "ellipk",
    "QuadResult",
    "QuadratureError",
    "integrate",
    "integrate2d",
    "integrate_singular",
    "MetricCoeffs",
    "TriMesh",
    "build_mesh",
    "circle_point_a",
    "circle_point_b",
    "edge_angle",
    "euler_characteristic",
    "export_obj",
    "jacobian_xy",
    "mean_curvature_density",
    "mesh_area",
    "mesh_is_closed",
    "mesh_volume",
    "metric",
    "area_element",
    "second_form_b22",
    "surface_point",
    "unit_normal",
    "AppendixCheck",
    "IntrinsicVolumes",
    "appendix_identity_check",
    "coxeter_like_integral",
    "curvature_integral",
    "edge_integral",
    "mean_curvature_total",
    "mean_width",
    "oloid_intrinsic_volumes",
    "surface_area",
    "volume",
    "WidthEstimate",
    "mean_width_direct",
    "mean_width_montecarlo",
    "support_cartesian",
    "support_spherical",
    "switching_angle",
    "width",
    "BallBallMC",
    "Expectations",
    "KinematicFunctionals",
    "ParallelBody",
    "ball_intrinsic_volumes",
    "intersection_expectations",
    "kinematic_coefficient",
    "kinematic_functionals",
    "lens_surface",
    "lens_volume",
    "mc_ball_ball_expectations",
    "parallel_body",
    "steiner_volume",
    "unit_ball_volume",
]
