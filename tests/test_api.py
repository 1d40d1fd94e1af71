"""The package's public names and the entry points the traced benchmark wraps."""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

import oloid

PUBLIC_NAMES = {
    "agm", "ellipe", "ellipk",
    "QuadResult", "QuadratureError", "integrate", "integrate2d", "integrate_singular",
    "MetricCoeffs", "TriMesh", "build_mesh", "edge_angle", "export_obj", "jacobian_xy",
    "mean_curvature_density", "mesh_area", "mesh_is_closed", "mesh_volume", "metric",
    "second_form_b22", "surface_point", "unit_normal",
    "AppendixCheck", "IntrinsicVolumes", "appendix_identity_check",
    "coxeter_like_integral", "curvature_integral", "edge_integral",
    "mean_curvature_total", "mean_width", "oloid_intrinsic_volumes", "surface_area",
    "volume",
    "WidthEstimate", "mean_width_direct", "mean_width_montecarlo", "support_cartesian",
    "switching_angle",
    "BallBallMC", "Expectations", "KinematicFunctionals", "ParallelBody",
    "ball_intrinsic_volumes", "intersection_expectations", "kinematic_coefficient",
    "kinematic_functionals", "lens_surface", "lens_volume", "mc_ball_ball_expectations",
    "parallel_body", "steiner_volume", "unit_ball_volume",
}


def test_public_names_are_the_52_and_resolve():
    assert len(PUBLIC_NAMES) == 52
    assert len(oloid.__all__) == len(set(oloid.__all__))
    assert set(oloid.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(oloid, name) is not None, name


def test_every_traced_layer_resolves():
    """``bench/trace_boot.py`` wraps each (module, name) of ``LAYERS`` with
    getattr, so a renamed or deleted entry point breaks ``--trace 1``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "trace_boot.py"
    spec = importlib.util.spec_from_file_location("_trace_boot_layers", path)
    trace_boot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_boot)
    for module_name, functions in trace_boot.LAYERS.items():
        module = importlib.import_module(module_name)
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


# name -> arguments with one NaN where a range check must reject it
NAN_CALLS = {
    "steiner_volume": (oloid.ball_intrinsic_volumes(1.0), math.nan),
    "parallel_body": (1.0, math.nan),
    "lens_volume": (math.nan,),
    "lens_surface": (math.nan,),
    "support_cartesian": ((math.nan, 0.0, 0.0),),
    "mean_curvature_density": (math.nan,),
    "second_form_b22": (0.0, math.nan),
}


@pytest.mark.parametrize("name", NAN_CALLS)
def test_nan_fails_the_range_checks(name):
    with pytest.raises(ValueError):
        getattr(oloid, name)(*NAN_CALLS[name])
