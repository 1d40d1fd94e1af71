"""The package's public names and the entry points the traced benchmark wraps."""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

import oloid

import oracles

PUBLIC_NAMES = {
    "agm", "ellipe", "ellipk",
    "Estimate", "QuadratureError", "integrate", "integrate2d", "integrate_singular",
    "TriMesh", "build_mesh", "edge_angle", "export_obj", "mesh_area", "mesh_is_closed",
    "mesh_volume",
    "AppendixCheck", "IntrinsicVolumes", "appendix_identity_check",
    "coxeter_like_integral", "curvature_integral", "edge_integral",
    "mean_curvature_total", "mean_width", "oloid_intrinsic_volumes", "surface_area",
    "volume",
    "mean_width_direct", "mean_width_montecarlo",
    "ParallelBody", "ball_intrinsic_volumes", "intersection_expectations",
    "kinematic_coefficient", "kinematic_functionals", "lens_surface", "lens_volume",
    "mc_ball_ball_expectations", "parallel_body", "steiner_volume", "unit_ball_volume",
}

# record types folded into IntrinsicVolumes and Estimate
FOLDED_TYPES = {"KinematicFunctionals", "Expectations", "WidthEstimate", "BallBallMC"}
# geometry that only tests use, now the tests' own reference in oracles.py
MOVED_TO_ORACLES = {
    "surface_point", "MetricCoeffs", "metric", "unit_normal", "mean_curvature_density",
    "second_form_b22", "jacobian_xy", "support_cartesian", "switching_angle",
}


def test_public_names_are_the_39_and_resolve():
    assert len(PUBLIC_NAMES) == 39
    assert len(oloid.__all__) == len(set(oloid.__all__))
    assert set(oloid.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(oloid, name) is not None, name


def test_removed_names_do_not_resolve():
    removed = FOLDED_TYPES | MOVED_TO_ORACLES
    assert len(removed) == 13
    for name in removed | {"QuadResult"}:  # Estimate is QuadResult renamed
        assert not hasattr(oloid, name), name
    for name in MOVED_TO_ORACLES:
        assert callable(getattr(oracles, name)), name


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


# name -> (module, arguments with one NaN where a range check must reject it)
NAN_CALLS = {
    "steiner_volume": (oloid, (oloid.ball_intrinsic_volumes(1.0), math.nan)),
    "parallel_body": (oloid, (1.0, math.nan)),
    "lens_volume": (oloid, (math.nan,)),
    "lens_surface": (oloid, (math.nan,)),
    "support_cartesian": (oracles, ((math.nan, 0.0, 0.0),)),
    "mean_curvature_density": (oracles, (math.nan,)),
    "second_form_b22": (oracles, (0.0, math.nan)),
}


@pytest.mark.parametrize("name", NAN_CALLS)
def test_nan_fails_the_range_checks(name):
    module, args = NAN_CALLS[name]
    with pytest.raises(ValueError):
        getattr(module, name)(*args)
