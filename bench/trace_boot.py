"""Traced entry point: run one request with spans around each layer.

Usage (from the repository root, with src on PYTHONPATH):

    python -X importtime bench/trace_boot.py SPANS.json -m oloid ARGS...
    python -X importtime bench/trace_boot.py SPANS.json scripts/NAME.py ARGS...

It imports the package, replaces each layer entry point listed in ``LAYERS``
by a wrapper that records a span (name, start, end, parent, attributes), in
every ``oloid`` module namespace that binds it (so names bound by
``from ... import`` are traced too), then calls ``oloid.cli.main(argv)`` or
the script's ``main()``.  Spans stay in memory and are written to SPANS.json
at exit.  Per-evaluation helpers (integrands, support branches) are not
wrapped: a span per evaluation would cost more than the work it measures.

``layer_metrics`` turns the spans of one request, plus the ``-X importtime``
lines of its stderr, into the per-layer metrics of BENCHMARK.json.  Only
this module's first lines run in the traced interpreter before the package
is imported, and they import nothing beyond ``sys``, ``os`` and ``time``, so
the import times are those of the package itself.
"""

import os
import sys
import time

_clock = time.perf_counter

# module -> {function: span name}
LAYERS = {
    "oloid.specfun": {"agm": "specfun.agm", "ellipk": "specfun.ellipk",
                      "ellipe": "specfun.ellipe"},
    "oloid.quadrature": {"integrate": "quadrature.integrate",
                         "integrate_singular": "quadrature.integrate_singular",
                         "integrate2d": "quadrature.integrate2d"},
    "oloid.intrinsic": {name: "intrinsic." + name for name in (
        "surface_area_quadrature", "volume_quadrature", "curvature_integral_quadrature",
        "edge_integral_direct", "coxeter_like_result", "surface_area", "volume",
        "curvature_integral", "coxeter_like_integral", "edge_integral",
        "mean_curvature_total", "mean_width", "oloid_intrinsic_volumes",
        "appendix_identity_check")},
    "oloid.support": {"mean_width_direct": "support.mean_width_direct",
                      "mean_width_montecarlo": "support.mean_width_montecarlo"},
    "oloid.steiner_kinematic": {
        "mc_ball_ball_expectations": "steiner_kinematic.mc_ball_ball",
        **{name: "steiner_kinematic.closed." + name for name in (
            "unit_ball_volume", "steiner_volume", "parallel_body", "kinematic_coefficient",
            "ball_intrinsic_volumes", "kinematic_functionals", "intersection_expectations",
            "lens_volume", "lens_surface")}},
    "oloid.surface": {name: "surface." + name for name in (
        "build_mesh", "mesh_is_closed", "mesh_volume", "mesh_area", "export_obj")},
}


def _samples(args, kwargs, result):
    return {"samples": int(kwargs["n"] if "n" in kwargs else args[0])}


def _evals(args, kwargs, result):
    return {"evals": int(result.evals)}


def _mesh_size(args, kwargs, result):
    return {"vertices": len(result.vertices), "triangles": len(result.triangles),
            "mesh_bytes": int(result.vertices.nbytes + result.triangles.nbytes)}


def _obj_bytes(args, kwargs, result):
    sink = kwargs["sink"] if "sink" in kwargs else args[1]
    return {"bytes": os.path.getsize(sink)} if isinstance(sink, str) else {}


ATTRIBUTES = {
    "quadrature.integrate": _evals,
    "quadrature.integrate_singular": _evals,
    "quadrature.integrate2d": _evals,
    "support.mean_width_montecarlo": _samples,
    "steiner_kinematic.mc_ball_ball": _samples,
    "surface.build_mesh": _mesh_size,
    "surface.export_obj": _obj_bytes,
}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        attributes = ATTRIBUTES.get(name)

        def traced(*args, **kwargs):
            span = [name, _clock(), 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = _clock()
                self._stack.pop()
            if attributes is not None:
                span[4] = attributes(args, kwargs, result)
            return result

        return traced

    def install(self):
        originals = {}
        for module_name, functions in LAYERS.items():
            module = sys.modules[module_name]
            for attr, span_name in functions.items():
                fn = getattr(module, attr)
                originals[id(fn)] = self.wrap(span_name, fn)
        for module_name, module in list(sys.modules.items()):
            if module_name == "oloid" or module_name.startswith("oloid."):
                for attr, value in list(vars(module).items()):
                    if id(value) in originals:
                        setattr(module, attr, originals[id(value)])

    def run(self, target, argv):
        """Call the entry point inside a ``cli.main`` span; return its exit code."""
        if target == "-m":
            import oloid.cli

            entry = lambda: oloid.cli.main(argv[1:])  # noqa: E731
        else:
            import runpy

            sys.argv = [target, *argv]
            sys.path[0] = os.path.dirname(os.path.abspath(target))
            entry = runpy.run_path(target, run_name="__traced__")["main"]
        return self.wrap("cli.main", entry)()


# --- aggregation, run by the benchmark on the spans of one request ---------


def _import_times(stderr_lines):
    """(numpy, package without numpy) import seconds from -X importtime lines."""
    numpy_s = oloid_s = 0.0
    for line in stderr_lines:
        if not line.startswith("import time:"):
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue  # the header line
        seconds = int(cum) * 1e-6
        module = name.strip()
        top_level = name[1:] == module  # nested imports are indented
        if module == "numpy":
            numpy_s = seconds
        elif top_level and (module == "oloid" or module.startswith("oloid.")):
            oloid_s += seconds
    return numpy_s, max(oloid_s - numpy_s, 0.0)


def layer_metrics(spans, stderr_lines, stdout_bytes):
    """Per-layer metrics of one traced request (layers it never calls are 0)."""
    names = [s[0] for s in spans]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    def outermost(match):
        # matching spans not nested in another matching span
        return [s for i, s in enumerate(spans)
                if match(s[0]) and not any(match(names[a]) for a in ancestors(i))]

    def covered(match):
        return sum(s[2] - s[1] for s in outermost(match))

    def calls(match):
        return sum(1 for n in names if match(n))

    def attr(name, key):
        return sum((s[4] or {}).get(key, 0) for s in spans if s[0] == name)

    def exact(name):
        return lambda n: n == name

    def prefix(p):
        return lambda n: n.startswith(p)

    numpy_s, oloid_s = _import_times(stderr_lines)
    main_self = sum(s[2] - s[1] for s in spans if s[0] == "cli.main") - sum(
        s[2] - s[1] for s in spans if s[3] >= 0 and spans[s[3]][0] == "cli.main")
    m = {
        "import.numpy_s": numpy_s,
        "import.oloid_s": oloid_s,
        "cli.main.self_s": main_self,
        "cli.stdout_bytes": stdout_bytes,
        "specfun.calls": len(outermost(prefix("specfun."))),
        "specfun.time_s": covered(prefix("specfun.")),
    }
    for fn in ("integrate", "integrate_singular", "integrate2d"):
        name = "quadrature." + fn
        m[name + ".calls"] = calls(exact(name))
        m[name + ".evals"] = attr(name, "evals")
        m[name + ".time_s"] = covered(exact(name))
    m["quadrature.errors"] = sum(
        1 for s in spans if s[0].startswith("quadrature.") and s[4] and "error" in s[4])
    m["intrinsic.routes.time_s"] = covered(prefix("intrinsic."))
    direct = "support.mean_width_direct"
    m[direct + ".calls"] = calls(exact(direct))
    m[direct + ".inner_calls"] = sum(
        1 for i, n in enumerate(names)
        if n == "quadrature.integrate"
        and spans[i][3] >= 0 and names[spans[i][3]] == "quadrature.integrate"
        and any(names[a] == direct for a in ancestors(i)))
    m[direct + ".time_s"] = covered(exact(direct))
    for name in ("support.mean_width_montecarlo", "steiner_kinematic.mc_ball_ball"):
        m[name + ".calls"] = calls(exact(name))
        m[name + ".samples"] = attr(name, "samples")
        m[name + ".time_s"] = covered(exact(name))
    m["steiner_kinematic.closed.time_s"] = covered(prefix("steiner_kinematic.closed."))
    for fn in ("build_mesh", "mesh_is_closed", "mesh_volume", "mesh_area", "export_obj"):
        m[f"surface.{fn}.time_s"] = covered(exact("surface." + fn))
    m["surface.mesh_is_closed.calls"] = calls(exact("surface.mesh_is_closed"))
    m["surface.export_obj.bytes"] = attr("surface.export_obj", "bytes")
    for key in ("vertices", "triangles", "mesh_bytes"):
        m["surface." + key] = attr("surface.build_mesh", key)
    return m


def main():
    out, target, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import oloid.cli  # noqa: F401  (the import -X importtime reports)

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run(target, argv)
    finally:
        import json

        with open(out, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
