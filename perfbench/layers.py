"""The projclust functions the traced run wraps, and the per-layer metrics.

Each library module is a layer.  A wrapped function ``F`` yields
``F.self_s`` (summed self time), ``F.self_frac`` (that time as a share of
``cli.main``'s duration) and ``F.calls``; the count hooks below add the
work counts that a span alone cannot give.
"""

from collections import defaultdict

import tracer


def _rows(x):
    points = getattr(x, "points", x)
    shape = getattr(points, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _distance_entries(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    solution = args[2] if len(args) > 2 else kwargs["solution"]
    return {"entries": _rows(data) * getattr(solution, "k", 1)}


def _map_entries(args, kwargs, result):
    return {"entries": result.t * result.d}


def _apply_flops(args, kwargs, result):
    pi = args[0] if args else kwargs["pi"]
    return {"flops": 2 * _rows(result) * pi.d * pi.t}


def _solve_report(args, kwargs, result):
    return {"converged": int(result.converged), "restarts": result.restarts}


def _profile_total(args, kwargs, result):
    return {"total": result.total}


def _peel_layers(args, kwargs, result):
    return {"layers": len(result.layers)}


TARGETS = [
    ("geometry", "distances", _distance_entries),
    ("geometry", "assignment", None),
    ("geometry", "cost_pow", None),
    ("geometry", "read_points", None),
    ("geometry", "project_line", None),
    ("jl", "sample_jl", _map_entries),
    ("jl", "apply", _apply_flops),
    ("solvers", "solve", _solve_report),
    ("solvers", "opt_center", None),
    ("sensitivity", "sup_ratios", None),
    ("sensitivity", "clustering_sensitivity", _profile_total),
    ("sensitivity", "subspace_sensitivity", _profile_total),
    ("sensitivity", "flat_sensitivity", _profile_total),
    ("sensitivity", "line_sensitivity", _profile_total),
    ("coreset", "peel_partition", _peel_layers),
    ("coreset", "sensitivity_sample", None),
    ("counterexamples", "counterexample_trial", None),
    ("counterexamples", "medoid_cost", None),
    ("counterexamples", "css_cost", None),
    ("cli", "main", None),
]

ROOT = "cli.main"


def per_layer_metrics(spans):
    """Per-layer metrics of one traced invocation (``trace.overhead_frac``
    needs an untraced run and is added by the caller)."""
    selfs = tracer.self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    root_s = 0.0
    for sid, name, start, end, _, _, span_counts in spans:
        self_s[name] += selfs[sid]
        calls[name] += 1
        if name == ROOT:
            root_s += end - start
        for key, value in (span_counts or {}).items():
            counts[f"{name}.{key}"] += value

    out = {}
    for module, fn, _ in TARGETS:
        name = f"{module}.{fn}"
        out[f"{name}.self_s"] = self_s[name]
        if name != ROOT:
            out[f"{name}.self_frac"] = self_s[name] / root_s if root_s else 0.0
            out[f"{name}.calls"] = calls[name]
    out["geometry.distances.entries"] = counts["geometry.distances.entries"]
    out["jl.sample_jl.entries"] = counts["jl.sample_jl.entries"]
    out["jl.apply.flops"] = counts["jl.apply.flops"]
    solves = calls["solvers.solve"]
    out["solvers.solve.converged_frac"] = (
        counts["solvers.solve.converged"] / solves if solves else 0.0)
    out["solvers.solve.restarts"] = counts["solvers.solve.restarts"]
    out["sensitivity.total"] = sum(
        v for k, v in counts.items() if k.endswith("_sensitivity.total"))
    out["coreset.peel_partition.layers"] = counts["coreset.peel_partition.layers"]
    out["cli.concurrency"] = sum(selfs.values()) / root_s if root_s else 0.0
    return out
