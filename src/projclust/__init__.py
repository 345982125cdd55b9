"""Random-projection dimension reduction for projective clustering."""

import os
import sys

# One level of parallelism: the CLI's worker pool.  OpenBLAS threads
# busy-wait after every threaded product and compete with that pool, so
# OpenBLAS runs on one thread unless the caller has set a value.  OpenBLAS
# reads the variable once, when numpy first loads it, so it is written only
# if numpy is not loaded yet; otherwise it would misreport the threads of
# the library already running.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .geometry import (
    PROBLEMS,
    Dataset,
    WeightedSet,
    CenterSet,
    Subspace,
    Flat,
    Line,
    LineSet,
    project_subspace,
    project_flat,
    project_line,
    distances,
    assignment,
    cost_pow,
    cost,
    read_dataset,
)
from .jl import (
    JLMap,
    sample_jl,
    apply,
    moment_bound_statistic,
    moment_bound_threshold,
    is_subspace_embedding,
    distortion_range,
    preset_t,
)
from .sensitivity import (
    SensitivityProfile,
    clustering_sensitivity,
    subspace_sensitivity,
    flat_sensitivity,
    line_sensitivity,
    sup_ratios,
    event_e4_statistic,
    event_e4_bound,
)
from .coreset import (
    Coreset,
    sensitivity_sample,
    line_coreset_1d,
    line_coreset_klines,
    coreset_size_bound,
    PeelingPartition,
    peel_partition,
)
from .solvers import (
    SolveReport,
    solve,
)
from .counterexamples import (
    gen_medoid_instance,
    gen_css_instance,
    medoid_cost,
    css_cost,
    counterexample_trial,
)

__all__ = [
    "PROBLEMS",
    "Dataset",
    "WeightedSet",
    "CenterSet",
    "Subspace",
    "Flat",
    "Line",
    "LineSet",
    "project_subspace",
    "project_flat",
    "project_line",
    "distances",
    "assignment",
    "cost_pow",
    "cost",
    "read_dataset",
    "JLMap",
    "sample_jl",
    "apply",
    "moment_bound_statistic",
    "moment_bound_threshold",
    "is_subspace_embedding",
    "distortion_range",
    "SensitivityProfile",
    "clustering_sensitivity",
    "subspace_sensitivity",
    "flat_sensitivity",
    "line_sensitivity",
    "sup_ratios",
    "event_e4_statistic",
    "event_e4_bound",
    "Coreset",
    "sensitivity_sample",
    "line_coreset_1d",
    "line_coreset_klines",
    "coreset_size_bound",
    "PeelingPartition",
    "peel_partition",
    "SolveReport",
    "solve",
    "gen_medoid_instance",
    "gen_css_instance",
    "medoid_cost",
    "css_cost",
    "counterexample_trial",
    "preset_t",
]

__version__ = "0.1.0"
