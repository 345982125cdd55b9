"""The traced benchmark wraps real functions: every target that
``perfbench/layers.py`` names must exist in the package, or a rename would
break only the traced benchmark run, and the CLI must call them through the
module attributes that the tracer replaces."""

import sys
from collections import Counter
from pathlib import Path

import projclust.cli    # the targets include cli.main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _wrapped(targets):
    return [hasattr(getattr(sys.modules[f"projclust.{module}"], name), "__wrapped__")
            for module, name, _ in targets]


def test_tracer_installs_over_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    spans = tracer.Tracer()
    try:
        spans.install("projclust", layers.TARGETS)
        installed = _wrapped(layers.TARGETS)
    finally:
        spans.uninstall()
    assert all(installed)
    assert not any(_wrapped(layers.TARGETS))


def test_traced_pipelines_sample_one_map_per_trial(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("PROJCLUST_THREADS", "2")
    import layers
    import tracer

    src = tmp_path / "s.txt"
    projclust.cli.main(["gen", "--kind", "gaussian-mixture", "--n", "40", "--d", "5",
                        "--k", "2", "--seed", "1", "--out", str(src)])
    spans = tracer.Tracer()

    def calls(command):
        spans.spans.clear()
        assert sys.modules["projclust.cli"].main(command) == 0
        return Counter(span[1] for span in spans.spans)

    try:
        spans.install("projclust", layers.TARGETS)
        coreset = calls(["coreset", "--in", str(src), "--problem", "clustering",
                         "--k", "2", "--m", "15", "--t", "2", "--trials", "3",
                         "--restarts", "2", "--out", str(tmp_path / "c.csv")])
        preserve = calls(["preserve", "--problem", "clustering", "--n", "30",
                          "--d", "5", "--k", "2", "--t-list", "2,3", "--trials", "2",
                          "--restarts", "2", "--out", str(tmp_path / "p.csv")])
    finally:
        spans.uninstall()
    # one map per coreset trial, applied to the data and to the sample
    assert coreset["jl.sample_jl"] == 3 and coreset["jl.apply"] == 6
    assert coreset["coreset.sensitivity_sample"] == 3
    assert coreset["solvers.solve"] == 1 + 3 * 3
    assert coreset["sensitivity.clustering_sensitivity"] >= 1
    # one map per (t, trial) of preserve
    assert preserve["jl.sample_jl"] == 4 and preserve["jl.apply"] == 4
    assert preserve["solvers.solve"] == 2 + 4
