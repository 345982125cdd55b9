"""The traced benchmark wraps real functions: every target that
``perfbench/layers.py`` names must exist in the package, or a rename would
break only the traced benchmark run."""

import sys
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
