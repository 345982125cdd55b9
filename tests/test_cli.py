import argparse
import ast
import csv
import importlib
import inspect
import itertools
import os
import pkgutil
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

import projclust
from projclust import cli, coreset, geometry, jl, sensitivity, solvers
from projclust._rng import rng_stream
from projclust.cli import main, preset_t

from _oracles import ref_preset_t


def _env_with_src():
    """This process's environment with the package's source first on the path."""
    src = os.path.dirname(os.path.dirname(projclust.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# gen / project / solve


@pytest.mark.parametrize("kind,d", [("gaussian-mixture", 4),
                                    ("points-near-k-lines", 3),
                                    ("points-near-k-flat", 5),
                                    ("points-near-k-flat", 2)])      # k = d
def test_gen_synthetic_kinds(tmp_path, kind, d):
    out = tmp_path / "pts.txt"
    assert main(["gen", "--kind", kind, "--n", "25", "--d", str(d),
                 "--k", "2", "--seed", "3", "--out", str(out)]) == 0
    pts = geometry.read_points(str(out))
    assert pts.shape == (25, d)


def test_gen_medoid_and_css(tmp_path):
    out = tmp_path / "m.txt"
    main(["gen", "--kind", "medoid", "--n", "5", "--out", str(out)])
    npt.assert_array_equal(geometry.read_points(str(out)), np.eye(5))
    main(["gen", "--kind", "css", "--n", "5", "--out", str(out)])
    assert geometry.read_points(str(out)).shape == (5, 6)


def test_gen_invalid_params_exit_code(tmp_path, capsys):
    out = tmp_path / "m.txt"
    assert main(["gen", "--kind", "medoid", "--n", "1", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


class _NoDraws:
    """A generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name}) before refusing")


@pytest.mark.parametrize("command", [
    ["gen", "--kind", "points-near-k-flat", "--n", "20", "--d", "3", "--k", "5"],
    ["preserve", "--problem", "flat", "--d", "3", "--k", "5", "--t", "2"],
    ["preserve", "--problem", "subspace", "--d", "3", "--k", "4", "--t", "2"],
])
def test_subspace_and_flat_generators_refuse_k_above_d(tmp_path, capsys, monkeypatch,
                                                        command):
    out = tmp_path / "out.txt"
    monkeypatch.setattr(cli, "rng_stream", lambda *args, **kwargs: _NoDraws())
    assert main(command + ["--out", str(out)]) == 2
    k = command[command.index("--k") + 1]
    assert f"error: need k <= d, got k={k} with d=3" in capsys.readouterr().err
    assert not out.exists()


def test_gen_noiseless_lines_solve_to_zero(tmp_path):
    src = tmp_path / "s.txt"
    main(["gen", "--kind", "points-near-k-lines", "--n", "30", "--d", "3",
          "--k", "2", "--noise", "0", "--seed", "6", "--out", str(src)])
    data = geometry.read_dataset(str(src))
    rep = solvers.solve("lines", data, 2, 2, restarts=30, seed=0)
    assert rep.cost_pow == pytest.approx(0.0, abs=1e-9)


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen", "--kind", "gaussian-mixture", "--n", "30", "--d", "3",
            "--seed", "9"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_project_shapes_and_map_out(tmp_path):
    src, dst, mp = tmp_path / "s.txt", tmp_path / "p.txt", tmp_path / "map.txt"
    main(["gen", "--kind", "gaussian-mixture", "--n", "20", "--d", "6",
          "--out", str(src)])
    assert main(["project", "--in", str(src), "--t", "3", "--seed", "1",
                 "--out", str(dst), "--map-out", str(mp)]) == 0
    proj = geometry.read_points(str(dst))
    assert proj.shape == (20, 3)
    pi = jl.read_map(str(mp))
    npt.assert_allclose(proj, geometry.read_points(str(src)) @ pi.matrix.T,
                        atol=1e-12)


def test_project_refuses_a_missing_or_zero_t(tmp_path, capsys):
    dst = tmp_path / "p.txt"
    for t, message in (([], "the following arguments are required: --t"),
                       (["--t", "0"], "argument --t: must be at least 1, got 0")):
        with pytest.raises(SystemExit) as exc:
            main(["project", "--in", "s.txt", *t, "--out", str(dst)])
        assert exc.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not dst.exists()


def test_solve_command_two_pairs(tmp_path, capsys):
    src, sol = tmp_path / "s.txt", tmp_path / "sol.txt"
    geometry.write_points(str(src), np.array([[0.0], [1.0], [4.0], [5.0]]))
    assert main(["solve", "--in", str(src), "--problem", "clustering",
                 "--k", "2", "--z", "2", "--out", str(sol)]) == 0
    line = capsys.readouterr().out.strip()
    assert "cost_pow=1.0" in line and "method=partition-enumeration" in line
    centers = geometry.read_points(str(sol))
    npt.assert_allclose(np.sort(centers[:, 0]), [0.5, 4.5], atol=1e-12)


def test_solve_each_problem_writes_solution(tmp_path):
    src = tmp_path / "s.txt"
    main(["gen", "--kind", "gaussian-mixture", "--n", "20", "--d", "4",
          "--k", "2", "--out", str(src)])
    for problem in geometry.PROBLEMS:
        sol = tmp_path / f"sol-{problem}.txt"
        assert main(["solve", "--in", str(src), "--problem", problem,
                     "--k", "2", "--z", "2", "--method", "heuristic",
                     "--out", str(sol)]) == 0
        assert geometry.read_points(str(sol)).size > 0


@pytest.mark.parametrize("problem", geometry.PROBLEMS)
def test_solve_refuses_bad_restarts_for_every_problem(tmp_path, capsys, problem):
    src = tmp_path / "s.txt"
    main(["gen", "--kind", "gaussian-mixture", "--n", "20", "--d", "4",
          "--k", "2", "--out", str(src)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--in", str(src), "--problem", problem, "--k", "2",
              "--restarts", "0", "--out", str(tmp_path / "sol.txt")])
    assert exc.value.code == 2
    assert "error: argument --restarts: must be at least 1, got 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# coreset


def test_coreset_command_quality_csv(tmp_path):
    src, out = tmp_path / "s.txt", tmp_path / "q.csv"
    main(["gen", "--kind", "gaussian-mixture", "--n", "60", "--d", "5",
          "--k", "3", "--seed", "2", "--out", str(src)])
    assert main(["coreset", "--in", str(src), "--problem", "clustering",
                 "--k", "3", "--z", "2", "--m", "25", "--trials", "6",
                 "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["m", "trial", "status", "cost_full", "cost_coreset",
                      "ratio_before_projection", "ratio_after_projection"]
    assert len(rows) == 6
    assert all(r[2] == "ok" for r in rows)
    assert len({r[3] for r in rows}) == 1       # one full solve, shared
    before = [float(r[5]) for r in rows]
    after = [float(r[6]) for r in rows]
    assert all(np.isfinite(before + after))
    # the optimum of a fair importance sample should sit near the optimum
    # of the full data, in the original space and after projection
    assert np.median(before) == pytest.approx(1.0, abs=0.4)
    assert np.median(after) == pytest.approx(1.0, abs=0.5)


def test_coreset_command_lines_problem(tmp_path):
    src, out = tmp_path / "s.txt", tmp_path / "q.csv"
    main(["gen", "--kind", "points-near-k-lines", "--n", "40", "--d", "3",
          "--k", "2", "--noise", "0.1", "--seed", "4", "--out", str(src)])
    assert main(["coreset", "--in", str(src), "--problem", "lines",
                 "--k", "2", "--z", "2", "--m", "15", "--trials", "4",
                 "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    assert len(rows) == 4 and all(r[2] == "ok" for r in rows)


def test_coreset_lines_byte_identical_across_thread_counts(tmp_path, monkeypatch):
    src = tmp_path / "s.txt"
    main(["gen", "--kind", "points-near-k-lines", "--n", "60", "--d", "4",
          "--k", "2", "--noise", "0.1", "--seed", "5", "--out", str(src)])
    args = ["coreset", "--in", str(src), "--problem", "lines", "--k", "2",
            "--z", "2", "--m", "20", "--t", "3", "--trials", "3",
            "--restarts", "5", "--seed", "2"]
    outs = []
    for name, threads in (("one.csv", "1"), ("three.csv", "3"), ("again.csv", "3")):
        path = tmp_path / name
        monkeypatch.setenv("PROJCLUST_THREADS", threads)
        assert main(args + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_coreset_flat_z1_byte_identical_across_thread_counts(tmp_path, monkeypatch):
    src = tmp_path / "s.txt"
    main(["gen", "--kind", "points-near-k-flat", "--n", "40", "--d", "5",
          "--k", "2", "--noise", "0.1", "--seed", "5", "--out", str(src)])
    args = ["coreset", "--in", str(src), "--problem", "flat", "--k", "2",
            "--z", "1", "--m", "20", "--t", "3", "--trials", "2",
            "--restarts", "4", "--seed", "2"]
    outs = []
    for name, threads in (("one.csv", "1"), ("two.csv", "2"), ("again.csv", "2")):
        path = tmp_path / name
        monkeypatch.setenv("PROJCLUST_THREADS", threads)
        assert main(args + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("command,flag,value", [
    (["coreset", "--problem", "clustering", "--k", "2", "--m", "5"], "--trials", "0"),
    (["coreset", "--problem", "clustering", "--k", "2", "--trials", "2"], "--m", "0"),
    (["coreset", "--problem", "clustering", "--k", "2", "--trials", "2"], "--m", "-3"),
    (["preserve", "--problem", "clustering", "--n", "10", "--d", "3"], "--trials", "0"),
    (["counterexample", "--n", "10"], "--trials", "0"),
    (["counterexample", "--n", "10"], "--trials", "-1"),
    (["gen", "--kind", "gaussian-mixture", "--n", "10"], "--k", "0"),
    (["gen", "--kind", "points-near-k-flat", "--n", "10"], "--k", "0"),
    (["solve", "--problem", "flat"], "--k", "0"),
    (["coreset", "--problem", "clustering", "--m", "5"], "--k", "0"),
    (["preserve", "--problem", "clustering", "--t", "3"], "--k", "0"),
    (["gen", "--kind", "gaussian-mixture"], "--n", "-3"),
    (["gen", "--kind", "points-near-k-lines", "--n", "10"], "--d", "0"),
    (["preserve", "--problem", "clustering", "--t", "3"], "--n", "0"),
    (["preserve", "--problem", "clustering", "--n", "10", "--t", "3"], "--d", "-1"),
    (["counterexample"], "--n", "0"),
    (["counterexample", "--n", "10"], "--t", "0"),
    (["solve", "--problem", "clustering", "--k", "2"], "--restarts", "0"),
    (["coreset", "--problem", "clustering", "--k", "2", "--m", "5"], "--restarts", "0"),
    (["preserve", "--problem", "clustering", "--n", "10", "--t", "3"], "--restarts", "0"),
])
def test_counts_below_one_are_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                       command, flag, value):
    src, out = tmp_path / "s.txt", tmp_path / "out.csv"
    main(["gen", "--kind", "gaussian-mixture", "--n", "12", "--d", "3",
          "--out", str(src)])
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing the count")

    monkeypatch.setattr(solvers, "solve", no_solve)
    if command[0] in ("coreset", "solve"):
        command = command + ["--in", str(src)]
    with pytest.raises(SystemExit) as exc:
        main(command + [flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"error: argument {flag}: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_coreset_clustering_fractional_z_does_not_warn(tmp_path, monkeypatch):
    # sampled coresets repeat points, so the z = 1.3 center descent meets a
    # point on its center
    src, out = tmp_path / "s.txt", tmp_path / "q.csv"
    main(["gen", "--kind", "gaussian-mixture", "--n", "12", "--d", "3",
          "--k", "2", "--seed", "0", "--out", str(src)])
    monkeypatch.setenv("PROJCLUST_THREADS", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["coreset", "--in", str(src), "--problem", "clustering",
                     "--k", "2", "--z", "1.3", "--m", "8", "--t", "2",
                     "--trials", "3", "--out", str(out)]) == 0


def _flat_input(tmp_path):
    src = tmp_path / "flat.txt"
    main(["gen", "--kind", "points-near-k-flat", "--n", "30", "--d", "5",
          "--k", "2", "--noise", "0.1", "--seed", "1", "--out", str(src)])
    return src


def test_coreset_failed_trials_keep_the_full_cost(tmp_path, capsys):
    # a 2-subspace fits in R^5 but not in the projected R^2
    src, out = _flat_input(tmp_path), tmp_path / "q.csv"
    capsys.readouterr()
    assert main(["coreset", "--in", str(src), "--problem", "subspace", "--k", "2",
                 "--m", "10", "--t", "2", "--trials", "3", "--out", str(out)]) == 1
    assert "all trials failed" in capsys.readouterr().out
    full = solvers.solve("subspace", geometry.read_dataset(str(src)), 2, 2.0,
                         restarts=20, seed=0, method="auto")
    _, rows = read_csv(str(out))
    assert rows == [["10", str(trial), "failed", repr(float(full.cost)), "", "", ""]
                    for trial in range(3)]


def test_coreset_refuses_t_above_d_before_any_solve(tmp_path, capsys, monkeypatch):
    src, out = _flat_input(tmp_path), tmp_path / "q.csv"
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing t")

    monkeypatch.setattr(solvers, "solve", no_solve)
    assert main(["coreset", "--in", str(src), "--problem", "flat", "--k", "2",
                 "--m", "10", "--t", "9", "--trials", "2", "--out", str(out)]) == 2
    assert "error: need 1 <= t <= d, got t=9 with d=5" in capsys.readouterr().err
    assert not out.exists()


def test_coreset_row_rebuilt_from_library_calls(tmp_path):
    # trial i samples from stream i and projects the data and the sample by
    # the one map of stream trials + i
    src, out = _flat_input(tmp_path), tmp_path / "q.csv"
    m, t, trials, seed, i = 12, 3, 3, 7, 2
    assert main(["coreset", "--in", str(src), "--problem", "flat", "--k", "1",
                 "--m", str(m), "--t", str(t), "--trials", str(trials),
                 "--restarts", "4", "--seed", str(seed), "--out", str(out)]) == 0

    def cost(data):
        return float(solvers.solve("flat", data, 1, 2.0, restarts=4, seed=seed,
                                   method="auto").cost)

    data = geometry.read_dataset(str(src))
    full = solvers.solve("flat", data, 1, 2.0, restarts=4, seed=seed, method="auto")
    prof = sensitivity.flat_sensitivity(data, full.solution, 2.0)
    ws = coreset.sensitivity_sample(data, prof, m, seed, stream=i).extract(data)
    pi = jl.sample_jl(data.d, t, seed, stream=trials + i)
    cost_full, cost_cs = float(full.cost), cost(ws)
    want = [m, i, "ok", cost_full, cost_cs, cost_cs / cost_full,
            cost(jl.apply(pi, ws)) / cost(jl.apply(pi, data))]
    _, rows = read_csv(str(out))
    assert rows[i] == [geometry._fmt(v) for v in want]


# ---------------------------------------------------------------------------
# preserve


def test_preserve_records_and_summaries(tmp_path):
    out, plot = tmp_path / "r.csv", tmp_path / "r.svg"
    rc = main(["preserve", "--problem", "subspace", "--n", "40", "--d", "20",
               "--k", "2", "--z", "2", "--t-list", "5,20", "--trials", "3",
               "--seed", "0", "--out", str(out), "--plot", str(plot)])
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header[:4] == ["row", "problem", "n", "d"]
    records = [r for r in rows if r[0] == "record"]
    summaries = [r for r in rows if r[0] == "summary"]
    assert len(records) == 6 and len(summaries) == 2
    assert all(r[8] == "ok" and r[9] == "svd" for r in records)
    for r in records:
        assert float(r[12]) == pytest.approx(float(r[11]) / float(r[10]),
                                             rel=1e-12)
    # t = d = 20 keeps every singular value, so the cost is preserved exactly-ish
    tall = [float(r[12]) for r in records if r[6] == "20"]
    assert all(0.5 < v < 2.0 for v in tall)
    svg = plot.read_text()
    assert svg.startswith("<svg") and "projection dimension" in svg


def test_preserve_plot_of_one_dimension(tmp_path):
    # one t is drawn at the middle of the axis: x = 60 + (640 - 60 - 20) / 2
    out, plot = tmp_path / "r.csv", tmp_path / "r.svg"
    assert main(["preserve", "--problem", "clustering", "--n", "30", "--d", "10",
                 "--k", "2", "--t", "5", "--trials", "2", "--seed", "0",
                 "--out", str(out), "--plot", str(plot)]) == 0
    svg = plot.read_text()
    assert svg.count("<circle") == 1 and '<circle cx="340.00"' in svg
    assert '<text x="340.00" y="368" text-anchor="middle" font-family="sans-serif" ' \
        'font-size="12">5</text>' in svg


def test_preserve_reads_costs_that_are_zero_up_to_rounding_as_zero(tmp_path, capsys):
    # four lines through five points: both optima are 0 up to rounding
    # (about 1e-15), and their raw quotient would read about 2.7
    out = tmp_path / "r.csv"
    assert main(["preserve", "--problem", "lines", "--n", "5", "--d", "3", "--k", "4",
                 "--t", "2", "--trials", "1", "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    record, summary = rows
    assert 0.0 < float(record[10]) < 1e-12 and 0.0 < float(record[11]) < 1e-12
    assert float(record[12]) == float(summary[15]) == 1.0
    assert "median=1.0 " in capsys.readouterr().out


def test_safe_ratio_floors():
    data = geometry.WeightedSet([[0.0, 0.0], [3.0, 0.0]], [2.0, 1.0])
    # the weighted mean is (1, 0): cost 6^(1/2) at z = 2, 4 at z = 1
    assert cli._zero_floor(data, 2.0) == 2.0 ** -40 * 6.0 ** 0.5
    assert cli._zero_floor(data, 1.0) == 2.0 ** -40 * 4.0
    floors = (1e-12, 1e-12)
    assert cli._safe_ratio(1e-12, 3e-12, floors) == 0.0
    assert cli._safe_ratio(1e-12, 1e-12, floors) == 1.0
    assert cli._safe_ratio(3e-12, 1e-12, floors) == np.inf
    assert cli._safe_ratio(3e-12, 2e-12, floors) == 1.5
    assert cli._safe_ratio(0.0, 0.0, (0.0, 0.0)) == 1.0


def test_preserve_record_rebuilt_from_library_calls(tmp_path):
    # trial i draws its data from stream i, and its projection to ts[ti] uses
    # the map of stream (1 + ti) * trials + i
    out = tmp_path / "r.csv"
    n, d, ts, trials, seed, ti, i = 30, 8, [3, 5], 3, 4, 1, 2
    assert main(["preserve", "--problem", "clustering", "--n", str(n), "--d", str(d),
                 "--k", "2", "--t-list", "3,5", "--trials", str(trials),
                 "--restarts", "3", "--seed", str(seed), "--out", str(out)]) == 0

    def solve(data):
        return solvers.solve("clustering", data, 2, 2.0, restarts=3, seed=seed,
                             method="auto")

    data = cli.make_gaussian_mixture(n, d, 2, 1.0, rng_stream(seed, i))
    pi = jl.sample_jl(d, ts[ti], seed, stream=(1 + ti) * trials + i)
    full, proj = float(solve(data).cost), solve(jl.apply(pi, data))
    want = ["record", "clustering", n, d, 2, 2.0, ts[ti], i, "ok", proj.method,
            full, float(proj.cost), float(proj.cost) / full] + [None] * 5
    _, rows = read_csv(str(out))
    assert rows[ti * trials + i] == [geometry._fmt(v) for v in want]


def test_preserve_rejects_t_above_d(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["preserve", "--problem", "clustering", "--n", "10",
                 "--d", "5", "--k", "2", "--t-list", "3,9", "--trials", "2",
                 "--out", str(out)]) == 2
    assert "error: need 1 <= t <= d, got t=9 with d=5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t_list,message", [
    (",", "no dimension in ','"), ("", "no dimension in ''"), ("3,x", "invalid int value: 'x'"),
])
def test_preserve_refuses_empty_or_malformed_t_list_before_any_work(
        tmp_path, capsys, monkeypatch, t_list, message):
    out = tmp_path / "e.csv"

    def no_data(*args, **kwargs):
        raise AssertionError("generated data before refusing --t-list")

    monkeypatch.setitem(cli._INSTANCE_FOR_PROBLEM, "clustering", no_data)
    with pytest.raises(SystemExit) as exc:
        main(["preserve", "--problem", "clustering", "--n", "30", "--d", "5",
              "--k", "2", "--t-list", t_list, "--trials", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert f"error: argument --t-list: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_preserve_preset_dimension_printed(tmp_path, capsys):
    out = tmp_path / "r.csv"
    main(["preserve", "--problem", "subspace", "--n", "30", "--d", "25",
          "--k", "2", "--z", "2", "--eps", "0.3", "--trials", "2",
          "--out", str(out)])
    assert "preset t=23" in capsys.readouterr().out
    _, rows = read_csv(str(out))
    assert [r[6] for r in rows if r[0] == "summary"] == ["23"]


def test_preserve_failure_rows_and_exit_code(tmp_path):
    out = tmp_path / "r.csv"
    # t=1 makes the projected instance 1-dimensional, so a 2-subspace cannot fit
    rc = main(["preserve", "--problem", "subspace", "--n", "20", "--d", "10",
               "--k", "2", "--z", "2", "--t-list", "1", "--trials", "2",
               "--out", str(out)])
    assert rc == 1
    _, rows = read_csv(str(out))
    records = [r for r in rows if r[0] == "record"]
    assert all(r[8] == "failed" for r in records)
    summary = [r for r in rows if r[0] == "summary"][0]
    assert summary[13] == "0" and summary[14] == "2"


def test_preserve_propagates_unexpected_solver_errors(tmp_path, monkeypatch):
    real_solve = solvers.solve

    def broken_when_projected(problem, data, *args, **kwargs):
        if data.d < 10:
            raise TypeError("a bug, not a solver refusal")
        return real_solve(problem, data, *args, **kwargs)

    monkeypatch.setattr(solvers, "solve", broken_when_projected)
    with pytest.raises(TypeError):
        main(["preserve", "--problem", "clustering", "--n", "20", "--d", "10",
              "--k", "2", "--t-list", "3", "--trials", "2",
              "--out", str(tmp_path / "r.csv")])


def test_preserve_byte_identical_across_thread_counts(tmp_path, monkeypatch):
    args = ["preserve", "--problem", "clustering", "--n", "30", "--d", "10",
            "--k", "2", "--z", "2", "--t-list", "4,8", "--trials", "3",
            "--restarts", "5", "--seed", "1"]
    outs = []
    for name, threads in (("one.csv", "1"), ("four.csv", "4"), ("again.csv", "4")):
        path = tmp_path / name
        monkeypatch.setenv("PROJCLUST_THREADS", threads)
        assert main(args + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_preserve_failed_rows_byte_identical_across_thread_counts(tmp_path, monkeypatch):
    # a projected 3-subspace is refused at t = 2 and 3 and fits at t = 5; the
    # full solves share the projected solves' task list
    args = ["preserve", "--problem", "subspace", "--k", "3", "--t-list", "2,3,5",
            "--trials", "3"]
    outs = []
    for name, threads in (("one.csv", "1"), ("three.csv", "3")):
        path = tmp_path / name
        monkeypatch.setenv("PROJCLUST_THREADS", threads)
        assert main(args + ["--out", str(path)]) == 1
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    _, rows = read_csv(str(tmp_path / "one.csv"))
    assert [(r[6], r[8]) for r in rows if r[0] == "record"] == (
        [("2", "failed")] * 3 + [("3", "failed")] * 3 + [("5", "ok")] * 3)


def test_preserve_draws_each_trials_data_once_at_any_thread_count(tmp_path, monkeypatch):
    # more threads than cores and a short switch interval: a draw outside the
    # per-trial lock would show as a second draw of some trial
    real = cli._INSTANCE_FOR_PROBLEM["clustering"]
    draws = []

    def counted(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setitem(cli._INSTANCE_FOR_PROBLEM, "clustering", counted)
    args = ["preserve", "--problem", "clustering", "--n", "30", "--d", "6", "--k", "2",
            "--t-list", "2,3,4", "--trials", "12", "--restarts", "2", "--seed", "5"]
    outs = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in ("1", "8"):
            draws.clear()
            monkeypatch.setenv("PROJCLUST_THREADS", threads)
            path = tmp_path / f"{threads}.csv"
            assert main(args + ["--out", str(path)]) == 0
            outs.append(path.read_bytes())
            assert len(draws) == 12
    finally:
        sys.setswitchinterval(old)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_preserve_holds_about_one_dataset_per_thread(tmp_path, monkeypatch, workers):
    """12 trials of 2000 x 50 points stay below 2W + 1 dataset-sizes on W
    threads.  A busy thread holds its trial's dataset (1) and one working
    copy of the points it solves (1): Lloyd's centered copy, freed before
    the report takes its own, or the floor's temporary; a projected task's
    points and copies are t/d <= 0.2 of a dataset.  The 1 more covers the
    (n, k) and (k, n) terms, the projections, and a trial whose data wait
    for its last task.  Holding every trial's data would read 12 or more."""
    n, d = 2000, 50
    monkeypatch.setenv("PROJCLUST_THREADS", str(workers))
    args = ["preserve", "--problem", "clustering", "--d", str(d), "--k", "3",
            "--t-list", "5,10", "--trials", "12", "--restarts", "3"]
    assert main(args + ["--n", "50", "--out", str(tmp_path / "warm.csv")]) == 0
    tracemalloc.start()
    try:
        assert main(args + ["--n", str(n), "--out", str(tmp_path / "p.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (2 * workers + 1) * n * d * 8


def test_preserve_refused_full_solve_exits_2(tmp_path, capsys):
    # a 3-subspace of R^3 is refused by the full solve, which ends the run
    out = tmp_path / "r.csv"
    assert main(["preserve", "--problem", "subspace", "--n", "20", "--d", "3",
                 "--k", "3", "--t-list", "2", "--trials", "2", "--out", str(out)]) == 2
    assert "error: need 1 <= k < d" in capsys.readouterr().err
    assert not out.exists()


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas_name():
    config = np.show_config(mode="dicts")
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or _usable_cores() < 2,
                    reason="needs Linux's /proc/self/task and two usable cores")
@pytest.mark.skipif("openblas" not in _blas_name(), reason="numpy's BLAS is not OpenBLAS")
def test_preserve_byte_identical_across_blas_thread_counts(tmp_path):
    # 2000 x 100 points against 5 centers is above OpenBLAS's threshold for
    # threading a product; OpenBLAS starts its threads when numpy loads it,
    # so the process's thread count before the run is OpenBLAS's
    outs = []
    for threads in ("1", "2"):
        env = _env_with_src()
        env["OPENBLAS_NUM_THREADS"] = threads
        path = tmp_path / f"blas{threads}.csv"
        args = ["preserve", "--problem", "clustering", "--n", "2000", "--d", "100",
                "--k", "5", "--t-list", "10,40", "--trials", "1", "--restarts", "3",
                "--out", str(path)]
        code = ("import os, sys; from projclust.cli import main; "
                "print(len(os.listdir('/proc/self/task'))); "
                f"sys.exit(main({args!r}))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == threads
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or _usable_cores() < 2,
                    reason="needs Linux's /proc/self/task and two usable cores")
@pytest.mark.skipif("openblas" not in _blas_name(), reason="numpy's BLAS is not OpenBLAS")
def test_lloyd_bits_identical_across_blas_thread_counts():
    # 20,000 x 60 rows: large enough for OpenBLAS to thread the z = 2 refit's
    # product, (k, n) weights by (n, d) rows, which reduces over the rows
    outs = []
    for threads in ("1", "2"):
        env = _env_with_src()
        env["OPENBLAS_NUM_THREADS"] = threads
        code = ("import os, numpy as np; from projclust import solve; "
                "print(len(os.listdir('/proc/self/task'))); "
                "x = np.random.default_rng(3).normal(size=(20000, 60)); "
                "x[:8000] += 3.0; "
                "rep = solve('clustering', x, 5, 2, restarts=2, seed=1); "
                "print(rep.solution.centers.tobytes().hex(), rep.cost_pow.hex(), rep.converged)")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        tasks, out = proc.stdout.splitlines()
        assert tasks == threads
        outs.append(out)
    assert outs[0] == outs[1]


def test_pool_defaults_to_the_usable_cores(monkeypatch):
    monkeypatch.delenv("PROJCLUST_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._num_threads() == 1          # pinned to one core, as by taskset
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._num_threads() == 8          # a platform without affinity
    monkeypatch.setenv("PROJCLUST_THREADS", "3")
    assert cli._num_threads() == 3


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_run_tasks_keeps_the_task_order(monkeypatch, threads):
    monkeypatch.setenv("PROJCLUST_THREADS", threads)

    def work(i):
        time.sleep(0.001 * (i * 7 % 5))         # tasks end out of order
        return i * i

    assert cli._run_tasks(work, list(range(30))) == [i * i for i in range(30)]


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_run_tasks_raises_the_lowest_failing_tasks_error(monkeypatch, threads):
    monkeypatch.setenv("PROJCLUST_THREADS", threads)
    started = []

    def work(i):
        started.append(i)
        if i == 1:
            time.sleep(0.05)                    # on 2 threads or more, task 3 fails first
            raise ValueError("task 1")
        if i == 3:
            raise KeyError("task 3")
        time.sleep(0.001)
        return i

    with pytest.raises(ValueError, match="task 1"):
        cli._run_tasks(work, list(range(100)))
    assert len(started) < 100                   # no task starts after an error


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_run_tasks_runs_on_the_caller_and_threads_minus_one_more(monkeypatch, threads):
    monkeypatch.setenv("PROJCLUST_THREADS", str(threads))

    def work(i):
        time.sleep(0.002)
        return threading.get_ident()

    idents = set(cli._run_tasks(work, list(range(30))))
    assert threading.get_ident() in idents and len(idents) <= threads


def test_run_tasks_runs_every_task_once_under_contention(monkeypatch):
    # more threads than cores and a short switch interval: a task index
    # taken twice, or skipped, would break the invariant
    monkeypatch.setenv("PROJCLUST_THREADS", "8")
    ran = []

    def work(i):
        ran.append(i)
        return i

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = cli._run_tasks(work, list(range(2000)))
    finally:
        sys.setswitchinterval(old)
    assert out == list(range(2000)) and sorted(ran) == out


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_command(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["counterexample", "--which", "both", "--n", "400", "--t", "3",
                 "--trials", "4", "--seed", "0", "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["which", "n", "t", "seed", "cost_original",
                      "cost_projected", "ratio"]
    assert len(rows) == 8
    assert {r[0] for r in rows} == {"medoid", "css"}
    med = [float(r[6]) for r in rows if r[0] == "medoid"]
    assert np.median(med) > 1.5
    text = capsys.readouterr().out
    assert "which=medoid" in text and "which=css" in text
    # distinct seeds per row
    assert len({r[3] for r in rows}) == 8


def test_counterexample_has_no_threshold_option(tmp_path, capsys):
    # the printed counts are taken at the fixed 1.5 (medoid) and 1.25 (css)
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--n", "10", "--threshold", "2",
              "--out", str(tmp_path / "c.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threshold 2" in capsys.readouterr().err


def test_identity_option_is_gone(tmp_path, capsys):
    # every map the CLI applies is a sampled one: the identity map at t = d
    # would report a ratio of 1 by construction
    for command in (["project", "--in", "s.txt", "--t", "2"],
                    ["preserve", "--problem", "clustering"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--identity", "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --identity" in capsys.readouterr().err


def test_counterexample_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["counterexample", "--which", "medoid", "--n", "256", "--t", "3",
            "--trials", "3", "--seed", "5"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# presets and parser


def test_preset_t_values():
    assert preset_t("clustering", 3, 2, 0.3, 200, 100) == 39
    assert preset_t("subspace", 2, 2, 0.3, 200, 100) == 23
    assert preset_t("flat", 2, 2, 0.3, 200, 100) == 34
    assert preset_t("clustering", 3, 2, 0.3, 200, 10) == 10   # clamped to d
    assert preset_t("lines", 2, 2, 0.3, 2, 50) >= 1           # lnln guard
    assert preset_t("subspace", 2, 1, 0.3, 200, 1000) > 23    # general z larger
    with pytest.raises(ValueError):
        preset_t("clustering", 3, 2, -0.1, 200, 100)
    with pytest.raises(ValueError):
        preset_t("medoids", 3, 2, 0.3, 200, 100)


def test_preset_t_refuses_k_and_d_below_one():
    for problem in ("clustering", "subspace", "flat", "lines"):
        for k, d in ((0, 100), (1, 0), (-1, 100)):
            with pytest.raises(ValueError, match="k and d must be positive"):
                preset_t(problem, k, 2, 0.3, 200, d)


def test_preset_t_refuses_eps_and_const_that_are_not_finite_and_positive():
    for name, bad in (("eps", 0.0), ("eps", -0.1), ("eps", np.nan), ("eps", np.inf),
                      ("const", 0.0), ("const", -3.0), ("const", np.nan), ("const", np.inf)):
        args = {"eps": 0.3, "const": 1.0, name: bad}
        for problem in ("clustering", "subspace", "flat", "lines"):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                preset_t(problem, 2, 2, args["eps"], 200, 100, const=args["const"])


def test_preset_t_clamps_extreme_formulas_without_overflow():
    for problem in ("clustering", "subspace", "flat", "lines"):
        for z in (1, 2):
            for eps in (1e-120, 1e-200, 5e-324):
                assert preset_t(problem, 2, z, eps, 200, 100) == 100
            for eps in (1e-200, 5e-324):    # eps^p underflows to 0
                assert preset_t(problem, 2, z, eps, 200, 100, const=5e-324) == 100
            assert preset_t(problem, 2, z, 0.3, 200, 100, const=1e308) == 100
            # the least solvable t: 1, or k + 1 = 3 for a subspace or flat
            least = 3 if problem in ("subspace", "flat") else 1
            assert preset_t(problem, 2, z, 1e200, 200, 100) == least
            assert preset_t(problem, 2, z, 0.3, 200, 100, const=5e-324) == least


def test_preset_t_keeps_the_plain_formula_on_a_grid(capsys):
    # the plain formula, then the clamp of a subspace or flat to k + 1
    clamped = 0
    for problem, k, z, eps, n, d, const in itertools.product(
            ("clustering", "subspace", "flat", "lines"), (1, 2, 5), (1, 1.5, 2, 3),
            (0.1, 0.3, 0.9), (2, 200), (10, 10 ** 5), (0.5, 1, 2)):
        want, formula = ref_preset_t(problem, k, z, eps, n, d, const)
        note = ""
        if problem in ("subspace", "flat") and want < min(d, k + 1):
            note = f", clamped up from {want}: a projected k-{problem} needs t > k"
            want = min(d, k + 1)
            clamped += 1
        assert preset_t(problem, k, z, eps, n, d, const=const, verbose=True) == want
        assert (capsys.readouterr().out
                == f"preset t={want} from {formula} (const={const!r}){note}\n")
    assert clamped > 0


def test_preserve_preset_clamped_to_a_solvable_t(tmp_path, capsys):
    # the formula gives t = 1 here, where no 3-subspace can be fitted
    out = tmp_path / "r.csv"
    assert main(["preserve", "--problem", "subspace", "--n", "50", "--d", "20",
                 "--k", "3", "--trials", "2", "--eps", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(
        "preset t=4 from k / eps^2 (const=1.0), clamped up from 1: "
        "a projected k-subspace needs t > k\n")
    _, rows = read_csv(str(out))
    assert [r[8] for r in rows if r[0] == "record"] == ["ok", "ok"]


def test_preserve_refuses_an_infinite_const(tmp_path, capsys):
    assert main(["preserve", "--problem", "clustering", "--n", "20", "--d", "5",
                 "--const", "inf", "--out", str(tmp_path / "p.csv")]) == 2
    assert "error: const must be finite and positive" in capsys.readouterr().err


def test_preset_t_verbose_prints_formula(capsys):
    preset_t("clustering", 3, 2, 0.3, 200, 100, verbose=True)
    assert "ln k" in capsys.readouterr().out


def test_module_entry_point_runs_without_runpy_warning():
    env = _env_with_src()
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "projclust.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: projclust" in proc.stdout


def test_import_pins_openblas_to_one_thread():
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    show = (f"print(*(os.environ.get(v) for v in {blas_vars!r})); "
            "print(len(os.listdir('/proc/self/task')) "
            "if sys.platform.startswith('linux') else 1)")
    env = _env_with_src()
    for var in blas_vars:
        env.pop(var, None)
    for first, preset, want in (("projclust", None, "1 None None"),
                                ("numpy", None, "None None None"),
                                ("projclust", "2", "2 None None")):
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset     # a value the caller set wins
        # imported after numpy, projclust leaves the variable alone: it
        # would not change the threads of the BLAS already loaded
        code = f"import os, sys, {first}, numpy, projclust; {show}"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        values, tasks = proc.stdout.splitlines()
        assert values == want
        if want == "1 None None":
            assert tasks == "1"     # numpy loaded, and no BLAS worker thread


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the package and its CLI run on numpy
    env = _env_with_src()
    code = ("import sys, projclust, projclust.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_executor_or_logging():
    # the pool is plain threads; concurrent.futures would also load logging
    env = _env_with_src()
    code = ("import sys, projclust.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'logging')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_summary_commands_load_no_numpy_ma(tmp_path):
    # np.median and np.percentile import numpy.ma on first use; the
    # commands' summaries take their arithmetic without it
    env = _env_with_src()
    code = ("import sys; from projclust.cli import main; "
            "main(['gen', '--kind', 'points-near-k-flat', '--n', '60', '--d', '5', "
            "'--k', '2', '--seed', '1', '--out', 'pts.txt']); "
            "main(['coreset', '--in', 'pts.txt', '--problem', 'flat', '--k', '2', "
            "'--z', '1', '--m', '20', '--t', '3', '--trials', '2', '--out', 'c.csv']); "
            "main(['preserve', '--problem', 'clustering', '--n', '40', '--d', '5', "
            "'--k', '2', '--t-list', '2,3', '--trials', '2', '--out', 'p.csv']); "
            "main(['counterexample', '--n', '100', '--t', '3', '--trials', '2', "
            "'--out', 'x.csv']); "
            "print('numpy.ma' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 1e6), st.just(np.inf), st.just(np.nan)),
                min_size=1, max_size=59))
@example([1.0, np.nan, 3.0])        # a nan anywhere makes all three nan
def test_quantiles_match_numpy(values):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # inf - inf in numpy's lerp
        want = (np.median(values), np.percentile(values, 5), np.percentile(values, 95))
    npt.assert_array_equal(cli._quantiles(values), want)


def test_parser_rejects_garbage():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main([])


def test_public_api_is_pinned():
    # the public API's size is tracked; change this list only on purpose
    assert projclust.__all__ == [
        "PROBLEMS", "Dataset", "WeightedSet", "CenterSet", "Subspace", "Flat",
        "Line", "LineSet", "project_subspace", "project_flat", "project_line",
        "distances", "assignment", "cost_pow", "cost", "read_dataset",
        "JLMap", "sample_jl", "apply", "moment_bound_statistic",
        "moment_bound_threshold", "is_subspace_embedding", "distortion_range",
        "SensitivityProfile", "clustering_sensitivity", "subspace_sensitivity",
        "flat_sensitivity", "line_sensitivity", "sup_ratios",
        "event_e4_statistic", "event_e4_bound",
        "Coreset", "sensitivity_sample", "line_coreset_1d", "line_coreset_klines",
        "coreset_size_bound", "PeelingPartition", "peel_partition",
        "SolveReport", "solve",
        "gen_medoid_instance", "gen_css_instance", "medoid_cost", "css_cost",
        "counterexample_trial", "preset_t",
    ]
    assert all(hasattr(projclust, name) for name in projclust.__all__)


def _defined_names(module):
    """The public names a module's own top-level statements define."""
    names = []
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def test_module_public_names_are_pinned():
    # what each module defines outside the package's __all__ is tracked too;
    # change this list only on purpose
    pinned = {
        "_rng": ["rng_stream"],
        "cli": ["make_gaussian_mixture", "make_near_subspace", "make_near_flat",
                "make_near_lines", "cmd_gen", "cmd_project", "cmd_solve",
                "cmd_coreset", "cmd_preserve", "cmd_counterexample",
                "build_parser", "main"],
        "coreset": ["COVER_FACTOR", "Coreset", "sensitivity_sample", "line_coreset_1d",
                    "coreset_size_bound", "line_coreset_klines", "PeelingPartition",
                    "peel_partition"],
        "counterexamples": ["gen_medoid_instance", "gen_css_instance", "medoid_cost",
                            "css_cost", "medoid_optimum", "css_optimum", "RatioReport",
                            "counterexample_trial"],
        "geometry": ["PROBLEMS", "ORTHO_TOL", "UNIT_TOL", "Dataset", "WeightedSet",
                     "CenterSet", "Subspace", "Flat", "Line", "LineSet",
                     "project_subspace", "project_flat", "project_line", "distances",
                     "assignment", "cost_pow", "cost", "write_points", "read_points",
                     "read_dataset"],
        "jl": ["JLMap", "sample_jl", "apply", "preset_t",
               "moment_ratio_samples", "moment_bound_statistic", "moment_bound_threshold",
               "is_subspace_embedding", "distortion_range", "write_map", "read_map"],
        "sensitivity": ["SensitivityProfile", "clustering_sensitivity", "sup_ratios",
                        "subspace_sensitivity", "flat_sensitivity", "line_sensitivity",
                        "event_e4_statistic", "event_e4_bound"],
        "solvers": ["EXACT_CLUSTERING_MAX_N", "EXACT_LINES_MAX_N", "SolveReport",
                    "opt_center", "solve"],
    }
    modules = sorted(m.name for m in pkgutil.iter_modules(projclust.__path__))
    assert modules == sorted(pinned)
    for name in modules:
        assert _defined_names(importlib.import_module(f"projclust.{name}")) == pinned[name], name


def test_cli_options_are_pinned():
    # each subcommand's option strings, in parser order; adding or retiring
    # a knob is an edit to this list
    solver = ["--method", "--restarts", "--seed"]
    pinned = {
        "gen": ["--kind", "--n", "--d", "--k", "--noise", "--seed", "--out"],
        "project": ["--in", "--t", "--seed", "--map-out", "--out"],
        "solve": ["--in", "--problem", "--k", "--z", *solver, "--out"],
        "coreset": ["--in", "--problem", "--k", "--z", "--m", "--t", "--eps", "--const",
                    "--trials", *solver, "--out"],
        "preserve": ["--problem", "--n", "--d", "--k", "--z", "--eps", "--t", "--t-list",
                     "--const", "--trials", *solver, "--out", "--plot"],
        "counterexample": ["--which", "--n", "--t", "--trials", "--seed", "--out"],
    }
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(pinned)
    for name, parser in sub.choices.items():
        options = [s for a in parser._actions for s in a.option_strings]
        assert options == ["-h", "--help", *pinned[name]], name
