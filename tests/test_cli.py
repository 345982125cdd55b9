import csv
import os
import subprocess
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import projclust
from projclust import geometry, jl, solvers
from projclust.cli import main, preset_t


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# gen / project / solve


@pytest.mark.parametrize("kind,d", [("gaussian-mixture", 4),
                                    ("points-near-k-lines", 3),
                                    ("points-near-k-flat", 5)])
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


def test_project_identity_and_missing_t(tmp_path):
    src, dst = tmp_path / "s.txt", tmp_path / "p.txt"
    main(["gen", "--kind", "gaussian-mixture", "--n", "8", "--d", "4",
          "--out", str(src)])
    assert main(["project", "--in", str(src), "--identity",
                 "--out", str(dst)]) == 0
    npt.assert_array_equal(geometry.read_points(str(dst)),
                           geometry.read_points(str(src)))
    assert main(["project", "--in", str(src), "--out", str(dst)]) == 2


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
    assert main(["solve", "--in", str(src), "--problem", problem, "--k", "2",
                 "--restarts", "0", "--out", str(tmp_path / "sol.txt")]) == 2
    assert "restarts must be positive" in capsys.readouterr().err


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


def test_preserve_identity_map_is_exact(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["preserve", "--problem", "clustering", "--n", "25", "--d", "6",
                 "--k", "2", "--z", "2", "--identity", "--trials", "3",
                 "--restarts", "5", "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    records = [r for r in rows if r[0] == "record"]
    assert [r[6] for r in records] == ["6", "6", "6"]
    assert all(float(r[12]) == 1.0 for r in records)


def test_preserve_rejects_t_above_d(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["preserve", "--problem", "clustering", "--n", "10",
                 "--d", "5", "--k", "2", "--t-list", "3,9", "--trials", "2",
                 "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_preset_t_verbose_prints_formula(capsys):
    preset_t("clustering", 3, 2, 0.3, 200, 100, verbose=True)
    assert "ln k" in capsys.readouterr().out


def test_module_entry_point_runs_without_runpy_warning():
    src = os.path.dirname(os.path.dirname(projclust.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "projclust.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: projclust" in proc.stdout


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
        "JLMap", "sample_jl", "identity_map", "apply", "moment_bound_statistic",
        "moment_bound_threshold", "is_subspace_embedding", "distortion_range",
        "SensitivityProfile", "clustering_sensitivity", "subspace_sensitivity",
        "flat_sensitivity", "line_sensitivity", "sup_ratio", "sup_ratios",
        "event_e4_statistic", "event_e4_bound",
        "Coreset", "sensitivity_sample", "line_coreset_1d", "line_coreset_klines",
        "coreset_size_bound", "PeelingPartition", "peel_partition",
        "SolveReport", "solve",
        "gen_medoid_instance", "gen_css_instance", "medoid_cost", "css_cost",
        "counterexample_trial", "preset_t",
    ]
    assert all(hasattr(projclust, name) for name in projclust.__all__)
