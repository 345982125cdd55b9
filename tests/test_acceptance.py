"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints one pass/fail line under ``pytest -v``.  Budgets on wall
time are part of the guarantees and are asserted where stated.
"""

import csv
import time

import numpy as np
import numpy.testing as npt
import pytest

from projclust import cli, coreset, counterexamples, geometry, jl, sensitivity, solvers
from projclust._rng import rng_stream
from projclust.geometry import CenterSet, Dataset, Flat, Line, LineSet, Subspace


def random_solution(problem, pts, k, rng):
    d = pts.shape[1]
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo + 1e-9
    if problem == "clustering":
        return CenterSet(lo + rng.uniform(size=(k, d)) * span)
    if problem == "subspace":
        return Subspace(geometry._orthonormal_rows(rng.normal(size=(k, d))))
    if problem == "flat":
        basis = Subspace(geometry._orthonormal_rows(rng.normal(size=(k, d))))
        return Flat.from_point(basis, lo + rng.uniform(size=d) * span)
    if problem == "lines":
        return LineSet([Line.canonical(lo + rng.uniform(size=d) * span,
                                       rng.normal(size=d))
                        for _ in range(k)])
    raise ValueError(problem)


def test_criterion_01_total_sensitivity_identity():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, 5))
        z = int(rng.choice([1, 2, 3]))
        d = int(rng.integers(1, 6))
        data = Dataset(rng.normal(0, 2, (n, d)))
        centers = CenterSet(rng.normal(0, 3, (k, d)))
        prof = sensitivity.clustering_sensitivity(data, centers, z)
        kp = len(np.unique(geometry.assignment("clustering", data, centers)))
        expected = 2.0 ** (z - 1) + 2.0 ** (2 * z - 1) * kp
        assert prof.total == pytest.approx(expected, abs=1e-9)
    assert time.monotonic() - start < 5.0


def test_criterion_02_sensitivity_bound_audit():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    for problem in geometry.PROBLEMS:
        for _ in range(20):
            if problem == "clustering":
                n, d = int(rng.integers(6, 13)), int(rng.integers(1, 4))
                k = int(rng.integers(2, 4))
                z = int(rng.choice([1, 2, 3]))
            else:
                n, d = int(rng.integers(8, 13)), int(rng.integers(3, 5))
                k = 2 if problem != "subspace" else int(rng.integers(1, 3))
                z = 2
            pts = rng.normal(0, 2, (n, d))
            data = Dataset(pts)
            if problem == "clustering":
                sol = solvers.solve("clustering", data, k, z, method="exact").solution
                prof = sensitivity.clustering_sensitivity(data, sol, z)
            elif problem == "subspace":
                sol = solvers.solve("subspace", data, k, z).solution
                prof = sensitivity.subspace_sensitivity(data, sol, z)
            elif problem == "flat":
                sol = solvers.solve("flat", data, k, z).solution
                prof = sensitivity.flat_sensitivity(data, sol, z)
            else:
                sol = solvers.solve("lines", data, k, z, method="exact").solution
                prof = sensitivity.line_sensitivity(data, sol, z)
            for _ in range(1000):
                cand = random_solution(problem, pts, k, rng)
                cpow = geometry.cost_pow(problem, data, cand, z)
                ratios = geometry.distances(problem, data, cand) ** z / cpow
                worst = float(np.max(ratios - prof.sigma))
                assert worst <= 0.0, (
                    f"{problem}: sensitivity violated by {worst}")
    assert time.monotonic() - start < 120.0


def test_criterion_03_subspace_total_sensitivity_bound():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    for i in range(50):
        k = int(rng.integers(1, 4))
        z = 1 if i % 2 else 2
        n = int(rng.integers(k + 1, 16))
        d = int(rng.integers(k + 1, 7))
        basis = geometry._orthonormal_rows(rng.normal(size=(k, d)))
        y = rng.normal(0, 2, (n, k)) @ basis
        total = float(np.sum(sensitivity.sup_ratios(y, z)))
        assert total <= (k + 1) ** (1 + z) + 1e-9
    assert time.monotonic() - start < 60.0


def test_criterion_04_sup_ratio_oracles():
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(d + 1, 21))
        y = rng.normal(0, 2, (n, d))
        lev = np.einsum("ij,jk,ik->i", y, np.linalg.pinv(y.T @ y), y)
        npt.assert_allclose(sensitivity.sup_ratios(y, 2), lev, atol=1e-6)
    for z in (1, 3):
        for trial in range(5):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(4, 13))
            basis = geometry._orthonormal_rows(rng.normal(size=(2, d)))
            y = rng.normal(0, 2, (n, 2)) @ basis
            p = y @ basis.T
            theta = np.linspace(0.0, np.pi, 50_000, endpoint=False)
            u = np.stack([np.cos(theta), np.sin(theta)])
            vals = np.abs(p @ u) ** z
            grid = np.max(vals / np.sum(vals, axis=0), axis=1)
            got = sensitivity.sup_ratios(y, z, method="ascent")
            npt.assert_allclose(got, grid, rtol=0.02, atol=1e-9)


def test_criterion_05_moment_bound_statistic():
    start = time.monotonic()
    z, eps, t, trials = 2, 0.5, 64, 100_000
    thr = jl.moment_bound_threshold(z, eps)
    assert thr == 0.0125
    samples = np.maximum(jl.moment_ratio_samples(z, t, trials, seed=0) - 1.0, 0.0)
    stat = float(np.mean(samples))
    assert stat == pytest.approx(
        jl.moment_bound_statistic(z, eps, t, trials, seed=0), abs=1e-15)
    se = float(np.std(samples, ddof=1)) / np.sqrt(trials)
    assert time.monotonic() - start < 30.0
    assert stat <= thr + 3.0 * se, (
        f"one-sided overshoot {stat:.6f} exceeds {thr} + 3se = {thr + 3 * se:.6f} "
        f"at t={t}; the bound first holds at much larger t")


def interval_cover_violations(pos, chosen, k):
    """Brute-force audit: every k-interval cover of the chosen points,
    dilated 3x about interval centers, must cover all of pos."""
    pos = np.asarray(pos, dtype=float)
    q = np.sort(pos[chosen])
    scale = max(np.max(pos) - np.min(pos), 1.0)
    tol = 1e-9 * scale

    def dilated_covers(intervals):
        for x in pos:
            ok = False
            for a, b in intervals:
                c, r = 0.5 * (a + b), 0.5 * (b - a)
                if c - 3.0 * r - tol <= x <= c + 3.0 * r + tol:
                    ok = True
                    break
            if not ok:
                return False
        return True

    bad = 0
    if k == 1:
        bad += not dilated_covers([(q[0], q[-1])])
        return bad
    for i in range(len(q)):
        for j in range(i, len(q)):
            first = (q[i], q[j])
            rest = q[(q < first[0] - tol) | (q > first[1] + tol)]
            if rest.size == 0:
                second = (q[0], q[0])
            else:
                second = (rest[0], rest[-1])
            if not dilated_covers([first, second]):
                bad += 1
    return bad


def test_criterion_06_interval_cover_audit():
    start = time.monotonic()
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        pos = rng.normal(0, 5, n)
        if n > 3 and rng.uniform() < 0.2:
            pos[-1] = pos[0]                       # duplicate point
        y = rng.normal(0, 2, d) + pos[:, None] * u
        idx = coreset.line_coreset_1d(y, k)
        assert interval_cover_violations(pos, idx, k) == 0
        if k == 1:
            assert len(idx) == 2
            assert coreset.coreset_size_bound(1, n) == 2
    assert time.monotonic() - start < 120.0


def test_criterion_07_projection_commutation():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(1, 3))
        d = int(rng.integers(3, 5))
        t = int(rng.integers(2, d))
        anchors = rng.normal(0, 3, (k, d))
        dirs = rng.normal(size=(k, d))
        lines = [Line.canonical(a, u) for a, u in zip(anchors, dirs)]
        n = int(rng.integers(2 * k, 21))
        labels = rng.integers(0, k, n)
        steps = rng.normal(0, 4, n)
        y = np.stack([lines[g].anchor + s * lines[g].direction
                      for g, s in zip(labels, steps)])
        before = coreset.line_coreset_klines(y, LineSet(lines), labels)
        mat = rng.normal(size=(t, d))
        proj_lines = [Line.canonical(mat @ ln.anchor, mat @ ln.direction)
                      for ln in lines]
        after = coreset.line_coreset_klines(y @ mat.T, LineSet(proj_lines), labels)
        npt.assert_array_equal(before, after)
    assert time.monotonic() - start < 30.0


def test_criterion_08_coreset_unbiasedness():
    rng = np.random.default_rng(8)
    for problem in geometry.PROBLEMS:
        n, d, k, z, m = 40, 4, 2, 2, 20
        data = Dataset(rng.normal(0, 2, (n, d)))
        rep = solvers.solve(problem, data, k, z, restarts=10, seed=0,
                            method="heuristic" if problem == "clustering" else "auto")
        prof = cli._profile_for(problem, data, rep.solution, z)
        true = geometry.cost_pow(problem, data, rep.solution, z)
        draws = np.empty(1000)
        for j in range(1000):
            cs = coreset.sensitivity_sample(data, prof, m, seed=100, stream=j)
            draws[j] = geometry.cost_pow(problem, cs.extract(data),
                                         rep.solution, z)
        se = float(np.std(draws, ddof=1)) / np.sqrt(len(draws))
        assert abs(float(np.mean(draws)) - true) <= 3.0 * se, problem


def test_criterion_09_preservation_envelope_clustering(tmp_path):
    start = time.monotonic()
    assert cli.preset_t("clustering", 3, 2, 0.3, 200, 100) == 39
    out = tmp_path / "preserve.csv"
    rc = cli.main(["preserve", "--problem", "clustering", "--n", "200",
                   "--d", "100", "--k", "3", "--z", "2", "--eps", "0.3",
                   "--trials", "50", "--seed", "0", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = [r for r in csv.reader(fh)][1:]
    records = [r for r in rows if r[0] == "record"]
    assert len(records) == 50 and all(r[6] == "39" for r in records)
    ratios = np.array([float(r[12]) for r in records])
    assert 0.8 <= float(np.median(ratios)) <= 1.25
    inside = np.sum((ratios >= 1 / 1.5) & (ratios <= 1.5))
    assert inside >= 40
    assert time.monotonic() - start < 300.0


def test_criterion_10_preservation_envelope_subspace(tmp_path):
    start = time.monotonic()
    assert cli.preset_t("subspace", 2, 2, 0.3, 200, 100) == 23
    out = tmp_path / "preserve.csv"
    rc = cli.main(["preserve", "--problem", "subspace", "--n", "200",
                   "--d", "100", "--k", "2", "--z", "2", "--eps", "0.3",
                   "--trials", "50", "--seed", "0", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = [r for r in csv.reader(fh)][1:]
    records = [r for r in rows if r[0] == "record"]
    assert len(records) == 50 and all(r[9] == "svd" for r in records)
    ratios = np.array([float(r[12]) for r in records])
    inside = np.sum((ratios >= 1 / 1.4) & (ratios <= 1.4))
    assert inside >= 45
    assert time.monotonic() - start < 180.0


def test_criterion_11_medoid_counterexample():
    start = time.monotonic()
    n = 10_000
    reps = [counterexamples.counterexample_trial("medoid", n, 3, s)
            for s in range(20)]
    assert all(r.cost_original == 2.0 * (n - 1) for r in reps)
    hits = sum(r.ratio >= 1.5 for r in reps)
    assert hits >= 18
    assert time.monotonic() - start < 120.0


def test_criterion_12_css_counterexample():
    start = time.monotonic()
    n = 4096
    reps = [counterexamples.counterexample_trial("css", n, 3, s)
            for s in range(20)]
    assert all(r.cost_original == 0.75 * (n - 1) for r in reps)
    hits = sum(r.ratio >= 1.25 for r in reps)
    assert hits >= 18
    assert time.monotonic() - start < 180.0


def test_criterion_13_event_e4_frequency():
    n, d, k, z = 200, 100, 3, 2
    t = cli.preset_t("clustering", k, z, 0.3, n, d)
    bound = sensitivity.event_e4_bound(k, z)
    assert bound == 1600.0
    good = 0
    for s in range(100):
        data = cli.make_gaussian_mixture(n, d, k, 1.0, rng_stream(13, s))
        rep = solvers.solve("clustering", data, k, z, restarts=5, seed=0, method="heuristic")
        prof = sensitivity.clustering_sensitivity(data, rep.solution, z)
        pi = jl.sample_jl(d, t, seed=13, stream=1000 + s)
        stat = sensitivity.event_e4_statistic(data, rep.solution, pi, z, prof)
        good += stat <= bound
    assert good >= 95


def test_criterion_14_csv_determinism(tmp_path, monkeypatch):
    configs = [
        ["preserve", "--problem", "clustering", "--n", "40", "--d", "12",
         "--k", "2", "--z", "2", "--t-list", "4,8", "--trials", "4",
         "--restarts", "5", "--seed", "3"],
        ["counterexample", "--which", "both", "--n", "300", "--t", "3",
         "--trials", "5", "--seed", "1"],
        ["coreset", "--in", None, "--problem", "clustering", "--k", "2",
         "--z", "2", "--m", "15", "--trials", "4", "--restarts", "5",
         "--seed", "2"],
    ]
    src = tmp_path / "pts.txt"
    cli.main(["gen", "--kind", "gaussian-mixture", "--n", "50", "--d", "6",
              "--k", "2", "--seed", "0", "--out", str(src)])
    configs[2][2] = str(src)
    for ci, cfg in enumerate(configs):
        outputs = []
        for run, threads in ((0, "1"), (1, "3"), (2, "3")):
            out = tmp_path / f"out-{ci}-{run}.csv"
            monkeypatch.setenv("PROJCLUST_THREADS", threads)
            assert cli.main(cfg + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], cfg[0]
