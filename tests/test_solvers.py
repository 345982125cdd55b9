import itertools
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import minimize_scalar

from projclust import geometry
from projclust.geometry import Dataset, WeightedSet, CenterSet, Subspace, Flat, Line, LineSet
from projclust.solvers import (
    SolveReport, opt_center, solve,
    _best_partition, _descent_center, _grassmann_descent, _dz_seed, _subspace_cost,
)


# ---------------------------------------------------------------------------
# Independent small-scale oracles


def block_cost_1d(xs, z):
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 1:
        return 0.0
    if z == 2:
        return float(np.sum((xs - xs.mean()) ** 2))
    if z == 1:
        return float(np.sum(np.abs(xs - np.median(xs))))
    res = minimize_scalar(lambda c: np.sum(np.abs(xs - c) ** z),
                          bounds=(xs.min(), xs.max()), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.fun)


def brute_clustering_1d(xs, k, z):
    n = len(xs)
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        c = 0.0
        for b in range(k):
            blk = [xs[i] for i in range(n) if assign[i] == b]
            if blk:
                c += block_cost_1d(blk, z)
        best = min(best, c)
    return best


def brute_clustering_z2(pts, k):
    n = len(pts)
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        c = 0.0
        for b in range(k):
            blk = pts[[i for i in range(n) if assign[i] == b]]
            if len(blk):
                c += float(np.sum((blk - blk.mean(axis=0)) ** 2))
        best = min(best, c)
    return best


def line_block_cost_z2(pts):
    if len(pts) <= 2:
        return 0.0
    c = pts - pts.mean(axis=0)
    s = np.linalg.svd(c, compute_uv=False)
    return float(np.sum(s[1:] ** 2))


def brute_lines_z2(pts, k):
    n = len(pts)
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        c = 0.0
        for b in range(k):
            blk = pts[[i for i in range(n) if assign[i] == b]]
            if len(blk):
                c += line_block_cost_z2(blk)
        best = min(best, c)
    return best


def fibonacci_sphere(g):
    i = np.arange(g) + 0.5
    z = 1.0 - 2.0 * i / g
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def brute_partition_cost(n, k, cost):
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        blocks = [[i for i in range(n) if assign[i] == b] for b in range(k)]
        best = min(best, sum(cost(blk) for blk in blocks if blk))
    return best


# ---------------------------------------------------------------------------
# Shared partition search


@pytest.mark.parametrize("k", [1, 2, 3])
def test_best_partition_matches_brute_force(k):
    for n in range(1, 9):
        for seed in range(2):
            x = np.random.default_rng(10 * n + seed).uniform(-1.0, 1.0, size=n)

            def cost(idx):
                return float((np.max(x[idx]) - np.min(x[idx])) ** 2)

            blocks = _best_partition(n, k, cost)
            assert 1 <= len(blocks) <= k
            assert sorted(i for blk in blocks for i in blk) == list(range(n))
            got = sum(cost(blk) for blk in blocks)
            assert got == pytest.approx(brute_partition_cost(n, k, cost), abs=1e-12)


# ---------------------------------------------------------------------------
# Single-center subproblem


def test_opt_center_mean_for_z2():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(9, 3))
    w = rng.uniform(0.5, 2.0, 9)
    npt.assert_allclose(opt_center(pts, 2, w), np.average(pts, axis=0, weights=w), atol=1e-12)


def test_opt_center_weighted_median_1d():
    pts = np.array([[0.0], [10.0]])
    assert opt_center(pts, 1, np.array([3.0, 1.0]))[0] == 0.0


def test_opt_center_geometric_median_symmetric():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    npt.assert_allclose(opt_center(pts, 1), [0.0, 0.0], atol=1e-6)


def test_opt_center_z3_midpoint():
    c = opt_center(np.array([[0.0], [1.0]]), 3)
    assert c[0] == pytest.approx(0.5, abs=1e-4)


def test_opt_center_point_on_center_does_not_warn():
    # the starting center (the mean) is the first point; z < 2 used to
    # evaluate 0 ** (z - 2) there before masking it out
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        c = opt_center(pts, 1.3)
    npt.assert_allclose(c, [0.0, 0.0], atol=1e-6)


# Loop references for the shared descent and the incremental seeding: the
# shared versions must return the same bits.


def ref_descent_center(pts, w, z, max_iter=500, tol=1e-8):
    c = np.average(pts, axis=0, weights=w)
    step = 1.0

    def cost(cc):
        return float(np.sum(w * np.linalg.norm(pts - cc, axis=1) ** z))

    val = cost(c)
    for _ in range(max_iter):
        diff = c - pts
        dist = np.linalg.norm(diff, axis=1)
        away = dist > 0
        coef = np.where(away, z * np.where(away, dist, 1.0) ** (z - 2.0), 0.0) * w
        grad = (coef[:, None] * diff).sum(axis=0)
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            break
        improved = False
        for _ in range(40):
            cand = c - step * grad / max(gnorm, 1.0)
            cval = cost(cand)
            if cval < val:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        c, old = cand, val
        val = cval
        step *= 1.5
        if old - val < tol * max(val, 1e-300):
            break
    return c


def ref_grassmann_descent(pts, w, basis, z, max_iter=200, tol=1e-8):
    b = basis.copy()
    val = _subspace_cost(pts, w, b, z)
    step = 1.0
    scale = float(np.max(np.linalg.norm(pts, axis=1)))
    floor = 1e-12 * max(scale, 1.0)
    for _ in range(max_iter):
        res_sq = np.maximum(
            np.sum(pts * pts, axis=1) - np.sum((pts @ b.T) ** 2, axis=1), 0.0)
        r = np.sqrt(res_sq)
        coef = w * np.maximum(r, floor) ** (z - 2.0)
        grad = -z * (b @ (pts.T * coef) @ pts)
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            break
        improved = False
        for _ in range(40):
            q, _ = np.linalg.qr((b - step * grad / gnorm).T)
            cand = q.T[: b.shape[0]]
            cval = _subspace_cost(pts, w, cand, z)
            if cval < val:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        b, old = cand, val
        val = cval
        step *= 1.5
        if old - val < tol * max(val, 1e-300):
            break
    return b, val


def ref_dz_seed(pts, w, k, z, rng):
    n = pts.shape[0]
    first = int(rng.integers(n))
    centers = [pts[first]]
    for _ in range(k - 1):
        dist = np.min(
            np.stack([np.linalg.norm(pts - c, axis=1) for c in centers]), axis=0)
        p = w * dist ** z
        tot = p.sum()
        if tot <= 0:
            centers.append(pts[int(rng.integers(n))])
            continue
        centers.append(pts[int(rng.choice(n, p=p / tot))])
    return np.vstack(centers)


@pytest.mark.parametrize("z", [1.3, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_descent_center_matches_loop_reference(z, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(40, 3)) * [1.0, 4.0, 0.5]
    w = rng.uniform(0.1, 3.0, 40)
    npt.assert_array_equal(_descent_center(pts, w, z), ref_descent_center(pts, w, z))
    # a point sitting on the starting center (the mean of a symmetric set)
    sym = np.vstack([np.zeros(3), pts[:10], -pts[:10]])
    ones = np.ones(sym.shape[0])
    npt.assert_array_equal(_descent_center(sym, ones, z), ref_descent_center(sym, ones, z))
    npt.assert_array_equal(_descent_center(pts, w, z, max_iter=3),
                           ref_descent_center(pts, w, z, max_iter=3))


@pytest.mark.parametrize("z", [1.3, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grassmann_descent_matches_loop_reference(z, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(50, 5)) * [3.0, 2.0, 1.0, 0.5, 0.2]
    w = rng.uniform(0.1, 3.0, 50)
    basis = geometry._orthonormal_rows(rng.normal(size=(2, 5)))
    for kwargs in ({}, {"max_iter": 60}):
        got_b, got_v, _ = _grassmann_descent(pts, w, basis, z, **kwargs)
        want_b, want_v = ref_grassmann_descent(pts, w, basis, z, **kwargs)
        npt.assert_array_equal(got_b, want_b)
        assert got_v == want_v


def test_descent_reports_running_out_of_steps():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 5)) * [3.0, 2.0, 1.0, 0.5, 0.2]
    w = rng.uniform(0.1, 3.0, 50)
    basis = geometry._orthonormal_rows(rng.normal(size=(2, 5)))
    assert not _grassmann_descent(pts, w, basis, 1.3, max_iter=3)[2]
    assert _grassmann_descent(pts, w, basis, 1.3)[2]


@pytest.mark.parametrize("z", [1.3, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dz_seed_matches_loop_reference(z, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(60, 4))
    pts[:5] = pts[5]
    w = rng.uniform(0.1, 3.0, 60)
    same = np.tile(pts[:1], (7, 1))      # every draw falls to the tot <= 0 branch
    for p, pw, k in ((pts, w, 1), (pts, w, 5), (pts, np.ones(60), 8), (same, np.ones(7), 4)):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        npt.assert_array_equal(_dz_seed(p, pw, k, z, got_rng),
                               ref_dz_seed(p, pw, k, z, want_rng))
        assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)


# ---------------------------------------------------------------------------
# Clustering


def test_exact_clustering_two_pairs():
    x = Dataset([[0.0], [1.0], [4.0], [5.0]])
    rep = solve("clustering", x, 2, 2, method="exact")
    assert rep.cost_pow == pytest.approx(1.0, abs=1e-9)
    assert rep.cost == pytest.approx(1.0, abs=1e-9)
    npt.assert_allclose(np.sort(rep.solution.centers[:, 0]), [0.5, 4.5], atol=1e-12)
    assert rep.converged and rep.method == "partition-enumeration"


def test_exact_clustering_k_at_least_n():
    x = Dataset(np.random.default_rng(1).normal(size=(4, 2)))
    assert solve("clustering", x, 5, 2, method="exact").cost_pow == 0.0


def test_exact_clustering_k1_is_centroid():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(8, 3))
    rep = solve("clustering", Dataset(pts), 1, 2, method="exact")
    npt.assert_allclose(rep.solution.centers[0], pts.mean(axis=0), atol=1e-9)
    assert rep.cost_pow == pytest.approx(float(np.sum((pts - pts.mean(axis=0)) ** 2)), rel=1e-12)


def test_exact_clustering_refuses_large_n():
    with pytest.raises(ValueError):
        solve("clustering", Dataset(np.zeros((15, 2))), 2, 2, method="exact")


@pytest.mark.parametrize("z", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_clustering_matches_brute_force_1d(z, seed):
    rng = np.random.default_rng(seed)
    n, k = 7, int(rng.integers(2, 4))
    xs = rng.normal(0, 3, n)
    rep = solve("clustering", Dataset(xs[:, None]), k, z, method="exact")
    assert rep.cost_pow == pytest.approx(brute_clustering_1d(list(xs), k, z), rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_exact_clustering_matches_brute_force_z2_3d(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0, 2, (7, 3))
    rep = solve("clustering", Dataset(pts), 3, 2, method="exact")
    assert rep.cost_pow == pytest.approx(brute_clustering_z2(pts, 3), rel=1e-9, abs=1e-12)


def test_exact_clustering_weighted_matches_duplication():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(6, 2))
    w = np.ones(6)
    w[0] = 3.0
    dup = np.vstack([pts, pts[0], pts[0]])
    a = solve("clustering", WeightedSet(pts, w), 2, 2, method="exact")
    b = solve("clustering", Dataset(dup), 2, 2, method="exact")
    assert a.cost_pow == pytest.approx(b.cost_pow, rel=1e-9)


def test_heuristic_clustering_matches_exact_usually():
    rng = np.random.default_rng(7)
    matches = 0
    trials = 20
    for t in range(trials):
        n = int(rng.integers(6, 10))
        k = int(rng.integers(2, 4))
        pts = rng.normal(0, 2, (n, 2))
        exact = solve("clustering", Dataset(pts), k, 2, method="exact")
        heur = solve("clustering", Dataset(pts), k, 2, restarts=50, seed=t, method="heuristic")
        assert heur.cost_pow >= exact.cost_pow - 1e-9
        if heur.cost_pow <= exact.cost_pow * (1 + 1e-6) + 1e-12:
            matches += 1
    assert matches >= int(0.9 * trials)


def test_heuristic_clustering_deterministic_and_monotone_in_restarts():
    rng = np.random.default_rng(8)
    x = Dataset(rng.normal(0, 2, (30, 3)))
    a = solve("clustering", x, 3, 2, restarts=10, seed=5, method="heuristic")
    b = solve("clustering", x, 3, 2, restarts=10, seed=5, method="heuristic")
    npt.assert_array_equal(a.solution.centers, b.solution.centers)
    assert a.cost_pow == b.cost_pow
    more = solve("clustering", x, 3, 2, restarts=30, seed=5, method="heuristic")
    assert more.cost_pow <= a.cost_pow + 1e-12


def test_clustering_dispatcher_methods():
    x = Dataset(np.random.default_rng(9).normal(size=(8, 2)))
    assert solve("clustering", x, 2, 2).method == "partition-enumeration"
    assert solve("clustering", x, 2, 2, method="heuristic").method == "lloyd-multirestart"
    big = Dataset(np.random.default_rng(9).normal(size=(40, 2)))
    assert solve("clustering", big, 2, 2).method == "lloyd-multirestart"
    with pytest.raises(ValueError):
        solve("clustering", x, 2, 2, method="annealing")


def test_clustering_auto_goes_exact_at_z2_only():
    x = Dataset(np.random.default_rng(10).normal(size=(12, 2)))
    assert solve("clustering", x, 3, 1).method == "lloyd-multirestart"
    assert solve("clustering", x, 3, 1.3).method == "lloyd-multirestart"
    assert solve("clustering", x, 3, 2).method == "partition-enumeration"


# ---------------------------------------------------------------------------
# Subspace


def test_subspace_z2_basis_vectors():
    rep = solve("subspace", Dataset(np.eye(3)), 2, 2)
    assert rep.cost_pow == pytest.approx(1.0, abs=1e-9)
    assert rep.method == "svd" and rep.converged


def test_subspace_planted_rank_is_zero_cost():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(20, 2)) @ rng.normal(size=(2, 6))
    rep = solve("subspace", Dataset(pts), 2, 2)
    assert rep.cost_pow == pytest.approx(0.0, abs=1e-9)


def test_subspace_rejects_full_dimension():
    with pytest.raises(ValueError):
        solve("subspace", Dataset(np.eye(3)), 3, 2)
    with pytest.raises(ValueError):
        solve("subspace", Dataset(np.eye(3)), 0, 2)


@pytest.mark.parametrize("k", [1, 2])
def test_subspace_z2_beats_direction_grid(k):
    rng = np.random.default_rng(11)
    pts = rng.normal(0, 2, (8, 3))
    rep = solve("subspace", Dataset(pts), k, 2)
    dirs = fibonacci_sphere(50_000)
    proj_sq = (pts @ dirs.T) ** 2                      # (n, G)
    norms_sq = np.sum(pts * pts, axis=1)[:, None]
    if k == 1:
        grid_min = float(np.min(np.sum(norms_sq - proj_sq, axis=0)))
    else:
        # complement parameterization: a 2-d subspace of R^3 is a normal direction
        grid_min = float(np.min(np.sum(proj_sq, axis=0)))
    assert rep.cost_pow <= grid_min + 1e-6
    assert rep.cost_pow >= grid_min - 1e-3            # grid is itself near-optimal


def test_subspace_z1_close_to_direction_grid():
    rng = np.random.default_rng(12)
    pts = rng.normal(0, 2, (8, 3))
    rep = solve("subspace", Dataset(pts), 1, 1)
    dirs = fibonacci_sphere(100_000)
    proj_sq = (pts @ dirs.T) ** 2
    res = np.sqrt(np.maximum(np.sum(pts * pts, axis=1)[:, None] - proj_sq, 0.0))
    grid_min = float(np.min(np.sum(res, axis=0)))
    assert rep.cost_pow <= grid_min * 1.02 + 1e-9
    assert rep.cost_pow >= grid_min * 0.98 - 1e-9


# ---------------------------------------------------------------------------
# Flat


def test_flat_z2_unit_square():
    square = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rep = solve("flat", square, 1, 2)
    assert rep.cost_pow == pytest.approx(1.0, abs=1e-9)
    assert rep.method == "centered-svd"


def test_flat_planted_is_zero_cost():
    rng = np.random.default_rng(13)
    basis = geometry._orthonormal_rows(rng.normal(size=(2, 5)))
    shift = rng.normal(size=5)
    pts = rng.normal(size=(15, 2)) @ basis + shift
    assert solve("flat", Dataset(pts), 2, 2).cost_pow == pytest.approx(0.0, abs=1e-8)
    assert solve("flat", Dataset(pts), 2, 1).cost_pow == pytest.approx(0.0, abs=1e-6)


def test_flat_translation_invariant_cost():
    rng = np.random.default_rng(14)
    pts = rng.normal(0, 2, (12, 4))
    v = rng.normal(0, 10, 4)
    a = solve("flat", Dataset(pts), 2, 2)
    b = solve("flat", Dataset(pts + v), 2, 2)
    assert a.cost_pow == pytest.approx(b.cost_pow, rel=1e-9, abs=1e-12)


def test_flat_z1_no_worse_than_z2_solution():
    rng = np.random.default_rng(15)
    pts = np.vstack([np.stack([np.linspace(0, 3, 6), np.zeros(6)], axis=1),
                     [[1.5, 5.0]]])
    rep = solve("flat", Dataset(pts), 1, 1)
    ref = solve("flat", Dataset(pts), 1, 2)
    ref_z1 = geometry.cost_pow("flat", Dataset(pts), ref.solution, 1)
    assert rep.cost_pow <= ref_z1 + 1e-9


def test_flat_reports_alternation_round_cap():
    # at seed 12 the winning z = 1 alternation is still improving after its
    # 10 rounds; at seed 3 it meets its tolerance
    capped = Dataset(np.random.default_rng(12).standard_t(2, size=(20, 4)))
    settled = Dataset(np.random.default_rng(3).standard_t(2, size=(20, 4)))
    assert not solve("flat", capped, 1, 1).converged
    assert solve("flat", settled, 1, 1).converged
    for x in (capped, settled):
        assert solve("flat", x, 1, 2).converged
        assert solve("subspace", x, 1, 2).converged


# ---------------------------------------------------------------------------
# Lines


def test_lines_exact_square_corners():
    square = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rep = solve("lines", square, 2, 2, method="exact")
    assert rep.cost_pow == pytest.approx(0.0, abs=1e-12)


def test_lines_exact_on_two_lines():
    rng = np.random.default_rng(16)
    t = rng.normal(0, 2, 10)
    pts = np.vstack([np.stack([t[:5], 2 * t[:5] + 1], axis=1),
                     np.stack([t[5:], -t[5:] + 4], axis=1)])
    rep = solve("lines", Dataset(pts), 2, 2, method="exact")
    assert rep.cost_pow == pytest.approx(0.0, abs=1e-9)
    heur = solve("lines", Dataset(pts), 2, 2, restarts=30, seed=0, method="heuristic")
    assert heur.cost_pow <= 1e-6


@pytest.mark.parametrize("seed", [17, 18, 19])
def test_lines_exact_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(0, 2, (7, 2))
    rep = solve("lines", Dataset(pts), 2, 2, method="exact")
    assert rep.cost_pow == pytest.approx(brute_lines_z2(pts, 2), rel=1e-9, abs=1e-12)


def test_lines_exact_validation():
    x = Dataset(np.random.default_rng(20).normal(size=(13, 2)))
    with pytest.raises(ValueError):
        solve("lines", x, 2, 2, method="exact")
    with pytest.raises(ValueError):
        solve("lines", Dataset(np.zeros((4, 2))), 2, 1, method="exact")


def test_lines_heuristic_reasonable_vs_exact():
    rng = np.random.default_rng(21)
    ratios = []
    for t in range(10):
        pts = rng.normal(0, 2, (10, 2))
        exact = solve("lines", Dataset(pts), 2, 2, method="exact")
        heur = solve("lines", Dataset(pts), 2, 2, restarts=30, seed=t, method="heuristic")
        assert heur.cost_pow >= exact.cost_pow - 1e-9
        ratios.append(heur.cost_pow / max(exact.cost_pow, 1e-300))
    assert np.median(ratios) <= 1.05
    assert sum(r <= 1 + 1e-6 for r in ratios) >= 7


def test_lines_report_consistency():
    rng = np.random.default_rng(22)
    x = Dataset(rng.normal(size=(9, 3)))
    rep = solve("lines", x, 2, 2)
    assert isinstance(rep.solution, LineSet) and rep.solution.k == 2
    assert rep.cost == pytest.approx(rep.cost_pow ** 0.5, rel=1e-12)
    assert rep.cost_pow == pytest.approx(
        geometry.cost_pow("lines", x, rep.solution, 2), rel=1e-12)


def test_solve_dispatcher():
    rng = np.random.default_rng(23)
    x = Dataset(rng.normal(size=(10, 3)))
    assert isinstance(solve("clustering", x, 2, 2).solution, CenterSet)
    assert isinstance(solve("subspace", x, 1, 2).solution, Subspace)
    assert isinstance(solve("flat", x, 1, 2).solution, Flat)
    assert isinstance(solve("lines", x, 2, 2).solution, LineSet)
    with pytest.raises(ValueError):
        solve("medoids", x, 2, 2)


@pytest.mark.parametrize("problem", geometry.PROBLEMS)
def test_solve_refuses_bad_arguments_on_every_path(problem):
    # n = 10 puts clustering and lines on the exact path under "auto"
    x = Dataset(np.random.default_rng(24).normal(size=(10, 3)))
    with pytest.raises(ValueError, match="unknown method"):
        solve(problem, x, 2, 2, method="bogus")
    for method in ("auto", "exact", "heuristic"):
        for kwargs, msg in (({"k": 0}, "k must be positive"),
                            ({"z": 0.5}, "z must be"),
                            ({"restarts": 0}, "restarts must be positive"),
                            ({"restarts": -5}, "restarts must be positive"),
                            ({"seed": -1}, "seed must be non-negative")):
            args = {"k": 2, "z": 2, **kwargs}
            with pytest.raises(ValueError, match=msg):
                solve(problem, x, args.pop("k"), args.pop("z"), method=method, **args)
