import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize, minimize_scalar

from projclust import geometry, solvers
from projclust.geometry import Dataset, WeightedSet, CenterSet, Subspace, Flat, Line, LineSet
from projclust.solvers import (
    SolveReport, opt_center, solve,
    _best_partition, _descent, _dz_seed, _irls, _subspace_cost, _fit_line,
)

from _oracles import (
    _default_dir, ref_clustering_exact, ref_descent_center, ref_dz_seed, ref_flat,
    ref_grassmann_descent, ref_lines_alternating, ref_lines_exact, ref_lloyd, ref_subspace,
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
    npt.assert_array_equal(opt_center(pts, 2, w), np.average(pts, axis=0, weights=w))


@pytest.mark.parametrize("weights, message", [
    ([-1.0, 1.0, 1.0], "weights must be non-negative"),
    ([1.0, np.nan, 1.0], "weights must be finite"),
    ([0.0, 0.0, 0.0], "at least one weight must be positive"),
])
def test_opt_center_refuses_what_a_weighted_set_refuses(weights, message):
    # unchecked, a negative weight put the center outside the rows' hull,
    # a nan returned nan and a zero sum raised ZeroDivisionError
    for z in (1, 2, 3):
        with pytest.raises(ValueError, match=message):
            opt_center(np.eye(3), z, weights)


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
    for z in (1.0, 1.3):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            c = opt_center(pts, z)
        npt.assert_allclose(c, [0.0, 0.0], atol=1e-6)


def ref_weiszfeld(pts, w, max_iter=10_000, tol=1e-10):
    """Weighted geometric median by Weiszfeld's reweighted averaging."""
    c = np.average(pts, axis=0, weights=w)
    prev = np.inf
    for _ in range(max_iter):
        dist = np.linalg.norm(pts - c, axis=1)
        if np.any(dist == 0.0):
            c = c + 1e-12 * (1.0 + np.abs(c))     # step off the data point
            dist = np.linalg.norm(pts - c, axis=1)
        inv = w / dist
        c = (inv[:, None] * pts).sum(axis=0) / inv.sum()
        val = float(np.sum(w * np.linalg.norm(pts - c, axis=1)))
        if prev - val < tol * max(val, 1e-300):
            break
        prev = val
    return c


@pytest.mark.parametrize("seed", range(8))
def test_opt_center_z1_matches_weiszfeld(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(5, 120)), int(rng.integers(2, 12))
    pts = rng.standard_t(2, (n, d))
    for w in (np.ones(n), rng.uniform(0.2, 3.0, n)):
        def cost(c):
            return float(w @ np.linalg.norm(pts - c, axis=1))
        assert cost(opt_center(pts, 1, w)) <= cost(ref_weiszfeld(pts, w)) * (1 + 1e-9)


@st.composite
def center_instances(draw):
    """(pts, w, z) with 1 <= z < 2: Gaussian or heavy-tailed rows, some of
    them repeated, sometimes a row on the weighted mean (the start of both
    iterations), weights with zeros but a positive total, d = 1 at z != 1."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    z = draw(st.one_of(st.just(1.0), st.floats(1.0, 2.0, exclude_max=True)))
    if d == 1 and z == 1.0:
        z = 1.5    # the weighted median, not an iteration, serves d = 1 at z = 1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.standard_t(2, (n, d)) if draw(st.booleans()) else rng.normal(size=(n, d))
    pts *= 10.0 ** draw(st.integers(-3, 3))
    reps = draw(st.integers(0, n - 1))
    pts[:reps] = pts[rng.integers(reps, n, size=reps)]
    w = rng.uniform(0.1, 3.0, n) if draw(st.booleans()) else np.ones(n)
    if draw(st.booleans()):
        w[rng.random(n) < 0.4] = 0.0
        w[rng.integers(n)] = 1.0
    if draw(st.booleans()):
        pts[0] = np.average(pts[1:], axis=0, weights=w[1:]) if w[1:].sum() > 0 else pts[1]
    return pts, w, z


_ON_THE_MEAN = np.array([[0.0, 0.0], [0.64891002, 0.00373531], [-0.31328873, 0.0068035],
                         [1.75697713, 1.20085402], [0.64891002, 0.00373531],
                         [0.11792766, 1.58860979]])
_ON_THE_MEAN[0] = _ON_THE_MEAN[1:].mean(axis=0)


@settings(max_examples=300, deadline=None)
@given(case=center_instances())
# z = 1, a row on the start: IRLS weighs it at the floor and stays there
@example(case=(_ON_THE_MEAN, np.ones(6), 1.0))
# z just above 1, collinear rows: the cost is nearly flat and IRLS crawls
@example(case=(np.array([[0.1257302210933933], [-0.1321048632913019],
                         [0.6404226504432821], [0.10490011715303971]]),
               np.ones(4), 1.0000870577667595))
def test_center_below_2_never_costs_more_than_descent(case):
    pts, w, z = case
    got, ref = opt_center(pts, z, w), ref_descent_center(pts, w, z)
    # Where all weighted rows lie within a few rounding errors of each other
    # (duplicates beside a row on their mean), the optimum falls between
    # representable centers: costs like 6e-24 against 0 are rounding noise,
    # and two centers that close are one answer.
    if np.max(np.abs(got - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(pts)):
        return

    def cost(c):
        return float(np.sum(w * np.linalg.norm(pts - c, axis=1) ** z))

    assert cost(got) <= cost(ref) * (1 + 1e-9)


# The descent against the loop references of the descents it replaced, and
# the incremental seeding against its loop reference.


def _center_cost(pts, w, c, z):
    return float(np.sum(w * np.linalg.norm(pts - c, axis=1) ** z))


@pytest.mark.parametrize("z", [1.3, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_descent_center_matches_loop_reference(z, seed, monkeypatch):
    # at k = 0 the descent is a center, stepping in a unit taken from the
    # data; the reference steps by step * g / max(|g|, 1), so the two agree
    # in cost, not in bits
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(40, 3)) * [1.0, 4.0, 0.5]
    w = rng.uniform(0.1, 3.0, 40)
    # a point sitting on the starting center (the mean of a symmetric set)
    sym = np.vstack([np.zeros(3), pts[:10], -pts[:10]])
    for p, pw in ((pts, w), (sym, np.ones(sym.shape[0]))):
        start = np.average(p, axis=0, weights=pw)
        c, basis, val, converged = _descent(p, pw, 0, z, start, np.empty((0, 3)), True)
        assert converged and basis.shape == (0, 3)
        assert val == pytest.approx(_center_cost(p, pw, c, z), rel=1e-12)
        assert val <= _center_cost(p, pw, ref_descent_center(p, pw, z), z) * (1 + 1e-9)
        if z > 2.0:
            npt.assert_array_equal(opt_center(p, z, pw), c)
    monkeypatch.setattr(solvers, "_DESCENT_STEPS", 3)
    assert not _descent(pts, w, 0, z, np.average(pts, axis=0, weights=w),
                        np.empty((0, 3)), True)[3]


@pytest.mark.parametrize("z", [1.3, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grassmann_descent_matches_loop_reference(z, seed, monkeypatch):
    # with its anchor fixed, the descent is the Grassmann descent it replaced:
    # given that loop's step cap and stop, the same bits
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(50, 5)) * [3.0, 2.0, 1.0, 0.5, 0.2]
    w = rng.uniform(0.1, 3.0, 50)
    basis = geometry._orthonormal_rows(rng.normal(size=(2, 5)))
    monkeypatch.setattr(solvers, "_DESCENT_TOL", 1e-8)
    for steps in (200, 60):
        monkeypatch.setattr(solvers, "_DESCENT_STEPS", steps)
        anchor, got_b, got_v, got_c = _descent(pts, w, 2, z, np.zeros(5), basis, False)
        want_b, want_v, want_c = ref_grassmann_descent(pts, w, basis, z, max_iter=steps)
        npt.assert_array_equal(anchor, np.zeros(5))
        npt.assert_array_equal(got_b, want_b)
        assert (got_v, got_c) == (want_v, want_c)


def test_descent_reports_running_out_of_steps(monkeypatch):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 5)) * [3.0, 2.0, 1.0, 0.5, 0.2] + 4.0
    w = rng.uniform(0.1, 3.0, 50)
    basis = geometry._orthonormal_rows(rng.normal(size=(2, 5)))
    for anchor, affine in ((np.zeros(5), False), (pts[0], True)):
        assert _descent(pts, w, 2, 3.0, anchor, basis, affine)[3]
        with monkeypatch.context() as m:
            m.setattr(solvers, "_DESCENT_STEPS", 3)
            assert not _descent(pts, w, 2, 3.0, anchor, basis, affine)[3]


@pytest.mark.parametrize("z", [1.3, 2.0, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dz_seed_matches_loop_reference(z, seed):
    # the draws read distances expanded about the data, the reference's are
    # norms of differences: the weights differ in the last bits, which moves
    # a draw only if its uniform falls within rounding of a cumulative weight
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(60, 4))
    pts[:5] = pts[5]
    w = rng.uniform(0.1, 3.0, 60)
    same = np.tile(pts[:1], (7, 1))      # every draw falls to the tot <= 0 branch
    # rows long enough for the row sums to be pairwise, and zero weights
    wide = rng.normal(size=(50, 64 + 29 * seed)) * rng.uniform(0.1, 10.0, 50)[:, None]
    wide_w = rng.uniform(0.0, 3.0, 50)
    wide_w[::3] = 0.0
    zero_w = w.copy()
    zero_w[::2] = 0.0
    for p, pw, k in ((pts, w, 1), (pts, w, 5), (pts, np.ones(60), 8), (same, np.ones(7), 4),
                     (pts, zero_w, 6), (wide, wide_w, 7), (wide, np.ones(50), 5),
                     (pts + 1e8, w, 5), (same + 1e8, np.ones(7), 4)):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        xc, xsq, _ = geometry._centered(p)
        npt.assert_array_equal(p[_dz_seed(xc, xsq, pw, k, z, got_rng)],
                               ref_dz_seed(p, pw, k, z, want_rng))
        assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)


class _RecordingRng:
    """A generator that records the weights of every ``choice``."""

    def __init__(self, seed):
        self.rng, self.weights = np.random.default_rng(seed), []

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def choice(self, n, p):
        self.weights.append(p.copy())
        return self.rng.choice(n, p=p)


@pytest.mark.parametrize("z", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("shift", [0.0, 1e8])
def test_dz_seed_scores_rows_on_a_center_zero(z, shift):
    # the product with the newest center and the squared norms come from one
    # kernel, so a row equal to a center scores exactly 0, however far out
    rng = np.random.default_rng(31)
    pool = rng.normal(size=(6, 7)) * rng.uniform(0.1, 10.0, 6)[:, None] + shift
    pts = pool[rng.integers(6, size=80)]
    for k in (3, 6):
        rec = _RecordingRng(5)
        xc, xsq, _ = geometry._centered(pts)
        idx = _dz_seed(xc, xsq, rng.uniform(0.5, 2.0, 80), k, z, rec)
        assert len(rec.weights) == k - 1
        for j, p in enumerate(rec.weights):
            on = np.any(np.all(pts[:, None, :] == pts[idx[:j + 1]][None], axis=2), axis=1)
            assert np.all(p[on] == 0.0) and np.all(p[~on] > 0.0)


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


# Tolerances on |cost_pow - cost_pow of the positive rows alone|, as shares
# of the rows' weighted spread sum w |x - mean|^z, set before running.  At
# z = 2 both solves score the same blocks and differ only in where exact
# zero terms fall in each sum, a few n eps; at z = 1 Weiszfeld's iteration
# stops within _IRLS_TOL = 1e-14 of the cost per round, from starts that
# may differ in their last bits, so its margin is wider.
@pytest.mark.parametrize("problem, z, tol, max_n", [
    ("clustering", 2.0, 1e-12, 10), ("clustering", 1.0, 1e-9, 7), ("lines", 2.0, 1e-12, 10)])
def test_exact_solves_take_rows_of_weight_zero(problem, z, tol, max_n):
    # A block whose rows all weigh 0 has no weighted mean.  Such rows cost 0
    # wherever the shape is, so the optimum is that of the positive rows alone.
    rng = np.random.default_rng(31)
    cases = [(rng.normal(size=(6, 2)), np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0]), 2)]
    for _ in range(25):
        n = int(rng.integers(3, max_n + 1))
        w = rng.uniform(0.1, 3.0, n)
        w[rng.random(n) < 0.4] = 0.0
        w[rng.integers(n)] = 1.0
        if problem == "lines" and n >= 6:
            w[:3] = 0.0         # enough to fill a block of their own
            w[-1] = 1.0
        cases.append((rng.normal(size=(n, int(rng.integers(1, 4)))), w, int(rng.integers(1, 4))))
    for pts, w, k in cases:
        got = solve(problem, WeightedSet(pts, w), k, z, method="exact")
        keep = w > 0
        want = solve(problem, WeightedSet(pts[keep], w[keep]), k, z, method="exact")
        spread = float(w @ np.linalg.norm(pts - np.average(pts, axis=0, weights=w), axis=1) ** z)
        assert got.method == "partition-enumeration"
        assert abs(got.cost_pow - want.cost_pow) <= tol * spread


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


def _outcome(solve_fn):
    """The solve's report, or the type and message of its ValueError."""
    try:
        return solve_fn()
    except ValueError as e:
        return type(e), str(e)


def _same_lines(a, b):
    for x, y in zip(a.lines, b.lines, strict=True):
        npt.assert_array_equal(x.anchor, y.anchor)
        npt.assert_array_equal(x.direction, y.direction)


@st.composite
def exact_instances(draw):
    """(data, k): 1-8 points, some repeated, sometimes weighted, with k
    from 1 to past n / 2 and n."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.normal(size=(n, d))
    reps = draw(st.integers(0, n - 1))
    pts[:reps] = pts[rng.integers(reps, n, size=reps)]
    if draw(st.booleans()):
        data = WeightedSet(pts, rng.uniform(0.1, 3.0, n))
    else:
        data = Dataset(pts)
    return data, draw(st.integers(1, n + 1))


@pytest.mark.parametrize("z", [1.0, 2.0, 3.0])
@settings(max_examples=40, deadline=None)
@given(case=exact_instances())
def test_exact_clustering_matches_separate_enumerator(z, case):
    data, k = case
    got = solve("clustering", data, k, z, method="exact")
    want = ref_clustering_exact(data, k, z)
    assert (got.method, got.restarts, got.converged) == \
        (want.method, want.restarts, want.converged)
    if z != 2.0:
        npt.assert_array_equal(got.solution.centers, want.solution.centers)
        assert got.cost_pow == want.cost_pow
        return
    # The oracle scores z = 2 blocks by the closed form
    # sum w|x|^2 - |sum wx|^2 / sum w, whose rounding reaches about
    # n * eps * sum w|x|^2, so where two partitions tie within that the
    # enumerators may pick either.
    pts = geometry._points_of(data)
    w = data.weights if isinstance(data, WeightedSet) else np.ones(pts.shape[0])
    slack = pts.shape[0] * np.finfo(float).eps * float(w @ np.sum(pts * pts, axis=1))
    assert abs(got.cost_pow - want.cost_pow) <= slack


@pytest.mark.parametrize("z", [1.0, 2.0, 3.0])
def test_exact_clustering_far_from_the_origin(z):
    # Far out, a closed-form block cost cancels to noise and picks a wrong
    # partition; scoring each block against its fitted center does not.
    for seed in range(5):
        x = np.random.default_rng(seed).normal(size=(8, 2))
        near = solve("clustering", x, 3, z, method="exact").solution.centers
        far = solve("clustering", x + 1e8, 3, z, method="exact").solution.centers
        npt.assert_allclose(far - 1e8, near, rtol=0, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(case=exact_instances())
def test_exact_lines_matches_separate_enumerator(case):
    data, k = case
    got = solve("lines", data, k, 2, method="exact")
    want = ref_lines_exact(data, k, 2)
    _same_lines(got.solution, want.solution)
    assert (got.cost_pow, got.method, got.restarts, got.converged) == \
        (want.cost_pow, want.method, want.restarts, want.converged)


def test_exact_refusals_match_separate_enumerators():
    rng = np.random.default_rng(11)
    for problem, ref, n, z in (("clustering", ref_clustering_exact, 15, 2.0),
                               ("lines", ref_lines_exact, 13, 2.0),
                               ("lines", ref_lines_exact, 13, 1.0),
                               ("lines", ref_lines_exact, 4, 1.5)):
        data = Dataset(rng.normal(size=(n, 2)))
        got = _outcome(lambda: solve(problem, data, 2, z, method="exact"))
        assert isinstance(got, tuple)
        assert got == _outcome(lambda: ref(data, 2, z))


@st.composite
def lloyd_instances(draw):
    """(data, k, restarts, seed): rows drawn from a pool of distinct ones, so
    that pools smaller than k leave groups empty, a few of them far out, so
    that they end up alone in their groups, sometimes with weights, some of
    them zero."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 5))
    pool = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(pool, d)) * rng.uniform(0.1, 10.0)
    rows[:draw(st.integers(0, 3))] *= 100.0
    pts = rows[rng.integers(pool, size=n)]
    weighting = draw(st.sampled_from(["none", "positive", "zeros"]))
    if weighting == "none":
        data = Dataset(pts)
    else:
        w = rng.uniform(0.1, 3.0, n)
        if weighting == "zeros":
            w[rng.random(n) < 0.4] = 0.0
            w[rng.integers(n)] = 1.0
        data = WeightedSet(pts, w)
    return data, draw(st.integers(1, 6)), draw(st.integers(1, 6)), seed


def _parts(labels):
    """``labels`` renumbered by first appearance: two labelings of one
    partition of the rows give the same array."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _lloyd_tolerances(data, centers, z):
    """(entrywise center tolerance, cost_pow tolerance) between a Lloyd
    solve and :func:`ref_lloyd` that ended on the same partition.

    With u = 2^-53, R the largest entry of the rows and centers, n rows in
    R^d: the reference's z = 2 center, np.average, is off the exact weighted
    mean by at most (n + 1) u R an entry; the solver's sums n weighted
    centered rows, each off by u |x - m| <= 2 u R, by one product, divides
    by the mass and adds m back, at most (2n + 8) u R.  So the two agree to
    (3n + 9) u R <= (3n + 12) u R.  Both costs are cost_pow's, whose
    distance from a row to the center serving it is the norm of the residual,
    off by at most (d + 2) u |x - c| <= (d + 2) u 2 sqrt(d) R.  So each
    distance moves by at most delta = sqrt(d) * (center tolerance)
    + 4 (d + 2) sqrt(d) u R, and the costs by
    sum_i w_i ((r_i + delta)^z - max(r_i - delta, 0)^z), r the reference's
    distances."""
    u = 2.0 ** -53
    pts = geometry._points_of(data)
    n, d = pts.shape
    big = max(float(np.max(np.abs(pts))), float(np.max(np.abs(centers))))
    tol_c = (3 * n + 12) * u * big
    delta = np.sqrt(d) * (tol_c + 4 * (d + 2) * u * big)
    r = geometry.distances("clustering", data, CenterSet(centers))
    w = data.weights if isinstance(data, WeightedSet) else np.ones(n)
    return tol_c, float(np.sum(w * ((r + delta) ** z - np.maximum(r - delta, 0.0) ** z)))


@pytest.mark.parametrize("z", [1.0, 1.5, 2.0, 3.0])
@settings(max_examples=50, deadline=None)
@given(case=lloyd_instances())
def test_lloyd_matches_per_group_reference(z, case):
    # The solver expands distances about the data and refits every group at
    # z = 2 by one product; the reference expands about the origin and takes
    # a mask and np.average per group.  So the partition of the rows and
    # ``converged`` agree exactly, and the center serving each part and the
    # costs within _lloyd_tolerances, fixed from the arithmetic.  Where rows
    # sit on two centers to within rounding (repeated rows, k at least the
    # distinct rows), rounding picks which center serves them, so the
    # partition is compared as a set of parts, and a center serving no row
    # is not compared.
    data, k, restarts, seed = case
    got = solve("clustering", data, k, z, restarts=restarts, seed=seed, method="heuristic")
    sol, cp, converged = ref_lloyd(data, k, z, restarts, seed)
    labels = geometry.assignment("clustering", data, got.solution)
    want = geometry.assignment("clustering", data, sol)
    npt.assert_array_equal(_parts(labels), _parts(want))
    assert got.converged == converged
    tol_c, tol_cost = _lloyd_tolerances(data, sol.centers, z)
    npt.assert_allclose(got.solution.centers[labels], sol.centers[want], rtol=0, atol=tol_c)
    assert abs(got.cost_pow - cp) <= tol_cost


@settings(max_examples=50, deadline=None)
@given(case=lloyd_instances())
def test_lines_heuristic_matches_per_group_reference(case):
    data, k, restarts, seed = case
    got = solve("lines", data, k, 2, restarts=restarts, seed=seed, method="heuristic")
    sol, cp, converged = ref_lines_alternating(data, k, 2, restarts, seed)
    _same_lines(got.solution, sol)
    assert got.cost_pow == cp
    assert got.converged == converged


@pytest.mark.parametrize("z", [1.5, 2.0])
def test_zero_weight_groups_keep_their_shape(z):
    # Rows of weight 0 get no seeding mass, but the first center is drawn
    # uniformly and revival takes the farthest row whatever its weight, so a
    # group can hold only such rows; it has no weighted mean or line.
    rng = np.random.default_rng(12)
    for _ in range(100):
        n, d = int(rng.integers(2, 31)), int(rng.integers(1, 6))
        w = rng.uniform(0.1, 3.0, n)
        w[rng.random(n) < 0.4] = 0.0
        w[rng.integers(n)] = 1.0
        data = WeightedSet(rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0), w)
        k, restarts, seed = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(99))
        problems = ("clustering", "lines") if z == 2.0 else ("clustering",)
        for problem in problems:
            rep = solve(problem, data, k, z, restarts=restarts, seed=seed, method="heuristic")
            assert np.isfinite(rep.cost_pow)


def test_lloyd_lone_row_is_its_own_center():
    # (100.3 * 1.3) / 1.3 != 100.3: a weighted mean of one row can miss it
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [100.3, 100.7]])
    data = WeightedSet(pts, [1.0, 2.0, 0.5, 1.3])
    rep = solve("clustering", data, 2, 2, restarts=3, method="heuristic")
    assert rep.converged
    assert any(np.array_equal(c, pts[3]) for c in rep.solution.centers)


def test_lloyd_memory_stays_near_one_copy_of_the_points():
    # one (n, d) copy at a time: the search's centered copy, freed before
    # the report takes its own; the rest is (n, k) distances and the (k, n)
    # refit weights, k / d = 0.05 of a copy each, with a few alive at once.
    # Restarts run one after another, so a block of restarts * k distances
    # per point would show here, as would the report beside the search's copy
    n, d = 2000, 100
    x = np.random.default_rng(26).normal(size=(n, d))
    tracemalloc.start()
    try:
        solve("clustering", x, 5, 2, restarts=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * d * 8


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


def test_subspace_z2_memory_is_linear_in_n():
    x = np.random.default_rng(24).normal(size=(3000, 5))
    tracemalloc.start()
    try:
        solve("subspace", x, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20          # an (n, n) left singular factor is 72 MB


def test_subspace_z2_with_fewer_points_than_dimensions():
    pts = np.random.default_rng(25).normal(size=(2, 5))
    rep = solve("subspace", Dataset(pts), 3, 2)
    assert rep.solution.dim == 3
    assert rep.cost_pow == pytest.approx(0.0, abs=1e-12)


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
    # at z = 40 the descent's weights at the residual floor underflow to 0
    assert solve("flat", Dataset(pts), 2, 40).cost_pow == pytest.approx(0.0, abs=1e-8)


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


@pytest.mark.parametrize("problem", ["subspace", "flat"])
def test_irls_reports_round_cap(problem, monkeypatch):
    x = Dataset(np.random.default_rng(12).standard_t(2, size=(30, 5)))
    rep = solve(problem, x, 2, 1)
    assert rep.converged and rep.method == "span-search+irls"
    monkeypatch.setattr(solvers, "_IRLS_ROUNDS", 1)
    assert not solve(problem, x, 2, 1).converged


@pytest.mark.parametrize("problem", ["subspace", "flat"])
def test_descent_reports_round_cap(problem, monkeypatch):
    # at z = 3 and seed 12 the flat alternation that descent replaced was
    # still improving after its 10 rounds
    x = Dataset(np.random.default_rng(12).standard_t(2, size=(30, 5)))
    rep = solve(problem, x, 2, 3)
    assert rep.converged and rep.method == "span-search+descent"
    monkeypatch.setattr(solvers, "_DESCENT_STEPS", 1)
    assert not solve(problem, x, 2, 3).converged


@pytest.mark.parametrize("problem", ["subspace", "flat"])
@pytest.mark.parametrize("z", [1.0, 1.5, 3.0, 4.0])
def test_irls_polish_is_a_local_minimum(problem, z):
    # Nelder-Mead about the solution, over the line's direction and (for a
    # flat) its translation, finds no cheaper line nearby; above z = 2 the
    # polish is descent, which stops at a relative gain of 1e-10 per step
    for seed in range(3):
        x = np.random.default_rng(seed).standard_t(3, (40, 3)) * [3.0, 1.0, 0.3]
        rep = solve(problem, x, 1, z)
        if problem == "flat":
            u, t = rep.solution.direction.basis[0], rep.solution.translation
        else:
            u, t = rep.solution.basis[0], np.zeros(3)

        def cost(p):
            d = (u + p[:3]) / np.linalg.norm(u + p[:3])
            c = x - t - (p[3:] if problem == "flat" else 0.0)
            return float(np.sum(np.linalg.norm(c - np.outer(c @ d, d), axis=1) ** z))

        best = minimize(cost, np.zeros(6 if problem == "flat" else 3), method="Nelder-Mead",
                        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20_000}).fun
        assert best >= rep.cost_pow * (1 - (1e-9 if z < 2.0 else 1e-6))


def test_subspace_cost_has_no_cancellation():
    # |x|^2 - |Bx|^2 read 4.0e-7 here, where the distances sum to 2.4e-14
    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.normal(size=(6, 2)))[0].T
    pts = rng.normal(0, 3, (40, 2)) @ basis
    want = geometry.cost_pow("subspace", pts, Subspace(basis), 1)
    assert _subspace_cost(pts, np.ones(40), basis, 1) == pytest.approx(want, abs=1e-12)
    assert _irls(pts, np.ones(40), 2, 1.0, np.zeros(6), basis, False)[2] == pytest.approx(
        want, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["subspace", "flat"]),
       st.sampled_from([1.0, 1.3, 1.5]), st.integers(10, 40), st.integers(3, 6))
def test_irls_beats_z2_solution_and_never_rises(seed, problem, z, n, d):
    rng = np.random.default_rng(seed)
    x = Dataset(rng.standard_t(2, (n, d)) * rng.uniform(0.1, 5.0, d))
    k = int(rng.integers(1, d))
    z2 = solve(problem, x, k, 2).solution
    assert solve(problem, x, k, z).cost_pow <= (
        geometry.cost_pow(problem, x, z2, z) * (1 + 1e-12))
    # the loop's cost after each round: capping the rounds replays a prefix
    anchor = z2.translation if problem == "flat" else np.zeros(d)
    basis = z2.direction.basis if problem == "flat" else z2.basis
    costs = []
    for rounds in range(1, 25):
        with mock.patch.object(solvers, "_IRLS_ROUNDS", rounds):
            a, b, val, _ = _irls(x.points, np.ones(n), k, z, anchor, basis, problem == "flat")
        sol = Flat.from_point(Subspace(b), a) if problem == "flat" else Subspace(b)
        assert val == pytest.approx(geometry.cost_pow(problem, x, sol, z), rel=1e-12, abs=1e-12)
        costs.append(val)
    assert all(b <= a for a, b in zip(costs, costs[1:]))


def frame_bytes(solution):
    if isinstance(solution, Flat):
        return solution.direction.basis.tobytes() + solution.translation.tobytes()
    return solution.basis.tobytes()


@pytest.mark.parametrize("problem", ["subspace", "flat"])
@pytest.mark.parametrize("z", [1.0, 3.0])
def test_subspace_and_flat_starts_follow_seed_and_restarts(problem, z):
    x = Dataset(np.random.default_rng(31).standard_t(2, size=(30, 5)))
    a = solve(problem, x, 2, z, restarts=6, seed=4)
    b = solve(problem, x, 2, z, restarts=6, seed=4)
    assert a.restarts == b.restarts == 6
    assert frame_bytes(a.solution) == frame_bytes(b.solution)
    assert a.cost_pow == b.cost_pow
    # restarts=1 keeps only start 0, the z = 2 solution, so no seed is drawn
    alone = [frame_bytes(solve(problem, x, 2, z, restarts=1, seed=s).solution)
             for s in (0, 7, 123)]
    assert alone[0] == alone[1] == alone[2]
    assert solve(problem, x, 2, z, restarts=1, seed=7).restarts == 1


@pytest.mark.parametrize("problem", ["subspace", "flat"])
def test_subspace_and_flat_z2_ignore_seed_and_restarts(problem):
    x = Dataset(np.random.default_rng(32).standard_t(2, size=(30, 5)))
    got = {frame_bytes(solve(problem, x, 2, 2, restarts=r, seed=s).solution)
           for r, s in ((1, 0), (20, 0), (20, 9), (3, 41))}
    assert len(got) == 1
    assert solve(problem, x, 2, 2, restarts=7).restarts == 0


@st.composite
def frame_instances(draw):
    """(data, k, restarts, seed): Gaussian or heavy-tailed rows at any
    scale, some of them repeated, sometimes weighted with zeros among the
    weights, n from below k to 30 and k from 1 to d - 1."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    pts = rng.standard_t(2, (n, d)) if draw(st.booleans()) else rng.normal(size=(n, d))
    pts = pts * 10.0 ** draw(st.integers(-3, 3)) + draw(st.sampled_from([0.0, 5.0]))
    reps = draw(st.integers(0, n - 1))
    pts[:reps] = pts[rng.integers(reps, n, size=reps)]
    if draw(st.booleans()):
        w = rng.uniform(0.1, 3.0, n)
        if draw(st.booleans()):
            w[rng.random(n) < 0.4] = 0.0
            w[rng.integers(n)] = 1.0
        data = WeightedSet(pts, w)
    else:
        data = Dataset(pts)
    return data, draw(st.integers(1, d - 1)), draw(st.integers(1, 6)), seed


@settings(max_examples=60, deadline=None)
@given(case=frame_instances(), z=st.sampled_from([1.0, 1.3, 1.5, 2.0]))
def test_frame_matches_the_two_bodies(case, z):
    # one body for both problems: every flat solve at z <= 2 and every
    # subspace solve at z = 2 is bit for bit that of the separate bodies;
    # below 2 a subspace keeps the IRLS basis, which they re-orthonormalised
    # by an SVD
    data, k, restarts, seed = case
    for problem, ref in (("flat", ref_flat), ("subspace", ref_subspace)):
        got = solve(problem, data, k, z, restarts=restarts, seed=seed)
        want = ref(data, k, z, restarts, seed)
        assert (got.method, got.restarts, got.converged) == \
            (want.method, want.restarts, want.converged)
        if problem == "flat" or z == 2.0:
            assert frame_bytes(got.solution) == frame_bytes(want.solution)
            assert got.cost_pow == want.cost_pow
        else:
            # the same cost up to rounding, on the scale of the cost of the
            # zero subspace; restarts that tie up to rounding may swap places
            norms = np.linalg.norm(data.points, axis=1) ** z
            scale = float(np.sum(norms * getattr(data, "weights", 1.0)))
            assert got.cost_pow == pytest.approx(want.cost_pow, rel=1e-12, abs=1e-14 * scale)


@pytest.mark.parametrize("problem", ["subspace", "flat"])
@pytest.mark.parametrize("z", [3.0, 4.0])
def test_descent_costs_no_more_than_the_descents_it_replaced(problem, z):
    ref = ref_flat if problem == "flat" else ref_subspace
    for i in range(3):
        x = Dataset(np.random.default_rng(i).standard_t(2, (60, 6)))
        assert solve(problem, x, 2, z).cost_pow <= ref(x, 2, z, 20, 0).cost_pow * (1 + 1e-5)


# ---------------------------------------------------------------------------
# Lines


def svd_line(pts, w):
    """The weighted least-squares line along the top right singular vector of
    the sqrt-weighted centered group."""
    c = np.average(pts, axis=0, weights=w)
    _, _, vt = np.linalg.svd((pts - c) * np.sqrt(w)[:, None], full_matrices=False)
    return Line.canonical(c, vt[0])


@pytest.mark.parametrize("seed", [26, 27, 28])
def test_fit_line_matches_svd_direction(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        n, d = int(rng.integers(3, 300)), int(rng.integers(2, 25))
        ln = Line.through(rng.normal(size=d), rng.normal(size=d))
        pts = (ln.anchor + np.multiply.outer(rng.normal(0, 3, n), ln.direction)
               + rng.normal(0, 0.1, (n, d)))
        w = rng.uniform(0.1, 5.0, n)
        got, want = _fit_line(pts, w, _default_dir(d)), svd_line(pts, w)
        npt.assert_allclose(got.direction, want.direction, rtol=0, atol=1e-12)
        npt.assert_allclose(got.anchor, want.anchor, rtol=0, atol=1e-12)


def test_fit_line_through_collinear_group():
    rng = np.random.default_rng(29)
    ln = Line.through(rng.normal(size=4), rng.normal(size=4))
    pts = ln.anchor + np.multiply.outer(rng.normal(0, 3, 40), ln.direction)
    fit = _fit_line(pts, rng.uniform(0.1, 5.0, 40), _default_dir(4))
    assert np.max(np.linalg.norm(pts - geometry.project_line(pts, fit), axis=1)) <= 1e-12


def test_fit_line_of_identical_points_takes_fallback():
    pts = np.tile([1.5, -2.0, 3.0], (4, 1))
    fallback = np.array([0.0, -0.6, 0.8])
    got = _fit_line(pts, np.array([1.0, 2.0, 3.0, 2.0]), fallback)
    assert got == Line.canonical(pts[0], fallback)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 6),
       w=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=2), given_dir=st.booleans())
def test_fit_line_of_one_or_two_rows_is_the_line_through_them(seed, d, w, given_dir):
    rng = np.random.default_rng(seed)
    p, q = rng.normal(size=(2, d)) * rng.uniform(1e-3, 1e3)
    w = np.array(w)
    fallback = rng.normal(size=d) if given_dir else None
    along = Line.canonical(p, fallback if given_dir else np.eye(1, d)[0])
    got, want = _fit_line(np.vstack([p, q]), w, fallback), Line.through(p, q)
    assert got.anchor.tobytes() == want.anchor.tobytes()
    assert got.direction.tobytes() == want.direction.tobytes()
    assert _fit_line(np.vstack([p, p]), w, fallback) == along
    assert _fit_line(p[None], w[:1], fallback) == along


@pytest.mark.parametrize("pair_w", [(2.0, 0.5), (1.0, 0.0)])
def test_lines_refit_of_two_rows_passes_through_both(pair_w):
    # ten rows on the x-axis and a pair far above it that forms its own group
    pts = np.vstack([np.c_[np.arange(10.0), np.zeros(10)], [[0.0, 50.0], [3.0, 60.0]]])
    w = np.r_[np.ones(10), pair_w]
    pair = pts[10:]
    refits = []

    def spy(gp, gw, fallback_dir=None):
        if np.array_equal(gp, pair) and np.array_equal(gw, pair_w):
            refits.append(gp.copy())
        return _fit_line(gp, gw, fallback_dir)

    with mock.patch.object(solvers, "_fit_line", spy):
        rep = solve("lines", WeightedSet(pts, w), 2, 2, restarts=5, method="heuristic")
    assert refits and rep.converged
    res = [np.linalg.norm(pair - geometry.project_line(pair, ln), axis=1)
           for ln in rep.solution.lines]
    assert any(np.all(r <= 1e-12 * np.linalg.norm(pair, axis=1)) for r in res)


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
        # an integral float or a numpy int gives the report of the int
        want = solve(problem, x, 2, 2, method=method, restarts=3, seed=1)
        for k, restarts, seed in ((2.0, 3.0, 1.0), (np.int64(2), np.int32(3), np.int64(1))):
            got = solve(problem, x, k, 2, method=method, restarts=restarts, seed=seed)
            assert (repr(got), got.cost_pow) == (repr(want), want.cost_pow)


@st.composite
def translate_instances(draw):
    """(pts, k, shift): 8-30 rows of R^1 to R^4 on the grid of multiples of
    2^-6, within 2 of k grid centers of size at most 8, and a shift of size
    2^j, j <= 30.  Every row then has at most 40 significant bits, so
    pts + shift is an exact translate of pts."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, d, k = draw(st.integers(8, 30)), draw(st.integers(1, 4)), draw(st.integers(2, 3))
    centers = rng.integers(-32, 33, size=(k, d)) / 4.0
    pts = centers[rng.integers(k, size=n)] + rng.integers(-128, 129, size=(n, d)) / 64.0
    return pts, k, draw(st.sampled_from([1.0, -1.0])) * 2.0 ** draw(st.integers(0, 30))


@pytest.mark.parametrize("method", ["heuristic", "exact"])
@pytest.mark.parametrize("z", [1.0, 1.5, 2.0, 3.0])
@settings(max_examples=8, deadline=None)
@given(case=translate_instances())
def test_clustering_cost_holds_under_exact_translation(method, z, case):
    # Center distances are expanded about the data, not the origin, so far
    # from the origin the reported cost stays within 1e-12 relative of the
    # direct sum of its distances, and at z = 2 (centers in closed form)
    # within 1e-12 of the untranslated solve's.  About the origin a squared
    # distance carries rounding of about u |x|^2: at a shift of 2^30, 2^-53
    # * 2^60 = 128 against distances of about 1.  At z != 2 the solves
    # themselves differ: their iterative centers run on the translated rows.
    pts, k, shift = case
    if method == "exact":
        pts = pts[:8]
    moved = pts + shift
    got = solve("clustering", moved, k, z, restarts=4, seed=2, method=method)
    c = got.solution.centers
    direct = np.sum(np.min(np.linalg.norm(moved[:, None, :] - c[None], axis=2), axis=1) ** z)
    assert got.cost_pow == pytest.approx(direct, rel=1e-12, abs=0.0)
    if z == 2.0:
        want = solve("clustering", pts, k, z, restarts=4, seed=2, method=method)
        assert want.cost_pow > 0.0
        assert got.cost_pow == pytest.approx(want.cost_pow, rel=1e-12, abs=0.0)


def _scaled_parts(sol):
    """(array, whether it scales with the data) for each part of a solution."""
    if isinstance(sol, CenterSet):
        return [(sol.centers, True)]
    if isinstance(sol, Subspace):
        return [(sol.basis, False)]
    if isinstance(sol, Flat):
        return [(sol.translation, True), (sol.direction.basis, False)]
    return [(np.array([ln.anchor for ln in sol.lines]), True),
            (np.array([ln.direction for ln in sol.lines]), False)]


@st.composite
def scale_instances(draw):
    """(data, k, e): 8-40 Gaussian or Student-t(3) rows in R^2 to R^4,
    sometimes weighted, and a power-of-two exponent e that is a multiple of 8."""
    n = draw(st.integers(8, 40))
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.standard_t(3, (n, d)) if draw(st.booleans()) else rng.normal(size=(n, d))
    data = WeightedSet(pts, rng.uniform(0.1, 3.0, n)) if draw(st.booleans()) else pts
    return data, draw(st.integers(1, d - 1)), 8 * draw(st.sampled_from([-6, -5, -1, 1, 3, 5]))


@pytest.mark.parametrize("problem", geometry.PROBLEMS)
@pytest.mark.parametrize("z", [1.0, 1.25, 1.5, 2.0, 3.0, 4.0])
@settings(max_examples=6, deadline=None)
@given(case=scale_instances())
def test_solve_commutes_with_scaling_by_powers_of_two(problem, z, case):
    # Scaling by 2^e is exact in floating point, and no solver length is
    # absolute, so the solve of the scaled data is the scaled solve.  With e
    # a multiple of 8, e * z and e * (z - 2) are integers at every z here,
    # so the IRLS weights and the cost scale by powers of two as well.  At
    # z = 1.25 and 1.5 the weights are a non-integer power r^(z - 2), which
    # libm's pow does not round correctly: r and 2^e r can come out one ulp
    # apart relative to each other, so there the solution may move by
    # rounding, and the cost by 1e-12.  A part that scales with the data may
    # move by 1e-9 of the scaled data's size, which its rounding follows: a
    # flat's translation, its point nearest the origin, can be far shorter
    # than the data.  A unit part may move by 1e-9 of its size.
    data, k, e = case
    s = 2.0 ** e
    scaled = (WeightedSet(data.points * s, data.weights) if isinstance(data, WeightedSet)
              else data * s)
    size = float(np.max(np.abs(geometry._points_of(scaled))))
    want = solve(problem, data, k, z, restarts=3, seed=1, method="heuristic")
    got = solve(problem, scaled, k, z, restarts=3, seed=1, method="heuristic")
    exact = z in (1.0, 2.0, 3.0, 4.0)
    for (a, grows), (b, _) in zip(_scaled_parts(want.solution), _scaled_parts(got.solution),
                                  strict=True):
        a = a * s if grows else a
        if exact:
            npt.assert_array_equal(b, a)
        else:
            npt.assert_allclose(b, a, rtol=0,
                                atol=1e-9 * (size if grows else float(np.max(np.abs(a)))))
    cost = want.cost_pow * 2.0 ** (e * z)
    if exact:
        assert got.cost_pow == cost
    else:
        assert got.cost_pow == pytest.approx(cost, rel=1e-12)
    assert got.converged == want.converged
