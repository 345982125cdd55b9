import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from projclust import geometry
from projclust.geometry import Dataset, CenterSet, Subspace, Flat, Line, LineSet
from projclust.jl import sample_jl, identity_map
from projclust.coreset import _coreset_1d
from projclust.sensitivity import (
    PEEL_CONSTANT, SensitivityProfile, _profile,
    clustering_sensitivity, subspace_sensitivity, flat_sensitivity,
    line_sensitivity, sup_ratio, sup_ratios,
    event_e4_statistic, event_e4_bound,
)


def total_identity(z, k_nonempty):
    return 2.0 ** (z - 1) + 2.0 ** (2 * z - 1) * k_nonempty


# ---------------------------------------------------------------------------
# Profile basics


def test_profile_validation():
    with pytest.raises(ValueError):
        SensitivityProfile([])
    with pytest.raises(ValueError):
        SensitivityProfile([1.0, -0.1])
    with pytest.raises(ValueError):
        SensitivityProfile([0.0, 0.0])
    p = SensitivityProfile([1.0, 3.0])
    assert p.total == 4.0
    npt.assert_allclose(p.distribution, [0.25, 0.75])
    assert abs(p.distribution.sum() - 1.0) <= 1e-12


def test_profile_csv(tmp_path):
    p = SensitivityProfile([0.5, 1.5, 2.0])
    path = tmp_path / "prof.csv"
    p.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "index,sigma,sigma_tilde"
    assert len(lines) == 4
    idx, sig, til = lines[2].split(",")
    assert idx == "1" and float(sig) == 1.5 and float(til) == 0.375


# ---------------------------------------------------------------------------
# Clustering


def test_clustering_total_is_five_for_z1_k2():
    x = Dataset([[0.0], [1.0], [4.0], [5.0]])
    c = CenterSet([[0.5], [4.5]])
    prof = clustering_sensitivity(x, c, 1)
    assert prof.total == pytest.approx(5.0, abs=1e-12)


def test_clustering_zero_cost_identical_points():
    x = Dataset([[2.0, 3.0], [2.0, 3.0]])
    c = CenterSet([[2.0, 3.0]])
    prof = clustering_sensitivity(x, c, 2)
    npt.assert_allclose(prof.sigma, [4.0, 4.0], atol=1e-12)
    assert prof.total == pytest.approx(8.0)


@pytest.mark.parametrize("z", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_clustering_total_identity_random(z, seed):
    rng = np.random.default_rng(seed)
    n, d, k = rng.integers(5, 40), rng.integers(1, 6), rng.integers(1, 5)
    x = Dataset(rng.normal(0, 3, (n, d)))
    c = CenterSet(rng.normal(0, 3, (k, d)))
    assign = geometry.assignment("clustering", x, c)
    k_nonempty = len(np.unique(assign))
    prof = clustering_sensitivity(x, c, z)
    assert prof.total == pytest.approx(total_identity(z, k_nonempty), abs=1e-9)


def test_clustering_empty_center_dropped():
    x = Dataset([[0.0], [0.1], [10.0], [10.1]])
    c = CenterSet([[0.05], [10.05], [100.0]])   # third center attracts nothing
    prof = clustering_sensitivity(x, c, 2)
    assert prof.total == pytest.approx(total_identity(2, 2), abs=1e-12)


def test_clustering_dominates_ratio_at_optimum():
    # reference = the exact 1-mean optimum (the centroid); the score must
    # dominate the cost share of every point under every candidate center
    rng = np.random.default_rng(5)
    x = Dataset(rng.normal(0, 2, (15, 3)))
    centroid = CenterSet(x.points.mean(axis=0, keepdims=True))
    prof = clustering_sensitivity(x, centroid, 2)
    for _ in range(300):
        cand = CenterSet(rng.normal(0, 4, (1, 3)))
        denom = geometry.cost_pow("clustering", x, cand, 2)
        share = geometry.distances("clustering", x, cand) ** 2 / denom
        assert np.all(prof.sigma >= share - 1e-12)


# ---------------------------------------------------------------------------
# Supremum ratios


def test_sup_ratio_orthonormal_rows():
    y = np.eye(3)[:2]
    for z in (1, 2):
        npt.assert_allclose(sup_ratios(y, z), [1.0, 1.0], atol=1e-9)


def test_sup_ratio_identical_copies():
    y = np.tile([[2.0, 1.0]], (4, 1))
    npt.assert_allclose(sup_ratios(y, 2), np.full(4, 0.25), atol=1e-12)
    npt.assert_allclose(sup_ratios(y, 1), np.full(4, 0.25), atol=1e-12)


def test_sup_ratio_three_point_leverage():
    y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    npt.assert_allclose(sup_ratios(y, 2), [2.0 / 3] * 3, atol=1e-12)


def test_sup_ratio_leverage_sum_is_rank():
    rng = np.random.default_rng(8)
    y = rng.normal(size=(10, 4))
    assert sup_ratios(y, 2).sum() == pytest.approx(4.0, abs=1e-9)
    y2 = rng.normal(size=(10, 2)) @ rng.normal(size=(2, 6))   # rank 2 in R^6
    assert sup_ratios(y2, 2).sum() == pytest.approx(2.0, abs=1e-9)


def test_sup_ratio_zero_row_and_degenerate():
    y = np.array([[0.0, 0.0], [1.0, 2.0]])
    assert sup_ratio(y, 0, 2) == 0.0
    assert sup_ratio(y, 1, 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        sup_ratio(np.zeros((3, 2)), 0, 2)
    with pytest.raises(ValueError):
        sup_ratio(y, 5, 2)


def test_sup_ratio_leverage_matches_grid():
    rng = np.random.default_rng(9)
    for _ in range(5):
        y = rng.normal(size=(6, 2))
        npt.assert_allclose(sup_ratios(y, 2, method="grid"),
                            sup_ratios(y, 2, method="leverage"), atol=1e-6)


@pytest.mark.parametrize("z", [1, 1.3, 3])
def test_sup_ratio_ascent_matches_grid(z):
    # zero rows make |a|^(z-1) meet 0 ** 0 (z = 1) and 0 ** 0.3 (z = 1.3);
    # a RuntimeWarning there fails the suite
    rng = np.random.default_rng(10)
    for _ in range(5):
        y = np.vstack([rng.normal(size=(7, 2)), np.zeros((2, 2))])
        g = sup_ratios(y, z, method="grid")
        a = sup_ratios(y, z, method="ascent")
        assert np.all(np.isfinite(a)) and np.all(a[7:] == 0.0)
        npt.assert_allclose(a, g, rtol=0.02, atol=1e-9)


def test_sup_ratio_grid_matches_one_shot_grid():
    rng = np.random.default_rng(17)
    theta = np.linspace(0.0, np.pi, 100_000, endpoint=False)
    u = np.stack([np.cos(theta), np.sin(theta)])
    for z in (1.0, 1.3, 3.0):
        y = rng.normal(size=(int(rng.integers(2, 12)), 2))
        a = np.abs(geometry._points_of(y) @ geometry._orthonormal_rows(y).T @ u) ** z
        want = np.max(a / np.sum(a, axis=0), axis=1)
        assert sup_ratios(y, z, method="grid").tobytes() == want.tobytes()


def test_sup_ratio_grid_memory_is_bounded():
    y = np.random.default_rng(18).normal(size=(50, 2))
    tracemalloc.start()
    try:
        sup_ratios(y, 1.3, method="grid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_sup_ratio_method_errors():
    y = np.eye(3)
    with pytest.raises(ValueError):
        sup_ratios(y, 1, method="leverage")
    with pytest.raises(ValueError):
        sup_ratios(y, 2, method="grid")   # 3-d span
    with pytest.raises(ValueError):
        sup_ratios(y, 2, method="newton")


# ---------------------------------------------------------------------------
# Subspace / flat / lines


def test_subspace_zero_cost_orthonormal_points():
    x = Dataset(np.eye(2))
    prof = subspace_sensitivity(x, Subspace(np.eye(2)), 2)
    npt.assert_allclose(prof.sigma, [8.0, 8.0], atol=1e-9)


def test_subspace_all_projections_zero():
    # points orthogonal to the subspace: uniform fallback for the sup term
    x = Dataset([[0.0, 1.0], [0.0, 2.0]])
    prof = subspace_sensitivity(x, Subspace([[1.0, 0.0]]), 2)
    first = 2.0 * np.array([1.0, 4.0]) / 5.0   # dist^2 = 1, 4
    npt.assert_allclose(prof.sigma, first + 8.0 * 0.5, atol=1e-9)


def test_subspace_total_bound_random():
    rng = np.random.default_rng(11)
    for z in (1, 2):
        for _ in range(5):
            k = int(rng.integers(1, 3))
            x = Dataset(rng.normal(size=(12, 4)))
            r = Subspace.from_spanning(rng.normal(size=(k, 4)))
            prof = subspace_sensitivity(x, r, z)
            bound = 2.0 ** (z - 1) + 2.0 ** (2 * z - 1) * (k + 1) ** (1 + z)
            assert prof.total <= bound + 1e-9


def test_flat_single_point_off_flat():
    f = Flat(Subspace([[1.0, 0.0]]), [0.0, 1.0])
    prof = flat_sensitivity(Dataset([[0.0, 2.0]]), f, 2)
    # one point: cost share 1, affine sup 1
    assert prof.sigma[0] == pytest.approx(2.0 + 8.0, abs=1e-9)


def test_flat_translation_invariance():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(9, 3))
    r = Subspace.from_spanning(rng.normal(size=(1, 3)))
    f = Flat.from_point(r, rng.normal(size=3))
    v = rng.normal(size=3)
    f2 = Flat.from_point(r, f.translation + v)
    p1 = flat_sensitivity(Dataset(x), f, 2)
    p2 = flat_sensitivity(Dataset(x + v), f2, 2)
    npt.assert_allclose(p1.sigma, p2.sigma, atol=1e-9)


def test_line_sensitivity_layers():
    ln = Line.canonical([0.0, 0.0], [1.0, 0.0])
    x = Dataset([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    prof = line_sensitivity(x, LineSet([ln]), 2)
    npt.assert_allclose(prof.sigma, [24.0, 12.0, 12.0, 24.0], atol=1e-12)


def test_line_sensitivity_single_off_point():
    ln = Line.canonical([0.0, 0.0], [1.0, 0.0])
    prof = line_sensitivity(Dataset([[0.0, 5.0]]), LineSet([ln]), 2)
    assert prof.sigma[0] == pytest.approx(2.0 + 8.0 * 3.0, abs=1e-12)


def long_way_line_profile(data, lines, z):
    """The lines profile built the long way: nearest-line labels, a per-point
    Line list regrouped by ``==`` in first-seen order, the projections peeled
    layer by layer with k = lines.k, then the shared profile shape."""
    pts = data.points
    n, k = pts.shape[0], lines.k
    labels = geometry.assignment("lines", data, lines)
    assign = [lines.lines[i] for i in labels]
    proj = geometry._project_to_lines(pts, lines.lines, labels)
    groups, group_of = [], np.empty(n, dtype=np.int64)
    for i, ln in enumerate(assign):
        for j, g in enumerate(groups):
            if g == ln:
                break
        else:
            j = len(groups)
            groups.append(ln)
        group_of[i] = j
    layer_index = np.zeros(n)
    remaining = np.arange(n)
    depth = 0
    while remaining.size:
        depth += 1
        layer = []
        for j, ln in enumerate(groups):
            idxs = remaining[group_of[remaining] == j]
            if idxs.size:
                pos = (proj[idxs] - ln.anchor) @ ln.direction
                layer.append(idxs[_coreset_1d(pos, k)])
        layer = np.concatenate(layer)
        layer_index[layer] = depth
        remaining = np.setdiff1d(remaining, layer, assume_unique=True)
    dist = geometry.distances("lines", data, lines)
    return _profile(dist, z, 2.0 ** (2.0 * z - 1.0) * PEEL_CONSTANT / layer_index)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_line_sensitivity_matches_long_way(k):
    rng = np.random.default_rng(30 + k)
    for trial in range(4):
        n, d = int(rng.integers(5, 80)), int(rng.integers(2, 5))
        lines = [Line.through(rng.normal(size=d), rng.normal(size=d)) for _ in range(k)]
        if trial % 2:
            lines.append(lines[0])          # repeated line, as exact-solver padding
        ls = LineSet(lines)
        owner = rng.integers(k, size=n)
        pts = np.stack([lines[j].anchor + rng.normal(0, 3) * lines[j].direction
                        for j in owner]) + rng.normal(0, 0.3, (n, d))
        for z in (1.0, 1.3, 2.0):
            got = line_sensitivity(Dataset(pts), ls, z)
            want = long_way_line_profile(Dataset(pts), ls, z)
            assert got.sigma.tobytes() == want.sigma.tobytes()


def test_sensitivities_refuse_the_wrong_shape_type():
    x = Dataset([[0.0, 1.0], [2.0, 3.0]])
    lines = LineSet([Line.canonical([0.0, 0.0], [1.0, 0.0])])
    centers = CenterSet([[0.0, 0.0]])
    with pytest.raises(ValueError, match="clustering expects a CenterSet"):
        clustering_sensitivity(x, lines, 2)
    with pytest.raises(ValueError, match="subspace expects a Subspace"):
        subspace_sensitivity(x, centers, 2)
    with pytest.raises(ValueError, match="flat expects a Flat"):
        flat_sensitivity(x, Subspace([[1.0, 0.0]]), 2)
    with pytest.raises(ValueError, match="lines expects a LineSet"):
        line_sensitivity(x, centers, 2)
    with pytest.raises(ValueError, match="data dimension 2 != solution dimension 3"):
        flat_sensitivity(x, Flat(Subspace([[1.0, 0.0, 0.0]]), [0.0, 0.0, 0.0]), 2)


# ---------------------------------------------------------------------------
# Projected-residual event


def test_e4_identity_map_gives_total():
    rng = np.random.default_rng(13)
    x = Dataset(rng.normal(size=(10, 4)))
    c = CenterSet(rng.normal(size=(2, 4)))
    prof = clustering_sensitivity(x, c, 2)
    stat = event_e4_statistic(x, c, identity_map(4), 2, prof)
    assert stat == pytest.approx(prof.total, rel=1e-12)


def test_e4_zero_residual_counts_as_one():
    x = Dataset([[1.0, 0.0], [3.0, 4.0]])
    c = CenterSet([[1.0, 0.0]])   # first point sits on its center
    prof = clustering_sensitivity(x, c, 2)
    pi = sample_jl(2, 4, seed=0)
    stat = event_e4_statistic(x, c, pi, 2, prof)
    d2 = np.linalg.norm(pi.matrix @ np.array([2.0, 4.0])) / np.linalg.norm([2.0, 4.0])
    expected = 1.0 * prof.sigma[0] + d2 ** 4 * prof.sigma[1]
    assert stat == pytest.approx(expected, rel=1e-9)


def test_e4_large_t_near_total():
    rng = np.random.default_rng(14)
    x = Dataset(rng.normal(size=(30, 6)))
    c = CenterSet(rng.normal(size=(3, 6)))
    prof = clustering_sensitivity(x, c, 2)
    stat = event_e4_statistic(x, c, sample_jl(6, 4000, seed=1), 2, prof)
    assert stat == pytest.approx(prof.total, rel=0.1)
    assert stat <= event_e4_bound(3, 2)


def test_e4_bound_value():
    assert event_e4_bound(3, 2) == 1600.0
    assert event_e4_bound(1, 1) == 400.0
    with pytest.raises(ValueError):
        event_e4_bound(0, 2)
