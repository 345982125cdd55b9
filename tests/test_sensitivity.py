import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st

from projclust import geometry
from projclust.geometry import Dataset, CenterSet, Subspace, Flat, Line, LineSet
from projclust.jl import JLMap, sample_jl
from projclust.coreset import COVER_FACTOR, _coreset_1d, _sweeps
from projclust.sensitivity import (
    SensitivityProfile,
    clustering_sensitivity, subspace_sensitivity, flat_sensitivity,
    line_sensitivity, sup_ratios,
    event_e4_statistic, event_e4_bound,
)

from _oracles import (
    ascent_sup_ratios, grid_sup_ratios, ref_assignment, ref_distances,
    ref_e4_statistic, ref_profile, ref_project_to_lines, ref_sensitivity,
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
    for z in (1, 2, 3):
        got = sup_ratios(y, z)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        sup_ratios(np.zeros((3, 2)), 2)


def test_sup_ratio_leverage_matches_grid():
    rng = np.random.default_rng(9)
    for _ in range(5):
        y = rng.normal(size=(6, 2))
        npt.assert_allclose(grid_sup_ratios(y, 2), sup_ratios(y, 2), atol=1e-6)


def test_sup_ratio_z2_is_the_leverage_score():
    # at z = 2 the weights drop out and the bound is the leverage score
    rng = np.random.default_rng(24)
    for n, d in ((6, 2), (30, 3), (200, 3), (50, 7)):
        y = rng.standard_t(2, size=(n, d))
        p = y @ geometry._orthonormal_rows(y).T
        g = np.linalg.pinv(p.T @ p, hermitian=True)
        want = np.einsum("ij,jk,ik->i", p, g, p)
        npt.assert_allclose(sup_ratios(y, 2), want, rtol=1e-13)


@pytest.mark.parametrize("z", [1, 1.3, 3])
def test_sup_ratio_ascent_matches_grid(z):
    # the two oracles agree; zero rows make |a|^(z-1) meet 0 ** 0 (z = 1)
    # and 0 ** 0.3 (z = 1.3), and a RuntimeWarning there fails the suite
    rng = np.random.default_rng(10)
    for _ in range(5):
        y = np.vstack([rng.normal(size=(7, 2)), np.zeros((2, 2))])
        g = grid_sup_ratios(y, z)
        a = ascent_sup_ratios(y, z)
        assert np.all(np.isfinite(a)) and np.all(a[7:] == 0.0)
        npt.assert_allclose(a, g, rtol=0.02, atol=1e-9)


@pytest.mark.parametrize("z", [1, 1.3, 2.5, 3.5])
def test_sup_ratio_lewis_zero_rows(z):
    # zero rows stay out of the iteration: 0 ** (1 - 2/z) would warn
    rng = np.random.default_rng(22)
    y = np.vstack([np.zeros((2, 3)), rng.normal(size=(9, 3)), np.zeros((1, 3))])
    lew = sup_ratios(y, z)
    assert np.all(lew[[0, 1, 11]] == 0.0) and np.all(lew[2:11] > 0.0)
    assert np.all(lew <= 1.0)


def test_sup_ratio_lewis_rows_outside_the_numerical_span():
    # the third row is nonzero but has no component in the rank-1 span kept
    # by the SVD; it scores 0, and the others get their exact ratios 1/3, 2/3
    y = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1e-20]])
    lew = sup_ratios(y, 1)
    npt.assert_allclose(lew, [1 / 3, 2 / 3, 0.0], rtol=1e-9)
    assert np.all(ascent_sup_ratios(y, 1) <= lew * (1 + 1e-9))


def test_sup_ratio_bound_survives_underflowing_weights():
    # the second weight underflows (about 1e-400 at z = 1); the floored
    # weight still certifies, and the rows score their ratios 1 and
    # 1e-200^z / 1 = 0, the first up to rounding (1 - 2^-53 at z = 3)
    y = np.array([[1.0, 0.0], [1e-200, 0.0]])
    for z in (1, 1.5, 3, 6):
        got = sup_ratios(y, z)
        assert np.all(np.isfinite(got)) and np.all((got >= 0.0) & (got <= 1.0))
        assert got[0] == pytest.approx(1.0, rel=1e-15) and got[1] == 0.0


def test_sup_ratio_bound_dominates_oracles_above_3_5():
    # the one iteration serves every z; above 3.5 it replaced the grid and
    # the ascent, which must stay below it
    rng = np.random.default_rng(23)
    for z in (3.5 + 1e-9, 3.99, 4, 8):
        y2 = rng.standard_t(3, size=(12, 2))
        assert np.all(grid_sup_ratios(y2, z) <= sup_ratios(y2, z) * (1 + 1e-9))
        y3 = rng.standard_t(3, size=(12, 3))
        assert np.all(ascent_sup_ratios(y3, z) <= sup_ratios(y3, z) * (1 + 1e-9))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
           st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=1, max_size=8)),
       st.lists(st.integers(0, 7), max_size=3),
       st.lists(st.integers(0, 7), max_size=2),
       st.integers(0, 2))
def test_sup_ratio_lewis_bounds_ascent(rows, repeats, tiny, zeros):
    y = np.array(rows, dtype=np.float64)
    assume(np.any(y))
    n = len(y)
    y = np.vstack([y, y[[i % n for i in repeats]], 1e-150 * y[[i % n for i in tiny]],
                   np.zeros((zeros, y.shape[1]))])
    rank = np.linalg.matrix_rank(y)
    for z in (1, 1.3, 2, 2.5, 3.5, 4, 5, 6, 8):
        bound = sup_ratios(y, z)
        assert np.all(ascent_sup_ratios(y, z) <= bound * (1 + 1e-9))
        if z <= 2:
            assert bound.sum() == pytest.approx(rank, abs=1e-9)


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
    # far from the origin the lifted projections are ill conditioned
    # (condition number about 1e8 here), which the sup-ratio bound must survive
    rng = np.random.default_rng(12)
    x = rng.normal(size=(9, 3))
    r = Subspace.from_spanning(rng.normal(size=(1, 3)))
    f = Flat.from_point(r, rng.normal(size=3))
    v = rng.normal(size=3)
    for z in (1, 2, 3):
        for shift, tol in ((v, 1e-9), (1e8 * v, 1e-6)):
            f2 = Flat.from_point(r, f.translation + shift)
            p1 = flat_sensitivity(Dataset(x), f, z)
            p2 = flat_sensitivity(Dataset(x + shift), f2, z)
            npt.assert_allclose(p1.sigma, p2.sigma, rtol=tol, atol=tol)


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
    proj = ref_project_to_lines(pts, lines.lines, labels)
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
                layer.append(idxs[_coreset_1d(pos, k, _sweeps(pos))])
        layer = np.concatenate(layer)
        layer_index[layer] = depth
        remaining = np.setdiff1d(remaining, layer, assume_unique=True)
    dist = geometry.distances("lines", data, lines)
    return ref_profile(dist, z, 2.0 ** (2.0 * z - 1.0) * COVER_FACTOR / layer_index)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_line_sensitivity_matches_long_way(k):
    rng = np.random.default_rng(30 + k)
    for trial in range(4):
        n, d = int(rng.integers(5, 80)), int(rng.integers(2, 5))
        lines = [Line.through(rng.normal(size=d), rng.normal(size=d)) for _ in range(k)]
        if trial % 2:
            lines.append(lines[0])  # repeated line, as exact-solver padding
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
# One point-to-shape match against the per-problem references


SENSITIVITY = {"clustering": clustering_sensitivity, "subspace": subspace_sensitivity,
               "flat": flat_sensitivity, "lines": line_sensitivity}


@st.composite
def matched_cases(draw):
    """A problem, a data set and a solution with the awkward cases drawn
    often: integer grids (tied rows and rows equidistant from two shapes),
    repeated rows, repeated shapes, far shapes that no row picks (empty
    clusters and lines), weighted sets with zero weights, and scales by a
    power of two."""
    problem = draw(st.sampled_from(geometry.PROBLEMS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, d, k = draw(st.integers(1, 60)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    grid = draw(st.booleans())

    def draw_points(m):
        return (rng.integers(-3, 4, size=(m, d)).astype(float) if grid
                else rng.normal(size=(m, d)))

    pts = draw_points(n)
    if draw(st.booleans()):
        pts[rng.integers(n, size=n // 2)] = pts[0]  # tied rows
    if problem == "clustering":
        shapes = draw_points(k)
        if draw(st.booleans()):
            shapes[-1] = shapes[0]  # repeated center
        if draw(st.booleans()):
            shapes[0] += 1e3  # empty cluster
        sol = CenterSet(shapes)
    elif problem == "lines":
        lines = []
        while len(lines) < k:
            a, b = draw_points(1)[0], draw_points(1)[0]
            if not np.array_equal(a, b):
                lines.append(Line.through(a, b))
        if draw(st.booleans()):
            lines.append(lines[0])  # repeated line
        if draw(st.booleans()):  # a far line that no row picks
            lines.append(Line.canonical(lines[0].anchor + 1e3, lines[0].direction))
        sol = LineSet(lines)
    else:
        basis = Subspace.from_spanning(rng.normal(size=(min(k, d), d)))
        sol = basis if problem == "subspace" else Flat.from_point(basis, draw_points(1)[0])
    scale = 2.0 ** draw(st.integers(-20, 20))
    pts, sol = pts * scale, _scaled(sol, scale)
    if draw(st.booleans()):
        w = rng.integers(0, 4, size=n).astype(float)
        w[0] = max(w[0], 1.0)
        data = geometry.WeightedSet(pts, w)
    else:
        data = Dataset(pts)
    return problem, data, sol, draw(st.sampled_from([1.0, 1.25, 1.5, 2.0, 2.7, 3.0]))


def _scaled(sol, s):
    if isinstance(sol, CenterSet):
        return CenterSet(sol.centers * s)
    if isinstance(sol, LineSet):
        return LineSet([Line(ln.anchor * s, ln.direction) for ln in sol.lines])
    if isinstance(sol, Flat):
        return Flat(sol.direction, sol.translation * s)
    return sol


def _outcome(f, *args):
    try:
        out = f(*args)
    except ValueError as err:
        return ("ValueError", str(err))
    if isinstance(out, SensitivityProfile):
        return out.sigma.tobytes()
    return np.asarray(out).tobytes(), np.asarray(out).dtype


def _center_tolerance(pts, centers):
    """How far a row's distance to its center may be from the reference's,
    R and C the longest row and center, u = 2^-53.

    The reference expands |x|^2 + |c|^2 - 2 x.c about the origin, with at
    most 2 (d + 3) u (|x|^2 + |c|^2) of rounding (each of the three sums at
    most d u of its terms' total, then two additions); its root moves by at
    most the root of that.  The library takes the norm of the residual x - c
    to the same center, off by at most (d + 2) u |x - c| <= (d + 2) u (R + C).
    So sqrt(1.01 * 2 (d + 3) u (R^2 + C^2)) + (d + 2) u (R + C) bounds the gap."""
    d = pts.shape[1]
    r2 = float(np.max(np.einsum("ij,ij->i", pts, pts)))
    c2 = float(np.max(np.einsum("ij,ij->i", centers, centers)))
    u = 2.0 ** -53
    return float(np.sqrt(1.01 * 2 * (d + 3) * u * (r2 + c2))
                 + (d + 2) * u * (np.sqrt(r2) + np.sqrt(c2)))


@settings(max_examples=300, deadline=None)
@given(matched_cases())
def test_match_equals_the_per_problem_references(case):
    # Bit for bit, except for center distances: the library picks a row's
    # center by an expansion about the rows and takes the residual norm to it,
    # the reference expands about the origin.  There the labels still agree
    # exactly (on these grids every term is exact either way, so exact ties
    # stay ties), the distances within _center_tolerance, and the
    # sensitivity is the reference's profile of the library's distances.
    problem, data, sol, z = case
    assert _outcome(geometry.assignment, problem, data, sol) == \
        _outcome(ref_assignment, problem, data, sol)
    center_dist = None
    if problem == "clustering":
        center_dist = geometry.distances(problem, data, sol)
        npt.assert_allclose(center_dist, ref_distances(problem, data, sol), rtol=0,
                            atol=_center_tolerance(data.points, sol.centers))
    else:
        assert _outcome(geometry.distances, problem, data, sol) == \
            _outcome(ref_distances, problem, data, sol)
    got = _outcome(SENSITIVITY[problem], data, sol, z)
    assert got == _outcome(ref_sensitivity, problem, data, sol, z, center_dist)
    prof = SENSITIVITY[problem](data, sol, z)
    pi = sample_jl(data.d, 3, seed=0)
    assert event_e4_statistic(data, sol, pi, z, prof) == \
        ref_e4_statistic(data, sol, pi, z, prof)


def test_e4_projects_onto_a_subspace_or_flat_without_a_match(monkeypatch):
    # the statistic reads the feet alone there; labels are all 0
    rng = np.random.default_rng(17)
    x = Dataset(rng.normal(size=(30, 4)))
    sols = (Subspace.from_spanning(rng.normal(size=(2, 4))),
            Flat.from_point(Subspace.from_spanning(rng.normal(size=(1, 4))), rng.normal(size=4)))
    pi = sample_jl(4, 2, seed=1)
    profiles = [subspace_sensitivity(x, sols[0], 2), flat_sensitivity(x, sols[1], 2)]
    want = [ref_e4_statistic(x, sol, pi, 2, prof) for sol, prof in zip(sols, profiles)]

    def no_match(*_):
        raise AssertionError("the match ran")
    monkeypatch.setattr(geometry, "_match", no_match)
    assert [event_e4_statistic(x, sol, pi, 2, prof)
            for sol, prof in zip(sols, profiles)] == want


def test_e4_refuses_a_solution_of_another_dimension():
    x = Dataset(np.random.default_rng(16).normal(size=(6, 3)))
    prof = SensitivityProfile(np.ones(6))
    pi = JLMap(np.eye(3))
    for sol in (CenterSet(np.zeros((2, 2))), Subspace([[1.0, 0.0]]),
                Flat(Subspace([[1.0, 0.0]]), [0.0, 1.0]),
                LineSet([Line.canonical([0.0, 0.0], [1.0, 1.0])])):
        with pytest.raises(ValueError, match="data dimension 3 != solution dimension 2"):
            event_e4_statistic(x, sol, pi, 2, prof)
    with pytest.raises(ValueError, match="solution must be a CenterSet"):
        event_e4_statistic(x, np.zeros((2, 3)), pi, 2, prof)


# ---------------------------------------------------------------------------
# Projected-residual event


def test_e4_identity_map_gives_total():
    rng = np.random.default_rng(13)
    x = Dataset(rng.normal(size=(10, 4)))
    c = CenterSet(rng.normal(size=(2, 4)))
    prof = clustering_sensitivity(x, c, 2)
    stat = event_e4_statistic(x, c, JLMap(np.eye(4)), 2, prof)
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


def test_e4_refuses_a_map_of_another_dimension():
    x = Dataset(np.random.default_rng(15).normal(size=(10, 4)))
    c = CenterSet(np.zeros((1, 4)))
    prof = clustering_sensitivity(x, c, 2)
    with pytest.raises(ValueError, match="input dimension 4 != map input dimension 5"):
        event_e4_statistic(x, c, sample_jl(5, 3, seed=0), 2, prof)


def test_e4_bound_value():
    assert event_e4_bound(3, 2) == 1600.0
    assert event_e4_bound(1, 1) == 400.0
    with pytest.raises(ValueError):
        event_e4_bound(0, 2)
