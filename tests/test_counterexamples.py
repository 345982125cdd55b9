import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import ref_css_cost, ref_css_kernel, ref_medoid_cost, ref_medoid_kernel
from projclust import cli
from projclust.jl import apply, sample_jl
from projclust.counterexamples import (
    _BLOCK, _pairwise,
    gen_medoid_instance, gen_css_instance,
    medoid_cost, css_cost, medoid_optimum, css_optimum,
    RatioReport, counterexample_trial,
)


def naive_medoid_cost(x):
    n = len(x)
    best = np.inf
    for j in range(n):
        best = min(best, sum(np.sum((x[i] - x[j]) ** 2) for i in range(n)))
    return best


def naive_css_cost(x):
    total = sum(np.sum(r ** 2) for r in x)
    best = np.inf
    for j in range(len(x)):
        nj = np.linalg.norm(x[j])
        if nj == 0:
            continue
        u = x[j] / nj
        best = min(best, total - sum(np.dot(r, u) ** 2 for r in x))
    return best if best < np.inf else total


def test_medoid_instance_shape_and_cost():
    x = gen_medoid_instance(4)
    npt.assert_array_equal(x.points, np.eye(4))
    assert medoid_cost(x.points) == pytest.approx(6.0, abs=1e-12)
    assert medoid_optimum(4) == 6.0


def test_medoid_cost_1d_oracle():
    # centers 0, 1, 3 give 10, 5, 13
    assert medoid_cost(np.array([[0.0], [1.0], [3.0]])) == pytest.approx(5.0)


def test_medoid_cost_matches_naive():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=(rng.integers(3, 9), rng.integers(1, 4)))
        assert medoid_cost(x) == pytest.approx(naive_medoid_cost(x), rel=1e-9)


def test_css_instance_geometry():
    x = gen_css_instance(5)
    assert x.points.shape == (5, 6)
    npt.assert_allclose(np.linalg.norm(x.points, axis=1), 1.0, atol=1e-12)
    gram = x.points @ x.points.T
    npt.assert_allclose(gram, 0.5 * (np.eye(5) + 1.0), atol=1e-12)
    assert css_cost(x.points) == pytest.approx(3.0, abs=1e-9)
    assert css_optimum(5) == 3.0


def test_css_cost_matches_naive():
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=(rng.integers(3, 9), rng.integers(1, 4)))
        assert css_cost(x) == pytest.approx(naive_css_cost(x), rel=1e-9)


def test_css_cost_zero_rows():
    assert css_cost(np.zeros((3, 2))) == 0.0
    x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    assert css_cost(x) == pytest.approx(naive_css_cost(x), rel=1e-9)


@pytest.mark.parametrize("kernel", [medoid_cost, css_cost])
@pytest.mark.parametrize("points, message", [
    (np.ones(3), "points must be a 2-d array, got shape (3,)"),
    (np.ones((0, 3)), "points must be non-empty, got shape (0, 3)"),
    (np.ones((3, 0)), "points must be non-empty, got shape (3, 0)"),
    ([[1.0, 2.0], [np.nan, 0.0]], "points must contain only finite values"),
    ([[1.0, np.inf], [0.0, 0.0]], "points must contain only finite values"),
    ([[1.0, -np.inf], [0.0, 0.0]], "points must contain only finite values"),
])
def test_cost_kernels_refuse_malformed_points(kernel, points, message):
    with pytest.raises(ValueError) as err:
        kernel(points)
    assert str(err.value) == message


def test_generators_reject_tiny_n():
    with pytest.raises(ValueError):
        gen_medoid_instance(1)
    with pytest.raises(ValueError):
        gen_css_instance(1)
    with pytest.raises(ValueError):
        counterexample_trial("medoid", 1, 3, 0)


@pytest.mark.parametrize("gen,cols", [(gen_medoid_instance, 10 ** 6),
                                      (gen_css_instance, 10 ** 6 + 1)])
def test_generators_refuse_a_huge_dense_matrix_before_allocating(gen, cols):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"needs {8 * 10 ** 6 * cols} bytes"):
            gen(10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("which,d", [("medoid", 10 ** 8), ("css", 10 ** 8 + 1)])
def test_trial_refuses_a_huge_map_before_sampling(which, d):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"a 3 x {d} map needs {24 * d} bytes"):
            counterexample_trial(which, 10 ** 8, 3, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("which,d_extra,bound", [("medoid", 0, 1.25), ("css", 1, 1.25)])
def test_trial_memory_in_map_sizes(which, d_extra, bound):
    # the map itself is one map-size and the kernels read it in place, a
    # block of columns at a time: what else they hold does not grow with n
    n, t = 200_000, 3
    counterexample_trial(which, 100, t, 0)              # warm up numpy
    tracemalloc.start()
    try:
        counterexample_trial(which, n, t, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * 8 * t * (n + d_extra)


def test_two_css_trials_on_two_threads_stay_below_two_and_a_half_map_sizes(
        tmp_path, monkeypatch):
    # one map per trial, and the kernels' blocks besides
    n, t = 200_000, 3
    monkeypatch.setenv("PROJCLUST_THREADS", "2")
    args = ["counterexample", "--which", "css", "--t", str(t), "--trials", "2"]
    assert cli.main(args + ["--n", "100", "--out", str(tmp_path / "warm.csv")]) == 0
    tracemalloc.start()
    try:
        assert cli.main(args + ["--n", str(n), "--out", str(tmp_path / "o.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * t * (n + 1)


def test_generators_size_limit_is_two_to_the_thirty_bytes():
    # 8 * 11585**2 bytes fit in 2**30 (not built here: a gigabyte); one more
    # column does not
    with pytest.raises(ValueError, match="1073883168 bytes"):
        gen_medoid_instance(11586)
    with pytest.raises(ValueError, match="1073790480 bytes"):
        gen_css_instance(11585)


@st.composite
def point_sets(draw):
    """(n, d) float arrays, d > n allowed, some rows zero, C- or F-ordered.

    Entries are 0 or of magnitude 1e-150 to 1e3, so every squared norm is a
    normal float: below that both kernels lose precision, differently.
    """
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 14))
    magnitude = st.one_of(st.just(0.0), st.floats(1e-150, 1e3))
    vals = draw(st.lists(st.tuples(magnitude, st.sampled_from((-1.0, 1.0))),
                         min_size=n * d, max_size=n * d))
    vals = [m * sign for m, sign in vals]
    x = np.array(vals).reshape(n, d)
    x[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    return np.asarray(x, order=draw(st.sampled_from("CF")))


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_kernels_match_the_row_major_references(x):
    mass = float(np.sum(x * x))
    assert abs(medoid_cost(x) - ref_medoid_cost(x)) <= 1e-12 * mass
    assert abs(css_cost(x) - ref_css_cost(x)) <= 1e-12 * mass


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4 * _BLOCK + 100), seed=st.integers(0, 2 ** 32 - 1),
       zeros=st.sampled_from((0.0, 0.5, 1.0)))
def test_pairwise_is_np_sum_bit_for_bit(n, seed, zeros):
    # magnitudes from 1e-150 to 1e150 of either sign, some entries 0.0 or
    # -0.0: every rounding of np.sum's own tree shows in the last bits
    rng = np.random.default_rng(seed)
    x = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-150, 150, n)
    zero = rng.random(n) < zeros
    x[zero] = rng.choice((0.0, -0.0), n)[zero]
    got = _pairwise(lambda lo, hi: np.sum(x[lo:hi]), 0, n)
    assert np.float64(got).tobytes() == np.sum(x).tobytes()


@st.composite
def maps(draw):
    """Read-only (t, n + 1) maps, n around the kernels' block, at one split
    of their pairwise sums above it (2 _BLOCK + 9) and at three (4 _BLOCK +
    13), with some or all columns zero, and some scaled by 2^-470: a total
    mass below the kernels' rescale threshold of 2^-900."""
    n = draw(st.sampled_from((2, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                              2 * _BLOCK + 9, 4 * _BLOCK + 13)))
    t = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = rng.normal(size=(t, n + 1))
    m[:, rng.random(n + 1) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = 0.0
    m = np.ldexp(m, -draw(st.sampled_from((0, 470))))
    m.setflags(write=False)
    return m


@settings(max_examples=60, deadline=None)
@given(maps())
def test_kernels_match_their_whole_width_references_bit_for_bit(m):
    n = m.shape[1] - 1
    view = m[:, :n]                                  # strided, as a css trial's
    before = m.copy()
    for pts in (view.T, np.ascontiguousarray(view).T, np.ascontiguousarray(view.T)):
        assert css_cost(pts) == ref_css_kernel(pts)
        assert medoid_cost(pts) == ref_medoid_kernel(pts)
    npt.assert_array_equal(m, before)


@pytest.mark.parametrize("n", [2, 100, 2 ** 15 + 1, 65537])
def test_css_trial_is_the_reference_kernel_on_the_formed_points(n):
    t, seed = 3, 11
    m = sample_jl(n + 1, t, seed).matrix
    rep = counterexample_trial("css", n, t, seed)
    assert rep.cost_projected == ref_css_kernel(((m[:, :n] + m[:, n:]) / np.sqrt(2.0)).T)
    rep = counterexample_trial("medoid", n, t, seed)
    assert rep.cost_projected == ref_medoid_kernel(sample_jl(n, t, seed).matrix.T)


@st.composite
def moderate_sets(draw):
    """(n, d) sets with entries 0 or of magnitude 1e-3 to 1e3."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
    return np.array(draw(st.lists(entry, min_size=n * d, max_size=n * d))).reshape(n, d)


@settings(max_examples=200, deadline=None)
@given(x=moderate_sets(), e=st.integers(0, 532))
def test_kernels_are_homogeneous_down_to_subnormal_squares(x, e):
    # 2^-532 is about 1e-160: the squares of such entries are subnormal, so
    # the kernels must rescale to keep cost(x 2^-e) = cost(x) 2^-2e exactly
    tiny = np.ldexp(x, -e)
    assert medoid_cost(tiny) == math.ldexp(medoid_cost(x), -2 * e)
    assert css_cost(tiny) == math.ldexp(css_cost(x), -2 * e)


@pytest.mark.parametrize("e", [0, 450, 500, 532, 600])
def test_tiny_point_sets_keep_their_digits(e):
    x = np.array([[1.0, 2.0], [2.0, 4.1], [0.3, -1.0]])
    tiny = np.ldexp(x, -e)
    assert medoid_cost(tiny) == math.ldexp(medoid_cost(x), -2 * e)
    assert css_cost(tiny) == math.ldexp(css_cost(x), -2 * e)
    assert medoid_cost(np.zeros((3, 2))) == css_cost(np.zeros((3, 2))) == 0.0


def test_column_trick_matches_direct_projection():
    for which, gen, d_of in (("medoid", gen_medoid_instance, lambda n: n),
                             ("css", gen_css_instance, lambda n: n + 1)):
        n, t, seed = 6, 3, 42
        rep = counterexample_trial(which, n, t, seed)
        pi = sample_jl(d_of(n), t, seed)
        direct = apply(pi, gen(n)).points
        cost = medoid_cost(direct) if which == "medoid" else css_cost(direct)
        assert rep.cost_projected == pytest.approx(cost, rel=1e-12)


def test_trial_reports_exact_original_cost():
    rep = counterexample_trial("medoid", 100, 3, 0)
    assert rep.cost_original == 2.0 * 99
    rep = counterexample_trial("css", 100, 3, 0)
    assert rep.cost_original == 0.75 * 99
    with pytest.raises(ValueError):
        counterexample_trial("kmeans", 10, 3, 0)


def test_ratio_definition_and_repr():
    rep = RatioReport("medoid", 10, 3, 0, 18.0, 9.0)
    assert rep.ratio == 2.0
    assert RatioReport("medoid", 10, 3, 0, 18.0, 0.0).ratio == np.inf
    assert "medoid" in repr(rep)


def test_full_dimension_projection_preserves_cost_roughly():
    # with t = n the map is a near-isometry, so the ratio should sit near 1
    for which in ("medoid", "css"):
        rep = counterexample_trial(which, 128, 128, 7)
        assert 0.8 <= rep.ratio <= 1.25


def test_low_dimension_projection_inflates_ratio():
    # the whole point of the construction: few dimensions -> big ratio
    ratios = [counterexample_trial("medoid", 2000, 3, s).ratio for s in range(5)]
    assert np.median(ratios) > 1.5
    ratios = [counterexample_trial("css", 2000, 3, s).ratio for s in range(5)]
    assert np.median(ratios) > 1.25
