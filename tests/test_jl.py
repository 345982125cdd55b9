import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from projclust import geometry
from projclust._rng import rng_stream
from projclust.jl import (
    JLMap, sample_jl, apply,
    moment_ratio_samples, moment_bound_statistic, moment_bound_threshold,
    is_subspace_embedding, distortion_range,
    write_map, read_map,
)


def test_rng_stream_contract():
    a = rng_stream(42).normal(size=5)
    b = rng_stream(42).normal(size=5)
    npt.assert_array_equal(a, b)
    c = rng_stream(42, stream=1).normal(size=5)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        rng_stream(-1)
    with pytest.raises(ValueError):
        rng_stream(0, stream=-1)


def test_sample_jl_deterministic_and_shaped():
    p1 = sample_jl(20, 6, seed=9)
    p2 = sample_jl(20, 6, seed=9)
    npt.assert_array_equal(p1.matrix, p2.matrix)
    assert (p1.t, p1.d, p1.seed) == (6, 20, 9)
    assert not np.array_equal(p1.matrix, sample_jl(20, 6, seed=10).matrix)
    assert not np.array_equal(p1.matrix, sample_jl(20, 6, seed=9, stream=1).matrix)
    with pytest.raises(ValueError):
        sample_jl(0, 5, seed=1)


def test_sampled_matrix_is_owned_and_read_only_and_given_ones_are_copied():
    tracemalloc.start()
    try:
        m = sample_jl(100_000, 4, seed=3).matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.flags.owndata and not m.flags.writeable
    assert peak < 1.5 * m.nbytes                   # the draw, not a copy of it
    arr = np.arange(12.0).reshape(3, 4)
    pi = JLMap(arr)
    arr[0, 0] = 99.0
    assert pi.matrix[0, 0] == 0.0 and not pi.matrix.flags.writeable
    for bad in (np.array([[1.0, np.nan]]), np.array([[np.inf]])):
        with pytest.raises(ValueError, match="finite"):
            JLMap(bad)
        with pytest.raises(ValueError, match="finite"):
            JLMap._own(bad, 0)


def _traced_peak(make):
    """``make()`` and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        out = make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_read_map_keeps_the_array_it_builds(tmp_path):
    # the map takes the array it has just read after the same checks: a
    # copy would make two map-sizes
    path = tmp_path / "map.txt"
    write_map(path, sample_jl(40, 20_000, seed=5))
    back, peak = _traced_peak(lambda: read_map(path))
    npt.assert_array_equal(back.matrix, sample_jl(40, 20_000, seed=5).matrix)
    assert back.seed == 5 and not back.matrix.flags.writeable
    assert peak < 1.25 * back.matrix.nbytes


def test_read_map_names_its_file(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("# seed x\n1 2\n1.0 0.0\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_map(path)
    assert str(err.value) == f"{path}: seed comment must be an integer, got 'x'"


def test_sample_jl_entry_statistics():
    d, t = 1000, 50
    p = sample_jl(d, t, seed=1)
    entries = p.matrix.ravel()
    # mean of t*d iid N(0, 1/t) entries: standard error 1/sqrt(t*d*t)
    assert abs(entries.mean()) < 4.0 / np.sqrt(t * d * t)
    assert entries.var() == pytest.approx(1.0 / t, rel=0.05)


def test_apply_linear_and_shapes():
    p = sample_jl(8, 3, seed=2)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=8), rng.normal(size=8)
    npt.assert_allclose(apply(p, 2.0 * x - y), 2.0 * apply(p, x) - apply(p, y), atol=1e-12)
    ds = geometry.Dataset(rng.normal(size=(5, 8)))
    out = apply(p, ds)
    assert isinstance(out, geometry.Dataset) and (out.n, out.d) == (5, 3)
    ws = geometry.WeightedSet(ds.points, np.ones(5))
    wout = apply(p, ws)
    assert isinstance(wout, geometry.WeightedSet)
    npt.assert_array_equal(wout.weights, ws.weights)
    with pytest.raises(ValueError):
        apply(p, rng.normal(size=7))


def test_squared_ratio_mean_over_seeds():
    # fixed vector, many independent maps: E[||Pi x||^2 / ||x||^2] = 1
    d, t, reps = 100, 100, 10_000
    x = rng_stream(123).normal(size=d)
    xn2 = float(x @ x)
    ratios = np.empty(reps)
    for i in range(reps):
        p = sample_jl(d, t, seed=3, stream=i)
        y = p.matrix @ x
        ratios[i] = float(y @ y) / xn2
    assert ratios.mean() == pytest.approx(1.0, abs=0.01)


def test_moment_ratio_samples_match_expectation():
    t, trials = 64, 200_000
    s = moment_ratio_samples(2, t, trials, seed=5)
    se = np.sqrt(2.0 / t) / np.sqrt(trials)
    assert s.mean() == pytest.approx(1.0, abs=4 * se)


def test_moment_bound_statistic_regimes():
    thr = moment_bound_threshold(2, 0.5)
    assert thr == pytest.approx(0.0125)
    # far above the needed dimension: statistic clears the threshold
    assert moment_bound_statistic(2, 0.5, t=4096, trials=100_000, seed=7) <= thr
    # t = 1: grossly exceeds it
    assert moment_bound_statistic(2, 0.5, t=1, trials=100_000, seed=7) > 5 * thr
    # z = 1 with huge t: concentration drives the overshoot to ~0
    assert moment_bound_statistic(1, 0.5, t=10 ** 6, trials=10_000, seed=7) < 1e-3
    with pytest.raises(ValueError):
        moment_bound_statistic(2, 0.0, t=4, trials=10, seed=0)


@pytest.mark.parametrize("refuse", [
    lambda eps: moment_bound_statistic(2, eps, t=4, trials=10, seed=0),
    lambda eps: moment_bound_threshold(2, eps),
    lambda eps: is_subspace_embedding(JLMap(np.eye(2)), geometry.Subspace([[1.0, 0.0]]), eps),
], ids=["moment_bound_statistic", "moment_bound_threshold", "is_subspace_embedding"])
def test_eps_must_be_finite(refuse):
    # as preset_t refuses it; -inf keeps the message of a value below 0
    for eps in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^eps must be finite, got {eps!r}$"):
            refuse(eps)
    with pytest.raises(ValueError, match="^eps must be (positive|non-negative)$"):
        refuse(-np.inf)


def test_subspace_embedding_identity_and_zero():
    r = geometry.Subspace.from_spanning(np.random.default_rng(1).normal(size=(3, 7)))
    assert is_subspace_embedding(JLMap(np.eye(7)), r, 0.0)
    assert not is_subspace_embedding(JLMap(np.zeros((4, 7))), r, 10.0)


def test_subspace_embedding_monte_carlo():
    # t far above k/eps^2: the embedding property holds essentially always
    d, k, t, eps, reps = 30, 5, 2000, 0.2, 100
    basis = geometry.Subspace.from_spanning(rng_stream(11).normal(size=(k, d)))
    hits = sum(
        is_subspace_embedding(sample_jl(d, t, seed=8, stream=i), basis, eps)
        for i in range(reps))
    assert hits >= 95


def test_subspace_embedding_agrees_with_sampled_vectors():
    d, k, eps = 12, 3, 0.3
    rng = rng_stream(21)
    basis = geometry.Subspace.from_spanning(rng.normal(size=(k, d)))
    for i in range(20):
        p = sample_jl(d, 40, seed=9, stream=i)
        ok = is_subspace_embedding(p, basis, eps)
        coeffs = rng.normal(size=(50, k))
        vecs = coeffs @ basis.basis
        ratios = np.linalg.norm(vecs @ p.matrix.T, axis=1) / np.linalg.norm(vecs, axis=1)
        if ok:
            assert np.all(ratios <= (1 + eps) * (1 + 1e-9))
            assert np.all(ratios >= (1 + eps) ** -1 * (1 - 1e-9))


def test_distortion_range():
    pts = geometry.Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
    lo, hi = distortion_range(JLMap(np.eye(2)), pts)
    assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)
    lo0, hi0 = distortion_range(JLMap(np.zeros((3, 2))), pts)
    assert lo0 == 0.0 and hi0 == 0.0
    for no_pair in (np.zeros((3, 2)), np.ones((1, 2)), np.empty((0, 2))):
        with pytest.raises(ValueError):
            distortion_range(JLMap(np.eye(2)), no_pair)


def test_distortion_range_memory_is_linear_in_n():
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(2000, 3))
    pts[7] = pts[3]                       # a coincident pair is skipped
    p = sample_jl(3, 2, seed=5)
    tracemalloc.start()
    try:
        got = distortion_range(p, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    iu = np.triu_indices(2000, k=1)
    orig = np.linalg.norm(pts[iu[0]] - pts[iu[1]], axis=1)
    mask = orig > 0
    proj = pts @ p.matrix.T
    ratio = np.linalg.norm(proj[iu[0]][mask] - proj[iu[1]][mask], axis=1) / orig[mask]
    assert got == (float(np.min(ratio)), float(np.max(ratio)))


def test_map_serialization_roundtrip(tmp_path):
    p = sample_jl(7, 4, seed=33)
    path = tmp_path / "map.txt"
    write_map(path, p)
    back = read_map(path)
    npt.assert_array_equal(back.matrix, p.matrix)
    assert back.seed == 33 and (back.t, back.d) == (4, 7)
