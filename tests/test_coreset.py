from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from projclust import coreset
from projclust.geometry import Dataset, CenterSet, Line, LineSet, cost_pow
from projclust.sensitivity import SensitivityProfile, clustering_sensitivity
from projclust.coreset import (
    Coreset, sensitivity_sample,
    line_coreset_1d, line_coreset_klines, coreset_size_bound,
    PeelingPartition, peel_partition,
    _canonical_order, _coreset_1d, _sweeps,
)

from _oracles import ref_recurse_1d


def dilate(a, b, factor=3.0):
    c, h = (a + b) / 2.0, (b - a) / 2.0
    return c - factor * h, c + factor * h


def covers(lo, hi, x, slack):
    return lo - slack <= x <= hi + slack


def interval_cover_violations(pos, chosen, k):
    """Brute-force check of the dilation guarantee on 1-d positions.

    Enumerates interval covers of the chosen subset with endpoints at chosen
    points (minimal covers look like that) and returns positions missed by
    every dilated interval.
    """
    q = np.sort(pos[chosen])
    scale = max(1.0, float(np.max(np.abs(pos))))
    slack = 1e-9 * scale
    bad = []
    if k == 1:
        lo, hi = dilate(q[0], q[-1])
        return [x for x in pos if not covers(lo, hi, x, slack)]
    assert k == 2
    m = len(q)
    for i in range(m):
        for j in range(i, m):
            a = (q[i], q[j])          # candidate first interval
            rest = q[(q < a[0] - slack) | (q > a[1] + slack)]
            if rest.size:
                b = (rest[0], rest[-1])   # minimal second interval
            else:
                b = (q[0], q[0])
            lo1, hi1 = dilate(*a)
            lo2, hi2 = dilate(*b)
            for x in pos:
                if not covers(lo1, hi1, x, slack) and not covers(lo2, hi2, x, slack):
                    bad.append((a, b, float(x)))
    return bad


# ---------------------------------------------------------------------------
# Sampling


def test_coreset_validation_and_extract():
    with pytest.raises(ValueError):
        Coreset([0, 1], [1.0])
    with pytest.raises(ValueError):
        Coreset([0, -1], [1.0, 1.0])
    with pytest.raises(ValueError):
        Coreset([0, 1], [1.0, 0.0])
    cs = Coreset([2, 0], [0.5, 3.0])
    ws = cs.extract(np.arange(8.0).reshape(4, 2))
    npt.assert_array_equal(ws.points, [[4.0, 5.0], [0.0, 1.0]])
    npt.assert_array_equal(ws.weights, [0.5, 3.0])
    with pytest.raises(ValueError):
        cs.extract(np.zeros((2, 2)))


def test_sensitivity_sample_weights_and_determinism():
    prof = SensitivityProfile(np.array([1.0, 2.0, 3.0, 4.0]))
    x = np.arange(8.0).reshape(4, 2)
    cs = sensitivity_sample(x, prof, m=50, seed=4)
    cs2 = sensitivity_sample(x, prof, m=50, seed=4)
    npt.assert_array_equal(cs.indices, cs2.indices)
    npt.assert_array_equal(cs.weights, cs2.weights)
    # weight identity, by construction
    npt.assert_array_equal(cs.weights, 1.0 / (50 * prof.distribution[cs.indices]))
    assert np.sum(cs.weights * prof.distribution[cs.indices]) == pytest.approx(1.0, rel=1e-12)
    assert sensitivity_sample(x, prof, m=1, seed=0).m == 1
    with pytest.raises(ValueError):
        sensitivity_sample(x, prof, m=0, seed=0)
    with pytest.raises(ValueError):
        sensitivity_sample(np.zeros((3, 2)), prof, m=5, seed=0)


def test_sensitivity_sample_frequencies_uniform():
    n, m = 5, 20_000
    prof = SensitivityProfile(np.ones(n))
    cs = sensitivity_sample(np.zeros((n, 1)), prof, m=m, seed=6)
    freq = np.bincount(cs.indices, minlength=n) / m
    se = np.sqrt(0.2 * 0.8 / m)
    npt.assert_allclose(freq, 0.2, atol=4 * se)


def test_sensitivity_sample_unbiased_cost():
    rng = np.random.default_rng(7)
    x = Dataset(rng.normal(0, 2, (30, 3)))
    ref = CenterSet(x.points[rng.choice(30, 2, replace=False)])
    prof = clustering_sensitivity(x, ref, 2)
    probe = CenterSet(rng.normal(0, 2, (2, 3)))
    true_cost = cost_pow("clustering", x, probe, 2)
    draws = 1000
    vals = np.empty(draws)
    for i in range(draws):
        cs = sensitivity_sample(x, prof, m=10, seed=1000 + i)
        vals[i] = cost_pow("clustering", cs.extract(x), probe, 2)
    se = vals.std(ddof=1) / np.sqrt(draws)
    assert abs(vals.mean() - true_cost) <= 3 * se


# ---------------------------------------------------------------------------
# 1-d recursive coresets


def test_line_coreset_trivial_sizes():
    pts = np.linspace(0.0, 9.0, 10)[:, None]
    npt.assert_array_equal(line_coreset_1d(pts, 1), [0, 9])
    npt.assert_array_equal(line_coreset_1d(pts[:1], 3), [0])
    npt.assert_array_equal(line_coreset_1d(pts[:2], 1), [0, 1])
    with pytest.raises(ValueError):
        line_coreset_1d(pts, 0)


def test_line_coreset_k1_always_two_extremes():
    rng = np.random.default_rng(8)
    for n in (3, 4, 7, 20, 101):
        pos = np.sort(rng.normal(0, 5, n))
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        pts = np.multiply.outer(pos, d)
        got = line_coreset_1d(pts, 1)
        npt.assert_array_equal(got, [0, n - 1])


def test_line_coreset_rejects_non_collinear():
    with pytest.raises(ValueError, match="does not lie on its assigned line"):
        line_coreset_1d(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.3]]), 2)


def test_line_coreset_far_from_the_origin():
    # The on-line test scales with the points' norms, as line_coreset_klines
    # has it, so a line fitted far out is not refused for its rounding.
    t = np.linspace(-1.0, 1.0, 9)
    base = line_coreset_1d(np.multiply.outer(t, [0.6, 0.8]), 2)
    for off in (1e8, 1e9):
        pts = np.array([off, -off / 2]) + np.multiply.outer(t, [0.6, 0.8])
        npt.assert_array_equal(line_coreset_1d(pts, 2), base)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [7, 9, 16, 33])
def test_line_coreset_and_peeling_are_translation_invariant(k, n):
    # Integer points, exact at every shift: equal gaps of 5 along the line
    # through (4, -3) with direction (3, 4) / 5, moved along it by 2^j (3, 4).
    # Positions measured from the line's anchor would round on the scale of
    # the shift and break the ties differently.
    base = np.multiply.outer(np.arange(n), [3.0, 4.0]) + [4.0, -3.0]
    lines, labels = LineSet([Line.canonical([4.0, -3.0], [3.0, 4.0])]), np.zeros(n, dtype=int)
    want = line_coreset_1d(base, k)
    want_layers = peel_partition(base, lines, labels).layers
    for j in range(10, 49, 2):
        pts = base + 2.0 ** j * np.array([3.0, 4.0])
        npt.assert_array_equal(line_coreset_1d(pts, k), want, err_msg=f"j = {j}")
        layers = peel_partition(pts, lines, labels).layers
        assert len(layers) == len(want_layers), f"j = {j}"
        for got, exp in zip(layers, want_layers):
            npt.assert_array_equal(got, exp, err_msg=f"j = {j}")


def test_line_coreset_duplicate_points():
    pts = np.zeros((5, 2))
    got = line_coreset_1d(pts, 2)
    assert 0 in got and 4 in got
    assert len(got) <= 5


def test_line_coreset_point_set_invariances():
    rng = np.random.default_rng(9)
    pos = rng.normal(0, 4, 11)
    pts = np.stack([pos, 2 * pos + 1], axis=1)   # a line in the plane
    base = line_coreset_1d(pts, 2)
    # reversing the row order selects the same points
    rev = line_coreset_1d(pts[::-1], 2)
    assert set(pos[base]) == set(pos[10 - rev])
    # negating the points selects the same indices (orientation canonicalization)
    neg = line_coreset_1d(-pts, 2)
    npt.assert_array_equal(base, neg)


def test_line_coreset_size_bound():
    rng = np.random.default_rng(10)
    for n in (10, 40, 200):
        pos = rng.normal(0, 1, n)
        pts = pos[:, None]
        for k in (1, 2, 3):
            got = line_coreset_1d(pts, k)
            assert len(got) <= coreset_size_bound(k, n)


def test_coreset_size_bound_refuses_k_below_one_and_negative_n():
    for k, n, msg in ((0, 100, "k must be positive"), (-1, 100, "k must be positive"),
                      (2, -1, "n must be non-negative")):
        with pytest.raises(ValueError, match=msg):
            coreset_size_bound(k, n)
    assert coreset_size_bound(3, 0) == 0 and coreset_size_bound(1, 100) == 2


@pytest.mark.parametrize("seed", range(8))
def test_line_coreset_cover_audit_small(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    pos = rng.normal(0, 3, n)
    pts = pos[:, None]
    for k in (1, 2):
        chosen = line_coreset_1d(pts, k)
        bad = interval_cover_violations(pos, chosen, k)
        assert not bad, f"uncovered after dilation: {bad[:3]}"


def test_line_coreset_cover_audit_adversarial_spacing():
    # geometric gaps are the classic hard case for interval covers
    pos = np.array([2.0 ** -i for i in range(10)] + [0.0])
    chosen = line_coreset_1d(pos[:, None], 2)
    assert not interval_cover_violations(pos, chosen, 2)


# ---------------------------------------------------------------------------
# k-line unions and peeling


def two_line_instance(rng, per_line=8):
    l1 = Line.canonical([0.0, 0.0], [1.0, 0.0])
    l2 = Line.canonical([0.0, 0.0], [0.0, 1.0])
    t1 = rng.normal(0, 3, per_line)
    t2 = rng.normal(0, 3, per_line)
    pts = np.vstack([np.stack([t1, np.zeros(per_line)], axis=1),
                     np.stack([np.zeros(per_line), t2], axis=1)])
    labels = np.repeat([0, 1], per_line)
    return pts, labels, LineSet([l1, l2])


def test_klines_matches_per_group_union():
    rng = np.random.default_rng(11)
    pts, labels, lines = two_line_instance(rng)
    got = line_coreset_klines(pts, lines, labels)
    g1 = line_coreset_1d(pts[:8], 2)
    g2 = line_coreset_1d(pts[8:], 2) + 8
    npt.assert_array_equal(got, np.sort(np.concatenate([g1, g2])))


def test_klines_validation():
    rng = np.random.default_rng(12)
    pts, labels, lines = two_line_instance(rng)
    with pytest.raises(ValueError):
        line_coreset_klines(pts, lines, labels[:-1])
    with pytest.raises(ValueError):
        line_coreset_klines(pts, LineSet(lines.lines[:1]), labels)   # two lines used, k=1
    off = pts.copy()
    off[0, 1] = 0.5                                   # knock a point off its line
    with pytest.raises(ValueError):
        line_coreset_klines(off, lines, labels)
    with pytest.raises(ValueError):
        line_coreset_klines(pts, ["not a line"] * 2, labels)


def test_peeling_pairs_off_collinear_points():
    pos = np.arange(10.0)
    pts = np.stack([pos, np.zeros(10)], axis=1)
    ln = Line.canonical([0.0, 0.0], [1.0, 0.0])
    part = peel_partition(pts, LineSet([ln]), np.zeros(10, dtype=np.int64))
    assert len(part.layers) == 5
    npt.assert_array_equal(part.layers[0], [0, 9])
    npt.assert_array_equal(part.layers[1], [1, 8])
    npt.assert_array_equal(part.layers[4], [4, 5])
    npt.assert_array_equal(part.layer_index, [1, 2, 3, 4, 5, 5, 4, 3, 2, 1])


def reference_peel(pts, lines, labels):
    """Peeling as a per-layer loop of k-line coresets of the remaining points,
    each line's remaining positions sorted afresh on every layer."""
    labels = np.asarray(labels)
    n = pts.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels must hold one entry per point")
    remaining = np.arange(n, dtype=np.int64)
    layers = []
    while remaining.size:
        line_coreset_klines(pts[remaining], lines, labels[remaining])   # its refusals
        layer = []
        for j, ln in enumerate(lines.lines):
            idxs = remaining[labels[remaining] == j]
            if idxs.size:
                pos = (pts[idxs] - ln.anchor) @ ln.direction
                layer.append(idxs[_coreset_1d(pos, lines.k, _sweeps(pos))])
        layers.append(np.sort(np.concatenate(layer)))
        remaining = np.setdiff1d(remaining, layers[-1], assume_unique=True)
    return PeelingPartition(layers, n)


def points_on_lines(rng, k, n, d=3, tied=False):
    lines = [Line.through(rng.normal(size=d), rng.normal(size=d)) for _ in range(k)]
    labels = rng.integers(k, size=n)
    # tied: a few distinct positions per line, so the sweeps' index
    # tie-breaks decide the order
    params = rng.integers(-3, 4, n).astype(np.float64) if tied else rng.normal(0, 3, n)
    pts = np.stack([lines[j].anchor + params[i] * lines[j].direction
                    for i, j in enumerate(labels)])
    return pts, lines, labels


@pytest.mark.parametrize("k", [1, 2, 3])
def test_peel_partition_matches_per_layer_reference(k):
    # the reference sorts the points left on every layer; peel_partition
    # sorts each line once and filters
    rng = np.random.default_rng(40 + k)
    for tied in [False] * 6 + [True] * 6:
        pts, lines, labels = points_on_lines(rng, k, int(rng.integers(5, 120)), tied=tied)
        shared = LineSet(lines)
        padded = LineSet(lines + [Line(lines[0].anchor.copy(), lines[0].direction.copy())])
        for ls in (shared, padded):
            want = reference_peel(pts, ls, labels)
            got = peel_partition(pts, ls, labels)
            assert len(got.layers) == len(want.layers)
            for a, b in zip(got.layers, want.layers):
                npt.assert_array_equal(a, b)
            npt.assert_array_equal(got.layer_index, want.layer_index)


def test_peel_partition_refusals_match_reference():
    rng = np.random.default_rng(14)
    pts, labels, lines = two_line_instance(rng)
    off = pts.copy()
    off[0, 1] = 0.5
    cases = [(pts, lines, labels[:-1]),                # length mismatch
             (pts, LineSet(lines.lines[:1]), labels),  # two lines, k = 1
             (off, lines, labels),                     # a point off its line
             (pts, lines, labels.astype(np.float64))]
    for y, ls, lab in cases:
        with pytest.raises(ValueError) as want:
            reference_peel(y, ls, lab)
        with pytest.raises(ValueError) as got:
            peel_partition(y, ls, lab)
        assert str(got.value) == str(want.value)


def test_label_refusal_messages():
    rng = np.random.default_rng(16)
    pts, labels, lines = two_line_instance(rng)
    cases = [(lines, labels[:-1], "labels must hold one entry per point"),
             (lines, np.where(labels == 1, 2, 0), "labels must lie in [0, 2)"),
             (lines, labels - 1, "labels must lie in [0, 2)"),
             (lines, labels.astype(np.float64), "labels must be integers"),
             (list(lines.lines), labels, "lines must be a LineSet")]
    for ls, lab, msg in cases:
        for fn in (peel_partition, line_coreset_klines):
            with pytest.raises(ValueError) as err:
                fn(pts, ls, lab)
            assert str(err.value) == msg


def test_canonical_order_tie_break():
    # forward sweep wins: its index sequence [0, 1, 2] beats [2, 0, 1]
    pos = np.array([0.0, 0.0, 1.0])
    order, p = _canonical_order(pos, _sweeps(pos))
    npt.assert_array_equal(order, [0, 1, 2])
    npt.assert_array_equal(p, [0.0, 0.0, 1.0])
    # reversed tie: the backward sweep [0, 1, 2] beats the forward [1, 2, 0]
    pos = np.array([1.0, 0.0, 0.0])
    order, p = _canonical_order(pos, _sweeps(pos))
    npt.assert_array_equal(order, [0, 1, 2])
    npt.assert_array_equal(p, [-1.0, 0.0, 0.0])
    # all tied: both sweeps agree and the forward one is kept
    pos = np.zeros(4)
    order, p = _canonical_order(pos, _sweeps(pos))
    npt.assert_array_equal(order, [0, 1, 2, 3])
    assert not np.signbit(p).any()
    rng = np.random.default_rng(15)
    for _ in range(200):
        pos = rng.integers(0, 4, int(rng.integers(1, 9))).astype(np.float64)
        idx = np.arange(pos.size)
        fwd = np.lexsort((idx, pos))
        rev = np.lexsort((idx, -pos))
        want = fwd if list(fwd) <= list(rev) else rev
        npt.assert_array_equal(_canonical_order(pos, _sweeps(pos))[0], want)


def test_peeling_partition_validation():
    with pytest.raises(ValueError):
        PeelingPartition([[0, 1], [1, 2]], 3)
    with pytest.raises(ValueError):
        PeelingPartition([[0, 1]], 3)
    with pytest.raises(ValueError):
        PeelingPartition([[0], []], 1)
    with pytest.raises(ValueError):
        PeelingPartition([[0, 5]], 2)


def test_klines_commutes_with_linear_map():
    rng = np.random.default_rng(13)
    # points on two lines in R^4, mapped down to R^3
    d, t = 4, 3
    for trial in range(5):
        lines = [Line.through(rng.normal(size=d), rng.normal(size=d)) for _ in range(2)]
        params = rng.normal(0, 3, (2, 9))
        pts = np.vstack([ln.anchor + np.multiply.outer(params[j], ln.direction)
                         for j, ln in enumerate(lines)])
        labels = np.repeat([0, 1], 9)
        pi = rng.normal(size=(t, d))
        proj_lines = [Line.canonical(pi @ ln.anchor, pi @ ln.direction) for ln in lines]
        before = line_coreset_klines(pts, LineSet(lines), labels)
        after = line_coreset_klines(pts @ pi.T, LineSet(proj_lines), labels)
        npt.assert_array_equal(before, after)


@st.composite
def positions_and_k(draw):
    """1-d positions, Gaussian, Cauchy (heavy-tailed) or on a few integers
    (ties), and a k from 1 to 5."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["normal", "cauchy", "ties"]))
    pos = {"normal": lambda: rng.normal(0, 3, n),
           "cauchy": lambda: rng.standard_cauchy(n),
           "ties": lambda: rng.integers(-4, 5, n).astype(np.float64)}[kind]()
    return pos, draw(st.integers(1, 5))


@settings(max_examples=200, deadline=None)
@given(case=positions_and_k())
def test_recursion_matches_two_pass_reference(case):
    # the set chosen for a range only grows with k, so the bigger-gap side's
    # k - 1 pass adds nothing
    pos, k = case
    order, p = _canonical_order(pos, _sweeps(pos))
    want = set()
    ref_recurse_1d(order, p, 0, order.shape[0], k, want)
    npt.assert_array_equal(_coreset_1d(pos, k, _sweeps(pos)), sorted(want))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3), tied=st.booleans())
def test_peel_layers_match_two_pass_reference(seed, k, tied):
    rng = np.random.default_rng(seed)
    pts, lines, labels = points_on_lines(rng, k, int(rng.integers(1, 200)), tied=tied)
    got = peel_partition(pts, LineSet(lines), labels)
    with mock.patch.object(coreset, "_recurse_1d", ref_recurse_1d):
        want = peel_partition(pts, LineSet(lines), labels)
    assert len(got.layers) == len(want.layers)
    for a, b in zip(got.layers, want.layers):
        npt.assert_array_equal(a, b)
