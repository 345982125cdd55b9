"""Coreset constructions: sensitivity sampling and deterministic peeling.

Two unrelated-looking constructions live here because they compose: the
deterministic recursive coreset for points on lines yields a peeling
partition whose layer numbers feed the line-sensitivity scores, and
sensitivity sampling then turns any sensitivity profile into a small
weighted proxy set with an unbiased cost estimate.
"""

import numpy as np

from . import geometry
from .geometry import LineSet, project_line
from ._rng import rng_stream

# Inflating a covering interval (or cylinder radius) by this factor is what
# the recursive construction guarantees to survive.
COVER_FACTOR = 3.0

# Relative tolerance on gap comparisons in the recursion: near-ties branch
# left, so exact ties and their images under a linear map branch alike.
_TIE_REL = 1e-9

_ONLINE_TOL = 1e-9


class Coreset:
    """Indices into a dataset with multiplicative weights."""

    def __init__(self, indices, weights):
        idx = np.asarray(indices, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        if idx.ndim != 1 or idx.shape != w.shape or idx.size < 1:
            raise ValueError("indices and weights must be equal-length non-empty 1-d arrays")
        if np.any(idx < 0):
            raise ValueError("indices must be non-negative")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be positive and finite")
        self.indices = idx.copy()
        self.indices.setflags(write=False)
        self.weights = geometry._freeze(w)
        self.m = idx.size

    def extract(self, data):
        """The weighted point set this coreset selects from ``data``."""
        pts = geometry._points_of(data)
        if np.max(self.indices) >= pts.shape[0]:
            raise ValueError("coreset indices out of range for this dataset")
        return geometry.WeightedSet(pts[self.indices], self.weights)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("index,weight\n")
            for i in range(self.m):
                fh.write(f"{int(self.indices[i])},{float(self.weights[i])!r}\n")

    def __repr__(self):
        return f"Coreset(m={self.m})"


def sensitivity_sample(data, profile, m, seed, stream=0):
    """Draw m points i.i.d. from a sensitivity distribution.

    Point x is drawn with probability sigma_tilde(x) and, when drawn, gets
    weight 1 / (m * sigma_tilde(x)), which makes the weighted cost of the
    sample an unbiased estimator of the cost of ``data`` for every fixed
    candidate solution.
    """
    pts = geometry._points_of(data)
    m = int(m)
    if m < 1:
        raise ValueError("m must be positive")
    if profile.n != pts.shape[0]:
        raise ValueError("profile length does not match the data")
    rng = rng_stream(seed, stream)
    idx = rng.choice(profile.n, size=m, p=profile.distribution)
    w = 1.0 / (m * profile.distribution[idx])
    return Coreset(idx, w)


# ---------------------------------------------------------------------------
# Deterministic coresets for points on lines


def line_coreset_1d(y, k):
    """Indices of a small subset Q of collinear points such that any k
    intervals covering Q, once dilated by ``COVER_FACTOR`` about their
    centers, cover all of ``y``.

    For k = 1 the two extreme points suffice; in general the set has size
    O(log n)^k via a halving recursion that keeps, at every level, the two
    extremes and the median point of the current range.
    """
    pts = geometry._points_of(y)
    k = int(k)
    if k < 1:
        raise ValueError("k must be positive")
    n = pts.shape[0]
    if n <= 2:
        return np.arange(n, dtype=np.int64)
    return _coreset_1d(_collinear_positions(pts), k)


def _coreset_1d(positions, k):
    """:func:`line_coreset_1d` on the points' 1-d coordinates along their line."""
    order, pos_sorted = _canonical_order(positions)
    chosen = set()
    _recurse_1d(order, pos_sorted, 0, positions.shape[0], k, chosen)
    return np.array(sorted(chosen), dtype=np.int64)


def _collinear_positions(pts):
    """1-d coordinates of collinear points; raises if they are not collinear."""
    center = pts.mean(axis=0)
    c = pts - center
    _, s, vt = np.linalg.svd(c, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros(pts.shape[0])
    direction = vt[0]
    positions = c @ direction
    residual = c - np.multiply.outer(positions, direction)
    scale = float(np.max(np.abs(positions)))
    if float(np.max(np.linalg.norm(residual, axis=1))) > _ONLINE_TOL * max(1.0, scale):
        raise ValueError("points are not collinear")
    return positions


def _canonical_order(positions):
    """Sorted order that any invertible affine reparametrization reproduces.

    Both sweep directions are sorted with index tie-breaks and the one whose
    index sequence is lexicographically smaller wins; a linear map can only
    swap the two sweeps, so the chosen order is reparametrization-stable.
    """
    idx = np.arange(positions.shape[0])
    fwd = np.lexsort((idx, positions))
    rev = np.lexsort((idx, -positions))
    first = int(np.argmax(fwd != rev))   # 0 when the sweeps agree throughout
    if fwd[first] <= rev[first]:
        return fwd, positions[fwd]
    return rev, -positions[rev]


def _recurse_1d(order, p, a, b, k, out):
    n = b - a
    if n <= 0:
        return
    if n <= 2:
        for j in range(a, b):
            out.add(int(order[j]))
        return
    if k == 1:
        out.add(int(order[a]))
        out.add(int(order[b - 1]))
        return
    mid = a + (n + 1) // 2 - 1          # the ceil(n/2)-th point of the range
    out.add(int(order[a]))
    out.add(int(order[mid]))
    out.add(int(order[b - 1]))
    gap_l = p[mid] - p[a]
    gap_r = p[b - 1] - p[mid]
    tol = _TIE_REL * max(gap_l, gap_r, 0.0)
    if gap_l >= gap_r - tol:
        # bigger gap on the left: an interval bridging it swallows the rest
        # after dilation, so the right side only ever needs k - 1 intervals
        _recurse_1d(order, p, a, a + n // 2, k, out)
        _recurse_1d(order, p, a, a + n // 2, k - 1, out)
        _recurse_1d(order, p, mid, b, k - 1, out)
    else:
        _recurse_1d(order, p, mid + 1, b, k, out)
        _recurse_1d(order, p, mid + 1, b, k - 1, out)
        _recurse_1d(order, p, a, mid + 1, k - 1, out)


def coreset_size_bound(k, n):
    """A generous ceiling on the size of :func:`line_coreset_1d` output."""
    if n <= 2:
        return n
    if k == 1:
        return 2
    return (16.0 * max(np.log2(n), 1.0)) ** k


def line_coreset_klines(y, lines, labels):
    """Coreset of points lying on the lines of a :class:`LineSet`.

    Point i lies on ``lines.lines[labels[i]]`` (verified to within a
    relative 1e-9).  The result is the union of the per-line 1-d coresets
    for k = ``lines.k``, and it commutes with any linear map that is
    injective on each line.
    """
    pts = geometry._points_of(y)
    return _klines(pts, lines, _checked_labels(lines, labels, pts.shape[0]))


def _checked_labels(lines, labels, n):
    """``labels`` as an int array, once ``lines`` is checked to be a
    :class:`LineSet` and ``labels`` to hold one line number per point."""
    if not isinstance(lines, LineSet):
        raise ValueError("lines must be a LineSet")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError("labels must hold one entry per point")
    if labels.dtype.kind not in "iu":
        raise ValueError("labels must be integers")
    if labels.min() < 0 or labels.max() >= lines.k:
        raise ValueError(f"labels must lie in [0, {lines.k})")
    return labels


def _klines(pts, lines, labels):
    """Sorted union of the per-line 1-d coresets; point i lies on
    ``lines.lines[labels[i]]``.  Lines with no points are skipped."""
    out = []
    for j, ln in enumerate(lines.lines):
        idxs = np.flatnonzero(labels == j)
        if idxs.size == 0:
            continue
        sub = pts[idxs]
        res = np.linalg.norm(sub - project_line(sub, ln), axis=1)
        scale = max(1.0, float(np.max(np.linalg.norm(sub, axis=1))))
        if float(np.max(res)) > _ONLINE_TOL * scale:
            raise ValueError("a point does not lie on its assigned line")
        out.append(idxs[_coreset_1d((sub - ln.anchor) @ ln.direction, lines.k)])
    return np.sort(np.concatenate(out)).astype(np.int64, copy=False)


class PeelingPartition:
    """Disjoint layers covering all indices; layer 1 is the outermost coreset."""

    def __init__(self, layers, n):
        n = int(n)
        layer_index = np.zeros(n, dtype=np.int64)
        clean = []
        seen = 0
        for li, idx in enumerate(layers, start=1):
            idx = np.asarray(idx, dtype=np.int64)
            if idx.size == 0:
                raise ValueError("layers must be non-empty")
            if idx.min() < 0 or idx.max() >= n:
                raise ValueError("layer indices out of range")
            if np.any(layer_index[idx] != 0):
                raise ValueError("layers are not disjoint")
            layer_index[idx] = li
            seen += idx.size
            frozen = np.sort(idx)
            frozen.setflags(write=False)
            clean.append(frozen)
        if seen != n:
            raise ValueError("layers must cover every index exactly once")
        self.layers = tuple(clean)
        self.n = n
        self.layer_index = layer_index
        self.layer_index.setflags(write=False)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("index,layer\n")
            for i in range(self.n):
                fh.write(f"{i},{int(self.layer_index[i])}\n")

    def __repr__(self):
        return f"PeelingPartition(n={self.n}, layers={len(self.layers)})"


def peel_partition(y, lines, labels):
    """Repeatedly strip the k-line coreset off the remaining points.

    Point i lies on ``lines.lines[labels[i]]``, as for
    :func:`line_coreset_klines`.  Each successive layer is the coreset of
    what is left, so earlier layers hold the structurally indispensable
    points; the layer number feeds the line-sensitivity scores.
    """
    pts = geometry._points_of(y)
    n = pts.shape[0]
    labels = _checked_labels(lines, labels, n)
    remaining = np.arange(n, dtype=np.int64)
    layers = []
    while remaining.size:
        local = _klines(pts[remaining], lines, labels[remaining])
        layer = remaining[local]
        layers.append(layer)
        remaining = np.setdiff1d(remaining, layer, assume_unique=True)
    return PeelingPartition(layers, n)
