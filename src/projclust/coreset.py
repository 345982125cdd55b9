"""Coreset constructions: sensitivity sampling and deterministic peeling.

Two unrelated-looking constructions live here because they compose: the
deterministic recursive coreset for points on lines yields a peeling
partition whose layer numbers feed the line-sensitivity scores, and
sensitivity sampling then turns any sensitivity profile into a small
weighted proxy set with an unbiased cost estimate.
"""

import numpy as np

from . import geometry
from .geometry import LineSet
from ._rng import rng_stream
from .solvers import _fit_line

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
    extremes and the median point of the current range.  The points must lie
    on their least-squares line, the solvers' one fit, as
    :func:`line_coreset_klines` requires.
    """
    pts = geometry._points_of(y)
    k = int(k)
    if k < 1:
        raise ValueError("k must be positive")
    n = pts.shape[0]
    line = _fit_line(pts, np.ones(n))
    groups = _line_groups(pts, LineSet([line]), np.zeros(n, dtype=np.int64))
    return _klines(groups, np.ones(n, dtype=bool), k)


def _coreset_1d(positions, k, sweeps):
    """:func:`line_coreset_1d` on the points' 1-d coordinates along their
    line; ``sweeps`` is as for :func:`_canonical_order`."""
    order, pos_sorted = _canonical_order(positions, sweeps)
    chosen = set()
    _recurse_1d(order, pos_sorted, 0, order.shape[0], k, chosen)
    return np.array(sorted(chosen), dtype=np.int64)


def _sweeps(positions):
    """Both sweep orders of ``positions``, ties to the lower index."""
    idx = np.arange(positions.shape[0])
    return np.lexsort((idx, positions)), np.lexsort((idx, -positions))


def _canonical_order(positions, sweeps):
    """Sorted order that any invertible affine reparametrization reproduces.

    ``sweeps`` holds both sweep directions, as :func:`_sweeps` sorts them
    with index tie-breaks, and the one whose index sequence is
    lexicographically smaller wins; a linear map can only swap the two
    sweeps, so the chosen order is reparametrization-stable.  The sweeps may
    cover only some of the points, as indices into ``positions``; then only
    those are ordered.  Dropping points from the sweeps of all of them keeps
    the index order that breaks ties, so it yields the sweeps of the points
    left without sorting again.
    """
    fwd, rev = sweeps
    first = int(np.argmax(fwd != rev))   # 0 when the sweeps agree throughout
    if fwd[first] <= rev[first]:
        return fwd, positions[fwd]
    return rev, -positions[rev]


def _recurse_1d(order, p, a, b, k, out):
    n = b - a
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
    # The set chosen for a range only grows with k, so the bigger-gap side
    # needs no k - 1 pass of its own.
    if gap_l >= gap_r - tol:
        # bigger gap on the left: an interval bridging it swallows the rest
        # after dilation, so the right side only ever needs k - 1 intervals
        _recurse_1d(order, p, a, a + n // 2, k, out)
        _recurse_1d(order, p, mid, b, k - 1, out)
    else:
        _recurse_1d(order, p, mid + 1, b, k, out)
        _recurse_1d(order, p, a, mid + 1, k - 1, out)


def coreset_size_bound(k, n):
    """A generous ceiling on the size of :func:`line_coreset_1d` output."""
    if k < 1 or n < 0:
        raise ValueError("k must be positive and n non-negative")
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
    groups = _line_groups(pts, lines, _checked_labels(lines, labels, pts.shape[0]))
    return _klines(groups, np.ones(pts.shape[0], dtype=bool), lines.k)


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


def _line_groups(pts, lines, labels):
    """Per line with points, in line order: the indices of its points and,
    for each of them, the distance to the line, the norm and the position
    along the line, and both sweeps of the positions.  Positions are measured
    from the mean of the line's points, so their gaps round on the scale of
    the points' spread, not of their distance from the origin.  None of these
    depends on which other points are left, so peeling computes them once."""
    groups = []
    for j, ln in enumerate(lines.lines):
        idxs = np.flatnonzero(labels == j)
        if idxs.size == 0:
            continue
        sub = pts[idxs]
        pos = (sub - sub.mean(axis=0)) @ ln.direction
        groups.append((idxs,
                       np.sqrt(geometry._sq_dists_to_lines(sub, (ln,))[:, 0]),
                       np.linalg.norm(sub, axis=1),
                       pos, _sweeps(pos)))
    return groups


def _klines(groups, left, k):
    """Sorted union of the per-line 1-d coresets of the points with ``left``
    set; ``groups`` is :func:`_line_groups` of all the points.  Each line
    checks its points left against the largest norm among them."""
    out = []
    for idxs, res, norms, pos, (fwd, rev) in groups:
        keep = left[idxs]
        if not np.any(keep):
            continue
        scale = max(1.0, float(np.max(norms[keep])))
        if float(np.max(res[keep])) > _ONLINE_TOL * scale:
            raise ValueError("a point does not lie on its assigned line")
        out.append(idxs[_coreset_1d(pos, k, (fwd[keep[fwd]], rev[keep[rev]]))])
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
    groups = _line_groups(pts, lines, _checked_labels(lines, labels, n))
    left = np.ones(n, dtype=bool)
    layers = []
    while np.any(left):
        layers.append(_klines(groups, left, lines.k))
        left[layers[-1]] = False
    return PeelingPartition(layers, n)
