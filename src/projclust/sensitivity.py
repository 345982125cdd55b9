"""Per-point sensitivity scores for the four problem families.

The sensitivity of a point bounds, over all candidate solutions, the share
of the total cost that the point can carry.  Sampling points with
probability proportional to sensitivity and weighting by the inverse
probability gives an unbiased cost estimator whose variance is controlled
by the total sensitivity, so these scores are the engine behind the coreset
constructions in :mod:`projclust.coreset`.

Each ``*_sensitivity`` function scores points against one fixed reference
solution (typically a constant-factor approximation); the returned profile
is valid for comparing arbitrary candidate solutions of the same family.
"""

import numpy as np

from . import geometry, jl
from .coreset import COVER_FACTOR, peel_partition


class SensitivityProfile:
    """Sensitivity scores for an ordered point set.

    Attributes
    ----------
    sigma : (n,) array
        Non-negative per-point scores (not all zero).
    total : float
        Sum of the scores.
    distribution : (n,) array
        ``sigma / total``; sums to 1 and is the sampling distribution.
    """

    def __init__(self, sigma):
        s = np.asarray(sigma, dtype=np.float64)
        if s.ndim != 1 or s.shape[0] < 1:
            raise ValueError("sigma must be a non-empty 1-d array")
        if not np.all(np.isfinite(s)):
            raise ValueError("sigma must be finite")
        if np.any(s < 0):
            raise ValueError("sigma must be non-negative")
        total = float(np.sum(s))
        if total <= 0:
            raise ValueError("sigma must have positive total")
        self.sigma = geometry._freeze(s)
        self.total = total
        self.distribution = geometry._freeze(s / total)
        self.n = s.shape[0]

    def __repr__(self):
        return f"SensitivityProfile(n={self.n}, total={self.total:.6g})"


def _sensitivity(problem, data, solution, z):
    """The body of the four ``*_sensitivity`` functions:

        sigma(x) = 2^(z-1) * dist(x)^z / cost + 2^(2z-1) * tail(x),

    the distances and labels from one :func:`geometry._match` of the rows to
    ``solution``; the problem picks the tail, which reads the cluster sizes or
    the rows' feet, and the first term is dropped when the reference cost is
    zero.
    """
    z = geometry._check_z(z)
    pts = geometry._checked_points(problem, data, solution)
    labels, dist = geometry._match(problem, pts, solution)
    feet = None if problem == "clustering" else geometry._feet(problem, pts, solution, labels)
    n, lead = pts.shape[0], 2.0 ** (2.0 * z - 1.0)
    if problem == "clustering":
        tail = lead / np.bincount(labels, minlength=solution.k)[labels]
    elif problem == "lines":
        tail = lead * COVER_FACTOR / peel_partition(feet, solution, labels).layer_index
    else:   # the lifted projections of a flat are never all at the origin
        y = np.hstack([feet, np.ones((n, 1))]) if problem == "flat" else feet
        tail = lead * (sup_ratios(y, z) if np.any(y) else np.full(n, 1.0 / n))
    cost = float(np.sum(dist ** z))
    head = 2.0 ** (z - 1.0) * dist ** z / cost if cost > 0 else 0.0
    return SensitivityProfile(head + tail)


def clustering_sensitivity(data, centers, z):
    """Sensitivity against a fixed center set.

    With a(x) the nearest center (lowest index on ties) and clusters of the
    non-empty centers only:

        sigma(x) = 2^(z-1) * dist(x, a(x))^z / cost + 2^(2z-1) / |cluster(x)|

    The first term is dropped when the reference cost is zero.  The scores
    add up to exactly ``2^(z-1) + 2^(2z-1) * k'`` (k' = non-empty clusters)
    whenever the cost is positive.
    """
    return _sensitivity("clustering", data, centers, z)


# ---------------------------------------------------------------------------
# Supremum ratios sup_u |<y_i, u>|^z / sum_j |<y_j, u>|^z


def sup_ratios(y, z):
    """Upper bounds on the supremum ratios of a point set over its span.

    For each index i the ratio is  sup_u |<y_i, u>|^z / sum_j |<y_j, u>|^z
    over nonzero directions u of the span.  Rows with no component in the
    span score 0.  With q the span coordinates of the rows that have a
    component in it and any weights w > 0, let

        v_i(w) = (q_i^T (q^T diag(w^(1 - 2/z)) q)^+ q_i)^(z/2).

    Cauchy-Schwarz in the diag(w^(1 - 2/z)) norm, then Hoelder, bound the
    ratio of row i by  v_i * (sum_j w_j)^(z/2 - 1)  for z >= 2 and by
    v_i * max_j (v_j / w_j)^(2/z - 1)  for z <= 2.  At z = 2 both are the
    leverage score of row i, exactly, whatever w.  At the l_z Lewis weights
    (Cohen & Peng, "lp row sampling by Lewis weights", STOC 2015) they are
    r^(z/2 - 1) * w_i and w_i, r the dimension of the span, and for z <= 2
    they sum to r; see :func:`_certified_bound` for the iteration that
    approaches them.

    Parameters
    ----------
    y : Dataset or (n, d) array
    z : float >= 1

    Returns
    -------
    (n,) array of values in [0, 1].
    """
    z = geometry._check_z(z)
    pts = geometry._points_of(y)
    if not np.any(pts):
        raise ValueError("all rows are zero; the ratio is undefined")
    p = pts @ geometry._orthonormal_rows(pts).T     # span coordinates, full column rank
    rows = np.any(p != 0.0, axis=1)
    out = np.zeros(pts.shape[0])
    # The ratios do not change under an invertible map of the coordinates;
    # orthonormal columns keep the weighted Gram matrices well conditioned
    # where p is not (say, the lift of a flat far from the origin).
    out[rows] = _certified_bound(np.linalg.qr(p[rows])[0], z)
    return np.clip(out, 0.0, 1.0)


# Largest change of log w at which the weight iteration stops.
_BOUND_TOL = 1e-12
# Round cap of the weight iteration; any stopping point still certifies.
_BOUND_ROUNDS = 200


def _powered_leverage(q, w, z):
    """v(w) of :func:`sup_ratios`, with the weighted rows scaled by w^(1/2 - 1/z)."""
    qs = q * (w ** (0.5 - 1.0 / z))[:, None]
    g = np.linalg.pinv(qs.T @ qs, hermitian=True)
    return np.einsum("ij,jk,ik->i", q, g, q) ** (z / 2.0)


def _certified_bound(q, z):
    """The bound of :func:`sup_ratios` on the rows of q (no zero rows, full column rank).

    Starts from the uniform weights r/n and steps  w <- w^a * v(w)^(1 - a)
    with a = (z - 2)/(z + 2), whose fixed point is the Lewis weights.
    Linearised, the step contracts by |z - 2|/(z + 2) < 1 at every z >= 1
    (Cohen & Peng's plain step, a = 0, diverges from z = 4 on).  Weights
    are floored at the smallest normal double, so an underflowing weight
    stays positive.  The rounds stop once the largest change of log w is
    at most ``_BOUND_TOL`` or after ``_BOUND_ROUNDS``; the bound holds at
    whichever w they stop.
    """
    n, r = q.shape
    a = (z - 2.0) / (z + 2.0)
    w = np.full(n, r / n)
    v = _powered_leverage(q, w, z)
    for _ in range(_BOUND_ROUNDS):
        new = np.maximum(w ** a * v ** (1.0 - a), np.finfo(np.float64).tiny)
        if float(np.max(np.abs(np.log(new) - np.log(w)))) <= _BOUND_TOL:
            break
        w = new
        v = _powered_leverage(q, w, z)
    if z >= 2.0:
        return v * float(np.sum(w)) ** (z / 2.0 - 1.0)
    return v * float(np.max(v / w)) ** (2.0 / z - 1.0)


def subspace_sensitivity(data, subspace, z):
    """Sensitivity against a fixed linear subspace.

    With y = the projection of x onto the subspace:

        sigma(x) = 2^(z-1) * dist(x, R)^z / cost
                 + 2^(2z-1) * sup_u |<y, u>|^z / sum |<y', u>|^z

    The supremum term is :func:`sup_ratios`: the exact leverage score at
    z = 2 and a certified upper bound at every other z >= 1.  The first
    term is dropped at zero reference cost; if every projection is the
    origin the supremum term degenerates to the uniform value 1/n.
    """
    return _sensitivity("subspace", data, subspace, z)


def flat_sensitivity(data, flat, z):
    """Sensitivity against a fixed affine flat.

    Identical in shape to :func:`subspace_sensitivity`, except the supremum
    runs over affine functionals  y -> <y, u> - phi.  Appending a constant
    coordinate 1 to the projected points turns that into the linear
    supremum one dimension up, which is how it is computed here; the
    supremum term is the :func:`sup_ratios` bound of the lifted points.
    """
    return _sensitivity("flat", data, flat, z)


def line_sensitivity(data, lines, z):
    """Sensitivity against a fixed set of lines.

    Each point is projected onto its nearest line (lowest index on ties)
    and the projections are peeled with
    :func:`projclust.coreset.peel_partition`.  A point in layer i >= 1 is
    cheaper to represent the deeper the layer and gets the score

        sigma(x) = 2^(z-1) * dist(x, L)^z / cost + 2^(2z-1) * c / i

    with c = ``coreset.COVER_FACTOR``, the peeling's cover inflation factor.
    """
    return _sensitivity("lines", data, lines, z)


# ---------------------------------------------------------------------------
# Projected-residual event


def event_e4_statistic(data, solution, pi, z, profile):
    """Sensitivity-weighted sum of projected residual distortions.

    For each point, D is the factor by which the map ``pi`` stretches the
    segment from the point to its reference on ``solution`` (D := 1 when the
    point lies on the solution).  Returns  sum_x D_x^(2z) * sigma(x).  For a
    map of target dimension ~ the usual preset this stays below
    100 * (k + 1) * 2^z with large probability.  A map whose input dimension
    is not the data's raises ValueError, as :func:`projclust.jl.apply` does.
    """
    z = geometry._check_z(z)
    problem = next((p for p, shape in geometry._SHAPE_TYPES.items()
                    if isinstance(solution, shape)), None)
    if problem is None:
        raise ValueError("solution must be a CenterSet, Subspace, Flat, or LineSet")
    pts = geometry._checked_points(problem, data, solution)
    if profile.n != pts.shape[0]:
        raise ValueError("profile length does not match the data")
    labels = (geometry._match(problem, pts, solution)[0]
              if problem in ("clustering", "lines") else None)
    res = pts - geometry._feet(problem, pts, solution, labels)
    dist = np.linalg.norm(res, axis=1)
    pdist = np.linalg.norm(jl.apply(pi, res), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dist == 0.0, 1.0, pdist / np.where(dist == 0.0, 1.0, dist))
    return float(np.sum(ratio ** (2.0 * z) * profile.sigma))


def event_e4_bound(k, z):
    """The large-probability ceiling 100 * (k + 1) * 2^z for the statistic."""
    z = geometry._check_z(z)
    k = geometry._check_count("k", k)
    return 100.0 * (k + 1) * 2.0 ** z
