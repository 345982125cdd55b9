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

from . import geometry
from .coreset import peel_partition
from .geometry import (
    CenterSet, Subspace, Flat, LineSet,
    project_subspace, project_flat,
)

# Constant in the per-layer line-sensitivity term; matches the cover
# inflation factor of the peeling coresets.
PEEL_CONSTANT = 3.0


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

    def to_csv(self, path):
        """Write (index, sigma, sigma_tilde) rows with full float precision."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("index,sigma,sigma_tilde\n")
            for i in range(self.n):
                fh.write(f"{i},{float(self.sigma[i])!r},{float(self.distribution[i])!r}\n")

    def __repr__(self):
        return f"SensitivityProfile(n={self.n}, total={self.total:.6g})"


def _profile(dist, z, tail):
    """The shared profile shape  2^(z-1) * dist^z / cost + tail.

    ``dist`` holds the distances to the reference solution and ``tail`` the
    caller's per-point second term; the first term is dropped when the
    reference cost is zero.
    """
    cost = float(np.sum(dist ** z))
    sigma = np.zeros(dist.shape[0])
    if cost > 0:
        sigma += 2.0 ** (z - 1.0) * dist ** z / cost
    sigma += tail
    return SensitivityProfile(sigma)


def clustering_sensitivity(data, centers, z):
    """Sensitivity against a fixed center set.

    With a(x) the nearest center (lowest index on ties) and clusters of the
    non-empty centers only:

        sigma(x) = 2^(z-1) * dist(x, a(x))^z / cost + 2^(2z-1) / |cluster(x)|

    The first term is dropped when the reference cost is zero.  The scores
    add up to exactly ``2^(z-1) + 2^(2z-1) * k'`` (k' = non-empty clusters)
    whenever the cost is positive.
    """
    z = geometry._check_z(z)
    pts = geometry._checked_points("clustering", data, centers)
    sq = geometry._sq_dists_to_centers(pts, centers.centers)
    assign = np.argmin(sq, axis=1)
    dist = np.sqrt(np.min(sq, axis=1))
    sizes = np.bincount(assign, minlength=centers.k)
    return _profile(dist, z, 2.0 ** (2.0 * z - 1.0) / sizes[assign])


# ---------------------------------------------------------------------------
# Supremum ratios sup_u |<y_i, u>|^z / sum_j |<y_j, u>|^z


def sup_ratios(y, z, method="auto"):
    """All supremum ratios of a point set over directions of its span.

    For each index i this is  sup_u |<y_i, u>|^z / sum_j |<y_j, u>|^z  over
    nonzero directions u.  For z = 2 the supremum has a closed form (the
    statistical leverage of row i); otherwise it is found by a dense angular
    grid when the span is at most 2-dimensional and by multi-start projected
    gradient ascent above that.

    Parameters
    ----------
    y : Dataset or (n, d) array
    z : float >= 1
    method : {"auto", "leverage", "grid", "ascent"}

    Returns
    -------
    (n,) array of ratios in [0, 1].
    """
    z = geometry._check_z(z)
    pts = geometry._points_of(y)
    n = pts.shape[0]
    norms = np.linalg.norm(pts, axis=1)
    scale = float(np.max(norms))
    if scale == 0.0:
        raise ValueError("all rows are zero; the ratio is undefined")
    basis = geometry._orthonormal_rows(pts)
    p = pts @ basis.T          # span coordinates, full column rank
    r = p.shape[1]
    if method == "auto":
        if z == 2.0:
            method = "leverage"
        elif r <= 2:
            method = "grid"
        else:
            method = "ascent"
    if method == "leverage":
        if z != 2.0:
            raise ValueError("the leverage closed form applies to z = 2 only")
        g = np.linalg.pinv(p.T @ p, hermitian=True)
        out = np.einsum("ij,jk,ik->i", p, g, p)
        return np.clip(out, 0.0, 1.0)
    if method == "grid":
        if r > 2:
            raise ValueError("grid search applies to spans of dimension <= 2")
        return _sup_ratios_grid(p, z)
    if method == "ascent":
        out = np.zeros(n)
        for i in range(n):
            if norms[i] == 0.0:
                continue
            out[i] = _sup_ratio_ascent(p, i, z)
        return out
    raise ValueError(f"unknown method {method!r}")


def sup_ratio(y, i, z, method="auto"):
    """The supremum ratio for a single index; see :func:`sup_ratios`."""
    pts = geometry._points_of(y)
    i = int(i)
    if not 0 <= i < pts.shape[0]:
        raise ValueError("index out of range")
    if np.linalg.norm(pts[i]) == 0.0:
        if float(np.max(np.linalg.norm(pts, axis=1))) == 0.0:
            raise ValueError("all rows are zero; the ratio is undefined")
        return 0.0
    return float(sup_ratios(pts, z, method=method)[i])


_GRID_POINTS = 100_000
# Angles scored at once; bounds the (n, block) temporaries of the grid.
_GRID_BLOCK = 1_000


def _sup_ratios_grid(p, z):
    if p.shape[1] == 1:
        vals = np.abs(p[:, 0]) ** z
        return vals / np.sum(vals)
    theta = np.linspace(0.0, np.pi, _GRID_POINTS, endpoint=False)
    best = np.full(p.shape[0], -np.inf)
    for lo in range(0, _GRID_POINTS, _GRID_BLOCK):
        block = theta[lo:lo + _GRID_BLOCK]
        a = np.abs(p @ np.stack([np.cos(block), np.sin(block)])) ** z   # (n, block)
        np.maximum(best, np.max(a / np.sum(a, axis=0), axis=1), out=best)
    return best


def _sup_ratio_ascent(p, i, z, restarts=16, iters=200, tol=1e-4):
    """Multi-start projected gradient ascent on the unit sphere of the span.

    Deterministic (fixed internal seed).  The best value over restarts is a
    certified lower bound on the supremum; starts include the direction of
    y_i itself, which is optimal in the orthogonal case.
    """
    n, r = p.shape
    rng = np.random.default_rng(0)
    w = rng.normal(size=(restarts, r))
    w[0] = p[i]
    w /= np.linalg.norm(w, axis=1)[:, None]

    def value(wm):
        a = np.abs(p @ wm.T) ** z
        return a[i] / np.sum(a, axis=0)

    best = value(w)
    step = np.full(restarts, 0.5)
    stall = 0
    top = float(np.max(best))
    for _ in range(iters):
        a = p @ w.T                                   # (n, m)
        absa = np.abs(a)
        s = z * np.sign(a) * absa ** (z - 1.0)        # d|a|^z/da; finite for z >= 1
        az = absa ** z
        denom = np.sum(az, axis=0)
        numer = az[i]
        grad_n = s[i][:, None] * p[i][None, :]        # (m, r)
        grad_d = s.T @ p                              # (m, r)
        grad = (grad_n * denom[:, None] - numer[:, None] * grad_d) / (denom ** 2)[:, None]
        grad -= np.sum(grad * w, axis=1)[:, None] * w
        cand = w + step[:, None] * grad
        cand /= np.linalg.norm(cand, axis=1)[:, None]
        vals = value(cand)
        improved = vals > best
        step = np.where(improved, step * 1.25, step * 0.5)
        w = np.where(improved[:, None], cand, w)
        best = np.maximum(best, vals)
        new_top = float(np.max(best))
        if new_top - top <= tol * max(new_top, 1e-300):
            stall += 1
            if stall >= 10:
                break
        else:
            stall = 0
        top = new_top
    return top


def subspace_sensitivity(data, subspace, z):
    """Sensitivity against a fixed linear subspace.

    With y = the projection of x onto the subspace:

        sigma(x) = 2^(z-1) * dist(x, R)^z / cost
                 + 2^(2z-1) * sup_u |<y, u>|^z / sum |<y', u>|^z

    The first term is dropped at zero reference cost; if every projection is
    the origin the supremum term degenerates to the uniform value 1/n.
    """
    z = geometry._check_z(z)
    pts = geometry._checked_points("subspace", data, subspace)
    return _projection_profile(pts, project_subspace(pts, subspace), z, affine=False)


def flat_sensitivity(data, flat, z):
    """Sensitivity against a fixed affine flat.

    Identical in shape to :func:`subspace_sensitivity`, except the supremum
    runs over affine functionals  y -> <y, u> - phi.  Appending a constant
    coordinate 1 to the projected points turns that into the linear
    supremum one dimension up, which is how it is computed here.
    """
    z = geometry._check_z(z)
    pts = geometry._checked_points("flat", data, flat)
    return _projection_profile(pts, project_flat(pts, flat), z, affine=True)


def _projection_profile(pts, proj, z, affine):
    """The body of :func:`subspace_sensitivity` and :func:`flat_sensitivity`.

    ``proj`` holds the projections of ``pts``.  With ``affine`` the supremum
    runs over the projections lifted by a constant coordinate 1, which are
    never all zero, so only the linear case can fall back to uniform 1/n.
    """
    n = pts.shape[0]
    y = np.hstack([proj, np.ones((n, 1))]) if affine else proj
    if float(np.max(np.linalg.norm(y, axis=1))) == 0.0:
        sup = np.full(n, 1.0 / n)
    else:
        sup = sup_ratios(y, z)
    return _profile(np.linalg.norm(pts - proj, axis=1), z, 2.0 ** (2.0 * z - 1.0) * sup)


def line_sensitivity(data, lines, z):
    """Sensitivity against a fixed set of lines.

    Each point is projected onto its nearest line (lowest index on ties)
    and the projections are peeled with
    :func:`projclust.coreset.peel_partition`.  A point in layer i >= 1 is
    cheaper to represent the deeper the layer and gets the score

        sigma(x) = 2^(z-1) * dist(x, L)^z / cost + 2^(2z-1) * c / i

    with c = ``PEEL_CONSTANT``.
    """
    z = geometry._check_z(z)
    pts = geometry._checked_points("lines", data, lines)
    sq = geometry._sq_dists_to_lines(pts, lines.lines)
    labels = np.argmin(sq, axis=1)
    peel = peel_partition(geometry._project_to_lines(pts, lines.lines, labels), lines, labels)
    dist = np.sqrt(np.min(sq, axis=1))
    return _profile(dist, z, 2.0 ** (2.0 * z - 1.0) * PEEL_CONSTANT / peel.layer_index)


# ---------------------------------------------------------------------------
# Projected-residual event


def _reference_points(pts, solution):
    """The per-point reference (nearest center or projection) for a solution."""
    if isinstance(solution, CenterSet):
        a = geometry.assignment("clustering", pts, solution)
        return solution.centers[a]
    if isinstance(solution, Subspace):
        return project_subspace(pts, solution)
    if isinstance(solution, Flat):
        return project_flat(pts, solution)
    if isinstance(solution, LineSet):
        a = geometry.assignment("lines", pts, solution)
        return geometry._project_to_lines(pts, solution.lines, a)
    raise ValueError("solution must be a CenterSet, Subspace, Flat, or LineSet")


def event_e4_statistic(data, solution, pi, z, profile):
    """Sensitivity-weighted sum of projected residual distortions.

    For each point, D is the factor by which the map ``pi`` stretches the
    segment from the point to its reference on ``solution`` (D := 1 when the
    point lies on the solution).  Returns  sum_x D_x^(2z) * sigma(x).  For a
    map of target dimension ~ the usual preset this stays below
    100 * (k + 1) * 2^z with large probability.
    """
    z = geometry._check_z(z)
    pts = geometry._points_of(data)
    if profile.n != pts.shape[0]:
        raise ValueError("profile length does not match the data")
    ref = _reference_points(pts, solution)
    dist = np.linalg.norm(pts - ref, axis=1)
    pdist = np.linalg.norm((pts - ref) @ pi.matrix.T, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dist == 0.0, 1.0, pdist / np.where(dist == 0.0, 1.0, dist))
    return float(np.sum(ratio ** (2.0 * z) * profile.sigma))


def event_e4_bound(k, z):
    """The large-probability ceiling 100 * (k + 1) * 2^z for the statistic."""
    z = geometry._check_z(z)
    k = int(k)
    if k < 1:
        raise ValueError("k must be positive")
    return 100.0 * (k + 1) * 2.0 ** z
