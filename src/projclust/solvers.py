"""Reference solvers for the four problem families.

:func:`solve` is the one public solver.  It checks the problem, ``method``,
``k``, ``z``, ``restarts`` and ``seed`` once, reads the points and weights of
a Dataset, WeightedSet or raw array, and hands them to a private body that
keeps only its own limits.  Clustering and lines get exact answers by
partition enumeration at small n and deterministic multi-restart local search
otherwise; subspace and flat use their closed form at z = 2 and descent at any
other z, whatever the method.  Every solve returns a :class:`SolveReport`
whose stated cost is re-evaluated through :func:`projclust.geometry.cost_pow`,
so reports are comparable across methods.
"""

import numpy as np

from . import geometry
from .geometry import WeightedSet, CenterSet, Subspace, Flat, Line, LineSet
from ._rng import rng_stream

EXACT_CLUSTERING_MAX_N = 14
EXACT_LINES_MAX_N = 12
# Sampled starts tried besides the z = 2 solution when z != 2.
_SUBSPACE_CANDIDATES = 30
_FLAT_ANCHORS = 10
# method="auto" enumerates partitions only at z = 2 and up to this n, for
# both problems.  The line enumerator supports z = 2 alone.  The clustering
# one needs a center solve per distinct block (up to 2^n of them), which for
# z != 2 is an iterative one: at n = 12, k = 3 an exact solve took 2-3 s at
# z = 1 and 0.4-0.5 s at z = 1.3 on a 2-core host, against 0.15 s and 0.06 s
# for the heuristic at the same cost.  method="exact" still enumerates at any z,
# up to EXACT_CLUSTERING_MAX_N.
_AUTO_EXACT_MAX_N = 12


class SolveReport:
    """Outcome of one solve: the solution plus bookkeeping.

    ``cost`` is always ``cost_pow ** (1/z)`` for the z the solver ran with.
    """

    def __init__(self, solution, cost, cost_pow, method, restarts, converged):
        self.solution = solution
        self.cost = float(cost)
        self.cost_pow = float(cost_pow)
        self.method = str(method)
        self.restarts = int(restarts)
        self.converged = bool(converged)

    def __repr__(self):
        return (f"SolveReport(method={self.method!r}, cost={self.cost:.6g}, "
                f"restarts={self.restarts}, converged={self.converged})")


def _report(problem, data, solution, z, method, restarts, converged):
    cp = geometry.cost_pow(problem, data, solution, z)
    return SolveReport(solution, cp ** (1.0 / z), cp, method, restarts, converged)


# ---------------------------------------------------------------------------
# Single-center subproblem


def _weighted_median_1d(x, w):
    order = np.argsort(x, kind="stable")
    cw = np.cumsum(w[order])
    half = 0.5 * cw[-1]
    i = int(np.searchsorted(cw, half))
    return float(x[order[min(i, len(x) - 1)]])


def _weiszfeld(pts, w, max_iter=10_000, tol=1e-10):
    """Weighted geometric median by iteratively reweighted averaging."""
    c = np.average(pts, axis=0, weights=w)
    prev = np.inf
    for _ in range(max_iter):
        diff = pts - c
        dist = np.linalg.norm(diff, axis=1)
        if np.any(dist == 0.0):
            # nudge off a data point so the iteration stays defined
            c = c + 1e-12 * (1.0 + np.abs(c))
            diff = pts - c
            dist = np.linalg.norm(diff, axis=1)
        inv = w / dist
        c = (inv[:, None] * pts).sum(axis=0) / inv.sum()
        val = float(np.sum(w * np.linalg.norm(pts - c, axis=1)))
        if prev - val < tol * max(val, 1e-300):
            break
        prev = val
    return c


def _descend(x, cost, grad, move, max_iter, tol):
    """Backtracking gradient descent from ``x``; returns (x, cost(x), converged).

    ``move(x, g, gnorm, step)`` is the candidate one step of size ``step``
    against the gradient ``g`` (of norm ``gnorm``) reaches.  A candidate that
    does not lower the cost halves the step, up to 40 times; an accepted one
    grows it by 1.5.  Stops at a zero gradient, when no step helps, or when
    the relative gain falls below ``tol``; ``converged`` is False only when
    ``max_iter`` steps ran out first.
    """
    val = cost(x)
    step = 1.0
    for _ in range(max_iter):
        g = grad(x)
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            return x, val, True
        for _ in range(40):
            cand = move(x, g, gnorm, step)
            cval = cost(cand)
            if cval < val:
                break
            step *= 0.5
        else:               # no step lowered the cost
            return x, val, True
        x, old, val = cand, val, cval
        step *= 1.5
        if old - val < tol * max(val, 1e-300):
            return x, val, True
    return x, val, False


def _descent_center(pts, w, z, max_iter=500, tol=1e-8):
    """Gradient descent with backtracking on the convex power-z center cost."""

    def cost(c):
        return float(np.sum(w * np.linalg.norm(pts - c, axis=1) ** z))

    def grad(c):
        diff = c - pts
        dist = np.linalg.norm(diff, axis=1)
        away = dist > 0
        # a point on the center gets coefficient 0; its 1.0 keeps z < 2 from dividing by 0
        coef = np.where(away, z * np.where(away, dist, 1.0) ** (z - 2.0), 0.0) * w
        return (coef[:, None] * diff).sum(axis=0)

    return _descend(np.average(pts, axis=0, weights=w), cost, grad,
                    lambda c, g, gnorm, step: c - step * g / max(gnorm, 1.0),
                    max_iter, tol)[0]


def opt_center(pts, z, weights=None):
    """The best single center for a weighted point set under power z."""
    pts = geometry._points_of(pts)
    w = np.ones(pts.shape[0]) if weights is None else np.asarray(weights, dtype=np.float64)
    z = geometry._check_z(z)
    if pts.shape[0] == 1:
        return pts[0].copy()
    if z == 2.0:
        return np.average(pts, axis=0, weights=w)
    if z == 1.0:
        if pts.shape[1] == 1:
            return np.array([_weighted_median_1d(pts[:, 0], w)])
        return _weiszfeld(pts, w)
    return _descent_center(pts, w, z)


# ---------------------------------------------------------------------------
# Shared engines: partition search, alternating assign/refit, restarts


def _best_partition(n, k, block_cost):
    """Blocks (index lists) of the cheapest partition of range(n) into <= k blocks.

    Branch-and-bound over canonical set partitions.  ``block_cost(indices)``
    is called for blocks of two or more points (a singleton costs 0) and must
    not decrease as points join a block, so subtrees whose partial cost
    reaches the incumbent are pruned.  Block costs are memoised by membership.
    """
    memo = {}
    best = [np.inf, None]
    blocks, masks, costs = [], [], []

    def dfs(i, partial):
        if partial >= best[0]:
            return
        if i == n:
            best[0] = partial
            best[1] = [list(b) for b in blocks]
            return
        for b in range(len(blocks)):
            old_mask, old_cost = masks[b], costs[b]
            blocks[b].append(i)
            masks[b] = old_mask | (1 << i)
            got = memo.get(masks[b])
            if got is None:
                got = memo[masks[b]] = block_cost(blocks[b])
            costs[b] = got
            dfs(i + 1, partial - old_cost + costs[b])
            blocks[b].pop()
            masks[b], costs[b] = old_mask, old_cost
        if len(blocks) < k:
            blocks.append([i])
            masks.append(1 << i)
            costs.append(0.0)
            dfs(i + 1, partial)
            blocks.pop()
            masks.pop()
            costs.pop()

    dfs(0, 0.0)
    return best[1]


def _alternate(pts, w, shapes, sq_dists, refit, revive):
    """Alternate nearest-shape assignment with per-group refits.

    ``sq_dists(pts, shapes)`` is the (n, k) squared-distance matrix; ties go
    to the lowest index.  A shape whose group is empty is replaced by
    ``revive(point, shape)`` at the worst-served point; a non-empty group
    gets ``refit(group_pts, group_w, shape)``.  Stops when an assignment
    repeats, or after 100 rounds.  Returns (shapes, converged).
    """
    shapes = list(shapes)
    prev = None
    for _ in range(100):
        sq = sq_dists(pts, shapes)
        assign = np.argmin(sq, axis=1)
        for b in range(len(shapes)):
            if not np.any(assign == b):
                far = int(np.argmax(np.sqrt(np.min(sq, axis=1))))
                shapes[b] = revive(pts[far], shapes[b])
                sq = sq_dists(pts, shapes)
                assign = np.argmin(sq, axis=1)
        if prev is not None and np.array_equal(assign, prev):
            return shapes, True
        prev = assign
        shapes = [refit(pts[assign == b], w[assign == b], shapes[b])
                  if np.any(assign == b) else shapes[b]
                  for b in range(len(shapes))]
    return shapes, False


def _best_of_restarts(problem, data, z, restarts, fit, method):
    """Report on the cheapest ``fit(r)`` over r < restarts.

    ``fit(r)`` returns (solution, converged); the first restart wins ties.
    """
    best = (np.inf, None, False)
    for r in range(restarts):
        sol, converged = fit(r)
        cp = geometry.cost_pow(problem, data, sol, z)
        if cp < best[0]:
            best = (cp, sol, converged)
    return _report(problem, data, best[1], z, method, restarts, best[2])


# ---------------------------------------------------------------------------
# Clustering


def _clustering_exact(data, pts, w, k, z):
    """Optimal power-z clustering by canonical partition enumeration.

    Branch-and-bound over set partitions into at most k blocks; partial
    costs only grow as points join blocks, so subtrees above the incumbent
    are pruned.  Refuses n > EXACT_CLUSTERING_MAX_N.
    """
    n = pts.shape[0]
    if n > EXACT_CLUSTERING_MAX_N:
        raise ValueError(
            f"exact clustering is limited to n <= {EXACT_CLUSTERING_MAX_N}, got n = {n}")
    if k >= n:
        sol = CenterSet(pts)
        return _report("clustering", data, sol, z, "partition-enumeration", 0, True)

    def block_cost(idx):
        bw = w[idx]
        bp = pts[idx]
        if z != 2.0:
            c = opt_center(bp, z, bw)
            return float(np.sum(bw * np.linalg.norm(bp - c, axis=1) ** z))
        s = bw @ bp
        return max(float(bw @ np.sum(bp * bp, axis=1) - (s @ s) / bw.sum()), 0.0)

    blocks = _best_partition(n, k, block_cost)
    centers = np.vstack([opt_center(pts[idx], z, w[idx]) for idx in blocks])
    sol = CenterSet(centers)
    return _report("clustering", data, sol, z, "partition-enumeration", 0, True)


def _dz_seed(pts, w, k, z, rng):
    """Cost-proportional seeding: each new center drawn by current power-z cost."""
    n = pts.shape[0]
    centers = [pts[int(rng.integers(n))]]
    dist = np.full(n, np.inf)      # distance to the nearest center so far
    for _ in range(k - 1):
        dist = np.minimum(dist, np.linalg.norm(pts - centers[-1], axis=1))
        p = w * dist ** z
        tot = p.sum()
        if tot <= 0:
            centers.append(pts[int(rng.integers(n))])
        else:
            centers.append(pts[int(rng.choice(n, p=p / tot))])
    return np.vstack(centers)


def _lloyd(data, pts, w, k, z, restarts, seed):
    """Generalized Lloyd iteration with cost-proportional seeding.

    Restart r draws its seeding from stream r of ``seed``, so results are
    reproducible and independent of evaluation order.  Empty clusters are
    re-seeded from the point with the largest current distance.
    """
    if k >= pts.shape[0]:
        sol = CenterSet(pts)
        return _report("clustering", data, sol, z, "lloyd-multirestart", restarts, True)

    def fit(r):
        centers, converged = _alternate(
            pts, w, _dz_seed(pts, w, k, z, rng_stream(seed, r)),
            lambda p, cs: geometry._sq_dists_to_centers(p, np.vstack(cs)),
            lambda gp, gw, c: opt_center(gp, z, gw),
            lambda far, c: far)
        return CenterSet(np.vstack(centers)), converged

    return _best_of_restarts("clustering", data, z, restarts, fit, "lloyd-multirestart")


# ---------------------------------------------------------------------------
# Subspace and flat


def _weighted_pca_basis(pts, w, k):
    """Top-k right singular directions of the sqrt-weighted point matrix."""
    scaled = pts * np.sqrt(w)[:, None]
    _, _, vt = np.linalg.svd(scaled, full_matrices=True)
    return vt[:k]


def _subspace_cost(pts, w, basis, z):
    res_sq = np.maximum(np.sum(pts * pts, axis=1) - np.sum((pts @ basis.T) ** 2, axis=1), 0.0)
    return float(np.sum(w * res_sq ** (z / 2.0)))


def _grassmann_descent(pts, w, basis, z, max_iter=200, tol=1e-8):
    """Projected gradient descent over orthonormal k-frames."""
    scale = float(np.max(np.linalg.norm(pts, axis=1)))
    floor = 1e-12 * max(scale, 1.0)

    def grad(b):
        res_sq = np.maximum(
            np.sum(pts * pts, axis=1) - np.sum((pts @ b.T) ** 2, axis=1), 0.0)
        coef = w * np.maximum(np.sqrt(res_sq), floor) ** (z - 2.0)
        return -z * (b @ (pts.T * coef) @ pts)

    def retract(b, g, gnorm, step):
        q, _ = np.linalg.qr((b - step * g / gnorm).T)
        return q.T[: b.shape[0]]

    return _descend(basis.copy(), lambda b: _subspace_cost(pts, w, b, z), grad,
                    retract, max_iter, tol)


def _subspace(data, pts, w, k, z):
    """Best k-dimensional linear subspace.

    Exact for z = 2 (top singular directions).  For other z, spans of
    sampled k-point subsets plus the z = 2 solution are scored and the best
    few are polished by gradient descent over orthonormal frames; this is a
    heuristic with no optimality guarantee.  ``converged`` is that of the
    winning descent.
    """
    n, d = pts.shape
    if k >= d:
        raise ValueError("need 1 <= k < d (a full-dimensional subspace is trivial)")
    svd_basis = _weighted_pca_basis(pts, w, k)
    if z == 2.0:
        sol = Subspace(svd_basis)
        return _report("subspace", data, sol, z, "svd", 0, True)
    pool = [svd_basis]
    rng = np.random.default_rng(0)   # internal, fixed: results are deterministic
    for _ in range(_SUBSPACE_CANDIDATES):
        idx = rng.choice(n, size=min(k, n), replace=False)
        basis = geometry._orthonormal_rows(pts[idx])
        if basis.shape[0] < k:
            filler = geometry._orthonormal_rows(
                np.vstack([basis, rng.normal(size=(k - basis.shape[0], d))]))
            basis = filler
        pool.append(basis[:k])
    scored = sorted(pool, key=lambda b: _subspace_cost(pts, w, b, z))
    best_b, best_v, converged = None, np.inf, False
    for b in scored[:3]:
        rb, rv, rc = _grassmann_descent(pts, w, b, z)
        if rv < best_v:
            best_b, best_v, converged = rb, rv, rc
    sol = Subspace(geometry._orthonormal_rows(best_b))
    if sol.dim < k:   # guard against a rank drop during refinement
        sol = Subspace(_weighted_pca_basis(pts, w, k))
    return _report("subspace", data, sol, z, "span-search+descent", 0, converged)


def _complement_basis(basis, d):
    # Columns k..d-1 of the full Q factor span the orthogonal complement.
    q, _ = np.linalg.qr(basis.T, mode="complete")
    return q[:, basis.shape[0]:].T


def _flat(data, pts, w, k, z):
    """Best k-dimensional affine flat.

    Exact for z = 2: the flat through the weighted centroid spanned by the
    top principal directions.  For other z, alternates an optimal
    translation (a single-center problem in the orthogonal complement) with
    direction descent, starting from the z = 2 solution and a few sampled
    anchors.  ``converged`` says whether the winning alternation met its
    relative tolerance within its 10 rounds.
    """
    n, d = pts.shape
    if k >= d:
        raise ValueError("need 1 <= k < d (a full-dimensional flat is trivial)")
    centroid = np.average(pts, axis=0, weights=w)
    pca = _weighted_pca_basis(pts - centroid, w, k)
    if z == 2.0:
        sol = Flat.from_point(Subspace(pca), centroid)
        return _report("flat", data, sol, z, "centered-svd", 0, True)

    rng = np.random.default_rng(0)
    anchors = [centroid] + [pts[int(rng.integers(n))] for _ in range(_FLAT_ANCHORS)]
    best = (np.inf, None, False)
    for anchor in anchors:
        basis = pca
        point = anchor
        val = np.inf
        for _ in range(10):
            basis = _grassmann_descent(pts - point, w, basis, z, max_iter=60)[0]
            comp = _complement_basis(basis, d)
            coords = pts @ comp.T
            tau_c = opt_center(coords, z, w)
            point = tau_c @ comp
            new_val = _subspace_cost(pts - point, w, basis, z)
            converged = val - new_val < 1e-8 * max(new_val, 1e-300)
            val = new_val
            if converged:
                break
        if val < best[0]:
            best = (val, (basis, point), converged)
    basis, point = best[1]
    sol = Flat.from_point(Subspace(geometry._orthonormal_rows(basis)), point)
    return _report("flat", data, sol, z, "alternating-descent", 0, best[2])


# ---------------------------------------------------------------------------
# Lines


def _fit_line(pts, w, fallback_dir):
    """Weighted least-squares line through a group (exact for z = 2)."""
    if pts.shape[0] == 1:
        return Line.canonical(pts[0], fallback_dir)
    centroid = np.average(pts, axis=0, weights=w)
    centered = (pts - centroid) * np.sqrt(w)[:, None]
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    direction = vt[0] if s[0] > 0 else fallback_dir
    return Line.canonical(centroid, direction)


def _default_dir(d):
    e = np.zeros(d)
    e[0] = 1.0
    return e


def _line_through(p, q, fallback_dir):
    """The line through p and q, or the one along ``fallback_dir`` if p == q."""
    if np.array_equal(p, q):
        return Line.canonical(p, fallback_dir)
    return Line.through(p, q)


def _lines_exact(data, pts, w, k, z):
    """Optimal k-line solution for z = 2 by partition enumeration.

    Each block of a partition gets its exact least-squares line, so the best
    partition yields the optimum.  Restricted to z = 2 (other powers have no
    closed-form per-block fit) and n <= EXACT_LINES_MAX_N.
    """
    n, d = pts.shape
    if z != 2.0:
        raise ValueError("exact line solving is available for z = 2 only")
    if n > EXACT_LINES_MAX_N:
        raise ValueError(f"exact line solving is limited to n <= {EXACT_LINES_MAX_N}, got n = {n}")
    fallback = _default_dir(d)

    def block_cost(idx):
        if len(idx) <= 2:
            return 0.0
        bp = pts[idx]
        bw = w[idx]
        res = bp - geometry.project_line(bp, _fit_line(bp, bw, fallback))
        return float(np.sum(bw * np.sum(res * res, axis=1)))

    if 2 * k >= n:
        # pair the points up: every partition into <= k blocks of <= 2 is free
        blocks = [list(range(i, min(i + 2, n))) for i in range(0, n, 2)]
    else:
        blocks = _best_partition(n, k, block_cost)
    lines = [_fit_line(pts[idx], w[idx], fallback) if len(idx) > 2
             else _line_through(pts[idx[0]], pts[idx[-1]], fallback)
             for idx in blocks]
    sol = LineSet(lines + [lines[-1]] * (k - len(lines)))
    return _report("lines", data, sol, z, "partition-enumeration", 0, True)


def _lines_alternating(data, pts, w, k, z, restarts, seed):
    """Alternating assign/refit search for k lines with random restarts.

    Refits use the least-squares line per group (exact for z = 2, a
    reasonable surrogate otherwise); empty groups are re-seeded at the
    worst-served point.
    """
    n, d = pts.shape
    fallback = _default_dir(d)

    def fit(r):
        idx = rng_stream(seed, r).choice(n, size=(k, 2), replace=True)
        lines, converged = _alternate(
            pts, w, [_line_through(pts[a], pts[b], fallback) for a, b in idx],
            geometry._sq_dists_to_lines,
            lambda gp, gw, ln: _fit_line(gp, gw, ln.direction),
            lambda far, ln: Line.canonical(far, ln.direction))
        return LineSet(lines), converged

    return _best_of_restarts("lines", data, z, restarts, fit, "alternating-multirestart")


def solve(problem, data, k, z, restarts=20, seed=0, method="auto"):
    """Solve ``problem`` on ``data``; the one public solver.

    ``data`` is a Dataset, WeightedSet or (n, d) array.  Every argument is
    checked here, before any work: an unknown problem or method, k < 1,
    z < 1, restarts < 1 or seed < 0 raises ValueError on every path.
    ``method`` matters for clustering and lines only: "exact" enumerates
    partitions (up to the enumerator's n cap), "heuristic" runs local search
    from ``restarts`` starts, restart r seeded by stream r of ``seed``, and
    "auto" enumerates only at z = 2 and n <= _AUTO_EXACT_MAX_N.  Subspace and
    flat use their closed form at z = 2 and descent otherwise, whatever the
    method.
    """
    if problem not in geometry.PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}; expected one of {geometry.PROBLEMS}")
    if method not in ("auto", "exact", "heuristic"):
        raise ValueError(f"unknown method {method!r}")
    k = int(k)
    z = geometry._check_z(z)
    restarts = int(restarts)
    seed = int(seed)
    if k < 1:
        raise ValueError("k must be positive")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    pts = geometry._points_of(data)
    w = data.weights if isinstance(data, WeightedSet) else np.ones(pts.shape[0])
    if problem == "subspace":
        return _subspace(data, pts, w, k, z)
    if problem == "flat":
        return _flat(data, pts, w, k, z)
    exact = method == "exact" or (method == "auto" and z == 2.0
                                  and pts.shape[0] <= _AUTO_EXACT_MAX_N)
    if problem == "clustering":
        if exact:
            return _clustering_exact(data, pts, w, k, z)
        return _lloyd(data, pts, w, k, z, restarts, seed)
    if exact:
        return _lines_exact(data, pts, w, k, z)
    return _lines_alternating(data, pts, w, k, z, restarts, seed)
