"""Reference solvers for the four problem families.

:func:`solve` is the one public solver.  It checks the problem, ``method``,
``k``, ``z``, ``restarts`` and ``seed`` once, reads the points and weights of
a Dataset, WeightedSet or raw array, and hands them to a private body that
keeps only its own limits.  Clustering and lines get exact answers from one
partition enumerator (:func:`_enumerate`) at small n and local search
otherwise.  Every fit follows the regime: a closed form at z = 2 (mean,
SVD, least-squares line), iteratively reweighted least squares
(:func:`_irls`) at 1 <= z < 2 and backtracking descent (:func:`_descent`)
at z > 2, for centers, subspaces and flats alike.  Every search takes
``restarts`` starts, start r drawn from stream r of ``seed``, through one
restart loop.  Every solve returns a :class:`SolveReport` whose stated cost
is re-evaluated through :func:`projclust.geometry.cost_pow`, once the
search's own buffers are freed.
"""

import numpy as np

from . import geometry
from .geometry import WeightedSet, CenterSet, Subspace, Flat, Line, LineSet
from ._rng import rng_stream

EXACT_CLUSTERING_MAX_N = 14
EXACT_LINES_MAX_N = 12
# How many of its scored starts a z != 2 subspace or flat solve polishes.
_POLISHED = 3
# method="auto" enumerates partitions only at z = 2 and up to this n, for
# both problems.  The line enumerator supports z = 2 alone.  The clustering
# one needs a center solve per distinct block (up to 2^n of them), which for
# z != 2 is an iterative one: at n = 12, k = 3 (three Gaussian sets in R^3)
# an exact solve took 1.2-4.5 s at z = 1 and 0.2-0.9 s at z = 1.3 on a
# 2-core host, against 0.04-0.08 s for the heuristic at the same cost.
# method="exact" still enumerates at any z, up to EXACT_CLUSTERING_MAX_N.
_AUTO_EXACT_MAX_N = 12
# Round cap and relative-gain stop of _irls.  Where the best flat passes
# through data points IRLS creeps towards it (the residuals there approach
# the floor): with a 1e-10 stop, z = 1 flats on 2 of 20 Student-t(2) sets
# (60 x 6, k = 2) ended up to 2.3% above the descent IRLS replaced.
_IRLS_ROUNDS = 5000
_IRLS_TOL = 1e-14
# Step cap and relative-gain stop of _descent.  At the 1e-8 stop of the
# descents it replaced, 40 weighted centers (n 20-299, d 2-14) at z = 4 ended
# up to 1.0e-6 above theirs; at 1e-10, at most 2.4e-9.
_DESCENT_STEPS = 500
_DESCENT_TOL = 1e-10


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


def _center(pts, w, z):
    """:func:`opt_center` on checked (n, d) points, (n,) weights and z."""
    if pts.shape[0] == 1:
        return pts[0].copy()
    if z == 1.0 and pts.shape[1] == 1:
        return np.array([_weighted_median_1d(pts[:, 0], w)])
    mean = np.average(pts, axis=0, weights=w)
    if z == 2.0:
        return mean
    empty = np.empty((0, pts.shape[1]))
    if z > 2.0:
        return _descent(pts, w, 0, z, mean, empty, True)[0]
    # IRLS for a 0-flat; Weiszfeld's iteration at z = 1.  It stalls on a row
    # (which weighs in at the floor) even where leaving pays, and where the
    # cost is nearly flat (z near 1 on collinear rows).  So step from where
    # it stops towards the weighted mean the rows off the center ask for,
    # doubling the step while it gains (from 2^-30 of it on a row), and
    # start again from there while that gains more than _IRLS_TOL.
    start = mean
    for _ in range(pts.shape[0]):
        c, _, val, _ = _irls(pts, w, 0, z, start, empty, True)
        r = _residuals(pts - c, empty)
        off = r > 1e-9 * float(np.max(r))
        rw = w[off] * r[off] ** (z - 2.0)
        if not rw.any():
            break
        step = (rw @ pts[off]) / rw.sum() - c
        s, new = (1.0 if off.all() else 2.0 ** -30), val
        for _ in range(70):
            cv = _subspace_cost(pts - (c + s * step), w, empty, z)
            if not cv < new:
                break
            new, start, s = cv, c + s * step, 2.0 * s
        if not val - new > _IRLS_TOL * val:
            break
    return c


def opt_center(pts, z, weights=None):
    """The best single center for a weighted point set under power z.

    ``weights`` are checked as a WeightedSet's are: n finite, non-negative
    values, not all zero."""
    pts = geometry._points_of(pts)
    w = (np.ones(pts.shape[0]) if weights is None
         else geometry._checked_weights(weights, pts.shape[0]))
    return _center(pts, w, geometry._check_z(z))


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


def _enumerate(problem, data, pts, w, k, z):
    """Report on the optimal clustering or lines solution over partitions.

    Refuses lines at z != 2 (no closed-form fit), then n above the problem's
    cap.  A block of up to ``free`` points (1 for clustering, 2 for lines)
    costs 0, so when k such blocks cover the points they are the answer;
    otherwise :func:`_best_partition` picks the blocks, each costing what its
    rows pay to their fit, a :func:`_center` or a :func:`_fit_line`:
    sum w * |x - foot|^z.  A block whose rows all weigh 0 costs 0 and is
    fitted at unit weights.  Lines repeat the last one up to k.
    """
    n = pts.shape[0]
    if problem == "lines" and z != 2.0:
        raise ValueError("exact line solving is available for z = 2 only")
    cap, free, name = {"clustering": (EXACT_CLUSTERING_MAX_N, 1, "clustering"),
                       "lines": (EXACT_LINES_MAX_N, 2, "line solving")}[problem]
    if n > cap:
        raise ValueError(f"exact {name} is limited to n <= {cap}, got n = {n}")

    def fit(idx):
        bw = w[idx]
        if not bw.any():        # rows that all weigh 0 cost 0 whatever the fit
            bw = np.ones(len(idx))
        if problem == "clustering":
            return _center(pts[idx], bw, z)
        return _fit_line(pts[idx], bw)

    def block_cost(idx):
        if len(idx) <= free:
            return 0.0
        bp, shape = pts[idx], fit(idx)
        foot = shape if problem == "clustering" else geometry.project_line(bp, shape)
        return float(np.sum(w[idx] * np.linalg.norm(bp - foot, axis=1) ** z))

    if free * k >= n:
        blocks = [list(range(i, min(i + free, n))) for i in range(0, n, free)]
    else:
        blocks = _best_partition(n, k, block_cost)
    shapes = [fit(idx) for idx in blocks]
    sol = (CenterSet(np.vstack(shapes)) if problem == "clustering"
           else LineSet(shapes + [shapes[-1]] * (k - len(shapes))))
    return _report(problem, data, sol, z, "partition-enumeration", 0, True)


def _alternate(shapes, sq_dists, refit, revive):
    """Alternate nearest-shape assignment with refits of every group.

    ``sq_dists(shapes)`` is the (n, k) squared-distance matrix of the rows;
    ties go to the lowest index.  A shape whose group is empty is replaced by
    ``revive(i, shape)`` for the worst-served row i; then
    ``refit(labels, sizes, shapes)`` returns the round's new shapes.  Stops
    when an assignment repeats, or after 100 rounds.  Returns (shapes,
    converged, sq), ``sq`` the matrix of the returned shapes when converged,
    else None.
    """
    k = len(shapes)
    prev = None
    for _ in range(100):
        sq = sq_dists(shapes)
        assign = np.argmin(sq, axis=1)
        sizes = np.bincount(assign, minlength=k)
        if not sizes.all():
            for b in range(k):
                if sizes[b] == 0:
                    shapes[b] = revive(int(np.argmax(geometry._nearest(sq, assign))), shapes[b])
                    sq = sq_dists(shapes)
                    assign = np.argmin(sq, axis=1)
                    sizes = np.bincount(assign, minlength=k)
        if prev is not None and np.array_equal(assign, prev):
            return shapes, True, sq
        prev = assign
        shapes = refit(assign, sizes, shapes)
    return shapes, False, None


def _per_group(pts, w, refit_one):
    """A round refit for :func:`_alternate` that gives each non-empty group
    ``refit_one(group_pts, group_w, shape)``, unless its rows all weigh 0:
    they cost 0 whatever the shape, which it keeps.  Each round sorts the
    rows by group once, stably, so every refit sees its rows in their
    original order, as a contiguous slice of one reused buffer (which
    ``refit_one`` must not keep)."""
    positive = bool(np.all(w > 0))
    gp, gw = np.empty_like(pts), np.empty_like(w)

    def refit(assign, sizes, shapes):
        shapes = list(shapes)
        # labels narrowed to the smallest unsigned type sort by radix
        order = np.argsort(assign.astype(np.min_scalar_type(len(shapes) - 1)), kind="stable")
        # mode="clip" lets take fill ``out`` without a buffer; order is in range
        np.take(pts, order, axis=0, out=gp, mode="clip")
        np.take(w, order, out=gw, mode="clip")
        end = 0
        for b in range(len(shapes)):
            start, end = end, end + sizes[b]
            if end > start and (positive or gw[start:end].any()):
                shapes[b] = refit_one(gp[start:end], gw[start:end], shapes[b])
        return shapes

    return refit


def _best_of_restarts(problem, data, z, restarts, fit, rank=None):
    """(solution, converged) of the cheapest ``fit(r)`` over r < restarts.

    ``fit(r)`` returns (solution, converged, sq): ``sq`` is the (n, k)
    squared-distance matrix of the solution, which scores it without a
    second :func:`geometry.cost_pow` pass, or None.  The first restart fitted
    wins ties.  Given ``rank``, every restart is scored by ``rank(r)`` and
    only the _POLISHED lowest (ties to the lower r) are fitted, lowest first.
    The caller reports on the winner once its search buffers are gone.
    """
    tried = range(restarts) if rank is None else sorted(range(restarts), key=rank)[:_POLISHED]
    best = (np.inf, None, False)
    for r in tried:
        sol, converged, sq = fit(r)
        if sq is None:
            cp = geometry.cost_pow(problem, data, sol, z)
        else:
            cp = geometry._pow_sum(data, geometry._nearest(sq), z)
        if cp < best[0]:
            best = (cp, sol, converged)
    return best[1:]


# ---------------------------------------------------------------------------
# Clustering


def _dz_seed(xc, xsq, w, k, z, rng):
    """Row indices of a cost-proportional seeding: each new center drawn by
    current power-z cost.

    ``xc`` and ``xsq`` are :func:`geometry._centered`'s rows and squared row
    norms.  The squared distance to the newest center i is
    ``xsq + xsq[i] - 2 xc @ xc[i]``, clipped at 0, with the product taken by
    the kernel that took ``xsq``, so a row equal to a center scores exactly 0.
    """
    n = xc.shape[0]
    idx = [int(rng.integers(n))]
    sq = np.full(n, np.inf)         # squared distance to the nearest center so far
    for _ in range(k - 1):
        i = idx[-1]
        new = xsq + xsq[i] - 2.0 * np.einsum("ij,j->i", xc, xc[i])
        np.minimum(sq, np.maximum(new, 0.0, out=new), out=sq)
        p = w * sq ** (z / 2.0)
        tot = p.sum()
        idx.append(int(rng.integers(n)) if tot <= 0 else int(rng.choice(n, p=p / tot)))
    return np.array(idx)


def _lloyd(data, pts, w, k, z, restarts, seed):
    """Generalized Lloyd iteration with cost-proportional seeding.

    Restart r draws its seeding from stream r of ``seed``, so results are
    reproducible and independent of evaluation order.  Empty clusters are
    re-seeded from the point with the largest current distance.  Distances
    are expanded about :func:`geometry._centered`'s point m, from one centered
    copy of the rows that every restart shares.  At z = 2 a round's refit is
    one (k, n) weights by (n, d) rows product, divided by the group masses;
    a lone row (of positive weight) is its own center.  At other z every
    group gets a :func:`_center` refit.
    """
    n = pts.shape[0]
    if k >= n:
        sol = CenterSet(pts)
        return _report("clustering", data, sol, z, "lloyd-multirestart", restarts, True)

    xc, xsq, m = geometry._centered(pts)
    if z == 2.0:
        rows = np.arange(n)
        weights = np.zeros((k, n))
        positive = w > 0

        def refit(assign, sizes, centers):
            weights.fill(0.0)
            weights[assign, rows] = w
            mass = np.bincount(assign, weights=w, minlength=k)
            sums = weights @ xc
            if mass.all():
                new = sums / mass[:, None] + m
            else:
                held = mass > 0
                new = np.array(centers)
                new[held] = sums[held] / mass[held, None] + m
            if (sizes == 1).any():
                lone = np.flatnonzero((sizes[assign] == 1) & positive)
                new[assign[lone]] = pts[lone]
            return new
    else:
        refit = _per_group(pts, w, lambda gp, gw, c: _center(gp, gw, z))

    def fit(r):
        centers, converged, sq = _alternate(
            pts[_dz_seed(xc, xsq, w, k, z, rng_stream(seed, r))],
            lambda cs: geometry._sq_dists_to_centers(xc, np.asarray(cs) - m, xsq),
            refit, lambda i, c: pts[i])
        return CenterSet(centers), converged, sq

    sol, converged = _best_of_restarts("clustering", data, z, restarts, fit)
    del xc, refit       # the centered copy (and z != 2's gather buffer), before the report's
    return _report("clustering", data, sol, z, "lloyd-multirestart", restarts, converged)


# ---------------------------------------------------------------------------
# Subspace and flat


def _weighted_pca_basis(pts, w, k):
    """Top-k right singular directions of the sqrt-weighted point matrix.

    The thin SVD never builds the (n, n) left factor; only at n < k is the
    full one needed, for V to have k rows.
    """
    scaled = pts * np.sqrt(w)[:, None]
    _, _, vt = np.linalg.svd(scaled, full_matrices=pts.shape[0] < k)
    return vt[:k]


def _residuals(centered, basis):
    """Distances of the rows of ``centered`` to span(basis): the norms of the
    residuals themselves, since |x|^2 - |Bx|^2 cancels for points near the span."""
    res = centered - (centered @ basis.T) @ basis if basis.shape[0] else centered
    return np.sqrt(np.einsum("ij,ij->i", res, res))


def _subspace_cost(pts, w, basis, z):
    return float(np.sum(w * _residuals(pts, basis) ** z))


def _irls(pts, w, k, z, anchor, basis, affine):
    """Iteratively reweighted least squares for the power-z cost, 1 <= z < 2.

    Returns (anchor, basis, cost, converged) for the k-flat anchor + span(basis),
    or the subspace span(basis) when ``affine`` is False (the anchor stays).
    For z <= 2, t -> t^(z/2) is concave, so its tangent at the current squared
    residuals majorises the cost; minimising that majoriser is the z = 2
    problem with weights w_i * max(r_i, floor)^(z - 2), solved by a weighted
    centroid (for a flat) and a weighted PCA; the floor is 1e-12 of the
    largest distance to the starting anchor, or 1e-300 if that is 0.
    At k = 0 the round is Weiszfeld's and skips the PCA.  A round whose cost
    does not fall ends the loop, as does a relative gain below _IRLS_TOL;
    ``converged`` is False only when _IRLS_ROUNDS rounds ran out first.
    """
    centered = pts - anchor
    floor = 1e-12 * float(np.max(np.linalg.norm(centered, axis=1))) or 1e-300
    r = _residuals(centered, basis)
    val = float(w @ r ** z)
    for _ in range(_IRLS_ROUNDS):
        rw = w * np.maximum(r, floor) ** (z - 2.0)
        if affine:
            new_anchor = (rw @ pts) / rw.sum()
            centered = pts - new_anchor
        else:
            new_anchor = anchor
        new_basis = _weighted_pca_basis(centered, rw, k) if k else basis
        r = _residuals(centered, new_basis)
        new_val = float(w @ r ** z)
        if not new_val < val:
            return anchor, basis, val, True
        gain = val - new_val
        anchor, basis, val = new_anchor, new_basis, new_val
        if gain < _IRLS_TOL * val:
            return anchor, basis, val, True
    return anchor, basis, val, False


def _descent(pts, w, k, z, anchor, basis, affine):
    """Backtracking gradient descent for the power-z cost, the fit at z > 2.

    Takes and returns what :func:`_irls` does.  The k-frame steps against its
    gradient and is retracted onto orthonormal rows by QR.  For a flat the
    anchor steps with it, in the unit s = sqrt(sum c_i |x_i - a|^2 / sum c_i)
    of the gradient's coefficients c_i = w_i * max(r_i, floor)^(z - 2), with
    _irls's floor: both blocks share one step size and no length is absolute.
    At k = 0 the flat is a center.  A candidate that does not lower the cost
    halves the step, up to 40 times; an accepted one grows it by 1.5.  Stops at
    a zero gradient, when no step helps, or at a relative gain below
    _DESCENT_TOL; ``converged`` is False only when _DESCENT_STEPS ran out first.
    """
    centered = pts - anchor
    floor = 1e-12 * float(np.max(np.linalg.norm(centered, axis=1))) or 1e-300
    val = _subspace_cost(centered, w, basis, z)
    step = 1.0
    for _ in range(_DESCENT_STEPS):
        res = centered - (centered @ basis.T) @ basis if k else centered
        coef = w * np.maximum(np.sqrt(np.einsum("ij,ij->i", res, res)), floor) ** (z - 2.0)
        g_basis = -z * (basis @ (centered.T * coef) @ centered)
        if affine:
            total = coef.sum()    # 0 only where the gradient is 0 too
            spread = coef @ np.einsum("ij,ij->i", centered, centered)
            unit = np.sqrt(spread / total) if total else 0.0
            g_anchor = -z * unit * (coef @ res)     # s times the anchor's gradient
        gnorm = float(np.linalg.norm(np.vstack([g_anchor, g_basis]) if affine else g_basis))
        if gnorm == 0.0:
            return anchor, basis, val, True
        for _ in range(40):
            a = anchor - step * unit * g_anchor / gnorm if affine else anchor
            b = np.linalg.qr((basis - step * g_basis / gnorm).T)[0].T[:k] if k else basis
            c = pts - a if affine else centered
            cval = _subspace_cost(c, w, b, z)
            if cval < val:
                break
            step *= 0.5
        else:               # no step lowered the cost
            return anchor, basis, val, True
        anchor, basis, centered, old, val = a, b, c, val, cval
        step *= 1.5
        if old - val < _DESCENT_TOL * max(val, 1e-300):
            return anchor, basis, val, True
    return anchor, basis, val, False


def _frame(problem, data, pts, w, k, z, restarts, seed):
    """Best k-dimensional linear subspace, or affine flat for problem "flat".

    Exact at z = 2: the top weighted principal directions, about the
    weighted centroid for a flat.  At other z, a heuristic with no optimality
    guarantee over ``restarts`` starts, each an (anchor, k-frame).  Start 0 is
    the z = 2 solution.  Start r >= 1 draws from stream r of ``seed`` the
    span of k points, or for a flat the flat through k + 1 anchored at the
    first; dependent points are padded with random directions.  Every start
    is scored by its residual cost about its anchor and the _POLISHED
    cheapest are polished, by :func:`_irls` at z < 2 and by :func:`_descent`
    at z > 2, where IRLS's majoriser fails.  ``converged`` is that of the
    winning polish.
    """
    n, d = pts.shape
    affine = problem == "flat"
    extra = int(affine)
    if affine:
        anchor = np.average(pts, axis=0, weights=w)
        basis = _weighted_pca_basis(pts - anchor, w, k)
    else:
        anchor, basis = np.zeros(d), _weighted_pca_basis(pts, w, k)

    def solution(a, b):
        return Flat.from_point(Subspace(b), a) if affine else Subspace(b)

    if z == 2.0:
        return _report(problem, data, solution(anchor, basis), z,
                       "centered-svd" if affine else "svd", 0, True)
    starts = [(anchor, basis)]
    for r in range(1, restarts):
        rng = rng_stream(seed, r)
        idx = rng.choice(n, size=min(k + extra, n), replace=False)
        a = pts[idx[0]] if affine else np.zeros(d)
        b = geometry._orthonormal_rows(pts[idx[extra:]] - a)
        if b.shape[0] < k:
            b = geometry._orthonormal_rows(np.vstack([b, rng.normal(size=(k - b.shape[0], d))]))
        starts.append((a, b[:k]))
    fit = _irls if z < 2.0 else _descent

    def polish(r):
        a, b, _, converged = fit(pts, w, k, z, *starts[r], affine)
        return solution(a, b), converged, None

    sol, converged = _best_of_restarts(
        problem, data, z, restarts, polish,
        rank=lambda r: _subspace_cost(pts - starts[r][0], w, starts[r][1], z))
    return _report(problem, data, sol, z,
                   "span-search+irls" if z < 2.0 else "span-search+descent",
                   restarts, converged)


# ---------------------------------------------------------------------------
# Lines


def _fit_line(pts, w, fallback_dir=None):
    """The weighted least-squares line through the rows (exact for z = 2).

    One or two rows give the line through them, their least-squares line at
    any weights, or the one along ``fallback_dir`` (e_0 when None) if they
    coincide.  Three or more give the line through their weighted mean along
    the top eigenvector of the d x d weighted scatter, without an (n, d) SVD.
    """
    if fallback_dir is None:
        fallback_dir = np.eye(1, pts.shape[1])[0]
    if pts.shape[0] <= 2:       # distinct floats never subtract to 0
        step = pts[-1] - pts[0]
        return Line.canonical(pts[0], step if step.any() else fallback_dir)
    centroid = np.average(pts, axis=0, weights=w)
    c = pts - centroid
    evals, evecs = np.linalg.eigh((c.T * w) @ c)
    return Line.canonical(centroid, evecs[:, -1] if evals[-1] > 0 else fallback_dir)


def _lines_alternating(data, pts, w, k, z, restarts, seed):
    """Alternating assign/refit search for k lines with random restarts.

    Restart r seeds each line through two rows drawn from stream r of
    ``seed``.  Seeds and refits are :func:`_fit_line`'s least-squares lines
    (exact for z = 2, a reasonable surrogate otherwise); empty groups are
    re-seeded at the worst-served point.
    """
    refit = _per_group(pts, w, lambda gp, gw, ln: _fit_line(gp, gw, ln.direction))

    def fit(r):
        idx = rng_stream(seed, r).choice(pts.shape[0], size=(k, 2), replace=True)
        lines, converged, sq = _alternate(
            [_fit_line(pts[pair], np.ones(2)) for pair in idx],
            lambda lns: geometry._sq_dists_to_lines(pts, lns), refit,
            lambda i, ln: Line.canonical(pts[i], ln.direction))
        return LineSet(lines), converged, sq

    sol, converged = _best_of_restarts("lines", data, z, restarts, fit)
    del refit           # and with it the gather buffer, before the report's copies
    return _report("lines", data, sol, z, "alternating-multirestart", restarts, converged)


def solve(problem, data, k, z, restarts=20, seed=0, method="auto"):
    """Solve ``problem`` on ``data``; the one public solver.

    ``data`` is a Dataset, WeightedSet or (n, d) array.  Every argument is
    checked here, before any work: an unknown problem or method, k < 1,
    z < 1, restarts < 1 or seed < 0 raises ValueError on every path.
    ``method`` matters for clustering and lines only: "exact" enumerates
    partitions (up to the enumerator's n cap), "heuristic" runs local search
    from ``restarts`` starts, and "auto" enumerates only at z = 2 and
    n <= _AUTO_EXACT_MAX_N.  Subspace and flat use their closed form at z = 2,
    whatever the method; at other z, start 0 is that closed form, start r >= 1
    is sampled from stream r of ``seed``, all are scored and the _POLISHED
    cheapest are polished, by IRLS at z < 2 and by descent at z > 2.
    ``report.restarts`` is ``restarts`` for every search and 0 for a closed
    form or an enumeration.
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
    if pts.shape[1] < geometry._least_dimension(problem, k):
        raise ValueError(f"need 1 <= k < d (a full-dimensional {problem} is trivial)")
    if problem in ("subspace", "flat"):
        return _frame(problem, data, pts, w, k, z, restarts, seed)
    exact = method == "exact" or (method == "auto" and z == 2.0
                                  and pts.shape[0] <= _AUTO_EXACT_MAX_N)
    if exact:
        return _enumerate(problem, data, pts, w, k, z)
    if problem == "clustering":
        return _lloyd(data, pts, w, k, z, restarts, seed)
    return _lines_alternating(data, pts, w, k, z, restarts, seed)
