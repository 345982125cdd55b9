"""Slow reference implementations that the tests hold the library to.

The sup-ratio references take a point set and score every row by

    sup_u |<y_i, u>|^z / sum_j |<y_j, u>|^z

over directions u of its span, computed the slow way; rows with no
component in the span score 0, as in ``sensitivity.sup_ratios``.

- :func:`grid_sup_ratios` (spans of dimension <= 2): the ratio at evenly
  spaced directions, exact up to the grid spacing.
- :func:`ascent_sup_ratios`: multi-start projected gradient ascent per
  row, a lower bound on the supremum, O(n^2) in all.

The counterexample cost references :func:`ref_medoid_cost` and
:func:`ref_css_cost` work row by row on the (n, d) points with BLAS
products and a normalised copy of the rows: a summation order independent
of the (d, n) kernels in ``counterexamples``.  :func:`ref_medoid_kernel`
and :func:`ref_css_kernel` are those (d, n) kernels with whole-width
temporaries: a (d, n) product for the css quadratic form and gathered
copies of the kept columns.  The library must match them bit for bit.

The Lloyd references :func:`ref_lloyd` and :func:`ref_lines_alternating`
are the heuristic clustering and lines solves the straightforward way:
seeding by a loop over the norms of the differences to all centers so far
(:func:`ref_dz_seed`), a boolean mask and a :func:`ref_opt_center` or
``_fit_line`` call per group and round (:func:`ref_alternate`), and a
``cost_pow`` pass per restart.  Their center distances, like those of the
point-to-shape references below, are :func:`ref_sq_dists_to_centers`,
expanded about the origin: where the library expands about the rows, a test
compares the two to a tolerance derived from the arithmetic.

The exact references :func:`ref_clustering_exact` and
:func:`ref_lines_exact` are the two partition enumerators as separate
bodies, each with its own cap, shortcut and fit pass, calling the checked
``opt_center``.  The lines references build seed lines and blocks of one
or two rows with :func:`_line_through`, along :func:`_default_dir` where
the rows coincide.

:func:`ref_recurse_1d` is the 1-d coreset recursion that also takes a
k - 1 pass over the bigger-gap side.

The frame references :func:`ref_subspace` and :func:`ref_flat` are the
subspace and flat solves as two bodies.  Above z = 2 they polish with the
earlier descents: :func:`ref_grassmann_descent` over orthonormal frames
(a subspace), and for a flat up to 10 rounds that alternate 60 such steps
with a center in the orthogonal complement by :func:`ref_descent_center`,
whose step is ``step * g / max(|g|, 1)`` in the data's own units.

The point-to-shape references :func:`ref_distances`, :func:`ref_assignment`,
:func:`ref_reference_points` and :func:`ref_sensitivity` (with
:func:`ref_e4_statistic`) match points to a solution with one branch per
shape type each, as four separate bodies, and build each sensitivity from
:func:`ref_profile` and its own per-problem tail.

:func:`ref_preset_t` is the projection-dimension preset as a plain formula,
with no refusal of eps or const beyond eps <= 0.
"""

import math

import numpy as np

from projclust import geometry, jl
from projclust._rng import rng_stream
from projclust.coreset import _TIE_REL, COVER_FACTOR, peel_partition
from projclust.counterexamples import _tiny_exponent
from projclust.geometry import CenterSet, Line, LineSet, WeightedSet
from projclust.geometry import Flat, Subspace, project_flat, project_line, project_subspace
from projclust.sensitivity import SensitivityProfile, sup_ratios
from projclust.solvers import (
    EXACT_CLUSTERING_MAX_N, EXACT_LINES_MAX_N, SolveReport, _best_of_restarts,
    _best_partition, _center, _fit_line, _irls, _report,
    _subspace_cost, _weighted_pca_basis, opt_center,
)


def span_coordinates(y):
    """Coordinates of the rows of y in an orthonormal basis of their span."""
    pts = geometry._points_of(y)
    return pts @ geometry._orthonormal_rows(pts).T


def grid_sup_ratios(y, z, points=100_000):
    """The ratios at ``points`` evenly spaced directions, in one shot."""
    p = span_coordinates(y)
    if p.shape[1] > 2:
        raise ValueError("grid search applies to spans of dimension <= 2")
    if p.shape[1] == 1:
        vals = np.abs(p[:, 0]) ** z
        return vals / np.sum(vals)
    theta = np.linspace(0.0, np.pi, points, endpoint=False)
    a = np.abs(p @ np.stack([np.cos(theta), np.sin(theta)])) ** z   # (n, points)
    return np.max(a / np.sum(a, axis=0), axis=1)


def ascent_sup_ratios(y, z):
    """:func:`sup_ratio_ascent` for every row with a component in the span."""
    p = span_coordinates(y)
    out = np.zeros(p.shape[0])
    for i in range(p.shape[0]):
        if np.any(p[i]):
            out[i] = sup_ratio_ascent(p, i, z)
    return out


def sup_ratio_ascent(p, i, z, restarts=16, iters=200, tol=1e-4):
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


def ref_medoid_cost(points):
    """min_j sum_i ||x_i - x_j||^2 over centers x_j, row-major."""
    x = np.asarray(points, dtype=float)
    norms_sq = np.sum(x * x, axis=1)
    total = float(np.sum(norms_sq))
    s = np.sum(x, axis=0)
    per_center = total + len(x) * norms_sq - 2.0 * (x @ s)
    return float(np.min(per_center))


def ref_css_cost(points):
    """Best squared residual onto the span of one nonzero row, row-major."""
    x = np.asarray(points, dtype=float)
    norms = np.linalg.norm(x, axis=1)
    total = float(np.sum(norms ** 2))
    keep = norms > 0
    if not np.any(keep):
        return total
    u = x[keep] / norms[keep, None]
    scatter = x.T @ x
    captured = np.einsum("ij,jk,ik->i", u, scatter, u)
    return float(total - np.max(captured))


def ref_medoid_kernel(points):
    """``counterexamples.medoid_cost`` with an n-vector temporary for the
    scaled norms."""
    xt = np.asarray(points, dtype=float).T
    norms_sq = np.einsum("ij,ij->j", xt, xt)
    total = float(np.sum(norms_sq))
    e = _tiny_exponent(xt, total)
    if e:
        return math.ldexp(ref_medoid_kernel(np.ldexp(xt, -e).T), 2 * e)
    per_center = np.einsum("i,ij->j", -2.0 * np.sum(xt, axis=1), xt)
    per_center += xt.shape[1] * norms_sq
    return total + float(np.min(per_center))


def ref_css_kernel(points):
    """``counterexamples.css_cost`` with the quadratic form as one (d, n)
    product and the quotients taken on gathered copies of the kept columns."""
    xt = np.asarray(points, dtype=float).T
    norms_sq = np.einsum("ij,ij->j", xt, xt)
    total = float(np.sum(norms_sq))
    e = _tiny_exponent(xt, total)
    if e:
        return math.ldexp(ref_css_kernel(np.ldexp(xt, -e).T), 2 * e)
    keep = norms_sq > 0
    if not np.any(keep):
        return total
    d = xt.shape[0]
    scatter, buf = np.empty((d, d)), np.empty(xt.shape[1])
    for i in range(d):
        for j in range(i, d):
            scatter[i, j] = scatter[j, i] = np.sum(np.multiply(xt[i], xt[j], out=buf))
    scatter /= total
    quad = np.einsum("ij,ij->j", np.einsum("ik,kj->ij", scatter, xt), xt, out=buf)
    return float(total - total * np.max(quad[keep] / norms_sq[keep]))


def ref_sq_dists_to_centers(pts, centers):
    """Squared distances of the rows to the centers, |x|^2 + |c|^2 - 2 x.c
    expanded about the origin and clipped at 0."""
    sq = (np.sum(pts * pts, axis=1)[:, None] + np.sum(centers * centers, axis=1)[None, :]
          - 2.0 * (pts @ centers.T))
    return np.maximum(sq, 0.0)


def ref_dz_seed(pts, w, k, z, rng):
    """Cost-proportional seeding, each draw from the distances to all centers so far."""
    n = pts.shape[0]
    first = int(rng.integers(n))
    centers = [pts[first]]
    for _ in range(k - 1):
        dist = np.min(
            np.stack([np.linalg.norm(pts - c, axis=1) for c in centers]), axis=0)
        p = w * dist ** z
        tot = p.sum()
        if tot <= 0:
            centers.append(pts[int(rng.integers(n))])
            continue
        centers.append(pts[int(rng.choice(n, p=p / tot))])
    return np.vstack(centers)


def ref_alternate(pts, w, shapes, sq_dists, refit, revive):
    """Nearest-shape assignment and per-group refits, one mask per group."""
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
        for b in range(len(shapes)):
            mask = assign == b
            if np.any(w[mask] > 0):     # a group of zero weight keeps its shape
                shapes[b] = refit(pts[mask], w[mask], shapes[b])
    return shapes, False


def _ref_best_of_restarts(problem, data, z, restarts, fit):
    best = (None, np.inf, False)
    for r in range(restarts):
        sol, converged = fit(r)
        cp = geometry.cost_pow(problem, data, sol, z)
        if cp < best[1]:
            best = (sol, cp, converged)
    return best


def _points_and_weights(data):
    pts = geometry._points_of(data)
    return pts, data.weights if isinstance(data, WeightedSet) else np.ones(pts.shape[0])


def ref_opt_center(pts, z, w):
    """The refit of one group: a lone row is its own center, z = 2 takes
    ``np.average``, other z the library's own iterative center."""
    if pts.shape[0] == 1:
        return pts[0].copy()
    if z == 2.0:
        return np.average(pts, axis=0, weights=w)
    return opt_center(pts, z, w)


def ref_lloyd(data, k, z, restarts, seed):
    """(solution, cost_pow, converged) of the heuristic clustering solve."""
    pts, w = _points_and_weights(data)
    if k >= pts.shape[0]:
        sol = CenterSet(pts)
        return sol, geometry.cost_pow("clustering", data, sol, z), True

    def fit(r):
        centers, converged = ref_alternate(
            pts, w, ref_dz_seed(pts, w, k, z, rng_stream(seed, r)),
            lambda p, cs: ref_sq_dists_to_centers(p, np.vstack(cs)),
            lambda gp, gw, c: ref_opt_center(gp, z, gw),
            lambda far, c: far)
        return CenterSet(np.vstack(centers)), converged

    return _ref_best_of_restarts("clustering", data, z, restarts, fit)


def _default_dir(d):
    e = np.zeros(d)
    e[0] = 1.0
    return e


def _line_through(p, q, fallback_dir):
    """The line through p and q, or the one along ``fallback_dir`` if p == q."""
    if np.array_equal(p, q):
        return Line.canonical(p, fallback_dir)
    return Line.through(p, q)


def ref_lines_alternating(data, k, z, restarts, seed):
    """(solution, cost_pow, converged) of the heuristic lines solve."""
    pts, w = _points_and_weights(data)
    n, d = pts.shape
    fallback = _default_dir(d)

    def fit(r):
        idx = rng_stream(seed, r).choice(n, size=(k, 2), replace=True)
        lines, converged = ref_alternate(
            pts, w, [_line_through(pts[a], pts[b], fallback) for a, b in idx],
            geometry._sq_dists_to_lines,
            lambda gp, gw, ln: _fit_line(gp, gw, ln.direction),
            lambda far, ln: Line.canonical(far, ln.direction))
        return LineSet(lines), converged

    return _ref_best_of_restarts("lines", data, z, restarts, fit)


def _ref_report(problem, data, sol, z):
    cp = geometry.cost_pow(problem, data, sol, z)
    return SolveReport(sol, cp ** (1.0 / z), cp, "partition-enumeration", 0, True)


def ref_clustering_exact(data, k, z):
    """The exact clustering solve: cap, k >= n shortcut, enumeration, one
    ``opt_center`` per chosen block."""
    pts, w = _points_and_weights(data)
    n = pts.shape[0]
    if n > EXACT_CLUSTERING_MAX_N:
        raise ValueError(
            f"exact clustering is limited to n <= {EXACT_CLUSTERING_MAX_N}, got n = {n}")
    if k >= n:
        return _ref_report("clustering", data, CenterSet(pts), z)

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
    return _ref_report("clustering", data, CenterSet(centers), z)


def ref_lines_exact(data, k, z):
    """The exact z = 2 lines solve: z and cap refusals, pairs when 2k >= n,
    enumeration, a least-squares line per chosen block of three or more."""
    pts, w = _points_and_weights(data)
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
        blocks = [list(range(i, min(i + 2, n))) for i in range(0, n, 2)]
    else:
        blocks = _best_partition(n, k, block_cost)
    lines = [_fit_line(pts[idx], w[idx], fallback) if len(idx) > 2
             else _line_through(pts[idx[0]], pts[idx[-1]], fallback)
             for idx in blocks]
    return _ref_report("lines", data, LineSet(lines + [lines[-1]] * (k - len(lines))), z)


def ref_recurse_1d(order, p, a, b, k, out):
    """The 1-d coreset recursion with a k and a k - 1 pass over the
    bigger-gap side."""
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
    mid = a + (n + 1) // 2 - 1
    out.add(int(order[a]))
    out.add(int(order[mid]))
    out.add(int(order[b - 1]))
    gap_l = p[mid] - p[a]
    gap_r = p[b - 1] - p[mid]
    tol = _TIE_REL * max(gap_l, gap_r, 0.0)
    if gap_l >= gap_r - tol:
        ref_recurse_1d(order, p, a, a + n // 2, k, out)
        ref_recurse_1d(order, p, a, a + n // 2, k - 1, out)
        ref_recurse_1d(order, p, mid, b, k - 1, out)
    else:
        ref_recurse_1d(order, p, mid + 1, b, k, out)
        ref_recurse_1d(order, p, mid + 1, b, k - 1, out)
        ref_recurse_1d(order, p, a, mid + 1, k - 1, out)


def ref_descent_center(pts, w, z, max_iter=500, tol=1e-8):
    """Backtracking descent on the power-z center cost from the weighted mean."""
    c = np.average(pts, axis=0, weights=w)
    step = 1.0

    def cost(cc):
        return float(np.sum(w * np.linalg.norm(pts - cc, axis=1) ** z))

    val = cost(c)
    for _ in range(max_iter):
        diff = c - pts
        dist = np.linalg.norm(diff, axis=1)
        away = dist > 0
        coef = np.where(away, z * np.where(away, dist, 1.0) ** (z - 2.0), 0.0) * w
        grad = (coef[:, None] * diff).sum(axis=0)
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            break
        improved = False
        for _ in range(40):
            cand = c - step * grad / max(gnorm, 1.0)
            cval = cost(cand)
            if cval < val:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        c, old = cand, val
        val = cval
        step *= 1.5
        if old - val < tol * max(val, 1e-300):
            break
    return c


def ref_grassmann_descent(pts, w, basis, z, max_iter=200, tol=1e-8):
    """Backtracking descent over orthonormal k-frames with a QR retraction;
    returns (basis, cost, converged)."""
    b = basis.copy()
    val = _subspace_cost(pts, w, b, z)
    step = 1.0
    scale = float(np.max(np.linalg.norm(pts, axis=1)))
    floor = 1e-12 * max(scale, 1.0)
    for _ in range(max_iter):
        res = pts - (pts @ b.T) @ b
        r = np.sqrt(np.einsum("ij,ij->i", res, res))
        coef = w * np.maximum(r, floor) ** (z - 2.0)
        grad = -z * (b @ (pts.T * coef) @ pts)
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            return b, val, True
        improved = False
        for _ in range(40):
            q, _ = np.linalg.qr((b - step * grad / gnorm).T)
            cand = q.T[: b.shape[0]]
            cval = _subspace_cost(pts, w, cand, z)
            if cval < val:
                improved = True
                break
            step *= 0.5
        if not improved:
            return b, val, True
        b, old = cand, val
        val = cval
        step *= 1.5
        if old - val < tol * max(val, 1e-300):
            return b, val, True
    return b, val, False


def _ref_frame_search(problem, data, pts, w, k, z, restarts, seed, first, polish, method):
    n, d = pts.shape
    extra = int(problem == "flat")
    starts = [first]
    for r in range(1, restarts):
        rng = rng_stream(seed, r)
        idx = rng.choice(n, size=min(k + extra, n), replace=False)
        anchor = pts[idx[0]] if extra else np.zeros(d)
        basis = geometry._orthonormal_rows(pts[idx[extra:]] - anchor)
        if basis.shape[0] < k:
            basis = geometry._orthonormal_rows(
                np.vstack([basis, rng.normal(size=(k - basis.shape[0], d))]))
        starts.append((anchor, basis[:k]))
    sol, converged = _best_of_restarts(
        problem, data, z, restarts, lambda r: (*polish(*starts[r]), None),
        rank=lambda r: _subspace_cost(pts - starts[r][0], w, starts[r][1], z))
    return _report(problem, data, sol, z, method, restarts, converged)


def ref_subspace(data, k, z, restarts, seed):
    """The subspace solve: SVD at z = 2; else the starts polished by IRLS
    (z < 2) or Grassmann descent (z > 2), re-orthonormalised by an SVD."""
    pts, w = _points_and_weights(data)
    svd_basis = _weighted_pca_basis(pts, w, k)
    if z == 2.0:
        return _report("subspace", data, Subspace(svd_basis), z, "svd", 0, True)

    def polish(anchor, basis):
        if z < 2.0:
            _, b, _, converged = _irls(pts, w, k, z, anchor, basis, False)
        else:
            b, _, converged = ref_grassmann_descent(pts, w, basis, z)
        sol = Subspace(geometry._orthonormal_rows(b))
        if sol.dim < k:
            sol = Subspace(svd_basis)
        return sol, converged

    return _ref_frame_search("subspace", data, pts, w, k, z, restarts, seed,
                             (np.zeros(pts.shape[1]), svd_basis), polish,
                             "span-search+irls" if z < 2.0 else "span-search+descent")


def ref_flat(data, k, z, restarts, seed):
    """The flat solve: centered SVD at z = 2; else the starts polished by
    IRLS (z < 2) or the translation/direction alternation (z > 2)."""
    pts, w = _points_and_weights(data)
    centroid = np.average(pts, axis=0, weights=w)
    pca = _weighted_pca_basis(pts - centroid, w, k)
    if z == 2.0:
        return _report("flat", data, Flat.from_point(Subspace(pca), centroid), z,
                       "centered-svd", 0, True)

    def irls(point, basis):
        point, basis, _, converged = _irls(pts, w, k, z, point, basis, True)
        return Flat.from_point(Subspace(basis), point), converged

    def center(p):
        return ref_descent_center(p, w, z) if p.shape[0] > 1 else _center(p, w, z)

    def alternate(point, basis):
        val = np.inf
        for _ in range(10):
            basis = ref_grassmann_descent(pts - point, w, basis, z, max_iter=60)[0]
            # columns k..d-1 of the full Q factor span the orthogonal complement
            comp = np.linalg.qr(basis.T, mode="complete")[0][:, k:].T
            point = center(pts @ comp.T) @ comp
            new_val = _subspace_cost(pts - point, w, basis, z)
            converged = val - new_val < 1e-8 * max(new_val, 1e-300)
            val = new_val
            if converged:
                break
        return Flat.from_point(Subspace(geometry._orthonormal_rows(basis)), point), converged

    polish, method = (irls, "span-search+irls") if z < 2.0 else (alternate, "alternating-descent")
    return _ref_frame_search("flat", data, pts, w, k, z, restarts, seed,
                             (centroid, pca), polish, method)


def ref_distances(problem, data, solution):
    """Distance to the nearest shape, one branch per problem."""
    pts = geometry._checked_points(problem, data, solution)
    if problem == "clustering":
        return geometry._nearest(ref_sq_dists_to_centers(pts, solution.centers))
    if problem == "subspace":
        return np.linalg.norm(pts - project_subspace(pts, solution), axis=1)
    if problem == "flat":
        return np.linalg.norm(pts - project_flat(pts, solution), axis=1)
    return geometry._nearest(geometry._sq_dists_to_lines(pts, solution.lines))


def ref_assignment(problem, data, solution):
    """Index of the nearest center or line, lowest index on ties."""
    if problem not in ("clustering", "lines"):
        raise ValueError("assignment is defined for 'clustering' and 'lines' only")
    pts = geometry._checked_points(problem, data, solution)
    if problem == "clustering":
        return np.argmin(ref_sq_dists_to_centers(pts, solution.centers), axis=1)
    return np.argmin(geometry._sq_dists_to_lines(pts, solution.lines), axis=1)


def ref_project_to_lines(pts, lines, labels):
    """Row i of ``pts`` projected onto ``lines[labels[i]]``, one
    ``project_line`` call per line."""
    out = np.empty_like(pts)
    for j, ln in enumerate(lines):
        mask = labels == j
        if np.any(mask):
            out[mask] = project_line(pts[mask], ln)
    return out


def ref_reference_points(pts, solution):
    """The per-point reference (nearest center or projection) for a solution."""
    if isinstance(solution, CenterSet):
        a = ref_assignment("clustering", pts, solution)
        return solution.centers[a]
    if isinstance(solution, Subspace):
        return project_subspace(pts, solution)
    if isinstance(solution, Flat):
        return project_flat(pts, solution)
    if isinstance(solution, LineSet):
        a = ref_assignment("lines", pts, solution)
        return ref_project_to_lines(pts, solution.lines, a)
    raise ValueError("solution must be a CenterSet, Subspace, Flat, or LineSet")


def ref_profile(dist, z, tail):
    """The profile shape  2^(z-1) * dist^z / cost + tail, the first term
    dropped when the reference cost is zero."""
    cost = float(np.sum(dist ** z))
    sigma = np.zeros(dist.shape[0])
    if cost > 0:
        sigma += 2.0 ** (z - 1.0) * dist ** z / cost
    sigma += tail
    return SensitivityProfile(sigma)


def ref_sensitivity(problem, data, solution, z, center_dist=None):
    """The four sensitivities as separate bodies over :func:`ref_profile`.
    ``center_dist``, if given, replaces the distances of the clustering
    profile (its clusters still come from the reference's own distances)."""
    z = geometry._check_z(z)
    pts = geometry._checked_points(problem, data, solution)
    lead = 2.0 ** (2.0 * z - 1.0)
    if problem == "clustering":
        sq = ref_sq_dists_to_centers(pts, solution.centers)
        assign = np.argmin(sq, axis=1)
        sizes = np.bincount(assign, minlength=solution.k)
        dist = geometry._nearest(sq) if center_dist is None else center_dist
        return ref_profile(dist, z, lead / sizes[assign])
    if problem == "lines":
        sq = geometry._sq_dists_to_lines(pts, solution.lines)
        labels = np.argmin(sq, axis=1)
        peel = peel_partition(ref_project_to_lines(pts, solution.lines, labels),
                              solution, labels)
        return ref_profile(geometry._nearest(sq), z, lead * COVER_FACTOR / peel.layer_index)
    n = pts.shape[0]
    if problem == "subspace":
        proj = project_subspace(pts, solution)
        y = proj
    else:
        proj = project_flat(pts, solution)
        y = np.hstack([proj, np.ones((n, 1))])
    if float(np.max(np.linalg.norm(y, axis=1))) == 0.0:
        sup = np.full(n, 1.0 / n)
    else:
        sup = sup_ratios(y, z)
    return ref_profile(np.linalg.norm(pts - proj, axis=1), z, lead * sup)


def ref_e4_statistic(data, solution, pi, z, profile):
    """The projected-residual statistic from :func:`ref_reference_points`."""
    z = geometry._check_z(z)
    pts = geometry._points_of(data)
    ref = ref_reference_points(pts, solution)
    dist = np.linalg.norm(pts - ref, axis=1)
    pdist = np.linalg.norm(jl.apply(pi, pts - ref), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dist == 0.0, 1.0, pdist / np.where(dist == 0.0, 1.0, dist))
    return float(np.sum(ratio ** (2.0 * z) * profile.sigma))


def ref_preset_t(problem, k, z, eps, n, d, const=1.0):
    """The preset's t and formula, as ``min(d, max(1, ceil(const * raw)))``."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if problem == "clustering":
        raw = (math.log(k) + z * math.log(1.0 / eps)) / eps ** 2
        formula = "(ln k + z ln(1/eps)) / eps^2"
    elif problem in ("subspace", "flat"):
        r, name = (k + 1, "(k+1)") if problem == "flat" else (k, "k")
        if z == 2:
            raw = r / eps ** 2
            formula = f"{name} / eps^2"
        else:
            raw = z * r ** 2 * (1.0 + math.log(r / eps)) ** 2 / eps ** 3
            formula = f"z {name}^2 (1 + ln({name}/eps))^2 / eps^3"
    else:
        loglog = max(math.log(max(math.log(max(n, 2)), 1.0)), 0.0)
        raw = (k * loglog + z + math.log(1.0 / eps)) / eps ** 3
        formula = "(k lnln n + z + ln(1/eps)) / eps^3"
    return min(int(d), max(1, math.ceil(const * raw))), formula
