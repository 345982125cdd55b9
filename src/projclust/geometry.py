"""Point sets, candidate solutions, projections, and cost evaluation.

The four problem families share one cost interface: a solution is a set of
k "shapes" (points, a linear subspace, an affine flat, or lines), the
distance from a data point to the solution is the Euclidean distance to the
nearest shape, and the objective is the sum of z-th powers of distances,
optionally weighted.

All solution types are validated and immutable after construction, so they
can be shared freely across threads.
"""

import math

import numpy as np

PROBLEMS = ("clustering", "subspace", "flat", "lines")

# Tolerance for orthonormality / canonical-form checks.
ORTHO_TOL = 1e-9
# Tolerance for unit-norm checks on line directions.
UNIT_TOL = 1e-12


def _as_matrix(points, name="points"):
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {pts.shape}")
    if pts.shape[0] < 1 or pts.shape[1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} must contain only finite values")
    return pts


def _freeze(a):
    a = np.array(a, dtype=np.float64, copy=True)
    a.setflags(write=False)
    return a


class Dataset:
    """An ordered set of n points in R^d, stored as an (n, d) float array."""

    def __init__(self, points):
        pts = _as_matrix(points)
        self.points = _freeze(pts)
        self.n, self.d = pts.shape

    @classmethod
    def _own(cls, points):
        """A Dataset that takes ``points``, a fresh float64 array, without
        :func:`_freeze`'s copy; the checks still run."""
        data = cls.__new__(cls)
        data.points = _as_matrix(points)
        data.points.setflags(write=False)
        data.n, data.d = data.points.shape
        return data

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"Dataset(n={self.n}, d={self.d})"


class WeightedSet(Dataset):
    """A dataset with a non-negative weight per point (not all zero)."""

    def __init__(self, points, weights):
        super().__init__(points)
        self.weights = _freeze(_checked_weights(weights, self.n))

    def __repr__(self):
        return f"WeightedSet(n={self.n}, d={self.d})"


def _checked_weights(weights, n):
    """``weights`` as a float64 array, once it is shown to be n finite,
    non-negative weights that are not all zero."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if not np.any(w > 0):
        raise ValueError("at least one weight must be positive")
    return w


class CenterSet:
    """k candidate centers in R^d for the clustering problem."""

    def __init__(self, centers):
        c = _as_matrix(centers, "centers")
        self.centers = _freeze(c)
        self.k, self.d = c.shape

    def __repr__(self):
        return f"CenterSet(k={self.k}, d={self.d})"


class Subspace:
    """A j-dimensional linear subspace of R^d given by an orthonormal basis.

    The constructor rejects a basis whose rows are not orthonormal to within
    ``ORTHO_TOL``; use :meth:`from_spanning` to orthonormalize raw spanning
    vectors first.
    """

    def __init__(self, basis):
        b = _as_matrix(basis, "basis")
        j, d = b.shape
        if j > d:
            raise ValueError(f"basis has {j} rows but ambient dimension is {d}")
        gram = b @ b.T
        if np.max(np.abs(gram - np.eye(j))) > ORTHO_TOL:
            raise ValueError("basis rows are not orthonormal; "
                             "use Subspace.from_spanning to orthonormalize")
        self.basis = _freeze(b)
        self.dim = j
        self.d = d

    @classmethod
    def from_spanning(cls, vectors):
        """Build a subspace from raw (possibly dependent) spanning vectors."""
        v = _as_matrix(vectors, "vectors")
        q = _orthonormal_rows(v)
        if q.shape[0] == 0:
            raise ValueError("spanning vectors are all zero")
        return cls(q)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, d={self.d})"


def _orthonormal_rows(v):
    """Orthonormal basis (as rows) for the row space of v, dropping rank deficiency."""
    u, s, vt = np.linalg.svd(v, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.empty((0, v.shape[1]))
    rank = int(np.sum(s > max(v.shape) * np.finfo(np.float64).eps * s[0]))
    return vt[:rank]


class Flat:
    """An affine flat τ + span(B) in canonical form: τ orthogonal to span(B)."""

    def __init__(self, direction, translation):
        if not isinstance(direction, Subspace):
            direction = Subspace(direction)
        tau = np.asarray(translation, dtype=np.float64)
        if tau.shape != (direction.d,):
            raise ValueError(f"translation must have shape ({direction.d},)")
        if not np.all(np.isfinite(tau)):
            raise ValueError("translation must be finite")
        inplane = direction.basis @ tau
        if np.max(np.abs(inplane), initial=0.0) > ORTHO_TOL * max(1.0, float(np.linalg.norm(tau))):
            raise ValueError("translation must be orthogonal to the direction span; "
                             "use Flat.from_point to canonicalize")
        self.direction = direction
        self.translation = _freeze(tau)
        self.dim = direction.dim
        self.d = direction.d

    @classmethod
    def from_point(cls, direction, point):
        """The flat through `point` with the given direction, canonicalized."""
        if not isinstance(direction, Subspace):
            direction = Subspace(direction)
        p = np.asarray(point, dtype=np.float64)
        tau = p - direction.basis.T @ (direction.basis @ p)
        # Scrub rounding residue so the canonical-form check passes exactly.
        tau = tau - direction.basis.T @ (direction.basis @ tau)
        return cls(direction, tau)

    def __repr__(self):
        return f"Flat(dim={self.dim}, d={self.d})"


class Line:
    """A line v + t·u in canonical form.

    ``u`` has unit norm, its first coordinate of magnitude above ``UNIT_TOL``
    is positive, and the anchor ``v`` is the point of the line closest to the
    origin (so ⟨v, u⟩ = 0).  Use :meth:`canonical` or :meth:`through` to
    build a line from unnormalized data.
    """

    def __init__(self, anchor, direction):
        v = np.asarray(anchor, dtype=np.float64)
        u = np.asarray(direction, dtype=np.float64)
        if v.ndim != 1 or v.shape != u.shape:
            raise ValueError("anchor and direction must be 1-d arrays of equal length")
        if v.shape[0] < 1:
            raise ValueError("ambient dimension must be at least 1")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(u))):
            raise ValueError("anchor and direction must be finite")
        nrm = float(np.linalg.norm(u))
        if abs(nrm - 1.0) > UNIT_TOL:
            raise ValueError("direction must have unit norm; use Line.canonical")
        lead = np.flatnonzero(np.abs(u) > UNIT_TOL)
        if lead.size == 0 or u[lead[0]] <= 0:
            raise ValueError("leading direction coordinate must be positive; "
                             "use Line.canonical")
        if abs(float(v @ u)) > ORTHO_TOL * max(1.0, float(np.linalg.norm(v))):
            raise ValueError("anchor must be orthogonal to direction; use Line.canonical")
        self.anchor = _freeze(v)
        self.direction = _freeze(u)
        self.d = v.shape[0]

    @classmethod
    def canonical(cls, anchor, direction):
        """Canonicalize an arbitrary (anchor, direction) description of a line."""
        v = np.asarray(anchor, dtype=np.float64)
        u = np.asarray(direction, dtype=np.float64)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0 or not np.all(np.isfinite(u)):
            raise ValueError("direction must be a nonzero finite vector")
        u = u / nrm
        lead = np.flatnonzero(np.abs(u) > UNIT_TOL)
        if u[lead[0]] < 0:
            u = -u
        v = v - (v @ u) * u
        v = v - (v @ u) * u  # second pass scrubs rounding residue
        return cls(v, u)

    @classmethod
    def through(cls, p, q):
        """The line through two distinct points."""
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        if np.array_equal(p, q):
            raise ValueError("points must be distinct")
        return cls.canonical(p, q - p)

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return (np.array_equal(self.anchor, other.anchor)
                and np.array_equal(self.direction, other.direction))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ already treats as equal
        return hash(((self.anchor + 0.0).tobytes(), (self.direction + 0.0).tobytes()))

    def __repr__(self):
        return f"Line(d={self.d})"


class LineSet:
    """k candidate lines, all in the same ambient dimension."""

    def __init__(self, lines):
        lines = list(lines)
        if len(lines) < 1:
            raise ValueError("need at least one line")
        for ln in lines:
            if not isinstance(ln, Line):
                raise ValueError("all entries must be Line instances")
        d = lines[0].d
        if any(ln.d != d for ln in lines):
            raise ValueError("all lines must share the same ambient dimension")
        self.lines = tuple(lines)
        self.k = len(lines)
        self.d = d

    def __len__(self):
        return self.k

    def __repr__(self):
        return f"LineSet(k={self.k}, d={self.d})"


# ---------------------------------------------------------------------------
# Projections


def project_subspace(x, subspace):
    """Orthogonal projection of a point (or rows of a matrix) onto a subspace."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != subspace.d:
        raise ValueError(f"point dimension {x.shape[-1]} != subspace ambient {subspace.d}")
    b = subspace.basis
    return (x @ b.T) @ b


def project_flat(x, flat):
    """Orthogonal projection of a point (or rows of a matrix) onto a flat."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != flat.d:
        raise ValueError(f"point dimension {x.shape[-1]} != flat ambient {flat.d}")
    b = flat.direction.basis
    return flat.translation + ((x - flat.translation) @ b.T) @ b


def project_line(x, line):
    """Orthogonal projection of a point (or rows of a matrix) onto a line."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != line.d:
        raise ValueError(f"point dimension {x.shape[-1]} != line ambient {line.d}")
    t = (x - line.anchor) @ line.direction
    return line.anchor + np.multiply.outer(t, line.direction)


# ---------------------------------------------------------------------------
# Distances, assignment, and cost


def _points_of(data):
    if isinstance(data, Dataset):
        return data.points
    return _as_matrix(data)


def _centered(pts):
    """``(xc, xsq, m)``: the rows less an expansion point m, and the squared
    row norms of ``xc`` (no (n, d) temporary).  m is the mean of the rows cut
    towards 0 to a multiple of 2^-10 of their widest coordinate range, so the
    center kernel cancels on the scale of the data's spread, not of its
    distance from the origin.  The cut costs no accuracy.  On a coarse grid
    (small integers, say) it keeps every term of the expansion exact, so
    distances that tie exactly still tie; and rows translated by a multiple
    of its step almost always move m by just that translate."""
    mean = pts.mean(axis=0)
    span = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    m = mean - np.fmod(mean, math.ldexp(1.0, max(math.frexp(span)[1] - 10, -1074)))
    xc = pts - m
    return xc, np.einsum("ij,ij->i", xc, xc), m


def _sq_dists_to_centers(xc, cc, xsq):
    """The (n, k) squared distances |x|^2 + |c|^2 - 2 x.c, clipped at 0, of
    the rows ``xc`` to the rows ``cc``; ``xsq`` holds the squared row norms of
    ``xc``.  Both should be taken about one point near the rows, as
    :func:`_centered` gives them.  The centers enter the product as a (d, k)
    copy, which OpenBLAS multiplies about twice as fast as the transposed view
    (2000 x 100 rows, k = 5).  The sum is formed in one result buffer, the
    product doubled in place, in the order of operations of the expression."""
    prod = xc @ np.ascontiguousarray(cc.T)
    prod *= 2.0
    sq = np.add(xsq[:, None], np.einsum("ij,ij->i", cc, cc)[None, :])
    sq -= prod
    np.maximum(sq, 0.0, out=sq)
    return sq


def _sq_dists_to_lines(pts, lines):
    # squares of the residuals themselves; |w|^2 - <w, u>^2 cancels
    # catastrophically for points on or near a line
    sq = np.empty((pts.shape[0], len(lines)))
    w = np.empty_like(pts)
    for j, ln in enumerate(lines):
        np.subtract(pts, ln.anchor, out=w)
        w -= np.outer(w @ ln.direction, ln.direction)
        np.einsum("ij,ij->i", w, w, out=sq[:, j])
    return sq


_SHAPE_TYPES = {"clustering": CenterSet, "subspace": Subspace, "flat": Flat, "lines": LineSet}


def _least_dimension(problem, k):
    """The least dimension of the points that fit a k-shape of ``problem``."""
    return k + 1 if problem in ("subspace", "flat") else 1


def _checked_points(problem, data, solution):
    """The (n, d) points of ``data``, once ``solution`` is checked to be the
    shape type ``problem`` expects, in the same dimension d."""
    pts = _points_of(data)
    shape_type = _SHAPE_TYPES.get(problem)
    if shape_type is None:
        raise ValueError(f"unknown problem {problem!r}; expected one of {PROBLEMS}")
    if not isinstance(solution, shape_type):
        raise ValueError(f"{problem} expects a {shape_type.__name__}")
    if pts.shape[1] != solution.d:
        raise ValueError(f"data dimension {pts.shape[1]} != solution dimension {solution.d}")
    return pts


def _match(problem, pts, solution):
    """``(labels, dist)`` of the rows ``pts``, which passed
    :func:`_checked_points`: the nearest shape (lowest index on ties, 0 for a
    subspace or flat) and the distance to it (``sqrt`` of the least squared
    distance for lines, the residual norm for the other shapes)."""
    if problem in ("subspace", "flat"):
        res = (project_subspace if problem == "subspace" else project_flat)(pts, solution)
        np.subtract(pts, res, out=res)
        return np.zeros(len(pts), dtype=np.intp), np.linalg.norm(res, axis=1)
    if problem == "clustering":
        xc, xsq, m = _centered(pts)
        labels = np.argmin(_sq_dists_to_centers(xc, solution.centers - m, xsq), axis=1)
        del xc              # the centered copy, before the residuals' buffer
        res = solution.centers[labels]  # the residual to the chosen center: 0 on a center,
        np.subtract(pts, res, out=res)  # where the expansion leaves rounding of u |x - m|^2
        return labels, np.sqrt(np.einsum("ij,ij->i", res, res))
    sq = _sq_dists_to_lines(pts, solution.lines)
    labels = np.argmin(sq, axis=1)
    return labels, _nearest(sq, labels)


def _feet(problem, pts, solution, labels):
    """Each row's foot on ``solution``: its center ``labels`` picks, its
    projection onto the subspace or flat (``labels`` unread), or onto the
    line ``labels`` picks."""
    if problem == "clustering":
        return solution.centers[labels]
    if problem in ("subspace", "flat"):
        return (project_subspace if problem == "subspace" else project_flat)(pts, solution)
    feet = np.empty_like(pts)
    for j, ln in enumerate(solution.lines):
        mask = labels == j
        if np.any(mask):
            feet[mask] = project_line(pts[mask], ln)
    return feet


def distances(problem, data, solution):
    """Per-point Euclidean distance to the nearest shape of the solution.

    Parameters
    ----------
    problem : str
        One of ``PROBLEMS``.
    data : Dataset, WeightedSet, or (n, d) array
    solution : CenterSet, Subspace, Flat, or LineSet matching the problem.

    Returns
    -------
    (n,) float array of distances.
    """
    return _match(problem, _checked_points(problem, data, solution), solution)[1]


def _nearest(sq, labels=None):
    """Distance to the nearest shape, from an (n, k) squared-distance matrix
    and, if known, its ``argmin`` along the rows: the least entry read at the
    argmin is ``np.min``'s bit for bit, nan included, for about a third of
    its time."""
    if labels is None:
        labels = np.argmin(sq, axis=1)
    return np.sqrt(sq[np.arange(sq.shape[0]), labels])


def assignment(problem, data, solution):
    """Index of the nearest shape per point; ties go to the lowest index.

    Defined for "clustering" (nearest center) and "lines" (nearest line).
    """
    if problem not in ("clustering", "lines"):
        raise ValueError("assignment is defined for 'clustering' and 'lines' only")
    return _match(problem, _checked_points(problem, data, solution), solution)[0]


def cost_pow(problem, data, solution, z):
    """Sum of z-th powers of distances, weighted if data is a WeightedSet."""
    return _pow_sum(data, distances(problem, data, solution), _check_z(z))


def _pow_sum(data, dist, z):
    """Sum of ``dist ** z``, weighted if data is a WeightedSet: the cost of
    per-point distances, shared by :func:`cost_pow` and solvers that already
    hold them."""
    vals = dist ** z
    if isinstance(data, WeightedSet):
        return float(np.sum(data.weights * vals))
    return float(np.sum(vals))


def cost(problem, data, solution, z):
    """The z-th root of :func:`cost_pow` (a metric-scale objective)."""
    z = _check_z(z)
    return cost_pow(problem, data, solution, z) ** (1.0 / z)


def _check_z(z):
    z = float(z)
    if not np.isfinite(z) or z < 1.0:
        raise ValueError("z must be a finite number >= 1")
    return z


# ---------------------------------------------------------------------------
# Text I/O
#
# Format: first non-comment line "n d", then n lines of d space-separated
# floats.  Lines starting with '#' are ignored.  Values are written with
# repr(), which round-trips float64 exactly.


def write_points(path, data, comments=()):
    """Write a Dataset or (n, d) array in the plain text format."""
    pts = _points_of(data)
    with open(path, "w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(f"{pts.shape[0]} {pts.shape[1]}\n")
        for row in pts:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _fmt(v):
    """A CSV or printed field: "" for None, the round-tripping ``repr`` of a
    float (of a numpy float's value too), ``str`` of anything else."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_csv(path, header, rows):
    """Write a header and rows of :func:`_fmt` fields, one line each."""
    import csv      # here, so that ``import projclust`` does not load it

    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def read_points(path):
    """Read an (n, d) float array written by :func:`write_points`.

    The array is allocated at the first data row and filled as each row is
    read, so the text is never held whole.  Past the first bad row, or the
    n-th row, rows are only counted: a wrong row count outranks a failed
    allocation, which outranks a bad row, and the first bad row a later one."""
    out, found, err = None, 0, None
    with open(path, "r", encoding="utf-8") as fh:
        lines = (s for s in (raw.strip() for raw in fh) if s and not s.startswith("#"))
        header = next(lines, None)
        if header is None:
            raise ValueError(f"{path}: no data lines")
        try:        # two fields that int() reads, neither negative
            n, d = map(int, header.split())
        except ValueError:
            n = d = -1
        if n < 0 or d < 0:
            raise ValueError(f"{path}: header must be 'n d', got {header!r}")
        for i, line in enumerate(lines):
            found = i + 1
            if i >= n or err is not None:
                continue
            vals = line.split()
            if len(vals) != d:
                err = ValueError(f"{path}: row {i} has {len(vals)} values, expected {d}")
                continue
            try:
                row = [float(v) for v in vals]
            except ValueError as bad:
                err = ValueError(f"{path}: row {i}: {bad}")
                continue
            try:
                if out is None:
                    out = np.empty((n, d))
                out[i] = row
            except (ValueError, MemoryError) as bad:
                err = bad
    if found != n:
        raise ValueError(f"{path}: expected {n} data rows, found {found}")
    if out is None:     # no row stored: the allocation fails first (on a huge n d, say)
        out = np.empty((n, d))
    if err is not None:
        raise err
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{path}: non-finite values")
    return out


def read_dataset(path):
    """A Dataset of the points in ``path``, in :func:`read_points`' own array."""
    return Dataset._own(read_points(path))
