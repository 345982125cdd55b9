"""Hard instances where random projection breaks constrained fitting problems.

Two families are provided.  In both, the optimum of the original instance is
known in closed form, while the same objective evaluated after a random
Gaussian projection to very few dimensions collapses, so the ratio

    cost_original / cost_projected

grows without bound as ``n`` grows.  Both families live on standard basis
vectors, which makes projecting them equivalent to reading columns of the
projection matrix -- no ``n x n`` identity matrix is ever materialised.

* ``medoid``: minimise the sum of squared distances to a center that must be
  one of the data points.  The instance is ``e_1, ..., e_n``.
* ``css``: approximate the data by the span of a single data point (column
  subset selection with one column, squared residual objective).  The
  instance is ``(e_{n+1} + e_i) / sqrt(2)`` for ``i = 1, ..., n``.
"""

import math

import numpy as np

from .geometry import Dataset, _as_matrix, _check_count
from .jl import _draw, sample_jl

__all__ = [
    "gen_medoid_instance", "gen_css_instance",
    "medoid_cost", "css_cost",
    "medoid_optimum", "css_optimum",
    "RatioReport", "counterexample_trial",
]


# The largest dense instance matrix the generators build, and the largest
# map counterexample_trial samples, in bytes.
_MAX_INSTANCE_BYTES = 2 ** 30
# Below this total mass the squared entries that make it up reach the
# subnormal range and lose digits, so the cost kernels rescale first.
_TINY_TOTAL = 2.0 ** -900
# Columns per block of the cost kernels: each reads its (d, n) points a
# (d, _BLOCK) block at a time into buffers of that width, and its sums over
# n follow np.sum's pairwise tree down to runs of at most _BLOCK columns (a
# multiple of 8, and at least numpy's 128-entry leaf).
_BLOCK = 2 ** 14


def _check_n(n):
    """``n`` as an int, refused unless it is an integer of at least 2."""
    n = _check_count("n", n, least=-math.inf)   # n < 2 has its own message
    if n < 2:
        raise ValueError("need at least two points")
    return n


def _check_instance(n, extra):
    """``n``, once :func:`_check_n` accepts it and an (n, n + extra) float64
    matrix is within _MAX_INSTANCE_BYTES."""
    n = _check_n(n)
    _check_bytes(f"a dense {n} x {n + extra} instance", n, n + extra,
                 "; counterexample_trial projects it without building it")
    return n


def _check_bytes(what, rows, cols, hint=""):
    """Refuse a (rows, cols) float64 array above _MAX_INSTANCE_BYTES."""
    nbytes = 8 * rows * cols
    if nbytes > _MAX_INSTANCE_BYTES:
        raise ValueError(f"{what} needs {nbytes} bytes, above the "
                         f"{_MAX_INSTANCE_BYTES}-byte limit{hint}")


def gen_medoid_instance(n):
    """The n standard basis vectors of R^n, as a Dataset."""
    n = _check_instance(n, 0)
    return Dataset(np.eye(n))


def gen_css_instance(n):
    """n unit vectors in R^{n+1} sharing a common direction.

    Row i is (e_{n+1} + e_i)/sqrt(2); every pair has inner product 1/2.
    """
    n = _check_instance(n, 1)
    pts = np.zeros((n, n + 1))
    pts[:, :n] = np.eye(n)
    pts[:, n] = 1.0
    return Dataset(pts / np.sqrt(2.0))


def _tiny_exponent(xt, total):
    """The e with 2^(e-1) <= max |x| < 2^e when ``total`` is below _TINY_TOTAL
    and x is not all zero, else 0.  Both cost kernels are homogeneous of
    degree 2, so they return cost(x * 2^-e) * 2^(2e) for such inputs: exact
    power-of-two scalings, with every square back in the normal range."""
    if total >= _TINY_TOTAL:
        return 0
    top = float(max(np.max(xt, initial=0.0), -np.min(xt, initial=0.0)))  # no |x| copy
    return math.frexp(top)[1] if top > 0.0 else 0


def _pairwise(leaf, lo, hi):
    """np.sum over the columns [lo, hi), bit for bit, from the sums of runs
    of at most _BLOCK columns: ``leaf(lo, hi)`` is np.sum of one run (or an
    array of such sums, added entry by entry).

    numpy sums a run of more than 128 entries as the sum of its two halves,
    split at n // 2 rounded down to a multiple of 8 (Higham, SISC 1993).
    Splitting the same way makes every run a subtree that np.sum itself
    walks; np.sum adds its result to 0.0, which turns only -0.0 into 0.0,
    and so does every leaf."""
    n = hi - lo
    if n <= _BLOCK:
        return leaf(lo, hi)
    half = n // 2
    half -= half % 8
    return _pairwise(leaf, lo, lo + half) + _pairwise(leaf, lo + half, hi)


def medoid_cost(points):
    """min_j sum_i ||x_i - x_j||^2 with the center restricted to the rows.

    Uses the expansion ||x_i - x_j||^2 = ||x_i||^2 + ||x_j||^2 - 2 <x_i, x_j>
    so the whole sweep is O(n d).  The sweep runs on the (d, n) transpose,
    a view that is C-contiguous when the points are the transpose of a map,
    a block of _BLOCK columns at a time with two-operand ``einsum``
    reductions over its short axis: no BLAS call, no copy of the points and
    no array of length n, only two buffers of _BLOCK entries.  The total
    mass keeps np.sum's bits: it is summed through :func:`_pairwise`.
    Points whose total is below 2^-900 are rescaled first, which may copy
    them once.

    The expansion is about the origin, so its rounding error scales with
    the rows' squared norms, not with their spread.  It suits rows near the
    origin, as this module's instances are, and not rows far from it: on
    200 standard Gaussian rows in R^5 shifted by 1e6 in every coordinate it
    reads 2.5e-4 relative above the direct sum, and shifted by 1e8 it reads
    3.9 times that sum.
    """
    xt = _as_matrix(points).T
    n = xt.shape[1]
    v = -2.0 * np.sum(xt, axis=1)
    norms_sq, per_center = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK))
    least = np.inf

    def leaf(lo, hi):
        nonlocal least
        blk = xt[:, lo:hi]
        sq = np.einsum("ij,ij->j", blk, blk, out=norms_sq[:hi - lo])
        mass = np.sum(sq)
        pc = np.einsum("i,ij->j", v, blk, out=per_center[:hi - lo])
        sq *= n                         # its mass is taken: scale in place
        pc += sq
        least = np.minimum(least, np.min(pc))
        return mass

    total = float(_pairwise(leaf, 0, n))
    e = _tiny_exponent(xt, total)
    if e:
        return math.ldexp(medoid_cost(np.ldexp(xt, -e).T), 2 * e)
    return total + float(least)


def css_cost(points):
    """Best squared residual of projecting all rows onto the span of one row.

    Rows that are exactly zero span nothing and are skipped as candidates;
    if every row is zero the residual is the total mass (which is then 0).
    Row i captures x_i' S x_i / ||x_i||^2 of the mass, S the (d, d)
    scatter.  Like :func:`medoid_cost` it runs on the (d, n) transpose a
    block of _BLOCK columns at a time, with two-operand ``einsum``
    reductions and no BLAS call, in two passes: the first takes the total
    mass and the scatter's upper triangle through :func:`_pairwise`, the
    second the quotients and their running max.  Besides the points it
    holds no array of length n: a (d, _BLOCK) buffer, two of _BLOCK entries
    and a _BLOCK-byte mask.  Points whose total is below 2^-900 are
    rescaled first, which may copy them once.
    """
    xt = _as_matrix(points).T
    d, n = xt.shape
    width = min(n, _BLOCK)
    flat, norms_sq, quad = np.empty(d * width), np.empty(width), np.empty(width)
    upper = np.triu_indices(d)

    def leaf(lo, hi):
        # [mass, then S's upper triangle row by row]: row i's products
        # x_j x_i, j >= i, are formed in one (d - i, m) block of the buffer
        m = hi - lo
        blk = xt[:, lo:hi]
        sums = np.empty(1 + len(upper[0]))
        sums[0] = np.sum(np.einsum("ij,ij->j", blk, blk, out=norms_sq[:m]))
        k = 1
        for i in range(d):
            prod = np.multiply(blk[i:], blk[i], out=flat[:(d - i) * m].reshape(d - i, m))
            np.sum(prod, axis=1, out=sums[k:k + d - i])
            k += d - i
        return sums

    sums = _pairwise(leaf, 0, n)
    total = float(sums[0])
    e = _tiny_exponent(xt, total)
    if e:
        return math.ldexp(css_cost(np.ldexp(xt, -e).T), 2 * e)
    if not total > 0.0:     # every norm is 0: a sum of norms is at least
        return total        # the largest of them
    # the scatter over the total keeps quad on the scale of norms_sq: neither
    # underflows nor overflows where the norms do not
    scatter = np.empty((d, d))
    scatter[upper] = scatter.T[upper] = sums[1:]
    scatter /= total
    # each column's quotient depends on that column alone, so blocking
    # moves no bit
    best, keep = -np.inf, np.empty(width, dtype=bool)
    for lo in range(0, n, _BLOCK):
        blk = xt[:, lo:lo + _BLOCK]
        m = blk.shape[1]
        sx = np.einsum("ik,kj->ij", scatter, blk, out=flat[:d * m].reshape(d, m))
        q = np.einsum("ij,ij->j", sx, blk, out=quad[:m])
        sq = np.einsum("ij,ij->j", blk, blk, out=norms_sq[:m])
        kept = np.greater(sq, 0.0, out=keep[:m])
        np.divide(q, sq, out=q, where=kept)
        best = np.maximum(best, np.max(q, where=kept, initial=-np.inf))
    return float(total - total * best)


def medoid_optimum(n):
    """Exact optimum of the basis-vector medoid instance: 2(n-1)."""
    return 2.0 * (n - 1)


def css_optimum(n):
    """Exact optimum of the shared-direction instance: 3(n-1)/4."""
    return 0.75 * (n - 1)


class RatioReport:
    """One trial of original-vs-projected cost for a hard instance."""

    def __init__(self, which, n, t, seed, cost_original, cost_projected):
        self.which = which
        self.n = n
        self.t = t
        self.seed = seed
        self.cost_original = float(cost_original)
        self.cost_projected = float(cost_projected)
        if self.cost_projected > 0.0:
            self.ratio = self.cost_original / self.cost_projected
        else:
            self.ratio = np.inf

    def __repr__(self):
        return (f"RatioReport(which={self.which!r}, n={self.n}, t={self.t}, "
                f"seed={self.seed}, ratio={self.ratio:.4g})")


def counterexample_trial(which, n, t, seed):
    """Project one hard instance and compare costs.

    ``which`` is "medoid" or "css".  The projected point set is read
    straight from columns of the sampled (t, n) or (t, n + 1) map and kept
    in that layout; the css points are formed in the first n columns of
    the map's own buffer.  So a trial takes O(n t) time and one map-size
    of memory: besides the map, its cost kernels hold only buffers of
    _BLOCK columns, and they make no BLAS call.  A map above 2^30 bytes is
    refused before it is sampled.
    """
    n = _check_n(n)
    t = _check_count("t", t)
    seed = _check_count("seed", seed, least=0)
    if which not in ("medoid", "css"):
        raise ValueError(f"unknown instance family: {which!r}")
    d = n if which == "medoid" else n + 1
    _check_bytes(f"a {t} x {d} map", t, d)
    if which == "medoid":
        m = sample_jl(d, t, seed).matrix
        return RatioReport(which, n, t, seed, medoid_optimum(n),
                           medoid_cost(m.T))            # row i = pi @ e_i
    m = _draw(d, t, seed)                               # sample_jl's matrix
    proj = m[:, :n]                 # row i = pi @ (e_i + e_{n+1}) / sqrt(2)
    np.add(proj, m[:, n:], out=proj)
    np.divide(proj, np.sqrt(2.0), out=proj)
    return RatioReport(which, n, t, seed, css_optimum(n), css_cost(proj.T))
