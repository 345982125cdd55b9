"""Gaussian random projections and their diagnostic checks.

A map is a t x d matrix with i.i.d. N(0, 1/t) entries.  For a fixed vector
v, the squared length ratio ||Pi v||^2 / ||v||^2 is distributed as a
chi-square with t degrees of freedom divided by t, independent of v and of
the ambient dimension d; the diagnostics in this module lean on that fact.
"""

import math

import numpy as np

from . import geometry
from ._rng import rng_stream


class JLMap:
    """A linear map R^d -> R^t given by its (t, d) matrix.

    ``seed`` records how the matrix was drawn (informational; maps built
    directly from a matrix keep whatever value is passed).
    """

    def __init__(self, matrix, seed=0):
        self._take(np.array(matrix, dtype=np.float64), seed)   # a private copy

    @classmethod
    def _own(cls, matrix, seed):
        """A map that takes ``matrix``, a fresh float64 array, without a copy."""
        pi = cls.__new__(cls)
        pi._take(matrix, seed)
        return pi

    def _take(self, m, seed):
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError(f"matrix must be a non-empty 2-d array, got shape {m.shape}")
        # a nan or an infinity shows in the min or the max, which read the
        # matrix in place: np.isfinite would make a temporary an eighth its size
        if not (np.isfinite(np.min(m)) and np.isfinite(np.max(m))):
            raise ValueError("matrix must contain only finite values")
        self.matrix = m
        self.matrix.setflags(write=False)
        self.t, self.d = m.shape
        self.seed = int(seed)

    def __repr__(self):
        return f"JLMap(t={self.t}, d={self.d}, seed={self.seed})"


def _draw(d, t, seed, stream=0):
    """The (t, d) matrix of :func:`sample_jl`, still writable: a fresh
    array for a caller that transforms it in place."""
    d = int(d)
    t = int(t)
    if d < 1 or t < 1:
        raise ValueError("d and t must be positive")
    rng = rng_stream(seed, stream)
    return rng.normal(0.0, 1.0 / np.sqrt(t), size=(t, d))


def sample_jl(d, t, seed, stream=0):
    """Draw a t x d map with i.i.d. N(0, 1/t) entries, deterministic in (seed, stream)."""
    return JLMap._own(_draw(d, t, seed, stream), seed)


def apply(pi, x):
    """Apply a map to a vector, an (n, d) array, a Dataset, or a WeightedSet."""
    if isinstance(x, geometry.Dataset):
        if x.d != pi.d:
            raise ValueError(f"data dimension {x.d} != map input dimension {pi.d}")
        if isinstance(x, geometry.WeightedSet):
            return geometry.WeightedSet(x.points @ pi.matrix.T, x.weights)
        return geometry.Dataset._own(x.points @ pi.matrix.T)
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != pi.d:
        raise ValueError(f"input dimension {arr.shape[-1]} != map input dimension {pi.d}")
    return arr @ pi.matrix.T


def preset_t(problem, k, z, eps, n, d, const=1.0, verbose=False):
    """Suggested projection dimension for a (problem, k, z, eps) regime.

    The value is clamped to [1, d], and raised to at least
    ``geometry._least_dimension`` (k + 1 for a subspace or flat, capped at d),
    the least t at which the projected problem can be solved; ``const``
    rescales the lead constant.  A k-flat is sized as the (k+1)-subspace of
    the points lifted by a constant.
    ``eps`` and ``const`` must be finite and positive.
    """
    for name, v in (("eps", eps), ("const", const)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {v!r}")
    if k < 1 or d < 1:
        raise ValueError("k and d must be positive")
    geometry._check_z(z)
    # each formula is num / eps^p
    if problem == "clustering":
        num, p = math.log(k) + z * math.log(1.0 / eps), 2
        formula = "(ln k + z ln(1/eps)) / eps^2"
    elif problem in ("subspace", "flat"):
        r, name = (k + 1, "(k+1)") if problem == "flat" else (k, "k")
        if z == 2:
            num, p = r, 2
            formula = f"{name} / eps^2"
        else:
            num, p = z * r ** 2 * (1.0 + math.log(r / eps)) ** 2, 3
            formula = f"z {name}^2 (1 + ln({name}/eps))^2 / eps^3"
    elif problem == "lines":
        loglog = max(math.log(max(math.log(max(n, 2)), 1.0)), 0.0)
        num, p = k * loglog + z + math.log(1.0 / eps), 3
        formula = "(k lnln n + z + ln(1/eps)) / eps^3"
    else:
        raise ValueError(f"unknown problem: {problem!r}")
    try:
        x = const * (num / eps ** p)
    except (OverflowError, ZeroDivisionError):      # eps^p out of the float range
        x = (math.exp(min(math.log(const) + math.log(num) - p * math.log(eps), 709.0))
             if num > 0 else 0.0)
    t = int(d) if x >= d else max(1, math.ceil(x))
    least = min(int(d), geometry._least_dimension(problem, k))
    clamp = ""
    if t < least:
        clamp = f", clamped up from {t}: a projected k-{problem} needs t > k"
        t = least
    if verbose:
        print(f"preset t={t} from {formula} (const={const!r}){clamp}")
    return t


def moment_ratio_samples(z, t, trials, seed):
    """Monte Carlo samples of ||Pi v||^z / ||v||^z for a fixed vector v.

    The ratio ||Pi v||^2 / ||v||^2 equals a chi-square with t degrees of
    freedom divided by t, so the samples are drawn from that law directly;
    this keeps the cost O(trials) even for very large t.
    """
    z = geometry._check_z(z)
    t = int(t)
    trials = int(trials)
    if t < 1 or trials < 1:
        raise ValueError("t and trials must be positive")
    rng = rng_stream(seed)
    ratio_sq = rng.chisquare(t, size=trials) / t
    return ratio_sq ** (z / 2.0)


def moment_bound_statistic(z, eps, t, trials, seed):
    """Estimate E[(||Pi v||^z / ||v||^z - 1)_+] by Monte Carlo.

    For target dimension t large enough relative to z and eps, this one-sided
    expected overshoot falls below ((1 + eps)^z - 1) / 100.  Returns the
    sample mean of the positive part.  ``eps`` must be finite and positive.
    """
    eps = float(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    samples = moment_ratio_samples(z, t, trials, seed)
    return float(np.mean(np.maximum(samples - 1.0, 0.0)))


def moment_bound_threshold(z, eps):
    """The target value ((1 + eps)^z - 1) / 100 for :func:`moment_bound_statistic`,
    at a finite, positive ``eps``."""
    z = geometry._check_z(z)
    eps = float(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    return ((1.0 + eps) ** z - 1.0) / 100.0


# Relative slack on singular-value comparisons: the check is exact in spirit
# but must tolerate last-bit rounding from the SVD itself.
_SV_SLACK = 1e-12


def is_subspace_embedding(pi, subspace, eps):
    """Whether the map distorts no vector of the subspace by more than 1 + eps.

    True iff every singular value s of ``pi.matrix @ basis.T`` satisfies
    1/(1 + eps) <= s <= 1 + eps; the extreme singular values are exactly the
    extreme length-distortion factors over the subspace.  ``eps`` must be
    finite and non-negative.
    """
    eps = float(eps)
    if eps < 0:
        raise ValueError("eps must be non-negative")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    if subspace.d != pi.d:
        raise ValueError(f"subspace ambient {subspace.d} != map input dimension {pi.d}")
    s = np.linalg.svd(pi.matrix @ subspace.basis.T, compute_uv=False)
    lo, hi = float(np.min(s)), float(np.max(s))
    return (hi <= (1.0 + eps) * (1.0 + _SV_SLACK)
            and lo >= (1.0 + eps) ** -1 * (1.0 - _SV_SLACK))


# Entries of one block of pair differences in :func:`distortion_range`.
_PAIR_BLOCK = 1 << 17


def distortion_range(pi, data):
    """All-pairs distance distortion of a finite point set.

    Returns (lo, hi): the smallest and largest value of
    ||Pi x - Pi y|| / ||x - y|| over pairs with x != y.  Requires at least
    one distinct pair.  The pairs (i, j > i) are scanned a block of i at a
    time, each block's pair differences held to about ``_PAIR_BLOCK``
    entries, so memory stays O(n d) however many pairs there are.
    """
    pts = geometry._points_of(data)
    if pts.shape[1] != pi.d:
        raise ValueError(f"data dimension {pts.shape[1]} != map input dimension {pi.d}")
    proj = pts @ pi.matrix.T
    n = pts.shape[0]
    rows = max(1, _PAIR_BLOCK // max(n * max(pi.d, pi.t), 1))
    cols = np.arange(n)
    los, his = [], []
    for a in range(0, n - 1, rows):
        i, j = np.nonzero(cols[a:a + rows, None] < cols)
        i += a
        orig = np.linalg.norm(pts[i] - pts[j], axis=1)
        mask = orig > 0
        if np.any(mask):
            new = np.linalg.norm(proj[i[mask]] - proj[j[mask]], axis=1)
            ratio = new / orig[mask]
            los.append(np.min(ratio))
            his.append(np.max(ratio))
    if not los:
        raise ValueError("need at least one pair of distinct points")
    return float(np.min(los)), float(np.max(his))


def write_map(path, pi):
    """Serialize a map in the shared matrix text format (seed in a comment)."""
    geometry.write_points(path, pi.matrix, comments=[f"seed {pi.seed}"])


def read_map(path):
    """Read a map written by :func:`write_map`."""
    seed = 0
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "seed":
                    try:
                        seed = int(parts[1])
                    except ValueError:
                        raise ValueError(f"{path}: seed comment must be an integer, "
                                         f"got {parts[1]!r}") from None
            elif line:
                break
    return JLMap._own(geometry.read_points(path), seed)
