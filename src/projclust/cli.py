"""Command line driver: generate data, project, solve, sample, run experiments.

The worker pool is the only level of parallelism.  It runs one thread per
core this process may use, the calling thread counted (the PROJCLUST_THREADS
environment variable overrides the count), and OpenBLAS runs on one thread
unless the caller sets OPENBLAS_NUM_THREADS (see the package's ``__init__``).
Every experiment is deterministic given its --seed: work items draw from
per-index generator streams, and the pool never changes the output ordering,
so result files are byte-identical across runs and pool sizes.  ``preserve``
draws each trial's data in the first of its tasks to run and drops them after
the last, so it holds about one dataset per busy thread.  ``coreset`` and
``preserve`` share ``_target_dims`` (t by one rule, each in [1, d]) and
``_or_failed`` (a refused trial is a ``failed`` row), and both sample their
maps from the streams past --trials.
"""

import argparse
import os
import sys
import threading

import numpy as np

from . import coreset as coreset_mod
from . import counterexamples, geometry, jl, sensitivity, solvers
from ._rng import rng_stream
from .geometry import (
    Dataset, PROBLEMS, _fmt, _write_csv, read_dataset, read_points, write_points,
)
from .jl import preset_t

__all__ = ["main", "build_parser", "preset_t"]


# ---------------------------------------------------------------------------
# shared plumbing


def _num_threads():
    raw = os.environ.get("PROJCLUST_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n > 0:
        return n
    try:            # the cores this process may run on, under taskset or a cpuset
        return len(os.sched_getaffinity(0))
    except AttributeError:      # not every platform has it
        return os.cpu_count() or 1


def _run_tasks(worker, tasks):
    """``[worker(t) for t in tasks]`` on the calling thread and
    ``workers - 1`` more, each taking the next task under one lock, so the
    results keep the task order whatever the thread count.  After an error no
    task starts; once the started ones end, the error of the lowest failing
    task is raised."""
    workers = min(_num_threads(), max(len(tasks), 1))
    if workers <= 1:
        return [worker(t) for t in tasks]
    results = [None] * len(tasks)
    errors = {}
    lock = threading.Lock()
    upcoming = iter(range(len(tasks)))

    def drain():
        while True:
            with lock:
                i = None if errors else next(upcoming, None)
            if i is None:
                return
            try:
                results[i] = worker(tasks[i])
            except BaseException as err:    # re-raised below, on the caller
                with lock:
                    errors[i] = err

    # Worth its memory: numpy releases the GIL, so counterexample
    # (n = 10^6, t = 3, 10 trials) runs 1.8x faster on 2 cores than on 1
    # (0.94 against 0.54 s, median of 5 whole commands on a 2-vCPU host).
    helpers = [threading.Thread(target=drain) for _ in range(workers - 1)]
    for h in helpers:
        h.start()
    try:
        drain()
    finally:
        for h in helpers:
            h.join()
    if errors:
        raise errors[min(errors)]
    return results


def _solve(args, data):
    return solvers.solve(args.problem, data, args.k, args.z,
                         restarts=args.restarts, seed=args.seed,
                         method=args.method)


def _target_dims(args, n, d):
    if args.t_list is not None:
        ts = args.t_list
    elif args.t is not None:
        ts = [args.t]
    else:
        ts = [preset_t(args.problem, args.k, args.z, args.eps, n, d,
                       const=args.const, verbose=True)]
    for t in ts:
        if not 1 <= t <= d:
            raise ValueError(f"need 1 <= t <= d, got t={t} with d={d}")
    return ts


def _or_failed(stage, *stage_args):
    try:
        return stage(*stage_args)
    except (ValueError, np.linalg.LinAlgError):
        return None


# A cost at or below this share of the same points' cost about their own
# (weighted) mean, at the same z, is 0 up to rounding.
_ZERO_COST_SHARE = 2.0 ** -40


def _zero_floor(data, z):
    """The largest cost of ``data`` that :func:`_safe_ratio` reads as 0."""
    pts = geometry._points_of(data)
    w = data.weights if isinstance(data, geometry.WeightedSet) else None
    # np.linalg.norm(c, axis=1) by its own arithmetic, squaring c in place
    c = pts - np.average(pts, axis=0, weights=w)
    spread = np.sqrt(np.add.reduce(np.multiply(c, c, out=c), axis=1))
    return _ZERO_COST_SHARE * geometry._pow_sum(data, spread, z) ** (1.0 / z)


def _safe_ratio(num, den, floors):
    """num / den, each first read as 0 at or below its floor from
    :func:`_zero_floor`: 1 when both are 0, inf when only den is."""
    num = num if num > floors[0] else 0.0
    den = den if den > floors[1] else 0.0
    if den > 0.0:
        return num / den
    return 1.0 if num == 0.0 else np.inf


def _quantiles(values):
    """(median, p5, p95) of a non-empty list by the arithmetic of
    ``np.median`` and ``np.percentile``: the middle value or the mean of the
    two middle ones, and linear interpolation by numpy's ``_lerp`` rule.
    Those two import ``numpy.ma`` on first use, about 9.5 ms on numpy 2.4."""
    s = np.sort(np.asarray(values, dtype=np.float64)).tolist()
    n = len(s)
    if s[-1] != s[-1]:          # a nan sorts last, and makes every value nan
        return (np.nan,) * 3
    out = [s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0]
    for q in (0.05, 0.95):
        v = (n - 1) * q
        i = min(int(v), n - 1)
        a, b, g = s[i], s[min(i + 1, n - 1)], v - i
        out.append(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)
    return tuple(out)


# ---------------------------------------------------------------------------
# synthetic instances


# Each generator sums into one buffer in the order of operations of
# ``a + b + noise``: IEEE addition and multiplication commute, so the bits
# are those of the expression, without its temporaries.


def make_gaussian_mixture(n, d, k, noise, rng):
    centers = rng.normal(0.0, 5.0, (k, d))
    labels = rng.integers(0, k, n)
    pts = rng.normal(0.0, noise, (n, d))
    for b in range(k):
        np.add(pts, centers[b], out=pts, where=(labels == b)[:, None])
    return Dataset._own(pts)


def _random_basis(k, d, rng):
    if k > d:
        raise ValueError(f"need k <= d, got k={k} with d={d}")
    return geometry._orthonormal_rows(rng.normal(size=(k, d)))


def make_near_subspace(n, d, k, noise, rng):
    basis = _random_basis(k, d, rng)
    pts = rng.normal(0.0, 3.0, (n, k)) @ basis
    pts += rng.normal(0.0, noise, (n, d))
    return Dataset._own(pts)


def make_near_flat(n, d, k, noise, rng):
    basis = _random_basis(k, d, rng)
    pts = rng.normal(0.0, 3.0, (n, k)) @ basis
    pts += rng.normal(0.0, 3.0, d)
    pts += rng.normal(0.0, noise, (n, d))
    return Dataset._own(pts)


def make_near_lines(n, d, k, noise, rng):
    anchors = rng.normal(0.0, 3.0, (k, d))
    dirs = rng.normal(size=(k, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    labels = rng.integers(0, k, n)
    steps = rng.uniform(-5.0, 5.0, n)
    pts = dirs[labels]
    pts *= steps[:, None]
    pts += anchors[labels]
    pts += rng.normal(0.0, noise, (n, d))
    return Dataset._own(pts)


# `gen --kind` names of the seeded synthetic instances
_SYNTHETIC = {
    "gaussian-mixture": make_gaussian_mixture,
    "points-near-k-lines": make_near_lines,
    "points-near-k-flat": make_near_flat,
}

_INSTANCE_FOR_PROBLEM = {
    "clustering": make_gaussian_mixture,
    "subspace": make_near_subspace,
    "flat": make_near_flat,
    "lines": make_near_lines,
}


def _profile_for(problem, data, solution, z):
    # looked up per call, so wrappers installed on the sensitivity module apply
    score = {"clustering": sensitivity.clustering_sensitivity,
             "subspace": sensitivity.subspace_sensitivity,
             "flat": sensitivity.flat_sensitivity,
             "lines": sensitivity.line_sensitivity}[problem]
    return score(data, solution, z)


# ---------------------------------------------------------------------------
# solution files


def _write_solution(path, problem, solution):
    if problem == "clustering":
        write_points(path, solution.centers, comments=["rows are centers"])
    elif problem == "subspace":
        write_points(path, solution.basis,
                     comments=["rows are an orthonormal basis"])
    elif problem == "flat":
        rows = np.vstack([solution.direction.basis, solution.translation])
        write_points(path, rows,
                     comments=["orthonormal basis rows, then the translation"])
    else:
        rows = np.vstack([np.stack([ln.anchor, ln.direction])
                          for ln in solution.lines])
        write_points(path, rows,
                     comments=["rows alternate line anchor, line direction"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args):
    kind = args.kind
    if kind in _SYNTHETIC:
        data = _SYNTHETIC[kind](args.n, args.d, args.k, args.noise, rng_stream(args.seed))
    elif kind == "medoid":
        data = counterexamples.gen_medoid_instance(args.n)
    else:
        data = counterexamples.gen_css_instance(args.n)
    write_points(args.out, data, comments=[f"kind={kind} seed={args.seed}"])
    print(f"wrote {data.n} x {data.d} points to {args.out}")
    return 0


def cmd_project(args):
    pts = read_points(args.infile)
    d = pts.shape[1]
    pi = jl.sample_jl(d, args.t, args.seed, stream=0)
    proj = jl.apply(pi, pts)
    write_points(args.out, proj, comments=[f"projected from d={d}"])
    if args.map_out:
        jl.write_map(args.map_out, pi)
    print(f"wrote {proj.shape[0]} x {proj.shape[1]} points to {args.out}")
    return 0


def cmd_solve(args):
    data = read_dataset(args.infile)
    rep = _solve(args, data)
    print(f"problem={args.problem} n={data.n} d={data.d} k={args.k} "
          f"z={_fmt(args.z)} method={rep.method} "
          f"cost={_fmt(float(rep.cost))} cost_pow={_fmt(float(rep.cost_pow))} "
          f"converged={rep.converged}")
    if args.out:
        _write_solution(args.out, args.problem, rep.solution)
    return 0


def cmd_coreset(args):
    """Weak-coreset quality: solver optimum on the sample vs the full data,
    measured in the original space and again after a random projection."""
    data = read_dataset(args.infile)
    t, = _target_dims(args, data.n, data.d)
    rep_full = _solve(args, data)
    cost_full = float(rep_full.cost)
    floor_full = _zero_floor(data, args.z)
    prof = _profile_for(args.problem, data, rep_full.solution, args.z)

    def probe(trial):
        ws = coreset_mod.sensitivity_sample(data, prof, args.m, args.seed,
                                            stream=trial).extract(data)
        rep_cs = _solve(args, ws)
        pi = jl.sample_jl(data.d, t, args.seed, stream=args.trials + trial)
        pdata, pws = jl.apply(pi, data), jl.apply(pi, ws)
        rep_pf = _solve(args, pdata)
        rep_pc = _solve(args, pws)
        return [args.m, trial, "ok", cost_full, float(rep_cs.cost),
                _safe_ratio(float(rep_cs.cost), cost_full,
                            (_zero_floor(ws, args.z), floor_full)),
                _safe_ratio(float(rep_pc.cost), float(rep_pf.cost),
                            (_zero_floor(pws, args.z), _zero_floor(pdata, args.z)))]

    probed = _run_tasks(lambda trial: _or_failed(probe, trial), list(range(args.trials)))
    rows = [row or [args.m, trial, "failed", cost_full, None, None, None]
            for trial, row in enumerate(probed)]
    _write_csv(args.out, ["m", "trial", "status", "cost_full", "cost_coreset",
                          "ratio_before_projection", "ratio_after_projection"],
               rows)
    ok = [r for r in rows if r[2] == "ok"]
    if ok:
        before = _quantiles([r[5] for r in ok])[0]
        after = _quantiles([r[6] for r in ok])[0]
        print(f"coreset m={args.m} of n={data.n}, t={t}: median ratio "
              f"{_fmt(before)} before projection, {_fmt(after)} after "
              f"({len(ok)}/{args.trials} trials ok)")
    else:
        print(f"coreset m={args.m} of n={data.n}, t={t}: all trials failed")
    return 0 if len(ok) == args.trials else 1


def cmd_preserve(args):
    """Ratio of the solver optimum after projection to the optimum before."""
    ts = _target_dims(args, args.n, args.d)
    trials, per = args.trials, 1 + len(ts)
    make = _INSTANCE_FOR_PROBLEM[args.problem]
    held, left = [None] * trials, [per] * trials
    locks = [threading.Lock() for _ in range(trials)]

    def solve_task(j):
        """Task j is step s = j % per of trial j // per: s = 0 is the trial's
        full solve, s >= 1 projects it to ts[s - 1] by the map of stream
        s * trials + trial.  The first of a trial's tasks to run draws its
        data from stream trial, and the last to end drops them.  Each gives
        its report (the cost of a full solve) and its points' floor."""
        trial, s = divmod(j, per)
        with locks[trial]:
            if held[trial] is None:
                held[trial] = make(args.n, args.d, args.k, 1.0, rng_stream(args.seed, trial))
            data = held[trial]
        try:
            if s == 0:
                return float(_solve(args, data).cost), _zero_floor(data, args.z)
            pi = jl.sample_jl(args.d, ts[s - 1], args.seed, stream=s * trials + trial)
            pdata = jl.apply(pi, data)
            return _or_failed(_solve, args, pdata), _zero_floor(pdata, args.z)
        finally:
            with locks[trial]:
                left[trial] -= 1
                if not left[trial]:
                    held[trial] = None

    # one task list, trial by trial, so that the pool is the only level of
    # parallelism and a trial's data live only while its tasks run
    solved = _run_tasks(solve_task, list(range(per * trials)))

    header = ["row", "problem", "n", "d", "k", "z", "t", "trial", "status",
              "method", "cost_original", "cost_projected", "ratio",
              "completed", "failed", "median", "p5", "p95"]
    rows = []
    for s, t in enumerate(ts, start=1):
        for trial in range(trials):
            cost_full, floor_full = solved[trial * per]
            rep, floor = solved[trial * per + s]
            if rep is None:
                res = ["failed", None, cost_full, None, None]
            else:
                res = ["ok", rep.method, cost_full, float(rep.cost),
                       _safe_ratio(float(rep.cost), cost_full, (floor, floor_full))]
            rows.append(["record", args.problem, args.n, args.d, args.k, args.z,
                         t, trial, *res, None, None, None, None, None])
    for ti, t in enumerate(ts):
        ok = [r for r in rows[ti * trials:(ti + 1) * trials] if r[8] == "ok"]
        ratios = [r[12] for r in ok if np.isfinite(r[12])]
        med, p5, p95 = _quantiles(ratios) if ratios else (None, None, None)
        rows.append(["summary", args.problem, args.n, args.d, args.k, args.z,
                     t, None, None, None, None, None, None,
                     len(ok), trials - len(ok), med, p5, p95])
        print(f"t={t} ok={len(ok)}/{trials} median={_fmt(med)} "
              f"p5={_fmt(p5)} p95={_fmt(p95)}")
    _write_csv(args.out, header, rows)
    if args.plot:
        summary = [r for r in rows if r[0] == "summary" and r[15] is not None]
        _render_svg(args.plot,
                    [r[6] for r in summary],
                    [r[15] for r in summary],
                    [r[16] for r in summary],
                    [r[17] for r in summary],
                    f"{args.problem}: cost ratio vs projection dimension")
    return 1 if any(r[8] == "failed" for r in rows) else 0


# The ratio each family's printed count is taken at.
_RATIO_THRESHOLDS = {"medoid": 1.5, "css": 1.25}


def cmd_counterexample(args):
    which = ["medoid", "css"] if args.which == "both" else [args.which]
    reps = _run_tasks(lambda i: counterexamples.counterexample_trial(
        which[i // args.trials], args.n, args.t, args.seed + i),
        range(len(which) * args.trials))
    rows = [[r.which, r.n, r.t, r.seed, r.cost_original, r.cost_projected,
             float(r.ratio)] for r in reps]
    _write_csv(args.out, ["which", "n", "t", "seed", "cost_original",
                          "cost_projected", "ratio"], rows)
    for w in which:
        thr = _RATIO_THRESHOLDS[w]
        ratios = [float(r.ratio) for r in reps if r.which == w]
        hits = sum(v >= thr for v in ratios)
        print(f"which={w} n={args.n} t={args.t} trials={len(ratios)} "
              f"median_ratio={_fmt(_quantiles(ratios)[0])} "
              f"ratio_ge_{_fmt(thr)}={hits}/{len(ratios)}")
    return 0


# ---------------------------------------------------------------------------
# plotting (plain SVG, no dependencies)


def _render_svg(path, ts, med, lo, hi, title):
    width, height = 640, 400
    ml, mr, mt, mb = 60, 20, 40, 50
    finite = [i for i in range(len(ts))
              if np.isfinite(med[i]) and np.isfinite(lo[i]) and np.isfinite(hi[i])]
    vals = [v for i in finite for v in (lo[i], med[i], hi[i])] + [1.0]
    ymin, ymax = min(vals), max(vals)
    pad = 0.1 * (ymax - ymin) or 0.1
    ymin, ymax = ymin - pad, ymax + pad

    def x(i):
        if len(ts) == 1:
            return ml + (width - ml - mr) / 2.0
        return ml + (width - ml - mr) * i / (len(ts) - 1)

    def y(v):
        return mt + (height - mt - mb) * (1.0 - (v - ymin) / (ymax - ymin))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2}" y="24" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>']
    if finite:
        band = (" ".join(f"{x(i):.2f},{y(hi[i]):.2f}" for i in finite) + " "
                + " ".join(f"{x(i):.2f},{y(lo[i]):.2f}" for i in reversed(finite)))
        parts.append(f'<polygon points="{band}" fill="#9ecae1" opacity="0.5"/>')
        line = " ".join(f"{x(i):.2f},{y(med[i]):.2f}" for i in finite)
        parts.append(f'<polyline points="{line}" fill="none" '
                     f'stroke="#08519c" stroke-width="2"/>')
        for i in finite:
            parts.append(f'<circle cx="{x(i):.2f}" cy="{y(med[i]):.2f}" '
                         f'r="3" fill="#08519c"/>')
    parts.append(f'<line x1="{ml}" y1="{y(1.0):.2f}" x2="{width - mr}" '
                 f'y2="{y(1.0):.2f}" stroke="#999" stroke-dasharray="4 3"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
                 f'y2="{height - mb}" stroke="black"/>')
    for i, t in enumerate(ts):
        parts.append(f'<text x="{x(i):.2f}" y="{height - mb + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{t}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = ymin + frac * (ymax - ymin)
        parts.append(f'<text x="{ml - 8}" y="{y(v) + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{v:.2f}</text>')
    parts.append(f'<text x="{width / 2}" y="{height - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">projection dimension t</text>')
    parts.append('</svg>')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# parser


def _count(text):
    """An argparse type for counts (--n, --d, --k, --m, --trials, --restarts,
    --t of project and counterexample, and the --t-list entries): an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _dims(text):
    """An argparse type for --t-list: comma-separated counts, at least one."""
    dims = [_count(s) for s in text.split(",") if s.strip()]
    if not dims:
        raise argparse.ArgumentTypeError(f"no dimension in {text!r}")
    return dims


def _solver_options(g):
    g.add_argument("--method", default="auto",
                   choices=["auto", "exact", "heuristic"])
    g.add_argument("--restarts", type=_count, default=20)
    g.add_argument("--seed", type=int, default=0)


def build_parser():
    p = argparse.ArgumentParser(
        prog="projclust",
        description="dimension reduction experiments for projective clustering")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic point set")
    g.add_argument("--kind", required=True,
                   choices=[*_SYNTHETIC, "medoid", "css"])
    g.add_argument("--n", type=_count, required=True)
    g.add_argument("--d", type=_count, default=2)
    g.add_argument("--k", type=_count, default=3)
    g.add_argument("--noise", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    g = sub.add_parser("project", help="apply a random projection to a point file")
    g.add_argument("--in", dest="infile", required=True)
    g.add_argument("--t", type=_count, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--map-out", help="also write the map that was used")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_project)

    g = sub.add_parser("solve", help="fit centers, a subspace, a flat, or lines")
    g.add_argument("--in", dest="infile", required=True)
    g.add_argument("--problem", required=True, choices=list(PROBLEMS))
    g.add_argument("--k", type=_count, required=True)
    g.add_argument("--z", type=float, default=2.0)
    _solver_options(g)
    g.add_argument("--out", help="write the fitted solution to this file")
    g.set_defaults(func=cmd_solve)

    g = sub.add_parser("coreset",
                       help="sensitivity-sample a coreset and probe its quality")
    g.add_argument("--in", dest="infile", required=True)
    g.add_argument("--problem", required=True, choices=list(PROBLEMS))
    g.add_argument("--k", type=_count, required=True)
    g.add_argument("--z", type=float, default=2.0)
    g.add_argument("--m", type=_count, required=True, help="coreset size")
    g.add_argument("--t", type=int,
                   help="projection dimension for the after-projection ratio")
    g.add_argument("--eps", type=float, default=0.3,
                   help="accuracy target feeding the preset for --t")
    g.add_argument("--const", type=float, default=1.0,
                   help="rescale the preset dimension formula")
    g.add_argument("--trials", type=_count, default=20,
                   help="number of independent coreset draws")
    _solver_options(g)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_coreset, t_list=None)

    g = sub.add_parser("preserve",
                       help="measure how projection changes the optimal cost")
    g.add_argument("--problem", required=True, choices=list(PROBLEMS))
    g.add_argument("--n", type=_count, default=200)
    g.add_argument("--d", type=_count, default=100)
    g.add_argument("--k", type=_count, default=2)
    g.add_argument("--z", type=float, default=2.0)
    g.add_argument("--eps", type=float, default=0.3)
    g.add_argument("--t", type=int, help="single projection dimension")
    g.add_argument("--t-list", type=_dims, help="comma-separated projection dimensions")
    g.add_argument("--const", type=float, default=1.0,
                   help="rescale the preset dimension formula")
    g.add_argument("--trials", type=_count, default=20)
    _solver_options(g)
    g.add_argument("--out", required=True)
    g.add_argument("--plot", help="write an SVG chart to this file")
    g.set_defaults(func=cmd_preserve)

    g = sub.add_parser("counterexample",
                       help="original vs projected cost on the hard instances")
    g.add_argument("--which", default="both", choices=["medoid", "css", "both"])
    g.add_argument("--n", type=_count, required=True)
    g.add_argument("--t", type=_count, default=3)
    g.add_argument("--trials", type=_count, default=20)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_counterexample)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
