"""Command line driver: generate data, project, solve, sample, run experiments.

Every experiment is deterministic given its --seed: work items draw from
per-index generator streams, and the worker pool (capped by the
PROJCLUST_THREADS environment variable) never changes the output ordering,
so result files are byte-identical across runs and thread counts.
"""

import argparse
import csv
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import coreset as coreset_mod
from . import counterexamples, geometry, jl, sensitivity, solvers
from ._rng import rng_stream
from .geometry import (
    Dataset, PROBLEMS, read_dataset, read_points, write_points,
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
    return n if n > 0 else (os.cpu_count() or 1)


def _run_tasks(worker, tasks):
    """Map worker over tasks, preserving order regardless of thread count."""
    workers = min(_num_threads(), max(len(tasks), 1))
    if workers <= 1:
        return [worker(t) for t in tasks]
    # Worth its memory: numpy releases the GIL, so counterexample runs 1.6x faster on 2 cores.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _solve(args, data):
    return solvers.solve(args.problem, data, args.k, args.z,
                         restarts=args.restarts, seed=args.seed,
                         method=args.method)


def _safe_ratio(num, den):
    if den > 0.0:
        return num / den
    return 1.0 if num == 0.0 else np.inf


# ---------------------------------------------------------------------------
# synthetic instances


def make_gaussian_mixture(n, d, k, noise, rng):
    centers = rng.normal(0.0, 5.0, (k, d))
    labels = rng.integers(0, k, n)
    return Dataset(centers[labels] + rng.normal(0.0, noise, (n, d)))


def make_near_subspace(n, d, k, noise, rng):
    basis = geometry._orthonormal_rows(rng.normal(size=(k, d)))
    coeffs = rng.normal(0.0, 3.0, (n, k))
    return Dataset(coeffs @ basis + rng.normal(0.0, noise, (n, d)))


def make_near_flat(n, d, k, noise, rng):
    basis = geometry._orthonormal_rows(rng.normal(size=(k, d)))
    coeffs = rng.normal(0.0, 3.0, (n, k))
    shift = rng.normal(0.0, 3.0, d)
    return Dataset(coeffs @ basis + shift + rng.normal(0.0, noise, (n, d)))


def make_near_lines(n, d, k, noise, rng):
    anchors = rng.normal(0.0, 3.0, (k, d))
    dirs = rng.normal(size=(k, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    labels = rng.integers(0, k, n)
    steps = rng.uniform(-5.0, 5.0, n)
    pts = anchors[labels] + steps[:, None] * dirs[labels]
    return Dataset(pts + rng.normal(0.0, noise, (n, d)))


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
    elif problem == "lines":
        rows = np.vstack([np.stack([ln.anchor, ln.direction])
                          for ln in solution.lines])
        write_points(path, rows,
                     comments=["rows alternate line anchor, line direction"])
    else:
        raise ValueError(f"unknown problem: {problem!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args):
    rng = rng_stream(args.seed)
    kind = args.kind
    if kind == "medoid":
        data = counterexamples.gen_medoid_instance(args.n)
    elif kind == "css":
        data = counterexamples.gen_css_instance(args.n)
    elif kind == "gaussian-mixture":
        data = make_gaussian_mixture(args.n, args.d, args.k, args.noise, rng)
    elif kind == "points-near-k-lines":
        data = make_near_lines(args.n, args.d, args.k, args.noise, rng)
    elif kind == "points-near-k-flat":
        data = make_near_flat(args.n, args.d, args.k, args.noise, rng)
    else:
        raise ValueError(f"unknown kind: {kind!r}")
    write_points(args.out, data, comments=[f"kind={kind} seed={args.seed}"])
    print(f"wrote {data.n} x {data.d} points to {args.out}")
    return 0


def cmd_project(args):
    pts = read_points(args.infile)
    d = pts.shape[1]
    if args.identity:
        pi = jl.identity_map(d)
    else:
        if args.t is None:
            print("project: --t is required unless --identity is given",
                  file=sys.stderr)
            return 2
        pi = jl.sample_jl(d, args.t, args.seed)
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
    n, d = data.n, data.d
    t = args.t
    if t is None:
        t = preset_t(args.problem, args.k, args.z, args.eps, n, d,
                     const=args.const, verbose=True)
    if not 1 <= t <= d:
        raise ValueError(f"need 1 <= t <= d, got t={t} with d={d}")
    rep_full = _solve(args, data)
    cost_full = float(rep_full.cost)
    prof = _profile_for(args.problem, data, rep_full.solution, args.z)
    trials = args.trials

    def probe(trial):
        try:
            cs = coreset_mod.sensitivity_sample(data, prof, args.m, args.seed,
                                                stream=trial)
            ws = cs.extract(data)
            rep_cs = _solve(args, ws)
            pi = jl.sample_jl(d, t, args.seed, stream=trials + trial)
            rep_pf = _solve(args, jl.apply(pi, data))
            rep_pc = _solve(args, jl.apply(pi, ws))
        except (ValueError, np.linalg.LinAlgError):
            return [args.m, trial, "failed", cost_full, None, None, None]
        return [args.m, trial, "ok", cost_full, float(rep_cs.cost),
                _safe_ratio(float(rep_cs.cost), cost_full),
                _safe_ratio(float(rep_pc.cost), float(rep_pf.cost))]

    rows = _run_tasks(probe, list(range(trials)))
    _write_csv(args.out, ["m", "trial", "status", "cost_full", "cost_coreset",
                          "ratio_before_projection", "ratio_after_projection"],
               rows)
    ok = [r for r in rows if r[2] == "ok"]
    if ok:
        before = float(np.median([r[5] for r in ok]))
        after = float(np.median([r[6] for r in ok]))
        print(f"coreset m={args.m} of n={n}, t={t}: median ratio "
              f"{_fmt(before)} before projection, {_fmt(after)} after "
              f"({len(ok)}/{trials} trials ok)")
    else:
        print(f"coreset m={args.m} of n={n}, t={t}: all trials failed")
    return 0 if len(ok) == trials else 1


def cmd_preserve(args):
    """Ratio of the solver optimum after projection to the optimum before."""
    problem = args.problem
    if args.identity:
        ts = [args.d]
    elif args.t_list:
        ts = [int(s) for s in args.t_list.split(",") if s.strip()]
    elif args.t is not None:
        ts = [args.t]
    else:
        ts = [preset_t(problem, args.k, args.z, args.eps, args.n, args.d,
                       const=args.const, verbose=True)]
    if any(not 1 <= t <= args.d for t in ts):
        raise ValueError(f"need 1 <= t <= d for every t in {ts} with d={args.d}")
    trials = args.trials
    make = _INSTANCE_FOR_PROBLEM[problem]

    def full_solve(trial):
        data = make(args.n, args.d, args.k, 1.0, rng_stream(args.seed, trial))
        return data, float(_solve(args, data).cost)

    full = _run_tasks(full_solve, list(range(trials)))

    def project_solve(task):
        ti, trial = task
        data, cost_full = full[trial]
        try:
            if args.identity:
                pi = jl.identity_map(args.d)
            else:
                pi = jl.sample_jl(args.d, ts[ti], args.seed,
                                  stream=trials + ti * trials + trial)
            rep = _solve(args, jl.apply(pi, data))
        except (ValueError, np.linalg.LinAlgError):
            return ["failed", None, cost_full, None, None]
        return ["ok", rep.method, cost_full, float(rep.cost),
                _safe_ratio(float(rep.cost), cost_full)]

    tasks = [(ti, trial) for ti in range(len(ts)) for trial in range(trials)]
    results = _run_tasks(project_solve, tasks)

    header = ["row", "problem", "n", "d", "k", "z", "t", "trial", "status",
              "method", "cost_original", "cost_projected", "ratio",
              "completed", "failed", "median", "p5", "p95"]
    rows = []
    failures = 0
    for (ti, trial), res in zip(tasks, results):
        status, method, cost_full, cost_proj, ratio = res
        failures += status == "failed"
        rows.append(["record", problem, args.n, args.d, args.k, args.z,
                     ts[ti], trial, status, method, cost_full, cost_proj,
                     ratio, None, None, None, None, None])
    for ti, t in enumerate(ts):
        ratios = [r[4] for (i, _), r in zip(tasks, results)
                  if i == ti and r[0] == "ok" and np.isfinite(r[4])]
        ok = sum(1 for (i, _), r in zip(tasks, results)
                 if i == ti and r[0] == "ok")
        med = p5 = p95 = None
        if ratios:
            med = float(np.median(ratios))
            p5 = float(np.percentile(ratios, 5))
            p95 = float(np.percentile(ratios, 95))
        rows.append(["summary", problem, args.n, args.d, args.k, args.z,
                     t, None, None, None, None, None, None,
                     ok, trials - ok, med, p5, p95])
        print(f"t={t} ok={ok}/{trials} median={_fmt(med)} "
              f"p5={_fmt(p5)} p95={_fmt(p95)}")
    _write_csv(args.out, header, rows)
    if args.plot:
        summary = [r for r in rows if r[0] == "summary" and r[15] is not None]
        _render_svg(args.plot,
                    [r[6] for r in summary],
                    [r[15] for r in summary],
                    [r[16] for r in summary],
                    [r[17] for r in summary],
                    f"{problem}: cost ratio vs projection dimension")
    return 0 if failures == 0 else 1


def cmd_counterexample(args):
    which = ["medoid", "css"] if args.which == "both" else [args.which]
    thresholds = {"medoid": 1.5, "css": 1.25}
    tasks = [(w, trial) for w in which for trial in range(args.trials)]

    def run(task):
        w, trial = task
        offset = which.index(w) * args.trials
        return counterexamples.counterexample_trial(
            w, args.n, args.t, args.seed + offset + trial)

    reps = _run_tasks(run, tasks)
    rows = [[r.which, r.n, r.t, r.seed, r.cost_original, r.cost_projected,
             float(r.ratio)] for r in reps]
    _write_csv(args.out, ["which", "n", "t", "seed", "cost_original",
                          "cost_projected", "ratio"], rows)
    for w in which:
        thr = args.threshold if args.threshold is not None else thresholds[w]
        ratios = np.array([r.ratio for r in reps if r.which == w])
        hits = int(np.sum(ratios >= thr))
        print(f"which={w} n={args.n} t={args.t} trials={len(ratios)} "
              f"median_ratio={_fmt(float(np.median(ratios)))} "
              f"ratio_ge_{_fmt(float(thr))}={hits}/{len(ratios)}")
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


def _solver_options(g):
    g.add_argument("--method", default="auto",
                   choices=["auto", "exact", "heuristic"])
    g.add_argument("--restarts", type=int, default=20)
    g.add_argument("--seed", type=int, default=0)


def build_parser():
    p = argparse.ArgumentParser(
        prog="projclust",
        description="dimension reduction experiments for projective clustering")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic point set")
    g.add_argument("--kind", required=True,
                   choices=["gaussian-mixture", "points-near-k-lines",
                            "points-near-k-flat", "medoid", "css"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--k", type=int, default=3)
    g.add_argument("--noise", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    g = sub.add_parser("project", help="apply a random projection to a point file")
    g.add_argument("--in", dest="infile", required=True)
    g.add_argument("--t", type=int)
    g.add_argument("--identity", action="store_true",
                   help="use the identity map instead of a sampled one")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--map-out", help="also write the map that was used")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_project)

    g = sub.add_parser("solve", help="fit centers, a subspace, a flat, or lines")
    g.add_argument("--in", dest="infile", required=True)
    g.add_argument("--problem", required=True, choices=list(PROBLEMS))
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--z", type=float, default=2.0)
    _solver_options(g)
    g.add_argument("--out", help="write the fitted solution to this file")
    g.set_defaults(func=cmd_solve)

    g = sub.add_parser("coreset",
                       help="sensitivity-sample a coreset and probe its quality")
    g.add_argument("--in", dest="infile", required=True)
    g.add_argument("--problem", required=True, choices=list(PROBLEMS))
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--z", type=float, default=2.0)
    g.add_argument("--m", type=int, required=True, help="coreset size")
    g.add_argument("--t", type=int,
                   help="projection dimension for the after-projection ratio")
    g.add_argument("--eps", type=float, default=0.3,
                   help="accuracy target feeding the preset for --t")
    g.add_argument("--const", type=float, default=1.0,
                   help="rescale the preset dimension formula")
    g.add_argument("--trials", type=int, default=20,
                   help="number of independent coreset draws")
    _solver_options(g)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_coreset)

    g = sub.add_parser("preserve",
                       help="measure how projection changes the optimal cost")
    g.add_argument("--problem", required=True, choices=list(PROBLEMS))
    g.add_argument("--n", type=int, default=200)
    g.add_argument("--d", type=int, default=100)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--z", type=float, default=2.0)
    g.add_argument("--eps", type=float, default=0.3)
    g.add_argument("--t", type=int, help="single projection dimension")
    g.add_argument("--t-list", help="comma-separated projection dimensions")
    g.add_argument("--identity", action="store_true",
                   help="use the identity map at t = d (debug baseline)")
    g.add_argument("--const", type=float, default=1.0,
                   help="rescale the preset dimension formula")
    g.add_argument("--trials", type=int, default=20)
    _solver_options(g)
    g.add_argument("--out", required=True)
    g.add_argument("--plot", help="write an SVG chart to this file")
    g.set_defaults(func=cmd_preserve)

    g = sub.add_parser("counterexample",
                       help="original vs projected cost on the hard instances")
    g.add_argument("--which", default="both", choices=["medoid", "css", "both"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--t", type=int, default=3)
    g.add_argument("--trials", type=int, default=20)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--threshold", type=float,
                   help="override the per-family ratio threshold")
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
