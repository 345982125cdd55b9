"""Benchmark of the projclust command line, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  The seed fixes the workload's K inputs.  The benchmark runs the
workload's command once on each input, then repeats it on the inputs in
turn until S seconds are used, one process at a time.  Set-up (process
start, ``import projclust`` and, where the workload has them, writing its
inputs with ``projclust gen``) runs in processes of its own.  Every
command's output is checked.  With ``--trace 1`` each input runs untraced
and then traced, input after input, and the per-layer metrics are
reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run record (environment, samples, CSV digest).  The exit code is
0 only if every check passed.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

IMPORTS = 5             # set-up processes of a workload without input files
PROCESS_TIMEOUT_S = 120

CLI = "import sys; from projclust.cli import main; sys.exit(main())"
IMPORT = "import projclust"
THREAD_VARS = ("PROJCLUST_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
ENV_PROBE = f"""
import json, os, sys
import numpy, scipy, projclust
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {{}}).get("blas")
print(json.dumps({{
    "python": sys.version.split()[0], "numpy": numpy.__version__,
    "scipy": scipy.__version__, "blas": blas, "projclust": projclust.__file__,
    "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
    "threads": {{k: os.environ.get(k) for k in {THREAD_VARS!r}}},
}}))
"""


class Process:
    def __init__(self, code, wall, cpu, rss_mb, stdout, stderr):
        self.code = code
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr


def child_env():
    """The caller's environment with the checkout's ``src`` on the path.

    ``PROJCLUST_THREADS`` is removed so the CLI pool runs at its default;
    BLAS variables pass through unchanged and are recorded.
    """
    env = dict(os.environ)
    env.pop("PROJCLUST_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv, env, cwd):
    """Run argv to completion; wall time, CPU time and peak RSS of that process."""
    with open(cwd / "stdout.txt", "w+b") as out, \
            open(cwd / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        killer.join()
        out.seek(0)
        err.seek(0)
        return Process(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0,
                       out.read().decode("utf-8", "replace"),
                       err.read().decode("utf-8", "replace"))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_commit():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "projclust").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Invocation:
    def __init__(self, traced, proc, outcome, digest, layer_metrics):
        self.traced = traced
        self.proc = proc
        self.outcome = outcome
        self.digest = digest
        self.layer_metrics = layer_metrics


def input_name(j):
    return f"input-{j}.txt"


def invoke(wl, cli_seed, j, traced, env, work):
    """Run the workload's command on input j once and check what it wrote."""
    out_path = work / "out.csv"
    spans_path = work / "spans.json"
    argv = wl.command(cli_seed, input_name(j), out_path.name)
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), spans_path.name]
    else:
        cmd = [sys.executable, "-c", CLI]
    proc = run_process(cmd + argv, env, work)
    csv_bytes = out_path.read_bytes() if out_path.exists() else b""
    try:
        outcome = wl.check(csv_bytes.decode("utf-8"), proc.stdout)
    except (KeyError, ValueError, TypeError, UnicodeDecodeError) as err:
        outcome = workloads.Outcome(0, 0, 0, math.nan,
                                    [f"unreadable output: {err!r}"])
    if proc.code != 0:
        outcome.errors.append(f"exit code {proc.code}: "
                              f"{proc.stderr.strip()[-300:]}")
    layer_metrics = None
    if traced and spans_path.exists():
        layer_metrics = layers.per_layer_metrics(
            json.loads(spans_path.read_text()))
    elif traced:
        outcome.errors.append("traced run wrote no spans")
    for path in (out_path, spans_path):
        if path.exists():
            path.unlink()
    return Invocation(traced, proc, outcome,
                      hashlib.sha256(csv_bytes).hexdigest(), layer_metrics)


def set_up(wl, seed, j, env, work, walls, digests):
    """Write input j with ``gen``, or, for a workload without input files,
    start a process that imports projclust."""
    argv = wl.setup(wl.cli_seed(seed, j), input_name(j))
    cmd = ([sys.executable, "-c", CLI] + argv if argv
           else [sys.executable, "-c", IMPORT])
    proc = run_process(cmd, env, work)
    if proc.code != 0:
        raise RuntimeError(f"set-up exited {proc.code}: "
                           f"{proc.stderr.strip()[-300:]}")
    walls.append(proc.wall)
    if argv:
        digests.setdefault(j, set()).add(sha256(work / input_name(j)))


def schedule(inputs, trace):
    """The steps of a run: (input, traced, whether the run may end after it).

    Untraced, every input runs once and then the inputs repeat in turn.
    With ``trace`` each input runs untraced and then traced, so the two
    runs of a pair see the same host load and give the same CSV.
    """
    if trace:
        for j in itertools.cycle(range(inputs)):
            yield j, False, False
            yield j, True, True
    else:
        for step in itertools.count():
            yield step % inputs, False, step >= inputs


def measure(wl, seed, seconds, trace, env, work):
    """Run the steps of ``schedule`` until the next stop would overrun.

    A step is set-up (``gen`` rewrites the input, so it is checked to write
    the same file each time) and the command.  A workload without input
    files starts ``IMPORTS`` importing processes instead, before the first
    step.  The run ends at the first point where it may end and the steps
    up to the next such point would not fit in the time left, judged by
    the longest step so far.  Returns the set-up times, the input digests
    by input, and each input's invocations.
    """
    deadline = time.perf_counter() + seconds
    setup_walls, input_digests = [], {}
    runs = [[] for _ in range(wl.inputs)]
    has_files = wl.setup(0, input_name(0)) is not None
    if not has_files:
        for _ in range(IMPORTS):
            set_up(wl, seed, 0, env, work, setup_walls, input_digests)
    longest = 0.0
    steps_between_stops = 2 if trace else 1
    for j, traced, may_stop in schedule(wl.inputs, trace):
        start = time.perf_counter()
        if has_files:
            set_up(wl, seed, j, env, work, setup_walls, input_digests)
        runs[j].append(invoke(wl, wl.cli_seed(seed, j), j, traced, env,
                              work))
        now = time.perf_counter()
        longest = max(longest, now - start)
        if may_stop and now + steps_between_stops * longest > deadline:
            return setup_walls, input_digests, runs


def per_input(runs, value, traced=False):
    """For each input with such runs, the median of ``value(invocation)``
    over its untraced (or traced) runs."""
    return {j: statistics.median(value(i) for i in invs if i.traced == traced)
            for j, invs in enumerate(runs)
            if any(i.traced == traced for i in invs)}


def end_to_end_metrics(setup_walls, runs, ok_frac):
    """Each input's times are the medians over its untraced runs; a metric
    is the mean over the inputs, so every input weighs the same."""
    mean = statistics.fmean
    wall = per_input(runs, lambda i: i.proc.wall)
    ok_rows = [invs[0].outcome.ok_rows for invs in runs]
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": mean(wall.values()),
        "cpu_s": mean(per_input(runs, lambda i: i.proc.cpu).values()),
        "peak_rss_mb": max(per_input(runs, lambda i: i.proc.rss_mb).values()),
        "trials_per_s": sum(ok_rows) / sum(wall.values()),
        "ok_frac": ok_frac,
        "full_cost": mean(invs[0].outcome.full_cost for invs in runs),
    }


def per_layer_metrics(runs):
    """The mean over traced runs, and the traced ÷ untraced wall time of
    the inputs that ran traced, less one."""
    traced = [i for invs in runs for i in invs if i.traced and i.layer_metrics]
    if not traced:
        return {}
    out = {key: statistics.fmean(i.layer_metrics[key] for i in traced)
           for key in traced[0].layer_metrics}
    wall = per_input(runs, lambda i: i.proc.wall, traced=True)
    plain = per_input(runs, lambda i: i.proc.wall)
    out["trace.overhead_frac"] = (sum(wall.values())
                                  / sum(plain[j] for j in wall) - 1.0)
    return out


def tally(runs, input_digests):
    """Count operations and failures, and check determinism.

    A command run counts its trial rows and itself (exit code and checks).
    Each input that ran more than once adds one check that its CSV was the
    same every time; each generated input file adds one check that ``gen``
    wrote the same file every time.  Returns (attempted, failed, errors,
    the CSV digests by input).
    """
    errors = []
    attempted = failed = 0
    for j, invs in enumerate(runs):
        for n, inv in enumerate(invs):
            errors += [f"input {j} run {n}: {e}" for e in inv.outcome.errors]
            attempted += inv.outcome.rows + 1
            failed += inv.outcome.failed_rows + bool(inv.outcome.errors)
        if len(invs) > 1:
            attempted += 1
            if len({i.digest for i in invs}) != 1:
                errors.append(f"input {j}: output CSV differs between runs")
                failed += 1
    for j, digests in input_digests.items():
        attempted += 1
        if len(digests) != 1:
            errors.append(f"input {j}: gen wrote different files")
            failed += 1
    return attempted, failed, errors, {j: [i.digest for i in invs]
                                       for j, invs in enumerate(runs)}


def describe(wl, seed, j, input_digests, csv_digests):
    cli_seed = wl.cli_seed(seed, j)
    setup = wl.setup(cli_seed, input_name(j))
    return {
        "input": j,
        "setup": ["projclust"] + setup if setup else ["import projclust"],
        "command": ["projclust"] + wl.command(cli_seed, input_name(j),
                                              "out.csv"),
        "input_sha256": sorted(input_digests.get(j, ())),
        "csv_sha256": sorted(set(csv_digests[j])),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "projclust" / "__init__.py").is_file():
        print(f"error: no projclust sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = workloads.WORKLOADS[args.workload]
    env = child_env()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        probe = run_process([sys.executable, "-c", ENV_PROBE], env, work)
        if probe.code != 0:
            print(f"error: cannot import projclust: {probe.stderr}",
                  file=sys.stderr)
            return 2
        environment = json.loads(probe.stdout)
        if not Path(environment["projclust"]).resolve().is_relative_to(SRC):
            print(f"error: projclust was imported from "
                  f"{environment['projclust']}, not from {SRC}", file=sys.stderr)
            return 2
        environment.update(commit=git_commit(), source_sha256=source_digest())
        try:
            setup_walls, input_digests, runs = measure(
                wl, args.seed, args.seconds, bool(args.trace), env, work)
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, errors, csv_digests = tally(runs, input_digests)
    if args.trace:
        metrics = per_layer_metrics(runs)
    else:
        metrics = end_to_end_metrics(setup_walls, runs,
                                     1.0 - failed / attempted)
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        errors.append(f"metrics {missing} declared but not measured")
    for name, value in metrics.items():
        if not math.isfinite(value):
            errors.append(f"{name} is not finite")
            metrics[name] = 0.0
    # Per-function self times in seconds are printed and recorded; the
    # result carries their shares, which are 0, not an unchanging time,
    # where a workload never calls the function.
    unreported = {k: v for k, v in metrics.items() if k not in units}

    for name in sorted(metrics):
        unit = units.get(name, "s, record only")
        print(f"{name:44s} {metrics[name]:>16.6g} {unit}")
    for e in errors:
        print(f"FAILED CHECK: {e}", file=sys.stderr)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "inputs": [describe(wl, args.seed, j, input_digests, csv_digests)
                   for j in sorted(csv_digests)],
        "environment": environment,
        "samples": {
            "setup_s": setup_walls,
            "runs": [[{"traced": i.traced, "wall_s": i.proc.wall,
                       "cpu_s": i.proc.cpu, "peak_rss_mb": i.proc.rss_mb,
                       "ok_rows": i.outcome.ok_rows} for i in invs]
                     for invs in runs],
        },
        "unreported_metrics": unreported,
        "errors": errors,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                    for k, u in units.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
