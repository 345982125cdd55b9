"""The four benchmark workloads: their CLI commands and their output checks.

A workload runs one ``projclust`` command on each of its ``inputs``
inputs, and repeats it on them.  The benchmark seed s and the input j fix the command's
``--seed`` (see ``Workload.cli_seed``) and, where the workload has an input
file, the same ``--seed`` of the ``gen`` command that writes it, so the
inputs follow from the benchmark seed alone.  Several inputs per run
average out how much work one random instance happens to need.
See README.md for why each workload was chosen.
"""

import csv
import io
import math
import re


class Outcome:
    """What one invocation produced, judged against the workload's checks."""

    def __init__(self, rows, ok_rows, failed_rows, full_cost, errors):
        self.rows = rows                  # trial rows attempted
        self.ok_rows = ok_rows
        self.failed_rows = failed_rows
        self.full_cost = full_cost
        self.errors = errors              # failed checks, as messages


def _read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _finite_positive(row, keys):
    bad = []
    for key in keys:
        try:
            v = float(row[key])
        except (TypeError, ValueError):
            bad.append(f"{key}={row[key]!r}")
            continue
        if not (math.isfinite(v) and v > 0.0):
            bad.append(f"{key}={row[key]!r}")
    return bad


class Workload:
    inputs = 1

    def cli_seed(self, seed, j):
        """The CLI seed of input j; distinct for every (seed, j)."""
        return seed * self.inputs + j

    def setup(self, seed, input_path):
        """The ``gen`` arguments that write the input, if there is one."""
        return None


class PreserveKmeans(Workload):
    name = "preserve-kmeans"
    n, d, k, t_list, trials = 2000, 100, 5, (10, 20, 40), 1
    inputs = 16

    def command(self, seed, input_path, out_path):
        return ["preserve", "--problem", "clustering", "--z", "2",
                "--n", str(self.n), "--d", str(self.d), "--k", str(self.k),
                "--t-list", ",".join(map(str, self.t_list)),
                "--trials", str(self.trials), "--seed", str(seed),
                "--out", out_path]

    def check(self, csv_text, stdout):
        rows = _read_csv(csv_text)
        records = [r for r in rows if r["row"] == "record"]
        summaries = [r for r in rows if r["row"] == "summary"]
        errors = []
        expected = len(self.t_list) * self.trials
        if len(records) != expected:
            errors.append(f"{len(records)} record rows, expected {expected}")
        ok = [r for r in records if r["status"] == "ok"]
        failed = [r for r in records if r["status"] != "ok"]
        if failed:
            errors.append(f"{len(failed)} record rows not ok")
        if sorted(int(r["t"]) for r in summaries) != sorted(self.t_list):
            errors.append("summary rows do not match --t-list one to one")
        for r in summaries:
            med = float(r["median"]) if r["median"] else math.nan
            if not 0.8 <= med <= 1.25:
                errors.append(f"t={r['t']}: median ratio {r['median']!r} "
                              "outside [0.8, 1.25]")
        costs = [float(r["cost_original"]) for r in records]
        full_cost = sum(costs) / len(costs) if costs else math.nan
        return Outcome(expected, len(ok), len(failed), full_cost, errors)


class _CoresetWorkload(Workload):
    """``gen`` writes the input once in set-up; ``coreset`` is timed."""

    def setup(self, seed, input_path):
        return ["gen", "--kind", self.kind, "--n", str(self.n),
                "--d", str(self.d), "--k", str(self.k), "--noise", "0.1",
                "--seed", str(seed), "--out", input_path]

    def command(self, seed, input_path, out_path):
        return (["coreset", "--in", input_path, "--problem", self.problem,
                 "--k", str(self.k), "--z", str(self.z), "--m", str(self.m),
                 "--t", str(self.t), "--trials", str(self.trials)]
                + self.extra + ["--seed", str(seed), "--out", out_path])

    def check(self, csv_text, stdout):
        rows = _read_csv(csv_text)
        errors = []
        if len(rows) != self.trials:
            errors.append(f"{len(rows)} trial rows, expected {self.trials}")
        ok = [r for r in rows if r["status"] == "ok"]
        if len(ok) != len(rows):
            errors.append(f"{len(rows) - len(ok)} trials not ok")
        for r in ok:
            bad = _finite_positive(r, ["cost_full", "cost_coreset",
                                       "ratio_before_projection",
                                       "ratio_after_projection"])
            if bad:
                errors.append(f"trial {r['trial']}: " + ", ".join(bad))
        costs = [float(r["cost_full"]) for r in rows]
        full_cost = sum(costs) / len(costs) if costs else math.nan
        return Outcome(self.trials, len(ok), len(rows) - len(ok), full_cost,
                       errors)


class CoresetLines(_CoresetWorkload):
    name = "coreset-lines"
    kind, problem = "points-near-k-lines", "lines"
    n, d, k, z, m, t, trials = 3000, 20, 2, 2, 100, 8, 2
    extra = ["--restarts", "5"]
    inputs = 9


class CoresetFlatZ1(_CoresetWorkload):
    name = "coreset-flat-z1"
    kind, problem = "points-near-k-flat", "flat"
    n, d, k, z, m, t, trials = 200, 20, 2, 1, 100, 8, 1
    extra = []
    inputs = 10


class Counterexample(Workload):
    name = "counterexample"
    n, t, trials = 1_000_000, 3, 10
    inputs = 8
    optimum = {"medoid": lambda n: 2.0 * (n - 1),
               "css": lambda n: 0.75 * (n - 1)}
    threshold = {"medoid": 1.5, "css": 1.25}

    def command(self, seed, input_path, out_path):
        return ["counterexample", "--which", "both", "--n", str(self.n),
                "--t", str(self.t), "--trials", str(self.trials),
                "--seed", str(seed), "--out", out_path]

    def check(self, csv_text, stdout):
        rows = _read_csv(csv_text)
        errors = []
        expected = 2 * self.trials
        if len(rows) != expected:
            errors.append(f"{len(rows)} rows, expected {expected}")
        for r in rows:
            want = self.optimum[r["which"]](self.n)
            if float(r["cost_original"]) != want:
                errors.append(f"{r['which']} seed {r['seed']}: cost_original "
                              f"{r['cost_original']} != {want!r}")
        for which, thr in self.threshold.items():
            ratios = [float(r["ratio"]) for r in rows if r["which"] == which]
            hits = sum(v >= thr for v in ratios)
            printed = re.search(
                rf"which={which} .*ratio_ge_{re.escape(repr(thr))}=(\d+)/(\d+)",
                stdout)
            if printed is None:
                errors.append(f"{which}: no threshold count in the output")
            elif (int(printed[1]), int(printed[2])) != (hits, len(ratios)):
                errors.append(f"{which}: printed {printed[1]}/{printed[2]} "
                              f"hits, CSV gives {hits}/{len(ratios)}")
        costs = [float(r["cost_original"]) for r in rows]
        full_cost = sum(costs) / len(costs) if costs else math.nan
        return Outcome(expected, len(rows), 0, full_cost, errors)


WORKLOADS = {w.name: w for w in
             (PreserveKmeans(), CoresetLines(), CoresetFlatZ1(),
              Counterexample())}
