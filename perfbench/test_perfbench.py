"""Self-tests of the benchmark's tracer, metrics and workload definitions.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import itertools
import json
import threading
from pathlib import Path

import pytest

import layers
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """Each call advances time by one unit, so span bounds are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def by_name(spans):
    return {s[1]: s for s in spans}


def test_wrapper_passes_through_arguments_and_results():
    t = tracer.Tracer()
    f = t.wrap("m.f", lambda a, b=0: (a, b))
    assert f(1, b=2) == (1, 2)
    assert [s[1] for s in t.spans] == ["m.f"]


def test_wrapper_passes_through_exceptions_and_keeps_the_span():
    t = tracer.Tracer()
    err = KeyError("boom")

    def fail():
        raise err

    f = t.wrap("m.fail", fail, count=lambda *a: {"never": 1})
    with pytest.raises(KeyError) as info:
        f()
    assert info.value is err
    (span,) = t.spans
    assert span[1] == "m.fail" and span[6] is None
    # the stack was unwound: a later call is a root span again
    f2 = t.wrap("m.g", lambda: None)
    f2()
    assert t.spans[-1][4] is None


def test_nested_self_time():
    t = tracer.Tracer(clock=FakeClock())
    inner = t.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    outer = t.wrap("m.outer", body)
    outer()
    selfs = tracer.self_times(t.spans)
    spans = sorted(t.spans)
    outer_span, first, second = spans
    # clock ticks: outer 1..6, inner 2..3 and 4..5
    assert (outer_span[2], outer_span[3]) == (1.0, 6.0)
    assert first[4] == second[4] == outer_span[0]
    assert selfs[first[0]] == selfs[second[0]] == 1.0
    assert selfs[outer_span[0]] == 5.0 - 2.0


def test_self_time_takes_the_union_of_overlapping_children():
    # parent 0..10 with children on two threads at 1..5 and 3..7
    spans = [[0, "cli.main", 0.0, 10.0, None, 1, None],
             [1, "solvers.solve", 1.0, 5.0, 0, 2, None],
             [2, "solvers.solve", 3.0, 7.0, 0, 3, None],
             [3, "geometry.distances", 4.0, 12.0, 2, 3, None]]
    selfs = tracer.self_times(spans)
    assert selfs[0] == 10.0 - 6.0
    assert selfs[1] == 4.0
    assert selfs[2] == 4.0 - 3.0          # child clipped to 4..7
    assert selfs[3] == 8.0


def test_worker_thread_spans_attach_to_the_submitting_span():
    t = tracer.Tracer()
    leaf = t.wrap("m.leaf", lambda: None)
    work = t.wrap("m.work", lambda: leaf())

    def submit():
        th = threading.Thread(target=work)
        th.start()
        th.join(timeout=10)
        assert not th.is_alive()

    t.wrap("m.main", submit)()
    spans = by_name(t.spans)
    assert spans["m.work"][5] != spans["m.main"][5]
    assert spans["m.work"][4] == spans["m.main"][0]
    assert spans["m.leaf"][4] == spans["m.work"][0]
    selfs = tracer.self_times(t.spans)
    main = spans["m.main"]
    assert selfs[main[0]] < main[3] - main[2]


def test_rebound_names_are_wrapped_and_restored():
    import projclust.counterexamples as ce
    import projclust.jl as jl

    original = jl.sample_jl
    t = tracer.Tracer()
    t.install("projclust", [("jl", "sample_jl", layers._map_entries),
                            ("counterexamples", "counterexample_trial", None)])
    try:
        assert ce.sample_jl is jl.sample_jl is not original
        rep = ce.counterexample_trial("medoid", 50, 3, 0)
    finally:
        t.uninstall()
    assert ce.sample_jl is jl.sample_jl is original
    assert rep.cost_original == 2.0 * 49
    spans = by_name(t.spans)
    trial, sample = spans["counterexamples.counterexample_trial"], spans["jl.sample_jl"]
    assert sample[4] == trial[0]
    assert sample[6] == {"entries": 3 * 50}
    selfs = tracer.self_times(t.spans)
    assert selfs[trial[0]] == pytest.approx(
        (trial[3] - trial[2]) - (sample[3] - sample[2]))


def test_per_layer_metrics_from_spans():
    spans = [[0, "cli.main", 0.0, 10.0, None, 1, None],
             [1, "solvers.solve", 1.0, 5.0, 0, 2,
              {"converged": 1, "restarts": 5}],
             [2, "solvers.solve", 3.0, 7.0, 0, 3,
              {"converged": 0, "restarts": 5}],
             [3, "geometry.distances", 2.0, 3.0, 1, 2, {"entries": 40}],
             [4, "sensitivity.line_sensitivity", 8.0, 9.0, 0, 1,
              {"total": 2.5}]]
    m = layers.per_layer_metrics(spans)
    assert m["cli.main.self_s"] == 10.0 - 7.0
    assert m["solvers.solve.self_frac"] == pytest.approx(0.7)
    assert m["solvers.solve.calls"] == 2
    assert m["solvers.solve.self_s"] == 3.0 + 4.0
    assert m["solvers.solve.converged_frac"] == 0.5
    assert m["solvers.solve.restarts"] == 10
    assert m["geometry.distances.entries"] == 40
    assert m["sensitivity.total"] == 2.5
    assert m["coreset.peel_partition.calls"] == 0
    # self times sum to 3 + 7 + 1 + 1 = 12 over a 10-unit root
    assert m["cli.concurrency"] == pytest.approx(1.2)


def test_declared_metrics_match_the_reported_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = set(layers.per_layer_metrics([])) | {"trace.overhead_frac"}
    declared = {m["name"] for m in spec["per_layer"]}
    # every function's seconds are recorded, only the root's are declared
    assert declared <= measured
    assert {n for n in measured - declared} == {
        f"{mod}.{fn}.self_s" for mod, fn, _ in layers.TARGETS
        if f"{mod}.{fn}" != layers.ROOT}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    fake = run.Invocation(False, run.Process(0, 1.0, 1.0, 1.0, "", ""),
                          workloads.Outcome(1, 1, 0, 1.0, []), "", None)
    e2e = set(run.end_to_end_metrics([1.0], [[fake]], 1.0))
    assert {m["name"] for m in spec["end_to_end"]} == e2e


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_seed_reaches_every_command(name):
    from projclust.cli import build_parser

    wl = workloads.WORKLOADS[name]
    cli_seeds = [wl.cli_seed(s, j) for s in range(20)
                 for j in range(wl.inputs)]
    for cli_seed in cli_seeds:
        for argv in (wl.setup(cli_seed, "in.txt"),
                     wl.command(cli_seed, "in.txt", "o.csv")):
            if argv is not None:
                assert build_parser().parse_args(argv).seed == cli_seed
    # distinct (benchmark seed, input) never share an input
    assert len(set(cli_seeds)) == len(cli_seeds)


def test_the_seed_decides_the_generated_input(tmp_path):
    from projclust.cli import main

    wl = workloads.WORKLOADS["coreset-flat-z1"]
    texts = []
    for seed in (3, 3, 4):
        path = tmp_path / f"in{len(texts)}.txt"
        assert main(wl.setup(seed, str(path))) == 0
        texts.append(path.read_text())
    assert texts[0] == texts[1] != texts[2]


def test_counterexample_check_catches_wrong_rows():
    wl = workloads.Counterexample()
    n = wl.n
    rows = ["which,n,t,seed,cost_original,cost_projected,ratio"]
    for trial in range(wl.trials):
        rows.append(f"medoid,{n},3,{trial},{2.0 * (n - 1)!r},1.0,2.0")
        rows.append(f"css,{n},3,{trial},{0.75 * (n - 1)!r},1.0,1.0")
    good = "\n".join(rows) + "\n"
    stdout = (f"which=medoid n={n} t=3 trials={wl.trials} median_ratio=2.0 "
              f"ratio_ge_1.5={wl.trials}/{wl.trials}\n"
              f"which=css n={n} t=3 trials={wl.trials} median_ratio=1.0 "
              f"ratio_ge_1.25=0/{wl.trials}\n")
    assert wl.check(good, stdout).errors == []
    assert wl.check(good.replace(f"{2.0 * (n - 1)!r}", "1.0", 1),
                    stdout).errors
    assert wl.check(good, stdout.replace("ratio_ge_1.25=0", "ratio_ge_1.25=1")
                    ).errors


def test_coreset_check_catches_a_failed_trial():
    wl = workloads.CoresetLines()
    head = ("m,trial,status,cost_full,cost_coreset,"
            "ratio_before_projection,ratio_after_projection")
    ok = [f"100,{i},ok,3.0,2.9,0.97,0.99" for i in range(wl.trials)]
    assert wl.check("\n".join([head] + ok), "").errors == []
    bad = ok[:-1] + [f"100,{wl.trials - 1},failed,3.0,,,"]
    outcome = wl.check("\n".join([head] + bad), "")
    assert outcome.errors and outcome.failed_rows == 1


def test_tally_counts_failures_and_catches_nondeterminism():
    def inv(digest, failed_rows=0, errors=()):
        outcome = workloads.Outcome(4, 4 - failed_rows, failed_rows, 1.0,
                                    list(errors))
        return run.Invocation(False, run.Process(0, 1.0, 1.0, 1.0, "", ""),
                              outcome, digest, None)

    # two inputs, each run three times and checked once
    same = [[inv("a")] * 3, [inv("b")] * 3]
    attempted, failed, errors, _ = run.tally(same, {0: {"x"}, 1: {"y"}})
    assert (attempted, failed, errors) == (3 * 2 * 5 + 2 + 2, 0, [])

    # one input run twice; the second run differs and failed a check
    differs = [[inv("a"),
                inv("c", failed_rows=1, errors=["1 trial not ok"])]]
    attempted, failed, errors, _ = run.tally(differs, {0: {"x", "z"}})
    assert attempted == 2 * 5 + 1 + 1
    assert failed == 1 + 1 + 1 + 1       # row, run, CSV check, gen check
    assert len(errors) == 3


def test_end_to_end_metrics_weigh_each_input_by_its_median():
    def inv(wall, rows, traced=False):
        return run.Invocation(traced,
                              run.Process(0, wall, 2 * wall, wall, "", ""),
                              workloads.Outcome(rows, rows, 0, 3.0, []), "",
                              None)

    runs = [[inv(1.0, 2), inv(9.0, 2), inv(2.0, 2), inv(50.0, 2, True)],
            [inv(3.0, 2)]]
    m = run.end_to_end_metrics([0.5, 0.1, 0.3], runs, 1.0)
    assert m["setup_s"] == 0.3
    assert m["wall_s"] == pytest.approx((2.0 + 3.0) / 2)
    assert m["cpu_s"] == pytest.approx(5.0)
    assert m["peak_rss_mb"] == 3.0
    assert m["trials_per_s"] == pytest.approx(4 / 5.0)
    assert m["full_cost"] == 3.0


def test_trace_overhead_compares_the_inputs_that_ran_traced():
    def inv(wall, traced):
        metrics = {"solvers.solve.calls": 4.0 if traced else 0.0}
        return run.Invocation(traced, run.Process(0, wall, wall, 1.0, "", ""),
                              workloads.Outcome(1, 1, 0, 1.0, []), "",
                              metrics if traced else None)

    # input 1 never ran traced, so its time stays out of the overhead
    runs = [[inv(2.0, False), inv(2.5, True)], [inv(7.0, False)]]
    m = run.per_layer_metrics(runs)
    assert m["solvers.solve.calls"] == 4.0
    assert m["trace.overhead_frac"] == pytest.approx(0.25)


def test_schedule_runs_every_input_before_a_stop_and_pairs_traced_runs():
    untraced = list(itertools.islice(run.schedule(3, False), 5))
    assert untraced == [(0, False, False), (1, False, False),
                        (2, False, False), (0, False, True), (1, False, True)]
    traced = list(itertools.islice(run.schedule(2, True), 6))
    assert traced == [(0, False, False), (0, True, True),
                      (1, False, False), (1, True, True),
                      (0, False, False), (0, True, True)]
