"""Tests of the benchmark's own logic: the percentile rule, span self
time, the exact-repeat check, the pinned solver results, and a smoke
pass of every workload."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for extra in (HERE, ROOT / "src", ROOT / "tests"):
    if str(extra) not in sys.path:
        sys.path.insert(0, str(extra))

import benchlib  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_rule_needs_ten_samples_beyond():
    assert benchlib.highest_supported_percentile(19) is None
    assert benchlib.highest_supported_percentile(20) == 50
    assert benchlib.highest_supported_percentile(99) == 75
    assert benchlib.highest_supported_percentile(100) == 90
    assert benchlib.highest_supported_percentile(199) == 90
    assert benchlib.highest_supported_percentile(200) == 95
    assert benchlib.highest_supported_percentile(1000) == 99
    assert benchlib.highest_supported_percentile(10_000) == 99.9
    assert benchlib.tail_count(100, 90) == 10


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert benchlib.percentile(values, 50) == 50
    assert benchlib.percentile(values, 90) == 90
    assert benchlib.percentile([7.0], 90) == 7.0


def test_self_time_subtracts_nested_children():
    S = benchlib.Span
    spans = [
        S("a", 0.0, 10.0, -1, 0),
        S("b", 1.0, 4.0, 0, 0),
        S("c", 5.0, 9.0, 0, 0),
        S("d", 6.0, 7.0, 2, 0),
        S("e", 20.0, 21.0, -1, 1),
    ]
    assert benchlib.self_times(spans) == [3.0, 3.0, 3.0, 1.0, 1.0]


def test_covered_merges_overlaps():
    assert benchlib.covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4
    assert benchlib.covered([]) == 0


def test_tracer_links_cross_layer_calls_and_counts():
    tracer = benchlib.Tracer()

    def inner(x):
        time.sleep(0.001)
        return x + 1

    def observe(t, args, out):
        t.count("inner.sum", args["x"])

    inner_t = tracer.wrap("m.inner", inner, observe)

    def outer():
        return inner_t(1) + inner_t(2)

    assert tracer.wrap("m.outer", outer)() == 5
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("m.outer", -1), ("m.inner", 0), ("m.inner", 0)]
    selfs = benchlib.self_times(tracer.spans)
    outer_span = tracer.spans[0]
    inner_busy = sum(s.end - s.start for s in tracer.spans[1:])
    assert selfs[0] == pytest.approx(outer_span.end - outer_span.start - inner_busy)
    assert 0 <= selfs[0] < inner_busy
    assert tracer.counters == {"inner.sum": 3}


def test_rebind_reaches_every_module_and_undoes():
    def f():
        return "original"

    a = types.SimpleNamespace(f=f, g=f)
    b = types.SimpleNamespace(imported=f, other=len)
    changed = benchlib.rebind([a, b], f, lambda: "wrapped")
    assert (a.f(), a.g(), b.imported()) == ("wrapped",) * 3
    assert b.other is len
    benchlib.undo(changed, f)
    assert a.f is f and a.g is f and b.imported is f


def test_nominal_time_scales_by_the_reference_loop():
    nominal = benchlib.REFERENCE_NOMINAL_S
    probe = benchlib.SpeedProbe(
        lambda: [(0.99, 1.0, 2 * nominal), (1.02, 1.03, 2 * nominal), (9.99, 10.0, nominal / 2)]
    )
    probe.refresh()
    assert probe.factor(1.01, 1.015) == pytest.approx(0.5)  # host at half speed
    assert probe.factor(9.98, 9.99) == pytest.approx(2.0)
    assert probe.factor(5.0, 5.1) == pytest.approx(1.25)  # mean speed of the two around it
    assert probe.factor(11.0, 11.5) == pytest.approx(2.0)  # only one sample before
    # the loop's CPU time inside an interval is not the interval's
    assert probe.foreign(0.995, 1.025) == pytest.approx(nominal + nominal)
    assert probe.nominal(1.01, 0.005) == pytest.approx(0.0025)
    assert probe.nominal(1.0, 0.03) == pytest.approx((0.03 - 2 * nominal) * 0.5)


def test_digest_is_order_free_for_sets_and_stable():
    assert benchlib.digest(frozenset({3, 1, 2})) == benchlib.digest(frozenset({1, 2, 3}))
    assert benchlib.digest((1, [2.5], b"x")) == benchlib.digest((1, [2.5], b"x"))
    assert benchlib.digest(1) != benchlib.digest(2)


def test_outputs_must_repeat_within_and_across_runs(tmp_path):
    state = {"calls": 0}

    def drifting():
        state["calls"] += 1
        return state["calls"]

    jobs = [
        benchlib.Job("steady", lambda: 42, lambda out: None),
        benchlib.Job("drifting", drifting, lambda out: None),
        benchlib.Job("wrong", lambda: 0, lambda out: "wrong answer"),
        benchlib.Job("raises", lambda: 1 / 0, lambda out: None),
    ]
    passes = [benchlib.run_pass(jobs) for _ in range(2)]
    store = benchlib.DigestStore(tmp_path / "digests.json")
    failures = run.check_outputs(jobs, passes, store, "k")
    assert failures.keys() == {(0, 2), (0, 3), (1, 1), (1, 3)}
    assert "ZeroDivisionError" in failures[(0, 3)]
    store.save()

    # a later run of the same key must reproduce the first one exactly
    state["calls"] = 10
    store = benchlib.DigestStore(tmp_path / "digests.json")
    again = run.check_outputs(jobs[:2], [benchlib.run_pass(jobs[:2])], store, "k")
    assert again == {(0, 1): "output differs from an earlier run of this seed"}


def test_reference_loop_runs_in_a_child_process_that_ends():
    reference = benchlib.ReferenceProcess()
    try:
        reference()
        t0 = time.perf_counter()
        time.sleep(10 * benchlib.SAMPLE_EVERY_S)
        samples = reference()
    finally:
        reference.close()
    assert len(samples) >= 3
    assert all(t0 <= start < end and cpu > 0 for start, end, cpu in samples)
    assert reference.proc.returncode == 0
    assert reference.proc.pid != __import__("os").getpid()


def test_every_benchmark_json_entry_has_code():
    assert {m["name"] for m in SPEC["per_layer"]} == set(layers.MOVES)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.BUILDERS)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s", "wall_s"}


def _ctx(tmp_path):
    lp, oracles = __import__("localprops"), __import__("oracles")
    __import__("localprops.cli")
    return workloads.Context(lp, oracles, run.DEFAULT_SEED, False, tmp_path, {})


def test_solve_check_rejects_a_result_weaker_than_its_pin(tmp_path):
    ctx = _ctx(tmp_path)
    lp = ctx.lp
    spec = lp.LocalSpec(5, 8)
    res = lp.min_colors(6, spec, lp.SolveBudget(node_limit=200))
    assert (res.status, res.lower_bound, res.value) == ("bound-only", 8, 10)

    def check(pin, result=res):
        return workloads._check_solve(ctx, 6, spec, pin, result)

    assert check(("bound-only", 8, 10)) is None
    assert check(("bound-only", 7, 11)) is None  # a narrower result is an improvement
    assert check(("bound-only", 8, 9)) is not None  # value above the pinned one
    assert check(("bound-only", 9, 10)) is not None  # lower bound below the pinned one
    assert check(("optimal", 10, 10)) is not None  # status fell
    assert check(("bound-only", 8, 10), dataclasses.replace(res, lower_bound=7)) is not None

    exhausted = lp.SolveResult("budget-exhausted", None, 7, None, ())
    assert check(("budget-exhausted", 7, None), exhausted) is None
    assert check(("budget-exhausted", 7, None), dataclasses.replace(exhausted, lower_bound=6))
    assert check(("bound-only", 7, 12), exhausted) is not None


def test_cli_script_runs_every_subcommand_at_least_100_times(tmp_path):
    steps = workloads.cli_script(_ctx(tmp_path))
    assert len(steps) >= 100
    assert len({name for name, _, _ in steps}) == len(steps)
    assert {argv[0] for _, argv, _ in steps} == {
        "verify-coloring", "verify-diffset", "verify-distances", "construct",
        "solve-f", "solve-g", "energy", "profile", "lemma-check",
    }


def _smoke(workload, trace, prelude="pass", returncode=0):
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import run, workloads; {prelude}; "
        f"sys.exit(run.main(['--workload', {workload!r}, '--seconds', '0.5', "
        f"'--trace', '{trace}'], scale='smoke'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == returncode, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize(
    "workload, trace",
    [("f-table", 0), ("wide", 0), ("monte-carlo", 0), ("monte-carlo", 1), ("cli-batch", 1)],
)
def test_smoke_pass_prints_every_metric_with_its_unit(workload, trace):
    table, result = _smoke(workload, trace)
    wanted = [(m["name"], m["unit"]) for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in wanted]
    for name, unit in wanted:
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in table), name
    assert any(line.split()[:1] == ["failed_ratio"] for line in table)


def test_a_failed_check_gives_a_nonzero_exit_code():
    # every job's check of the smoke monte-carlo plan reports a failure
    prelude = (
        "build = workloads.BUILDERS['monte-carlo']; "
        "workloads.BUILDERS['monte-carlo'] = lambda ctx: workloads.Plan("
        "[workloads.Job(j.name, j.run, lambda out: 'broken') for j in build(ctx).jobs], [])"
    )
    _, result = _smoke("monte-carlo", 0, prelude, returncode=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_outside_a_checkout(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (bench / "expected.json").write_text((HERE / "expected.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "f-table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
