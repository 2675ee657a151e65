"""Benchmark for localprops: one workload per run, checked and timed.

    python3 perfbench/run.py --workload f-table --seed 1 --seconds 30 --trace 0

Run from the root of a localprops checkout (it needs src/ and
tests/oracles.py).  With --trace 0 it prints the end-to-end metrics,
with --trace 1 the per-layer ones from a separate traced run.  Human
readable lines come first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit code is
0 only if every output was correct.  Results, spans
and the digests used for the exact-repeat check are written under
.perfbench_out/ in the checkout.

Load is a closed loop with one client: one job after another in one
process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import benchlib
import layers
import workloads

SETUP_REPS = 9
DEFAULT_SEED = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fresh_import():
    """Import localprops and the oracles anew, so set-up pays for import."""
    for name in list(sys.modules):
        if name == "oracles" or name.split(".")[0] == "localprops":
            del sys.modules[name]
    lp = importlib.import_module("localprops")
    importlib.import_module("localprops.cli")
    return lp, importlib.import_module("oracles")


def source_digest(*dirs: Path) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*")):
            if path.suffix in (".py", ".json"):
                h.update(str(path.relative_to(d.parent)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, src: Path) -> dict:
    commit = None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except OSError:  # no git: the checkout is then known by its source digest
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == root:
        commit = out[1]
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": source_digest(src),
        "bench_sha256": source_digest(Path(__file__).parent),
    }


def check_outputs(jobs, passes, store, store_key):
    """Failures as {(pass, job): message}.

    The first pass is judged by each job's check; every later pass, and
    every earlier run of this seed and source, must match it exactly.
    """
    failures = {}
    first = passes[0]
    digests = {}
    for j, job in enumerate(jobs):
        if j in first.errors:
            failures[(0, j)] = first.errors[j]
            continue
        try:
            problem = job.check(first.outputs[j])
        except Exception as exc:  # a check that crashes is a failed job
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures[(0, j)] = problem
        digests[job.name] = first.digests[j]
    for i, p in enumerate(passes[1:], start=1):
        for j, job in enumerate(jobs):
            if j in p.errors:
                failures[(i, j)] = p.errors[j]
            elif job.name in digests and p.digests[j] != digests[job.name]:
                failures[(i, j)] = "output differs from the first pass"
    names = {job.name: j for j, job in enumerate(jobs)}
    for name in store.compare(store_key, digests):
        failures.setdefault((0, names[name]), "output differs from an earlier run of this seed")
    return failures


def end_to_end(plan, passes, nominal, setups, probe, peak_rss_mb):
    """End-to-end metrics from the untraced passes, in nominal seconds."""
    # each job's median over the passes, so one slow run of a job cannot
    # move a percentile that sits between two jobs' times
    latencies = [statistics.median(t[j] for t in nominal) * 1e3 for j in range(len(plan.jobs))]
    measured_wall = statistics.median(sum(p.times) for p in passes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(t) for t in nominal),
        "job_p50_ms": benchlib.percentile(latencies, 50),
        "job_p90_ms": benchlib.percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    problems = [
        f"{len(latencies)} jobs are too few for p{p}: under {benchlib.MIN_TAIL} beyond it"
        for p in (50, 90)
        if benchlib.tail_count(len(latencies), p) < benchlib.MIN_TAIL
    ]
    notes = {
        "setup_s": f"median of {len(setups)} set-ups (import, inputs, warm-up)",
        "wall_s": f"median of {len(passes)} passes of {len(plan.jobs)} jobs "
        f"({len(plan.jobs) / values['wall_s']:.1f} jobs/s); measured {measured_wall:.4f} s (not gated), "
        f"{len(probe.cpu)} reference samples",
        "job_p50_ms": f"nearest rank over {len(latencies)} jobs, each the median of "
        f"{len(passes)} passes; highest supported percentile "
        f"p{benchlib.highest_supported_percentile(len(latencies))}",
        "job_p90_ms": f"nearest rank over {len(latencies)} jobs; "
        f"{benchlib.tail_count(len(latencies), 90)} samples beyond it",
        "peak_rss_mb": "ru_maxrss of the benchmark process, read before the checks",
    }
    return values, notes, problems


def run(args, root: Path, out_dir: Path, workdir: Path, scale: str, probe) -> dict:
    src = root / "src"
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    setups = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        lp, oracles = fresh_import()
        ctx = workloads.Context(
            lp, oracles, args.seed, scale == "smoke", workdir, expected
        )
        plan = workloads.BUILDERS[args.workload](ctx)
        for job in plan.warmup:
            job.run()
        setups.append((t0, time.perf_counter() - t0))

    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "scale": scale, **environment(root, src)}
    key = f"{args.workload}:{args.seed}:{scale}:{meta['src_sha256']}:{meta['bench_sha256']}"

    jobs = plan.jobs
    if args.trace:
        untraced = benchlib.run_passes(jobs, args.seconds / 2)
        tracer = benchlib.Tracer()
        restore = layers.install(tracer)
        try:
            traced = benchlib.run_passes(jobs, args.seconds / 2, tracer)
        finally:
            restore()
        passes = untraced + traced
    else:
        passes = benchlib.run_passes(jobs, args.seconds)
    nominal = benchlib.nominal_times(passes, probe)
    setups = [probe.nominal(t0, measured) for t0, measured in setups]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    store = benchlib.DigestStore(out_dir / "digests.json")
    failures = check_outputs(jobs, passes, store, key)
    if args.trace:
        metrics = layers.layer_metrics(
            lp, tracer, traced, nominal[len(untraced):], nominal[: len(untraced)], probe, str(src)
        )
        counts = traced[0].counters
        for i, p in enumerate(traced):
            if p.counters != counts:
                failures[(len(untraced) + i, -1)] = f"counts differ between passes: {p.counters}"
        bad = store.compare(key + ":counts", {k: str(v) for k, v in counts.items()})
        if bad:
            failures[(len(untraced), -1)] = f"counts differ from an earlier run: {bad}"
        notes = {name: f"moves {moves}" for name, moves in layers.MOVES.items()}
        problems = []
    else:
        metrics, notes, problems = end_to_end(plan, passes, nominal, setups, probe, peak_rss_mb)
    store.save()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: metrics[name] for name in units}

    attempted = len(jobs) * len(passes)
    failed = min(len(failures), attempted)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    print("  times are nominal seconds: measured time scaled by the host's speed, "
          "taken from a reference loop timed in a child process while the jobs run")
    for name, v in metrics.items():
        print(f"  {name:<52} {v:>16.6f} {units[name]:<6} {notes[name]}")
    print(f"  {'failed_ratio':<52} {failed:>9d} / {attempted:<5d} ratio  "
          "jobs that raised or failed their check, over jobs attempted")
    for problem in problems:
        print(f"NOT SUPPORTED: {problem}", file=sys.stderr)
    for (i, j), msg in sorted(failures.items())[:20]:
        name = jobs[j].name if j >= 0 else "counts"
        print(f"FAILED pass {i} {name}: {msg}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        **meta, **result,
        "setups_s": setups,
        "pass_nominal_s": [sum(t) for t in nominal],
        "pass_measured_s": [sum(p.times) for p in passes],
        "job_nominal_s": {job.name: [t[j] for t in nominal] for j, job in enumerate(jobs)},
        "reference_loop_cpu_s": probe.cpu,
        "failures": [[i, j, m] for (i, j), m in sorted(failures.items())],
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (out_dir / f"spans-{stem}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                        "spans": [list(asdict(s).values()) for s in tracer.spans]})
        )
    return result


def main(argv=None, scale: str = "full") -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "localprops" / "__init__.py").is_file() or not (
        root / "tests" / "oracles.py"
    ).is_file():
        print(f"perfbench: {root} is not a localprops checkout "
              "(needs src/localprops and tests/oracles.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    # One CPU, so the reference loop times the CPU the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    reference = benchlib.ReferenceProcess()
    try:
        result = run(args, root, out_dir, workdir, scale, benchlib.SpeedProbe(reference))
    finally:
        reference.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
