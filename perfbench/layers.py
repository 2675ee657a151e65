"""The layers of localprops as the traced run sees them, and the metrics.

A layer is one module of the package.  The traced run wraps the public
functions listed in TRACED and rebinds every module-level name that
refers to one of them, in every localprops module, so a call from
cli into io or from constructions into coloring gets its own child
span.  Nothing inside the package changes.

BENCHMARK.json names the metrics, their units and directions.  MOVES
gives each layer metric's prediction: which end-to-end metric it should
move and on which workload.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from math import comb

import benchlib

_WALL_FT = "wall_s on f-table (also wide)"
_WALL_W = "wall_s on wide"
_WALL_MC = "wall_s on monte-carlo"
_WALL_WMC = "wall_s on wide (full scans) and monte-carlo (early exits)"
_WALL_MC_P90 = "wall_s on monte-carlo; job_p90_ms on cli-batch"
_P50_CLI = "job_p50_ms on cli-batch"
_CLI = "job_p50_ms and wall_s on cli-batch"

# layer metric -> the end-to-end metric it should move
MOVES = {
    "solver.min_colors.busy_s": _WALL_FT,
    "solver.feasible.busy_s": _WALL_FT,
    "solver.dfs_nodes": _WALL_FT,
    "solver.levels": _WALL_FT,
    "solver.nodes_per_s": _WALL_FT,
    "solver.preprocess_s": "wall_s on wide; about no change on f-table",
    "solver.preprocess_share": "wall_s on wide; about no change on f-table",
    "coloring.verify_local_property.calls": _WALL_WMC,
    "coloring.verify_local_property.busy_s": _WALL_WMC,
    "coloring.verify_local_property.self_s": _WALL_WMC,
    "coloring.k_subsets": _WALL_WMC,
    "coloring.holds_ratio": _WALL_WMC,
    "numbersets.verify_diff_local_property.busy_s": _WALL_W,
    "numbersets.verify_distance_local_property.busy_s": _WALL_W,
    "numbersets.difference_color_graph.busy_s": _WALL_W,
    "numbersets.distance_color_graph.busy_s": _WALL_W,
    "numbersets.min_difference_set.busy_s": _WALL_MC,
    "numbersets.sets_examined": _WALL_MC,
    "numbersets.sets_per_s": _WALL_MC,
    "constructions.random_coloring.calls": _WALL_MC,
    "constructions.random_coloring.busy_s": _WALL_MC,
    "constructions.random_coloring.self_s": _WALL_MC,
    "constructions.estimate_property_probability.calls": _WALL_MC,
    "constructions.estimate_property_probability.busy_s": _WALL_MC,
    "constructions.estimate_property_probability.self_s": _WALL_MC,
    "constructions.trials": _WALL_MC,
    "constructions.hits": _WALL_MC,
    "constructions.trials_per_s": _WALL_MC,
    "constructions.behrend_set.busy_s": _WALL_W,
    "constructions.verify_no_3ap.busy_s": _WALL_W,
    "forbidden.max_mono_degree.busy_s": _WALL_MC_P90,
    "forbidden.popular_intersection_search.busy_s": _WALL_MC_P90,
    "forbidden.counting_lemma_find.busy_s": _WALL_MC_P90,
    "energy.dyadic_profile.busy_s": _WALL_MC_P90,
    "energy.bound_report.busy_s": _WALL_MC_P90,
    "energy.energy_decomposition.busy_s": _WALL_MC_P90,
    "io.load_coloring.busy_s": _P50_CLI,
    "io.save_coloring.busy_s": _P50_CLI,
    "io.load_integer_set.busy_s": _P50_CLI,
    "io.load_point_set.busy_s": _P50_CLI,
    "io.load_set_system.busy_s": _P50_CLI,
    "io.bytes_read": _P50_CLI,
    "io.bytes_written": _P50_CLI,
    "cli.interpreter_s": "nothing: the floor no change to localprops can move",
    "cli.import_s": _CLI,
    "cli.main.busy_s": _CLI,
    "cli.main.self_s": _CLI,
    "harness.self_s": "nothing: benchmark time outside every layer span",
    "trace.wall_s": "nothing: traced wall time of one pass",
    "trace.overhead_s": "nothing: traced minus untraced wall time of one pass",
}


# ---------------------------------------------------------------- observers


def _solved(tracer, a, out):
    nodes = sum(entry[1] for entry in out.log)
    tracer.count("solver.dfs_nodes", nodes)
    tracer.count("solver.levels", len(out.log))
    # feasible() returns before preprocessing on levels below ell
    built = sum(1 for c, _, _ in out.log if c >= a["spec"].ell)
    tracer.notes.append((a["n"], a["spec"].k, a["spec"].ell, built))


def _verified(tracer, a, out):
    tracer.count("coloring.k_subsets", comb(a["G"].n, a["spec"].k))
    tracer.count("coloring.holds", int(out.holds))


def _searched(tracer, a, out):
    tracer.count("numbersets.sets_examined", out.sets_examined)


def _estimated(tracer, a, out):
    tracer.count("constructions.trials", a["trials"])
    tracer.count("constructions.hits", round(out * a["trials"]))


def _read(tracer, a, out):
    tracer.count("io.bytes_read", os.path.getsize(a["path"]))


def _written(tracer, a, out):
    tracer.count("io.bytes_written", os.path.getsize(a["path"]))


TRACED = {
    "solver": {"min_colors": _solved, "feasible": None},
    "coloring": {"verify_local_property": _verified},
    "numbersets": {
        "verify_diff_local_property": None,
        "verify_distance_local_property": None,
        "difference_color_graph": None,
        "distance_color_graph": None,
        "min_difference_set": _searched,
    },
    "constructions": {
        "random_coloring": None,
        "estimate_property_probability": _estimated,
        "behrend_set": None,
        "verify_no_3ap": None,
    },
    "forbidden": {
        "max_mono_degree": None,
        "popular_intersection_search": None,
        "counting_lemma_find": None,
    },
    "energy": {"dyadic_profile": None, "bound_report": None, "energy_decomposition": None},
    "io": {
        "load_coloring": _read,
        "save_coloring": _written,
        "load_integer_set": _read,
        "save_integer_set": _written,
        "load_point_set": _read,
        "save_point_set": _written,
        "load_set_system": _read,
    },
    "cli": {"main": None},
}


def install(tracer: benchlib.Tracer):
    """Wrap every TRACED function of the imported package; returns undo()."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "localprops"]
    undos = []
    for layer, funcs in TRACED.items():
        mod = sys.modules[f"localprops.{layer}"]
        for fname, observe in funcs.items():
            original = getattr(mod, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", original, observe)
            undos.append((benchlib.rebind(modules, original, wrapper), original))

    def restore():
        for changed, original in undos:
            benchlib.undo(changed, original)

    return restore


# ---------------------------------------------------------------- probes


def _timed(probe, fns: list, reps: int) -> list[float]:
    """Each fn()'s median time over reps timings, in nominal seconds; like
    a job, each timing repeats fn() back to back for at least MIN_TIMED_S."""
    timings = []
    for fn in fns:
        for _ in range(reps):
            runs = 0
            t0 = time.perf_counter()
            while not runs or time.perf_counter() - t0 < benchlib.MIN_TIMED_S:
                fn()
                runs += 1
            timings.append((t0, time.perf_counter() - t0, runs))
    time.sleep(benchlib.SAMPLE_WINDOW_S)  # let the reference loop sample after the last call
    probe.refresh()
    nominal = [probe.nominal(t0, measured) / runs for t0, measured, runs in timings]
    return [statistics.median(nominal[i : i + reps]) for i in range(0, len(nominal), reps)]


def preprocess_probes(lp, probe, specs) -> list[float]:
    """Time of a one-node feasibility call for each (n, k, ell): nearly all
    of it is the preprocessing min_colors repeats at every level it builds."""
    budget = lp.SolveBudget(node_limit=1)

    def call(n, k, ell):
        spec = lp.LocalSpec(k, ell)
        return lambda: lp.feasible(n, spec, max(ell, 2), budget)

    return _timed(probe, [call(*s) for s in specs], 3)


def interpreter_probes(probe, src_dir: str) -> tuple[float, float]:
    """A bare interpreter's start, and what importing localprops.cli adds."""
    env = dict(os.environ, PYTHONPATH=src_dir)

    def start(code):
        return lambda: subprocess.run([sys.executable, "-c", code], env=env, check=True)

    bare, cli = _timed(probe, [start("pass"), start("import localprops.cli")], 5)
    return bare, cli - bare


# ---------------------------------------------------------------- metrics


def layer_metrics(lp, tracer, traced, traced_nominal, untraced_nominal, probe, src_dir):
    """Per-pass layer metrics from the traced passes, in nominal seconds.

    Times are averaged over the traced passes; counts are those of one
    pass (the caller checks that every pass counted the same).
    """
    passes = len(traced)
    spans = tracer.spans
    selfs = benchlib.self_times(spans)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, self_s in zip(spans, selfs):
        measured = span.end - span.start
        nominal = probe.nominal(span.start, measured)
        busy[span.name] = busy.get(span.name, 0.0) + nominal
        own[span.name] = own.get(span.name, 0.0) + (self_s / measured * nominal if measured > 0 else 0.0)
        calls[span.name] = calls.get(span.name, 0) + 1
    counts = traced[0].counters

    out: dict[str, float] = {}
    for layer, funcs in TRACED.items():
        for fname in funcs:
            key = f"{layer}.{fname}"
            out[f"{key}.busy_s"] = busy.get(key, 0.0) / passes
            out[f"{key}.self_s"] = own.get(key, 0.0) / passes
            out[f"{key}.calls"] = calls.get(key, 0) // passes
    for key in (
        "solver.dfs_nodes",
        "solver.levels",
        "coloring.k_subsets",
        "numbersets.sets_examined",
        "constructions.trials",
        "constructions.hits",
        "io.bytes_read",
        "io.bytes_written",
    ):
        out[key] = counts.get(key, 0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    out["solver.nodes_per_s"] = rate(out["solver.dfs_nodes"], out["solver.feasible.busy_s"])
    out["numbersets.sets_per_s"] = rate(
        out["numbersets.sets_examined"], out["numbersets.min_difference_set.busy_s"]
    )
    out["constructions.trials_per_s"] = rate(
        out["constructions.trials"], out["constructions.estimate_property_probability.busy_s"]
    )
    out["coloring.holds_ratio"] = rate(
        counts.get("coloring.holds", 0), out["coloring.verify_local_property.calls"]
    )

    specs = sorted({(n, k, ell) for n, k, ell, _ in tracer.notes})
    probed = dict(zip(specs, preprocess_probes(lp, probe, specs)))
    pre = sum(probed[(n, k, ell)] * built for n, k, ell, built in tracer.notes)
    out["solver.preprocess_s"] = pre / passes
    out["solver.preprocess_share"] = rate(out["solver.preprocess_s"], out["solver.min_colors.busy_s"])

    out["cli.interpreter_s"], out["cli.import_s"] = interpreter_probes(probe, src_dir)

    # time inside the jobs' timing that no layer span covers
    outside = 0.0
    for p, nominal in zip(traced, traced_nominal):
        lo, hi = p.span_range
        tops: dict[int, list[tuple[float, float]]] = {}
        for s in spans[lo:hi]:
            if s.parent < 0:
                tops.setdefault(s.job, []).append((s.start, s.end))
        for j, (t, t_nominal) in enumerate(zip(p.times, nominal)):
            if t > 0:
                outside += (t - benchlib.covered(tops.get(j, ()))) * t_nominal / t
    out["harness.self_s"] = outside / passes
    out["trace.wall_s"] = statistics.median(sum(t) for t in traced_nominal)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        sum(t) for t in untraced_nominal
    )
    return {name: out[name] for name in MOVES}
