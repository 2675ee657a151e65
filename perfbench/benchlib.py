"""Statistics, timing loop, span tracing and digests used by the workloads.

Nothing here knows about localprops: the workloads hand in jobs, the
tracer wraps whatever functions it is given, and the digests work on
plain data and dataclasses.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import gc
import hashlib
import inspect
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# Percentiles a latency may be reported at; the rule below picks the
# highest one the sample count supports.
PERCENTILE_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_TAIL = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples (exact)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), p) - 1]


def tail_count(n: int, p: float) -> int:
    """Samples strictly beyond the nearest-rank p-th percentile of n samples."""
    return n - _rank(n, p)


def highest_supported_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_TAIL samples beyond it."""
    ok = [p for p in PERCENTILE_LADDER if tail_count(n, p) >= MIN_TAIL]
    return ok[-1] if ok else None


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# ---------------------------------------------------------------- tracing


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    job: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(i, ())) for i, s in enumerate(spans)
    ]


class Tracer:
    """Keeps spans and counters in memory; wrap() makes traced callables.

    An observer is called after a traced call returns, with the tracer,
    the call's arguments by parameter name and its result, so counts are
    taken at the same boundary as the span.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.notes: list[tuple] = []
        self.job = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None):
        tracer = self
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, 0.0, parent, tracer.job)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer, signature.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


def rebind(modules, original, replacement) -> list[tuple[object, str]]:
    """Point every module-level name bound to `original` at `replacement`.

    Returns the (module, name) pairs changed, for undo().
    """
    changed = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


def undo(changed, original) -> None:
    for mod, attr in changed:
        setattr(mod, attr, original)


# ---------------------------------------------------------------- digests


def canon(obj):
    """A JSON-able form of obj in which equal values always look the same."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__] + [
            [f.name, canon(getattr(obj, f.name))] for f in dataclasses.fields(obj)
        ]
    if isinstance(obj, (set, frozenset)):
        return ["set"] + sorted((canon(x) for x in obj), key=repr)
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, dict):
        return [["dict"]] + sorted([repr(k), canon(v)] for k, v in obj.items())
    if isinstance(obj, bytes):
        return hashlib.sha256(obj).hexdigest()
    if isinstance(obj, float):
        return repr(obj)
    return obj


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(canon(obj)).encode()).hexdigest()


class DigestStore:
    """Per-key digests kept in a JSON file, to compare runs of one seed.

    The first run of a key records; every later run must match it.
    """

    def __init__(self, path) -> None:
        self.path = path
        try:
            with open(path) as fh:
                self.data = json.load(fh)
        except FileNotFoundError:
            self.data = {}

    def compare(self, key: str, digests: dict[str, str]) -> list[str]:
        """Names whose digest differs from the recorded one; records new names."""
        known = self.data.setdefault(key, {})
        bad = [name for name, d in digests.items() if known.get(name, d) != d]
        for name, d in digests.items():
            known.setdefault(name, d)
        return bad

    def save(self) -> None:
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, sort_keys=True, indent=1)
        os.replace(tmp, self.path)


# ---------------------------------------------------------------- timing

# On a virtual machine that shares its cores (measured on a 2-vCPU Linux
# VM), the CPU's speed can swing by 2x within a second, and Python work
# of every kind slows alike, in CPU time as much as in wall time.  A
# job's time over that of a fixed reference loop timed while it runs
# stays within a few percent.  So times are reported in nominal seconds:
# the measured time scaled by REFERENCE_NOMINAL_S over the reference
# loop's time around it.  The loop is short and sampled often because
# the swings are fast.  It runs in a child process on the same CPU
# (ReferenceProcess), every SAMPLE_EVERY_S seconds, also in the middle
# of a long job, so nothing the library does to its own process (garbage
# collector settings, heap size, imports) reaches the loop and is
# divided out of the job times.  The CPU time the child takes inside a
# timed interval is taken out of that interval's measured time.
REFERENCE_NOMINAL_S = 0.001
SAMPLE_EVERY_S = 0.02
SAMPLE_WINDOW_S = 0.05
MIN_TIMED_S = 0.01


def reference_loop() -> int:
    """Fixed pure-Python work with the library's mix of dict, set and tuple use."""
    counts: dict[int, int] = {}
    seen = set()
    for i in range(4_000):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + 1
        seen.add((key, i & 15))
    return len(counts) + len(seen)


def sample_reference_loop(fd_in: int, out) -> None:
    """The child's side: time reference_loop as (start, end, CPU seconds)
    at once and then every SAMPLE_EVERY_S seconds; on each line read from
    fd_in, write the samples taken since the last line as one JSON line
    to out; stop at end of input."""
    samples = []
    while True:
        t0, c0 = time.perf_counter(), time.thread_time()
        reference_loop()
        samples.append((t0, time.perf_counter(), time.thread_time() - c0))
        due = time.perf_counter() + SAMPLE_EVERY_S
        while select.select([fd_in], [], [], max(0.0, due - time.perf_counter()))[0]:
            if not os.read(fd_in, 4096):
                return
            out.write(json.dumps(samples) + "\n")
            out.flush()
            samples = []


class ReferenceProcess:
    """A child interpreter, started in isolated mode, that samples the
    reference loop until close().  It inherits this process's CPU
    affinity.  Call it for the samples taken since the last call."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> list[tuple[float, float, float]]:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("reference process ended")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class SpeedProbe:
    """Holds the reference samples, fetched by refresh() from `collect`,
    and converts a measured interval into nominal seconds."""

    def __init__(self, collect: Callable[[], list]) -> None:
        self.collect = collect
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cpu: list[float] = []

    def refresh(self) -> None:
        for start, end, cpu in self.collect():
            self.starts.append(start)
            self.ends.append(end)
            self.cpu.append(cpu)

    def foreign(self, start: float, end: float) -> float:
        """CPU time the reference loop took inside [start, end]."""
        total = 0.0
        i = bisect.bisect_left(self.ends, start)
        while i < len(self.starts) and self.starts[i] < end:
            s, e = self.starts[i], self.ends[i]
            overlap = min(e, end) - max(s, start)
            if overlap > 0:
                total += self.cpu[i] * overlap / (e - s)
            i += 1
        return total

    def factor(self, start: float, end: float) -> float:
        """Nominal seconds per measured second over [start, end]: the mean
        speed of the samples that end within SAMPLE_WINDOW_S of it, else of
        the two around it.  A mean, because a long interval's time is the
        sum of its parts at whichever speed each ran."""
        lo = bisect.bisect_left(self.ends, start - SAMPLE_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + SAMPLE_WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), lo + 1
        return REFERENCE_NOMINAL_S * statistics.fmean(1 / c for c in self.cpu[lo:hi])

    def nominal(self, start: float, measured: float) -> float:
        """`measured` seconds from `start`, less the reference loop's CPU
        time inside them, in nominal seconds."""
        end = start + measured
        return (measured - self.foreign(start, end)) * self.factor(start, end)


@dataclass(frozen=True)
class Job:
    """One unit of work: run() is timed, check(output) runs after timing
    and returns a failure message or None."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Pass:
    wall: float
    starts: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)  # per run of the job
    reps: list[int] = field(default_factory=list)
    outputs: list[object] | None = None  # kept for the first pass only
    digests: list[str] = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    span_range: tuple[int, int] = (0, 0)


def run_pass(jobs: list[Job], tracer: Tracer | None = None) -> Pass:
    """Run every job, in order, timing each.

    Untraced, a job shorter than MIN_TIMED_S is run again back to back
    until that much time has passed, and its time is the mean: a single
    run of a fraction of a millisecond says more about the host than the
    job.  Traced passes run each job once, so spans and counts are per run.
    """
    gc.collect()
    if tracer is not None:
        tracer.counters = {}
        first_span = len(tracer.spans)
    starts, times, reps, outputs, errors = [], [], [], [], {}
    clock = time.perf_counter
    start = clock()
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = idx
        runs = 1
        t0 = clock()
        try:
            out = job.run()
            while tracer is None and clock() - t0 < MIN_TIMED_S:
                job.run()
                runs += 1
        except Exception as exc:  # a failed job is counted, not fatal
            out = None
            errors[idx] = f"{type(exc).__name__}: {exc}"
        times.append((clock() - t0) / runs)
        starts.append(t0)
        reps.append(runs)
        outputs.append(out)
    end = clock()
    p = Pass(end - start, starts, times, reps, outputs, [digest(o) for o in outputs], errors)
    if tracer is not None:
        p.counters = dict(tracer.counters)
        p.span_range = (first_span, len(tracer.spans))
    return p


def run_passes(jobs: list[Job], seconds: float, tracer: Tracer | None = None) -> list[Pass]:
    """Whole passes until another one would overrun `seconds`; at least one."""
    passes: list[Pass] = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, tracer))
        if len(passes) > 1:
            passes[-1].outputs = None  # the digests are enough to compare
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p.wall for p in passes)
        if elapsed + typical > seconds:
            return passes


def nominal_times(passes: list[Pass], probe: SpeedProbe) -> list[list[float]]:
    """Every job's time in every pass, in nominal seconds."""
    probe.refresh()
    return [
        [probe.nominal(s, t * r) / r for s, t, r in zip(p.starts, p.times, p.reps)]
        for p in passes
    ]


if __name__ == "__main__":
    sample_reference_loop(sys.stdin.fileno(), sys.stdout)
