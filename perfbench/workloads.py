"""The four workloads: seeded inputs, the job list, and each job's check.

A builder takes a Context and returns a Plan.  Only the benchmark sees
the seed; the library receives the inputs generated from it.  Every
check runs after timing and returns a failure message or None.  Checks
judge outputs by brute-force oracles (tests/oracles.py), by invariants
that hold for any seed, and by the pins in expected.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

from benchlib import Job

F_TABLE_NODE_LIMIT = 20_000
SMOKE_NODE_LIMIT = 200
STATUS_RANK = {"budget-exhausted": 0, "bound-only": 1, "optimal": 2}


@dataclass
class Context:
    lp: object  # the localprops package
    oracles: object  # tests/oracles.py
    seed: int
    smoke: bool
    workdir: Path
    expected: dict


@dataclass
class Plan:
    jobs: list[Job]
    warmup: list[Job]


# ---------------------------------------------------------------- solves


def _check_solve(ctx: Context, n, spec, pin, res) -> str | None:
    """A min_colors result: certificate, bounds, log, and the pinned
    result.  pin is (status, lower bound, value or None): a later result
    may improve on it but not fall short of it.  Its status ranks at
    least as high, its lower bound is at least the pinned one, and where
    a value is pinned it has a value no larger, so its certified
    interval [lower_bound, value] lies inside the pinned one."""
    lp = ctx.lp
    if res.status not in STATUS_RANK:
        return f"unknown status {res.status}"
    if res.status == "budget-exhausted":
        if res.certificate is not None or res.value is not None:
            return "budget-exhausted result carries a coloring"
    else:
        G = res.certificate
        if G is None or G.n != n or G.num_colors != res.value:
            return "certificate does not match the reported value"
        if not lp.verify_local_property(G, spec).holds:
            return "certificate fails verify_local_property"
        if not ctx.oracles.brute_verdict(G, spec.k, spec.ell)[0]:
            return "certificate fails the brute-force oracle"
        if res.log[-1][0] != res.value or res.log[-1][2] != "yes":
            return "last log level is not the reported value"
        if res.lower_bound > res.value:
            return "lower bound above value"
        if res.status == "optimal" and res.lower_bound != res.value:
            return "optimal result with an open gap"
    if pin is None:
        return None
    status, low, high = pin
    if STATUS_RANK[res.status] < STATUS_RANK[status]:
        return f"status fell from pinned {status} to {res.status}"
    if res.lower_bound < low or (high is not None and (res.value is None or res.value > high)):
        return f"[{res.lower_bound}, {res.value}] is not inside pinned [{low}, {high}]"
    return None


def _solve_job(ctx: Context, name, n, k, ell, node_limit, pin) -> Job:
    lp = ctx.lp
    spec = lp.LocalSpec(k, ell)
    budget = lp.SolveBudget(node_limit=node_limit)
    return Job(
        name,
        lambda: lp.min_colors(n, spec, budget),
        lambda res: _check_solve(ctx, n, spec, pin, res),
    )


def f_table(ctx: Context) -> Plan:
    node_limit = SMOKE_NODE_LIMIT if ctx.smoke else F_TABLE_NODE_LIMIT
    specs = [
        (n, k, ell)
        for n in range(4, 10)
        for k in range(3, min(n, 5) + 1)
        for ell in range(1, comb(k, 2) + 1)
    ]
    random.Random(ctx.seed).shuffle(specs)  # the seed sets the job order only
    pins = {} if ctx.smoke else ctx.expected["f-table"]
    jobs = [
        _solve_job(ctx, f"f({n},{k},{ell})", n, k, ell, node_limit, pins.get(f"{n},{k},{ell}"))
        for n, k, ell in specs
    ]
    warmup = [
        _solve_job(ctx, f"warm-f({n},{k},{ell})", n, k, ell, node_limit, None)
        for n, k, ell in ((5, 3, 3), (6, 4, 5), (6, 5, 8))
    ]
    return Plan(jobs, warmup)


# ---------------------------------------------------------------- wide


def _holds(verdict) -> str | None:
    return None if verdict.holds else f"expected to hold, fails at {verdict.witness}"


def _matches_brute(ctx: Context, G, spec, verdict) -> str | None:
    want = ctx.oracles.brute_verdict(G, spec.k, spec.ell)
    got = (verdict.holds, verdict.witness, verdict.witness_colors)
    return None if got == want else f"verdict {got} but brute force gives {want}"


def wide(ctx: Context) -> Plan:
    lp = ctx.lp
    rng = random.Random(ctx.seed)
    spec46, spec510 = lp.LocalSpec(4, 6), lp.LocalSpec(5, 10)

    n_rainbow = 10 if ctx.smoke else 32
    perm = list(range(n_rainbow))
    rng.shuffle(perm)
    rainbow = lp.permute_vertices(lp.rainbow(n_rainbow), perm)

    # Erdos-Turan Sidon set {2pi + (i^2 mod p)}, moved by a seeded affine map:
    # all differences stay distinct, so every (4,6) check holds.
    p = 11 if ctx.smoke else 47
    shift, scale = rng.randrange(1, 1000), rng.randrange(1, 8)
    sidon = [shift + scale * (2 * p * i + (i * i) % p) for i in range(p)]
    points = list(lp.collinear_point_set(sidon))
    rng.shuffle(points)
    few_points = points[: 8 if ctx.smoke else 36]

    behrend_target = 20 if ctx.smoke else 1000
    solve_n = 6 if ctx.smoke else 12

    def behrend_no_3ap():
        elems = lp.behrend_set(behrend_target)
        return len(elems), lp.verify_no_3ap(elems)

    def check_behrend(out):
        size, hit = out
        if hit is not None:
            return f"Behrend set has the 3-AP {hit}"
        return None if size >= behrend_target else f"Behrend set has {size} elements"

    jobs = [
        Job("rainbow-scan", lambda: lp.verify_local_property(rainbow, spec510), _holds),
        Job("sidon-diff", lambda: lp.verify_diff_local_property(sidon, spec46), _holds),
        Job(
            "sidon-diff-graph",
            lambda: lp.verify_local_property(lp.difference_color_graph(sidon), spec46),
            _holds,
        ),
        Job(
            "sidon-distance-graph",
            lambda: lp.verify_local_property(lp.distance_color_graph(points), spec46),
            _holds,
        ),
        Job(
            "sidon-distances",
            lambda: lp.verify_distance_local_property(few_points, spec46),
            _holds,
        ),
        Job("behrend-no-3ap", behrend_no_3ap, check_behrend),
    ]
    pin = None if ctx.smoke else ctx.expected["wide"][f"{solve_n},5,7"]
    # walks every level up to C(n,2) on 200 nodes each: nearly all preprocessing
    jobs.append(_solve_job(ctx, f"budgeted-solve-{solve_n}", solve_n, 5, 7, 200, pin))

    # Colorings with at most 9 colors fail (5,10) on the very first 5-subset,
    # so their cost is the verifier's per-call overhead on a 40-vertex graph.
    # Ten calls make one job, to lift it well above the timer's resolution.
    n_early = 12 if ctx.smoke else 40
    pool = [
        lp.random_coloring(lp.RandomColoringConfig(n_early, rng.randrange(2, 10), rng.getrandbits(32)))
        for _ in range(120)
    ]
    for i in range(120):
        graphs = [pool[(i + 12 * t) % 120] for t in range(10)]
        jobs.append(
            Job(
                f"early-fail-{i}",
                lambda graphs=graphs: [lp.verify_local_property(G, spec510) for G in graphs],
                lambda verdicts, graphs=graphs: next(
                    filter(None, map(_matches_brute, [ctx] * 10, graphs, [spec510] * 10, verdicts)),
                    None,
                ),
            )
        )
    warmup = [
        Job("warm-verify", lambda: lp.verify_local_property(lp.rainbow(12), spec510), _holds),
        Job("warm-diff", lambda: lp.verify_diff_local_property(sidon[:12], spec46), _holds),
    ]
    return Plan(jobs, warmup)


# ---------------------------------------------------------------- monte-carlo


def _check_probability(trials):
    def check(prob):
        hits = prob * trials
        if not 0 <= prob <= 1 or abs(hits - round(hits)) > 1e-9:
            return f"probability {prob} is not a count out of {trials}"
        return None

    return check


def _check_diff_set(ctx: Context, n, spec, cap, pinned):
    lp = ctx.lp

    def check(res):
        a = res.certificate
        if res.status != "optimal" or a is None:
            return f"status {res.status}"
        if len(a) != n or a[0] != 1 or a[-1] > cap or list(a) != sorted(set(a)):
            return f"certificate {a} is not an n-subset of [1, {cap}] starting at 1"
        if not lp.verify_diff_local_property(a, spec).holds:
            return "certificate fails the difference property"
        diffs = {y - x for i, x in enumerate(a) for y in a[i + 1 :]}
        if res.value != len(diffs) or tuple(sorted(diffs)) != res.difference_set:
            return "value is not the certificate's difference count"
        if pinned is not None and res.value != pinned:
            return f"value {res.value}, pinned {pinned}"
        return None

    return check


def _coloring_stats(lp, G, params, spec):
    return (
        lp.dyadic_profile(G, params),
        lp.bound_report(G, params),
        lp.energy_decomposition(G),
        lp.max_mono_degree(G),
        lp.popular_intersection_search(G, 1, params),
        lp.verify_local_property(G, spec),
    )


def _check_stats(ctx: Context, G, params, spec):
    brute = ctx.oracles

    def check(out):
        profile, rows, (contrib, total), (top, at_top), hit, verdict = out
        mults = {}
        for c in G.edge_colors:
            mults[c] = mults.get(c, 0) + 1
        energy = sum(m * m for m in mults.values())
        if G.n <= 10:
            energy = brute.brute_energy_quadruples(G)
        if total != energy or sum(contrib) != total:
            return f"energy {total}, expected {energy}"
        bins = [0] * max(m.bit_length() for m in mults.values())
        for m in mults.values():
            bins[m.bit_length() - 1] += 1
        if list(profile.bin_count) != bins or profile.cum_count[0] != len(mults):
            return "dyadic profile disagrees with the color histogram"
        if len(rows) != len(bins) or not all(r.poor_ok for r in rows):
            return "bound report rows wrong or poor bound violated"
        degree = {}
        for i in range(G.n):
            for j in range(i + 1, G.n):
                for v in (i, j):
                    key = (v, G.color(i, j))
                    degree[key] = degree.get(key, 0) + 1
        want_top = max(degree.values())
        want_at = sorted((v, c, want_top) for (v, c), d in degree.items() if d == want_top)
        if (top, list(at_top)) != (want_top, want_at):
            return "max_mono_degree disagrees with a direct count"
        want_hit = brute.brute_popular(G, 1, params.a, params.b)
        got_hit = None if hit is None else (hit.colors, hit.vertices)
        if got_hit != want_hit:
            return f"popular intersection {got_hit}, brute force {want_hit}"
        return _matches_brute(ctx, G, spec, verdict)

    return check


def _check_lemma(ctx: Context, inst):
    def check(hit):
        want = ctx.oracles.brute_lemma_find(inst)
        return None if hit == want else f"counting lemma {hit}, brute force {want}"

    return check


def monte_carlo(ctx: Context) -> Plan:
    lp = ctx.lp
    rng = random.Random(ctx.seed)
    jobs = []
    trials = 5 if ctx.smoke else 20
    repeats = 2 if ctx.smoke else 10
    spec510 = lp.LocalSpec(5, 10)
    # At the color budget about a third to a half of colorings hold, so
    # trials mix full scans with early exits.
    for n in (6, 8, 10):
        budget = lp.color_budget(n, spec510)
        for colors in (budget, 2 * budget):
            for r in range(repeats):
                s = rng.getrandbits(32)
                jobs.append(
                    Job(
                        f"estimate-{n}-{colors}-{r}",
                        lambda n=n, colors=colors, s=s: lp.estimate_property_probability(
                            n, colors, spec510, trials, s
                        ),
                        _check_probability(trials),
                    )
                )
    searches = ((4, 3, 3, 10), (4, 4, 5, 12)) if ctx.smoke else ((6, 4, 5, 22), (5, 3, 3, 30))
    pins = ctx.expected["monte-carlo"]
    for n, k, ell, cap in searches:
        spec = lp.LocalSpec(k, ell)
        jobs.append(
            Job(
                f"min-difference-set-{n}-{k}-{ell}-{cap}",
                lambda n=n, spec=spec, cap=cap: lp.min_difference_set(n, spec, cap),
                _check_diff_set(ctx, n, spec, cap, pins.get(f"{n},{k},{ell},{cap}")),
            )
        )
    params = lp.DetectorParams(6, 2)
    spec45 = lp.LocalSpec(4, 5)
    # sizes and color counts cycle; the seed draws the colorings themselves
    for i in range(100 if ctx.smoke else 300):
        n = 8 + i % 7
        colors = max(2, comb(n, 2) * (1 + i % 5) // 10)
        G = lp.random_coloring(lp.RandomColoringConfig(n, colors, rng.getrandbits(32)))
        jobs.append(
            Job(
                f"coloring-stats-{i}",
                lambda G=G: _coloring_stats(lp, G, params, spec45),
                _check_stats(ctx, G, params, spec45),
            )
        )
    for i in range(20 if ctx.smoke else 100):
        universe = 12
        sets = tuple(
            frozenset(rng.sample(range(universe), rng.randint(4, 9))) for _ in range(6 + i % 7)
        )
        inst = lp.SetSystem(universe, sets, 2 + i % 2)
        jobs.append(
            Job(f"counting-lemma-{i}", lambda inst=inst: lp.counting_lemma_find(inst), _check_lemma(ctx, inst))
        )
    warmup = [jobs[0], jobs[-1]] + [j for j in jobs if j.name == "coloring-stats-0"]
    return Plan(jobs, warmup)


# ---------------------------------------------------------------- cli-batch


def _read_json(ctx: Context, name):
    return json.loads((ctx.workdir / name).read_text())


def _coloring_file(ctx: Context, name):
    data = _read_json(ctx, name)
    return ctx.lp.ColoredCompleteGraph.from_sparse(data["n"], data["colors"])


def _payload(out):
    rc, stdout, _ = out
    return rc, json.loads(stdout)


def _cli_checks(ctx: Context, name, check, pins):
    """Exit code and payload check, then the pinned payload digest."""

    def run_check(out):
        rc, stdout, stderr = out
        if stderr:
            return f"stderr: {stderr[:200]!r}"
        problem = check(out)
        if problem:
            return problem
        pin = pins.get(name)
        got = [rc, hashlib.sha256(stdout).hexdigest()]
        if pin is not None and got != pin:
            return f"exit code and payload digest {got}, pinned {pin}"
        return None

    return run_check


def _verdict_payload(ctx: Context, G, k, ell):
    def check(out):
        rc, payload = _payload(out)
        holds, witness, count = ctx.oracles.brute_verdict(G(), k, ell)
        want = ("holds" if holds else "fails", list(witness) if witness else None, count)
        got = (payload["status"], payload["witness"], payload["witness_colors"])
        if got != want or rc != (0 if holds else 1):
            return f"exit {rc} {got}, brute force gives {want}"
        return None

    return check


def _holds_payload(out):
    rc, payload = _payload(out)
    return None if rc == 0 and payload["status"] == "holds" else f"exit {rc}, {payload['status']}"


def cli_script(ctx: Context) -> list[tuple[str, list[str], object]]:
    """(name, argv, check) for every process, in run order: artifacts are
    written by one step and read back by the next."""
    lp, brute = ctx.lp, ctx.oracles
    rng = random.Random(ctx.seed)
    steps = []

    def add(name, argv, check):
        steps.append((name, [str(a) for a in argv], check))

    def cycle(options, count):
        """count picks that use every option equally often, in seeded order;
        the seed then varies the inputs but not the mix of costs."""
        picks = [options[i % len(options)] for i in range(count)]
        rng.shuffle(picks)
        return picks

    # 100 command lines: the fewest that support a p90
    chains = 1 if ctx.smoke else 9
    verify_specs = cycle([(3, 2), (3, 3), (4, 4), (4, 5)], chains)
    formats = cycle(["json", "csv"], chains)
    locates = cycle([["--locate"], []], chains)
    for i in range(chains):
        n, colors, s = 8 + i % 3, 6 + i, rng.randrange(10**6)
        f = f"coloring{i}.json"

        def made(out, n=n, colors=colors, s=s, f=f):
            rc, payload = _payload(out)
            want = lp.random_coloring(lp.RandomColoringConfig(n, colors, s))
            if rc != 0 or _coloring_file(ctx, f) != want:
                return "artifact is not the seeded random coloring"
            return None

        add(f"construct-coloring-{i}", ["construct", "--kind", "random-coloring", "--n", n,
            "--colors", colors, "--seed", s, "--artifact-out", f], made)
        k, ell = verify_specs[i]
        add(f"verify-coloring-{i}", ["verify-coloring", "--input", f, "--k", k, "--ell", ell],
            _verdict_payload(ctx, lambda f=f: _coloring_file(ctx, f), k, ell))
        fmt = formats[i]

        def energy(out, f=f, fmt=fmt):
            rc, stdout, _ = out
            G = _coloring_file(ctx, f)
            want = brute.brute_energy_quadruples(G)
            if fmt == "csv":
                got = int(stdout.decode().strip().splitlines()[-1].split(",")[-1])
            else:
                got = json.loads(stdout)["energy"]
            return None if rc == 0 and got == want else f"energy {got}, brute force {want}"

        add(f"energy-{i}", ["energy", "--input", f, "--format", fmt], energy)
        locate = locates[i]

        def profile(out, f=f):
            rc, payload = _payload(out)
            G = _coloring_file(ctx, f)
            want = list(lp.dyadic_profile(G, lp.DetectorParams(6, 2)).bin_count)
            return None if rc == 0 and payload["bin_count"] == want else "profile bins differ"

        add(f"profile-{i}", ["profile", "--input", f, "--k", 6, "--m", 2] + locate, profile)

    solves = [(5, 3, 3), (6, 3, 3), (5, 4, 5), (6, 4, 4), (6, 4, 5), (5, 3, 2), (6, 5, 8), (7, 3, 3)]
    for i, (n, k, ell) in enumerate(cycle(solves, 1 if ctx.smoke else 8)):
        cert, log = f"cert{i}.json", f"log{i}.csv"

        def solved(out, n=n, k=k, ell=ell, cert=cert, log=log):
            rc, payload = _payload(out)
            if rc != 0 or payload["status"] not in ("optimal", "bound-only"):
                return f"exit {rc}, status {payload['status']}"
            G = _coloring_file(ctx, cert)
            if G.n != n or G.num_colors != payload["value"] or not brute.brute_verdict(G, k, ell)[0]:
                return "certificate wrong"
            rows = (ctx.workdir / log).read_text().splitlines()
            return None if len(rows) == len(payload["levels"]) + 1 else "log rows differ"

        add(f"solve-f-{i}", ["solve-f", "--n", n, "--k", k, "--ell", ell, "--node-limit", 5000,
            "--certificate-out", cert, "--log-out", log], solved)
        add(f"verify-certificate-{i}", ["verify-coloring", "--input", cert, "--k", k, "--ell", ell],
            _holds_payload)

    searches = [(4, 4, 5, 10), (4, 4, 5, 12), (5, 3, 3, 12), (5, 3, 3, 14), (4, 3, 3, 8)]
    for i, (n, k, ell, cap) in enumerate(cycle(searches, 1 if ctx.smoke else 7)):
        cert = f"diffset{i}.json"

        def searched(out, n=n, k=k, ell=ell, cap=cap, cert=cert):
            rc, payload = _payload(out)
            value, witness = brute.brute_g_min(n, k, ell, cap)
            a = _read_json(ctx, cert)["set"]
            diffs = {y - x for i, x in enumerate(a) for y in a[i + 1 :]}
            if rc != 0 or payload["value"] != value or len(diffs) != value or len(a) != n:
                return f"solve-g value {payload['value']}, brute force {value}"
            return None

        add(f"solve-g-{i}", ["solve-g", "--n", n, "--k", k, "--ell", ell, "--range-cap", cap,
            "--certificate-out", cert], searched)
        add(f"verify-diffset-{i}", ["verify-diffset", "--input", cert, "--k", k, "--ell", ell],
            _holds_payload)

    # size targets 7..24 all give the same 24-element set; the seed picks one
    for i in range(1 if ctx.smoke else 7):
        target = rng.randint(7, 24)
        sf, pf = f"behrend{i}.json", f"points{i}.json"

        def behrend(out, target=target, sf=sf):
            rc, payload = _payload(out)
            a = _read_json(ctx, sf)
            if rc != 0 or len(a) < target or brute.brute_no_3ap(a) is not None:
                return "Behrend artifact too small or has a 3-AP"
            return None

        def collinear(out, sf=sf, pf=pf):
            rc, payload = _payload(out)
            want = [[x, 0] for x in _read_json(ctx, sf)]
            return None if rc == 0 and _read_json(ctx, pf) == want else "points differ"

        add(f"behrend-{i}", ["construct", "--kind", "behrend", "--size-target", target,
            "--artifact-out", sf], behrend)
        add(f"collinear-{i}", ["construct", "--kind", "collinear-points", "--input", sf,
            "--artifact-out", pf], collinear)
        # progression-free on a line: no isosceles triple, so (3,3) holds
        add(f"verify-distances-{i}", ["verify-distances", "--input", pf, "--k", 3, "--ell", 3],
            _holds_payload)

    estimates = cycle([(n, spec, m) for n in (6, 8) for spec in ((5, 10), (4, 4)) for m in (1, 2)],
                      1 if ctx.smoke else 8)
    for i, (n, spec, multiple) in enumerate(estimates):
        colors = lp.color_budget(n, lp.LocalSpec(*spec)) * multiple
        trials = 30
        add(f"estimate-{i}", ["construct", "--kind", "estimate-probability", "--n", n,
            "--colors", colors, "--k", spec[0], "--ell", spec[1], "--trials", trials,
            "--seed", rng.randrange(10**6)],
            lambda out, trials=trials: _check_probability(trials)(_payload(out)[1]["probability"]))

    for i in range(1 if ctx.smoke else 5):
        universe = 12
        sets = [sorted(rng.sample(range(universe), rng.randint(4, 9))) for _ in range(rng.randint(6, 12))]
        d = rng.choice((2, 3))
        f = f"system{i}.json"
        (ctx.workdir / f).write_text(json.dumps({"n": universe, "sets": sets, "d": d}))
        inst = lp.SetSystem(universe, tuple(frozenset(s) for s in sets), d)

        def lemma(out, inst=inst):
            rc, payload = _payload(out)
            want = brute.brute_lemma_find(inst)
            got = (payload["indices"], payload["intersection_size"])
            expect = (list(want[0]), want[1]) if want else (None, None)
            if got != expect or rc != (0 if want else 1):
                return f"lemma-check {got}, brute force {expect}"
            return None

        add(f"lemma-check-{i}", ["lemma-check", "--input", f], lemma)
    return steps


def _in_process(ctx: Context, argv):
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(ctx.workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = ctx.lp.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
    finally:
        os.chdir(here)
    return rc, out.getvalue().encode(), err.getvalue().encode()


def cli_batch(ctx: Context) -> Plan:
    """Each command line runs in this process through cli.main, one after
    another, with its working directory set to the batch's.  Interpreter
    start and import, which a separate process would add, are timed by
    set-up and by the traced run's cli.interpreter_s and cli.import_s.  A
    child process per job adds stalls in process start that the reference
    loop does not see, which spread the timings past their bounds on a
    VM that shares its cores."""
    pins = {} if ctx.smoke else ctx.expected["cli-batch"].get(str(ctx.seed), {})
    jobs = [
        Job(name, lambda argv=argv: _in_process(ctx, argv), _cli_checks(ctx, name, check, pins))
        for name, argv, check in cli_script(ctx)
    ]
    warmup = [Job("warm-version", lambda: _in_process(ctx, ["--version"]), lambda out: None)]
    return Plan(jobs, warmup)


BUILDERS = {
    "f-table": f_table,
    "wide": wide,
    "monte-carlo": monte_carlo,
    "cli-batch": cli_batch,
}
