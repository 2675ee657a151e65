"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every stated runtime budget is asserted with time.monotonic().
"""

import json
import random
import subprocess
import sys
import time
from itertools import combinations
from math import comb

from localprops import (
    ColoredCompleteGraph,
    DetectorParams,
    LocalSpec,
    RandomColoringConfig,
    SetSystem,
    behrend_set,
    collinear_point_set,
    color_energy,
    counting_lemma_find,
    difference_color_graph,
    difference_set,
    distance_color_graph,
    dyadic_profile,
    edge_count,
    edge_index,
    lemma_hypothesis_holds,
    min_colors,
    min_difference_set,
    mono_degree_violations,
    random_coloring,
    rainbow,
    monochromatic,
    verify_diff_local_property,
    verify_distance_local_property,
    verify_isosceles_free,
    verify_local_property,
    verify_no_3ap,
)
from oracles import (
    brute_energy_quadruples,
    brute_g_min,
    brute_min_colors_table,
    is_proper_edge_coloring,
    proper_coloring_exists,
    random_graph_corpus,
    round_robin_proper_coloring,
)


def report(num, name, ok, note=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f" ({note})"
    print(line)
    assert ok, line


def _corpus_small():
    """Fuzz corpus at n <= 8: seeded random plus structured colorings."""
    graphs = random_graph_corpus(2026, 250, n_hi=8)
    for n in range(2, 9):
        graphs.append(rainbow(n))
        graphs.append(monochromatic(n))
        graphs.append(round_robin_proper_coloring(n))
    return graphs


def test_criterion_1_exact_f_table():
    t0 = time.monotonic()
    ok = True
    values = {}
    for n in (3, 4, 5, 6):
        res = min_colors(n, LocalSpec(3, 3))
        values[n] = res.value
        ok &= res.status == "optimal"
        ok &= verify_local_property(res.certificate, LocalSpec(3, 3)).holds
        ok &= res.value >= n - 1  # the degree argument's lower bound
    ok &= values == {3: 3, 4: 3, 5: 5, 6: 5}

    # unpruned set-partition oracle settles n <= 5 outright
    for n in (3, 4, 5):
        ok &= brute_min_colors_table(n)[(3, 3)] == values[n]

    # chromatic-index characterization: the triangle property is exactly
    # properness, so values must be n-1 (even n) / n (odd n)
    rng = random.Random(5150)
    for _ in range(80):
        n = rng.randint(3, 7)
        g = random_coloring(RandomColoringConfig(n, rng.randint(1, edge_count(n)), rng.getrandbits(40)))
        ok &= verify_local_property(g, LocalSpec(3, 3)).holds == is_proper_edge_coloring(g)
    ok &= all(values[n] == (n - 1 if n % 2 == 0 else n) for n in values)

    # n = 6 settled independently: plain backtracking refutes 4 colors,
    # the circle factorization exhibits 5
    ok &= not proper_coloring_exists(6, 4)
    five = round_robin_proper_coloring(6)
    ok &= five.num_colors == 5 and verify_local_property(five, LocalSpec(3, 3)).holds

    elapsed = time.monotonic() - t0
    ok &= elapsed < 60
    report(1, "exact f(n,3,3) table vs oracles", ok, f"{elapsed:.1f}s")


def test_criterion_2_cauchy_schwarz_suite():
    t0 = time.monotonic()
    rng = random.Random(1)
    ok = True
    checked = 0
    for _ in range(1000):
        n = rng.randint(2, 12)
        c = rng.randint(1, max(1, edge_count(n)))
        g = random_coloring(RandomColoringConfig(n, c, rng.getrandbits(48)))
        e = edge_count(n)
        ok &= color_energy(g) * g.num_colors >= e * e
        checked += 1
    for n in range(2, 13):
        r, m = rainbow(n), monochromatic(n)
        e = edge_count(n)
        ok &= color_energy(r) * r.num_colors == e * e  # equality cases
        ok &= color_energy(m) * m.num_colors == e * e
    elapsed = time.monotonic() - t0
    ok &= checked >= 1000 and elapsed < 10
    report(2, "Cauchy-Schwarz energy floor on 1000 colorings", ok, f"{elapsed:.1f}s")


def test_criterion_3_energy_quadruple_oracle():
    ok = True
    for g in _corpus_small():
        ok &= color_energy(g) == brute_energy_quadruples(g)
    report(3, "energy equals quadruple enumeration (n <= 8)", ok)


def test_criterion_4_counting_lemma_fuzz():
    t0 = time.monotonic()
    rng = random.Random(20260801)
    ok = True
    found = 0
    for _ in range(10_000):
        n = rng.randint(2, 12)
        d = rng.choice((2, 3))
        m_target = rng.randint(max(1, -(-n // 2)), n)
        k = -(-(2 * d * n**d) // m_target**d) + rng.randint(0, 3)
        sets = tuple(
            frozenset(rng.sample(range(n), rng.randint(m_target, n)))
            for _ in range(k)
        )
        inst = SetSystem(n, sets, d)
        ok &= lemma_hypothesis_holds(inst)
        hit = counting_lemma_find(inst)
        if hit is None:
            ok = False
            continue
        found += 1
        m = inst.min_size
        ok &= 2 * hit[1] * n ** (d - 1) >= m**d  # exact rational threshold
    elapsed = time.monotonic() - t0
    ok &= found == 10_000 and elapsed < 60
    report(4, "counting bound succeeds on 10^4 hypothesized systems", ok, f"{elapsed:.1f}s")


def test_criterion_5_difference_set_desk_check():
    t0 = time.monotonic()
    ok = True
    spec = LocalSpec(4, 5)
    for n in range(2, 7):  # the pairwise bound concerns sets, so n >= 2
        for cap in range(n, 19):
            res = min_difference_set(n, spec, cap)
            if res.status == "infeasible":
                continue
            ok &= res.status == "optimal"
            ok &= res.value >= comb(n, 2) - n + 2

    res = min_difference_set(4, spec, 10)
    ok &= res.status == "optimal" and res.value == 5
    ok &= len(difference_set(res.certificate)) == 5
    ok &= verify_diff_local_property(res.certificate, spec).holds
    value, _ = brute_g_min(4, 4, 5, 10)
    ok &= value == 5
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300
    report(5, "pairwise-difference bound sweep and exact minimum", ok, f"{elapsed:.1f}s")


def test_criterion_6_reduction_soundness():
    ok = True
    # exhaustive integer sets over {1..8}, sizes 2..7
    for size in range(2, 8):
        for vals in combinations(range(1, 9), size):
            g = difference_color_graph(vals)
            for k in range(2, size + 1):
                for ell in range(1, comb(k, 2) + 1):
                    spec = LocalSpec(k, ell)
                    direct = verify_diff_local_property(vals, spec)
                    via = verify_local_property(g, spec)
                    ok &= direct.holds == via.holds
                    if not direct.holds and via.witness is not None:
                        ok &= direct.witness == tuple(vals[i] for i in via.witness)
                        ok &= direct.witness_colors == via.witness_colors
    # exhaustive point sets over the 3x3 grid, sizes 2..7
    grid = [(x, y) for x in range(3) for y in range(3)]
    for size in range(2, 8):
        for pts in combinations(grid, size):
            g = distance_color_graph(pts)
            for k in range(2, size + 1):
                for ell in range(1, comb(k, 2) + 1):
                    spec = LocalSpec(k, ell)
                    direct = verify_distance_local_property(pts, spec)
                    via = verify_local_property(g, spec)
                    ok &= direct.holds == via.holds
                    if not direct.holds and via.witness is not None:
                        ok &= direct.witness == tuple(pts[i] for i in via.witness)
    # randomized corpora at size <= 10
    rng = random.Random(606060)
    for _ in range(150):
        vals = tuple(sorted(rng.sample(range(1, 80), rng.randint(2, 10))))
        k = rng.randint(2, len(vals))
        spec = LocalSpec(k, rng.randint(1, comb(k, 2)))
        ok &= (
            verify_diff_local_property(vals, spec).holds
            == verify_local_property(difference_color_graph(vals), spec).holds
        )
    for _ in range(150):
        pts = set()
        while len(pts) < rng.randint(2, 10):
            pts.add((rng.randint(0, 9), rng.randint(0, 9)))
        pts = tuple(sorted(pts))
        k = rng.randint(2, len(pts))
        spec = LocalSpec(k, rng.randint(1, comb(k, 2)))
        ok &= (
            verify_distance_local_property(pts, spec).holds
            == verify_local_property(distance_color_graph(pts), spec).holds
        )
    report(6, "graph reductions agree with direct verifiers", ok)


def test_criterion_7_progression_free_constructions():
    ok = True
    for target in range(1, 129):
        out = behrend_set(target)
        ok &= len(out) >= target
        ok &= verify_no_3ap(out) is None
        ok &= verify_isosceles_free(collinear_point_set(out)) is None
    rng = random.Random(321321)
    for _ in range(1000):
        vals = sorted(rng.sample(range(1, 150), rng.randint(3, 18)))
        if rng.random() < 0.4:
            x, y = sorted(rng.sample(range(1, 60), 2))
            vals = sorted(set(vals) | {x, y, 2 * y - x})
        has_ap = verify_no_3ap(vals) is not None
        has_iso = verify_isosceles_free(collinear_point_set(vals)) is not None
        ok &= has_ap == has_iso
    report(7, "progression-free sets and isosceles-free points", ok)


def test_criterion_8_forbidden_configuration_consequence():
    rng = random.Random(808808)
    ok = True
    built = 0
    cases = [(a, b) for a in (2, 3) for b in (2, 3)]
    while built < 100:
        a, b = cases[built % len(cases)]
        k = a * (b + 1)
        p = DetectorParams(k, b)
        n = rng.randint(k, k + 2)
        base = random_coloring(
            RandomColoringConfig(n, rng.randint(1, edge_count(n)), rng.getrandbits(40))
        )
        colors = list(base.edge_colors)
        v = rng.randrange(n)
        fresh = edge_count(n) + 7
        spokes = [u for u in range(n) if u != v]
        rng.shuffle(spokes)
        for u in spokes[: b * a - b + 1]:
            colors[edge_index(n, min(u, v), max(u, v))] = fresh
        g = ColoredCompleteGraph.from_sparse(n, colors)
        ok &= bool(mono_degree_violations(g, p))
        spec = LocalSpec(k, comb(k, 2) - b * a + b + 1)
        ok &= not verify_local_property(g, spec).holds
        built += 1
    ok &= built == 100
    report(8, "mono-degree violations force property failure (100/100)", ok)


def test_criterion_9_poor_bound_universal():
    ok = True
    graphs = _corpus_small() + random_graph_corpus(77, 300)
    graphs.append(min_colors(6, LocalSpec(3, 3)).certificate)
    graphs.append(min_colors(6, LocalSpec(6, 14)).certificate)
    p = DetectorParams(6, 2)
    for g in graphs:
        prof = dyadic_profile(g, p)
        for j, kj in enumerate(prof.cum_count):
            ok &= kj * 2**j <= edge_count(g.n)
    report(9, "k_j 2^j <= C(n,2) across all corpora", ok)


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "localprops", *args], capture_output=True, text=True
    )


def test_criterion_10_determinism(tmp_path):
    ok = True
    # seeded construction: identical artifacts and payloads
    art = tmp_path / "coloring.json"
    arts = []
    for _ in range(2):
        proc = _cli(
            "construct", "--kind", "random-coloring", "--n", "9", "--colors", "6",
            "--seed", "31415", "--artifact-out", str(art),
        )
        ok &= proc.returncode == 0
        arts.append((art.read_bytes(), proc.stdout))
    ok &= arts[0] == arts[1]

    # estimator payloads are byte-identical
    runs = [
        _cli(
            "construct", "--kind", "estimate-probability", "--n", "6", "--colors", "5",
            "--k", "3", "--ell", "2", "--trials", "120", "--seed", "7",
        ).stdout
        for _ in range(2)
    ]
    ok &= runs[0] == runs[1]

    # solver runs: byte-identical payloads, logs and certificates
    cert = tmp_path / "cert.json"
    log = tmp_path / "log.csv"
    outs = []
    for _ in range(3):
        proc = _cli(
            "solve-f", "--n", "6", "--k", "3", "--ell", "3",
            "--certificate-out", str(cert), "--log-out", str(log),
        )
        ok &= proc.returncode == 0
        outs.append((proc.stdout, cert.read_bytes(), log.read_bytes()))
    ok &= outs[0] == outs[1] == outs[2]

    g_runs = [
        _cli("solve-g", "--n", "4", "--k", "4", "--ell", "5", "--range-cap", "10").stdout
        for _ in range(2)
    ]
    ok &= g_runs[0] == g_runs[1]

    prof_in = tmp_path / "mono.json"
    prof_in.write_text(json.dumps({"n": 8, "colors": [0] * 28}))
    p_runs = [
        _cli("profile", "--input", str(prof_in), "--k", "6", "--m", "2", "--format", "csv").stdout
        for _ in range(2)
    ]
    ok &= p_runs[0] == p_runs[1] and p_runs[0].splitlines()[0].startswith("j,")
    report(10, "seeded runs byte-identical, thread-count independent", ok)
