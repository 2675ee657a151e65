import dataclasses
import json
import pickle
import random
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localprops import (
    ColoredCompleteGraph,
    LocalSpec,
    RandomColoringConfig,
    cauchy_schwarz_floor,
    color_energy,
    color_histogram,
    difference_color_graph,
    distance_color_graph,
    edge_count,
    edge_index,
    min_colors,
    monochromatic,
    permute_vertices,
    rainbow,
    random_coloring,
    verify_local_property,
)
from localprops import coloring
from localprops.coloring import _raw_holds, _repeat_cores
from localprops.io import load_coloring
from oracles import (
    brute_energy_quadruples,
    brute_verdict,
    per_edge_draw,
    raw_graph,
    random_graph_corpus,
    round_robin_proper_coloring,
)


def test_edge_index_matches_enumeration_order():
    for n in range(2, 9):
        for pos, (i, j) in enumerate(combinations(range(n), 2)):
            assert edge_index(n, i, j) == pos
    with pytest.raises(ValueError):
        edge_index(4, 2, 2)
    with pytest.raises(ValueError):
        edge_index(4, 1, 4)


def test_graph_validation():
    with pytest.raises(ValueError, match=r"^expected 3 edge colors for n=3, got 2$"):
        ColoredCompleteGraph(3, (0, 0))
    with pytest.raises(ValueError, match=r"^color ids must be dense 0\.\.num_colors-1 \(see from_sparse\)$"):
        ColoredCompleteGraph(3, (0, 0, 2))
    # floats equal to 0 and 1 and a True beside a 1 pass the density test,
    # so every id is checked, not only the distinct ones
    for colors in ((0.0, 0.0, 1.0), (0, 1, True), (0, 1, 1.0), (False, 0, 1), (0, 1, "2")):
        with pytest.raises(ValueError, match="^color ids must be integers, got "):
            ColoredCompleteGraph(3, colors)
    g = ColoredCompleteGraph.from_sparse(3, (5, 5, 9))
    assert g.edge_colors == (0, 0, 1)
    assert g.num_colors == 2
    assert ColoredCompleteGraph.from_sparse(3, ("b", "a", "b")).edge_colors == (1, 0, 1)  # any hashable ids
    assert ColoredCompleteGraph(1, ()).num_colors == 0


def test_verify_local_property_examples():
    assert verify_local_property(rainbow(6), LocalSpec(4, 6)).holds
    v = verify_local_property(monochromatic(5), LocalSpec(3, 2))
    assert not v.holds and v.witness == (0, 1, 2) and v.witness_colors == 1
    # proper 5-edge-coloring of K_5 satisfies the triangle property
    cert = round_robin_proper_coloring(5)
    assert verify_local_property(cert, LocalSpec(3, 3)).holds
    assert brute_verdict(cert, 3, 3)[0]


def test_verify_local_property_infeasible_query():
    with pytest.raises(ValueError):
        verify_local_property(rainbow(3), LocalSpec(4, 2))


def test_pruned_scan_matches_unpruned_oracle():
    rng = random.Random(20260810)
    for _ in range(160):
        n = rng.randint(2, 10)
        c = rng.randint(1, edge_count(n) if n > 1 else 1)
        g = random_coloring(RandomColoringConfig(n, c, rng.getrandbits(40)))
        k = rng.randint(2, n)
        ell = rng.randint(1, comb(k, 2))
        verdict = verify_local_property(g, LocalSpec(k, ell))
        holds, witness, count = brute_verdict(g, k, ell)
        assert verdict.holds == holds
        assert verdict.witness == witness
        assert verdict.witness_colors == count


@st.composite
def _verify_cases(draw):
    n = draw(st.integers(2, 9))
    c = draw(st.integers(1, comb(n, 2)))
    colors = draw(st.lists(st.integers(0, c - 1), min_size=comb(n, 2), max_size=comb(n, 2)))
    k = draw(st.integers(2, n))
    ell = draw(st.integers(1, comb(k, 2)))
    return ColoredCompleteGraph.from_sparse(n, colors), k, ell


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_verify_cases())
def test_pruned_scan_matches_unpruned_oracle_fuzzed(case):
    g, k, ell = case
    verdict = verify_local_property(g, LocalSpec(k, ell))
    assert (verdict.holds, verdict.witness, verdict.witness_colors) == brute_verdict(g, k, ell)


def test_verify_local_property_has_no_depth_limit():
    # the one k-subset, 1100 vertices deep; the levels share one path list,
    # with no prefix or pending tuple per level, so memory stays O(k)
    g = monochromatic(1100)
    tracemalloc.start()
    try:
        v = verify_local_property(g, LocalSpec(1100, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (v.holds, v.witness, v.witness_colors) == (False, tuple(range(1100)), 1)
    assert peak < 1_000_000, peak


def test_scan_memory_does_not_grow_with_the_color_count():
    # 60,837 colors on K_450, failing within the first rows: each edge's
    # color bit is shifted as the scan reads it, so the scan holds only its
    # mask rows, not a bit per color (a table of 1 << c for every color
    # would hold about num_colors^2 / 16 bytes, over 200 MB here)
    g = random_coloring(RandomColoringConfig(450, 90_000, 1))
    assert g.num_colors == 60_837
    spec = LocalSpec(4, 6)
    tracemalloc.start()
    try:
        v = verify_local_property(g, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (v.holds, v.witness, v.witness_colors) == brute_verdict(g, 4, 6) == (False, (0, 1, 2, 81), 5)
    assert peak < 2_000_000, peak


def _plant_repeats(n, plants):
    """A rainbow K_n in which, for each (a, b), edge a takes edge b's color."""
    colors = list(range(comb(n, 2)))
    for a, b in plants:
        colors[a] = colors[b]
    return ColoredCompleteGraph.from_sparse(n, colors)


@st.composite
def _near_rainbow_cases(draw):
    n = draw(st.integers(2, 11))
    edge = st.integers(0, comb(n, 2) - 1)
    plants = draw(st.lists(st.tuples(edge, edge), max_size=n))
    k = draw(st.integers(2, n))
    ell = draw(st.integers(1, comb(k, 2)))
    return _plant_repeats(n, plants), k, ell


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_near_rainbow_cases())
def test_repeat_budget_matches_oracle_near_rainbow_fuzzed(case):
    g, k, ell = case
    verdict = verify_local_property(g, LocalSpec(k, ell))
    assert (verdict.holds, verdict.witness, verdict.witness_colors) == brute_verdict(g, k, ell)


# The repeat-edge cores search, called directly so that the gate in front of
# it hides no case.  Its work grows like P^(t+1), with P the same-colored edge
# pairs, so each case draws t with P^(t+1) within CORE_WORK, as the gate
# keeps it within min(C(n,k), 2 C(n,2) + 1).
CORE_WORK = 10_000


def _bounded_spec(draw, g, k, t_lo=0):
    """A LocalSpec(k, ell) with t = C(k,2) - ell >= t_lo and P^(t+1) <= CORE_WORK."""
    pairs, t_hi = sum(comb(m, 2) for m in color_histogram(g).values()), comb(k, 2) - 1
    while t_hi > t_lo and pairs ** (t_hi + 1) > CORE_WORK:
        t_hi -= 1
    t = draw(st.integers(min(t_lo, t_hi), t_hi))
    return LocalSpec(k, comb(k, 2) - t)


def _assert_cores_match_brute(g, spec):
    v = _repeat_cores(g, spec, color_histogram(g))
    assert (v.holds, v.witness, v.witness_colors) == brute_verdict(g, spec.k, spec.ell)
    return v


@st.composite
def _cores_near_rainbow(draw):
    g, k, _ = draw(_near_rainbow_cases())
    return g, _bounded_spec(draw, g, k)


@st.composite
def _cores_within_budget(draw):
    # delta = C(n,2) - num_colors <= t: no k-set can fail
    n = draw(st.integers(4, 9))
    edge = st.integers(0, comb(n, 2) - 1)
    g = _plant_repeats(n, draw(st.lists(st.tuples(edge, edge), max_size=3)))
    k = draw(st.integers(4, n))
    return g, _bounded_spec(draw, g, k, t_lo=comb(n, 2) - g.num_colors)


@st.composite
def _cores_spanning_k(draw):
    # one color on edges that cover a chosen k-set S, and t one below their
    # surplus: only S itself fails, so the failing union has exactly k vertices
    n = draw(st.integers(3, 10))
    k = draw(st.integers(3, min(n, 9)))
    s = sorted(draw(st.permutations(range(n)))[:k])
    ends = [(s[i], s[i + 1]) for i in range(0, k - 1, 2)]
    if k % 2:
        ends.append((s[k - 2], s[k - 1]))
    first = edge_index(n, *ends[0])
    g = _plant_repeats(n, [(edge_index(n, *e), first) for e in ends[1:]])
    return g, LocalSpec(k, comb(k, 2) - (len(ends) - 2)), tuple(s)


@st.composite
def _cores_one_color(draw):
    # several surplus edges in one color, and a few other repeats
    n = draw(st.integers(4, 10))
    edge = st.integers(0, comb(n, 2) - 1)
    heavy = draw(st.lists(edge, min_size=3, max_size=6, unique=True))
    noise = draw(st.lists(st.tuples(edge, edge), max_size=2))
    g = _plant_repeats(n, [(e, heavy[0]) for e in heavy[1:]] + noise)
    return g, _bounded_spec(draw, g, draw(st.integers(3, n)))


@st.composite
def _cores_competing(draw):
    # two or three repeated pairs, any of which fails on its own at t = 0:
    # the witness is the least of their L(T)
    n = draw(st.integers(5, 10))
    edges = draw(st.lists(st.integers(0, comb(n, 2) - 1), min_size=4, max_size=6, unique=True))
    g = _plant_repeats(n, list(zip(edges[1::2], edges[::2])))
    k = draw(st.integers(3, n))
    return g, LocalSpec(k, comb(k, 2))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.one_of(_cores_near_rainbow(), _cores_one_color(), _cores_competing()))
def test_repeat_cores_match_oracle_fuzzed(case):
    _assert_cores_match_brute(*case)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_cores_within_budget())
def test_repeat_cores_hold_within_the_repeat_budget(case):
    assert _assert_cores_match_brute(*case).holds


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_cores_spanning_k())
def test_repeat_cores_find_a_union_of_exactly_k_vertices(case):
    g, spec, s = case
    v = _assert_cores_match_brute(g, spec)
    assert (v.holds, v.witness) == (False, s)


def _gate_path(monkeypatch, g, spec):
    """verify_local_property(g, spec) with color_histogram and _repeat_cores
    watched: (verdict, histogram built, cores searched)."""
    seen = []

    def watch(name, real):
        def call(*args):
            seen.append(name)
            return real(*args)

        monkeypatch.setattr(coloring, name, call)

    watch("color_histogram", coloring.color_histogram)
    watch("_repeat_cores", coloring._repeat_cores)
    v = verify_local_property(g, spec)
    monkeypatch.undo()
    return (v.holds, v.witness, v.witness_colors), "color_histogram" in seen, "_repeat_cores" in seen


def _pairs_graph(n, pairs):
    """Rainbow K_n but for `pairs` repeated colors, the i-th on edges 2i and 2i+1."""
    return _plant_repeats(n, [(2 * i + 1, 2 * i) for i in range(pairs)])


def test_gate_takes_each_stage_on_both_sides(monkeypatch):
    # (graph, spec, histogram built, cores searched); with limit =
    # min(C(n,k), 2 C(n,2) + 1), delta and P by stage
    cases = [
        # 1. delta <= t holds at once; delta = t + 1 goes on
        (_pairs_graph(6, 1), LocalSpec(4, 5), False, False),
        (_pairs_graph(6, 2), LocalSpec(4, 5), True, True),
        # 2. 4(t+1) <= k: the scan; 4(t+1) = k + 1 goes on
        (_pairs_graph(8, 2), LocalSpec(4, 6), False, False),
        (_pairs_graph(8, 2), LocalSpec(3, 3), True, True),
        # 3. delta^(t+1) >= limit: the scan, at delta = 4 >= C(4,3) = 4 < 13
        #    and at delta^2 = 64 >= 2 C(8,2) + 1 = 57 < C(8,4) = 70;
        #    delta = 3 and delta^2 = 49 go on
        (ColoredCompleteGraph(4, (0, 0, 0, 1, 1, 0)), LocalSpec(3, 3), False, False),
        (_pairs_graph(8, 8), LocalSpec(4, 5), False, False),
        (ColoredCompleteGraph(4, (0, 0, 1, 1, 2, 2)), LocalSpec(3, 3), True, True),
        (_pairs_graph(8, 7), LocalSpec(4, 5), True, True),
        # 4. P^(t+1) < limit: the cores, as at P = 3 and P^2 = 49 above;
        #    one color on five edges of K_5 (P = 10 >= C(5,3) = 10 at delta
        #    = 4), and on four edges of K_8 with two more pairs (P^2 = 64 at
        #    delta^2 = 25) build the histogram, then scan
        (_plant_repeats(5, [(e, 0) for e in range(1, 5)]), LocalSpec(3, 3), True, False),
        (_plant_repeats(8, [(1, 0), (2, 0), (3, 0), (5, 4), (7, 6)]), LocalSpec(4, 5), True, False),
    ]
    for g, spec, histogram, cores in cases:
        got, built, searched = _gate_path(monkeypatch, g, spec)
        assert (built, searched) == (histogram, cores), (g, spec)
        assert got == brute_verdict(g, spec.k, spec.ell), (g, spec)


def test_gate_builds_no_histogram_for_the_o1_scans(monkeypatch):
    # 4(t+1) <= k and delta^(t+1) >= min(C(n,k), 2 C(n,2) + 1) go to the
    # scan in O(1), so a per-call statistic there would cost every
    # monte-carlo trial
    rng = random.Random(5150)
    stages = set()
    for _ in range(120):
        n = rng.randint(3, 9)
        g = random_coloring(RandomColoringConfig(n, rng.randint(1, comb(n, 2)), rng.getrandbits(32)))
        k = rng.randint(2, n)
        ell = rng.randint(1, comb(k, 2))
        t, delta = comb(k, 2) - ell, comb(n, 2) - g.num_colors
        if delta <= t:
            continue
        o1 = 4 * (t + 1) <= k or delta ** (t + 1) >= min(comb(n, k), 2 * comb(n, 2) + 1)
        stages.add(o1)
        got, built, _ = _gate_path(monkeypatch, g, LocalSpec(k, ell))
        assert built == (not o1), (g, k, ell)
        assert got == brute_verdict(g, k, ell)
    assert stages == {True, False}


def test_gate_keeps_the_cores_within_the_input_size(monkeypatch):
    # the cores' work grows like P^(t+1), so the gate sends them no graph
    # with P^(t+1) above 2 C(n,2); both graphs fail on the scan's first
    # k-subsets.  200 random colors on K_200 have P near 10^6, which the
    # cores would first build as that many pair masks: the gate scans at
    # once, in the scan's O(k) memory.  One color on 100 edges has delta^2
    # = 99^2 < 2 C(200,2) but P^2 = 4950^2 above it: the histogram, then
    # the scan.
    g = random_coloring(RandomColoringConfig(200, 200, 7))
    tracemalloc.start()
    try:
        got, built, searched = _gate_path(monkeypatch, g, LocalSpec(7, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (built, searched) == (False, False)
    holds, witness, colors = got
    assert not holds and len(witness) == 7
    assert colors == len({g.edge_colors[edge_index(200, u, w)] for u, w in combinations(witness, 2)}) < 20
    assert peak < 1_000_000, peak
    star = _plant_repeats(200, [(e, 0) for e in range(1, 100)])
    assert _gate_path(monkeypatch, star, LocalSpec(5, 9)) == ((False, (0, 1, 2, 3, 4), 7), True, False)


def _spread_pairs(n, count, seed):
    """count repeated colors on random disjoint edge pairs of K_n, no two
    pairs on the same four vertices; the vertex sets of the pairs."""
    rng = random.Random(seed)
    colors, quads, used = list(range(comb(n, 2))), set(), set()
    while len(quads) < count:
        a, b, c, d = rng.sample(range(n), 4)
        e, f = edge_index(n, *sorted((a, b))), edge_index(n, *sorted((c, d)))
        quad = frozenset((a, b, c, d))
        if quad not in quads and not used & {e, f}:
            colors[e] = f
            quads.add(quad)
            used |= {e, f}
    return ColoredCompleteGraph.from_sparse(n, colors), quads


def test_repeat_cores_decide_the_large_holding_examples(monkeypatch):
    # each color repeats at most once, so a k-set's deficiency is the number
    # of pairs inside it; no two pairs fit in k vertices, so at t = 1 both
    # hold.  The scan took seconds on the first and 30 s on the second.
    for n, count, spec in ((60, 6, LocalSpec(5, 9)), (150, 100, LocalSpec(4, 5))):
        g, quads = _spread_pairs(n, count, n)
        assert comb(n, 2) - g.num_colors == count
        assert all(len(p | q) > spec.k for p, q in combinations(quads, 2))
        got, built, searched = _gate_path(monkeypatch, g, spec)
        assert (got, built, searched) == ((True, None, None), True, True)


def test_repeat_budget_matches_oracle_in_every_regime():
    # deficiency = C(n,2) - num_colors: within t = C(k,2) - ell (holds
    # with no scan) or above it (scan)
    rng = random.Random(90210)
    n = 8
    regimes = set()
    for planted in range(0, 2 * n, 2):
        pairs = [(rng.randrange(comb(n, 2)), rng.randrange(comb(n, 2))) for _ in range(planted)]
        g = _plant_repeats(n, pairs)
        deficiency = comb(n, 2) - g.num_colors
        for k in range(2, n + 1):
            for ell in range(1, comb(k, 2) + 1):
                t = comb(k, 2) - ell
                regimes.add(deficiency <= t)
                verdict = verify_local_property(g, LocalSpec(k, ell))
                got = (verdict.holds, verdict.witness, verdict.witness_colors)
                assert got == brute_verdict(g, k, ell), (pairs, k, ell)
    assert regimes == {True, False}


def test_repeat_count_is_the_verdict_when_4_t_plus_1_is_at_most_k():
    # t + 1 surplus edges and a same-colored partner each lie on at most
    # 4(t + 1) <= k vertices, so deficiency > t always has a failing k-subset
    verdicts = set()
    for seed in range(80):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        colors = rng.choice((rng.randint(1, comb(n, 2)), comb(n, 2) ** 2))
        g = ColoredCompleteGraph.from_sparse(n, per_edge_draw(n, colors, seed))
        deficiency = comb(n, 2) - g.num_colors
        for k in range(4, n + 1):
            for t in range(k // 4):
                holds = verify_local_property(g, LocalSpec(k, comb(k, 2) - t)).holds
                assert holds == (deficiency <= t), (seed, k, t)
                verdicts.add(holds)
    assert verdicts == {True, False}


def test_raw_verdict_matches_oracle_on_every_spec():
    # both sides of 4(t+1) <= k, and raw ids that are neither dense nor small
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        colors = rng.choice((1, 2, rng.randint(1, comb(n, 2) + 2), 2**40))
        raw = per_edge_draw(n, colors, seed)
        for k in range(2, n + 1):
            for ell in range(1, comb(k, 2) + 1):
                want = brute_verdict(raw_graph(n, raw), k, ell)[0]
                assert _raw_holds(n, raw, LocalSpec(k, ell)) == want, (seed, k, ell)


def test_large_holding_scans_finish_in_a_child_process():
    # both hold with no repeated color: C(200,6) and C(150,4) subsets to
    # scan, unless the repeat budget settles them
    code = (
        "from localprops import LocalSpec, rainbow, verify_local_property, verify_diff_local_property\n"
        "print(verify_local_property(rainbow(200), LocalSpec(6, 15)).holds)\n"
        "sidon = [2 * 151 * i + (i * i) % 151 for i in range(150)]\n"
        "print(verify_diff_local_property(sidon, LocalSpec(4, 6)).holds)\n"
    )
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("holding scans ran past 30 s")
    assert proc.stdout.split() == ["True", "True"], proc.stderr


def test_from_sparse_skips_the_density_check(monkeypatch):
    def dense_check(self):
        raise AssertionError("from_sparse ran the direct constructor's checks")

    g = ColoredCompleteGraph.from_sparse(4, (9, 5, 5, 7, 9, 2))
    monkeypatch.setattr(ColoredCompleteGraph, "__post_init__", dense_check)
    h = ColoredCompleteGraph.from_sparse(4, (9, 5, 5, 7, 9, 2))
    monkeypatch.undo()
    assert g == h == ColoredCompleteGraph(4, (3, 1, 1, 2, 3, 0))
    assert (h.n, h.edge_colors, h.num_colors) == (4, (3, 1, 1, 2, 3, 0), 4)


def test_from_sparse_keeps_the_shape_checks():
    bad = ((3.0, (0, 1, 2)), (True, ()), ("3", (0, 1, 2)), (0, ()), (-2, ()), (3, (0, 1)), (3, (0, 1, 2, 2)))
    for n, colors in bad:
        with pytest.raises(ValueError) as direct:
            ColoredCompleteGraph(n, colors)
        with pytest.raises(ValueError) as sparse:
            ColoredCompleteGraph.from_sparse(n, colors)
        assert str(sparse.value) == str(direct.value)


def test_from_sparse_turns_dense_ids_of_another_type_into_ints():
    # 0.0 and 1.0 (or False and True) already span 0..q-1 by value, yet must be ranked
    for colors in ([1.0, 0.0, 1.0], [True, False, True]):
        g = ColoredCompleteGraph.from_sparse(3, colors)
        assert g.edge_colors == (1, 0, 1) and all(type(c) is int for c in g.edge_colors)


def _assert_counted_once(g):
    """g.multiplicities are g's color counts, and the field travels with the
    graph without entering its repr, equality or hash."""
    counts = Counter(g.edge_colors)
    assert g.multiplicities == tuple(counts[c] for c in range(g.num_colors))
    assert sum(g.multiplicities) == comb(g.n, 2)
    twin = ColoredCompleteGraph(g.n, g.edge_colors)  # the checked public path
    assert (twin, hash(twin), repr(twin), twin.multiplicities) == (g, hash(g), repr(g), g.multiplicities)
    for copy in (pickle.loads(pickle.dumps(g)), dataclasses.replace(g)):
        assert copy == g and copy.multiplicities == g.multiplicities


@st.composite
def _sparse_colorings(draw):
    n = draw(st.integers(1, 7))
    return n, draw(st.lists(st.integers(-3, 40), min_size=comb(n, 2), max_size=comb(n, 2)))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    _sparse_colorings(),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(-30, 30), min_size=2, max_size=9, unique=True),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=2, max_size=8, unique=True),
    st.sampled_from([(3, 2, 1), (4, 3, 2), (5, 3, 3), (6, 4, 5)]),
)
def test_one_count_whatever_the_construction_path(sparse_case, colors, seed, values, points, solve_case):
    n, raw = sparse_case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "coloring.json"
        path.write_text(json.dumps({"n": n, "colors": raw}))
        loaded = load_coloring(path)
    sparse = ColoredCompleteGraph.from_sparse(n, raw)
    for g in (ColoredCompleteGraph._dense(n, raw), loaded):
        assert (g, hash(g), repr(g)) == (sparse, hash(sparse), repr(sparse))
    solve_n, k, ell = solve_case
    graphs = (
        sparse,
        ColoredCompleteGraph._dense(n, raw),
        loaded,
        random_coloring(RandomColoringConfig(n, colors, seed)),
        difference_color_graph(values),
        distance_color_graph(points),
        min_colors(solve_n, LocalSpec(k, ell)).certificate,
        permute_vertices(sparse, reversed(range(n))),
    )
    for g in graphs:
        _assert_counted_once(g)


def test_from_sparse_refuses_ids_that_do_not_order_or_differ_in_type():
    # ids of two types are refused before they are sorted or merged: 1 and
    # "a" do not order, and 1, 1.0 and True would merge into one color; lists
    # share one type but do not hash
    for colors in ([1, "a", 2], [1, 1.0, True], [2, 1, 1.5], [(1,), ("a",), (2,)], [1j, 2j, 1j], [[1], [2], [1]]):
        with pytest.raises(ValueError, match="^color ids must"):
            ColoredCompleteGraph.from_sparse(3, colors)
    assert ColoredCompleteGraph.from_sparse(3, [1.5, 0.5, 1.5]).edge_colors == (1, 0, 1)


def test_local_spec_takes_only_ints():
    for k, ell in ((3.0, 2), (3, True), (True, 1), ("3", 2), (3, 2.0)):
        with pytest.raises(ValueError, match="integers"):
            LocalSpec(k, ell)


def test_local_spec_holds_its_repeat_budget():
    for k in range(2, 9):
        for ell in range(1, comb(k, 2) + 1):
            spec = LocalSpec(k, ell)
            assert spec.repeat_budget == comb(k, 2) - ell
            # derived, so it takes no part in construction, equality or repr
            assert spec == LocalSpec(k, ell) and repr(spec) == f"LocalSpec(k={k}, ell={ell})"


def test_colored_complete_graph_takes_only_int_n():
    for n, colors in ((3.0, (0, 1, 2)), (True, ()), ("3", (0, 1, 2))):
        with pytest.raises(ValueError, match="integers"):
            ColoredCompleteGraph(n, colors)


def test_pruned_scan_exhaustive_on_k4_colorings():
    # every coloring of K_4 up to relabeling, every spec: the pruned scan
    # and the full scan agree on verdict and witness
    from oracles import restricted_growth_strings

    for labels in restricted_growth_strings(6):
        g = ColoredCompleteGraph(4, labels)
        for k in (2, 3, 4):
            for ell in range(1, comb(k, 2) + 1):
                verdict = verify_local_property(g, LocalSpec(k, ell))
                holds, witness, count = brute_verdict(g, k, ell)
                assert (verdict.holds, verdict.witness, verdict.witness_colors) == (
                    holds,
                    witness,
                    count,
                )


def test_histogram_examples():
    assert color_histogram(monochromatic(4)) == {0: 6}
    assert color_histogram(rainbow(4)) == {c: 1 for c in range(6)}
    assert color_histogram(ColoredCompleteGraph(3, (0, 0, 1))) == {0: 2, 1: 1}


def test_histogram_sums_to_edge_count():
    for g in random_graph_corpus(7, 40):
        assert sum(color_histogram(g).values()) == edge_count(g.n)


def test_color_energy_examples():
    assert color_energy(monochromatic(4)) == 36
    for n in range(2, 8):
        assert color_energy(rainbow(n)) == edge_count(n)
    assert color_energy(ColoredCompleteGraph(3, (0, 0, 1))) == 5


def test_color_energy_matches_quadruple_oracle():
    for g in random_graph_corpus(11, 60, n_hi=8):
        assert color_energy(g) == brute_energy_quadruples(g)


def test_cauchy_schwarz_floor_examples():
    r4 = rainbow(4)
    assert cauchy_schwarz_floor(r4) == 6 == color_energy(r4)
    m4 = monochromatic(4)
    assert cauchy_schwarz_floor(m4) == 36 == color_energy(m4)
    g = ColoredCompleteGraph(3, (0, 0, 1))
    assert cauchy_schwarz_floor(g) == 5 == color_energy(g)
    with pytest.raises(ValueError):
        cauchy_schwarz_floor(ColoredCompleteGraph(1, ()))


def test_cauchy_schwarz_inequality_fuzz():
    for g in random_graph_corpus(13, 150):
        e = edge_count(g.n)
        assert color_energy(g) * g.num_colors >= e * e
        assert color_energy(g) >= cauchy_schwarz_floor(g)


def test_statistics_invariant_under_relabeling():
    rng = random.Random(99)
    for g in random_graph_corpus(17, 30, n_hi=8):
        perm = list(range(g.num_colors))
        rng.shuffle(perm)
        h = ColoredCompleteGraph(g.n, tuple(perm[c] for c in g.edge_colors))
        assert h.num_colors == g.num_colors
        assert sorted(color_histogram(h).values()) == sorted(color_histogram(g).values())
        assert color_energy(h) == color_energy(g)
        k = rng.randint(2, g.n)
        ell = rng.randint(1, comb(k, 2))
        spec = LocalSpec(k, ell)
        assert verify_local_property(h, spec).holds == verify_local_property(g, spec).holds


def test_verdict_invariant_under_vertex_permutation():
    rng = random.Random(4242)
    for g in random_graph_corpus(19, 30, n_hi=7):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = permute_vertices(g, perm)
        k = rng.randint(2, g.n)
        ell = rng.randint(1, comb(k, 2))
        spec = LocalSpec(k, ell)
        assert verify_local_property(h, spec).holds == verify_local_property(g, spec).holds


def test_vertex_permutation_is_exhaustive_on_small_graph():
    g = ColoredCompleteGraph(4, (0, 0, 1, 1, 2, 2))
    spec = LocalSpec(3, 2)
    base = verify_local_property(g, spec).holds
    for perm in permutations(range(4)):
        assert verify_local_property(permute_vertices(g, perm), spec).holds == base
    for perm in ((0, 1, 2), (0, 1, 2, 2), (1, 2, 3, 4), (0, 0, 1, 2)):
        with pytest.raises(ValueError, match="^perm must be a bijection on 0..n-1$"):
            permute_vertices(g, perm)


def test_high_multiplicity_color_forces_failure():
    # a color used floor(k/2) times cannot survive ell = C(k,2)-floor(k/2)+2
    rng = random.Random(31337)
    for _ in range(40):
        k = rng.randint(4, 8)
        n = rng.randint(k, 10)
        reps = k // 2
        g = random_coloring(RandomColoringConfig(n, edge_count(n), rng.getrandbits(40)))
        colors = list(g.edge_colors)
        planted = rng.sample(range(edge_count(n)), reps)
        for e in planted:
            colors[e] = colors[planted[0]]
        g = ColoredCompleteGraph.from_sparse(n, colors)
        assert max(color_histogram(g).values()) >= reps
        ell = comb(k, 2) - reps + 2
        assert not verify_local_property(g, LocalSpec(k, ell)).holds


def test_local_spec_validation():
    with pytest.raises(ValueError):
        LocalSpec(1, 1)
    with pytest.raises(ValueError):
        LocalSpec(3, 0)
    with pytest.raises(ValueError):
        LocalSpec(3, 4)
    assert LocalSpec(3, 3).ell == 3


def _verdict(v):
    return v.holds, v.witness, v.witness_colors


def _every_spec(n):
    return [(k, ell) for k in range(2, n + 1) for ell in range(1, comb(k, 2) + 1)]


def _assert_matches_brute(g, specs):
    for k, ell in specs:
        got = _verdict(verify_local_property(g, LocalSpec(k, ell)))
        assert got == brute_verdict(g, k, ell), (g, k, ell)


def test_bitmask_core_matches_brute_on_every_spec():
    rng = random.Random(8128)
    for _ in range(36):
        n = rng.randint(2, 9)
        c = rng.randint(1, edge_count(n))
        g = random_coloring(RandomColoringConfig(n, c, rng.getrandbits(40)))
        _assert_matches_brute(g, _every_spec(n))


def test_bitmask_core_monochromatic_and_rainbow():
    for n in range(2, 9):
        _assert_matches_brute(monochromatic(n), _every_spec(n))
        _assert_matches_brute(rainbow(n), _every_spec(n))
        for k in range(2, n + 1):
            assert verify_local_property(rainbow(n), LocalSpec(k, comb(k, 2))).holds
            v = verify_local_property(monochromatic(n), LocalSpec(k, min(2, comb(k, 2))))
            assert v.holds == (k == 2)


def test_bitmask_core_first_subset_fails():
    # rainbow except one shared color inside {0..k-1}: the lazy first path
    # must report the very first k-subset
    for n in (6, 9, 12):
        for k in range(3, min(n, 6) + 1):
            colors = list(range(edge_count(n)))
            for a, b in combinations(range(k), 2):
                colors[edge_index(n, a, b)] = -1
            g = ColoredCompleteGraph.from_sparse(n, colors)
            v = verify_local_property(g, LocalSpec(k, 2))
            assert _verdict(v) == (False, tuple(range(k)), 1)
            assert _verdict(v) == brute_verdict(g, k, 2)


def test_bitmask_core_only_last_subset_fails():
    # rainbow with edge (n-2, n-1) repeating a color that only the last
    # k-subset can also contain: every other subset is scanned and passes
    for n in range(4, 11):
        for k, twin in ((3, (n - 3, n - 2)), (4, (n - 4, n - 3))):
            if k > n:
                continue
            colors = list(range(edge_count(n)))
            colors[edge_index(n, n - 2, n - 1)] = colors[edge_index(n, *twin)]
            g = ColoredCompleteGraph.from_sparse(n, colors)
            spec = LocalSpec(k, comb(k, 2))
            v = verify_local_property(g, spec)
            assert _verdict(v) == (False, tuple(range(n - k, n)), comb(k, 2) - 1)
            assert _verdict(v) == brute_verdict(g, k, comb(k, 2))


def test_bitmask_core_k_two_and_k_n():
    rng = random.Random(271)
    for n in range(2, 9):
        g = random_coloring(RandomColoringConfig(n, rng.randint(1, edge_count(n)), rng.getrandbits(40)))
        _assert_matches_brute(g, [(2, 1)] + [(n, ell) for ell in range(1, comb(n, 2) + 1)])


def test_bitmask_core_beyond_one_machine_word():
    # more than 64 colors: mask rows are multi-word ints
    rng = random.Random(65)
    for n in (13, 15):
        colors = list(range(edge_count(n)))
        colors[edge_index(n, n - 2, n - 1)] = colors[edge_index(n, 0, 1)]
        g = ColoredCompleteGraph.from_sparse(n, colors)
        assert g.num_colors > 64
        _assert_matches_brute(g, [(3, 3), (4, 6), (4, 5), (5, 10)])
        g = random_coloring(RandomColoringConfig(n + 1, 200, rng.getrandbits(40)))
        assert g.num_colors > 64
        _assert_matches_brute(g, [(3, 3), (4, 6), (5, 10), (5, 9)])
