import gc
import pickle
import random
import tracemalloc
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localprops import (
    BudgetExceededError,
    ColoredCompleteGraph,
    DetectorParams,
    LocalSpec,
    SetSystem,
    counting_lemma_find,
    edge_count,
    edge_index,
    lemma_hypothesis_holds,
    max_mono_degree,
    mono_degree_violations,
    permute_vertices,
    popular_intersection_search,
    rainbow,
    monochromatic,
    verify_local_property,
)
from localprops import forbidden
from localprops.coloring import HELD_ENTRIES
from oracles import (
    brute_lemma_find,
    brute_popular,
    color_supports,
    random_graph_corpus,
    round_robin_proper_coloring,
)


def test_detector_params():
    p = DetectorParams(6, 2)
    assert (p.a, p.b) == (2, 2)
    assert p.mono_degree_cap == 2
    assert p.induced_spec() == LocalSpec(6, comb(6, 2) - 4 + 2 + 1)
    assert DetectorParams(16, 3).a == 4
    # when (m+1) | k the derived pair recovers k = a(b+1)
    for m in (2, 3, 4):
        for a in (1, 2, 3):
            p = DetectorParams(a * (m + 1), m)
            assert p.a * (p.b + 1) == p.k
    with pytest.raises(ValueError):
        DetectorParams(3, 3)
    with pytest.raises(ValueError):
        DetectorParams(5, 1)
    # a, b and mono_degree_cap are set once, at construction: repr, equality
    # and hash see only (k, m), replace derives them anew, pickle keeps them
    assert repr(DetectorParams(6, 2)) == "DetectorParams(k=6, m=2)"
    assert DetectorParams(6, 2) == DetectorParams(6, 2) != DetectorParams(7, 2)
    assert hash(DetectorParams(6, 2)) == hash((6, 2))
    p = replace(DetectorParams(6, 2), k=9)
    assert (p.k, p.m, p.a, p.b, p.mono_degree_cap) == (9, 2, 3, 2, 4)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and (q.a, q.b, q.mono_degree_cap) == (3, 2, 4)


def test_induced_spec_repeat_budget_is_the_mono_degree_cap_less_one():
    for k in range(3, 40):
        for m in range(2, k):
            p = DetectorParams(k, m)
            if p.a >= 2:
                assert p.induced_spec().repeat_budget == p.mono_degree_cap - 1
            else:  # a = 1: ell would exceed C(b+1, 2)
                with pytest.raises(ValueError):
                    p.induced_spec()


def test_detector_params_take_only_ints():
    # floats would reach bound_report's exact thresholds as a = 2.0
    for k, m in ((6.0, 2), (7, 2.0), (True, 2), (6, "2")):
        with pytest.raises(ValueError):
            DetectorParams(k, m)


def _with_planted_star(n, v, spokes, seed):
    """Rainbow K_n, then `spokes` edges at v recolored to one fresh color."""
    g = rainbow(n)
    colors = list(g.edge_colors)
    targets = [u for u in range(n) if u != v][:spokes]
    for u in targets:
        a, b = min(u, v), max(u, v)
        colors[edge_index(n, a, b)] = edge_count(n) + 1
    return ColoredCompleteGraph.from_sparse(n, colors)


def test_max_mono_degree_examples():
    top, at_max = max_mono_degree(monochromatic(4))
    assert top == 3
    assert {v for v, _, _ in at_max} == {0, 1, 2, 3}
    for n in (3, 5, 8):
        assert max_mono_degree(rainbow(n))[0] == 1
    g = _with_planted_star(4, 0, 3, 1)
    top, at_max = max_mono_degree(g)
    assert top == 3 and at_max == [(0, g.color(0, 1), 3)]


def test_mono_degree_violations_examples():
    p = DetectorParams(6, 2)  # a=2, b=2, threshold 3
    g = _with_planted_star(6, 2, 3, 1)
    assert mono_degree_violations(g, p) == [(2, g.color(2, 0))]
    assert mono_degree_violations(rainbow(8), p) == []
    assert mono_degree_violations(round_robin_proper_coloring(6), p) == []


def test_mono_violation_implies_property_failure():
    rng = random.Random(555)
    for a, b in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        k = a * (b + 1)
        p = DetectorParams(k, b)
        assert (p.a, p.b) == (a, b)
        for _ in range(5):
            n = rng.randint(k, k + 2)
            v = rng.randrange(n)
            g = _with_planted_star(n, v, b * a - b + 1, rng.getrandbits(30))
            assert mono_degree_violations(g, p)
            spec = LocalSpec(k, comb(k, 2) - b * a + b + 1)
            assert not verify_local_property(g, spec).holds


def test_color_supports_examples():
    g = ColoredCompleteGraph(3, (0, 0, 1))  # (0,1)=A (0,2)=A (1,2)=B
    sup = color_supports(g)
    assert sup[0].vertices == frozenset({0, 1, 2})
    assert sup[1].vertices == frozenset({1, 2})
    assert [s.vertices for s in color_supports(rainbow(3))] == [
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    ]
    mono5 = color_supports(monochromatic(5))
    assert len(mono5) == 1 and mono5[0].vertices == frozenset(range(5))
    for g in random_graph_corpus(23, 20, n_hi=8):
        for s in color_supports(g):
            assert len(s.vertices) >= 2


def test_endpoint_tables_are_held_only_within_their_budget():
    # the monte-carlo sizes stay held from call to call; a large graph's
    # three C(n,2)-long tables are dropped once the call returns
    held = forbidden._ENDPOINTS
    held.clear()
    for n in range(8, 15):
        assert forbidden._endpoints(n) is forbidden._endpoints(n)
    assert list(held) == list(range(8, 15))
    big = rainbow(1000)
    tracemalloc.start()
    try:
        masks = forbidden._support_masks(big)
        del masks
        assert tracemalloc.get_traced_memory()[0] < 1_000_000
    finally:
        tracemalloc.stop()
    assert 1000 not in held
    for n in range(2, 200, 7):
        forbidden._endpoints(n)
        assert sum(map(forbidden._endpoint_entries, held)) <= HELD_ENTRIES
        assert (n in held) == (forbidden._endpoint_entries(n) <= HELD_ENTRIES)


def _flower(a=4, b=3):
    """a hub vertices each incident to one edge of each of b shared colors,
    petal endpoints all distinct, every other edge a fresh color."""
    n = a + a * b
    fresh = b
    colors = {}
    for v in range(a):
        for t in range(b):
            u = a + v * b + t
            colors[(v, u)] = t
    out = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            if (i, j) in colors:
                out.append(colors[(i, j)])
            else:
                out.append(fresh)
                fresh += 1
    return ColoredCompleteGraph.from_sparse(n, out)


def test_popular_intersection_search_flower():
    g = _flower(4, 3)
    p = DetectorParams(16, 3)  # a=4, b=3
    hit = popular_intersection_search(g, 0, p)
    assert hit is not None
    assert hit.colors == (0, 1, 2)
    assert frozenset(range(4)) <= hit.vertices


def test_popular_intersection_search_none_cases():
    p = DetectorParams(6, 2)  # a=2, b=2
    assert popular_intersection_search(rainbow(6), 0, p) is None
    assert popular_intersection_search(monochromatic(4), 0, p) is None  # one color only


def test_popular_intersection_budget():
    g = rainbow(8)  # 28 colors -> C(28,2) = 378 pairs
    p = DetectorParams(6, 2)
    with pytest.raises(BudgetExceededError):
        popular_intersection_search(g, 0, p, tuple_budget=100)
    assert popular_intersection_search(g, 0, p, tuple_budget=None) is None


def test_popular_intersection_search_takes_only_ints():
    g, p = rainbow(6), DetectorParams(6, 2)
    for j, budget in ((1.0, None), (True, None), ("1", 10), (0, 2.5), (0, True)):
        with pytest.raises(ValueError, match="integers"):
            popular_intersection_search(g, j, p, budget)
    assert popular_intersection_search(g, 0, p, None) is None
    for j in (-1, -5):
        with pytest.raises(ValueError, match="^j must be nonnegative$"):
            popular_intersection_search(g, j, p, None)
    # a negative budget is an int: no tuple fits in it
    with pytest.raises(BudgetExceededError):
        popular_intersection_search(g, 0, p, -1)


def test_popular_intersection_search_builds_no_power_of_two():
    # multiplicities are compared with 2^j as m >> j: 1 << 10**12 would need 125 GB
    p = DetectorParams(6, 2)
    tracemalloc.start()
    try:
        assert popular_intersection_search(rainbow(6), 10**12, p) is None
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()


def test_popular_search_matches_unpruned_scan():
    rng = random.Random(808)
    checked = 0
    for g in random_graph_corpus(29, 60, n_hi=7):
        if g.num_colors > 12:
            continue
        checked += 1
        p = DetectorParams(6, 2)
        for j in (0, 1, 2):
            fast = popular_intersection_search(g, j, p)
            slow = brute_popular(g, j, p.a, p.b)
            if slow is None:
                assert fast is None
            else:
                assert fast is not None
                assert fast.colors == slow[0]
                assert fast.vertices == slow[1]
    assert checked >= 20


def test_detectors_invariant_under_relabelings():
    rng = random.Random(17)
    p = DetectorParams(6, 2)
    for g in random_graph_corpus(31, 25, n_hi=7):
        cperm = list(range(g.num_colors))
        rng.shuffle(cperm)
        vperm = list(range(g.n))
        rng.shuffle(vperm)
        h = permute_vertices(ColoredCompleteGraph(g.n, tuple(cperm[c] for c in g.edge_colors)), vperm)
        assert max_mono_degree(h)[0] == max_mono_degree(g)[0]
        assert len(mono_degree_violations(h, p)) == len(mono_degree_violations(g, p))
        for j in (0, 1):
            assert (popular_intersection_search(h, j, p) is None) == (
                popular_intersection_search(g, j, p) is None
            )


def test_set_system_validation():
    with pytest.raises(ValueError):
        SetSystem(4, (frozenset(),), 2)
    with pytest.raises(ValueError, match="^need at least one set$"):
        SetSystem(4, (), 2)
    with pytest.raises(ValueError):
        SetSystem(4, (frozenset({0, 4}),), 2)
    with pytest.raises(ValueError):
        SetSystem(4, (frozenset({0}),), 1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="^universe must be nonempty$"):
            SetSystem(n, (frozenset({0}),), 2)
    inst = SetSystem(4, (frozenset({0, 1}), frozenset({1})), 2)
    assert inst.min_size == 1
    # min_size is set once, at construction, as DetectorParams' derived values are
    assert repr(inst) == "SetSystem(n=4, sets=(frozenset({0, 1}), frozenset({1})), d=2)"
    assert inst == SetSystem(4, ([0, 1], [1]), 2) != SetSystem(4, ([0, 1], [1]), 3)
    assert hash(inst) == hash((4, inst.sets, 2))
    wider = replace(inst, sets=(frozenset({0, 1}), frozenset({1, 2, 3})))
    assert wider.min_size == 2
    back = pickle.loads(pickle.dumps(wider))
    assert back == wider and back.min_size == 2


def test_set_system_takes_only_int_n_and_d():
    for n, d in ((3.0, 2), (True, 2), (4, 2.0), (4, True)):
        with pytest.raises(ValueError, match="integers"):
            SetSystem(n, (frozenset({0}),), d)
    # elements too, each checked before any set is built: True equals 1, and
    # a list inside a set is unhashable
    for sets in (({True, 2},), ({1.5},), ({"a"},), ([0, [1]],), ([0], (1, 2.0))):
        with pytest.raises(ValueError, match="^set elements must be integers, got "):
            SetSystem(5, sets, 2)
    # sets is read once, so a generator of sets works
    assert SetSystem(5, (s for s in ([0, 1], [2])), 2).sets == (frozenset({0, 1}), frozenset({2}))


def test_counting_lemma_examples():
    inst = SetSystem(4, tuple([frozenset({1, 2})] * 16), 2)
    assert lemma_hypothesis_holds(inst)
    assert counting_lemma_find(inst) == ((0, 1), 2)

    # sixteen arbitrary 2-subsets of a 4-universe: always some pair meets 1
    rng = random.Random(2)
    for _ in range(50):
        sets = tuple(frozenset(rng.sample(range(4), 2)) for _ in range(16))
        inst = SetSystem(4, sets, 2)
        assert lemma_hypothesis_holds(inst)
        hit = counting_lemma_find(inst)
        assert hit is not None and hit[1] >= 1

    disjoint = SetSystem(10, (frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})), 2)
    assert not lemma_hypothesis_holds(disjoint)
    assert counting_lemma_find(disjoint) is None


def test_counting_lemma_matches_unpruned_scan():
    rng = random.Random(606)
    for _ in range(120):
        n = rng.randint(2, 9)
        d = rng.choice((2, 3))
        k = rng.randint(d, 10)
        sets = tuple(
            frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(k)
        )
        inst = SetSystem(n, sets, d)
        assert counting_lemma_find(inst) == brute_lemma_find(inst)


@st.composite
def _set_systems(draw):
    n = draw(st.integers(1, 10))
    d = draw(st.integers(2, 5))
    sets = draw(
        st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=12)
    )
    return SetSystem(n, tuple(sets), d)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_set_systems())
def test_counting_lemma_matches_unpruned_scan_fuzzed(inst):
    assert counting_lemma_find(inst) == brute_lemma_find(inst)


def test_counting_lemma_on_a_huge_universe():
    # masks get one bit per element in use, so a universe of 10^30 costs nothing
    huge = 10**30
    rng = random.Random(73)
    for _ in range(40):
        used = rng.sample([0, 1, 7, huge // 3, huge - 1], rng.randint(2, 5))
        sets = tuple(frozenset(rng.sample(used, rng.randint(1, len(used)))) for _ in range(rng.randint(2, 6)))
        inst = SetSystem(huge, sets, 2)
        assert counting_lemma_find(inst) == brute_lemma_find(inst)
        assert not lemma_hypothesis_holds(inst)
    # k < 2d decides the hypothesis before any power of n or m is taken
    assert not lemma_hypothesis_holds(SetSystem(3, (frozenset({0}), frozenset({1, 2})), huge))


def test_counting_lemma_has_no_depth_limit():
    inst = SetSystem(1, (frozenset({0}),) * 1100, 1100)
    assert counting_lemma_find(inst) == (tuple(range(1100)), 1)


def test_counting_lemma_frees_its_search_state():
    # the recursive scan must not leave a reference cycle behind
    gc.collect()
    gc.disable()
    try:
        for sets in ((frozenset({1, 2}),) * 16, (frozenset({1, 2}), frozenset({3, 4}))):
            counting_lemma_find(SetSystem(5, sets, 2))
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_counting_lemma_never_fails_under_hypothesis():
    rng = random.Random(404)
    for _ in range(1500):
        n = rng.randint(2, 12)
        d = rng.choice((2, 3))
        m_target = rng.randint(max(1, -(-n // 2)), n)
        k_min = -(-(2 * d * n**d) // m_target**d)
        k = k_min + rng.randint(0, 4)
        sets = tuple(
            frozenset(rng.sample(range(n), rng.randint(m_target, n)))
            for _ in range(k)
        )
        inst = SetSystem(n, sets, d)
        assert lemma_hypothesis_holds(inst)
        hit = counting_lemma_find(inst)
        assert hit is not None
        # the returned tuple really meets the exact threshold
        m = inst.min_size
        assert 2 * hit[1] * n ** (d - 1) >= m**d
