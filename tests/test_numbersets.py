import gc
import random
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import localprops.numbersets as numbersets_module
from localprops import (
    DiffSetSearchResult,
    LocalSpec,
    additive_energy,
    behrend_set,
    collinear_point_set,
    color_histogram,
    difference_color_graph,
    difference_set,
    distance_color_graph,
    integer_set,
    min_difference_set,
    point_set,
    verify_diff_local_property,
    verify_distance_local_property,
)
from oracles import (
    brute_additive_energy,
    brute_diff_verdict,
    brute_distance_verdict,
    brute_g_min,
    brute_min_difference_set,
)


def test_difference_set_examples():
    assert difference_set([1, 2, 4]) == (1, 2, 3)
    for n in (3, 6, 9):
        assert difference_set(range(1, n + 1)) == tuple(range(1, n))
    assert difference_set([1, 2, 4, 7]) == (1, 2, 3, 5, 6)
    with pytest.raises(ValueError):
        difference_set([5])


def test_additive_energy_examples():
    assert additive_energy([1, 2, 3]) == 19 == brute_additive_energy([1, 2, 3])
    assert additive_energy([]) == 0 == brute_additive_energy([])
    assert additive_energy([42]) == 1 == brute_additive_energy([42])
    sidon = [1, 2, 5, 11]
    assert additive_energy(sidon) == 2 * 16 - 4 == brute_additive_energy(sidon)


def test_additive_energy_matches_brute():
    rng = random.Random(1212)
    for _ in range(60):
        vals = rng.sample(range(-20, 40), rng.randint(1, 7))
        assert additive_energy(vals) == brute_additive_energy(vals)


def test_additive_energy_bounds():
    rng = random.Random(555)
    for _ in range(120):
        vals = rng.sample(range(1, 90), rng.randint(1, 12))
        n = len(set(vals))
        e = additive_energy(vals)
        assert n * n <= e <= n**3
        # Cauchy-Schwarz link to the sum set, cross-multiplied
        assert e * len({x + y for x in vals for y in vals}) >= n**4


def test_verify_diff_local_property_examples():
    v = verify_diff_local_property([1, 2, 3, 4], LocalSpec(4, 5))
    assert not v.holds and v.witness == (1, 2, 3, 4) and v.witness_colors == 3
    assert verify_diff_local_property([1, 2, 4, 7], LocalSpec(4, 5)).holds
    assert verify_diff_local_property([1, 2, 5, 11], LocalSpec(4, 6)).holds
    with pytest.raises(ValueError):
        verify_diff_local_property([1, 2], LocalSpec(3, 2))


def test_difference_color_graph_examples():
    assert difference_color_graph([1, 2, 3]).num_colors == 2
    sidon = difference_color_graph([1, 2, 5, 11])
    assert sidon.num_colors == 6  # rainbow K_4
    for n in (4, 7):
        ap = difference_color_graph(range(1, n + 1))
        assert ap.num_colors == n - 1
        hist = {}
        for c in ap.edge_colors:
            hist[c] = hist.get(c, 0) + 1
        # color ids ascend with the difference value d = id + 1
        assert all(hist[d - 1] == n - d for d in range(1, n))
    for values in ([], [4], [4, 4]):
        with pytest.raises(ValueError, match="^need at least two elements$"):
            difference_color_graph(values)


def test_distance_color_graph_examples():
    assert distance_color_graph([(0, 0), (1, 0), (0, 1)]).num_colors == 2
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert distance_color_graph(square).num_colors == 2
    assert distance_color_graph([(0, 0), (1, 0), (3, 0), (7, 0)]).num_colors == 6
    with pytest.raises(ValueError):
        distance_color_graph([(0, 0), (0, 0)])
    for points in ([], [(3, 4)]):
        with pytest.raises(ValueError, match="^need at least two points$"):
            distance_color_graph(points)


def test_reduction_soundness_differences():
    rng = random.Random(31415)
    for _ in range(150):
        vals = tuple(sorted(rng.sample(range(1, 60), rng.randint(2, 10))))
        k = rng.randint(2, len(vals))
        ell = rng.randint(1, comb(k, 2))
        spec = LocalSpec(k, ell)
        direct = verify_diff_local_property(vals, spec)
        holds, witness, count = brute_diff_verdict(vals, k, ell)
        assert direct.holds == holds
        if not direct.holds:
            assert direct.witness_colors == count
            assert direct.witness == witness


def test_reduction_soundness_distances():
    rng = random.Random(27182)
    for _ in range(120):
        pts = set()
        while len(pts) < rng.randint(2, 10):
            pts.add((rng.randint(0, 8), rng.randint(0, 8)))
        pts = tuple(pts)
        k = rng.randint(2, len(pts))
        ell = rng.randint(1, comb(k, 2))
        spec = LocalSpec(k, ell)
        direct = verify_distance_local_property(pts, spec)
        holds, witness, count = brute_distance_verdict(pts, k, ell)
        assert direct.holds == holds
        if not direct.holds:
            assert direct.witness_colors == count
            assert direct.witness == witness


def test_verifiers_and_energy_reduce_through_the_public_reductions(monkeypatch):
    # the benchmark traces the reductions by rebinding the module's names,
    # so each verifier call and additive_energy must build its graph there
    calls = []

    def counted(name):
        reduce = getattr(numbersets_module, name)

        def wrapper(items):
            calls.append(name)
            return reduce(items)

        monkeypatch.setattr(numbersets_module, name, wrapper)

    counted("difference_color_graph")
    counted("distance_color_graph")
    spec = LocalSpec(3, 3)
    assert verify_diff_local_property([7, 1, 2, 5], spec).holds
    assert calls == ["difference_color_graph"]
    assert not verify_diff_local_property([1, 2, 3], spec).holds
    assert additive_energy([1, 2, 4]) == brute_additive_energy((1, 2, 4))
    assert calls == ["difference_color_graph"] * 3
    calls.clear()
    assert verify_distance_local_property([(0, 0), (1, 0), (3, 0)], spec).holds
    assert not verify_distance_local_property([(0, 0), (1, 0), (2, 0)], spec).holds
    assert calls == ["distance_color_graph"] * 2


def test_collinear_points_reduce_like_differences():
    rng = random.Random(161)
    for _ in range(40):
        vals = sorted(rng.sample(range(1, 50), rng.randint(2, 9)))
        assert difference_color_graph(vals) == distance_color_graph(
            collinear_point_set(vals)
        )


def test_translation_reflection_invariance():
    rng = random.Random(777)
    for _ in range(60):
        vals = sorted(rng.sample(range(1, 60), rng.randint(2, 9)))
        t = rng.randint(-30, 30)
        shifted = [v + t for v in vals]
        reflected = [t - v for v in vals]
        assert difference_set(vals) == difference_set(shifted) == difference_set(reflected)
        assert additive_energy(vals) == additive_energy(shifted) == additive_energy(reflected)
        assert max_multiplicity(vals) == max_multiplicity(shifted) == max_multiplicity(reflected)


def max_multiplicity(vals):
    """Largest multiplicity of a positive difference of vals."""
    return max(color_histogram(difference_color_graph(vals)).values())


def test_repeated_difference_examples():
    assert max_multiplicity([1, 2, 3]) == 2
    assert max_multiplicity([1, 2, 3, 4]) == 3
    assert not verify_diff_local_property([1, 2, 3, 4], LocalSpec(4, 5)).holds
    assert max_multiplicity([1, 2, 5, 11]) == 1


def test_repeated_difference_contract():
    # two of three pairs with one difference d are disjoint, {a, a+d} and
    # {b, b+d}; those four elements repeat both d and b - a, so they span
    # at most C(4,2) - 2 = 4 differences
    rng = random.Random(888)
    seen = 0
    for _ in range(300):
        vals = tuple(sorted(rng.sample(range(1, 40), rng.randint(4, 8))))
        if max_multiplicity(vals) >= 3:
            seen += 1
            assert not verify_diff_local_property(vals, LocalSpec(4, 5)).holds
    assert seen >= 30


def test_min_difference_set_examples():
    r = min_difference_set(4, LocalSpec(4, 5), 10)
    assert r.status == "optimal" and r.value == 5
    assert r.certificate == (1, 2, 3, 6)
    assert r.difference_set == (1, 2, 3, 4, 5)
    assert verify_diff_local_property(r.certificate, LocalSpec(4, 5)).holds

    r = min_difference_set(3, LocalSpec(3, 3), 5)
    assert r.status == "optimal" and r.value == 3 and r.certificate == (1, 2, 4)

    r = min_difference_set(2, LocalSpec(2, 1), 9)
    assert r.status == "optimal" and r.value == 1 and r.certificate == (1, 2)


def test_min_difference_set_matches_plain_enumeration():
    rng = random.Random(515)
    for _ in range(25):
        n = rng.randint(2, 5)
        cap = rng.randint(n, 12)
        k = rng.randint(2, 5)
        ell = rng.randint(1, comb(k, 2))
        res = min_difference_set(n, LocalSpec(k, ell), cap)
        value, witness = brute_g_min(n, k, ell, cap)
        if value is None:
            assert res.status == "infeasible" and res.value is None
        else:
            assert res.status == "optimal" and res.value == value
            # the plain scan's first optimum is the lex-least one, which
            # the normalized search must reproduce exactly
            assert res.certificate == witness
            assert len(difference_set(res.certificate)) == value
            if k <= n:
                assert verify_diff_local_property(res.certificate, LocalSpec(k, ell)).holds


def test_min_difference_set_infeasible_and_budget():
    # three elements in {1..3} always contain a 3-term progression
    r = min_difference_set(3, LocalSpec(3, 3), 3)
    assert r.status == "infeasible" and r.value is None and r.certificate is None
    r = min_difference_set(5, LocalSpec(4, 5), 18, max_sets=10)
    assert r.status == "budget-exhausted"
    with pytest.raises(ValueError):
        min_difference_set(6, LocalSpec(4, 5), 5)
    for n in (0, -2):
        with pytest.raises(ValueError, match="^n must be positive$"):
            min_difference_set(n, LocalSpec(2, 1), 5)


MAX_SETS_GRID = (None, 0, 1, 3, 10, 57, 200)


def test_min_difference_set_matches_candidate_scan_exhaustively():
    # every n <= 6, cap <= 14 and (k, ell), with and without a budget:
    # status, value, certificate, difference set and sets_examined
    for n in range(1, 7):
        for cap in range(n, 15):
            total = comb(cap - 1, n - 1)
            for k in range(2, 7):
                for ell in range(1, comb(k, 2) + 1):
                    for max_sets in MAX_SETS_GRID:
                        got = min_difference_set(n, LocalSpec(k, ell), cap, max_sets)
                        want = brute_min_difference_set(n, k, ell, cap, max_sets)
                        assert got == want, (n, cap, k, ell, max_sets)
                        # the reflection prune rests on this: no certificate
                        # comes after its own mirror image
                        a = got.certificate
                        if a is not None:
                            assert a <= tuple(a[-1] + 1 - v for v in reversed(a))
                        # and the untallied count on this: a budget that cannot
                        # bind leaves no candidate unscanned
                        if max_sets is None or max_sets >= total:
                            assert got.sets_examined == total, (n, cap, k, ell, max_sets)
                    spec = LocalSpec(k, ell)
                    assert min_difference_set(n, spec, cap, total) == min_difference_set(n, spec, cap)


def test_min_difference_set_budget_sweep():
    # every max_sets from 0 to total + 1, so the budget also ends inside a
    # run of mirror-image candidates and inside the scan for the last element
    for n in (3, 4, 5):
        for cap in range(n, 12):
            total = comb(cap - 1, n - 1)
            for k, ell in ((2, 1), (3, 2), (3, 3), (4, 5)):
                for max_sets in range(total + 2):
                    got = min_difference_set(n, LocalSpec(k, ell), cap, max_sets)
                    want = brute_min_difference_set(n, k, ell, cap, max_sets)
                    assert got == want, (n, cap, k, ell, max_sets)


# (n, k, ell, range_cap) -> status, value, certificate, sets_examined of the
# two monte-carlo searches and the five cli-batch solve-g specs in perfbench;
# these are a plain scan's results, which no prune may change
PINNED_SEARCHES = {
    (6, 4, 5, 22): ("optimal", 11, (1, 5, 8, 9, 10, 15), 20349),
    (5, 3, 3, 30): ("optimal", 8, (1, 2, 4, 5, 10), 23751),
    (4, 4, 5, 10): ("optimal", 5, (1, 2, 3, 6), 84),
    (4, 4, 5, 12): ("optimal", 5, (1, 2, 3, 6), 165),
    (5, 3, 3, 12): ("optimal", 8, (1, 2, 4, 5, 10), 330),
    (5, 3, 3, 14): ("optimal", 8, (1, 2, 4, 5, 10), 715),
    (4, 3, 3, 8): ("optimal", 4, (1, 2, 4, 5), 35),
}


@pytest.mark.parametrize("case", sorted(PINNED_SEARCHES))
def test_min_difference_set_pinned_results(case):
    n, k, ell, cap = case
    status, value, cert, examined = PINNED_SEARCHES[case]
    assert min_difference_set(n, LocalSpec(k, ell), cap) == DiffSetSearchResult(
        status, value, cert, difference_set(cert), cap, examined
    )


@st.composite
def _search_cases(draw):
    n = draw(st.integers(2, 7))
    cap = draw(st.integers(n, 16))
    k = draw(st.integers(2, 6))
    ell = draw(st.integers(1, comb(k, 2)))
    max_sets = draw(st.one_of(st.none(), st.integers(0, 3000)))
    return n, cap, k, ell, max_sets


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_search_cases())
def test_min_difference_set_matches_candidate_scan_fuzzed(case):
    n, cap, k, ell, max_sets = case
    assert min_difference_set(n, LocalSpec(k, ell), cap, max_sets) == brute_min_difference_set(
        n, k, ell, cap, max_sets
    )


def test_min_difference_set_frees_its_search_state():
    gc.collect()
    gc.disable()
    try:
        for max_sets in (None, 7):
            min_difference_set(6, LocalSpec(4, 5), 14, max_sets)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_min_difference_set_has_no_depth_limit():
    # one candidate, 1200 elements deep: past the default recursion limit
    r = min_difference_set(1200, LocalSpec(2, 1), 1200)
    assert (r.status, r.value, r.sets_examined) == ("optimal", 1199, 1)
    assert r.certificate == tuple(range(1, 1201))


def test_integer_set_normalization():
    assert integer_set([3, 1, 3, 2]) == (1, 2, 3)
    assert integer_set([]) == ()


def test_integer_set_takes_only_ints():
    # nothing is truncated, parsed or merged: 1.9, '7' and True are refused
    for bad in ([1.9, 2.2, True, "7"], [1, 2.0], [1, True], ["7"], [3, 1.5]):
        with pytest.raises(ValueError, match="integers"):
            integer_set(bad)
    with pytest.raises(ValueError, match="integers"):
        verify_diff_local_property([1.5, 2.9, 4.2], LocalSpec(3, 2))


def test_point_set_takes_only_int_coordinates():
    for bad in ([(0, 0), (1.5, 2)], [(0, 0), (1, 2.0)], [(True, 0), (2, 2)], [("1", 0)]):
        with pytest.raises(ValueError, match="integers"):
            point_set(bad)
    assert point_set([[0, 0], (3, 4)]) == ((0, 0), (3, 4))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: behrend_set(True), "size_target must be integers, got True"),
        (lambda: behrend_set(2.5), "size_target must be integers, got 2.5"),
        (lambda: min_difference_set(True, LocalSpec(2, 1), 5), "n and range_cap must be integers, got True"),
        (lambda: min_difference_set(3, LocalSpec(3, 3), 7.0), "n and range_cap must be integers, got 7.0"),
        (lambda: min_difference_set(3, LocalSpec(3, 3), 7, 2.5), "max_sets must be integers, got 2.5"),
        (lambda: min_difference_set(3, LocalSpec(3, 3), 7, False), "max_sets must be integers, got False"),
    ],
)
def test_set_constructions_take_only_int_sizes(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_diff_verifier_has_no_depth_limit():
    # {1..1100} has 1099 differences, one short of ell
    v = verify_diff_local_property(range(1, 1101), LocalSpec(1100, 1100))
    assert (v.holds, v.witness, v.witness_colors) == (False, tuple(range(1, 1101)), 1099)


def _verdict(v):
    return v.holds, v.witness, v.witness_colors


def _every_spec(n):
    return [(k, ell) for k in range(2, n + 1) for ell in range(1, comb(k, 2) + 1)]


def test_diff_verifier_matches_direct_scan():
    # the verifier reduces to the colored-graph core; the oracle scans the
    # differences themselves, so the reduction is judged from outside
    rng = random.Random(60221)
    pools = [
        range(-25, 26),
        range(1, 13),  # dense: many repeated differences, many failures
        range(10**12 - 30, 10**12 + 30),
        range(-(10**12) - 20, -(10**12) + 20),
    ]
    for trial in range(48):
        vals = rng.sample(pools[trial % len(pools)], rng.randint(2, 7))
        vals += rng.sample(vals, rng.randint(0, 2))  # duplicates collapse
        rng.shuffle(vals)
        for k, ell in _every_spec(len(set(vals))):
            got = _verdict(verify_diff_local_property(vals, LocalSpec(k, ell)))
            assert got == brute_diff_verdict(vals, k, ell), (vals, k, ell)


def test_diff_verifier_matches_direct_scan_mixed_magnitudes():
    vals = [-(10**12), -7, -3, 0, 2, 5, 10**12 - 4, 10**12, 10**12 + 3]
    for k, ell in _every_spec(6):
        for sub in (vals[:6], vals[3:], vals[::2] + [1]):
            got = _verdict(verify_diff_local_property(sub, LocalSpec(k, ell)))
            assert got == brute_diff_verdict(sub, k, ell), (sub, k, ell)


def test_distance_verifier_matches_direct_scan():
    rng = random.Random(16180)
    for trial in range(48):
        kind = trial % 4
        size = rng.randint(2, 7)
        if kind == 0:  # small grid: many duplicate distances
            pts = set()
            while len(pts) < size:
                pts.add((rng.randint(-2, 2), rng.randint(-2, 2)))
            pts = list(pts)
        elif kind == 1:  # collinear on a slanted line
            ts = rng.sample(range(-12, 13), size)
            pts = [(t, 2 * t + 1) for t in ts]
        elif kind == 2:  # collinear on an axis, far from the origin
            pts = [(10**6 + x, -(10**6)) for x in rng.sample(range(40), size)]
        else:  # general position, large coordinates
            pts = set()
            while len(pts) < size:
                pts.add((rng.randint(-(10**9), 10**9), rng.randint(-(10**9), 10**9)))
            pts = list(pts)
        rng.shuffle(pts)  # witnesses follow input order
        for k, ell in _every_spec(len(pts)):
            got = _verdict(verify_distance_local_property(pts, LocalSpec(k, ell)))
            assert got == brute_distance_verdict(pts, k, ell), (pts, k, ell)


@st.composite
def _near_sidon_sets(draw):
    """An Erdos-Turan Sidon set {22i + (i^2 mod 11)} with up to n planted
    repeated differences: vals[i] moves to vals[x] + vals[b] - vals[a]."""
    n = draw(st.integers(2, 9))
    vals = [22 * i + (i * i) % 11 for i in range(n)]
    index = st.integers(0, n - 1)
    for i, x, b, a in draw(st.lists(st.tuples(index, index, index, index), max_size=n)):
        vals[i] = vals[x] + vals[b] - vals[a]
    vals = sorted(set(vals))
    assume(len(vals) >= 2)
    k = draw(st.integers(2, len(vals)))
    ell = draw(st.integers(1, comb(k, 2)))
    return vals, k, ell


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_near_sidon_sets())
def test_diff_verifier_matches_direct_scan_near_sidon_fuzzed(case):
    vals, k, ell = case
    got = _verdict(verify_diff_local_property(vals, LocalSpec(k, ell)))
    assert got == brute_diff_verdict(vals, k, ell)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_near_sidon_sets(), st.integers(0, 2), st.randoms(use_true_random=False))
def test_distance_verifier_matches_direct_scan_near_sidon_fuzzed(case, slope, rng):
    # points on the line y = slope * x: distance repeats are difference repeats
    vals, k, ell = case
    pts = [(x, slope * x) for x in vals]
    rng.shuffle(pts)  # witnesses follow input order
    got = _verdict(verify_distance_local_property(pts, LocalSpec(k, ell)))
    assert got == brute_distance_verdict(pts, k, ell)


def test_distance_verifier_regular_configurations():
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    lattice = [(x, y) for x in range(3) for y in range(3)]
    for pts in (square, square[::-1], lattice, lattice[::-1]):
        for k, ell in _every_spec(min(len(pts), 6)):
            got = _verdict(verify_distance_local_property(pts, LocalSpec(k, ell)))
            assert got == brute_distance_verdict(pts, k, ell), (pts, k, ell)
    v = verify_distance_local_property(square, LocalSpec(4, 3))
    assert not v.holds and v.witness == tuple(square) and v.witness_colors == 2
