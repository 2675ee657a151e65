import random

import pytest

from localprops import energy
from localprops import (
    ColoredCompleteGraph,
    DetectorParams,
    LocalSpec,
    bound_report,
    color_energy,
    color_histogram,
    crossover_index,
    dyadic_profile,
    edge_count,
    energy_decomposition,
    feasible,
    max_mono_degree,
    min_colors,
    monochromatic,
    popular_intersection_search,
    rainbow,
)
from oracles import color_supports, random_graph_corpus


P62 = DetectorParams(6, 2)  # a=2, b=2


def _profile_oracle(G):
    """Recompute bins/cums from the histogram with explicit range checks."""
    hist = color_histogram(G)
    if not hist:
        return [], []
    top = max(hist.values())
    bins = []
    j = 0
    while 2**j <= top:
        bins.append(sum(1 for m in hist.values() if 2**j <= m < 2 ** (j + 1)))
        j += 1
    cums = [sum(1 for m in hist.values() if m >= 2**j) for j in range(len(bins))]
    return bins, cums


def test_dyadic_profile_examples():
    # multiplicities {4, 3, 2, 1} on K_5
    g = ColoredCompleteGraph(5, (0, 0, 0, 0, 1, 1, 1, 2, 2, 3))
    prof = dyadic_profile(g, P62)
    assert prof.bin_count == (1, 2, 1)
    assert prof.cum_count == (4, 3, 1)

    r = dyadic_profile(rainbow(7), P62)
    assert r.bin_count == (edge_count(7),)
    assert r.cum_count == (edge_count(7),)

    m8 = dyadic_profile(monochromatic(8), P62)
    assert m8.bin_count == (0, 0, 0, 0, 1)  # 16 <= 28 < 32


def test_dyadic_profile_matches_oracle():
    for g in random_graph_corpus(37, 60):
        prof = dyadic_profile(g, P62)
        bins, cums = _profile_oracle(g)
        assert list(prof.bin_count) == bins
        assert list(prof.cum_count) == cums
        assert sum(prof.bin_count) == g.num_colors
        # cumulative counts are non-increasing suffix sums of the bins
        for j in range(len(bins)):
            assert prof.cum_count[j] == sum(bins[j:])
        assert all(a >= b for a, b in zip(prof.cum_count, prof.cum_count[1:]))


def test_crossover_index_exact():
    # a=2, b=2, n=4: threshold value is 2*(2*8*4)^(1/2) = 16 exactly
    assert crossover_index(4, P62) == 4
    rng = random.Random(11)
    cases = []
    for _ in range(200):
        m = rng.randint(2, 4)
        k = rng.randint(m + 1, 14)
        cases.append((rng.randint(1, 40), DetectorParams(k, m)))
    # and every n below 200 for five fixed pairs
    cases += [(n, DetectorParams(k, m)) for k, m in ((6, 2), (9, 2), (16, 3), (14, 4), (40, 5)) for n in range(1, 200)]
    for n, p in cases:
        t = crossover_index(n, p)
        rhs = 2 * p.b**p.b * p.a ** (p.b + 1) * n ** (p.b - 1)
        assert (1 << (t * p.b)) <= rhs < (1 << ((t + 1) * p.b))


def test_crossover_index_takes_only_a_positive_int_n():
    for n in (6.0, True, "6"):
        with pytest.raises(ValueError, match="integers"):
            crossover_index(n, P62)
    for n in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            crossover_index(n, P62)


def test_energy_decomposition_examples():
    contrib, total = energy_decomposition(rainbow(4))
    assert contrib == (6,) and total == 6
    g = ColoredCompleteGraph(5, (0, 0, 0, 0, 1, 1, 1, 2, 2, 3))
    contrib, total = energy_decomposition(g)
    assert contrib == (1, 13, 16) and total == 30 == color_energy(g)
    contrib, total = energy_decomposition(monochromatic(4))
    assert contrib == (0, 0, 36) and total == 36
    assert 36 < 1 * 2 ** (2 * 2 + 2)  # the per-bin cap at j=2


def test_energy_decomposition_invariants():
    for g in random_graph_corpus(41, 80):
        contrib, total = energy_decomposition(g)
        assert total == color_energy(g)
        prof = dyadic_profile(g, P62)
        assert len(contrib) == len(prof.bin_count)
        for j, (c, bc) in enumerate(zip(contrib, prof.bin_count)):
            if bc:
                assert c < bc * 2 ** (2 * j + 2)
            else:
                assert c == 0


def test_poor_bound_is_universal():
    for g in random_graph_corpus(43, 120):
        prof = dyadic_profile(g, P62)
        for j, kj in enumerate(prof.cum_count):
            assert kj * 2**j <= edge_count(g.n)
            assert kj * 2**j < g.n * g.n


def test_bound_report_examples():
    rows = bound_report(rainbow(12), P62)
    assert all(r.poor_ok and r.rich_ok for r in rows)

    rows = bound_report(monochromatic(12), P62)
    top = rows[-1]
    assert top.j == 6 and top.cum_count == 1
    assert top.poor_bound == (144, 64)
    assert top.poor_ok  # 1 < 144/64: the poor bound holds even here
    for r in rows:
        assert r.poor_bound == (144, 2**r.j)
        assert r.rich_bound == (2 * 12**2 * 2**3 * 2**2, 2 ** (2 * r.j))

    # remark zone for n=12, b=2: 2^(j-1) < 12^(1/2) < 2^(j+1) -> j in {1, 2}
    rows = bound_report(monochromatic(12), P62)
    assert [r.j for r in rows if r.remark_zone] == [1, 2]


def test_bound_report_locate_path():
    # a=1 degenerate parameters make the rich bound violable at desk
    # scale: monochromatic K_12 has k_6 = 1 with 2^(6b) past the bound
    p = DetectorParams(5, 2)
    assert p.a == 1
    rows = bound_report(monochromatic(12), p, locate=True)
    violated = [r for r in rows if r.rich_regime and not r.rich_ok]
    assert violated
    for r in violated:
        assert r.located is not None
        mono, hit = r.located
        assert mono  # every vertex-color pair exceeds the a=1 cap
        assert hit is None  # a single color cannot form a b=2 tuple


def _k40_two_popular_colors():
    """Two colors of multiplicity 128 and five of 64 on K_40, the rest
    distinct: at DetectorParams(3, 2) rows j = 6 and 7 break the rich bound."""
    colors = [0] * 128 + [1] * 128 + [c for c in range(2, 7) for _ in range(64)]
    colors += range(7, 7 + edge_count(40) - len(colors))
    return ColoredCompleteGraph(40, tuple(colors))


def test_bound_report_finds_mono_degree_violations_once(monkeypatch):
    # both violating rows share one violation list
    calls = []
    find = energy.mono_degree_violations
    monkeypatch.setattr(energy, "mono_degree_violations", lambda *a: calls.append(a) or find(*a))
    rows = bound_report(_k40_two_popular_colors(), DetectorParams(3, 2), locate=True)
    located = [r for r in rows if r.located is not None]
    assert [r.j for r in located] == [6, 7]
    assert len(calls) == 1
    assert located[0].located[0] == located[1].located[0] == tuple(find(*calls[0]))


def test_bound_report_takes_only_an_int_tuple_budget():
    for budget in (2.5, True):
        for locate in (False, True):
            with pytest.raises(ValueError, match="integers"):
                bound_report(rainbow(6), P62, locate, budget)
    # None scans regardless; a negative budget is an int that no tuple fits
    for budget, hit in ((None, (0, 1)), (-1, "budget-exceeded")):
        rows = bound_report(_k40_two_popular_colors(), DetectorParams(3, 2), locate=True, tuple_budget=budget)
        hits = [r.located[1] for r in rows if r.located is not None]
        assert [getattr(h, "colors", h) for h in hits] == [hit, hit]


def test_min_support_column():
    g = ColoredCompleteGraph(3, (0, 0, 1))
    rows = bound_report(g, P62)
    assert rows[0].min_support == 2  # color 1 has a 2-vertex support
    assert rows[1].min_support == 3  # only color 0 reaches multiplicity 2
    assert rows[0].support_bound == (2, 2)
    assert rows[1].support_bound == (4, 2)
    for g in random_graph_corpus(41, 30, n_hi=10):
        sizes = [len(s.vertices) for s in color_supports(g)]
        for r in bound_report(g, P62):
            popular = [c for c, m in color_histogram(g).items() if m >= 2**r.j]
            assert r.min_support == min((sizes[c] for c in popular), default=None)


def test_solver_certificates_avoid_forbidden_configurations():
    # property-satisfying colorings can never exceed the mono-degree cap
    # nor admit b popular colors sharing a vertices (for 2^j >= a)
    spec = LocalSpec(6, 14)
    certs = [
        min_colors(6, spec).certificate,
        feasible(7, spec, 19).certificate,
        feasible(8, spec, 26).certificate,
    ]
    assert all(c is not None for c in certs)
    for cert in certs:
        assert max_mono_degree(cert)[0] <= P62.mono_degree_cap
        prof = dyadic_profile(cert, P62)
        for j in range(len(prof.bin_count)):
            if 2**j >= P62.a:
                assert popular_intersection_search(cert, j, P62) is None


def test_profile_of_edgeless_graph():
    g = ColoredCompleteGraph(1, ())
    prof = dyadic_profile(g, P62)
    assert prof.bin_count == () and prof.cum_count == ()
    assert energy_decomposition(g) == ((), 0)
