"""Differential tests of the per-graph statistics in forbidden and energy.

Every value is recomputed edge by edge from G.color(i, j) and the
documented formulas, with no shared code path: mono degrees from
oracles.brute_mono_degrees, supports from oracles.color_supports, the
least popular intersection from oracles.brute_popular.
"""

from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from localprops import (
    BoundRow,
    BudgetExceededError,
    ColoredCompleteGraph,
    DetectorParams,
    DyadicProfile,
    PopularHit,
    bound_report,
    dyadic_bins,
    dyadic_profile,
    edge_count,
    energy_decomposition,
    max_mono_degree,
    mono_degree_violations,
    monochromatic,
    popular_intersection_search,
    rainbow,
)
from localprops.forbidden import _support_masks
from oracles import brute_mono_degrees, brute_popular, color_supports

PARAMS = [DetectorParams(k, m) for k, m in ((3, 2), (6, 2), (9, 2), (12, 3), (16, 3), (5, 4))]
BUDGETS = (0, 5, 10_000)


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 14))
    e = edge_count(n)
    kind = draw(st.sampled_from(("random", "monochromatic", "rainbow", "two-color")))
    if kind == "monochromatic":
        return monochromatic(n)
    if kind == "rainbow":
        return rainbow(n)
    top = draw(st.integers(0, max(0, e - 1))) if kind == "random" else 1
    return ColoredCompleteGraph.from_sparse(n, draw(st.lists(st.integers(0, top), min_size=e, max_size=e)))


def _multiplicities(G):
    mults = {}
    for i in range(G.n):
        for j in range(i + 1, G.n):
            c = G.color(i, j)
            mults[c] = mults.get(c, 0) + 1
    return mults


def _bins(mults):
    """Per dyadic bin j: the multiplicities m with 2^j <= m < 2^(j+1)."""
    top = max(mults.values(), default=0).bit_length()
    return [[m for m in mults.values() if 2**j <= m < 2 ** (j + 1)] for j in range(top)]


def _crossover(n, p):
    rhs = 2 * p.b**p.b * p.a ** (p.b + 1) * n ** (p.b - 1)
    return max(t for t in range(64) if 2 ** (t * p.b) <= rhs)


def _violations(G, p):
    return sorted(vc for vc, d in brute_mono_degrees(G).items() if d > p.b * p.a - p.b)


def _popular_hit(G, j, p, budget):
    mults = _multiplicities(G)
    popular = [c for c, m in mults.items() if m >= 2**j]
    if budget is not None and comb(len(popular), p.b) > budget:
        return "budget-exceeded"
    hit = brute_popular(G, j, p.a, p.b)
    return None if hit is None else PopularHit(*hit)


def _expected_rows(G, p, locate, budget):
    n, a, b = G.n, p.a, p.b
    mults = _multiplicities(G)
    sizes = {s.color: len(s.vertices) for s in color_supports(G)}
    rich_num = 2 * n**b * b ** (b + 1) * a**b
    rows = []
    for j, members in enumerate(_bins(mults)):
        kj = sum(1 for m in mults.values() if m >= 2**j)
        rich_ok = kj * 2 ** (j * b) < rich_num
        regime = j > _crossover(n, p)
        located = None
        if locate and regime and not rich_ok:
            hit = _popular_hit(G, j, p, budget) if 2**j >= a else None
            located = (tuple(_violations(G, p)), hit)
        rows.append(
            BoundRow(
                j=j,
                bin_count=len(members),
                cum_count=kj,
                poor_bound=(n * n, 2**j),
                rich_bound=(rich_num, 2 ** (j * b)),
                poor_ok=kj * 2**j < n * n,
                rich_regime=regime,
                rich_ok=rich_ok,
                remark_zone=(2 ** ((j - 1) * b) if j else 0) < n ** (b - 1) < 2 ** ((j + 1) * b),
                min_support=min(sizes[c] for c, m in mults.items() if m >= 2**j),
                support_bound=(2 ** (j + 1), b * a - b),
                located=located,
            )
        )
    return rows


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_graphs(), st.sampled_from(PARAMS), st.sampled_from(BUDGETS))
def test_statistics_match_direct_counts(G, p, budget):
    degrees = brute_mono_degrees(G)
    top = max(degrees.values(), default=0)
    assert max_mono_degree(G) == (top, sorted((v, c, d) for (v, c), d in degrees.items() if d == top))
    assert mono_degree_violations(G, p) == _violations(G, p)

    masks = _support_masks(G)
    assert masks == [sum(1 << v for v in s.vertices) for s in color_supports(G)]

    mults = _multiplicities(G)
    bins = _bins(mults)
    counts = tuple(map(len, bins))
    cums = tuple(sum(1 for m in mults.values() if m >= 2**j) for j in range(len(bins)))
    assert dyadic_profile(G, p) == DyadicProfile(counts, cums, _crossover(G.n, p))
    squares = tuple(sum(m * m for m in members) for members in bins)
    assert dyadic_bins(G) == (counts, squares)
    assert energy_decomposition(G) == (squares, sum(m * m for m in mults.values()))

    assert bound_report(G, p) == _expected_rows(G, p, False, budget)
    assert bound_report(G, p, locate=True, tuple_budget=budget) == _expected_rows(G, p, True, budget)
    for j in range(3):
        want = _popular_hit(G, j, p, budget)
        try:
            got = popular_intersection_search(G, j, p, budget)
        except BudgetExceededError:
            got = "budget-exceeded"
        assert got == want


def test_located_rows_are_exercised():
    """Rows that locate configurations occur at these sizes: monochromatic
    K_14 violates the rich bound of (3, 2) above the crossover.  (A located
    popular hit would need two colors of multiplicity 64 or more, so at
    n <= 14 the search's hits are met only in the direct calls.)"""
    p = DetectorParams(3, 2)  # a = 1, b = 2
    G = monochromatic(14)
    rows = bound_report(G, p, locate=True, tuple_budget=10_000)
    assert rows == _expected_rows(G, p, True, 10_000)
    assert rows[-1].located == (tuple((v, 0) for v in range(14)), None)
    two = ColoredCompleteGraph.from_sparse(6, [c % 2 for c in range(edge_count(6))])
    assert popular_intersection_search(two, 1, p) == PopularHit((0, 1), frozenset(range(6)))
