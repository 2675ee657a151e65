"""Difference sets, additive energy, distinct distances, and the exact
reductions from integer sets and planar point sets to edge-colored graphs.

Sets are integer-valued throughout: every finite instance at this scale
can be rescaled to integers, and exact arithmetic removes every tie and
tolerance question.  Distances are compared as squared integers for the
same reason; for distinct points, distinct squared distances and
distinct distances are the same thing.

The two reductions build a complete graph whose vertices are the set
elements (in ascending order) or the points (in input order), with one
color per distinct positive difference or squared distance.  Local
difference/distance properties of the set then coincide exactly with
the local color property of the graph, so the direct verifiers are the
reductions: verify_diff_local_property and verify_distance_local_property
validate their input once, then share one step that reduces, runs
coloring.verify_local_property and maps the witness's vertex indices back
to elements or points.  The additive energy is read off the difference
graph: E(A) = |A|^2 + 2 * sum_d m_d^2 = |A|^2 + 2 * color_energy, since
a + b = c + d exactly when a - c = d - b, and m_d pairs differ by d > 0.

min_difference_set finds the least |A - A| under a (k, ell) difference
property by a depth-first search over the candidates in lexicographic
order, on int bitmasks: the prefix's differences form one mask, its
elements one reflected mask (a shift yields every new difference x - y
at once), and each small subset of the prefix keeps its own pair of
masks, so checking a new element is one OR and one bit count per
(k-1)-subset.  Pruned subtrees and skipped runs are counted by binomial
coefficients, so the certificate (the lexicographically least optimum)
and sets_examined are exactly those of a plain scan of every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .coloring import (
    ColoredCompleteGraph,
    LocalSpec,
    PropertyVerdict,
    _require_ints,
    color_energy,
    verify_local_property,
)

__all__ = [
    "integer_set",
    "point_set",
    "difference_set",
    "additive_energy",
    "verify_diff_local_property",
    "verify_distance_local_property",
    "difference_color_graph",
    "distance_color_graph",
    "DiffSetSearchResult",
    "min_difference_set",
]


def integer_set(values) -> tuple[int, ...]:
    """Normalize to a strictly increasing tuple of ints (duplicates collapse)."""
    values = tuple(values)
    _require_ints(values, "set elements")
    return tuple(sorted(set(values)))


def point_set(points) -> tuple[tuple[int, int], ...]:
    """Validate a sequence of distinct integer points, preserving order."""
    pts = tuple((x, y) for x, y in points)
    _require_ints((v for p in pts for v in p), "point coordinates")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    return pts


def difference_set(values) -> tuple[int, ...]:
    """All strictly positive pairwise differences, ascending."""
    a = integer_set(values)
    if len(a) < 2:
        raise ValueError("need at least two elements")
    return tuple(sorted({y - x for i, x in enumerate(a) for y in a[i + 1 :]}))


def additive_energy(values) -> int:
    """Number of ordered quadruples (a, b, c, d) with a + b = c + d, which
    is |A|^2 + 2 * color_energy(difference_color_graph(A)) (module docstring)."""
    a = integer_set(values)
    if len(a) < 2:
        return len(a)
    return len(a) ** 2 + 2 * color_energy(_difference_graph(a))


def verify_diff_local_property(values, spec: LocalSpec) -> PropertyVerdict:
    """Does every k-subset span at least ell distinct positive differences?

    Subsets are scanned in ascending (lexicographic) order of their
    elements; the witness of a failure is the least failing subset,
    reported as a tuple of elements.
    """
    return _verify_reduced(integer_set(values), _difference_graph, spec, "set size")


def verify_distance_local_property(points, spec: LocalSpec) -> PropertyVerdict:
    """Does every k-subset of points span at least ell distinct distances?

    Index subsets are scanned in lexicographic order over the input
    order; a failure witness is the least failing subset, reported as a
    tuple of points.
    """
    return _verify_reduced(point_set(points), _distance_graph, spec, "point count")


def _verify_reduced(items: tuple, reduce, spec: LocalSpec, what: str) -> PropertyVerdict:
    """verify_local_property on reduce(items), the witness mapped back to items."""
    if spec.k > len(items):
        raise ValueError(f"k={spec.k} exceeds {what} {len(items)}")
    verdict = verify_local_property(reduce(items), spec)
    if verdict.holds:
        return verdict
    return PropertyVerdict(False, tuple(items[i] for i in verdict.witness), verdict.witness_colors)


def difference_color_graph(values) -> ColoredCompleteGraph:
    """K_n on the set elements with edge (i, j) colored by a_j - a_i.

    Vertex i is the i-th smallest element; colors are densified in
    ascending difference order, so num_colors equals |A - A|.  Local
    color verdicts on this graph are the difference verdicts, witness
    indices mapping to sorted elements.
    """
    a = integer_set(values)
    if len(a) < 2:
        raise ValueError("need at least two elements")
    return _difference_graph(a)


def _difference_graph(a: tuple[int, ...]) -> ColoredCompleteGraph:
    """difference_color_graph of an already normalized set of >= 2 elements."""
    return ColoredCompleteGraph.from_sparse(len(a), [y - x for x, y in combinations(a, 2)])


def distance_color_graph(points) -> ColoredCompleteGraph:
    """K_n on the points with edge (i, j) colored by squared distance.

    Vertex order is input order; colors are densified in ascending
    squared-distance order.
    """
    pts = point_set(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    return _distance_graph(pts)


def _distance_graph(pts: tuple[tuple[int, int], ...]) -> ColoredCompleteGraph:
    """distance_color_graph of already validated points, at least two."""
    raw = [(p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p, q in combinations(pts, 2)]
    return ColoredCompleteGraph.from_sparse(len(pts), raw)


@dataclass(frozen=True)
class DiffSetSearchResult:
    """Outcome of the capped exhaustive minimum-|A-A| search.

    The search is exact over subsets of {1..range_cap}; because the
    range is capped, the value is an upper bound for the uncapped
    minimum (a larger range can only do better or equal).
    """

    status: str  # "optimal" | "infeasible" | "budget-exhausted"
    value: int | None
    certificate: tuple[int, ...] | None
    difference_set: tuple[int, ...] | None
    range_cap: int
    sets_examined: int


def _add_element(subs: list, sh: int) -> None:
    """Extend the j-subset rows of a prefix by element cap - sh."""
    bx = 1 << sh
    for j in range(len(subs) - 1, 0, -1):
        subs[j] += [(m | s >> sh, s | bx) for m, s in subs[j - 1]]


def min_difference_set(
    n: int, spec: LocalSpec, range_cap: int, max_sets: int | None = None
) -> DiffSetSearchResult:
    """Minimum |A - A| over n-element A within {1..range_cap} satisfying
    the (k, ell) difference property, with a certificate.

    Translation is normalized away (min element pinned to 1) and the
    candidates (1, a2, ..., an) are searched depth first in
    lexicographic order, so the first optimum found is the
    lexicographically least one.  A reflection has the same difference
    set and the same verdict, so it needs no separate test.  A subtree
    is pruned when
      - its prefix holds a failing k-subset (the property is hereditary);
      - its difference count plus one per element still to add reaches
        the best size so far: each later element z brings its new
        largest difference z - 1, and a later candidate loses every tie;
      - the best exists and even an element sharing no difference with
        the prefix would reach it: then only elements repeating enough
        prefix differences are visited, and each skipped run is counted
        in one step.
    Specs with k > n hold vacuously.

    sets_examined counts candidates in lexicographic order, pruned ones
    included, so it equals the number a plain scan of every candidate
    would make.  max_sets caps it: when more candidates exist the status
    is "budget-exhausted", with the best among the first max_sets.
    """
    _require_ints((n, range_cap), "n and range_cap")
    if max_sets is not None:
        _require_ints((max_sets,), "max_sets")
    if n < 1:
        raise ValueError("n must be positive")
    if n > range_cap:
        raise ValueError(f"n={n} exceeds range cap {range_cap}")
    if n == 1:
        return DiffSetSearchResult("optimal", 0, (1,), (), range_cap, 1)

    cap, k, ell = range_cap, spec.k, spec.ell
    total = comb(cap - 1, n - 1)
    limit = total if max_sets is None else max(0, min(max_sets, total))
    # Bit cap - y of a reflected mask stands for element y, so R >> (cap - x)
    # has one bit per difference x - y.  subs[j] holds (difference mask,
    # reflected mask) for each j-subset of the prefix, j < k; a new element
    # is checked against the last row.
    subs = [[(0, 0)]] + [[] for _ in range(k - 1 if k <= n else 0)]
    last = subs[k - 1] if k <= n else []
    elems = [1] * n
    diffs = [0] * n  # per depth: the prefix's difference mask
    refl = [0] * n  # per depth: the prefix's reflected element mask
    nxt = [0] * n  # per depth: the next element to try
    near = [None] * n  # per depth: (need, the x repeating >= need differences)
    marks = [None] * n  # per depth: row lengths of subs before it was entered
    best_size = comb(n, 2) + 1  # above any |A - A|
    best = None
    examined = 0
    _add_element(subs, cap - 1)
    p, refl[1], nxt[1] = 1, 1 << (cap - 1), 2
    while p and examined < limit:
        r = n - p  # elements still to add, this one included
        x = nxt[p]
        D = diffs[p]
        base = D.bit_count()
        if base + r >= best_size or x > cap - r + 1:
            examined += comb(cap - x + 1, r)  # every candidate left at this depth
            if p > 1:
                for row, mark in zip(subs, marks[p]):
                    del row[mark:]
            p -= 1
            continue
        # x adds p differences; it can win only if at least `need` of them
        # are already in D, and a skipped x..y-1 adds sum comb(cap - z, r - 1)
        need = base + n - best_size
        if need > 0:
            if near[p] is None or near[p][0] != need:
                atl = [-1] + [0] * need  # atl[c]: the x repeating >= c of them
                for y in elems[:p]:
                    hit = D << y
                    for c in range(need, 0, -1):
                        atl[c] |= atl[c - 1] & hit
                near[p] = (need, atl[need])
            t = near[p][1] >> x
            y = min(x + (t & -t).bit_length() - 1, cap + 1) if t else cap + 1
            if y != x:
                examined += comb(cap - x + 1, r) - comb(cap - y + 1, r)
                nxt[p] = y
                continue
        nxt[p] = x + 1
        sh = cap - x
        new_diffs = D | refl[p] >> sh
        for m, s in last:
            if (m | s >> sh).bit_count() < ell:
                examined += comb(sh, r - 1)
                break
        else:
            elems[p] = x
            if r == 1:
                examined += 1
                best_size, best = new_diffs.bit_count(), tuple(elems)
                continue
            marks[p + 1] = [len(row) for row in subs]
            _add_element(subs, sh)
            p += 1
            diffs[p], refl[p], nxt[p], near[p] = new_diffs, refl[p - 1] | 1 << sh, x + 1, None

    if limit < total:
        status, examined = "budget-exhausted", limit
    else:
        status = "infeasible" if best is None else "optimal"
    if best is None:
        return DiffSetSearchResult(status, None, None, None, cap, examined)
    return DiffSetSearchResult(status, best_size, best, difference_set(best), cap, examined)
