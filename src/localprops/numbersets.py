"""Difference sets, additive energy, distinct distances, and the exact
reductions from integer sets and planar point sets to edge-colored graphs.

Sets are integer-valued throughout: every finite instance at this scale
can be rescaled to integers, and exact arithmetic removes every tie and
tolerance question.  Distances are compared as squared integers for the
same reason; for distinct points, distinct squared distances and
distinct distances are the same thing.

The two reductions, difference_color_graph and distance_color_graph,
build a complete graph whose vertices are the set elements (in ascending
order) or the points (in input order), with one color per distinct
positive difference or squared distance.  Local difference/distance
properties of the set then coincide exactly with the local color
property of the graph, so the direct verifiers are the reductions:
verify_diff_local_property and verify_distance_local_property validate
their input, then share one step that calls the public reduction (the
only one; it re-validates the normalized input, a cheap no-op), runs
coloring.verify_local_property and maps the witness's vertex indices back
to elements or points.  The additive energy is read off the same
difference graph: E(A) = |A|^2 + 2 * sum_d m_d^2 = |A|^2 + 2 *
color_energy, since a + b = c + d exactly when a - c = d - b, and m_d
pairs differ by d > 0.

min_difference_set finds the least |A - A| under a (k, ell) difference
property by a depth-first search over the candidates in lexicographic
order, on int bitmasks: the prefix's differences form one mask D, its
elements one reflected mask R (a shift yields every new difference z - y
at once, and its bits in D are z's repeat count), and each small subset
of the prefix keeps its own pair of masks in rows kept per depth, so
checking a new element is one OR and one bit count per (k-1)-subset.  A
candidate A whose mirror image {a_n + 1 - a : a in A} comes first in
lexicographic order is never built: the mirror image has the same
difference set and verdict and was reached before it, so A could at best
tie, and ties lose.  Each visit to a depth tests the elements still
allowed there in ascending order up to the first that passes.  The
certificate (the lexicographically least optimum) and sets_examined are
exactly those of a plain scan of every candidate: under a budget that
binds, pruned subtrees and skipped runs are counted by binomial
coefficients, and otherwise that scan reaches every candidate.
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
    return len(a) ** 2 + 2 * color_energy(difference_color_graph(a))


def verify_diff_local_property(values, spec: LocalSpec) -> PropertyVerdict:
    """Does every k-subset span at least ell distinct positive differences?

    Subsets are scanned in ascending (lexicographic) order of their
    elements; the witness of a failure is the least failing subset,
    reported as a tuple of elements.
    """
    return _verify_reduced(integer_set(values), difference_color_graph, spec, "set size")


def verify_distance_local_property(points, spec: LocalSpec) -> PropertyVerdict:
    """Does every k-subset of points span at least ell distinct distances?

    Index subsets are scanned in lexicographic order over the input
    order; a failure witness is the least failing subset, reported as a
    tuple of points.
    """
    return _verify_reduced(point_set(points), distance_color_graph, spec, "point count")


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
    return ColoredCompleteGraph._dense(len(a), [y - x for x, y in combinations(a, 2)])


def distance_color_graph(points) -> ColoredCompleteGraph:
    """K_n on the points with edge (i, j) colored by squared distance.

    Vertex order is input order; colors are densified in ascending
    squared-distance order.
    """
    pts = point_set(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    raw = [(p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p, q in combinations(pts, 2)]
    return ColoredCompleteGraph._dense(len(pts), raw)


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


def min_difference_set(
    n: int, spec: LocalSpec, range_cap: int, max_sets: int | None = None
) -> DiffSetSearchResult:
    """Minimum |A - A| over n-element A within {1..range_cap} satisfying
    the (k, ell) difference property, with a certificate.

    Translation is normalized away (min element pinned to 1) and the
    candidates (1, a2, ..., an) are searched depth first in
    lexicographic order, so the first optimum found is the
    lexicographically least one.  A subtree is pruned when
      - its prefix holds a failing k-subset (the property is hereditary);
      - its difference count plus one per element still to add reaches
        the best size so far: each later element z brings its new
        largest difference z - 1, and a later candidate loses every tie;
      - the best exists and even an element sharing no difference with
        the prefix would reach it: then only elements repeating enough
        prefix differences are visited;
      - every completion has a last gap a_n - a_(n-1) below the first
        gap a2 - 1.  Then the reflection R(A) = {a_n + 1 - a : a in A},
        which has the same difference set and the same verdict, starts
        (1, a_n + 1 - a_(n-1), ...) and so precedes A in the scan, within
        the same range and the same max_sets.  By the time A is reached,
        R(A) has failed or the best is no larger than |R(A) - R(A)|, so A
        could at best tie.  Hence an element with r elements still to add
        (itself included, r >= 2) is at most cap + 3 - r - a2, and the
        last element starts at a_(n-1) + a2 - 1.  At depth 1 the bound
        takes the least a2 left, so an a2 above (cap - n + 4) // 2 is cut
        one depth down, where it leaves no room.
    Each visit to a depth tests the elements left there in ascending
    order and stops at the first that passes: its repeat count, the
    prefix elements y with z - y already a difference, read as the bits
    of R >> (cap - z) & D, must reach what the best size asks, then
    every (k-1)-subset check must pass.  The subset rows are kept per
    depth, each built from the one above on descent, so a backtrack
    drops nothing; the last depth's one row is built only when an element
    there first passes its repeat count, as many visits have none that
    do.  Under a budget the run before the element taken is counted in
    one step, and an element past max_sets is never taken.
    Specs with k > n hold vacuously.

    sets_examined counts candidates in lexicographic order, pruned ones
    included (mirror images too), so it equals the number a plain scan of
    every candidate would make.  max_sets caps it: when more candidates
    exist the status is "budget-exhausted", with the best among the first
    max_sets.  Only then is it tallied pass by pass; otherwise it is the
    total, comb(range_cap - 1, n - 1).
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
    # only a budget that binds needs the binomial tallies (docstring)
    budget = max_sets is not None and max_sets < total
    limit = max(0, max_sets) if budget else total
    # Bit cap - y of a reflected mask stands for element y, so R >> (cap - z)
    # has one bit per difference z - y.  subs[p] holds, for each j from
    # max(0, k - r) to k - 1 (r = n - p), the row of (difference mask,
    # reflected mask) pairs of the prefix's j-subsets: the rows a deeper
    # (k-1)-subset grows from.  A new element is checked against the last.
    # At the last depth subs[p] is None until an element needs that row.
    first = [(0, 0)], [(0, 1 << (cap - 1))]  # the 0- and 1-subsets of (1,)
    subs = [None] * n
    subs[1] = [first[j] if j < 2 else [] for j in range(max(0, k - n + 1), k)]
    elems = [1] * n
    diffs = [0] * n  # per depth: the prefix's difference mask
    refl = [0] * n  # per depth: the prefix's reflected element mask
    nxt = [0] * n  # per depth: the next element to try
    best_size = comb(n, 2) + 1  # above any |A - A|
    best = None
    examined = 0
    p, refl[1], nxt[1] = 1, 1 << (cap - 1), 2
    while p and examined < limit:
        r = n - p  # elements still to add, this one included
        x = nxt[p]
        D, R = diffs[p], refl[p]
        # z adds p differences; it can win only if at least `need` of them are
        # already in D, and only if it leaves room for a last gap >= a2 - 1:
        # a_n >= z + (r - 2) + (a2 - 1) must stay <= cap; at depth 1, a2 is x or more
        need = D.bit_count() + n - best_size
        a2 = elems[1] if p > 1 else x
        if r == 1:
            lo, hi = max(x, elems[p - 1] + a2 - 1), cap
        else:
            lo, hi = x, cap + 3 - r - a2
        rows = subs[p]
        # the first z passing: a repeat count (the bits of R >> sh & D) of at
        # least need, then every (k-1)-row
        for z in range(lo, hi + 1 if need < p else lo):
            sh = cap - z
            if (R >> sh & D).bit_count() < need:
                continue
            if rows is None:  # the last depth, with its row not built yet
                up, ush = subs[p - 1], cap - elems[p - 1]
                rows = subs[p] = [up[-1] + [(m | s >> ush, s | 1 << ush) for m, s in up[-2]]]
            for m, s in rows[-1]:
                if (m | s >> sh).bit_count() < ell:
                    break
            else:
                break
        else:
            z = cap + 1
        if budget:
            # every candidate whose element here lies in x..z-1 is pruned,
            # skipped or fails; comb(cap - x + 1, r) of them start at x or later
            examined += comb(cap - x + 1, r) - comb(cap - z + 1, r)
            if examined >= limit:
                break
        if z > cap:
            p -= 1
            continue
        nxt[p], elems[p] = z + 1, z
        new_diffs = D | R >> sh
        if r == 1:
            examined += 1
            best_size, best = new_diffs.bit_count(), tuple(elems)
            continue
        old, bx = subs[p], 1 << sh
        p += 1
        if r == 2:
            subs[p] = None
        else:
            grown = subs[p] = old[:1] if r > k else []
            for j in range(1, len(old)):
                grown.append(old[j] + [(m | s >> sh, s | bx) for m, s in old[j - 1]])
        diffs[p], refl[p], nxt[p] = new_diffs, R | bx, z + 1

    if budget:
        status, examined = "budget-exhausted", limit
    else:
        status, examined = "infeasible" if best is None else "optimal", total
    if best is None:
        return DiffSetSearchResult(status, None, None, None, cap, examined)
    return DiffSetSearchResult(status, best_size, best, difference_set(best), cap, examined)
