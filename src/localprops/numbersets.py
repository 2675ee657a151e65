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
validate their input, reduce, run coloring.verify_local_property and map
the witness's vertex indices back to elements or points.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .coloring import ColoredCompleteGraph, LocalSpec, PropertyVerdict, verify_local_property

__all__ = [
    "integer_set",
    "point_set",
    "difference_set",
    "sum_set",
    "additive_energy",
    "verify_diff_local_property",
    "verify_distance_local_property",
    "difference_color_graph",
    "distance_color_graph",
    "repeated_difference_bound_check",
    "DiffSetSearchResult",
    "min_difference_set",
]


def integer_set(values) -> tuple[int, ...]:
    """Normalize to a strictly increasing tuple of ints (duplicates collapse)."""
    out = tuple(sorted(set(int(v) for v in values)))
    return out


def point_set(points) -> tuple[tuple[int, int], ...]:
    """Validate a sequence of distinct integer points, preserving order."""
    pts = tuple((int(x), int(y)) for x, y in points)
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    return pts


def difference_set(values) -> tuple[int, ...]:
    """All strictly positive pairwise differences, ascending."""
    a = integer_set(values)
    if len(a) < 2:
        raise ValueError("need at least two elements")
    return tuple(sorted({y - x for i, x in enumerate(a) for y in a[i + 1 :]}))


def sum_set(values) -> tuple[int, ...]:
    """All pairwise sums (repeats allowed: a + a counts), ascending."""
    a = integer_set(values)
    if not a:
        raise ValueError("need at least one element")
    return tuple(sorted({x + y for x in a for y in a}))


def additive_energy(values) -> int:
    """Number of ordered quadruples (a, b, c, d) with a + b = c + d.

    Computed as sum over s of r(s)^2 where r(s) counts ordered pairs
    summing to s; exact integer arithmetic.
    """
    a = integer_set(values)
    r = Counter(x + y for x in a for y in a)
    return sum(v * v for v in r.values())


def verify_diff_local_property(values, spec: LocalSpec) -> PropertyVerdict:
    """Does every k-subset span at least ell distinct positive differences?

    Subsets are scanned in ascending (lexicographic) order of their
    elements; the witness of a failure is the least failing subset,
    reported as a tuple of elements.
    """
    a = integer_set(values)
    if spec.k > len(a):
        raise ValueError(f"k={spec.k} exceeds set size {len(a)}")
    verdict = verify_local_property(difference_color_graph(a), spec)
    if verdict.holds:
        return verdict
    return PropertyVerdict(False, tuple(a[i] for i in verdict.witness), verdict.witness_colors)


def _squared_dist(p: tuple[int, int], q: tuple[int, int]) -> int:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def verify_distance_local_property(points, spec: LocalSpec) -> PropertyVerdict:
    """Does every k-subset of points span at least ell distinct distances?

    Index subsets are scanned in lexicographic order over the input
    order; a failure witness is the least failing subset, reported as a
    tuple of points.
    """
    pts = point_set(points)
    if spec.k > len(pts):
        raise ValueError(f"k={spec.k} exceeds point count {len(pts)}")
    verdict = verify_local_property(distance_color_graph(pts), spec)
    if verdict.holds:
        return verdict
    return PropertyVerdict(False, tuple(pts[i] for i in verdict.witness), verdict.witness_colors)


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
    raw = [a[j] - a[i] for i in range(len(a)) for j in range(i + 1, len(a))]
    return ColoredCompleteGraph.from_sparse(len(a), raw)


def distance_color_graph(points) -> ColoredCompleteGraph:
    """K_n on the points with edge (i, j) colored by squared distance.

    Vertex order is input order; colors are densified in ascending
    squared-distance order.
    """
    pts = point_set(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    raw = [
        _squared_dist(pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    ]
    return ColoredCompleteGraph.from_sparse(len(pts), raw)


def repeated_difference_bound_check(values):
    """Largest multiplicity of a positive difference, with its witnesses.

    Returns (max_multiplicity, [(difference, ((hi, lo), ...)), ...]) for
    every difference attaining the max, ascending, each with its ordered
    (larger, smaller) pairs.  A multiplicity >= 3 involving four distinct
    elements forces the (4, 5) difference property to fail.
    """
    a = integer_set(values)
    if len(a) < 2:
        raise ValueError("need at least two elements")
    occ: dict[int, list[tuple[int, int]]] = {}
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            occ.setdefault(a[j] - a[i], []).append((a[j], a[i]))
    top = max(len(v) for v in occ.values())
    witnesses = [(d, tuple(occ[d])) for d in sorted(occ) if len(occ[d]) == top]
    return top, witnesses


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


def _diff_property_holds(a: tuple[int, ...], spec: LocalSpec) -> bool:
    if spec.k > len(a):
        return True  # no k-subsets to constrain
    for subset in combinations(a, spec.k):
        diffs = {subset[j] - subset[i] for i in range(spec.k) for j in range(i + 1, spec.k)}
        if len(diffs) < spec.ell:
            return False
    return True


def min_difference_set(
    n: int, spec: LocalSpec, range_cap: int, max_sets: int | None = None
) -> DiffSetSearchResult:
    """Minimum |A - A| over n-element A within {1..range_cap} satisfying
    the (k, ell) difference property, with a certificate.

    Translation is normalized away (min element pinned to 1) and of each
    reflection pair only the lexicographically smaller set is scanned;
    both operations preserve the difference multiset and the property.
    Ties break to the lexicographically least certificate.  Specs with
    k > n hold vacuously.  max_sets caps the number of candidate sets
    examined; exceeding it reports status "budget-exhausted".
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > range_cap:
        raise ValueError(f"n={n} exceeds range cap {range_cap}")
    if n == 1:
        return DiffSetSearchResult("optimal", 0, (1,), (), range_cap, 1)

    best: tuple[int, tuple[int, ...]] | None = None
    examined = 0
    for rest in combinations(range(2, range_cap + 1), n - 1):
        a = (1,) + rest
        examined += 1
        if max_sets is not None and examined > max_sets:
            return DiffSetSearchResult(
                "budget-exhausted",
                best[0] if best else None,
                best[1] if best else None,
                difference_set(best[1]) if best else None,
                range_cap,
                examined - 1,
            )
        mirrored = tuple(a[-1] + 1 - x for x in reversed(a))
        if mirrored < a:
            continue
        if not _diff_property_holds(a, spec):
            continue
        size = len({a[j] - a[i] for i in range(n) for j in range(i + 1, n)})
        cand = (size, a)
        if best is None or cand < best:
            best = cand
    if best is None:
        return DiffSetSearchResult("infeasible", None, None, None, range_cap, examined)
    return DiffSetSearchResult(
        "optimal", best[0], best[1], difference_set(best[1]), range_cap, examined
    )
