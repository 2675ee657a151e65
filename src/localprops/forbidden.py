"""Detectors for the two local configurations that contradict a (k, ell)
property, plus the exact set-intersection counting bound.

Parameters come as (k, m) with derived a = floor(k/(m+1)) and b = m.  A
coloring in which every a(b+1) vertices span at least C(a(b+1),2)-ba+b+1
colors cannot contain either of:

  * a vertex with b*a-b+1 incident edges of one color (that star plus
    b+a-2 fillers is an a(b+1)-subset with too few colors), or
  * b colors, each appearing at least 2^j >= a times, whose endpoint
    sets share a vertices.

The counting bound: among k subsets of an n-element universe, each of
size at least m, with k >= 2d n^d / m^d, some d of them intersect in at
least m^d / (2 n^(d-1)) elements.  All threshold comparisons here are
cross-multiplied integers, never floats.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, repeat
from math import comb
from operator import add, eq, ge, mul, or_, rshift

from .coloring import ColoredCompleteGraph, LocalSpec, _hold, _require_ints

__all__ = [
    "BudgetExceededError",
    "DetectorParams",
    "PopularHit",
    "SetSystem",
    "max_mono_degree",
    "mono_degree_violations",
    "popular_intersection_search",
    "counting_lemma_find",
    "lemma_hypothesis_holds",
]

TUPLE_BUDGET = 1_000_000  # b-tuples popular_intersection_search scans by default


class BudgetExceededError(RuntimeError):
    """A combinatorial scan would exceed its configured tuple budget."""


@dataclass(frozen=True)
class DetectorParams:
    """(k, m) parameters with the derived pair a = floor(k/(m+1)), b = m."""

    k: int
    m: int
    a: int = field(init=False, repr=False, compare=False)
    b: int = field(init=False, repr=False, compare=False)
    # b a - b: the most same-color edges at one vertex compatible with the property
    mono_degree_cap: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_ints((self.k, self.m), "k and m")
        if not self.k > self.m >= 2:
            raise ValueError("need k > m >= 2")
        a, b = self.k // (self.m + 1), self.m
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mono_degree_cap", b * a - b)

    def induced_spec(self) -> LocalSpec:
        """The (a(b+1), C(a(b+1),2)-ba+b+1) property these detectors serve:
        its repeat_budget is mono_degree_cap - 1."""
        kk = self.a * (self.b + 1)
        return LocalSpec(kk, comb(kk, 2) - self.mono_degree_cap + 1)


def _endpoint_entries(n: int) -> int:
    return 3 * comb(n, 2)


_ENDPOINTS: dict = {}  # n -> _endpoints(n), within coloring.HELD_ENTRIES (_hold)


def _endpoints(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Per edge index of K_n: its lower endpoint, its upper endpoint, and
    the two as a vertex bitmask; row-major, as edge_colors is stored.
    Kept for the sizes that fit HELD_ENTRIES (each n <= 144 alone), so
    a large graph leaves nothing C(n,2)-long behind."""
    held = _ENDPOINTS.get(n)
    if held is None:
        lo = tuple(chain.from_iterable(map(repeat, range(n), range(n - 1, -1, -1))))
        hi = tuple(chain.from_iterable(map(range, range(1, n), repeat(n))))
        bits = [1 << v for v in range(n)]
        held = lo, hi, tuple(map(or_, map(bits.__getitem__, lo), map(bits.__getitem__, hi)))
        _hold(_ENDPOINTS, n, held, _endpoint_entries)
    return held


def _mono_degrees(G: ColoredCompleteGraph) -> Counter:
    """Same-colored edge count at every (vertex, color) pair that has one,
    keyed vertex * num_colors + color, so key order is (vertex, color) order."""
    lo, hi, _ = _endpoints(G.n)
    stride, colors = repeat(G.num_colors), G.edge_colors
    return Counter(chain(map(add, map(mul, lo, stride), colors), map(add, map(mul, hi, stride), colors)))


def max_mono_degree(G: ColoredCompleteGraph):
    """Max over (vertex, color) of same-colored edges at the vertex.

    Returns (max, [(vertex, color, count), ...]) listing every attaining
    pair in (vertex, color) order; (0, []) for an edgeless graph.
    """
    counts = _mono_degrees(G)
    if not counts:
        return 0, []
    top = max(counts.values())
    at_max = sorted(compress(counts, map(eq, counts.values(), repeat(top))))
    return top, [(*divmod(key, G.num_colors), top) for key in at_max]


def mono_degree_violations(G: ColoredCompleteGraph, p: DetectorParams) -> list[tuple[int, int]]:
    """All (vertex, color) with at least b*a-b+1 same-colored incident edges."""
    counts = _mono_degrees(G)
    hits = compress(counts, map(ge, counts.values(), repeat(p.mono_degree_cap + 1)))
    return list(map(divmod, sorted(hits), repeat(G.num_colors)))


def _support_masks(G: ColoredCompleteGraph) -> list[int]:
    """Endpoint set of every color as a vertex bitmask, in color-id order."""
    masks = [0] * G.num_colors
    for c, pair in zip(G.edge_colors, _endpoints(G.n)[2]):
        masks[c] |= pair
    return masks


class PopularHit(namedtuple("PopularHit", "colors vertices")):
    """b colors of multiplicity >= 2^j whose supports share >= a vertices."""

    __slots__ = ()


def popular_intersection_search(
    G: ColoredCompleteGraph,
    j: int,
    p: DetectorParams,
    tuple_budget: int | None = TUPLE_BUDGET,
) -> PopularHit | None:
    """Search b-tuples of colors appearing >= 2^j times for a common
    support of size >= a.

    Tuples are scanned in lexicographic color order and the first hit is
    returned, so the result is the least one.  Supports are bitsets and
    each partial intersection exits early once its size drops below a.
    Raises BudgetExceededError when the number of b-tuples exceeds
    tuple_budget (pass None to scan regardless).  j and tuple_budget
    must be ints; m >= 2^j is tested as m >> j, so no 2^j is built.
    """
    _require_ints((j,) if tuple_budget is None else (j, tuple_budget), "j and tuple_budget")
    if j < 0:
        raise ValueError("j must be nonnegative")
    popular = list(compress(range(G.num_colors), map(rshift, G.multiplicities, repeat(j))))
    a, b = p.a, p.b
    if len(popular) < b:
        return None
    n_tuples = comb(len(popular), b)
    if tuple_budget is not None and n_tuples > tuple_budget:
        raise BudgetExceededError(
            f"{n_tuples} b-tuples exceed the budget of {tuple_budget}"
        )
    masks = _support_masks(G)
    for combo in combinations(popular, b):
        inter = masks[combo[0]]
        for c in combo[1:]:
            inter &= masks[c]
            if inter.bit_count() < a:
                break
        else:  # b >= 2, so the last check passed: |inter| >= a
            return PopularHit(combo, frozenset(v for v in range(G.n) if inter >> v & 1))
    return None


@dataclass(frozen=True)
class SetSystem:
    """Subsets of a universe {0..n-1} with an intersection arity d, all ints."""

    n: int
    sets: tuple[frozenset[int], ...]
    d: int
    min_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_ints((self.n, self.d), "n and d")
        if self.n < 1:
            raise ValueError("universe must be nonempty")
        if self.d < 2:
            raise ValueError("intersection arity d must be at least 2")
        sets = tuple(map(tuple, self.sets))
        _require_ints(chain.from_iterable(sets), "set elements")
        sets = tuple(map(frozenset, sets))
        if not sets:
            raise ValueError("need at least one set")
        object.__setattr__(self, "sets", sets)
        for idx, s in enumerate(sets):
            if not s:
                raise ValueError(f"set {idx} is empty")
            if min(s) < 0 or max(s) >= self.n:
                raise ValueError(f"set {idx} leaves the universe [0, {self.n})")
        object.__setattr__(self, "min_size", min(map(len, sets)))


def lemma_hypothesis_holds(inst: SetSystem) -> bool:
    """Exact check of k >= 2d n^d / m^d with m the minimum subset size;
    as m <= n, any k < 2d fails before a power is taken."""
    k, d = len(inst.sets), inst.d
    return k >= 2 * d and k * inst.min_size**d >= 2 * d * inst.n**d


def counting_lemma_find(inst: SetSystem) -> tuple[tuple[int, ...], int] | None:
    """Least d-tuple of set indices intersecting in >= m^d/(2 n^(d-1))
    elements, or None.

    Whenever the hypothesis k >= 2d n^d/m^d holds, a qualifying tuple
    exists, so None is only possible below the hypothesis.  Indices are
    0-based positions into inst.sets.  The prefix scan prunes exactly:
    an intersection can only shrink, so a prefix below the threshold is
    skipped without losing any qualifying completion.  The scan is one
    loop over per-depth state (the next index to try and the prefix's
    intersection), so d has no limit.
    """
    d, n, sets = inst.d, inst.n, inst.sets
    k = len(sets)
    if k < d:
        return None
    rhs = inst.min_size**d
    factor = 2 * n ** (d - 1)
    # one mask bit per element in use, so a huge universe costs nothing
    bit = {x: 1 << i for i, x in enumerate(frozenset().union(*sets))}
    masks = []
    for s in sets:
        acc = 0
        for x in s:
            acc |= bit[x]
        masks.append(acc)

    nxt = [0] * d  # per depth: the next index to try, one past the chosen one
    inters = [-1] * d  # per depth: the prefix's intersection (-1: no set yet)
    depth = 0
    while depth >= 0:
        idx = nxt[depth]
        if idx > k - d + depth:  # too few sets left to complete the tuple
            depth -= 1
            continue
        nxt[depth] = idx + 1
        grown = inters[depth] & masks[idx]
        if factor * grown.bit_count() >= rhs:
            if depth + 1 == d:
                return tuple(i - 1 for i in nxt), grown.bit_count()
            depth += 1
            nxt[depth], inters[depth] = idx + 1, grown
    return None
