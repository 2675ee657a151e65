"""Edge-colored complete graphs and the local color-count property.

The central object is a coloring of the complete graph K_n: one color id
per unordered edge, stored in row-major upper-triangle order (edge (i, j)
with i < j lives at index edge_index(n, i, j); this indexing is shared by
every module and by the JSON coloring format).  Color ids are dense: the
ids in use are exactly 0..num_colors-1.  A graph counts its colors once,
in the pass that builds it: multiplicities[c] is the number of edges of
color c, and every statistic here and in energy and forbidden reads it
rather than counting edge_colors again.  That count is made only in
ColoredCompleteGraph._dense, the trusted build the library's own
producers call; the public constructor and from_sparse check, then call it.

A (k, ell) local property asks that every induced subgraph on k vertices
span at least ell distinct edge colors.  The difference and distance
properties of numbersets reduce exactly to it, so verify_local_property
is the one verifier core.  It runs a depth-first scan over k-subsets in
lexicographic order on int bitmask color sets, as one loop over an
explicit stack of search levels, so k has no depth limit: a level with
prefix P keeps, for every later vertex w, the mask row of the colors on
the edges from P to w, and a child level ORs its parent's rows with one
contiguous row slice of edge_colors (row-major storage keeps the edges
(v, w), w > v, side by side, at _row_at(n)[v] + w).  Each edge's color
bit, 1 << color, is shifted as its row slice is read; no per-color table
is built, so the scan's setup is O(k + n) whatever num_colors is, and
its memory is the mask rows alone.  A candidate's color count is then
one bit_count().  A level checks its first candidate bit by bit and
builds its rows only once it moves past it, so a scan that fails on its
first k-subset costs O(k^2) lookups.

Before the scan comes a repeat budget, the exact local form of the
color energy below.  The deficiency of a vertex set S, C(|S|,2) minus
the number of colors it spans, counts for each color its edges in S
beyond the first; a k-subset fails exactly when its deficiency exceeds
t = C(k,2) - ell, which LocalSpec holds as repeat_budget.  No subset's
deficiency exceeds G's own, C(n,2) - num_colors, so when that is at most
t every k-subset holds and the verifier answers in O(1) without
scanning.  Conversely, when G's deficiency exceeds t and 4(t+1) <= k,
some k-subset fails: t+1 surplus edges and one same-colored partner
each span at most 2(t+1) edges on at most 4(t+1) vertices, and any
k-subset containing those has deficiency above t.  _raw_holds decides a
coloring given as raw ids by these two tests and scans only when
neither applies.

Between the two tests lies a second search, over repeat-edge cores,
which the color energy below counts.  A k-set S fails exactly when it
contains a union T of at most t+1 same-colored edge pairs whose own
deficiency exceeds t: for each color with m >= 2 edges in S, pair its
first edge with each of the others, and any t+1 of those pairs already
span deficiency t+1.  Deficiency only grows with the set, and the least
k-set containing T is L(T), T plus the smallest vertices outside it, so
the lexicographically least failing k-set is the least L(T) over the
unions T of at most t+1 pairs with |T| <= k and deficiency above t.
There are P = (color_energy - C(n,2))/2 same-colored pairs, so that
search visits at most about P^(t+1) unions against the scan's C(n,k)
k-subsets.  verify_local_property chooses between them from its input
alone.  With delta = C(n,2) - num_colors and limit = min(C(n,k),
2 C(n,2) + 1), it holds if delta <= t, scans if 4(t+1) <= k (it fails,
and the scan's first k-subsets show where), scans if delta^(t+1) >=
limit (P >= delta, so the cores are not taken; decided in O(1), with
no pass over the colors), and otherwise reads P off color_energy, an
O(num_colors) sum over the multiplicities, and searches the cores when
P^(t+1) < limit.  Both powers cap the exponent at
limit.bit_length(), deciding the same: past it, a base >= 2 exceeds
limit either way.  The second term of limit keeps the cores' work and
memory within a constant times the C(n,2) colors the input already
holds: a graph that fails may fail on the scan's first k-subsets, so
C(n,k) alone does not bound what the cores may cost against the scan.

The color energy sum(m_c^2), i.e. the number of ordered pairs of
unordered edges sharing a color, is the second-moment statistic that
connects color multiplicities to that property.  On the difference graph
of an integer set A (numbersets) it is the additive energy in disguise:
a + b = c + d exactly when a - c = d - b, so counting by that difference
gives E(A) = |A|^2 + 2 * sum_d m_d^2, with m_d the multiplicity of color
d.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, compress, repeat, starmap
from math import comb

__all__ = [
    "ColoredCompleteGraph",
    "LocalSpec",
    "PropertyVerdict",
    "edge_count",
    "edge_index",
    "monochromatic",
    "rainbow",
    "verify_local_property",
    "color_histogram",
    "color_energy",
    "cauchy_schwarz_floor",
    "permute_vertices",
]


def edge_count(n: int) -> int:
    return n * (n - 1) // 2


def edge_index(n: int, i: int, j: int) -> int:
    """Row-major upper-triangle index of edge (i, j), i < j."""
    if not 0 <= i < j < n:
        raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
    return i * n - i * (i + 1) // 2 + j - i - 1


@lru_cache(maxsize=32)
def _row_at(n: int) -> tuple[int, ...]:
    """at[u] + w = edge_index(n, u, w) for u < w: O(n) ints, not a C(n,2)
    table per edge, so holding the last 32 sizes costs little at any n."""
    return tuple(u * n - u * (u + 1) // 2 - u - 1 for u in range(n))


HELD_ENTRIES = 31_250  # entries each cache kept across calls may hold (_hold)


def _hold(cache: dict, key, value, size) -> None:
    """Keep value in cache under key, each key counted as size(key)
    entries: a value over HELD_ENTRIES on its own is not kept, and the
    oldest keys go first until the held total is within HELD_ENTRIES.
    Only atomic dict operations (an assignment, a list of the keys,
    pop(key, None)), so threads share a cache with no lock: two calls may
    both build one value or both drop one key, and the total passes the
    budget only between a call's assignment and its evictions."""
    if size(key) > HELD_ENTRIES:
        return
    cache[key] = value
    keys = list(cache)
    total = sum(map(size, keys))
    for old in keys:
        if total <= HELD_ENTRIES:
            break
        cache.pop(old, None)
        total -= size(old)


@dataclass(frozen=True)
class ColoredCompleteGraph:
    """A complete graph on n vertices with one color id per edge.

    edge_colors[edge_index(n, i, j)] is the color of edge (i, j).  Color
    ids must be dense ints; use from_sparse() to rank sparse int ids.
    multiplicities[c] is the number of edges of color c (module
    docstring).  It is derived, so repr, equality and hashing leave it out.
    """

    n: int
    edge_colors: tuple[int, ...]
    num_colors: int = field(init=False)
    multiplicities: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        colors = tuple(self.edge_colors)
        _check_shape(self.n, len(colors))
        _require_ints(colors, "color ids")  # every id: True equals 1 but is refused
        G = self._dense(self.n, colors)  # the one count; it ranks ids that are not dense
        if G.edge_colors != colors:
            raise ValueError("color ids must be dense 0..num_colors-1 (see from_sparse)")
        object.__setattr__(self, "edge_colors", colors)
        object.__setattr__(self, "num_colors", G.num_colors)
        object.__setattr__(self, "multiplicities", G.multiplicities)

    @classmethod
    def from_sparse(cls, n: int, colors) -> "ColoredCompleteGraph":
        """Build a graph from int color ids that need not be dense.

        The shape and every id are checked as in direct construction,
        with the same messages; _dense then ranks the ids to
        0..num_colors-1 in ascending order, so equal inputs always
        normalize identically.
        """
        colors = list(colors)
        _check_shape(n, len(colors))
        _require_ints(colors, "color ids")
        return cls._dense(n, colors)

    @classmethod
    def _dense(cls, n: int, colors) -> "ColoredCompleteGraph":
        """The trusted build, with no check: C(n,2) int color ids, any ids.

        One count of the ids gives multiplicities and the ids in use;
        those are ranked 0..num_colors-1 in ascending order unless they
        already are.  For the library's own producers, which make int ids
        of the right count by construction, and for from_sparse and the
        constructor after their one check of shape and int ids (the
        constructor refuses ids that had to be ranked, from_sparse keeps
        the ranking).  colors is a sequence: it is read twice.
        """
        counts = Counter(colors)
        ids = sorted(counts)
        q = len(ids)
        if q and (ids[0] != 0 or ids[-1] != q - 1):  # distinct ints: dense iff they span 0..q-1
            colors = map(dict(zip(ids, range(q))).__getitem__, colors)
        G = object.__new__(cls)
        object.__setattr__(G, "n", n)
        object.__setattr__(G, "edge_colors", tuple(colors))
        object.__setattr__(G, "num_colors", q)
        object.__setattr__(G, "multiplicities", tuple(map(counts.__getitem__, ids)))
        return G

    def color(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.edge_colors[edge_index(self.n, u, v)]


def monochromatic(n: int) -> ColoredCompleteGraph:
    """K_n with every edge the same color."""
    m = edge_count(n)
    _check_shape(n, m)
    return ColoredCompleteGraph._dense(n, (0,) * m)


def rainbow(n: int) -> ColoredCompleteGraph:
    """K_n with all edge colors distinct."""
    m = edge_count(n)
    _check_shape(n, m)
    return ColoredCompleteGraph._dense(n, range(m))


def _check_shape(n, count: int) -> None:
    """The vertex count and edge-color count checks every graph passes."""
    _require_ints((n,), "n")
    if n < 1:
        raise ValueError("need at least one vertex")
    if count != edge_count(n):
        raise ValueError(f"expected {edge_count(n)} edge colors for n={n}, got {count}")


def _require_ints(values, what: str) -> None:
    """Refuse anything but ints proper: bool is an int subclass, and floats
    or strings would be truncated or parsed.  The one int test in the
    library, for library calls and JSON files alike."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} must be integers, got {v!r}")


@dataclass(frozen=True)
class LocalSpec:
    """A (k, ell) local property: every k vertices span >= ell colors."""

    k: int
    ell: int
    repeat_budget: int = field(init=False, repr=False, compare=False)  # t = C(k,2) - ell

    def __post_init__(self) -> None:
        _require_ints((self.k, self.ell), "k and ell")
        if self.k < 2:
            raise ValueError("k must be at least 2")
        pairs = self.k * (self.k - 1) // 2
        if not 1 <= self.ell <= pairs:
            raise ValueError(f"ell must be in [1, C(k,2)] = [1, {pairs}]")
        object.__setattr__(self, "repeat_budget", pairs - self.ell)


class PropertyVerdict(namedtuple("PropertyVerdict", "holds witness witness_colors", defaults=(None, None))):
    """Outcome of a local-property check.

    When holds is False, witness is the lexicographically least failing
    k-subset and witness_colors its distinct-color (or distance or
    difference) count, which is then < ell.
    """

    __slots__ = ()


def verify_local_property(G: ColoredCompleteGraph, spec: LocalSpec) -> PropertyVerdict:
    """Check whether every k-subset of vertices spans >= ell colors.

    Enumerates k-subsets in lexicographic order, depth first; a partial
    subset that already spans ell colors is skipped because extending a
    subset can only add colors, so none of its completions can fail.
    The pruning is verdict-identical to a full scan, and the first
    failure found is the lexicographically least one.

    The scan runs on the int-bitmask mask rows the module docstring
    describes, with no limit on k.  Edge (u, w), u < w, is
    edge_colors[at[u] + w] with at = _row_at(n).  A level (colors, start,
    base, base_lo, pend) extends the prefix path[:depth - 1] by each
    candidate v >= start; the mask row of a vertex w >= start is
    base[w - base_lo] ORed with the color bits of the edges from pending =
    path[pend:depth - 1] (the tail of the prefix that base does not cover
    yet) to w, each bit shifted from its color id as the edge is read, with
    no per-color bit table.  The stack holds the levels waiting below a
    candidate, each resumed past that candidate, and path is the one list
    of chosen vertices they share, so the scan state beyond the mask rows
    is O(k).

    First comes the gate the module docstring sets out, with t =
    spec.repeat_budget, delta = C(n,2) - num_colors and limit =
    min(C(n,k), 2 C(n,2) + 1): holds with no scan when delta <= t; the
    scan when 4(t+1) <= k or delta^(t+1) >= limit; otherwise P =
    (color_energy - C(n,2))/2 same-colored edge pairs, and _repeat_cores
    decides when P^(t+1) < limit (exponents capped at limit.bit_length()).
    Both paths give the same verdict, witness and witness_colors.
    """
    n, k, ell, edge_colors = G.n, spec.k, spec.ell, G.edge_colors
    if k > n:
        raise ValueError(f"k={k} exceeds vertex count n={n}: infeasible query")
    t = spec.repeat_budget
    deficiency = len(edge_colors) - G.num_colors
    if deficiency <= t:
        return PropertyVerdict(True)
    if 4 * (t + 1) > k:
        limit = min(comb(n, k), 2 * len(edge_colors) + 1)
        e = min(t + 1, limit.bit_length())  # base**e < limit iff base**(t+1) < limit
        if deficiency**e < limit:
            pairs = (color_energy(G) - len(edge_colors)) // 2
            if pairs**e < limit:
                return _repeat_cores(G, spec)
    at = _row_at(n)
    or_, lshift = operator.or_, operator.lshift
    path, stack = [0] * k, []
    colors, start, base, base_lo, pend, pending = 0, 0, [0] * n, 0, 0, []
    depth, entering = 1, True
    while True:
        if entering:
            # the first candidate, bit by bit; its child inherits base and pending
            row = base[start - base_lo]
            for u in pending:
                row |= 1 << edge_colors[at[u] + start]
            grown = colors | row
            count = grown.bit_count()
            if count < ell:
                path[depth - 1] = start
                if depth == k:
                    return PropertyVerdict(False, tuple(path), count)
                stack.append((colors, start, base, base_lo, pend))
                pending.append(start)
                colors = grown
                start += 1
                depth += 1
                continue
            entering = False
        elif stack:
            colors, start, base, base_lo, pend = stack.pop()
            depth -= 1
            pending = path[pend : depth - 1]
        else:
            return PropertyVerdict(True)
        lo = start + 1
        stop = n - k + depth
        if lo == stop:
            continue
        if pending:
            # moving past the first candidate: the mask rows of lo..n-1
            rows = base[lo - base_lo :]
            for u in pending:
                rows = map(or_, rows, map(lshift, repeat(1), edge_colors[at[u] + lo : at[u] + n]))
            if depth == k:
                for v, row in zip(range(lo, n), rows):
                    row |= colors
                    if row.bit_count() < ell:
                        path[k - 1] = v
                        return PropertyVerdict(False, tuple(path), row.bit_count())
                continue
            base, base_lo = list(rows), lo
        # else base already holds the rows: the level resumes past a candidate
        if depth + 1 < k:
            for v in range(lo, stop):
                grown = colors | base[v - base_lo]
                if grown.bit_count() < ell:  # else colors only accumulate: no completion fails
                    path[depth - 1] = v
                    stack.append((colors, v, base, base_lo, depth - 1))
                    colors, start, pend, pending = grown, v + 1, depth - 1, [v]
                    depth += 1
                    entering = True
                    break
            continue
        # the candidates' children are the leaves: scan them in place
        for v in range(lo, stop):
            grown = colors | base[v - base_lo]
            if grown.bit_count() < ell:
                bits = map(lshift, repeat(1), edge_colors[at[v] + v + 1 : at[v] + n])
                leaves = map(or_, base[v + 1 - base_lo :], bits)
                for w, row in zip(range(v + 1, n), leaves):
                    row |= grown
                    if row.bit_count() < ell:
                        return PropertyVerdict(False, (*path[: k - 2], v, w), row.bit_count())


def _repeat_cores(G: ColoredCompleteGraph, spec: LocalSpec) -> PropertyVerdict:
    """verify_local_property(G, spec) for k <= n, from the unions of
    same-colored edge pairs (module docstring).

    A core is the vertex mask of one same-colored pair, each distinct
    mask once, ascending; for k < 4 only the pairs with a common end,
    since the others have 4 vertices.  Only the edges in a repeated
    group get a mask, found by bisection in _row_at(n)'s row starts.  One
    loop over an explicit stack grows unions T of at most t+1 cores in index
    order.  A core that adds no vertex is skipped (the union without it is
    reached with one more core to spare), and a union stops growing at k
    vertices.  A union whose induced deficiency exceeds t gives the
    candidate L(T), and a union whose L(T) is no less than the best
    candidate so far is cut: every union grown from it has an L no less.
    """
    n, k, t, edge_colors = G.n, spec.k, spec.repeat_budget, G.edge_colors
    at = _row_at(n)
    starts = list(map(operator.add, at, range(1, n + 1)))  # edge (u, u+1)
    if k >= 4:  # group the edges by color
        keys = edge_colors
        repeated = compress(range(G.num_colors), map(operator.gt, G.multiplicities, repeat(1)))
    else:  # by end and color, so that only pairs with a common end are formed
        q = G.num_colors  # key end * q + color: each edge at its lower end, then at its upper end
        lower = chain.from_iterable(map(repeat, range(0, n * q, q), range(n - 1, -1, -1)))
        upper = chain.from_iterable(map(range, range(q, n * q, q), repeat(n * q), repeat(q)))
        keys = [*map(operator.add, lower, edge_colors), *map(operator.add, upper, edge_colors)]
        counts = Counter(keys)
        repeated = compress(counts, map(operator.gt, counts.values(), repeat(1)))
    groups = {key: [] for key in repeated}
    for i in compress(range(len(keys)), map(groups.__contains__, keys)):
        e = i % len(edge_colors)
        u = bisect_right(starts, e) - 1
        groups[keys[i]].append(1 << u | 1 << (e - at[u]))
    cores = sorted(set(chain.from_iterable(starmap(operator.or_, combinations(g, 2)) for g in groups.values())))

    def vertices(mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def least_superset(mask):  # L(T)
        for _ in range(k - mask.bit_count()):
            mask |= ~mask & (mask + 1)  # the smallest vertex outside
        return mask

    def colors(mask):
        return len({edge_colors[at[u] + w] for u, w in combinations(vertices(mask), 2)})

    best = 0  # the vertex mask of the least L(T) so far
    stack = [(0, 0, 0)]  # (union, index of its next core, cores in it)
    while stack:
        union, start, used = stack.pop()
        for j in range(start, len(cores)):
            grown = union | cores[j]
            size = grown.bit_count()
            if grown == union or size > k:
                continue
            if best:
                differ = least_superset(grown) ^ best
                if not differ & -differ & ~best:  # L(T) is no less than best
                    continue
            if size * (size - 1) // 2 - colors(grown) > t:
                best = least_superset(grown)
            elif used < t and size < k:  # grow it first, then resume past core j
                stack.append((union, j + 1, used))
                stack.append((grown, j + 1, used + 1))
                break
    if not best:
        return PropertyVerdict(True)
    return PropertyVerdict(False, tuple(vertices(best)), colors(best))


def _raw_holds(n: int, raw: list, spec: LocalSpec) -> bool:
    """verify_local_property(ColoredCompleteGraph.from_sparse(n, raw), spec).holds,
    for C(n,2) int ids raw and 2 <= k <= n, from the repeat count delta =
    len(raw) - len(set(raw)) when that decides it: with t =
    spec.repeat_budget, holds if delta <= t, fails if delta > t and
    4(t+1) <= k (the converse in the module docstring)."""
    t = spec.repeat_budget
    if len(raw) - len(set(raw)) <= t:
        return True
    if 4 * (t + 1) <= spec.k:
        return False
    return verify_local_property(ColoredCompleteGraph._dense(n, raw), spec).holds


def color_histogram(G: ColoredCompleteGraph) -> Counter:
    """Multiplicity m_c of every color c, keyed in color-id order: a Counter
    view of G.multiplicities, O(num_colors).  The values sum to n(n-1)/2."""
    return Counter(dict(enumerate(G.multiplicities)))


def color_energy(G: ColoredCompleteGraph) -> int:
    """sum of m_c^2: ordered pairs of unordered edges with equal colors.

    Pairs are ordered ((e1, e2) and (e2, e1) count separately, (e, e)
    counts once), while each edge itself is unordered.  Exact integer.
    """
    return sum(m * m for m in G.multiplicities)


def cauchy_schwarz_floor(G: ColoredCompleteGraph) -> int:
    """ceil((n(n-1)/2)^2 / num_colors), a guaranteed lower bound on color_energy."""
    if G.num_colors < 1:
        raise ValueError("graph has no edges, so no colors to bound against")
    e = edge_count(G.n)
    return -(-(e * e) // G.num_colors)


def permute_vertices(G: ColoredCompleteGraph, perm) -> ColoredCompleteGraph:
    """Relabel vertices; perm[old_id] gives the new vertex id."""
    perm = list(perm)
    if sorted(perm) != list(range(G.n)):
        raise ValueError("perm must be a bijection on 0..n-1")
    out = [0] * edge_count(G.n)
    for (i, j), c in zip(combinations(range(G.n), 2), G.edge_colors):
        a, b = perm[i], perm[j]
        if a > b:
            a, b = b, a
        out[edge_index(G.n, a, b)] = c
    return ColoredCompleteGraph._dense(G.n, out)
