"""Independent brute-force oracles and shared fuzz corpora.

Everything here deliberately avoids the library's pruned/incremental
code paths: plain nested loops, full scans, no bitsets, no symmetry
breaking.  Oracle results are what the fast implementations are judged
against.  The one exception is reference_feasible, a copy of the
solver's DFS in its plain per-color form: it is the judge of the exact
node counts and certificates the optimized search must reproduce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

from localprops import (
    ColoredCompleteGraph,
    DiffSetSearchResult,
    FeasibleOutcome,
    difference_set,
)


def brute_verdict(G, k, ell):
    """Unpruned full scan over k-subsets; (holds, witness, count)."""
    for subset in combinations(range(G.n), k):
        seen = set()
        for a, b in combinations(subset, 2):
            seen.add(G.color(a, b))
        if len(seen) < ell:
            return False, subset, len(seen)
    return True, None, None


def brute_diff_verdict(values, k, ell):
    """Direct scan of the k-subsets of the sorted distinct values, no
    graph and no pruning; (holds, witness elements, difference count)."""
    a = sorted(set(values))
    for subset in combinations(a, k):
        diffs = {y - x for x, y in combinations(subset, 2)}
        if len(diffs) < ell:
            return False, subset, len(diffs)
    return True, None, None


def brute_distance_verdict(points, k, ell):
    """Direct scan of the index k-subsets in input order by squared
    distance; (holds, witness points, distance count)."""
    pts = [tuple(p) for p in points]
    for idx in combinations(range(len(pts)), k):
        dists = set()
        for i, j in combinations(idx, 2):
            dists.add((pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2)
        if len(dists) < ell:
            return False, tuple(pts[i] for i in idx), len(dists)
    return True, None, None


def brute_energy_quadruples(G):
    """Ordered pairs of unordered edges with equal colors, one by one."""
    edges = list(combinations(range(G.n), 2))
    total = 0
    for e1 in edges:
        for e2 in edges:
            if G.color(*e1) == G.color(*e2):
                total += 1
    return total


def brute_additive_energy(values):
    a = sorted(set(values))
    total = 0
    for w, x, y, z in product(a, repeat=4):
        if w + x == y + z:
            total += 1
    return total


def restricted_growth_strings(length):
    """All set partitions of `length` items, encoded as RGS labels."""
    if length == 0:
        yield ()
        return
    labels = [0] * length

    def rec(i, top):
        if i == length:
            yield tuple(labels)
            return
        for v in range(top + 2):
            labels[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0)


def brute_min_colors_table(n):
    """min colors for every (k, ell), by scanning all edge partitions.

    Returns {(k, ell): value or None}.  Partitions of the edge set are
    exactly the colorings up to color relabeling.
    """
    edges = list(combinations(range(n), 2))
    m = len(edges)
    subsets_by_k = {}
    for k in range(2, n + 1):
        subs = []
        for vs in combinations(range(n), k):
            idx = [edges.index((a, b)) for a, b in combinations(vs, 2)]
            subs.append(idx)
        subsets_by_k[k] = subs
    best: dict[tuple[int, int], int | None] = {
        (k, ell): None
        for k in range(2, n + 1)
        for ell in range(1, k * (k - 1) // 2 + 1)
    }
    for labels in restricted_growth_strings(m):
        classes = max(labels) + 1
        for k, subs in subsets_by_k.items():
            min_distinct = min(len({labels[e] for e in idx}) for idx in subs)
            for ell in range(1, min_distinct + 1):
                cur = best[(k, ell)]
                if cur is None or classes < cur:
                    best[(k, ell)] = classes
    return best


def reference_feasible(n, k, ell, c, node_limit=None):
    """The solver's DFS, trying each color at a position in turn.

    Same assignment order, first-use symmetry breaking, subset checks
    and node counting as localprops.solver.feasible, with one walk over
    a position's checks per color tried; returns a FeasibleOutcome.
    Each (slot, prev, need) check ORs the color's bit into the mask in
    slot prev, rejects the color if the result has fewer than need
    colors, and otherwise stores it in slot (0 is a sink).
    """
    if c < ell:
        return FeasibleOutcome("no", None, 0)
    order = [(i, j) for j in range(1, n) for i in range(j)]
    pos_of = {e: p for p, e in enumerate(order)}
    fills = [[] for _ in order]
    checks = [[] for _ in order]
    base, latest = {}, {}
    slots = 1
    for p, (i, j) in enumerate(order):
        if j < k - 1:
            continue
        if i == 0:
            for rest in combinations(range(j - 1), k - 2):
                u_set = rest + (j - 1,)
                base[u_set] = slots
                fills[p].append((slots, [pos_of[e] for e in combinations(u_set, 2)]))
                slots += 1
        for step in range(k - 2, -1, -1):
            for left in combinations(range(i), step):
                for right in combinations(range(i + 1, j), k - 2 - step):
                    u_set = left + (i,) + right
                    prev = base[u_set] if step == 0 else latest.pop(u_set)
                    if right:
                        latest[u_set] = slot = slots
                        slots += 1
                    else:
                        slot = 0
                    checks[p].append((slot, prev, ell - len(right)))
    m = len(order)
    cols = [-1] * m
    tops = [0] * (m + 1)
    state = [0] * slots
    nodes = 0
    pos, col = 0, 0
    while 0 <= pos < m:
        if col == 0:
            for slot, edges in fills[pos]:
                mask = 0
                for q in edges:
                    mask |= 1 << cols[q]
                state[slot] = mask
        top = tops[pos]
        for col in range(col, top + 1):
            nodes += 1
            if node_limit is not None and nodes > node_limit:
                return FeasibleOutcome("exhausted", None, nodes)
            bit = 1 << col
            for slot, prev, need in checks[pos]:
                grown = state[prev] | bit
                if grown.bit_count() < need:
                    break
                state[slot] = grown
            else:
                cols[pos] = col
                pos += 1
                tops[pos] = top + 1 if col == top < c - 1 else top
                col = 0
                break
        else:
            pos -= 1
            col = cols[pos] + 1
    if pos < m:
        return FeasibleOutcome("no", None, nodes)
    colors = [cols[pos_of[e]] for e in combinations(range(n), 2)]
    return FeasibleOutcome("yes", ColoredCompleteGraph(n, tuple(colors)), nodes)


def is_proper_edge_coloring(G):
    """No vertex carries two edges with the same color."""
    for v in range(G.n):
        seen = set()
        for u in range(G.n):
            if u == v:
                continue
            c = G.color(v, u)
            if c in seen:
                return False
            seen.add(c)
    return True


def proper_coloring_exists(n, c):
    """Plain backtracking over proper edge colorings of K_n, row-major
    edge order, no symmetry breaking and no optimistic bounds."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    at_vertex = [[] for _ in range(n)]
    for idx, (i, j) in enumerate(edges):
        at_vertex[i].append(idx)
        at_vertex[j].append(idx)
    colors = [-1] * len(edges)

    def ok(idx, col):
        i, j = edges[idx]
        for v in (i, j):
            for other in at_vertex[v]:
                if other != idx and colors[other] == col:
                    return False
        return True

    def rec(idx):
        if idx == len(edges):
            return True
        for col in range(c):
            if ok(idx, col):
                colors[idx] = col
                if rec(idx + 1):
                    return True
                colors[idx] = -1
        return False

    return rec(0)


def round_robin_proper_coloring(n):
    """Proper edge coloring of K_n from the circle factorization.

    For even n: vertices 0..n-2 on a circle plus a hub n-1; edge (u, v)
    of circle vertices gets (u+v) mod (n-1), hub edges (u, n-1) get
    (2u) mod (n-1).  n-1 colors.  For odd n, color within the circle
    formula on n vertices directly: (u+v) mod n, n colors.
    """
    colors = []
    if n % 2 == 0:
        mod = n - 1
        for i in range(n - 1):
            for j in range(i + 1, n):
                colors.append((2 * i) % mod if j == n - 1 else (i + j) % mod)
    else:
        for i in range(n - 1):
            for j in range(i + 1, n):
                colors.append((i + j) % n)
    return ColoredCompleteGraph.from_sparse(n, colors)


def brute_g_min(n, k, ell, cap):
    """Min difference-set size over all n-subsets of {1..cap}, no
    normalization tricks; (value, witness) or (None, None)."""
    best = None
    witness = None
    for a in combinations(range(1, cap + 1), n):
        ok = True
        if k <= n:
            for sub in combinations(a, k):
                diffs = {y - x for x, y in combinations(sub, 2)}
                if len(diffs) < ell:
                    ok = False
                    break
        if not ok:
            continue
        size = len({y - x for x, y in combinations(a, 2)})
        if best is None or size < best:
            best, witness = size, a
    return best, witness


def brute_min_difference_set(n, k, ell, range_cap, max_sets=None):
    """Candidate-by-candidate min_difference_set: every (1, a2, ..., an)
    within the cap in combinations order, each scanned on its own.

    A candidate whose reflection is lexicographically smaller is skipped
    after it is counted; max_sets caps the candidates counted, and the
    result is "budget-exhausted" when a candidate lies past it.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > range_cap:
        raise ValueError(f"n={n} exceeds range cap {range_cap}")
    if n == 1:
        return DiffSetSearchResult("optimal", 0, (1,), (), range_cap, 1)

    def holds(a):
        if k > len(a):
            return True
        for sub in combinations(a, k):
            if len({y - x for x, y in combinations(sub, 2)}) < ell:
                return False
        return True

    best = None
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
        if tuple(a[-1] + 1 - x for x in reversed(a)) < a or not holds(a):
            continue
        cand = (len({y - x for x, y in combinations(a, 2)}), a)
        if best is None or cand < best:
            best = cand
    if best is None:
        return DiffSetSearchResult("infeasible", None, None, None, range_cap, examined)
    return DiffSetSearchResult(
        "optimal", best[0], best[1], difference_set(best[1]), range_cap, examined
    )


def brute_popular(G, j, a, b):
    """Full frozenset scan for b popular colors sharing >= a vertices."""
    from collections import Counter

    hist = Counter(G.edge_colors)
    supports: dict[int, set] = {}
    for i in range(G.n):
        for jj in range(i + 1, G.n):
            c = G.color(i, jj)
            supports.setdefault(c, set()).update((i, jj))
    popular = sorted(c for c, m in hist.items() if m >= 2**j)
    for combo in combinations(popular, b):
        inter = set.intersection(*(supports[c] for c in combo))
        if len(inter) >= a:
            return combo, frozenset(inter)
    return None


def brute_mono_degrees(G):
    """Same-colored edge count at every (vertex, color) pair that has one,
    as a dict keyed (vertex, color), edge by edge."""
    counts = {}
    for i in range(G.n):
        for j in range(i + 1, G.n):
            c = G.color(i, j)
            counts[(i, c)] = counts.get((i, c), 0) + 1
            counts[(j, c)] = counts.get((j, c), 0) + 1
    return counts


@dataclass(frozen=True)
class ColorSupport:
    """A color id together with the set of endpoints of its edges."""

    color: int
    vertices: frozenset[int]


def color_supports(G):
    """Endpoint set of every color, in color-id order, edge by edge."""
    supports = [set() for _ in range(G.num_colors)]
    for i in range(G.n):
        for j in range(i + 1, G.n):
            supports[G.color(i, j)].update((i, j))
    return [ColorSupport(c, frozenset(s)) for c, s in enumerate(supports)]


def brute_lemma_find(inst):
    """Unpruned scan with Fraction threshold; least qualifying tuple."""
    m = min(len(s) for s in inst.sets)
    threshold = Fraction(m**inst.d, 2 * inst.n ** (inst.d - 1))
    for combo in combinations(range(len(inst.sets)), inst.d):
        inter = frozenset.intersection(*(inst.sets[i] for i in combo))
        if len(inter) >= threshold:
            return combo, len(inter)
    return None


def brute_no_3ap(values):
    a = sorted(set(values))
    for x, y, z in combinations(a, 3):
        if x + z == 2 * y:
            return x, y, z
    return None


def pair_probe_no_3ap(values):
    """brute_no_3ap in O(n^2): for each x, then each y > x in ascending
    order, probe 2y - x in a set (the least x, then the least y, is the
    least triple).  Fast enough for Behrend sets of a thousand elements."""
    a = sorted(set(values))
    present = set(a)
    for i, x in enumerate(a):
        for y in a[i + 1 :]:
            if 2 * y - x in present:
                return x, y, 2 * y - x
    return None


def brute_sphere_elements(dim, base, radius):
    """Digit-by-digit DFS over {0..dim-1}^dim: every integer whose base-`base`
    digit vector has squared norm `radius`, in no particular order."""
    powers = [base**t for t in range(dim)]
    max_sq = (dim - 1) * (dim - 1)
    # (digits placed, squared norm still to reach, value so far); only
    # prefixes the remaining digits can still complete are pushed
    stack = [(0, radius, 0)]
    out = []
    while stack:
        pos, rem, val = stack.pop()
        if pos == dim:
            out.append(val)
            continue
        room = (dim - pos - 1) * max_sq
        for x in range(dim):
            if 0 <= rem - x * x <= room:
                stack.append((pos + 1, rem - x * x, val + x * powers[pos]))
    return out


def brute_isosceles(points):
    """The least isosceles (or degenerate isosceles) triple of the sorted
    points, by squared distances, or None."""
    for p, q, r in combinations(sorted(points), 3):
        d = sorted(
            (
                (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2,
                (p[0] - r[0]) ** 2 + (p[1] - r[1]) ** 2,
                (q[0] - r[0]) ** 2 + (q[1] - r[1]) ** 2,
            )
        )
        if d[0] == d[1] or d[1] == d[2]:
            return p, q, r
    return None


def per_edge_draw(n, colors, seed):
    """The raw color ids of a seeded random coloring of K_n: one randrange
    per edge, in edge-index order."""
    rng = random.Random(seed)
    return [rng.randrange(colors) for _ in range(n * (n - 1) // 2)]


def raw_graph(n, raw):
    """A duck-typed graph over raw ids, enough for brute_verdict."""
    by_edge = dict(zip(combinations(range(n), 2), raw))
    return SimpleNamespace(n=n, color=lambda a, b: by_edge[min(a, b), max(a, b)])


def reference_estimate(n, colors, k, ell, trials, seed):
    """Hits of estimate_property_probability, from a splitmix64 copy, per-edge
    draws and the unpruned brute_verdict."""
    mask = (1 << 64) - 1
    hits = 0
    for t in range(trials):
        x = (seed + (t + 1) * 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        x ^= x >> 31
        hits += brute_verdict(raw_graph(n, per_edge_draw(n, colors, x)), k, ell)[0]
    return hits


def random_graph_corpus(seed, count, n_lo=2, n_hi=12):
    """Seeded random colorings with varied sizes and color budgets, densified
    by ascending raw id as from_sparse does."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        n = rng.randint(n_lo, n_hi)
        c = rng.randint(1, max(1, n * (n - 1) // 2))
        raw = per_edge_draw(n, c, rng.getrandbits(48))
        rank = {v: i for i, v in enumerate(sorted(set(raw)))}
        out.append(ColoredCompleteGraph(n, tuple(rank[v] for v in raw)))
    return out
