"""Exact minimum-color search for (k, ell) local properties on K_n.

feasible() runs a depth-first search, one loop over per-position state,
assigning colors edge by edge in vertex-at-a-time order ((0,1), (0,2),
(1,2), (0,3), ...), so every k-subset inside the already-colored prefix
completes as early as possible.  Color symmetry is broken by first-use
ordering: a branch may open color id max_used+1 but nothing beyond it.
After each assignment, every k-subset whose state just changed is
checked with the admissible bound distinct_so_far + unassigned_edges >=
ell; at the subset's last edge the bound is its exact color count, so
the pruned search is verdict-identical to an unpruned scan.

The search state is one int bitmask of colors per k-subset and step,
held in a flat list of slots.  A k-subset {j} | U (j its largest vertex)
is checked at each edge (u, j), u in U: a read takes the mask its
previous step left in a slot and compares its popcount (int.bit_count,
Python >= 3.10) with ell minus the subset's open edges; unless the edge
is the subset's last, a grow ORs the color taken there into that mask
and stores it in the slot the next step reads.  Before the first step
the mask holds the colors of the C(k-1,2) edges inside U, filled into a
base slot when the search enters vertex max(U)+1 by ORing those edges'
entries in a per-position list of color bits.  Every slot is written at
one position and read later (a base slot once in each column from its
fill on), and nothing is undone on backtrack: a read sees only slots
written earlier on the current path, and re-entering a position
rewrites them.

A color's bit either adds one to a mask's popcount or is already in it,
so a read with mask s and bound need rejects every color when
need - popcount(s) >= 2, only the colors in s when it is 1, and none
otherwise.  On entering a position the search therefore makes one pass
over its reads and keeps the colors none rejects as that position's
allowed mask; the mask stays valid until the position is re-entered,
because only earlier positions write the slots it reads.  Each visit
takes the lowest allowed color above the one taken last and counts one
node for it and one for each color it skipped, exactly the colors a
color-by-color walk would have tried and rejected, so node counts,
budget cut-offs and certificates are the same as trying each color in
turn; descending then runs the position's grows and keeps the allowed
colors above the one taken for the next visit.  The allowed mask is the
set of colors the position's k-subsets do not forbid, which forward
checking would build on.

min_colors() walks c upward from the multiplicity lower bound, when one
applies (with cap = repeat_budget + 1 <= floor(k/2)-1, every color is
capped at cap repeats, so at least ceil(C(n,2)/cap) colors are needed),
and from 1 otherwise.  It gets the slot table once per solve and hands
it to every level.  The table is built once per (n, k) while it fits the
held-table budget, and rebound to each ell (_subset_checks), so a sweep
over ell builds it once.  Because colors branch in ascending order, the
first coloring found at the optimal level is the lexicographically least
one in assignment order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, repeat
from operator import add, itemgetter

from .coloring import ColoredCompleteGraph, LocalSpec, _hold, _require_ints, edge_count

__all__ = ["SolveBudget", "FeasibleOutcome", "SolveResult", "feasible", "min_colors"]


@dataclass(frozen=True)
class SolveBudget:
    """node_limit caps DFS assignments per feasibility level; time_limit_s
    caps the whole solve, building the subset table included (wall clock,
    so time-limited runs are not byte-reproducible; node-limited ones are)."""

    node_limit: int | None = None
    time_limit_s: float | None = None

    def __post_init__(self) -> None:
        if self.node_limit is not None:
            _require_ints((self.node_limit,), "node_limit")
            if self.node_limit < 1:
                raise ValueError("node_limit must be positive")
        if self.time_limit_s is not None and not 0 < self.time_limit_s < math.inf:
            raise ValueError("time_limit_s must be finite and positive")


@dataclass(frozen=True)
class FeasibleOutcome:
    status: str  # "yes" | "no" | "exhausted"
    certificate: ColoredCompleteGraph | None
    nodes: int


@dataclass(frozen=True)
class SolveResult:
    """status "optimal" certifies value and value-1 both ways;
    "bound-only" holds a verified certificate at value with at least one
    smaller level unresolved; "budget-exhausted" found no coloring.
    lower_bound is always certified (search or multiplicity bound)."""

    status: str
    value: int | None
    lower_bound: int
    certificate: ColoredCompleteGraph | None
    log: tuple[tuple[int, int, str], ...]  # (colors tried, nodes, outcome)


_Table = tuple[
    list[list[tuple[int, tuple[int, ...]]]],  # fills[p]: (base slot, positions of U's edges)
    list[list[tuple[int, int]]],  # reads[p]: (prev slot, need)
    list[list[tuple[int, int]]],  # grows[p]: (slot, prev slot)
    int,  # slot count
]

TABLE_LIMIT = 2_000_000  # reads or positions a subset table may hold
TABLES_HELD = TABLE_LIMIT // 64  # entries _subset_checks keeps across calls


def _table_entries(key: tuple[int, int]) -> int:
    """Entries in the (n, k) subset table: its reads or its positions."""
    n, k = key
    return max(math.comb(n, k) * (k - 1), edge_count(n))


# (n, k) -> (ell, table, prev of each read, need of each read, one slice
# of those per position): tables built, held within TABLES_HELD entries
_TABLES: dict = {}


def _rebind(held, ell: int) -> _Table:
    """The held table with every need moved from the held ell to ell: the
    fills and grows lists are shared, the reads made in one pass."""
    held_ell, table, prevs, needs, cuts = held
    if ell == held_ell:
        return table
    fills, _, grows, slots = table
    flat = list(zip(prevs, map(add, needs, repeat(ell - held_ell))))
    return fills, list(map(flat.__getitem__, cuts)), grows, slots


def _subset_checks(n: int, k: int, ell: int, deadline: float | None = None) -> _Table | None:
    """Slot table for the DFS: (fills, reads, grows, slot count), one
    list of each per position in assignment order, edge (i, j) at position
    p = j(j-1)/2 + i.  Assigning it changes the k-subsets {j} | U with U a
    (k-1)-subset of {0..j-1} containing i; #{u in U : u > i} of their
    edges are still open.  reads[p] holds one (prev, need) per such
    subset: prev is the slot holding the subset's color mask before this
    edge (U's base slot at its first step, i = min U) and need = ell -
    open.  grows[p] holds (slot, prev) for each of those subsets with an
    open edge left: the mask after this edge goes into slot, which the
    subset's next step reads.  A subset completing at p (i = max U) has
    no grow, since nothing reads its mask again, so no slot is written
    that nothing reads.  fills[p] holds (base slot, positions
    b(b-1)/2 + a of the edges (a, b) inside U) for every U with
    max(U) + 1 == j, filled when position p = (0, j) is entered; the
    first step of {j'} | U reads it in every column j' >= j.
    Within reads[p] the subsets completing at p come first: they are the
    likeliest to reject colors, so the pass that builds a position's
    allowed mask reaches an empty mask, and stops, soonest.

    Base slots come first, U's numbered by its colex rank r(U) =
    sum_m C(u_m, m+1) of U = (u_0 < ... < u_{k-2}) (Knuth, TAOCP 4A,
    7.2.1.3); grown slots follow, numbered in build order.  The build is
    one pass: in each column j, for i from k-2 up, every U with max(U) = i
    in colex order appends its reads and grows at the positions (u, j),
    u in U.  Position (i, j) gets its completing reads at i, before any U
    with a larger max reaches it, so they come first without a sort.

    A table of C(n,k)(k-1) reads or C(n,2) positions over TABLE_LIMIT is
    refused with ValueError before anything is built.  Returns None once
    deadline passes (checked before anything C(n,2)-long is allocated,
    then before each set).

    ell enters the table only through each read's need, so a complete
    table is kept per (n, k), within TABLES_HELD entries in all (oldest
    dropped first, coloring._hold), and a later call with the same (n, k)
    gets it rebound to its ell (_rebind), after one deadline check.  A
    table over TABLES_HELD, such as (22, 6)'s, is built at every call.
    """
    size = _table_entries((n, k))
    if size > TABLE_LIMIT:
        raise ValueError(f"subset table for n={n}, k={k} needs {size} entries, over the limit {TABLE_LIMIT}")
    if deadline is not None and time.monotonic() > deadline:
        return None
    held = _TABLES.get((n, k))
    if held is not None:
        return _rebind(held, ell)
    fills, reads, grows = [], [], []  # per position, typed as in _Table
    tri = [b * (b - 1) // 2 for b in range(n)]  # edge (a, b) sits at position tri[b] + a
    slots = math.comb(n - 1, k - 1)  # the base slots come first, by colex rank
    first = [(r, ell - k + 2) for r in range(slots)]  # U's first read, shared by every column
    # the (k-2)-subsets V of range(n-2) in colex order (lex order reversed, on
    # reversed sets), so those of range(i) come first
    vs = [v[::-1] for v in combinations(range(n - 3, -1, -1), k - 2)][::-1]
    for j in range(1, n):
        col = tri[j]
        for table in fills, reads, grows:  # column j's positions, allocated on entering it
            table += ([] for _ in range(j))
        for i in range(k - 2, j):  # U = V + (i,) completes {j} | U at (i, j)
            for read, v in zip(first[math.comb(i, k - 1) : math.comb(i + 1, k - 1)], vs):
                if deadline is not None and time.monotonic() > deadline:
                    return None
                prev = read[0]  # U's base slot
                if i == j - 1:  # filled on entering (0, j)
                    fills[col].append((prev, tuple([tri[b] + a for a, b in combinations(v + (i,), 2)])))
                for a in v:
                    reads[col + a].append(read)
                    grows[col + a].append((slots, prev))
                    read, prev, slots = (slots, read[1] + 1), slots, slots + 1
                reads[col + i].append(read)
    table = fills, reads, grows, slots
    if size <= TABLES_HELD:
        flat = list(chain.from_iterable(reads))
        ends = list(accumulate(map(len, reads)))
        cuts = list(map(slice, [0, *ends], ends))
        held = ell, table, list(map(itemgetter(0), flat)), list(map(itemgetter(1), flat)), cuts
        _hold(_TABLES, (n, k), held, _table_entries, TABLES_HELD)
    return table


def feasible(
    n: int,
    spec: LocalSpec,
    c: int,
    budget: SolveBudget | None = None,
    *,
    _deadline: float | None = None,
    _table: _Table | None = None,
) -> FeasibleOutcome:
    """Is there a coloring of K_n with at most c colors satisfying spec?

    Returns the lexicographically least satisfying assignment (in assignment
    order) as a certificate: the color taken at position j(j-1)/2 + i goes
    to edge (i, j)'s row-major index.  The deadline, budget.time_limit_s
    from now, also bounds building the slot table, and an oversized table is
    refused (_subset_checks).  Only min_colors passes the private _deadline
    (its one solve-wide deadline) and _table (one table built for this
    (n, spec)), to every level.  The search is one loop over per-position state
    (the color assigned and its bit, the highest color a branch may take and
    the allowed colors not yet taken), so its depth, C(n,2), has no limit.
    Each color a visit passes over or takes counts as one node, as if tried
    in turn: a budget of N nodes stops on the same node, with nodes = N + 1,
    as a color-by-color search would.  The deadline is checked each time the
    node count crosses a multiple of 1024.
    """
    _require_ints((n, c), "n and c")
    if spec.k > n:
        raise ValueError(f"k={spec.k} exceeds n={n}: infeasible query")
    if c < 1:
        raise ValueError("c must be positive")
    if c < spec.ell:
        # some k-subset exists (k <= n) and sees at most c < ell colors
        return FeasibleOutcome("no", None, 0)
    if _deadline is None and budget and budget.time_limit_s is not None:
        _deadline = time.monotonic() + budget.time_limit_s
    if _table is None:
        _table = _subset_checks(n, spec.k, spec.ell, _deadline)
        if _table is None:
            return FeasibleOutcome("exhausted", None, 0)
    fills, reads, grows, slots = _table
    m = edge_count(n)
    cols = [-1] * m
    bits = [0] * m  # per position: 1 << cols[pos], what base fills OR together
    tops = [0] * (m + 1)  # per position: the highest color its branches may take
    allowed = [0] * m  # per position: the colors above cols[pos] no read there rejects
    state = [0] * slots
    node_limit = budget.node_limit if budget else None
    nodes = 0
    pos, last = 0, -1  # the position and the color last taken there (-1: none yet)
    while 0 <= pos < m:
        top = tops[pos]
        if last < 0:  # entering pos: fill the base slots it opens, then read its mask
            for slot, edges in fills[pos]:
                mask = 0
                for q in edges:
                    mask |= bits[q]
                state[slot] = mask
            rest = (2 << top) - 1
            for prev, need in reads[pos]:
                seen = state[prev]
                if seen.bit_count() < need:
                    # one missing color: only colors seen already fail
                    rest = rest & ~seen if seen.bit_count() + 1 == need else 0
                    if not rest:
                        break
        else:
            rest = allowed[pos]
        start = nodes
        if rest:
            bit = rest & -rest
            nxt = bit.bit_length() - 1
        else:
            nxt = top  # every color left is passed over
        nodes += nxt - last  # one per color passed over or taken
        if node_limit is not None and nodes > node_limit:
            return FeasibleOutcome("exhausted", None, node_limit + 1)
        if _deadline is not None and nodes >> 10 != start >> 10 and time.monotonic() > _deadline:
            return FeasibleOutcome("exhausted", None, nodes)
        if rest:
            for slot, prev in grows[pos]:
                state[slot] = state[prev] | bit
            allowed[pos] = rest ^ bit
            cols[pos] = nxt
            bits[pos] = bit
            pos += 1
            # first use: taking the top color lets the next position open one more
            tops[pos] = top + 1 if nxt == top < c - 1 else top
            last = -1
        else:
            pos -= 1
            last = cols[pos]
    if pos < m:
        return FeasibleOutcome("no", None, nodes)
    row_major = tuple(cols[j * (j - 1) // 2 + i] for i in range(n) for j in range(i + 1, n))
    return FeasibleOutcome("yes", ColoredCompleteGraph._dense(n, row_major), nodes)


def _start_level(n: int, spec: LocalSpec) -> int:
    """Multiplicity lower bound on the color count, when one applies.

    If cap = spec.repeat_budget + 1 <= floor(k/2)-1, then a color
    repeated more than cap times yields a k-subset below ell colors (any
    such repeats fit inside k vertices), so ceil(C(n,2)/cap) colors are
    needed; otherwise start at 1.
    """
    cap = spec.repeat_budget + 1
    if cap <= spec.k // 2 - 1:
        return -(-edge_count(n) // cap)
    return 1


def min_colors(n: int, spec: LocalSpec, budget: SolveBudget | None = None) -> SolveResult:
    """Least number of colors in a coloring of K_n satisfying spec.

    Walks c upward from the multiplicity bound; each infeasible level
    extends the certified lower bound.  A level that exhausts its node
    budget is recorded as unknown and skipped, which can only weaken the
    result from "optimal" to "bound-only".
    """
    _require_ints((n,), "n")
    if spec.k > n:
        raise ValueError(f"k={spec.k} exceeds n={n}: infeasible query")
    deadline = None
    if budget and budget.time_limit_s is not None:
        deadline = time.monotonic() + budget.time_limit_s
    start = _start_level(n, spec)
    log: list[tuple[int, int, str]] = []
    lower = start
    contiguous = True  # every level in [start, c) certified infeasible
    table = None  # built at the first level that searches
    for c in range(start, edge_count(n) + 1):
        if table is None and c >= spec.ell:
            table = _subset_checks(n, spec.k, spec.ell, deadline)
            if table is None:
                log.append((c, 0, "exhausted"))
                break
        out = feasible(n, spec, c, budget, _deadline=deadline, _table=table)
        log.append((c, out.nodes, out.status))
        if out.status == "yes":
            status = "optimal" if contiguous else "bound-only"
            return SolveResult(status, c, lower, out.certificate, tuple(log))
        if out.status == "no":
            if contiguous:
                lower = c + 1
        else:
            contiguous = False
        if deadline is not None and time.monotonic() > deadline:
            break
    return SolveResult("budget-exhausted", None, lower, None, tuple(log))
