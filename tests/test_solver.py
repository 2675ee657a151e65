import gc
import inspect
import random
import sys
import threading
import time
from functools import lru_cache, reduce
from itertools import combinations, product
from math import comb
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localprops.solver as solver_module
from localprops import (
    ColoredCompleteGraph,
    FeasibleOutcome,
    LocalSpec,
    SolveBudget,
    edge_index,
    feasible,
    min_colors,
    verify_local_property,
)
from localprops.solver import _subset_checks
from oracles import brute_min_colors_table, brute_verdict, reference_feasible

oracle_table = lru_cache(brute_min_colors_table)  # n=5 scans ~116k partitions


def test_feasible_examples():
    assert feasible(3, LocalSpec(3, 3), 2).status == "no"
    out = feasible(3, LocalSpec(3, 3), 3)
    assert out.status == "yes" and out.certificate.num_colors == 3
    assert feasible(5, LocalSpec(3, 3), 4).status == "no"
    with pytest.raises(ValueError):
        feasible(3, LocalSpec(4, 3), 4)
    with pytest.raises(ValueError):
        feasible(3, LocalSpec(3, 3), 0)
    # min_colors checks k > n itself: at n <= 1 no level is searched, and
    # with c >= ell at the first level the table would be built first
    for n, k, ell in ((3, 4, 1), (3, 4, 3), (1, 2, 1), (0, 3, 2), (40, 41, 1), (2001, 2002, 1)):
        with pytest.raises(ValueError, match=f"^k={k} exceeds n={n}: infeasible query$"):
            min_colors(n, LocalSpec(k, ell))


def test_min_colors_triangle_table():
    # the (3,3) property forbids repeated colors at a vertex, so values
    # follow the chromatic index of K_n: n-1 for even n, n for odd n
    expected = {3: 3, 4: 3, 5: 5, 6: 5, 7: 7, 8: 7}
    for n, want in expected.items():
        res = min_colors(n, LocalSpec(3, 3))
        assert res.status == "optimal"
        assert res.value == want
        assert res.value >= n - 1
        cert = res.certificate
        assert cert.num_colors == res.value
        assert verify_local_property(cert, LocalSpec(3, 3)).holds
        assert brute_verdict(cert, 3, 3)[0]


def test_min_colors_matches_partition_oracle_small():
    for n in (3, 4, 5):
        table = oracle_table(n)
        for (k, ell), want in sorted(table.items()):
            res = min_colors(n, LocalSpec(k, ell))
            assert want is not None, (n, k, ell)  # rainbow always qualifies
            assert res.status == "optimal"
            assert res.value == want, (n, k, ell, res.value, want)
            assert verify_local_property(res.certificate, LocalSpec(k, ell)).holds


def _closed_form(n, k, ell):
    """f(n, k, ell) where it is known past brute force, for n <= 12."""
    if ell == 1:
        return 1
    if (k, ell) == (3, 3):  # every triangle rainbow: a proper edge coloring, chi'(K_n)
        return n if n % 2 else n - 1
    if (k, ell) == (3, 2):  # R(3,3) = 6 and R(3,3,3) = 17
        return 2 if n <= 5 else 3
    if (k, ell) == (4, 2):  # R(4,4) = 18
        return 2
    return comb(n, 2)  # ell = C(k,2), k >= 4: any two edges lie in some k-set


def test_min_colors_never_contradicts_the_closed_forms():
    # a second judge past the partition oracle's n <= 5: an optimal value
    # equals the closed form, and any other result brackets it
    specs = [(k, 1) for k in (3, 4, 5)] + [(3, 3), (3, 2), (4, 2), (4, 6), (5, 10)]
    for (k, ell), n in product(specs, range(3, 13)):
        if n < k:
            continue
        res = min_colors(n, LocalSpec(k, ell), SolveBudget(node_limit=20_000))
        want = _closed_form(n, k, ell)
        if res.status == "optimal":
            assert res.value == want, (n, k, ell, res.value)
        else:
            assert res.lower_bound <= want, (n, k, ell, res.status, res.lower_bound)
            assert res.value is None or want <= res.value, (n, k, ell, res.status, res.value)


def test_feasible_matches_partition_oracle_at_every_level():
    # every level, not just the optimum: yes exactly from the oracle's
    # value upward, and each certificate passes the unpruned scan
    for n in range(2, 6):
        for (k, ell), want in sorted(oracle_table(n).items()):
            for c in range(1, comb(n, 2) + 1):
                out = feasible(n, LocalSpec(k, ell), c)
                assert out.status == ("yes" if c >= want else "no"), (n, k, ell, c)
                if out.status == "yes":
                    assert out.certificate.num_colors <= c
                    assert brute_verdict(out.certificate, k, ell)[0], (n, k, ell, c)


@st.composite
def _levels(draw):
    n = draw(st.integers(2, 5))
    k = draw(st.integers(2, n))
    ell = draw(st.integers(1, comb(k, 2)))
    c = draw(st.integers(1, comb(n, 2)))
    node_limit = draw(st.integers(1, 300))
    return n, k, ell, c, node_limit


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_levels())
def test_feasible_and_min_colors_match_partition_oracle_fuzzed(case):
    n, k, ell, c, node_limit = case
    want = oracle_table(n)[(k, ell)]
    out = feasible(n, LocalSpec(k, ell), c)
    assert out.status == ("yes" if c >= want else "no")
    if out.status == "yes":
        assert out.certificate.num_colors <= c
        assert brute_verdict(out.certificate, k, ell)[0]
    # a node budget either covers the whole search or stops one node past it
    capped = feasible(n, LocalSpec(k, ell), c, SolveBudget(node_limit=node_limit))
    if out.nodes <= node_limit:
        assert capped == out
    else:
        assert (capped.status, capped.certificate, capped.nodes) == ("exhausted", None, node_limit + 1)
    res = min_colors(n, LocalSpec(k, ell))
    assert (res.status, res.value, res.lower_bound) == ("optimal", want, want)


def test_feasible_matches_reference_dfs_on_every_small_level():
    # status, node count and certificate equal the per-color loop's, at
    # every level of every n <= 7, k <= 5, including budget-cut ones
    budget = SolveBudget(node_limit=3000)
    for n in range(2, 8):
        for k in range(2, min(n, 5) + 1):
            for ell in range(1, comb(k, 2) + 1):
                for c in range(1, comb(n, 2) + 1):
                    got = feasible(n, LocalSpec(k, ell), c, budget)
                    assert got == reference_feasible(n, k, ell, c, 3000), (n, k, ell, c)


def test_feasible_matches_reference_dfs_at_k_6():
    # k = 6 gives four grow steps per subset, one more than any k the
    # other differentials reach
    budget = SolveBudget(node_limit=2000)
    for n in (7, 8):
        for ell in (3, 9, 12, 15):
            for c in range(1, comb(n, 2) + 1):
                got = feasible(n, LocalSpec(6, ell), c, budget)
                assert got == reference_feasible(n, 6, ell, c, 2000), (n, ell, c)


def test_feasible_matches_reference_dfs_on_the_f_table_levels():
    # every level min_colors visits for the benchmark's f-table specs;
    # their node total is the benchmark's deterministic work count
    budget = SolveBudget(node_limit=20_000)
    levels = nodes = 0
    for n in range(4, 10):
        for k in range(3, min(n, 5) + 1):
            for ell in range(1, comb(k, 2) + 1):
                for c, count, status in min_colors(n, LocalSpec(k, ell), budget).log:
                    want = reference_feasible(n, k, ell, c, 20_000)
                    assert (want.nodes, want.status) == (count, status), (n, k, ell, c)
                    assert feasible(n, LocalSpec(k, ell), c, budget) == want, (n, k, ell, c)
                    levels += 1
                    nodes += count
    assert (levels, nodes) == (457, 1_491_289)


def test_feasible_matches_reference_dfs_past_n_9():
    # every level min_colors visits for the wide benchmark's budgeted
    # (12,5,7) solve, and for a few n = 10-11 specs at 2,000 nodes a level
    for n, k, ell, limit in (
        (12, 5, 7, 200),
        (10, 3, 3, 2000),
        (10, 4, 5, 2000),
        (10, 5, 9, 2000),
        (11, 4, 4, 2000),
        (11, 5, 7, 2000),
    ):
        budget = SolveBudget(node_limit=limit)
        for c, count, status in min_colors(n, LocalSpec(k, ell), budget).log:
            want = reference_feasible(n, k, ell, c, limit)
            assert (want.nodes, want.status) == (count, status), (n, k, ell, c)
            assert feasible(n, LocalSpec(k, ell), c, budget) == want, (n, k, ell, c)


def test_subset_table_writes_each_slot_once_and_reads_every_slot():
    # fills and grows write every slot exactly once.  A grown slot is read
    # once, later in the same column; U's base slot, filled on entering
    # column max(U)+1, once in that column and in each later one.  So no
    # write goes to a slot nothing reads.  There is one base slot per
    # (k-1)-subset of range(n-1) and, in column j, k-2 grown slots per
    # (k-1)-subset of range(j).
    for n in range(3, 10):
        order = [(i, j) for j in range(1, n) for i in range(j)]
        for k in range(2, min(n, 6 if n <= 8 else 5) + 1):
            ell = comb(k, 2)
            fills, reads, grows, slots = _subset_checks(n, k, ell)
            assert slots == comb(n - 1, k - 1) + (k - 2) * sum(comb(j, k - 1) for j in range(k - 1, n)), (n, k)
            written = {}  # slot -> (position, kind)
            for p, (i, j) in enumerate(order):
                assert len(fills[p]) == (comb(j - 1, k - 2) if i == 0 else 0), (n, k, p)
                for slot, edges in fills[p]:
                    assert len(edges) == comb(k - 1, 2) and max(edges, default=-1) < p
                    assert slot not in written
                    written[slot] = p, "fill"
                for slot, _ in grows[p]:
                    assert slot not in written
                    written[slot] = p, "grow"
            assert sorted(written) == list(range(slots)), (n, k)
            readers = {slot: [] for slot in range(slots)}
            for p, (i, j) in enumerate(order):
                assert len(reads[p]) == comb(j - 1, k - 2), (n, k, p)
                # the subsets completing here (max U = i) come first
                completing = comb(i, k - 2)
                needs = [need for _, need in reads[p]]
                assert needs[:completing] == [ell] * completing, (n, k, p)
                assert ell not in needs[completing:], (n, k, p)
                # the rest grow, each from the slot it reads
                assert [prev for _, prev in grows[p]] == [prev for prev, _ in reads[p][completing:]]
                for prev, _ in reads[p]:
                    readers[prev].append(p)
            for slot, (p, kind) in written.items():
                j = order[p][1]
                if kind == "grow":
                    assert len(readers[slot]) == 1, (n, k, slot)
                    assert readers[slot][0] > p and order[readers[slot][0]][1] == j, (n, k, slot)
                else:
                    assert [order[q][1] for q in readers[slot]] == list(range(j, n)), (n, k, slot)


def test_subset_table_reads_see_each_subsets_colors_in_colex_order():
    # what each read sees, not only the table's shape: U is filled on
    # entering (0, max U + 1) into base slot r(U), its colex rank, and a
    # replay of one seeded coloring, run as feasible runs a position
    # (fills, then reads, then grows), shows every read the colors its
    # subset's assigned edges hold and ell minus its open edges.  The
    # completing subsets come first, each group in colex order of U.
    def position(a, b):
        return b * (b - 1) // 2 + a

    rng = random.Random(7)
    for n in range(2, 9):
        order = [(i, j) for j in range(1, n) for i in range(j)]
        for k in range(2, min(n, 6) + 1):
            for ell in sorted({1, comb(k, 2)}):
                fills, reads, grows, slots = _subset_checks(n, k, ell)
                bits = [1 << rng.randrange(4) for _ in order]
                state = [None] * slots  # a read of a slot not yet written sees None
                for p, (i, j) in enumerate(order):
                    colex = sorted(combinations(range(j), k - 1), key=lambda u: u[::-1])
                    opened = [u for u in colex if i == 0 and u[-1] == j - 1]
                    want = [(sum(map(comb, u, range(1, k))), tuple(position(a, b) for a, b in combinations(u, 2))) for u in opened]
                    assert fills[p] == want, (n, k, ell, p)
                    for slot, edges in fills[p]:
                        state[slot] = reduce(or_, [bits[q] for q in edges], 0)
                    completing = [u for u in colex if u[-1] == i]
                    rest = [u for u in colex if i in u[:-1]]
                    want = []
                    for u in completing + rest:
                        assigned = [position(a, b) for a, b in combinations((*u, j), 2) if position(a, b) < p]
                        want.append((reduce(or_, [bits[q] for q in assigned], 0), ell - sum(u_m > i for u_m in u)))
                    assert [(state[prev], need) for prev, need in reads[p]] == want, (n, k, ell, p)
                    for slot, prev in grows[p]:
                        state[slot] = state[prev] | bits[p]


def test_min_colors_calls_feasible_by_its_module_name(monkeypatch):
    # the benchmark traces solver.feasible by rebinding the module's name,
    # which a local alias in min_colors would silently bypass; the table
    # is built once per solve and handed to every level that searches
    calls, tables = [], []
    search, build = solver_module.feasible, solver_module._subset_checks

    def traced(n, spec, c, budget=None, **private):
        calls.append((c, private["_table"]))
        return search(n, spec, c, budget, **private)

    def built(*args):
        tables.append(build(*args))
        return tables[-1]

    monkeypatch.setattr(solver_module, "feasible", traced)
    monkeypatch.setattr(solver_module, "_subset_checks", built)
    for n, spec, budget in (
        (7, LocalSpec(4, 5), None),
        (9, LocalSpec(5, 9), SolveBudget(node_limit=200)),
    ):
        calls.clear()
        tables.clear()
        res = min_colors(n, spec, budget)
        assert [c for c, _ in calls] == [c for c, _, _ in res.log]
        assert len(tables) == 1
        assert all(t is (None if c < spec.ell else tables[0]) for c, t in calls)


def test_node_limit_boundary_is_exact():
    # a budget of exactly N nodes covers an N-node search; one less
    # stops at node N, for a refuted level and a satisfiable one
    spec = LocalSpec(4, 5)
    for c, status in ((5, "no"), (7, "yes")):
        full = feasible(7, spec, c)
        assert full.status == status
        assert feasible(7, spec, c, SolveBudget(node_limit=full.nodes)) == full
        capped = feasible(7, spec, c, SolveBudget(node_limit=full.nodes - 1))
        assert capped == FeasibleOutcome("exhausted", None, full.nodes)


def test_deadline_stops_the_search_itself():
    # the table builds well inside the deadline; the search (25M+ nodes
    # unbounded) must notice it passing
    t0 = time.monotonic()
    out = feasible(10, LocalSpec(3, 3), 8, SolveBudget(time_limit_s=0.1))
    assert time.monotonic() - t0 < 1.0
    assert out.status == "exhausted" and out.certificate is None and out.nodes > 0


def test_feasible_takes_its_deadline_from_the_budget():
    # time_limit_s bounds the search beside a node limit; at 20M nodes
    # the node limit alone would run for several seconds
    t0 = time.monotonic()
    out = feasible(10, LocalSpec(3, 3), 8, SolveBudget(node_limit=20_000_000, time_limit_s=0.1))
    assert time.monotonic() - t0 < 1.0
    assert out.status == "exhausted" and out.certificate is None
    assert 0 < out.nodes < 20_000_001


def test_feasible_takes_its_time_limit_only_from_the_budget():
    params = inspect.signature(feasible).parameters
    assert [name for name in params if not name.startswith("_")] == ["n", "spec", "c", "budget"]
    assert all(p.kind is p.KEYWORD_ONLY for name, p in params.items() if name.startswith("_"))


def test_feasible_takes_only_int_n_and_c():
    for n, c in ((4.0, 3), (5, 3.0), (5, True)):
        with pytest.raises(ValueError, match="integers"):
            feasible(n, LocalSpec(3, 3), c)


def test_solve_budget_takes_only_an_int_node_limit():
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="integers"):
            SolveBudget(node_limit=bad)


def test_min_colors_has_no_depth_limit():
    # 1225 edges deep; (2,1) holds with one color
    res = min_colors(50, LocalSpec(2, 1))
    assert (res.status, res.value, res.log) == ("optimal", 1, ((1, 1225, "yes"),))
    assert res.certificate == ColoredCompleteGraph(50, (0,) * 1225)


def test_solve_budget_needs_a_finite_positive_time_limit():
    for bad in (float("nan"), float("inf"), float("-inf"), 0, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            SolveBudget(time_limit_s=bad)
    assert SolveBudget(time_limit_s=2).time_limit_s == 2


def test_search_is_pinned_level_by_level():
    # exact per-level node counts: any change to branch order, symmetry
    # breaking, pruning or node counting shows up here
    zero = [(c, 0, "no") for c in range(1, 5)]
    res = min_colors(7, LocalSpec(4, 5))
    assert res.log == tuple(zero + [(5, 1767, "no"), (6, 56124, "no"), (7, 149, "yes")])
    assert res.certificate.edge_colors == (
        0, 0, 2, 2, 3, 3, 1, 3, 4, 5, 6, 4, 5, 6, 2, 6, 1, 5, 0, 1, 4
    )
    res = min_colors(7, LocalSpec(3, 3), SolveBudget(node_limit=1000))
    assert res.log == (
        (1, 0, "no"), (2, 0, "no"), (3, 18, "no"), (4, 70, "no"),
        (5, 502, "no"), (6, 1001, "exhausted"), (7, 84, "yes"),
    )
    res = min_colors(9, LocalSpec(5, 9), SolveBudget(node_limit=20000))
    assert res.log == tuple(
        [(c, 0, "no") for c in range(1, 9)]
        + [(9, 3820, "no"), (10, 8587, "no"), (11, 17336, "no")]
        + [(c, 20001, "exhausted") for c in range(12, 23)]
        + [(23, 683, "yes")]
    )
    assert (res.status, res.value, res.lower_bound) == ("bound-only", 23, 12)


def test_time_budget_covers_preprocessing():
    # the (n=22, k=6) subset table takes about 0.15-0.25 s to build on a
    # 2-vCPU VM, so the 0.2 s solve stops late in the build or early in
    # the level-12 search; either way level 12 ends exhausted and the
    # whole solve ends well within the bound below
    t0 = time.monotonic()
    res = min_colors(22, LocalSpec(6, 12), SolveBudget(time_limit_s=0.2))
    assert time.monotonic() - t0 < 1.0
    assert res.status == "budget-exhausted"
    assert res.value is None and res.certificate is None
    # levels 1..11 are refuted without search; level 12 builds the table
    assert res.log[-1][::2] == (12, "exhausted")
    assert res.lower_bound == 12
    # a budget far below the build time stops inside the build, before
    # the first search node, in min_colors and in a direct feasible call
    res = min_colors(22, LocalSpec(6, 12), SolveBudget(time_limit_s=0.02))
    assert res.log[-1] == (12, 0, "exhausted")
    out = feasible(22, LocalSpec(6, 12), 12, SolveBudget(time_limit_s=0.02))
    assert (out.status, out.nodes) == ("exhausted", 0)


def test_time_budget_covers_preprocessing_at_large_n():
    # nothing C(n,2)-long is allocated before the build's first deadline
    # check, so a 0.01 s limit stops a 499,500-position build at once
    t0 = time.monotonic()
    res = min_colors(1000, LocalSpec(2, 1), SolveBudget(time_limit_s=0.01))
    assert time.monotonic() - t0 < 0.3
    assert (res.status, res.log) == ("budget-exhausted", ((1, 0, "exhausted"),))
    out = feasible(1000, LocalSpec(2, 1), 1, SolveBudget(time_limit_s=0.01))
    assert out == FeasibleOutcome("exhausted", None, 0)


def test_oversized_subset_table_is_refused_before_it_is_built():
    # node_limit does not bound the table build, so the build refuses a
    # table over solver.TABLE_LIMIT entries up front: (60, 5) would hold
    # C(60,5)*4 reads, about 4 GB
    message = "subset table for n=60, k=5 needs 21846048 entries, over the limit 2000000"
    t0 = time.monotonic()
    with pytest.raises(ValueError) as refused:
        min_colors(60, LocalSpec(5, 10), SolveBudget(node_limit=10))
    assert str(refused.value) == message
    with pytest.raises(ValueError, match=message):
        feasible(60, LocalSpec(5, 10), 10)
    # k = 2: C(2001,2) positions, one read each
    with pytest.raises(ValueError, match="needs 2001000 entries"):
        min_colors(2001, LocalSpec(2, 1))
    with pytest.raises(ValueError, match="needs 2001000 entries"):
        feasible(2001, LocalSpec(2, 1), 1)
    assert time.monotonic() - t0 < 0.5
    # test_time_budget_covers_preprocessing needs the (22, 6) build to run
    assert comb(22, 6) * 5 <= solver_module.TABLE_LIMIT


def test_a_held_table_solves_as_a_fresh_build():
    # every f-table spec, solved with no table held and with another ell's
    # table held for its (n, k): the rebound table equals a fresh build,
    # so the whole result does too
    budget = SolveBudget(node_limit=20_000)
    held = solver_module._TABLES
    for n in range(4, 10):
        for k in range(3, min(n, 5) + 1):
            top = comb(k, 2)
            for ell in range(1, top + 1):
                other = ell % top + 1
                held.clear()
                cold = min_colors(n, LocalSpec(k, ell), budget)
                held.clear()
                fresh = _subset_checks(n, k, ell)
                held.clear()
                _subset_checks(n, k, other)
                assert _subset_checks(n, k, ell) == fresh, (n, k, ell)
                assert [(key, entry[0]) for key, entry in held.items()] == [((n, k), other)]
                assert min_colors(n, LocalSpec(k, ell), budget) == cold, (n, k, ell)


def test_held_tables_stay_within_their_budget():
    held, entries = solver_module._TABLES, solver_module._table_entries
    budget = solver_module.TABLES_HELD
    assert budget == solver_module.TABLE_LIMIT // 64
    held.clear()
    keys = [(n, k) for n in range(3, 31) for k in range(2, min(n, 5) + 1) if entries((n, k)) <= 2 * budget]
    for step, (n, k) in enumerate(keys[::-1] + keys[::7]):
        _subset_checks(n, k, step % comb(k, 2) + 1)
        assert sum(map(entries, held)) <= budget, (n, k)
        assert ((n, k) in held) == (entries((n, k)) <= budget), (n, k)
    # a build the deadline stopped is not held, and a held table is not
    # rebound once the deadline has passed
    held.clear()
    assert _subset_checks(12, 5, 7, time.monotonic() - 1) is None and not held
    _subset_checks(12, 5, 7)
    assert _subset_checks(12, 5, 3, time.monotonic() - 1) is None
    # (22, 6) is over the budget, so it is never held, whole or stopped
    held.clear()
    assert entries((22, 6)) > budget
    res = min_colors(22, LocalSpec(6, 12), SolveBudget(time_limit_s=0.02))
    assert res.log[-1] == (12, 0, "exhausted") and not held
    _subset_checks(22, 6, 12)
    assert not held


def test_threads_share_the_held_tables():
    # four threads solve (7, 4, ell) for every ell, each in its own order,
    # on one shared table cache; each gets the sequential results.  With no
    # lock, two threads may both build the table; one copy stays held
    budget = SolveBudget(node_limit=20_000)
    ells = list(range(1, 7))
    solver_module._TABLES.clear()
    want = {ell: min_colors(7, LocalSpec(4, ell), budget) for ell in ells}
    solver_module._TABLES.clear()
    got = [None] * 4

    def solve_all(t):
        got[t] = {ell: min_colors(7, LocalSpec(4, ell), budget) for ell in ells[t:] + ells[:t]}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=solve_all, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [want] * 4
    assert list(solver_module._TABLES) == [(7, 4)]


def test_feasible_frees_its_search_state():
    # the search loop must not leave a reference cycle behind: a long
    # node-limited solve would otherwise hold one state list per level
    gc.collect()
    gc.disable()
    try:
        for budget in (None, SolveBudget(node_limit=5)):
            feasible(6, LocalSpec(3, 3), 5, budget)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_min_colors_optimality_invariant():
    for n, k, ell in [(4, 3, 3), (5, 3, 3), (6, 3, 3), (5, 4, 5), (6, 6, 14)]:
        res = min_colors(n, LocalSpec(k, ell))
        assert res.status == "optimal"
        assert verify_local_property(res.certificate, LocalSpec(k, ell)).holds
        assert res.certificate.num_colors == res.value
        if res.value > 1:
            assert feasible(n, LocalSpec(k, ell), res.value - 1).status == "no"


def test_min_colors_monotone():
    # non-decreasing in ell at fixed (n, k)
    values = [min_colors(5, LocalSpec(3, ell)).value for ell in range(1, 4)]
    assert values == sorted(values)
    values = [min_colors(5, LocalSpec(4, ell)).value for ell in range(1, 7)]
    assert values == sorted(values)
    # non-decreasing in n at fixed (k, ell)
    for k, ell in [(3, 3), (3, 2), (4, 5)]:
        values = [min_colors(n, LocalSpec(k, ell)).value for n in range(k, 7)]
        assert values == sorted(values)


def test_min_colors_multiplicity_start():
    # ell = C(6,2) - floor(6/2) + 2 = 14 caps every color at 2 repeats,
    # so the search starts at ceil(15/2) = 8 and the first levels are
    # settled without any search nodes
    res = min_colors(6, LocalSpec(6, 14))
    assert res.status == "optimal" and res.value == 14
    assert res.log[0][0] == 8
    assert all(nodes == 0 for _, nodes, outcome in res.log if outcome == "no")
    res7 = min_colors(7, LocalSpec(6, 14))
    assert res7.status == "optimal" and res7.value == 19


def test_min_colors_bound_only_status():
    # proving 6 colors infeasible on K_7 needs ~19k nodes, finding a
    # 7-coloring needs under a hundred: a 1000-node level budget skips
    # the hard refutation but still certifies the upper bound
    res = min_colors(7, LocalSpec(3, 3), SolveBudget(node_limit=1000))
    assert res.status == "bound-only"
    assert res.value == 7
    assert res.lower_bound == 6
    assert verify_local_property(res.certificate, LocalSpec(3, 3)).holds
    outcomes = {c: o for c, _, o in res.log}
    assert outcomes[6] == "exhausted" and outcomes[7] == "yes"


def test_min_colors_budget_exhausted_status():
    # ten nodes cannot even assign all fifteen edges once
    res = min_colors(6, LocalSpec(3, 3), SolveBudget(node_limit=10))
    assert res.status == "budget-exhausted"
    assert res.value is None and res.certificate is None
    assert res.lower_bound == 3  # levels 1 and 2 certified without search
    res = min_colors(7, LocalSpec(6, 14), SolveBudget(time_limit_s=0.05))
    assert res.status in ("budget-exhausted", "bound-only", "optimal")


def test_min_colors_deterministic():
    a = min_colors(6, LocalSpec(3, 3))
    b = min_colors(6, LocalSpec(3, 3))
    assert a == b


def test_certificate_is_lex_least_in_assignment_order():
    n, c = 4, 3
    order = [(i, j) for j in range(1, n) for i in range(j)]
    res = min_colors(n, LocalSpec(3, 3))
    assert res.value == c
    got = tuple(res.certificate.color(i, j) for i, j in order)

    first = None
    for cand in product(range(c), repeat=len(order)):
        top = -1
        ok = True
        for v in cand:  # first-use color ordering
            if v > top + 1:
                ok = False
                break
            top = max(top, v)
        if not ok:
            continue
        colors = [0] * len(order)
        for pos, (i, j) in enumerate(order):
            colors[edge_index(n, i, j)] = cand[pos]
        g = ColoredCompleteGraph.from_sparse(n, colors)
        if brute_verdict(g, 3, 3)[0]:
            first = cand
            break
    assert first == got


def test_min_colors_takes_only_int_n():
    for n in (4.0, True, "4"):
        with pytest.raises(ValueError, match="integers"):
            min_colors(n, LocalSpec(3, 3))


def test_solver_errors():
    with pytest.raises(ValueError):
        min_colors(3, LocalSpec(4, 4))
    with pytest.raises(ValueError):
        SolveBudget(node_limit=0)
    with pytest.raises(ValueError):
        SolveBudget(time_limit_s=0.0)
