"""Dyadic multiplicity profiles and per-bin energy bookkeeping.

Color multiplicities are split into dyadic bins [2^j, 2^(j+1)); the
cumulative count k_j tallies colors of multiplicity at least 2^j.  Two
bounds are tracked per j, both as exact rationals:

  poor bound:  k_j < n^2 / 2^j          (unconditional: k_j 2^j <= C(n,2))
  rich bound:  k_j < 2 n^b b^(b+1) a^b / 2^(jb)

The rich bound only has to hold for j above the crossover index t =
floor(log2(b (2 a^(b+1) n^(b-1))^(1/b))) and only for colorings that
satisfy the induced local property; a violation there implies one of
the forbidden configurations, which the report can locate on request.
The per-bin energy estimate: each bin contributes less than
bin_count[j] * 2^(2j+2) to sum(m_c^2).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .coloring import ColoredCompleteGraph, _require_ints
from .forbidden import (
    TUPLE_BUDGET,
    BudgetExceededError,
    DetectorParams,
    _support_masks,
    mono_degree_violations,
    popular_intersection_search,
)

__all__ = [
    "DyadicProfile",
    "BoundRow",
    "dyadic_profile",
    "crossover_index",
    "bound_report",
    "energy_decomposition",
    "dyadic_bins",
]


def dyadic_bins(G: ColoredCompleteGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(bin_count, contributions): per dyadic bin j, the number of colors
    with multiplicity in [2^j, 2^(j+1)) and the sum of their m_c^2.  Both
    end at the top nonempty bin and are empty for an edgeless graph.  One
    pass over the colors: up to about a hundred colors, faster than
    sorting the multiplicities."""
    mults = G.multiplicities
    if not mults:
        return (), ()
    top = max(mults).bit_length()
    counts, squares = [0] * top, [0] * top
    for m in mults:
        j = m.bit_length() - 1
        counts[j] += 1
        squares[j] += m * m
    return tuple(counts), tuple(squares)


def crossover_index(n: int, p: DetectorParams) -> int:
    """Largest t with 2^(tb) <= 2 b^b a^(b+1) n^(b-1), computed exactly:
    t b <= floor(log2(rhs)), which is rhs.bit_length() - 1 for n >= 1."""
    _require_ints((n,), "n")
    if n < 1:
        raise ValueError("n must be positive")
    a, b = p.a, p.b
    rhs = 2 * b**b * a ** (b + 1) * n ** (b - 1)
    return (rhs.bit_length() - 1) // b


class DyadicProfile(namedtuple("DyadicProfile", "bin_count cum_count crossover")):
    """Per-exponent color counts: bin_count[j] colors with multiplicity in
    [2^j, 2^(j+1)), cum_count[j] colors with multiplicity >= 2^j, and the
    crossover index separating the poor- and rich-bound regimes."""

    __slots__ = ()


def dyadic_profile(G: ColoredCompleteGraph, p: DetectorParams) -> DyadicProfile:
    bins = dyadic_bins(G)[0]
    return DyadicProfile(bins, tuple(accumulate(reversed(bins)))[::-1], crossover_index(G.n, p))


_BOUND_FIELDS = (
    "j",
    "bin_count",
    "cum_count",
    "poor_bound",  # n^2 / 2^j
    "rich_bound",  # 2 n^b b^(b+1) a^b / 2^(jb)
    "poor_ok",
    "rich_regime",  # j > crossover
    "rich_ok",
    "remark_zone",  # 2^j within one dyadic step of n^((b-1)/b)
    "min_support",  # smallest |V_c| among colors with m_c >= 2^j
    "support_bound",  # 2^(j+1) / (ba - b)
    "located",
)


class BoundRow(namedtuple("BoundRow", _BOUND_FIELDS, defaults=(None,))):
    """One dyadic exponent's counts, bounds (exact rationals as numerator/
    denominator pairs), flags, and optionally located configurations."""

    __slots__ = ()


def bound_report(
    G: ColoredCompleteGraph,
    p: DetectorParams,
    locate: bool = False,
    tuple_budget: int | None = TUPLE_BUDGET,
) -> list[BoundRow]:
    """Per-j table comparing k_j against the poor and rich bounds.

    Diagnostic, not a verdict: the poor bound holds for every coloring,
    while a rich-bound violation above the crossover only means the
    induced local property cannot hold.  With locate=True such rows get
    the mono-degree violations and (within the tuple budget, for
    2^j >= a) the least popular-color intersection attached.
    tuple_budget must be an int or None, as for
    popular_intersection_search.
    """
    _require_ints(() if tuple_budget is None else (tuple_budget,), "tuple_budget")
    a, b = p.a, p.b
    n = G.n
    profile = dyadic_profile(G, p)
    # row j's min_support is the least |V_c| over the bins from j up
    least = [n] * len(profile.bin_count)  # no support exceeds n
    for m, mask in zip(G.multiplicities, _support_masks(G)):
        j = m.bit_length() - 1
        least[j] = min(least[j], mask.bit_count())
    min_support = tuple(accumulate(reversed(least), min))[::-1]
    rich_num = 2 * n**b * b ** (b + 1) * a**b
    rows = []
    mono = None  # one tuple for the whole report, found at the first located row
    for j, (bc, kj) in enumerate(zip(profile.bin_count, profile.cum_count)):
        pow_j = 1 << j
        pow_jb = 1 << (j * b)
        poor_ok = kj * pow_j < n * n
        rich_ok = kj * pow_jb < rich_num
        remark = (1 << ((j - 1) * b) if j >= 1 else 0) < n ** (b - 1) < (1 << ((j + 1) * b))
        located = None
        if locate and j > profile.crossover and not rich_ok:
            if mono is None:
                mono = tuple(mono_degree_violations(G, p))
            hit = None
            if pow_j >= a:
                try:
                    hit = popular_intersection_search(G, j, p, tuple_budget)
                except BudgetExceededError:
                    hit = "budget-exceeded"
            located = (mono, hit)
        rows.append(
            BoundRow(
                j=j,
                bin_count=bc,
                cum_count=kj,
                poor_bound=(n * n, pow_j),
                rich_bound=(rich_num, pow_jb),
                poor_ok=poor_ok,
                rich_regime=j > profile.crossover,
                rich_ok=rich_ok,
                remark_zone=remark,
                min_support=min_support[j],
                support_bound=(2 * pow_j, b * a - b),
                located=located,
            )
        )
    return rows


def energy_decomposition(G: ColoredCompleteGraph) -> tuple[tuple[int, ...], int]:
    """Per-bin contributions to sum(m_c^2) and the exact total.

    contributions[j] sums m_c^2 over colors with multiplicity in
    [2^j, 2^(j+1)); every nonempty bin stays strictly below
    bin_count[j] * 2^(2j+2), and the total equals color_energy(G).
    """
    _, contrib = dyadic_bins(G)
    return contrib, sum(contrib)
