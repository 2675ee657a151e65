"""Generators for the standard constructions: random colorings, digit-sphere
progression-free integer sets, and isosceles-free collinear point sets.

The random coloring assigns each edge an independent uniform color; the
color budget ceil(n^((k-2)/(C(k,2)-ell+1))) is the color count at which
such a coloring starts satisfying a (k, ell) local property with decent
probability.  Its colors are drawn in batches: one getrandbits call
yields many 32-bit words, and each word gives one color by the rejection
rule of randrange, so the stream is the same as one randrange per edge.
The estimator reseeds one generator per trial and judges each trial from
the raw color ids, building a graph only when the repeat count alone
cannot decide.  The progression-free sets are the classical digit-sphere
(Behrend) construction: integers whose base-(2d-1) digits in {0..d-1}
form a vector on a fixed Euclidean sphere.  Digit addition then has no
carries, so a 3-term arithmetic progression would force a sphere to
contain a midpoint, which strict convexity forbids.  The sphere joins its
low and high digit halves on squared norm; verify_no_3ap tries only the
middle terms y with 2y <= x + max.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import count, repeat
from operator import sub

from .coloring import ColoredCompleteGraph, LocalSpec, _raw_holds, _require_ints, edge_count
from .numbersets import integer_set, point_set

__all__ = [
    "RandomColoringConfig",
    "random_coloring",
    "color_budget",
    "estimate_property_probability",
    "behrend_set",
    "verify_no_3ap",
    "collinear_point_set",
    "verify_isosceles_free",
]

_MASK64 = (1 << 64) - 1


def _mix_seed(seed: int, index: int) -> int:
    """splitmix64-style per-trial seed; stable across platforms and runs."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class RandomColoringConfig:
    """Parameters for an iid-uniform edge coloring of K_n."""

    n: int
    colors: int
    seed: int

    def __post_init__(self) -> None:
        _require_ints((self.n, self.colors, self.seed), "n, colors and seed")
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if self.colors < 1:
            raise ValueError("need at least one color")


def random_coloring(cfg: RandomColoringConfig) -> ColoredCompleteGraph:
    """Color every edge independently and uniformly from {0..colors-1}.

    The same seed reproduces the same coloring bit for bit.  Unused ids
    are densified away, which never changes any statistic or verdict.
    """
    raw = _draw(random.Random(cfg.seed), edge_count(cfg.n), cfg.colors)
    return ColoredCompleteGraph._dense(cfg.n, raw)


def _draw(rng: random.Random, m: int, colors: int) -> list[int]:
    """[rng.randrange(colors) for _ in range(m)], from batched words.

    For colors < 2^32, randrange(colors) keeps the top k = colors.bit_length()
    bits of one 32-bit word and rejects values >= colors.  getrandbits(32w)
    returns w such words, the first in the lowest bits, so one shift and
    one mask leave each word's top k bits in its own 32-bit lane, and the
    lanes read in order replay that stream.  Each batch is sized by the
    acceptance rate and may overdraw: rng must not be used afterwards.
    """
    k = colors.bit_length()
    if k > 32:  # here each getrandbits(k) spans several words
        return [rng.randrange(colors) for _ in range(m)]
    lane = ((1 << k) - 1).to_bytes(4, "little")
    below = colors.__gt__
    out: list[int] = []
    while len(out) < m:
        w = ((m - len(out)) << k) // colors + 4
        tops = rng.getrandbits(32 * w) >> (32 - k) & int.from_bytes(lane * w, "little")
        out += filter(below, memoryview(tops.to_bytes(4 * w, sys.byteorder)).cast("I"))
    del out[m:]
    return out


def color_budget(n: int, spec: LocalSpec) -> int:
    """ceil(n^((k-2)/(repeat_budget+1))), the random construction's color count."""
    _require_ints((n,), "n")
    if n < 1:
        raise ValueError("n must be positive")
    p = spec.k - 2
    q = spec.repeat_budget + 1  # >= 1 for every LocalSpec, which has ell <= C(k,2)
    if q < 1:
        raise ValueError(f"repeat_budget + 1 must be positive, got {q}")
    target = n**p
    # smallest x with x^q >= n^p, by bisection on integers: (2^ceil(b/q))^q
    # >= 2^b > target, where b is target's bit length
    lo, hi = 1, 1 << -(-target.bit_length() // q)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**q >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def estimate_property_probability(
    n: int, colors: int, spec: LocalSpec, trials: int, seed: int
) -> float:
    """Fraction of random colorings of K_n satisfying the local property.

    Trial t colors K_n as random_coloring does with the derived seed
    mix(seed, t), so the estimate is reproducible and independent of any
    execution order.  The inputs are validated once; each trial then
    reseeds one generator, draws its colors in batches and takes its
    verdict from the raw ids (coloring._raw_holds), with no graph built
    when the repeat count decides it.
    """
    _require_ints((trials, seed), "trials and seed")
    if trials < 1:
        raise ValueError("need at least one trial")
    if spec.k > n:
        raise ValueError(f"k={spec.k} exceeds n={n}")
    RandomColoringConfig(n, colors, seed)  # the checks every trial's config would make
    m = edge_count(n)
    rng = random.Random()
    hits = 0
    for t in range(trials):
        rng.seed(_mix_seed(seed, t))
        if _raw_holds(n, _draw(rng, m, colors), spec):
            hits += 1
    return hits / trials


def _sphere_counts(dim: int) -> list[int]:
    """counts[r] = number of vectors in {0..dim-1}^dim with squared norm r."""
    counts = [1]
    squares = [x * x for x in range(dim)]
    for _ in range(dim):
        grown = [0] * (len(counts) + squares[-1])
        for r, c in enumerate(counts):
            if c:
                for s in squares:
                    grown[r + s] += c
        counts = grown
    return counts


def _sphere_elements(dim: int, base: int, radius: int) -> list[int]:
    """All integers whose digit vector lies on the given squared-norm sphere
    (in no particular order), by a half-digit join: the (squared norm,
    value) pairs of the low floor(dim/2) and the high ceil(dim/2) digits
    are grown one position at a time, and each high pair of norm r joins
    every low value of norm radius - r."""
    halves = []
    for positions in (range(dim // 2), range(dim // 2, dim)):
        pairs = [(0, 0)]
        for pos in positions:
            steps = [(x * x, x * base**pos) for x in range(dim)]
            pairs = [(r + s, v + t) for r, v in pairs for s, t in steps]
        halves.append(pairs)
    low_by_norm: dict[int, list[int]] = {}
    for r, v in halves[0]:
        low_by_norm.setdefault(r, []).append(v)
    return [v + u for r, v in halves[1] for u in low_by_norm.get(radius - r, ())]


def behrend_set(size_target: int) -> tuple[int, ...]:
    """A set of >= size_target positive integers with no 3-term AP.

    Uses the smallest digit count d whose densest sphere (by direct
    count over all d^d digit vectors, base 2d-1) reaches the target;
    ties between radii go to the smallest radius.  The whole sphere is
    returned, shifted by +1 to keep every element positive.
    """
    _require_ints((size_target,), "size_target")
    if size_target < 1:
        raise ValueError("size_target must be positive")
    for dim in count(1):
        if dim**dim < size_target:  # no sphere holds more than all d^d vectors
            continue
        counts = _sphere_counts(dim)
        best = max(counts)
        if best >= size_target:
            radius = counts.index(best)
            elems = _sphere_elements(dim, 2 * dim - 1, radius)
            return tuple(sorted(v + 1 for v in elems))


def verify_no_3ap(values) -> tuple[int, int, int] | None:
    """Least triple x < y < z with x + z = 2y, or None if progression-free.

    Values must be ints, as for numbersets.integer_set.  For each x, only
    a y with 2y <= x + max can have z = 2y - x in the set: bisection on
    the doubled elements bounds that range exactly, one C-level isdisjoint
    probe tests all its z, and only a range that hits is rescanned for
    its least y."""
    elems = integer_set(values)
    if len(elems) < 3:
        return None
    present = set(elems)
    doubled = [2 * y for y in elems]
    top = elems[-1]
    for i, x in enumerate(elems):
        hi = bisect_right(doubled, x + top, i + 1)
        if not present.isdisjoint(map(sub, doubled[i + 1 : hi], repeat(x))):
            for j in range(i + 1, hi):
                if doubled[j] - x in present:
                    return x, elems[j], doubled[j] - x
    return None


def collinear_point_set(values) -> tuple[tuple[int, int], ...]:
    """Place each int a (as numbersets.integer_set takes them) on the x-axis as (a, 0), ascending."""
    elems = integer_set(values)
    if not elems:
        raise ValueError("input set is empty")
    return tuple((a, 0) for a in elems)


def verify_isosceles_free(points) -> tuple | None:
    """A triple with two equal pairwise squared distances, or None.

    Degenerate (collinear) triples count.  Any such triple has an apex
    vertex carrying both equal sides, so it suffices to scan, for every
    point, the squared distances to all others for a duplicate.  The
    returned witness is the least triple over first-duplicate hits, in
    sorted point order; the scan is deterministic.  Each apex's distances
    are one list, and one C-level set probe skips an apex with no
    duplicate; only an apex that has one is rescanned for its hits (its
    own distance 0 is unique, as the points are distinct).  Coordinates
    must be ints and points distinct, as for numbersets.point_set.
    """
    pts = sorted(point_set(points))
    best = None
    for q in pts:
        qx, qy = q
        dists = [(qx - x) ** 2 + (qy - y) ** 2 for x, y in pts]
        if len(set(dists)) == len(dists):
            continue
        first_at: dict[int, int] = {}
        for ri, d2 in enumerate(dists):
            if d2 in first_at:
                tri = tuple(sorted((q, pts[first_at[d2]], pts[ri])))
                if best is None or tri < best:
                    best = tri
            else:
                first_at[d2] = ri
    return best
