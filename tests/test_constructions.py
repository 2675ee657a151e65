import hashlib
import random
from collections import Counter
from itertools import product
from math import comb, isqrt, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localprops import (
    ColoredCompleteGraph,
    LocalSpec,
    RandomColoringConfig,
    behrend_set,
    collinear_point_set,
    color_budget,
    estimate_property_probability,
    monochromatic,
    random_coloring,
    verify_isosceles_free,
    verify_no_3ap,
)
from localprops.constructions import _draw, _sphere_counts, _sphere_elements
from oracles import (
    brute_isosceles,
    brute_no_3ap,
    brute_sphere_elements,
    random_graph_corpus,
    reference_estimate,
)


def test_random_coloring_single_color_is_monochromatic():
    for n in (1, 2, 5, 8):
        assert random_coloring(RandomColoringConfig(n, 1, 7)) == monochromatic(n)


def test_random_coloring_determinism():
    cfg = RandomColoringConfig(6, 5, 123456789)
    assert random_coloring(cfg) == random_coloring(cfg)
    other = random_coloring(RandomColoringConfig(6, 5, 987654321))
    assert other != random_coloring(cfg)


def test_random_coloring_validation():
    with pytest.raises(ValueError):
        RandomColoringConfig(0, 1, 1)
    with pytest.raises(ValueError):
        RandomColoringConfig(3, 0, 1)


def test_random_coloring_edge_independence_chi_square():
    # with n=6 and c=3 all colors are (almost surely) used, so the
    # densification is the identity and raw iid-uniform cells survive
    trials, c = 3000, 3
    joint = Counter()
    marginal = Counter()
    for t in range(trials):
        g = random_coloring(RandomColoringConfig(6, c, 31000 + t))
        a, b = g.edge_colors[0], g.edge_colors[7]
        joint[(a, b)] += 1
        marginal[a] += 1
    exp = trials / 9
    chi2 = sum((joint[(a, b)] - exp) ** 2 / exp for a in range(3) for b in range(3))
    assert chi2 < 26.12  # chi-square df=8, p=0.001
    expm = trials / 3
    chi2m = sum((marginal[a] - expm) ** 2 / expm for a in range(3))
    assert chi2m < 13.82  # df=2, p=0.001


def test_random_inputs_take_only_ints():
    for bad in ((5, True, 1), (5.0, 2, 1), (5, 2.0, 1), (5, 2, 1.5), (True, 2, 1), (5, 2, "1")):
        with pytest.raises(ValueError):
            RandomColoringConfig(*bad)
    for n in (6.0, True, "6"):
        with pytest.raises(ValueError):
            color_budget(n, LocalSpec(4, 5))
    for trials, seed in ((2.0, 1), (True, 1), (2, 1.0), (2, None)):
        with pytest.raises(ValueError):
            estimate_property_probability(6, 3, LocalSpec(3, 2), trials, seed)


# sha256 of the repr of random_coloring(RandomColoringConfig(n, colors,
# seed)).edge_colors, concatenated over n in STREAM_NS and seed in
# STREAM_SEEDS, per color count (1, powers of two, and others)
STREAM_NS = (1, 2, 3, 6, 10, 14)
STREAM_SEEDS = (0, 1, 12345, 2**40 + 3)
STREAM_PINS = {
    1: "a282abea2ad91cc428aa7a6af67cfb350f93725947c8bac0d00b51a815dc6a21",
    2: "02e7200bde9eb813601563734800c844e38fc5d95fa9ca876544adedb78547f5",
    3: "cc03e3fcca1280caee2238c7cc8d171e9384565aa3695f0f35e382c27067b106",
    4: "93074335643a005dfe649c9c682d3962b2cb17412b071fc82c93f1794e8a8613",
    7: "19154225a07f4c44e13740e19aee28b125be4f1b3344098ff5791f33bdb19512",
    8: "4f90bc39cb6e0cb2fe488ebf4fffab15087026a741aec7c5d85c4f674bafd268",
    16: "2f9b0cf0c23dc65e0651e1adcfd798cca43cc37efec22503ee0fe996177938f7",
    45: "76b34fe87936c9edd7fbe34b5639cd481b2a4793b639fb2fe91a620f9f64969a",
    64: "9c12e20f24fafcc2d6fbea7a11257659e6360d0be903b97c67985557d28c6bb9",
    1000: "92916c39c4b58241d2b8fb429e79d191b792105fd2d8623e4b65c6d1dc8b625e",
}
# (n, colors, k, ell, seed): hits out of 40 trials
ESTIMATE_PINS = {
    (5, 1, 3, 1, 2): 40,
    (4, 2, 3, 2, 3): 12,
    (6, 3, 3, 2, 4): 2,
    (5, 4, 3, 2, 8): 19,
    (8, 13, 4, 4, 11): 8,
    (6, 16, 3, 3, 9): 1,
    (7, 32, 4, 5, 11): 15,
    (9, 64, 4, 6, 2**33 + 1): 0,
}


def test_random_stream_is_pinned():
    """The colorings and estimates the seeds give are fixed byte for byte,
    so a faster way to draw them must reproduce the same stream."""
    for colors, pin in STREAM_PINS.items():
        h = hashlib.sha256()
        for n in STREAM_NS:
            for seed in STREAM_SEEDS:
                h.update(repr(random_coloring(RandomColoringConfig(n, colors, seed)).edge_colors).encode())
        assert h.hexdigest() == pin, colors
    for (n, colors, k, ell, seed), hits in ESTIMATE_PINS.items():
        assert estimate_property_probability(n, colors, LocalSpec(k, ell), 40, seed) == hits / 40


# the same pins beyond 2^32 colors, where each randrange spans several words
WIDE_STREAM_PINS = {
    2**32: "f202c2000636bbbd1a19c0fc52d2c1eda47d3b910f69c7cdea993fdb2d743a49",
    2**40: "78cb7f92143034d558b206d04f83b58766c64e1f59e5bbe5599700a36be2157e",
    3**41: "4102e02050282e244129434c64f9c55a86ee92d644b55d84036b20c8548a84dd",
}
# hits out of 40 trials where 4(t+1) <= k, so the repeat count alone decides
REPEAT_COUNT_ESTIMATE_PINS = {
    (5, 12, 4, 6, 6): 1,
    (6, 40, 4, 6, -3): 3,
    (6, 216, 5, 10, 7): 23,
    (8, 512, 5, 10, 2**63): 21,
    (10, 2000, 5, 10, 2**64 + 5): 21,
    (8, 300, 8, 27, 4): 22,
    (12, 5000, 8, 27, 9): 35,
}
# sha256 of repr((n, edge_colors)) over random_graph_corpus(*args)
CORPUS_PINS = {
    (7, 40): "6554da185fbd70ca44cca35aa2a2008081a7f1ab2f1c4d574fbeb6506ac53179",
    (77, 300): "0b7e2ec447ed97eaca4914e9392662f2f7356c8bdfdd78c28eb605293503333e",
    (2026, 250, 2, 8): "57c616d5285eb1020f85d636f89f0c4d56254ee2e2af99d963a83cd7afc83967",
}


def test_wide_streams_and_repeat_count_estimates_are_pinned():
    for colors, pin in WIDE_STREAM_PINS.items():
        h = hashlib.sha256()
        for n in STREAM_NS:
            for seed in STREAM_SEEDS:
                h.update(repr(random_coloring(RandomColoringConfig(n, colors, seed)).edge_colors).encode())
        assert h.hexdigest() == pin, colors
    for (n, colors, k, ell, seed), hits in REPEAT_COUNT_ESTIMATE_PINS.items():
        assert 4 * (comb(k, 2) - ell + 1) <= k
        assert estimate_property_probability(n, colors, LocalSpec(k, ell), 40, seed) == hits / 40


def test_oracle_corpus_is_pinned():
    """The oracles draw their own corpus; it is the one the library drew."""
    for args, pin in CORPUS_PINS.items():
        h = hashlib.sha256()
        for g in random_graph_corpus(*args):
            h.update(repr((g.n, g.edge_colors)).encode())
        assert h.hexdigest() == pin, args


def test_batched_draws_replay_per_edge_randrange():
    for seed in (0, 1, 12345, 2**63):
        for m in (0, 1, 15, 45, 780):
            for colors in (1, 2, 3, 4, 8, 9, 1000, 2**31, 2**32 - 1, 2**32, 2**40):
                want = random.Random(seed)
                got = _draw(random.Random(seed), m, colors)
                assert got == [want.randrange(colors) for _ in range(m)], (seed, m, colors)


def test_estimate_matches_reference_estimate():
    # (3,3), (4,5): 4(t+1) > k, so failing trials are scanned; (4,6),
    # (5,10), (8,27): the repeat count decides every trial
    for k, ell in ((3, 3), (4, 5), (4, 6), (5, 10), (8, 27)):
        for n in (k, k + 1, k + 2):
            m = comb(n, 2)
            for colors in sorted({1, 2, m // 2 + 1, m, m + 3, 4 * m, 2**33}):
                seed = 1000 * n + colors % 997
                want = reference_estimate(n, colors, k, ell, 12, seed)
                got = estimate_property_probability(n, colors, LocalSpec(k, ell), 12, seed)
                assert got == want / 12, (n, colors, k, ell)


def test_estimate_validates_inputs_once_in_order():
    spec = LocalSpec(4, 5)
    cases = (
        ({"colors": 0}, "need at least one color"),
        ({"colors": -2}, "need at least one color"),
        ({"colors": True}, "n, colors and seed must be integers, got True"),
        ({"n": 6.0}, "n, colors and seed must be integers, got 6.0"),
        ({"trials": 0}, "need at least one trial"),
        ({"trials": 2.0}, "trials and seed must be integers, got 2.0"),
        ({"seed": 1.5}, "trials and seed must be integers, got 1.5"),
        ({"n": 3}, "k=4 exceeds n=3"),
        # the first failing check names the error
        ({"trials": 2.0, "seed": 1.5}, "trials and seed must be integers, got 2.0"),
        ({"colors": True, "seed": 1.5}, "trials and seed must be integers, got 1.5"),
        ({"n": 3, "trials": 2.0}, "trials and seed must be integers, got 2.0"),
        ({"trials": 0, "colors": 0}, "need at least one trial"),
        ({"n": 3, "trials": 0}, "need at least one trial"),
        ({"n": 3, "colors": 0}, "k=4 exceeds n=3"),
        ({"n": 3, "colors": True}, "k=4 exceeds n=3"),
        ({"n": 6.0, "colors": 0}, "n, colors and seed must be integers, got 6.0"),
    )
    for bad, message in cases:
        args = {"n": 6, "colors": 4, "spec": spec, "trials": 3, "seed": 1, **bad}
        with pytest.raises(ValueError) as err:
            estimate_property_probability(**args)
        assert str(err.value) == message, bad


def test_estimate_builds_no_graph_when_the_repeat_count_decides(monkeypatch):
    built = []
    dense = ColoredCompleteGraph._dense

    def counted(n, colors):
        built.append(n)
        return dense(n, colors)

    monkeypatch.setattr(ColoredCompleteGraph, "_dense", counted)
    estimate_property_probability(10, 1000, LocalSpec(5, 10), 50, 3)
    assert built == []
    # (4,5) has t = 1 and 4(t+1) > k: its trials past the budget are scanned
    estimate_property_probability(6, 8, LocalSpec(4, 5), 5, 3)
    assert built == [6] * 5


def test_color_budget_examples():
    assert color_budget(100, LocalSpec(4, 5)) == 100
    assert color_budget(100, LocalSpec(4, 4)) == 22
    for n in range(1, 200):
        expect = isqrt(n) if isqrt(n) ** 2 == n else isqrt(n) + 1
        assert color_budget(n, LocalSpec(3, 2)) == expect
    assert color_budget(7, LocalSpec(2, 1)) == 1  # zero exponent
    for n in (0, -3):
        with pytest.raises(ValueError, match="^n must be positive$"):
            color_budget(n, LocalSpec(3, 2))


def test_color_budget_is_least_integer_root():
    # the least x with x^q >= n^p; checked against a linear scan where the
    # value is small, and by the minimality pair x^q >= n^p > (x-1)^q always
    for n in range(1, 201):
        for k in range(2, 7):
            for ell in range(1, k * (k - 1) // 2 + 1):
                p, q = k - 2, k * (k - 1) // 2 - ell + 1
                x = color_budget(n, LocalSpec(k, ell))
                assert x >= 1 and x**q >= n**p
                assert x == 1 or (x - 1) ** q < n**p, (n, k, ell, x)
                if x <= 200:
                    scan = 1
                    while scan**q < n**p:
                        scan += 1
                    assert x == scan, (n, k, ell, x, scan)


def test_color_budget_huge_n_is_exact():
    n = 10**200
    assert color_budget(n, LocalSpec(5, 10)) == n**3  # n^(3/1)
    assert color_budget(n, LocalSpec(4, 6)) == n**2  # n^(2/1)
    assert color_budget(n, LocalSpec(4, 5)) == n  # n^(2/2)
    assert color_budget(n, LocalSpec(3, 2)) == 10**100  # n^(1/2)
    x = color_budget(n, LocalSpec(6, 1))  # ceil(n^(4/15))
    assert x**15 >= n**4 > (x - 1) ** 15
    x = color_budget(n + 1, LocalSpec(4, 4))  # ceil((n+1)^(2/3))
    assert x**3 >= (n + 1) ** 2 > (x - 1) ** 3


def test_color_budget_denominator_guard():
    # ell beyond C(4,2), so repeat_budget = C(4,2) - ell < 0 and the
    # exponent's denominator repeat_budget + 1 is not positive
    for ell in (8, 7):
        bogus = SimpleNamespace(k=4, ell=ell, repeat_budget=comb(4, 2) - ell)
        with pytest.raises(ValueError, match="repeat_budget \\+ 1 must be positive"):
            color_budget(10, bogus)


def test_estimate_probability_trivial_cases():
    assert estimate_property_probability(4, 1, LocalSpec(3, 2), 50, 1) == 0.0
    assert estimate_property_probability(5, 2, LocalSpec(3, 3), 50, 1) == 0.0
    with pytest.raises(ValueError):
        estimate_property_probability(3, 2, LocalSpec(4, 2), 10, 1)
    with pytest.raises(ValueError):
        estimate_property_probability(4, 2, LocalSpec(3, 2), 0, 1)


def test_estimate_probability_matches_rainbow_product_formula():
    # P(all six edges of K_4 distinctly colored) = prod(1 - i/c)
    exact = prod(1 - i / 6 for i in range(6))
    est = estimate_property_probability(4, 6, LocalSpec(4, 6), 20000, 12345)
    sigma = (exact * (1 - exact) / 20000) ** 0.5
    assert abs(est - exact) < 4 * sigma

    exact = prod(1 - i / 1000 for i in range(6))
    est = estimate_property_probability(4, 1000, LocalSpec(4, 6), 3000, 777)
    sigma = (exact * (1 - exact) / 3000) ** 0.5
    assert abs(est - exact) < 4 * sigma


def test_estimate_probability_rare_rainbow_poisson_bound():
    # K_6 with 15 colors: rainbow probability 15!/15^15 ~ 3e-6, so 30000
    # trials should see at most a handful of hits (mean ~0.09)
    est = estimate_property_probability(6, 15, LocalSpec(6, 15), 30000, 99)
    assert est * 30000 <= 4


def test_estimate_probability_monotone_in_colors():
    spec = LocalSpec(3, 2)
    ests = [
        estimate_property_probability(6, c, spec, 300, 2026 + c)
        for c in range(1, 12)
    ]
    pairs = list(zip(ests, ests[1:]))
    good = sum(1 for a, b in pairs if b >= a)
    assert good >= 0.9 * len(pairs)


def test_estimate_probability_deterministic():
    a = estimate_property_probability(6, 4, LocalSpec(3, 2), 200, 5)
    b = estimate_property_probability(6, 4, LocalSpec(3, 2), 200, 5)
    assert a == b


def test_behrend_examples():
    assert behrend_set(1) == (1,)
    s4 = behrend_set(4)
    assert len(s4) >= 4 and verify_no_3ap(s4) is None
    s64 = behrend_set(64)
    assert len(s64) >= 64 and verify_no_3ap(s64) is None
    assert s64[-1] <= 9**5  # five base-9 digits suffice at this size
    assert all(v > 0 for v in s64)
    with pytest.raises(ValueError):
        behrend_set(0)


def test_behrend_fuzz_targets():
    for target in [1, 2, 3, 5, 6, 7, 8, 15, 16, 24, 25, 31, 63, 100, 128]:
        out = behrend_set(target)
        assert len(out) >= target
        assert verify_no_3ap(out) is None
        assert brute_no_3ap(out) is None


def test_sphere_elements_match_digit_vector_enumeration():
    for dim in range(1, 6):
        base = 2 * dim - 1
        by_radius = {}
        for digits in product(range(dim), repeat=dim):
            value = sum(x * base**t for t, x in enumerate(digits))
            by_radius.setdefault(sum(x * x for x in digits), []).append(value)
        for radius in range(dim * (dim - 1) ** 2 + 1):
            got = _sphere_elements(dim, base, radius)
            assert sorted(got) == sorted(by_radius.get(radius, [])), (dim, radius)


def test_behrend_matches_oracle_sphere_in_every_dimension():
    # each target needs one more digit than the one before
    best = 0
    for dim, target in enumerate((1, 2, 6, 24, 130, 1000, 11655), start=1):
        counts = _sphere_counts(dim)
        assert best < target <= max(counts)
        best = max(counts)
        oracle = brute_sphere_elements(dim, 2 * dim - 1, counts.index(best))
        assert behrend_set(target) == tuple(sorted(v + 1 for v in oracle)), dim


def test_verify_no_3ap_examples():
    assert verify_no_3ap([1, 2, 3]) == (1, 2, 3)
    assert verify_no_3ap([1, 2, 4, 5]) is None
    assert verify_no_3ap([]) is None
    assert verify_no_3ap([7]) is None
    assert verify_no_3ap([1, 3, 5, 7]) == (1, 3, 5)  # least witness


def test_verify_no_3ap_matches_brute():
    rng = random.Random(9001)
    for _ in range(300):
        vals = rng.sample(range(1, 70), rng.randint(0, 14))
        assert verify_no_3ap(vals) == brute_no_3ap(vals)


@st.composite
def _no_3ap_cases(draw):
    """Unsorted int lists with duplicates and negatives, 0 to 20 long; some
    get a planted x < y < z whose z is the maximum, so 2y = x + max."""
    values = draw(st.lists(st.integers(-40, 80), max_size=20))
    if draw(st.booleans()):
        x, d = draw(st.integers(-40, 60)), draw(st.integers(1, 30))
        values = [v for v in values if v <= x + 2 * d] + [x, x + d, x + 2 * d]
    return draw(st.permutations(values))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_no_3ap_cases())
def test_verify_no_3ap_matches_brute_fuzzed(values):
    assert verify_no_3ap(values) == brute_no_3ap(values)


def test_verify_no_3ap_small_sets_and_the_bound():
    for values in ([], [5], [5, 5], [3, -3], [2, 1, 2]):
        assert verify_no_3ap(values) is None
    assert verify_no_3ap([9, -3, 3, 3]) == (-3, 3, 9)  # z is the maximum
    assert verify_no_3ap((v for v in [1, 4, 7])) == (1, 4, 7)  # any iterable


def test_verifiers_take_only_ints():
    for bad in (True, 2.0, "2"):
        with pytest.raises(ValueError):
            verify_no_3ap([1, bad, 3])
        with pytest.raises(ValueError):
            verify_isosceles_free([(0, 0), (1, 0), (bad, 1)])
        with pytest.raises(ValueError):
            verify_isosceles_free([(0, 0), (1, 0), (1, bad)])


def test_collinear_point_set_takes_only_ints():
    for bad in ([1, True, 2.0], [1.0], [1, "2"], [None]):
        with pytest.raises(ValueError):
            collinear_point_set(bad)
    assert collinear_point_set([3, 1, 1]) == ((1, 0), (3, 0))


def test_collinear_point_set_examples():
    assert collinear_point_set([1, 2, 4]) == ((1, 0), (2, 0), (4, 0))
    assert verify_isosceles_free(collinear_point_set([1, 2, 4])) is None
    witness = verify_isosceles_free(collinear_point_set([1, 2, 3]))
    assert witness == ((1, 0), (2, 0), (3, 0))
    assert verify_isosceles_free(collinear_point_set(behrend_set(8))) is None
    with pytest.raises(ValueError):
        collinear_point_set([])


def test_verify_isosceles_free_examples():
    w = verify_isosceles_free([(0, 0), (1, 0), (0, 1)])
    assert w is not None and set(w) == {(0, 0), (1, 0), (0, 1)}
    assert verify_isosceles_free([(0, 0), (1, 0), (3, 0)]) is None
    assert verify_isosceles_free([(0, 0), (1, 0), (2, 0)]) is not None
    with pytest.raises(ValueError):
        verify_isosceles_free([(0, 0), (0, 0), (1, 1)])
    # apex (3, 3) has three points at squared distance 25; no other apex has a repeat
    pts = [(8, 3), (0, 7), (3, 3), (7, 0)]
    assert verify_isosceles_free(pts) == brute_isosceles(pts) == ((0, 7), (3, 3), (7, 0))


def test_verify_isosceles_matches_brute():
    rng = random.Random(7777)
    for _ in range(250):
        pts = set()
        for _ in range(rng.randint(2, 9)):
            pts.add((rng.randint(0, 9), rng.randint(0, 9)))
        pts = sorted(pts)
        rng.shuffle(pts)  # the witness is in sorted point order whatever the input order
        assert verify_isosceles_free(pts) == brute_isosceles(pts)


def test_3ap_iff_degenerate_isosceles():
    rng = random.Random(321)
    for _ in range(400):
        vals = sorted(rng.sample(range(1, 120), rng.randint(3, 16)))
        if rng.random() < 0.4:  # plant a progression in some instances
            x, y = sorted(rng.sample(range(1, 40), 2))
            vals = sorted(set(vals) | {x, y, 2 * y - x})
        has_ap = verify_no_3ap(vals) is not None
        has_iso = verify_isosceles_free(collinear_point_set(vals)) is not None
        assert has_ap == has_iso
