"""Mutants of src/localprops, and a runner that checks the tests kill them.

    python tests/mutants.py [NAME ...]

With names, only those mutants run; with none, every one does.  Each
mutant changes one exact text, which occurs once in its module, into a
replacement: a small fault of the kind a later edit could bring in
(DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer, 1978; Papadakis et al., "Mutation testing advances", Advances
in Computers, 2019).  The runner copies src/, tests/ and pyproject.toml
to a temporary directory and first runs each distinct set of test files
on the unmutated copy; it stops if any set fails there.  It then applies
one mutant at a time, runs the mutant's test files against the copy with
`pytest -x -q`, and prints each one as killed (pytest exit 1: a test
failed) or survived (exit 0), with the time taken.  Any other exit code
(a collection or usage error, no tests run) is neither, and counts as
not as expected.

A mutant marked equivalent changes no result, only speed or the work
done, so it is expected to survive; its reason says why.  Every other
mutant must be killed.  The exit code is 0 when each mutant did what its
entry expects.  tests/test_mutants.py checks, in tier-1, that every old
text still occurs exactly once, so the list cannot rot silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "localprops"
TESTS = ROOT / "tests"


class Mutant(namedtuple("Mutant", "name module old new tests reason equivalent", defaults=(False,))):
    """module under src/localprops; old occurs once in it and becomes new;
    tests are the files under tests/ expected to kill it (or, when
    equivalent, to let it survive)."""

    __slots__ = ()


MUTANTS = (
    # coloring: the public constructor counts through _dense
    Mutant(
        "constructor-counts-another-order",
        "coloring.py",
        "G = self._dense(self.n, colors)",
        "G = self._dense(self.n, sorted(colors))",
        ("test_coloring.py",),
        "the refusal compares _dense's ids with the ones kept, so both must be in edge order",
    ),
    Mutant(
        "constructor-density-refusal",
        "coloring.py",
        "if G.edge_colors != colors:",
        "if G.edge_colors != G.edge_colors:",
        ("test_coloring.py",),
        "ids that _dense had to rank, such as (0, 0, 2), are not dense and must be refused",
    ),
    Mutant(
        "constructor-density-message",
        "coloring.py",
        '"color ids must be dense 0..num_colors-1 (see from_sparse)"',
        '"color ids must be dense (see from_sparse)"',
        ("test_coloring.py",),
        "the refusal names the dense range the ids must fill",
    ),
    Mutant(
        "constructor-num-colors",
        "coloring.py",
        'object.__setattr__(self, "num_colors", G.num_colors)',
        'object.__setattr__(self, "num_colors", len(colors))',
        ("test_coloring.py",),
        "num_colors counts the distinct ids, not the edges",
    ),
    Mutant(
        "constructor-multiplicities",
        "coloring.py",
        'object.__setattr__(self, "multiplicities", G.multiplicities)',
        'object.__setattr__(self, "multiplicities", G.multiplicities[::-1])',
        ("test_coloring.py",),
        "multiplicities[c] belongs to color c",
    ),
    Mutant(
        "from-sparse-int-check",
        "coloring.py",
        '        _require_ints(colors, "color ids")\n        return cls._dense(n, colors)',
        "        return cls._dense(n, colors)",
        ("test_coloring.py", "test_cli.py"),
        "from_sparse, and so the coloring loader, must refuse ids that are not ints as the constructor does",
    ),
    # coloring: the verifier's gate, the cores and the raw-id shortcut
    Mutant(
        "gate-stage-1-holds",
        "coloring.py",
        "    if deficiency <= t:\n        return PropertyVerdict(True)",
        "    if deficiency <= t + 1:\n        return PropertyVerdict(True)",
        ("test_coloring.py",),
        "a deficiency of t + 1 can fail: only deficiency <= t holds with no scan",
    ),
    Mutant(
        "gate-stage-2-scan",
        "coloring.py",
        "    if 4 * (t + 1) > k:\n",
        "    if 4 * (t + 1) >= k:\n",
        ("test_coloring.py",),
        "at 4(t+1) = k the graph fails on the scan's first k-subsets, which the gate must scan",
    ),
    Mutant(
        "cores-size-cut",
        "coloring.py",
        "if grown == union or size > k:",
        "if grown == union or size > k + 1:",
        ("test_coloring.py",),
        "a union of k + 1 vertices lies in no k-set, so it cannot give a witness",
    ),
    Mutant(
        "scan-first-candidate",
        "coloring.py",
        "            if count < ell:\n",
        "            if count < ell - 1:\n",
        ("test_coloring.py",),
        "a prefix with ell - 1 colors can still complete to a failing k-subset",
    ),
    Mutant(
        "scan-leaf",
        "coloring.py",
        "if row.bit_count() < ell:\n                        return PropertyVerdict(False, (*path",
        "if row.bit_count() < ell - 1:\n                        return PropertyVerdict(False, (*path",
        ("test_coloring.py",),
        "a leaf with ell - 1 colors fails",
    ),
    Mutant(
        "cores-least-cut",
        "coloring.py",
        "if not differ & -differ & ~best:",
        "if False:",
        ("test_coloring.py",),
        "without the cut a later union with a larger L(T) replaces the least one found",
    ),
    Mutant(
        "raw-holds-converse",
        "coloring.py",
        "    if 4 * (t + 1) <= spec.k:\n        return False",
        "    if 4 * (t + 1) <= spec.k + 1:\n        return False",
        ("test_coloring.py", "test_constructions.py"),
        "the converse needs the t+1 surplus edges and partners to fit in k vertices",
    ),
    Mutant(
        "raw-holds-repeat-count",
        "coloring.py",
        "    if len(raw) - len(set(raw)) <= t:",
        "    if len(raw) - len(set(raw)) < t:",
        ("test_constructions.py",),
        "a repeat count of exactly t decides the trial: the estimator must build no graph for it",
    ),
    # energy: the one dyadic profile
    Mutant(
        "profile-bins",
        "energy.py",
        "bins = dyadic_bins(G)[0]",
        "bins = dyadic_bins(G)[1]",
        ("test_energy.py", "test_statistics.py"),
        "bin_count counts colors per bin; the other half of dyadic_bins sums their squares",
    ),
    Mutant(
        "profile-cum-count-order",
        "energy.py",
        "tuple(accumulate(reversed(bins)))[::-1]",
        "tuple(accumulate(bins))",
        ("test_energy.py", "test_statistics.py"),
        "cum_count[j] counts colors of multiplicity >= 2^j: a suffix sum, not a prefix sum",
    ),
    Mutant(
        "profile-crossover",
        "energy.py",
        "crossover_index(G.n, p))",
        "crossover_index(G.n + 1, p))",
        ("test_energy.py", "test_statistics.py"),
        "the crossover index is the graph's own n's",
    ),
    # forbidden: the derived parameters, set once at construction, and the popular colors
    Mutant(
        "detector-a",
        "forbidden.py",
        "a, b = self.k // (self.m + 1), self.m",
        "a, b = self.k // self.m, self.m",
        ("test_forbidden.py",),
        "a = floor(k/(m+1))",
    ),
    Mutant(
        "detector-b",
        "forbidden.py",
        'object.__setattr__(self, "b", b)',
        'object.__setattr__(self, "b", a)',
        ("test_forbidden.py",),
        "b = m, which equals a only by chance",
    ),
    Mutant(
        "detector-mono-degree-cap",
        "forbidden.py",
        '"mono_degree_cap", b * a - b)',
        '"mono_degree_cap", b * a - a)',
        ("test_forbidden.py",),
        "the cap is b a - b, which b a - a matches only when a = b, as at (6, 2)",
    ),
    Mutant(
        "popular-shift",
        "forbidden.py",
        "repeat(j)",
        "repeat(j + 1)",
        ("test_forbidden.py",),
        "a color is popular when m >> j is nonzero, i.e. m >= 2^j, not 2^(j+1)",
    ),
    Mutant(
        "set-system-min-size",
        "forbidden.py",
        '"min_size", min(map(len, sets)))',
        '"min_size", max(map(len, sets)))',
        ("test_forbidden.py",),
        "the lemma's m is the least subset size",
    ),
    # solver: reads, grows, first use, start level
    Mutant(
        "table-read-need",
        "solver.py",
        "read, prev, slots = (slots, read[1] - 1), slots, slots + 1",
        "read, prev, slots = (slots, read[1]), slots, slots + 1",
        ("test_solver.py",),
        "each assigned edge leaves one fewer open, so the next read has one fewer to count",
    ),
    Mutant(
        "table-first-open",
        "solver.py",
        "(r, k - 2)",
        "(r, k - 3)",
        ("test_solver.py",),
        "U's first read comes before k - 1 of the subset's edges: k - 2 more stay open after it",
    ),
    Mutant(
        "dfs-one-missing",
        "solver.py",
        "rest = rest & ~seen if reach + 1 == ell else 0",
        "rest = rest & ~seen if reach == ell else 0",
        ("test_solver.py",),
        "a subset one color short of ell still takes any color it has not seen",
    ),
    Mutant(
        "dfs-grow",
        "solver.py",
        "state[slot] = state[prev] | bit",
        "state[slot] = state[prev]",
        ("test_solver.py",),
        "the grown mask holds the color just taken",
    ),
    Mutant(
        "first-use-last-color",
        "solver.py",
        "tops[pos] = top + 1 if nxt == top < c - 1 else top",
        "tops[pos] = top + 1 if nxt == top < c - 2 else top",
        ("test_solver.py",),
        "the first-use rule may open every color up to c - 1",
    ),
    Mutant(
        "first-use-any-color",
        "solver.py",
        "tops[pos] = top + 1 if nxt == top < c - 1 else top",
        "tops[pos] = top + 1 if top < c - 1 else top",
        ("test_solver.py", "test_cli.py"),
        "only taking the top color opens a new one; without that rule the search visits every relabeling",
    ),
    Mutant(
        "dfs-reads-completing-last",
        "solver.py",
        "for prev, left in reads[pos]:",
        "for prev, left in reversed(reads[pos]):",
        ("test_solver.py",),
        "reading the completing subsets last changes when the pass stops, not the mask it ends with "
        "(an AND of the same masks) nor any node count",
        True,
    ),
    Mutant(
        "start-level-cap",
        "solver.py",
        "if cap <= spec.k // 2 - 1:",
        "if cap <= spec.k // 2:",
        ("test_solver.py",),
        "cap + 1 repeats of one color fit in k vertices only when 2(cap + 1) <= k",
    ),
    # numbersets: the two reductions, the mirror cut and the search loop
    Mutant(
        "difference-reduction",
        "numbersets.py",
        "[y - x for x, y in combinations(a, 2)]",
        "[y + x for x, y in combinations(a, 2)]",
        ("test_numbersets.py",),
        "edge (i, j) of the difference graph is colored by a_j - a_i",
    ),
    Mutant(
        "distance-reduction",
        "numbersets.py",
        "(p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2",
        "abs(p[0] - q[0]) + abs(p[1] - q[1])",
        ("test_numbersets.py",),
        "the distance graph is colored by squared Euclidean distance",
    ),
    Mutant(
        "mirror-cut-last-gap",
        "numbersets.py",
        "lo, hi = max(x, elems[p - 1] + a2 - 1), cap",
        "lo, hi = max(x, elems[p - 1] + a2), cap",
        ("test_numbersets.py",),
        "a last gap of a2 - 1 ties the first gap, and the mirror image then does not come first",
    ),
    Mutant(
        "repeat-count-threshold",
        "numbersets.py",
        "if (R >> sh & D).bit_count() < need:",
        "if (R >> sh & D).bit_count() <= need:",
        ("test_numbersets.py",),
        "an element repeating exactly need prefix differences can still beat the best size",
    ),
    Mutant(
        "repeat-count-shift",
        "numbersets.py",
        "if (R >> sh & D).bit_count() < need:",
        "if (R >> sh + 1 & D).bit_count() < need:",
        ("test_numbersets.py",),
        "R >> (cap - z) has one bit per difference z - y; one more shift counts z - 1 - y instead",
    ),
    Mutant(
        "subset-rows-grow",
        "numbersets.py",
        "grown.append(old[j] + [(m | s >> sh, s | bx) for m, s in old[j - 1]])",
        "grown.append([(m | s >> sh, s | bx) for m, s in old[j - 1]])",
        ("test_numbersets.py",),
        "a deeper prefix keeps the j-subsets without the new element too",
    ),
    Mutant(
        "last-row-grow",
        "numbersets.py",
        "rows = subs[p] = [up[-1] + [(m | s >> ush, s | 1 << ush) for m, s in up[-2]]]",
        "rows = subs[p] = [[(m | s >> ush, s | 1 << ush) for m, s in up[-2]]]",
        ("test_numbersets.py",),
        "the last depth's (k-1)-subsets include those without the element above it",
    ),
    Mutant(
        "unbudgeted-sets-examined",
        "numbersets.py",
        '"optimal", total',
        '"optimal", total - 1',
        ("test_numbersets.py",),
        "with no budget that binds, the plain scan examines every one of the total candidates",
    ),
    # constructions: the byte-lane draws and the gathered 3-AP check
    Mutant(
        "draw-byte-shift",
        "constructions.py",
        "bytes(b >> (8 - k) for b in range(256))",
        "bytes(b >> (9 - k) for b in range(256))",
        ("test_constructions.py",),
        "a top byte keeps its top k bits: it shifts right by 8 - k",
    ),
    Mutant(
        "draw-reject-threshold",
        "constructions.py",
        "_BYTES[colors << (8 - k) :]",
        "_BYTES[(colors << (8 - k)) + 1 :]",
        ("test_constructions.py",),
        "the least rejected top byte is colors << (8 - k), whose top k bits read colors",
    ),
    Mutant(
        "draw-lane-filter",
        "constructions.py",
        "if v < colors]",
        "if v <= colors]",
        ("test_constructions.py",),
        "randrange(colors) rejects a lane equal to colors",
    ),
    Mutant(
        "draw-batch-cap",
        "constructions.py",
        "w = min(((m - len(out)) << k) // colors + 4, _BATCH_WORDS)",
        "w = ((m - len(out)) << k) // colors + 4",
        ("test_constructions.py",),
        "one getrandbits call must stay below 2^31 bits, so a batch holds at most _BATCH_WORDS words",
    ),
    Mutant(
        "no-3ap-bisection-bound",
        "constructions.py",
        "bisect_right(doubled, x + top, i + 3)",
        "bisect_right(doubled, x + top - 1, i + 3)",
        ("test_constructions.py",),
        "2y = x + max is a progression ending at the largest element",
    ),
    Mutant(
        "no-3ap-table-offset",
        "constructions.py",
        "marks[-x % size :]",
        "marks[x % size :]",
        ("test_constructions.py",),
        "the byte at 2y % size must be the mark of 2y - x, not of 2y + x",
    ),
    Mutant(
        "no-3ap-exact-check",
        "constructions.py",
        "if doubled[j] - x in present:",
        "if True:",
        ("test_constructions.py",),
        "elements sharing a residue make byte hits that are no progression",
    ),
    Mutant(
        "no-3ap-table-size",
        "constructions.py",
        "size = 256 << (n - 1).bit_length()",
        "size = 1 << (n - 1).bit_length()",
        ("test_constructions.py",),
        "a smaller table only makes more false byte hits, and the exact check turns each away",
        True,
    ),
    # cli
    Mutant(
        "exit-code-none",
        "cli.py",
        '"unsatisfiable", "none"], 1)',
        '"unsatisfiable"], 1), **dict.fromkeys(["none"], 0)',
        ("test_cli.py", "test_cli_fuzz.py"),
        "lemma-check finding no tuple exits 1, as every failure report does",
    ),
)


def run(mutants) -> int:
    """Apply each mutant in a copy of the checkout, run its tests, and
    print what happened; the number of mutants that did not do as expected."""
    wrong = 0
    started = time.perf_counter()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a mutant never meets a stale .pyc
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="localprops-mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(TESTS, work / "tests", ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work)

        def pytest(tests) -> int:
            cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
            cmd += [f"tests/{f}" for f in tests]
            return subprocess.run(cmd, cwd=work, env=env, capture_output=True).returncode

        for tests in dict.fromkeys(m.tests for m in mutants):
            rc = pytest(tests)
            if rc != 0:
                raise SystemExit(f"{' '.join(tests)}: pytest exit {rc} before any mutant is applied")
        print(f"clean copy passes every test set in {time.perf_counter() - started:.1f} s", flush=True)
        for m in mutants:
            path = work / "src" / "localprops" / m.module
            original = path.read_text()
            if original.count(m.old) != 1:
                raise SystemExit(f"{m.name}: old text does not occur exactly once in {m.module}")
            path.write_text(original.replace(m.old, m.new))
            t0 = time.perf_counter()
            try:
                rc = pytest(m.tests)
            finally:
                path.write_text(original)
            if rc not in (0, 1):
                wrong += 1
                verdict = f"PYTEST EXIT {rc}, neither killed nor survived"
            elif (rc == 1) == m.equivalent:
                wrong += 1
                verdict = "KILLED, but listed as equivalent" if rc == 1 else "SURVIVED"
            else:
                verdict = "killed" if rc == 1 else "survived (equivalent)"
            print(f"{m.name:36} {verdict}  {time.perf_counter() - t0:6.1f} s", flush=True)
    total = len(mutants)
    print(f"{total - wrong} of {total} as expected, {wrong} not, in {time.perf_counter() - started:.1f} s")
    return wrong


def main(names) -> int:
    """Run the named mutants, or all of them when none is named."""
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise SystemExit(f"no such mutant: {' '.join(unknown)}")
    return 1 if run([by_name[name] for name in names] if names else MUTANTS) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
