"""Command lines generated from cli.COMMANDS, run through cli.main in-process.

Each example draws a subcommand and, for every option the table declares,
leaves it out or gives it a value: in range, out of range, of the wrong
type, or (for files) one of the small inputs below, valid or not.  The
contract checked is the one the CLI documents: exit status 0, 1 or 2, no
traceback, on status 2 a stderr ending in one `error:` line, on status 0
or 1 the exit status its JSON payload's `status` maps to, and the same
stdout and written files from a second run of the same command line.

Values stay small, and solve-f always gets a node limit, so each run is
short; its time limit is only ever invalid or too long to bind.
"""

import contextlib
import io
import json
import os
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localprops import cli

HUGE = 10**30

# the documented exit status of each payload status
EXIT_STATUS = {
    **dict.fromkeys(["holds", "ok", "found", "optimal", "bound-only", "budget-exhausted"], 0),
    **dict.fromkeys(["fails", "infeasible", "unsatisfiable", "none"], 1),
}

# (valid, invalid) inputs of each kind
COLORINGS = (
    {
        "g4.json": {"n": 4, "colors": [0, 0, 0, 1, 1, 2]},
        "mono5.json": {"n": 5, "colors": [0] * 10},
        "rainbow6.json": {"n": 6, "colors": list(range(15))},
        "single.json": {"n": 1, "colors": []},
        "sparse.json": {"n": 3, "colors": [7, -7, 7]},
        "huge-ids.json": {"n": 3, "colors": [HUGE, 5, HUGE]},
    },
    {
        "huge-n.json": {"n": HUGE, "colors": []},
        "bool-colors.json": {"n": 3, "colors": [True, False, 0]},
        "float-n.json": {"n": 3.0, "colors": [0, 1, 2]},
        "short.json": {"n": 4, "colors": [0, 1]},
    },
)
SETS = (
    {
        "sidon.json": [1, 2, 4, 7],
        "ap.json": [1, 2, 3, 4, 5],
        "cert.json": {"set": [1, 2, 4], "difference_set": [1, 2, 3]},
        "empty.json": [],
        "huge-set.json": [-HUGE, 0, HUGE, 3],
    },
    {"float-set.json": [1, 2.5], "bool-set.json": [True, 2]},
)
POINTS = (
    {
        "right.json": [[0, 0], [1, 0], [0, 1], [5, 5]],
        "huge-points.json": [[HUGE, 0], [0, HUGE], [-HUGE, 1]],
    },
    {
        "dup-points.json": [[0, 0], [0, 0]],
        "triple.json": [[0, 0, 0]],
        "float-points.json": [[0.5, 0], [1, 1]],
    },
)
SYSTEMS = (
    {
        "found.json": {"n": 4, "sets": [[1, 2]] * 16, "d": 2},
        "system.json": {"n": 6, "sets": [[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 5]], "d": 3},
        "huge-d.json": {"n": 3, "sets": [[0], [1, 2]], "d": HUGE},
        "huge-universe.json": {"n": HUGE, "sets": [[0, HUGE - 1], [0]], "d": 2},
    },
    {
        "no-sets.json": {"n": 4, "sets": [], "d": 2},
        "empty-set.json": {"n": 4, "sets": [[]], "d": 2},
        "outside.json": {"n": 4, "sets": [[0, 9]], "d": 2},
        "bool-d.json": {"n": 4, "sets": [[1]], "d": True},
    },
)
SHAPELESS = {"null.json": None, "number.json": 3, "text.json": "colors", "object.json": {}}
INPUTS = {k: v for kind in (COLORINGS, SETS, POINTS, SYSTEMS) for group in kind for k, v in group.items()}
INPUTS.update(SHAPELESS)
RAW_INPUTS = {
    "truncated.json": b'{"n": 3, "colors": [0, 1',
    "deep.json": b"[" * 5000 + b"]" * 5000,
    "binary.json": b"\xff\xfe\x00",
    "nan.json": b"[NaN, 1]",
}
ANY_FILE = st.sampled_from([*INPUTS, *RAW_INPUTS, "missing.json", "."])
# the kind of file each subcommand reads
READS = {
    "verify-coloring": COLORINGS,
    "energy": COLORINGS,
    "profile": COLORINGS,
    "verify-diffset": SETS,
    "construct": SETS,
    "verify-distances": POINTS,
    "lemma-check": SYSTEMS,
}

# (in-range, out-of-range) values of each integer option
INT_VALUES = {
    "--n": (st.integers(1, 8), st.integers(-1, 0)),
    "--k": (st.integers(2, 6), st.sampled_from([-1, 0, 1, 9])),
    "--ell": (st.integers(1, 10), st.sampled_from([-1, 0, 30])),
    "--m": (st.integers(2, 3), st.sampled_from([-1, 0, 1, 8])),
    "--colors": (st.integers(1, 12), st.integers(-1, 0)),
    "--seed": (st.one_of(st.integers(0, 5), st.just(HUGE)), st.integers(-2, -1)),
    "--trials": (st.integers(1, 6), st.integers(-1, 0)),
    "--size-target": (st.integers(1, 40), st.integers(-1, 0)),
    "--node-limit": (st.integers(1, 300), st.integers(-1, 0)),
    "--range-cap": (st.integers(6, 14), st.integers(-1, 0)),
    "--max-sets": (st.integers(0, 500), st.just(-1)),
    "--tuple-budget": (st.integers(0, 50), st.just(-1)),
}
WRONG = st.sampled_from(["x", "1.5", "", "0x10", "nan", "-"])
TIME_LIMITS = (st.just("600"), st.sampled_from(["0", "-1", "nan", "inf"]))
OUTPUTS = (st.sampled_from(["out.json", "out.csv"]), st.sampled_from(["no-such-dir/out.json", "."]))


@st.composite
def command_lines(draw):
    name, _, _, options = draw(st.sampled_from(cli.COMMANDS))
    argv = [name]
    drawn = {}  # integer values by flag, so that --ell mostly fits --k
    for flag, keywords in {**options, **cli._OUTPUT}.items():
        # 0 to 8: in range, 9: out of range, 10: of the wrong type, 11:
        # missing (solve-f never lacks a node limit); optional flags are
        # left out a quarter of the time
        mode = draw(st.integers(0, 11))
        if not keywords.get("required") and flag != "--kind" and draw(st.integers(0, 3)) == 0:
            mode = 11
        wrong, bad = mode == 10, mode >= 9
        if mode == 11 and not (name == "solve-f" and flag == "--node-limit"):
            continue
        if keywords.get("action") == "store_true":
            argv.append(flag)
        elif "choices" in keywords:
            argv += [flag, "bogus" if bad else draw(st.sampled_from(keywords["choices"]))]
        elif flag == "--time-limit":
            argv += [flag, draw(WRONG if wrong else TIME_LIMITS[bad])]
        elif flag == "--ell" and not bad and drawn.get("--k") in range(2, 10):
            # up to one past C(k,2), so that solve-f and solve-g can be unsatisfiable
            argv += [flag, str(draw(st.integers(1, comb(drawn["--k"], 2) + 1)))]
        elif flag in INT_VALUES:
            value = draw(WRONG if wrong else INT_VALUES[flag][bad])
            drawn[flag] = value
            argv += [flag, str(value)]
        elif flag == "--input":
            files = ANY_FILE if wrong else st.sampled_from(sorted(READS[name][bad]))
            argv += [flag, draw(files)]
        else:
            argv += [flag, draw(OUTPUTS[bad])]
    return argv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One directory holding every input file; each run writes only new files."""
    directory = tmp_path_factory.mktemp("inputs")
    for name, data in INPUTS.items():
        (directory / name).write_text(json.dumps(data))
    for name, raw in RAW_INPUTS.items():
        (directory / name).write_bytes(raw)
    return directory


def _run(directory, argv):
    """Exit status, stdout, stderr and the bytes of every file the run wrote,
    which are then removed."""
    out, err = io.StringIO(), io.StringIO()
    before = set(directory.iterdir())
    here = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
    finally:
        os.chdir(here)
        written = {p.name: p.read_bytes() for p in sorted(set(directory.iterdir()) - before)}
        for name in written:
            (directory / name).unlink()
    return rc, out.getvalue(), err.getvalue(), written


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(argv=command_lines())
def test_cli_contract_on_generated_command_lines(inputs, argv):
    rc, out, err, written = _run(inputs, argv)
    assert rc in (0, 1, 2), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
    if rc == 2:
        lines = err.splitlines()
        assert lines and "error: " in lines[-1], (argv, err)
        assert sum("error:" in line for line in lines) == 1, (argv, err)
    else:
        assert err == "", (argv, err)
        # the payload is on stdout or in --output; with --format csv there is none
        text = written[argv[argv.index("--output") + 1]] if "--output" in argv else out
        if "csv" not in argv:
            assert EXIT_STATUS[json.loads(text)["status"]] == rc, (argv, rc, text)
    assert _run(inputs, argv) == (rc, out, err, written), argv
