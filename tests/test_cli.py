import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from localprops import cli
from localprops.io import dump_json


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "localprops", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return proc


def write_coloring(path, n, colors):
    path.write_text(dump_json({"n": n, "colors": list(colors)}))


def test_importing_the_cli_loads_neither_typing_nor_threading():
    # both cost import time at every command line; -S keeps site hooks out
    code = "import localprops.cli, sys; print(sorted({'typing', 'threading'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_usage_errors_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("verify-coloring").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("construct", "--kind", "random-coloring", "--n", "4").returncode == 2


def test_construct_missing_option_prints_construct_usage(tmp_path):
    proc = run_cli(
        "construct", "--kind", "random-coloring", "--n", "4", "--colors", "2",
        "--artifact-out", str(tmp_path / "x.json"),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: localprops construct ")
    assert proc.stderr.splitlines()[-1] == (
        "localprops construct: error: --kind random-coloring requires --seed"
    )


def test_boolean_ids_in_input_exit_2_without_traceback(tmp_path):
    bad = tmp_path / "bool.json"
    for data in ({"n": True, "colors": []}, {"n": 3, "colors": [True, False, 0]}):
        bad.write_text(json.dumps(data))
        proc = run_cli("verify-coloring", "--input", str(bad), "--k", "2", "--ell", "1")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "integer" in proc.stderr


def test_non_integer_values_in_input_exit_2_with_one_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    cases = [
        ("verify-coloring", {"n": 3, "colors": [0.0, 0.0, 1.0]}, "color ids must be integers, got 0.0"),
        ("verify-coloring", {"n": 3, "colors": [0, 1, True]}, "color ids must be integers, got True"),
        ("lemma-check", {"n": 5, "sets": [[0, 1.5]], "d": 2}, "set elements must be integers, got 1.5"),
        ("lemma-check", {"n": 5, "sets": [["a"]], "d": 2}, "set elements must be integers, got 'a'"),
        ("lemma-check", {"n": 5, "sets": [[0, [1]]], "d": 2}, "set elements must be integers, got [1]"),
        ("verify-distances", [[0, 0], [1, [2]]], "point coordinates must be integers, got [2]"),
        ("verify-diffset", [1, [2]], "set elements must be integers, got [2]"),
    ]
    for command, data, message in cases:
        bad.write_text(json.dumps(data))
        spec = [] if command == "lemma-check" else ["--k", "2", "--ell", "1"]
        assert cli.main([command, "--input", str(bad), *spec]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"localprops: error: {message}\n")


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("localprops ")


def test_verify_coloring_exit_codes(tmp_path):
    good = tmp_path / "rainbow3.json"
    write_coloring(good, 3, [0, 1, 2])
    proc = run_cli("verify-coloring", "--input", str(good), "--k", "3", "--ell", "3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["status"] == "holds" and payload["schema_version"] == 1

    bad = tmp_path / "mono4.json"
    write_coloring(bad, 4, [0] * 6)
    proc = run_cli("verify-coloring", "--input", str(bad), "--k", "3", "--ell", "2")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["status"] == "fails"
    assert payload["witness"] == [0, 1, 2] and payload["witness_colors"] == 1


def test_verify_coloring_normalizes_sparse_ids(tmp_path):
    f = tmp_path / "sparse.json"
    write_coloring(f, 3, [7, 7, 12])
    proc = run_cli("verify-coloring", "--input", str(f), "--k", "3", "--ell", "2")
    assert proc.returncode == 0


def test_verify_coloring_infeasible_query(tmp_path):
    f = tmp_path / "small.json"
    write_coloring(f, 3, [0, 1, 2])
    proc = run_cli("verify-coloring", "--input", str(f), "--k", "4", "--ell", "2")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "infeasible"


def test_verify_coloring_bad_file(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{")
    assert run_cli("verify-coloring", "--input", str(f), "--k", "3", "--ell", "2").returncode == 2
    f.write_text(dump_json({"n": 3, "colors": [0, 1]}))
    assert run_cli("verify-coloring", "--input", str(f), "--k", "3", "--ell", "2").returncode == 2
    assert run_cli("verify-coloring", "--input", str(tmp_path / "nope.json"), "--k", "3", "--ell", "2").returncode == 2


def test_verify_diffset(tmp_path):
    f = tmp_path / "ap.json"
    f.write_text(dump_json([1, 2, 3, 4]))
    proc = run_cli("verify-diffset", "--input", str(f), "--k", "4", "--ell", "5")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["witness"] == [1, 2, 3, 4]

    f2 = tmp_path / "good.json"
    f2.write_text(dump_json([1, 2, 4, 7]))
    assert run_cli("verify-diffset", "--input", str(f2), "--k", "4", "--ell", "5").returncode == 0


def test_verify_distances(tmp_path):
    f = tmp_path / "pts.json"
    f.write_text(dump_json([[0, 0], [1, 0], [0, 1]]))
    proc = run_cli("verify-distances", "--input", str(f), "--k", "3", "--ell", "3")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["witness_colors"] == 2
    f.write_text(dump_json([[0, 0], [1, 0], [3, 0]]))
    assert run_cli("verify-distances", "--input", str(f), "--k", "3", "--ell", "3").returncode == 0


def test_construct_random_coloring_deterministic(tmp_path):
    art1, art2 = tmp_path / "a.json", tmp_path / "b.json"
    out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
    base = ["construct", "--kind", "random-coloring", "--n", "7", "--colors", "4", "--seed", "99"]
    assert run_cli(*base, "--artifact-out", str(art1), "--output", str(out1)).returncode == 0
    assert run_cli(*base, "--artifact-out", str(art2), "--output", str(out2)).returncode == 0
    assert art1.read_bytes() == art2.read_bytes()
    assert json.loads(out1.read_text())["params"] == json.loads(out2.read_text())["params"]


def test_construct_requires_seed(tmp_path):
    proc = run_cli(
        "construct", "--kind", "random-coloring", "--n", "4", "--colors", "2",
        "--artifact-out", str(tmp_path / "x.json"),
    )
    assert proc.returncode == 2


def test_construct_behrend_and_collinear_roundtrip(tmp_path):
    setf = tmp_path / "set.json"
    proc = run_cli("construct", "--kind", "behrend", "--size-target", "16", "--artifact-out", str(setf))
    assert proc.returncode == 0
    data = json.loads(setf.read_text())
    assert len(data) >= 16 and data == sorted(data)

    ptsf = tmp_path / "pts.json"
    assert run_cli(
        "construct", "--kind", "collinear-points", "--input", str(setf),
        "--artifact-out", str(ptsf),
    ).returncode == 0
    assert run_cli("verify-distances", "--input", str(ptsf), "--k", "3", "--ell", "3").returncode == 0


def test_construct_estimate_probability():
    base = [
        "construct", "--kind", "estimate-probability", "--n", "5", "--colors", "2",
        "--k", "3", "--ell", "3", "--trials", "40", "--seed", "3",
    ]
    proc = run_cli(*base)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["probability"] == 0.0
    assert run_cli(*base).stdout == proc.stdout


def test_solve_f_roundtrip_and_log(tmp_path):
    cert = tmp_path / "cert.json"
    log = tmp_path / "log.csv"
    proc = run_cli(
        "solve-f", "--n", "5", "--k", "3", "--ell", "3",
        "--certificate-out", str(cert), "--log-out", str(log),
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["status"] == "optimal" and payload["value"] == 5
    assert run_cli("verify-coloring", "--input", str(cert), "--k", "3", "--ell", "3").returncode == 0
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "c,nodes,outcome"
    assert lines[-1].startswith("5,") and lines[-1].endswith(",yes")


def test_solve_f_deterministic(tmp_path):
    cert, log = tmp_path / "cert.json", tmp_path / "log.csv"
    runs = []
    for _ in range(3):
        proc = run_cli(
            "solve-f", "--n", "5", "--k", "3", "--ell", "3",
            "--certificate-out", str(cert), "--log-out", str(log),
        )
        assert proc.returncode == 0
        runs.append((proc.stdout, cert.read_bytes(), log.read_bytes()))
    assert runs[0] == runs[1] == runs[2]
    assert run_cli("solve-f", "--n", "5", "--k", "3", "--ell", "3", "--threads", "4").returncode == 2


def test_solve_f_deep_search_ends_without_traceback():
    # 1225 edges deep: the search has no depth limit, and (2,1) needs one color
    proc = run_cli("solve-f", "--n", "50", "--k", "2", "--ell", "1")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["status"], payload["value"]) == ("optimal", 1)


def test_lemma_check_deep_search_ends_without_traceback(tmp_path):
    f = tmp_path / "deep.json"
    f.write_text(dump_json({"n": 1, "sets": [[0]] * 1100, "d": 1100}))
    proc = run_cli("lemma-check", "--input", str(f))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "found"
    assert payload["indices"] == list(range(1100)) and payload["intersection_size"] == 1


def test_verify_coloring_deep_scan_fails_without_traceback(tmp_path):
    # one k-subset, 1100 vertices deep
    f = tmp_path / "mono.json"
    f.write_text(json.dumps({"n": 1100, "colors": [0] * (1100 * 1099 // 2)}))
    proc = run_cli("verify-coloring", "--input", str(f), "--k", "1100", "--ell", "2")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "fails"
    assert payload["witness"] == list(range(1100)) and payload["witness_colors"] == 1


def test_verify_diffset_deep_scan_fails_without_traceback(tmp_path):
    f = tmp_path / "interval.json"
    f.write_text(json.dumps(list(range(1, 1101))))
    proc = run_cli("verify-diffset", "--input", str(f), "--k", "1100", "--ell", "1100")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "fails"
    assert payload["witness"] == list(range(1, 1101)) and payload["witness_colors"] == 1099


@pytest.mark.parametrize("limit", ["nan", "inf"])
def test_solve_f_non_finite_time_limit_exits_2(limit):
    proc = run_cli("solve-f", "--n", "5", "--k", "3", "--ell", "3", "--time-limit", limit)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("localprops: error: ") and proc.stderr.count("\n") == 1


def test_solve_f_refuses_an_oversized_subset_table():
    proc = run_cli("solve-f", "--n", "60", "--k", "5", "--ell", "10", "--node-limit", "10")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "localprops: error: subset table for n=60, k=5 needs 21846048 entries, over the limit 2000000\n"
    )


def test_solve_f_unsatisfiable_and_infeasible():
    proc = run_cli("solve-f", "--n", "4", "--k", "3", "--ell", "4")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "unsatisfiable"
    proc = run_cli("solve-f", "--n", "3", "--k", "4", "--ell", "4")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "infeasible"


def test_k_below_2_is_refused_by_both_solvers(capsys):
    for argv in (["solve-f"], ["solve-g", "--range-cap", "8"]):
        for k in ("-1", "0", "1"):
            assert cli.main([*argv, "--n", "3", "--k", k, "--ell", "1"]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.splitlines()[-1] == "localprops: error: k must be at least 2"


def test_solve_f_budget_exhaustion_is_exit_zero():
    proc = run_cli("solve-f", "--n", "6", "--k", "3", "--ell", "3", "--node-limit", "10")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "budget-exhausted"


def test_solve_g_roundtrip(tmp_path):
    cert = tmp_path / "gcert.json"
    proc = run_cli(
        "solve-g", "--n", "4", "--k", "4", "--ell", "5", "--range-cap", "10",
        "--certificate-out", str(cert),
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["value"] == 5
    assert payload["certificate"]["set"] == [1, 2, 3, 6]
    assert "upper bound" in payload["scope"]
    # the certificate file re-verifies through the diffset subcommand
    assert run_cli("verify-diffset", "--input", str(cert), "--k", "4", "--ell", "5").returncode == 0


def test_solve_g_infeasible_and_budget():
    proc = run_cli("solve-g", "--n", "3", "--k", "3", "--ell", "3", "--range-cap", "3")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "infeasible"
    proc = run_cli(
        "solve-g", "--n", "5", "--k", "4", "--ell", "5", "--range-cap", "18",
        "--max-sets", "5",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "budget-exhausted"


def test_solve_g_unsatisfiable(capsys):
    assert cli.main(["solve-g", "--n", "4", "--k", "3", "--ell", "4", "--range-cap", "10"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "unsatisfiable"


def test_energy_json_and_csv(tmp_path):
    f = tmp_path / "g.json"
    write_coloring(f, 4, [0, 0, 0, 1, 1, 2])
    proc = run_cli("energy", "--input", str(f))
    payload = json.loads(proc.stdout)
    assert payload["energy"] == 14
    assert payload["cauchy_schwarz_floor"] == 12
    assert payload["num_colors"] == 3
    proc = run_cli("energy", "--input", str(f), "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "j,bin_count,contribution"
    assert lines[-1] == "total,,14"


def test_profile_csv_columns(tmp_path):
    f = tmp_path / "g.json"
    write_coloring(f, 6, [0] * 15)
    proc = run_cli("profile", "--input", str(f), "--k", "6", "--m", "2", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "j,bin_count,k_j,poor_bound_num,poor_bound_den,rich_bound_num,rich_bound_den,flags"
    assert len(lines) == 5  # j = 0..3 for multiplicity 15
    proc = run_cli("profile", "--input", str(f), "--k", "6", "--m", "2")
    payload = json.loads(proc.stdout)
    assert payload["crossover"] >= 0
    assert payload["cum_count"][0] == 1


def test_profile_param_validation(tmp_path):
    f = tmp_path / "g.json"
    write_coloring(f, 3, [0, 1, 2])
    assert run_cli("profile", "--input", str(f), "--k", "2", "--m", "2").returncode == 2


def test_profile_locates_popular_intersections(tmp_path, capsys):
    # K_40 colored row-major 200 x 0, 200 x 1, 64 each of 2..6, then one
    # new color per edge: rows j = 6 and 7 violate the rich bound
    colors = [0] * 200 + [1] * 200 + [c for c in range(2, 7) for _ in range(64)]
    write_coloring(tmp_path / "k40.json", 40, colors + list(range(7, 7 + 780 - len(colors))))
    argv = ["profile", "--input", str(tmp_path / "k40.json"), "--k", "3", "--m", "2", "--locate"]
    for extra, hit, pin in (
        ([], {"colors": [0, 1], "vertices": list(range(5, 40))},
         "4eeb0dda7fb5a4fe2db56cdcb3ce9387068edfc0c4903d47e28ced2786f6edcc"),
        (["--tuple-budget", "0"], "budget-exceeded",
         "0b94c740d7b49a6e0cbce18ded857ab413538be87fb4bab0de5bf4b7dd88a5c7"),
    ):
        assert cli.main(argv + extra) == 0
        out = capsys.readouterr().out
        located = [(r["j"], r["located"]["popular_intersection"]) for r in json.loads(out)["rows"] if "located" in r]
        assert located == [(6, hit), (7, hit)]
        assert hashlib.sha256(out.encode()).hexdigest() == pin


def test_lemma_check(tmp_path):
    f = tmp_path / "sys.json"
    f.write_text(dump_json({"n": 4, "sets": [[1, 2]] * 16, "d": 2}))
    proc = run_cli("lemma-check", "--input", str(f))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["status"] == "found"
    assert payload["indices"] == [0, 1] and payload["intersection_size"] == 2
    assert payload["hypothesis_holds"] is True

    f.write_text(dump_json({"n": 10, "sets": [[1, 2], [3, 4], [5, 6]], "d": 2}))
    proc = run_cli("lemma-check", "--input", str(f))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["status"] == "none" and payload["hypothesis_holds"] is False


def test_lemma_check_empty_family_exits_2(tmp_path):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"n": 4, "sets": [], "d": 2}))
    proc = run_cli("lemma-check", "--input", str(f))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "localprops: error: need at least one set\n"


def test_payload_written_to_output_file(tmp_path):
    f = tmp_path / "g.json"
    write_coloring(f, 3, [0, 1, 2])
    out = tmp_path / "payload.json"
    proc = run_cli("energy", "--input", str(f), "--output", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    assert json.loads(out.read_text())["energy"] == 3


# ---------------------------------------------------------------- golden bytes
#
# Fixed command lines run through cli.main in a directory holding the
# inputs below.  Each pins the exit code and one sha256 over stdout,
# stderr and every file the command writes; on argparse usage errors
# only the exit code is pinned, since the usage text lists the options.

GOLDEN_INPUTS = {
    "rainbow3.json": '{"n": 3, "colors": [0, 1, 2]}',
    "mono4.json": '{"n": 4, "colors": [0, 0, 0, 0, 0, 0]}',
    "sparse3.json": '{"n": 3, "colors": [7, 7, 12]}',
    "g4.json": '{"n": 4, "colors": [0, 0, 0, 1, 1, 2]}',
    "mono8.json": json.dumps({"n": 8, "colors": [0] * 28}),
    "mono12.json": json.dumps({"n": 12, "colors": [0] * 66}),
    "broken.json": "{",
    "ap.json": "[1, 2, 3, 4]",
    "sidon.json": "[1, 2, 4, 7]",
    "empty.json": "[]",
    "right.json": "[[0, 0], [1, 0], [0, 1]]",
    "square.json": "[[0, 0], [2, 0], [2, 2], [0, 2]]",
    "line.json": "[[0, 0], [1, 0], [3, 0]]",
    "found.json": json.dumps({"n": 4, "sets": [[1, 2]] * 16, "d": 2}),
    "none.json": json.dumps({"n": 10, "sets": [[1, 2], [3, 4], [5, 6]], "d": 2}),
}

# (name, argv, files the command writes, usage error)
GOLDEN_CASES = [
    ("verify-coloring-holds", "verify-coloring --input rainbow3.json --k 3 --ell 3", (), False),
    ("verify-coloring-fails", "verify-coloring --input mono4.json --k 3 --ell 2", (), False),
    ("verify-coloring-sparse", "verify-coloring --input sparse3.json --k 3 --ell 2", (), False),
    ("verify-coloring-infeasible", "verify-coloring --input rainbow3.json --k 4 --ell 2", (), False),
    ("verify-coloring-output", "verify-coloring --input g4.json --k 3 --ell 2 --output p.json",
     ("p.json",), False),
    ("verify-diffset-fails", "verify-diffset --input ap.json --k 4 --ell 5", (), False),
    ("verify-diffset-holds", "verify-diffset --input sidon.json --k 4 --ell 5", (), False),
    ("verify-diffset-infeasible", "verify-diffset --input sidon.json --k 5 --ell 5", (), False),
    ("verify-distances-fails", "verify-distances --input right.json --k 3 --ell 3", (), False),
    ("verify-distances-fails-square", "verify-distances --input square.json --k 4 --ell 3",
     (), False),
    ("verify-distances-holds", "verify-distances --input line.json --k 3 --ell 3", (), False),
    ("verify-distances-infeasible", "verify-distances --input line.json --k 4 --ell 3", (), False),
    ("construct-random-coloring", "construct --kind random-coloring --n 7 --colors 4 --seed 99 "
     "--artifact-out a.json", ("a.json",), False),
    ("construct-behrend", "construct --kind behrend --size-target 16 --artifact-out set.json",
     ("set.json",), False),
    ("construct-collinear", "construct --kind collinear-points --input sidon.json "
     "--artifact-out pts.json --output p.json", ("pts.json", "p.json"), False),
    ("construct-collinear-empty", "construct --kind collinear-points --input empty.json "
     "--artifact-out pts.json", (), False),
    ("construct-estimate-zero", "construct --kind estimate-probability --n 5 --colors 2 "
     "--k 3 --ell 3 --trials 40 --seed 3", (), False),
    ("construct-estimate", "construct --kind estimate-probability --n 6 --colors 5 "
     "--k 3 --ell 2 --trials 120 --seed 7", (), False),
    ("construct-estimate-infeasible", "construct --kind estimate-probability --n 3 --colors 5 "
     "--k 4 --ell 2 --trials 10 --seed 1", (), False),
    ("construct-missing-seed", "construct --kind random-coloring --n 4 --colors 2 "
     "--artifact-out x.json", (), True),
    ("solve-f-certificate-log", "solve-f --n 5 --k 3 --ell 3 --certificate-out cert.json "
     "--log-out log.csv", ("cert.json", "log.csv"), False),
    ("solve-f-time-limit", "solve-f --n 5 --k 4 --ell 5 --time-limit 60", (), False),
    ("solve-f-unsatisfiable", "solve-f --n 4 --k 3 --ell 4", (), False),
    ("solve-f-infeasible", "solve-f --n 3 --k 4 --ell 4", (), False),
    ("solve-f-budget", "solve-f --n 6 --k 3 --ell 3 --node-limit 10 --log-out log.csv",
     ("log.csv",), False),
    ("solve-g-certificate", "solve-g --n 4 --k 4 --ell 5 --range-cap 10 --certificate-out g.json",
     ("g.json",), False),
    ("solve-g-infeasible", "solve-g --n 3 --k 3 --ell 3 --range-cap 3", (), False),
    ("solve-g-budget", "solve-g --n 5 --k 4 --ell 5 --range-cap 18 --max-sets 5", (), False),
    ("energy-json", "energy --input g4.json", (), False),
    ("energy-csv", "energy --input g4.json --format csv", (), False),
    ("energy-csv-output", "energy --input mono8.json --format csv --output e.csv",
     ("e.csv",), False),
    ("profile-csv", "profile --input mono8.json --k 6 --m 2 --format csv", (), False),
    ("profile-json", "profile --input g4.json --k 6 --m 2", (), False),
    ("profile-locate", "profile --input mono12.json --k 5 --m 2 --locate", (), False),
    ("profile-locate-csv", "profile --input mono12.json --k 5 --m 2 --locate --format csv",
     (), False),
    ("profile-bad-params", "profile --input rainbow3.json --k 2 --m 2", (), False),
    ("lemma-check-found", "lemma-check --input found.json", (), False),
    ("lemma-check-none", "lemma-check --input none.json --output p.json", ("p.json",), False),
    ("error-broken-json", "verify-coloring --input broken.json --k 3 --ell 2", (), False),
    ("error-missing-file", "verify-diffset --input nope.json --k 3 --ell 2", (), False),
    ("usage-no-subcommand", "", (), True),
    ("usage-unknown-subcommand", "nonsense", (), True),
    ("usage-missing-option", "verify-coloring --input g4.json --k 3", (), True),
    ("version", "--version", (), False),
]

GOLDEN_PINS = {
    "verify-coloring-holds": [0, "2423aca388ba5f1f5a9770467308e2f68834e70a54a3b8cdd288a2545964bb95"],
    "verify-coloring-fails": [1, "79b059c85ad7014c970c189c9057746c7aa7ae10a7ef6a703c0fef51e135c7d0"],
    "verify-coloring-sparse": [0, "e9d3538c17d728ed7d5e5f094175af8bd8fcc7f91daf1f7873382a2dee9742d1"],
    "verify-coloring-infeasible": [1, "d2ce2f3b307d9830e8f09b5c4d06e050d9a34564b24abb83367dce3b0f7a09f9"],
    "verify-coloring-output": [0, "22036319cf534c0a371316a1f39a5b1f56b6c6a56400da118ad82e147d0fc246"],
    "verify-diffset-fails": [1, "5f4a09941a425ed9968531aab3acaf80b5c6db898e21b7fe2d8144472a569b36"],
    "verify-diffset-holds": [0, "e54963a58667b5820e661f72dc13f717d2c483c0693c79cca407e0560d06f25f"],
    "verify-diffset-infeasible": [1, "22f80a6a80fbe2f6e519bc972605a049a2982aa851a5f1aa2e8f19cd42aaf174"],
    "verify-distances-fails": [1, "c6ab465737a164ea291cea6aafbab8a305b57373eadca925902123ab60edfbbe"],
    "verify-distances-fails-square": [1, "0390c805fdb6f610261a265471573c2f596df99b1f6bf218bd7c9f8c361a042f"],
    "verify-distances-holds": [0, "f25eda117aee6f536982ac0c72dccd00615def855b2fbd26e17dada52d0bde72"],
    "verify-distances-infeasible": [1, "05a3059eb08f4ffead7571be7cd35c6b472fa3ab049a33594912130aaa5fea1d"],
    "construct-random-coloring": [0, "c231bbd10c9bac692926059557d845eb855212bf7aecc5dabc6b63a2bdc9ac93"],
    "construct-behrend": [0, "8c1f3b51b2a4bbbb857e53203c35363aff01993844d1f983f6174385d9f08b2e"],
    "construct-collinear": [0, "606bbc364fc560b89aa76c282d36cb2f40dc7059c94620e63c6ee888ab3f278d"],
    "construct-collinear-empty": [2, "33df276af778f6f72fb880103e0fc118555b5aa92f20ca0546d23da57ec32412"],
    "construct-estimate-zero": [0, "2cf7c10166f081d70610c80085ef2a7299715d8e031e3e5b6f2706720d43d465"],
    "construct-estimate": [0, "dfab3321697baffa26d5d7b6056f43e0520985171cbe81687e0b33a3c5ca1b85"],
    "construct-estimate-infeasible": [1, "1763e6b5fe0ef7f1a80a927d49b7152a3d312f93bb50020cbfed8f112e53e0b6"],
    "construct-missing-seed": [2, "c89aabbe22f1b8e4938f3557d653fe4c482c364999e0172181e31448a6d1648b"],
    "solve-f-certificate-log": [0, "80063588b930367e070d84fe21533a3c2c68c3011d912b8fb771d1c42822b44a"],
    "solve-f-time-limit": [0, "741765d0eb656b73397dc7012fe4eceb24323cd1149aff3e0c56f7e1b3bdeeeb"],
    "solve-f-unsatisfiable": [1, "9faae0aa2189366d40de4b2d68fe9ee990780615f4f69a8e756193091369d2eb"],
    "solve-f-infeasible": [1, "df6a874532dab6c901911592f8201eb6b8094de328a5fccb79577275c875d79b"],
    "solve-f-budget": [0, "540137af8f9fa94257ed9116ce83b4c5cc9e6d96eb5f2d96c199a164f266a601"],
    "solve-g-certificate": [0, "f49e605301f498837372fa1703f68a39dbca28774a6601443544b2215cfe3a8a"],
    "solve-g-infeasible": [1, "a681e8284357aa4a21b034e00691630b9881065a657b82b2dd613e4ba3d4ab4a"],
    "solve-g-budget": [0, "7ff3ee32e419af288c24e02801c82868eca535036bafc0447031344cd647a177"],
    "energy-json": [0, "0f647de3f0265bf962556be14bc428c09c24130d1ef537505a1544df42bc2b25"],
    "energy-csv": [0, "5549c7d6549d5a240bb167ac46c53556ca9b0b8009939a7d734ca8df7bd74333"],
    "energy-csv-output": [0, "7764c727265902178ee96e5d39815914d0540bd863734598718d45252084d833"],
    "profile-csv": [0, "7ed15594b038cf81ab7682d348d74b41ba7975077f3d5d9bde74d2cce9ec5dec"],
    "profile-json": [0, "4af33c5974e4a009298d82ea1555529bf8d69354a7816f4c06124c9c5198a390"],
    "profile-locate": [0, "80af94ad0f64679faac3047ba971d4449becc31114d3639d9e1d294ee7d6a043"],
    "profile-locate-csv": [0, "93c80e826860cac72e31f727618296ec366b72c37bc0ac246930a5dd4944e569"],
    "profile-bad-params": [2, "07f20ff7ce082a30f38fe01e7d0055bdf57993f53c115e645afc0b29889d9f92"],
    "lemma-check-found": [0, "56323502353f1a54c8d9d57dcee318728cbf86dfe5311432baf67ba584bd6a92"],
    "lemma-check-none": [1, "5280b9c8fe128adbdd56bfd1eb832a89284e60f8cdbe68c5e9db377e7fd28d55"],
    "error-broken-json": [2, "2c974889ffc86c8e8c2f9242fe765cbc7665d453c52a1873bb17f1797a5e0792"],
    "error-missing-file": [2, "f56da9172a6d46a64d005e43fdf82eec3c7453bc2113d7f332743d167a96d386"],
    "usage-no-subcommand": [2, "c89aabbe22f1b8e4938f3557d653fe4c482c364999e0172181e31448a6d1648b"],
    "usage-unknown-subcommand": [2, "c89aabbe22f1b8e4938f3557d653fe4c482c364999e0172181e31448a6d1648b"],
    "usage-missing-option": [2, "c89aabbe22f1b8e4938f3557d653fe4c482c364999e0172181e31448a6d1648b"],
    "version": [0, "8e0f38d0a59659fc06dfa3aed73df9a3e74b687287c2a8dd2abdda98f5e8f2da"],
}


def _run_golden(directory, argv, written, usage_error):
    for name, text in GOLDEN_INPUTS.items():
        (directory / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv.split())
            except SystemExit as exc:
                rc = exc.code
    finally:
        os.chdir(here)
    record = [b"stdout", out.getvalue().encode()]
    if not usage_error:
        record += [b"stderr", err.getvalue().encode()]
    for name in written:
        record += [name.encode(), (directory / name).read_bytes()]
    digest = hashlib.sha256(b"\0".join(record)).hexdigest()
    return rc, digest, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,argv,written,usage_error", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_cli_bytes(tmp_path, name, argv, written, usage_error):
    rc, digest, out, err = _run_golden(tmp_path, argv, written, usage_error)
    assert [rc, digest] == GOLDEN_PINS[name], (out, err)


# ---------------------------------------------------------------- help and usage bytes
#
# What argparse writes: --help at the top level and for every subcommand
# (one sha256 over stdout and stderr), and the stderr of the usage-error
# golden cases, which the pins above leave out.  The wrap width is fixed
# at 80 columns.  argparse lays help out differently from one Python
# minor version to the next, so these pins hold for the one they were
# recorded under.

PINNED_PYTHON = (3, 11)

HELP_PINS = {
    "": "7a429acbf918162b291844a05c7132a6b473ea43f2e1edcd2b4b4f75a6bc2fb0",
    "verify-coloring": "64d298a0716a5841e5b1f2db6d9d7e06d4dda9523864b82a256321094a8ee092",
    "verify-diffset": "0d9ba0c66e28381630de6179af6bb33724e8e02c39f4947c9ddc2c79fa87f476",
    "verify-distances": "cbe3706c5405f4f74cc2cebcddedbc196ebe36eb961fb430e78264dcd0a80236",
    "construct": "7d48dcb97f76536b5822e03b9b6fd8da73f282e7468d3eea35d42caa387d0809",
    "solve-f": "43e1c445050689aa790bc6e190a7d888bba286146d1c4e1978ccd02ff6265cd6",
    "solve-g": "6b7e890e391024ab4108ef28e483254f52d832c5c505a1b8e62a153ef72b2959",
    "energy": "228e477037ae6885c730a80fe71bdca662bddd23e8c26de11c37f2d8efe4c058",
    "profile": "55689e0de706b4f8476f5ff0410157f571587072f960d8f5a5d0cddecf367bfb",
    "lemma-check": "2f572aa3a2367ad968df2093705ea5a08daa91a191e5d190a427a0a12b0b243a",
}

USAGE_STDERR_PINS = {
    "usage-no-subcommand": "e990711220e5db14b89bca1c0aa9919e14cfa5fbc36e0358685ba746b892562e",
    "usage-unknown-subcommand": "f2acda4867b547fec604d7a040dfdef0e4abe30d2b5738cde4aac3849c2a383c",
    "usage-missing-option": "e5612f9e7f602ce8a429a9320a380bf3858031c00becf61ee9410492db41029f",
    "construct-missing-seed": "c3a69a82ab05aebf59d9a35564d3a50e1e10719f81c50e38c4cda761c7fd8504",
}

CASES_BY_NAME = {case[0]: case[1:] for case in GOLDEN_CASES}

pinned_python = pytest.mark.skipif(
    sys.version_info[:2] != PINNED_PYTHON,
    reason=f"help and usage bytes are pinned for Python {PINNED_PYTHON[0]}.{PINNED_PYTHON[1]}",
)


@pinned_python
@pytest.mark.parametrize("subcommand", HELP_PINS, ids=lambda s: s or "top-level")
def test_help_bytes(tmp_path, monkeypatch, subcommand):
    monkeypatch.setenv("COLUMNS", "80")
    argv = f"{subcommand} --help".strip()
    rc, _, out, err = _run_golden(tmp_path, argv, (), False)
    record = b"\0".join([b"stdout", out.encode(), b"stderr", err.encode()])
    assert [rc, hashlib.sha256(record).hexdigest()] == [0, HELP_PINS[subcommand]], (out, err)


@pinned_python
@pytest.mark.parametrize("name", USAGE_STDERR_PINS)
def test_usage_stderr_bytes(tmp_path, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    rc, _, _, err = _run_golden(tmp_path, *CASES_BY_NAME[name])
    assert [rc, hashlib.sha256(err.encode()).hexdigest()] == [2, USAGE_STDERR_PINS[name]], err


# ---------------------------------------------------------------- one parser per process


def test_one_parser_serves_every_call_in_a_process(tmp_path):
    cli._parser.cache_clear()
    for argv, rc in [
        ("nonsense", 2),
        ("--version", 0),
        ("construct --kind random-coloring --n 4 --colors 2 --artifact-out x.json", 2),
    ]:
        assert _run_golden(tmp_path, argv, (), True)[0] == rc
    rc, digest, out, err = _run_golden(tmp_path, *CASES_BY_NAME["construct-estimate"])
    assert [rc, digest] == GOLDEN_PINS["construct-estimate"], (out, err)
    assert cli._parser.cache_info().misses == 1


def test_cached_parser_calls_the_current_module_names(tmp_path, monkeypatch):
    # a tracer or a test may rebind cli's library names after the parser exists
    _run_golden(tmp_path, "--version", (), False)
    seen = []
    load = cli.load_integer_set
    monkeypatch.setattr(cli, "load_integer_set", lambda path: seen.append(path) or load(path))
    rc, digest, out, err = _run_golden(tmp_path, *CASES_BY_NAME["verify-diffset-holds"])
    assert seen == ["sidon.json"]
    assert [rc, digest] == GOLDEN_PINS["verify-diffset-holds"], (out, err)


def test_import_builds_no_parser(tmp_path):
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import localprops.cli\n"
        "print(len(built))\n"
        "for _ in range(3):\n"
        "    localprops.cli.main(['energy', '--input', 'missing.json'])\n"
        "print(len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path)
    # none at import; the first main() builds the top level and the nine
    # subcommand parsers, and later calls build nothing
    assert proc.stdout.splitlines() == ["0", "10"], proc.stderr
