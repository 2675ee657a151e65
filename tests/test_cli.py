import json
import subprocess
import sys

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


def test_usage_errors_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("verify-coloring").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("construct", "--kind", "random-coloring", "--n", "4").returncode == 2


def test_boolean_ids_in_input_exit_2_without_traceback(tmp_path):
    bad = tmp_path / "bool.json"
    for data in ({"n": True, "colors": []}, {"n": 3, "colors": [True, False, 0]}):
        bad.write_text(json.dumps(data))
        proc = run_cli("verify-coloring", "--input", str(bad), "--k", "2", "--ell", "1")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "integer" in proc.stderr


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


def test_solve_f_deterministic_and_thread_independent(tmp_path):
    runs = []
    for threads in ("1", "4", "1"):
        proc = run_cli("solve-f", "--n", "5", "--k", "3", "--ell", "3", "--threads", threads)
        assert proc.returncode == 0
        runs.append(proc.stdout)
    assert runs[0] == runs[2]
    assert runs[0] == runs[1]


def test_solve_f_unsatisfiable_and_infeasible():
    proc = run_cli("solve-f", "--n", "4", "--k", "3", "--ell", "4")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "unsatisfiable"
    proc = run_cli("solve-f", "--n", "3", "--k", "4", "--ell", "4")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "infeasible"


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


def test_payload_written_to_output_file(tmp_path):
    f = tmp_path / "g.json"
    write_coloring(f, 3, [0, 1, 2])
    out = tmp_path / "payload.json"
    proc = run_cli("energy", "--input", str(f), "--output", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    assert json.loads(out.read_text())["energy"] == 3
