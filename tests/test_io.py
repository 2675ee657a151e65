import json

import pytest

from localprops import SetSystem, rainbow
from localprops.io import (
    dump_json,
    load_coloring,
    load_integer_set,
    load_point_set,
    load_set_system,
    save_coloring,
    save_integer_set,
    save_point_set,
)


def test_coloring_roundtrip(tmp_path):
    f = tmp_path / "c.json"
    g = rainbow(5)
    save_coloring(f, g)
    assert load_coloring(f) == g
    # canonical bytes: saving twice gives identical files
    first = f.read_bytes()
    save_coloring(f, g)
    assert f.read_bytes() == first


def test_coloring_load_normalizes_sparse_ids(tmp_path):
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"n": 3, "colors": [9, 9, 4]}))
    g = load_coloring(f)
    assert g.edge_colors == (1, 1, 0)


def test_coloring_load_rejects_malformed(tmp_path):
    f = tmp_path / "c.json"
    for text in [
        "{",
        json.dumps([0, 1, 2]),
        json.dumps({"n": 3}),
        json.dumps({"n": 0, "colors": []}),
        json.dumps({"n": 3, "colors": [0, 1]}),
        json.dumps({"n": 3, "colors": [0, 1, "x"]}),
    ]:
        f.write_text(text)
        with pytest.raises(ValueError):
            load_coloring(f)


def test_loaders_refuse_too_deeply_nested_json(tmp_path):
    f = tmp_path / "deep.json"
    f.write_text("[" * 5000 + "]" * 5000)
    for load in (load_coloring, load_integer_set, load_point_set, load_set_system):
        with pytest.raises(ValueError, match="nested too deeply"):
            load(f)


def test_loaders_reject_json_booleans_as_integers(tmp_path):
    # bool is an int subclass in Python, but true/false are not JSON integers
    f = tmp_path / "bad.json"
    cases = [
        (load_coloring, {"n": True, "colors": []}),
        (load_coloring, {"n": 3, "colors": [True, False, 0]}),
        (load_integer_set, [1, True]),
        (load_integer_set, {"set": [False, 2]}),
        (load_point_set, [[0, 0], [True, 1]]),
        (load_set_system, {"n": True, "sets": [[0]], "d": 1}),
        (load_set_system, {"n": 3, "sets": [[0]], "d": False}),
        (load_set_system, {"n": 3, "sets": [[0, True]], "d": 2}),
        # nor are floats, strings or nested arrays, which the constructors refuse
        (load_coloring, {"n": 3, "colors": [0.0, 0.0, 1.0]}),
        (load_coloring, {"n": 3.0, "colors": [0, 1, 2]}),
        (load_set_system, {"n": 5, "sets": [[0, 1.5]], "d": 2}),
        (load_set_system, {"n": 5, "sets": [["a"]], "d": 2}),
        (load_set_system, {"n": 5, "sets": [[0, [1]]], "d": 2}),
        (load_point_set, [[0, 0], [1, [2]]]),
        (load_integer_set, [1, [2]]),
    ]
    for loader, data in cases:
        f.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="integers"):
            loader(f)


def test_integer_set_roundtrip_and_certificate_shape(tmp_path):
    f = tmp_path / "s.json"
    save_integer_set(f, [4, 1, 4, 2])
    assert json.loads(f.read_text()) == [1, 2, 4]
    assert load_integer_set(f) == (1, 2, 4)
    f.write_text(json.dumps({"set": [3, 1, 2], "difference_set": [1, 2]}))
    assert load_integer_set(f) == (1, 2, 3)
    f.write_text(json.dumps({"n": 3}))
    with pytest.raises(ValueError):
        load_integer_set(f)
    f.write_text(json.dumps([1, "two"]))
    with pytest.raises(ValueError):
        load_integer_set(f)


def test_point_set_roundtrip(tmp_path):
    f = tmp_path / "p.json"
    save_point_set(f, [(2, 0), (1, 5)])
    assert load_point_set(f) == ((2, 0), (1, 5))
    f.write_text(json.dumps([[0, 0], [0]]))
    with pytest.raises(ValueError):
        load_point_set(f)
    f.write_text(json.dumps([[0, 0], [0, 0]]))
    with pytest.raises(ValueError):
        load_point_set(f)


def test_set_system_roundtrip(tmp_path):
    f = tmp_path / "sys.json"
    inst = SetSystem(5, (frozenset({0, 1}), frozenset({2, 3, 4})), 2)
    f.write_text(dump_json({"n": inst.n, "sets": [sorted(s) for s in inst.sets], "d": inst.d}))
    assert load_set_system(f) == inst
    f.write_text(json.dumps({"n": 5, "sets": [[0, 9]], "d": 2}))
    with pytest.raises(ValueError):
        load_set_system(f)
    f.write_text(json.dumps({"n": 5, "d": 2}))
    with pytest.raises(ValueError):
        load_set_system(f)


def test_dump_json_is_stable():
    assert dump_json({"b": 1, "a": [2, 3]}) == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
