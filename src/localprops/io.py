"""Shared JSON file formats.

coloring      {"n": int, "colors": [int; n(n-1)/2]} in row-major
              upper-triangle edge order; sparse ids normalize on load.
integer set   a sorted array of integers, or a certificate object
              {"set": [...], ...} whose "set" field is used.
point set     an array of [x, y] integer pairs.
set system    {"n": int, "sets": [[int, ...], ...], "d": int}.

Loaders check shape and constructors check values.  A loader checks
structure, required fields, [x, y] pairs, and "colors" as ints (from_sparse
takes any hashable ids); the constructor it calls checks every value, and
those errors carry no file path.  JSON true/false load as bool, an int
subclass, and are refused wherever an integer is due.

Writers emit canonical bytes (sorted keys, fixed separators, trailing
newline) so identical data always produces identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .coloring import ColoredCompleteGraph, _require_ints
from .forbidden import SetSystem
from .numbersets import integer_set, point_set

__all__ = [
    "dump_json",
    "load_coloring",
    "save_coloring",
    "load_integer_set",
    "save_integer_set",
    "load_point_set",
    "save_point_set",
    "load_set_system",
]


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _read(path) -> object:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc


def load_coloring(path) -> ColoredCompleteGraph:
    data = _read(path)
    if not isinstance(data, dict) or "n" not in data or "colors" not in data:
        raise ValueError(f"{path}: coloring files need 'n' and 'colors' fields")
    colors = data["colors"]
    if not isinstance(colors, list):
        raise ValueError(f"{path}: 'colors' must be an array of integers")
    _require_ints(colors, f"{path}: 'colors'")
    return ColoredCompleteGraph.from_sparse(data["n"], colors)


def save_coloring(path, G: ColoredCompleteGraph) -> None:
    Path(path).write_text(dump_json({"n": G.n, "colors": list(G.edge_colors)}))


def load_integer_set(path) -> tuple[int, ...]:
    data = _read(path)
    if isinstance(data, dict) and "set" in data:
        data = data["set"]
    if not isinstance(data, list):
        raise ValueError(f"{path}: integer-set files are arrays of integers")
    return integer_set(data)


def save_integer_set(path, values) -> None:
    Path(path).write_text(dump_json(list(integer_set(values))))


def load_point_set(path) -> tuple[tuple[int, int], ...]:
    data = _read(path)
    if not isinstance(data, list) or not all(isinstance(p, list) and len(p) == 2 for p in data):
        raise ValueError(f"{path}: point-set files are arrays of [x, y] int pairs")
    return point_set(data)


def save_point_set(path, points) -> None:
    Path(path).write_text(dump_json([[x, y] for x, y in point_set(points)]))


def load_set_system(path) -> SetSystem:
    data = _read(path)
    if not isinstance(data, dict) or not {"n", "sets", "d"} <= set(data):
        raise ValueError(f"{path}: set-system files need 'n', 'sets' and 'd'")
    sets = data["sets"]
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise ValueError(f"{path}: 'sets' must be an array of integer arrays")
    return SetSystem(data["n"], sets, data["d"])
