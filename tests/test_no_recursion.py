"""No function in the library calls itself.

Every exact search runs as one loop over explicit state, so its depth
(C(n,2) edges, k vertices, d sets) is bounded by memory, not by Python's
recursion limit.  This scans the source of src/localprops for a function
whose body, nested functions included, calls the function's own name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "localprops"


def _self_calls(tree):
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    callee = node.func
                    name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                    if name == fn.name:
                        yield fn.name, node.lineno


def test_self_call_detector_sees_recursion():
    tree = ast.parse("def f(n):\n    def rec(i):\n        return rec(i - 1)\n    return rec(n)\n")
    assert list(_self_calls(tree)) == [("rec", 3)]


def test_no_function_in_src_calls_itself():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line} {name}"
        for path in files
        for name, line in _self_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
