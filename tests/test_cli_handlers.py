"""The CLI has one output path.

Each `_cmd_*` handler in cli.py only computes: it returns its params and
payload fields (and CSV text, for --format csv), and main() alone builds
the payload, writes it through _emit and maps its status to the exit
code.  This scans cli.py for a handler that calls _emit or returns an
int literal, which would start a second output path.
"""

import ast
from pathlib import Path

from localprops import cli

CLI = Path(__file__).resolve().parent.parent / "src" / "localprops" / "cli.py"


def _second_outputs(tree):
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_"):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    callee = node.func
                    name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                    if name == "_emit":
                        yield fn.name, node.lineno, "calls _emit"
                elif isinstance(node, ast.Return) and isinstance(node.value, ast.Constant):
                    if type(node.value.value) is int:
                        yield fn.name, node.lineno, "returns an exit code"


def test_detector_sees_a_second_output_path():
    tree = ast.parse(
        "def _cmd_x(args):\n"
        "    if args.k:\n"
        "        return 1\n"
        "    _emit(args, {})\n"
        "    return 0\n"
        "def main():\n"
        "    _emit(None, {})\n"
        "    return 2\n"
    )
    assert sorted(_second_outputs(tree)) == [
        ("_cmd_x", 3, "returns an exit code"),
        ("_cmd_x", 4, "calls _emit"),
        ("_cmd_x", 5, "returns an exit code"),
    ]


def test_no_handler_emits_or_picks_an_exit_code():
    tree = ast.parse(CLI.read_text(), str(CLI))
    scanned = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert {handler.__name__ for _, _, handler, _ in cli.COMMANDS} <= scanned
    assert list(_second_outputs(tree)) == []
