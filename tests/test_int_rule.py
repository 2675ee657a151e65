"""One rule decides what counts as an int, in one place.

Every value the library requires to be an int goes through
coloring._require_ints, which refuses anything whose type is not int
itself: bool (an int subclass), float and str alike.  This scans the
source of src/localprops for an int test by type, `type(x) is int` or
its negation (or the same with == and !=), or an `isinstance(x, int)`,
which would let bool through, and finds each such test only inside
_require_ints, so a loader or constructor cannot fork the rule again.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "localprops"


def _is_int(node):
    return isinstance(node, ast.Name) and node.id == "int"


def _is_type_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type"


class _IntTests(ast.NodeVisitor):
    """(innermost enclosing function, line) of every int test by type."""

    def __init__(self):
        self.scope, self.found = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Compare(self, node):
        operands = [node.left, *node.comparators]
        for op, a, b in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) and (
                (_is_type_call(a) and _is_int(b)) or (_is_int(a) and _is_type_call(b))
            ):
                self.found.append((self.scope[-1], node.lineno))
        self.generic_visit(node)

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2:
            kinds = node.args[1]
            if _is_int(kinds) or (isinstance(kinds, ast.Tuple) and any(map(_is_int, kinds.elts))):
                self.found.append((self.scope[-1], node.lineno))
        self.generic_visit(node)


def _int_tests(source):
    visitor = _IntTests()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_int_test_detector_sees_every_form():
    source = (
        "def load(d):\n"
        "    if type(d['n']) is not int:\n"
        "        pass\n"
        "    def inner(v):\n"
        "        return int == type(v) or isinstance(v, (str, int))\n"
        "    return all(type(v) is int for v in d['colors'])\n"
        "ok = type(3) is str or isinstance(3, float)\n"
    )
    assert _int_tests(source) == [("load", 2), ("inner", 5), ("inner", 5), ("load", 6)]


def test_only_require_ints_tests_for_an_int():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line} {name}"
        for path in files
        for name, line in _int_tests(path.read_text())
    ]
    rule = [site for site in found if site.startswith("coloring.py:") and site.endswith(" _require_ints")]
    assert len(rule) == 1
    assert [site for site in found if site not in rule] == []
