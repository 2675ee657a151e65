"""One count per graph, and one trusted path to build one.

A ColoredCompleteGraph counts its colors once, as it is built, into
multiplicities, and every statistic reads them there; coloring.py alone
may count edge_colors again (the cores search groups edges by color) or
call color_histogram, the Counter view of the field.  The checked
builds stay at the trust boundary: from_sparse is called only by the
loaders in io.py, and the public ColoredCompleteGraph(...) constructor
by no library module, since the library's own producers pass ids that
are right by construction to ColoredCompleteGraph._dense.  This scans
the source of src/localprops for each kind of call and finds it only
where it is allowed, so the rule cannot rot silently.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "localprops"

ALLOWED = {
    "count": {"coloring.py"},
    "from_sparse": {"io.py"},
    "constructor": set(),
}


def _name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _reads_edge_colors(node):
    return any(isinstance(n, ast.Attribute) and n.attr == "edge_colors" for n in ast.walk(node))


def _calls(source):
    """(kind, line) of every recount, from_sparse call and public
    constructor call in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _name(node.func)
        if name == "color_histogram" or (name == "Counter" and any(map(_reads_edge_colors, node.args))):
            found.append(("count", node.lineno))
        elif name == "from_sparse":
            found.append(("from_sparse", node.lineno))
        elif name == "ColoredCompleteGraph":
            found.append(("constructor", node.lineno))
    return sorted(found, key=lambda site: site[1])


def test_call_detector_sees_every_form():
    source = (
        "h = color_histogram(G)\n"
        "c = collections.Counter(map(f, G.edge_colors))\n"
        "d = Counter(keys)\n"
        "g = ColoredCompleteGraph.from_sparse(n, raw)\n"
        "e = ColoredCompleteGraph(n, colors)\n"
        "f = lp.ColoredCompleteGraph(n, colors)\n"
        "t = ColoredCompleteGraph._dense(n, colors)\n"
    )
    assert _calls(source) == [
        ("count", 1),
        ("count", 2),
        ("from_sparse", 4),
        ("constructor", 5),
        ("constructor", 6),
    ]


def test_each_graph_is_counted_once_and_built_through_one_trusted_path():
    files = sorted(SRC.glob("*.py"))
    assert files
    stray = [
        f"{path.name}:{line} {kind}"
        for path in files
        for kind, line in _calls(path.read_text())
        if path.name not in ALLOWED[kind]
    ]
    assert stray == []
