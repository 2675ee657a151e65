"""The public surface holds only what something uses.

Every name a module lists in __all__ is referenced in code by another
module of the package (the CLI included) or by the benchmark harness
under perfbench/, or it is kept on purpose, with its reason in KEEP.  A
result type counts as used through the public function that returns it.
The package re-exports exactly the library modules' __all__ names, by
one star import per module, so each __all__ is the only list of them.
The per-call result records are named tuples with fixed fields,
defaults and repr, immutable and compared and hashed by value.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import localprops

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "localprops"
LIBRARY = ["coloring", "constructions", "energy", "forbidden", "numbersets", "solver"]

KEEP = {
    "monochromatic": "the extremal example: every k-subset spans one color",
    "additive_energy": "the paper's statistic, computed from the color energy",
    "verify_isosceles_free": "checks the paper's distinct-distance construction",
    "edge_index": "ColoredCompleteGraph's documented edge_colors layout, for colorings built by hand",
    "color_histogram": "the public Counter view of ColoredCompleteGraph.multiplicities",
}


def _referenced(path: Path) -> set[str]:
    """Every identifier a file's code names: variables, attributes, imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _returned(module: str) -> set[str]:
    """Identifiers in the return annotations of a module's public functions."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.returns:
            names.update(n.id for n in ast.walk(node.returns) if isinstance(n, ast.Name))
    return names


def _users(module: str) -> set[str]:
    """Identifiers referenced by the package's other modules and by perfbench,
    and the result types the module's own public functions return."""
    files = [p for p in PACKAGE.glob("*.py") if p.stem not in (module, "__init__")]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return set().union(_returned(module), *map(_referenced, files))


def test_package_reexports_exactly_the_library_names():
    exported = {
        name
        for name, value in vars(localprops).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    declared = set()
    for module in LIBRARY:
        declared.update(importlib.import_module(f"localprops.{module}").__all__)
    assert exported == declared


def test_init_takes_every_library_name_from_its_all():
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    imports = [(n.module, [a.name for a in n.names]) for n in body if isinstance(n, ast.ImportFrom)]
    assert imports == [(module, ["*"]) for module in LIBRARY]
    # beyond the docstring and those imports, only __version__ is set
    rest = [n for n in body if not isinstance(n, (ast.ImportFrom, ast.Expr))]
    assert [ast.unparse(t) for n in rest for t in n.targets] == ["__version__"]


@pytest.mark.parametrize("module", [*LIBRARY, "io"])
def test_every_public_name_has_a_user_or_a_reason(module):
    public = importlib.import_module(f"localprops.{module}").__all__
    unused = set(public) - _users(module) - set(KEEP)
    assert not unused, f"{module} exports names nothing uses: {sorted(unused)}"


def test_every_kept_name_is_public_and_otherwise_unused():
    for name in KEEP:
        module = next(m for m in [*LIBRARY, "io"] if name in importlib.import_module(f"localprops.{m}").__all__)
        assert name not in _users(module), f"{name} is used; it needs no KEEP entry"


def _records():
    """One value of each per-call result record, from the public call that
    returns it, with the fields, defaults and repr callers rely on, by name."""
    p = localprops.DetectorParams(3, 2)
    mono = localprops.monochromatic(14)
    two = localprops.ColoredCompleteGraph.from_sparse(6, [c % 2 for c in range(15)])
    located = tuple((v, 0) for v in range(14))
    return dict(
        verdict=(
            localprops.verify_local_property(localprops.monochromatic(4), localprops.LocalSpec(3, 2)),
            ("holds", "witness", "witness_colors"),
            {"witness": None, "witness_colors": None},
            "PropertyVerdict(holds=False, witness=(0, 1, 2), witness_colors=1)",
        ),
        profile=(
            localprops.dyadic_profile(mono, p),
            ("bin_count", "cum_count", "crossover"),
            {},
            "DyadicProfile(bin_count=(0, 0, 0, 0, 0, 0, 1), cum_count=(1, 1, 1, 1, 1, 1, 1), crossover=3)",
        ),
        row=(
            localprops.bound_report(mono, p, locate=True, tuple_budget=10)[-1],
            (
                "j", "bin_count", "cum_count", "poor_bound", "rich_bound", "poor_ok", "rich_regime",
                "rich_ok", "remark_zone", "min_support", "support_bound", "located",
            ),
            {"located": None},
            "BoundRow(j=6, bin_count=1, cum_count=1, poor_bound=(196, 64), rich_bound=(3136, 4096), "
            "poor_ok=True, rich_regime=True, rich_ok=False, remark_zone=False, min_support=14, "
            f"support_bound=(128, 0), located=({located!r}, None))",
        ),
        hit=(
            localprops.popular_intersection_search(two, 1, p),
            ("colors", "vertices"),
            {},
            "PopularHit(colors=(0, 1), vertices=frozenset({0, 1, 2, 3, 4, 5}))",
        ),
    )


@pytest.mark.parametrize("name", ["verdict", "profile", "row", "hit"])
def test_result_records_keep_their_contract(name):
    # a named tuple: immutable, no instance dict, equal and hashed by value
    value, fields, defaults, text = _records()[name]
    record = type(value)
    assert record is getattr(localprops, record.__name__)
    assert record._fields == fields
    assert record._field_defaults == defaults
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None  # no instance dict
    twin = record(*value)
    assert twin == value and hash(twin) == hash(value) and twin == tuple(value)
