"""The package imports no name it does not use, but for those kept only for
perfbench's layer tracer, each marked on its import line: the list ROADMAP
item 1 deletes once the benchmark stops wrapping them.  A stdlib-ast check,
as no linter is installed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "homverify"
MARKER = "noqa: F401"

# (module, name): imported only so that the tracer can wrap module.name
TRACER_ONLY = {("sweeps", "iter_edge_sets"), ("sweeps", "_ind_branch"), ("sweeps", "bipartition")}


def _imports(path):
    """(name, marked) for every name bound by an import in the module,
    __future__ features aside, and the names it reads anywhere."""
    text = path.read_text()
    lines, tree = text.splitlines(), ast.parse(text)
    bound = [((alias.asname or alias.name).split(".")[0], MARKER in lines[alias.lineno - 1])
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    return bound, {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_unused_imports_are_the_marked_tracer_names():
    # __init__.py's imports are the package's interface, read by its users
    unused, marked = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        bound, read = _imports(path)
        unused |= {(path.stem, name) for name, _ in bound if name not in read}
        marked |= {(path.stem, name) for name, is_marked in bound if is_marked}
    assert unused == marked == TRACER_ONLY
