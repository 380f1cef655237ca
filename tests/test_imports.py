"""Every module-level import in the package is read by its module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "swiftcal"

# Bound in `experiments` but never read there: perfbench/tracing.py rebinds
# these names in that module to count calls.  They can leave only together
# with a benchmark change that counts without rebinding.
TRACER_BOUND = {("experiments", "price_multi_strike"),
                ("experiments", "select_scale"),
                ("experiments", "select_truncation")}


def _imported(tree):
    """(name, line) of every name the module's top-level imports bind."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _read(tree):
    """Names the module loads, plus the strings listed in its ``__all__``."""
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(elt.value for elt in node.value.elts)
    return names


def test_every_module_import_is_read():
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read(tree)
        unread.update((path.stem, name, line) for name, line in _imported(tree)
                      if name not in read)
    assert {(mod, name) for mod, name, _ in unread} == TRACER_BOUND, sorted(unread)
