"""Every module-level import in the package is read by its module, and no
module keeps a functools cache."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "swiftcal"

# Bound in these modules but never read there: perfbench/tracing.py rebinds
# these names in them to count calls.  They can leave only together with a
# benchmark change that counts without rebinding.
TRACER_BOUND = {("calibrate", "select_scale"),
                ("calibrate", "select_truncation"),
                ("experiments", "price_multi_strike"),
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


CACHING = {"lru_cache", "cache", "cached_property"}


def test_no_module_caches_outside_the_table_store():
    # parameter-free tables go through swift._stored, under its one byte
    # budget; a functools cache would hold its entries outside that bound
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module_names = {alias.asname or alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.Import)
                        for alias in node.names if alias.name == "functools"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [(path.stem, alias.name, node.lineno)
                          for alias in node.names if alias.name in CACHING]
            elif (isinstance(node, ast.Attribute) and node.attr in CACHING
                  and isinstance(node.value, ast.Name) and node.value.id in module_names):
                found.append((path.stem, node.attr, node.lineno))
    assert not found, found
