"""Design rules of the package, checked on its source text.

No public function is called only by its own unit test: every public
top-level function and class of src/westervelt_hdg is referenced, as a name
or an attribute, somewhere in the package outside its own definition.

No state is stored that nothing reads: every field of the eliminations and
of a run's result is read, as an attribute, somewhere in the package. The
check goes by attribute name, so a read of another object's attribute of
the same name also counts.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

from westervelt_hdg.condensation import CondensedOperators, Elimination
from westervelt_hdg.newmark import RunResult

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "westervelt_hdg"
# the benchmark harness, which reads the facet factorization of every run
ROUND = ROOT / "bench" / "round.py"

# each checked dataclass, with the fields that the harness may read in
# place of the package
STORED = {Elimination: (), CondensedOperators: (), RunResult: ("cond",)}


def package_trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def references(tree: ast.AST) -> Counter:
    """Names and attribute names read or written in tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def attribute_reads(tree: ast.AST) -> Counter:
    """Attribute names read in tree; assignments to them do not count."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def test_every_public_definition_is_used_in_the_package():
    trees = package_trees()
    used = sum((references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")
                    and used[node.name] <= references(node)[node.name]):
                unused.append(f"{module}:{node.lineno} {node.name}")
    assert not unused, f"public definitions used nowhere in the package: " \
                       f"{unused}"


def test_every_stored_field_is_read():
    reads = sum((attribute_reads(tree) for tree in package_trees().values()),
                Counter())
    harness = attribute_reads(ast.parse(ROUND.read_text(encoding="utf-8")))
    unread = [f"{cls.__name__}.{fld.name}"
              for cls, by_harness in STORED.items()
              for fld in dataclasses.fields(cls)
              if not reads[fld.name]
              and not (fld.name in by_harness and harness[fld.name])]
    assert not unread, f"stored fields read nowhere in the package: {unread}"
