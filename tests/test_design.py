"""Design rules of the package, checked on its source text.

No public function is called only by its own unit test: every public
top-level function and class of src/westervelt_hdg is referenced, as a name
or an attribute, somewhere in the package outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "westervelt_hdg"


def references(tree: ast.AST) -> Counter:
    """Names and attribute names read or written in tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_definition_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
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
