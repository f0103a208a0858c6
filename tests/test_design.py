"""Design rules of the package, checked on its source text.

No public function is called only by its own unit test: every public
top-level function and class of src/westervelt_hdg is referenced, as a name
or an attribute, somewhere in the package outside its own definition.

No state is stored that nothing reads: every dataclass field, and every
attribute a class of the package assigns as self.<name>, is read as an
attribute somewhere in the package; a read inside the __init__ or
__post_init__ of its own class does not count. Every method and property
other than a dunder is referenced, as a name or an attribute, outside its
own body. The checks go by name, so a read of another object's attribute of
the same name also counts. Two exemptions:

- the attributes of exception classes, which carry fault reports to the
  caller;
- RunResult.cond, which the benchmark harness reads for the facet
  factorization of every run.

Each operator has one representation: no field of AssembledOperators or
ElementTables is a scipy.sparse matrix. Every array of AssembledOperators
but the stabilization table tau is an element block, one per element, on
the columns of ElementTables.element_rows ([B | E] and [Ks | R]) or on
their facet part (A_K); the facet-facet BlockPattern that sums the A_K
takes blocks of the shape of facet_block. Sparse matrices are summed from
blocks only where a solve or product needs them: the facet matrices that
are factored, W and -Wt of an Elimination, and R for the Rt psi of the
initial traces.

No range goes dead or is misspelled: every row of parameters.PARAMETERS is
the literal name of some check_parameter call or a key of the config file,
and every literal name passed to check_parameter is a row.

No name in the README goes stale: every backticked `module.name` of
README.md whose module is one of the package resolves to an attribute of
that module (the file name config.ini excepted).
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.sparse

from westervelt_hdg.config import _KEYS
from westervelt_hdg.mesh import compute_facet_topology, generate_structured_mesh
from westervelt_hdg.operators import assemble_operators
from westervelt_hdg.parameters import PARAMETERS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "westervelt_hdg"
# the benchmark harness, which reads the facet factorization of every run
ROUND = ROOT / "bench" / "round.py"
README = ROOT / "README.md"

# each class's fields that the harness may read in place of the package
READ_BY_HARNESS = {"RunResult": ("cond",)}

INITIALIZERS = ("__init__", "__post_init__")


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


def is_exception(module: str, cls: ast.ClassDef) -> bool:
    obj = getattr(importlib.import_module(f"westervelt_hdg.{module[:-3]}"),
                  cls.name)
    return issubclass(obj, BaseException)


def stored_names(cls: ast.ClassDef) -> set:
    """The annotated fields of the class body and the self.<name> that its
    methods assign."""
    names = {node.target.id for node in cls.body
             if isinstance(node, ast.AnnAssign)
             and isinstance(node.target, ast.Name)}
    names.update(node.attr for node in ast.walk(cls)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Store)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "self")
    return names


def methods(cls: ast.ClassDef) -> list:
    return [node for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def package_classes(trees: dict):
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield module, node


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


def test_every_stored_attribute_is_read():
    trees = package_trees()
    reads = sum((attribute_reads(tree) for tree in trees.values()), Counter())
    harness = attribute_reads(ast.parse(ROUND.read_text(encoding="utf-8")))
    unread = []
    for module, cls in package_classes(trees):
        if is_exception(module, cls):
            continue
        own = sum((attribute_reads(node) for node in cls.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name in INITIALIZERS), Counter())
        for name in sorted(stored_names(cls)):
            if (reads[name] <= own[name]
                    and not (name in READ_BY_HARNESS.get(cls.name, ())
                             and harness[name])):
                unread.append(f"{module}:{cls.lineno} {cls.name}.{name}")
    assert not unread, f"stored attributes read nowhere in the package: " \
                       f"{unread}"


def test_every_method_is_referenced():
    trees = package_trees()
    used = sum((references(tree) for tree in trees.values()), Counter())
    unused = [f"{module}:{node.lineno} {cls.name}.{node.name}"
              for module, cls in package_classes(trees)
              for node in methods(cls)
              if used[node.name] <= references(node)[node.name]]
    assert not unused, f"methods referenced nowhere in the package: {unused}"


def test_no_operator_field_is_a_sparse_matrix():
    msh = generate_structured_mesh(2)
    ops = assemble_operators(msh, compute_facet_topology(msh), 1)
    sparse = [f"{type(obj).__name__}.{name}"
              for obj in (ops, ops.tables)
              for name, value in vars(obj).items()
              if scipy.sparse.issparse(value)]
    assert not sparse, f"operator fields stored as sparse matrices: {sparse}"


def test_every_operator_array_is_an_element_block():
    # n = 3: 18 elements and 21 interior facets
    msh = generate_structured_mesh(3)
    ops = assemble_operators(msh, compute_facet_topology(msh), 1)
    lay = ops.layout
    columns = {lay.dim_scalar + 3 * lay.dim_facet, 3 * lay.dim_facet}
    stray = [f"{name} {value.shape}" for name, value in vars(ops).items()
             if isinstance(value, np.ndarray) and name != "tau"
             and not (value.shape[0] == lay.n_elements
                      and value.shape[-1] in columns)]
    assert not stray, f"operator arrays off the element dof map: {stray}"
    assert ops.tables.facet_facet.block_shape == ops.facet_block.shape


def test_every_parameter_row_is_checked():
    checked = {node.args[0].value
               for tree in package_trees().values()
               for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "check_parameter"
               and node.args and isinstance(node.args[0], ast.Constant)}
    assert checked <= set(PARAMETERS), \
        f"check_parameter names no row: {checked - set(PARAMETERS)}"
    unchecked = set(PARAMETERS) - checked - set(_KEYS)
    assert not unchecked, f"parameter rows checked nowhere: {unchecked}"


def test_every_readme_reference_resolves():
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"),
                  flags=re.S)
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    checked, stale = 0, []
    for span in re.findall(r"`([^`]+)`", text):
        ref = re.match(r"(\w+)\.(\w+(?:\.\w+)*)", span)
        if not ref or ref[1] not in modules or ref[0] == "config.ini":
            continue
        obj = importlib.import_module(f"westervelt_hdg.{ref[1]}")
        for name in ref[2].split("."):
            obj = getattr(obj, name, stale)
        checked += 1
        if obj is stale:
            stale.append(span)
    assert checked > 10
    assert not stale, f"README names that do not resolve: {stale}"
