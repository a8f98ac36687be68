"""Every public function and class of the library is reached.

A module-level public name (no leading underscore) of a ``posqubit``
module, ``cli`` and ``_g17`` aside, must be referenced in one of:
- the package's own code, outside the name's own definition;
- ``tests/test_acceptance.py``;
- ``ORACLES``, the names that no code reaches but a test uses as its
  reference.
A reference is a name or an attribute of that spelling in the parsed
source; an import alone is not one.  Code that no scenario kind, seed
acceptance test or oracle reaches is deleted, not kept.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "posqubit"
SKIPPED = ("cli", "_g17")  # the front end, which scenarios reach, and its private formatter

ORACLES = (
    "analytic_c1c2",  # test_cli: the Hadamard closed form of the single-qubit kind
    "angle_decomposition",  # test_decoherence: the first-order form of the paper_factorized split
    "evolve_density_with_decoherence",  # test_cli, test_decoherence: the density the decoherence kind's states give
    "evolve_rk4",  # test_single_qubit, test_cli, test_decoherence: stepping of bare callables
    "numeric_basis",  # test_spectral: the basis without definite parity
)


def _references(tree, skip=None):
    """Every Name id and Attribute attr in ``tree``, leaving out ``skip``'s subtree."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _public_definitions(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _unreached():
    """``module.name`` of each public definition that nothing reaches."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reached = _references(ast.parse((TESTS / "test_acceptance.py").read_text())) | set(ORACLES)
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        if module not in SKIPPED
        for node in _public_definitions(tree)
        if node.name not in reached and not any(node.name in _references(t, node) for t in trees.values())
    ]


def test_every_public_name_is_reached_by_the_package_the_acceptance_tests_or_an_oracle():
    assert _unreached() == []


def test_every_oracle_is_a_public_definition_that_a_test_uses():
    defined = {node.name for path in SRC.glob("*.py") for node in _public_definitions(ast.parse(path.read_text()))}
    others = [path for path in TESTS.glob("test_*.py") if path.name != pathlib.Path(__file__).name]
    used = set().union(*(_references(ast.parse(path.read_text())) for path in others))
    assert sorted(set(ORACLES) - (defined & used)) == []
