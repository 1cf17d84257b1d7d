"""Structural rules of the package source and the tests, read with
``ast``."""

import ast
from pathlib import Path

import instanton_zeta
from instanton_zeta.formexpr import TREES, E2Slot, FormExpr, Leaf
from instanton_zeta.forms import DIVISOR_LEAVES, GAUSSIAN_LEAVES
from instanton_zeta.laurent import LPoly

PACKAGE = Path(instanton_zeta.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_modules(node):
    """The modules an import statement reads, relative ones with their
    leading dots: ``from .a import b`` reads ``.a``, ``from . import a``
    reads ``.a``."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    prefix = "." * node.level
    if node.module is None:
        return {prefix + alias.name for alias in node.names}
    return {prefix + node.module}


def _imports(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_unused_import():
    unused = []
    for path in SOURCES + TESTS:
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used |= {elt.value for elt in node.value.elts}
        for node in _imports(tree):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_no_function_level_import_of_a_module_imported_at_the_top():
    repeated = []
    for path in SOURCES:
        tree = _tree(path)
        top = set()
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                top |= _imported_modules(node)
        for node in _imports(tree):
            if node not in tree.body and _imported_modules(node) & top:
                repeated.append(f"{path.name}:{node.lineno}")
    assert repeated == []


def test_identity_results_are_built_only_in_report():
    builders = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name == "IdentityResult" and path.name != "report.py":
                    builders.append(f"{path.name}:{node.lineno}")
    assert builders == []


def test_numeric_takes_exponentials_only_in_the_nome_helper():
    # every leaf kernel reads its nome through _nome, once per argument and
    # m in an evaluation; an mp.exp anywhere else would bypass that sharing
    tree = _tree(PACKAGE / "numeric.py")
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_nome")
    inside = {id(node) for node in ast.walk(helper)}
    stray = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "exp"
             and isinstance(node.value, ast.Name) and node.value.id == "mp"
             and id(node) not in inside]
    assert stray == []


def test_numeric_has_one_evaluator():
    # a form gets a number only through eval_form (a named form as a leaf
    # expression); the S-duality check is the one other entry point
    public = [node.name for node in _tree(PACKAGE / "numeric.py").body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")]
    assert sorted(public) == ["eval_form", "sduality_check"]


_TREE_NODES = {"Add", "E2Slot", "Leaf", "Mul", "Pow", "Scal"}


def test_formexpr_holds_trees_and_only_forms_expands_them_exactly():
    # formexpr imports nothing from the package
    tree = _tree(PACKAGE / "formexpr.py")
    assert [m for node in _imports(tree) for m in _imported_modules(node)
            if m.startswith(".")] == []
    # two modules dispatch on the nodes: forms, the one exact walk, and
    # numeric, which builds no q-series
    walkers = set()
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and _TREE_NODES & {n.id for n in ast.walk(node.args[1])
                                       if isinstance(n, ast.Name)}):
                walkers.add(path.name)
    assert sorted(walkers) == ["forms.py", "numeric.py"]
    numeric_reads = {m for node in _imports(_tree(PACKAGE / "numeric.py"))
                     for m in _imported_modules(node)}
    assert ".qseries" not in numeric_reads


def _subtrees(node):
    """The proper subtrees of a form tree, with repeats."""
    for value in vars(node).values():
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, FormExpr):
                yield child
                yield from _subtrees(child)


def test_every_named_tree_is_reached_only_through_its_name():
    primitive = {*DIVISOR_LEAVES, *GAUSSIAN_LEAVES}
    reads = {}
    for name, tree in TREES.items():
        leaves = {sub.name for sub in (tree, *_subtrees(tree))
                  if isinstance(sub, (Leaf, E2Slot))}
        # every leaf name resolves, to a primitive leaf or a named tree
        assert leaves <= primitive | set(TREES), name
        reads[name] = leaves & set(TREES)
    assert reads["Z_SO3"] == {"Z0", "Z_even", "Z_odd"}

    def reach(name, seen):
        for inner in reads[name] - seen:
            seen.add(inner)
            reach(inner, seen)
        return seen

    # no name reaches itself
    assert [name for name in TREES if name in reach(name, set())] == []
    # no named tree sits inside another as an object: a shared tree goes
    # through leaf(name), so through the cache of the exact layer
    named = {id(tree): name for name, tree in TREES.items()}
    assert [(outer, named[id(sub)]) for outer, tree in TREES.items()
            for sub in _subtrees(tree) if id(sub) in named] == []


def test_t_coefficients_carry_no_denominator():
    # every t-coefficient is an integer Laurent polynomial: LPoly holds an
    # offset and integer coefficients, and no module reads a denominator
    # attribute off one
    assert LPoly.__slots__ == ("off", "num")
    reads = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr == "den"]
    assert reads == []
