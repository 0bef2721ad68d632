"""The benchmark's view of bibeta still resolves: perfbench/*.py is parsed, never run.

perfbench/ imports bibeta from outside the package, so a refactor of src/
could break it without any other test noticing.  Every name it imports
from bibeta, every attribute it reads off such a name, every class method
the tracer wraps, and every attribute its counters read off a traced
call's result must exist.
"""

import ast
import importlib
import importlib.util
import types
import typing
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def resolve(module: str, name: str):
    """module.name as an attribute, or the submodule module.name."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def has_attribute(owner, name: str) -> bool:
    if hasattr(owner, name):
        return True
    is_module = isinstance(owner, types.ModuleType)
    return is_module and importlib.util.find_spec(f"{owner.__name__}.{name}") is not None


def bibeta_names(tree: ast.AST) -> dict:
    """Local name -> the bibeta object it is bound to by an import statement."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bibeta":
            for alias in node.names:
                bound[alias.asname or alias.name] = resolve(node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bibeta":
                    # `import bibeta.cli` binds bibeta; `import bibeta.cli as c` binds the submodule
                    bound[alias.asname or "bibeta"] = importlib.import_module(
                        alias.name if alias.asname else "bibeta"
                    )
    return bound


def assigned_literal(tree: ast.AST, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no module-level {name} literal")


def test_scripts_found():
    assert {"make_reference.py", "sweep.py", "tracer.py"} <= {p.name for p in SCRIPTS}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_imported_names_and_their_attributes_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = bibeta_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            assert has_attribute(bound[node.value.id], node.attr), (
                f"{path.name}:{node.lineno}: {node.value.id}.{node.attr} does not resolve"
            )


def test_tracer_modules_and_methods_resolve():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for name in assigned_literal(tree, "LOOKUP_MODULES"):
        importlib.import_module(f"bibeta.{name}")
    for (home, cls_name), methods in assigned_literal(tree, "TRACED_METHODS").items():
        cls = getattr(importlib.import_module(f"bibeta.{home}"), cls_name)
        for method in methods:
            assert callable(getattr(cls, method)), f"{home}.{cls_name}.{method}"


def attribute_type(owner: type, name: str):
    """The annotated type of owner.name: a field's annotation, or a property's return annotation."""
    hints = typing.get_type_hints(owner)
    if name in hints:
        return hints[name]
    member = getattr(owner, name, None)
    assert isinstance(member, property), f"{owner.__name__}.{name} is neither a field nor a property"
    return typing.get_type_hints(member.fget).get("return")


def result_chains(counter: ast.Lambda):
    """Each attribute chain the lambda reads off its third argument, the traced call's result."""
    result = counter.args.args[2].arg
    for node in ast.walk(counter.body):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == result:
            yield chain


def test_tracer_counters_read_annotated_result_attributes():
    """grids.density_grid's counter reads DensityGrid.n_samples and .estimated, and so on."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    make = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_make_counters")
    counters = next(n for n in ast.walk(make) if isinstance(n, ast.Return)).value
    checked = []
    for key, counter in zip(counters.keys, counters.values):
        if not isinstance(counter, ast.Lambda):
            continue
        home, name = ast.literal_eval(key).split(".")
        returned = typing.get_type_hints(getattr(importlib.import_module(f"bibeta.{home}"), name))["return"]
        for chain in result_chains(counter):
            owner = returned
            for attr in chain:
                assert isinstance(owner, type), f"{home}.{name}: {'.'.join(chain)} reads {attr} off {owner}"
                owner = attribute_type(owner, attr)
            checked.append(f"{home}.{name}: {'.'.join(chain)}")
    assert checked, "no counter reads an attribute of a result"
