"""No dead code in the package: every import is used in its module, and
every top-level private name is read somewhere in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "addwave"


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _loaded(tree: ast.AST) -> set:
    """Names read in ``tree``: a bare name, an attribute, or a name
    imported from another module of the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.update(alias.name for alias in node.names)
    return names


def _imported(tree: ast.AST) -> list:
    """``(line, name)`` of each name an import binds, ``__future__``'s
    left out."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.extend((node.lineno, (alias.asname or alias.name)
                          .split(".")[0]) for alias in node.names)
    return bound


def _private_definitions(tree: ast.Module) -> list:
    """``(line, name)`` of each top-level function, class or assignment
    whose name starts with one underscore."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined.extend((node.lineno, t.id) for t in targets
                           if isinstance(t, ast.Name))
    return [(line, name) for line, name in defined
            if name.startswith("_") and not name.startswith("__")]


def test_every_import_is_used_in_its_module():
    unused = []
    for module, tree in _trees().items():
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{module}:{line} {name}"
                   for line, name in _imported(tree)
                   if module != "__init__.py" and name not in names]
    assert unused == []


def test_every_private_name_is_read_in_the_package():
    trees = _trees()
    read = set().union(*map(_loaded, trees.values()))
    unread = [f"{module}:{line} {name}"
              for module, tree in trees.items()
              for line, name in _private_definitions(tree)
              if name not in read]
    assert unread == []
