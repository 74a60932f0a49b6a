"""Rules on the source of the package, checked on its syntax trees.

They read ``src/solitonlab`` with ``ast`` rather than grep, so a docstring
or a comment cannot match.
"""

import ast
import builtins
import inspect
from pathlib import Path

from solitonlab import errors

SRC = Path(__file__).resolve().parent.parent / "src" / "solitonlab"
TREES = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def read_names(tree):
    """Every name that ``tree`` reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_no_assert_statements():
    # invariants must survive python -O, so they raise instead of asserting
    found = [f"{path}:{node.lineno}"
             for path, tree in TREES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_untyped_raise():
    # every raise is a typed SolitonLabError, so callers can catch the
    # package's failures by one class; the command line's argument parsing
    # keeps argparse's own types, and bare re-raises pass
    typed = {name for name, obj in vars(errors).items()
             if inspect.isclass(obj) and issubclass(obj, errors.SolitonLabError)}
    allowed = {"cli.py": {"argparse.ArgumentTypeError", "_CliError"}}
    found = []
    for path, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            call = isinstance(node.exc, ast.Call)
            name = ast.unparse(node.exc.func if call else node.exc)
            builtin = inspect.isclass(getattr(builtins, name, None))
            if ((call or builtin) and name.removeprefix("errors.") not in typed
                    and name not in allowed.get(path.name, ())):
                found.append(f"{path}:{node.lineno}: raise {name}")
    assert found == []


def test_no_unused_imports():
    # a deletion can leave an import behind that nothing reads; the package
    # root re-exports by import, and __future__ imports are flags
    found = []
    for path, tree in TREES.items():
        if path.name == "__init__.py":
            continue
        read = read_names(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in read:
                        found.append(f"{path}:{node.lineno}: {name}")
    assert found == []


def test_no_unreferenced_private_names():
    # a deletion can leave a private helper behind that nothing calls: every
    # module-level _name and every _method of a class must be read somewhere
    # in the package, as a name or an attribute
    read = set()
    for tree in TREES.values():
        read |= read_names(tree)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for path, tree in TREES.items():
        for top in tree.body:
            scopes = [top] + (top.body if isinstance(top, ast.ClassDef) else [])
            for node in scopes:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    continue
                found += [f"{path}:{node.lineno}: {name}" for name in names
                          if name.startswith("_") and not name.endswith("__")
                          and name not in read]
    assert found == []
