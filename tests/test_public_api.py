"""Every public name is used by a pipeline, a demo, the benchmark or the README.

A public name is one listed in a module's `__all__` or bound in the
`selfapprox` namespace.  It counts as used where a non-test `.py` file under
`src/`, `demos/` or `perfbench/` loads it (an `ast.Name` or `ast.Attribute`
read), or where README.md mentions it.  Imports, `__all__` strings,
docstrings and error messages are not reads, so a name that only they carry
is a path that no command runs: delete it rather than keep it alive in tests.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import selfapprox

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "demos", "perfbench")


def _loaded_names() -> set:
    names = set()
    for top in SOURCE_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


def _public_names() -> dict:
    """name -> the module that exports it."""
    out = {}
    for info in pkgutil.iter_modules(selfapprox.__path__):
        module = importlib.import_module(f"selfapprox.{info.name}")
        for name in getattr(module, "__all__", ()):
            out.setdefault(name, module.__name__)
    for name, value in vars(selfapprox).items():
        if not name.startswith("_") and not inspect.ismodule(value):
            out.setdefault(name, "selfapprox")
    return out


def test_no_orphan_public_names():
    loaded = _loaded_names()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    orphans = sorted(
        f"{module}.{name}"
        for name, module in _public_names().items()
        if name not in loaded and not re.search(rf"\b{re.escape(name)}\b", readme)
    )
    assert not orphans, f"public names that no pipeline, demo, benchmark or README uses: {orphans}"
