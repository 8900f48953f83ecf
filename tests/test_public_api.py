"""Every public name is used by a pipeline, a demo, the benchmark or the README.

A public name is one listed in a module's `__all__`, a function or class
defined at the top level of a module without `__all__` (such as `sampling`),
a name bound in the `selfapprox` namespace, or a member (method, property,
class attribute or dataclass field) of a public class, none of them starting
with `_`.  It counts as used where a non-test `.py` file under `src/`,
`demos/` or `perfbench/` loads it (an `ast.Name` or `ast.Attribute` read), or
where README.md mentions it.  Imports, `__all__` strings, docstrings and
error messages are not reads, so a name that only they carry is a path that
no command runs: delete it rather than keep it alive in tests.
"""

import ast
import dataclasses
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


def _defined_here(module) -> list:
    """The public functions and classes defined at the top level of `module`."""
    return [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    ]


def _members(cls) -> list:
    """The public members of a class: its own methods, properties and class
    attributes, and its dataclass fields."""
    fields = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
    return [name for name in dict.fromkeys([*vars(cls), *fields]) if not name.startswith("_")]


def _public_names() -> dict:
    """qualified name -> the bare name a reader loads."""
    out = {}
    for info in pkgutil.iter_modules(selfapprox.__path__):
        module = importlib.import_module(f"selfapprox.{info.name}")
        names = module.__all__ if hasattr(module, "__all__") else _defined_here(module)
        for name in names:
            out[f"{module.__name__}.{name}"] = name
            value = getattr(module, name)
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for member in _members(value):
                    out[f"{module.__name__}.{name}.{member}"] = member
    exported = set(out.values())
    for name, value in vars(selfapprox).items():
        if not name.startswith("_") and not inspect.ismodule(value) and name not in exported:
            out[f"selfapprox.{name}"] = name
    return out


def test_no_orphan_public_names():
    loaded = _loaded_names()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    orphans = sorted(
        qualified
        for qualified, name in _public_names().items()
        if name not in loaded and not re.search(rf"\b{re.escape(name)}\b", readme)
    )
    assert not orphans, f"public names that no pipeline, demo, benchmark or README uses: {orphans}"


def test_no_module_reads_the_environment():
    # every setting is a flag, a config key or a manifest entry, so that a
    # manifest alone reruns a run
    reads = sorted(
        f"{path.name}:{node.lineno}"
        for path in (ROOT / "src").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv", "getenvb")
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and any(alias.name in ("environ", "environb", "getenv", "getenvb") for alias in node.names)
    )
    assert not reads, f"environment reads under src/: {reads}"
