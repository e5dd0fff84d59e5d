import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import hessavg

MODULES = [hessavg.__name__] + [
    f"{hessavg.__name__}.{info.name}" for info in pkgutil.iter_modules(hessavg.__path__)
]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_modules_with_exports_found():
    assert len(EXPORTING) >= 7


@pytest.mark.parametrize("module_name", EXPORTING)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


ROOT = Path(__file__).resolve().parents[1]
RUN_SOURCES = sorted((ROOT / "src" / "hessavg").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


@functools.cache
def _names_read():
    """Every identifier that the package or the bench loads as a name or an
    attribute; strings and docstrings that mention a name do not read it."""
    read = set()
    for path in RUN_SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


@pytest.mark.parametrize("module_name", EXPORTING)
def test_every_exported_name_is_read_by_the_package_or_the_bench(module_name):
    # a name only tests read belongs in the tests
    module = importlib.import_module(module_name)
    unread = [name for name in module.__all__ if name not in _names_read()]
    assert not unread, f"{module_name}.__all__ names nothing in src/ or bench/ reads: {unread}"


def _public_methods(path):
    """``(class, name)`` of each public method or property a class in
    ``path`` defines; a dunder or underscored name is not public."""
    return [
        (node.name, item.name)
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "hessavg").glob("*.py")), ids=lambda p: p.name)
def test_every_public_method_is_read_by_the_package_or_the_bench(path):
    # a method only tests call, such as an override of one that nothing
    # calls any more, belongs in the tests
    unread = [f"{cls}.{name}" for cls, name in _public_methods(path) if name not in _names_read()]
    assert not unread, f"{path.name} defines public methods nothing in src/ or bench/ reads: {unread}"


def _is_number(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _is_field(node):
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self"


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "hessavg").glob("*.py")), ids=lambda p: p.name)
def test_no_post_init_bounds_a_field_by_a_number(path):
    # each one-key bound on a config key is a row of problems.BOUNDS, which
    # a class applies through check_args
    found = [
        f"{path.name}:{node.lineno}"
        for function in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(function, ast.FunctionDef) and function.name == "__post_init__"
        for node in ast.walk(function)
        if isinstance(node, ast.Compare)
        and any(map(_is_field, [node.left, *node.comparators]))
        and any(map(_is_number, [node.left, *node.comparators]))
    ]
    assert not found, f"__post_init__ compares a field with a number, a bound outside problems.BOUNDS: {found}"
