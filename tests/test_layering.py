"""Module layering of `group_pdo`, read from its source with `ast`: no module imports a private name of
another, and the group-agnostic layers name no concrete group."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "group_pdo"
MODULES = sorted(PACKAGE.rglob("*.py"))
GROUP_AGNOSTIC = ("diffops", "fourier", "quantize", "seminorms")


def tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_private_import(path):
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree(path))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


@pytest.mark.parametrize("name", GROUP_AGNOSTIC)
def test_group_agnostic_layers_name_no_group(name):
    named = [
        f"line {node.lineno}"
        for node in ast.walk(tree(PACKAGE / f"{name}.py"))
        if isinstance(node, ast.alias) and node.name.split(".")[-1] in ("Torus", "SU2")
        or isinstance(node, ast.Name) and node.id in ("Torus", "SU2")
        or isinstance(node, ast.Attribute) and node.attr in ("Torus", "SU2")
    ]
    assert named == []
