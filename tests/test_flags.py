"""Every subcommand's flags are exactly the `args.<name>` its handler reads, read from `cli`'s source with `ast`.

A handler reads a flag as `args.<name>`, in its own body or in a `cli` function it passes `args` to
(`_setup`, `_build`, and what they call in turn).  `--out` and `--threads` are read for every subcommand,
by `_dispatch` and `main`.  A flag that nothing reads would be accepted, hashed into the result's name and
ignored; a read that no flag matches would fail at run time.
"""

import argparse
import ast
import pathlib

import pytest

from group_pdo import cli

READ_FOR_EVERY_COMMAND = {"out", "threads"}


def functions() -> dict:
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def reads(name: str, defs: dict) -> set:
    """The `args.<name>` that function `name` reads, and those of the `cli` functions it passes `args` to."""
    found = set()
    for node in ast.walk(defs[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            found.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in defs
            and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
        ):
            found |= reads(node.func.id, defs)
    return found


def subparsers() -> dict:
    return next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_flags_are_what_the_handler_reads(command):
    dests = {action.dest for action in subparsers()[command]._actions} - {"help"}
    assert dests == reads(cli.COMMANDS[command].__name__, functions()) | READ_FOR_EVERY_COMMAND
