"""Every public name has a caller outside the tests, and every knob a reader."""

import argparse
import ast
import dataclasses
from pathlib import Path

import natspec
from natspec import cli
from natspec.decomposition import DecompositionOptions

ROOT = Path(__file__).resolve().parents[1]


def _callers() -> set[str]:
    """Names that the package's modules (not ``__init__``), the demos and the
    benchmark load or look up as attributes in their code; a definition, an
    import, a comment or a string does not count."""
    files = [path for path in sorted((ROOT / "src" / "natspec").glob("*.py"))
             if path.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _callers()
    assert [name for name in natspec.__all__ if name not in used] == []


def _attributes_read(tree: ast.AST, owner=None) -> set[str]:
    """Attributes loaded in the code under ``tree``, of the name ``owner`` if given."""
    read = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and (owner is None or isinstance(node.value, ast.Name)
                     and node.value.id == owner)):
            read.add(node.attr)
    return read


def test_every_knob_is_read():
    # an option that its subcommand's handler never reads as args.<dest>, or
    # an options field that the decomposition never reads, does nothing
    package = ROOT / "src" / "natspec"
    handlers = {node.name: node
                for node in ast.parse((package / "cli.py").read_text(encoding="utf-8")).body
                if isinstance(node, ast.FunctionDef)}
    [commands] = [action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    unread = []
    for name, sub in commands.choices.items():
        read = _attributes_read(handlers[cli._DISPATCH[name].__name__], "args")
        unread += [f"{name} {action.dest}" for action in sub._actions
                   if not isinstance(action, argparse._HelpAction) and action.dest not in read]
    assert unread == []
    tree = ast.parse((package / "decomposition.py").read_text(encoding="utf-8"))
    assert [field.name for field in dataclasses.fields(DecompositionOptions)
            if field.name not in _attributes_read(tree)] == []
