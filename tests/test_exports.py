"""Every public name, public function, member and private function has a caller outside
the tests, and every knob and constant a reader."""

import argparse
import ast
import dataclasses
import re
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


def _bench_spans() -> set[str]:
    """The "module.attribute" of each entry of ``bench/tracing.py``'s SPANS."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    [spans] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANS"]]
    return {f"{entry.elts[1].value}.{entry.elts[2].value}" for entry in spans.elts}


def test_every_public_function_and_member_has_a_caller_outside_the_tests():
    # a public module-level function, method or property that only the tests
    # call is a second route to what the package does another way, or to
    # nothing; the benchmark times these two, looked up by name
    traced = {"spectrum.torus_max", "spectrum.character_values"}
    assert {f"natspec.{qualified}" for qualified in traced} <= _bench_spans()
    public = []
    for path in sorted((ROOT / "src" / "natspec").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                public += [(f"{path.stem}.{node.name}.{member.name}", member.name)
                           for member in node.body if isinstance(member, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                public.append((f"{path.stem}.{node.name}", node.name))
    used = _callers()
    assert [qualified for qualified, name in public if not name.startswith("_")
            and name not in used and qualified not in traced] == []


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


def test_every_constant_is_read():
    # a module-level UPPER_CASE constant of the package that no code in the
    # package reads, by name or as an attribute, is a threshold or a budget
    # that nothing applies
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "natspec").glob("*.py"))]
    defined, read = set(), set()
    for tree in trees:
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined |= {t.id for t in targets if isinstance(t, ast.Name)
                        and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)}
        read |= _attributes_read(tree) | {node.id for node in ast.walk(tree)
                                          if isinstance(node, ast.Name)
                                          and isinstance(node.ctx, ast.Load)}
    assert sorted(defined - read) == []


def test_every_private_function_has_a_caller():
    # a private helper that no package, demo or benchmark code calls is left
    # over from a deletion; dunder methods are called by the language
    defined = set()
    for path in sorted((ROOT / "src" / "natspec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                defined.add(node.name)
    assert sorted(defined - _callers()) == []


def test_private_imports_across_modules_are_the_pinned_set():
    # a module that imports another's private name couples to its internals;
    # each such coupling is listed here, so a new one is added on purpose
    imported = set()
    for path in sorted((ROOT / "src" / "natspec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported |= {(path.stem, node.module, alias.name) for alias in node.names
                             if alias.name.startswith("_")}
    assert imported == {
        ("decomposition", "measures", "_U"), ("decomposition", "measures", "_transform_sups"),
        ("decomposition", "measures", "_transform_allowance"),
        ("decomposition", "measures", "_fresh_pair"), ("decomposition", "measures", "_sum"),
        ("decomposition", "spectrum", "_DISK_COVER"),
        ("decomposition", "spectrum", "_live_classes"),
        ("decomposition", "spectrum", "_pair_covering"),
        ("decomposition", "spectrum", "_transform_upper"),
        ("spectrum", "measures", "_MAX_DEGREE"), ("spectrum", "measures", "_TERM_BLOCK"),
        ("spectrum", "measures", "_U"), ("spectrum", "measures", "_transform_sups"),
        ("spectrum", "measures", "_fresh_pair"), ("spectrum", "measures", "_PAIR_COVER_CACHE"),
        ("measures", "angles", "_PI_LD")}
