"""Every public name has a caller outside the tests."""

import ast
from pathlib import Path

import natspec

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
