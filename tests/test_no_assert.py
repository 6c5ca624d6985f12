"""src/normproj holds no ``assert`` statement.

``python -O`` strips asserts, so an invariant the program keeps must be an
explicit test that raises.  The package is parsed, not imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "normproj"


def test_src_has_no_assert_statement():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found
