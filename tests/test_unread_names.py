"""Every function, class and method in src/normproj is read by the program.

A name that only tests read belongs in the tests.  The program here is
src/normproj and the benchmark in perfbench/, whose tracer names the
functions it wraps in string tuples.  Names are matched by their bare
identifier, so a read of any attribute or variable of the same name
counts: the test can miss an unread name, never flag a read one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "normproj"

# read by no program file, and kept: the console script pyproject.toml
# names, and the Favard proxy until the sweep's measure ladder replaces it
ALLOWED = {"cli.entrypoint", "boxdim.favard_proxy"}


def _definitions(module, tree):
    """(qualified name, bare name, node) of each module-level function or
    class and each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _reads(node, skip):
    """Identifiers read under ``node``, not descending into ``skip`` nodes."""
    found = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current in skip:
            continue
        if isinstance(current, ast.Name):
            found.append(current.id)
        elif isinstance(current, ast.Attribute):
            found.append(current.attr)
        elif (isinstance(current, ast.Constant) and isinstance(current.value, str)
                and current.value.isidentifier()):
            found.append(current.value)
        stack.extend(ast.iter_child_nodes(current))
    return found


def _unread_names():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    defs = [d for module, tree in trees.items() for d in _definitions(module, tree)]
    readers = list(trees.values()) + [ast.parse(path.read_text(encoding="utf-8"))
                                      for path in sorted((ROOT / "perfbench").glob("*.py"))]
    # a definition read only by unread definitions is unread too
    unread = {}
    while True:
        skip = set(unread.values())
        counts = {}
        for tree in readers:
            for name in _reads(tree, skip):
                counts[name] = counts.get(name, 0) + 1
        added = False
        for qualname, name, node in defs:
            if qualname in unread:
                continue
            own = _reads(node, skip).count(name)   # reads inside its own definition
            if counts.get(name, 0) <= own:
                unread[qualname] = node
                added = True
        if not added:
            return set(unread)


def test_every_src_name_is_read_by_the_program():
    assert _unread_names() == ALLOWED
