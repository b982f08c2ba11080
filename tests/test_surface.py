"""src/gosslift holds only what the program uses.

Every top-level function and class of the package, and every method not
spelled __like_this__, must be referenced somewhere in src/, in bench/ or
in pyproject.toml.  A reference is a Name, an Attribute or an import
alias in the Python sources, or a word of pyproject.toml (the console
script entry point).  A name that only tests call belongs with the tests.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gosslift"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_names():
    """(module, qualified name, bare name) for each definition to check."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            yield path.name, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and not _dunder(item.name):
                        yield path.name, f"{node.name}.{item.name}", item.name


def referenced_names():
    names = set()
    for _, tree in _trees(ROOT / "src", ROOT / "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    names.update(re.findall(r"\w+", pyproject))
    return names


def test_every_src_name_is_used_by_the_program():
    used = referenced_names()
    unused = [f"{module}: {qualified}"
              for module, qualified, bare in defined_names() if bare not in used]
    assert not unused, "defined in src/ but used only by tests: " + ", ".join(unused)


def test_the_scan_sees_definitions_and_references():
    defined = {qualified for _, qualified, _ in defined_names()}
    assert {"dirichlet_table", "DirichletTable.block_sums", "run"} <= defined
    used = referenced_names()
    # an import alias, an attribute and the console script entry point
    assert {"dump_blocks", "block_sums", "run"} <= used
