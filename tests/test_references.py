"""Every function, class, method and property of `src/nettack` has a caller
in the program (`src/`, `scripts/` or `perfbench/`), not only in the tests,
and every dataclass field has a reader there.

Names are matched by spelling, not by type. A method or property counts as
referenced through an attribute read (`x.name`) or a string constant other
than a dict key (the benchmark's tracer patches attributes by name, while
keys such as `{"correct": ...}` name data); a module-level function or
class also counts through a bare name or an import. References inside the
definition itself (recursion) do not count, and dunders are exempt. A
dataclass field counts as read through an attribute read or such a string
constant (`getattr(plan, name)` over a tuple of field names).

Each field of a `*Config` dataclass must also be set somewhere in the
program, as a keyword argument of that name: a setting that only its
default ever takes selects a path that only the tests run.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(name, "module" or "member") of each definition, dunders left out."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, "module"))
        if isinstance(node, ast.ClassDef):
            defs += [(m.name, "member") for m in node.body
                     if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(name, kind) for name, kind in defs if not _is_dunder(name)]


class _References(ast.NodeVisitor):
    """Names read as attributes or string constants (dict keys left out), and
    names read bare or imported, outside any definition of the same name."""

    def __init__(self):
        self.members: set[str] = set()
        self.module: set[str] = set()
        self._inside: list[str] = []

    def _visit_definition(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_definition

    def _add(self, names: set[str], name: str) -> None:
        if name not in self._inside:
            names.add(name)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._add(self.members, node.attr)
        self.generic_visit(node)

    def visit_Dict(self, node):
        for key in node.keys:
            if key is not None and not isinstance(key, ast.Constant):
                self.visit(key)
        for value in node.values:
            self.visit(value)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            for part in node.value.split("."):
                if part.isidentifier():
                    self._add(self.members, part)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._add(self.module, node.id)

    def visit_alias(self, node):
        self._add(self.module, node.name.rsplit(".", 1)[-1])


def _fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, field) of the fields of each class decorated with `dataclass`."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            names += [(node.name, f.target.id) for f in node.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    return names


def _program_trees(root: Path) -> list[ast.Module]:
    return [ast.parse(path.read_text(), str(path))
            for top in ("src", "scripts", "perfbench")
            for path in sorted((root / top).rglob("*.py"))]


def _program_references(root: Path) -> _References:
    refs = _References()
    for tree in _program_trees(root):
        refs.visit(tree)
    return refs


def unreferenced(root: Path) -> list[str]:
    """Sorted "file:name" of each definition in `root/src/nettack` that no
    program file references."""
    refs = _program_references(root)
    missing = []
    for path in sorted((root / "src" / "nettack").glob("*.py")):
        for name, kind in _definitions(ast.parse(path.read_text(), str(path))):
            if name not in refs.members and (kind == "member" or name not in refs.module):
                missing.append(f"{path.name}:{name}")
    return sorted(missing)


def unread_fields(root: Path) -> list[str]:
    """Sorted "file:field" of each dataclass field in `root/src/nettack` that
    no program file reads."""
    refs = _program_references(root)
    return sorted(f"{path.name}:{name}"
                  for path in sorted((root / "src" / "nettack").glob("*.py"))
                  for _, name in _fields(ast.parse(path.read_text(), str(path)))
                  if name not in refs.members)


def unset_config_fields(root: Path) -> list[str]:
    """Sorted "file:Class.field" of each field of a `*Config` dataclass in
    `root/src/nettack` that no program file passes as a keyword argument."""
    keywords = {node.arg for tree in _program_trees(root) for node in ast.walk(tree)
                if isinstance(node, ast.keyword)}
    return sorted(f"{path.name}:{cls}.{name}"
                  for path in sorted((root / "src" / "nettack").glob("*.py"))
                  for cls, name in _fields(ast.parse(path.read_text(), str(path)))
                  if cls.endswith("Config") and name not in keywords)


def test_every_library_name_has_a_program_caller():
    assert unreferenced(ROOT) == []


def test_every_dataclass_field_has_a_program_reader():
    assert unread_fields(ROOT) == []


def test_every_config_field_is_set_by_the_program():
    assert unset_config_fields(ROOT) == []
