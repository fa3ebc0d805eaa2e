"""Every function, class and method under src/venuerec is used by the
program, and no module under src/, tests/ or tools/ imports a name it
never reads.

A name counts as used when code under src/ or perfbench/ refers to it
outside its own definition.  The site strings of perfbench/traced.py,
such as "TopicBlocks.metric", count too, because the tracer rebinds
those names.  Test-only helpers and fixture writers live under tests/.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "venuerec", "**",
                                        "*.py"), recursive=True))
USERS = SOURCES + sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
TRACER = os.path.join(ROOT, "perfbench", "traced.py")
IMPORTERS = sorted(
    path for part in ("src", "tests", "tools")
    for path in glob.glob(os.path.join(ROOT, part, "**", "*.py"),
                          recursive=True))


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def definitions():
    """``(path, name, first line, last line)`` of each non-dunder
    function, class and method under src/venuerec."""
    out = []
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                out.append((path, node.name, node.lineno, node.end_lineno))
    return out


def references():
    """``(path, line, name)`` of each name read under src/ and
    perfbench/, the dotted parts of the tracer's strings included."""
    out = []
    for path in USERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                out.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                out.append((path, node.lineno, node.attr))
            elif (path == TRACER and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                out.extend((path, node.lineno, part)
                           for part in node.value.split("."))
    return out


def test_every_definition_is_referenced_outside_itself():
    refs = references()
    unused = ["%s:%d %s" % (os.path.relpath(path, ROOT), first, name)
              for path, name, first, last in definitions()
              if not any(ref == name and not (where == path
                                              and first <= line <= last)
                         for where, line, ref in refs)]
    assert not unused, "defined under src/ but used only by tests: %s" % (
        ", ".join(unused))


def test_the_scan_sees_the_package():
    names = {name for _, name, _, _ in definitions()}
    assert {"main", "load_venues", "TopicBlocks", "metric"} <= names


def unused_imports(path):
    """``(line, name)`` of each name `path` imports and never reads; a
    name listed in the module's ``__all__`` counts as read."""
    tree = _parse(path)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            read.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    unused = ["%s:%d %s" % (os.path.relpath(path, ROOT), line, name)
              for path in IMPORTERS for line, name in unused_imports(path)]
    assert not unused, "imported but never read: %s" % ", ".join(unused)


def test_the_import_scan_sees_an_unused_name(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nimport os.path as osp\n"
                    "from sys import argv, path as sys_path\n"
                    "__all__ = ['argv']\nprint(osp)\n", encoding="utf-8")
    assert unused_imports(str(path)) == [(1, "os"), (3, "sys_path")]
    assert len(IMPORTERS) > 20
