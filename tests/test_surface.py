"""Every function, class and method under src/venuerec is used by the program.

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
