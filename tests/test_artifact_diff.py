"""tools/artifact_diff.py's comparison of two sides' outputs, with the
differences a change declares in tools/expected_diff.txt."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "artifact_diff", os.path.join(ROOT, "tools", "artifact_diff.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sides(tmp_path, base, head):
    """Two side directories holding the files `base` and `head` name."""
    dirs = []
    for name, files in (("base", base), ("head", head)):
        for rel, data in files.items():
            path = tmp_path / name / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        dirs.append(str(tmp_path / name))
    return dirs


SAME = {"a/same.txt": b"x\n"}


def test_undeclared_difference_counts(tool, tmp_path, capsys):
    base, head = sides(tmp_path, dict(SAME, **{"a/run.txt": b"1\n2\n"}),
                       dict(SAME, **{"a/run.txt": b"1\n3\n"}))
    assert tool.compare(base, head, {}) == 1
    assert capsys.readouterr().out == (
        "a/run.txt: line 2 differs at byte 1\n  base: b'2\\n'\n"
        "  head: b'3\\n'\n")


def test_declared_difference_is_printed_not_counted(tool, tmp_path, capsys):
    base, head = sides(tmp_path, dict(SAME, **{"a/run.txt": b"1\n"}),
                       dict(SAME, **{"a/run.txt": b"2\n"}))
    assert tool.compare(base, head, {"a/run.txt": "new scores"}) == 0
    out = capsys.readouterr().out
    assert out.startswith("a/run.txt: line 1 differs at byte 1\n")
    assert out.endswith("  declared: new scores\n")


def test_declared_file_on_one_side_is_not_counted(tool, tmp_path, capsys):
    base, head = sides(tmp_path, SAME, dict(SAME, **{"a/report.json": b"{}"}))
    assert tool.compare(base, head, {"a/report.json": "a new report"}) == 0
    assert capsys.readouterr().out == (
        "a/report.json: only on the head side\n  declared: a new report\n")


@pytest.mark.parametrize("declared", ["a/same.txt", "a/gone.txt"],
                         ids=["identical", "on-neither-side"])
def test_declaration_that_does_not_differ_is_stale(tool, tmp_path, capsys,
                                                   declared):
    base, head = sides(tmp_path, SAME, SAME)
    assert tool.compare(base, head, {declared: "was new"}) == 1
    assert capsys.readouterr().out == (
        "%s: declared, but identical on both sides or on neither: was new\n"
        % declared)


def test_declarations_are_path_tab_reason_lines(tool, tmp_path):
    path = tmp_path / "expected_diff.txt"
    path.write_text("a/run.txt\tnew scores\n\nb/x.stderr\tnew message\n",
                    encoding="utf-8")
    assert tool.read_expected(str(path)) == {"a/run.txt": "new scores",
                                             "b/x.stderr": "new message"}
    path.write_text("a/run.txt new scores\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="line 1: expected 'path<TAB>reason'"):
        tool.read_expected(str(path))
