"""Byte-compare every output of this checkout against another commit's.

Usage (from anywhere inside a checkout)::

    python3 tools/artifact_diff.py BASE_REF

BASE_REF is checked out with ``git worktree`` into a temporary
directory.  Each side makes its own inputs, with its own generators and
its own ``src/``, so a change to the code that writes them shows too:

* the planted corpus of ``tests/synthdata.py`` (run with ``--seed 42``);
* the ``pipeline-mart`` corpus of ``perfbench/gen.py``, seed 1 (run with
  ``--seed 1``);
* a copy of the planted corpus whose ``embeddings.txt`` has no header
  and separates its columns by tabs, which the text reader cannot take
  through its numpy path and parses line by line instead.  This tool
  makes the copy, the same way on both sides;
* a copy of the planted corpus whose ``profiles.jsonl`` has its second
  line cut in half, made the same way, so a command that fails on a bad
  input is compared too: its exit code, its error line and the files it
  leaves behind;
* a copy of the planted corpus whose ``venues.jsonl`` has its second
  line cut in half, made the same way, so the load order that
  ``pipeline`` and ``build-profiles`` share shows in which input's
  error they report and when;
* the ``ablate-mart`` features file of ``perfbench/gen.py``, seed 1,
  with CRLF line ends, which the features reader cannot take through
  its regular expression and parses line by line instead.

On each of the first two corpora, each side runs:

* ``build-profiles``, on its own, at the default ``--k``, at ``--k 1``
  and at ``--k 100000``, more than either corpus has terms, so context
  expansion ranks every row;
* ``pipeline`` with the MART defaults, with ``--learner ca --normalize``,
  with ``--metric mrr`` and with ``--learner ca --normalize --metric
  mrr``, so coordinate ascent's line search runs on both metrics;
* ``ablate`` with CA and with MART (the ``ablate-ca`` and
  ``ablate-mart`` settings of ``perfbench/run.py``), both on the
  ``features.txt`` of that side's default ``pipeline``.

On the planted corpus, each side also runs ``pipeline --learner ca
--normalize`` at ``--seed 4294967301``, a seed of two 32-bit words, so
the seeded split and coordinate ascent's restart draws are compared for
a seed past one word.  It also runs the standalone steps in a chain,
once with the MART defaults and once with ``--learner ca --normalize``:
``build-profiles``, then ``extract`` on the caches it wrote, ``train``
and ``rank`` on that ``features.txt``, and ``eval --compare`` against
the run of the default ``pipeline``, all in one out-dir.  On the
``perfbench/gen.py`` corpus, each side runs ``eval`` on the run of
``pipeline --learner ca --normalize`` and on the run of ``pipeline
--metric mrr``, each with ``--compare`` against the default
``pipeline``'s run.  Their per-topic P@5 differ, so each gives its own
t statistic, and its p-value comes from the Student-t series of
``evaluation.paired_t_test``; the chains' compared runs have equal P@5
per topic, which gives t = 0 and p = 1 without it.  On each copy,
each side runs ``pipeline`` with the MART defaults, on the copy with
the broken venues line ``build-profiles`` too, and on the CRLF
features file ``ablate`` with the ``ablate-mart`` settings.

Every command runs with ``-v`` from its side's own directory and names
its inputs and ``--out-dir`` by relative paths, so the paths it logs
agree.  The inputs, each command's exit code, stdout and stderr (a
chain's under one label per step) and every file in its out-dir must be
byte-identical.  For each file that differs, the first differing line
and byte are printed, and the exit code is 1; 0 means all identical.

A change that means to alter some of them declares each such file in
``tools/expected_diff.txt``, read from this checkout: one
``path<TAB>reason`` line per file, the path relative to a side's
directory as printed, such as ``gen1/pipeline/run.txt``.  A declared
file that differs, or that is on one side only, is printed with its
reason and not counted.  A declared file that is identical on both
sides, or on neither, is stale and is counted, so each change starts
from an empty declaration.
"""

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "tools", "expected_diff.txt")

PIPELINES = (("pipeline", ()),
             ("pipeline-ca-normalize", ("--learner", "ca", "--normalize")),
             ("pipeline-mrr", ("--metric", "mrr")),
             ("pipeline-ca-normalize-mrr",
              ("--learner", "ca", "--normalize", "--metric", "mrr")))
ABLATIONS = ("ablate-ca", "ablate-mart")
INPUTS = (("embeddings", ".txt"), ("venues", ".jsonl"),
          ("profiles", ".jsonl"), ("contexts", ".jsonl"), ("qrels", ".txt"))
CORPORA = (("gen1", 1), ("synth", 42))
# the --k values build-profiles also runs at, besides the default
BUILD_PROFILES_K = (1, 100000)
# (corpus, seed): the pipeline-ca-normalize run at a two-word seed
TWO_WORD_SEED = ("synth", 4294967301)
# (corpus, seed): the standalone steps, chained once per learner setting
CHAINED = ("synth", 42)
CHAINS = (("steps", ()),
          ("steps-ca-normalize", ("--learner", "ca", "--normalize")))
# (copy, corpus it copies, seed): the headerless, tab-separated copy
LINE_PARSED = ("synth-tab", "synth", 42)
# (copy, corpus it copies, seed, file): the copies with a broken line
BAD_PROFILES = ("synth-bad-profiles", "synth", 42, "profiles.jsonl")
BAD_VENUES = ("synth-bad-venues", "synth", 42, "venues.jsonl")
# (name, workload, seed): the CRLF features file and the ablation run on it
CRLF_FEATURES = ("crlf", "ablate-mart", 1)
# (corpus, run, compared run): eval --compare of two of its pipelines
COMPARED = (("gen1", "pipeline-ca-normalize", "pipeline"),
            ("gen1", "pipeline-mrr", "pipeline"))
IN_DIR = "inputs"


def _workloads(root):
    """The benchmark's workload table, read from root's perfbench/run.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(root, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _env(src):
    env = dict(os.environ)
    # one BLAS thread, so float sums keep one order on both sides
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=src)
    return env


def _run(argv, cwd, src):
    proc = subprocess.run(argv, cwd=cwd, env=_env(src), capture_output=True)
    if proc.returncode != 0:
        sys.exit("artifact_diff: %s failed:\n%s"
                 % (" ".join(argv), proc.stderr.decode(errors="replace")))


def make_inputs(root, side_dir):
    """Write both corpora and the ablate configs under
    ``side_dir/inputs``, with root's generators and ``src/``."""
    src = os.path.join(root, "src")
    workloads = _workloads(root)
    in_dir = os.path.join(side_dir, IN_DIR)
    os.makedirs(in_dir)
    _run([sys.executable, os.path.join(root, "tests", "synthdata.py"),
          os.path.join(in_dir, "synth")], root, src)
    _run([sys.executable, os.path.join(root, "perfbench", "gen.py"),
          "pipeline", src, os.path.join(in_dir, "gen1"), "1",
          json.dumps(workloads["pipeline-mart"]["shape"])], root, src)
    copy, original, _ = LINE_PARSED
    shutil.copytree(os.path.join(in_dir, original), os.path.join(in_dir, copy))
    with open(os.path.join(in_dir, original, "embeddings.txt"),
              encoding="utf-8") as fh:
        rows = fh.readlines()[1:]
    with open(os.path.join(in_dir, copy, "embeddings.txt"), "w",
              encoding="utf-8") as fh:
        fh.writelines(row.replace(" ", "\t") for row in rows)
    for copy, original, _, name in (BAD_PROFILES, BAD_VENUES):
        shutil.copytree(os.path.join(in_dir, original),
                        os.path.join(in_dir, copy))
        broken = os.path.join(in_dir, copy, name)
        with open(broken, encoding="utf-8") as fh:
            rows = fh.readlines()
        rows[1] = rows[1][:len(rows[1]) // 2] + "\n"
        with open(broken, "w", encoding="utf-8") as fh:
            fh.writelines(rows)
    name, workload, seed = CRLF_FEATURES
    crlf_dir = os.path.join(in_dir, name)
    os.makedirs(crlf_dir)
    _run([sys.executable, os.path.join(root, "perfbench", "gen.py"),
          "features", src, crlf_dir, str(seed),
          json.dumps(workloads[workload]["shape"])], root, src)
    features = os.path.join(crlf_dir, "features.txt")
    with open(features, "rb") as fh:
        data = fh.read()
    with open(features, "wb") as fh:
        fh.write(data.replace(b"\n", b"\r\n"))
    for name in ABLATIONS:
        with open(os.path.join(in_dir, name + ".cfg"), "w",
                  encoding="utf-8") as fh:
            for key, value in sorted(workloads[name]["config"].items()):
                fh.write("%s = %s\n" % (key, value))


def commands():
    """``(label, out dir, argv)`` for the whole matrix; every path is
    relative to a side's directory.  A label is its command's out dir,
    and in a chain the out dir and the step.  Each corpus's pipelines
    come before its ablations and chains, which read the default
    pipeline's outputs."""
    def on_corpus(corpus, seed, name, flags, command="pipeline",
                  inputs=INPUTS):
        argv = [command, "--seed", str(seed), *flags]
        for key, ext in inputs:
            argv += ["--" + key, "%s/%s/%s%s" % (IN_DIR, corpus, key, ext)]
        label = "%s/%s" % (corpus, name)
        return label, label, argv

    def ablate(label, seed, config, features):
        return label, label, ["ablate", "--seed", str(seed), "--config",
                              "%s/%s.cfg" % (IN_DIR, config),
                              "--features", features]

    out = []
    for corpus, seed in CORPORA:
        out.append(on_corpus(corpus, seed, "build-profiles", (),
                             "build-profiles", INPUTS[:3]))
        for k in BUILD_PROFILES_K:
            out.append(on_corpus(corpus, seed, "build-profiles-k%d" % k,
                                 ("--k", str(k)), "build-profiles",
                                 INPUTS[:3]))
        for name, flags in PIPELINES:
            out.append(on_corpus(corpus, seed, name, flags))
        for name in ABLATIONS:
            out.append(ablate("%s/%s" % (corpus, name), seed, name,
                              "%s/pipeline/features.txt" % corpus))
    for corpus, run, other in COMPARED:
        out.append(on_corpus(
            corpus, dict(CORPORA)[corpus], "eval-compare-" + run,
            ("--run", "%s/%s/run.txt" % (corpus, run),
             "--compare", "%s/%s/run.txt" % (corpus, other)), "eval",
            INPUTS[4:]))
    corpus, seed = TWO_WORD_SEED
    name, flags = PIPELINES[1]
    out.append(on_corpus(corpus, seed, "%s-seed%d" % (name, seed), flags))
    corpus, seed = CHAINED
    for name, flags in CHAINS:
        steps = "%s/%s" % (corpus, name)
        for command, inputs, files in (
                ("build-profiles", INPUTS[:3], ()),
                ("extract", INPUTS[1:], ()),
                ("train", (), ("--features", steps + "/features.txt")),
                ("rank", (), ("--features", steps + "/features.txt",
                              "--model", steps + "/model.json")),
                ("eval", INPUTS[4:], ("--run", steps + "/run.txt",
                                      "--compare",
                                      corpus + "/pipeline/run.txt"))):
            argv = on_corpus(corpus, seed, name, flags, command, inputs)[2]
            out.append(("%s.%s" % (steps, command), steps, [*argv, *files]))
    for copy, _, seed, *_ in (LINE_PARSED, BAD_PROFILES, BAD_VENUES):
        out.append(on_corpus(copy, seed, *PIPELINES[0]))
    copy, _, seed, _ = BAD_VENUES
    out.append(on_corpus(copy, seed, "build-profiles", (), "build-profiles",
                         INPUTS[:3]))
    name, workload, seed = CRLF_FEATURES
    out.append(ablate("%s/%s" % (name, workload), seed, workload,
                      "%s/%s/features.txt" % (IN_DIR, name)))
    return out


def run_side(side_dir, src, label, out_dir, argv):
    """Run one command with its outputs in ``side_dir/out_dir``; its exit
    code, stdout and stderr land next to them, named after ``label``."""
    os.makedirs(os.path.join(side_dir, out_dir), exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "venuerec", *argv, "-v", "--out-dir", out_dir],
        cwd=side_dir, env=_env(src), capture_output=True)
    for kind, data in (("exit_code", b"%d\n" % proc.returncode),
                       ("stdout", proc.stdout), ("stderr", proc.stderr)):
        with open(os.path.join(side_dir, label + "." + kind), "wb") as fh:
            fh.write(data)
    return proc.returncode


def first_difference(a, b):
    """1-based number of the first line where the unequal bytes `a` and
    `b` differ, with both lines."""
    left, right = a.splitlines(keepends=True), b.splitlines(keepends=True)
    for n, (x, y) in enumerate(zip(left, right), start=1):
        if x != y:
            return n, x, y
    n = min(len(left), len(right)) + 1
    return (n, left[n - 1] if n <= len(left) else b"<end of file>",
            right[n - 1] if n <= len(right) else b"<end of file>")


def _files(side_dir):
    return {os.path.relpath(os.path.join(dirpath, name), side_dir)
            for dirpath, _, names in os.walk(side_dir) for name in names}


def read_expected(path):
    """``{path: reason}`` from the ``path<TAB>reason`` lines of `path`."""
    expected = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            name, _, reason = line.rstrip("\n").partition("\t")
            if not name or not reason.strip():
                sys.exit("artifact_diff: %s: line %d: expected "
                         "'path<TAB>reason'" % (path, lineno))
            expected[name] = reason
    return expected


def compare(base_dir, head_dir, expected):
    """Print each file under either side that differs; returns how many
    differ undeclared, plus the stale declarations.

    `expected` maps a file to the reason it is declared to differ; such a
    file is printed with its reason and not counted, and a declared file
    that does not differ is printed as stale and counted.
    """
    differ = 0
    stale = dict(expected)
    for name in sorted(_files(base_dir) | _files(head_dir)):
        data = []
        for side in (base_dir, head_dir):
            path = os.path.join(side, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data.append(fh.read())
            else:
                data.append(None)
        if data[0] == data[1]:
            continue
        if data[0] is None or data[1] is None:
            what = "only on the %s side" % ("base" if data[1] is None
                                            else "head")
        else:
            n, x, y = first_difference(*data)
            col = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q),
                       min(len(x), len(y)))
            at = max(0, col - 40)
            what = ("line %d differs at byte %d\n  base: %r\n  head: %r"
                    % (n, col + 1, x[at:col + 80], y[at:col + 80]))
        reason = stale.pop(name, None)
        if reason is None:
            differ += 1
            print("%s: %s" % (name, what))
        else:
            print("%s: %s\n  declared: %s" % (name, what, reason))
    for name, reason in sorted(stale.items()):
        print("%s: declared, but identical on both sides or on neither: %s"
              % (name, reason))
    return differ + len(stale)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("base_ref", metavar="BASE_REF",
                        help="commit to compare this checkout against")
    args = parser.parse_args(argv)

    expected = read_expected(EXPECTED)
    work = tempfile.mkdtemp(prefix="artifact-diff-")
    worktree = os.path.join(work, "base-checkout")
    matrix = commands()
    try:
        _run(["git", "-C", ROOT, "worktree", "add", "--detach", worktree,
              args.base_ref], ROOT, "")
        for side, root in (("base", worktree), ("head", ROOT)):
            side_dir = os.path.join(work, side)
            make_inputs(root, side_dir)
            for label, out_dir, command in matrix:
                code = run_side(side_dir, os.path.join(root, "src"), label,
                                out_dir, command)
                print("%s %s: exit %d" % (side, label, code), flush=True)
        differ = compare(os.path.join(work, "base"),
                         os.path.join(work, "head"), expected)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        worktree], capture_output=True)
        shutil.rmtree(work, ignore_errors=True)
    if differ:
        print("%d files differ from %s undeclared, or are declared stale"
              % (differ, args.base_ref))
        return 1
    print("inputs and all outputs of %d commands identical to %s, but for "
          "%d declared" % (len(matrix), args.base_ref, len(expected)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
