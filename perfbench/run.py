"""End-to-end and per-layer benchmark for venuerec.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pipeline-mart --seed 1 \\
        --seconds 30 --trace 0

The run generates its inputs from ``--seed`` (no downloads), then acts
as one closed-loop client: it starts ``python -m venuerec <command>`` in
a fresh child process, waits for it to end, checks its outputs and
starts the next one, until ``--seconds`` have passed (at least two
commands, so that reruns can be compared byte for byte).  The package
runs from ``src/`` of the checkout, not from an installed copy.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median wall time of the run's untraced commands.  The
  fastest is printed too, as ``wall_min_s``; on the shared host this
  was tuned on it spread twice as much across runs as the median,
  because the host ran the same command anywhere from 2.7 s to 4.7 s in
  spells of seconds to minutes;
* ``setup_s``: median cold start of ``python -m venuerec --version``,
  one before each command;
* ``peak_rss_mb``: median peak RSS of the command's own process;
* ``p5``: the command's P@5, which the generated inputs fix.

``fail_frac`` (commands that exited non-zero or failed a check, over
commands run) is printed too; the JSON carries it as ``failed`` and
``attempted``.  ``--trace 1`` alternates untraced commands with ones run
under ``perfbench/traced.py`` and reports the per-layer metrics of the
median traced one, plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# The 13 knockouts ablation.tsv must list, in this order.  Copied rather
# than imported, so that the check does not take its answer from the
# program it checks.
FEATURE_NAMES = (
    "checkins", "likes", "comment_count", "photos", "rating_avg",
    "unique_users", "uv_pos", "uv_neg", "cv_duration", "cv_season",
    "cv_group", "cv_type", "gv",
)
# Every file a command leaves in its --out-dir, per workload kind.
ARTIFACTS = {
    "pipeline": ("config.used", "venue_vectors.txt", "user_vectors.txt",
                 "context_vectors.txt", "features.txt", "model.json",
                 "run.txt", "metrics.txt"),
    "ablate": ("config.used", "ablation.tsv"),
}

SETUP_STARTS_PER_COMMAND = 1
COMMAND_TIMEOUT_S = 120.0
# One BLAS thread keeps the child within the machine's two cores while
# the parent waits, and keeps float sums in one order across reruns.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Why each workload exists is recorded in BENCHMARK.json.  Shapes are
# sized so one command takes two to four seconds on two cores, so that a
# run holds several commands.
# n_trees == patience: early stopping never triggers, so every MART fit
# grows the same number of trees whatever the seed, and the kept prefix
# still varies (ltr.kept_tree_share).  CA scales the count features per
# topic, as the linear learner needs, and is cut to one restart of two
# sweeps so that its 14 fits take seconds, not minutes.  p5_floor sits
# well above a random ranking's P@5 (about 0.2 to 0.25 here).
WORKLOADS = {
    "pipeline-mart": {
        "kind": "pipeline",
        "config": {"learner": "mart", "n_trees": 15, "patience": 15},
        "shape": {"clusters": 20, "dim": 100, "roots": 8000,
                  "oov_stems": 0.1, "venues": 400, "comments": 10,
                  "tokens": 14, "cluster_share": 0.35, "filler_share": 0.2,
                  "users": 300, "ratings": 30, "topics": 100,
                  "candidates": 30, "relevant": (5, 10),
                  "rel_in_cluster": 0.85, "nonrel_in_cluster": 0.05},
        "p5_floor": 0.5,
    },
    "ablate-ca": {
        "kind": "ablate",
        "config": {"learner": "ca", "normalize": "true", "restarts": 1,
                   "max_sweeps": 2, "step_scales": 6},
        "shape": {"topics": 100, "sizes": (10, 60), "relevant_share": 0.2,
                  "empty_share": 0.05},
        "p5_floor": 0.5,
    },
    "ablate-mart": {
        "kind": "ablate",
        "config": {"learner": "mart", "n_trees": 5, "patience": 5},
        "shape": {"topics": 150, "sizes": (30, 30), "relevant_share": 0.2,
                  "empty_share": 0.0},
        "p5_floor": 0.5,
    },
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("p5", "fraction"))

PER_LAYER = (
    ("cli.build_profiles_step_s", "s"), ("cli.extract_step_s", "s"),
    ("cli.train_step_s", "s"), ("cli.rank_step_s", "s"),
    ("cli.eval_step_s", "s"), ("cli.ablate_step_s", "s"),
    ("corpus.load_venues.calls", "count"), ("corpus.load_venues_s", "s"),
    ("corpus.load_other_s", "s"),
    ("text.preprocess_s", "s"), ("text.porter_stem.calls", "count"),
    ("text.porter_stem_s", "s"), ("text.stem_distinct_share", "ratio"),
    ("embeddings.load_embeddings.calls", "count"),
    ("embeddings.load_embeddings_s", "s"),
    ("embeddings.similar_k.calls", "count"), ("embeddings.similar_k_s", "s"),
    ("embeddings.cosine.calls", "count"), ("embeddings.cosine_s", "s"),
    ("embeddings.oov_share", "ratio"),
    ("kernels.cosine_scores_s", "s"),
    ("kernels.cosine_scores.flops", "flop"),
    ("kernels.cosine_scores.bytes", "B"),
    ("kernels.best_split.calls", "count"), ("kernels.best_split_s", "s"),
    ("kernels.best_split.flops", "flop"), ("kernels.best_split.bytes", "B"),
    ("kernels.apply_tree.calls", "count"), ("kernels.apply_tree_s", "s"),
    ("kernels.apply_tree.flops", "flop"), ("kernels.apply_tree.bytes", "B"),
    ("profiles.build_venue_vectors_s", "s"),
    ("profiles.user_profile_vectors_s", "s"),
    ("profiles.context_vectors_s", "s"), ("profiles.cache_write_s", "s"),
    ("profiles.cache_read_s", "s"), ("profiles.zero_venue_share", "ratio"),
    ("features.extract_all_s", "s"), ("features.rows", "count"),
    ("features.write_features_s", "s"),
    ("features.read_features.calls", "count"),
    ("features.read_features_s", "s"),
    ("ltr.metric.calls", "count"), ("ltr.metric_s", "s"),
    ("ltr.train_coordinate_ascent_s", "s"), ("ltr.train_mart_s", "s"),
    ("ltr.fit_tree.calls", "count"), ("ltr.fit_tree_s", "s"),
    ("ltr.kept_tree_share", "ratio"), ("ltr.predict_rows_s", "s"),
    ("ltr.model_io_s", "s"),
    ("evaluation.ranked_run_s", "s"), ("evaluation.run_io_s", "s"),
    ("evaluation.evaluate_run_s", "s"), ("evaluation.mrr", "fraction"),
    ("ablation.run_ablation_s", "s"), ("ablation.fits", "count"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.start_s", "s"),
    ("trace.unaccounted_s", "s"),
)


class Command:
    """Outcome of one child process."""

    def __init__(self, wall, rss_mb, code, stdout, stderr):
        self.wall = wall
        self.rss_mb = rss_mb
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.errors = []


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv, cwd, timeout=COMMAND_TIMEOUT_S):
    """Run `argv` to completion; wall time and peak RSS of that child.

    The parent sleeps on a pidfd until the child exits and then reaps
    it with wait4, which reports the child's own peak RSS.
    """
    out_path = os.path.join(cwd, "stdout.txt")
    err_path = os.path.join(cwd, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=err)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], timeout)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
        finally:
            os.close(fd)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Command(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout,
                   stderr), t0


def digest(out_dir, names):
    hashes = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                hashes[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return hashes


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _tagged_value(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return float(line.rsplit("\t", 1)[1])
    return None


def check_pipeline(out_dir, workload, n_topics):
    """Errors in a pipeline output directory, and its (p5, mrr)."""
    errors = []
    with open(os.path.join(out_dir, "metrics.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    p5 = _tagged_value(lines, "P5\tall\t")
    mrr = _tagged_value(lines, "MRR\tall\t")
    if p5 is None or mrr is None:
        return ["metrics.txt lacks the P5/MRR all lines"], None, None
    if not p5 > workload["p5_floor"]:
        errors.append("p5 %.6f not above floor %.2f"
                      % (p5, workload["p5_floor"]))
    topics = set()
    with open(os.path.join(out_dir, "run.txt"), encoding="utf-8") as fh:
        for line in fh:
            topics.add(line.split(" ", 1)[0])
    if len(topics) != n_topics:
        errors.append("run.txt ranks %d topics, expected %d"
                      % (len(topics), n_topics))
    return errors, p5, mrr


def check_ablate(out_dir, workload):
    """Errors in an ablate output directory, and its baseline p5."""
    with open(os.path.join(out_dir, "ablation.tsv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head = lines[0].split("\t") if lines else []
    if len(head) != 3 or head[:2] != ["# baseline", "p5"]:
        return ["ablation.tsv lacks the '# baseline p5' line"], None
    p5 = float(head[2])
    errors = []
    if not p5 > workload["p5_floor"]:
        errors.append("p5 %.6f not above floor %.2f"
                      % (p5, workload["p5_floor"]))
    knocked = [line.split("\t", 1)[0] for line in lines
               if line and not line.startswith("#")]
    if tuple(knocked) != FEATURE_NAMES:
        errors.append("ablation.tsv knocks out %r, expected the 13 "
                      "features in order" % (knocked,))
    return errors, p5


def check_outputs(cmd, out_dir, workload, artifacts, reference, n_topics):
    """Fill `cmd.errors`; returns (hashes, p5, mrr)."""
    p5 = mrr = None
    if cmd.code != 0:
        cmd.errors.append("exit code %d: %s"
                          % (cmd.code, cmd.stderr.strip()[-300:]))
        return {}, p5, mrr
    hashes = digest(out_dir, artifacts)
    missing = [n for n in artifacts if n not in hashes]
    if missing:
        cmd.errors.append("missing artifacts %s" % ", ".join(missing))
        return hashes, p5, mrr
    if reference is not None:
        changed = [n for n in artifacts if hashes[n] != reference[n]]
        if changed:
            cmd.errors.append("not byte-identical to the first run: %s"
                              % ", ".join(changed))
    try:
        if workload["kind"] == "pipeline":
            errors, p5, mrr = check_pipeline(out_dir, workload, n_topics)
            stdout = cmd.stdout.splitlines()
            if p5 is not None and (
                    _tagged_value(stdout, "P5\tall\t") != p5
                    or _tagged_value(stdout, "MRR\tall\t") != mrr):
                errors.append("printed P5/MRR differ from metrics.txt")
        else:
            errors, p5 = check_ablate(out_dir, workload)
    except (ValueError, UnicodeDecodeError) as exc:
        errors = ["unreadable output: %s" % exc]
    cmd.errors.extend(errors)
    return hashes, p5, mrr


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_inputs(name, workload, seed, in_dir):
    """Write the workload's inputs; returns (command args, properties).

    The generator runs in its own process (see gen.main).
    """
    kind = "pipeline" if workload["kind"] == "pipeline" else "features"
    gen = subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), kind, SRC, in_dir,
         str(seed), json.dumps(workload["shape"])],
        env=child_env(), capture_output=True, text=True,
        timeout=COMMAND_TIMEOUT_S)
    if gen.returncode != 0:
        sys.exit("perfbench: input generation failed: %s"
                 % gen.stderr.strip())
    props = json.loads(gen.stdout.splitlines()[-1])
    if not workload["p5_floor"] > props["random_p5"]:
        sys.exit("perfbench: p5 floor %.2f does not beat a random ranking "
                 "(%.3f) on %s" % (workload["p5_floor"], props["random_p5"],
                                   name))

    config_path = os.path.join(in_dir, "bench.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        for key, value in sorted(workload["config"].items()):
            fh.write("%s = %s\n" % (key, value))
    common = ["--config", config_path, "--seed", str(seed)]
    if kind == "pipeline":
        return ["pipeline", *common,
                "--embeddings", os.path.join(in_dir, "embeddings.txt"),
                "--venues", os.path.join(in_dir, "venues.jsonl"),
                "--profiles", os.path.join(in_dir, "profiles.jsonl"),
                "--contexts", os.path.join(in_dir, "contexts.jsonl"),
                "--qrels", os.path.join(in_dir, "qrels.txt")], props
    return ["ablate", *common,
            "--features", os.path.join(in_dir, "features.txt")], props


def cold_starts(work_dir, n):
    """Wall times of `n` fresh interpreters running `venuerec --version`."""
    times = []
    for _ in range(n):
        cmd, _ = spawn([sys.executable, "-m", "venuerec", "--version"],
                       work_dir)
        if cmd.code != 0:
            sys.exit("perfbench: 'venuerec --version' failed: %s"
                     % cmd.stderr.strip())
        times.append(cmd.wall)
    return times


# ---------------------------------------------------------------------------
# Per-layer metrics from trace files
# ---------------------------------------------------------------------------

def layer_metrics(doc, spawned_at, wall):
    agg = doc["agg"]
    counters = doc["counters"]

    def seconds(name):
        return agg.get(name, [0, 0.0])[1]

    def calls(name):
        return agg.get(name, [0, 0.0])[0]

    def share(num, den):
        return num / den if den else 0.0

    out = {}
    for name, _ in PER_LAYER:
        if name.endswith(".calls"):
            out[name] = calls(name[:-len(".calls")])
        elif name.endswith("_s"):
            out[name] = seconds(name[:-len("_s")])
        else:
            out[name] = counters.get(name, 0)
    out["text.stem_distinct_share"] = share(
        doc["distinct_stems"], calls("text.porter_stem"))
    out["embeddings.oov_share"] = share(
        counters.get("embeddings.oov_occurrences", 0),
        counters.get("embeddings.token_occurrences", 0))
    out["profiles.zero_venue_share"] = share(
        counters.get("profiles.zero_venues", 0),
        counters.get("profiles.venues", 0))
    out["ltr.kept_tree_share"] = share(counters.get("ltr.trees_kept", 0),
                                       counters.get("ltr.trees_fitted", 0))
    steps = sum(seconds(n) for n in agg if n.startswith("cli."))
    out["trace.wall_s"] = wall
    out["trace.start_s"] = doc["t_main"] - spawned_at
    out["trace.unaccounted_s"] = wall - out["trace.start_s"] - steps
    return out


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def run(name, seed, seconds, traced):
    workload = WORKLOADS[name]
    if not os.path.isfile(os.path.join(SRC, "venuerec", "__init__.py")):
        sys.exit("perfbench: no venuerec sources under %s" % SRC)
    run_dir = os.path.join(WORK, "%s-%d-%d" % (name, seed, os.getpid()))
    try:
        return measure(name, workload, seed, seconds, traced, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(name, workload, seed, seconds, traced, run_dir):
    in_dir = os.path.join(run_dir, "inputs")
    os.makedirs(in_dir)
    args, props = make_inputs(name, workload, seed, in_dir)
    # The first start may compile bytecode; later starts reuse it.
    cold_starts(run_dir, 1)
    setup_times = []
    artifacts = ARTIFACTS[workload["kind"]]
    n_topics = workload["shape"]["topics"]

    plain, traced_cmds, traces = [], [], []
    reference = None
    quality = None
    start = time.monotonic()
    i = 0
    while (len(plain) < 2 or (traced and len(traced_cmds) < 2)
           or time.monotonic() - start < seconds):
        # Cold starts are spread over the whole run, like the commands,
        # so that both see the same spells of a busy machine.
        setup_times += cold_starts(run_dir, SETUP_STARTS_PER_COMMAND)
        use_trace = traced and i % 2 == 1
        out_dir = os.path.join(run_dir, "out-%d" % i)
        os.makedirs(out_dir)
        trace_path = os.path.join(run_dir, "trace-%d.json" % i)
        prefix = ([sys.executable, os.path.join(HERE, "traced.py"),
                   trace_path] if use_trace
                  else [sys.executable, "-m", "venuerec"])
        cmd, spawned_at = spawn(prefix + args + ["--out-dir", out_dir],
                                run_dir)
        hashes, p5, mrr = check_outputs(cmd, out_dir, workload, artifacts,
                                        reference, n_topics)
        if reference is None and not cmd.errors:
            reference = hashes
            quality = (p5, mrr)
        if use_trace:
            traced_cmds.append(cmd)
            if cmd.code == 0:
                with open(trace_path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                traces.append((cmd.wall, i, doc,
                               layer_metrics(doc, spawned_at, cmd.wall)))
        else:
            plain.append(cmd)
        shutil.rmtree(out_dir)
        i += 1

    commands = plain + traced_cmds
    failed = [c for c in commands if c.errors]
    for c in failed:
        for error in c.errors:
            print("FAIL: %s" % error, file=sys.stderr)
    walls = [c.wall for c in plain]
    wall_s = statistics.median(walls)
    p5, mrr = quality if quality else (0.0, 0.0)
    summary = {
        "wall_s": (wall_s, "s"),
        "wall_min_s": (min(walls), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in plain), "MB"),
        "p5": (p5, "fraction"),
        "fail_frac": (len(failed) / len(commands), "fraction"),
    }
    if workload["kind"] == "pipeline":
        summary["mrr"] = (mrr, "fraction")
    print("workload %s seed %d: %d commands, %d of them traced; wall_s is "
          "the median of %d untraced" % (name, seed, len(commands),
                                         len(traced_cmds), len(plain)))
    for key, (value, unit) in summary.items():
        print("%-12s %12.6f %s" % (key, value, unit))
    for key, value in sorted(props.items()):
        print("input %-24s %s" % (key, value))

    if traced:
        layers = {}
        if traces:
            # the traced command of median wall time, and its spans
            _, _, doc, layers = sorted(traces)[(len(traces) - 1) // 2]
            with open(os.path.join(WORK, "trace-%s.json" % name), "w",
                      encoding="utf-8") as fh:
                json.dump(doc, fh)
            layers["evaluation.mrr"] = mrr or 0.0
            layers["trace.untraced_wall_s"] = wall_s
            layers["trace.overhead_s"] = layers["trace.wall_s"] - wall_s
        metrics = {key: {"value": layers.get(key, 0.0), "unit": unit}
                   for key, unit in PER_LAYER}
        for key, item in metrics.items():
            print("layer %-36s %14.6f %s" % (key, item["value"],
                                              item["unit"]))
    else:
        metrics = {key: {"value": summary[key][0], "unit": unit}
                   for key, unit in END_TO_END}
    return {"correct": not failed, "attempted": len(commands),
            "failed": len(failed), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
