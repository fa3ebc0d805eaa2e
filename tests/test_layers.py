"""Each command loads only the layers it runs, and the benchmark's
tracer still finds every name it times.

`train` and `ablate` learn from a features file alone, so they load
neither the text, corpus, embedding and profile half of the package
nor the evaluation module; `ablate` writes no model file either.
`cli` reaches those layers through names that import their module on
the first call, and `perfbench/traced.py` rebinds those names: the
last tests check that it still binds every site and that a wrapped
name still reaches its function.  Both run in fresh processes, since
this test's own process has loaded every module.
"""

import glob
import json
import os
import subprocess
import sys

import pytest

import synthdata
from venuerec.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

# Runs one command in a fresh interpreter and prints its exit code and
# the venuerec modules it loaded.
_PROBE = """
import json, sys
from venuerec.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(name for name in sys.modules
                               if name.split(".")[0] == "venuerec")]))
"""

# what a command that learns from a features file needs
_LEARNING = ["venuerec", "venuerec._kernels", "venuerec._rng",
             "venuerec.ablation", "venuerec.cli", "venuerec.errors",
             "venuerec.features", "venuerec.ltr",
             "venuerec.ltr.coordinate_ascent", "venuerec.ltr.data",
             "venuerec.ltr.mart"]


def _every_module():
    src = os.path.join(ROOT, "src")
    names = []
    for path in glob.glob(os.path.join(src, "venuerec", "**", "*.py"),
                          recursive=True):
        parts = os.path.relpath(path, src)[:-len(".py")].split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        if parts[-1] != "__main__":
            names.append(".".join(parts))
    return sorted(names)


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """The argv of each probed command, without its --out-dir."""
    corpus = synthdata.write_corpus(tmp_path_factory.mktemp("corpus"))
    pipeline = ["pipeline", "--seed", "42"]
    for key in ("embeddings", "venues", "profiles", "contexts", "qrels"):
        pipeline += ["--" + key, corpus[key]]
    out = tmp_path_factory.mktemp("pipeline")
    assert main(pipeline + ["--out-dir", str(out)]) == 0
    features = ["--seed", "42", "--features", str(out / "features.txt")]
    return {"pipeline": pipeline,
            "train": ["train", *features],
            "ablate-ca": ["ablate", *features, "--learner", "ca"],
            "ablate-mart": ["ablate", *features, "--learner", "mart"]}


@pytest.mark.parametrize("command, loaded", [
    ("ablate-ca", _LEARNING),
    ("ablate-mart", _LEARNING),
    ("train", sorted(_LEARNING + ["venuerec.ltr.serialize"])),
    ("pipeline", _every_module()),
])
def test_each_command_loads_only_the_layers_it_runs(commands, tmp_path,
                                                    command, loaded):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *commands[command],
         "--out-dir", str(tmp_path)],
        env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, loaded]


# Installs the tracer's wrappers, then calls two of the names it
# rebinds on `venuerec.cli`: one imported with cli, one that imports
# its module on the first call.
_TRACER_PROBE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("traced", sys.argv[1])
traced = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traced)
trace = traced.Trace()
bound = traced.install(trace)
import venuerec.cli
table = venuerec.cli.read_features(sys.argv[2])
qrels = venuerec.cli.load_qrels(sys.argv[3])
print(json.dumps([bound, type(table).__name__, len(table),
                  type(qrels).__name__, len(qrels),
                  trace.agg["features.read_features"][0],
                  trace.agg["corpus.load_other"][0]]))
"""

# every site perfbench/traced.py binds; a name missing from this list
# would read as 0 calls in a trace, and zero a pin in CI
_SITES = [
    "venuerec.cli:build_profiles_step", "venuerec.cli:extract_step",
    "venuerec.cli:train_step", "venuerec.cli:rank_step",
    "venuerec.cli:eval_step", "venuerec.cli:ablate_step",
    "venuerec.cli:load_venues", "venuerec.cli:load_profiles",
    "venuerec.cli:load_contexts", "venuerec.cli:load_qrels",
    "venuerec.corpus:preprocess", "venuerec.text:porter_stem",
    "venuerec.cli:load_embeddings", "venuerec.profiles:similar_k",
    "venuerec.embeddings:cosine_scores", "venuerec._kernels:best_split",
    "venuerec._kernels:apply_tree", "venuerec.cli:build_venue_vectors",
    "venuerec.cli:user_profile_vectors",
    "venuerec.cli:build_context_vectors",
    "venuerec.cli:save_venue_vectors", "venuerec.cli:save_user_vectors",
    "venuerec.cli:save_context_vectors",
    "venuerec.cli:load_venue_vectors", "venuerec.cli:load_user_vectors",
    "venuerec.cli:load_context_vectors", "venuerec.cli:extract_all",
    "venuerec.cli:write_features", "venuerec.cli:read_features",
    "venuerec.ltr.data:TopicBlocks.metric",
    "venuerec.ablation:train_coordinate_ascent",
    "venuerec.ablation:train_mart", "venuerec.ltr.mart:fit_tree",
    "venuerec.cli:save_model", "venuerec.cli:load_model",
    "venuerec.cli:ranked_run", "venuerec.cli:write_run",
    "venuerec.cli:load_run", "venuerec.cli:evaluate_run",
    "venuerec.cli:run_ablation",
]


def test_the_tracer_binds_every_site(commands, tmp_path):
    features = commands["train"][-1]
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("t1 0 v1 1\nt1 0 v2 0\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", _TRACER_PROBE,
         os.path.join(ROOT, "perfbench", "traced.py"), features, str(qrels)],
        env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    bound, table, rows, loaded, judgments, reads, loads = json.loads(
        proc.stdout.splitlines()[-1])
    assert bound == _SITES
    assert len(_SITES) == 40
    assert sum(site.startswith("venuerec.cli:") for site in _SITES) == 30
    assert (table, loaded, judgments) == ("FeatureTable", "Qrels", 2)
    assert rows == synthdata.N_TOPICS * synthdata.N_CANDIDATES
    assert (reads, loads) == (1, 1)
