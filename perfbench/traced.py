"""Run one ``venuerec`` command with timing wrappers at its layer boundaries.

Usage: ``python3 perfbench/traced.py TRACE_JSON venuerec-args...``

Before ``venuerec.cli.main`` runs, the public functions of each module
are rebound, at the module that looks each name up, to wrappers that
time the call.  Nothing under ``src/`` is edited.  Coarse calls (CLI
stages, loaders, learners) are recorded as spans with their parent;
hot inner functions (the stemmer, per-row cosine, kernels, the ranking
metric) only add to a call count and a total time.  Everything stays in
memory and is written to TRACE_JSON once the command has ended.

A site whose name no longer exists (a later version may drop, say, the
second venue load or the per-row cosine) is skipped, so its metric
reads as zero calls instead of failing the run.
"""

import functools
import importlib
import json
import sys
import time

T_START = time.monotonic()

import numpy as np  # noqa: E402


class Trace:
    """Spans and per-name aggregates of one process, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.agg = {}            # name -> [calls, seconds, depth]
        self.counters = {}
        self.distinct_stems = set()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, span, observe):
        slot = self.agg.setdefault(name, [0, 0.0, 0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            slot[0] += 1
            slot[2] += 1
            if span:
                index = len(self.spans)
                parent = self.stack[-1] if self.stack else -1
                self.spans.append([name, 0.0, 0.0, parent])
                self.stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                slot[2] -= 1
                # a name re-entered below itself counts its time once
                if not slot[2]:
                    slot[1] += t1 - t0
                if span:
                    self.stack.pop()
                    self.spans[index][1:3] = [t0, t1]
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return timed


# ---------------------------------------------------------------------------
# Observers: counts derived from a call's arguments or result
# ---------------------------------------------------------------------------

def _stem_input(trace, args, kwargs, result):
    trace.distinct_stems.add(args[0])


def _venue_vectors(trace, args, kwargs, result):
    store, venues = args[0], args[1]
    tokens = oov = 0
    for venue in venues:
        for comment in venue.comments:
            for tok in comment.tokens:
                tokens += 1
                if tok not in store:
                    oov += 1
    trace.count("embeddings.token_occurrences", tokens)
    trace.count("embeddings.oov_occurrences", oov)
    trace.count("profiles.venues", len(result))
    trace.count("profiles.zero_venues", sum(
        1 for vv in result.values() if not np.any(vv.vector)))


def _rows(trace, args, kwargs, result):
    trace.count("features.rows", len(result))


def _mart_history(trace, args, kwargs, result):
    history = getattr(result, "history", None) or {}
    trace.count("ltr.trees_fitted", len(history.get("train_mse", ())))
    trace.count("ltr.trees_kept", history.get("kept_trees", 0))


def _ablation_fits(trace, args, kwargs, result):
    trace.count("ablation.fits", 1 + len(result.entries))


# Operation counts and compulsory bytes (inputs read once, outputs
# written once, float64/int64 = 8 bytes) computed from each call's
# shapes; the kernels themselves are not instrumented.

def _cosine_scores_cost(trace, args, kwargs, result):
    n, d = args[0].shape
    trace.count("kernels.cosine_scores.flops", 2 * n * d + 3 * n)
    trace.count("kernels.cosine_scores.bytes", 8 * (n * d + d + 2 * n))


def _best_split_cost(trace, args, kwargs, result):
    n = args[0].shape[0]
    trace.count("kernels.best_split.flops", 10 * n)
    trace.count("kernels.best_split.bytes", 8 * 2 * n)


def _apply_tree_cost(trace, args, kwargs, result):
    feature, left, right, X = args[0], args[2], args[3], args[5]
    depth = {0: 0}
    for node in range(len(feature)):
        if feature[node] >= 0:
            depth[int(left[node])] = depth[node] + 1
            depth[int(right[node])] = depth[node] + 1
    levels = max(depth.values())
    rows = X.shape[0]
    trace.count("kernels.apply_tree.flops", rows * levels)
    trace.count("kernels.apply_tree.bytes", 8 * rows * (levels + 1))


# name, span?, observer, lookup sites as (module, attribute path)
SITES = (
    ("cli.build_profiles_step", True, None,
     [("venuerec.cli", "build_profiles_step")]),
    ("cli.extract_step", True, None, [("venuerec.cli", "extract_step")]),
    ("cli.train_step", True, None, [("venuerec.cli", "train_step")]),
    ("cli.rank_step", True, None, [("venuerec.cli", "rank_step")]),
    ("cli.eval_step", True, None, [("venuerec.cli", "eval_step")]),
    ("cli.ablate_step", True, None, [("venuerec.cli", "ablate_step")]),
    ("corpus.load_venues", True, None, [("venuerec.cli", "load_venues")]),
    ("corpus.load_other", True, None,
     [("venuerec.cli", "load_profiles"), ("venuerec.cli", "load_contexts"),
      ("venuerec.cli", "load_qrels")]),
    ("text.preprocess", False, None, [("venuerec.corpus", "preprocess")]),
    ("text.porter_stem", False, _stem_input,
     [("venuerec.text", "porter_stem")]),
    ("embeddings.load_embeddings", True, None,
     [("venuerec.cli", "load_embeddings"),
      ("venuerec.profiles", "load_embeddings")]),
    ("embeddings.similar_k", False, None,
     [("venuerec.profiles", "similar_k")]),
    ("embeddings.cosine", False, None, [("venuerec.features", "cosine")]),
    ("kernels.cosine_scores", False, _cosine_scores_cost,
     [("venuerec.embeddings", "cosine_scores")]),
    ("kernels.best_split", False, _best_split_cost,
     [("venuerec._kernels", "best_split")]),
    ("kernels.apply_tree", False, _apply_tree_cost,
     [("venuerec._kernels", "apply_tree")]),
    ("profiles.build_venue_vectors", True, _venue_vectors,
     [("venuerec.cli", "build_venue_vectors")]),
    ("profiles.user_profile_vectors", False, None,
     [("venuerec.cli", "user_profile_vectors")]),
    ("profiles.context_vectors", True, None,
     [("venuerec.cli", "build_context_vectors"),
      ("venuerec.cli", "gender_vector")]),
    ("profiles.cache_write", True, None,
     [("venuerec.cli", "save_venue_vectors"),
      ("venuerec.cli", "save_user_vectors"),
      ("venuerec.cli", "save_context_vectors")]),
    ("profiles.cache_read", True, None,
     [("venuerec.cli", "load_venue_vectors"),
      ("venuerec.cli", "load_user_vectors"),
      ("venuerec.cli", "load_context_vectors")]),
    ("features.extract_all", True, _rows, [("venuerec.cli", "extract_all")]),
    ("features.write_features", True, None,
     [("venuerec.cli", "write_features")]),
    ("features.read_features", True, None,
     [("venuerec.cli", "read_features")]),
    ("ltr.metric", False, None, [("venuerec.ltr.data", "TopicBlocks.metric")]),
    ("ltr.train_coordinate_ascent", True, None,
     [("venuerec.cli", "train_coordinate_ascent"),
      ("venuerec.ablation", "train_coordinate_ascent")]),
    ("ltr.train_mart", True, _mart_history,
     [("venuerec.cli", "train_mart"), ("venuerec.ablation", "train_mart")]),
    ("ltr.fit_tree", False, None, [("venuerec.ltr.mart", "fit_tree")]),
    ("ltr.predict_rows", True, None, [("venuerec.cli", "predict_rows")]),
    ("ltr.model_io", True, None,
     [("venuerec.cli", "save_model"), ("venuerec.cli", "load_model"),
      ("venuerec.cli", "load_model_info")]),
    ("evaluation.ranked_run", True, None, [("venuerec.cli", "ranked_run")]),
    ("evaluation.run_io", True, None,
     [("venuerec.cli", "write_run"), ("venuerec.cli", "load_run")]),
    ("evaluation.evaluate_run", True, None,
     [("venuerec.cli", "evaluate_run")]),
    ("ablation.run_ablation", True, _ablation_fits,
     [("venuerec.cli", "run_ablation")]),
)


def install(trace):
    """Rebind every site that exists; returns the names that were bound."""
    bound = []
    for name, span, observe, sites in SITES:
        trace.agg.setdefault(name, [0, 0.0, 0])
        for module_name, path in sites:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                continue
            setattr(owner, attr, trace.wrap(fn, name, span, observe))
            bound.append("%s:%s" % (module_name, path))
    return bound


def main(argv):
    out_path, args = argv[0], argv[1:]
    trace = Trace()
    bound = install(trace)
    from venuerec.cli import main as venuerec_main

    t_main = time.monotonic()
    try:
        code = venuerec_main(args)
    finally:
        t_end = time.monotonic()
        doc = {
            "t_start": T_START, "t_main": t_main, "t_end": t_end,
            "bound": bound,
            "agg": {k: v[:2] for k, v in trace.agg.items()},
            "counters": trace.counters,
            "distinct_stems": len(trace.distinct_stems),
            "spans": trace.spans,
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
