"""Model files: one JSON document per trained ranker.

The layout is versioned and deterministic (sorted keys, fixed indent),
so retraining with the same seed rewrites the file byte for byte.
"""

import json
import math

from ..corpus import decode_json, numbered_lines
from ..errors import FormatError
from .coordinate_ascent import LinearModel
from .mart import Tree, TreeEnsemble

FORMAT_TAG = "venuerec-model"
FORMAT_VERSION = 1


def _finite_floats(values, what, path):
    out = []
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise FormatError("%s holds a non-number" % what, path=path)
        x = float(x)
        if not math.isfinite(x):
            raise FormatError("%s holds a non-finite value" % what, path=path)
        out.append(x)
    return tuple(out)


def _ints(values, what, path):
    out = []
    for x in values:
        if isinstance(x, bool) or not isinstance(x, int):
            raise FormatError("%s holds a non-integer" % what, path=path)
        out.append(x)
    return tuple(out)


def save_model(model, path, hyperparameters):
    doc = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "seed": model.seed,
        "metric": model.metric,
        "hyperparameters": dict(hyperparameters),
    }
    if isinstance(model, LinearModel):
        doc["learner"] = "coordinate_ascent"
        doc["weights"] = list(model.weights)
    else:
        doc["learner"] = "mart"
        doc["shrinkage"] = model.shrinkage
        doc["trees"] = [{
            "feature": list(t.feature),
            "threshold": list(t.threshold),
            "left": list(t.left),
            "right": list(t.right),
            "value": list(t.value),
        } for t in model.trees]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _check_tree(node, i, path):
    keys = ("feature", "threshold", "left", "right", "value")
    if not isinstance(node, dict) or set(node) != set(keys):
        raise FormatError("tree %d must have exactly the keys %s"
                          % (i, ", ".join(keys)), path=path)
    feature = _ints(node["feature"], "tree %d feature" % i, path)
    left = _ints(node["left"], "tree %d left" % i, path)
    right = _ints(node["right"], "tree %d right" % i, path)
    threshold = _finite_floats(node["threshold"], "tree %d threshold" % i, path)
    value = _finite_floats(node["value"], "tree %d value" % i, path)
    n = len(feature)
    if not n or any(len(a) != n for a in (threshold, left, right, value)):
        raise FormatError("tree %d arrays differ in length" % i, path=path)
    # Children come after their node and every node but the root has
    # exactly one parent, so each path from the root ends at a leaf.
    parents = [0] * n
    for node, (f, lo, hi) in enumerate(zip(feature, left, right)):
        if f < 0:
            continue
        if not (0 <= lo < n and 0 <= hi < n):
            raise FormatError("tree %d child index out of range" % i,
                              path=path)
        if lo <= node or hi <= node:
            raise FormatError("tree %d node %d has a child index not after "
                              "its own" % (i, node), path=path)
        parents[lo] += 1
        parents[hi] += 1
    for node in range(1, n):
        if parents[node] != 1:
            raise FormatError("tree %d node %d is the child of %d nodes, "
                              "not 1" % (i, node, parents[node]), path=path)
    return Tree(feature=feature, threshold=threshold, left=left,
                right=right, value=value)


def load_model(path):
    """The model stored at `path` and its hyperparameters block, a dict;
    `normalize` in that block must be a JSON boolean."""
    doc = decode_json("".join(line for _, line in numbered_lines(path)),
                      path)
    if not isinstance(doc, dict):
        raise FormatError("model document must be an object", path=path)
    model = _model(doc, path)
    hyperparameters = doc.get("hyperparameters", {})
    if not isinstance(hyperparameters, dict):
        raise FormatError("'hyperparameters' must be an object", path=path)
    normalize = hyperparameters.get("normalize", False)
    if not isinstance(normalize, bool):
        raise FormatError("hyperparameter 'normalize' must be true or "
                          "false, got %r" % (normalize,), path=path)
    return model, hyperparameters


def _model(doc, path):
    if doc.get("format") != FORMAT_TAG:
        raise FormatError("unrecognized format tag %r" % (doc.get("format"),),
                          path=path)
    if doc.get("version") != FORMAT_VERSION:
        raise FormatError("unsupported version %r" % (doc.get("version"),),
                          path=path)
    learner = doc.get("learner")
    seed = doc.get("seed", 0)
    metric = doc.get("metric", "p5")
    if learner == "coordinate_ascent":
        if "weights" not in doc:
            raise FormatError("linear model without weights", path=path)
        weights = _finite_floats(doc["weights"], "weights", path)
        if not weights:
            raise FormatError("weights are empty", path=path)
        return LinearModel(weights=weights, metric=metric, seed=seed)
    if learner == "mart":
        trees = doc.get("trees")
        if not isinstance(trees, list) or not trees:
            raise FormatError("tree model without trees", path=path)
        shrinkage = doc.get("shrinkage")
        if not isinstance(shrinkage, (int, float)) or isinstance(shrinkage, bool):
            raise FormatError("missing or bad shrinkage", path=path)
        if not 0.0 < shrinkage <= 1.0:
            raise FormatError("shrinkage must be in (0, 1], got %r"
                              % (shrinkage,), path=path)
        parsed = tuple(_check_tree(node, i, path)
                       for i, node in enumerate(trees))
        return TreeEnsemble(trees=parsed, shrinkage=float(shrinkage),
                            metric=metric, seed=seed)
    raise FormatError("unknown learner %r" % (learner,), path=path)
