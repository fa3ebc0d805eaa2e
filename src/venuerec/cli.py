"""Command line front end.

Subcommands cover the whole workflow: build the embedding-space vector
caches, extract feature rows, train a ranker, produce and score run
files, and knock features out one at a time.  `pipeline` chains the
first five steps over one output directory.

Settings resolve in three layers: built-in defaults, then a flat
``key = value`` config file, then command line flags.  Whatever wins is
echoed to ``<out-dir>/config.used`` so a run can be reproduced from its
outputs alone.
"""

import argparse
import logging
import os
import sys

from . import __version__
from .ablation import run_ablation, write_ablation
from .corpus import (
    GENDERS,
    load_contexts,
    load_profiles,
    load_qrels,
    load_venues,
    numbered_lines,
)
from .embeddings import load_embeddings
from .errors import ConfigError, FormatError, VenuerecError
from .evaluation import (
    evaluate_run,
    load_run,
    paired_t_test,
    ranked_run,
    write_report,
    write_run,
)
from .features import ModelSet, extract_all, normalize_per_topic, read_features, write_features
from .ltr import (
    CAConfig,
    MARTConfig,
    load_model,
    load_model_info,
    predict_rows,
    save_model,
    split_train_validation,
    train_coordinate_ascent,
    train_mart,
)
from .profiles import (
    build_context_vectors,
    build_venue_vectors,
    gender_vector,
    load_context_vectors,
    load_user_vectors,
    load_venue_vectors,
    save_context_vectors,
    save_user_vectors,
    save_venue_vectors,
    user_profile_vectors,
)

log = logging.getLogger(__name__)

CONFIG_TYPES = {
    "seed": int,
    "k": int,
    "pos_threshold": int,
    "neg_threshold": int,
    "rating_min": int,
    "rating_max": int,
    "depth": int,
    "cutoff": int,
    "n_trees": int,
    "max_leaves": int,
    "min_leaf": int,
    "patience": int,
    "restarts": int,
    "max_sweeps": int,
    "step_scales": int,
    "split_fraction": float,
    "shrinkage": float,
    "step_base": float,
    "learner": str,
    "metric": str,
    "embedding_format": str,
    "run_tag": str,
    "normalize": bool,
    "shifted_negative": bool,
    "include_empty": bool,
}

DEFAULTS = {
    "seed": 0,
    "k": 10,
    "pos_threshold": 4,
    "neg_threshold": 3,
    "rating_min": 0,
    "rating_max": 4,
    "depth": 50,
    "cutoff": 1,
    "n_trees": 100,
    "max_leaves": 7,
    "min_leaf": 1,
    "patience": 20,
    "restarts": 5,
    "max_sweeps": 25,
    "step_scales": 10,
    "split_fraction": 0.67,
    "shrinkage": 0.1,
    "step_base": 0.05,
    "learner": "mart",
    "metric": "p5",
    "embedding_format": "text",
    "run_tag": "venuerec",
    "normalize": False,
    "shifted_negative": False,
    "include_empty": False,
}

CHOICES = {
    "learner": ("ca", "mart"),
    "metric": ("p5", "mrr"),
    "embedding_format": ("text", "binary"),
}

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _coerce(key, raw):
    kind = CONFIG_TYPES[key]
    if kind is bool:
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError("config key %r wants a boolean, got %r"
                              % (key, raw))
        return _BOOL_WORDS[word]
    try:
        value = kind(raw.strip())
    except ValueError:
        raise ConfigError("config key %r wants %s, got %r"
                          % (key, kind.__name__, raw))
    if key in CHOICES and value not in CHOICES[key]:
        raise ConfigError("config key %r must be one of %s, got %r"
                          % (key, "/".join(CHOICES[key]), value))
    return value


def parse_config_file(path):
    values = {}
    try:
        for lineno, line in numbered_lines(path):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            key, sep, raw = body.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError("%s: line %d: expected 'key = value'"
                                  % (path, lineno))
            if key not in CONFIG_TYPES:
                raise ConfigError("%s: line %d: unknown config key %r"
                                  % (path, lineno, key))
            values[key] = _coerce(key, raw)
    except FormatError as exc:
        raise ConfigError(str(exc)) from None
    return values


def resolve_config(args):
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key in CONFIG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if cfg["neg_threshold"] >= cfg["pos_threshold"]:
        raise ConfigError("neg_threshold must be below pos_threshold")
    if not 0.0 < cfg["split_fraction"] < 1.0:
        raise ConfigError("split_fraction must be in (0, 1)")
    if cfg["rating_min"] >= cfg["rating_max"]:
        raise ConfigError("rating_min must be below rating_max")
    for key in ("k", "depth", "n_trees"):
        if cfg[key] < 1:
            raise ConfigError("%s must be >= 1" % key)
    return cfg


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config_used(cfg, out_dir):
    path = os.path.join(out_dir, "config.used")
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(cfg):
            fh.write("%s = %s\n" % (key, _format_value(cfg[key])))
    return path


def _prepare_out_dir(out_dir, cfg):
    os.makedirs(out_dir, exist_ok=True)
    write_config_used(cfg, out_dir)


def _out(out_dir, name):
    return os.path.join(out_dir, name)


# ---------------------------------------------------------------------------
# Steps, shared between individual subcommands and `pipeline`
# ---------------------------------------------------------------------------

def build_profiles_step(cfg, embeddings, venues_path, profiles_path, out_dir):
    store = load_embeddings(embeddings, format=cfg["embedding_format"])
    venues = load_venues(venues_path)
    profiles = load_profiles(
        profiles_path, rating_scale=(cfg["rating_min"], cfg["rating_max"]))
    log.info("loaded %d terms, %d venues, %d users",
             len(store.terms), len(venues), len(profiles))

    venue_vectors = build_venue_vectors(store, venues)
    user_vectors = {}
    for profile in profiles:
        user_vectors[profile.user_id] = user_profile_vectors(
            store, venue_vectors, profile,
            pos_threshold=cfg["pos_threshold"],
            neg_threshold=cfg["neg_threshold"],
            shifted_negative=cfg["shifted_negative"])
    context_vectors = build_context_vectors(store, k=cfg["k"])
    gender_vectors = [gender_vector(store, g, k=cfg["k"]) for g in GENDERS]

    save_venue_vectors(venue_vectors, _out(out_dir, "venue_vectors.txt"))
    save_user_vectors(user_vectors, _out(out_dir, "user_vectors.txt"))
    save_context_vectors(context_vectors, gender_vectors,
                         _out(out_dir, "context_vectors.txt"))
    log.info("profile caches written to %s", out_dir)


def extract_step(cfg, venues_path, profiles_path, contexts_path, qrels_path,
                 out_dir):
    venues = load_venues(venues_path)
    venues_by_id = {v.id: v for v in venues}
    profiles = load_profiles(
        profiles_path, rating_scale=(cfg["rating_min"], cfg["rating_max"]))
    users = {p.user_id: p for p in profiles}
    pairs = load_contexts(contexts_path, users, venues=venues_by_id)
    qrels = load_qrels(qrels_path) if qrels_path else None

    context_vectors, gender_vectors = load_context_vectors(
        _out(out_dir, "context_vectors.txt"))
    models = ModelSet(
        venue_vectors=load_venue_vectors(_out(out_dir, "venue_vectors.txt")),
        user_profiles=load_user_vectors(
            _out(out_dir, "user_vectors.txt"),
            pos_threshold=cfg["pos_threshold"],
            neg_threshold=cfg["neg_threshold"]),
        context_vectors=context_vectors,
        gender_vectors=gender_vectors)
    rows = extract_all(pairs, venues_by_id, models, qrels)
    path = _out(out_dir, "features.txt")
    write_features(rows, path)
    log.info("%d feature rows over %d topics written to %s",
             len(rows), len(pairs), path)


def _rows_for_learning(cfg, features_path):
    rows = read_features(features_path)
    if cfg["normalize"]:
        rows = normalize_per_topic(rows)
    return rows


def _hyperparameters(cfg):
    keys = ("learner", "metric", "normalize", "split_fraction", "k",
            "pos_threshold", "neg_threshold", "shifted_negative")
    hyper = {key: cfg[key] for key in keys}
    if cfg["learner"] == "ca":
        hyper.update(restarts=cfg["restarts"], max_sweeps=cfg["max_sweeps"],
                     step_base=cfg["step_base"],
                     step_scales=cfg["step_scales"])
    else:
        hyper.update(n_trees=cfg["n_trees"], shrinkage=cfg["shrinkage"],
                     max_leaves=cfg["max_leaves"], min_leaf=cfg["min_leaf"],
                     patience=cfg["patience"])
    return hyper


def _learner_config(cfg):
    """The CAConfig or MARTConfig that `cfg` asks for."""
    if cfg["learner"] == "ca":
        return CAConfig(
            metric=cfg["metric"], restarts=cfg["restarts"],
            max_sweeps=cfg["max_sweeps"], step_base=cfg["step_base"],
            step_scales=cfg["step_scales"], seed=cfg["seed"])
    return MARTConfig(
        n_trees=cfg["n_trees"], shrinkage=cfg["shrinkage"],
        max_leaves=cfg["max_leaves"], min_leaf=cfg["min_leaf"],
        patience=cfg["patience"], metric=cfg["metric"], seed=cfg["seed"])


def train_step(cfg, features_path, out_dir):
    rows = _rows_for_learning(cfg, features_path)
    train, valid = split_train_validation(rows, cfg["split_fraction"],
                                          cfg["seed"])
    config = _learner_config(cfg)
    if isinstance(config, CAConfig):
        model = train_coordinate_ascent(train, valid, config)
    else:
        model = train_mart(train, valid, config)
    path = _out(out_dir, "model.json")
    save_model(model, path, hyperparameters=_hyperparameters(cfg))
    log.info("model written to %s", path)


def rank_step(cfg, features_path, model_path, out_dir):
    model = load_model(model_path)
    info = load_model_info(model_path)
    normalize = bool(info.get("normalize", cfg["normalize"]))
    rows = read_features(features_path)
    if normalize:
        rows = normalize_per_topic(rows)
        log.info("per-topic normalization applied before scoring")
    scores = predict_rows(model, rows)
    scored = {}
    for row, score in zip(rows, scores):
        scored.setdefault(row.topic_id, []).append(
            (row.venue_id, float(score)))
    run = ranked_run(cfg["run_tag"], scored, depth=cfg["depth"])
    path = _out(out_dir, "run.txt")
    write_run(run, path)
    log.info("run over %d topics written to %s", len(scored), path)


def eval_step(cfg, run_path, qrels_path, compare_path, out_dir):
    run = load_run(run_path)
    qrels = load_qrels(qrels_path)
    report = evaluate_run(run, qrels, cutoff=cfg["cutoff"],
                          include_empty=cfg["include_empty"])
    path = _out(out_dir, "metrics.txt")
    write_report(report, path)
    if compare_path:
        other = evaluate_run(load_run(compare_path), qrels,
                             cutoff=cfg["cutoff"],
                             include_empty=cfg["include_empty"])
        mine = dict((t, p) for t, p, _ in report.per_topic)
        theirs = dict((t, p) for t, p, _ in other.per_topic)
        shared = sorted(set(mine) & set(theirs))
        if len(shared) < 2:
            raise VenuerecError(
                "need at least 2 shared topics to compare runs")
        result = paired_t_test([mine[t] for t in shared],
                               [theirs[t] for t in shared])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("# ttest\tP5\tt\t%.6f\tp\t%.6f\tn\t%d\n"
                     % (result.t_statistic, result.p_value, result.n))
        print("TTEST\tP5\t%.6f\t%.6f" % (result.t_statistic, result.p_value))
    print("P5\tall\t%.6f" % report.mean_p_at_k)
    print("MRR\tall\t%.6f" % report.mrr)


def ablate_step(cfg, features_path, out_dir):
    rows = _rows_for_learning(cfg, features_path)
    report = run_ablation(rows, _learner_config(cfg),
                          split_fraction=cfg["split_fraction"])
    path = _out(out_dir, "ablation.tsv")
    write_ablation(report, path)
    log.info("ablation written to %s", path)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="venuerec",
        description="Context-aware venue ranking pipeline.")
    parser.add_argument("--version", action="version",
                        version="venuerec %s" % __version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="flat key = value settings file")
    common.add_argument("--out-dir", default=".", metavar="DIR",
                        help="where outputs and caches live (default: .)")
    common.add_argument("--seed", type=int, help="RNG seed")
    common.add_argument("--k", type=int,
                        help="expansion terms per seed subtraction")
    common.add_argument("--pos-threshold", type=int,
                        help="minimum rating that counts as positive")
    common.add_argument("--neg-threshold", type=int,
                        help="maximum rating that counts as negative")
    common.add_argument("--learner", choices=CHOICES["learner"],
                        help="ranking learner (default: mart)")
    common.add_argument("--metric", choices=CHOICES["metric"],
                        help="training metric (default: p5)")
    common.add_argument("--embedding-format",
                        choices=CHOICES["embedding_format"],
                        help="embedding file layout (default: text)")
    common.add_argument("--normalize", action="store_true", default=None,
                        help="min-max scale count features per topic")
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for progress, -vv for debug")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-profiles", parents=[common],
                       help="build venue, user and context vector caches")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--venues", required=True)
    p.add_argument("--profiles", required=True)

    p = sub.add_parser("extract", parents=[common],
                       help="extract feature rows from the cached vectors")
    p.add_argument("--venues", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--contexts", required=True)
    p.add_argument("--qrels", help="labels for the rows (optional)")

    p = sub.add_parser("train", parents=[common],
                       help="train a ranker on a feature file")
    p.add_argument("--features", required=True)

    p = sub.add_parser("rank", parents=[common],
                       help="score a feature file into a run file")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--compare",
                   help="second run file for a paired significance test")

    p = sub.add_parser("ablate", parents=[common],
                       help="retrain with each feature zeroed out")
    p.add_argument("--features", required=True)

    p = sub.add_parser("pipeline", parents=[common],
                       help="build, extract, train, rank and eval in one go")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--venues", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--contexts", required=True)
    p.add_argument("--qrels", required=True)

    return parser


def _cmd_build_profiles(cfg, args):
    build_profiles_step(cfg, args.embeddings, args.venues, args.profiles,
                        args.out_dir)


def _cmd_extract(cfg, args):
    extract_step(cfg, args.venues, args.profiles, args.contexts, args.qrels,
                 args.out_dir)


def _cmd_train(cfg, args):
    train_step(cfg, args.features, args.out_dir)


def _cmd_rank(cfg, args):
    rank_step(cfg, args.features, args.model, args.out_dir)


def _cmd_eval(cfg, args):
    eval_step(cfg, args.run, args.qrels, args.compare, args.out_dir)


def _cmd_ablate(cfg, args):
    ablate_step(cfg, args.features, args.out_dir)


def _cmd_pipeline(cfg, args):
    out_dir = args.out_dir
    build_profiles_step(cfg, args.embeddings, args.venues, args.profiles,
                        out_dir)
    extract_step(cfg, args.venues, args.profiles, args.contexts, args.qrels,
                 out_dir)
    features = _out(out_dir, "features.txt")
    train_step(cfg, features, out_dir)
    rank_step(cfg, features, _out(out_dir, "model.json"), out_dir)
    eval_step(cfg, _out(out_dir, "run.txt"), args.qrels, None, out_dir)


_COMMANDS = {
    "build-profiles": _cmd_build_profiles,
    "extract": _cmd_extract,
    "train": _cmd_train,
    "rank": _cmd_rank,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "pipeline": _cmd_pipeline,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    level = {0: logging.WARNING, 1: logging.INFO}.get(args.verbose,
                                                      logging.DEBUG)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s: %(message)s")
    try:
        cfg = resolve_config(args)
        _prepare_out_dir(args.out_dir, cfg)
        _COMMANDS[args.command](cfg, args)
    except (VenuerecError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
