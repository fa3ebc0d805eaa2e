"""Command line front end.

Subcommands cover the whole workflow: build the embedding-space vector
caches, extract the feature table, train a ranker, produce and score run
files, and knock features out one at a time.  `pipeline` chains the
first five steps over one output directory: it loads the corpus once
and hands the loaded objects from step to step, so the files it writes
along the way, model.json included, are outputs only.  Only the venue
and context vectors read the embeddings, so they are built first and
the store is freed before the profiles, contexts and qrels load.
`COMMANDS` declares each subcommand once.  A step takes the feature
table it learns from or scores, which its command scales per topic once
when `normalize` asks; training is `ablation.fit`, as for `ablate`.

Settings resolve in three layers: built-in defaults, then a flat
``key = value`` config file, then command line flags.  Whatever wins is
echoed to ``<out-dir>/config.used`` so a run can be reproduced from its
outputs alone.
"""

import argparse
import dataclasses
import importlib
import logging
import math
import os
import sys
import typing

import numpy as np

from . import __version__
from .ablation import fit, run_ablation, write_ablation
from .errors import ConfigError, FormatError, VenuerecError, numbered_lines
from .features import normalize_per_topic, read_features, write_features
from .ltr import CAConfig, MARTConfig, predict_matrix
from .ltr.data import METRICS


def _deferred(module, name):
    """A stand-in for `name` of the submodule `module` that imports the
    module on its first call and forwards every call to it."""
    target = None

    def forward(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(module, __package__),
                             name)
        return target(*args, **kwargs)

    return forward


# The layers `ablate` never runs: the loaders and the text, embedding,
# profile, evaluation and model-file modules, of which `train` runs only
# the last.  Each name is a module global that the code below calls
# through, so a command loads only the layers it runs, and rebinding a
# name here (as perfbench/traced.py does to time it) sees every call.
load_venues = _deferred(".corpus", "load_venues")
load_profiles = _deferred(".corpus", "load_profiles")
load_contexts = _deferred(".corpus", "load_contexts")
load_qrels = _deferred(".evaluation", "load_qrels")
load_embeddings = _deferred(".embeddings", "load_embeddings")
build_venue_vectors = _deferred(".profiles", "build_venue_vectors")
build_context_vectors = _deferred(".profiles", "build_context_vectors")
user_profile_vectors = _deferred(".profiles", "user_profile_vectors")
save_venue_vectors = _deferred(".profiles", "save_venue_vectors")
save_user_vectors = _deferred(".profiles", "save_user_vectors")
save_context_vectors = _deferred(".profiles", "save_context_vectors")
load_venue_vectors = _deferred(".profiles", "load_venue_vectors")
load_user_vectors = _deferred(".profiles", "load_user_vectors")
load_context_vectors = _deferred(".profiles", "load_context_vectors")
ModelSet = _deferred(".profiles", "ModelSet")
extract_all = _deferred(".profiles", "extract_all")
save_model = _deferred(".ltr.serialize", "save_model")
load_model = _deferred(".ltr.serialize", "load_model")
ranked_run = _deferred(".evaluation", "ranked_run")
write_run = _deferred(".evaluation", "write_run")
load_run = _deferred(".evaluation", "load_run")
evaluate_run = _deferred(".evaluation", "evaluate_run")
paired_t_test = _deferred(".evaluation", "paired_t_test")
write_report = _deferred(".evaluation", "write_report")

log = logging.getLogger(__name__)


class Setting(typing.NamedTuple):
    """One config key; the default's type is the key's type.

    `check(key, value)` raises ConfigError when the value breaks the
    key's own rule.  A key with `help` also gets a flag.
    """

    default: object
    choices: tuple = None
    check: object = None
    help: str = None


def _rule(test, text):
    def check(key, value):
        if not test(value):
            raise ConfigError("%s %s, got %r" % (key, text, value))
    return check


def _at_least(low):
    return _rule(lambda v: v >= low, "must be >= %d" % low)


SETTINGS = {
    "seed": Setting(0, check=_at_least(0), help="RNG seed"),
    "k": Setting(10, check=_at_least(1),
                 help="expansion terms per seed subtraction"),
    "pos_threshold": Setting(4, help="minimum rating that counts as "
                                     "positive"),
    "neg_threshold": Setting(3, help="maximum rating that counts as "
                                     "negative"),
    "rating_min": Setting(0),
    "rating_max": Setting(4),
    "depth": Setting(50, check=_at_least(1)),
    "cutoff": Setting(1, check=_at_least(1)),
    "split_fraction": Setting(0.67, check=_rule(lambda v: 0.0 < v < 1.0,
                                                "must be in (0, 1)")),
    "learner": Setting("mart", ("ca", "mart"),
                       help="ranking learner (default: mart)"),
    "metric": Setting("p5", METRICS, help="training metric (default: p5)"),
    "embedding_format": Setting("text", ("text", "binary"),
                                help="embedding file layout (default: text)"),
    # the tag is the sixth whitespace-separated column of a run file
    "run_tag": Setting("venuerec", check=_rule(
        lambda v: v.split() == [v], "must be non-empty with no whitespace")),
    "normalize": Setting(False,
                         help="min-max scale count features per topic"),
    "shifted_negative": Setting(False),
    "include_empty": Setting(False),
    # the learners' keys, each defaulting to its CAConfig or MARTConfig
    # field
    "restarts": Setting(CAConfig.restarts, check=_at_least(1)),
    "max_sweeps": Setting(CAConfig.max_sweeps, check=_at_least(1)),
    "step_base": Setting(CAConfig.step_base,
                         check=_rule(lambda v: v > 0.0, "must be positive")),
    "step_scales": Setting(CAConfig.step_scales, check=_at_least(1)),
    "n_trees": Setting(MARTConfig.n_trees, check=_at_least(1)),
    "shrinkage": Setting(MARTConfig.shrinkage, check=_rule(
        lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")),
    "max_leaves": Setting(MARTConfig.max_leaves, check=_at_least(2)),
    "min_leaf": Setting(MARTConfig.min_leaf, check=_at_least(1)),
    "patience": Setting(MARTConfig.patience, check=_at_least(0)),
}

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _check(key, value):
    setting = SETTINGS[key]
    if setting.choices and value not in setting.choices:
        raise ConfigError("config key %r must be one of %s, got %r"
                          % (key, "/".join(setting.choices), value))
    if setting.check is not None:
        setting.check(key, value)


def _coerce(key, raw):
    kind = type(SETTINGS[key].default)
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
    if kind is float and not math.isfinite(value):
        raise ConfigError("config key %r must be finite, got %r"
                          % (key, raw.strip()))
    _check(key, value)
    return value


def parse_config_file(path):
    values = {}
    set_on = {}
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
            if key not in SETTINGS:
                raise ConfigError("%s: line %d: unknown config key %r"
                                  % (path, lineno, key))
            if key in set_on:
                raise ConfigError("%s: line %d: config key %r already set on "
                                  "line %d" % (path, lineno, key, set_on[key]))
            set_on[key] = lineno
            try:
                values[key] = _coerce(key, raw)
            except ConfigError as exc:
                raise ConfigError("%s: line %d: %s"
                                  % (path, lineno, exc)) from None
    except FormatError as exc:
        raise ConfigError(str(exc)) from None
    return values


def resolve_config(args):
    cfg = {key: setting.default for key, setting in SETTINGS.items()}
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key in SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            _check(key, flag)
            cfg[key] = flag
    if cfg["neg_threshold"] >= cfg["pos_threshold"]:
        raise ConfigError("neg_threshold must be below pos_threshold")
    if cfg["rating_min"] >= cfg["rating_max"]:
        raise ConfigError("rating_min must be below rating_max")
    # coordinate ascent's largest step, whichever learner is chosen
    try:
        math.ldexp(cfg["step_base"], cfg["step_scales"] - 1)
    except OverflowError:
        raise ConfigError(
            "step_base %r and step_scales %d make the largest step, "
            "step_base * 2**(step_scales - 1), overflow a float"
            % (cfg["step_base"], cfg["step_scales"])) from None
    return cfg


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config_used(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.used"), "w",
              encoding="utf-8") as fh:
        for key in sorted(cfg):
            fh.write("%s = %s\n" % (key, _format_value(cfg[key])))


# ---------------------------------------------------------------------------
# Steps, shared between individual subcommands and `pipeline`.  A step
# computes from loaded objects and writes its artifact; the _cmd_*
# wrappers further down load those objects from files.
# ---------------------------------------------------------------------------

def build_profiles_step(cfg, embedded, profiles, out_dir):
    """Write the three vector caches; returns the ModelSet they hold."""
    terms, dimension, venue_vectors, context_vectors = embedded
    log.info("loaded %d terms, %d venues, %d users",
             terms, len(venue_vectors), len(profiles))
    user_vectors = {p.user_id: user_profile_vectors(
        dimension, venue_vectors, p, pos_threshold=cfg["pos_threshold"],
        neg_threshold=cfg["neg_threshold"],
        shifted_negative=cfg["shifted_negative"]) for p in profiles}
    dangling = [sum(venue_id not in venue_vectors for venue_id, _ in p.ratings)
                for p in profiles]
    if any(dangling):
        log.warning("%d ratings by %d users name venues not present in the "
                    "venue corpus (skipped)", sum(dangling),
                    sum(1 for n in dangling if n))

    save_venue_vectors(venue_vectors,
                       os.path.join(out_dir, "venue_vectors.txt"))
    save_user_vectors(user_vectors, os.path.join(out_dir, "user_vectors.txt"))
    save_context_vectors(context_vectors,
                         os.path.join(out_dir, "context_vectors.txt"))
    log.info("profile caches written to %s", out_dir)
    # write_text_vectors prints every float with repr, so the caches
    # load back to exactly these values
    return ModelSet(venue_vectors, user_vectors, context_vectors)


def extract_step(venues_by_id, pairs, qrels, models, out_dir):
    """Write features.txt; returns the FeatureTable it holds."""
    path = os.path.join(out_dir, "features.txt")
    table = extract_all(pairs, venues_by_id, models, qrels)
    write_features(table, path)
    log.info("%d feature rows over %d topics written to %s",
             len(table), len(pairs), path)
    return table


def _table_for_learning(cfg, table):
    return normalize_per_topic(table) if cfg["normalize"] else table


def _learner_config(cfg):
    """The CAConfig or MARTConfig that `cfg` asks for."""
    config_class = CAConfig if cfg["learner"] == "ca" else MARTConfig
    return config_class(**{field.name: cfg[field.name]
                           for field in dataclasses.fields(config_class)})


def train_step(cfg, table, out_dir):
    """Write model.json, learned from `table`; returns the model."""
    config = _learner_config(cfg)
    model = fit(table, config, cfg["split_fraction"], cfg["cutoff"])[0]
    path = os.path.join(out_dir, "model.json")
    hyperparameters = dict(dataclasses.asdict(config), **{
        key: cfg[key] for key in ("learner", "normalize", "split_fraction",
                                  "k", "pos_threshold", "neg_threshold",
                                  "shifted_negative")})
    del hyperparameters["seed"]   # model.json holds it at the top level
    save_model(model, path, hyperparameters=hyperparameters)
    log.info("model written to %s", path)
    return model


def rank_step(cfg, table, model, out_dir):
    """Write run.txt for `table`; returns the RankedRun it holds."""
    if cfg["normalize"]:
        log.info("per-topic normalization applied before scoring")
    with np.errstate(over="ignore", invalid="ignore"):
        scores = predict_matrix(model, table.X)
    # a run holds finite scores only; load_run refuses any other
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        i = bad[0]
        raise VenuerecError("topic %s: the score of venue %s is %r"
                            % (table.topic_ids[i], table.venue_ids[i],
                               float(scores[i])))
    scores = scores.tolist()
    scored = {table.topic_ids[start]: list(zip(table.venue_ids[start:stop],
                                               scores[start:stop]))
              for start, stop in table.bounds}
    run = ranked_run(cfg["run_tag"], scored, depth=cfg["depth"])
    path = os.path.join(out_dir, "run.txt")
    write_run(run, path)
    log.info("run over %d topics written to %s", len(scored), path)
    return run


def eval_step(cfg, run, qrels, compare, out_dir):
    """Score `run`; `compare`, a second run or None, adds a t-test.  Both
    runs are scored and paired before metrics.txt is written, so a
    comparison that fails leaves no report."""
    report = evaluate_run(run, qrels, cutoff=cfg["cutoff"],
                          include_empty=cfg["include_empty"])
    result = None
    if compare is not None:
        other = evaluate_run(compare, qrels,
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
    path = os.path.join(out_dir, "metrics.txt")
    write_report(report, path)
    if result is not None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("# ttest\tP5\tt\t%.6f\tp\t%.6f\tn\t%d\n"
                     % (result.t_statistic, result.p_value, result.n))
        print("TTEST\tP5\t%.6f\t%.6f" % (result.t_statistic, result.p_value))
    print("P5\tall\t%.6f" % report.mean_p_at_k)
    print("MRR\tall\t%.6f" % report.mrr)


def ablate_step(cfg, table, out_dir):
    """Write ablation.tsv for `table`, normalized already if `cfg` asks."""
    report = run_ablation(table, _learner_config(cfg), cfg["split_fraction"],
                          cfg["cutoff"])
    path = os.path.join(out_dir, "ablation.tsv")
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
    for key, setting in SETTINGS.items():
        if setting.help is None:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(setting.default, bool):
            common.add_argument(flag, action="store_true", default=None,
                                help=setting.help)
        else:
            common.add_argument(flag, type=type(setting.default),
                                choices=setting.choices, help=setting.help)
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for progress, -vv for debug")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, required, optional) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=text)
        for key in required:
            p.add_argument("--" + key, required=True)
        for key, text in optional.items():
            p.add_argument("--" + key, help=text)
    return parser


def _load_profiles(cfg, path):
    return load_profiles(
        path, rating_scale=(cfg["rating_min"], cfg["rating_max"]))


def _load_models(out_dir, venues_by_id, pairs):
    """The ModelSet held by the vector caches in `out_dir`.  The three
    caches share venue_vectors.txt's dimension, and hold a vector for
    every candidate in `venues_by_id` and every topic's user."""
    venue_path, user_path, context_path = (
        os.path.join(out_dir, name) for name in
        ("venue_vectors.txt", "user_vectors.txt", "context_vectors.txt"))
    models = ModelSet(load_venue_vectors(venue_path),
                      load_user_vectors(user_path),
                      load_context_vectors(context_path))
    dimension = next((len(vv.vector) for vv in models.venue_vectors.values()),
                     None)
    for path, vectors in (
            (user_path, [up.positive for up in models.user_profiles.values()]),
            (context_path, list(models.context_vectors.values()))):
        if vectors and dimension not in (None, len(vectors[0])):
            raise FormatError("dimension %d differs from venue_vectors.txt's "
                              "%d" % (len(vectors[0]), dimension), path=path)
    for pair in pairs:
        missing = [v for v in pair.candidates
                   if v in venues_by_id and v not in models.venue_vectors]
        if missing:
            raise FormatError("no vector for venue %r, a candidate of topic "
                              "%s" % (missing[0], pair.topic_id),
                              path=venue_path)
        if pair.user.user_id not in models.user_profiles:
            raise FormatError("no vectors for user %r of topic %s"
                              % (pair.user.user_id, pair.topic_id),
                              path=user_path)
    return models


def _load_topics(args, venues, profiles):
    """Venues by id, the context pairs, and the qrels or None."""
    venues_by_id = {v.id: v for v in venues}
    users = {p.user_id: p for p in profiles}
    pairs = load_contexts(args.contexts, users, venues_by_id)
    qrels = load_qrels(args.qrels) if args.qrels else None
    return venues_by_id, pairs, qrels


def _embed_corpus(cfg, args):
    """The venues, ids and statistics only, and (term count, dimension,
    venue vectors, context vectors): all that is read of the store,
    which loads after the venues and dies on return."""
    venues = load_venues(args.venues)
    store = load_embeddings(args.embeddings, format=cfg["embedding_format"])
    venue_vectors = build_venue_vectors(store, venues)
    venues = [dataclasses.replace(v, comments=()) for v in venues]
    return venues, (len(store.terms), store.dimension, venue_vectors,
                    build_context_vectors(store, k=cfg["k"]))


def _cmd_build_profiles(cfg, args):
    build_profiles_step(cfg, _embed_corpus(cfg, args)[1],
                        _load_profiles(cfg, args.profiles), args.out_dir)


def _cmd_extract(cfg, args):
    venues_by_id, pairs, qrels = _load_topics(
        args, load_venues(args.venues, stem=False),
        _load_profiles(cfg, args.profiles))
    extract_step(venues_by_id, pairs, qrels,
                 _load_models(args.out_dir, venues_by_id, pairs), args.out_dir)


def _cmd_train(cfg, args):
    train_step(cfg, _table_for_learning(cfg, read_features(args.features)),
               args.out_dir)


def _cmd_rank(cfg, args):
    table = read_features(args.features)
    model, hyperparameters = load_model(args.model)
    # the model remembers whether it was trained on scaled features, and
    # config.used records what is applied
    cfg["normalize"] = hyperparameters.get("normalize", cfg["normalize"])
    write_config_used(cfg, args.out_dir)
    rank_step(cfg, _table_for_learning(cfg, table), model, args.out_dir)


def _cmd_eval(cfg, args):
    run = load_run(args.run)
    qrels = load_qrels(args.qrels)
    compare = load_run(args.compare) if args.compare else None
    eval_step(cfg, run, qrels, compare, args.out_dir)


def _cmd_ablate(cfg, args):
    # normalized before the step, so no frame holds the table as read
    # through the study
    ablate_step(cfg, _table_for_learning(cfg, read_features(args.features)),
                args.out_dir)


def _cmd_pipeline(cfg, args):
    """The five steps on a corpus loaded once, passed on in memory; the
    embedding store, the largest input, is freed before the rest of the
    corpus loads.  The peak RSS falls in build_context_vectors, with the
    store, the venue vectors and the venues' ids and statistics alive."""
    out_dir = args.out_dir
    venues, embedded = _embed_corpus(cfg, args)
    profiles = _load_profiles(cfg, args.profiles)
    venues_by_id, pairs, qrels = _load_topics(args, venues, profiles)
    models = build_profiles_step(cfg, embedded, profiles, out_dir)
    table = _table_for_learning(
        cfg, extract_step(venues_by_id, pairs, qrels, models, out_dir))
    model = train_step(cfg, table, out_dir)
    run = rank_step(cfg, table, model, out_dir)
    eval_step(cfg, run, qrels, None, out_dir)


# name: (runner, help line, required input files, optional input files
# with their help lines)
COMMANDS = {
    "build-profiles": (_cmd_build_profiles,
                       "build venue, user and context vector caches",
                       ("embeddings", "venues", "profiles"), {}),
    "extract": (_cmd_extract, "extract feature rows from the cached vectors",
                ("venues", "profiles", "contexts"),
                {"qrels": "labels for the rows (optional)"}),
    "train": (_cmd_train, "train a ranker on a feature file", ("features",),
              {}),
    "rank": (_cmd_rank, "score a feature file into a run file",
             ("features", "model"), {}),
    "eval": (_cmd_eval, "score a run file against qrels", ("run", "qrels"),
             {"compare": "second run file for a paired significance test"}),
    "ablate": (_cmd_ablate, "retrain with each feature zeroed out",
               ("features",), {}),
    "pipeline": (_cmd_pipeline,
                 "build, extract, train, rank and eval in one go",
                 ("embeddings", "venues", "profiles", "contexts", "qrels"),
                 {}),
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    level = {0: logging.WARNING, 1: logging.INFO}.get(args.verbose,
                                                      logging.DEBUG)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s: %(message)s")
    try:
        cfg = resolve_config(args)
        write_config_used(cfg, args.out_dir)
        COMMANDS[args.command][0](cfg, args)
    except (VenuerecError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
