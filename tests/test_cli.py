"""Command line front end, driven in-process through main()."""

import argparse
import json
import logging
import os

import numpy as np
import pytest

import synthdata
from venuerec.cli import build_parser, main
from venuerec.embeddings import EmbeddingStore, save_embeddings

ARTIFACTS = ("config.used", "venue_vectors.txt", "user_vectors.txt",
             "context_vectors.txt", "features.txt", "model.json", "run.txt",
             "metrics.txt")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return synthdata.write_corpus(tmp_path_factory.mktemp("corpus"))


def pipeline_argv(corpus, out_dir, *extra):
    return ["pipeline", "--out-dir", str(out_dir), "--seed", "42",
            "--embeddings", corpus["embeddings"],
            "--venues", corpus["venues"],
            "--profiles", corpus["profiles"],
            "--contexts", corpus["contexts"],
            "--qrels", corpus["qrels"], *extra]


def command_argv(command, corpus, pipeline_dir, out_dir, *extra):
    """`command` on the shared corpus or on the pipeline's outputs."""
    if command == "pipeline":
        return pipeline_argv(corpus, out_dir, *extra)
    argv = [command, "--out-dir", str(out_dir), *extra,
            "--features", str(pipeline_dir / "features.txt")]
    if command == "rank":
        argv += ["--model", str(pipeline_dir / "model.json")]
    return argv


def with_feature_1(line, token):
    """A features.txt line with its first feature value set to `token`."""
    head, _, rest = line.partition(" 1:")
    return "%s 1:%s%s" % (head, token, rest[rest.index(" "):])


@pytest.fixture(scope="module")
def pipeline_dir(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    assert main(pipeline_argv(corpus, out)) == 0
    return out


class TestPipeline:

    def test_produces_every_artifact(self, pipeline_dir):
        for name in ARTIFACTS:
            assert (pipeline_dir / name).is_file(), name

    def test_reports_the_planted_precision(self, corpus, tmp_path, capsys):
        assert main(pipeline_argv(corpus, tmp_path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "P5\tall\t1.000000" in lines
        assert "MRR\tall\t1.000000" in lines

    def test_rerun_is_byte_identical(self, corpus, pipeline_dir, tmp_path):
        assert main(pipeline_argv(corpus, tmp_path)) == 0
        for name in ARTIFACTS:
            assert (tmp_path / name).read_bytes() == \
                (pipeline_dir / name).read_bytes(), name

    @pytest.mark.parametrize("flags", [
        (), ("--learner", "ca", "--normalize"), ("--metric", "mrr"),
    ], ids=["default", "ca-normalize", "mrr"])
    def test_individual_steps_reproduce_it(self, corpus, pipeline_dir,
                                           tmp_path, flags):
        # pipeline hands objects from step to step in memory; the five
        # subcommands read each other's files instead
        if flags:
            pipeline_dir = tmp_path / "pipeline"
            assert main(pipeline_argv(corpus, pipeline_dir, *flags)) == 0
        steps = tmp_path / "steps"
        out = ["--out-dir", str(steps), "--seed", "42", *flags]
        assert main(["build-profiles", *out,
                     "--embeddings", corpus["embeddings"],
                     "--venues", corpus["venues"],
                     "--profiles", corpus["profiles"]]) == 0
        assert main(["extract", *out, "--venues", corpus["venues"],
                     "--profiles", corpus["profiles"],
                     "--contexts", corpus["contexts"],
                     "--qrels", corpus["qrels"]]) == 0
        assert main(["train", *out,
                     "--features", str(steps / "features.txt")]) == 0
        assert main(["rank", *out,
                     "--features", str(steps / "features.txt"),
                     "--model", str(steps / "model.json")]) == 0
        assert main(["eval", *out, "--run", str(steps / "run.txt"),
                     "--qrels", corpus["qrels"]]) == 0
        for name in ARTIFACTS:
            assert (steps / name).read_bytes() == \
                (pipeline_dir / name).read_bytes(), name

    def test_binary_embeddings_are_accepted(self, corpus, tmp_path):
        vocab = synthdata.build_vocab()
        terms = sorted(vocab)
        store = EmbeddingStore(terms, np.array([vocab[t] for t in terms]))
        blob = tmp_path / "embeddings.bin"
        save_embeddings(store, str(blob), format="binary")
        assert main(["build-profiles", "--out-dir", str(tmp_path),
                     "--embedding-format", "binary",
                     "--embeddings", str(blob),
                     "--venues", corpus["venues"],
                     "--profiles", corpus["profiles"]]) == 0
        assert (tmp_path / "venue_vectors.txt").is_file()


class TestBuildProfiles:

    def test_dangling_ratings_warn_once(self, corpus, tmp_path, caplog):
        lines = open(corpus["profiles"], encoding="utf-8").read().splitlines()
        for i, ghosts in ((0, 2), (3, 1), (5, 2)):
            record = json.loads(lines[i])
            record["ratings"] += [{"venue_id": "ghost%d" % g, "rating": 4}
                                  for g in range(ghosts)]
            lines[i] = json.dumps(record)
        profiles = tmp_path / "profiles.jsonl"
        profiles.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert main(["build-profiles", "--out-dir", str(tmp_path),
                         "--embeddings", corpus["embeddings"],
                         "--venues", corpus["venues"],
                         "--profiles", str(profiles)]) == 0
        assert [r.getMessage() for r in caplog.records] == [
            "5 ratings by 3 users name venues not present in the venue "
            "corpus (skipped)"]


class TestEval:

    def test_compare_appends_a_t_test(self, corpus, pipeline_dir, tmp_path,
                                      capsys):
        assert main(["eval", "--out-dir", str(tmp_path),
                     "--run", str(pipeline_dir / "run.txt"),
                     "--qrels", corpus["qrels"],
                     "--compare", str(pipeline_dir / "run.txt")]) == 0
        out = capsys.readouterr().out
        assert "TTEST\tP5\t0.000000\t1.000000" in out
        report = (tmp_path / "metrics.txt").read_text(encoding="utf-8")
        assert "# ttest\tP5\tt\t0.000000\tp\t1.000000\tn\t20\n" in report

    def test_missing_run_file_exits_2(self, corpus, tmp_path, capsys):
        code = main(["eval", "--out-dir", str(tmp_path),
                     "--run", str(tmp_path / "nope.txt"),
                     "--qrels", corpus["qrels"]])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_disjoint_topics_exit_2(self, corpus, tmp_path, capsys):
        stray = tmp_path / "stray.txt"
        stray.write_text("qX Q0 v1 1 1.000000 tag\n", encoding="utf-8")
        code = main(["eval", "--out-dir", str(tmp_path),
                     "--run", str(stray), "--qrels", corpus["qrels"]])
        assert code == 2
        assert "error: run and qrels share no topics" in capsys.readouterr().err


class TestConfig:

    def test_flags_beat_file_beats_defaults(self, corpus, pipeline_dir,
                                            tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("seed = 7\nrun_tag = filetag  # comment\n",
                       encoding="utf-8")
        assert main(["eval", "--out-dir", str(tmp_path),
                     "--config", str(cfg), "--seed", "9",
                     "--run", str(pipeline_dir / "run.txt"),
                     "--qrels", corpus["qrels"]]) == 0
        used = (tmp_path / "config.used").read_text(encoding="utf-8")
        assert "seed = 9\n" in used
        assert "run_tag = filetag\n" in used

    def test_unknown_key_exits_2(self, corpus, pipeline_dir, tmp_path,
                                 capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        code = main(["eval", "--out-dir", str(tmp_path),
                     "--config", str(cfg),
                     "--run", str(pipeline_dir / "run.txt"),
                     "--qrels", corpus["qrels"]])
        assert code == 2
        assert "unknown config key 'bogus'" in capsys.readouterr().err

    def test_bad_value_exits_2(self, corpus, pipeline_dir, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("seed = soon\n", encoding="utf-8")
        code = main(["eval", "--out-dir", str(tmp_path),
                     "--config", str(cfg),
                     "--run", str(pipeline_dir / "run.txt"),
                     "--qrels", corpus["qrels"]])
        assert code == 2
        assert "wants int" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, corpus, pipeline_dir, tmp_path,
                                     capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_bytes(b"seed = 7\nrun_tag = caf\xe9\n")
        code = main(["eval", "--out-dir", str(tmp_path),
                     "--config", str(cfg),
                     "--run", str(pipeline_dir / "run.txt"),
                     "--qrels", corpus["qrels"]])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: %s: line 2: not valid UTF-8\n" % cfg)

    def test_config_used_echoes_every_setting(self, pipeline_dir):
        lines = (pipeline_dir / "config.used").read_text(
            encoding="utf-8").splitlines()
        assert lines == [
            "cutoff = 1", "depth = 50", "embedding_format = text",
            "include_empty = false", "k = 10", "learner = mart",
            "max_leaves = 7", "max_sweeps = 25", "metric = p5",
            "min_leaf = 1", "n_trees = 100", "neg_threshold = 3",
            "normalize = false", "patience = 20", "pos_threshold = 4",
            "rating_max = 4", "rating_min = 0", "restarts = 5",
            "run_tag = venuerec", "seed = 42", "shifted_negative = false",
            "shrinkage = 0.1", "split_fraction = 0.67", "step_base = 0.05",
            "step_scales = 10"]

    # Every key's own rule holds whichever learner is chosen, and fails
    # before any input is read or any output written.  A learner key is
    # set under the other learner to show it.
    @pytest.mark.parametrize("command, text, message", [
        ("pipeline", "seed = -1", "seed must be >= 0, got -1"),
        ("pipeline", "k = 0", "k must be >= 1, got 0"),
        ("pipeline", "depth = 0", "depth must be >= 1, got 0"),
        ("pipeline", "split_fraction = 0",
         "split_fraction must be in (0, 1), got 0.0"),
        ("pipeline", "split_fraction = 1",
         "split_fraction must be in (0, 1), got 1.0"),
        ("pipeline", "learner = svm",
         "config key 'learner' must be one of ca/mart, got 'svm'"),
        ("pipeline", "metric = map",
         "config key 'metric' must be one of p5/mrr, got 'map'"),
        ("pipeline", "embedding_format = csv",
         "config key 'embedding_format' must be one of text/binary, "
         "got 'csv'"),
        ("pipeline", "run_tag = a b",
         "run_tag must be non-empty with no whitespace, got 'a b'"),
        ("rank", "run_tag =",
         "run_tag must be non-empty with no whitespace, got ''"),
        ("rank", "run_tag = a\tb",
         "run_tag must be non-empty with no whitespace, got 'a\\tb'"),
        ("pipeline", "learner = mart\nrestarts = 0",
         "restarts must be >= 1, got 0"),
        ("train", "learner = mart\nmax_sweeps = 0",
         "max_sweeps must be >= 1, got 0"),
        ("train", "learner = mart\nstep_scales = 0",
         "step_scales must be >= 1, got 0"),
        ("train", "learner = mart\nstep_base = 0",
         "step_base must be positive and finite"),
        ("pipeline", "learner = ca\nn_trees = 0",
         "n_trees must be >= 1, got 0"),
        ("ablate", "learner = ca\nshrinkage = 1.5",
         "shrinkage must be in (0, 1], got 1.5"),
        ("pipeline", "max_leaves = 1", "max_leaves must be >= 2"),
        ("ablate", "learner = ca\nmin_leaf = 0", "min_leaf must be >= 1"),
        ("train", "learner = ca\npatience = -1", "patience must be >= 0"),
    ])
    def test_rule_breach_in_file_exits_2_before_any_output(
            self, corpus, pipeline_dir, tmp_path, capsys, command, text,
            message):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(text + "\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        code = main(command_argv(command, corpus, pipeline_dir, out,
                                 "--config", str(cfg)))
        assert code == 2
        assert capsys.readouterr().err == "error: %s: line %d: %s\n" % (
            cfg, text.count("\n") + 1, message)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("via", ["flag", "file"])
    def test_negative_seed_exits_2(self, corpus, pipeline_dir, tmp_path,
                                   capsys, command, via):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("seed = -1\n", encoding="utf-8")
        extra = ["--seed", "-1"] if via == "flag" else ["--config", str(cfg)]
        code = main(command_argv(command, corpus, pipeline_dir,
                                 tmp_path / "out", *extra))
        assert code == 2
        where = "" if via == "flag" else "%s: line 1: " % cfg
        assert capsys.readouterr().err == (
            "error: %sseed must be >= 0, got -1\n" % where)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("learner, own", [
        ("ca", {"restarts": 5, "max_sweeps": 25, "step_base": 0.05,
                "step_scales": 10}),
        ("mart", {"n_trees": 100, "shrinkage": 0.1, "max_leaves": 7,
                  "min_leaf": 1, "patience": 20}),
    ])
    def test_model_records_its_hyperparameters(self, pipeline_dir, tmp_path,
                                               learner, own):
        assert main(["train", "--out-dir", str(tmp_path), "--seed", "42",
                     "--learner", learner,
                     "--features", str(pipeline_dir / "features.txt")]) == 0
        doc = json.loads((tmp_path / "model.json").read_text(
            encoding="utf-8"))
        assert doc["hyperparameters"] == {
            "learner": learner, "metric": "p5", "normalize": False,
            "split_fraction": 0.67, "k": 10, "pos_threshold": 4,
            "neg_threshold": 3, "shifted_negative": False, **own}


class TestTrainRankHandshake:

    def test_normalization_travels_with_the_model(self, corpus, pipeline_dir,
                                                  tmp_path):
        features = str(pipeline_dir / "features.txt")
        assert main(["train", "--out-dir", str(tmp_path), "--seed", "42",
                     "--normalize", "--features", features]) == 0
        doc = json.loads((tmp_path / "model.json").read_text(
            encoding="utf-8"))
        assert doc["hyperparameters"]["normalize"] is True
        # rank without the flag; the model remembers the transform
        assert main(["rank", "--out-dir", str(tmp_path), "--seed", "42",
                     "--features", features,
                     "--model", str(tmp_path / "model.json")]) == 0
        plain = (tmp_path / "run.txt").read_bytes()
        assert main(["rank", "--out-dir", str(tmp_path), "--seed", "42",
                     "--normalize", "--features", features,
                     "--model", str(tmp_path / "model.json")]) == 0
        assert (tmp_path / "run.txt").read_bytes() == plain


class TestAblateCommand:

    def test_writes_the_knockout_table(self, pipeline_dir, tmp_path):
        assert main(["ablate", "--out-dir", str(tmp_path), "--seed", "42",
                     "--features", str(pipeline_dir / "features.txt")]) == 0
        table = (tmp_path / "ablation.tsv").read_text(encoding="utf-8")
        assert "# baseline\tp5\t1.000000\n" in table
        assert "uv_pos\t-40.000000\n" in table
        assert "cv_season\t-10.000000\n" in table


class TestBadInputs:
    """Broken input files end in exit 2 and one error line naming them."""

    def build_profiles(self, corpus, out_dir, **paths):
        files = {key: corpus[key] for key in
                 ("embeddings", "venues", "profiles")}
        files.update((key, str(path)) for key, path in paths.items())
        return main(["build-profiles", "--out-dir", str(out_dir),
                     "--embeddings", files["embeddings"],
                     "--venues", files["venues"],
                     "--profiles", files["profiles"]])

    @pytest.mark.parametrize("kind, message", [
        ("venues", "no venue records"),
        ("profiles", "no user profile records"),
    ])
    def test_empty_corpus_file_exits_2(self, corpus, tmp_path, capsys,
                                       kind, message):
        empty = tmp_path / ("%s.jsonl" % kind)
        empty.write_text("")
        code = self.build_profiles(corpus, tmp_path / "out", **{kind: empty})
        assert code == 2
        assert capsys.readouterr().err == "error: %s: %s\n" % (empty,
                                                               message)

    def test_non_utf8_venues_exit_2(self, corpus, tmp_path, capsys):
        venues = tmp_path / "venues.jsonl"
        venues.write_bytes(b'{"id": "v1"}\n{"id": "caf\xe9"}\n')
        code = self.build_profiles(corpus, tmp_path / "out", venues=venues)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: %s: line 2: not valid UTF-8\n" % venues)

    def test_non_utf8_embeddings_exit_2(self, corpus, tmp_path, capsys):
        embeddings = tmp_path / "embeddings.txt"
        embeddings.write_bytes(b"cafe 0.1 0.2\ncaf\xe9 0.1 0.2\n")
        code = self.build_profiles(corpus, tmp_path / "out",
                                   embeddings=embeddings)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: %s: line 2: not valid UTF-8\n" % embeddings)

    def test_non_utf8_run_exits_2(self, corpus, tmp_path, capsys):
        run = tmp_path / "run.txt"
        run.write_bytes(b"t1 Q0 v\xe9 1 1.0 tag\n")
        code = main(["eval", "--out-dir", str(tmp_path / "out"),
                     "--run", str(run), "--qrels", corpus["qrels"]])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: %s: line 1: not valid UTF-8\n" % run)

    @pytest.mark.parametrize("kind, field, value, message", [
        ("venues", "id", "v y",
         "field 'id' must not contain whitespace, got 'v y'"),
        ("profiles", "user_id", "u y",
         "field 'user_id' must not contain whitespace, got 'u y'"),
        ("contexts", "topic_id", "t 1",
         "field 'topic_id' must not contain whitespace, got 't 1'"),
        ("contexts", "candidates", ["v x"],
         "candidate 'v x' contains whitespace"),
    ], ids=["venue", "user", "topic", "candidate"])
    def test_id_with_whitespace_exits_2(self, corpus, tmp_path, capsys, kind,
                                        field, value, message):
        lines = open(corpus[kind], encoding="utf-8").read().splitlines()
        record = json.loads(lines[1])
        record[field] = value
        lines[1] = json.dumps(record)
        bad = tmp_path / ("%s.jsonl" % kind)
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(pipeline_argv({**corpus, kind: str(bad)},
                                  tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == "error: %s: line 2: %s\n" % (
            bad, message)

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_features_exit_2(self, pipeline_dir, tmp_path, capsys,
                                        token):
        lines = (pipeline_dir / "features.txt").read_text(
            encoding="utf-8").splitlines(keepends=True)
        lines[1] = with_feature_1(lines[1], token)
        features = tmp_path / "features.txt"
        features.write_text("".join(lines), encoding="utf-8")
        code = main(["ablate", "--out-dir", str(tmp_path / "out"),
                     "--features", str(features)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: %s: line 2: feature 1 is not finite\n" % features)

    def test_overflowing_normalization_exits_2(self, pipeline_dir, tmp_path,
                                               capsys):
        lines = (pipeline_dir / "features.txt").read_text(
            encoding="utf-8").splitlines(keepends=True)
        lines[0] = with_feature_1(lines[0], "1e308")
        lines[1] = with_feature_1(lines[1], "-1e308")
        topic = lines[0].split()[1][4:]
        assert lines[1].split()[1] == "qid:" + topic
        features = tmp_path / "features.txt"
        features.write_text("".join(lines), encoding="utf-8")
        code = main(["train", "--out-dir", str(tmp_path / "out"),
                     "--normalize", "--features", str(features)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: topic %s: feature 1 is not finite once scaled: its range "
            "overflows a float\n" % topic)

    @pytest.mark.parametrize("command", ["train", "rank", "ablate"])
    def test_repeated_feature_row_exits_2(self, pipeline_dir, tmp_path,
                                          capsys, command):
        lines = (pipeline_dir / "features.txt").read_text(
            encoding="utf-8").splitlines(keepends=True)
        lines.append(lines[3].replace("qid:", "1 qid:", 1)[2:])
        features = tmp_path / "features.txt"
        features.write_text("".join(lines), encoding="utf-8")
        topic = lines[3].split()[1][4:]
        venue = lines[3].split()[-1]
        argv = [command, "--out-dir", str(tmp_path / "out"),
                "--features", str(features)]
        if command == "rank":
            argv += ["--model", str(pipeline_dir / "model.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: %s: line %d: duplicate row for topic %s venue %s\n"
            % (features, len(lines), topic, venue))

    def test_non_utf8_binary_term_exits_2(self, corpus, tmp_path, capsys):
        blob = tmp_path / "embeddings.bin"
        vector = np.ones(3, dtype="<f4").tobytes()
        blob.write_bytes(b"2 3\nok " + vector + b"\ncaf\xe9 " + vector
                         + b"\n")
        code = main(["build-profiles", "--out-dir", str(tmp_path / "out"),
                     "--embedding-format", "binary",
                     "--embeddings", str(blob),
                     "--venues", corpus["venues"],
                     "--profiles", corpus["profiles"]])
        assert code == 2
        # the second term starts after the header (4 bytes), the first
        # record ("ok ", 12 bytes of floats) and its newline
        assert capsys.readouterr().err == (
            "error: %s: offset 20: term is not valid UTF-8\n" % blob)

    @pytest.mark.parametrize("field, raw", [
        ("checkins", "1" + "0" * 400),
        ("rating_avg", "1e400"),
        ("likes", "-1e400"),
    ], ids=["huge-int", "huge-float", "huge-negative"])
    def test_oversized_venue_statistic_exits_2(self, corpus, tmp_path,
                                               capsys, field, raw):
        lines = open(corpus["venues"], encoding="utf-8").read().splitlines()
        record = json.loads(lines[1])
        record[field] = 0
        lines[1] = json.dumps(record).replace(
            '"%s": 0' % field, '"%s": %s' % (field, raw))
        venues = tmp_path / "venues.jsonl"
        venues.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(pipeline_argv({**corpus, "venues": str(venues)},
                                  tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: %s: line 2: field %r does not fit a finite float\n"
            % (venues, field))

    @pytest.mark.parametrize("raw", ["inf", "nan", "-inf"])
    def test_non_finite_step_base_exits_2(self, pipeline_dir, tmp_path,
                                          capsys, raw):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("learner = ca\nstep_base = %s\n" % raw,
                       encoding="utf-8")
        code = main(["train", "--out-dir", str(tmp_path / "out"),
                     "--config", str(cfg),
                     "--features", str(pipeline_dir / "features.txt")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: %s: line 2: config key 'step_base' must be finite, "
            "got %r\n" % (cfg, raw))

    @pytest.mark.parametrize("field, value, message", [
        ("feature", 99, "matrix has 13 features, model needs 100"),
        ("shrinkage", float("nan"), "shrinkage must be in (0, 1], got nan"),
    ])
    def test_bad_tree_model_exits_2(self, pipeline_dir, tmp_path, capsys,
                                    field, value, message):
        doc = json.loads((pipeline_dir / "model.json").read_text(
            encoding="utf-8"))
        if field == "feature":
            tree = doc["trees"][0]
            split = next(i for i, f in enumerate(tree["feature"]) if f >= 0)
            tree["feature"][split] = value
        else:
            doc[field] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["rank", "--out-dir", str(tmp_path / "out"),
                     "--features", str(pipeline_dir / "features.txt"),
                     "--model", str(model)])
        assert code == 2
        assert capsys.readouterr().err == "error: %s: %s\n" % (model,
                                                               message)



class TestParser:

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for name in ("build-profiles", "extract", "train", "rank", "eval",
                     "ablate", "pipeline"):
            assert name in out

    def test_options_of_each_subcommand(self):
        parser = build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))

        def options(p):
            return sorted(option for action in p._actions
                          for option in action.option_strings)

        common = ["--config", "--embedding-format", "--help", "--k",
                  "--learner", "--metric", "--neg-threshold", "--normalize",
                  "--out-dir", "--pos-threshold", "--seed", "--verbose",
                  "-h", "-v"]
        own = {
            "build-profiles": ["--embeddings", "--profiles", "--venues"],
            "extract": ["--contexts", "--profiles", "--qrels", "--venues"],
            "train": ["--features"],
            "rank": ["--features", "--model"],
            "eval": ["--compare", "--qrels", "--run"],
            "ablate": ["--features"],
            "pipeline": ["--contexts", "--embeddings", "--profiles",
                         "--qrels", "--venues"],
        }
        assert options(parser) == ["--help", "--version", "-h"]
        assert {name: options(p) for name, p in sub.choices.items()} == {
            name: sorted(common + flags) for name, flags in own.items()}

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("venuerec ")

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train"])
        assert err.value.code == 2
        assert "--features" in capsys.readouterr().err

    def test_command_is_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
