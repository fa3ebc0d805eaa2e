"""Command line front end, driven in-process through main()."""

import json
import os

import numpy as np
import pytest

import synthdata
from venuerec.cli import DEFAULTS, main
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

    def test_individual_steps_reproduce_it(self, corpus, pipeline_dir,
                                           tmp_path):
        out = ["--out-dir", str(tmp_path), "--seed", "42"]
        assert main(["build-profiles", *out,
                     "--embeddings", corpus["embeddings"],
                     "--venues", corpus["venues"],
                     "--profiles", corpus["profiles"]]) == 0
        assert main(["extract", *out, "--venues", corpus["venues"],
                     "--profiles", corpus["profiles"],
                     "--contexts", corpus["contexts"],
                     "--qrels", corpus["qrels"]]) == 0
        assert main(["train", *out,
                     "--features", str(tmp_path / "features.txt")]) == 0
        assert main(["rank", *out,
                     "--features", str(tmp_path / "features.txt"),
                     "--model", str(tmp_path / "model.json")]) == 0
        assert main(["eval", *out, "--run", str(tmp_path / "run.txt"),
                     "--qrels", corpus["qrels"]]) == 0
        for name in ARTIFACTS:
            assert (tmp_path / name).read_bytes() == \
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
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == sorted(DEFAULTS)
        assert "seed = 42" in lines
        assert "learner = mart" in lines
        assert "normalize = false" in lines


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

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_features_exit_2(self, pipeline_dir, tmp_path, capsys,
                                        token):
        lines = (pipeline_dir / "features.txt").read_text(
            encoding="utf-8").splitlines(keepends=True)
        head, _, rest = lines[1].partition(" 1:")
        lines[1] = "%s 1:%s%s" % (head, token, rest[rest.index(" "):])
        features = tmp_path / "features.txt"
        features.write_text("".join(lines), encoding="utf-8")
        code = main(["ablate", "--out-dir", str(tmp_path / "out"),
                     "--features", str(features)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: %s: line 2: feature 1 is not finite\n" % features)


class TestParser:

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for name in ("build-profiles", "extract", "train", "rank", "eval",
                     "ablate", "pipeline"):
            assert name in out

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
