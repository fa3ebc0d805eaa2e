"""`_rng.PCG64` against numpy's own `default_rng`, its oracle.

The train/validation split and coordinate ascent's restarts read their
draws from `_rng`, so no command imports numpy's random module; the
last test checks that in fresh processes.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthdata
from venuerec._rng import PCG64
from venuerec.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one 32-bit word, the edges of two and three words, and wider values
_EDGES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 3,
          10 ** 30, 2 ** 128 + 7]
_ENTROPY = st.one_of(st.sampled_from(_EDGES), st.integers(0, 2 ** 130))


class TestAgainstNumpy:

    @settings(max_examples=200, deadline=None)
    @given(_ENTROPY, st.integers(0, 3000))
    def test_permutation(self, entropy, n):
        assert PCG64(entropy).permutation(n) == \
            np.random.default_rng(entropy).permutation(n).tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ENTROPY, max_size=3), st.integers(0, 3000))
    def test_random_from_a_list(self, entropy, n):
        # coordinate ascent seeds restart r with [seed, r]
        assert PCG64(entropy).random(n) == \
            np.random.default_rng(entropy).random(n).tolist()

    @settings(max_examples=100, deadline=None)
    @given(_ENTROPY, st.lists(st.tuples(st.booleans(), st.integers(0, 300)),
                              max_size=6))
    def test_interleaved_draws_share_one_stream(self, entropy, calls):
        # a permutation leaves half of a 64-bit draw buffered; random
        # draws whole ones and leaves that half alone
        ours, theirs = PCG64(entropy), np.random.default_rng(entropy)
        for shuffle, n in calls:
            if shuffle:
                assert ours.permutation(n) == \
                    theirs.permutation(n).tolist()
            else:
                assert ours.random(n) == theirs.random(n).tolist()

    @pytest.mark.parametrize("entropy", [0, 7, 4294967301, [4294967301, 3]])
    def test_split_sizes(self, entropy):
        for n in (0, 1, 2, 3, 5, 100, 150, 257):
            assert PCG64(entropy).permutation(n) == \
                np.random.default_rng(entropy).permutation(n).tolist()


# Runs one command in a fresh interpreter and prints its exit code and
# which of the modules numpy's random module pulls in it loaded.
_UNWANTED = ("numpy.random", "secrets", "hashlib")
_PROBE = """
import json, sys
preloaded = set(sys.modules)
from venuerec.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, [name for name in %r
                         if name in sys.modules and name not in preloaded]]))
""" % (_UNWANTED,)


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """The argv of each command that splits topics or draws restarts,
    without its --out-dir."""
    corpus = synthdata.write_corpus(tmp_path_factory.mktemp("corpus"))
    pipeline = ["pipeline", "--seed", "42"]
    for key in ("embeddings", "venues", "profiles", "contexts", "qrels"):
        pipeline += ["--" + key, corpus[key]]
    out = tmp_path_factory.mktemp("pipeline")
    assert main(pipeline + ["--out-dir", str(out)]) == 0
    features = ["--seed", "42", "--features", str(out / "features.txt")]
    return {"pipeline-ca": pipeline + ["--learner", "ca"],
            "train-mart": ["train", *features],
            "ablate-ca": ["ablate", *features, "--learner", "ca"],
            "ablate-mart": ["ablate", *features, "--learner", "mart"]}


@pytest.mark.parametrize("command", ["pipeline-ca", "train-mart",
                                     "ablate-ca", "ablate-mart"])
def test_no_command_loads_numpy_random(commands, tmp_path, command):
    # a subprocess, since this test's own process has loaded them all
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *commands[command],
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
