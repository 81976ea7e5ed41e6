"""Byte pins: the sha256 of CLI outputs, fixed before the dataset became columns.

The digests were computed at commit d39b40eb1082e6d570671ae68704c9f55d25f4d1,
where a Dataset was a tuple of PredictionRecord objects, by running the same
commands there. Each command runs in process, in a fresh directory, with
relative paths, because JSON outputs embed their options.

The tts.csv digest was recomputed when majority/majconf points became exact
from per-answer vote tables: its majority,4 and majconf,4 rows, drawn before
(0.4333333333333333,0.04082482904638631,false), are now
0.5047619047619047,0.0,true, which is float(exact_expected_accuracy) = 53/105.

The reward_integrated.jsonl digest was recomputed when the beta00 prior came
to clip 1 - p itself to [eps, 1 - eps] rather than take it from the clipped p:
its one changed line is q49's (product confidence at least 0.99, valid), whose
reward 0.9999999999999998 is now exactly 1.0.
"""

import hashlib

import pytest

from becal.cli import main

PRODUCT = ("--confidence-from", "product")

# (command line, output file, sha256 of that file), run in this order
PINS = (
    (("simulate", "--n", "300", "--agent", "overconfident:0.5", "--difficulty", "beta:2,3",
      "--seed", "5"), "flat.jsonl",
     "a1fa2bf57ffdf200da84b0335a5f5313d08a2ceef4ddddba81360bafca293247"),
    (("simulate", "--n", "200", "--n-claims", "8", "--seed", "6"), "chain.jsonl",
     "81d60ecc15e02fc0c597fb695543c17b1b113ac54adf1b1030c581d379398ce8"),
    (("simulate", "--groups", "12", "--samples-per-group", "8", "--seed", "7"), "ens.jsonl",
     "35717009a9f37c8efd4e0fc48ec4eb6edf376e2cf8c017978ed8298443496e78"),
    (("reward", "chain.jsonl", *PRODUCT, "--reward", "integrated", "--prior", "beta00:0.01",
      "--format", "jsonl"), "reward_integrated.jsonl",
     "5247307be874b350ef4204233acf8178428ae49a3cbc4512220608d30c0e0612"),
    (("reward", "chain.jsonl", *PRODUCT, "--reward", "explicit", "--t", "0.3",
      "--format", "jsonl"), "reward_explicit.jsonl",
     "fb8792f445b30212d86859428e8007395971a04d4f8298fb06b9feda7bbccb65"),
    (("sweep", "chain.jsonl", *PRODUCT, "--grid", "101"), "sweep.csv",
     "6d774c1f47232c797225a9f6601c8ff15fb379b52061891b7f447e5d49a2fc42"),
    (("objectives", "chain.jsonl", *PRODUCT), "objectives.json",
     "b78fed202893596882ebfee81e07bde737a4cebae736152310c192709a70b666"),
    (("tts", "ens.jsonl", "--k", "1,2,4,8", "--resamples", "5", "--seed", "3"), "tts.csv",
     "a04cf3532fed22f5584ff83f8194ecea1e4654cd9e93b71382f7e3f0eb055aae"),
)


def run_pins(directory) -> dict[str, str]:
    """Run every pinned command in directory; the digest of each output by file name."""
    digests = {}
    for argv, out, _ in PINS:
        assert main([*argv, "--out", out]) == 0, argv
        digests[out] = hashlib.sha256((directory / out).read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pins")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        return run_pins(directory)


@pytest.mark.parametrize("out,expected", [(out, digest) for _, out, digest in PINS])
def test_output_bytes_pinned(digests, out, expected):
    assert digests[out] == expected
