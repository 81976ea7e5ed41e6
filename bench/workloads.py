"""The three benchmark workloads: seeded input generators and CLI pipelines.

Each workload is a fixed list of `becal` invocations. Inputs that the
benchmark makes itself are drawn from numpy's Philox generator keyed by the
workload seed, so one seed always gives byte-identical input files.

Sizes are chosen so one pipeline takes two to four seconds on two cores at
the seed state of the program. On a shared two-core machine single pipeline
times swing by up to a third, so a run measures many short repetitions and
reports their median rather than two long ones; a faster program simply gets
more repetitions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SHARP_RECORDS = 5_000
CHAIN_RECORDS = 8_000
CHAIN_CLAIMS = 8
ENSEMBLE_GROUPS = 200
ENSEMBLE_SAMPLES = 16
DISTRACTORS = 4
TTS_K = (1, 2, 4, 8, 16)
TTS_STRATEGIES = ("mean", "best", "majority", "maxconf", "majconf")
TTS_RESAMPLES = 6
SWEEP_GRID = 1001
REWARD_EPSILON = 0.01

# the `report` defaults the oracles rely on
REPORT_GRID = 101
SMECE_GRID = 512
NLL_FLOOR = 1e-6
TOLERANCE = 0.05

INPUT = "input.jsonl"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _jsonl(rows) -> bytes:
    return "".join(json.dumps(row) + "\n" for row in rows).encode("utf-8")


def sharp_input(seed: int, n: int = SHARP_RECORDS) -> bytes:
    """Flat records from a sharpened agent: confidence = sigmoid(2 logit q).

    The agent is overconfident on both sides of 0.5, so smECE depends on the
    bandwidth and the fixed-point search does real work. (Under a power:G
    agent smECE equals |mean(v - p)| at every bandwidth.)
    """
    rng = _rng(seed, 1)
    q = rng.random(n)
    valid = rng.random(n) < q
    conf = q * q / (q * q + (1.0 - q) * (1.0 - q))  # sigmoid(2 logit q)
    return _jsonl({"id": f"r{i}", "valid": bool(valid[i]), "confidence": float(conf[i])}
                  for i in range(n))


def ensemble_input(seed: int, groups: int = ENSEMBLE_GROUPS,
                   samples: int = ENSEMBLE_SAMPLES) -> bytes:
    """Grouped samples for `tts`; confidences on a 0.05 grid, as verbalized ones are.

    Valid samples answer "A", invalid ones one of DISTRACTORS wrong answers.
    The coarse confidence grid makes ties common, so the tie-breaking paths
    of maxconf, majority and majconf all run.
    """
    rng = _rng(seed, 2)
    base = rng.uniform(0.1, 0.9, groups)
    q = np.clip(base[:, None] + rng.uniform(-0.2, 0.2, (groups, samples)), 0.05, 0.95)
    valid = rng.random((groups, samples)) < q
    conf = np.round(q * 20.0) / 20.0
    wrong = rng.integers(0, DISTRACTORS, (groups, samples))
    return _jsonl({"id": f"g{g}s{s}", "group": f"g{g}", "valid": bool(valid[g, s]),
                   "confidence": float(conf[g, s]),
                   "answer": "A" if valid[g, s] else f"W{int(wrong[g, s])}"}
                  for g in range(groups) for s in range(samples))


@dataclass(frozen=True)
class Step:
    """One CLI invocation; paths are relative to the repetition directory."""

    command: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def argv(self) -> list[str]:
        return [self.command, *self.args]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    make_input: object = None  # seed -> bytes, written to INPUT beside the repetitions


def _sidecar(path: str) -> tuple[str, str]:
    return path, path + ".meta.json"


def report_sharp(seed: int) -> Workload:
    return Workload(
        name="report-sharp",
        steps=(Step("report", ("../" + INPUT, "--out", "report.json"), ("report.json",)),),
        make_input=sharp_input)


def chain_pipeline(seed: int) -> Workload:
    product = ("--confidence-from", "product")
    return Workload(
        name="chain-pipeline",
        steps=(
            Step("simulate", ("--n", str(CHAIN_RECORDS), "--n-claims", str(CHAIN_CLAIMS),
                              "--agent", "calibrated", "--seed", str(seed),
                              "--out", "chain.jsonl"), _sidecar("chain.jsonl")),
            Step("reward", ("chain.jsonl", *product, "--reward", "integrated",
                            "--prior", f"beta00:{REWARD_EPSILON}", "--format", "jsonl",
                            "--out", "reward.jsonl"), _sidecar("reward.jsonl")),
            Step("sweep", ("chain.jsonl", *product, "--grid", str(SWEEP_GRID),
                           "--out", "sweep.csv"), _sidecar("sweep.csv")),
            Step("objectives", ("chain.jsonl", *product, "--grid", str(SWEEP_GRID),
                                "--out", "objectives.json"), ("objectives.json",)),
        ))


def tts_ensemble(seed: int) -> Workload:
    return Workload(
        name="tts-ensemble",
        steps=(Step("tts", ("../" + INPUT, "--k", ",".join(map(str, TTS_K)),
                            "--strategy", ",".join(TTS_STRATEGIES),
                            "--resamples", str(TTS_RESAMPLES), "--seed", str(seed),
                            "--out", "tts.csv"), _sidecar("tts.csv")),),
        make_input=ensemble_input)


WORKLOADS = {"report-sharp": report_sharp, "chain-pipeline": chain_pipeline,
             "tts-ensemble": tts_ensemble}
