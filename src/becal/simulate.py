"""Synthetic agents with known ground truth, claim chains, and a tabular critic.

Each simulated question has a true success probability q drawn from a
difficulty prior; the agent answers correctly with probability q and states
confidence report_map(q). The calibrated agent states q itself and realizes
the maximizer of every proper reward; power maps q^gamma give over- or
underconfident families; constant maps ignore q.

Randomness comes from numpy's Philox counter-based generator
("philox4x64-10"), so identical specs give bit-identical datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DataError, DomainError, UsageError, check_count, check_range, check_seed
from .model import ClaimRecord, Dataset, MetaColumn, TextColumn
from .rewards import RiskPrior, expected_reward

RNG_ALGORITHM = "philox4x64-10"


def _rng(entropy) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


# ---------------------------------------------------------------------------
# difficulty priors and report maps

@dataclass(frozen=True)
class UniformDifficulty:
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.random(n)


@dataclass(frozen=True)
class BetaDifficulty:
    a: float
    b: float

    def __post_init__(self) -> None:
        check_range("beta a", self.a, 0.0, math.inf, "()")
        check_range("beta b", self.b, 0.0, math.inf, "()")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.beta(self.a, self.b, n)


@dataclass(frozen=True)
class PointMassDifficulty:
    """Uniform mixture over a fixed list of success probabilities."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise DomainError("point-mass difficulty needs at least one value")
        object.__setattr__(self, "values", tuple(
            float(check_range("difficulty value", q, 0.0, 1.0)) for q in self.values))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        vals = np.array(self.values)
        return vals[rng.integers(0, vals.size, size=n)]


@dataclass(frozen=True)
class IdentityReport:
    """Calibrated: stated confidence equals the true success probability."""

    def apply(self, q: np.ndarray) -> np.ndarray:
        return np.asarray(q, dtype=float)


@dataclass(frozen=True)
class PowerReport:
    """p = q^gamma; gamma < 1 overstates confidence, gamma > 1 understates it."""

    gamma: float

    def __post_init__(self) -> None:
        check_range("gamma", self.gamma, 0.0, math.inf, "()")

    def apply(self, q: np.ndarray) -> np.ndarray:
        return np.power(np.asarray(q, dtype=float), self.gamma)


@dataclass(frozen=True)
class ConstantReport:
    value: float

    def __post_init__(self) -> None:
        check_range("constant confidence", self.value, 0.0, 1.0)

    def apply(self, q: np.ndarray) -> np.ndarray:
        return np.full(np.shape(q), float(self.value))


def parse_difficulty(spec: str):
    """uniform | beta:A,B | points:Q1[,Q2,...]"""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    try:
        if name == "uniform" and not arg:
            return UniformDifficulty()
        if name == "beta":
            a, b = (float(x) for x in arg.split(","))
            return BetaDifficulty(a, b)
        if name == "points":
            return PointMassDifficulty(tuple(float(x) for x in arg.split(",")))
    except (ValueError, DomainError) as exc:
        raise UsageError(f"bad difficulty spec {spec!r}: {exc}") from None
    raise UsageError(f"unknown difficulty {spec!r}; expected uniform, beta:A,B or points:...")


def parse_report_map(spec: str):
    """calibrated | power:G | overconfident:G | underconfident:G | constant:C"""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    gammas = {"power": (0.0, math.inf), "overconfident": (0.0, 1.0),  # open intervals
              "underconfident": (1.0, math.inf)}
    try:
        if name in ("calibrated", "identity") and not arg:
            return IdentityReport()
        if name in gammas:
            return PowerReport(check_range("gamma", float(arg), *gammas[name], "()"))
        if name == "constant":
            return ConstantReport(float(arg))
    except (ValueError, DomainError) as exc:
        raise UsageError(f"bad agent spec {spec!r}: {exc}") from None
    raise UsageError(f"unknown agent {spec!r}; expected calibrated, power:G, "
                     f"overconfident:G, underconfident:G or constant:C")


@dataclass(frozen=True)
class AgentSpec:
    """Everything needed to generate one synthetic dataset deterministically."""

    difficulty_prior: object
    report_map: object
    n_questions: int
    n_claims: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("n_questions", self.n_questions)
        if self.n_claims is not None:
            check_count("n_claims", self.n_claims)
            check_count("n_questions * n_claims", self.n_questions * self.n_claims)
        check_seed(self.seed)


def generate(spec: AgentSpec, label: str = "sim") -> Dataset:
    """Draw a dataset from an agent spec; bit-identical for identical specs.

    Records carry valid ~ Bernoulli(q) and confidence = report_map(q). With
    n_claims = k, each question's difficulty is split evenly over a chain of
    k claims with per-claim success probability q^(1/k); the record is valid
    iff every claim is (the AND is Bernoulli(q) again), and for calibrated
    agents the product of claim confidences recovers the stated record
    confidence up to rounding.
    """
    rng = _rng([int(spec.seed)])
    n = spec.n_questions
    q = spec.difficulty_prior.sample(rng, n)
    columns = {"confidence": spec.report_map.apply(q)}
    k = spec.n_claims
    if not k:  # the claim columns default to empty
        columns["valid"] = rng.random(n) < q
    else:
        qc = np.power(q, 1.0 / k)[:, None]
        claim_valid = rng.random((n, k)) < qc
        # every chain has the texts "step 1" to "step k", so the claim text
        # buffer is one chain's bytes n times: claim j of record i starts at
        # i * starts[k] + starts[j], starts[k] being the chain's length
        steps = [f"step {j + 1}".encode("ascii") for j in range(k)]
        starts = np.cumsum([0, *map(len, steps)], dtype=np.int64)
        text_offsets = np.empty(n * k + 1, dtype=np.int64)
        np.add.outer(np.arange(n) * starts[k], starts[:k], out=text_offsets[:-1].reshape(n, k))
        text_offsets[-1] = n * starts[k]
        columns.update(
            valid=claim_valid.all(axis=1), claim_offsets=np.arange(n + 1) * k,
            claim_confidence=spec.report_map.apply(np.broadcast_to(qc, (n, k))).ravel(),
            claim_label=claim_valid.ravel().view(np.int8),
            claim_text=TextColumn(b"".join(steps) * n, text_offsets))
    columns.update(ids=TextColumn.of(f"q{i}" for i in range(n)),
                   meta=MetaColumn(np.arange(n + 1), ("q",) * n, q))
    return Dataset._from_columns(columns, label)


def generate_claims(q_chain, seed: int,
                    report_map=None) -> tuple[list[ClaimRecord], bool]:
    """Draw one claim chain: claim i valid ~ Bernoulli(q_i), final = AND of all.

    Claim confidences are the q_i themselves (calibrated) unless a report map
    is supplied.
    """
    qs = np.asarray(list(q_chain), dtype=float)
    if qs.size == 0:
        raise DataError("claim chain must be non-empty")
    check_range("smallest chain probability", float(qs.min()), 0.0, 1.0)
    check_range("largest chain probability", float(qs.max()), 0.0, 1.0)
    rng = _rng([check_seed(seed), 1])
    valids = rng.random(qs.size) < qs
    confs = qs if report_map is None else report_map.apply(qs)
    claims = [ClaimRecord(text=f"step {i + 1}", confidence=float(confs[i]),
                          valid=bool(valids[i]))
              for i in range(qs.size)]
    return claims, bool(valids.all())


def generate_ensemble(n_groups: int, n_samples: int, seed: int,
                      base_range: tuple[float, float] = (0.2, 0.8),
                      jitter: float = 0.15, n_wrong_answers: int = 4,
                      label: str = "ensemble") -> Dataset:
    """Calibrated multi-sample ensemble for test-time scaling experiments.

    Per group, a base difficulty is drawn uniformly from base_range; each
    sample perturbs it by +-jitter (clipped to [0.05, 0.95]), succeeds with
    that probability, and states it as confidence. Correct samples share the
    answer "A"; wrong ones pick one of n_wrong_answers distractors, so answer
    strings are consistent with validity within a group.
    """
    check_count("n_groups", n_groups)
    check_count("n_samples", n_samples)
    check_count("n_groups * n_samples", n_groups * n_samples)
    lo, hi = base_range
    check_range("base_range low", lo, 0.0, 1.0)
    check_range("base_range high", hi, lo, 1.0)
    check_range("jitter", jitter, 0.0, math.inf, "[)")
    check_count("n_wrong_answers", n_wrong_answers)
    rng = _rng([check_seed(seed), 2])
    n = n_groups * n_samples
    conf, valid, answer = np.empty(n), np.empty(n, dtype=bool), np.empty(n, dtype=np.int64)
    answers: dict[str, int] = {}  # answer codes in order of first appearance
    for g in range(n_groups):
        base = lo + (hi - lo) * rng.random()
        for i in range(g * n_samples, (g + 1) * n_samples):
            qs = float(np.clip(base + jitter * (2.0 * rng.random() - 1.0), 0.05, 0.95))
            conf[i], valid[i] = qs, rng.random() < qs
            name = "A" if valid[i] else f"W{int(rng.integers(0, n_wrong_answers))}"
            answer[i] = answers.setdefault(name, len(answers))
    return Dataset._from_columns({
        "ids": TextColumn.of(f"g{g}s{s}" for g in range(n_groups) for s in range(n_samples)),
        "valid": valid, "confidence": conf,
        "group": np.repeat(np.arange(n_groups), n_samples),
        "group_names": tuple(f"g{g}" for g in range(n_groups)),
        "answer": answer, "answer_names": tuple(answers),
    }, label)


# ---------------------------------------------------------------------------
# tabular critic surrogate

@dataclass(frozen=True)
class CriticSurrogate:
    """Per-context value estimates trained on binary outcomes.

    contexts holds the true success probability of each context; visits and
    successes are the sufficient statistics of everything observed so far, so
    the empirical-Brier optimality of the values can be checked after
    training.
    """

    contexts: np.ndarray
    values: np.ndarray
    learning_rate: float = 0.5
    steps: int = 0
    visits: np.ndarray | None = None
    successes: np.ndarray | None = None

    def __post_init__(self) -> None:
        ctx = np.asarray(self.contexts, dtype=float)
        if ctx.ndim != 1 or ctx.size == 0:
            raise DomainError("contexts must be a non-empty 1-d array")
        check_range("smallest context probability", float(ctx.min()), 0.0, 1.0)
        check_range("largest context probability", float(ctx.max()), 0.0, 1.0)
        check_range("learning_rate", self.learning_rate, 0.0, 0.5, "(]")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != ctx.shape:
            raise DomainError("values must match contexts in shape")
        object.__setattr__(self, "contexts", ctx)
        object.__setattr__(self, "values", vals)
        if self.visits is None:
            object.__setattr__(self, "visits", np.zeros(ctx.size, dtype=np.int64))
        if self.successes is None:
            object.__setattr__(self, "successes", np.zeros(ctx.size, dtype=np.int64))

    @classmethod
    def fresh(cls, contexts, v0: float = 0.5, learning_rate: float = 0.5) -> "CriticSurrogate":
        ctx = np.asarray(contexts, dtype=float)
        return cls(contexts=ctx, values=np.full(ctx.shape, float(v0)),
                   learning_rate=learning_rate)


def train_critic(surrogate: CriticSurrogate, n_steps: int, seed: int) -> CriticSurrogate:
    """Run n_steps of annealed stochastic squared-error descent.

    Each step draws a context uniformly and an outcome ~ Bernoulli(q_c), then
    applies v <- v - eta 2 (v - outcome) with eta = lr / (1 + visits_c) and
    projects to [0, 1]. At the maximal rate lr = 0.5 the update is exactly the
    running mean of that context's outcomes.
    """
    check_count("n_steps", n_steps, least=0)
    seed = check_seed(seed)
    if n_steps == 0:
        return surrogate
    rng = _rng([seed, 3])
    n_ctx = surrogate.contexts.size
    ctx_draws = rng.integers(0, n_ctx, size=n_steps).tolist()
    coin = rng.random(n_steps).tolist()
    qs = surrogate.contexts.tolist()
    v = surrogate.values.tolist()
    visits = surrogate.visits.tolist()
    succ = surrogate.successes.tolist()
    lr = surrogate.learning_rate
    for s in range(n_steps):
        c = ctx_draws[s]
        y = 1.0 if coin[s] < qs[c] else 0.0
        eta = lr / (1.0 + visits[c])
        vc = v[c] - eta * 2.0 * (v[c] - y)
        v[c] = 0.0 if vc < 0.0 else (1.0 if vc > 1.0 else vc)
        visits[c] += 1
        succ[c] += int(y)
    return replace(surrogate,
                   values=np.array(v),
                   visits=np.array(visits, dtype=np.int64),
                   successes=np.array(succ, dtype=np.int64),
                   steps=surrogate.steps + n_steps)


class RewardCurve(NamedTuple):
    p: np.ndarray
    expected: np.ndarray


def expected_reward_curve(prior: RiskPrior, q: float,
                          points: int = 1001) -> RewardCurve:
    """E_q of the integrated reward on a p grid, for plots and propriety checks."""
    check_range("q", q, 0.0, 1.0)
    p = np.linspace(0.0, 1.0, points)
    return RewardCurve(p=p, expected=expected_reward(prior, q, p))
