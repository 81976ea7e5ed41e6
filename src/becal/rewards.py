"""Risk-threshold reward functions and their prior-integrated forms.

A policy answers (ANS) or abstains (ABS) given stated confidence p and a risk
threshold t. The explicit reward pays +1 for a correct answer, 0 for
abstention, and -t/(1-t) for a wrong answer; the bounded variant rescales to
+1 / 2t-1 / -1. Integrating the bounded reward over a prior u(t) on the
threshold gives a proper scoring rule in p,

    R_u(valid, p) = 2 valid u(p) + 2 INT_p^1 t du(t) - 1,

whose closed forms are the Brier reward (uniform prior) and the cross-entropy
reward (truncated Beta(0,0) prior).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DataError, DomainError, UsageError, check_count, check_range

_MIN_EPSILON = 2.0 ** -53  # the least clip epsilon with 1 - epsilon < 1: no log meets 0


class Action(enum.Enum):
    ANS = "ANS"
    ABS = "ABS"


def decide(p: float, t: float) -> Action:
    """Threshold rule: abstain if and only if p < t; ties answer.

    The one tie rule. reward calls it per record; sweep and
    abstention_accuracy count the same decisions over arrays (p >= t), and
    the tests check those counts against this function at ties.
    """
    return Action.ABS if p < t else Action.ANS


def reward_explicit(action: Action, valid: bool, t: float) -> float:
    """Explicit risk-thresholded reward: +1, 0, or -t/(1-t).

    The penalty diverges at t = 1, so that case is rejected when it would
    actually be paid (wrong answer); correct answers and abstentions at t = 1
    are fine.
    """
    check_range("t", t, 0.0, 1.0)
    if action is Action.ABS:
        return 0.0
    if valid:
        return 1.0
    if t >= 1.0:
        raise DomainError("explicit penalty is unbounded at t = 1")
    return -t / (1.0 - t)


def reward_bounded(action: Action, valid: bool, t: float) -> float:
    """Bounded variant: +1 for correct, 2t-1 for abstention, -1 for wrong."""
    check_range("t", t, 0.0, 1.0)
    if action is Action.ABS:
        return 2.0 * t - 1.0
    return 1.0 if valid else -1.0


class RiskPrior:
    """Distribution over risk thresholds t in (0, 1), exposed through its CDF.

    Subclasses provide cdf(p) = u(p) and tail(p) = INT_p^1 t du(t), both
    vectorized over p.
    """

    def cdf(self, p):
        raise NotImplementedError

    def tail(self, p):
        raise NotImplementedError


@dataclass(frozen=True)
class UniformPrior(RiskPrior):
    """u(t) = t on [0, 1]; the integrated reward reduces to the Brier reward."""

    def cdf(self, p):
        return np.clip(p, 0.0, 1.0)

    def tail(self, p):
        pc = np.clip(p, 0.0, 1.0)
        return 0.5 * (1.0 - pc * pc)


def _clip(p, eps: float):
    """p and 1 - p, each clipped to [eps, 1 - eps] on its own: at p = 1, 1 - p is eps exactly."""
    p = np.asarray(p, dtype=float)
    return np.clip(p, eps, 1.0 - eps), np.clip(1.0 - p, eps, 1.0 - eps)


@dataclass(frozen=True)
class TruncatedBetaPrior(RiskPrior):
    """Beta(0,0) truncated to (eps, 1-eps): du proportional to 1/(t(1-t)).

    The normalizer is 2 log((1-eps)/eps); the integrated reward reduces to the
    cross-entropy reward with the same eps.
    """

    epsilon: float = 0.01

    def __post_init__(self) -> None:
        check_range("epsilon", self.epsilon, _MIN_EPSILON, 0.5, "[)")

    @property
    def _log_norm(self) -> float:
        return math.log((1.0 - self.epsilon) / self.epsilon)

    def cdf(self, p):
        pc, qc = _clip(p, self.epsilon)
        u = (np.log(pc / qc) + self._log_norm) / (2.0 * self._log_norm)
        # log(eps/(1-eps)) need not be -log((1-eps)/eps) in floating point
        # (u is 0.25 at p = 0 for eps 0.49999999999999994), so the ends are set
        return np.where(pc <= self.epsilon, 0.0, np.where(qc <= self.epsilon, 1.0, u))

    def tail(self, p):
        _, qc = _clip(p, self.epsilon)
        return np.log(qc / self.epsilon) / (2.0 * self._log_norm)


@dataclass(frozen=True)
class TabulatedPrior(RiskPrior):
    """Piecewise-linear CDF through strictly increasing knots in [0, 1].

    tail() integrates t du exactly per segment (mass times midpoint), so the
    quadrature is exact for the piecewise-linear u rather than an approximation
    of it.
    """

    knots: np.ndarray
    cdf_values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.knots, dtype=float)
        u = np.asarray(self.cdf_values, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != u.shape:
            raise DomainError("tabulated prior needs matching 1-d arrays of >= 2 knots")
        check_range("smallest knot", float(t.min()), 0.0, 1.0)
        check_range("largest knot", float(t.max()), 0.0, 1.0)
        # with the non-decreasing check, the CDF runs from 0 to 1 within 1e-9
        check_range("smallest CDF value", float(u.min()), -1e-9, 1e-9)
        check_range("largest CDF value", float(u.max()), 1.0 - 1e-9, 1.0 + 1e-9)
        if not np.all(np.diff(t) > 0):
            raise DomainError("tabulated prior grid must be strictly increasing in t")
        if np.any(np.diff(u) < 0):
            raise DomainError("tabulated CDF must be non-decreasing")
        u = u.copy()
        u[0], u[-1] = 0.0, 1.0
        object.__setattr__(self, "knots", t)
        object.__setattr__(self, "cdf_values", u)
        # suffix[i] = INT over segments i..K-1 of t du, exact for linear u
        seg = np.diff(u) * 0.5 * (t[:-1] + t[1:])
        suffix = np.zeros(t.size)
        suffix[:-1] = np.cumsum(seg[::-1])[::-1]
        object.__setattr__(self, "_suffix", suffix)

    def cdf(self, p):
        return np.interp(p, self.knots, self.cdf_values)

    def tail(self, p):
        t, u = self.knots, self.cdf_values
        p = np.asarray(p, dtype=float)
        scalar = p.ndim == 0
        pc = np.atleast_1d(p)
        j = np.clip(np.searchsorted(t, pc, side="right") - 1, 0, t.size - 2)
        u_at = np.interp(pc, t, u)
        partial = (u[j + 1] - u_at) * 0.5 * (pc + t[j + 1])
        out = partial + self._suffix[j + 1]
        out = np.where(pc <= t[0], self._suffix[0], out)
        out = np.where(pc >= t[-1], 0.0, out)
        return float(out[0]) if scalar else out


def reward_integrated(valid, p, prior: RiskPrior):
    """Prior-integrated reward R_u = 2 valid u(p) + 2 INT_p^1 t du - 1.

    Accepts scalars or arrays for valid and p; the result lies in [-1, 1].
    """
    v = np.asarray(valid, dtype=float)
    r = 2.0 * v * prior.cdf(p) + 2.0 * prior.tail(p) - 1.0
    return float(r) if np.ndim(r) == 0 else r


def reward_brier(valid, p):
    """Brier reward 2 p valid - p^2, the uniform-prior closed form."""
    p = np.asarray(p, dtype=float)
    r = 2.0 * p * np.asarray(valid, dtype=float) - p * p
    return float(r) if r.ndim == 0 else r


def reward_ce(valid, p, epsilon: float = 0.01):
    """Cross-entropy reward, normalized to [-1, 1], with p and 1 - p clipped to [eps, 1-eps]."""
    check_range("epsilon", epsilon, _MIN_EPSILON, 0.5, "[)")
    pc, qc = _clip(p, epsilon)
    norm = math.log((1.0 - epsilon) / epsilon)
    # adding 0.0 gives a wrong answer at p = 0 the reward 0.0, not -0.0
    r = np.where(valid, np.log(pc / epsilon) / norm,
                 -np.log((1.0 - epsilon) / qc) / norm) + 0.0
    return float(r) if r.ndim == 0 else r


def expected_reward(prior: RiskPrior, q: float, p):
    """E over valid ~ Bernoulli(q) of the integrated reward at stated p."""
    q = float(q)
    return q * reward_integrated(True, p, prior) + (1.0 - q) * reward_integrated(False, p, prior)


def verify_propriety(prior: RiskPrior, q: float, grid_step: float = 0.001) -> float:
    """Grid argmax p* of the expected integrated reward for true probability q.

    For a strictly proper prior p* equals q up to the grid step. Priors with
    zero-density regions (truncated Beta outside [eps, 1-eps]) make the
    expected reward exactly flat there; among grid points tying the maximum
    within 1e-12 the one closest to q is returned, so the result tests whether
    q belongs to the argmax set instead of reporting an arbitrary tie choice.
    """
    check_range("grid_step", grid_step, 0.0, 0.1, "(]")
    check_range("q", q, 0.0, 1.0)
    # 1 / grid_step overflows to inf below about 5.6e-309
    check_count("grid points 1 / grid_step + 1", 1.0 / grid_step + 1.0)
    n = int(round(1.0 / grid_step))
    grid = np.linspace(0.0, 1.0, n + 1)
    values = expected_reward(prior, q, grid)
    ties = grid[values >= values.max() - 1e-12]
    return float(ties[np.argmin(np.abs(ties - q))])


def optimal_threshold_policy(p: float, t: float) -> Action:
    """Expected-reward-maximizing action under the explicit reward for belief p.

    Answering pays p - (1-p) t/(1-t) in expectation and abstaining pays 0.
    The comparison p (1-t) >= (1-p) t is done exactly, in fractions, so a p
    one ulp from t cannot round onto the wrong side, and the p = t tie
    resolves to ANS, matching decide().
    """
    t = check_range("t", float(t), 0.0, 1.0, "[)")
    p = check_range("p", float(p), 0.0, 1.0)
    p, t = Fraction(p), Fraction(t)
    return Action.ANS if p * (1 - t) >= (1 - p) * t else Action.ABS


def load_table(path: str) -> TabulatedPrior:
    """Read a two-column CSV of (t, cdf) knots; # comments and a header allowed."""
    knots: list[tuple[float, float]] = []
    header = False
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                cells = [c.strip() for c in row if c.strip()]
                if len(cells) != 2:
                    raise DataError(f"{path}: expected two columns (t, cdf), got {row!r}")
                try:
                    knots.append((float(cells[0]), float(cells[1])))
                except ValueError:
                    if knots or header:  # one header line, before the data
                        raise DataError(f"{path}: non-numeric row {row!r}") from None
                    header = True
    except OSError as exc:
        raise DataError(f"cannot read prior table {path!r}: {exc}") from None
    if len(knots) < 2:
        raise DataError(f"{path}: need at least two (t, cdf) rows")
    try:
        return TabulatedPrior(*np.array(knots).T)
    except DomainError as exc:
        raise DataError(f"{path}: {exc}") from None


def parse_prior(spec: str) -> RiskPrior:
    """Parse a prior spec string: uniform, beta00[:EPS], or table:PATH."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "uniform":
        if arg:
            raise UsageError("uniform prior takes no argument")
        return UniformPrior()
    if name == "beta00":
        if not arg:
            return TruncatedBetaPrior()
        try:
            eps = float(arg)
        except ValueError:
            raise UsageError(f"bad beta00 epsilon {arg!r}") from None
        return TruncatedBetaPrior(eps)
    if name == "table":
        if not arg:
            raise UsageError("table prior needs a path: table:PATH")
        return load_table(arg)
    raise UsageError(f"unknown prior {spec!r}; expected uniform, beta00:EPS or table:PATH")
