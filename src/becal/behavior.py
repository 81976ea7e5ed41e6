"""Risk-sweep behavioral curves and the four behavioral objectives.

Sweeping the risk threshold t over a grid with the decide() rule partitions a
dataset at each t into answered-correct, answered-wrong, and abstained:

    Acc(t) + Hal(t) + Abs(t) = 1

TP(t) is accuracy conditioned on answering, FN(t) the valid fraction among
abstentions; both carry NaN where their condition is empty. SNR is Acc over
Hal with a floor on Hal; SNR-Gain is the log ratio of the interval-averaged
SNR over [0, 1] to the point SNR at t = 0.

A RiskSweep is the integer decision counts per threshold, and every curve is
a ratio of them. The SNR arithmetic runs on the counts too: on a uniform grid
the trapezoid weights are integers and the step cancels, so with the default
floor epsilon_h = 1/(2n) (half a count) datasets whose decisions do not
depend on t give snr_gain of exactly 0.0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError, check_count, check_range
from .model import Dataset

_GRID_ATOL = 1e-9


@dataclass(frozen=True)
class RiskSweep:
    """Decision counts per threshold on an ascending grid.

    At grid[i], ans_valid[i] and ans_invalid[i] records answer (p >= t) and
    are valid or invalid, and abs_valid[i] records abstain and are valid; n
    is the record count. The curves acc, hal, abs, tp and fn are ratios of
    these counts.
    """

    grid: np.ndarray
    n: int
    ans_valid: np.ndarray
    ans_invalid: np.ndarray
    abs_valid: np.ndarray

    HEADER = ("t", "acc", "hal", "abs", "tp", "fn")  # the columns of to_rows

    @property
    def acc(self) -> np.ndarray:
        return self.ans_valid / self.n

    @property
    def hal(self) -> np.ndarray:
        return self.ans_invalid / self.n

    @property
    def abs(self) -> np.ndarray:
        return (self.n - (self.ans_valid + self.ans_invalid)) / self.n

    @property
    def tp(self) -> np.ndarray:
        ans = self.ans_valid + self.ans_invalid
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(ans > 0, self.ans_valid / ans, np.nan)

    @property
    def fn(self) -> np.ndarray:
        abstained = self.n - (self.ans_valid + self.ans_invalid)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(abstained > 0, self.abs_valid / abstained, np.nan)

    def to_rows(self) -> list[tuple[float, float, float, float, float, float]]:
        columns = (self.grid, self.acc, self.hal, self.abs, self.tp, self.fn)
        return list(zip(*(c.tolist() for c in columns)))


def default_grid(points: int = 101) -> np.ndarray:
    """points evenly spaced thresholds on [0, 1]; 2 <= points < 2^53."""
    return np.linspace(0.0, 1.0, check_count("grid points", points, least=2))


def sweep(dataset: Dataset, grid: np.ndarray | None = None) -> RiskSweep:
    """Count the decisions on a threshold grid.

    A record answers at t iff its confidence p satisfies p >= t (the decide()
    rule). Counting is done on sorted confidences, one searchsorted per
    threshold.
    """
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise DomainError("threshold grid must be a strictly increasing 1-d array")
    p = dataset.confidences()
    v = dataset.valids()
    n = p.size
    order = np.argsort(p, kind="mergesort")
    p_sorted = p[order]
    v_sorted = v[order].astype(np.int64)
    # suffix_valid[i] = number of valid records among p_sorted[i:]
    suffix_valid = np.zeros(n + 1, dtype=np.int64)
    suffix_valid[:-1] = np.cumsum(v_sorted[::-1])[::-1]
    total_valid = int(suffix_valid[0])

    first_ans = np.searchsorted(p_sorted, grid, side="left")
    ans_valid = suffix_valid[first_ans]
    return RiskSweep(grid=grid, n=n, ans_valid=ans_valid,
                     ans_invalid=(n - first_ans) - ans_valid,
                     abs_valid=total_valid - ans_valid)


def _grid_index(sweep_: RiskSweep, t: float) -> int:
    hits = np.flatnonzero(np.abs(sweep_.grid - t) <= _GRID_ATOL)
    if hits.size == 0:
        raise DomainError(f"t = {t!r} is not on the sweep grid")
    return int(hits[0])


def _check_epsilon_h(epsilon_h: float | None) -> float | None:
    """epsilon_h as a float, or None (half a count). DomainError unless it is
    normal and finite, so that 1 / epsilon_h is too."""
    if epsilon_h is None:
        return None
    return check_range("epsilon_h", float(epsilon_h), sys.float_info.min, math.inf, "[)")


def _hal_floor(n: int, epsilon_h: float | None, m: int | None = None) -> float:
    """Hal floor in counts: n epsilon_h (None: half a count) at one threshold,
    or its trapezoid sum over m grid steps. DomainError unless epsilon_h
    passes _check_epsilon_h and the floor is finite."""
    eps = _check_epsilon_h(epsilon_h)
    if eps is None:
        return 0.5 if m is None else float(m)
    floor = float(n) * eps if m is None else 2.0 * n * eps * m
    if not math.isfinite(floor):
        raise DomainError(f"epsilon_h is too large: the hallucination floor "
                          f"overflows: {epsilon_h!r}")
    return floor


def snr_point(sweep_: RiskSweep, t: float, epsilon_h: float | None = None) -> float:
    """Acc(t) / max(Hal(t), epsilon_h), for t on the grid; epsilon_h defaults
    to half a count, 1/(2n)."""
    i = _grid_index(sweep_, t)
    return int(sweep_.ans_valid[i]) / max(int(sweep_.ans_invalid[i]),
                                          _hal_floor(sweep_.n, epsilon_h))


def snr_interval(sweep_: RiskSweep, lo: float, hi: float,
                 epsilon_h: float | None = None) -> float:
    """Trapezoid-averaged SNR over [lo, hi]: INT acc / max(INT hal, epsilon_h (hi-lo)).

    Needs a uniform grid with lo and hi on it (DomainError otherwise): the
    trapezoid weights are then integer count sums and the shared step cancels
    from the ratio, so the computation is exact in count space.
    """
    lo = check_range("lo", float(lo), 0.0, 1.0, "[)")
    hi = check_range("hi", float(hi), lo, 1.0, "(]")
    grid = sweep_.grid
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    if not np.allclose(np.diff(grid), step, rtol=1e-9, atol=1e-12):
        raise DomainError("SNR over an interval needs a uniform threshold grid")
    i0, i1 = _grid_index(sweep_, lo), _grid_index(sweep_, hi)
    # composite-trapezoid weights (1, 2, ..., 2, 1) on integer counts
    s_acc, s_hal = (int(2 * c[i0:i1 + 1].sum() - c[i0] - c[i1])
                    for c in (sweep_.ans_valid, sweep_.ans_invalid))
    return s_acc / max(s_hal, _hal_floor(sweep_.n, epsilon_h, i1 - i0))


def _log(log_base: str):
    """The log function of a base name: e (or ln) or 10, else DomainError."""
    if str(log_base) not in ("e", "ln", "10"):
        raise DomainError(f"unknown log base {log_base!r}; expected e or 10")
    return np.log10 if str(log_base) == "10" else np.log


def snr_gain(sweep_: RiskSweep, epsilon_h: float | None = None,
             log_base: str = "e") -> float:
    """log of SNR([0, 1]) over SNR(0), natural log by default ("10" for log10).

    Exactly 0.0 when the two SNRs coincide, which count-space arithmetic
    guarantees for datasets whose decisions are threshold independent.
    Undefined (DataError) when SNR(0) is 0, that is when no record is valid.
    """
    log = _log(log_base)
    num = snr_interval(sweep_, 0.0, 1.0, epsilon_h)
    den = snr_point(sweep_, 0.0, epsilon_h)
    if den == 0.0:
        raise DataError("SNR gain undefined: Acc(0) is 0 (no valid record), "
                        "so SNR(0) is 0")
    return float(log(num / den))


@dataclass(frozen=True)
class ObjectiveReport:
    """Pass/fail of the four behavioral objectives plus numeric diagnostics.

    A diagnostic the sweep leaves undefined (snr_gain with no valid record,
    worst_fn_excess when nobody abstains, worst_tp_margin when nobody
    answers) is NaN, and `undefined` maps its name to the reason.
    """

    adaptive_risk: bool
    accuracy_preservation: bool
    hallucination_reduction: bool
    quantitative_calibration: bool
    diagnostics: dict[str, float]
    undefined: dict[str, str] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return (self.adaptive_risk and self.accuracy_preservation
                and self.hallucination_reduction and self.quantitative_calibration)

    def to_dict(self) -> dict:
        return {
            "adaptive_risk": self.adaptive_risk,
            "accuracy_preservation": self.accuracy_preservation,
            "hallucination_reduction": self.hallucination_reduction,
            "quantitative_calibration": self.quantitative_calibration,
            "all_passed": self.all_passed,
            "diagnostics": {k: (None if isinstance(v, float) and math.isnan(v) else v)
                            for k, v in self.diagnostics.items()},
        }


def check_objective_options(tolerance: float, baseline_acc: float | None,
                            epsilon_h: float | None, log_base: str) -> None:
    """DomainError unless check_objectives' options lie in their domains:
    tolerance finite and >= 0, baseline_acc in [0, 1] (None: not given yet),
    epsilon_h as _check_epsilon_h says and log_base e or 10. They need no
    sweep, so the CLI checks them before reading any record."""
    check_range("tolerance", tolerance, 0.0, math.inf, "[)")
    if baseline_acc is not None:
        check_range("baseline_acc", baseline_acc, 0.0, 1.0)
    _check_epsilon_h(epsilon_h)
    _log(log_base)


def check_objectives(sweep_: RiskSweep, baseline_acc: float,
                     tolerance: float = 0.05,
                     epsilon_h: float | None = None,
                     log_base: str = "e") -> ObjectiveReport:
    """Evaluate the four objectives on a sweep.

    AdaptiveRisk: Abs(t) is monotone and densely covers [Abs(0), 1]; an
    increment larger than the tolerance marks unreachable abstention range
    (a constant-confidence policy whose abstention jumps 0 to 1 in one step
    fails even though its endpoint span is full). Coverage counts increments
    at most the tolerance, plus the virtual gap from Abs(1) up to 1, and must
    reach (1 - tolerance) of the range.

    AccuracyPreservation: Acc(0) >= baseline_acc - tolerance.

    HallucinationReduction: Hal(1) <= tolerance and snr_gain > 0; false when
    snr_gain is undefined.

    QuantitativeCalibration: TP(t) >= t - tolerance and FN(t) <= t + tolerance
    wherever those conditionals are defined.

    DomainError unless every option passes check_objective_options.
    """
    check_objective_options(tolerance, baseline_acc, epsilon_h, log_base)
    grid, abs_curve = sweep_.grid, sweep_.abs
    diffs = np.diff(abs_curve)
    monotone = bool(np.all(diffs >= -1e-12))
    gaps = np.r_[diffs, 1.0 - abs_curve[-1]]
    span = 1.0 - float(abs_curve[0])
    reachable = float(gaps[gaps <= tolerance + 1e-12].sum())
    adaptive = monotone and (span <= 0.0 or reachable >= (1.0 - tolerance) * span)

    acc0 = float(sweep_.acc[0])
    preserves = acc0 >= float(baseline_acc) - tolerance

    hal1 = float(sweep_.hal[-1])
    undefined: dict[str, str] = {}
    try:
        gain = snr_gain(sweep_, epsilon_h, log_base)
    except DataError as exc:
        gain = math.nan
        undefined["snr_gain"] = str(exc)
    reduces = hal1 <= tolerance and gain > 0.0

    tp, fn = sweep_.tp, sweep_.fn
    tp_def, fn_def = ~np.isnan(tp), ~np.isnan(fn)
    tp_ok = bool(np.all(tp[tp_def] >= grid[tp_def] - tolerance))
    fn_ok = bool(np.all(fn[fn_def] <= grid[fn_def] + tolerance))

    worst_tp = float(np.min(tp[tp_def] - grid[tp_def])) if tp_def.any() else math.nan
    worst_fn = float(np.max(fn[fn_def] - grid[fn_def])) if fn_def.any() else math.nan
    if not tp_def.any():
        undefined["worst_tp_margin"] = "nobody answers at any threshold"
    if not fn_def.any():
        undefined["worst_fn_excess"] = "nobody abstains at any threshold"
    return ObjectiveReport(
        adaptive_risk=adaptive,
        accuracy_preservation=preserves,
        hallucination_reduction=reduces,
        quantitative_calibration=tp_ok and fn_ok,
        diagnostics={
            "abs_reachable_fraction": reachable / span if span > 0 else 1.0,
            "abs_max_gap": float(gaps.max()),
            "acc_at_0": acc0,
            "baseline_acc": float(baseline_acc),
            "hal_at_1": hal1,
            "snr_gain": gain,
            "worst_tp_margin": worst_tp,
            "worst_fn_excess": worst_fn,
            "tolerance": float(tolerance),
        },
        undefined=undefined,
    )
