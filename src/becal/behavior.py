"""Risk-sweep behavioral curves and the four behavioral objectives.

Sweeping the risk threshold t over a grid with the decide() rule partitions a
dataset at each t into answered-correct, answered-wrong, and abstained:

    Acc(t) + Hal(t) + Abs(t) = 1

TP(t) is accuracy conditioned on answering, FN(t) the valid fraction among
abstentions; both carry NaN where their condition is empty. SNR is Acc over
Hal with a floor on Hal; SNR-Gain is the log ratio of the interval-averaged
SNR over [0, 1] to the point SNR at t = 0.

sweep() keeps the integer decision counts behind the curves. With the default
floor epsilon_h = 1/(2n) (half a count) the SNR arithmetic runs in count
space, so datasets whose decisions do not depend on t give snr_gain of
exactly 0.0 rather than 0.0 plus float-trapezoid noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError
from .model import Dataset

_GRID_ATOL = 1e-9


@dataclass(frozen=True)
class RiskSweep:
    """Per-threshold behavioral curves on an ascending grid.

    Sweeps built by sweep() also carry the raw per-threshold counts
    (answered-valid, answered-invalid, abstained-valid) and the record count;
    curve-only sweeps built via from_curves() leave them None and require an
    explicit epsilon_h in the SNR operations.
    """

    grid: np.ndarray
    acc: np.ndarray
    hal: np.ndarray
    abs: np.ndarray
    tp: np.ndarray
    fn: np.ndarray
    n: int | None = None
    ans_valid: np.ndarray | None = None
    ans_invalid: np.ndarray | None = None
    abs_valid: np.ndarray | None = None

    @classmethod
    def from_curves(cls, grid, acc, hal, abs_curve) -> "RiskSweep":
        """Build a sweep from bare curves (tests, external data); counts unknown."""
        grid = np.asarray(grid, dtype=float)
        acc = np.asarray(acc, dtype=float)
        hal = np.asarray(hal, dtype=float)
        abs_curve = np.asarray(abs_curve, dtype=float)
        answered = acc + hal
        with np.errstate(invalid="ignore", divide="ignore"):
            tp = np.where(answered > 0, acc / answered, np.nan)
        fn = np.full_like(acc, np.nan)
        return cls(grid=grid, acc=acc, hal=hal, abs=abs_curve, tp=tp, fn=fn)

    def to_rows(self) -> list[tuple[float, float, float, float, float, float]]:
        return [
            (float(self.grid[i]), float(self.acc[i]), float(self.hal[i]),
             float(self.abs[i]), float(self.tp[i]), float(self.fn[i]))
            for i in range(self.grid.size)
        ]


def default_grid(points: int = 101) -> np.ndarray:
    if points < 2:
        raise DomainError(f"grid needs at least 2 points: {points!r}")
    return np.linspace(0.0, 1.0, points)


def sweep(dataset: Dataset, grid: np.ndarray | None = None) -> RiskSweep:
    """Evaluate Acc/Hal/Abs/TP/FN on a threshold grid.

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
    ans = n - first_ans                      # records with p >= t
    ans_valid = suffix_valid[first_ans]
    ans_invalid = ans - ans_valid
    abs_valid = total_valid - ans_valid
    abstained = n - ans

    acc = ans_valid / n
    hal = ans_invalid / n
    abs_curve = abstained / n
    with np.errstate(invalid="ignore", divide="ignore"):
        tp = np.where(ans > 0, ans_valid / ans, np.nan)
        fn = np.where(abstained > 0, abs_valid / abstained, np.nan)
    return RiskSweep(grid=grid, acc=acc, hal=hal, abs=abs_curve, tp=tp, fn=fn,
                     n=n, ans_valid=ans_valid, ans_invalid=ans_invalid,
                     abs_valid=abs_valid)


def _grid_index(sweep_: RiskSweep, t: float) -> int:
    hits = np.flatnonzero(np.abs(sweep_.grid - t) <= _GRID_ATOL)
    if hits.size == 0:
        raise DomainError(f"t = {t!r} is not on the sweep grid")
    return int(hits[0])


def _uniform_step(grid: np.ndarray) -> float | None:
    d = np.diff(grid)
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    return step if np.allclose(d, step, rtol=1e-9, atol=1e-12) else None


def snr_point(sweep_: RiskSweep, t: float, epsilon_h: float | None = None) -> float:
    """Acc(t) / max(Hal(t), epsilon_h); default epsilon_h is half a count, 1/(2n)."""
    i = _grid_index(sweep_, t)
    if sweep_.ans_valid is not None:
        av, ai = int(sweep_.ans_valid[i]), int(sweep_.ans_invalid[i])
        floor = 0.5 if epsilon_h is None else float(sweep_.n) * float(epsilon_h)
        return av / max(ai, floor)
    if epsilon_h is None:
        raise DomainError("curve-only sweep: epsilon_h must be given explicitly")
    return float(sweep_.acc[i]) / max(float(sweep_.hal[i]), float(epsilon_h))


def snr_interval(sweep_: RiskSweep, lo: float, hi: float,
                 epsilon_h: float | None = None) -> float:
    """Trapezoid-averaged SNR over [lo, hi]: INT acc / max(INT hal, epsilon_h (hi-lo)).

    On a uniform grid with both endpoints on it, the trapezoid weights reduce
    to integer count sums and the shared step cancels from the ratio, so the
    computation is exact in count space.
    """
    lo, hi = float(lo), float(hi)
    if not (0.0 <= lo < hi <= 1.0):
        raise DomainError(f"need 0 <= lo < hi <= 1, got [{lo!r}, {hi!r}]")
    grid = sweep_.grid
    step = _uniform_step(grid)
    on_grid = (np.min(np.abs(grid - lo)) <= _GRID_ATOL
               and np.min(np.abs(grid - hi)) <= _GRID_ATOL)
    if sweep_.ans_valid is not None and step is not None and on_grid:
        i0, i1 = _grid_index(sweep_, lo), _grid_index(sweep_, hi)
        m = i1 - i0
        # composite-trapezoid weights (1, 2, ..., 2, 1) on integer counts
        s_acc = int(sweep_.ans_valid[i0] + sweep_.ans_valid[i1]
                    + 2 * sweep_.ans_valid[i0 + 1:i1].sum())
        s_hal = int(sweep_.ans_invalid[i0] + sweep_.ans_invalid[i1]
                    + 2 * sweep_.ans_invalid[i0 + 1:i1].sum())
        floor = float(m) if epsilon_h is None else 2.0 * sweep_.n * float(epsilon_h) * m
        return s_acc / max(s_hal, floor)
    if epsilon_h is None:
        raise DomainError("epsilon_h must be given explicitly when the sweep has no "
                          "counts or [lo, hi] is off the uniform grid")
    xs = np.concatenate(([lo], grid[(grid > lo) & (grid < hi)], [hi]))
    i_acc = np.trapezoid(np.interp(xs, grid, sweep_.acc), xs)
    i_hal = np.trapezoid(np.interp(xs, grid, sweep_.hal), xs)
    return float(i_acc / max(i_hal, float(epsilon_h) * (hi - lo)))


def snr_gain(sweep_: RiskSweep, epsilon_h: float | None = None,
             log_base: str = "e") -> float:
    """log of SNR([0, 1]) over SNR(0), natural log by default ("10" for log10).

    Exactly 0.0 when the two SNRs coincide, which count-space arithmetic
    guarantees for datasets whose decisions are threshold independent.
    Undefined (DataError) when SNR(0) is 0, that is when no record is valid.
    """
    grid = sweep_.grid
    if abs(grid[0]) > _GRID_ATOL or abs(grid[-1] - 1.0) > _GRID_ATOL:
        raise DomainError("snr_gain needs a sweep over the full [0, 1] grid")
    if str(log_base) not in ("e", "ln", "10"):
        raise DomainError(f"unknown log base {log_base!r}; expected e or 10")
    num = snr_interval(sweep_, 0.0, 1.0, epsilon_h)
    den = snr_point(sweep_, 0.0, epsilon_h)
    if den == 0.0:
        raise DataError("SNR gain undefined: Acc(0) is 0 (no valid record), "
                        "so SNR(0) is 0")
    log = np.log10 if str(log_base) == "10" else np.log
    return float(log(num / den))


@dataclass(frozen=True)
class ObjectiveReport:
    """Pass/fail of the four behavioral objectives plus numeric diagnostics.

    A diagnostic the sweep leaves undefined (snr_gain with no valid record)
    is NaN, and `undefined` maps its name to the reason.
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
    """
    if tolerance < 0:
        raise DomainError(f"tolerance must be non-negative: {tolerance!r}")
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

    tp_def = ~np.isnan(sweep_.tp)
    fn_def = ~np.isnan(sweep_.fn)
    tp_ok = bool(np.all(sweep_.tp[tp_def] >= grid[tp_def] - tolerance))
    fn_ok = bool(np.all(sweep_.fn[fn_def] <= grid[fn_def] + tolerance))

    worst_tp = float(np.min(sweep_.tp[tp_def] - grid[tp_def])) if tp_def.any() else math.nan
    worst_fn = float(np.max(sweep_.fn[fn_def] - grid[fn_def])) if fn_def.any() else math.nan
    return ObjectiveReport(
        adaptive_risk=adaptive,
        accuracy_preservation=preserves,
        hallucination_reduction=reduces,
        quantitative_calibration=tp_ok and fn_ok,
        diagnostics={
            "abs_reachable_fraction": reachable / span if span > 0 else 1.0,
            "abs_max_gap": float(gaps.max()) if gaps.size else 0.0,
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
