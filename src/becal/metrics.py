"""Scalar calibration and abstention metrics over a dataset.

The battery: smooth ECE at its fixed-point bandwidth, Brier score, NLL,
confidence AUC, abstention accuracy, predictive accuracy, plus the smoothed
calibration-diagram data behind reliability plots.

smECE uses a Gaussian kernel reflected at both ends of [0, 1] (so the kernel
mass of every point is exactly 1), evaluated on a uniform grid:

    smECE_sigma = (1/n) INT_0^1 | SUM_i (valid_i - p_i) K_sigma(t, p_i) | dt

The reported value is taken at the fixed-point bandwidth sigma* solving
smECE_{sigma*} = sigma*, located by bisection after an empirical monotonicity
check of the residual sigma -> smECE_sigma - sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError
from .model import Dataset

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_KERNEL_REACH = 8.0  # standard deviations kept per reflection image


@dataclass(frozen=True)
class MetricReport:
    """The scalar metric battery for one dataset."""

    smece: float
    brier: float
    nll: float
    auc: float
    abstention_accuracy: float
    predictive_accuracy: float
    n: int

    CSV_HEADER = ("smece", "brier", "nll", "auc",
                  "abstention_accuracy", "predictive_accuracy", "n")

    def to_dict(self) -> dict:
        return {
            "smece": self.smece,
            "brier": self.brier,
            "nll": self.nll,
            "auc": self.auc,
            "abstention_accuracy": self.abstention_accuracy,
            "predictive_accuracy": self.predictive_accuracy,
            "n": self.n,
        }


@dataclass(frozen=True)
class CalibrationDiagram:
    """Kernel-smoothed accuracy and confidence density on a confidence grid."""

    grid: np.ndarray
    smoothed_accuracy: np.ndarray
    density: np.ndarray
    bandwidth: float

    def low_density(self, threshold: float = 0.1) -> np.ndarray:
        """Mask of grid points whose confidence density falls below threshold."""
        return self.density < threshold


def _arrays(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    p = dataset.confidences()
    v = dataset.valids().astype(float)
    return p, v


def brier_score(dataset: Dataset) -> float:
    """Mean squared error between confidence and the 0/1 correctness label."""
    p, v = _arrays(dataset)
    return float(np.mean((p - v) ** 2))


def nll(dataset: Dataset, floor: float = 1e-6) -> float:
    """Mean negative log-likelihood of correctness, confidences clipped to [floor, 1-floor]."""
    if not 0.0 < floor < 0.5:
        raise DomainError(f"nll floor must lie in (0, 0.5): {floor!r}")
    p, v = _arrays(dataset)
    pc = np.clip(p, floor, 1.0 - floor)
    return float(np.mean(np.where(v > 0.5, -np.log(pc), -np.log(1.0 - pc))))


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    order = np.argsort(a, kind="mergesort")
    s = a[order]
    edges = np.flatnonzero(np.r_[True, s[1:] != s[:-1], True])
    counts = np.diff(edges)
    avg = edges[:-1] + 0.5 * (counts + 1)
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(avg, counts)
    return ranks


def confidence_auc(dataset: Dataset) -> float:
    """Probability a correct record out-scores an incorrect one, ties at half.

    Tie-aware rank-sum form; the pairwise enumeration lives in the test suite
    as its oracle.
    """
    p, v = _arrays(dataset)
    pos = v > 0.5
    n_pos = int(pos.sum())
    n_neg = p.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC undefined for single-class data: need at least one "
                        "valid and one invalid record")
    ranks = _average_ranks(p)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def abstention_accuracy(dataset: Dataset) -> float:
    """Fraction of correct answer/abstain decisions at the fixed 0.5 threshold.

    The decision is decide(p, 0.5): answer on p >= 0.5. A decision is correct
    when it answers on a valid record or abstains on an invalid one.
    """
    p, v = _arrays(dataset)
    answers = p >= 0.5
    correct = np.where(answers, v > 0.5, v <= 0.5)
    return float(np.mean(correct))


def predictive_accuracy(dataset: Dataset) -> float:
    """Fraction of valid records (accuracy assuming no abstention)."""
    v = dataset.valids()
    return float(np.mean(v))


def _kernel_sums(grid: np.ndarray, p: np.ndarray, sigma: float,
                 weights: list[np.ndarray]) -> list[np.ndarray]:
    """SUM_i w_i K_sigma(t, p_i) on the grid for each weight vector.

    K is a Gaussian reflected at 0 and 1, realized as mirror images 2j + p and
    2j - p; images and grid rows farther than _KERNEL_REACH sigmas contribute
    below 1e-14 and are skipped.
    """
    out = [np.zeros(grid.size) for _ in weights]
    reach = _KERNEL_REACH * sigma
    j_lo = int(math.floor((-reach - 1.0) / 2.0))
    j_hi = int(math.ceil((1.0 + reach) / 2.0))
    for j in range(j_lo, j_hi + 1):
        for sgn in (1.0, -1.0):
            centers = 2.0 * j + sgn * p
            c_min, c_max = centers[0], centers[-1]
            if c_min > c_max:
                c_min, c_max = c_max, c_min
            if c_max < -reach or c_min > 1.0 + reach:
                continue
            i0 = int(np.searchsorted(grid, c_min - reach))
            i1 = int(np.searchsorted(grid, c_max + reach, side="right"))
            if i0 >= i1:
                continue
            z = (grid[i0:i1, None] - centers[None, :]) / sigma
            block = np.exp(-0.5 * z * z)
            for acc, w in zip(out, weights):
                acc[i0:i1] += block @ w
    return [acc / (sigma * _SQRT_2PI) for acc in out]


def _canonical(p: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # fixed summation order makes smECE exactly permutation invariant
    order = np.lexsort((v, p))
    return p[order], v[order]


def _smece_at(grid: np.ndarray, p: np.ndarray, resid: np.ndarray,
              sigma: float) -> float:
    """smECE at one bandwidth, trapezoid-integrated on the evaluation grid."""
    (phi,) = _kernel_sums(grid, p, sigma, [resid])
    return float(np.trapezoid(np.abs(phi), grid) / p.size)


def smece_at_bandwidth(dataset: Dataset, sigma: float, grid_points: int = 512) -> float:
    """smECE at a fixed bandwidth, trapezoid-integrated on the evaluation grid."""
    if sigma <= 0:
        raise DomainError(f"bandwidth must be positive: {sigma!r}")
    p, v = _canonical(*_arrays(dataset))
    return _smece_at(np.linspace(0.0, 1.0, grid_points), p, v - p, sigma)


def _diagram(grid: np.ndarray, p: np.ndarray, v: np.ndarray,
             sigma: float) -> CalibrationDiagram:
    num, den = _kernel_sums(grid, p, sigma, [v, np.ones_like(p)])
    # windowing zeroes den beyond the kernel reach; accuracy is undefined there
    with np.errstate(invalid="ignore", divide="ignore"):
        smoothed = np.where(den > 0, num / den, np.nan)
    return CalibrationDiagram(
        grid=grid,
        smoothed_accuracy=smoothed,
        density=den / p.size,
        bandwidth=sigma,
    )


def smece(dataset: Dataset, grid_points: int = 512,
          tol: float = 1e-4) -> tuple[float, CalibrationDiagram]:
    """Smooth ECE at the fixed-point bandwidth, plus the diagram at that bandwidth.

    Bisection runs on sigma in [grid_step, 1]. The residual h(sigma) =
    smECE_sigma - sigma is probed on a geometric ladder first; if it is not
    non-increasing (it always was in practice), a dense scan locates the first
    sign change and bisection proceeds inside that bracket. The diagram is
    returned on the same evaluation grid so its density integrates to 1 within
    trapezoid error even at the smallest admissible bandwidth.
    """
    p, v = _arrays(dataset)
    if p.size < 2:
        raise DataError("smECE needs at least two records")
    p, v = _canonical(p, v)
    grid = np.linspace(0.0, 1.0, grid_points)
    resid = v - p

    def f(sigma: float) -> float:
        return _smece_at(grid, p, resid, sigma)

    lo = 1.0 / (grid_points - 1)
    ladder = np.geomspace(lo, 1.0, 9)
    h = np.array([f(s) - s for s in ladder])
    if np.any(np.diff(h) > 1e-9):  # monotonicity violated: fall back to a dense scan
        ladder = np.geomspace(lo, 1.0, 64)
        h = np.array([f(s) - s for s in ladder])
    if h[0] <= 0.0:
        star = lo
    elif h[-1] > 0.0:
        star = 1.0
    else:
        i = int(np.argmax(h <= 0.0))
        a, b = float(ladder[i - 1]), float(ladder[i])
        while b - a > tol:
            mid = 0.5 * (a + b)
            if f(mid) - mid > 0.0:
                a = mid
            else:
                b = mid
        star = 0.5 * (a + b)
    return f(star), _diagram(grid, p, v, star)


def calibration_diagram(dataset: Dataset, bandwidth: float,
                        grid_points: int = 201) -> CalibrationDiagram:
    """Kernel-smoothed accuracy curve and confidence density at a chosen bandwidth.

    Grid regions with little confidence mass are still reported; flag them via
    low_density() rather than trusting the smoothed curve there.
    """
    if bandwidth <= 0:
        raise DomainError(f"bandwidth must be positive: {bandwidth!r}")
    p, v = _canonical(*_arrays(dataset))
    grid = np.linspace(0.0, 1.0, grid_points)
    return _diagram(grid, p, v, bandwidth)


def metric_report(dataset: Dataset, nll_floor: float = 1e-6,
                  smece_grid: int = 512) -> tuple[MetricReport, CalibrationDiagram]:
    """Compute the full battery in one pass; returns the report and the smECE diagram."""
    value, diagram = smece(dataset, grid_points=smece_grid)
    report = MetricReport(
        smece=value,
        brier=brier_score(dataset),
        nll=nll(dataset, floor=nll_floor),
        auc=confidence_auc(dataset),
        abstention_accuracy=abstention_accuracy(dataset),
        predictive_accuracy=predictive_accuracy(dataset),
        n=len(dataset),
    )
    return report, diagram
