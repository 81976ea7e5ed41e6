"""Scalar calibration and abstention metrics over a dataset.

The battery: smooth ECE at its fixed-point bandwidth, Brier score, NLL,
confidence AUC, abstention accuracy, predictive accuracy, plus the smoothed
calibration-diagram data behind reliability plots.

smECE uses a Gaussian kernel reflected at both ends of [0, 1] (so the kernel
mass of every point is exactly 1), evaluated on a uniform grid of G points:

    smECE_sigma = (1/n) INT_0^1 | SUM_i (valid_i - p_i) K_sigma(t, p_i) | dt

The reflected Gaussian is the Neumann heat kernel on [0, 1], so it has the
exact cosine series

    K_sigma(t, p) = 1 + 2 SUM_{m>=1} exp(-pi^2 m^2 sigma^2 / 2) cos(pi m t) cos(pi m p).

A kernel sum SUM_i w_i K_sigma(t, p_i) is therefore SUM_m a_m(sigma) c_m(w)
cos(pi m t), with cosine moments c_m(w) = SUM_i w_i cos(pi m p_i) that do not
depend on sigma. Terms m > M = ceil(sqrt(80) / (pi sigma)) weigh below e^-40
and are dropped. cos(pi m p) is the real part of z^m with z = exp(i pi p), so
each moment is one complex product per record from the last; the powers are
recomputed every _RESYNC terms, so rounding does not build up. Records go
through _CHUNK at a time: O(n M) = O(n / sigma) time, so a tiny pinned
bandwidth is slow, and O(M) memory whatever n (the moments of the diagram's
two weights take 45 MB at sigma = 1e-6). The terms fold onto the grid's
period 2(G - 1) in m.

The reported value is taken at the fixed-point bandwidth sigma* solving
smECE_{sigma*} = sigma*, located by bisection after an empirical monotonicity
check of the residual sigma -> smECE_sigma - sigma. The search builds the
moments once, at its smallest bandwidth 1/(G - 1), and every bandwidth it
visits reuses them.

The diagram's smoothed accuracy is a ratio of two kernel sums. Series
round-off (about 1e-16) swamps that ratio where the true density is about 0,
so accuracy is NaN wherever the density falls below _DENSITY_FLOOR, and the
density is clipped at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .behavior import default_grid
from .errors import DataError, check_count, check_range
from .model import Dataset
from .rewards import check_epsilon

_TAIL = 80.0  # series terms whose weight falls below e^(-_TAIL / 2) are dropped
_DENSITY_FLOOR = 1e-6  # smoothed accuracy is NaN below this confidence density
_CHUNK = 16384  # records per power array
_RESYNC = 256  # recurrence steps between fresh powers exp(i m pi p)
_MIN_BANDWIDTH = math.sqrt(_TAIL) / (math.pi * 2 ** 52)  # series length M below 2^53
_BRACKET = 1e-4  # the smECE bisection stops once its bracket is this narrow


def check_bandwidth(bandwidth: float) -> float:
    """The bandwidth rule: at least _MIN_BANDWIDTH, and finite."""
    return check_range("bandwidth", bandwidth, _MIN_BANDWIDTH, math.inf, "[)")


def check_report_options(nll_floor: float, smece_grid: int) -> None:
    """DomainError unless metric_report's options lie in their domains; they
    need no record, so the CLI checks them before reading any."""
    check_count("smece grid points", smece_grid, least=2)
    check_epsilon(nll_floor, "nll floor")


@dataclass(frozen=True)
class MetricReport:
    """The scalar metric battery for one dataset.

    A metric the dataset leaves undefined (smECE on one record, AUC on one
    class) is None, and `undefined` maps its name to the reason.
    """

    smece: float | None
    brier: float
    nll: float
    auc: float | None
    abstention_accuracy: float
    predictive_accuracy: float
    n: int
    undefined: dict[str, str] = field(default_factory=dict)

    CSV_HEADER = ("smece", "brier", "nll", "auc",
                  "abstention_accuracy", "predictive_accuracy", "n")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.CSV_HEADER}


@dataclass(frozen=True)
class CalibrationDiagram:
    """Kernel-smoothed accuracy and confidence density on a confidence grid.

    smoothed_accuracy is NaN where the density is below _DENSITY_FLOOR.
    """

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
    """Mean negative log-likelihood of correctness, confidences clipped to
    [floor, 1-floor]; floor >= 2^-53 makes 1 - floor < 1, so every log is finite."""
    check_epsilon(floor, "nll floor")
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


def _cosine_moments(p: np.ndarray, weights: np.ndarray, sigma: float) -> np.ndarray:
    """c[m, row] = SUM_i weights[row, i] cos(pi m p_i) for m = 0 .. M.

    M = ceil(sqrt(_TAIL) / (pi sigma)) covers every term that matters at
    bandwidths of sigma and up. The power z^m, z = exp(i pi p), advances one
    product per term and is recomputed every _RESYNC terms; see the module
    docstring for time and memory.
    """
    terms = math.ceil(math.sqrt(_TAIL) / (math.pi * sigma)) + 1
    c = np.zeros((terms, weights.shape[0]))
    for s in range(0, p.size, _CHUNK):
        theta = np.pi * p[s:s + _CHUNK]
        w = weights[:, s:s + _CHUNK]
        z = np.exp(1j * theta)
        for m in range(terms):
            if m % _RESYNC:
                power *= z
            else:
                power = np.exp(1j * m * theta)
            # einsum, not BLAS: the first threaded product in a process can
            # stall for a second while the BLAS threads start
            c[m] += np.einsum("ki,i->k", w, power.real)
    return c


def _grid_sums(moments: np.ndarray, sigma: float, grid_points: int) -> np.ndarray:
    """SUM_i w_i K_sigma(t_k, p_i) at t_k = k / (G - 1), one column per weight row.

    The terms a_m c_m, with a_0 = 1 and a_m = 2 exp(-(pi m sigma)^2 / 2), are
    summed against cos(pi m t_k), which has period 2(G - 1) in m. They fold
    onto one period, and the sum over the fold is the real part of its FFT.
    """
    m = np.arange(moments.shape[0])
    a = np.ones(m.size)  # a_0 = 1 set apart: at m = 0 a huge sigma gives inf * 0
    a[1:] = 2.0 * np.exp(-0.5 * (np.pi * sigma * m[1:]) ** 2)
    folded = np.zeros((2 * (grid_points - 1), moments.shape[1]))
    np.add.at(folded, m % folded.shape[0], a[:, None] * moments)
    return np.fft.rfft(folded, axis=0).real


def _canonical(p: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # fixed summation order makes smECE exactly permutation invariant
    order = np.lexsort((v, p))
    return p[order], v[order]


def _smece_at(grid: np.ndarray, moments: np.ndarray, sigma: float, n: int) -> float:
    """smECE at one bandwidth from the moments of v - p, trapezoid-integrated."""
    phi = _grid_sums(moments, sigma, grid.size)[:, 0]
    return float(np.trapezoid(np.abs(phi), grid) / n)


def smece_at_bandwidth(dataset: Dataset, sigma: float, grid_points: int = 512) -> float:
    """smECE at a fixed bandwidth, trapezoid-integrated on the evaluation grid."""
    check_bandwidth(sigma)
    grid = default_grid(grid_points)
    p, v = _canonical(*_arrays(dataset))
    moments = _cosine_moments(p, (v - p)[None, :], sigma)
    return _smece_at(grid, moments, sigma, p.size)


def smece(dataset: Dataset, grid_points: int = 512) -> tuple[float, float]:
    """Smooth ECE at the fixed-point bandwidth, and that bandwidth.

    Bisection runs on sigma in [grid_step, 1]. The residual h(sigma) =
    smECE_sigma - sigma is probed on a geometric ladder first; if it is not
    non-increasing (it always was in practice), a dense scan locates the first
    sign change and bisection narrows that bracket to _BRACKET. The moments of
    v - p are built once, at sigma = grid_step, for every evaluation.
    """
    p, v = _arrays(dataset)
    if p.size < 2:
        raise DataError("smECE needs at least two records")
    grid = default_grid(grid_points)
    p, v = _canonical(p, v)
    lo = 1.0 / (grid_points - 1)
    moments = _cosine_moments(p, (v - p)[None, :], lo)

    def f(sigma: float) -> float:
        return _smece_at(grid, moments, sigma, p.size)

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
        while b - a > _BRACKET:
            mid = 0.5 * (a + b)
            if f(mid) - mid > 0.0:
                a = mid
            else:
                b = mid
        star = 0.5 * (a + b)
    return f(star), star


def calibration_diagram(dataset: Dataset, bandwidth: float,
                        grid_points: int = 201) -> CalibrationDiagram:
    """Kernel-smoothed accuracy curve and confidence density at a chosen bandwidth.

    Accuracy is NaN where the density is below _DENSITY_FLOOR. Regions with
    little confidence mass above it are still reported; flag them via
    low_density() rather than trusting the smoothed curve there. The moment
    build takes O(n / bandwidth) time.
    """
    check_bandwidth(bandwidth)
    grid = default_grid(grid_points)
    p, v = _canonical(*_arrays(dataset))
    moments = _cosine_moments(p, np.vstack((v, np.ones_like(p))), bandwidth)
    num, den = _grid_sums(moments, bandwidth, grid_points).T
    density = np.maximum(den / p.size, 0.0)
    defined = density >= _DENSITY_FLOOR
    smoothed = np.full(grid.size, np.nan)
    smoothed[defined] = num[defined] / den[defined]
    return CalibrationDiagram(grid=grid, smoothed_accuracy=smoothed,
                              density=density, bandwidth=bandwidth)


def metric_report(dataset: Dataset, nll_floor: float = 1e-6, smece_grid: int = 512
                  ) -> tuple[MetricReport, float | None]:
    """Compute the full battery in one pass; returns the report and the smECE bandwidth.

    An empty dataset, a missing confidence or an option outside its domain
    (check_report_options) is an error. smECE and AUC may still be
    undefined; they are reported as None with the reason, and the bandwidth
    is None when smECE is.
    """
    check_report_options(nll_floor, smece_grid)
    brier = brier_score(dataset)  # raises on an empty dataset or a missing confidence
    undefined: dict[str, str] = {}
    try:
        value, bandwidth = smece(dataset, grid_points=smece_grid)
    except DataError as exc:
        value, bandwidth = None, None
        undefined["smece"] = str(exc)
    try:
        auc = confidence_auc(dataset)
    except DataError as exc:
        auc = None
        undefined["auc"] = str(exc)
    report = MetricReport(
        smece=value,
        brier=brier,
        nll=nll(dataset, floor=nll_floor),
        auc=auc,
        abstention_accuracy=abstention_accuracy(dataset),
        predictive_accuracy=predictive_accuracy(dataset),
        n=len(dataset),
        undefined=undefined,
    )
    return report, bandwidth
