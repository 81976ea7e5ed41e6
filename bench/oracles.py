"""Independent checks of every output the benchmark workloads produce.

The checks use numpy and the standard library only; nothing here imports
becal. Each recomputes a reported number from the input file by a route of its
own and returns one message per failed check, so an empty list means the
output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

ABS_TOL = 1e-9
# The program stops bisecting once the bandwidth bracket is 1e-4 wide, so its
# reported smECE is a fixed point only up to that bracket times the small
# slope of sigma -> smECE_sigma (residual -6.8e-7 at seed). A binned smECE may
# add its 1e-6 gate on top. A mis-evaluated kernel or a non-fixed-point
# bandwidth moves the value by orders of magnitude more than this.
SMECE_TOL = 1e-5
MC_SIGMAS = 6.0


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _close(name: str, got, want: float, tol: float = ABS_TOL) -> list[str]:
    if isinstance(want, float) and math.isnan(want):
        return [] if got is None else [f"{name}: got {got!r}, expected null"]
    if not isinstance(got, (int, float)) or isinstance(got, bool) \
            or not abs(got - want) <= tol:
        return [f"{name}: got {got!r}, expected {want!r} (tolerance {tol:g})"]
    return []


# ---------------------------------------------------------------------------
# scalar metrics

def auc(p: np.ndarray, v: np.ndarray) -> float:
    """P(valid record out-scores an invalid one), ties counted half."""
    pos, neg = p[v], np.sort(p[~v])
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below + 0.5 * tied).sum() / (pos.size * neg.size))


def smece_at(p: np.ndarray, v: np.ndarray, sigma: float, grid_points: int) -> float:
    """smECE at one bandwidth: Gaussian kernel reflected at 0 and 1, trapezoid rule.

    Every mirror image 2j +- p that comes within 12 sigma of [0, 1] is summed
    over the whole grid; the images left out weigh below exp(-72).
    """
    t = np.linspace(0.0, 1.0, grid_points)
    resid = v - p
    reach = 12.0 * sigma
    centers = [2.0 * j + s * p
               for j in range(-int(reach) - 2, int(reach) + 3) for s in (1.0, -1.0)]
    centers = [c for c in centers if c.min() <= 1.0 + reach and c.max() >= -reach]
    phi = np.zeros(grid_points)
    rows = max(1, (1 << 22) // p.size)
    for i in range(0, grid_points, rows):
        block = t[i:i + rows, None]
        for c in centers:
            z = (block - c[None, :]) / sigma
            phi[i:i + rows] += np.exp(-0.5 * z * z) @ resid
    phi /= sigma * math.sqrt(2.0 * math.pi)
    return float(np.trapezoid(np.abs(phi), t) / p.size)


def metric_failures(p: np.ndarray, v: np.ndarray, got: dict,
                    smece_grid: int = wl.SMECE_GRID,
                    nll_floor: float = wl.NLL_FLOOR) -> list[str]:
    vf = v.astype(float)
    pc = np.clip(p, nll_floor, 1.0 - nll_floor)
    out = []
    out += _close("n", got.get("n"), p.size, 0)
    out += _close("brier", got.get("brier"), float(np.mean((p - vf) ** 2)))
    out += _close("nll", got.get("nll"),
                  float(-np.mean(np.log(np.where(v, pc, 1.0 - pc)))))
    out += _close("auc", got.get("auc"), auc(p, v))
    out += _close("abstention_accuracy", got.get("abstention_accuracy"),
                  float(np.mean((p >= 0.5) == v)))
    out += _close("predictive_accuracy", got.get("predictive_accuracy"), float(vf.mean()))
    reported = got.get("smece")
    if not isinstance(reported, float) or not 0.0 <= reported <= 1.0:
        return out + [f"smece: got {reported!r}, expected a number in [0, 1]"]
    # below the smallest admissible bandwidth the program reports smECE there
    sigma = max(reported, 1.0 / (smece_grid - 1))
    out += _close(f"smece fixed point (sigma = {sigma!r})", reported,
                  smece_at(p, vf, sigma, smece_grid), SMECE_TOL)
    return out


# ---------------------------------------------------------------------------
# risk sweep and objectives, exact from integer counts

def expected_sweep_rows(p: np.ndarray, v: np.ndarray, grid_points: int) -> list[tuple]:
    """(t, acc, hal, abs, tp, fn) per threshold; None where the condition is empty."""
    t = np.linspace(0.0, 1.0, grid_points)
    answers = p[None, :] >= t[:, None]
    ans = answers.sum(axis=1)
    ans_valid = (answers & v[None, :]).sum(axis=1)
    n, total_valid = p.size, int(v.sum())
    rows = []
    for i in range(grid_points):
        a, av = int(ans[i]), int(ans_valid[i])
        rows.append((float(t[i]), av / n, (a - av) / n, (n - a) / n,
                     av / a if a else None,
                     (total_valid - av) / (n - a) if n - a else None))
    return rows


def sweep_failures(p: np.ndarray, v: np.ndarray, got_rows: list[tuple],
                   grid_points: int) -> list[str]:
    want = expected_sweep_rows(p, v, grid_points)
    if len(got_rows) != len(want):
        return [f"sweep: {len(got_rows)} rows, expected {len(want)}"]
    for got, exp in zip(got_rows, want):
        if tuple(got) != exp:
            return [f"sweep row t={exp[0]!r}: got {tuple(got)!r}, expected {exp!r}"]
    return []


def objective_failures(p: np.ndarray, v: np.ndarray, got: dict, grid_points: int,
                       tolerance: float = wl.TOLERANCE) -> list[str]:
    rows = expected_sweep_rows(p, v, grid_points)
    t, acc, hal, abs_, tp, fn = (np.array([np.nan if x is None else x for x in col])
                                 for col in zip(*rows))
    n = p.size
    diffs = np.diff(abs_)
    gaps = np.r_[diffs, 1.0 - abs_[-1]]
    span = 1.0 - abs_[0]
    reachable = float(gaps[gaps <= tolerance + 1e-12].sum())
    floor = 0.5 / n  # default hallucination floor: half a count
    snr_all = np.trapezoid(acc, t) / max(np.trapezoid(hal, t), floor)
    gain = math.log(snr_all / (acc[0] / max(hal[0], floor)))
    tp_def, fn_def = ~np.isnan(tp), ~np.isnan(fn)
    want_flags = {
        "adaptive_risk": bool(np.all(diffs >= -1e-12)
                              and (span <= 0.0 or reachable >= (1.0 - tolerance) * span)),
        "accuracy_preservation": True,  # the baseline defaults to Acc(0) itself
        "hallucination_reduction": bool(hal[-1] <= tolerance and gain > 0.0),
        "quantitative_calibration":
            bool(np.all(tp[tp_def] >= t[tp_def] - tolerance)
                 and np.all(fn[fn_def] <= t[fn_def] + tolerance)),
    }
    want_flags["all_passed"] = all(want_flags.values())
    diagnostics = {
        "abs_reachable_fraction": reachable / span if span > 0 else 1.0,
        "abs_max_gap": float(gaps.max()),
        "acc_at_0": float(acc[0]),
        "baseline_acc": float(acc[0]),
        "hal_at_1": float(hal[-1]),
        "snr_gain": gain,
        "worst_tp_margin": float(np.min(tp[tp_def] - t[tp_def])) if tp_def.any() else math.nan,
        "worst_fn_excess": float(np.max(fn[fn_def] - t[fn_def])) if fn_def.any() else math.nan,
        "tolerance": tolerance,
    }
    out = [f"objective {k}: got {got.get(k)!r}, expected {w!r}"
           for k, w in want_flags.items() if got.get(k) is not w]
    got_diag = got.get("diagnostics", {})
    for key, want in diagnostics.items():
        out += _close(f"objective diagnostic {key}", got_diag.get(key), want)
    return out


# ---------------------------------------------------------------------------
# claim chains and rewards

def chain_failures(rows: list[dict], n: int, n_claims: int) -> list[str]:
    """simulate's claim-chain contract: n records, AND of claims, product of confidences."""
    out = []
    if len(rows) != n:
        out.append(f"simulate: {len(rows)} records, expected {n}")
    for row in rows:
        claims = row.get("claims", [])
        if len(claims) != n_claims:
            return out + [f"record {row.get('id')!r}: {len(claims)} claims, "
                          f"expected {n_claims}"]
        if row["valid"] is not all(c["valid"] for c in claims):
            return out + [f"record {row['id']!r}: valid is not the AND of its claims"]
        product = math.prod(c["confidence"] for c in claims)
        if not abs(product - row["confidence"]) <= ABS_TOL:
            return out + [f"record {row['id']!r}: confidence {row['confidence']!r} "
                          f"is not the claim product {product!r}"]
    return out


def product_arrays(rows: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    p = np.array([math.prod(c["confidence"] for c in row["claims"]) for row in rows])
    return p, np.array([row["valid"] for row in rows], dtype=bool)


def reward_failures(ids: list[str], p: np.ndarray, v: np.ndarray, got: list[dict],
                    epsilon: float = wl.REWARD_EPSILON) -> list[str]:
    """Integrated reward under Beta(0,0) truncated at epsilon, in closed form.

    R = log(p'/eps)/L for a valid record and log((1-p')/(1-eps))/L otherwise,
    with p' = clip(p, eps, 1-eps) and L = log((1-eps)/eps).
    """
    if [r.get("id") for r in got] != ids:
        return ["reward: record ids or their order differ from the input"]
    norm = math.log((1.0 - epsilon) / epsilon)
    pc = np.clip(p, epsilon, 1.0 - epsilon)
    want = np.where(v, np.log(pc / epsilon), np.log((1.0 - pc) / (1.0 - epsilon))) / norm
    for row, w in zip(got, want):
        bad = _close(f"reward of {row['id']!r}", row.get("reward"), float(w))
        if bad:
            return bad
    return []


# ---------------------------------------------------------------------------
# test-time scaling

def load_groups(rows: list[dict]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    groups: dict[str, list] = {}
    for row in rows:
        groups.setdefault(row["group"], []).append((row["confidence"], row["valid"]))
    return {g: (np.array([c for c, _ in s]), np.array([v for _, v in s], dtype=bool))
            for g, s in groups.items()}


def exact_at_k(conf: np.ndarray, valid: np.ndarray, k: int) -> dict[str, float]:
    """mean, best (pass@k) and maxconf accuracy of one group, k drawn without replacement.

    maxconf: the top confidence level c among the draw wins, and ties go to
    the first drawn, which by symmetry is uniform over the drawn samples at c.
    """
    n, nv = valid.size, int(valid.sum())
    draws = math.comb(n, k)
    maxconf = 0.0
    for c in np.unique(conf):
        at = conf == c
        m, below = int(at.sum()), int((conf < c).sum())
        top_is_c = math.comb(below + m, k) - math.comb(below, k)
        maxconf += int(valid[at].sum()) / m * top_is_c / draws
    return {"mean": nv / n, "best": 1.0 - math.comb(n - nv, k) / draws, "maxconf": maxconf}


def tts_failures(groups: dict, got: list[dict], ks, strategies) -> list[str]:
    points = {(r["strategy"], int(r["k"])): (float(r["accuracy"]), float(r["stderr"]))
              for r in got}
    wanted = {(s, k) for s in strategies for k in ks}
    if set(points) != wanted or len(got) != len(wanted):
        return [f"tts: rows {sorted(points)} do not match {sorted(wanted)}"]
    out = []
    for k in ks:
        per_group = [exact_at_k(c, v, k) for c, v in groups.values()]
        exact = {s: float(np.mean([g[s] for g in per_group])) for s in per_group[0]}
        for s in strategies:
            acc, stderr = points[(s, k)]
            if not (0.0 <= acc <= 1.0 and math.isfinite(stderr) and stderr >= 0.0):
                out.append(f"tts {s}@{k}: accuracy {acc!r}, stderr {stderr!r} out of range")
                continue
            target = exact["mean"] if k == 1 else exact.get(s)
            if target is not None:
                out += _close(f"tts {s}@{k}", acc, target,
                              max(MC_SIGMAS * stderr, ABS_TOL))
    return out


# ---------------------------------------------------------------------------
# one repetition of a workload

def _guarded(check) -> list[str]:
    try:
        return check()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _sweep_csv(path: Path) -> list[tuple]:
    return [tuple(float(row[k]) if row[k] else None
                  for k in ("t", "acc", "hal", "abs", "tp", "fn"))
            for row in _csv_rows(path)]


def _report(input_path: Path, rep: Path) -> list[str]:
    rows = read_jsonl(input_path)
    p = np.array([r["confidence"] for r in rows])
    v = np.array([r["valid"] for r in rows], dtype=bool)
    got = json.loads((rep / "report.json").read_text(encoding="utf-8"))
    sweep_rows = [tuple(r[k] for k in ("t", "acc", "hal", "abs", "tp", "fn"))
                  for r in got["sweep"]]
    return (metric_failures(p, v, got["metrics"])
            + sweep_failures(p, v, sweep_rows, wl.REPORT_GRID)
            + objective_failures(p, v, got["objectives"], wl.REPORT_GRID))


def _tts(input_path: Path, rep: Path) -> list[str]:
    return tts_failures(load_groups(read_jsonl(input_path)), _csv_rows(rep / "tts.csv"),
                        wl.TTS_K, wl.TTS_STRATEGIES)


def _chain(rep: Path) -> dict[str, list[str]]:
    try:
        rows = read_jsonl(rep / "chain.jsonl")
        p, v = product_arrays(rows)
        ids = [r["id"] for r in rows]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {step: [f"unreadable chain.jsonl: {exc!r}"]
                for step in ("simulate", "reward", "sweep", "objectives")}
    return {
        "simulate": _guarded(lambda: chain_failures(rows, wl.CHAIN_RECORDS,
                                                    wl.CHAIN_CLAIMS)),
        "reward": _guarded(lambda: reward_failures(ids, p, v,
                                                   read_jsonl(rep / "reward.jsonl"))),
        "sweep": _guarded(lambda: sweep_failures(p, v, _sweep_csv(rep / "sweep.csv"),
                                                 wl.SWEEP_GRID)),
        "objectives": _guarded(lambda: objective_failures(
            p, v, json.loads((rep / "objectives.json").read_text(encoding="utf-8")),
            wl.SWEEP_GRID)),
    }


def verify(workload: str, rep: Path, input_path: Path) -> dict[str, list[str]]:
    """Failed checks per step command of one repetition directory."""
    if workload == "report-sharp":
        return {"report": _guarded(lambda: _report(input_path, rep))}
    if workload == "tts-ensemble":
        return {"tts": _guarded(lambda: _tts(input_path, rep))}
    return _chain(rep)
