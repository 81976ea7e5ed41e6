"""Outside-in tracing of becal: timing wrappers rebound onto names the CLI calls.

Nothing in becal changes. While `Tracer.installed()` is active, the names that
`becal.cli` looks up at call time (`load_jsonl`, `metric_report`,
`scaling_curve`, ...), `becal.metrics.smece`, and the column builders
`Dataset.confidences` / `Dataset.valids` are replaced by wrappers that record a
span (name, start, end, parent, ru_maxrss before and after, work count) or
bump a counter. Spans stay in memory and are written once at the end.

Run as a script, it executes one becal command in this process and writes
what it measured as JSON:

    python3 bench/tracer.py on|off OUT.json -- COMMAND [ARGS...]

`off` times `becal.cli.main` without wrappers, which gives the tracing
overhead by difference. Each command runs in a fresh process because
ru_maxrss is a process-wide high-water mark.
"""

from __future__ import annotations

import inspect
import json
import resource
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

REWARDS = ("decide", "reward_explicit", "reward_bounded", "reward_brier", "reward_ce",
           "reward_integrated")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _records(args, result) -> int:
    return len(result)


def _claims(args, result) -> int:
    return sum(len(rec.claims) for rec in result)


def _dumped(args, result) -> int:
    return len(args["dataset"])


def _draws(args, result) -> int:
    return len(args["groups"]) * args["n_resamples"] * len(list(args["k_values"]))


# becal.cli name -> (span name, work count or None); "{strategy}" is filled from the call
CLI_SPANS = {
    "load_jsonl": ("model.ingest", _records),
    "read_jsonl": ("model.ingest", _records),
    "dump_jsonl": ("model.dump", _dumped),
    "apply_aggregation": ("claims.aggregate", _claims),
    "generate": ("simulate.generate", _records),
    "generate_ensemble": ("simulate.generate", _records),
    **{name: ("rewards.score", None) for name in REWARDS},
    "metric_report": ("metrics.report", None),
    "sweep": ("behavior.sweep", None),
    "check_objectives": ("behavior.objectives", None),
    "group_records": ("tts.group", None),
    "scaling_curve": ("tts.curve.{strategy}", _draws),
}


def targets() -> list[tuple[object, str]]:
    """Every (owner, attribute) the tracer rebinds."""
    from becal import cli, metrics
    from becal.model import Dataset
    return ([(cli, name) for name in CLI_SPANS] + [(metrics, "smece")]
            + [(Dataset, "confidences"), (Dataset, "valids")])


def snapshot() -> list[object]:
    return [getattr(owner, attr) for owner, attr in targets()]


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, maxrss_kb before, after, work]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        signature = inspect.signature(fn) if work or "{" in name else None

        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            label = name.format(**bound.arguments) if "{" in name else name
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    _maxrss_kb(), 0, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[5] = _maxrss_kb()
                self._stack.pop()
            if work is not None:
                span[6] = work(bound.arguments, result)
            return result

        return traced

    def count(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Rebind every target to its wrapper; the originals come back on exit."""
        from becal import cli, metrics
        from becal.model import Dataset
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr in targets()]
        try:
            for name, (span, work) in CLI_SPANS.items():
                setattr(cli, name, self.wrap(span, getattr(cli, name), work))
            metrics.smece = self.wrap("metrics.smece", metrics.smece)
            for attr in ("confidences", "valids"):
                setattr(Dataset, attr, self.count("model.column_builds",
                                                  getattr(Dataset, attr)))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass

def _per(total_s: float, work: int, scale: float) -> float:
    return total_s * scale / work if work else 0.0


def layer_metrics(steps: list[dict]) -> dict[str, float]:
    """Sum spans per layer over the traced commands of one pass.

    The self time of cli.main is its span minus the spans directly below it.
    """
    time: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    rss: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    builds = 0
    child_time = 0.0
    for step in steps:
        spans = step["spans"]
        builds += step["counts"].get("model.column_builds", 0)
        for name, start, end, parent, rss0, rss1, n in spans:
            time[name] += end - start
            work[name] += n
            rss[name] += rss1 - rss0
            calls[name] += 1
            if parent >= 0 and spans[parent][3] == -1:
                child_time += end - start
    curves = [k for k in list(time) if k.startswith("tts.curve.")]
    curve_s = sum(time[k] for k in curves)
    draws = sum(work[k] for k in curves)
    main_s = time["cli.main"]
    out = {
        "cli.main_s": main_s,
        "cli.self_s": main_s - child_time,
        "model.ingest_s": time["model.ingest"],
        "model.ingest_us_per_record": _per(time["model.ingest"],
                                           work["model.ingest"], 1e6),
        "model.ingest_rss_delta_mb": rss["model.ingest"] / 1024.0,
        "model.dump_s": time["model.dump"],
        "model.dump_us_per_record": _per(time["model.dump"],
                                         work["model.dump"], 1e6),
        "model.column_builds": builds,
        "claims.aggregate_s": time["claims.aggregate"],
        "claims.ns_per_claim": _per(time["claims.aggregate"],
                                    work["claims.aggregate"], 1e9),
        "simulate.generate_s": time["simulate.generate"],
        "simulate.us_per_record": _per(time["simulate.generate"],
                                       work["simulate.generate"], 1e6),
        "rewards.score_s": time["rewards.score"],
        "rewards.calls": calls["rewards.score"],
        "metrics.report_s": time["metrics.report"],
        "metrics.smece_s": time["metrics.smece"],
        "metrics.smece_calls": calls["metrics.smece"],
        "metrics.smece_share": time["metrics.smece"] / main_s if main_s else 0.0,
        "metrics.scalar_s": time["metrics.report"] - time["metrics.smece"],
        "metrics.smece_rss_delta_mb": rss["metrics.smece"] / 1024.0,
        "behavior.sweep_s": time["behavior.sweep"],
        "behavior.objectives_s": time["behavior.objectives"],
        "tts.group_s": time["tts.group"],
        "tts.group_draws_per_s": draws / curve_s if curve_s else 0.0,
    }
    for strategy in ("mean", "best", "majority", "maxconf", "majconf"):
        out[f"tts.curve_s.{strategy}"] = time[f"tts.curve.{strategy}"]
    return out


# ---------------------------------------------------------------------------
# one command, run in this process

def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[0] not in ("on", "off") or argv[2] != "--":
        print("usage: tracer.py on|off OUT.json -- COMMAND [ARGS...]", file=sys.stderr)
        return 64
    mode, out, command = argv[0], Path(argv[1]), argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    from becal import cli
    result: dict = {"spans": [], "counts": {}, "restored": True}
    if mode == "on":
        before = snapshot()
        tracer = Tracer()
        with tracer.installed():
            rc = tracer.wrap("cli.main", cli.main)(command)
        result.update(spans=tracer.spans, counts=tracer.counts,
                      restored=all(a is b for a, b in zip(before, snapshot())),
                      main_s=tracer.spans[0][2] - tracer.spans[0][1])
    else:
        start = perf_counter()
        rc = cli.main(command)
        result["main_s"] = perf_counter() - start
    out.write_text(json.dumps({"rc": rc, **result}), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
