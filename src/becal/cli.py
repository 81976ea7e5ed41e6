"""Command-line front end.

One executable, eight subcommands, each a thin wrapper over one module:

    validate    check a JSONL dataset and summarize it
    simulate    generate synthetic datasets (agents, chains, ensembles)
    reward      score records under a chosen reward
    metrics     calibration metric report (JSON or CSV row)
    sweep       risk-threshold behavioral curves (CSV)
    objectives  four behavioral-objective checks (JSON)
    tts         test-time scaling curves (CSV)
    report      metrics + sweep + objectives in one JSON document

Option precedence: command-line flags beat a --config file (key = value
lines), which beats the BECAL_INPUT / BECAL_OUT environment overrides for the
default input/output paths, which beat built-in defaults. `-` means stdin or
stdout. JSON outputs embed the fully resolved config; CSV and JSONL files get
a `<out>.meta.json` sidecar instead, so any output can be replayed.

Exit codes: 1 usage, 2 data, 3 numeric domain.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields

from . import __version__
from .errors import DataError, DomainError, ToolkitError, UsageError
from .model import Dataset, dump_jsonl, load_jsonl, read_jsonl, validate
from .claims import apply_aggregation
from .rewards import (decide, parse_prior, reward_bounded, reward_brier,
                      reward_ce, reward_explicit, reward_integrated)
from .metrics import MetricReport, calibration_diagram, metric_report
from .behavior import check_objectives, default_grid, sweep
from .simulate import (RNG_ALGORITHM, AgentSpec, generate, generate_ensemble,
                       parse_difficulty, parse_report_map)
from .tts import STRATEGIES, group_records, scaling_curve

REWARDS = ("explicit", "bounded", "brier", "ce", "integrated")
CONFIDENCE_SOURCES = ("stated", "product", "min")

_FORMATS = {
    "validate": ("json",),
    "simulate": ("jsonl",),
    "reward": ("json", "jsonl"),
    "metrics": ("json", "csv"),
    "sweep": ("csv", "json"),
    "objectives": ("json",),
    "tts": ("csv", "json"),
    "report": ("json",),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run options; every field lands in the output header."""

    command: str
    input: str = "-"
    out: str = "-"
    fmt: str | None = None
    confidence_from: str = "stated"
    grid: int = 101
    t: float = 0.5
    reward: str = "explicit"
    prior: str = "uniform"
    ce_epsilon: float = 0.01
    nll_floor: float = 1e-6
    smece_grid: int = 512
    bandwidth: float | None = None
    diagram_out: str | None = None
    epsilon_h: float | None = None
    log_base: str = "e"
    baseline_acc: float | None = None
    tolerance: float = 0.05
    seed: int = 0
    agent: str = "calibrated"
    difficulty: str = "uniform"
    n: int = 1000
    n_claims: int | None = None
    groups: int | None = None
    samples_per_group: int | None = None
    strategy: tuple[str, ...] = STRATEGIES
    k_values: tuple[int, ...] = (1, 2, 4, 8)
    n_resamples: int = 100


_INT_FIELDS = {"grid", "smece_grid", "seed", "n", "n_claims", "groups",
               "samples_per_group", "n_resamples"}
_FLOAT_FIELDS = {"t", "ce_epsilon", "nll_floor", "bandwidth", "epsilon_h",
                 "baseline_acc", "tolerance"}


def _coerce(key: str, value: str):
    try:
        if key in _INT_FIELDS:
            return int(value)
        if key in _FLOAT_FIELDS:
            return float(value)
        if key == "k_values":
            return tuple(int(x) for x in value.split(","))
        if key == "strategy":
            return tuple(s.strip() for s in value.split(",") if s.strip())
    except ValueError:
        raise UsageError(f"bad value for {key!r}: {value!r}") from None
    return value


def _read_config_file(path: str) -> dict:
    names = {f.name for f in fields(RunConfig)} - {"command"}
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, value = line.partition("=")
                if not eq:
                    raise UsageError(f"{path}:{lineno}: expected key = value")
                key = key.strip().replace("-", "_")
                if key not in names:
                    raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
                out[key] = _coerce(key, value.strip())
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def _add_common(sub: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        sub.add_argument("input_pos", nargs="?", metavar="INPUT",
                         default=argparse.SUPPRESS,
                         help="input JSONL path, or - for stdin")
        sub.add_argument("--input", default=argparse.SUPPRESS,
                         help="input JSONL path, or - for stdin")
        sub.add_argument("--confidence-from", dest="confidence_from",
                         choices=CONFIDENCE_SOURCES, default=argparse.SUPPRESS,
                         help="use stated record confidence or re-derive it by "
                              "aggregating claim confidences")
    sub.add_argument("--out", default=argparse.SUPPRESS,
                     help="output path, or - for stdout")
    sub.add_argument("--format", dest="fmt", default=argparse.SUPPRESS,
                     help="output format (per-command subset of json/csv/jsonl)")
    sub.add_argument("--config", default=argparse.SUPPRESS,
                     help="key = value options file; flags take precedence")


def _add_metric_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--nll-floor", dest="nll_floor", type=float,
                     default=argparse.SUPPRESS,
                     help="NLL clips confidences to [floor, 1 - floor]")
    sub.add_argument("--smece-grid", dest="smece_grid", type=int,
                     default=argparse.SUPPRESS,
                     help="smECE evaluation grid points")


def _add_sweep_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid", type=int, default=argparse.SUPPRESS,
                     help="number of thresholds on [0, 1]")


def _add_objective_options(sub: argparse.ArgumentParser) -> None:
    _add_sweep_options(sub)
    sub.add_argument("--tolerance", type=float, default=argparse.SUPPRESS,
                     help="slack allowed by the objective checks")
    sub.add_argument("--baseline-acc", dest="baseline_acc", type=float,
                     default=argparse.SUPPRESS,
                     help="baseline accuracy (default: the sweep's Acc(0))")
    sub.add_argument("--epsilon-h", dest="epsilon_h", type=float,
                     default=argparse.SUPPRESS,
                     help="hallucination floor for SNR (default: half a count)")
    sub.add_argument("--log-base", dest="log_base", default=argparse.SUPPRESS,
                     help="e (natural, default) or 10")


def build_parser() -> _Parser:
    parser = _Parser(prog="becal",
                     description="behavioral-calibration toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = subs.add_parser("validate", help="check a JSONL dataset")
    _add_common(p)

    p = subs.add_parser("simulate", help="generate a synthetic dataset")
    _add_common(p, with_input=False)
    p.add_argument("--agent", default=argparse.SUPPRESS,
                   help="report map: calibrated, power:G, overconfident:G, "
                        "underconfident:G, constant:C")
    p.add_argument("--difficulty", default=argparse.SUPPRESS,
                   help="difficulty prior: uniform, beta:A,B, points:Q1,Q2,...")
    p.add_argument("--n", type=int, default=argparse.SUPPRESS,
                   help="number of questions")
    p.add_argument("--n-claims", dest="n_claims", type=int,
                   default=argparse.SUPPRESS,
                   help="claims per response (claim-chain mode)")
    p.add_argument("--groups", type=int, default=argparse.SUPPRESS,
                   help="ensemble mode: number of question groups")
    p.add_argument("--samples-per-group", dest="samples_per_group", type=int,
                   default=argparse.SUPPRESS,
                   help="ensemble mode: samples per group")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    p = subs.add_parser("reward", help="score records under a reward")
    _add_common(p)
    p.add_argument("--reward", choices=REWARDS, default=argparse.SUPPRESS)
    p.add_argument("--t", type=float, default=argparse.SUPPRESS,
                   help="risk threshold for explicit/bounded rewards")
    p.add_argument("--prior", default=argparse.SUPPRESS,
                   help="risk prior for the integrated reward: uniform, "
                        "beta00:EPS, table:PATH")
    p.add_argument("--ce-epsilon", dest="ce_epsilon", type=float,
                   default=argparse.SUPPRESS)

    p = subs.add_parser("metrics", help="calibration metric report")
    _add_common(p)
    _add_metric_options(p)
    p.add_argument("--diagram-out", dest="diagram_out", default=argparse.SUPPRESS,
                   help="also write the calibration diagram CSV here")
    p.add_argument("--bandwidth", type=float, default=argparse.SUPPRESS,
                   help="fixed diagram bandwidth (default: the smECE fixed point)")

    p = subs.add_parser("sweep", help="risk-threshold behavioral curves")
    _add_common(p)
    _add_sweep_options(p)

    p = subs.add_parser("objectives", help="four behavioral-objective checks")
    _add_common(p)
    _add_objective_options(p)

    p = subs.add_parser("tts", help="test-time scaling curves")
    _add_common(p)
    p.add_argument("--strategy", default=argparse.SUPPRESS,
                   help="comma list from: " + ", ".join(STRATEGIES))
    p.add_argument("--k", dest="k_values", default=argparse.SUPPRESS,
                   help="comma list of k values")
    p.add_argument("--resamples", dest="n_resamples", type=int,
                   default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    p = subs.add_parser("report", help="metrics + sweep + objectives JSON")
    _add_common(p)
    _add_objective_options(p)
    _add_metric_options(p)
    return parser


def resolve_config(ns: argparse.Namespace) -> RunConfig:
    given = dict(vars(ns))
    command = given.pop("command")
    if "input_pos" in given:
        if "input" in given:
            raise UsageError("input given both positionally and via --input")
        given["input"] = given.pop("input_pos")
    if "k_values" in given and isinstance(given["k_values"], str):
        given["k_values"] = _coerce("k_values", given["k_values"])
    if "strategy" in given and isinstance(given["strategy"], str):
        given["strategy"] = _coerce("strategy", given["strategy"])

    resolved: dict = {}
    if "config" in given:
        resolved.update(_read_config_file(given.pop("config")))
    # environment overrides apply to the default paths only
    if "input" not in resolved and "input" not in given and os.environ.get("BECAL_INPUT"):
        resolved["input"] = os.environ["BECAL_INPUT"]
    if "out" not in resolved and "out" not in given and os.environ.get("BECAL_OUT"):
        resolved["out"] = os.environ["BECAL_OUT"]
    resolved.update(given)

    cfg = RunConfig(command=command, **resolved)
    formats = _FORMATS[command]
    if cfg.fmt is None:
        cfg = RunConfig(**{**vars_of(cfg), "fmt": formats[0]})
    elif cfg.fmt not in formats:
        raise UsageError(f"{command} supports formats {', '.join(formats)}; "
                         f"got {cfg.fmt!r}")
    if cfg.confidence_from not in CONFIDENCE_SOURCES:
        raise UsageError(f"unknown confidence source {cfg.confidence_from!r}")
    if cfg.reward not in REWARDS:
        raise UsageError(f"unknown reward {cfg.reward!r}")
    for name in cfg.strategy:
        if name not in STRATEGIES:
            raise UsageError(f"unknown strategy {name!r}")
    return cfg


def vars_of(cfg: RunConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}


def _config_header(cfg: RunConfig) -> dict:
    header = {k: _clean(v if not isinstance(v, tuple) else list(v))
              for k, v in vars_of(cfg).items()}
    header["rng"] = RNG_ALGORITHM
    header["version"] = __version__
    return header


def _clean(obj):
    """NaN and infinities have no JSON form; they become null."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _emit(cfg: RunConfig, text: str, out: str | None = None,
          sidecar: bool = False) -> None:
    """Write text to `out` (default cfg.out); optionally add a config sidecar."""
    target = cfg.out if out is None else out
    if target == "-":
        sys.stdout.write(text)
        return
    try:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        if sidecar:
            with open(target + ".meta.json", "w", encoding="utf-8") as fh:
                fh.write(_json_text({"config": _config_header(cfg)}))
    except OSError as exc:
        raise UsageError(f"cannot write {target}: {exc}") from None


def _json_text(payload: dict) -> str:
    return json.dumps(_clean(payload), indent=2, allow_nan=False) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if isinstance(x, float) and math.isnan(x) else x
                         for x in row])
    return buf.getvalue()


def _load(cfg: RunConfig) -> Dataset:
    if cfg.input == "-":
        # raw bytes where there are any, so read_jsonl decodes each line itself
        ds = read_jsonl(getattr(sys.stdin, "buffer", sys.stdin), source="<stdin>")
    else:
        ds = load_jsonl(cfg.input)
    if cfg.confidence_from != "stated":
        ds = apply_aggregation(ds, cfg.confidence_from)
    return ds


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(cfg: RunConfig) -> int:
    summary = validate(_load(cfg))
    _emit(cfg, _json_text({"command": "validate", **summary.to_dict(),
                           "config": _config_header(cfg)}))
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    ensemble = cfg.groups is not None or cfg.samples_per_group is not None
    if ensemble:
        if cfg.groups is None or cfg.samples_per_group is None:
            raise UsageError("--groups and --samples-per-group go together")
        ds = generate_ensemble(cfg.groups, cfg.samples_per_group, cfg.seed)
    else:
        spec = AgentSpec(difficulty_prior=parse_difficulty(cfg.difficulty),
                         report_map=parse_report_map(cfg.agent),
                         n_questions=cfg.n, n_claims=cfg.n_claims,
                         seed=cfg.seed)
        ds = generate(spec)
    buf = io.StringIO()
    dump_jsonl(ds, buf)
    _emit(cfg, buf.getvalue(), sidecar=True)
    return 0


def _cmd_reward(cfg: RunConfig) -> int:
    ds = _load(cfg)
    confidences = ds.confidences().tolist()
    prior = parse_prior(cfg.prior) if cfg.reward == "integrated" else None
    scores = []
    for rec, p in zip(ds, confidences):
        if cfg.reward == "explicit":
            r = reward_explicit(decide(p, cfg.t), rec.valid, cfg.t)
        elif cfg.reward == "bounded":
            r = reward_bounded(decide(p, cfg.t), rec.valid, cfg.t)
        elif cfg.reward == "brier":
            r = float(reward_brier(rec.valid, p))
        elif cfg.reward == "ce":
            r = float(reward_ce(rec.valid, p, cfg.ce_epsilon))
        else:
            r = float(reward_integrated(rec.valid, p, prior))
        scores.append((rec.id, r))
    if cfg.fmt == "jsonl":
        lines = "".join(json.dumps({"id": i, "reward": r}) + "\n"
                        for i, r in scores)
        _emit(cfg, lines, sidecar=True)
    else:
        total = sum(r for _, r in scores)
        _emit(cfg, _json_text({"command": "reward", "n": len(scores),
                               "mean": total / len(scores), "total": total,
                               "config": _config_header(cfg)}))
    return 0


def _diagram_rows(diagram) -> list:
    return list(zip((float(x) for x in diagram.grid),
                    (float(x) for x in diagram.smoothed_accuracy),
                    (float(x) for x in diagram.density)))


def _cmd_metrics(cfg: RunConfig) -> int:
    ds = _load(cfg)
    report, fixed_point = metric_report(ds, nll_floor=cfg.nll_floor,
                                        smece_grid=cfg.smece_grid)
    if cfg.fmt == "csv":
        row = [getattr(report, name) for name in MetricReport.CSV_HEADER]
        _emit(cfg, _csv_text(MetricReport.CSV_HEADER, [row]), sidecar=True)
    else:
        _emit(cfg, _json_text({"command": "metrics", **report.to_dict(),
                               "config": _config_header(cfg)}))
    if cfg.diagram_out is not None:
        # display grid, at the smECE fixed-point bandwidth unless pinned
        bandwidth = fixed_point.bandwidth if cfg.bandwidth is None else cfg.bandwidth
        diagram = calibration_diagram(ds, bandwidth)
        text = _csv_text(("grid", "smoothed_accuracy", "density"),
                         _diagram_rows(diagram))
        _emit(cfg, text, out=cfg.diagram_out, sidecar=True)
    return 0


_SWEEP_HEADER = ("t", "acc", "hal", "abs", "tp", "fn")


def _cmd_sweep(cfg: RunConfig) -> int:
    sw = sweep(_load(cfg), default_grid(cfg.grid))
    if cfg.fmt == "json":
        rows = [dict(zip(_SWEEP_HEADER, row)) for row in sw.to_rows()]
        _emit(cfg, _json_text({"command": "sweep", "rows": rows,
                               "config": _config_header(cfg)}))
    else:
        _emit(cfg, _csv_text(_SWEEP_HEADER, sw.to_rows()), sidecar=True)
    return 0


def _objective_report(cfg: RunConfig, ds: Dataset):
    sw = sweep(ds, default_grid(cfg.grid))
    baseline = float(sw.acc[0]) if cfg.baseline_acc is None else cfg.baseline_acc
    return sw, check_objectives(sw, baseline, tolerance=cfg.tolerance,
                                epsilon_h=cfg.epsilon_h, log_base=cfg.log_base)


def _cmd_objectives(cfg: RunConfig) -> int:
    _, rep = _objective_report(cfg, _load(cfg))
    _emit(cfg, _json_text({"command": "objectives", **rep.to_dict(),
                           "config": _config_header(cfg)}))
    return 0


def _cmd_tts(cfg: RunConfig) -> int:
    groups = group_records(_load(cfg))
    curves = {name: scaling_curve(groups, name, cfg.k_values,
                                  cfg.n_resamples, cfg.seed)
              for name in cfg.strategy}
    if cfg.fmt == "json":
        payload = {name: [{"k": pt.k, "accuracy": pt.mean, "stderr": pt.stderr}
                          for pt in curve]
                   for name, curve in curves.items()}
        _emit(cfg, _json_text({"command": "tts", "curves": payload,
                               "config": _config_header(cfg)}))
    else:
        rows = [(name, pt.k, pt.mean, pt.stderr)
                for name in cfg.strategy for pt in curves[name]]
        _emit(cfg, _csv_text(("strategy", "k", "accuracy", "stderr"), rows),
              sidecar=True)
    return 0


def _cmd_report(cfg: RunConfig) -> int:
    ds = _load(cfg)
    report, _ = metric_report(ds, nll_floor=cfg.nll_floor,
                              smece_grid=cfg.smece_grid)
    sw, rep = _objective_report(cfg, ds)
    rows = [dict(zip(_SWEEP_HEADER, row)) for row in sw.to_rows()]
    _emit(cfg, _json_text({"command": "report", "metrics": report.to_dict(),
                           "sweep": rows, "objectives": rep.to_dict(),
                           "config": _config_header(cfg)}))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "reward": _cmd_reward,
    "metrics": _cmd_metrics,
    "sweep": _cmd_sweep,
    "objectives": _cmd_objectives,
    "tts": _cmd_tts,
    "report": _cmd_report,
}


def run(config: RunConfig) -> int:
    return _COMMANDS[config.command](config)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return run(resolve_config(ns))
    except ToolkitError as exc:
        print(f"becal: error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            return 1
        if isinstance(exc, DataError):
            return 2
        if isinstance(exc, DomainError):
            return 3
        return 1


if __name__ == "__main__":
    sys.exit(main())
