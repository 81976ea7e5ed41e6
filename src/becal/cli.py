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

build_parser() is the one option table. Option precedence: command-line
flags beat a --config file, which beats the BECAL_INPUT / BECAL_OUT
environment overrides for the default input/output paths, which beat
built-in defaults. A config file holds `key = value` lines whose keys are the
command's long flag names (- and _ alike) plus `input`; its values are parsed
by the same subparser as the flags. `-` means stdin or stdout.

JSON outputs embed the command's resolved options under "config"; CSV and
JSONL files get a `<out>.meta.json` sidecar instead, unless `<out>` is a
symlink, device or pipe. The header lists exactly the options of the command
that ran, under config-file keys, plus command, rng and version, so written
back as a config file it replays the run.

Exit codes: 1 usage, 2 data, 3 numeric domain or a size that does not fit in
memory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from typing import IO, Callable

from . import __version__
from .errors import DataError, DomainError, ToolkitError, UsageError, check_range
from .model import Dataset, dump_jsonl, load_jsonl, read_jsonl, validate
from .claims import apply_aggregation
from .rewards import (decide, parse_prior, reward_bounded, reward_brier,
                      reward_ce, reward_explicit, reward_integrated)
from .metrics import _MIN_BANDWIDTH, MetricReport, calibration_diagram, metric_report
from .behavior import check_objectives, default_grid, sweep
from .simulate import (RNG_ALGORITHM, AgentSpec, generate, generate_ensemble,
                       parse_difficulty, parse_report_map)
from .tts import STRATEGIES, group_records, scaling_curve

REWARDS = ("explicit", "bounded", "brier", "ce", "integrated")
CONFIDENCE_SOURCES = ("stated", "product", "min")


def _distinct(items: tuple, text: str) -> tuple:
    if not items or len(set(items)) < len(items):
        raise argparse.ArgumentTypeError(f"empty list or repeated item: {text!r}")
    return items


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return _distinct(tuple(int(x) for x in text.split(",")), text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None


def _strategy_list(text: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    for name in names:
        if name not in STRATEGIES:
            raise argparse.ArgumentTypeError(f"unknown strategy {name!r}")
    return _distinct(names, text)


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # the subcommand parsers, set by build_parser

    def error(self, message: str):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def _add_common(sub: argparse.ArgumentParser, formats: tuple[str, ...] = (),
                with_input: bool = True) -> None:
    """Input, --out and --config for every command; --format where it has a choice."""
    if with_input:
        sub.add_argument("input", nargs="?", metavar="INPUT",
                         default=os.environ.get("BECAL_INPUT") or "-",
                         help="input JSONL path, or - for stdin "
                              "(default: $BECAL_INPUT, else -)")
        sub.add_argument("--confidence-from", choices=CONFIDENCE_SOURCES,
                         default="stated",
                         help="use stated record confidence or re-derive it by "
                              "aggregating claim confidences")
    sub.add_argument("--out", default=os.environ.get("BECAL_OUT") or "-",
                     help="output path, or - for stdout (default: $BECAL_OUT, else -)")
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0],
                         help="output format")
    sub.add_argument("--config", default=argparse.SUPPRESS,
                     help="key = value options file; flags take precedence")


def _add_metric_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--nll-floor", type=float, default=1e-6,
                     help="NLL clips confidences to [floor, 1 - floor]")
    sub.add_argument("--smece-grid", type=int, default=512,
                     help="smECE evaluation grid points")


def _add_sweep_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid", type=int, default=101,
                     help="number of thresholds on [0, 1]")


def _add_objective_options(sub: argparse.ArgumentParser) -> None:
    _add_sweep_options(sub)
    sub.add_argument("--tolerance", type=float, default=0.05,
                     help="slack allowed by the objective checks")
    sub.add_argument("--baseline-acc", type=float,
                     help="baseline accuracy (default: the sweep's Acc(0))")
    sub.add_argument("--epsilon-h", type=float,
                     help="hallucination floor for SNR (default: half a count)")
    sub.add_argument("--log-base", default="e",
                     help="e (natural, default) or 10")


def build_parser() -> _Parser:
    """The one option table: every option's name, type, choices, default and help."""
    parser = _Parser(prog="becal",
                     description="behavioral-calibration toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    parser.commands = subs.choices

    p = subs.add_parser("validate", help="check a JSONL dataset")
    _add_common(p)

    p = subs.add_parser("simulate", help="generate a synthetic dataset")
    _add_common(p, with_input=False)
    # the flat-mode options default to None, so ensemble mode can refuse them
    # when given; _cmd_simulate resolves them from _FLAT_DEFAULTS
    p.add_argument("--agent",
                   help="report map: calibrated (default), power:G, overconfident:G, "
                        "underconfident:G, constant:C")
    p.add_argument("--difficulty",
                   help="difficulty prior: uniform (default), beta:A,B, points:Q1,Q2,...")
    p.add_argument("--n", type=int, help="number of questions (default: 1000)")
    p.add_argument("--n-claims", type=int,
                   help="claims per response (claim-chain mode)")
    p.add_argument("--groups", type=int,
                   help="ensemble mode: number of question groups")
    p.add_argument("--samples-per-group", type=int,
                   help="ensemble mode: samples per group")
    p.add_argument("--seed", type=int, default=0)

    p = subs.add_parser("reward", help="score records under a reward")
    _add_common(p, ("json", "jsonl"))
    p.add_argument("--reward", choices=REWARDS, default="explicit")
    p.add_argument("--t", type=float, default=0.5,
                   help="risk threshold for explicit/bounded rewards")
    p.add_argument("--prior", default="uniform",
                   help="risk prior for the integrated reward: uniform, "
                        "beta00:EPS, table:PATH")
    p.add_argument("--ce-epsilon", type=float, default=0.01)

    p = subs.add_parser("metrics", help="calibration metric report")
    _add_common(p, ("json", "csv"))
    _add_metric_options(p)
    p.add_argument("--diagram-out",
                   help="also write the calibration diagram CSV here")
    p.add_argument("--bandwidth", type=float,
                   help="fixed diagram bandwidth (default: the smECE fixed point)")

    p = subs.add_parser("sweep", help="risk-threshold behavioral curves")
    _add_common(p, ("csv", "json"))
    _add_sweep_options(p)

    p = subs.add_parser("objectives", help="four behavioral-objective checks")
    _add_common(p)
    _add_objective_options(p)

    p = subs.add_parser("tts", help="test-time scaling curves")
    _add_common(p, ("csv", "json"))
    p.add_argument("--strategy", type=_strategy_list, default=STRATEGIES,
                   help="comma list from: " + ", ".join(STRATEGIES))
    p.add_argument("--k", type=_int_list, default=(1, 2, 4, 8),
                   help="comma list of k values")
    p.add_argument("--resamples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = subs.add_parser("report", help="metrics + sweep + objectives JSON")
    _add_common(p)
    _add_objective_options(p)
    _add_metric_options(p)
    return parser


def _read_config_file(sub: argparse.ArgumentParser, path: str) -> dict:
    """A --config file's key = value lines, as defaults for one command's parser.

    Keys are the command's long flag names, with - and _ alike, plus `input`
    for the positional. Each value is converted and checked exactly as the
    flag's own argument would be.
    """
    options = vars(sub.parse_args([]))
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, value = line.partition("=")
                key, value = key.strip().replace("-", "_"), value.strip()
                try:
                    if not eq:
                        raise UsageError("expected key = value")
                    if key not in options:
                        raise UsageError(f"unknown option {key!r}")
                    if key == "input":
                        out[key] = value
                    else:
                        flag = "--" + key.replace("_", "-")
                        out[key] = getattr(sub.parse_args([f"{flag}={value}"]), key)
                except UsageError as exc:
                    raise UsageError(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return out


def parse_options(argv: list[str] | None = None) -> argparse.Namespace:
    """The command's resolved options, plus `command`, as one namespace.

    Precedence: flags, then a --config file, then $BECAL_INPUT / $BECAL_OUT
    for the default paths, then built-in defaults.
    """
    parser = build_parser()
    ns = parser.parse_args(argv)
    path = vars(ns).pop("config", None)
    if path is not None:
        sub = parser.commands[ns.command]
        sub.set_defaults(**_read_config_file(sub, path))
        ns = parser.parse_args(argv)
        del ns.config
    return ns


def _config_header(ns: argparse.Namespace) -> dict:
    return {**vars(ns), "rng": RNG_ALGORITHM, "version": __version__}


def _clean(obj):
    """NaN and infinities have no JSON form; they become null."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _written_through(path: str) -> bool:
    """A symlink, pipe or device: anything there but a regular file."""
    return os.path.lexists(path) and (os.path.islink(path) or not os.path.isfile(path))


def _emit(ns: argparse.Namespace, write: Callable[[IO[str]], object],
          out: str | None = None, sidecar: bool = True) -> None:
    """Write `out` (default ns.out) by calling write(fh) on an open text file,
    with a config sidecar, or without one for a JSON document, which embeds
    its config. The writer streams its output, so no copy of it is held.

    Files appear complete or not at all: each is written to a temporary file
    beside its target and moved into place only after every write succeeded,
    the sidecar before the output, so a failure, in the writer or in the file
    system, leaves the old output intact and no temporary file behind. A
    symlink, pipe or device (say /dev/stdout) is written through instead,
    since replacing it would replace the link or device node itself, and gets
    no sidecar: /dev/stdout, say, is a link even when it leads to a file.
    """
    target = ns.out if out is None else out
    if target == "-":
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except OSError as exc:
            # the reader went away, say: the flush at exit goes to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise UsageError(f"cannot write -: {exc}") from None
        return
    files = [(target, write)]
    if sidecar and not _written_through(target):
        header = _json_text({"config": _config_header(ns)})
        files.append((target + ".meta.json", lambda fh: fh.write(header)))
    moves = []
    try:
        for path, writer in files:
            if _written_through(path):
                with open(path, "w", encoding="utf-8") as fh:
                    writer(fh)
                continue
            temp = f"{path}.{os.getpid()}.tmp"
            with open(temp, "x", encoding="utf-8") as fh:
                moves.append((temp, path))
                writer(fh)
        for temp, path in reversed(moves):
            os.replace(temp, path)
    except OSError as exc:
        raise UsageError(f"cannot write {target}: {exc}") from None
    finally:
        for temp, _ in moves:
            with contextlib.suppress(OSError):  # moved, or nothing more to do
                os.remove(temp)


def _json_text(payload: dict) -> str:
    return json.dumps(_clean(payload), indent=2, allow_nan=False) + "\n"


def _write_json(ns: argparse.Namespace, payload: dict) -> None:
    """The command's JSON document: "command", the payload, then the header as "config"."""
    text = _json_text({"command": ns.command, **payload, "config": _config_header(ns)})
    _emit(ns, lambda fh: fh.write(text), sidecar=False)


def _write_csv(ns: argparse.Namespace, header, rows, out: str | None = None) -> None:
    """A CSV file (NaN cells left empty) with its config sidecar."""
    def write(fh: IO[str]) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(["" if isinstance(x, float) and math.isnan(x) else x for x in row]
                         for row in rows)
    _emit(ns, write, out)


def _load(ns: argparse.Namespace) -> Dataset:
    if ns.input == "-":
        # raw bytes where there are any, so read_jsonl decodes each line itself
        ds = read_jsonl(getattr(sys.stdin, "buffer", sys.stdin), source="<stdin>")
    else:
        ds = load_jsonl(ns.input)
    if ns.confidence_from != "stated":
        ds = apply_aggregation(ds, ns.confidence_from)
    return ds


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(ns: argparse.Namespace) -> int:
    _write_json(ns, validate(_load(ns)).to_dict())
    return 0


# the options only flat mode uses, with their defaults there (no --n-claims:
# records without claims)
_FLAT_DEFAULTS = {"agent": "calibrated", "difficulty": "uniform", "n": 1000, "n_claims": None}


def _cmd_simulate(ns: argparse.Namespace) -> int:
    ensemble = ns.groups is not None or ns.samples_per_group is not None
    if ensemble:
        if ns.groups is None or ns.samples_per_group is None:
            raise UsageError("--groups and --samples-per-group go together")
        given = ["--" + name.replace("_", "-") for name in _FLAT_DEFAULTS
                 if getattr(ns, name) is not None]
        if given:
            raise UsageError(f"ensemble mode does not take {', '.join(given)}")
        ds = generate_ensemble(ns.groups, ns.samples_per_group, ns.seed)
    else:
        for name, default in _FLAT_DEFAULTS.items():  # recorded in the sidecar as used
            if getattr(ns, name) is None:
                setattr(ns, name, default)
        spec = AgentSpec(difficulty_prior=parse_difficulty(ns.difficulty),
                         report_map=parse_report_map(ns.agent),
                         n_questions=ns.n, n_claims=ns.n_claims,
                         seed=ns.seed)
        ds = generate(spec)
    _emit(ns, lambda fh: dump_jsonl(ds, fh))
    return 0


def _cmd_reward(ns: argparse.Namespace) -> int:
    ds = _load(ns)
    p, v = ds.confidences(), ds.valids()
    if ns.reward in ("explicit", "bounded"):
        # per record, so every decision goes through the one tie rule
        reward = reward_explicit if ns.reward == "explicit" else reward_bounded
        scores = [reward(decide(pi, ns.t), vi, ns.t)
                  for pi, vi in zip(p.tolist(), v.tolist())]
    elif ns.reward == "brier":
        scores = reward_brier(v, p).tolist()
    elif ns.reward == "ce":
        scores = reward_ce(v, p, ns.ce_epsilon).tolist()
    else:
        scores = reward_integrated(v, p, parse_prior(ns.prior)).tolist()
    if ns.format == "jsonl":
        _emit(ns, lambda fh: fh.writelines(json.dumps({"id": rid, "reward": r}) + "\n"
                                           for rid, r in zip(ds.ids, scores)))
    else:
        total = sum(scores)
        _write_json(ns, {"n": len(scores), "mean": total / len(scores),
                         "total": total})
    return 0


def _cmd_metrics(ns: argparse.Namespace) -> int:
    if ns.bandwidth is not None:  # checked before anything is read or written
        check_range("bandwidth", ns.bandwidth, _MIN_BANDWIDTH, math.inf, "[)")
    ds = _load(ns)
    report, bandwidth = metric_report(ds, nll_floor=ns.nll_floor,
                                      smece_grid=ns.smece_grid)
    if ns.diagram_out is not None:
        if ns.bandwidth is None and bandwidth is None:
            raise DataError(f"--diagram-out needs --bandwidth: {report.undefined['smece']}")
        # display grid, at the smECE fixed-point bandwidth unless pinned; made
        # before any file is written, so a failure here leaves none behind
        diagram = calibration_diagram(ds, bandwidth if ns.bandwidth is None
                                      else ns.bandwidth)
    if ns.format == "csv":
        _write_csv(ns, MetricReport.CSV_HEADER,
                   [[getattr(report, name) for name in MetricReport.CSV_HEADER]])
    else:
        _write_json(ns, {**report.to_dict(), "undefined": report.undefined})
    if ns.diagram_out is not None:
        _write_csv(ns, ("grid", "smoothed_accuracy", "density"),
                   zip(diagram.grid.tolist(), diagram.smoothed_accuracy.tolist(),
                       diagram.density.tolist()), out=ns.diagram_out)
    return 0


_SWEEP_HEADER = ("t", "acc", "hal", "abs", "tp", "fn")


def _cmd_sweep(ns: argparse.Namespace) -> int:
    sw = sweep(_load(ns), default_grid(ns.grid))
    if ns.format == "json":
        rows = [dict(zip(_SWEEP_HEADER, row)) for row in sw.to_rows()]
        _write_json(ns, {"rows": rows})
    else:
        _write_csv(ns, _SWEEP_HEADER, sw.to_rows())
    return 0


def _objective_report(ns: argparse.Namespace, ds: Dataset):
    sw = sweep(ds, default_grid(ns.grid))
    baseline = float(sw.acc[0]) if ns.baseline_acc is None else ns.baseline_acc
    return sw, check_objectives(sw, baseline, tolerance=ns.tolerance,
                                epsilon_h=ns.epsilon_h, log_base=ns.log_base)


def _cmd_objectives(ns: argparse.Namespace) -> int:
    _, rep = _objective_report(ns, _load(ns))
    _write_json(ns, {**rep.to_dict(), "undefined": rep.undefined})
    return 0


def _cmd_tts(ns: argparse.Namespace) -> int:
    groups = group_records(_load(ns))
    curves = {name: scaling_curve(groups, name, ns.k, ns.resamples, ns.seed)
              for name in ns.strategy}
    if ns.format == "json":
        _write_json(ns, {"curves": {
            name: [{"k": pt.k, "accuracy": pt.mean, "stderr": pt.stderr,
                    "exact": pt.exact,
                    "groups": {"closed_form": pt.closed_form, "tabled": pt.tabled,
                               "drawn": pt.drawn},
                    "states": pt.states, "draws": pt.draws}
                   for pt in curve]
            for name, curve in curves.items()}})
    else:
        _write_csv(ns, ("strategy", "k", "accuracy", "stderr", "exact"),
                   [(name, pt.k, pt.mean, pt.stderr, "true" if pt.exact else "false")
                    for name in ns.strategy for pt in curves[name]])
    return 0


def _cmd_report(ns: argparse.Namespace) -> int:
    ds = _load(ns)
    report, _ = metric_report(ds, nll_floor=ns.nll_floor,
                              smece_grid=ns.smece_grid)
    sw, rep = _objective_report(ns, ds)
    rows = [dict(zip(_SWEEP_HEADER, row)) for row in sw.to_rows()]
    _write_json(ns, {"metrics": report.to_dict(),
                     "undefined": {**report.undefined, **rep.undefined},
                     "sweep": rows, "objectives": rep.to_dict()})
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


def main(argv: list[str] | None = None) -> int:
    try:
        ns = parse_options(argv)
        return _COMMANDS[ns.command](ns)
    except ToolkitError as exc:
        print(f"becal: error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            return 1
        if isinstance(exc, DataError):
            return 2
        if isinstance(exc, DomainError):
            return 3
        return 1
    except MemoryError as exc:  # a size within the count rule that still does not fit
        print(f"becal: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
