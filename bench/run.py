"""Benchmark of the becal CLI: one workload per run, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it tests the checkout's own
src/becal. The load is a closed loop from one process: one CLI child at a time.

--trace 0 runs the workload's pipeline of `python -m becal` children again and
again for S seconds (at least twice), with cold starts of `python -m becal
--version` (setup_s) before each repetition. Each child is reaped with
os.wait4, so its CPU time and peak RSS are its own. Between repetitions a
reference child runs a fixed computation that does not touch becal. wall_rel
and cpu_rel are a pipeline's wall and CPU time divided by those of the two
reference children around it; the host's speed drifts by a third over tens of
seconds, and the ratio cancels that drift where seconds cannot. It reports
wall_rel, cpu_rel and peak_rss_mb per pipeline and setup_s per start as
medians over the run; the plain seconds go to the human-readable lines.

--trace 1 alternates untraced and traced passes of the same commands run in
process by bench/tracer.py, and reports per-layer metrics from the spans.

Every run checks each output against the independent oracles in
bench/oracles.py, checks that repetitions (and traced against untraced
passes) wrote byte-identical files, and counts every invocation that exited
non-zero or failed a check. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Everything else the run
measured goes to .bench_work/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
STARTS_PER_REP = 1
MIN_REPS = 2
# The reference: interpreter start, numpy import, a bytecode loop, a JSON round
# trip, Philox generators and array work, the mix a becal child runs. It never
# changes, so a ratio to it moves only when becal does.
REFERENCE = """\
import json
import numpy as np
s = 0
for i in range(700_000):
    s += i * i % 7
rows = [json.dumps({"id": f"r{i}", "valid": i % 3 == 0, "confidence": (i % 97) / 97})
        for i in range(20_000)]
total = sum(r["confidence"] for r in map(json.loads, rows) if r["valid"])
for i in range(700):
    x = np.sort(np.random.Generator(np.random.Philox(i)).random(256) + total)
x = np.arange(1_000_000, dtype=float)
for _ in range(10):
    x = np.sqrt(x * x + 1.0)
"""
DEADLINE_S = 165.0
COMMANDS = ("simulate", "reward", "sweep", "objectives", "report", "tts")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Child:
    label: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    rc: int


class Ledger:
    """CLI invocations attempted, and the failed checks of each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}

    def fail(self, label: str, message: str) -> None:
        self.failures.setdefault(label, []).append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Runner:
    """Starts CLI children one at a time and accounts for each."""

    def __init__(self, ledger: Ledger, deadline: float) -> None:
        self.ledger = ledger
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}

    def spawn(self, argv: list[str], cwd: Path, label: str, cli: bool = True) -> Child:
        """Run one child to completion; it is killed if it outlives the run's deadline.

        Only children that run becal (`cli`) count as attempted invocations;
        every child's non-zero exit is a failure.
        """
        stem = cwd / label.replace("/", "_")
        self.ledger.attempted += cli
        with open(f"{stem}.stdout", "wb") as out, open(f"{stem}.stderr", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = Path(f"{stem}.stderr").read_text(errors="replace").strip()[-300:]
            self.ledger.fail(label, f"exit code {proc.returncode}: {tail}")
        return Child(label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                     proc.returncode)

    def pipeline(self, workload: workloads.Workload, rep: Path,
                 prefix) -> list[Child]:
        """One repetition: every step of the workload, in order, inside `rep`."""
        rep.mkdir()
        return [self.spawn([*prefix(step), *step.argv], rep, f"{rep.name}/{step.command}")
                for step in workload.steps]


def compare_outputs(workload: workloads.Workload, first: Path, other: Path,
                    ledger: Ledger) -> None:
    """Determinism: every output of `other` must equal `first` byte for byte."""
    for step in workload.steps:
        for name in step.outputs:
            a, b = first / name, other / name
            if (a.read_bytes() if a.exists() else None) != \
                    (b.read_bytes() if b.exists() else None):
                ledger.fail(f"{other.name}/{step.command}",
                            f"{name} differs from {first.name}/{name}")


def verify(workload: workloads.Workload, reps: list[Path], ledger: Ledger) -> None:
    """Oracles on the first repetition, byte identity of the others against it."""
    checks = oracles.verify(workload.name, reps[0], reps[0].parent / workloads.INPUT)
    for command, messages in checks.items():
        for message in messages:
            ledger.fail(f"{reps[0].name}/{command}", message)
    for other in reps[1:]:
        compare_outputs(workload, reps[0], other, ledger)


def make_input(workload: workloads.Workload, seed: int, work: Path,
               ledger: Ledger) -> None:
    if workload.make_input is None:
        return
    data = workload.make_input(seed)
    if workload.make_input(seed) != data:
        ledger.fail("input", "the generator gave different bytes for the same seed")
    (work / workloads.INPUT).write_bytes(data)


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():  # a plain source checkout has no history to ask
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(workload, seed, seconds, runner, work) -> tuple[dict, dict]:
    python = sys.executable
    make_input(workload, seed, work, runner.ledger)

    def reference() -> Child:
        return runner.spawn([python, "-c", REFERENCE], work, f"ref{len(refs)}", cli=False)

    reps: list[list[Child]] = []
    starts: list[Child] = []
    refs: list[Child] = []
    refs.append(reference())
    begin = last = perf_counter()
    lap = 0.0
    while len(reps) < MIN_REPS or perf_counter() - begin + lap < seconds:
        if reps and perf_counter() + lap > runner.deadline - 15.0:
            break
        for _ in range(STARTS_PER_REP):
            starts.append(runner.spawn([python, "-m", "becal", "--version"], work,
                                       f"setup{len(starts)}"))
        reps.append(runner.pipeline(workload, work / f"rep{len(reps)}",
                                    lambda step: [python, "-m", "becal"]))
        refs.append(reference())
        lap, last = perf_counter() - last, perf_counter()
    for child in starts:
        text = (work / f"{child.label}.stdout").read_text(errors="replace")
        if child.rc == 0 and not text.startswith("becal "):
            runner.ledger.fail(child.label, f"unexpected --version output {text!r}")
    verify(workload, [work / f"rep{i}" for i in range(len(reps))], runner.ledger)

    wall = [sum(c.wall_s for c in rep) for rep in reps]
    cpu = [sum(c.cpu_s for c in rep) for rep in reps]
    around = list(zip(refs, refs[1:]))  # the reference children before and after each rep
    samples = {
        "wall_rel": [w / ((a.wall_s + b.wall_s) / 2) for w, (a, b) in zip(wall, around)],
        "cpu_rel": [c / ((a.cpu_s + b.cpu_s) / 2) for c, (a, b) in zip(cpu, around)],
        "peak_rss_mb": [max(c.maxrss_kb for c in rep) / 1024.0 for rep in reps],
        "setup_s": [c.wall_s for c in starts],
    }
    seconds_taken = {"wall_s": wall, "cpu_s": cpu,
                     "reference_wall_s": [r.wall_s for r in refs],
                     "reference_cpu_s": [r.cpu_s for r in refs]}
    steps = {c.label: [c.wall_s, c.cpu_s, c.maxrss_kb / 1024.0] for rep in reps for c in rep}
    return samples, {"samples": samples, "seconds": seconds_taken, "children": steps}


def traced(workload, seed, seconds, runner, work) -> tuple[dict, dict]:
    python = sys.executable
    script = str(Path(__file__).resolve().parent / "tracer.py")
    make_input(workload, seed, work, runner.ledger)

    def prefix(mode):
        return lambda step: [python, script, mode, f"{step.command}.trace.json", "--"]

    def results(rep: Path) -> list[dict]:
        out = []
        for step in workload.steps:
            path = rep / f"{step.command}.trace.json"
            if not path.exists():
                continue  # the child failed, which the ledger already holds
            result = json.loads(path.read_text(encoding="utf-8"))
            if not result["restored"]:
                runner.ledger.fail(f"{rep.name}/{step.command}",
                                   "a rebound name was not restored")
            out.append(result)
        return out

    untraced: list[list[Child]] = []
    begin = last = perf_counter()
    lap = 0.0
    while not untraced or perf_counter() - begin + lap < seconds:
        i = len(untraced)
        untraced.append(runner.pipeline(workload, work / f"off{i}", prefix("off")))
        runner.pipeline(workload, work / f"on{i}", prefix("on"))
        lap, last = perf_counter() - last, perf_counter()
    dirs = [work / f"{mode}{i}" for i in range(len(untraced)) for mode in ("on", "off")]
    verify(workload, dirs, runner.ledger)

    samples: dict[str, list[float]] = {}
    for i, children in enumerate(untraced):
        on, off = results(work / f"on{i}"), results(work / f"off{i}")
        metrics = tracer.layer_metrics(on)
        for command in COMMANDS:
            metrics[f"cli.{command}_s"] = sum(c.wall_s for c in children
                                              if c.label.endswith("/" + command))
        metrics["cli.output_bytes"] = sum(
            (work / f"on{i}" / name).stat().st_size
            for step in workload.steps for name in step.outputs
            if (work / f"on{i}" / name).exists())
        metrics["trace.overhead_s"] = (sum(r["main_s"] for r in on)
                                       - sum(r["main_s"] for r in off))
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
    return samples, {"samples": samples}


def unit(name: str) -> str:
    for suffix, u in (("_per_s", "1/s"), ("us_per_record", "us"), ("ns_per_claim", "ns"),
                      ("_mb", "MB"), ("_share", "ratio"), ("_rel", "ratio"),
                      ("_bytes", "bytes"), ("_s", "s")):
        if name.endswith(suffix):
            return u
    return "s" if "_s." in name else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "becal" / "__init__.py").is_file():
        print(f"bench: no becal sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    runner = Runner(ledger, start + DEADLINE_S)
    env = environment()
    measure = traced if args.trace else end_to_end
    try:
        samples, detail = measure(workload, args.seed, args.seconds, runner, work)
    finally:
        env["loadavg_end"] = os.getloadavg()
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": median(values), "unit": unit(name)}
               for name, values in samples.items()}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(
        {"environment": env, "attempted": ledger.attempted, "failures": ledger.failures,
         "metrics": metrics, **detail}, indent=1), encoding="utf-8")
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}, "
          f"{ledger.attempted} invocations in {perf_counter() - start:.1f} s")
    print("environment " + json.dumps(env))
    for name, values in {**samples, **detail.get("seconds", {})}.items():
        print(f"  {name:28s} median {median(values):12.6g} {unit(name):6s} "
              f"max {max(values):12.6g}  n={len(values)}")
    print(f"  {'failed_frac':28s} {ledger.failed}/{ledger.attempted}")
    for label, messages in ledger.failures.items():
        for message in messages:
            print(f"FAILED {label}: {message}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
