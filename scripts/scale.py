"""Scale ladder: wall time and peak RSS of each becal command as n grows.

    python3 scripts/scale.py [--sizes 10000,100000,1000000] [--out PATH]

For each n it simulates n flat records and n four-claim chains, runs
validate, reward, metrics, sweep, objectives and report on the flat records,
then reward and sweep on the chains, with each record's confidence the
product of its claims'.
Every command is its own `python -m becal` child of this checkout's src/,
reaped with os.wait4, so the wall time, CPU time and peak RSS (ru_maxrss) it
reports are that child's alone. Inputs and outputs live in a temporary
directory that is removed at the end; the largest (1e6 chains) is about
360 MB.

It writes one JSON document (default BENCH_scale.json at the repo root): the
git revision, host notes, and one row per (command, n). Peak RSS repeats
from run to run; on a shared host wall times drift with the host's load, so
compare them only between runs made back to back.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _steps(n: int) -> list[tuple[str, list[str], str]]:
    """(name, becal argv, output file) in the order they run."""
    flat, chain, product = "flat.jsonl", "chain.jsonl", ["--confidence-from", "product"]
    return [
        ("simulate", ["simulate", "--n", str(n), "--seed", "0"], flat),
        ("simulate --n-claims 4",
         ["simulate", "--n", str(n), "--n-claims", "4", "--seed", "0"], chain),
        ("validate", ["validate", flat], "validate.json"),
        ("reward", ["reward", flat, "--format", "jsonl"], "reward.jsonl"),
        ("metrics", ["metrics", flat], "metrics.json"),
        ("sweep", ["sweep", flat], "sweep.csv"),
        ("objectives", ["objectives", flat], "objectives.json"),
        ("report", ["report", flat], "report.json"),
        ("reward --confidence-from product",
         ["reward", chain, *product, "--format", "jsonl"], "reward_chain.jsonl"),
        ("sweep --confidence-from product", ["sweep", chain, *product], "sweep_chain.csv"),
    ]


def _child(argv: list[str], cwd: str) -> dict:
    """Run one becal child; its wall and CPU seconds, peak RSS and exit status."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with open(Path(cwd, "stderr.txt"), "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "becal", *argv], cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        row = {"wall_s": round(wall, 3), "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
               "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1), "rc": proc.returncode}
        if proc.returncode:
            err.seek(0)
            row["stderr"] = err.read().decode("utf-8", "replace").strip()[-300:]
    return row


def _revision() -> str | None:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _host() -> dict:
    notes = {"python": platform.python_version(), "numpy": np.__version__,
             "platform": platform.platform(), "cpus": os.cpu_count()}
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            notes["mem_total_mb"] = int(fh.readline().split()[1]) // 1024
    except (OSError, ValueError, IndexError):
        pass
    notes["load_avg_1m_before"] = round(os.getloadavg()[0], 2)
    return notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="10000,100000,1000000",
                        help="comma list of record counts")
    parser.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    args = parser.parse_args(argv)
    sizes = [int(x) for x in args.sizes.split(",")]
    doc = {"revision": _revision(), "host": _host(), "rows": []}
    with tempfile.TemporaryDirectory(prefix="becal-scale-") as work:
        for n in sizes:
            for name, command, out in _steps(n):
                row = {"command": name, "n": n, **_child([*command, "--out", out], work)}
                path = Path(work, out)
                row["output_bytes"] = path.stat().st_size if path.exists() else None
                doc["rows"].append(row)
                print(json.dumps(row), flush=True)
    doc["host"]["load_avg_1m_after"] = round(os.getloadavg()[0], 2)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    failed = [r for r in doc["rows"] if r["rc"]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
