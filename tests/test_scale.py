"""scripts/scale.py runs every command it measures, each as its own child."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scale.py"


def test_scale_ladder_records_every_command(tmp_path):
    out = tmp_path / "scale.json"
    subprocess.run([sys.executable, str(SCRIPT), "--sizes", "40", "--out", str(out)],
                   check=True, capture_output=True, timeout=120)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert [row["command"] for row in doc["rows"]] == [
        "simulate", "simulate --n-claims 4", "validate", "reward", "metrics", "sweep",
        "objectives", "report", "reward --confidence-from product",
        "sweep --confidence-from product", "simulate --groups", "tts", "validate logs",
        "metrics logs", "sweep logs", "report logs"]
    for row in doc["rows"]:
        assert row["n"] == 40 and row["rc"] == 0, row
        assert row["peak_rss_mb"] > 0 and row["output_bytes"] > 0
    assert {"python", "numpy", "cpus"} <= doc["host"].keys()
