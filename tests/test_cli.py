"""CLI surface: exit codes, formats, precedence, streaming, determinism."""

import csv
import io
import json
import subprocess
import sys

import pytest

from becal.cli import main


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


def plain_rows(pairs):
    return [{"id": f"r{i}", "valid": v, "confidence": p}
            for i, (p, v) in enumerate(pairs)]


def grouped_rows(rows):
    return [{"id": f"r{i}", "group": g, "answer": a, "confidence": c, "valid": v}
            for i, (g, a, c, v) in enumerate(rows)]


@pytest.fixture()
def small_input(tmp_path):
    return write_jsonl(tmp_path / "in.jsonl",
                       plain_rows([(0.9, True), (0.4, False), (0.7, True),
                                   (0.2, False)]))


class TestExitCodes:
    def test_unknown_flag(self, small_input, capsys):
        assert main(["metrics", small_input, "--nonsense"]) == 1
        assert "becal: error" in capsys.readouterr().err

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_input_file(self, capsys):
        assert main(["metrics", "/no/such/file.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_record(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "bad.jsonl",
                           [{"id": "a", "valid": True, "confidence": 0.5},
                            {"id": "b", "valid": True, "confidence": 1.5}])
        assert main(["metrics", path]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_numeric_domain(self, small_input):
        assert main(["sweep", small_input, "--grid", "1"]) == 3

    def test_tts_k_exceeds_group(self, tmp_path):
        path = write_jsonl(tmp_path / "g.jsonl", grouped_rows(
            [("g", "A", 0.5, True), ("g", "B", 0.5, False)]))
        assert main(["tts", path, "--k", "5"]) == 3

    def test_conflicting_inputs(self, small_input):
        assert main(["metrics", small_input, "--input", small_input]) == 1

    def test_format_must_match_command(self, small_input):
        assert main(["metrics", small_input, "--format", "yaml"]) == 1
        assert main(["objectives", small_input, "--format", "csv"]) == 1

    def test_ensemble_needs_both_flags(self):
        assert main(["simulate", "--groups", "3"]) == 1

    def test_bad_agent_spec(self):
        assert main(["simulate", "--agent", "overconfident:2", "--n", "10"]) == 1


GOOD_LINE = b'{"id":"a","valid":true,"confidence":0.5}\n'
HUGE_INT = b"1" + b"0" * 400

BAD_SECOND_LINES = {
    "huge-int-confidence":
        b'{"id":"b","valid":true,"confidence":' + HUGE_INT + b"}\n",
    "huge-int-claim-confidence":
        b'{"id":"b","valid":true,"claims":[{"text":"s","confidence":'
        + HUGE_INT + b"}]}\n",
    "nan-confidence": b'{"id":"b","valid":true,"confidence":NaN}\n',
    "invalid-utf8": b'{"id":"b\xff","valid":true}\n',
    "integer-past-digit-limit":
        b'{"id":"b","valid":true,"n":' + b"7" * 5000 + b"}\n",
    "deep-nesting": b"[" * 100_000 + b"\n",
    "non-string-id": b'{"id":7,"valid":true}\n',
    "duplicate-id": GOOD_LINE,
}


class TestMalformedInput:
    """Every malformed line exits 2 with a message naming the source and line."""

    @pytest.mark.parametrize("case", sorted(BAD_SECOND_LINES))
    def test_file(self, case, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(GOOD_LINE + BAD_SECOND_LINES[case])
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and "at line 2" in err

    @pytest.mark.parametrize("case", sorted(BAD_SECOND_LINES))
    def test_stdin(self, case, monkeypatch, capsys):
        data = io.BytesIO(GOOD_LINE + BAD_SECOND_LINES[case])
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(data, encoding="utf-8"))
        assert main(["validate", "-"]) == 2
        err = capsys.readouterr().err
        assert "<stdin>: " in err and "at line 2" in err


class TestStreaming:
    def test_metrics_from_stdin(self, monkeypatch, capsys):
        lines = "".join(json.dumps(r) + "\n" for r in
                        plain_rows([(0.9, True), (0.1, False), (0.6, True)]))
        monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
        assert main(["metrics", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for field in ("smece", "brier", "nll", "auc", "abstention_accuracy",
                      "predictive_accuracy", "n"):
            assert field in payload
        assert payload["n"] == 3
        assert payload["config"]["rng"] == "philox4x64-10"

    def test_stdin_error_names_source(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("not json\n"))
        assert main(["validate", "-"]) == 2
        assert "<stdin>" in capsys.readouterr().err

    def test_simulate_to_stdout(self, capsys):
        assert main(["simulate", "--n", "5", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 5
        first = json.loads(lines[0])
        assert first["id"] == "q0" and 0.0 <= first["confidence"] <= 1.0


class TestValidate:
    def test_summary_counts(self, small_input, capsys):
        assert main(["validate", small_input]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_records"] == 4
        assert payload["n_groups"] == 0
        assert isinstance(payload["warnings"], list)


class TestReward:
    def test_jsonl_per_record(self, small_input, capsys):
        assert main(["reward", small_input, "--reward", "brier",
                     "--format", "jsonl"]) == 0
        rows = [json.loads(line) for line in
                capsys.readouterr().out.strip().split("\n")]
        assert [r["id"] for r in rows] == ["r0", "r1", "r2", "r3"]
        assert rows[0]["reward"] == pytest.approx(2 * 0.9 - 0.9 ** 2)

    def test_json_mean(self, small_input, capsys):
        assert main(["reward", small_input, "--reward", "explicit",
                     "--t", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # 0.9 and 0.7 answer (one valid each... r0 valid, r2 valid -> +1 +1),
        # 0.4 and 0.2 abstain -> 0; mean = 2/4
        assert payload["mean"] == 0.5
        assert payload["total"] == 2.0


class TestSweepOutput:
    def test_csv_contract(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "sure.jsonl",
                           plain_rows([(1.0, True), (1.0, False)]))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", path, "--out", str(out)]) == 0
        reader = list(csv.reader(out.read_text().strip().split("\n")))
        assert reader[0] == ["t", "acc", "hal", "abs", "tp", "fn"]
        assert len(reader) == 1 + 101
        # nobody abstains at p = 1, so every fn cell is empty
        assert {row[5] for row in reader[1:]} == {""}
        assert reader[1][1:4] == ["0.5", "0.5", "0.0"]

    def test_json_uses_null_for_undefined(self, small_input, capsys):
        assert main(["sweep", small_input, "--format", "json",
                     "--grid", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["rows"]
        assert len(rows) == 3
        assert rows[0]["fn"] is None  # nobody abstains at t = 0
        assert rows[2]["tp"] is None  # nobody answers at t = 1 (max p is 0.9)

    def test_sidecar_replay(self, small_input, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", small_input, "--out", str(out),
                     "--grid", "11"]) == 0
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        cfg = meta["config"]
        assert cfg["command"] == "sweep" and cfg["grid"] == 11
        assert cfg["input"] == small_input
        assert cfg["rng"] == "philox4x64-10"
        # replaying from the sidecar reproduces the file
        first = out.read_text()
        out2 = tmp_path / "replay.csv"
        assert main(["sweep", cfg["input"], "--out", str(out2),
                     "--grid", str(cfg["grid"])]) == 0
        assert out2.read_text() == first


class TestMetricsOutput:
    def test_csv_row(self, small_input, capsys):
        assert main(["metrics", small_input, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "smece,brier,nll,auc,abstention_accuracy,predictive_accuracy,n"
        assert len(lines) == 2 and lines[1].split(",")[-1] == "4"

    def test_diagram_out(self, small_input, tmp_path, capsys):
        diagram = tmp_path / "diagram.csv"
        assert main(["metrics", small_input, "--diagram-out", str(diagram),
                     "--bandwidth", "0.1"]) == 0
        rows = list(csv.reader(diagram.read_text().strip().split("\n")))
        assert rows[0] == ["grid", "smoothed_accuracy", "density"]
        assert len(rows) == 1 + 201
        # same display grid when the bandwidth is left to the fixed point
        assert main(["metrics", small_input, "--diagram-out",
                     str(diagram)]) == 0
        assert len(diagram.read_text().strip().split("\n")) == 1 + 201


class TestObjectives:
    def test_json_payload(self, tmp_path, capsys):
        rows = plain_rows([(1.0, True)] * 6 + [(1.0, False)] * 4)
        path = write_jsonl(tmp_path / "const.jsonl", rows)
        assert main(["objectives", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["adaptive_risk"] is False
        assert payload["accuracy_preservation"] is True  # baseline is Acc(0)
        assert "snr_gain" in payload["diagnostics"]


class TestTtsOutput:
    def test_csv_curves(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "g.jsonl", grouped_rows(
            [("g", "A", 0.9, True), ("g", "B", 0.4, False),
             ("h", "A", 0.8, True), ("h", "A", 0.7, True)]))
        assert main(["tts", path, "--k", "1,2", "--resamples", "8",
                     "--strategy", "mean,best"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().split("\n")))
        assert rows[0] == ["strategy", "k", "accuracy", "stderr"]
        assert [r[:2] for r in rows[1:]] == [["mean", "1"], ["mean", "2"],
                                             ["best", "1"], ["best", "2"]]

    def test_unknown_strategy(self, tmp_path):
        path = write_jsonl(tmp_path / "g.jsonl",
                           grouped_rows([("g", "A", 0.5, True)]))
        assert main(["tts", path, "--strategy", "oracle"]) == 1


class TestPrecedence:
    def test_config_file_then_flag(self, small_input, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {small_input}\ngrid = 21  # comment\n")
        assert main(["sweep", "--config", str(cfg), "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 21
        # an explicit flag beats the file
        assert main(["sweep", "--config", str(cfg), "--format", "json",
                     "--grid", "11"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 11

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gird = 21\n")
        assert main(["sweep", "--config", str(cfg)]) == 1

    def test_env_override_for_default_path(self, small_input, tmp_path,
                                           monkeypatch, capsys):
        monkeypatch.setenv("BECAL_INPUT", small_input)
        assert main(["validate"]) == 0
        assert json.loads(capsys.readouterr().out)["n_records"] == 4
        # explicit flag still wins over the environment
        other = write_jsonl(tmp_path / "two.jsonl",
                            plain_rows([(0.5, True), (0.5, False)]))
        assert main(["validate", other]) == 0
        assert json.loads(capsys.readouterr().out)["n_records"] == 2


class TestDeterminism:
    def run_cli(self, args):
        proc = subprocess.run([sys.executable, "-m", "becal", *args],
                              capture_output=True, text=True, check=True)
        return proc.stdout

    def test_pipelines_byte_identical(self, tmp_path):
        sim_args = ["simulate", "--n", "300", "--seed", "42"]
        data = self.run_cli(sim_args)
        assert data == self.run_cli(sim_args)
        src = tmp_path / "sim.jsonl"
        src.write_text(data)
        for downstream in (["metrics", str(src)],
                           ["sweep", str(src), "--grid", "26"]):
            assert self.run_cli(downstream) == self.run_cli(downstream)
