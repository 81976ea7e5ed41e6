"""CLI surface: exit codes, formats, precedence, streaming, determinism."""

import ast
import csv
import inspect
import io
import json
import os
import subprocess
import sys
import warnings

import pytest

import becal
from becal import cli, metrics
from becal.cli import REWARDS, build_parser, main
from becal.model import ClaimRecord, PredictionRecord


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

    def test_format_must_match_command(self, small_input):
        assert main(["metrics", small_input, "--format", "yaml"]) == 1
        assert main(["objectives", small_input, "--format", "csv"]) == 1

    def test_ensemble_needs_both_flags(self):
        assert main(["simulate", "--groups", "3"]) == 1

    def test_ensemble_has_no_claims(self, tmp_path, capsys):
        out = tmp_path / "e.jsonl"
        ensemble = ["simulate", "--groups", "2", "--samples-per-group", "3", "--out", str(out)]
        assert main([*ensemble, "--n-claims", "4"]) == 1
        assert "--n-claims" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-claims = 4\n")
        assert main([*ensemble, "--config", str(cfg)]) == 1
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("flag,value", [("--agent", "constant:0.3"), ("--n", "50"),
                                            ("--difficulty", "beta:2,2")])
    def test_ensemble_refuses_flat_options(self, tmp_path, capsys, flag, value):
        """Ensemble mode uses none of the flat-mode options, so giving one, as a
        flag or in a config file, is a usage error and writes nothing."""
        out = tmp_path / "e.jsonl"
        ensemble = ["simulate", "--groups", "2", "--samples-per-group", "3", "--out", str(out)]
        assert main([*ensemble, flag, value]) == 1
        assert flag in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        assert main([*ensemble, "--config", str(cfg)]) == 1
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_ensemble_refuses_every_given_flat_option(self, capsys):
        assert main(["simulate", "--groups", "2", "--samples-per-group", "3", "--agent",
                     "constant:0.3", "--n", "50", "--difficulty", "beta:2,2"]) == 1
        assert "--agent, --difficulty, --n" in capsys.readouterr().err

    def test_flat_mode_records_its_defaults(self, tmp_path):
        out = tmp_path / "f.jsonl"
        assert main(["simulate", "--out", str(out)]) == 0
        config = json.loads((tmp_path / "f.jsonl.meta.json").read_text())["config"]
        assert (config["agent"], config["difficulty"], config["n"]) == ("calibrated", "uniform",
                                                                       1000)
        assert len(out.read_text().splitlines()) == 1000

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
    "duplicate-key":
        b'{"id":"b","valid":true,"confidence":0.9,"valid":false}\n',
    "lone-surrogate": b'{"id":"b","valid":true,"group":"\\ud800"}\n',
    "claims-not-array": b'{"id":"b","valid":true,"claims":{"text":"s"}}\n',
    "claim-not-object": b'{"id":"b","valid":true,"claims":["s"]}\n',
    "extra-data": b'{"id":"b","valid":true} {"id":"c","valid":true}\n',
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
        assert payload["n"] == 3 and payload["undefined"] == {}
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

    @pytest.mark.parametrize("command", [["simulate", "--n", "20000"],
                                         ["reward", "{big}", "--format", "jsonl"]],
                             ids=["simulate", "reward"])
    def test_reader_going_away_is_one_error_line(self, command, tmp_path):
        """stdout closing early ends like any failed write: exit 1, one error
        line, and no traceback from the flush at exit."""
        big = tmp_path / "big.jsonl"
        assert main(["simulate", "--n", "20000", "--out", str(big)]) == 0
        proc = subprocess.Popen([sys.executable, "-m", "becal",
                                 *(arg.format(big=big) for arg in command)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(10).startswith(b'{"id":')
        proc.stdout.close()  # far more than a pipe's buffer is still to come
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == "becal: error: cannot write -: [Errno 32] Broken pipe\n"


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

    @pytest.mark.parametrize("options", [
        ["--reward", "explicit", "--t", "0.9999999999999999"],  # the largest t below 1
        ["--reward", "bounded", "--t", "0.9999999999999999"],
        ["--reward", "ce", "--ce-epsilon", str(2.0 ** -53)],  # the clip's two ends
        ["--reward", "ce", "--ce-epsilon", "0.49999999999999994"],
        ["--reward", "brier"],
        ["--reward", "integrated", "--prior", "beta00:0.01"],
    ])
    def test_jsonl_rewards_are_finite_json(self, options, tmp_path):
        """Each line is json.dumps's bytes for its id and reward, and every
        reward is finite (where json.dumps and repr differ), also at the
        edges of t and of the cross-entropy clip."""
        ids = ["plain", 'quo"te', "back\\slash", "tab\there", "\u00e9t\u00e9", "\U0001f600"]
        confidences = [0.0, 5e-324, 0.5, 0.9999999999999999, 1.0]
        cases = [(p, valid) for p in confidences for valid in (True, False)]
        path = write_jsonl(tmp_path / "edges.jsonl", [
            {"id": f"{ids[i % len(ids)]}{i}", "valid": valid, "confidence": p}
            for i, (p, valid) in enumerate(cases)])
        out = tmp_path / "reward.jsonl"
        assert main(["reward", path, *options, "--format", "jsonl", "--out", str(out)]) == 0

        def finite(token):
            raise AssertionError(f"reward {token} is not finite")
        rows = [json.loads(line, parse_constant=finite)
                for line in out.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 2 * len(confidences)
        assert out.read_bytes() == "".join(json.dumps(row) + "\n" for row in rows).encode()

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

    def test_failed_write_keeps_the_old_output(self, small_input, tmp_path):
        out = tmp_path / "x.csv"
        out.write_bytes(b"old bytes\n")
        (tmp_path / "x.csv.meta.json").mkdir()  # the sidecar cannot be written
        assert main(["sweep", small_input, "--out", str(out)]) == 1
        assert out.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "in.jsonl", "x.csv", "x.csv.meta.json"]

    @pytest.mark.parametrize("error,code", [(OSError(28, "No space left on device"), 1),
                                            (MemoryError(), 3)])
    def test_writer_failing_partway_keeps_the_old_output(self, error, code, tmp_path,
                                                         monkeypatch):
        out = tmp_path / "sim.jsonl"
        out.write_bytes(b"old bytes\n")
        (tmp_path / "sim.jsonl.meta.json").write_bytes(b"old sidecar\n")

        def dump_then_fail(dataset, fh):
            fh.write('{"id":"q0"}\n' * 10_000)  # past the file buffer, onto the disk
            raise error

        monkeypatch.setattr(cli, "dump_jsonl", dump_then_fail)
        assert main(["simulate", "--n", "5", "--out", str(out)]) == code
        assert out.read_bytes() == b"old bytes\n"
        assert (tmp_path / "sim.jsonl.meta.json").read_bytes() == b"old sidecar\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.jsonl",
                                                              "sim.jsonl.meta.json"]

    def test_stdout_and_dev_stdout_write_the_same_bytes(self):
        """Through a pipe, --out - and --out /dev/stdout give the same bytes, and
        the device gets no sidecar."""
        argv = [sys.executable, "-m", "becal", "simulate", "--n", "30", "--n-claims", "2",
                "--seed", "8", "--out"]
        dash = subprocess.run([*argv, "-"], capture_output=True, check=True).stdout
        device = subprocess.run([*argv, "/dev/stdout"], capture_output=True, check=True).stdout
        assert dash == device and dash.count(b"\n") == 30
        assert not os.path.lexists("/dev/stdout.meta.json")

    def test_symlink_output_is_written_through(self, small_input, tmp_path):
        (tmp_path / "link.csv").symlink_to(tmp_path / "real.csv")
        assert main(["sweep", small_input, "--out", str(tmp_path / "link.csv")]) == 0
        assert (tmp_path / "link.csv").is_symlink()
        assert (tmp_path / "real.csv").read_text().startswith("t,acc,")

    def test_symlink_to_a_regular_file_gets_no_sidecar(self, small_input, tmp_path):
        (tmp_path / "real.csv").write_text("old\n")
        (tmp_path / "link.csv").symlink_to(tmp_path / "real.csv")
        assert main(["sweep", small_input, "--out", str(tmp_path / "link.csv")]) == 0
        assert (tmp_path / "real.csv").read_text().startswith("t,acc,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "link.csv",
                                                              "real.csv"]

    def test_dev_stdout_redirected_to_a_file_gets_no_sidecar(self, tmp_path):
        """/dev/stdout leads to the redirected file, but is still written
        through with no sidecar beside it."""
        out = tmp_path / "out.jsonl"
        with open(out, "wb") as fh:
            subprocess.run([sys.executable, "-m", "becal", "simulate", "--n", "3",
                            "--out", "/dev/stdout"], stdout=fh, check=True)
        assert out.read_bytes().count(b"\n") == 3
        assert not os.path.lexists("/dev/stdout.meta.json")
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


    def test_device_target_gets_no_sidecar(self, tmp_path):
        link = tmp_path / "null.jsonl"
        link.symlink_to("/dev/null")
        assert main(["simulate", "--n", "2", "--out", str(link)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["null.jsonl"]
        assert link.is_symlink()


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

    @pytest.mark.parametrize("pairs, undefined", [
        ([(0.9, True), (0.4, True)], {"auc"}),
        ([(0.9, True)], {"smece", "auc"}),
    ], ids=["all-valid", "one-record"])
    def test_undefined_metrics_are_null(self, pairs, undefined, tmp_path, capsys):
        path = write_jsonl(tmp_path / "d.jsonl", plain_rows(pairs))
        assert main(["metrics", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["undefined"]) == undefined
        assert all(payload[name] is None for name in undefined)
        assert payload["brier"] is not None and payload["n"] == len(pairs)
        assert main(["metrics", path, "--format", "csv"]) == 0
        header, row = csv.reader(capsys.readouterr().out.strip().split("\n"))
        assert {name for name, cell in zip(header, row) if cell == ""} == undefined
        assert main(["report", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["undefined"]) == undefined
        assert all(payload["metrics"][name] is None for name in undefined)
        assert len(payload["sweep"]) == 101

    def test_bad_bandwidth_writes_nothing(self, small_input, tmp_path, capsys):
        report, diagram = tmp_path / "m.json", tmp_path / "d.csv"
        assert main(["metrics", small_input, "--out", str(report),
                     "--diagram-out", str(diagram), "--bandwidth", "0"]) == 3
        assert "bandwidth must lie in [" in capsys.readouterr().err
        assert not report.exists() and not diagram.exists()
        # checked even when no diagram is asked for
        assert main(["metrics", small_input, "--out", str(report),
                     "--bandwidth", "-5"]) == 3
        assert not report.exists()

    def test_diagram_needs_a_defined_smece(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "d.jsonl", plain_rows([(0.9, True)]))
        diagram = tmp_path / "diagram.csv"
        assert main(["metrics", path, "--diagram-out", str(diagram)]) == 2
        assert "smECE" in capsys.readouterr().err and not diagram.exists()
        assert main(["metrics", path, "--diagram-out", str(diagram),
                     "--bandwidth", "0.1"]) == 0
        assert diagram.exists()


class TestObjectives:
    def test_json_payload(self, tmp_path, capsys):
        rows = plain_rows([(1.0, True)] * 6 + [(1.0, False)] * 4)
        path = write_jsonl(tmp_path / "const.jsonl", rows)
        assert main(["objectives", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["adaptive_risk"] is False
        assert payload["accuracy_preservation"] is True  # baseline is Acc(0)
        assert "snr_gain" in payload["diagnostics"]
        # p = 1 everywhere: every record answers at every threshold
        assert payload["undefined"] == {
            "worst_fn_excess": "nobody abstains at any threshold"}

    def test_no_valid_record(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "d.jsonl", plain_rows([(0.9, False)]))
        assert main(["objectives", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"]["snr_gain"] is None
        assert set(payload["undefined"]) == {"snr_gain"}
        assert payload["hallucination_reduction"] is False
        assert main(["report", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objectives"]["diagnostics"]["snr_gain"] is None
        assert set(payload["undefined"]) == {"smece", "auc", "snr_gain"}

    @pytest.mark.parametrize("command", ["objectives", "report"])
    @pytest.mark.parametrize("flag", ["--epsilon-h=0", "--epsilon-h=-1",
                                      "--epsilon-h=nan", "--tolerance=nan",
                                      "--baseline-acc=-1", "--baseline-acc=inf",
                                      "--baseline-acc=nan"])
    def test_parameter_domain(self, command, flag, tmp_path, capsys):
        path = write_jsonl(tmp_path / "one.jsonl", plain_rows([(0.9, True)]))
        assert main([command, path, flag]) == 3
        assert capsys.readouterr().err.startswith("becal: error: ")


class TestTtsOutput:
    def test_csv_curves(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "g.jsonl", grouped_rows(
            [("g", "A", 0.9, True), ("g", "B", 0.4, False),
             ("h", "A", 0.8, True), ("h", "A", 0.7, True)]))
        assert main(["tts", path, "--k", "1,2", "--resamples", "8",
                     "--strategy", "mean,best"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().split("\n")))
        assert rows[0] == ["strategy", "k", "accuracy", "stderr", "exact"]
        assert [r[:2] for r in rows[1:]] == [["mean", "1"], ["mean", "2"],
                                             ["best", "1"], ["best", "2"]]
        assert {(r[3], r[4]) for r in rows[1:]} == {("0.0", "true")}

    def test_exact_and_drawn_points_repeat_byte_for_byte(self, tmp_path, monkeypatch):
        # group g (3 samples) is tabled at k = 2; h has 63, past the 62 whose
        # subset counts fit int64, so it is drawn at every k above 1; at k = 1
        # every group is valued by closed form, and so is g at k = 3, where
        # the draw is the whole group
        rows = [(g, "AB"[s % 2], 0.5 + 0.05 * (s % 3), s % 2 == 0)
                for g, size in (("g", 3), ("h", 63)) for s in range(size)]
        path = write_jsonl(tmp_path / "g.jsonl", grouped_rows(rows))
        for run in ("first", "second"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            for fmt in ("csv", "json"):
                assert main(["tts", path, "--k", "1,2,3", "--resamples", "2",
                             "--strategy", "majority,maxconf", "--seed", "4",
                             "--format", fmt, "--out", f"t.{fmt}"]) == 0
        for name in ("t.csv", "t.csv.meta.json", "t.json"):
            assert (tmp_path / "first" / name).read_bytes() == \
                (tmp_path / "second" / name).read_bytes(), name
        curves = json.loads((tmp_path / "first" / "t.json").read_text())["curves"]
        assert [pt["exact"] for pt in curves["majority"]] == [True, False, False]
        assert [pt["exact"] for pt in curves["maxconf"]] == [True, True, True]
        for curve in curves.values():
            for pt in curve:
                assert (pt["stderr"] == 0.0) == pt["exact"]
        # g's table: A has {}, {0.5}, {0.6}, {0.5, 0.6}; B has {}, {0.55}
        assert [(pt["groups"], pt["states"], pt["draws"]) for pt in curves["majority"]] == [
            ({"closed_form": 2, "tabled": 0, "drawn": 0}, 0, 0),
            ({"closed_form": 0, "tabled": 1, "drawn": 1}, 6, 2),
            ({"closed_form": 1, "tabled": 0, "drawn": 1}, 0, 2)]
        assert [(pt["groups"], pt["states"], pt["draws"]) for pt in curves["maxconf"]] == \
            [({"closed_form": 2, "tabled": 0, "drawn": 0}, 0, 0)] * 3
        csv_text = (tmp_path / "first" / "t.csv").read_text()
        csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
        assert [r["exact"] for r in csv_rows] == [
            "true" if pt["exact"] else "false"
            for name in ("majority", "maxconf") for pt in curves[name]]

    def test_json_diagnostics_count_groups(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "g.jsonl", grouped_rows(
            [(g, "AB"[s % 2], 0.25 * (s % 4), s % 3 == 0)
             for g in ("g", "h", "i") for s in range(6)]))
        outputs = []
        for _ in range(2):
            assert main(["tts", path, "--k", "2,6", "--resamples", "3",
                         "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        curves = json.loads(outputs[0])["curves"]
        for name, curve in curves.items():
            for pt in curve:
                # a vote at k = 2 is tabled; at k = 6 the draw is the whole group
                tabled = name in ("majority", "majconf") and pt["k"] == 2
                assert pt["exact"] and pt["draws"] == 0
                assert pt["groups"] == {"closed_form": 0 if tabled else 3,
                                        "tabled": 3 if tabled else 0, "drawn": 0}
                assert (pt["states"] > 0) == tabled

    def test_unknown_strategy(self, tmp_path):
        path = write_jsonl(tmp_path / "g.jsonl",
                           grouped_rows([("g", "A", 0.5, True)]))
        assert main(["tts", path, "--strategy", "oracle"]) == 1

    @pytest.mark.parametrize("option,value", [
        ("--strategy", ""), ("--strategy", ","), ("--strategy", "majority,majority"),
        ("--strategy", "mean, best,mean"), ("--k", ""), ("--k", "2,2"),
        ("--k", "1,2,1")])
    def test_empty_or_repeated_list(self, option, value, tmp_path, capsys):
        path = write_jsonl(tmp_path / "g.jsonl",
                           grouped_rows([("g", "A", 0.5, True)]))
        assert main(["tts", path, f"{option}={value}", "--out",
                     str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err.startswith("becal: error: ")
        assert not (tmp_path / "t.csv").exists()


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

    def test_missing_config_file(self, small_input, tmp_path, capsys):
        missing = tmp_path / "none.cfg"
        assert main(["sweep", small_input, "--config", str(missing)]) == 1
        assert capsys.readouterr().err.startswith(
            f"becal: error: cannot read config file {missing}: ")

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gird = 21\n")
        assert main(["sweep", "--config", str(cfg)]) == 1

    def test_config_keys_are_flag_names(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "g.jsonl", grouped_rows(
            [("g", "A", 0.9, True), ("g", "B", 0.4, False),
             ("h", "A", 0.8, True), ("h", "A", 0.7, True)]))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 1,2\nresamples = 3\nformat = json\n"
                       "strategy = mean\n")
        assert main(["tts", path, "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [pt["k"] for pt in payload["curves"]["mean"]] == [1, 2]
        assert payload["config"]["resamples"] == 3
        chain = write_jsonl(tmp_path / "c.jsonl", [
            {"id": "a", "valid": True, "confidence": 0.9,
             "claims": [{"text": "s", "confidence": 0.5},
                        {"text": "t", "confidence": 0.5}]}])
        cfg.write_text("confidence-from = product\nformat = json\ngrid = 3\n")
        assert main(["sweep", chain, "--config", str(cfg)]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["abs"] for row in rows] == [0.0, 1.0, 1.0]  # p = 0.25

    @pytest.mark.parametrize("command, line", [
        ("tts", "smece_grid = 7"),  # an option of another command
        ("tts", "k_values = 1,2"),  # not a flag name
        ("sweep", "grid = x"),
        ("sweep", "format = yaml"),
        ("sweep", "grid 11"),
    ])
    def test_config_errors_name_file_and_line(self, command, line, small_input,
                                              tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# options\n{line}\n")
        assert main([command, small_input, "--config", str(cfg)]) == 1
        assert f"{cfg}:2: " in capsys.readouterr().err

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


def test_commands_never_build_row_objects(tmp_path, monkeypatch):
    """Every command works on the dataset's columns; no PredictionRecord or
    ClaimRecord is ever constructed."""
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built")

    monkeypatch.setattr(PredictionRecord, "__post_init__", refuse)
    monkeypatch.setattr(ClaimRecord, "__post_init__", refuse)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--n", "200", "--n-claims", "8", "--out", "chain.jsonl"]) == 0
    assert main(["simulate", "--groups", "6", "--samples-per-group", "4",
                 "--out", "ens.jsonl"]) == 0
    product = ["--confidence-from", "product"]
    for argv in (["reward", "chain.jsonl", *product, "--format", "jsonl"],
                 ["reward", "chain.jsonl", *product, "--reward", "integrated"],
                 ["sweep", "chain.jsonl", *product],
                 ["objectives", "chain.jsonl", *product],
                 ["metrics", "chain.jsonl", *product],
                 ["report", "chain.jsonl", *product],
                 ["validate", "chain.jsonl"],
                 ["tts", "ens.jsonl", "--k", "1,2"]):
        assert main([*argv, "--out", "out"]) == 0, argv


def test_every_name_a_command_uses_is_the_packages():
    """becal.cli keeps no name table: each name a command fetches with _use
    is a public name of the package, and no other name reads through."""
    tree = ast.parse(inspect.getsource(cli))
    used = {arg.value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_use"
            for arg in node.args if isinstance(arg, ast.Constant)}
    assert {"metric_report", "sweep", "tts"} <= used
    assert used | {f"reward_{name}" for name in REWARDS} <= set(becal.__all__)
    with pytest.raises(AttributeError):
        cli.__path__  # noqa: B018 - the module would pass for a package
    with pytest.raises(AttributeError, match="'no_such_name'"):
        cli.no_such_name  # noqa: B018


def test_no_option_has_a_single_choice():
    """An option with one legal value is a dead flag: drop it instead."""
    single = [(command, action.option_strings[-1])
              for command, sub in build_parser().commands.items()
              for action in sub._actions
              if action.choices is not None and len(action.choices) == 1]
    assert single == []


class TestReplay:
    """Every header, written back as a config file, reproduces its run."""

    CASES = {
        "validate": ["validate", "{chain}", "--out", "v.json"],
        "simulate": ["simulate", "--n", "30", "--n-claims", "3", "--agent",
                     "power:2", "--seed", "5", "--out", "s.jsonl"],
        "reward": ["reward", "{chain}", "--reward", "integrated", "--prior",
                   "beta00:0.05", "--format", "jsonl", "--out", "r.jsonl"],
        "metrics": ["metrics", "{chain}", "--format", "csv", "--nll-floor",
                    "0.001", "--diagram-out", "d.csv", "--bandwidth", "0.1",
                    "--out", "m.csv"],
        "sweep": ["sweep", "{chain}", "--confidence-from", "product", "--grid",
                  "11", "--out", "s.csv"],
        "objectives": ["objectives", "{chain}", "--grid", "21", "--tolerance",
                       "0.1", "--baseline-acc", "0.4", "--epsilon-h", "0.01",
                       "--log-base", "10", "--out", "o.json"],
        "tts": ["tts", "{ensemble}", "--strategy", "mean,majconf", "--k", "1,2",
                "--resamples", "5", "--seed", "9", "--format", "json",
                "--out", "t.json"],
        "report": ["report", "{chain}", "--smece-grid", "256", "--grid", "11",
                   "--out", "rep.json"],
    }

    @staticmethod
    def header(out):
        if out.suffix == ".json":
            return json.loads(out.read_text())["config"]
        return json.loads(out.with_name(out.name + ".meta.json").read_text())["config"]

    def test_covers_every_command(self):
        assert set(self.CASES) == set(build_parser().commands)

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_header_replays_byte_for_byte(self, command, tmp_path, monkeypatch):
        inputs = {"chain": str(tmp_path / "chain.jsonl"),
                  "ensemble": str(tmp_path / "ens.jsonl")}
        assert main(["simulate", "--n", "40", "--n-claims", "2", "--seed", "3",
                     "--out", inputs["chain"]]) == 0
        assert main(["simulate", "--groups", "4", "--samples-per-group", "3",
                     "--out", inputs["ensemble"]]) == 0
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        monkeypatch.chdir(first)
        argv = [arg.format(**inputs) for arg in self.CASES[command]]
        assert main(argv) == 0
        header = self.header(first / argv[-1])
        assert header.pop("command") == command
        assert header.pop("rng") == "philox4x64-10" and header.pop("version")
        # exactly the command's options, under config-file keys
        options = build_parser().commands[command].parse_args([])
        assert set(header) == set(vars(options))

        cfg = tmp_path / "replay.cfg"
        cfg.write_text("".join(
            f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}\n"
            for key, value in header.items() if value is not None))
        monkeypatch.chdir(second)
        assert main([command, "--config", str(cfg), "--out", header["out"]]) == 0
        written = sorted(p.name for p in first.iterdir())
        assert sorted(p.name for p in second.iterdir()) == written
        for name in written:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name


    def test_values_holding_a_hash_replay(self, tmp_path, monkeypatch):
        """A # inside a value, here the input and output paths, is kept; one
        at the start of a line or after whitespace starts a comment."""
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        data = write_jsonl(tmp_path / "a#b.jsonl",
                           plain_rows([(0.9, True), (0.4, False), (0.7, True)]))
        monkeypatch.chdir(first)
        assert main(["sweep", data, "--grid", "5", "--out", "s#1.csv"]) == 0
        header = self.header(first / "s#1.csv")
        assert (header["input"], header["out"]) == (data, "s#1.csv")
        cfg = tmp_path / "replay.cfg"
        cfg.write_text("# written back from the header\n" + "".join(
            f"{key} = {value}  # {key}\n" for key, value in header.items()
            if key not in ("command", "rng", "version")))
        monkeypatch.chdir(second)
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in second.iterdir()) == ["s#1.csv", "s#1.csv.meta.json"]
        for name in ("s#1.csv", "s#1.csv.meta.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name


def _numeric_option_cases():
    """(command, option, value) for every int/float option build_parser() defines."""
    values = {int: ("-1", "0", str(2 ** 63), str(2 ** 64)),
              float: ("nan", "inf", "-inf", "-1", "0", "1e308")}
    for command, sub in sorted(build_parser().commands.items()):
        for action in sub._actions:
            for value in values.get(action.type, ()):
                yield command, action.option_strings[-1], value


# extra flags per command so that each option is read: every reward kind, a
# diagram for --bandwidth, both simulate modes
VARIANTS = {
    "simulate": [["--n=5"], ["--groups=2", "--samples-per-group=2"]],
    "reward": [[f"--reward={name}"] for name in REWARDS],
    "metrics": [[], ["--diagram-out={tmp}/d.csv"]],
    "tts": [["--k=1,2"]],
}


# argv, exit code and the parameter named: each once exited 0 with NaN, null or
# missing values, or in a traceback
OUT_OF_RANGE = [
    (["simulate", "--agent", "power:nan"], 1, "gamma"),
    (["simulate", "--agent", "overconfident:nan"], 1, "gamma"),
    (["simulate", "--agent", "underconfident:nan"], 1, "gamma"),
    (["simulate", "--agent", "power:inf"], 1, "gamma"),
    (["simulate", "--difficulty", "beta:nan,1"], 1, "beta a"),
    (["simulate", "--difficulty", "beta:inf,1"], 1, "beta a"),
    (["reward", "{two}", "--reward", "integrated", "--prior", "table:{nan_cdf}",
      "--format", "jsonl"], 2, "smallest CDF value"),
    (["reward", "{edge}", "--reward", "integrated", "--prior", "beta00:1e-310"],
     3, "epsilon"),
    (["reward", "{edge}", "--reward", "integrated", "--prior", "beta00:1e-17",
      "--format", "jsonl"], 3, "epsilon"),
    (["reward", "{edge}", "--reward", "ce", "--ce-epsilon", "1e-310"], 3, "epsilon"),
    (["reward", "{edge}", "--reward", "ce", "--ce-epsilon", "1e-17",
      "--format", "jsonl"], 3, "epsilon"),
    (["metrics", "{edge}", "--nll-floor", "1e-17"], 3, "nll floor"),
    (["objectives", "{one}", "--epsilon-h", "5e-324"], 3, "epsilon_h"),
    (["metrics", "{two}", "--bandwidth", "5e-324", "--diagram-out", "{tmp}/d.csv"],
     3, "bandwidth"),
    (["metrics", "{two}", "--bandwidth", "1e-300", "--diagram-out", "{tmp}/d.csv"],
     3, "bandwidth"),
    (["metrics", "{two}", "--bandwidth", "1e-300"], 3, "bandwidth"),
]


# command, its bad option and value, and the start of the error naming it:
# every numeric option of a command that reads input, and --prior and
# --log-base, each checked before the input is read
BEFORE_READ = [
    (["sweep", "--grid", "1"], "grid points must lie in "),
    (["objectives", "--grid", "1"], "grid points must lie in "),
    (["report", "--grid", "1"], "grid points must lie in "),
    (["reward", "--reward", "explicit", "--t", "1.5"], "t must lie in "),
    (["reward", "--reward", "bounded", "--t", "nan"], "t must lie in "),
    (["reward", "--reward", "ce", "--ce-epsilon", "0.5"], "epsilon must lie in "),
    (["reward", "--reward", "integrated", "--prior", "beta00:0.5"], "epsilon must lie in "),
    (["metrics", "--nll-floor", "0"], "nll floor must lie in "),
    (["report", "--nll-floor", "0.5"], "nll floor must lie in "),
    (["metrics", "--smece-grid", "1"], "smece grid points must lie in "),
    (["report", "--smece-grid", "1"], "smece grid points must lie in "),
    (["metrics", "--bandwidth", "0"], "bandwidth must lie in "),
    (["objectives", "--tolerance", "-1"], "tolerance must lie in "),
    (["report", "--tolerance", "inf"], "tolerance must lie in "),
    (["objectives", "--baseline-acc", "2"], "baseline_acc must lie in "),
    (["report", "--baseline-acc", "-1"], "baseline_acc must lie in "),
    (["objectives", "--epsilon-h", "0"], "epsilon_h must lie in "),
    (["report", "--epsilon-h", "nan"], "epsilon_h must lie in "),
    (["objectives", "--log-base", "2"], "unknown log base '2'"),
    (["report", "--log-base", "x"], "unknown log base 'x'"),
    (["tts", "--resamples", "0"], "n_resamples must lie in "),
    (["tts", "--seed", "-1"], "seed must fit in 64 unsigned bits"),
    (["tts", "--k", "0,2"], "k must lie in "),
]


@pytest.fixture()
def edge_inputs(tmp_path):
    """Files of one and two records, one with a wrong answer at p = 1 and a
    right one at p = 0, and a prior table with a NaN CDF cell."""
    (tmp_path / "nan.csv").write_text("t,cdf\n0,0\n0.5,nan\n1,1\n")
    return {
        "one": write_jsonl(tmp_path / "one.jsonl", plain_rows([(0.9, True)])),
        "two": write_jsonl(tmp_path / "two.jsonl", plain_rows([(0.9, True), (0.4, False)])),
        "edge": write_jsonl(tmp_path / "edge.jsonl",
                            plain_rows([(1.0, False), (0.0, True), (0.5, True)])),
        "nan_cdf": tmp_path / "nan.csv",
        "tmp": tmp_path,
    }


class TestNumericOptions:
    """No int or float option value ends in a traceback: every run exits 0-3."""

    @pytest.mark.parametrize("command,option,value", list(_numeric_option_cases()))
    def test_exits_cleanly(self, command, option, value, tmp_path, capsys):
        one = write_jsonl(tmp_path / "one.jsonl", plain_rows([(0.9, True)]))
        four = write_jsonl(tmp_path / "four.jsonl",
                           plain_rows([(0.9, True), (0.4, False), (0.7, True),
                                       (0.2, False)]))
        ens = write_jsonl(tmp_path / "ens.jsonl", grouped_rows(
            [("g", "A", 0.9, True), ("g", "B", 0.4, False),
             ("h", "A", 0.3, True), ("h", "A", 0.6, True)]))
        inputs = {"simulate": [[]], "tts": [[ens]]}.get(command, [[one], [four]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # e.g. inf * 0 at --bandwidth 1e308
            for given in inputs:
                for extra in VARIANTS.get(command, [[]]):
                    argv = [command, *given, *(x.format(tmp=tmp_path) for x in extra),
                            f"{option}={value}", "--out", str(tmp_path / "out")]
                    assert main(argv) in (0, 1, 2, 3), argv
        assert [str(w.message) for w in caught] == []
        capsys.readouterr()

    def test_covers_the_known_crashes(self):
        cases = set(_numeric_option_cases())
        assert {("tts", "--seed", "-1"), ("objectives", "--epsilon-h", "0"),
                ("simulate", "--seed", "-1"), ("objectives", "--epsilon-h", "1e308"),
                ("sweep", "--grid", str(2 ** 63)),
                ("tts", "--resamples", str(2 ** 63))} <= cases

    @pytest.mark.parametrize("argv", [
        ["objectives", "{two}", "--epsilon-h", "1e308"],  # the Hal floor overflows
        ["metrics", "{one}", "--smece-grid", "1"],  # checked though smECE is undefined
        ["simulate", "--n", str(2 ** 63)],
        ["simulate", "--n", "10", "--n-claims", str(2 ** 63)],
        ["simulate", "--n", "10", "--n-claims", str(2 ** 61)],  # the product overflows
        ["sweep", "{two}", "--grid", str(2 ** 63)],
        ["metrics", "{two}", "--smece-grid", str(2 ** 63)],
        ["simulate", "--groups", str(2 ** 63), "--samples-per-group", "2"],
        ["simulate", "--groups", str(2 ** 62), "--samples-per-group", "4"],
        ["tts", "{ens}", "--k", "1", "--resamples", str(2 ** 63)],
        ["tts", "{ens}", "--k", "0,2"],  # a k below 1 beside a valid largest k
    ], ids=" ".join)
    def test_edges_exit_3(self, argv, tmp_path, capsys):
        inputs = {
            "one": write_jsonl(tmp_path / "one.jsonl", plain_rows([(0.9, True)])),
            "two": write_jsonl(tmp_path / "two.jsonl",
                               plain_rows([(0.9, True), (0.4, False)])),
            "ens": write_jsonl(tmp_path / "ens.jsonl", grouped_rows(
                [("g", "A", 0.9, True), ("g", "B", 0.4, False)])),
        }
        assert main([arg.format(**inputs) for arg in argv]) == 3
        assert capsys.readouterr().err.startswith("becal: error: ")

    @pytest.mark.parametrize("argv", [
        ["sweep", "{two}", "--grid", str(2 ** 40)],
        ["metrics", "{two}", "--smece-grid", str(2 ** 40)],
        ["simulate", "--n", str(2 ** 40)],
        ["sweep", "{two}", "--grid", str(2 ** 62)],
        ["objectives", "{two}", "--grid", str(2 ** 62)],
        ["simulate", "--n", str(2 ** 62)],
    ], ids=" ".join)
    def test_unallocatable_sizes_exit_3(self, argv, tmp_path):
        """Sizes past the count rule, or within it but past memory, exit 3 with
        one error line. The child caps its address space, so nothing large is
        ever allocated."""
        two = write_jsonl(tmp_path / "two.jsonl", plain_rows([(0.9, True), (0.4, False)]))
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))\n"
                 "from becal.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", child,
                               *(arg.format(two=two) for arg in argv),
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("becal: error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv,code,name", OUT_OF_RANGE,
                             ids=[" ".join(case[0]) for case in OUT_OF_RANGE])
    def test_out_of_range_writes_nothing(self, argv, code, name, edge_inputs, tmp_path,
                                         capsys):
        """One error line naming the parameter, and no output, sidecar or
        temporary file."""
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main([arg.format(**edge_inputs) for arg in argv]
                    + ["--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err.startswith("becal: error: ") and err.count("\n") == 1, err
        assert f"{name} must lie in " in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_decreasing_prior_table_is_a_data_error(self, edge_inputs, tmp_path, capsys):
        table = tmp_path / "down.csv"
        table.write_text("t,cdf\n0,0\n0.3,0.6\n0.6,0.4\n1,1\n")
        assert main(["reward", str(edge_inputs["two"]), "--reward", "integrated",
                     "--prior", f"table:{table}", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"becal: error: {table}: tabulated CDF must be non-decreasing\n")

    @pytest.mark.parametrize("argv,key", [
        (["metrics", "{two}", "--bandwidth", repr(metrics._MIN_BANDWIDTH)], "brier"),
        (["reward", "{edge}", "--reward", "ce", "--ce-epsilon", repr(2.0 ** -53)], "mean"),
        (["reward", "{edge}", "--reward", "integrated", "--prior", f"beta00:{2.0 ** -53!r}"],
         "mean"),
        (["metrics", "{edge}", "--nll-floor", repr(2.0 ** -53)], "nll"),
        (["objectives", "{one}", "--epsilon-h", repr(sys.float_info.min)], "snr_gain"),
    ], ids=lambda case: " ".join(case) if isinstance(case, list) else case)
    def test_closed_ends_are_accepted(self, argv, key, edge_inputs, capsys):
        """The smallest value each range takes runs, and the value it is there
        to keep finite is a number."""
        assert main([arg.format(**edge_inputs) for arg in argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        value = payload[key] if key in payload else payload["diagnostics"][key]
        assert isinstance(value, float), payload

    @pytest.mark.parametrize("argv,message", BEFORE_READ,
                             ids=[" ".join(case[0]) for case in BEFORE_READ])
    def test_checked_before_the_input_is_read(self, argv, message, tmp_path, capsys):
        """A bad option on a file whose line 2 is bad exits 3 naming the
        option, not 2 naming the line, and writes nothing."""
        path = write_jsonl(tmp_path / "bad.jsonl", [
            {"id": "a", "group": "g", "answer": "A", "confidence": 0.9, "valid": True},
            {"id": "b", "group": "g", "answer": "B", "confidence": 0.4}])
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main([argv[0], path, *argv[1:], "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"becal: error: {message}") and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_before_read_covers_every_option(self):
        covered = {(argv[0], argv[-2]) for argv, _ in BEFORE_READ}
        numeric = {(command, action.option_strings[-1])
                   for command, sub in build_parser().commands.items()
                   if command != "simulate"  # it reads no input
                   for action in sub._actions if action.type in (int, float)}
        assert numeric | {("tts", "--k"), ("reward", "--prior"),
                          ("objectives", "--log-base"), ("report", "--log-base")} <= covered

    def test_negative_seed(self, tmp_path, capsys):
        ens = write_jsonl(tmp_path / "ens.jsonl", grouped_rows(
            [("g", "A", 0.9, True), ("g", "B", 0.4, False)]))
        assert main(["simulate", "--groups", "2", "--samples-per-group", "2",
                     "--seed", "-1"]) == 3
        assert main(["tts", ens, "--seed", "-1"]) == 3
        assert main(["tts", ens, "--seed", str(2 ** 64), "--k", "1"]) == 3
        err = capsys.readouterr().err
        assert err.count("becal: error: seed must fit in 64 unsigned bits") == 3
