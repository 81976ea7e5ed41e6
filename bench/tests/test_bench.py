"""Tests of the benchmark itself: oracles, failure accounting, tracing, generators."""

import json
import math
import shutil
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# p = (0.9, 0.6, 0.6, 0.2) with labels (1, 1, 0, 0)
P = np.array([0.9, 0.6, 0.6, 0.2])
V = np.array([True, True, False, False])


class TestScalarOracles:
    def test_auc_counts_ties_half(self):
        # pairs (0.9, 0.6) (0.9, 0.2) (0.6, 0.2) win, (0.6, 0.6) ties
        assert oracles.auc(P, V) == 3.5 / 4

    # hand-computed battery for P, V (smECE is checked separately)
    SCALARS = {"n": 4, "brier": 0.57 / 4,
               "nll": -(math.log(0.9) + math.log(0.6) + math.log(0.4) + math.log(0.8)) / 4,
               "auc": 0.875, "abstention_accuracy": 0.75, "predictive_accuracy": 0.5}

    def scalar_failures(self, got):
        return [f for f in oracles.metric_failures(P, V, {**got, "smece": 0.0})
                if not f.startswith("smece")]

    def test_hand_computed_scalars_pass(self):
        assert self.scalar_failures(self.SCALARS) == []

    @pytest.mark.parametrize("field,bad", [("brier", 0.1426), ("auc", 0.75), ("n", 5),
                                           ("nll", 0.5), ("abstention_accuracy", 0.5),
                                           ("predictive_accuracy", None)])
    def test_wrong_scalar_is_caught(self, field, bad):
        failures = self.scalar_failures({**self.SCALARS, field: bad})
        assert len(failures) == 1 and failures[0].startswith(field)

    def test_constant_confidence_smece_is_the_bias(self):
        # with one confidence level the kernel integrates out: smECE = |mean(v) - p|
        p, v = np.full(4, 0.5), np.array([True, True, True, False])
        assert oracles.smece_at(p, v.astype(float), 0.25, 512) == pytest.approx(0.25, abs=1e-12)
        got = {"n": 4, "smece": 0.25}
        assert not [f for f in oracles.metric_failures(p, v, got) if f.startswith("smece")]

    def test_perfect_predictor_reports_zero_smece(self):
        # the residual vanishes, so smECE is 0 at the smallest admissible bandwidth
        p = np.array([1.0, 1.0, 0.0, 0.0])
        assert not [f for f in oracles.metric_failures(p, V, {"smece": 0.0})
                    if f.startswith("smece")]
        assert [f for f in oracles.metric_failures(p, V, {"smece": 0.01})
                if f.startswith("smece")]

    def test_smece_must_be_a_fixed_point(self):
        from becal.metrics import smece
        from becal.model import Dataset, PredictionRecord
        rng = np.random.default_rng(0)
        p = rng.random(200)
        v = rng.random(200) < p ** 2
        ds = Dataset(tuple(PredictionRecord(id=f"r{i}", valid=bool(v[i]), confidence=float(p[i]))
                           for i in range(p.size)))
        value, _ = smece(ds)
        base = {"n": 200, "brier": float(np.mean((p - v) ** 2))}
        assert not [f for f in oracles.metric_failures(p, v, {**base, "smece": value})
                    if f.startswith("smece")]
        assert [f for f in oracles.metric_failures(p, v, {**base, "smece": value + 1e-3})
                if f.startswith("smece")]


class TestSweepOracles:
    # grid (0, 0.5, 1): everyone answers, three answer, nobody answers
    ROWS = [(0.0, 0.5, 0.5, 0.0, 0.5, None),
            (0.5, 0.5, 0.25, 0.25, 2 / 3, 0.0),
            (1.0, 0.0, 0.0, 1.0, None, 0.5)]
    OBJECTIVES = {
        "adaptive_risk": False, "accuracy_preservation": True,
        "hallucination_reduction": True, "quantitative_calibration": True,
        "all_passed": False,
        "diagnostics": {"abs_reachable_fraction": 0.0, "abs_max_gap": 0.75, "acc_at_0": 0.5,
                        "baseline_acc": 0.5, "hal_at_1": 0.0, "snr_gain": math.log(1.5),
                        "worst_tp_margin": 1 / 6, "worst_fn_excess": -0.5,
                        "tolerance": 0.05}}

    def test_hand_computed_rows(self):
        assert oracles.expected_sweep_rows(P, V, 3) == self.ROWS
        assert oracles.sweep_failures(P, V, self.ROWS, 3) == []

    def test_wrong_row_is_caught(self):
        rows = list(self.ROWS)
        rows[1] = (0.5, 0.5, 0.25, 0.25, 0.66, 0.0)
        assert len(oracles.sweep_failures(P, V, rows, 3)) == 1

    def test_hand_computed_objectives(self):
        assert oracles.objective_failures(P, V, self.OBJECTIVES, 3) == []

    def test_wrong_objective_is_caught(self):
        got = json.loads(json.dumps(self.OBJECTIVES))
        got["adaptive_risk"] = True
        got["diagnostics"]["snr_gain"] = 0.4
        assert len(oracles.objective_failures(P, V, got, 3)) == 2


class TestRewardAndChainOracles:
    def test_truncated_beta_closed_form(self):
        got = [{"id": "a", "reward": math.log(50) / math.log(99)}, {"id": "b", "reward": 0.0}]
        p, v = np.array([0.5, 0.005]), np.array([True, False])
        assert oracles.reward_failures(["a", "b"], p, v, got) == []
        got[1]["reward"] = 1e-6
        assert len(oracles.reward_failures(["a", "b"], p, v, got)) == 1
        assert oracles.reward_failures(["b", "a"], p, v, got) != []

    def test_chain_contract(self):
        rows = [{"id": "q0", "valid": False, "confidence": 0.25,
                 "claims": [{"confidence": 0.5, "valid": True},
                            {"confidence": 0.5, "valid": False}]}]
        assert oracles.chain_failures(rows, 1, 2) == []
        rows[0]["valid"] = True
        assert len(oracles.chain_failures(rows, 1, 2)) == 1


class TestTtsOracles:
    # confidences (0.9, 0.9, 0.5), validity (T, F, T)
    GROUP = (np.array([0.9, 0.9, 0.5]), np.array([True, False, True]))

    def test_closed_forms_by_hand(self):
        # k=2 draws {a,b} {a,c} {b,c}: maxconf wins 1/2, 1, 0 -> 1/2
        assert oracles.exact_at_k(*self.GROUP, 2) == pytest.approx(
            {"mean": 2 / 3, "best": 1.0, "maxconf": 0.5})
        assert oracles.exact_at_k(*self.GROUP, 1) == pytest.approx(
            {"mean": 2 / 3, "best": 2 / 3, "maxconf": 2 / 3})

    def rows(self, changes=None):
        exact = {1: dict.fromkeys(workloads.TTS_STRATEGIES, 2 / 3),
                 2: {"mean": 2 / 3, "best": 1.0, "maxconf": 0.5, "majority": 0.5,
                     "majconf": 0.5}}
        rows = [{"strategy": s, "k": k, "accuracy": exact[k][s], "stderr": 0.0}
                for s in workloads.TTS_STRATEGIES for k in (1, 2)]
        for row in rows:
            row.update((changes or {}).get((row["strategy"], row["k"]), {}))
        return rows

    def test_tolerance_follows_stderr(self):
        groups = {"g": self.GROUP}
        ks, strategies = (1, 2), workloads.TTS_STRATEGIES
        assert oracles.tts_failures(groups, self.rows(), ks, strategies) == []
        near = self.rows({("maxconf", 2): {"accuracy": 0.55, "stderr": 0.01}})
        assert oracles.tts_failures(groups, near, ks, strategies) == []
        far = self.rows({("maxconf", 2): {"accuracy": 0.6, "stderr": 0.01}})
        assert len(oracles.tts_failures(groups, far, ks, strategies)) == 1
        k1 = self.rows({("majority", 1): {"accuracy": 0.5}})
        assert len(oracles.tts_failures(groups, k1, ks, strategies)) == 1
        bad_range = self.rows({("majconf", 2): {"stderr": math.nan}})
        assert len(oracles.tts_failures(groups, bad_range, ks, strategies)) == 1
        missing = self.rows()[:-1]
        assert oracles.tts_failures(groups, missing, ks, strategies) != []


def test_corrupted_output_is_caught_and_counted(tmp_path):
    """Run the real CLI once, then corrupt its output file, not the program."""
    workload = workloads.report_sharp(7)
    (tmp_path / workloads.INPUT).write_bytes(workloads.sharp_input(7, n=300))
    ledger = run.Ledger()
    runner = run.Runner(ledger, perf_counter() + 120)
    prefix = lambda step: [sys.executable, "-m", "becal"]  # noqa: E731
    children = runner.pipeline(workload, tmp_path / "rep0", prefix)
    assert [c.rc for c in children] == [0]
    shutil.copytree(tmp_path / "rep0", tmp_path / "rep1")
    run.verify(workload, [tmp_path / "rep0", tmp_path / "rep1"], ledger)
    assert (ledger.attempted, ledger.failed) == (1, 0), ledger.failures

    report = tmp_path / "rep1" / "report.json"
    report.write_text(report.read_text().replace('"brier": 0.', '"brier": 1.'))
    run.verify(workload, [tmp_path / "rep0", tmp_path / "rep1"], ledger)
    assert ledger.failures == {"rep1/report": ["report.json differs from rep0/report.json"]}

    shutil.copy(report, tmp_path / "rep0" / "report.json")
    ledger = run.Ledger()
    run.verify(workload, [tmp_path / "rep0"], ledger)
    assert ledger.failed == 1
    assert ledger.failures["rep0/report"][0].startswith("brier")


class TestTracer:
    def test_names_restored_after_traced_run(self, tmp_path):
        (tmp_path / "in.jsonl").write_bytes(workloads.sharp_input(3, n=60))
        from becal import cli
        before = tracer.snapshot()
        t = tracer.Tracer()
        with t.installed():
            assert all(a is not b for a, b in zip(before, tracer.snapshot()))
            rc = t.wrap("cli.main", cli.main)(
                ["report", str(tmp_path / "in.jsonl"), "--out", str(tmp_path / "r.json")])
        assert rc == 0
        assert all(a is b for a, b in zip(before, tracer.snapshot()))
        metrics = tracer.layer_metrics([{"spans": t.spans, "counts": t.counts}])
        assert metrics["metrics.smece_calls"] == 1 and metrics["model.column_builds"] > 0
        assert 0 < metrics["metrics.smece_s"] < metrics["metrics.report_s"] < metrics["cli.main_s"]

    def test_names_restored_when_the_call_raises(self):
        before = tracer.snapshot()
        with pytest.raises(RuntimeError):
            with tracer.Tracer().installed():
                raise RuntimeError
        assert all(a is b for a, b in zip(before, tracer.snapshot()))

    def test_self_time_excludes_children(self):
        spans = [["cli.main", 0.0, 10.0, -1, 0, 0, 0],
                 ["metrics.report", 1.0, 8.0, 0, 0, 0, 0],
                 ["metrics.smece", 2.0, 7.0, 1, 100, 2148, 0]]
        m = tracer.layer_metrics([{"spans": spans, "counts": {}}])
        assert (m["cli.self_s"], m["metrics.scalar_s"], m["metrics.smece_share"]) == (3.0, 2.0, 0.5)
        assert m["metrics.smece_rss_delta_mb"] == 2.0


def test_benchmark_json_names_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = set(tracer.layer_metrics([])) | {f"cli.{c}_s" for c in run.COMMANDS} \
        | {"cli.output_bytes", "trace.overhead_s"}
    assert set(per_layer) == emitted
    assert all(run.unit(name) == u for name, u in per_layer.items())
    assert all(run.unit(m["name"]) == m["unit"] for m in spec["end_to_end"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


class TestGenerators:
    @pytest.mark.parametrize("make", [lambda s: workloads.sharp_input(s, n=500),
                                      lambda s: workloads.ensemble_input(s, groups=20)])
    def test_same_seed_same_bytes(self, make):
        assert make(5) == make(5)
        assert make(5) != make(6)

    def test_ensemble_confidences_on_the_verbal_grid(self):
        rows = [json.loads(line) for line in workloads.ensemble_input(1, groups=10).splitlines()]
        conf = np.array([r["confidence"] for r in rows])
        assert np.all(np.round(conf * 20) / 20 == conf)
        assert all((r["answer"] == "A") == r["valid"] for r in rows)
