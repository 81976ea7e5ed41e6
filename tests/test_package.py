"""The package namespace: its public names, each loaded from its module on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import becal

# becal.__all__ as it stood when every module was imported eagerly
ALL = [
    "Action", "AgentSpec", "BetaDifficulty", "CalibrationDiagram", "ClaimMarkupDoc",
    "ClaimRecord", "ConstantReport", "CriticSurrogate", "DataError", "Dataset",
    "DomainError", "IdentityReport", "MetricReport", "ObjectiveReport",
    "PointMassDifficulty", "PowerReport", "PredictionRecord", "RNG_ALGORITHM",
    "RewardCurve", "RiskPrior", "RiskSweep", "STRATEGIES", "SampleGroup", "ScalingPoint",
    "TabulatedPrior", "ToolkitError", "TruncatedBetaPrior", "UniformDifficulty",
    "UniformPrior", "UsageError", "ValidationSummary", "abstention_accuracy",
    "aggregate_min", "aggregate_product", "apply_aggregation", "behavior", "brier_score",
    "calibration_diagram", "check_objectives", "claims", "confidence_auc", "decide",
    "default_grid", "dump_jsonl", "errors", "exact_expected_accuracy", "expected_reward",
    "expected_reward_curve", "generate", "generate_claims", "generate_ensemble",
    "group_records", "load_jsonl", "load_table", "metric_report", "metrics", "model",
    "nll", "optimal_threshold_policy", "parse_claims", "parse_difficulty", "parse_prior",
    "parse_report_map", "predictive_accuracy", "read_jsonl", "reward_bounded",
    "reward_brier", "reward_ce", "reward_explicit", "reward_integrated", "rewards",
    "scaling_curve", "scaling_curves", "simulate", "smece", "smece_at_bandwidth",
    "snr_gain", "snr_interval", "snr_point", "sweep", "train_critic", "tts", "validate",
    "verify_propriety",
]


def _fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports becal from this tree."""
    src = str(Path(becal.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_unchanged():
    assert becal.__all__ == ALL


def test_each_name_is_its_modules_object():
    for name in ALL:
        value = getattr(becal, name)
        if name in becal._NAMES:
            assert value is importlib.import_module(f"becal.{name}"), name
        elif name not in ("RNG_ALGORITHM", "STRATEGIES"):
            home = importlib.import_module(f"becal.{becal._HOME[name]}")
            assert value is getattr(home, name), name
    assert becal.RNG_ALGORITHM == "philox4x64-10"
    assert becal.tts.STRATEGIES is becal.STRATEGIES


def test_import_loads_no_module():
    assert _fresh("import sys, becal\n"
                  "print(*(m for m in sys.modules if m.startswith('becal.')))\n") == "\n"


def test_star_import_gives_every_name():
    out = _fresh("from becal import *\nimport becal\n"
                 "print(all(globals()[n] is getattr(becal, n) for n in becal.__all__))\n")
    assert out == "True\n"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        becal.no_such_name
