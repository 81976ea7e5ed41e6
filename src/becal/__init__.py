"""Behavioral-calibration toolkit: rewards, metrics, risk sweeps, simulation,
and test-time scaling for confidence-reporting prediction logs.

Importing the package loads none of its modules: each public name below is
imported from its module on first use (PEP 562), so a CLI command compiles
and runs only the modules it calls.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"
# the bit generator of every simulated dataset, named in each output header
RNG_ALGORITHM = "philox4x64-10"
# the tts strategies, in the order their curves are listed
STRATEGIES = ("mean", "best", "majority", "maxconf", "majconf")

# each module and the public names it gives the package
_NAMES = {
    "errors": ("DataError", "DomainError", "ToolkitError", "UsageError"),
    "model": ("ClaimRecord", "Dataset", "PredictionRecord", "ValidationSummary",
              "dump_jsonl", "load_jsonl", "read_jsonl", "validate"),
    "claims": ("ClaimMarkupDoc", "aggregate_min", "aggregate_product",
               "apply_aggregation", "parse_claims"),
    "rewards": ("Action", "RiskPrior", "TabulatedPrior", "TruncatedBetaPrior",
                "UniformPrior", "decide", "expected_reward", "load_table",
                "optimal_threshold_policy", "parse_prior", "reward_bounded",
                "reward_brier", "reward_ce", "reward_explicit", "reward_integrated",
                "verify_propriety"),
    "metrics": ("CalibrationDiagram", "MetricReport", "abstention_accuracy",
                "brier_score", "calibration_diagram", "confidence_auc",
                "metric_report", "nll", "predictive_accuracy", "smece",
                "smece_at_bandwidth"),
    "behavior": ("ObjectiveReport", "RiskSweep", "check_objectives", "default_grid",
                 "snr_gain", "snr_interval", "snr_point", "sweep"),
    "simulate": ("AgentSpec", "BetaDifficulty", "ConstantReport", "CriticSurrogate",
                 "IdentityReport", "PointMassDifficulty", "PowerReport", "RewardCurve",
                 "UniformDifficulty", "expected_reward_curve", "generate",
                 "generate_claims", "generate_ensemble", "parse_difficulty",
                 "parse_report_map", "train_critic"),
    "tts": ("SampleGroup", "ScalingPoint", "exact_expected_accuracy", "group_records",
            "scaling_curve", "scaling_curves"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(["RNG_ALGORITHM", "STRATEGIES", *_NAMES, *_HOME])


def __getattr__(name: str):
    if name in _NAMES:  # a module, as `import becal.<name>` would give it
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
