"""Behavioral-calibration toolkit: rewards, metrics, risk sweeps, simulation,
and test-time scaling for confidence-reporting prediction logs."""

__version__ = "0.1.0"

from .errors import DataError, DomainError, ToolkitError, UsageError
from .model import (ClaimRecord, Dataset, PredictionRecord, ValidationSummary,
                    dump_jsonl, load_jsonl, read_jsonl, validate)
from .claims import (ClaimMarkupDoc, aggregate_min, aggregate_product,
                     apply_aggregation, parse_claims)
from .rewards import (Action, RiskPrior, TabulatedPrior, TruncatedBetaPrior,
                      UniformPrior, decide, expected_reward, load_table,
                      optimal_threshold_policy, parse_prior, reward_bounded,
                      reward_brier, reward_ce, reward_explicit,
                      reward_integrated, verify_propriety)
from .metrics import (CalibrationDiagram, MetricReport, abstention_accuracy,
                      brier_score, calibration_diagram, confidence_auc,
                      metric_report, nll, predictive_accuracy, smece,
                      smece_at_bandwidth)
from .behavior import (ObjectiveReport, RiskSweep, check_objectives,
                       default_grid, snr_gain, snr_interval, snr_point, sweep)
from .simulate import (RNG_ALGORITHM, AgentSpec, BetaDifficulty,
                       ConstantReport, CriticSurrogate, IdentityReport,
                       PointMassDifficulty, PowerReport, RewardCurve,
                       UniformDifficulty, expected_reward_curve, generate,
                       generate_claims, generate_ensemble, parse_difficulty,
                       parse_report_map, train_critic)
from .tts import (STRATEGIES, SampleGroup, ScalingPoint,
                  exact_expected_accuracy, group_records, scaling_curve,
                  scaling_curves)

__all__ = [name for name in dir() if not name.startswith("_")]
