"""Synthetic agents, claim chains, the tabular critic, and reward curves."""

import math

import numpy as np
import pytest

from becal.claims import apply_aggregation
from becal.behavior import sweep
from becal.errors import DataError, DomainError, UsageError
from becal.metrics import confidence_auc, predictive_accuracy, smece
from becal.rewards import TruncatedBetaPrior, UniformPrior
from becal.simulate import (AgentSpec, BetaDifficulty, ConstantReport,
                            CriticSurrogate, IdentityReport,
                            PointMassDifficulty, PowerReport,
                            UniformDifficulty, expected_reward_curve,
                            generate, generate_claims, generate_ensemble,
                            parse_difficulty, parse_report_map, train_critic)


class TestParsing:
    def test_difficulty_specs(self):
        assert parse_difficulty("uniform") == UniformDifficulty()
        assert parse_difficulty("beta:2,5") == BetaDifficulty(2.0, 5.0)
        assert parse_difficulty("points:0.3,0.7") == \
            PointMassDifficulty((0.3, 0.7))

    @pytest.mark.parametrize("bad", ["beta:2", "beta:-1,2", "points:1.5",
                                     "points:", "gauss", "uniform:3"])
    def test_bad_difficulty(self, bad):
        with pytest.raises(UsageError):
            parse_difficulty(bad)

    def test_point_mass_needs_a_value(self):
        with pytest.raises(DomainError, match="needs at least one value"):
            PointMassDifficulty(())

    def test_report_specs(self):
        assert parse_report_map("calibrated") == IdentityReport()
        assert parse_report_map("identity") == IdentityReport()
        assert parse_report_map("power:0.5") == PowerReport(0.5)
        assert parse_report_map("overconfident:0.5") == PowerReport(0.5)
        assert parse_report_map("underconfident:2") == PowerReport(2.0)
        assert parse_report_map("constant:0.7") == ConstantReport(0.7)

    @pytest.mark.parametrize("bad", ["overconfident:1.5", "underconfident:0.5",
                                     "constant:1.5", "power:0", "power:",
                                     "oracle"])
    def test_bad_report(self, bad):
        with pytest.raises(UsageError):
            parse_report_map(bad)


class TestAgentSpec:
    def test_validation(self):
        prior, rmap = UniformDifficulty(), IdentityReport()
        with pytest.raises(DomainError):
            AgentSpec(prior, rmap, n_questions=0)
        with pytest.raises(DomainError):
            AgentSpec(prior, rmap, n_questions=5, n_claims=0)
        with pytest.raises(DomainError):
            AgentSpec(prior, rmap, n_questions=5, seed=-1)

    def test_report_maps_stay_in_unit_interval(self):
        q = np.linspace(0, 1, 101)
        for rmap in (IdentityReport(), PowerReport(0.5), PowerReport(3.0),
                     ConstantReport(0.2)):
            p = rmap.apply(q)
            assert np.all((p >= 0) & (p <= 1))
            assert np.all(np.diff(p) >= 0)


class TestGenerate:
    def test_deterministic(self):
        spec = AgentSpec(UniformDifficulty(), IdentityReport(),
                         n_questions=50, seed=9)
        assert generate(spec).records == generate(spec).records

    def test_constant_report(self):
        spec = AgentSpec(UniformDifficulty(), ConstantReport(1.0),
                         n_questions=20_000, seed=5)
        ds = generate(spec)
        assert np.all(ds.confidences() == 1.0)
        # predictive accuracy estimates the prior mean
        assert predictive_accuracy(ds) == pytest.approx(0.5, abs=0.02)

    def test_point_mass_reproducible(self):
        spec = AgentSpec(PointMassDifficulty((0.5,)), IdentityReport(),
                         n_questions=4, seed=1234)
        first = [r.valid for r in generate(spec)]
        second = [r.valid for r in generate(spec)]
        assert first == second

    def test_seed_changes_data(self):
        base = dict(difficulty_prior=UniformDifficulty(),
                    report_map=IdentityReport(), n_questions=100)
        a = generate(AgentSpec(seed=0, **base))
        b = generate(AgentSpec(seed=1, **base))
        assert a.records != b.records

    def test_meta_round_trips_difficulty(self):
        spec = AgentSpec(UniformDifficulty(), PowerReport(0.5),
                         n_questions=30, seed=2)
        for r in generate(spec):
            q = float(r.meta["q"])
            assert r.confidence == pytest.approx(math.sqrt(q), rel=1e-12)

    def test_claim_chains(self):
        k = 5
        spec = AgentSpec(UniformDifficulty(), IdentityReport(),
                         n_questions=200, n_claims=k, seed=3)
        ds = generate(spec)
        for r in ds:
            assert len(r.claims) == k
            assert r.valid == all(c.valid for c in r.claims)
            q = float(r.meta["q"])
            for j, c in enumerate(r.claims):
                assert c.text == f"step {j + 1}"
                assert c.confidence == pytest.approx(q ** (1.0 / k), rel=1e-12)
            product = math.prod(c.confidence for c in r.claims)
            assert product == pytest.approx(r.confidence, rel=1e-12)


class TestGenerateClaims:
    def test_sure_chain(self):
        for seed in range(20):
            claims, final = generate_claims([1.0, 1.0, 1.0], seed=seed)
            assert final and all(c.valid for c in claims)
            assert [c.confidence for c in claims] == [1.0, 1.0, 1.0]

    def test_empty_chain(self):
        with pytest.raises(DataError):
            generate_claims([], seed=0)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            generate_claims([0.5, 1.2], seed=0)

    def test_ten_claim_frequency(self):
        hits = sum(generate_claims([0.8] * 10, seed=s)[1] for s in range(20_000))
        assert hits / 20_000 == pytest.approx(0.8 ** 10, abs=0.01)

    def test_single_coin(self):
        hits = sum(generate_claims([0.5], seed=s)[1] for s in range(10_000))
        assert hits / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_report_map_override(self):
        claims, _ = generate_claims([0.25, 0.81], seed=7,
                                    report_map=PowerReport(0.5))
        assert [c.confidence for c in claims] == [0.5, 0.9]


class TestCritic:
    def test_zero_steps_identity(self):
        sur = CriticSurrogate.fresh([0.3, 0.7], v0=0.2)
        after = train_critic(sur, 0, seed=0)
        np.testing.assert_array_equal(after.values, sur.values)
        assert after.steps == 0

    def test_validation(self):
        with pytest.raises(DomainError):
            CriticSurrogate.fresh([0.5], learning_rate=0.0)
        with pytest.raises(DomainError):
            CriticSurrogate.fresh([0.5], learning_rate=0.6)
        with pytest.raises(DomainError):
            CriticSurrogate.fresh([1.5])
        with pytest.raises(DomainError):
            train_critic(CriticSurrogate.fresh([0.5]), -1, seed=0)
        for contexts in ([], [[0.5]]):
            with pytest.raises(DomainError, match="contexts must be a non-empty 1-d array"):
                CriticSurrogate.fresh(contexts)
        with pytest.raises(DomainError, match="values must match contexts in shape"):
            CriticSurrogate(contexts=[0.5, 0.6], values=[0.5])

    def test_single_context_converges(self):
        sur = CriticSurrogate.fresh([0.5], v0=0.0)
        out = train_critic(sur, 20_000, seed=11)
        assert 0.45 <= out.values[0] <= 0.55
        assert out.visits[0] == 20_000

    def test_certain_context_hits_one(self):
        # first visit at lr = 0.5 jumps straight to the running mean, 1
        out = train_critic(CriticSurrogate.fresh([1.0], v0=0.0), 50, seed=0)
        assert out.values[0] == 1.0

    def test_max_rate_is_running_mean(self):
        sur = CriticSurrogate.fresh([0.2, 0.5, 0.9], v0=0.0, learning_rate=0.5)
        out = train_critic(sur, 3_000, seed=4)
        assert out.visits.min() > 0
        np.testing.assert_allclose(out.values, out.successes / out.visits,
                                   rtol=0, atol=1e-10)

    def test_values_minimize_observed_brier(self):
        out = train_critic(CriticSurrogate.fresh([0.2, 0.5, 0.9]), 3_000, seed=4)
        # SSE(x) = m x^2 - 2 s x + s from the sufficient statistics
        sse = lambda x: out.visits * x ** 2 - 2 * out.successes * x + out.successes
        best = sse(out.values)
        mean = out.successes / out.visits
        assert np.all(sse(mean) <= best + 1e-12)
        for delta in (-0.01, 0.01, 0.3):
            assert np.all(best <= sse(out.values + delta) + 1e-12)

    def test_training_is_deterministic(self):
        sur = CriticSurrogate.fresh([0.1, 0.9])
        a = train_critic(sur, 500, seed=21)
        b = train_critic(sur, 500, seed=21)
        np.testing.assert_array_equal(a.values, b.values)


class TestRewardCurve:
    def test_uniform_half(self):
        curve = expected_reward_curve(UniformPrior(), 0.5)
        np.testing.assert_allclose(curve.expected, curve.p - curve.p ** 2,
                                   rtol=0, atol=1e-12)
        peak = curve.p[np.argmax(curve.expected)]
        assert peak == pytest.approx(0.5, abs=1e-12)
        assert curve.expected.max() == pytest.approx(0.25, abs=1e-12)

    def test_impossible_question(self):
        curve = expected_reward_curve(UniformPrior(), 0.0)
        np.testing.assert_allclose(curve.expected, -curve.p ** 2,
                                   rtol=0, atol=1e-12)
        assert curve.p[np.argmax(curve.expected)] == 0.0

    def test_beta00_peak(self):
        curve = expected_reward_curve(TruncatedBetaPrior(0.01), 0.3)
        peak = curve.p[np.argmax(curve.expected)]
        assert abs(peak - 0.300) <= 0.001

    def test_q_domain(self):
        with pytest.raises(DomainError):
            expected_reward_curve(UniformPrior(), 1.2)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_one_seed_rule(seed):
    """Every seeded generator takes 0 <= seed < 2^64 and raises DomainError otherwise."""
    calls = [
        lambda s: AgentSpec(UniformDifficulty(), IdentityReport(), n_questions=2, seed=s),
        lambda s: generate_claims([0.5], seed=s),
        lambda s: train_critic(CriticSurrogate.fresh([0.5]), 0, seed=s),
        lambda s: train_critic(CriticSurrogate.fresh([0.5]), 3, seed=s),
        lambda s: generate_ensemble(1, 1, seed=s),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="64 unsigned bits"):
            call(seed)
        call(2 ** 64 - 1)
        call(0)


class TestEnsemble:
    def test_shape_and_labels(self):
        ds = generate_ensemble(3, 4, seed=0)
        assert len(ds) == 12
        assert sorted({r.group for r in ds}) == ["g0", "g1", "g2"]
        for r in ds:
            assert (r.answer == "A") == r.valid
            assert 0.05 <= r.confidence <= 0.95

    def test_deterministic(self):
        assert generate_ensemble(5, 6, seed=3).records == \
            generate_ensemble(5, 6, seed=3).records

    def test_validation(self):
        with pytest.raises(DomainError):
            generate_ensemble(0, 4, seed=0)
        with pytest.raises(DomainError):
            generate_ensemble(4, 4, seed=0, base_range=(0.9, 0.1))


class TestAgentFamilies:
    def test_overconfident_has_larger_smece(self):
        base = dict(difficulty_prior=UniformDifficulty(), n_questions=4_000,
                    seed=17)
        cal, _ = smece(generate(AgentSpec(report_map=IdentityReport(), **base)))
        over, _ = smece(generate(AgentSpec(report_map=PowerReport(0.5), **base)))
        assert over > cal

    def test_overconfident_breaks_tp_floor(self):
        # q fixed at 0.25, stated confidence 0.5: answering at t <= 0.5 wins
        # only a quarter of the time, far below the threshold
        spec = AgentSpec(PointMassDifficulty((0.25,)), PowerReport(0.5),
                         n_questions=2_000, seed=23)
        sw = sweep(generate(spec))
        defined = ~np.isnan(sw.tp)
        assert np.any(sw.tp[defined] < sw.grid[defined] - 0.05)

    def test_auc_invariant_under_report_map(self):
        # same seed draws the same (q, valid); the report map only reorders
        # nothing, so the rank statistic cannot move
        base = dict(difficulty_prior=UniformDifficulty(), n_questions=800,
                    seed=29)
        cal = generate(AgentSpec(report_map=IdentityReport(), **base))
        over = generate(AgentSpec(report_map=PowerReport(0.5), **base))
        assert [r.valid for r in cal] == [r.valid for r in over]
        assert confidence_auc(cal) == confidence_auc(over)

    def test_product_aggregation_recovers_calibration(self):
        spec = AgentSpec(UniformDifficulty(), IdentityReport(),
                         n_questions=4_000, n_claims=5, seed=31)
        ds = apply_aggregation(generate(spec), "product")
        value, _ = smece(ds)
        assert value <= 0.05
