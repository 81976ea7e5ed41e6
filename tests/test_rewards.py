"""Reward functions, risk priors, propriety, and the threshold policy."""

import math

import numpy as np
import pytest

from becal.errors import DataError, DomainError, UsageError
from becal.rewards import (Action, TabulatedPrior, TruncatedBetaPrior,
                           UniformPrior, decide, expected_reward, load_table,
                           optimal_threshold_policy, parse_prior,
                           reward_bounded, reward_brier, reward_ce,
                           reward_explicit, reward_integrated,
                           verify_propriety)

ANS, ABS = Action.ANS, Action.ABS


class TestDecide:
    def test_boundary_answers(self):
        assert decide(0.7, 0.7) is ANS
        assert decide(0.0, 0.0) is ANS

    def test_strictly_below_abstains(self):
        assert decide(0.69, 0.7) is ABS


class TestExplicitReward:
    def test_correct_answer(self):
        assert reward_explicit(ANS, True, 0.9) == 1.0

    def test_abstention(self):
        assert reward_explicit(ABS, False, 0.3) == 0.0

    def test_wrong_answer_midpoint(self):
        assert reward_explicit(ANS, False, 0.5) == -1.0

    def test_wrong_answer_steep(self):
        np.testing.assert_allclose(reward_explicit(ANS, False, 0.8), -4.0)

    def test_free_penalty_is_positive_zero(self):
        """At t = 0 a wrong answer costs 0.0, not -0.0, which JSON would write."""
        assert math.copysign(1.0, reward_explicit(ANS, False, 0.0)) == 1.0

    def test_penalty_diverges_at_one(self):
        with pytest.raises(DomainError):
            reward_explicit(ANS, False, 1.0)
        # the diverging branch is the only one rejected at t = 1
        assert reward_explicit(ANS, True, 1.0) == 1.0
        assert reward_explicit(ABS, False, 1.0) == 0.0

    def test_t_out_of_range(self):
        with pytest.raises(DomainError):
            reward_explicit(ABS, True, -0.1)
        with pytest.raises(DomainError):
            reward_explicit(ABS, True, 1.1)


class TestBoundedReward:
    def test_examples(self):
        assert reward_bounded(ABS, True, 0.5) == 0.0
        assert reward_bounded(ABS, False, 1.0) == 1.0
        assert reward_bounded(ANS, False, 0.0) == -1.0
        assert reward_bounded(ANS, True, 0.3) == 1.0

    def test_range(self):
        for t in np.linspace(0, 1, 21):
            for action in (ANS, ABS):
                for valid in (True, False):
                    assert -1.0 <= reward_bounded(action, valid, t) <= 1.0


class TestBrierReward:
    def test_examples(self):
        assert reward_brier(True, 1.0) == 1.0
        assert reward_brier(False, 1.0) == -1.0
        assert reward_brier(True, 0.5) == 0.75

    def test_decomposition_exact(self):
        p = np.linspace(0, 1, 1001)
        for valid in (True, False):
            lhs = reward_brier(valid, p)
            rhs = float(valid) - (p - float(valid)) ** 2
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-15)
            assert np.all(lhs >= -1.0) and np.all(lhs <= 1.0)


class TestCeReward:
    def test_endpoints(self):
        eps = 0.01
        np.testing.assert_allclose(reward_ce(True, 1 - eps, eps), 1.0)
        np.testing.assert_allclose(reward_ce(False, 1 - eps, eps), -1.0)
        np.testing.assert_allclose(reward_ce(True, eps, eps), 0.0, atol=1e-15)

    def test_clipping(self):
        eps = 0.01
        assert reward_ce(True, 1.0, eps) == reward_ce(True, 1 - eps, eps)
        assert reward_ce(False, 0.0, eps) == reward_ce(False, eps, eps)

    @pytest.mark.parametrize("eps", [1e-15, 1e-14, 1e-12, 3e-16, 0.01, 0.3,
                                     0.49999999999999994])
    def test_exact_at_both_ends(self, eps):
        """1 - eps rounds, so an upper clip taken from the clipped p missed
        -1 by up to 2.3e-5; clipping 1 - p itself meets -1, 0 and 1 exactly.
        The prior's CDF is 0 and 1 at the clip ends, where the log ratios
        alone give 0.25 at p = 0 for eps 0.49999999999999994."""
        prior = TruncatedBetaPrior(eps)
        for reward in (lambda v, p: reward_ce(v, p, eps),
                       lambda v, p: reward_integrated(v, p, prior)):
            assert [reward(True, 1.0), reward(False, 1.0)] == [1.0, -1.0]
            assert [reward(True, 0.0), reward(False, 0.0)] == [0.0, 0.0]
            assert str(reward(False, 0.0)) == "0.0"  # not -0.0

    def test_monotone_in_p(self):
        p = np.linspace(0, 1, 501)
        up = np.asarray(reward_ce(True, p))
        down = np.asarray(reward_ce(False, p))
        assert np.all(np.diff(up) >= 0)
        assert np.all(np.diff(down) <= 0)

    def test_epsilon_domain(self):
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(DomainError):
                reward_ce(True, 0.5, bad)


def quadrature_reward(valid, p, cdf_at_p, density, lo, hi, points=400_001):
    """Independent oracle: E over t of the bounded reward under decide(p, t).

    For t <= p the reward is the constant +-1; above p it is 2t - 1 weighted
    by the prior density, integrated with a dense trapezoid from max(p, lo).
    """
    base = (1.0 if valid else -1.0) * cdf_at_p
    a = max(p, lo)
    if a >= hi:
        return base
    ts = np.linspace(a, hi, points)
    return base + np.trapezoid((2 * ts - 1) * density(ts), ts)


class TestIntegratedReward:
    def test_uniform_examples(self):
        assert reward_integrated(True, 0.5, UniformPrior()) == 0.75
        np.testing.assert_allclose(reward_integrated(False, 0.0, UniformPrior()),
                                   0.0, atol=1e-15)

    def test_uniform_equals_brier(self):
        p = np.linspace(0, 1, 1001)
        prior = UniformPrior()
        for valid in (True, False):
            np.testing.assert_allclose(reward_integrated(valid, p, prior),
                                       reward_brier(valid, p),
                                       rtol=0, atol=1e-12)

    def test_truncated_beta_equals_ce(self):
        p = np.linspace(0, 1, 1001)
        for eps in (0.01, 0.05):
            prior = TruncatedBetaPrior(eps)
            for valid in (True, False):
                np.testing.assert_allclose(reward_integrated(valid, p, prior),
                                           reward_ce(valid, p, eps),
                                           rtol=0, atol=1e-9)

    def test_uniform_against_quadrature(self):
        prior = UniformPrior()
        for p in (0.0, 0.17, 0.5, 0.83, 1.0):
            for valid in (True, False):
                oracle = quadrature_reward(valid, p, p, lambda t: np.ones_like(t),
                                           0.0, 1.0)
                np.testing.assert_allclose(reward_integrated(valid, p, prior),
                                           oracle, rtol=0, atol=1e-9)

    def test_truncated_beta_against_quadrature(self):
        eps = 0.01
        prior = TruncatedBetaPrior(eps)
        norm = 2.0 * math.log((1 - eps) / eps)

        def density(t):
            return 1.0 / (norm * t * (1.0 - t))

        for p in (0.0, 0.3, 0.5, 0.9, 1.0):
            for valid in (True, False):
                oracle = quadrature_reward(valid, p, float(prior.cdf(p)),
                                           density, eps, 1 - eps)
                np.testing.assert_allclose(reward_integrated(valid, p, prior),
                                           oracle, rtol=0, atol=1e-8)

    def test_tabulated_uniform_matches_brier(self):
        knots = np.linspace(0.0, 1.0, 10_001)
        prior = TabulatedPrior(knots, knots.copy())
        np.testing.assert_allclose(reward_integrated(True, 0.3, prior), 0.51,
                                   rtol=0, atol=1e-6)
        p = np.linspace(0, 1, 1001)
        for valid in (True, False):
            np.testing.assert_allclose(reward_integrated(valid, p, prior),
                                       reward_brier(valid, p),
                                       rtol=0, atol=1e-6)

    def test_tabulated_piecewise_hand_computed(self):
        # density 1.6 on [0, 0.5] and 0.4 on [0.5, 1]
        prior = TabulatedPrior(np.array([0.0, 0.5, 1.0]),
                               np.array([0.0, 0.8, 1.0]))
        # tail(0.25) = 1.6 * (0.125 - 0.03125) + 0.4 * (0.5 - 0.125) = 0.3
        np.testing.assert_allclose(reward_integrated(True, 0.25, prior),
                                   2 * 0.4 + 2 * 0.3 - 1, atol=1e-12)
        np.testing.assert_allclose(reward_integrated(False, 0.25, prior),
                                   2 * 0.3 - 1, atol=1e-12)

    def test_result_bounded(self):
        rng = np.random.default_rng(5)
        knots = np.sort(np.concatenate(([0, 1], rng.random(9))))
        cdf = np.sort(np.concatenate(([0, 1], rng.random(9))))
        priors = [UniformPrior(), TruncatedBetaPrior(0.02),
                  TabulatedPrior(knots, cdf)]
        p = np.linspace(0, 1, 201)
        for prior in priors:
            for valid in (True, False):
                r = np.asarray(reward_integrated(valid, p, prior))
                assert np.all(r >= -1.0 - 1e-12) and np.all(r <= 1.0 + 1e-12)


@pytest.mark.parametrize("reward", [
    reward_brier,
    lambda v, p: reward_ce(v, p, 0.05),
    lambda v, p: reward_integrated(v, p, UniformPrior()),
    lambda v, p: reward_integrated(v, p, TruncatedBetaPrior(0.01)),
    lambda v, p: reward_integrated(v, p, TabulatedPrior(np.array([0.0, 0.3, 1.0]),
                                                        np.array([0.0, 0.6, 1.0]))),
], ids=["brier", "ce", "uniform", "beta00", "table"])
def test_array_valid_matches_scalar_calls_exactly(reward):
    """One array call gives the bits of one scalar call per record."""
    rng = np.random.default_rng(3)
    p = np.r_[0.0, 0.3, 1.0, rng.random(200)]
    v = rng.random(p.size) < 0.5
    assert reward(v, p).tolist() == [reward(vi, pi) for vi, pi in
                                      zip(v.tolist(), p.tolist())]


class TestTabulatedPrior:
    def test_validation(self):
        with pytest.raises(DomainError):
            TabulatedPrior(np.array([0.0, 0.5, 0.5, 1.0]),
                           np.array([0.0, 0.3, 0.6, 1.0]))  # t not increasing
        with pytest.raises(DomainError):
            TabulatedPrior(np.array([0.0, 1.0]), np.array([0.1, 1.0]))
        with pytest.raises(DomainError):
            TabulatedPrior(np.array([0.0, 1.0]), np.array([0.0, 0.9]))
        with pytest.raises(DomainError):
            TabulatedPrior(np.array([0.0, 0.5, 1.0]),
                           np.array([0.0, 0.7, 0.5]))  # cdf decreasing

    @pytest.mark.parametrize("knots,cdf", [
        ([0.0, 0.5, 1.0], [0.0, 1.0]),  # mismatched
        ([0.5], [1.0]),  # one knot
        ([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]),  # 2-D
    ], ids=["mismatched", "one-knot", "2-d"])
    def test_knot_arrays_must_match(self, knots, cdf):
        with pytest.raises(DomainError, match="^tabulated prior needs matching 1-d arrays "
                                              "of >= 2 knots$"):
            TabulatedPrior(np.array(knots), np.array(cdf))

    def test_decreasing_cdf_rejected(self):
        # from 0 to 1, so only the non-decreasing check refuses it
        with pytest.raises(DomainError, match="^tabulated CDF must be non-decreasing$"):
            TabulatedPrior(np.array([0.0, 0.3, 0.6, 1.0]), np.array([0.0, 0.6, 0.4, 1.0]))

    def test_cdf_interpolates(self):
        prior = TabulatedPrior(np.array([0.0, 0.5, 1.0]),
                               np.array([0.0, 0.8, 1.0]))
        np.testing.assert_allclose(prior.cdf(0.25), 0.4)
        np.testing.assert_allclose(prior.cdf([0.0, 0.5, 1.0]), [0.0, 0.8, 1.0])


class TestPropriety:
    def test_uniform_examples(self):
        assert abs(verify_propriety(UniformPrior(), 0.3) - 0.3) <= 0.001
        assert verify_propriety(UniformPrior(), 0.0) == 0.0

    def test_truncated_beta(self):
        prior = TruncatedBetaPrior(0.01)
        assert abs(verify_propriety(prior, 0.7) - 0.7) <= 0.001

    def test_grid_step_domain(self):
        with pytest.raises(DomainError):
            verify_propriety(UniformPrior(), 0.5, grid_step=0.2)
        with pytest.raises(DomainError):
            verify_propriety(UniformPrior(), 0.5, grid_step=0.0)

    @pytest.mark.parametrize("grid_step", [1e-300, 5e-324])
    def test_grid_too_fine_to_count(self, grid_step):
        """1 / grid_step + 1 points: 1e300 of them, or inf, is no count."""
        with pytest.raises(DomainError, match="^grid points 1 / grid_step"):
            verify_propriety(UniformPrior(), 0.5, grid_step=grid_step)

    def test_expected_reward_is_the_mixture(self):
        prior = UniformPrior()
        p = np.linspace(0, 1, 11)
        q = 0.35
        mix = (q * np.asarray(reward_integrated(True, p, prior))
               + (1 - q) * np.asarray(reward_integrated(False, p, prior)))
        np.testing.assert_allclose(expected_reward(prior, q, p), mix, atol=1e-15)


class TestThresholdPolicy:
    def test_examples(self):
        assert optimal_threshold_policy(0.6, 0.5) is ANS
        assert optimal_threshold_policy(0.5, 0.5) is ANS  # tie answers
        assert optimal_threshold_policy(0.2, 0.5) is ABS

    def test_agrees_with_decide_on_grid(self):
        for p in np.linspace(0, 1, 101):
            for t in np.linspace(0, 0.99, 100):
                assert optimal_threshold_policy(float(p), float(t)) is decide(
                    float(p), float(t))

    def test_agrees_with_decide_one_ulp_from_t(self):
        for k in range(1, 1000):
            t = k / 1000
            for p in (math.nextafter(t, 0.0), t, math.nextafter(t, 1.0)):
                assert optimal_threshold_policy(p, t) is decide(p, t), (p, t)

    def test_t_one_rejected(self):
        with pytest.raises(DomainError):
            optimal_threshold_policy(0.5, 1.0)

    @pytest.mark.parametrize("p", [math.nan, -0.1, 1.5, math.inf])
    def test_belief_out_of_range_rejected(self, p):
        with pytest.raises(DomainError):
            optimal_threshold_policy(p, 0.5)


class TestPriorParsing:
    def test_named_priors(self):
        assert isinstance(parse_prior("uniform"), UniformPrior)
        beta = parse_prior("beta00:0.05")
        assert isinstance(beta, TruncatedBetaPrior) and beta.epsilon == 0.05
        assert parse_prior("beta00").epsilon == 0.01

    def test_table_prior(self, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text("t,cdf\n0.0,0.0\n0.5,0.8\n1.0,1.0\n")
        prior = parse_prior(f"table:{path}")
        np.testing.assert_allclose(prior.cdf(0.25), 0.4)

    def test_unknown_prior(self):
        with pytest.raises(UsageError):
            parse_prior("gaussian")
        with pytest.raises(UsageError):
            parse_prior("beta00:zero")
        with pytest.raises(UsageError):
            parse_prior("table:")

    def test_uniform_takes_no_argument(self):
        with pytest.raises(UsageError, match="uniform prior takes no argument"):
            parse_prior("uniform:3")

    def test_table_comments_and_one_header(self, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text("# knots of u\nt,cdf\n\n0.0,0.0\n  # mid\n0.5,0.8\n1.0,1.0\n")
        assert load_table(str(path)).cdf_values.tolist() == [0.0, 0.8, 1.0]

    @pytest.mark.parametrize("text,message", [
        ("t,cdf\n0.0,0.0\n0.5,0.8,0.9\n1.0,1.0\n", "expected two columns"),
        ("t,cdf\n0.0,0.0\nhalf,0.8\n1.0,1.0\n", "non-numeric row \\['half', '0.8'\\]"),
        # only the first data line may be a header
        ("t,cdf\nx,y\nz,w\n0.0,0.0\n1.0,1.0\n", "non-numeric row \\['x', 'y'\\]"),
    ], ids=["three-cells", "non-numeric-after-data", "second-header"])
    def test_table_row_errors_name_the_row(self, text, message, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            load_table(str(path))

    def test_load_table_errors(self, tmp_path):
        with pytest.raises(DataError):
            load_table(str(tmp_path / "missing.csv"))
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,0.0\n1.0,0.9\n")  # cdf does not reach 1
        with pytest.raises(DataError):
            load_table(str(bad))
        short = tmp_path / "short.csv"
        short.write_text("0.0,0.0\n")
        with pytest.raises(DataError):
            load_table(str(short))
