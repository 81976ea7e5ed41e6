"""The one range rule: every numeric argument with a domain goes through
check_range (or check_count), so NaN, infinities and both ends behave alike."""

import math
import sys

import numpy as np
import pytest

from becal import behavior, errors, metrics, simulate, tts
from becal.errors import DomainError, check_count, check_range, check_seed
from becal.rewards import (Action, TabulatedPrior, TruncatedBetaPrior, UniformPrior,
                           optimal_threshold_policy, reward_bounded, reward_ce,
                           reward_explicit, reward_integrated, verify_propriety)
from becal.simulate import (BetaDifficulty, ConstantReport, CriticSurrogate,
                            PointMassDifficulty, PowerReport, expected_reward_curve,
                            generate_claims, generate_ensemble, train_critic)
from becal.tts import SampleGroup

from conftest import make_dataset

DATA = make_dataset([(0.9, True), (0.4, False), (0.7, True), (0.2, False)])
SWEEP = behavior.sweep(DATA)
GROUP = SampleGroup("g", (("A", 0.9, True), ("B", 0.4, False), ("A", 0.6, True)))
MIN_NORMAL = sys.float_info.min
MIN_EPSILON = 2.0 ** -53  # the least clip epsilon with 1 - epsilon < 1
MIN_BANDWIDTH = metrics._MIN_BANDWIDTH


def below(x):
    return math.nextafter(x, -math.inf)


def above(x):
    return math.nextafter(x, math.inf)


def knots(t0, t1, u0=0.0, u1=1.0):
    return TabulatedPrior(np.array([t0, t1]), np.array([u0, u1]))


# (the name its errors give, a call with the value, values accepted, values
# refused besides NaN and both infinities): each converted parameter, with
# its closed ends among the accepted values and its open ends, and the values
# just outside its closed ends, among the refused ones
RANGES = [
    ("t", lambda x: reward_explicit(Action.ANS, True, x), [0.0, 1.0], [below(0.0), above(1.0)]),
    ("t", lambda x: reward_bounded(Action.ABS, True, x), [0.0, 1.0], [below(0.0), above(1.0)]),
    ("t", lambda x: optimal_threshold_policy(0.5, x), [0.0, below(1.0)], [below(0.0), 1.0]),
    ("p", lambda x: optimal_threshold_policy(x, 0.5), [0.0, 1.0], [below(0.0), above(1.0)]),
    ("epsilon", TruncatedBetaPrior, [MIN_EPSILON, below(0.5)],
     [0.0, MIN_NORMAL, below(MIN_EPSILON), 0.5]),
    ("epsilon", lambda x: reward_ce(True, 0.5, x), [MIN_EPSILON, below(0.5)],
     [0.0, MIN_NORMAL, below(MIN_EPSILON), 0.5]),
    ("grid_step", lambda x: verify_propriety(UniformPrior(), 0.5, x), [0.1], [0.0, above(0.1)]),
    ("q", lambda x: verify_propriety(UniformPrior(), x, 0.1), [0.0, 1.0],
     [below(0.0), above(1.0)]),
    ("(smallest|largest) knot", lambda x: knots(x, 1.0), [0.0], [below(0.0)]),
    ("(smallest|largest) knot", lambda x: knots(0.0, x), [1.0], [above(1.0)]),
    ("(smallest|largest) CDF value", lambda x: knots(0.0, 1.0, u0=x), [-1e-9, 1e-9],
     [below(-1e-9), above(1e-9)]),
    ("(smallest|largest) CDF value", lambda x: knots(0.0, 1.0, u1=x), [1.0 - 1e-9, 1.0 + 1e-9],
     [below(1.0 - 1e-9), above(1.0 + 1e-9)]),
    ("nll floor", lambda x: metrics.nll(DATA, x), [MIN_EPSILON, below(0.5)],
     [0.0, below(MIN_EPSILON), 0.5]),
    ("bandwidth", lambda x: metrics.smece_at_bandwidth(DATA, x), [MIN_BANDWIDTH, 0.5],
     [0.0, below(MIN_BANDWIDTH)]),
    ("bandwidth", lambda x: metrics.calibration_diagram(DATA, x), [MIN_BANDWIDTH, 0.5],
     [0.0, below(MIN_BANDWIDTH)]),
    ("epsilon_h", lambda x: behavior.snr_point(SWEEP, 0.0, x), [MIN_NORMAL, 1e300],
     [0.0, below(MIN_NORMAL)]),
    ("epsilon_h", lambda x: behavior.snr_interval(SWEEP, 0.0, 1.0, x), [MIN_NORMAL, 1e300],
     [0.0, below(MIN_NORMAL)]),
    ("lo", lambda x: behavior.snr_interval(SWEEP, x, 1.0), [0.0], [below(0.0), 1.0]),
    ("hi", lambda x: behavior.snr_interval(SWEEP, 0.0, x), [1.0], [0.0, above(1.0)]),
    ("tolerance", lambda x: behavior.check_objectives(SWEEP, 0.5, tolerance=x), [0.0, 1e308],
     [below(0.0)]),
    ("baseline_acc", lambda x: behavior.check_objectives(SWEEP, x), [0.0, 1.0],
     [below(0.0), above(1.0)]),
    ("beta a", lambda x: BetaDifficulty(x, 1.0), [above(0.0), 1e308], [0.0]),
    ("beta b", lambda x: BetaDifficulty(1.0, x), [above(0.0), 1e308], [0.0]),
    ("difficulty value", lambda x: PointMassDifficulty((0.5, x)), [0.0, 1.0],
     [below(0.0), above(1.0)]),
    ("gamma", PowerReport, [above(0.0), 1e308], [0.0]),
    ("constant confidence", ConstantReport, [0.0, 1.0], [below(0.0), above(1.0)]),
    ("(smallest|largest) chain probability", lambda x: generate_claims([x, 0.5], seed=0),
     [0.0, 1.0], [below(0.0), above(1.0)]),
    ("base_range low", lambda x: generate_ensemble(1, 2, 0, base_range=(x, 1.0)), [0.0, 1.0],
     [below(0.0)]),
    ("base_range high", lambda x: generate_ensemble(1, 2, 0, base_range=(0.2, x)), [0.2, 1.0],
     [below(0.2), above(1.0)]),
    ("jitter", lambda x: generate_ensemble(1, 2, 0, jitter=x), [0.0, 1e308], [below(0.0)]),
    ("n_wrong_answers", lambda x: generate_ensemble(1, 2, 0, n_wrong_answers=x), [1],
     [0, 2 ** 53]),
    ("(smallest|largest) context probability", lambda x: CriticSurrogate.fresh([x, 0.5]),
     [0.0, 1.0], [below(0.0), above(1.0)]),
    ("learning_rate", lambda x: CriticSurrogate.fresh([0.5], learning_rate=x),
     [above(0.0), 0.5], [0.0, above(0.5)]),
    ("n_steps", lambda x: train_critic(CriticSurrogate.fresh([0.5]), x, seed=0), [0, 3],
     [-1, 2 ** 53]),
    ("q", lambda x: expected_reward_curve(UniformPrior(), x, points=5), [0.0, 1.0],
     [below(0.0), above(1.0)]),
    ("k", lambda x: tts.check_curve_options([x], 1, 0), [1, 3], [0, 2 ** 53]),
    ("k", lambda x: tts.exact_expected_accuracy([GROUP], x, "mean"), [1, 3], [0, 2 ** 53]),
    ("points", lambda x: expected_reward_curve(UniformPrior(), 0.5, points=x), [2, 3],
     [1, 0, -1, 2 ** 53]),
    ("n_resamples", lambda x: tts.check_curve_options([1], x, 0), [1, 3], [0, 2 ** 53]),
    ("k", lambda x: tts.scaling_curves([GROUP], ["mean"], [1, x], 1), [1, 3], [0, 2 ** 53]),
]


@pytest.fixture()
def no_series(monkeypatch):
    """smECE moments of two terms: a bandwidth at its lower end passes the check
    without building the 2^52-term series it allows."""
    monkeypatch.setattr(metrics, "_cosine_moments",
                        lambda p, weights, sigma: np.zeros((2, weights.shape[0])))


@pytest.mark.parametrize("name,call,accepted,refused", RANGES,
                         ids=[f"{i}-{row[0]}" for i, row in enumerate(RANGES)])
def test_every_parameter_follows_the_range_rule(name, call, accepted, refused, no_series):
    """NaN and both infinities are refused; a closed end is accepted and an
    open one refused, and so is a value just outside a closed end."""
    for value in accepted:
        call(value)
    for value in [math.nan, math.inf, -math.inf, *refused]:
        with pytest.raises(DomainError, match=f"^{name} must lie in "):
            call(value)


class TestCheckRange:
    def test_returns_the_value(self):
        assert check_range("x", 0.25, 0.0, 1.0) == 0.25
        assert check_range("x", 3, 0, 5, "()") == 3

    @pytest.mark.parametrize("ends", ["[]", "[)", "(]", "()"])
    def test_nan_never_passes(self, ends):
        with pytest.raises(DomainError, match=r"^x must lie in .0.0, 1.0.: nan$"):
            check_range("x", math.nan, 0.0, 1.0, ends)
        with pytest.raises(DomainError):
            check_range("x", math.nan, -math.inf, math.inf, ends)

    def test_brackets(self):
        assert check_range("x", math.inf, 0.0, math.inf, "[]") == math.inf
        with pytest.raises(DomainError, match=r"^x must lie in \[0.0, inf\): inf$"):
            check_range("x", math.inf, 0.0, math.inf, "[)")
        with pytest.raises(DomainError, match=r"^x must lie in \(0.0, 1.0\]: 0.0$"):
            check_range("x", 0.0, 0.0, 1.0, "(]")

    def test_seed_rule_takes_integers_only(self):
        """A seed is an int or numpy integer in [0, 2^64); a float, even a
        whole one, NaN or an infinity, and a string are DomainErrors."""
        assert check_seed(np.uint64(2 ** 64 - 1)) == 2 ** 64 - 1
        assert type(check_seed(np.int32(3))) is int
        for seed in (math.nan, math.inf, 1.5, 1.0, "3", None):
            with pytest.raises(DomainError, match="^seed must be an integer: "):
                check_seed(seed)
        for seed in (-1, 2 ** 64):
            with pytest.raises(DomainError, match="^seed must fit in 64 unsigned bits: "):
                check_seed(seed)

    def test_tts_counts_take_integers_only(self):
        """Each k and n_resamples is an int or numpy integer once in range; a
        float, even a whole one, and a bool are DomainErrors, as for a seed."""
        assert tts.check_curve_options(np.array([1, 3]), np.int64(2), 0) == ([1, 3], 0)
        assert [type(k) for k in tts.check_curve_options([np.int32(2)], 1, 0)[0]] == [int]
        for k in (2.7, 2.0, True, np.float64(2.0)):
            with pytest.raises(DomainError, match="^k must be an integer: "):
                tts.scaling_curves([GROUP], ["mean"], [1, k], 3)
            with pytest.raises(DomainError, match="^k must be an integer: "):
                tts.exact_expected_accuracy([GROUP], k, "mean")
        for n in (2.5, 1.0, True):
            with pytest.raises(DomainError, match="^n_resamples must be an integer: "):
                tts.scaling_curves([GROUP], ["mean"], [1], n)
        # one integer rule: a bool seed is refused as well
        with pytest.raises(DomainError, match="^seed must be an integer: True$"):
            check_seed(True)

    def test_count_and_seed_rules_stay_reachable_from_simulate(self):
        assert simulate.check_count is check_count is errors.check_count
        assert simulate.check_seed is check_seed is errors.check_seed


def test_smallest_epsilon_keeps_every_log_finite():
    """At epsilon = 2^-53, 1 - epsilon < 1, so p = 1 clips below 1: the
    extreme rewards are exactly -1 and 1 and the NLL is finite. Below it they
    were -inf, NaN and inf."""
    eps = 2.0 ** -53
    p = np.array([0.0, 1.0])
    assert reward_ce(np.array([False, False]), p, eps).tolist() == [0.0, -1.0]
    assert reward_ce(np.array([True, True]), p, eps).tolist() == [0.0, 1.0]
    prior = TruncatedBetaPrior(eps)
    for valid in (False, True):
        r = reward_integrated(np.array([valid, valid]), p, prior)
        assert np.all(np.isfinite(r)) and np.all(np.abs(r) <= 1.0 + 1e-12)
    # both records clipped to 2^-53 from the truth: -log(2^-53) each
    assert metrics.nll(make_dataset([(1.0, False), (0.0, True)]), eps) == \
        pytest.approx(53 * math.log(2.0), rel=1e-12)


def test_a_nan_cdf_cell_is_refused():
    with pytest.raises(DomainError, match="^smallest CDF value must lie in .*: nan$"):
        TabulatedPrior(np.array([0.0, 0.5, 1.0]), np.array([0.0, math.nan, 1.0]))
