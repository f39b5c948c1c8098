import math
from dataclasses import replace

import numpy as np
import pytest

from deltaucb.core import AuctionConfig, ConfigError, exploration_budget, validate_config
from deltaucb.environment import draw_realization
from deltaucb.mechanism import run_single_slot
from deltaucb.strategy_lab import (
    BaselineKind,
    build_scenario,
    per_round_utilities,
    run_baseline,
    t23_budget,
    verify_dsic,
    verify_ir,
)

from conftest import make_profiles, random_instance, with_bids


def _single_config(num_agents=2, horizon=2000, delta=0.5, seed=0):
    return validate_config(
        AuctionConfig(num_agents=num_agents, horizon=horizon, delta=delta, seed=seed)
    )


@pytest.fixture
def separated_instance():
    config = _single_config(num_agents=2, horizon=2500, delta=0.5, seed=42)
    profiles = make_profiles([0.9, 0.4], [1.0, 0.8])
    realization = draw_realization(config, profiles)
    return config, profiles, realization


def _outcome_for_bids(config, profiles, realization, bids):
    return run_single_slot(config, with_bids(profiles, bids), realization=realization)


def test_winning_overbid_changes_nothing(separated_instance):
    # truthful winner case: an overbid keeps the allocation and the price
    config, profiles, realization = separated_instance
    truthful = _outcome_for_bids(config, profiles, realization, [1.0, 0.8])
    overbid = _outcome_for_bids(config, profiles, realization, [1.0, 0.8])
    assert truthful.outcome.winner == 1
    u_truth = per_round_utilities(config, profiles, realization, truthful.outcome, 1,
                                  truthful.summary.exploration_rounds_used)
    u_over = per_round_utilities(config, profiles, realization, overbid.outcome, 1,
                                 overbid.summary.exploration_rounds_used)
    assert np.array_equal(u_truth, u_over)


def test_underbid_below_pivot_forfeits_the_slot(separated_instance):
    config, profiles, realization = separated_instance
    truthful = _outcome_for_bids(config, profiles, realization, [1.0, 0.8])
    dropped = _outcome_for_bids(config, profiles, realization, [0.01, 0.8])
    assert truthful.outcome.winner == 1 and dropped.outcome.winner == 2
    explore_until = truthful.summary.exploration_rounds_used
    u_truth = per_round_utilities(config, profiles, realization, truthful.outcome, 1, explore_until)
    u_drop = per_round_utilities(config, profiles, realization, dropped.outcome, 1, explore_until)
    assert np.all(u_drop[explore_until:] == 0.0)
    assert np.all(u_truth >= u_drop)


def test_losing_overbid_buys_negative_utility(separated_instance):
    # truthful loser case: overbidding past the pivot wins rounds at a price above value
    config, profiles, realization = separated_instance
    truthful = _outcome_for_bids(config, profiles, realization, [1.0, 0.8])
    assert truthful.outcome.winner == 1
    grabbed = _outcome_for_bids(config, profiles, realization, [1.0, 1.0])
    explore_until = truthful.summary.exploration_rounds_used
    if grabbed.outcome.winner == 2:
        u_grab = per_round_utilities(config, profiles, realization, grabbed.outcome, 2,
                                     explore_until)
        exploit = u_grab[explore_until:]
        assert np.all(exploit <= 0.0)
        assert exploit.min() < 0.0


def test_dsic_shortcut_matches_full_runs(separated_instance):
    """The verifier re-declares outcomes on the shared learner instead of
    re-running whole simulations; both must agree exactly."""
    from deltaucb.mechanism import declare_winner

    config, profiles, realization = separated_instance
    base = run_single_slot(config, with_bids(profiles, [1.0, 0.8]), realization=realization)
    explore_until = base.summary.exploration_rounds_used
    for bid in (0.05, 0.45, 0.95):
        bids = np.array([1.0, bid])
        direct = declare_winner(base.outcome.learner.copy(), bids)
        full = run_single_slot(config, with_bids(profiles, bids), realization=realization)
        assert direct.winner == full.outcome.winner
        assert direct.payment_per_click == full.outcome.payment_per_click
        u_direct = per_round_utilities(config, profiles, realization, direct, 2, explore_until)
        u_full = per_round_utilities(config, profiles, realization, full.outcome, 2,
                                     explore_until)
        assert np.array_equal(u_direct, u_full)


def test_multi_dsic_shortcut_matches_full_runs():
    from deltaucb.mechanism_multi import declare_ranking, run_multi_slot, telescoping

    config = validate_config(
        AuctionConfig(num_agents=3, num_slots=2, horizon=1200, delta=0.7,
                      prominences=(1.0, 0.6), seed=55)
    )
    profiles = make_profiles([0.8, 0.6, 0.3], [1.0, 0.9, 0.7])
    realization = draw_realization(config, profiles)
    base = run_multi_slot(config, profiles, realization=realization)
    explore_until = base.summary.exploration_rounds_used
    for bid in (0.1, 0.5, 1.0):
        bids = np.array([1.0, 0.9, bid])
        direct = declare_ranking(base.outcome.learner.copy(), bids, config.prominences, telescoping)
        full = run_multi_slot(config, with_bids(profiles, bids), realization=realization)
        assert direct.ranking == full.outcome.ranking
        assert direct.payments_per_click == full.outcome.payments_per_click
        u_direct = per_round_utilities(config, profiles, realization, direct, 3, explore_until)
        u_full = per_round_utilities(config, profiles, realization, full.outcome, 3,
                                     explore_until)
        assert np.array_equal(u_direct, u_full)


def test_verify_dsic_holds_on_random_single_slot_instances():
    rng = np.random.default_rng(2)
    for index in range(20):
        num_agents = int(rng.integers(2, 7))
        config = _single_config(num_agents=num_agents, horizon=2000, delta=0.45, seed=index)
        profiles = random_instance(rng, num_agents)
        realization = draw_realization(config, profiles)
        for deviator in range(1, num_agents + 1):
            scenario = build_scenario(config, profiles, realization, deviator)
            report = verify_dsic(config, profiles, scenario)
            assert report.holds, (
                f"instance {index} deviator {deviator}: gain {report.worst_violation} "
                f"at bid {report.witness_bid}, round {report.witness_round}"
            )
            assert report.worst_violation <= 1e-12


def test_scenario_grid_shape(separated_instance):
    config, profiles, realization = separated_instance
    scenario = build_scenario(config, profiles, realization, deviator=2)
    grid = np.array(scenario.bid_grid)
    assert len(grid) == 21
    assert grid.min() >= 0.0 and grid.max() <= config.v_max
    uniform = set(np.linspace(0.0, config.v_max, 17).tolist())
    probes = [x for x in scenario.bid_grid if x not in uniform]
    assert len(probes) >= 2  # pivot +/- probes made it into the grid
    # no grid bid produces an exact score tie with a competitor
    result = run_single_slot(config, profiles, realization=realization)
    ucb = result.outcome.learner.ucb
    other_scores = {float(ucb[0] * profiles[0].bid)}
    for x in scenario.bid_grid:
        assert float(ucb[1] * x) not in other_scores


def test_verify_ir_exact_on_random_instances():
    rng = np.random.default_rng(7)
    for index in range(15):
        num_agents = int(rng.integers(2, 7))
        config = _single_config(num_agents=num_agents, horizon=1500, delta=0.5, seed=100 + index)
        profiles = random_instance(rng, num_agents, truthful=True)
        report = verify_ir(config, profiles, draw_realization(config, profiles))
        assert report.holds
        assert report.worst_utility >= 0.0


def test_learning_is_identical_across_bid_profiles(separated_instance):
    config, profiles, realization = separated_instance
    truthful = _outcome_for_bids(config, profiles, realization, [1.0, 0.8])
    deviant = _outcome_for_bids(config, profiles, realization, [0.2, 0.8])
    assert truthful.outcome.learner.to_bytes() == deviant.outcome.learner.to_bytes()


def test_oracle_baseline_has_zero_regret():
    config = _single_config(num_agents=3, horizon=800, delta=0.4, seed=3)
    profiles = make_profiles([0.7, 0.5, 0.2], [0.9, 1.0, 0.6])
    result = run_baseline(BaselineKind.ORACLE_ALLOCATION, config, profiles)
    assert result.summary.total_delta_regret == 0.0
    assert result.summary.total_standard_regret == 0.0
    assert result.summary.total_revenue == 0.0


def test_plain_ucb_concentrates_on_best_arm():
    profiles = make_profiles([0.9, 0.4, 0.2], [1.0, 1.0, 1.0])

    def best_arm_frequency(horizon, seeds=5):
        freq = 0.0
        config = _single_config(num_agents=3, horizon=horizon, delta=0.3)
        for seed in range(seeds):
            realization = draw_realization(replace(config, seed=seed), profiles)
            result = run_baseline(BaselineKind.PLAIN_UCB, config, profiles,
                                  realization=realization)
            # zero payments, so utility / valuation counts the best arm's clicks;
            # pull share is cleaner: recompute from regret-free welfare accounting
            welfare_best = 0.9
            share = result.summary.total_welfare / (horizon * welfare_best)
            freq += share
        return freq / seeds

    small = best_arm_frequency(1000)
    large = best_arm_frequency(12_000)
    assert large > small
    assert large >= 0.9


def test_t23_budget_value():
    assert t23_budget(5, 10**5) == math.ceil(5 * (10**5) ** (2.0 / 3.0))


def test_t23_explores_longer_and_regrets_more_when_tolerance_is_loose():
    config = _single_config(num_agents=5, horizon=10**5, delta=0.5, seed=11)
    profiles = make_profiles([0.9, 0.6, 0.5, 0.3, 0.1])
    assert exploration_budget(config) < t23_budget(5, 10**5)
    for seed in range(10):
        realization = draw_realization(replace(config, seed=seed), profiles)
        tolerant = run_single_slot(config, profiles, realization=realization)
        poly = run_baseline(BaselineKind.EXPLORATION_SEPARATED_T23, config, profiles,
                            realization=realization)
        assert poly.summary.exploration_delta_regret > tolerant.summary.exploration_delta_regret


def test_baselines_reject_multi_slot():
    config = validate_config(AuctionConfig(num_agents=3, num_slots=2, horizon=100, delta=0.5,
                                           prominences=(1.0, 0.5)))
    profiles = make_profiles([0.5, 0.4, 0.3])
    with pytest.raises(ConfigError, match="single-slot"):
        run_baseline(BaselineKind.ORACLE_ALLOCATION, config, profiles)


def test_multi_slot_underbid_finding_is_reported():
    """The list mechanism is not per-round truthful: dropping one slot keeps the
    click but lowers the price. The verifier must surface this, not hide it."""
    config = validate_config(
        AuctionConfig(num_agents=3, num_slots=2, horizon=2500, delta=0.5,
                      prominences=(1.0, 0.6), seed=9)
    )
    profiles = make_profiles([0.9, 0.75, 0.5], [1.0, 0.9, 0.7])
    realization = draw_realization(config, profiles)
    scenario = build_scenario(config, profiles, realization, deviator=1)
    report = verify_dsic(config, profiles, scenario)
    assert not report.holds
    assert report.worst_violation > 1e-12


def test_multi_slot_price_can_exceed_value_finding():
    """With a steep prominence drop the widened indices push the top-slot price
    past the winner's valuation; the participation check must flag it."""
    config = validate_config(
        AuctionConfig(num_agents=3, num_slots=2, horizon=3000, delta=0.7,
                      prominences=(1.0, 0.05), seed=13)
    )
    profiles = make_profiles([0.9, 0.85, 0.8], [0.8, 0.95, 1.0])
    realization = draw_realization(config, profiles)
    report = verify_ir(config, profiles, realization)
    assert not report.holds
    assert report.worst_utility < 0.0
