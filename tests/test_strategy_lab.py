import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from deltaucb.core import AuctionConfig, ConfigError, Phase, exploration_budget, gammas_from_lambdas
from deltaucb.environment import draw_realization
from deltaucb.mechanism import declare, learn, run, run_mechanism, run_single_slot, t23_budget
from deltaucb.strategy_lab import (
    build_scenario,
    per_round_utilities,
    shared_learner,
    verify_dsic,
    verify_ir,
)

from conftest import make_profiles, price_rule_for, random_instance, with_bids


def _single_config(num_agents=2, horizon=2000, delta=0.5, seed=0):
    return AuctionConfig(num_agents=num_agents, horizon=horizon, delta=delta, seed=seed)


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
        direct = declare_winner(base.outcome.learner, bids)
        full = run_single_slot(config, with_bids(profiles, bids), realization=realization)
        assert direct.winner == full.outcome.winner
        assert direct.payment_per_click == full.outcome.payment_per_click
        u_direct = per_round_utilities(config, profiles, realization, direct, 2, explore_until)
        u_full = per_round_utilities(config, profiles, realization, full.outcome, 2,
                                     explore_until)
        assert np.array_equal(u_direct, u_full)


@pytest.mark.parametrize(
    "config",
    [
        AuctionConfig(num_agents=3, horizon=400, delta=0.9, seed=4),
        AuctionConfig(
            num_agents=3, num_slots=2, horizon=400, delta=0.9,
            prominences=gammas_from_lambdas((0.6,)), seed=4,
        ),
    ],
    ids=["single-slot", "multi-slot-from-lambdas"],
)
def test_learning_and_checks_take_a_config_built_directly(config):
    profiles = make_profiles([0.8, 0.5, 0.2], [1.0, 0.9, 0.6])
    realization = draw_realization(config, profiles)
    explore_until, agents, clicks, learner = shared_learner(config, realization)
    assert explore_until == exploration_budget(config) < config.horizon
    assert learner.phase is Phase.EXPLOITATION
    assert learner.to_bytes() == learn(agents, clicks, config).to_bytes()
    rule = price_rule_for(config.num_slots)
    decide = partial(declare, prominences=config.prominences, price_rule=rule)
    run = run_mechanism(config, profiles, decide, realization=realization)
    assert run.outcome.learner.to_bytes() == learner.to_bytes()
    outcome = declare(learner, [p.bid for p in profiles], config.prominences, rule)
    assert outcome.ranking == run.outcome.ranking
    for p in profiles:
        shown = agents == p.id
        assert learner.pull_count[p.id - 1] == shown.sum()
        util = per_round_utilities(config, profiles, realization, outcome, p.id, explore_until)
        assert np.array_equal(util[np.flatnonzero(shown.any(axis=1))], p.valuation * clicks[shown])
        assert util.sum() == pytest.approx(run.summary.per_agent_utility[p.id])


def test_multi_dsic_shortcut_matches_full_runs():
    from deltaucb.mechanism_multi import declare_ranking, run_multi_slot, telescoping

    config = AuctionConfig(num_agents=3, num_slots=2, horizon=1200, delta=0.7,
                           prominences=(1.0, 0.6), seed=55)
    profiles = make_profiles([0.8, 0.6, 0.3], [1.0, 0.9, 0.7])
    realization = draw_realization(config, profiles)
    base = run_multi_slot(config, profiles, realization=realization)
    explore_until = base.summary.exploration_rounds_used
    for bid in (0.1, 0.5, 1.0):
        bids = np.array([1.0, 0.9, bid])
        direct = declare_ranking(base.outcome.learner, bids, config.prominences, telescoping)
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
        learned = shared_learner(config, realization)
        for deviator in range(1, num_agents + 1):
            scenario = build_scenario(config, profiles, realization, deviator, learned)
            report = verify_dsic(config, profiles, scenario)
            assert report.holds, (
                f"instance {index} deviator {deviator}: gain {report.worst_violation} "
                f"at bid {report.witness_bid}, round {report.witness_round}"
            )
            assert report.worst_violation <= 1e-12


def _verdict(report):
    return report.holds, report.worst_violation, report.witness_round


def _pivots(scenario):
    """The deviator's upper index and the competitor scores; score / index is a pivot bid."""
    learner = scenario.learned.learner
    own = float(learner.ucb[scenario.deviator - 1])
    return own, np.delete(learner.ucb * np.array(scenario.fixed_others), scenario.deviator - 1)


def _reference_grid(config, scenario):
    """A 21-bid reference grid: uniform over [0, v_max] plus probes 1e-6 either side of two
    pivot bids, with each exact score tie nudged away. It reaches most placements by density,
    not by construction.

    The probes sit at the strongest competitor's pivot bid and at the min(M, K - 2)-th
    next one's.
    """
    learner = scenario.learned.learner
    probes = []
    if learner is not None:
        own, scores = _pivots(scenario)
        pivots = np.sort(scores)[::-1]
        targets = list(pivots[:1])
        if min(config.num_slots, len(pivots) - 1) > 0:
            targets.append(pivots[min(config.num_slots, len(pivots) - 1)])
        for target in targets:
            for probe in (target / own - 1e-6, target / own + 1e-6):
                probes.append(min(max(probe, 0.0), config.v_max))
    grid = [*np.linspace(0.0, config.v_max, max(2, 21 - len(probes))).tolist(), *probes]
    if learner is not None:
        ties = set(scores.tolist())
        for k, x in enumerate(grid):
            nudge = 1e-9
            while own * x in ties:
                x = x + nudge if x + nudge <= config.v_max else x - nudge
                nudge *= 2
            grid[k] = x
    return tuple(grid)


def _placement_windows(config, scenario):
    """The non-empty bid windows (lo, hi) between 0.0, the top M pivot bids and v_max, ascending."""
    own, scores = _pivots(scenario)
    top = sorted(scores.tolist(), reverse=True)[: config.num_slots]
    edges = [0.0, *sorted(min(score / own, config.v_max) for score in top), config.v_max]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]


def _one_bid_per_window(config, scenario):
    """The scenario with one bid in the middle of each window between two competitor pivot bids.

    The windows cover every rank the deviator can take, so every placement.
    """
    own, scores = _pivots(scenario)
    inside = [b for b in (scores / own).tolist() if 0.0 < b < config.v_max]
    edges = sorted({0.0, config.v_max, *inside})
    return replace(scenario, bid_grid=tuple((lo + hi) / 2 for lo, hi in zip(edges, edges[1:])))


@pytest.mark.parametrize("num_slots", [1, 2, 3, 4])
def test_verify_dsic_finds_the_worst_placement_a_window_oracle_finds(num_slots):
    rng = np.random.default_rng(num_slots)
    for index in range(20):
        num_agents = int(rng.integers(max(2, num_slots), 8))
        prominences = (1.0, *sorted(rng.uniform(0.05, 1.0, num_slots - 1).tolist(), reverse=True))
        config = AuctionConfig(
            num_agents=num_agents, num_slots=num_slots, prominences=prominences,
            horizon=int(rng.choice([500, 2000])), delta=float(rng.uniform(0.5, 1.5)), seed=index,
        )
        profiles = random_instance(rng, num_agents)
        realization = draw_realization(config, profiles)
        learned = shared_learner(config, realization)
        for deviator in range(1, num_agents + 1):
            scenario = build_scenario(config, profiles, realization, deviator, learned)
            report = verify_dsic(config, profiles, scenario)
            if learned.learner is not None:
                oracle = verify_dsic(config, profiles, _one_bid_per_window(config, scenario))
                assert _verdict(report) == _verdict(oracle), f"instance {index} deviator {deviator}"


@pytest.mark.parametrize("num_slots", [1, 2, 3, 4])
def test_placement_bids_find_the_worst_gain_the_reference_grid_finds(num_slots):
    # K <= 7, T from 5 (exploration fills it) to 2,000, rates that are exactly 0 or 1 among
    # drawn ones, truthful and random competitor bids
    rng = np.random.default_rng(100 + num_slots)
    for index in range(40):
        num_agents = int(rng.integers(num_slots, 8))
        prominences = (1.0, *sorted(rng.uniform(0.05, 1.0, num_slots - 1).tolist(), reverse=True))
        config = AuctionConfig(
            num_agents=num_agents, num_slots=num_slots, prominences=prominences,
            horizon=int(rng.choice([5, 50, 500, 2000], p=[0.1, 0.1, 0.4, 0.4])),
            delta=float(rng.uniform(0.3, 1.5)), seed=index,
        )
        profiles = random_instance(rng, num_agents, truthful=bool(rng.integers(2)))
        rates = rng.choice([0.0, 1.0, np.nan], num_agents, p=[0.15, 0.15, 0.7])
        profiles = [p if np.isnan(r) else replace(p, ctr=float(r)) for p, r in zip(profiles, rates)]
        realization = draw_realization(config, profiles)
        learned = shared_learner(config, realization)
        for deviator in range(1, num_agents + 1):
            scenario = build_scenario(config, profiles, realization, deviator, learned)
            grid = _reference_grid(config, scenario) + scenario.bid_grid
            reference = verify_dsic(config, profiles, replace(scenario, bid_grid=grid))
            report = verify_dsic(config, profiles, scenario)
            assert _verdict(report) == _verdict(reference), f"instance {index} deviator {deviator}"


def test_a_three_slot_placement_the_grid_misses_is_found():
    config = AuctionConfig(
        num_agents=5, num_slots=3, prominences=(1.0, 0.4, 0.23), horizon=2000, delta=0.5, seed=20
    )
    profiles = make_profiles(
        [0.67, 0.24, 0.73, 0.61, 0.86], [0.89, 0.41, 0.32, 0.13, 0.58], [0.01, 0.5, 0.34, 0.33, 0.87]
    )
    realization = draw_realization(config, profiles)
    scenario = build_scenario(config, profiles, realization, 1, shared_learner(config, realization))
    grid = _reference_grid(config, scenario)
    assert verify_dsic(config, profiles, replace(scenario, bid_grid=grid)).holds
    report = verify_dsic(config, profiles, scenario)
    assert not report.holds
    assert report.witness_round == 1228
    assert report.worst_violation == pytest.approx(0.793122, abs=1e-6)
    # the witness is the midpoint of a window no reference bid falls in
    windows = _placement_windows(config, scenario)
    [(lo, hi)] = [(lo, hi) for lo, hi in windows if lo < report.witness_bid < hi]
    assert report.witness_bid == (lo + hi) / 2
    assert not any(lo < bid < hi for bid in grid)


@pytest.mark.parametrize(
    "config",
    [
        AuctionConfig(num_agents=2, horizon=2500, delta=0.5, seed=42),
        AuctionConfig(num_agents=4, num_slots=2, prominences=(1.0, 0.5), horizon=1500, delta=0.6,
                      seed=3),
        AuctionConfig(num_agents=3, num_slots=3, prominences=(1.0, 0.7, 0.2), horizon=1500,
                      delta=0.8, seed=8),
        AuctionConfig(num_agents=3, horizon=20, delta=0.5, seed=1),
    ],
    ids=["one-slot", "two-slot", "three-slot-of-three", "exploration-fills-T"],
)
def test_scenario_tries_one_bid_inside_each_placement_window(config):
    profiles = random_instance(np.random.default_rng(config.seed), config.num_agents)
    realization = draw_realization(config, profiles)
    learned = shared_learner(config, realization)
    for deviator in range(1, config.num_agents + 1):
        scenario = build_scenario(config, profiles, realization, deviator, learned)
        bids = scenario.bid_grid
        if learned.learner is None:
            assert bids == (0.0,)
            continue
        windows = _placement_windows(config, scenario)
        assert len(bids) == len(windows) <= min(config.num_agents, config.num_slots + 1)
        assert list(bids) == sorted(bids)
        assert all(lo < bid < hi for bid, (lo, hi) in zip(bids, windows))
        own, scores = _pivots(scenario)
        assert not set((own * np.array(bids)).tolist()) & set(scores.tolist())


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
    result = run("oracle", config, profiles)
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
            result = run("plain-ucb", config, profiles, realization=realization)
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
        poly = run("explore-t23", config, profiles, realization=realization)
        assert poly.summary.exploration_delta_regret > tolerant.summary.exploration_delta_regret


def test_baselines_reject_multi_slot():
    config = AuctionConfig(num_agents=3, num_slots=2, horizon=100, delta=0.5,
                           prominences=(1.0, 0.5))
    profiles = make_profiles([0.5, 0.4, 0.3])
    with pytest.raises(ConfigError, match="single-slot"):
        run("oracle", config, profiles)


def test_multi_slot_underbid_finding_is_reported():
    """The list mechanism is not per-round truthful: dropping one slot keeps the
    click but lowers the price. The verifier must surface this, not hide it."""
    config = AuctionConfig(num_agents=3, num_slots=2, horizon=2500, delta=0.5,
                           prominences=(1.0, 0.6), seed=9)
    profiles = make_profiles([0.9, 0.75, 0.5], [1.0, 0.9, 0.7])
    realization = draw_realization(config, profiles)
    scenario = build_scenario(config, profiles, realization, 1, shared_learner(config, realization))
    report = verify_dsic(config, profiles, scenario)
    assert not report.holds
    assert report.worst_violation > 1e-12


def test_multi_slot_price_can_exceed_value_finding():
    """With a steep prominence drop the widened indices push the top-slot price
    past the winner's valuation; the participation check must flag it."""
    config = AuctionConfig(num_agents=3, num_slots=2, horizon=3000, delta=0.7,
                           prominences=(1.0, 0.05), seed=13)
    profiles = make_profiles([0.9, 0.85, 0.8], [0.8, 0.95, 1.0])
    realization = draw_realization(config, profiles)
    report = verify_ir(config, profiles, realization)
    assert not report.holds
    assert report.worst_utility < 0.0
