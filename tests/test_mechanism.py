import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltaucb.core import AuctionConfig, LearnerState, Phase, validate_config
from deltaucb.environment import draw_realization, realized_click
from deltaucb.mechanism import (
    declare,
    declare_winner,
    exploration_clicks,
    iter_rounds,
    multi_exploration_allocation,
    normalized_runner_up,
    run_single_slot,
    ucb_pair,
)
from deltaucb.mechanism_multi import price_rule_for
from deltaucb.strategy_lab import max_tolerance_width, welfare_interval_violations

from conftest import (
    delta_regret_of,
    log_rows,
    make_profiles,
    make_realization,
    record_rows,
    welfare_of,
    with_bids,
)


def _state_with_indices(ucb_values, horizon=100):
    """A post-exploration state with hand-set upper indices."""
    state = LearnerState.fresh(len(ucb_values), horizon)
    state.pull_count[:] = 1
    state.ucb[:] = ucb_values
    state.lcb[:] = np.asarray(ucb_values) - 1.0
    state.empirical_ctr[:] = np.asarray(ucb_values) - 0.5
    return state


def test_ucb_pair_radius_cancels():
    horizon = 50
    upper, lower = ucb_pair(0.5, 2.0 * math.log(horizon), horizon)
    assert upper == pytest.approx(1.5)
    assert lower == pytest.approx(-0.5)


def test_ucb_pair_quarter_radius():
    horizon = 50
    upper, lower = ucb_pair(0.0, 8.0 * math.log(horizon), horizon)
    assert upper == pytest.approx(0.5)
    assert lower == pytest.approx(-0.5)


def test_ucb_pair_rejects_zero_pulls():
    with pytest.raises(ValueError, match="before first pull"):
        ucb_pair(0.5, 0, 100)


def test_round_robin_schedule():
    assert [multi_exploration_allocation(t, 1, 3) for t in range(1, 7)] == [1, 2, 3, 1, 2, 3]


def test_exploration_updates_only_allocated_agent():
    config = AuctionConfig(num_agents=2, horizon=40, delta=1.0, seed=0)
    # agent 1 pulled at odd rounds with clicks 1 then 0
    intrinsic = np.zeros((2, 40), dtype=np.uint8)
    intrinsic[0, 0] = 1
    realization = make_realization(intrinsic)
    records = []
    gen = iter_rounds(
        config, make_profiles([0.5, 0.5]), normalized_runner_up, realization=realization
    )
    for _ in range(4):
        records.append(next(gen))
    assert [r.allocation[1] for r in records] == [1, 2, 1, 2]
    # after two pulls with clicks {1, 0} the empirical rate is their mean
    state = LearnerState.fresh(2, 40)
    state.record_pull(1, 1.0)
    before = state.ucb[0]
    state.record_pull(2, 0.0)
    assert state.ucb[0] == before  # non-allocated agent's indices carry forward
    state.record_pull(1, 0.0)
    assert state.empirical_ctr[0] == 0.5


def test_declare_winner_tie_breaks_to_lowest_id():
    state = _state_with_indices([0.3, 0.7, 0.7])
    outcome = declare_winner(state, np.ones(3))
    assert outcome.winner == 2
    assert outcome.runner_up == 3


def test_declare_winner_payment_formula():
    state = _state_with_indices([0.8, 0.5])
    outcome = declare_winner(state, np.array([1.0, 0.8]))
    assert outcome.winner == 1
    assert outcome.payment_per_click == pytest.approx(0.5)  # 0.4 / 0.8


def test_declare_winner_single_agent_pays_nothing():
    state = _state_with_indices([0.8])
    outcome = declare_winner(state, np.array([1.0]))
    assert outcome.winner == 1
    assert outcome.runner_up is None
    assert outcome.payment_per_click == 0.0


def test_declare_winner_requires_full_exploration():
    state = LearnerState.fresh(2, 100)
    state.record_pull(1, 1.0)
    with pytest.raises(ValueError, match="pulled at least once"):
        declare_winner(state, np.ones(2))


def test_exploitation_pays_only_on_click():
    config = AuctionConfig(num_agents=2, horizon=20, delta=2.5, seed=1)
    profiles = make_profiles([1.0, 0.0], [1.0, 0.8])
    intrinsic = np.zeros((2, 20), dtype=np.uint8)
    intrinsic[0, ::2] = 1  # winner clicks on odd rounds only
    realization = make_realization(intrinsic)
    result = run_single_slot(config, profiles, realization=realization, rounds_log="all")
    budget = result.summary.exploration_budget
    assert budget < 20
    price = result.outcome.payment_per_click
    assert price > 0
    for t, _, winner, click, payment in log_rows(result.log):
        if t > budget:
            assert winner == result.outcome.winner
            expected = price if click else 0.0
            assert payment == expected


def test_indices_frozen_through_exploitation():
    config = AuctionConfig(num_agents=2, horizon=60, delta=1.5, seed=2)
    profiles = make_profiles([0.7, 0.3])
    records = list(iter_rounds(config, profiles, normalized_runner_up))
    state_rounds = [r for r in records if r.phase is Phase.EXPLOITATION]
    assert state_rounds  # exploitation happened
    result = run_single_slot(config, profiles, rounds_log="none")
    learner = result.outcome.learner
    # no pulls ever land after the budget, so the indices at T are the ones at u
    assert learner.pull_count.sum() == result.summary.exploration_budget
    with pytest.raises(RuntimeError, match="frozen"):
        learner.record_pull(1, 1.0)


def test_exploration_step_rejects_rounds_past_budget():
    config = validate_config(AuctionConfig(num_agents=2, horizon=60, delta=1.5, seed=2))
    profiles = make_profiles([0.7, 0.3])
    realization = draw_realization(config, profiles)
    from deltaucb.core import LearnerState, exploration_budget
    from deltaucb.mechanism import exploration_step

    state = LearnerState.fresh(2, config.horizon)
    with pytest.raises(ValueError, match="exploration is over"):
        budget = exploration_budget(config)
        exploration_step(state, realization, config.horizon + 1, config, budget)


def test_exploration_only_run_has_zero_revenue():
    config = AuctionConfig(num_agents=2, horizon=100, delta=0.1, seed=3)
    profiles = make_profiles([0.9, 0.1])
    result = run_single_slot(config, profiles)
    assert result.summary.exploration_budget >= config.horizon
    assert "exploration-only" in result.summary.flags
    assert result.summary.total_revenue == 0.0
    assert result.summary.winners == ()
    assert result.outcome is None


def test_identical_agents_accrue_no_tolerance_regret():
    config = AuctionConfig(num_agents=4, horizon=300, delta=0.8, seed=4)
    profiles = make_profiles([0.5] * 4, [0.9] * 4)
    result = run_single_slot(config, profiles)
    assert result.summary.total_delta_regret == 0.0


def test_clear_favorite_wins_almost_surely():
    """Monte-Carlo check of the winner-selection guarantee on a separated instance."""
    config = AuctionConfig(num_agents=2, horizon=10**4, delta=0.2)
    profiles = make_profiles([0.9, 0.1], [1.0, 1.0])
    wins = 0
    seeds = 1000
    for seed in range(seeds):
        realization = draw_realization(replace(config, seed=seed), profiles)
        result = run_single_slot(config, profiles, realization=realization)
        wins += result.summary.winners == (1,)
    assert wins / seeds >= 0.999


def test_exploration_is_bid_independent():
    config = AuctionConfig(num_agents=3, horizon=500, delta=0.8, seed=6)
    profiles = make_profiles([0.8, 0.5, 0.2], [1.0, 0.9, 0.8])
    realization = draw_realization(validate_config(config), profiles)
    low = run_single_slot(config, with_bids(profiles, [0.1, 0.2, 0.3]),
                          realization=realization, rounds_log="all")
    high = run_single_slot(config, with_bids(profiles, [1.0, 0.9, 0.8]),
                           realization=realization, rounds_log="all")
    budget = low.summary.exploration_budget
    explore_low = [row for row in log_rows(low.log) if row[0] <= low.log.explore_until]
    explore_high = [row for row in log_rows(high.log) if row[0] <= high.log.explore_until]
    assert explore_low == explore_high
    assert len(explore_low) == min(budget, config.horizon)
    assert low.outcome.learner.to_bytes() == high.outcome.learner.to_bytes()


def test_raising_own_bid_never_loses_the_slot():
    """Pointwise monotonicity: with everything else fixed, a higher bid keeps a win."""
    rng = np.random.default_rng(8)
    config = AuctionConfig(num_agents=4, horizon=800, delta=0.6)
    for trial in range(20):
        ctrs = rng.uniform(0.1, 0.9, 4)
        vals = rng.uniform(0.2, 1.0, 4)
        profiles = make_profiles(ctrs, vals)
        realization = draw_realization(replace(config, seed=trial), profiles)
        bids = rng.uniform(0.05, 1.0, 4)
        base = run_single_slot(config, with_bids(profiles, bids), realization=realization)
        winner = base.summary.winners[0]
        raised = bids.copy()
        raised[winner - 1] = min(1.0, raised[winner - 1] + rng.uniform(0.0, 0.5))
        again = run_single_slot(config, with_bids(profiles, raised), realization=realization)
        assert again.summary.winners[0] == winner


def test_payment_bounded_by_winning_bid():
    rng = np.random.default_rng(12)
    config = AuctionConfig(num_agents=5, horizon=600, delta=0.7)
    for trial in range(25):
        profiles = make_profiles(rng.uniform(0.05, 0.95, 5), rng.uniform(0.1, 1.0, 5))
        bids = rng.uniform(0.0, 1.0, 5)
        realization = draw_realization(replace(config, seed=100 + trial), profiles)
        result = run_single_slot(config, with_bids(profiles, bids), realization=realization)
        price = result.outcome.payment_per_click
        assert 0.0 <= price <= bids[result.outcome.winner - 1] + 1e-12


def test_confidence_width_below_tolerance_after_exploration():
    """After the budget, twice the radius times any valuation sits strictly below delta."""
    rng = np.random.default_rng(21)
    for trial in range(10):
        num_agents = int(rng.integers(2, 7))
        delta = float(rng.uniform(0.15, 0.9))
        config = AuctionConfig(num_agents=num_agents, horizon=20_000, delta=delta)
        profiles = make_profiles(
            rng.uniform(0.05, 0.95, num_agents), rng.uniform(0.1, 1.0, num_agents)
        )
        result = run_single_slot(config, profiles, realization=draw_realization(
            replace(config, seed=trial), profiles))
        if result.outcome is None:
            continue
        assert max_tolerance_width(result.outcome.learner, profiles) < delta


def test_welfare_interval_coverage_small_sample():
    config = AuctionConfig(num_agents=3, horizon=2000, delta=0.5)
    profiles = make_profiles([0.7, 0.4, 0.2], [1.0, 0.8, 0.6])
    violations = 0
    for seed in range(10):
        realization = draw_realization(replace(config, seed=seed), profiles)
        violations += welfare_interval_violations(config, profiles, realization)
    assert violations <= 1


def test_fast_path_matches_round_by_round_reference():
    config = AuctionConfig(num_agents=3, horizon=700, delta=0.6, seed=31)
    profiles = make_profiles([0.85, 0.5, 0.15], [1.0, 0.7, 0.4], [0.9, 0.7, 0.4])
    realization = draw_realization(validate_config(config), profiles)
    fast = run_single_slot(config, profiles, realization=realization)
    records = list(iter_rounds(config, profiles, normalized_runner_up, realization=realization))

    # learned state must agree to the byte
    stepper_state = None
    result_with_records = run_single_slot(config, profiles, realization=realization,
                                          rounds_log="all")
    assert log_rows(result_with_records.log) == record_rows(records)
    assert fast.outcome.learner.to_bytes() == result_with_records.outcome.learner.to_bytes()

    total_delta = sum(delta_regret_of(r, profiles, config) for r in records)
    total_welfare = sum(welfare_of(r, profiles, config) for r in records)
    revenue = sum(sum(r.payments.values()) for r in records)
    assert fast.summary.total_delta_regret == pytest.approx(total_delta, rel=1e-9, abs=1e-9)
    assert fast.summary.total_welfare == pytest.approx(total_welfare, rel=1e-9)
    assert fast.summary.total_revenue == pytest.approx(revenue, rel=1e-9)


@pytest.mark.parametrize("runner", ["single", "multi"])
def test_nan_bids_are_rejected(runner):
    from deltaucb.core import ConfigError
    from deltaucb.mechanism_multi import run_multi_slot

    config = AuctionConfig(num_agents=2, horizon=200, delta=1.5, seed=5)
    run = run_single_slot if runner == "single" else run_multi_slot
    with pytest.raises(ConfigError, match="bid must lie"):
        run(config, with_bids(make_profiles([0.7, 0.3]), [1.0, math.nan]))


@pytest.mark.parametrize("winner_ucb", [0.0, -0.25, math.nan])
def test_declare_winner_rejects_non_positive_winner_index(winner_ucb):
    # a learned index is always positive; a hand-set one must not yield a price
    state = _state_with_indices([winner_ucb, -0.5])
    with pytest.raises(ValueError, match="must be positive"):
        declare_winner(state, np.ones(2))


def _bits(prices):
    return [struct.pack("<d", p) for p in prices]


def _scalar_prices(ranking, scores, ucb, prominences):
    """The price rules evaluated one float at a time, as a literal reading of their formulas."""
    if len(prominences) == 1:
        return [0.0 if len(ranking) == 1 else scores[ranking[1] - 1] / ucb[ranking[0] - 1]]
    gamma = list(prominences) + [0.0]
    prices = []
    for slot in range(1, len(prominences) + 1):
        total = 0.0
        for rank in range(slot + 1, min(len(prominences) + 1, len(ranking)) + 1):
            total += (gamma[rank - 2] - gamma[rank - 1]) * scores[ranking[rank - 1] - 1]
        prices.append(float(total))
    return prices


# few distinct values, so scores often tie exactly; zero bids included
_bid = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
_index = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 3.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), num_agents=st.integers(1, 6), num_slots=st.integers(1, 3))
def test_batched_declare_matches_one_row_at_a_time(data, num_agents, num_slots):
    ucb = data.draw(st.lists(_index, min_size=num_agents, max_size=num_agents))
    rows = data.draw(
        st.lists(st.lists(_bid, min_size=num_agents, max_size=num_agents), min_size=1, max_size=8)
    )
    drops = data.draw(st.lists(st.floats(0.05, 1.0), min_size=num_slots - 1, max_size=num_slots - 1))
    prominences = (1.0, *sorted(drops, reverse=True))
    rule = price_rule_for(num_slots)
    batched = declare(_state_with_indices(ucb), np.array(rows), prominences, rule)
    assert len(batched) == len(rows)
    for bids, outcome in zip(rows, batched):
        single = declare(_state_with_indices(ucb), np.array(bids), prominences, rule)
        assert outcome.ranking == single.ranking
        assert _bits(outcome.payments_per_click) == _bits(single.payments_per_click)
        scores = np.array(ucb) * np.array(bids)
        # highest score first, exact ties to the lower id
        by_score = sorted(range(1, num_agents + 1), key=lambda a: (-scores[a - 1], a))
        assert list(outcome.ranking) == by_score
        expected = _scalar_prices(outcome.ranking, scores, np.array(ucb), prominences)
        assert _bits(outcome.payments_per_click) == _bits(expected)


@pytest.mark.parametrize("num_slots", [1, 2])
def test_batched_declare_requires_every_agent_pulled(num_slots):
    state = _state_with_indices([0.5, 0.7, 0.9])
    state.pull_count[1] = 0
    prominences = (1.0, 0.5)[:num_slots]
    with pytest.raises(ValueError, match="pulled at least once"):
        declare(state, np.ones((3, 3)), prominences, price_rule_for(num_slots))


def test_batched_declare_rejects_a_non_positive_winner_index_in_any_row():
    # the first row ranks agent 2 first; in the second the scores -0.0 and 0.0 tie,
    # so agent 1 wins with its negative index
    state = _state_with_indices([-1.0, 0.5])
    with pytest.raises(ValueError, match="must be positive, got -1.0"):
        declare(state, np.array([[0.0, 1.0], [0.0, 0.0]]), (1.0,), price_rule_for(1))


@st.composite
def _rotations(draw):
    """A K-agent, M-slot realization and an ``until`` that cuts a rotation cycle short.

    With one agent every round ends a cycle, so there ``until`` is any count.
    """
    num_agents = draw(st.integers(1, 7))
    num_slots = draw(st.integers(1, num_agents))
    cut = draw(st.integers(min(1, num_agents - 1), num_agents - 1))
    until = num_agents * draw(st.integers(0, 4)) + cut
    horizon = until + draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    observations = rng.integers(0, 2, (num_slots, horizon)) if num_slots > 1 else None
    realization = make_realization(rng.integers(0, 2, (num_agents, horizon)), observations)
    config = AuctionConfig(num_agents=num_agents, horizon=horizon, delta=1.0,
                           num_slots=num_slots, prominences=(1.0,) * num_slots)
    return config, realization, until


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_rotations())
def test_exploration_clicks_are_the_rotations_rounds_in_order(case):
    config, realization, until = case
    num_agents, num_slots = config.num_agents, config.num_slots
    for agent in range(1, num_agents + 1):
        rounds, slots, clicks = exploration_clicks(realization, config, agent, until)
        shown = [
            (t, m)
            for t in range(1, until + 1)
            for m in range(1, num_slots + 1)
            if multi_exploration_allocation(t, m, num_agents) == agent
        ]
        assert list(zip(rounds.tolist(), slots.tolist())) == shown
        assert clicks.tolist() == [realized_click(realization, agent, m, t) for t, m in shown]
