import itertools
import math
import struct
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltaucb import metrics
from deltaucb.core import AuctionConfig, LearnerState, Phase, confidence_radius, exploration_budget
from deltaucb.environment import ClickRealization, draw_realization, realized_click
from deltaucb.mechanism import (
    declare,
    declare_winner,
    explore,
    free_rounds,
    iter_rounds,
    learn,
    multi_exploration_allocation,
    run_mechanism,
    run_single_slot,
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


def test_index_radius_cancels():
    horizon = 50
    radius = confidence_radius(2.0 * math.log(horizon), horizon)
    assert 0.5 + radius == pytest.approx(1.5)
    assert 0.5 - radius == pytest.approx(-0.5)


def test_index_quarter_radius():
    horizon = 50
    radius = confidence_radius(8.0 * math.log(horizon), horizon)
    assert 0.0 + radius == pytest.approx(0.5)
    assert 0.0 - radius == pytest.approx(-0.5)


def test_index_rejects_zero_pulls():
    with pytest.raises(ValueError, match="before first pull"):
        confidence_radius(0, 100)


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
        config, make_profiles([0.5, 0.5]), declare_winner, realization=realization
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
    records = list(iter_rounds(config, profiles, declare_winner))
    state_rounds = [r for r in records if r.phase is Phase.EXPLOITATION]
    assert state_rounds  # exploitation happened
    result = run_single_slot(config, profiles, rounds_log="none")
    learner = result.outcome.learner
    # no pulls ever land after the budget, so the indices at T are the ones at u
    assert learner.pull_count.sum() == result.summary.exploration_budget
    with pytest.raises(RuntimeError, match="frozen"):
        learner.record_pull(1, 1.0)


def test_declare_leaves_its_learner_unchanged():
    config = AuctionConfig(num_agents=3, num_slots=2, horizon=300, delta=0.9,
                           prominences=(1.0, 0.5), seed=3)
    profiles = make_profiles([0.8, 0.5, 0.2])
    realization = draw_realization(config, profiles)
    learner = explore(realization, config, exploration_budget(config)).learner
    before = learner.to_bytes()
    declare(learner, [[1.0, 0.5, 0.2], [0.1, 1.0, 0.3]], config.prominences, price_rule_for(2))
    assert learner.to_bytes() == before
    with pytest.raises(RuntimeError, match="frozen"):
        learner.record_pull(1, 1.0)  # learn froze it, not declare
    state = LearnerState.fresh(2, horizon=100)
    state.record_pull(1, 1.0)
    state.record_pull(2, 0.0)
    before = state.to_bytes()
    declare_winner(state, [1.0, 1.0])
    assert state.to_bytes() == before
    state.record_pull(1, 0.0)  # still learning


def test_exploration_step_rejects_rounds_past_budget():
    config = AuctionConfig(num_agents=2, horizon=60, delta=1.5, seed=2)
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


def test_exploration_only_run_learns_nothing(monkeypatch):
    # nothing is declared when the free rounds fill the horizon, so no learner is folded
    from deltaucb import mechanism

    calls = []
    monkeypatch.setattr(mechanism, "learn", lambda *args: calls.append(args))
    config = AuctionConfig(num_agents=2, horizon=100, delta=0.1, seed=3)
    profiles = make_profiles([0.9, 0.1])
    for budget in (None, config.horizon, config.horizon + 1):
        result = run_single_slot(config, profiles, rounds_log="all", budget_override=budget)
        assert result.summary.exploration_rounds_used == config.horizon
    assert calls == []


@pytest.mark.parametrize("num_slots, prominences", [(1, (1.0,)), (2, (1.0, 0.6))])
def test_explore_ends_the_free_rounds_in_the_horizon(num_slots, prominences):
    config = AuctionConfig(num_agents=3, num_slots=num_slots, horizon=90, delta=1.5,
                           prominences=prominences, seed=8)
    realization = draw_realization(config, make_profiles([0.8, 0.5, 0.2]))
    for budget in (90, 91, 10**6):
        # an exploration-only instance still holds the table, all T rows of it
        explore_until, agents, clicks, learner = explore(realization, config, budget)
        assert (explore_until, learner) == (90, None)
        assert agents.shape == clicks.shape == (90, num_slots)
        table = free_rounds(realization, config, 90)
        assert np.array_equal(agents, table[0]) and np.array_equal(clicks, table[1])
    for budget in (0, 1, 5, 89):
        explore_until, agents, clicks, learner = explore(realization, config, budget)
        assert explore_until == budget
        assert agents.shape == clicks.shape == (budget, num_slots)
        reference = learn(*free_rounds(realization, config, budget), config)
        assert learner.to_bytes() == reference.to_bytes()


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
    realization = draw_realization(config, profiles)
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


def _interval_violations_of(records, profiles, config) -> int:
    """(agent, round) pairs whose interval from the agent's latest free pull misses its welfare."""
    pulls, clicks, total = {}, {}, 0
    for record in records:
        if record.phase is Phase.EXPLORATION:
            (agent,) = record.allocation.values()
            pulls[agent] = pulls.get(agent, 0) + 1
            clicks[agent] = clicks.get(agent, 0) + record.click_of(agent)
        for agent, count in pulls.items():
            p = profiles[agent - 1]
            mean, radius = clicks[agent] / count, confidence_radius(count, config.horizon)
            low, high = (mean - radius) * p.valuation, (mean + radius) * p.valuation
            total += not low <= metrics.welfare(p) <= high
    return total


@pytest.mark.parametrize("delta", [0.5, 1.5], ids=["exploration-only", "committed"])
def test_welfare_interval_violations_count_the_records_intervals(delta):
    config = AuctionConfig(num_agents=3, horizon=200, delta=delta, seed=8)
    assert (exploration_budget(config) >= config.horizon) == (delta == 0.5)
    # agent 1 never clicks at rate 0.9 and agent 2 always at rate 0.1: their intervals miss
    intrinsic = np.zeros((3, 200), dtype=np.uint8)
    intrinsic[1] = 1
    intrinsic[2, ::3] = 1
    realization = make_realization(intrinsic, seed=8)
    profiles = make_profiles([0.9, 0.1, 0.3], [1.0, 0.8, 0.6])
    records = list(iter_rounds(config, profiles, declare_winner, realization=realization))
    expected = _interval_violations_of(records, profiles, config)
    assert expected > 0
    assert welfare_interval_violations(config, profiles, realization) == expected


def test_fast_path_matches_round_by_round_reference():
    config = AuctionConfig(num_agents=3, horizon=700, delta=0.6, seed=31)
    profiles = make_profiles([0.85, 0.5, 0.15], [1.0, 0.7, 0.4], [0.9, 0.7, 0.4])
    realization = draw_realization(config, profiles)
    fast = run_single_slot(config, profiles, realization=realization)
    records = list(iter_rounds(config, profiles, declare_winner, realization=realization))

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
    """A K-agent, M-slot config, a seeded or matrix realization, and a count of free rounds.

    The count runs from 0 through whole cycles and cycles cut mid-way.
    """
    num_agents = draw(st.integers(1, 6))
    num_slots = draw(st.integers(1, num_agents))
    until = num_agents * draw(st.integers(0, 4)) + draw(st.integers(0, num_agents - 1))
    horizon = until + draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    prominences = (1.0, *sorted(rng.uniform(0.1, 1.0, num_slots - 1).tolist(), reverse=True))
    config = AuctionConfig(num_agents=num_agents, horizon=horizon, delta=1.0, num_slots=num_slots,
                           prominences=prominences, seed=int(rng.integers(2**32)))
    profiles = make_profiles(rng.uniform(0.0, 1.0, num_agents).tolist())
    if draw(st.booleans()):
        realization = draw_realization(config, profiles)
    else:
        observations = rng.integers(0, 2, (num_slots, horizon)) if num_slots > 1 else None
        realization = make_realization(rng.integers(0, 2, (num_agents, horizon)), observations)
    return config, profiles, realization, until


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_rotations())
def test_free_rounds_table_is_the_reference_free_rounds(case):
    config, profiles, realization, until = case
    num_agents, slots = config.num_agents, range(1, config.num_slots + 1)
    agents, clicks = free_rounds(realization, config, until)
    assert agents.shape == clicks.shape == (until, config.num_slots)
    # the reference's free rounds; the declare step after them is never reached
    reference = iter_rounds(config, profiles, declare_winner, realization, budget_override=until)
    records = list(itertools.islice(reference, until))
    assert [r.phase for r in records] == [Phase.EXPLORATION] * until
    assert agents.tolist() == [[r.allocation[m] for m in slots] for r in records]
    assert clicks.tolist() == [[r.click_of(r.allocation[m]) for m in slots] for r in records]
    # in ravel order an agent's entries are its rounds in order, which ``learn`` folds
    for agent in range(1, num_agents + 1):
        shown = [
            (t, m)
            for t in range(1, until + 1)
            for m in slots
            if multi_exploration_allocation(t, m, num_agents) == agent
        ]
        rows, columns = np.nonzero(agents == agent)
        assert list(zip((rows + 1).tolist(), (columns + 1).tolist())) == shown
        own = clicks[agents == agent].tolist()
        assert own == [realized_click(realization, agent, m, t) for t, m in shown]


@pytest.mark.parametrize("num_slots, prominences", [(1, (1.0,)), (3, (1.0, 0.7, 0.4))])
def test_free_rounds_hold_the_table_and_one_click_window(num_slots, prominences):
    # 2**20 rounds: one int64 column of rounds or agents alone would take 8 MiB
    until = 2**20
    config = AuctionConfig(num_agents=5, num_slots=num_slots, horizon=until, delta=0.5,
                           prominences=prominences, seed=6)
    realization = draw_realization(config, make_profiles([0.9, 0.7, 0.5, 0.3, 0.1]))
    tracemalloc.start()
    try:
        agents, clicks = free_rounds(realization, config, until)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= agents.nbytes + clicks.nbytes + 3 * 2**20, peak
    assert agents.dtype == clicks.dtype == np.uint8


@pytest.mark.parametrize("num_slots, prominences", [(1, (1.0,)), (2, (1.0, 0.6))])
def test_free_rounds_are_read_once_per_agent_and_slot(monkeypatch, num_slots, prominences):
    from deltaucb.strategy_lab import verify_ir

    config = AuctionConfig(num_agents=3, num_slots=num_slots, horizon=400, delta=1.5,
                           prominences=prominences, seed=5)
    profiles = make_profiles([0.8, 0.5, 0.2], [1.0, 0.7, 0.4])
    explore_until = exploration_budget(config)
    assert explore_until < config.horizon
    decide = partial(declare, prominences=prominences, price_rule=price_rule_for(num_slots))
    reads = []
    read = ClickRealization.clicks

    def counted(self, agent, slot, start, stop):
        reads.append((agent, slot, start, stop))
        return read(self, agent, slot, start, stop)

    monkeypatch.setattr(ClickRealization, "clicks", counted)
    once = [(a, m, 0, explore_until) for a in range(1, 4) for m in range(1, num_slots + 1)]
    for check in (
        lambda r: run_mechanism(config, profiles, decide, realization=r),
        lambda r: run_mechanism(config, profiles, decide, realization=r, rounds_log="all"),
        lambda r: verify_ir(config, profiles, r),
    ):
        reads.clear()
        check(draw_realization(config, profiles))
        assert sorted(w for w in reads if w[2] < explore_until) == once
