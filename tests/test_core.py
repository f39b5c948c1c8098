import math

import numpy as np
import pytest

from deltaucb.core import (
    AgentProfile,
    AuctionConfig,
    ConfigError,
    LearnerState,
    Phase,
    confidence_radius,
    exploration_budget,
    exploration_rounds,
    validate_config,
    validate_profiles,
)
from deltaucb.mechanism import run_single_slot

from conftest import log_rows, make_profiles


def test_validate_accepts_basic_config():
    config = AuctionConfig(num_agents=5, num_slots=1, horizon=1000, delta=0.1, v_max=1.0)
    validated = validate_config(config)
    assert validated.prominences == (1.0,)
    assert validated.num_agents == 5


def test_validate_rejects_more_slots_than_agents():
    config = AuctionConfig(num_agents=2, num_slots=3, horizon=10, delta=0.5,
                           prominences=(1.0, 0.5, 0.2))
    with pytest.raises(ConfigError, match="num_slots exceeds num_agents"):
        validate_config(config)


def test_validate_rejects_zero_delta():
    config = AuctionConfig(num_agents=3, horizon=10, delta=0.0)
    with pytest.raises(ConfigError, match="delta must be positive"):
        validate_config(config)


def test_validate_derives_prominences_from_lambdas():
    config = AuctionConfig(num_agents=4, num_slots=3, horizon=10, delta=0.5,
                           lambdas=(0.8, 0.5))
    assert validate_config(config).prominences == (1.0, 0.8, pytest.approx(0.4))


def test_validate_rejects_increasing_prominences():
    config = AuctionConfig(num_agents=3, num_slots=2, horizon=10, delta=0.5,
                           prominences=(1.0, 1.2))
    with pytest.raises(ConfigError, match="non-increasing"):
        validate_config(config)


def test_validate_rejects_first_prominence_not_one():
    config = AuctionConfig(num_agents=3, num_slots=2, horizon=10, delta=0.5,
                           prominences=(0.9, 0.5))
    with pytest.raises(ConfigError, match="start at 1"):
        validate_config(config)


def test_validate_rejects_bad_seed():
    config = AuctionConfig(num_agents=3, horizon=10, delta=0.5, seed=2**64)
    with pytest.raises(ConfigError, match="seed"):
        validate_config(config)


def test_profile_bid_defaults_to_valuation():
    profile = AgentProfile(id=1, ctr=0.5, valuation=0.7)
    assert profile.bid == 0.7


def test_validate_profiles_rejects_out_of_range_bid():
    config = validate_config(AuctionConfig(num_agents=1, horizon=10, delta=0.5, v_max=1.0))
    with pytest.raises(ConfigError, match="bid must lie"):
        validate_profiles([AgentProfile(id=1, ctr=0.5, valuation=0.5, bid=1.5)], config)


def test_budget_formula_values():
    # direct evaluations of the budget formula; ln(e) = 1 makes them exact
    assert exploration_rounds(1, 1.0, math.sqrt(8.0), math.e) == 1
    assert exploration_rounds(2, 1.0, 4.0, math.e) == 2  # raw value below one pull per agent
    assert exploration_rounds(2, 1.0, 1.0, math.e) == 16


def test_budget_is_whole_cycles():
    # every agent gets the same pull count, so none is left below the per-agent requirement
    for num_agents in (2, 3, 5, 7):
        config = validate_config(
            AuctionConfig(num_agents=num_agents, horizon=10**5, delta=0.2)
        )
        assert exploration_budget(config) % num_agents == 0


def test_budget_monotonicity_grid():
    agents = (1, 2, 5, 9)
    v_maxes = (0.5, 1.0, 2.0)
    deltas = (0.1, 0.5, 1.0, 2.0)
    horizons = (10, 10**3, 10**6)

    def budget(k, v, d, t):
        return exploration_rounds(k, v, d, t)

    for v, d, t in [(v, d, t) for v in v_maxes for d in deltas for t in horizons]:
        values = [budget(k, v, d, t) for k in agents]
        assert values == sorted(values)
    for k, d, t in [(k, d, t) for k in agents for d in deltas for t in horizons]:
        values = [budget(k, v, d, t) for v in v_maxes]
        assert values == sorted(values)
    for k, v, t in [(k, v, t) for k in agents for v in v_maxes for t in horizons]:
        values = [budget(k, v, d, t) for d in deltas]
        assert values == sorted(values, reverse=True)
    for k, v, d in [(k, v, d) for k in agents for v in v_maxes for d in deltas]:
        values = [budget(k, v, d, t) for t in horizons]
        assert values == sorted(values)


def test_confidence_radius_requires_pull():
    with pytest.raises(ValueError, match="before first pull"):
        confidence_radius(0, 100)


def test_learner_state_radius_relation():
    state = LearnerState.fresh(3, horizon=1000)
    state.record_pull(2, 1.0)
    state.record_pull(2, 0.0)
    radius = confidence_radius(2, 1000)
    assert state.empirical_ctr[1] == 0.5
    assert state.ucb[1] == pytest.approx(0.5 + radius, rel=1e-15)
    assert state.lcb[1] == pytest.approx(0.5 - radius, rel=1e-15)
    assert state.lcb[1] <= state.empirical_ctr[1] <= state.ucb[1]
    assert np.isnan(state.ucb[0]) and np.isnan(state.ucb[2])


def test_learner_state_frozen_rejects_pulls():
    state = LearnerState.fresh(2, horizon=100)
    state.record_pull(1, 1.0)
    state.record_pull(2, 0.0)
    state.freeze()
    assert state.phase is Phase.EXPLOITATION
    with pytest.raises(RuntimeError, match="frozen"):
        state.record_pull(1, 1.0)


def test_learner_state_bytes_track_content():
    state = LearnerState.fresh(2, horizon=100)
    state.record_pull(1, 1.0)
    snapshot = state.copy()
    assert snapshot.to_bytes() == state.to_bytes()
    state.record_pull(2, 0.0)
    assert snapshot.to_bytes() != state.to_bytes()


def test_exploration_rounds_have_zero_payments():
    config = AuctionConfig(num_agents=3, horizon=60, delta=1.5, seed=5)
    profiles = make_profiles([0.8, 0.5, 0.2])
    result = run_single_slot(config, profiles, rounds_log="all")
    budget = result.summary.exploration_budget
    log = result.log
    assert log.explore_until == budget
    assert np.all(log.payment[log.t <= budget] == 0.0)


def test_replay_same_seed_is_bit_identical():
    config = AuctionConfig(num_agents=3, horizon=80, delta=1.0, seed=123)
    profiles = make_profiles([0.9, 0.4, 0.1], [1.0, 0.8, 0.5])
    first = run_single_slot(config, profiles, rounds_log="all")
    second = run_single_slot(config, profiles, rounds_log="all")
    assert log_rows(first.log) == log_rows(second.log)
    assert first.summary == second.summary
