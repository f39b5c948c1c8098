import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deltaucb.core import (
    AgentProfile,
    AuctionConfig,
    ConfigError,
    LearnerState,
    Phase,
    confidence_radius,
    exploration_budget,
    validate_profiles,
)
from deltaucb.mechanism import run_single_slot

from conftest import log_rows, make_profiles


def test_validate_accepts_basic_config():
    config = AuctionConfig(num_agents=5, num_slots=1, horizon=1000, delta=0.1, v_max=1.0)
    assert config.prominences == (1.0,)
    assert config.num_agents == 5


def test_validate_rejects_more_slots_than_agents():
    with pytest.raises(ConfigError, match="num_slots exceeds num_agents"):
        AuctionConfig(num_agents=2, num_slots=3, horizon=10, delta=0.5,
                      prominences=(1.0, 0.5, 0.2))


def test_validate_rejects_zero_delta():
    with pytest.raises(ConfigError, match="delta must be positive"):
        AuctionConfig(num_agents=3, horizon=10, delta=0.0)


def test_validate_rejects_increasing_prominences():
    with pytest.raises(ConfigError, match="non-increasing"):
        AuctionConfig(num_agents=3, num_slots=2, horizon=10, delta=0.5,
                      prominences=(1.0, 1.2))


def test_validate_rejects_first_prominence_not_one():
    with pytest.raises(ConfigError, match="start at 1"):
        AuctionConfig(num_agents=3, num_slots=2, horizon=10, delta=0.5,
                      prominences=(0.9, 0.5))


def test_validate_rejects_bad_seed():
    with pytest.raises(ConfigError, match="seed"):
        AuctionConfig(num_agents=3, horizon=10, delta=0.5, seed=2**64)


def test_replace_checks_the_new_config():
    config = AuctionConfig(num_agents=3, num_slots=2, horizon=10, delta=0.5, prominences=(1.0, 0.8))
    assert replace(config, num_slots=1, prominences=(1.0,)).prominences == (1.0,)
    with pytest.raises(ConfigError, match="prominences length must equal num_slots"):
        replace(config, num_slots=1)
    with pytest.raises(ConfigError, match="delta must be positive"):
        replace(config, delta=math.nan)


_ODD_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.5, 1e-308, 0.5, 1.0, 2.0]),
    st.floats(),
    st.sampled_from(["0.5", None, "1"]),  # not numbers
)
_ODD_INTS = st.one_of(
    st.sampled_from([0, -1, 1, 2, 3, 2**64 - 1, 2**64, 10**400]),
    st.integers(-2, 6),
    st.integers(),
    # not integers, or integers of another type
    st.sampled_from([math.nan, math.inf, -math.inf, 1.5, 2.0]),
    st.integers(-2, 6).map(np.int64),
)
# short, rising, zero, tiny or non-finite lists as prominences, or no list at all
_GAMMAS = st.one_of(
    st.lists(st.one_of(_ODD_FLOATS, st.floats(0.0, 1.0)), max_size=4).map(tuple),
    st.sampled_from([1, 1.0, "1", "1.0, 0.5"]),
)
_FIELDS = st.fixed_dictionaries(
    {},
    optional={
        "num_agents": _ODD_INTS,
        "num_slots": _ODD_INTS,
        "horizon": _ODD_INTS,
        "delta": _ODD_FLOATS,
        "v_max": _ODD_FLOATS,
        "prominences": st.none() | _GAMMAS,
        "seed": _ODD_INTS,
    },
)


def _valid_or_rejected(build):
    """build() raises ConfigError, or its config holds int counts and resolved prominences."""
    try:
        config = build()
    except ConfigError:
        return
    for name in ("num_agents", "num_slots", "horizon", "seed"):
        assert type(getattr(config, name)) is int, name
    gammas = config.prominences
    assert type(gammas) is tuple and all(type(g) is float for g in gammas)
    assert len(gammas) == config.num_slots and gammas[0] == 1.0
    assert all(0.0 < later <= earlier for earlier, later in zip(gammas, gammas[1:]))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@example(fields={"horizon": 10**400}, changes={"horizon": 10**400})  # past the float range
@example(
    fields={"num_slots": 2, "prominences": (1.0, 1e-308)}, changes={"prominences": (1.0, 1e-308)}
)
@example(fields={"seed": 2**64}, changes={"seed": -1})
@given(fields=_FIELDS, changes=_FIELDS)
def test_a_built_or_replaced_config_is_valid_or_rejected(fields, changes):
    base = {"num_agents": 3, "horizon": 100, "delta": 0.5}
    _valid_or_rejected(lambda: AuctionConfig(**{**base, **fields}))
    config = AuctionConfig(
        num_agents=4, num_slots=2, horizon=100, delta=0.5, prominences=(1.0, 0.5)
    )
    _valid_or_rejected(lambda: replace(config, **changes))


@pytest.mark.parametrize(
    "fields",
    [
        {"delta": "0.5"},
        {"v_max": None},
        {"prominences": 1},
        {"prominences": "1"},  # a string is not a list of its characters
    ],
)
def test_non_numbers_are_config_errors_naming_the_field(fields):
    name = list(fields)[-1]
    with pytest.raises(ConfigError, match=f"^{name} must"):
        AuctionConfig(**{"num_agents": 3, "horizon": 100, "delta": 0.5, **fields})


def test_profile_bid_defaults_to_valuation():
    profile = AgentProfile(id=1, ctr=0.5, valuation=0.7)
    assert profile.bid == 0.7


def test_validate_profiles_rejects_out_of_range_bid():
    config = AuctionConfig(num_agents=1, horizon=10, delta=0.5, v_max=1.0)
    with pytest.raises(ConfigError, match="bid must lie"):
        validate_profiles([AgentProfile(id=1, ctr=0.5, valuation=0.5, bid=1.5)], config)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"id": 1.0}, "agent 1.0: id must be an integer"),
        ({"id": "1"}, "agent '1': id must be an integer"),
        ({"ctr": "0.5"}, "agent 1: ctr must be a real number"),
        ({"ctr": None}, "agent 1: ctr must be a real number"),
        ({"valuation": "0.5"}, "agent 1: valuation must be a real number"),
        ({"bid": "0.5"}, "agent 1: bid must be a real number"),
    ],
)
def test_validate_profiles_rejects_non_numbers(fields, message):
    config = AuctionConfig(num_agents=2, horizon=10, delta=0.5)
    first = AgentProfile(**{"id": 1, "ctr": 0.5, "valuation": 0.5, **fields})
    with pytest.raises(ConfigError, match=f"^{message}$"):
        validate_profiles([first, AgentProfile(id=2, ctr=0.5, valuation=0.5)], config)


def _budget(num_agents, v_max, delta, horizon):
    """The budget formula on bare values; the horizon may be any real, as e here."""
    fields = dict(num_agents=num_agents, v_max=v_max, delta=delta, horizon=horizon)
    return exploration_budget(SimpleNamespace(**fields))


def test_budget_formula_values():
    # direct evaluations of the budget formula; ln(e) = 1 makes them exact
    assert _budget(1, 1.0, math.sqrt(8.0), math.e) == 1
    assert _budget(2, 1.0, 4.0, math.e) == 2  # raw value below one pull per agent
    assert _budget(2, 1.0, 1.0, math.e) == 16


def test_budget_is_whole_cycles():
    # every agent gets the same pull count, so none is left below the per-agent requirement
    for num_agents in (2, 3, 5, 7):
        config = AuctionConfig(num_agents=num_agents, horizon=10**5, delta=0.2)
        assert exploration_budget(config) % num_agents == 0


def test_budget_monotonicity_grid():
    agents = (1, 2, 5, 9)
    v_maxes = (0.5, 1.0, 2.0)
    deltas = (0.1, 0.5, 1.0, 2.0)
    horizons = (10, 10**3, 10**6)

    for v, d, t in [(v, d, t) for v in v_maxes for d in deltas for t in horizons]:
        values = [_budget(k, v, d, t) for k in agents]
        assert values == sorted(values)
    for k, d, t in [(k, d, t) for k in agents for d in deltas for t in horizons]:
        values = [_budget(k, v, d, t) for v in v_maxes]
        assert values == sorted(values)
    for k, v, t in [(k, v, t) for k in agents for v in v_maxes for t in horizons]:
        values = [_budget(k, v, d, t) for d in deltas]
        assert values == sorted(values, reverse=True)
    for k, v, d in [(k, v, d) for k in agents for v in v_maxes for d in deltas]:
        values = [_budget(k, v, d, t) for t in horizons]
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
    before = state.to_bytes()
    with pytest.raises(RuntimeError, match="frozen"):
        state.set_entry(1, 5, 2.0)
    assert state.to_bytes() == before


def test_learner_state_bytes_track_content():
    state = LearnerState.fresh(2, horizon=100)
    state.record_pull(1, 1.0)
    snapshot = state.to_bytes()
    state.record_pull(2, 0.0)
    assert snapshot != state.to_bytes()


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
