"""The closed-form DSIC and IR checks against the per-round utility vectors they replace.

The reference below is the vector algorithm: one length-T utility vector
for the truthful bid and one per scenario bid from ``per_round_utilities``,
then ``np.argmax`` / ``np.argmin`` and the same strict-improvement loops.
Reports must agree field for field, with floats equal bit for bit, so a
-0.0 never turns into 0.0 or the other way round.
"""

import dataclasses
import math
import struct

import numpy as np
from hypothesis import event, given, settings, strategies as st

from deltaucb.core import AuctionConfig, exploration_budget, validate_profiles
from deltaucb.environment import draw_realization
from deltaucb.mechanism import bid_vector, declare, free_rounds, learn
from deltaucb.mechanism_multi import price_rule_for
from deltaucb.strategy_lab import (
    DSIC_TOLERANCE,
    DsicReport,
    IrReport,
    build_scenario,
    per_round_utilities,
    shared_learner,
    verify_dsic,
    verify_ir,
)

from conftest import make_profiles, make_realization


def _reference_outcomes(config, realization):
    explore_until = min(exploration_budget(config), config.horizon)
    learner = None
    if explore_until < config.horizon:
        learner = learn(*free_rounds(realization, config, explore_until), config)

    def outcome_for(bids):
        if learner is None:
            return None
        rule = price_rule_for(config.num_slots)
        return declare(learner, bids, config.prominences, rule)

    return explore_until, outcome_for


def reference_dsic(config, profiles, scenario):
    profiles = validate_profiles(profiles, config)
    deviator = scenario.deviator
    realization = scenario.realization
    truthful_bids = np.array(scenario.fixed_others, dtype=float)
    truthful_bids[deviator - 1] = profiles[deviator - 1].valuation
    truthful_bids = bid_vector(truthful_bids, config)
    explore_until, outcome_for = _reference_outcomes(config, realization)
    truth_util = per_round_utilities(
        config, profiles, realization, outcome_for(truthful_bids), deviator, explore_until
    )
    worst, witness_round, witness_bid = -math.inf, None, None
    for bid in scenario.bid_grid:
        bids = truthful_bids.copy()
        bids[deviator - 1] = bid
        dev_util = per_round_utilities(
            config, profiles, realization, outcome_for(bids), deviator, explore_until
        )
        gain = dev_util - truth_util
        idx = int(np.argmax(gain))
        if gain[idx] > worst:
            worst, witness_round, witness_bid = float(gain[idx]), idx + 1, float(bid)
    return DsicReport(
        deviator=deviator,
        holds=worst <= DSIC_TOLERANCE,
        worst_violation=worst,
        witness_round=witness_round,
        witness_bid=witness_bid,
        grid_size=len(scenario.bid_grid),
    )


def reference_ir(config, profiles, realization):
    profiles = validate_profiles(profiles, config)
    explore_until, outcome_for = _reference_outcomes(config, realization)
    outcome = outcome_for(np.array([p.valuation for p in profiles]))
    worst, agent_hit, round_hit = math.inf, None, None
    for p in profiles:
        util = per_round_utilities(config, profiles, realization, outcome, p.id, explore_until)
        idx = int(np.argmin(util))
        if util[idx] < worst:
            worst, agent_hit, round_hit = float(util[idx]), p.id, idx + 1
    return IrReport(
        holds=worst >= 0.0, worst_utility=worst, witness_agent=agent_hit, witness_round=round_hit
    )


def _bits(report):
    """A report's fields, with each float as its IEEE bytes (so -0.0 != 0.0)."""
    return tuple(
        struct.pack("<d", value) if isinstance(value, float) else (type(value), value)
        for value in dataclasses.astuple(report)
    )


def _signed(value):
    return "-0.0" if value == 0.0 and math.copysign(1.0, value) < 0 else value


_unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


# rare clicks and faint slots: patterns that first occur after several doublings of the scan
# window, or never, so the scan runs to the horizon
_rare = st.one_of(st.sampled_from([0.0, 1e-4, 1e-3, 2e-3]), st.floats(0.0, 5e-3))


@st.composite
def check_instances(draw, horizons=st.integers(1, 3000), ctrs=_unit, drops=st.floats(0.05, 1.0)):
    num_agents = draw(st.integers(1, 5))
    num_slots = draw(st.integers(1, min(3, num_agents)))
    drops = draw(st.lists(drops, min_size=num_slots - 1, max_size=num_slots - 1))
    v_max = draw(st.sampled_from([1.0, 0.5, 2.0]))
    config = AuctionConfig(
        num_agents=num_agents,
        num_slots=num_slots,
        # short horizons and tight tolerances give budgets that fill the horizon
        horizon=draw(horizons),
        delta=v_max * draw(st.floats(1.0, 6.0)),
        v_max=v_max,
        prominences=(1.0, *sorted(drops, reverse=True)),
        seed=draw(st.integers(0, 2**32)),
    )
    units = st.lists(_unit, min_size=num_agents, max_size=num_agents)
    ctrs = draw(st.lists(ctrs, min_size=num_agents, max_size=num_agents))
    # valuations and competitor bids are independent, so prices often exceed valuations
    valuations = [v_max * u for u in draw(units)]
    bids = [v_max * u for u in draw(units)]
    return config, make_profiles(ctrs, valuations, bids)


def _assert_checks_match(instance):
    config, profiles = instance
    realization = draw_realization(config, profiles)
    event(f"M={config.num_slots}, K={config.num_agents}")
    if exploration_budget(config) >= config.horizon:
        event("exploration only")
    learned = shared_learner(config, realization)
    for deviator in range(1, config.num_agents + 1):
        scenario = build_scenario(config, profiles, realization, deviator, learned)
        report = verify_dsic(config, profiles, scenario)
        expected = reference_dsic(config, profiles, scenario)
        assert _bits(report) == _bits(expected), (report, expected)
        if not report.holds:
            event("dsic finding")
    report = verify_ir(config, profiles, realization)
    expected = reference_ir(config, profiles, realization)
    assert _bits(report) == _bits(expected), (report, expected)
    if not report.holds:
        event("ir finding")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(check_instances())
def test_closed_form_checks_match_the_utility_vectors(instance):
    _assert_checks_match(instance)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(check_instances(st.integers(20_000, 200_000), _rare, st.floats(0.02, 0.2)))
def test_closed_form_checks_match_the_utility_vectors_when_patterns_are_late(instance):
    _assert_checks_match(instance)


def test_ir_keeps_the_negative_zero_of_a_price_above_the_valuation():
    # K = M = 2 shows both agents in every free round, where they always click;
    # agent 1 then wins slot 1 at a price above its valuation and never clicks
    # again, so its worst round is the committed (1.0 - price) * 0 = -0.0
    config = AuctionConfig(num_agents=2, num_slots=2, horizon=40, delta=4.0, prominences=(1.0, 0.1))
    explore_until = exploration_budget(config)
    clicked = [1] * explore_until + [0] * (config.horizon - explore_until)
    realization = make_realization([clicked, clicked], [[1] * config.horizon] * 2)
    profiles = make_profiles([0.5, 0.5], [1.0, 0.8])
    report = verify_ir(config, profiles, realization)
    assert _bits(report) == _bits(reference_ir(config, profiles, realization))
    assert _signed(report.worst_utility) == "-0.0" and report.holds
    assert (report.witness_agent, report.witness_round) == (1, explore_until + 1)
