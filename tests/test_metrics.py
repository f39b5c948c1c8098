import numpy as np
import pytest

from deltaucb.core import AgentProfile, AuctionConfig, Phase, RoundRecord
from deltaucb.mechanism import run_single_slot
from deltaucb.mechanism_multi import run_multi_slot
from deltaucb import metrics

from conftest import make_profiles, random_instance


def test_welfare_is_rate_times_value():
    assert metrics.welfare(AgentProfile(1, ctr=0.5, valuation=2.0)) == 1.0


def test_slot_welfare_annihilates_at_zero_prominence():
    profile = AgentProfile(1, ctr=0.5, valuation=2.0)
    assert metrics.welfare_at_slot(profile, 2, (1.0, 0.0)) == 0.0


def test_top_slot_welfare_equals_plain_welfare():
    profile = AgentProfile(1, ctr=0.3, valuation=0.9)
    assert metrics.welfare_at_slot(profile, 1, (1.0, 0.5)) == metrics.welfare(profile)


def test_delta_set_strict_threshold():
    profiles = make_profiles([0.9, 0.85, 0.3])  # welfares 0.9, 0.85, 0.3
    assert metrics.delta_set_for_slot(profiles, 0.1, 1, (1.0,)) == {1, 2}


def test_delta_set_contains_everyone_for_huge_tolerance():
    profiles = make_profiles([0.9, 0.5, 0.1])
    assert metrics.delta_set_for_slot(profiles, 10.0, 1, (1.0,)) == {1, 2, 3}


def test_delta_set_always_contains_best_agent():
    rng = np.random.default_rng(3)
    for _ in range(30):
        profiles = random_instance(rng, int(rng.integers(2, 7)), truthful=True)
        best = metrics.welfare_ranking(profiles)[0]
        delta = float(rng.uniform(0.01, 1.0))
        assert best in metrics.delta_set_for_slot(profiles, delta, 1, (1.0,))


def test_slot_delta_set_cardinality_at_least_slot_index():
    rng = np.random.default_rng(5)
    for _ in range(50):
        num_agents = int(rng.integers(3, 9))
        num_slots = int(rng.integers(1, min(num_agents, 5) + 1))
        prominences = (1.0, *np.sort(rng.uniform(0.2, 1.0, num_slots - 1))[::-1])
        profiles = random_instance(rng, num_agents, truthful=True)
        delta = float(rng.uniform(0.01, 0.8))
        ranking = metrics.welfare_ranking(profiles)
        for m in range(1, num_slots + 1):
            members = metrics.delta_set_for_slot(profiles, delta, m, prominences)
            assert len(members) >= m
            assert set(ranking[:m]) <= members  # the m best agents always qualify


def test_regret_increment_zero_inside_tolerated_set():
    profiles = make_profiles([0.6, 0.55])
    assert metrics.delta_regret_increment({1: 2}, profiles, delta=0.1) == 0.0


def test_regret_increment_counts_full_gap():
    profiles = make_profiles([0.6, 0.3])
    assert metrics.delta_regret_increment({1: 2}, profiles, delta=0.1) == pytest.approx(0.3)


def test_regret_increment_zero_for_optimal_agent():
    profiles = make_profiles([0.6, 0.3])
    assert metrics.delta_regret_increment({1: 1}, profiles, delta=0.1) == 0.0


def test_gap_exactly_delta_counts_toward_regret():
    # strict inequality in the tolerated set: a gap equal to delta still accrues
    profiles = make_profiles([0.5, 0.3])
    assert metrics.delta_regret_increment({1: 2}, profiles, delta=0.2) == pytest.approx(0.2)


def _record(allocation, clicks, payments, phase=Phase.EXPLOITATION):
    return RoundRecord(
        round=1,
        phase=phase,
        allocation=allocation,
        clicks=clicks,
        payments=payments,
    )


def test_agent_utility_zero_when_unallocated():
    record = _record({1: 2}, {2: 1}, {2: 0.5})
    assert metrics.agent_utility(record, 1, valuation=1.0) == 0.0


def test_agent_utility_zero_without_click():
    record = _record({1: 1}, {1: 0}, {1: 0.0})
    assert metrics.agent_utility(record, 1, valuation=1.0) == 0.0


def test_agent_utility_value_minus_payment():
    record = _record({1: 1}, {1: 1}, {1: 0.5})
    assert metrics.agent_utility(record, 1, valuation=1.0) == pytest.approx(0.5)


def test_tiny_tolerance_recovers_standard_regret():
    """With a tolerance below every nonzero gap, the tolerant and plain regrets agree."""
    rng = np.random.default_rng(11)
    for seed in range(5):
        profiles = random_instance(rng, 4, truthful=True)
        config = AuctionConfig(num_agents=4, horizon=400, delta=0.7, seed=seed)
        result = run_single_slot(config, profiles, rounds_log="all")
        shown = result.log.agent.tolist()
        assert result.log.slot.tolist() == [1] * config.horizon
        tiny = sum(metrics.delta_regret_increment({1: a}, profiles, delta=1e-12) for a in shown)
        brute = 0.0
        best = max(metrics.welfare(p) for p in profiles)
        for agent in shown:
            brute += best - metrics.welfare(profiles[agent - 1])
        assert tiny == pytest.approx(brute, abs=1e-9)
        assert result.summary.total_standard_regret == pytest.approx(brute, abs=1e-9)


def test_double_entry_accounting():
    config = AuctionConfig(num_agents=3, num_slots=2, horizon=500, delta=0.8,
                           prominences=(1.0, 0.6), seed=13)
    profiles = make_profiles([0.8, 0.5, 0.2], [1.0, 0.8, 0.6])
    result = run_multi_slot(config, profiles, rounds_log="all")
    log = result.log
    revenue = sum(log.payment.tolist())
    welfare_total = sum(
        metrics.welfare_at_slot(profiles[a - 1], m, (1.0, 0.6))
        for m, a in zip(log.slot.tolist(), log.agent.tolist())
    )
    assert revenue >= 0.0
    assert result.summary.total_revenue == pytest.approx(revenue, rel=1e-9, abs=1e-9)
    assert result.summary.total_welfare == pytest.approx(welfare_total, rel=1e-9)


def test_summary_invariants_on_random_runs():
    rng = np.random.default_rng(19)
    for seed in range(8):
        num_agents = int(rng.integers(2, 6))
        profiles = random_instance(rng, num_agents, truthful=True)
        config = AuctionConfig(num_agents=num_agents, horizon=600,
                               delta=float(rng.uniform(0.2, 1.0)), seed=seed)
        summary = run_single_slot(config, profiles).summary
        assert summary.total_delta_regret >= 0.0
        assert summary.total_delta_regret <= summary.total_standard_regret + 1e-12
        assert summary.total_revenue >= 0.0
