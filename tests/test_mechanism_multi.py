import math
from dataclasses import replace

import numpy as np
import pytest

from deltaucb.core import AuctionConfig, ConfigError, Phase, gammas_from_lambdas
from deltaucb.environment import draw_realization
from deltaucb.mechanism import iter_rounds, multi_exploration_allocation, run_single_slot
from deltaucb.mechanism_multi import multi_slot_payment, run_multi_slot
from deltaucb import metrics

from conftest import (
    delta_regret_of,
    log_rows,
    make_profiles,
    make_realization,
    random_instance,
    record_rows,
    telescoping_step,
)


def _config(num_agents, num_slots, horizon, delta, prominences, seed=0):
    return AuctionConfig(
        num_agents=num_agents,
        num_slots=num_slots,
        horizon=horizon,
        delta=delta,
        prominences=prominences,
        seed=seed,
    )


def test_gammas_from_single_lambda():
    assert gammas_from_lambdas((0.5,)) == (1.0, 0.5)


def test_gammas_degenerate_chain():
    assert gammas_from_lambdas((1.0, 1.0)) == (1.0, 1.0, 1.0)


def test_gammas_cumulative_product():
    gammas = gammas_from_lambdas((0.8, 0.5))
    assert gammas == (1.0, 0.8, pytest.approx(0.4))


@pytest.mark.parametrize(
    "lambdas, message",
    [
        ((0.5, 1.5), "lie in"),
        ((0.0,), "lie in"),
        ((math.nan,), "lie in"),
        (1, "be a sequence"),
        ("1", "be a sequence"),  # a string is not a list of its characters
    ],
)
def test_gammas_reject_out_of_range_or_non_sequences(lambdas, message):
    with pytest.raises(ConfigError, match=f"^lambdas must {message}"):
        gammas_from_lambdas(lambdas)


def test_rotation_examples():
    assert [multi_exploration_allocation(1, m, 3) for m in (1, 2, 3)] == [1, 2, 3]
    assert [multi_exploration_allocation(2, m, 3) for m in (1, 2, 3)] == [2, 3, 1]
    assert [multi_exploration_allocation(4, m, 3) for m in (1, 2, 3)] == [1, 2, 3]


def test_rotation_rejects_slot_beyond_agents():
    with pytest.raises(ValueError):
        multi_exploration_allocation(1, 4, 3)


def test_rotation_is_distinct_within_round_and_fair_across_cycle():
    for num_agents in (2, 3, 5, 8):
        for num_slots in range(1, num_agents + 1):
            for t0 in (1, 4, 11):
                seen = {}
                for t in range(t0, t0 + num_agents):
                    agents = [
                        multi_exploration_allocation(t, m, num_agents)
                        for m in range(1, num_slots + 1)
                    ]
                    assert len(set(agents)) == num_slots
                    for m, a in enumerate(agents, start=1):
                        seen.setdefault(a, []).append(m)
                # over K consecutive rounds each agent visits each slot exactly once
                for slots in seen.values():
                    assert sorted(slots) == list(range(1, num_slots + 1))


def test_every_agent_pulled_once_per_round_when_slots_equal_agents():
    config = _config(3, 3, 30, 2.0, (1.0, 0.8, 0.6), seed=1)
    records = list(iter_rounds(config, make_profiles([0.5, 0.5, 0.5]), telescoping_step(config)))
    for record in records:
        if record.phase is Phase.EXPLORATION:
            assert sorted(record.allocation.values()) == [1, 2, 3]


def test_unobserved_slot_records_no_click():
    intrinsic = np.ones((2, 10), dtype=np.uint8)
    observations = np.stack([np.ones(10, dtype=np.uint8), np.zeros(10, dtype=np.uint8)])
    realization = make_realization(intrinsic, observations)
    config = _config(2, 2, 10, 5.0, (1.0, 0.5), seed=2)
    records = list(iter_rounds(
        config, make_profiles([1.0, 1.0]), telescoping_step(config), realization=realization
    ))
    for record in records:
        slot2_agent = record.allocation.get(2)
        if slot2_agent is not None and record.phase is Phase.EXPLORATION:
            assert record.click_of(slot2_agent) == 0


def test_pull_counts_after_exploration():
    # u * M / K pulls apiece when K divides u * M
    config = _config(4, 2, 10**4, 0.9, (1.0, 0.7), seed=3)
    profiles = make_profiles([0.6, 0.5, 0.4, 0.3])
    result = run_multi_slot(config, profiles)
    budget = result.summary.exploration_budget
    expected = budget * 2 // 4
    assert (result.outcome.learner.pull_count == expected).all()


def test_payment_single_slot_collapses_to_runner_up_score():
    scores = np.array([0.9, 0.6])
    assert multi_slot_payment(1, (1, 2), (1.0,), scores) == pytest.approx(0.6)


def test_payment_last_slot_with_no_agents_below_is_zero():
    scores = np.array([0.9, 0.6])
    assert multi_slot_payment(2, (1, 2), (1.0, 0.5), scores) == 0.0


def test_payment_worked_example():
    scores = np.array([0.9, 0.6, 0.4])
    prominences = (1.0, 0.5)
    assert multi_slot_payment(1, (1, 2, 3), prominences, scores) == pytest.approx(0.5)
    assert multi_slot_payment(2, (1, 2, 3), prominences, scores) == pytest.approx(0.2)


def _brute_force_payment(slot, ranking, prominences, scores):
    """Independent oracle: literal term-by-term evaluation of the telescoping sum."""
    gamma = {m + 1: g for m, g in enumerate(prominences)}
    gamma[len(prominences) + 1] = 0.0
    total = 0.0
    for rank_pos in range(slot + 1, len(prominences) + 2):
        if rank_pos <= len(ranking):
            agent = ranking[rank_pos - 1]
            total += (gamma[rank_pos - 1] - gamma[rank_pos]) * scores[agent - 1]
    return total


def test_payment_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(300):
        num_agents = int(rng.integers(1, 9))
        num_slots = int(rng.integers(1, min(num_agents, 5) + 1))
        prominences = (1.0, *np.sort(rng.uniform(0.05, 1.0, num_slots - 1))[::-1])
        ranking = tuple(rng.permutation(num_agents) + 1)
        scores = rng.uniform(0.0, 2.0, num_agents)
        for slot in range(1, num_slots + 1):
            expected = _brute_force_payment(slot, ranking, prominences, scores)
            assert multi_slot_payment(slot, ranking, prominences, scores) == pytest.approx(
                expected, abs=1e-12
            )


def test_payment_telescoping_identity_and_monotonicity():
    rng = np.random.default_rng(29)
    for _ in range(100):
        num_agents = int(rng.integers(2, 8))
        num_slots = int(rng.integers(2, min(num_agents, 5) + 1))
        prominences = (1.0, *np.sort(rng.uniform(0.1, 1.0, num_slots - 1))[::-1])
        ranking = tuple(rng.permutation(num_agents) + 1)
        scores = rng.uniform(0.0, 1.5, num_agents)
        payments = [
            multi_slot_payment(m, ranking, prominences, scores) for m in range(1, num_slots + 1)
        ]
        gamma = list(prominences) + [0.0]
        for m in range(1, num_slots):
            step = (gamma[m - 1] - gamma[m]) * scores[ranking[m] - 1]
            assert payments[m - 1] - payments[m] == pytest.approx(step, abs=1e-12)
            assert payments[m - 1] >= payments[m] - 1e-12


def test_exploitation_charges_each_clicked_slot():
    intrinsic = np.ones((2, 12), dtype=np.uint8)
    observations = np.ones((2, 12), dtype=np.uint8)
    realization = make_realization(intrinsic, observations)
    config = _config(2, 2, 12, 6.0, (1.0, 0.5), seed=5)
    profiles = make_profiles([1.0, 1.0], [1.0, 0.8])
    step = telescoping_step(config)
    records = list(iter_rounds(config, profiles, step, realization=realization))
    exploit = [r for r in records if r.phase is Phase.EXPLOITATION]
    assert exploit
    for record in exploit:
        assert sorted(record.allocation.values()) == sorted(exploit[0].allocation.values())
        slot1, slot2 = record.allocation[1], record.allocation[2]
        assert record.click_of(slot1) == 1 and record.click_of(slot2) == 1
        assert record.payment_of(slot1) > 0.0  # both clicked, both charged
        assert record.payment_of(slot2) == 0.0  # nobody ranked below the last slot here


def test_no_clicks_means_no_payments():
    intrinsic = np.zeros((3, 10), dtype=np.uint8)
    observations = np.ones((2, 10), dtype=np.uint8)
    realization = make_realization(intrinsic, observations)
    config = _config(3, 2, 10, 6.0, (1.0, 0.5), seed=6)
    records = list(
        iter_rounds(
            config,
            make_profiles([0.5, 0.5, 0.5]),
            telescoping_step(config),
            realization=realization,
        )
    )
    for record in records:
        assert all(p == 0.0 for p in record.payments.values())


def test_single_slot_special_case_matches_single_mechanism():
    """With one slot the allocations coincide; the per-click prices differ by design."""
    config = _config(3, 1, 1500, 0.8, (1.0,), seed=7)
    profiles = make_profiles([0.85, 0.5, 0.2], [1.0, 0.9, 0.7], [0.8, 0.9, 0.6])
    realization = draw_realization(config, profiles)
    single = run_single_slot(config, profiles, realization=realization, rounds_log="all")
    multi = run_multi_slot(config, profiles, realization=realization, rounds_log="all")
    assert multi.outcome.ranking[0] == single.outcome.winner
    allocations_single = [row[:3] for row in log_rows(single.log)]
    allocations_multi = [row[:3] for row in log_rows(multi.log)]
    assert allocations_single == allocations_multi
    # price shapes: the one-slot list price is the runner-up score, without the
    # division by the winner's own index that the dedicated single-slot rule applies
    winner_ucb = single.outcome.learner.ucb[single.outcome.winner - 1]
    assert multi.outcome.payments_per_click[0] == pytest.approx(
        single.outcome.payment_per_click * winner_ucb, rel=1e-12
    )


def test_well_separated_ranking_recovered():
    """Monte-Carlo check that exploitation recovers the true welfare ranking."""
    config = _config(4, 2, 10**4, 0.24, (1.0, 0.6))
    profiles = make_profiles([0.9, 0.65, 0.4, 0.15])
    hits = 0
    seeds = 1000
    for seed in range(seeds):
        realization = draw_realization(replace(config, seed=seed), profiles)
        result = run_multi_slot(config, profiles, realization=realization)
        hits += result.outcome.ranking == (1, 2, 3, 4)
    assert hits / seeds >= 0.999


def test_identical_agents_have_zero_multi_slot_regret():
    config = _config(4, 3, 2000, 0.6, (1.0, 0.7, 0.4), seed=8)
    profiles = make_profiles([0.5] * 4, [0.8] * 4)
    result = run_multi_slot(config, profiles)
    assert result.summary.total_delta_regret == 0.0


def test_tolerated_set_grows_down_the_page():
    """Outside the slot-m tolerated set implies outside every higher slot's set."""
    rng = np.random.default_rng(41)
    for _ in range(50):
        num_agents = int(rng.integers(3, 8))
        num_slots = int(rng.integers(2, min(num_agents, 4) + 1))
        prominences = (1.0, *np.sort(rng.uniform(0.2, 1.0, num_slots - 1))[::-1])
        profiles = random_instance(rng, num_agents, truthful=True)
        delta = float(rng.uniform(0.05, 0.5))
        sets = [
            metrics.delta_set_for_slot(profiles, delta, m, prominences)
            for m in range(1, num_slots + 1)
        ]
        for m in range(1, num_slots):
            assert sets[m - 1] <= sets[m]


def test_slot_welfare_scales_with_prominence():
    prominences = (1.0, 0.7, 0.4)
    profiles = make_profiles([0.6], [0.9])
    w = [metrics.welfare_at_slot(profiles[0], m, prominences) for m in (1, 2, 3)]
    assert w[0] / w[1] == pytest.approx(1.0 / 0.7)
    assert w[1] / w[2] == pytest.approx(0.7 / 0.4)


def test_multi_fast_path_matches_reference():
    config = _config(4, 2, 900, 0.8, (1.0, 0.5), seed=9)
    profiles = make_profiles([0.8, 0.6, 0.4, 0.2], [1.0, 0.9, 0.8, 0.7], [0.9, 0.8, 0.7, 0.6])
    realization = draw_realization(config, profiles)
    fast = run_multi_slot(config, profiles, realization=realization)
    step = telescoping_step(config)
    records = list(iter_rounds(config, profiles, step, realization=realization))
    with_records = run_multi_slot(config, profiles, realization=realization, rounds_log="all")
    assert log_rows(with_records.log) == record_rows(records)
    assert fast.outcome.learner.to_bytes() == with_records.outcome.learner.to_bytes()
    total_delta = sum(delta_regret_of(r, profiles, config) for r in records)
    revenue = sum(sum(r.payments.values()) for r in records)
    assert fast.summary.total_delta_regret == pytest.approx(total_delta, rel=1e-9, abs=1e-9)
    assert fast.summary.total_revenue == pytest.approx(revenue, rel=1e-9, abs=1e-9)
