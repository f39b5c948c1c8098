"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
Criterion 11 is expected to fail: at this horizon and tolerance the
log-sized free-round budget is *larger* than the polynomial baseline's
budget (11515 vs 10773 rounds), so the stated separation cannot hold; it
emerges at larger horizons, which a companion test demonstrates. The test
is kept faithful and marked as an expected failure rather than weakened.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from deltaucb.core import AuctionConfig, exploration_budget
from deltaucb.environment import draw_realization
from deltaucb.mechanism import run_single_slot
from deltaucb.mechanism_multi import multi_slot_payment, run_multi_slot
from deltaucb.strategy_lab import (
    BaselineKind,
    build_scenario,
    max_tolerance_width,
    run_baseline,
    shared_learner,
    t23_budget,
    verify_dsic,
    verify_ir,
    welfare_interval_violations,
)
from deltaucb.harness import main

from conftest import make_profiles, random_instance, with_bids

SEEDS = 100

# the pinned separated instance used by criteria 1, 2, 3, 7, 8, 11
INSTANCE_CTRS = (0.9, 0.6, 0.5, 0.3, 0.1)


def _instance_config(horizon):
    return AuctionConfig(num_agents=5, horizon=horizon, delta=0.2, v_max=1.0)


def _instance_profiles():
    return make_profiles(INSTANCE_CTRS, [1.0] * 5)


def _report(name, passed, detail=""):
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    assert passed, f"{name} {detail}"


@pytest.fixture(scope="module")
def pinned_runs():
    """100 seeded runs of the pinned instance at T = 1e5, with wall time."""
    config = _instance_config(10**5)
    profiles = _instance_profiles()
    start = time.perf_counter()
    results = []
    for seed in range(SEEDS):
        realization = draw_realization(replace(config, seed=seed), profiles)
        results.append(run_single_slot(config, profiles, realization=realization))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_delta_regret_bound(pinned_runs):
    """Mean tolerance regret under 8 K v^3 ln T / delta^2 + 1, in under 30 seconds."""
    results, elapsed = pinned_runs
    config = _instance_config(10**5)
    bound = 8.0 * 5 * 1.0**3 * math.log(10**5) / (0.2**2) + 1.0
    mean_regret = float(np.mean([r.summary.total_delta_regret for r in results]))
    ok = mean_regret <= bound and elapsed < 30.0
    _report(
        "criterion 1 (single-slot regret bound)",
        ok,
        f"mean {mean_regret:.1f} <= bound {bound:.1f}, {elapsed:.1f}s for {SEEDS} runs",
    )


def test_criterion_2_logarithmic_growth():
    """Regret grows like ln T: positive slope, flat regret / ln T across decades."""
    profiles = _instance_profiles()
    horizons = (10**3, 10**4, 10**5, 10**6)
    means = []
    for horizon in horizons:
        config = _instance_config(horizon)
        totals = []
        for seed in range(50):
            realization = draw_realization(replace(config, seed=seed), profiles)
            totals.append(
                run_single_slot(config, profiles, realization=realization).summary.total_delta_regret
            )
        means.append(float(np.mean(totals)))
    slope = np.polyfit(np.log(horizons), means, 1)[0]
    ratios = [m / math.log(t) for m, t in zip(means[1:], horizons[1:])]
    center = sum(ratios) / len(ratios)
    spread = max(abs(r - center) / center for r in ratios)
    ok = slope > 0 and spread <= 0.2
    _report(
        "criterion 2 (logarithmic growth)",
        ok,
        f"slope {slope:.1f}, regret/lnT {['%.1f' % r for r in ratios]}, spread {spread:.3f}",
    )


def test_criterion_3_zero_exploitation_regret(pinned_runs):
    results, _ = pinned_runs
    clean = sum(1 for r in results if r.summary.exploitation_delta_regret == 0.0)
    _report(
        "criterion 3 (zero exploitation regret)",
        clean >= 99,
        f"{clean}/{SEEDS} seeds with zero exploitation regret",
    )


def _random_check_instances(rng, count, num_slots, prominences):
    instances = []
    for index in range(count):
        num_agents = int(rng.integers(max(2, num_slots), 7))
        config = AuctionConfig(
            num_agents=num_agents,
            num_slots=num_slots,
            horizon=3000,
            delta=0.4,
            prominences=prominences,
            seed=1000 + index,
        )
        profiles = random_instance(rng, num_agents)
        instances.append((config, profiles, draw_realization(config, profiles)))
    return instances


@pytest.fixture(scope="module")
def check_instances():
    rng = np.random.default_rng(2024)
    single = _random_check_instances(rng, 100, 1, None)
    multi = _random_check_instances(rng, 15, 2, (1.0, 0.6)) + _random_check_instances(
        rng, 15, 3, (1.0, 0.7, 0.4)
    )
    return single, multi


def test_criterion_4_dsic(check_instances):
    single, multi = check_instances
    worst = -math.inf
    for config, profiles, realization in single:
        learned = shared_learner(config, realization)
        for deviator in range(1, config.num_agents + 1):
            scenario = build_scenario(config, profiles, realization, deviator, learned)
            report = verify_dsic(config, profiles, scenario)
            worst = max(worst, report.worst_violation)
            assert report.grid_size <= min(config.num_agents, config.num_slots + 1)
    single_ok = worst <= 1e-12

    findings = []
    for config, profiles, realization in multi:
        learned = shared_learner(config, realization)
        for deviator in range(1, config.num_agents + 1):
            scenario = build_scenario(config, profiles, realization, deviator, learned)
            report = verify_dsic(config, profiles, scenario)
            if not report.holds:
                findings.append((config.num_slots, report))
    for num_slots, report in findings[:5]:
        print(
            f"  finding: {num_slots}-slot deviator {report.deviator} gains "
            f"{report.worst_violation:.4g}/round at bid {report.witness_bid:.4g}"
        )
    _report(
        "criterion 4 (truthfulness)",
        single_ok,
        f"single-slot worst gain {worst:.3e}; "
        f"multi-slot findings reported: {len(findings)} (expected, see notes)",
    )


def test_criterion_5_ir(check_instances):
    single, multi = check_instances
    worst = math.inf
    for config, profiles, realization in single:
        report = verify_ir(config, profiles, realization)
        worst = min(worst, report.worst_utility)
    single_ok = worst >= 0.0

    findings = []
    for config, profiles, realization in multi:
        report = verify_ir(config, profiles, realization)
        if not report.holds:
            findings.append((config.num_slots, report))
    for num_slots, report in findings[:5]:
        print(
            f"  finding: {num_slots}-slot agent {report.witness_agent} paid above value, "
            f"utility {report.worst_utility:.4g}"
        )
    _report(
        "criterion 5 (individual rationality)",
        single_ok,
        f"single-slot worst utility {worst:.3e} (exact); "
        f"multi-slot findings reported: {len(findings)}",
    )


def test_criterion_6_exploration_separatedness():
    rng = np.random.default_rng(77)
    identical = 0
    trials = 20
    for index in range(trials):
        num_slots = 2 if index % 4 == 0 else 1
        num_agents = int(rng.integers(max(2, num_slots), 7))
        config = AuctionConfig(
            num_agents=num_agents,
            num_slots=num_slots,
            horizon=2000,
            delta=0.5,
            prominences=(1.0, 0.6) if num_slots == 2 else None,
            seed=index,
        )
        profiles = random_instance(rng, num_agents, truthful=True)
        realization = draw_realization(config, profiles)
        runner = run_single_slot if num_slots == 1 else run_multi_slot
        bids_a = rng.uniform(0.0, 1.0, num_agents)
        bids_b = rng.uniform(0.0, 1.0, num_agents)
        run_a = runner(config, with_bids(profiles, bids_a), realization=realization)
        run_b = runner(config, with_bids(profiles, bids_b), realization=realization)
        identical += run_a.outcome.learner.to_bytes() == run_b.outcome.learner.to_bytes()
    _report(
        "criterion 6 (exploration separatedness)",
        identical == trials,
        f"{identical}/{trials} instances byte-identical at the end of learning",
    )


def test_criterion_7_confidence_coverage():
    config = _instance_config(10**4)
    profiles = _instance_profiles()
    violations = 0
    for seed in range(100):
        realization = draw_realization(replace(config, seed=seed), profiles)
        violations += welfare_interval_violations(config, profiles, realization)
    _report(
        "criterion 7 (confidence coverage)",
        violations <= 1,
        f"{violations} interval violations across 100 runs at T=1e4",
    )


def test_criterion_8_tolerance_width(pinned_runs):
    results, _ = pinned_runs
    profiles = _instance_profiles()
    failures = sum(
        1 for r in results if not max_tolerance_width(r.outcome.learner, profiles) < 0.2
    )
    widest = max(max_tolerance_width(r.outcome.learner, profiles) for r in results)
    _report(
        "criterion 8 (post-exploration width)",
        failures == 0,
        f"max 2*eps*v = {widest:.6f} < delta 0.2 in all {SEEDS} runs",
    )


def _oracle_payment(slot, ranking, prominences, scores):
    """Independent evaluation of the telescoping price, term by term."""
    gamma = {m + 1: g for m, g in enumerate(prominences)}
    gamma[len(prominences) + 1] = 0.0
    total = 0.0
    for position in range(slot + 1, len(prominences) + 2):
        if position <= len(ranking):
            total += (gamma[position - 1] - gamma[position]) * scores[ranking[position - 1] - 1]
    return total


def test_criterion_9_payment_oracle():
    rng = np.random.default_rng(4096)
    worst = 0.0
    for _ in range(10_000):
        num_agents = int(rng.integers(1, 9))
        num_slots = int(rng.integers(1, min(num_agents, 5) + 1))
        prominences = (1.0, *np.sort(rng.uniform(0.05, 1.0, num_slots - 1))[::-1])
        ranking = tuple(rng.permutation(num_agents) + 1)
        scores = rng.uniform(0.0, 2.0, num_agents)
        slot = int(rng.integers(1, num_slots + 1))
        got = multi_slot_payment(slot, ranking, prominences, scores)
        expected = _oracle_payment(slot, ranking, prominences, scores)
        worst = max(worst, abs(got - expected))
    _report(
        "criterion 9 (payment oracle)",
        worst <= 1e-12,
        f"max |mechanism - brute force| = {worst:.2e} over 10^4 instances",
    )


def test_criterion_10_multi_slot_regret_bound():
    prominences = (1.0, 0.7, 0.4)
    config = AuctionConfig(
        num_agents=6, num_slots=3, horizon=10**5, delta=0.25, prominences=prominences
    )
    bound = 8.0 * 6 * 3 * 1.0**3 * math.log(10**5) / (0.25**2) + 1.0
    rng = np.random.default_rng(31337)
    totals = []
    for seed in range(SEEDS):
        profiles = random_instance(rng, 6, truthful=True)
        realization = draw_realization(replace(config, seed=seed), profiles)
        totals.append(
            run_multi_slot(config, profiles, realization=realization).summary.total_delta_regret
        )
    mean_regret = float(np.mean(totals))
    _report(
        "criterion 10 (multi-slot regret bound)",
        mean_regret <= bound,
        f"mean {mean_regret:.1f} <= bound {bound:.1f} over {SEEDS} random instances",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "arithmetically unattainable as stated: at T=1e5, delta=0.2, K=5 the "
        "log-sized budget (11515) exceeds the K*T^(2/3) baseline budget (10773), "
        "so the mechanism explores longer and accrues more regret; the separation "
        "appears for T >= ~1.2e5 (see companion test and README)"
    ),
)
def test_criterion_11_baseline_separation(pinned_runs):
    results, _ = pinned_runs
    config = _instance_config(10**5)
    profiles = _instance_profiles()
    budget = exploration_budget(config)
    baseline_budget = t23_budget(5, 10**5)
    wins = 0
    for seed in range(SEEDS):
        realization = draw_realization(replace(config, seed=seed), profiles)
        baseline = run_baseline(
            BaselineKind.EXPLORATION_SEPARATED_T23, config, profiles, realization=realization
        )
        wins += (
            results[seed].summary.total_delta_regret < baseline.summary.total_delta_regret
        )
    ok = budget < baseline_budget and wins >= 95
    _report(
        "criterion 11 (baseline separation)",
        ok,
        f"budget {budget} vs baseline {baseline_budget}; regret wins {wins}/{SEEDS}",
    )


def test_baseline_separation_emerges_at_larger_horizon():
    """Companion to criterion 11: one decade up, the budgets and regrets invert."""
    config = _instance_config(10**6)
    profiles = _instance_profiles()
    budget = exploration_budget(config)
    baseline_budget = t23_budget(5, 10**6)
    assert budget < baseline_budget
    wins = 0
    for seed in range(5):
        realization = draw_realization(replace(config, seed=seed), profiles)
        ours = run_single_slot(config, profiles, realization=realization)
        baseline = run_baseline(
            BaselineKind.EXPLORATION_SEPARATED_T23, config, profiles, realization=realization
        )
        wins += ours.summary.total_delta_regret < baseline.summary.total_delta_regret
    assert wins == 5
    print(
        f"[info] at T=1e6 the budgets invert: {budget} < {baseline_budget}; "
        f"regret wins 5/5"
    )


def test_criterion_12_byte_determinism(tmp_path):
    cfg = tmp_path / "pinned.cfg"
    cfg.write_text(
        "num_agents = 4\nhorizon = 4000\ndelta = 0.5\nseed = 20240331\n"
        "ctrs = 0.85, 0.6, 0.35, 0.1\nvaluations = 1.0, 0.9, 0.8, 0.7\n"
    )
    for out in ("first", "second"):
        rc = main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / out), "--rounds-log", "all"]
        )
        assert rc == 0
    same_rounds = (tmp_path / "first" / "rounds.csv").read_bytes() == (
        tmp_path / "second" / "rounds.csv"
    ).read_bytes()
    same_summary = (tmp_path / "first" / "summary.csv").read_bytes() == (
        tmp_path / "second" / "summary.csv"
    ).read_bytes()
    _report(
        "criterion 12 (byte determinism)",
        same_rounds and same_summary,
        "repeated runs byte-identical (rounds + summary)",
    )
