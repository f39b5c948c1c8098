"""Generated equivalence checks for the one Δ-UCB engine.

The aggregate path (``run_single_slot`` / ``run_multi_slot``, and the
oracle baseline with no free rounds) and its round log are checked against
the round-by-round reference ``iter_rounds`` with the same declare step:
both price rules and the clairvoyant step. The log's running totals are
checked against left-to-right sums of the per-call ``metrics`` functions,
and ``InstanceTables`` against those functions. Instances draw click
rates, values, bids and prominences from small grids, so ties in welfare
and in scores, zero bids and zero welfare are common; horizons include 1
and 2, and budgets include the horizon and one round short of it. Examples
are derandomized, so the suite is deterministic.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from deltaucb import metrics
from deltaucb.core import AgentProfile, AuctionConfig, Phase, exploration_budget
from deltaucb.environment import draw_realization
from deltaucb.harness import fmt_num, round_log_rows
from deltaucb.mechanism import (
    declare_winner,
    iter_rounds,
    multi_exploration_allocation,
    run_single_slot,
)
from deltaucb.mechanism_multi import run_multi_slot
from deltaucb.metrics import InstanceTables
from deltaucb.strategy_lab import BaselineKind, clairvoyant, run_baseline

from conftest import delta_regret_of, log_rows, record_rows, telescoping_step, welfare_of

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _oracle(config, profiles, budget_override, **options):
    # the oracle runs with no free rounds; instances() draws that budget for it
    assert budget_override == 0
    return run_baseline(BaselineKind.ORACLE_ALLOCATION, config, profiles, **options)


# name: (aggregate run, declare step for (config, profiles), most slots, fixed budget)
ENGINES = {
    "normalized-runner-up": (run_single_slot, lambda config, profiles: declare_winner, 1, None),
    "telescoping": (run_multi_slot, lambda config, profiles: telescoping_step(config), 3, None),
    "oracle": (_oracle, clairvoyant, 1, 0),
}


@st.composite
def instances(draw, max_slots, budget=None):
    num_agents = draw(st.integers(1, 4))
    num_slots = draw(st.integers(1, min(num_agents, max_slots)))
    lower = draw(
        st.lists(st.sampled_from([0.25, 0.6, 1.0]), min_size=num_slots - 1, max_size=num_slots - 1)
    )
    prominences = (1.0, *sorted(lower, reverse=True))
    grid = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    ctrs = draw(st.lists(grid, min_size=num_agents, max_size=num_agents))
    valuations = draw(st.lists(grid, min_size=num_agents, max_size=num_agents))
    bids = draw(st.lists(grid, min_size=num_agents, max_size=num_agents))
    profiles = [
        AgentProfile(id=i + 1, ctr=ctrs[i], valuation=valuations[i], bid=bids[i])
        for i in range(num_agents)
    ]
    horizon = draw(st.sampled_from(range(1, 61)))
    config = AuctionConfig(
        num_agents=num_agents,
        num_slots=num_slots,
        horizon=horizon,
        delta=draw(st.sampled_from([0.05, 0.25, 0.5, 2.0])),
        prominences=prominences,
        seed=draw(st.integers(0, 2**32)),
    )
    budget_override = budget
    if budget is None:
        budget_override = draw(
            st.one_of(
                st.sampled_from([None, horizon, horizon - 1]),
                st.integers(0, horizon),
            )
        )
    return config, profiles, budget_override


def _drain(generator):
    """All records of the reference path, and the learner state it returns."""
    records = []
    while True:
        try:
            records.append(next(generator))
        except StopIteration as stop:
            return records, stop.value


def _label_edges(config, profiles, budget, rounds_log):
    scores = {p.ctr * p.bid for p in profiles}
    event(f"horizon {config.horizon}" if config.horizon <= 2 else "horizon > 2")
    if budget == config.horizon:
        event("budget = T")
    if budget == config.horizon - 1:
        event("budget = T - 1")
    if config.num_agents == config.num_slots:
        event("K = M")
    if len(scores) < len(profiles):
        event("tied bid-weighted rates")
    if any(p.bid == 0.0 for p in profiles):
        event("zero bid")
    event(f"rounds_log={rounds_log}")


def _at_fmt_precision(x):
    # compared as values: fmt_num may print a trailing zero more or less
    # depending on the last bits (0.275 and 0.27499999999999997)
    return float(fmt_num(x))


def _pairwise_exploration_sums(config, profiles, explore_until):
    """Exploration regret and welfare summed pairwise over the (round, slot) event grid."""
    prominences = config.prominences
    delta, standard, welfare = [], [], []
    for t in range(1, explore_until + 1):
        for m in range(1, config.num_slots + 1):
            shown = {m: multi_exploration_allocation(t, m, config.num_agents)}
            delta.append(metrics.delta_regret_increment(shown, profiles, config.delta, prominences))
            standard.append(metrics.standard_regret_increment(shown, profiles, prominences))
            welfare.append(metrics.welfare_at_slot(profiles[shown[m] - 1], m, prominences))
    return tuple(float(np.array(sums).sum()) for sums in (delta, standard, welfare))


def _check_running_totals(log, records, profiles, config):
    """round_log_rows' columns against the records, its totals as Python sums, bit for bit."""
    columns = round_log_rows(log, profiles, config)
    table = {name: column.tolist() for name, column in columns.items()}
    delta = regret = revenue = 0.0
    expected = {"phase": [], "delta_regret_cum": [], "regret_cum": [], "revenue_cum": []}
    for record in records:
        for m, agent in sorted(record.allocation.items()):
            shown = {m: agent}
            delta += metrics.delta_regret_increment(
                shown, profiles, config.delta, config.prominences
            )
            regret += metrics.standard_regret_increment(shown, profiles, config.prominences)
            revenue += record.payment_of(agent)
            expected["phase"].append(record.phase.value)
            expected["delta_regret_cum"].append(delta.hex())
            expected["regret_cum"].append(regret.hex())
            expected["revenue_cum"].append(revenue.hex())
    assert table["phase"] == expected.pop("phase")
    for name, values in expected.items():
        assert [x.hex() for x in table[name]] == values, name
    flat = list(zip(*(table[name] for name in ("t", "slot", "agent", "click", "payment"))))
    assert flat == record_rows(records)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@PROPERTY
@given(data=st.data())
def test_engine_matches_round_by_round_reference(engine, data):
    run, step, max_slots, fixed_budget = ENGINES[engine]
    config, profiles, budget_override = data.draw(instances(max_slots, fixed_budget))
    rounds_log = data.draw(st.sampled_from(["none", "all", "exploit-only"]))
    realization = draw_realization(config, profiles)
    budget = exploration_budget(config) if budget_override is None else budget_override
    _label_edges(config, profiles, budget, rounds_log)
    decide = step(config, profiles)
    reference = iter_rounds(
        config, profiles, decide, realization=realization, budget_override=budget_override
    )
    try:
        records, learner = _drain(reference)
    except ValueError:
        # the budget ended before every agent was shown: neither path may declare
        event("declare refused")
        with pytest.raises(ValueError, match="pulled at least once"):
            run(config, profiles, realization=realization, budget_override=budget_override)
        return
    result = run(
        config,
        profiles,
        realization=realization,
        rounds_log=rounds_log,
        budget_override=budget_override,
    )
    summary = result.summary
    assert len(records) == config.horizon

    if rounds_log == "none":
        assert result.log is None
    else:
        wanted = [r for r in records if rounds_log == "all" or r.phase is Phase.EXPLOITATION]
        assert log_rows(result.log) == record_rows(wanted)
        _check_running_totals(result.log, wanted, profiles, config)

    outcome = result.outcome
    if budget >= config.horizon:
        event("exploration-only")
        assert outcome is None and summary.flags == ("exploration-only",)
    else:
        event("declared")
        if summary.total_delta_regret > 0.0:
            event("declared with tolerance regret")
        assert outcome.learner.to_bytes() == learner.to_bytes()
        assert summary.winners == outcome.ranking[: config.num_slots]
        for record in records:
            if record.phase is Phase.EXPLOITATION:
                for m, agent in record.allocation.items():
                    assert agent == outcome.ranking[m - 1]
                    price = outcome.payments_per_click[m - 1]
                    assert record.payment_of(agent) == price * record.click_of(agent)

    revenue = sum(sum(r.payments.values()) for r in records)
    assert summary.total_revenue == pytest.approx(revenue, rel=1e-12, abs=1e-12)
    for p in profiles:
        utility = sum(metrics.agent_utility(r, p.id, p.valuation) for r in records)
        assert summary.per_agent_utility[p.id] == pytest.approx(utility, rel=1e-12, abs=1e-12)

    explore = [r for r in records if r.phase is Phase.EXPLORATION]
    exploit = [r for r in records if r.phase is Phase.EXPLOITATION]
    assert summary.exploration_rounds_used == len(explore)
    explore_regret = [delta_regret_of(r, profiles, config) for r in explore]
    exploit_regret = [delta_regret_of(r, profiles, config) for r in exploit]
    for value, increments in (
        (summary.exploration_delta_regret, explore_regret),
        (summary.exploitation_delta_regret, exploit_regret),
        (summary.total_welfare, [welfare_of(r, profiles, config) for r in records]),
    ):
        assert _at_fmt_precision(value) == _at_fmt_precision(sum(increments))

    # the summed-over-the-event-grid figures the aggregate path used to report
    delta, standard, welfare = _pairwise_exploration_sums(config, profiles, len(explore))
    exploit_rounds = len(exploit)
    tables = InstanceTables.build(profiles, config.delta, config.prominences)
    for m, agent in enumerate(summary.winners, start=1):
        standard += exploit_rounds * tables.gap[agent - 1][m - 1]
        welfare += exploit_rounds * tables.welfare[agent - 1][m - 1]
    assert _at_fmt_precision(summary.exploration_delta_regret) == _at_fmt_precision(delta)
    assert _at_fmt_precision(summary.total_standard_regret) == _at_fmt_precision(standard)
    assert _at_fmt_precision(summary.total_welfare) == _at_fmt_precision(welfare)


@PROPERTY
@given(data=st.data())
def test_instance_tables_match_per_call_metrics(data):
    config, profiles, _ = data.draw(instances(max_slots=4))
    delta, prominences = config.delta, config.prominences
    tables = InstanceTables.build(profiles, delta, prominences)
    assert tables.ranking == tuple(metrics.welfare_ranking(profiles))
    for m in range(1, config.num_slots + 1):
        members = metrics.delta_set_for_slot(profiles, delta, m, prominences)
        for p in profiles:
            single = {m: p.id}
            row = p.id - 1
            assert tables.welfare[row][m - 1] == metrics.welfare_at_slot(p, m, prominences)
            assert tables.gap[row][m - 1] == metrics.standard_regret_increment(
                single, profiles, prominences
            )
            assert tables.delta_gap[row][m - 1] == metrics.delta_regret_increment(
                single, profiles, delta, prominences
            )
            assert tables.member[row][m - 1] == (p.id in members)
    if config.num_slots == 1:
        members = {p.id for p in profiles if tables.member[p.id - 1][0]}
        assert members == metrics.delta_set_for_slot(profiles, delta, 1, (1.0,))
