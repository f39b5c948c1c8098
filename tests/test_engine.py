"""Generated equivalence checks for the one run engine.

The aggregate path (``run`` of every row of ``MECHANISMS``: both price
rules, the clairvoyant step with no free rounds, the T^(2/3) budget and
plain UCB) and its round log are checked against a round-by-round
reference: ``iter_rounds`` with the row's declare step, or, for plain UCB,
``plain_ucb_rounds`` below, each replaying a matrix copy of the
realization. Plain UCB's engine sums its one-round stretches in round
order, so its summary matches the reference's per-round sums bit for bit.
The log's running totals are checked against left-to-right sums of the
per-call ``metrics`` functions, and ``InstanceTables`` against those
functions. Instances draw click rates, values, bids and prominences from
small grids, so ties in welfare and in scores, zero bids and zero welfare
are common; horizons include 1 and 2, and the log-sized rows' budgets
include the horizon and one round short of it (the other rows run at
their own budget rule). Examples are derandomized, so the suite is
deterministic.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from deltaucb import metrics
from deltaucb.core import (
    AgentProfile,
    AuctionConfig,
    Phase,
    RoundRecord,
    confidence_index,
    exploration_budget,
)
from deltaucb.environment import draw_realization, realized_click
from deltaucb.harness import fmt_num, round_log_rows
from deltaucb.mechanism import MECHANISMS, iter_rounds, multi_exploration_allocation, run
from deltaucb.metrics import InstanceTables

from conftest import as_matrices, delta_regret_of, log_rows, record_rows, welfare_of

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


# every row; a new row is covered as it is added
ENGINES = sorted(MECHANISMS)


def plain_ucb_rounds(config, profiles, realization):
    """Plain UCB round by round: the reference for the engine's ``plain-ucb`` play.

    Round t <= K shows agent t, and every later round the argmax of
    ucb * bid. Each click updates the shown agent's upper index, and nothing
    is charged, so every round is a learning round.
    """
    horizon, num_agents = config.horizon, config.num_agents
    bids = np.array([p.bid for p in profiles], float)
    counts, sums, ucb = [0] * num_agents, [0.0] * num_agents, np.full(num_agents, np.nan)
    for t in range(1, horizon + 1):
        agent = t if t <= num_agents else int(np.argmax(ucb * bids)) + 1
        click = realized_click(realization, agent, 1, t)
        counts[agent - 1] += 1
        sums[agent - 1] += click
        ucb[agent - 1] = confidence_index(counts[agent - 1], sums[agent - 1], horizon)[1]
        yield RoundRecord(t, Phase.EXPLORATION, {1: agent}, {agent: click}, {agent: 0.0})


@st.composite
def instances(draw, max_slots, drawn_budget=True, values=(0.0, 0.25, 0.5, 1.0)):
    num_agents = draw(st.integers(1, 4))
    num_slots = draw(st.integers(1, min(num_agents, max_slots)))
    lower = draw(
        st.lists(st.sampled_from([0.25, 0.6, 1.0]), min_size=num_slots - 1, max_size=num_slots - 1)
    )
    prominences = (1.0, *sorted(lower, reverse=True))
    grid = st.sampled_from(values)
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
    budget_override = None  # the row's own budget
    if drawn_budget:
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


def _check_round_order_sums(summary, records, profiles, config):
    """Every summary float as the reference's per-round sums, left to right from 0.0, by hex."""
    delta = standard = welfare = revenue = 0.0
    utility = dict.fromkeys((p.id for p in profiles), 0.0)
    for record in records:
        delta += delta_regret_of(record, profiles, config)
        standard += metrics.standard_regret_increment(
            record.allocation, profiles, config.prominences
        )
        welfare += welfare_of(record, profiles, config)
        revenue += sum(record.payments.values())
        for p in profiles:
            utility[p.id] += metrics.agent_utility(record, p.id, p.valuation)
    for value, expected in (
        (summary.total_delta_regret, delta),
        (summary.exploration_delta_regret, delta),
        (summary.exploitation_delta_regret, 0.0),
        (summary.total_standard_regret, standard),
        (summary.total_welfare, welfare),
        (summary.total_revenue, revenue),
        *((summary.per_agent_utility[p.id], utility[p.id]) for p in profiles),
    ):
        assert value.hex() == expected.hex()


def _check_running_totals(log, records, profiles, config):
    """round_log_rows' columns against the records, its totals as Python sums, bit for bit."""
    columns = round_log_rows(log)
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


@pytest.mark.parametrize("engine", ENGINES)
@PROPERTY
@given(data=st.data())
def test_engine_matches_round_by_round_reference(engine, data):
    row = MECHANISMS[engine]
    # a log-sized budget is drawn about its edges; any other rule is the row's own
    drawn_budget = row.budget is exploration_budget
    max_slots = 1 if row.single_slot else 3
    learns_throughout = row.budget is None
    # plain UCB's sums are compared by hex: values that are not all dyadic make a changed
    # summation order show in their last bits
    values = (0.0, 0.3, 0.7, 1.0) if learns_throughout else (0.0, 0.25, 0.5, 1.0)
    config, profiles, budget_override = data.draw(instances(max_slots, drawn_budget, values))
    rounds_log = data.draw(st.sampled_from(["none", "all", "exploit-only"]))
    realization = draw_realization(config, profiles)
    if learns_throughout:
        budget = config.horizon
        reference = plain_ucb_rounds(config, profiles, as_matrices(realization))
    else:
        budget = row.budget(config) if budget_override is None else budget_override
        decide = row.step(config, profiles).decide
        reference = iter_rounds(
            config, profiles, decide, realization=as_matrices(realization), budget_override=budget
        )
    _label_edges(config, profiles, budget, rounds_log)
    try:
        records, learner = _drain(reference)
    except ValueError:
        # the budget ended before every agent was shown: neither path may declare
        event("declare refused")
        with pytest.raises(ValueError, match="pulled at least once"):
            run(engine, config, profiles, realization=realization, budget_override=budget_override)
        return
    result = run(
        engine,
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
    if learns_throughout:
        assert outcome is None and summary.flags == ("continual-learning",)
        _check_round_order_sums(summary, records, profiles, config)
    elif budget >= config.horizon:
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

    if learns_throughout:
        return
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
