"""The run engine: free rotated learning, then stretches of fixed allocations to the horizon.

For a budgeted number of free rounds, slot m of round t shows agent
(((t-1) mod K) + m - 1) mod K + 1, ignoring bids entirely, so over K
consecutive rounds every agent occupies every slot exactly once. A click
observed at slot m adds the prominence-corrected sample click / prominence_m
to the agent's one sample sum, and the confidence radius is widened by
1 / min(prominence) to cover that sample range. With one slot
(prominences (1.0,)) this is plain round-robin learning with an unscaled
radius. At the end of the budget the ranking and each slot's per-click
price are fixed once: the rank-m agent takes slot m for every remaining
round. Indices never change after the budget.

A row's play, ``play(realization, config, budget, bids) -> Play``, returns
a run's free rounds and the stretches of one fixed allocation each after
them (``Segments``). ``explore`` ends the free rounds in the horizon, reads
them once into a (round × slot) table of who was shown and clicked
(``free_rounds``), and ``learn`` folds it into the learner, a read-only
value made once (``LearnerState.of``; ``Learned`` holds both, and bids never
enter). ``Declared(decide)`` plays ``decide(learner, bids)``'s ``Outcome``
in one stretch to T. Δ-UCB's steps rank by ucb * bid (``declare``):
``declare_winner`` on one slot, with the ``normalized_runner_up`` price, and
``declare`` with the ``telescoping`` price on several; the paper's two
versions differ only in this price rule. ``run_mechanism`` runs a play on
the config's seeded realization (tests may pass their own) and makes every
output from the table and the stretches; tests check it against
``iter_rounds``.

``MECHANISMS`` lists every mechanism once, by the config's ``mechanism``
name: one slot only or not, its budget rule (None: it learns in every
round) and its play factory. Besides Δ-UCB it holds the clairvoyant
allocator, the T^(2/3) variant and plain UCB (``plain_ucb``), whose rounds
after the first K are one-round stretches. ``run(name, ...)`` runs a row;
the CLI and the sweep read it, and the checks replay the declare step of
the row ``delta_ucb_for`` names.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    AgentProfile,
    AuctionConfig,
    ConfigError,
    LearnerState,
    Phase,
    RoundRecord,
    confidence_index,
    exploration_budget,
    validate_profiles,
)
from .environment import ClickRealization, draw_realization, realized_click
from .metrics import SINGLE_SLOT, Accrual, InstanceTables, RunResult, RunSummary, round_log
from .metrics import carried_sum

# stretches per block of a run's accounting: bounds its memory when each round is one (plain UCB)
_BLOCK = 65_536


@dataclass(frozen=True)
class Outcome:
    """Score ranking and per-slot per-click prices fixed at the end of exploration."""

    ranking: tuple
    payments_per_click: tuple
    learner: LearnerState

    def placement(self, agent: int) -> Optional[tuple]:
        """The agent's (slot, per-click price), or None when it is not shown; one price per slot."""
        rank = self.ranking.index(agent)
        if rank >= len(self.payments_per_click):
            return None
        return rank + 1, self.payments_per_click[rank]


class Learned(NamedTuple):
    """The free rounds 1..explore_until as a table, and the learner after them (or None)."""

    explore_until: int
    agents: np.ndarray
    clicks: np.ndarray
    learner: Optional[LearnerState]


class Segments(NamedTuple):
    """The rounds after the free ones: stretch i holds rounds start[i] + 1 .. start[i + 1] (or T),
    and per slot (column) who the slot shows, its per-click price and its clicks over them."""

    start: np.ndarray
    agents: np.ndarray
    prices: np.ndarray
    clicks: np.ndarray

    @classmethod
    def of(cls, start, agents, prices, clicks, num_slots: int) -> "Segments":
        """Stretches from sequences: one start each, and ``num_slots`` entries each in the rest."""
        grids = zip((agents, prices, clicks), (np.int64, float, np.int64))
        rows = [np.array(values, dtype).reshape(-1, num_slots) for values, dtype in grids]
        return cls(np.array(start, np.int64), *rows)


class Play(NamedTuple):
    """A run as played: the free rounds, the last learning round, the stretches after the free
    rounds, the ``Outcome`` committed to (or None) and the summary flags."""

    learned: Learned
    learn_until: int
    segments: Segments
    outcome: Optional[Outcome]
    flags: tuple


def multi_exploration_allocation(t, slot: int, num_agents: int):
    """Shifted rotation: slot m of round t shows agent (((t-1) mod K) + m - 1) mod K + 1.

    ``t`` may be an integer array of rounds; the result is then the array of agents.
    """
    if slot > num_agents:
        raise ValueError("slot index exceeds number of agents")
    return (((t - 1) % num_agents) + slot - 1) % num_agents + 1


def free_rounds(realization: ClickRealization, config: AuctionConfig, until: int):
    """Who each slot shows in the free rounds 1..until and their clicks, as until × M arrays.

    Row r holds round r + 1. Slot m shows agent a in the rows r with
    r ≡ (a - m) mod K, the rotation of ``multi_exploration_allocation``, so
    one strided slice of each (agent, slot) click window, drawn once, fills
    the agent's rows of the slot's column in both arrays. Agent ids take the
    narrowest unsigned type that holds K. Both arrays are read-only: runs
    and every counterfactual share them.
    """
    num_agents, num_slots = config.num_agents, config.num_slots
    agents = np.empty((until, num_slots), dtype=np.min_scalar_type(num_agents))
    clicks = np.empty((until, num_slots), dtype=np.uint8)
    for m in range(1, num_slots + 1):
        for agent in range(1, num_agents + 1):
            rows = slice((agent - m) % num_agents, None, num_agents)
            agents[rows, m - 1] = agent
            clicks[rows, m - 1] = realization.clicks(agent, m, 0, until)[rows]
    agents.flags.writeable = clicks.flags.writeable = False
    return agents, clicks


def normalized_runner_up(rankings, scores, ucb, prominences) -> np.ndarray:
    """Single-slot price: the runner-up's score divided by the winner's upper index.

    The division caps the price at the winner's own bid. With a single
    agent there is no competition and the price is zero.
    """
    winner_ucb = ucb[rankings[:, 0] - 1]
    # after one pull the index is at least its radius, hence > 0
    if not np.all(winner_ucb > 0.0):
        bad = float(winner_ucb[~(winner_ucb > 0.0)][0])
        raise ValueError(f"winner's upper confidence index must be positive, got {bad}")
    if rankings.shape[1] == 1:
        return np.zeros((len(rankings), 1))
    return np.take_along_axis(scores, rankings[:, 1:2] - 1, axis=1) / winner_ucb[:, None]


def multi_slot_payment(slot: int, ranking, prominences, scores):
    """Per-click price for a slot: telescoping prominence drops times the scores ranked below.

    Terms past the number of agents contribute nothing; the prominence
    below the last slot is zero. ``ranking`` and ``scores`` may also be
    matrices of rows, giving one price per row. The sum runs term by term
    from 0.0, so a row's price does not depend on the rows beside it.
    """
    num_slots = len(prominences)
    gamma = list(prominences) + [0.0]
    ranked = np.take_along_axis(np.asarray(scores, float), np.asarray(ranking) - 1, axis=-1)
    total = np.zeros(ranked.shape[:-1])
    for rank in range(slot + 1, min(num_slots + 1, ranked.shape[-1]) + 1):
        total = total + (gamma[rank - 2] - gamma[rank - 1]) * ranked[..., rank - 1]
    return total if total.ndim else float(total)


def telescoping(rankings, scores, ucb, prominences) -> np.ndarray:
    """Multi-slot price rule: ``multi_slot_payment`` for every slot of every row.

    Its shape differs from ``normalized_runner_up``: with M = 1 it charges
    the runner-up score without dividing by the winner's own index. So
    allocations coincide with the single-slot mechanism on shared
    randomness and payments do not; tests pin both facts.
    """
    slots = range(1, len(prominences) + 1)
    return np.stack([multi_slot_payment(m, rankings, prominences, scores) for m in slots], axis=1)


def declare(state: LearnerState, bids, prominences, price_rule):
    """Rank agents by ucb * bid (ties toward the lower id) and price every slot.

    ``bids`` is one bid vector, giving one ``Outcome``, or a matrix of bid
    rows, giving one per row; a run is the one-row case. Every row is ranked
    by one stable argsort, and ``price_rule(rankings, scores, ucb,
    prominences)`` maps the 1-based rankings and the scores, one row each,
    to one per-click price per slot and row. The learner is only read.
    """
    bids = np.asarray(bids, dtype=float)
    if np.any(state.pull_count == 0):
        raise ValueError("every agent must be pulled at least once before declaring an outcome")
    scores = state.ucb * np.atleast_2d(bids)
    rankings = np.argsort(-scores, axis=1, kind="stable") + 1
    prices = price_rule(rankings, scores, state.ucb, prominences)
    rows = zip(rankings.tolist(), prices.tolist())
    outcomes = [Outcome(tuple(ranking), tuple(row), state) for ranking, row in rows]
    return outcomes if bids.ndim == 2 else outcomes[0]


def declare_winner(state: LearnerState, bids) -> Outcome:
    """Single-slot declare: the top score wins and pays the normalized runner-up price."""
    return declare(state, bids, SINGLE_SLOT, normalized_runner_up)


def _play_round(realization, t, phase, allocation, prices) -> RoundRecord:
    """Show each slot's agent, observe its click, and charge the slot's price on a click."""
    clicks = {agent: realized_click(realization, agent, m, t) for m, agent in allocation.items()}
    payments = {agent: prices[m - 1] * clicks[agent] for m, agent in allocation.items()}
    return RoundRecord(t, phase, allocation, clicks, payments)


def exploration_step(
    pulls: tuple,
    realization: ClickRealization,
    t: int,
    config: AuctionConfig,
    budget: int,
) -> RoundRecord:
    """One free round: rotate M distinct agents through the slots and learn from each click.

    ``pulls`` is the (counts, sums) pair of per-agent lists; each shown agent's
    count gains one and its sum the prominence-corrected sample, as a float.
    """
    explore_until = min(budget, config.horizon)
    if t > explore_until:
        raise ValueError(f"exploration is over after round {explore_until}")
    slots = range(1, config.num_slots + 1)
    allocation = {m: multi_exploration_allocation(t, m, config.num_agents) for m in slots}
    record = _play_round(realization, t, Phase.EXPLORATION, allocation, [0.0] * len(slots))
    counts, sums = pulls
    for m, agent in allocation.items():
        counts[agent - 1] += 1
        sums[agent - 1] += record.clicks[agent] / config.prominences[m - 1]
    return record


def exploitation_step(
    outcome: Outcome,
    realization: ClickRealization,
    t: int,
    config: AuctionConfig,
) -> RoundRecord:
    """One committed round: slot m shows the rank-m agent, who pays its price only on a click."""
    allocation = {m: outcome.ranking[m - 1] for m in range(1, config.num_slots + 1)}
    prices = outcome.payments_per_click
    return _play_round(realization, t, Phase.EXPLOITATION, allocation, prices)


def _prepare(config, profiles, realization, budget_override):
    profiles = validate_profiles(profiles, config)
    if budget_override is not None and not (
        isinstance(budget_override, numbers.Integral) and budget_override >= 0
    ):
        raise ConfigError("budget_override: must be a non-negative integer")
    bids_arr = np.array([p.bid for p in profiles], float)
    if realization is None:
        realization = draw_realization(config, profiles)
    budget = exploration_budget(config) if budget_override is None else budget_override
    return profiles, bids_arr, realization, budget


def learn(agents: np.ndarray, clicks: np.ndarray, config: AuctionConfig) -> LearnerState:
    """The learner after a ``free_rounds`` table, one agent's samples at a time; bids never enter.

    Each agent's sum adds its prominence-corrected samples to 0.0 in round
    order, the table's ravel order: the sequential sum the reference makes.
    """
    prominences = np.broadcast_to(config.prominences, agents.shape)
    counts, sums = [], []
    for agent in range(1, config.num_agents + 1):
        shown = agents == agent
        pulled = clicks[shown] / prominences[shown]
        counts.append(len(pulled))
        sums.append(carried_sum(0.0, pulled))
    return LearnerState.of(counts, sums, config.horizon, 1.0 / config.prominences[-1])


def explore(realization: ClickRealization, config: AuctionConfig, budget: int) -> Learned:
    """The free rounds a budget leaves in the horizon, their table, and the learner after them."""
    explore_until = min(budget, config.horizon)
    agents, clicks = free_rounds(realization, config, explore_until)
    # nothing is declared when the free rounds fill T, so nothing is learned
    learner = None if budget >= config.horizon else learn(agents, clicks, config)
    return Learned(explore_until, agents, clicks, learner)


def iter_rounds(
    config: AuctionConfig,
    profiles: Sequence[AgentProfile],
    decide,
    realization: Optional[ClickRealization] = None,
    budget_override: Optional[int] = None,
) -> Iterator[RoundRecord]:
    """Replay the whole mechanism round by round (the tests' reference path).

    ``decide`` is the declare step, as in ``Declared``. The
    generator's return value is the final learner state, so tests can
    compare it with the aggregate path's.
    """
    profiles, bids_arr, realization, budget = _prepare(
        config, profiles, realization, budget_override
    )
    explore_until = min(budget, config.horizon)
    pulls = [0] * config.num_agents, [0.0] * config.num_agents
    for t in range(1, explore_until + 1):
        yield exploration_step(pulls, realization, t, config, budget)
    state = LearnerState.of(*pulls, config.horizon, 1.0 / config.prominences[-1])
    if budget < config.horizon:
        outcome = decide(state, bids_arr)
        for t in range(explore_until + 1, config.horizon + 1):
            yield exploitation_step(outcome, realization, t, config)
    return state


@dataclass(frozen=True)
class Declared:
    """A declaring row's play: the budget's free rounds, then one stretch to T in which the
    ranking of the declare step's ``decide(learner, bids)`` takes the slots at its prices."""

    decide: Callable

    def __call__(self, realization, config: AuctionConfig, budget: int, bids) -> Play:
        learned = explore(realization, config, budget)
        explore_until, num_slots = learned.explore_until, config.num_slots
        if learned.learner is None:
            no_stretches = Segments.of((), (), (), (), num_slots)
            return Play(learned, explore_until, no_stretches, None, ("exploration-only",))
        outcome = self.decide(learned.learner, bids)
        winners = outcome.ranking[:num_slots]
        clicks = [
            realization.click_count(a, m, explore_until, config.horizon)
            for m, a in enumerate(winners, start=1)
        ]
        prices = outcome.payments_per_click
        segments = Segments.of((explore_until,), winners, prices, clicks, num_slots)
        return Play(learned, explore_until, segments, outcome, ())


def plain_ucb(realization, config: AuctionConfig, budget: int, bids) -> Play:
    """Non-truthful reference: re-pick argmax ucb * bid every round, learn forever, charge nothing.

    The K free rounds define every index; each later round is a one-round
    stretch at price 0. Every round is a learning round, and the budget is
    not read.
    """
    horizon, num_agents = config.horizon, config.num_agents
    explore_until = min(num_agents, horizon)
    table = free_rounds(realization, config, explore_until)
    learner = learn(*table, config)
    counts, sums = learner.pull_count.tolist(), learner.sample_sum.tolist()
    ucb = learner.ucb.copy()
    start = np.arange(explore_until, horizon, dtype=np.min_scalar_type(horizon))
    agents = np.empty((len(start), 1), dtype=np.min_scalar_type(num_agents))
    clicks = np.empty((len(start), 1), dtype=np.uint8)
    # the agent shown depends on every earlier click, so read every agent's whole row
    rows = [realization.clicks(a, 1, explore_until, horizon) for a in range(1, num_agents + 1)]
    for i in range(len(start)):
        shown = int(np.argmax(ucb * bids))
        click = int(rows[shown][i])
        counts[shown] += 1
        sums[shown] += click
        ucb[shown] = confidence_index(counts[shown], sums[shown], horizon)[1]
        agents[i], clicks[i] = shown + 1, click
    segments = Segments(start, agents, np.zeros(agents.shape), clicks)
    learned = Learned(explore_until, *table, learner)
    return Play(learned, horizon, segments, None, ("continual-learning",))


def _round_grids(realization, config, learned, segments):
    """Agents, clicks and payments per (round, slot): the free rounds' table, then the stretches."""
    horizon, num_slots = config.horizon, config.num_slots
    explore_until = learned.explore_until
    agents = np.empty((horizon, num_slots), dtype=np.int64)
    clicks = np.empty((horizon, num_slots), dtype=np.uint8)
    payments = np.zeros((horizon, num_slots))
    agents[:explore_until], clicks[:explore_until] = learned.agents, learned.clicks
    lengths = np.diff(np.append(segments.start, horizon))
    agents[explore_until:] = np.repeat(segments.agents, lengths, axis=0)
    payments[explore_until:] = np.repeat(segments.prices, lengths, axis=0)
    for m in range(1, num_slots + 1):
        shown, clicked = agents[explore_until:, m - 1], clicks[explore_until:, m - 1]
        for agent in set(segments.agents[:, m - 1].tolist()):
            own = shown == agent
            clicked[own] = realization.clicks(agent, m, explore_until, horizon)[own]
    payments[explore_until:] *= clicks[explore_until:]
    return agents, clicks, payments


def run_mechanism(
    config: AuctionConfig,
    profiles: Sequence[AgentProfile],
    play,
    realization: Optional[ClickRealization] = None,
    rounds_log: str = "none",
    budget_override: Optional[int] = None,
    mechanism_label: str = "delta-ucb",
) -> RunResult:
    """Run a play and aggregate its regret, revenue, welfare and utilities into the summary.

    Regret and welfare accrue as count times the per-(agent, slot) table
    entry: the free rounds agent by agent, then the stretches in order, the
    ones starting before ``learn_until`` as exploration. Revenue and each
    agent's utility (from its free-round clicks on) add stretch by stretch,
    ``_BLOCK`` stretches at a time.
    """
    profiles, bids_arr, realization, budget = _prepare(
        config, profiles, realization, budget_override
    )
    horizon, num_agents, num_slots = config.horizon, config.num_agents, config.num_slots
    tables = InstanceTables.build(profiles, config.delta, config.prominences)
    learned, learn_until, segments, outcome, flags = play(realization, config, budget, bids_arr)

    pulls, utility = [], []
    for p in profiles:
        shown = learned.agents == p.id
        pulls.append(shown.sum(axis=0))
        utility.append(p.valuation * int(learned.clicks[shown].sum()))
    slots = np.arange(1, num_slots + 1)
    exploration = tables.accrue(np.array(pulls), np.arange(1, num_agents + 1)[:, None], slots)
    exploitation, revenue = Accrual(), 0.0
    for lo in range(0, len(segments.start), _BLOCK):
        # the block's starts, then the next block's first start or T
        edges = np.append(segments.start[lo : lo + _BLOCK + 1], horizon)[: _BLOCK + 1]
        count, early = np.diff(edges)[:, None], edges[:-1] < learn_until
        agent, price, clicks = (column[lo : lo + _BLOCK] for column in segments[1:])
        exploration = tables.accrue(count[early], agent[early], slots, exploration)
        exploitation = tables.accrue(count[~early], agent[~early], slots, exploitation)
        revenue = carried_sum(revenue, price * clicks)
        for a in set(agent.ravel().tolist()):
            own = agent == a
            gain = (profiles[a - 1].valuation - price[own]) * clicks[own]
            utility[a - 1] = carried_sum(utility[a - 1], gain)

    grids = partial(_round_grids, realization, config, learned, segments)
    log = round_log(rounds_log, learn_until, grids, tables)
    total_delta = exploration.delta + exploitation.delta
    summary = RunSummary(
        mechanism_label, realization.seed, num_agents, num_slots, horizon, config.delta,
        config.v_max, budget, learn_until,
        total_delta_regret=total_delta,
        exploration_delta_regret=exploration.delta,
        exploitation_delta_regret=exploitation.delta,
        total_standard_regret=exploration.standard + exploitation.standard,
        total_revenue=revenue,
        total_welfare=exploration.welfare + exploitation.welfare,
        delta_regret_over_logT=total_delta / math.log(horizon) if horizon > 1 else math.nan,
        winners=() if outcome is None else outcome.ranking[:num_slots],
        per_agent_utility={p.id: u for p, u in zip(profiles, utility)},
        flags=flags,
    )
    return RunResult(summary=summary, outcome=outcome, log=log)


def t23_budget(num_agents: int, horizon: int) -> int:
    """Free-round budget of the polynomial-exploration reference: ceil(K * T^(2/3))."""
    return math.ceil(num_agents * horizon ** (2.0 / 3.0))


def clairvoyant(config: AuctionConfig, profiles: Sequence[AgentProfile]) -> Declared:
    """The oracle's play: the true welfare ranking at price 0, whatever the bids."""
    ranking = InstanceTables.build(profiles, config.delta, config.prominences).ranking
    return Declared(lambda learner, bids: Outcome(ranking, (0.0,), learner))


class Mechanism(NamedTuple):
    """A row: one slot only?, ``budget(config)`` (None: learns in every round, takes no
    override, reports T), and ``step(config, profiles) -> play``."""

    single_slot: bool
    budget: Optional[Callable]
    step: Callable


MECHANISMS = {
    "delta-ucb-single": Mechanism(True, exploration_budget, lambda c, p: Declared(declare_winner)),
    "delta-ucb-multi": Mechanism(
        False,
        exploration_budget,
        lambda c, p: Declared(partial(declare, prominences=c.prominences, price_rule=telescoping)),
    ),
    "oracle": Mechanism(True, lambda c: 0, clairvoyant),
    "plain-ucb": Mechanism(True, None, lambda c, p: plain_ucb),
    "explore-t23": Mechanism(
        True, lambda c: t23_budget(c.num_agents, c.horizon), lambda c, p: Declared(declare_winner)
    ),
}


def delta_ucb_for(num_slots: int) -> str:
    """The Δ-UCB a slot count runs: single-slot on one slot, multi-slot on several."""
    return "delta-ucb-single" if num_slots == 1 else "delta-ucb-multi"


def run(name, config, profiles, realization=None, rounds_log="none", budget_override=None):
    """Run the row ``name`` of ``MECHANISMS``: its ``RunResult``, the summary labelled ``name``.

    The options are ``run_mechanism``'s; a ``budget_override`` of None takes
    the row's budget. Plain UCB learns in every round and takes none.
    """
    row = MECHANISMS.get(name)
    if row is None:
        raise ConfigError(f"unknown mechanism: {name}")
    if row.single_slot and config.num_slots != 1:
        raise ConfigError(f"{name} is a single-slot mechanism: num_slots must be 1")
    if budget_override is None:
        budget_override = config.horizon if row.budget is None else row.budget(config)
    elif row.budget is None:
        raise ConfigError(f"budget_override: {name} learns in every round and takes no budget")
    play = row.step(config, profiles)
    return run_mechanism(config, profiles, play, realization, rounds_log, budget_override, name)


def run_single_slot(config: AuctionConfig, profiles: Sequence[AgentProfile], **options):
    """Run the single-slot Δ-UCB: one winner, charged the normalized runner-up price."""
    return run("delta-ucb-single", config, profiles, **options)


def run_multi_slot(config: AuctionConfig, profiles: Sequence[AgentProfile], **options):
    """Run the multi-slot Δ-UCB: the top M scores take the slots at telescoping prices."""
    return run("delta-ucb-multi", config, profiles, **options)
