"""The Δ-UCB engine: free rotated learning, then an allocation frozen for the remaining rounds.

For a budgeted number of free rounds, slot m of round t shows agent
(((t-1) mod K) + m - 1) mod K + 1, ignoring bids entirely, so over K
consecutive rounds every agent occupies every slot exactly once. A click
observed at slot m is folded into the agent's single learner entry as the
prominence-corrected sample click / prominence_m, and the confidence radius
is widened by 1 / min(prominence) to cover that sample range. With one slot
(prominences (1.0,)) this is plain round-robin learning with an unscaled
radius. At the end of the budget the ranking and each slot's per-click
price are fixed once: the rank-m agent takes slot m for every remaining
round. Indices never change after the budget.

A run is two steps: ``explore`` ends the free rounds in the horizon, reads
them once into a (round × slot) table of who was shown and clicked
(``free_rounds``), and ``learn`` folds it into a frozen learner (``Learned``,
shared by runs and checks; bids never enter), then ``decide(learner, bids)``
returns the ``Outcome``, reading the learner without changing it. Δ-UCB's
steps rank by ucb * bid (``declare``): ``declare_winner`` on one slot, with
the ``normalized_runner_up`` price (here), and the telescoping rule of
``mechanism_multi`` on several. ``run_mechanism`` takes a step and a budget
on the config's seeded realization (tests may pass their own), reading all
clicks of the free rounds and only the winners' after them. Learning, the
free rounds' accrual and utilities, the round log and the checks all read
the free rounds from the table; tests check it against ``iter_rounds``, the
round-by-round reference.

``MECHANISMS`` lists every mechanism once, by the config's ``mechanism``
name: one slot only or not, its budget rule and its declare-step factory.
Besides Δ-UCB it holds the clairvoyant allocator, the T^(2/3) variant and
plain UCB, which never declares and keeps its own loop in ``strategy_lab``.
``run(name, ...)`` runs a row; the CLI, the sweep and the checks read it.
"""

from __future__ import annotations

import math
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
    exploration_budget,
    validate_profiles,
)
from .environment import ClickRealization, draw_realization, realized_click
from .metrics import NO_ACCRUAL, SINGLE_SLOT, InstanceTables, RunResult, round_log, summarize


@dataclass(frozen=True)
class Outcome:
    """Score ranking and per-slot per-click prices fixed at the end of exploration."""

    ranking: tuple
    payments_per_click: tuple
    learner: LearnerState

    @property
    def winner(self) -> int:
        return self.ranking[0]

    @property
    def runner_up(self) -> Optional[int]:
        return self.ranking[1] if len(self.ranking) > 1 else None

    @property
    def payment_per_click(self) -> float:
        return self.payments_per_click[0]


class Learned(NamedTuple):
    """The free rounds 1..explore_until as a table, and the learner after them (or None)."""

    explore_until: int
    agents: np.ndarray
    clicks: np.ndarray
    learner: Optional[LearnerState]


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


def bid_vector(bids, config: AuctionConfig) -> np.ndarray:
    """A bid row as a float array, checked to hold one bid in [0, v_max] per agent."""
    arr = np.asarray(bids, dtype=float)
    if arr.shape != (config.num_agents,):
        raise ConfigError("bids must have one entry per agent")
    # written so that NaN fails the test too
    if not np.all((arr >= 0.0) & (arr <= config.v_max)):
        raise ConfigError("bid must lie in [0, v_max]")
    return arr


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
    state: LearnerState,
    realization: ClickRealization,
    t: int,
    config: AuctionConfig,
    budget: int,
) -> RoundRecord:
    """One free round: rotate M distinct agents through the slots and learn from each click."""
    explore_until = min(budget, config.horizon)
    if t > explore_until:
        raise ValueError(f"exploration is over after round {explore_until}")
    slots = range(1, config.num_slots + 1)
    allocation = {m: multi_exploration_allocation(t, m, config.num_agents) for m in slots}
    record = _play_round(realization, t, Phase.EXPLORATION, allocation, [0.0] * len(slots))
    for m, agent in allocation.items():
        state.record_pull(agent, record.clicks[agent] / config.prominences[m - 1])
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
    bids_arr = np.array([p.bid for p in profiles], float)
    if realization is None:
        realization = draw_realization(config, profiles)
    budget = exploration_budget(config) if budget_override is None else budget_override
    return profiles, bids_arr, realization, budget


def _fresh_learner(config: AuctionConfig) -> LearnerState:
    return LearnerState.fresh(
        config.num_agents, config.horizon, eps_scale=1.0 / config.prominences[-1]
    )


def learn(agents: np.ndarray, clicks: np.ndarray, config: AuctionConfig) -> LearnerState:
    """The frozen learner after a ``free_rounds`` table; bids never enter.

    Each agent's entry folds in its prominence-corrected samples in round
    order, the table's ravel order (a sequential sum: ``record_pull``'s bits).
    """
    state = _fresh_learner(config)
    samples = clicks / np.array(config.prominences)
    for agent in range(1, config.num_agents + 1):
        own = samples[agents == agent]
        if len(own):
            state.set_entry(agent, len(own), float(np.cumsum(own)[-1]))
    state.freeze()
    return state


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

    ``decide`` is the declare step, as in ``run_mechanism``. The
    generator's return value is the final learner state, so tests can
    compare it with the aggregate path's.
    """
    profiles, bids_arr, realization, budget = _prepare(
        config, profiles, realization, budget_override
    )
    explore_until = min(budget, config.horizon)
    state = _fresh_learner(config)
    for t in range(1, explore_until + 1):
        yield exploration_step(state, realization, t, config, budget)
    state.freeze()
    if budget < config.horizon:
        outcome = decide(state, bids_arr)
        for t in range(explore_until + 1, config.horizon + 1):
            yield exploitation_step(outcome, realization, t, config)
    return state


def _round_grids(realization, config, learned, outcome):
    """Agents, clicks and payments per (round, slot): the free rounds' table, then the ranking."""
    horizon, num_slots = config.horizon, config.num_slots
    explore_until = learned.explore_until
    agents = np.empty((horizon, num_slots), dtype=np.int64)
    clicks = np.empty((horizon, num_slots), dtype=np.uint8)
    payments = np.zeros((horizon, num_slots))
    agents[:explore_until], clicks[:explore_until] = learned.agents, learned.clicks
    if outcome is not None:
        for m, agent in enumerate(outcome.ranking[:num_slots], start=1):
            agents[explore_until:, m - 1] = agent
            clicks[explore_until:, m - 1] = realization.clicks(agent, m, explore_until, horizon)
        payments[explore_until:] = clicks[explore_until:] * outcome.payments_per_click
    return agents, clicks, payments


def run_mechanism(
    config: AuctionConfig,
    profiles: Sequence[AgentProfile],
    decide,
    realization: Optional[ClickRealization] = None,
    rounds_log: str = "none",
    budget_override: Optional[int] = None,
    mechanism_label: str = "delta-ucb",
) -> RunResult:
    """Run the mechanism and aggregate regret, revenue, welfare, and utilities.

    ``decide(learner, bids)`` is the declare step: after the free rounds it
    returns the ``Outcome`` the remaining rounds follow. Regret and welfare
    accrue as pull count times the per-(agent, slot) table entry, agent by
    agent.
    """
    profiles, bids_arr, realization, budget = _prepare(
        config, profiles, realization, budget_override
    )
    horizon = config.horizon
    tables = InstanceTables.build(profiles, config.delta, config.prominences)

    learned = explore(realization, config, budget)
    explore_until, free_agents, free_clicks, state = learned
    per_agent_utility = {}
    pulls = []
    for p in profiles:
        shown = free_agents == p.id
        counts = shown.sum(axis=0).tolist()
        pulls += [(count, p.id, m) for m, count in enumerate(counts, start=1)]
        per_agent_utility[p.id] = p.valuation * int(free_clicks[shown].sum())
    exploration = tables.accrue(pulls)

    outcome = None
    winners = ()
    flags = ()
    exploitation = NO_ACCRUAL
    total_revenue = 0.0
    if state is None:
        flags = ("exploration-only",)
    else:
        outcome = decide(state, bids_arr)
        winners = outcome.ranking[: config.num_slots]
        for m, agent in enumerate(winners, start=1):
            n_clicks = realization.click_count(agent, m, explore_until, horizon)
            price = outcome.payments_per_click[m - 1]
            total_revenue += price * n_clicks
            per_agent_utility[agent] += (profiles[agent - 1].valuation - price) * n_clicks
        exploitation = tables.accrue(
            (horizon - explore_until, agent, m) for m, agent in enumerate(winners, start=1)
        )

    log = round_log(
        rounds_log, explore_until, lambda: _round_grids(realization, config, learned, outcome)
    )
    summary = summarize(
        mechanism_label,
        config,
        seed=realization.seed,
        budget=budget,
        rounds_used=explore_until,
        exploration=exploration,
        exploitation=exploitation,
        revenue=total_revenue,
        utilities=per_agent_utility,
        winners=winners,
        flags=flags,
    )
    return RunResult(summary=summary, outcome=outcome, log=log)


def t23_budget(num_agents: int, horizon: int) -> int:
    """Free-round budget of the polynomial-exploration reference: ceil(K * T^(2/3))."""
    return math.ceil(num_agents * horizon ** (2.0 / 3.0))


def clairvoyant(config: AuctionConfig, profiles: Sequence[AgentProfile]):
    """The oracle's declare step: the true welfare ranking at price 0, whatever the bids."""
    ranking = InstanceTables.build(profiles, config.delta, config.prominences).ranking
    return lambda learner, bids: Outcome(ranking, (0.0,), learner)


def _telescoping_step(config: AuctionConfig, profiles: Sequence[AgentProfile]):
    """The multi-slot declare step: ``declare`` on the config's prominences with ``telescoping``."""
    from .mechanism_multi import telescoping
    return partial(declare, prominences=config.prominences, price_rule=telescoping)


class Mechanism(NamedTuple):
    """A row: one slot only?, ``budget(config)``, ``step(config, profiles) -> decide`` or None."""

    single_slot: bool
    budget: Callable
    step: Optional[Callable]


MECHANISMS = {
    "delta-ucb-single": Mechanism(True, exploration_budget, lambda c, p: declare_winner),
    "delta-ucb-multi": Mechanism(False, exploration_budget, _telescoping_step),
    "oracle": Mechanism(True, lambda c: 0, clairvoyant),
    "plain-ucb": Mechanism(True, lambda c: c.horizon, None),
    "explore-t23": Mechanism(
        True, lambda c: t23_budget(c.num_agents, c.horizon), lambda c, p: declare_winner
    ),
}


def _delta_ucb_for(num_slots: int) -> str:
    """The Δ-UCB a slot count runs: single-slot on one slot, multi-slot on several."""
    return "delta-ucb-single" if num_slots == 1 else "delta-ucb-multi"


def run(name: str, config: AuctionConfig, profiles: Sequence[AgentProfile], **options) -> RunResult:
    """Run the row ``name`` of ``MECHANISMS``, labelling its summary with the name.

    ``options`` are ``run_mechanism``'s (plain UCB's: ``realization`` and ``rounds_log``);
    a ``budget_override`` of None takes the row's budget.
    """
    row = MECHANISMS.get(name)
    if row is None:
        raise ConfigError(f"unknown mechanism: {name}")
    if row.single_slot and config.num_slots != 1:
        raise ConfigError(f"{name} is a single-slot mechanism: num_slots must be 1")
    if row.step is None:
        from .strategy_lab import _run_plain_ucb
        return _run_plain_ucb(config, profiles, name, row.budget(config), **options)
    if options.get("budget_override") is None:
        options["budget_override"] = row.budget(config)
    decide = row.step(config, profiles)
    return run_mechanism(config, profiles, decide, mechanism_label=name, **options)


def run_single_slot(config: AuctionConfig, profiles: Sequence[AgentProfile], **options):
    """Run the single-slot Δ-UCB: one winner, charged the normalized runner-up price."""
    return run("delta-ucb-single", config, profiles, **options)


def run_multi_slot(config: AuctionConfig, profiles: Sequence[AgentProfile], **options):
    """Run the multi-slot Δ-UCB: the top M scores take the slots at telescoping prices."""
    return run("delta-ucb-multi", config, profiles, **options)
