"""Counterfactual replay checks and reference mechanisms.

Truthfulness is checked the strong way: fix the click realization and the
other agents' bids, try one deviating bid per placement it can buy, and
demand that the truthful bid is at least as good in *every single round*,
not just in expectation. Because learning rounds ignore bids, the free
rounds' table and the learner after it (``shared_learner``, the engine's
``explore``) are shared across all counterfactuals, which is what makes
this replay exact; the checks read free-round utilities from the table.

The per-round checks are closed forms over click patterns. A committed
round's utility depends only on the agent's placement (slot and per-click
price, or not shown) and its click there, so each pattern of the clicks
involved is scored once, at the first round it occurs, instead of filling
a length-T utility vector per bid. ``per_round_utilities`` is that vector,
kept as the reference the checks agree with. A scenario's bids are ranked
and priced in one ``declare`` call. ``ClickRealization.first_rounds`` finds
the first rounds and, on a seeded realization, stops once every pattern of
positive probability has been seen: a check draws the free rounds (about
ln T) and a few committed windows per row, whatever T is. A possible
pattern that never occurs still scans to T, as does any matrix realization.

Also provides reference mechanisms for regret comparisons: a clairvoyant
allocator, a plain bid-weighted UCB learner with no payments, and a
variant of the main mechanism whose free-round budget grows like T^(2/3)
instead of log T. The clairvoyant allocator and the T^(2/3) variant run
on the engine in ``mechanism`` with their own declare step and budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    AgentProfile,
    AuctionConfig,
    BaselineKind,
    ConfigError,
    LearnerState,
    confidence_radius,
    exploration_budget,
    validate_profiles,
)
from .environment import ClickRealization
from .mechanism import Learned, Outcome, bid_vector, declare, declare_winner, free_rounds
from .mechanism import _fresh_learner, _prepare, explore, run_mechanism  # the engine's one way in
from .mechanism_multi import price_rule_for
from . import metrics
from .metrics import NO_ACCRUAL, InstanceTables, RunResult, summarize

DSIC_TOLERANCE = 1e-12


@dataclass(frozen=True)
class DeviationScenario:
    """One agent's counterfactual bid sweep against fixed competitors and randomness."""

    deviator: int
    bid_grid: tuple
    fixed_others: tuple
    realization: ClickRealization
    learned: Learned = field(repr=False, compare=False)


@dataclass(frozen=True)
class DsicReport:
    """Worst per-round gain any scenario bid achieved over the truthful bid.

    ``grid_size`` counts the scenario's bids, one per placement window.
    """

    deviator: int
    holds: bool
    worst_violation: float
    witness_round: Optional[int]
    witness_bid: Optional[float]
    grid_size: int


@dataclass(frozen=True)
class IrReport:
    """Smallest per-round utility any truthful agent ever received."""

    holds: bool
    worst_utility: float
    witness_agent: Optional[int]
    witness_round: Optional[int]


def per_round_utilities(
    config: AuctionConfig,
    profiles: Sequence[AgentProfile],
    realization: ClickRealization,
    outcome,
    agent: int,
    explore_until: int,
) -> np.ndarray:
    """Utility of one agent in every round, given a committed outcome.

    Exploration rounds are free, so utility there is just valuation times
    the own click whenever the rotation shows the agent; those rounds never
    depend on bids. Exploitation utility is (valuation - price) per click
    at the slot the outcome assigns, or zero if unallocated.
    """
    horizon = config.horizon
    valuation = profiles[agent - 1].valuation
    util = np.zeros(horizon)
    free_agents, free_clicks = free_rounds(realization, config, explore_until)
    util[:explore_until] = valuation * np.where(free_agents == agent, free_clicks, 0).max(axis=1)
    if outcome is None or explore_until >= horizon:
        return util

    rank = outcome.ranking.index(agent)
    if rank < config.num_slots:
        clicks = realization.clicks(agent, rank + 1, explore_until, horizon)
        util[explore_until:] = (valuation - outcome.payments_per_click[rank]) * clicks
    return util


def build_scenario(
    config: AuctionConfig,
    profiles: Sequence[AgentProfile],
    realization: ClickRealization,
    deviator: int,
    learned: Learned,
) -> DeviationScenario:
    """One bid in the middle of each placement window, in ascending order.

    The ranking is by ``ucb * bid`` and a slot's price reads only the
    scores ranked below it, so the deviator's bid decides only its
    placement: slot 1..M, or not shown. Placement windows lie between the
    pivot bids where the deviator's score ties one of the top M competitor
    scores, capped at v_max; a midpoint lies strictly inside its window, so
    no tie-break decides its placement, and an empty window is skipped.
    Without a committed learner the bids are (0.0,). ``learned`` is the
    realization's ``shared_learner``; the scenario keeps it.
    """
    profiles = validate_profiles(profiles, config)
    others = np.array([p.bid for p in profiles], float)
    bids = [0.0]
    learner = learned.learner
    if learner is not None:
        own = float(learner.ucb[deviator - 1])
        top = np.sort(np.delete(learner.ucb * others, deviator - 1))[-config.num_slots :]
        edges = [0.0, *np.minimum(top / own, config.v_max).tolist(), config.v_max]
        bids = [(lo + hi) / 2 for lo, hi in zip(edges, edges[1:]) if lo < hi]
    return DeviationScenario(
        deviator=deviator,
        bid_grid=tuple(bids),
        fixed_others=tuple(float(b) for b in others),
        realization=realization,
        learned=learned,
    )


def shared_learner(config: AuctionConfig, realization: ClickRealization) -> Learned:
    """The free rounds and the learner after them, shared by every check on the realization."""
    return explore(realization, config, exploration_budget(config))


def _placement(config, outcome, agent):
    """The agent's (slot, per-click price) under an outcome, or None when it is not shown."""
    if outcome is None:
        return None
    rank = outcome.ranking.index(agent)
    if rank >= config.num_slots:
        return None
    return rank + 1, outcome.payments_per_click[rank]


def _committed_utility(valuation, placement, clicks):
    """One committed round's utility: (valuation - price) * click at the slot, else 0.0.

    ``clicks`` maps slots to the round's click there. This is the
    expression the utility vectors evaluate, so the floats agree bit for
    bit, including the -0.0 of a price above the valuation.
    """
    if placement is None:
        return 0.0
    slot, price = placement
    return (valuation - price) * clicks[slot]


def _earliest(candidates, pick):
    """``pick`` (max or min) over (value, round) pairs; ties go to the earliest round."""
    return pick(sorted(candidates, key=lambda c: c[1]), key=lambda c: c[0])


def verify_dsic(
    config: AuctionConfig,
    profiles: Sequence[AgentProfile],
    scenario: DeviationScenario,
) -> DsicReport:
    """Check that no scenario bid ever beats the truthful bid in any round.

    Declares the ranking and prices on the scenario's shared learner with
    the deviator truthful and once per scenario bid, against the fixed
    competitor bids. Free rounds ignore bids, so their gain is 0.0. A
    committed round's gain depends only on the deviator's clicks at its
    deviated and its truthful slot; each pattern of those clicks is scored
    at its first round, once per deviated slot. The worst gain is the
    first-round maximum, and across the bids the first one strictly worse
    for truthfulness wins.
    """
    profiles = validate_profiles(profiles, config)
    deviator = scenario.deviator
    realization = scenario.realization
    truthful_value = profiles[deviator - 1].valuation

    truthful_bids = np.array(scenario.fixed_others, dtype=float)
    truthful_bids[deviator - 1] = truthful_value
    truthful_bids = bid_vector(truthful_bids, config)
    explore_until, _, _, learner = scenario.learned
    outcomes = [None] * (1 + len(scenario.bid_grid))
    if learner is not None:
        # the truthful row, then one row per scenario bid, ranked and priced in one call
        rows = np.tile(truthful_bids, (len(outcomes), 1))
        rows[1:, deviator - 1] = scenario.bid_grid
        outcomes = declare(learner, rows, config.prominences, price_rule_for(config.num_slots))
    truth = _placement(config, outcomes[0], deviator)

    patterns = {}  # per set of slots involved: the first round of each click pattern
    worst = -math.inf
    witness_round = None
    witness_bid = None
    for bid, outcome in zip(scenario.bid_grid, outcomes[1:]):
        placement = _placement(config, outcome, deviator)
        # the budget is at least one round, and a free round's gain is 0.0
        candidates = [(0.0, 1)]
        if learner is not None:
            slots = tuple(sorted({p[0] for p in (placement, truth) if p is not None}))
            if slots not in patterns:
                patterns[slots] = realization.first_rounds(
                    deviator, slots, explore_until, config.horizon
                )
            candidates += [
                (
                    _committed_utility(truthful_value, placement, clicks)
                    - _committed_utility(truthful_value, truth, clicks),
                    t,
                )
                for clicks, t in patterns[slots]
            ]
        gain, t = _earliest(candidates, max)
        if gain > worst:
            worst = float(gain)
            witness_round = t
            witness_bid = float(bid)
    return DsicReport(
        deviator=deviator,
        holds=worst <= DSIC_TOLERANCE,
        worst_violation=worst,
        witness_round=witness_round,
        witness_bid=witness_bid,
        grid_size=len(scenario.bid_grid),
    )


def verify_ir(
    config: AuctionConfig,
    profiles: Sequence[AgentProfile],
    realization: ClickRealization,
) -> IrReport:
    """Check every truthful agent's per-round utility is nonnegative, exactly.

    Free-round utilities are a vector of the shared table's rows. A committed
    agent's utility takes one value with a click and one without, scored at
    the first round of each; an unshown agent's is 0.0. Each agent's worst
    is its first-round minimum, and the first agent strictly worse wins.
    """
    profiles = validate_profiles(profiles, config)
    truthful = np.array([p.valuation for p in profiles])
    explore_until, agents, clicks, learner = shared_learner(config, realization)
    rule = price_rule_for(config.num_slots)
    outcome = None if learner is None else declare(learner, truthful, config.prominences, rule)

    worst = math.inf
    agent_hit = None
    round_hit = None
    for p in profiles:
        util = p.valuation * np.where(agents == p.id, clicks, 0).max(axis=1)
        idx = int(np.argmin(util))
        candidates = [(float(util[idx]), idx + 1)]
        if outcome is not None:
            placement = _placement(config, outcome, p.id)
            slots = () if placement is None else (placement[0],)
            scan = realization.first_rounds(p.id, slots, explore_until, config.horizon)
            candidates += [(_committed_utility(p.valuation, placement, c), t) for c, t in scan]
        utility, t = _earliest(candidates, min)
        if utility < worst:
            worst = float(utility)
            agent_hit = p.id
            round_hit = t
    return IrReport(
        holds=worst >= 0.0, worst_utility=worst, witness_agent=agent_hit, witness_round=round_hit
    )


def max_tolerance_width(learner: LearnerState, profiles: Sequence[AgentProfile]) -> float:
    """Largest 2 * radius * valuation across agents, recomputed from pull counts."""
    widest = 0.0
    for p in profiles:
        radius = confidence_radius(
            int(learner.pull_count[p.id - 1]), learner.horizon, learner.eps_scale
        )
        widest = max(widest, 2.0 * radius * p.valuation)
    return widest


def welfare_interval_violations(
    config: AuctionConfig,
    profiles: Sequence[AgentProfile],
    realization: ClickRealization,
) -> int:
    """Count (agent, round) pairs whose welfare interval misses the true welfare.

    For each round the interval in force is the one from the agent's most
    recent pull; after exploration the indices are frozen, so the final
    interval is counted once per remaining round.
    """
    profiles = validate_profiles(profiles, config)
    if config.num_slots != 1:
        raise ConfigError("interval coverage counting is defined on single-slot runs")
    horizon = config.horizon
    _, agents, clicks, _ = shared_learner(config, realization)
    total = 0
    for p in profiles:
        shown = agents[:, 0] == p.id
        rounds = np.flatnonzero(shown) + 1
        pulls = len(rounds)
        if pulls == 0:
            continue
        counts = np.arange(1, pulls + 1)
        means = np.cumsum(clicks[shown, 0], dtype=np.float64) / counts
        radii = np.sqrt(2.0 * math.log(horizon) / counts)
        low = (means - radii) * p.valuation
        high = (means + radii) * p.valuation
        target = metrics.welfare(p)
        violated = (target < low) | (target > high)
        spans = np.full(pulls, config.num_agents, dtype=np.int64)
        spans[-1] = horizon - rounds[-1] + 1
        total += int((violated * spans).sum())
    return total


def t23_budget(num_agents: int, horizon: int) -> int:
    """Free-round budget of the polynomial-exploration reference: ceil(K * T^(2/3))."""
    return math.ceil(num_agents * horizon ** (2.0 / 3.0))


def clairvoyant(config: AuctionConfig, profiles: Sequence[AgentProfile]):
    """The oracle's declare step: the true welfare ranking at price 0, whatever the bids."""
    ranking = InstanceTables.build(profiles, config.delta, config.prominences).ranking
    return lambda learner, bids: Outcome(ranking, (0.0,), learner)


def run_baseline(
    kind: BaselineKind,
    config: AuctionConfig,
    profiles: Sequence[AgentProfile],
    realization: Optional[ClickRealization] = None,
    rounds_log: str = "none",
) -> RunResult:
    """Run one of the reference mechanisms on the shared realization."""
    kind = BaselineKind(kind)
    if config.num_slots != 1:
        raise ConfigError("baselines are single-slot only")
    if kind is BaselineKind.PLAIN_UCB:
        return _run_plain_ucb(config, profiles, realization, rounds_log)
    if kind is BaselineKind.ORACLE_ALLOCATION:
        decide, budget = clairvoyant(config, profiles), 0
    else:
        decide, budget = declare_winner, t23_budget(config.num_agents, config.horizon)
    return run_mechanism(
        config,
        profiles,
        decide,
        realization=realization,
        rounds_log=rounds_log,
        budget_override=budget,
        mechanism_label=kind.value,
    )


def _run_plain_ucb(config, profiles, realization, rounds_log) -> RunResult:
    """Non-truthful reference: re-pick argmax ucb * bid every round, learn forever, charge nothing.

    The first K rounds show each agent once so every index is defined.
    """
    profiles, bids_arr, realization, _ = _prepare(config, profiles, realization, None)
    horizon = config.horizon
    num_agents = config.num_agents
    tables = InstanceTables.build(profiles, config.delta, config.prominences)

    state = _fresh_learner(config)
    per_agent_utility = {p.id: 0.0 for p in profiles}
    shown = np.empty((horizon, 1), dtype=np.int64)
    clicks = np.empty((horizon, 1), dtype=np.uint8)
    # the agent shown depends on every earlier click, so read every agent's whole row
    rows = [realization.clicks(agent, 1, 0, horizon) for agent in range(1, num_agents + 1)]
    for t in range(1, horizon + 1):
        if t <= num_agents:
            agent = t
        else:
            agent = int(np.argmax(state.ucb * bids_arr)) + 1
        click = int(rows[agent - 1][t - 1])
        state.record_pull(agent, float(click))
        per_agent_utility[agent] += profiles[agent - 1].valuation * click
        shown[t - 1], clicks[t - 1] = agent, click
    summary = summarize(
        "plain-ucb",
        config,
        seed=realization.seed,
        budget=horizon,
        rounds_used=horizon,
        exploration=tables.accrue((1, agent, 1) for agent in shown[:, 0].tolist()),
        exploitation=NO_ACCRUAL,
        revenue=0.0,
        utilities=per_agent_utility,
        winners=(),
        flags=("continual-learning",),
    )
    log = metrics.round_log(rounds_log, horizon, lambda: (shown, clicks, np.zeros((horizon, 1))))
    return RunResult(summary=summary, outcome=None, log=log)
