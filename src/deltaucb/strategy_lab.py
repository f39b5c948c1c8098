"""Counterfactual replay checks of Δ-UCB's truthfulness, rationality and intervals.

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
the first rounds and stops once every pattern that may occur (on a seeded
realization, of positive probability) has been seen: a check draws the free
rounds (about ln T) and a few committed windows per row, whatever T is. A
possible pattern that never occurs still scans to T.

The checks replay the declare step of the Δ-UCB row of
``mechanism.MECHANISMS`` for the slot count (``delta_ucb_for``); every
mechanism is defined in ``mechanism``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    AgentProfile,
    AuctionConfig,
    ConfigError,
    LearnerState,
    confidence_index,
    confidence_radius,
    validate_profiles,
)
from .environment import ClickRealization
from .mechanism import MECHANISMS, Learned, delta_ucb_for, explore, free_rounds
from . import metrics

DSIC_TOLERANCE = 1e-12


@dataclass(frozen=True)
class DeviationScenario:
    """One agent's counterfactual bid sweep against fixed randomness; the profiles bid the rest."""

    deviator: int
    bid_grid: tuple
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


def _check_deviator(config: AuctionConfig, deviator: int) -> None:
    if deviator not in range(1, config.num_agents + 1):
        raise ConfigError(f"deviator: must be an agent id in 1..{config.num_agents}")


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
    realization's ``shared_learner``; the scenario keeps it. A deviator
    outside 1..K is a ``ConfigError``.
    """
    profiles = validate_profiles(profiles, config)
    _check_deviator(config, deviator)
    bids = [0.0]
    learner = learned.learner
    if learner is not None:
        own = float(learner.ucb[deviator - 1])
        scores = learner.ucb * np.array([p.bid for p in profiles], float)
        top = np.sort(np.delete(scores, deviator - 1))[-config.num_slots :]
        edges = [0.0, *np.minimum(top / own, config.v_max).tolist(), config.v_max]
        bids = [(lo + hi) / 2 for lo, hi in zip(edges, edges[1:]) if lo < hi]
    return DeviationScenario(deviator, tuple(bids), realization, learned)


def shared_learner(config: AuctionConfig, realization: ClickRealization) -> Learned:
    """The free rounds under the replayed Δ-UCB row's budget and the learner after them."""
    return explore(realization, config, MECHANISMS[delta_ucb_for(config.num_slots)].budget(config))


def _replayed_step(config: AuctionConfig, profiles: Sequence[AgentProfile]):
    """The declare step of the Δ-UCB the checks replay: the slot count's row of the table."""
    return MECHANISMS[delta_ucb_for(config.num_slots)].step(config, profiles).decide


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
    the deviator truthful and once per scenario bid, against the profiles'
    other bids. Free rounds ignore bids, so their gain is 0.0. A
    committed round's gain depends only on the deviator's clicks at its
    deviated and its truthful slot; each pattern of those clicks is scored
    at its first round, once per deviated slot. The worst gain is the
    first-round maximum, and across the bids the first one strictly worse
    for truthfulness wins. A deviator outside 1..K, an empty bid grid or a
    bid outside [0, v_max] is a ``ConfigError``.
    """
    profiles = validate_profiles(profiles, config)
    deviator = scenario.deviator
    _check_deviator(config, deviator)
    grid = np.asarray(scenario.bid_grid, dtype=float)
    # written so that NaN fails the test too
    if grid.size == 0 or not np.all((grid >= 0.0) & (grid <= config.v_max)):
        raise ConfigError("bid_grid: must hold one or more bids, each in [0, v_max]")
    realization = scenario.realization
    truthful_value = profiles[deviator - 1].valuation
    explore_until, _, _, learner = scenario.learned
    if learner is not None:
        # the truthful row, then one row per scenario bid, ranked and priced in one call
        rows = np.tile([p.bid for p in profiles], (1 + len(grid), 1))
        rows[:, deviator - 1] = [truthful_value, *grid]
        outcomes = _replayed_step(config, profiles)(learner, rows)
        truth, *deviated = [outcome.placement(deviator) for outcome in outcomes]

    patterns = {}  # per set of slots involved: the first round of each click pattern
    worst = -math.inf
    witness_round = None
    witness_bid = None
    for k, bid in enumerate(grid.tolist()):
        # the budget is at least one round, and a free round's gain is 0.0
        candidates = [(0.0, 1)]
        if learner is not None:
            placement = deviated[k]
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
            witness_bid = bid
    return DsicReport(
        deviator=deviator,
        holds=worst <= DSIC_TOLERANCE,
        worst_violation=worst,
        witness_round=witness_round,
        witness_bid=witness_bid,
        grid_size=len(grid),
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
    outcome = None if learner is None else _replayed_step(config, profiles)(learner, truthful)

    worst = math.inf
    agent_hit = None
    round_hit = None
    for p in profiles:
        util = p.valuation * np.where(agents == p.id, clicks, 0).max(axis=1)
        idx = int(np.argmin(util))
        candidates = [(float(util[idx]), idx + 1)]
        if outcome is not None:
            placement = outcome.placement(p.id)
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
        if len(rounds) == 0:
            continue
        sums = np.cumsum(clicks[shown, 0], dtype=np.float64).tolist()
        # each pull's interval holds for K rounds, the last one's up to the horizon
        spans = [config.num_agents] * (len(rounds) - 1) + [horizon - int(rounds[-1]) + 1]
        target = metrics.welfare(p)
        for count, (sample_sum, span) in enumerate(zip(sums, spans), start=1):
            _, high, low = confidence_index(count, sample_sum, horizon)
            if target < low * p.valuation or target > high * p.valuation:
                total += span
    return total
