"""Welfare, regret, revenue, and utility accounting.

These functions use the true click rates and valuations, so they belong to
the evaluation side only; the mechanism never sees them. Regret is counted
with a tolerance: allocating any agent whose welfare sits within ``delta``
of the best choice for its slot costs nothing, and only larger gaps accrue.
Tolerance regret accrues in exploration and exploitation rounds alike.

Runs do their accounting through ``InstanceTables``, built once per run;
the per-call functions below define the same quantities one allocation at a
time and serve as the tables' test oracle. A run's round log is one
``RoundLog`` of event arrays, whichever mechanism built it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import AgentProfile, AuctionConfig, ConfigError, Phase, RoundRecord

SINGLE_SLOT = (1.0,)
ROUNDS_LOG_LEVELS = ("none", "all", "exploit-only")


def welfare(profile: AgentProfile) -> float:
    """Expected per-impression value of showing this agent: ctr * valuation."""
    return profile.ctr * profile.valuation


def welfare_at_slot(profile: AgentProfile, slot: int, prominences: Sequence[float]) -> float:
    """Slot-discounted welfare: prominence_m * ctr * valuation."""
    return prominences[slot - 1] * welfare(profile)


def welfare_ranking(profiles: Sequence[AgentProfile]) -> list:
    """Agent ids ordered by true welfare, best first; ties break toward the lower id."""
    return [p.id for p in sorted(profiles, key=lambda p: (-welfare(p), p.id))]


def delta_set_for_slot(
    profiles: Sequence[AgentProfile], delta: float, slot: int, prominences: Sequence[float]
) -> set:
    """Agents within tolerance of the slot's ideal occupant (the slot-th best agent)."""
    ranking = welfare_ranking(profiles)
    ideal = profiles[ranking[slot - 1] - 1]
    ideal_welfare = welfare_at_slot(ideal, slot, prominences)
    return {
        p.id for p in profiles if ideal_welfare - welfare_at_slot(p, slot, prominences) < delta
    }


def delta_regret_increment(
    allocation: dict,
    profiles: Sequence[AgentProfile],
    delta: float,
    prominences: Optional[Sequence[float]] = None,
) -> float:
    """Tolerance regret of one round's allocation (sums over slots for multi-slot)."""
    prominences = SINGLE_SLOT if prominences is None else prominences
    ranking = welfare_ranking(profiles)
    total = 0.0
    for slot, agent in allocation.items():
        members = delta_set_for_slot(profiles, delta, slot, prominences)
        if agent not in members:
            ideal = profiles[ranking[slot - 1] - 1]
            gap = welfare_at_slot(ideal, slot, prominences) - welfare_at_slot(
                profiles[agent - 1], slot, prominences
            )
            total += gap
    return total


def standard_regret_increment(
    allocation: dict,
    profiles: Sequence[AgentProfile],
    prominences: Optional[Sequence[float]] = None,
) -> float:
    """Plain welfare regret of one round's allocation, with no tolerance."""
    prominences = SINGLE_SLOT if prominences is None else prominences
    ranking = welfare_ranking(profiles)
    total = 0.0
    for slot, agent in allocation.items():
        ideal = profiles[ranking[slot - 1] - 1]
        total += welfare_at_slot(ideal, slot, prominences) - welfare_at_slot(
            profiles[agent - 1], slot, prominences
        )
    return total


def agent_utility(record: RoundRecord, agent: int, valuation: float) -> float:
    """Per-round utility: valuation minus payment, only when allocated and clicked."""
    if agent not in record.allocation.values():
        return 0.0
    if not record.click_of(agent):
        return 0.0
    return valuation - record.payment_of(agent)


class Accrual(NamedTuple):
    """Tolerance regret, plain regret, and welfare summed over some rounds."""

    delta: float
    standard: float
    welfare: float


NO_ACCRUAL = Accrual(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class InstanceTables:
    """Per-(agent, slot) welfare, regret gap, and tolerated-set membership of one instance.

    Row a-1, column m-1 describes agent a shown at slot m. ``gap`` is the
    slot's ideal welfare (its m-th best agent's) minus the agent's;
    ``delta_gap`` is that gap where the agent is outside the slot's
    tolerated set and 0.0 inside it. Entries are Python floats, computed
    with the same operations as the per-call functions, so lookups match
    them bit for bit.
    """

    ranking: tuple
    welfare: list
    gap: list
    delta_gap: list
    member: list

    @classmethod
    def build(
        cls, profiles: Sequence[AgentProfile], delta: float, prominences: Sequence[float]
    ) -> "InstanceTables":
        welfares = np.array([welfare(p) for p in profiles])
        order = np.argsort(-welfares, kind="stable")
        slot_welfare = welfares[:, None] * np.array(prominences, dtype=float)[None, :]
        ideal = slot_welfare[order[: len(prominences)], np.arange(len(prominences))]
        gap = ideal[None, :] - slot_welfare
        member = gap < delta
        return cls(
            ranking=tuple(int(i) + 1 for i in order),
            welfare=slot_welfare.tolist(),
            gap=gap.tolist(),
            delta_gap=np.where(member, 0.0, gap).tolist(),
            member=member.tolist(),
        )

    def accrue(self, counts) -> Accrual:
        """Sum count times the table entry over (count, agent, slot) triples, in order, from 0.0."""
        delta = standard = total_welfare = 0.0
        for count, agent, slot in counts:
            delta += count * self.delta_gap[agent - 1][slot - 1]
            standard += count * self.gap[agent - 1][slot - 1]
            total_welfare += count * self.welfare[agent - 1][slot - 1]
        return Accrual(delta, standard, total_welfare)


@dataclass(frozen=True)
class RunSummary:
    """Aggregates of one seeded run, in the summary table's column order.

    ``delta_regret_over_logT`` is derived (NaN at T = 1, where ln T = 0), so
    equality ignores it.
    """

    mechanism: str
    seed: int
    num_agents: int
    num_slots: int
    horizon: int
    delta: float
    v_max: float
    exploration_budget: int
    exploration_rounds_used: int
    total_delta_regret: float
    exploration_delta_regret: float
    exploitation_delta_regret: float
    total_standard_regret: float
    total_revenue: float
    total_welfare: float
    delta_regret_over_logT: float = field(compare=False)
    winners: tuple
    per_agent_utility: dict
    flags: tuple = ()


@dataclass(frozen=True)
class RoundLog:
    """One row per shown (round, slot), in (round, slot) order.

    ``t``, ``slot``, ``agent``, ``click`` and ``payment`` are equal-length
    1-D arrays; a row's payment is its slot's per-click price times its
    click. Rows with ``t <= explore_until`` are exploration rounds.
    """

    t: np.ndarray
    slot: np.ndarray
    agent: np.ndarray
    click: np.ndarray
    payment: np.ndarray
    explore_until: int

    @property
    def phase(self) -> np.ndarray:
        """Each row's phase label: exploration up to ``explore_until``, exploitation after."""
        labels = (Phase.EXPLORATION.value, Phase.EXPLOITATION.value)
        return np.where(self.t <= self.explore_until, *labels)


def round_log(level: str, explore_until: int, grids) -> Optional[RoundLog]:
    """The rows of a run's round log that a ``rounds_log`` level keeps.

    ``grids()`` returns the run's agents, clicks and payments as (round,
    slot) arrays whose row r - 1 holds round r; level "none" never calls
    it, and "exploit-only" keeps the rounds after ``explore_until``.
    """
    if level not in ROUNDS_LOG_LEVELS:
        raise ConfigError(f"rounds_log must be one of {ROUNDS_LOG_LEVELS}")
    if level == "none":
        return None
    agents, clicks, payments = grids()
    rounds, slots = agents.shape
    t = np.repeat(np.arange(1, rounds + 1), slots)
    slot = np.tile(np.arange(1, slots + 1), rounds)
    keep = t > explore_until if level == "exploit-only" else slice(None)
    columns = (t, slot, agents.ravel(), clicks.ravel(), payments.ravel())
    return RoundLog(*(column[keep] for column in columns), explore_until)


@dataclass(frozen=True)
class RunResult:
    """A run's summary plus, when requested, its outcome object and round log."""

    summary: RunSummary
    outcome: object = None
    log: Optional[RoundLog] = None


def summarize(
    mechanism: str,
    config: AuctionConfig,
    *,
    seed: int,
    budget: int,
    rounds_used: int,
    exploration: Accrual,
    exploitation: Accrual,
    revenue: float,
    utilities: dict,
    winners: tuple,
    flags: tuple,
) -> RunSummary:
    """A run's summary from its config and what accrued in each phase."""
    total_delta = exploration.delta + exploitation.delta
    return RunSummary(
        mechanism=mechanism,
        seed=seed,
        num_agents=config.num_agents,
        num_slots=config.num_slots,
        horizon=config.horizon,
        delta=config.delta,
        v_max=config.v_max,
        exploration_budget=budget,
        exploration_rounds_used=rounds_used,
        total_delta_regret=total_delta,
        exploration_delta_regret=exploration.delta,
        exploitation_delta_regret=exploitation.delta,
        total_standard_regret=exploration.standard + exploitation.standard,
        total_revenue=revenue,
        total_welfare=exploration.welfare + exploitation.welfare,
        delta_regret_over_logT=total_delta / math.log(config.horizon)
        if config.horizon > 1
        else float("nan"),
        winners=winners,
        per_agent_utility=utilities,
        flags=flags,
    )
