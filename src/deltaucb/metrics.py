"""Welfare, regret, revenue, and utility accounting.

These functions use the true click rates and valuations, so they belong to
the evaluation side only; the mechanism never sees them. Regret is counted
with a tolerance: allocating any agent whose welfare sits within ``delta``
of the best choice for its slot costs nothing, and only larger gaps accrue.
Tolerance regret accrues in exploration and exploitation rounds alike.

Runs do their accounting through ``InstanceTables``, built once per run:
``accrue`` sums count times an entry over arrays, adding in order
(``carried_sum``) as a Python loop would. The per-call functions below
define the same quantities one allocation at a time and serve as the
tables' test oracle. The run engine, ``mechanism.run_mechanism``, builds
every ``RunSummary``, and ``round_log`` every column of a run's
``RoundLog``, the running regret columns from the run's own tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import AgentProfile, ConfigError, Phase, RoundRecord

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
    """Tolerance regret, plain regret, and welfare summed over some rounds (none by default)."""

    delta: float = 0.0
    standard: float = 0.0
    welfare: float = 0.0


def carried_sum(carry: float, values) -> float:
    """carry plus the values in ravel order, added left to right (``np.cumsum`` adds in order)."""
    terms = np.r_[carry, np.ravel(values)]
    return float(np.cumsum(terms, out=terms)[-1])


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

    def accrue(self, counts, agents, slots, carry: Accrual = Accrual()) -> Accrual:
        """``carry`` plus count times entry over broadcast (count, agent, slot), in ravel order."""
        cell = (np.asarray(agents) - 1, np.asarray(slots) - 1)
        tables = (self.delta_gap, self.gap, self.welfare)
        return Accrual(*(carried_sum(c, counts * np.array(t)[cell]) for c, t in zip(carry, tables)))


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
    """One row per shown (round, slot), in (round, slot) order; the columns, in written order.

    Equal-length 1-D arrays: a row's payment is its slot's per-click price
    times its click, and ``t <= explore_until`` marks exploration. Logs
    compare by each column's dtype and bytes.
    """

    t: np.ndarray
    phase: np.ndarray
    slot: np.ndarray
    agent: np.ndarray
    click: np.ndarray
    payment: np.ndarray
    delta_regret_cum: np.ndarray
    regret_cum: np.ndarray
    revenue_cum: np.ndarray
    explore_until: int

    def __eq__(self, other):
        if not isinstance(other, RoundLog) or self.explore_until != other.explore_until:
            return False
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self)[:-1])
        return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in pairs)


def round_log(level: str, explore_until: int, grids, tables: InstanceTables) -> Optional[RoundLog]:
    """The rows of a run's round log that a ``rounds_log`` level keeps, with their running totals.

    ``grids()`` returns the run's agents, clicks and payments as (round,
    slot) arrays whose row r - 1 holds round r; level "none" never calls
    it, and "exploit-only" keeps the rounds after ``explore_until``. The
    running columns sum each kept row's tolerance gap and gap, read from the
    run's own ``tables``, and its payment from the first kept row, left to right.
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
    t, slot, agent, click, payment = (
        column[keep] for column in (t, slot, agents.ravel(), clicks.ravel(), payments.ravel())
    )
    cell = (agent - 1, slot - 1)
    phase = np.where(t <= explore_until, Phase.EXPLORATION.value, Phase.EXPLOITATION.value)
    gaps = [np.cumsum(np.array(gap)[cell]) for gap in (tables.delta_gap, tables.gap)]
    return RoundLog(t, phase, slot, agent, click, payment, *gaps, np.cumsum(payment), explore_until)


@dataclass(frozen=True)
class RunResult:
    """A run's summary plus, when requested, its outcome object and round log."""

    summary: RunSummary
    outcome: object = None
    log: Optional[RoundLog] = None
