"""Shared domain types, configuration validation, and the exploration budget rule.

Everything downstream (environment, mechanisms, metrics, verification, CLI)
speaks in terms of the types defined here: agent profiles, the auction
configuration, the learner's confidence state, and per-round records.
A single run is sequential and owns its mutable state; replaying the same
seed and configuration must reproduce bit-identical records.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

MAX_SEED = 2**64 - 1


class ConfigError(ValueError):
    """A configuration or agent profile violates one of its invariants."""


class Phase(Enum):
    """Whether the mechanism is still learning (free rounds) or committed."""

    EXPLORATION = "exploration"
    EXPLOITATION = "exploitation"


class BaselineKind(Enum):
    """Reference mechanisms for regret comparisons (run by ``strategy_lab.run_baseline``)."""

    ORACLE_ALLOCATION = "oracle"
    PLAIN_UCB = "plain-ucb"
    EXPLORATION_SEPARATED_T23 = "explore-t23"


@dataclass(frozen=True)
class AgentProfile:
    """One advertiser: hidden click rate, private valuation, declared bid.

    The click rate and valuation are evaluation-side truth; the mechanism
    itself only ever sees the bid and the observed clicks. When no bid is
    given the agent bids truthfully.
    """

    id: int
    ctr: float
    valuation: float
    bid: Optional[float] = None

    def __post_init__(self):
        if self.bid is None:
            object.__setattr__(self, "bid", self.valuation)


@dataclass(frozen=True)
class AuctionConfig:
    """Run parameters: population size, horizon, tolerance, and slot layout.

    ``prominences`` gives the per-slot observation probabilities directly;
    alternatively ``lambdas`` gives the slot-to-next-slot view-through
    probabilities from which prominences are derived. Prominences win when
    both are supplied.
    """

    num_agents: int
    horizon: int
    delta: float
    num_slots: int = 1
    v_max: float = 1.0
    prominences: Optional[tuple] = None
    lambdas: Optional[tuple] = None
    seed: int = 0


def gammas_from_lambdas(lambdas: Sequence[float]) -> tuple:
    """Per-slot observation probabilities from the chain of view-through probabilities.

    The first slot is always observed (empty product); slot m multiplies in
    the first m-1 view-through terms.
    """
    gammas = [1.0]
    for lam in lambdas:
        if not 0.0 < lam <= 1.0:
            raise ConfigError("lambdas must lie in (0, 1]")
        gammas.append(gammas[-1] * float(lam))
    return tuple(gammas)


def validate_config(config: AuctionConfig) -> AuctionConfig:
    """Check every config invariant; returns the config with prominences resolved.

    Raises ConfigError naming the first violated field. For multi-slot runs
    the prominences are derived from lambdas when only those are given.
    """
    if int(config.num_agents) != config.num_agents or config.num_agents < 1:
        raise ConfigError("num_agents must be a positive integer")
    if int(config.num_slots) != config.num_slots or config.num_slots < 1:
        raise ConfigError("num_slots must be a positive integer")
    if config.num_slots > config.num_agents:
        raise ConfigError("num_slots exceeds num_agents")
    if int(config.horizon) != config.horizon or config.horizon < 1:
        raise ConfigError("horizon must be a positive integer")
    if not 0 < config.delta < math.inf:
        raise ConfigError("delta must be positive and finite")
    if not 0 < config.v_max < math.inf:
        raise ConfigError("v_max must be positive and finite")
    try:
        per_agent_pulls(config.v_max, config.delta, config.horizon)
    except (ArithmeticError, ValueError) as err:
        raise ConfigError("delta, v_max: 8 v_max^2 ln T / delta^2 is not finite") from err
    if not (0 <= config.seed <= MAX_SEED):
        raise ConfigError("seed must be an unsigned 64-bit integer")

    prominences = config.prominences
    if prominences is None:
        if config.lambdas is not None:
            derived = gammas_from_lambdas(config.lambdas)
            if len(derived) < config.num_slots:
                raise ConfigError("lambdas too short for num_slots")
            prominences = derived[: config.num_slots]
        elif config.num_slots == 1:
            prominences = (1.0,)
        else:
            raise ConfigError("prominences or lambdas required when num_slots > 1")
    prominences = tuple(float(g) for g in prominences)
    if len(prominences) != config.num_slots:
        raise ConfigError("prominences length must equal num_slots")
    if prominences[0] != 1.0:
        raise ConfigError("prominences must start at 1")
    for left, right in zip(prominences, prominences[1:]):
        if not (0.0 < right <= left):
            raise ConfigError("prominences must be positive and non-increasing")
    return replace(config, prominences=prominences)


def validate_profiles(profiles: Sequence[AgentProfile], config: AuctionConfig) -> list:
    """Check agent ids are 1..K in order and all rates/values are in range."""
    if len(profiles) != config.num_agents:
        raise ConfigError("expected exactly num_agents profiles")
    if [p.id for p in profiles] != list(range(1, config.num_agents + 1)):
        raise ConfigError("agent ids must be 1..num_agents in order")
    for p in profiles:
        if not 0.0 <= p.ctr <= 1.0:
            raise ConfigError(f"agent {p.id}: ctr must lie in [0, 1]")
        if not 0.0 <= p.valuation <= config.v_max:
            raise ConfigError(f"agent {p.id}: valuation must lie in [0, v_max]")
        if not 0.0 <= p.bid <= config.v_max:
            raise ConfigError(f"agent {p.id}: bid must lie in [0, v_max]")
    return list(profiles)


def per_agent_pulls(v_max: float, delta: float, horizon: float) -> int:
    """Free pulls per agent: ceil(8 v_max^2 ln T / delta^2), at least one.

    Rounding up keeps every agent's post-exploration confidence width
    strictly below the tolerance (2 * eps * v < delta), except at the
    measure-zero boundary where the raw value is already an integer.
    """
    raw = 8.0 * v_max * v_max * math.log(horizon) / (delta * delta)
    return max(1, math.ceil(raw))


def exploration_rounds(num_agents: int, v_max: float, delta: float, horizon: float) -> int:
    """Total free rounds: complete round-robin cycles of per-agent pulls.

    Using whole cycles (rather than a raw ceiling on the product) means no
    agent is left a pull short of the per-agent requirement, which the
    winner-selection guarantee needs for *every* agent.
    """
    return num_agents * per_agent_pulls(v_max, delta, horizon)


def exploration_budget(config: AuctionConfig) -> int:
    """Exploration budget for a validated config; runs are exploration-only when it reaches the horizon."""
    return exploration_rounds(config.num_agents, config.v_max, config.delta, config.horizon)


def confidence_radius(pull_count: int, horizon: float, scale: float = 1.0) -> float:
    """Half-width sqrt(2 ln T / n) of the confidence interval, optionally range-scaled."""
    if pull_count <= 0:
        raise ValueError("index undefined before first pull")
    return scale * math.sqrt(2.0 * math.log(horizon) / pull_count)


@dataclass
class LearnerState:
    """Per-agent empirical click rates, pull counts, and confidence indices.

    Indices are unclipped (the upper one may exceed 1, the lower may go
    negative). Once frozen, only ``round`` may change; any further pull is
    an error. ``eps_scale`` widens the radius when samples are corrected by
    a slot prominence and therefore range beyond [0, 1].
    """

    horizon: int
    eps_scale: float
    pull_count: np.ndarray
    sample_sum: np.ndarray
    empirical_ctr: np.ndarray
    ucb: np.ndarray
    lcb: np.ndarray
    round: int = 0
    phase: Phase = Phase.EXPLORATION

    @classmethod
    def fresh(cls, num_agents: int, horizon: int, eps_scale: float = 1.0) -> "LearnerState":
        return cls(
            horizon=horizon,
            eps_scale=eps_scale,
            pull_count=np.zeros(num_agents, dtype=np.int64),
            sample_sum=np.zeros(num_agents, dtype=np.float64),
            empirical_ctr=np.zeros(num_agents, dtype=np.float64),
            ucb=np.full(num_agents, np.nan),
            lcb=np.full(num_agents, np.nan),
        )

    @property
    def num_agents(self) -> int:
        return len(self.pull_count)

    def record_pull(self, agent: int, sample: float) -> None:
        """Fold one observed sample into the agent's statistics and refresh only its indices."""
        if self.phase is not Phase.EXPLORATION:
            raise RuntimeError("learning is frozen after exploration")
        i = agent - 1
        self.pull_count[i] += 1
        self.sample_sum[i] += sample
        self.empirical_ctr[i] = self.sample_sum[i] / self.pull_count[i]
        radius = confidence_radius(int(self.pull_count[i]), self.horizon, self.eps_scale)
        self.ucb[i] = self.empirical_ctr[i] + radius
        self.lcb[i] = self.empirical_ctr[i] - radius

    def freeze(self) -> None:
        """Stop learning: the indices stay as exploration left them."""
        self.phase = Phase.EXPLOITATION

    def copy(self) -> "LearnerState":
        return LearnerState(
            horizon=self.horizon,
            eps_scale=self.eps_scale,
            pull_count=self.pull_count.copy(),
            sample_sum=self.sample_sum.copy(),
            empirical_ctr=self.empirical_ctr.copy(),
            ucb=self.ucb.copy(),
            lcb=self.lcb.copy(),
            round=self.round,
            phase=self.phase,
        )

    def learning_bytes(self) -> bytes:
        """Serialization of the learned content only.

        Excludes the round counter and phase: those change with time, while
        the learned statistics must be a function of the realization alone.
        """
        head = struct.pack("<qd", int(self.horizon), float(self.eps_scale))
        return (
            head
            + self.pull_count.tobytes()
            + self.sample_sum.tobytes()
            + self.empirical_ctr.tobytes()
            + self.ucb.tobytes()
            + self.lcb.tobytes()
        )

    def to_bytes(self) -> bytes:
        """Canonical byte serialization, used for exact state comparisons."""
        head = struct.pack("<qB", int(self.round), 1 if self.phase is Phase.EXPLOITATION else 0)
        return head + self.learning_bytes()


@dataclass(frozen=True)
class RoundRecord:
    """What one round did: allocation, observed clicks, and payments.

    ``allocation`` maps slot -> agent id; ``clicks`` and ``payments`` carry
    entries for allocated agents only (everyone else implicitly got no
    click and pays nothing).
    """

    round: int
    phase: Phase
    allocation: dict
    clicks: dict
    payments: dict

    def payment_of(self, agent: int) -> float:
        return self.payments.get(agent, 0.0)

    def click_of(self, agent: int) -> int:
        return self.clicks.get(agent, 0)
