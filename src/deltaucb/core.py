"""Shared domain types, configuration validation, and the exploration budget rule.

Everything downstream (environment, mechanisms, metrics, verification, CLI)
speaks in terms of the types defined here: agent profiles, the auction
configuration, the learner's confidence state (a value made once from pull
counts and sample sums by one index rule, ``confidence_index``), and per-round
records (the mechanisms are listed in ``mechanism.MECHANISMS``). Replaying the
same seed and configuration must reproduce bit-identical records.
"""

from __future__ import annotations

import math
import numbers
import operator
import struct
from dataclasses import dataclass
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

    ``prominences`` gives the per-slot observation probabilities, (1.0,)
    by default on one slot; ``gammas_from_lambdas`` derives them from a
    chain of view-through probabilities.

    Construction checks every invariant, so ``dataclasses.replace`` checks
    again: a ConfigError names the first violated field.
    """

    num_agents: int
    horizon: int
    delta: float
    num_slots: int = 1
    v_max: float = 1.0
    prominences: Optional[tuple] = None
    seed: int = 0

    def __post_init__(self):
        # Python and numpy integers are stored as int; floats, even 2.0, are rejected
        for name in ("num_agents", "num_slots", "horizon", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ConfigError(f"{name} must be an integer") from None
        if self.num_agents < 1:
            raise ConfigError("num_agents must be a positive integer")
        if self.num_slots < 1:
            raise ConfigError("num_slots must be a positive integer")
        if self.num_slots > self.num_agents:
            raise ConfigError("num_slots exceeds num_agents")
        if self.horizon < 1:
            raise ConfigError("horizon must be a positive integer")
        for name in ("delta", "v_max"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ConfigError(f"{name} must be a real number")
        if not 0 < self.delta < math.inf:
            raise ConfigError("delta must be positive and finite")
        if not 0 < self.v_max < math.inf:
            raise ConfigError("v_max must be positive and finite")
        try:
            per_agent_pulls(self.v_max, self.delta, self.horizon)
        except (ArithmeticError, ValueError) as err:
            raise ConfigError("delta, v_max: 8 v_max^2 ln T / delta^2 is not finite") from err
        if not (0 <= self.seed <= MAX_SEED):
            raise ConfigError("seed must be an unsigned 64-bit integer")

        prominences = self.prominences
        if prominences is None:
            if self.num_slots > 1:
                raise ConfigError("prominences required when num_slots > 1")
            prominences = (1.0,)
        prominences = _real_tuple("prominences", prominences)
        if len(prominences) != self.num_slots:
            raise ConfigError("prominences length must equal num_slots")
        if prominences[0] != 1.0:
            raise ConfigError("prominences must start at 1")
        for left, right in zip(prominences, prominences[1:]):
            if not (0.0 < right <= left):
                raise ConfigError("prominences must be positive and non-increasing")
        # bounds every index, price and total: each sample is at most 1 / gamma_M
        bound = self.num_slots * self.v_max * (1.0 + math.sqrt(2.0 * math.log(self.horizon)))
        try:
            finite = math.isfinite(self.horizon * bound / prominences[-1])
        except OverflowError:  # a horizon past the float range
            finite = False
        if not finite:
            raise ConfigError("prominences: T M v_max (1 + sqrt(2 ln T)) / gamma_M is not finite")
        object.__setattr__(self, "prominences", prominences)


def _real_tuple(name: str, values) -> tuple:
    """A sequence of real numbers as a tuple of floats; a string or a bare number is rejected."""
    try:
        if not isinstance(values, (str, bytes)):
            items = tuple(values)
            if all(isinstance(v, numbers.Real) for v in items):
                return tuple(float(v) for v in items)
    except (TypeError, OverflowError):  # not iterable, or an integer past the float range
        pass
    raise ConfigError(f"{name} must be a sequence of real numbers")


def gammas_from_lambdas(lambdas: Sequence[float]) -> tuple:
    """Per-slot observation probabilities from the chain of view-through probabilities.

    The first slot is always observed (empty product); slot m multiplies in
    the first m-1 view-through terms.
    """
    gammas = [1.0]
    for lam in _real_tuple("lambdas", lambdas):
        if not 0.0 < lam <= 1.0:
            raise ConfigError("lambdas must lie in (0, 1]")
        gammas.append(gammas[-1] * lam)
    return tuple(gammas)


def validate_profiles(profiles: Sequence[AgentProfile], config: AuctionConfig) -> list:
    """Check agent ids are the integers 1..K in order and all rates/values are in range."""
    if len(profiles) != config.num_agents:
        raise ConfigError("expected exactly num_agents profiles")
    for p in profiles:
        if not isinstance(p.id, numbers.Integral):
            raise ConfigError(f"agent {p.id!r}: id must be an integer")
    if [p.id for p in profiles] != list(range(1, config.num_agents + 1)):
        raise ConfigError("agent ids must be 1..num_agents in order")
    for p in profiles:
        for name, high, bound in (
            ("ctr", 1.0, "1"),
            ("valuation", config.v_max, "v_max"),
            ("bid", config.v_max, "v_max"),
        ):
            value = getattr(p, name)
            if not isinstance(value, numbers.Real):
                raise ConfigError(f"agent {p.id}: {name} must be a real number")
            if not 0.0 <= value <= high:
                raise ConfigError(f"agent {p.id}: {name} must lie in [0, {bound}]")
    return list(profiles)


def per_agent_pulls(v_max: float, delta: float, horizon: float) -> int:
    """Free pulls per agent: ceil(8 v_max^2 ln T / delta^2), at least one.

    Rounding up keeps every agent's post-exploration confidence width
    strictly below the tolerance (2 * eps * v < delta), except at the
    measure-zero boundary where the raw value is already an integer.
    """
    raw = 8.0 * v_max * v_max * math.log(horizon) / (delta * delta)
    return max(1, math.ceil(raw))


def exploration_budget(config: AuctionConfig) -> int:
    """Total free rounds: complete round-robin cycles of per-agent pulls.

    Using whole cycles (rather than a raw ceiling on the product) means no
    agent is left a pull short of the per-agent requirement, which the
    winner-selection guarantee needs for *every* agent. Runs are
    exploration-only when the budget reaches the horizon.
    """
    return config.num_agents * per_agent_pulls(config.v_max, config.delta, config.horizon)


def confidence_radius(pull_count: int, horizon: float, scale: float = 1.0) -> float:
    """Half-width sqrt(2 ln T / n) of the confidence interval, optionally range-scaled."""
    if pull_count <= 0:
        raise ValueError("index undefined before first pull")
    return scale * math.sqrt(2.0 * math.log(horizon) / pull_count)


def confidence_index(count: int, total: float, horizon: float, scale: float = 1.0) -> tuple:
    """The index rule: an agent's mean total / count, and mean +- radius, as floats."""
    radius = confidence_radius(count, horizon, scale)
    mean = total / count
    return mean, mean + radius, mean - radius


@dataclass(frozen=True)
class LearnerState:
    """Per-agent empirical click rates, pull counts, and confidence indices.

    A value, made once by ``of`` from the pull counts and sample sums; its
    arrays are read-only. Indices are unclipped (the upper one may exceed 1,
    the lower may go negative). ``eps_scale`` widens the radius when samples
    are corrected by a slot prominence and therefore range beyond [0, 1].
    """

    horizon: int
    eps_scale: float
    pull_count: np.ndarray
    sample_sum: np.ndarray
    empirical_ctr: np.ndarray
    ucb: np.ndarray
    lcb: np.ndarray

    @classmethod
    def of(cls, counts, sums, horizon: int, eps_scale: float = 1.0) -> "LearnerState":
        """Each agent's ``confidence_index``; an agent never pulled keeps mean 0.0 and NaN indices."""
        counts = np.array(counts, dtype=np.int64)
        sums = np.array(sums, dtype=np.float64)
        if counts.ndim != 1 or counts.shape != sums.shape:
            raise ValueError(f"counts {counts.shape} and sums {sums.shape} must be 1-D, one length")
        means = np.zeros(len(counts))
        ucb, lcb = np.full(len(counts), np.nan), np.full(len(counts), np.nan)
        for i, (count, total) in enumerate(zip(counts.tolist(), sums.tolist())):
            if count:
                means[i], ucb[i], lcb[i] = confidence_index(count, total, horizon, eps_scale)
        for array in (counts, sums, means, ucb, lcb):
            array.flags.writeable = False
        return cls(horizon, eps_scale, counts, sums, means, ucb, lcb)

    def to_bytes(self) -> bytes:
        """Canonical byte serialization, used for exact state comparisons."""
        head = struct.pack("<qd", int(self.horizon), float(self.eps_scale))
        arrays = (self.pull_count, self.sample_sum, self.empirical_ctr, self.ucb, self.lcb)
        return head + b"".join(a.tobytes() for a in arrays)

    def __eq__(self, other):
        return isinstance(other, LearnerState) and self.to_bytes() == other.to_bytes()


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
