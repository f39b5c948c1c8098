"""Pre-drawn click outcomes, replayable across counterfactual bid profiles.

All randomness for a run is drawn up front: one row per agent of intrinsic
click outcomes, plus (for multi-slot runs) one row per slot of observation
outcomes. A shown ad is clicked when its intrinsic outcome AND the slot's
observation outcome are both 1, so the marginal click probability at slot m
is prominence_m * ctr_i while the draw stays independent of who occupies
which slot. That independence is what makes truthfulness checks ex post:
two runs that differ only in bids see identical randomness.

Each row comes from its own seeded substream keyed by (seed, layer, row),
so adding agents or slots never perturbs existing rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import AgentProfile, AuctionConfig, validate_config, validate_profiles

_INTRINSIC_LAYER = 0
_OBSERVATION_LAYER = 1


def _row_rng(seed: int, layer: int, row: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), layer, row]))


@dataclass(frozen=True)
class ClickRealization:
    """Immutable matrices of pre-drawn outcomes for one seeded run."""

    seed: int
    num_slots: int
    intrinsic_clicks: np.ndarray
    observations: Optional[np.ndarray] = None

    @property
    def num_agents(self) -> int:
        return self.intrinsic_clicks.shape[0]

    @property
    def horizon(self) -> int:
        return self.intrinsic_clicks.shape[1]


def draw_realization(
    config: AuctionConfig,
    profiles: Sequence[AgentProfile],
    seed: Optional[int] = None,
) -> ClickRealization:
    """Draw the full outcome matrices for a run; a pure function of the seed."""
    config = validate_config(config)
    profiles = validate_profiles(profiles, config)
    seed = config.seed if seed is None else int(seed)
    horizon = config.horizon

    intrinsic = np.empty((config.num_agents, horizon), dtype=np.uint8)
    for p in profiles:
        draws = _row_rng(seed, _INTRINSIC_LAYER, p.id).random(horizon)
        intrinsic[p.id - 1] = draws < p.ctr

    observations = None
    if config.num_slots > 1:
        observations = np.empty((config.num_slots, horizon), dtype=np.uint8)
        for m in range(1, config.num_slots + 1):
            draws = _row_rng(seed, _OBSERVATION_LAYER, m).random(horizon)
            observations[m - 1] = draws < config.prominences[m - 1]

    return ClickRealization(
        seed=seed,
        num_slots=config.num_slots,
        intrinsic_clicks=intrinsic,
        observations=observations,
    )


def realized_clicks(realization: ClickRealization, agent: int, slot: int, rounds) -> np.ndarray:
    """Click outcomes for an agent shown at a slot over many rounds.

    ``rounds`` indexes the round axis 0-based: an integer array or a slice
    (a slice of a single-slot realization is a view, not a copy).
    """
    clicks = realization.intrinsic_clicks[agent - 1, rounds]
    if realization.observations is not None:
        clicks = clicks & realization.observations[slot - 1, rounds]
    return clicks


def realized_click(realization: ClickRealization, agent: int, slot: int, round: int) -> int:
    """Click outcome for an agent shown at a slot in a round (all indices 1-based)."""
    if not 1 <= agent <= realization.num_agents:
        raise IndexError(f"agent {agent} out of range 1..{realization.num_agents}")
    if not 1 <= slot <= realization.num_slots:
        raise IndexError(f"slot {slot} out of range 1..{realization.num_slots}")
    if not 1 <= round <= realization.horizon:
        raise IndexError(f"round {round} out of range 1..{realization.horizon}")
    return int(realized_clicks(realization, agent, slot, round - 1))


def dump_realization(realization: ClickRealization, path) -> None:
    """Write a realization as text: header "K T M seed", then rows of 0/1 characters."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            f"{realization.num_agents} {realization.horizon} "
            f"{realization.num_slots} {realization.seed}\n"
        )
        for row in realization.intrinsic_clicks:
            fh.write("".join("1" if c else "0" for c in row) + "\n")
        if realization.observations is not None:
            for row in realization.observations:
                fh.write("".join("1" if c else "0" for c in row) + "\n")


def load_realization(path) -> ClickRealization:
    """Read back a realization written by dump_realization."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError("realization header must be 'K T M seed'")
        num_agents, horizon, num_slots, seed = (int(x) for x in header)

        def read_rows(count):
            rows = np.empty((count, horizon), dtype=np.uint8)
            for r in range(count):
                line = fh.readline().strip()
                if len(line) != horizon:
                    raise ValueError(f"row {r + 1} has length {len(line)}, expected {horizon}")
                rows[r] = np.frombuffer(line.encode("ascii"), dtype=np.uint8) - ord("0")
            return rows

        intrinsic = read_rows(num_agents)
        observations = read_rows(num_slots) if num_slots > 1 else None

    return ClickRealization(
        seed=seed, num_slots=num_slots, intrinsic_clicks=intrinsic, observations=observations
    )
