"""Multi-slot Δ-UCB: the engine in ``mechanism`` with telescoping list prices.

Slots have non-increasing observation probabilities (prominences). Learning
and the ranking are the engine's. The declare step is ``declare_ranking``
bound to the config's prominences and ``telescoping``: after the budget the
occupant of slot m pays, per click, the telescoping sum of prominence drops
times the scores ranked below it.

Note the price rule differs in shape from the single-slot one: with M = 1
it charges the runner-up score without dividing by the winner's own index.
Allocations coincide with the single-slot mechanism on shared randomness;
payments do not, and tests pin both facts.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from .core import AgentProfile, AuctionConfig
from .mechanism import normalized_runner_up, run_mechanism
from .mechanism import declare as declare_ranking  # the multi-slot name for declare
from .metrics import RunResult


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
    """Multi-slot price rule: ``multi_slot_payment`` for every slot of every row."""
    slots = range(1, len(prominences) + 1)
    return np.stack([multi_slot_payment(m, rankings, prominences, scores) for m in slots], axis=1)


def price_rule_for(num_slots: int):
    """The Δ-UCB price rule: normalized runner-up on one slot, telescoping on more."""
    return normalized_runner_up if num_slots == 1 else telescoping


def run_multi_slot(config: AuctionConfig, profiles: Sequence[AgentProfile], **options) -> RunResult:
    """Run the multi-slot mechanism: the top M scores take the slots at telescoping prices.

    ``options`` are ``run_mechanism``'s keyword arguments.
    """
    decide = partial(declare_ranking, prominences=config.prominences, price_rule=telescoping)
    return run_mechanism(config, profiles, decide, mechanism_label="delta-ucb-multi", **options)
