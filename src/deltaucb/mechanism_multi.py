"""Multi-slot Δ-UCB: the engine in ``mechanism`` with telescoping list prices.

Slots have non-increasing observation probabilities (prominences). Learning
and the ranking are the engine's. After the budget the occupant of slot m
pays, per click, the telescoping sum of prominence drops times the scores
ranked below it.

Note the price rule differs in shape from the single-slot one: with M = 1
it charges the runner-up score without dividing by the winner's own index.
Allocations coincide with the single-slot mechanism on shared randomness;
payments do not, and tests pin both facts.
"""

from __future__ import annotations

from typing import Sequence

from .core import AgentProfile, AuctionConfig
from .mechanism import normalized_runner_up, run_mechanism
from .mechanism import declare as declare_ranking  # noqa: F401  (the multi-slot name for declare)
from .metrics import RunResult


def multi_slot_payment(slot: int, ranking, prominences, scores) -> float:
    """Per-click price for a slot: telescoping prominence drops times the scores ranked below.

    Terms past the number of agents contribute nothing; the prominence
    below the last slot is zero.
    """
    num_slots = len(prominences)
    gamma = list(prominences) + [0.0]
    total = 0.0
    for rank in range(slot + 1, num_slots + 2):
        if rank > len(ranking):
            break
        total += (gamma[rank - 2] - gamma[rank - 1]) * scores[ranking[rank - 1] - 1]
    return float(total)


def telescoping(ranking, scores, ucb, prominences) -> tuple:
    """Multi-slot price rule: ``multi_slot_payment`` for every slot."""
    return tuple(
        multi_slot_payment(m, ranking, prominences, scores) for m in range(1, len(prominences) + 1)
    )


def price_rule_for(num_slots: int):
    """The Δ-UCB price rule: normalized runner-up on one slot, telescoping on more."""
    return normalized_runner_up if num_slots == 1 else telescoping


def run_multi_slot(config: AuctionConfig, profiles: Sequence[AgentProfile], **options) -> RunResult:
    """Run the multi-slot mechanism: the top M scores take the slots at telescoping prices.

    ``options`` are ``run_mechanism``'s keyword arguments.
    """
    return run_mechanism(
        config, profiles, telescoping, mechanism_label="delta-ucb-multi", **options
    )
