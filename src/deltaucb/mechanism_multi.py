"""Multi-slot Δ-UCB's price rule: telescoping list prices for the engine in ``mechanism``.

Slots have non-increasing observation probabilities (prominences). Learning
and the ranking are the engine's. The declare step (``run_multi_slot``'s row
of ``mechanism.MECHANISMS``) is ``declare_ranking`` bound to the config's
prominences and ``telescoping``: after the budget the occupant of slot m
pays, per click, the telescoping sum of prominence drops times the scores
ranked below it.

Note the price rule differs in shape from the single-slot one: with M = 1
it charges the runner-up score without dividing by the winner's own index.
Allocations coincide with the single-slot mechanism on shared randomness;
payments do not, and tests pin both facts.
"""

from __future__ import annotations

import numpy as np

from .mechanism import declare as declare_ranking, run_multi_slot  # noqa: F401  (traced names)


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
