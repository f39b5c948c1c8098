from dataclasses import replace
from functools import partial

import numpy as np

from deltaucb import metrics
from deltaucb.core import AgentProfile
from deltaucb.environment import ClickRealization
from deltaucb.mechanism import declare, normalized_runner_up, telescoping


def make_profiles(ctrs, valuations=None, bids=None):
    """Profiles with ids 1..K from parallel value lists."""
    ctrs = list(ctrs)
    valuations = list(valuations) if valuations is not None else [1.0] * len(ctrs)
    bids = list(bids) if bids is not None else [None] * len(ctrs)
    return [
        AgentProfile(id=i + 1, ctr=ctrs[i], valuation=valuations[i], bid=bids[i])
        for i in range(len(ctrs))
    ]


def with_bids(profiles, bids):
    """The profiles, each declaring the given bid instead of its own."""
    return [replace(p, bid=b) for p, b in zip(profiles, bids)]


def price_rule_for(num_slots):
    """The Δ-UCB price rule: normalized runner-up on one slot, telescoping on more."""
    return normalized_runner_up if num_slots == 1 else telescoping


def telescoping_step(config):
    """The multi-slot declare step: ``declare`` on the config's prominences with ``telescoping``."""
    return partial(declare, prominences=config.prominences, price_rule=telescoping)


def make_realization(intrinsic, observations=None, seed=0):
    """Hand-crafted realization from explicit 0/1 matrices."""
    return ClickRealization.from_matrices(seed, intrinsic, observations)


def as_matrices(realization):
    """The same outcomes as explicit 0/1 matrices, which carry no rates.

    A matrix realization reads a round by indexing, so the round-by-round
    reference replays it without drawing each round again.
    """
    def row(layer, r):
        return np.concatenate(list(realization._chunks(layer, r, 0, realization.horizon)))

    layers = [
        [row(layer, r) for r in range(1, count + 1)]
        for layer, count in sorted(realization._rows.items())
    ]
    return ClickRealization.from_matrices(realization.seed, *layers)


def log_rows(log):
    """A round log's rows as (t, slot, agent, click, payment) tuples."""
    columns = (log.t, log.slot, log.agent, log.click, log.payment)
    return list(zip(*(column.tolist() for column in columns)))


def record_rows(records):
    """Reference records flattened to the same tuples, one per shown (round, slot)."""
    return [
        (r.round, m, a, r.click_of(a), r.payment_of(a))
        for r in records
        for m, a in sorted(r.allocation.items())
    ]


def delta_regret_of(record, profiles, config):
    """A record's tolerance regret, from the per-call oracle."""
    return metrics.delta_regret_increment(
        record.allocation, profiles, config.delta, config.prominences
    )


def welfare_of(record, profiles, config):
    """A record's welfare summed over its slots, from the per-call oracle."""
    prominences = config.prominences
    return sum(
        metrics.welfare_at_slot(profiles[a - 1], m, prominences)
        for m, a in record.allocation.items()
    )


def random_instance(rng, num_agents, v_max=1.0, truthful=False):
    """A random test instance with distinct welfares (almost surely)."""
    ctrs = rng.uniform(0.05, 0.95, num_agents)
    valuations = rng.uniform(0.1 * v_max, v_max, num_agents)
    bids = valuations if truthful else rng.uniform(0.0, v_max, num_agents)
    return [
        AgentProfile(id=i + 1, ctr=float(ctrs[i]), valuation=float(valuations[i]), bid=float(bids[i]))
        for i in range(num_agents)
    ]
