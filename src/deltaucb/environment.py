"""Seeded click outcomes, replayable across counterfactual bid profiles.

A run's randomness is one row per agent of intrinsic click outcomes, plus
(for multi-slot runs) one row per slot of observation outcomes. A shown ad
is clicked when its intrinsic outcome AND the slot's observation outcome
are both 1, so the marginal click probability at slot m is
prominence_m * ctr_i while the draw stays independent of who occupies which
slot. That independence is what makes truthfulness checks ex post: two runs
that differ only in bids see identical randomness.

Each row comes from its own substream keyed by (config.seed, layer, row),
so adding agents or slots never perturbs existing rows; outcome t of a row
is its substream's t-th double below the row's rate. Rows are drawn only
when read, a round window at a time: the substream is advanced to the
window's first round and drawn in fixed chunks, which gives the same bytes
as drawing the whole row up front. A run then draws what the mechanism
reads (every row over the exploration window, the winners' rows after it),
and counting a window's clicks or dumping a row holds one chunk at a time.
Nothing read is kept (a window read twice is drawn twice), and every read
sees the two layers ANDed in one place, ``_patterns``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import AgentProfile, AuctionConfig, validate_profiles

_INTRINSIC_LAYER = 0
_OBSERVATION_LAYER = 1
# doubles per draw call: bounds the scratch memory of reading a window
_CHUNK = 65_536
# rounds in the first window of a first-occurrence scan; each later window doubles
_SCAN = 1_024


def _row_rng(seed: int, layer: int, row: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), layer, row]))


def _matrix(name: str, rows) -> np.ndarray:
    try:
        matrix = np.asarray(rows, dtype=np.uint8)
    except ValueError as err:  # ragged rows, or entries that are not numbers
        raise ValueError(f"{name}: not a matrix of equal-length rows: {err}") from err
    if matrix.ndim != 2:
        raise ValueError(f"{name}: must be a 2-D matrix, got {matrix.ndim}-D")
    return matrix


class ClickRealization:
    """The click outcomes of one seeded run, read by (agent, slot, round window).

    Round windows ``[start, stop)`` are 0-based and half-open. A realization
    is backed either by seeded substreams (``draw_realization``), whose rows
    are drawn on demand, or by explicit 0/1 matrices (``from_matrices``);
    both serve the same reads.
    """

    def __init__(self, seed: int, num_slots: int, horizon: int, rates=None, matrices=None):
        # rates[layer][row - 1] is a substream row's click rate; matrices[layer]
        # is that layer's rows as a given 0/1 matrix
        self.seed = int(seed)
        self.num_slots = num_slots
        self.horizon = horizon
        self._rates = rates
        self._matrices = dict(matrices or {})
        self._rows = {layer: len(rows) for layer, rows in (rates or self._matrices).items()}
        self.num_agents = self._rows[_INTRINSIC_LAYER]

    @classmethod
    def from_matrices(cls, seed: int, intrinsic_clicks, observations=None) -> "ClickRealization":
        """A realization of explicit K×T intrinsic and (multi-slot) M×T observation matrices.

        Only what ``dump_realization`` writes and ``load_realization`` reads
        back is accepted: 2-D matrices of at least one agent and one round,
        and an observation layer of at least two rows of the intrinsic rows'
        length (one slot has none).
        """
        intrinsic = _matrix("intrinsic_clicks", intrinsic_clicks)
        if 0 in intrinsic.shape:
            raise ValueError(f"intrinsic_clicks: need K, T >= 1, got K×T = {intrinsic.shape}")
        matrices = {_INTRINSIC_LAYER: intrinsic}
        num_slots, horizon = 1, intrinsic.shape[1]
        if observations is not None:
            matrices[_OBSERVATION_LAYER] = _matrix("observations", observations)
            num_slots, length = matrices[_OBSERVATION_LAYER].shape
            if num_slots < 2:
                raise ValueError(f"observations: need at least 2 rows (slots), got {num_slots}")
            if length != horizon:
                raise ValueError(f"observations: rows have length {length}, expected T = {horizon}")
        return cls(seed, num_slots, horizon, matrices=matrices)

    def _chunks(self, layer: int, row: int, start: int, stop: int):
        """A row's outcomes over [start, stop), as consecutive uint8 pieces."""
        matrix = self._matrices.get(layer)
        if matrix is None:
            rng = _row_rng(self.seed, layer, row)
            rng.bit_generator.advance(start)
            rate = self._rates[layer][row - 1]
        # the same piece boundaries for both backings, so rows of two layers zip
        for lo in range(start, stop, _CHUNK):
            hi = min(lo + _CHUNK, stop)
            if matrix is None:
                yield (rng.random(hi - lo) < rate).view(np.uint8)
            else:
                yield matrix[row - 1, lo:hi]

    def _check(self, agent: int, slot: int, start: int, stop: int) -> None:
        if not 1 <= agent <= self.num_agents:
            raise IndexError(f"agent {agent} out of range 1..{self.num_agents}")
        if not 1 <= slot <= self.num_slots:
            raise IndexError(f"slot {slot} out of range 1..{self.num_slots}")
        if not 0 <= start <= stop <= self.horizon:
            raise IndexError(f"round window [{start}, {stop}) out of range 0..{self.horizon}")

    def clicks(self, agent: int, slot: int, start: int, stop: int) -> np.ndarray:
        """Clicks of an agent shown at a slot in rounds [start, stop), as a new uint8 array."""
        self._check(agent, slot, start, stop)
        window = np.empty(stop - start, dtype=np.uint8)
        pieces = zip(range(0, stop - start, _CHUNK), self._patterns(agent, (slot,), start, stop))
        for lo, piece in pieces:
            window[lo : lo + len(piece)] = piece
        return window

    def click_count(self, agent: int, slot: int, start: int, stop: int) -> int:
        """Number of clicks in ``clicks(agent, slot, start, stop)``.

        Counted a chunk at a time, so counting a long window holds one chunk.
        """
        self._check(agent, slot, start, stop)
        pieces = self._patterns(agent, (slot,), start, stop)
        return sum(int(np.count_nonzero(p)) for p in pieces)

    def _patterns(self, agent: int, slots, start: int, stop: int):
        """Per round in [start, stop), bit j set if the agent is clicked at slots[j], in pieces."""
        pieces = [self._chunks(_INTRINSIC_LAYER, agent, start, stop)]
        if _OBSERVATION_LAYER in self._rows:
            pieces += [self._chunks(_OBSERVATION_LAYER, m, start, stop) for m in slots]
        for own, *seen in zip(*pieces):
            code = own & seen[0] if seen else own
            for j, row in enumerate(seen[1:], start=1):
                code |= (own & row) << j
            yield code

    def first_rounds(self, agent: int, slots, start: int, stop: int) -> list:
        """The first round in start+1..stop of each pattern of the agent's clicks at ``slots``.

        Returns ({slot: click}, round) pairs for the patterns that occur. A
        matrix-backed realization scans the whole window. A seeded one scans
        windows that double from ``_SCAN`` rounds, drawing each round once,
        and stops when every pattern of positive probability has been seen:
        (1 - r)·[no bit set] + r·∏ (γ_m if bit m is set, else 1 - γ_m), for
        the agent's rate r and the slots' rates γ (1 with no observation
        layer), is positive when each factor of a term is.
        """
        if not slots:
            return [({}, start + 1)]
        for m in slots:
            self._check(agent, m, start, stop)
        wanted = set(range(1 << len(slots)))  # a matrix has no rates: any pattern may occur
        if self._rates:
            rate = self._rates[_INTRINSIC_LAYER][agent - 1]
            gammas = [self._rates.get(_OBSERVATION_LAYER, [1.0])[m - 1] for m in slots]
            can = [(g < 1.0, g > 0.0) for g in gammas]  # may bit j be clear, set?
            wanted = {
                k
                for k in wanted
                if (k == 0 and rate < 1.0)
                or (rate > 0.0 and all(can[j][k >> j & 1] for j in range(len(slots))))
            }
        first = {}
        lo, width = start, _SCAN if self._rates else stop - start
        while lo < stop and not wanted <= first.keys():
            hi = min(lo + width, stop)
            for offset, code in zip(range(lo, hi, _CHUNK), self._patterns(agent, slots, lo, hi)):
                for k in wanted - first.keys():
                    hits = code == k
                    idx = int(np.argmax(hits))
                    if hits[idx]:
                        first[k] = offset + idx + 1
            lo, width = hi, 2 * width
        return [({m: (k >> j) & 1 for j, m in enumerate(slots)}, first[k]) for k in sorted(first)]


def draw_realization(config: AuctionConfig, profiles: Sequence[AgentProfile]) -> ClickRealization:
    """The run's seeded realization; a pure function of ``config.seed``, drawn as it is read."""
    profiles = validate_profiles(profiles, config)
    rates = {_INTRINSIC_LAYER: [p.ctr for p in profiles]}
    if config.num_slots > 1:
        rates[_OBSERVATION_LAYER] = list(config.prominences)
    return ClickRealization(config.seed, config.num_slots, config.horizon, rates=rates)


def realized_click(realization: ClickRealization, agent: int, slot: int, round: int) -> int:
    """Click outcome for an agent shown at a slot in a round (all indices 1-based)."""
    return int(realization.clicks(agent, slot, round - 1, round)[0])


def dump_realization(realization: ClickRealization, path) -> None:
    """Write a realization as text: header "K T M seed", then rows of 0/1 characters."""
    header = (
        f"{realization.num_agents} {realization.horizon} "
        f"{realization.num_slots} {realization.seed}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for layer, count in sorted(realization._rows.items()):
            for row in range(1, count + 1):
                for chunk in realization._chunks(layer, row, 0, realization.horizon):
                    fh.write(((chunk != 0).view(np.uint8) + ord("0")).tobytes())
                fh.write(b"\n")


def load_realization(path) -> ClickRealization:
    """Read back a realization written by dump_realization."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError("realization header must be 'K T M seed'")
        num_agents, horizon, num_slots, seed = (int(x) for x in header)
        for name, value in (("K", num_agents), ("T", horizon), ("M", num_slots)):
            if value < 1:
                raise ValueError(f"realization header: {name} must be at least 1, got {value}")
        if not 0 <= seed < 2**64:
            raise ValueError(f"realization header: seed must lie in 0..2**64-1, got {seed}")

        def read_rows(count):
            rows = np.empty((count, horizon), dtype=np.uint8)
            for r in range(count):
                line = fh.readline().strip()
                if len(line) != horizon:
                    raise ValueError(f"row {r + 1} has length {len(line)}, expected {horizon}")
                rows[r] = np.frombuffer(line.encode("ascii"), dtype=np.uint8) - ord("0")
                if np.any(rows[r] > 1):
                    raise ValueError(f"row {r + 1} holds a character other than 0 and 1")
            return rows

        intrinsic = read_rows(num_agents)
        observations = read_rows(num_slots) if num_slots > 1 else None
        if any(line.strip() for line in fh):
            raise ValueError("realization rows: more than the header's K and M declare")

    return ClickRealization.from_matrices(seed, intrinsic, observations)
