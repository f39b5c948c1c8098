"""CLI entry point: seeded runs, experiment sweeps, and property checks.

Config files are flat ``key = value`` text; unknown keys are errors. Every
emitted file is a pure function of the config and seed — no timestamps, no
environment leakage — so identical invocations produce byte-identical
output. Exit codes: 0 success, 1 property violation, 2 config error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from numpy._core.multiarray import dragon4_positional

from .core import AgentProfile, AuctionConfig, BaselineKind, ConfigError, gammas_from_lambdas
from .core import validate_profiles
from .environment import draw_realization
from .mechanism import run_single_slot
from .metrics import ROUNDS_LOG_LEVELS, InstanceTables
# json, mechanism_multi and strategy_lab are imported where used: a command loads what it runs

_PROFILE_LAYER = 2
_INSTANCE_LAYER = 3
# the Dragon4 call np.format_float_positional makes for these arguments, without its checks
_render12 = functools.partial(
    dragon4_positional, precision=12, unique=False, fractional=False, trim="k"
)
# rows per block when writing a table: bounds its text held in memory
_ROW_BLOCK = 65_536
# bytes of a block's padded matrix: a block of wider rows is written a part at a time
_BLOCK_BYTES = 1 << 24
_POWERS = 10 ** np.arange(14)
_POW10 = np.array([float(10**i) for i in range(13)])  # 10**i, each exact in a double
# "00" to "99", each pair of ASCII digits as one 2-byte item
_PAIRS = np.array([list(b"%02d" % i) for i in range(100)], np.uint8).view(np.uint16).ravel()

_BASELINES = tuple(kind.value for kind in BaselineKind)
MECHANISMS = ("delta-ucb-single", "delta-ucb-multi", *_BASELINES)
SINGLE_SLOT_MECHANISMS = ("delta-ucb-single", *_BASELINES)

_INT_KEYS = {"num_agents", "num_slots", "horizon", "seed", "sweep_seeds", "jobs"}
_FLOAT_KEYS = {"delta", "v_max"}
_FLOAT_LIST_KEYS = {
    "prominences",
    "lambdas",
    "ctrs",
    "valuations",
    "bids",
    "ctr_range",
    "valuation_range",
    "sweep_delta",
}
_INT_LIST_KEYS = {"sweep_horizon", "sweep_num_agents", "sweep_num_slots", "agents_choices"}
_STR_KEYS = {"mechanism"}
_KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _FLOAT_LIST_KEYS | _INT_LIST_KEYS | _STR_KEYS


@dataclass
class ExperimentSpec:
    """A parsed config file: base auction parameters plus experiment directives."""

    config: AuctionConfig
    mechanism: str
    chain: Optional[tuple] = None  # the prominences chained from lambdas, all of them
    ctrs: Optional[tuple] = None
    valuations: Optional[tuple] = None
    bids: Optional[tuple] = None
    ctr_range: tuple = (0.05, 0.95)
    valuation_range: Optional[tuple] = None
    sweep: dict = field(default_factory=dict)
    sweep_seeds: int = 1
    agents_choices: Optional[tuple] = None
    jobs: int = 1


def parse_config_file(path) -> ExperimentSpec:
    """Parse a flat key=value config file; any unknown key is an error."""
    try:
        source = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"config: cannot read {path}: {err}") from err
    raw = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        if key in raw:
            raise ConfigError(f"duplicate config key: {key}")
        raw[key] = value
    return spec_from_values(raw)


def _parse_value(key: str, value: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _FLOAT_LIST_KEYS:
            return tuple(float(x) for x in value.split(","))
        if key in _INT_LIST_KEYS:
            return tuple(int(x) for x in value.split(","))
    except ValueError as err:
        raise ConfigError(f"bad value for {key}: {value}") from err
    return value


def _at_least_one(key: str, value: int) -> int:
    if value < 1:
        raise ConfigError(f"{key}: must be at least 1")
    return value


def _delta_ucb_for(num_slots: int) -> str:
    """The Δ-UCB a slot count runs: single-slot on one slot, multi-slot on several."""
    return "delta-ucb-single" if num_slots == 1 else "delta-ucb-multi"


def _given(cls, values: dict) -> dict:
    """The values named by the dataclass's fields; absent ones keep the field defaults."""
    return {f.name: values[f.name] for f in fields(cls) if f.name in values}


def spec_from_values(raw: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from key/value strings; the one place lambdas become prominences."""
    values = {key: _parse_value(key, value) for key, value in raw.items()}
    for required in ("num_agents", "horizon", "delta"):
        if required not in values:
            raise ConfigError(f"missing required config key: {required}")
    chain = None
    if "lambdas" in values:
        chain = gammas_from_lambdas(values["lambdas"])
        num_slots = values.get("num_slots", 1)
        head = values.setdefault("prominences", chain[:num_slots])
        if len(chain) < num_slots:
            raise ConfigError("lambdas too short for num_slots")
        if chain[: len(head)] != head:
            raise ConfigError("lambdas: their chain must start with the prominences")
    config = AuctionConfig(**_given(AuctionConfig, values))
    values.setdefault("mechanism", _delta_ucb_for(config.num_slots))
    sweep = {
        axis: values[f"sweep_{axis}"]
        for axis in ("horizon", "delta", "num_agents", "num_slots")
        if f"sweep_{axis}" in values
    }
    spec = ExperimentSpec(config=config, sweep=sweep, chain=chain, **_given(ExperimentSpec, values))
    if spec.mechanism not in MECHANISMS:
        raise ConfigError(f"unknown mechanism: {spec.mechanism}")
    slot_counts = {config.num_slots, *sweep.get("num_slots", ())}
    if spec.mechanism in SINGLE_SLOT_MECHANISMS and slot_counts != {1}:
        raise ConfigError(f"mechanism, num_slots: {spec.mechanism} runs on one slot only")
    _at_least_one("sweep_seeds", spec.sweep_seeds)
    _at_least_one("jobs", spec.jobs)
    if any(k < config.num_slots for k in spec.agents_choices or ()):
        raise ConfigError("agents_choices must all be at least num_slots")
    if spec.agents_choices and spec.ctrs is not None:
        raise ConfigError("agents_choices draws profiles, so it cannot be combined with ctrs")
    for key in ("ctrs", "valuations", "bids"):
        if key in values and len(values[key]) != config.num_agents:
            raise ConfigError(f"{key} length must equal num_agents")
    for key in ("valuations", "bids"):
        if key in values and spec.ctrs is None:
            raise ConfigError(f"{key} needs ctrs: drawn profiles bid their drawn valuations")
    for key in ("ctr_range", "valuation_range"):
        bounds = getattr(spec, key)
        if bounds is not None and (
            len(bounds) != 2 or not -math.inf < bounds[0] <= bounds[1] < math.inf
        ):
            raise ConfigError(f"{key} must be two finite numbers lo, hi with lo <= hi")
    # v_max is not sweepable, so these bounds hold in every cell and every instance
    for key, top, name in (("ctr_range", 1.0, "1"), ("valuation_range", config.v_max, "v_max")):
        bounds = getattr(spec, key)
        if bounds is not None and not 0.0 <= bounds[0] <= bounds[1] <= top:
            raise ConfigError(f"{key} must lie in [0, {name}]")
    return spec


def _draw_ctrs_and_valuations(spec: ExperimentSpec, config: AuctionConfig, rng) -> tuple:
    """Click rates, then valuations, for config's agents from the spec's generator ranges."""
    vlo, vhi = spec.valuation_range or (0.1 * config.v_max, config.v_max)
    ctrs = rng.uniform(*spec.ctr_range, config.num_agents)
    return ctrs, rng.uniform(vlo, vhi, config.num_agents)


def _profiles(config: AuctionConfig, ctrs, valuations, bids) -> list:
    profiles = [
        AgentProfile(id=i, ctr=c, valuation=v, bid=b)
        for i, (c, v, b) in enumerate(zip(ctrs, valuations, bids), start=1)
    ]
    return validate_profiles(profiles, config)


def build_profiles(spec: ExperimentSpec, config: AuctionConfig) -> list:
    """Agent profiles for one cell: explicit lists, or truthful draws from the generator ranges."""
    if spec.ctrs is None:
        rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), _PROFILE_LAYER]))
        ctrs, valuations = (a.tolist() for a in _draw_ctrs_and_valuations(spec, config, rng))
        return _profiles(config, ctrs, valuations, valuations)
    if len(spec.ctrs) != config.num_agents:
        raise ConfigError("explicit ctrs cannot be combined with a num_agents sweep")
    valuations = spec.valuations or tuple(config.v_max for _ in spec.ctrs)
    return _profiles(config, spec.ctrs, valuations, spec.bids or valuations)


def dispatch_run(mechanism: str, config, profiles, rounds_log="none"):
    """Run the named mechanism on the config's seeded realization and return its RunResult."""
    if mechanism == "delta-ucb-single":
        return run_single_slot(config, profiles, rounds_log=rounds_log)
    if mechanism == "delta-ucb-multi":
        from .mechanism_multi import run_multi_slot
        return run_multi_slot(config, profiles, rounds_log=rounds_log)
    if mechanism in _BASELINES:
        from .strategy_lab import run_baseline
        return run_baseline(BaselineKind(mechanism), config, profiles, rounds_log=rounds_log)
    raise ConfigError(f"unknown mechanism: {mechanism}")


def fmt_num(x: float) -> str:
    """Render a number with 12 significant digits; zero is all zeros.

    Dragon4 stops early where the remaining digits are zero (an exact value, or
    a carry), then pads to 12 digits counting the integer part, which below 1 is
    the one "0". So from 1 up every value has 12 significant digits (1.5 is
    1.50000000000), but 0.3 is 0.30000000000 and 0.0625 is 0.06250000000.
    """
    x = float(x)
    if not math.isfinite(x):
        return repr(x)
    if x == 0.0:
        return "0.000000000000"
    return _render12(x)


def round_log_rows(log, profiles, config) -> dict:
    """The round log as table columns, one row per shown (round, slot), with running totals.

    The columns are numpy arrays. The running columns are ``np.cumsum`` of
    per-row amounts; numpy accumulates them in row order, so each entry is
    the left-to-right sum.
    """
    tables = InstanceTables.build(profiles, config.delta, config.prominences)
    cell = (log.agent - 1, log.slot - 1)
    return {
        "t": log.t,
        "phase": log.phase,
        "slot": log.slot,
        "agent": log.agent,
        "click": log.click,
        "payment": log.payment,
        "delta_regret_cum": np.cumsum(np.array(tables.delta_gap)[cell]),
        "regret_cum": np.cumsum(np.array(tables.gap)[cell]),
        "revenue_cum": np.cumsum(log.payment),
    }


def emit_round_log(log, path, fmt, profiles, config) -> None:
    """Write the round log as CSV (12-significant-digit numbers) or JSONL."""
    write_table(round_log_rows(log, profiles, config), path, fmt)


def write_table(columns: dict, path, fmt) -> None:
    """Write equal-length columns as UTF-8 CSV or JSONL, ``_ROW_BLOCK`` rows at a time.

    CSV has a header row and renders floats with ``fmt_num`` and anything
    else with ``str``; JSONL has one object per row, keys sorted, values as
    ``json.dumps`` gives them but with a NaN or infinity as null. Columns may
    be lists or 1-D numpy arrays; a row holds what ``tolist`` gives. A block
    is one byte matrix: each column's texts NUL-padded to its widest, between
    constant separator columns, and written without its NULs. So a CSV text
    cell may not hold a NUL.
    """
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"unknown format: {fmt}")
    rows = min((len(column) for column in columns.values()), default=0)
    if fmt == "csv":
        names, head = list(columns), ",".join(columns) + "\n"
        seps = ["", *[","] * (len(names) - 1), "\n"]
    else:
        import json
        names, head = sorted(columns), "" if rows else "\n"
        openers = ["{", *[", "] * (len(names) - 1)]
        seps = [opener + json.dumps(name) + ": " for opener, name in zip(openers, names)]
        seps.append("}\n")
    seps = [(np.frombuffer(sep.encode(), np.uint8).reshape(1, -1), None) for sep in seps]
    named = [(name, columns[name]) for name in names]
    with Path(path).open("wb") as fh:
        fh.write(head.encode())
        for lo in range(0, rows, _ROW_BLOCK):
            _write_rows(fh, named, seps, fmt, lo, min(lo + _ROW_BLOCK, rows))


def _write_rows(fh, named, seps, fmt, lo, hi) -> None:
    """Write rows lo:hi as one matrix, or as two halves while it would pass ``_BLOCK_BYTES``.

    So a wide cell widens only the few rows written with it; one row is written whole.
    """
    room = _BLOCK_BYTES // (hi - lo) - sum(sep.shape[1] for sep, _ in seps)
    parts = [seps[0]]
    for (name, column), sep in zip(named, seps[1:]):
        cell = _cells(column[lo:hi], fmt, name, room if hi - lo > 1 else math.inf)
        if cell is None:
            mid = (lo + hi) // 2
            _write_rows(fh, named, seps, fmt, lo, mid)
            _write_rows(fh, named, seps, fmt, mid, hi)
            return
        room -= cell[0].shape[1]
        parts += [cell, sep]
    rows = hi - lo
    matrix = np.concatenate(
        [
            np.broadcast_to(texts, (rows, texts.shape[1]))
            if runs is None
            else np.repeat(texts, runs, axis=0)
            for texts, runs in parts
        ],
        axis=1,
    )
    flat = matrix.ravel()
    fh.write(flat[flat != 0])


def _plain(column) -> list:
    return column.tolist() if isinstance(column, np.ndarray) else column


def _kind(column):
    """The dtype kind of a 1-D text, bool, integer or float (to 64 bits) array column, else None."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) and column.ndim == 1 else "O"
    return kind if kind in "Ubiu" or (kind == "f" and column.dtype.itemsize <= 8) else None


def _cells(column, fmt, name, room) -> Optional[tuple]:
    """A column's texts as NUL-padded UTF-8 rows and the table rows each fills.

    An array column has one text per run of equal bits (so -0.0 and 0.0 stay
    apart) and the run lengths; any other column one text per row and None.
    None instead when the texts are wider than room bytes.
    """
    kind, runs = _kind(column), None
    if kind is None:
        heads = _plain(column)
    else:
        bits = column if kind == "U" else column.view(f"u{column.dtype.itemsize}")
        starts = np.flatnonzero(np.r_[len(column) > 0, bits[1:] != bits[:-1]])
        runs = np.diff(np.r_[starts, len(column)])
        heads = column[starts]
    # numbers' texts have a bounded width, so only the other texts are checked as they are made
    if kind in ("i", "u"):
        texts = _int_matrix(heads)  # str and json.dumps agree on integers
    elif fmt == "jsonl":
        texts = _json_matrix(heads, kind, room)
    elif kind == "f":
        texts = _float_matrix(heads)
    else:
        texts = [fmt_num(v) if isinstance(v, float) else str(v) for v in _plain(heads)]
        if any("\0" in text for text in texts):
            raise ValueError(f"column {name}: a CSV text cell cannot hold NUL, the pad byte")
        texts = _padded([text.encode() for text in texts], room)
    return None if texts is None or texts.shape[1] > room else (texts, runs)


def _padded(encoded: list, room=math.inf):
    """Byte strings as the rows of a uint8 matrix, NUL-padded to the widest; None past room."""
    width = max(map(len, encoded), default=0) or 1
    if width > room:
        return None
    return np.array(encoded, f"S{width}").view(np.uint8).reshape(-1, width)


def _merged(rows: int, at, texts, rest, others):
    """One matrix holding texts in rows at and others in rows rest."""
    if not len(rest):
        return texts
    merged = np.zeros((rows, max(texts.shape[1], others.shape[1])), np.uint8)
    merged[at, : texts.shape[1]] = texts
    merged[rest, : others.shape[1]] = others
    return merged


def _json_matrix(values, kind, room):
    """``json.dumps`` of each value as NUL-padded rows; one call encodes a number array.

    JSON has no NaN or infinities, so a non-finite float is written as null.
    """
    import json
    if kind in (None, "U"):
        plain = _plain(values)
        plain = [None if isinstance(v, float) and not math.isfinite(v) else v for v in plain]
        return _padded([json.dumps(v).encode() for v in plain], room)
    if kind == "f" and not np.isfinite(values).all():
        values = np.where(np.isfinite(values), values, None)
    # the texts of numbers hold no ", "
    return _padded(json.dumps(values.tolist())[1:-1].encode().split(b", "), room)


def _digits(values, places: int):
    """Decimal digits of int64 values in [0, 10**places) as ASCII rows, leading zeros NUL.

    The digits come by pairs from ``_PAIRS``; a value keeps its last digit, so 0 is
    "0". The columns left of the widest value's first digit are dropped.
    """
    zeros = places - 1 - np.searchsorted(_POWERS[1:], values, side="right")
    pairs = np.empty((len(values), (places + 1) // 2), np.uint16)
    for k in reversed(range(pairs.shape[1])):
        high = values // 100
        pairs[:, k] = _PAIRS[values - 100 * high]
        values = high
    digits = pairs.view(np.uint8)[:, -places:]
    digits *= np.arange(places, dtype=np.uint8) >= zeros.astype(np.uint8)[:, None]
    return digits[:, zeros.min(initial=places - 1) :]


def _int_matrix(values):
    """``str`` of each value of an integer array as NUL-padded rows, 0 to 10**12 by digit pairs."""
    small = (values >= 0) & (values <= 10**12)
    at, rest = np.flatnonzero(small), np.flatnonzero(~small)
    digits = _digits(values[at].astype(np.int64), 13)
    others = _padded([str(v).encode() for v in values[rest].tolist()])
    return _merged(len(values), at, digits, rest, others)


def _float_matrix(values):
    """``fmt_num`` of each value of a float array as NUL-padded rows.

    A value x in [1, 1e11) with e + 1 integer digits is printed as rint(y) for
    y = x·10^(11-e), with '.' after e + 1 digits, which is ``fmt_num``'s text
    where it is used:
    - e is ``log10``'s, corrected by exact compares with 10.0**e (exact to e = 22);
    - 10^(11-e) is exact, so y is the product rounded once, within ulp(y)/2 of
      it. Where y's fraction is more than 2·ulp(y) from 1/2, rint(y) is the
      product rounded to an integer, that is x rounded correctly to 12
      significant digits, as Dragon4 rounds it;
    - y < 10^12 - 1/2 keeps those 12 digits from carrying into the next decade,
      and from 1 up Dragon4 prints all 12 (its 11-digit form occurs only below 1).
    Every other value (below 1, from 1e11, zero, non-finite, a carry or near a
    tie) goes through ``fmt_num`` itself, once per distinct value.
    """
    x = values.astype(np.float64)
    # only finite values >= 1 reach the arithmetic, so no value can raise a numpy warning
    at = np.flatnonzero((x >= 1.0) & (x < 1e11))
    e = np.log10(x[at]).astype(np.intp)
    e = e - (x[at] < _POW10[e]) + (x[at] >= _POW10[e + 1])
    y = x[at] * _POW10[11 - e]
    exact = (y < 999_999_999_999.5) & (np.abs(y - np.floor(y) - 0.5) > 2 * np.spacing(y))
    at, e, whole = at[exact], e[exact], np.rint(y[exact]).astype(np.int64)
    # the e + 1 integer digits one place left, so a 0 digit sits where the '.' goes
    scale = _POWERS[11 - e]
    texts = _digits(whole + 9 * (whole // scale) * scale, 13)
    texts[np.arange(len(at)), e + 1] = ord(".")
    rest = np.flatnonzero(np.bincount(at, minlength=len(x)) == 0)
    keys = x[rest].view(np.uint64).tolist()
    memo = {key: fmt_num(v).encode() for key, v in dict(zip(keys, x[rest].tolist())).items()}
    return _merged(len(x), at, texts, rest, _padded(list(map(memo.__getitem__, keys))))


def summary_row(summary) -> dict:
    """The summary's fields in column order, with winners, utilities and flags joined by ';'."""
    row = {f.name: getattr(summary, f.name) for f in fields(summary)}
    row["winners"] = ";".join(str(w) for w in summary.winners)
    utilities = sorted(summary.per_agent_utility.items())
    row["per_agent_utility"] = ";".join(fmt_num(u) for _, u in utilities)
    row["flags"] = ";".join(summary.flags)
    return row


def emit_summary(summaries, path, fmt) -> None:
    """Write one summary record per run/cell as CSV or JSONL; ``summary_row`` sets the columns."""
    rows = [summary_row(s) for s in summaries]
    write_table({col: [row[col] for row in rows] for col in rows[0]}, path, fmt)


def derive_subseed(master_seed: int, cell: dict) -> int:
    """Sub-seed from the master seed and the cell's parameter *values*.

    Keyed by values rather than enumeration position, so reordering sweep
    axes (or the values inside an axis) never changes any cell's results.
    """
    import hashlib
    canon = repr((int(master_seed), tuple(sorted((k, repr(v)) for k, v in cell.items()))))
    digest = hashlib.sha256(canon.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def sweep_cells(spec: ExperimentSpec) -> list:
    """Cartesian product of the sweep axes, in canonical order."""
    axes = dict(spec.sweep)
    axes["seed_index"] = tuple(range(spec.sweep_seeds))
    names = sorted(axes)
    cells = [dict(zip(names, combo)) for combo in itertools.product(*(axes[n] for n in names))]
    cells.sort(key=lambda cell: tuple(sorted((k, repr(v)) for k, v in cell.items())))
    return cells


def _cell_fields(spec: ExperimentSpec, cell: dict) -> dict:
    """The config fields a sweep cell sets, its seed aside."""
    overrides = {k: v for k, v in cell.items() if k != "seed_index"}
    if "num_slots" in overrides:
        wanted = overrides["num_slots"]
        prominences = spec.chain or spec.config.prominences
        if len(prominences) < wanted:
            raise ConfigError("prominences too short for num_slots sweep")
        overrides["prominences"] = prominences[:wanted]
    return overrides


def _cell_config(spec: ExperimentSpec, cell: dict) -> AuctionConfig:
    seed = derive_subseed(spec.config.seed, cell)
    return replace(spec.config, seed=seed, **_cell_fields(spec, cell))


def run_cell(spec: ExperimentSpec, cell: dict):
    """Run one sweep cell and return its summary."""
    config = _cell_config(spec, cell)
    profiles = build_profiles(spec, config)
    result = dispatch_run(spec.mechanism, config, profiles)
    return result.summary


def _draw_instance(spec: ExperimentSpec, index: int):
    """A property-check instance: explicit profiles, or drawn sizes, rates, values and bids."""
    base = spec.config
    rng = np.random.default_rng(np.random.SeedSequence([int(base.seed), _INSTANCE_LAYER, index]))
    num_agents = base.num_agents
    if spec.agents_choices:
        num_agents = int(rng.choice(np.array(spec.agents_choices)))
    seed = derive_subseed(base.seed, {"instance": index})
    config = replace(base, num_agents=num_agents, seed=seed)
    if spec.ctrs is not None:
        return config, build_profiles(spec, config)
    ctrs, valuations = _draw_ctrs_and_valuations(spec, config, rng)
    bids = rng.uniform(0.0, config.v_max, num_agents)
    return config, _profiles(config, ctrs.tolist(), valuations.tolist(), bids.tolist())


def _dsic_reports(config, profiles, realization):
    from .strategy_lab import build_scenario, shared_learner, verify_dsic
    # learning ignores bids, so every deviator's scenario shares one learner
    learned = shared_learner(config, realization)
    for deviator in range(1, config.num_agents + 1):
        scenario = build_scenario(config, profiles, realization, deviator, learned)
        yield verify_dsic(config, profiles, scenario)


def _ir_reports(config, profiles, realization):
    from .strategy_lab import verify_ir
    yield verify_ir(config, profiles, realization)


# per check: one instance's reports, a finding's fields, and the summary's middle part
_CHECKS = {
    "dsic-check": (
        _dsic_reports,
        lambda r: f"deviator={r.deviator} bid={r.witness_bid:.6g} round={r.witness_round} "
        f"gain={r.worst_violation:.6g}",
        lambda reports: f"{len(reports)} scenarios, worst per-round gain "
        f"{max(r.worst_violation for r in reports):.3e}",
    ),
    "ir-check": (
        _ir_reports,
        lambda r: f"agent={r.witness_agent} round={r.witness_round} "
        f"utility={r.worst_utility:.6g}",
        lambda reports: f"worst per-round utility {min(r.worst_utility for r in reports):.3e}",
    ),
}


def property_check(command: str, spec: ExperimentSpec, instances: int) -> list:
    """Run one of ``_CHECKS`` over random instances; returns the (instance, report) violations."""
    _at_least_one("instances", instances)
    # the checks replay Δ-UCB with the slot count's price rule and the log-sized budget
    replayed = _delta_ucb_for(spec.config.num_slots)
    if spec.mechanism != replayed:
        raise ConfigError(f"mechanism: {command} replays {replayed}, not {spec.mechanism}")
    # loaded before the first draw: loaded between draws it left ~0.5 MiB more peak RSS
    from . import strategy_lab  # noqa: F401
    reports_of, finding, summary = _CHECKS[command]
    reports, findings = [], []
    for index in range(instances):
        config, profiles = _draw_instance(spec, index)
        realization = draw_realization(config, profiles)
        for report in reports_of(config, profiles, realization):
            reports.append(report)
            if not report.holds:
                findings.append((index, report))
                print(f"finding: instance={index} {finding(report)}")
    print(f"{command}: {instances} instances, {summary(reports)}, violations {len(findings)}")
    return findings


def _load_spec(args) -> ExperimentSpec:
    spec = parse_config_file(args.config)
    if getattr(args, "seed", None) is not None:
        spec.config = replace(spec.config, seed=args.seed)
    return spec


def _out_dir(path) -> Path:
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"out: cannot make directory {path}: {err}") from err
    return Path(path)


def _check_cells(spec: ExperimentSpec, cells) -> None:
    """Build every sweep cell's config and profiles, so a rejected cell fails before any runs.

    Drawn profiles lie in the checked ranges whatever the seed, so the master
    seed stands in for each cell's, and validate needs no sha256.
    """
    for cell in cells:
        build_profiles(spec, replace(spec.config, **_cell_fields(spec, cell)))


def _cmd_validate(args) -> int:
    spec = _load_spec(args)
    build_profiles(spec, spec.config)
    _check_cells(spec, sweep_cells(spec))
    print("config ok")
    return 0


def _cmd_run(args) -> int:
    spec = _load_spec(args)
    config = spec.config
    profiles = build_profiles(spec, config)
    out_dir = _out_dir(args.out) if args.out else None
    result = dispatch_run(spec.mechanism, config, profiles, rounds_log=args.rounds_log)
    if out_dir:
        emit_summary([result.summary], out_dir / f"summary.{args.format}", args.format)
        if result.log is not None:
            path = out_dir / f"rounds.{args.format}"
            emit_round_log(result.log, path, args.format, profiles, config)
    row = summary_row(result.summary)
    print(
        f"run: mechanism={row['mechanism']} seed={row['seed']} "
        f"delta_regret={fmt_num(row['total_delta_regret'])} "
        f"revenue={fmt_num(row['total_revenue'])} flags={row['flags'] or '-'}"
    )
    return 0


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    cells = sweep_cells(spec)
    print(f"sweep grid: {len(cells)} cells", file=sys.stderr)
    jobs = _at_least_one("jobs", spec.jobs if args.jobs is None else args.jobs)
    # the pool forks every worker at the first submit, so fork no more than there are cells
    workers = min(jobs, len(cells))
    _check_cells(spec, cells)
    out_dir = _out_dir(args.out)
    if workers > 1:
        # imported here: only a forking sweep needs multiprocessing and its imports
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(run_cell, [spec] * len(cells), cells))
    else:
        summaries = [run_cell(spec, cell) for cell in cells]
    emit_summary(summaries, out_dir / f"summary.{args.format}", args.format)
    print(f"sweep: wrote {len(summaries)} rows")
    return 0


def _cmd_check(args) -> int:
    findings = property_check(args.command, _load_spec(args), args.instances)
    return 1 if findings else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltaucb",
        description="Seeded auction-mechanism simulations and property checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", required=True, help="path to a key=value config file")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_run = sub.add_parser("run", help="one seeded simulation")
    common(p_run)
    p_run.add_argument("--out", default=None, help="directory for summary/rounds files")
    p_run.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_run.add_argument("--rounds-log", choices=ROUNDS_LOG_LEVELS, default="none", dest="rounds_log")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="cartesian experiment grid")
    common(p_sweep)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_sweep.add_argument("--jobs", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    for name, help_text in (
        ("dsic-check", "counterfactual truthfulness check"),
        ("ir-check", "nonnegative truthful utility check"),
    ):
        p_check = sub.add_parser(name, help=help_text)
        common(p_check)
        p_check.add_argument("--instances", type=int, default=10)
        p_check.set_defaults(func=_cmd_check)

    p_val = sub.add_parser("validate", help="config lint")
    common(p_val, seed=False)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    """CLI entry; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


def console_main() -> None:
    code = main()
    # every output file is closed by now: untracking the live objects spares the collections
    # at interpreter exit, which walk numpy's import (~15 ms of a ~0.15 s command)
    gc.freeze()
    sys.exit(code)
