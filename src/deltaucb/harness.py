"""CLI entry point: seeded runs, experiment sweeps, and property checks.

Config files are flat ``key = value`` text; unknown keys are errors. Every
emitted file is a pure function of the config and seed — no timestamps, no
environment leakage — so identical invocations produce byte-identical
output. Exit codes: 0 success, 1 property violation, 2 config error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from numpy._core.multiarray import dragon4_positional

from .core import AgentProfile, AuctionConfig, BaselineKind, ConfigError
from .core import validate_config, validate_profiles
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
_POW10 = np.array([float(10**i) for i in range(13)])  # 10**i, each exact in a double

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
    raw = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
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
    """Build an ExperimentSpec from already-split key/value strings."""
    values = {key: _parse_value(key, value) for key, value in raw.items()}
    for required in ("num_agents", "horizon", "delta"):
        if required not in values:
            raise ConfigError(f"missing required config key: {required}")
    config = validate_config(AuctionConfig(**_given(AuctionConfig, values)))
    values.setdefault("mechanism", _delta_ucb_for(config.num_slots))
    sweep = {
        axis: values[f"sweep_{axis}"]
        for axis in ("horizon", "delta", "num_agents", "num_slots")
        if f"sweep_{axis}" in values
    }
    spec = ExperimentSpec(config=config, sweep=sweep, **_given(ExperimentSpec, values))
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


def dispatch_run(mechanism: str, config, profiles, realization=None, rounds_log="none"):
    """Run the named mechanism and return its RunResult."""
    if mechanism == "delta-ucb-single":
        return run_single_slot(config, profiles, realization=realization, rounds_log=rounds_log)
    if mechanism == "delta-ucb-multi":
        from .mechanism_multi import run_multi_slot
        return run_multi_slot(config, profiles, realization=realization, rounds_log=rounds_log)
    if mechanism in _BASELINES:
        from .strategy_lab import run_baseline
        return run_baseline(
            BaselineKind(mechanism), config, profiles, realization=realization, rounds_log=rounds_log
        )
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
    config = validate_config(config)
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
    """Write equal-length columns as CSV or JSONL, ``_ROW_BLOCK`` rows at a time.

    CSV has a header row and renders floats with ``fmt_num`` and anything
    else with ``str``; JSONL has one object per row, keys sorted, values as
    ``json.dumps`` gives them. Columns may be lists or 1-D numpy arrays; a row
    holds what ``tolist`` gives. Each distinct text of a block's column is made
    once, with its separator (and JSONL key), and the rows gather them by index.
    """
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"unknown format: {fmt}")
    rows = min((len(column) for column in columns.values()), default=0)
    if fmt == "csv":
        names, cells, head = list(columns), _csv_cells, ",".join(columns) + "\n"
        keys, opener, sep, closer = [""] * len(names), "", ",", "\n"
    else:
        names, cells, head = sorted(columns), _jsonl_cells, "" if rows else "\n"
        keys, opener, sep, closer = [k + ": " for k in _jsonl_cells(names)[0]], "{", ", ", "}\n"
    befores = [p + k for p, k in zip([opener, *[sep] * (len(names) - 1)], keys)]
    afters = [*[""] * (len(names) - 1), closer]
    with Path(path).open("w") as fh:
        fh.write(head)
        for lo in range(0, rows, _ROW_BLOCK):
            parts = []
            for name, before, after in zip(names, befores, afters):
                column = columns[name][lo : min(lo + _ROW_BLOCK, rows)]
                texts, inverse = cells(column, before, after)
                parts.append(np.array(texts, dtype=object)[inverse])
            fh.write("".join(np.column_stack(parts).ravel().tolist()))


def _plain(column) -> list:
    return column.tolist() if isinstance(column, np.ndarray) else column


def _kind(column):
    """The dtype kind of a 1-D text, bool, integer or float (to 64 bits) array column, else None."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) and column.ndim == 1 else "O"
    return kind if kind in "Ubiu" or (kind == "f" and column.dtype.itemsize <= 8) else None


def _factorized(column) -> tuple:
    """A text column's distinct values and each row's index into them, by runs, without a sort."""
    starts = np.flatnonzero(np.r_[True, column[1:] != column[:-1]])
    heads = column[starts].tolist()
    index = {value: i for i, value in enumerate(dict.fromkeys(heads))}
    codes = np.fromiter(map(index.__getitem__, heads), np.intp, len(heads))
    return list(index), np.repeat(codes, np.diff(np.r_[starts, len(column)]))


def _csv_cells(column, before="", after="") -> tuple:
    """A column's distinct CSV texts, each between before and after (no '%'), and row indices."""
    kind = _kind(column)
    if kind in (None, "U"):
        distinct, inverse = _factorized(column) if kind else (_plain(column), slice(None))
        texts = [fmt_num(v) if isinstance(v, float) else str(v) for v in distinct]
        return [before + t + after for t in texts], inverse
    # fmt_num prints -0.0 as 0.0 and every nan as nan, the values unique merges
    distinct, inverse = np.unique(column, return_inverse=True)
    if kind == "f":
        return _float_texts(distinct, before, after), inverse
    return _batched(f"{before}%s{after}", distinct.tolist()), inverse  # str of each bool or int


def _jsonl_cells(column, before="", after="") -> tuple:
    """A column's distinct ``json.dumps`` texts, each between before and after, and row indices."""
    import json
    kind = _kind(column)
    if kind in (None, "U"):
        distinct, inverse = _factorized(column) if kind else (_plain(column), slice(None))
        return [before + json.dumps(v) + after for v in distinct], inverse
    # keyed by the bits: -0.0 and 0.0 are equal but encode differently. One dumps call encodes
    # the distinct numbers, whose texts hold no ", " or NUL, and the key texts hold no NUL
    bits, inverse = np.unique(column.view(f"u{column.dtype.itemsize}"), return_inverse=True)
    listed = json.dumps(bits.view(column.dtype).tolist())[1:-1]
    return (before + listed.replace(", ", f"{after}\0{before}") + after).split("\0"), inverse


def _batched(form: str, values: list) -> list:
    """``form % v`` for each value, in one formatting call; form holds no NUL."""
    return (f"{form}\0" * len(values) % tuple(values)).split("\0")[:-1]


def _float_texts(values, before="", after="") -> list:
    """``fmt_num`` of each value of a float array, each between before and after (no '%').

    A value v in [1, 1e11) with e + 1 integer digits takes one ``'%.{11-e}f'``
    call per decade, which gives ``fmt_num``'s text exactly where it is used:
    - e is ``log10``'s, corrected by exact compares with 10.0**e (exact to e = 22);
    - y = v·10^(11-e) is rounded once and rounding is monotone, so y < 10^12 - 1/2
      (a double) only where the exact product is too: v rounded to 11 - e places
      then has 12 digits, with no carry into the next decade;
    - Python's formatting and Dragon4 (``fmt_num``) both round v correctly, exact
      ties to even, and from 1 up Dragon4 prints all 12 digits; its 11-digit
      form occurs only below 1.
    Every other value (below 1, from 1e11, zero, non-finite, or a carry into the
    next decade) goes through ``fmt_num`` itself.
    """
    v = values.astype(np.float64)
    texts = np.empty(len(v), dtype=object)
    # only finite values >= 1 reach the arithmetic, so no value can raise a numpy warning
    at = np.flatnonzero((v >= 1.0) & (v < 1e11))
    x = v[at]
    e = np.log10(x).astype(np.intp)
    e = e - (x < _POW10[e]) + (x >= _POW10[e + 1])
    fixed = x * _POW10[11 - e] < 999_999_999_999.5
    at, e = at[fixed], e[fixed]
    for decade in np.flatnonzero(np.bincount(e)).tolist():
        group = at[e == decade]
        texts[group] = _batched(f"{before}%.{11 - decade}f{after}", v[group].tolist())
    rest = np.isin(np.arange(len(v)), at, invert=True)
    texts[rest] = [before + fmt_num(x) + after for x in v[rest].tolist()]
    return texts.tolist()


def summary_row(summary) -> dict:
    utilities = ";".join(
        fmt_num(summary.per_agent_utility[agent]) for agent in sorted(summary.per_agent_utility)
    )
    return {
        "mechanism": summary.mechanism,
        "seed": summary.seed,
        "num_agents": summary.num_agents,
        "num_slots": summary.num_slots,
        "horizon": summary.horizon,
        "delta": summary.delta,
        "v_max": summary.v_max,
        "exploration_budget": summary.exploration_budget,
        "exploration_rounds_used": summary.exploration_rounds_used,
        "total_delta_regret": summary.total_delta_regret,
        "exploration_delta_regret": summary.exploration_delta_regret,
        "exploitation_delta_regret": summary.exploitation_delta_regret,
        "total_standard_regret": summary.total_standard_regret,
        "total_revenue": summary.total_revenue,
        "total_welfare": summary.total_welfare,
        "delta_regret_over_logT": summary.total_delta_regret / math.log(summary.horizon)
        if summary.horizon > 1
        else float("nan"),
        "winners": ";".join(str(w) for w in summary.winners),
        "per_agent_utility": utilities,
        "flags": ";".join(summary.flags),
    }


def emit_summary(summaries, path, fmt) -> None:
    """Write one summary record per run/cell as CSV or JSONL; ``summary_row`` sets the columns."""
    rows = [summary_row(s) for s in summaries]
    write_table({col: [row[col] for row in rows] for col in rows[0]}, path, fmt)


def derive_subseed(master_seed: int, cell: dict) -> int:
    """Sub-seed from the master seed and the cell's parameter *values*.

    Keyed by values rather than enumeration position, so reordering sweep
    axes (or the values inside an axis) never changes any cell's results.
    """
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


def _cell_config(spec: ExperimentSpec, cell: dict) -> AuctionConfig:
    overrides = {k: v for k, v in cell.items() if k != "seed_index"}
    config = spec.config
    if "num_slots" in overrides and config.prominences is not None:
        wanted = overrides["num_slots"]
        if len(config.prominences) < wanted:
            raise ConfigError("prominences too short for num_slots sweep")
        config = replace(config, prominences=config.prominences[:wanted])
    config = replace(config, seed=derive_subseed(spec.config.seed, cell), **overrides)
    return validate_config(config)


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
    config = validate_config(
        replace(base, num_agents=num_agents, seed=derive_subseed(base.seed, {"instance": index}))
    )
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


def property_check(command: str, spec: ExperimentSpec, instances: int, out=None) -> list:
    """Run one of ``_CHECKS`` over random instances; returns the (instance, report) violations."""
    _at_least_one("instances", instances)
    # the checks replay Δ-UCB with the slot count's price rule and the log-sized budget
    replayed = _delta_ucb_for(spec.config.num_slots)
    if spec.mechanism != replayed:
        raise ConfigError(f"mechanism: {command} replays {replayed}, not {spec.mechanism}")
    out = out if out is not None else sys.stdout
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
                print(f"finding: instance={index} {finding(report)}", file=out)
    print(
        f"{command}: {instances} instances, {summary(reports)}, violations {len(findings)}",
        file=out,
    )
    return findings


def _load_spec(args) -> ExperimentSpec:
    spec = parse_config_file(args.config)
    if getattr(args, "seed", None) is not None:
        spec.config = validate_config(replace(spec.config, seed=args.seed))
    return spec


def _cmd_validate(args) -> int:
    spec = _load_spec(args)
    build_profiles(spec, spec.config)
    for cell in sweep_cells(spec):
        build_profiles(spec, _cell_config(spec, cell))
    print("config ok")
    return 0


def _cmd_run(args) -> int:
    spec = _load_spec(args)
    config = spec.config
    profiles = build_profiles(spec, config)
    realization = draw_realization(config, profiles)
    result = dispatch_run(
        spec.mechanism, config, profiles, realization=realization, rounds_log=args.rounds_log
    )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
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
    if workers > 1:
        # imported here: only a forking sweep needs multiprocessing and its imports
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(run_cell, [spec] * len(cells), cells))
    else:
        summaries = [run_cell(spec, cell) for cell in cells]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    sys.exit(main())
