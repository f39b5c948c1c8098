import ast
import concurrent.futures
import contextlib
import csv
import functools
import hashlib
import io
import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from collections import defaultdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deltaucb import harness
from deltaucb.core import AuctionConfig, ConfigError, gammas_from_lambdas
from deltaucb.harness import (
    _FLOAT_KEYS,
    _FLOAT_LIST_KEYS,
    _INT_KEYS,
    _INT_LIST_KEYS,
    _STR_KEYS,
    ExperimentSpec,
    derive_subseed,
    fmt_num,
    main,
    parse_config_file,
    spec_from_values,
)

DATA = Path(__file__).parent / "data"
ROUND_LOG_HEADER = "t,phase,slot,agent,click,payment,delta_regret_cum,regret_cum,revenue_cum"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASIC = """
num_agents = 3
horizon = 200
delta = 1.2
v_max = 1.0
seed = 11
ctrs = 0.8, 0.5, 0.2
valuations = 1.0, 0.7, 0.4
"""

MULTI = """
num_agents = 3
num_slots = 2
horizon = 60
delta = 2.5
seed = 5
prominences = 1.0, 0.6
ctrs = 0.8, 0.5, 0.2
valuations = 1.0, 0.7, 0.4
"""


def test_parse_rejects_unknown_key(tmp_path):
    path = _write(tmp_path, "bad.cfg", BASIC + "typo_key = 3\n")
    with pytest.raises(ConfigError, match="unknown config key: typo_key"):
        parse_config_file(path)


def test_parse_rejects_missing_required(tmp_path):
    path = _write(tmp_path, "bad.cfg", "num_agents = 3\nhorizon = 10\n")
    with pytest.raises(ConfigError, match="missing required config key: delta"):
        parse_config_file(path)


def test_parse_leaves_absent_keys_to_the_dataclass_defaults(tmp_path):
    minimal = "num_agents = 3\nhorizon = 200\ndelta = 1.2\n"
    spec = parse_config_file(_write(tmp_path, "minimal.cfg", minimal))
    config = AuctionConfig(num_agents=3, horizon=200, delta=1.2)
    assert spec == ExperimentSpec(config=config, mechanism="delta-ucb-single")
    two_slots = minimal + "num_slots = 2\nprominences = 1.0, 0.5\n"
    spec = parse_config_file(_write(tmp_path, "two_slots.cfg", two_slots))
    config = AuctionConfig(3, 200, 1.2, num_slots=2, prominences=(1.0, 0.5))
    assert spec == ExperimentSpec(config=config, mechanism="delta-ucb-multi")


def test_parse_rejects_duplicate_key(tmp_path):
    path = _write(tmp_path, "bad.cfg", BASIC + "seed = 12\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(path)


def test_validate_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "good.cfg", BASIC)
    assert main(["validate", "--config", good]) == 0
    bad = _write(
        tmp_path,
        "bad.cfg",
        "num_agents = 2\nnum_slots = 3\nhorizon = 10\ndelta = 0.5\nprominences = 1.0,0.5,0.2\n",
    )
    assert main(["validate", "--config", bad]) == 2
    assert "num_slots exceeds num_agents" in capsys.readouterr().err


def test_run_is_byte_deterministic(tmp_path):
    cfg = _write(tmp_path, "run.cfg", BASIC)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--rounds-log", "all"]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--rounds-log", "all"]) == 0
    for name in ("rounds.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_round_log_schema_single_slot(tmp_path):
    cfg = _write(tmp_path, "run.cfg", BASIC)
    main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--rounds-log", "all"])
    lines = (tmp_path / "out" / "rounds.csv").read_text().splitlines()
    assert lines[0] == ROUND_LOG_HEADER
    assert len(lines) == 1 + 200  # header + one row per round for a single slot
    reader = csv.DictReader(lines)
    for row in reader:
        if row["phase"] == "exploration":
            assert row["payment"] == "0.000000000000"


def test_round_log_row_count_multi_slot(tmp_path):
    cfg = _write(tmp_path, "multi.cfg", MULTI)
    main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--rounds-log", "all"])
    lines = (tmp_path / "out" / "rounds.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 60  # one row per slot per round


def test_exploit_only_log_level(tmp_path):
    cfg = _write(tmp_path, "run.cfg", BASIC)
    main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--rounds-log", "exploit-only"])
    lines = (tmp_path / "out" / "rounds.csv").read_text().splitlines()
    phases = {line.split(",")[1] for line in lines[1:]}
    assert phases == {"exploitation"}


def test_exploration_only_run_is_flagged(tmp_path):
    cfg = _write(
        tmp_path,
        "tiny.cfg",
        "num_agents = 2\nhorizon = 50\ndelta = 0.1\nseed = 1\nctrs = 0.9, 0.1\n",
    )
    main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    rows = list(csv.DictReader((tmp_path / "out" / "summary.csv").read_text().splitlines()))
    assert rows[0]["flags"] == "exploration-only"
    assert float(rows[0]["total_revenue"]) == 0.0
    assert rows[0]["winners"] == ""


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, "run.cfg", BASIC)
    main(["run", "--config", cfg, "--out", str(tmp_path / "base")])
    main(["run", "--config", cfg, "--out", str(tmp_path / "other"), "--seed", "99"])
    base = list(csv.DictReader((tmp_path / "base" / "summary.csv").read_text().splitlines()))
    other = list(csv.DictReader((tmp_path / "other" / "summary.csv").read_text().splitlines()))
    assert base[0]["seed"] == "11" and other[0]["seed"] == "99"
    assert base[0]["total_revenue"] != other[0]["total_revenue"]


def test_subseed_ignores_dict_order():
    assert derive_subseed(5, {"a": 1, "b": 2.5}) == derive_subseed(5, {"b": 2.5, "a": 1})
    assert derive_subseed(5, {"a": 1}) != derive_subseed(6, {"a": 1})


def test_sweep_axis_value_order_never_changes_results(tmp_path):
    base = BASIC + "sweep_seeds = 3\n"
    fwd = _write(tmp_path, "fwd.cfg", base + "sweep_delta = 0.8, 1.2\n")
    rev = _write(tmp_path, "rev.cfg", base + "sweep_delta = 1.2, 0.8\n")
    main(["sweep", "--config", fwd, "--out", str(tmp_path / "fwd")])
    main(["sweep", "--config", rev, "--out", str(tmp_path / "rev")])
    assert (tmp_path / "fwd" / "summary.csv").read_bytes() == (
        tmp_path / "rev" / "summary.csv"
    ).read_bytes()


def test_sweep_reports_grid_size_before_running(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", BASIC + "sweep_horizon = 100, 200\nsweep_seeds = 2\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert "sweep grid: 4 cells" in captured.err
    rows = list(csv.DictReader((tmp_path / "out" / "summary.csv").read_text().splitlines()))
    assert len(rows) == 4


def test_sweep_log_growth_ratio(tmp_path):
    """Tolerance regret per unit of log-horizon stays flat across decades."""
    cfg = _write(
        tmp_path,
        "growth.cfg",
        "num_agents = 2\nhorizon = 1000\ndelta = 0.5\nseed = 7\n"
        "ctrs = 0.9, 0.2\nvaluations = 1.0, 1.0\n"
        "sweep_horizon = 1000, 10000, 100000\nsweep_seeds = 50\n",
    )
    main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
    rows = list(csv.DictReader((tmp_path / "out" / "summary.csv").read_text().splitlines()))
    assert len(rows) == 150
    by_horizon = defaultdict(list)
    for row in rows:
        by_horizon[row["horizon"]].append(float(row["delta_regret_over_logT"]))
    means = [sum(vals) / len(vals) for vals in by_horizon.values()]
    assert len(means) == 3
    center = sum(means) / len(means)
    assert (max(means) - min(means)) / center <= 0.2


def test_parallel_sweep_matches_sequential(tmp_path):
    cfg = _write(tmp_path, "par.cfg", BASIC + "sweep_horizon = 100, 200\nsweep_seeds = 2\n")
    main(["sweep", "--config", cfg, "--out", str(tmp_path / "seq")])
    main(["sweep", "--config", cfg, "--out", str(tmp_path / "par"), "--jobs", "2"])
    assert (tmp_path / "seq" / "summary.csv").read_bytes() == (
        tmp_path / "par" / "summary.csv"
    ).read_bytes()


def test_dsic_check_cli_passes_on_single_slot(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "dsic.cfg",
        "num_agents = 3\nhorizon = 2000\ndelta = 0.45\nseed = 3\nagents_choices = 2, 3, 4\n",
    )
    assert main(["dsic-check", "--config", cfg, "--instances", "10"]) == 0
    out = capsys.readouterr().out
    assert "dsic-check: 10 instances" in out
    assert "violations 0" in out


def test_ir_check_cli_passes_on_single_slot(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "ir.cfg",
        "num_agents = 4\nhorizon = 1500\ndelta = 0.5\nseed = 8\n",
    )
    assert main(["ir-check", "--config", cfg, "--instances", "10"]) == 0
    assert "violations 0" in capsys.readouterr().out


def test_jsonl_round_log(tmp_path):
    cfg = _write(tmp_path, "run.cfg", BASIC)
    main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--format", "jsonl",
          "--rounds-log", "all"])
    lines = (tmp_path / "out" / "rounds.jsonl").read_text().splitlines()
    assert len(lines) == 200
    first = json.loads(lines[0])
    assert set(first) == set(ROUND_LOG_HEADER.split(","))
    summary = json.loads((tmp_path / "out" / "summary.jsonl").read_text().splitlines()[0])
    assert summary["mechanism"] == "delta-ucb-single"


def test_one_round_summary_is_strict_json(tmp_path):
    # ln 1 = 0, so a one-round run's delta_regret_over_logT is NaN, which JSON cannot hold
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    cfg = _write(tmp_path, "one.cfg", BASIC.replace("horizon = 200", "horizon = 1"))
    for fmt in ("jsonl", "csv"):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / fmt), "--format", fmt,
                     "--rounds-log", "all"]) == 0
    rounds = (tmp_path / "jsonl" / "rounds.jsonl").read_text().splitlines()
    assert [json.loads(line, parse_constant=refuse)["t"] for line in rounds] == [1]
    summary = json.loads((tmp_path / "jsonl" / "summary.jsonl").read_text(), parse_constant=refuse)
    assert summary["delta_regret_over_logT"] is None
    with open(tmp_path / "csv" / "summary.csv", newline="") as fh:
        assert next(csv.DictReader(fh))["delta_regret_over_logT"] == "nan"


def test_fmt_num_renderings():
    assert fmt_num(0.0) == "0.000000000000"
    assert fmt_num(0.5) == "0.50000000000"
    assert len(fmt_num(14.7483688681).replace(".", "").lstrip("0")) <= 12
    # the digit count follows the last bits, and the golden files hold both forms
    assert fmt_num(0.275) == "0.275000000000"
    assert fmt_num(0.27499999999999997) == "0.27500000000"
    # below 1 a value whose digits stop early pads to 11 places; from 1 up, 12 digits always
    assert fmt_num(0.3) == "0.30000000000"
    assert fmt_num(0.0625) == "0.06250000000"
    assert fmt_num(1.5) == "1.50000000000"
    assert fmt_num(12.5) == "12.5000000000"
    assert fmt_num(9.9999999999995) == "10.0000000000"


# _render12 calls numpy's private Dragon4 entry point; this fails if that API drifts
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@example(x=0.27499999999999997)
@example(x=9.9999999999995)
@example(x=5e-324)
@example(x=-1.7976931348623157e308)
@example(x=-0.0)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_render12_is_format_float_positional(x):
    public = np.format_float_positional(x, precision=12, unique=False, fractional=False, trim="k")
    assert harness._render12(x) == public


def _reference_write_table(columns, path, fmt):
    """The per-row writer that write_table replaced, fed plain values as round_log_rows was."""
    columns = {
        name: column.tolist() if isinstance(column, np.ndarray) else column
        for name, column in columns.items()
    }
    rows = zip(*columns.values())
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [
            ",".join(fmt_num(v) if isinstance(v, float) else str(v) for v in row) for row in rows
        ]
    elif fmt == "jsonl":
        # JSON has no NaN or infinities, so a non-finite float is written as null
        rows = ([None if isinstance(v, float) and not math.isfinite(v) else v for v in row]
                for row in rows)
        lines = [json.dumps(dict(zip(columns, row)), sort_keys=True) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# values whose rendering carries into another digit count, and the subnormal edges
_CARRIES = [0.275, 0.27499999999999997, 9.9999999999995, 0.5, 1e-12, 1e15]
_SUBNORMALS = [5e-324, 2.2250738585072009e-308]
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, *_CARRIES, *_SUBNORMALS]),
    st.floats(1e-12, 1e15).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
# a column kind: its values, and the array dtype it is stored as (None: a Python list)
_COLUMN_KINDS = [
    (_FLOATS, np.float64),
    (_FLOATS, None),
    (st.floats(width=32, allow_nan=True), np.float32),
    (st.floats(width=16, allow_nan=True), np.float16),
    (st.sampled_from([-0.0, 0.0]), np.float64),  # equal values that JSON encodes apart
    (st.integers(-(2**63), 2**63 - 1), np.int64),
    (st.integers(-(2**70), 2**70), None),
    (st.integers(0, 255), np.uint8),
    (st.booleans(), np.bool_),
    (_TEXT, np.str_),
    (_TEXT, None),
    (st.one_of(st.integers(-5, 5), _FLOATS), None),  # mixed, like a summary column
]


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 24))
    names = draw(st.lists(st.text("abcz_", min_size=1, max_size=4), max_size=5, unique=True))
    columns = {}
    for name in names:
        values, dtype = draw(st.sampled_from(_COLUMN_KINDS))
        # a few distinct values, repeated, beside fresh ones
        pool = draw(st.lists(values, min_size=1, max_size=4))
        cells = st.one_of(st.sampled_from(pool), values)
        column = draw(st.lists(cells, min_size=rows, max_size=rows))
        columns[name] = column if dtype is None else np.array(column, dtype=dtype)
    return columns


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(columns=_tables(), block=st.sampled_from([1, 2, 7, harness._ROW_BLOCK]))
def test_write_table_matches_the_per_row_writer(tmp_path_factory, columns, block):
    out = tmp_path_factory.mktemp("table")
    for fmt in ("csv", "jsonl"):
        _reference_write_table(columns, out / f"reference.{fmt}", fmt)
        with mock.patch.object(harness, "_ROW_BLOCK", block):
            harness.write_table(columns, out / f"table.{fmt}", fmt)
        assert (out / f"table.{fmt}").read_bytes() == (out / f"reference.{fmt}").read_bytes(), fmt


# float cells write_table must render as fmt_num does: the specials, extremes and a carry
_FLOAT_EDGES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, -1e300, -0.5,
    0.27499999999999997, 0.275, 65504.0, 6e-8,
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(dtype=np.float64, values=_FLOAT_EDGES)
@example(dtype=np.float32, values=_FLOAT_EDGES)
@example(dtype=np.float16, values=_FLOAT_EDGES)
@given(
    dtype=st.sampled_from([np.float64, np.float32, np.float16]),
    values=st.lists(st.one_of(st.sampled_from(_FLOAT_EDGES), st.floats()), max_size=40),
)
def test_float_cells_match_fmt_num(dtype, values):
    with np.errstate(over="ignore"):
        column = np.array(values).astype(dtype)
    assert _column_texts(column) == [fmt_num(v) for v in column]


def _texts(matrix) -> list:
    """The texts of a NUL-padded byte matrix, one per row."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in matrix]


def _column_texts(column) -> list:
    """The CSV text of each cell of an array column, as write_table renders it."""
    texts, runs = harness._cells(column, "csv", "column", math.inf)
    return _texts(np.repeat(texts, runs, axis=0))


_INT_EDGES = [-(2**63), 2**63 - 1, -(10**12), -1, 0, 1, 9, 10, 99, 100, 10**12 - 1, 10**12,
              10**12 + 1, 10**13]


@pytest.mark.parametrize(
    "column",
    [
        np.array(_INT_EDGES, dtype=np.int64),
        np.array([0, 2**64 - 1, 10**12, 10**12 + 1], dtype=np.uint64),
        np.arange(256, dtype=np.uint8),
        np.arange(-128, 128, dtype=np.int8),
        np.array([True, False, False, True]),
        np.array([7, 7, 7, 12, 7], dtype=np.int32),
    ],
    ids=["int64", "uint64", "uint8", "int8", "bool", "runs"],
)
def test_integer_cells_match_str(column):
    assert _column_texts(column) == [str(v) for v in column.tolist()]
    if column.dtype.kind in "iu":
        assert _texts(harness._int_matrix(column)) == [str(v) for v in column.tolist()]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(0, 10**12 + 1), max_size=40))
def test_int_matrix_matches_str(values):
    column = np.array(values, dtype=np.int64)
    assert _texts(harness._int_matrix(column)) == [str(v) for v in values]


def _either_side(values):
    """Each value and the doubles one ulp below and above it."""
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


@functools.cache
def _adversarial_floats() -> dict:
    """Classes of floats where a fixed-point shortcut could part from fmt_num, 10^4 or more each."""
    rng = np.random.default_rng(20_261_018)
    n = 10_000
    decades = rng.integers(0, 11, n)
    # a / 2^(12-e) with a odd is exactly halfway at the 13th significant digit
    scale = 2.0 ** (12 - decades)
    ties = (np.floor(rng.uniform(10.0**decades, 10.0 ** (decades + 1)) * scale / 2) * 2 + 1) / scale
    # 13 digits ending in 5, and 13 digits whose rounding carries through trailing nines,
    # scaled from 1e-12 to 1e12; Python's int / int is correctly rounded
    fives = [int(m) * 10 + 5 for m in rng.integers(10**11, 10**12, n)]
    nines = []
    for k, d in zip(rng.integers(1, 13, n).tolist(), rng.integers(5, 10, n).tolist()):
        prefix = int(rng.integers(10 ** (11 - k), 10 ** (12 - k))) if k < 12 else 0
        nines.append(((prefix + 1) * 10**k - 1) * 10 + d)
    shifts = rng.integers(1, 25, n).tolist()
    powers = np.array([float(10**e) if e >= 0 else 10.0**e for e in range(-30, 31)])
    steps = np.arange(-90, 91)
    # halves at the 13th significant digit, (2m + 1)/2 · 10^(e-11) for 12-digit m, in each
    # decade e from -2 to 12, and the doubles within 2 ulp of them
    exps = rng.integers(-2, 13, n).tolist()
    halves = np.array(
        [
            (2 * int(m) + 1) * 10 ** max(e, 0) / (2 * 10 ** (11 - min(e, 0)))
            for m, e in zip(rng.integers(10**11, 10**12, n), exps)
        ]
    )
    near_halves = (halves.view(np.int64)[:, None] + np.arange(-2, 3)).ravel().view(np.float64)
    subnormal = rng.integers(1, 2**52, n).view(np.float64)
    payloads = (rng.integers(1, 2**52, n) | np.int64(0x7FF0000000000000)).view(np.float64)
    return {
        "ties": _either_side(ties),
        "fives": _either_side(np.array([m / 10**s for m, s in zip(fives, shifts)])),
        "nines": _either_side(np.array([m / 10**s for m, s in zip(nines, shifts)])),
        "powers": (powers.view(np.int64)[:, None] + steps).ravel().view(np.float64),
        "1e11-1e12": np.concatenate([rng.uniform(1e11, 1e12, n), 10 ** rng.uniform(11, 12, n)]),
        "negative": -np.concatenate([ties, 10 ** rng.uniform(-12, 15, n)]),
        "special": np.concatenate(
            [subnormal, -subnormal, payloads, -payloads, [np.inf, -np.inf, 0.0, -0.0]]
        ),
        "float32": np.concatenate(
            [
                rng.integers(0, 2**32, n, dtype=np.uint32).view(np.float32),
                rng.uniform(0, 1e6, n).astype(np.float32),
            ]
        ),
        "float16": np.arange(2**16, dtype=np.uint16).view(np.float16),
        "near-halves": near_halves,
    }


@pytest.mark.parametrize(
    "kind",
    [
        "ties", "fives", "nines", "powers", "1e11-1e12", "negative", "special", "float32", "float16",
        "near-halves",
    ],
)
def test_float_texts_match_fmt_num_on_adversarial_values(kind):
    values = _adversarial_floats()[kind]
    assert values.size >= 10_000
    distinct = np.unique(values)
    assert _texts(harness._float_matrix(distinct)) == [fmt_num(v) for v in distinct]


def test_write_table_raises_no_numpy_warnings(tmp_path):
    floats = [math.nan, math.inf, -math.inf, -2.5, -0.0, 0.0, 0.5, 3.25, 6e4, -5e-324]
    columns = {
        "f64": np.array(floats),
        "f32": np.array(floats, dtype=np.float32),
        "f16": np.array(floats, dtype=np.float16),
        "i64": np.arange(-5, 5),
        "text": np.array(["a", "b"] * 5),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fmt in ("csv", "jsonl"):
            harness.write_table(columns, tmp_path / f"table.{fmt}", fmt)
    assert (tmp_path / "table.csv").read_text().splitlines()[1].startswith("nan,nan,nan,-5,a")


def test_one_wide_cell_widens_only_the_rows_written_with_it(tmp_path):
    import tracemalloc

    text = ["x"] * harness._ROW_BLOCK
    text[40_000] = "w" * 2**20
    columns = {"t": np.arange(len(text)), "text": text}
    tracemalloc.start()
    try:
        harness.write_table(columns, tmp_path / "table.csv", "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # padded to the wide cell, the block's matrix would take 64 GiB
    assert peak < 4 * harness._BLOCK_BYTES, peak
    _reference_write_table(columns, tmp_path / "reference.csv", "csv")
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("column", [np.array(["a", "b\0c"]), ["a", "b\0c"]], ids=["array", "list"])
def test_csv_text_cells_holding_nul_are_refused(tmp_path, column):
    columns = {"t": np.arange(2), "note": column}
    with pytest.raises(ValueError, match="column note"):
        harness.write_table(columns, tmp_path / "table.csv", "csv")
    # JSON escapes the NUL, so JSONL writes it
    harness.write_table(columns, tmp_path / "table.jsonl", "jsonl")
    _reference_write_table(columns, tmp_path / "reference.jsonl", "jsonl")
    assert (tmp_path / "table.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()


def test_non_ascii_text_is_written_as_utf8(tmp_path):
    texts = ["é", "日本語", "x", "🙂", "x"]
    columns = {"t": np.arange(5), "array": np.array(texts), "list": texts}
    for fmt in ("csv", "jsonl"):
        harness.write_table(columns, tmp_path / f"table.{fmt}", fmt)
        _reference_write_table(columns, tmp_path / f"reference.{fmt}", fmt)
        assert (tmp_path / f"table.{fmt}").read_bytes() == (
            tmp_path / f"reference.{fmt}"
        ).read_bytes()
    assert "🙂" in (tmp_path / "table.csv").read_text(encoding="utf-8")


def test_run_loads_only_what_it_runs(tmp_path):
    # a single-slot CSV run needs neither the checks, the multi-slot price rule nor json; and
    # numpy.ma, which np.unique loads when asked for the values alone, costs ~30 ms. validate,
    # run first, needs no hashlib either (~2.4 ms); run loads it through numpy.random
    cfg = str(DATA / "golden.cfg")
    validate = ["validate", "--config", cfg]
    run = ["run", "--config", cfg, "--out", str(tmp_path), "--format", "csv", "--rounds-log", "all"]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    unused = ("deltaucb.strategy_lab", "deltaucb.mechanism_multi", "json", "numpy.ma")
    unused_by_validate = (*unused, "hashlib")
    code = (
        "import sys; from deltaucb.harness import main; "
        "loaded = lambda names: [m for m in names if m in sys.modules]; "
        f"code = main({validate!r}); print(code, loaded({unused_by_validate!r})); "
        f"code = main({run!r}); print(code, loaded({unused!r}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1] == "0 []" and lines[-1] == "0 []", done.stdout
    assert (tmp_path / "rounds.csv").read_bytes() == (DATA / "golden_rounds.csv").read_bytes()


def test_write_table_with_no_rows(tmp_path):
    columns = {"t": np.array([], dtype=np.int64), "payment": []}
    for fmt, expected in (("csv", b"t,payment\n"), ("jsonl", b"\n")):
        harness.write_table(columns, tmp_path / f"empty.{fmt}", fmt)
        assert (tmp_path / f"empty.{fmt}").read_bytes() == expected


def test_golden_files_are_stable(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(DATA / "golden.cfg"), "--out", str(out),
                 "--rounds-log", "all"]) == 0
    assert (out / "rounds.csv").read_bytes() == (DATA / "golden_rounds.csv").read_bytes()
    assert (out / "summary.csv").read_bytes() == (DATA / "golden_summary.csv").read_bytes()


@pytest.mark.parametrize(
    "config_name, fmt, stem",
    [
        ("golden_multi.cfg", "csv", "golden_multi"),
        ("golden.cfg", "jsonl", "golden"),
        ("golden_multi.cfg", "jsonl", "golden_multi"),
    ],
)
def test_golden_files_cover_multi_slot_and_jsonl(tmp_path, config_name, fmt, stem):
    out = tmp_path / "out"
    assert main(["run", "--config", str(DATA / config_name), "--out", str(out),
                 "--rounds-log", "all", "--format", fmt]) == 0
    assert (out / f"rounds.{fmt}").read_bytes() == (DATA / f"{stem}_rounds.{fmt}").read_bytes()
    assert (out / f"summary.{fmt}").read_bytes() == (DATA / f"{stem}_summary.{fmt}").read_bytes()


@pytest.mark.parametrize(
    "mechanism, rounds_log, stem",
    [
        (None, "exploit-only", "golden_exploit"),
        ("oracle", "all", "golden_oracle"),
        ("plain-ucb", "all", "golden_plain_ucb"),
    ],
)
def test_golden_files_cover_exploit_only_and_baselines(tmp_path, mechanism, rounds_log, stem):
    text = (DATA / "golden.cfg").read_text()
    if mechanism is not None:
        text += f"mechanism = {mechanism}\n"
    cfg = _write(tmp_path, "golden.cfg", text)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--rounds-log", rounds_log]) == 0
    summary = DATA / ("golden_summary.csv" if mechanism is None else f"{stem}_summary.csv")
    assert (out / "rounds.csv").read_bytes() == (DATA / f"{stem}_rounds.csv").read_bytes()
    assert (out / "summary.csv").read_bytes() == summary.read_bytes()


def test_golden_files_cover_drawn_profiles(tmp_path):
    """Profiles drawn from explicit generator ranges at v_max = 2, both phases present."""
    out = tmp_path / "out"
    assert main(["run", "--config", str(DATA / "golden_drawn.cfg"), "--out", str(out),
                 "--rounds-log", "all"]) == 0
    assert (out / "rounds.csv").read_bytes() == (DATA / "golden_drawn_rounds.csv").read_bytes()
    assert (out / "summary.csv").read_bytes() == (DATA / "golden_drawn_summary.csv").read_bytes()


# the benchmark's rounds-log-1e5 run (perfbench/run.py, default seed): two 65,536-row blocks
# whose payment and running-total columns change value in long runs and short ones
ROUNDS_LOG_1E5 = """num_agents = 5
horizon = 100000
delta = 0.2
v_max = 1.0
seed = 7
ctrs = 0.9, 0.6, 0.5, 0.3, 0.1
valuations = 1.0, 1.0, 1.0, 1.0, 1.0
"""
ROUNDS_LOG_1E5_SHA256 = {
    "rounds.csv": "d98023e19d0770351aacf8ccefe3935b872b54079d61740c17419146179f1dcc",
    "summary.csv": "bd6008315c88607a850e09d3f83a4a1b8e9d028f62ffdd52781c582373da3a41",
    "rounds.jsonl": "6b71a83d4066a565243f58b1a24069c533316a6b8797da419939f88edb0922c7",
    "summary.jsonl": "4f0194abcda73ce9173efab68bc03e9d2266306c03f811f9da0ee8fd28da2f08",
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_benchmark_round_log_digests_are_stable(tmp_path, fmt):
    cfg = _write(tmp_path, "rounds_log_1e5.cfg", ROUNDS_LOG_1E5)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--rounds-log", "all",
                 "--format", fmt]) == 0
    for name in (f"rounds.{fmt}", f"summary.{fmt}"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == ROUNDS_LOG_1E5_SHA256[name], name


def test_golden_sweep_summary_is_stable(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(DATA / "golden_sweep.cfg"), "--out", str(out)]) == 0
    assert (out / "summary.csv").read_bytes() == (DATA / "golden_sweep_summary.csv").read_bytes()


@pytest.mark.parametrize(
    "config_name, command, code",
    [
        ("dsic_multi", "dsic-check", 1),
        ("ir_multi", "ir-check", 1),
        ("ir_multi", "dsic-check", 1),
        ("one_agent", "dsic-check", 0),
        ("one_agent", "ir-check", 0),
        ("explore_only", "dsic-check", 0),
        ("explore_only", "ir-check", 0),
        ("drawn", "dsic-check", 1),
        ("drawn", "ir-check", 1),
        ("late", "dsic-check", 1),
        ("late", "ir-check", 1),
    ],
)
def test_golden_check_outputs_are_stable(capsys, config_name, command, code):
    cfg = DATA / f"golden_check_{config_name}.cfg"
    assert main([command, "--config", str(cfg), "--instances", "6"]) == code
    expected = DATA / f"golden_check_{config_name}_{command.removesuffix('-check')}.txt"
    assert capsys.readouterr().out == expected.read_text()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("line", ["v_max = inf", "delta = inf"])
def test_infinite_delta_or_v_max_is_a_config_error(tmp_path, capsys, command, line):
    text = BASIC.replace("v_max = 1.0", "").replace("delta = 1.2", "") + line + "\n"
    if line.startswith("v_max"):
        text += "delta = 1.2\n"
    cfg = _write(tmp_path, "inf.cfg", text)
    assert main([command, "--config", cfg]) == 2
    assert "positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["100", "0.9"])
def test_prominence_that_overflows_the_index_is_a_config_error(tmp_path, capsys, delta):
    # 1/gamma_M widens the index past the float range: a NaN price at one pull each, inf at more
    text = MULTI.replace("prominences = 1.0, 0.6", "prominences = 1.0, 1e-308")
    text = text.replace("horizon = 60", "horizon = 600").replace("delta = 2.5", f"delta = {delta}")
    cfg = _write(tmp_path, "tiny.cfg", text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: prominences: T M v_max (1 + sqrt(2 ln T)) / gamma_M is not finite\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_horizon_past_the_float_range_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "huge.cfg", BASIC.replace("horizon = 200", f"horizon = {10**400}"))
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: prominences: T M v_max (1 + sqrt(2 ln T)) / gamma_M is not finite\n"
    )


@pytest.mark.parametrize("command", ["validate", "run", "dsic-check"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, command, kind):
    cfg = tmp_path / "basic.cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not-utf8":
        cfg.write_bytes(BASIC.encode() + b"# caf\xe9\n")
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: config: cannot read {cfg}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("out", ["blocker", "blocker/out"])
def test_run_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, monkeypatch, out, command):
    def never(*args, **kwargs):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(harness, "dispatch_run", never)
    monkeypatch.setattr(harness, "run_cell", never)
    (tmp_path / "blocker").write_text("a regular file\n")
    cfg = _write(tmp_path, "basic.cfg", BASIC)
    assert main([command, "--config", cfg, "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    grid = "sweep grid: 1 cells\n" if command == "sweep" else ""
    assert captured.err.startswith(
        f"{grid}config error: out: cannot make directory {tmp_path / out}: "
    )
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_python_dash_m_runs_the_cli(tmp_path, capsys):
    # each exit code reaches the shell through console_main, with main()'s output
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    findings = str(DATA / "golden_check_dsic_multi.cfg")
    bad = _write(tmp_path, "bad.cfg", BASIC.replace("delta = 1.2", "delta = -1"))
    cases = [
        (["run", "--config", str(DATA / "golden.cfg"), "--out", str(tmp_path)], 0),
        (["dsic-check", "--config", findings, "--instances", "6"], 1),
        (["validate", "--config", bad], 2),
    ]
    for args, code in cases:
        done = subprocess.run(
            [sys.executable, "-m", "deltaucb", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == code, done.stderr
        assert main(args) == code
        captured = capsys.readouterr()
        assert (done.stdout, done.stderr) == (captured.out, captured.err)
    assert (tmp_path / "summary.csv").read_bytes() == (DATA / "golden_summary.csv").read_bytes()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_import_starts_no_blas_workers_unless_asked(preset):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (
        "import os, deltaucb.harness; "
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    threads, value = done.stdout.split()
    if preset is None:
        assert threads == "1"
    assert value == (preset or "1")


def test_source_holds_no_string_statement_but_docstrings():
    # a bare string anywhere else is dead code, such as a docstring left below the one it replaced
    stray = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "deltaucb").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        docstrings = {id(node.body[0]) for node in ast.walk(tree) if isinstance(node, scopes)}
        stray += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            and id(node) not in docstrings
        ]
    assert stray == []


def test_commands_load_no_process_pool(tmp_path):
    # only a forking sweep needs concurrent.futures.process and multiprocessing
    cfg = _write(tmp_path, "basic.cfg", BASIC)
    commands = [
        ["validate", "--config", cfg],
        ["run", "--config", cfg, "--out", str(tmp_path / "out"), "--rounds-log", "all"],
        ["dsic-check", "--config", cfg, "--instances", "2"],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; from deltaucb.harness import main; "
        f"codes = [main(args) for args in {commands!r}]; "
        "print(codes, sorted(m for m in sys.modules if m.startswith("
        "('multiprocessing', 'concurrent.futures.process'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_benchmark_tracer_layers_resolve():
    """Every function the benchmark's tracer wraps or calls must still exist under its name."""
    traced = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"
    tree = ast.parse(traced.read_text())
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("LAYERS", "MEMORY_LAYERS")
    }
    layers = tables["LAYERS"]
    assert layers and set(tables["MEMORY_LAYERS"]) <= set(layers)
    # outside LAYERS the tracer calls functions of the deltaucb modules it imports by name
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "deltaucb"
        for alias in node.names
    }
    called = {
        f"{modules[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {"metrics.delta_regret_increment", "harness.main"} <= called
    for name in (*layers, *sorted(called)):
        module_name, attr = name.split(".")
        module = importlib.import_module(f"deltaucb.{module_name}")
        assert callable(getattr(module, attr, None)), name


def test_plain_ucb_exploit_only_log_is_empty(tmp_path):
    # plain UCB never stops learning, so it has no exploitation rows to keep
    cfg = _write(
        tmp_path,
        "plain.cfg",
        "num_agents = 3\nhorizon = 40\ndelta = 1.0\nseed = 2\nmechanism = plain-ucb\n",
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--rounds-log", "exploit-only"]) == 0
    assert (out / "rounds.csv").read_text() == ROUND_LOG_HEADER + "\n"


@pytest.mark.parametrize(
    "line, scenarios",
    [("num_agents = 1", "6 scenarios"), ("agents_choices = 1, 2", "8 scenarios")],
)
def test_dsic_check_reports_on_one_agent_instances(tmp_path, capsys, line, scenarios):
    # a lone agent has no competitor to pivot on; with agents_choices = 1, 2
    # six instances give 8 scenarios, so four of them have one agent
    text = "num_agents = 2\nhorizon = 300\ndelta = 1.5\nseed = 4\n"
    if line.startswith("num_agents"):
        text = text.replace("num_agents = 2", line)
    else:
        text += line + "\n"
    cfg = _write(tmp_path, "one.cfg", text)
    assert main(["dsic-check", "--config", cfg, "--instances", "6"]) == 0
    report = capsys.readouterr().out.splitlines()[-1]
    assert report.startswith(f"dsic-check: 6 instances, {scenarios},")
    assert report.endswith("violations 0")


def test_checks_learn_and_declare_without_running_the_mechanism(monkeypatch, capsys):
    # the checks share one learner per instance: no whole run, no exploitation click count
    from deltaucb import environment, mechanism

    calls = defaultdict(int)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn in (mechanism.run_mechanism, mechanism.learn):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "deltaucb":
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, counted(fn.__name__, fn))
    count = environment.ClickRealization.click_count
    monkeypatch.setattr(environment.ClickRealization, "click_count", counted("click_count", count))
    for config_name in ("dsic_multi", "ir_multi", "one_agent"):
        cfg = str(DATA / f"golden_check_{config_name}.cfg")
        for command in ("dsic-check", "ir-check"):
            assert main([command, "--config", cfg, "--instances", "3"]) in (0, 1)
            # none of these budgets fills the horizon, so each instance learns exactly once
            assert calls.pop("learn") == 3, (config_name, command)
    assert dict(calls) == {}


# the benchmark's dsic-multi instances (perfbench/run.py, default seed) at a given horizon
DSIC_MULTI = """num_agents = 5
num_slots = 2
prominences = 1.0, 0.6
horizon = {horizon}
delta = 0.5
v_max = 1.0
seed = 3
agents_choices = 2, 3, 5
"""


def _check_draws(monkeypatch, tmp_path, command, horizon):
    """Outcomes drawn in the free and in the committed rounds, each committed read, and the peak."""
    import tracemalloc

    from deltaucb import environment

    drawn = {"exploration": 0, "committed": 0}
    committed_reads = []
    chunks = environment.ClickRealization._chunks

    def counted(self, layer, row, start, stop):
        # every free-round read starts at round 0; every scan starts after the free rounds
        if start:
            committed_reads.append(stop - start)
        for piece in chunks(self, layer, row, start, stop):
            drawn["committed" if start else "exploration"] += len(piece)
            yield piece

    cfg = _write(tmp_path, f"dsic_{horizon}.cfg", DSIC_MULTI.format(horizon=horizon))
    with monkeypatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(environment.ClickRealization, "_chunks", counted)
        tracemalloc.start()
        try:
            assert main([command, "--config", cfg, "--instances", "20"]) in (0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return drawn, committed_reads, peak


@pytest.mark.parametrize("command", ["dsic-check", "ir-check"])
def test_check_draws_are_flat_in_the_horizon(monkeypatch, tmp_path, command):
    from deltaucb import environment

    small, small_reads, small_peak = _check_draws(monkeypatch, tmp_path, command, 10**5)
    large, large_reads, large_peak = _check_draws(monkeypatch, tmp_path, command, 10**8)
    # every scan finds its patterns in its first window at both horizons
    assert set(small_reads) == set(large_reads) == {environment._SCAN}
    if command == "ir-check":
        assert small["committed"] == large["committed"]
    else:
        # the rankings differ with the horizon, and with them the slot pairs scanned:
        # 132 scans at T = 1e5 against 131 at T = 1e8
        assert abs(small["committed"] - large["committed"]) <= 3 * environment._SCAN
    # the free rounds grow like ln T: per-agent pulls are ceil(8 v_max^2 ln T / delta^2)
    assert large["exploration"] / small["exploration"] <= math.log(1e8) / math.log(1e5) + 0.01
    assert abs(large_peak - small_peak) < 2 * 2**20, (small_peak, large_peak)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in this process."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, workers", [("8", [2]), ("2", [2]), ("1", [])])
def test_sweep_forks_no_more_workers_than_cells(tmp_path, monkeypatch, jobs, workers):
    # the sweep imports the pool from concurrent.futures when it forks
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "workers", [])
    cfg = _write(tmp_path, "two.cfg", BASIC + "sweep_horizon = 100, 200\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
    assert _RecordingPool.workers == workers
    assert len((out / "summary.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize(
    "config_line, flag",
    [("jobs = 0", None), ("jobs = -3", None), ("", "0"), ("", "-1"), ("jobs = 2", "0")],
)
def test_sweep_jobs_below_one_exit_2(tmp_path, capsys, config_line, flag):
    cfg = _write(tmp_path, "jobs.cfg", BASIC + config_line + "\n")
    args = ["sweep", "--config", cfg, "--out", str(tmp_path / "out")]
    if flag is not None:
        args += ["--jobs", flag]
    assert main(args) == 2
    assert "config error: jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["dsic-check", "ir-check"])
@pytest.mark.parametrize("instances", ["0", "-2"])
def test_check_instances_below_one_exit_2(tmp_path, capsys, command, instances):
    cfg = _write(tmp_path, "check.cfg", BASIC)
    assert main([command, "--config", cfg, "--instances", instances]) == 2
    captured = capsys.readouterr()
    assert "config error: instances" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["dsic-check", "ir-check"])
@pytest.mark.parametrize(
    "mechanism", ["delta-ucb-multi", "oracle", "plain-ucb", "explore-t23"]
)
def test_checks_reject_a_mechanism_they_do_not_replay(tmp_path, capsys, command, mechanism):
    # the checks replay delta-ucb-single on one slot; a pass would certify another mechanism
    text = f"num_agents = 3\nhorizon = 3000\ndelta = 1.0\nseed = 5\nmechanism = {mechanism}\n"
    cfg = _write(tmp_path, "mechanism.cfg", text)
    assert main([command, "--config", cfg, "--instances", "20"]) == 2
    captured = capsys.readouterr()
    assert "config error: mechanism" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["dsic-check", "ir-check"])
@pytest.mark.parametrize(
    "base, mechanism", [(BASIC, "delta-ucb-single"), (MULTI, "delta-ucb-multi")]
)
def test_checks_accept_the_mechanism_they_replay(tmp_path, capsys, command, base, mechanism):
    implicit = _write(tmp_path, "implicit.cfg", base)
    explicit = _write(tmp_path, "explicit.cfg", base + f"mechanism = {mechanism}\n")
    runs = []
    for cfg in (implicit, explicit):
        code = main([command, "--config", cfg, "--instances", "3"])
        runs.append((code, capsys.readouterr().out))
    assert runs[0][0] != 2
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["validate", "dsic-check", "ir-check"])
@pytest.mark.parametrize(
    "lines",
    [
        "agents_choices = 0, 3",
        "num_slots = 2\nprominences = 1.0, 0.5\nagents_choices = 3, 1",
        "agents_choices = 2, 3",
    ],
)
def test_agents_choices_below_num_slots_exit_2_up_front(tmp_path, capsys, command, lines):
    # a size no instance draws is still an error, and no finding is printed first;
    # so is any size beside BASIC's explicit ctrs, which the instances would use
    cfg = _write(tmp_path, "choices.cfg", BASIC + lines + "\n")
    args = [command, "--config", cfg] + ([] if command == "validate" else ["--instances", "6"])
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "config error: agents_choices" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "cli_args, code",
    [
        (["run", "--config", str(DATA / "golden.cfg"), "--rounds-log", "all"], 0),
        (["dsic-check", "--config", str(DATA / "golden_check_dsic_multi.cfg"),
          "--instances", "2"], 1),
    ],
)
def test_benchmark_tracer_runs_the_cli(tmp_path, cli_args, code):
    # the benchmark's traced run must keep working: its probes read the CLI's own calls
    if cli_args[0] == "run":
        cli_args = [*cli_args, "--out", str(tmp_path / "out")]
    traced = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(traced), str(spans), "smoke", *cli_args],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode == code, done.stderr
    calls = [span for span in json.loads(spans.read_text())["spans"] if span["kind"] == "call"]
    assert [span["name"] for span in calls if span["parent"] is None] == ["harness.main"]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "line, field",
    [
        ("ctr_range = 0.5", "ctr_range"),
        ("valuation_range = 0.5", "valuation_range"),
        ("ctr_range = 0.9, 0.1", "ctr_range"),
        ("valuation_range = 0, inf", "valuation_range"),
        ("valuation_range = 0.5, 1.05", "valuation_range"),
        ("ctr_range = 0.5, 1.5", "ctr_range"),
        ("delta = 1e-300", "delta, v_max"),
        ("delta = 1e-160", "delta, v_max"),
        ("v_max = 1e200", "delta, v_max"),
    ],
)
def test_config_values_that_used_to_crash_exit_2(tmp_path, capsys, command, line, field):
    text = "num_agents = 3\nhorizon = 200\nseed = 11\n" + line + "\n"
    if not line.startswith("delta"):
        text += "delta = 1.2\n"
    cfg = _write(tmp_path, "crash.cfg", text)
    assert main([command, "--config", cfg]) == 2
    assert f"config error: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "lines",
    [
        "mechanism = oracle\nnum_slots = 2\nprominences = 1.0, 0.5",
        "mechanism = plain-ucb\nnum_slots = 2\nprominences = 1.0, 0.5",
        "mechanism = explore-t23\nnum_slots = 2\nprominences = 1.0, 0.5",
        "mechanism = delta-ucb-single\nnum_slots = 2\nprominences = 1.0, 0.5",
        "mechanism = oracle\nsweep_num_slots = 1, 2",
    ],
)
def test_single_slot_mechanisms_with_several_slots_exit_2(tmp_path, capsys, command, lines):
    cfg = _write(tmp_path, "slots.cfg", BASIC + lines + "\n")
    assert main([command, "--config", cfg]) == 2
    assert "config error: mechanism, num_slots" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "sweep"])
@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_sweep_seeds_below_one_exit_2(tmp_path, capsys, command, seeds):
    cfg = _write(tmp_path, "seeds.cfg", BASIC + f"sweep_seeds = {seeds}\n")
    args = [command, "--config", cfg]
    if command == "sweep":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert "config error: sweep_seeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "sweep"])
@pytest.mark.parametrize(
    "lines, field",
    [
        ("ctrs = 0.8, 0.5, 0.2\nsweep_num_agents = 2, 3", "explicit ctrs"),
        ("sweep_num_agents = 0, 3", "num_agents"),
        ("num_slots = 2\nprominences = 1.0, 0.5\nsweep_num_slots = 2, 3", "prominences"),
    ],
    ids=["ctrs-with-agents-sweep", "zero-agents-cell", "prominences-too-short"],
)
def test_sweep_cells_that_fail_exit_2(tmp_path, capsys, command, lines, field):
    # validate builds every cell's config and profiles, as sweep does
    text = "num_agents = 3\nhorizon = 200\ndelta = 1.2\nseed = 11\n" + lines + "\n"
    cfg = _write(tmp_path, "cells.cfg", text)
    args = [command, "--config", cfg]
    if command == "sweep":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert f"config error: {field}" in captured.err
    assert "config ok" not in captured.out


@pytest.mark.parametrize(
    "lines",
    [
        "num_slots = 2\nprominences = 1.0, 0.7\nsweep_num_slots = 2, 3",
        "ctrs = 0.8, 0.5, 0.2\nsweep_num_agents = 3, 4",
    ],
    ids=["prominences-too-short", "ctrs-with-agents-sweep"],
)
def test_a_sweep_with_a_rejected_cell_leaves_no_out(tmp_path, capsys, lines):
    # every cell is built before the directory is made, also when an earlier cell is valid
    text = "num_agents = 3\nhorizon = 200\ndelta = 1.2\nseed = 11\n" + lines + "\n"
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write(tmp_path, "cells.cfg", text), "--out", str(out)]) == 2
    assert "config error: " in capsys.readouterr().err
    assert not out.exists()


def test_a_num_slots_sweep_follows_the_lambdas_chain(tmp_path, capsys):
    # lambdas 0.6, 0.5 chain three prominences (1.0, 0.6, 0.3), though the config uses two
    text = "num_agents = 3\nnum_slots = 2\nlambdas = 0.6, 0.5\nhorizon = 200\ndelta = 1.2\n"
    cfg = _write(tmp_path, "chain.cfg", text + "seed = 11\nsweep_num_slots = 2, 3\n")
    assert main(["validate", "--config", cfg]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = list(csv.DictReader((tmp_path / "out" / "summary.csv").read_text().splitlines()))
    assert sorted(row["num_slots"] for row in rows) == ["2", "3"]
    assert [len(row["winners"].split(";")) for row in rows] == [int(r["num_slots"]) for r in rows]


def test_a_config_file_derives_prominences_from_lambdas():
    spec = spec_from_values(
        {"num_agents": "4", "num_slots": "3", "horizon": "10", "delta": "0.5", "lambdas": "0.8, 0.5"}
    )
    assert spec.config.prominences == spec.chain == gammas_from_lambdas((0.8, 0.5))
    assert spec.config.prominences == (1.0, 0.8, pytest.approx(0.4))


@pytest.mark.parametrize("command", ["validate", "run", "sweep", "dsic-check", "ir-check"])
@pytest.mark.parametrize(
    "lines, message",
    [
        # prominences that are not the chain's head: one layout or the other would be ignored
        ("num_slots = 2\nprominences = 1.0, 0.5\nlambdas = 0.9", "lambdas: their chain must start"),
        ("num_slots = 3\nlambdas = 0.9", "lambdas too short for num_slots"),
    ],
    ids=["contradicts-prominences", "too-short"],
)
def test_lambdas_that_do_not_give_the_slot_layout_exit_2(tmp_path, capsys, command, lines, message):
    text = "num_agents = 3\nhorizon = 200\ndelta = 1.2\nseed = 11\n" + lines + "\n"
    args = [command, "--config", _write(tmp_path, "layout.cfg", text)]
    if command == "sweep":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert f"config error: {message}" in captured.err
    assert captured.out == ""


_SLOT_LISTS = st.lists(
    st.one_of(
        st.sampled_from([math.nan, math.inf, -0.0, 0.0, -0.5, 1e-308, 0.25, 0.5, 1.0, 2.0, 7.0]),
        st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(num_slots=2, prominences=[1.0], lambdas=[7.0])  # checked also when prominences are given
@example(num_slots=1, prominences=[1.0], lambdas=[math.nan])
@example(num_slots=3, prominences=[1.0, 0.5, 0.25], lambdas=[0.5, 0.5])
@given(num_slots=st.integers(-1, 5), prominences=st.none() | _SLOT_LISTS, lambdas=_SLOT_LISTS)
def test_lambdas_in_a_config_file_give_the_head_of_their_chain(num_slots, prominences, lambdas):
    raw = {"num_agents": "5", "num_slots": str(num_slots), "horizon": "100", "delta": "0.5"}
    raw["lambdas"] = ", ".join(map(repr, lambdas))
    if prominences is not None:
        raw["prominences"] = ", ".join(map(repr, prominences))
    if not all(0.0 < lam <= 1.0 for lam in lambdas):
        with pytest.raises(ConfigError, match="^lambdas must lie in"):
            spec_from_values(raw)
        return
    try:
        spec = spec_from_values(raw)
    except ConfigError:
        return
    chain = gammas_from_lambdas(lambdas)
    assert spec.chain == chain
    assert spec.config.prominences == chain[:num_slots]
    if prominences is not None:
        assert tuple(prominences) == chain[:num_slots]


@pytest.mark.parametrize("command", ["validate", "run", "sweep", "dsic-check", "ir-check"])
@pytest.mark.parametrize(
    "line, key", [("valuations = 0.1, 0.2, 0.3", "valuations"), ("bids = 0, 0, 0", "bids")]
)
def test_valuations_or_bids_without_ctrs_exit_2(tmp_path, capsys, command, line, key):
    # drawn profiles draw their valuations and bid them, so either list would be ignored
    text = "num_agents = 3\nhorizon = 200\ndelta = 1.2\nseed = 11\n" + line + "\n"
    args = [command, "--config", _write(tmp_path, "drawn.cfg", text)]
    if command == "sweep":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert f"config error: {key} needs ctrs" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["dsic-check", "ir-check"])
def test_checks_use_explicit_profiles(tmp_path, capsys, command):
    # two slots, where the multi-slot prices give dsic-check findings to differ in
    text = "num_agents = 3\nnum_slots = 2\nprominences = 1.0, 0.6\n"
    text += "horizon = 400\ndelta = 1.5\nseed = 5\n"
    explicit = text + "ctrs = 0.9, 0.1, 0.1\nvaluations = 1.0, 0.6, 0.3\nbids = 1.0, 0.5, 0.3\n"
    outputs = []
    for name, body in (("drawn.cfg", text), ("explicit.cfg", explicit)):
        assert main([command, "--config", _write(tmp_path, name, body), "--instances", "3"]) != 2
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]
    spec = parse_config_file(tmp_path / "explicit.cfg")
    for index in range(3):
        _, profiles = harness._draw_instance(spec, index)
        assert [(p.ctr, p.valuation, p.bid) for p in profiles] == [
            (0.9, 1.0, 1.0), (0.1, 0.6, 0.5), (0.1, 0.3, 0.3)
        ]


_FUZZ_KEYS = sorted(_INT_KEYS | _FLOAT_KEYS | _FLOAT_LIST_KEYS | _INT_LIST_KEYS | _STR_KEYS)
_FUZZ_VALUES = (
    "", "abc", "1,,2", ",", "nan", "inf", "-inf", "-1", "0", "1", "2", "3", "0.5", "1e-300",
    "1e-160", "1e200", "1e308", "0.5, 0.2", "0.2, 0.8", "1.0, 0.5", "1.0, 0.5, 0.25",
    "0.5, nan", "0, inf", "1, 2, 3", "-1, 2", "delta-ucb-multi", "oracle", "plain-ucb",
    "explore-t23",
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    overrides=st.dictionaries(
        st.sampled_from(_FUZZ_KEYS), st.sampled_from(_FUZZ_VALUES), max_size=5
    ),
    dropped=st.sets(st.sampled_from(["num_agents", "horizon", "delta"]), max_size=1),
    horizon=st.sampled_from(["1", "2", "50", "1000"]),
)
def test_config_parser_fuzz_exits_0_or_2(tmp_path_factory, overrides, dropped, horizon):
    # ints in the value pool stay small: horizon <= 1e3, jobs <= 3, no large K x T draw
    values = {"num_agents": "3", "horizon": horizon, "delta": "1.0", **overrides}
    for key in dropped:
        values.pop(key)
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["validate", "--config", str(path)]) in (0, 2)
        out = path.parent / "out"
        assert main(["run", "--config", str(path), "--out", str(out), "--rounds-log", "all"]) in (0, 2)
