import ast
import csv
import importlib
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from deltaucb.core import ConfigError
from deltaucb.harness import (
    ROUND_LOG_COLUMNS,
    derive_subseed,
    fmt_num,
    main,
    parse_config_file,
)

DATA = Path(__file__).parent / "data"


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
    assert lines[0] == ",".join(ROUND_LOG_COLUMNS)
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
    assert set(first) == set(ROUND_LOG_COLUMNS)
    summary = json.loads((tmp_path / "out" / "summary.jsonl").read_text().splitlines()[0])
    assert summary["mechanism"] == "delta-ucb-single"


def test_fmt_num_renderings():
    assert fmt_num(0.0) == "0.000000000000"
    assert fmt_num(0.5) == "0.50000000000"
    assert len(fmt_num(14.7483688681).replace(".", "").lstrip("0")) <= 12


def test_golden_files_are_stable(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(DATA / "golden.cfg"), "--out", str(out),
                 "--rounds-log", "all"]) == 0
    assert (out / "rounds.csv").read_bytes() == (DATA / "golden_rounds.csv").read_bytes()
    assert (out / "summary.csv").read_bytes() == (DATA / "golden_summary.csv").read_bytes()


@pytest.mark.parametrize(
    "config_name, fmt, stem",
    [("golden_multi.cfg", "csv", "golden_multi"), ("golden.cfg", "jsonl", "golden")],
)
def test_golden_files_cover_multi_slot_and_jsonl(tmp_path, config_name, fmt, stem):
    out = tmp_path / "out"
    assert main(["run", "--config", str(DATA / config_name), "--out", str(out),
                 "--rounds-log", "all", "--format", fmt]) == 0
    assert (out / f"rounds.{fmt}").read_bytes() == (DATA / f"{stem}_rounds.{fmt}").read_bytes()
    assert (out / f"summary.{fmt}").read_bytes() == (DATA / f"{stem}_summary.{fmt}").read_bytes()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("line", ["v_max = inf", "delta = inf"])
def test_infinite_delta_or_v_max_is_a_config_error(tmp_path, capsys, command, line):
    text = BASIC.replace("v_max = 1.0", "").replace("delta = 1.2", "") + line + "\n"
    if line.startswith("v_max"):
        text += "delta = 1.2\n"
    cfg = _write(tmp_path, "inf.cfg", text)
    assert main([command, "--config", cfg]) == 2
    assert "positive and finite" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "deltaucb", "run", "--config", str(DATA / "golden.cfg"),
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("run: mechanism=delta-ucb-single seed=42")
    assert (tmp_path / "summary.csv").read_bytes() == (DATA / "golden_summary.csv").read_bytes()


def test_benchmark_tracer_layers_resolve():
    """Every function the benchmark's tracer wraps must still exist under its recorded name."""
    traced = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"
    tree = ast.parse(traced.read_text())
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    )
    assert layers
    for name in layers:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"deltaucb.{module_name}")
        assert callable(getattr(module, attr, None)), name
