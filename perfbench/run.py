"""deltaucb benchmark: CLI commands end to end, and a traced run layer by layer.

Usage: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``

One client in a closed loop runs the workload's CLI command through
``perfbench/cli.py``, one process at a time, until ``--seconds`` have passed,
and checks every command's exit code and outputs. Before the loop it times
``deltaucb validate`` on the same config several times (set-up). With
``--trace 1`` it then runs the command once more through
``perfbench/traced.py`` and reports per-layer figures from its spans.
A human-readable report comes first; the last line of stdout is the JSON
result. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CLI = ROOT / "perfbench" / "cli.py"
TRACED = ROOT / "perfbench" / "traced.py"
WORK = ROOT / ".bench_work"

# set-up commands per run, spread evenly over the measured seconds so that
# they see the same mix of machine load as the workload's commands
SETUP_REPEATS = 24
COMMAND_TIMEOUT_S = 90.0

V_MAX = 1.0

# The README demo instance (single slot).
RUN_CTRS = (0.9, 0.6, 0.5, 0.3, 0.1)
RUN_VALUATIONS = (1.0, 1.0, 1.0, 1.0, 1.0)
RUN_DELTA = 0.2

# dsic-check: multi-slot instances with 2, 3 or 5 agents each.
DSIC_INSTANCES = 20
DSIC_SLOTS = 2
DSIC_PROMINENCES = (1.0, 0.6)
DSIC_DELTA = 0.5
DSIC_AGENTS_CHOICES = (2, 3, 5)
DSIC_GRID_POINTS = 21  # strategy_lab.build_scenario's default grid size
INSTANCE_LAYER = 3  # harness._draw_instance's substream layer; its first draw picks K


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" or "dsic"
    horizon: int
    default_seed: int
    extra_args: tuple
    expected_exit: int
    work_unit: str
    pinned: dict  # checks that hold at the default seed only


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run-1e7",
            "run",
            10_000_000,
            7,
            (),
            0,
            "rounds",
            {"stdout": "delta_regret=6770.40000000 revenue=6363986.97930"},
        ),
        Workload(
            "rounds-log-1e5",
            "run",
            100_000,
            7,
            ("--rounds-log", "all", "--format", "csv"),
            0,
            "rows",
            {
                "rounds.csv": "d98023e19d0770351aacf8ccefe3935b872b54079d61740c17419146179f1dcc",
                "summary.csv": "bd6008315c88607a850e09d3f83a4a1b8e9d028f62ffdd52781c582373da3a41",
            },
        ),
        Workload(
            "dsic-multi-1e5",
            "dsic",
            100_000,
            3,
            (),
            1,
            "scenarios",
            {
                "stdout": "dsic-check: 20 instances, 64 scenarios, "
                "worst per-round gain 3.920e-01, violations 45"
            },
        ),
    )
}

# traced layers reported by self time; traced.py's LAYERS lists every span
TIMED_LAYERS = (
    "harness.parse_config_file",
    "harness.build_profiles",
    "harness.emit_summary",
    "environment.draw_realization",
    "mechanism.run_single_slot",
    "mechanism.iter_rounds",
    "harness.round_log_rows",
    "harness.emit_round_log",
    "strategy_lab.build_scenario",
    "strategy_lab.verify_dsic",
    "strategy_lab.per_round_utilities",
    "mechanism_multi.run_multi_slot",
    "mechanism_multi.declare_ranking",
)
MEMORY_LAYERS = (
    "environment.draw_realization",
    "mechanism.iter_rounds",
    "harness.emit_round_log",
)


def dsic_instance_sizes(config_seed):
    """Agents per dsic-check instance, drawn as harness._draw_instance draws them."""
    choices = np.array(DSIC_AGENTS_CHOICES)
    return [
        int(rng.choice(choices))
        for rng in (
            np.random.default_rng(np.random.SeedSequence([config_seed, INSTANCE_LAYER, i]))
            for i in range(DSIC_INSTANCES)
        )
    ]


def config_seed_for(workload, seed):
    """The config seed for a benchmark seed.

    dsic-check's work depends on how many instances have each size: the
    sizes set the number of deviation scenarios, and a 2-agent instance
    allocates its deviator under more grid bids than a 5-agent one. The
    first of seed, seed + 1000, ... whose instance sizes are the default
    seed's, in any order, keeps each run's work the same.
    """
    if workload.kind == "run":
        return seed
    target = sorted(dsic_instance_sizes(workload.default_seed))
    for step in range(100_000):
        candidate = seed + 1000 * step
        if sorted(dsic_instance_sizes(candidate)) == target:
            return candidate
    raise SystemExit(f"no config seed from {seed} has the default's instance sizes")


def config_text(workload, config_seed):
    def join(values):
        return ", ".join(str(v) for v in values)

    if workload.kind == "run":
        lines = [
            f"num_agents = {len(RUN_CTRS)}",
            f"horizon = {workload.horizon}",
            f"delta = {RUN_DELTA}",
            f"v_max = {V_MAX}",
            f"seed = {config_seed}",
            f"ctrs = {join(RUN_CTRS)}",
            f"valuations = {join(RUN_VALUATIONS)}",
        ]
    else:
        lines = [
            f"num_agents = {max(DSIC_AGENTS_CHOICES)}",
            f"num_slots = {DSIC_SLOTS}",
            f"prominences = {join(DSIC_PROMINENCES)}",
            f"horizon = {workload.horizon}",
            f"delta = {DSIC_DELTA}",
            f"v_max = {V_MAX}",
            f"seed = {config_seed}",
            f"agents_choices = {join(DSIC_AGENTS_CHOICES)}",
        ]
    return "\n".join(lines) + "\n"


def command_args(workload, config_path, out_dir):
    if workload.kind == "dsic":
        return ["dsic-check", "--config", str(config_path), "--instances", str(DSIC_INSTANCES)]
    return ["run", "--config", str(config_path), "--out", str(out_dir), *workload.extra_args]


@dataclass
class Command:
    wall_s: float
    exit_code: int
    rss_mb: float
    stdout: str


def run_process(script, args, log_dir):
    """Run one child to completion: wall time from start to exit, exit code, ru_maxrss."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(script), *args], stdout=out, stderr=err, cwd=ROOT
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = (log_dir / "stdout").read_text(errors="replace")
    return Command(wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_summary(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"{path.name}: expected one summary row, found {len(rows)}")
    return rows[0]


def regret_bound(num_agents, v_max, horizon, delta):
    return 8 * num_agents * v_max**3 * math.log(horizon) / delta**2 + 1


def check_run(workload, ctx, cmd, out_dir):
    problems = []
    summary_path = out_dir / "summary.csv"
    if not summary_path.is_file():
        return ["summary.csv missing"]
    summary = read_summary(summary_path)
    if int(summary["horizon"]) != workload.horizon or int(summary["seed"]) != ctx["config_seed"]:
        problems.append("summary does not echo the config's horizon and seed")
    expected = (
        f"run: mechanism=delta-ucb-single seed={ctx['config_seed']} "
        f"delta_regret={summary['total_delta_regret']} "
        f"revenue={summary['total_revenue']} flags=-"
    )
    if cmd.stdout.splitlines() != [expected]:
        problems.append(f"stdout is not {expected!r}")
    bound = regret_bound(len(RUN_CTRS), V_MAX, workload.horizon, RUN_DELTA)
    if not float(summary["total_delta_regret"]) <= bound:
        problems.append(f"total_delta_regret {summary['total_delta_regret']} exceeds {bound}")
    if "--rounds-log" in workload.extra_args:
        rounds_path = out_dir / "rounds.csv"
        if not rounds_path.is_file():
            return problems + ["rounds.csv missing"]
        with open(rounds_path, newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) - 1 != workload.horizon:
            problems.append(f"round log has {len(rows) - 1} data rows, not {workload.horizon}")
        last = float(rows[-1][-1])
        total = float(summary["total_revenue"])
        # both are printed to 12 significant digits, and the log's running sum
        # adds up to T rounded terms where the summary multiplies once
        tolerance = 1e-11 + workload.horizon * 2.0**-53
        if not math.isclose(last, total, rel_tol=tolerance):
            problems.append(f"last revenue_cum {last!r} differs from total_revenue {total!r}")
    if ctx["default_seed"]:
        for name, digest in workload.pinned.items():
            if name == "stdout":
                if digest not in cmd.stdout:
                    problems.append(f"stdout lacks pinned {digest!r}")
            elif sha256(out_dir / name) != digest:
                problems.append(f"{name} differs from the pinned bytes")
    return problems


def check_dsic(workload, ctx, cmd):
    lines = cmd.stdout.splitlines()
    if not lines:
        return ["no output"]
    match = re.fullmatch(
        rf"dsic-check: {DSIC_INSTANCES} instances, (\d+) scenarios, "
        r"worst per-round gain (\S+), violations (\d+)",
        lines[-1],
    )
    if not match:
        return [f"unexpected last line {lines[-1]!r}"]
    problems = []
    scenarios, violations = int(match.group(1)), int(match.group(3))
    agents = sum(ctx["instance_sizes"])
    if scenarios != agents:
        problems.append(f"{scenarios} scenarios, but the instances hold {agents} agents")
    findings = [line for line in lines[:-1] if line.startswith("finding: ")]
    if len(findings) != len(lines) - 1 or len(findings) != violations:
        problems.append(f"{len(findings)} finding lines for {violations} violations")
    if ctx["default_seed"] and lines[-1] != workload.pinned["stdout"]:
        problems.append(f"last line is not the pinned {workload.pinned['stdout']!r}")
    return problems


def check(workload, ctx, cmd, out_dir):
    """Every reason this command's result is wrong; empty when it is right."""
    if cmd.exit_code != workload.expected_exit:
        return [f"exit code {cmd.exit_code}, expected {workload.expected_exit}"]
    try:
        if workload.kind == "dsic":
            return check_dsic(workload, ctx, cmd)
        return check_run(workload, ctx, cmd, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [f"unreadable output: {err!r}"]


def tail(values):
    """Highest percentile with at least ten samples beyond it, as (value, percent)."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n


def work_units(workload, ctx):
    if workload.kind == "dsic":
        return sum(ctx["instance_sizes"])
    return workload.horizon


COUNT_UNITS = {
    "environment.draw_realization.cells": "count",
    "environment.cells_read_ratio": "ratio",
    "mechanism.iter_rounds.records": "count",
    "metrics.calls": "count",
    "harness.emit_round_log.rows": "count",
    "harness.emit_round_log.bytes": "bytes",
    "strategy_lab.verify_dsic.scenarios": "count",
    "strategy_lab.verify_dsic.grid_bids": "count",
    "strategy_lab.utility_floats": "count",
}


def computed_counts(workload, ctx, out_dir):
    """Per-layer counts that are functions of the config and the outputs only."""
    horizon = workload.horizon
    counts = dict.fromkeys(COUNT_UNITS, 0)
    if workload.kind == "run":
        counts["environment.draw_realization.cells"] = len(RUN_CTRS) * horizon
        # one intrinsic cell per round: the shown agent's
        counts["environment.cells_read_ratio"] = 1 / len(RUN_CTRS)
        if "--rounds-log" in workload.extra_args:
            counts["mechanism.iter_rounds.records"] = horizon
            counts["harness.emit_round_log.rows"] = horizon
            counts["harness.emit_round_log.bytes"] = (out_dir / "rounds.csv").stat().st_size
            # one delta_regret_increment per record, one more and one
            # standard_regret_increment per row's running totals
            counts["metrics.calls"] = 3 * horizon
    else:
        scenarios = sum(ctx["instance_sizes"])
        cells = (scenarios + DSIC_INSTANCES * DSIC_SLOTS) * horizon
        counts["environment.draw_realization.cells"] = cells
        # one run reads an intrinsic and an observation cell per slot per round
        counts["environment.cells_read_ratio"] = DSIC_INSTANCES * DSIC_SLOTS * 2 * horizon / cells
        counts["strategy_lab.verify_dsic.scenarios"] = scenarios
        counts["strategy_lab.verify_dsic.grid_bids"] = scenarios * DSIC_GRID_POINTS
        # a length-T utility vector for the truthful bid and for each grid bid
        counts["strategy_lab.utility_floats"] = scenarios * (DSIC_GRID_POINTS + 1) * horizon
    return counts


def layer_metrics(workload, ctx, trace, out_dir):
    """Per-layer metrics from the traced run's spans, plus the computed counts."""
    spans = trace["spans"]
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["duration"]
    self_time = defaultdict(float)
    calls = defaultdict(int)
    peaks = defaultdict(float)
    for s in spans:
        key = (s["kind"], s["name"])
        self_time[key] += s["duration"] - covered[s["id"]]
        calls[key] += 1
        if "peak_mb" in s:
            peaks[s["name"]] = max(peaks[s["name"]], s["peak_mb"])
    total = spans[0]["duration"]  # harness.main, the root of the traced command

    m = {
        "numpy.import_s": (trace["imports"]["numpy"], "s"),
        "deltaucb.import_s": (trace["imports"]["deltaucb"], "s"),
    }
    for name in TIMED_LAYERS:
        m[f"{name}.s"] = (self_time[("call", name)], "s")
    for name in MEMORY_LAYERS:
        m[f"{name}.peak_mb"] = (peaks[name], "MiB")
    draws = calls[("call", "environment.draw_realization")]
    m["environment.draw_realization.calls"] = (draws, "count")
    declares = calls[("call", "mechanism_multi.declare_ranking")]
    m["mechanism_multi.declare_ranking.calls"] = (declares, "count")
    counts = computed_counts(workload, ctx, out_dir)
    records = counts["mechanism.iter_rounds.records"]
    per_record = self_time[("call", "mechanism.iter_rounds")] / records * 1e6 if records else 0.0
    m["mechanism.iter_rounds.us_per_record"] = (per_record, "us")
    probe = next(s for s in spans if s["name"] == "metrics.delta_regret_increment")
    m["metrics.delta_regret_increment.us_per_call"] = (
        (probe["end"] - probe["start"]) / probe["calls"] * 1e6,
        "us",
    )
    for name, unit in COUNT_UNITS.items():
        m[name] = (counts[name], unit)
    m["trace.total_s"] = (total, "s")
    m["trace.overhead_s"] = (trace["overhead"]["estimate_s"], "s")

    traced_self = {name: v for (kind, name), v in self_time.items() if kind == "call"}
    return m, traced_self


def metadata():
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    head = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        if done.returncode == 0:
            head = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": head,
        "src_lines": src_lines,
    }


def differing_outputs(first, second):
    """Names of the output files that differ between two command output directories."""
    names = sorted(p.name for p in first.iterdir()) if first.is_dir() else []
    other = sorted(p.name for p in second.iterdir()) if second.is_dir() else []
    if names != other:
        return [f"files {names} vs {other}"]
    return [name for name in names if (first / name).read_bytes() != (second / name).read_bytes()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "deltaucb" / "harness.py").is_file():
        print(f"error: no deltaucb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    config_seed = config_seed_for(workload, seed)
    ctx = {"config_seed": config_seed, "default_seed": config_seed == workload.default_seed}
    if workload.kind == "dsic":
        ctx["instance_sizes"] = dsic_instance_sizes(config_seed)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        return measure(workload, args, seed, ctx)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def measure(workload, args, seed, ctx):
    config_path = WORK / "workload.cfg"
    config_path.write_text(config_text(workload, ctx["config_seed"]))
    out_dir = WORK / "out"
    attempted = 0
    failures = []  # one entry per failed command, naming every problem it had

    def tally(label, problems):
        nonlocal attempted
        attempted += 1
        if problems:
            failures.append(f"{label}: " + "; ".join(problems))

    # untimed warm-up: byte-compiles the sources and proves the program runs at all
    warm = run_process(CLI, ["validate", "--config", str(config_path)], WORK / "log")
    if warm.exit_code != 0 or warm.stdout != "config ok\n":
        print("error: deltaucb validate failed:", file=sys.stderr)
        print((WORK / "log" / "stderr").read_text(errors="replace"), file=sys.stderr)
        return 1

    setup_walls = []

    def setup():
        cmd = run_process(CLI, ["validate", "--config", str(config_path)], WORK / "log")
        ok = cmd.exit_code == 0 and cmd.stdout == "config ok\n"
        tally("validate", [] if ok else [f"exit {cmd.exit_code}, stdout {cmd.stdout!r}"])
        setup_walls.append(cmd.wall_s)

    walls, rss = [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        # every set-up command now due, so they keep pace with long commands
        while len(setup_walls) < SETUP_REPEATS and (
            time.perf_counter() - start >= len(setup_walls) * args.seconds / SETUP_REPEATS
        ):
            setup()
        shutil.rmtree(out_dir, ignore_errors=True)
        cmd = run_process(CLI, command_args(workload, config_path, out_dir), WORK / "log")
        tally(f"command {len(walls) + 1}", check(workload, ctx, cmd, out_dir))
        walls.append(cmd.wall_s)
        rss.append(cmd.rss_mb)
        last = cmd
        if time.perf_counter() >= deadline:
            break
    while len(setup_walls) < SETUP_REPEATS:
        setup()

    wall_s = statistics.median(walls)
    setup_s = statistics.median(setup_walls)
    e2e = {
        "wall_s": (wall_s, "s"),
        "work_per_s": (work_units(workload, ctx) / wall_s, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
        "setup_s": (setup_s, "s"),
    }

    per_layer = traced_self = None
    if args.trace:
        traced_out = WORK / "traced_out"
        spans_path = WORK / "spans.json"
        run_id = f"{workload.name}:{seed}"
        cli_args = command_args(workload, config_path, traced_out)
        traced = run_process(TRACED, [str(spans_path), run_id, *cli_args], WORK / "traced_log")
        problems = check(workload, ctx, traced, traced_out)
        if traced.stdout != last.stdout:
            problems.append("traced stdout differs from the CLI's")
        for name in differing_outputs(out_dir, traced_out):
            problems.append(f"traced {name} differs from the CLI's")
        if not spans_path.is_file():
            # without spans there are no per-layer metrics to report
            print("error: the traced run wrote no spans:", file=sys.stderr)
            print((WORK / "traced_log" / "stderr").read_text(errors="replace"), file=sys.stderr)
            return 1
        trace = json.loads(spans_path.read_text())
        tally("traced run", problems)
        per_layer, traced_self = layer_metrics(workload, ctx, trace, out_dir)

    report(workload, args, seed, ctx, walls, setup_walls, e2e, attempted, failures)
    if args.trace:
        report_layers(per_layer, traced_self, trace["overhead"])
    metrics = per_layer if args.trace else e2e
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def report(workload, args, seed, ctx, walls, setup_walls, e2e, attempted, failures):
    print(f"meta {json.dumps(metadata(), sort_keys=True)}")
    print(
        f"workload {workload.name}: seed {seed} (config seed {ctx['config_seed']}), "
        f"{len(walls)} commands in a closed loop with one client over {args.seconds:g} s, "
        f"with {len(setup_walls)} set-up commands among them"
    )
    for name, (value, unit) in e2e.items():
        if name == "work_per_s":
            unit = f"{workload.work_unit}/s"
        print(f"  {name:12s} {value:.6g} {unit}")
    tail_value = tail(walls)
    if tail_value is None:
        print(f"  wall_s_tail  n/a: {len(walls)} commands, a tail needs at least 11")
    else:
        value, percent = tail_value
        beyond = f"10 of {len(walls)} commands beyond it"
        print(f"  wall_s_tail  {value:.6g} s (p{percent:.0f}; {beyond})")
    print(f"  failed_frac  {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    for failure in failures[:20]:
        print(f"    {failure}")


def report_layers(per_layer, traced_self, overhead):
    print("per-layer (traced run):")
    for name, (value, unit) in per_layer.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print("traced self time by span (s):")
    for name, value in sorted(traced_self.items(), key=lambda kv: -kv[1]):
        print(f"  {name:48s} {value:.6g}")
    print(
        f"tracing overhead: {overhead['spans']} spans x {overhead['per_span_s'] * 1e6:.3g} us"
        f" + {overhead['generator_steps']} generator steps x {overhead['per_step_s'] * 1e6:.3g} us"
    )


if __name__ == "__main__":
    sys.exit(main())
