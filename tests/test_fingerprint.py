"""Byte fingerprint of the CLI: one short digest per command over seeded configs.

Each digest covers a command's exit code, its stdout and stderr with the
temporary directory masked, and every file it writes. The configs are
generated here: 60 seeded ones (K 1-6, M <= 3, T in 1..2,000, every
mechanism, drawn and explicit profiles), each through ``validate``, ``run``
at every ``--rounds-log`` level in CSV and JSONL, ``dsic-check`` and
``ir-check``; then ``sweep`` configs in both formats, and two configs that
give ``lambdas``. A failure names each command whose digest moved.

A change that moves bytes on purpose regenerates the manifest in a commit
of its own, from the repository root::

    PYTHONPATH=src python tests/test_fingerprint.py

and says in CHANGES.md which commands moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

from deltaucb.harness import main
from deltaucb.metrics import ROUNDS_LOG_LEVELS

MANIFEST = Path(__file__).parent / "data" / "fingerprint.txt"
_HORIZONS = (1, 7, 50, 400, 2000)
_SINGLE_SLOT = ("delta-ucb-single", "oracle", "plain-ucb", "explore-t23")
_BASE = "num_agents = 4\nhorizon = 400\ndelta = 0.9\nseed = 5\n"
# a sweep's configs: drawn and explicit profiles over every axis
_SWEEPS = {
    "sweep-drawn": "sweep_horizon = 7, 400\nsweep_delta = 0.5, 1.2\nsweep_seeds = 2\n",
    "sweep-agents": "valuation_range = 0.2, 0.8\nsweep_num_agents = 2, 5\nsweep_horizon = 50\n",
    "sweep-explicit": "num_slots = 3\nprominences = 1.0, 0.7, 0.2\nctrs = 0.8, 0.5, 0.3, 0.6\n"
    "bids = 1.0, 0.4, 0.9, 0.2\nsweep_num_slots = 1, 2, 3\n",
}
_LAMBDAS = {
    "lambdas-only": "num_slots = 3\nlambdas = 0.8, 0.5, 0.9\n",
    "lambdas-head": "num_slots = 2\nprominences = 1.0, 0.6\nlambdas = 0.6, 0.5\n"
    "sweep_num_slots = 1, 2, 3\n",
}


def _floats(rng, count, lo, hi):
    return ", ".join(repr(round(rng.uniform(lo, hi), 3)) for _ in range(count))


def _seeded_config(rng, index: int) -> str:
    """One config: sizes from the index, the rest drawn from rng."""
    k = 1 + index % 6
    m = 1 + (index // 6) % min(k, 3)
    v_max = rng.choice((1.0, 1.0, 2.5))
    lines = [
        f"num_agents = {k}",
        f"horizon = {_HORIZONS[index % 5]}",
        f"delta = {rng.choice((0.3, 0.6, 0.9, 1.5, 3.0))}",
        f"v_max = {v_max}",
        f"seed = {rng.randrange(2**32)}",
    ]
    if m > 1 or rng.random() < 0.3:
        lines.append(f"num_slots = {m}")
    if m > 1:
        lines.append(f"prominences = 1.0, {_floats(rng, 1, 0.6, 1.0)}" + (
            f", {_floats(rng, 1, 0.05, 0.6)}" if m == 3 else ""))
        if rng.random() < 0.3:
            lines.append("mechanism = delta-ucb-multi")
    else:
        lines.append(f"mechanism = {_SINGLE_SLOT[(index // 6 + index) % 4]}")
    if index % 3 == 0:
        lines.append(f"ctrs = {_floats(rng, k, 0.0, 1.0)}")
        if rng.random() < 0.7:
            lines.append(f"valuations = {_floats(rng, k, 0.0, v_max)}")
        if rng.random() < 0.5:
            lines.append(f"bids = {_floats(rng, k, 0.0, v_max)}")
    else:
        if rng.random() < 0.5:
            lo = round(rng.uniform(0.0, 0.5), 3)
            lines.append(f"ctr_range = {lo}, {round(rng.uniform(lo, 1.0), 3)}")
        if rng.random() < 0.3:
            lines.append(f"valuation_range = {round(0.1 * v_max, 3)}, {round(0.8 * v_max, 3)}")
        if rng.random() < 0.4:
            sizes = sorted({rng.randint(m, 6) for _ in range(3)})
            lines.append(f"agents_choices = {', '.join(map(str, sizes))}")
    return "\n".join(lines) + "\n"


def configs() -> dict:
    """Name -> config text of every fingerprinted config."""
    rng = random.Random(2017)
    named = {f"c{index:02d}": _seeded_config(rng, index) for index in range(60)}
    named.update({name: _BASE + text for name, text in {**_SWEEPS, **_LAMBDAS}.items()})
    return named


def commands() -> list:
    """(command name, config name, argv after --config) of every fingerprinted command."""
    out = []
    for name in configs():
        if name in _SWEEPS:
            lines = [("validate", [])]
        else:
            lines = [("validate", [])] + [
                (f"run --rounds-log {level} --format {fmt}",
                 ["--rounds-log", level, "--format", fmt, "--out", "{out}"])
                for level in ROUNDS_LOG_LEVELS
                for fmt in ("csv", "jsonl")
            ] + [(check, ["--instances", "2"]) for check in ("dsic-check", "ir-check")]
        if name in _SWEEPS or name == "lambdas-head":
            lines += [(f"sweep --format {fmt}", ["--format", fmt, "--out", "{out}"])
                      for fmt in ("csv", "jsonl")]
        out += [(f"{name} {label}", name, argv) for label, argv in lines]
    return out


def _digest(code, stdout: str, stderr: str, out: Path) -> str:
    """16 hex digits of sha256 over the exit code, both streams and each written file."""
    h = hashlib.sha256()
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    parts = [str(code).encode(), stdout.encode(), stderr.encode()]
    for path in files:
        parts += [path.relative_to(out).as_posix().encode(), path.read_bytes()]
    for part in parts:
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()[:16]


def fingerprint() -> dict:
    """Command name -> digest, running every command in-process."""
    texts = configs()
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in texts.items():
            (root / f"{name}.cfg").write_text(text, encoding="utf-8")
        for index, (label, name, argv) in enumerate(commands()):
            out = root / f"out{index}"
            args = [label.split()[1], "--config", str(root / f"{name}.cfg")]
            args += [str(out) if a == "{out}" else a for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(args)
                except Exception as err:  # pinned as it is, so a change to it shows
                    code = f"raised {type(err).__name__}: {err}"
            streams = (s.getvalue().replace(tmp, "<tmp>") for s in (stdout, stderr))
            digests[label] = _digest(code, *streams, out)
    return digests


def _read_manifest() -> dict:
    pinned = {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        digest, label = line.split(" ", 1)
        pinned[label] = digest
    return pinned


def test_every_command_keeps_its_pinned_bytes():
    pinned, digests = _read_manifest(), fingerprint()
    assert list(digests) == list(pinned), "the command list changed: regenerate the manifest"
    moved = [label for label, digest in digests.items() if pinned[label] != digest]
    assert not moved, f"{len(moved)} commands moved: " + "; ".join(moved)


if __name__ == "__main__":
    digests = fingerprint()
    MANIFEST.write_text("".join(f"{d} {label}\n" for label, d in digests.items()), "utf-8")
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)
