"""Traced run of one deltaucb CLI command, for the benchmark's per-layer figures.

Usage: ``python3 perfbench/traced.py SPANS_JSON RUN_ID <deltaucb arguments>``

Runs ``deltaucb.harness.main`` on the arguments with every function in
``LAYERS`` wrapped in a span. A function is wrapped wherever a deltaucb module
holds it, as its own definition or as an imported name, so the CLI's own code
makes every traced call and the output is the real command's by construction.
The process prints what the CLI prints, writes the files it writes and exits
with its code. Each span records name, start, end, parent, run id and its
duration; a generator's span counts only the time spent inside the generator,
not in its consumer. Nested spans give each layer's self time: for example
``run_single_slot(rounds_log="all")`` splits into its own aggregate path and
the ``iter_rounds`` generator it drains.

After the command, with the wrappers removed, probes re-make calls: one to
time ``metrics.delta_regret_increment`` (kind ``probe``) and some under
tracemalloc for their allocation peak (kind ``memory``). The tracing overhead
is estimated as the number of spans (and generator steps) times the cost of
one, measured in this process. Spans stay in memory and are written to
SPANS_JSON when the run ends.
"""

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_start = time.perf_counter()
import numpy  # noqa: E402,F401

_numpy_done = time.perf_counter()
from deltaucb import harness, metrics  # noqa: E402

_deltaucb_done = time.perf_counter()

LAYERS = (
    "harness.parse_config_file",
    "harness.build_profiles",
    "harness._draw_instance",
    "environment.draw_realization",
    "mechanism.run_single_slot",
    "mechanism.iter_rounds",
    "mechanism_multi.run_multi_slot",
    "mechanism_multi.declare_ranking",
    "harness.emit_summary",
    "harness.round_log_rows",
    "harness.emit_round_log",
    "strategy_lab.build_scenario",
    "strategy_lab.verify_dsic",
    "strategy_lab.per_round_utilities",
)
# layers whose calls are re-made under tracemalloc after the command
MEMORY_LAYERS = (
    "environment.draw_realization",
    "mechanism.iter_rounds",
    "harness.emit_round_log",
)
DELTA_REGRET_PROBE_CALLS = 20_000
CALIBRATION_CALLS = 20_000


class Tracer:
    """In-memory spans: name, start, end, duration, parent span, run id, kind."""

    def __init__(self, run_id, keep=()):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self.keep = keep
        self.kept = defaultdict(list)  # name -> (args, kwargs) of each call

    def _open(self, name, kind):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "kind": kind,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name, kind="call", **attrs):
        record = self._open(name, kind)
        record.update(attrs)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["duration"] = record["end"] - record["start"]
            self._stack.pop()

    def wrap(self, name, fn):
        """fn with a span around each call; a generator function gets a span per generator."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self._keep(name, args, kwargs)
                return self._drive(self._open(name, "call"), fn(*args, **kwargs))

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._keep(name, args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _keep(self, name, args, kwargs):
        if name in self.keep:
            self.kept[name].append((args, kwargs))

    def _drive(self, record, generator):
        """Yield from generator, timing only the steps spent inside it."""
        stack, clock = self._stack, time.perf_counter
        busy, steps = 0.0, 0
        try:
            while True:
                stack.append(record["id"])
                step_start = clock()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    busy += clock() - step_start
                    stack.pop()
                steps += 1
                yield item
        finally:
            record["end"] = clock()
            record["duration"] = busy
            record["steps"] = steps


@contextmanager
def installed(tracer, layers):
    """Replace each layer's function by its traced wrapper in every deltaucb module."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "deltaucb"]
    patched = []
    try:
        for name in layers:
            module_name, attr = name.split(".")
            fn = getattr(importlib.import_module(f"deltaucb.{module_name}"), attr)
            wrapper = tracer.wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        patched.append((module, key, fn))
                        setattr(module, key, wrapper)
        yield
    finally:
        for module, key, fn in reversed(patched):
            setattr(module, key, fn)


def span_costs():
    """Seconds that one traced call and one traced generator step add, measured here."""

    def noop():
        pass

    def items():
        yield from range(CALIBRATION_CALLS)

    def best_of(fn):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    tracer = Tracer("calibration")
    traced_noop, traced_items = tracer.wrap("noop", noop), tracer.wrap("items", items)

    def calls(fn):
        return lambda: [fn() for _ in range(CALIBRATION_CALLS)]

    def drain(fn):
        return lambda: list(fn())

    per_call = (best_of(calls(traced_noop)) - best_of(calls(noop))) / CALIBRATION_CALLS
    per_step = (best_of(drain(traced_items)) - best_of(drain(items))) / CALIBRATION_CALLS
    return max(per_call, 0.0), max(per_step, 0.0)


def memory_probes(tracer, scratch_path):
    """Re-make the kept calls under tracemalloc; each span gets its peak in MiB."""
    for name in MEMORY_LAYERS:
        module_name, attr = name.split(".")
        fn = getattr(importlib.import_module(f"deltaucb.{module_name}"), attr)
        for args, kwargs in tracer.kept[name]:
            if name == "harness.emit_round_log":
                # emit_round_log(records, path, ...): write the copy elsewhere
                args = (args[0], scratch_path, *args[2:])
            with tracer.span(name, "memory") as record:
                tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                    if inspect.isgenerator(result):
                        result = list(result)
                    del result
                finally:
                    record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
    Path(scratch_path).unlink(missing_ok=True)


def probe_delta_regret(tracer):
    """Time the per-row regret function on the command's own profiles."""
    (config, profiles), _ = tracer.kept["environment.draw_realization"][0]
    allocations = [{1: p.id} for p in profiles]
    with tracer.span("metrics.delta_regret_increment", "probe", calls=DELTA_REGRET_PROBE_CALLS):
        for i in range(DELTA_REGRET_PROBE_CALLS):
            metrics.delta_regret_increment(
                allocations[i % len(allocations)], profiles, config.delta, config.prominences
            )


def main(argv):
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id, keep=MEMORY_LAYERS)
    with installed(tracer, LAYERS):
        with tracer.span("harness.main"):
            code = harness.main(cli_args)
    sys.stdout.flush()
    traced_calls = len(tracer.spans)
    generator_steps = sum(s.get("steps", 0) for s in tracer.spans)
    per_call, per_step = span_costs()

    probe_delta_regret(tracer)
    memory_probes(tracer, Path(spans_path).with_suffix(".probe"))
    Path(spans_path).write_text(
        json.dumps(
            {
                "run": run_id,
                "imports": {
                    "numpy": _numpy_done - _start,
                    "deltaucb": _deltaucb_done - _numpy_done,
                },
                "overhead": {
                    "spans": traced_calls,
                    "generator_steps": generator_steps,
                    "per_span_s": per_call,
                    "per_step_s": per_step,
                    "estimate_s": traced_calls * per_call + generator_steps * per_step,
                },
                "spans": tracer.spans,
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
