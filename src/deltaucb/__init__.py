"""Seeded simulator and property checks for tolerance-aware UCB auction mechanisms."""

import importlib
import os

# Nothing here calls BLAS. Left alone, numpy's import starts an OpenBLAS
# worker per core whose idle spin competes with the main thread, so a short
# command's time would follow the load on the other cores. A value the
# caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# the public names, by defining module; a module loads when one of its names is first read
_EXPORTS = {
    "core": "AgentProfile AuctionConfig ConfigError LearnerState Phase RoundRecord "
    "exploration_budget gammas_from_lambdas validate_profiles",
    "environment": "ClickRealization draw_realization dump_realization load_realization "
    "realized_click",
    "mechanism": "MECHANISMS Learned Outcome declare_winner explore multi_slot_payment run "
    "run_multi_slot run_single_slot",
    "metrics": "RunResult RunSummary agent_utility welfare",
    "strategy_lab": "DeviationScenario build_scenario verify_dsic verify_ir",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
