"""Seeded simulator and property checks for tolerance-aware UCB auction mechanisms."""

import os

# Nothing here calls BLAS. Left alone, numpy's import starts an OpenBLAS
# worker per core whose idle spin competes with the main thread, so a short
# command's time would follow the load on the other cores. A value the
# caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (
    AgentProfile,
    AuctionConfig,
    ConfigError,
    LearnerState,
    Phase,
    RoundRecord,
    exploration_budget,
    gammas_from_lambdas,
    validate_config,
    validate_profiles,
)
from .environment import (
    ClickRealization,
    draw_realization,
    dump_realization,
    load_realization,
    realized_click,
)
from .mechanism import Outcome, declare_winner, run_single_slot, ucb_pair
from .mechanism_multi import multi_slot_payment, run_multi_slot
from .metrics import RunResult, RunSummary, agent_utility, delta_set, welfare
from .strategy_lab import (
    BaselineKind,
    DeviationScenario,
    build_scenario,
    run_baseline,
    verify_dsic,
    verify_ir,
)

__version__ = "0.1.0"
