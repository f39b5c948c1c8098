"""The tracer's multi-slot names; the mechanism is ``mechanism.MECHANISMS["delta-ucb-multi"]``."""

from .mechanism import declare as declare_ranking, run_multi_slot  # noqa: F401  (traced names)
