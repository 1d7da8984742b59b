"""tftb: train within a fixed time budget.

A self-contained training engine that ranks samples by their recent training
losses, keeps the top (1 - alpha) fraction as the active subset, re-ranks the
full dataset as scores evolve, and plans its iterations against a hard
wall-clock budget -- plus a random-sampling baseline under identical
sample-exposure accounting for honest comparisons.
"""

from .errors import TftbError
from .experiments import ExperimentSpec, run_experiment, run_sweep
from .importance import AlphaSchedule
from .manifest import RunManifest
from .metrics import compare_runs
from .trainer import TrainConfig

__version__ = "0.1.0"

__all__ = [
    "AlphaSchedule",
    "ExperimentSpec",
    "RunManifest",
    "TftbError",
    "TrainConfig",
    "compare_runs",
    "run_experiment",
    "run_sweep",
]
