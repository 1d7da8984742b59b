"""Write the artifacts of a fixed set of virtual-clock runs.

    PYTHONPATH=src python3 tools/virtual_runs.py OUT

Each run writes its run directory (``manifest.json``, ``loss_curve.csv``,
``checkpoint.bin`` and, for ``tftb`` runs, ``ledger.csv``) under
``OUT/<case>/``.  Under a ``VirtualClock`` every artifact is a function of
the code alone, so running this on two trees and comparing the outputs with
``diff -r`` shows whether a change kept the training behaviour byte for
byte.  Every ``manifest.json`` and ``checkpoint.bin`` is read back with
``RunManifest.load`` and ``load_params``; if one does not load, the script
exits 1.  The cases cover both modes, refreshes and reranks every few epochs,
unstratified selection at several score windows, rows that occur more often
in one epoch than their window holds, adaptive alpha, a run
ended by its budget with scripted rank and refresh costs, 8 classes at
``feature_dim = 8`` (the ``equal-budget`` data shape), and the conv model.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

from tftb.budget import VirtualClock
from tftb.errors import TftbError
from tftb.experiments import ExperimentSpec, run_experiment
from tftb.importance import AlphaSchedule
from tftb.manifest import RunManifest
from tftb.nn.checkpoint import load_params
from tftb.trainer import TrainConfig

# the spec of acceptance criterion 10 (byte-identical manifests)
CRITERION_10 = ExperimentSpec(
    task="classify-synth",
    config=TrainConfig(mode="tftb", alpha=0.3, warmup_epochs=1, max_epochs=6, lr=0.005,
                       seed=4, early_stop_patience=50),
    n_per_class=40,
    num_classes=3,
    easy_fraction=0.6,
    n_test_per_class=40,
    hidden=(12,),
    ledger_csv=True,
)

COUNT_SYNTH = ExperimentSpec(
    task="count-synth",
    config=TrainConfig(mode="tftb", alpha=0.3, max_epochs=4, lr=0.005, seed=2,
                       early_stop_patience=50, refresh_excluded_period=1),
    n_images=40,
    image_size=16,
    conv_channels=(3, 3),
    n_test_images=10,
    ledger_csv=True,
)


def _with(spec: ExperimentSpec, **train) -> ExperimentSpec:
    return dataclasses.replace(spec, config=dataclasses.replace(spec.config, **train))


def cases():
    """(name, spec, clock costs) of every run."""
    costs = {"batch": 0.01, "validation": 0.002}
    yield "criterion10-tftb", CRITERION_10, costs
    yield "criterion10-baseline", _with(CRITERION_10, mode="baseline"), costs
    yield "refresh1-rerank2", _with(CRITERION_10, refresh_excluded_period=1,
                                    rerank_period=2), costs
    for window in (1, 3, 7):
        yield (f"unstratified-w{window}",
               _with(CRITERION_10, stratified=False, score_window=window), costs)
    # a fifth of the rows fill each epoch, so a row occurs about five times
    # in one epoch, one ledger write per pass, more often than its window of
    # two holds
    yield "alpha0.8-w2", _with(CRITERION_10, alpha=0.8, score_window=2), costs
    schedule = AlphaSchedule(enabled=True, window=2, eps_slow=0.01, eps_fast=0.2,
                             delta_alpha=0.1, alpha_min=0.1, alpha_max=0.6)
    yield "adaptive-alpha", _with(CRITERION_10, max_epochs=10, adaptive_alpha=schedule), costs
    yield ("budget-bound",
           _with(CRITERION_10, max_epochs=None, budget_seconds=1.5, refresh_excluded_period=1),
           {**costs, "rank": 0.3, "refresh": 0.2})
    # the equal-budget data shape: six nuisance columns, neighbours wrap at 8
    wide = dataclasses.replace(CRITERION_10, num_classes=8, feature_dim=8)
    yield "classes8-dim8-tftb", wide, costs
    yield "classes8-dim8-baseline", _with(wide, mode="baseline"), costs
    yield "count-synth-tftb", COUNT_SYNTH, costs
    yield "count-synth-baseline", _with(COUNT_SYNTH, mode="baseline"), costs


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: tools/virtual_runs.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    unreadable = 0
    for name, spec, costs in cases():
        _, manifest, run_dir = run_experiment(spec, out_dir=out / name,
                                              clock=VirtualClock(costs=costs))
        print(f"{name}: {manifest.stop_reason}, {len(manifest.epochs)} epochs")
        try:
            RunManifest.load(run_dir / "manifest.json")
            load_params(run_dir / "checkpoint.bin")
        except (TftbError, OSError) as exc:
            print(f"{name}: an artifact does not read back: {exc}", file=sys.stderr)
            unreadable += 1
    return 1 if unreadable else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
