"""tools/artifact_diff.py: what it prints for two trees of run artifacts."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from tftb.nn import MlpArch, init_params, save_params

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "artifact_diff.py"
_spec = importlib.util.spec_from_file_location("artifact_diff", _SCRIPT)
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)


def write_run(root: Path, params, manifest: dict, curve: str) -> None:
    """One run directory of a checkpoint, a manifest and a loss curve."""
    run = root / "case" / "run"
    run.mkdir(parents=True)
    save_params(params, run / "checkpoint.bin")
    (run / "manifest.json").write_text(json.dumps(manifest))
    (run / "loss_curve.csv").write_text(curve)


MANIFEST = {"mode": "tftb", "epochs": [{"loss": 0.5, "alpha": 0.3}, {"loss": 0.25, "alpha": 0.3}]}
CURVE = "epoch,loss,accuracy\n0,0.5,0.75\n1,0.25,0.875\n"


@pytest.fixture
def trees(tmp_path):
    """``(base, head, params)``: two identical trees and the parameters of
    their checkpoints."""
    params = init_params(MlpArch(3, (4,), 2), np.random.default_rng(0))
    base, head = tmp_path / "base", tmp_path / "head"
    for root in (base, head):
        write_run(root, params, MANIFEST, CURVE)
    return base, head, params


def test_identical_trees_print_nothing(trees, capsys):
    base, head, _ = trees
    assert artifact_diff.compare(base, head) == []
    assert artifact_diff.main([str(base), str(head)]) == 0
    assert capsys.readouterr().out == ""


def test_one_moved_parameter_is_counted_and_named_by_its_array(trees):
    base, head, params = trees
    moved = params.copy()
    moved.weights[1][2, 1] *= 2.0  # |x - 2x| / |2x|
    save_params(moved, head / "case" / "run" / "checkpoint.bin")
    assert params.flat.size == 26  # 3*4 + 4 + 4*2 + 2
    assert artifact_diff.compare(base, head) == [
        "case/run/checkpoint.bin: 1 of 26 values differ, largest relative difference 0.5",
        "  weights[1]: 1 values, largest 0.5",
    ]


def test_csv_moves_group_by_column_and_json_moves_by_field(trees):
    base, head, _ = trees
    run = head / "case" / "run"
    (run / "loss_curve.csv").write_text("epoch,loss,accuracy\n0,0.5,0.5\n1,0.2,0.875\n")
    epochs = [{"loss": 0.4, "alpha": 0.3}, {"loss": 0.2, "alpha": 0.3}]
    (run / "manifest.json").write_text(json.dumps({**MANIFEST, "epochs": epochs}))
    assert artifact_diff.compare(base, head) == [
        "case/run/loss_curve.csv: 2 of 6 values differ, largest relative difference 0.33",
        "  accuracy: 1 values, largest 0.33",
        "  loss: 1 values, largest 0.2",
        "case/run/manifest.json: 2 of 5 values differ, largest relative difference 0.2",
        "  epochs[*].loss: 2 values, largest 0.2",
    ]


def test_a_file_in_one_tree_only_is_reported(trees):
    base, head, _ = trees
    (base / "case" / "run" / "ledger.csv").write_text("id,mean\n0,1.0\n")
    (head / "case" / "extra.json").write_text("{}")
    assert artifact_diff.compare(base, head) == [
        "case/extra.json: only in head",
        "case/run/ledger.csv: only in base",
    ]


def test_a_non_numeric_difference_has_no_relative_size(trees):
    base, head, _ = trees
    (head / "case" / "run" / "manifest.json").write_text(json.dumps({**MANIFEST, "mode": "baseline"}))
    assert artifact_diff.compare(base, head) == [
        "case/run/manifest.json: 1 of 5 values differ, largest relative difference -",
        "  mode: 1 values, largest -",
    ]
