"""Print what one training step and one ranking cost in-process, call by call.

    PYTHONPATH=src python3 tools/step_cost.py [--repeat 41] [--calls 2000] [--against DIR]

For the benchmark's model shapes (the 4-24-4 and 8-24-8 MLPs at 32 rows,
cross-entropy, and the 24x24 (6, 6) conv density model at 32 images,
pixelwise L2) it times ``loss_and_grad``, ``adam_step`` and one batch of
both, as the trainer calls them: inside the error state a run holds.  The
``section`` column is the same batch as a run takes it, inside
``BudgetClock.section("batch", ..., batches=1)`` of a budget past its
warm-up on a ``WallClock``, so ``section`` less ``batch`` is what the
loop's clock adds to a batch.  The ``public`` column is one batch of both
called from outside the error state, where each call enters it itself.
Each figure is the minimum over ``--repeat`` timings of ``--calls`` calls
(the conv shape takes 1/200 of them, at least one), in microseconds per
call.  The defaults take many short timings (about 0.1 s each at 4-24-4)
rather than a few long ones: a slow stretch of the host can last seconds,
and a figure needs only one timing outside it.  One more row times the
clock alone: a ``WallClock.measure`` of an empty block, and a ``section``
of a function that does nothing.

For the importance layer at the ``select-heavy`` workload's size (45k rows
in 4 classes, a window of 5, alpha 0.3, stratified) it times one pass write
of the 70% pool (31.5k rows in shuffled order, as ``record_losses`` takes a
selective epoch's losses), ``effective_scores`` and ``select_subset``, at
three fill depths of the ledger: one full pass (every row padded in its
oldest 4 slots, as at the first ranking), a full pass and two pool passes
(some rows padded), and five full passes (no row padded).  Every write
starts from the same ledger, copied outside the timing.  Each figure is the
minimum over ``--repeat`` timings of ``--calls`` / 2000 calls (at least
one), in microseconds per call.

``--against DIR`` loads a second tree's ``tftb`` from ``DIR`` (the ``src``
directory of another checkout) as the package ``tftb_against`` and prints
every row for both trees.  The trees are timed interleaved in this one
process: each timing of one is followed by the same timing of the other,
in turns that alternate which goes first, so a slow stretch of the host
falls on both.  One BLAS thread is the benchmark's setting; set
``OPENBLAS_NUM_THREADS=1`` before running to match it.  This reports and
gates on nothing.

A tree without ``float_errors_raised`` sets the error state inside every
call, so its trainer and public columns time the same calls.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import importlib
import importlib.util
import math
import platform
import sys
import time
import timeit
from pathlib import Path

import numpy as np

LR = 1e-3
ROWS = 32
# the select-heavy workload's ledger and ranking
N, CLASSES, WINDOW, ALPHA, LAMBDA_VAR = 45_000, 4, 5, 0.3, 1.0


class Tree:
    """The modules of one tree's ``tftb`` package, imported as ``package``."""

    def __init__(self, package: str):
        self.package = package
        self.models = importlib.import_module(f"{package}.nn.models")
        self.adam = importlib.import_module(f"{package}.nn.adam")
        self.importance = importlib.import_module(f"{package}.importance")
        self.data = importlib.import_module(f"{package}.data")
        self.budget = importlib.import_module(f"{package}.budget")
        # the run's error state; a tree that predates it has none to enter
        self.run_state = getattr(self.models, "float_errors_raised", contextlib.nullcontext)


def load_tree(src: str, package: str) -> Tree:
    """Import the ``tftb`` package under ``src`` as ``package``; its modules
    import each other relatively, so none of them is shared with ``tftb``."""
    init = Path(src) / "tftb" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no tftb package under {src}")
    spec = importlib.util.spec_from_file_location(
        package, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    return Tree(package)


def _interleaved(timers, repeat: int) -> list[float]:
    """Each timer's least seconds over ``repeat`` turns; a turn calls every
    timer once, the first timer first in even turns and last in odd ones."""
    best = [math.inf] * len(timers)
    for turn in range(repeat):
        order = range(len(timers)) if turn % 2 == 0 else reversed(range(len(timers)))
        for i in order:
            best[i] = min(best[i], timers[i]())
    return best


def _calls(fn, n: int, state=contextlib.nullcontext):
    """A timer of ``n`` calls of ``fn`` inside ``state``."""
    def timer():
        with state():
            return timeit.timeit(fn, number=n)
    return timer


def _step_cases(rng: np.random.Generator):
    """``(name, arch kind, arch args, loss kind, features, targets, share of --calls)``."""
    for d, k in ((4, 4), (8, 8)):
        yield (f"mlp {d}-24-{k} x{ROWS}", "MlpArch", (d, (24,), k), "cross_entropy",
               rng.standard_normal((ROWS, d)), rng.integers(0, k, ROWS), 1)
    yield (f"conv 24x24 (6, 6) x{ROWS}", "ConvDensityArch", (24, 24, (6, 6)), "pixelwise_l2",
           rng.random((ROWS, 24, 24)), rng.random((ROWS, 24, 24)) * 0.1, 200)


def _warm_budget(tree: Tree):
    """A budget of a run on a ``WallClock`` past its warm-up, which no
    timing here exhausts, so each batch section is estimated and gated as a
    run's is."""
    budget = tree.budget.BudgetClock(1e9, tree.budget.WallClock())
    budget.section("batch", _nothing)
    budget.finish_warmup()
    return budget


def _nothing():
    return None


def _step_timers(tree: Tree, arch_kind, arch_args, loss_kind, x, y, n):
    """Timers of ``loss_and_grad``, ``adam_step``, a batch, a batch section,
    and a public batch."""
    models, adam = tree.models, tree.adam
    arch = getattr(models, arch_kind)(*arch_args)
    params = models.init_params(arch, np.random.default_rng(1))
    step = models.BatchStep(arch, ROWS, loss_kind)
    state = adam.init_adam_state(params)
    grad = models.loss_and_grad(params, x, y, step).grad.copy()
    budget = _warm_budget(tree)

    def batch():
        adam.adam_step(params, models.loss_and_grad(params, x, y, step).grad, state, LR)

    inside = tree.run_state
    return [_calls(lambda: models.loss_and_grad(params, x, y, step), n, inside),
            _calls(lambda: adam.adam_step(params, grad, state, LR), n, inside),
            _calls(batch, n, inside),
            _calls(lambda: budget.section("batch", batch, batches=1), n, inside),
            _calls(batch, n)]


def _clock_timers(tree: Tree, n):
    """Timers of a ``WallClock.measure`` of an empty block and of a batch
    section of a function that does nothing."""
    clock, budget = tree.budget.WallClock(), _warm_budget(tree)

    def measure():
        with clock.measure("batch"):
            pass

    return [_calls(measure, n), _calls(lambda: budget.section("batch", _nothing, batches=1), n)]


def _fills(rng: np.random.Generator):
    """``(name, writes, pool rows)`` per fill depth: ``writes`` are the
    ``(rows, losses)`` calls that fill the ledger, and the pool rows, in
    shuffled order, are the pass write the depth is timed with."""
    size = round((1.0 - ALPHA) * N)

    def pool():
        return rng.permutation(rng.choice(N, size=size, replace=False))

    def full():
        return rng.permutation(N)

    def write(rows):
        return rows, rng.uniform(0.0, 3.0, rows.size)

    yield "1 pass", [write(full())], pool()
    yield "1 pass + 2 pools", [write(full()), write(pool()), write(pool())], pool()
    yield f"{WINDOW} passes", [write(full()) for _ in range(WINDOW)], pool()


def _importance_timers(tree: Tree, labels, writes, rows, losses, n):
    """Timers of one pass write, ``effective_scores`` and ``select_subset``."""
    imp = tree.importance
    ledger = imp.ImportanceLedger(np.arange(N), WINDOW)
    for epoch, (written, values) in enumerate(writes, start=1):
        ledger.record_losses(written, values, epoch)
    features = np.broadcast_to(np.zeros(1), (N, 1))
    dataset = tree.data.Dataset(np.arange(N), features, labels, num_classes=CLASSES,
                                split_tag="train")
    dataset.class_rows  # grouped once per dataset, before any ranking
    scores = ledger.effective_scores(LAMBDA_VAR)
    epoch = len(writes) + 1

    def record():
        seconds = 0.0
        for _ in range(n):
            fresh = copy.deepcopy(ledger)
            start = time.perf_counter()
            fresh.record_losses(rows, losses, epoch)
            seconds += time.perf_counter() - start
        return seconds

    return [record,
            _calls(lambda: ledger.effective_scores(LAMBDA_VAR), n),
            _calls(lambda: imp.select_subset(scores, dataset, ALPHA, True), n)]


def _table(lead: str, columns, rows, timers_of, trees, repeat: int) -> None:
    """Print a header of ``(name, width)`` columns, then each row's figures
    (us per call) for every tree; ``timers_of(tree, *args)`` gives a row's
    timers, one per column, each timing ``n`` calls."""
    print(f"{lead:<26}{'tree':<14}{'calls':>7}" + "".join(f"{c:>{w}}" for c, w in columns)
          + f"  (us per call, min of {repeat})")
    for name, n, args in rows:
        per_tree = [timers_of(tree, *args, n) for tree in trees]
        best = _interleaved([t for timers in per_tree for t in timers], repeat)
        for i, tree in enumerate(trees):
            seconds = best[i * len(columns) : (i + 1) * len(columns)]
            figures = "".join(f"{s / n * 1e6:>{w}.2f}" for s, (_, w) in zip(seconds, columns))
            print(f"{name if i == 0 else '':<26}{tree.package:<14}{n:>7}{figures}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=41, help="timings per figure (default 41)")
    ap.add_argument("--calls", type=int, default=2000, help="calls per timing (default 2000)")
    ap.add_argument("--against", metavar="DIR",
                    help="also time the tftb package under DIR, interleaved with this one")
    args = ap.parse_args(argv)
    repeat, calls = max(1, args.repeat), max(1, args.calls)
    trees = [Tree("tftb")]
    if args.against is not None:
        trees.append(load_tree(args.against, "tftb_against"))
    print(f"numpy {np.__version__}, python {platform.python_version()}")
    for tree in trees:
        origin = Path(sys.modules[tree.package].__file__).parent
        state = "yes" if tree.run_state is not contextlib.nullcontext else "no"
        print(f"{tree.package}: {origin}, run-wide error state: {state}")

    rng = np.random.default_rng(0)
    steps = [(name, max(1, calls // share), (kind, arch_args, loss, x, y))
             for name, kind, arch_args, loss, x, y, share in _step_cases(rng)]
    _table("shape", [("loss_and_grad", 15), ("adam_step", 11), ("batch", 9), ("section", 9),
                     ("public", 9)], steps, _step_timers, trees, repeat)
    print()
    _table("clock", [("measure", 9), ("section", 9)], [("WallClock", calls, ())],
           _clock_timers, trees, repeat)

    n = max(1, calls // 2000)
    labels = rng.permutation(np.arange(N) % CLASSES)
    fills = [(name, n, (labels, writes, rows, rng.uniform(0.0, 3.0, rows.size)))
             for name, writes, rows in _fills(rng)]
    print(f"\nimportance: {N} rows in {CLASSES} classes, window {WINDOW}, alpha {ALPHA}, "
          f"stratified; a pass write of {fills[0][2][2].size} rows")
    _table("fill depth", [("pass write", 12), ("effective_scores", 18), ("select_subset", 15)],
           fills, _importance_timers, trees, repeat)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
