"""Print what one training step costs in-process, call by call.

    PYTHONPATH=src python3 tools/step_cost.py [--repeat 7] [--calls 20000]

For the benchmark's model shapes (the 4-24-4 and 8-24-8 MLPs at 32 rows,
cross-entropy, and the 24x24 (6, 6) conv density model at 32 images,
pixelwise L2) it times ``loss_and_grad``, ``adam_step`` and one batch of
both, as the trainer calls them: inside the error state a run holds.  The
``public`` column is one batch of both called from outside it, where each
call enters the state itself.  Each figure is the minimum over ``--repeat``
timings of ``--calls`` calls (the conv shape takes 1/200 of them, at least
one), in microseconds per call.  One BLAS thread is the benchmark's setting;
set ``OPENBLAS_NUM_THREADS=1`` before running to match it.  This reports
and gates on nothing.

A tree without ``float_errors_raised`` sets the error state inside every
call, so its trainer and public columns time the same calls.
"""

from __future__ import annotations

import argparse
import contextlib
import platform
import timeit

import numpy as np

import tftb.nn.models as models
from tftb.nn.adam import adam_step, init_adam_state
from tftb.nn.models import BatchStep, ConvDensityArch, MlpArch, init_params, loss_and_grad

# the run's error state; a tree that predates it has none to enter
RUN_STATE = getattr(models, "float_errors_raised", contextlib.nullcontext)
LR = 1e-3
ROWS = 32


def _cases(rng: np.random.Generator):
    """``(name, arch, loss kind, features, targets, share of --calls)``."""
    for d, k in ((4, 4), (8, 8)):
        yield (f"mlp {d}-24-{k} x{ROWS}", MlpArch(d, (24,), k), "cross_entropy",
               rng.standard_normal((ROWS, d)), rng.integers(0, k, ROWS), 1)
    conv = ConvDensityArch(24, 24, (6, 6))
    yield (f"conv 24x24 (6, 6) x{ROWS}", conv, "pixelwise_l2",
           rng.random((ROWS, 24, 24)), rng.random((ROWS, 24, 24)) * 0.1, 200)


def _best_us(fn, calls: int, repeat: int) -> float:
    return min(timeit.repeat(fn, number=calls, repeat=repeat)) / calls * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=7, help="timings per figure (default 7)")
    ap.add_argument("--calls", type=int, default=20000, help="calls per timing (default 20000)")
    args = ap.parse_args(argv)
    repeat, calls = max(1, args.repeat), max(1, args.calls)
    print(f"numpy {np.__version__}, python {platform.python_version()}, "
          f"run-wide error state: {'yes' if RUN_STATE is not contextlib.nullcontext else 'no'}")
    print(f"{'shape':<26}{'calls':>7}{'loss_and_grad':>15}{'adam_step':>11}"
          f"{'batch':>9}{'public':>9}  (us per call, min of {repeat})")
    rng = np.random.default_rng(0)
    for name, arch, loss_kind, x, y, share in _cases(rng):
        n = max(1, calls // share)
        params = init_params(arch, np.random.default_rng(1))
        step = BatchStep(arch, ROWS, loss_kind)
        state = init_adam_state(params)
        grad = loss_and_grad(params, x, y, step).grad.copy()

        def batch():
            adam_step(params, loss_and_grad(params, x, y, step).grad, state, LR)

        with RUN_STATE():
            lg = _best_us(lambda: loss_and_grad(params, x, y, step), n, repeat)
            adam = _best_us(lambda: adam_step(params, grad, state, LR), n, repeat)
            both = _best_us(batch, n, repeat)
        public = _best_us(batch, n, repeat)
        print(f"{name:<26}{n:>7}{lg:>15.2f}{adam:>11.2f}{both:>9.2f}{public:>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
