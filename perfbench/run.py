"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload select-heavy --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``.
Operations run one after another, each in a fresh Python process with one
BLAS thread, until the next one would end past ``--seconds`` (at least one
operation runs; two with ``--trace 1``, which alternates untraced and traced
operations so the tracing overhead can be measured).  ``bench.py`` defines
the workloads and what one operation does.

Every stdout line but the last is for people: per-operation lines, the
provenance, the named metrics with units, and failures over attempts.  The
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the median over operations of every end-to-end
metric in BENCHMARK.json (``--trace 0``) or of every per-layer metric
(``--trace 1``).

An operation fails if its process crashes or an output check fails; then
``correct`` is false too.  A budgeted trainer call that overruns ``T +
longest batch + 0.5 s`` is printed and counted as an overrun, not as a
failure: whether a call overruns depends on the machine's speed during it,
so counting it would make ``failed`` differ between runs of the same code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Hard ceiling for one whole run, kept under the 180 s a run may take.
RUN_CEILING_S = 170.0

# One BLAS thread: runs are single-process and sequential, and a fixed
# thread count keeps timings comparable between commits.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--op", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def worker(args) -> int:
    """Run one operation in this process and print its record as JSON."""
    sys.path.insert(0, str(SRC))
    import bench

    try:
        record = bench.run_op(bench.workload_spec(args.workload, args.seed), bool(args.trace))
    except Exception:  # reported to the parent, which counts the failure
        traceback.print_exc()
        return 1
    record["provenance"] = bench.provenance()
    print(json.dumps(record))
    return 0


def run_operation(args, traced: bool, timeout: float) -> tuple[dict | None, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--op", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "1" if traced else "0"]
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return json.loads(lines[-1]), ""


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def median(values):
    return statistics.median(values) if values else None


def fmt(value, unit="") -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g} {unit}".rstrip()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tftb" / "__init__.py").is_file():
        print(f"perfbench: no tftb sources under {SRC}", file=sys.stderr)
        return 2
    if args.op:
        return worker(args)

    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    budget = bench.WORKLOADS[args.workload].config.budget_seconds

    print(f"perfbench {args.workload} seed={args.seed} T={budget} "
          f"seconds={args.seconds:g} trace={args.trace}")
    started = time.monotonic()
    deadline = started + args.seconds
    min_ops = 2 if args.trace else 1
    records, durations = [], []
    crashed = checks_failed = overruns = 0
    while len(durations) < min_ops or time.monotonic() + max(durations) <= deadline:
        traced = bool(args.trace) and len(durations) % 2 == 1
        t0 = time.monotonic()
        timeout = max(5.0, RUN_CEILING_S - (t0 - started))
        record, error = run_operation(args, traced, timeout)
        durations.append(time.monotonic() - t0)
        label = f"op {len(durations)}{' (traced)' if traced else ''}: {durations[-1]:.2f} s"
        if record is None:
            crashed += 1
            print(f"{label}  CRASHED: {error}")
            continue
        records.append(record)
        modes = record["modes"]
        problems = [f"{m}: {p}" for m, run in modes.items() for p in run["problems"]]
        over = [m for m, run in modes.items() if run["overrun"]]
        checks_failed += bool(problems)
        overruns += bool(over)
        print(label + "".join(
            f"  {m} {run['wall_s']:.3f} s, {run['epochs']} epochs, {run['stop_reason']}"
            for m, run in modes.items()
        ) + (f"  OVERRUN: {', '.join(over)}" if over else ""))
        for p in problems:
            print(f"  CHECK FAILED {p}")

    attempted = len(durations)
    failed = crashed + checks_failed
    correct = crashed == 0 and checks_failed == 0
    if records:
        prov = dict(records[0]["provenance"], git_sha=git_sha(), src_digest=source_digest(),
                    seed=args.seed, budget_s=budget)
        print("provenance " + json.dumps(prov, sort_keys=True))

    plain = [r for r in records if not r["traced"]]
    e2e = [bench.end_to_end(r) for r in plain]
    values = {k: median([m[k] for m in e2e]) for k in (e2e[0] if e2e else {})}
    print(f"end-to-end, median of {len(plain)} untraced operations, times at reference speed:")
    for name in values:
        print(f"  {name:28s} {fmt(values[name], units.get(name, ''))}")
    if plain:
        report_named(bench, plain, budget)
    if args.trace:
        values = report_trace(bench, records, units)
    print(f"failures: {failed}/{attempted} operations "
          f"(crashed {crashed}, output checks {checks_failed})")
    if budget is not None:
        print(f"budget overruns past T + longest batch + {bench.BUDGET_SLACK_S} s: "
              f"{overruns}/{attempted} operations")

    missing = [name for name in wanted if values.get(name) is None]
    if missing:
        print("missing metrics: " + ", ".join(missing))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in wanted if values.get(name) is not None}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if records else 1


def report_named(bench, plain: list[dict], budget) -> None:
    """Per-mode trainer time as measured and the machine's slowdown against
    reference speed, quality, and on a budgeted workload, T usage."""
    print("  setup_s as measured           "
          f"{fmt(median([r['setup_s'] for r in plain]), 's')}")
    for mode in ("tftb", "baseline"):
        runs = [r["modes"][mode] for r in plain]
        print(f"  train_s.{mode:21s} {fmt(median([run['wall_s'] for run in runs]), 's')}"
              " as measured")
        print(f"  slowdown.{mode:20s} "
              f"{fmt(median([run['wall_s'] / run['ref_s'] for run in runs]))}"
              " (measured time over time at reference speed)")
        for key in runs[0]["quality"]:
            print(f"  {key}.{mode:22s} {fmt(median([run['quality'][key] for run in runs]))}")
        if budget is not None:
            views = [bench.budget_view(run) for run in runs]
            for key in views[0]:
                print(f"  {key}.{mode:20s} {fmt(median([v[key] for v in views]))}")


def tracing_overhead(records: list[dict]) -> float | None:
    """Median over traced operations of what tracing added to their tftb
    trainer time: that time minus the time their samples took at the mean
    per-sample rate of their untraced neighbours, all at reference speed.

    On fixed work this is the difference of the trainer times; under a
    budget both runs stop at T, so only the rate shows the overhead.
    Alternation cancels slow drift in machine speed, the probe the faster
    swings.
    """
    rate = [r["modes"]["tftb"]["ref_s"] / r["modes"]["tftb"]["samples"] for r in records]
    diffs = []
    for i, record in enumerate(records):
        near = [rate[j] for j in (i - 1, i + 1)
                if 0 <= j < len(records) and not records[j]["traced"]]
        if record["traced"] and near:
            run = record["modes"]["tftb"]
            diffs.append(run["ref_s"] - run["samples"] * sum(near) / len(near))
    return median(diffs)


def report_trace(bench, records: list[dict], units: dict) -> dict:
    """Per-layer medians over traced operations, with overhead and checks."""
    traced = [r for r in records if r["traced"]]
    layers = [bench.per_layer(r) for r in traced]
    values = {k: median([m[k] for m in layers if k in m]) for k in (layers[0] if layers else {})}
    overhead = tracing_overhead(records)
    if overhead is not None:
        values["trace.overhead_s"] = overhead
    print(f"per-layer, tftb run, median of {len(traced)} traced operations:")
    for name, value in values.items():
        print(f"  {name:34s} {fmt(value, units.get(name, ''))}")
    if traced:
        last = traced[-1]
        total_self = bench.self_time_total(last["layers"]["tftb"]["spans"])
        print(f"  self times of the last traced tftb run add up to {total_self:.4f} s, "
              f"its wall time {last['modes']['tftb']['wall_s']:.4f} s; "
              f"untraced runs differ from traced ones by the overhead, {fmt(overhead, 's')}")
        base = {n: st for n, st in last["layers"]["baseline"]["spans"].items()
                if n.startswith("importance.")}
        print(f"  baseline run: importance time {sum(st['s'] for st in base.values()):.6f} s "
              f"over {sum(st['calls'] for st in base.values())} calls")
        if last["missing"]:
            print("  wrapped functions missing: " + ", ".join(last["missing"]))
    return values


if __name__ == "__main__":
    sys.exit(main())
