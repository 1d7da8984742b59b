"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads select-heavy conv-heavy --seeds 1-10 --out summary.json

For every workload, runs ``run.py`` once per seed with the ``run_seconds``
from BENCHMARK.json and ``--trace 0``, then prints for each end-to-end metric
the median of the per-run values and the distance between their first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to a third of the metric's bound.  ``--out`` also writes the
per-run values, the summary and the first run's provenance as JSON.  Exit
code 1 if any run failed to produce a result or any spread other than
``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="range like 1-10 or a list like 3,7")
    ap.add_argument("--out", help="write per-run values and the summary to this JSON file")
    args = ap.parse_args(argv)

    ok = True
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(declared["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: no result (exit {proc.returncode})")
                ok = False
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            provenance = [ln for ln in lines if ln.startswith("provenance ")]
            if provenance:
                summary.setdefault("provenance", json.loads(provenance[0].split(" ", 1)[1]))
            runs.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}", flush=True)
        rows = {}
        for metric in declared["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            rows[name] = {"median": med, "spread": spread, "bound": metric["bound"],
                          "values": values}
            flag = "" if spread <= metric["bound"] / 3 else "  above bound/3"
            if name != "setup_s" and spread > metric["bound"]:
                flag, ok = "  ABOVE BOUND", False
            print(f"  {name:28s} median {med:<14.6g} spread {spread:7.4f}  "
                  f"bound/3 {metric['bound'] / 3:.4f}{flag}")
        summary.setdefault("workloads", {})[workload] = {
            "metrics": rows,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
        }
        done = summary["workloads"][workload]
        print(f"  failed {done['failed']}/{done['attempted']} operations; "
              f"all correct: {done['all_correct']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
