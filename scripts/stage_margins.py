#!/usr/bin/env python3
"""How many speed-probe slices each timed benchmark stage takes.

    python3 scripts/stage_margins.py [--workloads a,b] [--seeds 1,2,3] [--seconds 10]

Runs ``perfbench/run.py --trace 0`` once per workload and seed, as it is,
from the repository root.  Each run writes
``perfbench/out/<workload>-seed<N>-trace0.json``, which holds, per round,
the probe slices and the CPU seconds of its ``build`` and ``eval`` stages.
The script pools the rounds of every seed of a workload and prints, per
workload and stage, the minimum and median slice count and CPU time.  The
benchmark normalises a stage's CPU time by its slices, so a stage that
takes no slice cannot be measured; a small minimum is a warning that a
faster change may break the run.

It names every run that exited non-zero or wrote no result, with the last
line of its standard error.  The exit code is 1 when a run failed or a
stage took fewer than MIN_SLICES slices in some round, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("exact_tower", "haar_growth", "measure_growth", "brute_oracle")
STAGES = ("build", "eval")
MIN_SLICES = 2


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its exit code, the last line of its standard
    error, and its result file (None when the run wrote none)."""
    path = OUT / f"{workload}-seed{seed}-trace0.json"
    before = path.stat().st_mtime_ns if path.exists() else None
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    fresh = path.exists() and path.stat().st_mtime_ns != before
    err = done.stderr.strip().splitlines()
    return {
        "workload": workload,
        "seed": seed,
        "code": done.returncode,
        "stderr": err[-1] if err else "",
        "doc": json.loads(path.read_text(encoding="utf-8")) if fresh else None,
    }


def summarize(runs: list[dict]) -> tuple[list[str], bool]:
    """The report lines and whether every run passed with at least
    MIN_SLICES slices in every stage of every round."""
    ok = True
    lines = [f"{'workload':<16}{'stage':<7}{'rounds':>7}{'min slices':>12}{'median slices':>15}"
             f"{'min cpu ms':>12}{'median cpu ms':>15}"]
    failures = []
    pooled: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for run in runs:
        if run["code"] != 0 or run["doc"] is None:
            ok = False
            failures.append(f"FAILED: {run['workload']} seed {run['seed']} exited {run['code']}"
                            + ("" if run["doc"] else ", no result file") + f": {run['stderr']}")
            if run["doc"] is None:
                continue
        for stage in run["doc"]["round_stages"]:
            for name in STAGES:
                pooled.setdefault((run["workload"], name), []).append((stage["slices"][name], stage["cpu_s"][name]))
    for (workload, name), rounds in pooled.items():
        slices = [s for s, _ in rounds]
        cpu_ms = [1000 * c for _, c in rounds]
        ok = ok and min(slices) >= MIN_SLICES
        lines.append(f"{workload:<16}{name:<7}{len(rounds):>7}{min(slices):>12}{statistics.median(slices):>15g}"
                     f"{min(cpu_ms):>12.1f}{statistics.median(cpu_ms):>15.1f}")
    return lines + failures, ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()
    runs = []
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            runs.append(run_workload(workload, seed, args.seconds))
            print(f"ran {workload} seed {seed}: exit {runs[-1]['code']}", file=sys.stderr)
    lines, ok = summarize(runs)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
