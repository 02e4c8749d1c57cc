#!/usr/bin/env python3
"""Run one hallq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run re-executes itself with
``PYTHONHASHSEED`` fixed and ``HALLQ_CACHE_DIR`` removed, then runs whole
rounds of the workload, single-threaded, until the rounds' timed phases add
up to S seconds; every round starts with hallq's caches cleared.  Each
round's outputs are checked, untimed, as soon as it ends, and then dropped,
so memory does not grow with the number of rounds.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json.  The
  ``norm_*`` times are CPU times normalized by the speed probe of
  ``speed.py`` (slices of a fixed kernel, taken while the round runs), as
  medians over the rounds; ``setup_s`` is the median over SETUP_PROBES
  fresh processes that start the interpreter, import hallq and build the
  workload, then stop.
* ``--trace 1``: the per-layer metrics of BENCHMARK.json, from spans
  wrapped around every public function of the layer modules.  ``calls`` are
  those of the first round; ``self_s`` is the median over the rounds.  The
  first round's spans are written to perfbench/out/.  No speed probe runs.

The result is also written to perfbench/out/.  The exit code is 0 when
every check passes, 1 when a check fails, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HASH_SEED = "0"
SETUP_PROBES = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Run one hallq benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def setup_probe(args) -> float:
    """Seconds from starting a fresh interpreter to a built workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1]) - start


def per_layer(spec: list[dict], rounds: list[dict]) -> dict:
    metrics = {}
    for m in spec:
        span, _, kind = m["name"].rpartition(".")
        if kind == "calls":
            value = rounds[0].get(span, (0, 0.0))[0]
        else:
            value = statistics.median(r.get(span, (0, 0.0))[1] for r in rounds)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def round_delta(before: dict, after: dict) -> dict:
    return {
        name: (calls - before[name][0], secs - before[name][1])
        for name, (calls, secs) in after.items()
        if calls != before[name][0]
    }


def main() -> int:
    args = parse_args(sys.argv[1:])
    bench = ROOT / "BENCHMARK.json"
    if not (SRC / "hallq" / "__init__.py").is_file() or not bench.is_file():
        print(f"error: run from a hallq checkout; {SRC / 'hallq'} or {bench} is missing", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED or "HALLQ_CACHE_DIR" in os.environ:
        env = {k: v for k, v in os.environ.items() if k != "HALLQ_CACHE_DIR"}
        env["PYTHONHASHSEED"] = HASH_SEED
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)

    sys.path.insert(0, str(SRC))
    import checks
    import spans
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print(time.monotonic())
        return 0

    spec = json.loads(bench.read_text(encoding="utf-8"))
    setup = [] if args.trace else [setup_probe(args) for _ in range(SETUP_PROBES)]
    wl = workloads.WORKLOADS[args.workload](args.seed)
    caches = spans.cached_functions()
    tracer = probe = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(workloads.LAYERS)
    else:
        probe = speed.SpeedProbe()
        probe.start()

    laps, layer_rounds = [], []
    first_round_spans = 0
    attempted, timed = 0, 0.0
    correct = True
    try:
        while correct and timed < args.seconds:
            for fn in caches:
                fn.cache_clear()
            state = wl.prepare(len(laps))
            before = tracer.snapshot() if tracer else None
            lap = workloads.Laps(probe)
            out, ops = wl.run(state, lap)
            laps.append(lap)
            timed += sum(lap.wall.values())
            attempted += ops
            if tracer:
                layer_rounds.append(round_delta(before, tracer.snapshot()))
                first_round_spans = first_round_spans or len(tracer.span_start)
            try:
                wl.check_round(out)
                if timed >= args.seconds:
                    wl.check_run()
            except checks.CheckError as exc:
                correct = False
                print(f"CHECK FAILED: {exc}", file=sys.stderr)
    finally:
        if probe:
            probe.stop()

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        metrics = per_layer(spec["per_layer"], layer_rounds)
        tracer.write(OUT / f"{stem}-spans.txt", first_round_spans)
        extra = {"rounds": len(laps), "traced_wall_s": statistics.median(sum(x.wall.values()) for x in laps),
                 "layers_per_round": layer_rounds}
    else:
        norm = [x.normalized() for x in laps]
        values = {
            "setup_s": statistics.median(setup),
            "norm_cpu_s": statistics.median(sum(n.values()) for n in norm),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "norm_build_s": statistics.median(n["build"] for n in norm),
            "norm_eval_s": statistics.median(n["eval"] for n in norm),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        extra = {
            "rounds": len(laps),
            "setup_probes_s": setup,
            "wall_s": statistics.median(sum(x.wall.values()) for x in laps),
            "cpu_s": statistics.median(sum(x.cpu.values()) for x in laps),
            "round_stages": [
                {"wall_s": x.wall, "cpu_s": x.cpu, "norm_s": n,
                 "slices": {s: len(v) for s, v in x.slices.items()},
                 "mean_slice_s": {s: statistics.fmean(v) if v else None for s, v in x.slices.items()}}
                for x, n in zip(laps, norm)
            ],
        }
    result = {"correct": correct, "attempted": attempted, "failed": 0, "metrics": metrics}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, **extra}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
