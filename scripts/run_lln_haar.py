#!/usr/bin/env python3
"""Reproduce the Haar law-of-large-numbers experiment.

Grows Jordan types of Haar-random unitriangular matrices over F_2 and
compares mean row frequencies against the geometric targets (1-t) t^(k-1),
printing the full gate table.  Runtime is seconds with the chain engine.
Exits 0 when the gate passes, 1 when it fails and 2 on bad input, which
includes an --out path that cannot be written (checked before the run).
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hallq.sampler import SamplerConfig, run_lln  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--engine", default="chain", choices=("chain", "matrix"))
    ap.add_argument("--out", help="write the full JSON report here")
    args = ap.parse_args()

    try:
        config = SamplerConfig(
            mode="haar", engine=args.engine, q=args.q, n_max=args.n,
            trials=args.trials, seed=args.seed,
        )
    except ValueError as exc:  # exit 1 means a failed gate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:  # an unwritable report path is bad input, found before the run
            Path(args.out).open("a").close()
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    report = run_lln(config)
    gate = report.gate()
    print(f"Haar growth: q={args.q} n={args.n} trials={args.trials} seed={args.seed}")
    print(f"{'k':>3} {'mean':>10} {'se':>10} {'target':>10} {'3se':>5} {'abs.02':>7}")
    for row in gate["rows"]:
        print(
            f"{row['k']:>3} {row['mean']:>10.5f} {row['se']:>10.6f} "
            f"{row['target']:>10.5f} {str(row['within_3se']):>5} {str(row['within_abs']):>7}"
        )
    print("gate:", "PASS" if gate["ok"] else "FAIL")
    if args.out:
        doc = report.to_dict()
        doc["gate"] = gate
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print("report written to", args.out)
    return 0 if gate["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
