#!/usr/bin/env python3
"""Growth trend under a general central measure (non-gating).

Runs the exact conditional Markov chain for the central measure of a stored
Thoma point and prints estimated row/column frequencies against the merged
geometric targets.  Convergence at desk sizes is slow; this reports the
trend, it does not assert it.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hallq.sampler import SamplerConfig, beta_targets, expected_frequency_multiset, run_lln  # noqa: E402
from hallq.symfun import load_spec  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", default=str(ROOT / "specs" / "two_thirds.spec"))
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--trials", type=int, default=24)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    spec, _ = load_spec(args.spec)
    config = SamplerConfig(
        mode="measure", q=args.q, n_max=args.n, trials=args.trials,
        seed=args.seed, spec=spec,
    )
    report = run_lln(config)
    t = Fraction(1, args.q)
    row_t = expected_frequency_multiset(spec, t, config.k_max)
    col_t = beta_targets(spec, config.k_max)
    rows, row_se = report.means_and_se("rows")
    cols, col_se = report.means_and_se("cols")
    print(f"measure growth: {args.spec} q={args.q} n={args.n} trials={args.trials}")
    print(f"counts: {report.counts_source}")
    print(f"{'k':>3} {'row mean':>10} {'row target':>11} {'col mean':>10} {'col target':>11}")
    for k in range(config.k_max):
        rt = float(row_t[k]) if k < len(row_t) else 0.0
        ct = float(col_t[k]) if k < len(col_t) else 0.0
        print(f"{k + 1:>3} {rows[k]:>10.5f} {rt:>11.5f} {cols[k]:>10.5f} {ct:>11.5f}")
    print("distance (rows, L1 over k<=4):",
          sum(abs(rows[k] - float(row_t[k]) if k < len(row_t) else rows[k]) for k in range(4)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
