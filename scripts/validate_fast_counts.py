#!/usr/bin/env python3
"""Check the closed-form extension counts against the brute-force census.

The closed form q^(n - c_j) - q^(n - c_{j-1}) (c = column lengths, box in
column j) is proved in the docstring of
``gflinalg.extension_counts_closed``, and the sampler always uses it.  This
script is a referee: for every type up to the sizes recorded in
``VALIDATED_FAST_COUNTS`` (the census's reach) it runs the matrix-level
Jordan computation over all q^n columns and compares.  Expect roughly five
minutes for q = 3 up to size 8.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hallq.gflinalg import VALIDATED_FAST_COUNTS, validate_closed_extension_counts  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=None, help="only this field size")
    ap.add_argument("--nmax", type=int, default=None, help="override the recorded range")
    args = ap.parse_args()
    targets = {args.q: args.nmax or VALIDATED_FAST_COUNTS.get(args.q, 6)} if args.q else dict(
        VALIDATED_FAST_COUNTS
    )
    ok = True
    for q, n_max in targets.items():
        start = time.time()
        report = validate_closed_extension_counts(n_max, q)
        took = time.time() - start
        print(f"q={q} n<= {n_max}: {'OK' if report['ok'] else 'MISMATCH'} "
              f"({report.get('partitions_checked', '?')} partitions, {took:.1f}s)")
        if not report["ok"]:
            print("  first mismatch:", report)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
