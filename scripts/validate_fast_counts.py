#!/usr/bin/env python3
"""Check the closed-form extension counts against the brute-force census.

The closed form q^(n - c_j) - q^(n - c_{j-1}) (c = column lengths, box in
column j) is proved in the docstring of
``gflinalg.extension_counts_closed``, and the sampler always uses it.  This
script is a referee: for every type up to the sizes recorded in
``VALIDATED_FAST_COUNTS`` (the census's reach) it runs the matrix-level
Jordan computation over all q^n columns and compares.  Expect about ten
seconds for q = 3 up to size 8 (Python 3.11, one core).  Exits 0 when
every count agrees, 1 on a mismatch and 2 on bad input: a q that is no
supported prime power, an --nmax below 1, or an --nmax without --q.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hallq.gflinalg import VALIDATED_FAST_COUNTS, field, validate_closed_extension_counts  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=None, help="only this field size")
    ap.add_argument("--nmax", type=int, default=None, help="override the recorded range")
    args = ap.parse_args()
    try:  # exit 1 means a mismatch
        if args.nmax is not None and args.q is None:
            raise ValueError("--nmax needs --q")
        if args.nmax is not None and args.nmax < 1:
            raise ValueError(f"--nmax must be at least 1, got {args.nmax}")
        if args.q is not None:
            field(args.q)  # raises ValueError unless F_q is supported
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    targets = {args.q: args.nmax or VALIDATED_FAST_COUNTS.get(args.q, 6)} if args.q is not None else dict(
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
