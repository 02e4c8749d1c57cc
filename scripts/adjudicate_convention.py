#!/usr/bin/env python3
"""Run the cylinder-formula convention adjudication and write the evidence.

The three candidate expansions disagree about which side of a Thoma point
(alpha; beta) is expanded into geometric families before the Hall-Littlewood
Q evaluation.  ``hloracle.adjudicate_expansions`` scores each candidate on the
beta-free shipped corpus against exact requirements: coherence under
one-column extensions, recovery of the Haar measure from the full alpha atom,
and equality with the independent r-function route.  The winner is written
to docs/convention_adjudication.md together with the per-candidate table.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hallq import hloracle  # noqa: E402
from hallq.symfun import load_spec  # noqa: E402

SPEC_FILES = ["haar.spec", "two_thirds.spec", "three_atoms.spec", "dyadic.spec", "fifths.spec"]
N_MAX = 5


def main() -> int:
    corpus = {name: load_spec(ROOT / "specs" / name)[0] for name in SPEC_FILES}
    table = hloracle.adjudicate_expansions(corpus, N_MAX)
    text = hloracle.render_adjudication(corpus, N_MAX, table)
    out = ROOT / "docs" / "convention_adjudication.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text(text)
    print(text)
    print(f"written: {out}")
    if len(hloracle.adjudication_winners(table)) != 1:
        print("ADJUDICATION FAILED: zero or multiple conventions pass", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
