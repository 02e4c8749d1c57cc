#!/usr/bin/env python3
"""Run the cylinder-formula convention adjudication and write the evidence.

The three candidate conventions disagree about which side of a Thoma point
(alpha; beta) is expanded into geometric families before the Hall-Littlewood
Q evaluation.  Each candidate is scored on the beta-free shipped corpus
against three exact requirements: coherence under one-column extensions,
recovery of the Haar measure from the full alpha atom, and equality with the
independent r-function route.  The winner is written to
docs/convention_adjudication.md together with the per-convention table.
"""

import sys
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hallq import measures  # noqa: E402
from hallq.partitions import enumerate_partitions  # noqa: E402
from hallq.symfun import GroundParams, load_spec  # noqa: E402

SPEC_FILES = ["haar.spec", "two_thirds.spec", "three_atoms.spec", "dyadic.spec", "fifths.spec"]
N_MAX = 5


def score(convention: str) -> dict:
    results = {"coherence": True, "haar_recovery": True, "two_route": True, "positivity": True}
    for q in (2, 3):
        ground = GroundParams(q)
        for i, name in enumerate(SPEC_FILES):
            spec, _ = load_spec(ROOT / "specs" / name)
            meas = measures.characteristic_measure(spec, ground, convention)
            try:
                for n in range(N_MAX + 1):
                    for rho in enumerate_partitions(n):
                        value = measures.cylinder_via_q(meas, rho)
                        if i == 0 and value != F(1, q ** (n * (n - 1) // 2)):
                            results["haar_recovery"] = False
                        if value != measures.characteristic_cylinder_via_r(spec, rho, ground):
                            results["two_route"] = False
                if not measures.check_coherence(meas, N_MAX).ok:
                    results["coherence"] = False
            except measures.NegativeCylinderError:
                results["positivity"] = False
                results["two_route"] = False
                if i == 0:
                    results["haar_recovery"] = False
    results["all"] = all(results.values())
    return results


def main() -> int:
    table = {c: score(c) for c in ("expand-alpha", "expand-beta", "expand-none")}
    winners = [c for c, r in table.items() if r["all"]]
    lines = [
        "# Cylinder-formula convention adjudication",
        "",
        "The cylinder probability of a central measure is",
        "",
        "    M_rho = q^(-n(n-1)/2) * t^(-n(rho)) * (1-t)^(-n) * Q_rho(expanded point; t)",
        "",
        "where the `expanded point` replaces atoms of the labeling Thoma point by",
        "geometric families of the same mass.  The source formulas disagree about",
        "which side of (alpha; beta) is expanded, so the three candidates are",
        "scored on the shipped beta-free corpus (" + ", ".join(SPEC_FILES) + ")",
        f"for all types of size <= {N_MAX}, at q = 2 and q = 3.  All checks are exact",
        "rational identities, no tolerances.",
        "",
        "| convention | coherence | Haar recovery | two-route equality | nonnegative |",
        "|---|---|---|---|---|",
    ]
    for c, r in table.items():
        lines.append(
            f"| {c} | {'pass' if r['coherence'] else 'fail'} "
            f"| {'pass' if r['haar_recovery'] else 'fail'} "
            f"| {'pass' if r['two_route'] else 'fail'} "
            f"| {'pass' if r['positivity'] else 'fail'} |"
        )
    lines += [
        "",
        f"Winner: **{winners[0] if len(winners) == 1 else 'NONE / AMBIGUOUS'}** "
        f"(passing conventions: {winners}).",
        "",
        "Notes.",
        "",
        "* Coherence alone does not discriminate: the Q-formula satisfies the",
        "  one-column coherence identity at any mass-one evaluation point.  The",
        "  discriminating checks are Haar recovery and the two-route equality",
        "  against the Kostka-Foulkes r-function of the unexpanded point.",
        "* Beta entries mirror the alpha story: the pure-beta point requires the",
        "  beta side to be expanded (`expand-beta`), and mixed points require",
        "  both sides (`expand-both`, shipped as an explicit extra mode).  The",
        "  test suite asserts the r-route equality for all three cases.",
        "* The shipped default convention is the adjudicated winner.",
        "",
    ]
    out = ROOT / "docs" / "convention_adjudication.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines))
    print("\n".join(lines))
    print(f"written: {out}")
    if len(winners) != 1:
        print("ADJUDICATION FAILED: zero or multiple conventions pass", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
