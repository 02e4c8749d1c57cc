"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines as they happen).  Every tolerance is pinned here; nothing is
calibrated elsewhere.
"""

from fractions import Fraction as F
from pathlib import Path

import pytest

from hallq import characters, gflinalg, grassmann, hloracle, ipfamily, measures, sampler
from hallq.gflinalg import (
    block_diag,
    count_fixed_flags,
    primary_element,
)
from hallq.partitions import enumerate_partitions, gaussian_binomial
from hallq.symfun import GroundParams, SpecEntry, ThomaSpec, load_spec, monomial_values

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
DOC_PATH = Path(__file__).resolve().parent.parent / "docs" / "convention_adjudication.md"

SHIPPED_SPEC_FILES = [
    "haar.spec",
    "two_thirds.spec",
    "three_atoms.spec",
    "dyadic.spec",
    "fifths.spec",
]


def shipped_specs():
    return [load_spec(SPEC_DIR / name)[0] for name in SHIPPED_SPEC_FILES]


def ten_specs():
    extra = [
        ThomaSpec(alphas=(SpecEntry(F(9, 10)), SpecEntry(F(1, 10)))),
        ThomaSpec(alphas=(SpecEntry(F(1, 2)), SpecEntry(F(1, 2)))),
        ThomaSpec(alphas=(SpecEntry(F(5, 7)), SpecEntry(F(1, 7)), SpecEntry(F(1, 7)))),
        ThomaSpec(alphas=(SpecEntry(F(1, 3)), SpecEntry(F(1, 3)), SpecEntry(F(1, 6)), SpecEntry(F(1, 6)))),
        ThomaSpec(alphas=(SpecEntry(F(4, 5)), SpecEntry(F(1, 10)), SpecEntry(F(1, 10)))),
    ]
    return shipped_specs() + extra


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.mark.acceptance
def test_criterion_01_exact_coherence():
    """Coherence M_rho = sum c_{rho,sigma} M_sigma, brute-force counts."""
    checked = 0
    ok = True
    for q, n_max in ((2, 8), (3, 6)):
        g = GroundParams(q)
        rhos = [rho for n in range(n_max) for rho in enumerate_partitions(n)]
        counts = {rho: gflinalg.extension_counts(rho, q) for rho in rhos}
        for spec in shipped_specs():
            meas = measures.characteristic_measure(spec, g)
            for rho in rhos:
                rhs = sum((c * measures.cylinder_prob(meas, sigma) for sigma, c in counts[rho].items()), F(0))
                ok = ok and measures.cylinder_prob(meas, rho) == rhs
                checked += 1
    verdict(1, "exact coherence (Haar + 5 shipped specs, brute counts)", ok,
            f"{checked} identities, rho up to size 7 at q=2 and 5 at q=3")


@pytest.mark.acceptance
def test_criterion_02_haar_recovery():
    haar, _ = load_spec(SPEC_DIR / "haar.spec")
    ok = True
    for q in (2, 3):
        meas = measures.characteristic_measure(haar, GroundParams(q))
        for n in range(0, 7):
            for rho in enumerate_partitions(n):
                ok = ok and measures.cylinder_via_q(meas, rho) == F(1, q ** (n * (n - 1) // 2))
    verdict(2, "Haar recovery M_rho = q^(-n(n-1)/2), n <= 6, q in {2,3}", ok)


@pytest.mark.acceptance
def test_criterion_03_two_route_equality():
    ok = True
    count = 0
    for q in (2, 3):
        g = GroundParams(q)
        for spec in ten_specs():
            meas = measures.characteristic_measure(spec, g)
            for n in range(0, 7):
                for rho in enumerate_partitions(n):
                    count += 1
                    ok = ok and measures.cylinder_via_q(meas, rho) == measures.characteristic_cylinder_via_r(spec, rho, g)
    verdict(3, "two-route equality (Q-route == r-route), |rho| <= 6, 10 specs", ok,
            f"{count} values")


@pytest.mark.acceptance
def test_criterion_04_character_oracle_chain():
    ok = True
    for q in (2, 3):
        for n in range(1, 5):
            ok = ok and characters.chi_via_flag_oracle(n, q) == characters.chi_matrix(n, q)
    verdict(4, "flag-count oracle == q^n(rho) K(1/q) character table, n <= 4, q in {2,3}", ok)


@pytest.mark.acceptance
def test_criterion_05_two_decomposition_identity():
    ok = True
    count = 0
    mixed_extra = [
        ThomaSpec(alphas=(SpecEntry(F(1, 2)),), betas=(SpecEntry(F(1, 2)),)),
        ThomaSpec(betas=(SpecEntry(F(1)),)),
    ]
    specs = ten_specs()[:8] + mixed_extra
    for q in (2, 3):
        g = GroundParams(q)
        for spec in specs:
            for n in range(1, 7):
                for rho in enumerate_partitions(n):
                    count += 1
                    lhs = characters.glb_character_unipotent(spec, rho, g)
                    rhs = characters.glb_character_via_induced(spec, rho, g)
                    ok = ok and lhs == rhs
    verdict(5, "two-decomposition identity (chi-route == psi-route), |rho| <= 6, 10 specs", ok,
            f"{count} values")


@pytest.mark.acceptance
def test_criterion_06_multiplication_theorem():
    q = 2
    g = GroundParams(q)
    f1, f2, f3 = (1, 1), (1, 1, 1), (1, 1, 0, 1)
    witnesses = [
        primary_element(f1, (2, 1), q),
        primary_element(f2, (1,), q),
        primary_element(f2, (2,), q),
        primary_element(f2, (1, 1), q),
        primary_element(f3, (1,), q),
        block_diag([primary_element(f1, (1,), q), primary_element(f2, (1,), q)], q),
        block_diag([primary_element(f1, (2,), q), primary_element(f2, (1,), q)], q),
        block_diag([primary_element(f1, (1, 1), q), primary_element(f2, (1,), q)], q),
        block_diag([primary_element(f1, (1,), q), primary_element(f3, (1,), q)], q),
        primary_element(f1, (4,), q),
    ]
    specs = [
        ThomaSpec(alphas=(SpecEntry(F(1)),)),
        ThomaSpec(alphas=(SpecEntry(F(2, 3)), SpecEntry(F(1, 3)))),
        ThomaSpec(alphas=(SpecEntry(F(1, 2)),), betas=(SpecEntry(F(1, 2)),)),
    ]
    ok = True
    for w in witnesses:
        phi = gflinalg.conj_class_type(w)
        n = w.n_rows
        for spec in specs:
            product_value = characters.glb_character_general(spec, phi, g)
            mvals = monomial_values(spec, g.t, n)
            brute = sum(
                (count_fixed_flags(w, nu) * mvals[j]
                 for j, nu in enumerate(enumerate_partitions(n)) if mvals[j]),
                F(0),
            )
            ok = ok and product_value == brute
    verdict(6, "multiplication theorem on 10 block-diagonal witnesses, n <= 4, q = 2", ok)


@pytest.mark.acceptance
def test_criterion_07_frobenius_transition():
    ok = all(characters.frobenius_transition_check(n, q) for q in (2, 3) for n in range(1, 6))
    verdict(7, "Schur = character-table x rescaled-HL matrix identity, n <= 5, q in {2,3}", ok)


@pytest.mark.acceptance
def test_criterion_08_borodin_lln_gate():
    config = sampler.SamplerConfig(mode="haar", engine="chain", q=2, n_max=400,
                                   trials=200, seed=42)
    report = sampler.run_lln(config)
    gate = report.gate(k_se=4, k_abs=2, abs_tol=0.02)
    detail = "; ".join(
        f"k={row['k']} mean={row['mean']:.4f} target={row['target']:.4f} se={row['se']:.5f}"
        for row in gate["rows"]
    )
    # non-gating general trend at n <= 30
    spec, _ = load_spec(SPEC_DIR / "two_thirds.spec")
    trend_cfg = sampler.SamplerConfig(mode="measure", q=2, n_max=30, trials=24, seed=7, spec=spec)
    trend = sampler.run_lln(trend_cfg)
    means, _ = trend.means_and_se("rows")
    targets = sampler.expected_frequency_multiset(spec, F(1, 2), trend_cfg.k_max)
    trend_lines = ", ".join(
        f"k={k + 1}: {means[k]:.3f} (target {float(targets[k]):.3f})"
        for k in range(4)
    )
    print(f"ACCEPTANCE 08 trend (non-gating, n=30, {trend.counts_source}): {trend_lines}",
          flush=True)
    assert all(sum(rec.final_cols) == 30 for rec in trend.records)
    verdict(8, "Haar LLN gate (q=2, n=400, 200 trials, seed 42)", gate["ok"], detail)


@pytest.mark.acceptance
def test_criterion_09_grassmann_suite():
    ok = True
    for q in (2, 3):
        n_top = 5 if q == 2 else 4
        for n in range(1, n_top + 1):
            for k in range(n + 1):
                cells = grassmann.enumerate_schubert_cells(n, k, q)
                ok = ok and sum(cells.values()) == gaussian_binomial(n, k, q)
                for s1 in cells:
                    ok = ok and cells[s1] == q ** grassmann.affine_dimension(s1)
                    for s2 in cells:
                        ok = ok and F(cells[s1], cells[s2]) == grassmann.cocycle(s1, s2, q)
        for n in range(11):
            for k in range(n + 1):
                ok = ok and grassmann.pascal_q_paths(n, k, q) == gaussian_binomial(n, k, q)
        a1, a2 = F(1, 4), F(3, 4)
        for n in range(1, n_top + 1):
            total = F(0)
            for k in range(n + 1):
                for sym, size in grassmann.enumerate_schubert_cells(n, k, q).items():
                    total += a1**sym.ones * a2 ** (n - sym.ones) * size
            ok = ok and total == grassmann.grassmann_mass(n, a1, a2, q)
    verdict(9, "Grassmannian suite (cells, cocycles, q-Pascal, mass), exact", ok)


@pytest.mark.acceptance
def test_criterion_10_ipfamily_suite():
    ok = True
    # embedding multiplicativity, exhaustive, two smallest sizes per family
    levels = [
        ipfamily.build_gl_ip_level(1, 2),
        ipfamily.build_gl_ip_level(2, 2),
        ipfamily.build_gl_ip_level(1, 3),
        ipfamily.build_affine_ip_level(1, 2),
        ipfamily.build_affine_ip_level(2, 2),
        ipfamily.build_affine_ip_level(1, 3),
        ipfamily.build_wreath_ip_level(1, ipfamily.cyclic_group(2)),
        ipfamily.build_wreath_ip_level(2, ipfamily.cyclic_group(2)),
    ]
    for level in levels:
        ok = ok and ipfamily.embed_multiplicativity_check(level)
    # flag induction for m+1 <= 3, q in {2, 3}
    for q in (2, 3):
        for m in (1, 2):
            ok = ok and ipfamily.flag_induction_check(m, q)
    # de Finetti verdicts
    h2 = ipfamily.cyclic_group(2)
    ok = ok and ipfamily.de_finetti_central_check(3, h2, {0: F(1, 2), 1: F(1, 2)})
    ok = ok and ipfamily.de_finetti_central_check(3, h2, {0: F(3, 4), 1: F(1, 4)})
    G3 = ipfamily.wreath_group(3, h2)
    diag = ipfamily.diagonal_indices(G3, 3)

    def asym(idx):
        _, vals = G3.elements[idx]
        return F(1, 2) if vals[0] == 0 else F(1, 14)

    ok = ok and not ipfamily.measure_central_check(G3, diag, asym)
    verdict(10, "tower suite (embeddings, flag induction, product-measure centrality)", ok)


@pytest.mark.acceptance
def test_criterion_11_convention_adjudication():
    """Exactly one of the three source expansions passes coherence, Haar
    recovery and two-route equality on the beta-free corpus; the repo docs
    hold the page the referee renders, and every shipped beta-free measure
    evaluates at the winner's point."""
    corpus = dict(zip(SHIPPED_SPEC_FILES, shipped_specs()))
    table = hloracle.adjudicate_expansions(corpus, 5)
    winners = hloracle.adjudication_winners(table)
    unique = winners == ["expand-alpha"]
    documented = DOC_PATH.read_text(encoding="utf-8") == hloracle.render_adjudication(corpus, 5, table)
    at_winner = all(
        measures.characteristic_measure(spec, GroundParams(2)).eval_spec == hloracle.expand_spec(spec, "expand-alpha")
        for spec in corpus.values()
    )
    verdict(11, "convention adjudication (unique winner, documented, measures at the winner's point)",
            unique and documented and at_winner,
            f"passing={winners}, documented={documented}, at_winner={at_winner}")
