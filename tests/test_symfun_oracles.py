"""Independent oracles for the symmetric-function engine.

The transition layer (Murnaghan-Nakayama characters, Pieri Kostka numbers,
Kostka-Foulkes polynomials from the Gram factorisation) is checked against
the tableau referees of ``hloracle``: semistandard tableau counts, the
charge statistic and brute-force symmetrization.  Evaluation through power
sums is checked against truncated direct evaluation of the monomial
expansion and against the hook expansion of two-alphabet Schur functions.
"""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from hallq import symfun
from hallq.hloracle import charge_kostka_foulkes, hl_p_in_monomial_brute, kostka_number
from hallq.partitions import conjugate, enumerate_partitions
from hallq.symfun import (
    SpecEntry,
    ThomaSpec,
    b_coefficient,
    hl_p_in_m,
    hl_p_in_p,
    hl_q_in_p,
    kostka_foulkes,
    kostka_foulkes_entry,
    kostka_foulkes_polynomials,
    kostka_numbers,
    m_in_p,
    monomial_values,
    power_values,
    s_in_p,
    schur_values,
)

HALF = F(1, 2)
THIRD = F(1, 3)


@pytest.mark.parametrize("t", [HALF, THIRD])
def test_hl_transition_matches_symmetrization_small(t):
    for n in range(1, 5):
        assert hl_p_in_m(n, t) == hl_p_in_monomial_brute(n, t)


@pytest.mark.parametrize("t", [HALF, THIRD])
def test_hl_transition_matches_symmetrization_degree5(t):
    assert hl_p_in_m(5, t) == hl_p_in_monomial_brute(5, t)


@pytest.mark.parametrize("n", range(11))
def test_gram_polynomials_match_charge(n):
    parts = enumerate_partitions(n)
    polys = kostka_foulkes_polynomials(n)
    for i, lam in enumerate(parts):
        for j, mu in enumerate(parts):
            assert polys[i][j] == charge_kostka_foulkes(lam, mu), (lam, mu)


@pytest.mark.parametrize("t", [F(0), F(1), F(-1), HALF, THIRD, F(2), F(5, 7)])
def test_kostka_foulkes_matches_charge_at_t(t):
    for n in range(9):
        parts = enumerate_partitions(n)
        want = tuple(
            tuple(sum((c * t**k for k, c in enumerate(charge_kostka_foulkes(lam, mu))), F(0)) for mu in parts)
            for lam in parts
        )
        assert kostka_foulkes(n, t) == want
        assert kostka_foulkes_entry(parts[0], parts[-1], t) == want[0][-1]


def test_murnaghan_nakayama_s_in_p_matches_monomial_route():
    # s = K m with K counted from tableaux, then m in power sums
    for n in range(10):
        parts = enumerate_partitions(n)
        M = m_in_p(n)
        for lam, row in zip(parts, s_in_p(n)):
            k = [kostka_number(lam, mu) for mu in parts]
            assert row == tuple(sum((c * M[j][r] for j, c in enumerate(k) if c), F(0)) for r in range(len(parts)))


def test_strip_kostka_numbers_match_tableau_counts():
    for n in range(10):
        parts = enumerate_partitions(n)
        assert kostka_numbers(n) == tuple(tuple(kostka_number(lam, mu) for mu in parts) for lam in parts)


def test_corrupted_gram_pivot_raises_under_optimize():
    # the pivot check must not be an assert that python -O strips
    code = textwrap.dedent("""
        from hallq import symfun
        assert False, "asserts are live: not running under -O"
        table = [list(row) for row in symfun.character_table(3)]
        table[-1][0] *= 2
        symfun.character_table = lambda n: table
        try:
            symfun.kostka_foulkes_polynomials(3)
        except ArithmeticError as exc:
            print("raised:", exc)
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised: Gram pivot of (1, 1, 1) at n=3 is not n! phi_n / b at t = 2^3\n", done.stdout


@pytest.mark.parametrize("t", [HALF, THIRD])
def test_hl_power_sum_rows_match_symmetrization(t):
    # the rows of P and Q in power sums against the symmetrized P in
    # monomials times m_in_p
    for n in range(1, 5):
        parts = enumerate_partitions(n)
        brute, M = hl_p_in_monomial_brute(n, t), m_in_p(n)
        for i, lam in enumerate(parts):
            want = [sum((brute[i][j] * M[j][r] for j in range(len(parts))), F(0)) for r in range(len(parts))]
            for matrix, scale in ((hl_p_in_p, 1), (hl_q_in_p, b_coefficient(lam, t))):
                assert list(matrix(n, t)[i]) == [scale * x for x in want], (matrix.__name__, lam)


def _monomial_direct(mu, xs):
    """m_mu at an explicit variable list, by dynamic programming over
    sub-multisets of mu."""
    from functools import lru_cache

    mu = tuple(mu)

    @lru_cache(maxsize=None)
    def rec(i, used):
        if not used:
            return F(1)
        if i == len(xs):
            return F(0)
        total = rec(i + 1, used)
        for v in set(used):
            rest = list(used)
            rest.remove(v)
            total += rec(i + 1, tuple(rest)) * xs[i] ** v
        return total

    return rec(0, tuple(sorted(mu)))


def test_monomial_values_match_direct_evaluation_atoms():
    xs = (F(1, 2), F(1, 3), F(1, 12), F(1, 12))
    spec = ThomaSpec(alphas=tuple(SpecEntry(x) for x in xs))
    for n in range(1, 6):
        vals = monomial_values(spec, HALF, n)
        for i, mu in enumerate(enumerate_partitions(n)):
            assert vals[i] == _monomial_direct(mu, xs), mu


def test_schur_values_match_direct_evaluation_atoms():
    xs = (F(2, 5), F(2, 5), F(1, 5))
    spec = ThomaSpec(alphas=tuple(SpecEntry(x) for x in xs))
    for n in range(1, 6):
        K = kostka_numbers(n)
        mvals = [
            _monomial_direct(mu, xs) for mu in enumerate_partitions(n)
        ]
        svals = schur_values(spec, HALF, n)
        for i in range(len(mvals)):
            direct = sum((K[i][j] * mvals[j] for j in range(len(mvals))), F(0))
            assert svals[i] == direct


def test_geometric_evaluation_matches_truncation():
    spec = ThomaSpec(alphas=(SpecEntry(F(2, 3), True), SpecEntry(F(1, 3))))
    t = HALF
    terms = [F(1, 3)] + [(1 - t) * t**j * F(2, 3) for j in range(60)]
    for n in range(1, 5):
        for mu, exact in zip(enumerate_partitions(n), monomial_values(spec, t, n)):
            approx = float(_monomial_direct(mu, tuple(terms)))
            assert abs(float(exact) - approx) < 1e-12, mu


def _h_values(atoms, k_max):
    out = [F(1)]
    for k in range(1, k_max + 1):
        total = F(0)
        for combo in combinations_with_replacement(atoms, k):
            prod = F(1)
            for x in combo:
                prod *= x
            total += prod
        out.append(total)
    return out


def _skew_schur_atoms(sigma, tau, atoms):
    """Jacobi-Trudi determinant det(h_{sigma_i - tau_j - i + j})."""
    size = len(sigma)
    h = _h_values(atoms, sum(sigma) + size)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            k = sigma[i] - (tau[j] if j < len(tau) else 0) - i + j
            row.append(h[k] if 0 <= k < len(h) else F(0))
        rows.append(row)
    # exact determinant by expansion (size <= 4)
    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = F(0)
        for j in range(len(m)):
            if m[0][j] == 0:
                continue
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
        return total

    return det(rows) if rows else F(1)


def test_two_alphabet_schur_hook_expansion():
    """s_lam(alpha; beta) equals the sum over mu inside lam of
    s_mu(alpha) s_{lam'/mu'}(beta), both sides exact."""
    alphas = (F(1, 2), F(1, 4))
    betas = (F(1, 8), F(1, 8))
    spec = ThomaSpec(
        alphas=tuple(SpecEntry(a) for a in alphas),
        betas=tuple(SpecEntry(b) for b in betas),
    )
    for n in range(1, 5):
        for lam, via_p in zip(enumerate_partitions(n), schur_values(spec, HALF, n)):
            lam_c = conjugate(lam)
            total = F(0)
            for m in range(n + 1):
                for mu in enumerate_partitions(m):
                    if len(mu) > len(lam) or any(
                        mu[i] > lam[i] for i in range(len(mu))
                    ):
                        continue
                    s_mu = _skew_schur_atoms(mu, (), alphas) if mu else F(1)
                    skew = _skew_schur_atoms(lam_c, conjugate(mu), betas) if lam_c else F(1)
                    total += s_mu * skew
            assert via_p == total, lam


def test_power_values_prefix_consistency():
    spec = ThomaSpec(alphas=(SpecEntry(F(1, 2), True), SpecEntry(F(1, 2))))
    pv = power_values(spec, HALF, 8)
    assert pv[0] == 1
    for m in range(1, 9):
        assert pv[m - 1] == spec.power_sum(m, HALF)


def test_random_specs_power_route_vs_monomial_route():
    rng = random.Random(9)
    for _ in range(20):
        cuts = sorted(rng.randint(1, 23) for _ in range(2))
        masses = [F(cuts[0], 24), F(cuts[1] - cuts[0], 24), F(24 - cuts[1], 24)]
        masses = [m for m in masses if m]
        spec = ThomaSpec(alphas=tuple(SpecEntry(m) for m in masses))
        xs = tuple(m for m in masses)
        for n in range(1, 5):
            vals = monomial_values(spec, HALF, n)
            for i, mu in enumerate(enumerate_partitions(n)):
                assert vals[i] == _monomial_direct(mu, xs)
