"""Character values for finite general linear groups and their limit.

Covers dimensions (q-analog and classical hook formulas, Gaussian
coefficients), values of unipotent irreducible characters at unipotent
classes via the Kostka-Foulkes matrix, induced (flag) characters, values at
primary elements through the degree-d power substitution, and the product
formula over the primary decomposition of a general conjugacy class.

Matrix-level oracles (fixed-flag counting plus a triangular solve) are kept
alongside the formula route and compared exactly in tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import gflinalg, symfun
from .gflinalg import canonical_unipotent, fixed_flag_counts
from .partitions import (
    Partition,
    check_degree,
    enumerate_partitions,
    gaussian_multinomial,
    hook_lengths,
    n_stat,
    partition_index,
    validate_partition,
)
from .symfun import EvalPoint, GroundParams

# a conjugacy-class type: irreducible polynomial (low-first coeffs) -> partition
ConjClassType = dict[tuple[int, ...], Partition]


def unipotent_dim(lam: Partition, q) -> Fraction:
    """Dimension of the unipotent irreducible labeled by lam, by the q-hook
    formula; an integer whenever q is a positive integer."""
    lam = validate_partition(lam)
    q = Fraction(q)
    n = sum(lam)
    num = q ** n_stat(lam)
    for j in range(1, n + 1):
        num *= q**j - 1
    den = Fraction(1)
    for h in hook_lengths(lam):
        den *= q**h - 1
    return num / den if n else Fraction(1)


def sym_dim(lam: Partition) -> int:
    """Classical hook-length count; the number of Borel-invariant vectors,
    independent of q."""
    lam = validate_partition(lam)
    n = sum(lam)
    out = factorial(n)
    for h in hook_lengths(lam):
        out //= h
    return out


def induced_dim(mu, q) -> Fraction:
    """Dimension of the flag module for a composition mu (order-free)."""
    mu = tuple(mu)
    if any(p <= 0 for p in mu):
        raise ValueError("parts must be positive")
    return gaussian_multinomial(sum(mu), mu, q)


def chi_unipotent(lam: Partition, rho: Partition, q) -> Fraction:
    """Value of the unipotent irreducible lam at a unipotent class rho:
    q^n(rho) times the Kostka-Foulkes entry at 1/q."""
    lam = validate_partition(lam)
    rho = validate_partition(rho)
    if sum(lam) != sum(rho):
        raise ValueError("label and class must have the same size")
    q = Fraction(q)
    if not q:
        raise ValueError("q must be nonzero")
    return q ** n_stat(rho) * symfun.kostka_foulkes_entry(lam, rho, 1 / q)


def psi_unipotent(mu, rho: Partition, q) -> Fraction:
    """Induced-character value at a unipotent class: Kostka-weighted sum of
    irreducible values.  Compositions are sorted to partitions on entry."""
    mu_part = tuple(sorted((p for p in mu if p), reverse=True))
    rho = validate_partition(rho)
    n = sum(rho)
    if sum(mu_part) != n:
        raise ValueError("composition size mismatch")
    j = partition_index(n)[mu_part]
    total = Fraction(0)
    for lam, row in zip(enumerate_partitions(n), symfun.kostka_numbers(n)):
        if row[j]:
            total += row[j] * chi_unipotent(lam, rho, q)
    return total


def psi_at_primary(nu: Partition, d: int, rho: Partition, q) -> Fraction:
    """Induced-character value at a primary element of polynomial degree d
    and partition rho: psi^mu_rho(q^d) when nu = d*mu, else 0."""
    nu = validate_partition(nu)
    rho = validate_partition(rho)
    if sum(nu) != d * sum(rho):
        raise ValueError("size mismatch: |nu| must equal d |rho|")
    if any(p % d for p in nu):
        return Fraction(0)
    mu = tuple(p // d for p in nu)
    return psi_unipotent(mu, rho, Fraction(q) ** d)


def glb_character_unipotent(spec: EvalPoint, rho: Partition, ground: GroundParams) -> Fraction:
    """Normalized limit-character value at a unipotent class."""
    return symfun.r_function(rho, spec, ground.t)


def glb_character_via_induced(spec: EvalPoint, rho: Partition, ground: GroundParams) -> Fraction:
    """The same value through the induced-character decomposition
    (sum of psi^nu_rho times monomial values); an independent route."""
    rho = validate_partition(rho)
    n = sum(rho)
    check_degree(n)
    mvals = symfun.monomial_values(spec, ground.t, n)
    total = Fraction(0)
    for j, nu in enumerate(enumerate_partitions(n)):
        if mvals[j]:
            total += psi_unipotent(nu, rho, ground.q) * mvals[j]
    return total


def validate_class_type(phi: ConjClassType, q: int) -> int:
    """Check each polynomial (``gflinalg.validate_class_polynomial``) and
    partition; return the total matrix size."""
    return sum(
        (len(gflinalg.validate_class_polynomial(f, q)) - 1) * sum(validate_partition(mu)) for f, mu in phi.items()
    )


def glb_character_general(spec: EvalPoint, phi: ConjClassType, ground: GroundParams) -> Fraction:
    """Limit-character value at a general class, as the product over primary
    parts of r-functions at power-substituted points."""
    q_int = int(ground.q) if ground.q.denominator == 1 else None
    if q_int is not None:
        validate_class_type(phi, q_int)
    t = ground.t
    total = Fraction(1)
    for f, mu in sorted(phi.items()):
        d = len(gflinalg.poly_trim(f)) - 1
        point = symfun.power_substitution(spec, d, t)
        total *= symfun.r_function(tuple(mu), point, t**d)
    return total


# ---------------------------------------------------------------------------
# matrix-level oracles
# ---------------------------------------------------------------------------


def psi_matrix_by_flags(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """psi^mu_rho by brute-force fixed-flag counting on canonical unipotents,
    one invariant-subspace lattice per representative; rows mu, columns rho,
    reverse-lex indexing."""
    parts = enumerate_partitions(n)
    columns = [fixed_flag_counts(canonical_unipotent(rho, q), parts) for rho in parts]
    return tuple(zip(*columns))


def chi_via_flag_oracle(n: int, q: int) -> tuple[tuple[Fraction, ...], ...]:
    """Unipotent character table from flag counts alone.

    Solves psi = K^T chi by forward substitution (K is unit upper triangular
    in the fixed indexing); independent of the Kostka-Foulkes polynomials.
    """
    parts = enumerate_partitions(n)
    size = len(parts)
    K = symfun.kostka_numbers(n)
    psi = psi_matrix_by_flags(n, q)
    chi = [[Fraction(0)] * size for _ in range(size)]
    for col in range(size):  # class rho
        for j in range(size):  # label index, top dominance first
            acc = Fraction(psi[j][col])
            for i in range(j):
                if K[i][j]:
                    acc -= K[i][j] * chi[i][col]
            chi[j][col] = acc
    return tuple(tuple(row) for row in chi)


def chi_matrix(n: int, q) -> tuple[tuple[Fraction, ...], ...]:
    """The formula-route character table chi^lam_rho, same indexing."""
    parts = enumerate_partitions(n)
    return tuple(
        tuple(chi_unipotent(lam, rho, q) for rho in parts) for lam in parts
    )


def frobenius_transition_check(n: int, q) -> bool:
    """Exact matrix identity: the Schur-to-monomial matrix equals the
    character table times the rescaled Hall-Littlewood-to-monomial matrix."""
    check_degree(n)
    q = Fraction(q)
    t = 1 / q
    parts = enumerate_partitions(n)
    size = len(parts)
    S = symfun.kostka_numbers(n)
    P = symfun.hl_p_in_m(n, t)
    ptilde = [
        [P[j][k] / q ** n_stat(parts[j]) for k in range(size)] for j in range(size)
    ]
    X = chi_matrix(n, q)
    for i in range(size):
        for k in range(size):
            acc = Fraction(0)
            for j in range(size):
                if X[i][j] and ptilde[j][k]:
                    acc += X[i][j] * ptilde[j][k]
            if acc != S[i][k]:
                return False
    return True
