"""Integer partitions, Young-lattice moves and Gaussian binomials.

Partitions are plain tuples of weakly decreasing positive ints; the empty
partition is ``()``.  All enumeration orders are fixed to reverse
lexicographic (so ``(n)`` comes first and ``(1,...,1)`` last), which refines
dominance order and keeps every Kostka-type transition matrix triangular
with respect to list position.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Partition = tuple[int, ...]

# Full exact transition matrices are built per degree; p(30) = 5604 keeps the
# dense ones at the cap tractable.
MAX_DEGREE = 30


class DegreeLimitError(ValueError):
    """Raised when a request exceeds the configured maximum degree."""


def check_degree(n: int) -> None:
    if n > MAX_DEGREE:
        raise DegreeLimitError(f"degree {n} exceeds configured maximum {MAX_DEGREE}")


def is_partition(parts: tuple) -> bool:
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def validate_partition(parts) -> Partition:
    lam = tuple(parts)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {parts!r}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse the text form ``"3,1,1"``; ``"-"`` or ``""`` is the empty partition."""
    text = text.strip()
    if text in ("-", ""):
        return ()
    return validate_partition(tuple(int(s) for s in text.split(",")))


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "-"


def conjugate(lam: Partition) -> Partition:
    """Column lengths of the Young diagram of ``lam``: from the last row up,
    row i ends the columns of length i."""
    cols: list[int] = []
    for rows in range(len(lam), 0, -1):
        cols += [rows] * (lam[rows - 1] - len(cols))
    return tuple(cols)


def n_stat(lam: Partition) -> int:
    """The weight sum((k-1) * lam_k), also sum over columns of C(col, 2)."""
    return sum(k * p for k, p in enumerate(lam))


def hook_lengths(lam: Partition) -> tuple[int, ...]:
    """Hook length of every cell, row by row."""
    conj = conjugate(lam)
    return tuple(
        lam[i] - j - 1 + conj[j] - i
        for i in range(len(lam))
        for j in range(lam[i])
    )


def covers_up(lam: Partition) -> tuple[Partition, ...]:
    """All partitions obtained from ``lam`` by adding a single box."""
    out = []
    for i in range(len(lam)):
        if i == 0 or lam[i] < lam[i - 1]:
            out.append(lam[:i] + (lam[i] + 1,) + lam[i + 1:])
    out.append(lam + (1,))
    return tuple(out)


def added_column(lam: Partition, mu: Partition) -> int:
    """Column index (1-based) of the unique box of ``mu`` not in ``lam``."""
    if sum(mu) != sum(lam) + 1:
        raise ValueError("not a one-box extension")
    for i in range(len(mu)):
        if i >= len(lam):
            if mu[i] != 1 or i != len(mu) - 1:
                raise ValueError("not a one-box extension")
            return 1
        if mu[i] != lam[i]:
            if mu[i] != lam[i] + 1 or mu[i + 1:] != lam[i + 1:]:
                raise ValueError("not a one-box extension")
            return mu[i]
    raise ValueError("not a one-box extension")


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in reverse lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_degree(n)
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


@lru_cache(maxsize=None)
def partition_index(n: int) -> dict[Partition, int]:
    return {lam: i for i, lam in enumerate(enumerate_partitions(n))}


def dominates(lam: Partition, mu: Partition) -> bool:
    """True if ``lam`` dominates ``mu`` (|lam| must equal |mu|)."""
    if sum(lam) != sum(mu):
        return False
    acc_l = acc_m = 0
    for k in range(max(len(lam), len(mu))):
        acc_l += lam[k] if k < len(lam) else 0
        acc_m += mu[k] if k < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def gaussian_binomial(n: int, m: int, q) -> Fraction:
    """Gaussian coefficient [n choose m]_q as an exact rational.

    Computed by the product formula, so ``q`` may be any rational except the
    roots of the denominator factors; at integer prime powers the result is
    the number of m-dimensional subspaces of F_q^n.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    q = Fraction(q)
    num = Fraction(1)
    den = Fraction(1)
    for j in range(1, m + 1):
        num *= q ** (n - m + j) - 1
        den *= q**j - 1
    if den == 0:
        raise ZeroDivisionError("gaussian_binomial undefined at this q; use gaussian_binomial_poly")
    return num / den


def gaussian_binomial_poly(n: int, m: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of [n choose m]_q as a polynomial in q."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")

    @lru_cache(maxsize=None)
    def rec(a: int, b: int) -> tuple[int, ...]:
        if b == 0 or b == a:
            return (1,)
        # q-Pascal: C(a,b)_q = C(a-1,b)_q + q^(a-b) C(a-1,b-1)_q
        left = rec(a - 1, b)
        right = rec(a - 1, b - 1)
        size = max(len(left), len(right) + a - b)
        coeffs = [0] * size
        for i, c in enumerate(left):
            coeffs[i] += c
        for i, c in enumerate(right):
            coeffs[i + a - b] += c
        return tuple(coeffs)

    return rec(n, m)


def gaussian_multinomial(n: int, mu: tuple[int, ...], q) -> Fraction:
    """[n]! / prod [mu_j]! with [j] = (q^j-1)/(q-1); order independent."""
    if sum(mu) != n:
        raise ValueError("parts must sum to n")
    value = Fraction(1)
    rest = n
    for part in mu:
        value *= gaussian_binomial(rest, part, q)
        rest -= part
    return value


def partition_count(n: int) -> int:
    return len(enumerate_partitions(n))
