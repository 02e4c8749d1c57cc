"""Output checks for the hallq benchmark.

Every check raises ``CheckError`` with the offending values; none uses
``assert``, so all of them hold under ``python -O``.  Each one compares a
workload's output against a closed form, an independent route, or a
property the method must have, never against a stored copy of an earlier
output.

The explicit-matrix check rebuilds each trial's matrix from the counter
stream documented in ``hallq.sampler`` (block i of the stream for
(trial, step) is blake2b keyed by the seed over trial || step || i, all
8-byte little endian, 64-byte digest) and computes its Jordan type here, by
ranks of powers, without calling the sampler.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import sqrt

from hallq import gflinalg, measures


class CheckError(Exception):
    """A workload output failed a correctness check."""


def _haar_level(q: int, n: int) -> Fraction:
    return Fraction(1, q ** (n * (n - 1) // 2))


def conjugate(lam) -> tuple[int, ...]:
    """Column lengths of the Young diagram of lam."""
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0])) if lam else ()


# ---------------------------------------------------------------------------
# exact cylinder values
# ---------------------------------------------------------------------------


def haar_recovery(values: dict, q: int) -> None:
    """The Haar point gives M_rho = q^(-n(n-1)/2) for every rho."""
    for rho, value in values.items():
        want = _haar_level(q, sum(rho))
        if value != want:
            raise CheckError(f"Haar recovery failed at q={q}, rho={rho}: {value} != {want}")


def two_routes(pairs: dict) -> None:
    """The Q-route and the r-route give the same cylinder value."""
    for key, (q_route, r_route) in pairs.items():
        if q_route != r_route:
            raise CheckError(f"Q-route {q_route} != r-route {r_route} at {key}")


def coherence(values: dict, q: int) -> None:
    """M_rho = sum over covers sigma of c_{rho,sigma} M_sigma, wherever all
    covers are present and rho lies in the validated closed-count range."""
    top = max(sum(rho) for rho in values)
    limit = min(top - 1, gflinalg.VALIDATED_FAST_COUNTS[q])
    checked = 0
    for rho, value in values.items():
        if sum(rho) > limit:
            continue
        counts = gflinalg.extension_counts_closed(rho, q)
        rhs = sum((c * values[sigma] for sigma, c in counts.items()), Fraction(0))
        if rhs != value:
            raise CheckError(f"coherence failed at q={q}, rho={rho}: {value} != {rhs}")
        checked += 1
    if not checked:
        raise CheckError("coherence check covered no partition")


def normalization(values: dict, census: dict, q: int) -> None:
    """sum over rho of N_rho(q) M_rho = 1 at every level of the census."""
    for n, counts in census.items():
        total = sum((c * values[rho] for rho, c in counts.items()), Fraction(0))
        if total != 1:
            raise CheckError(f"normalization at q={q}, level {n} sums to {total}")


# ---------------------------------------------------------------------------
# Haar growth
# ---------------------------------------------------------------------------


def counter_digits(seed: int, trial: int, step: int, q: int):
    """Base-q digits of the stream for (trial, step): bits low first at
    q = 2, bytes below the largest multiple of q taken mod q otherwise."""
    key = seed.to_bytes(8, "little")
    limit = (256 // q) * q
    index = 0
    while True:
        data = trial.to_bytes(8, "little") + step.to_bytes(8, "little") + index.to_bytes(8, "little")
        for byte in hashlib.blake2b(data, key=key, digest_size=64).digest():
            if q == 2:
                for k in range(8):
                    yield (byte >> k) & 1
            elif byte < limit:
                yield byte % q
        index += 1


def rebuilt_columns(seed: int, trial: int, n: int, q: int) -> list[list[int]]:
    """Strictly upper columns of the matrix grown over n steps: step s draws
    the s-1 entries above the diagonal of column s-1."""
    cols = []
    for step in range(1, n + 1):
        digits = counter_digits(seed, trial, step, q)
        cols.append([next(digits) for _ in range(step - 1)])
    return cols


def _independent(vectors: list[list[int]], q: int) -> list[list[int]]:
    """A basis of the span, by Gaussian elimination mod the prime q."""
    basis: dict[int, list[int]] = {}
    for v in vectors:
        v = list(v)
        for p in range(len(v)):
            if not v[p]:
                continue
            if p in basis:
                f = v[p]
                v = [(x - f * y) % q for x, y in zip(v, basis[p])]
            else:
                inv = pow(v[p], -1, q)
                basis[p] = [(x * inv) % q for x in v]
                break
    return list(basis.values())


def _independent_bits(vectors: list[int]) -> list[int]:
    """A basis of the span over F_2, vectors packed as int bitmasks."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            low = v & -v
            if low not in basis:
                basis[low] = v
                break
            v ^= basis[low]
    return list(basis.values())


def _ranks_of_powers(image: list, apply, independent) -> list[int]:
    """rank(x^k) for k = 1, 2, ... down to 0, from a basis of Im x."""
    ranks = []
    while image:
        ranks.append(len(image))
        image = independent([apply(v) for v in image])
    return ranks + [0]


def nilpotent_cols(cols: list[list[int]], m: int, q: int) -> tuple[int, ...]:
    """Conjugate Jordan type of the leading m x m block x of the strictly
    upper matrix with the given columns: rank(x^(k-1)) - rank(x^k), k >= 1."""
    if q == 2:
        packed = [sum(bit << i for i, bit in enumerate(c)) for c in cols[:m]]

        def apply(v):
            out = 0
            while v:
                low = v & -v
                out ^= packed[low.bit_length() - 1]
                v ^= low
            return out

        ranks = _ranks_of_powers(_independent_bits(packed), apply, _independent_bits)
    else:

        def apply(v):
            out = [0] * m
            for j in range(m):
                if v[j]:
                    for i, x in enumerate(cols[j]):
                        if x:
                            out[i] = (out[i] + v[j] * x) % q
            return out

        image = _independent([c + [0] * (m - len(c)) for c in cols[:m]], q)
        ranks = _ranks_of_powers(image, apply, lambda vs: _independent(vs, q))
    ranks = [m] + ranks
    return tuple(ranks[k - 1] - ranks[k] for k in range(1, len(ranks)) if ranks[k - 1] > ranks[k])


def matrix_trials(records, seed: int, q: int, n: int) -> None:
    """Every snapshot and final type equals the Jordan type of the matrix
    rebuilt from the counter stream."""
    for rec in records:
        cols = rebuilt_columns(seed, rec.trial, n, q)
        for m, got in list(rec.snapshots) + [(n, rec.final_cols)]:
            want = nilpotent_cols(cols, m, q)
            if tuple(got) != want:
                raise CheckError(f"matrix engine q={q} trial {rec.trial} at size {m}: type {got} != {want}")


# A correct sampler lands outside 6 standard errors with probability about
# 2e-9 per row; over every row, workload and round this stays below 1e-6.
FREQ_SE_BOUND = 6


def chain_frequencies(records, q: int, n: int, k_max: int = 4) -> None:
    """Mean row frequencies rho_k / n lie within FREQ_SE_BOUND standard
    errors of the Haar limit (1-t) t^(k-1), t = 1/q, for k <= k_max."""
    t = 1 / q
    trials = len(records)
    for k in range(k_max):
        xs = [(rec.final_rows[k] if k < len(rec.final_rows) else 0) / n for rec in records]
        mean = sum(xs) / trials
        se = sqrt(sum((x - mean) ** 2 for x in xs) / (trials - 1) / trials)
        target = (1 - t) * t**k
        if abs(mean - target) > FREQ_SE_BOUND * se:
            raise CheckError(
                f"chain q={q}: mean row {k + 1} frequency {mean:.5f} is more than "
                f"{FREQ_SE_BOUND} standard errors ({se:.5f}) from {target:.5f}"
            )


# ---------------------------------------------------------------------------
# measure growth
# ---------------------------------------------------------------------------


def _is_cover(lam, mu) -> bool:
    """mu is lam with one box added."""
    lam = list(lam) + [0] * (len(mu) - len(lam))
    if len(lam) != len(mu):
        return False
    diffs = [b - a for a, b in zip(lam, mu)]
    return sorted(diffs) == [0] * (len(diffs) - 1) + [1]


def cover_paths(records, n: int) -> None:
    """Each trial's path, snapshotted at every step, is a chain of one-box
    covers from the empty partition to size n ending at the final type."""
    for rec in records:
        steps = [s for s, _ in rec.snapshots]
        if steps != list(range(1, n + 1)):
            raise CheckError(f"trial {rec.trial}: snapshots at steps {steps[:5]}..., not 1..{n}")
        prev: tuple[int, ...] = ()
        for step, cols in rec.snapshots:
            cur = conjugate(tuple(cols))
            if cur != tuple(sorted(cur, reverse=True)) or not _is_cover(prev, cur):
                raise CheckError(f"trial {rec.trial}: {cur} at step {step} is not a cover of {prev}")
            prev = cur
        if prev != conjugate(tuple(rec.final_cols)):
            raise CheckError(f"trial {rec.trial}: path ends at {prev}, final type is {rec.final_cols}")


def conditional_law(meas, path, q: int) -> None:
    """At each given type the conditional law c_{rho,sigma} M_sigma / M_rho
    over its covers sums to exactly 1 (closed counts, validated range)."""
    for rho in path:
        if sum(rho) > gflinalg.VALIDATED_FAST_COUNTS[q]:
            raise CheckError(f"type {rho} lies outside the validated count range")
        m_rho = measures.cylinder_prob_fast(meas, rho)
        counts = gflinalg.extension_counts_closed(rho, q)
        total = sum((c * measures.cylinder_prob_fast(meas, s) for s, c in counts.items()), Fraction(0)) / m_rho
        if total != 1:
            raise CheckError(f"conditional law at {rho} sums to {total}")


def fast_route(fast: dict, via_r: dict) -> None:
    """The two-atom fast r-route equals the general r-function route."""
    for rho, value in fast.items():
        if value != via_r[rho]:
            raise CheckError(f"fast route {value} != r-route {via_r[rho]} at {rho}")


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def extension_tables(brute: dict, closed: dict) -> None:
    """Brute extension counts equal the closed form and sum to q^|rho|."""
    for (q, rho), counts in brute.items():
        if counts != closed[q, rho]:
            raise CheckError(f"brute counts {counts} != closed form {closed[q, rho]} at q={q}, rho={rho}")
        if sum(counts.values()) != q ** sum(rho):
            raise CheckError(f"extension counts at q={q}, rho={rho} sum to {sum(counts.values())}")


def census_totals(census: dict) -> None:
    """The census of n x n unitriangular matrices counts q^(n(n-1)/2)."""
    for (n, q), counts in census.items():
        if sum(counts.values()) != q ** (n * (n - 1) // 2):
            raise CheckError(f"census n={n}, q={q} totals {sum(counts.values())}")


def flag_tables(oracle: dict, formula: dict) -> None:
    """The flag-count character table equals the Kostka-Foulkes formula."""
    for key, table in oracle.items():
        if table != formula[key]:
            raise CheckError(f"flag-oracle character table differs from chi_matrix at (n, q) = {key}")
