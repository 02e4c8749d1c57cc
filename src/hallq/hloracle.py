"""Independent referees for the Hall-Littlewood transition layer.

Never used on the production path; the tests compare ``symfun`` against
them.

- Semistandard tableaux by enumeration: their counts are the Kostka numbers.
- The charge statistic: K_{lam,mu}(t) is the sum of t^charge over the
  tableaux of shape lam and content mu (Lascoux-Schutzenberger).
- Hall-Littlewood P by explicit symmetrization: P_lam in n = |lam|
  variables from the defining alternant

    P_lam = (1/v_lam(t)) * sum over w in S_n of
            sign(w) * w(x^lam * prod_{i<j} (x_i - t x_j)) / Vandermonde

  with exact polynomial arithmetic over Fractions.
- The adjudication of the source expansions: the cylinder formula evaluates
  Hall-Littlewood Q at a label with some of its atoms replaced by geometric
  families, and the source formulas disagree about which.  Each candidate is
  scored by the Q-route at its explicit expansion against Haar recovery,
  coherence and the independent r-function route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Sequence

from . import gflinalg, measures, symfun
from .partitions import Partition, enumerate_partitions, partition_index, validate_partition
from .symfun import GroundParams, SpecEntry, ThomaSpec

# A semistandard tableau, stored row by row.
Tableau = tuple[tuple[int, ...], ...]


def enumerate_ssyt(shape: Partition, content: Partition) -> tuple[Tableau, ...]:
    """All semistandard tableaux of the given shape and content.

    Rows weakly increase, columns strictly increase; entry i appears
    content[i-1] times.  The count is the Kostka number.
    """
    shape = validate_partition(shape)
    content = tuple(content)
    if sum(shape) != sum(content):
        raise ValueError("shape and content must have the same size")
    return _ssyt_cached(shape, content)


@lru_cache(maxsize=None)
def _ssyt_cached(shape: Partition, content: Partition) -> tuple[Tableau, ...]:
    n_rows = len(shape)
    rows: list[list[int]] = [[] for _ in range(n_rows)]
    remaining = list(content)
    out: list[Tableau] = []

    def place(letter: int) -> None:
        if letter > len(remaining):
            out.append(tuple(tuple(r) for r in rows))
            return
        count = remaining[letter - 1]
        if count == 0:
            place(letter + 1)
            return

        # Distribute `count` copies of `letter` over rows, scanning top down;
        # in each row they occupy a contiguous stretch at the current end.
        def fill(row: int, left: int) -> None:
            if left == 0:
                place(letter + 1)
                return
            if row >= n_rows:
                return
            here = len(rows[row])
            cap = shape[row] - here
            # strict column condition against the row above
            if row > 0:
                above = rows[row - 1]
                cap = min(cap, sum(1 for j in range(here, len(above)) if above[j] < letter))
            cap = min(cap, left)
            lo = 0
            for take in range(cap, lo - 1, -1):
                rows[row].extend([letter] * take)
                fill(row + 1, left - take)
                del rows[row][here:]

        fill(0, count)

    place(1)
    return tuple(out)


def kostka_number(shape: Partition, content: Partition) -> int:
    return len(enumerate_ssyt(shape, content))


def tableau_is_semistandard(t: Tableau, shape: Partition, content: Partition) -> bool:
    if tuple(len(r) for r in t) != tuple(shape):
        return False
    counts: dict[int, int] = {}
    for i, row in enumerate(t):
        for j, v in enumerate(row):
            if v < 1:
                return False
            counts[v] = counts.get(v, 0) + 1
            if j + 1 < len(row) and row[j + 1] < v:
                return False
            if i + 1 < len(t) and j < len(t[i + 1]) and t[i + 1][j] <= v:
                return False
    want = {i + 1: c for i, c in enumerate(content) if c}
    return counts == want


def reading_word(t: Tableau) -> tuple[int, ...]:
    """Rows read right to left, top row first."""
    word: list[int] = []
    for row in t:
        word.extend(reversed(row))
    return tuple(word)


def _standard_charge(letters: Sequence[int], positions: Sequence[int]) -> int:
    """Charge of a standard subword given as (letter, position-in-word) pairs."""
    pos = {letter: p for letter, p in zip(letters, positions)}
    index = 0
    total = 0
    for r in range(2, len(letters) + 1):
        if pos[r] < pos[r - 1]:
            index += 1
        total += index
    return total


def charge(t: Tableau) -> int:
    """Charge of a semistandard tableau with partition content.

    The reading word is decomposed into standard subwords by the circular
    rule: take the rightmost 1, then for each next letter the first
    occurrence strictly to the right of the current one, wrapping to the
    leftmost occurrence when none remains; the charge is the sum of the
    subword charges.  Pinned by: one-row tableaux of content rho have charge
    n(rho), the superstandard tableau of any shape has charge 0, and the full
    transition matrices match the brute-force symmetrization oracle.
    """
    word = list(reading_word(t))
    content: dict[int, int] = {}
    for v in word:
        content[v] = content.get(v, 0) + 1
    letters = sorted(content)
    if letters != list(range(1, len(letters) + 1)) or any(
        content[i] < content[i + 1] for i in range(1, len(letters))
    ):
        raise ValueError("charge requires partition content")

    total = 0
    alive = list(range(len(word)))
    while alive:
        max_letter = max(word[i] for i in alive)
        chosen: list[int] = []
        cursor = None
        for letter in range(1, max_letter + 1):
            cand = [i for i in alive if word[i] == letter and i not in chosen]
            if cursor is None:
                pick = max(cand)
            else:
                right = [i for i in cand if i > cursor]
                pick = min(right) if right else min(cand)
            chosen.append(pick)
            cursor = pick
        chosen_sorted = sorted(chosen)
        total += _standard_charge([word[i] for i in chosen_sorted], chosen_sorted)
        alive = [i for i in alive if i not in set(chosen)]
    return total


@lru_cache(maxsize=None)
def _charges(shape: Partition, content: Partition) -> tuple[int, ...]:
    return tuple(charge(t) for t in enumerate_ssyt(shape, content))


def charge_kostka_foulkes(shape: Partition, content: Partition) -> tuple[int, ...]:
    """Coefficients of K_{shape,content}(t), constant term first, from the
    charges of the tableaux; () when there are none."""
    coeffs: list[int] = []
    for c in _charges(shape, content):
        coeffs.extend([0] * (c + 1 - len(coeffs)))
        coeffs[c] += 1
    return tuple(coeffs)



Poly = dict[tuple[int, ...], Fraction]


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, Fraction(0)) + ca * cb
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def _poly_add_inplace(a: Poly, b: Poly, scale: Fraction) -> None:
    for e, c in b.items():
        v = a.get(e, Fraction(0)) + scale * c
        if v:
            a[e] = v
        elif e in a:
            del a[e]


def _divide_by_binomial(a: Poly, i: int, j: int, nvars: int) -> Poly:
    """Exact division by (x_i - x_j)."""
    out: Poly = {}
    rem = dict(a)
    while rem:
        # leading term in lex order
        e = max(rem)
        c = rem[e]
        if e[i] == 0:
            raise ArithmeticError("not divisible")
        q = list(e)
        q[i] -= 1
        qe = tuple(q)
        out[qe] = out.get(qe, Fraction(0)) + c
        # subtract c * x^qe * (x_i - x_j)
        t1 = tuple(x + (1 if k == i else 0) for k, x in enumerate(qe))
        t2 = tuple(x + (1 if k == j else 0) for k, x in enumerate(qe))
        for term, sgn in ((t1, c), (t2, -c)):
            v = rem.get(term, Fraction(0)) - sgn
            if v:
                rem[term] = v
            else:
                rem.pop(term, None)
    return out


def _t_product(nvars: int, t: Fraction) -> Poly:
    prod: Poly = {(0,) * nvars: Fraction(1)}
    for i in range(nvars):
        for j in range(i + 1, nvars):
            term: Poly = {}
            e1 = [0] * nvars
            e1[i] = 1
            e2 = [0] * nvars
            e2[j] = 1
            term[tuple(e1)] = Fraction(1)
            term[tuple(e2)] = -t
            prod = _poly_mul(prod, term)
    return prod


def _sign(perm: tuple[int, ...]) -> int:
    sgn = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sgn = -sgn
    return sgn


def _v_factor(lam: Partition, nvars: int, t: Fraction) -> Fraction:
    """v_lam(t) = prod over i >= 0 of prod_{k<=m_i} (1-t^k)/(1-t), with m_0
    the number of zero parts among the nvars variables."""
    mult: dict[int, int] = {0: nvars - len(lam)}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    out = Fraction(1)
    for m in mult.values():
        for k in range(1, m + 1):
            out *= (1 - t**k) / (1 - t)
    return out


def hl_p_brute(lam: Partition, t: Fraction) -> Poly:
    """P_lam(x_1..x_n; t) with n = |lam| variables, as an exact polynomial."""
    n = sum(lam)
    nvars = max(n, 1)
    t = Fraction(t)
    tprod = _t_product(nvars, t)
    exps = tuple(lam) + (0,) * (nvars - len(lam))
    acc: Poly = {}
    for perm in permutations(range(nvars)):
        # w(x^lam * tprod): permute variable indices by w
        mono = [0] * nvars
        for pos, e in enumerate(exps):
            mono[perm[pos]] = e
        shifted: Poly = {}
        for e, c in tprod.items():
            pe = [0] * nvars
            for pos, val in enumerate(e):
                pe[perm[pos]] = val
            key = tuple(p + m for p, m in zip(pe, mono))
            shifted[key] = shifted.get(key, Fraction(0)) + c
        _poly_add_inplace(acc, shifted, Fraction(_sign(perm)))
    # divide by the Vandermonde prod_{i<j} (x_i - x_j)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            acc = _divide_by_binomial(acc, i, j, nvars)
    v = _v_factor(lam, nvars, t)
    return {e: c / v for e, c in acc.items()}


def poly_to_monomial_coeffs(poly: Poly, n: int) -> dict[Partition, Fraction]:
    """Collect a symmetric polynomial in >= n variables into m_mu coefficients."""
    out: dict[Partition, Fraction] = {}
    for e, c in poly.items():
        mu = tuple(sorted((x for x in e if x), reverse=True))
        if sum(mu) != n:
            raise ValueError("inhomogeneous polynomial")
        if mu not in out:
            out[mu] = c
        elif out[mu] != c:
            raise ValueError(f"not symmetric at {mu}")
    return out


def hl_p_in_monomial_brute(n: int, t: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """Rows P_lam in the monomial basis, computed by symmetrization."""
    parts = enumerate_partitions(n)
    idx = partition_index(n)
    rows = []
    for lam in parts:
        coeffs = poly_to_monomial_coeffs(hl_p_brute(lam, t), n)
        row = [Fraction(0)] * len(parts)
        for mu, c in coeffs.items():
            row[idx[mu]] = c
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# adjudication of the source expansions
# ---------------------------------------------------------------------------

# the candidates of the source formulas; ``expand-both`` is the point every
# ``measures.CentralMeasure`` evaluates at
SOURCE_EXPANSIONS = ("expand-alpha", "expand-beta", "expand-none")
_EXPANDED_SIDES = {
    "expand-alpha": (True, False),
    "expand-beta": (False, True),
    "expand-none": (False, False),
    "expand-both": (True, True),
}
HAAR = ThomaSpec(alphas=(SpecEntry(Fraction(1)),))
VERDICTS = ("coherence", "haar_recovery", "two_route", "positivity")


def expand_spec(spec: ThomaSpec, expansion: str) -> ThomaSpec:
    """The label with the atoms of the sides the expansion names replaced by
    geometric families of the same mass."""
    if expansion not in _EXPANDED_SIDES:
        raise ValueError(f"unknown expansion {expansion!r}")
    alpha, beta = _EXPANDED_SIDES[expansion]
    if alpha:
        spec = symfun.geometric_merge(spec)
    if beta:
        spec = symfun.geometric_merge_beta(spec)
    return spec


def adjudicate_expansions(corpus: dict[str, ThomaSpec], n_max: int) -> dict[str, dict[str, bool]]:
    """Each source expansion's verdicts (``VERDICTS``) on the corpus, at q = 2
    and q = 3, for every type of size <= n_max: coherence under one-column
    extensions (closed-form counts), Haar recovery (on the Haar label),
    equality with the r-function of the unexpanded label, and nonnegativity."""
    table = {}
    for expansion in SOURCE_EXPANSIONS:
        verdicts = dict.fromkeys(VERDICTS, True)
        for q in (2, 3):
            ground = GroundParams(q)
            for spec in corpus.values():
                point = expand_spec(spec, expansion)
                values = {
                    rho: measures.q_route_value(rho, point, ground)
                    for n in range(n_max + 1)
                    for rho in enumerate_partitions(n)
                }
                checks = {
                    "coherence": all(
                        v == sum((c * values[sigma] for sigma, c in gflinalg.extension_counts_closed(rho, q).items()),
                                 Fraction(0))
                        for rho, v in values.items()
                        if sum(rho) < n_max
                    ),
                    "haar_recovery": spec != HAAR
                    or all(v == Fraction(1, q ** (sum(rho) * (sum(rho) - 1) // 2)) for rho, v in values.items()),
                    "two_route": all(
                        v == measures.characteristic_cylinder_via_r(spec, rho, ground) for rho, v in values.items()
                    ),
                    "positivity": all(v >= 0 for v in values.values()),
                }
                for name, ok in checks.items():
                    verdicts[name] = verdicts[name] and ok
        table[expansion] = verdicts
    return table


def adjudication_winners(table: dict[str, dict[str, bool]]) -> list[str]:
    return [expansion for expansion, verdicts in table.items() if all(verdicts.values())]


def render_adjudication(corpus: dict[str, ThomaSpec], n_max: int, table: dict[str, dict[str, bool]]) -> str:
    """The evidence page docs/convention_adjudication.md holds."""
    winners = adjudication_winners(table)
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
        "scored on the shipped beta-free corpus (" + ", ".join(corpus) + ")",
        f"for all types of size <= {n_max}, at q = 2 and q = 3.  All checks are exact",
        "rational identities, no tolerances.",
        "",
        "| convention | coherence | Haar recovery | two-route equality | nonnegative |",
        "|---|---|---|---|---|",
    ]
    for expansion, verdicts in table.items():
        cells = (verdicts[name] for name in VERDICTS)
        lines.append(f"| {expansion} | " + " | ".join("pass" if ok else "fail" for ok in cells) + " |")
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
        "  beta side to be expanded, and mixed points require both sides.  Every",
        "  central measure is therefore evaluated at its `expand-both` point,",
        "  which on a beta-free label is the `expand-alpha` point.  The test suite",
        "  asserts the r-route equality on the pure-beta and mixed points, and that",
        "  every beta-free measure evaluates at the winner's point.",
        "",
    ]
    return "\n".join(lines)
