"""Exact symmetric-function engine at a fixed rational deformation parameter.

Bases: monomial, Schur, power sum, Hall-Littlewood P and Q.  A basis is
the rows of its transition matrix into power sums (``m_in_p``, ``s_in_p``,
``hl_p_in_p``, ``hl_q_in_p``), and ``evaluate_rows`` takes such rows to
values at a point.  Every coefficient is a ``Fraction``; the parameter t is
a fixed rational (in the finite-field applications t = 1/q), never a
symbolic variable.  Transition matrices are built once per degree (and per
t where relevant), indexed by the reverse-lexicographic partition list, and
are triangular with unit diagonal wherever dominance theory says they must
be.

No tableau is enumerated.  Schur functions enter power sums through the
Murnaghan-Nakayama character table, Kostka numbers come from Pieri's
horizontal strips, and the Kostka-Foulkes polynomials from one integer
factorisation of the t-Hall Gram matrix per degree, evaluated at any t.
Hall-Littlewood P and Q are solved for directly in power sums.  The
tableau and symmetrization referees live in ``hloracle``.

Evaluation points are ``ThomaSpec`` objects: finite lists of atom or
geometric-family coordinates (alpha; beta) plus a gamma that feeds only the
first power sum.  A geometric entry with mass a stands for the sequence
(1-t)a, (1-t)ta, (1-t)t^2 a, ...; its power sums have the closed form
(1-t)^m a^m / (1-t^m), so no truncation is ever involved.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul
from pathlib import Path
from typing import Mapping, Sequence, Union

from .partitions import (
    Partition,
    check_degree,
    enumerate_partitions,
    n_stat,
    partition_index,
    validate_partition,
)

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# ground parameters and evaluation points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundParams:
    """The pair (q, t) with t = 1/q and q > 1 rational."""

    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q <= 1:
            raise ValueError("q must exceed 1")

    @property
    def t(self) -> Fraction:
        return 1 / self.q


@dataclass(frozen=True)
class SpecEntry:
    value: Fraction
    geometric: bool = False

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value < 0:
            raise ValueError("entry values must be nonnegative")


def _canonical_entries(entries) -> tuple[SpecEntry, ...]:
    out = []
    for e in entries:
        if isinstance(e, SpecEntry):
            out.append(e)
        elif isinstance(e, tuple):
            out.append(SpecEntry(Fraction(e[0]), bool(e[1])))
        else:
            out.append(SpecEntry(Fraction(e), False))
    # weakly decreasing values within each kind
    atoms = sorted((e for e in out if not e.geometric), key=lambda e: e.value, reverse=True)
    geos = sorted((e for e in out if e.geometric), key=lambda e: e.value, reverse=True)
    return tuple(atoms) + tuple(geos)


@dataclass(frozen=True)
class ThomaSpec:
    """Evaluation point (alpha; beta; gamma) with exact rational masses.

    The mass of an entry is its ``value`` whether or not it is geometric
    (a geometric family's masses sum back to the value).  ``gamma``
    contributes to p_1 only.
    """

    alphas: tuple[SpecEntry, ...] = ()
    betas: tuple[SpecEntry, ...] = ()
    gamma: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "alphas", _canonical_entries(self.alphas))
        object.__setattr__(self, "betas", _canonical_entries(self.betas))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")

    @property
    def mass(self) -> Fraction:
        return (
            sum((e.value for e in self.alphas), Fraction(0))
            + sum((e.value for e in self.betas), Fraction(0))
            + self.gamma
        )

    def require_normalized(self) -> None:
        if self.mass != 1:
            raise ValueError(f"spec mass {self.mass} != 1")

    def power_sum(self, m: int, t: Rational) -> Fraction:
        """p_m at this point: alpha atoms a^m, beta atoms -(-b)^m, geometric
        entries by the closed form, gamma into p_1 only."""
        if m < 1:
            raise ValueError("m must be >= 1")
        t = Fraction(t)
        total = Fraction(0)
        if m == 1:
            total += self.gamma
        for e in self.alphas:
            if e.geometric:
                total += (1 - t) ** m * e.value**m / (1 - t**m)
            else:
                total += e.value**m
        for e in self.betas:
            if e.geometric:
                total -= (1 - t) ** m * (-e.value) ** m / (1 - t**m)
            else:
                total -= (-e.value) ** m
        return total


@dataclass(frozen=True)
class PowerFunctional:
    """Evaluation functional E_d with p_m(E_d) = p_{md} of a base point.

    The base parameter t is bound at construction; the t argument of
    ``power_sum`` is ignored (callers typically pass t^d).
    """

    base: "EvalPoint"
    d: int
    base_t: Fraction

    def power_sum(self, m: int, t: Rational = None) -> Fraction:  # noqa: ARG002
        return self.base.power_sum(m * self.d, self.base_t)


EvalPoint = Union[ThomaSpec, PowerFunctional]


def power_substitution(spec: EvalPoint, d: int, t: Rational) -> PowerFunctional:
    """The power substitution sending p_m to p_{md}, realized as a functional."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return PowerFunctional(spec, d, Fraction(t))


def geometric_merge(spec: ThomaSpec) -> ThomaSpec:
    """Replace every alpha atom by the geometric family of the same mass."""
    if any(e.geometric for e in spec.alphas):
        raise ValueError("alpha already contains geometric entries")
    return ThomaSpec(
        alphas=tuple(SpecEntry(e.value, True) for e in spec.alphas),
        betas=spec.betas,
        gamma=spec.gamma,
    )


def geometric_merge_beta(spec: ThomaSpec) -> ThomaSpec:
    """Replace every beta atom by the geometric family of the same mass."""
    if any(e.geometric for e in spec.betas):
        raise ValueError("beta already contains geometric entries")
    return ThomaSpec(
        alphas=spec.alphas,
        betas=tuple(SpecEntry(e.value, True) for e in spec.betas),
        gamma=spec.gamma,
    )


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


# Python's default limit on the digits of an int written as text: a larger
# numerator or denominator could not be printed in the output.
MAX_RATIONAL_DIGITS = 4300


def parse_rational(text: str) -> Fraction:
    """An exact rational from text such as "1/2" or "2.5e-3"; ValueError on
    bad text, a zero denominator, or a numerator or denominator that would
    exceed MAX_RATIONAL_DIGITS digits.

    That bound is checked on the text, before the number is built: each side
    of "a/b" counts its digits, and a decimal counts the digits of its
    mantissa (at least one before the point) plus the size of its exponent.
    """
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, decimals = mantissa.partition(".")
    digits = [sum(ch.isdigit() for ch in side) for side in whole.split("/")]
    try:
        shift = abs(int(exponent)) if exponent else 0
    except ValueError:
        raise ValueError(f"not a rational: {text[:40]!r}") from None
    if max(max(digits), 1) + sum(ch.isdigit() for ch in decimals) + shift > MAX_RATIONAL_DIGITS:
        raise ValueError(
            f"rational input {text[:40]!r} would have more than {MAX_RATIONAL_DIGITS} digits"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"not a rational: {text[:40]!r}") from None


def spec_to_dict(spec: ThomaSpec, q: Rational | None = None) -> dict:
    doc = {
        "alphas": [{"value": str(e.value), "geometric": e.geometric} for e in spec.alphas],
        "betas": [{"value": str(e.value), "geometric": e.geometric} for e in spec.betas],
        "gamma": str(spec.gamma),
    }
    if q is not None:
        doc["q"] = str(Fraction(q))
    return doc


def spec_from_dict(doc: Mapping) -> tuple[ThomaSpec, Fraction | None]:
    """The point and stored q (or None) of a spec document; ValueError if it
    is not an object or has a missing or ill-typed field.  A string value is
    read by ``parse_rational``, a JSON number by ``Fraction``."""

    def rational(x, where: str) -> Fraction:
        try:
            if isinstance(x, str):
                return parse_rational(x)
            if isinstance(x, (int, float)) and not isinstance(x, bool):
                return Fraction(x)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"malformed spec file: {where}: {exc}") from None
        raise ValueError(f"malformed spec file: {where} is not a finite rational: {x!r}")

    def entries(key):
        items = doc.get(key, [])
        if not isinstance(items, list) or not all(
            isinstance(e, Mapping) and "value" in e and isinstance(e.get("geometric", False), bool) for e in items
        ):
            raise ValueError(f"malformed spec file: {key} must be a list of {{value, geometric: bool}} objects")
        return tuple(SpecEntry(rational(e["value"], f"{key} value"), e.get("geometric", False)) for e in items)

    if not isinstance(doc, Mapping):
        raise ValueError(f"malformed spec file: expected an object, got {type(doc).__name__}")
    spec = ThomaSpec(entries("alphas"), entries("betas"), rational(doc.get("gamma", "0"), "gamma"))
    q = rational(doc["q"], "q") if "q" in doc else None
    return spec, q


def save_spec(path, spec: ThomaSpec, q: Rational | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec, q), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spec(path) -> tuple[ThomaSpec, Fraction | None]:
    with open(path, encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# characters, Kostka numbers and Kostka-Foulkes polynomials
# ---------------------------------------------------------------------------


def z_coefficient(rho: Partition) -> int:
    """z_rho = prod over parts i of i^(m_i) m_i!, the centralizer order in S_n."""
    out = 1
    for part in set(rho):
        m = rho.count(part)
        out *= part**m * factorial(m)
    return out


@lru_cache(maxsize=None)
def _rim_hooks(lam: Partition, r: int) -> tuple[tuple[int, Partition], ...]:
    """(sign, mu) for every rim hook of r boxes removed from lam.

    On the beta-set {lam_i + l - i} a rim hook is a bead moved from b down
    to the empty position b - r; the sign is (-1) to the number of beads it
    jumps (the hook's height).
    """
    size = len(lam)
    beta = [part + size - 1 - i for i, part in enumerate(lam)]
    occupied = set(beta)
    out = []
    for i, b in enumerate(beta):
        c = b - r
        if c < 0 or c in occupied:
            continue
        height = sum(1 for x in beta[i + 1:] if x > c)
        moved = sorted(beta[:i] + [c] + beta[i + 1:], reverse=True)
        mu = tuple(x - (size - 1 - k) for k, x in enumerate(moved))
        out.append((-1 if height % 2 else 1, tuple(p for p in mu if p)))
    return tuple(out)


@lru_cache(maxsize=None)
def _character_column(rho: Partition) -> tuple[int, ...]:
    """chi^lam_rho for every lam of |rho| in reverse-lex order, by
    Murnaghan-Nakayama: strip a rim hook of rho_1 boxes in every way and
    read the rest off the column of rho minus its first part."""
    n = sum(rho)
    if n == 0:
        return (1,)
    r = rho[0]
    below = _character_column(rho[1:])
    idx = partition_index(n - r)
    return tuple(
        sum(sign * below[idx[mu]] for sign, mu in _rim_hooks(lam, r))
        for lam in enumerate_partitions(n)
    )


@lru_cache(maxsize=None)
def character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The symmetric-group character table chi^lam_rho, rows lam, columns
    rho, both in reverse-lex order (Macdonald I.7)."""
    check_degree(n)
    return tuple(zip(*(_character_column(rho) for rho in enumerate_partitions(n))))


@lru_cache(maxsize=None)
def _horizontal_strips(nu: Partition, r: int) -> tuple[Partition, ...]:
    """Every lam with lam / nu a horizontal strip of r boxes: nu_i <= lam_i
    <= nu_(i-1), with at most one new row."""
    rows = nu + (0,)
    out = []

    def grow(i: int, left: int, prefix: tuple[int, ...]) -> None:
        if i == len(rows):
            if left == 0:
                out.append(tuple(p for p in prefix if p))
            return
        room = left if i == 0 else min(left, rows[i - 1] - rows[i])
        for add in range(room + 1):
            grow(i + 1, left - add, prefix + (rows[i] + add,))

    grow(0, r, ())
    return tuple(out)


@lru_cache(maxsize=None)
def _kostka_column(mu: Partition) -> dict[Partition, int]:
    """K_{lam,mu} for every lam with a nonzero entry: the Schur expansion of
    h_mu, one horizontal strip of mu_1 boxes (Pieri) on top of h_(mu_2, ...)."""
    if not mu:
        return {(): 1}
    out: dict[Partition, int] = {}
    for nu, k in _kostka_column(mu[1:]).items():
        for lam in _horizontal_strips(nu, mu[0]):
            out[lam] = out.get(lam, 0) + k
    return out


@lru_cache(maxsize=None)
def kostka_numbers(n: int) -> tuple[tuple[int, ...], ...]:
    """The degree-n Kostka matrix K[lam][mu] in reverse-lex indexing."""
    check_degree(n)
    parts = enumerate_partitions(n)
    cols = [_kostka_column(mu) for mu in parts]
    return tuple(tuple(col.get(lam, 0) for col in cols) for lam in parts)


@lru_cache(maxsize=None)
def kostka_foulkes_polynomials(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """K_{lam,mu}(t) for all lam, mu of n: integer coefficients, constant
    term first, () for zero; reverse-lex indexing, unit upper triangular.

    Under the t-Hall inner product <p_rho, p_rho>_t = z_rho / prod_i
    (1 - t^rho_i) the Schur functions have the Gram matrix
    G_{lam,mu} = sum_rho chi^lam_rho chi^mu_rho / (z_rho prod_i (1 - t^rho_i)),
    and since s_lam = sum_nu K_{lam,nu}(t) P_nu with <P_nu, P_nu>_t =
    1 / b_nu(t), G = K D K^T with D = diag(1 / b_nu(t)) (Macdonald III.2,
    III.4): K is the unit upper triangular factor of G, read off pivot by
    pivot from the last index.  Times n! phi_n(t), phi_n = prod_{k<=n}
    (1 - t^k), every entry of G and D is an integer polynomial, because
    z_rho divides n! and prod_i (1 - t^rho_i) and b_nu both divide phi_n.

    The factorisation runs once, in integers, at t = X = 2^B with 2^(B-1)
    above the largest Kostka number f^lam = chi^lam_(1^n).  Each K_{lam,mu}(t)
    has nonnegative coefficients summing to K_{lam,mu} < 2^(B-1), so its
    value at X holds the coefficients as base-X digits.  Every pivot must
    equal n! phi_n(X) / b_nu(X), every entry of K must divide out exactly,
    and every digit must stay below 2^(B-1); otherwise ArithmeticError.
    """
    check_degree(n)
    parts = enumerate_partitions(n)
    size = len(parts)
    chi = character_table(n)
    width = max(row[-1] for row in chi).bit_length() + 1
    x = 1 << width
    b = [b_coefficient(lam, x).numerator for lam in parts]
    scale = factorial(n) * b[-1]  # b of (1^n) is phi_n
    weights = []
    for rho in parts:
        den = z_coefficient(rho)
        for part in rho:
            den *= 1 - x**part
        weights.append(scale // den)
    gram = []
    for i in range(size):
        scaled = [c * w for c, w in zip(chi[i], weights)]
        gram.append([0] * i + [sum(map(mul, scaled, chi[j])) for j in range(i, size)])
    packed = [[0] * size for _ in range(size)]
    for k in range(size - 1, -1, -1):
        pivot = gram[k][k]
        if pivot != scale // b[k]:
            raise ArithmeticError(f"Gram pivot of {parts[k]} at n={n} is not n! phi_n / b at t = 2^{width}")
        packed[k][k] = 1
        column = []
        for i in range(k):
            entry, rest = divmod(gram[i][k], pivot)
            if rest:
                raise ArithmeticError(f"Gram entry ({parts[i]}, {parts[k]}) at n={n} does not divide by its pivot")
            if entry:
                packed[i][k] = entry
                column.append(i)
        for i in column:
            row, g = gram[i], gram[i][k]
            for j in column:
                if j >= i:
                    row[j] -= g * packed[j][k]
    mask, top = x - 1, 1 << (width - 1)

    def unpack(i: int, j: int) -> tuple[int, ...]:
        value, digits = packed[i][j], []
        while value > 0:
            digits.append(value & mask)
            value >>= width
        if value < 0 or any(d >= top for d in digits):
            raise ArithmeticError(
                f"Kostka-Foulkes entry ({parts[i]}, {parts[j]}) at n={n} has a digit outside [0, 2^{width - 1})"
            )
        return tuple(digits)

    return tuple(tuple(unpack(i, j) for j in range(size)) for i in range(size))


def _poly_values(polys, t: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """Every integer polynomial of the matrix at the rational t, exactly."""
    a, b = t.numerator, t.denominator
    deg = max(len(c) for row in polys for c in row)
    a_pow = [a**k for k in range(deg)]
    b_pow = [b**k for k in range(deg)]

    def at(coeffs) -> Fraction:
        top = len(coeffs) - 1
        num = sum(c * a_pow[k] * b_pow[top - k] for k, c in enumerate(coeffs) if c)
        return Fraction(num, b_pow[top]) if coeffs else Fraction(0)

    return tuple(tuple(at(c) for c in row) for row in polys)


def kostka_foulkes_entry(shape: Partition, content: Partition, t: Rational) -> Fraction:
    """K_{shape,content}(t) for partitions of the same size, read from
    ``kostka_foulkes_polynomials``."""
    shape, content = validate_partition(shape), validate_partition(content)
    n = sum(shape)
    if sum(content) != n:
        raise ValueError("shape and content must have the same size")
    idx = partition_index(n)
    coeffs = kostka_foulkes_polynomials(n)[idx[shape]][idx[content]]
    return _poly_values(((coeffs,),), Fraction(t))[0][0]


CACHE_ENV_VAR = "HALLQ_CACHE_DIR"
CACHE_FORMAT = "hallq-matrix-cache-v1"


def _cache_path(kind: str, n: int, t: Fraction) -> Path | None:
    root = os.environ.get(CACHE_ENV_VAR)
    # at t = -1, 0 or 1 the load check below cannot see every entry
    if not root or t in (-1, 0, 1):
        return None
    tag = f"{t.numerator}_{t.denominator}"
    return Path(root) / f"{kind}-n{n}-t{tag}.json"


def _cache_load(kind: str, n: int, t: Fraction):
    """The stored p(n) x p(n) matrix, or None on a miss: no file, an
    unreadable or malformed one, a header for another matrix, or a row that
    fails its identity at the geometric Haar point."""
    path = _cache_path(kind, n, t)
    if path is None or not path.exists():
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        header = (doc.get("format"), doc.get("kind"), doc.get("n"), doc.get("t"))
        if header != (CACHE_FORMAT, kind, n, str(t)):
            return None
        rows = tuple(tuple(Fraction(x) for x in row) for row in doc["rows"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError):
        return None
    size = len(enumerate_partitions(n))
    if len(rows) != size or any(len(row) != size for row in rows):
        return None
    return rows if _holds_at_haar_point(kind, rows, n, t) else None


def _holds_at_haar_point(kind: str, rows, n: int, t: Fraction) -> bool:
    """Whether every row passes one exact identity at the geometric Haar
    point g (one geometric alpha entry of mass 1): Q_rho(g) =
    t^n(rho) (1-t)^n, and s_lam(g) = sum over mu of K_lam,mu(t) Q_mu(g) /
    b_mu(t).  Unless t is -1, 0 or 1 no term vanishes, so one changed entry
    fails its row."""
    g = ThomaSpec(alphas=(SpecEntry(Fraction(1), geometric=True),))
    parts = enumerate_partitions(n)
    q_at_g = [t ** n_stat(mu) * (1 - t) ** n for mu in parts]
    if kind == "hl-q-in-p":
        return evaluate_rows(rows, g, t, n) == tuple(q_at_g)
    p_at_g = [v / b_coefficient(mu, t) for v, mu in zip(q_at_g, parts)]
    s_at_g = schur_values(g, t, n)
    return all(sum(k * p for k, p in zip(row, p_at_g)) == s for row, s in zip(rows, s_at_g))


def _cache_store(kind: str, n: int, t: Fraction, rows) -> None:
    """Write the matrix to a temporary file in the cache directory and move
    it into place, so that a reader never sees a partial file."""
    path = _cache_path(kind, n, t)
    if path is None:
        return
    doc = {
        "format": CACHE_FORMAT,
        "kind": kind,
        "n": n,
        "t": str(t),
        "rows": [[str(x) for x in row] for row in rows],
    }
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _first_off_unit_upper(K) -> tuple[int, int] | None:
    """The first entry (i, j) that keeps K from being unit upper triangular,
    or None."""
    for i, row in enumerate(K):
        if row[i] != 1:
            return i, i
        for j in range(i):
            if row[j] != 0:
                return i, j
    return None


@lru_cache(maxsize=None)
def kostka_foulkes(n: int, t: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """The degree-n Kostka-Foulkes matrix at exact rational t.

    Cached in memory per (n, t); persisted under the directory named by the
    HALLQ_CACHE_DIR environment variable when it is set.  A stored matrix
    that is not unit upper triangular is a miss.
    """
    check_degree(n)
    t = Fraction(t)
    cached = _cache_load("kostka-foulkes", n, t)
    if cached is not None and _first_off_unit_upper(cached) is None:
        return cached
    rows = _poly_values(kostka_foulkes_polynomials(n), t)
    _cache_store("kostka-foulkes", n, t, rows)
    return rows


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


def _m_times_p(coeffs: dict[Partition, Fraction], r: int) -> dict[Partition, Fraction]:
    """Multiply a monomial-basis element by the power sum p_r."""
    out: dict[Partition, Fraction] = {}
    for mu, c in coeffs.items():
        values = set(mu) | {0}
        for v in values:
            if v == 0:
                nu = tuple(sorted(mu + (r,), reverse=True))
            else:
                lst = list(mu)
                lst.remove(v)
                nu = tuple(sorted(lst + [v + r], reverse=True))
            mult = nu.count(v + r)
            out[nu] = out.get(nu, Fraction(0)) + c * mult
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def p_in_m(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows: p_rho expanded in monomials, degree n."""
    check_degree(n)
    parts = enumerate_partitions(n)
    idx = partition_index(n)
    rows = []
    for rho in parts:
        acc: dict[Partition, Fraction] = {(): Fraction(1)}
        for r in rho:
            acc = _m_times_p(acc, r)
        row = [Fraction(0)] * len(parts)
        for mu, c in acc.items():
            row[idx[mu]] = c
        rows.append(tuple(row))
    return tuple(rows)


def _invert(matrix: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    n = len(matrix)
    a = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


@lru_cache(maxsize=None)
def m_in_p(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows: m_mu expanded in power sums (inverse of p_in_m)."""
    return _invert(p_in_m(n))


@lru_cache(maxsize=None)
def s_in_p(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows: s_lam in power sums, chi^lam_rho / z_rho."""
    z = [z_coefficient(rho) for rho in enumerate_partitions(n)]
    return tuple(tuple(Fraction(c, zr) for c, zr in zip(row, z)) for row in character_table(n))


def _mat_mul(a, b):
    size = len(a)
    cols = range(len(b[0]))
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(size) if a[i][k]), Fraction(0)) for j in cols)
        for i in range(size)
    )


def b_coefficient(lam: Partition, t: Rational) -> Fraction:
    """b_lam(t) = prod over part multiplicities m of (1-t)(1-t^2)...(1-t^m)."""
    t = Fraction(t)
    out = Fraction(1)
    mult: dict[int, int] = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    for m in mult.values():
        for k in range(1, m + 1):
            out *= 1 - t**k
    return out


@lru_cache(maxsize=None)
def hl_p_in_p(n: int, t: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """Rows: P_lam in power sums at degree n, rational t != 1.

    Solves s = K(t) P by back substitution on the rows of ``s_in_p``; K(t)
    is unit upper triangular in the reverse-lex indexing, which is checked
    (``ArithmeticError``).
    """
    check_degree(n)
    t = Fraction(t)
    if t == 1:
        raise ValueError("t = 1 not allowed (Q normalization degenerates)")
    parts = enumerate_partitions(n)
    K = kostka_foulkes(n, t)
    bad = _first_off_unit_upper(K)
    if bad is not None:
        i, j = bad
        raise ArithmeticError(
            f"Kostka-Foulkes matrix at n={n}, t={t} is not unit upper triangular: "
            f"entry ({parts[i]}, {parts[j]}) is {K[i][j]}"
        )
    S = s_in_p(n)
    P: list = [None] * len(parts)
    for i in range(len(parts) - 1, -1, -1):
        row = list(S[i])
        for j in range(i + 1, len(parts)):
            c = K[i][j]
            if c:
                row = [x - c * y for x, y in zip(row, P[j])]
        P[i] = tuple(row)
    return tuple(P)


@lru_cache(maxsize=None)
def hl_p_in_m(n: int, t: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """Rows: P_lam in monomials at degree n, rational t != 1: ``hl_p_in_p``
    times ``p_in_m``."""
    return _mat_mul(hl_p_in_p(n, t), p_in_m(n))


@lru_cache(maxsize=None)
def hl_q_in_p(n: int, t: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """Rows: Q_lam = b_lam(t) P_lam in power sums, disk-cached like the
    Kostka-Foulkes matrix."""
    t = Fraction(t)
    cached = _cache_load("hl-q-in-p", n, t)
    if cached is not None:
        return cached
    b = [b_coefficient(lam, t) for lam in enumerate_partitions(n)]
    rows = tuple(tuple(bi * x for x in row) for bi, row in zip(b, hl_p_in_p(n, t)))
    _cache_store("hl-q-in-p", n, t, rows)
    return rows


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def power_values(spec: EvalPoint, t: Rational, n: int) -> tuple[Fraction, ...]:
    """(p_1, ..., p_n) at the evaluation point."""
    return tuple(spec.power_sum(m, t) for m in range(1, n + 1))


def evaluate_rows(
    rows: Sequence[Sequence[Fraction]], spec: EvalPoint, t: Rational, n: int
) -> tuple[Fraction, ...]:
    """Each row, the power-sum coefficients (reverse-lex order) of a degree-n
    symmetric function, evaluated at the point; each p_rho(point) is
    computed once per call."""
    pv = power_values(spec, t, n)
    products = []
    for rho in enumerate_partitions(n):
        prod = Fraction(1)
        for part in rho:
            prod *= pv[part - 1]
        products.append(prod)
    return tuple(
        sum((c * prod for c, prod in zip(row, products) if c), Fraction(0)) for row in rows
    )


def schur_values(spec: EvalPoint, t: Rational, n: int) -> tuple[Fraction, ...]:
    """s_lam at the point, for all lam of degree n in reverse-lex order."""
    if n == 0:
        return (Fraction(1),)
    return evaluate_rows(s_in_p(n), spec, t, n)


@lru_cache(maxsize=None)
def _schur_values_cached(spec: EvalPoint, t: Fraction, n: int) -> tuple[Fraction, ...]:
    """``schur_values`` once per (point, t, degree), for ``r_function``."""
    return schur_values(spec, t, n)


def monomial_values(spec: EvalPoint, t: Rational, n: int) -> tuple[Fraction, ...]:
    """m_nu at the point, for all nu of degree n in reverse-lex order."""
    if n == 0:
        return (Fraction(1),)
    return evaluate_rows(m_in_p(n), spec, t, n)


def r_function(rho: Partition, spec: EvalPoint, t: Rational) -> Fraction:
    """t^(-n(rho)) * sum over lam of K_{lam,rho}(t) s_lam(spec).

    This is the unipotent-class character value of the point; it equals 1
    for every rho when the point is the single alpha atom 1.
    """
    rho = validate_partition(rho)
    n = sum(rho)
    check_degree(n)
    t = Fraction(t)
    if n == 0:
        return Fraction(1)
    parts = enumerate_partitions(n)
    j = partition_index(n)[rho]
    K = kostka_foulkes(n, t)
    svals = _schur_values_cached(spec, t, n)
    total = Fraction(0)
    for i in range(len(parts)):
        if K[i][j]:
            total += K[i][j] * svals[i]
    return total / t ** n_stat(rho)
