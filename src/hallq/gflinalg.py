"""Exact linear algebra over small finite fields.

Field elements are ints 0..q-1; for prime q this is arithmetic mod p, for
prime powers the int encodes a polynomial over F_p (base-p digits, low degree
first) reduced modulo a fixed irreducible polynomial embedded below, so that
matrix-level results are reproducible across machines; ``poly_mul`` and
``poly_divmod`` over F_p build the multiplication table.

Matrices are immutable tuples of row tuples wrapped in ``MatGF``.  Ranks,
Jordan types, primary partitions and the sampler's explicit-matrix engine
share one span kernel for every q: packed vectors (an int bitmask at q = 2,
an entry tuple without trailing zeros otherwise), ``combine`` for x·v from
the packed columns of x, the incremental echelon basis ``Span``, and
``image_filtration`` for the images of the powers of x.  A primary
partition of a class type reads the images of the powers of f(g), whose
packed columns come from ``combine`` alone.  The brute-force
oracles (``extension_counts``, ``count_unitriangular_by_type``) classify the
packed columns of x = u - I with ``nilpotent_type``: each column b of an
extension is taken in packed form and each matrix of the census is a tuple
of packed columns, so no ``MatGF`` is built per column or per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from math import isqrt

from .partitions import Partition, added_column, conjugate, covers_up, validate_partition

# fixed irreducible polynomials, coefficients low degree first (Conway choices)
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


PRIME_POWER_BOUND = 2**32  # trial division up to sqrt(q) takes at most 2^16 steps


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e and p prime; ValueError when q is not a prime
    power or not below PRIME_POWER_BOUND.  Trial division runs up to sqrt(q)."""
    if not 2 <= q < PRIME_POWER_BOUND:
        raise ValueError("q must be an integer with 2 <= q < 2^32")
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


class FieldCtx:
    """Arithmetic context for F_q, q = p^e <= 256."""

    def __init__(self, q: int):
        if not 2 <= q <= 256:
            raise ValueError("q must be between 2 and 256")
        self.q = q
        self.p, self.e = prime_power(q)
        elems = range(q)
        if self.e == 1:
            self._add_table = [[(a + b) % q for b in elems] for a in elems]
            self._mul_table = [[(a * b) % q for b in elems] for a in elems]
        else:
            key = (self.p, self.e)
            if key not in _IRREDUCIBLE:
                raise ValueError(f"no irreducible polynomial embedded for F_{q}")
            self.modulus = _IRREDUCIBLE[key]
            digits = [self._digits(a) for a in elems]
            self._add_table = [
                [self._undigits([(x + y) % self.p for x, y in zip(da, db)]) for db in digits] for da in digits
            ]
            prime = field(self.p)
            polys = [poly_trim(da) for da in digits]
            self._mul_table = [
                [self._undigits(poly_divmod(poly_mul(da, db, prime), self.modulus, prime)[1]) for db in polys]
                for da in polys
            ]
        self._neg_table = [row.index(0) for row in self._add_table]
        self._inv_table = self._build_inv_table()
        self._spot_check()

    # -- encoding helpers (e > 1) --

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds) -> int:
        out = 0
        for d in reversed(ds):
            out = out * self.p + d
        return out

    def _build_inv_table(self):
        inv = [0] * self.q
        for a in range(1, self.q):
            for b in range(1, self.q):
                if self.mul(a, b) == 1:
                    inv[a] = b
                    break
            else:
                raise ArithmeticError(f"no inverse for {a} in F_{self.q}")
        return inv

    def _spot_check(self):
        import random

        rng = random.Random(11)
        elems = range(self.q)
        sample = [(rng.randrange(self.q), rng.randrange(self.q), rng.randrange(self.q)) for _ in range(64)]
        for a, b, c in sample:
            if self.mul(a, self.mul(b, c)) != self.mul(self.mul(a, b), c):
                raise ArithmeticError(f"F_{self.q} multiplication is not associative at ({a}, {b}, {c})")
            if self.mul(a, self.add(b, c)) != self.add(self.mul(a, b), self.mul(a, c)):
                raise ArithmeticError(f"F_{self.q} multiplication does not distribute at ({a}, {b}, {c})")
        for a in elems:
            if a and self.mul(a, self.inv(a)) != 1:
                raise ArithmeticError(f"F_{self.q}: {a} * {self.inv(a)} != 1")

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        return self._add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add_table[a][self._neg_table[b]]

    def neg(self, a: int) -> int:
        return self._neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._inv_table[a]

    def __repr__(self):
        return f"FieldCtx(q={self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> FieldCtx:
    return FieldCtx(q)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatGF:
    rows: tuple[tuple[int, ...], ...]
    q: int

    def __post_init__(self):
        ctx = field(self.q)
        for row in self.rows:
            if len(row) != len(self.rows[0]):
                raise ValueError("ragged matrix")
            if any(not 0 <= x < ctx.q for x in row):
                raise ValueError("entry out of field range")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def ctx(self) -> FieldCtx:
        return field(self.q)

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def to_text(self) -> str:
        if self.q > 9:
            raise ValueError("text form only defined for q <= 9")
        return ";".join("".join(str(x) for x in row) for row in self.rows)


def mat_from_text(text: str, q: int) -> MatGF:
    rows = tuple(tuple(int(ch) for ch in chunk) for chunk in text.strip().split(";"))
    return MatGF(rows, q)


def mat_from_rows(rows, q: int) -> MatGF:
    return MatGF(tuple(tuple(r) for r in rows), q)


def identity(n: int, q: int) -> MatGF:
    return MatGF(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), q)


def mat_mul(a: MatGF, b: MatGF) -> MatGF:
    if a.q != b.q or a.n_cols != b.n_rows:
        raise ValueError("incompatible matrices")
    ctx = a.ctx
    bt = list(zip(*b.rows))
    out = []
    for row in a.rows:
        new = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = ctx.add(acc, ctx.mul(x, y))
            new.append(acc)
        out.append(tuple(new))
    return MatGF(tuple(out), a.q)


def mat_vec(a: MatGF, v: tuple[int, ...]) -> tuple[int, ...]:
    ctx = a.ctx
    out = []
    for row in a.rows:
        acc = 0
        for x, y in zip(row, v):
            if x and y:
                acc = ctx.add(acc, ctx.mul(x, y))
        out.append(acc)
    return tuple(out)


def block_diag(blocks: list[MatGF], q: int) -> MatGF:
    n = sum(b.n_rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.n_rows):
            for j in range(b.n_cols):
                rows[off + i][off + j] = b.rows[i][j]
        off += b.n_rows
    return mat_from_rows(rows, q)


def mat_inv(m: MatGF) -> MatGF:
    """Inverse by Gauss-Jordan elimination; raises on singular input."""
    ctx = m.ctx
    n = m.n_rows
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = ctx.inv(a[col][col])
        a[col] = [ctx.mul(inv, x) for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(a[r], a[col])]
    return MatGF(tuple(tuple(row[n:]) for row in a), m.q)


def rank(m: MatGF) -> int:
    """Rank over F_q: the dimension of the span of the rows."""
    return Span(m.q, _pack_rows(m)).dim


# ---------------------------------------------------------------------------
# the span kernel: packed vectors, x·v, echelon bases, images of powers
# ---------------------------------------------------------------------------
#
# A packed vector over F_2 is an int whose bit i is entry i; over any other
# field it is the tuple of entries with trailing zeros dropped.  Either way
# the zero vector is falsy and a nonzero vector's "length" (bit_length or
# len) is one more than the index of its last nonzero entry.

_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def poly_trim(entries) -> tuple[int, ...]:
    """Drop trailing zeros: the canonical form of a packed vector over
    q > 2 and of a polynomial."""
    entries = tuple(entries)
    end = len(entries)
    while end and not entries[end - 1]:
        end -= 1
    return entries[:end]


def pack(entries, q: int):
    """Packed form of the vector with the given entries (ints 0..q-1)."""
    if q == 2:
        return int(bytes(entries[::-1]).translate(_BIT_CHARS) or b"0", 2)
    return poly_trim(entries)


def _pack_rows(m: MatGF, shift: int = 0) -> list:
    """Packed rows of the square matrix m - shift·I (any m when shift is 0)."""
    if m.q == 2:
        return [pack(r, 2) ^ (shift << i) for i, r in enumerate(m.rows)]
    rows = m.rows
    if shift:
        sub = m.ctx.sub
        rows = [r[:i] + (sub(r[i], shift),) + r[i + 1 :] for i, r in enumerate(rows)]
    return [poly_trim(r) for r in rows]


def combine(cols, v, q: int):
    """x·v = sum of v_j·cols[j] for the matrix x with packed columns cols;
    at q = 2 the XOR of the columns that v selects."""
    if q == 2:
        out = 0
        while v:
            low = v & -v
            out ^= cols[low.bit_length() - 1]
            v ^= low
        return out
    ctx = field(q)
    add, mul = ctx._add_table, ctx._mul_table
    acc: list[int] = []
    for c, col in zip(v, cols):
        if c and col:
            if len(col) > len(acc):
                acc.extend([0] * (len(col) - len(acc)))
            scaled = mul[c]
            acc[: len(col)] = [add[x][scaled[y]] for x, y in zip(acc, col)]
    return poly_trim(acc)


class Span:
    """Incremental echelon basis of a subspace of F_q^n, on packed vectors,
    spanned at first by the given vectors.

    Each basis vector is keyed by its length, and over q > 2 its last
    nonzero entry is 1, so a reduction clears the last entry of the vector
    at each step.
    """

    __slots__ = ("q", "ctx", "_basis")

    def __init__(self, q: int, vectors=()):
        self.q = q
        self._basis: dict = {}
        if q != 2:
            self.ctx = field(q)
            for v in vectors:
                self.insert(v)
            return
        basis = self._basis  # insert, inlined: this loop carries the q = 2 brute force
        for v in vectors:
            while v:
                b = basis.get(v.bit_length())
                if b is None:
                    basis[v.bit_length()] = v
                    break
                v ^= b

    @property
    def dim(self) -> int:
        return len(self._basis)

    def vectors(self) -> list:
        return list(self._basis.values())

    def _reduce(self, v):
        """v minus a combination of the basis; zero exactly when v is in
        the span."""
        basis = self._basis
        if self.q == 2:
            while v:
                b = basis.get(v.bit_length())
                if b is None:
                    return v
                v ^= b
            return v
        ctx = self.ctx
        add, mul, neg = ctx._add_table, ctx._mul_table, ctx._neg_table
        while v:
            b = basis.get(len(v))
            if b is None:
                return v
            scaled = mul[neg[v[-1]]]
            v = poly_trim([add[x][scaled[y]] for x, y in zip(v, b)])
        return v

    def contains(self, v) -> bool:
        return not self._reduce(v)

    def insert(self, v) -> bool:
        """Add v to the span; False, with nothing added, when v is already
        in it."""
        v = self._reduce(v)
        if not v:
            return False
        if self.q == 2:
            self._basis[v.bit_length()] = v
        else:
            scaled = self.ctx._mul_table[self.ctx.inv(v[-1])]
            self._basis[len(v)] = tuple([scaled[x] for x in v])
        return True


def image_filtration(cols, q: int) -> list[Span]:
    """Bases of Im x, Im x^2, ... for the square matrix x with packed
    columns cols, as long as the dimension falls.

    Im x^(k+1) = x·(basis of Im x^k).  The list stops before the first
    power whose image is as large as the one before; it ends with the zero
    space exactly when x is nilpotent (or empty).
    """
    out: list[Span] = []
    vectors, dim = cols, len(cols)
    while True:
        span = Span(q, vectors)
        basis = span._basis
        if len(basis) == dim:
            return out
        out.append(span)
        dim = len(basis)
        vectors = [combine(cols, b, q) for b in basis.values()]


# ---------------------------------------------------------------------------
# polynomials over F_q (tuples, low degree first, no trailing zeros)
# ---------------------------------------------------------------------------


def poly_mul(a, b, ctx: FieldCtx) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    return poly_trim(out)


def poly_divmod(a, b, ctx: FieldCtx):
    a = list(poly_trim(a))
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError
    inv_lead = ctx.inv(b[-1])
    quot = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and poly_trim(a):
        shift = len(a) - len(b)
        f = ctx.mul(a[-1], inv_lead)
        quot[shift] = f
        for i, y in enumerate(b):
            a[shift + i] = ctx.sub(a[shift + i], ctx.mul(f, y))
        a = list(poly_trim(a))
    return poly_trim(quot), poly_trim(a)


def poly_pow(a, k: int, ctx: FieldCtx) -> tuple[int, ...]:
    out = (1,)
    for _ in range(k):
        out = poly_mul(out, a, ctx)
    return out


def poly_from_text(text: str) -> tuple[int, ...]:
    """Coefficient string, low degree first: "111" is 1 + t + t^2."""
    return poly_trim(tuple(int(ch) for ch in text.strip()))


def poly_to_text(c) -> str:
    return "".join(str(x) for x in c) if c else "0"


# The sieve of degree d tests q^d monic candidates; 2^14 of them take 1-2 s
# at q = 2, 3, 4, 5 and 7.
SIEVE_BUDGET = 2**14


@lru_cache(maxsize=None)
def irreducible_polys(d: int, q: int) -> tuple[tuple[int, ...], ...]:
    """All monic irreducible polynomials of degree d over F_q, by sieving the
    monic candidates with ``is_irreducible``; ValueError past SIEVE_BUDGET
    candidates.  Degree 1 includes t; callers that need the class-label set
    exclude it themselves."""
    field(q)  # ValueError unless F_q is supported
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d >= SIEVE_BUDGET.bit_length() or q**d > SIEVE_BUDGET:  # q >= 2: a huge d never builds q**d
        raise ValueError(f"the {q}^{d} monic polynomials of degree {d} over F_{q} are over the budget "
                         f"of {SIEVE_BUDGET} sieve candidates")
    return tuple(f for f in (tail + (1,) for tail in product(range(q), repeat=d)) if is_irreducible(f, q))


def is_irreducible(f, q: int) -> bool:
    """Whether f, of degree >= 1 over F_q, has no monic irreducible factor of
    degree at most deg f / 2, by trial division against the sieve."""
    ctx = field(q)
    return not any(
        not poly_divmod(f, g, ctx)[1] for e in range(1, (len(f) - 1) // 2 + 1) for g in irreducible_polys(e, q)
    )


def validate_class_polynomial(f, q: int) -> tuple[int, ...]:
    """f without trailing zeros; ValueError unless it is a monic irreducible
    polynomial over F_q other than t, as a class type needs."""
    f = poly_trim(f)
    if len(f) < 2:
        raise ValueError("constant polynomial in class type")
    if f == (0, 1):
        raise ValueError("the polynomial t may not appear")
    field(q)  # ValueError unless F_q is supported
    if not all(0 <= c < q for c in f):
        raise ValueError(f"{f} has a coefficient outside F_{q}")
    if f[-1] != 1:
        raise ValueError(f"{f} is not monic")
    if not is_irreducible(f, q):
        raise ValueError(f"{f} is not irreducible over F_{q}")
    return f


def char_poly(m: MatGF) -> tuple[int, ...]:
    """Characteristic polynomial det(tI - m), monic, low degree first.

    Hessenberg reduction followed by the standard minor recurrence; exact
    field arithmetic throughout.
    """
    ctx = m.ctx
    n = m.n_rows
    h = [list(row) for row in m.rows]
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if h[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = ctx.inv(h[j + 1][j])
        for i in range(j + 2, n):
            if h[i][j]:
                f = ctx.mul(h[i][j], inv)
                for k in range(n):
                    h[i][k] = ctx.sub(h[i][k], ctx.mul(f, h[j + 1][k]))
                for k in range(n):
                    h[k][j + 1] = ctx.add(h[k][j + 1], ctx.mul(f, h[k][i]))
    # p_0 = 1; p_m = (x - h_mm) p_{m-1} - sum_i h_im (prod subdiag) p_{i-1}
    polys: list[tuple[int, ...]] = [(1,)]
    for k in range(1, n + 1):
        hkk = h[k - 1][k - 1]
        prev = polys[k - 1]
        # (x - hkk) * prev
        cur = [0] * (len(prev) + 1)
        for i, c in enumerate(prev):
            cur[i + 1] = ctx.add(cur[i + 1], c)
            cur[i] = ctx.sub(cur[i], ctx.mul(hkk, c))
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = ctx.mul(prod, h[i][i - 1])
            coeff = ctx.mul(h[i - 1][k - 1], prod)
            if coeff:
                for idx, c in enumerate(polys[i - 1]):
                    cur[idx] = ctx.sub(cur[idx], ctx.mul(coeff, c))
        polys.append(poly_trim(cur))
    return polys[n]


# ---------------------------------------------------------------------------
# Jordan types and conjugacy classes
# ---------------------------------------------------------------------------


class NotUnipotentError(ValueError):
    pass


def nilpotent_type(cols, q: int) -> Partition:
    """Jordan type of the nilpotent matrix x with packed columns cols.

    Read off the ranks of the powers of x, which ``image_filtration`` gives;
    raises ``NotUnipotentError`` when they do not fall to zero.
    """
    ranks = [len(cols)] + [span.dim for span in image_filtration(cols, q)]
    if ranks[-1]:
        raise NotUnipotentError("matrix is not unipotent: u - I is not nilpotent")
    return _type_from_ranks(ranks)


def jordan_type_unipotent(u: MatGF) -> Partition:
    """Jordan type of a unipotent matrix (blocks for eigenvalue 1): the type
    of u - I.  Its rows are packed as the columns of the transpose, which
    has the same type."""
    return nilpotent_type(_pack_rows(u, 1), u.q)


def _type_from_ranks(ranks, d: int = 1) -> Partition:
    """Partition whose k-th column is (rank x^(k-1) - rank x^k) / d."""
    return conjugate(tuple((a - b) // d for a, b in zip(ranks, ranks[1:])))


def conj_class_type(g: MatGF) -> dict[tuple[int, ...], Partition]:
    """Conjugacy-class invariant: irreducible polynomial -> partition.

    The characteristic polynomial is factored by trial division against the
    sieved irreducibles; each partition comes from the nullity jumps of
    f(g)^k, scaled by deg f.
    """
    n = g.n_rows
    ctx = g.ctx
    if rank(g) != n:
        raise ValueError("matrix is singular")
    gcols = _packed_columns(g)
    remaining = char_poly(g)
    out: dict[tuple[int, ...], Partition] = {}
    for d in range(1, n // 2 + 1):
        if len(remaining) - 1 < d:
            break
        for f in irreducible_polys(d, g.q):
            if f == (0, 1):
                continue
            mult = 0
            while True:
                quot, rem = poly_divmod(remaining, f, ctx)
                if rem:
                    break
                remaining = quot
                mult += 1
            if mult:
                out[f] = _primary_partition(gcols, f, g.q)
    if len(remaining) > 1:
        out[remaining] = _primary_partition(gcols, remaining, g.q)
    total = sum((len(f) - 1) * sum(mu) for f, mu in out.items())
    if total != n:
        raise ArithmeticError(f"class type {out} has size {total}, the matrix has size {n}")
    return out


def _primary_partition(gcols, f, q: int) -> Partition:
    """The partition of f in the class type of the matrix g with packed
    columns gcols, from the images of the powers of f(g).  Column j of f(g)
    combines the Krylov vectors e_j, g e_j, ..., g^(deg f) e_j with the
    coefficients of f."""
    n, d = len(gcols), len(f) - 1
    coeffs = pack(f, q)
    fcols = []
    for j in range(n):
        krylov = [pack([int(i == j) for i in range(n)], q)]
        for _ in range(d):
            krylov.append(combine(gcols, krylov[-1], q))
        fcols.append(combine(krylov, coeffs, q))
    return _type_from_ranks([n] + [span.dim for span in image_filtration(fcols, q)], d)


def class_type_key(ct: dict[tuple[int, ...], Partition]) -> tuple:
    return tuple(sorted((f, mu) for f, mu in ct.items()))


# ---------------------------------------------------------------------------
# unipotent extensions
# ---------------------------------------------------------------------------


def _packed_columns(m: MatGF, shift: int = 0) -> list:
    """Packed columns of the square matrix m - shift·I."""
    return _pack_rows(MatGF(tuple(zip(*m.rows)), m.q), shift)


def _packed_vectors(n: int, q: int):
    """Every vector of F_q^n, packed: the ints below 2^n at q = 2."""
    if q == 2:
        return range(1 << n)
    return [poly_trim(v) for v in product(range(q), repeat=n)]


def extend_type(u: MatGF, b: tuple[int, ...]) -> Partition:
    """Jordan type of the one-column unitriangular extension [[u, b], [0, 1]]
    of a square u: the type of [[u - I, b], [0, 0]], whose packed columns
    are those of u - I and then b."""
    n = u.n_rows
    if u.n_cols != n or len(b) != n or any(not 0 <= x < u.q for x in b):
        raise ValueError("extend_type needs a square matrix and one field entry per row")
    return nilpotent_type(_packed_columns(u, 1) + [pack(b, u.q)], u.q)


def canonical_unipotent(rho: Partition, q: int) -> MatGF:
    """Direct sum of upper-triangular Jordan blocks with eigenvalue 1."""
    rho = validate_partition(rho)
    blocks = []
    for part in rho:
        rows = [
            tuple(1 if j == i or j == i + 1 else 0 for j in range(part))
            for i in range(part)
        ]
        blocks.append(MatGF(tuple(rows), q))
    if not blocks:
        return MatGF((), q)
    return block_diag(blocks, q)


def extension_counts(rho: Partition, q: int) -> dict[Partition, int]:
    """Brute-force census of extension types over all q^n columns.

    Works on the packed columns of x = u - I for the canonical matrix u of
    type rho; each column b goes through a fresh Jordan computation of the
    whole matrix [[x, b], [0, 0]], so this is the independent oracle for the
    closed-form counts; it has no production caller.
    """
    rho = validate_partition(rho)
    xi = _packed_columns(canonical_unipotent(rho, q), 1)
    counts: dict[Partition, int] = {}
    for b in _packed_vectors(len(xi), q):
        sigma = nilpotent_type(xi + [b], q)
        counts[sigma] = counts.get(sigma, 0) + 1
    return counts


def extension_counts_closed(rho: Partition, q: int) -> dict[Partition, int]:
    """Closed-form extension counts, the count source of measure-mode growth.

    For the one-box extension into column j the count is
    q^(n - rho'_j) - q^(n - rho'_{j-1});  column 1 reads rho'_0 as infinity.

    Proof, at every prime power q (Macdonald, *Symmetric Functions and Hall
    Polynomials*, Ch. II).  Let xi be nilpotent of type rho on F_q^n and
    extend it by the column b to xi' = [[xi, b], [0, 0]].  Then
    xi'^k = [[xi^k, xi^(k-1) b], [0, 0]], so
    rank xi'^k = rank xi^k + [xi^(k-1) b not in Im xi^k].  Now
    xi^(k-1) b = xi^k a exactly when b - xi a lies in ker xi^(k-1), so the
    condition xi^(k-1) b in Im xi^k is b in W_k = Im xi + ker xi^(k-1).
    As Im xi meets ker xi^(k-1) in xi(ker xi^k),
    dim W_k = n - rank xi^(k-1) + rank xi^k = n - rho'_k, and the W_k
    increase with k.  With j the least k such that b is in W_k, the column
    lengths rho'_k + [k-1 < j] - [k < j] of the extension differ from rho'
    in column j alone.  So the box lands in column j exactly when b is in
    W_j but not W_(j-1), with W_0 empty, for q^(n - rho'_j) -
    q^(n - rho'_(j-1)) columns b.
    """
    rho = validate_partition(rho)
    n = sum(rho)
    cols = conjugate(rho)

    def col_len(j: int) -> int:
        return cols[j - 1] if 1 <= j <= len(cols) else 0

    out: dict[Partition, int] = {}
    for sigma in covers_up(rho):
        j = added_column(rho, sigma)
        hi = q ** (n - col_len(j))
        lo = 0 if j == 1 else q ** (n - col_len(j - 1))
        c = hi - lo
        if c:
            out[sigma] = c
    return out


def validate_closed_extension_counts(max_n: int, q: int) -> dict:
    """Exhaustive agreement check of the closed form against brute force."""
    from .partitions import enumerate_partitions

    checked = 0
    for n in range(1, max_n + 1):
        for rho in enumerate_partitions(n):
            brute = extension_counts(rho, q)
            closed = extension_counts_closed(rho, q)
            if brute != closed:
                return {"ok": False, "q": q, "rho": rho, "brute": brute, "closed": closed}
            checked += 1
    return {"ok": True, "q": q, "max_n": max_n, "partitions_checked": checked}


# The reach of the brute-force census: the sizes up to which the closed form
# has been checked against every column (tests, scripts/validate_fast_counts.py
# and perfbench/checks.py read it; the sampler does not).
VALIDATED_FAST_COUNTS = {2: 10, 3: 8}


# ---------------------------------------------------------------------------
# flags and subspaces
# ---------------------------------------------------------------------------


# Each subspace scans all q^n vectors for its extensions, so the work grows
# with q^n times the number of subspaces: 2^20 vectors scanned take about 3 s
# (F_3^5: 2664 subspaces of 243 vectors).  A bound on the count alone would
# admit F_251^2, which takes 28 s with 254 subspaces.
SUBSPACE_SCAN_BUDGET = 2**20


@lru_cache(maxsize=None)
def all_subspaces(n: int, q: int) -> tuple[tuple[frozenset, int], ...]:
    """Every subspace of F_q^n as (vector set, dimension), all dimensions;
    ValueError past SUBSPACE_SCAN_BUDGET."""
    ctx = field(q)
    # q >= 2, so a huge n is over the budget before q^n or its q-binomials are built
    if n >= SUBSPACE_SCAN_BUDGET.bit_length() or q**n * sum(_q_binomial_row(n, q)) > SUBSPACE_SCAN_BUDGET:
        raise ValueError(f"F_{q}^{n} has sum_k [{n}, k]_{q} subspaces; scanning {q}^{n} vectors for each "
                         f"is over the budget of {SUBSPACE_SCAN_BUDGET} vectors scanned")
    vectors = list(product(range(q), repeat=n))
    zero = tuple(0 for _ in range(n))
    seen: set[frozenset] = {frozenset([zero])}
    spaces: list[tuple[frozenset, int]] = [(frozenset([zero]), 0)]
    frontier = [frozenset([zero])]
    dim = 0
    while frontier:
        dim += 1
        new_frontier = []
        for space in frontier:
            covered = set(space)  # v in S + <u> for a u already tried gives S + <v> = S + <u>
            for v in vectors:
                if v in covered:
                    continue
                new = set()
                for w in space:
                    for c in range(q):
                        cv = tuple(ctx.add(wi, ctx.mul(c, vi)) for wi, vi in zip(w, v))
                        new.add(cv)
                fs = frozenset(new)
                covered |= fs
                if fs not in seen:
                    seen.add(fs)
                    spaces.append((fs, dim))
                    new_frontier.append(fs)
        frontier = new_frontier
    return tuple(spaces)


def _invariant_lattice(g: MatGF, dims) -> dict[int, list[frozenset]]:
    """The g-invariant subspaces of each dimension in dims, in
    ``all_subspaces`` order, checked against one image map of F_q^n."""
    n, q = g.n_rows, g.q
    spaces = all_subspaces(n, q)  # its budget ValueError comes before any image is taken
    image = {v: mat_vec(g, v) for v in product(range(q), repeat=n)}
    lattice: dict[int, list[frozenset]] = {d: [] for d in dims}
    for space, d in spaces:
        if d in lattice and all(image[v] in space for v in space):
            lattice[d].append(space)
    return lattice


def invariant_subspaces(g: MatGF, dim: int) -> list[frozenset]:
    """All g-invariant subspaces of the given dimension, in ``all_subspaces``
    order, read off the lattice of one image map of g; [] for a dim outside
    0..n.  ValueError for a matrix that is not square."""
    if g.n_cols != g.n_rows:
        raise ValueError(f"invariant subspaces need a square matrix, got {g.n_rows}x{g.n_cols}")
    return _invariant_lattice(g, (dim,))[dim]


def fixed_flag_counts(g: MatGF, mus) -> list[int]:
    """Number of g-invariant flags of each dimension vector in mus, every
    one counted as chains on one invariant-subspace lattice of g."""
    n = g.n_rows
    if g.n_cols != n:
        raise ValueError(f"fixed flags need a square matrix, got {n}x{g.n_cols}")
    levels = []
    for mu in mus:
        if sum(mu) != n:
            raise ValueError("dimension vector must sum to n")
        if any(p <= 0 for p in mu):
            raise ValueError("parts must be positive")
        levels.append(list(accumulate(mu[:-1])))
    needed = {d for dims in levels for d in dims}
    lattice = _invariant_lattice(g, needed) if needed else {}
    counts = []
    for dims in levels:
        # chains by DP along inclusions, from the zero space (the empty set is below every space)
        chains = [(frozenset(), 1)]
        for d in dims:
            chains = [(big, sum(c for small, c in chains if small <= big)) for big in lattice[d]]
        counts.append(sum(c for _, c in chains))
    return counts


def count_fixed_flags(g: MatGF, mu: tuple[int, ...]) -> int:
    """Number of g-invariant flags with dimension vector mu, counted on one
    invariant-subspace lattice of g (none is built for mu = (n,))."""
    return fixed_flag_counts(g, (mu,))[0]


def count_unitriangular_by_type(n: int, q: int) -> dict[Partition, int]:
    """Census of all upper unitriangular n x n matrices u by Jordan type.

    Column j of u - I has its entries in rows 0..j-1 alone, so the packed
    columns run over the product of the packed vectors of F_q^j.  A referee
    for ``measures.unitriangular_type_counts``; it has no production caller.
    """
    counts: dict[Partition, int] = {}
    for cols in product(*(_packed_vectors(j, q) for j in range(n))):
        t = nilpotent_type(cols, q)
        counts[t] = counts.get(t, 0) + 1
    return counts


def submodule_type_count(lam: Partition, mu: Partition, q: int):
    """Number of F_q[x]-submodules of type mu inside the nilpotent module of
    type lam (classical subgroup-counting formula for abelian p-groups).

    The test referee for ``invariant_subspace_counts``: its sum over the
    partitions mu of k is checked against that sweep and against
    ``invariant_subspaces``.
    """
    from fractions import Fraction

    from .partitions import gaussian_binomial

    lc = conjugate(lam)
    mc = conjugate(mu)
    if len(mc) > len(lc) or any(m > l for m, l in zip(mc, lc)):
        return 0
    total = Fraction(1)
    for i in range(len(lc)):
        li = lc[i]
        mi = mc[i] if i < len(mc) else 0
        mi1 = mc[i + 1] if i + 1 < len(mc) else 0
        total *= Fraction(q) ** (mi1 * (li - mi)) * gaussian_binomial(li - mi1, mi - mi1, q)
    if total.denominator != 1:
        raise ArithmeticError(f"submodule count {total} of type {mu} in {lam} at q={q} is not an integer")
    return int(total)


@lru_cache(maxsize=None)
def _q_binomial_row(a: int, q: int) -> tuple[int, ...]:
    """([a choose k]_q for k = 0..a) as ints, by the product rule
    [a choose k] = [a choose k-1] (q^(a-k+1) - 1) / (q^k - 1); each division
    is exact."""
    row = [1]
    for k in range(1, a + 1):
        row.append(row[-1] * (q ** (a - k + 1) - 1) // (q**k - 1))
    return tuple(row)


def _weight_powers(a: int, b: int, top: int) -> tuple[list[int], list[int]]:
    apow, bpow = [1], [1]
    for _ in range(top):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
    return apow, bpow


def _suffix_step(state: list[int], length: int, q: int, apow, bpow) -> list[int]:
    """One column of the homogenised sweep, taken right to left.

    ``state[s]`` is the weight summed over the choices in the later columns
    with mu'_(i+1) = s; the result, indexed by m = mu'_i for 0 <= m <= L,
    is B^m A^(L-m) sum over s <= m of state[s] q^(s(L-m)) [L-s choose m-s]_q,
    the sum read by Horner's rule in q^(L-m).
    """
    rows = [_q_binomial_row(length - s, q) for s in range(len(state))]
    out = []
    for m in range(length + 1):
        y = q ** (length - m)
        acc = 0
        for s in range(min(m, len(state) - 1), -1, -1):
            acc = acc * y + state[s] * rows[s][m - s]
        out.append(acc * bpow[m] * apow[length - m])
    return out


def _prefix_step(functional: list[int], length: int, q: int, apow, bpow) -> list[int]:
    """The same column taken left to right, on a functional of its state
    m = mu'_i: the functional of s = mu'_(i+1) for 0 <= s <= L,
    sum over m >= s of q^(s(L-m)) [L-s choose m-s]_q B^m A^(L-m) functional[m],
    by Horner's rule in q^s."""
    weighted = [functional[m] * bpow[m] * apow[length - m] for m in range(length + 1)]
    out = []
    for s in range(length + 1):
        x = q**s
        row = _q_binomial_row(length - s, q)
        acc = 0
        for m in range(s, length + 1):
            acc = acc * x + row[m - s] * weighted[m]
        out.append(acc)
    return out


def subspace_weight_sum(rho: Partition, q: int, a: int, b: int) -> int:
    """Sum over the invariant subspaces U of a unipotent matrix of type rho
    over F_q of a^(n - dim U) b^(dim U), n = |rho|.

    The number of submodules of type mu is a product over the columns i of
    rho of q^(mu'_(i+1) (rho'_i - mu'_i)) [rho'_i - mu'_(i+1) choose
    mu'_i - mu'_(i+1)]_q (Macdonald, Ch. II), and a^(n - |mu|) b^|mu| is the
    product of b^(mu'_i) a^(rho'_i - mu'_i) over the same columns.  So the
    sum is a transfer-matrix product over the columns, swept from the last
    to the first with state s = mu'_(i+1) and one integer per state
    (``_suffix_step``).
    """
    cols = conjugate(validate_partition(rho))
    apow, bpow = _weight_powers(a, b, cols[0] if cols else 0)
    state = [1]
    for length in reversed(cols):
        state = _suffix_step(state, length, q, apow, bpow)
    return sum(state)


def cover_subspace_weight_sums(rho: Partition, q: int, a: int, b: int) -> dict[Partition, int]:
    """``subspace_weight_sum`` of every cover of rho, from one pass over the
    columns of rho.

    A cover lengthens one column j and keeps the others, so its sum is
    G_j . T'_j . S_(j+1): S_(j+1) is the suffix state of the sweep of rho
    after columns j+1, j+2, ...; T'_j the lengthened column; and G_j the
    prefix functional of columns 1..j-1, which maps the state mu'_j to the
    sum over the choices in those columns.  G_1 is 1 on every state, and
    G_j is kept for the states up to rho'_(j-1), the most the lengthened
    column j may reach.
    """
    rho = validate_partition(rho)
    lengths = conjugate(rho) + (0,)  # a new column lengthens the empty one past the last
    apow, bpow = _weight_powers(a, b, lengths[0] + 1)
    suffix = [[1]]
    for length in reversed(lengths):
        suffix.append(_suffix_step(suffix[-1], length, q, apow, bpow))
    suffix.reverse()  # suffix[j]: the state after the columns j, j+1, ... (0-based)
    grown = {added_column(rho, sigma) - 1: sigma for sigma in covers_up(rho)}
    out = {}
    functional = [1] * (lengths[0] + 2)  # G_1
    for j, length in enumerate(lengths):
        if j in grown:
            state = _suffix_step(suffix[j + 1], length + 1, q, apow, bpow)
            out[grown[j]] = sum(g * w for g, w in zip(functional, state))
        functional = _prefix_step(functional, length, q, apow, bpow)
    return out


def invariant_subspace_counts(rho: Partition, q: int) -> tuple[int, ...]:
    """(c_0, ..., c_n) with c_k the number of invariant k-subspaces of a
    unipotent matrix of type rho over F_q, n = |rho|.

    No production caller: this is the test referee of the integer sweep
    ``subspace_weight_sum``, whose value at (A, B) is the sum of
    c_k A^(n-k) B^k, and ``submodule_type_count`` is in turn its own
    referee.  It runs the same column sweep (state s = mu'_{i+1}, from the
    last column to the first), but each state carries the polynomial in z
    (coefficient list, low degree first) summed over the choices made so
    far.
    """
    rho = validate_partition(rho)
    states = {0: [1]}
    size = 1
    for length in reversed(conjugate(rho)):
        size += length
        nxt = {m: [0] * size for m in range(length + 1)}
        for s, poly in states.items():
            binom = _q_binomial_row(length - s, q)
            for m in range(s, length + 1):
                w = q ** (s * (length - m)) * binom[m - s]
                acc = nxt[m]
                acc[m : m + len(poly)] = [x + w * y for x, y in zip(acc[m : m + len(poly)], poly)]
        states = nxt
    total = [0] * size
    for poly in states.values():
        total = [x + y for x, y in zip(total, poly)]
    return tuple(total)


def companion_matrix(f, q: int) -> MatGF:
    """Companion matrix of a monic polynomial (low-first coefficients)."""
    ctx = field(q)
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        raise ValueError("need a monic polynomial of positive degree")
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = ctx.neg(f[i])
    return mat_from_rows(rows, q)


def primary_element(f, mu: Partition, q: int) -> MatGF:
    """Block matrix of class {f -> mu}, companion blocks of f^(mu_i)."""
    ctx = field(q)
    f = validate_class_polynomial(f, q)
    mu = validate_partition(mu)
    blocks = [companion_matrix(poly_pow(f, m, ctx), q) for m in mu]
    return block_diag(blocks, q)
