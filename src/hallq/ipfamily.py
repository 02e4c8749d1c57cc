"""Towers of finite groups with parabolic-style projections.

A level of such a tower is a pair P <= G together with an epimorphism
pi: P -> G0 onto the previous group; the kernel N = pi^(-1)(identity)
controls both the averaged group-algebra embedding

    i(g) = (1/|N|) * sum over h in N of lift(g) h

and the coherence condition for central measures.  Three concrete families
are built at enumerable sizes: general linear groups with block projections,
their affine variant, and wreath products of symmetric groups with a finite
coefficient group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from typing import Callable

from . import gflinalg
from .gflinalg import MatGF, count_fixed_flags, mat_inv, mat_mul, rank


class FiniteGroupTable:
    """A finite group as an indexed element list with verified axioms.

    Multiplication and inversion are supplied as callables on elements;
    closure is checked exhaustively for |G| <= 600 and on a fixed random
    sample beyond, associativity on a fixed random sample, inverses and
    identity on every element.
    """

    def __init__(self, elements, mul: Callable, inv: Callable, identity, name: str = ""):
        self.elements = list(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements")
        self._mul = mul
        self._inv = inv
        self.identity_index = self.index[identity]
        self.name = name
        self.inverse = [self.index[inv(g)] for g in self.elements]
        self._mul_cache: dict[tuple[int, int], int] = {}
        self._verify()

    def __len__(self):
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        key = (i, j)
        out = self._mul_cache.get(key)
        if out is None:
            out = self.index[self._mul(self.elements[i], self.elements[j])]
            self._mul_cache[key] = out
        return out

    def _verify(self):
        n = len(self.elements)
        e = self.identity_index
        rng = random.Random(1729)
        if n <= 600:
            pairs = [(i, j) for i in range(n) for j in range(n)]
        else:
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
        for i, j in pairs:
            self.mul(i, j)  # raises KeyError if not closed
        label = self.name or "group"
        for _ in range(min(300, n * n)):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if self.mul(self.mul(i, j), k) != self.mul(i, self.mul(j, k)):
                raise ValueError(f"{label}: multiplication is not associative at elements ({i}, {j}, {k})")
        for i in range(n):
            if self.mul(i, e) != i or self.mul(e, i) != i:
                raise ValueError(f"{label}: element {i} is not fixed by the identity {e}")
            if self.mul(i, self.inverse[i]) != e:
                raise ValueError(f"{label}: element {i} times its inverse {self.inverse[i]} is not {e}")


# The largest tables a level builds.  Each check runs over pairs of elements
# and caches their products: S_5 wr Z/2 (3840 elements) takes 9 s, and
# S_2 wr Z/40 (3200 elements) takes 88 s and 1.2 GiB.
GROUP_BUDGET = 1000
# GL_3(F_3), from 3^9 candidate matrices, takes 19 s and 130 MiB.
MATRIX_BUDGET = 20_000


def cyclic_group(m: int) -> FiniteGroupTable:
    if m < 1:
        raise ValueError(f"cyclic group order must be at least 1, got {m}")
    if m > GROUP_BUDGET:
        raise ValueError(f"Z/{m} has {m} elements, over the budget of {GROUP_BUDGET}")
    return FiniteGroupTable(
        range(m),
        mul=lambda a, b: (a + b) % m,
        inv=lambda a: (-a) % m,
        identity=0,
        name=f"Z/{m}",
    )


@dataclass
class IPLevel:
    """One tower level: the bigger group, the parabolic-style subgroup, the
    projection onto the smaller group, its kernel, and a chosen section."""

    G: FiniteGroupTable
    G_prev: FiniteGroupTable
    P: tuple[int, ...]
    pi: dict[int, int]
    N: tuple[int, ...] = ()
    section: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        e_prev = self.G_prev.identity_index
        self.N = tuple(p for p in self.P if self.pi[p] == e_prev)
        self.section = {}
        for p in self.P:
            self.section.setdefault(self.pi[p], p)
        if len(self.section) != len(self.G_prev):
            raise ValueError("projection is not surjective")
        if len(self.P) != len(self.G_prev) * len(self.N):
            raise ValueError("|P| != |G_prev| * |N|")
        # homomorphism spot check on the subgroup
        rng = random.Random(5)
        pl = list(self.P)
        for _ in range(min(200, len(pl) ** 2)):
            a, b = rng.choice(pl), rng.choice(pl)
            ab = self.G.mul(a, b)
            if ab not in self.pi:
                raise ValueError(f"P is not closed: {a} * {b} = {ab} lies outside P")
            if self.pi[ab] != self.G_prev.mul(self.pi[a], self.pi[b]):
                raise ValueError(f"the projection is not multiplicative at ({a}, {b})")


# ---------------------------------------------------------------------------
# concrete towers
# ---------------------------------------------------------------------------


def _all_invertible(n: int, q: int) -> list[MatGF]:
    gflinalg.field(q)  # ValueError unless F_q is supported
    # q >= 2, so a huge n is over the budget before q^(n^2) is built
    if n * n >= MATRIX_BUDGET.bit_length() or q ** (n * n) > MATRIX_BUDGET:
        raise ValueError(f"the {q}^{n * n} matrices of size {n} over F_{q} are over the budget of {MATRIX_BUDGET}")
    out = []
    for entries in product(range(q), repeat=n * n):
        rows = tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))
        m = MatGF(rows, q)
        if rank(m) == n:
            out.append(m)
    return out


def gl_group(n: int, q: int) -> FiniteGroupTable:
    return FiniteGroupTable(
        _all_invertible(n, q),
        mul=mat_mul,
        inv=mat_inv,
        identity=gflinalg.identity(n, q),
        name=f"GL_{n}(F_{q})",
    )


def _gl_level(m: int, q: int, affine: bool) -> IPLevel:
    if m < 0:
        raise ValueError(f"tower level m must be >= 0, got {m}")
    G = gl_group(m + 1, q)
    G_prev = gl_group(m, q)
    P = []
    pi = {}
    for idx, g in enumerate(G.elements):
        if any(g.rows[m][j] != 0 for j in range(m)):
            continue
        if affine and g.rows[m][m] != 1:
            continue
        P.append(idx)
        top_left = tuple(row[:m] for row in g.rows[:m])
        pi[idx] = G_prev.index[MatGF(top_left, q)]
    return IPLevel(G=G, G_prev=G_prev, P=tuple(P), pi=pi)


def build_gl_ip_level(m: int, q: int) -> IPLevel:
    """Block matrices [[A, b], [0, a]] projecting onto A."""
    return _gl_level(m, q, affine=False)


def build_affine_ip_level(m: int, q: int) -> IPLevel:
    """The affine variant: bottom-right corner pinned to 1."""
    return _gl_level(m, q, affine=True)


def wreath_group(m: int, coeff: FiniteGroupTable) -> FiniteGroupTable:
    """Permutation matrices with entries in the coefficient group.

    Elements are (perm, values); the product follows matrix composition:
    (s, u)(t, v) = (t o s, (u_i v_{s(i)})_i).
    """
    # m! >= m, so a huge m is over the budget before m! is built
    if m > GROUP_BUDGET or factorial(m) * len(coeff) ** m > GROUP_BUDGET:
        raise ValueError(f"S_{m} wr {coeff.name} has {m}! * {len(coeff)}^{m} elements, "
                         f"over the budget of {GROUP_BUDGET}")
    elems = [
        (perm, vals)
        for perm in permutations(range(m))
        for vals in product(range(len(coeff)), repeat=m)
    ]

    def mul(a, b):
        s, u = a
        t, v = b
        return (
            tuple(t[s[i]] for i in range(m)),
            tuple(coeff.mul(u[i], v[s[i]]) for i in range(m)),
        )

    def inv(a):
        s, u = a
        s_inv = tuple(s.index(i) for i in range(m))
        return (s_inv, tuple(coeff.inverse[u[s_inv[i]]] for i in range(m)))

    identity = (tuple(range(m)), tuple(coeff.identity_index for _ in range(m)))
    return FiniteGroupTable(elems, mul=mul, inv=inv, identity=identity, name=f"S_{m} wr {coeff.name}")


def build_wreath_ip_level(m: int, coeff: FiniteGroupTable) -> IPLevel:
    """Last row and column vanish except a coefficient in the corner."""
    if m < 0:
        raise ValueError(f"tower level m must be >= 0, got {m}")
    G = wreath_group(m + 1, coeff)
    G_prev = wreath_group(m, coeff)
    P = []
    pi = {}
    for idx, (perm, vals) in enumerate(G.elements):
        if perm[m] != m:
            continue
        P.append(idx)
        pi[idx] = G_prev.index[(perm[:m], vals[:m])]
    return IPLevel(G=G, G_prev=G_prev, P=tuple(P), pi=pi)


# ---------------------------------------------------------------------------
# group algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupAlgElem:
    """Finitely supported rational function on an indexed group."""

    group: FiniteGroupTable
    coeffs: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_map(group: FiniteGroupTable, coeffs: dict[int, Fraction]) -> "GroupAlgElem":
        items = tuple(sorted((i, Fraction(c)) for i, c in coeffs.items() if c))
        return GroupAlgElem(group, items)

    @staticmethod
    def delta(group: FiniteGroupTable, idx: int) -> "GroupAlgElem":
        return GroupAlgElem.from_map(group, {idx: Fraction(1)})


def convolve(a: GroupAlgElem, b: GroupAlgElem) -> GroupAlgElem:
    if a.group is not b.group:
        raise ValueError("group mismatch")
    out: dict[int, Fraction] = {}
    for i, ca in a.coeffs:
        for j, cb in b.coeffs:
            k = a.group.mul(i, j)
            out[k] = out.get(k, Fraction(0)) + ca * cb
    return GroupAlgElem.from_map(a.group, out)


def involution(a: GroupAlgElem) -> GroupAlgElem:
    out = {a.group.inverse[i]: c for i, c in a.coeffs}
    return GroupAlgElem.from_map(a.group, out)


def embed_i(a: GroupAlgElem, level: IPLevel, section: dict[int, int] | None = None) -> GroupAlgElem:
    """The kernel-averaged embedding into the next group algebra.

    The result is independent of the chosen section, which tests assert by
    passing alternatives.
    """
    if a.group is not level.G_prev:
        raise ValueError("element must live on the previous level")
    section = section or level.section
    scale = Fraction(1, len(level.N))
    out: dict[int, Fraction] = {}
    for g_idx, c in a.coeffs:
        p = section[g_idx]
        for h in level.N:
            k = level.G.mul(p, h)
            out[k] = out.get(k, Fraction(0)) + c * scale
    return GroupAlgElem.from_map(level.G, out)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def embed_multiplicativity_check(level: IPLevel) -> bool:
    """i(g) * i(g') == i(g g') for every pair, exhaustively."""
    G0 = level.G_prev
    images = [embed_i(GroupAlgElem.delta(G0, i), level) for i in range(len(G0))]
    for i in range(len(G0)):
        for j in range(len(G0)):
            lhs = convolve(images[i], images[j])
            if lhs != images[G0.mul(i, j)]:
                return False
    return True


def coset_representatives(level: IPLevel) -> list[int]:
    G, P = level.G, set(level.P)
    seen = [False] * len(G)
    reps = []
    for idx in range(len(G)):
        if seen[idx]:
            continue
        reps.append(idx)
        for p in P:
            seen[G.mul(idx, p)] = True
    return reps


def induced_character_value(level: IPLevel, chi_prev: Callable[[int], Fraction],
                            reps: list[int], g: int) -> Fraction:
    """Value at g of the character induced from P, where the character on P
    is chi_prev composed with the projection."""
    G = level.G
    total = Fraction(0)
    for x in reps:
        conj = G.mul(G.mul(G.inverse[x], g), x)
        if conj in level.pi:
            total += chi_prev(level.pi[conj])
    return total


def flag_induction_check(m: int, q: int) -> bool:
    """Induction of the complete-flag character through the block tower
    reproduces the next complete-flag character, on every conjugacy class."""
    level = build_gl_ip_level(m, q)
    reps = coset_representatives(level)
    flag_prev: dict[int, Fraction] = {}

    def chi_prev(i: int) -> Fraction:
        if i not in flag_prev:
            g = level.G_prev.elements[i]
            flag_prev[i] = Fraction(count_fixed_flags(g, tuple([1] * m))) if m else Fraction(1)
        return flag_prev[i]

    # one representative per conjugacy class, by the class-type invariant
    seen_types = {}
    for idx, g in enumerate(level.G.elements):
        key = gflinalg.class_type_key(gflinalg.conj_class_type(g))
        if key not in seen_types:
            seen_types[key] = idx
    for idx in seen_types.values():
        induced = induced_character_value(level, chi_prev, reps, idx)
        direct = Fraction(count_fixed_flags(level.G.elements[idx], tuple([1] * (m + 1))))
        if induced != direct:
            return False
    # sanity: the induced values form a class function on sampled pairs
    rng = random.Random(23)
    for _ in range(10):
        g = rng.randrange(len(level.G))
        h = rng.randrange(len(level.G))
        conj = level.G.mul(level.G.mul(level.G.inverse[h], g), h)
        if induced_character_value(level, chi_prev, reps, conj) != induced_character_value(
            level, chi_prev, reps, g
        ):
            return False
    return True


def diagonal_indices(group: FiniteGroupTable, m: int) -> list[int]:
    """Indices of the coordinate subgroup (identity permutation) in a
    wreath-product table."""
    ident = tuple(range(m))
    return [i for i, (perm, _) in enumerate(group.elements) if perm == ident]


def de_finetti_central_check(m: int, coeff: FiniteGroupTable, m0: dict[int, Fraction]) -> bool:
    """Is the product measure with one-coordinate law m0 central, i.e.
    constant on conjugacy orbits of the diagonal subgroup?"""
    weights = {i: Fraction(m0.get(i, 0)) for i in range(len(coeff))}
    if sum(weights.values()) != 1:
        raise ValueError("m0 must be a probability distribution")
    G = wreath_group(m, coeff)

    def measure(idx: int) -> Fraction:
        _, vals = G.elements[idx]
        out = Fraction(1)
        for v in vals:
            out *= weights[v]
        return out

    return measure_central_check(G, diagonal_indices(G, m), measure)


def measure_central_check(G: FiniteGroupTable, subgroup: list[int], measure: Callable[[int], Fraction]) -> bool:
    """Generic centrality check: the measure is constant on G-conjugacy
    orbits within the given subgroup."""
    sub = set(subgroup)
    for d in subgroup:
        base = measure(d)
        for t in range(len(G)):
            conj = G.mul(G.mul(G.inverse[t], d), t)
            if conj in sub and measure(conj) != base:
                return False
    return True
