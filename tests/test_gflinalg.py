import hashlib
import random
from itertools import permutations, product

import pytest

from hallq.gflinalg import (
    NotUnipotentError,
    all_subspaces,
    block_diag,
    canonical_unipotent,
    class_type_key,
    char_poly,
    combine,
    companion_matrix,
    conj_class_type,
    count_fixed_flags,
    cover_subspace_weight_sums,
    count_unitriangular_by_type,
    extend_type,
    extension_counts,
    extension_counts_closed,
    field,
    fixed_flag_counts,
    identity,
    image_filtration,
    invariant_subspace_counts,
    invariant_subspaces,
    irreducible_polys,
    is_irreducible,
    jordan_type_unipotent,
    mat_from_rows,
    mat_from_text,
    mat_inv,
    mat_mul,
    mat_vec,
    nilpotent_type,
    pack,
    poly_from_text,
    poly_mul,
    poly_to_text,
    prime_power,
    primary_element,
    rank,
    submodule_type_count,
    subspace_weight_sum,
    validate_closed_extension_counts,
)
from hallq import gflinalg
from hallq.partitions import conjugate, covers_up, enumerate_partitions, gaussian_binomial
from hallq.sampler import SamplerConfig, run_trials

# sha256 of each embedded prime-power field's tables: a + b and a * b for
# every pair (a, b) in row order, then the inverse of every a != 0, one byte
# per entry.  A rewrite of the field construction must keep every table.
FIELD_TABLE_DIGESTS = {
    4: "076e114a7772cf31cf7c1af1d443aad40970fcacdfc496554e8c8478b03c208c",
    8: "a1c6c222c49c2ba4d1e2ab86c825695b4ee3326c1e1b5c55314bac013411e084",
    9: "c68b5d4ad513b7a82d62afb28aeee93983024f155dd24f58ddaf3179a282ba6c",
    16: "e2f81284389ed72871fe803726a26e86f517dc915f0622980fed551ea792e52c",
    25: "0df0cfa0581f87de28b026a4d36b8562b2c6bb6668cb431c72ca74c12de31895",
    27: "eefbdf4fb9f0131ad562db7e722a34f2f1f4429a66838413f079158966c621fd",
    49: "68bfa4c18be18ca681f63694184ad5594a5b61c16547a6a94d5643562c9969b9",
}


class TestField:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_inverses_total(self, q):
        ctx = field(q)
        for a in range(1, q):
            assert ctx.mul(a, ctx.inv(a)) == 1

    @pytest.mark.parametrize("q", [4, 8, 9])
    def test_extension_field_axioms(self, q):
        ctx = field(q)
        elems = range(q)
        for a in elems:
            for b in elems:
                assert ctx.mul(a, b) == ctx.mul(b, a)
                assert ctx.add(a, b) == ctx.add(b, a)
        # Frobenius: x -> x^p is additive
        p = ctx.p
        def power(x, k):
            out = 1
            for _ in range(k):
                out = ctx.mul(out, x)
            return out
        for a in elems:
            for b in elems:
                assert power(ctx.add(a, b), p) == ctx.add(power(a, p), power(b, p))

    def test_unsupported(self):
        with pytest.raises(ValueError):
            field(6)

    @pytest.mark.parametrize("q", sorted(FIELD_TABLE_DIGESTS))
    def test_prime_power_tables_are_pinned(self, q):
        ctx = field(q)
        elems = range(q)
        data = bytes(ctx.add(a, b) for a in elems for b in elems)
        data += bytes(ctx.mul(a, b) for a in elems for b in elems)
        data += bytes(ctx.inv(a) for a in range(1, q))
        assert hashlib.sha256(data).hexdigest() == FIELD_TABLE_DIGESTS[q]

    def test_prime_power(self):
        assert prime_power(2) == (2, 1)
        assert prime_power(256) == (2, 8)
        assert prime_power(257) == (257, 1)
        assert prime_power(3**20) == (3, 20)
        assert prime_power(65521**2) == (65521, 2)  # the largest prime below 2^16, squared
        assert prime_power(2**32 - 5) == (2**32 - 5, 1)  # the largest prime below 2^32
        for q in (6, 10, 12, 2 * 3**19, 65519 * 65521):
            with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
                prime_power(q)
        for q in (-4, 0, 1, 2**32, 10**4000):
            with pytest.raises(ValueError, match="2 <= q < 2\\^32"):
                prime_power(q)

    def test_every_prime_field_builds(self):
        primes = [q for q in range(2, 257) if all(q % d for d in range(2, q))]
        for q in primes:
            ctx = field(q)
            assert (ctx.p, ctx.e) == (q, 1)
        for q in (32, 64, 81, 125, 128, 243, 256):
            with pytest.raises(ValueError, match="no irreducible polynomial embedded"):
                field(q)

    @pytest.mark.parametrize("engine", ["chain", "matrix"])
    def test_prime_field_above_13_runs(self, engine):
        config = SamplerConfig(mode="haar", engine=engine, q=17, n_max=30, trials=1, seed=3)
        (rec,) = run_trials(config, [0])
        assert sum(rec.final_rows) == 30 and conjugate(rec.final_rows) == rec.final_cols


class TestRank:
    def test_examples(self):
        assert rank(identity(5, 2)) == 5
        assert rank(mat_from_rows([[0, 0], [0, 0]], 3)) == 0
        assert rank(mat_from_rows([[0, 1], [0, 0]], 2)) == 1

    def test_text_roundtrip(self):
        m = mat_from_text("110;010;001", 2)
        assert m.to_text() == "110;010;001"
        assert rank(m) == 3

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_rank_against_generic(self, q):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            m = mat_from_rows(rows, q)
            r = rank(m)
            assert 0 <= r <= n
            if r == n:
                assert mat_mul(m, mat_inv(m)) == identity(n, q)


def _log_q(size: int, q: int) -> int:
    k = 0
    while q**k < size:
        k += 1
    assert q**k == size, (size, q)
    return k


def _unitriangular(n, q):
    """Every upper unitriangular n x n matrix over F_q, as row lists."""
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for vals in product(range(q), repeat=len(positions)):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), v in zip(positions, vals):
            rows[i][j] = v
        yield rows


class TestRankReferee:
    """rank(m) against log_q of the size of the row space, which is
    enumerated over all q^n combinations of the rows with the field
    arithmetic alone (no elimination, no call into the span kernel)."""

    @staticmethod
    def row_space_size(rows, q):
        ctx = field(q)
        space = set()
        for coeffs in product(range(q), repeat=len(rows)):
            v = [0] * len(rows[0])
            for c, row in zip(coeffs, rows):
                if c:
                    v = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(v, row)]
            space.add(tuple(v))
        return len(space)

    @pytest.mark.parametrize("q", [2, 3])
    def test_every_3x3(self, q):
        seen = set()
        for entries in product(range(q), repeat=9):
            rows = [entries[0:3], entries[3:6], entries[6:9]]
            r = rank(mat_from_rows(rows, q))
            assert r == _log_q(self.row_space_size(rows, q), q), rows
            seen.add(r)
        assert seen == {0, 1, 2, 3}

    @pytest.mark.parametrize("q", [4, 5])
    def test_sampled_4x4(self, q):
        ctx = field(q)
        rng = random.Random(40 + q)
        seen = set()
        for _ in range(120):
            # `free` random rows, the rest random combinations of them, so
            # every rank up to 4 occurs
            free = rng.randint(0, 4)
            rows = [[rng.randrange(q) for _ in range(4)] for _ in range(free)]
            while len(rows) < 4:
                row = [0] * 4
                for base in rows[:free]:
                    c = rng.randrange(q)
                    row = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(row, base)]
                rows.append(row)
            rng.shuffle(rows)
            r = rank(mat_from_rows(rows, q))
            assert r == _log_q(self.row_space_size(rows, q), q), rows
            seen.add(r)
        assert seen == {0, 1, 2, 3, 4}


class TestJordanReferee:
    """jordan_type_unipotent(u) against the type read off the nullities of
    the powers of u - I, each found by counting the vectors v with
    (u - I)^k v = 0 over all q^n vectors with ``mat_vec``."""

    @pytest.mark.parametrize("q", [2, 3])
    def test_every_4x4_unitriangular(self, q):
        n = 4
        ctx = field(q)
        vectors = list(product(range(q), repeat=n))
        types = set()
        for u in _unitriangular(n, q):
            xi = mat_from_rows([[ctx.sub(u[i][j], int(i == j)) for j in range(n)] for i in range(n)], q)
            kernel_sizes = [0] * (n + 1)  # kernel_sizes[k] = #{v : xi^k v = 0}
            for v in vectors:
                w = v
                for k in range(n + 1):
                    if not any(w):
                        for kk in range(k, n + 1):
                            kernel_sizes[kk] += 1
                        break
                    w = mat_vec(xi, w)
            nullities = [_log_q(size, q) for size in kernel_sizes]
            assert nullities[n] == n
            cols = tuple(b - a for a, b in zip(nullities, nullities[1:]) if b > a)
            want = conjugate(cols)
            assert jordan_type_unipotent(mat_from_rows(u, q)) == want, u
            types.add(want)
        assert types == set(enumerate_partitions(n))


class TestCharPoly:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_against_leibniz(self, q):
        ctx = field(q)
        rng = random.Random(17)

        def brute(m):
            n = m.n_rows
            total = [0] * (n + 1)
            for perm in permutations(range(n)):
                sgn = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sgn = -sgn
                term = [1]
                for i in range(n):
                    entry = [ctx.neg(m.rows[i][perm[i]])] + ([1] if i == perm[i] else [])
                    new = [0] * (len(term) + len(entry) - 1)
                    for a, x in enumerate(term):
                        for b, y in enumerate(entry):
                            new[a + b] = ctx.add(new[a + b], ctx.mul(x, y))
                    term = new
                for k, c in enumerate(term):
                    total[k] = ctx.add(total[k], c if sgn == 1 else ctx.neg(c))
            while total and total[-1] == 0:
                total.pop()
            return tuple(total)

        for _ in range(25):
            n = rng.randint(1, 4)
            m = mat_from_rows([[rng.randrange(q) for _ in range(n)] for _ in range(n)], q)
            assert char_poly(m) == brute(m)

    def test_companion(self):
        for q in (2, 3):
            for f in irreducible_polys(3, q):
                if f == (0, 1):
                    continue
                assert char_poly(companion_matrix(f, q)) == f


class TestJordan:
    def test_examples(self):
        assert jordan_type_unipotent(identity(3, 2)) == (1, 1, 1)
        assert jordan_type_unipotent(canonical_unipotent((3,), 2)) == (3,)
        assert jordan_type_unipotent(mat_from_text("110;010;001", 2)) == (2, 1)

    @pytest.mark.parametrize("q", [2, 3])
    def test_canonical_round_trip(self, q):
        for n in range(1, 7):
            for rho in enumerate_partitions(n):
                assert jordan_type_unipotent(canonical_unipotent(rho, q)) == rho

    def test_rejects_non_unipotent(self):
        with pytest.raises(NotUnipotentError):
            jordan_type_unipotent(mat_from_rows([[2, 0], [0, 1]], 3))
        # the coordinate swap IS unipotent over F_2 (char 2 involution)
        assert jordan_type_unipotent(mat_from_rows([[0, 1], [1, 0]], 2)) == (2,)


def _primary_from_explicit_powers(g, f):
    """The partition of f in the class type of g from rank f(g)^k, with f(g)
    built by Horner's rule and each power by ``mat_mul``: the referee of the
    Krylov columns of ``conj_class_type``."""
    n, ctx, d = g.n_rows, g.ctx, len(f) - 1
    fg = mat_from_rows([[0] * n for _ in range(n)], g.q)
    for c in reversed(f):
        rows = mat_mul(fg, g).rows
        fg = mat_from_rows([[ctx.add(x, c * (i == j)) for j, x in enumerate(row)] for i, row in enumerate(rows)], g.q)
    ranks, power = [n], identity(n, g.q)
    while len(ranks) < 2 or ranks[-1] < ranks[-2]:
        power = mat_mul(power, fg)
        ranks.append(rank(power))
    return conjugate(tuple((a - b) // d for a, b in zip(ranks, ranks[1:]) if a > b))


class TestConjClassType:
    def test_examples(self):
        assert conj_class_type(identity(2, 2)) == {(1, 1): (1, 1)}
        c = companion_matrix((1, 1, 1), 2)
        assert conj_class_type(c) == {(1, 1, 1): (1,)}
        g = block_diag([canonical_unipotent((2,), 2), c], 2)
        assert conj_class_type(g) == {(1, 1): (2,), (1, 1, 1): (1,)}

    def test_size_identity(self):
        rng = random.Random(3)
        for q in (2, 3):
            for _ in range(25):
                n = rng.randint(1, 4)
                while True:
                    m = mat_from_rows(
                        [[rng.randrange(q) for _ in range(n)] for _ in range(n)], q
                    )
                    if rank(m) == n:
                        break
                ct = conj_class_type(m)
                assert sum((len(f) - 1) * sum(mu) for f, mu in ct.items()) == n

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            conj_class_type(mat_from_rows([[0, 0], [0, 0]], 2))

    @pytest.mark.parametrize("n,q,classes", [(2, 2, 3), (3, 2, 6), (2, 3, 8), (2, 4, 15)])
    def test_class_numbers(self, n, q, classes):
        # GL_n(F_q) has this many conjugacy classes; every element's class
        # type is also read off explicit matrix powers of f(g)
        types = set()
        for entries in product(range(q), repeat=n * n):
            g = mat_from_rows([entries[i * n : (i + 1) * n] for i in range(n)], q)
            if rank(g) == n:
                ct = conj_class_type(g)
                assert ct == {f: _primary_from_explicit_powers(g, f) for f in ct}, g
                types.add(class_type_key(ct))
        assert len(types) == classes

    def test_conjugation_invariance(self):
        rng = random.Random(5)
        q = 2
        g = block_diag([canonical_unipotent((2,), q), companion_matrix((1, 1, 1), q)], q)
        base = conj_class_type(g)
        for _ in range(10):
            while True:
                s = mat_from_rows([[rng.randrange(q) for _ in range(4)] for _ in range(4)], q)
                if rank(s) == 4:
                    break
            conj = mat_mul(mat_mul(mat_inv(s), g), s)
            assert conj_class_type(conj) == base


class TestPolys:
    def test_irreducible_counts(self):
        # number of monic irreducibles of degree d over F_q (necklace counts)
        assert len(irreducible_polys(1, 2)) == 2
        assert len(irreducible_polys(2, 2)) == 1
        assert len(irreducible_polys(3, 2)) == 2
        assert len(irreducible_polys(4, 2)) == 3
        assert len(irreducible_polys(1, 3)) == 3
        assert len(irreducible_polys(2, 3)) == 3
        assert len(irreducible_polys(3, 3)) == 8

    # sha256 of repr(irreducible_polys(d, q)), pinned from the nested-loop
    # sieve that preceded is_irreducible: same polynomials, same order
    SIEVE_DIGESTS = {
        (1, 2): "e98d6cce866fc0edf81ed208d4c110826f76942e771aab485568825afd1bcbed",
        (2, 2): "89a85041fcc644c58c69094bcaf9a212a0fb6d8c6af2a46e7b1a7153e12de6ba",
        (3, 2): "d4bdfb950fdaa87b298c9802a0ed8af68b45709408f45badde3b67ce236798dd",
        (4, 2): "8ff5052bcbea9905d16c98dc67e774d382adf96b5e3ce3d99fbbbc932f998bc4",
        (5, 2): "76f21b8f2a49fda8badf9fb18d880fc03a7c67bb4816777c5fc0bd89947674c9",
        (6, 2): "b44b6493ac89d9a9c3c6654a5888e1790769ea76e341b942a71da94b7b2d837d",
        (1, 3): "95d73a17dde27333de0e8efe824380846ccb53511537c6a413d9eb7fdc3a0257",
        (2, 3): "eb03b7de4ea7016ec0ada7e0bf3a19ac49e645a5239ca69f634149606f47a1b3",
        (3, 3): "aab726c128e274bb07d0f67defa2e74c2dec1623be4da70c70c2c89a272c0d2e",
        (4, 3): "ec9a3c9b08973761eefe8b5dc30f7bae0cad6b4e66d90842a98d3813a83623bf",
        (5, 3): "406af08752db2f6bf618014a139b57806779a127f8b9d516c14ca5c0665e7a60",
        (6, 3): "9076dbaa2b7d588120f40bfef899d441d1ea321cfaefe197b498f6c343e936d0",
        (1, 4): "d126bd207d7ff2bd81fa9f3ce8429ae6186c673b991fb5528f388fc184b08c68",
        (2, 4): "c70602ebec7ed258663c13643429d75e534a73bc88fe3e526bcf9c8825e72bc7",
        (3, 4): "39be4f81080557dcfe6048e5858fcf5fd4ebef486150e5f1d0589b7a01dd9ea7",
        (4, 4): "9bbe4002ecf1f77a2c2c0c0d3005cbd2aea06a68d7d2f1434246066590612cee",
        (5, 4): "a2755d877012d9013ea63c07af23037b465dc8c4e8b2640b5e909235b37e6bb1",
        (6, 4): "bf37a6984a89987658424c881ee1cc2e82f4efe4dabb140fd2245ba3229a3710",
    }

    def test_sieve_is_pinned(self):
        for (d, q), digest in self.SIEVE_DIGESTS.items():
            assert hashlib.sha256(repr(irreducible_polys(d, q)).encode()).hexdigest() == digest, (d, q)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_sieve_counts_follow_gauss(self, q):
        def mobius(n):
            out, p = 1, 2
            while n > 1:
                if n % p == 0:
                    n //= p
                    if n % p == 0:
                        return 0
                    out = -out
                p += 1
            return out

        for d in range(2, 7):
            count = sum(mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
            assert len(irreducible_polys(d, q)) * d == count

    @pytest.mark.parametrize("q,top", [(2, 7), (3, 4), (4, 3)])
    def test_is_irreducible_decides_the_sieve(self, q, top):
        # referee: f is reducible when it is a product of two monic
        # polynomials of positive degree
        ctx = field(q)

        def monic(d):
            return [tail + (1,) for tail in product(range(q), repeat=d)]

        for d in range(1, top + 1):
            products = {poly_mul(g, h, ctx) for e in range(1, d // 2 + 1) for g in monic(e) for h in monic(d - e)}
            sieve = set(irreducible_polys(d, q))
            for f in monic(d):
                assert is_irreducible(f, q) == (f in sieve) == (f not in products), f

    def test_sieve_budget(self):
        assert len(irreducible_polys(14, 2)) == 1161
        with pytest.raises(ValueError, match=r"the 2\^15 monic polynomials of degree 15 over F_2 are over the budget"):
            irreducible_polys(15, 2)
        with pytest.raises(ValueError, match=r"the 251\^2 monic polynomials"):
            irreducible_polys(2, 251)

    def test_text(self):
        assert poly_from_text("111") == (1, 1, 1)
        assert poly_to_text((1, 1, 1)) == "111"


class TestExtensions:
    def test_examples(self):
        assert extension_counts((1,), 2) == {(2,): 1, (1, 1): 1}
        assert extension_counts((2,), 2) == {(3,): 2, (2, 1): 2}
        u = canonical_unipotent((2,), 2)
        assert extend_type(u, (0, 1)) == (3,)
        assert extend_type(u, (1, 1)) == (3,)
        assert extend_type(u, (1, 0)) == (2, 1)
        assert extend_type(mat_from_rows([[1]], 2), (0,)) == (1, 1)
        assert extend_type(mat_from_rows([[1]], 2), (1,)) == (2,)

    def test_extend_type_checks_the_new_column(self):
        u = canonical_unipotent((2, 1), 3)
        ext = mat_from_rows([[1, 1, 0, 2], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
        assert extend_type(u, (2, 1, 0)) == jordan_type_unipotent(ext) == (3, 1)
        for b in ((0, 3, 0), (0, -1, 0), (0, 1), (0, 1, 0, 0)):
            with pytest.raises(ValueError):
                extend_type(u, b)
        with pytest.raises(ValueError):
            extend_type(mat_from_rows([[1, 0]], 3), (0,))

    @pytest.mark.parametrize("q,n_max", [(2, 6), (3, 4)])
    def test_support_and_total(self, q, n_max):
        for n in range(0, n_max + 1):
            for rho in enumerate_partitions(n):
                counts = extension_counts(rho, q)
                assert sum(counts.values()) == q**n
                assert set(counts) <= set(covers_up(rho))

    @pytest.mark.parametrize("q,n_max", [(2, 10), (3, 6), (4, 5)])
    def test_closed_form_gate_default(self, q, n_max):
        report = validate_closed_extension_counts(n_max, q)
        assert report["ok"], report

    @pytest.mark.slow
    def test_closed_form_gate_extended_q3(self):
        # the full exhaustive range recorded in VALIDATED_FAST_COUNTS
        report = validate_closed_extension_counts(8, 3)
        assert report["ok"], report

    def test_counts_central_exhaustive(self):
        # same counts from every unitriangular representative, n <= 5, q = 2
        for n in range(1, 6):
            for rho in enumerate_partitions(n):
                ref = extension_counts(rho, 2)
                for rows in _unitriangular(n, 2):
                    u = mat_from_rows(rows, 2)
                    if jordan_type_unipotent(u) != rho:
                        continue
                    counts = {}
                    for b in product(range(2), repeat=n):
                        s = extend_type(u, b)
                        counts[s] = counts.get(s, 0) + 1
                    assert counts == ref

    def test_counts_central_sampled_q3(self):
        rng = random.Random(31)
        q = 3
        for n in range(2, 5):
            for rho in enumerate_partitions(n):
                ref = extension_counts(rho, q)
                # conjugate the canonical form by random invertibles
                u0 = canonical_unipotent(rho, q)
                for _ in range(3):
                    while True:
                        s = mat_from_rows(
                            [[rng.randrange(q) for _ in range(n)] for _ in range(n)], q
                        )
                        if rank(s) == n:
                            break
                    u = mat_mul(mat_mul(mat_inv(s), u0), s)
                    counts = {}
                    for b in product(range(q), repeat=n):
                        t = extend_type(u, b)
                        counts[t] = counts.get(t, 0) + 1
                    assert counts == ref

    def test_extension_in_covers(self):
        for n in range(1, 6):
            for rho in enumerate_partitions(n):
                u = canonical_unipotent(rho, 2)
                ups = set(covers_up(rho))
                for b in product(range(2), repeat=n):
                    assert extend_type(u, b) in ups


def _random_invertible(n, q, rng):
    while True:
        s = mat_from_rows([[rng.randrange(q) for _ in range(n)] for _ in range(n)], q)
        if rank(s) == n:
            return s


class TestClosedFormReferee:
    """extension_counts_closed against the rank argument, at sizes the
    brute-force census cannot reach.

    For xi = u - I nilpotent of type rho and a column b, the extension's
    box lands in the least column k with xi^(k-1) b in Im xi^k, that is
    with b in W_k = Im xi + ker xi^(k-1), and dim W_k = n - rank xi^(k-1)
    + rank xi^k.  Each rho gets a seeded random conjugate P J_rho P^-1;
    each sampled column's extension type (``jordan_type_unipotent``) must
    put its box in the predicted column, the W_k membership must grow with
    k, and the counts |W_j| - |W_(j-1)| read off the ranks of
    ``image_filtration`` must be the closed form.
    """

    @pytest.mark.parametrize("q,n_max", [(2, 16), (3, 12)])
    def test_random_conjugates(self, q, n_max):
        ctx = field(q)
        rng = random.Random(1000 + q)
        landed = set()
        for n in range(n_max + 1):
            for rho in enumerate_partitions(n):
                p = _random_invertible(n, q, rng)
                u = mat_mul(mat_mul(p, canonical_unipotent(rho, q)), mat_inv(p))
                xi = [pack([ctx.sub(u[i, j], int(i == j)) for i in range(n)], q) for j in range(n)]
                images = image_filtration(xi, q)
                ranks = [n] + [span.dim for span in images] + [0]
                cols = conjugate(rho)
                depth = len(cols) + 1  # b lies in W_depth = F_q^n
                dims = [n - ranks[k - 1] + ranks[k] for k in range(1, depth + 1)]
                assert dims == [n - c for c in cols] + [n], (rho, dims)

                predicted, below = {}, 0  # |W_(j-1)|, with W_0 empty
                for j, dim in enumerate(dims, start=1):
                    if q**dim > below:
                        sigma = conjugate(cols[: j - 1] + (cols[j - 1] + 1 if j <= len(cols) else 1,) + cols[j:])
                        predicted[sigma] = q**dim - below
                    below = q**dim
                assert extension_counts_closed(rho, q) == predicted, rho

                for _ in range(4):
                    b = tuple(rng.randrange(q) for _ in range(n))
                    v, member = pack(b, q), []  # member[k-1]: is b in W_k
                    for k in range(1, depth + 1):
                        member.append(k > len(images) or images[k - 1].contains(v))
                        v = combine(xi, v, q)
                    j = member.index(True) + 1
                    assert member == [k >= j for k in range(1, depth + 1)], (rho, b)
                    sigma = extend_type(u, b)
                    assert sigma in covers_up(rho) and conjugate(sigma)[j - 1] == (cols + (0,))[j - 1] + 1, (rho, b)
                    landed.add(j)
        assert landed >= {1, 2, 3}


def _type_from_explicit_powers(u):
    """Jordan type of a unipotent u from rank (u - I)^k, with x = u - I
    built entry by entry and each power by ``mat_mul``."""
    n, ctx = u.n_rows, u.ctx
    x = mat_from_rows([[ctx.sub(u[i, j], int(i == j)) for j in range(n)] for i in range(n)], u.q)
    ranks, power = [n], identity(n, u.q)
    for _ in range(n):
        power = mat_mul(power, x)
        ranks.append(rank(power))
    assert ranks[-1] == 0, u
    return conjugate(tuple(a - b for a, b in zip(ranks, ranks[1:]) if a > b))


class TestPackedRouteReferee:
    """The brute oracles classify packed columns of x = u - I with
    ``nilpotent_type``; the referee reads each type off the ranks of
    explicit matrix powers of x instead."""

    @pytest.mark.parametrize("q,n_max", [(2, 4), (3, 4), (4, 3)])
    def test_every_unitriangular(self, q, n_max):
        ctx = field(q)
        for n in range(n_max + 1):
            census = {}
            for rows in _unitriangular(n, q):
                u = mat_from_rows(rows, q)
                want = _type_from_explicit_powers(u)
                cols = [pack([ctx.sub(rows[i][j], int(i == j)) for i in range(n)], q) for j in range(n)]
                assert nilpotent_type(cols, q) == jordan_type_unipotent(u) == want, rows
                census[want] = census.get(want, 0) + 1
            assert count_unitriangular_by_type(n, q) == census
            assert set(census) == set(enumerate_partitions(n))

    def test_extension_counts_q2(self):
        q = 2
        for n in range(6):
            for rho in enumerate_partitions(n):
                u = canonical_unipotent(rho, q)
                census = {}
                for b in product(range(q), repeat=n):
                    ext = mat_from_rows([list(row) + [x] for row, x in zip(u.rows, b)] + [[0] * n + [1]], q)
                    sigma = _type_from_explicit_powers(ext)
                    census[sigma] = census.get(sigma, 0) + 1
                assert extension_counts(rho, q) == census, rho

    def test_rejects_a_matrix_that_is_not_nilpotent(self):
        with pytest.raises(NotUnipotentError):
            nilpotent_type([0b10, 0b01], 2)
        with pytest.raises(NotUnipotentError):
            nilpotent_type([(1,)], 3)


class TestCensus:
    def test_examples(self):
        assert count_unitriangular_by_type(1, 2) == {(1,): 1}
        assert count_unitriangular_by_type(2, 2) == {(2,): 1, (1, 1): 1}
        assert count_unitriangular_by_type(3, 2) == {(3,): 2, (2, 1): 5, (1, 1, 1): 1}

    @pytest.mark.parametrize("q,n_max", [(2, 5), (3, 4)])
    def test_total(self, q, n_max):
        for n in range(1, n_max + 1):
            counts = count_unitriangular_by_type(n, q)
            assert sum(counts.values()) == q ** (n * (n - 1) // 2)


class TestFlagsAndSubspaces:
    def test_examples(self):
        assert count_fixed_flags(identity(2, 2), (1, 1)) == 3
        assert count_fixed_flags(canonical_unipotent((2,), 2), (1, 1)) == 1
        assert count_fixed_flags(identity(4, 3), (4,)) == 1

    @pytest.mark.parametrize("q", [2, 3])
    def test_subspace_counts_are_gaussian(self, q):
        for n in range(1, 5):
            spaces = all_subspaces(n, q)
            for k in range(n + 1):
                assert sum(1 for _, d in spaces if d == k) == gaussian_binomial(n, k, q)

    @pytest.mark.parametrize("n,q", [(7, 2), (6, 3), (2, 251), (21, 2)])
    def test_subspace_budget(self, n, q):
        with pytest.raises(ValueError, match=rf"F_{q}\^{n} has sum_k \[{n}, k\]_{q} subspaces; .* over the budget"):
            all_subspaces(n, q)

    @pytest.mark.parametrize("q", [4, 5])
    def test_subspace_counts_prime_power(self, q):
        spaces = all_subspaces(3, q)
        for k in range(4):
            assert sum(1 for _, d in spaces if d == k) == gaussian_binomial(3, k, q)

    def test_lattice_matches_per_space_scan(self):
        # the invariant lattice against the scan of every space, list and order,
        # for every dim including the out-of-range -1 and n + 1
        cases = [(g, q) for q, top in ((2, 4), (3, 4), (4, 3), (5, 3)) for n in range(top + 1)
                 for g in [identity(n, q)] + [canonical_unipotent(rho, q) for rho in enumerate_partitions(n)]]
        cases.append((primary_element((1, 1, 1), (1, 1), 2), 2))
        for g, q in cases:
            for d in range(-1, g.n_rows + 2):
                assert invariant_subspaces(g, d) == referee_invariant_subspaces(g, d)

    @pytest.mark.parametrize("q", [2, 3])
    def test_fixed_flag_counts_share_one_lattice(self, q):
        mus = [(4,), (1, 3), (3, 1), (2, 2), (1, 2, 1), (2, 1, 1), (1, 1, 2), (1, 1, 1, 1)]
        for g in [identity(4, q)] + [canonical_unipotent(rho, q) for rho in enumerate_partitions(4)]:
            counts = fixed_flag_counts(g, mus)
            assert counts == [count_fixed_flags(g, mu) for mu in mus]
            assert counts == [referee_flag_count(g, mu) for mu in mus]
        g = canonical_unipotent((2, 1), q)
        assert fixed_flag_counts(g, [(1, 2), (2, 1)]) == [referee_flag_count(g, (1, 2)),
                                                          referee_flag_count(g, (2, 1))]
        assert fixed_flag_counts(g, []) == []

    def test_fixed_flags_refuse_bad_input_before_enumerating(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("enumerated")
        monkeypatch.setattr(gflinalg, "all_subspaces", no_enumeration)
        monkeypatch.setattr(gflinalg, "mat_vec", no_enumeration)
        g = identity(3, 2)
        for mus, message in (([(1, 2), (1, 1)], "sum to n"), ([(1, 2), (4, -1)], "positive")):
            with pytest.raises(ValueError, match=message):
                fixed_flag_counts(g, mus)
        with pytest.raises(ValueError, match="square"):
            count_fixed_flags(mat_from_rows([(1, 0, 0), (0, 1, 0)], 2), (1, 2))
        # mu = (n,) has only the trivial flag and needs no lattice
        assert count_fixed_flags(identity(21, 2), (21,)) == 1
        assert fixed_flag_counts(identity(21, 2), [(21,), (21,)]) == [1, 1]

    @pytest.mark.parametrize("rows", [[(1, 0, 0), (0, 1, 1)], [(1, 0), (0, 1), (1, 1)]])
    def test_invariant_subspaces_need_a_square_matrix(self, monkeypatch, rows):
        # mat_vec drops what does not fit, so a 2x3 matrix once gave three lines of F_2^2
        def no_enumeration(*args):
            raise AssertionError("enumerated")
        monkeypatch.setattr(gflinalg, "all_subspaces", no_enumeration)
        g = mat_from_rows(rows, 2)
        for dim in (-1, 0, 1, 4):
            with pytest.raises(ValueError, match=rf"square matrix, got {g.n_rows}x{g.n_cols}"):
                invariant_subspaces(g, dim)

    def test_fixed_flags_budget_comes_before_any_image(self, monkeypatch):
        def no_image(*args):
            raise AssertionError("image map built")
        monkeypatch.setattr(gflinalg, "mat_vec", no_image)
        with pytest.raises(ValueError, match=r"F_2\^21 has .* over the budget"):
            count_fixed_flags(identity(21, 2), (20, 1))

    def test_invariant_divisibility_for_degree2_primary(self):
        # invariant subspaces of a degree-2 primary element have even dimension
        g = primary_element((1, 1, 1), (1, 1), 2)  # 4x4 over F_2
        for d in range(5):
            spaces = invariant_subspaces(g, d)
            if d % 2:
                assert spaces == []
            else:
                assert spaces

    def test_submodule_count_formula(self):
        # the column sweep and the per-type referee against the matrix level
        for q in (2, 3):
            for n in range(0, 5):
                for rho in enumerate_partitions(n):
                    u = canonical_unipotent(rho, q)
                    counts = invariant_subspace_counts(rho, q)
                    referee = referee_counts(rho, q)
                    for d in range(n + 1):
                        brute = len(invariant_subspaces(u, d))
                        assert counts[d] == brute
                        assert referee[d] == brute

    def test_submodule_duality(self):
        # c_k = c_(n-k) (the module is self-dual), c_0 = c_n = 1, and the
        # invariant lines are the lines of the kernel, of dimension l(rho)
        for q in (2, 3):
            for n in range(0, 13):
                for rho in enumerate_partitions(n):
                    counts = invariant_subspace_counts(rho, q)
                    assert len(counts) == n + 1
                    assert counts == counts[::-1]
                    assert counts[0] == counts[n] == 1
                    if n:
                        assert counts[1] == (q ** len(rho) - 1) // (q - 1)


def referee_invariant_subspaces(g, dim):
    """The g-invariant subspaces of dimension dim by a scan of every vector
    of every subspace."""
    return [S for S, d in all_subspaces(g.n_rows, g.q) if d == dim and all(mat_vec(g, v) in S for v in S)]


def referee_flag_count(g, mu):
    """Invariant flags of dimension vector mu, as chains of referee
    subspaces built level by level."""
    chains = [frozenset()]
    dim = 0
    for part in mu[:-1]:
        dim += part
        chains = [big for big in referee_invariant_subspaces(g, dim) for small in chains if small <= big]
    return len(chains)


def referee_counts(rho, q):
    """Invariant k-subspace counts for k = 0..|rho|, as the sum over the
    partitions mu of k of the per-type submodule counts."""
    return tuple(
        sum(submodule_type_count(rho, mu, q) for mu in enumerate_partitions(k))
        for k in range(sum(rho) + 1)
    )


class TestInvariantSubspaceCounts:
    @pytest.mark.parametrize("q,n_max", [(2, 10), (3, 10), (4, 7)])
    def test_matches_referee_sum(self, q, n_max):
        for n in range(0, n_max + 1):
            for rho in enumerate_partitions(n):
                assert invariant_subspace_counts(rho, q) == referee_counts(rho, q)

    def test_examples(self):
        assert invariant_subspace_counts((), 2) == (1,)
        assert invariant_subspace_counts((1, 1), 2) == (1, 3, 1)
        assert invariant_subspace_counts((2,), 3) == (1, 1, 1)
        assert invariant_subspace_counts((2, 1), 2) == (1, 3, 3, 1)


WEIGHTS = ((2, 1), (1, 2), (3, 5), (7, 7), (1, 0), (0, 4))


class TestSubspaceWeightSum:
    @pytest.mark.parametrize("q,n_max", [(2, 10), (3, 10), (4, 7)])
    def test_matches_the_subspace_counts(self, q, n_max):
        # the scalar sweep is the count polynomial, homogenised, at (A, B)
        for n in range(0, n_max + 1):
            for rho in enumerate_partitions(n):
                counts = invariant_subspace_counts(rho, q)
                for a, b in WEIGHTS:
                    want = sum(c * a ** (n - k) * b**k for k, c in enumerate(counts))
                    assert subspace_weight_sum(rho, q, a, b) == want, (rho, a, b)

    @pytest.mark.parametrize("q", [2, 3])
    def test_covers_match_one_sweep_per_cover(self, q):
        for n in range(0, 11):
            for rho in enumerate_partitions(n):
                sums = cover_subspace_weight_sums(rho, q, 3, 5)
                assert sums == {sigma: subspace_weight_sum(sigma, q, 3, 5) for sigma in covers_up(rho)}

    def test_covers_of_chain_types_at_n200(self):
        config = SamplerConfig(q=2, n_max=200, trials=20, seed=1313)
        for rec in run_trials(config, list(range(20))):
            rho = rec.final_rows
            assert cover_subspace_weight_sums(rho, 2, 2, 1) == {
                sigma: subspace_weight_sum(sigma, 2, 2, 1) for sigma in covers_up(rho)
            }


class TestPrimary:
    def test_examples(self):
        # f = t - 1, mu = (2): same class as the Jordan block J_2(1)
        assert jordan_type_unipotent(primary_element((1, 1), (2,), 2)) == (2,)
        assert primary_element((1, 1), (1, 1), 2) == identity(2, 2)
        g = primary_element((1, 1, 1), (1,), 2)
        assert conj_class_type(g) == {(1, 1, 1): (1,)}

    def test_round_trip(self):
        for q in (2, 3, 4):
            for d in (1, 2, 3):
                for f in irreducible_polys(d, q):
                    if f == (0, 1):
                        continue
                    for mu in [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]:
                        if sum(mu) * d > 6:
                            continue
                        assert conj_class_type(primary_element(f, mu, q)) == {f: mu}

    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            primary_element(poly_mul((1, 1), (1, 1), field(2)), (1,), 2)

    def test_rejects_t(self):
        with pytest.raises(ValueError):
            primary_element((0, 1), (1,), 2)
