import random
from itertools import permutations, product

import pytest

from hallq.gflinalg import (
    NotUnipotentError,
    all_subspaces,
    block_diag,
    canonical_unipotent,
    char_poly,
    combine,
    companion_matrix,
    conj_class_type,
    count_fixed_flags,
    count_unitriangular_by_type,
    extend_matrix,
    extend_type,
    extension_counts,
    extension_counts_closed,
    field,
    identity,
    image_filtration,
    invariant_subspace_count,
    invariant_subspace_counts,
    invariant_subspaces,
    irreducible_polys,
    jordan_type_unipotent,
    mat_from_rows,
    mat_from_text,
    mat_inv,
    mat_mul,
    mat_vec,
    pack,
    poly_eval_matrix,
    poly_from_text,
    poly_mul,
    poly_to_text,
    primary_element,
    rank,
    submodule_type_count,
    validate_closed_extension_counts,
)
from hallq.partitions import conjugate, covers_up, enumerate_partitions, gaussian_binomial


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
        positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
        vectors = list(product(range(q), repeat=n))
        types = set()
        for vals in product(range(q), repeat=len(positions)):
            u = [[int(i == j) for j in range(n)] for i in range(n)]
            for (i, j), x in zip(positions, vals):
                u[i][j] = x
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

    def test_text(self):
        assert poly_from_text("111") == (1, 1, 1)
        assert poly_to_text((1, 1, 1)) == "111"

    def test_eval_matrix(self):
        q = 2
        g = companion_matrix((1, 1, 1), q)
        fg = poly_eval_matrix((1, 1, 1), g)  # its own characteristic polynomial
        assert all(x == 0 for row in fg.rows for x in row)


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
                positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
                for vals in product(range(2), repeat=len(positions)):
                    rows = [[int(i == j) for j in range(n)] for i in range(n)]
                    for (i, j), v in zip(positions, vals):
                        rows[i][j] = v
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
                    sigma = jordan_type_unipotent(extend_matrix(u, b))
                    assert sigma in covers_up(rho) and conjugate(sigma)[j - 1] == (cols + (0,))[j - 1] + 1, (rho, b)
                    landed.add(j)
        assert landed >= {1, 2, 3}


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

    @pytest.mark.parametrize("q", [4, 5])
    def test_subspace_counts_prime_power(self, q):
        spaces = all_subspaces(3, q)
        for k in range(4):
            assert sum(1 for _, d in spaces if d == k) == gaussian_binomial(3, k, q)

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

    def test_single_dimension_lookup(self):
        rho = (3, 2, 2, 1)
        counts = invariant_subspace_counts(rho, 3)
        for d in range(-1, 10):
            expected = counts[d] if 0 <= d <= 8 else 0
            assert invariant_subspace_count(rho, d, 3) == expected


class TestPrimary:
    def test_examples(self):
        # f = t - 1, mu = (2): same class as the Jordan block J_2(1)
        assert jordan_type_unipotent(primary_element((1, 1), (2,), 2)) == (2,)
        assert primary_element((1, 1), (1, 1), 2) == identity(2, 2)
        g = primary_element((1, 1, 1), (1,), 2)
        assert conj_class_type(g) == {(1, 1, 1): (1,)}

    def test_round_trip(self):
        for q in (2,):
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
