from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hallq.partitions import (
    DegreeLimitError,
    added_column,
    conjugate,
    covers_up,
    dominates,
    enumerate_partitions,
    format_partition,
    gaussian_binomial,
    gaussian_binomial_poly,
    gaussian_multinomial,
    hook_lengths,
    n_stat,
    parse_partition,
    partition_count,
)
from hallq.hloracle import enumerate_ssyt, kostka_number, tableau_is_semistandard


def partitions_up_to(n_max):
    for n in range(n_max + 1):
        yield from enumerate_partitions(n)


small_partitions = st.integers(0, 8).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n))
)


class TestConjugate:
    def test_examples(self):
        assert conjugate((2, 1)) == (2, 1)
        assert conjugate((3,)) == (1, 1, 1)
        assert conjugate((4, 2, 1)) == (3, 2, 1, 1)

    def test_column_count_definition(self):
        # column j of the diagram holds one box per part of size >= j
        for lam in partitions_up_to(20):
            want = tuple(sum(1 for p in lam if p >= j) for j in range(1, (lam[0] if lam else 0) + 1))
            assert conjugate(lam) == want, lam

    @given(small_partitions)
    def test_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam

    @given(small_partitions)
    def test_n_stat_via_columns(self, lam):
        assert n_stat(lam) == sum(c * (c - 1) // 2 for c in conjugate(lam))


class TestNStat:
    def test_examples(self):
        assert n_stat((3,)) == 0
        assert n_stat((1, 1, 1)) == 3
        assert n_stat((2, 1)) == 1


class TestHooks:
    def test_examples(self):
        assert hook_lengths((1,)) == (1,)
        assert sorted(hook_lengths((2, 1))) == [1, 1, 3]
        assert hook_lengths((6,)) == (6, 5, 4, 3, 2, 1)

    @given(small_partitions)
    def test_count_and_total(self, lam):
        hooks = hook_lengths(lam)
        assert len(hooks) == sum(lam)
        # total hook length = n(lam) + n(lam') + n
        assert sum(hooks) == n_stat(lam) + n_stat(conjugate(lam)) + sum(lam)


class TestCovers:
    def test_examples(self):
        assert covers_up(()) == ((1,),)
        assert set(covers_up((1,))) == {(2,), (1, 1)}
        assert set(covers_up((2, 1))) == {(3, 1), (2, 2), (2, 1, 1)}

    @given(small_partitions)
    def test_cover_structure(self, lam):
        ups = covers_up(lam)
        assert len(set(ups)) == len(ups)
        for mu in ups:
            assert sum(mu) == sum(lam) + 1
            assert added_column(lam, mu) >= 1


class TestEnumeration:
    def test_counts(self):
        assert [partition_count(n) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_order_reverse_lex(self):
        assert enumerate_partitions(3) == ((3,), (2, 1), (1, 1, 1))
        assert enumerate_partitions(0) == ((),)
        for n in range(8):
            parts = enumerate_partitions(n)
            assert parts == tuple(sorted(parts, reverse=True))

    def test_order_refines_dominance(self):
        for n in range(8):
            parts = enumerate_partitions(n)
            for i, lam in enumerate(parts):
                for j, mu in enumerate(parts):
                    if dominates(lam, mu) and lam != mu:
                        assert i < j

    def test_degree_limit(self):
        with pytest.raises(DegreeLimitError):
            enumerate_partitions(31)


class TestGaussianBinomial:
    def test_examples(self):
        assert gaussian_binomial(7, 0, 3) == 1
        assert gaussian_binomial(4, 2, 2) == 35
        assert gaussian_binomial(2, 1, 2) == 3

    @given(st.integers(0, 9), st.data())
    def test_symmetry(self, n, data):
        m = data.draw(st.integers(0, n))
        q = Fraction(data.draw(st.integers(2, 7)), data.draw(st.integers(1, 3)))
        if q == 1:
            q = Fraction(5, 3)
        assert gaussian_binomial(n, m, q) == gaussian_binomial(n, n - m, q)

    def test_integer_at_prime_powers(self):
        for q in (2, 3, 4, 5):
            for n in range(7):
                for m in range(n + 1):
                    assert gaussian_binomial(n, m, q).denominator == 1

    def test_poly_at_one_is_binomial(self):
        from math import comb

        for n in range(9):
            for m in range(n + 1):
                assert sum(gaussian_binomial_poly(n, m)) == comb(n, m)

    def test_range_error(self):
        with pytest.raises(ValueError):
            gaussian_binomial(3, 4, 2)

    def test_multinomial_order_free(self):
        assert gaussian_multinomial(4, (2, 1, 1), 2) == gaussian_multinomial(4, (1, 2, 1), 2)


class TestSSYT:
    def test_examples(self):
        assert len(enumerate_ssyt((2, 1), (1, 1, 1))) == 2
        assert enumerate_ssyt((1, 1), (2,)) == ()
        assert len(enumerate_ssyt((5,), (5,))) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_ssyt((2, 1), (1, 1))

    def test_all_semistandard(self):
        for shape in partitions_up_to(5):
            if not shape:
                continue
            for content in enumerate_partitions(sum(shape)):
                for t in enumerate_ssyt(shape, content):
                    assert tableau_is_semistandard(t, shape, content)

    def test_kostka_symmetry_under_content_permutation(self):
        # counts only depend on the multiset of content entries
        from itertools import permutations

        for n in range(1, 7):
            for shape in enumerate_partitions(n):
                for content in enumerate_partitions(n):
                    base = kostka_number(shape, content)
                    for perm in set(permutations(content)):
                        trimmed = tuple(p for p in perm if p)
                        count = len(_ssyt_any_content(shape, trimmed))
                        assert count == base


def _ssyt_any_content(shape, content):
    # brute enumeration allowing arbitrary (non-partition) content order
    rows = [[] for _ in shape]
    out = []

    def fill(letter):
        if letter > len(content):
            out.append(tuple(tuple(r) for r in rows))
            return
        need = content[letter - 1]

        def place(row, left):
            if left == 0:
                fill(letter + 1)
                return
            if row >= len(shape):
                return
            here = len(rows[row])
            cap = shape[row] - here
            if row > 0:
                above = rows[row - 1]
                cap = min(cap, sum(1 for j in range(here, len(above)) if above[j] < letter))
            cap = min(cap, left)
            for take in range(cap, -1, -1):
                rows[row].extend([letter] * take)
                place(row + 1, left - take)
                del rows[row][here:]

        place(0, need)

    fill(1)
    return out


class TestTextForm:
    def test_roundtrip(self):
        assert parse_partition("3,1,1") == (3, 1, 1)
        assert parse_partition("-") == ()
        assert format_partition(()) == "-"
        assert format_partition((2, 1)) == "2,1"

    @given(small_partitions)
    def test_roundtrip_random(self, lam):
        assert parse_partition(format_partition(lam)) == lam

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            parse_partition("1,2")
