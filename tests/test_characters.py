from fractions import Fraction as F

import pytest

from hallq import gflinalg
from hallq.characters import (
    chi_matrix,
    chi_unipotent,
    chi_via_flag_oracle,
    frobenius_transition_check,
    glb_character_general,
    glb_character_unipotent,
    glb_character_via_induced,
    induced_dim,
    psi_at_primary,
    psi_matrix_by_flags,
    psi_unipotent,
    sym_dim,
    unipotent_dim,
    validate_class_type,
)
from hallq.gflinalg import (
    block_diag,
    canonical_unipotent,
    count_fixed_flags,
    primary_element,
)
from hallq.partitions import enumerate_partitions
from hallq.symfun import GroundParams, SpecEntry, ThomaSpec, monomial_values

ONE = ThomaSpec(alphas=(SpecEntry(F(1)),))
TWO = ThomaSpec(alphas=(SpecEntry(F(2, 3)), SpecEntry(F(1, 3))))
MIX = ThomaSpec(alphas=(SpecEntry(F(1, 2)),), betas=(SpecEntry(F(1, 2)),))
BET = ThomaSpec(betas=(SpecEntry(F(1)),))

SPECS = [
    ONE,
    TWO,
    MIX,
    BET,
    ThomaSpec(alphas=(SpecEntry(F(1, 2)), SpecEntry(F(1, 3)), SpecEntry(F(1, 6)))),
    ThomaSpec(alphas=(SpecEntry(F(1, 4)),), betas=(SpecEntry(F(1, 2)), SpecEntry(F(1, 4)))),
    ThomaSpec(alphas=(SpecEntry(F(1, 2)), SpecEntry(F(1, 2), True))),
    ThomaSpec(alphas=(SpecEntry(F(7, 8)),), betas=(SpecEntry(F(1, 8)),)),
    ThomaSpec(alphas=(SpecEntry(F(1), True),)),
    ThomaSpec(alphas=(SpecEntry(F(5, 6)),), gamma=F(1, 6)),
]


class TestDimensions:
    def test_unipotent_dim(self):
        assert unipotent_dim((6,), 2) == 1
        assert unipotent_dim((1, 1, 1), 2) == 8  # q^(n(n-1)/2)
        assert unipotent_dim((2, 1), 2) == 6
        # flag-module dimension identity at n = 3, q = 2
        assert 1 * 1 + 2 * 6 + 1 * 8 == induced_dim((1, 1, 1), 2)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_integer_at_prime_powers(self, q):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                assert unipotent_dim(lam, q).denominator == 1

    def test_steinberg(self):
        for q in (2, 3):
            for n in range(1, 6):
                assert unipotent_dim(tuple([1] * n), q) == q ** (n * (n - 1) // 2)

    def test_sym_dim(self):
        assert sym_dim((5,)) == 1
        assert sym_dim((2, 1)) == 2
        assert sym_dim((1, 1, 1)) == 1
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                # matches trivial-q limit of the flag decomposition
                assert sym_dim(lam) >= 1

    def test_induced_dim(self):
        assert induced_dim((1, 1, 1), 2) == 21
        assert induced_dim((4,), 5) == 1
        assert induced_dim((1, 1), 2) == 3
        assert induced_dim((2, 1), 3) == induced_dim((1, 2), 3)


class TestChi:
    def test_one_row_is_identity_character(self):
        for q in (2, 3):
            for n in range(1, 6):
                for rho in enumerate_partitions(n):
                    assert chi_unipotent((n,), rho, q) == 1

    def test_examples(self):
        assert chi_unipotent((1, 1, 1), (1, 1, 1), 2) == 8
        assert chi_unipotent((2, 1), (2, 1), 2) == 2
        assert chi_unipotent((2, 1), (1, 1, 1), 2) == 6
        assert chi_unipotent((1, 1, 1), (2, 1), 2) == 0

    def test_value_at_identity_class_is_dimension(self):
        for q in (2, 3):
            for n in range(1, 6):
                for lam in enumerate_partitions(n):
                    assert chi_unipotent(lam, tuple([1] * n), q) == unipotent_dim(lam, q)

    @pytest.mark.parametrize("q", [2, 3])
    def test_nonnegative(self, q):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                for rho in enumerate_partitions(n):
                    assert chi_unipotent(lam, rho, q) >= 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            chi_unipotent((2, 1), (2,), 2)


class TestPsi:
    def test_examples(self):
        assert psi_unipotent((1, 1), (1, 1), 2) == 3
        assert psi_unipotent((1, 1), (2,), 2) == 1
        for rho in enumerate_partitions(4):
            assert psi_unipotent((4,), rho, 2) == 1

    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_brute_flags(self, q):
        for n in range(1, 5):
            for mu in enumerate_partitions(n):
                for rho in enumerate_partitions(n):
                    brute = count_fixed_flags(canonical_unipotent(rho, q), mu)
                    assert psi_unipotent(mu, rho, q) == brute

    def test_composition_order_free(self):
        assert psi_unipotent((1, 2), (2, 1), 2) == psi_unipotent((2, 1), (2, 1), 2)


class TestOracleChain:
    @pytest.mark.parametrize("q", [2, 3])
    def test_flag_oracle_equals_formula(self, q):
        for n in range(1, 5):
            assert chi_via_flag_oracle(n, q) == chi_matrix(n, q)

    def test_n2_values(self):
        X = chi_via_flag_oracle(2, 2)
        # rows are labels, columns classes, both in the order (2), (1,1)
        assert X[0] == (F(1), F(1))
        assert X[1] == (F(0), F(2))

    def test_psi_matrix_flags(self):
        psi = psi_matrix_by_flags(3, 2)
        assert psi[2][2] == 21  # complete flags fixed by the identity

    @pytest.mark.parametrize("q", [2, 3])
    def test_psi_matrix_flags_entrywise(self, q):
        # one lattice per representative gives every row mu of its column
        for n in range(0, 5):
            parts = enumerate_partitions(n)
            assert psi_matrix_by_flags(n, q) == tuple(
                tuple(psi_unipotent(mu, rho, q) for rho in parts) for mu in parts
            )


class TestFrobenius:
    @pytest.mark.parametrize("q", [2, 3])
    def test_matrix_identity(self, q):
        for n in range(1, 6):
            assert frobenius_transition_check(n, q)


class TestPrimaryValues:
    def test_examples(self):
        assert psi_at_primary((2,), 2, (1,), 2) == 1
        assert psi_at_primary((1, 1), 2, (1,), 2) == 0
        assert psi_at_primary((2, 2), 2, (1, 1), 2) == 5  # 1 + q at q = 4

    def test_against_brute_flags_degree2(self):
        g = primary_element((1, 1, 1), (1, 1), 2)  # 4x4, f of degree 2
        for nu in enumerate_partitions(4):
            assert psi_at_primary(nu, 2, (1, 1), 2) == count_fixed_flags(g, nu)

    def test_against_brute_flags_degree3(self):
        g = primary_element((1, 1, 0, 1), (1,), 2)  # 3x3, f of degree 3
        for nu in enumerate_partitions(3):
            assert psi_at_primary(nu, 3, (1,), 2) == count_fixed_flags(g, nu)

    def test_f_independence_degree1(self):
        # primary elements for t-1 and t-2 over F_3 fix the same flag counts
        q = 3
        for n in range(1, 4):
            for rho in enumerate_partitions(n):
                g1 = primary_element((2, 1), rho, q)  # f = t - 1
                g2 = primary_element((1, 1), rho, q)  # f = t - 2
                for mu in enumerate_partitions(n):
                    assert count_fixed_flags(g1, mu) == count_fixed_flags(g2, mu)


class TestGlbCharacters:
    def test_trivial_character(self):
        g = GroundParams(2)
        for n in range(0, 5):
            for rho in enumerate_partitions(n):
                assert glb_character_unipotent(ONE, rho, g) == 1

    def test_degree_one_normalization(self):
        g = GroundParams(3)
        for spec in SPECS:
            assert glb_character_unipotent(spec, (1,), g) == 1

    @pytest.mark.parametrize("q", [2, 3])
    def test_two_decompositions_agree(self, q):
        g = GroundParams(q)
        for spec in SPECS:
            for n in range(1, 6):
                for rho in enumerate_partitions(n):
                    assert glb_character_unipotent(spec, rho, g) == glb_character_via_induced(
                        spec, rho, g
                    )

    def test_general_single_unipotent_factor(self):
        g = GroundParams(2)
        phi = {(1, 1): (2, 1)}
        for spec in SPECS[:4]:
            assert glb_character_general(spec, phi, g) == glb_character_unipotent(
                spec, (2, 1), g
            )

    def test_trivial_on_any_class(self):
        g = GroundParams(2)
        types = [
            {(1, 1): (2,)},
            {(1, 1, 1): (1,)},
            {(1, 1): (1,), (1, 1, 1): (1,)},
            {(1, 0, 1, 1): (1,)},
            {(1, 1, 1): (2,)},
        ]
        for phi in types:
            assert glb_character_general(ONE, phi, g) == 1

    def test_validate_class_type(self):
        with pytest.raises(ValueError):
            validate_class_type({(0, 1): (1,)}, 2)
        with pytest.raises(ValueError):
            validate_class_type({(1, 0, 1): (1,)}, 2)  # t^2+1 = (t+1)^2 over F_2

    @pytest.mark.parametrize(
        "f,q,message",
        [
            ((1,), 2, "constant polynomial in class type"),
            ((0, 1), 2, "the polynomial t may not appear"),
            ((1, 0, 1), 2, "(1, 0, 1) is not irreducible over F_2"),  # t^2+1 = (t+1)^2 over F_2
            ((1, 2), 3, "(1, 2) is not monic"),  # 1 + 2t has degree 1, so only its lead is wrong
            ((1, 3), 3, "(1, 3) has a coefficient outside F_3"),
        ],
    )
    def test_both_entry_points_reject_alike(self, f, q, message):
        for check in (lambda: validate_class_type({f: (1,)}, q), lambda: primary_element(f, (1,), q)):
            with pytest.raises(ValueError) as err:
                check()
            assert str(err.value) == message

    def test_degree_16_class_type_skips_its_own_sieve(self):
        # x^16 + x^5 + x^3 + x^2 + 1 is tried against the sieves of degree
        # 1..8 only; the 2^16 candidates of degree 16 are never built
        f = (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,)
        gflinalg.irreducible_polys.cache_clear()
        assert validate_class_type({f: (1,)}, 2) == 16
        assert gflinalg.irreducible_polys.cache_info().currsize == 8


def _conj_type_of(g):
    return gflinalg.conj_class_type(g)


class TestMultiplicationTheorem:
    def make_witnesses(self):
        q = 2
        f1 = (1, 1)  # t - 1
        f2 = (1, 1, 1)  # irreducible quadratic
        f3 = (1, 1, 0, 1)  # irreducible cubic
        c = lambda f, mu: primary_element(f, mu, q)
        witnesses = [
            c(f1, (2, 1)),                      # pure unipotent, n=3
            c(f2, (1,)),                        # pure primary d=2, n=2
            c(f2, (2,)),                        # primary d=2 with partition (2), n=4
            c(f2, (1, 1)),                      # primary d=2, (1,1), n=4
            c(f3, (1,)),                        # primary d=3, n=3
            block_diag([c(f1, (1,)), c(f2, (1,))], q),      # mixed d=1,2, n=3
            block_diag([c(f1, (2,)), c(f2, (1,))], q),      # mixed, n=4
            block_diag([c(f1, (1, 1)), c(f2, (1,))], q),    # mixed, n=4
            block_diag([c(f1, (1,)), c(f3, (1,))], q),      # mixed d=1,3, n=4
            block_diag([c(f1, (4,))], q),                   # regular unipotent, n=4
        ]
        return witnesses

    def test_product_formula_matches_brute_force(self):
        g = GroundParams(2)
        specs = [ONE, TWO, MIX]
        for w in self.make_witnesses():
            phi = _conj_type_of(w)
            n = w.n_rows
            for spec in specs:
                product_value = glb_character_general(spec, phi, g)
                mvals = monomial_values(spec, g.t, n)
                brute = sum(
                    (
                        count_fixed_flags(w, nu) * mvals[j]
                        for j, nu in enumerate(enumerate_partitions(n))
                        if mvals[j]
                    ),
                    F(0),
                )
                assert product_value == brute, (phi, spec)
