from fractions import Fraction as F

import pytest

from hallq import gflinalg, measures
from hallq.gflinalg import jordan_type_unipotent
from hallq.ipfamily import (
    FiniteGroupTable,
    GroupAlgElem,
    build_affine_ip_level,
    build_gl_ip_level,
    build_wreath_ip_level,
    convolve,
    cyclic_group,
    de_finetti_central_check,
    diagonal_indices,
    embed_i,
    embed_multiplicativity_check,
    flag_induction_check,
    involution,
    measure_central_check,
    wreath_group,
)
from hallq.symfun import GroundParams, SpecEntry, ThomaSpec


class TestLevels:
    def test_gl_sizes(self):
        lvl = build_gl_ip_level(1, 2)
        assert len(lvl.G) == 6 and len(lvl.P) == 2 and len(lvl.N) == 2
        lvl3 = build_gl_ip_level(1, 3)
        assert len(lvl3.G) == 48 and len(lvl3.N) == 6

    def test_affine_sizes(self):
        assert len(build_affine_ip_level(1, 2).N) == 2
        assert len(build_affine_ip_level(1, 3).N) == 3

    def test_affine_is_restriction_of_gl(self):
        gl = build_gl_ip_level(1, 3)
        aff = build_affine_ip_level(1, 3)
        gl_pairs = {(gl.G.elements[p], gl.G_prev.elements[gl.pi[p]]) for p in gl.P}
        for p in aff.P:
            pair = (aff.G.elements[p], aff.G_prev.elements[aff.pi[p]])
            assert pair in gl_pairs

    def test_wreath_sizes(self):
        h2 = cyclic_group(2)
        lvl = build_wreath_ip_level(1, h2)
        assert len(lvl.G) == 8 and len(lvl.P) == 4 and len(lvl.N) == 2

    def test_trivial_coefficients_degenerate_to_symmetric_tower(self):
        lvl = build_wreath_ip_level(2, cyclic_group(1))
        assert len(lvl.N) == 1
        assert len(lvl.G) == 6  # S_3

    @pytest.mark.parametrize(
        "build", [build_gl_ip_level, build_affine_ip_level, lambda m, q: build_wreath_ip_level(m, cyclic_group(q))]
    )
    def test_negative_level_is_refused(self, build):
        with pytest.raises(ValueError, match="tower level m must be >= 0, got -1"):
            build(-1, 2)

    def test_enumeration_budgets(self):
        # GL_3(F_3) (3^9 candidates) and S_3 wr Z/2 are the largest the
        # tests build; one step past each budget is refused before it starts
        with pytest.raises(ValueError, match=r"the 2\^16 matrices of size 4 over F_2 are over the budget"):
            build_gl_ip_level(3, 2)
        with pytest.raises(ValueError, match=r"the 13\^4 matrices of size 2 over F_13"):
            build_gl_ip_level(1, 13)
        with pytest.raises(ValueError, match=r"S_5 wr Z/2 has 5! \* 2\^5 elements, over the budget of 1000"):
            wreath_group(5, cyclic_group(2))
        with pytest.raises(ValueError, match=r"S_1001 wr Z/1"):
            wreath_group(1001, cyclic_group(1))
        with pytest.raises(ValueError, match="Z/1001 has 1001 elements, over the budget of 1000"):
            cyclic_group(1001)
        assert len(wreath_group(3, cyclic_group(5))) == 750

    def test_bookkeeping_identity(self):
        for lvl in (
            build_gl_ip_level(1, 2),
            build_gl_ip_level(1, 3),
            build_affine_ip_level(1, 2),
            build_wreath_ip_level(1, cyclic_group(2)),
            build_wreath_ip_level(2, cyclic_group(2)),
        ):
            assert len(lvl.P) == len(lvl.G_prev) * len(lvl.N)
            assert set(lvl.pi.values()) == set(range(len(lvl.G_prev)))


class TestGroupAlgebra:
    def test_delta_convolution(self):
        G = build_gl_ip_level(1, 2).G
        d = GroupAlgElem.delta
        for i in range(len(G)):
            for j in range(len(G)):
                assert convolve(d(G, i), d(G, j)) == d(G, G.mul(i, j))

    def test_identity_neutral(self):
        G = build_gl_ip_level(1, 2).G
        e = GroupAlgElem.delta(G, G.identity_index)
        x = GroupAlgElem.from_map(G, {0: F(2), 3: F(-1, 5)})
        assert convolve(e, x) == x == convolve(x, e)

    def test_involution_antiautomorphism(self):
        G = build_gl_ip_level(1, 3).G
        x = GroupAlgElem.from_map(G, {0: F(2), 1: F(-1, 3), 7: F(5)})
        y = GroupAlgElem.from_map(G, {2: F(1, 7), 5: F(4)})
        assert involution(convolve(x, y)) == convolve(involution(y), involution(x))
        assert involution(involution(x)) == x

    def test_group_mismatch(self):
        g1 = build_gl_ip_level(1, 2).G
        g2 = build_gl_ip_level(1, 3).G
        with pytest.raises(ValueError):
            convolve(GroupAlgElem.delta(g1, 0), GroupAlgElem.delta(g2, 0))


class TestEmbed:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_gl_ip_level(1, 2),
            lambda: build_gl_ip_level(1, 3),
            lambda: build_affine_ip_level(1, 2),
            lambda: build_affine_ip_level(1, 3),
            lambda: build_wreath_ip_level(1, cyclic_group(2)),
            lambda: build_wreath_ip_level(2, cyclic_group(2)),
        ],
    )
    def test_multiplicative_exhaustively(self, make):
        assert embed_multiplicativity_check(make())

    def test_gl_level2_multiplicative(self):
        assert embed_multiplicativity_check(build_gl_ip_level(2, 2))

    def test_idempotent_image_of_identity(self):
        lvl = build_gl_ip_level(1, 2)
        e_img = embed_i(GroupAlgElem.delta(lvl.G_prev, lvl.G_prev.identity_index), lvl)
        assert convolve(e_img, e_img) == e_img

    def test_unit_not_respected(self):
        lvl = build_gl_ip_level(1, 3)
        e_img = embed_i(GroupAlgElem.delta(lvl.G_prev, lvl.G_prev.identity_index), lvl)
        assert e_img != GroupAlgElem.delta(lvl.G, lvl.G.identity_index)

    def test_section_independence(self):
        lvl = build_gl_ip_level(1, 3)
        alt = dict(lvl.section)
        g0 = 1
        alt[g0] = lvl.G.mul(lvl.section[g0], lvl.N[1])
        a = GroupAlgElem.from_map(lvl.G_prev, {g0: F(3, 5), 0: F(1, 9)})
        assert embed_i(a, lvl) == embed_i(a, lvl, section=alt)


class TestFlagInduction:
    @pytest.mark.parametrize("m,q", [(1, 2), (1, 3), (2, 2)])
    def test_passes(self, m, q):
        assert flag_induction_check(m, q)

    def test_passes_gl3_f3(self):
        assert flag_induction_check(2, 3)


class TestDeFinetti:
    def test_uniform_and_biased_products_central(self):
        h2 = cyclic_group(2)
        assert de_finetti_central_check(3, h2, {0: F(1, 2), 1: F(1, 2)})
        assert de_finetti_central_check(3, h2, {0: F(3, 4), 1: F(1, 4)})
        h3 = cyclic_group(3)
        assert de_finetti_central_check(2, h3, {0: F(1, 2), 1: F(1, 4), 2: F(1, 4)})

    def test_haar_on_subgroup_central(self):
        # uniform measure on a subgroup of Z/4 is a product measure too
        h4 = cyclic_group(4)
        assert de_finetti_central_check(2, h4, {0: F(1, 2), 2: F(1, 2)})

    def test_non_product_not_central(self):
        h2 = cyclic_group(2)
        G = wreath_group(3, h2)
        diag = diagonal_indices(G, 3)

        def asym(idx):
            _, vals = G.elements[idx]
            return F(1, 2) if vals[0] == 0 else F(1, 14)

        assert not measure_central_check(G, diag, asym)

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError):
            de_finetti_central_check(2, cyclic_group(2), {0: F(1, 3)})


class TestCoherenceBridge:
    """Group-level coherence on the affine tower at q = 2 agrees with the
    Jordan-type coherence of central measures, at matrix sizes up to 3."""

    @pytest.mark.parametrize(
        "spec",
        [
            ThomaSpec(alphas=(SpecEntry(F(1)),)),
            ThomaSpec(alphas=(SpecEntry(F(2, 3)), SpecEntry(F(1, 3)))),
        ],
    )
    def test_bridge(self, spec):
        q = 2
        ground = GroundParams(q)
        meas = measures.characteristic_measure(spec, ground)
        for m in (1, 2):
            level = build_affine_ip_level(m, q)
            # G(1, m) for this tower at q = 2 is the unitriangular subgroup
            unitriangular = [
                i
                for i, g in enumerate(level.G_prev.elements)
                if all(g.rows[r][c] == (1 if r == c else 0) for r in range(m) for c in range(r + 1))
            ]
            for gi in unitriangular:
                g = level.G_prev.elements[gi]
                lhs = measures.cylinder_prob(meas, jordan_type_unipotent(g))
                lift = level.section[gi]
                rhs = F(0)
                for h in level.N:
                    ext = level.G.elements[level.G.mul(lift, h)]
                    rhs += measures.cylinder_prob(meas, jordan_type_unipotent(ext))
                assert lhs == rhs

    def test_kernel_extensions_exhaust_columns(self):
        level = build_affine_ip_level(2, 2)
        gi = level.G_prev.identity_index
        lift = level.section[gi]
        exts = {level.G.elements[level.G.mul(lift, h)] for h in level.N}
        assert len(exts) == 4  # q^m extensions of the corner
        types = sorted(jordan_type_unipotent(e) for e in exts)
        assert types == sorted(
            t
            for t, c in gflinalg.extension_counts((1, 1), 2).items()
            for _ in range(c)
        )


class TestTableVerification:
    def test_rejects_broken_mul(self):
        with pytest.raises((ValueError, KeyError)):
            FiniteGroupTable(
                range(4),
                mul=lambda a, b: (a + b + 1) % 4,  # no identity behaves
                inv=lambda a: (-a) % 4,
                identity=0,
            )
