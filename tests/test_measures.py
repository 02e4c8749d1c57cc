from fractions import Fraction as F

import pytest

from hallq import gflinalg, hloracle, measures
from hallq.measures import (
    FAST_R_ROUTE,
    Q_ROUTE,
    NegativeCylinderError,
    characteristic_cylinder_via_r,
    characteristic_measure,
    check_coherence,
    check_normalization,
    cover_cylinders,
    cylinder_prob,
    cylinder_prob_fast,
    cylinder_via_q,
    fast_route_available,
    r_function_fast,
    unitriangular_type_counts,
)
from hallq.partitions import covers_up, enumerate_partitions
from hallq.symfun import GroundParams, SpecEntry, ThomaSpec, r_function

HAAR = ThomaSpec(alphas=(SpecEntry(F(1)),))
BETA1 = ThomaSpec(betas=(SpecEntry(F(1)),))
MIXED = ThomaSpec(alphas=(SpecEntry(F(1, 2)),), betas=(SpecEntry(F(1, 2)),))

ALPHA_SPECS = [
    HAAR,
    ThomaSpec(alphas=(SpecEntry(F(2, 3)), SpecEntry(F(1, 3)))),
    ThomaSpec(alphas=(SpecEntry(F(1, 2)), SpecEntry(F(1, 3)), SpecEntry(F(1, 6)))),
    ThomaSpec(alphas=(SpecEntry(F(1, 2)), SpecEntry(F(1, 4)), SpecEntry(F(1, 8)), SpecEntry(F(1, 8)))),
    ThomaSpec(alphas=(SpecEntry(F(3, 5)), SpecEntry(F(1, 5)), SpecEntry(F(1, 5)))),
    ThomaSpec(alphas=(SpecEntry(F(9, 10)), SpecEntry(F(1, 10)))),
]


class TestHaar:
    @pytest.mark.parametrize("q", [2, 3])
    def test_recovery(self, q):
        meas = characteristic_measure(HAAR, GroundParams(q))
        for n in range(0, 7):
            for rho in enumerate_partitions(n):
                assert cylinder_via_q(meas, rho) == F(1, q ** (n * (n - 1) // 2))

    def test_level_three_cylinder(self):
        meas = characteristic_measure(HAAR, GroundParams(2))
        assert cylinder_prob(meas, (2, 1)) == F(1, 8)
        assert cylinder_prob(meas, (2,)) == F(1, 2) == cylinder_prob(meas, (1, 1))

    def test_level_one_is_everything(self):
        for spec in ALPHA_SPECS:
            meas = characteristic_measure(spec, GroundParams(2))
            assert cylinder_prob(meas, (1,)) == 1


class TestTwoRoutes:
    @pytest.mark.parametrize("q", [2, 3])
    def test_equality_alpha_specs(self, q):
        g = GroundParams(q)
        for spec in ALPHA_SPECS:
            meas = characteristic_measure(spec, g)
            for n in range(0, 6):
                for rho in enumerate_partitions(n):
                    assert cylinder_via_q(meas, rho) == characteristic_cylinder_via_r(
                        spec, rho, g
                    )

    def test_equality_beta_spec_needs_beta_expansion(self):
        g = GroundParams(2)
        meas = characteristic_measure(BETA1, g)
        for n in range(0, 6):
            for rho in enumerate_partitions(n):
                assert cylinder_via_q(meas, rho) == characteristic_cylinder_via_r(BETA1, rho, g)

    def test_equality_mixed_spec_needs_both(self):
        g = GroundParams(2)
        meas = characteristic_measure(MIXED, g)
        for n in range(0, 6):
            for rho in enumerate_partitions(n):
                assert cylinder_via_q(meas, rho) == characteristic_cylinder_via_r(MIXED, rho, g)

    def test_via_r_is_level_weighted_r(self):
        g = GroundParams(2)
        for rho in enumerate_partitions(4):
            assert characteristic_cylinder_via_r(HAAR, rho, g) == F(1, 2**6) * r_function(
                rho, HAAR, g.t
            )


class TestBetaMeasure:
    def test_concentrated_on_one_column_types(self):
        meas = characteristic_measure(BETA1, GroundParams(2))
        for n in range(0, 6):
            for rho in enumerate_partitions(n):
                want = F(1) if rho == tuple([1] * n) else F(0)
                assert cylinder_prob(meas, rho) == want

    def test_negative_value_is_refused(self, monkeypatch):
        # a negative value is never clamped or remembered, on either route
        monkeypatch.setattr(measures, "r_function_fast", lambda rho, spec, q: F(-1))
        monkeypatch.setattr(measures, "cylinder_via_q", lambda meas, rho: F(-1))
        for spec in (BETA1, MIXED):
            meas = characteristic_measure(spec, GroundParams(2))
            with pytest.raises(NegativeCylinderError, match=r"^negative cylinder value -1(/2)? at rho=\(2,\)$"):
                cylinder_prob(meas, (2,))
            assert meas.memo == {}


class TestCoherence:
    @pytest.mark.parametrize("q,n_max", [(2, 6), (3, 4)])
    def test_alpha_specs(self, q, n_max):
        g = GroundParams(q)
        for spec in ALPHA_SPECS[:4]:
            meas = characteristic_measure(spec, g)
            report = check_coherence(meas, n_max)
            assert report.ok, report.violations[:3]

    def test_beta_measure_coherent(self):
        meas = characteristic_measure(BETA1, GroundParams(2))
        assert check_coherence(meas, 5).ok

    def test_negative_control(self):
        meas = characteristic_measure(HAAR, GroundParams(2))
        cylinder_prob(meas, (2,))
        meas.memo[(2,)] += F(1, 64)
        report = check_coherence(meas, 2)
        assert not report.ok
        assert report.violations[0].rho == (1,)

    def test_closed_counts_agree(self):
        # the closed-form counts the check reads match the matrix-level
        # referee on every type it visits, and the measure is coherent
        meas = characteristic_measure(ALPHA_SPECS[1], GroundParams(2))
        for n in range(5):
            for rho in enumerate_partitions(n):
                assert gflinalg.extension_counts_closed(rho, 2) == gflinalg.extension_counts(
                    rho, 2
                )
        assert check_coherence(meas, 5).ok


class TestNormalization:
    @pytest.mark.parametrize("q,n", [(2, 4), (2, 5), (3, 4)])
    def test_exact_one(self, q, n):
        g = GroundParams(q)
        for spec in ALPHA_SPECS[:3]:
            meas = characteristic_measure(spec, g)
            report = check_normalization(meas, n)
            assert report.ok and report.total == 1

    def test_level_one(self):
        meas = characteristic_measure(ALPHA_SPECS[2], GroundParams(2))
        assert check_normalization(meas, 1).total == 1

    def test_census_matches_brute_census(self):
        for q, n_top in ((2, 5), (3, 4)):
            for n in range(n_top + 1):
                assert unitriangular_type_counts(n, q) == gflinalg.count_unitriangular_by_type(n, q)

    @pytest.mark.parametrize("q,n", [(2, 7), (3, 6)])
    def test_census_matches_fold_of_brute_extension_counts(self, q, n):
        # the referee folds the matrix-level extension counts level by level
        census = {(): 1}
        for _ in range(n):
            nxt = {}
            for rho, mult in census.items():
                for sigma, c in gflinalg.extension_counts(rho, q).items():
                    nxt[sigma] = nxt.get(sigma, 0) + mult * c
            census = nxt
        assert unitriangular_type_counts(n, q) == census

    @pytest.mark.parametrize("q,n_top", [(2, 20), (3, 14)])
    def test_census_counts_every_matrix(self, q, n_top):
        for n in range(n_top + 1):
            assert sum(unitriangular_type_counts(n, q).values()) == q ** (n * (n - 1) // 2)

    def test_full_invariant_range(self):
        # exact normalization for shipped-style specs at n <= 7 (q=2) and
        # n <= 5 (q=3)
        for q, n_top in ((2, 7), (3, 5)):
            g = GroundParams(q)
            for spec in ALPHA_SPECS:
                meas = characteristic_measure(spec, g)
                for n in (n_top - 1, n_top):
                    assert check_normalization(meas, n).ok


class TestMonotonicityAndDistinctness:
    def test_unit_interval(self):
        g = GroundParams(2)
        for spec in ALPHA_SPECS:
            meas = characteristic_measure(spec, g)
            for n in range(0, 7):
                for rho in enumerate_partitions(n):
                    v = cylinder_prob(meas, rho)
                    assert 0 <= v <= 1

    def test_pairwise_distinct_at_small_level(self):
        g = GroundParams(2)
        measures_ = [characteristic_measure(s, g) for s in ALPHA_SPECS]
        for i in range(len(measures_)):
            for j in range(i + 1, len(measures_)):
                differs = any(
                    cylinder_prob(measures_[i], rho) != cylinder_prob(measures_[j], rho)
                    for n in range(1, 7)
                    for rho in enumerate_partitions(n)
                )
                assert differs, (i, j)


class TestConventions:
    """The measures evaluate at the point the adjudication referee
    (``hloracle``) picks among the source expansions."""

    def test_expand_spec(self):
        spec = MIXED
        assert all(e.geometric for e in hloracle.expand_spec(spec, "expand-alpha").alphas)
        assert not any(e.geometric for e in hloracle.expand_spec(spec, "expand-alpha").betas)
        assert all(e.geometric for e in hloracle.expand_spec(spec, "expand-beta").betas)
        assert hloracle.expand_spec(spec, "expand-none") == spec
        both = hloracle.expand_spec(spec, "expand-both")
        assert all(e.geometric for e in both.alphas + both.betas)
        assert characteristic_measure(spec, GroundParams(2)).eval_spec == both
        with pytest.raises(ValueError):
            hloracle.expand_spec(spec, "nonsense")

    def test_default_is_adjudicated_winner(self):
        # on a beta-free label the expand-both point is the expand-alpha point
        for spec in ALPHA_SPECS:
            assert characteristic_measure(spec, GroundParams(2)).eval_spec == hloracle.expand_spec(
                spec, "expand-alpha"
            )

    def test_adjudication_unique_winner(self):
        """Of the three source expansions, exactly one passes Haar recovery,
        coherence and two-route equality on the beta-free corpus."""
        table = hloracle.adjudicate_expansions({"haar": HAAR, "two": ALPHA_SPECS[1]}, 4)
        assert hloracle.adjudication_winners(table) == ["expand-alpha"]

    @pytest.mark.parametrize("q", [2, 3])
    def test_unexpanded_two_atoms_are_another_measure(self, q):
        # the referee's Q-route at the expand-alpha point gives the measure's
        # values; at the unexpanded point Q vanishes past two rows, the measure does not
        g = GroundParams(q)
        two = ALPHA_SPECS[1]
        meas = characteristic_measure(two, g)
        expanded = hloracle.expand_spec(two, "expand-alpha")
        for n in range(6):
            for rho in enumerate_partitions(n):
                assert measures.q_route_value(rho, expanded, g) == cylinder_prob(meas, rho)
        assert measures.q_route_value((2, 1, 1), hloracle.expand_spec(two, "expand-none"), g) == 0
        assert cylinder_prob(meas, (2, 1, 1)) == characteristic_cylinder_via_r(two, (2, 1, 1), g) > 0


class TestFastRoute:
    def test_availability(self):
        assert fast_route_available(HAAR)
        assert fast_route_available(ALPHA_SPECS[1])
        assert fast_route_available(BETA1)
        assert not fast_route_available(ALPHA_SPECS[2])  # three atoms
        assert not fast_route_available(MIXED)

    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_exact_route(self, q):
        g = GroundParams(q)
        for spec in (HAAR, ALPHA_SPECS[1], ALPHA_SPECS[5]):
            exact = characteristic_measure(spec, g)
            fast = characteristic_measure(spec, g)
            for n in range(0, 10):
                for rho in enumerate_partitions(n):
                    assert cylinder_via_q(exact, rho) == cylinder_prob_fast(fast, rho)

    def test_beta_fast(self):
        g = GroundParams(2)
        for n in range(0, 6):
            for rho in enumerate_partitions(n):
                assert r_function_fast(rho, BETA1, g.q) == r_function(rho, BETA1, g.t)

    @pytest.mark.parametrize("q,n_max", [(2, 14), (3, 10)])
    def test_cover_pass_coherent_with_closed_counts(self, q, n_max):
        # q^n r_rho = sum over covers of c_{rho,sigma} r_sigma, i.e. M_rho is
        # the count-weighted sum of the cover values, with every cover of rho
        # from one pass (the memo is emptied first) and M_rho from its own sweep
        meas = characteristic_measure(ALPHA_SPECS[1], GroundParams(q))
        for n in range(0, n_max + 1):
            for rho in enumerate_partitions(n):
                meas.memo.clear()
                covers = cover_cylinders(meas, rho)
                assert list(covers) == list(covers_up(rho))
                counts = gflinalg.extension_counts_closed(rho, q)
                assert cylinder_prob(meas, rho) == sum((c * covers[s] for s, c in counts.items()), F(0))

    def test_cover_pass_fills_the_memo_with_the_single_cover_values(self):
        g = GroundParams(3)
        batch = characteristic_measure(ALPHA_SPECS[5], g)
        single = characteristic_measure(ALPHA_SPECS[5], g)
        rho = (4, 2, 2, 1)
        covers = cover_cylinders(batch, rho)
        assert set(batch.memo) == set(covers_up(rho))
        assert covers == {sigma: cylinder_prob(single, sigma) for sigma in covers_up(rho)}

    def test_one_missing_cover_takes_its_own_sweep(self, monkeypatch):
        meas = characteristic_measure(ALPHA_SPECS[1], GroundParams(2))
        rho = (3, 1)
        *known, last = covers_up(rho)
        for sigma in known:
            cylinder_prob(meas, sigma)
        monkeypatch.setattr(gflinalg, "cover_subspace_weight_sums", None)  # never reached
        assert cover_cylinders(meas, rho)[last] == characteristic_cylinder_via_r(ALPHA_SPECS[1], last, GroundParams(2))

    @pytest.mark.parametrize("spec", [HAAR, BETA1, ALPHA_SPECS[2], MIXED])
    def test_other_measures_take_one_value_per_cover(self, monkeypatch, spec):
        meas = characteristic_measure(spec, GroundParams(2))
        monkeypatch.setattr(gflinalg, "cover_subspace_weight_sums", None)  # never reached
        assert cover_cylinders(meas, (2, 1)) == {sigma: cylinder_via_q(meas, sigma) for sigma in covers_up((2, 1))}


class TestRouteRule:
    def test_route_follows_label(self):
        g = GroundParams(2)
        cases = [
            (HAAR, FAST_R_ROUTE),
            (ALPHA_SPECS[1], FAST_R_ROUTE),
            (ALPHA_SPECS[5], FAST_R_ROUTE),
            (BETA1, FAST_R_ROUTE),
            (ALPHA_SPECS[2], Q_ROUTE),
            (ALPHA_SPECS[3], Q_ROUTE),
            (MIXED, Q_ROUTE),
        ]
        for spec, route in cases:
            assert characteristic_measure(spec, g).route == route, spec
        with pytest.raises(ValueError, match="takes the Q-route"):
            cylinder_prob_fast(characteristic_measure(ALPHA_SPECS[2], g), (2, 1))
