import dataclasses
import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

from hallq import gflinalg, sampler
from hallq.measures import DeadBranchError, characteristic_measure, check_coherence
from hallq.partitions import conjugate, covers_up, enumerate_partitions
from hallq.sampler import (
    ConditionalLawError,
    CounterRng,
    MatrixGrowthState,
    SamplerConfig,
    beta_targets,
    chain_haar_step,
    expected_frequency_multiset,
    markov_step,
    matrix_haar_step,
    merge_records,
    run_lln,
    run_trials,
)
from hallq.symfun import GroundParams, SpecEntry, ThomaSpec

HAAR = ThomaSpec(alphas=(SpecEntry(F(1)),))
TWO = ThomaSpec(alphas=(SpecEntry(F(2, 3)), SpecEntry(F(1, 3))))
BETA1 = ThomaSpec(betas=(SpecEntry(F(1)),))

TEST_PID = os.getpid()


def _run_trials_failing_in_workers(config, trial_indices):
    """``run_trials`` that fails in every process but the test's own."""
    if os.getpid() != TEST_PID:
        raise RuntimeError(f"worker failure on trials {trial_indices}")
    return run_trials(config, trial_indices)


class TestRng:
    def test_keyed_blocks(self):
        a, b = CounterRng(42), CounterRng(42)
        assert a.block(1, 2, 3) == b.block(1, 2, 3)
        assert a.block(1, 2, 3) != a.block(1, 2, 4)
        assert a.block(1, 2, 3) != CounterRng(43).block(1, 2, 3)
        assert len(a.block(0, 0, 0)) == 64

    def test_uniform_below_range(self):
        rng = CounterRng(7)
        for step in range(200):
            x = rng.uniform_below(0, step, 13)
            assert 0 <= x < 13

    def test_uniform_vector(self):
        rng = CounterRng(7)
        v = rng.uniform_vector(0, 1, 20, 3)
        assert len(v) == 20 and all(0 <= x < 3 for x in v)

    def test_leading_zero_counts_distribution(self):
        rng = CounterRng(11)
        counts = [rng.leading_zero_count(0, step, 2, 30) for step in range(4000)]
        frac0 = sum(1 for c in counts if c == 0) / len(counts)
        assert abs(frac0 - 0.5) < 0.05  # geometric(1/2)


class TestChainStep:
    def test_columns_stay_partition(self):
        cols = []
        rng = CounterRng(3)
        for step in range(1, 400):
            z = rng.leading_zero_count(0, step, 2, (cols[0] if cols else 0) + 1)
            j = chain_haar_step(cols, z)
            assert 1 <= j <= len(cols)
            assert all(cols[i] >= cols[i + 1] for i in range(len(cols) - 1))
        assert sum(cols) == 399

    def test_step_law_is_exact_haar_law(self):
        # empirical column frequencies from a fixed partition against the
        # exact law t^(c_j) - t^(c_{j-1})
        base = [4, 2, 1]  # conjugate of (3,2,1,1)
        rng = CounterRng(5)
        hits = {}
        trials = 20000
        for step in range(trials):
            cols = list(base)
            z = rng.leading_zero_count(0, step, 2, cols[0] + 1)
            j = chain_haar_step(cols, z)
            hits[j] = hits.get(j, 0) + 1
        t = F(1, 2)
        prev = F(0)
        for j in range(1, 5):
            c = base[j - 1] if j - 1 < len(base) else 0
            p = t**c - (t ** base[j - 2] if j >= 2 else 0)
            if p:
                assert abs(hits.get(j, 0) / trials - float(p)) < 0.02, j


class TestMatrixEngine:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_type_matches_matrix_level(self, q):
        state = MatrixGrowthState(q=q)
        rng = CounterRng(7)
        for step in range(1, 71):  # crosses the 64-step refresh
            matrix_haar_step(state, rng, 0, step)

        def entry(col, i):  # entry i of a packed column
            if q == 2:
                return (col >> i) & 1
            return col[i] if i < len(col) else 0

        rows = [[entry(col, i) for col in state.xi] for i in range(state.n)]
        for i in range(state.n):
            assert rows[i][: i + 1] == [0] * (i + 1)
            rows[i][i] = 1
        u = gflinalg.mat_from_rows(rows, q)
        assert gflinalg.jordan_type_unipotent(u) == state.rho

    def test_growth_is_one_box(self):
        state = MatrixGrowthState(q=2)
        rng = CounterRng(9)
        prev = ()
        for step in range(1, 40):
            matrix_haar_step(state, rng, 0, step)
            assert state.rho in covers_up(prev)
            prev = state.rho


class TestMarkov:
    def test_haar_conditionals_match_uniform_columns(self):
        meas = characteristic_measure(HAAR, GroundParams(2))
        for n in range(0, 7):
            for rho in enumerate_partitions(n):
                counts = gflinalg.extension_counts(rho, 2)
                m_rho = meas.cylinder(rho)
                for sigma, c in counts.items():
                    assert F(c) * meas.cylinder(sigma) / m_rho == F(c, 2**n)

    def test_step_support(self):
        meas = characteristic_measure(TWO, GroundParams(2))
        rng = CounterRng(1)
        rho = ()
        for step in range(1, 10):
            rho = markov_step(rho, meas, rng, 0, step)
            assert sum(rho) == step

    def test_dead_branch(self):
        meas = characteristic_measure(BETA1, GroundParams(2), convention="expand-beta")
        rng = CounterRng(1)
        with pytest.raises(DeadBranchError):
            markov_step((2,), meas, rng, 0, 1)

    def test_corrupt_counts_raise(self, monkeypatch):
        meas = characteristic_measure(TWO, GroundParams(2))
        monkeypatch.setattr(gflinalg, "extension_counts_closed",
                            lambda rho, q: {s: 1 for s in covers_up(rho)})
        with pytest.raises(ConditionalLawError, match="conditional law sums to"):
            markov_step((2, 1), meas, CounterRng(1), 0, 1)

    def test_corrupt_counts_raise_under_optimize(self):
        # the law check must not be an assert that python -O strips
        code = textwrap.dedent("""
            from fractions import Fraction
            from hallq import gflinalg, sampler
            from hallq.measures import characteristic_measure
            from hallq.partitions import covers_up
            from hallq.symfun import GroundParams, SpecEntry, ThomaSpec
            assert False, "asserts are live: not running under -O"
            gflinalg.extension_counts_closed = lambda rho, q: {s: 1 for s in covers_up(rho)}
            spec = ThomaSpec(alphas=(SpecEntry(Fraction(2, 3)), SpecEntry(Fraction(1, 3))))
            meas = characteristic_measure(spec, GroundParams(2))
            try:
                sampler.markov_step((2, 1), meas, sampler.CounterRng(1), 0, 1)
            except sampler.ConditionalLawError as exc:
                print("raised:", exc)
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("raised: conditional law sums to"), done.stdout

    def test_unknown_counts_source_is_rejected(self):
        meas = characteristic_measure(TWO, GroundParams(2))
        with pytest.raises(ValueError, match="unknown counts source 'bogus'"):
            check_coherence(meas, 2, counts="bogus")

    def test_beta_measure_forced_path(self):
        meas = characteristic_measure(BETA1, GroundParams(2), convention="expand-beta")
        rng = CounterRng(1)
        rho = ()
        for step in range(1, 8):
            rho = markov_step(rho, meas, rng, 0, step)
        assert rho == tuple([1] * 7)


class TestTargets:
    def test_haar_targets(self):
        targets = expected_frequency_multiset(HAAR, F(1, 2), 5)
        assert targets == [F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32)]

    def test_merge_targets(self):
        targets = expected_frequency_multiset(
            ThomaSpec(alphas=(SpecEntry(F(3, 5)), SpecEntry(F(2, 5)))), F(1, 2), 5
        )
        assert targets == [F(3, 10), F(1, 5), F(3, 20), F(1, 10), F(3, 40)]

    def test_empty_alpha(self):
        assert expected_frequency_multiset(BETA1, F(1, 2), 4) == []
        assert beta_targets(BETA1, 3) == [F(1)]


class TestRuns:
    def test_row_frequencies_sum_to_one(self):
        cfg = SamplerConfig(mode="haar", engine="chain", q=2, n_max=60, trials=3, seed=2)
        rep = run_lln(cfg)
        for rec in rep.records:
            assert sum(rec.final_rows) == cfg.n_max
            assert sum(rec.final_cols) == cfg.n_max
            assert rec.final_rows == conjugate(rec.final_cols)

    def test_seed_determinism(self):
        cfg = SamplerConfig(mode="haar", engine="chain", q=2, n_max=50, trials=5, seed=11,
                            store_trajectories=True)
        assert run_lln(cfg).to_json() == run_lln(cfg).to_json()

    def test_partition_merge_determinism(self):
        cfg = SamplerConfig(mode="haar", engine="chain", q=2, n_max=40, trials=6, seed=4)
        full = run_lln(cfg)
        merged = merge_records([run_trials(cfg, [0, 3, 5]), run_trials(cfg, [1, 2, 4])])
        assert [r.final_cols for r in merged] == [r.final_cols for r in full.records]

    def test_engines_agree_in_law(self):
        # same seed gives different draws per engine, but both are exactly
        # Haar; compare mean first-row frequency loosely
        n, trials = 60, 40
        chain = run_lln(SamplerConfig(mode="haar", engine="chain", q=2, n_max=n, trials=trials, seed=3))
        matrix = run_lln(SamplerConfig(mode="haar", engine="matrix", q=2, n_max=n, trials=trials, seed=3))
        m1, _ = chain.means_and_se("rows")
        m2, _ = matrix.means_and_se("rows")
        assert abs(m1[0] - m2[0]) < 0.1

    def test_measure_mode_runs_past_the_census_range(self):
        # n = 16 is past the brute-force census at q = 2; no flag is needed
        rep = run_lln(SamplerConfig(mode="measure", q=2, n_max=16, trials=2, seed=5, spec=TWO))
        assert rep.counts_source == "closed-form counts"
        assert all(sum(rec.final_cols) == 16 for rec in rep.records)

    def test_measure_mode_determinism(self):
        cfg = SamplerConfig(mode="measure", q=2, n_max=16, trials=4, seed=9, spec=TWO, snapshot_every=1)
        first = run_lln(cfg)
        assert first.records == run_lln(cfg).records
        pooled = run_lln(dataclasses.replace(cfg, threads=2))
        assert pooled.records == first.records
        assert pooled.to_json() == first.to_json()

    def test_measure_mode_follows_the_convention(self):
        cfg = SamplerConfig(mode="measure", q=2, n_max=8, trials=6, seed=5, spec=TWO, snapshot_every=1)
        expanded = run_lln(cfg)
        unexpanded = run_lln(dataclasses.replace(cfg, convention="expand-none"))
        assert [r.snapshots for r in unexpanded.records] != [r.snapshots for r in expanded.records]
        # Q at the two unexpanded atoms vanishes past two rows
        assert all(len(r.final_rows) <= 2 for r in unexpanded.records)
        assert any(len(r.final_rows) > 2 for r in expanded.records)

    def test_worker_error_propagates_without_serial_rerun(self, monkeypatch):
        monkeypatch.setattr(sampler, "run_trials", _run_trials_failing_in_workers)
        cfg = SamplerConfig(mode="haar", engine="chain", q=2, n_max=10, trials=4, seed=3, threads=2)
        with pytest.raises(RuntimeError, match="worker failure"):
            run_lln(cfg)

    def test_config_rejects_bad_seed_and_trials(self):
        for bad in ({"seed": -1}, {"seed": 2**64}, {"trials": 0}):
            with pytest.raises(ValueError):
                SamplerConfig(**bad)
        assert SamplerConfig(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"q": 6},
            {"q": 1},
            {"n_max": 0},
            {"mode": "haar", "engine": "markov"},
            {"mode": "measure", "engine": "matrix"},
            {"mode": "bogus"},
            {"mode": "haar", "engine": "matrix", "n_max": sampler.MATRIX_N_LIMIT + 1},
            {"k_max": 0},
            {"mode": "measure", "spec": TWO, "k_max": -3},
            {"mode": "haar", "k_max": 3},
        ],
    )
    def test_config_rejects_bad_field_size_and_engine(self, bad):
        with pytest.raises(ValueError):
            SamplerConfig(**bad)

    def test_measure_mode_takes_a_short_kmax(self):
        # only the haar gate needs 4 rows
        rep = run_lln(SamplerConfig(mode="measure", q=2, n_max=6, trials=2, seed=1, spec=TWO, k_max=1))
        assert len(rep.to_dict()["row_freq_means"]) == 1

    def test_gate_small(self):
        cfg = SamplerConfig(mode="haar", engine="chain", q=2, n_max=200, trials=60, seed=42)
        gate = run_lln(cfg).gate()
        assert gate["ok"], gate

    def test_csv(self):
        cfg = SamplerConfig(mode="haar", engine="chain", q=2, n_max=20, trials=2, seed=1,
                            store_trajectories=True)
        rep = run_lln(cfg)
        csv = rep.trajectories_csv()
        assert csv.splitlines()[0] == "trial,n,k,row_over_n,col_over_n"
        assert len(csv.splitlines()) > 10
