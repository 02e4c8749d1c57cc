import dataclasses
import hashlib
import os
import pickle
import struct
import subprocess
import sys
import textwrap
from array import array
from fractions import Fraction as F
from itertools import count
from pathlib import Path

import pytest

from hallq import gflinalg, sampler
from hallq.measures import DeadBranchError, characteristic_measure, cylinder_prob
from hallq.partitions import added_column, conjugate, covers_up, enumerate_partitions
from hallq.sampler import (
    ConditionalLawError,
    CounterRng,
    MatrixGrowthState,
    SamplerConfig,
    beta_targets,
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


class _RecordingPool:
    """Stand-in for ``ProcessPoolExecutor``: records the pool size and the
    chunks it is given, and runs them in this process."""

    made: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.chunks = []
        _RecordingPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, configs, chunks):
        self.chunks = [list(c) for c in chunks]
        return [fn(cfg, c) for cfg, c in zip(configs, self.chunks)]


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
        v = rng.uniform_vector(0, 1, 20, 3)  # packed: trailing zeros dropped
        assert len(v) <= 20 and all(0 <= x < 3 for x in v)
        assert 0 <= rng.uniform_vector(0, 1, 20, 2) < 2**20

    @pytest.mark.parametrize("q", [2, 3])
    def test_negative_cap_is_refused(self, q):
        with pytest.raises(ValueError, match="got cap -1"):
            CounterRng(0).leading_zero_count(0, 1, q, -1)

    def test_leading_zero_counts_distribution(self):
        rng = CounterRng(11)
        counts = [rng.leading_zero_count(0, step, 2, 30) for step in range(4000)]
        frac0 = sum(1 for c in counts if c == 0) / len(counts)
        assert abs(frac0 - 0.5) < 0.05  # geometric(1/2)


# ---------------------------------------------------------------------------
# the stream, byte by byte, as the sampler module docstring defines it
# ---------------------------------------------------------------------------


def _one_shot_block(seed, trial, step, index):
    data = b"".join(x.to_bytes(8, "little") for x in (trial, step, index))
    return hashlib.blake2b(data, key=seed.to_bytes(8, "little"), digest_size=64).digest()


def _ref_digits(block, trial, step, q):
    """Base-q digits: bits low first at q = 2, else bytes below the largest
    multiple of q taken mod q."""
    limit = (256 // q) * q
    for index in count():
        for byte in block(trial, step, index):
            if q == 2:
                for k in range(8):
                    yield (byte >> k) & 1
            elif byte < limit:
                yield byte % q


def _ref_leading_zero_count(block, trial, step, q, cap):
    z = 0
    for d in _ref_digits(block, trial, step, q):
        if d or z >= cap:
            return z
        z += 1


def _ref_uniform_below(block, trial, step, bound):
    bits = (bound - 1).bit_length() or 1
    digits = _ref_digits(block, trial, step, 2)
    while True:
        chunk = sum(next(digits) << k for k in range(bits))
        if chunk < bound:
            return chunk


def _ref_uniform_vector(block, trial, step, n, q):
    digits = _ref_digits(block, trial, step, q)
    return gflinalg.pack([next(digits) for _ in range(n)], q)


REF_SEEDS = (0, 7, 2**63 + 5, 2**64 - 1)
REF_QS = (2, 3, 4, 5, 7, 8, 9, 16, 256)
REF_CAPS = (0, 1, 3, 700)
REF_BOUNDS = (1, 2, 13, 2**64 + 1, 2**700 + 3)
REF_LENGTHS = (0, 1, 7, 8, 9, 511, 512, 513, 1100)


def _draws_match_referee(rng, block, steps, caps=REF_CAPS):
    for step in steps:
        for q in REF_QS:
            for cap in caps:
                assert rng.leading_zero_count(3, step, q, cap) == _ref_leading_zero_count(block, 3, step, q, cap)
            for n in REF_LENGTHS:
                assert rng.uniform_vector(4, step, n, q) == _ref_uniform_vector(block, 4, step, n, q)
        for bound in REF_BOUNDS:
            assert rng.uniform_below(5, step, bound) == _ref_uniform_below(block, 5, step, bound)


# blake2b digests of the first draws of each method at GOLDEN_SEED, recorded
# from the byte-at-a-time generators that the block-level draws replaced, so
# that the stream cannot drift unseen
GOLDEN_SEED = 0x9E3779B97F4A7C15
GOLDEN = {
    "leading_zero_count": "b5c2f13fb3debb91fececc8242d40523",
    "uniform_below": "f597f59145b25719e748cc0ae3acf030",
    "uniform_vector": "ebc9c32582c7860bdda99a51fdeb2f43",
}


def _golden_draws(rng) -> dict:
    """The pinned draws of each method, as lists."""
    return {
        "leading_zero_count": [
            rng.leading_zero_count(1, step, q, 40) for step in range(1500) for q in (2, 3)
        ],
        "uniform_below": [
            rng.uniform_below(2, step, bound) for step in range(1000) for bound in (13, 2**64 + 1, 2**700 + 3)
        ],
        "uniform_vector": [
            rng.uniform_vector(3, step, step * 37 % 1101, (2, 3, 4)[step % 3]) for step in range(2000)
        ],
    }


def _draw_digest(draws) -> str:
    return hashlib.blake2b("\n".join(map(repr, draws)).encode(), digest_size=16).hexdigest()


class TestStreamReferee:
    """Every draw equals the byte-level definition of the stream."""

    @pytest.mark.parametrize("seed", REF_SEEDS)
    def test_blocks_are_the_documented_digest(self, seed):
        rng = CounterRng(seed)
        for trial, step, index in ((0, 0, 0), (1, 2, 3), (2**64 - 1, 5, 1), (7, 2**64 - 1, 2**64 - 1)):
            assert rng.block(trial, step, index) == _one_shot_block(seed, trial, step, index)

    @pytest.mark.parametrize("counter", [2**64, -1])
    def test_counters_outside_64_bits_overflow(self, counter):
        rng = CounterRng(1)
        for args in ((counter, 0, 0), (0, counter, 0), (0, 0, counter)):
            with pytest.raises(OverflowError):
                rng.block(*args)

    @pytest.mark.parametrize("seed", REF_SEEDS)
    def test_draws_match_the_byte_level_definition(self, seed):
        rng = CounterRng(seed)
        _draws_match_referee(rng, rng.block, range(4))

    @pytest.mark.parametrize("kind", ["zero", "rejected"])
    def test_draws_cross_blocks(self, monkeypatch, kind):
        # the first two blocks of every stream are all zero bytes, or all
        # 255, which every q in REF_QS with 256 % q != 0 rejects and which
        # makes every chunk of uniform_below all ones
        rng = CounterRng(2**63 + 5)
        real = rng.block
        filler = bytes(64) if kind == "zero" else bytes([255]) * 64

        def block(trial, step, index):
            return filler if index < 2 else real(trial, step, index)

        monkeypatch.setattr(rng, "block", block)
        _draws_match_referee(rng, block, range(3), caps=REF_CAPS + (1500,))

    def test_golden_draws(self):
        draws = _golden_draws(CounterRng(GOLDEN_SEED))
        assert {name: _draw_digest(d) for name, d in draws.items()} == GOLDEN


def _linear_chain_step(cols, z):
    """Referee for the chain's box placement, on columns: scan for the first
    column of length at most z."""
    for j, c in enumerate(cols):
        if c <= z:
            cols[j] += 1
            return j + 1
    cols.append(1)
    return len(cols)


def _ref_chain_trial(rng, trial, n, q):
    """The Haar chain step by step: ``leading_zero_count`` and the linear
    scan on columns."""
    cols, path = [], []
    for step in range(1, n + 1):
        z = rng.leading_zero_count(trial, step, q, (cols[0] if cols else 0) + 1)
        path.append(_linear_chain_step(cols, z))
    return path, cols


class _ScriptedState:
    """Stands in for the keyed blake2b state of a CounterRng: the digest of
    the counters (trial, step, index) is script(trial, step, index)."""

    def __init__(self, script, data=b""):
        self.script, self.data = script, data

    def copy(self):
        return _ScriptedState(self.script, self.data)

    def update(self, data):
        self.data += data

    def digest(self):
        return self.script(*struct.unpack("<3Q", self.data))


def _scripted_rng(monkeypatch, script):
    rng = CounterRng(0)
    monkeypatch.setattr(rng, "_keyed", _ScriptedState(script))
    return rng


def _run_of_zeros(z, q):
    """A stream, as whole blocks, that starts with exactly z zero base-q
    digits; at q > 2, where q leaves bytes to skip, a skipped byte follows
    each zero digit."""
    if q == 2:
        stream = (1 << z).to_bytes(z // 8 + 1, "little")
    else:
        skipped = [255] if 256 % q else []
        stream = bytes([0, *skipped] * z + [1])
    return stream + bytes([1]) * (-len(stream) % 64)


def _steps_to(rows, q):
    """Streams for the steps that grow the type ``rows`` row by row: the box
    at (row i, column j) lands in column j on the draw z = i."""
    return [_run_of_zeros(i, q) for i, length in enumerate(rows) for _ in range(length)]


def _stream_script(streams):
    """Block (trial, step, index) of streams[step - 1], for every trial."""
    return lambda trial, step, index: streams[step - 1][64 * index : 64 * index + 64]


CHAIN_SEEDS = (3, 1009, 2**63 + 29)


class TestChainStep:
    @pytest.mark.parametrize("q", [2, 3])
    def test_rows_update_matches_linear_scan(self, monkeypatch, q):
        # every type of size <= 10, by rows, and every draw up to one past
        # the cap: one more step of the trial against the scan on columns
        for n in range(11):
            for lam in enumerate_partitions(n):
                cols = conjugate(lam)
                for z in range((cols[0] if cols else 0) + 3):
                    rng = _scripted_rng(monkeypatch, _stream_script(_steps_to(lam, q) + [_run_of_zeros(z, q)]))
                    path, rows = sampler.chain_haar_trial(rng, 0, n + 1, q)
                    slow = list(cols)
                    assert path[-1] == _linear_chain_step(slow, z), (lam, z)
                    assert tuple(rows) == conjugate(tuple(slow)), (lam, z)

    def test_columns_stay_partition(self):
        path, rows = sampler.chain_haar_trial(CounterRng(3), 0, 399, 2)
        cols = []
        for j in path:
            assert 1 <= j <= len(cols) + 1
            if j > len(cols):
                cols.append(0)
            cols[j - 1] += 1
            assert all(cols[i] >= cols[i + 1] for i in range(len(cols) - 1))
        assert sum(rows) == 399 and tuple(rows) == conjugate(tuple(cols))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
    def test_trial_matches_step_by_step_referee(self, monkeypatch, q):
        calls = []
        for seed in CHAIN_SEEDS:
            rng = CounterRng(seed)
            real = rng.leading_zero_count
            monkeypatch.setattr(rng, "leading_zero_count", lambda *args: calls.append(args) or real(*args))
            for n in (1, 2, 50, 400):
                for trial in range(30):
                    path, rows = sampler.chain_haar_trial(rng, trial, n, q)
                    assert not calls, "real blocks decide the draw in place"
                    ref_path, ref_cols = _ref_chain_trial(rng, trial, n, q)
                    calls.clear()
                    assert list(path) == ref_path, (seed, n, trial)
                    assert tuple(rows) == conjugate(tuple(ref_cols)), (seed, n, trial)

    @pytest.mark.parametrize("q, filler", [(2, bytes(64)), (3, bytes([255]) * 64), (3, bytes(64)),
                                           (3, bytes([0, 3, 255, 6]) * 16)],
                             ids=["q2-zero", "q3-skipped", "q3-zero-digits", "q3-mixed"])
    def test_undecided_block_reads_on(self, monkeypatch, q, filler):
        # block 0 of the last steps holds no nonzero digit, so their draws
        # read on into block 1.  The rows change value between the count of
        # zero digits in block 0 and the full run, so a draw cut short at
        # block 0 puts the box in the wrong column.
        lam = [2] * 516 + [1] * 100 if q == 2 else [2] * 70 + [1] * 70
        streams = _steps_to(lam, q) + [filler + _run_of_zeros(z, q) for z in (3, 9, 75)]
        rng = _scripted_rng(monkeypatch, _stream_script(streams))
        real = rng.leading_zero_count
        steps = []
        monkeypatch.setattr(rng, "leading_zero_count", lambda t, step, *a: steps.append(step) or real(t, step, *a))
        path, rows = sampler.chain_haar_trial(rng, 0, len(streams), q)
        limit = 256 // q * q
        undecided = [step for step, stream in enumerate(streams, 1)
                     if not any(b if q == 2 else b < limit and b % q for b in stream[:64])]
        assert steps == undecided and undecided[-3:] == [len(streams) - 2, len(streams) - 1, len(streams)]
        ref_path, ref_cols = _ref_chain_trial(rng, 0, len(streams), q)
        assert list(path) == ref_path and tuple(rows) == conjugate(tuple(ref_cols))

    def test_step_law_is_exact_haar_law(self, monkeypatch):
        # empirical column frequencies of the step from a fixed type against
        # the exact law t^(c_j) - t^(c_{j-1}): the steps to the type are
        # scripted, the last step's block is the real stream's
        base = [4, 2, 1]  # conjugate of (3,2,1,1)
        build = _steps_to(conjugate(tuple(base)), 2)
        real = CounterRng(5)
        rng = _scripted_rng(monkeypatch, lambda trial, step, index: (
            build[step - 1][64 * index : 64 * index + 64] if step <= len(build) else real.block(0, trial, index)))
        hits = {}
        trials = 20000
        for trial in range(trials):
            j = sampler.chain_haar_trial(rng, trial, len(build) + 1, 2)[0][-1]
            hits[j] = hits.get(j, 0) + 1
        t = F(1, 2)
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

    @pytest.mark.parametrize("q", [2, 3])
    def test_walk_stopped_at_the_box_column_leaves_the_full_filtration(self, q):
        # the powers past the box column are not inserted; at every step (not
        # only every 64) the column must be the one the type of xi grew in,
        # and a rebuild must find the same images
        state = MatrixGrowthState(q=q)
        rng = CounterRng(11)
        prev = ()
        for step in range(1, 81):
            j = matrix_haar_step(state, rng, 0, step)
            rho = gflinalg.nilpotent_type(state.xi, q)
            assert j == added_column(prev, rho) and state.rho == rho
            fresh = [span for span in gflinalg.image_filtration(state.xi, q) if span.dim]
            sampler._check_same_filtration(state.images, fresh)
            prev = rho


class TestMarkov:
    def test_haar_conditionals_match_uniform_columns(self):
        meas = characteristic_measure(HAAR, GroundParams(2))
        for n in range(0, 7):
            for rho in enumerate_partitions(n):
                counts = gflinalg.extension_counts(rho, 2)
                m_rho = cylinder_prob(meas, rho)
                for sigma, c in counts.items():
                    assert F(c) * cylinder_prob(meas, sigma) / m_rho == F(c, 2**n)

    def test_step_support(self):
        meas = characteristic_measure(TWO, GroundParams(2))
        rng = CounterRng(1)
        rho = ()
        for step in range(1, 10):
            rho = markov_step(rho, meas, rng, 0, step)
            assert sum(rho) == step

    def test_dead_branch(self):
        meas = characteristic_measure(BETA1, GroundParams(2))
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

    def test_corrupt_cover_value_raises_under_optimize(self):
        # one wrong cover value from the one-pass sweep breaks the law, under -O too
        code = textwrap.dedent("""
            from fractions import Fraction
            from hallq import gflinalg, sampler
            from hallq.measures import characteristic_measure
            from hallq.symfun import GroundParams, SpecEntry, ThomaSpec
            assert False, "asserts are live: not running under -O"
            exact = gflinalg.cover_subspace_weight_sums
            def corrupt(rho, q, a, b):
                sums = exact(rho, q, a, b)
                sigma = next(iter(sums))
                sums[sigma] += 1
                return sums
            gflinalg.cover_subspace_weight_sums = corrupt
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

    def test_beta_measure_forced_path(self):
        meas = characteristic_measure(BETA1, GroundParams(2))
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
        cfg = SamplerConfig(mode="haar", engine="chain", q=2, n_max=50, trials=5, seed=11)
        first, second = run_lln(cfg), run_lln(cfg)
        assert first.records == second.records
        assert first.to_json() == second.to_json()
        assert first.trajectories_csv() == second.trajectories_csv()
        assert run_lln(dataclasses.replace(cfg, seed=12)).records != first.records

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

    def test_worker_error_propagates_without_serial_rerun(self, monkeypatch):
        monkeypatch.setattr(sampler, "run_trials", _run_trials_failing_in_workers)
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)  # a real pool of 2 on any host
        cfg = SamplerConfig(mode="haar", engine="chain", q=2, n_max=10, trials=4, seed=3, threads=2)
        with pytest.raises(RuntimeError, match="worker failure"):
            run_lln(cfg)

    def test_pool_is_no_larger_than_the_trial_count(self, monkeypatch):
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "made", [])
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 8)
        cfg = SamplerConfig(mode="haar", engine="chain", q=2, n_max=10, trials=1, seed=3)
        serial = run_lln(cfg)
        assert run_lln(dataclasses.replace(cfg, threads=3)).records == serial.records
        assert _RecordingPool.made == []  # one trial: one worker, this process
        two = dataclasses.replace(cfg, trials=2)
        assert run_lln(dataclasses.replace(two, threads=3)).records == run_lln(two).records
        [pool] = _RecordingPool.made
        assert pool.max_workers == 2 and pool.chunks == [[0], [1]]

    def test_pool_is_no_larger_than_the_cpu_count(self, monkeypatch):
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "made", [])
        assert sampler._usable_cpus() >= 1
        cfg = SamplerConfig(mode="haar", engine="chain", q=2, n_max=10, trials=5, seed=3)
        serial = run_lln(cfg)
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
        assert run_lln(dataclasses.replace(cfg, threads=4)).records == serial.records
        assert _RecordingPool.made == []  # one CPU: no pool
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        assert run_lln(dataclasses.replace(cfg, threads=4)).records == serial.records
        [pool] = _RecordingPool.made
        assert pool.max_workers == 2 and pool.chunks == [[0, 2, 4], [1, 3]]

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
            {"threads": 0},
            {"threads": -2},
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
        cfg = SamplerConfig(mode="haar", engine="chain", q=2, n_max=20, trials=2, seed=1, snapshot_every=6)
        rep = run_lln(cfg)
        lines = rep.trajectories_csv().splitlines()
        assert lines[0] == "trial,n,k,row_over_n,col_over_n"
        want = []  # one line per record, snapshot (steps 6, 12, 18, 20) and row k <= k_max
        for rec in rep.records:
            for n, cols in rec.snapshots:
                rows = conjugate(cols)
                for k in range(cfg.k_max):
                    r = rows[k] / n if k < len(rows) else 0.0
                    c = cols[k] / n if k < len(cols) else 0.0
                    want.append(f"{rec.trial},{n},{k + 1},{r},{c}")
        assert lines[1:] == want and len(want) == 2 * 4 * cfg.k_max


class TestRecords:
    @pytest.mark.parametrize(
        "cfg",
        [
            SamplerConfig(engine="chain", q=2, n_max=90, trials=2, seed=5, snapshot_every=7),
            SamplerConfig(engine="chain", q=3, n_max=60, trials=2, seed=6, snapshot_every=7),
            SamplerConfig(engine="matrix", q=2, n_max=70, trials=2, seed=7, snapshot_every=7),
            SamplerConfig(mode="measure", spec=TWO, q=2, n_max=15, trials=2, seed=8, snapshot_every=7),
        ],
        ids=["chain-q2", "chain-q3", "matrix-q2", "measure-q2"],
    )
    def test_snapshots_are_read_from_the_path(self, cfg):
        each_step = run_lln(dataclasses.replace(cfg, snapshot_every=1)).records
        for rec, full in zip(run_lln(cfg).records, each_step):
            steps = list(full.snapshots)
            assert [n for n, _ in steps] == list(range(1, cfg.n_max + 1))
            prev = ()
            for n, cols in steps:
                assert type(cols) is tuple and conjugate(cols) in covers_up(prev)
                prev = conjugate(cols)
            assert steps[-1][1] == rec.final_cols and prev == rec.final_rows
            taken = [(n, cols) for n, cols in steps if n % 7 == 0 or n == cfg.n_max]
            assert list(rec.snapshots) == taken and len(rec.snapshots) == len(taken)
            assert rec.snapshots[1] == taken[1] and rec.snapshots[-2:] == taken[-2:]
            assert list(rec.snapshots.path) == [added_column(conjugate(a), conjugate(b))
                                                for (_, a), (_, b) in zip([(0, ())] + steps, steps)]

    def test_record_keeps_one_machine_integer_per_step(self):
        rec = run_trials(SamplerConfig(engine="chain", q=2, n_max=400, trials=1, seed=42), [0])[0]
        assert isinstance(rec.snapshots.path, array) and len(rec.snapshots.path) == 400
        # over 11 KB when the record held its 50 snapshot tuples
        assert len(pickle.dumps(rec)) < 4096
        assert pickle.loads(pickle.dumps(rec)) == rec
