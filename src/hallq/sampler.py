"""Monte Carlo growth of Jordan types of random unitriangular matrices.

Three engines:

* ``chain``  — samples the exact induced Markov chain on Jordan types for the
  Haar measure, keeping the type by rows.  One box is added per step, to the
  first column of length at most z, the count of leading zero base-q digits
  of the step's stream, read in place from its block 0; this reproduces the
  column law t^(rho'_j) - t^(rho'_{j-1}) exactly.
* ``matrix`` — grows an explicit unitriangular matrix one uniform column at a
  time.  The strictly-triangular part is stored by packed columns, so the
  new column is appended as it is, and each new column is classified
  against the image filtration, kept incrementally in ``gflinalg``'s span
  kernel (the same code for every q) and rebuilt from the columns alone
  every 64 steps as a check.
* ``markov`` — grows a type path under any central measure via the exact
  conditional law c_{rho,sigma}(q) M_sigma / M_rho.

Randomness is a counter-based deterministic generator: block i of the stream
for (trial, step) is blake2b(key = seed as 8 little-endian bytes,
data = trial || step || i, each 8 little-endian bytes, digest 64 bytes), and
the stream is block 0 || block 1 || ...  Its draws, digit by digit:

* bits are read least significant first within each byte, so bit k of the
  stream is bit k of the little-endian integer of the concatenated blocks;
* the base-q digits are those bits at q = 2; for q > 2 each byte below
  floor(256/q)*q gives the digit byte mod q, and larger bytes are skipped;
* ``leading_zero_count(q, cap)`` is min(number of leading zero base-q
  digits, cap);
* ``uniform_below(bound)`` cuts the bits into chunks of
  b = max(1, (bound-1).bit_length()) bits, each read as a b-bit integer
  (first bit lowest), and returns the first chunk below bound, rejecting
  whole chunks;
* ``uniform_vector(n, q)`` is the first n base-q digits, as the entries of
  a vector of F_q^n.

Identical (seed, trial, step) always yields identical draws, so trials may
be partitioned across workers in any way without changing results.

A trial's record keeps its path: the column of the box added at each step,
one machine integer per step.  Its snapshots (the column lengths every
``snapshot_every`` steps and at the last step), and so the CSV, are read
from that path when asked for.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import lcm, sqrt
from typing import Optional

from . import gflinalg, measures
from .measures import CentralMeasure, DeadBranchError
from .partitions import Partition, added_column, conjugate, validate_partition
from .symfun import SpecEntry, ThomaSpec


# the data of block i of the stream for (trial, step): trial || step || i
_COUNTERS = struct.Struct("<3Q")


@lru_cache(maxsize=None)
def _zero_run(q: int) -> tuple[bytes, bytes]:
    """For each byte value, the zero base-q digits it adds to the stream's
    leading run, and 1 if it ends the run by holding a nonzero digit."""
    if q == 2:  # a nonzero byte ends the run after its trailing zero bits
        return bytes([8] + [(b & -b).bit_length() - 1 for b in range(1, 256)]), bytes([0] + [1] * 255)
    limit = (256 // q) * q  # larger bytes are skipped
    return bytes(b < limit and not b % q for b in range(256)), bytes(b < limit and b % q > 0 for b in range(256))


class CounterRng:
    """Deterministic keyed stream; see the module docstring for its exact
    definition.  Every draw works on whole blocks."""

    def __init__(self, seed: int):
        self.seed = seed
        self._keyed = hashlib.blake2b(key=seed.to_bytes(8, "little"), digest_size=64)

    def block(self, trial: int, step: int, index: int) -> bytes:
        """Block ``index`` of the stream for (trial, step): the keyed state,
        copied, over the counters.  OverflowError unless each counter lies
        in [0, 2^64)."""
        try:
            data = _COUNTERS.pack(trial, step, index)
        except struct.error:
            raise OverflowError(f"stream counters must lie in [0, 2^64), got {(trial, step, index)}") from None
        h = self._keyed.copy()
        h.update(data)
        return h.digest()

    def leading_zero_count(self, trial: int, step: int, q: int, cap: int) -> int:
        """Number of leading zero digits of the base-q stream, capped at
        cap >= 0."""
        if cap < 0:
            raise ValueError(f"leading_zero_count needs cap >= 0, got cap {cap}")
        zeros, ends = _zero_run(q)
        z = 0
        for index in count():
            for byte in self.block(trial, step, index):
                z += zeros[byte]
                if ends[byte] or z >= cap:
                    return min(z, cap)

    def uniform_below(self, trial: int, step: int, bound: int) -> int:
        """Uniform integer in [0, bound): successive chunks of
        (bound - 1).bit_length() bits of the stream, the first below bound."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = (bound - 1).bit_length() or 1
        mask = (1 << bits) - 1
        x = have = index = 0
        while True:
            while have < bits:
                x |= int.from_bytes(self.block(trial, step, index), "little") << have
                have += 512
                index += 1
            draw = x & mask
            if draw < bound:
                return draw
            x >>= bits
            have -= bits

    def uniform_vector(self, trial: int, step: int, n: int, q: int):
        """The first n base-q digits of the stream as a vector of F_q^n, in
        ``gflinalg.pack`` form."""
        if q == 2:
            blocks = b"".join(self.block(trial, step, i) for i in range(-(-n // 512)))
            return int.from_bytes(blocks, "little") & ((1 << n) - 1)
        limit = (256 // q) * q
        digits: list[int] = []
        index = 0
        while len(digits) < n:
            digits += [byte % q for byte in self.block(trial, step, index) if byte < limit]
            index += 1
        return gflinalg.pack(digits[:n], q)


# ---------------------------------------------------------------------------
# growth engines
# ---------------------------------------------------------------------------


def chain_haar_trial(rng: CounterRng, trial: int, n: int, q: int) -> tuple[array, list[int]]:
    """One trial of the Haar chain: the box column of each of its n steps,
    and its final type by rows.  Step s counts the leading zero digits z of
    its stream in block 0, in place, and calls ``leading_zero_count(trial,
    s, q, len(rows) + 1)`` only when that block holds no nonzero digit.  The
    box goes to the first column of length at most z: column rows[z] + 1
    (1 when z >= len(rows)), in the first row k <= z with rows[k] == rows[z].
    """
    copy, pack, (zeros, ends) = rng._keyed.copy, _COUNTERS.pack, _zero_run(q)
    path, rows = array("I"), []
    for step in range(1, n + 1):
        h = copy()
        h.update(pack(trial, step, 0))
        z = 0
        for byte in h.digest():
            z += zeros[byte]
            if ends[byte]:
                break
        else:
            z = rng.leading_zero_count(trial, step, q, len(rows) + 1)
        if z >= len(rows):
            z = len(rows)
            rows.append(0)
        r = rows[z]
        while z and rows[z - 1] == r:
            z -= 1
        rows[z] += 1
        path.append(r + 1)
    return path, rows


@dataclass
class MatrixGrowthState:
    """Explicit matrix path: the strictly upper part xi, stored by packed
    columns (see ``gflinalg.pack``), and its image filtration."""

    q: int
    cols: list[int] = field(default_factory=list)  # conjugate of the type
    xi: list = field(default_factory=list)  # xi[j] = column j of xi
    images: list = field(default_factory=list)  # images[k-1] = Span of Im xi^k
    steps_since_refresh: int = 0

    @property
    def n(self) -> int:
        return len(self.xi)

    @property
    def rho(self) -> Partition:
        return conjugate(tuple(self.cols))


def matrix_haar_step(state: MatrixGrowthState, rng: CounterRng, trial: int, step: int) -> int:
    """One uniform-column growth step; returns the box column.

    The new column b is classified by j = min k with xi^(k-1) b in Im(xi^k),
    and each Im xi^k absorbs xi^(k-1) b, one reduction per power; b is then
    appended to xi as its new column.  The walk stops at j: if
    xi^(j-1) b = xi^j w, then xi^(k-1) b = xi^k (xi^(k-j) w) for every
    k >= j, so the later powers are already in their images.  Every 64
    steps the filtration is rebuilt from xi alone and compared, as an exact
    revalidation of the incremental updates.
    """
    q, xi, images = state.q, state.xi, state.images
    b = v = rng.uniform_vector(trial, step, len(xi), q)
    j = 1
    while v:  # v = xi^(j-1) b
        if j > len(images):
            images.append(gflinalg.Span(q))
        if not images[j - 1].insert(v):
            break
        v = gflinalg.combine(xi, v, q)
        j += 1
    xi.append(b)
    if j <= len(state.cols):
        state.cols[j - 1] += 1
    else:
        state.cols.append(1)
    state.steps_since_refresh += 1
    if state.steps_since_refresh >= 64:
        fresh = [span for span in gflinalg.image_filtration(xi, q) if span.dim]
        _check_same_filtration(images, fresh)
        state.steps_since_refresh = 0
    return j


def _check_same_filtration(incremental, fresh) -> None:
    if len(incremental) != len(fresh):
        raise ArithmeticError(f"filtration depth drifted: {len(incremental)} incremental, {len(fresh)} rebuilt")
    for k, (inc, ref) in enumerate(zip(incremental, fresh), start=1):
        if inc.dim != ref.dim:
            raise ArithmeticError(f"rank of Im xi^{k} drifted: {inc.dim} incremental, {ref.dim} rebuilt")
        for v in ref.vectors():
            if not inc.contains(v):
                raise ArithmeticError(f"span of Im xi^{k} drifted: rebuilt vector {v} is missing")


class ConditionalLawError(ArithmeticError):
    """The exact conditional law of a growth step is not a probability law."""


def markov_step(rho: Partition, meas: CentralMeasure, rng: CounterRng, trial: int, step: int) -> Partition:
    """One exact conditional growth step under a central measure, with the
    closed-form extension counts and the cover values of
    ``measures.cover_cylinders``."""
    rho = validate_partition(rho)
    m_rho = measures.cylinder_prob(meas, rho)
    if m_rho == 0:
        raise DeadBranchError(f"zero-probability cylinder at {rho}")
    q = int(meas.ground.q)
    cts = gflinalg.extension_counts_closed(rho, q)
    sigmas = []
    probs = []
    for sigma, m_sigma in measures.cover_cylinders(meas, rho).items():
        c = cts.get(sigma, 0)
        if not c:
            continue
        p = Fraction(c) * m_sigma / m_rho
        if p:
            sigmas.append(sigma)
            probs.append(p)
    total = sum(probs, Fraction(0))
    if total != 1:
        raise ConditionalLawError(f"conditional law sums to {total} at {rho}")
    denom = lcm(*(p.denominator for p in probs))
    draw = rng.uniform_below(trial, step, denom)
    acc = 0
    for sigma, p in zip(sigmas, probs):
        acc += p.numerator * (denom // p.denominator)
        if draw < acc:
            return sigma
    raise ConditionalLawError(f"draw {draw} of {denom} fell past the law at {rho} (mass {acc})")


# ---------------------------------------------------------------------------
# frequency laws and reports
# ---------------------------------------------------------------------------


def expected_frequency_multiset(spec: ThomaSpec, t: Fraction, k_max: int) -> list[Fraction]:
    """Sorted prefix of the merged geometric alpha lists (row-frequency
    targets); beta targets are the beta values themselves."""
    if any(e.geometric for e in spec.alphas):
        raise ValueError("expected atom alphas")
    values: list[Fraction] = []
    t = Fraction(t)
    for e in spec.alphas:
        term = (1 - t) * e.value
        for _ in range(k_max):
            if not term:
                break
            values.append(term)
            term *= t
    values.sort(reverse=True)
    return values[:k_max]


def beta_targets(spec: ThomaSpec, k_max: int) -> list[Fraction]:
    return [e.value for e in spec.betas[:k_max]]


# the engines each mode accepts; measure mode runs the markov engine under
# either name ("chain" is the CLI default)
ENGINES = {"haar": ("chain", "matrix"), "measure": ("markov", "chain")}

MATRIX_N_LIMIT = 600  # memory/time guard for the explicit-matrix engine
GATE_ROWS = 4  # row frequencies the haar gate reads (FrequencyReport.gate's default k_se)


@dataclass
class SamplerConfig:
    mode: str = "haar"  # "haar" or "measure"
    engine: str = "chain"  # one of ENGINES[mode]
    q: int = 2
    n_max: int = 400
    trials: int = 200
    seed: int = 42
    k_max: int = 8
    snapshot_every: int = 0  # 0: auto
    spec: Optional[ThomaSpec] = None
    fast_counts: bool = False  # read by nothing; kept while perfbench/workloads.py still passes it
    threads: int = 1

    def __post_init__(self):
        gflinalg.field(self.q)  # raises ValueError unless F_q is supported
        if self.mode not in ENGINES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {tuple(ENGINES)}")
        if self.engine not in ENGINES[self.mode]:
            raise ValueError(f"{self.mode} mode runs the engines {ENGINES[self.mode]}, not {self.engine!r}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")
        if self.mode == "haar" and self.engine == "matrix" and self.n_max > MATRIX_N_LIMIT:
            raise ValueError(f"matrix engine limited to n <= {MATRIX_N_LIMIT}; use the chain engine")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must satisfy 0 <= seed < 2^64, got {self.seed}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be at least 1, got {self.k_max}")
        if self.mode == "haar" and self.k_max < GATE_ROWS:
            raise ValueError(f"the haar gate reads {GATE_ROWS} row frequencies, so k_max must be at least "
                             f"{GATE_ROWS}, got {self.k_max}")

    def resolved_snapshot(self) -> int:
        return self.snapshot_every or max(1, self.n_max // 50)


@dataclass(frozen=True)
class PathSnapshots(Sequence):
    """The snapshots (n, cols at n) of one trial, read from its path:
    path[s-1] is the column (1-based) of the box added at step s.  There is
    a snapshot every ``every`` steps and one at the last step."""

    path: array
    every: int

    def __iter__(self):
        cols: list[int] = []
        last = len(self.path)
        for step, j in enumerate(self.path, 1):
            if j > len(cols):
                cols.append(1)
            else:
                cols[j - 1] += 1
            if step % self.every == 0 or step == last:
                yield step, tuple(cols)

    def __len__(self) -> int:
        return -(-len(self.path) // self.every)

    def __getitem__(self, index):
        return list(self)[index]


@dataclass
class TrialRecord:
    """One trial: its final type, by rows and by columns, and its path as
    snapshots."""

    trial: int
    final_rows: tuple[int, ...]
    final_cols: tuple[int, ...]
    snapshots: Sequence[tuple[int, tuple[int, ...]]]  # (n, cols at n); a PathSnapshots


@dataclass
class FrequencyReport:
    config: SamplerConfig
    counts_source: str
    records: list[TrialRecord]

    def _freqs(self, kind: str) -> list[list[float]]:
        n = self.config.n_max
        out = []
        for rec in self.records:
            lam = rec.final_rows if kind == "rows" else rec.final_cols
            out.append([(lam[k] / n if k < len(lam) else 0.0) for k in range(self.config.k_max)])
        return out

    def means_and_se(self, kind: str) -> tuple[list[float], list[float]]:
        data = self._freqs(kind)
        trials = len(data)
        means = [sum(col) / trials for col in zip(*data)]
        ses = []
        for k, col in enumerate(zip(*data)):
            mu = means[k]
            var = sum((x - mu) ** 2 for x in col) / (trials - 1) if trials > 1 else 0.0
            ses.append(sqrt(var / trials))
        return means, ses

    def _target_spec(self) -> ThomaSpec:
        """The point whose limit frequencies are the targets: the Haar atom
        in haar mode, else the config's spec."""
        if self.config.mode == "haar":
            return ThomaSpec(alphas=(SpecEntry(Fraction(1)),))
        return self.config.spec

    def targets(self) -> dict:
        spec = self._target_spec()
        t = Fraction(1, self.config.q)
        return {
            "rows": [str(x) for x in expected_frequency_multiset(spec, t, self.config.k_max)],
            "cols": [str(x) for x in beta_targets(spec, self.config.k_max)],
        }

    def gate(self, k_se: int = GATE_ROWS, k_abs: int = 2, abs_tol: float = 0.02) -> dict:
        """Statistical verdicts: mean row frequencies within 3 standard
        errors of the targets for k <= k_se, and within abs_tol for
        k <= k_abs."""
        means, ses = self.means_and_se("rows")
        targets = expected_frequency_multiset(self._target_spec(), Fraction(1, self.config.q), self.config.k_max)
        rows = []
        ok = True
        for k in range(max(k_se, k_abs)):
            target = float(targets[k]) if k < len(targets) else 0.0
            diff = abs(means[k] - target)
            within_se = diff <= 3 * ses[k] if k < k_se else None
            within_abs = diff <= abs_tol if k < k_abs else None
            if within_se is False or within_abs is False:
                ok = False
            rows.append(
                {
                    "k": k + 1,
                    "mean": means[k],
                    "se": ses[k],
                    "target": target,
                    "within_3se": within_se,
                    "within_abs": within_abs,
                }
            )
        return {"ok": ok, "rows": rows}

    def to_dict(self) -> dict:
        means_r, se_r = self.means_and_se("rows")
        means_c, se_c = self.means_and_se("cols")
        return {
            "mode": self.config.mode,
            "engine": self.config.engine,
            "q": self.config.q,
            "n": self.config.n_max,
            "trials": self.config.trials,
            "seed": self.config.seed,
            "counts_source": self.counts_source,
            "row_freq_means": means_r,
            "row_freq_se": se_r,
            "col_freq_means": means_c,
            "col_freq_se": se_c,
            "targets": self.targets(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def trajectories_csv(self) -> str:
        lines = ["trial,n,k,row_over_n,col_over_n"]
        for rec in self.records:
            for n, cols in rec.snapshots:
                rows = conjugate(cols)
                for k in range(self.config.k_max):
                    r = rows[k] / n if k < len(rows) else 0.0
                    c = cols[k] / n if k < len(cols) else 0.0
                    lines.append(f"{rec.trial},{n},{k + 1},{r},{c}")
        return "\n".join(lines) + "\n"


def _run_single_trial(config: SamplerConfig, rng: CounterRng, trial: int,
                      meas: Optional[CentralMeasure]) -> TrialRecord:
    """One trial, recorded as the box column of every step."""
    steps = range(1, config.n_max + 1)
    path = array("I")
    if config.mode == "measure":
        rho: Partition = ()
        for step in steps:
            sigma = markov_step(rho, meas, rng, trial, step)
            path.append(added_column(rho, sigma))
            rho = sigma
        final_cols = conjugate(rho)
        final_rows = conjugate(final_cols)
    elif config.engine == "chain":
        path, rows = chain_haar_trial(rng, trial, config.n_max, config.q)
        final_rows = tuple(rows)
        final_cols = conjugate(final_rows)
    else:
        state = MatrixGrowthState(q=config.q)
        path.extend(matrix_haar_step(state, rng, trial, step) for step in steps)
        final_cols = tuple(state.cols)
        final_rows = conjugate(final_cols)
    return TrialRecord(trial, final_rows, final_cols, PathSnapshots(path, config.resolved_snapshot()))


def run_trials(config: SamplerConfig, trial_indices: list[int]) -> list[TrialRecord]:
    """Run the given trials; results depend only on (seed, trial, step)."""
    rng = CounterRng(config.seed)
    meas = None
    if config.mode == "measure":
        if config.spec is None:
            raise ValueError("measure mode needs a spec")
        from .symfun import GroundParams

        meas = measures.characteristic_measure(config.spec, GroundParams(config.q))
    return [_run_single_trial(config, rng, t, meas) for t in trial_indices]


def merge_records(parts: list[list[TrialRecord]]) -> list[TrialRecord]:
    merged = [rec for chunk in parts for rec in chunk]
    merged.sort(key=lambda r: r.trial)
    return merged


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def run_lln(config: SamplerConfig) -> FrequencyReport:
    """Full run; deterministic given (config, seed), trial-partitionable.

    At most min(threads, trials, usable CPUs) workers start: none without a
    trial or a CPU to run it.  Results do not depend on the worker count."""
    indices = list(range(config.trials))
    workers = min(config.threads, config.trials, _usable_cpus())
    if workers > 1:
        chunks = [indices[i :: workers] for i in range(workers)]
        from concurrent.futures import ProcessPoolExecutor

        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, NotImplementedError):  # no process pool on this platform
            parts = [run_trials(config, chunk) for chunk in chunks]
        else:
            with pool:
                parts = list(pool.map(run_trials, [config] * len(chunks), chunks))
        records = merge_records(parts)
    else:
        records = run_trials(config, indices)
    counts_source = "closed-form counts" if config.mode == "measure" else "exact"
    return FrequencyReport(config=config, counts_source=counts_source, records=records)
