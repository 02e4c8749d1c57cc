"""Monte Carlo growth of Jordan types of random unitriangular matrices.

Three engines:

* ``chain``  — samples the exact induced Markov chain on Jordan types for the
  Haar measure.  One box is added per step; the column is read off a
  geometric variable (the count of leading zero base-q digits of the random
  stream), which reproduces the column law t^(rho'_j) - t^(rho'_{j-1})
  exactly.
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
data = trial || step || i, each 8 little-endian bytes, digest 64 bytes).
Identical (seed, trial, step) always yields identical draws, so trials may
be partitioned across workers in any way without changing results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, sqrt
from typing import Optional

from . import gflinalg, measures
from .measures import CentralMeasure, DeadBranchError
from .partitions import Partition, conjugate, covers_up, validate_partition
from .symfun import SpecEntry, ThomaSpec


class CounterRng:
    """Deterministic keyed stream; see the module docstring for the exact
    byte-level definition."""

    def __init__(self, seed: int):
        self.seed = seed
        self._key = seed.to_bytes(8, "little", signed=False)

    def block(self, trial: int, step: int, index: int) -> bytes:
        data = (
            trial.to_bytes(8, "little")
            + step.to_bytes(8, "little")
            + index.to_bytes(8, "little")
        )
        return hashlib.blake2b(data, key=self._key, digest_size=64).digest()

    def byte_stream(self, trial: int, step: int):
        index = 0
        while True:
            for b in self.block(trial, step, index):
                yield b
            index += 1

    def bit_stream(self, trial: int, step: int):
        for byte in self.byte_stream(trial, step):
            for k in range(8):
                yield (byte >> k) & 1

    def digit_stream(self, trial: int, step: int, q: int):
        """Uniform base-q digits by byte rejection."""
        if q == 2:
            yield from self.bit_stream(trial, step)
            return
        limit = (256 // q) * q
        for byte in self.byte_stream(trial, step):
            if byte < limit:
                yield byte % q

    def leading_zero_count(self, trial: int, step: int, q: int, cap: int) -> int:
        """Number of leading zero digits of the base-q stream, capped."""
        z = 0
        for d in self.digit_stream(trial, step, q):
            if d or z >= cap:
                return z
            z += 1
        raise AssertionError("unreachable")

    def uniform_below(self, trial: int, step: int, bound: int) -> int:
        """Uniform integer in [0, bound) by bit rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = (bound - 1).bit_length() or 1
        acc = 0
        have = 0
        for bit in self.bit_stream(trial, step):
            acc |= bit << have
            have += 1
            if have == bits:
                if acc < bound:
                    return acc
                acc = 0
                have = 0
        raise AssertionError("unreachable")

    def uniform_vector(self, trial: int, step: int, n: int, q: int) -> tuple[int, ...]:
        gen = self.digit_stream(trial, step, q)
        return tuple(next(gen) for _ in range(n))


# ---------------------------------------------------------------------------
# growth engines
# ---------------------------------------------------------------------------


def chain_haar_step(cols: list[int], z: int) -> int:
    """Add one box given the geometric draw z; returns the column index.

    The box goes to the first column j with cols[j-1] <= z, which happens
    with probability t^(cols_j) - t^(cols_{j-1}) as required.
    """
    for j, c in enumerate(cols):
        if c <= z:
            cols[j] += 1
            return j + 1
    cols.append(1)
    return len(cols)


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

    The new column b is classified by j = min k with xi^(k-1) b in Im(xi^k);
    afterwards each Im xi^k absorbs xi^(k-1) b and b is appended to xi as its
    new column.  Every 64 steps the filtration is rebuilt from xi alone and
    compared, as an exact revalidation of the incremental updates.
    """
    q, xi, images = state.q, state.xi, state.images
    b = gflinalg.pack(rng.uniform_vector(trial, step, len(xi), q), q)
    powers = []  # b, xi b, xi^2 b, ... while nonzero
    v = b
    while v:
        powers.append(v)
        v = gflinalg.combine(xi, v, q)
    j = next(
        (k for k, v in enumerate(powers, 1) if k <= len(images) and images[k - 1].contains(v)),
        len(powers) + 1,
    )
    for k, v in enumerate(powers):
        if k == len(images):
            images.append(gflinalg.Span(q))
        images[k].insert(v)
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
    closed-form extension counts."""
    rho = validate_partition(rho)
    m_rho = measures.cylinder_prob(meas, rho)
    if m_rho == 0:
        raise DeadBranchError(f"zero-probability cylinder at {rho}")
    q = int(meas.ground.q)
    cts = gflinalg.extension_counts_closed(rho, q)
    sigmas = []
    probs = []
    for sigma in covers_up(rho):
        c = cts.get(sigma, 0)
        if not c:
            continue
        p = Fraction(c) * measures.cylinder_prob(meas, sigma) / m_rho
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
    convention: str = measures.DEFAULT_CONVENTION
    fast_counts: bool = False  # read by nothing; kept while perfbench/workloads.py still passes it
    store_trajectories: bool = False
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
        if self.k_max < 1:
            raise ValueError(f"k_max must be at least 1, got {self.k_max}")
        if self.mode == "haar" and self.k_max < GATE_ROWS:
            raise ValueError(f"the haar gate reads {GATE_ROWS} row frequencies, so k_max must be at least "
                             f"{GATE_ROWS}, got {self.k_max}")

    def resolved_snapshot(self) -> int:
        return self.snapshot_every or max(1, self.n_max // 50)


@dataclass
class TrialRecord:
    trial: int
    final_rows: tuple[int, ...]
    final_cols: tuple[int, ...]
    snapshots: list[tuple[int, tuple[int, ...]]]  # (n, cols at n)


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
        doc = {
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
        if self.config.store_trajectories:
            doc["trajectories"] = [
                {
                    "trial": rec.trial,
                    "snapshots": [
                        {"n": n, "cols": list(cols)} for n, cols in rec.snapshots
                    ],
                }
                for rec in self.records
            ]
        return doc

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
    every = config.resolved_snapshot()
    snapshots: list[tuple[int, tuple[int, ...]]] = []
    if config.mode == "measure":
        rho: Partition = ()
        for step in range(1, config.n_max + 1):
            rho = markov_step(rho, meas, rng, trial, step)
            if step % every == 0 or step == config.n_max:
                snapshots.append((step, conjugate(rho)))
        final_cols = conjugate(rho)
    elif config.engine == "chain":
        cols: list[int] = []
        for step in range(1, config.n_max + 1):
            cap = (cols[0] if cols else 0) + 1
            z = rng.leading_zero_count(trial, step, config.q, cap)
            chain_haar_step(cols, z)
            if step % every == 0 or step == config.n_max:
                snapshots.append((step, tuple(cols)))
        final_cols = tuple(cols)
    else:
        state = MatrixGrowthState(q=config.q)
        for step in range(1, config.n_max + 1):
            matrix_haar_step(state, rng, trial, step)
            if step % every == 0 or step == config.n_max:
                snapshots.append((step, tuple(state.cols)))
        final_cols = tuple(state.cols)
    return TrialRecord(
        trial=trial,
        final_rows=conjugate(final_cols),
        final_cols=final_cols,
        snapshots=snapshots,
    )


def run_trials(config: SamplerConfig, trial_indices: list[int]) -> list[TrialRecord]:
    """Run the given trials; results depend only on (seed, trial, step)."""
    rng = CounterRng(config.seed)
    meas = None
    if config.mode == "measure":
        if config.spec is None:
            raise ValueError("measure mode needs a spec")
        from .symfun import GroundParams

        meas = measures.characteristic_measure(
            config.spec, GroundParams(config.q), config.convention
        )
    return [_run_single_trial(config, rng, t, meas) for t in trial_indices]


def merge_records(parts: list[list[TrialRecord]]) -> list[TrialRecord]:
    merged = [rec for chunk in parts for rec in chunk]
    merged.sort(key=lambda r: r.trial)
    return merged


def run_lln(config: SamplerConfig) -> FrequencyReport:
    """Full run; deterministic given (config, seed), trial-partitionable."""
    indices = list(range(config.trials))
    if config.threads > 1:
        chunks = [indices[i :: config.threads] for i in range(config.threads)]
        from concurrent.futures import ProcessPoolExecutor

        try:
            pool = ProcessPoolExecutor(max_workers=config.threads)
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
