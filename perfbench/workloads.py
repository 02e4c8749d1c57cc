"""The hallq benchmark workloads.

A workload is built once (its set-up: specs, configs) and then runs whole
rounds.  Before each round every ``lru_cache`` in hallq is cleared, so each
round starts as cold as a fresh process.  A round's timed phase is split in
two stages, ``build`` and ``eval``, timed with ``Laps``; the stages of each
workload are listed in README.md.  ``check_round`` checks one round's
outputs; ``check_run`` makes the checks that do not depend on the round.

The exact workloads are seed-free.  The growth workloads give round r the
sampler seed ``round_seed(seed, r)``, so one run averages over several
independent draws and the same ``--seed`` always replays the same rounds.

Program functions are always called through their module
(``measures.cylinder_prob``), so that layer spans installed on the module
see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from fractions import Fraction
from pathlib import Path

from hallq import characters, gflinalg, measures, partitions, sampler, symfun

import checks
import speed

SPECS = Path(__file__).resolve().parent.parent / "specs"


def round_seed(seed: int, r: int) -> int:
    """A 63-bit sampler seed for round r, fixed by the benchmark seed."""
    digest = hashlib.blake2b(f"hallq-bench/{seed}/{r}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


class Laps:
    """Charges the wall and CPU time since the previous lap, and the speed
    probe's slices taken meanwhile, to a named stage.  Time spent in the
    probe's handler is charged to no stage."""

    STAGES = ("build", "eval")

    def __init__(self, probe: speed.SpeedProbe | None = None):
        self.probe = probe
        self.wall = dict.fromkeys(self.STAGES, 0.0)
        self.cpu = dict.fromkeys(self.STAGES, 0.0)
        self.slices = {s: [] for s in self.STAGES}
        self._last = self._read()[:2]

    def _read(self):
        if self.probe:
            return self.probe.read()
        return time.perf_counter(), time.thread_time(), [], 0.0, 0.0

    def lap(self, stage: str) -> None:
        wall, cpu, slices, held_wall, held_cpu = self._read()
        self.wall[stage] += wall - self._last[0] - held_wall
        self.cpu[stage] += cpu - self._last[1] - held_cpu
        self.slices[stage] += slices
        self._last = wall, cpu

    def normalized(self) -> dict[str, float]:
        """Each stage's CPU time at the reference speed: its CPU time times
        REF_SLICE_S over the mean of its slices.  Every stage runs for a
        tenth of a second or more, so it holds slices."""
        return {
            s: self.cpu[s] * speed.REF_SLICE_S * len(self.slices[s]) / sum(self.slices[s])
            for s in self.STAGES
        }


def _partitions_upto(n: int) -> list[tuple[int, ...]]:
    return [rho for k in range(n + 1) for rho in partitions.enumerate_partitions(k)]


class ExactTower:
    """Transition matrices at degrees 0..MAX_DEGREE and every cylinder value
    at two points by both routes, at q = 2 and then q = 3."""

    name = "exact_tower"
    MAX_DEGREE = 8
    QS = (2, 3)
    POINTS = ("haar", "three_atoms")
    CENSUS_LEVELS = 5

    def __init__(self, seed: int):
        self.specs = {p: symfun.load_spec(SPECS / f"{p}.spec")[0] for p in self.POINTS}
        self.grounds = {q: symfun.GroundParams(q) for q in self.QS}
        self.rhos = _partitions_upto(self.MAX_DEGREE)
        self.census = None  # brute census by level, built by the first check

    def prepare(self, r: int) -> dict:
        return {
            (q, p): measures.characteristic_measure(self.specs[p], self.grounds[q])
            for q in self.QS
            for p in self.POINTS
        }

    def run(self, meas: dict, laps: Laps) -> tuple[dict, int]:
        out = {}
        for q in self.QS:
            t = Fraction(1, q)
            for n in range(self.MAX_DEGREE + 1):
                symfun.kostka_numbers(n)
                symfun.kostka_foulkes(n, t)
                symfun.hl_q_in_p(n, t)
                symfun.s_in_p(n)
            laps.lap("build")
            for p in self.POINTS:
                spec, ground, m = self.specs[p], self.grounds[q], meas[q, p]
                for rho in self.rhos:
                    out[q, p, rho] = (
                        measures.cylinder_prob(m, rho),
                        measures.characteristic_cylinder_via_r(spec, rho, ground),
                    )
            laps.lap("eval")
        return out, 2 * len(out)

    def check_round(self, out: dict) -> None:
        if self.census is None:
            self.census = {
                q: {n: measures.unitriangular_type_counts(n, q) for n in range(self.CENSUS_LEVELS + 1)}
                for q in self.QS
            }
        checks.two_routes(out)
        for q in self.QS:
            for p in self.POINTS:
                values = {rho: out[q, p, rho][0] for rho in self.rhos}
                if p == "haar":
                    checks.haar_recovery(values, q)
                checks.coherence(values, q)
                checks.normalization(values, self.census[q], q)

    def check_run(self) -> None:
        pass


class HaarGrowth:
    """The Haar chain engine and the explicit-matrix engine, through
    ``sampler.run_lln``."""

    name = "haar_growth"
    CHAIN = ((2, 400, 200), (3, 400, 200))  # (q, n, trials)
    MATRIX = ((2, 128, 2), (3, 48, 1))
    MATRIX_SNAPSHOT_EVERY = 32

    def __init__(self, seed: int):
        self.seed = seed
        self.chain = [
            sampler.SamplerConfig(mode="haar", engine="chain", q=q, n_max=n, trials=tr, threads=1)
            for q, n, tr in self.CHAIN
        ]
        self.matrix = [
            sampler.SamplerConfig(
                mode="haar", engine="matrix", q=q, n_max=n, trials=tr, threads=1,
                snapshot_every=self.MATRIX_SNAPSHOT_EVERY,
            )
            for q, n, tr in self.MATRIX
        ]

    def prepare(self, r: int) -> tuple[list, list]:
        s = round_seed(self.seed, r)
        return (
            [dataclasses.replace(c, seed=s) for c in self.matrix],
            [dataclasses.replace(c, seed=s) for c in self.chain],
        )

    def run(self, configs: tuple[list, list], laps: Laps) -> tuple[list, int]:
        matrix_cfgs, chain_cfgs = configs
        matrix = [sampler.run_lln(c) for c in matrix_cfgs]
        laps.lap("build")
        chain = [sampler.run_lln(c) for c in chain_cfgs]
        laps.lap("eval")
        reports = matrix + chain
        return reports, sum(rep.config.trials for rep in reports)

    def check_round(self, reports: list) -> None:
        for rep in reports:
            c = rep.config
            if len(rep.records) != c.trials:
                raise checks.CheckError(f"{c.engine} q={c.q}: {len(rep.records)} records for {c.trials} trials")
            if c.engine == "matrix":
                checks.matrix_trials(rep.records, c.seed, c.q, c.n_max)
            else:
                checks.chain_frequencies(rep.records, c.q, c.n_max)

    def check_run(self) -> None:
        pass


class MeasureGrowth:
    """Measure-mode growth under the two-atom point two_thirds at q = 2,
    past the validated count range through the closed-form fast path: two
    independent batches per round."""

    name = "measure_growth"
    Q = 2
    N = 15
    TRIALS = 30
    LAW_SAMPLE = 10  # conditional law checked along trial 0 up to this size
    FAST_VS_R = 8  # fast route checked against the r-route up to this size

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = symfun.load_spec(SPECS / "two_thirds.spec")[0]
        self.config = sampler.SamplerConfig(
            mode="measure", q=self.Q, n_max=self.N, trials=self.TRIALS, threads=1,
            spec=self.spec, fast_counts=True, snapshot_every=1,
        )

    def prepare(self, r: int) -> list:
        return [dataclasses.replace(self.config, seed=round_seed(self.seed, 2 * r + k)) for k in (0, 1)]

    def run(self, configs: list, laps: Laps) -> tuple[list, int]:
        first = sampler.run_lln(configs[0])
        laps.lap("build")
        second = sampler.run_lln(configs[1])
        laps.lap("eval")
        return [first, second], 2 * self.TRIALS

    def check_round(self, reports: list) -> None:
        meas = measures.characteristic_measure(self.spec, symfun.GroundParams(self.Q))
        for rep in reports:
            checks.cover_paths(rep.records, self.N)
            path = [()] + [
                checks.conjugate(tuple(cols)) for step, cols in rep.records[0].snapshots if step <= self.LAW_SAMPLE
            ]
            checks.conditional_law(meas, path, self.Q)

    def check_run(self) -> None:
        ground = symfun.GroundParams(self.Q)
        meas = measures.characteristic_measure(self.spec, ground)
        rhos = _partitions_upto(self.FAST_VS_R)
        checks.fast_route(
            {rho: measures.cylinder_prob_fast(meas, rho) for rho in rhos},
            {rho: measures.characteristic_cylinder_via_r(self.spec, rho, ground) for rho in rhos},
        )


class BruteOracle:
    """Matrix-level brute force: extension counts, the unitriangular census
    and the flag-count character oracle."""

    name = "brute_oracle"
    EXTENSIONS = ((2, 8), (3, 5))  # (q, largest |rho|)
    CENSUS = ((5, 2), (4, 3))  # (n, q)
    FLAGS = ((4, 2), (4, 3))  # (n, q)

    def __init__(self, seed: int):
        self.rhos = [(q, rho) for q, top in self.EXTENSIONS for rho in _partitions_upto(top)]

    def prepare(self, r: int) -> None:
        return None

    def run(self, _state, laps: Laps) -> tuple[dict, int]:
        ext = {(q, rho): gflinalg.extension_counts(rho, q) for q, rho in self.rhos}
        census = {(n, q): gflinalg.count_unitriangular_by_type(n, q) for n, q in self.CENSUS}
        laps.lap("build")
        oracle = {(n, q): characters.chi_via_flag_oracle(n, q) for n, q in self.FLAGS}
        formula = {(n, q): characters.chi_matrix(n, q) for n, q in self.FLAGS}
        laps.lap("eval")
        out = {"ext": ext, "census": census, "oracle": oracle, "formula": formula}
        return out, len(ext) + len(census) + len(oracle) + len(formula)

    def check_round(self, out: dict) -> None:
        closed = {(q, rho): gflinalg.extension_counts_closed(rho, q) for q, rho in self.rhos}
        checks.extension_tables(out["ext"], closed)
        checks.census_totals(out["census"])
        checks.flag_tables(out["oracle"], out["formula"])

    def check_run(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (ExactTower, HaarGrowth, MeasureGrowth, BruteOracle)}

# The modules whose public functions are traced as layers.
LAYERS = (partitions, symfun, measures, gflinalg, characters, sampler)
