"""Each benchmark check passes on genuine output and fails on a corrupted copy.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import json
import random
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from hallq import characters, gflinalg, measures, partitions, sampler, symfun  # noqa: E402

SPECS = HERE.parent / "specs"
CheckError = checks.CheckError


def _rhos(top):
    return [rho for n in range(top + 1) for rho in partitions.enumerate_partitions(n)]


def _measure(name, q):
    spec = symfun.load_spec(SPECS / f"{name}.spec")[0]
    return spec, measures.characteristic_measure(spec, symfun.GroundParams(q))


def _corrupt(d, key, value):
    out = dict(d)
    out[key] = value
    return out


def test_haar_recovery():
    _, meas = _measure("haar", 2)
    values = {rho: measures.cylinder_prob(meas, rho) for rho in _rhos(4)}
    checks.haar_recovery(values, 2)
    with pytest.raises(CheckError):
        checks.haar_recovery(_corrupt(values, (2, 1), values[2, 1] * 2), 2)


def test_two_routes():
    spec, meas = _measure("three_atoms", 2)
    ground = symfun.GroundParams(2)
    pairs = {
        rho: (measures.cylinder_prob(meas, rho), measures.characteristic_cylinder_via_r(spec, rho, ground))
        for rho in _rhos(4)
    }
    checks.two_routes(pairs)
    q_route, r_route = pairs[3, 1]
    with pytest.raises(CheckError):
        checks.two_routes(_corrupt(pairs, (3, 1), (q_route, r_route + Fraction(1, 1024))))


def test_coherence_and_normalization():
    _, meas = _measure("three_atoms", 3)
    values = {rho: measures.cylinder_prob(meas, rho) for rho in _rhos(5)}
    census = {n: measures.unitriangular_type_counts(n, 3) for n in range(4)}
    checks.coherence(values, 3)
    checks.normalization(values, census, 3)
    bad = _corrupt(values, (2, 1), values[2, 1] + Fraction(1, 3**9))
    with pytest.raises(CheckError):
        checks.coherence(bad, 3)
    with pytest.raises(CheckError):
        checks.normalization(bad, census, 3)


def test_nilpotent_cols_matches_matrix_jordan_type():
    rng = random.Random(5)
    for q in (2, 3):
        for n in (1, 4, 9):
            cols = [[rng.randrange(q) for _ in range(j)] for j in range(n)]
            rows = [[int(i == j) or (cols[j][i] if i < j else 0) for j in range(n)] for i in range(n)]
            rho = gflinalg.jordan_type_unipotent(gflinalg.mat_from_rows(rows, q))
            assert checks.nilpotent_cols(cols, n, q) == partitions.conjugate(rho)


@pytest.mark.parametrize("q, n", [(2, 70), (3, 20)])
def test_matrix_trials(q, n):
    cfg = sampler.SamplerConfig(mode="haar", engine="matrix", q=q, n_max=n, trials=2, seed=77, snapshot_every=8)
    records = sampler.run_lln(cfg).records
    checks.matrix_trials(records, 77, q, n)
    with pytest.raises(CheckError):
        checks.matrix_trials(records, 78, q, n)
    rec = records[1]
    step, cols = rec.snapshots[1]
    moved = (cols[0] - 1,) + tuple(cols[1:]) + (1,)
    bad = dataclasses.replace(rec, snapshots=[rec.snapshots[0], (step, moved)] + rec.snapshots[2:])
    with pytest.raises(CheckError):
        checks.matrix_trials([records[0], bad], 77, q, n)


def test_chain_frequencies():
    cfg = sampler.SamplerConfig(mode="haar", engine="chain", q=2, n_max=400, trials=200, seed=3)
    records = sampler.run_lln(cfg).records
    checks.chain_frequencies(records, 2, 400)
    # one box per trial moved from row 1 to row 2 shifts each mean by 1/400
    shifted = [
        dataclasses.replace(r, final_rows=(r.final_rows[0] - 8, r.final_rows[1] + 8) + r.final_rows[2:])
        for r in records
    ]
    with pytest.raises(CheckError):
        checks.chain_frequencies(shifted, 2, 400)


def test_cover_paths_and_conditional_law():
    spec, meas = _measure("two_thirds", 2)
    cfg = sampler.SamplerConfig(mode="measure", q=2, n_max=8, trials=2, seed=9, spec=spec, snapshot_every=1)
    records = sampler.run_lln(cfg).records
    checks.cover_paths(records, 8)
    rec = records[0]
    swapped = rec.snapshots[:3] + [rec.snapshots[4], rec.snapshots[3]] + rec.snapshots[5:]
    with pytest.raises(CheckError):
        checks.cover_paths([dataclasses.replace(rec, snapshots=swapped)], 8)
    with pytest.raises(CheckError):
        checks.cover_paths([dataclasses.replace(rec, final_cols=rec.final_cols + (1,))], 8)

    path = [()] + [checks.conjugate(tuple(cols)) for _, cols in rec.snapshots]
    checks.conditional_law(meas, path, 2)
    top = path[-2]
    meas.memo[top] = measures.cylinder_prob_fast(meas, top) * 2
    with pytest.raises(CheckError):
        checks.conditional_law(meas, path, 2)


def test_fast_route():
    spec, meas = _measure("two_thirds", 2)
    ground = symfun.GroundParams(2)
    fast = {rho: measures.cylinder_prob_fast(meas, rho) for rho in _rhos(5)}
    via_r = {rho: measures.characteristic_cylinder_via_r(spec, rho, ground) for rho in _rhos(5)}
    checks.fast_route(fast, via_r)
    with pytest.raises(CheckError):
        checks.fast_route(_corrupt(fast, (2, 2, 1), fast[2, 2, 1] / 2), via_r)


def test_extension_tables():
    keys = [(q, rho) for q in (2, 3) for rho in _rhos(3)]
    brute = {(q, rho): gflinalg.extension_counts(rho, q) for q, rho in keys}
    closed = {(q, rho): gflinalg.extension_counts_closed(rho, q) for q, rho in keys}
    checks.extension_tables(brute, closed)
    counts = dict(brute[3, (2, 1)])
    sigma = next(iter(counts))
    counts[sigma] += 1
    bad = _corrupt(brute, (3, (2, 1)), counts)
    with pytest.raises(CheckError, match="closed form"):
        checks.extension_tables(bad, closed)
    with pytest.raises(CheckError, match="sum to"):
        checks.extension_tables(bad, bad)


def test_census_totals():
    census = {(4, 2): gflinalg.count_unitriangular_by_type(4, 2), (3, 3): gflinalg.count_unitriangular_by_type(3, 3)}
    checks.census_totals(census)
    counts = dict(census[4, 2])
    counts[(4,)] -= 1
    with pytest.raises(CheckError):
        checks.census_totals(_corrupt(census, (4, 2), counts))


def test_flag_tables():
    oracle = {(3, 2): characters.chi_via_flag_oracle(3, 2)}
    formula = {(3, 2): characters.chi_matrix(3, 2)}
    checks.flag_tables(oracle, formula)
    rows = [list(r) for r in oracle[3, 2]]
    rows[1][2] += 1
    with pytest.raises(CheckError):
        checks.flag_tables({(3, 2): tuple(tuple(r) for r in rows)}, formula)


def test_tracer_self_time_and_imported_names(tmp_path):
    inner = types.ModuleType("hallq._bench_inner")
    outer = types.ModuleType("hallq._bench_outer")
    sys.modules.update({inner.__name__: inner, outer.__name__: outer})
    try:
        exec(
            "import time\n"
            "def leaf():\n    time.sleep(0.02)\n"
            "def _private():\n    return leaf()\n",
            inner.__dict__,
        )
        exec(
            "from hallq._bench_inner import leaf\n"
            "import time\n"
            "def top():\n    time.sleep(0.01)\n    leaf()\n    leaf()\n",
            outer.__dict__,
        )
        tracer = spans.Tracer()
        tracer.install([inner, outer])
        outer.top()
        inner._private()
        snap = tracer.snapshot()
        assert snap["_bench_outer.top"][0] == 1
        assert snap["_bench_inner.leaf"][0] == 3
        assert "_bench_inner._private" not in snap
        assert 0.01 <= snap["_bench_outer.top"][1] < 0.045  # children (0.04 s) excluded
        assert 0.06 <= snap["_bench_inner.leaf"][1]
        assert list(tracer.span_parent) == [-1, 0, 0, -1]
        tracer.write(tmp_path / "spans.txt", 3)
        lines = (tmp_path / "spans.txt").read_text().splitlines()
        names = json.loads(lines[0])["names"]
        rows = [[int(x) for x in line.split()] for line in lines[1:]]
        assert [names[r[0]] for r in rows] == ["_bench_outer.top", "_bench_inner.leaf", "_bench_inner.leaf"]
        assert [r[1] for r in rows] == [-1, 0, 0]
        assert rows[0][2] == 0 and all(r[2] < r[3] for r in rows)
    finally:
        del sys.modules[inner.__name__], sys.modules[outer.__name__]


def _spin(cpu_s):
    end = time.thread_time() + cpu_s
    while time.thread_time() < end:
        pass


def test_speed_probe_slices_and_normalized_stages():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        laps = workloads.Laps(probe)
        _spin(0.3)
        laps.lap("build")
        _spin(0.15)
        laps.lap("eval")
    finally:
        probe.stop()
    for stage, cpu_s in (("build", 0.3), ("eval", 0.15)):
        assert len(laps.slices[stage]) >= 3
        # the slices' time is charged to no stage
        assert laps.cpu[stage] < cpu_s
        assert laps.cpu[stage] + sum(laps.slices[stage]) == pytest.approx(cpu_s, abs=0.01)
        mean = sum(laps.slices[stage]) / len(laps.slices[stage])
        assert laps.normalized()[stage] == pytest.approx(laps.cpu[stage] * speed.REF_SLICE_S / mean)
    assert probe.read()[2] == []  # the slices went to the stages
