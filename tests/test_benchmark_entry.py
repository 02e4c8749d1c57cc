"""The benchmark's entry points still work against the current source.

Each workload of ``perfbench/workloads.py`` is built and runs one round with
a probe-less ``Laps``; its round and run checks must pass.  ``run.py`` is not
run, and no bytecode is written under ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name", ["exact_tower", "haar_growth", "measure_growth", "brute_oracle"])
def test_one_round_passes_its_checks(workloads, name):
    wl = workloads.WORKLOADS[name](seed=1)
    laps = workloads.Laps()
    out, ops = wl.run(wl.prepare(0), laps)
    assert ops > 0
    assert all(laps.wall[stage] > 0 for stage in laps.STAGES)
    wl.check_round(out)
    wl.check_run()
