import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stage_margins.py"
_spec = importlib.util.spec_from_file_location("stage_margins", SCRIPT)
stage_margins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_margins)


def _run(workload, seed, slices, cpu_s, code=0, stderr=""):
    """A run record as ``run_workload`` returns it, with one round per
    (build, eval) pair of slice counts and CPU seconds."""
    rounds = [{"slices": {"build": b, "eval": e}, "cpu_s": {"build": cb, "eval": ce}}
              for (b, e), (cb, ce) in zip(slices, cpu_s)]
    return {"workload": workload, "seed": seed, "code": code, "stderr": stderr, "doc": {"round_stages": rounds}}


def _row(lines, workload, stage):
    (line,) = [x for x in lines if x.split()[:2] == [workload, stage]]
    return line.split()[2:]


def test_pools_the_rounds_of_every_seed():
    runs = [
        _run("exact_tower", 1, [(3, 5), (2, 6)], [(0.070, 0.120), (0.054, 0.130)]),
        _run("exact_tower", 2, [(4, 7)], [(0.090, 0.150)]),
    ]
    lines, ok = stage_margins.summarize(runs)
    assert ok
    assert _row(lines, "exact_tower", "build") == ["3", "2", "3", "54.0", "70.0"]
    assert _row(lines, "exact_tower", "eval") == ["3", "5", "6", "120.0", "130.0"]
    assert not any(x.startswith("FAILED") for x in lines)


def test_a_stage_under_two_slices_fails():
    lines, ok = stage_margins.summarize([_run("measure_growth", 1, [(2, 2), (1, 3)], [(0.04, 0.05), (0.02, 0.06)])])
    assert not ok
    assert _row(lines, "measure_growth", "build")[1] == "1"


def test_a_failed_run_is_named():
    runs = [
        _run("measure_growth", 7, [(2, 2)], [(0.04, 0.05)]),
        {"workload": "measure_growth", "seed": 8, "code": 1,
         "stderr": "ZeroDivisionError: float division by zero", "doc": None},
    ]
    lines, ok = stage_margins.summarize(runs)
    assert not ok
    assert lines[-1] == ("FAILED: measure_growth seed 8 exited 1, no result file: "
                         "ZeroDivisionError: float division by zero")
    assert _row(lines, "measure_growth", "eval")[:2] == ["1", "2"]
