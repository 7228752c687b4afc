"""The benchmark's trace checks hold on a traced run of the program.

``perfbench/test_perfbench.py`` checks which spans the tracer binds and
which fire; this runs ``perfbench/run.py``'s own ``trace_checks`` on one
traced repeat of a tiny workload, the checks a traced benchmark run
applies to every repeat (spans bound and fired, nesting, and the traced
per-call ``coupled_sample`` medians against ``timing.json``).
"""
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TINY = {
    "preset": "problem1",
    "reference": "tiny",
    "config": {"geometry": {"L": 1}, "estimator": {"eps": [3e-2, 1e-2]}},
}


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """``perfbench/run.py`` with a one-level workload whose reference is
    its own seed-5 run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gate
    import run

    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "REFERENCE_DIR", tmp_path / "ref")
    (tmp_path / "ref").mkdir()
    # a placeholder that any finite 9x9 gradient passes, replaced below
    np.savez_compressed(tmp_path / "ref" / "tiny.npz", gradient=np.zeros((9, 9)),
                        rmse=1e9)
    (tmp_path / "work").mkdir()
    first = run.run_repeat("tiny", 5, tmp_path / "work", False, timeout=120.0)
    assert first["failures"] == []
    gate.save_reference(tmp_path / "ref" / "tiny.npz", first["rundir"] / "out")
    return run, tmp_path / "work"


def test_traced_repeat_passes_the_benchmark_trace_checks(bench):
    run, workdir = bench
    rec = run.run_repeat("tiny", 5, workdir, True, timeout=120.0)
    assert rec["failures"] == []
    assert run.trace_checks("p1-mlqmc-L4", rec, run.layer_metrics(rec)) == []
