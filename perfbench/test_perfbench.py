"""Tests of the benchmark's correctness gate and span tracer.

Each case that runs the program does so in a subprocess on a tiny
configuration, so no wrapper leaks into the test process.
"""
import json
import math

import numpy as np
import pytest

import gate
import run
import tracer

TINY = {
    "preset": "problem1",
    "reference": "tiny",
    "config": {"geometry": {"L": 1}, "estimator": {"eps": [3e-2, 1e-2]}},
}


def _fake_output(outdir, grad, rmse=1e-3, sweep=None):
    outdir.mkdir(parents=True)
    n = grad.shape[0]
    lines = ["# gradient field dump: nodal values, row-major",
             "d 2", f"nodes_per_axis {n}", "level 1"]
    lines += [repr(float(v)) for v in grad.ravel()]
    (outdir / "gradient.txt").write_text("\n".join(lines) + "\n")
    manifest = {
        "sweep": sweep or [{"eps": 1e-2, "V": [1e-5, 2e-5]}],
        "final": {"rmse_quadrature": rmse},
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest))


@pytest.fixture
def reference():
    x = np.linspace(0.0, 1.0, 9)
    return {"gradient": np.outer(np.sin(np.pi * x), np.sin(np.pi * x)), "rmse": 1e-3}


def test_gate_accepts_run_within_rmse_bound(tmp_path, reference):
    _fake_output(tmp_path / "out", reference["gradient"] + 1e-3)
    assert gate.check_run(0, "", tmp_path / "out", reference) == []


def test_gate_counts_perturbed_gradient(tmp_path, reference):
    bound = gate.DISTANCE_FACTOR * math.hypot(1e-3, reference["rmse"])
    _fake_output(tmp_path / "out", reference["gradient"] + 2 * bound)
    failures = gate.check_run(0, "", tmp_path / "out", reference)
    assert len(failures) == 1 and "L2 distance" in failures[0]


def test_gate_counts_nonzero_exit_and_traceback(tmp_path, reference):
    _fake_output(tmp_path / "out", reference["gradient"])
    assert gate.check_run(3, "", tmp_path / "out", reference) == ["exit code 3"]
    assert gate.check_run(0, "Traceback (most recent call last):\n",
                          tmp_path / "out", reference) == ["traceback on stderr"]


def test_gate_counts_variance_above_tolerance_and_nan(tmp_path, reference):
    grad = reference["gradient"].copy()
    grad[4, 4] = np.nan
    _fake_output(tmp_path / "out", grad, sweep=[{"eps": 1e-3, "V": [2e-6]}])
    failures = gate.check_run(0, "", tmp_path / "out", reference)
    assert any("sum(V)" in f for f in failures)
    assert "non-finite gradient" in failures


def test_pooled_gate_catches_bias_each_repeat_hides(tmp_path, reference):
    # each repeat is off by half its own bound, which it passes alone
    shift = 0.5 * gate.DISTANCE_FACTOR * math.hypot(1e-3, reference["rmse"])
    grads = [reference["gradient"] + shift for _ in range(8)]
    for k, grad in enumerate(grads):
        _fake_output(tmp_path / str(k), grad)
        assert gate.check_run(0, "", tmp_path / str(k), reference) == []
    failures = gate.check_pooled(grads, [1e-3] * 8, reference)
    assert len(failures) == 1 and "mean of 8 repeats" in failures[0]
    assert gate.check_pooled([reference["gradient"]] * 8, [1e-3] * 8, reference) == []


def test_l2_distance_matches_trapezoid_rule():
    n = 17
    x = np.linspace(0.0, 1.0, n)
    field = np.outer(np.sin(np.pi * x), np.sin(np.pi * x))
    # int sin^2(pi x) sin^2(pi y) = 1/4; trapezoid is exact for this one
    assert gate.l2_distance(field, 0 * field) == pytest.approx(0.5, rel=1e-12)


@pytest.fixture
def tiny_workload(tmp_path, monkeypatch):
    """A one-level workload whose reference is its own seed-5 run."""
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "REFERENCE_DIR", tmp_path / "ref")
    (tmp_path / "ref").mkdir()
    # a placeholder that any finite 9x9 gradient passes, replaced below
    np.savez_compressed(tmp_path / "ref" / "tiny.npz", gradient=np.zeros((9, 9)),
                        rmse=1e9)
    first = run_repeat(tmp_path, seed=5)
    assert first["failures"] == []
    gate.save_reference(tmp_path / "ref" / "tiny.npz", first["rundir"] / "out")
    return tmp_path


def run_repeat(tmp_path, seed, traced=False):
    workdir = tmp_path / "work"
    workdir.mkdir(exist_ok=True)
    return run.run_repeat("tiny", seed, workdir, traced, timeout=120.0)


def test_repeat_passes_against_its_own_reference(tiny_workload):
    rec = run_repeat(tiny_workload, seed=5)
    assert rec["failures"] == []
    assert rec["setup_s"] > 0 and rec["cost_model"] > 0 and rec["peak_rss_mb"] > 0


def test_perturbed_reference_counts_as_failed_repeat(tiny_workload):
    ok = run_repeat(tiny_workload, seed=6)
    assert ok["failures"] == []
    path = tiny_workload / "ref" / "tiny.npz"
    ref = gate.load_reference(path)
    np.savez_compressed(path, gradient=ref["gradient"] + 1.0, rmse=ref["rmse"])
    rec = run_repeat(tiny_workload, seed=5)
    assert len(rec["failures"]) == 1 and "L2 distance" in rec["failures"][0]
    metrics = run.end_to_end_metrics([rec, ok])
    assert metrics["success_frac"]["value"] == 0.5
    assert metrics["wall_s"]["value"] == ok["wall_s"]


def test_nonzero_exit_counts_as_failed_repeat(tiny_workload, monkeypatch):
    bad = dict(TINY, config={"geometry": {"L": 99}})
    monkeypatch.setitem(run.WORKLOADS, "tiny", bad)
    rec = run_repeat(tiny_workload, seed=5)
    assert rec["returncode"] == 2
    assert rec["failures"] == ["exit code 2"]


def test_traced_repeat_binds_every_span(tiny_workload):
    rec = run_repeat(tiny_workload, seed=5, traced=True)
    assert rec["failures"] == []
    summ = rec["summary"]
    assert set(summ["bindings"]) == {name for name, _, _ in tracer.SPANS}
    # names looked up in the caller's module are bound there as well
    assert summ["bindings"]["circulant_field.sample_field"] >= 2
    assert summ["bindings"]["circulant_field.eval_field"] >= 2
    assert summ["bindings"]["estimators.estimator_sweep"] >= 2
    assert summ["bindings"]["cli.run_experiment"] >= 2
    assert summ["child_over_parent"] == 0
    must_fire, _ = run.EXPECTED_SPANS["p1-mlqmc-L4"]
    for name in must_fire:
        assert summ["spans"][name]["calls"] > 0, name
    layers = run.layer_metrics(rec)
    assert layers["fem.pcg.iters_max"][0] >= layers["fem.pcg.iters_mean"][0] > 0
    assert layers["estimators.coupled_sample.calls.L1"][0] > 0
    assert layers["estimators.coupled_sample.calls.L2"][0] == 0
