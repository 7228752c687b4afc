import contextlib
import csv
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import rewrite_cache_file
from hypothesis import given, settings, strategies as st

import mlqmcgrad
from mlqmcgrad import cli
from mlqmcgrad.cli import (
    ConfigError,
    RunConfig,
    _atomic_write,
    load_config,
    main,
    make_field_function,
    preset_config,
)

TINY = {
    "geometry": {"L": 1},
    "estimator": {"eps": [3e-3, 1e-3]},
    "seed": 7,
}


class TestConfig:
    def test_defaults_filled(self):
        cfg = RunConfig.from_dict({})
        assert cfg["problem"]["nu"] == 0.5
        assert cfg["estimator"]["method"] == "mlqmc"
        assert cfg["qmc"]["R"] == 10

    def test_round_trip_identity(self):
        cfg = RunConfig.from_dict(TINY)
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert cfg.to_dict() == again.to_dict()
        assert cfg.config_hash == again.config_hash

    def test_eps_must_descend(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"estimator": {"eps": [1e-3, 1e-2]}})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"estimator": {"eps": [1e-3, -1e-4]}})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"estimator": {"eps": []}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"mystery": {}})

    def test_level_cap(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"geometry": {"L": 7}})

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"estimator": {"method": "sobol"}})

    def test_presets(self):
        p1 = RunConfig.from_dict(preset_config("problem1"))
        p2 = RunConfig.from_dict(preset_config("problem2"))
        assert p1["problem"]["nu"] == 0.5
        assert p2["problem"]["nu"] == 2.5
        for cfg in (p1, p2):
            assert cfg["problem"]["sigma2"] == 0.1
            assert cfg["problem"]["lambda_c"] == 1.0
            assert cfg["objective"]["g"]["kind"] == "indicator_square"
            assert cfg["objective"]["z"]["kind"] == "cosine_bumps"
        with pytest.raises(ConfigError):
            preset_config("problem3")

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)
        bad.write_text("[1]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(bad)

    def test_load_config_layers(self, tmp_path):
        # preset, then file, then seed: each later layer wins
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"problem": {"sigma2": 0.2}, "seed": 3}))
        cfg = load_config(cfgp, preset="problem2", seed=11)
        assert (cfg["problem"]["nu"], cfg["problem"]["sigma2"], cfg["seed"]) == (2.5, 0.2, 11)
        cfgp.write_text(json.dumps({"problem": {"nu": 1.5}}))
        assert load_config(cfgp, preset="problem2")["problem"]["nu"] == 1.5
        assert load_config(seed=4).to_dict() == RunConfig.from_dict({"seed": 4}).to_dict()


class TestFieldFunctions:
    def test_indicator_with_midpoint_convention(self):
        g = make_field_function({"kind": "indicator_square", "lo": 0.25, "hi": 0.75})
        pts = np.array([[0.5, 0.5], [0.1, 0.5], [0.25, 0.5], [0.75, 0.75]])
        assert np.array_equal(g(pts), [1.0, 0.0, 0.5, 0.5])

    def test_cosine_bumps_peak_and_zeros(self):
        z = make_field_function({"kind": "cosine_bumps", "scale": 5.0})
        pts = np.array([[0.5, 0.5], [0.0, 0.3], [1.0, 0.7]])
        vals = z(pts)
        assert vals[0] == pytest.approx(20.0)
        assert vals[1] == vals[2] == 0.0

    def test_zero_and_constant(self):
        assert np.all(make_field_function({"kind": "zero"})(np.zeros((3, 2))) == 0)
        c = make_field_function({"kind": "constant", "value": 2.5})
        assert np.all(c(np.zeros((3, 2))) == 2.5)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_field_function({"kind": "wavelet"})


class TestAtomicity:
    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "out.csv"

        def writer(fh):
            fh.write("partial")
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            _atomic_write(target, writer)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "out.csv"
        _atomic_write(target, lambda fh: fh.write("v1"))
        _atomic_write(target, lambda fh: fh.write("v2"))
        assert target.read_text() == "v2"


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = RunConfig.from_dict(TINY)
    return cli.run_experiment(cfg, out), out, cfg


class TestRunExperiment:
    def test_artifacts_exist(self, run_artifacts):
        art, out, _ = run_artifacts
        for name in ("manifest.json", "gradient.txt", "gradient.csv",
                     "timing.json", "level_cost.csv"):
            assert (out / name).exists()

    def test_manifest_contents(self, run_artifacts):
        art, out, cfg = run_artifacts
        m = json.loads((out / "manifest.json").read_text())
        assert m["config_hash"] == cfg.config_hash
        assert m["method"] == "mlqmc"
        assert [p["eps"] for p in m["sweep"]] == [3e-3, 1e-3]
        for p in m["sweep"]:
            assert sum(p["V"]) <= p["eps"] ** 2
        levels = m["final"]["levels"]
        assert [lev["level"] for lev in levels] == [0, 1]
        assert all(lev["R"] == 10 for lev in levels)

    def test_gradient_dump_format(self, run_artifacts):
        art, out, _ = run_artifacts
        lines = (out / "gradient.txt").read_text().splitlines()
        assert lines[0].startswith("#")
        header = dict(line.split() for line in lines[1:4])
        assert header["d"] == "2"
        n = int(header["nodes_per_axis"])
        values = [float(v) for v in lines[4:]]
        assert len(values) == n * n
        rows = list(csv.DictReader((out / "gradient.csv").open()))
        assert len(rows) == n * n
        assert float(rows[0]["x1"]) == 0.0
        got = np.array([float(r["value"]) for r in rows])
        assert np.array_equal(got, np.array(values))

    def test_csv_traceable_to_manifest(self, run_artifacts):
        art, out, cfg = run_artifacts
        m = json.loads((out / "manifest.json").read_text())
        assert m["seed"] == cfg["seed"]


def reference_write_gradient(outdir, lev, grad):
    """The per-value gradient writer: f-strings for the text dump,
    ``csv.writer`` over repr strings for the table."""
    with open(outdir / "gradient.txt", "w", newline="") as fh:
        fh.write("# gradient field dump: nodal values, row-major\n")
        fh.write(f"d 2\nnodes_per_axis {lev.nodes_per_axis}\n"
                 f"level {grad.gradient.level}\n")
        for v in grad.gradient.nodal_values:
            fh.write(f"{float(v)!r}\n")
    rows = [(repr(float(x)), repr(float(y)), repr(float(v))) for (x, y), v in
            zip(lev.nodes, grad.gradient.nodal_values)]
    with open(outdir / "gradient.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "value"])
        writer.writerows(rows)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_gradient_files_match_per_value_writer(n, data):
    values = st.floats(allow_nan=True, allow_infinity=True)
    arrays = [np.array(data.draw(st.lists(values, min_size=k, max_size=k)))
              for k in (n * n, 2 * n * n)]
    lev = SimpleNamespace(nodes_per_axis=n, nodes=arrays[1].reshape(n * n, 2))
    grad = SimpleNamespace(gradient=SimpleNamespace(level=3, nodal_values=arrays[0]))
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp, "new"), Path(tmp, "ref")
        ref.mkdir()
        cli._write_gradient(new, SimpleNamespace(fe_levels={3: lev}), grad)
        reference_write_gradient(ref, lev, grad)
        for name in ("gradient.txt", "gradient.csv"):
            assert (new / name).read_bytes() == (ref / name).read_bytes()


class TestTimingLedger:
    def test_peak_rss_recorded_outside_manifest(self, run_artifacts):
        _, out, _ = run_artifacts
        timing = json.loads((out / "timing.json").read_text())
        setup, run = timing["peak_rss_mb_setup"], timing["peak_rss_mb_run"]
        assert 0 < setup <= run
        assert "peak_rss" not in (out / "manifest.json").read_text()

    def test_environment_recorded_outside_manifest(self, run_artifacts, tmp_path,
                                                    monkeypatch):
        _, out, cfg = run_artifacts
        env = json.loads((out / "timing.json").read_text())["environment"]
        assert set(env) == {"python", "numpy", "scipy", "cpu_count", "affinity_size",
                            "numpy_blas", "scipy_lapack"}
        assert env["numpy"] == np.__version__
        assert env["affinity_size"] is None or 1 <= env["affinity_size"] <= env["cpu_count"]
        for lib in (env["numpy_blas"], env["scipy_lapack"]):
            assert set(lib) == {"name", "version"} and lib["name"]
        # a run on another machine writes the same manifest bytes
        monkeypatch.setattr(cli, "_environment", lambda: {"python": "0"})
        cli.run_experiment(cfg, tmp_path)
        assert json.loads((tmp_path / "timing.json").read_text())["environment"] \
            == {"python": "0"}
        assert (tmp_path / "manifest.json").read_bytes() == \
            (out / "manifest.json").read_bytes()

    @pytest.mark.parametrize("method", ["mlmc", "mlqmc"])
    def test_model_cost_matches_manifest(self, tmp_path, method):
        cfg = RunConfig.from_dict(cli._deep_merge(
            TINY, {"estimator": {"method": method}}))
        cli.run_experiment(cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        timing = json.loads((tmp_path / "timing.json").read_text())
        assert timing["cost_model_normalized"] == \
            manifest["final"]["cost_model_normalized"]

    def test_embeddings_recorded_outside_manifest(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"geometry": {"L": 3},
                                    "estimator": {"eps": [1e-2]}, "seed": 4}))
        out = tmp_path / "o"
        assert main(["run", "--preset", "problem2", "--config", str(cfgp),
                     "--out", str(out)]) == 0
        rows = json.loads((out / "timing.json").read_text())["embeddings"]
        assert [r["ext"] for r in rows] == [2, 16, 64, 128]
        assert [r["s"] for r in rows] == [4, 256, 4096, 16384]
        assert [r["clamped"] for r in rows] == [0] * 4
        assert [r["periodized"] for r in rows] == [False] * 4
        # one full spectrum per kernel tried: one per padding attempt, two
        # where the period exceeds twice the diameter
        assert [r["fftn_calls"] for r in rows] == [1, 4, 6, 6]
        assert "embeddings" not in (out / "manifest.json").read_text()

    def test_periodized_embedding_recorded(self, tmp_path):
        # CE grids of 9 and 17 points: problem 2's 17-point grid takes the
        # periodized kernel at 16 domain lengths per axis
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"geometry": {"L": 1, "ce_offset": 3},
                                    "estimator": {"eps": [1e-2]}, "seed": 4}))
        out = tmp_path / "o"
        assert main(["run", "--preset", "problem2", "--config", str(cfgp),
                     "--out", str(out)]) == 0
        rows = json.loads((out / "timing.json").read_text())["embeddings"]
        assert [(r["ext"], r["periodized"]) for r in rows] == [(128, False), (256, True)]


class TestEmbeddingCache:
    def run(self, tmp_path, name):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(TINY))
        out = tmp_path / name
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(cfgp), "--out", str(out)])
        return code, err.getvalue(), out, json.loads((out / "timing.json").read_text())

    def test_second_run_loads_every_level(self, tmp_path, embedding_cache):
        code, err, first, timing = self.run(tmp_path, "a")
        assert code == 0 and err == ""
        assert [r["from_cache"] for r in timing["embeddings"]] == [False, False]
        assert 0 < timing["setup_seconds"] < 60
        code, err, second, timing = self.run(tmp_path, "b")
        assert code == 0 and err == ""
        assert [r["from_cache"] for r in timing["embeddings"]] == [True, True]
        assert timing["setup_seconds"] > 0
        for name in ("manifest.json", "gradient.txt", "gradient.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        text = (second / "manifest.json").read_text()
        assert "from_cache" not in text and "setup_seconds" not in text
        # the run wrote nothing but its outputs and the cache
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "c.json"]
        assert len(list(embedding_cache.iterdir())) == 2

    @pytest.mark.parametrize("corrupt", [
        lambda p: p.write_bytes(p.read_bytes()[:-9]),
        lambda p: rewrite_cache_file(p, amp=lambda a: a[:-1]),
        lambda p: rewrite_cache_file(p, amp=lambda a: a.astype(np.float32)),
    ], ids=["truncated", "shape", "dtype"])
    def test_bad_cache_file_rebuilds(self, tmp_path, embedding_cache, corrupt):
        _, _, first, _ = self.run(tmp_path, "a")
        for path in embedding_cache.iterdir():
            corrupt(path)
        code, err, second, timing = self.run(tmp_path, "b")
        assert code == 0 and err == ""
        assert [r["from_cache"] for r in timing["embeddings"]] == [False, False]
        assert (first / "manifest.json").read_bytes() == \
            (second / "manifest.json").read_bytes()

    def test_unwritable_cache_directory(self, tmp_path, monkeypatch):
        # a file where the cache directory should be: no write can succeed,
        # whoever runs the test
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        for name in ("a", "b"):
            code, err, _, timing = self.run(tmp_path, name)
            assert code == 0 and err == ""
            assert [r["from_cache"] for r in timing["embeddings"]] == [False, False]
        assert blocker.read_text() == ""


class TestDeterminism:
    def test_rerun_bitwise_identical(self, tmp_path):
        cfg = RunConfig.from_dict(TINY)
        a, b = tmp_path / "a", tmp_path / "b"
        cli.run_experiment(cfg, a)
        cli.run_experiment(cfg, b)
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        assert (a / "gradient.txt").read_bytes() == (b / "gradient.txt").read_bytes()
        assert (a / "gradient.csv").read_bytes() == (b / "gradient.csv").read_bytes()


class TestVarianceStudy:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_objective_all_zero_rows(self, tmp_path):
        cfg = RunConfig.from_dict({
            "geometry": {"L": 1},
            "objective": {"g": {"kind": "zero"}, "z": {"kind": "zero"}},
            "variance_study": {"n_exp_min": 0, "n_exp_max": 2, "fit_n_exp_min": 0},
            "seed": 3,
        })
        cli.variance_study(cfg, tmp_path)
        rows = list(csv.DictReader((tmp_path / "variance_decay.csv").open()))
        assert rows
        assert all(float(r["R_V"]) == 0.0 for r in rows)
        # zero R_V has no log-log slope: NaN with the reason recorded
        slopes = list(csv.DictReader((tmp_path / "variance_slopes.csv").open()))
        assert [int(r["level"]) for r in slopes] == [0, 1]
        for r in slopes:
            assert np.isnan(float(r["slope"]))
            assert r["reason"] == "nonpositive R_V"

    def test_csv_structure(self, tmp_path):
        cfg = RunConfig.from_dict({
            "geometry": {"L": 1},
            "variance_study": {"n_exp_min": 1, "n_exp_max": 3, "fit_n_exp_min": 1},
            "seed": 4,
        })
        art = cli.variance_study(cfg, tmp_path)
        rows = list(csv.DictReader((tmp_path / "variance_decay.csv").open()))
        levels = {int(r["level"]) for r in rows}
        ns = {int(r["N"]) for r in rows}
        assert levels == {0, 1}
        assert ns == {2, 4, 8}
        slopes = list(csv.DictReader((tmp_path / "variance_slopes.csv").open()))
        assert {int(r["level"]) for r in slopes} == {0, 1}
        assert all(r["reason"] == "" and np.isfinite(float(r["slope"]))
                   for r in slopes)
        assert "slopes" in art.manifest


class TestCostCurve:
    def test_rows_and_monotonicity(self, tmp_path):
        cfg = RunConfig.from_dict({
            "geometry": {"L": 1},
            "estimator": {"eps": [3e-3, 1.5e-3, 8e-4]},
            "seed": 5,
        })
        art = cli.cost_curve(cfg, tmp_path)
        rows = list(csv.DictReader((tmp_path / "cost_curve.csv").open()))
        methods = {r["method"] for r in rows}
        assert methods == {"mc", "qmc", "mlmc", "mlqmc"}
        for method in methods:
            mrows = [r for r in rows if r["method"] == method]
            eps = [float(r["eps"]) for r in mrows]
            costs = [float(r["cost_model_normalized"]) for r in mrows]
            assert eps == sorted(eps, reverse=True)
            # smaller tolerance can never cost less
            assert costs == sorted(costs)
            for r in mrows:
                assert float(r["rmse"]) <= float(r["eps"])
        exps = list(csv.DictReader((tmp_path / "cost_exponents.csv").open()))
        assert {r["method"] for r in exps} == methods
        for r in exps:
            # NaN exactly when fewer than two states had every level past warm-up
            assert np.isnan(float(r["exponent"])) == (int(r["states_fitted"]) < 2)


    def test_measured_cost_follows_each_rows_allocation(self, tmp_path):
        cfg = RunConfig.from_dict({
            "geometry": {"L": 2},
            "estimator": {"eps": [1e-2, 3e-3, 1e-3, 3e-4]},
            "seed": 5,
        })
        cli.cost_curve(cfg, tmp_path)
        rows = list(csv.DictReader((tmp_path / "cost_curve.csv").open()))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        mc = [(sweep["N"], float(r["cost_measured_normalized"]))
              for sweep, r in zip(manifest["sweeps"]["mc"],
                                  [r for r in rows if r["method"] == "mc"])]
        assert len({tuple(N) for N, _ in mc}) > 1
        for N_a, meas_a in mc:
            for N_b, meas_b in mc:
                assert (meas_a == meas_b) == (N_a == N_b)


class TestMainEntry:
    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"estimator": {"eps": [1, 2]}}))
        assert main(["run", "--config", str(bad)]) == 2

    def test_threads_key_exit_2(self, tmp_path, capsys):
        # the worker-thread option is gone; the key is an unknown section
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(dict(TINY, threads=2)))
        assert main(["run", "--config", str(cfgp),
                     "--out", str(tmp_path / "o")]) == 2
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ({"geometry": {"fe_offset": 0}}, "fe_offset"),
        ({"geometry": {"L": "2"}}, "geometry.L"),
        ({"estimator": {"warmup_qmc": 0}}, "warmup_qmc"),
        ({"estimator": {"kappa": -1}}, "kappa"),
        ({"geometry": {"Ll": 3}}, "Ll"),
        ({"geometry": {"fe_offset": 8}}, "fe_offset + L"),
        ({"objective": {"g": {"kind": "nope"}}}, "objective.g"),
        ({"objective": {"z": {"kind": "constant", "value": "x"}}}, "objective.z"),
        ({"objective": {"g": {"kind": "indicator_square", "lo": "a"}}}, "objective.g"),
        ({"qmc": {"generating_vector": "/nonexistent.txt"}}, "qmc.generating_vector"),
    ], ids=["fe_offset_0", "L_string", "warmup_qmc_0", "kappa_negative",
            "unknown_geometry_key", "finest_mesh_over_257", "field_kind_unknown",
            "field_value_string", "field_bound_string", "vector_path_missing"])
    def test_bad_value_exit_2(self, tmp_path, capsys, override, key):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(cli._deep_merge(TINY, override)))
        assert main(["run", "--config", str(cfgp),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "o").exists()

    def test_field_specs_stay_free_form(self):
        cfg = RunConfig.from_dict(
            {"objective": {"z": {"kind": "constant", "value": 2.0, "note": "x"}}})
        assert cfg["objective"]["z"]["note"] == "x"
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"objective": {"zz": {"kind": "zero"}}})

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_budget_exceeded_exit_3(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "geometry": {"L": 1},
            "estimator": {"eps": [1e-6], "cost_cap": 5.0},
            "seed": 1,
        }))
        assert main(["run", "--config", str(cfgp),
                     "--out", str(tmp_path / "o")]) == 3

    def test_non_finite_coefficient_exit_3(self, tmp_path):
        # exp overflows at this variance; the solver reports it, no traceback
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"problem": {"sigma2": 1e6},
                                    "geometry": {"L": 2}, "seed": 3}))
        out = subprocess.run([sys.executable, "-m", "mlqmcgrad", "run", "--config",
                              str(cfgp), "--out", str(tmp_path / "o")],
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 3
        assert "run failed" in out.stderr and "Traceback" not in out.stderr

    def test_run_via_main_with_preset_overlay(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(TINY))
        out = tmp_path / "out"
        rc = main(["run", "--preset", "problem1", "--config", str(cfgp),
                   "--out", str(out), "--seed", "9"])
        assert rc == 0
        m = json.loads((out / "manifest.json").read_text())
        assert m["seed"] == 9
        assert m["config"]["problem"]["nu"] == 0.5
        timing = json.loads((out / "timing.json").read_text())
        assert timing["openblas_num_threads"] == mlqmcgrad.OPENBLAS_NUM_THREADS

    def test_dump_gradient_is_run(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(TINY))
        outs = {}
        for command in ("dump-gradient", "run"):
            outs[command] = tmp_path / command
            assert main([command, "--config", str(cfgp),
                         "--out", str(outs[command]), "--seed", "5"]) == 0
        for name in ("gradient.txt", "gradient.csv", "manifest.json"):
            assert (outs["dump-gradient"] / name).read_bytes() == \
                (outs["run"] / name).read_bytes()

    @pytest.mark.parametrize("command, via", [
        ("run", "--out"), ("run", "MLQMCGRAD_OUT"), ("run", "output"),
        ("variance-study", "--out"), ("cost-curve", "--out")])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "under_file"])
    def test_unusable_output_path_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, via, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        out = blocker / "o" if below else blocker
        built = []

        def build(cfg):
            built.append(cfg)
            raise AssertionError("set-up ran")

        monkeypatch.setattr(cli, "build_hierarchy_from_config", build)
        monkeypatch.delenv("MLQMCGRAD_OUT", raising=False)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(dict(TINY, output=str(out)) if via == "output" else TINY))
        argv = [command, "--config", str(cfgp)]
        if via == "--out":
            argv += ["--out", str(out)]
        elif via == "MLQMCGRAD_OUT":
            monkeypatch.setenv("MLQMCGRAD_OUT", str(out))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(blocker) in err
        assert "Traceback" not in err
        assert built == [] and blocker.read_text() == "x"

    def test_vector_file_read_once(self, tmp_path, monkeypatch):
        vec = tmp_path / "v.txt"
        vec.write_text("1\n3\n5\n7\n")
        load, calls = cli.qmc.load_generating_vector, []

        def spy(path, *args, **kwargs):
            calls.append(path)
            return load(path, *args, **kwargs)

        monkeypatch.setattr(cli.qmc, "load_generating_vector", spy)
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(cli._deep_merge(
            TINY, {"qmc": {"generating_vector": str(vec)}})))
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
        assert calls == [str(vec)]
        # the hierarchy runs on the vector validation read
        hier = cli.build_hierarchy_from_config(load_config(cfgp))
        assert [v.entries[:4].tolist() for v in hier.vectors] == [[1, 3, 5, 7]] * 2

    def test_env_output_dir(self, tmp_path, monkeypatch):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(TINY))
        envdir = tmp_path / "envout"
        monkeypatch.setenv("MLQMCGRAD_OUT", str(envdir))
        assert main(["run", "--config", str(cfgp)]) == 0
        assert (envdir / "manifest.json").exists()


def _not_int(lo):
    return st.one_of(st.integers(max_value=lo - 1), st.floats(), st.booleans(),
                     st.text(max_size=3), st.none(), st.lists(st.integers(), max_size=2))


def _not_positive():
    return st.one_of(st.floats(max_value=0.0), st.just(float("nan")), st.booleans(),
                     st.text(max_size=3), st.none(), st.integers(max_value=0))


# every key the config validates, with values it must reject
BAD_VALUES = {
    ("geometry", "L"): st.one_of(_not_int(0), st.integers(cli.MAX_LEVELS + 1, 50)),
    ("geometry", "fe_offset"): st.one_of(
        _not_int(1), st.integers(cli.MAX_FE_EXPONENT, 50)),   # + L = 1 passes 8
    ("geometry", "ce_offset"): _not_int(0),
    ("geometry", "ce_tol"): st.one_of(st.floats(max_value=-1e-300), st.just(float("nan")),
                                      st.text(max_size=3), st.none(), st.booleans()),
    ("qmc", "R"): _not_int(2),
    ("qmc", "n_min"): st.one_of(_not_int(1), st.integers(2**20 + 1, 2**40)),
    ("qmc", "n_max"): st.one_of(_not_int(1), st.integers(1, 7)),   # below n_min = 8
    ("qmc", "generating_vector"): st.one_of(
        st.integers(), st.booleans(), st.lists(st.text(max_size=2), max_size=2),
        st.text("abcxyz", min_size=1, max_size=8).map(lambda t: f"/nonexistent/{t}.txt")),
    ("estimator", "warmup_qmc"): _not_int(1),
    ("estimator", "warmup_mc"): st.one_of(st.integers(max_value=1), st.floats(),
                                          st.text(max_size=3), st.booleans()),
    ("estimator", "kappa"): _not_positive(),
    ("estimator", "cost_cap"): _not_positive(),
    ("estimator", "method"): st.one_of(
        st.text(max_size=6).filter(lambda t: t not in cli.estimators.METHODS),
        st.integers(), st.none()),
    ("estimator", "eps"): st.one_of(
        st.just([]), st.floats(), st.text(max_size=3),
        st.lists(st.floats(max_value=0.0), min_size=1, max_size=3),
        st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=4).filter(
            lambda e: any(a <= b for a, b in zip(e, e[1:])))),
    ("problem", "sigma2"): _not_positive(),
    ("problem", "lambda_c"): _not_positive(),
    ("problem", "nu"): _not_positive(),
    ("problem", "mean"): st.one_of(st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                                   st.text(max_size=3), st.none(), st.booleans()),
    ("objective", "alpha"): _not_positive(),
    ("objective", "g"): st.one_of(st.integers(), st.text(max_size=3), st.just({"kind": None}),
                                  st.just({"kind": "nope"}),
                                  st.just({"kind": "constant", "value": "x"})),
    ("objective", "z"): st.one_of(st.none(), st.just({"kind": "indicator_square",
                                                      "hi": "y"})),
    ("variance_study", "n_exp_min"): st.one_of(_not_int(0), st.integers(10, 40)),
    ("variance_study", "n_exp_max"): _not_int(0),
    ("variance_study", "fit_n_exp_min"): _not_int(0),
    ("seed", None): _not_int(0),
    ("output", None): st.one_of(st.integers(), st.none(), st.lists(st.integers(), max_size=2)),
}


def test_every_config_value_has_a_rule_and_bad_values():
    # the field specs objective.g and objective.z are leaves: their
    # contents are free-form
    leaves = {(sec, key) for sec, val in cli._DEFAULTS.items()
              for key in (val if isinstance(val, dict) else [None])}
    assert set(cli._RULES) == leaves
    assert set(BAD_VALUES) == leaves


@settings(max_examples=300, deadline=None)
@given(data=st.data(), key=st.sampled_from(sorted(BAD_VALUES, key=str)))
def test_any_bad_config_value_exits_2(data, key):
    sec, name = key
    value = data.draw(BAD_VALUES[key], label=f"{sec}.{name}")
    override = {sec: value} if name is None else {sec: {name: value}}
    raw = cli._deep_merge(dict(TINY, geometry={"L": 1}), override)
    with tempfile.TemporaryDirectory() as tmp:
        cfgp, out = Path(tmp, "c.json"), Path(tmp, "o")
        cfgp.write_text(json.dumps(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 2
        err = err.getvalue()
        assert err.startswith("config error:") and "Traceback" not in err
        assert (name or sec) in err
        assert not out.exists()


@functools.lru_cache(maxsize=None)
def warmup_cost(method):
    """Model cost of the warm-up samples alone, for the exit-3 config."""
    cfg = RunConfig.from_dict(cli._deep_merge(TINY, {"estimator": {"method": method}}))
    return cli.estimator_sweep(cli.build_hierarchy_from_config(cfg), method,
                               [1.0], None).warmup_cost


# runs the solver or the allocation must give up on, each as a config overlay
EXIT_3_CASES = st.one_of(
    # exp(Z) overflows to inf, or underflows to 0, somewhere on the mesh
    st.floats(1e6, 1e100).map(lambda v: {"problem": {"sigma2": v}}),
    st.one_of(st.floats(710.0, 1e100), st.floats(-1e100, -750.0)).map(
        lambda v: {"problem": {"mean": v}}),
    # a cost cap below what the warm-up alone costs
    st.tuples(st.sampled_from(cli.estimators.METHODS),
              st.floats(1e-6, 0.999)).map(lambda mf: {"estimator": {
                  "method": mf[0], "cost_cap": mf[1] * warmup_cost(mf[0])}}),
)


@settings(max_examples=60, deadline=None)
@given(overlay=EXIT_3_CASES, seed=st.integers(0, 2**31 - 1))
def test_any_solver_or_allocation_failure_exits_3(overlay, seed):
    raw = cli._deep_merge(dict(TINY, seed=seed), overlay)
    with tempfile.TemporaryDirectory() as tmp:
        cfgp, out = Path(tmp, "c.json"), Path(tmp, "o")
        cfgp.write_text(json.dumps(raw))
        err = io.StringIO()
        # exp's overflow warning is printed in a CLI process; here it is
        # ignored, not raised as the test configuration would
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 3
        err = err.getvalue()
        assert err.splitlines()[-1].startswith("run failed:")
        assert "Traceback" not in err
        assert not out.exists()


def test_cli_import_leaves_out_sparse_linalg():
    # the run path needs no sparse solver; importing one costs start-up
    # time and resident memory
    code = "import sys, mlqmcgrad.cli; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["False"]


@pytest.mark.parametrize("env, preamble, expected", [
    (None, "", "1 1"),
    ("3", "", "3 3"),
    (None, "import numpy; ", "None None"),
])
def test_openblas_threads_pinned_on_import(env, preamble, expected):
    # the package pins OpenBLAS only when imported before numpy, and a
    # value from the environment wins
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if env is not None:
        child_env["OPENBLAS_NUM_THREADS"] = env
    code = (preamble + "import os, mlqmcgrad; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), mlqmcgrad.OPENBLAS_NUM_THREADS)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == expected.split()


def test_openblas_pin_holds_in_the_test_process():
    # the repository's conftest imports the package before numpy, so the
    # tests run OpenBLAS at the thread count the command line runs it at
    assert mlqmcgrad.OPENBLAS_NUM_THREADS is not None
    assert mlqmcgrad.OPENBLAS_NUM_THREADS == os.environ["OPENBLAS_NUM_THREADS"]
