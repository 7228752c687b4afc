import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
        again = RunConfig.from_dict(json.loads(cfg.to_json()))
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
    ], ids=["fe_offset_0", "L_string", "warmup_qmc_0", "kappa_negative",
            "unknown_geometry_key", "finest_mesh_over_257"])
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

    def test_env_output_dir(self, tmp_path, monkeypatch):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(TINY))
        envdir = tmp_path / "envout"
        monkeypatch.setenv("MLQMCGRAD_OUT", str(envdir))
        assert main(["run", "--config", str(cfgp)]) == 0
        assert (envdir / "manifest.json").exists()


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
