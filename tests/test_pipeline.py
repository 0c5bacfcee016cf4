"""Pipeline stages and CLI: artifacts, reproducibility, error handling."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import reduced_pipeline_config as tiny_config
from conftest import usable_cpus
from throttleid.cli import _load_config, _parser
from throttleid.excitation import ExcitationConfig
from throttleid.features import TARGET_NAMES, assemble, merge
from throttleid.pipeline import (PipelineConfig, cmd_gen_data, cmd_sweep,
                                 cmd_train, cmd_validate, load_trajectories,
                                 validation_traces)
from throttleid.plant import PlantConfig, PlantTrajectory
from throttleid.regression import BasisSpec, model_from_json, model_to_json, predict, rmse
from throttleid.tuning import SweepConfig


def _hash_tree(root: Path) -> dict:
    # config.json records the output directory itself, so it is the one
    # file legitimately differing between runs rooted at different paths
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "config.json":
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = tiny_config(str(out))
    cmd_gen_data(cfg)
    cmd_train(cfg)
    return out, cfg


class TestGenData:
    def test_artifacts_match_manifest(self, run_dir):
        out, _ = run_dir
        manifest = json.loads((out / "corpus" / "manifest.json").read_text())
        # corpus/ holds only the manifest: a trajectory's columns hold its commands
        assert sorted(p.name for p in (out / "corpus").iterdir()) == ["manifest.json"]
        for entry in manifest["segments"]:
            assert entry["trajectory"] == entry["file"]
            assert (out / "trajectories" / entry["trajectory"]).exists()
        assert (out / "config.json").exists()

    def test_excitation_count(self, run_dir):
        out, cfg = run_dir
        manifest = json.loads((out / "corpus" / "manifest.json").read_text())
        kinds = [e["kind"] for e in manifest["segments"]]
        assert kinds.count("excitation") == cfg.excitation.m_levels

    def test_single_segment_config(self, tmp_path):
        cfg = replace(tiny_config(str(tmp_path / "one")),
                      excitation=ExcitationConfig(m_levels=1, duration=4.0))
        manifest = cmd_gen_data(cfg)
        kinds = [e["kind"] for e in manifest["segments"]]
        assert kinds.count("excitation") == 1

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_load_trajectories(self, run_dir, monkeypatch, cpus):
        # at 2 usable CPUs every trace is read in a forked worker
        usable_cpus(monkeypatch, cpus)
        out, _ = run_dir
        trajs = load_trajectories(out)
        assert len(trajs) > 2
        assert all(len(t) > 1 for t in trajs)
        manifest = json.loads((out / "corpus" / "manifest.json").read_text())
        listed = [e for e in manifest["segments"] if e.get("trajectory")]
        assert [t.name for t in trajs] == [e["name"] for e in listed]
        for traj, entry in zip(trajs, listed):
            again = PlantTrajectory.from_csv(out / "trajectories" / entry["trajectory"],
                                             manifest["dt"])
            assert traj.thrusts.tobytes() == again.thrusts.tobytes()
            assert traj.m_ox.tobytes() == again.m_ox.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_depleted_traces_left_out(self, tmp_path, monkeypatch, capsys, cpus):
        # a 10 kg module runs dry under the three traces that eject more
        # (11.2, 13.6 and 77.7 kg); the summary counts only what was written
        usable_cpus(monkeypatch, cpus)
        cfg = replace(tiny_config(str(tmp_path)), plant=PlantConfig(m_module0=10.0))
        manifest = cmd_gen_data(cfg)
        depleted = {e["name"]: e for e in manifest["segments"] if "depleted_at" in e}
        assert sorted(depleted) == ["endurance_stair", "hold_ladder", "step_battery"]
        assert all(e["trajectory"] is None and e["depleted_at"] > 0 for e in depleted.values())
        written = sorted(p.name for p in (tmp_path / "trajectories").iterdir())
        assert written == sorted(e["trajectory"] for e in manifest["segments"]
                                 if e["name"] not in depleted)
        rows = sum(len(p.read_text().splitlines()) - 1 for p in (tmp_path / "trajectories").iterdir())
        assert f"{len(manifest['segments'])} traces, {rows} simulated samples" in capsys.readouterr().out


class TestTrain:
    def test_model_and_report_written(self, run_dir):
        out, cfg = run_dir
        model = model_from_json(out / "model.json")
        assert model.n == cfg.history
        report = json.loads((out / "train_report.json").read_text())
        assert 0.0 <= report["sparsity"] <= 1.0
        assert report["rows"] > 0

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_report_matches_direct_prediction(self, run_dir, tmp_path, monkeypatch, cpus):
        # the per-trace error sums of the second pass give the RMSE of one
        # prediction over the merged corpus dataset
        src, cfg = run_dir
        out = tmp_path / "train"
        usable_cpus(monkeypatch, cpus)
        cmd_train(replace(cfg, output_dir=str(out)), data_dir=src)
        report = json.loads((out / "train_report.json").read_text())
        ds = merge([assemble(t, cfg.history) for t in load_trajectories(src)])
        per_output, aggregate = rmse(predict(model_from_json(out / "model.json"), ds.inputs),
                                     ds.targets)
        assert report["rows"] == len(ds)
        assert report["train_rmse"] == pytest.approx(
            dict(zip(TARGET_NAMES, per_output.tolist())), rel=1e-12, abs=0.0)
        assert report["train_rmse_aggregate"] == pytest.approx(aggregate, rel=1e-12, abs=0.0)

    def test_missing_data_raises(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "empty"))
        with pytest.raises(FileNotFoundError):
            cmd_train(cfg)

    def test_retrain_identical(self, run_dir, tmp_path):
        out, cfg = run_dir
        before = (out / "model.json").read_bytes()
        cmd_train(cfg)
        assert (out / "model.json").read_bytes() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("fault", ["short", "not-trajectory", "missing-row", "blank-line",
                                       "header-only", "few-columns", "short-row"])
    def test_bad_trajectory_raises(self, run_dir, tmp_path, monkeypatch, cpus, fault):
        # the second trace has the fault; the last one another, which a
        # serial run would meet later, so it must not be what is raised.
        # A blank line is no fault: np.loadtxt skips it and reads the
        # right rows, so the last trace's fault is what is raised then.
        # Each fault raises its ValueError without a warning before it.
        src, cfg = run_dir
        out = tmp_path / "bad"
        for sub in ("corpus", "trajectories"):
            shutil.copytree(src / sub, out / sub)
        manifest_path = out / "corpus" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entries = [e for e in manifest["segments"] if e.get("trajectory")]
        for entry, kind in ((entries[1], fault),
                            (entries[-1], "short" if fault != "short" else "not-trajectory")):
            path = out / "trajectories" / entry["trajectory"]
            lines = path.read_text().splitlines(keepends=True)
            if kind == "short":   # a trace shorter than the history, as the manifest lists
                path.write_text("".join(lines[:cfg.history + 1]))
                entry["samples"] = cfg.history - 1
            elif kind == "missing-row":   # the manifest lists one row more
                path.write_text("".join(lines[:-1]))
            elif kind == "blank-line":
                path.write_text("".join(lines[:3] + ["\n"] + lines[3:]))
            elif kind == "header-only":
                path.write_text(lines[0])
            elif kind == "few-columns":   # every row cut to its first 13 values
                path.write_text(lines[0] + "".join(",".join(line.split(",")[:13]) + "\n"
                                                   for line in lines[1:]))
            elif kind == "short-row":
                path.write_text("".join(lines[:3] + ["0.02,1.0\n"] + lines[4:]))
            else:   # a CSV with the trace's file name but not a trajectory's columns
                path.write_text("t,Tr1\n" + "".join(f"{i},1.0\n" for i in range(20)))
        manifest_path.write_text(json.dumps(manifest))
        usable_cpus(monkeypatch, cpus)
        match = {"short": "too short for history n=4", "not-trajectory": "not a trajectory CSV",
                 "missing-row": "rows parsed, the manifest lists",
                 "blank-line": "too short for history n=4",
                 "header-only": "no rows of 16 values after the header",
                 "few-columns": "no rows of 16 values after the header",
                 "short-row": "number of columns changed from 16 to 2"}[fault]
        with pytest.raises(ValueError, match=match) as caught:
            cmd_train(replace(cfg, output_dir=str(out)))
        if fault == "blank-line":
            assert load_trajectories(out)[1].thrusts.tobytes() == \
                load_trajectories(src)[1].thrusts.tobytes()
        elif fault != "short":
            # load_trajectories checks each file as cmd_train does
            with pytest.raises(ValueError, match=match) as loaded:
                load_trajectories(out)
            assert entries[1]["file"] in str(caught.value)
            assert entries[1]["file"] in str(loaded.value)

    def test_step_mismatch_raises(self, tmp_path):
        # a corpus sampled at 0.02 s is neither trained nor swept at 0.01 s
        coarse = replace(tiny_config(str(tmp_path)), plant=PlantConfig(dt=0.02))
        cmd_gen_data(coarse)
        for cmd in (cmd_train, cmd_sweep):
            with pytest.raises(ValueError, match="corpus step 0.02 s is not the plant step 0.01 s"):
                cmd(replace(coarse, plant=PlantConfig()))


class TestSweepCmd:
    def test_reports_written(self, run_dir):
        out, cfg = run_dir
        cmd_sweep(cfg)
        selected = json.loads((out / "selected.json").read_text())
        assert selected["n"] in cfg.sweep.n_grid
        assert any(np.isclose(selected["mu"], m) for m in cfg.sweep.mu_grid)
        for name in ("sweep_history.csv", "sweep_history.json",
                     "sweep_mu.csv", "sweep_mu.json", "pareto.csv"):
            assert (out / name).exists()


class TestValidate:
    def test_suite_runs_and_reports(self, run_dir):
        out, cfg = run_dir
        reports = cmd_validate(cfg)
        assert set(reports) == {"sine600", "stair", "fall", "descent"}
        for name in reports:
            report = json.loads((out / "validation" / f"{name}_report.json").read_text())
            assert report["diverged_at"] is None
            assert (out / "validation" / f"{name}_timeseries.csv").exists()

    def test_model_step_checked(self, run_dir, tmp_path):
        # the model records the plant step it was trained at, and the
        # suite refuses to roll it out at another
        src, cfg = run_dir
        assert model_from_json(src / "model.json").dt == cfg.plant.dt == 0.01
        cfg = replace(cfg, plant=PlantConfig(dt=0.02), output_dir=str(tmp_path))
        with pytest.raises(ValueError, match="model fitted at step 0.01 s cannot roll out "
                                             "a trace at step 0.02 s"):
            cmd_validate(cfg, model_path=src / "model.json")

    def test_divergence_recorded_and_suite_continues(self, run_dir, tmp_path):
        # an infinite coefficient makes the first predicted step non-finite
        out, _ = run_dir
        model = model_from_json(out / "model.json")
        model.K[:, 0] = np.inf
        model_path = tmp_path / "diverging_model.json"
        model_to_json(model, model_path)
        cfg = tiny_config(str(tmp_path / "diverged"))
        reports = cmd_validate(cfg, model_path=model_path)
        traces = validation_traces(cfg)
        assert list(reports) == [t.name for t in traces]
        val_dir = tmp_path / "diverged" / "validation"
        for trace in traces:
            record = {"experiment": trace.name, "diverged_at": model.n * trace.dt}
            assert reports[trace.name] == record
            assert json.loads((val_dir / f"{trace.name}_report.json").read_text()) == record
        assert sorted(p.name for p in val_dir.iterdir()) == \
            sorted(f"{t.name}_report.json" for t in traces)

    def test_divergence_recorded_at_three_cpus(self, run_dir, tmp_path, monkeypatch):
        # with three workers every rollout runs in a forked child and
        # sends its divergence back as a value
        usable_cpus(monkeypatch, 3)
        self.test_divergence_recorded_and_suite_continues(run_dir, tmp_path)

    def test_oracle_passthrough_zero_error(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "oracle"))
        reports = cmd_validate(cfg, oracle_passthrough=True)
        for rep in reports.values():
            assert rep.max_thrust_err == 0.0
            assert rep.module_mass_max_err == 0.0

    def test_missing_model_raises(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "nomodel"))
        with pytest.raises(FileNotFoundError):
            cmd_validate(cfg)

    def test_fixed_suite_composition(self):
        cfg = tiny_config("unused")
        traces = validation_traces(cfg)
        names = [t.name for t in traces]
        assert names == ["sine600", "stair", "fall", "descent"]


class TestArtifactKeys:
    # the key sets of the JSON artifacts, so that a field added to a
    # dataclass changes an artifact only together with this test
    REPORT = {"experiment", "mode", "n_samples", "n_transient", "n_steady", "rmse",
              "rmse_aggregate", "max_err_transient", "max_err_steady", "max_thrust_err",
              "max_thrust_err_after_settle", "max_thrust_err_per_engine",
              "module_mass_max_err", "sparsity", "diverged_at", "raw_max_thrust_err"}
    SWEEP = {"kind", "k", "seed", "selected", "points"}
    POINT = {"value", "mean_train_rmse", "mean_test_rmse", "mean_sparsity", "train_rmse",
             "test_rmse", "sparsity"}
    TRAIN = {"rows", "n", "mu", "penalty_scale", "train_rmse", "train_rmse_aggregate",
             "sparsity", "kkt", "ridge", "sweeps"}
    MODEL = {"format", "basis", "mu", "mu_effective", "penalty_scale", "n", "n_inputs",
             "n_outputs", "n_coefficients", "sparsity", "kkt", "sweeps", "objective", "ridge",
             "dt", "standardization", "K_triplets"}

    def test_key_sets(self, run_dir, tmp_path):
        src, cfg = run_dir
        cfg = replace(cfg, output_dir=str(tmp_path))
        cmd_sweep(cfg, data_dir=src)
        cmd_validate(cfg, model_path=src / "model.json")
        load = lambda path: json.loads(path.read_text())
        targets = {"To1", "To2", "To3", "To4", "P", "mf", "mo"}
        for trace in validation_traces(cfg):
            report = load(tmp_path / "validation" / f"{trace.name}_report.json")
            assert report.keys() == self.REPORT
            for name in ("rmse", "max_err_transient", "max_err_steady"):
                assert report[name].keys() == targets
        for name in ("sweep_history.json", "sweep_mu.json"):
            sweep = load(tmp_path / name)
            assert sweep.keys() == self.SWEEP
            assert all(pt.keys() == self.POINT for pt in sweep["points"])
        train = load(src / "train_report.json")
        assert train.keys() == self.TRAIN and train["train_rmse"].keys() == targets
        model = load(src / "model.json")
        assert model.keys() == self.MODEL
        assert model["standardization"].keys() == {"x_mean", "x_scale", "y_mean", "y_scale"}
        assert model["basis"].keys() == {"degree"}


class TestReproducibility:
    def test_gen_and_train_byte_identical(self, tmp_path):
        hashes = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = tiny_config(str(out), seed=7)
            cmd_gen_data(cfg)
            cmd_train(cfg)
            hashes.append(_hash_tree(out))
        assert hashes[0] == hashes[1]


    def test_artifacts_independent_of_cpu_count(self, tmp_path, monkeypatch):
        # at 2 and 3 usable CPUs rollouts, plant responses, corpus traces
        # and both training passes (per-trace moments, then per-trace
        # errors) run in forked workers, each task in whichever one claims it
        hashes = {}
        for cpus in (1, 2, 3):
            usable_cpus(monkeypatch, cpus)
            cfg = tiny_config(str(tmp_path / f"cpus{cpus}"))
            cmd_gen_data(cfg)
            cmd_train(cfg)
            cmd_validate(cfg)
            hashes[cpus] = _hash_tree(Path(cfg.output_dir))
        assert sum(k.startswith("validation/") for k in hashes[1]) == 8
        assert any(k.startswith("trajectories/") for k in hashes[1])
        assert "model.json" in hashes[1] and "train_report.json" in hashes[1]
        assert hashes[1] == hashes[2] == hashes[3]


class TestConfigIO:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "x"), seed=3)
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        again = PipelineConfig.from_json(path)
        assert again.seed == 3
        assert again.history == cfg.history
        assert again.sweep.n_grid == tuple(cfg.sweep.n_grid)
        assert again.excitation.m_levels == cfg.excitation.m_levels
        assert again.to_json() == cfg.to_json()

    def test_text_roundtrip(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "x"), seed=3)
        assert PipelineConfig.from_json(cfg.to_json()).to_json() == cfg.to_json()

    def test_cli_overrides(self, tmp_path):
        # the file sets every value and --out only the output directory
        cfg_path = tmp_path / "cfg.json"
        tiny_config(str(tmp_path / "x"), seed=3).to_json(cfg_path)
        cfg = _load_config(argparse.Namespace(config=str(cfg_path), out="o"))
        assert cfg == replace(PipelineConfig.from_json(cfg_path), output_dir="o")
        assert (cfg.seed, cfg.excitation.m_levels) == (3, 2)
        assert _load_config(argparse.Namespace(config=str(cfg_path), out=None)).output_dir \
            == str(tmp_path / "x")
        assert _load_config(argparse.Namespace(config=None, out=None)) == PipelineConfig()

    @pytest.mark.parametrize("section, field, value", [
        ("plant", "dt", 0.02), ("excitation", "m_levels", 2), ("basis", "degree", 0),
        ("sweep", "k", 1)])
    def test_sections_frozen(self, section, field, value):
        # a section's field is set only through its checks: a changed
        # config is made with dataclasses.replace
        with pytest.raises(FrozenInstanceError):
            setattr(getattr(PipelineConfig(), section), field, value)

    def test_sweep_grids_default_when_absent(self):
        assert PipelineConfig.from_json('{"sweep": {}}').sweep == SweepConfig()
        assert PipelineConfig.from_json('{"sweep": {"k": 3}}').sweep == SweepConfig(k=3)

    # every setting of a run, each under one key
    KEYS = {"plant.e_min", "plant.e_max", "plant.p_reg", "plant.p_bottle0", "plant.v_bottle",
            "plant.droop_coeff", "plant.tau_rise", "plant.tau_fall", "plant.slew_limit",
            "plant.isp", "plant.mixture_ratio", "plant.m_module0", "plant.dt",
            "excitation.m_levels", "excitation.a_amp", "excitation.duration", "history",
            "basis.degree", "sweep.n_grid", "sweep.mu_grid", "sweep.k", "train_mu",
            "output_dir", "seed"}

    def test_key_set(self):
        def flat(d, prefix=""):
            return [key for k, v in d.items()
                    for key in (flat(v, f"{prefix}{k}.") if isinstance(v, dict) else [prefix + k])]
        keys = flat(asdict(PipelineConfig()))
        assert len(keys) == len(self.KEYS) == 24
        assert set(keys) == self.KEYS

    def test_removed_settings_rejected(self):
        # a config written before these settings became constants
        with pytest.raises(ValueError, match="penalty_scale"):
            PipelineConfig.from_json('{"penalty_scale": "none"}')
        with pytest.raises(ValueError, match="unknown config keys: sweep.history_mu"):
            PipelineConfig.from_json('{"sweep": {"history_mu": 0.01}}')
        # a config written when standard gravity was a plant setting and
        # the history length a section of its own
        with pytest.raises(ValueError, match="unknown config keys: plant.g0$"):
            PipelineConfig.from_json('{"plant": {"g0": 9.8}}')
        with pytest.raises(ValueError, match="config key 'history' must be an integer"):
            PipelineConfig.from_json('{"history": {"n": 6}}')
        # a config written when the basis had a kind and an optional bias column
        with pytest.raises(ValueError, match="unknown config keys: basis.kind$"):
            PipelineConfig.from_json('{"basis": {"kind": "full-quadratic"}}')
        with pytest.raises(ValueError, match="unknown config keys: basis.include_bias$"):
            PipelineConfig.from_json('{"basis": {"include_bias": false}}')
        # a config written when these copied the plant's values and the top-level seed
        for key in ("excitation.dt", "excitation.e_min", "excitation.e_max",
                    "excitation.seed", "sweep.seed"):
            section, name = key.split(".")
            with pytest.raises(ValueError, match=f"unknown config keys: {key}$"):
                PipelineConfig.from_json(json.dumps({section: {name: 1}}))

    def test_json_numbers_load(self):
        # ints stand for floats and lists for tuples, as JSON writes them
        cfg = PipelineConfig.from_json(
            '{"train_mu": 1, "plant": {"p_reg": 1800000}, "sweep": {"mu_grid": [1, 2.5]}}')
        assert (cfg.train_mu, cfg.plant.p_reg, cfg.sweep.mu_grid) == (1, 1.8e6, (1, 2.5))

    @pytest.mark.parametrize("text,match", [
        ('{"history": 0}', "config key 'history' must be >= 1, got 0"),
        ('{"basis": null}', "config key 'basis' must be a JSON object"),
        ("[1, 2]", "a config must be a JSON object, got list"),
        ('{"seed": "3"}', "config key 'seed' must be an integer"),
        ('{"train_mu": "x"}', "config key 'train_mu' must be a number"),
        ('{"output_dir": 5}', "config key 'output_dir' must be a string"),
        ('{"history": "5"}', "config key 'history' must be an integer"),
        ('{"sweep": {"k": "3"}}', "config key 'sweep.k' must be an integer"),
        ('{"plant": {"foo": 1}}', "unknown config keys: plant.foo"),
        ('{"train_mu": -1}', "config key 'train_mu' must be >= 0"),
        ('{"history": true}', "config key 'history' must be an integer"),
        ('{"sweep": {"n_grid": [3, 4.0]}}', "config key 'sweep.n_grid' must be a list"),
        ('{"sweep": {"n_grid": [0, 3]}}', "n_grid history lengths must be >= 1, got 0"),
        ('{"sweep": {"n_grid": [4, 3, 4]}}', "n_grid history lengths must be distinct"),
        ('{"seed": -1}', "config key 'seed' must be >= 0"),
        ("runs/default/config.json", "a str is read as JSON text.*pass a file as a Path"),
        # a section's own checks name the section
        ('{"sweep": {"k": 1}}', "config section 'sweep': k must be >= 2"),
        ('{"plant": {"dt": 0}}', "config section 'plant': dt must be strictly positive"),
        ('{"basis": {"degree": 0}}', "config section 'basis': degree must be >= 1"),
    ], ids=["history-zero", "basis-null", "document-list", "seed-string",
            "train-mu-string", "output-dir-number", "history-n-string",
            "sweep-k-string", "plant-unknown-key", "train-mu-negative", "history-n-bool",
            "n-grid-float", "n-grid-zero", "n-grid-repeated", "seed-negative", "path-as-str",
            "sweep-k-one", "plant-dt-zero", "basis-degree-zero"])
    def test_malformed_config_rejected(self, text, match):
        # rejected while loading, before any stage writes its config.json
        with pytest.raises(ValueError, match=match):
            PipelineConfig.from_json(text)


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestCLI:
    def run_cli(self, *args, env=None, entry=("-m", "throttleid.cli")):
        # the package's sources come first, so an uninstalled checkout runs too
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ if env is None else env, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, *entry, *args],
                              capture_output=True, text=True, env=env)

    def test_artifacts_independent_of_blas_threads(self, tmp_path):
        # the package sets the BLAS thread count to one: before numpy loads
        # through the environment, and after it through OpenBLAS's own
        # setter. So a run with the thread variables unset (OpenBLAS would
        # start one thread per CPU) writes the same bytes as one at 1,
        # whether or not numpy was imported first
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs 2 usable CPUs for a multi-threaded BLAS")
        module = ("-m", "throttleid.cli")
        numpy_first = ("-c", "import sys, numpy\n"
                             "from throttleid.cli import main\n"
                             "sys.exit(main(sys.argv[1:]))")
        digests = []
        for name, threads, entry in (("unset", None, module), ("one", "1", module),
                                     ("numpy-first", None, numpy_first)):
            cfg = tiny_config(str(tmp_path / name))
            cfg_path = tmp_path / f"{name}.json"
            cfg.to_json(cfg_path)
            env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
            if threads is not None:
                env.update(dict.fromkeys(BLAS_THREADS, threads))
            for stage in ("gen-data", "train", "sweep"):
                r = self.run_cli(stage, "--config", str(cfg_path), env=env, entry=entry)
                assert r.returncode == 0, r.stderr
            digests.append(_hash_tree(Path(cfg.output_dir)))
        assert {"model.json", "train_report.json", "sweep_mu.json"} <= digests[0].keys()
        assert digests[0] == digests[1] == digests[2]

    def test_gen_train_validate_chain(self, tmp_path):
        # one config file for every stage: the config.json left behind is
        # that file's config at --out, and it agrees with model.json
        cfg_path = tmp_path / "config.json"
        replace(tiny_config(str(tmp_path / "elsewhere")), train_mu=1e-3).to_json(cfg_path)
        out = tmp_path / "cli"
        for stage in ("gen-data", "train", "validate"):
            r = self.run_cli(stage, "--config", str(cfg_path), "--out", str(out))
            assert r.returncode == 0, r.stderr
        model = model_from_json(out / "model.json")
        assert model.mu == 1e-3
        recorded = PipelineConfig.from_json(out / "config.json")
        assert recorded == replace(PipelineConfig.from_json(cfg_path), output_dir=str(out))
        assert (recorded.train_mu, recorded.history, recorded.basis) == \
            (model.mu, model.n, model.basis)
        assert not (tmp_path / "elsewhere").exists()

    def test_missing_model_exit_code(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "cli2"))
        cfg_path = tmp_path / "config.json"
        cfg.to_json(cfg_path)
        r = self.run_cli("validate", "--config", str(cfg_path))
        assert r.returncode == 1
        err = json.loads(r.stderr.strip().splitlines()[-1])
        assert err["type"] == "FileNotFoundError"

    def test_history_and_folds_overrides(self, tmp_path):
        # history length and basis are set in the config file
        cfg = replace(tiny_config(str(tmp_path / "cli3")), history=3,
                      basis=BasisSpec(degree=1))
        cfg_path = tmp_path / "config.json"
        cfg.to_json(cfg_path)
        for stage in ("gen-data", "train"):
            r = self.run_cli(stage, "--config", str(cfg_path))
            assert r.returncode == 0, r.stderr
        model = model_from_json(Path(cfg.output_dir) / "model.json")
        assert model.n == 3
        assert model.basis == BasisSpec(degree=1)

    def test_option_strings(self):
        # settings come from the config file; the flags name paths and a mode
        sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                   for name, p in sub.choices.items()}
        assert options == {"gen-data": {"--config", "--out"},
                           "train": {"--config", "--out", "--data"},
                           "sweep": {"--config", "--out", "--data"},
                           "validate": {"--config", "--out", "--model", "--oracle-passthrough"}}

    def test_removed_flag_rejected(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        tiny_config(str(tmp_path / "out")).to_json(cfg_path)
        r = self.run_cli("train", "--config", str(cfg_path), "--mu", "1e-3")
        assert r.returncode == 2
        assert "unrecognized arguments: --mu 1e-3" in r.stderr
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_model_and_oracle_exclusive(self, tmp_path):
        # the oracle replays the plant, so a model given with it would go unread
        r = self.run_cli("validate", "--out", str(tmp_path / "out"),
                         "--model", str(tmp_path / "m.json"), "--oracle-passthrough")
        assert r.returncode == 2
        assert "not allowed with argument" in r.stderr
        assert list(tmp_path.iterdir()) == []
