"""Pipeline stages and CLI: artifacts, reproducibility, error handling."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import reduced_pipeline_config as tiny_config
from conftest import usable_cpus
from throttleid.cli import _load_config
from throttleid.excitation import ExcitationConfig
from throttleid.pipeline import (PipelineConfig, cmd_gen_data, cmd_sweep,
                                 cmd_train, cmd_validate, load_trajectories,
                                 validation_traces)
from throttleid.regression import model_from_json, model_to_json
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
        for entry in manifest["segments"]:
            assert (out / "corpus" / entry["file"]).exists()
            if entry.get("trajectory"):
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

    def test_load_trajectories(self, run_dir):
        out, _ = run_dir
        trajs = load_trajectories(out)
        assert len(trajs) > 2
        assert all(len(t) > 1 for t in trajs)


class TestTrain:
    def test_model_and_report_written(self, run_dir):
        out, cfg = run_dir
        model = model_from_json(out / "model.json")
        assert model.n == cfg.history.n
        report = json.loads((out / "train_report.json").read_text())
        assert 0.0 <= report["sparsity"] <= 1.0
        assert report["rows"] > 0

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
    @pytest.mark.parametrize("fault", ["short", "not-trajectory", "blank-line"])
    def test_bad_trajectory_raises(self, run_dir, tmp_path, monkeypatch, cpus, fault):
        # the second trace has the fault; the last one another, which a
        # serial run would meet later, so it must not be what is raised
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
            if kind == "short":
                path.write_text("".join(lines[:cfg.history.n + 1]))
            elif kind == "blank-line":
                path.write_text("".join(lines[:3] + ["\n"] + lines[3:]))
            else:   # the command CSV of the same trace
                entry["trajectory"] = f"../corpus/{entry['file']}"
        manifest_path.write_text(json.dumps(manifest))
        usable_cpus(monkeypatch, cpus)
        match = {"short": "too short for history n=4", "not-trajectory": "not a trajectory CSV",
                 "blank-line": "rows parsed, .* counted"}[fault]
        with pytest.raises(ValueError, match=match) as caught:
            cmd_train(replace(cfg, output_dir=str(out)))
        if fault != "short":
            assert entries[1]["file"] in str(caught.value)


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
        # and the training rows run in forked workers, each in whichever
        # one claims it
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
        assert again.history.n == cfg.history.n
        assert again.sweep.n_grid == tuple(cfg.sweep.n_grid)
        assert again.excitation.m_levels == cfg.excitation.m_levels
        assert again.to_json() == cfg.to_json()

    def test_text_roundtrip(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "x"), seed=3)
        assert PipelineConfig.from_json(cfg.to_json()).to_json() == cfg.to_json()

    def test_master_seed_propagates(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "y"), seed=11)
        assert cfg.excitation.seed == 11
        assert cfg.sweep.seed == 11

    def test_seed_leaves_passed_configs_alone(self):
        c = PipelineConfig(seed=5)
        d = replace(c, seed=9)
        assert (c.excitation.seed, c.sweep.seed) == (5, 5)
        assert (d.excitation.seed, d.sweep.seed) == (9, 9)
        shared = ExcitationConfig()
        a = PipelineConfig(excitation=shared, seed=1)
        b = PipelineConfig(excitation=shared, seed=2)
        assert (a.excitation.seed, b.excitation.seed, shared.seed) == (1, 2, 0)

    def test_sections_set_only_through_replace(self):
        # assigning a section would skip the seed propagation and the check
        cfg = PipelineConfig(seed=5)
        with pytest.raises(AttributeError):
            cfg.excitation = ExcitationConfig(dt=0.02)
        assert cfg.excitation == ExcitationConfig(seed=5)
        assert replace(cfg, excitation=ExcitationConfig(m_levels=1)).excitation.seed == 5
        with pytest.raises(ValueError, match="excitation.dt = 0.02 differs"):
            replace(cfg, excitation=ExcitationConfig(dt=0.02))

    def test_cli_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        tiny_config(str(tmp_path / "x"), seed=3).to_json(cfg_path)
        args = argparse.Namespace(config=str(cfg_path), out="o", seed=4, mu=1e-3,
                                  history=5, basis="linear", folds=2)
        cfg = _load_config(args)
        assert (cfg.output_dir, cfg.seed, cfg.train_mu, cfg.history.n) == ("o", 4, 1e-3, 5)
        assert cfg.basis.kind == "linear"
        assert (cfg.sweep.k, cfg.sweep.seed, cfg.excitation.seed) == (2, 4, 4)
        assert cfg.excitation.m_levels == 2

    def test_sweep_grids_default_when_absent(self):
        assert PipelineConfig.from_json('{"sweep": {}}').sweep == SweepConfig()
        assert PipelineConfig.from_json('{"sweep": {"k": 3}}').sweep == SweepConfig(k=3)

    def test_removed_settings_rejected(self):
        # a config written before these settings became constants
        with pytest.raises(ValueError, match="penalty_scale"):
            PipelineConfig.from_json('{"penalty_scale": "none"}')
        with pytest.raises(ValueError, match="unknown config keys: sweep.history_mu"):
            PipelineConfig.from_json('{"sweep": {"history_mu": 0.01}}')

    def test_json_numbers_load(self):
        # ints stand for floats and lists for tuples, as JSON writes them
        cfg = PipelineConfig.from_json(
            '{"train_mu": 1, "plant": {"p_reg": 1800000}, "sweep": {"mu_grid": [1, 2.5]}}')
        assert (cfg.train_mu, cfg.plant.p_reg, cfg.sweep.mu_grid) == (1, 1.8e6, (1, 2.5))

    @pytest.mark.parametrize("text,match", [
        ('{"sweep": {"seed": 3}}', "sweep.seed = 3 differs from seed = 0"),
        ('{"excitation": {"seed": 9}}', "excitation.seed = 9 differs from seed = 0"),
        ('{"seed": 2, "sweep": {"seed": 3}}', "sweep.seed = 3 differs from seed = 2"),
    ], ids=["sweep", "excitation", "both-set"])
    def test_section_seed_must_match(self, text, match):
        # the top-level seed replaces every section's, so a different one is an error
        with pytest.raises(ValueError, match=match):
            PipelineConfig.from_json(text)
        same = PipelineConfig.from_json('{"seed": 4, "excitation": {"seed": 4}, "sweep": {"seed": 4}}')
        assert (same.seed, same.excitation.seed, same.sweep.seed) == (4, 4, 4)

    @pytest.mark.parametrize("name,value", [("dt", 0.02), ("e_min", 300.0), ("e_max", 900.0)])
    def test_excitation_must_match_plant(self, name, value):
        # the corpus is designed at the excitation's step and thrust range
        # and simulated at the plant's, so the two must agree
        with pytest.raises(ValueError, match=f"excitation.{name} = {value} differs"):
            PipelineConfig(excitation=ExcitationConfig(**{name: value}))
        with pytest.raises(ValueError, match=f"excitation.{name} = {value} differs"):
            PipelineConfig.from_json(json.dumps({"excitation": {name: value}}))

    @pytest.mark.parametrize("text,match", [
        ('{"history": 5}', "config key 'history' must be a JSON object"),
        ('{"basis": null}', "config key 'basis' must be a JSON object"),
        ("[1, 2]", "a config must be a JSON object, got list"),
        ('{"seed": "3"}', "config key 'seed' must be an integer"),
        ('{"train_mu": "x"}', "config key 'train_mu' must be a number"),
        ('{"output_dir": 5}', "config key 'output_dir' must be a string"),
        ('{"basis": {"include_bias": "no"}}', "config key 'basis.include_bias' must be a boolean"),
        ('{"history": {"n": "5"}}', "config key 'history.n' must be an integer"),
        ('{"sweep": {"k": "3"}}', "config key 'sweep.k' must be an integer"),
        ('{"plant": {"foo": 1}}', "unknown config keys: plant.foo"),
        ('{"train_mu": -1}', "config key 'train_mu' must be >= 0"),
        ('{"history": {"n": true}}', "config key 'history.n' must be an integer"),
        ('{"sweep": {"n_grid": [3, 4.0]}}', "config key 'sweep.n_grid' must be a list"),
        ('{"sweep": {"n_grid": [0, 3]}}', "n_grid history lengths must be >= 1, got 0"),
        ('{"sweep": {"n_grid": [4, 3, 4]}}', "n_grid history lengths must be distinct"),
    ], ids=["history-not-object", "basis-null", "document-list", "seed-string",
            "train-mu-string", "output-dir-number", "include-bias-string", "history-n-string",
            "sweep-k-string", "plant-unknown-key", "train-mu-negative", "history-n-bool",
            "n-grid-float", "n-grid-zero", "n-grid-repeated"])
    def test_malformed_config_rejected(self, text, match):
        # rejected while loading, before any stage writes its config.json
        with pytest.raises(ValueError, match=match):
            PipelineConfig.from_json(text)


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestCLI:
    def run_cli(self, *args, env=None):
        # the package's sources come first, so an uninstalled checkout runs too
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ if env is None else env, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "throttleid.cli", *args],
                              capture_output=True, text=True, env=env)

    def test_artifacts_independent_of_blas_threads(self, tmp_path):
        # the package defaults the BLAS thread count to one before numpy
        # loads, so a run with the thread variables unset (OpenBLAS would
        # start one thread per CPU) writes the same bytes as one at 1
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs 2 usable CPUs for a multi-threaded BLAS")
        digests = []
        for threads in (None, "1"):
            cfg = tiny_config(str(tmp_path / f"threads-{threads}"))
            cfg_path = tmp_path / f"threads-{threads}.json"
            cfg.to_json(cfg_path)
            env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
            if threads is not None:
                env.update(dict.fromkeys(BLAS_THREADS, threads))
            for stage in ("gen-data", "train"):
                r = self.run_cli(stage, "--config", str(cfg_path), env=env)
                assert r.returncode == 0, r.stderr
            digests.append(_hash_tree(Path(cfg.output_dir)))
        assert "model.json" in digests[0] and "train_report.json" in digests[0]
        assert digests[0] == digests[1]

    def test_gen_train_validate_chain(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "cli"))
        cfg_path = tmp_path / "config.json"
        cfg.to_json(cfg_path)
        r = self.run_cli("gen-data", "--config", str(cfg_path))
        assert r.returncode == 0, r.stderr
        r = self.run_cli("train", "--config", str(cfg_path), "--mu", "1e-3")
        assert r.returncode == 0, r.stderr
        model = model_from_json(Path(cfg.output_dir) / "model.json")
        assert model.mu == pytest.approx(1e-3)
        r = self.run_cli("validate", "--config", str(cfg_path))
        assert r.returncode == 0, r.stderr

    def test_missing_model_exit_code(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "cli2"))
        cfg_path = tmp_path / "config.json"
        cfg.to_json(cfg_path)
        r = self.run_cli("validate", "--config", str(cfg_path))
        assert r.returncode == 1
        err = json.loads(r.stderr.strip().splitlines()[-1])
        assert err["type"] == "FileNotFoundError"

    def test_history_and_folds_overrides(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "cli3"))
        cfg_path = tmp_path / "config.json"
        cfg.to_json(cfg_path)
        r = self.run_cli("gen-data", "--config", str(cfg_path))
        assert r.returncode == 0, r.stderr
        r = self.run_cli("train", "--config", str(cfg_path), "--history", "3",
                         "--basis", "linear")
        assert r.returncode == 0, r.stderr
        model = model_from_json(Path(cfg.output_dir) / "model.json")
        assert model.n == 3
        assert model.basis.kind == "linear"
