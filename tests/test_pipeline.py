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
from throttleid.features import TARGET_NAMES, assemble, feature_names, merge
from throttleid.pipeline import (PipelineConfig, cmd_gen_data, cmd_sweep,
                                 cmd_train, cmd_validate, load_trajectories,
                                 validation_traces)
from throttleid.plant import TRAJECTORY_CSV_HEADER, PlantConfig, PlantTrajectory, simulate
from throttleid.regression import BasisSpec, model_from_json, model_to_json, predict, rmse
from throttleid.rollout import ValidationReport, rollout, timeseries_csv
from throttleid.tuning import SweepConfig


class Touch:
    """An object whose unpickling creates the file `path`."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return Path.touch, (Path(self.path),)


HEADER = TRAJECTORY_CSV_HEADER.split(",")

# What the ValueError raised for each fault of a trajectory file says
FAULTS = {
    "short": "too short for history n=4",
    "not-trajectory": r"not a trajectory \.npy file .*magic string is not correct",
    "missing-row": "rows read, the manifest lists",
    "header-only": "0 rows read, the manifest lists",
    "few-columns": r"not a trajectory \(a 1-D array of dtype",
    "truncated": r"not a trajectory \.npy file .*Failed to read all data",
    "empty": r"not a trajectory \.npy file .*EOF",
    "object-array": r"not a trajectory \.npy file .*Object arrays cannot be loaded",
    "renamed-fields": r"not a trajectory \(a 1-D array of dtype",
    "reordered-fields": r"not a trajectory \(a 1-D array of dtype",
    "f4-fields": r"not a trajectory \(a 1-D array of dtype",
    "two-d": r"not a trajectory \(a 1-D array of dtype",
    "t-off-step": "the t column does not step by 0.01 s from 0",
}


def _fields(rows, names):
    """The '<f8' fields `names` of `rows`, in that order, as an array of them alone."""
    return np.array(rows[names].tolist(), dtype=[(name, "<f8") for name in names])


def _write_fault(path: Path, kind: str, entry: dict, history: int, unpickled: Path) -> None:
    """Give the trajectory file `path`, listed by the manifest `entry`, the fault `kind`."""
    rows, raw = np.load(path, allow_pickle=False), path.read_bytes()
    if kind == "short":   # a trace shorter than the history, as the manifest lists
        np.save(path, rows[:history])
        entry["samples"] = history - 1
    elif kind == "not-trajectory":   # CSV text under the trajectory's file name
        path.write_text(TRAJECTORY_CSV_HEADER + "\n" + "0.0,1.0\n" * 20)
    elif kind in ("truncated", "empty"):
        path.write_bytes(raw[:len(raw) // 2] if kind == "truncated" else b"")
    elif kind == "object-array":
        np.save(path, np.array([Touch(unpickled)], dtype=object), allow_pickle=True)
    elif kind == "t-off-step":   # one time stamp off by 1e-12 s
        rows["t"][5] += 1e-12
        np.save(path, rows)
    else:
        np.save(path, {
            "missing-row": lambda: rows[:-1],   # the manifest lists one row more
            "header-only": lambda: rows[:0],
            "few-columns": lambda: _fields(rows, HEADER[:13]),
            "renamed-fields": lambda: rows.view([("time", "<f8")] + rows.dtype.descr[1:]),
            "reordered-fields": lambda: _fields(rows, HEADER[1:] + HEADER[:1]),
            "f4-fields": lambda: rows.astype([(name, "<f4") for name in HEADER]),
            "two-d": lambda: rows[:, None],
        }[kind]())


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
        # each trajectory is the .npy array named as its trace's command CSV
        for entry in manifest["segments"]:
            assert entry["file"].endswith(".csv")
            assert entry["trajectory"] == entry["file"][:-len(".csv")] + ".npy"
        assert sorted(p.name for p in (out / "trajectories").iterdir()) == \
            sorted(e["trajectory"] for e in manifest["segments"])
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
        # every trace is read in the caller, whatever the CPU count, and
        # each column is the field of the file that its CSV name names
        usable_cpus(monkeypatch, cpus)
        out, _ = run_dir
        trajs = load_trajectories(out)
        assert len(trajs) > 2
        assert all(len(t) > 1 for t in trajs)
        manifest = json.loads((out / "corpus" / "manifest.json").read_text())
        listed = [e for e in manifest["segments"] if e.get("trajectory")]
        assert [t.name for t in trajs] == [e["name"] for e in listed]
        for traj, entry in zip(trajs, listed):
            saved = np.load(out / "trajectories" / entry["trajectory"], allow_pickle=False)
            assert saved.dtype.names == tuple(HEADER)
            assert traj.thrusts.tobytes() == \
                np.column_stack([saved[f"To{j}"] for j in range(1, 5)]).tobytes()
            assert traj.m_ox.tobytes() == saved["mo"].tobytes()
            assert np.array_equal(saved["t"], traj.t)

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
        rows = sum(len(np.load(p, allow_pickle=False)) for p in (tmp_path / "trajectories").iterdir())
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
    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_bad_trajectory_raises(self, run_dir, tmp_path, monkeypatch, cpus, fault):
        # the second trace has the fault; the last one another, which a
        # serial run would meet later, so it must not be what is raised.
        # Each fault raises its ValueError, naming the file, without a
        # warning before it, and no file is ever unpickled.
        src, cfg = run_dir
        out = tmp_path / "bad"
        for sub in ("corpus", "trajectories"):
            shutil.copytree(src / sub, out / sub)
        manifest_path = out / "corpus" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entries = [e for e in manifest["segments"] if e.get("trajectory")]
        later = "short" if fault != "short" else "not-trajectory"
        unpickled = tmp_path / "unpickled"
        for entry, kind in ((entries[1], fault), (entries[-1], later)):
            _write_fault(out / "trajectories" / entry["trajectory"], kind, entry,
                         cfg.history, unpickled)
        manifest_path.write_text(json.dumps(manifest))
        usable_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match=FAULTS[fault]) as caught:
            cmd_train(replace(cfg, output_dir=str(out)))
        # a trace too short for the history is named by its trace name
        assert entries[1]["name" if fault == "short" else "trajectory"] in str(caught.value)
        # load_trajectories checks each file as cmd_train does; a trace
        # too short for the history is no fault of its file, so there the
        # last trace's fault is the first one met
        failing = entries[-1] if fault == "short" else entries[1]
        with pytest.raises(ValueError, match=FAULTS[later if fault == "short" else fault]) \
                as loaded:
            load_trajectories(out)
        assert failing["trajectory"] in str(loaded.value)
        assert not unpickled.exists()

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


def _read_series(path):
    with open(path, "rb") as fh:
        return np.lib.format.read_array(fh, allow_pickle=False)


class TestValidate:
    def test_suite_runs_and_reports(self, run_dir):
        out, cfg = run_dir
        reports = cmd_validate(cfg)
        assert set(reports) == {"sine600", "stair", "fall", "descent"}
        header = ["t"] + [f"{label}{suffix}" for label in TARGET_NAMES for suffix in ("", "_pred")]
        for trace in validation_traces(cfg):
            report = json.loads((out / "validation" / f"{trace.name}_report.json").read_text())
            assert report["diverged_at"] is None
            series = _read_series(out / "validation" / f"{trace.name}_timeseries.npy")
            assert list(series.dtype.names) == header and series.shape == (len(trace) + 1,)

    def test_timeseries_holds_csv_values(self, tmp_path):
        # for the default model, each experiment's .npy holds bitwise the
        # values that the CSV export of the same truth and prediction holds
        cfg = PipelineConfig(output_dir=str(tmp_path))
        cmd_gen_data(cfg)
        cmd_train(cfg)
        cmd_validate(cfg)
        model = model_from_json(tmp_path / "model.json")
        for trace in validation_traces(cfg):
            truth = simulate(trace, cfg.plant)
            timeseries_csv(truth, rollout(model, trace, truth)[0], tmp_path / "export.csv")
            header, *lines = (tmp_path / "export.csv").read_text().splitlines()
            values = np.array([[float(v) for v in line.split(",")] for line in lines])
            series = _read_series(tmp_path / "validation" / f"{trace.name}_timeseries.npy")
            assert ",".join(series.dtype.names) == header
            assert np.array_equal(series.view("<f8").reshape(len(series), -1).view(np.int64),
                                  values.view(np.int64)), trace.name

    def test_model_step_checked(self, run_dir, tmp_path):
        # the model records the plant step it was trained at, and the
        # suite refuses to roll it out at another
        src, cfg = run_dir
        assert model_from_json(src / "model.json").dt == cfg.plant.dt == 0.01
        cfg = replace(cfg, plant=PlantConfig(dt=0.02), output_dir=str(tmp_path))
        with pytest.raises(ValueError, match="model fitted at step 0.01 s cannot roll out "
                                             "a trace at step 0.02 s"):
            cmd_validate(cfg, model_path=src / "model.json")

    def test_old_layout_model_rejected(self, run_dir, tmp_path):
        # a model file of the 11n + 10 layout (76 inputs at n = 6, with a
        # standalone pressure slot) loads, but the suite refuses to roll
        # it out on the 11n + 9 columns
        src, _ = run_dir
        model = model_from_json(src / "model.json")
        std = model.standardization
        old = replace(model, n=6, K=np.zeros((7, 153)),
                      standardization=replace(std, x_mean=np.zeros(153), x_scale=np.ones(153)))
        model_to_json(old, tmp_path / "old_layout.json")
        cfg = tiny_config(str(tmp_path / "old"))
        with pytest.raises(ValueError, match="feature width 75 does not match model input "
                                             "width 76"):
            cmd_validate(cfg, model_path=tmp_path / "old_layout.json")

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

    # sha256 of each file that the suite writes for `_lagged_model`, as the
    # jobs wrote them when they sent back whole trajectories (x86_64, numpy 2.4)
    PINNED = {
        "validation/descent_report.json":
            "4631fe5c80dd14a2f03e3eb130fc8afe278a497698cfecfb3aac29147ab7b4ca",
        "validation/fall_report.json":
            "cf5d6671996c9a138fb164cf7db0353e67c6cd58b44ff0d9974e03a7adbeb5a9",
        "validation/fall_timeseries.npy":
            "5f3f678ff154fc179c8bb00acc06dd3a2c0f0eecaa22a160a9b780f7d074781d",
        "validation/sine600_report.json":
            "665447c0f8b5363e833352ef4280b06c656022f767f52ea9e77a7fe4f8751b52",
        "validation/sine600_timeseries.npy":
            "8d2ed02a6a23e7eac778b5c336f548d748f8ac2514ba7930e9d876ea387b4e75",
        "validation/stair_report.json":
            "d78556e994f73b71b4f257a3f7cff8aa338b26ce84e6ba4de3b0761160260b09",
        "validation/stair_timeseries.npy":
            "b100f7c38dbf7300eb076ab0840182909fef6aafe4552c5ab24f366a40474ce3",
    }

    @staticmethod
    def _lagged_model(trained, path):
        """A first-order lag per thrust that settles 300 N below its command
        (floored below 300 N), a fuel mass that would fall each step (held
        by the clamp), a rising oxidizer mass, and a pressure that grows 10%
        a step: its square overflows after ~3,570 steps, so the descent
        alone diverges."""
        names = feature_names(trained.n)
        K = np.zeros_like(trained.K)
        for j in range(1, 5):
            K[j - 1, 0] = -30.0
            K[j - 1, 1 + names.index(f"To{j}_m1")] = 0.9
            K[j - 1, 1 + names.index(f"Tr{j}")] = 0.1
        K[4, 1 + names.index("P_m1")] = 1.1
        K[5, 0], K[5, 1 + names.index("mf_m1")] = -1e-4, 1.0
        K[6, 0], K[6, 1 + names.index("mo_m1")] = 2e-4, 1.0
        model_to_json(replace(trained, K=K, sparsity=float(np.mean(K == 0.0))), path)

    def test_files_pinned_and_independent_of_cpu_count(self, run_dir, tmp_path, monkeypatch):
        # the jobs send back output columns only and the caller rebuilds
        # each trajectory from its trace: every file, the descent's diverged
        # record among them, is the same at 1 and 2 usable CPUs and is the
        # file that the former jobs wrote
        src, _ = run_dir
        self._lagged_model(model_from_json(src / "model.json"), tmp_path / "lagged.json")
        digests = {}
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            cfg = tiny_config(str(tmp_path / f"cpus{cpus}"))
            reports = cmd_validate(cfg, model_path=tmp_path / "lagged.json")
            digests[cpus] = _hash_tree(tmp_path / f"cpus{cpus}")
            assert reports["descent"] == {"experiment": "descent", "diverged_at": 35.77}
            assert all(isinstance(reports[name], ValidationReport)
                       for name in ("sine600", "stair", "fall"))
        assert digests[1] == digests[2]
        assert digests[1] == self.PINNED, digests[1]

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
              "module_mass_max_err", "sparsity", "diverged_at", "raw_max_thrust_err",
              "thrust_floor_on", "thrust_floor_off", "mass_clamps"}
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


class TestBinaryTrajectories:
    def test_no_trajectory_goes_through_text(self, tmp_path, monkeypatch):
        # gen-data saves each response as a .npy array, which train and
        # sweep load: no trajectory is formatted or parsed as CSV text, and
        # the files hold the same bytes at 1 and 2 usable CPUs
        def refuse(*args, **kwargs):
            raise AssertionError("a trajectory went through CSV text")

        for owner, name in ((PlantTrajectory, "to_csv"), (PlantTrajectory, "from_csv"),
                            (np, "loadtxt")):
            monkeypatch.setattr(owner, name, refuse)
        digests = {}
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            cfg = tiny_config(str(tmp_path / f"cpus{cpus}"))
            cmd_gen_data(cfg)
            cmd_train(cfg)
            cmd_sweep(cfg)
            digests[cpus] = {k: v for k, v in _hash_tree(Path(cfg.output_dir)).items()
                             if k.startswith("trajectories/")}
        assert len(digests[1]) > 2 and all(k.endswith(".npy") for k in digests[1])
        assert digests[1] == digests[2]


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
