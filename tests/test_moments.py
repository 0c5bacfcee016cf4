"""Centered moments on the default and reduced corpora: the fit from
per-trace blocks depends on neither the order of the traces nor the BLAS
kernel, and sweep scores taken from moments are those of the predictions."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import reduced_pipeline_config, usable_cpus
import throttleid.tuning as tuning_mod
from throttleid.features import assemble, kfold_indices, merge
from throttleid.pipeline import PipelineConfig, cmd_gen_data, load_trajectories
from throttleid.regression import expand, fit_from_moments, model_from_json, predict, raw_moments
from throttleid.tuning import PENALTY_SCALE, sweep_mu

# the mu-path benchmark's sweep: two folds along six decades of mu
MU_PATH = dict(k=2, mu_grid=(1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The default config and its corpus, read back from the trajectory CSVs."""
    cfg = PipelineConfig(output_dir=str(tmp_path_factory.mktemp("corpus")))
    cmd_gen_data(cfg)
    return cfg, load_trajectories(cfg.output_dir)


def distance(K, ref) -> float:
    """The largest coefficient difference, relative to the largest |coefficient|."""
    return float(np.abs(K - ref).max() / np.abs(ref).max())


def test_trace_order_invariant(corpus):
    # the default training fit from the per-trace blocks merged in corpus
    # order, reversed, and in two shuffled orders
    cfg, trajs = corpus
    blocks = []
    for tr in trajs:
        ds = assemble(tr, cfg.history)
        blocks.append(raw_moments(expand(ds.inputs, cfg.basis), ds.targets))

    def fit(order):
        merged = sum((blocks[i] for i in order[1:]), start=blocks[order[0]])
        return fit_from_moments(merged, cfg.train_mu, basis=cfg.basis,
                                penalty_scale=PENALTY_SCALE).K

    ref = fit(range(len(blocks)))
    rng = np.random.default_rng(5)
    for order in (range(len(blocks))[::-1], rng.permutation(len(blocks)),
                  rng.permutation(len(blocks))):
        K = fit(order)
        assert distance(K, ref) <= 1e-9
        assert np.array_equal(K != 0.0, ref != 0.0)


def test_fit_independent_of_blas_kernel(tmp_path):
    # `train` on one corpus under two OpenBLAS kernels, each on one BLAS
    # thread (the package's default): the models agree to 1e-9 of max|K|
    data = tmp_path / "data"
    cmd_gen_data(reduced_pipeline_config(str(data)))
    cfg_path = tmp_path / "config.json"
    reduced_pipeline_config(str(data)).to_json(cfg_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    models, kernels = [], []
    for core in ("Haswell", "Prescott"):
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        r = subprocess.run([sys.executable, "-m", "throttleid.cli", "train", "--config",
                            str(cfg_path), "--data", str(data), "--out", str(tmp_path / core)],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        # OpenBLAS names the kernel it loaded (Prescott's is "Katmai")
        kernels += [line for line in r.stderr.splitlines() if line.startswith("Core: ")]
        models.append(model_from_json(tmp_path / core / "model.json").K)
    if len(kernels) != 2:
        pytest.skip("numpy's BLAS is not an OpenBLAS that reports its kernel")
    assert kernels[0] != kernels[1]
    assert distance(*models) <= 1e-9
    assert np.array_equal(models[0] != 0.0, models[1] != 0.0)


def test_scores_match_predictions_on_mu_path(corpus, monkeypatch):
    # each fit's train and test RMSE from moments, against the scaled RMSE
    # of its predictions on its fold's rows; on one CPU the fits run in
    # fold order, each fold's from the largest mu down
    cfg, trajs = corpus
    usable_cpus(monkeypatch, 1)
    real_fit, models = tuning_mod.fit_from_moments, []

    def recorded(*a, **kw):
        models.append(real_fit(*a, **kw))
        return models[-1]

    monkeypatch.setattr(tuning_mod, "fit_from_moments", recorded)
    ds = merge([assemble(tr, cfg.history) for tr in trajs])
    sweep = replace(cfg.sweep, **MU_PATH)
    report = sweep_mu(ds, sweep, cfg.basis)
    mu_desc = sorted(sweep.mu_grid, reverse=True)
    assert len(models) == sweep.k * len(mu_desc)
    folds = kfold_indices(len(ds), sweep.k, 0)
    for i, model in enumerate(models):
        fold, mu = i // len(mu_desc), mu_desc[i % len(mu_desc)]
        point = report.point(mu)
        err = (predict(model, ds.inputs) - ds.targets) / model.standardization.y_scale
        for rows, got in zip(folds[fold], (point.train_rmse[fold], point.test_rmse[fold])):
            assert got == pytest.approx(float(np.sqrt(np.mean(err[rows] ** 2))), rel=1e-7)
