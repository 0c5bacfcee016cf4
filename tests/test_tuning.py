"""Hyperparameter sweeps: CV mechanics, selection rules, Pareto table."""

import multiprocessing
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import ar2_trajectory, usable_cpus
import throttleid.tuning as tuning_mod
from throttleid.features import assemble, kfold_indices
from throttleid.regression import BasisSpec, ConvergenceError, expand, raw_moments
from throttleid.tuning import (GridPoint, SweepConfig, SweepError, SweepReport,
                               pareto_table, pareto_to_csv, sweep_history, sweep_mu)


@pytest.fixture(scope="module")
def ar2_traj():
    return ar2_trajectory()


def small_cfg(**kw):
    defaults = dict(n_grid=(1, 2, 3, 4), mu_grid=tuple(np.logspace(-5, 0, 6)), k=5)
    defaults.update(kw)
    return SweepConfig(**defaults)


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.n_grid == tuple(range(1, 11))
        assert len(cfg.mu_grid) == 11
        assert cfg.mu_grid[0] == pytest.approx(1e-5)
        assert cfg.mu_grid[-1] == pytest.approx(1.0)
        # decade steps of sqrt(10)
        ratios = np.diff(np.log10(cfg.mu_grid))
        np.testing.assert_allclose(ratios, 0.5, rtol=1e-12)

    def test_bad_grids_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(mu_grid=(1e-2, 1e-3))
        with pytest.raises(ValueError):
            SweepConfig(mu_grid=(0.0, 1.0))
        with pytest.raises(ValueError):
            SweepConfig(n_grid=())
        with pytest.raises(ValueError, match="must be >= 1, got 0"):
            SweepConfig(n_grid=(0, 3))
        with pytest.raises(ValueError, match="must be distinct"):
            SweepConfig(n_grid=(4, 3, 4))


class TestSweepHistory:
    def test_singleton_grid(self, ar2_traj):
        cfg = small_cfg(n_grid=(3,))
        report = sweep_history([ar2_traj], cfg)
        assert report.selected == 3

    def test_ar2_selects_two(self, ar2_traj):
        cfg = small_cfg()
        report = sweep_history([ar2_traj], cfg)
        assert report.selected == 2
        # order-1 misses the second lag badly; order >= 2 are ties
        assert report.point(1).mean_test > 2.0 * report.point(2).mean_test

    def test_fold_failure_wrapped(self, ar2_traj, monkeypatch):
        # force a solver failure to confirm the (grid point, fold) wrap
        import throttleid.tuning as tuning_mod

        def boom(*a, **k):
            raise ConvergenceError(1, 1.0)

        monkeypatch.setattr(tuning_mod, "fit_from_moments", boom)
        cfg = small_cfg(n_grid=(2,))
        with pytest.raises(SweepError) as exc:
            sweep_history([ar2_traj], cfg)
        assert exc.value.grid_value == 2
        assert exc.value.fold == 0

    def test_deterministic(self, ar2_traj):
        cfg = small_cfg(n_grid=(1, 2))
        a = sweep_history([ar2_traj], cfg)
        b = sweep_history([ar2_traj], cfg)
        assert a.to_json() == b.to_json()


@pytest.fixture(scope="module")
def ds(ar2_traj):
    return assemble(ar2_traj, 2)


class TestSweepMu:
    def test_singleton_grid(self, ds):
        cfg = small_cfg(mu_grid=(1e-3,))
        report = sweep_mu(ds, cfg)
        assert report.selected == pytest.approx(1e-3)

    def test_sparsity_increases_along_grid(self, ds):
        cfg = small_cfg()
        report = sweep_mu(ds, cfg)
        sp = [pt.mean_sparsity for pt in report.points]
        assert sp[-1] >= sp[0]
        assert sp[-1] > 0.9  # mu=1 prunes essentially everything

    def test_underfits_at_grid_top(self, ds):
        cfg = small_cfg()
        report = sweep_mu(ds, cfg)
        tests = [pt.mean_test for pt in report.points]
        assert tests[-1] > 1.2 * min(tests)

    def test_train_below_test_at_small_mu(self, ds):
        cfg = small_cfg()
        report = sweep_mu(ds, cfg)
        pt = report.points[0]
        assert pt.mean_train <= pt.mean_test

    def test_selection_prefers_larger_mu_on_tie(self, ds):
        cfg = small_cfg()
        report = sweep_mu(ds, cfg)
        tests = {pt.value: pt.mean_test for pt in report.points}
        cutoff = min(tests.values()) * (1 + tuning_mod.SELECT_REL_TOL)
        tied = [mu for mu, t in tests.items() if t <= cutoff]
        assert report.selected == max(tied)

    def test_fold_integrity(self, ds):
        # sweep folds are the seeded permutation of the rows, split in k
        cfg = small_cfg()
        pairs = kfold_indices(len(ds), cfg.k, 0)
        order = np.random.default_rng(0).permutation(len(ds))
        for (train, test), fold in zip(pairs, np.array_split(order, cfg.k)):
            np.testing.assert_array_equal(test, np.sort(fold))
            assert np.intersect1d(train, test).size == 0
            assert len(train) + len(test) == len(ds)
        np.testing.assert_array_equal(np.sort(np.concatenate([te for _, te in pairs])),
                                      np.arange(len(ds)))

    def test_deterministic(self, ds):
        cfg = small_cfg(mu_grid=(1e-4, 1e-2))
        assert sweep_mu(ds, cfg).to_json() == sweep_mu(ds, cfg).to_json()

    def test_seed_draws_folds(self, ds):
        # the seed argument draws the folds and the report records it
        cfg = small_cfg(mu_grid=(1e-2,), k=2)
        a, b = sweep_mu(ds, cfg), sweep_mu(ds, cfg, seed=3)
        assert (a.seed, b.seed) == (0, 3)
        assert a.points[0].test_rmse != b.points[0].test_rmse


class TestWorkers:
    def test_errors_pickle(self):
        # a worker's error crosses back to the caller by pickle
        conv = pickle.loads(pickle.dumps(ConvergenceError(17, 0.25)))
        assert type(conv) is ConvergenceError
        assert (conv.sweeps, conv.kkt_residual) == (17, 0.25)
        err = SweepError(0.01, 3, ConvergenceError(17, 0.25))
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is SweepError
        assert (back.grid_value, back.fold) == (0.01, 3)
        assert str(back) == str(err)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_earliest_fold_failure_raised(self, ds, monkeypatch, cpus):
        # fold 1 fails at the third mu of its path; fold 2 fails earlier
        # in its own path, and with two workers its error may come back
        # before fold 1's
        usable_cpus(monkeypatch, cpus)
        cfg = small_cfg(k=3)
        mu_desc = sorted(cfg.mu_grid, reverse=True)
        train_means = [ds.targets[train].mean(axis=0)
                       for train, _ in kfold_indices(len(ds), cfg.k, 0)]
        real_fit = tuning_mod.fit_from_moments

        def flaky(m, mu, **kw):
            fold = next(f for f, mean in enumerate(train_means)
                        if np.allclose(m.my, mean, rtol=1e-9, atol=0.0))
            if (fold, mu) in {(1, mu_desc[2]), (2, mu_desc[0])}:
                raise ConvergenceError(fold, 1.0)
            return real_fit(m, mu, **kw)

        monkeypatch.setattr(tuning_mod, "fit_from_moments", flaky)
        with pytest.raises(SweepError) as exc:
            sweep_mu(ds, cfg)
        assert exc.value.fold == 1
        assert exc.value.grid_value == mu_desc[2]
        assert "no convergence after 1 sweeps" in str(exc.value)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_uncertified_fit_raised(self, ar2_traj, ds, monkeypatch, cpus):
        # one fit of each sweep comes back with a KKT residual above the
        # certification bound; the error names its grid value and fold.
        # With two workers, every fit runs in a forked child.
        usable_cpus(monkeypatch, cpus)
        cfg = small_cfg(n_grid=(1, 2, 3), k=3)
        mu_desc = sorted(cfg.mu_grid, reverse=True)
        train_means = [ds.targets[train].mean(axis=0)
                       for train, _ in kfold_indices(len(ds), cfg.k, 0)]
        real_fit = tuning_mod.fit_from_moments

        def uncertified_at(fold, mu):
            def fit(m, mu_, **kw):
                model = real_fit(m, mu_, **kw)
                if kw["n_history"] == 2 and mu_ == mu and np.allclose(
                        m.my, train_means[fold], rtol=1e-9, atol=0.0):
                    model = replace(model, kkt=2e-6 * model.mu_effective)
                return model
            return fit

        monkeypatch.setattr(tuning_mod, "fit_from_moments", uncertified_at(1, mu_desc[3]))
        with pytest.raises(SweepError, match="KKT residual") as exc:
            sweep_mu(ds, cfg)
        assert (exc.value.grid_value, exc.value.fold) == (mu_desc[3], 1)

        monkeypatch.setattr(tuning_mod, "fit_from_moments",
                            uncertified_at(2, tuning_mod.HISTORY_MU))
        with pytest.raises(SweepError, match="KKT residual") as exc:
            sweep_history([ar2_traj], cfg)
        assert (exc.value.grid_value, exc.value.fold) == (2, 2)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_short_trajectory_raised(self, monkeypatch, cpus):
        # each history length assembles its own rows, so a length longer
        # than the trajectory fails in its own task; n=2 fits normally.
        # The fits are counted in shared memory, whichever process runs them.
        usable_cpus(monkeypatch, cpus)
        grid = (2, 400)
        real_fit, fitted = tuning_mod.fit_from_moments, multiprocessing.RawArray("i", len(grid))

        def counted(*a, **kw):
            fitted[grid.index(kw["n_history"])] += 1
            return real_fit(*a, **kw)

        monkeypatch.setattr(tuning_mod, "fit_from_moments", counted)
        with pytest.raises(ValueError, match="too short for history n=400"):
            sweep_history([ar2_trajectory(300)], small_cfg(n_grid=grid))
        assert list(fitted) == [5, 0]

    def test_dead_worker_reported(self, ds, monkeypatch):
        usable_cpus(monkeypatch, 2)
        caller, real_fit = os.getpid(), tuning_mod.fit_from_moments

        def exit_in_child(*a, **kw):
            if os.getpid() != caller:
                os._exit(3)
            return real_fit(*a, **kw)

        monkeypatch.setattr(tuning_mod, "fit_from_moments", exit_in_child)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            sweep_mu(ds, small_cfg(k=2, mu_grid=(1e-2,)))

    def test_reports_independent_of_worker_count(self, ar2_traj, ds, monkeypatch):
        cfg = small_cfg(k=3)
        texts = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            texts.append((sweep_mu(ds, cfg).to_json(),
                          sweep_history([ar2_traj], cfg).to_json()))
        assert texts[0] == texts[1]

    def test_fork_with_live_blas_threads(self):
        # The child forks while OpenBLAS's default thread pool is running;
        # a deadlock shows as a timeout, a corrupted result as a mismatch
        # with the serial run. Both runs share the subprocess's BLAS
        # settings, whatever the caller's.
        script = """
import os, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from conftest import ar2_trajectory
from throttleid.features import assemble
from throttleid.tuning import SweepConfig, sweep_mu
a = np.ones((400, 400))
a @ a
ds, cfg = assemble(ar2_trajectory(3000), 2), SweepConfig(mu_grid=(1e-4, 1e-2), k=3)
for cpus in (2, 1):
    os.sched_getaffinity = lambda pid, cpus=cpus: set(range(cpus))
    print(sweep_mu(ds, cfg).to_json())
    print("--")
"""
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        tests_dir = Path(__file__).resolve().parent
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(tests_dir.parent / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script, str(tests_dir)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        forked, serial, rest = done.stdout.split("--\n")
        assert rest == "" and '"kind": "mu"' in forked
        assert forked == serial


class TestFoldMoments:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_row_read_once(self, ar2_traj, ds, monkeypatch, cpus):
        # each fold's block of moments is taken once, and no pass over
        # the full data is made: the rows passed to raw_moments, counted
        # in shared memory whichever process takes them, are the rows of
        # the dataset of each sweep point
        usable_cpus(monkeypatch, cpus)
        real, rows = tuning_mod.raw_moments, multiprocessing.Value("q", 0)

        def counted(features, targets):
            with rows.get_lock():
                rows.value += len(features)
            return real(features, targets)

        monkeypatch.setattr(tuning_mod, "raw_moments", counted)
        sweep_mu(ds, small_cfg(k=3, mu_grid=(1e-3,)))
        assert rows.value == len(ds)
        rows.value = 0
        sweep_history([ar2_traj], small_cfg(n_grid=(2, 3), k=3))
        assert rows.value == len(assemble(ar2_traj, 2)) + len(assemble(ar2_traj, 3))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_row_expanded_once(self, ds, monkeypatch, cpus):
        # each fold's block task expands its own rows, counted in shared
        # memory whichever process expands them; with workers, the caller
        # expands none
        usable_cpus(monkeypatch, cpus)
        real, caller = tuning_mod.expand, os.getpid()
        rows, in_caller = multiprocessing.Value("q", 0), multiprocessing.Value("q", 0)

        def counted(x, basis):
            with rows.get_lock():
                rows.value += len(x)
                in_caller.value += len(x) if os.getpid() == caller else 0
            return real(x, basis)

        monkeypatch.setattr(tuning_mod, "expand", counted)
        sweep_mu(ds, small_cfg(k=3, mu_grid=(1e-3,)))
        assert rows.value == len(ds)
        assert in_caller.value == (len(ds) if cpus == 1 else 0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_training_moments_sum_other_folds(self, ds, monkeypatch, k):
        # at k=2 a fold's training moments are the other fold's block,
        # bitwise those of its training rows; at k=3 two blocks merged,
        # equal to them up to rounding. On one CPU the folds run in order.
        usable_cpus(monkeypatch, 1)
        real, seen = tuning_mod.fit_from_moments, []

        def recorded(train, mu, **kw):
            seen.append(train)
            return real(train, mu, **kw)

        monkeypatch.setattr(tuning_mod, "fit_from_moments", recorded)
        sweep_mu(ds, small_cfg(k=k, mu_grid=(1e-3,)))
        phi = expand(ds.inputs, BasisSpec())
        assert len(seen) == k
        for fold, (train, _) in enumerate(kfold_indices(len(ds), k, 0)):
            want = raw_moments(phi[train], ds.targets[train])
            assert seen[fold].n_rows == want.n_rows == len(train)
            for name in ("mx", "my", "Cxx", "Cxy", "Cyy"):
                got, ref = getattr(seen[fold], name), getattr(want, name)
                if k == 2:
                    assert got.tobytes() == ref.tobytes()
                else:
                    np.testing.assert_allclose(got, ref, rtol=1e-12,
                                               atol=1e-12 * np.abs(ref).max())


class TestPareto:
    def test_single_point(self, ar2_traj):
        ds = assemble(ar2_traj, 2)
        report = sweep_mu(ds, small_cfg(mu_grid=(1e-3,)))
        rows = pareto_table(report)
        assert len(rows) == 1 and rows[0]["pareto"]

    def test_dominated_points_flagged(self, ar2_traj):
        ds = assemble(ar2_traj, 2)
        report = sweep_mu(ds, small_cfg())
        rows = pareto_table(report)
        front = [r for r in rows if r["pareto"]]
        assert front
        for r in rows:
            dominated = any(f["sparsity"] >= r["sparsity"] and
                            f["test_rmse"] <= r["test_rmse"] and
                            (f["sparsity"] > r["sparsity"] or
                             f["test_rmse"] < r["test_rmse"]) for f in rows)
            assert r["pareto"] == (not dominated)

    def test_csv_written(self, tmp_path, ar2_traj):
        ds = assemble(ar2_traj, 2)
        report = sweep_mu(ds, small_cfg(mu_grid=(1e-4, 1e-2)))
        path = tmp_path / "pareto.csv"
        pareto_to_csv(pareto_table(report), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "mu,sparsity,test_rmse,pareto"
        assert len(lines) == 3


class TestReportIO:
    def test_csv_and_json(self, tmp_path, ar2_traj):
        report = sweep_history([ar2_traj], small_cfg(n_grid=(1, 2)))
        report.to_csv(tmp_path / "hist.csv")
        report.to_json(tmp_path / "hist.json")
        lines = (tmp_path / "hist.csv").read_text().splitlines()
        # header + (k folds + 1 mean line) per grid point
        assert len(lines) == 1 + 2 * (report.k + 1)
        assert "selected" in (tmp_path / "hist.json").read_text()

    def test_csv_text(self, tmp_path):
        # both mixed-type writers: strings as they are, ints and floats
        # as their repr, the Pareto flag as 0/1
        mu = SweepReport(kind="mu", k=2, seed=0, selected=0.1, points=[
            GridPoint(0.1, [0.5, 0.25], [1e-05, 1e-05], [0.0, 1.0])])
        hist = SweepReport(kind="history", k=1, seed=0, selected=2, points=[
            GridPoint(2, [1e16], [3.0], [0.5])])
        mu.to_csv(tmp_path / "mu.csv")
        hist.to_csv(tmp_path / "hist.csv")
        pareto_to_csv(pareto_table(mu), tmp_path / "pareto.csv")
        assert (tmp_path / "mu.csv").read_text() == (
            "kind,value,fold,train_rmse,test_rmse,sparsity\n"
            "mu,0.1,0,0.5,1e-05,0.0\n"
            "mu,0.1,1,0.25,1e-05,1.0\n"
            "mu,0.1,mean,0.375,1e-05,0.5\n")
        assert (tmp_path / "hist.csv").read_text() == (
            "kind,value,fold,train_rmse,test_rmse,sparsity\n"
            "history,2,0,1e+16,3.0,0.5\n"
            "history,2,mean,1e+16,3.0,0.5\n")
        assert (tmp_path / "pareto.csv").read_text() == (
            "mu,sparsity,test_rmse,pareto\n"
            "0.1,0.5,1e-05,1\n")
