"""Acceptance gate: twelve criteria, each printed as a PASS line when
its assertions hold at the stated tolerance.

Solver-level criteria (1-3, 12) check the regression and excitation
primitives against independent closed forms. Pipeline-level criteria
(4-11) run the default corpus end to end against the surrogate plant;
their thresholds are the paper-analogous tolerances fixed up front, not
calibrated after the fact.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ar2_trajectory, reduced_pipeline_config, soft_threshold
from throttleid.excitation import (ExcitationConfig, build_corpus,
                                   excitation_basis, excitation_segment,
                                   step_stair_trace, thrust_levels)
from throttleid.features import assemble, merge
from throttleid.pipeline import cmd_gen_data, cmd_sweep, cmd_train, cmd_validate
from throttleid.plant import PlantConfig, module_mass, simulate
from throttleid.regression import BasisSpec, fit_lasso
from throttleid.rollout import descent_profile, error_windows, rollout
from throttleid.tuning import SweepConfig, sweep_history, sweep_mu

EX = ExcitationConfig()
PC = PlantConfig()
BASIS = BasisSpec()
TRAIN_MU = 3e-5  # pipeline default, sqrt-rows scaled
SETTLE = 1.0     # s


def ok(line: str) -> None:
    print(f"[acceptance] {line}")


@pytest.fixture(scope="module")
def corpus_trajs():
    return [simulate(t, PC) for t in build_corpus(EX, PC)]


@pytest.fixture(scope="module")
def default_model(corpus_trajs):
    ds = merge([assemble(tr, 6) for tr in corpus_trajs])
    return fit_lasso(ds.inputs, ds.targets, TRAIN_MU,
                     basis=BASIS, n_history=6, penalty_scale="sqrt-rows")


@pytest.fixture(scope="module")
def history_report(corpus_trajs):
    cfg = SweepConfig()
    return sweep_history(corpus_trajs, cfg)


@pytest.fixture(scope="module")
def mu_report(corpus_trajs, history_report):
    cfg = SweepConfig()
    ds = merge([assemble(tr, history_report.selected) for tr in corpus_trajs])
    return sweep_mu(ds, cfg)


class TestCriterion01:
    def test_lasso_matches_normal_equations(self):
        rng = np.random.default_rng(2024)
        t0 = time.time()
        worst = 0.0
        for _ in range(20):
            X = rng.standard_normal((200, 20))
            Y = rng.standard_normal((200, 7))
            model = fit_lasso(X, Y, 0.0)
            oracle = np.linalg.solve(X.T @ X, X.T @ Y).T
            rel = np.max(np.abs(model.K - oracle)) / np.max(np.abs(oracle))
            worst = max(worst, rel)
        elapsed = time.time() - t0
        assert worst < 1e-6
        assert elapsed < 5.0
        ok(f"C1 PASS lasso(mu=0) vs normal equations: worst rel err "
           f"{worst:.2e} over 20 problems in {elapsed:.2f}s")


class TestCriterion02:
    def test_kkt_certification(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for mu in (1e-4, 1e-3, 1e-2):
            for _ in range(5):
                X = rng.standard_normal((400, 30))
                K = rng.standard_normal((30, 3)) * (rng.random((30, 3)) > 0.6)
                Y = X @ K + 0.05 * rng.standard_normal((400, 3))
                model = fit_lasso(X, Y, mu)
                worst = max(worst, model.kkt)
        assert worst <= 1e-6
        ok(f"C2 PASS KKT subgradient conditions at mu in {{1e-4,1e-3,1e-2}}: "
           f"worst residual {worst:.2e} <= 1e-6")


class TestCriterion03:
    def test_univariate_closed_form(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(100):
            phi = rng.standard_normal((rng.integers(20, 200), 1))
            y = rng.standard_normal(phi.shape)
            mu = float(rng.uniform(0.0, 30.0))
            model = fit_lasso(phi, y, mu)
            expected = soft_threshold(float(phi[:, 0] @ y[:, 0]), mu) \
                / float(phi[:, 0] @ phi[:, 0])
            worst = max(worst, abs(model.K[0, 0] - expected))
        assert worst <= 1e-10
        ok(f"C3 PASS univariate closed form over 100 instances: "
           f"worst abs err {worst:.2e} <= 1e-10")


class TestCriterion04:
    def test_sparsity_path(self, mu_report):
        sp = [pt.mean_sparsity for pt in mu_report.points]
        diff = sp[-1] - sp[0]
        assert sp[-1] > sp[0]
        assert diff >= 0.3
        ok(f"C4 PASS sparsity path over mu 1e-5..1e0: {sp[0]:.3f} -> {sp[-1]:.3f} "
           f"(diff {diff:.3f} >= 0.3)")


class TestCriterion05:
    def test_underfit_at_grid_top(self, mu_report):
        tests = [pt.mean_test for pt in mu_report.points]
        ratio = tests[-1] / min(tests)
        assert ratio >= 1.2
        ok(f"C5 PASS test RMSE at mu=1e0 is {ratio:.2f}x the grid minimum (>= 1.2)")


class TestCriterion06:
    def test_history_selection_on_corpus(self, history_report):
        assert 4 <= history_report.selected <= 8
        ok(f"C6a PASS CV-selected history length n={history_report.selected} in [4, 8]")

    def test_ar2_control_selects_two(self):
        traj = ar2_trajectory()
        cfg = SweepConfig(n_grid=(1, 2, 3, 4), k=5)
        report = sweep_history([traj], cfg, seed=0)
        assert report.selected == 2
        ok("C6b PASS synthetic order-2 control selects n=2 exactly")


class TestCriterion07:
    def test_sine_analogue(self, default_model):
        t0 = time.time()
        sine = excitation_segment(600.0, EX, PC)
        sine.name = "sine600"
        assert not any(np.isclose(600.0, thrust_levels(EX, PC)))  # held out
        truth = simulate(sine, PC)
        pred, _ = rollout(default_model, sine, truth)
        rep = error_windows(truth, pred, SETTLE, cfg=PC)
        steady_max = float(np.max(rep.max_err_steady[:4]))
        assert steady_max <= 4.0
        # Every sample of this continuously-modulated segment falls in
        # the transient class of the repo's window rule, so the steady
        # bound alone would be vacuous; hold the whole post-warmup
        # segment to the transient tolerance as well.
        assert rep.max_thrust_err_after_settle <= 25.0
        ok(f"C7 PASS sine600 rollout: steady-class max {steady_max:.2f} N <= 4, "
           f"post-settle max {rep.max_thrust_err_after_settle:.2f} N <= 25 "
           f"({rep.n_steady} steady / {rep.n_transient} transient samples, "
           f"{time.time()-t0:.0f}s)")


class TestCriterion08:
    def test_step_stair_analogue(self, default_model):
        stair = step_stair_trace([400.0, 600.0, 800.0, 600.0, 400.0], 5.0, PC)
        truth = simulate(stair, PC)
        pred, _ = rollout(default_model, stair, truth)
        rep = error_windows(truth, pred, SETTLE, cfg=PC)
        tr = float(np.max(rep.max_err_transient[:4]))
        st = float(np.max(rep.max_err_steady[:4]))
        assert tr <= 25.0
        assert st <= 4.0
        ok(f"C8 PASS step-stair rollout: transient max {tr:.2f} N <= 25, "
           f"steady max {st:.2f} N <= 4")


class TestCriterion09:
    def test_descent_analogue(self, default_model):
        prof = descent_profile(dt=PC.dt)
        truth = simulate(prof, PC)
        pred, _ = rollout(default_model, prof, truth)
        rep = error_windows(truth, pred, SETTLE, cfg=PC)
        per_engine = float(np.max(rep.max_thrust_err_per_engine))
        mass_err = rep.module_mass_max_err
        assert per_engine <= 20.0
        assert mass_err <= 2.0
        ok(f"C9 PASS {prof.duration:.0f}s descent rollout: per-engine thrust err "
           f"{per_engine:.2f} N <= 20, module mass err {mass_err:.3f} kg <= 2")


class TestCriterion10:
    def test_plant_conservation(self, corpus_trajs):
        worst_closure = 0.0
        for traj in corpus_trajs:
            mm = module_mass(traj, PC)
            recomputed = PC.m_module0 - (traj.m_fuel + traj.m_ox)
            assert np.array_equal(mm, recomputed)
            worst_closure = max(worst_closure, float(np.max(np.abs(
                mm + traj.m_fuel + traj.m_ox - PC.m_module0))))
            dm = np.diff(traj.m_fuel + traj.m_ox) / traj.dt
            mdot = traj.thrusts.sum(axis=1) / PC.exhaust_velocity
            # atol floors the relative check where shutdown decay
            # tails leave physically-zero flows (~1e-12 kg/s dust)
            np.testing.assert_allclose(dm, 0.5 * (mdot[1:] + mdot[:-1]),
                                       rtol=1e-9, atol=1e-12)
        assert worst_closure < 1e-9
        ok(f"C10 PASS conservation identity exact and flow law within 1e-9 "
           f"relative over {len(corpus_trajs)} corpus traces "
           f"(closure residual {worst_closure:.1e})")


class TestCriterion11:
    def test_pipeline_determinism(self, tmp_path):
        hashes = []
        for sub in ("runA", "runB"):
            out = tmp_path / sub
            cfg = reduced_pipeline_config(str(out), seed=13)
            cmd_gen_data(cfg)
            cmd_train(cfg)
            cmd_sweep(cfg)
            cmd_validate(cfg)
            digest = {}
            for p in sorted(out.rglob("*")):
                # the config snapshot records the output path itself
                if p.is_file() and p.name != "config.json":
                    digest[str(p.relative_to(out))] = hashlib.sha256(
                        p.read_bytes()).hexdigest()
            hashes.append(digest)
        assert hashes[0] == hashes[1]
        assert any(k.endswith("model.json") for k in hashes[0])
        ok(f"C11 PASS two full pipeline runs byte-identical across "
           f"{len(hashes[0])} artifact files")


class TestCriterion12:
    def test_excitation_geometry(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(-1000.0, 1000.0, size=100000)
        norms = np.linalg.norm(excitation_basis(t), axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        assert worst <= 1e-12
        for m in (1, 2, 3, 5, 8, 11, 16):
            pc = PlantConfig(e_min=240.0, e_max=800.0)
            lv = thrust_levels(ExcitationConfig(m_levels=m), pc)
            for k in range(m):
                assert lv[k] == pc.e_min + (k / m) * (pc.e_max - pc.e_min)
        ok(f"C12 PASS unit-norm excitation over 1e5 samples "
           f"(worst |norm-1| {worst:.1e}) and exact level formula")
