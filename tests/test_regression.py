"""Regression core: expansion, soft-thresholding, LASSO oracles, KKT."""

import json
import math

import numpy as np
import pytest

import throttleid.regression as regression_mod
from throttleid.regression import (BasisSpec, ConvergenceError, compute_moments,
                                   expand, fit_from_moments, fit_lasso,
                                   kkt_residual, model_from_json, model_to_json,
                                   predict, rmse, soft_threshold)


@pytest.fixture
def rng():
    """A fresh generator per test, so a test's data does not depend on
    which tests ran before it."""
    return np.random.default_rng(42)


class TestExpand:
    def test_linear(self):
        np.testing.assert_array_equal(
            expand(np.array([3.0, 5.0]), BasisSpec("linear")), [1, 3, 5])

    def test_elementwise_poly(self):
        np.testing.assert_array_equal(
            expand(np.array([3.0, 5.0]), BasisSpec("elementwise-poly", 2)),
            [1, 3, 5, 9, 25])

    def test_full_quadratic(self):
        np.testing.assert_array_equal(
            expand(np.array([3.0, 5.0]), BasisSpec("full-quadratic")),
            [1, 3, 5, 9, 15, 25])

    def test_no_bias(self):
        np.testing.assert_array_equal(
            expand(np.array([2.0]), BasisSpec("linear", include_bias=False)), [2])

    @pytest.mark.parametrize("kind,degree", [("linear", 1), ("elementwise-poly", 2),
                                             ("elementwise-poly", 3), ("full-quadratic", 2)])
    def test_width_formula(self, rng, kind, degree):
        basis = BasisSpec(kind, degree)
        for p in (1, 4, 11, 76):
            x = rng.standard_normal(p)
            assert expand(x, basis).shape[0] == basis.width(p)

    def test_batch_matches_single(self, rng):
        basis = BasisSpec("full-quadratic")
        X = rng.standard_normal((6, 5))
        batch = expand(X, basis)
        for i in range(6):
            np.testing.assert_array_equal(batch[i], expand(X[i], basis))

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["linear", "elementwise-poly", "full-quadratic"])
    def test_out_bitwise(self, rng, kind, degree, bias):
        basis = BasisSpec(kind, degree, bias)
        X = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-5, 6, (40, 7))
        X[0, :4] = [np.nan, np.inf, -np.inf, -0.0]
        with np.errstate(invalid="ignore", over="ignore"):
            # the columns built one by one and concatenated
            cols = [np.ones((40, 1))] if bias else []
            if kind == "elementwise-poly":
                cols += [X ** d for d in range(1, degree + 1)]
            else:
                cols.append(X)
                if kind == "full-quadratic":
                    cols += [X[:, i:i + 1] * X[:, i:] for i in range(7)]
            ref = np.concatenate(cols, axis=1)
            out = np.full_like(ref, 7.0)
            assert expand(X, basis, out=out) is out
            assert out.tobytes() == expand(X, basis).tobytes() == ref.tobytes()
            row = np.full(ref.shape[1], 7.0)
            assert expand(X[3], basis, out=row) is row
        assert row.tobytes() == ref[3].tobytes()

    def test_out_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            expand(np.zeros((2, 3)), BasisSpec(), out=np.zeros((2, 6)))


class TestSoftThreshold:
    def test_cases(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_zero_threshold_identity(self, rng):
        z = rng.standard_normal(50)
        np.testing.assert_array_equal(soft_threshold(z, 0.0), z)

    def test_shrinks_toward_zero(self, rng):
        z = rng.standard_normal(200) * 5
        a = 0.7
        s = soft_threshold(z, a)
        assert np.all(np.abs(s) <= np.abs(z))
        assert np.all(s[np.abs(z) <= a] == 0.0)


class TestFitLasso:
    def test_ols_limit_matches_normal_equations(self, rng):
        X = rng.standard_normal((200, 20))
        Y = rng.standard_normal((200, 7))
        model = fit_lasso(X, Y, 0.0, standardize=False)
        oracle = np.linalg.solve(X.T @ X, X.T @ Y).T
        rel = np.max(np.abs(model.K - oracle)) / np.max(np.abs(oracle))
        assert rel < 1e-6

    def test_tiny_mu_close_to_ols(self, rng):
        X = rng.standard_normal((150, 10))
        y = X @ rng.standard_normal((10, 1)) + 0.01 * rng.standard_normal((150, 1))
        ols = np.linalg.solve(X.T @ X, X.T @ y).ravel()
        near = fit_lasso(X, y, 1e-12, standardize=False).K.ravel()
        np.testing.assert_allclose(near, ols, rtol=1e-6, atol=1e-9)

    def test_null_solution_threshold(self, rng):
        X = rng.standard_normal((100, 8))
        X -= X.mean(axis=0)
        y = rng.standard_normal((100, 1))
        y -= y.mean(axis=0)
        mu_max = np.max(np.abs(X.T @ y))
        model = fit_lasso(X, y, mu_max * (1 + 1e-12), standardize=False)
        assert np.count_nonzero(model.K) == 0
        assert model.sparsity == 1.0

    def test_univariate_closed_form(self, rng):
        for _ in range(25):
            phi = rng.standard_normal((60, 1))
            y = rng.standard_normal((60, 1))
            mu = float(rng.uniform(0, 20))
            model = fit_lasso(phi, y, mu, standardize=False)
            expected = soft_threshold(float(phi[:, 0] @ y[:, 0]), mu) \
                / float(phi[:, 0] @ phi[:, 0])
            assert abs(model.K[0, 0] - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_kkt_certificate(self, rng):
        X = rng.standard_normal((300, 25))
        Y = rng.standard_normal((300, 3))
        for mu in (1e-4, 1e-3, 1e-2, 1.0, 10.0):
            model = fit_lasso(X, Y, mu, standardize=False, tol=1e-12)
            assert model.kkt <= 1e-6

    @pytest.mark.parametrize("mu,scale", [(0.01, "sqrt-rows"), (0.1, "rows"),
                                          (1.0, "sqrt-rows")])
    def test_objective_independent_of_tracking(self, rng, mu, scale):
        X = rng.standard_normal((200, 12))
        Y = X @ rng.standard_normal((12, 3)) + 0.1 * rng.standard_normal((200, 3))
        plain = fit_lasso(X, Y, mu, penalty_scale=scale)
        tracked = fit_lasso(X, Y, mu, penalty_scale=scale, track_objective=True)
        assert np.array_equal(plain.K, tracked.K)
        assert plain.objective == tracked.objective == tracked._objective_history[-1]

    def test_monotone_objective(self, rng):
        X = rng.standard_normal((120, 15))
        Y = rng.standard_normal((120, 2))
        model = fit_lasso(X, Y, 2.0, standardize=False, track_objective=True)
        hist = np.array(model._objective_history)
        assert np.all(np.diff(hist) <= 1e-9 * max(1.0, hist[0]))

    def test_nonfinite_rejected(self, rng):
        X = rng.standard_normal((10, 3))
        Y = np.full((10, 1), np.nan)
        with pytest.raises(ValueError):
            fit_lasso(X, Y, 0.1)

    def test_negative_mu_rejected(self, rng):
        X = rng.standard_normal((10, 3))
        with pytest.raises(ValueError):
            fit_lasso(X, X[:, :1], -1.0)

    def test_nonconvergence_raises(self, rng):
        X = rng.standard_normal((80, 12))
        X[:, 1] = X[:, 0] + 1e-9 * rng.standard_normal(80)  # near-duplicate column
        y = X @ np.ones((12, 1))
        with pytest.raises(ConvergenceError) as exc:
            fit_lasso(X, y, 0.0, standardize=False, max_sweeps=2, tol=1e-14)
        assert exc.value.kkt_residual >= 0.0

    @pytest.mark.parametrize("obj_rel_tol", [0.0, 1e-6])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 5.0])
    def test_exact_duplicate_columns(self, mu, obj_rel_tol):
        # duplicated columns make the support's Gram block singular and
        # the minimizer non-unique; predictions must not depend on it
        gen = np.random.default_rng(0)
        X = gen.standard_normal((200, 8))
        y = X @ gen.standard_normal((8, 2)) + 0.1 * gen.standard_normal((200, 2))
        X_dup = np.column_stack([X, X[:, :2]])
        dup = fit_lasso(X_dup, y, mu, obj_rel_tol=obj_rel_tol)
        ref = fit_lasso(X, y, mu, obj_rel_tol=obj_rel_tol)
        assert np.all(np.isfinite(dup.K))
        assert dup.kkt <= 1e-6
        np.testing.assert_allclose(predict(dup, X_dup), predict(ref, X), rtol=0.0, atol=1e-6)

    def test_sparsity_weakly_monotone_in_mu(self, rng):
        X = rng.standard_normal((400, 30))
        K_true = np.zeros((30, 1))
        K_true[:5] = rng.standard_normal((5, 1)) * 3
        y = X @ K_true + 0.1 * rng.standard_normal((400, 1))
        mus = np.logspace(-4, 0, 9)
        sp = [fit_lasso(X, y, mu, penalty_scale="rows").sparsity for mu in mus]
        # grid-level trend: allow one-column ties, no systematic decrease
        assert sp[-1] > sp[0]
        assert all(b >= a - 1.0 / 30 for a, b in zip(sp, sp[1:]))

    def test_penalty_scaling_modes(self, rng):
        X = rng.standard_normal((400, 6))
        y = X @ np.ones((6, 1))
        a = fit_lasso(X, y, 1e-3, penalty_scale="rows")
        b = fit_lasso(X, y, 1e-3 * 400, penalty_scale="none")
        np.testing.assert_allclose(a.K, b.K, rtol=1e-10, atol=1e-12)
        c = fit_lasso(X, y, 1e-3, penalty_scale="sqrt-rows")
        d = fit_lasso(X, y, 1e-3 * 20.0, penalty_scale="none")
        np.testing.assert_allclose(c.K, d.K, rtol=1e-10, atol=1e-12)
        with pytest.raises(ValueError):
            fit_lasso(X, y, 1e-3, penalty_scale="bogus")


class TestPredict:
    def test_zero_model(self, rng):
        X = rng.standard_normal((50, 4))
        y = np.zeros((50, 2))
        model = fit_lasso(X, y, 1.0, standardize=False)
        np.testing.assert_array_equal(predict(model, X[0]), [0.0, 0.0])

    def test_linear_system_recovery(self, rng):
        # exact linear synthetic data: mu=0 fit reproduces A x
        A = rng.standard_normal((7, 9))
        X = rng.standard_normal((300, 9))
        Y = X @ A.T
        basis = BasisSpec("linear")
        model = fit_lasso(expand(X, basis), Y, 0.0, basis=basis)
        x_new = rng.standard_normal(9)
        np.testing.assert_allclose(predict(model, x_new), A @ x_new,
                                   rtol=1e-6, atol=1e-8)

    def test_training_rows_match_interpolating_fit(self, rng):
        X = rng.standard_normal((40, 10))
        Y = X @ rng.standard_normal((10, 3))
        model = fit_lasso(X, Y, 0.0, standardize=False, tol=1e-12)
        np.testing.assert_allclose(predict(model, X), Y, atol=1e-8)

    def test_width_mismatch_rejected(self, rng):
        basis = BasisSpec("linear")
        X = rng.standard_normal((30, 5))
        model = fit_lasso(expand(X, basis), X[:, :2], 0.1, basis=basis)
        with pytest.raises(ValueError):
            predict(model, rng.standard_normal(7))

    def test_scale_equivariance(self, rng):
        # predicting with the de-standardized K equals predicting in
        # standardized coordinates and mapping back
        basis = BasisSpec("elementwise-poly", 2)
        X = rng.standard_normal((200, 6)) * np.array([1, 10, 100, 1e3, 1e4, 1e5])
        Y = rng.standard_normal((200, 3)) * np.array([1.0, 50.0, 2e4])
        Phi = expand(X, basis)
        model = fit_lasso(Phi, Y, 0.05, basis=basis, penalty_scale="rows")
        m = compute_moments(Phi, Y, standardize=True)
        phis = (Phi - m.std.x_mean) / m.std.x_scale
        ys = phis @ model.W_std * m.std.y_scale + m.std.y_mean
        np.testing.assert_allclose(predict(model, X), ys, rtol=1e-10, atol=1e-8)


class TestWarmStart:
    def test_warm_equals_cold(self, rng):
        X = rng.standard_normal((250, 18))
        y = X @ (rng.standard_normal((18, 2)) * (rng.random((18, 2)) > 0.5))
        y += 0.05 * rng.standard_normal(y.shape)
        m = compute_moments(X, y, standardize=True)
        cold = fit_from_moments(m, 1e-2, penalty_scale="rows", track_objective=True)
        hot_seed = fit_from_moments(m, 3e-2, penalty_scale="rows")
        warm = fit_from_moments(m, 1e-2, penalty_scale="rows", w0=hot_seed.W_std,
                                track_objective=True)
        f_cold = cold._objective_history[-1]
        f_warm = warm._objective_history[-1]
        assert abs(f_cold - f_warm) <= 1e-8 * max(1.0, abs(f_cold))


def reference_cd_solve(m, mu, *, w0=None, max_sweeps=10000, tol=1e-8,
                       track_objective=False, obj_rel_tol=0.0):
    """`regression._cd_solve` with its kernels in plain numpy form: the CD
    coordinate update on whole 7-element rows and the allocating FISTA
    step. The control flow (strong-rule start, screening slack, stall
    rule, FISTA stop) is the solver's; objective tracking is left out."""
    assert not track_objective
    G, c = m.G, m.c
    F, nout = c.shape
    diag = np.diag(G).copy()
    solvable = np.flatnonzero(diag > 0.0)
    W = np.zeros((F, nout)) if w0 is None else np.array(w0, dtype=float)
    q = G @ W

    def smooth():
        return 0.5 * (np.sum(W * (G @ W)) - 2.0 * np.sum(W * c) + np.sum(m.yty))

    def cycle(cols):
        nonlocal q
        max_delta = 0.0
        for j in cols:
            d = diag[j]
            rho = c[j] - q[j] + d * W[j]
            w_new = np.sign(rho) * np.maximum(np.abs(rho) - mu, 0.0) / d
            delta = w_new - W[j]
            step = float(np.max(np.abs(delta)))
            if step > 0.0:
                q = q + np.outer(G[:, j], delta)
                W[j] = w_new
                max_delta = max(max_delta, step)
        return max_delta

    smooth_prev, stall_run = None, 0

    def stalled():
        nonlocal smooth_prev, stall_run
        if obj_rel_tol <= 0.0:
            return False
        quad = smooth()
        if smooth_prev is not None and \
                abs(smooth_prev - quad) <= obj_rel_tol * max(abs(quad), 1e-300):
            stall_run += 1
        else:
            stall_run = 0
        smooth_prev = quad
        return stall_run >= 3

    def fista_phase():
        nonlocal q, W
        v = np.full(F, 1.0 / np.sqrt(F))
        L = 0.0
        for _ in range(60):
            gv = G @ v
            nrm = float(np.linalg.norm(gv))
            if nrm <= 0.0:
                return
            L = max(L, float(v @ gv))
            v = gv / nrm
        L = 1.02 * max(L, float(v @ (G @ v)))
        mu_L = mu / L
        V = W.copy()
        tk, f_last = 1.0, None
        for it in range(1, 100001):
            z = V - (G @ V - c) / L
            W_new = np.sign(z) * np.maximum(np.abs(z) - mu_L, 0.0)
            tk_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
            V = W_new + ((tk - 1.0) / tk_new) * (W_new - W)
            W, tk = W_new, tk_new
            if it % 200 == 0:
                f_now = smooth()
                if f_last is not None and \
                        abs(f_last - f_now) <= 50.0 * obj_rel_tol * max(abs(f_now), 1e-300):
                    break
                f_last = f_now
        q = G @ W

    screen_slack = 1e-3 if obj_rel_tol > 0.0 else 0.0
    sweeps, converged = 0, False
    if obj_rel_tol > 0.0 and solvable.size:
        fista_phase()
    if np.any(W != 0.0):
        active = solvable[np.any(W[solvable] != 0.0, axis=1)]
    else:
        active = solvable[np.max(np.abs(c[solvable]), axis=1) > mu]
    smooth_at_screen = None
    while sweeps < max_sweeps:
        settled = False
        while sweeps < max_sweeps:
            delta = cycle(active) if active.size else 0.0
            sweeps += 1
            if stalled() or delta < tol:
                settled = True
                break
        if not settled:
            break
        zero_rows = ~np.any(W[solvable] != 0.0, axis=1)
        big = np.max(np.abs(c[solvable] - q[solvable]), axis=1) > mu * (1.0 + screen_slack)
        viol = solvable[zero_rows & big]
        if viol.size == 0:
            converged = True
            break
        if obj_rel_tol > 0.0 and smooth_prev is not None:
            if smooth_at_screen is not None and \
                    abs(smooth_at_screen - smooth_prev) <= 10.0 * obj_rel_tol * abs(smooth_prev):
                converged = True
                break
            smooth_at_screen = smooth_prev
        active = np.union1d(solvable[np.any(W[solvable] != 0.0, axis=1)], viol)
    return W, sweeps, converged, []


def _collinear_lags(gen, rows=400, lags=6):
    """Stair-hold lag columns: adjacent columns nearly identical."""
    u = np.repeat(gen.standard_normal(rows // 50 + lags + 1), 50)
    X = np.column_stack([u[lags - i:lags - i + rows] for i in range(lags)])
    X = np.column_stack([X, X ** 2, gen.standard_normal((rows, 3))])
    Y = X[:, :3] @ gen.standard_normal((3, 4)) + 0.01 * gen.standard_normal((rows, 4))
    return X, Y


class TestSolverReference:
    """The solver is bitwise the solver with the numpy-form reference
    kernels: its descent iterate, and the fit built from it."""

    @staticmethod
    def both(monkeypatch, m, mu, **kw):
        mu_eff = regression_mod._scale_mu(mu, m.n_rows, kw.get("penalty_scale", "none"))
        solve_kw = {k: v for k, v in kw.items() if k in ("w0", "max_sweeps", "tol", "obj_rel_tol")}
        W, sweeps, converged, _ = regression_mod._cd_solve(m, mu_eff, **solve_kw)
        W_ref, sweeps_ref, converged_ref, _ = reference_cd_solve(m, mu_eff, **solve_kw)
        assert (sweeps, converged) == (sweeps_ref, converged_ref)
        assert np.array_equal(W, W_ref)
        fit = fit_from_moments(m, mu, **kw)
        with monkeypatch.context() as patch:
            patch.setattr(regression_mod, "_cd_solve", reference_cd_solve)
            ref = fit_from_moments(m, mu, **kw)
        assert np.array_equal(fit.W_std, ref.W_std)
        assert np.array_equal(fit.K, ref.K)
        assert (fit.sweeps, fit.objective, fit.kkt) == (ref.sweeps, ref.objective, ref.kkt)
        return W, W_ref, fit

    @pytest.mark.parametrize("scale", ["none", "sqrt-rows"])
    def test_random_problem(self, monkeypatch, scale):
        gen = np.random.default_rng(3)
        X = gen.standard_normal((300, 25)) * gen.uniform(0.1, 10.0, 25)
        Y = X @ (gen.standard_normal((25, 7)) * (gen.random((25, 7)) > 0.6))
        Y += 0.3 * gen.standard_normal(Y.shape)
        m = compute_moments(X, Y)
        mu = 3.0 if scale == "none" else 0.2
        W, W_ref, fit = self.both(monkeypatch, m, mu, penalty_scale=scale, tol=1e-12)
        # the CD update reproduces signed zeros too; FISTA does not run here
        assert W.tobytes() == W_ref.tobytes()
        assert 0.0 < fit.sparsity < 1.0

    @pytest.mark.parametrize("obj_rel_tol", [0.0, 1e-6])
    def test_exact_duplicate_columns(self, monkeypatch, obj_rel_tol):
        gen = np.random.default_rng(0)
        X = gen.standard_normal((200, 8))
        y = X @ gen.standard_normal((8, 2)) + 0.1 * gen.standard_normal((200, 2))
        m = compute_moments(np.column_stack([X, X[:, :2]]), y)
        _, _, fit = self.both(monkeypatch, m, 5.0, obj_rel_tol=obj_rel_tol)
        assert 0.0 < fit.sparsity < 1.0

    @pytest.mark.parametrize("max_sweeps", [1, 3000])
    def test_stall_mode(self, monkeypatch, max_sweeps):
        # one sweep leaves FISTA's iterate nearly as it was
        X, Y = _collinear_lags(np.random.default_rng(5))
        m = compute_moments(X, Y)
        _, _, fit = self.both(monkeypatch, m, 1e-3, penalty_scale="rows",
                              max_sweeps=max_sweeps, obj_rel_tol=1e-6)
        assert 0.0 < fit.sparsity < 1.0

    def test_warm_started_path(self, monkeypatch):
        X, Y = _collinear_lags(np.random.default_rng(6))
        m = compute_moments(X, Y)
        w0 = None
        for mu in (1e-1, 1e-2, 1e-3):
            _, _, fit = self.both(monkeypatch, m, mu, penalty_scale="sqrt-rows",
                                  max_sweeps=3000, obj_rel_tol=1e-6, w0=w0)
            w0 = fit.W_std


class TestRMSE:
    def test_identity(self, rng):
        Y = rng.standard_normal((20, 7))
        per, agg = rmse(Y, Y)
        assert np.all(per == 0.0) and agg == 0.0

    def test_constant_offset(self, rng):
        Y = rng.standard_normal((30, 7))
        P = Y.copy()
        P[:, 2] += 2.0
        per, _ = rmse(P, Y)
        assert per[2] == pytest.approx(2.0)
        assert np.all(np.delete(per, 2) == 0.0)

    def test_single_row(self):
        per, agg = rmse(np.array([[3, 4, 0, 0, 0, 0, 0]]),
                        np.zeros((1, 7)))
        np.testing.assert_allclose(per, [3, 4, 0, 0, 0, 0, 0])
        assert agg == pytest.approx(np.sqrt(25 / 7))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((0, 7)), np.zeros((0, 7)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((3, 7)), np.zeros((4, 7)))


class TestPersistence:
    def test_json_roundtrip_bit_identical(self, rng, tmp_path):
        basis = BasisSpec("elementwise-poly", 2)
        X = rng.standard_normal((150, 8)) * 50
        Y = np.column_stack([X @ rng.standard_normal(8) for _ in range(7)])
        Phi = expand(X, basis)
        model = fit_lasso(Phi, Y, 1e-3, basis=basis, n_history=None,
                          penalty_scale="sqrt-rows")
        path = tmp_path / "model.json"
        model_to_json(model, path)
        again = model_from_json(path)
        assert np.array_equal(again.K, model.K)
        np.testing.assert_array_equal(
            predict(again, X), predict(model, X))
        assert again.mu == model.mu and again.sparsity == model.sparsity

    def test_json_text_roundtrip(self):
        gen = np.random.default_rng(1)
        X = gen.standard_normal((100, 6))
        model = fit_lasso(X, X[:, :2] + 0.1 * gen.standard_normal((100, 2)), 1.0)
        again = model_from_json(model_to_json(model))
        assert np.array_equal(again.K, model.K)
        assert model_to_json(again) == model_to_json(model)

    def test_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text(json.dumps({"something": 1}))
        with pytest.raises(ValueError):
            model_from_json(p)


class TestStandardization:
    def test_constant_columns_scale_one(self, rng):
        X = np.column_stack([np.ones(50), np.full(50, 7.0),
                             rng.standard_normal(50)])
        m = compute_moments(X, rng.standard_normal((50, 1)), standardize=True)
        assert m.std.x_scale[0] == 1.0 and m.std.x_scale[1] == 1.0
        assert m.const_cols[0] and m.const_cols[1] and not m.const_cols[2]

    def test_kkt_residual_zero_for_exact_solution(self, rng):
        X = rng.standard_normal((100, 5))
        y = X @ np.ones((5, 1))
        m = compute_moments(X, y, standardize=False)
        W = np.ones((5, 1))
        assert kkt_residual(W, m, 0.0) < 1e-9
