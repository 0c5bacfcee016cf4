"""Regression core: expansion, soft-thresholding, LASSO oracles, KKT."""

import json
import math
import multiprocessing
import re
import tracemalloc

import numpy as np
import pytest

import throttleid.regression as regression_mod
from conftest import soft_threshold, usable_cpus
from throttleid.excitation import ExcitationConfig, build_corpus
from throttleid.features import assemble, merge
from throttleid.plant import PlantConfig, simulate
from throttleid.regression import (BasisSpec, ConvergenceError, expand, fit_from_moments,
                                   fit_lasso, model_from_json, model_to_json, predict,
                                   raw_moments, rmse)


@pytest.fixture
def rng():
    """A fresh generator per test, so a test's data does not depend on
    which tests ran before it."""
    return np.random.default_rng(42)


class TestExpand:
    def test_linear(self):
        np.testing.assert_array_equal(
            expand(np.array([3.0, 5.0]), BasisSpec(degree=1)), [1, 3, 5])

    def test_linear_kind_rejected(self):
        # the basis has no kind: the linear basis is degree 1
        with pytest.raises(TypeError, match="unexpected keyword argument 'kind'"):
            BasisSpec(kind="linear")

    def test_elementwise_poly(self):
        np.testing.assert_array_equal(
            expand(np.array([3.0, 5.0]), BasisSpec(2)), [1, 3, 5, 9, 25])

    @pytest.mark.parametrize("degree", [pytest.param(1, id="linear-1"),
                                        pytest.param(2, id="elementwise-poly-2"),
                                        pytest.param(3, id="elementwise-poly-3")])
    def test_width_formula(self, rng, degree):
        basis = BasisSpec(degree)
        for p in (1, 4, 11, 76):
            x = rng.standard_normal(p)
            assert expand(x, basis).shape[0] == basis.width(p)
            assert basis.unexpanded_width(basis.width(p)) == p

    def test_batch_matches_single(self, rng):
        basis = BasisSpec(degree=3)
        X = rng.standard_normal((6, 5))
        batch = expand(X, basis)
        for i in range(6):
            np.testing.assert_array_equal(batch[i], expand(X[i], basis))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_out_bitwise(self, rng, degree):
        basis = BasisSpec(degree)
        X = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-5, 6, (40, 7))
        X[0, :4] = [np.nan, np.inf, -np.inf, -0.0]
        with np.errstate(invalid="ignore", over="ignore"):
            # the columns built one by one and concatenated
            ref = np.concatenate([np.ones((40, 1))] + [X ** d for d in range(1, degree + 1)],
                                 axis=1)
            assert expand(X, basis).tobytes() == ref.tobytes()
            assert expand(X[3], basis).tobytes() == ref[3].tobytes()
            # into the leading columns of a wider array, as `raw_moments` expands a chunk
            Z = np.full((40, basis.width(7) + 2), 5.0)
            assert expand(X, basis, out=Z[:, :-2]).base is Z
            assert Z[:, :-2].tobytes() == ref.tobytes() and np.all(Z[:, -2:] == 5.0)


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
        model = fit_lasso(X, Y, 0.0)
        oracle = np.linalg.solve(X.T @ X, X.T @ Y).T
        rel = np.max(np.abs(model.K - oracle)) / np.max(np.abs(oracle))
        assert rel < 1e-6

    def test_tiny_mu_close_to_ols(self, rng):
        X = rng.standard_normal((150, 10))
        y = X @ rng.standard_normal((10, 1)) + 0.01 * rng.standard_normal((150, 1))
        ols = np.linalg.solve(X.T @ X, X.T @ y).ravel()
        near = fit_lasso(X, y, 1e-12).K.ravel()
        np.testing.assert_allclose(near, ols, rtol=1e-6, atol=1e-9)

    def test_null_solution_threshold(self, rng):
        X = rng.standard_normal((100, 8))
        X -= X.mean(axis=0)
        y = rng.standard_normal((100, 1))
        y -= y.mean(axis=0)
        mu_max = np.max(np.abs(X.T @ y))
        model = fit_lasso(X, y, mu_max * (1 + 1e-12))
        assert np.count_nonzero(model.K) == 0
        assert model.sparsity == 1.0

    def test_univariate_closed_form(self, rng):
        for _ in range(25):
            phi = rng.standard_normal((60, 1))
            y = rng.standard_normal((60, 1))
            mu = float(rng.uniform(0, 20))
            model = fit_lasso(phi, y, mu)
            expected = soft_threshold(float(phi[:, 0] @ y[:, 0]), mu) \
                / float(phi[:, 0] @ phi[:, 0])
            assert abs(model.K[0, 0] - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_kkt_certificate(self, rng):
        X = rng.standard_normal((300, 25))
        Y = rng.standard_normal((300, 3))
        for mu in (1e-4, 1e-3, 1e-2, 1.0, 10.0):
            model = fit_lasso(X, Y, mu)
            assert model.kkt <= 1e-6

    def test_standardize_option_removed(self, rng):
        # a fit standardizes exactly when it is given a basis
        X = rng.standard_normal((10, 3))
        with pytest.raises(TypeError, match="unexpected keyword argument 'standardize'"):
            fit_lasso(X, X[:, :1], 0.0, standardize=False)

    def test_basis_option_removed(self, rng):
        # a fit from moments takes its basis from them, so it cannot be
        # handed a second one
        X = rng.standard_normal((10, 3))
        with pytest.raises(TypeError, match="unexpected keyword argument 'basis'"):
            fit_from_moments(raw_moments(X, X[:, :1]), 0.0, basis=BasisSpec())

    @pytest.mark.parametrize("basis", [None, BasisSpec(2)], ids=["no-basis", "degree-2"])
    def test_empty_block_rejected(self, rng, basis):
        # no rows: nothing to standardize by, and no objective to solve
        X = rng.standard_normal((0, 3))
        with pytest.raises(ValueError, match="empty block"):
            fit_from_moments(raw_moments(X, X[:, :2], basis), 0.1)

    def test_basis_expands_raw_inputs(self, rng):
        # fit_lasso expands the inputs it is given on its basis, as
        # predict does; inputs expanded first are expanded again, so
        # the model's input width is theirs and raw inputs are rejected
        X4 = rng.standard_normal((200, 4))
        Y = X4[:, :2] ** 2 + X4[:, 2:]
        model = fit_lasso(X4, Y, 1e-3, basis=BasisSpec(1))
        assert model.basis == BasisSpec(1) and model.n_inputs == 4 and model.K.shape == (2, 5)
        twice = fit_lasso(expand(X4, BasisSpec(1)), Y, 1e-3, basis=BasisSpec(2))
        assert twice.basis == BasisSpec(2) and twice.n_inputs == 5 and twice.K.shape == (2, 11)
        with pytest.raises(ValueError, match="feature width 4 does not match model input width 5"):
            predict(twice, X4)

    def test_nonfinite_rejected(self, rng):
        X = rng.standard_normal((10, 3))
        Y = np.full((10, 1), np.nan)
        with pytest.raises(ValueError):
            fit_lasso(X, Y, 0.1)

    def test_negative_mu_rejected(self, rng):
        X = rng.standard_normal((10, 3))
        with pytest.raises(ValueError):
            fit_lasso(X, X[:, :1], -1.0)

    def test_nan_mu_rejected(self, rng):
        # NaN compares false both ways: it must not pass as a penalty
        X = rng.standard_normal((10, 3))
        with pytest.raises(ValueError, match="mu must be >= 0, got nan"):
            fit_lasso(X, X[:, :1], math.nan)

    @pytest.mark.parametrize("w0", [
        np.zeros((8, 3)), np.zeros((9, 2)), np.zeros((9, 4)), np.zeros(9),
        np.ones((9, 3)), np.full((9, 3), np.inf)],
        ids=["short", "narrow", "wide", "vector", "nonzero-bias", "non-finite"])
    def test_bad_warm_start_rejected(self, rng, w0):
        # a 9-coefficient, 3-output fit: a w0 of another shape, a non-finite
        # one, or one nonzero on the constant bias column is named, not left
        # to fail inside numpy or to meet a singular active block
        X = rng.standard_normal((50, 4))
        m = raw_moments(X, rng.standard_normal((50, 3)), BasisSpec(2))
        with pytest.raises(ValueError, match=re.escape("w0 must be a finite array of shape (9, 3)")):
            fit_from_moments(m, 1e-2, w0=w0)

    def test_nonconvergence_raises(self, rng, monkeypatch):
        X = rng.standard_normal((80, 12))
        X[:, 1] = X[:, 0] + 1e-9 * rng.standard_normal(80)  # near-duplicate column
        y = X @ np.ones((12, 1))
        monkeypatch.setattr(regression_mod, "MAX_STEPS", 2)
        with pytest.raises(ConvergenceError) as exc:
            fit_lasso(X, y, 0.0)
        assert exc.value.kkt_residual >= 0.0

    @pytest.mark.parametrize("rescale", [0.0, 1e-6])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 5.0])
    def test_exact_duplicate_columns(self, mu, rescale):
        # duplicated columns make the support's Gram block singular and
        # the minimizer non-unique; predictions must not depend on it,
        # whether the copy is bitwise equal or scaled by (1 + rescale)
        gen = np.random.default_rng(0)
        X = gen.standard_normal((200, 8))
        y = X @ gen.standard_normal((8, 2)) + 0.1 * gen.standard_normal((200, 2))
        X_dup = np.column_stack([X, X[:, :2] * (1.0 + rescale)])
        dup = fit_lasso(X_dup, y, mu)
        ref = fit_lasso(X, y, mu)
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
        model = fit_lasso(X, y, 1.0)
        np.testing.assert_array_equal(predict(model, X[0]), [0.0, 0.0])

    def test_linear_system_recovery(self, rng):
        # exact linear synthetic data: mu=0 fit reproduces A x
        A = rng.standard_normal((7, 9))
        X = rng.standard_normal((300, 9))
        Y = X @ A.T
        basis = BasisSpec(degree=1)
        model = fit_lasso(X, Y, 0.0, basis=basis)
        x_new = rng.standard_normal(9)
        np.testing.assert_allclose(predict(model, x_new), A @ x_new,
                                   rtol=1e-6, atol=1e-8)

    def test_training_rows_match_interpolating_fit(self, rng):
        X = rng.standard_normal((40, 10))
        Y = X @ rng.standard_normal((10, 3))
        model = fit_lasso(X, Y, 0.0)
        np.testing.assert_allclose(predict(model, X), Y, atol=1e-8)

    def test_width_mismatch_rejected(self, rng):
        basis = BasisSpec(degree=1)
        X = rng.standard_normal((30, 5))
        model = fit_lasso(X, X[:, :2], 0.1, basis=basis)
        with pytest.raises(ValueError, match="feature width 7 does not match model input width 5"):
            predict(model, rng.standard_normal(7))

    def test_moments_model_takes_raw_inputs(self, rng):
        # a model fitted from moments with a basis and no history length
        # predicts from the unexpanded inputs, as fit_lasso's does
        basis = BasisSpec()
        X = rng.standard_normal((120, 3))
        Y = np.column_stack([X[:, 0] - 0.5 * X[:, 1] ** 2, X[:, 2]])
        model = fit_from_moments(raw_moments(X, Y, basis), 1e-3)
        assert model.basis == basis and model.n_inputs == 3
        assert np.array_equal(predict(model, X), predict(fit_lasso(X, Y, 1e-3, basis=basis), X))

    def test_scale_equivariance(self, rng):
        # predicting with the de-standardized K equals predicting in
        # standardized coordinates and mapping back
        basis = BasisSpec(2)
        X = rng.standard_normal((200, 6)) * np.array([1, 10, 100, 1e3, 1e4, 1e5])
        Y = rng.standard_normal((200, 3)) * np.array([1.0, 50.0, 2e4])
        Phi = expand(X, basis)
        model = fit_lasso(X, Y, 0.05, basis=basis, penalty_scale="rows")
        std = model.standardization
        phis = (Phi - std.x_mean) / std.x_scale
        ys = phis @ model.W_std * std.y_scale + std.y_mean
        np.testing.assert_allclose(predict(model, X), ys, rtol=1e-10, atol=1e-8)

    @pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097, 3 * 4096 + 5],
                             ids=["0", "1", "C-1", "C", "C+1", "3C+5"])
    def test_batch_matches_one_product(self, rng, n_rows):
        # a batch expanded a chunk at a time predicts what one product
        # over the whole expanded batch predicts
        assert regression_mod._CHUNK_ROWS == 4096
        basis = BasisSpec(2)
        fit_rows = rng.standard_normal((300, 6))
        model = fit_lasso(fit_rows, fit_rows[:, :3] ** 2, 1e-3, basis=basis)
        X = rng.standard_normal((n_rows, 6))
        got = predict(model, X)
        assert got.shape == (n_rows, 3)
        np.testing.assert_allclose(got, expand(X, basis) @ model.K.T, rtol=1e-12, atol=1e-12)

    def test_peak_memory_is_one_chunk(self, rng):
        # over 20 chunks the peak allocation stays below a quarter of the
        # expanded batch: the output and one chunk's expansion
        basis = BasisSpec(2)
        X = rng.standard_normal((20 * regression_mod._CHUNK_ROWS, 12))
        model = fit_lasso(X[:500], X[:500, :2], 1e-3, basis=basis)
        tracemalloc.start()
        try:
            predict(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < expand(X, basis).nbytes / 4


class TestWarmStart:
    def test_warm_equals_cold(self, rng):
        # as the sweeps warm-start: standardized, on a basis
        basis = BasisSpec(1)
        X = rng.standard_normal((250, 18))
        y = X @ (rng.standard_normal((18, 2)) * (rng.random((18, 2)) > 0.5))
        y += 0.05 * rng.standard_normal(y.shape)
        m = raw_moments(X, y, basis)
        cold = fit_from_moments(m, 1e-2, penalty_scale="rows")
        hot_seed = fit_from_moments(m, 3e-2, penalty_scale="rows")
        warm = fit_from_moments(m, 1e-2, penalty_scale="rows", w0=hot_seed.W_std)
        f_cold = cold.objective
        f_warm = warm.objective
        assert abs(f_cold - f_warm) <= 1e-8 * max(1.0, abs(f_cold))


def search_inputs(raw, mu, penalty_scale):
    """(moments, effective mu, solvable columns) as `fit_from_moments`
    hands them to each output's search."""
    m, _ = regression_mod._well_posed(regression_mod._standardize(raw))
    return (m, regression_mod._scale_mu(mu, raw.n_rows, penalty_scale),
            np.flatnonzero(np.diag(m.G) > 0.0))


def serial_search(raw, mu, penalty_scale):
    """The outputs searched one by one, each on the steps that the outputs
    before it left: (W, sweeps, steps per output, KKT residual of the
    point reached when the budget ran out, else None)."""
    m, mu_eff, solvable = search_inputs(raw, mu, penalty_scale)
    W, sweeps, per_output = np.zeros(m.c.shape), 0, []
    for k in range(W.shape[1]):
        W[:, k], steps, converged = regression_mod._feature_sign(
            m.G, m.c[:, k], mu_eff, W[:, k], solvable, regression_mod.MAX_STEPS - sweeps)
        sweeps += steps
        per_output.append(steps)
        if not converged:
            return W, sweeps, per_output, regression_mod._kkt_residual(W, m, mu_eff)
    return W, sweeps, per_output, None


class TestParallelFit:
    """The outputs' searches run as fork-map tasks, each on the whole step
    budget, and the caller charges them to one budget in output order."""

    MU = 1e-2

    @pytest.fixture(scope="class")
    def moments(self):
        gen = np.random.default_rng(7)
        X = gen.standard_normal((600, 12))
        Y = X @ (gen.standard_normal((12, 7)) * (gen.random((12, 7)) < 0.5))
        return raw_moments(X, Y + 0.1 * gen.standard_normal(Y.shape), BasisSpec(2))

    @staticmethod
    def bits(*values):
        return [np.asarray(v, dtype=float).tobytes() for v in values]

    def test_same_fit_on_one_and_two_cpus(self, moments, monkeypatch):
        W, sweeps, per_output, _ = serial_search(moments, self.MU, "sqrt-rows")
        assert len(per_output) == 7 and min(per_output) > 1
        fits = []
        for count in (1, 2):
            usable_cpus(monkeypatch, count)
            fits.append(fit_from_moments(moments, self.MU, penalty_scale="sqrt-rows"))
        one, two = fits
        assert one.sweeps == two.sweeps == sweeps
        assert self.bits(one.W_std, one.K, one.kkt, one.objective) == \
            self.bits(two.W_std, two.K, two.kkt, two.objective)
        assert one.W_std.tobytes() == W.tobytes()

    @pytest.mark.parametrize("cut", ["third-output-overruns", "searches-run-out"])
    def test_budget_runs_out_as_in_series(self, moments, monkeypatch, cut):
        # output 0 converges and a later one runs out of the steps left:
        # its task, on the whole budget, converges ("third-output-overruns")
        # or runs out itself, as a later task does ("searches-run-out")
        per_output = serial_search(moments, self.MU, "sqrt-rows")[2]
        budget = sum(per_output[:3]) - 1 if cut == "third-output-overruns" else per_output[0] + 1
        if cut == "searches-run-out":
            assert max(per_output) > budget
        monkeypatch.setattr(regression_mod, "MAX_STEPS", budget)
        _, sweeps, steps, kkt = serial_search(moments, self.MU, "sqrt-rows")
        assert kkt is not None and steps[0] == per_output[0] and len(steps) > 1
        for count in (1, 2):
            usable_cpus(monkeypatch, count)
            with pytest.raises(ConvergenceError) as exc:
                fit_from_moments(moments, self.MU, penalty_scale="sqrt-rows")
            assert exc.value.sweeps == sweeps == budget
            assert self.bits(exc.value.kkt_residual) == self.bits(kkt)
            assert multiprocessing.active_children() == []


def _collinear_lags(gen, rows=400, lags=6):
    """Stair-hold lag columns: adjacent columns nearly identical."""
    u = np.repeat(gen.standard_normal(rows // 50 + lags + 1), 50)
    X = np.column_stack([u[lags - i:lags - i + rows] for i in range(lags)])
    X = np.column_stack([X, X ** 2, gen.standard_normal((rows, 3))])
    Y = X[:, :3] @ gen.standard_normal((3, 4)) + 0.01 * gen.standard_normal((rows, 4))
    return X, Y


class TestCollinearDesign:
    """Stair-hold lags with two exact duplicate columns appended, fitted
    as the pipeline fits (on a basis, standardized): the Gram matrix is
    singular, and the fit must still be certified, unique and
    independent of the column order."""

    MUS = (1e-1, 1e-2, 1e-3)
    BASIS = BasisSpec(1)

    @staticmethod
    def design():
        X, Y = _collinear_lags(np.random.default_rng(5))
        return np.column_stack([X, X[:, :2]]), Y

    def fit(self, X, Y, mu):
        return fit_lasso(X, Y, mu, basis=self.BASIS, penalty_scale="sqrt-rows")

    @pytest.mark.parametrize("mu", MUS)
    def test_certified(self, mu):
        X, Y = self.design()
        model = self.fit(X, Y, mu)
        assert model.kkt <= 1e-6 * model.mu_effective
        assert 0.0 < model.sparsity < 1.0

    @pytest.mark.parametrize("mu", MUS)
    def test_column_order_invariant(self, mu):
        # The optimum is unique, so a permutation of the inputs permutes
        # K's input columns (all but the bias column 0). Its
        # coefficients agree only to 1e-4: along each duplicate
        # direction the Gram eigenvalue is lambda_2 = RIDGE * N, so
        # rounding that breaks the pair's symmetry moves the split
        # between the two by up to ~6e-6 relative. The sum of a pair,
        # and with it every prediction, is well conditioned.
        X, Y = self.design()
        F = X.shape[1]
        perm = np.random.default_rng(1).permutation(F)
        ref, per = self.fit(X, Y, mu), self.fit(X[:, perm], Y, mu)
        K_ref, K_per = ref.K[:, 1:], per.K[:, 1:]
        assert np.array_equal(K_per != 0.0, K_ref[:, perm] != 0.0)
        np.testing.assert_allclose(K_per, K_ref[:, perm], rtol=1e-4, atol=0.0)
        np.testing.assert_allclose(predict(per, X[:, perm]), predict(ref, X), rtol=1e-9)
        np.testing.assert_allclose(per.objective, ref.objective, rtol=1e-9)
        assert (per.sparsity, per.ridge) == (ref.sparsity, ref.ridge) and ref.ridge > 0.0
        for a, b in ((0, F - 2), (1, F - 1)):  # each duplicate pair carries equal weights
            np.testing.assert_allclose(K_ref[:, a], K_ref[:, b], rtol=1e-4, atol=0.0)


def frozen_feature_sign(G, c, mu, w, solvable, budget):
    """Feature-sign search with its former step: `np.ix_` to gather the
    active block, `np.append` to extend the active set, its signs and the
    candidate stops, the crossing slots zeroed whether or not there are
    any, and `np.array_equal` to test the landed signs. Kept as the
    reference that the leaner step must match bit for bit."""
    w = w.copy()
    steps = 0
    settled = not w.any()
    while True:
        A = np.flatnonzero(w)
        theta = np.sign(w[A])
        entering = settled
        if entering:
            g = G @ w - c
            g_free = np.abs(g[solvable]) * (w[solvable] == 0.0)
            if g_free.size == 0 or g_free.max() <= mu:
                return w, steps, True
            j = solvable[np.argmax(g_free)]
            A = np.append(A, j)
            theta = np.append(theta, -np.sign(g[j]))
        if steps == budget:
            return w, steps, False
        steps += 1
        G_AA = G[np.ix_(A, A)]
        x_new = np.linalg.solve(G_AA, c[A] - mu * theta)
        x = w[A]
        d = x_new - x
        # candidate stops: the zero crossings of nonzero coordinates, then x_new
        t = np.divide(x, x - x_new, out=np.full_like(x, np.inf), where=x * x_new < 0.0)
        crossing = np.flatnonzero(t < 1.0)
        ts = np.append(t[crossing], 1.0)
        points = x + ts[:, None] * d
        points[np.arange(crossing.size), crossing] = 0.0
        # Objective change from x: x_new minimizes the fixed-sign
        # objective, which therefore falls by curve * t * (2 - t), and a
        # coordinate against its sign in theta adds 2 * mu * |value|.
        curve = 0.5 * (d @ (G_AA @ d))
        f = 2.0 * mu * np.sum(np.abs(points) * (points * theta < 0.0), axis=1) \
            - curve * ts * (2.0 - ts)
        best = int(np.argmin(f))
        if not f[best] < 0.0:
            # No stop lowers the objective in floating point, so the
            # active coordinates are optimal to working precision, and
            # an entering coordinate's violation is rounding noise.
            if entering:
                return w, steps, True
            settled = True
            continue
        w[A] = points[best]
        settled = best == crossing.size and np.array_equal(np.sign(w[A]), theta)


class TestFrozenFeatureSign:
    """`_feature_sign` is bitwise `frozen_feature_sign`: the same w, step
    count and verdict, output by output, from cold and warm starts, on
    cut budgets, on a ridged Gram matrix and with nothing to solve."""

    MU = 3e-5

    @pytest.fixture(scope="class")
    def engine(self):
        """Degree-2 moments of the plant's seven outputs on two lags of a
        reduced corpus (two bias levels, 6 s segments). Its lag columns are
        nearly collinear, as in the pipeline's fits, so a third of a cold
        search's steps meet zero crossings, some land against their signs,
        and at MU one step finds no stop that lowers the objective."""
        plant = PlantConfig()
        traces = build_corpus(ExcitationConfig(m_levels=2, duration=6.0), plant, seed=0)
        ds = merge([assemble(simulate(trace, plant), 2) for trace in traces])
        return raw_moments(ds.inputs, ds.targets, BasisSpec())

    @staticmethod
    def solver_moments(raw, mu):
        """(G, c, mu_eff, solvable) of a pipeline fit's searches."""
        m, mu_eff, solvable = search_inputs(raw, mu, "sqrt-rows")
        return m.G, m.c, mu_eff, solvable

    @staticmethod
    def check(G, c, mu, W, solvable, budget=regression_mod.MAX_STEPS):
        """Compare the searches of every output (column of c and W); their step counts."""
        counts = []
        for k in range(c.shape[1]):
            got = regression_mod._feature_sign(G, c[:, k], mu, W[:, k], solvable, budget)
            want = frozen_feature_sign(G, c[:, k], mu, W[:, k], solvable, budget)
            assert (got[0].tobytes(), *got[1:]) == (want[0].tobytes(), *want[1:]), k
            counts.append(want[1])
        return counts

    def test_cold_start(self, engine):
        G, c, mu, solvable = self.solver_moments(engine, self.MU)
        assert sum(self.check(G, c, mu, np.zeros(c.shape), solvable)) > 200

    def test_warm_start_with_negative_zeros(self, engine):
        # from another mu's solution, as the sweeps warm-start, with -0.0
        # in half of the solvable zero slots, which then enter the search
        G, c, mu, solvable = self.solver_moments(engine, self.MU)
        W = fit_from_moments(engine, 10 * self.MU, penalty_scale="sqrt-rows").W_std
        zeros = np.argwhere(W[solvable] == 0.0)[::2]
        W[solvable[zeros[:, 0]], zeros[:, 1]] = -0.0
        assert np.signbit(W[W == 0.0]).sum() == len(zeros) > 0
        assert sum(self.check(G, c, mu, W, solvable)) > 100

    def test_cut_budgets(self, engine):
        # no step, one step, and one step short of convergence
        G, c, mu, solvable = self.solver_moments(engine, self.MU)
        steps = frozen_feature_sign(G, c[:, 0], mu, np.zeros(len(G)), solvable,
                                    regression_mod.MAX_STEPS)[1]
        for budget in (0, 1, steps - 1):
            assert self.check(G, c[:, :1], mu, np.zeros((len(G), 1)), solvable,
                              budget) == [budget]

    @pytest.mark.parametrize("mu", TestCollinearDesign.MUS)
    def test_ridged_duplicate_columns(self, mu):
        X, Y = TestCollinearDesign.design()
        raw = raw_moments(X, Y, TestCollinearDesign.BASIS)
        assert regression_mod._well_posed(regression_mod._standardize(raw))[1] > 0.0
        G, c, mu_eff, solvable = self.solver_moments(raw, mu)
        self.check(G, c, mu_eff, np.zeros(c.shape), solvable)

    def test_empty_solvable(self, engine):
        G, c, mu, _ = self.solver_moments(engine, self.MU)
        assert self.check(G, c, mu, np.zeros(c.shape), np.array([], dtype=np.intp)) == [0] * 7


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
        basis = BasisSpec(2)
        X = rng.standard_normal((150, 8)) * 50
        Y = np.column_stack([X @ rng.standard_normal(8) for _ in range(7)])
        model = fit_lasso(X, Y, 1e-3, basis=basis, n_history=None,
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

    # a 2-output model on 6 columns, each field edited to lie outside K
    # or to mismatch K's shape
    MALFORMED = {
        "triplet-negative": ("K_triplets", lambda d: d["K_triplets"].append([-1, -1, 123.0])),
        "triplet-row": ("K_triplets", lambda d: d["K_triplets"].append([7, 0, 1.0])),
        "triplet-column": ("K_triplets", lambda d: d["K_triplets"].append([0, 6, 1.0])),
        "triplet-float": ("K_triplets", lambda d: d["K_triplets"].append([0.5, 0, 1.0])),
        "x-mean": ("standardization.x_mean", lambda d: d["standardization"]["x_mean"].pop()),
        "x-scale": ("standardization.x_scale",
                    lambda d: d["standardization"]["x_scale"].append(1.0)),
        "y-mean": ("standardization.y_mean", lambda d: d["standardization"]["y_mean"].pop()),
        "y-scale": ("standardization.y_scale", lambda d: d["standardization"]["y_scale"].pop()),
        # keys missing, unknown or disagreeing with K
        "n-inputs": ("'n_inputs'", lambda d: d.update(n_inputs=5)),
        "mu-missing": ("missing model keys: mu", lambda d: d.pop("mu")),
        "standardization-unknown": ("standardization.foo",
                                    lambda d: d["standardization"].update(foo=[1.0])),
        "basis-unknown": ("basis.foo",
                          lambda d: d.update(basis={"degree": 2, "foo": 1})),
        "n-zero": ("'n'", lambda d: d.update(n=0)),
        "n-negative": ("'n'", lambda d: d.update(n=-1)),
        "n-float": ("'n'", lambda d: d.update(n=6.0)),
        # values of the wrong JSON kind
        "mu-string": ("model key 'mu' must be a number", lambda d: d.update(mu="x")),
        "degree-float": ("model key 'basis.degree' must be an integer",
                         lambda d: d.update(basis={"degree": 2.0})),
        "degree-string": ("model key 'basis.degree' must be an integer",
                          lambda d: d.update(basis={"degree": "2"})),
        "n-outputs-float": ("model key 'n_outputs' must be an integer",
                            lambda d: d.update(n_outputs=2.0)),
        "penalty-scale-number": ("model key 'penalty_scale' must be a string",
                                 lambda d: d.update(penalty_scale=3)),
        # a section's own checks, triplets of the wrong length, negative sizes
        "degree-zero": ("model section 'basis': degree must be >= 1",
                        lambda d: d.update(basis={"degree": 0})),
        "triplet-two-items": ("model key 'K_triplets' holds [0, 0]",
                              lambda d: d["K_triplets"].append([0, 0])),
        "triplet-four-items": ("model key 'K_triplets' holds [0, 0, 1.0, 2.0]",
                               lambda d: d["K_triplets"].append([0, 0, 1.0, 2.0])),
        "n-outputs-negative": ("model key 'n_outputs' must be >= 0",
                               lambda d: d.update(n_outputs=-1)),
        "n-coefficients-negative": ("model key 'n_coefficients' must be >= 0",
                                    lambda d: d.update(n_coefficients=-1)),
        # an empty K, whose width no input width expands to
        "n-inputs-negative": ("width 0 is not a degree-1 expansion", lambda d: d.update(
            basis={"degree": 1}, n_inputs=-1, n_coefficients=0, K_triplets=[],
            standardization=dict(d["standardization"], x_mean=[], x_scale=[]))),
    }

    @pytest.mark.parametrize("field, edit", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_model_rejected(self, field, edit):
        gen = np.random.default_rng(1)
        X = gen.standard_normal((100, 6))
        d = json.loads(model_to_json(fit_lasso(X, X[:, :2] + 1.0, 1.0)))
        assert (d["n_outputs"], d["n_coefficients"]) == (2, 6)
        edit(d)
        with pytest.raises(ValueError, match=re.escape(field)):
            model_from_json(json.dumps(d))

    def test_removed_basis_keys_rejected(self, tmp_path):
        # a model file written when the basis had a kind and an optional
        # bias column: retrain rather than load it
        X = np.random.default_rng(1).standard_normal((100, 3))
        path = tmp_path / "model.json"
        model_to_json(fit_lasso(X, X[:, :2], 0.1, basis=BasisSpec()), path)
        d = json.loads(path.read_text())
        d["basis"].update(kind="elementwise-poly", include_bias=True)
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=re.escape(
                "unknown model keys: basis.include_bias, basis.kind")):
            model_from_json(path)

    def test_removed_intercept_rejected(self, tmp_path):
        # a model file written when a fit could keep its offset apart
        # from K: retrain rather than load it
        X = np.random.default_rng(1).standard_normal((100, 3))
        path = tmp_path / "model.json"
        model_to_json(fit_lasso(X, X[:, :2], 0.1, basis=BasisSpec()), path)
        d = json.loads(path.read_text())
        d["intercept"] = None
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=re.escape("unknown model keys: intercept")):
            model_from_json(path)

    def test_file_without_ridge_rejected(self):
        # every file that the loader accepts records its ridge
        gen = np.random.default_rng(1)
        X = gen.standard_normal((100, 6))
        d = json.loads(model_to_json(fit_lasso(X, X[:, :2] + 1.0, 1.0)))
        del d["ridge"]
        with pytest.raises(ValueError, match="missing model keys: ridge$"):
            model_from_json(json.dumps(d))

    def test_step_recorded(self):
        # a model file records the step of its data, which may be null but
        # not missing
        gen = np.random.default_rng(1)
        X = gen.standard_normal((100, 6))
        model = fit_lasso(X, X[:, :2] + 1.0, 1.0)
        assert model.dt is None
        model.dt = 0.01
        d = json.loads(model_to_json(model))
        assert model_from_json(json.dumps(d)).dt == 0.01
        d["dt"] = None
        assert model_from_json(json.dumps(d)).dt is None
        del d["dt"]
        with pytest.raises(ValueError, match="missing model keys: dt$"):
            model_from_json(json.dumps(d))

    def test_path_given_as_str_explained(self, tmp_path):
        # a str is JSON text, so a file name passed as one is not read
        with pytest.raises(ValueError, match="a str is read as JSON text.*pass a file as a Path"):
            model_from_json(str(tmp_path / "model.json"))


def one_pass_moments(X, Y):
    """The moments of (X, Y) about the whole block's means, from one
    product over all rows: the reference for the streamed kernel."""
    mx, my = (A.sum(axis=0) / max(len(A), 1) for A in (X, Y))
    Xc, Yc = X - mx, Y - my
    return dict(n_rows=len(X), mx=mx, my=my, Cxx=Xc.T @ Xc, Cxy=Xc.T @ Yc,
                Cyy=np.sum(Yc * Yc, axis=0))


class TestRawMoments:
    C = regression_mod._CHUNK_ROWS

    @pytest.mark.parametrize("basis", [None, BasisSpec(2)], ids=["no-basis", "degree-2"])
    @pytest.mark.parametrize("n_rows", [0, 1, C - 1, C, C + 1, 3 * C + 5],
                             ids=["0", "1", "C-1", "C", "C+1", "3C+5"])
    def test_streamed_matches_one_pass(self, rng, basis, n_rows):
        # chunked, centered per chunk and merged, the moments equal those
        # of one pass, whether the kernel or the caller expands the inputs
        X = 30.0 + rng.standard_normal((n_rows, 5)) * [1.0, 1e-2, 5.0, 1.0, 0.0]
        Y = X[:, :3] @ rng.standard_normal((3, 2)) + 100.0 + rng.standard_normal((n_rows, 2))
        got = raw_moments(X, Y, basis)
        want = one_pass_moments(X if basis is None else expand(X, basis), Y)
        assert got.n_rows == want["n_rows"] == n_rows
        for name in ("mx", "my", "Cxx", "Cxy", "Cyy"):
            ref = want[name]
            assert getattr(got, name).shape == ref.shape
            np.testing.assert_allclose(getattr(got, name), ref, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(ref), initial=0.0))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [1, C - 1, C, C + 1, 3 * C + 5],
                             ids=["1", "C-1", "C", "C+1", "3C+5"])
    def test_kernel_expansion_matches_callers(self, rng, degree, n_rows):
        # the kernel expands each chunk with the `expand` a caller would
        # have applied to all rows, so the moments are the same bits and a
        # fit moves nothing when the expansion moves into it
        basis = BasisSpec(degree)
        X = 30.0 + rng.standard_normal((n_rows, 5)) * [1.0, 1e-2, 5.0, 1.0, 0.0]
        Y = X[:, :3] @ rng.standard_normal((3, 2)) + rng.standard_normal((n_rows, 2))
        got, want = raw_moments(X, Y, basis), raw_moments(expand(X, basis), Y)
        assert (got.basis, want.basis, got.n_rows) == (basis, None, want.n_rows)
        for name in ("mx", "my", "Cxx", "Cxy", "Cyy"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_merge_across_bases_rejected(self, rng):
        # 5 columns are a degree-1 expansion of 4 inputs and a degree-2
        # one of 2: blocks of equal width on different bases do not merge
        X4, Y = rng.standard_normal((200, 4)), rng.standard_normal((200, 2))
        a = raw_moments(X4[:100], Y[:100], BasisSpec(1))
        b = raw_moments(X4[100:, :2], Y[100:], BasisSpec(2))
        assert a.Cxx.shape == b.Cxx.shape == (5, 5)
        for left, right in ((a, b), (b, a)):
            with pytest.raises(ValueError, match=re.escape(
                    f"moments taken on {left.basis} and on {right.basis} do not merge")):
                left + right
        with pytest.raises(ValueError, match=re.escape(
                "moments taken on BasisSpec(degree=1) and on no basis do not merge")):
            a + raw_moments(expand(X4[100:], BasisSpec(1)), Y[100:])

    def test_merge_across_shapes_rejected(self, rng):
        # a block of one target would broadcast into a two-target Cxy, and
        # blocks of different input widths would fail only in numpy: both
        # are refused with the two blocks' (input, target) widths
        X, Y, b = rng.standard_normal((100, 4)), rng.standard_normal((100, 2)), BasisSpec(2)
        whole = raw_moments(X, Y, b)
        for other, widths in ((raw_moments(X, Y[:, :1], b), "(9, 2) and (9, 1)"),
                              (raw_moments(X[:, :3], Y, b), "(9, 2) and (7, 2)")):
            with pytest.raises(ValueError, match=re.escape(
                    f"moments of (input, target) widths {widths} do not merge")):
                whole + other

    def test_nonfinite_in_last_chunk_rejected(self, rng):
        X = rng.standard_normal((2 * self.C + 5, 3))
        X[-1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            raw_moments(X, X[:, :2], BasisSpec(2))

    def test_overflowing_square_rejected(self, rng):
        # 1e200 is finite, its square in the expansion is not
        X = rng.standard_normal((10, 3))
        X[4, 2] = 1e200
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            raw_moments(X, X[:, :2], BasisSpec(2))

    @pytest.mark.parametrize("expanded", [True, False], ids=["expanded", "raw-inputs"])
    def test_peak_memory_is_one_chunk(self, rng, expanded):
        # the kernel holds a chunk of rows at a time, never a copy of the
        # block: over 20 chunks its peak allocation stays below a quarter
        # of the expanded matrix, whether it is given that matrix or the
        # raw inputs and the basis
        basis = BasisSpec(2)
        X = rng.standard_normal((20 * self.C, 12))
        Y = rng.standard_normal((20 * self.C, 3))
        phi = expand(X, basis)
        tracemalloc.start()
        try:
            raw_moments(*((phi, Y) if expanded else (X, Y, basis)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < phi.nbytes / 4

    def test_merged_blocks_match_one_pass(self, rng):
        # columns whose means are far above their spread, cut into blocks
        # of uneven sizes, one of them empty, merged left to right
        X = 30.0 + rng.standard_normal((1000, 6)) * [1.0, 1e-2, 1.0, 5.0, 1.0, 0.0]
        Y = X[:, :3] @ rng.standard_normal((3, 2)) + 100.0 + rng.standard_normal((1000, 2))
        cuts = [0, 1, 250, 250, 600, 1000]
        blocks = [raw_moments(X[a:b], Y[a:b]) for a, b in zip(cuts, cuts[1:])]
        merged, whole = sum(blocks[1:], start=blocks[0]), raw_moments(X, Y)
        assert merged.n_rows == whole.n_rows == 1000
        for name in ("mx", "my", "Cxx", "Cxy", "Cyy"):
            ref = getattr(whole, name)
            np.testing.assert_allclose(getattr(merged, name), ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    def test_empty_block_merges_exactly(self, rng):
        X, Y = rng.standard_normal((40, 3)) + 5.0, rng.standard_normal((40, 2))
        block, empty = raw_moments(X, Y), raw_moments(X[:0], Y[:0])
        for merged in (block + empty, empty + block):
            assert merged.n_rows == 40
            for name in ("mx", "my", "Cxx", "Cxy", "Cyy"):
                assert np.array_equal(getattr(merged, name), getattr(block, name))


class TestStandardization:
    def test_constant_columns_scale_one(self, rng):
        # on the degree-1 basis: its bias column, a constant input and a varying one
        X = np.column_stack([np.full(50, 7.0), rng.standard_normal(50)])
        # a constant target's centered sum of squares can be a rounding
        # residue (~1e-32 for 0.1 over 50 rows), which must not scale it
        Y = np.column_stack([rng.standard_normal(50), np.full(50, 0.1)])
        m = regression_mod._standardize(raw_moments(X, Y, BasisSpec(1)))
        assert m.std.x_scale[0] == 1.0 and m.std.x_scale[1] == 1.0
        assert m.const_cols[0] and m.const_cols[1] and not m.const_cols[2]
        assert m.std.y_scale[1] == 1.0 and m.yty[1] == 0.0

    def test_kkt_residual_zero_for_exact_solution(self, rng):
        X = rng.standard_normal((100, 5))
        y = X @ np.ones((5, 1))
        m = regression_mod._standardize(raw_moments(X, y))
        W = np.ones((5, 1))
        assert regression_mod._kkt_residual(W, m, 0.0) < 1e-9
