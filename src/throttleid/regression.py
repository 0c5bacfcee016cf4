"""Polynomial basis expansion and L1-regularized least squares.

The learning problem is, per output row,

    min_w  1/2 * ||y - Phi w||^2  +  mu * ||w||_1

solved by cyclic coordinate descent with soft-thresholding, operating
on the Gram moments (Phi^T Phi, Phi^T Y) so sweeps cost O(F^2) rather
than O(N F). The seven output rows share one matrix Phi and are
updated together. Each output is then solved exactly on the support
and sign pattern that descent reached, by one Cholesky solve; an
output whose support holds duplicate columns keeps its descent
iterate. An exhausted sweep budget raises ConvergenceError in exact
mode (obj_rel_tol == 0); stall mode returns the point reached.

By default the solver standardizes features and targets (zero mean,
unit variance) before penalizing, so a single mu is comparable across
outputs measured in newtons, pascals and kilograms; the returned
coefficient matrix is always de-standardized back to original units.
The penalty weight can be scaled by the row count before solving:
"none" applies mu exactly as written in the objective, "sqrt-rows"
multiplies by sqrt(N) (a noise-calibrated convention that keeps a
fixed mu grid meaningful across dataset sizes; the production sweeps
use it), and "rows" multiplies by N (a per-sample penalty).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import input_width
from .plant import read_json


class ConvergenceError(RuntimeError):
    """Coordinate descent exhausted its sweep budget in exact mode.

    Only exact-mode fits (obj_rel_tol == 0) raise it. Stall-mode fits
    (obj_rel_tol > 0) return the point reached when the budget runs out
    and record its KKT residual on the model.
    """

    def __init__(self, sweeps: int, kkt_residual: float):
        self.sweeps = sweeps
        self.kkt_residual = kkt_residual
        super().__init__(
            f"no convergence after {sweeps} sweeps (KKT residual {kkt_residual:.3e})")

    def __reduce__(self):
        return type(self), (self.sweeps, self.kkt_residual)


@dataclass
class BasisSpec:
    """Monomial basis descriptor.

    kind:
      - "linear": [1, x]
      - "elementwise-poly": [1, x, x^2, ..., x^degree] (no cross terms)
      - "full-quadratic": [1, x, x_i * x_j for i <= j]
    """

    kind: str = "elementwise-poly"
    degree: int = 2
    include_bias: bool = True

    def __post_init__(self):
        if self.kind not in ("linear", "elementwise-poly", "full-quadratic"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")

    def width(self, p: int) -> int:
        bias = 1 if self.include_bias else 0
        if self.kind == "linear":
            return p + bias
        if self.kind == "elementwise-poly":
            return self.degree * p + bias
        return bias + p + p * (p + 1) // 2

    def unexpanded_width(self, F: int) -> int:
        """Invert width(): the raw input width that expands to F columns."""
        bias = 1 if self.include_bias else 0
        if self.kind == "linear":
            p = F - bias
        elif self.kind == "elementwise-poly":
            p, rem = divmod(F - bias, self.degree)
            if rem:
                raise ValueError(f"width {F} is not a {self.kind} expansion")
            return p
        else:
            p = int(round((-3 + np.sqrt(9 + 8 * (F - bias))) / 2))
        if self.width(p) != F:
            raise ValueError(f"width {F} is not a {self.kind} expansion")
        return p


def expand(x: np.ndarray, basis: BasisSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Deterministic ordered monomial expansion; bias first when enabled.

    `x` is one row (p,) or a batch (N, p). The columns are written into
    `out`, which must have the shape of the result, (width,) or
    (N, width) with width = basis.width(p), and which is returned; a new
    array is allocated when it is not given.
    """
    x = np.asarray(x, dtype=float)
    p = x.shape[-1]
    shape = x.shape[:-1] + (basis.width(p),)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    X = x if x.ndim == 2 else x[None, :]
    O = out if out.ndim == 2 else out[None, :]
    col = 0
    if basis.include_bias:
        O[:, 0] = 1.0
        col = 1
    O[:, col:col + p] = X
    col += p
    if basis.kind == "elementwise-poly":
        for d in range(2, basis.degree + 1):
            np.power(X, d, out=O[:, col:col + p])
            col += p
    elif basis.kind == "full-quadratic":  # lexicographic i <= j
        for i in range(p):
            np.multiply(X[:, i:i + 1], X[:, i:], out=O[:, col:col + p - i])
            col += p - i
    return out


def soft_threshold(z, a):
    """Proximal operator of a*|.|: sign(z) * max(|z| - a, 0)."""
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - a, 0.0)


@dataclass
class Standardization:
    """Per-column affine maps applied before the solve and inverted after."""

    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: np.ndarray
    y_scale: np.ndarray

    @classmethod
    def identity(cls, F: int, m: int) -> "Standardization":
        return cls(np.zeros(F), np.ones(F), np.zeros(m), np.ones(m))


@dataclass
class _Moments:
    """Gram moments of the (possibly standardized) problem."""

    G: np.ndarray        # (F, F)
    c: np.ndarray        # (F, m)
    yty: np.ndarray      # (m,)
    n_rows: int
    std: Standardization
    const_cols: np.ndarray  # (F,) bool


@dataclass
class RawMoments:
    """Additive sufficient statistics of a (features, targets) block.

    Blocks add and subtract exactly, so k-fold training moments come
    from one full-dataset pass minus the test fold.
    """

    G: np.ndarray       # X^T X
    c: np.ndarray       # X^T Y
    sum_x: np.ndarray   # column sums of X
    sum_y: np.ndarray
    sum_y2: np.ndarray  # column sums of Y^2
    n_rows: int

    def __sub__(self, other: "RawMoments") -> "RawMoments":
        return RawMoments(self.G - other.G, self.c - other.c,
                          self.sum_x - other.sum_x, self.sum_y - other.sum_y,
                          self.sum_y2 - other.sum_y2, self.n_rows - other.n_rows)


def raw_moments(features: np.ndarray, targets: np.ndarray) -> RawMoments:
    X = np.asarray(features, dtype=float)
    Y = np.asarray(targets, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("features and targets must be 2-D with equal row counts")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("non-finite training data")
    return RawMoments(G=X.T @ X, c=X.T @ Y, sum_x=X.sum(axis=0),
                      sum_y=Y.sum(axis=0), sum_y2=(Y ** 2).sum(axis=0),
                      n_rows=X.shape[0])


def standardize_moments(raw: RawMoments, standardize: bool = True) -> _Moments:
    N = raw.n_rows
    F = raw.G.shape[0]
    nout = raw.c.shape[1]
    if not standardize:
        const = np.diag(raw.G) <= 0.0  # all-zero columns carry nothing
        return _Moments(G=raw.G, c=raw.c, yty=raw.sum_y2, n_rows=N,
                        std=Standardization.identity(F, nout), const_cols=const)
    mx = raw.sum_x / N
    var = np.maximum(np.diag(raw.G) / N - mx ** 2, 0.0)
    const = var <= 1e-14 * np.maximum(mx ** 2, 1.0)
    sx = np.where(const, 1.0, np.sqrt(var))
    my = raw.sum_y / N
    vy = np.maximum(raw.sum_y2 / N - my ** 2, 0.0)
    sy = np.where(vy <= 0.0, 1.0, np.sqrt(vy))
    Gs = (raw.G - N * np.outer(mx, mx)) / np.outer(sx, sx)
    cs = (raw.c - N * np.outer(mx, my)) / np.outer(sx, sy)
    Gs[const, :] = 0.0
    Gs[:, const] = 0.0
    cs[const, :] = 0.0
    yty = np.where(vy <= 0.0, 0.0, N * np.ones_like(my))
    return _Moments(G=Gs, c=cs, yty=yty, n_rows=N,
                    std=Standardization(mx, sx, my, sy), const_cols=const)


def compute_moments(features: np.ndarray, targets: np.ndarray,
                    standardize: bool = True) -> _Moments:
    return standardize_moments(raw_moments(features, targets), standardize)


def _cd_solve(m: _Moments, mu: float, *, w0: np.ndarray | None = None,
              max_sweeps: int = 10000, tol: float = 1e-8,
              track_objective: bool = False,
              obj_rel_tol: float = 0.0):
    """Cyclic coordinate descent on the moment form.

    Converges when the max coefficient change over a sweep drops below
    tol. With obj_rel_tol > 0, stalling of the smooth (residual) term
    for three consecutive sweeps also counts as converged: stair-hold
    data makes adjacent lag columns nearly identical, and the current
    pressure input duplicates the pressure target outright, so the L1
    problem has almost-flat valleys along which coefficients keep
    sliding (hunting the minimum-l1 representative) long after the
    predictions have stopped changing.

    Returns (W, sweeps, converged, objective_history).
    """
    G, c = m.G, m.c
    F, nout = c.shape
    diag = np.diag(G).copy()
    solvable = np.flatnonzero(diag > 0.0)
    W = np.zeros((F, nout)) if w0 is None else np.array(w0, dtype=float)
    q = G @ W
    need_obj = track_objective or obj_rel_tol > 0.0
    history = [_objective_value(W, m, mu)] if track_objective else []

    # G is symmetric, so row j doubles as (contiguous) column j; G_col[j]
    # is that column shaped (F, 1) for the broadcast outer product.
    G_col = G[:, :, None]
    diag_of = diag.tolist()
    q_step = np.empty((F, nout))

    def cycle(cols) -> float:
        # soft_threshold and np.outer inlined: the same operations in the
        # same order, without their per-call overhead
        nonlocal q
        max_delta = 0.0
        for j in cols:
            d = diag_of[j]
            rho = c[j] - q[j] + d * W[j]
            w_new = np.sign(rho) * np.maximum(np.abs(rho) - mu, 0.0) / d
            delta = w_new - W[j]
            step = np.abs(delta).max()
            if step > 0.0:
                np.multiply(G_col[j], delta, out=q_step)
                q += q_step
                W[j] = w_new
                if step > max_delta:
                    max_delta = step
        return max_delta

    smooth_prev = None
    stall_run = 0

    def stalled() -> bool:
        nonlocal smooth_prev, stall_run
        if not need_obj:
            return False
        quad = 0.5 * (np.sum(W * (G @ W)) - 2.0 * np.sum(W * m.c) + np.sum(m.yty))
        if track_objective:
            history.append(float(quad + mu * np.sum(np.abs(W))))  # as _objective_value
        if obj_rel_tol <= 0.0:
            return False
        if smooth_prev is not None and \
                abs(smooth_prev - quad) <= obj_rel_tol * max(abs(quad), 1e-300):
            stall_run += 1
        else:
            stall_run = 0
        smooth_prev = quad
        return stall_run >= 3

    def fista_phase(max_iters: int = 100000) -> None:
        # Accelerated proximal-gradient warm start. Each iteration is a
        # single symmetric matmul, ~30x cheaper than a coordinate
        # sweep, which matters because the near-duplicate lag columns
        # of stair-hold data make first-order progress slow. The CD
        # loop below still owns convergence.
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
        # Iterates live in preallocated buffers; each step is the same
        # sequence of operations as
        #   W_new = soft_threshold(V - (G @ V - c) / L, mu_L)
        #   V = W_new + ((tk - 1) / tk_new) * (W_new - W)
        W_new, grad, shrink, diff = (np.empty_like(W) for _ in range(4))
        tk = 1.0
        check, f_last = 200, None
        for it in range(1, max_iters + 1):
            np.matmul(G, V, out=grad)
            grad -= c
            grad /= L
            np.subtract(V, grad, out=W_new)
            np.abs(W_new, out=shrink)
            shrink -= mu_L
            np.maximum(shrink, 0.0, out=shrink)
            np.sign(W_new, out=W_new)
            W_new *= shrink
            tk_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
            np.subtract(W_new, W, out=diff)
            diff *= (tk - 1.0) / tk_new
            np.add(W_new, diff, out=V)
            W, W_new, tk = W_new, W, tk_new
            if it % check == 0:
                f_now = 0.5 * (np.sum(W * (G @ W)) - 2.0 * np.sum(W * c)
                               + np.sum(m.yty))
                if f_last is not None and \
                        abs(f_last - f_now) <= 0.25 * check * obj_rel_tol * max(abs(f_now), 1e-300):
                    break
                f_last = f_now
        q = G @ W

    # Screening slack: admitting a zero coordinate whose gradient sits
    # within mu*(1+slack) improves the objective by at most
    # (mu*slack)^2 / (2*diag); with the stall rule active this is far
    # below the stall resolution, and without it the screen is exact.
    screen_slack = 1e-3 if obj_rel_tol > 0.0 else 0.0

    def kkt_violators() -> np.ndarray:
        rho_all = c[solvable] - q[solvable]
        zero_rows = ~np.any(W[solvable] != 0.0, axis=1)
        bound = mu * (1.0 + screen_slack)
        return solvable[zero_rows & (np.max(np.abs(rho_all), axis=1) > bound)]

    sweeps = 0
    converged = False
    if obj_rel_tol > 0.0 and solvable.size:
        fista_phase()
        if track_objective:
            # the warm start may have passed the recorded initial value
            history[:] = [_objective_value(W, m, mu)]
    if np.any(W != 0.0):
        active = solvable[np.any(W[solvable] != 0.0, axis=1)]
    else:
        # strong-rule style start; later screens admit anything missed
        active = solvable[np.max(np.abs(c[solvable]), axis=1) > mu]
    smooth_at_screen = None
    while sweeps < max_sweeps:
        # cycle the working set until it stops moving
        settled = False
        stall_fired = False
        while sweeps < max_sweeps:
            delta = cycle(active) if active.size else 0.0
            sweeps += 1
            stall_fired = stalled()  # also records the objective history
            if delta < tol or stall_fired:
                settled = True
                break
        if not settled:
            break
        viol = kkt_violators()
        if viol.size == 0:
            converged = True
            break
        if obj_rel_tol > 0.0 and smooth_prev is not None:
            # Marginal coordinates can flip between zero and active
            # forever on degenerate designs; once a screen-to-screen
            # round stops moving the residual term, further admissions
            # buy nothing measurable.
            if smooth_at_screen is not None and \
                    abs(smooth_at_screen - smooth_prev) <= 10.0 * obj_rel_tol * abs(smooth_prev):
                converged = True
                break
            smooth_at_screen = smooth_prev
        active = np.union1d(solvable[np.any(W[solvable] != 0.0, axis=1)], viol)
    return W, sweeps, converged, history


def _support_solve(m: _Moments, mu: float, W: np.ndarray) -> np.ndarray:
    """Solve each output exactly on the support of the descent iterate.

    On the support A and sign pattern s of a LASSO minimizer,
    G_AA w_A = c_A - mu * s_A holds exactly; descent only gets there
    to its stopping tolerance. An output keeps its iterate when G_AA is
    not positive definite (duplicate columns in the support, where the
    minimizer is not unique) or when the solved point does not lower
    that output's objective.
    """
    def objective(w, k):
        return 0.5 * (w @ (m.G @ w) + m.yty[k]) - w @ m.c[:, k] + mu * np.sum(np.abs(w))

    W = W.copy()
    for k in range(W.shape[1]):
        w = W[:, k]
        A = np.flatnonzero(w)
        if A.size == 0:
            continue
        try:
            L = np.linalg.cholesky(m.G[np.ix_(A, A)])
        except np.linalg.LinAlgError:
            continue
        w_new = np.zeros_like(w)
        rhs = m.c[A, k] - mu * np.sign(w[A])
        w_new[A] = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
        if objective(w_new, k) <= objective(w, k) * (1.0 + 1e-12) + 1e-12:
            W[:, k] = w_new
    return W


def _objective_value(W: np.ndarray, m: _Moments, mu: float) -> float:
    """1/2 ||Y - Phi W||_F^2 + mu ||W||_1 in solver coordinates."""
    quad = 0.5 * (np.sum(W * (m.G @ W)) - 2.0 * np.sum(W * m.c) + np.sum(m.yty))
    return float(quad + mu * np.sum(np.abs(W)))


def kkt_residual(W: np.ndarray, m: _Moments, mu: float) -> float:
    """Max violation of the LASSO subgradient conditions (solver coords)."""
    g = m.G @ W - m.c
    active = (np.diag(m.G) > 0.0)[:, None]
    res = 0.0
    zero = (W == 0.0) & active
    if zero.any():
        res = max(res, float(np.max(np.abs(g[zero]) - mu)))
    nonzero = (W != 0.0) & active
    if nonzero.any():
        res = max(res, float(np.max(np.abs(g[nonzero] + mu * np.sign(W[nonzero])))))
    return max(res, 0.0)


@dataclass
class CoefficientModel:
    """Learned sparse map from expanded features to the 7 outputs."""

    K: np.ndarray                      # (m, F) in original units
    basis: BasisSpec | None
    standardization: Standardization
    mu: float
    mu_effective: float
    penalty_scale: str
    n: int | None                      # history length, when known
    n_inputs: int                      # width of the unexpanded feature vector
    sparsity: float
    kkt: float
    sweeps: int
    objective: float
    intercept: np.ndarray | None = None  # only when no bias column exists
    W_std: np.ndarray | None = field(default=None, repr=False)  # solver-space solution

    @property
    def n_outputs(self) -> int:
        return self.K.shape[0]


PENALTY_SCALES = ("none", "sqrt-rows", "rows")


def _scale_mu(mu: float, n_rows: int, penalty_scale: str) -> float:
    if penalty_scale == "none":
        return mu
    if penalty_scale == "sqrt-rows":
        return mu * float(np.sqrt(n_rows))
    if penalty_scale == "rows":
        return mu * n_rows
    raise ValueError(f"unknown penalty_scale {penalty_scale!r}")


def fit_from_moments(m: _Moments, mu: float, *,
                     basis: BasisSpec | None = None,
                     n_history: int | None = None,
                     penalty_scale: str = "none",
                     max_sweeps: int = 10000, tol: float = 1e-8,
                     w0: np.ndarray | None = None,
                     track_objective: bool = False,
                     obj_rel_tol: float = 0.0,
                     n_inputs: int | None = None) -> CoefficientModel:
    """Solve from precomputed Gram moments (the sweep fast path)."""
    if mu < 0.0:
        raise ValueError("mu must be >= 0")
    mu_eff = _scale_mu(mu, m.n_rows, penalty_scale)
    W, sweeps, converged, history = _cd_solve(
        m, mu_eff, w0=w0, max_sweeps=max_sweeps, tol=tol,
        track_objective=track_objective, obj_rel_tol=obj_rel_tol)
    W = _support_solve(m, mu_eff, W)
    objective = _objective_value(W, m, mu_eff)
    if track_objective:
        history.append(objective)
    kkt = kkt_residual(W, m, mu_eff)
    if not converged and obj_rel_tol <= 0.0:
        raise ConvergenceError(sweeps, kkt)

    penalized = ~m.const_cols
    sparsity = float(np.mean(W[penalized] == 0.0)) if penalized.any() else 0.0

    # De-standardize: K acts on raw expanded features. The intercept
    # produced by centering is folded into the bias column when one
    # exists (its constant value is recorded in x_mean).
    K = (W * m.std.y_scale[None, :] / m.std.x_scale[:, None]).T
    K[:, m.const_cols] = 0.0
    intercept = None
    offset = m.std.y_mean - K @ m.std.x_mean
    if np.any(np.abs(offset) > 0.0):
        bias_col = None
        if basis is not None and basis.include_bias:
            bias_col = 0
        elif m.const_cols.any():
            bias_col = int(np.argmax(m.const_cols))
        if bias_col is not None and m.std.x_mean[bias_col] != 0.0:
            K[:, bias_col] += offset / m.std.x_mean[bias_col]
        else:
            intercept = offset

    model = CoefficientModel(
        K=K, basis=basis, standardization=m.std, mu=mu, mu_effective=mu_eff,
        penalty_scale=penalty_scale, n=n_history,
        n_inputs=input_width(n_history) if n_history is not None
        else (n_inputs if n_inputs is not None else K.shape[1]),
        sparsity=sparsity, kkt=kkt, sweeps=sweeps,
        objective=objective,
        intercept=intercept, W_std=W)
    model._objective_history = history  # kept for diagnostics/tests
    return model


def fit_lasso(features: np.ndarray, targets: np.ndarray, mu: float, *,
              basis: BasisSpec | None = None, n_history: int | None = None,
              standardize: bool = True, penalty_scale: str = "none",
              max_sweeps: int = 10000, tol: float = 1e-8,
              track_objective: bool = False,
              obj_rel_tol: float = 0.0) -> CoefficientModel:
    """Fit the sparse coefficient matrix by cyclic coordinate descent.

    Parameters
    ----------
    features : (N, F) array
        Expanded regressors (call `expand` first when using a basis).
    targets : (N, m) array
    mu : float
        L1 weight; applied as given, or scaled by sqrt(N) or N per
        penalty_scale ("none" | "sqrt-rows" | "rows").
    basis : BasisSpec, optional
        Recorded in the model so `predict` can expand raw inputs; also
        identifies the bias column that takes the centering intercept.
    standardize : bool
        Solve in zero-mean/unit-variance coordinates (the production
        path), where constant columns such as the bias carry no penalty.
        Disable to solve the raw objective exactly as written, every
        column penalized.

    Raises
    ------
    ConvergenceError
        In exact mode (obj_rel_tol == 0) only: max_sweeps ran out before
        the coefficient change dropped below tol. Carries the final KKT
        residual. Stall mode returns the point reached instead.
    """
    m = compute_moments(features, targets, standardize=standardize)
    width = basis.unexpanded_width(features.shape[1]) if basis is not None \
        else features.shape[1]
    return fit_from_moments(
        m, mu, basis=basis, n_history=n_history, penalty_scale=penalty_scale,
        max_sweeps=max_sweeps, tol=tol, track_objective=track_objective,
        obj_rel_tol=obj_rel_tol, n_inputs=width)


def predict(model: CoefficientModel, x: np.ndarray) -> np.ndarray:
    """Apply the learned map: K @ phi(x) (+ intercept when separate).

    Accepts a single unexpanded feature vector (p,) or a batch (N, p).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if model.basis is not None:
        if X.shape[1] != model.n_inputs:
            raise ValueError(
                f"feature width {X.shape[1]} does not match model input width {model.n_inputs}")
        Phi = expand(X, model.basis)
    else:
        Phi = X
    if Phi.shape[1] != model.K.shape[1]:
        raise ValueError(
            f"expanded width {Phi.shape[1]} does not match coefficient width {model.K.shape[1]}")
    Y = predict_expanded(model, Phi)
    return Y[0] if single else Y


def predict_expanded(model: CoefficientModel, phi: np.ndarray) -> np.ndarray:
    """`predict` on a batch already expanded by the model's basis:
    phi @ K.T (+ intercept when separate)."""
    Y = phi @ model.K.T
    if model.intercept is not None:
        Y = Y + model.intercept
    return Y


def rmse(pred: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-output RMSE and their root-mean-square aggregate."""
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("empty input")
    per_output = np.sqrt(np.mean((pred - truth) ** 2, axis=0))
    return per_output, float(np.sqrt(np.mean(per_output ** 2)))


def model_to_json(model: CoefficientModel, path: str | Path | None = None) -> str:
    """Serialize a model; K is stored as sparse (row, col, value) triplets."""
    rows, cols = np.nonzero(model.K)
    payload = {
        "format": "throttleid-model-v1",
        "basis": None if model.basis is None else {
            "kind": model.basis.kind,
            "degree": model.basis.degree,
            "include_bias": model.basis.include_bias,
        },
        "mu": model.mu,
        "mu_effective": model.mu_effective,
        "penalty_scale": model.penalty_scale,
        "n": model.n,
        "n_inputs": model.n_inputs,
        "n_outputs": model.K.shape[0],
        "n_coefficients": model.K.shape[1],
        "sparsity": model.sparsity,
        "kkt": model.kkt,
        "sweeps": model.sweeps,
        "objective": model.objective,
        "standardization": {
            "x_mean": model.standardization.x_mean.tolist(),
            "x_scale": model.standardization.x_scale.tolist(),
            "y_mean": model.standardization.y_mean.tolist(),
            "y_scale": model.standardization.y_scale.tolist(),
        },
        "intercept": None if model.intercept is None else model.intercept.tolist(),
        "K_triplets": [[int(r), int(c), float(model.K[r, c])]
                       for r, c in zip(rows, cols)],
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def model_from_json(source: str | Path) -> CoefficientModel:
    """Load a model from a JSON file (a Path) or from JSON text (a str)."""
    d = read_json(source)
    if d.get("format") != "throttleid-model-v1":
        raise ValueError("not a throttleid model file")
    K = np.zeros((d["n_outputs"], d["n_coefficients"]))
    for r, c, v in d["K_triplets"]:
        K[r, c] = v
    std = Standardization(
        x_mean=np.array(d["standardization"]["x_mean"]),
        x_scale=np.array(d["standardization"]["x_scale"]),
        y_mean=np.array(d["standardization"]["y_mean"]),
        y_scale=np.array(d["standardization"]["y_scale"]))
    basis = None
    if d["basis"] is not None:
        basis = BasisSpec(**d["basis"])
    intercept = None if d["intercept"] is None else np.array(d["intercept"])
    return CoefficientModel(
        K=K, basis=basis, standardization=std, mu=d["mu"],
        mu_effective=d["mu_effective"], penalty_scale=d["penalty_scale"], n=d["n"],
        n_inputs=d["n_inputs"], sparsity=d["sparsity"], kkt=d["kkt"],
        sweeps=d["sweeps"], objective=d["objective"], intercept=intercept)


__all__ = [
    "BasisSpec", "Standardization", "CoefficientModel", "ConvergenceError",
    "expand", "soft_threshold", "compute_moments", "kkt_residual",
    "fit_from_moments", "fit_lasso", "predict", "predict_expanded", "rmse",
    "model_to_json", "model_from_json",
]
