"""Polynomial basis expansion and L1-regularized least squares.

The learning problem is, per output row,

    min_w  1/2 * ||y - Phi w||^2  +  mu * ||w||_1

solved on the Gram moments (Phi^T Phi, Phi^T Y), so its cost does not
grow with the row count N, by feature-sign search: an exact active-set
method that ends in finitely many steps on a positive-definite Gram
matrix. Where G is singular or nearly so (duplicate or collinear
columns), lambda_2 = RIDGE * mean(diag G) joins its diagonal, which
adds 1/2 * lambda_2 * ||w||^2 (an elastic net) and makes the optimum
unique. The model records lambda_2 (0.0 when none was added) and, as
`kkt`, the largest KKT violation left; running out of MAX_STEPS
raises ConvergenceError.

Moments are taken per chunk of rows about its own column means and
merged pairwise (`RawMoments`) into a block (a trace, a CV fold), so no
design matrix is built. A column's mean reaches 31x its std on the
corpus, so a Gram centered from raw sums would cancel and leave the
fit's low digits to the summation order and the BLAS kernel; from
centered blocks K agrees to ~1e-9 across both. A block records the basis
that expanded its rows, and a fit takes its basis from its moments.

A fit on moments taken on a basis (the pipeline's fit) standardizes
features and targets (zero mean, unit variance) before penalizing, so a
single mu is comparable across outputs measured in newtons, pascals and
kilograms; the coefficient matrix it returns is de-standardized to
original units, the centering offset in the basis's bias column. Other
fits solve the objective above exactly as written, every column penalized.
The penalty weight can be scaled by the row count before solving:
"none" applies mu exactly as written in the objective, "sqrt-rows"
multiplies by sqrt(N) (a noise-calibrated convention that keeps a
fixed mu grid meaningful across dataset sizes; the production sweeps
use it), and "rows" multiplies by N (a per-sample penalty).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .parallel import fork_map
from .plant import _from_document, read_json, write_json


# Feature-sign steps allowed per fit, summed over the outputs.
MAX_STEPS = 10000
# lambda_2 as a fraction of the solvable Gram block's mean diagonal
# (1e-8 * N on standardized moments). The duplicate columns (fuel and
# oxidizer mass lags, equal to 1e-13; a status column and its square,
# engines switched in pairs) need it, not the rounding floor (~1e-15 on
# centered moments). Its size is
# part of the model: at 1e-10 the default fit is sparser, and at 1e-12
# the search runs out of MAX_STEPS.
RIDGE = 1e-8


class ConvergenceError(RuntimeError):
    """Feature-sign search exhausted its step budget (MAX_STEPS)."""

    def __init__(self, sweeps: int, kkt_residual: float):
        self.sweeps = sweeps
        self.kkt_residual = kkt_residual
        super().__init__(
            f"no convergence after {sweeps} sweeps (KKT residual {kkt_residual:.3e})")

    def __reduce__(self):
        return type(self), (self.sweeps, self.kkt_residual)


@dataclass(frozen=True)
class BasisSpec:
    """Monomial basis: a bias column, then the powers 1 .. degree of each
    input, power-major ([1, x, x^2, ..., x^degree], no cross terms);
    degree 1 is the linear basis [1, x]."""

    degree: int = 2

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")

    def width(self, p: int) -> int:
        return self.degree * p + 1

    def unexpanded_width(self, F: int) -> int:
        """Invert width(): the raw input width that expands to F columns."""
        p, rem = divmod(F - 1, self.degree)
        if rem or p < 0:
            raise ValueError(f"width {F} is not a degree-{self.degree} expansion")
        return p


def expand(x: np.ndarray, basis: BasisSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Deterministic ordered monomial expansion, the bias column first.

    `x` is one row (p,) or a batch (N, p); the result is (width,) or
    (N, width) with width = basis.width(p), written into `out` when
    given (an array of that shape, which is returned).
    """
    x = np.asarray(x, dtype=float)
    p = x.shape[-1]
    if out is None:
        out = np.empty(x.shape[:-1] + (basis.width(p),))
    out[..., 0] = 1.0
    X = out[..., 1:p + 1]
    X[...] = x
    for d in range(2, basis.degree + 1):   # X, not x: a row's powers sit beside it in memory
        np.power(X, d, out=out[..., (d - 1) * p + 1:d * p + 1])
    return out


@dataclass
class Standardization:
    """Per-column affine maps applied before the solve and inverted after."""

    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: np.ndarray
    y_scale: np.ndarray


@dataclass
class _Moments:
    """Gram moments of the problem that the solver sees."""

    G: np.ndarray        # (F, F)
    c: np.ndarray        # (F, m)
    yty: np.ndarray      # (m,)
    std: Standardization
    const_cols: np.ndarray  # (F,) bool


@dataclass
class RawMoments:
    """Sufficient statistics of a (features X, targets Y) block, not yet
    standardized: the row count, the column means and the cross-products
    about them, X the inputs as `basis` expanded them (if not None). `a + b`
    merges two blocks of one shape on one basis by the pairwise update of
    Chan, Golub & LeVeque (1979): the same blocks merged in the same order
    give the same bits, and an empty block merges exactly."""

    n_rows: int
    mx: np.ndarray    # column means of X
    my: np.ndarray    # column means of Y
    Cxx: np.ndarray   # (X - mx)^T (X - mx)
    Cxy: np.ndarray   # (X - mx)^T (Y - my)
    Cyy: np.ndarray   # column sums of (Y - my)^2
    basis: BasisSpec | None

    def __add__(self, other: "RawMoments") -> "RawMoments":
        if self.basis != other.basis:
            raise ValueError(f"moments taken on {self.basis or 'no basis'} and on "
                             f"{other.basis or 'no basis'} do not merge")
        if self.Cxy.shape != other.Cxy.shape:
            raise ValueError(f"moments of (input, target) widths {self.Cxy.shape} and "
                             f"{other.Cxy.shape} do not merge")
        n = self.n_rows + other.n_rows
        w = other.n_rows / max(n, 1)        # other's share of the rows
        f = self.n_rows * w                 # n_a * n_b / n
        dx, dy = other.mx - self.mx, other.my - self.my
        return RawMoments(n, self.mx + w * dx, self.my + w * dy,
                          self.Cxx + other.Cxx + f * np.outer(dx, dx),
                          self.Cxy + other.Cxy + f * np.outer(dx, dy),
                          self.Cyy + other.Cyy + f * dy ** 2, self.basis)


_CHUNK_ROWS = 4096   # rows per chunk of `raw_moments` and `predict`; 1024-8192 time the same


def raw_moments(features: np.ndarray, targets: np.ndarray,
                basis: BasisSpec | None = None) -> RawMoments:
    """The centered block on `basis` of (features, expanded by it if given, targets): one
    product Z^T Z per chunk Z = [phi | Y], merged in row order, each chunk expanded straight
    into one reused Z; ValueError on a non-finite Z."""
    x = np.asarray(features, dtype=float)
    Y = np.asarray(targets, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if x.ndim != 2 or x.shape[0] != Y.shape[0]:
        raise ValueError("features and targets must be 2-D with equal row counts")
    N, F = len(x), x.shape[1] if basis is None else basis.width(x.shape[1])
    Z, total = np.empty((min(N, _CHUNK_ROWS), F + Y.shape[1])), None
    for start in range(0, max(N, 1), _CHUNK_ROWS):   # no rows: one empty chunk
        z, rows = Z[:min(N - start, _CHUNK_ROWS)], slice(start, start + _CHUNK_ROWS)
        if basis is None:
            z[:, :F] = x[rows]
        else:
            expand(x[rows], basis, out=z[:, :F])
        z[:, F:] = Y[rows]
        if not np.isfinite(z).all():
            raise ValueError("non-finite training data")
        mean = z.sum(axis=0) / max(len(z), 1)
        z -= mean
        S = z.T @ z
        block = RawMoments(len(z), mean[:F], mean[F:], S[:F, :F], S[:F, F:], np.diag(S)[F:], basis)
        total = block if total is None else total + block
    return total


def _standardize(raw: RawMoments) -> _Moments:
    """The solver's moments: in zero-mean/unit-variance coordinates, where
    constant columns (the basis's bias column) carry no penalty, or, for
    moments taken without a basis, those of the raw objective."""
    N, mx, my = raw.n_rows, raw.mx, raw.my
    if raw.basis is None:
        G = raw.Cxx + N * np.outer(mx, mx)
        const = np.diag(G) <= 0.0  # all-zero columns carry nothing
        std = Standardization(np.zeros_like(mx), np.ones_like(mx), np.zeros_like(my),
                              np.ones_like(my))
        return _Moments(G=G, c=raw.Cxy + N * np.outer(mx, my), yty=raw.Cyy + N * my ** 2,
                        std=std, const_cols=const)
    var = np.diag(raw.Cxx) / N
    const = var <= 1e-14 * np.maximum(mx ** 2, 1.0)
    sx = np.where(const, 1.0, np.sqrt(var))
    vy = raw.Cyy / N
    yconst = vy <= 1e-14 * np.maximum(my ** 2, 1.0)
    sy = np.where(yconst, 1.0, np.sqrt(vy))
    Gs = raw.Cxx / np.outer(sx, sx)
    cs = raw.Cxy / np.outer(sx, sy)
    Gs[const, :] = 0.0
    Gs[:, const] = 0.0
    cs[const, :] = 0.0
    yty = np.where(yconst, 0.0, N * np.ones_like(my))
    return _Moments(G=Gs, c=cs, yty=yty, std=Standardization(mx, sx, my, sy),
                    const_cols=const)


def _well_posed(m: _Moments) -> tuple[_Moments, float]:
    """The moments with a positive-definite solvable Gram block, and the
    ridge lambda_2 added to its diagonal for that (0.0 if none).

    lambda_2 is RIDGE times the block's mean diagonal. A block whose
    smallest eigenvalue exceeds it is kept; otherwise it joins the
    diagonal, which makes the fit an elastic net (Zou & Hastie 2005).
    """
    S = np.flatnonzero(np.diag(m.G) > 0.0)
    if S.size == 0:
        return m, 0.0
    G_S = m.G[np.ix_(S, S)]
    ridge = RIDGE * float(np.mean(np.diag(G_S)))
    try:
        np.linalg.cholesky(G_S - ridge * np.eye(S.size))
        return m, 0.0
    except np.linalg.LinAlgError:
        G = m.G.copy()
        G[S, S] += ridge
        return replace(m, G=G), ridge


def _feature_sign(G: np.ndarray, c: np.ndarray, mu: float, w: np.ndarray,
                  solvable: np.ndarray, budget: int) -> tuple[np.ndarray, int, bool]:
    """Feature-sign search (Lee, Battle, Raina & Ng 2007) for one output:
    minimize 1/2 w'Gw - c'w + mu*|w|_1 over the solvable coordinates,
    which G must make positive definite, from the signs of w.

    Each step solves the active block at fixed signs theta,
    G_AA x = c_A - mu * theta, and moves to the lowest objective on the
    segment to x: x, or a zero crossing, whose coordinate then leaves.
    Once a step lands on x with signs theta, the zero coordinate with
    the largest |gradient| above mu enters. The objective falls at
    every step, so no active set and signs repeat, and the search ends
    when no zero coordinate has |gradient| > mu, or when rounding
    leaves no stop that lowers the objective. Returns
    (w, steps, converged); it gives up after `budget` steps.

    A step on the `mu-path` sweep's 151-column moments costs ~75 µs
    (x86_64, OpenBLAS on one thread, a quiet box), about a third of it
    the solve and the rest some 40 small numpy calls, so the step keeps
    to the calls and temporaries that its arithmetic needs.
    """
    w = w.copy()
    steps = 0
    settled = not w.any()
    while True:
        A = np.flatnonzero(w)
        x = w[A]
        theta = np.sign(x)
        entering = settled
        if entering:
            g = G @ w
            g -= c
            g_free = np.abs(g[solvable])
            g_free *= w[solvable] == 0.0
            if g_free.size == 0 or g_free.max() <= mu:
                return w, steps, True
            j = solvable[g_free.argmax()]
            A = np.concatenate((A, [j]))
            theta = np.concatenate((theta, [-np.sign(g[j])]))
            x = np.concatenate((x, [w[j]]))   # w[j] is +-0.0: x stays w[A] bit for bit
        if steps == budget:
            return w, steps, False
        steps += 1
        G_AA = G[A[:, None], A]
        x_new = np.linalg.solve(G_AA, c[A] - mu * theta)
        d = x_new - x
        # candidate stops: the zero crossings of nonzero coordinates, then x_new
        t = np.divide(x, x - x_new, out=np.full_like(x, np.inf), where=x * x_new < 0.0)
        crossing = np.flatnonzero(t < 1.0)
        ts = np.concatenate((t[crossing], [1.0]))
        points = x + ts[:, None] * d
        if crossing.size:
            points[np.arange(crossing.size), crossing] = 0.0
        # Objective change from x: x_new minimizes the fixed-sign
        # objective, which therefore falls by curve * t * (2 - t), and a
        # coordinate against its sign in theta adds 2 * mu * |value|.
        curve = 0.5 * (d @ (G_AA @ d))
        against = np.abs(points)
        against *= points * theta < 0.0
        f = 2.0 * mu * against.sum(axis=1) - curve * ts * (2.0 - ts)
        best = f.argmin()
        if not f[best] < 0.0:
            # No stop lowers the objective in floating point, so the
            # active coordinates are optimal to working precision, and
            # an entering coordinate's violation is rounding noise.
            if entering:
                return w, steps, True
            settled = True
            continue
        x = points[best]
        w[A] = x
        settled = best == crossing.size and (np.sign(x) == theta).all()


def _objective_value(W: np.ndarray, m: _Moments, mu: float) -> float:
    """1/2 ||Y - Phi W||_F^2 + mu ||W||_1 in solver coordinates, plus
    1/2 lambda_2 ||W||^2 when `m` carries a ridge."""
    quad = 0.5 * (np.sum(W * (m.G @ W)) - 2.0 * np.sum(W * m.c) + np.sum(m.yty))
    return float(quad + mu * np.sum(np.abs(W)))


def _kkt_residual(W: np.ndarray, m: _Moments, mu: float) -> float:
    """Max violation of the subgradient conditions of the objective that
    `m` states (solver coords): |g_j| <= mu where W is zero, and
    g_j = -mu * sign(W_j) elsewhere, over the solvable coordinates."""
    g = m.G @ W - m.c
    res = np.where(W == 0.0, np.abs(g) - mu, np.abs(g + mu * np.sign(W)))
    solvable = np.broadcast_to((np.diag(m.G) > 0.0)[:, None], W.shape)
    return float(np.max(res, where=solvable, initial=0.0))


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
    sparsity: float
    kkt: float
    sweeps: int                        # feature-sign steps, summed over outputs
    objective: float
    ridge: float = 0.0                 # lambda_2 added to the Gram diagonal
    dt: float | None = None            # the step of the data it was fitted on, when known
    W_std: np.ndarray | None = field(default=None, repr=False)  # solver-space solution

    def __post_init__(self):
        self.n_inputs   # ValueError when the basis cannot expand to K's width

    @property
    def n_inputs(self) -> int:
        """Width of the unexpanded feature vector, which `basis` expands to K's."""
        F = self.K.shape[1]
        return F if self.basis is None else self.basis.unexpanded_width(F)


def _scale_mu(mu: float, n_rows: int, penalty_scale: str) -> float:
    if penalty_scale == "none":
        return mu
    if penalty_scale == "sqrt-rows":
        return mu * float(np.sqrt(n_rows))
    if penalty_scale == "rows":
        return mu * n_rows
    raise ValueError(f"unknown penalty_scale {penalty_scale!r}")


def fit_from_moments(raw: RawMoments, mu: float, *,
                     n_history: int | None = None,
                     penalty_scale: str = "none",
                     w0: np.ndarray | None = None) -> CoefficientModel:
    """Solve from the moments of the inputs and the targets (as `cmd_train`
    and the sweeps do), on the basis they were taken with, standardized
    when they have one; `w0` warm-starts the search in the solver's
    coordinates (a model's `W_std`). The model records `raw.basis`, and its
    `predict` takes the raw inputs that `raw_moments` was given;
    `n_history` is only recorded. ValueError on an empty block, on a `mu`
    that is not >= 0 (NaN too), and on a `w0` that is not a finite array
    of the moments' (coefficients, outputs) shape, zero on the constant
    columns, which the search leaves as they are.

    Each output's search is one `fork_map` task with the whole MAX_STEPS
    budget, so the outputs are searched on the usable CPUs (one after
    another inside a fork-map child, where the sweeps' fold fits run).
    The caller takes the results in output order against the budget
    that the outputs before each one left, and searches again, on that
    budget, an output that overran it. So the model, and the
    ConvergenceError raised with the later outputs at their starting
    values, are bitwise those of searching the outputs one by one."""
    if not mu >= 0.0:
        raise ValueError(f"mu must be >= 0, got {mu!r}")
    if raw.n_rows == 0:
        raise ValueError("the moments are of an empty block: no rows to fit")
    mu_eff = _scale_mu(mu, raw.n_rows, penalty_scale)
    m, ridge = _well_posed(_standardize(raw))
    solvable = np.flatnonzero(np.diag(m.G) > 0.0)
    W = np.zeros(m.c.shape) if w0 is None else np.array(w0, dtype=float)
    if W.shape != m.c.shape or not np.isfinite(W).all() or np.delete(W, solvable, 0).any():
        raise ValueError(f"w0 must be a finite array of shape {m.c.shape}, zero on the "
                         f"constant columns (a W_std of these moments), got shape {W.shape}")
    search = lambda k, budget=MAX_STEPS: _feature_sign(m.G, m.c[:, k], mu_eff, W[:, k],
                                                       solvable, budget)
    sweeps = 0
    for k, (w, steps, converged) in enumerate(fork_map(search, range(W.shape[1]))):
        if steps > MAX_STEPS - sweeps:
            # over the budget that the outputs before it left: search again
            # on that budget, where a serial run stops it. (A search that ran
            # out used all MAX_STEPS, so no output before it took a step.)
            w, steps, converged = search(k, MAX_STEPS - sweeps)
        W[:, k] = w
        sweeps += steps
        if not converged:
            raise ConvergenceError(sweeps, _kkt_residual(W, m, mu_eff))

    penalized = ~m.const_cols
    sparsity = float(np.mean(W[penalized] == 0.0)) if penalized.any() else 0.0

    # De-standardize: K acts on raw expanded features, and the offset
    # that centering leaves goes into the bias column, column 0.
    K = (W * m.std.y_scale[None, :] / m.std.x_scale[:, None]).T
    K[:, m.const_cols] = 0.0
    if raw.basis is not None:
        K[:, 0] += m.std.y_mean - K @ m.std.x_mean

    return CoefficientModel(
        K=K, basis=raw.basis, standardization=m.std, mu=mu, mu_effective=mu_eff,
        penalty_scale=penalty_scale, n=n_history, sparsity=sparsity,
        kkt=_kkt_residual(W, m, mu_eff), sweeps=sweeps, objective=_objective_value(W, m, mu_eff),
        ridge=ridge, W_std=W)


def fit_lasso(features: np.ndarray, targets: np.ndarray, mu: float, *,
              basis: BasisSpec | None = None, n_history: int | None = None,
              penalty_scale: str = "none") -> CoefficientModel:
    """Fit the sparse coefficient matrix by feature-sign search:
    `fit_from_moments(raw_moments(features, targets, basis), ...)`.

    Parameters
    ----------
    features : (N, p) array
        Raw inputs, as `predict` and `rollout` take them; not `expand`ed.
    targets : (N, m) array
    mu : float
        L1 weight; applied as given, or scaled by sqrt(N) or N per
        penalty_scale ("none" | "sqrt-rows" | "rows").
    basis : BasisSpec, optional
        The basis that expands `features`, recorded in the model. With a
        basis the fit is the pipeline's: standardized, the constant
        columns such as the bias unpenalized, the centering offset in
        the bias column. Without one it solves the raw objective
        exactly as written, every column penalized.

    Raises
    ------
    ConvergenceError
        The search needed more than MAX_STEPS steps. Carries the KKT
        residual of the point reached.
    """
    return fit_from_moments(raw_moments(features, targets, basis), mu,
                            n_history=n_history, penalty_scale=penalty_scale)


def predict(model: CoefficientModel, x: np.ndarray) -> np.ndarray:
    """Apply the learned map K @ phi(x), phi the model's basis (the
    identity when it has none).

    Accepts a single unexpanded feature vector (p,) or a batch (N, p),
    which is expanded `_CHUNK_ROWS` rows at a time, as `raw_moments` does.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != model.n_inputs:   # the basis expands n_inputs columns to K's width
        raise ValueError(
            f"feature width {X.shape[1]} does not match model input width {model.n_inputs}")
    Y = np.empty((len(X), model.K.shape[0]))
    for rows in (slice(lo, lo + _CHUNK_ROWS) for lo in range(0, len(X), _CHUNK_ROWS)):
        Y[rows] = (X[rows] if model.basis is None else expand(X[rows], model.basis)) @ model.K.T
    return Y[0] if single else Y


def rmse(pred: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-output RMSE and their root-mean-square aggregate."""
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return _rms(pred - truth)


def _rms(err: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-column RMS of a (rows, outputs) error matrix, and their RMS."""
    if err.size == 0:
        raise ValueError("empty input")
    per_output = np.sqrt(np.mean(err ** 2, axis=0))
    return per_output, float(np.sqrt(np.mean(per_output ** 2)))


# The model's scalar fields, written to and read from a model file by
# name, each with a value of the JSON kind that the field must have.
_SCALARS = {"mu": 0.0, "mu_effective": 0.0, "penalty_scale": "", "n": 1, "sparsity": 0.0,
            "kkt": 0.0, "sweeps": 0, "objective": 0.0, "ridge": 0.0, "dt": 0.0}
_FORMAT = "throttleid-model-v1"


def model_to_json(model: CoefficientModel, path: str | Path | None = None) -> str:
    """Serialize a model; K is stored as sparse (row, col, value) triplets."""
    rows, cols = np.nonzero(model.K)
    payload = {name: getattr(model, name) for name in _SCALARS}
    payload.update(
        format=_FORMAT, basis=None if model.basis is None else asdict(model.basis),
        n_inputs=model.n_inputs, n_outputs=model.K.shape[0], n_coefficients=model.K.shape[1],
        standardization={k: v.tolist() for k, v in vars(model.standardization).items()},
        K_triplets=[[int(r), int(c), float(model.K[r, c])] for r, c in zip(rows, cols)])
    return write_json(payload, path)


def model_from_json(source: str | Path) -> CoefficientModel:
    """Load a model from a JSON file (a Path) or from JSON text (a str).

    ValueError, naming the key, when a key is missing, unknown or of the
    wrong JSON kind (`plant._from_document`; `basis`, `n` and `dt` may be null),
    `n_outputs` or `n_coefficients` is negative, a triplet is not three items or
    lies outside K, a vector does not match K's shape, `n` is below 1, or
    `n_inputs` is not the width that the basis expands to K's width."""
    d = read_json(source)
    if not isinstance(d, dict) or d.get("format") != _FORMAT:
        raise ValueError("not a throttleid model file")
    layout = dict(_SCALARS, format="", basis=BasisSpec(), n_inputs=0, n_outputs=0,
                  n_coefficients=0, standardization=Standardization(*[(0.0,)] * 4),
                  K_triplets=((0.0,),))
    layout.update((k, None) for k in ("basis", "n", "dt") if d.get(k, 0) is None)
    doc = _from_document(SimpleNamespace(**layout), d, "model", complete=True)
    if doc.n is not None and doc.n < 1:
        raise ValueError(f"model key 'n' must be null or an integer >= 1, got {doc.n!r}")
    n_out, n_coef = doc.n_outputs, doc.n_coefficients
    for name, size in (("n_outputs", n_out), ("n_coefficients", n_coef)):
        if size < 0:
            raise ValueError(f"model key {name!r} must be >= 0, got {size}")
    K = np.zeros((n_out, n_coef))
    for entry in doc.K_triplets:
        if len(entry) != 3:
            raise ValueError(f"model key 'K_triplets' holds {entry!r:.80}, not a "
                             f"[row, column, value] triplet")
        r, c, v = entry
        if not (type(r) is int and type(c) is int and 0 <= r < n_out and 0 <= c < n_coef):
            raise ValueError(f"K_triplets entry {[r, c, v]} lies outside the "
                             f"{n_out} x {n_coef} coefficient matrix")
        K[r, c] = v
    std = Standardization(**{k: np.array(v) for k, v in vars(doc.standardization).items()})
    for name, v, size in [("standardization.x_mean", std.x_mean, n_coef),
                          ("standardization.x_scale", std.x_scale, n_coef),
                          ("standardization.y_mean", std.y_mean, n_out),
                          ("standardization.y_scale", std.y_scale, n_out)]:
        if v.shape != (size,):
            raise ValueError(f"{name} must hold {size} numbers, got shape {v.shape}")
    model = CoefficientModel(K=K, basis=doc.basis, standardization=std,
                             **{name: getattr(doc, name) for name in _SCALARS})
    if doc.n_inputs != model.n_inputs:
        raise ValueError(f"model key 'n_inputs' = {doc.n_inputs!r} differs from "
                         f"{model.n_inputs}, the width that the basis expands to {n_coef}")
    return model


__all__ = [
    "BasisSpec", "Standardization", "CoefficientModel", "ConvergenceError",
    "expand", "raw_moments",
    "fit_from_moments", "fit_lasso", "predict", "rmse",
    "model_to_json", "model_from_json", "RawMoments",
]
