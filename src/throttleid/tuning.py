"""Cross-validated hyperparameter sweeps: history length and L1 weight.

Fold errors are reported on a unit-free scale: per-output RMSE divided
by the training fold's target standard deviation, aggregated as a root
mean square over the seven outputs. Thrust, pressure and mass errors
would otherwise be incomparable (newtons vs pascals vs kilograms).

Selection treats grid points whose mean test RMSE lies within a small
relative tolerance of the minimum as tied, then prefers the cheaper
model: the smallest history length, or the largest (sparsest) mu.

Both sweeps run on `parallel.fork_map`, `sweep_history` one history
length per task (assembling its rows there) and `sweep_mu` one fold per
task, so a report does not depend on the number of usable CPUs and the
error raised is that of the first failing (grid point, fold) in serial
order. No design matrix is built whole: each fold's moments are taken
once, as the centered block (`regression.RawMoments`) of its test rows,
which the task that takes it expands. Every fold fit runs in one
warm-started loop (`_fit_fold`) on the other folds' blocks merged, and
is certified by its KKT residual and scored from moments (`_moment_rmse`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .features import Dataset, assemble, kfold_indices, merge
from .parallel import fork_map
from .plant import PlantTrajectory, write_json
from .regression import (BasisSpec, CoefficientModel, RawMoments, expand,
                         fit_from_moments, raw_moments)


class SweepError(RuntimeError):
    """A fold fit failed or is uncertified; carries the grid point and fold.

    `cause` is the fit's exception, or its text once the error has
    crossed back from a worker process.
    """

    def __init__(self, grid_value, fold: int, cause: Exception | str):
        self.grid_value = grid_value
        self.fold = fold
        self.cause = cause
        super().__init__(f"fit failed at grid point {grid_value}, fold {fold}: {cause}")

    def __reduce__(self):
        # the cause travels as text: its type need not be picklable
        return type(self), (self.grid_value, self.fold, str(self.cause))


# Relative tie window around the best mean test RMSE: grid points
# within 5% count as ties and the cheaper model wins. The CV curves
# here have long flat tails (each extra lag keeps buying a percent
# or so), so a strict argmin would always pick the largest model.
SELECT_REL_TOL = 0.05
# Fixed mu for the history sweep, applied per sample ("rows"): a
# moderate penalty keeps lag selection from being confounded by
# either heavy sparsification or unregularized fit noise.
HISTORY_MU = 1e-3
HISTORY_PENALTY_SCALE = "rows"
# The mu grid, and the pipeline's training mu, use the sqrt(N)-calibrated
# convention so the printed 1e-5..1e0 range traverses dense to
# heavily-pruned fits regardless of corpus size; a mu selected by
# `sweep_mu` means the same to `cmd_train`.
PENALTY_SCALE = "sqrt-rows"
# Largest KKT residual of a certified sweep fit, relative to its effective mu.
KKT_REL_TOL = 1e-6


@dataclass(frozen=True)
class SweepConfig:
    """What a sweep varies: the grids and the fold count. The fold seed is
    an argument of each sweep; every other sweep setting is one of the
    constants above."""

    n_grid: tuple = tuple(range(1, 11))
    mu_grid: tuple = tuple(np.logspace(-5.0, 0.0, 11))
    k: int = 5

    def __post_init__(self):
        if not self.n_grid or not len(self.mu_grid):
            raise ValueError("grids must be non-empty")
        if min(self.n_grid) < 1:
            raise ValueError(f"n_grid history lengths must be >= 1, got {min(self.n_grid)}")
        if len(set(self.n_grid)) < len(self.n_grid):
            raise ValueError("n_grid history lengths must be distinct")
        mu = np.asarray(self.mu_grid, dtype=float)
        if np.any(mu <= 0.0) or np.any(np.diff(mu) <= 0.0):
            raise ValueError("mu_grid must be strictly increasing and positive")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        object.__setattr__(self, "n_grid", tuple(self.n_grid))
        object.__setattr__(self, "mu_grid", tuple(self.mu_grid))


@dataclass
class GridPoint:
    value: float
    train_rmse: list[float]
    test_rmse: list[float]
    sparsity: list[float]

    @property
    def mean_train(self) -> float:
        return float(np.mean(self.train_rmse))

    @property
    def mean_test(self) -> float:
        return float(np.mean(self.test_rmse))

    @property
    def mean_sparsity(self) -> float:
        return float(np.mean(self.sparsity))


@dataclass
class SweepReport:
    kind: str                 # "history" or "mu"
    points: list[GridPoint]
    selected: float
    k: int
    seed: int                 # the fold seed

    def point(self, value) -> GridPoint:
        for pt in self.points:
            if pt.value == value:
                return pt
        raise KeyError(value)

    def to_csv(self, path: str | Path) -> None:
        rows = []
        for pt in self.points:
            rows += [(self.kind, pt.value, i, *fold) for i, fold in
                     enumerate(zip(pt.train_rmse, pt.test_rmse, pt.sparsity))]
            rows.append((self.kind, pt.value, "mean", pt.mean_train, pt.mean_test,
                         pt.mean_sparsity))
        _write_rows(path, "kind,value,fold,train_rmse,test_rmse,sparsity", rows)

    def to_json(self, path: str | Path | None = None) -> str:
        points = [{**vars(pt), "mean_train_rmse": pt.mean_train, "mean_test_rmse": pt.mean_test,
                   "mean_sparsity": pt.mean_sparsity} for pt in self.points]
        return write_json({**vars(self), "points": points}, path)


def _moment_rmse(model: CoefficientModel, block: RawMoments) -> float:
    """The model's RMSE on the rows that `block` summarizes, each output's
    scaled by its training target std, then their root mean square. For
    output j, SSE_j = k_j' Cxx k_j - 2 k_j' Cxy_j + Cyy_j + n (k_j . mx - my_j)^2,
    floored at 0 (a sweep fit has a basis, whose bias column holds the offset).
    Only this aggregate is accurate from moments (to ~2e-8 relative): P, mf and
    mo leave residuals ~1e-6 of their std, which the sum cancels, so their own
    RMSE comes out up to 59% off on the mu path; they weigh ~1e-6 in it."""
    K = model.K
    sse = (np.sum((K @ block.Cxx) * K, axis=1) - 2.0 * np.sum(K * block.Cxy.T, axis=1)
           + block.Cyy + block.n_rows * (K @ block.mx - block.my) ** 2)
    per_output = np.sqrt(np.maximum(sse, 0.0) / block.n_rows) / model.standardization.y_scale
    return float(np.sqrt(np.mean(per_output ** 2)))


def _grid_point(value, scores: list[tuple[float, float, float]]) -> GridPoint:
    """A grid point from its per-fold (train RMSE, test RMSE, sparsity)."""
    tr, te, sp = (list(col) for col in zip(*scores))
    return GridPoint(value=value, train_rmse=tr, test_rmse=te, sparsity=sp)


def _report(kind: str, points: list[GridPoint], cfg: SweepConfig, seed: int) -> SweepReport:
    """The sweep's report, selecting the smallest history length (or the
    largest mu) whose mean test RMSE is within (1 + SELECT_REL_TOL) of
    the best."""
    cutoff = min(pt.mean_test for pt in points) * (1.0 + SELECT_REL_TOL)
    tied = [pt.value for pt in points if pt.mean_test <= cutoff]
    selected = min(tied) if kind == "history" else max(tied)
    return SweepReport(kind=kind, points=points, selected=selected, k=cfg.k, seed=seed)


def _block(dataset: Dataset, basis: BasisSpec, rows: np.ndarray) -> RawMoments:
    """The moments of the dataset's `rows`, expanded here."""
    return raw_moments(expand(dataset.inputs[rows], basis), dataset.targets[rows])


def _fit_fold(blocks: list[RawMoments], fold: int, values: list, mus: list[float],
              basis: BasisSpec, n_history: int, penalty_scale: str) -> list[tuple]:
    """(train RMSE, test RMSE, sparsity) of `fold`'s fit at each mu of
    `mus`, descending, each warm-started from the last, on every other
    fold's block merged in fold order, scored on those and on its own block.
    A fit that raises, or whose KKT residual exceeds KKT_REL_TOL times its
    effective mu, raises SweepError(its grid value in `values`, fold)."""
    others = blocks[:fold] + blocks[fold + 1:]
    train = sum(others[1:], start=others[0])
    w0, scores = None, []
    for value, mu in zip(values, mus):
        try:
            model = fit_from_moments(train, mu, basis=basis, n_history=n_history,
                                     penalty_scale=penalty_scale, w0=w0)
        except Exception as err:
            raise SweepError(value, fold, err) from err
        if not model.kkt <= KKT_REL_TOL * model.mu_effective:
            raise SweepError(value, fold, f"KKT residual {model.kkt:.3e} above "
                             f"{KKT_REL_TOL:g} x mu_effective {model.mu_effective:.3e}")
        w0 = model.W_std
        scores.append((_moment_rmse(model, train), _moment_rmse(model, blocks[fold]),
                       model.sparsity))
    return scores


def sweep_history(trajectories: list[PlantTrajectory], cfg: SweepConfig,
                  basis: BasisSpec | None = None, seed: int = 0) -> SweepReport:
    """k-fold CV over history lengths at the fixed per-sample HISTORY_MU,
    the folds drawn with `seed`.

    The history lengths are the units of work split across processes;
    each assembles the trajectories' rows at its own length, so a
    process holds one length's dataset at a time.
    """
    basis = basis or BasisSpec()

    def history_point(n) -> GridPoint:
        ds = merge([assemble(tr, n) for tr in trajectories])
        blocks = [_block(ds, basis, test) for _, test in kfold_indices(len(ds), cfg.k, seed)]
        return _grid_point(int(n), [
            _fit_fold(blocks, fold, [n], [HISTORY_MU], basis, ds.n, HISTORY_PENALTY_SCALE)[0]
            for fold in range(cfg.k)])

    return _report("history", list(fork_map(history_point, cfg.n_grid)), cfg, seed)


def sweep_mu(dataset: Dataset, cfg: SweepConfig,
             basis: BasisSpec | None = None, seed: int = 0) -> SweepReport:
    """Warm-started k-fold CV along the mu grid at a fixed history length,
    the folds drawn with `seed`.

    Fits run from the largest mu down, warm-starting each from the
    previous solution; results are reported in grid order. The folds
    are the units of work split across processes: one fork map takes
    their blocks, the next runs their paths, each sequential.
    """
    basis = basis or BasisSpec()
    mu_desc = sorted(cfg.mu_grid, reverse=True)
    tests = [test for _, test in kfold_indices(len(dataset), cfg.k, seed)]
    blocks = list(fork_map(partial(_block, dataset, basis), tests))
    paths = list(fork_map(lambda fold: _fit_fold(blocks, fold, mu_desc, mu_desc, basis,
                                                 dataset.n, PENALTY_SCALE), range(cfg.k)))
    return _report("mu", [_grid_point(float(mu), [path[mu_desc.index(mu)] for path in paths])
                          for mu in cfg.mu_grid], cfg, seed)


def pareto_table(report: SweepReport) -> list[dict]:
    """Full (mu, sparsity, test RMSE) path with the non-dominated subset flagged.

    A point is on the front when no other point has both sparsity >=
    and test RMSE <= with at least one strict inequality.
    """
    rows = []
    pts = [(pt.value, pt.mean_sparsity, pt.mean_test) for pt in report.points]
    for mu, sp, err in pts:
        dominated = any(
            (sp2 >= sp and err2 <= err) and (sp2 > sp or err2 < err)
            for _, sp2, err2 in pts)
        rows.append({"mu": mu, "sparsity": sp, "test_rmse": err,
                     "pareto": not dominated})
    return rows


def pareto_to_csv(rows: list[dict], path: str | Path) -> None:
    _write_rows(path, "mu,sparsity,test_rmse,pareto",
                [(r["mu"], r["sparsity"], r["test_rmse"], int(r["pareto"])) for r in rows])


def _write_rows(path: str | Path, header: str, rows: list[tuple]) -> None:
    """Mixed-type CSV: the header line, then one line per row, strings as
    they are and every other value as its repr."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n")


__all__ = [
    "SELECT_REL_TOL", "HISTORY_MU", "HISTORY_PENALTY_SCALE", "PENALTY_SCALE", "KKT_REL_TOL",
    "SweepConfig", "SweepReport", "GridPoint", "SweepError",
    "sweep_history", "sweep_mu", "pareto_table", "pareto_to_csv",
]
