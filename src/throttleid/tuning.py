"""Cross-validated hyperparameter sweeps: history length and L1 weight.

Fold errors are reported on a unit-free scale: per-output RMSE divided
by the training fold's target standard deviation, aggregated as a root
mean square over the seven outputs. Thrust, pressure and mass errors
would otherwise be incomparable (newtons vs pascals vs kilograms).

Selection treats grid points whose mean test RMSE lies within a small
relative tolerance of the minimum as tied, then prefers the cheaper
model: the smallest history length, or the largest (sparsest) mu.

Both sweeps run on `parallel.fork_map`, `sweep_history` one history
length per task and `sweep_mu` one fold per task (each fold's
warm-started mu path stays sequential), so a report does not depend on
the number of usable CPUs and the error raised is that of the first
failing (grid point, fold) in serial order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import Dataset, kfold_indices
from .parallel import fork_map
from .regression import (BasisSpec, expand, fit_from_moments, predict_expanded,
                         raw_moments, standardize_moments)


class SweepError(RuntimeError):
    """A fold fit failed; carries the offending grid point and fold.

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
MAX_SWEEPS = 3000
TOL = 1e-8
# residual-stall stopping for near-collinear corpus designs
OBJ_REL_TOL = 1e-6


@dataclass
class SweepConfig:
    """What a sweep varies: the grids, the fold count and the fold seed.
    Every other sweep setting is one of the constants above."""

    n_grid: tuple = tuple(range(1, 11))
    mu_grid: tuple = tuple(np.logspace(-5.0, 0.0, 11))
    k: int = 5
    seed: int = 0

    def __post_init__(self):
        if not self.n_grid or not len(self.mu_grid):
            raise ValueError("grids must be non-empty")
        mu = np.asarray(self.mu_grid, dtype=float)
        if np.any(mu <= 0.0) or np.any(np.diff(mu) <= 0.0):
            raise ValueError("mu_grid must be strictly increasing and positive")
        if self.k < 2:
            raise ValueError("k must be >= 2")


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
    seed: int

    def point(self, value) -> GridPoint:
        for pt in self.points:
            if pt.value == value:
                return pt
        raise KeyError(value)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            fh.write("kind,value,fold,train_rmse,test_rmse,sparsity\n")
            for pt in self.points:
                for i in range(len(pt.test_rmse)):
                    fh.write(f"{self.kind},{pt.value!r},{i},{pt.train_rmse[i]!r},"
                             f"{pt.test_rmse[i]!r},{pt.sparsity[i]!r}\n")
                fh.write(f"{self.kind},{pt.value!r},mean,{pt.mean_train!r},"
                         f"{pt.mean_test!r},{pt.mean_sparsity!r}\n")

    def to_json(self, path: str | Path | None = None) -> str:
        payload = {
            "kind": self.kind,
            "k": self.k,
            "seed": self.seed,
            "selected": self.selected,
            "points": [{
                "value": pt.value,
                "mean_train_rmse": pt.mean_train,
                "mean_test_rmse": pt.mean_test,
                "mean_sparsity": pt.mean_sparsity,
                "train_rmse": pt.train_rmse,
                "test_rmse": pt.test_rmse,
                "sparsity": pt.sparsity,
            } for pt in self.points],
        }
        text = json.dumps(payload, sort_keys=True, indent=2)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text


def _scaled_rmse(err: np.ndarray) -> float:
    """Root mean square over outputs of the per-output RMSE of `err`."""
    per_output = np.sqrt(np.mean(err ** 2, axis=0))
    return float(np.sqrt(np.mean(per_output ** 2)))


def _fold_scores(model, phi: np.ndarray, targets: np.ndarray,
                 train: np.ndarray, test: np.ndarray) -> tuple[float, float, float]:
    """(train RMSE, test RMSE, sparsity) of one fold's fit, each output's
    error scaled by the train-fold target std.

    One product over all rows of the pre-expanded features serves both
    folds; each row of it equals the same row of a product over the
    fold's rows alone.
    """
    err = (predict_expanded(model, phi) - targets) / model.standardization.y_scale
    return _scaled_rmse(err[train]), _scaled_rmse(err[test]), model.sparsity


def _grid_point(value, scores: list[tuple[float, float, float]]) -> GridPoint:
    """A grid point from its per-fold (train RMSE, test RMSE, sparsity)."""
    tr, te, sp = (list(col) for col in zip(*scores))
    return GridPoint(value=value, train_rmse=tr, test_rmse=te, sparsity=sp)


def _select(points: list[GridPoint], prefer_small: bool):
    """Smallest (or largest) grid value whose mean test RMSE is within
    (1 + SELECT_REL_TOL) of the best."""
    cutoff = min(pt.mean_test for pt in points) * (1.0 + SELECT_REL_TOL)
    tied = [pt.value for pt in points if pt.mean_test <= cutoff]
    return min(tied) if prefer_small else max(tied)


def sweep_history(datasets: dict[int, Dataset], cfg: SweepConfig,
                  basis: BasisSpec | None = None) -> SweepReport:
    """k-fold CV over history lengths at the fixed per-sample HISTORY_MU.

    `datasets` maps each n in cfg.n_grid to a dataset assembled at that
    history length from the same trajectories. The history lengths are
    the units of work split across processes.
    """
    basis = basis or BasisSpec()
    for n in cfg.n_grid:
        if n not in datasets:
            raise ValueError(f"no dataset provided for history length {n}")

    def history_point(n) -> GridPoint:
        ds = datasets[n]
        phi = expand(ds.inputs, basis)
        full = raw_moments(phi, ds.targets)
        scores = []
        for fold, (train, test) in enumerate(kfold_indices(len(ds), cfg.k, cfg.seed)):
            try:
                m_train = standardize_moments(full - raw_moments(phi[test], ds.targets[test]))
                model = fit_from_moments(
                    m_train, HISTORY_MU, basis=basis, n_history=n,
                    penalty_scale=HISTORY_PENALTY_SCALE, max_sweeps=MAX_SWEEPS,
                    tol=TOL, obj_rel_tol=OBJ_REL_TOL)
            except Exception as err:
                raise SweepError(n, fold, err) from err
            scores.append(_fold_scores(model, phi, ds.targets, train, test))
        return _grid_point(int(n), scores)

    points = list(fork_map(history_point, cfg.n_grid))
    selected = _select(points, prefer_small=True)
    return SweepReport(kind="history", points=points, selected=selected,
                       k=cfg.k, seed=cfg.seed)


def sweep_mu(dataset: Dataset, cfg: SweepConfig,
             basis: BasisSpec | None = None) -> SweepReport:
    """Warm-started k-fold CV along the mu grid at a fixed history length.

    Fits run from the largest mu down, warm-starting each from the
    previous solution; results are reported in grid order. The folds
    are the units of work split across processes; each fold's path
    stays sequential.
    """
    basis = basis or BasisSpec()
    phi = expand(dataset.inputs, basis)
    full = raw_moments(phi, dataset.targets)
    mu_desc = sorted(cfg.mu_grid, reverse=True)
    folds = kfold_indices(len(dataset), cfg.k, cfg.seed)

    def fold_path(fold: int) -> list[tuple[float, float, float]]:
        train, test = folds[fold]
        moments = standardize_moments(full - raw_moments(phi[test], dataset.targets[test]))
        w0 = None
        path = []
        for mu in mu_desc:
            try:
                model = fit_from_moments(
                    moments, mu, basis=basis, n_history=dataset.n,
                    penalty_scale=PENALTY_SCALE, max_sweeps=MAX_SWEEPS,
                    tol=TOL, obj_rel_tol=OBJ_REL_TOL, w0=w0)
            except Exception as err:
                raise SweepError(mu, fold, err) from err
            w0 = model.W_std
            path.append(_fold_scores(model, phi, dataset.targets, train, test))
        return path

    paths = list(fork_map(fold_path, range(len(folds))))
    points = [_grid_point(float(mu), [path[mu_desc.index(mu)] for path in paths])
              for mu in cfg.mu_grid]
    selected = _select(points, prefer_small=False)
    return SweepReport(kind="mu", points=points, selected=selected,
                       k=cfg.k, seed=cfg.seed)


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
    with open(path, "w") as fh:
        fh.write("mu,sparsity,test_rmse,pareto\n")
        for r in rows:
            fh.write(f"{r['mu']!r},{r['sparsity']!r},{r['test_rmse']!r},{int(r['pareto'])}\n")


__all__ = [
    "SELECT_REL_TOL", "HISTORY_MU", "HISTORY_PENALTY_SCALE", "PENALTY_SCALE",
    "MAX_SWEEPS", "TOL", "OBJ_REL_TOL",
    "SweepConfig", "SweepReport", "GridPoint", "SweepError",
    "sweep_history", "sweep_mu", "pareto_table", "pareto_to_csv",
]
