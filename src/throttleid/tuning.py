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
order. Every fold fit runs in one warm-started loop (`_fit_fold`) that
certifies its KKT residual. A task scores all of its fits with one
product of the expanded features (`_fold_scores`): a history length its
k folds, a fold its whole mu path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import Dataset, assemble, kfold_indices, merge
from .parallel import fork_map
from .plant import PlantTrajectory, write_json
from .regression import (BasisSpec, CoefficientModel, RawMoments, expand,
                         fit_from_moments, raw_moments, standardize_moments)


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
        if min(self.n_grid) < 1:
            raise ValueError(f"n_grid history lengths must be >= 1, got {min(self.n_grid)}")
        if len(set(self.n_grid)) < len(self.n_grid):
            raise ValueError("n_grid history lengths must be distinct")
        mu = np.asarray(self.mu_grid, dtype=float)
        if np.any(mu <= 0.0) or np.any(np.diff(mu) <= 0.0):
            raise ValueError("mu_grid must be strictly increasing and positive")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        self.n_grid, self.mu_grid = tuple(self.n_grid), tuple(self.mu_grid)


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
        rows = []
        for pt in self.points:
            rows += [(self.kind, pt.value, i, *fold) for i, fold in
                     enumerate(zip(pt.train_rmse, pt.test_rmse, pt.sparsity))]
            rows.append((self.kind, pt.value, "mean", pt.mean_train, pt.mean_test,
                         pt.mean_sparsity))
        _write_rows(path, "kind,value,fold,train_rmse,test_rmse,sparsity", rows)

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
        return write_json(payload, path)


def _scaled_rmse(err: np.ndarray) -> float:
    """Root mean square over outputs of the per-output RMSE of `err`."""
    per_output = np.sqrt(np.mean(err ** 2, axis=0))
    return float(np.sqrt(np.mean(per_output ** 2)))


def _fold_scores(models: list, phi: np.ndarray, targets: np.ndarray,
                 folds: list[tuple[np.ndarray, np.ndarray]]
                 ) -> list[tuple[float, float, float]]:
    """(train RMSE, test RMSE, sparsity) of each model on its own
    (train, test) rows, each output's error scaled by the model's
    train-fold target std.

    One product of the pre-expanded features with every model's K.T
    side by side serves all models and both folds of each: one pass
    over phi (145,704 x 153 on the default corpus: ~0.12 s for six
    models, against ~0.4 s for six products) instead of one per model.
    Each model's column block, and each row of it, equals the product
    of that model alone over those rows.
    """
    preds = phi @ np.concatenate([model.K.T for model in models], axis=1)
    width = targets.shape[1]
    scores = []
    for i, (model, (train, test)) in enumerate(zip(models, folds)):
        pred = preds[:, i * width:(i + 1) * width]
        if model.intercept is not None:
            pred = pred + model.intercept
        err = (pred - targets) / model.standardization.y_scale
        scores.append((_scaled_rmse(err[train]), _scaled_rmse(err[test]), model.sparsity))
    return scores


def _grid_point(value, scores: list[tuple[float, float, float]]) -> GridPoint:
    """A grid point from its per-fold (train RMSE, test RMSE, sparsity)."""
    tr, te, sp = (list(col) for col in zip(*scores))
    return GridPoint(value=value, train_rmse=tr, test_rmse=te, sparsity=sp)


def _report(kind: str, points: list[GridPoint], cfg: SweepConfig) -> SweepReport:
    """The sweep's report, selecting the smallest history length (or the
    largest mu) whose mean test RMSE is within (1 + SELECT_REL_TOL) of
    the best."""
    cutoff = min(pt.mean_test for pt in points) * (1.0 + SELECT_REL_TOL)
    tied = [pt.value for pt in points if pt.mean_test <= cutoff]
    selected = min(tied) if kind == "history" else max(tied)
    return SweepReport(kind=kind, points=points, selected=selected, k=cfg.k, seed=cfg.seed)


def _fit_fold(ds: Dataset, phi: np.ndarray, full: RawMoments, fold: int,
              test: np.ndarray, values: list, mus: list[float], basis: BasisSpec,
              penalty_scale: str) -> list[CoefficientModel]:
    """Fit the rows of `ds` outside `test` at each mu of `mus`, descending,
    each warm-started from the last; `full` holds the raw moments of all
    of (phi, ds.targets). A fit that raises, or whose KKT residual exceeds
    KKT_REL_TOL times its effective mu, raises SweepError(its grid value
    in `values`, fold)."""
    moments = standardize_moments(full - raw_moments(phi[test], ds.targets[test]))
    w0 = None
    models = []
    for value, mu in zip(values, mus):
        try:
            model = fit_from_moments(moments, mu, basis=basis, n_history=ds.n,
                                     penalty_scale=penalty_scale, w0=w0)
        except Exception as err:
            raise SweepError(value, fold, err) from err
        if not model.kkt <= KKT_REL_TOL * model.mu_effective:
            raise SweepError(value, fold, f"KKT residual {model.kkt:.3e} above "
                             f"{KKT_REL_TOL:g} x mu_effective {model.mu_effective:.3e}")
        w0 = model.W_std
        models.append(model)
    return models


def sweep_history(trajectories: list[PlantTrajectory], cfg: SweepConfig,
                  basis: BasisSpec | None = None) -> SweepReport:
    """k-fold CV over history lengths at the fixed per-sample HISTORY_MU.

    The history lengths are the units of work split across processes;
    each assembles the trajectories' rows at its own length, so a
    process holds one length's dataset at a time.
    """
    basis = basis or BasisSpec()

    def history_point(n) -> GridPoint:
        ds = merge([assemble(tr, n) for tr in trajectories])
        phi = expand(ds.inputs, basis)
        full = raw_moments(phi, ds.targets)
        folds = kfold_indices(len(ds), cfg.k, cfg.seed)
        models = [_fit_fold(ds, phi, full, fold, test, [n], [HISTORY_MU], basis,
                            HISTORY_PENALTY_SCALE)[0]
                  for fold, (_, test) in enumerate(folds)]
        return _grid_point(int(n), _fold_scores(models, phi, ds.targets, folds))

    return _report("history", list(fork_map(history_point, cfg.n_grid)), cfg)


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
        models = _fit_fold(dataset, phi, full, fold, folds[fold][1], mu_desc, mu_desc,
                           basis, PENALTY_SCALE)
        return _fold_scores(models, phi, dataset.targets, [folds[fold]] * len(models))

    paths = list(fork_map(fold_path, range(len(folds))))
    return _report("mu", [_grid_point(float(mu), [path[mu_desc.index(mu)] for path in paths])
                          for mu in cfg.mu_grid], cfg)


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
