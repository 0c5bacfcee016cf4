"""Cross-validated hyperparameter sweeps: history length and L1 weight.

Fold errors are reported on a unit-free scale: per-output RMSE divided
by the training fold's target standard deviation, aggregated as a root
mean square over the seven outputs. Thrust, pressure and mass errors
would otherwise be incomparable (newtons vs pascals vs kilograms).

Selection treats grid points whose mean test RMSE lies within a small
relative tolerance of the minimum as tied, then prefers the cheaper
model: the smallest history length, or the largest (sparsest) mu.

Both sweeps run their independent units of work on every usable CPU
(the affinity set of the process): `sweep_history` one history length
per unit, `sweep_mu` one fold per unit, each fold's warm-started mu
path staying sequential. Units are dealt round-robin to the calling
process and to children forked for the call, which read the caller's
feature matrix and moments in place and send back only their scores.
A unit is computed by the same code, on the same data, wherever it
runs, and results are collected in unit order, so a report is
byte-identical whatever the number of workers; the error raised is
that of the first failing (grid point, fold) in serial order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .features import Dataset, kfold_indices
from .regression import (BasisSpec, expand, fit_from_moments, raw_moments,
                         standardize_moments)


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


def _default_mu_grid() -> tuple:
    return tuple(np.logspace(-5.0, 0.0, 11))


@dataclass
class SweepConfig:
    n_grid: tuple = tuple(range(1, 11))
    mu_grid: tuple = field(default_factory=_default_mu_grid)
    k: int = 5
    seed: int = 0
    # Relative tie window around the best mean test RMSE: grid points
    # within 5% count as ties and the cheaper model wins. The CV curves
    # here have long flat tails (each extra lag keeps buying a percent
    # or so), so a strict argmin would always pick the largest model.
    select_rel_tol: float = 0.05
    # Fixed mu for the history sweep, applied per sample ("rows"): a
    # moderate penalty keeps lag selection from being confounded by
    # either heavy sparsification or unregularized fit noise.
    history_mu: float = 1e-3
    history_penalty_scale: str = "rows"
    # The mu grid itself uses the sqrt(N)-calibrated convention so the
    # printed 1e-5..1e0 range traverses dense to heavily-pruned fits
    # regardless of corpus size.
    penalty_scale: str = "sqrt-rows"
    max_sweeps: int = 3000
    tol: float = 1e-8
    # residual-stall stopping for near-collinear corpus designs
    obj_rel_tol: float = 1e-6

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
    pred = phi @ model.K.T
    if model.intercept is not None:
        pred = pred + model.intercept
    err = (pred - targets) / model.standardization.y_scale
    return _scaled_rmse(err[train]), _scaled_rmse(err[test]), model.sparsity


def _grid_point(value, scores: list[tuple[float, float, float]]) -> GridPoint:
    """A grid point from its per-fold (train RMSE, test RMSE, sparsity)."""
    tr, te, sp = (list(col) for col in zip(*scores))
    return GridPoint(value=value, train_rmse=tr, test_rmse=te, sparsity=sp)


def _run_share(fn, tasks: list, first: int, stride: int) -> list[tuple[bool, object]]:
    """(ok, result or exception) of tasks first, first + stride, ...,
    ending at the first task that raises."""
    share = []
    for task in tasks[first::stride]:
        try:
            share.append((True, fn(task)))
        except Exception as err:
            share.append((False, err))
            break
    return share


def _send_share(fn, tasks: list, first: int, stride: int, conn) -> None:
    conn.send(_run_share(fn, tasks, first, stride))
    conn.close()


def _fork_map(fn, tasks: list) -> list:
    """[fn(task) for task in tasks], spread over the usable CPUs.

    With W = min(len(tasks), usable CPUs) workers, worker w runs tasks
    w, w + W, w + 2W, ...: the calling process is worker 0, and
    workers 1..W-1 are children forked for this call, which see the
    caller's arrays and module state without pickling and send back
    only their results. Each task is computed by the same code whatever
    W is, so the results do not depend on it. Errors are raised in task
    order: the exception of the earliest failing task, which is the
    first failure a serial run would meet. With one worker, or where
    fork is unavailable, every task runs in the calling process.
    """
    import multiprocessing  # here, so importing the package does not pay for it

    workers = 1
    if hasattr(os, "sched_getaffinity") and "fork" in multiprocessing.get_all_start_methods():
        workers = min(len(tasks), len(os.sched_getaffinity(0)))
    procs = []
    try:
        if workers > 1:
            ctx = multiprocessing.get_context("fork")
            for w in range(1, workers):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_send_share, args=(fn, tasks, w, workers, send),
                                   name=f"sweep-{w}", daemon=True)
                proc.start()
                send.close()
                procs.append((proc, recv))
        shares = [_run_share(fn, tasks, 0, workers)]
        for proc, recv in procs:
            try:
                shares.append(recv.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(f"sweep worker {proc.name} exited with code "
                                   f"{proc.exitcode} before sending its results") from None
    except BaseException:
        for proc, _ in procs:
            proc.terminate()
        raise
    finally:
        for proc, recv in procs:
            recv.close()
            proc.join()
    results = []
    for i in range(len(tasks)):
        ok, value = shares[i % workers][i // workers]
        if not ok:
            raise value
        results.append(value)
    return results


def _select(values, mean_tests, rel_tol: float, prefer_small: bool):
    """Smallest (or largest) grid value within (1+rel_tol) of the best RMSE."""
    mean_tests = np.asarray(mean_tests, dtype=float)
    cutoff = mean_tests.min() * (1.0 + rel_tol)
    tied = [v for v, r in zip(values, mean_tests) if r <= cutoff]
    return min(tied) if prefer_small else max(tied)


def sweep_history(datasets: dict[int, Dataset], mu: float, cfg: SweepConfig,
                  basis: BasisSpec | None = None) -> SweepReport:
    """k-fold CV over history lengths at a fixed (per-sample) mu.

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
                    m_train, mu, basis=basis, n_history=n,
                    penalty_scale=cfg.history_penalty_scale,
                    max_sweeps=cfg.max_sweeps,
                    tol=cfg.tol, obj_rel_tol=cfg.obj_rel_tol)
            except Exception as err:
                raise SweepError(n, fold, err) from err
            scores.append(_fold_scores(model, phi, ds.targets, train, test))
        return _grid_point(int(n), scores)

    points = _fork_map(history_point, list(cfg.n_grid))
    selected = _select([pt.value for pt in points],
                       [pt.mean_test for pt in points],
                       cfg.select_rel_tol, prefer_small=True)
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
                    penalty_scale=cfg.penalty_scale, max_sweeps=cfg.max_sweeps,
                    tol=cfg.tol, obj_rel_tol=cfg.obj_rel_tol, w0=w0)
            except Exception as err:
                raise SweepError(mu, fold, err) from err
            w0 = model.W_std
            path.append(_fold_scores(model, phi, dataset.targets, train, test))
        return path

    paths = _fork_map(fold_path, list(range(len(folds))))
    points = [_grid_point(float(mu), [path[mu_desc.index(mu)] for path in paths])
              for mu in cfg.mu_grid]
    selected = _select([pt.value for pt in points],
                       [pt.mean_test for pt in points],
                       cfg.select_rel_tol, prefer_small=False)
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
    "SweepConfig", "SweepReport", "GridPoint", "SweepError",
    "sweep_history", "sweep_mu", "pareto_table", "pareto_to_csv",
]
