"""Autoregressive model evaluation against the plant.

`rollout` replays a command trace through a learned model, feeding the
model's own thrust/pressure/mass predictions back into the history
features. Histories are seeded from a true plant prefix (the first n
samples); the current-pressure and inverse-mass inputs, which use the
current sample during training, use the latest available prediction
(one step stale) during rollout since the current outputs are what is
being predicted.

Predicted thrusts are floored at zero and predicted cumulative masses
made non-decreasing outside the learned map; the pre-clamp predictions
are kept so raw model error stays measurable.

The loop keeps every channel in one time-major buffer and gathers each
step's input row with one index precomputed in the `assemble` layout,
so a step costs one gather, one basis expansion and one product with
the coefficients, each written into a preallocated row (see `rollout`
for what that takes per step).

Every `ValidationReport` comes out of one summary of (rows, 7) truth
and prediction matrices: `error_windows` summarizes a rollout against
the plant, `teacher_forced_eval` the one-step-ahead predictions on
`assemble` rows. A rollout that produces a non-finite prediction raises
`RolloutDivergenceError`; the validation suite records it as an
`{"experiment", "diverged_at"}` report and goes on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import (LAMBDA_EPS, LAMBDA_SCALE, TARGET_NAMES, assemble, build_row,
                       lambda_feature)
from .plant import CommandTrace, PlantConfig, PlantTrajectory, write_csv
from .regression import CoefficientModel, expand, predict, rmse


class RolloutDivergenceError(RuntimeError):
    """A rollout produced a non-finite prediction."""

    def __init__(self, sample: int, t: float):
        self.sample = sample
        self.t = t
        super().__init__(f"rollout diverged at sample {sample} (t={t:.2f} s)")


@dataclass
class ValidationReport:
    """Error summary of one validation experiment."""

    experiment: str
    mode: str                        # "rollout" or "teacher_forced"
    n_samples: int
    n_transient: int
    n_steady: int
    rmse: np.ndarray                 # (7,)
    rmse_aggregate: float
    max_err_transient: np.ndarray    # (7,)
    max_err_steady: np.ndarray       # (7,)
    max_thrust_err: float
    max_thrust_err_after_settle: float
    max_thrust_err_per_engine: np.ndarray  # (4,)
    module_mass_max_err: float
    sparsity: float | None = None
    diverged_at: float | None = None   # always None: cmd_validate records divergence
    raw_max_thrust_err: float | None = None

    def to_json(self, path: str | Path | None = None) -> str:
        payload = {
            "experiment": self.experiment,
            "mode": self.mode,
            "n_samples": self.n_samples,
            "n_transient": self.n_transient,
            "n_steady": self.n_steady,
            "rmse": {k: float(v) for k, v in zip(TARGET_NAMES, self.rmse)},
            "rmse_aggregate": self.rmse_aggregate,
            "max_err_transient": {k: float(v) for k, v in
                                  zip(TARGET_NAMES, self.max_err_transient)},
            "max_err_steady": {k: float(v) for k, v in
                               zip(TARGET_NAMES, self.max_err_steady)},
            "max_thrust_err": self.max_thrust_err,
            "max_thrust_err_after_settle": self.max_thrust_err_after_settle,
            "max_thrust_err_per_engine": [float(v) for v in self.max_thrust_err_per_engine],
            "module_mass_max_err": self.module_mass_max_err,
            "sparsity": self.sparsity,
            "diverged_at": self.diverged_at,
            "raw_max_thrust_err": self.raw_max_thrust_err,
        }
        text = json.dumps(payload, sort_keys=True, indent=2)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text


# Columns of the rollout's time-major buffer, one row per sample:
# commanded thrust, delivered thrust, pressure, fuel and oxidizer mass,
# engine status, and lambda of that row's masses.
_TR, _TO, _P, _MF, _MO, _SE, _LAM = 0, 4, 8, 9, 10, 11, 15
_WIDTH = 16


def _gather_index(n: int) -> np.ndarray:
    """Flat offsets into the buffer rows t-n .. t that read sample t's
    input row in the `assemble` layout (built by `build_row` itself)."""
    lag = (n - np.arange(1, n + 1)) * _WIDTH      # rows t-1 .. t-n
    cur = n * _WIDTH                                # row t
    eng = np.arange(4)
    return build_row(cur + _TR + eng, lag[:, None] + _TR + eng, lag[:, None] + _TO + eng,
                     lag[0] + _P, lag + _P, lag + _MF, lag + _MO,
                     cur + _SE + eng, lag[0] + _LAM).astype(np.intp)


def rollout(model: CoefficientModel, trace: CommandTrace,
            warmup: PlantTrajectory, *, collect_raw: bool = False):
    """Multi-step prediction of a command trace.

    All channels live in one time-major buffer; each step gathers its
    input row from the buffer with one precomputed index, applies
    `expand(row, basis) @ K.T` to it, and writes the clamped prediction
    (thrust >= 0, masses non-decreasing) back as the newest history
    sample. The row, its expansion and the prediction live in arrays
    allocated once per rollout, so a step allocates no array data. At
    the default n = 6 and degree-2 basis (76 inputs, 153 columns) a step
    takes ~15 us on a 2-core x86_64 box with numpy 2.4: ~1 us gather,
    ~5.5 us expansion, ~2 us product, the rest Python-level checks,
    clamps and write-back, nearly all of it per-call overhead rather
    than arithmetic.

    Parameters
    ----------
    model : CoefficientModel
        Must carry its history length n.
    trace : CommandTrace
        Commands to replay; must be longer than n samples.
    warmup : PlantTrajectory
        True prefix of at least n samples (normally the plant's own
        response to the same trace); seeds the history buffers and is
        copied verbatim into the first n output samples.
    collect_raw : bool
        Also return the (L, 7) pre-clamp predictions (warm-up rows are
        copied truth).

    Returns
    -------
    PlantTrajectory, or (PlantTrajectory, raw) with collect_raw=True.
    """
    n = model.n
    if n is None:
        raise ValueError("model carries no history length; cannot roll out")
    L = len(trace) + 1
    if L <= n:
        raise ValueError(f"trace too short ({L} rows) for history n={n}")
    if len(warmup) < n:
        raise ValueError(f"warm-up prefix has {len(warmup)} rows, needs {n}")
    index = _gather_index(n)
    predict(model, np.zeros((0, index.size)))   # the model's width checks, once

    commands = np.zeros((L, 4))
    status = np.zeros((L, 4))
    commands[1:] = trace.commands
    status[1:] = trace.status

    buf = np.zeros((L, _WIDTH))
    buf[:, _TR:_TR + 4] = commands
    buf[:, _SE:_SE + 4] = status
    buf[:n, _TO:_TO + 4] = warmup.thrusts[:n]
    buf[:n, _P] = warmup.pressures[:n]
    buf[:n, _MF] = warmup.m_fuel[:n]
    buf[:n, _MO] = warmup.m_ox[:n]
    buf[:n, _LAM] = lambda_feature(buf[:n, _MF], buf[:n, _MO])
    raw = np.zeros((L, 7))
    raw[:n] = buf[:n, _TO:_MO + 1]

    flat = buf.reshape(-1)
    basis, KT, intercept = model.basis, model.K.T, model.intercept
    # One preallocated 2-D row each for the input, its expansion and the
    # prediction, so every product is the same BLAS call as predict's.
    x = np.zeros((1, index.size))
    row = x[0]
    phi = x if basis is None else np.empty((1, basis.width(index.size)))
    y = np.empty((1, KT.shape[1]))
    mf_prev, mo_prev = float(buf[n - 1, _MF]), float(buf[n - 1, _MO])
    for t in range(n, L):
        np.take(flat[(t - n) * _WIDTH:(t + 1) * _WIDTH], index, out=row)
        if basis is not None:
            expand(x, basis, out=phi)
        np.matmul(phi, KT, out=y)
        if intercept is not None:
            y += intercept
        ys = y[0].tolist()
        if not all(map(math.isfinite, ys)):
            raise RolloutDivergenceError(t, t * trace.dt)
        raw[t] = ys
        ys[:4] = [v if v >= 0.0 else 0.0 for v in ys[:4]]
        ys[5] = mf_prev = max(ys[5], mf_prev)
        ys[6] = mo_prev = max(ys[6], mo_prev)
        buf[t, _TO:_MO + 1] = ys
        buf[t, _LAM] = LAMBDA_SCALE / (ys[5] + ys[6] + LAMBDA_EPS)

    traj = PlantTrajectory(dt=trace.dt, commands=commands, status=status,
                           thrusts=buf[:, _TO:_TO + 4].copy(), pressures=buf[:, _P].copy(),
                           m_fuel=buf[:, _MF].copy(), m_ox=buf[:, _MO].copy(),
                           name=(trace.name + "_pred") if trace.name else "pred")
    return (traj, raw) if collect_raw else traj


def _outputs(traj: PlantTrajectory) -> np.ndarray:
    """The (L, 7) output matrix of a trajectory, columns in TARGET_NAMES order."""
    return np.column_stack([traj.thrusts, traj.pressures, traj.m_fuel, traj.m_ox])


def _windows(commands: np.ndarray, dt: float,
             settle_window: float) -> tuple[np.ndarray, int]:
    """Transient mask and settle sample count of a command record.

    A sample is transient when it falls within `settle_window` seconds
    (the settle count, at least one sample) after a command change
    larger than 1 N on any engine; every other sample is steady.
    """
    settle_n = max(int(round(settle_window / dt)), 1)
    L = commands.shape[0]
    disc = np.zeros(L, dtype=bool)
    if L > 1:
        disc[1:] = np.max(np.abs(np.diff(commands, axis=0)), axis=1) > 1.0
    mask = np.zeros(L, dtype=bool)
    for i in np.flatnonzero(disc):
        mask[i:i + settle_n] = True
    return mask, settle_n


def _summarize(true: np.ndarray, pred: np.ndarray, transient: np.ndarray, settle_n: int,
               m_module0: float, *, experiment: str, mode: str, sparsity: float | None,
               raw: np.ndarray | None = None) -> ValidationReport:
    """The error summary of (rows, 7) truth and prediction matrices.

    Per-output RMSE, maximum errors over the transient and the steady
    rows, the thrust error overall, after the first settle_n rows and per
    engine, and the module mass error, with the module mass taken as
    m_module0 - (m_fuel + m_ox) on both sides. `raw` holds pre-clamp
    predictions, whose maximum thrust error is reported beside.
    """
    per_rmse, aggregate = rmse(pred, true)
    abs_err = np.abs(pred - true)
    steady = ~transient
    thrust_abs = abs_err[:, :4]
    after = thrust_abs[settle_n:] if len(true) > settle_n else thrust_abs
    mass_err = np.abs((m_module0 - (true[:, 5] + true[:, 6]))
                      - (m_module0 - (pred[:, 5] + pred[:, 6])))
    raw_max = None if raw is None else float(np.max(np.abs(raw[:, :4] - true[:, :4])))
    return ValidationReport(
        experiment=experiment, mode=mode, n_samples=len(true),
        n_transient=int(transient.sum()), n_steady=int(steady.sum()),
        rmse=per_rmse, rmse_aggregate=aggregate,
        max_err_transient=abs_err[transient].max(axis=0) if transient.any() else np.zeros(7),
        max_err_steady=abs_err[steady].max(axis=0) if steady.any() else np.zeros(7),
        max_thrust_err=float(thrust_abs.max()),
        max_thrust_err_after_settle=float(after.max()),
        max_thrust_err_per_engine=thrust_abs.max(axis=0),
        module_mass_max_err=float(np.max(mass_err)), sparsity=sparsity,
        raw_max_thrust_err=raw_max)


def error_windows(traj_true: PlantTrajectory, traj_pred: PlantTrajectory,
                  settle_window: float = 1.0, *, cfg: PlantConfig, experiment: str = "",
                  sparsity: float | None = None,
                  raw: np.ndarray | None = None) -> ValidationReport:
    """Summarize a rollout against the plant's own response.

    Both trajectories are compared sample for sample, warm-up rows
    included. The transient window covers `settle_window` seconds after
    every commanded step larger than 1 N; the rest is steady. The module
    mass is cfg.m_module0 - (m_fuel + m_ox), as `plant.module_mass`
    defines it. `raw`, the (L, 7) pre-clamp predictions that `rollout`
    collects, adds the raw maximum thrust error.
    """
    if len(traj_true) != len(traj_pred):
        raise ValueError("trajectories are not aligned")
    transient, settle_n = _windows(traj_true.commands, traj_true.dt, settle_window)
    return _summarize(_outputs(traj_true), _outputs(traj_pred), transient, settle_n,
                      cfg.m_module0, experiment=experiment, mode="rollout",
                      sparsity=sparsity, raw=raw)


def teacher_forced_eval(model: CoefficientModel, traj: PlantTrajectory, *,
                        cfg: PlantConfig, experiment: str = "",
                        settle_window: float = 1.0) -> ValidationReport:
    """One-step-ahead errors with true histories at every step.

    The model predicts every `assemble` row of the trajectory (samples
    n onward), and the predictions are summarized against their targets
    as `error_windows` summarizes a rollout, over those rows only. The
    after-settle error starts at the same sample as in `error_windows`.
    """
    ds = assemble(traj, model.n)
    transient, settle_n = _windows(traj.commands, traj.dt, settle_window)
    return _summarize(ds.targets, predict(model, ds.inputs), transient[model.n:],
                      max(settle_n - model.n, 0), cfg.m_module0, experiment=experiment,
                      mode="teacher_forced", sparsity=model.sparsity)


def descent_profile(dt: float = 0.01) -> CommandTrace:
    """Bundled ~1000 s powered-descent command profile.

    Synthetic but representative, sized for the default plant so the
    module mass stays comfortably positive and the feed system stays
    in its regulated regime:

      1.   0-2 s    ignition: all four engines light at 320 N
      2.   2-10 s   throttle-up ramp to the 800 N braking setting
      3.  10-100 s  braking: all four engines at 800 N
      4. 100-160 s  throttle-down ramp: 800 -> 450 N on all engines
      5. 160-168 s  engines 2/4 ramp to minimum thrust, 1/3 to 460 N
      6. 168-650 s  approach on engines 1/3 at 460 N, 2/4 shut down
      7. 650-900 s  terminal let-down: engines 1/3 at 370 N
      8. 900-950 s  final ramp 370 -> 240 N on engines 1/3
      9. 950-1000 s hold at 240 N until cutoff
    """
    def seg(duration, lvl13, lvl24):
        m = int(round(duration / dt))
        cmd = np.zeros((m, 4))
        st = np.zeros((m, 4))
        for cols, lvl in (((0, 2), lvl13), ((1, 3), lvl24)):
            if lvl is None:
                continue
            vals = np.full(m, float(lvl)) if np.isscalar(lvl) \
                else np.linspace(lvl[0], lvl[1], m)
            for j in cols:
                cmd[:, j] = vals
                st[:, j] = 1.0
        return cmd, st

    parts = [
        seg(2.0, 320.0, 320.0),
        seg(8.0, (320.0, 800.0), (320.0, 800.0)),
        seg(90.0, 800.0, 800.0),
        seg(60.0, (800.0, 450.0), (800.0, 450.0)),
        seg(8.0, (450.0, 460.0), (450.0, 240.0)),
        seg(482.0, 460.0, None),
        seg(250.0, 370.0, None),
        seg(50.0, (370.0, 240.0), None),
        seg(50.0, 240.0, None),
    ]
    commands = np.concatenate([p[0] for p in parts])
    status = np.concatenate([p[1] for p in parts])
    return CommandTrace(dt=dt, commands=commands, status=status, name="descent")


def timeseries_csv(traj_true: PlantTrajectory, traj_pred: PlantTrajectory,
                   path: str | Path) -> None:
    """Plot-ready flat CSV: time, truth, prediction and error per output."""
    cols = {"t": traj_true.t}
    true_mat, pred_mat = _outputs(traj_true), _outputs(traj_pred)
    for i, label in enumerate(TARGET_NAMES):
        cols[label] = true_mat[:, i]
        cols[f"{label}_pred"] = pred_mat[:, i]
        cols[f"{label}_err"] = pred_mat[:, i] - true_mat[:, i]
    write_csv(path, ",".join(cols), list(cols.values()))


__all__ = [
    "ValidationReport", "RolloutDivergenceError",
    "rollout", "teacher_forced_eval", "error_windows",
    "descent_profile", "timeseries_csv",
]
