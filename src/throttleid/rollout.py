"""Autoregressive model evaluation against the plant.

`rollout` replays a command trace through a learned model, feeding the
model's own thrust/pressure/mass predictions back into the history
features. Histories are seeded from a true plant prefix (the first n
samples). The standalone pressure and inverse-mass inputs hold the
previous sample, in training and rollout alike; in rollout that is the
model's own previous prediction, since the current outputs are what is
being predicted.

Predicted thrusts are floored at zero and predicted cumulative masses
made non-decreasing outside the learned map; the pre-clamp predictions
are kept so raw model error stays measurable.

The input layout is written once, in `features`: the loop keeps every
channel and its square in a time-major buffer and reads each step's
input row through the gather index `assemble` uses. With the default
degree-2 basis a step costs one gather, which reads the squares too,
and one product with the coefficients, each written into a
preallocated row (see `rollout` for what that takes per step).

Every `ValidationReport` comes out of one summary of (rows, 7) truth
and prediction matrices: `error_windows` summarizes a rollout against
the plant, `teacher_forced_eval` the one-step-ahead predictions on
`assemble` rows. A rollout that produces a non-finite prediction raises
`RolloutDivergenceError`; the validation suite records it as an
`{"experiment", "diverged_at"}` report and goes on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .excitation import _segments_trace
from .features import (_LAM, _MF, _MO, _P, _SE, _TO, _TR, _WIDTH, LAMBDA_EPS, LAMBDA_SCALE,
                       TARGET_NAMES, _gather_index, _input_windows, _outputs, assemble,
                       lambda_feature)
from .plant import CommandTrace, PlantConfig, PlantTrajectory, write_csv, write_json
from .regression import CoefficientModel, expand, predict, rmse


class RolloutDivergenceError(RuntimeError):
    """A rollout produced a non-finite prediction."""

    def __init__(self, sample: int, t: float):
        self.sample = sample
        self.t = t
        super().__init__(f"rollout diverged at sample {sample} (t={t:.2f} s)")

    def __reduce__(self):
        return type(self), (self.sample, self.t)


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
    raw_max_thrust_err: float | None = None

    def to_json(self, path: str | Path | None = None) -> str:
        """The report as artifact JSON: every field under its own name, the
        three per-output arrays keyed by TARGET_NAMES, the per-engine one
        as a list, and "diverged_at" null (a diverged rollout gets
        cmd_validate's record instead)."""
        payload = dict(vars(self), diverged_at=None,
                       max_thrust_err_per_engine=self.max_thrust_err_per_engine.tolist())
        for name in ("rmse", "max_err_transient", "max_err_steady"):
            payload[name] = dict(zip(TARGET_NAMES, getattr(self, name).tolist()))
        return write_json(payload, path)


def rollout(model: CoefficientModel, trace: CommandTrace,
            warmup: PlantTrajectory) -> tuple[PlantTrajectory, np.ndarray]:
    """Multi-step prediction of a command trace.

    All channels live in one time-major buffer that carries each value's
    square beside it. Each step gathers its input row from the buffer
    with one precomputed index (`_gather_index`) straight into the
    expansion row, applies `@ K.T` to it, and writes the clamped
    prediction (thrust >= 0, masses non-decreasing) and its squares back
    as the newest history sample. With the default degree-2 basis the
    gather, read at the value and at the square offsets, fills the whole
    row: the squares are those `expand` computes (`np.power(x, 2)` is
    `x * x` bitwise). With no basis or a degree-1 one the gather reads
    the values alone and fills the whole row as well; a degree above 2
    expands the gathered values again (`expand`). The expansion row is
    allocated once per rollout and each prediction is written straight
    into its row of the raw output, so up to degree 2 a step allocates
    no array data.
    At the default n = 6 and degree-2 basis (76 inputs, 153 columns) a
    step costs a gather of 152 values and a product with the
    coefficients, plus the Python-level finiteness check, clamps and
    squares on scalars and one row write, nearly all of it per-call
    overhead rather than arithmetic.

    Parameters
    ----------
    model : CoefficientModel
        Must carry its history length n, and the trace's step if any.
    trace : CommandTrace
        Commands to replay; must be longer than n samples.
    warmup : PlantTrajectory
        True prefix of at least n samples (normally the plant's own
        response to the same trace); seeds the history buffers and is
        copied verbatim into the first n output samples.

    Returns
    -------
    (PlantTrajectory, raw): the clamped prediction, and the (L, 7)
    pre-clamp predictions (warm-up rows are copied truth).
    """
    n = model.n
    if n is None:
        raise ValueError("model carries no history length; cannot roll out")
    if model.dt is not None and model.dt != trace.dt:
        raise ValueError(f"model fitted at step {model.dt} s cannot roll out a trace "
                         f"at step {trace.dt} s")
    L = len(trace) + 1
    if L <= n:
        raise ValueError(f"trace too short ({L} rows) for history n={n}")
    if len(warmup) < n:
        raise ValueError(f"warm-up prefix has {len(warmup)} rows, needs {n}")
    index = _gather_index(n)
    predict(model, np.zeros((0, index.size)))   # the model's width checks, once
    basis = model.basis

    # Each channel's square sits beside its value: [..., 0] the value,
    # [..., 1] the square.
    pairs = np.zeros((L, _WIDTH, 2))
    buf = pairs[..., 0]
    buf[1:, _TR:_TR + 4] = trace.commands
    buf[1:, _SE:_SE + 4] = trace.status
    buf[:n, _TO:_TO + 4] = warmup.thrusts[:n]
    buf[:n, _P] = warmup.pressures[:n]
    buf[:n, _MF] = warmup.m_fuel[:n]
    buf[:n, _MO] = warmup.m_ox[:n]
    buf[:n, _LAM] = lambda_feature(buf[:n, _MF], buf[:n, _MO])
    np.power(buf, 2, out=pairs[..., 1])
    raw = np.zeros((L, 7))
    raw[:n] = buf[:n, _TO:_MO + 1]

    windows = _input_windows(pairs, n)
    KT = model.K.T
    # The expansion and each prediction are 2-D rows, so every product is
    # the same BLAS call as predict's; the prediction's row is its (1, 7)
    # row of `raw`. Each step gathers its input straight into the
    # expansion's linear slot, and with the default basis its squares
    # into the slot after it; the bias column is written once. The
    # clamped sample and its lambda, each beside its square, go into the
    # buffer's adjacent output and lambda columns with one assignment.
    lo = 0 if basis is None else 1
    squares = basis is not None and basis.degree == 2
    take = np.concatenate([2 * index, 2 * index + 1]) if squares else 2 * index
    phi = np.empty((1, index.size if basis is None else basis.width(index.size)))
    phi[:, :lo] = 1.0
    row = phi[0, lo:lo + take.size]
    expand_rest = phi.shape[1] > lo + take.size   # powers the gather leaves (degree > 2)
    raw_rows = raw.reshape(L, 1, 7)
    out_rows = pairs.reshape(L, 2 * _WIDTH)[:, 2 * _TO:2 * (_LAM + 1)]
    mf_prev, mo_prev = float(buf[n - 1, _MF]), float(buf[n - 1, _MO])
    for t in range(n, L):
        # "clip": the index is in range, and the default "raise" buffers `out`
        np.take(windows[t - n], take, out=row, mode="clip")
        if expand_rest:
            phi[0] = expand(row, basis)
        y = raw_rows[t]
        np.matmul(phi, KT, out=y)
        ys = y.tolist()[0]
        if not all(map(math.isfinite, ys)):
            raise RolloutDivergenceError(t, t * trace.dt)
        t1, t2, t3, t4, pressure, mf, mo = ys
        t1, t2, t3, t4 = (t1 if t1 >= 0.0 else 0.0, t2 if t2 >= 0.0 else 0.0,
                          t3 if t3 >= 0.0 else 0.0, t4 if t4 >= 0.0 else 0.0)
        mf_prev, mo_prev = max(mf, mf_prev), max(mo, mo_prev)
        lam = LAMBDA_SCALE / (mf_prev + mo_prev + LAMBDA_EPS)
        # a list converts faster than a tuple
        out_rows[t] = [t1, t1 * t1, t2, t2 * t2, t3, t3 * t3, t4, t4 * t4,
                       pressure, pressure * pressure, mf_prev, mf_prev * mf_prev,
                       mo_prev, mo_prev * mo_prev, lam, lam * lam]

    traj = PlantTrajectory(dt=trace.dt, commands=buf[:, _TR:_TR + 4].copy(),
                           status=buf[:, _SE:_SE + 4].copy(),
                           thrusts=buf[:, _TO:_TO + 4].copy(), pressures=buf[:, _P].copy(),
                           m_fuel=buf[:, _MF].copy(), m_ox=buf[:, _MO].copy(),
                           name=(trace.name + "_pred") if trace.name else "pred")
    return traj, raw


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
    returns, adds the raw maximum thrust error.
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


def descent_profile(dt: float) -> CommandTrace:
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

    Each phase is a (seconds, level 1/3, level 2/4) segment: a (start,
    end) level is a linear ramp and 0 shuts the pair down.
    """
    return _segments_trace([
        (2.0, 320.0, 320.0),
        (8.0, (320.0, 800.0), (320.0, 800.0)),
        (90.0, 800.0, 800.0),
        (60.0, (800.0, 450.0), (800.0, 450.0)),
        (8.0, (450.0, 460.0), (450.0, 240.0)),
        (482.0, 460.0, 0.0),
        (250.0, 370.0, 0.0),
        (50.0, (370.0, 240.0), 0.0),
        (50.0, 240.0, 0.0),
    ], dt, "descent")


def timeseries_csv(traj_true: PlantTrajectory, traj_pred: PlantTrajectory,
                   path: str | Path) -> None:
    """Plot-ready flat CSV: time, then truth and prediction per output."""
    cols = {"t": traj_true.t}
    true_mat, pred_mat = _outputs(traj_true), _outputs(traj_pred)
    for i, label in enumerate(TARGET_NAMES):
        cols[label] = true_mat[:, i]
        cols[f"{label}_pred"] = pred_mat[:, i]
    write_csv(path, ",".join(cols), list(cols.values()))


__all__ = [
    "ValidationReport", "RolloutDivergenceError",
    "rollout", "teacher_forced_eval", "error_windows",
    "descent_profile", "timeseries_csv",
]
