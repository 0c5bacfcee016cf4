"""Autoregressive model evaluation against the plant.

`rollout` replays a command trace through a learned model, feeding the
model's own thrust/pressure/mass predictions back into the history
features. Histories are seeded from a true plant prefix (the first n
samples). The standalone inverse-mass input holds the previous sample,
in training and rollout alike; in rollout that is the model's own
previous prediction, since the current outputs are what is being
predicted.

Predicted thrusts are floored at zero and predicted cumulative masses
made non-decreasing outside the learned map; the pre-clamp predictions
are kept so raw model error stays measurable.

The input layout is written once, in `features`: the loop keeps every
channel and its powers in a time-major buffer, and scatters the
coefficients once through the gather index `assemble` uses, so they act
on a step's history window as it lies in the buffer. A step is one
product of those coefficients with the window, for every basis, with no
gather and no expansion (see `rollout` for what that takes per step).
The clamp counts of a rollout are taken after its loop, from the raw
and the clamped predictions, so they cost a step nothing.

Every `ValidationReport` comes out of one summary of the (rows, 7)
truth and prediction outputs: `error_windows` summarizes a rollout
against the plant, `teacher_forced_eval` the one-step-ahead predictions
on `assemble` rows. A rollout that produces a non-finite prediction raises
`RolloutDivergenceError`; the validation suite records it as an
`{"experiment", "diverged_at"}` report and goes on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import isfinite
from operator import mul
from pathlib import Path

import numpy as np

from .excitation import _segments_trace
from .features import (_WIDTH, LAMBDA_EPS, LAMBDA_SCALE, TARGET_NAMES, _buffer,
                       _gather_index, _input_windows, assemble, input_width)
from .plant import CommandTrace, PlantConfig, PlantTrajectory, write_csv, write_json
from .regression import CoefficientModel, _rms, predict


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
    # engine-samples where the thrust floor changed the raw prediction, by
    # that engine's status, and samples of either mass the clamp changed
    thrust_floor_on: int | None = None
    thrust_floor_off: int | None = None
    mass_clamps: int | None = None

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


def _window_coefficients(model: CoefficientModel, degree: int) -> np.ndarray:
    """The (7, (n+1) * width) coefficients that act on a rollout buffer
    window (rows t-n .. t, `width` columns each) as K acts on the
    expansion of sample t's input row: K scattered through the gather
    index, each power of an input to its slot and the bias to row t's
    constant one. The index reads no offset twice, so no two
    coefficients share a slot.

    A rollout buffer row holds the `features` buffer's two groups of 8
    columns (the outputs and lambda, which a step writes as one run, then
    the commands and status), each with its powers 1..degree, power-major,
    then the constant one: power k of column c is at
    c // 8 * 8 * degree + 8 * (k - 1) + c % 8."""
    n, K = model.n, model.K
    width = _WIDTH * degree + 1
    rows, cols = np.divmod(_gather_index(n), _WIDTH)
    slots = rows * width + cols // 8 * 8 * degree + cols % 8
    p, lo = rows.size, 0 if model.basis is None else 1
    keff = np.zeros((K.shape[0], (n + 1) * width))
    for k in range(degree):
        keff[:, slots + 8 * k] = K[:, lo + k * p:lo + (k + 1) * p]
    if lo:
        keff[:, -1] = K[:, 0]
    return keff


def rollout(model: CoefficientModel, trace: CommandTrace,
            warmup: PlantTrajectory) -> tuple[PlantTrajectory, np.ndarray]:
    """Multi-step prediction of a command trace.

    Every channel and its powers 1..degree live in one time-major buffer,
    the `features` buffer's powers plus a constant one, whose rows
    t-n .. t are the window that sample t's input row is gathered from.
    The gather and the expansion are folded into the coefficients once
    per rollout (`_window_coefficients`), so a step is one product of
    those coefficients with the window, a read-only view of the buffer,
    written straight into its row of the raw output. The clamped
    prediction (thrust >= 0, masses non-decreasing), its lambda and their
    powers go back as the newest history sample. Each prediction is
    `predict` on the `assemble` row of the rollout's own output, up to
    reassociation of its sum.
    A step allocates no array data. At the default n = 6 and degree-2
    basis the product is (7, 231) by 231; the rest runs on Python floats:
    a finiteness check of the seven values' sum, clamps with no `max`
    call, powers, and one `struct` pack of the row into the buffer, ~2.7
    us per descent step where `max` and a numpy row write took ~3.6 us
    (one process, 2-CPU x86_64 box, OpenBLAS on one thread).

    Parameters
    ----------
    model : CoefficientModel
        Must carry its history length n, and the trace's step if any.
    trace : CommandTrace
        Commands to replay; must be longer than n samples.
    warmup : PlantTrajectory
        True prefix of at least n samples (normally the plant's own
        response to the same trace); its first n rows, the only ones
        read (and checked for a negative ejected mass), seed the history
        buffers and are copied verbatim into the first n output samples.

    Returns
    -------
    (PlantTrajectory, raw): the clamped prediction, whose two matrices
    are copies that own their data (so the buffer is freed on return),
    and the (L, 7) pre-clamp predictions (warm-up rows are copied truth).
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
    predict(model, np.zeros((0, input_width(n))))   # the model's width checks, once
    degree = 1 if model.basis is None else model.basis.degree

    buf = np.zeros((L, _WIDTH * degree + 1))
    powers = buf[:, :-1].reshape(L, 2, degree, 8)   # [:, g, k - 1]: group g at power k
    sample, inputs = powers[:, 0, 0], powers[:, 1, 0]
    inputs[1:, :4] = trace.commands
    inputs[1:, 4:] = trace.status
    sample[:n] = _buffer(warmup, n)[:, :8]
    for k in range(1, degree):
        np.multiply(powers[:, :, k - 1], powers[:, :, 0], out=powers[:, :, k])
    buf[:, -1] = 1.0
    raw = np.zeros((L, 7))
    raw[:n] = sample[:n, :7]

    keff = _window_coefficients(model, degree)
    windows = _input_windows(buf, n)
    pack, stride = struct.Struct(f"{8 * degree}d").pack_into, buf.strides[0]
    rows = buf.data.cast("B")   # a step packs its row's values into these bytes
    higher = range(1, degree)
    mf_prev, mo_prev = float(sample[n - 1, 5]), float(sample[n - 1, 6])
    # A power that overflows to inf makes the next product non-finite,
    # which the finiteness check reports as divergence, not as a warning.
    with np.errstate(invalid="ignore", over="ignore"):
        for t, window, y in zip(range(n, L), windows, raw[n:]):
            keff.dot(window, out=y)   # the method skips np.dot's dispatch
            ys = y.tolist()
            # a finite sum has finite terms; only an overflowing one is looked into
            if not isfinite(sum(ys)) and not all(map(isfinite, ys)):
                raise RolloutDivergenceError(t, t * trace.dt)
            t1, t2, t3, t4, pressure, mf, mo = ys
            t1, t2, t3, t4 = (t1 if t1 >= 0.0 else 0.0, t2 if t2 >= 0.0 else 0.0,
                              t3 if t3 >= 0.0 else 0.0, t4 if t4 >= 0.0 else 0.0)
            # max(m, m_prev) with no call: m on a tie, so -0.0 after 0.0 stays -0.0
            mf_prev, mo_prev = (mf_prev if mf_prev > mf else mf, mo_prev if mo_prev > mo else mo)
            lam = LAMBDA_SCALE / (mf_prev + mo_prev + LAMBDA_EPS)
            # powers by repeated products, as the fill above takes them; a
            # product overflows to inf where `**` would raise
            row = power = values = [t1, t2, t3, t4, pressure, mf_prev, mo_prev, lam]
            for _ in higher:
                power = list(map(mul, power, values))
                row = row + power
            pack(rows, t * stride, *row)

    name = (trace.name + "_pred") if trace.name else "pred"
    return PlantTrajectory(trace.dt, inputs.copy(), sample[:, :7].copy(), name), raw


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


def _summarize(true: np.ndarray, pred: np.ndarray, transient: np.ndarray,
               settle_n: int, m_module0: float, *, experiment: str, mode: str,
               sparsity: float | None, raw: np.ndarray | None = None,
               status: np.ndarray | None = None) -> ValidationReport:
    """The error summary of the (rows, 7) truth and prediction outputs,
    in TARGET_NAMES order.

    Per-output RMSE, maximum errors over the transient and the steady
    rows, the thrust error overall, after the first settle_n rows and per
    engine, and the module mass error, with the module mass taken as
    m_module0 - (m_fuel + m_ox) on both sides. `raw` holds (rows, 7)
    pre-clamp predictions, whose maximum thrust error is reported beside,
    and the clamp counts: each prediction the clamps changed, the thrusts
    split by the (rows, 4) engine `status`. The errors pred - true go
    into one (rows, 7) array, squared for the RMSE, then made absolute in
    place.
    """
    err = pred - true
    per_rmse, aggregate = _rms(err)
    abs_err = np.abs(err, out=err)
    steady = ~transient
    thrust_abs = abs_err[:, :4]
    after = thrust_abs[settle_n:] if len(abs_err) > settle_n else thrust_abs
    mass_err = np.abs((m_module0 - (true[:, 5] + true[:, 6]))
                      - (m_module0 - (pred[:, 5] + pred[:, 6])))
    clamps = {}
    if raw is not None:
        floored, on = pred[:, :4] != raw[:, :4], status > 0
        clamps = dict(raw_max_thrust_err=float(np.max(np.abs(raw[:, :4] - true[:, :4]))),
                      thrust_floor_on=int(np.count_nonzero(floored & on)),
                      thrust_floor_off=int(np.count_nonzero(floored & ~on)),
                      mass_clamps=int(np.count_nonzero(pred[:, 5:] != raw[:, 5:])))
    return ValidationReport(
        experiment=experiment, mode=mode, n_samples=len(abs_err),
        n_transient=int(transient.sum()), n_steady=int(steady.sum()),
        rmse=per_rmse, rmse_aggregate=aggregate,
        max_err_transient=np.max(abs_err, axis=0, where=transient[:, None], initial=0.0),
        max_err_steady=np.max(abs_err, axis=0, where=steady[:, None], initial=0.0),
        max_thrust_err=float(thrust_abs.max()),
        max_thrust_err_after_settle=float(after.max()),
        max_thrust_err_per_engine=thrust_abs.max(axis=0),
        module_mass_max_err=float(np.max(mass_err)), sparsity=sparsity, **clamps)


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
    returns, adds the raw maximum thrust error and the clamp counts.
    ValueError when the two differ in length or in step.
    """
    if len(traj_true) != len(traj_pred):
        raise ValueError("trajectories are not aligned")
    if traj_true.dt != traj_pred.dt:
        raise ValueError(f"true trajectory step {traj_true.dt} s differs from predicted "
                         f"trajectory step {traj_pred.dt} s")
    transient, settle_n = _windows(traj_true.commands, traj_true.dt, settle_window)
    return _summarize(traj_true.outputs, traj_pred.outputs, transient, settle_n,
                      cfg.m_module0, experiment=experiment, mode="rollout",
                      sparsity=sparsity, raw=raw, status=traj_pred.status)


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
    return _summarize(ds.targets, predict(model, ds.inputs),
                      transient[model.n:], max(settle_n - model.n, 0), cfg.m_module0,
                      experiment=experiment, mode="teacher_forced", sparsity=model.sparsity)


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


def _timeseries_columns(traj_true: PlantTrajectory, traj_pred: PlantTrajectory):
    """Time, then truth and prediction per output: `t, To1, To1_pred, ..., mo_pred`."""
    names = ["t"] + [f"{label}{suffix}" for label in TARGET_NAMES for suffix in ("", "_pred")]
    pairs = zip(traj_true.outputs.T, traj_pred.outputs.T)
    return names, [traj_true.t, *(column for pair in pairs for column in pair)]


def timeseries_csv(traj_true: PlantTrajectory, traj_pred: PlantTrajectory,
                   path: str | Path) -> None:
    """Plot-ready flat CSV, the text export of a `validate` time series."""
    names, columns = _timeseries_columns(traj_true, traj_pred)
    write_csv(path, ",".join(names), columns)


__all__ = [
    "ValidationReport", "RolloutDivergenceError",
    "rollout", "teacher_forced_eval", "error_windows",
    "descent_profile", "timeseries_csv",
]
