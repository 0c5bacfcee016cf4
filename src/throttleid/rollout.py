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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import plant as plant_mod
from .features import TARGET_NAMES, assemble, build_row, lambda_feature
from .plant import CommandTrace, PlantConfig, PlantTrajectory
from .regression import CoefficientModel, predict


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
    diverged_at: float | None = None
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


def rollout(model: CoefficientModel, trace: CommandTrace,
            warmup: PlantTrajectory, *, clamp: bool = True,
            collect_raw: bool = False):
    """Multi-step prediction of a command trace.

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
    clamp : bool
        Apply the documented post-processing (thrust >= 0, masses
        non-decreasing) to fed-back and reported values.
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

    commands = np.zeros((L, 4))
    status = np.zeros((L, 4))
    commands[1:] = trace.commands
    status[1:] = trace.status

    th = np.zeros((L, 4))
    pr = np.zeros(L)
    mf = np.zeros(L)
    mo = np.zeros(L)
    th[:n] = warmup.thrusts[:n]
    pr[:n] = warmup.pressures[:n]
    mf[:n] = warmup.m_fuel[:n]
    mo[:n] = warmup.m_ox[:n]
    raw = np.zeros((L, 7))
    raw[:n] = np.column_stack([th[:n], pr[:n], mf[:n], mo[:n]])

    for t in range(n, L):
        # histories run newest first: samples t-1 .. t-n
        lo = t - n
        x = build_row(commands[t], commands[lo:t][::-1], th[lo:t][::-1], pr[t - 1],
                      pr[lo:t][::-1], mf[lo:t][::-1], mo[lo:t][::-1], status[t],
                      lambda_feature(mf[t - 1], mo[t - 1]))
        y = predict(model, x)
        if not np.all(np.isfinite(y)):
            raise RolloutDivergenceError(t, t * trace.dt)
        raw[t] = y
        if clamp:
            th[t] = np.maximum(y[:4], 0.0)
            pr[t] = y[4]
            mf[t] = max(y[5], mf[t - 1])
            mo[t] = max(y[6], mo[t - 1])
        else:
            th[t] = y[:4]
            pr[t] = y[4]
            mf[t] = y[5]
            mo[t] = y[6]

    traj = PlantTrajectory(dt=trace.dt, commands=commands, status=status,
                           thrusts=th, pressures=pr, m_fuel=mf, m_ox=mo,
                           name=(trace.name + "_pred") if trace.name else "pred")
    return (traj, raw) if collect_raw else traj


def _transient_mask(commands: np.ndarray, dt: float, settle_window: float,
                    threshold: float = 1.0) -> np.ndarray:
    """True where a sample falls within settle_window after a command
    change larger than `threshold` N on any engine."""
    L = commands.shape[0]
    disc = np.zeros(L, dtype=bool)
    if L > 1:
        disc[1:] = np.max(np.abs(np.diff(commands, axis=0)), axis=1) > threshold
    window = max(int(round(settle_window / dt)), 1)
    mask = np.zeros(L, dtype=bool)
    hits = np.flatnonzero(disc)
    for i in hits:
        mask[i:i + window] = True
    return mask


def error_windows(traj_true: PlantTrajectory, traj_pred: PlantTrajectory,
                  settle_window: float = 1.0, *, experiment: str = "",
                  mode: str = "rollout", sparsity: float | None = None,
                  raw: np.ndarray | None = None,
                  cfg: PlantConfig | None = None) -> ValidationReport:
    """Split errors into transient/steady windows and summarize.

    A sample is transient when it lies within `settle_window` seconds
    after any commanded step larger than 1 N; everything else is
    steady. Module mass error uses plant.module_mass when a config is
    given (mathematically it reduces to the ejected-mass difference).
    """
    if len(traj_true) != len(traj_pred):
        raise ValueError("trajectories are not aligned")
    dt = traj_true.dt
    err = np.column_stack([
        traj_pred.thrusts - traj_true.thrusts,
        traj_pred.pressures - traj_true.pressures,
        traj_pred.m_fuel - traj_true.m_fuel,
        traj_pred.m_ox - traj_true.m_ox,
    ])
    transient = _transient_mask(traj_true.commands, dt, settle_window)
    steady = ~transient

    abs_err = np.abs(err)
    per_rmse = np.sqrt(np.mean(err ** 2, axis=0))
    max_tr = abs_err[transient].max(axis=0) if transient.any() else np.zeros(7)
    max_st = abs_err[steady].max(axis=0) if steady.any() else np.zeros(7)

    settle_n = max(int(round(settle_window / dt)), 1)
    thrust_abs = abs_err[:, :4]
    after = thrust_abs[settle_n:] if len(traj_true) > settle_n else thrust_abs
    if cfg is not None:
        mm_err = float(np.max(np.abs(plant_mod.module_mass(traj_true, cfg)
                                     - (cfg.m_module0 - (traj_pred.m_fuel + traj_pred.m_ox)))))
    else:
        mm_err = float(np.max(np.abs((traj_pred.m_fuel + traj_pred.m_ox)
                                     - (traj_true.m_fuel + traj_true.m_ox))))

    raw_max = None
    if raw is not None:
        raw_max = float(np.max(np.abs(raw[:, :4] - traj_true.thrusts)))

    return ValidationReport(
        experiment=experiment, mode=mode, n_samples=len(traj_true),
        n_transient=int(transient.sum()), n_steady=int(steady.sum()),
        rmse=per_rmse, rmse_aggregate=float(np.sqrt(np.mean(per_rmse ** 2))),
        max_err_transient=max_tr, max_err_steady=max_st,
        max_thrust_err=float(thrust_abs.max()),
        max_thrust_err_after_settle=float(after.max()) if after.size else 0.0,
        max_thrust_err_per_engine=thrust_abs.max(axis=0),
        module_mass_max_err=mm_err, sparsity=sparsity, raw_max_thrust_err=raw_max)


def teacher_forced_eval(model: CoefficientModel, traj: PlantTrajectory, *,
                        experiment: str = "", settle_window: float = 1.0) -> ValidationReport:
    """One-step-ahead errors with true histories at every step."""
    ds = assemble(traj, model.n)
    pred = predict(model, ds.inputs)
    err = pred - ds.targets
    abs_err = np.abs(err)

    transient = _transient_mask(traj.commands, traj.dt, settle_window)[model.n:]
    steady = ~transient
    per_rmse = np.sqrt(np.mean(err ** 2, axis=0))
    max_tr = abs_err[transient].max(axis=0) if transient.any() else np.zeros(7)
    max_st = abs_err[steady].max(axis=0) if steady.any() else np.zeros(7)
    settle_n = max(int(round(settle_window / traj.dt)), 1)
    thrust_abs = abs_err[:, :4]
    after = thrust_abs[settle_n:] if thrust_abs.shape[0] > settle_n else thrust_abs

    return ValidationReport(
        experiment=experiment, mode="teacher_forced", n_samples=len(ds),
        n_transient=int(transient.sum()), n_steady=int(steady.sum()),
        rmse=per_rmse, rmse_aggregate=float(np.sqrt(np.mean(per_rmse ** 2))),
        max_err_transient=max_tr, max_err_steady=max_st,
        max_thrust_err=float(thrust_abs.max()),
        max_thrust_err_after_settle=float(after.max()) if after.size else 0.0,
        max_thrust_err_per_engine=thrust_abs.max(axis=0),
        module_mass_max_err=float(np.max(np.abs(err[:, 5] + err[:, 6]))),
        sparsity=model.sparsity)


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


def descent_profile_eval(model: CoefficientModel, profile: CommandTrace,
                         cfg: PlantConfig, settle_window: float = 1.0) -> ValidationReport:
    """Full rollout of a descent profile against the plant."""
    if len(profile) == 0:
        raise ValueError("empty descent profile")
    truth = plant_mod.simulate(profile, cfg)
    try:
        pred, raw = rollout(model, profile, truth, collect_raw=True)
    except RolloutDivergenceError as err:
        report = ValidationReport(
            experiment=profile.name or "descent", mode="rollout", n_samples=0,
            n_transient=0, n_steady=0, rmse=np.full(7, np.nan),
            rmse_aggregate=float("nan"), max_err_transient=np.full(7, np.nan),
            max_err_steady=np.full(7, np.nan), max_thrust_err=float("nan"),
            max_thrust_err_after_settle=float("nan"),
            max_thrust_err_per_engine=np.full(4, np.nan),
            module_mass_max_err=float("nan"), sparsity=model.sparsity,
            diverged_at=err.t)
        return report
    return error_windows(truth, pred, settle_window,
                         experiment=profile.name or "descent",
                         sparsity=model.sparsity, raw=raw, cfg=cfg)


def timeseries_csv(traj_true: PlantTrajectory, traj_pred: PlantTrajectory,
                   path: str | Path) -> None:
    """Plot-ready flat CSV: time, truth, prediction and error per output."""
    cols = {"t": traj_true.t}
    true_mat = np.column_stack([traj_true.thrusts, traj_true.pressures,
                                traj_true.m_fuel, traj_true.m_ox])
    pred_mat = np.column_stack([traj_pred.thrusts, traj_pred.pressures,
                                traj_pred.m_fuel, traj_pred.m_ox])
    for i, label in enumerate(TARGET_NAMES):
        cols[label] = true_mat[:, i]
        cols[f"{label}_pred"] = pred_mat[:, i]
        cols[f"{label}_err"] = pred_mat[:, i] - true_mat[:, i]
    names = list(cols)
    data = np.column_stack([cols[k] for k in names])
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


__all__ = [
    "ValidationReport", "RolloutDivergenceError",
    "rollout", "teacher_forced_eval", "error_windows",
    "descent_profile", "descent_profile_eval", "timeseries_csv",
]
