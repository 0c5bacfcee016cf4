"""Autoregressive rollout validation against the plant.

Trains on the reduced corpus, then replays a held-out excitation
segment, a step-stair and the fall step, feeding the model's own
predictions back into its history features. Prints the one-step and
rollout errors, the rollout's thrust error before its clamps, and writes
plot-ready time series to demos/output/.
"""

from pathlib import Path

import numpy as np

from throttleid import (BasisSpec, ExcitationConfig, PlantConfig, assemble,
                        build_corpus, error_windows, excitation_segment,
                        fit_lasso, merge, rollout, simulate,
                        step_stair_trace, teacher_forced_eval)
from throttleid.rollout import timeseries_csv

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

ex = ExcitationConfig(duration=10.0)
pc = PlantConfig()
print("simulating corpus and training...")
trajs = [simulate(t, pc) for t in build_corpus(ex, pc)]
ds = merge([assemble(t, 6) for t in trajs])
basis = BasisSpec()
model = fit_lasso(ds.inputs, ds.targets, 3e-5, basis=basis,
                  n_history=6, penalty_scale="sqrt-rows")
print(f"model: n=6, {model.K.shape[1]} coefficients, sparsity {model.sparsity:.2f}, "
      f"{model.sweeps} feature-sign steps, KKT {model.kkt:.1e}")

experiments = {
    "sine600": excitation_segment(600.0, ex, pc),
    "stair": step_stair_trace([400, 600, 800, 600, 400], 4.0, pc),
    "fall": step_stair_trace([800, 240], 4.0, pc),
}

print(f"\n{'experiment':>10s} {'TF max':>8s} {'roll max':>9s} {'raw max':>8s} "
      f"{'transient':>10s} {'steady':>7s} {'mass err':>9s}")
for name, trace in experiments.items():
    truth = simulate(trace, pc)
    tf = teacher_forced_eval(model, truth, cfg=pc)
    pred, raw = rollout(model, trace, truth)
    rep = error_windows(truth, pred, experiment=name, cfg=pc, raw=raw)
    print(f"{name:>10s} {tf.max_thrust_err:7.2f}N {rep.max_thrust_err:8.2f}N "
          f"{rep.raw_max_thrust_err:7.2f}N {np.max(rep.max_err_transient[:4]):9.2f}N "
          f"{np.max(rep.max_err_steady[:4]):6.2f}N {rep.module_mass_max_err:8.4f}kg")
    timeseries_csv(truth, pred, OUT / f"{name}_timeseries.csv")

print("\n(teacher-forced = one-step errors with true histories; rollout errors")
print(" compound through the feedback of predicted thrust/pressure/mass; raw = the")
print(" rollout's predictions before the thrust floor and mass monotonicity clamps)")
print(f"wrote time-series CSVs under {OUT}")
