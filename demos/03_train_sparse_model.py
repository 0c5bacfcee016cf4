"""Assemble the history-extended dataset and fit the sparse model.

Uses a reduced corpus so it runs in well under a minute; prints how the
L1 weight trades training error against coefficient sparsity, with the
feature-sign steps each fit took and its KKT certificate, and saves
the fitted model as JSON.
"""

from pathlib import Path

import numpy as np

from throttleid import (BasisSpec, ExcitationConfig, PlantConfig, assemble,
                        build_corpus, fit_lasso, merge, model_to_json,
                        predict, rmse, simulate)
from throttleid.features import feature_names, input_width

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

ex = ExcitationConfig(duration=10.0)
pc = PlantConfig()
print("simulating corpus...")
trajs = [simulate(t, pc) for t in build_corpus(ex, pc)]
n = 6   # history length
ds = merge([assemble(t, n) for t in trajs])
print(f"dataset: {len(ds)} rows x {ds.inputs.shape[1]} features "
      f"(input_width({n}) = {input_width(n)}), 7 targets")

basis = BasisSpec()  # a bias column and the powers 1 and 2 of each input
print(f"basis degree {basis.degree}: {basis.width(input_width(n))} regressors\n")

print(f"{'mu':>8s} {'sparsity':>9s} {'thrust RMSE':>12s} {'mass RMSE':>10s} "
      f"{'steps':>6s} {'KKT':>8s}")
models = {}
for mu in (0.0, 1e-5, 1e-4, 1e-3):
    model = fit_lasso(ds.inputs, ds.targets, mu, basis=basis, n_history=n,
                      penalty_scale="sqrt-rows")
    per, _ = rmse(predict(model, ds.inputs), ds.targets)
    print(f"{mu:8.0e} {model.sparsity:9.3f} {np.mean(per[:4]):10.3f} N "
          f"{np.mean(per[5:]):9.5f} kg {model.sweeps:6d} {model.kkt:8.1e}")
    models[mu] = model
# the corpus has exactly duplicated columns, so every fit here is an
# elastic net with a small ridge on the standardized Gram diagonal
print(f"ridge lambda_2 = {model.ridge:.3g} (RIDGE x N, N = {len(ds)})")

model = models[1e-4]
names = ["1"] + feature_names(n) + [f"{f}^2" for f in feature_names(n)]
w = model.W_std[:, 0]
top = np.argsort(np.abs(w))[::-1][:8]
print("\nlargest engine-1 thrust coefficients (standardized):")
for j in top:
    if w[j] != 0.0:
        print(f"  {names[j]:12s} {w[j]:+.4f}")

path = OUT / "model.json"
model_to_json(model, path)
print(f"\nwrote {path}")
