"""Cross-validated sweeps over history length and L1 weight.

Reduced grids keep the demo quick; the full defaults are what
`throttleid sweep` runs. Prints the CV tables and the sparsity/error
Pareto path.
"""

from pathlib import Path

import numpy as np

from throttleid import ExcitationConfig, PlantConfig, SweepConfig, simulate
from throttleid import assemble, build_corpus, merge, pareto_table, sweep_history, sweep_mu
from throttleid.tuning import HISTORY_MU, pareto_to_csv

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

ex = ExcitationConfig(duration=10.0)
pc = PlantConfig()
print("simulating corpus...")
trajs = [simulate(t, pc) for t in build_corpus(ex, pc)]

cfg = SweepConfig(n_grid=(2, 4, 6, 8), mu_grid=tuple(np.logspace(-5, 0, 6)), k=3)

print(f"\nhistory sweep (fixed mu {HISTORY_MU:g} per sample, unit-free CV RMSE):")
hist = sweep_history(trajs, cfg)  # each history length assembles its own rows
for pt in hist.points:
    marker = " <- selected" if pt.value == hist.selected else ""
    print(f"  n={pt.value}: test {pt.mean_test:.5f}  train {pt.mean_train:.5f}{marker}")

print(f"\nmu sweep at n={hist.selected}:")
mu_rep = sweep_mu(merge([assemble(t, hist.selected) for t in trajs]), cfg)
for pt in mu_rep.points:
    marker = " <- selected" if pt.value == mu_rep.selected else ""
    print(f"  mu={pt.value:8.2e}: test {pt.mean_test:.5f}  sparsity {pt.mean_sparsity:.3f}{marker}")

rows = pareto_table(mu_rep)
front = [r for r in rows if r["pareto"]]
print(f"\nPareto front ({len(front)} of {len(rows)} grid points):")
for r in front:
    print(f"  mu={r['mu']:8.2e} sparsity {r['sparsity']:.3f} test {r['test_rmse']:.5f}")

pareto_to_csv(rows, OUT / "pareto.csv")
hist.to_csv(OUT / "sweep_history.csv")
mu_rep.to_csv(OUT / "sweep_mu.csv")
print(f"\nwrote sweep tables under {OUT}")
