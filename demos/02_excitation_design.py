"""Excitation input design: discrete bias levels, the unit-sphere
4-vector excitation, and the corpus composition.
"""

from pathlib import Path

import numpy as np

from throttleid import ExcitationConfig, PlantConfig, build_corpus, excitation_basis, thrust_levels
from throttleid.excitation import save_corpus

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

pc = PlantConfig()   # the corpus is designed at the plant's step and thrust range
levels = thrust_levels(ExcitationConfig(), pc)
print("bias levels E_k =", np.array2string(levels, precision=0))
print("(the top of the range is covered by the step/ramp family, not the levels)")

t = np.linspace(0.0, 4.0, 9)
S = excitation_basis(t)
print("\nexcitation direction S(t) on the unit 3-sphere:")
for ti, si in zip(t, S):
    print(f"  t={ti:4.1f}s  S={np.array2string(si, precision=3, floatmode='fixed')} "
          f"|S|={np.linalg.norm(si):.12f}")

reduced = ExcitationConfig(m_levels=3, duration=6.0)
corpus = build_corpus(reduced, pc)
print(f"\nreduced corpus ({len(corpus)} traces):")
for trace in corpus:
    on = trace.status > 0
    span = (f"{trace.commands[on].min():.0f}-{trace.commands[on].max():.0f} N"
            if on.any() else "all off")
    print(f"  {trace.name:18s} {trace.duration:7.1f} s  {span}")

manifest = save_corpus(corpus, reduced, pc, OUT / "corpus")
print(f"\nwrote {len(manifest['segments'])} command CSVs + manifest under {OUT/'corpus'}")
