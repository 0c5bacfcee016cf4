"""Excitation input design: discretized thrust levels, a 4-D
trigonometric excitation spanning the operating envelope, and a fixed
step/ramp family for transient coverage.

The core signal is a unit 4-vector S(t) tracing a dense path on the
3-sphere; biasing it at a thrust level and scaling by an amplitude
yields four decorrelated frequency-modulated engine commands per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .plant import CommandTrace, PlantConfig, write_json


@dataclass(frozen=True)
class ExcitationConfig:
    """The corpus design. Every trace is built at the step (dt) and within
    the thrust range (e_min, e_max) of the PlantConfig passed with it."""

    m_levels: int = 8        # number of discrete bias levels
    a_amp: float = 100.0     # excitation amplitude [N]
    duration: float = 30.0   # per-segment duration [s]

    def __post_init__(self):
        if self.m_levels < 1:
            raise ValueError("m_levels must be >= 1")
        if self.a_amp < 0.0:
            raise ValueError("a_amp must be >= 0")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")


def thrust_levels(cfg: ExcitationConfig, plant: PlantConfig) -> np.ndarray:
    """Discrete bias levels E_k = e_min + (k/M)(e_max - e_min), k = 0..M-1.

    Note the top of the range is deliberately not in this list; the
    step/ramp family of the corpus covers e_max.
    """
    k = np.arange(cfg.m_levels, dtype=float)
    return plant.e_min + (k / cfg.m_levels) * (plant.e_max - plant.e_min)


def excitation_basis(t):
    """Unit 4-vector excitation direction at time t [s].

    With r = pi*t, theta = pi*sin(2*sin(2t)), phi = pi*sin(2t):

        S = (cos r cos theta cos phi,
             cos r cos theta sin phi,
             cos r sin theta,
             sin r)

    ||S|| = 1 identically. Scalar t gives shape (4,); an array of
    shape (N,) gives shape (N, 4).
    """
    t = np.asarray(t, dtype=float)
    r = np.pi * t
    phi = np.pi * np.sin(2.0 * t)
    theta = np.pi * np.sin(2.0 * np.sin(2.0 * t))
    cr = np.cos(r)
    ct = np.cos(theta)
    out = np.stack([cr * ct * np.cos(phi),
                    cr * ct * np.sin(phi),
                    cr * np.sin(theta),
                    np.sin(r)], axis=-1)
    return out


def _excite_name(e_bias: float) -> str:
    return f"excite_b{e_bias:g}"


def excitation_segment(e_bias: float, cfg: ExcitationConfig, plant: PlantConfig) -> CommandTrace:
    """Biased, scaled excitation: clamp(e_bias + a_amp * S(t)), all engines on."""
    if not (plant.e_min <= e_bias <= plant.e_max):
        raise ValueError(f"e_bias {e_bias} outside [{plant.e_min}, {plant.e_max}]")
    n = int(round(cfg.duration / plant.dt))
    t = np.arange(n) * plant.dt
    cmd = np.clip(e_bias + cfg.a_amp * excitation_basis(t), plant.e_min, plant.e_max)
    return CommandTrace(dt=plant.dt, commands=cmd, status=np.ones((n, 4)),
                        name=_excite_name(e_bias))


def _segments_trace(segments, dt: float, name: str) -> CommandTrace:
    """Piecewise command profile from (seconds, level 1/3, level 2/4)
    segments, each `int(round(seconds / dt))` samples long.

    A number is held on its engine pair for the segment and a (start,
    end) pair is ramped with np.linspace; an engine is on wherever its
    command is positive, so a level of 0 turns the pair off.
    """
    parts = []   # per segment: (engines 1/3 values, engines 2/4 values)
    for seconds, *levels in segments:
        m = int(round(seconds / dt))
        parts.append([np.linspace(*lvl, m) if isinstance(lvl, tuple) else np.full(m, float(lvl))
                      for lvl in levels])
    e13, e24 = (np.concatenate(col) for col in zip(*parts))
    cmd = np.stack([e13, e24, e13, e24], axis=1)
    return CommandTrace(dt=dt, commands=cmd, status=(cmd > 0.0).astype(float), name=name)


def step_stair_trace(levels, hold: float, plant: PlantConfig) -> CommandTrace:
    """Piecewise-constant stair: each level held `hold` seconds on all engines.

    A level of 0 means engines off (status 0); nonzero levels must lie
    in the plant's [e_min, e_max]. Sampled at the plant's dt.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.size == 0:
        raise ValueError("empty level list")
    ok = (levels == 0.0) | ((levels >= plant.e_min) & (levels <= plant.e_max))
    if not ok.all():
        raise ValueError(f"stair levels must be 0 or within [{plant.e_min}, {plant.e_max}]")
    return _segments_trace([(hold, lvl, lvl) for lvl in levels], plant.dt, "stair")


def ramp_trace(start: float, end: float, rate: float, cfg: ExcitationConfig,
               plant: PlantConfig) -> CommandTrace:
    """Linear command from start to end at `rate` N/s, then hold at end.

    The trace lasts cfg.duration, or just past the ramp when the ramp
    itself is longer.
    """
    if rate <= 0.0:
        raise ValueError("rate must be > 0")
    for v in (start, end):
        if not (plant.e_min <= v <= plant.e_max):
            raise ValueError(f"ramp endpoint {v} outside [{plant.e_min}, {plant.e_max}]")
    t_ramp = abs(end - start) / rate
    total = max(cfg.duration, t_ramp + plant.dt)
    n = int(round(total / plant.dt))
    t = np.arange(n) * plant.dt
    sign = 1.0 if end >= start else -1.0
    level = np.clip(start + sign * rate * t, min(start, end), max(start, end))
    cmd = level[:, None] * np.ones((1, 4))
    return CommandTrace(dt=plant.dt, commands=cmd, status=np.ones((n, 4)), name="ramp")


def build_corpus(cfg: ExcitationConfig, plant: PlantConfig, seed: int = 0) -> list[CommandTrace]:
    """Training corpus: one excitation segment per bias level plus the
    fixed step/ramp family.

    The family (documented, not randomized) anchors the quasi-static
    operating manifold and the large-step transients that the
    fast-swinging excitation segments underweight:
      - coarse and fine stairs up/down spanning e_min..e_max,
      - full-range rise and fall steps,
      - medium ramps (56 / 112 N/s) and slow near-static ramps (18 N/s),
      - an all-off segment (zero-input fixed point),
      - stairs on one engine pair with the other pair shut down, and
        live shutdowns and restarts of one pair while the other burns.

    Every stair and pair trace is a segment list of `_segments_trace`.
    The seed permutes segment order only; contents are deterministic.
    """
    lo, hi = plant.e_min, plant.e_max
    grid = lambda f: lo + f * (hi - lo)
    # family hold lengths scale with the configured segment duration so
    # reduced configurations produce proportionally smaller corpora
    scale = cfg.duration / 30.0
    hold = lambda seconds: max(seconds * scale, 4.0 * plant.dt)
    stair = lambda levels, seconds: step_stair_trace(levels, hold(seconds), plant)
    pair = lambda segments: _segments_trace(segments, plant.dt, "")  # named below
    mid = 0.5 * (lo + hi)
    segments = [excitation_segment(b, cfg, plant) for b in thrust_levels(cfg, plant)]
    hold_levels = [grid(k / 11.0) for k in range(12)]  # 12 levels incl. both ends
    # Long mixed-level stair: anchors the steady operating manifold
    # against the fast-swinging excitation rows and walks the
    # cumulative ejected mass out to powered-descent scale, so the
    # inverse-mass feature is trained over its deployment range.
    endurance_levels = [grid(f) for f in
                        (0.0, 0.25, 0.5, 0.75, 1.0, 0.625, 0.375, 0.125,
                         0.875, 0.0, 0.5, 1.0, 0.25, 0.75, 0.0, 0.375,
                         0.625, 0.875, 0.125, 0.5)]
    family = [
        ("endurance_stair", stair(endurance_levels, 28.0)),
        ("hold_ladder", stair(hold_levels, 8.0)),
        ("stair_updown", stair([lo, grid(0.25), grid(0.5), grid(0.75), hi,
                                grid(0.75), grid(0.5), grid(0.25), lo], 8.0)),
        ("stair_fine", stair([grid(0.125), grid(0.375), grid(0.625), grid(0.875),
                              grid(0.625), grid(0.375), grid(0.125)], 8.0)),
        ("rise_step", stair([lo, hi], 8.0)),
        ("fall_step", stair([hi, lo], 8.0)),
        ("ramp_up", ramp_trace(lo, hi, 56.0, cfg, plant)),
        ("ramp_down", ramp_trace(hi, lo, 112.0, cfg, plant)),
        ("slow_ramp_up", ramp_trace(lo, hi, 18.0 / max(scale, 0.25), cfg, plant)),
        ("slow_ramp_down", ramp_trace(hi, lo, 18.0 / max(scale, 0.25), cfg, plant)),
        ("step_battery", stair(
            [lo, grid(0.5), lo, hi, grid(0.5), hi, lo, grid(0.25),
             grid(0.75), grid(0.25), hi, grid(0.75), lo, grid(0.375),
             grid(0.875), grid(0.375), lo, grid(0.625), hi, lo], 4.0)),
        ("ignition_battery", stair(
            [0.0, grid(0.3), 0.0, grid(0.65), 0.0, lo, 0.0, hi,
             0.0, grid(0.5), 0.0, grid(0.8), 0.0, grid(0.15), 0.0,
             grid(0.4)], 4.0)),
        ("all_off", stair([0.0], 10.0)),
        ("pair_stair", pair([(hold(8.0), lvl, 0.0) for lvl in
                             (grid(0.3), grid(0.5), hi, grid(0.75), lo)])),
        ("pair_stair_24", pair([(hold(8.0), 0.0, lvl) for lvl in
                                (grid(0.5), grid(0.3), grid(0.75), lo)])),
        ("pair_shutdown", pair([(hold(6.0), *lvls) for lvls in
                                ((mid, mid), (mid, 0.0), (mid, mid), (hi, hi), (hi, 0.0),
                                 (0.0, hi), (lo, lo), (lo, 0.0), (mid, lo))])),
    ]
    for name, trace in family:
        trace.name = name
        segments.append(trace)
    order = np.random.default_rng(seed).permutation(len(segments))
    return [segments[i] for i in order]


def corpus_manifest(corpus: list[CommandTrace], cfg: ExcitationConfig,
                    plant: PlantConfig) -> dict:
    """JSON-ready manifest describing a corpus (segment kind, exact `thrust_levels`
    bias, duration, and `file`, the name of the command CSV that `save_corpus` writes)."""
    biases = {_excite_name(b): float(b) for b in thrust_levels(cfg, plant)}
    entries = []
    for i, trace in enumerate(corpus):
        kind = "excitation" if trace.name.startswith("excite") else trace.name
        e_bias = biases.get(trace.name)
        name = trace.name or f"segment_{i:03d}"
        entries.append({
            "index": i,
            "name": name,
            "kind": kind,
            "e_bias": e_bias,
            "duration": trace.duration,
            "samples": len(trace),
            "file": f"{i:03d}_{name}.csv",
        })
    return {"dt": plant.dt, "segments": entries}


def save_corpus(corpus: list[CommandTrace], cfg: ExcitationConfig, plant: PlantConfig,
                out_dir: str | Path) -> dict:
    """Write one command CSV per trace plus the JSON manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = corpus_manifest(corpus, cfg, plant)
    for entry, trace in zip(manifest["segments"], corpus):
        trace.to_csv(out / entry["file"])
    write_json(manifest, out / "manifest.json")
    return manifest


__all__ = [
    "ExcitationConfig", "thrust_levels", "excitation_basis",
    "excitation_segment", "step_stair_trace", "ramp_trace", "build_corpus",
    "corpus_manifest", "save_corpus",
]
