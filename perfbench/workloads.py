"""Benchmark workloads: set-up, timed operation and correctness gate.

All three are closed-loop, single-process batch jobs on the default
`PipelineConfig`: one caller, each stage starts when the previous one
returns.

The solver's work depends chaotically on the order of the rows it is
given: the design is degenerate, so which coefficients the active-set
polish pivots through changes with floating-point summation order.
Over pipeline seeds 0-7 the training fit took 3.6-6.7 s, and the
mu-path sweep 17.5-33.4 s over seeds 0-6 (the mu=1e-3 fits took
35-2982 CD sweeps; shared 2-core x86_64, numpy 2.4, OpenBLAS on one
thread). A seed that permuted the corpus or the CV folds would swamp
any change under test, so every workload, set-up included, runs the
default seed-0 inputs whatever the workload seed. The validation suite
has no seed.

- corpus-train: `cmd_gen_data` then `cmd_train`. The only workload that
  simulates the whole corpus, writes the trajectory CSVs and reads them
  back, and does one cold single-mu fit.
- validate-suite: `cmd_validate` on the model that `cmd_gen_data` and
  `cmd_train` write in set-up. Plant and rollout loops carry it; the
  solver does nothing and CSV is write-only.
- mu-path: `sweep_mu` on the corpus dataset at n=6 (generated by
  `cmd_gen_data`, read back and assembled in set-up), k=2 folds over
  the six decades 1e0..1e-5, i.e. 12 warm-started fits. Solver only.

Every call into throttleid goes through a module attribute
(`pipeline.cmd_train`, not an imported name) so a traced run, which
rebinds those attributes, sees it.

The gates reuse the acceptance thresholds of tests/test_acceptance.py
as written (C4, C5, C7, C8, C9, C10). `fall` has no acceptance bound
and gets none here.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from throttleid import features, pipeline, plant, regression, tuning

import speed

MU_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0)
MU_FOLDS = 2
THRUST_OUTPUTS = ("To1", "To2", "To3", "To4")


@dataclass
class Outcome:
    """Gate result of one operation.

    attempted / failed count units of work: simulated traces, fits,
    rollouts, plus one for the gate itself. `model_err` is the
    workload's unit-free accuracy guard.
    """

    attempted: int
    failed: int
    model_err: float
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _quiet():
    """Send the pipeline's progress prints to stderr; stdout carries results."""
    return contextlib.redirect_stdout(sys.stderr)


def gen_data(out: Path) -> pipeline.PipelineConfig:
    """`cmd_gen_data` on the default config into `out`; returns the config."""
    cfg = pipeline.PipelineConfig(output_dir=str(out))
    with _quiet():
        pipeline.cmd_gen_data(cfg)
    return cfg


# -- corpus-train -------------------------------------------------------------
def corpus_train_setup(work: Path):
    return None


def corpus_train_run(state, out: Path):
    cfg = pipeline.PipelineConfig(output_dir=str(out))
    with _quiet():
        pipeline.cmd_gen_data(cfg)
        pipeline.cmd_train(cfg)


def corpus_train_check(state, out: Path, result) -> Outcome:
    pc = pipeline.PipelineConfig().plant
    manifest = json.loads((out / "corpus" / "manifest.json").read_text())
    segments = manifest["segments"]
    depleted = [e["name"] for e in segments if not e.get("trajectory")]

    # C10 on the trajectories as read back from CSV.
    gate = []
    closure = 0.0
    for traj in pipeline.load_trajectories(out):
        mm = plant.module_mass(traj, pc)
        if not np.array_equal(mm, pc.m_module0 - (traj.m_fuel + traj.m_ox)):
            gate.append(f"C10 {traj.name}: module mass identity not exact")
        closure = max(closure, float(np.max(np.abs(
            mm + traj.m_fuel + traj.m_ox - pc.m_module0))))
        dm = np.diff(traj.m_fuel + traj.m_ox) / traj.dt
        mdot = traj.thrusts.sum(axis=1) / pc.exhaust_velocity
        if not np.allclose(dm, 0.5 * (mdot[1:] + mdot[:-1]), rtol=1e-9, atol=1e-12):
            gate.append(f"C10 {traj.name}: flow law off by more than 1e-9 relative")
    if closure >= 1e-9:
        gate.append(f"C10 closure residual {closure:.1e} >= 1e-9")

    # Train RMSE per output, scaled by the training target std (the
    # unit-free scale tuning uses), as RMS over the seven outputs.
    report = json.loads((out / "train_report.json").read_text())
    per_output = np.array([report["train_rmse"][k] for k in features.TARGET_NAMES])
    y_scale = regression.model_from_json(out / "model.json").standardization.y_scale
    scaled = float(np.sqrt(np.mean((per_output / y_scale) ** 2)))
    fit_failed = not np.isfinite(scaled)
    problems = [f"trace {name} depleted the plant" for name in depleted] + gate
    if fit_failed:
        problems.append("train RMSE is not finite")
    return Outcome(
        attempted=len(segments) + 1 + 1,   # traces, the fit, the gate
        failed=len(depleted) + int(fit_failed) + int(bool(gate)),
        model_err=scaled, problems=problems,
        info={"train_rmse": report["train_rmse_aggregate"],
              "train_scaled_rmse": scaled, "rows": report["rows"],
              "sparsity": report["sparsity"], "c10_closure": closure})


# -- validate-suite -----------------------------------------------------------
def validate_setup(work: Path):
    """Generate the corpus and train the default model, as the pipeline does."""
    cfg = gen_data(work / "train")
    with _quiet():
        pipeline.cmd_train(cfg)
    return Path(cfg.output_dir) / "model.json"


def validate_run(model_path, out: Path):
    cfg = pipeline.PipelineConfig(output_dir=str(out))
    with _quiet():
        pipeline.cmd_validate(cfg, model_path=model_path)


def validate_check(model_path, out: Path, result) -> Outcome:
    cfg = pipeline.PipelineConfig()
    names = [t.name for t in pipeline.validation_traces(cfg)]
    reports = {name: json.loads((out / "validation" / f"{name}_report.json").read_text())
               for name in names}
    diverged = [n for n, r in reports.items() if r.get("diverged_at") is not None]
    problems = [f"{n} rollout diverged at t={reports[n]['diverged_at']}" for n in diverged]

    def thrust_max(rep, key):
        return max(rep[key][k] for k in THRUST_OUTPUTS)

    if not diverged:
        sine, stair, descent = reports["sine600"], reports["stair"], reports["descent"]
        checks = [
            ("C7 sine600 steady max", thrust_max(sine, "max_err_steady"), 4.0),
            ("C7 sine600 post-settle max", sine["max_thrust_err_after_settle"], 25.0),
            ("C8 stair transient max", thrust_max(stair, "max_err_transient"), 25.0),
            ("C8 stair steady max", thrust_max(stair, "max_err_steady"), 4.0),
            ("C9 descent per-engine max", max(descent["max_thrust_err_per_engine"]), 20.0),
            ("C9 descent module mass err", descent["module_mass_max_err"], 2.0),
        ]
        problems += [f"{label} {value:.3f} > {bound}"
                     for label, value, bound in checks if not value <= bound]
    # a diverged experiment's report has no error summary
    worst = max(r.get("max_thrust_err_after_settle", np.inf) for r in reports.values())
    return Outcome(
        attempted=len(names) + 1,
        failed=len(diverged) + int(bool(problems)),
        model_err=worst / cfg.plant.e_max, problems=problems,
        info={"rollout_thrust_err_N": worst,
              "after_settle_N": {n: r.get("max_thrust_err_after_settle")
                                 for n, r in reports.items()}})


# -- mu-path ------------------------------------------------------------------
def mu_path_setup(work: Path):
    """The corpus dataset at the default history length, read back from
    the trajectory CSVs as `cmd_sweep` reads it."""
    cfg = gen_data(work / "corpus")
    ds = features.merge([features.assemble(tr, cfg.history)
                         for tr in pipeline.load_trajectories(cfg.output_dir)])
    return ds, replace(cfg.sweep, k=MU_FOLDS, mu_grid=MU_GRID), cfg.basis


def mu_path_run(state, out: Path):
    ds, sweep_cfg, basis = state
    return tuning.sweep_mu(ds, sweep_cfg, basis)


def mu_path_check(state, out: Path, report) -> Outcome:
    sp = [pt.mean_sparsity for pt in report.points]
    tests = [pt.mean_test for pt in report.points]
    problems = []
    if not (sp[-1] > sp[0] and sp[-1] - sp[0] >= 0.3):
        problems.append(f"C4 sparsity {sp[0]:.3f} -> {sp[-1]:.3f}: rise < 0.3")
    ratio = tests[-1] / min(tests)
    if not ratio >= 1.2:
        problems.append(f"C5 top-of-grid test RMSE ratio {ratio:.2f} < 1.2")
    cv = report.point(report.selected).mean_test
    return Outcome(
        attempted=len(MU_GRID) * MU_FOLDS + 1, failed=int(bool(problems)),
        model_err=cv, problems=problems,
        info={"cv_rmse": cv, "selected_mu": report.selected,
              "sparsity_path": sp, "c5_ratio": ratio})


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Path], Any]             # (work dir) -> state
    run: Callable[[Any, Path], Any]          # timed: (state, output dir) -> result
    check: Callable[[Any, Path, Any], Outcome]


WORKLOADS = {
    "corpus-train": Workload(corpus_train_setup, corpus_train_run, corpus_train_check),
    "validate-suite": Workload(validate_setup, validate_run, validate_check),
    "mu-path": Workload(mu_path_setup, mu_path_run, mu_path_check),
}


def run_once(wl: Workload, state, work: Path, after_run=None):
    """Time one operation in a fresh output directory under `work`, then
    gate it; returns (the operation's `speed.Sampler`, its outcome).
    `after_run` is called between the two (a traced run uninstalls its
    wrappers there). An operation or gate that raises is reported as one
    failed unit; the caller goes on."""
    out = Path(tempfile.mkdtemp(dir=work, prefix="op-"))
    try:
        result, error = None, None
        with speed.Sampler() as timing:
            try:
                result = wl.run(state, out)
            except Exception:
                error = traceback.format_exc()
        if after_run is not None:
            after_run()
        if error is None:
            try:
                return timing, wl.check(state, out, result)
            except Exception:
                error = traceback.format_exc()
        print(error, file=sys.stderr)
        return timing, Outcome(attempted=1, failed=1, model_err=float("nan"),
                               problems=[error.strip().splitlines()[-1]])
    finally:
        shutil.rmtree(out, ignore_errors=True)
