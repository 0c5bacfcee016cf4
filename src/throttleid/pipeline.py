"""Batch pipeline: data generation, training, sweeps, validation.

Each stage reads and writes JSON, `.npy` and (for sweep tables) CSV
artifacts under an output directory, and every stage writes its resolved
configuration to config.json there, replacing the one before. So a run is
reconstructible from its directory alone only when every stage was given
the same configuration. All stages are deterministic given (config, seed):
rerunning produces byte-identical files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .excitation import (ExcitationConfig, build_corpus, corpus_manifest,
                         excitation_segment, step_stair_trace)
from .features import TARGET_NAMES, assemble, merge
from .parallel import fork_map
from .plant import (TRAJECTORY_CSV_HEADER, CommandTrace, PlantConfig, PlantTrajectory,
                    PropellantDepletedError, _from_document, read_json, simulate, write_json,
                    write_npy)
from .regression import (BasisSpec, CoefficientModel, RawMoments, fit_from_moments,
                         model_from_json, model_to_json, predict, raw_moments)
from .rollout import (RolloutDivergenceError, _timeseries_columns, descent_profile,
                      error_windows, rollout)
from .tuning import (PENALTY_SCALE, SweepConfig, pareto_table, pareto_to_csv,
                     sweep_history, sweep_mu)


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of a run, each in one place: the plant owns the step
    and the thrust range that the corpus is designed at, and `seed`, which
    orders the corpus and draws the CV folds, is the only seed. Frozen: a
    changed config is made with `dataclasses.replace`."""

    plant: PlantConfig = field(default_factory=PlantConfig)
    excitation: ExcitationConfig = field(default_factory=ExcitationConfig)
    history: int = 6             # samples of each historied channel in an input row
    basis: BasisSpec = field(default_factory=BasisSpec)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    train_mu: float = 3e-5       # L1 weight for cmd_train (PENALTY_SCALE scaled)
    output_dir: str = "runs/default"
    seed: int = 0

    def __post_init__(self):
        if not self.train_mu >= 0.0:
            raise ValueError(f"config key 'train_mu' must be >= 0, got {self.train_mu!r}")
        if self.seed < 0:
            raise ValueError(f"config key 'seed' must be >= 0, got {self.seed!r}")
        if self.history < 1:
            raise ValueError(f"config key 'history' must be >= 1, got {self.history!r}")

    def to_json(self, path: str | Path | None = None) -> str:
        return write_json(asdict(self), path)

    @classmethod
    def from_json(cls, source: str | Path) -> "PipelineConfig":
        """Load from a JSON file (a Path) or from JSON text (a str). An
        unknown key or a value of the wrong JSON type raises a ValueError
        naming it."""
        d = read_json(source)
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, got {type(d).__name__}")
        return _from_document(cls(), d, "config")


def _snapshot(cfg: PipelineConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg.to_json(out / "config.json")


_TRAJECTORY_DTYPE = np.dtype([(name, "<f8") for name in TRAJECTORY_CSV_HEADER.split(",")])


def _gen_trace(plant_cfg: PlantConfig, out: Path, job: tuple[str, CommandTrace]):
    """Simulate one corpus trace and `write_npy` its response under the file name
    given; returns None, or the time at which the plant ran dry (no file is written)."""
    fname, trace = job
    try:
        traj = simulate(trace, plant_cfg)
    except PropellantDepletedError as err:
        return err.t
    write_npy(out / "trajectories" / fname, _TRAJECTORY_DTYPE.names,
              [traj.t, traj.inputs, traj.outputs])
    return None


def cmd_gen_data(cfg: PipelineConfig) -> dict:
    """Build the excitation corpus, simulate every trace, write artifacts.

    Writes the manifest under corpus/, simulated plant responses under
    trajectories/ (each holds its trace's commands and status, one row
    later, so no command CSV is written) as the `.npy` arrays that the
    manifest's `trajectory` names, and prints a corpus summary. A trace that
    depletes the plant mid-run is recorded and has no trajectory.

    Each trace is one `fork_map` task, which simulates it and saves its
    response; only the depletion time comes back. The summary's sample
    count and command range are taken from the corpus: a response has
    one row more than its trace. The manifest and summary are written in
    corpus order, so every file is the same whatever the CPU count.
    """
    out = Path(cfg.output_dir)
    _snapshot(cfg, out)
    corpus = build_corpus(cfg.excitation, cfg.plant, cfg.seed)
    manifest = corpus_manifest(corpus, cfg.excitation, cfg.plant)
    entries = manifest["segments"]
    for sub in ("corpus", "trajectories"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    jobs = [(f"{Path(entry['file']).stem}.npy", trace) for entry, trace in zip(entries, corpus)]
    n_samples = 0
    cmd_lo, cmd_hi = np.inf, -np.inf
    for entry, (fname, trace), depleted_at in zip(
            entries, jobs, fork_map(partial(_gen_trace, cfg.plant, out), jobs)):
        entry["trajectory"] = fname if depleted_at is None else None
        if depleted_at is not None:
            entry["depleted_at"] = depleted_at
            continue
        n_samples += len(trace) + 1
        on = trace.status > 0
        if on.any():
            cmd_lo = min(cmd_lo, float(trace.commands[on].min()))
            cmd_hi = max(cmd_hi, float(trace.commands[on].max()))
    write_json(manifest, out / "corpus" / "manifest.json")
    print(f"corpus: {len(corpus)} traces, {n_samples} simulated samples, "
          f"commands span [{cmd_lo:.1f}, {cmd_hi:.1f}] N")
    return manifest


def _trajectory_files(data_dir: str | Path, dt: float | None = None) -> list[tuple]:
    """(name, trajectory file, rows, step) of every trace that the corpus
    manifest under `data_dir` lists with a trajectory, in corpus order; a
    response has one row more than the `samples` of its trace. Raises
    FileNotFoundError when there is none, and ValueError when `dt` is
    given and is not the manifest's step."""
    data_dir = Path(data_dir)
    manifest = read_json(data_dir / "corpus" / "manifest.json")
    if dt is not None and manifest["dt"] != dt:
        raise ValueError(f"{data_dir}: corpus step {manifest['dt']} s is not the plant step {dt} s")
    files = [(entry["name"], data_dir / "trajectories" / entry["trajectory"],
              entry["samples"] + 1, manifest["dt"])
             for entry in manifest["segments"] if entry.get("trajectory")]
    if not files:
        raise FileNotFoundError(f"no trajectories under {data_dir}")
    return files


def _read_trajectory(name: str, path: Path, rows: int, dt: float) -> PlantTrajectory:
    """The trajectory file that `_gen_trace` saved at step `dt`, never
    unpickled; ValueError naming the file when it is not a `.npy` array of
    _TRAJECTORY_DTYPE with the `rows` rows that the manifest lists."""
    try:   # the .npy format alone, unlike np.load: never a zip archive or a pickle
        with open(path, "rb") as fh:
            data = np.lib.format.read_array(fh, allow_pickle=False)
    except ValueError as err:   # empty, truncated, not .npy, or an object array
        raise ValueError(f"{path}: not a trajectory .npy file ({err})") from None
    if data.dtype != _TRAJECTORY_DTYPE or data.ndim != 1:
        raise ValueError(f"{path}: not a trajectory (a 1-D array of dtype {_TRAJECTORY_DTYPE})")
    if len(data) != rows:   # a manifest lists at least one row
        raise ValueError(f"{path}: {len(data)} rows read, the manifest lists {rows}")
    return PlantTrajectory._from_rows(path, data.view("<f8").reshape(rows, -1), dt, name)


def load_trajectories(data_dir: str | Path, dt: float | None = None) -> list[PlantTrajectory]:
    """Every trajectory that the corpus manifest under `data_dir` lists,
    in corpus order, each checked against its manifest row count and
    step (and that step against `dt`, when given). The caller reads them:
    the 24 default traces load in ~18 ms, less than forking for them."""
    return [_read_trajectory(*job) for job in _trajectory_files(data_dir, dt)]


def _train_rows(n: int, basis: BasisSpec, job: tuple[str, Path, int, float]) -> RawMoments:
    """One first-pass `cmd_train` task: the centered moments, on the basis,
    of the rows of a trace's trajectory file, checked against the manifest."""
    ds = assemble(_read_trajectory(*job), n)
    return raw_moments(ds.inputs, ds.targets, basis)


def _train_errors(model: CoefficientModel, job: tuple[str, Path, int, float]) -> np.ndarray:
    """One second-pass `cmd_train` task: each output's sum of squared errors
    of `predict` over the rows, at the model's n, of a trace's trajectory file."""
    ds = assemble(_read_trajectory(*job), model.n)
    return np.sum((predict(model, ds.inputs) - ds.targets) ** 2, axis=0)


def cmd_train(cfg: PipelineConfig, data_dir: str | Path | None = None):
    """Assemble the corpus dataset at the configured history length and
    fit the coefficient model at the configured mu, scaled as the mu
    sweep scales it (PENALTY_SCALE).

    Two `fork_map` passes, one task per trajectory file, claimed longest
    first. A first-pass task reads and assembles its trace and returns
    the centered moments of its rows; the model is fitted from those
    blocks merged in corpus order. A second-pass task reads and
    assembles it again and returns each output's sum of squared errors
    under the model, which the caller adds in corpus order for the
    report's train RMSE. No trajectory crosses a pipe, and no process
    expands more than a few thousand rows at a time. The error raised
    is that of the first failing trace in corpus order. The model
    records the plant step, which `rollout` checks.
    """
    out = Path(cfg.output_dir)
    _snapshot(cfg, out)
    files, by_rows = _trajectory_files(data_dir or out, cfg.plant.dt), lambda job: job[2]
    blocks = list(fork_map(partial(_train_rows, cfg.history, cfg.basis), files, key=by_rows))
    moments = sum(blocks[1:], start=blocks[0])
    model = fit_from_moments(moments, cfg.train_mu, n_history=cfg.history,
                             penalty_scale=PENALTY_SCALE)
    model.dt = cfg.plant.dt
    model_to_json(model, out / "model.json")
    sse = sum(fork_map(partial(_train_errors, model), files, key=by_rows))
    per_output = np.sqrt(sse / moments.n_rows)
    aggregate = float(np.sqrt(np.mean(per_output ** 2)))
    report = {name: getattr(model, name)
              for name in ("n", "mu", "penalty_scale", "sparsity", "kkt", "ridge", "sweeps")}
    report.update(rows=moments.n_rows, train_rmse=dict(zip(TARGET_NAMES, per_output.tolist())),
                  train_rmse_aggregate=aggregate)
    write_json(report, out / "train_report.json")
    print(f"train: {moments.n_rows} rows, sparsity {model.sparsity:.3f}, "
          f"aggregate RMSE {aggregate:.4g}")
    return model


def cmd_sweep(cfg: PipelineConfig, data_dir: str | Path | None = None):
    """History sweep, then mu sweep at the selected history length."""
    out = Path(cfg.output_dir)
    _snapshot(cfg, out)
    trajs = load_trajectories(data_dir or out, cfg.plant.dt)
    hist = sweep_history(trajs, cfg.sweep, cfg.basis, cfg.seed)
    hist.to_csv(out / "sweep_history.csv")
    hist.to_json(out / "sweep_history.json")

    mu_rep = sweep_mu(merge([assemble(tr, hist.selected) for tr in trajs]), cfg.sweep,
                      cfg.basis, cfg.seed)
    mu_rep.to_csv(out / "sweep_mu.csv")
    mu_rep.to_json(out / "sweep_mu.json")
    pareto_to_csv(pareto_table(mu_rep), out / "pareto.csv")

    selected = {"n": int(hist.selected), "mu": float(mu_rep.selected)}
    write_json(selected, out / "selected.json")
    print(f"sweep: selected n={selected['n']}, mu={selected['mu']:.3g}")
    return hist, mu_rep


def validation_traces(cfg: PipelineConfig) -> list[CommandTrace]:
    """The fixed validation suite: held-out sine segment, step-stair
    up/down, fall step, and the bundled descent profile."""
    pc = cfg.plant
    clampv = lambda v: float(np.clip(v, pc.e_min, pc.e_max))
    sine = excitation_segment(clampv(600.0), cfg.excitation, pc)
    sine.name = "sine600"
    stair = step_stair_trace([clampv(400.0), clampv(600.0), pc.e_max,
                              clampv(600.0), clampv(400.0)], 5.0, pc)
    fall = step_stair_trace([pc.e_max, pc.e_min], 5.0, pc)
    fall.name = "fall"
    descent = descent_profile(dt=pc.dt)
    return [sine, stair, fall, descent]


def _validation_job(plant_cfg: PlantConfig, job: tuple[CommandTrace, CoefficientModel | None]):
    """One validation job: with no model, the (L, 7) `outputs` matrix of
    the plant's response to the trace; with a model, that of its rollout
    and its (L, 7) raw predictions, or the RolloutDivergenceError it
    raised. Each goes back as it is, with no stacking; the caller, which
    holds the trace, rebuilds the inputs.

    The rollout is seeded from the plant's response to the trace's first
    n commands, whose rows are bitwise the first rows of the full
    response (the plant is causal), so it does not wait for that
    response.
    """
    trace, model = job
    if model is None:
        return simulate(trace, plant_cfg).outputs
    head = CommandTrace(dt=trace.dt, commands=trace.commands[:model.n],
                        status=trace.status[:model.n])
    try:
        pred, raw = rollout(model, trace, simulate(head, plant_cfg))
    except RolloutDivergenceError as err:
        return err
    return pred.outputs, raw


def cmd_validate(cfg: PipelineConfig, model_path: str | Path | None = None,
                 oracle_passthrough: bool = False) -> dict:
    """Run the validation suite against the plant and write reports.

    With oracle_passthrough=True the plant's own response stands in for
    the model (a harness self-check that must report zero error). A
    diverging experiment gets the report {"experiment", "diverged_at"}
    and no time series, and the suite continues.

    Each experiment's plant response and its rollout are two `fork_map`
    tasks, the rollout first, claimed longest trace first: the descent's
    rollout, which sets the suite's wall time, and its plant response
    start at once on two CPUs while the other experiments fill in
    beside them. A task sends back (L, 7) outputs matrices only. The
    caller builds each experiment's (L, 8) inputs matrix once from the
    trace, and its truth and prediction share it: each trajectory is
    that matrix and the outputs received, neither copied. Reports, time
    series (`.npy`, with the columns of `rollout.timeseries_csv` as
    fields) and progress lines are written by the caller in suite order,
    so every file is the same at any CPU count.
    """
    out = Path(cfg.output_dir)
    _snapshot(cfg, out)
    model = None
    if not oracle_passthrough:
        model_path = Path(model_path or out / "model.json")
        if not model_path.exists():
            raise FileNotFoundError(f"model file not found: {model_path}")
        model = model_from_json(model_path)

    val_dir = out / "validation"
    val_dir.mkdir(parents=True, exist_ok=True)
    traces = validation_traces(cfg)
    # With a model, two tasks per experiment: its rollout, then its plant response.
    kinds = (None,) if model is None else (model, None)
    jobs = [(trace, m) for trace in traces for m in kinds]
    results = fork_map(partial(_validation_job, cfg.plant), jobs, key=lambda job: len(job[0]))
    reports = {}
    for trace in traces:
        raw = None
        inputs = np.zeros((len(trace) + 1, 8))   # row 0 zero, as a response records it
        inputs[1:, :4], inputs[1:, 4:] = trace.commands, trace.status
        response = lambda outputs, name: PlantTrajectory(trace.dt, inputs, outputs, name)
        if model is None:
            truth = pred = response(next(results), trace.name)
        else:
            rolled, truth = next(results), response(next(results), trace.name)
            if isinstance(rolled, RolloutDivergenceError):
                reports[trace.name] = {"experiment": trace.name, "diverged_at": rolled.t}
                write_json(reports[trace.name], val_dir / f"{trace.name}_report.json")
                print(f"validate[{trace.name}]: diverged at t={rolled.t:.2f} s")
                continue
            pred, raw = response(rolled[0], trace.name + "_pred"), rolled[1]
        report = error_windows(
            truth, pred, experiment=trace.name,
            sparsity=None if model is None else model.sparsity,
            raw=raw, cfg=cfg.plant)
        report.to_json(val_dir / f"{trace.name}_report.json")
        write_npy(val_dir / f"{trace.name}_timeseries.npy", *_timeseries_columns(truth, pred))
        reports[trace.name] = report
        print(f"validate[{trace.name}]: max|dT|={report.max_thrust_err:.2f} N "
              f"(steady {float(np.max(report.max_err_steady[:4])):.2f} N), "
              f"mass err {report.module_mass_max_err:.3f} kg")
    return reports


__all__ = [
    "PipelineConfig", "cmd_gen_data", "cmd_train", "cmd_sweep", "cmd_validate",
    "load_trajectories", "validation_traces",
]
