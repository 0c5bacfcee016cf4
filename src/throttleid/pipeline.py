"""Batch pipeline: data generation, training, sweeps, validation.

Each stage reads and writes plain CSV/JSON artifacts under an output
directory, and every run writes its resolved configuration next to its
outputs, so a run is reconstructible from its directory alone. All
stages are deterministic given (config, seed): rerunning produces
byte-identical files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .excitation import (ExcitationConfig, build_corpus, corpus_manifest,
                         excitation_segment, step_stair_trace)
from .features import TARGET_NAMES, HistorySpec, assemble, input_width, merge
from .parallel import fork_map, shared_array
from .plant import (CommandTrace, PlantConfig, PlantTrajectory,
                    PropellantDepletedError, read_json, simulate, write_json)
from .regression import (BasisSpec, CoefficientModel, expand, fit_lasso, model_from_json,
                         model_to_json, predict_expanded, rmse)
from .rollout import (RolloutDivergenceError, descent_profile, error_windows,
                      rollout, timeseries_csv)
from .tuning import (PENALTY_SCALE, SweepConfig, pareto_table, pareto_to_csv,
                     sweep_history, sweep_mu)


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of a run. Frozen: a changed config is made with
    `dataclasses.replace`, which propagates the seed and checks the
    sections again."""

    plant: PlantConfig = field(default_factory=PlantConfig)
    excitation: ExcitationConfig = field(default_factory=ExcitationConfig)
    history: HistorySpec = field(default_factory=HistorySpec)
    basis: BasisSpec = field(default_factory=BasisSpec)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    train_mu: float = 3e-5       # L1 weight for cmd_train (PENALTY_SCALE scaled)
    output_dir: str = "runs/default"
    seed: int = 0

    def __post_init__(self):
        if not self.train_mu >= 0.0:
            raise ValueError(f"config key 'train_mu' must be >= 0, got {self.train_mu!r}")
        # The pipeline seed is the master seed for all stages. The stage
        # configs are copied, so a config passed in is never changed.
        object.__setattr__(self, "excitation", replace(self.excitation, seed=self.seed))
        object.__setattr__(self, "sweep", replace(self.sweep, seed=self.seed))
        # the corpus is designed at the excitation's step and range, simulated at the plant's
        for name in ("dt", "e_min", "e_max"):
            ex, pl = getattr(self.excitation, name), getattr(self.plant, name)
            if ex != pl:
                raise ValueError(f"excitation.{name} = {ex} differs from plant.{name} = {pl}")

    def to_json(self, path: str | Path | None = None) -> str:
        return write_json(asdict(self), path)

    @classmethod
    def from_json(cls, source: str | Path) -> "PipelineConfig":
        """Load from a JSON file (a Path) or from JSON text (a str). An
        unknown key, a value of the wrong JSON type, or a section seed that
        the top-level seed would replace raises a ValueError naming it."""
        d = read_json(source)
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, got {type(d).__name__}")
        cfg = _from_document(cls, d, "")
        for name in ("excitation", "sweep"):
            seed = d.get(name, {}).get("seed", cfg.seed)
            if seed != cfg.seed:
                raise ValueError(f"{name}.seed = {seed} differs from seed = {cfg.seed}")
        return cfg


_KINDS = ((bool, "a boolean"), (str, "a string"), (int, "an integer"), (float, "a number"))


def _kind(default) -> str:
    if isinstance(default, tuple):
        return f"a list, each item {_kind(default[0])}"
    return next(name for t, name in _KINDS if isinstance(default, t))


def _fits(value, default) -> bool:
    """Whether a JSON value has the kind of a field's default: ints pass
    for floats, lists for tuples, and bool passes only for bool."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, (bool, str)) or isinstance(value, bool):
        return type(value) is type(default)
    return isinstance(value, int if isinstance(default, int) else (int, float))


def _from_document(cls, d: dict, prefix: str):
    """Dataclass `cls` from a JSON object of its fields, each value of its
    default's kind and each section built alike; errors name prefix + key."""
    defaults = vars(cls())
    unknown = sorted(d.keys() - defaults.keys())
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(prefix + k for k in unknown)}")
    kwargs = {}
    for key, value in d.items():
        default = defaults[key]
        if is_dataclass(default):
            if not isinstance(value, dict):
                raise ValueError(f"config key {prefix + key!r} must be a JSON object, got {value!r}")
            value = _from_document(type(default), value, f"{prefix}{key}.")
        elif not _fits(value, default):
            raise ValueError(f"config key {prefix + key!r} must be {_kind(default)}, got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


def _snapshot(cfg: PipelineConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg.to_json(out / "config.json")


def _gen_trace(plant_cfg: PlantConfig, out: Path, job: tuple[str, CommandTrace]):
    """One corpus trace: write its command CSV, simulate it and write the
    response's CSV, both under the file name given.

    Returns (rows, span, depleted_at): the response's row count, the
    (min, max) command of the engines that are on (None when none is)
    and None; or (0, None, t) when the plant ran dry at time t, in which
    case no trajectory is written.
    """
    fname, trace = job
    trace.to_csv(out / "corpus" / fname)
    try:
        traj = simulate(trace, plant_cfg)
    except PropellantDepletedError as err:
        return 0, None, err.t
    traj.to_csv(out / "trajectories" / fname)
    on = trace.status > 0
    span = (float(trace.commands[on].min()), float(trace.commands[on].max())) \
        if on.any() else None
    return len(traj), span, None


def cmd_gen_data(cfg: PipelineConfig) -> dict:
    """Build the excitation corpus, simulate every trace, write artifacts.

    Writes command CSVs plus manifest under corpus/, simulated plant
    responses under trajectories/, and prints a corpus summary. A trace
    that depletes the plant mid-run is recorded in the manifest and
    excluded from the trajectory set.

    Each trace is one `fork_map` task, which writes its command CSV,
    simulates it and writes its response, formatting both files itself;
    only the row count, the command range and the depletion time come
    back. The manifest and the summary are written in corpus order, so
    every file is the same whatever the CPU count.
    """
    out = Path(cfg.output_dir)
    _snapshot(cfg, out)
    corpus = build_corpus(cfg.excitation)
    manifest = corpus_manifest(corpus, cfg.excitation)
    entries = manifest["segments"]
    for sub in ("corpus", "trajectories"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    jobs = [(entry["file"], trace) for entry, trace in zip(entries, corpus)]
    n_samples = 0
    cmd_lo, cmd_hi = np.inf, -np.inf
    for entry, (rows, span, depleted_at) in zip(
            entries, fork_map(partial(_gen_trace, cfg.plant, out), jobs)):
        if depleted_at is not None:
            entry["depleted_at"] = depleted_at
            entry["trajectory"] = None
            continue
        entry["trajectory"] = entry["file"]
        n_samples += rows
        if span is not None:
            cmd_lo, cmd_hi = min(cmd_lo, span[0]), max(cmd_hi, span[1])
    write_json(manifest, out / "corpus" / "manifest.json")
    print(f"corpus: {len(corpus)} traces, {n_samples} simulated samples, "
          f"commands span [{cmd_lo:.1f}, {cmd_hi:.1f}] N")
    return manifest


def _trajectory_files(data_dir: str | Path) -> list[tuple[str, Path]]:
    """(name, trajectory CSV) of every trace that the corpus manifest under
    `data_dir` lists with a trajectory, in corpus order; FileNotFoundError
    when there is none."""
    data_dir = Path(data_dir)
    manifest = read_json(data_dir / "corpus" / "manifest.json")
    files = [(entry["name"], data_dir / "trajectories" / entry["trajectory"])
             for entry in manifest["segments"] if entry.get("trajectory")]
    if not files:
        raise FileNotFoundError(f"no trajectories under {data_dir}")
    return files


def load_trajectories(data_dir: str | Path) -> list[PlantTrajectory]:
    return [PlantTrajectory.from_csv(path, name=name)
            for name, path in _trajectory_files(data_dir)]


def _csv_rows(path: Path) -> int:
    """The number of lines after the first in a text file."""
    text = path.read_bytes()
    return text.count(b"\n") + (not text.endswith(b"\n")) - 1


def _train_rows(history: HistorySpec, basis: BasisSpec, phi: np.ndarray,
                targets: np.ndarray, job: tuple[str, Path, int, int]) -> None:
    """One `cmd_train` task: read a trace's trajectory CSV, check that it
    holds the `rows` rows counted in the file, assemble and expand it,
    and write its dataset rows into phi and targets from row `lo` on."""
    name, path, rows, lo = job
    traj = PlantTrajectory.from_csv(path, name=name)
    if len(traj) != rows:
        raise ValueError(f"{path}: {len(traj)} rows parsed, {rows} counted")
    ds = assemble(traj, history)
    phi[lo:lo + len(ds)] = expand(ds.inputs, basis)
    targets[lo:lo + len(ds)] = ds.targets


def cmd_train(cfg: PipelineConfig, data_dir: str | Path | None = None):
    """Assemble the corpus dataset at the configured history length and
    fit the coefficient model at the configured mu, scaled as the mu
    sweep scales it (PENALTY_SCALE).

    The expanded design matrix and the targets are built in place: the
    rows of every trajectory CSV are counted first, both matrices are
    allocated with `shared_array`, and each trace is one `fork_map`
    task that reads, assembles and expands it and writes its rows into
    its own row range. Rows come in corpus order, each trace's in time
    order, so both matrices are bitwise those of `expand` applied to
    the merged dataset, and the error raised is that of the first
    failing trace in corpus order (a missing file is found while
    counting, before any trace is read).
    """
    out = Path(cfg.output_dir)
    _snapshot(cfg, out)
    n = cfg.history.n
    jobs, total = [], 0
    for name, path in _trajectory_files(data_dir or out):
        rows = _csv_rows(path)
        jobs.append((name, path, rows, total))
        total += max(rows - n, 0)
    phi = shared_array((total, cfg.basis.width(input_width(n))))
    targets = shared_array((total, len(TARGET_NAMES)))
    for _ in fork_map(partial(_train_rows, cfg.history, cfg.basis, phi, targets), jobs):
        pass
    model = fit_lasso(phi, targets, cfg.train_mu, basis=cfg.basis, n_history=n,
                      penalty_scale=PENALTY_SCALE)
    model_to_json(model, out / "model.json")
    per_output, aggregate = rmse(predict_expanded(model, phi), targets)
    report = {
        "rows": total,
        "n": n,
        "mu": cfg.train_mu,
        "penalty_scale": PENALTY_SCALE,
        "train_rmse": {k: float(v) for k, v in zip(TARGET_NAMES, per_output)},
        "train_rmse_aggregate": aggregate,
        "sparsity": model.sparsity,
        "kkt": model.kkt,
        "ridge": model.ridge,
        "sweeps": model.sweeps,
    }
    write_json(report, out / "train_report.json")
    print(f"train: {total} rows, sparsity {model.sparsity:.3f}, "
          f"aggregate RMSE {aggregate:.4g}")
    return model


def cmd_sweep(cfg: PipelineConfig, data_dir: str | Path | None = None):
    """History sweep, then mu sweep at the selected history length."""
    out = Path(cfg.output_dir)
    _snapshot(cfg, out)
    trajs = load_trajectories(data_dir or out)
    hist = sweep_history(trajs, cfg.sweep, cfg.basis)
    hist.to_csv(out / "sweep_history.csv")
    hist.to_json(out / "sweep_history.json")

    mu_rep = sweep_mu(merge([assemble(tr, hist.selected) for tr in trajs]), cfg.sweep, cfg.basis)
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
    ex = cfg.excitation
    clampv = lambda v: float(np.clip(v, ex.e_min, ex.e_max))
    sine = excitation_segment(clampv(600.0), ex)
    sine.name = "sine600"
    stair = step_stair_trace([clampv(400.0), clampv(600.0), ex.e_max,
                              clampv(600.0), clampv(400.0)], 5.0, ex)
    fall = step_stair_trace([ex.e_max, ex.e_min], 5.0, ex)
    fall.name = "fall"
    descent = descent_profile(dt=ex.dt)
    return [sine, stair, fall, descent]


def _validation_job(plant_cfg: PlantConfig, job: tuple[CommandTrace, CoefficientModel | None]):
    """One validation job: with no model, the plant's response to the
    trace; with a model, its rollout as (prediction, raw), or the
    RolloutDivergenceError it raised.

    The rollout is seeded from the plant's response to the trace's first
    n commands, whose rows are bitwise the first rows of the full
    response (the plant is causal), so it does not wait for that
    response.
    """
    trace, model = job
    if model is None:
        return simulate(trace, plant_cfg)
    head = CommandTrace(dt=trace.dt, commands=trace.commands[:model.n],
                        status=trace.status[:model.n])
    try:
        return rollout(model, trace, simulate(head, plant_cfg), collect_raw=True)
    except RolloutDivergenceError as err:
        return err


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
    beside them. Reports, time series and progress lines are written by
    the caller, in suite order, so every file is the same whatever the
    CPU count.
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
        if model is None:
            truth = pred = next(results)
        else:
            rolled, truth = next(results), next(results)
            if isinstance(rolled, RolloutDivergenceError):
                reports[trace.name] = {"experiment": trace.name, "diverged_at": rolled.t}
                write_json(reports[trace.name], val_dir / f"{trace.name}_report.json")
                print(f"validate[{trace.name}]: diverged at t={rolled.t:.2f} s")
                continue
            pred, raw = rolled
        report = error_windows(
            truth, pred, experiment=trace.name,
            sparsity=None if model is None else model.sparsity,
            raw=raw, cfg=cfg.plant)
        report.to_json(val_dir / f"{trace.name}_report.json")
        timeseries_csv(truth, pred, val_dir / f"{trace.name}_timeseries.csv")
        reports[trace.name] = report
        print(f"validate[{trace.name}]: max|dT|={report.max_thrust_err:.2f} N "
              f"(steady {float(np.max(report.max_err_steady[:4])):.2f} N), "
              f"mass err {report.module_mass_max_err:.3f} kg")
    return reports


__all__ = [
    "PipelineConfig", "cmd_gen_data", "cmd_train", "cmd_sweep", "cmd_validate",
    "load_trajectories", "validation_traces",
]
