"""Batch pipeline: data generation, training, sweeps, validation.

Each stage reads and writes plain CSV/JSON artifacts under an output
directory, and every run writes its resolved configuration next to its
outputs, so a run is reconstructible from its directory alone. All
stages are deterministic given (config, seed): rerunning produces
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import plant as plant_mod
from .excitation import (ExcitationConfig, build_corpus, excitation_segment,
                         save_corpus, step_stair_trace)
from .features import TARGET_NAMES, HistorySpec, assemble, merge
from .plant import (CommandTrace, PlantConfig, PlantTrajectory,
                    PropellantDepletedError, read_json, simulate)
from .regression import (BasisSpec, expand, fit_lasso, model_from_json,
                         model_to_json, predict_expanded, rmse)
from .rollout import (RolloutDivergenceError, descent_profile, error_windows,
                      rollout, timeseries_csv)
from .tuning import (OBJ_REL_TOL, PENALTY_SCALE, SweepConfig, pareto_table, pareto_to_csv,
                     sweep_history, sweep_mu)


@dataclass
class PipelineConfig:
    plant: PlantConfig = field(default_factory=PlantConfig)
    excitation: ExcitationConfig = field(default_factory=ExcitationConfig)
    history: HistorySpec = field(default_factory=HistorySpec)
    basis: BasisSpec = field(default_factory=BasisSpec)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    train_mu: float = 3e-5       # L1 weight for cmd_train (PENALTY_SCALE scaled)
    output_dir: str = "runs/default"
    seed: int = 0

    def __post_init__(self):
        # The pipeline seed is the master seed for all stages. The stage
        # configs are copied, so a config passed in is never changed.
        self.excitation = replace(self.excitation, seed=self.seed)
        self.sweep = replace(self.sweep, seed=self.seed)

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps(asdict(self), sort_keys=True, indent=2)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "PipelineConfig":
        """Load from a JSON file (a Path) or from JSON text (a str).

        Unknown keys are rejected, so a setting that is no longer
        configurable is not silently dropped.
        """
        d = read_json(source)
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = {}
        if "plant" in d:
            kwargs["plant"] = PlantConfig(**d["plant"])
        if "excitation" in d:
            kwargs["excitation"] = ExcitationConfig(**d["excitation"])
        if "history" in d:
            kwargs["history"] = HistorySpec(**d["history"])
        if "basis" in d:
            kwargs["basis"] = BasisSpec(**d["basis"])
        if "sweep" in d:
            sw = dict(d["sweep"])
            for key in ("n_grid", "mu_grid"):
                if key in sw:
                    sw[key] = tuple(sw[key])
            kwargs["sweep"] = SweepConfig(**sw)
        for key in ("train_mu", "output_dir", "seed"):
            if key in d:
                kwargs[key] = d[key]
        return cls(**kwargs)


def _snapshot(cfg: PipelineConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg.to_json(out / "config.json")


def cmd_gen_data(cfg: PipelineConfig) -> dict:
    """Build the excitation corpus, simulate every trace, write artifacts.

    Writes command CSVs plus manifest under corpus/, simulated plant
    responses under trajectories/, and prints a corpus summary. A trace
    that depletes the plant mid-run is recorded in the manifest and
    excluded from the trajectory set.
    """
    out = Path(cfg.output_dir)
    _snapshot(cfg, out)
    corpus = build_corpus(cfg.excitation)
    manifest = save_corpus(corpus, cfg.excitation, out / "corpus")

    traj_dir = out / "trajectories"
    traj_dir.mkdir(parents=True, exist_ok=True)
    n_samples = 0
    cmd_lo, cmd_hi = np.inf, -np.inf
    for entry, trace in zip(manifest["segments"], corpus):
        try:
            traj = simulate(trace, cfg.plant)
        except PropellantDepletedError as err:
            entry["depleted_at"] = err.t
            entry["trajectory"] = None
            continue
        fname = entry["file"]
        entry["trajectory"] = fname
        traj.to_csv(traj_dir / fname)
        n_samples += len(traj)
        on = trace.status > 0
        if on.any():
            cmd_lo = min(cmd_lo, float(trace.commands[on].min()))
            cmd_hi = max(cmd_hi, float(trace.commands[on].max()))
    (out / "corpus" / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"corpus: {len(corpus)} traces, {n_samples} simulated samples, "
          f"commands span [{cmd_lo:.1f}, {cmd_hi:.1f}] N")
    return manifest


def load_trajectories(data_dir: str | Path) -> list[PlantTrajectory]:
    data_dir = Path(data_dir)
    manifest = json.loads((data_dir / "corpus" / "manifest.json").read_text())
    out = []
    for entry in manifest["segments"]:
        if not entry.get("trajectory"):
            continue
        out.append(PlantTrajectory.from_csv(
            data_dir / "trajectories" / entry["trajectory"], name=entry["name"]))
    if not out:
        raise FileNotFoundError(f"no trajectories under {data_dir}")
    return out


def cmd_train(cfg: PipelineConfig, data_dir: str | Path | None = None):
    """Assemble the corpus dataset at the configured history length and
    fit the coefficient model at the configured mu, scaled as the mu
    sweep scales it (PENALTY_SCALE)."""
    out = Path(cfg.output_dir)
    _snapshot(cfg, out)
    trajs = load_trajectories(data_dir or out)
    ds = merge([assemble(tr, cfg.history) for tr in trajs])
    phi = expand(ds.inputs, cfg.basis)
    model = fit_lasso(phi, ds.targets, cfg.train_mu, basis=cfg.basis, n_history=ds.n,
                      penalty_scale=PENALTY_SCALE, obj_rel_tol=OBJ_REL_TOL)
    model_to_json(model, out / "model.json")
    per_output, aggregate = rmse(predict_expanded(model, phi), ds.targets)
    report = {
        "rows": len(ds),
        "n": ds.n,
        "mu": cfg.train_mu,
        "penalty_scale": PENALTY_SCALE,
        "train_rmse": {k: float(v) for k, v in zip(TARGET_NAMES, per_output)},
        "train_rmse_aggregate": aggregate,
        "sparsity": model.sparsity,
        "kkt": model.kkt,
        "sweeps": model.sweeps,
    }
    (out / "train_report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"train: {len(ds)} rows, sparsity {model.sparsity:.3f}, "
          f"aggregate RMSE {aggregate:.4g}")
    return model


def cmd_sweep(cfg: PipelineConfig, data_dir: str | Path | None = None):
    """History sweep, then mu sweep at the selected history length."""
    out = Path(cfg.output_dir)
    _snapshot(cfg, out)
    trajs = load_trajectories(data_dir or out)
    datasets = {n: merge([assemble(tr, n) for tr in trajs]) for n in cfg.sweep.n_grid}
    hist = sweep_history(datasets, cfg.sweep, cfg.basis)
    hist.to_csv(out / "sweep_history.csv")
    hist.to_json(out / "sweep_history.json")

    mu_rep = sweep_mu(datasets[hist.selected], cfg.sweep, cfg.basis)
    mu_rep.to_csv(out / "sweep_mu.csv")
    mu_rep.to_json(out / "sweep_mu.json")
    pareto_to_csv(pareto_table(mu_rep), out / "pareto.csv")

    selected = {"n": int(hist.selected), "mu": float(mu_rep.selected)}
    (out / "selected.json").write_text(
        json.dumps(selected, sort_keys=True, indent=2) + "\n")
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
    stair.name = "stair"
    fall = step_stair_trace([ex.e_max, ex.e_min], 5.0, ex)
    fall.name = "fall"
    descent = descent_profile(dt=ex.dt)
    return [sine, stair, fall, descent]


def cmd_validate(cfg: PipelineConfig, model_path: str | Path | None = None,
                 oracle_passthrough: bool = False) -> dict:
    """Run the validation suite against the plant and write reports.

    With oracle_passthrough=True the plant's own response stands in for
    the model (a harness self-check that must report zero error). A
    diverging experiment gets the report {"experiment", "diverged_at"}
    and no time series, and the suite continues.
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
    reports = {}
    for trace in validation_traces(cfg):
        truth = simulate(trace, cfg.plant)
        raw = None
        if oracle_passthrough:
            pred = truth
        else:
            try:
                pred, raw = rollout(model, trace, truth, collect_raw=True)
            except RolloutDivergenceError as err:
                reports[trace.name] = {"experiment": trace.name, "diverged_at": err.t}
                (val_dir / f"{trace.name}_report.json").write_text(
                    json.dumps(reports[trace.name], sort_keys=True, indent=2) + "\n")
                print(f"validate[{trace.name}]: diverged at t={err.t:.2f} s")
                continue
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
