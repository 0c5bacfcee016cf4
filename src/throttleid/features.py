"""History-extended supervised dataset construction.

Each trajectory row t >= n becomes one training pair: the input stacks
the current commands, per-engine command and thrust histories, a feed
pressure value plus its history, ejected-mass histories, engine status,
and the regularized inverse ejected mass; the target is the 7-vector of
current outputs (4 thrusts, pressure, fuel mass, oxidizer mass).

Input layout, in order (width 11n + 10):

    Tr(4) | Tr hist (4n) | To hist (4n) | P(1) | P hist (n)
         | mf hist (n) | mo hist (n) | Se(4) | lambda(1)

Histories are engine-major, lags 1..n ([x_{t-1}, ..., x_{t-n}] per
channel) and never include the current sample.

The standalone pressure and inverse-mass slots hold the latest value
available when a prediction is made, which is the previous sample:
multi-step rollout fills them with the model's own prior prediction,
so training fills them with P(t-1) and lambda(m(t-1)). Filling them
with the time-t values instead would teach an identity shortcut onto
the pressure/mass targets that is exact in training yet one step stale
in deployment, which wrecks multi-step prediction. Only the commanded
thrust and engine status slots are truly current; those are exogenous
inputs known ahead of time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .plant import PlantTrajectory, write_csv

TARGET_NAMES = ["To1", "To2", "To3", "To4", "P", "mf", "mo"]

LAMBDA_SCALE = 1.0  # c_lambda [kg]
LAMBDA_EPS = 1.0    # regularizer [kg]; keeps lambda finite at zero ejected mass


@dataclass
class HistorySpec:
    """Uniform history length (in samples) for all historied features."""

    n: int = 6

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("history length must be >= 1")


def input_width(n: int) -> int:
    return 11 * n + 10


def extend_state(series: np.ndarray, t: int, n: int) -> np.ndarray:
    """History vector [x_{t-1}, x_{t-2}, ..., x_{t-n}] of a scalar series."""
    if t < n:
        raise ValueError(f"insufficient history: t={t} < n={n}")
    series = np.asarray(series)
    return series[t - 1:t - n - 1 if t - n - 1 >= 0 else None:-1][:n].copy()


def lambda_feature(m_f, m_o, eps: float = LAMBDA_EPS, scale: float = LAMBDA_SCALE):
    """Regularized inverse of total ejected mass: scale / (m_f + m_o + eps)."""
    m_f = np.asarray(m_f, dtype=float)
    m_o = np.asarray(m_o, dtype=float)
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    if np.any(m_f < 0.0) or np.any(m_o < 0.0):
        raise ValueError("ejected masses must be non-negative")
    return scale / (m_f + m_o + eps)


def feature_names(n: int) -> list[str]:
    names = [f"Tr{j}" for j in range(1, 5)]
    names += [f"Tr{j}_m{h}" for j in range(1, 5) for h in range(1, n + 1)]
    names += [f"To{j}_m{h}" for j in range(1, 5) for h in range(1, n + 1)]
    names += ["P"]
    names += [f"P_m{h}" for h in range(1, n + 1)]
    names += [f"mf_m{h}" for h in range(1, n + 1)]
    names += [f"mo_m{h}" for h in range(1, n + 1)]
    names += [f"Se{j}" for j in range(1, 5)]
    names += ["lam"]
    assert len(names) == input_width(n)
    return names


@dataclass
class Dataset:
    """Supervised pairs plus the provenance of every row."""

    inputs: np.ndarray    # (N, 11n+10)
    targets: np.ndarray   # (N, 7)
    n: int
    trace_names: list[str]
    row_trace: np.ndarray  # (N,) index into trace_names

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must have equal row counts")
        if self.inputs.shape[1] != input_width(self.n):
            raise ValueError(
                f"input width {self.inputs.shape[1]} != 11n+10 = {input_width(self.n)}")
        if self.targets.ndim != 2 or self.targets.shape[1] != 7:
            raise ValueError("targets must have width 7")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise ValueError("dataset contains non-finite values")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def select(self, rows: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[rows], self.targets[rows], self.n,
                       list(self.trace_names), self.row_trace[rows])


def _history_block(series: np.ndarray, n: int) -> np.ndarray:
    """(L-n, n) matrix whose row (t-n) is [x_{t-1}, ..., x_{t-n}]."""
    L = series.shape[0]
    return np.stack([series[n - h:L - h] for h in range(1, n + 1)], axis=1)


def assemble(traj: PlantTrajectory, spec: HistorySpec | int) -> Dataset:
    """Build the supervised dataset of a single trajectory.

    One row per sample t in [n, len); raises if the trajectory is too
    short to provide even one row.
    """
    n = spec.n if isinstance(spec, HistorySpec) else int(spec)
    if n < 1:
        raise ValueError("history length must be >= 1")
    L = len(traj)
    if L <= n:
        raise ValueError(f"trajectory of length {L} too short for history n={n}")

    blocks = [traj.commands[n:]]
    blocks += [_history_block(traj.commands[:, j], n) for j in range(4)]
    blocks += [_history_block(traj.thrusts[:, j], n) for j in range(4)]
    blocks += [traj.pressures[n - 1:L - 1, None]]   # latest available = t-1
    blocks += [_history_block(traj.pressures, n)]
    blocks += [_history_block(traj.m_fuel, n)]
    blocks += [_history_block(traj.m_ox, n)]
    blocks += [traj.status[n:]]
    blocks += [lambda_feature(traj.m_fuel[n - 1:L - 1],
                              traj.m_ox[n - 1:L - 1])[:, None]]
    inputs = np.concatenate(blocks, axis=1)

    targets = np.concatenate(
        [traj.thrusts[n:], traj.pressures[n:, None],
         traj.m_fuel[n:, None], traj.m_ox[n:, None]], axis=1)

    name = traj.name or "trace"
    return Dataset(inputs=inputs, targets=targets, n=n,
                   trace_names=[name],
                   row_trace=np.zeros(L - n, dtype=np.intp))


def build_row(tr_cur, tr_hist, to_hist, p_cur, p_hist, mf_hist, mo_hist,
              se_cur, lam) -> np.ndarray:
    """Assemble one input row from its blocks, in the `assemble` layout.

    tr_hist / to_hist are (n, 4) arrays ordered lag 1..n; histories are
    flattened engine-major to match `assemble`. The rollout applies it
    once to buffer offsets to build its per-step gather index.
    """
    return np.concatenate([
        np.asarray(tr_cur, dtype=float),
        np.asarray(tr_hist, dtype=float).T.ravel(),
        np.asarray(to_hist, dtype=float).T.ravel(),
        [float(p_cur)],
        np.asarray(p_hist, dtype=float),
        np.asarray(mf_hist, dtype=float),
        np.asarray(mo_hist, dtype=float),
        np.asarray(se_cur, dtype=float),
        [float(lam)],
    ])


def merge(datasets: list[Dataset]) -> Dataset:
    """Row-concatenate datasets sharing the same history length."""
    if not datasets:
        raise ValueError("merge of an empty dataset list")
    n = datasets[0].n
    if any(ds.n != n for ds in datasets):
        raise ValueError("cannot merge datasets with mismatched history lengths")
    names: list[str] = []
    rows = []
    for ds in datasets:
        offset = len(names)
        names.extend(ds.trace_names)
        rows.append(ds.row_trace + offset)
    return Dataset(
        inputs=np.concatenate([ds.inputs for ds in datasets], axis=0),
        targets=np.concatenate([ds.targets for ds in datasets], axis=0),
        n=n, trace_names=names, row_trace=np.concatenate(rows))


def kfold_indices(n_rows: int, k: int, seed: int,
                  contiguous: bool = False) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic k-fold row partition as (train, test) index pairs."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n_rows:
        raise ValueError(f"k={k} exceeds dataset size {n_rows}")
    if contiguous:
        order = np.arange(n_rows)
    else:
        order = np.random.default_rng(seed).permutation(n_rows)
    folds = np.array_split(order, k)
    pairs = []
    for i in range(k):
        test = np.sort(folds[i])
        train = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        pairs.append((train, test))
    return pairs


def split_kfold(ds: Dataset, k: int, seed: int,
                contiguous: bool = False) -> list[tuple[Dataset, Dataset]]:
    """Deterministic k-fold partition into (train, test) dataset pairs.

    With contiguous=True the folds are consecutive row blocks (no
    shuffling), which avoids temporal leakage between adjacent samples
    of one trace.
    """
    return [(ds.select(train), ds.select(test))
            for train, test in kfold_indices(len(ds), k, seed, contiguous)]


def dataset_to_csv(ds: Dataset, path: str | Path) -> None:
    """CSV of inputs and targets plus a JSON sidecar with n and provenance."""
    path = Path(path)
    header = feature_names(ds.n) + [f"Y_{t}" for t in TARGET_NAMES]
    write_csv(path, ",".join(header), [ds.inputs, ds.targets])
    sidecar = {
        "n": ds.n,
        "lambda_scale": LAMBDA_SCALE,
        "lambda_eps": LAMBDA_EPS,
        "trace_names": ds.trace_names,
        "rows_per_trace": np.bincount(ds.row_trace, minlength=len(ds.trace_names)).tolist(),
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def dataset_from_csv(path: str | Path) -> Dataset:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = int(sidecar["n"])
    width = input_width(n)
    counts = sidecar["rows_per_trace"]
    row_trace = np.repeat(np.arange(len(counts)), counts)
    return Dataset(inputs=data[:, :width], targets=data[:, width:], n=n,
                   trace_names=list(sidecar["trace_names"]), row_trace=row_trace)


__all__ = [
    "HistorySpec", "Dataset", "TARGET_NAMES", "LAMBDA_SCALE", "LAMBDA_EPS",
    "input_width", "extend_state", "lambda_feature", "feature_names",
    "assemble", "build_row", "merge", "kfold_indices", "split_kfold",
    "dataset_to_csv", "dataset_from_csv",
]
