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

The layout is written once. `build_row` gives the order of the slots,
and `_gather_index` applies it to flat offsets into a time-major buffer
holding every channel of a trajectory, one row per sample. `assemble`
reads every row of a trajectory's buffer through that index, and the
rollout reads each step's row from its own buffer through the same
index, so training and rollout use the same offsets by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import PlantTrajectory

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


def lambda_feature(m_f, m_o):
    """Regularized inverse of total ejected mass:
    LAMBDA_SCALE / (m_f + m_o + LAMBDA_EPS)."""
    m_f = np.asarray(m_f, dtype=float)
    m_o = np.asarray(m_o, dtype=float)
    if np.any(m_f < 0.0) or np.any(m_o < 0.0):
        raise ValueError("ejected masses must be non-negative")
    return LAMBDA_SCALE / (m_f + m_o + LAMBDA_EPS)


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
    """Supervised pairs at history length n: one input row and one
    target row per sample."""

    inputs: np.ndarray    # (N, 11n+10)
    targets: np.ndarray   # (N, 7)
    n: int

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


# Columns of the time-major buffer that every input row is gathered
# from, one row per sample: commanded thrust, the seven outputs
# (delivered thrust, pressure, fuel and oxidizer mass), lambda of that
# row's masses, and engine status. The outputs and lambda are adjacent,
# so a rollout step writes its sample with one row assignment.
_TR, _TO, _P, _MF, _MO, _LAM, _SE = 0, 4, 8, 9, 10, 11, 12
_WIDTH = 16


def _output_columns(traj: PlantTrajectory) -> list[np.ndarray]:
    """A trajectory's outputs, in TARGET_NAMES order. `_buffer` stacks
    them without first copying them into an (L, 7) matrix."""
    return [traj.thrusts, traj.pressures, traj.m_fuel, traj.m_ox]


def _outputs(traj: PlantTrajectory) -> np.ndarray:
    """The (L, 7) output matrix of a trajectory."""
    return np.column_stack(_output_columns(traj))


def _buffer(traj: PlantTrajectory) -> np.ndarray:
    """The (L, _WIDTH) time-major buffer of a trajectory."""
    return np.column_stack([traj.commands, *_output_columns(traj),
                            lambda_feature(traj.m_fuel, traj.m_ox), traj.status])


def build_row(tr_cur, tr_hist, to_hist, p_cur, p_hist, mf_hist, mo_hist,
              se_cur, lam) -> np.ndarray:
    """Assemble one input row from its blocks, in the input layout.

    tr_hist / to_hist are (n, 4) arrays ordered lag 1..n; histories are
    flattened engine-major. `_gather_index` applies it to buffer
    offsets, so this is the one place the slot order is written.
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


def _gather_index(n: int) -> np.ndarray:
    """Flat offsets into the buffer rows t-n .. t that read sample t's
    input row, built by `build_row` itself. Pressure and lambda are read
    from row t-1, the latest sample available at prediction time."""
    lag = (n - np.arange(1, n + 1)) * _WIDTH      # rows t-1 .. t-n
    cur = n * _WIDTH                                # row t
    eng = np.arange(4)
    return build_row(cur + _TR + eng, lag[:, None] + _TR + eng, lag[:, None] + _TO + eng,
                     lag[0] + _P, lag + _P, lag + _MF, lag + _MO,
                     cur + _SE + eng, lag[0] + _LAM).astype(np.intp)


def _input_windows(buf: np.ndarray, n: int) -> np.ndarray:
    """(L-n, (n+1)*w) read-only view of a buffer of L rows of w values
    each, whose row t-n spans its rows t-n .. t: the window
    `_gather_index` reads from (w = _WIDTH, or 2 * _WIDTH for the
    rollout's buffer, which carries each value's square after it)."""
    w = buf[0].size
    return np.lib.stride_tricks.sliding_window_view(buf.reshape(-1), (n + 1) * w)[::w]


def assemble(traj: PlantTrajectory, spec: HistorySpec | int) -> Dataset:
    """Build the supervised dataset of a single trajectory.

    One row per sample t in [n, len); raises if the trajectory is too
    short to provide even one row, or if any of its ejected masses is
    negative. Row t's inputs are the gather index applied to the buffer
    rows t-n .. t, and its targets are row t's outputs.
    """
    n = spec.n if isinstance(spec, HistorySpec) else int(spec)
    if n < 1:
        raise ValueError("history length must be >= 1")
    L = len(traj)
    if L <= n:
        raise ValueError(f"trajectory of length {L} too short for history n={n}")

    buf = _buffer(traj)
    # A row index broadcast against the column index gathers straight
    # into a C-ordered array; `windows[:, index]` would come out
    # Fortran-ordered and `np.take` would first copy every window.
    rows = np.arange(L - n)[:, None]
    return Dataset(inputs=_input_windows(buf, n)[rows, _gather_index(n)],
                   targets=buf[n:, _TO:_MO + 1].copy(), n=n)


def merge(datasets: list[Dataset]) -> Dataset:
    """Row-concatenate datasets sharing the same history length."""
    if not datasets:
        raise ValueError("merge of an empty dataset list")
    n = datasets[0].n
    if any(ds.n != n for ds in datasets):
        raise ValueError("cannot merge datasets with mismatched history lengths")
    return Dataset(inputs=np.concatenate([ds.inputs for ds in datasets], axis=0),
                   targets=np.concatenate([ds.targets for ds in datasets], axis=0), n=n)


def kfold_indices(n_rows: int, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic k-fold row partition as (train, test) index pairs.

    The folds split a seeded permutation of the rows, so adjacent
    samples of one trace can land in both train and test.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n_rows:
        raise ValueError(f"k={k} exceeds dataset size {n_rows}")
    order = np.random.default_rng(seed).permutation(n_rows)
    folds = np.array_split(order, k)
    pairs = []
    for i in range(k):
        test = np.sort(folds[i])
        train = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        pairs.append((train, test))
    return pairs


__all__ = [
    "HistorySpec", "Dataset", "TARGET_NAMES", "LAMBDA_SCALE", "LAMBDA_EPS",
    "input_width", "lambda_feature", "feature_names",
    "assemble", "build_row", "merge", "kfold_indices",
]
