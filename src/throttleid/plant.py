"""Surrogate four-engine throttleable propulsion plant.

A deterministic, nonlinear, pressure-coupled lumped model of a
pressure-fed bipropellant system with four throttleable engines. It is
the "true" plant for this repository: every training and validation
trajectory is generated here.

Model, per engine:
    - the flow-control valve position follows a first-order lag toward
      the commanded throttle fraction, with a faster opening than
      closing time constant (tau_rise < tau_fall),
    - delivered thrust is e_max * valve_pos * sqrt(p_tank / p_reg)
      (square-root feed-pressure coupling), rate-limited by a slew
      bound and floored at zero,
    - propellant mass flow is thrust / (isp * G0), split between fuel
      and oxidizer by a fixed mixture ratio.

Feed pressure is the regulated tank pressure minus a droop
proportional to total mass flow; the pressurant bottle blows down
isothermally as gas expands into the volume vacated by ejected
propellant. All integration is explicit Euler at cfg.dt, except the
ejected-mass bookkeeping which uses the trapezoid of the thrust at the
two ends of each step (so recorded mass increments are exactly
consistent with recorded thrusts).

`simulate` runs one scalar kernel over the whole command trace and
writes its samples into the output arrays a block at a time; `step` is a
one-row run of the same kernel, so there is one implementation of the
physics and a trajectory is bitwise the fold of `step`.

Repo-chosen constants (sampling rate, thrust floor, pressure levels,
mixture ratio, module mass) are engineering defaults, not values taken
from any flight system.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, is_dataclass
from pathlib import Path

import numpy as np

# Effective liquid propellant density used for the bottle blowdown
# volume bookkeeping [kg/m^3]. Mass-weighted MMH/NTO estimate; only the
# slow p_bottle trend depends on it.
PROPELLANT_DENSITY = 1200.0

# Standard gravity [m/s^2]: converts a specific impulse in seconds into
# an exhaust velocity.
G0 = 9.80665

# Rows that the plant kernel converts at a time. Small blocks bound
# memory on long traces and keep each temporary below glibc's mmap
# threshold: freeing a larger buffer raises that threshold, which moves
# later mid-size temporaries onto the heap (whole-trace blocks raised a
# peak RSS by ~7%).
_BLOCK = 256
_NPY_ROWS = 4096   # rows per slice that `write_npy` stacks and writes

TRAJECTORY_CSV_HEADER = "t,Tr1,Tr2,Tr3,Tr4,Se1,Se2,Se3,Se4,To1,To2,To3,To4,P,mf,mo"


def read_json(source: str | Path):
    """Parse JSON read from disk when given a Path, or JSON text given as a str."""
    if isinstance(source, Path):
        return json.loads(source.read_text())
    try:
        return json.loads(source)
    except json.JSONDecodeError as err:
        raise ValueError(f"a str is read as JSON text, and {source[:60]!r} is not JSON "
                         f"({err}); pass a file as a Path") from None


def write_json(obj, path: str | Path | None = None) -> str:
    """The artifact JSON text of `obj` (sorted keys, two-space indent),
    also written to `path` with a trailing newline when one is given."""
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


_KINDS = ((bool, "a boolean"), (str, "a string"), (int, "an integer"), (float, "a number"))


def _kind(default) -> str:
    if isinstance(default, tuple):
        return f"a list, each item {_kind(default[0])}"
    return next(name for t, name in _KINDS if isinstance(default, t))


def _fits(value, default) -> bool:
    """Whether a JSON value has the kind of a field's default: ints pass for
    floats, lists for tuples, and bool, str and null pass only for their own."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, (bool, str, type(None))) or isinstance(value, bool):
        return type(value) is type(default)
    return isinstance(value, int if isinstance(default, int) else (int, float))


def _from_document(proto, d: dict, noun: str, complete: bool = False, prefix: str = ""):
    """`type(proto)` from a JSON object of proto's fields, each value of the kind of
    proto's value and each dataclass section built alike. A missing key is an error
    when `complete`, else takes its default; errors name `noun` and prefix + key,
    and a section's own checks are named by the section's path."""
    defaults = vars(proto)
    for label, keys in (("unknown", d.keys() - defaults.keys()),
                        ("missing", defaults.keys() - d.keys() if complete else ())):
        if keys:
            raise ValueError(f"{label} {noun} keys: {', '.join(prefix + k for k in sorted(keys))}")
    kwargs = {}
    for key, value in d.items():
        default, name = defaults[key], prefix + key
        if is_dataclass(default) and isinstance(value, dict):
            value = _from_document(default, value, noun, complete, f"{name}.")
        elif is_dataclass(default) or not _fits(value, default):
            kind = "a JSON object" if is_dataclass(default) else _kind(default)
            raise ValueError(f"{noun} key {name!r} must be {kind}, got {value!r:.80}")
        kwargs[key] = value
    try:
        return type(proto)(**kwargs)
    except ValueError as err:
        if not prefix:
            raise
        raise ValueError(f"{noun} section {prefix[:-1]!r}: {err}") from None


def write_csv(path: str | Path, header: str, columns: list[np.ndarray]) -> None:
    """Numeric CSV: the header line, then one line per row of the
    column-stacked `columns` (1-D or 2-D arrays of equal length), each
    value written as repr(float) so that reading it back is exact.
    Rows are stacked and formatted `_BLOCK` at a time."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _BLOCK):
            rows = np.column_stack([c[lo:lo + _BLOCK] for c in columns]).astype(float).tolist()
            fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))


def write_npy(path: str | Path, names: list[str], columns: list[np.ndarray]) -> None:
    """The bytes of `np.save` of the column-stacked `columns` (1-D or 2-D) as a 1-D
    array with one '<f8' field per name, stacked and written `_NPY_ROWS` rows at a time."""
    rows, dtype = len(columns[0]), np.dtype([(name, "<f8") for name in names])
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {"descr": np.lib.format.dtype_to_descr(dtype),
                                                  "fortran_order": False, "shape": (rows,)})
        for lo in range(0, max(rows, 1), _NPY_ROWS):
            block = np.column_stack([c[lo:lo + _NPY_ROWS] for c in columns])
            if block.shape[1] != len(names):
                raise ValueError(f"{path}: {block.shape[1]} columns for {len(names)} names")
            block.astype("<f8", copy=False).tofile(fh)


class PropellantDepletedError(RuntimeError):
    """Raised when the module mass floor (zero remaining mass) is reached."""

    def __init__(self, t: float, sample: int | None = None):
        self.t = t
        self.sample = sample
        where = f" at sample {sample}" if sample is not None else ""
        super().__init__(f"propellant depleted at t={t:.3f} s{where}")

    def __reduce__(self):
        return type(self), (self.t, self.sample)


@dataclass(frozen=True)
class PlantConfig:
    """Physical constants of the surrogate plant (SI units)."""

    e_min: float = 240.0          # minimum commandable thrust [N]
    e_max: float = 800.0          # engine rating [N]
    p_reg: float = 1.8e6          # regulated tank pressure [Pa]
    p_bottle0: float = 2.4e7      # initial pressurant bottle pressure [Pa]
    v_bottle: float = 0.03        # pressurant bottle volume [m^3]
    droop_coeff: float = 2.0e5    # feed pressure droop [Pa per kg/s]
    tau_rise: float = 0.08        # valve opening time constant [s]
    tau_fall: float = 0.15        # valve closing time constant [s]
    slew_limit: float = 4000.0    # thrust rate bound [N/s]
    isp: float = 285.0            # specific impulse [s]
    mixture_ratio: float = 1.65   # oxidizer/fuel mass ratio
    m_module0: float = 600.0      # initial total module mass [kg]
    dt: float = 0.01              # integration step [s]

    def __post_init__(self):
        if not (0.0 < self.e_min < self.e_max):
            raise ValueError(f"need 0 < e_min < e_max, got {self.e_min}, {self.e_max}")
        for name in ("p_reg", "p_bottle0", "v_bottle", "droop_coeff", "tau_rise",
                     "tau_fall", "slew_limit", "isp", "mixture_ratio", "m_module0", "dt"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.tau_fall < self.tau_rise:
            raise ValueError("tau_fall must be >= tau_rise (closing is the slower path)")

    @property
    def exhaust_velocity(self) -> float:
        """isp * G0 [m/s]; total mass flow is thrust / exhaust_velocity."""
        return self.isp * G0


@dataclass
class PlantState:
    """Instantaneous plant state.

    p_tank is the feed pressure that produced this state's thrust (it
    is recomputed from the running flow at the start of each step).
    """

    t: float
    p_bottle: float
    p_tank: float
    thrust: np.ndarray                 # (4,) delivered thrust [N]
    m_fuel_ejected: float              # cumulative [kg]
    m_ox_ejected: float                # cumulative [kg]
    valve_pos: np.ndarray              # (4,) in [0, 1]


def initial_state(cfg: PlantConfig) -> PlantState:
    """Rest state: full bottle, valves shut, nothing ejected."""
    return PlantState(
        t=0.0,
        p_bottle=cfg.p_bottle0,
        p_tank=min(cfg.p_reg, cfg.p_bottle0),
        thrust=np.zeros(4),
        m_fuel_ejected=0.0,
        m_ox_ejected=0.0,
        valve_pos=np.zeros(4),
    )


@dataclass
class CommandTrace:
    """Commanded thrust and on/off status per engine over time."""

    dt: float
    commands: np.ndarray   # (N, 4) commanded thrust [N]; 0 where an engine is off
    status: np.ndarray     # (N, 4) in {0, 1}
    name: str = ""

    def __post_init__(self):
        self.commands = np.atleast_2d(np.asarray(self.commands, dtype=float))
        self.status = np.atleast_2d(np.asarray(self.status, dtype=float))
        if self.commands.shape != self.status.shape or (
                self.commands.size and self.commands.shape[1] != 4):
            raise ValueError("commands and status must both have shape (N, 4)")
        if not np.isin(self.status, (0.0, 1.0)).all():
            raise ValueError("status entries must be 0 or 1")

    def __len__(self) -> int:
        return self.commands.shape[0]

    @property
    def duration(self) -> float:
        return len(self) * self.dt

    def to_csv(self, path: str | Path) -> None:
        """Command-only CSV (the `t,Tr*,Se*` prefix of the plant schema)."""
        write_csv(path, "t,Tr1,Tr2,Tr3,Tr4,Se1,Se2,Se3,Se4",
                  [np.arange(len(self)) * self.dt, self.commands, self.status])


@dataclass
class PlantTrajectory:
    """Sampled record of a simulation: two matrices of L rows.

    `inputs` is (L, 8), the commanded thrusts Tr1..Tr4 then the engine
    status Se1..Se4; `outputs` is (L, 7) in `features.TARGET_NAMES`
    order, the delivered thrusts To1..To4, then the feed pressure P and
    the cumulative ejected fuel and oxidizer masses mf and mo. The named
    columns are views of them, so writing through one writes the matrix.

    Row 0 is the initial rest sample (zero command); row i >= 1
    corresponds to input sample i-1 of the driving trace. The pressure
    column holds the feed pressure applied during each sample interval,
    so thrusts[i] <= e_max * sqrt(pressures[i] / p_reg) holds exactly.
    """

    dt: float
    inputs: np.ndarray    # (L, 8): Tr1..Tr4, Se1..Se4
    outputs: np.ndarray   # (L, 7): To1..To4, P, mf, mo
    name: str = ""

    commands = property(lambda self: self.inputs[:, :4], doc="(L, 4) commanded thrust [N]")
    status = property(lambda self: self.inputs[:, 4:], doc="(L, 4) engine on/off flags")
    thrusts = property(lambda self: self.outputs[:, :4], doc="(L, 4) delivered thrust [N]")
    pressures = property(lambda self: self.outputs[:, 4], doc="(L,) feed pressure [Pa]")
    m_fuel = property(lambda self: self.outputs[:, 5], doc="(L,) ejected fuel mass [kg]")
    m_ox = property(lambda self: self.outputs[:, 6], doc="(L,) ejected oxidizer mass [kg]")

    def __post_init__(self):
        L = len(self.inputs)
        if self.inputs.shape != (L, 8) or self.outputs.shape != (L, 7):
            raise ValueError(f"inputs of shape {self.inputs.shape} and outputs of shape "
                             f"{self.outputs.shape}: need (L, 8) and (L, 7)")

    def __len__(self) -> int:
        return self.outputs.shape[0]

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self)) * self.dt

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, TRAJECTORY_CSV_HEADER, [self.t, self.inputs, self.outputs])

    @classmethod
    def from_csv(cls, path: str | Path, dt: float, name: str = "") -> "PlantTrajectory":
        """Read a file that `to_csv` wrote at step `dt`; raises ValueError
        naming the file when its first line is not TRAJECTORY_CSV_HEADER,
        a row does not parse, the rows do not hold one value per header
        column, or its `t` column is not 0, dt, 2 dt, ... as `to_csv`
        writes it."""
        width = TRAJECTORY_CSV_HEADER.count(",") + 1
        with open(path) as fh:
            if fh.readline().rstrip("\n") != TRAJECTORY_CSV_HEADER:
                raise ValueError(f"{path}: not a trajectory CSV (the first line is not "
                                 f"{TRAJECTORY_CSV_HEADER!r})")
            start = fh.tell()
            empty = not any(line.strip() for line in iter(fh.readline, ""))
            fh.seek(start)
            try:   # np.loadtxt warns on a file with no rows, so such a file is not parsed
                data = np.empty((0, 0)) if empty else np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as err:   # a value that is no number, or a row of another length
                raise ValueError(f"{path}: {err}") from None
        if not len(data) or data.shape[1] != width:
            raise ValueError(f"{path}: not a trajectory CSV (no rows of {width} values "
                             f"after the header)")
        return cls._from_rows(path, data, dt, name)

    @classmethod
    def _from_rows(cls, path, data: np.ndarray, dt: float, name: str) -> "PlantTrajectory":
        """Inputs and outputs as views of the (L, 16) `data` of file `path`,
        whose `t` is checked."""
        if not np.array_equal(data[:, 0], np.arange(len(data)) * dt):
            raise ValueError(f"{path}: the t column does not step by {dt} s from 0")
        return cls(dt=dt, inputs=data[:, 1:9], outputs=data[:, 9:], name=name)


def _run(state: PlantState, commands: np.ndarray, status: np.ndarray, cfg: PlantConfig,
         outputs: np.ndarray) -> PlantState:
    """The plant physics: one explicit step per row of `commands` / `status`.

    Row i's outputs, in `PlantTrajectory.outputs` order (delivered
    thrusts, feed pressure, cumulative ejected fuel and oxidizer masses),
    are written to outputs[i]; the state after the last row is returned.
    The loop runs on Python floats, one straight-line step for the four
    engines, each engine's valve and thrust held in locals. Its
    operation order is that of the equivalent 4-vector numpy step
    (thrusts summed left to right, e_max * v * s as (e_max * v) * s,
    clips and floors with numpy's signed-zero results, `min`'s tie
    rule), and the factors it hoists out of the loop (dt / tau,
    1 + mixture ratio, p_bottle0 * v_bottle) and the mass flow it
    carries from one row to the next are the floats the step computes,
    so it is bitwise that step. A block of `_BLOCK` rows converts its
    valve targets at once and gathers its outputs, 7 a row, in one flat
    list written to `outputs` with one assignment at its end, so a step
    makes no numpy call.

    Raises ValueError("sample i: ...") at the first non-finite command
    row and at the first row whose feed pressure drops below zero (the
    droop of the established flow exceeds the supply pressure), and
    PropellantDepletedError(sample=i) at the first row that exhausts the
    module mass, whichever comes first.
    """
    finite = np.isfinite(commands).all(axis=1)
    n_ok = len(finite) if finite.all() else int(np.argmin(finite))

    dt, e_min, e_max, p_reg, droop = cfg.dt, cfg.e_min, cfg.e_max, cfg.p_reg, cfg.droop_coeff
    rise, fall = dt / cfg.tau_rise, dt / cfg.tau_fall   # valve rates, opening and closing
    mr, mr1 = cfg.mixture_ratio, 1.0 + cfg.mixture_ratio
    m_module0, v_bottle, pv0 = cfg.m_module0, cfg.v_bottle, cfg.p_bottle0 * cfg.v_bottle
    exhaust, density, sqrt = cfg.exhaust_velocity, PROPELLANT_DENSITY, math.sqrt
    dmax = cfg.slew_limit * dt
    t, p_bottle, p_tank = state.t, state.p_bottle, state.p_tank
    m_fuel, m_ox = state.m_fuel_ejected, state.m_ox_ejected
    T1, T2, T3, T4 = state.thrust.tolist()
    V1, V2, V3, V4 = state.valve_pos.tolist()
    mdot = (((T1 + T2) + T3) + T4) / exhaust   # the flow established before each row
    for start in range(0, n_ok, _BLOCK):
        block = slice(start, min(start + _BLOCK, n_ok))
        # valve targets: off engines track zero, on engines the clipped command
        targets = (np.where(status[block] > 0.0, np.clip(commands[block], e_min, e_max),
                            0.0) / e_max).tolist()
        rows = []
        for i, (a1, a2, a3, a4) in enumerate(targets, start):
            # Feed pressure for this interval, from the flow already established.
            p_tank = (p_bottle if p_bottle < p_reg else p_reg) - droop * mdot
            ratio = p_tank / p_reg
            if not ratio >= 0.0:
                raise ValueError(f"sample {i}: feed pressure {p_tank:.6g} Pa below zero "
                                 f"at t={t:.3f} s")
            s = sqrt(ratio)
            # Per engine: the valve lags toward its target, faster opening
            # than closing, clipped to [0, 1]; the pressure-coupled thrust
            # is slew-limited and floored at zero.
            v = V1 + (rise if a1 >= V1 else fall) * (a1 - V1)
            V1 = (v if v < 1.0 else 1.0) if v > 0.0 else 0.0
            c, lo, hi = (e_max * V1) * s, T1 - dmax, T1 + dmax
            c = c if c > lo else lo
            c = c if c < hi else hi
            T1 = c if c >= 0.0 else 0.0
            v = V2 + (rise if a2 >= V2 else fall) * (a2 - V2)
            V2 = (v if v < 1.0 else 1.0) if v > 0.0 else 0.0
            c, lo, hi = (e_max * V2) * s, T2 - dmax, T2 + dmax
            c = c if c > lo else lo
            c = c if c < hi else hi
            T2 = c if c >= 0.0 else 0.0
            v = V3 + (rise if a3 >= V3 else fall) * (a3 - V3)
            V3 = (v if v < 1.0 else 1.0) if v > 0.0 else 0.0
            c, lo, hi = (e_max * V3) * s, T3 - dmax, T3 + dmax
            c = c if c > lo else lo
            c = c if c < hi else hi
            T3 = c if c >= 0.0 else 0.0
            v = V4 + (rise if a4 >= V4 else fall) * (a4 - V4)
            V4 = (v if v < 1.0 else 1.0) if v > 0.0 else 0.0
            c, lo, hi = (e_max * V4) * s, T4 - dmax, T4 + dmax
            c = c if c > lo else lo
            c = c if c < hi else hi
            T4 = c if c >= 0.0 else 0.0

            # Trapezoidal ejected-mass bookkeeping between the two thrust samples.
            mdot_new = (((T1 + T2) + T3) + T4) / exhaust
            dm = 0.5 * (mdot + mdot_new) * dt
            m_fuel = m_fuel + dm / mr1
            m_ox = m_ox + dm * mr / mr1
            t = t + dt
            if m_module0 - (m_fuel + m_ox) <= 0.0:
                raise PropellantDepletedError(t, sample=i)

            # Isothermal blowdown: gas expands into the vacated propellant volume.
            p_bottle = pv0 / (v_bottle + (m_fuel + m_ox) / density)
            mdot = mdot_new
            rows += T1, T2, T3, T4, p_tank, m_fuel, m_ox
        outputs[block] = np.reshape(rows, (-1, 7))

    if n_ok < len(finite):
        raise ValueError(f"sample {n_ok}: non-finite command at t={t:.3f} s: "
                         f"{commands[n_ok]}")
    return PlantState(t=t, p_bottle=p_bottle, p_tank=p_tank, thrust=np.array([T1, T2, T3, T4]),
                      m_fuel_ejected=m_fuel, m_ox_ejected=m_ox,
                      valve_pos=np.array([V1, V2, V3, V4]))


def step(state: PlantState, command: np.ndarray, status: np.ndarray,
         cfg: PlantConfig) -> PlantState:
    """Advance the plant by one cfg.dt: a one-row run of the `simulate` kernel.

    Parameters
    ----------
    state : PlantState
        Current state (not modified).
    command : array_like, shape (4,)
        Commanded thrust per engine [N].
    status : array_like, shape (4,)
        Engine on/off flags; off engines track a zero target.
    cfg : PlantConfig

    Returns
    -------
    PlantState
        State after one step.

    Raises
    ------
    ValueError
        On non-finite commands, or when the feed pressure drops below zero.
    PropellantDepletedError
        When the cumulative ejected mass reaches the module mass.
    Both name sample 0, the one row stepped.
    """
    commands = np.asarray(command, dtype=float).reshape(1, 4)
    status = np.asarray(status, dtype=float).reshape(1, 4)
    return _run(state, commands, status, cfg, np.zeros((1, 7)))


def simulate(trace: CommandTrace, cfg: PlantConfig) -> PlantTrajectory:
    """Run the plant over a command trace from the rest initial state.

    The output has len(trace) + 1 rows; row 0 is the initial sample, with
    zero inputs. Row i + 1 is bitwise the state that i + 1 successive
    `step` calls reach: both run the same kernel, which writes the
    outputs matrix in place. ValueError when the trace is not sampled at
    the plant's step.
    """
    if trace.dt != cfg.dt:
        raise ValueError(f"trace step {trace.dt} s differs from plant step {cfg.dt} s")
    n = len(trace)
    inputs = np.zeros((n + 1, 8))
    outputs = np.zeros((n + 1, 7))
    state = initial_state(cfg)
    outputs[0, 4] = state.p_tank
    if n:
        inputs[1:, :4], inputs[1:, 4:] = trace.commands, trace.status
    _run(state, inputs[1:, :4], inputs[1:, 4:], cfg, outputs[1:])
    return PlantTrajectory(dt=cfg.dt, inputs=inputs, outputs=outputs, name=trace.name)


def module_mass(traj: PlantTrajectory, cfg: PlantConfig) -> np.ndarray:
    """Remaining module mass per sample: m_module0 - (m_fuel + m_ox)."""
    mass = cfg.m_module0 - (traj.m_fuel + traj.m_ox)
    if np.any(mass <= 0.0):
        raise ValueError("trajectory violates the positive module mass invariant")
    return mass


def steady_state_thrust(commands: np.ndarray, cfg: PlantConfig) -> np.ndarray:
    """Independent fixed-point solution of the steady thrust equations.

    Solves T_j = u_j * sqrt(p/p_reg), p = p_reg - droop * sum(T)/(isp*G0)
    by fixed-point iteration. Used as a test oracle and for sizing
    profiles; not part of the simulation path.
    """
    u = np.clip(np.asarray(commands, dtype=float), 0.0, cfg.e_max)
    thrust = u.copy()
    for _ in range(200):
        mdot = float(np.sum(thrust)) / cfg.exhaust_velocity
        p = min(cfg.p_reg, cfg.p_bottle0) - cfg.droop_coeff * mdot
        new = u * np.sqrt(p / cfg.p_reg)
        if np.max(np.abs(new - thrust)) < 1e-12:
            return new
        thrust = new
    return thrust


__all__ = [
    "PROPELLANT_DENSITY", "G0", "TRAJECTORY_CSV_HEADER", "PlantConfig", "PlantState",
    "CommandTrace", "PlantTrajectory", "PropellantDepletedError",
    "initial_state", "step", "simulate", "module_mass", "steady_state_thrust",
    "read_json", "write_json", "write_csv",
]
