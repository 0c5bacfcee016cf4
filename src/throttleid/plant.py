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
writes each sample straight into the output arrays; `step` is a
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
from functools import partial
from pathlib import Path

import numpy as np

from .parallel import fork_map

# Effective liquid propellant density used for the bottle blowdown
# volume bookkeeping [kg/m^3]. Mass-weighted MMH/NTO estimate; only the
# slow p_bottle trend depends on it.
PROPELLANT_DENSITY = 1200.0

# Standard gravity [m/s^2]: converts a specific impulse in seconds into
# an exhaust velocity.
G0 = 9.80665

# Rows that the plant kernel and `write_csv` convert at a time. A block
# is also `write_csv`'s unit of parallel work and of each message a
# worker sends back. Small blocks bound memory on long traces and keep
# each temporary and each message (12-100 KiB of text) below glibc's
# mmap threshold: freeing a larger buffer raises that threshold, which
# moves later mid-size temporaries onto the heap (converting whole
# traces at once raised the training peak RSS by ~7%, and sending each
# worker's whole share as one message raised it by ~7% too). Many small
# tasks also keep the workers busy while the caller writes.
_BLOCK = 256

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


def _csv_lines(columns: list[np.ndarray], lo: int) -> str:
    """The CSV lines of rows lo .. lo + _BLOCK - 1 of `columns`.

    Each distinct value of the block is formatted once. Values are keyed
    by their bit pattern, so -0.0 and 0.0 stay apart. The patterns are
    passed flat, whose inverse index is 1-D on every numpy version (for
    a 2-D input its shape differs between versions), and the inverse is
    reshaped to the block.
    """
    block = np.column_stack([c[lo:lo + _BLOCK] for c in columns]).astype(float, copy=False)
    bits, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
    return "".join([",".join(row) + "\n"
                    for row in text[inverse.reshape(block.shape)].tolist()])


def write_csv(path: str | Path, header: str, columns: list[np.ndarray]) -> None:
    """Numeric CSV: the header line, then one line per row of the
    column-stacked `columns` (1-D or 2-D arrays of equal length), each
    value written as repr(float) so that reading it back is exact. Each
    distinct bit pattern is formatted once per block.

    Blocks of `_BLOCK` rows are formatted on every usable CPU
    (`parallel.fork_map`; in a forked child, by that child) and written
    in order, so the file does not depend on the CPU count.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for text in fork_map(partial(_csv_lines, columns), range(0, len(columns[0]), _BLOCK)):
            fh.write(text)


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
    """Sampled record of a simulation.

    Row 0 is the initial rest sample (zero command); row i >= 1
    corresponds to input sample i-1 of the driving trace. The pressure
    column holds the feed pressure applied during each sample interval,
    so thrusts[i] <= e_max * sqrt(pressures[i] / p_reg) holds exactly.
    """

    dt: float
    commands: np.ndarray   # (N, 4)
    status: np.ndarray     # (N, 4)
    thrusts: np.ndarray    # (N, 4)
    pressures: np.ndarray  # (N,)
    m_fuel: np.ndarray     # (N,)
    m_ox: np.ndarray       # (N,)
    name: str = ""

    def __post_init__(self):
        n = self.thrusts.shape[0]
        for arr_name in ("commands", "status", "thrusts", "pressures", "m_fuel", "m_ox"):
            if getattr(self, arr_name).shape[0] != n:
                raise ValueError("all trajectory columns must have equal length")

    def __len__(self) -> int:
        return self.thrusts.shape[0]

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self)) * self.dt

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, TRAJECTORY_CSV_HEADER, [self.t, self.commands, self.status, self.thrusts,
                                                self.pressures, self.m_fuel, self.m_ox])

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
        if not np.array_equal(data[:, 0], np.arange(len(data)) * dt):
            raise ValueError(f"{path}: the t column does not step by {dt} s from 0")
        return cls(dt=dt, commands=data[:, 1:5], status=data[:, 5:9],
                   thrusts=data[:, 9:13], pressures=data[:, 13],
                   m_fuel=data[:, 14], m_ox=data[:, 15], name=name)


def _valve_targets(commands: np.ndarray, status: np.ndarray, cfg: PlantConfig):
    """Per-row valve targets as lists of floats, converted `_BLOCK` rows at
    a time: off engines track zero, on engines the clipped command."""
    for lo in range(0, len(commands), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        yield from (np.where(status[block] > 0.0,
                             np.clip(commands[block], cfg.e_min, cfg.e_max),
                             0.0) / cfg.e_max).tolist()


def _run(state: PlantState, commands: np.ndarray, status: np.ndarray, cfg: PlantConfig,
         thrusts: np.ndarray, pressures: np.ndarray, m_fuel_out: np.ndarray,
         m_ox_out: np.ndarray) -> PlantState:
    """The plant physics: one explicit step per row of `commands` / `status`.

    Row i's delivered thrust, feed pressure and cumulative ejected
    masses are written to thrusts[i], pressures[i], m_fuel_out[i] and
    m_ox_out[i]; the state after the last row is returned. The loop runs
    on Python floats, and its operation order is that of the equivalent
    4-vector numpy step (thrusts summed left to right, e_max * v * s as
    (e_max * v) * s, clips and floors with numpy's signed-zero results),
    so it is bitwise that step.

    Raises ValueError("sample i: ...") at the first non-finite command
    row and at the first row whose feed pressure drops below zero (the
    droop of the established flow exceeds the supply pressure), and
    PropellantDepletedError(sample=i) at the first row that exhausts the
    module mass, whichever comes first.
    """
    finite = np.isfinite(commands).all(axis=1)
    n_ok = len(finite) if finite.all() else int(np.argmin(finite))

    dt, e_max, p_reg, droop = cfg.dt, cfg.e_max, cfg.p_reg, cfg.droop_coeff
    tau_rise, tau_fall, mr = cfg.tau_rise, cfg.tau_fall, cfg.mixture_ratio
    exhaust = cfg.exhaust_velocity
    dmax = cfg.slew_limit * dt
    t, p_bottle, p_tank = state.t, state.p_bottle, state.p_tank
    m_fuel, m_ox = state.m_fuel_ejected, state.m_ox_ejected
    thrust = state.thrust.tolist()
    valve = state.valve_pos.tolist()
    for i, target in enumerate(_valve_targets(commands[:n_ok], status[:n_ok], cfg)):
        # Feed pressure for this interval, from the flow already established.
        mdot_prev = (((thrust[0] + thrust[1]) + thrust[2]) + thrust[3]) / exhaust
        p_tank = min(p_reg, p_bottle) - droop * mdot_prev
        ratio = p_tank / p_reg
        if not ratio >= 0.0:
            raise ValueError(f"sample {i}: feed pressure {p_tank:.6g} Pa below zero "
                             f"at t={t:.3f} s")
        s = math.sqrt(ratio)
        for j in range(4):
            # Valve lag: opening uses tau_rise, closing tau_fall.
            v = valve[j]
            tau = tau_rise if target[j] >= v else tau_fall
            v = v + (dt / tau) * (target[j] - v)
            v = v if v > 0.0 else 0.0
            valve[j] = v if v < 1.0 else 1.0
            # Pressure-coupled thrust, slew-limited and floored at zero.
            c = (e_max * valve[j]) * s
            lo, hi = thrust[j] - dmax, thrust[j] + dmax
            c = c if c > lo else lo
            c = c if c < hi else hi
            thrust[j] = c if c >= 0.0 else 0.0

        # Trapezoidal ejected-mass bookkeeping between the two thrust samples.
        mdot_new = (((thrust[0] + thrust[1]) + thrust[2]) + thrust[3]) / exhaust
        dm = 0.5 * (mdot_prev + mdot_new) * dt
        m_fuel = m_fuel + dm / (1.0 + mr)
        m_ox = m_ox + dm * mr / (1.0 + mr)
        t = t + dt
        if cfg.m_module0 - (m_fuel + m_ox) <= 0.0:
            raise PropellantDepletedError(t, sample=i)

        # Isothermal blowdown: gas expands into the vacated propellant volume.
        v_gas = cfg.v_bottle + (m_fuel + m_ox) / PROPELLANT_DENSITY
        p_bottle = cfg.p_bottle0 * cfg.v_bottle / v_gas

        thrusts[i] = thrust
        pressures[i] = p_tank
        m_fuel_out[i] = m_fuel
        m_ox_out[i] = m_ox

    if n_ok < len(finite):
        raise ValueError(f"sample {n_ok}: non-finite command at t={t:.3f} s: "
                         f"{commands[n_ok]}")
    return PlantState(t=t, p_bottle=p_bottle, p_tank=p_tank, thrust=np.array(thrust),
                      m_fuel_ejected=m_fuel, m_ox_ejected=m_ox, valve_pos=np.array(valve))


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
    out = np.zeros((1, 4)), np.zeros(1), np.zeros(1), np.zeros(1)
    return _run(state, commands, status, cfg, *out)


def simulate(trace: CommandTrace, cfg: PlantConfig) -> PlantTrajectory:
    """Run the plant over a command trace from the rest initial state.

    The output has len(trace) + 1 rows; row 0 is the initial sample.
    Row i + 1 is bitwise the state that i + 1 successive `step` calls
    reach: both run the same kernel. ValueError when the trace is not
    sampled at the plant's step.
    """
    if trace.dt != cfg.dt:
        raise ValueError(f"trace step {trace.dt} s differs from plant step {cfg.dt} s")
    n = len(trace)
    commands = np.zeros((n + 1, 4))
    status = np.zeros((n + 1, 4))
    thrusts = np.zeros((n + 1, 4))
    pressures = np.zeros(n + 1)
    m_fuel = np.zeros(n + 1)
    m_ox = np.zeros(n + 1)

    state = initial_state(cfg)
    pressures[0] = state.p_tank
    if n:
        commands[1:] = trace.commands
        status[1:] = trace.status
    _run(state, commands[1:], status[1:], cfg,
         thrusts[1:], pressures[1:], m_fuel[1:], m_ox[1:])

    return PlantTrajectory(dt=cfg.dt, commands=commands, status=status,
                           thrusts=thrusts, pressures=pressures,
                           m_fuel=m_fuel, m_ox=m_ox, name=trace.name)


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
