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
    - propellant mass flow is thrust / (isp * g0), split between fuel
      and oxidizer by a fixed mixture ratio.

Feed pressure is the regulated tank pressure minus a droop
proportional to total mass flow; the pressurant bottle blows down
isothermally as gas expands into the volume vacated by ejected
propellant. All integration is explicit Euler at cfg.dt, except the
ejected-mass bookkeeping which uses the trapezoid of the thrust at the
two ends of each step (so recorded mass increments are exactly
consistent with recorded thrusts).

Repo-chosen constants (sampling rate, thrust floor, pressure levels,
mixture ratio, module mass) are engineering defaults, not values taken
from any flight system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Effective liquid propellant density used for the bottle blowdown
# volume bookkeeping [kg/m^3]. Mass-weighted MMH/NTO estimate; only the
# slow p_bottle trend depends on it.
PROPELLANT_DENSITY = 1200.0

TRAJECTORY_CSV_HEADER = "t,Tr1,Tr2,Tr3,Tr4,Se1,Se2,Se3,Se4,To1,To2,To3,To4,P,mf,mo"


def read_json(source: str | Path):
    """Parse JSON read from disk when given a Path, or JSON text given as a str."""
    return json.loads(source.read_text() if isinstance(source, Path) else source)


class PropellantDepletedError(RuntimeError):
    """Raised when the module mass floor (zero remaining mass) is reached."""

    def __init__(self, t: float, sample: int | None = None):
        self.t = t
        self.sample = sample
        where = f" at sample {sample}" if sample is not None else ""
        super().__init__(f"propellant depleted at t={t:.3f} s{where}")


@dataclass
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
    g0: float = 9.80665           # standard gravity [m/s^2]
    mixture_ratio: float = 1.65   # oxidizer/fuel mass ratio
    m_module0: float = 600.0      # initial total module mass [kg]
    dt: float = 0.01              # integration step [s]

    def __post_init__(self):
        if not (0.0 < self.e_min < self.e_max):
            raise ValueError(f"need 0 < e_min < e_max, got {self.e_min}, {self.e_max}")
        for name in ("p_reg", "p_bottle0", "v_bottle", "droop_coeff", "tau_rise",
                     "tau_fall", "slew_limit", "isp", "g0", "m_module0", "dt"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.tau_fall < self.tau_rise:
            raise ValueError("tau_fall must be >= tau_rise (closing is the slower path)")
        if self.mixture_ratio <= 0.0:
            raise ValueError("mixture_ratio must be strictly positive")

    @property
    def exhaust_velocity(self) -> float:
        """isp * g0 [m/s]; total mass flow is thrust / exhaust_velocity."""
        return self.isp * self.g0

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialize as a flat JSON object keyed by the field names."""
        text = json.dumps({k: getattr(self, k) for k in self.__dataclass_fields__},
                          sort_keys=True, indent=2)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "PlantConfig":
        """Load from a JSON file (a Path) or from JSON text (a str)."""
        return cls(**read_json(source))


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
        t = np.arange(len(self)) * self.dt
        with open(path, "w") as fh:
            fh.write("t,Tr1,Tr2,Tr3,Tr4,Se1,Se2,Se3,Se4\n")
            for i in range(len(self)):
                row = [t[i], *self.commands[i], *self.status[i]]
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path, name: str = "") -> "CommandTrace":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        dt = float(data[1, 0] - data[0, 0]) if data.shape[0] > 1 else 0.01
        return cls(dt=dt, commands=data[:, 1:5], status=data[:, 5:9], name=name)


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
        with open(path, "w") as fh:
            fh.write(TRAJECTORY_CSV_HEADER + "\n")
            t = self.t
            for i in range(len(self)):
                row = [t[i], *self.commands[i], *self.status[i], *self.thrusts[i],
                       self.pressures[i], self.m_fuel[i], self.m_ox[i]]
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path, name: str = "") -> "PlantTrajectory":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        dt = float(data[1, 0] - data[0, 0]) if data.shape[0] > 1 else 0.01
        return cls(dt=dt, commands=data[:, 1:5], status=data[:, 5:9],
                   thrusts=data[:, 9:13], pressures=data[:, 13],
                   m_fuel=data[:, 14], m_ox=data[:, 15], name=name)


def step(state: PlantState, command: np.ndarray, status: np.ndarray,
         cfg: PlantConfig) -> PlantState:
    """Advance the plant by one cfg.dt.

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
        On non-finite commands.
    PropellantDepletedError
        When the cumulative ejected mass reaches the module mass.
    """
    command = np.asarray(command, dtype=float)
    status = np.asarray(status, dtype=float)
    if not np.all(np.isfinite(command)):
        raise ValueError(f"non-finite command at t={state.t:.3f} s: {command}")

    # Feed pressure for this interval, from the flow already established.
    mdot_prev = float(np.sum(state.thrust)) / cfg.exhaust_velocity
    p_tank = min(cfg.p_reg, state.p_bottle) - cfg.droop_coeff * mdot_prev

    # Valve lag: opening uses tau_rise, closing tau_fall.
    target = np.where(status > 0.0, np.clip(command, cfg.e_min, cfg.e_max), 0.0) / cfg.e_max
    tau = np.where(target >= state.valve_pos, cfg.tau_rise, cfg.tau_fall)
    valve = state.valve_pos + (cfg.dt / tau) * (target - state.valve_pos)
    valve = np.clip(valve, 0.0, 1.0)

    # Pressure-coupled thrust, slew-limited and floored at zero.
    candidate = cfg.e_max * valve * np.sqrt(p_tank / cfg.p_reg)
    dmax = cfg.slew_limit * cfg.dt
    thrust = np.clip(candidate, state.thrust - dmax, state.thrust + dmax)
    thrust = np.maximum(thrust, 0.0)

    # Trapezoidal ejected-mass bookkeeping between the two thrust samples.
    mdot_new = float(np.sum(thrust)) / cfg.exhaust_velocity
    dm = 0.5 * (mdot_prev + mdot_new) * cfg.dt
    m_fuel = state.m_fuel_ejected + dm / (1.0 + cfg.mixture_ratio)
    m_ox = state.m_ox_ejected + dm * cfg.mixture_ratio / (1.0 + cfg.mixture_ratio)
    if cfg.m_module0 - (m_fuel + m_ox) <= 0.0:
        raise PropellantDepletedError(state.t + cfg.dt)

    # Isothermal blowdown: gas expands into the vacated propellant volume.
    v_gas = cfg.v_bottle + (m_fuel + m_ox) / PROPELLANT_DENSITY
    p_bottle = cfg.p_bottle0 * cfg.v_bottle / v_gas

    return PlantState(
        t=state.t + cfg.dt,
        p_bottle=p_bottle,
        p_tank=p_tank,
        thrust=thrust,
        m_fuel_ejected=m_fuel,
        m_ox_ejected=m_ox,
        valve_pos=valve,
    )


def simulate(trace: CommandTrace, cfg: PlantConfig) -> PlantTrajectory:
    """Fold `step` over a command trace from the rest initial state.

    The output has len(trace) + 1 rows; row 0 is the initial sample.
    """
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
    for i in range(n):
        try:
            state = step(state, trace.commands[i], trace.status[i], cfg)
        except PropellantDepletedError as err:
            raise PropellantDepletedError(err.t, sample=i) from None
        except ValueError as err:
            raise ValueError(f"sample {i}: {err}") from None
        thrusts[i + 1] = state.thrust
        pressures[i + 1] = state.p_tank
        m_fuel[i + 1] = state.m_fuel_ejected
        m_ox[i + 1] = state.m_ox_ejected

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

    Solves T_j = u_j * sqrt(p/p_reg), p = p_reg - droop * sum(T)/(isp*g0)
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
    "PROPELLANT_DENSITY", "TRAJECTORY_CSV_HEADER", "PlantConfig", "PlantState",
    "CommandTrace", "PlantTrajectory", "PropellantDepletedError",
    "initial_state", "step", "simulate", "module_mass", "steady_state_thrust",
    "read_json",
]
