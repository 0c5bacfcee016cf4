"""Plant surrogate: documented examples, invariants, and persistence."""

import os

import numpy as np
import pytest

import throttleid.plant as plant_mod
from conftest import usable_cpus
from throttleid.plant import (PROPELLANT_DENSITY, CommandTrace, PlantConfig, PlantState,
                              PlantTrajectory, PropellantDepletedError, initial_state,
                              module_mass, simulate, steady_state_thrust, step, write_csv)


@pytest.fixture(scope="module")
def cfg():
    return PlantConfig()


def constant_trace(level, duration, cfg, engines=(0, 1, 2, 3)):
    n = int(round(duration / cfg.dt))
    cmd = np.zeros((n, 4))
    status = np.zeros((n, 4))
    for j in engines:
        cmd[:, j] = level
        status[:, j] = 1.0
    return CommandTrace(dt=cfg.dt, commands=cmd, status=status)


def lag_oracle_thrust(command, t_end, cfg):
    """Scalar re-integration of the single-engine lag + coupling, used
    as an independent check on step()."""
    v = 0.0
    thrust = 0.0
    steps = int(round(t_end / cfg.dt))
    for _ in range(steps):
        p_tank = cfg.p_reg - cfg.droop_coeff * thrust / cfg.exhaust_velocity
        target = command / cfg.e_max
        tau = cfg.tau_rise if target >= v else cfg.tau_fall
        v = v + (cfg.dt / tau) * (target - v)
        cand = cfg.e_max * v * np.sqrt(p_tank / cfg.p_reg)
        dmax = cfg.slew_limit * cfg.dt
        thrust = max(0.0, min(max(cand, thrust - dmax), thrust + dmax))
    return thrust


def numpy_reference_step(state, command, status, cfg):
    """The plant step written with numpy 4-vectors, kept as the reference
    that the scalar kernel must match bit for bit."""
    mdot_prev = float(np.sum(state.thrust)) / cfg.exhaust_velocity
    p_tank = min(cfg.p_reg, state.p_bottle) - cfg.droop_coeff * mdot_prev
    target = np.where(status > 0.0, np.clip(command, cfg.e_min, cfg.e_max), 0.0) / cfg.e_max
    tau = np.where(target >= state.valve_pos, cfg.tau_rise, cfg.tau_fall)
    valve = np.clip(state.valve_pos + (cfg.dt / tau) * (target - state.valve_pos), 0.0, 1.0)
    candidate = cfg.e_max * valve * np.sqrt(p_tank / cfg.p_reg)
    dmax = cfg.slew_limit * cfg.dt
    thrust = np.maximum(np.clip(candidate, state.thrust - dmax, state.thrust + dmax), 0.0)
    mdot_new = float(np.sum(thrust)) / cfg.exhaust_velocity
    dm = 0.5 * (mdot_prev + mdot_new) * cfg.dt
    m_fuel = state.m_fuel_ejected + dm / (1.0 + cfg.mixture_ratio)
    m_ox = state.m_ox_ejected + dm * cfg.mixture_ratio / (1.0 + cfg.mixture_ratio)
    v_gas = cfg.v_bottle + (m_fuel + m_ox) / PROPELLANT_DENSITY
    return PlantState(t=state.t + cfg.dt, p_bottle=cfg.p_bottle0 * cfg.v_bottle / v_gas,
                      p_tank=p_tank, thrust=thrust, m_fuel_ejected=m_fuel,
                      m_ox_ejected=m_ox, valve_pos=valve)


class TestStep:
    def test_zero_input_fixed_point(self, cfg):
        s0 = initial_state(cfg)
        s1 = step(s0, np.zeros(4), np.zeros(4), cfg)
        assert s1.t == pytest.approx(cfg.dt)
        assert np.all(s1.thrust == 0.0)
        assert np.all(s1.valve_pos == 0.0)
        assert s1.m_fuel_ejected == 0.0 and s1.m_ox_ejected == 0.0
        assert s1.p_tank == s0.p_tank
        assert s1.p_bottle == s0.p_bottle

    def test_step_converges_to_pressure_coupled_level(self, cfg):
        # One engine commanded 600 N: after 5*tau_rise the delivered
        # thrust sits within 1% of 600*sqrt(p_ss/p_reg), p_ss from the
        # independent fixed point.
        trace = constant_trace(600.0, 5 * cfg.tau_rise, cfg, engines=(0,))
        traj = simulate(trace, cfg)
        expected = steady_state_thrust([600.0, 0, 0, 0], cfg)[0]
        assert abs(traj.thrusts[-1, 0] - expected) <= 0.01 * 600.0
        # and against the scalar lag re-integration oracle
        oracle = lag_oracle_thrust(600.0, 5 * cfg.tau_rise, cfg)
        assert traj.thrusts[-1, 0] == pytest.approx(oracle, rel=1e-9)

    def test_mass_flow_law_at_rating(self, cfg):
        # thrust of 800 N steady -> mdot = 800/(isp*g0) ~ 0.2861 kg/s
        mdot = 800.0 / cfg.exhaust_velocity
        assert mdot == pytest.approx(0.2861, abs=5e-4)
        # flow realized by step(): hold one engine at a forced steady
        # thrust and confirm the recorded mass delta.
        trace = constant_trace(600.0, 10.0, cfg, engines=(0,))
        traj = simulate(trace, cfg)
        i = len(traj) - 1
        dm = (traj.m_fuel[i] + traj.m_ox[i]) - (traj.m_fuel[i - 1] + traj.m_ox[i - 1])
        expected = 0.5 * (traj.thrusts[i].sum() + traj.thrusts[i - 1].sum()) \
            / cfg.exhaust_velocity * cfg.dt
        assert dm == pytest.approx(expected, rel=1e-9)

    def test_nonfinite_command_rejected(self, cfg):
        with pytest.raises(ValueError):
            step(initial_state(cfg), np.array([np.nan, 0, 0, 0]), np.ones(4), cfg)

    def test_depletion_raises(self, cfg):
        small = PlantConfig(m_module0=1.0)
        trace = constant_trace(800.0, 10.0, small)
        with pytest.raises(PropellantDepletedError):
            simulate(trace, small)

    @pytest.mark.parametrize("step_fn", [step, numpy_reference_step],
                             ids=["step", "numpy_reference"])
    def test_simulate_is_fold_of_step(self, step_fn):
        # Engines 1/3 ramp 300 -> 800 N, engine 2 switches on and off,
        # engine 4 falls from 800 N to off: every row of simulate is
        # bitwise the state reached by folding step (or the numpy
        # reference) over the trace. The small bottle drops below p_reg
        # within the trace, so the feed pressure also depends on the
        # carried bottle state.
        cfg = PlantConfig(p_bottle0=1.85e6)
        n = 600
        cmd = np.zeros((n, 4))
        status = np.zeros((n, 4))
        cmd[:, 0] = cmd[:, 2] = np.linspace(300.0, 800.0, n)
        status[:, [0, 2]] = 1.0
        cmd[100:400, 1] = 500.0
        status[100:400, 1] = 1.0
        cmd[:300, 3] = 800.0
        status[:300, 3] = 1.0
        traj = simulate(CommandTrace(dt=cfg.dt, commands=cmd, status=status), cfg)

        states = [initial_state(cfg)]
        for i in range(n):
            states.append(step_fn(states[-1], cmd[i], status[i], cfg))
        assert traj.thrusts.tobytes() == np.array([s.thrust for s in states]).tobytes()
        for column, attr in ((traj.pressures, "p_tank"), (traj.m_fuel, "m_fuel_ejected"),
                             (traj.m_ox, "m_ox_ejected")):
            assert column.tobytes() == np.array([getattr(s, attr) for s in states]).tobytes()
        assert traj.thrusts[300, 3] > 700.0 and traj.thrusts[-1, 3] < 1.0   # the fall
        assert traj.pressures[-1] < cfg.p_reg - cfg.droop_coeff * traj.thrusts[-2].sum() \
            / cfg.exhaust_velocity   # bottle-limited by the end

    def test_first_error_in_time_is_raised(self):
        small = PlantConfig(m_module0=1.0)
        trace = constant_trace(800.0, 10.0, small)
        state = initial_state(small)
        with pytest.raises(PropellantDepletedError):
            for k in range(len(trace)):
                state = step(state, trace.commands[k], trace.status[k], small)
        # k is the sample that depletes the module

        def with_nan_at(i):
            cmd = trace.commands.copy()
            cmd[i, 2] = np.nan
            return CommandTrace(dt=small.dt, commands=cmd, status=trace.status)

        with pytest.raises(PropellantDepletedError) as info:
            simulate(with_nan_at(k + 1), small)
        assert info.value.sample == k
        for i in (k, k - 1):
            with pytest.raises(ValueError, match=f"sample {i}:"):
                simulate(with_nan_at(i), small)

    def test_negative_feed_pressure_raises(self):
        # the droop of four engines at full thrust drives the feed
        # pressure below zero: the sample where a fold of `step` fails
        # is the one `simulate` names, and no NaN row is returned
        droopy = PlantConfig(droop_coeff=1e7)
        trace = constant_trace(800.0, 3.0, droopy)
        state = initial_state(droopy)
        with pytest.raises(ValueError, match="sample 0: feed pressure"):
            for k in range(len(trace)):
                state = step(state, trace.commands[k], trace.status[k], droopy)
        with pytest.raises(ValueError, match=f"sample {k}: feed pressure"):
            simulate(trace, droopy)
        prefix = simulate(CommandTrace(dt=droopy.dt, commands=trace.commands[:k],
                                       status=trace.status[:k]), droopy)
        assert np.all(np.isfinite(prefix.thrusts)) and np.all(prefix.pressures >= 0.0)


class TestSimulate:
    def test_empty_trace_yields_initial_sample(self, cfg):
        traj = simulate(CommandTrace(dt=cfg.dt, commands=np.zeros((0, 4)),
                                     status=np.zeros((0, 4))), cfg)
        assert len(traj) == 1
        assert np.all(traj.thrusts == 0.0)
        assert traj.pressures[0] == min(cfg.p_reg, cfg.p_bottle0)

    def test_all_off_constant(self, cfg):
        traj = simulate(constant_trace(0.0, 10.0, cfg, engines=()), cfg)
        assert np.all(traj.pressures == min(cfg.p_reg, cfg.p_bottle0))
        assert np.all(traj.m_fuel == 0.0) and np.all(traj.m_ox == 0.0)

    def test_total_mass_matches_trapezoid_oracle(self, cfg):
        # 600 N step on all four engines for 20 s: ejected mass equals
        # the trapezoidal integral of the recorded thrusts.
        traj = simulate(constant_trace(600.0, 20.0, cfg), cfg)
        mdot = traj.thrusts.sum(axis=1) / cfg.exhaust_velocity
        oracle = np.trapezoid(mdot, dx=cfg.dt)
        total = traj.m_fuel[-1] + traj.m_ox[-1]
        assert total == pytest.approx(oracle, rel=1e-9)

    def test_error_carries_sample_index(self, cfg):
        cmd = np.zeros((5, 4))
        cmd[3, 0] = np.inf
        trace = CommandTrace(dt=cfg.dt, commands=cmd, status=np.ones((5, 4)))
        with pytest.raises(ValueError, match="sample 3"):
            simulate(trace, cfg)


class TestModuleMass:
    def test_all_off_constant_m0(self, cfg):
        traj = simulate(constant_trace(0.0, 5.0, cfg, engines=()), cfg)
        assert np.all(module_mass(traj, cfg) == cfg.m_module0)

    def test_first_sample_is_m0(self, cfg):
        traj = simulate(constant_trace(500.0, 2.0, cfg), cfg)
        assert module_mass(traj, cfg)[0] == cfg.m_module0

    def test_steady_4x600_mass_drop(self, cfg):
        # Commanded 600 N x4 for 20 s. Delivered thrust settles below
        # the command because of feed droop, so the expected drop uses
        # the independent steady-state fixed point; tolerance covers
        # the startup ramp (~0.4 s at reduced flow).
        traj = simulate(constant_trace(600.0, 20.0, cfg), cfg)
        t_ss = steady_state_thrust([600.0] * 4, cfg)
        expected = t_ss.sum() / cfg.exhaust_velocity * 20.0
        drop = module_mass(traj, cfg)[0] - module_mass(traj, cfg)[-1]
        assert drop == pytest.approx(expected, rel=0.03)
        # magnitude sanity against the nominal flow-law arithmetic
        nominal = 4.0 * (600.0 / cfg.exhaust_velocity) * 20.0
        assert abs(drop - nominal) / nominal < 0.08


@pytest.fixture(scope="module")
def busy_traj(cfg):
    rng = np.random.default_rng(7)
    levels = rng.choice([0.0, 300.0, 500.0, 700.0, 800.0], size=12)
    cmd = np.repeat(levels, 100)[:, None] * np.ones((1, 4))
    cmd += rng.normal(0, 5, size=cmd.shape) * (cmd > 0)
    cmd = np.clip(cmd, 0.0, cfg.e_max)
    status = (cmd > 0).astype(float)
    cmd = np.clip(cmd, cfg.e_min, cfg.e_max) * status
    return simulate(CommandTrace(dt=cfg.dt, commands=cmd, status=status), cfg)


class TestInvariants:
    def test_monotonicity(self, busy_traj):
        assert np.all(np.diff(busy_traj.m_fuel) >= 0.0)
        assert np.all(np.diff(busy_traj.m_ox) >= 0.0)

    def test_bottle_pressure_monotone(self, cfg, busy_traj):
        # reconstruct p_bottle from the recorded masses
        from throttleid.plant import PROPELLANT_DENSITY
        v_gas = cfg.v_bottle + (busy_traj.m_fuel + busy_traj.m_ox) / PROPELLANT_DENSITY
        p_bottle = cfg.p_bottle0 * cfg.v_bottle / v_gas
        assert np.all(np.diff(p_bottle) <= 0.0)

    def test_conservation_identity(self, cfg, busy_traj):
        mm = module_mass(busy_traj, cfg)
        recomputed = cfg.m_module0 - (busy_traj.m_fuel + busy_traj.m_ox)
        assert np.array_equal(mm, recomputed)
        # physical closure to rounding
        assert np.max(np.abs(mm + busy_traj.m_fuel + busy_traj.m_ox
                             - cfg.m_module0)) < 1e-10

    def test_flow_law_consistency(self, cfg, busy_traj):
        dm = np.diff(busy_traj.m_fuel + busy_traj.m_ox) / cfg.dt
        mdot = busy_traj.thrusts.sum(axis=1) / cfg.exhaust_velocity
        trap = 0.5 * (mdot[1:] + mdot[:-1])
        np.testing.assert_allclose(dm, trap, rtol=1e-9, atol=1e-12)

    def test_rise_faster_than_fall(self, cfg):
        up = constant_trace(700.0, 10.0, cfg)
        down = constant_trace(0.0, 10.0, cfg, engines=())
        cmd = np.concatenate([up.commands, down.commands])
        status = np.concatenate([up.status, down.status])
        traj = simulate(CommandTrace(dt=cfg.dt, commands=cmd, status=status), cfg)
        th = traj.thrusts[:, 0]
        peak = th.max()
        t = traj.t

        def crossing(series, level, rising):
            if rising:
                idx = np.argmax(series >= level)
            else:
                idx = np.argmax(series <= level)
            return t[idx]

        rise_time = crossing(th[:1001], 0.9 * peak, True) - crossing(th[:1001], 0.1 * peak, True)
        fall = th[1001:]
        t_fall = t[1001:]
        fall_start = t_fall[np.argmax(fall <= 0.9 * peak)]
        fall_end = t_fall[np.argmax(fall <= 0.1 * peak)]
        assert rise_time < (fall_end - fall_start)

    def test_determinism(self, cfg):
        trace = constant_trace(555.5, 3.0, cfg)
        a = simulate(trace, cfg)
        b = simulate(trace, cfg)
        assert np.array_equal(a.thrusts, b.thrusts)
        assert np.array_equal(a.pressures, b.pressures)
        assert np.array_equal(a.m_fuel, b.m_fuel)

    def test_boundedness(self, cfg, busy_traj):
        bound = cfg.e_max * np.sqrt(busy_traj.pressures / cfg.p_reg)
        assert np.all(busy_traj.thrusts >= 0.0)
        assert np.all(busy_traj.thrusts <= bound[:, None] + 1e-9)

    def test_tank_pressure_bounded_by_regulator(self, cfg, busy_traj):
        assert np.all(busy_traj.pressures <= min(cfg.p_reg, cfg.p_bottle0))


class TestConfigAndIO:
    def test_config_invariants(self):
        with pytest.raises(ValueError):
            PlantConfig(e_min=900.0)
        with pytest.raises(ValueError):
            PlantConfig(tau_rise=0.2, tau_fall=0.1)
        with pytest.raises(ValueError):
            PlantConfig(dt=0.0)

    def test_config_json_roundtrip(self, tmp_path, cfg):
        path = tmp_path / "plant.json"
        cfg.to_json(path)
        again = PlantConfig.from_json(path)
        assert again == cfg

    def test_config_json_text_roundtrip(self, cfg):
        assert PlantConfig.from_json(cfg.to_json()) == cfg

    def test_trajectory_csv_roundtrip(self, tmp_path, cfg):
        traj = simulate(constant_trace(450.0, 1.0, cfg), cfg)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,Tr1,Tr2,Tr3,Tr4,Se1,Se2,Se3,Se4,To1,To2,To3,To4,P,mf,mo"
        again = PlantTrajectory.from_csv(path)
        assert np.array_equal(again.thrusts, traj.thrusts)
        assert np.array_equal(again.pressures, traj.pressures)
        assert np.array_equal(again.m_fuel, traj.m_fuel)
        assert again.dt == traj.dt

    @pytest.mark.parametrize("rows", [0, 1, plant_mod._BLOCK, plant_mod._BLOCK + 1,
                                      5 * plant_mod._BLOCK + 3])
    def test_csv_bytes_independent_of_cpu_count(self, tmp_path, monkeypatch, rows):
        rng = np.random.default_rng(rows)
        mat = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
        vec = rng.standard_normal(rows)
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]
        mat.flat[:len(specials)] = specials[:mat.size]
        texts = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            write_csv(tmp_path / f"{cpus}.csv", "a,b,c,d", [mat, vec])
            texts.append((tmp_path / f"{cpus}.csv").read_bytes())
        assert texts[0] == texts[1]
        lines = texts[0].decode().splitlines()
        assert lines == ["a,b,c,d"] + [",".join(map(repr, [*mat[i].tolist(), float(vec[i])]))
                                       for i in range(rows)]

    def test_dead_csv_worker_reported(self, tmp_path, monkeypatch):
        usable_cpus(monkeypatch, 2)
        caller, real_lines = os.getpid(), plant_mod._csv_lines

        def exit_in_child(columns, lo):
            if os.getpid() != caller:
                os._exit(3)
            return real_lines(columns, lo)

        monkeypatch.setattr(plant_mod, "_csv_lines", exit_in_child)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            write_csv(tmp_path / "dead.csv", "x", [np.zeros(3 * plant_mod._BLOCK)])
