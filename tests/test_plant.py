"""Plant surrogate: documented examples, invariants, and persistence."""

import numpy as np
import pytest

import throttleid.plant as plant_mod
from conftest import usable_cpus
from throttleid.plant import (PROPELLANT_DENSITY, CommandTrace, PlantConfig, PlantState,
                              PlantTrajectory, PropellantDepletedError, initial_state,
                              module_mass, simulate, steady_state_thrust, step, write_csv,
                              write_npy)


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


def reference_csv_lines(header, columns):
    """The CSV text of the whole array written one repr per value, kept as
    the reference that `write_csv`, which formats a block at a time, must
    match byte for byte."""
    rows = np.column_stack(columns).astype(float).tolist()
    return "".join([header + "\n"] + [",".join(map(repr, row)) + "\n" for row in rows])


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
        # thrust of 800 N steady -> mdot = 800/(isp*G0) ~ 0.2861 kg/s
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
        assert n > 2 * plant_mod._BLOCK + 1   # rows are written a block at a time
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

    def test_each_engine_stepped_on_its_own(self):
        # The kernel holds each engine's valve and thrust in locals of its
        # own, so no two engines may share a command here: each ramps from
        # its own level, switches on, steps down and off at its own rows.
        # Every output row and the final valves and thrusts are bitwise the
        # fold of the numpy reference step, which a mix-up between any two
        # engines' variables breaks.
        cfg = PlantConfig(p_bottle0=1.85e6)
        n = 600
        assert n > 2 * plant_mod._BLOCK + 1   # rows are written a block at a time
        cmd, status = np.zeros((n, 4)), np.zeros((n, 4))
        for j, (on, peak, down, off, lo, hi) in enumerate([(0, 250, 330, 420, 300.0, 800.0),
                                                           (40, 320, 400, 520, 450.0, 700.0),
                                                           (90, 200, 280, 360, 260.0, 760.0),
                                                           (150, 380, 470, 560, 600.0, 520.0)]):
            cmd[on:peak, j] = np.linspace(lo, hi, peak - on)
            cmd[peak:down, j] = hi
            cmd[down:off, j] = lo
            status[on:off, j] = 1.0
        outputs = np.full((n, 7), np.nan)
        final = plant_mod._run(initial_state(cfg), cmd, status, cfg, outputs)

        states = [initial_state(cfg)]
        for i in range(n):
            states.append(numpy_reference_step(states[-1], cmd[i], status[i], cfg))
        expected = np.array([[*s.thrust, s.p_tank, s.m_fuel_ejected, s.m_ox_ejected]
                             for s in states[1:]])
        assert outputs.tobytes() == expected.tobytes()
        traj = simulate(CommandTrace(dt=cfg.dt, commands=cmd, status=status), cfg)
        assert traj.outputs[1:].tobytes() == expected.tobytes()
        assert final.valve_pos.tobytes() == states[-1].valve_pos.tobytes()
        assert final.thrust.tobytes() == states[-1].thrust.tobytes()
        # every engine's record is its own, and every valve is still closing at the end
        assert len({traj.thrusts[:, j].tobytes() for j in range(4)}) == 4
        assert len(set(final.valve_pos.tolist())) == 4 and np.all(final.valve_pos > 0.0)

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

    def test_errors_in_the_second_block(self):
        # the kernel writes its outputs a block of _BLOCK rows at a time: a
        # depletion and a non-finite command inside the second block raise
        # at the sample where a fold of the numpy reference step does, and
        # the rows before that sample are the fold's, none dropped or shifted
        small = PlantConfig(m_module0=4.0)
        trace = constant_trace(800.0, 10.0, small)
        states = [initial_state(small)]
        while small.m_module0 - (states[-1].m_fuel_ejected + states[-1].m_ox_ejected) > 0.0:
            k = len(states) - 1
            states.append(numpy_reference_step(states[-1], trace.commands[k], trace.status[k],
                                               small))
        assert plant_mod._BLOCK < k < 2 * plant_mod._BLOCK - 1
        with pytest.raises(PropellantDepletedError) as info:
            simulate(trace, small)
        assert info.value.sample == k
        cmd = trace.commands.copy()
        cmd[k - 1, 1] = np.inf
        with pytest.raises(ValueError, match=f"sample {k - 1}: non-finite command"):
            simulate(CommandTrace(dt=small.dt, commands=cmd, status=trace.status), small)
        head = simulate(CommandTrace(dt=small.dt, commands=trace.commands[:k],
                                     status=trace.status[:k]), small)
        assert head.thrusts.tobytes() == np.array([s.thrust for s in states[:-1]]).tobytes()
        for column, attr in ((head.pressures, "p_tank"), (head.m_fuel, "m_fuel_ejected"),
                             (head.m_ox, "m_ox_ejected")):
            assert column.tobytes() == np.array([getattr(s, attr) for s in states[:-1]]).tobytes()

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

    def test_trace_step_must_be_plant_step(self, cfg):
        # a 2 s trace at 0.02 s would otherwise run as 1 s at the plant's 0.01 s
        trace = constant_trace(600.0, 2.0, PlantConfig(dt=0.02))
        with pytest.raises(ValueError, match="trace step 0.02 s differs from plant step 0.01 s"):
            simulate(trace, cfg)


class TestTrajectory:
    def test_named_columns_are_views(self, cfg):
        # each named column is a view of its matrix: a write through one
        # shows in the matrix, which `outputs` orders as TARGET_NAMES does
        traj = simulate(constant_trace(450.0, 0.5, cfg), cfg)
        traj.thrusts[3, 2] = -7.0
        traj.m_ox[4] = -8.0
        traj.status[5, 1] = 0.5
        assert (traj.outputs[3, 2], traj.outputs[4, 6], traj.inputs[5, 5]) == (-7.0, -8.0, 0.5)
        for name, matrix, cols in (("commands", "inputs", slice(0, 4)),
                                   ("status", "inputs", slice(4, 8)),
                                   ("thrusts", "outputs", slice(0, 4)),
                                   ("pressures", "outputs", 4), ("m_fuel", "outputs", 5),
                                   ("m_ox", "outputs", 6)):
            column = getattr(traj, name)
            assert column.base is getattr(traj, matrix)
            assert np.array_equal(column, getattr(traj, matrix)[:, cols])

    @pytest.mark.parametrize("inputs, outputs", [((5, 8), (4, 7)), ((5, 8), (5, 6)),
                                                 ((5, 4), (5, 7)), ((5,), (5, 7))])
    def test_mismatched_shapes_rejected(self, inputs, outputs):
        with pytest.raises(ValueError, match=rf"inputs of shape \({inputs[0]},.*"
                                             rf"outputs of shape \({outputs[0]}, {outputs[1]}\)"):
            PlantTrajectory(dt=0.01, inputs=np.zeros(inputs), outputs=np.zeros(outputs))


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

    def test_trajectory_csv_roundtrip(self, tmp_path, cfg):
        traj = simulate(constant_trace(450.0, 1.0, cfg), cfg)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,Tr1,Tr2,Tr3,Tr4,Se1,Se2,Se3,Se4,To1,To2,To3,To4,P,mf,mo"
        again = PlantTrajectory.from_csv(path, cfg.dt)
        assert np.array_equal(again.thrusts, traj.thrusts)
        assert np.array_equal(again.pressures, traj.pressures)
        assert np.array_equal(again.m_fuel, traj.m_fuel)
        assert again.dt == traj.dt

    def test_from_csv_rejects_other_csv(self, tmp_path):
        # 17 numeric columns, as a validation time series has: enough
        # for every trajectory column, but not a trajectory
        path = tmp_path / "timeseries.csv"
        write_csv(path, ",".join(f"c{i}" for i in range(17)), [np.ones((5, 17))])
        with pytest.raises(ValueError, match="timeseries.csv: not a trajectory CSV"):
            PlantTrajectory.from_csv(path, 0.01)

    def test_from_csv_takes_the_step(self, tmp_path):
        # a one-row trajectory has no t step to read: the caller's step
        # is the trajectory's; a t column of another step names the file
        cfg = PlantConfig(dt=0.02)
        traj = simulate(CommandTrace(dt=0.02, commands=np.zeros((0, 4)),
                                     status=np.zeros((0, 4))), cfg)
        traj.to_csv(tmp_path / "one.csv")
        assert len(traj) == 1 and PlantTrajectory.from_csv(tmp_path / "one.csv", 0.02).dt == 0.02
        simulate(constant_trace(450.0, 0.5, cfg), cfg).to_csv(tmp_path / "coarse.csv")
        with pytest.raises(ValueError, match="coarse.csv: the t column does not step by 0.01 s"):
            PlantTrajectory.from_csv(tmp_path / "coarse.csv", 0.01)

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

    @pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 513])
    def test_csv_equals_reference_formatter(self, tmp_path, rows):
        # values drawn from a small pool repeat within and across rows;
        # the pool holds both signed zeros, NaNs with different payloads,
        # both infinities, the smallest subnormal and repr's exponent
        # switch points, and a normal column and np.arange add distinct ones
        nan_payload = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
        pool = np.array([-0.0, 0.0, np.nan, -np.nan, nan_payload, np.inf, -np.inf,
                         5e-324, 1e16, 1e-05, 0.1, -2.5])
        rng = np.random.default_rng(rows)
        mat = pool[rng.integers(0, pool.size, (rows, 4))]
        mat[::7] = -0.0    # one value repeated along a row
        mat[3::7] = 0.0
        columns = [mat, pool[rng.integers(0, pool.size, rows)], np.arange(rows),
                   rng.standard_normal((rows, 2))]
        write_csv(tmp_path / "x.csv", "a,b,c,d,e,f,g,h", columns)
        assert (tmp_path / "x.csv").read_bytes() == \
            reference_csv_lines("a,b,c,d,e,f,g,h", columns).encode()

    @pytest.mark.parametrize("rows", [0, 1, plant_mod._NPY_ROWS - 1, plant_mod._NPY_ROWS,
                                      plant_mod._NPY_ROWS + 1, 3 * plant_mod._NPY_ROWS + 7])
    def test_npy_equals_np_save(self, tmp_path, rows):
        # written a slice at a time, the file is byte for byte np.save of
        # the whole stacked array, the special values and the field names
        # included, and it reads back without unpickling
        rng = np.random.default_rng(rows)
        mat = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
        specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
        mat.flat[:len(specials)] = specials[:mat.size]
        mat[-1:] = mat[:1]   # NaN and both infinities in the last slice too
        columns, names = [np.arange(rows) * 0.01, mat, rng.standard_normal(rows)], list("tabcd")
        write_npy(tmp_path / "streamed.npy", names, columns)
        dtype = np.dtype([(name, "<f8") for name in names])
        np.save(tmp_path / "whole.npy", np.column_stack(columns).view(dtype)[:, 0])
        assert (tmp_path / "streamed.npy").read_bytes() == (tmp_path / "whole.npy").read_bytes()
        with open(tmp_path / "streamed.npy", "rb") as fh:
            back = np.lib.format.read_array(fh, allow_pickle=False)
        assert back.dtype.names == tuple(names) and back.shape == (rows,)
        assert np.array_equal(back.view("<f8").reshape(rows, 5).view(np.int64),
                              np.column_stack(columns).view(np.int64))

    def test_npy_names_count_columns(self, tmp_path):
        with pytest.raises(ValueError, match="x.npy: 4 columns for 3 names"):
            write_npy(tmp_path / "x.npy", ["t", "a", "b"], [np.zeros(5), np.zeros((5, 3))])
