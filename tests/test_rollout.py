"""Autoregressive rollout: warm-up, clamps, windows, compounding."""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from throttleid.excitation import (ExcitationConfig, build_corpus,
                                   excitation_segment, step_stair_trace)
from throttleid.features import (TARGET_NAMES, _outputs, assemble, build_row, lambda_feature,
                                 merge)
from throttleid.plant import CommandTrace, PlantConfig, PlantTrajectory, simulate
from throttleid.regression import BasisSpec, expand, fit_lasso, predict
from throttleid.rollout import (RolloutDivergenceError, ValidationReport,
                                descent_profile, error_windows, rollout,
                                teacher_forced_eval, timeseries_csv)

EX = ExcitationConfig(duration=10.0)
PC = PlantConfig()


# Bases the rollout must expand exactly as `predict` does, each with the
# history length of its small model: degree 1, whose row the gather fills
# with values alone; degree 3, whose cubes are computed from the gathered
# values; and no basis at all, an unstandardized model on the raw features.
BASES = {
    "linear": (BasisSpec(degree=1), 4),
    "poly3": (BasisSpec(degree=3), 4),
    "none": (None, 4),
}


@pytest.fixture(scope="module")
def corpus():
    return [simulate(t, PC) for t in build_corpus(EX, PC)]


def fit_small(corpus, basis, n):
    ds = merge([assemble(t, n) for t in corpus])
    features = ds.inputs if basis is None else expand(ds.inputs, basis)
    return fit_lasso(features, ds.targets, 3e-5, basis=basis, n_history=n,
                     penalty_scale="sqrt-rows")


@pytest.fixture(scope="module")
def small_model(corpus):
    return fit_small(corpus, BasisSpec(), 4)


@pytest.fixture(scope="module", params=list(BASES))
def basis_model(request, corpus):
    return fit_small(corpus, *BASES[request.param])


@pytest.fixture(scope="module")
def stair_pair(small_model):
    trace = step_stair_trace([400.0, 650.0, 500.0], 3.0, PC)
    truth = simulate(trace, PC)
    return trace, truth


def reference_rollout(model, trace, warmup):
    """The rollout written as a per-step build_row + predict loop, kept as
    the reference the gather-based loop must match bit for bit."""
    n, L = model.n, len(trace) + 1
    cmd = np.vstack([np.zeros((1, 4)), trace.commands])
    st = np.vstack([np.zeros((1, 4)), trace.status])
    out = np.zeros((L, 7))
    out[:n] = np.column_stack([warmup.thrusts[:n], warmup.pressures[:n],
                               warmup.m_fuel[:n], warmup.m_ox[:n]])
    raw = out.copy()
    for t in range(n, L):
        hist = out[t - n:t][::-1]
        x = build_row(cmd[t], cmd[t - n:t][::-1], hist[:, :4], out[t - 1, 4], hist[:, 4],
                      hist[:, 5], hist[:, 6], st[t], lambda_feature(out[t - 1, 5], out[t - 1, 6]))
        raw[t] = y = predict(model, x)
        out[t] = y
        out[t, :4] = np.maximum(y[:4], 0.0)
        out[t, 5:] = np.maximum(y[5:], out[t - 1, 5:])
    return out, raw


def check_matches_reference(model, trace, truth):
    """Each rollout step predicts from the row that `assemble` builds out
    of the rollout's own output, so the gather index is its layout; and
    the loop is bitwise the per-step build_row + predict one."""
    pred, raw = rollout(model, trace, truth)
    n = model.n
    np.testing.assert_allclose(predict(model, assemble(pred, n).inputs), raw[n:], rtol=1e-12)
    out, ref_raw = reference_rollout(model, trace, truth)
    assert raw.tobytes() == ref_raw.tobytes()
    assert np.column_stack([pred.thrusts, pred.pressures, pred.m_fuel,
                            pred.m_ox]).tobytes() == out.tobytes()


class TestRollout:
    def test_warmup_rows_copied_exactly(self, small_model, stair_pair):
        trace, truth = stair_pair
        pred, _ = rollout(small_model, trace, truth)
        n = small_model.n
        assert np.array_equal(pred.thrusts[:n], truth.thrusts[:n])
        assert np.array_equal(pred.pressures[:n], truth.pressures[:n])
        assert np.array_equal(pred.m_fuel[:n], truth.m_fuel[:n])

    def test_clamps_hold(self, small_model, stair_pair):
        trace, truth = stair_pair
        pred, _ = rollout(small_model, trace, truth)
        assert np.all(pred.thrusts >= 0.0)
        assert np.all(np.diff(pred.m_fuel) >= 0.0)
        assert np.all(np.diff(pred.m_ox) >= 0.0)

    def test_deterministic(self, small_model, stair_pair):
        trace, truth = stair_pair
        a, _ = rollout(small_model, trace, truth)
        b, _ = rollout(small_model, trace, truth)
        assert np.array_equal(a.thrusts, b.thrusts)
        assert np.array_equal(a.pressures, b.pressures)

    def test_collect_raw(self, small_model, stair_pair):
        trace, truth = stair_pair
        pred, raw = rollout(small_model, trace, truth)
        assert raw.shape == (len(pred), 7)
        # clamped thrust never differs from raw except at the floor
        diff = pred.thrusts - raw[:, :4]
        assert np.all(diff[raw[:, :4] >= 0.0] == 0.0)

    def test_step_input_is_assemble_row(self, small_model, stair_pair):
        check_matches_reference(small_model, *stair_pair)

    def test_step_input_is_assemble_row_across_bases(self, basis_model, stair_pair):
        check_matches_reference(basis_model, *stair_pair)

    def test_default_basis_gathers_its_squares(self, monkeypatch, small_model, stair_pair):
        # the degree-2 row comes whole from the buffer, which carries the
        # squares, and still matches the per-step expand + predict loop
        def no_expansion(*args):
            raise AssertionError("the rollout expanded a degree-2 row")

        monkeypatch.setattr(importlib.import_module("throttleid.rollout"), "expand",
                            no_expansion)
        check_matches_reference(small_model, *stair_pair)

    def test_all_off_stays_near_zero(self, small_model):
        trace = CommandTrace(dt=PC.dt, commands=np.zeros((500, 4)),
                             status=np.zeros((500, 4)))
        truth = simulate(trace, PC)
        pred, _ = rollout(small_model, trace, truth)
        assert np.max(np.abs(pred.thrusts)) < 2.0
        assert pred.m_fuel[-1] < 0.1

    def test_too_short_trace_rejected(self, small_model):
        trace = CommandTrace(dt=PC.dt, commands=np.full((2, 4), 400.0),
                             status=np.ones((2, 4)))
        truth = simulate(trace, PC)
        with pytest.raises(ValueError, match="too short"):
            rollout(small_model, CommandTrace(dt=PC.dt,
                                              commands=trace.commands[:1],
                                              status=trace.status[:1]), truth)

    def test_short_warmup_rejected(self, small_model, stair_pair):
        trace, truth = stair_pair
        stub = simulate(CommandTrace(dt=PC.dt, commands=trace.commands[:2],
                                     status=trace.status[:2]), PC)
        with pytest.raises(ValueError, match="warm-up"):
            rollout(small_model, trace, stub)

    def test_seeded_from_plant_prefix(self, small_model, stair_pair):
        # the plant is causal: its response to the first n commands is
        # bitwise the first rows of the full response, and so seeds the
        # same rollout
        trace, truth = stair_pair
        n = small_model.n
        head = simulate(CommandTrace(dt=trace.dt, commands=trace.commands[:n],
                                     status=trace.status[:n]), PC)
        pred, raw = rollout(small_model, trace, truth)
        pred_head, raw_head = rollout(small_model, trace, head)
        assert raw_head.tobytes() == raw.tobytes()
        for name in ("commands", "status", "thrusts", "pressures", "m_fuel", "m_ox"):
            assert getattr(pred_head, name).tobytes() == getattr(pred, name).tobytes()

    def test_step_mismatch_rejected(self, small_model, stair_pair):
        # a model records the step it was fitted at; a trace at another is refused
        trace, truth = stair_pair
        with pytest.raises(ValueError, match=f"model fitted at step {2 * trace.dt} s cannot "
                                             f"roll out a trace at step {trace.dt} s"):
            rollout(replace(small_model, dt=2 * trace.dt), trace, truth)
        assert len(rollout(replace(small_model, dt=trace.dt), trace, truth)[0]) == len(truth)

    def test_divergence_detected(self, small_model, stair_pair):
        trace, truth = stair_pair
        bad = fit_lasso(np.eye(3), np.zeros((3, 7)), 0.0)
        bad.n = small_model.n
        bad.basis = small_model.basis
        bad.K = small_model.K * 0
        bad.K[:, 0] = np.inf
        with pytest.raises(RolloutDivergenceError):
            rollout(bad, trace, truth)


class TestTeacherForced:
    def test_zero_error_on_exact_linear_system(self):
        # a noiseless linear difference system is inside the model
        # class, so the mu=0 fit reproduces it to machine precision
        from conftest import ar2_trajectory
        traj = ar2_trajectory(n_samples=3000, noise=0.0)
        ds = assemble(traj, 2)
        basis = BasisSpec(degree=1)
        model = fit_lasso(expand(ds.inputs, basis), ds.targets, 0.0,
                          basis=basis, n_history=2)
        rep = teacher_forced_eval(model, traj, cfg=PC)
        assert rep.max_thrust_err < 1e-6

    def test_compounding_direction(self, small_model):
        # rollout error should dominate teacher-forced error on most traces
        wins = 0
        traces = [excitation_segment(520.0, EX, PC),
                  step_stair_trace([400, 700, 400], 3.0, PC),
                  step_stair_trace([800, 240], 4.0, PC)]
        for tr in traces:
            truth = simulate(tr, PC)
            tf = teacher_forced_eval(small_model, truth, cfg=PC)
            pred, _ = rollout(small_model, tr, truth)
            ro = error_windows(truth, pred, cfg=PC)
            if ro.max_thrust_err >= tf.max_thrust_err:
                wins += 1
        assert wins >= 2

    def test_summary_matches_rollout_summary(self, small_model, stair_pair):
        # both reports come out of one summary: with the one-step
        # predictions spliced in after the exact warm-up rows, the rollout
        # summary finds the same maxima and the same module mass error
        _, truth = stair_pair
        n = small_model.n
        y = predict(small_model, assemble(truth, n).inputs)
        head = lambda col: getattr(truth, col)[:n]
        spliced = PlantTrajectory(
            dt=truth.dt, commands=truth.commands, status=truth.status,
            thrusts=np.vstack([head("thrusts"), y[:, :4]]),
            pressures=np.concatenate([head("pressures"), y[:, 4]]),
            m_fuel=np.concatenate([head("m_fuel"), y[:, 5]]),
            m_ox=np.concatenate([head("m_ox"), y[:, 6]]))
        # the second window starts the after-settle error one sample
        # before the largest thrust error, so both modes must start it at
        # the same sample to report the same value
        peak = int(np.argmax(np.abs(spliced.thrusts - truth.thrusts).max(axis=1)))
        for window in (1.0, (peak - 1) * truth.dt):
            tf = teacher_forced_eval(small_model, truth, cfg=PC, settle_window=window)
            ro = error_windows(truth, spliced, window, cfg=PC)
            assert (tf.mode, ro.mode) == ("teacher_forced", "rollout")
            assert tf.n_samples == ro.n_samples - n
            assert ro.max_thrust_err == tf.max_thrust_err
            assert ro.max_thrust_err_after_settle == tf.max_thrust_err_after_settle
            assert ro.module_mass_max_err == tf.module_mass_max_err
            for field in ("max_err_transient", "max_err_steady",
                          "max_thrust_err_per_engine"):
                assert getattr(ro, field).tobytes() == getattr(tf, field).tobytes()

    def test_report_structure(self, small_model, stair_pair):
        _, truth = stair_pair
        rep = teacher_forced_eval(small_model, truth, cfg=PC)
        assert isinstance(rep, ValidationReport)
        assert rep.n_transient + rep.n_steady == rep.n_samples
        assert np.all(np.isfinite(rep.rmse))


class TestErrorWindows:
    def test_identical_trajectories_zero(self, stair_pair):
        _, truth = stair_pair
        rep = error_windows(truth, truth, experiment="self", cfg=PC)
        assert np.all(rep.rmse == 0.0)
        assert rep.max_thrust_err == 0.0
        assert rep.module_mass_max_err == 0.0

    def test_constant_command_no_transient(self):
        trace = CommandTrace(dt=PC.dt, commands=np.full((300, 4), 500.0),
                             status=np.ones((300, 4)))
        truth = simulate(trace, PC)
        rep = error_windows(truth, truth, cfg=PC)
        # only the rest-to-500 startup step marks transient samples
        settle = int(round(1.0 / PC.dt))
        assert rep.n_transient == settle
        assert rep.n_steady == len(truth) - settle

    def test_steady_leq_transient_on_stair(self, small_model, stair_pair):
        trace, truth = stair_pair
        pred, _ = rollout(small_model, trace, truth)
        rep = error_windows(truth, pred, cfg=PC)
        assert np.max(rep.max_err_steady[:4]) <= np.max(rep.max_err_transient[:4])

    def test_misaligned_rejected(self, stair_pair):
        _, truth = stair_pair
        short = simulate(CommandTrace(dt=PC.dt, commands=np.zeros((10, 4)),
                                      status=np.zeros((10, 4))), PC)
        with pytest.raises(ValueError):
            error_windows(truth, short, cfg=PC)

    def test_windows_partition(self, small_model, stair_pair):
        trace, truth = stair_pair
        rep = error_windows(truth, rollout(small_model, trace, truth)[0], cfg=PC)
        assert rep.n_transient + rep.n_steady == rep.n_samples

    def test_json_roundtrip(self, tmp_path, stair_pair):
        _, truth = stair_pair
        rep = error_windows(truth, truth, experiment="id", cfg=PC)
        text = rep.to_json(tmp_path / "rep.json")
        assert '"experiment": "id"' in text


class TestDescent:
    def test_profile_shape(self):
        prof = descent_profile(PC.dt)
        assert prof.duration == pytest.approx(1000.0)
        # braking phase uses all four engines, terminal only the 1/3 pair
        assert np.all(prof.status[2000] == 1.0)
        assert np.array_equal(prof.status[80000], [1, 0, 1, 0])

    def test_profile_within_envelope(self):
        prof = descent_profile(PC.dt)
        on = prof.status > 0
        assert prof.commands[on].min() >= 240.0
        assert prof.commands[on].max() <= 800.0

    def test_plant_survives_profile(self):
        prof = descent_profile(PC.dt)
        truth = simulate(prof, PC)
        remaining = PC.m_module0 - (truth.m_fuel[-1] + truth.m_ox[-1])
        assert remaining > 100.0

    def test_oracle_identity(self, stair_pair):
        # plant replayed against itself: zero error
        trace, truth = stair_pair
        rep = error_windows(truth, truth, experiment="oracle", cfg=PC)
        assert rep.max_thrust_err == 0.0 and rep.module_mass_max_err == 0.0

    def test_timeseries_csv(self, tmp_path, small_model, stair_pair):
        trace, truth = stair_pair
        pred, _ = rollout(small_model, trace, truth)
        path = tmp_path / "ts.csv"
        timeseries_csv(truth, pred, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["t"] + [f"{label}{suffix}" for label in TARGET_NAMES
                                  for suffix in ("", "_pred")]
        assert len(header) == 1 + 2 * 7
        # no error columns: each error is recomputed bitwise from the file
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        true_mat, pred_mat = _outputs(truth), _outputs(pred)
        assert (data[:, 2::2] - data[:, 1::2]).tobytes() == (pred_mat - true_mat).tobytes()
