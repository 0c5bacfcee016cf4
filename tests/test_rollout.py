"""Autoregressive rollout: warm-up, clamps, windows, compounding."""

import importlib
import math
from dataclasses import replace
from operator import mul

import numpy as np
import pytest

from throttleid.excitation import (ExcitationConfig, build_corpus,
                                   excitation_segment, step_stair_trace)
from throttleid.features import (LAMBDA_EPS, LAMBDA_SCALE, TARGET_NAMES, _buffer, _input_windows,
                                 assemble, build_row, lambda_feature, merge)
from throttleid.plant import CommandTrace, PlantConfig, PlantTrajectory, simulate
from throttleid.regression import BasisSpec, fit_lasso, predict
from throttleid.rollout import (RolloutDivergenceError, ValidationReport, _window_coefficients,
                                descent_profile, error_windows, rollout, teacher_forced_eval,
                                timeseries_csv)

EX = ExcitationConfig(duration=10.0)
PC = PlantConfig()


# Bases whose coefficients the rollout must fold into its window as
# `predict` applies them, each with the history length of its small
# model: degree 1, whose buffer holds values alone; degree 3, whose
# buffer holds cubes too; and no basis at all, an unstandardized model on
# the raw features, with no bias entry.
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
    return fit_lasso(ds.inputs, ds.targets, 3e-5, basis=basis, n_history=n,
                     penalty_scale="sqrt-rows")


@pytest.fixture(scope="module")
def models(corpus):
    """The small model of the default basis and of each of BASES, by name."""
    return {"default": fit_small(corpus, BasisSpec(), 4),
            **{name: fit_small(corpus, *spec) for name, spec in BASES.items()}}


@pytest.fixture(scope="module")
def small_model(models):
    return models["default"]


@pytest.fixture(scope="module", params=list(BASES))
def basis_model(request, models):
    return models[request.param]


@pytest.fixture(scope="module")
def stair_pair(small_model):
    trace = step_stair_trace([400.0, 650.0, 500.0], 3.0, PC)
    truth = simulate(trace, PC)
    return trace, truth


def reference_rollout(model, trace, warmup):
    """The rollout written as a per-step build_row + predict loop, kept as
    the reference the one-product loop must match up to reassociation."""
    n, L = model.n, len(trace) + 1
    cmd = np.vstack([np.zeros((1, 4)), trace.commands])
    st = np.vstack([np.zeros((1, 4)), trace.status])
    out = np.zeros((L, 7))
    out[:n] = np.column_stack([warmup.thrusts[:n], warmup.pressures[:n],
                               warmup.m_fuel[:n], warmup.m_ox[:n]])
    raw = out.copy()
    for t in range(n, L):
        hist = out[t - n:t][::-1]
        x = build_row(cmd[t], cmd[t - n:t][::-1], hist[:, :4], hist[:, 4], hist[:, 5],
                      hist[:, 6], st[t], lambda_feature(out[t - 1, 5], out[t - 1, 6]))
        raw[t] = y = predict(model, x)
        out[t] = y
        out[t, :4] = np.maximum(y[:4], 0.0)
        out[t, 5:] = np.maximum(y[5:], out[t - 1, 5:])
    return out, raw


def frozen_step_loop(model, trace, warmup):
    """The one-product rollout with its former step: `max` for the mass
    clamp, conditional expressions for the thrust floor, every value
    checked for finiteness, and the row assigned through numpy. Kept as
    the reference that the leaner step must match bit for bit; returns
    the (L, 7) clamped outputs and the raw predictions."""
    n, L = model.n, len(trace) + 1
    degree = 1 if model.basis is None else model.basis.degree
    buf = np.zeros((L, 16 * degree + 1))
    powers = buf[:, :-1].reshape(L, 2, degree, 8)
    sample, inputs = powers[:, 0, 0], powers[:, 1, 0]
    inputs[1:, :4] = trace.commands
    inputs[1:, 4:] = trace.status
    sample[:n] = _buffer(warmup)[:n, :8]
    for k in range(1, degree):
        np.multiply(powers[:, :, k - 1], powers[:, :, 0], out=powers[:, :, k])
    buf[:, -1] = 1.0
    raw = np.zeros((L, 7))
    raw[:n] = sample[:n, :7]
    keff = _window_coefficients(model, degree)
    out_rows = buf[:, :8 * degree]
    mf_prev, mo_prev = float(sample[n - 1, 5]), float(sample[n - 1, 6])
    with np.errstate(invalid="ignore", over="ignore"):
        for t, window, y in zip(range(n, L), _input_windows(buf, n), raw[n:]):
            keff.dot(window, out=y)
            ys = y.tolist()
            if not all(map(math.isfinite, ys)):
                raise RolloutDivergenceError(t, t * trace.dt)
            t1, t2, t3, t4, pressure, mf, mo = ys
            t1, t2, t3, t4 = (t1 if t1 >= 0.0 else 0.0, t2 if t2 >= 0.0 else 0.0,
                              t3 if t3 >= 0.0 else 0.0, t4 if t4 >= 0.0 else 0.0)
            mf_prev, mo_prev = max(mf, mf_prev), max(mo, mo_prev)
            lam = LAMBDA_SCALE / (mf_prev + mo_prev + LAMBDA_EPS)
            row = power = values = [t1, t2, t3, t4, pressure, mf_prev, mo_prev, lam]
            for _ in range(1, degree):
                power = list(map(mul, power, values))
                row = row + power
            out_rows[t] = row
    return sample[:, :7].copy(), raw


def check_matches_frozen_loop(model, trace, warmup):
    """`rollout` is bitwise `frozen_step_loop`."""
    expected = frozen_step_loop(model, trace, warmup)
    pred, raw = rollout(model, trace, warmup)
    assert pred.outputs.tobytes() == expected[0].tobytes()
    assert raw.tobytes() == expected[1].tobytes()


def assert_close(actual, desired, rel):
    """Agreement to `rel` of each output's largest magnitude: a sum taken
    in another order differs by rounding relative to its terms, not to a
    result that cancels to near zero."""
    assert np.all(np.abs(actual - desired) <= rel * np.abs(desired).max(axis=0))


def window_predictions(model, traj):
    """The folded coefficients applied to every window of a rollout buffer
    holding `traj` itself, laid out as `rollout` lays its own out: the
    `features` buffer's two groups of 8 columns, each with its powers
    1..degree, then a constant one."""
    degree = 1 if model.basis is None else model.basis.degree
    keff = _window_coefficients(model, degree)
    L = len(traj)
    buf = np.zeros((L, keff.shape[1] // (model.n + 1)))
    for k in range(degree):
        buf[:, :-1].reshape(L, 2, degree, 8)[:, :, k] = (_buffer(traj) ** (k + 1)).reshape(L, 2, 8)
    buf[:, -1] = 1.0
    return _input_windows(buf, model.n) @ keff.T


def check_matches_reference(model, trace, truth):
    """The folded coefficients act on each window of a trajectory as K
    on its `assemble` row; each rollout step predicts from the row that
    `assemble` builds out of the rollout's own output; and the loop agrees
    with the per-step build_row + predict one up to reassociation.

    The two one-step checks hold to 1e-12. In the closed loop the
    rounding of each step feeds the next: on the no-basis model the
    pressure drifts by ~1e-15 of its scale per step, so over this 901-row
    trace it ends ~1e-12 from the reference (an exactly rounded sum per
    step ends 5e-13 away), and the loop gets ten times the one-step bound.
    """
    n = model.n
    expected = predict(model, assemble(truth, n).inputs)
    np.testing.assert_allclose(window_predictions(model, truth), expected, rtol=1e-12)
    pred, raw = rollout(model, trace, truth)
    assert_close(raw[n:], predict(model, assemble(pred, n).inputs), 1e-12)
    out, ref_raw = reference_rollout(model, trace, truth)
    assert raw[:n].tobytes() == ref_raw[:n].tobytes()
    assert_close(raw, ref_raw, 1e-11)
    assert_close(pred.outputs, out, 1e-11)


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

    def test_prediction_owns_its_arrays(self, small_model, stair_pair):
        # the prediction's two matrices are copies, not views of the
        # rollout's buffer, so the buffer is freed when the rollout returns
        trace, truth = stair_pair
        pred, raw = rollout(small_model, trace, truth)
        assert pred.inputs.base is None and pred.outputs.base is None and raw.base is None
        assert np.array_equal(pred.inputs, truth.inputs)

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

    @pytest.mark.parametrize("name", ["default", *BASES])
    def test_bitwise_frozen_step_loop(self, models, stair_pair, name):
        # the lean step (sum-first finiteness check, no `max` call, a struct
        # pack of the row) keeps every bit of the former one, on the stair
        # and on the descent's first 5,000 steps
        check_matches_frozen_loop(models[name], *stair_pair)
        descent = descent_profile(PC.dt)
        head = CommandTrace(dt=PC.dt, commands=descent.commands[:5000],
                            status=descent.status[:5000], name="descent")
        check_matches_frozen_loop(models[name], head, simulate(head, PC))

    def test_mass_tie_keeps_the_prediction(self, models, stair_pair):
        # max(m, m_prev) returns m on a tie: a 0.0 prediction after a -0.0
        # mass is 0.0, a -0.0 after 0.0 stays -0.0. Every coefficient is 0,
        # so every prediction is a signed zero that ties its predecessor
        trace, truth = stair_pair
        zero = replace(models["none"], K=np.zeros_like(models["none"].K))
        for signs in ((-0.0, 0.0), (0.0, -0.0)):
            warmup = replace(truth, outputs=truth.outputs.copy())
            warmup.m_fuel[:], warmup.m_ox[:] = signs
            check_matches_frozen_loop(zero, trace, warmup)
            pred, raw = rollout(zero, trace, warmup)
            n = zero.n
            assert pred.m_fuel[n:].tobytes() == raw[n:, 5].tobytes()
            assert pred.m_ox[n:].tobytes() == raw[n:, 6].tobytes()

    def test_overflowing_sum_is_no_divergence(self, models, stair_pair):
        # finite predictions whose sum overflows pass the finiteness check
        # that the sum only screens: each value is then checked on its own
        trace, truth = stair_pair
        big = replace(models["linear"], K=np.zeros_like(models["linear"].K))
        big.K[4:7, 0] = 1e308
        check_matches_frozen_loop(big, trace, truth)
        raw = rollout(big, trace, truth)[1]
        assert np.isfinite(raw).all()
        assert not any(map(math.isfinite, map(sum, raw[big.n:].tolist())))

    def test_no_basis_expands_a_row(self, monkeypatch, models, stair_pair):
        # every basis is folded into the window's coefficients once, so a
        # step expands no row; the 0-row width check expands nothing either
        def no_expansion(*args):
            raise AssertionError("the rollout expanded a row")

        for model in models.values():
            with monkeypatch.context() as patch:
                patch.setattr(importlib.import_module("throttleid.regression"), "expand",
                              no_expansion)
                _, raw = rollout(model, *stair_pair)
            assert_close(raw, reference_rollout(model, *stair_pair)[1], 1e-11)

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
        # an infinite bias makes the first predicted sample non-finite
        trace, truth = stair_pair
        bad = replace(small_model, K=small_model.K * 0)
        bad.K[:, 0] = np.inf
        with pytest.raises(RolloutDivergenceError) as err:
            rollout(bad, trace, truth)
        assert err.value.sample == small_model.n

    def test_overflowing_square_diverges_next_sample(self, small_model, stair_pair):
        # a finite pressure whose square overflows is kept, and the next
        # product, which reads that square, is non-finite: a divergence,
        # with no numpy warning on the way
        trace, truth = stair_pair
        bad = replace(small_model, K=small_model.K * 0)
        bad.K[4, 0] = 1e200
        with pytest.raises(RolloutDivergenceError) as err:
            rollout(bad, trace, truth)
        assert err.value.sample == small_model.n + 1

    def test_old_layout_rejected(self, small_model, stair_pair):
        # a model of the 11n + 10 layout, with a standalone pressure slot,
        # would read every later slot one column off; its width is refused
        trace, truth = stair_pair
        old = replace(small_model, n=6, K=np.zeros((7, 1 + 2 * 76)))
        with pytest.raises(ValueError, match="feature width 75 does not match model input "
                                             "width 76"):
            rollout(old, trace, truth)


class TestTeacherForced:
    def test_zero_error_on_exact_linear_system(self):
        # a noiseless linear difference system is inside the model
        # class, so the mu=0 fit reproduces it to machine precision
        from conftest import ar2_trajectory
        traj = ar2_trajectory(n_samples=3000, noise=0.0)
        ds = assemble(traj, 2)
        basis = BasisSpec(degree=1)
        model = fit_lasso(ds.inputs, ds.targets, 0.0, basis=basis, n_history=2)
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
        spliced = PlantTrajectory(dt=truth.dt, inputs=truth.inputs,
                                  outputs=np.vstack([truth.outputs[:n], y]))
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

    def test_step_mismatch_rejected(self, stair_pair):
        # two trajectories of equal length at different steps do not
        # describe the same seconds
        _, truth = stair_pair
        coarse = replace(truth, dt=2 * truth.dt)
        with pytest.raises(ValueError, match=f"step {truth.dt} s differs from .* step "
                                             f"{2 * truth.dt} s"):
            error_windows(truth, coarse, cfg=PC)

    def test_windows_partition(self, small_model, stair_pair):
        trace, truth = stair_pair
        rep = error_windows(truth, rollout(small_model, trace, truth)[0], cfg=PC)
        assert rep.n_transient + rep.n_steady == rep.n_samples

    def test_json_roundtrip(self, tmp_path, stair_pair):
        _, truth = stair_pair
        rep = error_windows(truth, truth, experiment="id", cfg=PC)
        text = rep.to_json(tmp_path / "rep.json")
        assert '"experiment": "id"' in text

    def test_clamp_counts(self, stair_pair):
        # each prediction a clamp changed is counted once: a floored thrust
        # by its engine's status (row 0 is the rest sample, every engine
        # off; row 10 has every engine on), and a raw mass below the last
        # one, which the clamp raised
        _, truth = stair_pair
        raw = truth.outputs.copy()
        raw[0, 1], raw[10, 0], raw[10, 2], raw[20, 5] = -0.5, -1.0, -0.1, raw[19, 5] - 1e-3
        pred = replace(truth, outputs=truth.outputs.copy())
        pred.thrusts[0, 1] = pred.thrusts[10, 0] = pred.thrusts[10, 2] = 0.0
        rep = error_windows(truth, pred, cfg=PC, raw=raw)
        assert (rep.thrust_floor_on, rep.thrust_floor_off, rep.mass_clamps) == (2, 1, 1)
        assert error_windows(truth, pred, cfg=PC).thrust_floor_on is None


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
        err = pred.outputs - truth.outputs
        assert (data[:, 2::2] - data[:, 1::2]).tobytes() == err.tobytes()
