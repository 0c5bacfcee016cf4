"""Dataset assembly: width law, alignment, leakage, folds."""

import dataclasses

import numpy as np
import pytest

from conftest import ar2_trajectory, reduced_pipeline_config
from throttleid.excitation import ExcitationConfig, build_corpus, excitation_segment
from throttleid.features import (_gather_index, assemble, feature_names, input_width,
                                 kfold_indices, lambda_feature, merge)
from throttleid.pipeline import validation_traces
from throttleid.plant import CommandTrace, PlantConfig, PlantTrajectory, simulate


@pytest.fixture(scope="module")
def traj():
    cfg = PlantConfig()
    seg = excitation_segment(520.0, ExcitationConfig(duration=8.0), cfg)
    return simulate(seg, cfg)


def _history_block(series, n):
    """(L-n, n) matrix whose row (t-n) is [x_{t-1}, ..., x_{t-n}]."""
    L = series.shape[0]
    return np.stack([series[n - h:L - h] for h in range(1, n + 1)], axis=1)


def reference_assemble(traj, n):
    """(inputs, targets) of `assemble` built block by block from the
    trajectory's columns, in the layout the module docstring lists."""
    L = len(traj)
    blocks = [traj.commands[n:]]
    blocks += [_history_block(traj.commands[:, j], n) for j in range(4)]
    blocks += [_history_block(traj.thrusts[:, j], n) for j in range(4)]
    blocks += [_history_block(traj.pressures, n)]
    blocks += [_history_block(traj.m_fuel, n)]
    blocks += [_history_block(traj.m_ox, n)]
    blocks += [traj.status[n:]]
    blocks += [lambda_feature(traj.m_fuel[n - 1:L - 1],
                              traj.m_ox[n - 1:L - 1])[:, None]]
    targets = np.concatenate(
        [traj.thrusts[n:], traj.pressures[n:, None],
         traj.m_fuel[n:, None], traj.m_ox[n:, None]], axis=1)
    return np.concatenate(blocks, axis=1), targets


@pytest.fixture(scope="module")
def layout_trajs():
    """A reduced simulated corpus, the four validation traces and the
    AR(2) control."""
    cfg = reduced_pipeline_config("unused")
    traces = build_corpus(cfg.excitation, cfg.plant) + validation_traces(cfg)
    return [simulate(tr, cfg.plant) for tr in traces] + [ar2_trajectory()]


class TestLambda:
    def test_zero_mass(self):
        assert lambda_feature(0.0, 0.0) == 1.0

    def test_nine_kg(self):
        assert lambda_feature(4.0, 5.0) == pytest.approx(0.1)

    def test_monotone_decreasing(self):
        total = np.linspace(0, 50, 100)
        lam = lambda_feature(total, np.zeros_like(total))
        assert np.all(np.diff(lam) < 0.0)
        assert np.all(lam > 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lambda_feature(-1.0, 0.0)


class TestAssemble:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_width_law(self, traj, n):
        ds = assemble(traj, n)
        assert ds.inputs.shape == (len(traj) - n, 11 * n + 9)
        assert ds.targets.shape == (len(traj) - n, 7)
        assert len(feature_names(n)) == input_width(n)

    def test_minimal_length(self, traj):
        cfg = PlantConfig()
        short = simulate(CommandTrace(dt=cfg.dt, commands=np.full((3, 4), 400.0),
                                      status=np.ones((3, 4))), cfg)
        ds = assemble(short, 3)  # 4 rows, n=3 -> 1 row
        assert len(ds) == 1

    def test_too_short_rejected(self, traj):
        cfg = PlantConfig()
        short = simulate(CommandTrace(dt=cfg.dt, commands=np.full((2, 4), 400.0),
                                      status=np.ones((2, 4))), cfg)
        with pytest.raises(ValueError, match="too short"):
            assemble(short, 3)

    def test_all_off_targets(self):
        cfg = PlantConfig()
        traj0 = simulate(CommandTrace(dt=cfg.dt, commands=np.zeros((50, 4)),
                                      status=np.zeros((50, 4))), cfg)
        ds = assemble(traj0, 4)
        assert np.all(ds.targets[:, :4] == 0.0)
        lam_col = ds.inputs[:, -1]
        assert np.all(lam_col == lam_col[0])

    @pytest.mark.parametrize("n", [1, 3])
    def test_history_lag_order(self, n):
        # every history block of row t-n reads [x_{t-1}, ..., x_{t-n}]
        L = 12
        series = np.arange(L, dtype=float)
        ramp = np.column_stack([series + 100.0 * j for j in range(4)])
        traj0 = PlantTrajectory(dt=0.01, inputs=np.column_stack([ramp, np.ones((L, 4))]),
                                outputs=np.column_stack([ramp + 1000.0, series + 2000.0,
                                                         series + 3000.0, series + 4000.0]))
        ds = assemble(traj0, n)
        lags = np.arange(n, L)[:, None] - np.arange(1, n + 1)   # (rows, n): t-1 .. t-n
        blocks = [ramp[:, j] for j in range(4)] + [ramp[:, j] + 1000.0 for j in range(4)]
        starts = [4 + j * n for j in range(8)]
        blocks += [series + 2000.0, series + 3000.0, series + 4000.0]
        starts += [4 + 8 * n, 4 + 9 * n, 4 + 10 * n]
        for col, x in zip(starts, blocks):
            np.testing.assert_array_equal(ds.inputs[:, col:col + n], x[lags])

    def test_alignment_history_vs_previous_target(self, traj):
        n = 6
        ds = assemble(traj, n)
        to_h_start = 4 + 4 * n  # first entry of the thrust-history block
        np.testing.assert_array_equal(ds.inputs[1:, to_h_start], ds.targets[:-1, 0])
        # pressure history lag 1 against the pressure target
        p_h_start = 4 + 8 * n
        np.testing.assert_array_equal(ds.inputs[1:, p_h_start], ds.targets[:-1, 4])

    def test_no_leakage_impulse(self):
        # Paint a one-sample impulse into the recorded thrust of an
        # otherwise-quiet trajectory: histories may reference it only
        # from the next row on.
        cfg = PlantConfig()
        traj0 = simulate(CommandTrace(dt=cfg.dt, commands=np.zeros((60, 4)),
                                      status=np.zeros((60, 4))), cfg)
        t_imp = 30
        traj0.thrusts[t_imp, 0] = 123.0
        n = 5
        ds = assemble(traj0, n)
        hit_rows = np.where(np.any(ds.inputs == 123.0, axis=1))[0]
        # rows are indexed by t - n; first appearance must be t_imp + 1
        assert hit_rows.min() == t_imp + 1 - n
        # and the impulse row's own inputs do not see it
        assert not np.any(ds.inputs[t_imp - n] == 123.0)
        # it appears in that row's target instead
        assert ds.targets[t_imp - n, 0] == 123.0

    def test_lambda_slot_uses_previous_masses(self, traj):
        n = 3
        ds = assemble(traj, n)
        lam = ds.inputs[:, -1]
        mf_h1 = ds.inputs[:, 4 + 9 * n]
        mo_h1 = ds.inputs[:, 4 + 10 * n]
        np.testing.assert_allclose(lam, lambda_feature(mf_h1, mo_h1), rtol=1e-15)


class TestGather:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_equals_reference_assemble(self, layout_trajs, n):
        for tr in layout_trajs:
            ds = assemble(tr, n)
            inputs, targets = reference_assemble(tr, n)
            assert ds.inputs.shape == inputs.shape and ds.targets.shape == targets.shape
            assert ds.inputs.tobytes() == inputs.tobytes(), (tr.name, n)
            assert ds.targets.tobytes() == targets.tobytes(), (tr.name, n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_each_offset_read_once(self, n):
        # no input duplicates another, and the rollout scatters its
        # coefficients through the index by assignment
        index = _gather_index(n)
        assert len(index) == input_width(n) == len(np.unique(index))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_names_match_gathered_cells(self, n):
        # every channel sample holds 1000 * (channel + 1) + row, and lambda
        # encodes its row through the masses, so each assembled value says
        # which channel and lag it was read from
        channels = ([f"Tr{j}" for j in range(1, 5)] + [f"To{j}" for j in range(1, 5)]
                    + ["P", "mf", "mo"] + [f"Se{j}" for j in range(1, 5)])
        L = 20
        code = {name: 1000.0 * (k + 1) + np.arange(L) for k, name in enumerate(channels)}
        block = lambda prefix: np.column_stack([code[f"{prefix}{j}"] for j in range(1, 5)])
        traj0 = PlantTrajectory(dt=0.01, inputs=np.column_stack([block("Tr"), block("Se")]),
                                outputs=np.column_stack([block("To"), code["P"], code["mf"],
                                                         code["mo"]]))
        ds = assemble(traj0, n)
        t, names = np.arange(n, L), []
        for v in ds.inputs.T:
            if np.all(v < 1.0):   # lambda = 1 / (mf + mo + 1) of some row
                channel = "lam"
                row = np.rint((1.0 / v - 1.0 - code["mf"][0] - code["mo"][0]) / 2)
            else:
                channel, row = channels[int(v[0] // 1000) - 1], v % 1000
            lags = t - row
            assert np.all(lags == lags[0]) and np.all(v // 1000 == v[0] // 1000)
            names.append(channel + (f"_m{int(lags[0])}" if lags[0] else ""))
        assert feature_names(n) == names

    def test_negative_mass_in_last_row_rejected(self, traj):
        bad = dataclasses.replace(traj, outputs=traj.outputs.copy())
        bad.m_ox[-1] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            assemble(bad, 3)


class TestMergeAndSplit:
    def test_merge_identity(self, traj):
        ds = assemble(traj, 4)
        merged = merge([ds])
        assert np.array_equal(merged.inputs, ds.inputs)

    def test_merge_counts(self, traj):
        a = assemble(traj, 4)
        b = dataclasses.replace(a, inputs=a.inputs[::-1].copy(), targets=a.targets[::-1].copy())
        m = merge([a, b])
        assert len(m) == 2 * len(a)
        # a's rows, then b's, each in its own order
        assert np.array_equal(m.inputs, np.vstack([a.inputs, b.inputs]))
        assert np.array_equal(m.targets, np.vstack([a.targets, b.targets]))

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge([])

    def test_merge_mismatched_n_rejected(self, traj):
        with pytest.raises(ValueError):
            merge([assemble(traj, 3), assemble(traj, 4)])

    def test_kfold_partition(self):
        folds = kfold_indices(103, 5, seed=1)
        assert len(folds) == 5
        sizes = [len(te) for te in folds]
        assert max(sizes) - min(sizes) <= 1
        # the sorted test folds partition the rows; each train set is the rest
        np.testing.assert_array_equal(np.sort(np.concatenate(folds)), np.arange(103))
        for test in folds:
            assert np.all(np.diff(test) > 0)
            train = np.delete(np.arange(103), test)
            np.testing.assert_array_equal(np.sort(np.concatenate([train, test])),
                                          np.arange(103))

    def test_kfold_small_exact(self):
        folds = kfold_indices(10, 5, seed=0)
        assert all(len(te) == 2 and len(np.delete(np.arange(10), te)) == 8 for te in folds)

    def test_kfold_deterministic(self):
        a = kfold_indices(57, 4, seed=3)
        b = kfold_indices(57, 4, seed=3)
        for tea, teb in zip(a, b):
            assert np.array_equal(tea, teb)
            assert np.array_equal(np.delete(np.arange(57), tea), np.delete(np.arange(57), teb))
        assert any(not np.array_equal(tea, teb)
                   for tea, teb in zip(a, kfold_indices(57, 4, seed=4)))

    def test_kfold_too_many_folds(self):
        with pytest.raises(ValueError):
            kfold_indices(3, 4, seed=0)
