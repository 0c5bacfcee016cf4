"""Excitation design: level formula, unit-sphere geometry, trace builders."""

import hashlib

import numpy as np
import pytest

from throttleid.excitation import (ExcitationConfig, build_corpus,
                                   corpus_manifest, excitation_basis,
                                   excitation_segment, ramp_trace, save_corpus,
                                   step_stair_trace, thrust_levels)
from throttleid.pipeline import PipelineConfig, validation_traces
from throttleid.plant import PlantConfig
from throttleid.rollout import descent_profile

PC = PlantConfig()


@pytest.fixture()
def cfg():
    return ExcitationConfig()


class TestThrustLevels:
    def test_printed_case(self):
        lv = thrust_levels(ExcitationConfig(m_levels=3), PlantConfig(e_min=400, e_max=700))
        np.testing.assert_allclose(lv, [400.0, 500.0, 600.0], rtol=0, atol=1e-12)

    def test_single_level(self):
        lv = thrust_levels(ExcitationConfig(m_levels=1), PlantConfig(e_min=240, e_max=800))
        assert lv.tolist() == [240.0]

    def test_default_grid(self, cfg):
        np.testing.assert_array_equal(
            thrust_levels(cfg, PC), [240, 310, 380, 450, 520, 590, 660, 730])

    def test_closed_form_exact(self):
        for m in (1, 2, 3, 5, 8, 13):
            pc = PlantConfig(e_min=240.0, e_max=800.0)
            lv = thrust_levels(ExcitationConfig(m_levels=m), pc)
            for k in range(m):
                assert lv[k] == pc.e_min + (k / m) * (pc.e_max - pc.e_min)

    def test_top_level_excluded(self, cfg):
        assert thrust_levels(cfg, PC).max() < PC.e_max


class TestBasis:
    def test_t0(self):
        np.testing.assert_allclose(excitation_basis(0.0), [1, 0, 0, 0], atol=1e-15)

    def test_t_half(self):
        np.testing.assert_allclose(excitation_basis(0.5), [0, 0, 0, 1], atol=1e-12)

    def test_quarter_unit_norm(self):
        s = excitation_basis(0.25)
        # independent recomputation of the three angles
        r, phi = np.pi * 0.25, np.pi * np.sin(0.5)
        theta = np.pi * np.sin(2 * np.sin(0.5))
        expected = [np.cos(r) * np.cos(theta) * np.cos(phi),
                    np.cos(r) * np.cos(theta) * np.sin(phi),
                    np.cos(r) * np.sin(theta), np.sin(r)]
        np.testing.assert_allclose(s, expected, rtol=1e-14)
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12

    def test_unit_norm_sampled(self):
        t = np.random.default_rng(3).uniform(-50, 50, size=20000)
        norms = np.linalg.norm(excitation_basis(t), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


class TestSegment:
    def test_zero_amplitude_constant(self, cfg):
        c = ExcitationConfig(a_amp=0.0, duration=1.0)
        seg = excitation_segment(450.0, c, PC)
        assert np.all(seg.commands == 450.0)
        assert np.all(seg.status == 1.0)

    def test_t0_values(self):
        c = ExcitationConfig(duration=1.0)
        seg = excitation_segment(600.0, c, PC)
        np.testing.assert_allclose(seg.commands[0], [700.0, 600.0, 600.0, 600.0])

    def test_range_respected(self):
        c = ExcitationConfig(duration=30.0)
        seg = excitation_segment(450.0, c, PC)
        assert seg.commands.min() >= 450.0 - c.a_amp - 1e-9
        assert seg.commands.max() <= 450.0 + c.a_amp + 1e-9
        assert seg.commands.min() >= PC.e_min and seg.commands.max() <= PC.e_max

    def test_clamped_at_edges(self):
        c = ExcitationConfig(duration=5.0)
        seg = excitation_segment(PC.e_max, c, PC)
        assert seg.commands.max() <= PC.e_max

    def test_bias_out_of_range_rejected(self, cfg):
        with pytest.raises(ValueError):
            excitation_segment(100.0, cfg, PC)


class TestStairAndRamp:
    def test_single_level(self):
        tr = step_stair_trace([400.0], 10.0, PC)
        assert len(tr) == 1000
        assert np.all(tr.commands == 400.0)

    def test_up_down_stair(self):
        tr = step_stair_trace([400, 600, 800, 600, 400], 5.0, PC)
        assert len(tr) == 2500
        assert tr.commands[0, 0] == 400.0 and tr.commands[1200, 0] == 800.0
        assert tr.duration == pytest.approx(25.0)

    def test_fall_levels(self):
        tr = step_stair_trace([800, 240], 5.0, PC)
        assert tr.commands[0, 0] == 800.0 and tr.commands[-1, 0] == 240.0

    def test_zero_level_means_off(self):
        tr = step_stair_trace([400.0, 0.0], 1.0, PC)
        assert np.all(tr.status[100:] == 0.0)
        assert np.all(tr.commands[100:] == 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            step_stair_trace([], 5.0, PC)

    def test_constant_ramp(self, cfg):
        tr = ramp_trace(500.0, 500.0, 50.0, cfg, PC)
        assert np.all(tr.commands == 500.0)

    def test_ramp_duration(self, cfg):
        tr = ramp_trace(240.0, 800.0, 56.0, cfg, PC)
        t_end_ramp = int(round(10.0 / PC.dt))
        assert tr.commands[t_end_ramp, 0] == pytest.approx(800.0)
        assert np.all(tr.commands[t_end_ramp:] == pytest.approx(800.0))

    def test_ramp_down(self, cfg):
        tr = ramp_trace(800.0, 240.0, 112.0, cfg, PC)
        i5s = int(round(5.0 / PC.dt))
        assert tr.commands[i5s, 0] == pytest.approx(240.0)

    def test_bad_rate_rejected(self, cfg):
        with pytest.raises(ValueError):
            ramp_trace(240.0, 800.0, 0.0, cfg, PC)


class TestCorpus:
    def test_single_segment_minimal(self):
        c = ExcitationConfig(m_levels=1, duration=2.0)
        corpus = build_corpus(c, PC)
        assert sum(1 for t in corpus if t.name.startswith("excite")) == 1

    def test_default_composition_and_coverage(self, cfg):
        corpus = build_corpus(cfg, PC)
        excites = [t for t in corpus if t.name.startswith("excite")]
        assert len(excites) == cfg.m_levels
        on_cmds = np.concatenate([t.commands[t.status > 0] for t in corpus])
        assert on_cmds.min() >= PC.e_min and on_cmds.max() <= PC.e_max
        assert on_cmds.min() <= PC.e_min * 1.01
        assert on_cmds.max() >= PC.e_max * 0.99

    def test_reproducible(self, cfg):
        a = build_corpus(cfg, PC)
        b = build_corpus(cfg, PC)
        assert [t.name for t in a] == [t.name for t in b]
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.commands, tb.commands)

    def test_seed_permutes_order_only(self):
        c = ExcitationConfig(duration=2.0)
        a = build_corpus(c, PC, seed=0)
        b = build_corpus(c, PC, seed=99)
        assert sorted(t.name for t in a) == sorted(t.name for t in b)

    def test_manifest_and_save(self, tmp_path, cfg):
        c = ExcitationConfig(m_levels=2, duration=1.0)
        corpus = build_corpus(c, PC)
        manifest = save_corpus(corpus, c, PC, tmp_path)
        assert (tmp_path / "manifest.json").exists()
        for entry in manifest["segments"]:
            assert (tmp_path / entry["file"]).exists()
        kinds = {e["kind"] for e in manifest["segments"]}
        assert "excitation" in kinds and "fall_step" in kinds

    def test_manifest_records_exact_bias(self):
        # at m_levels=3 the levels are not integers, and a trace name
        # keeps only 6 significant digits of its bias
        c = ExcitationConfig(m_levels=3, duration=1.0)
        manifest = corpus_manifest(build_corpus(c, PC), c, PC)
        biases = sorted(e["e_bias"] for e in manifest["segments"] if e["kind"] == "excitation")
        assert biases == [float(b) for b in thrust_levels(c, PC)]
        assert 426.66666666666663 in biases
        assert {e["name"] for e in manifest["segments"]} >= {"excite_b426.667", "excite_b613.333"}


def _digest(trace):
    assert trace.commands.dtype == trace.status.dtype == np.float64
    return hashlib.sha256(trace.commands.tobytes() + trace.status.tobytes()).hexdigest()


# sha256 of commands then status of every piecewise-constant or linspace
# profile: however they are built, every bit stays, signed zeros included.
# They use no libm result, so the bits do not depend on the math library.
PIECEWISE_DIGESTS = {
    "endurance_stair": "9c59aacf5b78ed3ca60a66b9b2aaf568379f0657ed9923216e6fc9670e59d768",
    "hold_ladder": "e3ee936bc2a06e25a79a901c9ed4e324c58e6166311e8740aeee78d429490785",
    "stair_updown": "57491fcac4d05a9d7434eb9f717695adb175aecb8de99ae993b3070c281a6568",
    "stair_fine": "23ed3731623b14662bf61a74ade37efa6a52578a8838731aaa4b8239ddc30f85",
    "rise_step": "76e96092e2b170053b807778beb9a55a7d4572cccb2ddd05202e182819ef9129",
    "fall_step": "5861266b4fcc1861ca85a09a2a735c23fe7593131c4598de998aefb43a6ee76a",
    "step_battery": "cc8c8d2129a10328864da4cfbb8497327b9273307184a7b6e39528f02dea9729",
    "ignition_battery": "b0cf2c95f9d99af548e4dbfe9f5c0f4b57dab97e976466252f46f30b10380c11",
    "all_off": "4f7988030a00d082fe445e00a2ac5dab502300ff1b80e8592dd569867b60ef74",
    "pair_stair": "ed32cfeb83ea9ae8f761a8a1da9b287466502685a75065f43d877573701d2218",
    "pair_stair_24": "ec084dad32f387956236cda774b2769485ed9dc914a764b76bf7f5bbab37f963",
    "pair_shutdown": "4b249a854ccb7785ffb6cf1a24cc5fadc59b607efe5ff7df28bd8d1aa5eb7493",
    "stair": "1efaa63cbd0488ee18dc62eb0478e35206ce7f09f8b65c3da5fd542eb7e636e2",
    "fall": "9169bf3ca398366d7c018b3abfac96ac5408963d592a4c64f7abb7d7a3003029",
    "descent": "4eb49f11b26a97d748a06714c4f091944e1dc5cb8c1e2b2e3c236714261653a7",
    "signed_zero_stair": "a3d118752db731a221226e615b8588650062f08c6c063c9f6b7a0078d65fa727",
}


def test_piecewise_profiles_bitwise():
    traces = [t for t in build_corpus(ExcitationConfig(), PC) if t.name in PIECEWISE_DIGESTS]
    traces += [t for t in validation_traces(PipelineConfig()) if t.name in ("stair", "fall")]
    traces.append(descent_profile(PC.dt))
    zeros = step_stair_trace([0.0, 400.0, -0.0, 800, 0], 1.5, PC)
    assert np.signbit(zeros.commands[300:450]).all() and not zeros.status[300:450].any()
    zeros.name = "signed_zero_stair"
    traces.append(zeros)
    assert {t.name: _digest(t) for t in traces} == PIECEWISE_DIGESTS
