import numpy as np
import pytest

from prosodia.baseline import LgStats, lg_fit, lg_transform
from prosodia.errors import NumericError, ValidationError
from prosodia.features import UtteranceFeatures
from prosodia.jsonio import from_json, to_json


def utterance(f0_values, utt_id="u", emotion="A"):
    f0 = np.asarray(f0_values, dtype=np.float32)
    return UtteranceFeatures(
        utterance_id=utt_id,
        emotion_label=emotion,
        frame_period_ms=5.0,
        mceps=np.zeros((24, f0.size), dtype=np.float32),
        f0_hz=f0,
    )


class TestLgFit:
    def test_hand_computed_stats(self):
        corpus = [utterance([np.e**5, np.e**5, np.e**7])]
        stats = lg_fit(corpus)
        assert abs(stats.mean - 17.0 / 3.0) < 1e-6
        assert abs(stats.std - np.std([5.0, 5.0, 7.0])) < 1e-6
        assert stats.n_frames == 3

    def test_unvoiced_frames_excluded(self):
        with_gaps = [utterance([np.e**5, 0.0, np.e**5, 0.0, np.e**7])]
        no_gaps = [utterance([np.e**5, np.e**5, np.e**7])]
        a, b = lg_fit(with_gaps), lg_fit(no_gaps)
        assert abs(a.mean - b.mean) < 1e-6
        assert a.n_frames == b.n_frames == 3

    def test_pooling_across_utterances(self):
        split_corpus = [utterance([100.0, 150.0]), utterance([200.0, 300.0])]
        merged = [utterance([100.0, 150.0, 200.0, 300.0])]
        a, b = lg_fit(split_corpus), lg_fit(merged)
        assert abs(a.mean - b.mean) < 1e-6
        assert abs(a.std - b.std) < 1e-6

    def test_all_unvoiced_rejected(self):
        with pytest.raises(ValidationError):
            lg_fit([utterance([0.0, 0.0, 0.0])])

    def test_constant_rejected(self):
        with pytest.raises(NumericError):
            lg_fit([utterance([150.0, 150.0, 150.0])])


class TestLgTransform:
    def test_identity_when_stats_equal(self):
        stats = LgStats(mean=5.3, std=0.2, n_frames=100)
        f0 = np.array([180.0, 0.0, 210.0, 240.0])
        out = lg_transform(f0, stats, stats)
        np.testing.assert_allclose(out[f0 > 0], f0[f0 > 0], rtol=1e-12)
        assert out[1] == 0.0

    def test_imposes_target_statistics_exactly(self):
        rng = np.random.default_rng(0)
        f0 = np.exp(rng.normal(5.2, 0.3, size=400))
        log_f0 = np.log(f0)
        src = LgStats(float(log_f0.mean()), float(log_f0.std()), f0.size)
        tgt = LgStats(mean=5.7, std=0.18, n_frames=10)
        out_log = np.log(lg_transform(f0, src, tgt))
        assert abs(out_log.mean() - 5.7) < 1e-9
        assert abs(out_log.std() - 0.18) < 1e-9

    def test_mean_maps_to_mean(self):
        src = LgStats(5.0, 0.2, 10)
        tgt = LgStats(5.9, 0.31, 10)
        out = lg_transform(np.array([np.e**5.0]), src, tgt)
        np.testing.assert_allclose(out, [np.e**5.9], rtol=1e-12)

    def test_affine_exactness_per_frame(self):
        rng = np.random.default_rng(4)
        f0 = np.exp(rng.normal(5.0, 0.25, size=50))
        src = LgStats(5.1, 0.22, 99)
        tgt = LgStats(5.6, 0.33, 99)
        out = lg_transform(f0, src, tgt)
        expected = tgt.mean + (tgt.std / src.std) * (
            np.log(f0) - src.mean
        )
        np.testing.assert_allclose(np.log(out), expected, rtol=1e-14)

    def test_composition(self):
        rng = np.random.default_rng(5)
        f0 = np.exp(rng.normal(5.0, 0.25, size=30))
        a = LgStats(5.0, 0.2, 9)
        b = LgStats(5.4, 0.3, 9)
        c = LgStats(5.8, 0.15, 9)
        via_b = lg_transform(lg_transform(f0, a, b), b, c)
        direct = lg_transform(f0, a, c)
        np.testing.assert_allclose(via_b, direct, rtol=1e-9)

    def test_zeros_preserved(self):
        src = LgStats(5.0, 0.2, 9)
        tgt = LgStats(5.5, 0.25, 9)
        out = lg_transform(np.array([0.0, 100.0, 0.0]), src, tgt)
        assert out[0] == 0.0 and out[2] == 0.0


class TestLgStatsSerialization:
    def test_json_roundtrip(self):
        stats = LgStats(mean=5.25, std=0.21, n_frames=1234)
        assert from_json(LgStats, to_json(stats)) == stats

    def test_invalid_std_rejected(self):
        with pytest.raises(ValidationError):
            LgStats(mean=5.0, std=0.0, n_frames=10)
