import re

import numpy as np
import pytest

from prosodia.errors import FormatError, NumericError, ValidationError
from prosodia.features import UtteranceFeatures
from prosodia.metrics import (
    EvalReport,
    EvalRow,
    evaluate_pairs,
    mcd,
    pcc,
    read_report_csv,
    rmse_f0,
    write_report_csv,
)

rng = np.random.default_rng(0)


class TestMcd:
    def test_identical_matrices_zero(self):
        m = rng.normal(0, 1, (24, 40))
        assert mcd(m, m) == 0.0

    def test_single_coefficient_unit_offset(self):
        target = rng.normal(0, 1, (24, 10))
        converted = target.copy()
        converted[5, :] += 1.0
        expected = (10.0 / np.log(10.0)) * np.sqrt(2.0)
        assert abs(mcd(converted, target) - expected) < 1e-9

    def test_symmetry_and_nonnegativity(self):
        a, b = rng.normal(0, 1, (24, 15)), rng.normal(0, 1, (24, 15))
        assert mcd(a, b) == pytest.approx(mcd(b, a), rel=1e-12)
        assert mcd(a, b) > 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            mcd(np.zeros((24, 10)), np.zeros((24, 9)))


class TestRmse:
    def test_identical_zero(self):
        v = rng.normal(200, 20, 64)
        assert rmse_f0(v, v) == 0.0

    def test_constant_offset(self):
        v = rng.normal(200, 20, 64)
        assert rmse_f0(v + 7.5, v) == pytest.approx(7.5, rel=1e-12)
        assert rmse_f0(v - 7.5, v) == pytest.approx(7.5, rel=1e-12)

    def test_translation_invariance(self):
        a, b = rng.normal(200, 20, 32), rng.normal(210, 25, 32)
        c = rng.normal(0, 5, 32)
        assert rmse_f0(a + c, b + c) == pytest.approx(rmse_f0(a, b), rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            rmse_f0(np.zeros(3), np.zeros(4))


class TestPcc:
    def test_positive_affine_is_one(self):
        x = rng.normal(0, 1, 100)
        assert pcc(2 * x + 3, x) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self):
        x = rng.normal(0, 1, 100)
        assert pcc(-x, x) == pytest.approx(-1.0, abs=1e-12)

    def test_affine_invariance_with_sign(self):
        a, b = rng.normal(0, 1, 50), rng.normal(0, 1, 50)
        base = pcc(a, b)
        assert pcc(1.7 * a + 0.3, b) == pytest.approx(base, abs=1e-12)
        assert pcc(-1.7 * a + 0.3, b) == pytest.approx(-base, abs=1e-12)

    def test_range_bound(self):
        for seed in range(10):
            r = np.random.default_rng(seed)
            a, b = r.normal(0, 1, 30), r.normal(0, 1, 30)
            assert -1.0 - 1e-12 <= pcc(a, b) <= 1.0 + 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(NumericError):
            pcc(np.ones(10), rng.normal(0, 1, 10))


def make_utt(utt_id, mceps, f0):
    return UtteranceFeatures(
        utterance_id=utt_id,
        emotion_label="X",
        frame_period_ms=5.0,
        mceps=np.asarray(mceps, dtype=np.float32),
        f0_hz=np.asarray(f0, dtype=np.float32),
    )


def random_utt(utt_id, n, seed):
    r = np.random.default_rng(seed)
    f0 = np.exp(r.normal(5.3, 0.2, n))
    f0[r.random(n) < 0.1] = 0.0
    if not (f0 > 0).any():
        f0[0] = 200.0
    return make_utt(utt_id, r.normal(0, 1, (24, n)), f0)


class TestEvaluatePairs:
    def test_identical_sets_give_perfect_rows(self):
        utts = [random_utt(f"u{k}", 40, k) for k in range(3)]
        report = evaluate_pairs(utts, utts)
        for row in report.rows:
            assert row.mcd_db == 0.0
            assert row.rmse_hz == 0.0
            assert row.pcc == pytest.approx(1.0, abs=1e-12)
        assert report.mean_mcd == 0.0 and report.mean_rmse == 0.0
        assert report.mean_pcc == pytest.approx(1.0, abs=1e-12)

    def test_known_offsets_match_per_metric_values(self):
        n = 30
        base = np.exp(np.linspace(5.0, 5.4, n))
        mceps = rng.normal(0, 1, (24, n))
        target = make_utt("p", mceps, base)
        conv_mceps = mceps.copy()
        conv_mceps[3, :] += 1.0
        converted = make_utt("p", conv_mceps, base + 12.0)
        report = evaluate_pairs([converted], [target])
        row = report.rows[0]
        assert row.mcd_db == pytest.approx((10 / np.log(10)) * np.sqrt(2), rel=1e-6)
        assert row.rmse_hz == pytest.approx(12.0, rel=1e-5)
        assert row.pcc == pytest.approx(1.0, abs=1e-9)

    def test_unpaired_ids_rejected(self):
        with pytest.raises(ValidationError, match="unpaired"):
            evaluate_pairs([random_utt("a", 20, 0)], [random_utt("b", 20, 1)])

    def test_length_mismatch_needs_alignment(self):
        a = random_utt("u", 30, 0)
        b = random_utt("u", 40, 1)
        with pytest.raises(ValidationError, match="linear-resample"):
            evaluate_pairs([a], [b], align="none")
        report = evaluate_pairs([a], [b], align="linear-resample")
        assert len(report.rows) == 1
        assert np.isfinite(report.mean_mcd)

    def test_resampling_identical_content_is_benign(self):
        n = 64
        f0 = np.exp(np.linspace(5.0, 5.5, n))
        mceps = rng.normal(0, 1, (4, n))
        mceps = np.vstack([mceps] * 6)
        short_idx = np.linspace(0, n - 1, 32).round().astype(int)
        a = make_utt("u", mceps, f0)
        b = make_utt("u", mceps[:, short_idx], f0[short_idx])
        report = evaluate_pairs([a], [b], align="linear-resample")
        assert report.rows[0].pcc > 0.99


class TestReportCsv:
    def test_roundtrip_and_mean_row(self, tmp_path):
        utts = [random_utt(f"u{k}", 25, k) for k in range(4)]
        other = [random_utt(f"u{k}", 25, k + 100) for k in range(4)]
        report = evaluate_pairs(utts, other)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "pair_id,mcd_db,rmse_hz,pcc"
        assert lines[-1].startswith("MEAN,")
        back = read_report_csv(path)
        assert len(back.rows) == 4
        assert back.mean_mcd == pytest.approx(report.mean_mcd, abs=1e-9)
        assert back.mean_rmse == pytest.approx(report.mean_rmse, rel=1e-9)
        assert back.mean_pcc == pytest.approx(report.mean_pcc, abs=1e-9)

    def test_mean_row_is_read_and_checked(self, tmp_path):
        utts = [random_utt(f"u{k}", 25, k) for k in range(3)]
        other = [random_utt(f"u{k}", 25, k + 100) for k in range(3)]
        path = tmp_path / "report.csv"
        write_report_csv(evaluate_pairs(utts, other), path)
        lines = path.read_text().splitlines()
        mean = lines[-1].split(",")
        back = read_report_csv(path)
        assert (back.mean_mcd, back.mean_rmse, back.mean_pcc) == tuple(map(float, mean[1:]))
        mean[2] = format(float(mean[2]) * (1 + 1e-9), ".12g")
        path.write_text("\n".join([*lines[:-1], ",".join(mean)]) + "\n")
        with pytest.raises(FormatError, match=re.escape(str(path)) + ".*MEAN"):
            read_report_csv(path)

    def test_every_written_mean_row_reads_back(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "report.csv"
        for trial in range(200):
            n = int(rng.integers(1, 9))
            scale = 10.0 ** rng.uniform(-6, 6, size=3)
            values = rng.uniform(-1, 1, size=(n, 3)) * scale
            rows = [EvalRow(f"u{k}", *map(float, v)) for k, v in enumerate(values)]
            write_report_csv(EvalReport.from_rows(rows), path)
            read_report_csv(path)

    def test_aggregate_equals_mean_of_rows(self, tmp_path):
        utts = [random_utt(f"u{k}", 25, k) for k in range(3)]
        other = [random_utt(f"u{k}", 25, k + 50) for k in range(3)]
        report = evaluate_pairs(utts, other)
        assert report.mean_rmse == pytest.approx(
            np.mean([r.rmse_hz for r in report.rows]), abs=1e-12
        )

    def test_empty_report_rejected(self):
        with pytest.raises(ValidationError):
            EvalReport.from_rows([])
