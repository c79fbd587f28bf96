import csv

import numpy as np
import pytest

from prosodia.errors import ValidationError
from prosodia.jsonio import from_json, to_json
from prosodia.prosody import (
    CwtMatrix,
    WaveletParams,
    cwt_decompose,
    cwt_decompose_direct,
    cwt_reconstruct,
    export_scalogram_csv,
    mexican_hat,
    read_scalogram_csv,
    scale_weights,
)
from prosodia.prosody.cwt import smooth_length


class TestMexicanHat:
    def test_peak_value_closed_form(self):
        expected = 2.0 / (np.sqrt(3.0) * np.pi**0.25)
        assert abs(mexican_hat(0.0) - expected) < 1e-15

    def test_zeros_at_unit_offsets(self):
        assert mexican_hat(1.0) == 0.0
        assert mexican_hat(-1.0) == 0.0

    def test_even_symmetry(self):
        t = np.linspace(0.0, 6.0, 121)
        np.testing.assert_array_equal(mexican_hat(t), mexican_hat(-t))


class TestDecompose:
    def test_zero_signal_gives_zero_matrix(self):
        out = cwt_decompose(np.zeros(64))
        assert out.coeffs.shape == (10, 64)
        assert np.abs(out.coeffs).max() == 0.0

    def test_constant_signal_interior_rows_near_zero(self):
        # The kernel is zero-mean up to truncation tails, so a constant maps
        # to ~0 wherever the kernel support fits inside the signal. With
        # N=256 only the small scales fit the central 50%; their response is
        # bounded by the truncation tail (measured 5.2e-6, frozen at 1e-5).
        n = 256
        params = WaveletParams()
        out = cwt_decompose(np.ones(n), params)
        lo, hi = n // 4, 3 * n // 4
        for row, scale in enumerate(params.scales()):
            half = int(round(scale / params.tau0 * params.support_T))
            if half <= n // 4:
                assert np.abs(out.coeffs[row, lo:hi]).max() < 1e-5

    def test_non_finite_rejected(self):
        sig = np.zeros(16)
        sig[3] = np.inf
        with pytest.raises(ValidationError):
            cwt_decompose(sig)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        f, g = rng.normal(size=128), rng.normal(size=128)
        a, b = 1.7, -0.4
        lhs = cwt_decompose(a * f + b * g).coeffs
        rhs = a * cwt_decompose(f).coeffs + b * cwt_decompose(g).coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestDirectOracleAgreement:
    # n = 1 and 2 cut every kernel to at most 3 taps; at n = 1056 and 1072
    # the uncut top row used to need FFT lengths 2**5 * 673 and 2**4 * 3 * 449.
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 257, 1056, 1072])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fft_matches_direct_summation(self, n, seed):
        sig = np.random.default_rng(seed).normal(size=n)
        fft_path = cwt_decompose(sig).coeffs
        direct = cwt_decompose_direct(sig).coeffs
        np.testing.assert_allclose(fft_path, direct, atol=1e-9)

    def test_fft_matches_direct_when_no_kernel_is_cut(self):
        n = 700
        params = WaveletParams(n_scales=6)
        halves = np.round(params.scales() / params.tau0 * params.support_T)
        assert halves.max() <= n - 1
        sig = np.random.default_rng(7).normal(size=n)
        np.testing.assert_allclose(
            cwt_decompose(sig, params).coeffs,
            cwt_decompose_direct(sig, params).coeffs,
            atol=1e-9,
        )

    @pytest.mark.parametrize("n", [16, 100, 1056])
    def test_fft_matches_direct_on_dj_ladder(self, n):
        sig = np.random.default_rng(5).normal(size=n)
        params = WaveletParams(ladder="dj")
        np.testing.assert_allclose(
            cwt_decompose(sig, params).coeffs,
            cwt_decompose_direct(sig, params).coeffs,
            atol=1e-9,
        )

    def test_oracle_zero_signal(self):
        assert np.abs(cwt_decompose_direct(np.zeros(32)).coeffs).max() == 0.0

    def test_oracle_delta_reproduces_scaled_kernel(self):
        # Convolving a unit impulse reproduces the (mirrored, weighted)
        # kernel; the kernel is symmetric so the row equals the sampled
        # wavelet around the impulse location.
        n = 257
        center = n // 2
        sig = np.zeros(n)
        sig[center] = 1.0
        params = WaveletParams(n_scales=3)
        out = cwt_decompose_direct(sig, params).coeffs
        weights = scale_weights(3)
        for row, scale in enumerate(params.scales()):
            s = scale / params.tau0
            half = int(round(s * params.support_T))
            offsets = np.arange(n) - center
            expected = np.where(
                np.abs(offsets) <= half, mexican_hat(offsets / s) / scale, 0.0
            )
            expected *= weights[row] * params.tau0 / np.sqrt(scale)
            np.testing.assert_allclose(out[row], expected, atol=1e-12)


class TestSmoothLength:
    def test_matches_brute_force(self):
        top = 4096
        smooth = sorted(
            2**a * 3**b * 5**c
            for a in range(14) for b in range(9) for c in range(7)
            if 2**a * 3**b * 5**c < 2 * top
        )
        for m in range(1, top + 1):
            assert smooth_length(m) == next(x for x in smooth if x >= m), m


class TestReconstruct:
    def test_zero_matrix(self):
        out = cwt_reconstruct(CwtMatrix(coeffs=np.zeros((10, 7)), params=WaveletParams()))
        assert np.abs(out).max() == 0.0

    def test_single_row_scaled_by_its_weight(self):
        coeffs = np.zeros((10, 5))
        coeffs[3] = np.arange(5.0)
        out = cwt_reconstruct(CwtMatrix(coeffs=coeffs, params=WaveletParams()))
        np.testing.assert_allclose(out, np.arange(5.0) * (4 + 2.5) ** -2.5, rtol=1e-12)

    def test_matches_independent_sum(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(10, 40))
        out = cwt_reconstruct(CwtMatrix(coeffs=coeffs, params=WaveletParams()))
        expected = np.zeros(40)
        for i in range(1, 11):
            expected += coeffs[i - 1] * (i + 2.5) ** -2.5
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_roundtrip_correlation_on_sinusoid_mix(self):
        # Threshold frozen from a pre-build sweep: sums of 3 sinusoids with
        # quarter-octave spaced periods (64, 76, 91), N=512, measured
        # round-trip correlation 0.961..0.979 over 20 phase draws.
        n = 512
        t = np.arange(n)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            sig = np.zeros(n)
            for period in (64.0, 76.0, 91.0):
                sig += np.cos(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
            sig = (sig - sig.mean()) / sig.std()
            rec = cwt_reconstruct(cwt_decompose(sig))
            rec = (rec - rec.mean()) / rec.std()
            assert np.corrcoef(sig, rec)[0, 1] >= 0.95


class TestScalogramCsv:
    def test_header_and_row_count(self, tmp_path):
        coeffs = np.random.default_rng(0).normal(size=(10, 2))
        path = tmp_path / "s.csv"
        export_scalogram_csv(CwtMatrix(coeffs=coeffs, params=WaveletParams()), path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "frame," + ",".join(f"scale{i}" for i in range(1, 11))

    def test_reparse_close_to_original(self, tmp_path):
        coeffs = np.random.default_rng(1).normal(size=(10, 33))
        path = tmp_path / "s.csv"
        matrix = CwtMatrix(coeffs=coeffs, params=WaveletParams())
        export_scalogram_csv(matrix, path)
        back = read_scalogram_csv(path)
        np.testing.assert_allclose(back, coeffs, atol=1e-9)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "frame" and len(rows) == 34

    def test_empty_path_is_io_error(self):
        coeffs = np.zeros((10, 1))
        with pytest.raises(OSError):
            export_scalogram_csv(CwtMatrix(coeffs=coeffs, params=WaveletParams()), "")


class TestWaveletParams:
    def test_octave_ladder_values(self):
        scales = WaveletParams().scales()
        np.testing.assert_allclose(scales[0], 0.02)
        np.testing.assert_allclose(scales[-1], 2**11 * 0.005)

    def test_dj_ladder_values(self):
        params = WaveletParams(ladder="dj")
        scales = params.scales()
        np.testing.assert_allclose(scales[0], 0.01)
        np.testing.assert_allclose(scales[1] / scales[0], 2**0.5)

    def test_json_roundtrip(self):
        params = WaveletParams(tau0=0.004, n_scales=8, dj=0.25, s0=0.02, ladder="dj")
        assert from_json(WaveletParams, to_json(params)) == params

    def test_s0_is_twice_tau0_unless_given(self):
        params = WaveletParams(tau0=0.004, ladder="dj")
        assert params.s0 == 2 * 0.004
        assert from_json(WaveletParams, {"tau0": 0.004, "ladder": "dj"}) == params
        assert WaveletParams().s0 == 0.01

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            WaveletParams(tau0=0.0)
        with pytest.raises(ValidationError):
            WaveletParams(n_scales=0)
        with pytest.raises(ValidationError):
            WaveletParams(ladder="linear")
