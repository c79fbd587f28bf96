"""Multi-scale wavelet analysis and synthesis of F0 contours.

A contour is decomposed onto a ladder of temporal scales with a Mexican-hat
kernel; each scale row is additionally weighted by ``(i + 2.5)**-2.5`` (i the
1-based scale index), and synthesis applies the same weight again before
summing rows. The weighting is deliberately applied on both sides; callers
re-normalize the reconstruction, so only relative scale balance matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from prosodia.errors import ValidationError

DEFAULT_TAU0 = 0.005
DEFAULT_N_SCALES = 10
LADDERS = ("octave", "dj")  # a ladder's index is its CWT1 code: append only


@dataclass(frozen=True)
class WaveletParams:
    """Scale-ladder geometry for the transform.

    ``ladder="octave"`` places scale i at ``2**(i+1) * tau0`` (one octave
    apart); ``ladder="dj"`` uses ``s0 * 2**((i-1)*dj)``, where ``s0`` is
    ``2 * tau0`` unless given.
    """

    tau0: float = DEFAULT_TAU0
    n_scales: int = DEFAULT_N_SCALES
    dj: float = 0.5
    s0: float = None  # None stands for 2 * tau0
    support_T: float = 5.0
    ladder: str = "octave"

    def __post_init__(self):
        if self.s0 is None:
            object.__setattr__(self, "s0", 2 * self.tau0)
        for name in ("tau0", "s0", "support_T", "dj"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.tau0 > 0:
            raise ValidationError(f"tau0 must be > 0, got {self.tau0}")
        if self.n_scales < 1:
            raise ValidationError(f"n_scales must be >= 1, got {self.n_scales}")
        if not self.s0 > 0:
            raise ValidationError(f"s0 must be > 0, got {self.s0}")
        if not self.support_T > 0:
            raise ValidationError(f"support_T must be > 0, got {self.support_T}")
        if self.ladder not in LADDERS:
            raise ValidationError(f"ladder must be one of {LADDERS}, got {self.ladder!r}")
        try:  # the top scale's kernel half-length, in samples
            half = self._scale(self.n_scales) / self.tau0 * self.support_T
        except OverflowError:  # 2.0 ** n, or an int too large for a float
            half = math.inf
        if not math.isfinite(half):
            raise ValidationError(
                "the top scale's kernel length must be finite; lower n_scales, dj or support_T"
            )

    def scales(self) -> np.ndarray:
        """Scale values in seconds, index i = 1..n_scales."""
        return self._scale(np.arange(1, self.n_scales + 1))

    def _scale(self, i):
        if self.ladder == "octave":
            return (2.0 ** (i + 1)) * self.tau0
        return self.s0 * 2.0 ** ((i - 1) * self.dj)


@dataclass(frozen=True)
class CwtMatrix:
    """Scale-by-frame coefficient matrix with the ladder that produced it."""

    coeffs: np.ndarray
    params: WaveletParams

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.ndim != 2 or coeffs.shape[0] != self.params.n_scales:
            raise ValidationError(
                f"coefficient matrix must be {self.params.n_scales} x N, got {coeffs.shape}"
            )
        if not np.isfinite(coeffs).all():
            raise ValidationError("coefficient matrix contains non-finite values")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_frames(self) -> int:
        return self.coeffs.shape[1]


def mexican_hat(t):
    """Mexican hat kernel (L2-normalized second Gaussian derivative)."""
    t = np.asarray(t, dtype=np.float64)
    value = (2.0 / (np.sqrt(3.0) * np.pi**0.25)) * (1.0 - t * t) * np.exp(-t * t / 2.0)
    return value if value.ndim else float(value)


def scale_weights(n_scales: int) -> np.ndarray:
    """Per-scale weights (i + 2.5)**-2.5 for 1-based scale indices."""
    i = np.arange(1, n_scales + 1, dtype=np.float64)
    return (i + 2.5) ** -2.5


def _kernel(
    scale_s: float, params: WaveletParams, reach: int | None = None
) -> tuple[np.ndarray, int]:
    """Sampled analysis kernel for one scale and its half-length in samples.

    The kernel is the mirrored wavelet (1/a) * psi((a*T - m*tau0)/a) sampled
    at m = 0..2*half; the half-length is rounded so the kernel stays
    symmetric, which makes the extraction offset exact. With ``reach`` set,
    only the taps within ``min(reach, half)`` of the centre are sampled, so
    the centre stays at index ``size // 2``.
    """
    s = scale_s / params.tau0
    half = int(round(s * params.support_T))
    reach = half if reach is None else min(reach, half)
    m = np.arange(half - reach, half + reach + 1, dtype=np.float64)
    return mexican_hat((half - m) / s) / scale_s, half


def smooth_length(m: int) -> int:
    """Smallest 2**a * 3**b * 5**c that is >= m, a length pocketfft does fast."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The smallest power-of-two multiple of p35 that reaches m.
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _validate_signal(signal) -> np.ndarray:
    sig = np.asarray(signal, dtype=np.float64)
    if sig.ndim != 1 or sig.size < 1:
        raise ValidationError("signal must be a non-empty 1-D vector")
    if not np.isfinite(sig).all():
        raise ValidationError("signal contains non-finite values")
    return sig


def cwt_decompose(signal, params: WaveletParams = WaveletParams()) -> CwtMatrix:
    """Decompose a signal onto the scale ladder via FFT convolution.

    Output j of a row is sum_i signal[i] * kernel[half + j - i] over the N
    samples i, so it only reads taps within N - 1 of the kernel centre. Each
    kernel is therefore cut to its ``2*reach + 1`` central taps, with
    ``reach = min(half, N - 1)``; this is exact, not an approximation, and
    bounds the top scale's 20,481 taps by the signal length. All rows share
    one zero-padded FFT length L, the smallest 2**a * 3**b * 5**c of at
    least ``N + max(reach)``: the full linear convolution of row r spans
    ``N + 2*reach_r`` samples, and with that L its circular wrap-around
    lands only outside the N kept samples at offset ``reach_r``. So there is
    one transform of the signal, one batched transform of the kernel stack
    and one batched inverse. Each kept row is weighted by (i+2.5)**-2.5 and
    by tau0/sqrt(scale) so the sum discretizes the scale-normalized
    convolution integral.
    """
    sig = _validate_signal(signal)
    n = sig.size
    scales = params.scales()
    kernels = [_kernel(scale, params, reach=n - 1)[0] for scale in scales]
    reaches = [kernel.size // 2 for kernel in kernels]
    m = smooth_length(n + max(reaches))
    stack = np.zeros((params.n_scales, m))
    for row, kernel in enumerate(kernels):
        stack[row, : kernel.size] = kernel
    full = np.fft.irfft(np.fft.rfft(sig, m) * np.fft.rfft(stack, axis=1), m, axis=1)
    coeffs = np.stack([full[row, r : r + n] for row, r in enumerate(reaches)])
    coeffs *= (scale_weights(params.n_scales) * params.tau0 / np.sqrt(scales))[:, None]
    return CwtMatrix(coeffs=coeffs, params=params)


def cwt_decompose_direct(signal, params: WaveletParams = WaveletParams()) -> CwtMatrix:
    """Same contract as :func:`cwt_decompose`, by direct summation.

    No Fourier transforms: each row is an explicit sliding-sum convolution.
    Quadratic in the kernel length, kept as the independent cross-check for
    the FFT path.
    """
    sig = _validate_signal(signal)
    n = sig.size
    weights = scale_weights(params.n_scales)
    coeffs = np.empty((params.n_scales, n))
    for row, scale in enumerate(params.scales()):
        kernel, half = _kernel(scale, params)
        full = np.convolve(sig, kernel, mode="full")
        coeffs[row] = full[half : half + n]
        coeffs[row] *= weights[row] * params.tau0 / np.sqrt(scale)
    return CwtMatrix(coeffs=coeffs, params=params)


def cwt_reconstruct(matrix: CwtMatrix) -> np.ndarray:
    """Approximate synthesis: weighted sum of rows, weight (i+2.5)**-2.5.

    The analysis already applied the same per-row weight, so round trips
    lose amplitude; callers re-normalize before inverting log-F0 stats.
    """
    weights = scale_weights(matrix.params.n_scales)
    return weights @ matrix.coeffs


def export_scalogram_csv(matrix: CwtMatrix, path) -> None:
    """Write the coefficient matrix as CSV: frame index plus one column per scale."""
    k = matrix.params.n_scales
    header = "frame," + ",".join(f"scale{i}" for i in range(1, k + 1))
    lines = [header]
    for frame in range(matrix.n_frames):
        cells = ",".join(f"{v:.12g}" for v in matrix.coeffs[:, frame])
        lines.append(f"{frame},{cells}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_scalogram_csv(path) -> np.ndarray:
    """Parse a scalogram CSV back into a scale-by-frame float64 matrix."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or not lines[0].startswith("frame,scale1"):
        raise ValidationError(f"{path}: not a scalogram CSV")
    rows = [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
    return np.asarray(rows, dtype=np.float64).T
