"""Synthetic two-emotion corpus generator for desk-scale experiments.

Every utterance id gets a latent pitch structure (sinusoid components with
random amplitudes and phases) and a voicing pattern, both shared by the two
pseudo-emotions, so held-out pairs are truly parallel and objective metrics
are meaningful. An emotion renders the latent with its own register (mean
log-F0), range (log-F0 std), and per-component gain profile; the gain
profile is a fixed linear filter on the contour, which a global log-affine
F0 transform cannot express. MCEPs come from a smooth low-dimensional
process mapped through a per-emotion affine map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from prosodia.errors import ValidationError
from prosodia.features.uff import MCEP_DIM, UtteranceFeatures, write_feature_file
from prosodia.jsonio import write_json

MCEP_LATENT_DIM = 6


@dataclass(frozen=True)
class EmotionSpec:
    """Rendering parameters for one pseudo-emotion."""

    f0_mean_hz: float
    f0_log_std: float = 0.2
    component_gains: tuple[float, ...] = (1.0, 1.0, 1.0)
    mcep_gain: float = 1.0
    mcep_offset: float = 0.0

    def __post_init__(self):
        if not 20.0 < self.f0_mean_hz < 2000.0:
            raise ValidationError(f"f0_mean_hz out of range: {self.f0_mean_hz}")
        if not 0.0 < self.f0_log_std < 1.0:
            raise ValidationError(f"f0_log_std out of range: {self.f0_log_std}")
        if any(g <= 0 for g in self.component_gains):
            raise ValidationError("component gains must be > 0")
        object.__setattr__(self, "component_gains", tuple(self.component_gains))


@dataclass(frozen=True)
class SynthCorpusSpec:
    """Corpus geometry plus the two emotion renderings.

    ``n_ids`` utterance ids are generated, each rendered in both emotions
    (2 * n_ids files); sized for a non-parallel split this means
    n_ids = 2 * n_train_each + n_eval. Contour periods stay inside roughly
    half an octave so the wavelet round trip treats the band uniformly.
    """

    n_train_each: int = 20
    n_eval: int = 5
    frames_min: int = 832
    frames_max: int = 1088
    frame_period_ms: float = 5.0
    contour_periods: tuple[float, ...] = (64.0, 76.0, 90.0)
    jitter: float = 0.008
    emotions: dict[str, EmotionSpec] = field(
        default_factory=lambda: {
            "A": EmotionSpec(
                f0_mean_hz=190.0, f0_log_std=0.17, component_gains=(1.0, 1.0, 1.0)
            ),
            "B": EmotionSpec(
                f0_mean_hz=285.0,
                f0_log_std=0.24,
                component_gains=(0.70, 1.0, 1.43),
                mcep_gain=0.8,
                mcep_offset=0.35,
            ),
        }
    )

    def __post_init__(self):
        if self.n_train_each < 1 or self.n_eval < 0:
            raise ValidationError("need n_train_each >= 1 and n_eval >= 0")
        if not 8 <= self.frames_min <= self.frames_max:
            raise ValidationError("need 8 <= frames_min <= frames_max")
        if len(self.emotions) != 2:
            raise ValidationError("synthetic corpus defines exactly two emotions")
        for name, espec in self.emotions.items():
            if len(espec.component_gains) != len(self.contour_periods):
                raise ValidationError(
                    f"emotion {name!r} needs one gain per contour period "
                    f"({len(self.contour_periods)})"
                )
        object.__setattr__(self, "contour_periods", tuple(self.contour_periods))

    @property
    def n_ids(self) -> int:
        return 2 * self.n_train_each + self.n_eval


@dataclass(frozen=True)
class _UtteranceLatent:
    n_frames: int
    periods: np.ndarray
    phases: np.ndarray
    amplitudes: np.ndarray
    jitter_a: np.ndarray
    jitter_b: np.ndarray
    voicing: np.ndarray
    mcep_latents: np.ndarray


def _voicing_pattern(rng: np.random.Generator, n_frames: int) -> np.ndarray:
    """Long voiced runs with brief unvoiced gaps; starts voiced."""
    mask = np.zeros(n_frames, dtype=bool)
    pos = 0
    voiced = True
    while pos < n_frames:
        run = int(rng.integers(45, 90)) if voiced else int(rng.integers(3, 7))
        mask[pos : pos + run] = voiced
        pos += run
        voiced = not voiced
    return mask


def _inband_noise(rng: np.random.Generator, n_frames: int, periods) -> np.ndarray:
    """Unit-variance noise built from the same period band as the contour."""
    t = np.arange(n_frames, dtype=np.float64)
    z = np.zeros(n_frames)
    for period in periods:
        p = period * rng.uniform(0.9, 1.1)
        z += rng.uniform(0.5, 1.0) * np.cos(2 * np.pi * t / p + rng.uniform(0, 2 * np.pi))
    return (z - z.mean()) / max(z.std(), 1e-12)


def _utterance_latent(rng: np.random.Generator, spec: SynthCorpusSpec) -> _UtteranceLatent:
    n = int(rng.integers(spec.frames_min, spec.frames_max + 1))
    k = len(spec.contour_periods)
    periods = np.asarray(spec.contour_periods) * rng.uniform(0.96, 1.04, size=k)
    phases = rng.uniform(0, 2 * np.pi, size=k)
    amplitudes = rng.uniform(0.75, 1.0, size=k)
    t = np.arange(n, dtype=np.float64)
    latents = np.zeros((MCEP_LATENT_DIM, n))
    for d in range(MCEP_LATENT_DIM):
        period = rng.uniform(60.0, 200.0)
        latents[d] = np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
    return _UtteranceLatent(
        n_frames=n,
        periods=periods,
        phases=phases,
        amplitudes=amplitudes,
        jitter_a=_inband_noise(rng, n, spec.contour_periods),
        jitter_b=_inband_noise(rng, n, spec.contour_periods),
        voicing=_voicing_pattern(rng, n),
        mcep_latents=latents,
    )


def _render_contour(latent: _UtteranceLatent, gains) -> np.ndarray:
    t = np.arange(latent.n_frames, dtype=np.float64)
    z = np.zeros(latent.n_frames)
    for k, gain in enumerate(gains):
        z += (
            gain
            * latent.amplitudes[k]
            * np.cos(2 * np.pi * t / latent.periods[k] + latent.phases[k])
        )
    return (z - z.mean()) / z.std()


def render_utterance(
    latent: _UtteranceLatent,
    emotion: str,
    espec: EmotionSpec,
    mixing: np.ndarray,
    jitter_noise: np.ndarray,
    noise_rng: np.random.Generator,
    spec: SynthCorpusSpec,
    utterance_id: str,
) -> UtteranceFeatures:
    shaped = _render_contour(latent, espec.component_gains)
    log_f0 = (
        np.log(espec.f0_mean_hz) + espec.f0_log_std * shaped + spec.jitter * jitter_noise
    )
    f0 = np.exp(log_f0)
    f0[~latent.voicing] = 0.0

    clean = mixing @ latent.mcep_latents
    mceps = espec.mcep_gain * clean + espec.mcep_offset
    mceps = mceps + 0.02 * noise_rng.normal(size=mceps.shape)

    return UtteranceFeatures(
        utterance_id=utterance_id,
        emotion_label=emotion,
        frame_period_ms=spec.frame_period_ms,
        mceps=mceps.astype(np.float32),
        f0_hz=f0.astype(np.float32),
    )


def generate_corpus(spec: SynthCorpusSpec, seed: int, out_dir) -> Path:
    """Write feature files and a manifest; returns the manifest path.

    Fully deterministic for a given (spec, seed): every utterance id draws
    from its own child RNG, and each emotion rendering from a further child.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    root = np.random.SeedSequence(seed)
    mix_rng = np.random.default_rng(root.spawn(1)[0])
    mixing = mix_rng.normal(0.0, 0.6, size=(MCEP_DIM, MCEP_LATENT_DIM))

    entries = []
    id_seeds = root.spawn(spec.n_ids)
    for k in range(spec.n_ids):
        utterance_id = f"u{k + 1:03d}"
        id_seq = id_seeds[k]
        latent = _utterance_latent(np.random.default_rng(id_seq), spec)
        emotion_seeds = id_seq.spawn(len(spec.emotions))
        jitters = (latent.jitter_a, latent.jitter_b)
        for e_idx, (emotion, espec) in enumerate(sorted(spec.emotions.items())):
            feats = render_utterance(
                latent,
                emotion,
                espec,
                mixing,
                jitters[e_idx],
                np.random.default_rng(emotion_seeds[e_idx]),
                spec,
                utterance_id,
            )
            fname = f"{utterance_id}_{emotion}.uff"
            write_feature_file(feats, out_dir / fname)
            entries.append({"id": utterance_id, "emotion": emotion, "path": fname})

    manifest_path = out_dir / "manifest.json"
    write_json(manifest_path, entries)
    return manifest_path
