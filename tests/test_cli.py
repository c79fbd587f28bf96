import dataclasses
import json
import shutil
import signal
import struct
import time

import numpy as np
import pytest

from prosodia.cli.config import load_run_config
from prosodia.cli.main import _config_overrides, build_parser, main
from prosodia.cli.pipeline import features_for_mode
from prosodia.cli.synth import SynthCorpusSpec, generate_corpus
from prosodia.cyclegan.checkpoint import SENTINEL
from prosodia.cyclegan.model import (
    MODE_JOINT,
    MODE_PROSODY,
    MODE_SPECTRUM,
    MODES,
    TRAINING_MODES,
    mode_feature_dim,
)
from prosodia.features import (
    load_corpus,
    make_nonparallel_split,
    read_feature_file,
    write_feature_file,
)
from prosodia.prosody import WaveletParams, preprocess_f0, read_scalogram_csv
from prosodia.prosody.cwt import LADDERS


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """Small synthetic corpus shared by CLI tests (4+4 train, 2 eval)."""
    root = tmp_path_factory.mktemp("corpus")
    spec = SynthCorpusSpec(n_train_each=4, n_eval=2, frames_min=256, frames_max=320)
    manifest = generate_corpus(spec, seed=11, out_dir=root)
    return manifest


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory, tiny_corpus):
    root = tmp_path_factory.mktemp("config")
    cfg = {
        "manifest": str(tiny_corpus),
        "split": {
            "source_emotion": "A",
            "target_emotion": "B",
            "n_train_each": 4,
            "n_eval": 2,
        },
        "network": {"base_channels": 2, "n_residual": 1},
        "schedule": {
            "total_iters": 8,
            "constant_lr_iters": 4,
            "decay_iters": 4,
            "segment_frames": 64,
            "seed": 5,
        },
        "weights": {"lambda_cyc": 10.0, "lambda_id": 5.0, "id_cutoff_iters": 4},
        "seed": 5,
        "mode": "prosody-separate",
    }
    path = root / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestSynthCorpus:
    def test_counting_and_split_compatibility(self, tmp_path):
        out = tmp_path / "corpus"
        rc = main(
            [
                "synth-corpus", "--out", str(out), "--seed", "3",
                "--n-train", "3", "--n-eval", "2",
            ]
        )
        assert rc == 0
        manifest = out / "manifest.json"
        entries = json.loads(manifest.read_text())
        # 2*3+2 = 8 sentence ids, each rendered in both pseudo-emotions
        assert len(entries) == 16
        corpus = load_corpus(manifest)
        split = make_nonparallel_split(corpus, "A", "B", 3, 2, seed=0)
        assert len(split.eval_pairs) == 2
        assert not (out / ".in-progress").exists()

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth-corpus", "--out", str(a), "--seed", "9",
                     "--n-train", "2", "--n-eval", "1"]) == 0
        assert main(["synth-corpus", "--out", str(b), "--seed", "9",
                     "--n-train", "2", "--n-eval", "1"]) == 0
        for fa in sorted(a.glob("*.uff")):
            assert fa.read_bytes() == (b / fa.name).read_bytes()

    def test_eval_pair_contours_strongly_correlated(self, tmp_path):
        out = tmp_path / "corpus"
        main(["synth-corpus", "--out", str(out), "--seed", "4",
              "--n-train", "2", "--n-eval", "3"])
        corpus = load_corpus(out / "manifest.json")
        split = make_nonparallel_split(corpus, "A", "B", 2, 3, seed=0)
        for a, b in split.eval_pairs:
            ca = preprocess_f0(a.f0_hz).values
            cb = preprocess_f0(b.f0_hz).values
            assert np.corrcoef(ca, cb)[0, 1] >= 0.95


class TestPreprocess:
    def test_stats_json(self, tiny_corpus, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["preprocess", "--manifest", str(tiny_corpus), "--out", str(out)]) == 0
        stats = json.loads(out.read_text())
        assert set(stats) == {"A", "B"}
        assert stats["A"]["n_utterances"] == 10
        assert stats["B"]["log_f0"]["mean"] > stats["A"]["log_f0"]["mean"]


class TestDecomposeReconstruct:
    def test_decompose_outputs(self, tiny_corpus, tmp_path):
        src = sorted(tiny_corpus.parent.glob("*_A.uff"))[0]
        out = tmp_path / "dec"
        assert main(["decompose", "--input", str(src), "--out", str(out)]) == 0
        csvs = list(out.glob("*.scalogram.csv"))
        caches = list(out.glob("*.cwt"))
        assert len(csvs) == 1 and len(caches) == 1
        utt = read_feature_file(src)
        matrix = read_scalogram_csv(csvs[0])
        assert matrix.shape == (10, utt.n_frames)

    def test_decompose_then_reconstruct_correlates(self, tiny_corpus, tmp_path):
        src = sorted(tiny_corpus.parent.glob("*_A.uff"))[0]
        dec = tmp_path / "dec"
        main(["decompose", "--input", str(src), "--out", str(dec)])
        cache = next(dec.glob("*.cwt"))
        out_uff = tmp_path / "rec.uff"
        assert main(["reconstruct", "--cache", str(cache), "--reference", str(src),
                     "--out", str(out_uff)]) == 0
        orig = read_feature_file(src)
        rec = read_feature_file(out_uff)
        voiced = orig.voicing_mask
        assert (rec.f0_hz[~voiced] == 0).all()
        corr = np.corrcoef(
            np.log(rec.f0_hz[voiced].astype(np.float64)),
            np.log(orig.f0_hz[voiced].astype(np.float64)),
        )[0, 1]
        assert corr >= 0.90

    @pytest.mark.parametrize(
        "wavelet",
        [
            '{"ladder": "dj", "dj": NaN}',
            '{"support_T": Infinity}',
            '{"tau0": Infinity}',
            '{"ladder": "dj", "s0": Infinity}',
            '{"ladder": "dj", "dj": 1e308}',
            '{"support_T": 1e308}',
        ],
        ids=["dj-nan", "support_T-inf", "tau0-inf", "s0-inf", "dj-1e308", "support_T-1e308"],
    )
    def test_non_finite_wavelet_exits_1(self, tiny_corpus, tmp_path, wavelet, capsys):
        # Python's json reads NaN and Infinity; such a ladder once ended in a traceback.
        src = sorted(tiny_corpus.parent.glob("*_A.uff"))[0]
        config = tmp_path / "config.json"
        config.write_text(f'{{"wavelet": {wavelet}}}')
        out = tmp_path / "dec"
        rc = main(["decompose", "--config", str(config), "--input", str(src), "--out", str(out)])
        assert rc == 1
        assert "wavelet" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_cache_exits_2(self, tiny_corpus, tmp_path, capsys):
        # reconstruct shares conversion's re-normalisation, and so its NumericError.
        from prosodia.prosody import CwtMatrix, NormStats, WaveletParams
        from prosodia.prosody.cwt_cache import write_cwt_cache

        src = sorted(tiny_corpus.parent.glob("*_A.uff"))[0]
        n_frames = read_feature_file(src).n_frames
        cache = tmp_path / "flat.cwt"
        write_cwt_cache(
            cache, CwtMatrix(coeffs=np.zeros((10, n_frames)), params=WaveletParams()),
            NormStats(mean=5.0, std=0.2), np.ones(n_frames, dtype=bool),
        )
        out = tmp_path / "rec.uff"
        rc = main(["reconstruct", "--cache", str(cache), "--reference", str(src),
                   "--out", str(out)])
        assert rc == 2
        assert "constant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", ["mcep_dim_23", "nan_f0"])
    def test_malformed_uff_exits_2_naming_it(self, tiny_corpus, tmp_path, edit, capsys):
        data = bytearray(sorted(tiny_corpus.parent.glob("*_A.uff"))[0].read_bytes())
        if edit == "mcep_dim_23":
            struct.pack_into("<I", data, 12, 23)  # after magic, version and frame count
        else:
            struct.pack_into("<f", data, len(data) - 4, float("nan"))  # the last F0 value
        bad = tmp_path / "bad.uff"
        bad.write_bytes(bytes(data))
        rc = main(["decompose", "--input", str(bad), "--out", str(tmp_path / "dec")])
        assert rc == 2
        assert str(bad) in capsys.readouterr().err

    def test_all_unvoiced_input_fails_cleanly(self, tmp_path, capsys):
        from prosodia.features import UtteranceFeatures, write_feature_file

        utt = UtteranceFeatures(
            utterance_id="silent",
            emotion_label="A",
            frame_period_ms=5.0,
            mceps=np.zeros((24, 20), dtype=np.float32),
            f0_hz=np.zeros(20, dtype=np.float32),
        )
        path = tmp_path / "silent.uff"
        write_feature_file(utt, path)
        rc = main(["decompose", "--input", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "voiced" in capsys.readouterr().err


class TestCwtCache:
    @pytest.fixture
    def cache_bytes(self, tmp_path):
        from prosodia.prosody import CwtMatrix, NormStats, WaveletParams
        from prosodia.prosody.cwt_cache import read_cwt_cache, write_cwt_cache

        matrix = CwtMatrix(
            coeffs=np.random.default_rng(0).normal(size=(10, 3)), params=WaveletParams()
        )
        path = tmp_path / "valid.cwt"
        write_cwt_cache(
            path, matrix, NormStats(mean=5.0, std=0.2), np.array([True, False, True])
        )
        read_cwt_cache(path)
        return path.read_bytes()

    def test_every_proper_prefix_is_format_error(self, cache_bytes, tmp_path):
        from prosodia.prosody.cwt_cache import read_cwt_cache
        from prosodia.errors import FormatError

        path = tmp_path / "cut.cwt"
        for size in range(len(cache_bytes)):
            path.write_bytes(cache_bytes[:size])
            with pytest.raises(FormatError):
                read_cwt_cache(path)

    def test_unknown_ladder_code_is_format_error(self, cache_bytes, tmp_path):
        from prosodia.prosody.cwt_cache import read_cwt_cache
        from prosodia.errors import FormatError

        path = tmp_path / "ladder.cwt"
        path.write_bytes(_with_ladder_code(cache_bytes, 7))
        with pytest.raises(FormatError, match="ladder"):
            read_cwt_cache(path)

    @pytest.mark.parametrize("ladder", LADDERS)
    def test_each_ladder_round_trips_with_its_index_as_code(self, ladder, tmp_path):
        from prosodia.prosody import CwtMatrix, NormStats
        from prosodia.prosody.cwt_cache import read_cwt_cache, write_cwt_cache

        params = WaveletParams(ladder=ladder)
        coeffs = np.random.default_rng(1).normal(size=(params.n_scales, 4))
        voicing = np.array([True, False, True, True])
        path = tmp_path / f"{ladder}.cwt"
        write_cwt_cache(path, CwtMatrix(coeffs=coeffs, params=params),
                        NormStats(mean=5.0, std=0.2), voicing)
        assert path.read_bytes()[4 + struct.calcsize("<IIIdddd")] == LADDERS.index(ladder)
        matrix, stats, read_voicing = read_cwt_cache(path)
        assert matrix.params == params
        assert matrix.coeffs.tobytes() == coeffs.tobytes()
        assert stats == NormStats(mean=5.0, std=0.2)
        np.testing.assert_array_equal(read_voicing, voicing)

    def test_cli_exits_2_on_malformed_cache(self, cache_bytes, tmp_path, capsys):
        from prosodia.features import UtteranceFeatures, write_feature_file

        reference = tmp_path / "ref.uff"
        write_feature_file(
            UtteranceFeatures(
                utterance_id="ref",
                emotion_label="A",
                frame_period_ms=5.0,
                mceps=np.zeros((24, 3), dtype=np.float32),
                f0_hz=np.full(3, 120.0, dtype=np.float32),
            ),
            reference,
        )
        for name, blob in (
            ("short.cwt", cache_bytes[:40]),
            ("ladder.cwt", _with_ladder_code(cache_bytes, 7)),
            ("tau0.cwt", _with_header_f64(cache_bytes, 0, -1.0)),
            ("std.cwt", _with_header_f64(cache_bytes, 5, float("nan"))),
        ):
            cache = tmp_path / name
            cache.write_bytes(blob)
            rc = main(["reconstruct", "--cache", str(cache), "--reference", str(reference),
                       "--out", str(tmp_path / "rec.uff")])
            assert rc == 2, name
            assert name in capsys.readouterr().err


def _with_ladder_code(blob: bytes, code: int) -> bytes:
    offset = 4 + struct.calcsize("<IIIdddd")
    return blob[:offset] + bytes([code]) + blob[offset + 1 :]


def _with_header_f64(blob: bytes, index: int, value: float) -> bytes:
    """``blob`` with header float ``index`` replaced: tau0, dj, s0, support_T, mean, std."""
    offset = 4 + struct.calcsize("<III") + 8 * index + (index >= 4)  # the ladder code's byte
    return blob[:offset] + struct.pack("<d", value) + blob[offset + 8 :]


class TestTrainCommand:
    def test_checkpoint_artifacts(self, tiny_config, tmp_path):
        out = tmp_path / "ckpt"
        assert main(["train", "--config", str(tiny_config), "--out", str(out)]) == 0
        for fname in (
            "g_xy.prm1", "g_yx.prm1", "d_x.prm1", "d_y.prm1",
            "metadata.json", "losslog.csv", "config.json",
        ):
            assert (out / fname).exists(), fname
        assert not (out / ".in-progress").exists()
        lines = (out / "losslog.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,lr,adv_g,adv_d,cyc,id"
        assert len(lines) == 9

    def test_baseline_mode_writes_lg_stats_only(self, tiny_config, tmp_path):
        out = tmp_path / "base"
        assert main(["train", "--config", str(tiny_config), "--mode", "baseline",
                     "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["lg_stats.json"]
        payload = json.loads((out / "lg_stats.json").read_text())
        assert set(payload) >= {"source", "target"}

    def test_rerun_byte_identical(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["train", "--config", str(tiny_config), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(tiny_config), "--out", str(out2)]) == 0
        for fname in ("g_xy.prm1", "g_yx.prm1", "d_x.prm1", "d_y.prm1", "losslog.csv"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes(), fname

    def test_invalid_config_exits_1_with_all_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"mode": "bogus", "stats_policy": "mystery", "seed": "nan"}),
            encoding="utf-8",
        )
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "mode" in err and "stats_policy" in err and "seed" in err


class TestModeNames:
    @pytest.mark.parametrize("route", ["config", "flag"])
    @pytest.mark.parametrize("spelling", ["short", "stored"])
    @pytest.mark.parametrize("mode", TRAINING_MODES)
    def test_short_and_stored_names_parse_to_the_stored_name(
        self, tiny_config, tmp_path, mode, spelling, route
    ):
        name = MODES[mode].name if spelling == "short" else mode
        raw = json.loads(tiny_config.read_text())
        argv = ["train", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "o")]
        if route == "config":
            raw["mode"] = name
        else:
            argv += ["--mode", name]
        (tmp_path / "run.json").write_text(json.dumps(raw), encoding="utf-8")
        args = build_parser().parse_args(argv)
        assert load_run_config(args.config, overrides=_config_overrides(args)).mode == mode

    @pytest.mark.parametrize("mode", TRAINING_MODES)
    def test_features_for_mode_give_the_mode_feature_rows(self, tiny_corpus, mode):
        utts = [read_feature_file(f) for f in sorted(tiny_corpus.parent.glob("*.uff"))[:3]]
        wavelet = WaveletParams()
        feats = features_for_mode(mode, utts, wavelet)
        rows = mode_feature_dim(mode, wavelet.n_scales)
        assert [f.shape for f in feats] == [(rows, u.n_frames) for u in utts]

    def test_joint_rows_are_the_spectrum_rows_over_the_prosody_rows(self, tiny_corpus):
        utts = [read_feature_file(f) for f in sorted(tiny_corpus.parent.glob("*.uff"))[:3]]
        wavelet = WaveletParams()
        joint = features_for_mode(MODE_JOINT, utts, wavelet)
        spectrum = features_for_mode(MODE_SPECTRUM, utts, wavelet)
        prosody = features_for_mode(MODE_PROSODY, utts, wavelet)
        for j, m, c in zip(joint, spectrum, prosody):
            assert j.dtype == m.dtype == c.dtype == np.float64
            assert j.tobytes() == np.vstack([m, c]).tobytes()


@pytest.fixture(scope="module")
def trained(tiny_config, tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    spec_dir, pros_dir, base_dir = root / "spec", root / "pros", root / "base"
    assert main(["train", "--config", str(tiny_config), "--mode", "spectrum",
                 "--out", str(spec_dir)]) == 0
    assert main(["train", "--config", str(tiny_config), "--mode", "prosody",
                 "--out", str(pros_dir)]) == 0
    assert main(["train", "--config", str(tiny_config), "--mode", "baseline",
                 "--out", str(base_dir)]) == 0
    return spec_dir, pros_dir, base_dir


@pytest.fixture(scope="module")
def trained_joint(tiny_config, tmp_path_factory):
    joint_dir = tmp_path_factory.mktemp("trained") / "joint"
    assert main(["train", "--config", str(tiny_config), "--mode", "joint",
                 "--out", str(joint_dir)]) == 0
    return joint_dir


class TestConvertCommand:
    def test_separate_conversion_preserves_voicing(self, tiny_config, trained, tmp_path):
        spec_dir, pros_dir, _ = trained
        out = tmp_path / "conv"
        rc = main([
            "convert", "--config", str(tiny_config), "--mode", "spectrum",
            "--spectrum-ckpt", str(spec_dir), "--prosody-ckpt", str(pros_dir),
            "--out", str(out),
        ])
        assert rc == 0
        files = sorted(out.glob("*.uff"))
        assert len(files) == 2  # eval sources of the split
        cfg = json.loads(tiny_config.read_text())
        corpus = load_corpus(cfg["manifest"])
        split = make_nonparallel_split(corpus, "A", "B", 4, 2, seed=5)
        for (src, _tgt), f in zip(split.eval_pairs, files):
            conv = read_feature_file(f)
            assert conv.utterance_id == src.utterance_id
            assert conv.emotion_label == "B"
            np.testing.assert_array_equal(conv.f0_hz == 0.0, src.f0_hz == 0.0)

    def test_baseline_conversion_imposes_target_stats(self, tiny_config, trained, tmp_path):
        _, _, base_dir = trained
        out = tmp_path / "conv_base"
        rc = main([
            "convert", "--config", str(tiny_config), "--mode", "baseline",
            "--baseline-ckpt", str(base_dir), "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads((base_dir / "lg_stats.json").read_text())
        tgt_mean = payload["target"]["mean"]
        tgt_std = payload["target"]["std"]
        logs = []
        for f in out.glob("*.uff"):
            utt = read_feature_file(f)
            logs.append(np.log(utt.f0_hz[utt.f0_hz > 0].astype(np.float64)))
        pooled = np.concatenate(logs)
        assert abs(pooled.mean() - tgt_mean) / tgt_mean < 0.02
        assert abs(pooled.std() - tgt_std) / tgt_std < 0.10

    @pytest.mark.parametrize("system", ["baseline", "joint", "separate"])
    def test_checkpoints_load_once_per_call(
        self, tiny_corpus, trained, trained_joint, system, tmp_path, monkeypatch
    ):
        from pathlib import Path

        from prosodia.cli import pipeline

        spec_dir, pros_dir, base_dir = trained
        ckpts = {
            "baseline": dict(baseline_ckpt=base_dir, spectrum_ckpt=spec_dir),
            "joint": dict(joint_ckpt=trained_joint),
            "separate": dict(spectrum_ckpt=spec_dir, prosody_ckpt=pros_dir),
        }[system]
        loads, reads = [], []
        load_model_checkpoint = pipeline.load_model_checkpoint
        read_text = Path.read_text

        def counting_load(ckpt):
            loads.append(Path(ckpt))
            return load_model_checkpoint(ckpt)

        def counting_read_text(self, *args, **kwargs):
            reads.append(self.name)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(pipeline, "load_model_checkpoint", counting_load)
        monkeypatch.setattr(Path, "read_text", counting_read_text)
        inputs = [read_feature_file(f) for f in sorted(tiny_corpus.parent.glob("*_A.uff"))[:3]]
        assert len(inputs) == 3
        out = pipeline.convert_directory(
            inputs, tmp_path / "conv", mode=system, stats_policy="target", **ckpts
        )
        assert len(out) == 3 and {u.emotion_label for u in out} == {"B"}
        model_ckpts = [Path(v) for k, v in ckpts.items() if k != "baseline_ckpt"]
        assert sorted(loads) == sorted(model_ckpts)
        assert reads.count(pipeline.LG_STATS_FILE) == (system == "baseline")

    @pytest.mark.parametrize(
        "system, ckpts, flag",
        [
            ("baseline", [], "--baseline-ckpt"),
            ("joint", [], "--joint-ckpt"),
            ("separate", ["spectrum_ckpt"], "--prosody-ckpt"),
        ],
    )
    def test_library_conversion_names_missing_checkpoint(
        self, tiny_corpus, trained, system, ckpts, flag, tmp_path
    ):
        from prosodia.cli import pipeline
        from prosodia.errors import ValidationError

        ckpts = {name: trained[0] for name in ckpts}  # the spectrum checkpoint
        utt = read_feature_file(sorted(tiny_corpus.parent.glob("*_A.uff"))[0])
        out = tmp_path / "conv"
        with pytest.raises(ValidationError, match=flag):
            pipeline.convert_directory(
                [utt], out, mode=system, stats_policy="target", **ckpts
            )
        assert not out.exists()

    def test_checkpoints_with_other_targets_rejected(
        self, tiny_config, tiny_corpus, trained, tmp_path, capsys
    ):
        from prosodia.cli import pipeline
        from prosodia.errors import ValidationError

        spec_dir, pros_dir, base_dir = trained
        pros_c, base_c = tmp_path / "pros_c", tmp_path / "base_c"
        shutil.copytree(pros_dir, pros_c)
        shutil.copytree(base_dir, base_c)
        meta = json.loads((pros_c / "metadata.json").read_text())
        meta["stats"]["target_emotion"] = "C"
        (pros_c / "metadata.json").write_text(json.dumps(meta))
        lg = json.loads((base_c / "lg_stats.json").read_text())
        lg["target_emotion"] = "C"
        (base_c / "lg_stats.json").write_text(json.dumps(lg))
        rc = main([
            "convert", "--config", str(tiny_config), "--mode", "prosody",
            "--spectrum-ckpt", str(spec_dir), "--prosody-ckpt", str(pros_c),
            "--out", str(tmp_path / "sep"),
        ])
        assert rc == 1
        assert "target emotion" in capsys.readouterr().err
        assert not (tmp_path / "sep").exists()
        utt = read_feature_file(sorted(tiny_corpus.parent.glob("*_A.uff"))[0])
        with pytest.raises(ValidationError, match="target emotion"):
            pipeline.convert_directory(
                [utt], tmp_path / "base", mode="baseline", stats_policy="target",
                baseline_ckpt=base_c, spectrum_ckpt=spec_dir,
            )

    @pytest.mark.parametrize("kind", ["prosody", "baseline"])
    def test_half_written_checkpoint_rejected(self, tiny_config, trained, tmp_path, capsys, kind):
        spec_dir, pros_dir, base_dir = trained
        half = tmp_path / "half"
        shutil.copytree(pros_dir if kind == "prosody" else base_dir, half)
        (half / SENTINEL).write_text("", encoding="utf-8")
        flags = {
            "prosody": ["--mode", "spectrum", "--spectrum-ckpt", str(spec_dir),
                        "--prosody-ckpt", str(half)],
            "baseline": ["--mode", "baseline", "--baseline-ckpt", str(half)],
        }
        rc = main(["convert", "--config", str(tiny_config), *flags[kind],
                   "--out", str(tmp_path / "conv")])
        assert rc == 1
        assert SENTINEL in capsys.readouterr().err
        assert not (tmp_path / "conv").exists()

    def test_mode_mismatch_rejected(self, tiny_config, trained, tmp_path, capsys):
        spec_dir, pros_dir, _ = trained
        rc = main([
            "convert", "--config", str(tiny_config), "--mode", "joint",
            "--joint-ckpt", str(pros_dir), "--out", str(tmp_path / "x"),
        ])
        assert rc == 1
        assert "joint" in capsys.readouterr().err

    def test_missing_checkpoint_flag_rejected(self, tiny_config, tmp_path):
        rc = main([
            "convert", "--config", str(tiny_config), "--mode", "prosody",
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 1


def _with_id(src, dst, utterance_id: str) -> None:
    """Copy the UFF file ``src`` to ``dst`` under another utterance id."""
    utt = dataclasses.replace(read_feature_file(src), utterance_id=utterance_id)
    write_feature_file(utt, dst)


class TestUtteranceIdsNameOutputFiles:
    """An id becomes ``<id>.uff``: one that leaves --out or repeats exits 1, writing nothing."""

    @pytest.mark.parametrize(
        "ids",
        [["../escaped"], ["same", "other", "same"], [""], ["."], [".."], ["a\\b"], ["a\0b"]],
        ids=["parent", "repeated", "empty", "dot", "dotdot", "backslash", "nul"],
    )
    def test_convert(self, tiny_config, tiny_corpus, trained, tmp_path, ids, capsys):
        _, _, base_dir = trained
        sources = sorted(tiny_corpus.parent.glob("*.uff"))
        inputs = []
        for k, utterance_id in enumerate(ids):
            inputs.append(tmp_path / f"in{k}.uff")
            _with_id(sources[k], inputs[-1], utterance_id)
        work = tmp_path / "work"
        work.mkdir()
        rc = main([
            "convert", "--config", str(tiny_config), "--mode", "baseline",
            "--baseline-ckpt", str(base_dir), "--inputs", *map(str, inputs),
            "--out", str(work / "out"),
        ])
        assert rc == 1
        assert "utterance id" in capsys.readouterr().err
        assert list(work.iterdir()) == []

    def test_compare(self, tiny_config, tiny_corpus, tmp_path, capsys):
        # Three levels up from <out>/<pair>/reference is the parent of --out.
        corpus = tmp_path / "corpus"
        shutil.copytree(tiny_corpus.parent, corpus)
        manifest = corpus / tiny_corpus.name
        entries = json.loads(manifest.read_text(encoding="utf-8"))
        for entry in entries:
            entry["id"] = "../../../" + entry["id"]
            _with_id(corpus / entry["path"], corpus / entry["path"], entry["id"])
        manifest.write_text(json.dumps(entries), encoding="utf-8")
        config = json.loads(tiny_config.read_text(encoding="utf-8"))
        config["manifest"] = str(manifest)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        work = tmp_path / "work"
        work.mkdir()
        rc = main(["compare", "--config", str(config_path), "--out", str(work / "out")])
        assert rc == 1
        assert "utterance id" in capsys.readouterr().err
        assert [p.name for p in work.iterdir()] == ["out"]
        assert not any(p.suffix == ".uff" for p in (work / "out").rglob("*"))


class TestMalformedInputsExit2:
    """Bad files fail with FormatError, which the CLI maps to exit code 2."""

    @staticmethod
    def _bad_label(src, dst):
        data = bytearray(src.read_bytes())
        data[24 + 2] = 0xFF  # first byte of the emotion label
        dst.write_bytes(bytes(data))

    def test_preprocess_non_utf8_label(self, tiny_corpus, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(tiny_corpus.parent, corpus)
        victim = sorted(corpus.glob("*.uff"))[0]
        self._bad_label(victim, victim)
        rc = main(["preprocess", "--manifest", str(corpus / tiny_corpus.name),
                   "--out", str(tmp_path / "stats.json")])
        assert rc == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_convert_inputs_non_utf8_label(self, tiny_config, tiny_corpus, trained, tmp_path):
        spec_dir, pros_dir, _ = trained
        bad = tmp_path / "bad.uff"
        self._bad_label(sorted(tiny_corpus.parent.glob("*.uff"))[0], bad)
        rc = main([
            "convert", "--config", str(tiny_config), "--mode", "spectrum",
            "--spectrum-ckpt", str(spec_dir), "--prosody-ckpt", str(pros_dir),
            "--inputs", str(bad), "--out", str(tmp_path / "conv"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("edit", ["drop_mode", "gen_config_mismatch"])
    def test_convert_bad_checkpoint_metadata(self, tiny_config, trained, tmp_path, edit, capsys):
        spec_dir, pros_dir, _ = trained
        bad = tmp_path / "pros"
        shutil.copytree(pros_dir, bad)
        meta = bad / "metadata.json"
        metadata = json.loads(meta.read_text())
        if edit == "drop_mode":
            del metadata["mode"]
        else:
            metadata["gen_config"]["base_channels"] *= 2
        meta.write_text(json.dumps(metadata))
        rc = main([
            "convert", "--config", str(tiny_config), "--mode", "spectrum",
            "--spectrum-ckpt", str(spec_dir), "--prosody-ckpt", str(bad),
            "--out", str(tmp_path / "conv"),
        ])
        assert rc == 2
        assert ("'mode'" if edit == "drop_mode" else "gen_config") in capsys.readouterr().err

    @pytest.mark.parametrize("keys", [("n_residual",), ("n_downsample", "n_upsample")])
    @pytest.mark.parametrize("count", [2**64, 10**400], ids=["2**64", "10**400"])
    def test_convert_huge_gen_config_counts(self, tiny_config, trained, tmp_path, keys, count,
                                            capsys):
        # Such counts once made the layout check loop until memory ran out;
        # the alarm turns a hang into a failure.
        spec_dir, pros_dir, _ = trained
        bad = tmp_path / "pros"
        shutil.copytree(pros_dir, bad)
        meta = bad / "metadata.json"
        metadata = json.loads(meta.read_text())
        for key in keys:
            metadata["gen_config"][key] = count
        meta.write_text(json.dumps(metadata))
        def hang(signum, frame):
            raise TimeoutError("load_model_checkpoint did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        start = time.perf_counter()
        try:
            rc = main([
                "convert", "--config", str(tiny_config), "--mode", "spectrum",
                "--spectrum-ckpt", str(spec_dir), "--prosody-ckpt", str(bad),
                "--out", str(tmp_path / "conv"),
            ])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert "gen_config" in capsys.readouterr().err


class TestMalformedJson:
    """Bad JSON fails with ValidationError (exit 1) or FormatError (exit 2), not a traceback."""

    def test_preprocess_truncated_manifest(self, tiny_corpus, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        text = tiny_corpus.read_text(encoding="utf-8")
        manifest.write_text(text[: len(text) // 2], encoding="utf-8")
        assert main(["preprocess", "--manifest", str(manifest)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ['{"n_eval": 1, "frames_m', "[1, 2]", '{"emotions": {"A": {}, "B": {}}}'],
        ids=["truncated", "array", "missing_key"],
    )
    def test_synth_corpus_bad_spec(self, tmp_path, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text, encoding="utf-8")
        rc = main(["synth-corpus", "--out", str(tmp_path / "corpus"), "--seed", "3",
                   "--synth-spec", str(spec)])
        assert rc == 1

    @pytest.mark.parametrize("edit", ["missing_key", "array", "truncated"])
    def test_baseline_convert_bad_lg_stats(self, tiny_config, trained, tmp_path, edit, capsys):
        bad = tmp_path / "base"
        shutil.copytree(trained[2], bad)
        stats = bad / "lg_stats.json"
        text = stats.read_text(encoding="utf-8")
        if edit == "missing_key":
            payload = json.loads(text)
            del payload["target"]["std"]
            text = json.dumps(payload)
        elif edit == "array":
            text = json.dumps(list(json.loads(text).values()))
        else:
            text = text[: len(text) // 2]
        stats.write_text(text, encoding="utf-8")
        rc = main([
            "convert", "--config", str(tiny_config), "--mode", "baseline",
            "--baseline-ckpt", str(bad), "--out", str(tmp_path / "conv"),
        ])
        assert rc == 2
        assert "lg_stats.json" in capsys.readouterr().err


NOT_UTF8 = b"[\xff]"  # a byte that no UTF-8 text holds


class TestNonUtf8Json:
    """JSON that is not UTF-8 fails like invalid JSON beside it, not with a traceback."""

    def test_preprocess_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(NOT_UTF8)
        assert main(["preprocess", "--manifest", str(manifest)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_train_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(NOT_UTF8)
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_synth_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(NOT_UTF8)
        rc = main(["synth-corpus", "--out", str(tmp_path / "corpus"), "--seed", "3",
                   "--synth-spec", str(spec)])
        assert rc == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_lg_stats(self, tiny_config, trained, tmp_path, capsys):
        bad = tmp_path / "base"
        shutil.copytree(trained[2], bad)
        (bad / "lg_stats.json").write_bytes(NOT_UTF8)
        rc = main([
            "convert", "--config", str(tiny_config), "--mode", "baseline",
            "--baseline-ckpt", str(bad), "--out", str(tmp_path / "conv"),
        ])
        assert rc == 2
        assert "lg_stats.json: invalid JSON" in capsys.readouterr().err

    def test_checkpoint_metadata(self, tiny_config, trained, tmp_path, capsys):
        spec_dir, pros_dir, _ = trained
        bad = tmp_path / "pros"
        shutil.copytree(pros_dir, bad)
        (bad / "metadata.json").write_bytes(NOT_UTF8)
        rc = main([
            "convert", "--config", str(tiny_config), "--mode", "spectrum",
            "--spectrum-ckpt", str(spec_dir), "--prosody-ckpt", str(bad),
            "--out", str(tmp_path / "conv"),
        ])
        assert rc == 2
        assert "metadata.json: invalid JSON" in capsys.readouterr().err


DEEP = "[" * 100_000  # nesting deeper than the decoder's recursion limit
LONG_INT = "1" * 5_000  # more digits than Python converts to int by default


class TestJsonEscapes:
    """Deep nesting, over-long integers and values no field can take exit 1 or 2."""

    @pytest.mark.parametrize(
        "text",
        [
            DEEP,
            f"[{LONG_INT}]",
            '[{"id": ["u1"], "emotion": "A", "path": "u1.uff"}]',
        ],
        ids=["deep", "long_int", "list_id"],
    )
    def test_preprocess_manifest(self, tmp_path, text, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text, encoding="utf-8")
        assert main(["preprocess", "--manifest", str(manifest)]) == 1
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, flags",
        [
            (DEEP, []),
            (f'{{"seed": {LONG_INT}}}', []),
            ('{"schedule": {"total_iters": Infinity, "constant_lr_iters": 1, '
             '"decay_iters": 1}}', []),
            ('{"manifest": 5}', []),
            ('{"schedule": [1]}', ["--paper-scale"]),
        ],
        ids=["deep", "long_int", "infinite_int", "manifest_number", "schedule_array"],
    )
    def test_train_config(self, tmp_path, text, flags):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        rc = main(["train", "--config", str(config), "--out", str(tmp_path / "o"), *flags])
        assert rc == 1

    @pytest.mark.parametrize(
        "text", [DEEP, f'{{"jitter": {LONG_INT}}}', '{"n_eval": Infinity}'],
        ids=["deep", "long_int", "infinite_int"],
    )
    def test_synth_spec(self, tmp_path, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text, encoding="utf-8")
        rc = main(["synth-corpus", "--out", str(tmp_path / "corpus"), "--seed", "3",
                   "--synth-spec", str(spec)])
        assert rc == 1

    @pytest.mark.parametrize("edit", ["deep", "long_int", "infinite_int"])
    def test_lg_stats(self, tiny_config, trained, tmp_path, edit, capsys):
        bad = tmp_path / "base"
        shutil.copytree(trained[2], bad)
        stats = bad / "lg_stats.json"
        stats.write_text(_escape(stats.read_text(encoding="utf-8"), edit, "target", "n_frames"),
                         encoding="utf-8")
        rc = main([
            "convert", "--config", str(tiny_config), "--mode", "baseline",
            "--baseline-ckpt", str(bad), "--out", str(tmp_path / "conv"),
        ])
        assert rc == 2
        assert "lg_stats.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["deep", "long_int", "infinite_int"])
    def test_checkpoint_metadata(self, tiny_config, trained, tmp_path, edit, capsys):
        spec_dir, pros_dir, _ = trained
        bad = tmp_path / "pros"
        shutil.copytree(pros_dir, bad)
        meta = bad / "metadata.json"
        meta.write_text(_escape(meta.read_text(encoding="utf-8"), edit, "schedule", "seed"),
                        encoding="utf-8")
        rc = main([
            "convert", "--config", str(tiny_config), "--mode", "spectrum",
            "--spectrum-ckpt", str(spec_dir), "--prosody-ckpt", str(bad),
            "--out", str(tmp_path / "conv"),
        ])
        assert rc == 2
        assert "metadata.json" in capsys.readouterr().err


def _escape(text: str, edit: str, section: str, key: str) -> str:
    """``text`` made deep, or with ``payload[section][key]`` an over-long or infinite integer."""
    if edit == "deep":
        return DEEP
    payload = json.loads(text)
    payload[section][key] = float("inf") if edit == "infinite_int" else 0
    text = json.dumps(payload)
    return text.replace(f'"{key}": 0', f'"{key}": {LONG_INT}') if edit == "long_int" else text


class TestEvaluateCommand:
    def test_self_evaluation_perfect(self, tiny_corpus, tmp_path, capsys):
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        for f in sorted(tiny_corpus.parent.glob("*_B.uff"))[:3]:
            utt = read_feature_file(f)
            from prosodia.features import write_feature_file

            write_feature_file(utt, ref_dir / f"{utt.utterance_id}.uff")
        out_csv = tmp_path / "report.csv"
        rc = main(["evaluate", "--converted", str(ref_dir), "--reference", str(ref_dir),
                   "--out", str(out_csv)])
        assert rc == 0
        lines = out_csv.read_text().strip().splitlines()
        mean = lines[-1].split(",")
        assert mean[0] == "MEAN"
        assert float(mean[1]) == 0.0 and float(mean[2]) == 0.0
        assert float(mean[3]) == pytest.approx(1.0, abs=1e-9)

    def test_empty_intersection_rejected(self, tiny_corpus, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        from prosodia.features import write_feature_file

        u1 = read_feature_file(sorted(tiny_corpus.parent.glob("*_A.uff"))[0])
        write_feature_file(u1, a / "only_here.uff")
        u2 = read_feature_file(sorted(tiny_corpus.parent.glob("*_B.uff"))[1])
        write_feature_file(u2, b / "only_there.uff")
        rc = main(["evaluate", "--converted", str(a), "--reference", str(b)])
        assert rc == 1
        assert "common" in capsys.readouterr().err

    @pytest.mark.parametrize("half_written", ["converted", "reference"])
    def test_half_written_directory_rejected(self, tiny_corpus, tmp_path, capsys, half_written):
        dirs = {"converted": tmp_path / "converted", "reference": tmp_path / "reference"}
        utt = read_feature_file(sorted(tiny_corpus.parent.glob("*_B.uff"))[0])
        for path in dirs.values():
            path.mkdir()
            write_feature_file(utt, path / f"{utt.utterance_id}.uff")
        (dirs[half_written] / SENTINEL).write_text("", encoding="utf-8")
        out_csv = tmp_path / "report.csv"
        rc = main(["evaluate", "--converted", str(dirs["converted"]),
                   "--reference", str(dirs["reference"]), "--out", str(out_csv)])
        assert rc == 1
        assert SENTINEL in capsys.readouterr().err
        assert not out_csv.exists()


class TestCompareCommand:
    def test_comparison_table_and_determinism(self, tiny_config, tmp_path, capsys):
        out1 = tmp_path / "cmp1"
        rc = main(["compare", "--config", str(tiny_config), "--out", str(out1)])
        assert rc == 0
        csv_path = out1 / "comparison.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "pair,system,mcd_db,rmse_hz,pcc"
        body = [ln.split(",") for ln in lines[1:]]
        systems = [row[1] for row in body if row[0] != "MEAN"]
        assert systems == ["baseline", "joint", "separate"]
        mean_rows = [row for row in body if row[0] == "MEAN"]
        assert len(mean_rows) == 3
        for row in body:
            assert "FAILED" not in row[2:]
            for cell in row[2:]:
                assert np.isfinite(float(cell))
        assert (out1 / "comparison.txt").exists()
        assert not (out1 / ".in-progress").exists()

        out2 = tmp_path / "cmp2"
        assert main(["compare", "--config", str(tiny_config), "--out", str(out2)]) == 0
        files = sorted(str(p.relative_to(out1)) for p in out1.rglob("*") if p.is_file())
        assert files == sorted(str(p.relative_to(out2)) for p in out2.rglob("*") if p.is_file())
        assert {"comparison.csv", "comparison.txt"} <= set(files)
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
