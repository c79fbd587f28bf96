import json

import numpy as np
import pytest

from prosodia.errors import FormatError, ValidationError
from prosodia.features import (
    UtteranceFeatures,
    load_corpus,
    make_nonparallel_split,
    read_feature_file,
    write_feature_file,
)


def make_features(utt_id="u001", emotion="A", n=10, seed=0, frame_period=5.0):
    rng = np.random.default_rng(seed)
    return UtteranceFeatures(
        utterance_id=utt_id,
        emotion_label=emotion,
        frame_period_ms=frame_period,
        mceps=rng.normal(0, 1, (24, n)).astype(np.float32),
        f0_hz=np.abs(rng.normal(200, 30, n)).astype(np.float32),
    )


class TestRoundTrip:
    def test_one_frame_utterance(self, tmp_path):
        feats = UtteranceFeatures(
            utterance_id="single",
            emotion_label="A",
            frame_period_ms=5.0,
            mceps=np.zeros((24, 1), dtype=np.float32),
            f0_hz=np.array([100.0], dtype=np.float32),
        )
        path = tmp_path / "one.uff"
        write_feature_file(feats, path)
        assert read_feature_file(path).equals(feats)

    def test_random_utterance_bitwise(self, tmp_path):
        feats = make_features(n=90, seed=3)
        path = tmp_path / "r.uff"
        write_feature_file(feats, path)
        back = read_feature_file(path)
        assert np.array_equal(back.mceps, feats.mceps)
        assert np.array_equal(back.f0_hz, feats.f0_hz)
        # writing the reread value reproduces the file byte for byte
        path2 = tmp_path / "r2.uff"
        write_feature_file(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_roundtrip_many_random(self, tmp_path):
        for seed in range(5):
            feats = make_features(n=int(np.random.default_rng(seed).integers(1, 50)), seed=seed)
            path = tmp_path / f"{seed}.uff"
            write_feature_file(feats, path)
            assert read_feature_file(path).equals(feats)


    @pytest.mark.parametrize("n", [1, 90])
    def test_read_arrays_own_their_memory(self, tmp_path, n):
        """Neither array is a view, so a loaded utterance does not pin the file's bytes."""
        path = tmp_path / "own.uff"
        write_feature_file(make_features(n=n, seed=4), path)
        back = read_feature_file(path)
        assert back.mceps.base is None and back.f0_hz.base is None

class TestValidation:
    def test_frame_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            UtteranceFeatures(
                utterance_id="x",
                emotion_label="A",
                frame_period_ms=5.0,
                mceps=np.zeros((24, 10), dtype=np.float32),
                f0_hz=np.zeros(9, dtype=np.float32),
            )

    def test_negative_f0_rejected(self):
        with pytest.raises(ValidationError):
            UtteranceFeatures(
                utterance_id="x",
                emotion_label="A",
                frame_period_ms=5.0,
                mceps=np.zeros((24, 2), dtype=np.float32),
                f0_hz=np.array([100.0, -1.0], dtype=np.float32),
            )

    def test_non_finite_rejected(self):
        mceps = np.zeros((24, 2), dtype=np.float32)
        mceps[3, 1] = np.nan
        with pytest.raises(ValidationError):
            UtteranceFeatures("x", "A", 5.0, mceps, np.ones(2, dtype=np.float32))

    def test_zero_frame_period_rejected(self):
        with pytest.raises(ValidationError):
            UtteranceFeatures(
                "x", "A", 0.0, np.zeros((24, 1), np.float32), np.ones(1, np.float32)
            )


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.uff"
        write_feature_file(make_features(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="UFF1"):
            read_feature_file(path)

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        path = tmp_path / "t.uff"
        write_feature_file(make_features(n=20), path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(FormatError, match="expected"):
            read_feature_file(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.uff"
        write_feature_file(make_features(), path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            read_feature_file(path)


    @pytest.mark.parametrize("field", ["emotion", "utterance_id"])
    def test_non_utf8_string_is_format_error(self, tmp_path, field):
        path = tmp_path / "s.uff"
        write_feature_file(make_features(utt_id="u", emotion="A"), path)
        data = bytearray(path.read_bytes())
        label_at = 24 + 2  # header, then the label's u16 length
        data[label_at if field == "emotion" else label_at + 1 + 2] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="UTF-8"):
            read_feature_file(path)

    def test_every_proper_prefix_is_rejected(self, tmp_path):
        path = tmp_path / "p.uff"
        write_feature_file(make_features(n=8), path)
        data = path.read_bytes()
        for end in range(len(data)):
            path.write_bytes(data[:end])
            with pytest.raises(FormatError):
                read_feature_file(path)


def write_corpus(tmp_path, emotions=("neutral", "angry"), n_per_emotion=90, n_frames=6):
    entries = []
    for emotion in emotions:
        for k in range(n_per_emotion):
            utt_id = f"u{k + 1:03d}"
            feats = make_features(utt_id, emotion, n=n_frames, seed=hash((emotion, k)) % 2**32)
            fname = f"{utt_id}_{emotion}.uff"
            write_feature_file(feats, tmp_path / fname)
            entries.append({"id": utt_id, "emotion": emotion, "path": fname})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries), encoding="utf-8")
    return manifest


class TestCorpus:
    def test_grouping_and_counts(self, tmp_path):
        manifest = write_corpus(tmp_path)
        corpus = load_corpus(manifest)
        assert set(corpus) == {"neutral", "angry"}
        assert len(corpus["neutral"]) == 90
        assert len(corpus["angry"]) == 90
        ids = [u.utterance_id for u in corpus["neutral"]]
        assert ids == sorted(ids)

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]", encoding="utf-8")
        assert load_corpus(manifest) == {}

    def test_duplicate_id_rejected(self, tmp_path):
        feats = make_features("dup", "A")
        write_feature_file(feats, tmp_path / "a.uff")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                [
                    {"id": "dup", "emotion": "A", "path": "a.uff"},
                    {"id": "dup", "emotion": "A", "path": "a.uff"},
                ]
            ),
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="duplicate"):
            load_corpus(manifest)

    def test_missing_files_all_listed(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                [
                    {"id": "u1", "emotion": "A", "path": "gone1.uff"},
                    {"id": "u2", "emotion": "A", "path": "gone2.uff"},
                ]
            ),
            encoding="utf-8",
        )
        with pytest.raises(ValidationError) as exc:
            load_corpus(manifest)
        assert "gone1.uff" in str(exc.value) and "gone2.uff" in str(exc.value)


class TestNonParallelSplit:
    def test_paper_sized_corpus_is_too_small(self, tmp_path):
        manifest = write_corpus(tmp_path, n_per_emotion=90)
        corpus = load_corpus(manifest)
        with pytest.raises(ValidationError, match="100"):
            make_nonparallel_split(corpus, "neutral", "angry", 45, 10, seed=0)

    def test_hundred_utterances_split_identity_order(self, tmp_path):
        manifest = write_corpus(tmp_path, n_per_emotion=100)
        corpus = load_corpus(manifest)
        split = make_nonparallel_split(corpus, "neutral", "angry", 45, 10, seed=0)
        src_ids = [u.utterance_id for u in split.source_set]
        tgt_ids = [u.utterance_id for u in split.target_set]
        eval_ids = [s.utterance_id for s, _ in split.eval_pairs]
        assert src_ids == [f"u{k:03d}" for k in range(1, 46)]
        assert tgt_ids == [f"u{k:03d}" for k in range(46, 91)]
        assert eval_ids == [f"u{k:03d}" for k in range(91, 101)]
        assert all(u.emotion_label == "neutral" for u in split.source_set)
        assert all(u.emotion_label == "angry" for u in split.target_set)

    def test_minimal_split(self, tmp_path):
        manifest = write_corpus(tmp_path, n_per_emotion=2)
        corpus = load_corpus(manifest)
        split = make_nonparallel_split(corpus, "neutral", "angry", 1, 0, seed=0)
        assert len(split.source_set) == 1 and len(split.target_set) == 1
        assert split.source_set[0].utterance_id != split.target_set[0].utterance_id

    def test_same_emotion_rejected(self, tmp_path):
        manifest = write_corpus(tmp_path, n_per_emotion=3)
        corpus = load_corpus(manifest)
        with pytest.raises(ValidationError, match="degenerate"):
            make_nonparallel_split(corpus, "neutral", "neutral", 1, 0, seed=0)

    def test_disjointness_and_determinism_across_seeds(self, tmp_path):
        manifest = write_corpus(tmp_path, n_per_emotion=12)
        corpus = load_corpus(manifest)
        for seed in (0, 1, 7, 12345):
            s1 = make_nonparallel_split(corpus, "neutral", "angry", 4, 3, seed=seed)
            s2 = make_nonparallel_split(corpus, "neutral", "angry", 4, 3, seed=seed)
            ids = lambda us: [u.utterance_id for u in us]  # noqa: E731
            assert ids(s1.source_set) == ids(s2.source_set)
            assert ids(s1.target_set) == ids(s2.target_set)
            src, tgt = set(ids(s1.source_set)), set(ids(s1.target_set))
            evals = {s.utterance_id for s, _ in s1.eval_pairs}
            assert not (src & tgt) and not (evals & (src | tgt))
            assert len(evals) == 3
