"""Acceptance suite: one test per binding criterion, with a PASS line each.

Numeric thresholds marked "frozen" were fixed from pre-build oracle runs
(see the repository's external build notes); the suite asserts them as-is
and never recalibrates at test time. Criteria 6 and 7 train real models
and dominate the runtime (a few minutes each on one CPU core).
"""

import json

import numpy as np
import pytest

from prosodia.baseline import LgStats, lg_fit, lg_transform
from prosodia.cli.config import load_run_config
from prosodia.cli.main import main
from prosodia.cli import pipeline
from prosodia.cli.synth import SynthCorpusSpec, generate_corpus
from prosodia.cyclegan import (
    LossWeights,
    TrainSchedule,
    adversarial_loss,
    build_model,
    cycle_loss,
    identity_loss,
    train,
)
from prosodia.features import (
    UtteranceFeatures,
    load_corpus,
    make_nonparallel_split,
    read_feature_file,
    write_feature_file,
)
from prosodia.metrics import (
    evaluate_pairs,
    mcd,
    pcc,
    read_report_csv,
    rmse_f0,
    write_report_csv,
)
from prosodia.nn import (
    Tensor,
    discriminator_config,
    finite_diff_check,
    forward_discriminator,
    forward_generator,
    generator_config,
    init_params,
    load_params,
    save_params,
)
from prosodia.nn.network import ParamStore
from prosodia.nn.tensor import (
    add,
    add_leading_axis,
    conv1d,
    conv2d,
    glu,
    instance_norm,
    leaky_relu,
    mean,
    scale,
    square,
    sub,
    upsample2,
)
from prosodia.prosody import (
    CwtMatrix,
    WaveletParams,
    cwt_decompose,
    cwt_decompose_direct,
    cwt_reconstruct,
    export_scalogram_csv,
    interpolate_unvoiced,
    read_scalogram_csv,
)


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


def test_c1_cwt_oracle_equivalence():
    """FFT decomposition matches the direct-summation oracle to 1e-9."""
    worst = 0.0
    for n in (8, 64, 257):
        for seed in (0, 1, 2):
            sig = np.random.default_rng(seed).normal(size=n)
            a = cwt_decompose(sig).coeffs
            b = cwt_decompose_direct(sig).coeffs
            worst = max(worst, float(np.abs(a - b).max()))
    assert worst < 1e-9
    report("C1", f"fft vs direct max abs diff {worst:.3e} over N in (8,64,257) x 3 seeds")


def test_c2_cwt_round_trip():
    """Round-trip correlation on 3-sinusoid mixes meets the frozen 0.95.

    Fixture frozen from calibration: quarter-octave periods (64, 76, 91),
    N=512; measured min 0.9609 over 20 phase seeds.
    """
    n = 512
    t = np.arange(n)
    worst = 1.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        sig = np.zeros(n)
        for period in (64.0, 76.0, 91.0):
            sig += np.cos(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
        sig = (sig - sig.mean()) / sig.std()
        rec = cwt_reconstruct(cwt_decompose(sig))
        rec = (rec - rec.mean()) / rec.std()
        worst = min(worst, float(np.corrcoef(sig, rec)[0, 1]))
    assert worst >= 0.95
    report("C2", f"round-trip correlation min {worst:.4f} >= 0.95 (frozen threshold)")


def test_c3_gradient_correctness():
    """Finite differences confirm every layer type and the composite loss."""
    local = np.random.default_rng(77)
    results = {}

    w1 = Tensor(local.normal(0, 0.5, (3, 2, 3)), requires_grad=True)
    b1 = Tensor(local.normal(0, 0.5, 3), requires_grad=True)
    x1 = local.normal(0, 1, (2, 12))
    results["conv1d"] = finite_diff_check(
        lambda: mean(square(conv1d(Tensor(x1), w1, b1, stride=2, padding=1))),
        ParamStore({"w": w1, "b": b1}, 0), 1e-6, 10, 5,
    )

    w2 = Tensor(local.normal(0, 0.5, (2, 1, 3, 4)), requires_grad=True)
    b2 = Tensor(local.normal(0, 0.5, 2), requires_grad=True)
    x2 = local.normal(0, 1, (1, 6, 8))
    results["conv2d"] = finite_diff_check(
        lambda: mean(square(conv2d(Tensor(x2), w2, b2, (2, 2), (1, 1)))),
        ParamStore({"w": w2, "b": b2}, 0), 1e-6, 10, 5,
    )

    p = Tensor(local.normal(0, 1, (4, 6)), requires_grad=True)
    gain = Tensor(1.0 + 0.1 * local.normal(size=4), requires_grad=True)
    bias = Tensor(0.1 * local.normal(size=4), requires_grad=True)
    target = Tensor(local.normal(0, 1, (4, 6)))
    store = ParamStore({"p": p, "gain": gain, "bias": bias}, 0)
    results["residual add"] = finite_diff_check(
        lambda: mean(square(add(p, square(p)))), store, 1e-6, 10, 5)
    results["glu"] = finite_diff_check(
        lambda: mean(square(glu(p))), store, 1e-6, 10, 5)
    results["leaky_relu"] = finite_diff_check(
        lambda: mean(square(leaky_relu(p, 0.2))), store, 1e-6, 10, 5)
    results["instance_norm"] = finite_diff_check(
        lambda: mean(square(sub(instance_norm(p, gain, bias), target))),
        store, 1e-6, 10, 5)
    results["upsample"] = finite_diff_check(
        lambda: mean(square(upsample2(p))), store, 1e-6, 10, 5)

    # Composite generator objective: adversarial + cycle + identity, with
    # gradients probed on the generator parameters it trains.
    g_cfg = generator_config(3, base_channels=4, n_residual=1)
    d_cfg = discriminator_config(3, base_channels=4)
    g_xy, g_yx = init_params(g_cfg, 1), init_params(g_cfg, 2)
    d_x, d_y = init_params(d_cfg, 3), init_params(d_cfg, 4)
    x = local.normal(0, 1, (3, 16))
    y = local.normal(0, 1, (3, 16))
    gen_params = ParamStore(
        {f"gxy.{n}": p for n, p in g_xy} | {f"gyx.{n}": p for n, p in g_yx}, 0
    )

    def composite():
        xt, yt = Tensor(x), Tensor(y)
        fy = forward_generator(g_xy, g_cfg, xt)
        fx = forward_generator(g_yx, g_cfg, yt)
        cx = forward_generator(g_yx, g_cfg, fy)
        cy = forward_generator(g_xy, g_cfg, fx)
        adv = add(
            adversarial_loss(
                None, forward_discriminator(d_y, d_cfg, add_leading_axis(fy)), "generator"
            ),
            adversarial_loss(
                None, forward_discriminator(d_x, d_cfg, add_leading_axis(fx)), "generator"
            ),
        )
        total_loss = add(adv, scale(cycle_loss(xt, cx, yt, cy), 10.0))
        ident = identity_loss(
            xt, forward_generator(g_yx, g_cfg, xt), yt, forward_generator(g_xy, g_cfg, yt)
        )
        return add(total_loss, scale(ident, 5.0))

    results["composite generator loss"] = finite_diff_check(composite, gen_params, 1e-6, 10, 5)

    for name, err in results.items():
        assert err < 1e-5, f"{name}: {err:.3e}"
    worst = max(results.values())
    report("C3", f"all layer types + composite loss, worst rel err {worst:.3e} < 1e-5")


def test_c4_metric_closed_forms():
    rng = np.random.default_rng(0)
    target = rng.normal(0, 1, (24, 10))
    converted = target.copy()
    converted[5, :] += 1.0
    expected = (10.0 / np.log(10.0)) * np.sqrt(2.0)
    assert abs(mcd(converted, target) - expected) < 1e-9

    v = rng.normal(200, 20, 64)
    assert rmse_f0(v + 7.5, v) == pytest.approx(7.5, abs=1e-12)

    x = rng.normal(0, 1, 100)
    assert abs(pcc(2 * x + 3, x) - 1.0) < 1e-12
    assert abs(pcc(-x, x) + 1.0) < 1e-12
    report("C4", "mcd offset = (10/ln10)*sqrt(2) @1e-9; rmse offset exact; pcc affine @1e-12")


def test_c5_lg_baseline_exactness():
    rng = np.random.default_rng(3)

    # Pooled-statistics estimation error scales as 1/sqrt(frames); the
    # corpus is sized so the 2% tolerance has several sigma of headroom.
    def gaussian_utt(seed, mean, std, n=1500):
        r = np.random.default_rng(seed)
        f0 = np.exp(r.normal(mean, std, n))
        f0[r.random(n) < 0.1] = 0.0
        if not (f0 > 0).any():
            f0[0] = np.exp(mean)
        return UtteranceFeatures(
            utterance_id=f"g{seed}",
            emotion_label="X",
            frame_period_ms=5.0,
            mceps=np.zeros((24, n), dtype=np.float32),
            f0_hz=f0.astype(np.float32),
        )

    src_corpus = [gaussian_utt(s, 5.25, 0.20) for s in range(30)]
    tgt_corpus = [gaussian_utt(100 + s, 5.65, 0.15) for s in range(30)]
    src_stats = lg_fit(src_corpus)
    tgt_stats = lg_fit(tgt_corpus)
    held_out = [gaussian_utt(200 + s, 5.25, 0.20) for s in range(8)]
    logs = []
    for utt in held_out:
        out = lg_transform(np.asarray(utt.f0_hz, dtype=np.float64), src_stats, tgt_stats)
        logs.append(np.log(out[out > 0]))
    pooled = np.concatenate(logs)
    rel_mean = abs(pooled.mean() - tgt_stats.mean_log_f0) / abs(tgt_stats.mean_log_f0)
    rel_std = abs(pooled.std() - tgt_stats.std_log_f0) / tgt_stats.std_log_f0
    assert rel_mean < 0.02 and rel_std < 0.02

    # with exact sample stats as the source side, the map is machine-exact
    f0 = np.exp(rng.normal(5.2, 0.3, 500))
    exact_src = LgStats(float(np.log(f0).mean()), float(np.log(f0).std()), f0.size)
    out_log = np.log(lg_transform(f0, exact_src, tgt_stats))
    assert abs(out_log.mean() - tgt_stats.mean_log_f0) < 1e-9
    assert abs(out_log.std() - tgt_stats.std_log_f0) < 1e-9
    report(
        "C5",
        f"pooled log-stats off target by mean {rel_mean:.4%} / std {rel_std:.4%} (< 2%); "
        "exact-stats case < 1e-9",
    )


def _write_config(path, manifest, schedule, weights, n_train, n_eval,
                  base_channels=32, seed=7):
    payload = {
        "manifest": str(manifest),
        "split": {
            "source_emotion": "A",
            "target_emotion": "B",
            "n_train_each": n_train,
            "n_eval": n_eval,
        },
        "network": {"base_channels": base_channels, "n_residual": 4},
        "schedule": schedule,
        "weights": weights,
        "seed": seed,
        "stats_policy": "target",
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.mark.slow
def test_c6_toy_conversion_efficacy(tmp_path):
    """Desk-scale separate-mode run beats identity by 30% and the LG baseline.

    Margins asserted: conversion <= 0.70 * identity and conversion <= LG,
    at corpus/model seeds (42, 7). Reference figures for this recipe:

    - identity 108.1 Hz; LG 18.65 Hz (20.45 and 21.21 Hz at seeds (43, 8)
      and (44, 9));
    - floor 15.6 Hz (15.0 and 16.3 Hz at the other seeds): the RMSE of a
      perfect prosody generator, one that outputs the paired target's own
      wavelet rows, after the target-stats re-normalisation and the source
      voicing this pipeline applies;
    - conversion 17.3 Hz at OMP_NUM_THREADS=1 and 17.1 Hz at 2 BLAS threads.
      Training is bit-reproducible only at a fixed thread count.

    So the LG margin leaves about 3 Hz between the floor and the bound.
    """
    corpus_dir = tmp_path / "corpus"
    manifest = generate_corpus(SynthCorpusSpec(), seed=42, out_dir=corpus_dir)
    config = load_run_config(
        _write_config(
            tmp_path / "run.json",
            manifest,
            schedule={
                "total_iters": 1500,
                "constant_lr_iters": 500,
                "decay_iters": 1000,
                "segment_frames": 128,
                "seed": 7,
            },
            weights={"lambda_cyc": 5.0, "lambda_id": 5.0, "id_cutoff_iters": 500},
            n_train=20,
            n_eval=5,
            seed=7,
        )
    )
    split = pipeline.load_split(config)
    eval_sources = [a for a, _ in split.eval_pairs]
    eval_targets = [b for _, b in split.eval_pairs]

    # the separate-mode system: spectrum + prosody models
    pipeline.train_mode(config, "spectrum-separate", split, tmp_path / "spectrum")
    pipeline.train_mode(config, "prosody-separate", split, tmp_path / "prosody")
    converted = pipeline.convert_directory(
        eval_sources,
        tmp_path / "converted",
        mode="separate",
        stats_policy="target",
        spectrum_ckpt=tmp_path / "spectrum",
        prosody_ckpt=tmp_path / "prosody",
    )
    gan_rmse = evaluate_pairs(converted, eval_targets).mean_rmse

    identity_rmse = float(
        np.mean(
            [
                rmse_f0(interpolate_unvoiced(a.f0_hz)[0], interpolate_unvoiced(b.f0_hz)[0])
                for a, b in split.eval_pairs
            ]
        )
    )
    lg_src, lg_tgt = lg_fit(split.source_set), lg_fit(split.target_set)
    lg_rmse = float(
        np.mean(
            [
                rmse_f0(
                    interpolate_unvoiced(
                        lg_transform(np.asarray(a.f0_hz, dtype=np.float64), lg_src, lg_tgt)
                    )[0],
                    interpolate_unvoiced(b.f0_hz)[0],
                )
                for a, b in split.eval_pairs
            ]
        )
    )

    assert gan_rmse <= 0.70 * identity_rmse, (gan_rmse, identity_rmse)
    assert gan_rmse <= lg_rmse, (gan_rmse, lg_rmse)
    report(
        "C6",
        f"conversion RMSE {gan_rmse:.1f} Hz vs identity {identity_rmse:.1f} Hz "
        f"(ratio {gan_rmse / identity_rmse:.2f} <= 0.70) and LG {lg_rmse:.1f} Hz "
        f"(ordering conversion <= LG holds)",
    )


def test_c7_comparison_harness(tmp_path):
    corpus_dir = tmp_path / "corpus"
    spec = SynthCorpusSpec(n_train_each=4, n_eval=2, frames_min=256, frames_max=320)
    manifest = generate_corpus(spec, seed=11, out_dir=corpus_dir)
    config_path = _write_config(
        tmp_path / "run.json",
        manifest,
        schedule={
            "total_iters": 60,
            "constant_lr_iters": 30,
            "decay_iters": 30,
            "segment_frames": 64,
            "seed": 5,
        },
        weights={"lambda_cyc": 5.0, "lambda_id": 5.0, "id_cutoff_iters": 20},
        n_train=4,
        n_eval=2,
        base_channels=4,
        seed=5,
    )
    out1, out2 = tmp_path / "cmp1", tmp_path / "cmp2"
    assert main(["compare", "--config", str(config_path), "--out", str(out1)]) == 0
    lines = (out1 / "comparison.csv").read_text().strip().splitlines()
    assert lines[0] == "pair,system,mcd_db,rmse_hz,pcc"
    body = [ln.split(",") for ln in lines[1:]]
    systems = sorted({row[1] for row in body})
    assert systems == ["baseline", "joint", "separate"]
    assert len([r for r in body if r[0] == "MEAN"]) == 3
    for row in body:
        for cell in row[2:]:
            assert cell != "FAILED"
            assert np.isfinite(float(cell))
    assert main(["compare", "--config", str(config_path), "--out", str(out2)]) == 0
    assert (out1 / "comparison.csv").read_bytes() == (out2 / "comparison.csv").read_bytes()
    report("C7", "3 systems x metrics populated, finite, byte-identical rerun")


@pytest.mark.slow
def test_c8_schedule_fidelity():
    # Published-scale weights with the iteration budget truncated to 1.2e4,
    # on a micro config so the identity cutoff boundary is observable.
    rng = np.random.default_rng(0)
    xs = [rng.normal(0, 1, (3, 24)) for _ in range(2)]
    ys = [rng.normal(0, 1, (3, 24)) for _ in range(2)]
    model = build_model("prosody-separate", n_scales=3, base_channels=2, n_residual=0, seed=1)
    schedule = TrainSchedule(
        total_iters=12_000,
        constant_lr_iters=12_000,  # truncation keeps the whole run constant-lr
        decay_iters=0,
        segment_frames=16,
        seed=2,
    )
    weights = LossWeights(lambda_cyc=10.0, lambda_id=5.0, id_cutoff_iters=10_000)
    _, log = train(model, xs, ys, weights, schedule)
    id_col = np.array([row[5] for row in log.rows])
    iters = np.array([row[0] for row in log.rows])
    active = id_col > 0.0
    assert active[iters < 10_000].all()
    assert not active[iters >= 10_000].any()

    # linear decay law on a 100-iteration miniature with a scaled schedule
    mini = TrainSchedule(total_iters=100, constant_lr_iters=50, decay_iters=50, lr_g=2e-4)
    for t in (1, 25, 50):
        assert mini.learning_rate(2e-4, t) == 2e-4
    for t in (51, 75, 99, 100):
        expected = 2e-4 * (1.0 - (t - 50) / 50)
        assert mini.learning_rate(2e-4, t) == pytest.approx(expected, abs=1e-20)
    assert mini.learning_rate(2e-4, 100) == 0.0
    report(
        "C8",
        "identity active exactly for iterations < 1e4 of 1.2e4; "
        "linear decay law exact on the scaled miniature",
    )


def test_c9_format_round_trips(tmp_path):
    rng = np.random.default_rng(9)
    utt = UtteranceFeatures(
        utterance_id="fmt",
        emotion_label="A",
        frame_period_ms=5.0,
        mceps=rng.normal(0, 1, (24, 37)).astype(np.float32),
        f0_hz=np.abs(rng.normal(200, 30, 37)).astype(np.float32),
    )
    uff_path = tmp_path / "fmt.uff"
    write_feature_file(utt, uff_path)
    back = read_feature_file(uff_path)
    assert np.array_equal(back.mceps, utt.mceps) and np.array_equal(back.f0_hz, utt.f0_hz)
    second = tmp_path / "fmt2.uff"
    write_feature_file(back, second)
    assert uff_path.read_bytes() == second.read_bytes()

    cfg = generator_config(4, base_channels=4)
    store = init_params(cfg, 5)
    prm_path = tmp_path / "g.prm1"
    save_params(store, prm_path)
    loaded = load_params(prm_path)
    for name in store.names():
        assert np.array_equal(loaded[name].values, store[name].values)
    prm2 = tmp_path / "g2.prm1"
    save_params(loaded, prm2)
    assert prm_path.read_bytes() == prm2.read_bytes()

    coeffs = rng.normal(0, 1, (10, 21))
    csv_path = tmp_path / "s.csv"
    export_scalogram_csv(CwtMatrix(coeffs=coeffs, params=WaveletParams()), csv_path)
    assert np.abs(read_scalogram_csv(csv_path) - coeffs).max() < 1e-9

    utts = [
        UtteranceFeatures(
            utterance_id=f"r{k}",
            emotion_label="A",
            frame_period_ms=5.0,
            mceps=rng.normal(0, 1, (24, 20)).astype(np.float32),
            f0_hz=np.abs(rng.normal(200, 20, 20)).astype(np.float32) + 1.0,
        )
        for k in range(3)
    ]
    others = [
        UtteranceFeatures(
            utterance_id=f"r{k}",
            emotion_label="B",
            frame_period_ms=5.0,
            mceps=rng.normal(0, 1, (24, 20)).astype(np.float32),
            f0_hz=np.abs(rng.normal(230, 20, 20)).astype(np.float32) + 1.0,
        )
        for k in range(3)
    ]
    rep = evaluate_pairs(utts, others)
    rep_path = tmp_path / "rep.csv"
    write_report_csv(rep, rep_path)
    back_rep = read_report_csv(rep_path)
    for a, b in zip(rep.rows, back_rep.rows):
        assert abs(a.mcd_db - b.mcd_db) < 1e-9
        assert abs(a.rmse_hz - b.rmse_hz) < 1e-9
        assert abs(a.pcc - b.pcc) < 1e-9
    report("C9", "UFF and PRM1 bitwise; scalogram and report CSV reload within 1e-9")
