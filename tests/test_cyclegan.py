import importlib
import json
import shutil
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from prosodia.errors import FormatError, NumericError, ValidationError
from prosodia.cyclegan import (
    CorpusStats,
    LossWeights,
    TrainSchedule,
    adversarial_loss,
    build_model,
    convert_utterance,
    cycle_loss,
    identity_loss,
    load_model_checkpoint,
    save_model_checkpoint,
    train,
)
from prosodia.cyclegan.losses import DISCRIMINATOR_SIDE, GENERATOR_SIDE
from prosodia.cyclegan.model import MODE_JOINT, MODE_PROSODY, MODE_SPECTRUM, FeatureStats
from prosodia.cyclegan.train import LossLog, _sample_segment
from prosodia.features import UtteranceFeatures, write_feature_file
from prosodia.nn import (
    AdamState,
    Tensor,
    adam_step,
    backward,
    forward_discriminator,
    forward_generator,
    load_params,
    save_params,
)
from prosodia.nn.network import ParamStore
from prosodia.nn.tensor import add, add_leading_axis, scale
from prosodia.prosody import NormStats, WaveletParams

rng = np.random.default_rng(7)
FIXTURE_CHECKPOINT = Path(__file__).parent / "fixtures" / "checkpoint"


class TestAdversarialLoss:
    def test_perfect_discriminator_zero_loss(self):
        real = Tensor(np.ones((1, 2, 4)))
        fake = Tensor(np.zeros((1, 2, 4)))
        assert adversarial_loss(real, fake, "discriminator").item() == 0.0

    def test_fooled_discriminator_zero_generator_loss(self):
        fake = Tensor(np.ones((1, 2, 4)))
        assert adversarial_loss(None, fake, "generator").item() == 0.0

    def test_half_scores_give_half_loss(self):
        real = Tensor(np.full((1, 2, 4), 0.5))
        fake = Tensor(np.full((1, 2, 4), 0.5))
        assert adversarial_loss(real, fake, "discriminator").item() == pytest.approx(0.5)

    def test_unknown_side_rejected(self):
        t = Tensor(np.ones(3))
        with pytest.raises(ValidationError):
            adversarial_loss(t, t, "critic")


class TestCycleAndIdentityLosses:
    def test_identity_generators_zero(self):
        x = Tensor(rng.normal(0, 1, (4, 8)))
        y = Tensor(rng.normal(0, 1, (4, 8)))
        assert cycle_loss(x, x, y, y).item() == 0.0
        assert identity_loss(x, x, y, y).item() == 0.0

    def test_unit_offset_gives_unit_loss(self):
        x = Tensor(rng.normal(0, 1, (4, 8)))
        y = Tensor(rng.normal(0, 1, (4, 8)))
        x_off = Tensor(x.values + 1.0)
        assert cycle_loss(x, x_off, y, y).item() == pytest.approx(1.0)
        assert identity_loss(x, x_off, y, y).item() == pytest.approx(1.0)

    def test_nonnegative(self):
        for _ in range(5):
            x = Tensor(rng.normal(0, 1, (3, 6)))
            xc = Tensor(rng.normal(0, 1, (3, 6)))
            y = Tensor(rng.normal(0, 1, (3, 6)))
            yc = Tensor(rng.normal(0, 1, (3, 6)))
            assert cycle_loss(x, xc, y, yc).item() >= 0.0

    def test_shape_mismatch_rejected(self):
        x = Tensor(np.zeros((3, 6)))
        bad = Tensor(np.zeros((3, 7)))
        with pytest.raises(ValidationError):
            cycle_loss(x, bad, x, x)


class TestSchedule:
    def test_learning_rate_law(self):
        sched = TrainSchedule(total_iters=100, constant_lr_iters=60, decay_iters=40, lr_g=1e-3)
        for t in (1, 30, 60):
            assert sched.learning_rate(1e-3, t) == 1e-3
        for t in (61, 80, 99, 100):
            expected = 1e-3 * (1.0 - (t - 60) / 40)
            assert sched.learning_rate(1e-3, t) == pytest.approx(expected, abs=1e-18)
        assert sched.learning_rate(1e-3, 100) == 0.0

    def test_inconsistent_totals_rejected(self):
        with pytest.raises(ValidationError):
            TrainSchedule(total_iters=10, constant_lr_iters=6, decay_iters=5)

    def test_weights_validation(self):
        with pytest.raises(ValidationError):
            LossWeights(lambda_cyc=-1.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["lr_g", "lr_d"])
    def test_non_finite_learning_rates_rejected(self, name, lr):
        with pytest.raises(ValidationError, match="learning rates"):
            TrainSchedule(total_iters=2, constant_lr_iters=1, decay_iters=1, **{name: lr})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["lambda_cyc", "lambda_id"])
    def test_non_finite_weights_rejected(self, name, value):
        with pytest.raises(ValidationError, match="loss weights"):
            LossWeights(**{name: value})


def tiny_feature_sets(channels, n_utts=2, frames=48, seed=0):
    r = np.random.default_rng(seed)
    return [r.normal(0, 1, (channels, frames)) for _ in range(n_utts)]


def tiny_model(mode="prosody-separate", seed=0):
    return build_model(mode, base_channels=2, n_residual=1, seed=seed)


def tiny_schedule(total=12, seed=0, segment=16):
    return TrainSchedule(
        total_iters=total,
        constant_lr_iters=total // 2,
        decay_iters=total - total // 2,
        segment_frames=segment,
        seed=seed,
    )


class TestTraining:
    def test_loss_log_bookkeeping(self):
        model = tiny_model()
        xs, ys = tiny_feature_sets(10, seed=1), tiny_feature_sets(10, seed=2)
        _, log = train(model, xs, ys, LossWeights(), tiny_schedule(total=12))
        assert len(log.rows) == 12
        arr = np.asarray(log.rows)
        assert np.isfinite(arr).all()
        assert arr[0, 0] == 1 and arr[-1, 0] == 12

    def test_identity_cutoff_reflected_in_log(self):
        model = tiny_model(seed=3)
        xs, ys = tiny_feature_sets(10, seed=1), tiny_feature_sets(10, seed=2)
        weights = LossWeights(lambda_cyc=10, lambda_id=5, id_cutoff_iters=5)
        _, log = train(model, xs, ys, weights, tiny_schedule(total=10))
        id_col = [row[5] for row in log.rows]
        assert all(v > 0 for v in id_col[:4])
        assert all(v == 0.0 for v in id_col[4:])

    def test_deterministic_given_seed(self):
        def run():
            model = tiny_model(seed=4)
            xs, ys = tiny_feature_sets(10, seed=5), tiny_feature_sets(10, seed=6)
            model, log = train(model, xs, ys, LossWeights(), tiny_schedule(total=8, seed=9))
            return log, model.g_xy["in.w"].values.copy()

        log1, w1 = run()
        log2, w2 = run()
        assert log1.rows == log2.rows
        assert np.array_equal(w1, w2)

    @pytest.mark.parametrize("id_cutoff, forwards", [(100, 6), (0, 4)])
    def test_generator_forwards_per_iteration(self, monkeypatch, id_cutoff, forwards):
        module = importlib.import_module("prosodia.cyclegan.train")
        real = module.forward_generator
        calls = []

        def counting(*args):
            # One generator pass per slice: a stacked call runs several.
            calls.extend([args] * int(np.prod(args[2].shape[:-2])))
            return real(*args)

        monkeypatch.setattr(module, "forward_generator", counting)
        xs, ys = tiny_feature_sets(10, seed=1), tiny_feature_sets(10, seed=2)
        weights = LossWeights(id_cutoff_iters=id_cutoff)
        train(tiny_model(seed=12), xs, ys, weights, tiny_schedule(total=3))
        assert len(calls) == 3 * forwards

    @pytest.mark.parametrize("id_cutoff, generator_calls", [(100, 3), (0, 2)])
    def test_stacked_calls_per_iteration(self, monkeypatch, id_cutoff, generator_calls):
        module = importlib.import_module("prosodia.cyclegan.train")
        calls = {"forward_generator": 0, "forward_discriminator": 0}
        for name in calls:
            def counting(*args, real=getattr(module, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        xs, ys = tiny_feature_sets(10, seed=1), tiny_feature_sets(10, seed=2)
        weights = LossWeights(id_cutoff_iters=id_cutoff)
        train(tiny_model(seed=12), xs, ys, weights, tiny_schedule(total=3))
        assert calls == {
            "forward_generator": 3 * generator_calls, "forward_discriminator": 3 * 2
        }

    def test_gradient_buffers_live_until_both_adam_steps_of_their_pair(self, monkeypatch):
        """Each pair's gradients land in one [2, N] buffer that dies with the pair's updates.

        The calls come as (d_x, d_y) then (g_xy, g_yx) in every iteration;
        the frozen discriminators get no gradient in the G-step.
        """
        module = importlib.import_module("prosodia.cyclegan.train")
        model = tiny_model(seed=17)
        d_leaves = [p for store in (model.d_x, model.d_y) for _, p in store]
        buffers = []

        def recording(store, state, lr, real=module.adam_step):
            g_step = len(buffers) % 4 >= 2
            assert all(p.grad is None for p in d_leaves) == g_step
            buffer = next(iter(store.params.values())).grad.base
            assert buffer.shape == (2, store.n_values())
            assert all(p.grad.base is buffer for _, p in store)
            buffers.append(weakref.ref(buffer))
            del buffer
            real(store, state, lr)
            first_of_pair = len(buffers) % 2 == 1
            assert (buffers[-1]() is not None) == first_of_pair

        monkeypatch.setattr(module, "adam_step", recording)
        xs, ys = tiny_feature_sets(10, seed=1), tiny_feature_sets(10, seed=2)
        train(model, xs, ys, LossWeights(id_cutoff_iters=2), tiny_schedule(total=3))
        assert len(buffers) == 12
        assert all(ref() is None for ref in buffers)

    def test_discriminators_stay_trainable_and_take_no_generator_gradient(self, monkeypatch):
        """The G-step freezes the discriminators without touching their leaves.

        Every discriminator leaf keeps ``requires_grad`` through every call,
        and when the generators update, no discriminator leaf holds a
        gradient and the discriminators' gradient buffer does not exist.
        """
        module = importlib.import_module("prosodia.cyclegan.train")
        model = tiny_model(seed=18)
        d_leaves = [p for store in (model.d_x, model.d_y) for _, p in store]
        stores = []

        def recording(store, state, lr, real=module.adam_step):
            assert all(p.requires_grad for p in d_leaves)
            if store in (model.g_xy, model.g_yx):
                assert all(p.grad is None for p in d_leaves)
                arena = model.d_x.slot()[0]
                assert arena._grad is None or arena._grad() is None
            stores.append(store)
            real(store, state, lr)

        def scoring(*args, real=module.forward_discriminator):
            assert all(p.requires_grad for p in d_leaves)
            return real(*args)

        monkeypatch.setattr(module, "adam_step", recording)
        monkeypatch.setattr(module, "forward_discriminator", scoring)
        xs, ys = tiny_feature_sets(10, seed=1), tiny_feature_sets(10, seed=2)
        train(model, xs, ys, LossWeights(id_cutoff_iters=2), tiny_schedule(total=3))
        assert stores == [model.d_x, model.d_y, model.g_xy, model.g_yx] * 3
        assert all(p.requires_grad for p in d_leaves)

    def test_matches_one_call_per_direction_bitwise(self):
        """Stacked calls give the loss log and parameters of the unstacked loop.

        The reference below runs every generator and discriminator on its own,
        as train() did before it stacked them, with the identity loss on for
        the first half of the iterations.
        """
        def run(train_fn):
            model = tiny_model(seed=13)
            xs, ys = tiny_feature_sets(10, seed=14), tiny_feature_sets(10, seed=15)
            weights = LossWeights(lambda_cyc=10, lambda_id=5, id_cutoff_iters=4)
            _, log = train_fn(model, xs, ys, weights, tiny_schedule(total=8, seed=16))
            return log.rows, {key: {name: p.values.tobytes() for name, p in store}
                              for key, store in model.stores().items()}

        assert run(train) == run(_train_one_call_per_direction)

    def test_frozen_discriminators_leave_generator_gradients_unchanged(self):
        def g_step_gradients(freeze):
            model = tiny_model(seed=10)
            r = np.random.default_rng(11)
            x, y = Tensor(r.normal(0, 1, (10, 16))), Tensor(r.normal(0, 1, (10, 16)))
            for store in (model.d_x, model.d_y):
                for _, p in store:
                    p.requires_grad = not freeze
            gen, disc = model.gen_config, model.disc_config
            fake_y = forward_generator(model.g_xy, gen, x)
            fake_x = forward_generator(model.g_yx, gen, y)
            adv = add(
                adversarial_loss(
                    None, forward_discriminator(model.d_y, disc, add_leading_axis(fake_y)),
                    GENERATOR_SIDE,
                ),
                adversarial_loss(
                    None, forward_discriminator(model.d_x, disc, add_leading_axis(fake_x)),
                    GENERATOR_SIDE,
                ),
            )
            cyc = cycle_loss(
                x, forward_generator(model.g_yx, gen, fake_y),
                y, forward_generator(model.g_xy, gen, fake_x),
            )
            backward(add(adv, cyc))
            return model

        frozen, trainable = g_step_gradients(True), g_step_gradients(False)
        for key in ("g_xy", "g_yx"):
            for name, p in frozen.stores()[key]:
                assert np.array_equal(p.grad, trainable.stores()[key][name].grad), name
        for key in ("d_x", "d_y"):
            assert all(p.grad is None for _, p in frozen.stores()[key])
            assert all(p.grad is not None for _, p in trainable.stores()[key])

    def test_sampled_segments_standardize_bitwise(self):
        # train() standardizes each segment as it samples it; that must give
        # the segment a standardized set gives, with the same RNG draws.
        local = np.random.default_rng(21)
        short, exact = local.normal(2, 3, (5, 9)), local.normal(2, 3, (5, 16))
        mixed = [local.normal(2, 3, (5, n)) for n in (40, 64)] + [short, exact]
        for sets in ([short], mixed):
            stats = FeatureStats.fit(sets, sets)
            standardized = [stats.standardize(f, "x") for f in sets]
            before, after = np.random.default_rng(3), np.random.default_rng(3)
            for _ in range(40):
                a = _sample_segment(standardized, before, 16)
                b = stats.standardize(_sample_segment(sets, after, 16), "x")
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert before.bit_generator.state == after.bit_generator.state

    def test_fit_matches_pooled_statistics_bitwise(self):
        # fit() computes the deviations in place; mean and std must keep the
        # bits of ndarray.mean and ndarray.std on the pooled array, past
        # numpy's 8192-element buffer too, and float32 inputs widen the same way.
        local = np.random.default_rng(22)
        sets = [local.normal(3, 7, (6, n)) for n in (1, 9, 833, 1088, 5000, 4100)]
        for dtype in (np.float64, np.float32):
            typed = [f.astype(dtype) for f in sets]
            stats = FeatureStats.fit(typed, typed[:2])
            pooled = np.concatenate([f.astype(np.float64) for f in typed], axis=1)
            assert stats.x_mean.tobytes() == pooled.mean(axis=1).tobytes()
            assert stats.x_std.tobytes() == pooled.std(axis=1).tobytes()

    def test_dimension_mismatch_rejected(self):
        model = tiny_model()
        with pytest.raises(ValidationError):
            train(model, tiny_feature_sets(24), tiny_feature_sets(10),
                  LossWeights(), tiny_schedule())

    def test_empty_sets_rejected(self):
        model = tiny_model()
        with pytest.raises(ValidationError):
            train(model, [], tiny_feature_sets(10), LossWeights(), tiny_schedule())

    def test_float32_feature_sets_train_as_their_float64_values(self, tmp_path):
        """float32 and float64 inputs train alike: same loss log and stores, bit for bit."""
        xs = [f.astype(np.float32) for f in tiny_feature_sets(10, seed=1)]
        ys = [f.astype(np.float32) for f in tiny_feature_sets(10, seed=2)]
        written = []
        for dtype in (np.float32, np.float64):
            model, log = train(
                tiny_model(seed=14), [f.astype(dtype) for f in xs], [f.astype(dtype) for f in ys],
                LossWeights(id_cutoff_iters=3), tiny_schedule(total=6),
            )
            out = tmp_path / np.dtype(dtype).name
            out.mkdir()
            log.to_csv(out / "losslog.csv")
            for key, store in model.stores().items():
                assert all(p.values.dtype == np.float32 for _, p in store)
                save_params(store, out / f"{key}.prm1")
            written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert written[0] == written[1]

    def test_trains_in_float32_from_a_float64_checkpoint(self, monkeypatch, tmp_path):
        """A float64 checkpoint trains in float32, and its trained stores save exactly.

        Every store value, Adam moment and loss is float32; PRM1's float64
        payload holds each float32 value unchanged.
        """
        module = importlib.import_module("prosodia.cyclegan.train")
        dtypes = set()

        def recording_step(store, state, lr, real=module.adam_step):
            dtypes.update((state.m.dtype, state.v.dtype))
            real(store, state, lr)

        def recording_backward(loss, real=module.backward):
            dtypes.add(loss.values.dtype)
            real(loss)

        monkeypatch.setattr(module, "adam_step", recording_step)
        monkeypatch.setattr(module, "backward", recording_backward)
        model = load_model_checkpoint(FIXTURE_CHECKPOINT).model
        assert {p.values.dtype for store in model.stores().values() for _, p in store} == {
            np.dtype(np.float64)
        }
        xs, ys = tiny_feature_sets(10, seed=1), tiny_feature_sets(10, seed=2)
        model, log = train(model, xs, ys, LossWeights(id_cutoff_iters=2), tiny_schedule(total=4))
        assert dtypes == {np.dtype(np.float32)}
        assert np.isfinite(np.asarray(log.rows)).all()
        for key, store in model.stores().items():
            assert all(p.values.dtype == np.float32 for _, p in store)
            save_params(store, tmp_path / f"{key}.prm1")
            back = load_params(tmp_path / f"{key}.prm1")
            for name, p in store:
                assert np.array_equal(back[name].values, p.values), (key, name)

    def test_loss_log_csv_roundtrip(self, tmp_path):
        model = tiny_model(seed=11)
        xs, ys = tiny_feature_sets(10, seed=1), tiny_feature_sets(10, seed=2)
        _, log = train(model, xs, ys, LossWeights(), tiny_schedule(total=6))
        path = tmp_path / "losslog.csv"
        log.to_csv(path)
        assert path.read_text().splitlines()[0] == "iter,lr,adv_g,adv_d,cyc,id"
        back = LossLog.from_csv(path)
        np.testing.assert_allclose(np.asarray(back.rows), np.asarray(log.rows), rtol=1e-10)


def _train_one_call_per_direction(model, source_set, target_set, weights, schedule):
    """The training loop with one network call per direction and sample, in float32."""
    xs = [np.asarray(f, dtype=np.float64) for f in source_set]
    ys = [np.asarray(f, dtype=np.float64) for f in target_set]
    stats = model.feature_stats = FeatureStats.fit(xs, ys)
    r = np.random.default_rng(schedule.seed)
    for store in model.stores().values():
        for _, p in store:
            p.values = p.values.astype(np.float32)
    opt = {key: AdamState.for_params(store) for key, store in model.stores().items()}
    gen, disc = model.gen_config, model.disc_config
    d_params = [p for store in (model.d_x, model.d_y) for _, p in store]

    def d_scores(store, feature_map):
        t = feature_map if isinstance(feature_map, Tensor) else Tensor(feature_map[None])
        return forward_discriminator(store, disc, t)

    rows = []
    for t in range(1, schedule.total_iters + 1):
        x_seg = stats.standardize(_sample_segment(xs, r, schedule.segment_frames), "x")
        y_seg = stats.standardize(_sample_segment(ys, r, schedule.segment_frames), "y")
        x_seg, y_seg = x_seg.astype(np.float32), y_seg.astype(np.float32)
        lr_g = schedule.learning_rate(schedule.lr_g, t)
        lr_d = schedule.learning_rate(schedule.lr_d, t)
        x_t, y_t = Tensor(x_seg), Tensor(y_seg)
        fake_y = forward_generator(model.g_xy, gen, x_t)
        fake_x = forward_generator(model.g_yx, gen, y_t)
        d_loss = add(
            adversarial_loss(d_scores(model.d_y, y_seg), d_scores(model.d_y, fake_y.values),
                             DISCRIMINATOR_SIDE),
            adversarial_loss(d_scores(model.d_x, x_seg), d_scores(model.d_x, fake_x.values),
                             DISCRIMINATOR_SIDE),
        )
        backward(d_loss)
        adam_step(model.d_x, opt["d_x"], lr_d)
        adam_step(model.d_y, opt["d_y"], lr_d)
        for p in d_params:
            p.requires_grad = False
        cycled_x = forward_generator(model.g_yx, gen, fake_y)
        cycled_y = forward_generator(model.g_xy, gen, fake_x)
        adv_g = add(
            adversarial_loss(None, d_scores(model.d_y, add_leading_axis(fake_y)), GENERATOR_SIDE),
            adversarial_loss(None, d_scores(model.d_x, add_leading_axis(fake_x)), GENERATOR_SIDE),
        )
        cyc = cycle_loss(x_t, cycled_x, y_t, cycled_y)
        g_loss = add(adv_g, scale(cyc, weights.lambda_cyc))
        id_value = 0.0
        if t < weights.id_cutoff_iters:
            ident = identity_loss(x_t, forward_generator(model.g_yx, gen, x_t),
                                  y_t, forward_generator(model.g_xy, gen, y_t))
            g_loss = add(g_loss, scale(ident, weights.lambda_id))
            id_value = ident.item()
        backward(g_loss)
        adam_step(model.g_xy, opt["g_xy"], lr_g)
        adam_step(model.g_yx, opt["g_yx"], lr_g)
        for p in d_params:
            p.requires_grad = True
        rows.append((t, lr_g, adv_g.item(), d_loss.item(), cyc.item(), id_value))
    return model, LossLog(rows=rows)


def smooth_signals(r, channels, frames, count):
    """Rank-one smooth feature maps: channels are scaled copies of one latent."""
    t = np.arange(frames)
    weights = np.linspace(1.0, 0.2, channels)
    out = []
    for _ in range(count):
        z = np.zeros(frames)
        for period in (16.0, 24.0, 40.0):
            z += r.uniform(0.5, 1.0) * np.cos(2 * np.pi * t / period + r.uniform(0, 2 * np.pi))
        out.append(np.outer(weights, z))
    return out


class TestToyAffineEfficacy:
    def test_cycle_loss_decreases_on_learnable_task(self):
        # Ratio frozen from pre-build runs: on a smooth low-rank source
        # distribution whose target is an elementwise affine copy, this
        # config reached a late/early cycle-loss ratio of 0.284; asserted
        # at 0.5 for headroom.
        r = np.random.default_rng(42)
        xs = smooth_signals(r, 10, 64, 3)
        ys = [2.0 * f + 0.5 for f in smooth_signals(r, 10, 64, 3)]
        model = build_model("prosody-separate", base_channels=16, n_residual=2, seed=1)
        sched = TrainSchedule(
            total_iters=500, constant_lr_iters=250, decay_iters=250,
            segment_frames=32, seed=3,
        )
        _, log = train(model, xs, ys, LossWeights(id_cutoff_iters=125), sched)
        early = np.mean([row[4] for row in log.rows[5:15]])
        late = np.mean([row[4] for row in log.rows[-10:]])
        assert late < 0.5 * early


class TestConvertFeatures:
    def test_shape_contract_and_input_untouched(self):
        model = tiny_model(seed=2)
        feats = rng.normal(0, 1, (10, 37))
        copy = feats.copy()
        out = model.convert(feats)
        assert out.shape == (10, 37)
        np.testing.assert_array_equal(feats, copy)

    def test_single_frame_input(self):
        model = tiny_model(seed=2)
        out = model.convert(rng.normal(0, 1, (10, 1)))
        assert out.shape == (10, 1)

    def test_channel_mismatch_rejected(self):
        model = tiny_model()
        with pytest.raises(ValidationError):
            model.convert(np.zeros((24, 8)))

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError, match="at least one frame"):
            tiny_model().convert(np.zeros((10, 0)))

    @pytest.mark.parametrize("source", ["fixture", "trained"])
    def test_float32_generator_matches_float64_reference(self, source):
        """The float32 generator stays within 1e-4 of each output row's std of float64."""
        if source == "fixture":
            model = load_model_checkpoint(FIXTURE_CHECKPOINT).model
        else:
            xs, ys = tiny_feature_sets(10, seed=1), tiny_feature_sets(10, seed=2)
            model, _ = train(tiny_model(seed=15), xs, ys, LossWeights(), tiny_schedule(total=4))
        standard = np.random.default_rng(16).normal(0, 1, (10, 998))
        stats = model.feature_stats
        feats = standard * stats.x_std[:, None] + stats.x_mean[:, None]
        out = model.convert(feats)
        reference = _reference_convert(model, feats)
        assert out.dtype == np.float64
        assert (np.abs(out - reference).max(axis=1) <= 1e-4 * reference.std(axis=1)).all()
        assert model.convert(feats).tobytes() == out.tobytes()


def _reference_convert(model, feats):
    """What ``CycleGanModel.convert`` computes, with the generator run in float64."""
    n = feats.shape[1]
    padded = np.pad(
        model.feature_stats.standardize(feats, "x"), ((0, 0), (0, -n % 4)), mode="symmetric"
    )
    out = forward_generator(model.g_xy, model.gen_config, Tensor(padded)).values[:, :n]
    return model.feature_stats.destandardize(out)


class _IdentityModel:
    """Stand-in with the conversion interface of a trained model."""

    mode = "prosody-separate"

    def convert(self, features):
        return np.asarray(features, dtype=np.float64).copy()


class _IdentitySpectrumModel(_IdentityModel):
    mode = "spectrum-separate"


def synthetic_utterance(seed=0, n=512):
    r = np.random.default_rng(seed)
    t = np.arange(n)
    contour = np.zeros(n)
    for period in (64.0, 76.0, 90.0):
        contour += np.cos(2 * np.pi * t / period + r.uniform(0, 2 * np.pi))
    contour = (contour - contour.mean()) / contour.std()
    f0 = np.exp(5.3 + 0.2 * contour)
    mask = np.ones(n, dtype=bool)
    mask[100:110] = False
    mask[300:307] = False
    f0 = np.where(mask, f0, 0.0)
    return UtteranceFeatures(
        utterance_id=f"s{seed}",
        emotion_label="A",
        frame_period_ms=5.0,
        mceps=r.normal(0, 1, (24, n)).astype(np.float32),
        f0_hz=f0.astype(np.float32),
    )


class TestConvertUtterance:
    def test_identity_models_preserve_contour_shape(self):
        # With pass-through generators the only distortion is the wavelet
        # round trip; correlation threshold frozen from the transform
        # calibration (>= 0.90 on voiced frames).
        utt = synthetic_utterance(seed=1)
        contour = np.log(utt.f0_hz[utt.f0_hz > 0])
        stats = NormStats(mean=float(contour.mean()), std=float(contour.std()))
        out = convert_utterance(
            utt,
            (_IdentitySpectrumModel(), _IdentityModel()),
            target_stats=stats,
            wavelet=WaveletParams(),
            stats_policy="source",
            emotion_label="B",
        )
        assert out.n_frames == utt.n_frames
        assert out.frame_period_ms == utt.frame_period_ms
        assert out.emotion_label == "B"
        voiced = utt.voicing_mask
        corr = np.corrcoef(
            np.log(out.f0_hz[voiced].astype(np.float64)),
            np.log(utt.f0_hz[voiced].astype(np.float64)),
        )[0, 1]
        assert corr >= 0.90
        np.testing.assert_allclose(out.mceps, utt.mceps, atol=1e-6)

    def test_voicing_mask_reapplied(self):
        utt = synthetic_utterance(seed=2)
        stats = NormStats(mean=5.5, std=0.2)
        out = convert_utterance(
            utt,
            (_IdentitySpectrumModel(), _IdentityModel()),
            target_stats=stats,
            wavelet=WaveletParams(),
            stats_policy="target",
            emotion_label="B",
        )
        np.testing.assert_array_equal(out.f0_hz == 0.0, utt.f0_hz == 0.0)

    def test_joint_model_stacks_and_unstacks(self):
        class JointProbe(_IdentityModel):
            mode = "joint"
            seen = None

            def convert(self, features):
                JointProbe.seen = np.asarray(features).shape
                return np.asarray(features, dtype=np.float64).copy()

        utt = synthetic_utterance(seed=3)
        stats = NormStats(mean=5.5, std=0.2)
        out = convert_utterance(utt, (JointProbe(),), target_stats=stats, wavelet=WaveletParams(),
                                stats_policy="target", emotion_label="B")
        assert JointProbe.seen == (34, utt.n_frames)
        assert out.mceps.shape == (24, utt.n_frames)

    def test_model_combination_validated(self):
        utt = synthetic_utterance(seed=4)
        stats = NormStats(mean=5.5, std=0.2)
        keywords = dict(target_stats=stats, wavelet=WaveletParams(), stats_policy="target",
                        emotion_label="B")
        with pytest.raises(ValidationError):
            convert_utterance(utt, (_IdentityModel(),), **keywords)
        with pytest.raises(ValidationError):
            # the wavelet rows twice, the MCEPs not at all
            convert_utterance(utt, (_IdentityModel(), _IdentityModel()), **keywords)

    def test_stats_policy_target_imposes_target_register(self):
        utt = synthetic_utterance(seed=5)
        stats = NormStats(mean=np.log(300.0), std=0.1)
        out = convert_utterance(
            utt,
            (_IdentitySpectrumModel(), _IdentityModel()),
            target_stats=stats,
            wavelet=WaveletParams(),
            stats_policy="target",
            emotion_label="B",
        )
        voiced_log = np.log(out.f0_hz[out.f0_hz > 0].astype(np.float64))
        assert abs(voiced_log.mean() - np.log(300.0)) < 0.05

    @pytest.mark.parametrize(
        "modes",
        [(MODE_JOINT, MODE_SPECTRUM), (MODE_PROSODY, MODE_PROSODY), (MODE_SPECTRUM,)],
        ids=["joint_and_spectrum", "prosody_twice", "spectrum_alone"],
    )
    def test_models_that_do_not_map_each_block_once_are_rejected_first(self, modes):
        calls = []

        class Probe(_IdentityModel):
            def __init__(self, mode):
                self.mode = mode

            def convert(self, features):
                calls.append(self.mode)
                return super().convert(features)

        stats = NormStats(mean=5.5, std=0.2)
        with pytest.raises(ValidationError, match="once each"):
            convert_utterance(synthetic_utterance(seed=6), [Probe(m) for m in modes],
                              target_stats=stats, wavelet=WaveletParams(),
                              stats_policy="target", emotion_label="B")
        assert calls == []

    def test_separate_models_in_either_order_write_the_same_uff(self, tmp_path):
        prosody = load_model_checkpoint(FIXTURE_CHECKPOINT)
        spectrum = build_model(MODE_SPECTRUM, base_channels=2, n_residual=1, seed=3)
        utt = synthetic_utterance(seed=7)
        blobs = []
        for i, models in enumerate([(spectrum, prosody.model), (prosody.model, spectrum)]):
            out = convert_utterance(
                utt, models, target_stats=prosody.stats.target_log_f0, wavelet=prosody.wavelet,
                stats_policy="target", emotion_label=prosody.stats.target_emotion,
            )
            write_feature_file(out, tmp_path / f"{i}.uff")
            blobs.append((tmp_path / f"{i}.uff").read_bytes())
        assert blobs[0] == blobs[1]


class TestCheckpointDirectory:
    def test_save_load_roundtrip(self, tmp_path):
        model = tiny_model(seed=6)
        xs, ys = tiny_feature_sets(10, seed=1), tiny_feature_sets(10, seed=2)
        model, _ = train(model, xs, ys, LossWeights(), tiny_schedule(total=4))
        weights = LossWeights()
        sched = tiny_schedule(total=4)
        stats = CorpusStats(
            source_emotion="A",
            target_emotion="B",
            source_log_f0=NormStats(5.2, 0.2),
            target_log_f0=NormStats(5.6, 0.25),
        )
        save_model_checkpoint(tmp_path, model, weights, sched, stats, WaveletParams())
        for fname in ("g_xy.prm1", "g_yx.prm1", "d_x.prm1", "d_y.prm1", "metadata.json"):
            assert (tmp_path / fname).exists()
        loaded = load_model_checkpoint(tmp_path)
        assert loaded.model.mode == model.mode
        assert loaded.stats.target_emotion == "B"
        for name in model.g_xy.names():
            np.testing.assert_array_equal(
                loaded.model.g_xy[name].values, model.g_xy[name].values
            )
        feats = rng.normal(0, 1, (10, 20))
        np.testing.assert_allclose(
            loaded.model.convert(feats), model.convert(feats),
            atol=1e-12,
        )

    def test_missing_store_rejected(self, tmp_path):
        model = tiny_model(seed=6)
        stats = CorpusStats("A", "B", NormStats(5.2, 0.2), NormStats(5.6, 0.25))
        save_model_checkpoint(
            tmp_path, model, LossWeights(), tiny_schedule(total=4), stats, WaveletParams()
        )
        (tmp_path / "d_y.prm1").unlink()
        with pytest.raises(ValidationError, match="d_y"):
            load_model_checkpoint(tmp_path)

    def _saved(self, tmp_path):
        model = tiny_model(seed=6)
        stats = CorpusStats("A", "B", NormStats(5.2, 0.2), NormStats(5.6, 0.25))
        save_model_checkpoint(
            tmp_path, model, LossWeights(), tiny_schedule(total=4), stats, WaveletParams()
        )
        return tmp_path / "metadata.json"

    @pytest.mark.parametrize(
        "key", ["mode", "seed", "gen_config", "disc_config", "weights", "schedule", "stats",
                "wavelet"],
    )
    def test_missing_metadata_key_is_format_error(self, tmp_path, key):
        meta = self._saved(tmp_path)
        metadata = json.loads(meta.read_text())
        del metadata[key]
        meta.write_text(json.dumps(metadata))
        with pytest.raises(FormatError, match=repr(key)):
            load_model_checkpoint(tmp_path)

    def test_metadata_array_is_format_error(self, tmp_path):
        self._saved(tmp_path).write_text("[1, 2]")
        with pytest.raises(FormatError, match="JSON object"):
            load_model_checkpoint(tmp_path)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("wavelet", "tau0", -1.0),
            ("stats", "target_log_f0", {"mean": 5.6, "std": 0.0}),
            ("gen_config", "kernel_sizes", [15, 5, 3, 5]),
            ("disc_config", "kernel_sizes", [[3, 4]] * 3),
            ("disc_config", "kernel_sizes", [[3]] * 4),
            ("disc_config", "kernel_sizes", [[0, 0]] * 4),
        ],
        ids=["tau0", "target_std", "gen_kernels", "disc_3_kernels", "disc_1d_kernels",
             "disc_zero_kernels"],
    )
    def test_value_the_dataclass_rejects_is_format_error(self, tmp_path, section, key, value):
        # Each once escaped as a ValidationError naming no file.
        meta = self._saved(tmp_path)
        metadata = json.loads(meta.read_text())
        metadata[section][key] = value
        meta.write_text(json.dumps(metadata))
        with pytest.raises(FormatError, match="metadata.json"):
            load_model_checkpoint(tmp_path)

    def test_generator_store_must_match_gen_config(self, tmp_path):
        meta = self._saved(tmp_path)
        metadata = json.loads(meta.read_text())
        metadata["gen_config"]["base_channels"] = 4  # the stores hold base_channels 2
        meta.write_text(json.dumps(metadata))
        with pytest.raises(FormatError, match="gen_config"):
            load_model_checkpoint(tmp_path)

    def test_generator_store_missing_a_parameter_is_format_error(self, tmp_path):
        self._saved(tmp_path)
        store = load_params(tmp_path / "g_yx.prm1")
        save_params(ParamStore(dict(list(store)[:-1])), tmp_path / "g_yx.prm1")
        with pytest.raises(FormatError, match="out.b"):
            load_model_checkpoint(tmp_path)

    @pytest.mark.parametrize("name", ["x_mean", "x_std", "y_mean", "y_std"])
    def test_feature_stats_of_another_length_are_format_error(self, tmp_path, name):
        shutil.copytree(FIXTURE_CHECKPOINT, tmp_path / "checkpoint")
        meta = tmp_path / "checkpoint" / "metadata.json"
        metadata = json.loads(meta.read_text())
        metadata["feature_stats"][name] = [0.5, 1.0, 1.5]  # the generator has 10 channels
        meta.write_text(json.dumps(metadata))
        with pytest.raises(FormatError, match=name):
            load_model_checkpoint(tmp_path / "checkpoint")

    @pytest.mark.parametrize("mode", ["bogus", MODE_JOINT, MODE_SPECTRUM])
    def test_mode_the_stored_generator_cannot_run_is_format_error(self, tmp_path, mode):
        shutil.copytree(FIXTURE_CHECKPOINT, tmp_path / "checkpoint")
        meta = tmp_path / "checkpoint" / "metadata.json"
        metadata = json.loads(meta.read_text())
        metadata["mode"] = mode  # the fixture's generator takes 10 wavelet rows
        meta.write_text(json.dumps(metadata))
        with pytest.raises(FormatError, match="metadata.json"):
            load_model_checkpoint(tmp_path / "checkpoint")

    def test_discriminator_store_in_the_old_layout_loads(self, tmp_path):
        # Stores written before discriminators dropped their norms hold
        # layer2..3.norm.* and no layer2..3.b; conversion never runs them.
        self._saved(tmp_path)
        params = dict(load_params(tmp_path / "d_x.prm1"))
        for j in (2, 3):
            channels = params.pop(f"layer{j}.b").values.size
            params[f"layer{j}.norm.gain"] = Tensor(np.ones(channels))
            params[f"layer{j}.norm.bias"] = Tensor(np.zeros(channels))
        save_params(ParamStore(params), tmp_path / "d_x.prm1")
        loaded = load_model_checkpoint(tmp_path)
        assert "layer2.norm.gain" in loaded.model.d_x.names()


class TestMemoryGuard:
    def test_training_traced_peak_below_bound(self):
        """Traced allocations of a short joint run stay under 16 MB above start.

        Joint mode, ``base_channels`` 16, 128-frame segments, 3 iterations on
        8+8 random 34x400 sets. The traced peak read 26.3 MB while conv
        closures held im2col columns and padded inputs and train() held
        standardized copies of both sets; it read 12.9 MB once closures held
        only what backward reads, and reads 10.4 MB since graph nodes hold no
        tensors.
        tracemalloc counts numpy buffers exactly, so unlike RSS this does not
        drift with the machine.
        """
        local = np.random.default_rng(0)
        xs = [local.normal(0, 1, (34, 400)) for _ in range(8)]
        ys = [local.normal(0, 1, (34, 400)) for _ in range(8)]
        model = build_model("joint", base_channels=16, seed=0)
        schedule = TrainSchedule(
            total_iters=3, constant_lr_iters=3, decay_iters=0, segment_frames=128, seed=0
        )
        already_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            train(model, xs, ys, LossWeights(), schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not already_tracing:
                tracemalloc.stop()
        assert (peak - start) / 1e6 < 16.0


    def test_fit_traced_peak_is_one_pooled_copy(self):
        """FeatureStats.fit over 20+20 sets of 34x1000 stays under 8 MB traced.

        The pooled [34, 20000] copy is 5.4 MB. ``pooled.std`` held a second
        array of that size for the deviations, 10.9 MB at the peak, on every
        train() call; writing the deviations over the pooled copy holds one,
        5.4 MB.
        """
        local = np.random.default_rng(23)
        xs = [local.normal(0, 1, (34, 1000)) for _ in range(20)]
        ys = [local.normal(0, 1, (34, 1000)) for _ in range(20)]
        already_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            FeatureStats.fit(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not already_tracing:
                tracemalloc.stop()
        assert (peak - start) / 1e6 < 8.0

class TestNonFiniteAbort:
    def test_training_abort_reports_iteration(self):
        model = tiny_model(seed=8)
        # a learning rate near the f64 overflow range forces the squared
        # generator outputs past inf within two iterations
        sched = TrainSchedule(
            total_iters=30, constant_lr_iters=15, decay_iters=15,
            lr_g=1e200, lr_d=1e200, segment_frames=16, seed=0,
        )
        xs, ys = tiny_feature_sets(10, seed=1), tiny_feature_sets(10, seed=2)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="iteration"):
            train(model, xs, ys, LossWeights(), sched)
        # The abort comes while the discriminators are frozen for the G-step.
        for store in (model.d_x, model.d_y):
            assert all(p.requires_grad for _, p in store)
