import struct
import weakref

import numpy as np
import pytest

from prosodia.errors import AutodiffError, FormatError, NumericError, ValidationError
from prosodia.nn import (
    AdamState,
    Tensor,
    adam_step,
    backward,
    discriminator_config,
    finite_diff_check,
    forward_discriminator,
    forward_generator,
    generator_config,
    init_params,
    load_params,
    save_params,
)
from prosodia.nn.checkpoint import PRM_MAGIC
from prosodia.nn.network import ParamStore
from prosodia.nn.tensor import (
    absolute,
    add,
    conv1d,
    conv2d,
    glu,
    instance_norm,
    leaky_relu,
    matmul,
    mean,
    square,
    sub,
    total,
    upsample2,
)

rng = np.random.default_rng(1234)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        cfg = generator_config(5, base_channels=4)
        a, b = init_params(cfg, 3), init_params(cfg, 3)
        assert a.names() == b.names()
        for name in a.names():
            assert np.array_equal(a[name].values, b[name].values)

    def test_different_seeds_differ(self):
        cfg = generator_config(5, base_channels=4)
        a, b = init_params(cfg, 3), init_params(cfg, 4)
        assert any(
            not np.array_equal(a[name].values, b[name].values) for name in a.names()
        )

    def test_bias_tensors_all_zero(self):
        for cfg in (generator_config(5, base_channels=4), discriminator_config(6, 4)):
            store = init_params(cfg, 0)
            biases = [n for n in store.names() if n.endswith(".b") or n.endswith(".bias")]
            assert biases
            for name in biases:
                assert np.abs(store[name].values).max() == 0.0


class TestGeneratorShapes:
    @pytest.mark.parametrize("channels", [24, 10, 34])
    def test_shape_preserved(self, channels):
        cfg = generator_config(channels, base_channels=4, n_residual=1)
        store = init_params(cfg, 0)
        x = Tensor(rng.normal(0, 1, (channels, 128)))
        out = forward_generator(store, cfg, x)
        assert out.shape == (channels, 128)

    def test_frame_multiple_enforced(self):
        cfg = generator_config(4, base_channels=4)
        store = init_params(cfg, 0)
        with pytest.raises(ValidationError, match="multiple"):
            forward_generator(store, cfg, Tensor(np.zeros((4, 30))))

    def test_channel_mismatch_rejected(self):
        cfg = generator_config(4, base_channels=4)
        store = init_params(cfg, 0)
        with pytest.raises(ValidationError):
            forward_generator(store, cfg, Tensor(np.zeros((5, 32))))


class TestDiscriminatorShapes:
    def test_patch_grid_has_multiple_patches(self):
        cfg = discriminator_config(24, base_channels=4)
        store = init_params(cfg, 0)
        scores = forward_discriminator(store, cfg, Tensor(rng.normal(0, 1, (1, 24, 128))))
        assert scores.size > 1

    def test_doubling_frames_doubles_time_patches(self):
        cfg = discriminator_config(24, base_channels=4)
        store = init_params(cfg, 0)
        s1 = forward_discriminator(store, cfg, Tensor(rng.normal(0, 1, (1, 24, 128))))
        s2 = forward_discriminator(store, cfg, Tensor(rng.normal(0, 1, (1, 24, 256))))
        assert s2.shape[-1] == 2 * s1.shape[-1]

    def test_zero_weights_scores_equal_final_bias(self):
        cfg = discriminator_config(10, base_channels=4)
        store = init_params(cfg, 0)
        for name in store.names():
            if name.endswith(".w"):
                store[name].values[:] = 0.0
        store["layer4.b"].values[:] = 0.75
        scores = forward_discriminator(store, cfg, Tensor(rng.normal(0, 1, (1, 10, 64))))
        np.testing.assert_allclose(scores.values, 0.75)

    def test_scores_depend_on_input_scale(self):
        # A discriminator that normalizes away the input's magnitude cannot
        # tell real features from ones that are too large or too small.
        cfg = discriminator_config(24, base_channels=4)
        store = init_params(cfg, 0)
        x = np.random.default_rng(3).normal(0, 1, (1, 24, 128))
        full = forward_discriminator(store, cfg, Tensor(x)).values
        half = forward_discriminator(store, cfg, Tensor(0.5 * x)).values
        assert np.linalg.norm(half - full) > 0.1 * np.linalg.norm(full)


class TestBackward:
    def test_linear_map_gradient(self):
        w = Tensor(rng.normal(0, 1, (2, 2)), requires_grad=True)
        x = np.array([[3.0], [4.0]])
        loss = total(matmul(w, Tensor(x)))
        backward(loss)
        np.testing.assert_allclose(w.grad, np.tile(x.T, (2, 1)))

    def test_unreachable_parameter_grad_untouched(self):
        used = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        backward(total(square(used)))
        assert used.grad is not None
        assert unused.grad is None

    def test_backward_on_non_scalar_rejected(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AutodiffError, match="scalar"):
            backward(square(t))

    def test_double_backward_rejected(self):
        t = Tensor(np.ones(3), requires_grad=True)
        loss = total(square(t))
        backward(loss)
        with pytest.raises(AutodiffError, match="already"):
            backward(loss)

    def test_backward_frees_the_graph(self):
        local = np.random.default_rng(41)
        x = Tensor(local.normal(0, 1, (2, 8)), requires_grad=True)
        w = Tensor(local.normal(0, 1, (3, 2, 3)), requires_grad=True)
        hidden = leaky_relu(conv1d(x, w, None, padding=1))
        activation = weakref.ref(hidden.values)
        out = square(hidden)
        loss = total(out)
        del hidden
        assert activation() is not None  # the graph keeps it alive
        backward(loss)
        assert activation() is None
        for node in (out, loss):
            assert node._parents == () and node._backward_fn is None and node.grad is None
        assert x.grad is not None and w.grad is not None

    def test_backward_through_a_consumed_graph_rejected(self):
        local = np.random.default_rng(42)
        p = Tensor(local.normal(0, 1, 4), requires_grad=True)
        shared = square(p)
        backward(total(shared))
        first = p.grad.copy()
        with pytest.raises(AutodiffError, match="freed"):
            backward(mean(shared))
        np.testing.assert_array_equal(p.grad, first)

    def test_non_finite_result_rejected(self):
        t = Tensor(np.array([1e308]), requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            square(t)


class TestAdam:
    def test_zero_gradient_fixpoint(self):
        p = Tensor(rng.normal(0, 1, 5), requires_grad=True)
        store = ParamStore({"p": p}, 0)
        state = AdamState.for_params(store)
        before = p.values.copy()
        for _ in range(3):
            p.grad = np.zeros(5)
            adam_step(store, state, lr=0.5)
        np.testing.assert_array_equal(p.values, before)
        assert state.step_count == 3

    def test_single_step_closed_form(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        store = ParamStore({"p": p}, 0)
        state = AdamState.for_params(store)
        p.grad = np.array([1.0])
        adam_step(store, state, lr=0.1)
        expected = 1.0 - 0.1 * (1.0 / (1.0 + state.epsilon))
        np.testing.assert_allclose(p.values, [expected], rtol=1e-15)
        assert p.grad is None

    def test_missing_grad_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        store = ParamStore({"p": p}, 0)
        state = AdamState.for_params(store)
        with pytest.raises(ValidationError, match="missing"):
            adam_step(store, state, lr=0.1)

    def test_deterministic_trajectory(self):
        def run():
            local = np.random.default_rng(9)
            p = Tensor(np.arange(4.0), requires_grad=True)
            store = ParamStore({"p": p}, 0)
            state = AdamState.for_params(store)
            for _ in range(10):
                backward(mean(square(p)))
                adam_step(store, state, lr=0.05)
                p.grad = None
            del local
            return p.values.copy()

        np.testing.assert_array_equal(run(), run())


def _store(**tensors):
    return ParamStore(dict(tensors), 0)


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        # Central differences have no truncation error on a quadratic, so
        # only the rounding of the two loss values is left, about
        # eps * loss / (2h) in each probed slope. At h = 1e-2 that floor sits
        # over 100x below the bound for every coordinate of this vector.
        p = Tensor(np.random.default_rng(36).normal(0, 1, 7), requires_grad=True)
        err = finite_diff_check(lambda: total(square(p)), _store(p=p), 1e-2, 10, 0)
        assert err < 1e-9

    def test_zero_step_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValidationError):
            finite_diff_check(lambda: total(square(p)), _store(p=p), h=0.0)

    @pytest.mark.parametrize(
        "name",
        ["conv1d", "conv2d", "residual", "glu", "leaky_relu", "norm1d", "norm2d", "upsample"],
    )
    def test_layer_types_below_tolerance(self, name):
        local = np.random.default_rng(77)
        if name == "conv1d":
            w = Tensor(local.normal(0, 0.5, (3, 2, 3)), requires_grad=True)
            b = Tensor(local.normal(0, 0.5, 3), requires_grad=True)
            x = local.normal(0, 1, (2, 12))
            loss = lambda: mean(square(conv1d(Tensor(x), w, b, stride=2, padding=1)))  # noqa: E731
            params = _store(w=w, b=b)
        elif name == "conv2d":
            w = Tensor(local.normal(0, 0.5, (2, 1, 3, 4)), requires_grad=True)
            b = Tensor(local.normal(0, 0.5, 2), requires_grad=True)
            x = local.normal(0, 1, (1, 6, 8))
            loss = lambda: mean(square(conv2d(Tensor(x), w, b, (2, 2), (1, 1))))  # noqa: E731
            params = _store(w=w, b=b)
        else:
            p = Tensor(local.normal(0, 1, (4, 6)), requires_grad=True)
            gain = Tensor(1.0 + 0.1 * local.normal(size=4), requires_grad=True)
            bias = Tensor(0.1 * local.normal(size=4), requires_grad=True)
            params = _store(p=p, gain=gain, bias=bias)
            # A plain square of a normalized output is constant w.r.t. the
            # input (the norm pins per-channel moments); compare against a
            # fixed target so the input gradient is genuinely nonzero.
            target_1d = Tensor(local.normal(0, 1, (4, 6)))
            builders = {
                "residual": lambda: mean(square(add(p, square(p)))),
                "glu": lambda: mean(square(glu(p))),
                "leaky_relu": lambda: mean(square(leaky_relu(p, 0.2))),
                "norm1d": lambda: mean(
                    square(sub(instance_norm(p, gain, bias), target_1d))
                ),
                "upsample": lambda: mean(square(upsample2(p))),
            }
            if name == "norm2d":
                x2 = Tensor(local.normal(0, 1, (4, 3, 5)), requires_grad=True)
                target_2d = Tensor(local.normal(0, 1, (4, 3, 5)))
                params = _store(p=x2, gain=gain, bias=bias)
                loss = lambda: mean(  # noqa: E731
                    square(sub(instance_norm(x2, gain, bias), target_2d))
                )
            else:
                loss = builders[name]
        err = finite_diff_check(loss, params, h=1e-6, n_probe=10, seed=5)
        assert err < 1e-5, f"{name}: {err}"

    def test_full_generator_below_tolerance(self):
        cfg = generator_config(3, base_channels=4, n_residual=2)
        store = init_params(cfg, 11)
        x = np.random.default_rng(0).normal(0, 1, (3, 16))
        err = finite_diff_check(
            lambda: mean(square(forward_generator(store, cfg, Tensor(x)))),
            store,
            h=1e-6,
            n_probe=10,
            seed=3,
        )
        assert err < 1e-5

    def test_l1_objective_below_tolerance(self):
        p = Tensor(rng.normal(0, 1, 9) + 0.3, requires_grad=True)
        err = finite_diff_check(lambda: mean(absolute(p)), _store(p=p), 1e-6, 9, 1)
        assert err < 1e-5


class TestCheckpointFormat:
    def test_save_load_bitwise(self, tmp_path):
        cfg = generator_config(5, base_channels=4)
        store = init_params(cfg, 21)
        path = tmp_path / "g.prm1"
        save_params(store, path)
        back = load_params(path)
        assert back.names() == store.names()
        for name in store.names():
            assert np.array_equal(back[name].values, store[name].values)

    def test_magic_bytes(self, tmp_path):
        store = ParamStore({"p": Tensor(np.ones(3), requires_grad=True)}, 0)
        path = tmp_path / "p.prm1"
        save_params(store, path)
        assert path.read_bytes()[:4] == b"PRM1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.prm1"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        from prosodia.errors import FormatError

        with pytest.raises(FormatError, match="PRM1"):
            load_params(path)

    def test_truncated_rejected(self, tmp_path):
        store = ParamStore({"p": Tensor(np.ones(8), requires_grad=True)}, 0)
        path = tmp_path / "t.prm1"
        save_params(store, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        from prosodia.errors import FormatError

        with pytest.raises(FormatError):
            load_params(path)

    def test_every_proper_prefix_is_format_error(self, tmp_path):
        local = np.random.default_rng(43)
        store = ParamStore(
            {
                "conv.w": Tensor(local.normal(0, 1, (2, 1, 3)), requires_grad=True),
                "norm.gain\u03bb": Tensor(local.normal(0, 1, 2), requires_grad=True),
                "scalar": Tensor(np.array(1.5), requires_grad=True),
            },
            0,
        )
        path = tmp_path / "valid.prm1"
        save_params(store, path)
        data = path.read_bytes()
        assert load_params(path).names() == store.names()
        for size in range(len(data)):
            path.write_bytes(data[:size])
            with pytest.raises(FormatError):
                load_params(path)

    def test_oversized_rank_is_format_error(self, tmp_path):
        path = tmp_path / "rank.prm1"
        path.write_bytes(
            PRM_MAGIC + struct.pack("<IH", 1, 1) + b"p" + struct.pack("<I", 2**30) + bytes(8)
        )
        with pytest.raises(FormatError, match="rank"):
            load_params(path)

    def test_non_utf8_name_is_format_error(self, tmp_path):
        path = tmp_path / "name.prm1"
        path.write_bytes(
            PRM_MAGIC + struct.pack("<IH", 1, 2) + b"\xff\xfe" + struct.pack("<Id", 0, 1.0)
        )
        with pytest.raises(FormatError, match="UTF-8"):
            load_params(path)
