import copy
import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from prosodia.errors import AutodiffError, FormatError, NumericError, ValidationError
from prosodia.nn import (
    GENERATOR_KIND,
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
from prosodia.nn import adam as adam_module
from prosodia.nn.checkpoint import PRM_MAGIC
from prosodia.nn.network import ParamStore, param_layout, stack_params
from prosodia.nn.tensor import (
    absolute,
    add,
    add_const,
    add_leading_axis,
    conv1d,
    conv2d,
    glu,
    instance_norm,
    leaky_relu,
    mean,
    mul,
    scale,
    square,
    stack_arena,
    sub,
    take,
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


class TestParamLayout:
    @pytest.mark.parametrize(
        "cfg",
        [
            generator_config(5, base_channels=4),
            generator_config(34, base_channels=16, n_residual=2),
            discriminator_config(6, 4),
            generator_config(5, base_channels=3, n_residual=0),
        ],
    )
    def test_matches_init_params(self, cfg):
        store = init_params(cfg, 0)
        layout = param_layout(cfg)
        assert store.names() == list(layout)
        assert {name: p.shape for name, p in store} == layout
        # The forward reads every parameter the layout names.
        if cfg.kind == GENERATOR_KIND:
            out = forward_generator(store, cfg, Tensor(np.ones((cfg.in_channels, 16))))
        else:
            out = forward_discriminator(store, cfg, Tensor(np.ones((1, cfg.in_channels, 16))))
        backward(mean(square(out)))
        assert [name for name, p in store if p.grad is None] == []


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
        # A width-1 kernel over one frame is the linear map w @ x.
        w = Tensor(rng.normal(0, 1, (2, 2, 1)), requires_grad=True)
        x = np.array([[3.0], [4.0]])
        loss = total(conv1d(Tensor(x), w, None))
        backward(loss)
        np.testing.assert_allclose(w.grad[..., 0], np.tile(x.T, (2, 1)))

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


# Operand shapes and the op over them, for the dtype contract.
_DTYPE_OPS = {
    "add": ([(4, 6), (4, 6)], add),
    "sub": ([(4, 6), (4, 6)], sub),
    "mul": ([(4, 6), (4, 6)], mul),
    "scale": ([(4, 6)], lambda a: scale(a, 0.5)),
    "add_const": ([(4, 6)], lambda a: add_const(a, 0.5)),
    "square": ([(4, 6)], square),
    "absolute": ([(4, 6)], absolute),
    "mean": ([(4, 6)], mean),
    "total": ([(4, 6)], total),
    "take": ([(4, 6)], lambda a: take(a, [1, 0])),
    "leaky_relu": ([(4, 6)], leaky_relu),
    "glu": ([(4, 6)], glu),
    "instance_norm": ([(4, 6), (4,), (4,)], instance_norm),
    "add_leading_axis": ([(4, 6)], add_leading_axis),
    "upsample2": ([(4, 6)], upsample2),
}


def _dtype_case(name, dtype):
    """Operand arrays of op ``name`` in ``dtype`` and the op over their Tensors."""
    local = np.random.default_rng(70)
    if name in _DTYPE_OPS:
        shapes, op = _DTYPE_OPS[name]
        return [local.normal(0.5, 1.0, shape).astype(dtype) for shape in shapes], op
    op, stacked = name.split("-")
    if stacked == "one":
        arrays = _conv_case(op, local, (), ())
        return [a.astype(dtype) for a in arrays], lambda *t: _conv(op, *t)
    # Weights [2 models, ...] as stacked leaves, against inputs [2, 2 models, ...].
    x, w, b = _conv_case(op, local, weight_lead=(2,))
    return [a.astype(dtype) for a in (x, *w, *b)], lambda x, w0, w1, b0, b1: _conv(
        op, x, *stack_arena([(w0, w1), (b0, b1)])[1]
    )


class TestDtypes:
    """Every op computes in its operands' dtype, forward and backward."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "name",
        [*_DTYPE_OPS, "conv1d-one", "conv1d-stacked", "conv2d-one", "conv2d-stacked"],
    )
    def test_op_keeps_operand_dtype(self, name, dtype):
        arrays, op = _dtype_case(name, dtype)
        operands = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*operands)
        assert out.values.dtype == dtype
        backward(total(out))
        for t in operands:
            assert t.grad is not None and t.grad.dtype == dtype

    def test_non_finite_float32_result_rejected(self):
        t = Tensor(np.float32([1e20]), requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            square(t)

    def test_tensor_keeps_a_float32_array(self):
        values = np.float32([1.5, 2.5])
        assert Tensor(values).values is values

    @pytest.mark.parametrize(
        "values", [[1.5, 2.5], 3, np.float16([1.5, 2.5]), np.float32(1.5)]
    )
    def test_tensor_makes_anything_else_float64(self, values):
        t = Tensor(values)
        assert type(t.values) is np.ndarray and t.values.dtype == np.float64
        np.testing.assert_array_equal(t.values, np.asarray(values, dtype=np.float64))


class TestAdam:
    def test_zero_gradient_fixpoint(self):
        p = Tensor(rng.normal(0, 1, 5), requires_grad=True)
        store = ParamStore({"p": p})
        state = AdamState.for_params(store)
        before = p.values.copy()
        for _ in range(3):
            p.grad = np.zeros(5)
            adam_step(store, state, lr=0.5)
        np.testing.assert_array_equal(p.values, before)
        assert state.step_count == 3

    def test_single_step_closed_form(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        store = ParamStore({"p": p})
        state = AdamState.for_params(store)
        p.grad = np.array([1.0])
        adam_step(store, state, lr=0.1)
        expected = 1.0 - 0.1 * (1.0 / (1.0 + adam_module.EPSILON))
        np.testing.assert_allclose(p.values, [expected], rtol=1e-15)
        assert p.grad is None

    def test_fused_step_matches_textbook_bitwise(self):
        """One fused step over a stacked pair against the per-tensor formula.

        The stores hold mixed shapes and more values than one block of the
        pass; gradients land in place from a backward, with signed zeros and
        subnormals among them, except one assigned by hand.
        """
        local = np.random.default_rng(71)
        shapes = {"w": (41, 33, 25), "b": (7,), "s": (3, 1, 2)}
        assert sum(math.prod(s) for s in shapes.values()) > adam_module.CHUNK
        stores = [
            ParamStore({name: Tensor(local.normal(0, 1, shape), requires_grad=True)
                        for name, shape in shapes.items()})
            for _ in range(2)
        ]
        stacked = stack_params(*stores)
        grads = {}
        for name, shape in shapes.items():
            g = local.normal(0, 1, (2,) + shape)
            g.reshape(-1)[:6] = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320]
            grads[name] = g
        loss = None
        for name in shapes:
            term = total(mul(stacked[name], Tensor(grads[name])))
            loss = term if loss is None else add(loss, term)
        backward(loss)
        by_hand = local.normal(0, 1, shapes["s"])
        stores[1]["s"].grad = by_hand
        grads["s"][1] = by_hand
        for row, store in enumerate(stores):
            state = AdamState.for_params(store)
            state.m[:] = local.normal(0, 0.1, state.m.size)
            state.v[:] = local.uniform(0, 0.1, state.v.size)
            state.step_count = 2
            lr, b1, b2, eps = 0.01, adam_module.BETA1, adam_module.BETA2, adam_module.EPSILON
            bc1, bc2 = 1.0 - b1**3, 1.0 - b2**3
            expected, start = [], 0
            for name, p in store:
                stop = start + p.size
                g = grads[name][row]
                m = state.m[start:stop].reshape(p.shape) * b1 + (1.0 - b1) * g
                v = state.v[start:stop].reshape(p.shape) * b2 + (1.0 - b2) * (g * g)
                w = p.values - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
                expected.append((p, w, m, v, start, stop))
                start = stop
            adam_step(store, state, lr)
            for p, w, m, v, start, stop in expected:
                assert p.values.tobytes() == w.tobytes()
                assert state.m[start:stop].tobytes() == m.tobytes()
                assert state.v[start:stop].tobytes() == v.tobytes()
                assert p.grad is None

    def test_missing_grad_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        store = ParamStore({"p": p})
        state = AdamState.for_params(store)
        with pytest.raises(ValidationError, match="missing"):
            adam_step(store, state, lr=0.1)

    def test_deterministic_trajectory(self):
        def run():
            local = np.random.default_rng(9)
            p = Tensor(np.arange(4.0), requires_grad=True)
            store = ParamStore({"p": p})
            state = AdamState.for_params(store)
            for _ in range(10):
                backward(mean(square(p)))
                adam_step(store, state, lr=0.05)
                p.grad = None
            del local
            return p.values.copy()

        np.testing.assert_array_equal(run(), run())


def _store(**tensors):
    return ParamStore(dict(tensors))


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

    def test_float32_parameters_rejected(self):
        # In float32, a central difference at the default step measures the
        # rounding of the two losses, not the gradient.
        p = Tensor(np.ones(2), requires_grad=True)
        q = Tensor(np.ones(2, np.float32), requires_grad=True)
        with pytest.raises(ValidationError, match="float64"):
            finite_diff_check(lambda: add(total(square(p)), total(square(q))), _store(p=p, q=q))
        assert p.grad is None and q.grad is None

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
        store = ParamStore({"p": Tensor(np.ones(3), requires_grad=True)})
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
        store = ParamStore({"p": Tensor(np.ones(8), requires_grad=True)})
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

    def test_repeated_name_is_format_error(self, tmp_path):
        # A store with a repeated record used to load as one entry holding the last values.
        record = struct.pack("<H", 1) + b"a" + struct.pack("<Id", 0, 1.0)
        path = tmp_path / "twice.prm1"
        path.write_bytes(PRM_MAGIC + struct.pack("<I", 2) + record + record)
        with pytest.raises(FormatError, match="'a' appears twice"):
            load_params(path)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _closure_arrays(t: Tensor) -> list:
    """The arrays a result's closure holds, bare or in a list."""
    held = []
    for cell in t._backward_fn.__closure__ or ():
        value = cell.cell_contents
        held += [a for a in (value if isinstance(value, list) else [value])
                 if isinstance(a, np.ndarray)]
    return held


def _pull(out: Tensor, g: np.ndarray) -> None:
    """Backward with ``g`` as the output gradient, exactly (1.0 * g == g)."""
    backward(total(mul(out, Tensor(g))))


def _reference_instance_norm(x, gain, bias, g, eps=1e-5):
    """The formula instance_norm computed with one temporary per step."""
    axes = tuple(range(1, x.ndim))
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    inv_sigma = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_sigma
    expand = (slice(None),) + (None,) * (x.ndim - 1)
    out = gain[expand] * x_hat + bias[expand]
    gg = g * gain[expand]
    mean_g = gg.mean(axis=axes, keepdims=True)
    mean_gx = (gg * x_hat).mean(axis=axes, keepdims=True)
    gx = inv_sigma * (gg - mean_g - x_hat * mean_gx)
    return out, gx, (g * x_hat).sum(axis=axes), g.sum(axis=axes)


def _reference_glu(x, g):
    c = x.shape[0]
    h = x[: c // 2]
    gate = 1.0 / (1.0 + np.exp(-x[c // 2 :]))
    gx = np.empty_like(x)
    gx[: c // 2] = g * gate
    gx[c // 2 :] = g * h * gate * (1.0 - gate)
    return h * gate, gx


class TestGraphHoldsNodesNotTensors:
    def test_conv1d_output_dies_under_instance_norm(self):
        local = np.random.default_rng(48)
        x = Tensor(local.normal(0, 1, (3, 40)), requires_grad=True)
        w = Tensor(local.normal(0, 1, (4, 3, 5)), requires_grad=True)
        gain = Tensor(local.normal(1, 0.1, 4), requires_grad=True)
        bias = Tensor(local.normal(0, 0.1, 4), requires_grad=True)
        h = conv1d(x, w, None, padding=2)
        conv_out = weakref.ref(h.values)
        h = instance_norm(h, gain, bias)
        assert conv_out() is None
        backward(total(square(h)))
        assert all(t.grad is not None for t in (x, w, gain, bias))

    def test_conv2d_output_dies_under_leaky_relu(self):
        local = np.random.default_rng(49)
        x = Tensor(local.normal(0, 1, (1, 8, 16)), requires_grad=True)
        w = Tensor(local.normal(0, 1, (2, 1, 3, 4)), requires_grad=True)
        b = Tensor(local.normal(0, 1, 2), requires_grad=True)
        h = conv2d(x, w, b, (2, 2), (1, 1))
        conv_out = weakref.ref(h.values)
        h = leaky_relu(h, 0.2)
        assert conv_out() is None
        backward(total(square(h)))
        assert all(t.grad is not None for t in (x, w, b))

    def test_generator_forward_graph_bytes(self):
        """One desk-width generator forward holds under 1.85 MB of traced arrays.

        A 34x128 input through a ``base_channels`` 32 generator whose weights
        exist before tracing starts, so the figure is the output plus its
        graph. It read 2.15 MB while each result held its parent Tensors,
        which kept every conv output under an instance norm alive, and reads
        1.54 MB now that nodes hold gradient targets and closures hold
        arrays. tracemalloc counts numpy buffers exactly.
        """
        config = generator_config(34, base_channels=32)
        params = init_params(config, seed=0)
        x = Tensor(np.random.default_rng(50).normal(0, 1, (34, 128)))
        already_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = forward_generator(params, config, x)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            if not already_tracing:
                tracemalloc.stop()
        assert out.requires_grad
        assert held / 1e6 < 1.85

    def test_replaced_backward_fn_is_called(self):
        """Backward calls whatever ``_backward_fn`` holds, as a wrapping tracer needs."""
        p = Tensor(np.random.default_rng(51).normal(0, 1, 5), requires_grad=True)
        out = square(p)
        inner, seen = out._backward_fn, []

        def wrapper(g):
            seen.append(g.copy())
            inner(g)

        out._backward_fn = wrapper
        assert out._backward_fn is wrapper
        backward(total(out))
        assert len(seen) == 1 and _same_bits(seen[0], np.ones(5))
        assert _same_bits(p.grad, 2.0 * p.values)

class TestGraphHoldsOnlyWhatBackwardReads:
    def test_conv1d_closure_holds_no_array_larger_than_input(self):
        local = np.random.default_rng(41)
        x = Tensor(local.normal(0, 1, (3, 40)), requires_grad=True)
        w = Tensor(local.normal(0, 1, (4, 3, 5)), requires_grad=True)
        b = Tensor(local.normal(0, 1, 4), requires_grad=True)
        out = conv1d(x, w, b, stride=1, padding=2)
        assert all(a.size <= x.values.size for a in _closure_arrays(out))

    def test_glu_closure_holds_no_array_larger_than_half_its_input(self):
        # A view counts as the array it keeps alive: a view of the input's
        # first half would keep the whole input in the graph.
        local = np.random.default_rng(52)
        x = Tensor(local.normal(0, 1, (8, 30)), requires_grad=True)
        held = [a if a.base is None else a.base for a in _closure_arrays(glu(x))]
        assert held and all(a.size <= x.values.size // 2 for a in held)

    def test_frozen_conv2d_closure_holds_no_array_larger_than_input(self):
        # A trainable weight keeps no im2col columns either: backward rebuilds them.
        local = np.random.default_rng(42)
        x = Tensor(local.normal(0, 1, (1, 8, 16)), requires_grad=True)
        for trainable in (False, True):
            w = Tensor(local.normal(0, 1, (2, 1, 3, 4)), requires_grad=trainable)
            b = Tensor(local.normal(0, 1, 2), requires_grad=trainable)
            out = conv2d(x, w, b, (2, 2), (1, 1))
            held = _closure_arrays(out)
            assert held and all(a.size <= x.values.size for a in held)

    @pytest.mark.parametrize("op", ["conv1d", "conv2d"])
    @pytest.mark.parametrize("weight_trainable", [False, True])
    def test_conv_gradcheck(self, op, weight_trainable):
        local = np.random.default_rng(43)
        if op == "conv1d":
            x = Tensor(local.normal(0, 1, (2, 12)), requires_grad=True)
            w = Tensor(local.normal(0, 0.5, (3, 2, 3)), requires_grad=weight_trainable)
            b = Tensor(local.normal(0, 0.5, 3), requires_grad=weight_trainable)
            loss = lambda: mean(square(conv1d(x, w, b, stride=2, padding=1)))  # noqa: E731
        else:
            x = Tensor(local.normal(0, 1, (1, 6, 8)), requires_grad=True)
            w = Tensor(local.normal(0, 0.5, (2, 1, 3, 4)), requires_grad=weight_trainable)
            b = Tensor(local.normal(0, 0.5, 2), requires_grad=weight_trainable)
            loss = lambda: mean(square(conv2d(x, w, b, (2, 2), (1, 1))))  # noqa: E731
        params = _store(x=x, w=w, b=b) if weight_trainable else _store(x=x)
        err = finite_diff_check(loss, params, h=1e-6, n_probe=10, seed=5)
        assert err < 1e-5

    def test_conv2d_weight_unfrozen_after_forward(self):
        def gradients(frozen_at_forward):
            local = np.random.default_rng(44)
            x = Tensor(local.normal(0, 1, (1, 8, 16)), requires_grad=True)
            w = Tensor(local.normal(0, 1, (2, 1, 3, 4)), requires_grad=not frozen_at_forward)
            b = Tensor(local.normal(0, 1, 2), requires_grad=True)
            out = conv2d(x, w, b, (2, 2), (1, 1))
            w.requires_grad = True
            _pull(out, local.normal(0, 1, out.shape))
            return x.grad, w.grad, b.grad

        for late, early in zip(gradients(True), gradients(False)):
            assert late is not None and _same_bits(late, early)

    def test_leaky_relu_matches_factor_formula(self):
        local = np.random.default_rng(45)
        x = np.concatenate([[0.0, -0.0, 1.5, -2.25, 5e-324, -5e-324], local.normal(0, 1, 30)])
        g = np.concatenate([[-0.0, 0.0, -0.0, 0.0, 1.0, -1.0], local.normal(0, 1, 30)])
        factor = np.where(x > 0, 1.0, 0.2)
        p = Tensor(x, requires_grad=True)
        out = leaky_relu(p, 0.2)
        _pull(out, g)
        assert _same_bits(out.values, x * factor)
        assert _same_bits(p.grad, g * factor)

    @pytest.mark.parametrize("shape", [(6, 300), (4, 7, 50)])
    def test_instance_norm_matches_reference(self, shape):
        local = np.random.default_rng(46)
        x = local.normal(0.3, 2.0, shape)
        gain, bias = local.normal(1, 0.2, shape[0]), local.normal(0, 0.2, shape[0])
        g = local.normal(0, 1, shape)
        tensors = [Tensor(v, requires_grad=True) for v in (x, gain, bias)]
        out = instance_norm(*tensors)
        _pull(out, g)
        expected = _reference_instance_norm(x, gain, bias, g)
        got = (out.values,) + tuple(t.grad for t in tensors)
        for e, v in zip(expected, got):
            assert _same_bits(v, e)

    @pytest.mark.parametrize("shape", [(6, 300), (4, 7, 50)])
    def test_glu_matches_reference(self, shape):
        local = np.random.default_rng(47)
        x = local.normal(0, 2.0, shape)
        g = local.normal(0, 1, (shape[0] // 2,) + shape[1:])
        p = Tensor(x, requires_grad=True)
        out = glu(p)
        _pull(out, g)
        expected_out, expected_grad = _reference_glu(x, g)
        assert _same_bits(out.values, expected_out)
        assert _same_bits(p.grad, expected_grad)


def _check_per_slice(build, arrays, n_lead=2, seed=0):
    """``build(tensors, n_lead)`` on stacked arrays gives every slice's unstacked bits.

    The stacked call and one call per slice of the leading axes each get a
    random output gradient; values and the gradients of every input must
    match slice by slice, bit for bit.
    """
    stacked = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(stacked, n_lead)
    g = np.random.default_rng(seed).normal(0, 1, out.shape)
    _pull(out, g)
    for index in np.ndindex(*arrays[0].shape[:n_lead]):
        parts = [Tensor(a[index], requires_grad=True) for a in arrays]
        part_out = build(parts, 0)
        _pull(part_out, g[index])
        assert _same_bits(out.values[index], part_out.values)
        for whole, part in zip(stacked, parts):
            assert _same_bits(whole.grad[index], part.grad)


def _conv_case(op, local, lead=(2, 2), weight_lead=(2, 2)):
    """Input, weight and bias arrays of a small conv with the given leading axes."""
    if op == "conv1d":
        return (local.normal(0, 1, lead + (3, 12)), local.normal(0, 0.5, weight_lead + (4, 3, 3)),
                local.normal(0, 0.5, weight_lead + (4,)))
    return (local.normal(0, 1, lead + (1, 6, 8)), local.normal(0, 0.5, weight_lead + (2, 1, 3, 4)),
            local.normal(0, 0.5, weight_lead + (2,)))


def _conv(op, x, w, b):
    if op == "conv1d":
        return conv1d(x, w, b, stride=2, padding=1)
    return conv2d(x, w, b, (2, 2), (1, 1))


class TestStackedCalls:
    """Ops over leading axes [2, 2, ...] give each slice the bits of an unstacked call."""

    @pytest.mark.parametrize("op", ["conv1d", "conv2d"])
    def test_conv_per_slice_weights(self, op):
        arrays = _conv_case(op, np.random.default_rng(60))
        _check_per_slice(lambda t, n: _conv(op, *t), arrays, seed=1)

    @pytest.mark.parametrize(
        "name, shapes",
        [
            ("norm1d", [(2, 2, 4, 10), (2, 2, 4), (2, 2, 4)]),
            ("norm2d", [(2, 2, 4, 3, 5), (2, 2, 4), (2, 2, 4)]),
            ("glu", [(2, 2, 6, 10)]),
            ("leaky_relu", [(2, 2, 3, 7)]),
            ("upsample", [(2, 2, 3, 7)]),
            ("add", [(2, 2, 3, 7), (2, 2, 3, 7)]),
            ("add_leading_axis", [(2, 2, 3, 7)]),
            ("mean", [(2, 2, 3, 7)]),
        ],
    )
    def test_op_per_slice(self, name, shapes):
        local = np.random.default_rng(61)
        arrays = [local.normal(1.0, 1.0, shape) for shape in shapes]
        builders = {
            "norm1d": lambda t, n: instance_norm(*t),
            "norm2d": lambda t, n: instance_norm(*t),
            "glu": lambda t, n: glu(t[0], n),
            "leaky_relu": lambda t, n: leaky_relu(t[0], 0.2),
            "upsample": lambda t, n: upsample2(t[0]),
            "add": lambda t, n: add(*t),
            "add_leading_axis": lambda t, n: add_leading_axis(t[0]),
            "mean": lambda t, n: mean(t[0], n),
        }
        _check_per_slice(builders[name], arrays, seed=2)

    @pytest.mark.parametrize("op", ["conv1d", "conv2d"])
    @pytest.mark.parametrize("weights", ["trainable", "frozen", "unfrozen_after_forward"])
    def test_stacked_weights_shared_by_samples(self, op, weights):
        """Inputs [2 samples, 2 models, ...] against ``stack_arena`` weights [2 models, ...].

        Each model's leaves get the sum over samples of what per-slice calls
        give them, in sample order, and each input slice its own gradient.
        """
        local = np.random.default_rng(62)
        x, w, b = _conv_case(op, local, weight_lead=(2,))
        g = None

        def leaves(frozen):
            return ([Tensor(v.copy(), requires_grad=not frozen) for v in w],
                    [Tensor(v.copy(), requires_grad=not frozen) for v in b])

        frozen = weights != "trainable"
        w_leaves, b_leaves = leaves(frozen)
        stacked_x = Tensor(x, requires_grad=True)
        stacked_w, stacked_b = stack_arena([w_leaves, b_leaves])[1]
        if weights == "frozen":  # plain Tensors over the stacked values take no gradient
            stacked_w, stacked_b = Tensor(stacked_w.values), Tensor(stacked_b.values)
        out = _conv(op, stacked_x, stacked_w, stacked_b)
        if weights == "unfrozen_after_forward":
            for leaf in w_leaves + b_leaves:
                leaf.requires_grad = True
        g = local.normal(0, 1, out.shape)
        _pull(out, g)

        ref_w, ref_b = leaves(weights == "frozen")
        for s in range(2):
            for m in range(2):
                part_x = Tensor(x[s, m], requires_grad=True)
                part_out = _conv(op, part_x, ref_w[m], ref_b[m])
                _pull(part_out, g[s, m])
                assert _same_bits(out.values[s, m], part_out.values)
                assert _same_bits(stacked_x.grad[s, m], part_x.grad)
        for leaf, ref in zip(w_leaves + b_leaves, ref_w + ref_b):
            assert (leaf.grad is None) == (weights == "frozen")
            assert leaf.grad is None or _same_bits(leaf.grad, ref.grad)

    def test_stack_arena_shares_and_keeps_one_buffer(self):
        local = np.random.default_rng(63)
        a, b = (Tensor(local.normal(0, 1, (3, 4)), requires_grad=True) for _ in range(2))
        before = np.stack((a.values, b.values))
        arena, (stacked,) = stack_arena([(a, b)])
        assert _same_bits(stacked.values, before)
        a.values += 1.0  # an in-place update of a leaf is one of the arena
        assert _same_bits(stacked.values[0], before[0] + 1.0)
        again = stack_arena([(a, b)])[0].values  # every call lays the leaves out afresh
        assert again is not arena.values and _same_bits(again, arena.values)
        assert a.values.base is again
        assert stack_arena([(b, a)])[0].values is not again
        with pytest.raises(ValidationError):
            stack_arena([(a, Tensor(np.zeros(3)))])

    def test_stack_params_lays_stores_out_as_the_rows_of_one_arena(self):
        cfg = generator_config(3, base_channels=2, n_residual=1)
        stores = [init_params(cfg, seed) for seed in (0, 1)]
        flat = [np.concatenate([p.values.reshape(-1) for _, p in store]) for store in stores]
        stacked = stack_params(*stores)
        arena = stacked["in.w"].values.base
        assert arena.shape == (2, stores[0].n_values())
        for row, store in enumerate(stores):
            assert arena[row].tobytes() == flat[row].tobytes()
            assert all(p.values.base is arena for _, p in store)
            assert all(_same_bits(stacked[name].values[row], p.values) for name, p in store)
        again = stack_params(*stores)["in.w"].values.base  # laid out afresh
        assert again is not arena and again.tobytes() == arena.tobytes()
        assert all(p.values.base is again for store in stores for _, p in store)
        # A deep copy owns new arrays, so stacking it leaves the stores' arena alone.
        copies = copy.deepcopy(stores)
        assert stack_params(*copies)["in.w"].values.base is not again
        copies[0]["in.w"].values += 1.0
        assert again[0].tobytes() == flat[0].tobytes()

    def test_stacking_again_frees_the_first_arena(self):
        cfg = generator_config(3, base_channels=2, n_residual=1)
        stores = [init_params(cfg, seed) for seed in (0, 1)]
        first = weakref.ref(stack_params(*stores)["in.w"].values.base)
        assert first() is not None  # the stores' Tensors view it
        values = [p.values.copy() for store in stores for _, p in store]
        second = stack_params(*stores)["in.w"].values.base
        assert first() is None
        arena = stores[0].slot()[0]
        assert arena.values is second
        assert [store.slot() for store in stores] == [(arena, 0), (arena, 1)]
        leaves = [p for store in stores for _, p in store]
        assert all(p.values.base is second for p in leaves)
        assert all(_same_bits(p.values, v) for p, v in zip(leaves, values))

    @pytest.mark.parametrize("op", ["conv1d", "conv2d"])
    def test_plain_tensor_is_the_one_way_to_freeze_stacked_weights(self, op):
        """A plain Tensor over stacked weights runs them as frozen unstacked leaves do.

        It allocates no gradient buffer for their arena. The stacked weights
        themselves always train, even over leaves marked frozen.
        """
        local = np.random.default_rng(65)
        x, w, b = _conv_case(op, local, weight_lead=(2,))
        w_leaves, b_leaves = ([Tensor(v.copy()) for v in arrays] for arrays in (w, b))
        arena, (stacked_w, stacked_b) = stack_arena([w_leaves, b_leaves])

        stacked_x = Tensor(x, requires_grad=True)
        out = _conv(op, stacked_x, Tensor(stacked_w.values), Tensor(stacked_b.values))
        g = local.normal(0, 1, out.shape)
        _pull(out, g)
        for s in range(2):
            for m in range(2):
                part_x = Tensor(x[s, m], requires_grad=True)
                part_out = _conv(op, part_x, Tensor(w[m]), Tensor(b[m]))
                _pull(part_out, g[s, m])
                assert _same_bits(out.values[s, m], part_out.values)
                assert _same_bits(stacked_x.grad[s, m], part_x.grad)
        assert arena._grad is None
        assert all(leaf.grad is None for leaf in w_leaves + b_leaves)

        _pull(_conv(op, Tensor(x), stacked_w, stacked_b), g)
        for m, (w_leaf, b_leaf) in enumerate(zip(w_leaves, b_leaves)):
            ref_w, ref_b = Tensor(w[m], requires_grad=True), Tensor(b[m], requires_grad=True)
            for s in range(2):
                _pull(_conv(op, Tensor(x[s, m]), ref_w, ref_b), g[s, m])
            assert _same_bits(w_leaf.grad, ref_w.grad) and _same_bits(b_leaf.grad, ref_b.grad)
            assert w_leaf.grad.base is arena.grad()

    def test_take_gradients_add_up_exactly(self):
        # -0.0 fills the untaken slices, so even zeros of either sign survive.
        values = np.array([[0.5, -1.5], [2.0, 3.0]])
        g0, g1 = np.array([-0.0, 0.25]), np.array([0.0, -0.0])
        p = Tensor(values, requires_grad=True)
        _pull(add(mul(take(p, 0), Tensor(np.ones(2))), take(p, 1)), np.ones(2))
        assert _same_bits(p.grad, np.ones((2, 2)))
        q = Tensor(values, requires_grad=True)
        backward(add(total(mul(take(q, 0), Tensor(g0))), total(mul(take(q, 1), Tensor(g1)))))
        assert _same_bits(q.grad, np.stack((g0, g1)))
        swapped = Tensor(values, requires_grad=True)
        out = take(swapped, [1, 0])
        assert _same_bits(out.values, values[::-1])
        _pull(out, values)
        assert _same_bits(swapped.grad, values[::-1])

    @pytest.mark.parametrize("op", ["conv1d", "conv2d", "instance_norm"])
    def test_stacked_gradcheck(self, op):
        local = np.random.default_rng(64)
        if op == "instance_norm":
            x = Tensor(local.normal(0, 1, (2, 4, 6)), requires_grad=True)
            gains = [Tensor(1.0 + 0.1 * local.normal(size=4), requires_grad=True) for _ in range(2)]
            biases = [Tensor(0.1 * local.normal(size=4), requires_grad=True) for _ in range(2)]
            gain, bias = stack_arena([gains, biases])[1]
            target = Tensor(local.normal(0, 1, (2, 4, 6)))
            loss = lambda: mean(square(sub(instance_norm(x, gain, bias), target)))  # noqa: E731
            params = _store(x=x, g0=gains[0], g1=gains[1], b0=biases[0], b1=biases[1])
        else:
            x_v, w_v, b_v = _conv_case(op, local, weight_lead=(2,))
            x = Tensor(x_v, requires_grad=True)
            ws = [Tensor(v.copy(), requires_grad=True) for v in w_v]
            bs = [Tensor(v.copy(), requires_grad=True) for v in b_v]
            w, b = stack_arena([ws, bs])[1]
            loss = lambda: mean(square(_conv(op, x, w, b)))  # noqa: E731
            params = _store(x=x, w0=ws[0], w1=ws[1], b0=bs[0], b1=bs[1])
        err = finite_diff_check(loss, params, h=1e-6, n_probe=12, seed=5)
        assert err < 1e-5
