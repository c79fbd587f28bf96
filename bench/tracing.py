"""Layer spans and work counts, installed on prosodia from outside.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` replaces the
public functions of each layer where their callers look them up: the global
of the calling module (``prosodia.nn.network.conv1d``, not
``prosodia.nn.tensor.conv1d``) or, for methods, the class attribute.
``Tracer.uninstall`` puts every original object back. Autodiff ops also get
their returned ``_backward_fn`` closure wrapped, so backward time is charged
to the op that recorded it.

A span has a name, start, end, parent span and op id (training iteration or
converted utterance; -1 during set-up). Spans stay in flat in-memory arrays
during the run; per-layer metrics are derived from them afterwards and
``write_spans`` dumps them at the end.
"""

from __future__ import annotations

import importlib
import os
from array import array
from time import perf_counter

LAYERS = ("features", "prosody", "nn", "cyclegan", "baseline", "metrics", "cli")

# Marks every function this module creates, so a test can prove none is left
# behind after uninstall.
PROBE_MARK = "__bench_probe__"

OP_SPAN = "op"

# Primitive autodiff ops: counted in nn.op_calls, backward closure wrapped.
_PRIMITIVES = {
    "prosodia.nn.network": (
        "conv1d", "conv2d", "instance_norm", "glu", "leaky_relu", "upsample2", "add",
    ),
    "prosodia.cyclegan.train": ("add", "add_leading_axis", "scale"),
    "prosodia.cyclegan.losses": ("add", "add_const", "mean", "square"),
    # l1_distance composes these through the tensor module's own globals.
    "prosodia.nn.tensor": ("sub", "absolute", "mean"),
}

# Composite or coarse functions: one span each, nothing else wrapped.
# (module, attribute, span name)
_SPANS = (
    ("prosodia.cyclegan.losses", "l1_distance", "nn.l1_distance"),
    ("prosodia.cyclegan.train", "adversarial_loss", "cyclegan.adversarial_loss"),
    ("prosodia.cyclegan.train", "cycle_loss", "cyclegan.cycle_loss"),
    ("prosodia.cyclegan.train", "identity_loss", "cyclegan.identity_loss"),
    ("prosodia.cyclegan.train", "forward_generator", "nn.forward_generator"),
    ("prosodia.cyclegan.train", "forward_discriminator", "nn.forward_discriminator"),
    ("prosodia.cyclegan.train", "backward", "nn.backward"),
    ("prosodia.cyclegan.train", "adam_step", "nn.adam_step"),
    ("prosodia.cyclegan.model", "forward_generator", "nn.forward_generator"),
    ("prosodia.cyclegan.checkpoint", "load_params", "nn.load_params"),
    ("prosodia.cyclegan.checkpoint", "save_params", "nn.save_params"),
    ("prosodia.cyclegan.convert", "preprocess_f0", "prosody.preprocess_f0"),
    ("prosodia.cyclegan.convert", "cwt_decompose", "prosody.cwt_decompose"),
    ("prosodia.cyclegan.convert", "cwt_reconstruct", "prosody.cwt_reconstruct"),
    ("prosodia.cyclegan.convert", "denormalize_log_f0", "prosody.denormalize_log_f0"),
    ("prosodia.cli.pipeline", "preprocess_f0", "prosody.preprocess_f0"),
    ("prosodia.cli.pipeline", "cwt_decompose", "prosody.cwt_decompose"),
    ("prosodia.cli.pipeline", "load_corpus", "features.load_corpus"),
    ("prosodia.cli.pipeline", "make_nonparallel_split", "features.make_nonparallel_split"),
    ("prosodia.cli.pipeline", "write_feature_file", "features.write_feature_file"),
    ("prosodia.cli.pipeline", "build_model", "cyclegan.build_model"),
    ("prosodia.cli.pipeline", "train", "cyclegan.train"),
    ("prosodia.cli.pipeline", "save_model_checkpoint", "cyclegan.save_model_checkpoint"),
    ("prosodia.cli.pipeline", "load_model_checkpoint", "cyclegan.load_model_checkpoint"),
    ("prosodia.cli.pipeline", "convert_utterance", "cyclegan.convert_utterance"),
    ("prosodia.cli.pipeline", "lg_fit", "baseline.lg_fit"),
    ("prosodia.cli.pipeline", "lg_transform", "baseline.lg_transform"),
    ("prosodia.cli.pipeline", "load_lg_stats", "cli.load_lg_stats"),
    ("prosodia.cli.pipeline", "features_for_mode", "cli.features_for_mode"),
    ("prosodia.cli.pipeline", "train_mode", "cli.train_mode"),
    ("prosodia.cli.pipeline", "train_baseline", "cli.train_baseline"),
    ("prosodia.cli.synth", "generate_corpus", "cli.generate_corpus"),
    ("prosodia.metrics", "evaluate_pairs", "metrics.evaluate_pairs"),
)

# Methods wrapped on their class: (module, class, method, span name).
_METHODS = (("prosodia.cyclegan.model", "CycleGanModel", "convert", "cyclegan.model_convert"),)

# Span names whose time adds up to nn.other_ops.ms (forward and backward).
_OTHER_OPS = {
    "nn.leaky_relu", "nn.upsample2", "nn.add", "nn.add_leading_axis", "nn.scale",
    "nn.add_const", "nn.mean", "nn.square", "nn.sub", "nn.absolute", "nn.l1_distance",
    "cyclegan.adversarial_loss", "cyclegan.cycle_loss", "cyclegan.identity_loss",
}

# The generator store conversion runs (direction "forward"); every other
# PRM1 store a conversion loads is parsed for nothing.
_USED_STORE_FILE = "g_xy.prm1"


def _mark(fn):
    setattr(fn, PROBE_MARK, True)
    return fn


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("q")
        self.s_op = array("q")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.op_counts: dict[str, float] = {}
        self.errors = dict.fromkeys(LAYERS, 0)
        self.d_adam_ends: list[tuple[int, float]] = []
        self._installed: list[tuple[object, str, object]] = []
        self._primitive_nids: set[int] = set()

    # -- span recording -------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.s_name)
        stack = self._stack
        self.s_name.append(nid)
        self.s_parent.append(stack[-1] if stack else -1)
        self.s_op.append(self.op_id)
        self.s_end.append(0.0)
        stack.append(sid)
        self.s_start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.s_end[sid] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        """Add to a per-op work count; work outside ops (set-up) is not counted."""
        if self.op_id >= 0:
            self.op_counts[key] = self.op_counts.get(key, 0.0) + amount

    def error(self, nid: int, err: BaseException) -> None:
        # An exception crossing several wrapped layers is charged once, to
        # the innermost layer it came out of.
        if not getattr(err, PROBE_MARK, False):
            self.errors[self._names[nid].split(".", 1)[0]] += 1
            setattr(err, PROBE_MARK, True)

    def begin_op(self, op_id: int) -> None:
        if self._stack:
            raise RuntimeError(f"op {op_id} begins inside open span {self._stack[-1]}")
        self.op_id = op_id
        self.open(self.name_id(OP_SPAN))

    def end_op(self) -> None:
        self.close(self._stack[-1])
        self.op_id = -1

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(args, result)`` runs outside it."""
        nid = self.name_id(name)
        open_span, close_span, error = self.open, self.close, self.error

        def wrapper(*args, **kwargs):
            sid = open_span(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                close_span(sid)
                error(nid, err)
                raise
            close_span(sid)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return _mark(wrapper)

    def _closure_wrapper(self, fn, nid: int, flops: float):
        open_span, close_span, error, count = self.open, self.close, self.error, self.count

        def backward_fn(g):
            sid = open_span(nid)
            try:
                fn(g)
            except Exception as err:
                close_span(sid)
                error(nid, err)
                raise
            close_span(sid)
            if flops:
                count("conv_flop", flops)

        return _mark(backward_fn)

    def _primitive(self, fn, op: str):
        """An autodiff op: a span, plus one around the closure it records."""
        nid = self.name_id(f"nn.{op}")
        bwd_nid = self.name_id(f"nn.{op}.bwd")
        self._primitive_nids.add(nid)
        open_span, close_span, error = self.open, self.close, self.error
        count, closure = self.count, self._closure_wrapper
        conv = op in ("conv1d", "conv2d")

        def wrapper(*args, **kwargs):
            sid = open_span(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                close_span(sid)
                error(nid, err)
                raise
            close_span(sid)
            flops = 0.0
            if conv:
                # Weight [C_out, C_in, *kernel]; output [C_out, *positions].
                w = args[1]
                positions = out.values[0].size
                macs = w.values.size * positions
                count("conv_flop", 2.0 * macs)
                count("im2col_bytes", 8.0 * (w.values.size // w.shape[0]) * positions)
                # Backward: the weight gradient, plus the input gradient if any.
                flops = 2.0 * macs * (2 if args[0].requires_grad else 1)
            backward_fn = out._backward_fn
            if backward_fn is not None:
                out._backward_fn = closure(backward_fn, bwd_nid, flops)
            return out

        wrapper.__wrapped__ = fn
        return _mark(wrapper)

    def _after_hook(self, name: str):
        tracer = self
        if name == "nn.adam_step":
            def after(args, out):
                store = args[0]
                tracer.count("adam_values", store.n_values())
                if "layer1.w" in store.params:  # a discriminator store
                    tracer.d_adam_ends.append((tracer.op_id, perf_counter()))
            return after
        if name == "nn.load_params":
            def after(args, out):
                size = os.stat(args[0]).st_size
                tracer.count("prm1_bytes", size)
                if os.path.basename(args[0]) == _USED_STORE_FILE:
                    tracer.count("prm1_used_bytes", size)
            return after
        if name == "features.write_feature_file":
            def after(args, out):
                tracer.count("uff_bytes", os.stat(args[1]).st_size)
            return after
        return None

    def install(self) -> None:
        """Wrap every probe target; raises if already installed."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name, ops in _PRIMITIVES.items():
            module = importlib.import_module(module_name)
            for op in ops:
                self._replace(module, op, self._primitive(getattr(module, op), op))
        for module_name, attr, name in _SPANS:
            module = importlib.import_module(module_name)
            wrapped = self._span_wrapper(getattr(module, attr), name, self._after_hook(name))
            self._replace(module, attr, wrapped)
        for module_name, cls_name, attr, name in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._replace(cls, attr, self._span_wrapper(cls.__dict__[attr], name))

    def _replace(self, owner, attr: str, new) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Restore every original object, in reverse order of replacement."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def write_spans(self, path) -> None:
        """CSV of every span: id, parent, op, name, start/end in microseconds."""
        names = self._names
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,op,name,start_us,end_us\n")
            t0 = self.s_start[0] if len(self.s_start) else 0.0
            for sid in range(len(self.s_name)):
                out.write(
                    f"{sid},{self.s_parent[sid]},{self.s_op[sid]},{names[self.s_name[sid]]},"
                    f"{(self.s_start[sid] - t0) * 1e6:.3f},{(self.s_end[sid] - t0) * 1e6:.3f}\n"
                )

    def summarize(self, n_ops: int) -> dict:
        """Per-layer metrics: per op (totals over ops / n_ops) unless named per run."""
        names = self._names
        n = len(self.s_name)
        layer_of = [nm.split(".", 1)[0] for nm in names]
        op_nid = self._name_ids.get(OP_SPAN, -1)
        bwd_nid = self._name_ids.get("nn.backward", -1)
        other = {self._name_ids[nm] for nm in _OTHER_OPS if nm in self._name_ids}
        other |= {
            nid for nm, nid in self._name_ids.items()
            if nm.endswith(".bwd") and nm[: -len(".bwd")] in _OTHER_OPS
        }

        op_ms: dict[str, float] = {}
        op_calls: dict[str, int] = {}
        run_ms: dict[str, float] = {}
        child = [0.0] * n
        in_other = bytearray(n)  # span lies under a span counted as other_ops
        under_layer = bytearray(n)  # span lies under a non-cli layer span of an op
        other_ms = covered = op_total = backward_self = 0.0
        for sid in range(n):
            nid = self.s_name[sid]
            dur = self.s_end[sid] - self.s_start[sid]
            parent = self.s_parent[sid]
            if parent >= 0:
                child[parent] += dur
            if nid == op_nid:
                op_total += dur
                continue
            name = names[nid]
            if self.s_op[sid] < 0:
                run_ms[name] = run_ms.get(name, 0.0) + dur
                continue
            op_ms[name] = op_ms.get(name, 0.0) + dur
            op_calls[name] = op_calls.get(name, 0) + 1
            # Nested spans of one kind count once, through the outermost.
            parent_other = parent >= 0 and in_other[parent]
            if nid in other and not parent_other:
                other_ms += dur
            in_other[sid] = parent_other or nid in other
            parent_under = parent >= 0 and under_layer[parent]
            if layer_of[nid] != "cli" and not parent_under:
                covered += dur
            under_layer[sid] = parent_under or layer_of[nid] != "cli"
        for sid in range(n):  # children are all known now
            if self.s_name[sid] == bwd_nid and self.s_op[sid] >= 0:
                backward_self += self.s_end[sid] - self.s_start[sid] - child[sid]

        d_ms, g_ms = self._step_split()
        per = max(n_ops, 1)

        def ms(name):
            return 1000.0 * op_ms.get(name, 0.0) / per

        def calls(name):
            return op_calls.get(name, 0) / per

        def cnt(key):
            return self.op_counts.get(key, 0.0) / per

        loaded = self.op_counts.get("prm1_bytes", 0.0)
        metrics = {
            "cyclegan.train.d_step_ms": (d_ms / per, "ms"),
            "cyclegan.train.g_step_ms": (g_ms / per, "ms"),
            "nn.forward_generator.calls": (calls("nn.forward_generator"), "count"),
            "nn.forward_discriminator.calls": (calls("nn.forward_discriminator"), "count"),
            "nn.conv1d.fwd_ms": (ms("nn.conv1d"), "ms"),
            "nn.conv1d.bwd_ms": (ms("nn.conv1d.bwd"), "ms"),
            "nn.conv2d.fwd_ms": (ms("nn.conv2d"), "ms"),
            "nn.conv2d.bwd_ms": (ms("nn.conv2d.bwd"), "ms"),
            "nn.conv.gflop": (cnt("conv_flop") / 1e9, "GFLOP"),
            "nn.im2col_mb": (cnt("im2col_bytes") / 1e6, "MB"),
            "nn.instance_norm.fwd_ms": (ms("nn.instance_norm"), "ms"),
            "nn.instance_norm.bwd_ms": (ms("nn.instance_norm.bwd"), "ms"),
            "nn.glu.ms": (ms("nn.glu") + ms("nn.glu.bwd"), "ms"),
            "nn.other_ops.ms": (1000.0 * other_ms / per, "ms"),
            "nn.op_calls": (
                sum(op_calls.get(names[nid], 0) for nid in self._primitive_nids) / per, "count"),
            "nn.backward.self_ms": (1000.0 * backward_self / per, "ms"),
            "nn.adam_step.ms": (ms("nn.adam_step"), "ms"),
            "nn.adam_step.values": (cnt("adam_values"), "count"),
            "cyclegan.load_model_checkpoint.calls": (
                calls("cyclegan.load_model_checkpoint"), "count"),
            "cyclegan.load_model_checkpoint.ms": (ms("cyclegan.load_model_checkpoint"), "ms"),
            "nn.load_params.mb": (cnt("prm1_bytes") / 1e6, "MB"),
            "nn.load_params.useful_ratio": (
                self.op_counts.get("prm1_used_bytes", 0.0) / loaded if loaded else 0.0,
                "ratio"),
            "prosody.cwt_decompose.calls": (calls("prosody.cwt_decompose"), "count"),
            "prosody.cwt_decompose.ms": (ms("prosody.cwt_decompose"), "ms"),
            "prosody.preprocess_f0.ms": (ms("prosody.preprocess_f0"), "ms"),
            "prosody.cwt_reconstruct.ms": (ms("prosody.cwt_reconstruct"), "ms"),
            "cyclegan.model_convert.calls": (calls("cyclegan.model_convert"), "count"),
            "cyclegan.model_convert.ms": (ms("cyclegan.model_convert"), "ms"),
            "baseline.lg_transform.ms": (ms("baseline.lg_transform"), "ms"),
            "features.write_feature_file.ms": (ms("features.write_feature_file"), "ms"),
            "features.write_feature_file.mb": (cnt("uff_bytes") / 1e6, "MB"),
            "metrics.evaluate_pairs.ms": (1000.0 * run_ms.get("metrics.evaluate_pairs", 0.0), "ms"),
            "cli.generate_corpus_s": (run_ms.get("cli.generate_corpus", 0.0), "s"),
            "features.load_corpus_s": (run_ms.get("features.load_corpus", 0.0), "s"),
            "cli.features_for_mode_s": (run_ms.get("cli.features_for_mode", 0.0), "s"),
            "cli.train_mode_s": (run_ms.get("cli.train_mode", 0.0), "s"),
            "cyclegan.save_model_checkpoint_ms": (
                1000.0 * run_ms.get("cyclegan.save_model_checkpoint", 0.0), "ms"),
            "trace.coverage": (covered / op_total if op_total else 0.0, "ratio"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.errors"] = (float(self.errors[layer]), "count")
        return metrics

    def _step_split(self) -> tuple[float, float]:
        """Total D-step and G-step time over ops, split at the 2nd D-store Adam step."""
        op_nid = self._name_ids.get(OP_SPAN, -1)
        split: dict[int, float] = {}
        seen: dict[int, int] = {}
        for op, when in self.d_adam_ends:
            seen[op] = seen.get(op, 0) + 1
            if seen[op] == 2:
                split[op] = when
        d_total = g_total = 0.0
        for sid in range(len(self.s_name)):
            if self.s_name[sid] == op_nid and self.s_op[sid] in split:
                at = split[self.s_op[sid]]
                d_total += at - self.s_start[sid]
                g_total += self.s_end[sid] - at
        return 1000.0 * d_total, 1000.0 * g_total
