"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads
from prosodia.cli.synth import SynthCorpusSpec
from prosodia.cyclegan.model import MODE_JOINT, MODE_PROSODY
from prosodia.nn import tensor
from tracing import PROBE_MARK, Tracer

BENCH_DIR = Path(workloads.__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_CORPUS = SynthCorpusSpec(n_train_each=3, n_eval=2, frames_min=64, frames_max=80)
TINY = {
    "train-desk": workloads.TrainSpec(
        MODE_JOINT, base_channels=2, segment_frames=16, epoch_iters=6, n_residual=1,
        corpus=TINY_CORPUS,
    ),
    "train-micro": workloads.TrainSpec(
        MODE_PROSODY, base_channels=2, segment_frames=16, epoch_iters=6, n_residual=1,
        corpus=TINY_CORPUS,
    ),
    "convert-eval": workloads.ConvertSpec(
        base_channels=2, n_residual=1, segment_frames=16, train_iters=1, corpus=TINY_CORPUS,
    ),
}


def tiny_workload(name):
    spec = TINY[name]
    if isinstance(spec, workloads.ConvertSpec):
        return workloads.ConvertWorkload(spec)
    return workloads.TrainWorkload(spec)


def probes_left():
    """Every tracer wrapper still reachable from a prosodia module or class."""
    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("prosodia"):
            continue
        for attr, value in vars(module).items():
            if getattr(value, PROBE_MARK, False):
                found.append(f"{name}.{attr}")
            if inspect.isclass(value):
                found += [
                    f"{name}.{attr}.{m}" for m, v in vars(value).items()
                    if getattr(v, PROBE_MARK, False)
                ]
    return found


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_MIN_S", 0.0)
    outcome = workloads.run_untraced(tiny_workload(name), seed=3, seconds=0, work_dir=tmp_path)
    assert len(outcome.details["setup_times_s"]) == workloads.SETUP_REPS
    assert outcome.failed == 0, outcome.details["tracebacks"]
    assert outcome.attempted >= 1
    for metric in SPEC["end_to_end"]:
        value, unit = outcome.metrics[metric["name"]]
        assert unit == metric["unit"], metric["name"]
        assert value > 0, metric["name"]
    assert not probes_left()


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    spans = tmp_path / "spans.csv"
    outcome = workloads.run_traced(
        tiny_workload(name), seed=3, seconds=0, work_dir=tmp_path / "work", spans_path=spans
    )
    # failed == 0 includes the traced replay matching the untraced ops byte for byte.
    assert outcome.failed == 0, outcome.details["tracebacks"]
    assert outcome.details["replay_mismatches"] == 0
    for metric in SPEC["per_layer"]:
        value, unit = outcome.metrics[metric["name"]]
        assert unit == metric["unit"], metric["name"]
        assert np.isfinite(value), metric["name"]
    assert 0.0 < outcome.metrics["trace.coverage"][0] <= 1.0
    assert spans.read_text(encoding="utf-8").startswith("id,parent,op,name,")
    assert not probes_left()


def test_training_counts_match_the_schedule(tmp_path):
    """Per iteration: 6 generator forwards, 2 more while the identity loss is on."""
    outcome = workloads.run_traced(
        tiny_workload("train-micro"), seed=3, seconds=0, work_dir=tmp_path
    )
    iters = TINY["train-micro"].epoch_iters
    identity_on = iters // 3 - 1  # iterations t < iters // 3, counting from 1
    expected = (6 * iters + 2 * identity_on) / iters
    assert outcome.metrics["nn.forward_generator.calls"][0] == pytest.approx(expected)
    assert outcome.metrics["nn.forward_discriminator.calls"][0] == 6


def test_uninstall_restores_every_original():
    targets = [(m, a) for m, ops in tracing._PRIMITIVES.items() for a in ops]
    targets += [(m, a) for m, a, _ in tracing._SPANS]
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a in targets}
    model_cls = importlib.import_module("prosodia.cyclegan.model").CycleGanModel
    convert_before = model_cls.__dict__["convert"]

    tracer = Tracer()
    tracer.install()
    assert probes_left()
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()

    for (m, a), original in before.items():
        assert getattr(importlib.import_module(m), a) is original, f"{m}.{a}"
    assert model_cls.__dict__["convert"] is convert_before
    assert not probes_left()
    # Ops built after uninstall record the program's own backward closures.
    x = tensor.Tensor(np.ones((1, 8)), requires_grad=True)
    w = tensor.Tensor(np.ones((1, 1, 3)), requires_grad=True)
    out = importlib.import_module("prosodia.nn.network").conv1d(x, w, None)
    assert not getattr(out._backward_fn, PROBE_MARK, False)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    """With only BENCHMARK.json and bench/ present the run fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-micro", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
