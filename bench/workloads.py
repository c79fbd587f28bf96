"""The benchmark's workloads: set-up from a seed, timed closed-loop ops, checks.

Each workload builds its inputs from the workload seed (a corpus seed and a
training seed are derived from it), then runs "units" back to back in one
thread until the time budget is spent. A unit is a run of ops whose outcome
does not depend on how long the run is: one ``train()`` call of a fixed
number of iterations (training), or one pass over the held-out utterances
(conversion). An op is one training iteration or one utterance converted by
every system. Every op is checked; the traced replay must reproduce the
untraced ops byte for byte.
"""

from __future__ import annotations

import copy
import hashlib
import math
import resource
import shutil
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import prosodia.metrics
from prosodia.cli import pipeline, synth
from prosodia.cli.config import MODE_BASELINE, NetworkOverrides, RunConfig, SplitSpec
from prosodia.cyclegan import LossWeights, TrainSchedule, build_model, train
from prosodia.cyclegan.model import MODE_JOINT, MODE_PROSODY, MODE_SPECTRUM
from prosodia.features import read_feature_file

from tracing import Tracer

# An untraced run sets up at least SETUP_REPS times and for at least
# SETUP_MIN_S seconds; setup_s is the median. Short set-ups repeat more often
# so that their median spans as much time as that of the long ones.
SETUP_REPS = 3
SETUP_MIN_S = 5.0
LAMBDA_CYC = LAMBDA_ID = 5.0  # the desk recipe's weights
MAX_TRACEBACKS = 5


def derive_seeds(seed: int) -> tuple[int, int]:
    """Corpus seed and training seed for one workload seed."""
    corpus_seed, train_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(corpus_seed), int(train_seed)


class OpClock:
    """Start and end of every op; with a tracer, also the op's root span."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.ops: list[list[float]] = []  # [start, end] per op
        self._running = False

    def start(self) -> None:
        now = perf_counter()
        self.stop(now)
        self.ops.append([now, 0.0])
        self._running = True
        if self.tracer is not None:
            self.tracer.begin_op(len(self.ops) - 1)

    def stop(self, now: float | None = None) -> None:
        if not self._running:
            return
        self.ops[-1][1] = perf_counter() if now is None else now
        self._running = False
        if self.tracer is not None:
            self.tracer.end_op()


class ClockedSchedule(TrainSchedule):
    """A training schedule that starts an op on its clock at every iteration.

    ``train()`` asks for the learning rates first thing in each iteration,
    so that call marks the iteration boundary with no hook in the program.
    """

    def learning_rate(self, base_lr: float, iteration: int) -> float:
        if iteration != self.clock_iteration:
            self.clock_iteration = iteration
            self.clock.start()
        return super().learning_rate(base_lr, iteration)


@dataclass
class OpResult:
    frames: int
    ok: bool
    digest: bytes  # compared between the untraced run and the traced replay


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


# -- training -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainSpec:
    """One mode trained at one network size; a unit is ``epoch_iters`` iterations.

    The identity loss is on for the first third of each unit's iterations
    (``t < epoch_iters // 3``, as the desk recipe's 500 of 1500), and the
    learning rate is constant for that third and then decays to zero.
    """

    mode: str
    base_channels: int
    segment_frames: int
    epoch_iters: int
    n_residual: int = 4
    corpus: synth.SynthCorpusSpec = field(default_factory=synth.SynthCorpusSpec)


@dataclass
class TrainState:
    model: object
    source: list
    target: list
    train_seed: int
    work_dir: Path


class TrainWorkload:
    def __init__(self, spec: TrainSpec):
        self.spec = spec

    def setup(self, seed: int, work_dir: Path) -> TrainState:
        spec = self.spec
        corpus_seed, train_seed = derive_seeds(seed)
        manifest = synth.generate_corpus(spec.corpus, corpus_seed, work_dir / "corpus")
        config = RunConfig(
            manifest=manifest,
            seed=train_seed,
            split=SplitSpec(n_train_each=spec.corpus.n_train_each, n_eval=spec.corpus.n_eval),
        )
        split = pipeline.load_split(config)
        source = pipeline.features_for_mode(spec.mode, split.source_set, config.wavelet)
        target = pipeline.features_for_mode(spec.mode, split.target_set, config.wavelet)
        model = build_model(
            spec.mode,
            n_scales=config.wavelet.n_scales,
            base_channels=spec.base_channels,
            n_residual=spec.n_residual,
            seed=train_seed,
        )
        return TrainState(model, source, target, train_seed, work_dir)

    def snapshot(self, state: TrainState):
        return copy.deepcopy(state.model)

    def restore(self, state: TrainState, snapshot) -> None:
        state.model = copy.deepcopy(snapshot)

    def run_unit(self, state: TrainState, index: int, clock: OpClock, errors: list) -> list:
        spec = self.spec
        n = spec.epoch_iters
        schedule = ClockedSchedule(
            total_iters=n,
            constant_lr_iters=n // 3,
            decay_iters=n - n // 3,
            segment_frames=spec.segment_frames,
            seed=state.train_seed + index,
        )
        schedule.clock, schedule.clock_iteration = clock, 0
        weights = LossWeights(lambda_cyc=LAMBDA_CYC, lambda_id=LAMBDA_ID, id_cutoff_iters=n // 3)
        first = len(clock.ops)
        try:
            _, loss_log = train(state.model, state.source, state.target, weights, schedule)
        except Exception:
            clock.stop()
            errors.append(traceback.format_exc())
            return [
                OpResult(2 * spec.segment_frames, False, b"")
                for _ in range(len(clock.ops) - first)
            ]
        clock.stop()
        # The loss log as the program writes it: one CSV line per iteration.
        path = state.work_dir / "losslog.csv"
        loss_log.to_csv(path)
        lines = path.read_bytes().splitlines()[1:]
        return [
            OpResult(2 * spec.segment_frames, all(math.isfinite(v) for v in row[1:]), line)
            for row, line in zip(loss_log.rows, lines)
        ]

    def final_checks(self, state: TrainState) -> tuple[list, dict]:
        return [], {}


# -- conversion ---------------------------------------------------------------


@dataclass(frozen=True)
class ConvertSpec:
    """Checkpoints trained for ``train_iters`` iterations at one network size."""

    base_channels: int = 32
    n_residual: int = 4
    segment_frames: int = 128
    train_iters: int = 3
    corpus: synth.SynthCorpusSpec = field(
        default_factory=lambda: synth.SynthCorpusSpec(n_eval=20)
    )


@dataclass
class ConvertState:
    systems: dict
    sources: list
    targets: list
    out_dir: Path
    converted: dict = field(default_factory=dict)


class ConvertWorkload:
    def __init__(self, spec: ConvertSpec):
        self.spec = spec

    def setup(self, seed: int, work_dir: Path) -> ConvertState:
        spec = self.spec
        corpus_seed, train_seed = derive_seeds(seed)
        manifest = synth.generate_corpus(spec.corpus, corpus_seed, work_dir / "corpus")
        n = spec.train_iters
        config = RunConfig(
            manifest=manifest,
            network=NetworkOverrides(base_channels=spec.base_channels, n_residual=spec.n_residual),
            weights=LossWeights(lambda_cyc=LAMBDA_CYC, lambda_id=LAMBDA_ID, id_cutoff_iters=n),
            schedule=TrainSchedule(
                total_iters=n, constant_lr_iters=n, decay_iters=0,
                segment_frames=spec.segment_frames, seed=train_seed,
            ),
            seed=train_seed,
            split=SplitSpec(n_train_each=spec.corpus.n_train_each, n_eval=spec.corpus.n_eval),
        )
        split = pipeline.load_split(config)
        ckpt = work_dir / "ckpt"
        for mode in (MODE_SPECTRUM, MODE_PROSODY, MODE_JOINT):
            pipeline.train_mode(config, mode, split, ckpt / mode)
        pipeline.train_baseline(config, split, ckpt / MODE_BASELINE)
        # The three systems of `prosodia compare`, with its checkpoint wiring.
        systems = {
            "baseline": dict(
                mode=MODE_BASELINE,
                baseline_ckpt=ckpt / MODE_BASELINE,
                spectrum_ckpt=ckpt / MODE_SPECTRUM,
            ),
            "joint": dict(mode=MODE_JOINT, joint_ckpt=ckpt / MODE_JOINT),
            "separate": dict(
                mode="separate",
                spectrum_ckpt=ckpt / MODE_SPECTRUM,
                prosody_ckpt=ckpt / MODE_PROSODY,
            ),
        }
        return ConvertState(
            systems=systems,
            sources=[s for s, _ in split.eval_pairs],
            targets=[t for _, t in split.eval_pairs],
            out_dir=work_dir / "converted",
        )

    def snapshot(self, state: ConvertState):
        return None

    def restore(self, state: ConvertState, snapshot) -> None:
        pass

    def run_unit(self, state: ConvertState, index: int, clock: OpClock, errors: list) -> list:
        results = []
        if index == 0:  # the first pass's outputs are the ones evaluated
            state.converted = {}
        for utt in state.sources:
            clock.start()
            try:
                outs = {
                    system: pipeline.convert_directory(
                        [utt], state.out_dir / system, stats_policy="target", **kwargs
                    )[0]
                    for system, kwargs in state.systems.items()
                }
            except Exception:
                clock.stop()
                errors.append(traceback.format_exc())
                results.append(OpResult(utt.n_frames, False, b""))
                continue
            clock.stop()
            if index == 0:
                for system, out in outs.items():
                    state.converted.setdefault(system, []).append(out)
            results.append(self._check_written(state, utt))
        return results

    def _check_written(self, state: ConvertState, utt) -> OpResult:
        """Each written UFF keeps the source's frame count and voicing."""
        digest = hashlib.sha256()
        ok = True
        voicing = np.asarray(utt.f0_hz) > 0
        for system in state.systems:
            path = state.out_dir / system / f"{utt.utterance_id}.uff"
            digest.update(path.read_bytes())
            written = read_feature_file(path)
            ok = ok and written.n_frames == utt.n_frames
            ok = ok and bool(np.array_equal(np.asarray(written.f0_hz) > 0, voicing))
        return OpResult(utt.n_frames, ok, digest.digest())

    def final_checks(self, state: ConvertState) -> tuple[list, dict]:
        """Finite MCD, RMSE and PCC per system; the values are a fingerprint only."""
        checks, fingerprint = [], {}
        for system in state.systems:
            converted = state.converted.get(system, [])
            try:
                report = prosodia.metrics.evaluate_pairs(converted, state.targets)
            except Exception as err:
                checks.append(Check(f"evaluate_pairs[{system}]", False, repr(err)))
                continue
            values = (report.mean_mcd, report.mean_rmse, report.mean_pcc)
            fingerprint[system] = dict(zip(("mcd_db", "rmse_hz", "pcc"), values))
            checks.append(Check(
                f"evaluate_pairs[{system}]", all(math.isfinite(v) for v in values)
            ))
        return checks, fingerprint


# Network sizes: desk (paper topology at desk width) and C7's micro model.
TRAIN_DESK = TrainSpec(MODE_JOINT, base_channels=32, segment_frames=128, epoch_iters=30)
TRAIN_MICRO = TrainSpec(MODE_PROSODY, base_channels=4, segment_frames=64, epoch_iters=60)
CONVERT_EVAL = ConvertSpec()

WORKLOADS = {
    "train-desk": TrainWorkload(TRAIN_DESK),
    "train-micro": TrainWorkload(TRAIN_MICRO),
    "convert-eval": ConvertWorkload(CONVERT_EVAL),
}


# -- running ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one run measured; ``metrics`` maps name -> (value, unit)."""

    metrics: dict
    attempted: int
    failed: int
    checks: list
    details: dict


def _run_units(workload, state, clock: OpClock, errors: list, seconds: float):
    """Closed loop of units, at least one, until ``seconds`` have passed."""
    results = []
    t0 = perf_counter()
    units = 0
    while units == 0 or perf_counter() - t0 < seconds:
        results += workload.run_unit(state, units, clock, errors)
        units += 1
    _check_timed(results, clock)
    return results, units


def _check_timed(results: list, clock: OpClock) -> None:
    if len(results) != len(clock.ops):
        raise RuntimeError(f"{len(results)} op results for {len(clock.ops)} timed ops")


def _frames_per_s(results: list, clock: OpClock) -> float:
    busy = sum(end - start for start, end in clock.ops)
    return sum(r.frames for r in results) / busy


def _tally(results: list, checks: list) -> tuple[int, int]:
    attempted = len(results) + len(checks)
    failed = sum(not r.ok for r in results) + sum(not c.ok for c in checks)
    return attempted, failed


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_untraced(workload, seed: int, seconds: float, work_dir: Path) -> Outcome:
    """End-to-end metrics: repeated set-up, then ops until ``seconds`` pass."""
    setup_times: list[float] = []
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
        if setup_times:
            del state
            shutil.rmtree(rep_dir)
        rep_dir = _fresh(work_dir / f"setup{len(setup_times)}")
        t0 = perf_counter()
        state = workload.setup(seed, rep_dir)
        setup_times.append(perf_counter() - t0)
    clock = OpClock()
    errors: list = []
    results, units = _run_units(workload, state, clock, errors, seconds)
    checks, fingerprint = workload.final_checks(state)
    attempted, failed = _tally(results, checks)
    op_ms = [1000.0 * (end - start) for start, end in clock.ops]
    metrics = {
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.p90": (
            statistics.quantiles(op_ms, n=10, method="inclusive")[-1]
            if len(op_ms) > 1 else op_ms[0],
            "ms",
        ),
        "frames_per_s": (_frames_per_s(results, clock), "frames/s"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        # Linux reports the process's peak resident set in KiB.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "ops": len(results),
        "units": units,
        "setup_times_s": setup_times,
        "fingerprint": fingerprint,
        "tracebacks": errors[:MAX_TRACEBACKS],
    }
    return Outcome(metrics, attempted, failed, checks, details)


def run_traced(workload, seed: int, seconds: float, work_dir: Path, spans_path=None) -> Outcome:
    """Per-layer metrics: a traced set-up, then every unit run twice.

    Each unit runs untraced, then again from the same starting state with
    the tracer installed, until ``seconds`` have passed. The traced replay
    must reproduce every op's output byte for byte. The throughput ratio of
    the two is the tracing overhead; pairing them unit by unit keeps drift in
    the machine's speed out of that ratio.
    """
    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup(seed, _fresh(work_dir / "setup"))
    finally:
        tracer.uninstall()

    plain_clock, traced_clock = OpClock(), OpClock(tracer)
    plain, traced, errors = [], [], []
    t0 = perf_counter()
    units = 0
    while units == 0 or perf_counter() - t0 < seconds:
        snapshot = workload.snapshot(state)
        plain += workload.run_unit(state, units, plain_clock, errors)
        workload.restore(state, snapshot)
        tracer.install()
        try:
            traced += workload.run_unit(state, units, traced_clock, errors)
        finally:
            tracer.uninstall()
        units += 1
    _check_timed(plain, plain_clock)
    _check_timed(traced, traced_clock)
    tracer.install()
    try:
        checks, fingerprint = workload.final_checks(state)
    finally:
        tracer.uninstall()

    # An op whose traced output differs from its untraced output fails.
    mismatched = 0
    for plain_op, traced_op in zip(plain, traced):
        if plain_op.digest != traced_op.digest:
            traced_op.ok = False
            mismatched += 1
    attempted, failed = _tally(traced, checks)

    metrics = tracer.summarize(len(traced))
    overhead = _frames_per_s(plain, plain_clock) / _frames_per_s(traced, traced_clock) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")
    if spans_path is not None:
        tracer.write_spans(spans_path)
    details = {
        "ops": len(traced),
        "units": units,
        "spans": len(tracer.s_name),
        "replay_mismatches": mismatched,
        "fingerprint": fingerprint,
        "tracebacks": errors[:MAX_TRACEBACKS],
    }
    return Outcome(metrics, attempted, failed, checks, details)
