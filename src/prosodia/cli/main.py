"""Command-line interface: corpus tools, training, conversion, evaluation."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from prosodia import __version__
from prosodia.errors import ProsodiaError, ValidationError
from prosodia.cli import pipeline
from prosodia.cli.config import (
    ALIGN_NAMES,
    CLI_MODES,
    MODE_BASELINE,
    MODE_NAMES,
    RunConfig,
    load_run_config,
)
from prosodia.cli.synth import SynthCorpusSpec, generate_corpus
from prosodia.csvio import format_cell, write_table
from prosodia.cyclegan.checkpoint import check_finished
from prosodia.cyclegan.convert import reconstruct_f0
from prosodia.cyclegan.model import MODES
from prosodia.features import load_corpus, read_feature_file, write_feature_file
from prosodia.jsonio import json_text, read_record, write_json
from prosodia.metrics import ALIGN_NONE, evaluate_pairs, write_report_csv
from prosodia.prosody import (
    cwt_decompose,
    export_scalogram_csv,
    pooled_log_f0_stats,
    preprocess_f0,
)
from prosodia.prosody.cwt_cache import read_cwt_cache, write_cwt_cache

log = logging.getLogger("prosodia")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _setup_logging() -> None:
    level = os.environ.get("PROSODIA_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        level = "info"
    logging.basicConfig(
        stream=sys.stderr, level=levels[level], format="%(levelname)s %(name)s: %(message)s"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prosodia",
        description=(
            "Feature-level emotional voice conversion: wavelet prosody analysis, "
            "adversarial feature mapping, and objective evaluation."
        ),
    )
    parser.add_argument("--version", action="version", version=f"prosodia {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="generate a synthetic two-emotion corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=20, help="training utterances per side")
    p.add_argument("--n-eval", type=int, default=5, help="held-out parallel eval pairs")
    p.add_argument("--synth-spec", help="JSON file overriding generator parameters")

    p = sub.add_parser("preprocess", help="validate a corpus and report per-emotion stats")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="write stats JSON here (default: stdout)")

    p = sub.add_parser("decompose", help="wavelet-decompose one utterance's F0")
    p.add_argument("--input", required=True, help="UFF feature file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="run config supplying wavelet parameters")

    p = sub.add_parser("reconstruct", help="rebuild F0 from a decomposition cache")
    p.add_argument("--cache", required=True, help="binary cache from decompose")
    p.add_argument("--reference", required=True, help="UFF providing MCEPs and metadata")
    p.add_argument("--out", required=True, help="output UFF path")

    p = sub.add_parser("train", help="train one conversion system")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=tuple(MODE_NAMES))
    p.add_argument("--seed", type=int)
    p.add_argument("--paper-scale", action="store_true",
                   help="use the full-scale published training schedule")
    p.add_argument("--out", required=True, help="checkpoint directory")

    p = sub.add_parser("convert", help="convert feature files with trained checkpoints")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=tuple(MODE_NAMES))
    p.add_argument("--seed", type=int)
    for name in CLI_MODES:
        p.add_argument(f"--{name}-ckpt")
    p.add_argument("--inputs", nargs="*", help="UFF files (default: the split's eval sources)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="objective metrics between two feature directories")
    p.add_argument("--converted", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--align", choices=tuple(ALIGN_NAMES), default=ALIGN_NONE)
    p.add_argument("--out", help="report CSV path (default: <converted>/report.csv)")

    p = sub.add_parser("compare", help="train and evaluate all systems per emotion pair")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--paper-scale", action="store_true")
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ProsodiaError, OSError) as err:
        log.error("%s", err)
        print(f"{'i/o error' if isinstance(err, OSError) else 'error'}: {err}", file=sys.stderr)
        return EXIT_VALIDATION if isinstance(err, ValidationError) else EXIT_RUNTIME


def _dispatch(args) -> int:
    handlers = {
        "synth-corpus": cmd_synth_corpus,
        "preprocess": cmd_preprocess,
        "decompose": cmd_decompose,
        "reconstruct": cmd_reconstruct,
        "train": cmd_train,
        "convert": cmd_convert,
        "evaluate": cmd_evaluate,
        "compare": cmd_compare,
    }
    return handlers[args.command](args)


def _config_overrides(args) -> dict:
    """Run-config overrides from --mode, --seed and --paper-scale (None where not given)."""
    return {name: getattr(args, name, None) for name in ("mode", "seed", "paper_scale")}


def cmd_synth_corpus(args) -> int:
    if args.synth_spec:
        spec = read_record(
            args.synth_spec, SynthCorpusSpec, ValidationError,
            defaults={"n_train_each": args.n_train, "n_eval": args.n_eval},
        )
    else:
        spec = SynthCorpusSpec(n_train_each=args.n_train, n_eval=args.n_eval)
    with pipeline.OutputDir(args.out) as out:
        manifest = generate_corpus(spec, seed=args.seed, out_dir=out)
    log.info("wrote %d files and %s", 2 * spec.n_ids, manifest)
    print(manifest)
    return EXIT_OK


def cmd_preprocess(args) -> int:
    corpus = load_corpus(args.manifest)
    stats = {}
    for emotion, utterances in sorted(corpus.items()):
        pooled = pooled_log_f0_stats(utterances)
        stats[emotion] = {
            "n_utterances": len(utterances),
            "n_frames": int(sum(u.n_frames for u in utterances)),
            "log_f0": pooled,
        }
    if args.out:
        write_json(args.out, stats)
    else:
        sys.stdout.write(json_text(stats))
    return EXIT_OK


def cmd_decompose(args) -> int:
    config = load_run_config(args.config) if args.config else RunConfig()
    utt = read_feature_file(args.input)
    contour = preprocess_f0(utt.f0_hz)
    matrix = cwt_decompose(contour.values, config.wavelet)
    with pipeline.OutputDir(args.out) as out:
        stem = Path(args.input).stem
        export_scalogram_csv(matrix, out / f"{stem}.scalogram.csv")
        write_cwt_cache(out / f"{stem}.cwt", matrix, contour.stats, contour.voicing_mask)
    log.info("decomposed %s into %d scales x %d frames", args.input,
             matrix.params.n_scales, matrix.n_frames)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    matrix, stats, voicing = read_cwt_cache(args.cache)
    reference = read_feature_file(args.reference)
    if reference.n_frames != matrix.n_frames:
        raise ValidationError(
            f"reference has {reference.n_frames} frames, cache has {matrix.n_frames}"
        )
    f0 = reconstruct_f0(matrix, stats, voicing)
    write_feature_file(replace(reference, f0_hz=f0.astype(np.float32)), args.out)
    return EXIT_OK


def cmd_train(args) -> int:
    config = load_run_config(args.config, overrides=_config_overrides(args))
    split = pipeline.load_split(config)
    if config.mode == MODE_BASELINE:
        pipeline.train_baseline(config, split, args.out)
    else:
        pipeline.train_mode(config, config.mode, split, args.out)
    log.info("checkpoint written to %s", args.out)
    return EXIT_OK


def cmd_convert(args) -> int:
    config = load_run_config(args.config, overrides=_config_overrides(args))
    if args.inputs:
        inputs = [read_feature_file(p) for p in args.inputs]
    else:
        split = pipeline.load_split(config)
        inputs = [src for src, _ in split.eval_pairs]
        if not inputs:
            raise ValidationError("no eval sources in split and no --inputs given")
    system = config.mode if config.mode in pipeline.SYSTEMS else pipeline.SEPARATE
    ckpts = {f"{name}_ckpt": getattr(args, f"{name}_ckpt") for name in CLI_MODES}
    pipeline.convert_directory(
        inputs, args.out, mode=system, stats_policy=config.stats_policy, **ckpts
    )
    log.info("converted %d utterances into %s", len(inputs), args.out)
    return EXIT_OK


def _load_uff_dir(directory) -> dict:
    files = sorted(check_finished(directory).glob("*.uff"))
    return {f.stem: read_feature_file(f) for f in files}


def cmd_evaluate(args) -> int:
    converted = _load_uff_dir(args.converted)
    reference = _load_uff_dir(args.reference)
    common = sorted(set(converted) & set(reference))
    if not common:
        raise ValidationError(
            f"no common utterance ids between {args.converted} and {args.reference}"
        )
    report = evaluate_pairs(
        [converted[k] for k in common], [reference[k] for k in common],
        align=ALIGN_NAMES[args.align],
    )
    out = Path(args.out) if args.out else Path(args.converted) / "report.csv"
    write_report_csv(report, out)
    print(f"pairs={len(report.rows)} mean_mcd={report.mean_mcd:.6g} dB "
          f"mean_rmse={report.mean_rmse:.6g} Hz mean_pcc={report.mean_pcc:.6g}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = load_run_config(args.config, overrides=_config_overrides(args))
    pairs = config.pairs or [(config.split.source_emotion, config.split.target_emotion)]
    rows = []
    with pipeline.OutputDir(args.out) as out:
        for source, target in pairs:
            split = replace(config.split, source_emotion=source, target_emotion=target)
            results = _run_pair(replace(config, split=split), out / f"{source}2{target}")
            for system in pipeline.SYSTEMS:
                rows.append((f"{source}->{target}", system, results[system]))
        _write_compare_outputs(out, rows)
    print((out / "comparison.txt").read_text(encoding="utf-8"), end="")
    return EXIT_OK


def _run_pair(config: RunConfig, pair_dir: Path) -> dict:
    """Train all systems for one emotion pair and evaluate the eval set.

    The baseline shares the spectrum model with the separate system (its
    spectral mapping is the same network; only F0 handling differs).
    """
    split = pipeline.load_split(config)
    eval_sources = [src for src, _ in split.eval_pairs]
    eval_targets = [tgt for _, tgt in split.eval_pairs]
    if not eval_sources:
        raise ValidationError("compare needs a non-empty eval set (n_eval >= 1)")
    pipeline.check_output_ids(eval_targets)
    pipeline.check_output_ids(eval_sources)

    with pipeline.OutputDir(pair_dir) as pdir:
        reference_dir = pdir / "reference"
        with pipeline.OutputDir(reference_dir) as ref:
            for utt in eval_targets:
                write_feature_file(utt, ref / f"{utt.utterance_id}.uff")

        for mode, entry in MODES.items():
            pipeline.train_mode(config, mode, split, pdir / entry.name)
        pipeline.train_baseline(config, split, pdir / MODE_BASELINE)

        results = {}
        # every system takes the checkpoints it needs from the same four
        ckpts = {f"{name}_ckpt": pdir / name for name in CLI_MODES}
        for system in pipeline.SYSTEMS:
            try:
                converted = pipeline.convert_directory(
                    eval_sources,
                    pair_dir / f"converted_{system}",
                    mode=system,
                    stats_policy=config.stats_policy,
                    **ckpts,
                )
                report = evaluate_pairs(converted, eval_targets, align=config.align)
                write_report_csv(report, pair_dir / f"report_{system}.csv")
                results[system] = (report.mean_mcd, report.mean_rmse, report.mean_pcc)
            except ProsodiaError as err:
                log.error("system %s failed: %s", system, err)
                results[system] = None
    return results


def _write_compare_outputs(out: Path, rows: list) -> None:
    """``comparison.csv`` and, from the same table, ``comparison.txt``."""
    failed = ("FAILED",) * 3
    table = [(pair, system, *(cells or failed)) for pair, system, cells in rows]
    for system in pipeline.SYSTEMS:
        scored = [cells for _, name, cells in rows if name == system and cells is not None]
        table.append(("MEAN", system, *(np.mean(np.asarray(scored), axis=0) if scored else failed)))
    write_table(out / "comparison.csv", ("pair", "system", "mcd_db", "rmse_hz", "pcc"), table, 9)

    header = f"{'pair':<12} {'system':<10} {'MCD [dB]':>10} {'RMSE [Hz]':>10} {'PCC':>8}"
    text = [header, "-" * len(header)]
    for pair, system, *cells in table:
        # a figure rounds the 9-digit value in comparison.csv, not the full float
        m, r, p = (c if isinstance(c, str) else f"{float(format_cell(c, 9)):.3f}" for c in cells)
        text.append(f"{pair:<12} {system:<10} {m:>10} {r:>10} {p:>8}")
    (out / "comparison.txt").write_text("\n".join(text) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
