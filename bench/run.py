"""Run one benchmark workload against the prosodia sources beside this file.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/`` of the
same tree, never from an installed copy. BLAS, OpenMP and MKL are pinned to
one thread before numpy is imported. ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer metrics. Scratch files, the run record
and the span dump go to ``.bench_out/``. The last line of standard output is
the result as JSON; the lines before it are ``#`` comments for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> dict:
    """Set every BLAS thread variable to 1; returns the caller's values."""
    caller = {var: os.environ.get(var) for var in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return caller


def import_program() -> None:
    """Put this tree's ``src/`` first on the path and check prosodia comes from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    try:
        import prosodia
    except ImportError as err:
        raise SystemExit(f"bench: cannot import prosodia from {src}: {err}") from err
    if Path(prosodia.__file__).resolve().parent != src / "prosodia":
        raise SystemExit(f"bench: prosodia was imported from {prosodia.__file__}, not {src}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(caller_threads: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "caller_threads": caller_threads,
        # The caller asked for another thread count; the run still used 1.
        "threads_overridden": any(v not in (None, "1") for v in caller_threads.values()),
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="train-desk, train-micro or convert-eval")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    caller_threads = pin_threads()
    import_program()
    from workloads import WORKLOADS, run_traced, run_untraced

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}.csv"
            outcome = run_traced(workload, args.seed, args.seconds, work, spans_path=spans)
        else:
            outcome = run_untraced(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(caller_threads)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(outcome.metrics.items())
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "checks": [vars(c) for c in outcome.checks],
        **outcome.details,
        "result": result,
    }
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{outcome.details['ops']} ops, {outcome.attempted} attempted, {outcome.failed} failed")
    print(f"# environment: {json.dumps(env)}")
    if outcome.details.get("fingerprint"):
        print(f"# fingerprint: {json.dumps(outcome.details['fingerprint'])}")
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"# {name:40s} {value:14.6f} {unit}")
    print(f"# record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
