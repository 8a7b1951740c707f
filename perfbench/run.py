"""The repo benchmark: one workload per run, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload csj-clustered2d --seed 1 --seconds 15 --trace 0

Workloads: csj-clustered2d, ssj-sierpinski3d, sharded-clustered2d,
serve-churn (see ``catalogue.WORKLOADS`` for why each is here).
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, each layer's self time as a share of the traced
wall, and the tracing overhead.  Either way the outputs are checked
against an independent join; a mismatch makes the exit status 1.

The report goes to standard output; its last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Run metadata is the
line before it, and traced runs also write their span table to
``.perfbench-out/`` in the repository root.  ``--scale`` shrinks every
workload's point count (the smoke tests use it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = (
    "csj-clustered2d", "ssj-sierpinski3d", "sharded-clustered2d", "serve-churn",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's point count (default 1)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def commit() -> str:
    """HEAD's commit when the checkout is a git repository, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the program's source files, to tell checkouts apart."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(args, params: dict, result_raw: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        **params,
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_sha256": source_digest(),
        "raw_wall": result_raw,
    }


def report(args, result, catalogue) -> list[str]:
    """Human-readable lines: every metric with its unit, then layer shares."""
    units = {m.name: m.unit for m in catalogue.END_TO_END + catalogue.PER_LAYER}
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}"]
    for name, value in result.metrics.items():
        lines.append(f"  {name:<30} {value:>16.6g} {units[name]}")
    for name, value in result.raw.items():
        lines.append(f"  {'raw wall ' + name:<30} {value:>16.6g}")
    rate = result.failed / result.attempted if result.attempted else 1.0
    lines.append(f"  {'error_rate':<30} {rate:>16.6g} ({result.failed}/{result.attempted})")
    if result.trace is not None:
        wall = result.trace["traced_wall_s"]
        lines.append(f"  layer self time in one traced pass of {wall:.4g} s:")
        for layer, seconds in result.trace["layers"].items():
            lines.append(f"    {layer:<10} {seconds:>10.4g} s {100 * seconds / wall:6.1f}%")
        lines.append(f"    named layers cover "
                     f"{100 * result.metrics['obs.layer_coverage']:.1f}% of the traced wall; "
                     f"trace overhead {result.metrics['obs.trace_overhead']:.3f}x")
    for error in result.errors:
        lines.append(f"  FAILED: {error}")
    return lines


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Worker pools join their own workers; what can remain is the
    multiprocessing resource tracker that shared-memory segments start,
    which would otherwise outlive this process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.parallel.shm import clear_process_caches

    clear_process_caches()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import catalogue
    import workloads

    try:
        OUT.mkdir(exist_ok=True)
        run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.scale, OUT)
        result = workloads.run_workload(run)
        meta = metadata(args, result.params, result.raw)
        if result.trace is not None:
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"meta": meta, **result.trace}, indent=1))
        for line in report(args, result, catalogue):
            print(line)
        print(json.dumps({"meta": meta}))
        correct = result.failed == 0
        units = {m.name: m.unit for m in catalogue.END_TO_END + catalogue.PER_LAYER}
        print(json.dumps({
            "correct": correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {name: {"value": getattr(value, "item", lambda: value)(),
                               "unit": units[name]}
                        for name, value in result.metrics.items()},
        }))
        return 0 if correct else 1
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
