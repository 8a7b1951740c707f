#!/usr/bin/env python
"""Packed task stream vs. node task stream: honest wall-clock.

Runs the tree joins on the Figure 7 scalability workload (the Sierpinski
pyramid at the paper's medium size) through the serial join loop
(:func:`repro.core.csj._tree_join`) fed by each form of the task stream
— batched-kernel pruning over the packed index, and the per-pair
recursion over node objects — and records the median of 3 timed runs
each, warm-up excluded.  The index is built (and packed) once and shared
by every timed run, so the comparison isolates exactly what the streams
differ in: traversal and pruning.

The tree uses ``max_entries = 8`` — the deep-tree regime where node-pair
pruning dominates the non-leaf time, which is precisely the cost the
batched kernels attack.  At fanout 64 the same workload is bound by leaf
distance kernels and sink writes, code both streams *share*, so they
tie there by construction; the JSON records the fanout so the number is
never mistaken for a universal constant.

Every configuration re-verifies the contract that makes the numbers
comparable — identical links, groups, group pairs and integer counters
across streams — and the report says so per row.

Writes ``BENCH_kernels.json`` next to this file (or ``--out``).  Exits
nonzero when the packed stream fails to reach the acceptance bar of a
1.5x median speedup over the node stream on the fig7 medium N-CSJ
configuration — the pruning-dominated row, and the gate CI reads.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--out PATH] [--n N]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

from repro.core.csj import _tree_join
from repro.datasets import sierpinski_pyramid
from repro.experiments.runner import scaled
from repro.index.bulk import bulk_load
from repro.index.packed import pack_index

EPS = 0.125
MAX_ENTRIES = 8
RUNS = 3
SPEEDUP_GATE = 1.5
GATE_ALGORITHM = "ncsj"

#: algorithm -> (g, compact, label), as ssj() / ncsj() / csj() pass them
JOINS = {
    "ssj": (0, False, "ssj"),
    "ncsj": (0, True, "ncsj"),
    "csj": (10, True, "csj(10)"),
}
STREAMS = ("node", "packed")


def _int_counters(result) -> dict:
    return {
        k: v for k, v in result.stats.as_dict().items() if isinstance(v, int)
    }


def _timed(name: str, tree, packed) -> tuple[float, object]:
    g, compact, label = JOINS[name]
    t0 = time.perf_counter()
    result = _tree_join(tree, packed, EPS, g, compact, label)
    return time.perf_counter() - t0, result


def bench_algorithm(name: str, tree) -> dict:
    packs = {"node": None, "packed": pack_index(tree)}
    medians = {}
    results = {}
    for stream in STREAMS:
        # Warm-up run (caches, triangle-index tables), reused for the
        # stream-parity check so timing runs stay untouched.
        _, results[stream] = _timed(name, tree, packs[stream])
        times = [_timed(name, tree, packs[stream])[0] for _ in range(RUNS)]
        medians[stream] = statistics.median(times)
    node, packed = results["node"], results["packed"]
    identical = (
        node.links == packed.links
        and node.groups == packed.groups
        and node.group_pairs == packed.group_pairs
        and _int_counters(node) == _int_counters(packed)
    )
    return {
        "algorithm": name,
        "node_s": round(medians["node"], 4),
        "packed_s": round(medians["packed"], 4),
        "speedup": round(medians["node"] / medians["packed"], 3),
        "links": packed.stats.links_emitted,
        "groups": packed.stats.groups_emitted,
        "streams_identical": bool(identical),
    }


def main() -> int:
    default_out = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_kernels.json"
    )
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=default_out)
    parser.add_argument("--n", type=int, default=scaled(20_000))
    args = parser.parse_args()

    pts = sierpinski_pyramid(args.n, seed=0)
    tree = bulk_load(pts, method="str", max_entries=MAX_ENTRIES)
    rows = [bench_algorithm(name, tree) for name in JOINS]

    gate_row = next(r for r in rows if r["algorithm"] == GATE_ALGORITHM)
    report = {
        "benchmark": "packed task stream vs node task stream",
        "workload": {
            "dataset": "sierpinski3d (fig7 medium)",
            "n": int(len(pts)),
            "eps": EPS,
            "index": "rstar/str",
            "max_entries": MAX_ENTRIES,
        },
        "runs_per_stream": RUNS,
        "host_cpus": os.cpu_count(),
        "speedup_gate": SPEEDUP_GATE,
        "gate_algorithm": GATE_ALGORITHM,
        "note": (
            "max_entries=8 is the deep-tree, pruning-dominated regime the "
            "batched kernels target; at fanout 64 this workload is bound "
            "by leaf distance kernels and sink writes shared by both "
            "streams, and they tie. The gate reads the N-CSJ row, whose "
            "non-leaf time is almost entirely node-pair pruning."
        ),
        "results": rows,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(json.dumps(report, indent=2))

    if not all(r["streams_identical"] for r in rows):
        print("FAIL: streams diverged — the speedup is meaningless")
        return 1
    if gate_row["speedup"] < SPEEDUP_GATE:
        print(
            f"FAIL: {GATE_ALGORITHM} packed-stream speedup "
            f"{gate_row['speedup']}x below the {SPEEDUP_GATE}x gate"
        )
        return 1
    print(f"OK: {GATE_ALGORITHM} packed-stream speedup {gate_row['speedup']}x "
          f">= {SPEEDUP_GATE}x gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
