"""Smoke tests of the repo benchmark itself.

Run from the repository root::

    python -m pytest perfbench -q

Every workload runs at a tiny size in both modes and must print every
catalogue metric with its unit; a deliberately corrupted output must
trip the correctness gate and make the command fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import catalogue  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.api import similarity_join  # noqa: E402
from repro.core.results import TextSink  # noqa: E402
from repro.io.writer import width_for  # noqa: E402

TINY = ["--seed", "3", "--seconds", "0.5", "--scale", "0.05"]


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == catalogue.WORKLOADS
    assert tuple(catalogue.WORKLOADS) == run.WORKLOAD_NAMES
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalogue.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalogue.PER_LAYER
    ]
    e2e = {m.name for m in catalogue.END_TO_END}
    for metric in catalogue.PER_LAYER:
        assert set(metric.moves) <= e2e, metric.name
        assert set(metric.on) <= set(catalogue.WORKLOADS), metric.name


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(catalogue.WORKLOADS))
def test_every_workload_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--trace", trace, *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = catalogue.PER_LAYER if trace == "1" else catalogue.END_TO_END
    assert list(result["metrics"]) == [m.name for m in table]
    for metric in table:
        got = result["metrics"][metric.name]
        assert got["unit"] == metric.unit
        assert isinstance(got["value"], (int, float))
        assert metric.name in proc.stdout.split(lines[-2])[0]
    meta = json.loads(lines[-2])["meta"]
    for key in ("host_cpus", "python", "numpy", "seed", "n", "eps", "commit"):
        assert key in meta
    if trace == "0":
        for name in ("join_s", "output_bytes", "compaction_ratio", "ops_per_s"):
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert result["metrics"]["obs.trace_overhead"]["value"] > 0


def _csj_file(tmp_path, points, eps):
    path = str(tmp_path / "out.txt")
    sink = TextSink(path, id_width=width_for(len(points)))
    similarity_join(points, eps, algorithm="csj", g=10, sink=sink)
    sink.close()
    return path


def test_gate_accepts_a_true_output_and_rejects_corrupted_ones(tmp_path):
    points = workloads.clustered(400, np.random.default_rng(0))
    eps = 0.05
    width = width_for(len(points))
    reference = gate.reference_codes(points, eps)
    path = _csj_file(tmp_path, points, eps)
    ids, sizes = gate.parse_output(path, width)
    assert gate.check_implied(ids, sizes, len(points), reference) == len(reference)

    text = Path(path).read_bytes()
    lines = text.splitlines(keepends=True)
    # A dropped line loses pairs; an id swapped for the point farthest
    # from its line's first point implies a pair that is not within eps.
    first = int(lines[0].split()[0])
    far = int(np.argmax(((points - points[first]) ** 2).sum(axis=1)))
    changed = lines[0][: -(width + 1)] + b"%0*d\n" % (width, far)
    corrupt = {
        "dropped": b"".join(lines[:-1]),
        "changed": changed + b"".join(lines[1:]),
        "garbled": text[:5] + b"x" + text[6:],
    }
    for name, data in corrupt.items():
        bad = tmp_path / f"{name}.txt"
        bad.write_bytes(data)
        with pytest.raises(gate.GateError):
            ids, sizes = gate.parse_output(str(bad), width)
            gate.check_implied(ids, sizes, len(points), reference)


class _CorruptingSink(TextSink):
    """Writes the program's output, then flips the first id's first digit."""

    def close(self):
        super().close()
        with open(self.path, "r+b") as handle:
            first = handle.read(1)
            handle.seek(0)
            handle.write(b"1" if first == b"0" else b"0")


def test_corrupted_output_makes_the_command_fail(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "TextSink", _CorruptingSink)
    code = run.main(["--workload", "csj-clustered2d", "--trace", "0", *TINY])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
