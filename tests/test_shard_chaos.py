"""Sharded execution under injected faults and real process death.

Three escalation levels:

* a **worker** SIGKILLed mid-shard-task — the supervisor respawns it,
  retries the task, and the output is still byte-identical;
* the **sink** dying mid-replay of a checkpointed sharded run — the
  journal's durable prefix survives and the run resumes *at a different
  shard count* with a byte-identical tail;
* the whole **process** SIGKILLed from outside mid-run — resume across
  a different K and partitioner reproduces the uninterrupted file
  exactly.

Every path also asserts zero leaked shared-memory segments — crash
cleanup is part of the contract, not best-effort.
"""

import filecmp
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.api import similarity_join
from repro.core.results import TextSink
from repro.errors import CheckpointCorruptError, PoisonTaskError
from repro.io.writer import width_for
from repro.parallel.shm import owned_segments
from repro.resilience.chaos import FailurePlan, FlakySink, FlakyWorker
from repro.resilience.checkpoint import CheckpointedJoin, _encode_record, read_journal
from repro.shard import sharded_join

EPS = 0.06


def _reference_file(pts, path):
    sink = TextSink(str(path), id_width=width_for(len(pts)))
    similarity_join(pts, EPS, algorithm="csj", g=10, sink=sink, shards=1)
    sink.close()


class TestWorkerDeath:
    def test_sigkilled_worker_mid_shard_task_output_identical(
        self, sharded_dataset, tmp_path
    ):
        ref = tmp_path / "ref.txt"
        _reference_file(sharded_dataset, ref)
        # One SIGKILL budgeted on shard task 1: the worker dies mid-task,
        # the supervisor respawns a fresh one and retries.
        fault = FlakyWorker(kill_at=(1,), max_failures=1)
        out = tmp_path / "killed.txt"
        sink = TextSink(str(out), id_width=width_for(len(sharded_dataset)))
        sharded_join(
            sharded_dataset, EPS, algorithm="csj", g=10, shards=4,
            workers=2, sink=sink, fault=fault,
        )
        sink.close()
        assert filecmp.cmp(str(ref), str(out), shallow=False)
        assert owned_segments() == []

    def test_poisoned_shard_task_quarantined_with_partial(self, sharded_dataset):
        # A task that fails on every attempt is quarantined; the typed
        # error carries the partial result from the surviving shards.
        fault = FlakyWorker(error_at=(2,))
        with pytest.raises(PoisonTaskError) as info:
            sharded_join(
                sharded_dataset, EPS, algorithm="csj", g=10, shards=4,
                workers=2, fault=fault,
            )
        assert info.value.task_id == 2
        assert info.value.partial is not None
        assert info.value.partial.shard_report["shards"] == 4
        assert owned_segments() == []


class TestCheckpointResumeAcrossK:
    @pytest.mark.parametrize("kill_at", [5, 60, 200])
    def test_sink_death_mid_replay_resume_at_other_k(
        self, sharded_dataset, tmp_path, kill_at
    ):
        ref = tmp_path / "ref.txt"
        _reference_file(sharded_dataset, ref)
        out = tmp_path / "out.txt"
        wrapper = lambda inner: FlakySink(
            inner, FailurePlan(fail_at=[kill_at], max_failures=1)
        )
        job = CheckpointedJoin(
            sharded_dataset, EPS, output_path=str(out), algorithm="csj",
            g=10, shards=8, cadence=8, sink_wrapper=wrapper,
        )
        with pytest.raises(OSError):
            job.run()
        # The journal kept a durable prefix; the fingerprint excludes
        # the plan, so the resume may pick ANY shard count/partitioner.
        header, ckpt = read_journal(str(out) + ".journal")
        assert header["fingerprint"]["sharded"] is True
        resumed = CheckpointedJoin(
            sharded_dataset, EPS, output_path=str(out), algorithm="csj",
            g=10, shards=3, partitioner="hilbert", cadence=8, workers=2,
        )
        resumed.run(resume=True)
        assert filecmp.cmp(str(ref), str(out), shallow=False)
        assert owned_segments() == []

    def test_resume_across_k_preserves_canonical_counters(
        self, sharded_dataset, tmp_path
    ):
        out = tmp_path / "out.txt"
        wrapper = lambda inner: FlakySink(
            inner, FailurePlan(fail_at=[40], max_failures=1)
        )
        with pytest.raises(OSError):
            CheckpointedJoin(
                sharded_dataset, EPS, output_path=str(out), algorithm="csj",
                g=10, shards=8, cadence=8, sink_wrapper=wrapper,
            ).run()
        resumed = CheckpointedJoin(
            sharded_dataset, EPS, output_path=str(out), algorithm="csj",
            g=10, shards=2, cadence=8,
        ).run(resume=True)
        clean = similarity_join(
            sharded_dataset, EPS, algorithm="csj", g=10, shards=1
        )
        for name in ("links_emitted", "groups_emitted", "bytes_written",
                     "merge_attempts", "merge_successes"):
            assert getattr(resumed.stats, name) == getattr(clean.stats, name)


    def test_journal_of_the_id_order_replay_is_refused(self, sharded_dataset, tmp_path):
        # Journals written before the compact replay walked the global
        # task stream lack the ``replay`` field; their cursor counts
        # links in (i, j) order, so resuming one would continue at the
        # wrong position.  It must be refused with the typed error.
        out = tmp_path / "out.txt"
        journal = str(out) + ".journal"
        wrapper = lambda inner: FlakySink(
            inner, FailurePlan(fail_at=[40], max_failures=1)
        )
        with pytest.raises(OSError):
            CheckpointedJoin(
                sharded_dataset, EPS, output_path=str(out), algorithm="csj",
                g=10, shards=4, cadence=8, sink_wrapper=wrapper,
            ).run()
        header, ckpt = read_journal(journal)
        assert ckpt is not None
        assert header["fingerprint"]["replay"] == "global-csj-task-stream"
        old = dict(header["fingerprint"])
        del old["replay"]
        with open(journal, encoding="ascii") as handle:
            lines = handle.readlines()
        lines[0] = _encode_record(dict(header, fingerprint=old))
        with open(journal, "w", encoding="ascii") as handle:
            handle.writelines(lines)
        with pytest.raises(CheckpointCorruptError, match="does not match"):
            CheckpointedJoin(
                sharded_dataset, EPS, output_path=str(out), algorithm="csj",
                g=10, shards=2, cadence=8,
            ).run(resume=True)


class TestProcessDeath:
    """SIGKILL the whole interpreter mid-run; resume across K."""

    CHILD = """
import sys
import numpy as np
from repro.resilience.checkpoint import CheckpointedJoin

out, seed, shards, partitioner, resume = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4], sys.argv[5]
)
pts = np.random.default_rng(seed).random((2500, 2))
CheckpointedJoin(
    pts, 0.05, output_path=out, algorithm="csj", g=10,
    shards=shards, partitioner=partitioner, cadence=4,
).run(resume=resume == "1")
"""

    def test_sigkill_process_resume_other_k_byte_identical(self, tmp_path):
        seed = int(os.environ.get("REPRO_SHARD_SEED", "5"))
        pts = np.random.default_rng(seed).random((2500, 2))
        ref = tmp_path / "ref.txt"
        sink = TextSink(str(ref), id_width=width_for(len(pts)))
        similarity_join(pts, 0.05, algorithm="csj", g=10, sink=sink, shards=1)
        sink.close()

        out = tmp_path / "out.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.Popen(
            [sys.executable, "-c", self.CHILD, str(out), str(seed), "8", "grid", "0"],
            env=env,
        )
        # Kill -9 once the replay has demonstrably started writing.
        deadline = time.monotonic() + 120
        killed = False
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if out.exists() and out.stat().st_size > 1024:
                proc.kill()  # SIGKILL: no atexit, no flush, torn tail
                proc.wait()
                killed = True
                break
            time.sleep(0.01)
        if not killed:
            proc.wait()
        if killed:
            assert proc.returncode == -signal.SIGKILL
            rc = subprocess.run(
                [sys.executable, "-c", self.CHILD, str(out), str(seed), "3",
                 "hilbert", "1"],
                env=env,
            ).returncode
            assert rc == 0
        assert filecmp.cmp(str(ref), str(out), shallow=False)
        assert owned_segments() == []
