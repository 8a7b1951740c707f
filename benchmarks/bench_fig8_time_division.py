"""Figure 8 / Experiment 3: computation versus disk-write time.

MG County at eps = 0.1; the five paper bars are SSJ, N-CSJ, CSJ(1),
CSJ(10), CSJ(100), each split into computation and output-write time and
written through a real file (TextSink), with index page accesses counted
through the simulated LRU cache.

Paper shape asserted:
* page/cache accesses are essentially identical across algorithms;
* the compact joins write far fewer bytes than SSJ.

Time is reported, not asserted.  The paper's third observation, that
SSJ's total time exceeds the compact joins' at this range, does not hold
here: with a vectorised output encoder SSJ's write costs a fraction of
CSJ(g)'s Python merge window (see EXPERIMENTS.md, Figure 8).
"""

from __future__ import annotations

import os

import pytest

from repro.core.csj import csj
from repro.core.results import TextSink
from repro.core.ssj import ssj
from repro.io.pagesim import NodePager, PageCache
from repro.io.writer import width_for

EPS = 0.1
VARIANTS = [("ssj", None), ("ncsj", 0), ("csj", 1), ("csj", 10), ("csj", 100)]


def _run_variant(name, g, tree, width, path):
    pager = NodePager(tree, PageCache(256))
    with TextSink(path, id_width=width) as sink:
        if name == "ssj":
            return ssj(tree, EPS, sink=sink, pager=pager)
        return csj(tree, EPS, g=g, sink=sink, pager=pager)


@pytest.mark.parametrize("name,g", VARIANTS, ids=[f"{n}-{g}" for n, g in VARIANTS])
def test_fig8_variant(benchmark, run_once, tmp_path, mg_points, mg_tree, name, g):
    width = width_for(len(mg_points))
    path = str(tmp_path / "out.txt")
    result = run_once(_run_variant, name, g, mg_tree, width, path)
    benchmark.extra_info.update(
        algorithm=f"{name}({g})" if g else name,
        compute_time=result.stats.compute_time,
        write_time=result.stats.write_time,
        output_bytes=result.stats.bytes_written,
        page_reads=result.stats.page_reads,
        cache_hits=result.stats.cache_hits,
    )
    assert os.path.getsize(path) == result.stats.bytes_written


def test_fig8_shape(benchmark, run_once, tmp_path, mg_points, mg_tree):
    width = width_for(len(mg_points))

    def sweep():
        rows = {}
        for i, (name, g) in enumerate(VARIANTS):
            path = str(tmp_path / f"{i}.txt")
            result = _run_variant(name, g, mg_tree, width, path)
            rows[(name, g)] = result.stats
        return rows

    rows = run_once(sweep)
    accesses = {
        key: stats.page_reads + stats.cache_hits for key, stats in rows.items()
    }
    # Experiment 3's headline: no significant difference in page accesses.
    assert max(accesses.values()) <= min(accesses.values()) * 1.5
    # The compact joins write much less.
    assert rows[("csj", 10)].bytes_written < rows[("ssj", None)].bytes_written
    assert rows[("ncsj", 0)].bytes_written <= rows[("ssj", None)].bytes_written
    benchmark.extra_info.update(
        accesses={f"{k[0]}-{k[1]}": v for k, v in accesses.items()}
    )
