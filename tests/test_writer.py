"""Unit tests for the fixed-width output format (repro.io.writer)."""

import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import similarity_join
from repro.core.results import TextSink
from repro.io.durable import scoped_fs
from repro.io.writer import FixedWidthWriter, line_bytes, read_output, width_for
from repro.resilience.vfs import TraceFS


class TestLineBytes:
    def test_link_line(self):
        # "0001 0002\n" = 10 bytes.
        assert line_bytes(2, 4) == 10

    def test_group_line(self):
        # "0001 0002 0003\n" = 15 bytes.
        assert line_bytes(3, 4) == 15

    def test_empty(self):
        assert line_bytes(0, 4) == 0

    def test_matches_rendered_text(self):
        buf = io.StringIO()
        writer = FixedWidthWriter(buf, width=6)
        writer.write_link(1, 2)
        writer.write_group([1, 2, 3, 4])
        assert len(buf.getvalue()) == line_bytes(2, 6) + line_bytes(4, 6)
        assert writer.bytes_written == len(buf.getvalue())


class TestWidthFor:
    @pytest.mark.parametrize("n,expected", [(1, 1), (10, 1), (11, 2), (1000, 3), (10**6, 6)])
    def test_widths(self, n, expected):
        assert width_for(n) == expected

    def test_zero_points(self):
        assert width_for(0) == 1


class TestWriter:
    def test_zero_padding(self):
        buf = io.StringIO()
        FixedWidthWriter(buf, width=4).write_link(1, 23)
        assert buf.getvalue() == "0001 0023\n"

    def test_group_format_matches_paper(self):
        buf = io.StringIO()
        FixedWidthWriter(buf, width=4).write_group([1, 2, 3])
        assert buf.getvalue() == "0001 0002 0003\n"

    def test_group_pair(self):
        buf = io.StringIO()
        FixedWidthWriter(buf, width=2).write_group_pair([1], [2, 3])
        assert buf.getvalue() == "01 | 02 03\n"

    def test_batched_links(self):
        buf = io.StringIO()
        writer = FixedWidthWriter(buf, width=3)
        writer.write_links([1, 2], [5, 6])
        assert buf.getvalue() == "001 005\n002 006\n"
        assert writer.bytes_written == 16

    def test_empty_group_ignored(self):
        buf = io.StringIO()
        writer = FixedWidthWriter(buf, width=3)
        writer.write_group([])
        assert buf.getvalue() == ""
        assert writer.bytes_written == 0

    def test_width_validation(self):
        with pytest.raises(ValueError):
            FixedWidthWriter(io.StringIO(), width=0)

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with FixedWidthWriter(path, width=5) as writer:
            writer.write_link(3, 7)
            writer.write_group([1, 2, 9])
            writer.write_group_pair([0, 1], [5])
            expected_bytes = writer.bytes_written
        import os

        assert os.path.getsize(path) == expected_bytes
        links, groups, pairs = read_output(path)
        assert links == [(3, 7)]
        assert groups == [(1, 2, 9)]
        assert pairs == [((0, 1), (5,))]


class TestReadOutput:
    def test_reads_stream(self):
        text = "001 002\n003 004 005\n\n001 | 006 007\n"
        links, groups, pairs = read_output(io.StringIO(text))
        assert links == [(1, 2)]
        assert groups == [(3, 4, 5)]
        assert pairs == [((1,), (6, 7))]

    def test_blank_lines_skipped(self):
        links, groups, pairs = read_output(io.StringIO("\n\n"))
        assert links == [] and groups == [] and pairs == []


# -- batch encoder equivalence ----------------------------------------------


def reference_links(ids_i, ids_j, width):
    """The per-id f-string formatter the batch encoders must reproduce."""
    return "".join(
        f"{int(i):0{width}d} {int(j):0{width}d}\n" for i, j in zip(ids_i, ids_j)
    )


def reference_group(ids, width):
    return " ".join(f"{int(i):0{width}d}" for i in ids) + "\n"


ID_CONTAINERS = {
    "int32": lambda ids: np.asarray(ids, dtype=np.int32),
    "int64": lambda ids: np.asarray(ids, dtype=np.int64),
    "uint64": lambda ids: np.asarray(ids, dtype=np.uint64),
    "intp": lambda ids: np.asarray(ids, dtype=np.intp),
    "list": list,
}


@st.composite
def id_batches(draw):
    """``(width, container, ids_i, ids_j)``: mostly in-range ids, with the
    field's edge (``10**w - 1``) and the widening cases (``>= 10**w``,
    negative) mixed in; empty batches included."""
    width = draw(st.integers(1, 9))
    container = draw(st.sampled_from(sorted(ID_CONTAINERS)))
    top = 10**width
    edges = [top - 1, top, top + 7, 2 * top]
    if container != "uint64":
        edges.append(-1)
    ident = st.one_of(st.integers(0, top - 1), st.sampled_from(edges))
    k = draw(st.integers(0, 12))
    ids_i = draw(st.lists(ident, min_size=k, max_size=k))
    ids_j = draw(st.lists(ident, min_size=k, max_size=k))
    return width, container, ids_i, ids_j


class TestBatchEncoder:
    @settings(max_examples=300, deadline=None)
    @given(id_batches())
    def test_write_links_matches_reference(self, batch):
        width, container, ids_i, ids_j = batch
        wrap = ID_CONTAINERS[container]
        buf = io.StringIO()
        writer = FixedWidthWriter(buf, width=width)
        writer.write_links(wrap(ids_i), wrap(ids_j))
        expected = reference_links(ids_i, ids_j, width)
        assert buf.getvalue() == expected
        assert writer.bytes_written == len(expected)

    @settings(max_examples=300, deadline=None)
    @given(id_batches())
    def test_write_group_matches_reference(self, batch):
        width, container, ids, _ = batch
        buf = io.StringIO()
        writer = FixedWidthWriter(buf, width=width)
        writer.write_group(ID_CONTAINERS[container](ids))
        expected = reference_group(ids, width) if ids else ""
        assert buf.getvalue() == expected
        assert writer.bytes_written == len(expected)

    @settings(max_examples=100, deadline=None)
    @given(id_batches())
    def test_write_link_and_group_pair_match_reference(self, batch):
        width, _, ids_a, ids_b = batch
        buf = io.StringIO()
        writer = FixedWidthWriter(buf, width=width)
        for i, j in zip(ids_a, ids_b):
            writer.write_link(i, j)
        writer.write_group_pair(ids_a, ids_b)
        expected = reference_links(ids_a, ids_b, width) + (
            reference_group(ids_a, width)[:-1] + " | " + reference_group(ids_b, width)
        )
        assert buf.getvalue() == expected

    @pytest.mark.parametrize("size", [63, 64, 65, 500])
    def test_long_group_lines_match_reference(self, size):
        ids = list(range(3, 3 + 2 * size, 2))
        buf = io.StringIO()
        writer = FixedWidthWriter(buf, width=4)
        writer.write_group(ids)
        writer.write_group_pair(ids, ids[:2])
        expected = reference_group(ids, 4)
        assert buf.getvalue() == (
            expected + expected[:-1] + " | " + reference_group(ids[:2], 4)
        )

    def test_field_edge_and_widening(self):
        buf = io.StringIO()
        FixedWidthWriter(buf, width=3).write_links(
            np.array([999, 5, 1000]), np.array([0, -2, 12345])
        )
        assert buf.getvalue() == "999 000\n005 -02\n1000 12345\n"

    def test_text_sink_normalises_batches(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with TextSink(path, id_width=2) as sink:
            sink.write_links(np.array([7, 1], dtype=np.int32), np.array([3, 2]))
        with open(path) as handle:
            assert handle.read() == "03 07\n01 02\n"


class TestWriteOps:
    @pytest.mark.parametrize(
        "ids_i,ids_j",
        [([1, 2, 3], [4, 5, 6]), ([], []), ([1, 100000], [2, 3])],
        ids=["in-range", "empty", "widening"],
    )
    def test_one_write_per_link_batch(self, tmp_path, ids_i, ids_j):
        fs = TraceFS(root=str(tmp_path / "box"))
        with scoped_fs(fs):
            with TextSink("/out.txt", id_width=3) as sink:
                before = sum(op.kind == "write" for op in fs.ops)
                sink.write_links(np.asarray(ids_i), np.asarray(ids_j))
                after = sum(op.kind == "write" for op in fs.ops)
        assert after - before == 1


class TestTextSinkBytes:
    @pytest.mark.parametrize("algorithm", ["ssj", "ncsj", "csj"])
    def test_bytes_written_equals_file_size(self, tmp_path, algorithm):
        rng = np.random.default_rng(3)
        points = np.vstack([0.1 + 0.05 * rng.random((200, 2)), rng.random((200, 2))])
        path = str(tmp_path / f"{algorithm}.txt")
        sink = TextSink(path, id_width=width_for(len(points)))
        try:
            result = similarity_join(points, 0.03, algorithm=algorithm, sink=sink)
        finally:
            sink.close()
        assert result.stats.links_emitted > 0
        assert result.stats.bytes_written == os.path.getsize(path)
