"""The paper's output text format.

Section VI: *"Each data point is zero-padded to ensure it is represented by
the same fixed number of bits.  A link is written as a single line in the
output file containing the two data points, e.g. ``0001 0002``, while a
cluster is written as the line ``0001 0002 0003...``."*

Output size — the paper's space metric — is therefore exactly
``sum over lines of (ids_per_line * (width + 1))`` bytes: each id costs its
zero-padded width plus one separator byte (space between ids, newline at
the end of the line).  :func:`line_bytes` encodes that arithmetic so sinks
can account bytes without materialising text.

Encoding is batched: a link batch becomes one ``uint8`` character matrix
filled by NumPy (:func:`_encode_links`), and an id line is one
``%``-format string applied in a single call.  ``"%0Nd" % i`` renders
exactly like ``f"{i:0Nd}"`` — a negative id or one wider than the field
widens the line rather than being truncated — so the bytes never depend
on which path produced them.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Sequence, TextIO, Union

import numpy as np

__all__ = ["FixedWidthWriter", "line_bytes", "read_output"]


def line_bytes(n_ids: int, width: int) -> int:
    """Bytes of one output line holding ``n_ids`` zero-padded ids.

    ``n_ids`` ids of ``width`` digits, separated by single spaces and
    terminated by a newline: ``n_ids * width + (n_ids - 1) + 1``.
    """
    if n_ids <= 0:
        return 0
    return n_ids * (width + 1)


def width_for(n_points: int) -> int:
    """Zero-padding width able to represent ids ``0 .. n_points - 1``."""
    return max(1, len(str(max(0, n_points - 1))))


#: Lines of at most this many ids reuse a cached format string; longer
#: group lines build theirs per call, which costs no more than applying it
#: and keeps the cache from growing with every distinct large group size.
_CACHED_FORMAT_IDS = 64


def _build_ids_format(n_ids: int, width: int, end: str) -> str:
    return " ".join([f"%0{width}d"] * n_ids) + end


_cached_ids_format = lru_cache(maxsize=256)(_build_ids_format)


def _ids_format(n_ids: int, width: int, end: str = "\n") -> str:
    """``%``-format string for one line of ``n_ids`` zero-padded ids."""
    if n_ids <= _CACHED_FORMAT_IDS:
        return _cached_ids_format(n_ids, width, end)
    return _build_ids_format(n_ids, width, end)


#: Widest field the NumPy encoder handles: ids below ``10**19`` fit a uint64.
_MAX_VECTOR_WIDTH = 19


def _encode_links(ids_i, ids_j, width: int) -> str:
    """The text of the link lines ``i j`` for the paired ids, zero-padded.

    In-range integer ids (``0 <= id < 10**width``) are encoded as one
    ``(k, 2, width + 1)`` byte array — per line, two fields of ``width``
    digits plus a separator (space, then newline) — filled one digit
    column at a time by a vectorised divmod.  Any other batch (a negative
    or too-wide id, a non-integer dtype) is formatted line by line, which
    widens the field exactly as the scalar path does.
    """
    arr_i = np.asarray(ids_i)
    arr_j = np.asarray(ids_j)
    k = len(arr_i)
    if k == 0:
        return ""
    if (
        width > _MAX_VECTOR_WIDTH
        or arr_i.dtype.kind not in "iu"
        or arr_j.dtype.kind not in "iu"
        or min(int(arr_i.min()), int(arr_j.min())) < 0
        or max(int(arr_i.max()), int(arr_j.max())) >= 10**width
    ):
        fmt = _ids_format(2, width)
        return "".join([fmt % (int(i), int(j)) for i, j in zip(ids_i, ids_j)])
    rest = np.stack([arr_i.astype(np.uint64), arr_j.astype(np.uint64)], axis=1)
    out = np.empty((k, 2, width + 1), dtype=np.uint8)
    for col in range(width - 1, -1, -1):
        rest, digit = np.divmod(rest, 10)
        out[:, :, col] = digit
    out[:, :, :width] += ord("0")
    out[:, 0, width] = ord(" ")
    out[:, 1, width] = ord("\n")
    return out.tobytes().decode("ascii")


class FixedWidthWriter:
    """Writes links and groups in the paper's fixed-width text format.

    Accepts a path or an open text file.  Tracks the exact number of bytes
    written, which equals the file size for a path target.

    Path targets are opened — and fsynced — through the durable-I/O seam
    (:func:`repro.io.durable.get_fs`), so the crash-consistency harness
    can interpose on every write the output path sees.  The filesystem is
    captured at construction; it is exposed as :attr:`fs` for wrappers
    (the atomic sink) that perform follow-up operations on the same
    target.

    >>> import io
    >>> buf = io.StringIO()
    >>> w = FixedWidthWriter(buf, width=4)
    >>> w.write_link(1, 2)
    >>> w.write_group([1, 2, 3])
    >>> print(buf.getvalue(), end="")
    0001 0002
    0001 0002 0003
    """

    def __init__(self, target: Union[str, TextIO], width: int = 8, mode: str = "w"):
        from repro.io.durable import get_fs

        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        self.width = width
        self.bytes_written = 0
        self.fs = get_fs()
        if isinstance(target, (str, bytes)):
            self.path: Union[str, None] = os.fsdecode(target)
            self._file: TextIO = self.fs.open(self.path, mode, encoding="ascii")
            self._owns_file = True
        else:
            self.path = None
            self._file = target
            self._owns_file = False

    def write_link(self, i: int, j: int) -> None:
        """One link line: two ids."""
        line = _ids_format(2, self.width) % (i, j)
        self._file.write(line)
        self.bytes_written += len(line)

    def write_links(self, ids_i, ids_j) -> None:
        """Many link lines in one write (bulk output path)."""
        text = _encode_links(ids_i, ids_j, self.width)
        self._file.write(text)
        self.bytes_written += len(text)

    def write_group(self, ids: Sequence[int]) -> None:
        """One group line: all member ids."""
        if not len(ids):
            return
        line = _ids_format(len(ids), self.width) % tuple(ids)
        self._file.write(line)
        self.bytes_written += len(line)

    def write_group_pair(self, ids_a: Sequence[int], ids_b: Sequence[int]) -> None:
        """A spatial-join group: both sides on one line, ``|``-separated."""
        width = self.width
        line = (
            _ids_format(len(ids_a), width, " | ") % tuple(ids_a)
            + _ids_format(len(ids_b), width) % tuple(ids_b)
        )
        self._file.write(line)
        self.bytes_written += len(line)

    def sync(self) -> None:
        """Flush buffers and force the bytes to stable storage (fsync).

        In-memory targets (``StringIO``) flush only; the fsync is skipped
        where the target has no file descriptor.
        """
        self.fs.fsync(self._file)

    def tell(self) -> int:
        """Current byte offset in the underlying file (after a flush)."""
        self._file.flush()
        return self._file.tell()

    def close(self) -> None:
        """Close the underlying file if this writer opened it."""
        if self._owns_file and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "FixedWidthWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_output(source: Union[str, TextIO]) -> tuple[list[tuple[int, int]], list[tuple[int, ...]], list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Parse a file written by :class:`FixedWidthWriter`.

    Returns ``(links, groups, group_pairs)``: two-id lines become links,
    longer lines become groups, and lines with a ``|`` separator become
    spatial-join group pairs.
    """
    if isinstance(source, (str, bytes)):
        handle: TextIO = open(source, "r", encoding="ascii")
        owns = True
    else:
        handle = source
        owns = False
    links: list[tuple[int, int]] = []
    groups: list[tuple[int, ...]] = []
    group_pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    try:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if "|" in line:
                left, _, right = line.partition("|")
                group_pairs.append(
                    (
                        tuple(int(t) for t in left.split()),
                        tuple(int(t) for t in right.split()),
                    )
                )
                continue
            ids = tuple(int(t) for t in line.split())
            if len(ids) == 2:
                links.append((ids[0], ids[1]))
            else:
                groups.append(ids)
    finally:
        if owns:
            handle.close()
    return links, groups, group_pairs
