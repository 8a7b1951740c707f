"""Correctness gate: expand join output and compare it with an independent join.

A pair ``(i, j)`` with ``i < j`` is coded as ``i * n + j``.  Output is
expanded to the codes it implies (each link, every pair inside each
group) and compared with the pairs a SciPy k-d tree finds, which shares
no code with the program.  Nothing here is timed.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

#: Implied codes are checked against the reference in chunks of about
#: this many codes, so expanding overlapping groups never holds them all.
CHUNK = 1 << 21


class GateError(Exception):
    """The output is malformed or implies the wrong pair set."""


def reference_codes(points: np.ndarray, eps: float) -> np.ndarray:
    """Sorted codes of every pair closer than ``eps`` (strict, Euclidean)."""
    n = len(points)
    # query_pairs is inclusive; widen by a hair, then apply the strict test.
    pairs = cKDTree(points).query_pairs(eps * (1 + 1e-9), output_type="ndarray")
    if not len(pairs):
        return np.empty(0, dtype=np.int64)
    diff = points[pairs[:, 0]] - points[pairs[:, 1]]
    pairs = pairs[np.sqrt((diff * diff).sum(axis=1)) < eps].astype(np.int64)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return np.unique(lo * n + hi)


def parse_output(path: str, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, line_sizes)`` of a file in the paper's fixed-width format.

    Every id is ``width`` digits followed by one separator byte (a space,
    or a newline at the end of its line), so the file is a flat array of
    ``width + 1``-byte tokens.
    """
    raw = np.fromfile(path, dtype=np.uint8)
    if len(raw) % (width + 1):
        raise GateError(f"{path}: size {len(raw)} is not a multiple of {width + 1}")
    tokens = raw.reshape(-1, width + 1)
    digits = tokens[:, :width].astype(np.int64) - ord("0")
    if len(digits) and (digits.min() < 0 or digits.max() > 9):
        raise GateError(f"{path}: non-digit byte inside an id")
    sep = tokens[:, width]
    if not np.all((sep == ord(" ")) | (sep == ord("\n"))):
        raise GateError(f"{path}: bad separator byte")
    if len(sep) and sep[-1] != ord("\n"):
        raise GateError(f"{path}: last line is not terminated")
    ids = digits @ (10 ** np.arange(width - 1, -1, -1, dtype=np.int64))
    ends = np.flatnonzero(sep == ord("\n"))
    sizes = np.diff(np.concatenate([[-1], ends]))
    if len(sizes) and sizes.min() < 2:
        raise GateError(f"{path}: a line holds fewer than two ids")
    return ids, sizes


def payload_ids(links, groups) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, line_sizes)`` of an in-memory result (links, then groups)."""
    flat = [i for link in links for i in link]
    sizes = [2] * len(links)
    for group in groups:
        flat.extend(group)
        sizes.append(len(group))
    return np.asarray(flat, dtype=np.int64), np.asarray(sizes, dtype=np.int64)


def _implied_chunks(ids: np.ndarray, sizes: np.ndarray, n: int):
    """Yield arrays of implied codes (with repeats), a bounded amount at a time."""
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise GateError(f"an id lies outside 0..{n - 1}")
    starts = np.cumsum(sizes) - sizes
    for k in np.unique(sizes):
        rows, cols = np.triu_indices(int(k), 1)
        line_starts = starts[sizes == k]
        step = max(1, CHUNK // len(rows))
        for beg in range(0, len(line_starts), step):
            members = ids[line_starts[beg:beg + step, None] + np.arange(k)]
            a = members[:, rows].ravel()
            b = members[:, cols].ravel()
            if np.any(a == b):
                raise GateError("a line repeats an id")
            yield np.minimum(a, b) * n + np.maximum(a, b)


def check_implied(ids: np.ndarray, sizes: np.ndarray, n: int, reference: np.ndarray) -> int:
    """Raise :class:`GateError` unless the output implies exactly ``reference``.

    Returns the number of implied pairs (``len(reference)`` on success).
    """
    covered = np.zeros(len(reference), dtype=bool)
    for codes in _implied_chunks(ids, sizes, n):
        pos = np.searchsorted(reference, codes)
        pos[pos == len(reference)] = 0
        if len(reference) == 0 or not np.array_equal(reference[pos], codes):
            raise GateError("the output implies a pair the reference join does not hold")
        covered[pos] = True
    missing = int(len(covered) - covered.sum())
    if missing:
        raise GateError(f"the output misses {missing} qualifying pairs")
    return len(reference)


def implied_count(ids: np.ndarray, sizes: np.ndarray, n: int) -> int:
    """Number of distinct pairs an output implies."""
    chunks = list(_implied_chunks(ids, sizes, n))
    if not chunks:
        return 0
    return len(np.unique(np.concatenate(chunks)))
