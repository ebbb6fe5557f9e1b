"""Run-length coding of zig-zag scanned coefficient vectors.

The variable-length-encode stage of Figure 1 is classically a run-length
model (runs of zeros between non-zero levels, plus an end-of-block marker)
followed by entropy coding of the (run, level) events — see
:mod:`repro.video.huffman`.

:func:`encode_block` is the scalar per-coefficient scan that
:func:`repro.video.blockpipe.write_plane_vectors_reference` codes block by
block; :func:`batch_run_levels` extracts the same events for a whole
``(nblocks, length)`` batch of zig-zag vectors in a handful of NumPy passes
built on ``np.nonzero`` (experiment R6 in DESIGN.md), the form
:func:`repro.video.blockpipe.write_plane_vectors` codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Symbol emitted after the last non-zero coefficient of a block.
EOB = "EOB"


@dataclass(frozen=True)
class RunLevel:
    """A run of ``run`` zeros followed by the non-zero ``level``."""

    run: int
    level: int

    def __post_init__(self) -> None:
        if self.run < 0:
            raise ValueError(f"run must be non-negative, got {self.run}")
        if self.level == 0:
            raise ValueError("level of a RunLevel event cannot be zero")


def encode_block(vector: np.ndarray) -> list:
    """Encode a zig-zag vector into ``RunLevel`` events plus ``EOB``.

    An all-zero vector encodes to just ``[EOB]``.
    """
    events: list = []
    run = 0
    for value in np.asarray(vector).tolist():
        if value == 0:
            run += 1
        else:
            events.append(RunLevel(run=run, level=int(value)))
            run = 0
    events.append(EOB)
    return events


def batch_run_levels(
    vectors: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (run, level) extraction over a batch of zig-zag vectors.

    Given an ``(nblocks, length)`` integer array, returns
    ``(starts, runs, levels)`` where ``runs``/``levels`` are the flat event
    arrays in stream order and block ``b``'s events occupy
    ``slice(starts[b], starts[b + 1])``.  The events of row ``b`` match
    ``encode_block(vectors[b])`` exactly (minus the ``EOB`` terminator):
    the zero-run before each non-zero level is the gap to the previous
    non-zero column, computed from ``np.nonzero`` column diffs instead of a
    per-coefficient Python walk.
    """
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValueError(
            f"expected an (nblocks, length) batch, got shape {vectors.shape}"
        )
    rows, cols = np.nonzero(vectors)
    levels = vectors[rows, cols]
    prev_cols = np.empty_like(cols)
    if cols.size:
        prev_cols[0] = -1
        prev_cols[1:] = np.where(rows[1:] == rows[:-1], cols[:-1], -1)
    runs = cols - prev_cols - 1
    counts = np.bincount(rows, minlength=vectors.shape[0])
    starts = np.concatenate(([0], np.cumsum(counts)))
    return starts, runs, levels
