"""Motion estimation and compensation.

Section 3: *"Motion estimation compares part of one frame to a reference
frame and determines what motion would cause the selected part to appear in
the reference frame.  Motion compensation at the receiver then applies that
motion vector to reconstruct the frame ... motion estimation/compensation
greatly reduce the number of bits required to represent the video
sequence."*

Three block-matching searches are provided, spanning the compute/quality
trade-off that drives MPSoC provisioning (experiment C4 in DESIGN.md):

* :func:`full_search` — exhaustive over a +/- R window; the quality anchor
  and by far the most SAD evaluations.  The default implementation
  evaluates whole displacement planes with NumPy; the block-at-a-time loop
  it replaced is kept as :func:`full_search_reference` and the two are
  asserted equivalent in tests and in ``benchmarks/bench_runtime_streams.py``.
* :func:`three_step_search` — the classic logarithmic refinement.
* :func:`diamond_search` — small/large diamond pattern search, the cheapest.

The two pattern searches share :func:`_pattern_search`, which walks every
block's pattern in lockstep: one candidate gather and one masked ``argmin``
per ring for all blocks at once (experiment R10).  The block-at-a-time walk
it replaced is kept as :func:`_pattern_search_reference`; motion fields and
SAD-evaluation counts are identical, and the fast searches now cost less
wall time than full search, not just fewer evaluations.

All return a :class:`MotionField` plus the number of SAD evaluations spent,
which the task-graph workload models consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class MotionField:
    """Per-block motion vectors: ``dy``/``dx`` index block rows/cols."""

    dy: np.ndarray  # (blocks_y, blocks_x) int32
    dx: np.ndarray
    block_size: int

    def __post_init__(self) -> None:
        self.dy = np.asarray(self.dy, dtype=np.int32)
        self.dx = np.asarray(self.dx, dtype=np.int32)
        if self.dy.shape != self.dx.shape:
            raise ValueError("dy and dx grids must have identical shapes")

    @property
    def shape(self) -> tuple[int, int]:
        return self.dy.shape

    def magnitude(self) -> float:
        """Mean Euclidean MV magnitude (pixels)."""
        return float(np.mean(np.hypot(self.dy, self.dx)))


def sad(block: np.ndarray, candidate: np.ndarray) -> float:
    """Sum of absolute differences between two equally sized blocks."""
    return float(np.sum(np.abs(block - candidate)))


def _block_grid(frame: np.ndarray, block_size: int) -> tuple[int, int]:
    h, w = frame.shape
    if h % block_size or w % block_size:
        raise ValueError(
            f"frame {h}x{w} is not a multiple of block size {block_size}"
        )
    return h // block_size, w // block_size


def _candidate(ref: np.ndarray, y: int, x: int, n: int) -> np.ndarray | None:
    """The n x n block of ``ref`` at (y, x), or None if out of bounds."""
    h, w = ref.shape
    if y < 0 or x < 0 or y + n > h or x + n > w:
        return None
    return ref[y:y + n, x:x + n]


def full_search(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int = 8,
    search_range: int = 7,
) -> tuple[MotionField, int]:
    """Exhaustive block matching over a (2R+1)^2 window, vectorized.

    Instead of visiting blocks one at a time (see
    :func:`full_search_reference`), each candidate displacement ``(oy, ox)``
    is scored for *every* block at once: one shifted absolute-difference
    plane plus a block-wise reshape-sum.  The Python-level work drops from
    ``blocks * (2R+1)^2`` SAD calls to ``(2R+1)^2`` plane passes.

    Selection reproduces the reference exactly: displacements are scored in
    the same row-major ``(oy, ox)`` order, the first displacement achieving
    the minimum wins, and an exact tie with the zero vector prefers the
    zero vector (cheaper to encode).  Evaluation counts are identical too —
    out-of-frame candidates are never scored.  For integer-valued frames
    (any real 8-bit video) the SAD sums are exact in either implementation,
    so the motion fields agree bit-for-bit.

    Returns the motion field and the number of SAD evaluations performed.
    """
    n = block_size
    by, bx = _block_grid(current, n)
    h, w = reference.shape
    displacements = [
        (oy, ox)
        for oy in range(-search_range, search_range + 1)
        for ox in range(-search_range, search_range + 1)
    ]
    costs = np.full((len(displacements), by, bx), np.inf)
    evaluations = 0
    for d, (oy, ox) in enumerate(displacements):
        # Block rows i with 0 <= i*n + oy and i*n + oy + n <= h, ditto cols.
        i_lo = (-oy + n - 1) // n if oy < 0 else 0
        i_hi = min(by - 1, (h - n - oy) // n)
        j_lo = (-ox + n - 1) // n if ox < 0 else 0
        j_hi = min(bx - 1, (w - n - ox) // n)
        if i_lo > i_hi or j_lo > j_hi:
            continue
        ys, ye = i_lo * n, (i_hi + 1) * n
        xs, xe = j_lo * n, (j_hi + 1) * n
        diff = np.abs(
            current[ys:ye, xs:xe]
            - reference[ys + oy:ye + oy, xs + ox:xe + ox]
        )
        nr, nc = i_hi - i_lo + 1, j_hi - j_lo + 1
        costs[d, i_lo:i_hi + 1, j_lo:j_hi + 1] = (
            diff.reshape(nr, n, nc, n).sum(axis=(1, 3))
        )
        evaluations += nr * nc
    best = np.argmin(costs, axis=0)  # first index on ties, like the loop
    zero = search_range * (2 * search_range + 1) + search_range
    minima = np.take_along_axis(costs, best[None], axis=0)[0]
    best = np.where(costs[zero] == minima, zero, best)
    offsets = np.asarray(displacements, dtype=np.int32)
    dy = offsets[best, 0]
    dx = offsets[best, 1]
    return MotionField(dy=dy, dx=dx, block_size=n), evaluations


def full_search_reference(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int = 8,
    search_range: int = 7,
) -> tuple[MotionField, int]:
    """Block-at-a-time full search: the readable reference implementation.

    Kept as the equivalence oracle for the vectorized :func:`full_search`
    and as the honest "pure software" baseline the speed claims in
    ``benchmarks/bench_runtime_streams.py`` are measured against.
    """
    by, bx = _block_grid(current, block_size)
    dy = np.zeros((by, bx), dtype=np.int32)
    dx = np.zeros((by, bx), dtype=np.int32)
    evaluations = 0
    for i in range(by):
        for j in range(bx):
            y0, x0 = i * block_size, j * block_size
            block = current[y0:y0 + block_size, x0:x0 + block_size]
            best = np.inf
            best_vec = (0, 0)
            for oy in range(-search_range, search_range + 1):
                for ox in range(-search_range, search_range + 1):
                    cand = _candidate(reference, y0 + oy, x0 + ox, block_size)
                    if cand is None:
                        continue
                    evaluations += 1
                    cost = sad(block, cand)
                    # Prefer the zero vector on ties: cheaper to encode.
                    if cost < best or (
                        cost == best and (oy, ox) == (0, 0)
                    ):
                        best = cost
                        best_vec = (oy, ox)
            dy[i, j], dx[i, j] = best_vec
    return MotionField(dy=dy, dx=dx, block_size=block_size), evaluations


def _pattern_search(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int,
    search_range: int,
    step_schedule,
) -> tuple[MotionField, int]:
    """Shared driver for the step-pattern searches (TSS, diamond), lockstep.

    Every block walks its own pattern, but all blocks take each step
    together: per ring, a ``(blocks, K)`` grid of candidate vectors around
    each block's own centre, one gather of the ``(blocks, K, n*n)``
    candidate pixels, and one first-index ``argmin``.  A block moves only
    where the ring minimum beats its best so far, which is exactly the
    strict ``<`` ring scan of :func:`_pattern_search_reference`; a
    repeating ring (the large diamond) is re-scored only by the blocks
    that moved.

    Candidates outside the +/- R window or the frame cost ``inf`` and are
    not counted, so evaluation counts match the loop too.  Each SAD is
    summed over one contiguous ``n*n`` row, the order ``np.sum`` uses on
    an ``(n, n)`` block, so the fields agree bit-for-bit even on
    non-integer planes (the encoder searches its unrounded reconstruction).
    """
    n = block_size
    by, bx = _block_grid(current, n)
    h, w = reference.shape
    blocks = by * bx
    cur = (
        current.reshape(by, n, bx, n).transpose(0, 2, 1, 3)
        .reshape(blocks, 1, n * n)
    )
    ref = np.ravel(reference)
    pixels = (np.arange(n)[:, None] * w + np.arange(n)).ravel()
    y0 = np.repeat(np.arange(by) * n, bx)[:, None]
    x0 = np.tile(np.arange(bx) * n, by)[:, None]

    def costs(rows, vy, vx, in_window):
        """SADs of candidates ``(vy, vx)`` of blocks ``rows``; inf if invalid."""
        sy, sx = y0[rows] + vy, x0[rows] + vx
        valid = in_window & (sy >= 0) & (sx >= 0) & (sy <= h - n) & (sx <= w - n)
        cand = np.take(ref, (sy * w + sx)[..., None] + pixels, mode="clip")
        sads = np.abs(cur[rows] - cand).sum(axis=-1)
        return np.where(valid, sads, np.inf), valid

    everyone = np.arange(blocks)
    cy = np.zeros((blocks, 1), dtype=np.int64)
    cx = np.zeros((blocks, 1), dtype=np.int64)
    # The loop charges every centre one evaluation, even out of frame.
    best = costs(everyone, cy, cx, True)[0][:, 0]
    evaluations = blocks
    for offsets in step_schedule(search_range):
        ring = np.asarray(offsets, dtype=np.int64)
        rows = everyone
        while rows.size:
            vy = cy[rows] + ring[:, 0]
            vx = cx[rows] + ring[:, 1]
            window = np.maximum(np.abs(vy), np.abs(vx)) <= search_range
            ring_costs, valid = costs(rows, vy, vx, window)
            evaluations += int(np.count_nonzero(valid))
            k = np.argmin(ring_costs, axis=1)
            lowest = ring_costs[np.arange(rows.size), k]
            moved = lowest < best[rows]
            rows, k = rows[moved], k[moved]
            best[rows] = lowest[moved]
            cy[rows, 0] = vy[moved, k]
            cx[rows, 0] = vx[moved, k]
            if not offsets_repeat(offsets):
                break
    field = MotionField(
        dy=cy.reshape(by, bx), dx=cx.reshape(by, bx), block_size=n
    )
    return field, evaluations


def _pattern_search_reference(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int,
    search_range: int,
    step_schedule,
) -> tuple[MotionField, int]:
    """Block-at-a-time pattern walk: the :func:`_pattern_search` oracle.

    Kept per the ``_reference`` convention as the readable statement of
    the search and as the baseline ``bench_runtime_streams.py`` times the
    lockstep driver against.
    """
    by, bx = _block_grid(current, block_size)
    dy = np.zeros((by, bx), dtype=np.int32)
    dx = np.zeros((by, bx), dtype=np.int32)
    evaluations = 0
    for i in range(by):
        for j in range(bx):
            y0, x0 = i * block_size, j * block_size
            block = current[y0:y0 + block_size, x0:x0 + block_size]
            center = (0, 0)
            cand0 = _candidate(reference, y0, x0, block_size)
            best = sad(block, cand0) if cand0 is not None else np.inf
            evaluations += 1
            for offsets in step_schedule(search_range):
                while True:
                    # Classic pattern-search discipline: score the whole
                    # ring around a FIXED centre, then move once to the
                    # best point; moving mid-scan biases the walk.
                    best_move = None
                    for oy, ox in offsets:
                        vy, vx = center[0] + oy, center[1] + ox
                        if max(abs(vy), abs(vx)) > search_range:
                            continue
                        cand = _candidate(
                            reference, y0 + vy, x0 + vx, block_size
                        )
                        if cand is None:
                            continue
                        evaluations += 1
                        cost = sad(block, cand)
                        if cost < best:
                            best = cost
                            best_move = (vy, vx)
                    if best_move is not None:
                        center = best_move
                    if best_move is None or not offsets_repeat(offsets):
                        break
            dy[i, j], dx[i, j] = center
    return MotionField(dy=dy, dx=dx, block_size=block_size), evaluations


def offsets_repeat(offsets) -> bool:
    """Patterns marked repeatable iterate until no improvement (diamond)."""
    return getattr(offsets, "repeat", False)


class _RepeatingPattern(list):
    """List of offsets that the pattern driver re-applies until convergence."""

    repeat = True


def _three_step_schedule(search_range: int):
    """Three-step rings: the 8 neighbours at a halving step, down to 1."""
    step = max(1, (search_range + 1) // 2)
    while step >= 1:
        yield [
            (oy * step, ox * step)
            for oy in (-1, 0, 1)
            for ox in (-1, 0, 1)
            if (oy, ox) != (0, 0)
        ]
        if step == 1:
            break
        step //= 2


def _diamond_schedule(search_range: int):
    """Large diamond repeated until stable, then one small diamond."""
    yield _RepeatingPattern(
        [(-2, 0), (2, 0), (0, -2), (0, 2), (-1, -1), (-1, 1), (1, -1), (1, 1)]
    )
    yield [(-1, 0), (1, 0), (0, -1), (0, 1)]


def three_step_search(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int = 8,
    search_range: int = 7,
) -> tuple[MotionField, int]:
    """Three-step (logarithmic) search: halving step, 8 neighbours + centre."""
    return _pattern_search(
        current, reference, block_size, search_range, _three_step_schedule
    )


def diamond_search(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int = 8,
    search_range: int = 7,
) -> tuple[MotionField, int]:
    """Diamond search: large diamond until stable, then small diamond."""
    return _pattern_search(
        current, reference, block_size, search_range, _diamond_schedule
    )


#: Registry used by the encoder configuration and the benchmarks.
#: ``full_reference`` is the scalar loop the vectorized ``full`` replaced;
#: it stays selectable so the speedup benchmark encodes through both paths.
SEARCH_ALGORITHMS = {
    "full": full_search,
    "full_reference": full_search_reference,
    "three_step": three_step_search,
    "diamond": diamond_search,
}


def motion_compensate(reference: np.ndarray, field: MotionField) -> np.ndarray:
    """Build the predicted frame by applying ``field`` to ``reference``.

    This is the decoder-side operation the paper describes: the receiver
    holds the reference frame and applies the motion vectors.
    Out-of-bounds vectors clamp to the frame edge (encoder never emits them,
    but a robust decoder must not crash on a malformed stream).

    One gather for the whole plane (experiment R9): per-block clamped
    source origins broadcast against an offset grid cached per geometry
    give the flat source index of every predicted pixel, already in
    raster order, and a single ``take`` replaces the per-block copy loop
    kept as :func:`motion_compensate_reference`.  The clamps are
    ``np.minimum`` / ``np.maximum``: ``np.clip``'s wrapper costs more
    than the arithmetic on a plane's few dozen vectors.
    """
    n = field.block_size
    h, w = reference.shape
    by, bx = field.shape
    rows, cols, offsets = _compensate_grid(w, by, bx, n)
    sy = np.minimum(np.maximum(rows + field.dy, 0), h - n)
    sx = np.minimum(np.maximum(cols + field.dx, 0), w - n)
    origins = np.repeat(sy * w + sx, n, axis=1)  # one per predicted column
    pixels = reference.take(origins[:, None, :] + offsets)
    if (by * n, bx * n) == (h, w):
        return pixels.reshape(h, w)
    out = np.empty_like(reference)
    out[:by * n, :bx * n] = pixels.reshape(by * n, bx * n)
    return out


@lru_cache(maxsize=32)
def _compensate_grid(
    width: int, by: int, bx: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block row origins ``(by, 1)``, block column origins ``(bx,)`` and
    the ``(n, bx * n)`` offsets ``r * width + c`` of a block row's pixels
    from their blocks' origins."""
    rows = np.arange(by)[:, None] * n
    cols = np.arange(bx) * n
    offsets = np.arange(n)[:, None] * width + np.tile(np.arange(n), bx)
    for grid in (rows, cols, offsets):
        grid.flags.writeable = False
    return rows, cols, offsets


def motion_compensate_reference(
    reference: np.ndarray, field: MotionField
) -> np.ndarray:
    """Scalar block-copy loop: the :func:`motion_compensate` oracle.

    Kept per the ``_reference`` convention — the equivalence harness pins
    the gather formulation above against it.
    """
    n = field.block_size
    h, w = reference.shape
    out = np.empty_like(reference)
    by, bx = field.shape
    for i in range(by):
        for j in range(bx):
            y0, x0 = i * n, j * n
            sy = min(max(y0 + int(field.dy[i, j]), 0), h - n)
            sx = min(max(x0 + int(field.dx[i, j]), 0), w - n)
            out[y0:y0 + n, x0:x0 + n] = reference[sy:sy + n, sx:sx + n]
    return out


def full_search_op_count(
    width: int, height: int, block_size: int, search_range: int
) -> int:
    """Analytic MAC count for full-search ME over one frame.

    blocks * (2R+1)^2 candidates * N^2 absolute differences — the workload
    model used for DSP/accelerator provisioning in the task graphs.
    """
    blocks = (width // block_size) * (height // block_size)
    return blocks * (2 * search_range + 1) ** 2 * block_size ** 2
