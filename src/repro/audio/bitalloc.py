"""Bit allocation — the QUANTIZER/CODER decision logic of Figure 2.

Given per-subband signal-to-mask ratios from the psychoacoustic model and a
bit pool fixed by the target bitrate, the allocator greedily hands bits to
the band whose *mask-to-noise ratio* (MNR = quantizer SNR - SMR) is worst,
one bit at a time — the Layer 1/2 iterative allocation strategy.  Bands that
are masked (SMR <= 0) receive bits only after every audible band is clean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: SNR gained per quantizer bit (6.02 dB rule).
SNR_PER_BIT = 6.02

#: Maximum bits per subband sample the frame format can signal.
MAX_BITS = 15


@dataclass
class Allocation:
    """Result of one frame's allocation."""

    bits: np.ndarray  # per band, int
    mnr_db: np.ndarray  # mask-to-noise ratio per band at this allocation
    pool_bits: int
    spent_bits: int

    @property
    def min_mnr_db(self) -> float:
        active = self.mnr_db[np.isfinite(self.mnr_db)]
        return float(np.min(active)) if active.size else np.inf


def quantizer_snr_db(bits: int) -> float:
    """SNR of a uniform quantizer with ``bits`` bits (0 bits -> 0 dB)."""
    if bits <= 0:
        return 0.0
    return SNR_PER_BIT * bits


def _check_allocation_args(
    smr: np.ndarray, pool_bits: int, samples_per_band: int
) -> None:
    if smr.ndim != 1:
        raise ValueError("smr_db must be a 1-D per-band array")
    if pool_bits < 0:
        raise ValueError("bit pool cannot be negative")
    if samples_per_band <= 0:
        raise ValueError("samples_per_band must be positive")
    if np.isnan(smr).any():
        raise ValueError("smr_db must not contain NaN")


def allocate_bits_reference(
    smr_db: np.ndarray,
    pool_bits: int,
    samples_per_band: int,
    side_bits_per_band: int = 0,
    max_bits: int = MAX_BITS,
) -> Allocation:
    """Greedy MNR-driven allocation, written the straightforward way.

    Rebuilds the full per-band MNR array and the candidate list on every
    granted bit — O(bands x granted bits) per frame.  Kept as the pinned
    oracle for :func:`allocate_bits_batch` (the sorted-prefix and lockstep
    batch form, experiments R7 and R12), which produces identical
    allocations, identical MNR arrays, and identical spent-bit counts.
    The scalar encoder path allocates with it frame by frame.

    Parameters
    ----------
    smr_db:
        Signal-to-mask ratio per subband (dB).  Higher SMR = the band needs
        more quantizer SNR before its noise drops under the masking curve.
    pool_bits:
        Total bits available for samples + per-band side information.
    samples_per_band:
        Subband samples carried per frame (12 in our Layer-1-style frames);
        granting a band one more bit costs ``samples_per_band`` bits.
    side_bits_per_band:
        Extra cost charged the first time a band becomes active (its
        scalefactor field).
    """
    smr = np.asarray(smr_db, dtype=np.float64)
    _check_allocation_args(smr, pool_bits, samples_per_band)

    num_bands = smr.size
    bits = np.zeros(num_bands, dtype=np.int64)
    remaining = pool_bits

    def grant_cost(band: int) -> int:
        cost = samples_per_band
        if bits[band] == 0:
            cost += side_bits_per_band
        return cost

    while True:
        mnr = np.array(
            [quantizer_snr_db(int(b)) for b in bits]
        ) - smr
        # Candidate bands that can still take a bit we can afford.
        candidates = [
            b
            for b in range(num_bands)
            if bits[b] < max_bits and grant_cost(b) <= remaining
        ]
        if not candidates:
            break
        worst = min(candidates, key=lambda b: (mnr[b], b))
        # Stop once every affordable band is already transparent by a
        # comfortable margin; extra bits would be inaudible.
        if mnr[worst] >= 12.0:
            break
        remaining -= grant_cost(worst)
        bits[worst] += 1

    mnr = np.array([quantizer_snr_db(int(b)) for b in bits]) - smr
    return Allocation(
        bits=bits,
        mnr_db=mnr,
        pool_bits=pool_bits,
        spent_bits=pool_bits - remaining,
    )


def allocate_bits_batch(
    smr_db: np.ndarray,
    pool_bits: int,
    samples_per_band: int,
    side_bits_per_band: int = 0,
    max_bits: int = MAX_BITS,
) -> list[Allocation]:
    """Greedy allocation for many frames: a sorted prefix, then lockstep
    (experiments R7 and R12).

    ``smr_db`` is ``(frames, bands)``; every frame shares the same bit
    pool.  A band's MNR before its ``k+1``-th bit is ``SNR_PER_BIT * k -
    smr``, a non-decreasing sequence in ``k``, and the greedy always
    grants the lowest (MNR, band) among the bands' next candidates — a
    k-way merge.  So until the pool binds, the grant order of a frame is
    a stable sort of all its ``(band, k)`` candidate levels: the prefix
    up to the first candidate that is already transparent (level >= 12)
    or whose cumulative cost overruns the pool is exactly the greedy's
    first grants.  Frames stopped by the pool below 12 dB finish in the
    lockstep loop of R7, which grants every such frame its next bit per
    pass.  The result equals calling :func:`allocate_bits_reference` per
    row.
    """
    smr = np.asarray(smr_db, dtype=np.float64)
    if smr.ndim != 2:
        raise ValueError("smr_db must be a (frames, bands) array")
    _check_allocation_args(smr.reshape(-1), pool_bits, samples_per_band)

    num_frames, num_bands = smr.shape
    depth = max(int(max_bits), 0)
    # Candidate (band, k) levels, band-major, so a stable sort breaks
    # level ties by band then by k — the greedy's argmin order.
    levels = (
        SNR_PER_BIT * np.arange(depth) - smr[:, :, None]
    ).reshape(num_frames, num_bands * depth)
    first_bit = np.arange(num_bands * depth) % max(depth, 1) == 0
    candidate_cost = samples_per_band + side_bits_per_band * first_bit
    rows = np.arange(num_frames)
    order = np.argsort(levels, axis=1, kind="stable")
    stop = (levels[rows[:, None], order] >= 12.0) | (
        np.cumsum(candidate_cost[order], axis=1) > pool_bits
    )
    # Prefix length per frame: the first stop, or every candidate.
    granted = np.argmax(
        np.concatenate([stop, np.ones((num_frames, 1), dtype=bool)], axis=1),
        axis=1,
    )
    taken = np.zeros(levels.shape, dtype=bool)
    taken[rows[:, None], order] = (
        np.arange(levels.shape[1]) < granted[:, None]
    )
    bits = np.sum(
        taken.reshape(num_frames, num_bands, depth), axis=2, dtype=np.int64
    )
    remaining = pool_bits - np.sum(
        samples_per_band * bits + side_bits_per_band * (bits > 0), axis=1
    )
    mnr = SNR_PER_BIT * bits - smr
    # Frames whose prefix stopped short of their last candidate re-enter
    # the greedy from there: one stopped by a level >= 12 ends on the
    # first pass, one stopped by cost may still afford a later bit.
    active = granted < num_bands * depth
    while np.any(active):
        cost = np.where(
            bits == 0, samples_per_band + side_bits_per_band, samples_per_band
        )
        affordable = (bits < max_bits) & (cost <= remaining[:, None])
        masked = np.where(affordable, mnr, np.inf)
        worst = np.argmin(masked, axis=1)
        grant = active & (masked[rows, worst] < 12.0)
        active = grant
        if not np.any(grant):
            break
        g = rows[grant]
        w = worst[grant]
        remaining[g] -= cost[g, w]
        bits[g, w] += 1
        mnr[g, w] = SNR_PER_BIT * bits[g, w] - smr[g, w]
    return [
        Allocation(
            bits=bits[f],
            mnr_db=mnr[f],
            pool_bits=pool_bits,
            spent_bits=int(pool_bits - remaining[f]),
        )
        for f in range(num_frames)
    ]


def flat_allocation(
    num_bands: int,
    pool_bits: int,
    samples_per_band: int,
    side_bits_per_band: int = 0,
    max_bits: int = MAX_BITS,
) -> Allocation:
    """Masking-blind baseline: spread the pool uniformly over all bands.

    This is the comparison arm of experiment C7 in DESIGN.md — what an
    encoder without a
    psychoacoustic model would do with the same bit budget.
    """
    if num_bands <= 0:
        raise ValueError("need at least one band")
    bits = np.zeros(num_bands, dtype=np.int64)
    remaining = pool_bits
    progress = True
    while progress:
        progress = False
        for b in range(num_bands):
            cost = samples_per_band + (side_bits_per_band if bits[b] == 0 else 0)
            if bits[b] < max_bits and cost <= remaining:
                bits[b] += 1
                remaining -= cost
                progress = True
    mnr = np.full(num_bands, np.nan)
    return Allocation(
        bits=bits,
        mnr_db=mnr,
        pool_bits=pool_bits,
        spent_bits=pool_bits - remaining,
    )
