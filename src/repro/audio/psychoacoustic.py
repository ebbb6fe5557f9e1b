"""Psychoacoustic masking model — the PSYCHOACOUSTIC MODEL box of Figure 2.

Section 4 of the paper: *"A key psychoacoustic mechanism exploited by
compression is masking — when one tone is heard, followed by another tone at
a nearby frequency, the second tone cannot be heard for some interval ...
The encoder can eliminate masked tones to reduce the amount of information
that is sent to the decoder."*

This is a compact MPEG-1 "Model 1"-style analysis:

1. FFT power spectrum, calibrated so a full-scale sine sits at 96 dB SPL;
2. tonal maskers = sharp local maxima; the residual spectrum forms one
   noise masker per critical band;
3. each masker spreads across the Bark axis with the classic two-slope
   spreading function and a tonality-dependent masking offset;
4. the overall masking threshold power-sums spread masking and the absolute
   threshold in quiet;
5. per-subband signal-to-mask ratios (SMR) feed the bit allocator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: dB SPL assigned to a full-scale (amplitude 1.0) sinusoid.
FULL_SCALE_SPL = 96.0

#: Masking offsets (dB below masker level) for tonal and noise maskers.
TONAL_OFFSET = 14.5
NOISE_OFFSET = 6.0

#: Ceiling on the threshold in quiet (dB SPL).  Terhardt's ``f**4`` term
#: passes 3,080 dB near 42 kHz, where ``10 ** (tq / 10)`` overflows
#: float64.  The cap is far above hearing and above every value the
#: formula gives up to a 48 kHz sample rate's Nyquist (~332 dB), so it
#: changes no threshold at the rates the scenarios use.
QUIET_CEILING_DB = 1000.0

#: Masker terms per frame block in the batched threshold.  A whole
#: 44.1 kHz stream in one block (171 frames x ~65 maskers x 257 bins)
#: makes every elementwise temporary ~24 MB, and the passes over them run
#: from main memory; 32k terms (256 KB) keep a voice-bridge call (10
#: frames x ~40 maskers x 65 bins) in one block.
_BLOCK_TERMS = 1 << 15


def bark(frequency_hz: np.ndarray | float) -> np.ndarray | float:
    """Zwicker's critical-band (Bark) scale.

    Computed through a 1-D array even for scalar input: numpy's 0-d
    ``** 2`` takes a scalar pow fast path that can differ from the array
    square loop in the last ULP, and the batched model (experiment R7)
    must reproduce the scalar path bit-for-bit.
    """
    f = np.atleast_1d(np.asarray(frequency_hz, dtype=np.float64))
    z = 13.0 * np.arctan(0.00076 * f) + 3.5 * np.arctan((f / 7500.0) ** 2)
    if np.isscalar(frequency_hz) or np.ndim(frequency_hz) == 0:
        return float(z[0])
    return z


def threshold_in_quiet(frequency_hz: np.ndarray | float) -> np.ndarray | float:
    """Absolute hearing threshold (dB SPL), Terhardt's approximation,
    capped at :data:`QUIET_CEILING_DB`."""
    f = np.maximum(np.asarray(frequency_hz, dtype=np.float64), 20.0) / 1000.0
    tq = np.minimum(
        3.64 * f ** -0.8
        - 6.5 * np.exp(-0.6 * (f - 3.3) ** 2)
        + 1e-3 * f ** 4,
        QUIET_CEILING_DB,
    )
    return float(tq) if np.isscalar(frequency_hz) else tq


def _row_sum(values: np.ndarray) -> float:
    """Deterministic sum of one 1-D vector for the per-window model.

    ``np.sum`` picks its pairwise blocking from the *whole* array shape,
    so the same values can sum differently in the last ULP inside a
    1-window and an N-window batch.  ``np.add.reduceat`` runs one inner
    loop per segment that depends only on that segment's values, so the
    batched model's ``np.add.reduceat(..., axis=1)`` over the same
    contiguous bin runs reproduces every sum taken here bit-for-bit
    (experiments R7 and R12).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.add.reduceat(values, [0])[0])


def spreading_db(dz: np.ndarray) -> np.ndarray:
    """Two-slope spreading function in dB as a function of Bark distance.

    +27 dB/Bark rising edge below the masker, -12 dB/Bark falling edge
    above it (a simplification of Schroeder's curve adequate for SMR
    estimation).
    """
    dz = np.asarray(dz, dtype=np.float64)
    return np.where(dz < 0.0, 27.0 * dz, -12.0 * dz)


@dataclass
class Masker:
    """A single masking component on the Bark axis."""

    frequency_hz: float
    bark: float
    level_db: float
    tonal: bool


@dataclass
class BatchedMaskingAnalysis:
    """Output of :meth:`PsychoacousticModel.analyze_batch`: one row per
    analysis window, every array bit-identical to the corresponding field
    of the per-window :class:`MaskingAnalysis` (experiment R7)."""

    frequencies: np.ndarray  # FFT bin centres (Hz), shared by all windows
    spectrum_db: np.ndarray  # (windows, bins)
    global_threshold_db: np.ndarray  # (windows, bins)
    band_smr_db: np.ndarray  # (windows, subbands)
    band_level_db: np.ndarray  # (windows, subbands)

    def masked_fraction(self) -> np.ndarray:
        """Per-window fraction of FFT bins below the threshold."""
        if self.spectrum_db.shape[0] == 0:
            return np.zeros(0)
        audible = self.spectrum_db > self.global_threshold_db
        return 1.0 - np.mean(audible, axis=1)


@dataclass
class MaskingAnalysis:
    """Output of the model for one analysis window."""

    frequencies: np.ndarray  # FFT bin centres (Hz)
    spectrum_db: np.ndarray  # calibrated power spectrum (dB SPL)
    maskers: list[Masker]
    global_threshold_db: np.ndarray  # per FFT bin
    band_smr_db: np.ndarray  # per subband signal-to-mask ratio
    band_level_db: np.ndarray

    def masked_fraction(self) -> float:
        """Fraction of FFT bins whose signal lies below the threshold."""
        audible = self.spectrum_db > self.global_threshold_db
        return 1.0 - float(np.mean(audible))


def _bark_band_masks(bark_z: np.ndarray) -> list[np.ndarray]:
    """Boolean bin masks of the occupied integer Bark bands, in order."""
    max_bark = int(np.ceil(bark_z[-1]))
    masks = []
    for band in range(max_bark + 1):
        mask = (bark_z >= band) & (bark_z < band + 1)
        if np.any(mask):
            masks.append(mask)
    return masks


@lru_cache(maxsize=8)
def _model_tables(
    sample_rate: float, fft_size: int, num_bands: int
) -> tuple[np.ndarray, ...]:
    """The model's constant arrays for one geometry, derived once.

    ``(window, freqs, bark, quiet, bark_starts, noise_floor,
    quiet_power, band_starts)``, all read-only: every model of the same
    geometry shares them, so building a :class:`PsychoacousticModel`
    (one per :class:`repro.audio.AudioEncoder`) costs no array work.
    """
    window = np.hanning(fft_size)
    freqs = np.fft.rfftfreq(fft_size, d=1.0 / sample_rate)
    bark_z = bark(freqs)
    quiet = threshold_in_quiet(freqs)
    # Batched-path layout (experiment R12), derived from the scalar
    # path's own band definitions.  Integer Bark bands are contiguous
    # bin runs because the Bark scale rises with frequency.
    masks = _bark_band_masks(bark_z)
    bark_starts = np.array([np.argmax(m) for m in masks])
    bounds = np.append(bark_starts, freqs.size)
    assert all(
        np.array_equal(np.flatnonzero(m), np.arange(lo, hi))
        for m, lo, hi in zip(masks, bounds[:-1], bounds[1:])
    ), "integer Bark bands must be contiguous bin runs"
    noise_floor = np.minimum.reduceat(quiet, bark_starts) - 20.0
    quiet_power = 10.0 ** (quiet / 10.0)
    band_starts = np.arange(num_bands) * (freqs.size // num_bands)
    tables = (
        window, freqs, bark_z, quiet, bark_starts, noise_floor,
        quiet_power, band_starts,
    )
    for table in tables:
        table.setflags(write=False)
    return tables


class PsychoacousticModel:
    """FFT-based masking analysis producing per-subband SMRs."""

    def __init__(
        self,
        sample_rate: float = 44100.0,
        fft_size: int = 512,
        num_bands: int = 32,
    ) -> None:
        if fft_size < 2 * num_bands:
            raise ValueError("FFT must resolve at least 2 bins per subband")
        self.sample_rate = float(sample_rate)
        self.fft_size = int(fft_size)
        self.num_bands = int(num_bands)
        (
            self._window, self._freqs, self._bark, self._quiet,
            self._bark_starts, self._noise_floor, self._quiet_power,
            self._band_starts,
        ) = _model_tables(self.sample_rate, self.fft_size, self.num_bands)

    def analyze(self, samples: np.ndarray) -> MaskingAnalysis:
        """Run the model on one window of PCM (padded/truncated to the FFT)."""
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("model expects a mono window")
        if x.size < self.fft_size:
            x = np.concatenate([x, np.zeros(self.fft_size - x.size)])
        x = x[: self.fft_size]

        spectrum_db = self._calibrated_spectrum(x)
        maskers = self._find_maskers(spectrum_db)
        threshold = self._global_threshold(maskers)
        band_level, band_smr = self._band_smr(spectrum_db, threshold)
        return MaskingAnalysis(
            frequencies=self._freqs,
            spectrum_db=spectrum_db,
            maskers=maskers,
            global_threshold_db=threshold,
            band_smr_db=band_smr,
            band_level_db=band_level,
        )

    def analyze_batch(self, windows: np.ndarray) -> BatchedMaskingAnalysis:
        """Run the model on many windows at once (experiment R7).

        ``windows`` is ``(num_windows, fft_size)`` — every row exactly the
        padded/truncated window :meth:`analyze` would see.  The whole
        batch shares one ``np.fft.rfft`` and vectorized masker/threshold/
        SMR passes, and every output row is bit-identical to the scalar
        per-window path: elementwise math is the same IEEE expressions,
        reductions keep the same operand order (contiguous inner-axis
        sums), and the sequential threshold accumulation pads absent
        maskers with exact-zero power terms so the running sums match.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 2 or windows.shape[1] != self.fft_size:
            raise ValueError(
                f"expected (windows, {self.fft_size}) array, "
                f"got {windows.shape}"
            )
        if windows.shape[0] == 0:
            bins = self._freqs.size
            empty = np.zeros((0, bins))
            return BatchedMaskingAnalysis(
                frequencies=self._freqs,
                spectrum_db=empty,
                global_threshold_db=empty,
                band_smr_db=np.zeros((0, self.num_bands)),
                band_level_db=np.zeros((0, self.num_bands)),
            )
        spectrum_db = self._calibrated_spectrum_batch(windows)
        threshold = self._global_threshold_batch(spectrum_db)
        band_level, band_smr = self._band_smr_batch(spectrum_db, threshold)
        return BatchedMaskingAnalysis(
            frequencies=self._freqs,
            spectrum_db=spectrum_db,
            global_threshold_db=threshold,
            band_smr_db=band_smr,
            band_level_db=band_level,
        )

    # ------------------------------------------------------------ internals

    def _calibrated_spectrum(self, x: np.ndarray) -> np.ndarray:
        windowed = x * self._window
        spec = np.fft.rfft(windowed)
        # Normalize so a full-scale sine reaches FULL_SCALE_SPL dB: the
        # windowed sine's peak bin magnitude is ~ N/2 * mean(window).
        ref = (self.fft_size / 2.0) * np.mean(self._window)
        power = (np.abs(spec) / ref) ** 2
        return FULL_SCALE_SPL + 10.0 * np.log10(np.maximum(power, 1e-12))

    def _find_maskers(self, spectrum_db: np.ndarray) -> list[Masker]:
        """Tonal + noise maskers for one window.

        All dB/power conversions go through the array ufuncs (``np.power``
        / ``np.log10``), never Python ``**`` on numpy scalars — the scalar
        fast path rounds the last ULP differently, and the batched model
        (:meth:`analyze_batch`) must reproduce this reference bit-for-bit.
        """
        maskers: list[Masker] = []
        s = spectrum_db
        bins = s.size
        power = np.power(10.0, s / 10.0)
        # Tonal: local maxima that dominate their neighbourhood by >= 7 dB.
        centre = s[2:bins - 2]
        is_tonal = (
            (centre >= s[1:bins - 3])
            & (centre >= s[3:bins - 1])
            & (centre >= s[0:bins - 4] + 7.0)
            & (centre >= s[4:bins] + 7.0)
        )
        # Merge each tone's energy from its two flanking bins.
        merged = 10.0 * np.log10(
            (power[1:bins - 3] + power[2:bins - 2]) + power[3:bins - 1]
        )
        tonal_bins = np.zeros(bins, dtype=bool)
        for pos in np.nonzero(is_tonal)[0]:
            i = int(pos) + 2
            maskers.append(
                Masker(
                    frequency_hz=float(self._freqs[i]),
                    bark=float(self._bark[i]),
                    level_db=float(merged[pos]),
                    tonal=True,
                )
            )
            tonal_bins[i - 1:i + 2] = True
        # Noise: residual energy pooled per integer Bark band (the same
        # band masks the batched model iterates — one definition, so the
        # scalar/batched bit-identity cannot drift).
        residual = np.where(tonal_bins, 0.0, power)
        for mask in _bark_band_masks(self._bark):
            energy = _row_sum(residual[mask])
            if energy <= 0.0:
                continue
            level = 10.0 * np.log10(energy)
            centroid = (
                _row_sum(self._freqs[mask] * residual[mask]) / energy
            )
            if level > float(np.min(self._quiet[mask])) - 20.0:
                maskers.append(
                    Masker(
                        frequency_hz=float(centroid),
                        bark=float(bark(centroid)),
                        level_db=float(level),
                        tonal=False,
                    )
                )
        return maskers

    def _global_threshold(self, maskers: list[Masker]) -> np.ndarray:
        threshold_power = 10.0 ** (self._quiet / 10.0)
        for m in maskers:
            offset = TONAL_OFFSET if m.tonal else NOISE_OFFSET
            contribution = m.level_db - offset + spreading_db(
                self._bark - m.bark
            )
            threshold_power = threshold_power + 10.0 ** (contribution / 10.0)
        return 10.0 * np.log10(threshold_power)

    def _band_smr(
        self, spectrum_db: np.ndarray, threshold_db: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        bins_per_band = spectrum_db.size // self.num_bands
        level = np.empty(self.num_bands)
        smr = np.empty(self.num_bands)
        for b in range(self.num_bands):
            lo = b * bins_per_band
            hi = (b + 1) * bins_per_band if b < self.num_bands - 1 else spectrum_db.size
            band_level = 10.0 * np.log10(
                _row_sum(10.0 ** (spectrum_db[lo:hi] / 10.0))
            )
            min_threshold = float(np.min(threshold_db[lo:hi]))
            level[b] = band_level
            smr[b] = band_level - min_threshold
        return level, smr

    # --------------------------------------------------- batched internals

    def _calibrated_spectrum_batch(self, x: np.ndarray) -> np.ndarray:
        windowed = x * self._window
        spec = np.fft.rfft(windowed, axis=-1)
        ref = (self.fft_size / 2.0) * np.mean(self._window)
        power = (np.abs(spec) / ref) ** 2
        return FULL_SCALE_SPL + 10.0 * np.log10(np.maximum(power, 1e-12))

    def _global_threshold_batch(self, spectrum_db: np.ndarray) -> np.ndarray:
        """Vectorized maskers + threshold for a whole (F, bins) batch.

        Mirrors ``_find_maskers`` + ``_global_threshold`` exactly
        (experiment R12).  Every masker's spread term is one slice of a
        ``(frames, maskers, bins)`` array: the threshold in quiet first,
        then tonal maskers in ascending-bin order, then noise maskers in
        ascending-Bark-band order.  One ``np.add.reduce`` over that
        middle axis sums them: NumPy's pairwise summation applies only
        along the fastest-varying axis, so it adds the slices one at a
        time in slot order, the scalar path's sequence (and the same bits
        as ``np.add.accumulate`` at a fifth of the cost).  A frame with
        fewer maskers than the batch sees padding terms of exactly zero
        power (``10.0 ** -inf``), which leave the running sums unchanged.
        Frames run in blocks of about :data:`_BLOCK_TERMS` terms.
        """
        s = spectrum_db
        num, bins = s.shape
        power = 10.0 ** (s / 10.0)

        # Tonal maskers: local maxima dominating their +/-2 neighbourhood.
        centre = s[:, 2:bins - 2]
        tonal = (
            (centre >= s[:, 1:bins - 3])
            & (centre >= s[:, 3:bins - 1])
            & (centre >= s[:, 0:bins - 4] + 7.0)
            & (centre >= s[:, 4:bins] + 7.0)
        )
        frame_idx, pos = np.nonzero(tonal)  # row-major: ascending bin order
        bin_idx = pos + 2
        merged = 10.0 * np.log10(
            (power[frame_idx, bin_idx - 1] + power[frame_idx, bin_idx])
            + power[frame_idx, bin_idx + 1]
        )
        counts = np.bincount(frame_idx, minlength=num)
        max_tonal = int(counts.max())
        # Tonal slots are right-aligned: a frame's padding comes first and
        # adds exact zeros to the threshold in quiet before any masker.
        ends = np.cumsum(counts)
        slot = np.arange(frame_idx.size) - ends[frame_idx] + max_tonal
        num_noise = self._bark_starts.size
        level = np.full((num, max_tonal + num_noise), -np.inf)
        masker_bark = np.zeros((num, max_tonal + num_noise))
        level[frame_idx, slot] = merged
        masker_bark[frame_idx, slot] = self._bark[bin_idx]

        # Noise maskers: residual energy pooled per occupied Bark band;
        # the flanking bins' energy belongs to the tone, not the residual.
        residual = power.copy()
        residual[frame_idx[:, None], bin_idx[:, None] + np.arange(-1, 2)] = 0.0
        energy = np.add.reduceat(residual, self._bark_starts, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            noise_level = 10.0 * np.log10(energy)
            centroid = (
                np.add.reduceat(
                    self._freqs * residual, self._bark_starts, axis=1
                )
                / energy
            )
        selected = (energy > 0.0) & (noise_level > self._noise_floor)
        level[:, max_tonal:] = np.where(selected, noise_level, -np.inf)
        masker_bark[:, max_tonal:][selected] = bark(centroid[selected])

        offset = np.where(
            np.arange(max_tonal + num_noise) < max_tonal,
            TONAL_OFFSET,
            NOISE_OFFSET,
        )
        base = level - offset
        threshold_power = np.empty((num, bins))
        step = max(1, _BLOCK_TERMS // (base.shape[1] * bins))
        for lo in range(0, num, step):
            rows = slice(lo, lo + step)
            # A block keeps only the tonal slots its own frames use.
            cols = slice(max_tonal - int(counts[rows].max()), None)
            contribution = base[rows, cols, None] + spreading_db(
                self._bark - masker_bark[rows, cols, None]
            )
            terms = np.concatenate(
                [
                    np.broadcast_to(
                        self._quiet_power, (contribution.shape[0], 1, bins)
                    ),
                    10.0 ** (contribution / 10.0),
                ],
                axis=1,
            )
            threshold_power[rows] = np.add.reduce(terms, axis=1)
        return 10.0 * np.log10(threshold_power)

    def _band_smr_batch(
        self, spectrum_db: np.ndarray, threshold_db: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        level = 10.0 * np.log10(
            np.add.reduceat(
                10.0 ** (spectrum_db / 10.0), self._band_starts, axis=1
            )
        )
        smr = level - np.minimum.reduceat(
            threshold_db, self._band_starts, axis=1
        )
        return level, smr
