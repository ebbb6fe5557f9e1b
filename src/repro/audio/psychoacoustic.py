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


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Deterministic per-row sums: sequential left-to-right accumulation.

    ``np.sum(..., axis=1)`` picks its pairwise blocking from the *whole*
    array shape, so a row's sum can differ in the last ULP between a
    1-window and an N-window batch.  ``np.add.reduceat`` accumulates each
    segment sequentially, making every row's sum a pure function of that
    row — the property the scalar/batched bit-identity (experiment R7)
    rests on.  Both the per-window and the batched model routes every
    order-sensitive power sum through here.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    num, width = rows.shape
    if width == 0:
        return np.zeros(num)
    return np.add.reduceat(rows.reshape(-1), np.arange(num) * width)


def _row_sum(values: np.ndarray) -> float:
    """Scalar-path form of :func:`_row_sums` for one 1-D vector."""
    return float(_row_sums(values)[0])


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
        self._window = np.hanning(self.fft_size)
        self._freqs = np.fft.rfftfreq(self.fft_size, d=1.0 / self.sample_rate)
        self._bark = bark(self._freqs)
        self._quiet = threshold_in_quiet(self._freqs)

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
        for mask in self._bark_band_masks():
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

    def _bark_band_masks(self) -> list[np.ndarray]:
        """Boolean bin masks of the occupied integer Bark bands, in order."""
        max_bark = int(np.ceil(self._bark[-1]))
        masks = []
        for band in range(max_bark + 1):
            mask = (self._bark >= band) & (self._bark < band + 1)
            if np.any(mask):
                masks.append(mask)
        return masks

    def _global_threshold_batch(self, spectrum_db: np.ndarray) -> np.ndarray:
        """Vectorized maskers + threshold for a whole (F, bins) batch.

        Mirrors ``_find_maskers`` + ``_global_threshold`` exactly: tonal
        maskers accumulate in ascending-bin order, then noise maskers in
        ascending-Bark-band order.  Frames with fewer maskers than the
        batch maximum see padding terms of exactly zero power
        (``10.0 ** -inf``), which leave the running sums bit-identical to
        the scalar sequential accumulation.
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
        max_tonal = int(counts.max()) if counts.size else 0
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        slot = np.arange(frame_idx.size) - starts[frame_idx]
        tonal_level = np.full((num, max_tonal), -np.inf)
        tonal_bark = np.zeros((num, max_tonal))
        tonal_level[frame_idx, slot] = merged
        tonal_bark[frame_idx, slot] = self._bark[bin_idx]

        # The flanking bins' energy belongs to the tone, not the residual.
        tonal_bins = np.zeros((num, bins), dtype=bool)
        for shift in (-1, 0, 1):
            tonal_bins[frame_idx, bin_idx + shift] = True
        residual = np.where(tonal_bins, 0.0, power)

        threshold_power = np.broadcast_to(
            10.0 ** (self._quiet / 10.0), (num, bins)
        ).copy()
        axis = self._bark[None, :]
        for k in range(max_tonal):
            contribution = (
                tonal_level[:, k, None]
                - TONAL_OFFSET
                + spreading_db(axis - tonal_bark[:, k, None])
            )
            threshold_power = threshold_power + 10.0 ** (contribution / 10.0)

        # Noise maskers: residual energy pooled per occupied Bark band.
        for mask in self._bark_band_masks():
            band_residual = residual[:, mask]
            energy = _row_sums(band_residual)
            quiet_floor = float(np.min(self._quiet[mask])) - 20.0
            with np.errstate(divide="ignore", invalid="ignore"):
                level = 10.0 * np.log10(energy)
                centroid = (
                    _row_sums(self._freqs[mask] * band_residual)
                    / energy
                )
            selected = (energy > 0.0) & (level > quiet_floor)
            level = np.where(selected, level, -np.inf)
            masker_bark = np.where(
                selected, bark(np.where(selected, centroid, 1.0)), 0.0
            )
            contribution = (
                level[:, None]
                - NOISE_OFFSET
                + spreading_db(axis - masker_bark[:, None])
            )
            threshold_power = threshold_power + 10.0 ** (contribution / 10.0)
        return 10.0 * np.log10(threshold_power)

    def _band_smr_batch(
        self, spectrum_db: np.ndarray, threshold_db: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        num, bins = spectrum_db.shape
        bins_per_band = bins // self.num_bands
        level = np.empty((num, self.num_bands))
        smr = np.empty((num, self.num_bands))
        for b in range(self.num_bands):
            lo = b * bins_per_band
            hi = (b + 1) * bins_per_band if b < self.num_bands - 1 else bins
            band_level = 10.0 * np.log10(
                _row_sums(10.0 ** (spectrum_db[:, lo:hi] / 10.0))
            )
            level[:, b] = band_level
            smr[:, b] = band_level - np.min(threshold_db[:, lo:hi], axis=1)
        return level, smr
