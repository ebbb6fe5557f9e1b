"""Tests for the psychoacoustic masking model (paper Section 4)."""

import warnings

import numpy as np
import pytest

from repro.audio.psychoacoustic import (
    QUIET_CEILING_DB,
    PsychoacousticModel,
    bark,
    spreading_db,
    threshold_in_quiet,
)
from repro.workloads.audio_gen import masked_pair, tone


@pytest.fixture(scope="module")
def model():
    return PsychoacousticModel(sample_rate=44100.0, fft_size=512, num_bands=32)


class TestBarkScale:
    def test_monotonic(self):
        f = np.linspace(20, 20000, 256)
        z = bark(f)
        assert np.all(np.diff(z) > 0)

    def test_reference_points(self):
        # ~1 kHz is ~8.5 Bark; full scale tops out near 24-25 Bark.
        assert 8.0 < bark(1000.0) < 9.5
        assert 23.0 < bark(20000.0) < 26.0


class TestThresholdInQuiet:
    def test_most_sensitive_region_is_2_to_5_khz(self):
        f = np.linspace(100, 16000, 512)
        tq = threshold_in_quiet(f)
        best = f[int(np.argmin(tq))]
        assert 2000 < best < 6000

    def test_rises_at_low_frequencies(self):
        assert threshold_in_quiet(50.0) > threshold_in_quiet(1000.0)

    def test_finite_without_warning_at_192_khz_nyquist(self):
        # Uncapped, the f**4 term reaches ~85,000 dB at 96 kHz and the
        # model's 10 ** (tq / 10) overflows to inf with a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tq = threshold_in_quiet(np.linspace(20.0, 96000.0, 64))
            power = 10.0 ** (tq / 10.0)
            PsychoacousticModel(
                sample_rate=192000.0, fft_size=256, num_bands=32
            ).analyze(tone(40000.0, sample_rate=192000.0)[:256])
        assert np.all(np.isfinite(tq)) and np.all(np.isfinite(power))
        assert np.isfinite(threshold_in_quiet(96000.0))

    @pytest.mark.parametrize(
        "sample_rate", [8000.0, 16000.0, 22050.0, 32000.0, 44100.0, 48000.0]
    )
    def test_cap_leaves_audio_rates_unchanged(self, sample_rate):
        # Up to a 48 kHz Nyquist the ceiling never binds: the threshold is
        # Terhardt's formula exactly, so no scenario output can move.
        freqs = np.linspace(0.0, sample_rate / 2.0, 257)
        f = np.maximum(freqs, 20.0) / 1000.0
        terhardt = (
            3.64 * f ** -0.8
            - 6.5 * np.exp(-0.6 * (f - 3.3) ** 2)
            + 1e-3 * f ** 4
        )
        tq = threshold_in_quiet(freqs)
        assert np.max(tq) < QUIET_CEILING_DB
        assert np.array_equal(tq, terhardt)

    def test_ceiling_binds_only_far_above_hearing(self):
        assert threshold_in_quiet(24000.0) < QUIET_CEILING_DB
        assert threshold_in_quiet(42000.0) == QUIET_CEILING_DB
        assert threshold_in_quiet(1e6) == QUIET_CEILING_DB

    @pytest.mark.parametrize("sample_rate", [96000.0, 192000.0, 384000.0])
    def test_high_rate_batch_matches_per_window(self, sample_rate):
        model = PsychoacousticModel(
            sample_rate=sample_rate, fft_size=256, num_bands=32
        )
        x = tone(0.3 * sample_rate, duration=0.01, sample_rate=sample_rate)
        windows = np.stack([x[:256], x[256:512]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = model.analyze_batch(windows)
            rows = [model.analyze(w) for w in windows]
        assert np.all(np.isfinite(batch.global_threshold_db))
        for f, ref in enumerate(rows):
            assert np.array_equal(
                batch.global_threshold_db[f], ref.global_threshold_db
            )
            assert np.array_equal(batch.band_smr_db[f], ref.band_smr_db)


class TestSpreading:
    def test_asymmetric_slopes(self):
        # Masking spreads further upward (shallower slope above the masker).
        below = spreading_db(np.array([-1.0]))
        above = spreading_db(np.array([1.0]))
        assert below < above < 0

    def test_zero_at_masker(self):
        assert spreading_db(np.array([0.0])) == pytest.approx(0.0)


class TestModel:
    def test_pure_tone_found_tonal(self, model):
        x = tone(1000.0)[:512]
        analysis = model.analyze(x)
        tonal = [m for m in analysis.maskers if m.tonal]
        assert tonal
        best = max(tonal, key=lambda m: m.level_db)
        assert abs(best.frequency_hz - 1000.0) < 100.0

    def test_full_scale_tone_calibration(self, model):
        x = tone(1000.0, amplitude=1.0)[:512]
        analysis = model.analyze(x)
        assert np.max(analysis.spectrum_db) == pytest.approx(96.0, abs=3.0)

    def test_weak_neighbour_is_masked(self):
        # A 512-point FFT cannot resolve a 100 Hz separation at 44.1 kHz,
        # so the masking experiment runs on a higher-resolution model:
        # masker at 1 kHz, probe 1.7 Bark above it at -36 dB.
        fine = PsychoacousticModel(fft_size=2048, num_bands=32)
        x = masked_pair(masker_hz=1000.0, probe_hz=1300.0, probe_level_db=-36.0)
        analysis = fine.analyze(x[:2048])
        probe_bin = int(round(1300.0 / 44100.0 * 2048))
        assert (
            analysis.spectrum_db[probe_bin]
            < analysis.global_threshold_db[probe_bin]
        )

    def test_isolated_probe_is_audible(self):
        # The same probe alone sits far above the threshold in quiet —
        # masking, not absolute level, is what hides it above.
        fine = PsychoacousticModel(fft_size=2048, num_bands=32)
        x = tone(1300.0, amplitude=0.5 * 10 ** (-36.0 / 20.0))[:2048]
        analysis = fine.analyze(x)
        probe_bin = int(round(1300.0 / 44100.0 * 2048))
        assert (
            analysis.spectrum_db[probe_bin]
            > analysis.global_threshold_db[probe_bin]
        )

    def test_masked_fraction_higher_for_sparse_content(self, model, rng):
        sparse = tone(1000.0)[:512]
        dense = rng.normal(0, 0.3, 512)
        assert (
            model.analyze(sparse).masked_fraction()
            > model.analyze(dense).masked_fraction()
        )

    def test_smr_peaks_in_signal_band(self, model):
        x = tone(3000.0)[:512]
        analysis = model.analyze(x)
        expected_band = int(3000.0 / (44100.0 / 2) * 32)
        assert int(np.argmax(analysis.band_smr_db)) == expected_band

    def test_silence_has_no_audible_bins(self, model):
        analysis = model.analyze(np.zeros(512))
        assert analysis.masked_fraction() == pytest.approx(1.0)

    def test_short_window_padded(self, model):
        analysis = model.analyze(np.ones(100) * 0.1)
        assert analysis.spectrum_db.size == 257

    def test_rejects_2d_input(self, model):
        with pytest.raises(ValueError):
            model.analyze(np.zeros((2, 512)))

    def test_fft_must_resolve_bands(self):
        with pytest.raises(ValueError):
            PsychoacousticModel(fft_size=32, num_bands=32)
