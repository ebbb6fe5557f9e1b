"""End-to-end tests for the Figure-2 audio encoder and bit allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio import (
    AudioDecoder,
    AudioEncoder,
    AudioEncoderConfig,
    allocate_bits_reference,
    flat_allocation,
    quantizer_snr_db,
    snr_db,
)
from repro.audio.encoder import (
    MAX_FRAMES,
    MAX_SAMPLES,
    write_stream_header,
)
from repro.audio.frame import (
    SAMPLES_PER_BAND,
    choose_scalefactor,
    dequantize_band,
    quantize_band,
    scalefactor_table,
)
from repro.video.bitstream import BitReader, BitWriter
from repro.workloads.audio_gen import multitone, music_like, tone


class TestBitAllocation:
    def test_bits_go_to_high_smr_bands(self):
        smr = np.array([30.0, 0.0, -20.0, -20.0])
        alloc = allocate_bits_reference(smr, pool_bits=200, samples_per_band=12)
        assert alloc.bits[0] > alloc.bits[2]
        assert alloc.bits[0] > alloc.bits[3]

    def test_pool_respected(self):
        smr = np.full(32, 20.0)
        alloc = allocate_bits_reference(smr, pool_bits=500, samples_per_band=12)
        assert alloc.spent_bits <= 500

    def test_zero_pool_allocates_nothing(self):
        alloc = allocate_bits_reference(np.full(8, 10.0), 0, 12)
        assert np.all(alloc.bits == 0)

    def test_masked_bands_skipped_until_transparent(self):
        smr = np.array([40.0, -60.0])
        alloc = allocate_bits_reference(smr, pool_bits=120, samples_per_band=12)
        assert alloc.bits[1] == 0
        assert alloc.bits[0] >= 7  # 40/6.02 rounded up toward transparency

    def test_max_bits_clamped(self):
        smr = np.array([200.0])
        alloc = allocate_bits_reference(smr, pool_bits=100_000, samples_per_band=12)
        assert alloc.bits[0] <= 15

    def test_flat_allocation_uniform(self):
        alloc = flat_allocation(4, pool_bits=4 * 12 * 3 + 4 * 6, samples_per_band=12, side_bits_per_band=6)
        assert np.all(alloc.bits == alloc.bits[0])
        assert alloc.bits[0] == 3

    def test_quantizer_snr_rule(self):
        assert quantizer_snr_db(0) == 0.0
        assert quantizer_snr_db(10) == pytest.approx(60.2)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            allocate_bits_reference(np.zeros((2, 2)), 10, 12)
        with pytest.raises(ValueError):
            allocate_bits_reference(np.zeros(4), -1, 12)
        with pytest.raises(ValueError):
            allocate_bits_reference(np.zeros(4), 10, 0)


class TestBandQuantizer:
    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.9, 0.9, 12)
        scf = float(scalefactor_table()[0])
        for bits in (2, 4, 8, 12):
            codes = quantize_band(x, bits, scf)
            back = dequantize_band(codes, bits, scf)
            assert np.max(np.abs(back - x)) <= scf / (1 << bits) + 1e-12

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 100)
        errs = []
        for bits in (2, 6, 10):
            codes = quantize_band(x, bits, 2.0)
            errs.append(float(np.mean((dequantize_band(codes, bits, 2.0) - x) ** 2)))
        assert errs[0] > errs[1] > errs[2]

    def test_choose_scalefactor_covers(self):
        table = scalefactor_table()
        for value in (1.7, 0.3, 0.001):
            idx = choose_scalefactor(value)
            assert table[idx] >= value
            if idx < 63:
                assert table[idx + 1] < value or table[idx + 1] >= value * 2 ** -0.25

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize_band(np.zeros(4), 0, 1.0)


class TestCodecRoundtrip:
    def test_tone_high_rate_transparent(self):
        x = tone(1000.0, duration=0.2)
        enc = AudioEncoder(AudioEncoderConfig(bitrate=256_000)).encode(x)
        dec = AudioDecoder().decode(enc.data)
        assert snr_db(x, dec.pcm) > 25.0

    def test_rate_quality_tradeoff(self):
        x = multitone(duration=0.25)
        snrs = []
        for rate in (48_000, 128_000, 256_000):
            enc = AudioEncoder(AudioEncoderConfig(bitrate=rate)).encode(x)
            dec = AudioDecoder().decode(enc.data)
            snrs.append(snr_db(x, dec.pcm))
        assert snrs[0] < snrs[1]
        # Beyond transparency the allocator stops spending, so the top two
        # rates may tie (both are "clean"); they must not regress.
        assert snrs[2] >= snrs[1] - 0.5

    def test_achieved_rate_close_to_target(self):
        x = music_like(duration=0.4, seed=2)
        target = 96_000.0
        enc = AudioEncoder(AudioEncoderConfig(bitrate=target)).encode(x)
        assert enc.achieved_bitrate() <= target * 1.15

    def test_output_length_matches_input(self):
        x = multitone(duration=0.123)
        enc = AudioEncoder().encode(x)
        dec = AudioDecoder().decode(enc.data)
        assert dec.pcm.size == x.size

    def test_ancillary_data_rides_along(self):
        x = tone(500.0, duration=0.1)
        cfg = AudioEncoderConfig(ancillary_bytes_per_frame=4)
        payload = b"meta" * 40
        enc = AudioEncoder(cfg).encode(x, ancillary=payload)
        dec = AudioDecoder().decode(enc.data)
        assert dec.ancillary.startswith(b"meta")

    def test_psychoacoustics_beat_flat_allocation_at_equal_rate(self):
        # The Section-4 claim: masking-aware allocation wins on tonal content.
        x = multitone(duration=0.3, seed=3)
        rate = 64_000.0
        enc_psy = AudioEncoder(
            AudioEncoderConfig(bitrate=rate, use_psychoacoustics=True)
        ).encode(x)
        enc_flat = AudioEncoder(
            AudioEncoderConfig(bitrate=rate, use_psychoacoustics=False)
        ).encode(x)
        snr_psy = snr_db(x, AudioDecoder().decode(enc_psy.data).pcm)
        snr_flat = snr_db(x, AudioDecoder().decode(enc_flat.data).pcm)
        assert snr_psy > snr_flat

    def test_frame_stats_recorded(self):
        x = tone(2000.0, duration=0.1)
        enc = AudioEncoder().encode(x)
        assert enc.frame_stats
        stat = enc.frame_stats[0]
        assert stat.allocation.size == 32
        assert "filterbank" in stat.stage_ops

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            AudioDecoder().decode(b"\x00" * 32)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            AudioEncoder().encode(np.array([]))

    def test_stereo_rejected(self):
        with pytest.raises(ValueError):
            AudioEncoder().encode(np.zeros((2, 100)))


class TestHeaderBugfixes:
    """Regressions for the silent header-corruption bugs: the seed wrote
    ``frames & 0xFFFF``-style fields without range checks and truncated
    fractional sample rates to ``int``."""

    def test_frame_count_overflow_raises_cheaply(self):
        # Two bands -> 24 samples/frame, so the 16-bit frame count
        # overflows at ~1.6M samples instead of ~25M.
        cfg = AudioEncoderConfig(num_bands=2, fft_size=8, bitrate=10_000.0)
        pcm = np.zeros((MAX_FRAMES + 1) * cfg.samples_per_frame)
        for batched in (True, False):
            with pytest.raises(ValueError, match="16-bit frame-count"):
                AudioEncoder(cfg, batched=batched).encode(pcm)

    def test_max_frames_exactly_fits(self):
        writer = BitWriter()
        write_stream_header(writer, AudioEncoderConfig(), MAX_FRAMES, 100)
        # magic + version + rate + bands + frames + samples + anc
        assert len(writer) == 16 + 4 + 64 + 8 + 16 + 32 + 8

    def test_sample_count_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError, match="32-bit PCM-length"):
            write_stream_header(
                writer, AudioEncoderConfig(), 10, MAX_SAMPLES + 1
            )

    def test_fractional_sample_rate_roundtrips_exactly(self):
        # The seed wrote int(sample_rate): 44100.5 silently became 44100
        # and the decoder reported a wrong rate.  Now the float64 bit
        # pattern travels verbatim.
        for rate in (44100.5, 22050.25, 8000.125):
            cfg = AudioEncoderConfig(sample_rate=rate, bitrate=96_000)
            x = tone(500.0, duration=0.05, sample_rate=rate)
            enc = AudioEncoder(cfg).encode(x)
            dec = AudioDecoder().decode(enc.data)
            assert dec.sample_rate == rate
            assert dec.pcm.size == x.size

    def test_config_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AudioEncoderConfig(sample_rate=float("inf"))
        with pytest.raises(ValueError):
            AudioEncoderConfig(sample_rate=float("nan"))
        with pytest.raises(ValueError):
            AudioEncoderConfig(bitrate=float("inf"))

    def test_decoder_rejects_corrupt_header_fields(self):
        import struct

        def stream(rate_bits, bands, frames, samples):
            w = BitWriter()
            w.write_bits(0x4D41, 16)
            w.write_bits(2, 4)  # current VERSION
            w.write_bits(rate_bits, 64)
            w.write_bits(bands, 8)
            w.write_bits(frames, 16)
            w.write_bits(samples, 32)
            w.write_bits(0, 8)
            w.align()
            return w.getvalue() + b"\x00" * 64

        good_rate = int.from_bytes(struct.pack(">d", 44100.0), "big")
        nan_rate = int.from_bytes(struct.pack(">d", float("nan")), "big")
        with pytest.raises(ValueError, match="sample rate"):
            AudioDecoder().decode(stream(nan_rate, 32, 1, 10))
        with pytest.raises(ValueError, match="subbands"):
            AudioDecoder().decode(stream(good_rate, 1, 1, 10))
        with pytest.raises(ValueError, match="sample count"):
            AudioDecoder().decode(stream(good_rate, 32, 1, 4_000_000))

    def test_seed_format_stream_rejected_by_version_check(self):
        # The versionless seed format wrote a 32-bit int sample rate
        # right after the magic; its high nibble (0 for any real rate)
        # lands where the version field now lives, so old streams fail
        # loudly instead of misparsing into a garbage float64 rate.
        w = BitWriter()
        w.write_bits(0x4D41, 16)
        w.write_bits(44100, 32)  # old int rate field
        w.write_bits(32, 8)
        w.write_bits(1, 16)
        w.write_bits(100, 32)
        w.write_bits(0, 8)
        w.align()
        with pytest.raises(ValueError, match="version"):
            AudioDecoder().decode(w.getvalue() + b"\x00" * 64)


class TestRoundtripEdgeCases:
    @pytest.mark.parametrize("batched", [True, False])
    def test_ancillary_payload_not_filling_last_frame(self, batched):
        cfg = AudioEncoderConfig(ancillary_bytes_per_frame=5)
        x = tone(700.0, duration=0.1)
        payload = b"odd-sized"  # much shorter than frames * 5
        enc = AudioEncoder(cfg, batched=batched).encode(x, payload)
        dec = AudioDecoder(batched=batched).decode(enc.data)
        frames = len(enc.frame_stats)
        assert dec.ancillary == payload.ljust(5 * frames, b"\x00")

    @pytest.mark.parametrize("num_bands", [4, 8, 16])
    def test_non_default_band_counts_roundtrip(self, num_bands):
        cfg = AudioEncoderConfig(
            num_bands=num_bands, fft_size=max(64, 2 * num_bands),
            bitrate=128_000,
        )
        x = multitone(duration=0.1)
        enc = AudioEncoder(cfg).encode(x)
        dec = AudioDecoder().decode(enc.data)
        assert dec.pcm.size == x.size
        assert snr_db(x, dec.pcm) > 10.0

    @pytest.mark.parametrize("batched", [True, False])
    def test_zero_allocation_frames_roundtrip(self, batched):
        # A starved bit pool (or fully masked content) leaves whole
        # frames with no active band; the packer must still emit valid
        # side info and the decoder must reconstruct exact silence.
        cfg = AudioEncoderConfig(bitrate=10_000)  # pool collapses to 0
        x = np.zeros(3000)
        enc = AudioEncoder(cfg, batched=batched).encode(x)
        assert all(
            np.all(stat.allocation == 0) for stat in enc.frame_stats
        )
        dec = AudioDecoder(batched=batched).decode(enc.data)
        assert dec.pcm.size == x.size
        assert np.array_equal(dec.pcm, np.zeros(x.size))

    @pytest.mark.parametrize("batched", [True, False])
    def test_truncated_stream_raises_cleanly(self, batched):
        data = AudioEncoder().encode(multitone(duration=0.1)).data
        for cut in (0, 5, 17, len(data) // 2, len(data) - 1):
            with pytest.raises((ValueError, EOFError)):
                AudioDecoder(batched=batched).decode(data[:cut])

    @pytest.mark.parametrize("batched", [True, False])
    def test_garbage_bytes_raise_cleanly(self, batched):
        rng = np.random.default_rng(0)
        junk = bytes(rng.integers(0, 256, size=256, dtype=np.uint8))
        with pytest.raises((ValueError, EOFError)):
            AudioDecoder(batched=batched).decode(junk)
        # Valid magic, garbage body.
        with pytest.raises((ValueError, EOFError)):
            AudioDecoder(batched=batched).decode(b"\x4d\x41" + junk)


class TestConfig:
    def test_bits_per_frame(self):
        cfg = AudioEncoderConfig(sample_rate=48000.0, bitrate=96_000.0)
        assert cfg.bits_per_frame == int(96_000 * 384 / 48000)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            AudioEncoderConfig(bitrate=0)
        with pytest.raises(ValueError):
            AudioEncoderConfig(sample_rate=-1)
        with pytest.raises(ValueError):
            AudioEncoderConfig(num_bands=1)
        with pytest.raises(ValueError):
            AudioEncoderConfig(ancillary_bytes_per_frame=-1)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 12),
    st.lists(
        st.floats(-0.99, 0.99, allow_nan=False), min_size=12, max_size=12
    ),
)
def test_band_quantizer_roundtrip_property(bits, values):
    x = np.array(values)
    scf_idx = choose_scalefactor(float(np.max(np.abs(x))) or 1e-6)
    scf = float(scalefactor_table()[scf_idx])
    w = BitWriter()
    codes = quantize_band(x, bits, scf)
    for c in codes:
        w.write_bits(int(c), bits)
    r = BitReader(w.getvalue())
    back = np.array([r.read_bits(bits) for _ in range(12)])
    recon = dequantize_band(back, bits, scf)
    assert np.max(np.abs(recon - x)) <= 2.0 * scf / (1 << bits) + 1e-9
