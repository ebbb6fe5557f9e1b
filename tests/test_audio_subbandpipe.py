"""Equivalence pins for the batched Figure-2 audio pipeline (R7).

Every batched stage must be *bit-identical* to its scalar reference —
same subbands, same spectra/thresholds/SMRs, same allocations, same
bitstream bytes — kernel by kernel, codec by codec, and across every
registered runtime scenario (digest comparison over whole engine
workloads), mirroring the R6 pins in ``tests/test_video_blockpipe.py``.
"""

import hashlib
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio.bitalloc import (
    allocate_bits,
    allocate_bits_batch,
    allocate_bits_reference,
)
from repro.audio.encoder import AudioDecoder, AudioEncoder, AudioEncoderConfig
from repro.audio.filterbank import (
    PolyphaseFilterbank,
    _analyze_raw,
    _analyze_raw_reference,
    _bank_matrices,
    _synthesize_raw,
    _synthesize_raw_reference,
)
from repro.audio.frame import SAMPLES_PER_BAND, pack_frame, unpack_frame
from repro.audio.psychoacoustic import PsychoacousticModel
from repro.audio.subbandpipe import (
    batch_scalefactors,
    pack_frames_batch,
    unpack_frames_batch,
)
from repro.runtime.scenarios import REGISTRY
from repro.video.bitstream import BitReader, BitWriter
from repro.workloads.audio_gen import (
    masked_pair,
    multitone,
    music_like,
    speech_like,
    tone,
)

#: Smallest viable parameterisation per registered scenario (mirrors the
#: R6 sweep in ``tests/test_video_blockpipe.py``).
SMALL = {
    "quickstart": {"frames": 8},
    "videoconferencing": {"frames": 8},
    "set_top_box": {"frames": 8},
    "dvr": {"frames": 8},
    "surveillance": {"cameras": 2, "frames": 8},
    "video_wall": {"tiles": 2, "frames": 8},
    "transcode_farm": {"workers": 2, "clips": 1, "frames": 16},
    "portable_player": {},
    "podcast_farm": {"workers": 2, "episodes": 1},
    "conference_bridge": {"narrowband": 1, "wideband": 1},
}


def frame_windows(x, samples_per_frame, fft):
    """The reference per-frame window slices, stacked."""
    rows = []
    for f in range(int(np.ceil(x.size / samples_per_frame))):
        end = (f + 1) * samples_per_frame
        w = x[max(0, end - fft):end]
        if w.size < fft:
            w = np.concatenate([w, np.zeros(fft - w.size)])
        rows.append(w[:fft])
    return np.vstack(rows)


class TestFilterbankKernels:
    @pytest.mark.parametrize("m,taps", [(32, 16), (8, 16), (2, 4), (16, 8)])
    def test_analyze_matches_reference(self, m, taps):
        analysis, _, _ = _bank_matrices(m, taps)
        rng = np.random.default_rng(m * taps)
        for n in (1, m - 1, m, 5 * m + 3, 997):
            x = rng.normal(size=n)
            assert np.array_equal(
                _analyze_raw(x, analysis, m),
                _analyze_raw_reference(x, analysis, m),
            )

    @pytest.mark.parametrize("m,taps", [(32, 16), (8, 16), (2, 4)])
    def test_synthesize_matches_reference(self, m, taps):
        analysis, synthesis, _ = _bank_matrices(m, taps)
        rng = np.random.default_rng(m + taps)
        for frames in (1, 2, 40):
            sub = rng.normal(size=(frames, m))
            assert np.array_equal(
                _synthesize_raw(sub, synthesis, m),
                _synthesize_raw_reference(sub, synthesis, m),
            )

    def test_empty_synthesis(self):
        _, synthesis, _ = _bank_matrices(8, 16)
        assert _synthesize_raw(np.zeros((0, 8)), synthesis, 8).size == 0

    def test_bank_dispatch(self):
        x = np.random.default_rng(3).normal(size=1000)
        fast = PolyphaseFilterbank(16, batched=True)
        ref = PolyphaseFilterbank(16, batched=False)
        a, b = fast.analyze(x), ref.analyze(x)
        assert np.array_equal(a.subbands, b.subbands)
        assert np.array_equal(fast.synthesize(a), ref.synthesize(b))


class TestPsychoacousticBatch:
    SIGNALS = {
        "music": lambda: music_like(duration=0.25, seed=1),
        "tones": lambda: multitone(duration=0.15, seed=2),
        "masked": lambda: masked_pair(duration=0.12),
        "silence": lambda: np.zeros(2000),
        "noise": lambda: np.random.default_rng(3).normal(0, 0.2, 3000),
        "tone": lambda: tone(1000.0, duration=0.1),
    }

    @pytest.mark.parametrize("name", sorted(SIGNALS))
    def test_rows_match_per_window_analysis(self, name):
        model = PsychoacousticModel()
        windows = frame_windows(self.SIGNALS[name](), 384, 512)
        batch = model.analyze_batch(windows)
        masked = batch.masked_fraction()
        for f in range(windows.shape[0]):
            ref = model.analyze(windows[f])
            assert np.array_equal(batch.spectrum_db[f], ref.spectrum_db)
            assert np.array_equal(
                batch.global_threshold_db[f], ref.global_threshold_db
            )
            assert np.array_equal(batch.band_smr_db[f], ref.band_smr_db)
            assert np.array_equal(batch.band_level_db[f], ref.band_level_db)
            assert masked[f] == ref.masked_fraction()

    def test_small_model(self):
        model = PsychoacousticModel(
            sample_rate=8000.0, fft_size=64, num_bands=8
        )
        windows = frame_windows(speech_like(duration=0.2, seed=4), 96, 64)
        batch = model.analyze_batch(windows)
        for f in range(windows.shape[0]):
            ref = model.analyze(windows[f])
            assert np.array_equal(
                batch.global_threshold_db[f], ref.global_threshold_db
            )
            assert np.array_equal(batch.band_smr_db[f], ref.band_smr_db)

    def test_empty_batch(self):
        model = PsychoacousticModel()
        batch = model.analyze_batch(np.zeros((0, 512)))
        assert batch.band_smr_db.shape == (0, 32)
        assert batch.masked_fraction().size == 0

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            PsychoacousticModel().analyze_batch(np.zeros((2, 100)))


class TestAllocatorEquivalence:
    """The satellite bugfix pin: the incremental and lockstep allocators
    must reproduce the O(bands x grants) reference decision for decision."""

    def test_randomized_smr_pool_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            bands = int(rng.integers(2, 40))
            frames = int(rng.integers(1, 8))
            smr = rng.uniform(-80, 80, size=(frames, bands))
            if rng.random() < 0.25:  # tie-heavy inputs stress the argmin
                smr[rng.random(size=smr.shape) < 0.5] = 0.0
            pool = int(rng.integers(0, 3000))
            spb = int(rng.integers(1, 20))
            side = int(rng.integers(0, 10))
            max_bits = int(rng.integers(1, 16))
            batch = allocate_bits_batch(smr, pool, spb, side, max_bits)
            for f in range(frames):
                ref = allocate_bits_reference(smr[f], pool, spb, side, max_bits)
                for got in (
                    allocate_bits(smr[f], pool, spb, side, max_bits),
                    batch[f],
                ):
                    assert np.array_equal(got.bits, ref.bits)
                    assert np.array_equal(got.mnr_db, ref.mnr_db)
                    assert got.spent_bits == ref.spent_bits

    def test_validation_shared(self):
        for fn in (allocate_bits, allocate_bits_reference):
            with pytest.raises(ValueError):
                fn(np.zeros((2, 2)), 10, 12)
            with pytest.raises(ValueError):
                fn(np.zeros(4), -1, 12)
            with pytest.raises(ValueError):
                fn(np.zeros(4), 10, 0)
        with pytest.raises(ValueError):
            allocate_bits_batch(np.zeros(4), 10, 12)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-90, 90, allow_nan=False), min_size=2, max_size=24),
    st.integers(0, 2000),
)
def test_allocator_property(smr_values, pool):
    smr = np.array(smr_values)
    ref = allocate_bits_reference(smr, pool, 12, 6)
    fast = allocate_bits(smr, pool, 12, 6)
    assert np.array_equal(fast.bits, ref.bits)
    assert fast.spent_bits == ref.spent_bits


class TestFramePackingBatch:
    def _random_segment(self, rng, frames, bands, anc):
        sub = rng.uniform(-2.5, 2.5, size=(frames, SAMPLES_PER_BAND, bands))
        sub[rng.random(size=sub.shape) < 0.1] = 0.0
        alloc = rng.integers(0, 16, size=(frames, bands))
        alloc[rng.random(size=alloc.shape) < 0.4] = 0
        payload = bytes(
            rng.integers(
                0, 256, size=int(rng.integers(0, frames * anc + 1)),
                dtype=np.uint8,
            )
        )
        return sub, alloc, payload

    @pytest.mark.parametrize("frames,bands,anc", [
        (5, 32, 0), (3, 8, 4), (1, 2, 1), (0, 16, 2), (7, 37, 3),
    ])
    def test_pack_matches_scalar_layout(self, frames, bands, anc):
        rng = np.random.default_rng(frames * 100 + bands + anc)
        sub, alloc, payload = self._random_segment(rng, frames, bands, anc)
        ref_writer = BitWriter()
        ref_bits = []
        for f in range(frames):
            start = len(ref_writer)
            pack_frame(ref_writer, sub[f], alloc[f])
            chunk = payload[f * anc:(f + 1) * anc].ljust(anc, b"\x00")
            for byte in chunk:
                ref_writer.write_bits(byte, 8)
            ref_bits.append(len(ref_writer) - start)
        fast_writer = BitWriter()
        frame_bits = pack_frames_batch(fast_writer, sub, alloc, payload, anc)
        assert fast_writer.getvalue() == ref_writer.getvalue()
        assert frame_bits.tolist() == ref_bits

    @pytest.mark.parametrize("frames,bands,anc", [(4, 32, 0), (3, 8, 5)])
    def test_unpack_matches_scalar(self, frames, bands, anc):
        rng = np.random.default_rng(frames + bands)
        sub, alloc, payload = self._random_segment(rng, frames, bands, anc)
        writer = BitWriter()
        pack_frames_batch(writer, sub, alloc, payload, anc)
        data = writer.getvalue()

        ref_reader = BitReader(data)
        blocks_ref, anc_ref = [], bytearray()
        for _ in range(frames):
            blocks_ref.append(unpack_frame(ref_reader, bands))
            for _ in range(anc):
                anc_ref.append(ref_reader.read_bits(8))
        fast_reader = BitReader(data)
        blocks, ancillary = unpack_frames_batch(
            fast_reader, frames, bands, SAMPLES_PER_BAND, anc
        )
        assert np.array_equal(np.stack(blocks_ref), blocks)
        assert bytes(anc_ref) == ancillary
        assert fast_reader.bit_position == ref_reader.bit_position

    def test_scalefactors_match_scalar_choice(self):
        from repro.audio.frame import choose_scalefactor

        rng = np.random.default_rng(5)
        values = np.concatenate([
            rng.uniform(0, 3, size=200), [0.0, 2.0, 5.0, 1e-9]
        ])
        batch = batch_scalefactors(values)
        for v, idx in zip(values, batch):
            assert idx == choose_scalefactor(float(v))

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            pack_frames_batch(BitWriter(), np.zeros((2, 12)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            pack_frames_batch(
                BitWriter(), np.zeros((2, 12, 4)), np.zeros((3, 4))
            )


class TestReadMany:
    def test_matches_per_field_read_bits(self):
        rng = np.random.default_rng(9)
        widths = rng.integers(0, 25, size=300)
        widths[rng.random(300) < 0.2] = 0
        values = [int(rng.integers(0, 1 << w)) if w else 0 for w in widths]
        writer = BitWriter()
        writer.write_bits(5, 3)  # start mid-byte
        for v, w in zip(values, widths):
            writer.write_bits(v, int(w))
        reader = BitReader(writer.getvalue())
        reader.read_bits(3)
        got = reader.read_many(widths)
        replay = BitReader(writer.getvalue())
        replay.read_bits(3)
        assert got.tolist() == [replay.read_bits(int(w)) for w in widths]
        assert reader.bit_position == replay.bit_position

    def test_eof_leaves_position_unchanged(self):
        reader = BitReader(b"\xff")
        with pytest.raises(EOFError):
            reader.read_many([4, 5])
        assert reader.bit_position == 0

    def test_rejects_bad_widths(self):
        reader = BitReader(b"\x00" * 16)
        with pytest.raises(ValueError):
            reader.read_many([-1])
        with pytest.raises(ValueError):
            reader.read_many([64])


class TestCodecEquivalence:
    """Batched vs scalar reference, whole-codec bitstream equality."""

    CONFIGS = [
        (AudioEncoderConfig(bitrate=128_000),
         lambda: music_like(duration=0.3, seed=1), b""),
        (AudioEncoderConfig(bitrate=64_000, sample_rate=8000.0, fft_size=64),
         lambda: speech_like(duration=0.3, seed=2), b""),
        (AudioEncoderConfig(bitrate=96_000, num_bands=8, fft_size=128),
         lambda: multitone(duration=0.2, seed=3), b""),
        (AudioEncoderConfig(bitrate=256_000, ancillary_bytes_per_frame=7),
         lambda: tone(440.0, duration=0.2), b"meta" * 40),
        (AudioEncoderConfig(bitrate=48_000, use_psychoacoustics=False),
         lambda: music_like(duration=0.2, seed=4), b""),
        (AudioEncoderConfig(bitrate=192_000, sample_rate=44100.5),
         lambda: music_like(duration=0.15, seed=5), b""),
        (AudioEncoderConfig(bitrate=24_000),
         lambda: np.zeros(4000), b""),  # silence: all-masked frames
    ]

    @pytest.mark.parametrize("case", range(len(CONFIGS)))
    def test_encoder_bit_identical(self, case):
        cfg, signal, ancillary = self.CONFIGS[case]
        pcm = signal()
        fast = AudioEncoder(cfg, batched=True).encode(pcm, ancillary)
        ref = AudioEncoder(cfg, batched=False).encode(pcm, ancillary)
        assert fast.data == ref.data
        assert len(fast.frame_stats) == len(ref.frame_stats)
        for a, b in zip(fast.frame_stats, ref.frame_stats):
            assert a.bits == b.bits
            assert np.array_equal(a.allocation, b.allocation)
            assert np.array_equal(a.smr_db, b.smr_db, equal_nan=True)
            assert a.masked_fraction == b.masked_fraction
            assert a.stage_ops == b.stage_ops

    @pytest.mark.parametrize("case", range(len(CONFIGS)))
    def test_decoder_bit_identical(self, case):
        cfg, signal, ancillary = self.CONFIGS[case]
        data = AudioEncoder(cfg).encode(signal(), ancillary).data
        fast = AudioDecoder(batched=True).decode(data)
        ref = AudioDecoder(batched=False).decode(data)
        assert np.array_equal(fast.pcm, ref.pcm)
        assert fast.ancillary == ref.ancillary
        assert fast.sample_rate == ref.sample_rate

    @pytest.mark.parametrize(
        "codec", [AudioEncoder, AudioDecoder, PolyphaseFilterbank],
        ids=lambda c: c.__name__,
    )
    def test_pipeline_is_chosen_per_instance(self, codec):
        # The batched path is the default; the scalar oracle is picked by
        # argument only, never by state shared between instances.
        scalar = codec(batched=False)
        assert codec().batched is True and codec(batched=True).batched is True
        assert scalar.batched is False

    def test_encoder_hands_its_choice_to_its_filterbank(self):
        assert AudioEncoder(batched=False)._bank.batched is False
        assert AudioEncoder()._bank.batched is True


def _scenario_digests(scenario, overrides):
    """Run every session of a scenario to completion; digest its outputs."""
    digests = {}
    for session in scenario.sessions(**overrides):
        session.run_to_completion()
        digests[session.name] = hashlib.sha256(
            session.output_bytes()
        ).hexdigest()
    return digests


@pytest.mark.parametrize(
    "scenario_name", sorted(s.name for s in REGISTRY)
)
def test_batched_pipeline_bit_identical_on_every_scenario(
    scenario_name, monkeypatch
):
    """R7 acceptance: per-session bitstream digests match the scalar
    reference audio path on every registered scenario (the video pipeline
    stays batched on both runs, so any drift is audio's).  The scalar run
    rebinds the audio codec names the runtime constructs from to
    ``batched=False`` factories."""
    scenario = REGISTRY.get(scenario_name)
    overrides = SMALL.get(scenario_name, {})
    fast = _scenario_digests(scenario, overrides)
    for target, codec in (
        ("repro.runtime.session.AudioEncoder", AudioEncoder),
        ("repro.runtime.session.AudioDecoder", AudioDecoder),
    ):
        monkeypatch.setattr(target, partial(codec, batched=False))
    ref = _scenario_digests(scenario, overrides)
    assert fast == ref
