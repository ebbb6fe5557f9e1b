"""Batched Figure-2 audio pipeline benchmark (experiment R7 in DESIGN.md).

The claim, mirroring the block-pipeline benchmark (R6): running the whole
subband encode chain — polyphase framing, FFT masking analysis, greedy
allocation, quantization, field packing — at segment granularity
(:mod:`repro.audio.subbandpipe`) is **bit-identical** to the scalar
frame-at-a-time reference and at least 5x faster on a whole-stream
encode.  Decode carries the same floor since the window-gather unpack
landed (R9): pass 1 walks only the per-frame allocation nibbles, pass 2
gathers every scalefactor/code/ancillary field of the segment at once.
Two more rows (R12) time the encoder's decision stages at the
voice-bridge operating point — ``analyze_batch`` against per-window
``analyze`` and ``allocate_bits_batch`` against per-row
``allocate_bits_reference`` — and assert identical output; their
speedups are gated run over run like the others.

Besides the printed table, the measurements land in
``BENCH_audio_pipeline.json`` (CI uploads it as a workflow artifact) so
the perf trajectory accumulates run over run.
"""

import json
import os

import numpy as np

from repro.audio.bitalloc import allocate_bits_batch, allocate_bits_reference
from repro.audio.encoder import AudioDecoder, AudioEncoder, AudioEncoderConfig
from repro.audio.psychoacoustic import PsychoacousticModel
from repro.core import render_table
from repro.workloads.audio_gen import music_like, speech_like

from conftest import paired_best_of

#: Where the JSON artifact lands (CI uploads ``BENCH_*.json`` from the
#: working directory; point BENCH_JSON_DIR elsewhere to redirect).
JSON_PATH = os.path.join(
    os.environ.get("BENCH_JSON_DIR", "."), "BENCH_audio_pipeline.json"
)


def test_batched_audio_pipeline_5x_on_whole_stream(benchmark, show):
    pcm = music_like(duration=1.5, seed=7)  # ~1.5 s of 44.1 kHz music
    cfg = AudioEncoderConfig()  # the default 192 kb/s operating point
    fast_enc = AudioEncoder(cfg, batched=True)
    ref_enc = AudioEncoder(cfg, batched=False)

    benchmark.pedantic(lambda: fast_enc.encode(pcm), rounds=3, iterations=1)
    ref_s, fast_s, ref_out, fast_out = paired_best_of(
        lambda: ref_enc.encode(pcm),
        lambda: fast_enc.encode(pcm),
    )
    encode_speedup = ref_s / fast_s

    # Decode both ways (window-gather unpack — gated at the same 5x
    # floor as encode since R9).
    data = fast_out.data
    dref_s, dfast_s, dref, dfast = paired_best_of(
        lambda: AudioDecoder(batched=False).decode(data),
        lambda: AudioDecoder(batched=True).decode(data),
    )
    decode_speedup = dref_s / dfast_s

    # The two decision stages at the voice-bridge operating point (R12):
    # ten 16 kHz frames, 128-point FFT, 32 subbands, a 1,024-bit pool.
    model = PsychoacousticModel(sample_rate=16000.0, fft_size=128)
    voice = speech_like(duration=0.3, seed=11, sample_rate=16000.0)
    windows = voice[np.arange(10)[:, None] * 384 + np.arange(128)]
    pref_s, pfast_s, pref, pfast = paired_best_of(
        lambda: [model.analyze(w) for w in windows],
        lambda: model.analyze_batch(windows),
    )
    smr = pfast.band_smr_db
    aref_s, afast_s, aref, afast = paired_best_of(
        lambda: [allocate_bits_reference(row, 1024, 12, 6) for row in smr],
        lambda: allocate_bits_batch(smr, 1024, 12, 6),
    )

    rows = [
        ["whole-stream encode", ref_s * 1e3, fast_s * 1e3, encode_speedup],
        ["decode", dref_s * 1e3, dfast_s * 1e3, decode_speedup],
        ["psychoacoustic model", pref_s * 1e3, pfast_s * 1e3,
         pref_s / pfast_s],
        ["bit allocation", aref_s * 1e3, afast_s * 1e3, aref_s / afast_s],
    ]
    show(render_table(
        ["path", "reference (ms)", "batched (ms)", "speedup"],
        rows,
        title=(
            f"batched Figure-2 audio pipeline on {pcm.size} samples "
            f"({len(fast_out.frame_stats)} frames, 192 kb/s)"
        ),
    ))

    payload = {
        "benchmark": "audio_pipeline",
        "stream": f"{pcm.size} samples at 44.1 kHz, 192 kb/s",
        "paths": {
            name: {
                "reference_ms": ref_ms,
                "batched_ms": fast_ms,
                "speedup": speed,
            }
            for name, ref_ms, fast_ms, speed in rows
        },
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    # Identical bits on every path...
    assert fast_out.data == ref_out.data
    assert np.array_equal(dfast.pcm, dref.pcm)
    for f, ref in enumerate(pref):
        for field in ("spectrum_db", "global_threshold_db", "band_smr_db"):
            assert (
                getattr(pfast, field)[f].tobytes()
                == getattr(ref, field).tobytes()
            )
    assert len(aref) == len(afast) == smr.shape[0]
    for ref, fast in zip(aref, afast):
        assert np.array_equal(ref.bits, fast.bits)
        assert ref.mnr_db.tobytes() == fast.mnr_db.tobytes()
        assert ref.spent_bits == fast.spent_bits
    # ...at (at least) the promised speedups, decode included (R9).
    assert encode_speedup >= 5.0, f"only {encode_speedup:.1f}x"
    assert decode_speedup >= 5.0, f"decode only {decode_speedup:.1f}x"