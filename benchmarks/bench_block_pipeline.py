"""Batched block-transform pipeline benchmark (experiment R6 in DESIGN.md).

The claim, mirroring the motion-search benchmark (R1): running the whole
Figure-1 transform chain — DCT, quantize, zig-zag, run-length, entropy
fields — at frame granularity over an ``(nblocks, 8, 8)`` tensor is
**bit-identical** to the scalar block-at-a-time reference and at least 5x
faster on a whole-frame CIF intra encode.  The JPEG path shares the same
pipeline and speedup.  Since the batched decode path landed (R9: fused
event-table entropy decode over :meth:`BitReader.bit_window` peeks plus
whole-plane reconstruction), decode carries the same >= 5x floor — the
receiver side is the paper's volume product, so its throughput is gated,
not merely reported.

The entropy parse on its own is gated too, on the content the scenarios
decode: a ``qcif_like`` GOP (one I frame, seven P frames, mostly small
levels), each frame parsed in one chunked :func:`read_plane_vectors` call
against :func:`read_plane_vectors_reference` run once per plane, with
identical vectors and reader positions.

Besides the printed table, the measurements land in
``BENCH_block_pipeline.json`` (CI uploads it as a workflow artifact) so the
perf trajectory accumulates run over run.
"""

import json
import os

import numpy as np

from repro.core import render_table
from repro.image.jpeg import JpegLikeCodec
from repro.runtime.scenarios import precoded_segments, qcif_like
from repro.video import codec_tables, decoder
from repro.video.blockpipe import (
    read_plane_vectors,
    read_plane_vectors_reference,
)
from repro.video.decoder import VideoDecoder
from repro.video.encoder import EncoderConfig, VideoEncoder
from repro.workloads.video_gen import moving_blocks_sequence

from conftest import best_of, paired_best_of

#: Floor of the entropy-parse speedup: half the ~16x (13.6-19.7x over six
#: runs) measured on a shared 2-vCPU x86 machine, CPython 3.11, NumPy 2.4.
ENTROPY_FLOOR = 8.0

#: Where the JSON artifact lands (CI uploads ``BENCH_*.json`` from the
#: working directory; point BENCH_JSON_DIR elsewhere to redirect).
JSON_PATH = os.path.join(
    os.environ.get("BENCH_JSON_DIR", "."), "BENCH_block_pipeline.json"
)


def cif_frame(seed=7):
    """One structured CIF (352x288) frame, integer-valued like real video."""
    return np.floor(
        next(
            iter(
                moving_blocks_sequence(
                    num_frames=1, height=288, width=352, seed=seed
                )
            )
        )
    )


def frame_parses(data, monkeypatch):
    """``(reader, start bit, plane_blocks)`` of each frame's entropy parse
    in a decode of ``data``."""
    parses = []

    def record(reader, plane_blocks, *args):
        parses.append((reader, reader.bit_position, list(plane_blocks)))
        return read_plane_vectors(reader, plane_blocks, *args)

    monkeypatch.setattr(decoder, "read_plane_vectors", record)
    VideoDecoder().decode(data)
    monkeypatch.undo()
    return parses


def parse_frames(parses, parse_frame):
    """Run ``parse_frame(reader, plane_blocks)`` from each frame's start;
    returns every frame's vectors and end position."""
    out = []
    for reader, start, plane_blocks in parses:
        reader.seek(start)
        out.append((parse_frame(reader, plane_blocks), reader.bit_position))
    return out


def test_batched_block_pipeline_5x_on_cif_intra(
    benchmark, show, monkeypatch
):
    frame = [cif_frame()]
    cfg = EncoderConfig(gop_size=1, quality=75, code_chroma=False)
    fast_enc = VideoEncoder(cfg, batched=True)
    ref_enc = VideoEncoder(cfg, batched=False)

    benchmark.pedantic(lambda: fast_enc.encode(frame), rounds=3, iterations=1)
    fast_s, fast_out = best_of(lambda: fast_enc.encode(frame))
    ref_s, ref_out = best_of(lambda: ref_enc.encode(frame))
    encode_speedup = ref_s / fast_s

    # Decode the stream both ways (table-driven entropy decode + batched
    # reconstruction — gated at the same 5x floor as encode since R9).
    data = fast_out.data
    dref_s, dfast_s, dref, dfast = paired_best_of(
        lambda: VideoDecoder(batched=False).decode(data),
        lambda: VideoDecoder(batched=True).decode(data),
    )
    decode_speedup = dref_s / dfast_s

    # JPEG rides the identical pipeline.
    image = cif_frame(seed=11)
    jfast_s, jfast = best_of(lambda: JpegLikeCodec(batched=True).encode(image, 75))
    jref_s, jref = best_of(lambda: JpegLikeCodec(batched=False).encode(image, 75))
    jpeg_speedup = jref_s / jfast_s

    # The entropy parse alone, on a scenario-like P-frame GOP.
    gop = precoded_segments(qcif_like(8, 1), EncoderConfig(quality=70), 8)[0]
    parses = frame_parses(gop, monkeypatch)
    n = 8
    codecs = (
        codec_tables.default_ac_codec(n),
        codec_tables.default_dc_codec(n),
        codec_tables.eob_symbol(n),
    )
    eref_s, efast_s, eref, efast = paired_best_of(
        lambda: parse_frames(parses, lambda reader, blocks: [
            read_plane_vectors_reference(reader, nb, n, 0, *codecs)[0]
            for nb in blocks
        ]),
        lambda: parse_frames(parses, lambda reader, blocks: (
            read_plane_vectors(reader, blocks, n, *codecs)
        )),
        floor=ENTROPY_FLOOR,
    )
    entropy_speedup = eref_s / efast_s

    rows = [
        ["intra encode", ref_s * 1e3, fast_s * 1e3, encode_speedup],
        ["decode", dref_s * 1e3, dfast_s * 1e3, decode_speedup],
        ["jpeg encode", jref_s * 1e3, jfast_s * 1e3, jpeg_speedup],
        ["entropy decode", eref_s * 1e3, efast_s * 1e3, entropy_speedup],
    ]
    show(render_table(
        ["path", "reference (ms)", "batched (ms)", "speedup"],
        rows,
        title="batched block pipeline on one CIF frame (352x288, q=75)",
    ))

    payload = {
        "benchmark": "block_pipeline",
        "frame": "352x288 intra, quality 75",
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
    assert all(
        np.array_equal(a.y, b.y) for a, b in zip(dfast.frames, dref.frames)
    )
    assert jfast.data == jref.data
    assert len(efast) == len(eref) == 8
    for (fast_vectors, fast_end), (ref_vectors, ref_end) in zip(efast, eref):
        assert fast_end == ref_end
        assert len(fast_vectors) == len(ref_vectors)
        assert all(map(np.array_equal, fast_vectors, ref_vectors))
    # ...at (at least) the promised speedups.
    assert encode_speedup >= 5.0, f"only {encode_speedup:.1f}x"
    assert decode_speedup >= 5.0, f"decode only {decode_speedup:.1f}x"
    assert jpeg_speedup >= 3.0, f"only {jpeg_speedup:.1f}x"
    assert entropy_speedup >= ENTROPY_FLOOR, (
        f"entropy decode only {entropy_speedup:.1f}x"
    )
