"""Batched transport-layer benchmark (experiment R8 in DESIGN.md).

The claim, mirroring R6/R7: packet framing and FEC are regular,
data-parallel byte work — exactly what a baseband/packet engine batches —
so the vectorized paths (one ``write_many`` for every header of a batch,
C CRC32, one 2-D XOR reduction per parity group, NumPy checksum folding)
beat their scalar ``_reference`` oracles by at least 5x at byte-identical
wire output.

Besides the printed table, the measurements land in
``BENCH_net_delivery.json`` (CI uploads it as a workflow artifact) so the
perf trajectory accumulates run over run.
"""

import json
import os

import numpy as np

from repro.core import render_table
from repro.net.fec import _protected_blob, xor_parity, xor_parity_reference
from repro.net.packetizer import (
    packetize,
    packets_to_wire,
    packets_to_wire_reference,
)
from repro.support.ipstack import (
    ones_complement_checksum,
    ones_complement_checksum_reference,
)

from conftest import best_of

#: Where the JSON artifact lands (CI uploads ``BENCH_*.json`` from the
#: working directory; point BENCH_JSON_DIR elsewhere to redirect).
JSON_PATH = os.path.join(
    os.environ.get("BENCH_JSON_DIR", "."), "BENCH_net_delivery.json"
)


def test_batched_packetize_and_fec_5x(benchmark, show):
    rng = np.random.default_rng(42)
    # A coded-video-sized workload: ~0.5 MB of segments at radio MTU.
    segments = [
        rng.integers(0, 256, int(rng.integers(20_000, 40_000)),
                     dtype=np.uint8).tobytes()
        for _ in range(16)
    ]
    packets = []
    for index, segment in enumerate(segments):
        packets += packetize(1, index, segment, mtu=192,
                             seq_start=index * 1000)
    group = 4
    groups = [
        [_protected_blob(p) for p in packets[start:start + group]]
        for start in range(0, len(packets), group)
    ]

    benchmark.pedantic(
        lambda: packets_to_wire(packets), rounds=3, iterations=1
    )
    fast_s, fast_wire = best_of(lambda: packets_to_wire(packets))
    ref_s, ref_wire = best_of(
        lambda: packets_to_wire_reference(packets), rounds=1
    )
    packetize_speedup = ref_s / fast_s

    def parity_all(fn):
        return [fn(blobs) for blobs in groups]

    pfast_s, fast_parity = best_of(lambda: parity_all(xor_parity))
    pref_s, ref_parity = best_of(
        lambda: parity_all(xor_parity_reference), rounds=1
    )
    fec_speedup = pref_s / pfast_s

    # The satellite: RFC 1071 checksum folding (reported, not gated).
    payload = b"".join(segments)
    cfast_s, fast_sum = best_of(lambda: ones_complement_checksum(payload))
    cref_s, ref_sum = best_of(
        lambda: ones_complement_checksum_reference(payload), rounds=1
    )
    checksum_speedup = cref_s / cfast_s

    rows = [
        ["packetize + serialize", ref_s * 1e3, fast_s * 1e3,
         packetize_speedup],
        ["XOR parity groups", pref_s * 1e3, pfast_s * 1e3, fec_speedup],
        ["RFC 1071 checksum", cref_s * 1e3, cfast_s * 1e3,
         checksum_speedup],
    ]
    show(render_table(
        ["path", "reference (ms)", "batched (ms)", "speedup"],
        rows,
        title=(
            f"batched transport paths on {len(packets)} packets "
            f"({sum(len(s) for s in segments)} payload bytes, "
            f"mtu 192, parity group {group})"
        ),
    ))

    payload_json = {
        "benchmark": "net_delivery",
        "workload": f"{len(packets)} packets, "
                    f"{sum(len(s) for s in segments)} bytes, mtu 192",
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
        json.dump(payload_json, fh, indent=2)
        fh.write("\n")

    # Identical bytes on every path...
    assert fast_wire == ref_wire
    assert fast_parity == ref_parity
    assert fast_sum == ref_sum
    # ...at (at least) the promised speedups.
    assert packetize_speedup >= 5.0, f"only {packetize_speedup:.1f}x"
    assert fec_speedup >= 5.0, f"only {fec_speedup:.1f}x"
