"""C4 — Section 3: motion estimation "greatly reduces the number of bits";
fast searches trade a little quality for much less compute — counted in
SAD evaluations and measured in wall time."""

import time

import numpy as np

from repro.core import render_table
from repro.video import EncoderConfig, VideoDecoder, VideoEncoder, sequence_psnr
from repro.video.motion import SEARCH_ALGORITHMS


def textured_pan(num_frames=6, height=48, width=64, pan=3, seed=3):
    """Textured field panning globally: every block moves, so zero-vector
    temporal prediction fails everywhere — the case motion search exists
    for (a camera pan across detailed scenery)."""
    rng = np.random.default_rng(seed)
    span = width + num_frames * pan
    cells = rng.uniform(30.0, 220.0, size=(height // 4 + 1, span // 4 + 1))
    big = np.kron(cells, np.ones((4, 4)))[:height, :span]
    return [big[:, t * pan:t * pan + width].copy() for t in range(num_frames)]


FRAMES = textured_pan()


def encode(algorithm: str, motion: bool = True):
    cfg = EncoderConfig(
        quality=75,
        gop_size=6,
        code_chroma=False,
        search_algorithm=algorithm,
        motion_enabled=motion,
    )
    return VideoEncoder(cfg).encode(FRAMES)


def search_wall_ms(algorithm: str, rounds: int = 7) -> float:
    """Best-of wall time of one search over every consecutive frame pair."""
    search = SEARCH_ALGORITHMS[algorithm]
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for reference, current in zip(FRAMES, FRAMES[1:]):
            search(current, reference, block_size=8, search_range=7)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def test_me_bit_reduction_and_search_tradeoff(benchmark, show):
    benchmark.pedantic(lambda: encode("three_step"), rounds=2, iterations=1)

    rows = []
    results = {}
    for label, alg, motion in (
        ("no ME (intra residual)", "full", False),
        ("full search", "full", True),
        ("three-step", "three_step", True),
        ("diamond", "diamond", True),
    ):
        encoded = encode(alg, motion)
        decoded = VideoDecoder().decode(encoded.data)
        p_bits = sum(s.bits for s in encoded.frame_stats[1:])
        evals = sum(s.me_evaluations for s in encoded.frame_stats)
        wall_ms = search_wall_ms(alg) if motion else 0.0
        results[label] = (p_bits, evals, wall_ms)
        rows.append([
            label,
            p_bits,
            evals,
            f"{wall_ms:.2f}" if motion else "-",
            sequence_psnr(FRAMES, decoded.frames),
        ])
    show(render_table(
        ["configuration", "P-frame bits", "SAD evals", "ME wall (ms)",
         "PSNR (dB)"],
        rows,
        title="C4: motion estimation bits/compute trade-off",
    ))
    # Shapes: ME cuts P bits a lot; fast searches cut compute a lot — in
    # evaluations and in wall time — while staying within ~2x of
    # full-search bits.
    full = results["full search"]
    assert full[0] < 0.6 * results["no ME (intra residual)"][0]
    for fast in ("three-step", "diamond"):
        assert results[fast][1] < full[1] / 3, fast
        assert results[fast][2] < full[2], (
            f"{fast} search ({results[fast][2]:.2f} ms) is not faster than "
            f"full search ({full[2]:.2f} ms) in wall time"
        )
    assert results["three-step"][0] < 2.0 * full[0]
