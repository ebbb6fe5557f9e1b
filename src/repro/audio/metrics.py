"""Quality metrics for coded audio."""

from __future__ import annotations

import math

import numpy as np


def snr_db(reference: np.ndarray, decoded: np.ndarray) -> float:
    """Overall SNR in dB over the common length of the two signals."""
    ref = np.asarray(reference, dtype=np.float64)
    dec = np.asarray(decoded, dtype=np.float64)
    n = min(ref.size, dec.size)
    if n == 0:
        raise ValueError("cannot compute SNR of empty signals")
    ref, dec = ref[:n], dec[:n]
    noise = ref - dec
    signal_power = float(np.sum(ref ** 2))
    noise_power = float(np.sum(noise ** 2))
    if noise_power == 0.0:
        return math.inf
    if signal_power == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal_power / noise_power)


def segmental_snr_db(
    reference: np.ndarray,
    decoded: np.ndarray,
    segment: int = 160,
    floor_db: float = -10.0,
    ceil_db: float = 35.0,
) -> float:
    """Mean per-segment SNR, clamped per segment (speech-codec convention).

    Segmental SNR weighs quiet stretches equally with loud ones, which
    matches perception better than whole-signal SNR for speech.
    """
    ref = np.asarray(reference, dtype=np.float64)
    dec = np.asarray(decoded, dtype=np.float64)
    n = min(ref.size, dec.size)
    if n < segment:
        raise ValueError("signals shorter than one segment")
    values = []
    for start in range(0, n - segment + 1, segment):
        r = ref[start:start + segment]
        d = dec[start:start + segment]
        sig = float(np.sum(r ** 2))
        err = float(np.sum((r - d) ** 2))
        if sig <= 1e-12:
            continue  # skip silence
        s = 10.0 * math.log10(sig / max(err, 1e-12))
        values.append(min(max(s, floor_db), ceil_db))
    if not values:
        raise ValueError("no non-silent segments to score")
    return float(np.mean(values))


def spectral_distortion_db(
    reference: np.ndarray,
    decoded: np.ndarray,
    fft_size: int = 512,
) -> float:
    """RMS log-spectral distance (dB) between two signals."""
    ref = np.asarray(reference, dtype=np.float64)
    dec = np.asarray(decoded, dtype=np.float64)
    n = min(ref.size, dec.size)
    if n < fft_size:
        raise ValueError("signals shorter than one FFT window")
    window = np.hanning(fft_size)
    dists = []
    for start in range(0, n - fft_size + 1, fft_size // 2):
        r = np.abs(np.fft.rfft(ref[start:start + fft_size] * window)) + 1e-9
        d = np.abs(np.fft.rfft(dec[start:start + fft_size] * window)) + 1e-9
        diff = 20.0 * np.log10(r / d)
        dists.append(float(np.sqrt(np.mean(diff ** 2))))
    return float(np.mean(dists))
