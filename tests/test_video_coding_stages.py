"""Tests for quantization, zig-zag, run-length, and Huffman stages."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.bitstream import BitReader, BitWriter
from repro.video.huffman import HuffmanCodec, canonical_codes, code_lengths
from repro.video.quant import (
    INTRA_BASE,
    dequantize,
    quality_scale,
    quantize,
    scaled_matrix,
    uniform_matrix,
)
from repro.video.rle import EOB, RunLevel, encode_block
from repro.video.zigzag import inverse_zigzag, zigzag, zigzag_order


class TestQuant:
    def test_quality_50_is_identity_scale(self):
        assert quality_scale(50) == pytest.approx(1.0)

    def test_higher_quality_means_smaller_steps(self):
        q90 = scaled_matrix(INTRA_BASE, 90)
        q20 = scaled_matrix(INTRA_BASE, 20)
        assert np.all(q90 <= q20)

    def test_quality_bounds_rejected(self):
        for bad in (0, 101):
            with pytest.raises(ValueError):
                quality_scale(bad)

    def test_quantize_dequantize_error_bounded_by_half_step(self, rng):
        coeffs = rng.uniform(-500, 500, size=(8, 8))
        matrix = uniform_matrix(10.0)
        recon = dequantize(quantize(coeffs, matrix), matrix)
        assert np.max(np.abs(recon - coeffs)) <= 5.0 + 1e-9

    def test_high_frequencies_zeroed_first(self):
        coeffs = np.full((8, 8), 20.0)
        levels = quantize(coeffs, scaled_matrix(INTRA_BASE, 30))
        assert abs(levels[7, 7]) <= abs(levels[0, 0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            quantize(np.zeros((4, 4)), uniform_matrix(8.0, (8, 8)))

    def test_uniform_matrix_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            uniform_matrix(0.0)


class TestZigzag:
    def test_order_starts_along_top_left(self):
        order = zigzag_order(8)
        assert order[:4] == ((0, 0), (0, 1), (1, 0), (2, 0))

    def test_order_visits_every_cell_once(self):
        order = zigzag_order(8)
        assert len(set(order)) == 64

    def test_roundtrip(self, rng):
        block = rng.integers(-100, 100, size=(8, 8))
        assert np.array_equal(inverse_zigzag(zigzag(block), 8), block)

    def test_low_frequencies_come_first(self):
        block = np.zeros((8, 8))
        block[0, 0], block[7, 7] = 1.0, 2.0
        vec = zigzag(block)
        assert vec[0] == 1.0
        assert vec[-1] == 2.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            zigzag(np.zeros((4, 8)))


class TestRunLength:
    def test_empty_block_is_just_eob(self):
        assert encode_block(np.zeros(63, dtype=int)) == [EOB]

    def test_simple_pattern(self):
        events = encode_block(np.array([0, 0, 5, 0, -3]))
        assert events == [RunLevel(2, 5), RunLevel(1, -3), EOB]

    def test_zero_level_rejected(self):
        with pytest.raises(ValueError):
            RunLevel(0, 0)


class TestHuffman:
    def test_more_frequent_symbols_get_shorter_codes(self):
        lengths = code_lengths({0: 100, 1: 10, 2: 1})
        assert lengths[0] <= lengths[1] <= lengths[2]

    def test_single_symbol_alphabet(self):
        codec = HuffmanCodec.from_frequencies({7: 42})
        w = BitWriter()
        codec.encode([7, 7, 7], w)
        r = BitReader(w.getvalue())
        assert codec.decode(r, 3) == [7, 7, 7]

    def test_canonical_codes_are_prefix_free(self):
        codes = canonical_codes({0: 2, 1: 2, 2: 2, 3: 3, 4: 3})
        bitstrings = [format(c, f"0{n}b") for c, n in codes.values()]
        for a in bitstrings:
            for b in bitstrings:
                if a != b:
                    assert not b.startswith(a)

    def test_roundtrip(self, rng):
        symbols = rng.integers(0, 16, size=500).tolist()
        codec = HuffmanCodec.from_symbols(symbols)
        w = BitWriter()
        codec.encode(symbols, w)
        r = BitReader(w.getvalue())
        assert codec.decode(r, len(symbols)) == symbols

    def test_table_serialization_roundtrip(self):
        codec = HuffmanCodec.from_frequencies({0: 5, 1: 3, 2: 2, 5: 1})
        w = BitWriter()
        codec.write_table(w, 8)
        r = BitReader(w.getvalue())
        restored = HuffmanCodec.read_table(r, 8)
        assert restored.lengths == codec.lengths

    def test_unknown_symbol_raises(self):
        codec = HuffmanCodec.from_frequencies({0: 1, 1: 1})
        with pytest.raises(KeyError):
            codec.code_for(9)

    def test_empty_frequencies_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCodec.from_frequencies({})

    def test_compression_beats_fixed_width_on_skewed_input(self):
        symbols = [0] * 900 + [1] * 50 + [2] * 25 + [3] * 25
        codec = HuffmanCodec.from_symbols(symbols)
        w = BitWriter()
        codec.encode(symbols, w)
        assert len(w) < 2 * len(symbols)  # fixed width would be 2 bits/symbol

    def test_mean_code_length_close_to_entropy(self):
        freqs = {0: 8, 1: 4, 2: 2, 3: 2}
        codec = HuffmanCodec.from_frequencies(freqs)
        # Entropy = 1.75 bits; dyadic probabilities make Huffman exact.
        assert codec.mean_code_length(freqs) == pytest.approx(1.75)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
def test_huffman_roundtrip_property(symbols):
    codec = HuffmanCodec.from_symbols(symbols)
    w = BitWriter()
    codec.encode(symbols, w)
    r = BitReader(w.getvalue())
    assert codec.decode(r, len(symbols)) == symbols
