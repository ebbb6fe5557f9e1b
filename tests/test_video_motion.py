"""Tests for motion estimation and compensation (paper Section 3)."""

import numpy as np
import pytest

from repro.video.motion import (
    SEARCH_ALGORITHMS,
    MotionField,
    diamond_search,
    full_search,
    full_search_op_count,
    full_search_reference,
    motion_compensate,
    motion_compensate_reference,
    sad,
    three_step_search,
)


def shifted_pair(dy, dx, height=32, width=32, seed=0):
    """Reference frame and a copy translated by (dy, dx)."""
    rng = np.random.default_rng(seed)
    big = rng.uniform(0, 255, size=(height + 16, width + 16))
    y0, x0 = 8, 8
    reference = big[y0:y0 + height, x0:x0 + width].copy()
    current = big[y0 + dy:y0 + dy + height, x0 + dx:x0 + dx + width].copy()
    return current, reference


class TestSad:
    def test_identical_blocks_zero(self):
        block = np.ones((8, 8))
        assert sad(block, block) == 0.0

    def test_known_value(self):
        a = np.zeros((2, 2))
        b = np.ones((2, 2))
        assert sad(a, b) == 4.0


class TestFullSearch:
    def test_recovers_global_translation(self):
        current, reference = shifted_pair(3, -2)
        field, _ = full_search(current, reference, block_size=8, search_range=4)
        inner_dy = field.dy[1:-1, 1:-1]
        inner_dx = field.dx[1:-1, 1:-1]
        assert np.all(inner_dy == 3)
        assert np.all(inner_dx == -2)

    def test_zero_motion_for_identical_frames(self):
        frame = np.random.default_rng(1).uniform(0, 255, (16, 16))
        field, _ = full_search(frame, frame, block_size=8, search_range=3)
        assert np.all(field.dy == 0)
        assert np.all(field.dx == 0)

    def test_evaluation_count_bounded_by_window(self):
        current, reference = shifted_pair(0, 0, 16, 16)
        _, evals = full_search(current, reference, block_size=8, search_range=2)
        assert evals <= 4 * (2 * 2 + 1) ** 2

    def test_rejects_non_multiple_frame(self):
        with pytest.raises(ValueError):
            full_search(np.zeros((10, 16)), np.zeros((10, 16)), block_size=8)

    def test_reference_rejects_non_multiple_frame(self):
        with pytest.raises(ValueError):
            full_search_reference(
                np.zeros((10, 16)), np.zeros((10, 16)), block_size=8
            )


class TestVectorizedMatchesReference:
    """The vectorized full search must be indistinguishable from the loop.

    Frames are integer-valued (like any real 8-bit video), which makes the
    SAD sums exact in both implementations, so the comparison is
    bit-for-bit: same motion field, same evaluation count.
    """

    @pytest.mark.parametrize(
        "height,width,block_size,search_range",
        [
            (32, 48, 8, 7),     # typical
            (40, 40, 8, 12),    # range exceeds block size
            (24, 32, 4, 3),     # small blocks
            (48, 32, 16, 7),    # large blocks, portrait frame
            (16, 16, 8, 20),    # window larger than the whole frame
            (8, 8, 8, 1),       # single block
        ],
    )
    def test_random_frames(self, height, width, block_size, search_range):
        rng = np.random.default_rng(height * 1000 + width)
        current = np.floor(rng.uniform(0, 256, (height, width)))
        reference = np.floor(rng.uniform(0, 256, (height, width)))
        vec_field, vec_evals = full_search(
            current, reference, block_size, search_range
        )
        ref_field, ref_evals = full_search_reference(
            current, reference, block_size, search_range
        )
        assert vec_evals == ref_evals
        assert np.array_equal(vec_field.dy, ref_field.dy)
        assert np.array_equal(vec_field.dx, ref_field.dx)

    def test_translated_content(self):
        current, reference = shifted_pair(3, -2, seed=9)
        current, reference = np.floor(current), np.floor(reference)
        vec_field, _ = full_search(current, reference, 8, 4)
        ref_field, _ = full_search_reference(current, reference, 8, 4)
        assert np.array_equal(vec_field.dy, ref_field.dy)
        assert np.array_equal(vec_field.dx, ref_field.dx)

    def test_continuous_frames(self):
        # Non-integer frames: summation order can differ in the last ulp,
        # but with continuous random content exact cost ties (the only way
        # order could matter) do not occur for this fixed seed.
        rng = np.random.default_rng(42)
        current = rng.uniform(0, 255, (48, 64))
        reference = rng.uniform(0, 255, (48, 64))
        vec_field, vec_evals = full_search(current, reference, 8, 7)
        ref_field, ref_evals = full_search_reference(current, reference, 8, 7)
        assert vec_evals == ref_evals
        assert np.array_equal(vec_field.dy, ref_field.dy)
        assert np.array_equal(vec_field.dx, ref_field.dx)

    def test_zero_vector_preferred_on_ties(self):
        # A constant frame ties every candidate; both implementations must
        # resolve to the cheap-to-encode zero vector.
        frame = np.full((16, 16), 7.0)
        for impl in (full_search, full_search_reference):
            field, _ = impl(frame, frame, 8, 3)
            assert np.all(field.dy == 0), impl.__name__
            assert np.all(field.dx == 0), impl.__name__

    def test_both_registered(self):
        assert SEARCH_ALGORITHMS["full"] is full_search
        assert SEARCH_ALGORITHMS["full_reference"] is full_search_reference


def smooth_shifted_pair(dy, dx, height=32, width=32):
    """Smooth (unimodal-SAD) content shifted by (dy, dx).

    Descent-style searches (diamond) assume a smooth error surface; random
    texture is their documented failure mode, so they are validated on the
    content class they are designed for.
    """
    yy, xx = np.meshgrid(
        np.arange(height + 16, dtype=float),
        np.arange(width + 16, dtype=float),
        indexing="ij",
    )
    big = 128 + 60 * np.sin(yy / 6.0) * np.cos(xx / 7.0) + yy + xx
    y0, x0 = 8, 8
    reference = big[y0:y0 + height, x0:x0 + width].copy()
    current = big[y0 + dy:y0 + dy + height, x0 + dx:x0 + dx + width].copy()
    return current, reference


class TestFastSearches:
    def test_three_step_recovers_translation_on_texture(self):
        current, reference = shifted_pair(2, 2)
        field, _ = three_step_search(
            current, reference, block_size=8, search_range=4
        )
        assert np.all(field.dy[1:-1, 1:-1] == 2)
        assert np.all(field.dx[1:-1, 1:-1] == 2)

    @pytest.mark.parametrize("search", [three_step_search, diamond_search])
    def test_recovers_translation_on_smooth_content(self, search):
        current, reference = smooth_shifted_pair(2, 2)
        field, _ = search(current, reference, block_size=8, search_range=4)
        inner_dy = field.dy[1:-1, 1:-1]
        inner_dx = field.dx[1:-1, 1:-1]
        assert np.all(inner_dy == 2)
        assert np.all(inner_dx == 2)

    @pytest.mark.parametrize("search", [three_step_search, diamond_search])
    def test_cheaper_than_full_search(self, search):
        current, reference = shifted_pair(1, -1, 48, 48, seed=2)
        _, full_evals = full_search(
            current, reference, block_size=8, search_range=7
        )
        _, fast_evals = search(current, reference, block_size=8, search_range=7)
        assert fast_evals < full_evals / 3

    def test_fast_sad_not_much_worse_than_full(self):
        rng = np.random.default_rng(3)
        current = rng.uniform(0, 255, (32, 32))
        reference = np.roll(current, (1, 1), axis=(0, 1))
        reference = reference + rng.normal(0, 2, reference.shape)
        full_field, _ = full_search(current, reference, 8, 4)
        fast_field, _ = diamond_search(current, reference, 8, 4)
        full_pred = motion_compensate(reference, full_field)
        fast_pred = motion_compensate(reference, fast_field)
        full_err = np.abs(full_pred - current).sum()
        fast_err = np.abs(fast_pred - current).sum()
        assert fast_err <= 2.5 * full_err + 1e-9


class TestMotionCompensate:
    def test_zero_field_is_identity(self):
        rng = np.random.default_rng(4)
        ref = rng.uniform(0, 255, (16, 24))
        field = MotionField(
            dy=np.zeros((2, 3), dtype=np.int32),
            dx=np.zeros((2, 3), dtype=np.int32),
            block_size=8,
        )
        assert np.array_equal(motion_compensate(ref, field), ref)

    def test_translation_reconstructs_shifted_frame(self):
        current, reference = shifted_pair(2, 1)
        field, _ = full_search(current, reference, block_size=8, search_range=3)
        predicted = motion_compensate(reference, field)
        # Interior blocks should be predicted exactly.
        assert np.allclose(predicted[8:-8, 8:-8], current[8:-8, 8:-8])

    def test_out_of_bounds_vectors_clamped(self):
        ref = np.arange(64, dtype=float).reshape(8, 8)
        field = MotionField(
            dy=np.array([[100]], dtype=np.int32),
            dx=np.array([[-100]], dtype=np.int32),
            block_size=8,
        )
        out = motion_compensate(ref, field)
        assert np.array_equal(out, ref)  # clamps back to the frame

    @pytest.mark.parametrize(
        "compensate", [motion_compensate, motion_compensate_reference]
    )
    @pytest.mark.parametrize("blocks", [(2, 2), (2, 4), (1, 3)])
    def test_field_that_does_not_tile_the_plane_raises(
        self, compensate, blocks
    ):
        # A 16x24 plane is 2x3 blocks of 8; any other grid would leave
        # predicted pixels unset or reach past the plane.
        ref = np.zeros((16, 24))
        zeros = np.zeros(blocks, dtype=np.int32)
        field = MotionField(dy=zeros, dx=zeros, block_size=8)
        with pytest.raises(ValueError, match="does not tile a 16x24 plane"):
            compensate(ref, field)


class TestOpCount:
    def test_analytic_count(self):
        # 4 blocks * 25 candidates * 64 pixel diffs
        assert full_search_op_count(16, 16, 8, 2) == 4 * 25 * 64

    def test_grows_quadratically_with_range(self):
        small = full_search_op_count(64, 64, 8, 4)
        large = full_search_op_count(64, 64, 8, 8)
        assert large / small == pytest.approx(((17) ** 2) / ((9) ** 2))


class TestMotionField:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MotionField(dy=np.zeros((2, 2)), dx=np.zeros((2, 3)), block_size=8)

    def test_magnitude(self):
        field = MotionField(
            dy=np.array([[3]]), dx=np.array([[4]]), block_size=8
        )
        assert field.magnitude() == pytest.approx(5.0)
