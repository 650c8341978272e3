"""Golden values and properties for the three augmentations and their
composition.  Every numbered golden here is backed by an oracle computed in
the test body itself (explicit matrix multiply / interpolation), never by a
stored constant alone."""

import numpy as np
import pytest

from skelcon.augment import (
    AugmentationSpec,
    CropResizeParams,
    JitterParams,
    ShearParams,
    _resample_plan,
    apply_view,
    draw_crop,
    draw_jitter,
    draw_shear,
    draw_view,
    joint_jitter,
    make_query_key_pair,
    pose_augment,
    temporal_crop_resize,
)
from skelcon.data import SkeletonSequence


def _seq_from(coords):
    return SkeletonSequence(np.asarray(coords, dtype=np.float64), "test")


def _random_seq(rng, t=6, j=5):
    coords = rng.normal(size=(t, 2, j, 3))
    coords[:, 1] = 0.0       # padded second actor
    return _seq_from(coords)


# ---------------------------------------------------------------------------
# pose augmentation (shear)
# ---------------------------------------------------------------------------

def test_identity_shear_is_exact():
    rng = np.random.default_rng(0)
    seq = _random_seq(rng)
    out = pose_augment(seq, ShearParams())
    assert np.array_equal(out.coords, seq.coords)


def test_shear_golden_single_joint():
    coords = np.zeros((1, 2, 2, 3))
    coords[0, 0, 0] = [1.0, 0.0, 0.0]
    out = pose_augment(_seq_from(coords), ShearParams(r01=0.5))
    assert np.array_equal(out.coords[0, 0, 0], [1.0, 0.5, 0.0])


def test_shear_matches_row_vector_matrix_oracle():
    rng = np.random.default_rng(1)
    seq = _random_seq(rng)
    p = ShearParams(*rng.uniform(-1, 1, size=6))
    matrix = np.array([[1.0, p.r01, p.r02],
                       [p.r10, 1.0, p.r12],
                       [p.r20, p.r21, 1.0]])
    out = pose_augment(seq, p)
    oracle = np.einsum("tmjd,de->tmje", seq.coords, matrix)
    assert np.allclose(out.coords, oracle, atol=1e-15, rtol=0)
    assert out.coords.shape == seq.coords.shape
    assert np.allclose(matrix, p.matrix(), atol=0, rtol=0)


def test_shear_is_linear_and_fixes_zeros():
    rng = np.random.default_rng(2)
    x, y = _random_seq(rng), _random_seq(rng)
    p = draw_shear(rng)
    combo = pose_augment(_seq_from(2.0 * x.coords + 3.0 * y.coords), p)
    parts = 2.0 * pose_augment(x, p).coords + 3.0 * pose_augment(y, p).coords
    assert np.allclose(combo.coords, parts, atol=1e-12)
    zeros = _seq_from(np.zeros((4, 2, 5, 3)))
    assert np.array_equal(pose_augment(zeros, p).coords, zeros.coords)


def test_shear_params_validate_range():
    with pytest.raises(ValueError):
        ShearParams(r01=1.5)


# ---------------------------------------------------------------------------
# joint jitter
# ---------------------------------------------------------------------------

def test_jitter_golden_all_point_two():
    coords = np.zeros((1, 2, 3, 3))
    coords[0, 0, 1] = [1.0, 1.0, 1.0]
    p = JitterParams(joint_subset=(1,), matrix=np.full((3, 3), 0.2))
    out = joint_jitter(_seq_from(coords), p)
    assert np.allclose(out.coords[0, 0, 1], [0.6, 0.6, 0.6], atol=1e-15)


def test_jitter_leaves_untouched_joints_bit_equal():
    rng = np.random.default_rng(3)
    seq = _random_seq(rng, t=8, j=9)
    for trial in range(20):
        p = draw_jitter(rng, joints=9, count=4)
        out = joint_jitter(seq, p)
        untouched = sorted(set(range(9)) - set(p.joint_subset))
        assert np.array_equal(out.coords[:, :, untouched],
                              seq.coords[:, :, untouched])
        touched = list(p.joint_subset)
        oracle = seq.coords[:, :, touched] @ p.matrix
        assert np.allclose(out.coords[:, :, touched], oracle, atol=0, rtol=0)


def test_jitter_same_transform_every_frame_and_actor():
    rng = np.random.default_rng(4)
    coords = np.tile(rng.normal(size=(1, 1, 5, 3)), (6, 2, 1, 1))
    p = draw_jitter(rng, joints=5, count=2)
    out = joint_jitter(_seq_from(coords), p)
    assert np.allclose(out.coords, out.coords[:1, :1], atol=0, rtol=0)


def test_jitter_validates_subset():
    with pytest.raises(ValueError):
        draw_jitter(np.random.default_rng(0), joints=5, count=5)
    seq = _seq_from(np.zeros((2, 2, 5, 3)))
    with pytest.raises(ValueError):
        joint_jitter(seq, JitterParams(joint_subset=(7,), matrix=np.eye(3) * 0.5))
    with pytest.raises(ValueError):
        JitterParams(joint_subset=(), matrix=np.eye(3) * 0.5)
    with pytest.raises(ValueError):
        JitterParams(joint_subset=(0,), matrix=np.full((3, 3), 1.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_jitter_matrix_that_is_not_finite_is_refused(bad):
    matrix = np.full((3, 3), 0.5)
    matrix[1, 2] = bad
    with pytest.raises(ValueError, match="jitter matrix entries"):
        JitterParams(joint_subset=(1, 2), matrix=matrix)
    with pytest.raises(ValueError, match="jitter matrix entries"):
        JitterParams(joint_subset=(1, 2), matrix=np.full((3, 3), bad))


# ---------------------------------------------------------------------------
# temporal crop-resize
# ---------------------------------------------------------------------------

def test_crop_resize_identity():
    rng = np.random.default_rng(5)
    seq = _random_seq(rng, t=10)
    out = temporal_crop_resize(
        seq, CropResizeParams(length_ratio=1.0, start=0, output_length=10))
    assert np.allclose(out.coords, seq.coords, atol=1e-12)


def test_crop_resize_interpolation_golden():
    coords = np.zeros((4, 2, 2, 3))
    coords[:, 0, 0, 0] = [0.0, 1.0, 2.0, 3.0]
    out = temporal_crop_resize(
        _seq_from(coords),
        CropResizeParams(length_ratio=1.0, start=0, output_length=7))
    assert out.coords.shape == (7, 2, 2, 3)
    expected = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    assert np.allclose(out.coords[:, 0, 0, 0], expected, atol=1e-12)
    assert np.all(out.coords[:, 1] == 0.0)


def test_crop_resize_matches_interp_oracle():
    rng = np.random.default_rng(6)
    seq = _random_seq(rng, t=12)
    p = CropResizeParams(length_ratio=0.5, start=3, output_length=9)
    out = temporal_crop_resize(seq, p)
    window = seq.coords[3:9]          # ceil(12 * 0.5) = 6 frames
    positions = np.linspace(0.0, 5.0, 9)
    oracle = np.empty((9, 2, 5, 3))
    for axis in np.ndindex(2, 5, 3):
        oracle[(slice(None), *axis)] = np.interp(
            positions, np.arange(6), window[(slice(None), *axis)])
    assert np.allclose(out.coords, oracle, atol=1e-12)


def test_crop_resize_constant_sequences_are_fixed_points():
    frame = np.random.default_rng(7).normal(size=(1, 2, 5, 3))
    seq = _seq_from(np.tile(frame, (9, 1, 1, 1)))
    out = temporal_crop_resize(
        seq, CropResizeParams(length_ratio=0.7, start=1, output_length=5))
    assert np.allclose(out.coords, np.tile(frame, (5, 1, 1, 1)), atol=1e-12)


@pytest.mark.parametrize("output_length", [32, 64])
def test_crop_resize_equals_the_uncached_formula_for_every_crop_length(output_length):
    seq = _random_seq(np.random.default_rng(9), t=96, j=25)
    _resample_plan.cache_clear()
    for length in range(2, 97):
        p = CropResizeParams(length_ratio=length / 96, start=96 - length,
                             output_length=output_length)
        assert p.crop_length(96) == length
        window = seq.coords[96 - length:]
        positions = np.linspace(0.0, length - 1, output_length)
        lo = np.floor(positions).astype(np.intp)
        hi = np.minimum(lo + 1, length - 1)
        frac = (positions - lo)[:, None, None, None]
        want = ((1.0 - frac) * window[lo] + frac * window[hi]).tobytes()
        assert temporal_crop_resize(seq, p).coords.tobytes() == want        # plan built
        assert temporal_crop_resize(seq, p).coords.tobytes() == want        # plan reused


@pytest.mark.parametrize("value", [8.0, True, "8"])
def test_output_length_that_is_not_an_int_is_refused_after_a_cached_int_plan(value):
    """A plan cached for the int 8 must not let 8.0 through: each spec
    refuses a length that is not an int, whatever the process resampled
    before."""
    seq = _random_seq(np.random.default_rng(12), t=16)
    make_query_key_pair(seq, AugmentationSpec(output_length=8, jitter_joints=2),
                        np.random.default_rng(0))
    with pytest.raises(ValueError, match="^output_length must be an int"):
        AugmentationSpec(output_length=value, jitter_joints=2)
    with pytest.raises(ValueError, match="^output_length must be an int"):
        CropResizeParams(length_ratio=1.0, start=0, output_length=value)


def test_cached_resample_plans_are_read_only():
    seq = _random_seq(np.random.default_rng(10), t=12)
    p = CropResizeParams(length_ratio=0.5, start=2, output_length=9)
    before = temporal_crop_resize(seq, p).coords
    for arr in _resample_plan(6, 9):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert np.array_equal(temporal_crop_resize(seq, p).coords, before)


def test_crop_resize_rejects_windows_below_two_frames():
    seq = _seq_from(np.zeros((10, 2, 5, 3)))
    with pytest.raises(ValueError):
        temporal_crop_resize(
            seq, CropResizeParams(length_ratio=0.1, start=0, output_length=4))


def test_draw_crop_respects_bounds():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = draw_crop(rng, frames=20, l_min=0.1, output_length=8)
        length = int(np.ceil(20 * p.length_ratio))
        assert length >= 2
        assert 0 <= p.start <= 20 - length
        assert p.length_ratio <= 1.0


# ---------------------------------------------------------------------------
# composed query/key pairs
# ---------------------------------------------------------------------------

def test_spec_defaults_match_reference_values():
    spec = AugmentationSpec()
    assert spec.l_min == 0.1
    assert spec.jitter_joints == 15
    assert spec.output_length == 64
    assert spec.spatial_mode == "randomized"
    assert spec.temporal is True


def test_pair_identity_when_everything_disabled():
    rng = np.random.default_rng(9)
    seq = _random_seq(rng, t=8)
    spec = AugmentationSpec(spatial_mode="none", temporal=False, output_length=8)
    q, k = make_query_key_pair(seq, spec, np.random.default_rng(0))
    assert np.allclose(q.coords, seq.coords, atol=1e-12)
    assert np.allclose(k.coords, seq.coords, atol=1e-12)


def test_pair_resamples_to_output_length_even_without_temporal():
    rng = np.random.default_rng(10)
    seq = _random_seq(rng, t=12)
    spec = AugmentationSpec(spatial_mode="none", temporal=False, output_length=8)
    q, k = make_query_key_pair(seq, spec, np.random.default_rng(0))
    assert q.coords.shape[0] == 8 and k.coords.shape[0] == 8


def test_pair_determinism_and_independence():
    seq = _random_seq(np.random.default_rng(11), t=20)
    spec = AugmentationSpec(output_length=16, jitter_joints=3)
    q1, k1 = make_query_key_pair(seq, spec, np.random.default_rng(42))
    q2, k2 = make_query_key_pair(seq, spec, np.random.default_rng(42))
    assert np.array_equal(q1.coords, q2.coords)
    assert np.array_equal(k1.coords, k2.coords)
    assert not np.array_equal(q1.coords, k1.coords)


def test_apply_view_crops_then_shears():
    rng = np.random.default_rng(12)
    seq = _random_seq(rng, t=16)
    crop = CropResizeParams(length_ratio=0.5, start=2, output_length=6)
    shear = ShearParams(r01=0.3, r20=-0.4)
    from skelcon.augment import ViewDraw
    out = apply_view(seq, ViewDraw(crop=crop, kind="pose", shear=shear),
                     output_length=6)
    oracle = pose_augment(temporal_crop_resize(seq, crop), shear)
    assert np.array_equal(out.coords, oracle.coords)


def test_randomized_mode_balance_over_10k_draws():
    spec = AugmentationSpec(output_length=8, jitter_joints=2)
    rng = np.random.default_rng(13)
    kinds = [draw_view(spec, frames=16, joints=5, rng=rng).kind
             for _ in range(10_000)]
    assert set(kinds) <= {"pose", "jitter"}
    pose_fraction = kinds.count("pose") / len(kinds)
    assert 0.48 <= pose_fraction <= 0.52


def test_fixed_spatial_modes_draw_that_kind():
    rng = np.random.default_rng(14)
    pose_spec = AugmentationSpec(spatial_mode="pose", output_length=8)
    jitter_spec = AugmentationSpec(spatial_mode="jitter", output_length=8,
                                   jitter_joints=2)
    assert draw_view(pose_spec, 16, 5, rng).kind == "pose"
    assert draw_view(jitter_spec, 16, 5, rng).kind == "jitter"
    none_spec = AugmentationSpec(spatial_mode="none", output_length=8)
    assert draw_view(none_spec, 16, 5, rng).kind == "none"


# ---------------------------------------------------------------------------
# the kernels keep the bytes of the plain formulas
# ---------------------------------------------------------------------------

def _view_by_the_formulas(coords, draw, output_length):
    """`apply_view` written as the plain numpy formulas: a crop blended with
    (L, 1, 1, 1) weights, ``coords @ S`` for a shear, and the fancy-indexed
    subset ``@ M`` written into a copy for a jitter."""
    crop = draw.crop
    if crop is None and coords.shape[0] != output_length:
        crop = CropResizeParams(length_ratio=1.0, start=0, output_length=output_length)
    if crop is not None:
        length = crop.crop_length(coords.shape[0])
        window = coords[crop.start:crop.start + length]
        positions = np.linspace(0.0, length - 1, crop.output_length)
        lo = np.floor(positions).astype(np.intp)
        hi = np.minimum(lo + 1, length - 1)
        frac = (positions - lo)[:, None, None, None]
        coords = (1.0 - frac) * window[lo] + frac * window[hi]
    if draw.kind == "pose":
        coords = coords @ draw.shear.matrix()
    elif draw.kind == "jitter":
        subset = list(draw.jitter.joint_subset)
        out = coords.copy()
        out[:, :, subset, :] = out[:, :, subset, :] @ np.asarray(draw.jitter.matrix,
                                                                dtype=np.float64)
        coords = out
    return coords


def _record(coords):
    return coords.dtype.str, coords.shape, coords.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_views_keep_the_bytes_and_dtype_of_the_plain_formulas(dtype):
    """2400 views per dtype: every spatial mode, with and without the
    temporal crop, at raw lengths equal to and other than the output
    length, up to the benchmark's 96 frames, 25 joints and crop 64."""
    rng = np.random.default_rng(21)
    views = 0
    for case in range(40):
        joints = (5, 12, 25)[case % 3]
        output_length = (8, 32, 64)[case % 3 if case % 5 else 2]
        frames = output_length if case % 4 == 0 else int(rng.integers(4, 97))
        coords = rng.normal(size=(frames, 2, joints, 3)).astype(dtype)
        coords[:, 1] *= case % 2             # a padded second actor in half the cases
        seq = SkeletonSequence(coords, "pin")
        for mode in ("none", "pose", "jitter"):
            for temporal in (True, False):
                spec = AugmentationSpec(spatial_mode=mode, temporal=temporal,
                                        output_length=output_length,
                                        jitter_joints=min(15, joints - 1))
                for pair in range(5):
                    pair_rng = np.random.default_rng((case, pair))
                    query, key = make_query_key_pair(seq, spec, pair_rng)
                    pair_rng = np.random.default_rng((case, pair))
                    draws = [draw_view(spec, frames, joints, pair_rng) for _ in range(2)]
                    for view, draw in zip((query, key), draws):
                        want = _record(_view_by_the_formulas(coords, draw, output_length))
                        assert _record(view.coords) == want, (case, mode, temporal, draw)
                        assert _record(apply_view(seq, draw, output_length).coords) == want
                        views += 1
    assert views == 2400

