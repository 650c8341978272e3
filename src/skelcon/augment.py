"""Skeleton-specific augmentations and their spatio-temporal composition.

Three transforms operate on raw (T, M, J, 3) coordinates:

* shear ("pose"): one 3x3 unit-diagonal matrix applied to every joint at
  every frame, simulating viewpoint / camera-distance changes;
* joint jitter: a full random 3x3 matrix applied to a fixed subset of
  joints, leaving the rest bit-identical;
* temporal crop-resize: a random sub-window linearly resampled to a fixed
  number of frames, changing speed and temporal bounds.

Coordinate rows are row vectors, so matrices multiply from the right:
``(x, y, z) @ A``.  All operations are pure functions of their inputs,
randomness lives entirely in the parameter-drawing helpers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import SkeletonSequence

SPATIAL_MODES = ("pose", "jitter", "randomized", "none")


@dataclass(frozen=True)
class ShearParams:
    """Off-diagonal entries of a unit-diagonal 3x3 shear, each in [-1, 1]."""

    r01: float = 0.0
    r02: float = 0.0
    r10: float = 0.0
    r12: float = 0.0
    r20: float = 0.0
    r21: float = 0.0

    def __post_init__(self):
        for name in ("r01", "r02", "r10", "r12", "r20", "r21"):
            v = getattr(self, name)
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"shear {name}={v} outside [-1, 1]")

    def matrix(self) -> np.ndarray:
        return np.array([
            [1.0, self.r01, self.r02],
            [self.r10, 1.0, self.r12],
            [self.r20, self.r21, 1.0],
        ])


@dataclass(frozen=True)
class JitterParams:
    """A joint subset plus the full 3x3 matrix that displaces it."""

    joint_subset: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        if len(self.joint_subset) < 1:
            raise ValueError("joint subset must not be empty")
        if len(set(self.joint_subset)) != len(self.joint_subset):
            raise ValueError("joint subset contains duplicates")
        if min(self.joint_subset) < 0:
            raise ValueError("negative joint index")
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"jitter matrix must be 3x3, got {m.shape}")
        if not np.abs(m).max() <= 1.0:  # NaN fails too
            raise ValueError("jitter matrix entries must lie in [-1, 1]")


def _check_output_length(value) -> None:
    """`ValueError` naming `output_length` unless `value` is an int (a bool
    is not) of at least 2: `_resample_plan` caches plans by value, and a
    float equal to a cached int would be served the int's plan."""
    if type(value) is not int:
        raise ValueError(f"output_length must be an int, got {value!r}")
    if value < 2:
        raise ValueError(f"output_length must be >= 2, got {value}")


@dataclass(frozen=True)
class CropResizeParams:
    """Temporal window [start, start + length) plus the resample target."""

    length_ratio: float
    start: int
    output_length: int = 64

    def __post_init__(self):
        if not 0.0 < self.length_ratio <= 1.0:
            raise ValueError(f"length_ratio {self.length_ratio} outside (0, 1]")
        if self.start < 0:
            raise ValueError("negative start frame")
        _check_output_length(self.output_length)

    def crop_length(self, frames: int) -> int:
        # ceiling guarantees at least one frame for any positive ratio
        return int(math.ceil(frames * self.length_ratio))


@dataclass(frozen=True)
class AugmentationSpec:
    """Description of the composed query/key augmentation; the random draws
    come from the generator handed to `draw_view`."""

    spatial_mode: str = "randomized"
    temporal: bool = True
    l_min: float = 0.1
    jitter_joints: int = 15
    output_length: int = 64

    def __post_init__(self):
        if self.spatial_mode not in SPATIAL_MODES:
            raise ValueError(f"spatial_mode must be one of {SPATIAL_MODES}, "
                             f"got {self.spatial_mode!r}")
        if not 0.0 < self.l_min <= 1.0:
            raise ValueError(f"l_min {self.l_min} outside (0, 1]")
        if self.jitter_joints < 1:
            raise ValueError(f"jitter_joints must be >= 1, got {self.jitter_joints}")
        _check_output_length(self.output_length)


# ---------------------------------------------------------------------------
# the three transforms
# ---------------------------------------------------------------------------

def pose_augment(seq: SkeletonSequence, p: ShearParams) -> SkeletonSequence:
    """Apply the same unit-diagonal shear to every joint at every frame."""
    coords = seq.coords
    return seq.with_coords((coords.reshape(-1, 3) @ p.matrix()).reshape(coords.shape))


def joint_jitter(seq: SkeletonSequence, p: JitterParams) -> SkeletonSequence:
    """Displace the joints in the subset by the jitter matrix, leave the rest."""
    joints = seq.joints
    subset = np.asarray(p.joint_subset, dtype=np.intp)
    if subset.max() >= joints:
        raise ValueError(f"joint index {subset.max()} out of range for J={joints}")
    if len(p.joint_subset) >= joints:
        raise ValueError(f"|j|={len(p.joint_subset)} must be < J={joints}")
    coords = seq.coords
    moved = coords.reshape(-1, 3) @ np.asarray(p.matrix, dtype=np.float64)
    picked = np.zeros((joints, 3), dtype=bool)
    picked[subset] = True
    out = coords.copy()
    # one row of joints per frame and actor; float32 coords stay float32
    np.copyto(out.reshape(-1, joints * 3), moved.reshape(-1, joints * 3),
              where=picked.reshape(-1))
    return seq.with_coords(out)


def temporal_crop_resize(seq: SkeletonSequence, p: CropResizeParams) -> SkeletonSequence:
    """Crop [start, start + ceil(T * ratio)) and linearly resample it."""
    frames = seq.frames
    length = p.crop_length(frames)
    if length < 2:
        raise ValueError(f"crop of {length} frame(s) is too short to resample")
    if p.start + length > frames:
        raise ValueError(
            f"crop [{p.start}, {p.start + length}) exceeds sequence of {frames} frames")
    coords = seq.coords
    rows = coords[p.start:p.start + length].reshape(length, -1)
    index, weights = _resample_plan(length, p.output_length)
    taken, n = rows.take(index, axis=0), p.output_length    # the lo rows, then the hi rows
    # two half-size products rather than one over all 2n rows, whose
    # temporaries fragment the heap more (a higher peak RSS, same bytes)
    out = taken[:n] * weights[:n]
    out += taken[n:] * weights[n:]
    return seq.with_coords(out.reshape(n, *coords.shape[1:]))


@functools.lru_cache(maxsize=512)
def _resample_plan(length: int, output_length: int) -> tuple[np.ndarray, np.ndarray]:
    """Frame indices and a weight column that resample `length` frames
    linearly to `output_length`, lo frames first, then hi frames: with
    L = output_length, output frame i is
    ``weights[i] * x[index[i]] + weights[L + i] * x[index[L + i]]``.
    Cached per length pair, so the arrays are read-only."""
    positions = np.linspace(0.0, length - 1, output_length)
    lo = np.floor(positions).astype(np.intp)
    hi = np.minimum(lo + 1, length - 1)
    frac = positions - lo
    plan = (np.concatenate([lo, hi]), np.concatenate([1.0 - frac, frac])[:, None])
    for arr in plan:
        arr.flags.writeable = False
    return plan


# ---------------------------------------------------------------------------
# parameter drawing and composition
# ---------------------------------------------------------------------------

def draw_shear(rng: np.random.Generator) -> ShearParams:
    return ShearParams(*rng.uniform(-1.0, 1.0, size=6).tolist())


def draw_jitter(rng: np.random.Generator, joints: int, count: int) -> JitterParams:
    if count >= joints:
        raise ValueError(f"|j|={count} must be < J={joints}")
    subset = rng.choice(joints, size=count, replace=False)
    matrix = rng.uniform(-1.0, 1.0, size=(3, 3))
    return JitterParams(joint_subset=tuple(subset.tolist()), matrix=matrix)


def draw_crop(rng: np.random.Generator, frames: int, l_min: float,
              output_length: int) -> CropResizeParams:
    # the drawn ratio is clamped from below so any crop has >= 2 frames
    effective_min = max(l_min, 2.0 / frames)
    ratio = rng.uniform(min(effective_min, 1.0), 1.0)
    length = int(math.ceil(frames * ratio))
    start = int(rng.integers(0, frames - length + 1))
    return CropResizeParams(length_ratio=ratio, start=start, output_length=output_length)


@dataclass(frozen=True)
class ViewDraw:
    """One drawn instantiation of the composed augmentation for one view."""

    crop: CropResizeParams | None
    kind: str                     # "pose" | "jitter" | "none"
    shear: ShearParams | None = None
    jitter: JitterParams | None = None


def draw_view(spec: AugmentationSpec, frames: int, joints: int,
              rng: np.random.Generator) -> ViewDraw:
    """Draw all random parameters for a single augmented view."""
    crop = draw_crop(rng, frames, spec.l_min, spec.output_length) if spec.temporal else None
    kind = spec.spatial_mode
    if kind == "randomized":
        kind = "pose" if rng.random() < 0.5 else "jitter"
    if kind == "pose":
        return ViewDraw(crop=crop, kind=kind, shear=draw_shear(rng))
    if kind == "jitter":
        return ViewDraw(crop=crop, kind=kind,
                        jitter=draw_jitter(rng, joints, spec.jitter_joints))
    return ViewDraw(crop=crop, kind="none")


def apply_view(seq: SkeletonSequence, draw: ViewDraw,
               output_length: int) -> SkeletonSequence:
    """Temporal crop-resize first, spatial transform second.

    Even with the temporal transform disabled the sequence is still
    resampled to `output_length` so that batched views share a frame count.
    """
    if draw.crop is not None:
        seq = temporal_crop_resize(seq, draw.crop)
    elif seq.frames != output_length:
        seq = temporal_crop_resize(
            seq, CropResizeParams(length_ratio=1.0, start=0, output_length=output_length))
    if draw.kind == "pose":
        seq = pose_augment(seq, draw.shear)
    elif draw.kind == "jitter":
        seq = joint_jitter(seq, draw.jitter)
    return seq


def make_query_key_pair(seq: SkeletonSequence, spec: AugmentationSpec,
                        rng: np.random.Generator) -> tuple[SkeletonSequence, SkeletonSequence]:
    """Two independent draws of the composed augmentation on one sequence."""
    query = apply_view(seq, draw_view(spec, seq.frames, seq.joints, rng), spec.output_length)
    key = apply_view(seq, draw_view(spec, seq.frames, seq.joints, rng), spec.output_length)
    return query, key
