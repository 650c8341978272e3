"""Skeleton sequence data types, canonical file I/O, splits, a synthetic
generator, `DatasetSpec`, which builds a run's dataset from its config, and
`build_dataclass`, which makes each config and artifact section a dataclass.

A skeleton sequence is a rank-4 float array of shape (T, M, J, 3): T frames,
M actors (always 2, a missing second actor is an all-zeros slab), J joints,
3 camera-space coordinates in meters.

The canonical on-disk format ("SKL1") is UTF-8 line-delimited JSON: a header
line followed by one record per sequence.  Coordinates survive a
write/read cycle bit-exactly because Python's JSON float formatting uses
shortest round-trip repr.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import types
import typing
from dataclasses import dataclass, is_dataclass

import numpy as np

from .errors import ConfigError, ParseError, SchemaError, ValidationError

NUM_ACTORS = 2

# The split protocols `make_split` knows, and the smallest dataset
# `generate_synthetic` makes.
PROTOCOLS = ("random", "cross-subject", "cross-view", "cross-setup")
SYNTHETIC_MINIMUMS = {"num_classes": 2, "samples_per_class": 1, "frames": 8, "joints": 5}

# 25-joint Kinect-v2 style human tree: spine-rooted, 24 bone edges.
# Joint order: spine base, spine mid, neck, head, shoulders/arms (L then R),
# hips/legs (L then R), spine top, hand tips and thumbs.
HUMAN25_BONES: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 20), (2, 20), (3, 2),
    (4, 20), (5, 4), (6, 5), (7, 6),
    (8, 20), (9, 8), (10, 9), (11, 10),
    (12, 0), (13, 12), (14, 13), (15, 14),
    (16, 0), (17, 16), (18, 17), (19, 18),
    (21, 22), (22, 7), (23, 24), (24, 11),
)


def chain_tree_bones(joints: int) -> tuple[tuple[int, int], ...]:
    """Deterministic tree over `joints` nodes used by synthetic skeletons.

    Node j attaches to (j - 1) // 2, giving a balanced spine-rooted tree
    with joints - 1 edges.
    """
    if joints < 2:
        raise ValueError(f"need at least 2 joints, got {joints}")
    return tuple(((j - 1) // 2, j) for j in range(1, joints))


@dataclass(frozen=True)
class SkeletonSequence:
    """One raw action sample: coordinates of shape (T, 2, J, 3) plus an id."""

    coords: np.ndarray
    sample_id: str

    @property
    def frames(self) -> int:
        return self.coords.shape[0]

    @property
    def actors(self) -> int:
        return self.coords.shape[1]

    @property
    def joints(self) -> int:
        return self.coords.shape[2]

    def with_coords(self, coords: np.ndarray) -> "SkeletonSequence":
        return SkeletonSequence(coords=coords, sample_id=self.sample_id)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = ""
    location: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class LabeledSample:
    sequence: SkeletonSequence
    label: int | None = None
    subject_id: int | None = None
    view_id: int | None = None


@dataclass
class Dataset:
    """An ordered collection of samples sharing joint count and topology."""

    samples: list[LabeledSample]
    num_classes: int
    joint_count: int
    bones: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, i: int) -> LabeledSample:
        return self.samples[i]

    def sample_ids(self) -> list[str]:
        return [s.sequence.sample_id for s in self.samples]

    def subset(self, ids: list[str]) -> list[LabeledSample]:
        table = {s.sequence.sample_id: s for s in self.samples}
        return [table[i] for i in ids]


@dataclass(frozen=True)
class DataSplit:
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    protocol: str

    def __post_init__(self):
        overlap = set(self.train_ids) & set(self.test_ids)
        if overlap:
            raise ValueError(f"train/test overlap: {sorted(overlap)[:3]}")


def validate_sequence(seq: SkeletonSequence) -> ValidationReport:
    """Check every structural invariant of a skeleton sequence.

    Returns a report rather than raising; the first violation found wins.
    """
    c = seq.coords
    if not isinstance(c, np.ndarray) or c.ndim != 4:
        return ValidationReport(False, "coords must be a rank-4 array (T, M, J, 3)")
    t, m, j, d = c.shape
    if d != 3:
        return ValidationReport(False, f"last axis must be 3, got {d}")
    if m != NUM_ACTORS:
        return ValidationReport(False, f"actor axis must be {NUM_ACTORS}, got {m} (pad absent actor with zeros)")
    if t < 2:
        return ValidationReport(False, f"need at least 2 frames, got {t}")
    if j < 2:
        return ValidationReport(False, f"need at least 2 joints, got {j}")
    if not np.isfinite(c).all():
        idx = np.argwhere(~np.isfinite(c))[0]
        loc = tuple(int(v) for v in idx)
        return ValidationReport(
            False,
            f"non-finite coordinate at frame={loc[0]} actor={loc[1]} joint={loc[2]}",
            location=loc,
        )
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# canonical SKL1 file format
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Write to ``<path>.tmp`` and move it over ``path`` only when the block
    completes, so a failed or interrupted write leaves the previous file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def parse_json_object(source: str, text, what: str, fmt: str | None, keys,
                      optional=()) -> dict:
    """`text` as a JSON object, after checking that its ``"format"`` is `fmt`
    (unless None), that each ``(key, type)`` of `keys` is present with that
    type, and that each of `optional` is absent, null or of its type; a bool
    is never an int. A violation raises `ParseError` naming `source`, `what`
    the object is, and the key."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"{source}: {what} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{source}: {what} is a JSON {type(obj).__name__}, not an object")
    if fmt is not None and obj.get("format") != fmt:
        raise ParseError(f"{source}: not a {fmt} {what}")
    for key, kind in (*keys, *((k, t) for k, t in optional if obj.get(k) is not None)):
        if key not in obj:
            raise ParseError(f"{source}: {what} has no {key!r}")
        if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
            raise ParseError(f"{source}: {what} {key!r} is not a JSON {kind.__name__}")
    return obj


def require(error, cond: bool, key: str, message: str) -> None:
    """Raise `error(key, message)` unless `cond`."""
    if not cond:
        raise error(key, message)


def manifest_error(source: str):
    """`build_dataclass`'s `error` for a section of the manifest in `source`."""
    return lambda key, message: ParseError(f"{source}: manifest {key!r}: {message}")


def convert_json(error, kind, raw, key: str):
    """JSON value `raw` as the field type `kind`, or `error(key, message)`.
    A whole float counts as an int, and a bool is not a number."""
    if typing.get_origin(kind) in (types.UnionType, typing.Union):   # X | None
        inner = next(k for k in typing.get_args(kind) if k is not type(None))
        return None if raw is None else convert_json(error, inner, raw, key)
    if typing.get_origin(kind) is tuple:                    # tuple[X, ...]
        require(error, isinstance(raw, (list, tuple)), key, f"expected a list, got {raw!r}")
        return tuple(convert_json(error, typing.get_args(kind)[0], item, key) for item in raw)
    if is_dataclass(kind):
        return build_dataclass(error, kind, key, raw)
    if kind is bool or kind is str:
        wanted = "true or false" if kind is bool else "a string"
        require(error, isinstance(raw, kind), key, f"expected {wanted}, got {raw!r}")
        return raw
    require(error, isinstance(raw, (int, float)) and not isinstance(raw, bool), key,
            f"expected a number, got {raw!r}")
    require(error, kind is float or isinstance(raw, int) or raw.is_integer(), key,
            f"expected an integer, got {raw!r}")
    return kind(raw)


def build_dataclass(error, cls, section: str, values: dict, /, **given):
    """`cls` from the JSON object `values` at dotted key `section`, each value
    converted to its field's annotated type (`convert_json`). A failed
    conversion, the constructor's TypeError (an unknown or missing key) and
    `cls`'s ValueError, which opens with the field's name, raise
    `error(key, message)` on that field's key, else on `section`."""
    hints = typing.get_type_hints(cls)
    fields = {name: convert_json(error, hints[name], raw, f"{section}.{name}")
              if name in hints else raw for name, raw in values.items()}
    try:
        return cls(**given, **fields)
    except (TypeError, ValueError) as exc:
        name = re.match(r"\w*", str(exc)).group()
        raise error(f"{section}.{name}" if name in fields else section, str(exc)) from None


def parse_bones(source: str, what: str, edges: list) -> tuple[tuple[int, int], ...]:
    """The ``bones`` list of a parsed header or manifest as edge tuples, or a
    `ParseError` naming `source` unless every edge is ``[int, int]``."""
    if not all(isinstance(edge, list) and len(edge) == 2
               and all(type(v) is int for v in edge) for edge in edges):
        raise ParseError(f"{source}: {what} 'bones' is not a list of [int, int] edges")
    return tuple(tuple(edge) for edge in edges)


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset in the canonical line-delimited format (`atomic_open`)."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        header = {
            "format": "SKL1",
            "J": dataset.joint_count,
            "num_classes": dataset.num_classes,
            "bones": [list(b) for b in dataset.bones],
        }
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for s in dataset.samples:
            seq = s.sequence
            rec = {
                "id": seq.sample_id,
                "label": s.label,
                "subject": s.subject_id,
                "view": s.view_id,
                "T": seq.frames,
                "M": seq.actors,
                "J": seq.joints,
                "coords": seq.coords.tolist(),
            }
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def load_dataset(path) -> Dataset:
    """Load a canonical skeleton file.

    Raises
    ------
    ParseError
        Malformed JSON, a header that is missing, has no int ``J`` or
        ``num_classes`` or whose ``bones`` are not ``[int, int]`` edges, or a
        record whose ``T``, ``M``, ``J``, ``label``, ``subject`` or ``view``
        is not a JSON integer, naming the offending line and key.
    SchemaError
        A header whose bones are not a tree over its joints, or a record
        whose joint count or declared shape contradicts the header.
    ValidationError
        A sequence with non-finite coordinates, naming the sample id.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = parse_json_object(f"{path}: line 1", lines[0], "header", "SKL1",
                               (("J", int), ("num_classes", int), ("bones", list)))
    joint_count, num_classes = header["J"], header["num_classes"]
    bones = parse_bones(f"{path}: line 1", "header", header["bones"])
    from .represent import graph_adjacency  # represent imports this module
    try:
        graph_adjacency(bones, joint_count)
    except ValueError as e:
        raise SchemaError(f"{path}: line 1: {e}") from e

    samples: list[LabeledSample] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record_index = len(samples) + 1
        source = f"{path}: line {lineno} (record {record_index})"
        rec = parse_json_object(source, line, "record", None,
                                (("T", int), ("M", int), ("J", int)),
                                (("label", int), ("subject", int), ("view", int)))
        try:
            coords = np.asarray(rec["coords"], dtype=np.float64)
            sample_id = str(rec["id"])
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"{source}: bad record: {e}") from e
        declared = (rec["T"], rec["M"], rec["J"])
        if coords.ndim != 4 or coords.shape[3] != 3:
            raise SchemaError(
                f"{path}: record {record_index}: coords shape {coords.shape} is not (T, M, J, 3)")
        if coords.shape[:3] != declared:
            raise SchemaError(
                f"{path}: record {record_index}: declared (T,M,J)={declared} but coords are {coords.shape[:3]}")
        if coords.shape[2] != joint_count:
            raise SchemaError(
                f"{path}: record {record_index}: J={coords.shape[2]} differs from header J={joint_count}")
        seq = SkeletonSequence(coords=coords, sample_id=sample_id)
        report = validate_sequence(seq)
        if not report:
            raise ValidationError(f"{path}: sample {sample_id!r}: {report.message}")
        label = rec.get("label")
        if label is not None and not 0 <= label < num_classes:
            raise SchemaError(
                f"{path}: record {record_index}: label {label} outside [0, {num_classes})")
        samples.append(LabeledSample(sequence=seq, label=label,
                                     subject_id=rec.get("subject"), view_id=rec.get("view")))
    return Dataset(samples=samples, num_classes=num_classes,
                   joint_count=joint_count, bones=bones)


# ---------------------------------------------------------------------------
# synthetic action generator
# ---------------------------------------------------------------------------

def _check_synthetic_sizes(**sizes: int) -> None:
    """Raise ValueError, naming the size, unless each of `sizes` (the keys of
    `SYNTHETIC_MINIMUMS`) reaches its minimum."""
    for name, low in SYNTHETIC_MINIMUMS.items():
        if not sizes[name] >= low:
            raise ValueError(f"{name} must be >= {low}, got {sizes[name]}")


def _rest_pose(rng: np.random.Generator, joints: int) -> np.ndarray:
    """Random but tree-consistent rest pose: each joint hangs off its parent."""
    bones = chain_tree_bones(joints)
    pos = np.zeros((joints, 3))
    pos[0] = (0.0, 0.0, 1.0)
    for parent, child in bones:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        length = 0.2 + 0.1 * rng.random()
        pos[child] = pos[parent] + length * direction
    return pos


def generate_synthetic(num_classes: int, samples_per_class: int, frames: int,
                       joints: int, seed: int, noise: float = 0.01) -> Dataset:
    """Generate a labeled desk-scale dataset of parametric motion primitives.

    Each class is a motion signature: per-joint sinusoids with class-specific
    frequency ratios, amplitudes, phase offsets and directions.  Each sample
    hides that signature behind nuisance factors — a random start phase, a
    random playback speed wide enough that absolute frequency overlaps
    between neighbouring classes, a full-circle random yaw rotation, and
    i.i.d. coordinate noise.  The signature (per-joint energy, relative
    frequencies) survives viewpoint and speed changes; the nuisances do not,
    which is exactly the invariance structure the augmentations model.
    Pure function of its arguments: the same seed always yields the
    identical dataset.
    """
    _check_synthetic_sizes(num_classes=num_classes, samples_per_class=samples_per_class,
                          frames=frames, joints=joints)

    rng = np.random.default_rng((int(seed), 0x5C31))
    rest = _rest_pose(rng, joints)

    # per-class motion primitive: a frequency ladder with per-joint ratios
    # and a class-specific amplitude/direction pattern
    class_params = []
    for c in range(num_classes):
        base_freq = 0.8 * 1.5 ** c
        amp = rng.uniform(0.06, 0.22, size=joints)
        phase = rng.uniform(0.0, 2 * np.pi, size=joints)
        direction = rng.normal(size=(joints, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        freq = base_freq * rng.uniform(0.9, 1.1, size=joints)
        class_params.append((freq, amp, phase, direction))

    t_grid = np.arange(frames, dtype=np.float64) / frames
    samples: list[LabeledSample] = []
    for c in range(num_classes):
        freq, amp, phase, direction = class_params[c]
        for i in range(samples_per_class):
            # nuisance: phase, playback speed, viewpoint, sensor noise
            start_phase = rng.uniform(0.0, 2 * np.pi)
            speed = rng.uniform(0.75, 1.3)
            yaw = rng.uniform(-np.pi, np.pi)
            sin_arg = (2 * np.pi * speed * freq[None, :] * t_grid[:, None]
                       + phase[None, :] + start_phase)
            offsets = amp[None, :, None] * np.sin(sin_arg)[:, :, None] * direction[None, :, :]
            motion = rest[None, :, :] + offsets  # (T, J, 3)
            cos_y, sin_y = np.cos(yaw), np.sin(yaw)
            rot = np.array([[cos_y, -sin_y, 0.0], [sin_y, cos_y, 0.0], [0.0, 0.0, 1.0]])
            motion = motion @ rot.T
            motion = motion + rng.normal(scale=noise, size=motion.shape)
            coords = np.zeros((frames, NUM_ACTORS, joints, 3))
            coords[:, 0] = motion
            seq = SkeletonSequence(coords=coords, sample_id=f"synth-{c:02d}-{i:03d}")
            samples.append(LabeledSample(
                sequence=seq,
                label=c,
                subject_id=int(rng.integers(0, 10)),
                view_id=int(rng.integers(0, 3)),
            ))
    return Dataset(samples=samples, num_classes=num_classes,
                   joint_count=joints, bones=chain_tree_bones(joints))


def make_split(dataset: Dataset, protocol: str = "random",
               train_fraction: float = 0.75, seed: int = 0) -> DataSplit:
    """Partition a dataset into train/test ids under a named protocol.

    random        seeded shuffle, first `train_fraction` of ids train
    cross-subject even subject ids train, odd test
    cross-view    views {0, 1} train, view 2 test
    cross-setup   even (subject + view) train, odd test
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    ids = dataset.sample_ids()
    if protocol == "random":
        rng = np.random.default_rng((int(seed), 0x5711))
        perm = rng.permutation(len(ids))
        n_train = int(round(train_fraction * len(ids)))
        train = [ids[i] for i in perm[:n_train]]
        test = [ids[i] for i in perm[n_train:]]
    else:
        train, test = [], []
        for s in dataset.samples:
            if s.subject_id is None or s.view_id is None:
                raise ValueError(f"protocol {protocol!r} needs subject/view metadata")
            if protocol == "cross-subject":
                is_train = s.subject_id % 2 == 0
            elif protocol == "cross-view":
                is_train = s.view_id in (0, 1)
            else:
                is_train = (s.subject_id + s.view_id) % 2 == 0
            (train if is_train else test).append(s.sequence.sample_id)
    return DataSplit(train_ids=tuple(train), test_ids=tuple(test), protocol=protocol)


@dataclass(frozen=True)
class DatasetSpec:
    source: str = "synthetic"       # synthetic | file
    path: str | None = None         # the SKL1 file of source "file"
    num_classes: int = 5
    samples_per_class: int = 100
    frames: int = 96
    joints: int = 25
    noise: float = 0.01
    seed: int = 0                   # generation and split seed, not the run seed
    protocol: str = "random"
    train_fraction: float = 0.5

    def __post_init__(self):
        if self.source not in ("synthetic", "file"):
            raise ValueError(f"source must be 'synthetic' or 'file', got {self.source!r}")
        if self.source == "file" and not self.path:
            raise ValueError("path must name an SKL1 file for source 'file'")
        _check_synthetic_sizes(**{name: getattr(self, name) for name in SYNTHETIC_MINIMUMS})
        if not self.noise >= 0.0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if not 0.05 <= self.train_fraction <= 0.95:
            raise ValueError(f"train_fraction {self.train_fraction} outside [0.05, 0.95]")

    def load(self) -> Dataset:
        if self.source == "file":
            if not os.path.isfile(self.path):
                raise ConfigError(f"dataset.path: no such file: {self.path}")
            dataset = load_dataset(self.path)
            if dataset.joint_count != self.joints:
                raise ConfigError(f"dataset.joints: {self.joints}, but {self.path} holds "
                                  f"J={dataset.joint_count} joints")
            return dataset
        return generate_synthetic(self.num_classes, self.samples_per_class,
                                  self.frames, self.joints, self.seed,
                                  self.noise)

    def split(self, dataset: Dataset) -> DataSplit:
        return make_split(dataset, self.protocol, self.train_fraction, self.seed)
