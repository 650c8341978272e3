"""Downstream evaluation harness.

Everything here consumes *backbone* features: the projection head used during
contrastive pretraining is removed, and evaluation inputs are center-cropped
to the training frame count (resampled up when the sequence is shorter).

Tasks: frozen linear probe, k=1 cosine retrieval, semi-supervised / transfer /
supervised-only finetuning, combined-representation probing, and embedding
export with an optional 2-d PCA projection.  `DownstreamSpec` holds their
settings from a run's config.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import nn
from .augment import CropResizeParams, temporal_crop_resize
from .contrast import _sgd_update
from .data import LabeledSample, atomic_open
from .encoders import (EncoderConfig, EncoderState, encoder_forward, encoder_backward,
                       init_encoder)
from .errors import DegenerateTaskError
from .represent import REPRESENTATIONS, batch_views


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def center_crop(seq, length: int = 64):
    """Deterministic evaluation window: central `length` frames, or a linear
    resample of the whole sequence when it is shorter."""
    if seq.frames >= length:
        start = (seq.frames - length) // 2
        return seq.with_coords(seq.coords[start:start + length])
    return temporal_crop_resize(
        seq, CropResizeParams(length_ratio=1.0, start=0, output_length=length))


def _labels(samples: list[LabeledSample]) -> np.ndarray:
    """Sample labels, with -1 marking an unlabeled sample."""
    return np.array([-1 if s.label is None else s.label for s in samples])


def _scorable(labels, task: str) -> np.ndarray:
    """Labels a scoring task may use; it refuses an empty set, and an
    unlabeled sample (-1) rather than score it as a class of its own."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise DegenerateTaskError(f"{task}: no samples to score")
    if np.any(labels < 0):
        raise DegenerateTaskError(
            f"{task}: {int(np.sum(labels < 0))} sample(s) have no label (-1); "
            "only labeled samples can be scored")
    return labels


def _class_targets(labels, task: str, where: str):
    """The sorted classes of `labels` and each label's index among them; a
    task with fewer than 2 classes raises `DegenerateTaskError`."""
    classes = np.unique(labels)
    if len(classes) < 2:
        raise DegenerateTaskError(f"{task} needs >= 2 classes, {where} has {len(classes)}")
    return classes, np.searchsorted(classes, labels)


_MEMO_ENTRIES = 4   # feature sets kept per EncoderState, least recently used dropped


def _memo_key(state: EncoderState, bones, clips: list, crop_length: int,
              batch_size: int) -> str:
    """sha256 over all the encoder reads: its config and parameters, the bone
    list, the crop and batch sizes and each `center_crop` clip of `clips`
    cast to the encoder's dtype, which `batch_views` only re-indexes."""
    bones = tuple(tuple(int(v) for v in edge) for edge in bones)
    h = hashlib.sha256(repr((state.config, bones, crop_length, batch_size)).encode())
    arrays = [(name, state.params[name]) for name in sorted(state.params)]
    arrays += [("", clip.coords.astype(state.dtype)) for clip in clips]
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(repr((name, arr.dtype.str, arr.shape)).encode())
        h.update(arr)
    return h.hexdigest()


def _encode(state: EncoderState, clips: list, bones, batch_size: int) -> np.ndarray:
    """Backbone features of the `center_crop` clips `clips`, one forward-only
    batch at a time."""
    if not clips:
        raise ValueError("feature extraction needs a nonempty split")
    rep, dtype = state.config.representation, state.dtype
    parts = []
    for start in range(0, len(clips), batch_size):
        seqs = clips[start:start + batch_size]
        f, _ = encoder_forward(state.config, state.params, batch_views(seqs, rep, dtype), bones)
        parts.append(f)
    return np.concatenate(parts, axis=0)


def extract_features(state: EncoderState, samples: list[LabeledSample], bones,
                     crop_length: int = 64, batch_size: int = 64):
    """Backbone (pre-projection) features and labels (-1 when unlabeled).

    The features are memoized on `state.feature_memo`: a repeat call with
    the same state and inputs returns a copy of the stored features without
    running the encoder. The key is a sha256 over the encoder config, every
    parameter's name, dtype, shape and bytes, the bone list,
    `crop_length`, `batch_size` and each sample's `center_crop` clip
    (see `_memo_key`), so an in-place edit of the parameters or of
    the samples' coords, or another bone list, misses the memo. A state
    keeps its last `_MEMO_ENTRIES` results for as long as it lives;
    `load_checkpoint` and `EncoderState.copy` start empty.
    """
    memo = state.feature_memo
    clips = [center_crop(s.sequence, crop_length) for s in samples]
    key = _memo_key(state, bones, clips, crop_length, batch_size)
    feats = memo.pop(key, None)
    if feats is None:
        feats = _encode(state, clips, bones, batch_size)
    memo[key] = feats                      # the most recently used entry is last
    while len(memo) > _MEMO_ENTRIES:
        del memo[next(iter(memo))]
    return feats.copy(), _labels(samples)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    accuracy: float
    correct: int
    total: int
    per_class: dict[int, float]

    def __post_init__(self):
        if self.total and self.correct != round(self.accuracy * self.total):
            raise ValueError("accuracy * total must equal the correct count")


def _score(predictions: np.ndarray, labels: np.ndarray) -> Metrics:
    correct = int(np.sum(predictions == labels))
    per_class = {}
    for c in np.unique(labels):
        mask = labels == c
        per_class[int(c)] = float(np.sum(predictions[mask] == c) / np.sum(mask))
    return Metrics(accuracy=correct / len(labels), correct=correct,
                   total=int(len(labels)), per_class=per_class)


# ---------------------------------------------------------------------------
# linear probe
# ---------------------------------------------------------------------------

def _check_schedule(schedule) -> None:
    """The ranges `ProbeSchedule` and `FinetuneSchedule` share."""
    if schedule.epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {schedule.epochs}")
    if not schedule.lr >= 0.0:
        raise ValueError(f"lr must be >= 0, got {schedule.lr}")
    if any(epoch < 0 for epoch in schedule.decay_epochs):
        raise ValueError(f"decay_epochs must be >= 0, got {schedule.decay_epochs}")
    if not 0.0 <= schedule.decay_factor <= 1.0:
        raise ValueError(f"decay_factor must be in [0,1], got {schedule.decay_factor}")


@dataclass(frozen=True)
class ProbeSchedule:
    epochs: int = 80
    lr: float = 0.1
    momentum: float = 0.9
    decay_epochs: tuple[int, ...] = (50, 70)
    decay_factor: float = 0.1

    def __post_init__(self):
        _check_schedule(self)
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError(f"momentum must be in [0,1], got {self.momentum}")


def _softmax_ce(logits: np.ndarray, y_index: np.ndarray):
    """Mean cross-entropy and dlogits for integer class indices."""
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    p = exp / exp.sum(axis=1, keepdims=True)
    n = len(y_index)
    loss = float(-np.mean(np.log(p[np.arange(n), y_index] + 1e-300)))
    dlogits = p.copy()
    dlogits[np.arange(n), y_index] -= 1.0
    dlogits /= n
    return loss, dlogits


def linear_probe(features_train: np.ndarray, labels_train: np.ndarray,
                 features_test: np.ndarray, labels_test: np.ndarray,
                 schedule: ProbeSchedule = ProbeSchedule()) -> Metrics:
    """Full-batch momentum SGD (pretraining's step, no weight decay) on a
    softmax classifier over frozen features; returns test top-1 accuracy.

    Features are standardized with training-split statistics before the
    classifier: small encoders concentrate their outputs in a narrow cone,
    and the probe's fixed schedule needs well-conditioned inputs to converge.
    The encoder itself is untouched (the transform is per-dimension affine).
    """
    classes, y = _class_targets(_scorable(labels_train, "linear probe"), "linear probe",
                                "training set")
    x = np.asarray(features_train, dtype=np.float64)
    mean, scale = x.mean(axis=0), x.std(axis=0) + 1e-8
    x = (x - mean) / scale
    params = {"w": np.zeros((x.shape[1], len(classes))), "b": np.zeros(len(classes))}
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    lr = schedule.lr
    for epoch in range(schedule.epochs):
        if epoch in schedule.decay_epochs:
            lr *= schedule.decay_factor
        logits, cache = nn.linear_forward(x, params["w"], params["b"])
        _, dlogits = _softmax_ce(logits, y)
        _, dw, db = nn.linear_backward(dlogits, cache)
        _sgd_update(params, {"w": dw, "b": db}, velocity, lr, 0.0, schedule.momentum)
    x_test = (np.asarray(features_test, dtype=np.float64) - mean) / scale
    logits, _ = nn.linear_forward(x_test, params["w"], params["b"])
    return _score(classes[np.argmax(logits, axis=1)], _scorable(labels_test, "linear probe"))


# ---------------------------------------------------------------------------
# k=1 cosine retrieval
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetrievalIndex:
    features: np.ndarray       # unit-norm rows
    labels: np.ndarray


def _unit_rows(features: np.ndarray, what: str) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(features, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.argmin(norms))
        raise ValueError(f"{what} sample {bad} has a zero-norm feature vector")
    return features / norms[:, None]

def build_index(features: np.ndarray, labels: np.ndarray) -> RetrievalIndex:
    if len(features) == 0:
        raise ValueError("retrieval gallery must be nonempty")
    return RetrievalIndex(features=_unit_rows(features, "gallery"),
                          labels=_scorable(labels, "retrieval gallery").copy())


def knn_retrieve(index: RetrievalIndex, query_features: np.ndarray,
                 query_labels=None):
    """k=1 cosine-similarity retrieval; ties go to the lowest gallery index.

    Returns predicted labels, plus Metrics when query labels are given.
    """
    q = _unit_rows(query_features, "query")
    if q.shape[1] != index.features.shape[1]:
        raise ValueError(f"query dim {q.shape[1]} != gallery dim "
                         f"{index.features.shape[1]}")
    sims = q @ index.features.T
    nearest = np.argmax(sims, axis=1)      # first occurrence = lowest index
    predictions = index.labels[nearest]
    if query_labels is None:
        return predictions, None
    return predictions, _score(predictions, _scorable(query_labels, "retrieval"))


# ---------------------------------------------------------------------------
# finetuning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinetuneSchedule:
    epochs: int = 50
    lr: float = 1e-4
    decay_epochs: tuple[int, ...] = (30, 40)
    decay_factor: float = 0.1
    batch_size: int = 16

    def __post_init__(self):
        _check_schedule(self)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def stratified_subset(labels: np.ndarray, rho: float, seed: int) -> np.ndarray:
    """Indices of a labeled fraction, class-stratified when every class can
    contribute at least one sample; otherwise a plain random draw (warned)."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"labeled fraction must be in (0, 1], got {rho}")
    labels = np.asarray(labels)
    rng = np.random.default_rng((int(seed), 0x5B5E7))
    classes, counts = np.unique(labels, return_counts=True)
    if np.any(rho * counts < 1.0):
        warnings.warn("labeled fraction leaves some class empty; "
                      "falling back to a non-stratified draw")
        k = max(1, round(rho * len(labels)))
        return np.sort(rng.choice(len(labels), size=k, replace=False))
    picked = []
    for c in classes:
        members = np.flatnonzero(labels == c)
        k = max(1, round(rho * len(members)))
        picked.append(rng.choice(members, size=k, replace=False))
    return np.sort(np.concatenate(picked))


def labeled_subsets(labels: np.ndarray, rho: float, seeds) -> list[np.ndarray]:
    """Each seed's `stratified_subset` of `labels`; one with fewer than 2
    classes raises `DegenerateTaskError`, since finetuning cannot learn from it."""
    labels = np.asarray(labels)
    subsets = [stratified_subset(labels, rho, seed) for seed in seeds]
    for subset in subsets:
        _class_targets(labels[subset], "finetune", "labeled subset")
    return subsets


@dataclass(frozen=True)
class SeedSummary:
    task: str
    protocol: str
    seeds: tuple[int, ...]
    mean: float
    std: float
    per_seed: tuple[float, ...]

    def to_record(self) -> dict:
        return {"task": self.task, "protocol": self.protocol,
                "seeds": list(self.seeds), "mean": self.mean, "std": self.std,
                "per_seed": list(self.per_seed)}


def summarize(task: str, protocol: str, seeds, accuracies) -> SeedSummary:
    acc = np.asarray(list(accuracies), dtype=np.float64)
    return SeedSummary(task=task, protocol=protocol, seeds=tuple(int(s) for s in seeds),
                       mean=float(acc.mean()), std=float(acc.std()),
                       per_seed=tuple(float(a) for a in acc))


class _Adam:
    def __init__(self, params: dict, b1=0.9, b2=0.999, eps=1e-8):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.b1, self.b2, self.eps, self.t = b1, b2, eps, 0

    def update(self, params: dict, grads: dict, lr: float) -> None:
        self.t += 1
        bias1 = 1.0 - self.b1 ** self.t
        bias2 = 1.0 - self.b2 ** self.t
        for name in sorted(grads):
            g = grads[name].astype(params[name].dtype)
            self.m[name] = self.b1 * self.m[name] + (1 - self.b1) * g
            self.v[name] = self.b2 * self.v[name] + (1 - self.b2) * g * g
            mhat = self.m[name] / bias1
            vhat = self.v[name] / bias2
            params[name] -= lr * mhat / (np.sqrt(vhat) + self.eps)


FINETUNE_MODES = ("semi-supervised", "transfer", "supervised-only")


def _finetune_one(init_state: EncoderState, train: list[LabeledSample],
                  test: list[LabeledSample], bones,
                  schedule: FinetuneSchedule, seed: int,
                  crop_length: int) -> Metrics:
    state = init_state.copy()
    config = state.config
    rep, dtype = config.representation, state.dtype

    classes, y = _class_targets(_labels(train), "finetune", "labeled subset")
    x = batch_views([center_crop(s.sequence, crop_length) for s in train], rep, dtype)

    rng = np.random.default_rng((int(seed), 0xF1E7))
    s = 1.0 / np.sqrt(config.feature_dim)
    head = {"cls.w": rng.uniform(-s, s, size=(config.feature_dim, len(classes))).astype(dtype),
            "cls.b": np.zeros(len(classes), dtype=dtype)}
    # projection-head parameters stay out of the task optimizer
    trained = {k: v for k, v in state.params.items() if not k.startswith("head.")} | head
    opt = _Adam(trained)

    lr = schedule.lr
    n = len(train)
    for epoch in range(schedule.epochs):
        if epoch in schedule.decay_epochs:
            lr *= schedule.decay_factor
        order = np.random.default_rng((int(seed), 0xF1E8, epoch)).permutation(n)
        for start in range(0, n, schedule.batch_size):
            idx = order[start:start + schedule.batch_size]
            feats, tape = encoder_forward(config, state.params, x[idx],
                                          bones, want_cache=True)
            logits = tape.linear(head, "cls", feats)
            _, dlogits = _softmax_ce(logits.astype(np.float64), y[idx])
            opt.update(trained, encoder_backward(tape, dlogits.astype(dtype)), lr)

    # `state` dies here, so a memo entry would never be read: no key is made
    feats = _encode(state, [center_crop(s.sequence, crop_length) for s in test], bones,
                    batch_size=64)
    logits, _ = nn.linear_forward(feats, head["cls.w"], head["cls.b"])
    predictions = classes[np.argmax(logits, axis=1)]
    return _score(predictions, _labels(test))


def finetune(checkpoint, train: list[LabeledSample], test: list[LabeledSample],
             bones, rho: float = 0.1, mode: str = "semi-supervised",
             schedule: FinetuneSchedule = FinetuneSchedule(),
             seeds=(0, 1, 2, 3, 4), crop_length: int = 64,
             protocol: str = "") -> SeedSummary:
    """Joint encoder+classifier training on a labeled fraction.

    `checkpoint` is an EncoderState (pretrained weights) for semi-supervised
    and transfer modes, or an EncoderConfig/EncoderState whose config seeds a
    fresh random init for supervised-only.  Each seed draws its own
    stratified labeled subset; the summary reports mean +/- std.
    """
    if mode not in FINETUNE_MODES:
        raise ValueError(f"mode must be one of {FINETUNE_MODES}, got {mode!r}")
    config = checkpoint if isinstance(checkpoint, EncoderConfig) else checkpoint.config
    if mode != "supervised-only" and not isinstance(checkpoint, EncoderState):
        raise ValueError(f"{mode} finetuning needs pretrained encoder weights")
    labels = _scorable(_labels(train), "finetune")
    _scorable(_labels(test), "finetune")
    accuracies = []
    for seed, subset in zip(seeds, labeled_subsets(labels, rho, seeds)):
        labeled = [train[i] for i in subset]
        if mode == "supervised-only":
            init = init_encoder(config, int(seed))
        else:
            init = checkpoint
        accuracies.append(_finetune_one(init, labeled, test, bones, schedule,
                                        int(seed), crop_length).accuracy)
    return summarize(f"finetune/{mode}/rho={rho}", protocol, seeds, accuracies)


# ---------------------------------------------------------------------------
# combined probe and embedding export
# ---------------------------------------------------------------------------

def combined_probe(states: list[EncoderState], train: list[LabeledSample],
                   test: list[LabeledSample], bones,
                   schedule: ProbeSchedule = ProbeSchedule(),
                   crop_length: int = 64) -> Metrics:
    """Concatenate backbone features from several encoders, then probe.

    A state that has just extracted these splits with the same crop and
    `extract_features`' default batch size serves them from its memo
    without running its encoder."""
    if len(states) < 2:
        raise ValueError("combined_probe expects at least two encoders")
    train_parts, test_parts = [], []
    for state in states:
        f_train, labels_train = extract_features(state, train, bones, crop_length)
        f_test, labels_test = extract_features(state, test, bones, crop_length)
        train_parts.append(f_train)
        test_parts.append(f_test)
    return linear_probe(np.concatenate(train_parts, axis=1), labels_train,
                        np.concatenate(test_parts, axis=1), labels_test,
                        schedule)


def pca2d(features: np.ndarray):
    """Top-2 principal directions via SVD of the centered feature matrix."""
    x = np.asarray(features, dtype=np.float64)
    centered = x - x.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:2]
    return centered @ components.T, components


PROJECTORS = ("none", "pca2d")


def export_embeddings(state: EncoderState, samples: list[LabeledSample],
                      bones, path, projector: str = "none",
                      crop_length: int = 64) -> int:
    """Write one JSON record per sample: {id, label, vector[, xy]}.

    Returns the record count.  Vectors are the backbone features; with the
    pca2d projector each record also carries 2-d principal coordinates.
    """
    if projector not in PROJECTORS:
        raise ValueError(f"projector must be one of {PROJECTORS}, got {projector!r}")
    features, labels = extract_features(state, samples, bones, crop_length)
    coords = pca2d(features)[0] if projector == "pca2d" else None
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for i, sample in enumerate(samples):
            record = {"id": sample.sequence.sample_id,
                      "label": None if sample.label is None else int(sample.label),
                      "vector": [float(v) for v in features[i]]}
            if coords is not None:
                record["xy"] = [float(coords[i, 0]), float(coords[i, 1])]
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return len(samples)


@dataclass(frozen=True)
class DownstreamSpec:
    checkpoint: str | None = None       # CKPT1 file or TRAINER1 manifest
    representation: str | None = None   # the encoder a task reads; null: the first trained
    rho: float = 0.1
    finetune_mode: str = "semi-supervised"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    projector: str = "none"             # embedding export: none | pca2d
    min_accuracy: float | None = None   # floor for CI gating (exit 4)
    probe: ProbeSchedule = ProbeSchedule()
    finetune: FinetuneSchedule = FinetuneSchedule()

    def __post_init__(self):
        if self.representation not in (None, *REPRESENTATIONS):
            raise ValueError(f"representation must be one of {REPRESENTATIONS}, "
                             f"got {self.representation!r}")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho {self.rho} outside (0, 1]")
        if self.finetune_mode not in FINETUNE_MODES:
            raise ValueError(f"finetune_mode must be one of {FINETUNE_MODES}, "
                             f"got {self.finetune_mode!r}")
        if not self.seeds:
            raise ValueError("seeds must hold at least one seed")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"seeds must be >= 0, got {list(self.seeds)}")
        if self.projector not in PROJECTORS:
            raise ValueError(f"projector must be one of {PROJECTORS}, got {self.projector!r}")
        if self.min_accuracy is not None and not 0.0 <= self.min_accuracy <= 1.0:
            raise ValueError(f"min_accuracy {self.min_accuracy} outside [0, 1]")
