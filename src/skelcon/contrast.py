"""Momentum-contrast training engine.

Implements the InfoNCE loss with a dynamic FIFO queue of negatives, momentum
(EMA) key encoders, and the two training regimes:

* intra: a single representation contrasts its query embedding against the
  momentum-encoded key of the same sample and the queue of past keys.
* inter: two (or three) representations share ONE augmented query/key pair
  per sample; each representation's query is contrasted against the *other*
  representation's key and queue, and the per-representation terms are
  summed.

All randomness is derived statelessly from ``(seed, tag, epoch, step)`` so a
run resumed from a checkpoint replays the exact step stream of an
uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, asdict

import numpy as np

from .augment import AugmentationSpec, apply_view, draw_view, make_query_key_pair
from .data import (SkeletonSequence, atomic_open, build_dataclass, manifest_error,
                   parse_bones, parse_json_object, require)
from .encoders import (EncoderConfig, EncoderState, _param_shapes, embed_forward,
                       embed_backward, init_encoder, save_checkpoint, load_checkpoint,
                       write_json)
from .errors import ContractError, ParseError, SchemaError
from .represent import REPRESENTATIONS, batch_views

REP_IDS = {rep: i for i, rep in enumerate(REPRESENTATIONS)}

# rng stream tags (second entry of the default_rng seed tuple)
_TAG_SHUFFLE, _TAG_AUGMENT, _TAG_WARMUP = 1, 2, 4

# Negatives that `info_nce` reads, and `_check_unit_norm` measures, at a time,
# so no temporary grows with the queue. `info_nce` runs its two GEMMs on each
# chunk in place, in the queue's dtype; the chunk's logits and their softmax,
# the running max, sum and weighted row sum, the loss and `grad_q` are float64.
_CHUNK_ROWS = 2048


def _check_unit_norm(rows: np.ndarray, message: str) -> None:
    """Raise `ContractError` unless every row of a 2-D array has a norm within
    1e-3 of 1; a row that is not finite fails. Rows are measured one chunk at
    a time."""
    errors = [np.abs(np.linalg.norm(rows[s:s + _CHUNK_ROWS], axis=1) - 1.0).max()
              for s in range(0, rows.shape[0], _CHUNK_ROWS)]
    worst = float(np.max(errors, initial=0.0))   # keeps a NaN, unlike max()
    if not worst <= 1e-3:  # NaN fails too
        raise ContractError(f"{message} (worst |norm-1| = {worst:.3e})")


# ---------------------------------------------------------------------------
# negative queue
# ---------------------------------------------------------------------------

class NegativeQueue:
    """Fixed-capacity FIFO of detached unit-norm key embeddings.

    Every row is checked on entry: `push` rejects a batch with a row whose
    norm is off 1 by more than 1e-3 (NaN included), and `from_state` does the
    same for the live rows of a loaded state. `info_nce` relies on this and
    reads ``buffer[:size]`` in place, in slot order, without checking again.
    Slot ``head`` is the next write; while the queue is not full,
    ``head == size``.
    """

    def __init__(self, capacity: int, dim: int, dtype=np.float32):
        if capacity < 1 or dim < 1:
            raise ValueError("capacity and dim must be positive")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self.buffer = np.zeros((capacity, dim), dtype=dtype)
        self.size = 0
        self.head = 0  # next write slot

    def __len__(self) -> int:
        return self.size

    def push(self, batch: np.ndarray) -> None:
        batch = np.atleast_2d(np.asarray(batch))
        n = batch.shape[0]
        if n > self.capacity:
            raise ValueError(f"push of {n} embeddings exceeds capacity {self.capacity}")
        if batch.shape[1] != self.dim:
            raise ValueError(f"embedding dim {batch.shape[1]} != queue dim {self.dim}")
        _check_unit_norm(batch, "queue only stores unit-norm embeddings")
        first = min(n, self.capacity - self.head)   # rows before the wrap
        self.buffer[self.head:self.head + first] = batch[:first]
        self.buffer[:n - first] = batch[first:]
        self.head = (self.head + n) % self.capacity
        self.size = min(self.size + n, self.capacity)

    def negatives(self) -> np.ndarray:
        """Contents in oldest-to-newest order (detached copies)."""
        if self.size < self.capacity:
            return self.buffer[:self.size].copy()
        return np.concatenate([self.buffer[self.head:], self.buffer[:self.head]])

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"buffer": self.buffer.copy(),
                "size": np.array(self.size), "head": np.array(self.head)}

    @classmethod
    def from_state(cls, arrays: dict[str, np.ndarray]) -> "NegativeQueue":
        """Rebuild a queue from `state_arrays`, checking it as `push` would:
        a violation raises `ContractError`."""
        buf, size, head = (np.asarray(arrays[k]) for k in ("buffer", "size", "head"))
        if buf.ndim != 2 or buf.dtype.kind != "f" or size.ndim or head.ndim:
            raise ContractError(
                f"queue state needs a 2-D float buffer and scalar size and head, got "
                f"buffer {buf.dtype}{buf.shape}, size {size.shape}, head {head.shape}")
        capacity, size, head = buf.shape[0], int(size), int(head)
        if not (0 <= size <= capacity and 0 <= head < capacity
                and (size == capacity or head == size)):
            raise ContractError(f"queue state has size {size} and head {head} "
                                f"for capacity {capacity}")
        _check_unit_norm(buf[:size], "queue state holds a row that is not unit-norm")
        q = cls(capacity, buf.shape[1], dtype=buf.dtype)
        q.buffer = buf.copy()
        q.size, q.head = size, head
        return q


# ---------------------------------------------------------------------------
# InfoNCE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfoNCEResult:
    loss: float
    grad_q: np.ndarray          # dL/dz_q, float64, same shape as z_q
    pos_logit_mean: float
    neg_logit_mean: float


def info_nce(z_q: np.ndarray, z_k: np.ndarray, negatives,
             tau: float = 0.07) -> InfoNCEResult:
    """Noise-contrastive loss of queries against one positive key each plus a
    shared pool of queue negatives.

    loss = mean_i -log[ exp(q_i.k_i/t) / (exp(q_i.k_i/t) + sum_n exp(q_i.n/t)) ]

    ``negatives`` is a `NegativeQueue` or an array of unit-norm rows. A queue
    is read in place in slot order (the loss does not depend on the order of
    the negatives), and its rows are not checked again: the queue checked
    them on entry. Array rows, ``z_q`` and ``z_k`` are checked here.

    Both GEMMs, the logits ``rows @ q.T`` and the weighted rows ``p @ rows``,
    run in the negatives' dtype (at least float32): float32 on a float32
    queue, float64 on a float64 queue or on array negatives, which are read
    as float64. The logits' softmax, the running max, sum and weighted row
    sum, the loss and ``grad_q`` are float64 whatever the queue's dtype.

    One pass reads `_CHUNK_ROWS` negatives at a time and keeps an online
    softmax per query (Milakov & Gimelshein 2018): a running max ``m``, a
    running sum ``s = sum exp(l - m)`` and a weighted row sum
    ``G = sum exp(l - m) * row``, all seeded from the positive and rescaled
    by ``exp(m_old - m_new)`` when the max grows. Returns the analytic
    gradient with respect to ``z_q``: ``(G / s - k) / (B * tau)``.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    from_queue = isinstance(negatives, NegativeQueue)
    if from_queue:
        negs = negatives.buffer[:negatives.size]
    else:
        negs = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    if negs.shape[0] == 0:
        raise ValueError("negative queue is empty")
    single = np.asarray(z_q).ndim == 1
    q = np.atleast_2d(np.asarray(z_q, dtype=np.float64))
    k = np.atleast_2d(np.asarray(z_k, dtype=np.float64))
    if q.shape != k.shape:
        raise ValueError(f"query/key shape mismatch: {q.shape} vs {k.shape}")
    if negs.shape[1] != q.shape[1]:
        raise ValueError(f"negatives have dim {negs.shape[1]}, queries {q.shape[1]}")
    checks = [("z_q", q), ("z_k", k)]
    if not from_queue:
        checks.append(("negatives", negs))
    for name, arr in checks:
        _check_unit_norm(arr, f"{name} must be unit-norm")

    b, n = q.shape[0], negs.shape[0]
    l_pos = np.sum(q * k, axis=1)                  # (B,)   cosine sims
    m = l_pos / tau                                # running max, seeded by the positive
    s = np.ones(b)                                 # running sum of exp(l - m)
    g = k.copy()                                   # running sum of exp(l - m) * row
    neg_sum = 0.0
    # Buffers reused by every chunk. The logits GEMM writes a row-major
    # (chunk, B) block, which one transposing cast turns into the float64
    # (B, chunk) logits: twice as fast as writing (B, chunk) directly, and a
    # softmax along axis 0 of the block costs more than the cast saves. `q_t`
    # is the transpose of a contiguous q, so a one-row chunk runs the gemv of
    # ``q @ row`` and float64 negatives keep the bytes of ``q @ rows.T``.
    gemm = np.promote_types(negs.dtype, np.float32)
    c = min(n, _CHUNK_ROWS)
    q_t = np.ascontiguousarray(q, dtype=gemm).T               # (D, B)
    lt_buf = np.empty((c, b), dtype=gemm)
    logits_buf = np.empty((b, c))
    p_buf = np.empty((b, c), dtype=gemm)                      # softmax weights
    g_chunk = np.empty_like(g, dtype=gemm)
    for start in range(0, n, _CHUNK_ROWS):
        rows = negs[start:start + _CHUNK_ROWS]
        r = rows.shape[0]
        lt, logits, p = lt_buf[:r], logits_buf[:, :r], p_buf[:, :r]
        np.matmul(rows, q_t, out=lt)
        np.copyto(logits, lt.T)
        neg_sum += logits.sum()
        logits /= tau
        m_new = np.maximum(m, logits.max(axis=1))
        scale = np.exp(m - m_new)
        logits -= m_new[:, None]
        np.exp(logits, out=logits)
        s *= scale
        s += logits.sum(axis=1)
        g *= scale[:, None]
        np.copyto(p, logits)
        g += np.matmul(p, rows, out=g_chunk)
        m = m_new
    loss = float(np.mean(m + np.log(s) - l_pos / tau))
    grad_q = g / s[:, None]                        # softmax-weighted rows
    grad_q -= k
    grad_q /= b * tau
    neg_logit_mean = float(neg_sum / (b * n) / tau)
    if single:
        grad_q = grad_q[0]
    return InfoNCEResult(loss=loss, grad_q=grad_q,
                         pos_logit_mean=float(l_pos.mean() / tau),
                         neg_logit_mean=neg_logit_mean)


# ---------------------------------------------------------------------------
# momentum pair
# ---------------------------------------------------------------------------

@dataclass
class MomentumPair:
    query: EncoderState
    key: EncoderState


def make_pair(config: EncoderConfig, seed: int, dtype=np.float32) -> MomentumPair:
    query = init_encoder(config, seed, dtype=dtype)
    return MomentumPair(query=query, key=query.copy())


def momentum_update(pair: MomentumPair, momentum: float) -> None:
    """theta_k <- m*theta_k + (1-m)*theta_q with m = `momentum`, the
    `TrainerConfig.momentum` of the trainer, elementwise and exactly."""
    for name, q in pair.query.params.items():
        k = pair.key.params[name]
        if k.shape != q.shape:
            raise ContractError(f"parameter {name}: key shape {k.shape} != query {q.shape}")
        pair.key.params[name] = momentum * k + (1.0 - momentum) * q
    pair.key.step = pair.query.step


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainerConfig:
    mode: str                              # intra | inter | inter3
    representations: tuple[str, ...]
    tau: float = 0.07
    momentum: float = 0.999
    queue_size: int = 16384
    lr: float = 0.01
    weight_decay: float = 1e-4
    opt_momentum: float = 0.9
    cross_terms: str = "full"              # inter3 only: full | cycle

    def __post_init__(self):
        expected = {"intra": 1, "inter": 2, "inter3": 3}
        if not isinstance(self.mode, str) or self.mode not in expected:
            raise ValueError(f"mode must be one of {sorted(expected)}, got {self.mode!r}")
        reps = tuple(self.representations)
        object.__setattr__(self, "representations", reps)   # JSON gives a list
        if len(reps) != expected[self.mode] or len(set(reps)) != len(reps):
            raise ValueError(f"representations must be {expected[self.mode]} "
                             f"distinct names for mode {self.mode!r}, got {reps}")
        for rep in reps:
            if rep not in REPRESENTATIONS:
                raise ValueError(f"representations must be among {REPRESENTATIONS}, got {rep!r}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        for name in ("momentum", "opt_momentum"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {getattr(self, name)}")
        for name in ("lr", "weight_decay"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.queue_size < 1:
            raise ValueError(f"queue_size must be positive, got {self.queue_size}")
        if self.cross_terms not in ("full", "cycle"):
            raise ValueError(f"cross_terms must be 'full' or 'cycle', got {self.cross_terms!r}")


@dataclass
class TrainerState:
    config: TrainerConfig
    aug: AugmentationSpec
    pairs: dict[str, MomentumPair]
    queues: dict[str, NegativeQueue]
    bones: tuple[tuple[int, int], ...]
    velocities: dict[str, dict[str, np.ndarray]]
    seed: int
    epoch: int = 0
    step: int = 0
    batch_size: int | None = None      # the schedule's, once `pretrain` has run it
    dataset_sha256: str | None = None  # of the training coords, where the caller records it

    @property
    def representations(self) -> tuple[str, ...]:
        return self.config.representations


@dataclass(frozen=True)
class LossReport:
    total: float
    terms: dict[str, float]            # keyed by the query's representation
    pos_logit_mean: float
    neg_logit_mean: float
    step: int

    def record(self, epoch: int) -> dict:
        return {"step": self.step, "epoch": epoch, "total": self.total,
                "per_rep_terms": dict(self.terms),
                "pos_logit_mean": self.pos_logit_mean,
                "neg_logit_mean": self.neg_logit_mean}


def _check_projection_widths(config: TrainerConfig,
                            encoder_configs: dict[str, EncoderConfig]) -> None:
    """`ValueError` naming the first trained representation whose encoder
    projects to another width than the first's: the inter modes contrast
    each representation's queries with another's keys and queue."""
    first, *others = config.representations
    width = encoder_configs[first].projection_dim
    for rep in others:
        if encoder_configs[rep].projection_dim != width:
            raise ValueError(f"{rep}.projection_dim: {encoder_configs[rep].projection_dim} "
                             f"differs from {first}'s {width}, and mode {config.mode!r} "
                             f"contrasts their embeddings")


def make_trainer(config: TrainerConfig, encoder_configs: dict[str, EncoderConfig],
                 aug: AugmentationSpec, bones, seed: int,
                 dtype=np.float32) -> TrainerState:
    reps = config.representations
    missing = [r for r in reps if r not in encoder_configs]
    if missing:
        raise ValueError(f"no encoder config for representations {missing}")
    _check_projection_widths(config, encoder_configs)
    pairs, queues, velocities = {}, {}, {}
    for rep in reps:
        enc_cfg = encoder_configs[rep]
        pairs[rep] = make_pair(enc_cfg, seed * 4 + REP_IDS[rep], dtype=dtype)
        queues[rep] = NegativeQueue(config.queue_size, enc_cfg.projection_dim,
                                    dtype=dtype)
        velocities[rep] = {name: np.zeros_like(p)
                           for name, p in pairs[rep].query.params.items()}
    bones = tuple(tuple(int(v) for v in edge) for edge in bones)
    return TrainerState(config=config, aug=aug, pairs=pairs, queues=queues,
                        bones=bones, velocities=velocities, seed=int(seed))


def _sgd_update(params: dict, grads: dict, velocity: dict,
                lr: float, weight_decay: float, momentum: float) -> None:
    for name in sorted(grads):
        g = grads[name].astype(params[name].dtype) + weight_decay * params[name]
        v = velocity[name]
        v *= momentum
        v += g
        params[name] -= lr * v


def _embed(trainer: TrainerState, rep: str, state: EncoderState,
           seqs: list[SkeletonSequence], want_cache: bool):
    x = batch_views(seqs, rep, state.dtype)
    return embed_forward(state.config, state.params, x, trainer.bones, want_cache)


def _cross_plan(config: TrainerConfig) -> list[tuple[str, str]]:
    """Ordered (query_rep, key_rep) contrast terms for the trainer's mode."""
    reps = config.representations
    if len(reps) < 3 or config.cross_terms == "cycle":
        return [(r, reps[(i + 1) % len(reps)]) for i, r in enumerate(reps)]
    return [(r, s) for r in reps for s in reps if r != s]


def contrast_losses(trainer: TrainerState, queries: list[SkeletonSequence],
                    keys: list[SkeletonSequence]):
    """Loss terms and query-encoder gradients for one augmented batch.

    Pure in the parameters (no state mutation), which makes it the unit the
    finite-difference oracle probes.
    """
    z_q, caches, z_k = {}, {}, {}
    for rep in trainer.representations:
        pair = trainer.pairs[rep]
        z_q[rep], caches[rep] = _embed(trainer, rep, pair.query, queries, True)
        z_k[rep], _ = _embed(trainer, rep, pair.key, keys, False)

    terms: dict[str, float] = {rep: 0.0 for rep in trainer.representations}
    dz_q = {rep: np.zeros_like(z_q[rep], dtype=np.float64)
            for rep in trainer.representations}
    pos_means, neg_means = [], []
    for q_rep, k_rep in _cross_plan(trainer.config):
        res = info_nce(z_q[q_rep], z_k[k_rep], trainer.queues[k_rep],
                       trainer.config.tau)
        terms[q_rep] += res.loss
        dz_q[q_rep] += res.grad_q
        pos_means.append(res.pos_logit_mean)
        neg_means.append(res.neg_logit_mean)

    grads = {}
    for rep in trainer.representations:
        pair = trainer.pairs[rep]
        dtype = z_q[rep].dtype
        grads[rep] = embed_backward(pair.query.config, pair.query.params,
                                    caches[rep], dz_q[rep].astype(dtype))
    total = float(sum(terms.values()))
    report = LossReport(total=total, terms=terms,
                        pos_logit_mean=float(np.mean(pos_means)),
                        neg_logit_mean=float(np.mean(neg_means)),
                        step=trainer.step)
    return report, grads, z_k


def train_step(trainer: TrainerState, batch: list[SkeletonSequence],
               rng: np.random.Generator) -> LossReport:
    """One optimization step: augment, contrast, update, enqueue."""
    queries, keys = zip(*(make_query_key_pair(seq, trainer.aug, rng) for seq in batch))
    report, grads, z_k = contrast_losses(trainer, queries, keys)
    if not np.isfinite(report.total):
        raise ContractError(
            f"non-finite loss {report.total} at step {trainer.step} "
            f"(terms={report.terms})")
    cfg = trainer.config
    for rep in trainer.representations:
        pair = trainer.pairs[rep]
        _sgd_update(pair.query.params, grads[rep], trainer.velocities[rep],
                    cfg.lr, cfg.weight_decay, cfg.opt_momentum)
        pair.query.step += 1
        momentum_update(pair, cfg.momentum)
        trainer.queues[rep].push(z_k[rep])
    trainer.step += 1
    return report


def warmup_queues(trainer: TrainerState, sequences: list[SkeletonSequence],
                  batch_size: int = 64) -> None:
    """Seed every queue with key-encoder embeddings of augmented views.

    One pass over the data (stopping once full) so early steps are never
    contrasted against off-manifold random vectors. Each slot holds one view
    of its sequence, drawn from the ``(seed, _TAG_WARMUP)`` stream in slot
    order; no query is drawn beside it.
    """
    rng = np.random.default_rng((trainer.seed, _TAG_WARMUP))
    aug = trainer.aug
    picked = sequences[:min(trainer.config.queue_size, len(sequences))]
    for start in range(0, len(picked), batch_size):
        views = []      # frees the last chunk's views before this chunk's are made
        for seq in picked[start:start + batch_size]:
            views.append(apply_view(seq, draw_view(aug, seq.frames, seq.joints, rng),
                                    aug.output_length))
        for rep in trainer.representations:
            z, _ = _embed(trainer, rep, trainer.pairs[rep].key, views, False)
            trainer.queues[rep].push(z)


# ---------------------------------------------------------------------------
# pretraining loop with checkpoint/resume
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    epochs: int = 450
    batch_size: int = 16
    checkpoint_every: int = 0      # in epochs; 0 = final checkpoint only

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


def _aux_layout(config: TrainerConfig, pairs: dict[str, MomentumPair]) -> dict[str, tuple]:
    """Name -> shape of each array of a trainer's aux blob, in the order
    `save_trainer` writes them: per representation its queue's buffer, size
    and head, then one velocity per query parameter."""
    layout = {}
    for rep in config.representations:
        encoder = pairs[rep].query.config
        layout.update({f"queue.{rep}.buffer": (config.queue_size, encoder.projection_dim),
                       f"queue.{rep}.size": (), f"queue.{rep}.head": ()})
        layout.update({f"velocity.{rep}.{name}": shape
                       for name, shape in _param_shapes(encoder).items()})
    return layout


def save_trainer(trainer: TrainerState, out_dir, tag: str | None = None) -> str:
    """Write one CKPT1 per encoder plus an aux blob and a trainer manifest.

    Returns the manifest path; `load_trainer` on it restores training exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    tag = tag or f"epoch{trainer.epoch:04d}"
    files, arrays = {}, {}
    for rep in trainer.representations:
        qf, kf = f"{tag}.{rep}.query.ckpt", f"{tag}.{rep}.key.ckpt"
        save_checkpoint(trainer.pairs[rep].query, os.path.join(out_dir, qf))
        save_checkpoint(trainer.pairs[rep].key, os.path.join(out_dir, kf))
        files[rep] = {"query": qf, "key": kf}
        arrays.update({f"queue.{rep}.{name}": arr
                       for name, arr in trainer.queues[rep].state_arrays().items()})
        arrays.update({f"velocity.{rep}.{name}": arr
                       for name, arr in trainer.velocities[rep].items()})
    aux_file = f"{tag}.aux.npz"
    with atomic_open(os.path.join(out_dir, aux_file), "wb") as fh:
        np.savez(fh, **{name: arrays[name] for name in _aux_layout(trainer.config, trainer.pairs)})
    manifest = {
        "format": "TRAINER1",
        "trainer": asdict(trainer.config),
        "aug": asdict(trainer.aug),
        "bones": [list(edge) for edge in trainer.bones],
        "seed": trainer.seed,
        "epoch": trainer.epoch,
        "step": trainer.step,
        "batch_size": trainer.batch_size,
        "dataset_sha256": trainer.dataset_sha256,
        "encoders": files,
        "aux": aux_file,
    }
    path = os.path.join(out_dir, f"{tag}.trainer.json")
    write_json(path, manifest)
    return path


_MANIFEST_KEYS = (("trainer", dict), ("aug", dict), ("bones", list), ("seed", int),
                  ("epoch", int), ("step", int), ("encoders", dict), ("aux", str))
# absent from older manifests, null where a trainer has not recorded them
_MANIFEST_OPTIONAL = (("batch_size", int), ("dataset_sha256", str))


def _read_aux(path) -> dict[str, np.ndarray]:
    try:
        loaded = np.load(path)
        if not isinstance(loaded, np.lib.npyio.NpzFile):
            raise ValueError("an .npy array, not an .npz archive")
        with loaded:
            return dict(loaded)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ParseError(f"{path}: aux blob is not a readable npz archive: {exc}") from None


def load_trainer(manifest_path) -> TrainerState:
    """Read a `save_trainer` bundle. A manifest or aux blob that cannot be
    read raises `ParseError`, and one whose parts disagree `SchemaError`,
    naming the file and the key; the aux blob must hold the arrays and
    shapes `_aux_layout` states for the trainer, with finite float
    velocities. A malformed CKPT1 raises `ParseError` (`load_checkpoint`)
    and a bad queue `ContractError`."""
    with open(manifest_path, "rb") as fh:
        manifest = parse_json_object(manifest_path, fh.read(), "manifest", "TRAINER1",
                                     _MANIFEST_KEYS, _MANIFEST_OPTIONAL)
    base = os.path.dirname(manifest_path)

    error = manifest_error(manifest_path)
    config = build_dataclass(error, TrainerConfig, "trainer", manifest["trainer"])
    manifest["aug"].pop("seed", None)  # written by older versions, unused
    aug = build_dataclass(error, AugmentationSpec, "aug", manifest["aug"])
    bones = parse_bones(manifest_path, "manifest", manifest["bones"])
    for key, low in (("seed", 0), ("epoch", 0), ("step", 0), ("batch_size", 1)):
        value = manifest.get(key)
        require(error, value is None or value >= low, key, f"must be >= {low}, got {value}")
    pairs = {}
    for rep in config.representations:
        files = manifest["encoders"].get(rep)
        if not (isinstance(files, dict)
                and all(isinstance(files.get(k), str) for k in ("query", "key"))):
            raise SchemaError(f"{manifest_path}: manifest 'encoders.{rep}' needs the "
                              f"'query' and 'key' file names of trained representation {rep}")
        query = load_checkpoint(os.path.join(base, files["query"]))
        key = load_checkpoint(os.path.join(base, files["key"]))
        if key.config != query.config:
            raise SchemaError(f"{manifest_path}: manifest 'encoders.{rep}': the key "
                              "checkpoint's config differs from the query's")
        pairs[rep] = MomentumPair(query=query, key=key)
    aux_path = os.path.join(base, manifest["aux"])
    aux = _read_aux(aux_path)
    layout = _aux_layout(config, pairs)
    for name in sorted(layout.keys() | aux.keys()):
        arr, shape = aux.get(name), layout.get(name)
        if arr is None or arr.shape != shape:
            got = "missing" if arr is None else f"of shape {list(arr.shape)}"
            want = "no such array" if shape is None else f"shape {list(shape)}"
            raise SchemaError(f"{aux_path}: '{name}' is {got}, the trainer's layout has {want}")
        if name.startswith("velocity.") and not (arr.dtype.kind == "f" and np.isfinite(arr).all()):
            raise SchemaError(f"{aux_path}: '{name}' is {arr.dtype}, not finite floats")
    return TrainerState(
        config=config, aug=aug, pairs=pairs, bones=bones,
        queues={rep: NegativeQueue.from_state({name: aux[f"queue.{rep}.{name}"]
                                               for name in ("buffer", "size", "head")})
                for rep in config.representations},
        # stored dtype kept: a float64 trainer's velocities stay wider than its parameters
        velocities={rep: {name: aux[f"velocity.{rep}.{name}"] for name in pairs[rep].query.params}
                    for rep in config.representations},
        seed=manifest["seed"], epoch=manifest["epoch"], step=manifest["step"],
        batch_size=manifest.get("batch_size"), dataset_sha256=manifest.get("dataset_sha256"))


def sequences_sha256(sequences: list[SkeletonSequence]) -> str:
    """The sha256 over the coords of `sequences` (dtype, shape, bytes), in order."""
    digest = hashlib.sha256()
    for seq in sequences:
        coords = np.ascontiguousarray(seq.coords)
        digest.update(f"{coords.dtype.str}{coords.shape}".encode())
        digest.update(coords.tobytes())
    return digest.hexdigest()


def check_resume(trainer: TrainerState, sequences: list[SkeletonSequence],
                 schedule: Schedule, out_dir=None) -> list[str]:
    """Every rule for `pretrain` to continue `trainer` on `sequences` under
    `schedule`, checked before anything is written. Returns the lines of
    ``out_dir/loss_log.jsonl`` that the run keeps, the records of steps
    0..step-1 (none without a directory or file); later lines (logged after
    the last checkpoint, before a crash) and a torn last line go.

    A `ValueError`, whose message begins with the name it refuses: empty
    `sequences`; a `queue_size` below ``min(batch_size, len(sequences))``,
    the keys of one batch; `epochs` that leave none to train; a `batch_size`
    or `sequences_sha256` other than the trainer records (the digest is
    computed only for a trainer that has taken a step). A `SchemaError` if
    the step is not ``epoch * ceil(len(sequences) / batch_size)`` at the
    recorded batch size, and a `ParseError` naming the log's line if a
    record before the cut is not a JSON object whose integer ``step`` is its
    own, or if too few are left (another run rewrote the log). A trainer
    that records no batch size or hash is not checked for it."""
    n = len(sequences)
    if not n:
        raise ValueError("sequences are empty: pretraining needs at least one")
    batch = min(schedule.batch_size, n)
    if trainer.config.queue_size < batch:
        raise ValueError(f"queue_size {trainer.config.queue_size} cannot hold a batch of "
                         f"{batch} keys (batch_size {schedule.batch_size}, {n} training "
                         f"sequences)")
    if trainer.epoch >= schedule.epochs:
        raise ValueError(f"epochs {schedule.epochs} leave nothing to train, the trainer "
                         f"is already at epoch {trainer.epoch}")
    if trainer.batch_size is not None:
        if schedule.batch_size != trainer.batch_size:
            raise ValueError(f"batch_size {schedule.batch_size} is not the trainer's "
                             f"recorded batch size {trainer.batch_size}")
        steps = trainer.epoch * -(-n // trainer.batch_size)
        if trainer.step != steps:
            raise SchemaError(f"manifest 'step' is {trainer.step}, but {trainer.epoch} "
                              f"epoch(s) of {n} sequences at batch size "
                              f"{trainer.batch_size} take {steps} steps")
    if trainer.step and trainer.dataset_sha256 is not None:
        digest, recorded = sequences_sha256(sequences), trainer.dataset_sha256
        if digest != recorded:
            raise ValueError(f"sequences differ from the training data the trainer records: "
                             f"sha256 {digest[:12]}..., not {recorded[:12]}...")
    kept = []
    path = None if out_dir is None else os.path.join(out_dir, "loss_log.jsonl")
    if path is not None and os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if len(kept) == trainer.step or not line.endswith("\n"):
                    break
                record = parse_json_object(f"{path}: line {lineno}", line, "loss record",
                                           None, (("step", int),))
                if record["step"] != len(kept):
                    raise ParseError(f"{path}: line {lineno}: a record of step "
                                     f"{record['step']} where step {len(kept)} belongs")
                kept.append(line)
        if len(kept) < trainer.step:
            raise ParseError(f"{path}: {len(kept)} full records, but the run resumes "
                             f"at step {trainer.step}")
    return kept


def pretrain(trainer: TrainerState, sequences: list[SkeletonSequence],
             schedule: Schedule, out_dir=None) -> list[dict]:
    """Run the contrastive loop over shuffled epochs, once `check_resume`
    has passed the trainer, data and schedule.

    Writes one record per step to ``out_dir/loss_log.jsonl`` (when an output
    directory is given) after the records of earlier steps that the file
    already holds, and writes checkpoints at the schedule's cadence plus a
    final one.  Returns the list of loss records from this call.

    A trainer restored with `load_trainer` continues from its stored epoch;
    because every rng is derived from (seed, tag, epoch, step), the resumed
    loss log is identical to the uninterrupted run's from that point on.
    """
    return _train_epochs(trainer, sequences, schedule, out_dir,
                         check_resume(trainer, sequences, schedule, out_dir))


def _train_epochs(trainer: TrainerState, sequences: list[SkeletonSequence],
                  schedule: Schedule, out_dir, kept: list[str]) -> list[dict]:
    """`pretrain` after its `check_resume`, which returned `kept`."""
    if trainer.step == 0 and all(len(q) == 0 for q in trainer.queues.values()):
        warmup_queues(trainer, sequences)
    trainer.batch_size = schedule.batch_size

    log_fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        log_fh = open(os.path.join(out_dir, "loss_log.jsonl"), "w", encoding="utf-8")
        log_fh.writelines(kept)
    records = []
    try:
        n = len(sequences)
        for epoch in range(trainer.epoch, schedule.epochs):
            order = np.random.default_rng(
                (trainer.seed, _TAG_SHUFFLE, epoch)).permutation(n)
            for bi, start in enumerate(range(0, n, schedule.batch_size)):
                batch = [sequences[i] for i in order[start:start + schedule.batch_size]]
                rng = np.random.default_rng((trainer.seed, _TAG_AUGMENT, epoch, bi))
                report = train_step(trainer, batch, rng)
                record = report.record(epoch)
                records.append(record)
                if log_fh is not None:
                    log_fh.write(json.dumps(record, sort_keys=True) + "\n")
            trainer.epoch = epoch + 1
            last = trainer.epoch == schedule.epochs
            if out_dir is not None and (last or (
                    schedule.checkpoint_every
                    and trainer.epoch % schedule.checkpoint_every == 0)):
                # the log reaches the disk before the bundle that resumes after it
                log_fh.flush()
                os.fsync(log_fh.fileno())
                save_trainer(trainer, out_dir)
    finally:
        if log_fh is not None:
            log_fh.close()
    return records
