"""Encoder families for the three skeleton representations.

* SEQ: bidirectional gated recurrent layers; the feature is the
  concatenation of the final hidden states of both directions of the last
  layer (``seq_pooling="mean"`` averages the output sequence instead).
* IMG: a reduced convolutional co-occurrence stack: pointwise coordinate
  stem, temporal convolutions, a joints-into-channels transpose followed by
  a pointwise co-occurrence mix, global pooling and a dense layer.
* STG: graph-convolution blocks over the fixed per-actor joint adjacency
  interleaved with temporal convolutions, global pooling, dense layer.

IMG and STG read the same (N, 3, T, V) batch and keep every tensor in
(N, C, T, V) layout; STG also takes the bone list and builds its normalized
adjacency from it on each forward pass.

Each encoder ends in a two-layer projection head producing L2-normalized
embeddings (128-d by default).  Forward passes can retain caches so that
exact analytic parameter gradients flow back through the whole stack.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import struct
from dataclasses import dataclass, asdict, field, replace

import numpy as np

from . import nn
from .data import NUM_ACTORS, parse_json_object
from .errors import DegenerateEmbeddingError, ParseError
from .represent import REPRESENTATIONS, graph_adjacency

CHECKPOINT_MAGIC = b"CKPT1\n"
_NORM_FLOOR = 1e-12         # smallest projected norm `head_forward` normalizes


@dataclass(frozen=True)
class EncoderConfig:
    representation: str
    joints: int
    depth: int = 1
    hidden: int = 32
    feature_dim: int = 64
    projection_dim: int = 128
    temporal_kernel: int = 5
    seq_pooling: str = "final"

    def __post_init__(self):
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"representation must be one of {REPRESENTATIONS}")
        # hidden before feature_dim: the config derives feature_dim from hidden
        for name, low in (("depth", 1), ("hidden", 1), ("joints", 2), ("feature_dim", 2),
                          ("projection_dim", 2), ("temporal_kernel", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.representation == "SEQ" and self.feature_dim != 2 * self.hidden:
            raise ValueError(f"feature_dim of SEQ must equal 2*hidden="
                             f"{2 * self.hidden}, got {self.feature_dim}")
        if self.temporal_kernel % 2 != 1:
            raise ValueError(f"temporal_kernel must be odd (same-padding convolutions), "
                             f"got {self.temporal_kernel}")
        if self.seq_pooling not in ("final", "mean"):
            raise ValueError(f"seq_pooling must be 'final' or 'mean', got {self.seq_pooling!r}")

    @property
    def node_count(self) -> int:
        return NUM_ACTORS * self.joints


def desk_config(representation: str, joints: int, hidden: int = 32,
                depth: int = 1, projection_dim: int = 128) -> EncoderConfig:
    return EncoderConfig(representation=representation, joints=joints,
                         depth=depth, hidden=hidden, feature_dim=2 * hidden,
                         projection_dim=projection_dim)


@dataclass
class EncoderState:
    config: EncoderConfig
    params: dict[str, np.ndarray]
    step: int = 0
    # `downstream.extract_features`' results for this state; never saved,
    # copied or compared.
    feature_memo: dict[str, np.ndarray] = field(default_factory=dict, compare=False,
                                                repr=False)

    @property
    def dtype(self) -> np.dtype:
        """The float dtype all parameters share; every encoder has a head."""
        return self.params["head.w1"].dtype

    def copy(self) -> "EncoderState":
        return EncoderState(config=self.config,
                            params={k: v.copy() for k, v in self.params.items()},
                            step=self.step)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    h, f = config.hidden, config.feature_dim
    kt = config.temporal_kernel
    shapes: dict[str, tuple[int, ...]] = {}
    if config.representation == "SEQ":
        d = 3 * config.node_count
        for layer in range(config.depth):
            d_in = d if layer == 0 else 2 * h
            for direction in ("fwd", "bwd"):
                shapes[f"gru{layer}.{direction}.w"] = (d_in, 3 * h)
                shapes[f"gru{layer}.{direction}.u"] = (h, 3 * h)
                shapes[f"gru{layer}.{direction}.b"] = (3 * h,)
    elif config.representation == "IMG":
        v = config.node_count
        shapes["conv_in.w"] = (h, 3, 1, 1)
        shapes["conv_in.b"] = (h,)
        for i in range(config.depth):
            shapes[f"tconv{i}.w"] = (h, h, kt, 1)
            shapes[f"tconv{i}.b"] = (h,)
        shapes["cooc.w"] = (2 * h, v, 1, 1)
        shapes["cooc.b"] = (2 * h,)
        shapes["fc.w"] = (2 * h, f)
        shapes["fc.b"] = (f,)
    elif config.representation == "STG":
        for i in range(config.depth):
            c_in = 3 if i == 0 else h
            shapes[f"block{i}.gc.w"] = (c_in, h)
            shapes[f"block{i}.gc.b"] = (h,)
            shapes[f"block{i}.tc.w"] = (h, h, kt, 1)
            shapes[f"block{i}.tc.b"] = (h,)
        shapes["fc.w"] = (h, f)
        shapes["fc.b"] = (f,)
    shapes["head.w1"] = (f, f)
    shapes["head.b1"] = (f,)
    shapes["head.w2"] = (f, config.projection_dim)
    shapes["head.b2"] = (config.projection_dim,)
    return shapes


def init_encoder(config: EncoderConfig, seed: int,
                 dtype=np.float32) -> EncoderState:
    """Deterministic small-magnitude init: uniform(-s, s) with s = fan_in^-1/2."""
    rng = np.random.default_rng((int(seed), 0xE0C0))
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(config).items():
        if name.endswith(".b") or name.endswith("b1") or name.endswith("b2"):
            params[name] = np.zeros(shape, dtype=dtype)
            continue
        if len(shape) == 4:
            fan_in = shape[1] * shape[2] * shape[3]
        else:
            fan_in = shape[0]
        s = 1.0 / np.sqrt(fan_in)
        params[name] = rng.uniform(-s, s, size=shape).astype(dtype)
    return EncoderState(config=config, params=params, step=0)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

class _Tape(list):
    """Backward steps recorded by a forward pass, replayed in reverse.

    A step is ``(names, backward)``: ``backward(d)`` returns the input
    gradient followed by the gradients of the parameters in ``names``.
    Steps call ``nn.<op>`` through the module when they run, so an op
    patched on ``nn`` is seen by both passes.
    """

    def replay(self, d):
        grads: dict[str, np.ndarray] = {}
        for names, backward in reversed(self):
            d, *param_grads = backward(d)
            grads.update(zip(names, param_grads))
        return grads

    def conv(self, params, layer, x, pad=(0, 0)):
        """A conv and the ReLU after it, as one op."""
        y, c = nn.conv2d_forward(x, params[f"{layer}.w"], params[f"{layer}.b"], pad=pad,
                                 relu=True)
        self.append(((f"{layer}.w", f"{layer}.b"),
                     lambda d: nn.conv2d_backward(d, c, relu_out=y)))
        return y

    def graph_conv(self, params, layer, x, a_hat):
        """A graph conv and the ReLU after it, as one op."""
        y, c = nn.graph_conv_forward(x, a_hat, params[f"{layer}.w"], params[f"{layer}.b"],
                                     relu=True)
        self.append(((f"{layer}.w", f"{layer}.b"),
                     lambda d: nn.graph_conv_backward(d, c, relu_out=y)))
        return y

    def linear(self, params, layer, x):
        y, c = nn.linear_forward(x, params[f"{layer}.w"], params[f"{layer}.b"])
        self.append(((f"{layer}.w", f"{layer}.b"), lambda d: nn.linear_backward(d, c)))
        return y

    def bigru(self, params, layer, x):
        """Both directions of a GRU layer as one packed `nn.gru_forward`,
        outputs [fwd | bwd] (N, T, 2H)."""
        names = tuple(f"{layer}.{direction}.{k}" for direction in ("fwd", "bwd")
                      for k in ("w", "u", "b"))
        w, u, b = (np.concatenate([params[f"{layer}.fwd.{k}"], params[f"{layer}.bwd.{k}"]],
                                  axis=-1) for k in ("w", "u", "b"))
        y, _, c = nn.gru_forward(x, w, u, b)
        g = u.shape[1] // 2

        def backward(d):
            dx, *grads = nn.gru_backward(d, None, c)
            return (dx, *(a[..., :g] for a in grads), *(a[..., g:] for a in grads))
        self.append((names, backward))
        return y

    def final_states(self, y):
        """(N, 2H) final states of a bidirectional layer: the forward
        direction's at the last frame, the backward direction's at frame 0."""
        shape, h = y.shape, y.shape[2] // 2

        def backward(d):
            dy = np.zeros(shape, dtype=d.dtype)
            dy[:, -1, :h], dy[:, 0, h:] = d[:, :h], d[:, h:]
            return (dy,)
        self.append(((), backward))
        return np.concatenate([y[:, -1, :h], y[:, 0, h:]], axis=1)

    def relu(self, x):
        y, c = nn.relu_forward(x)
        self.append(((), lambda d: (nn.relu_backward(d, c),)))
        return y

    def pool(self, x, axes):
        y, c = nn.mean_pool_forward(x, axes)
        self.append(((), lambda d: (nn.mean_pool_backward(d, c),)))
        return y

    def transpose(self, x, axes):
        inverse = tuple(np.argsort(axes))
        self.append(((), lambda d: (nn.transpose_copy(d, inverse),)))
        return nn.transpose_copy(x, axes)


class _NoTape(_Tape):
    """The tape of a forward-only pass: it keeps no step, so every layer's
    cache is freed as soon as the next layer has run."""

    def append(self, step):
        pass


def _seq_forward(config, params, x, tape):
    for layer in range(config.depth):
        x = tape.bigru(params, f"gru{layer}", x)
    return tape.final_states(x) if config.seq_pooling == "final" else tape.pool(x, (1,))


def _img_forward(config, params, x, tape):
    pad = (config.temporal_kernel // 2, 0)
    y = tape.conv(params, "conv_in", x)
    for i in range(config.depth):
        y = tape.conv(params, f"tconv{i}", y, pad)
    y = tape.transpose(y, (0, 3, 2, 1))  # joints become channels
    y = tape.conv(params, "cooc", y)
    return tape.relu(tape.linear(params, "fc", tape.pool(y, (2, 3))))


def _stg_forward(config, params, x, a_hat, tape):
    pad = (config.temporal_kernel // 2, 0)
    for i in range(config.depth):
        x = tape.graph_conv(params, f"block{i}.gc", x, a_hat)
        x = tape.conv(params, f"block{i}.tc", x, pad)
    return tape.relu(tape.linear(params, "fc", tape.pool(x, (2, 3))))


_EXPECTED_NDIM = {"IMG": 4, "SEQ": 3, "STG": 4}


def encoder_forward(config: EncoderConfig, params: dict, x: np.ndarray,
                    bones=None, want_cache: bool = False):
    """Backbone features for a batch of views (no projection head); the
    cache is the tape that `encoder_backward` replays. STG needs `bones`, a
    tree over `config.joints` (else `ValueError`); IMG and SEQ ignore it."""
    if x.ndim != _EXPECTED_NDIM[config.representation]:
        raise ValueError(
            f"{config.representation} encoder expects a rank-"
            f"{_EXPECTED_NDIM[config.representation]} batch, got shape {x.shape}")
    tape = _Tape() if want_cache else _NoTape()
    if config.representation == "SEQ":
        if x.shape[2] != 3 * config.node_count:
            raise ValueError(f"SEQ feature axis {x.shape[2]} != {3 * config.node_count}")
        feats = _seq_forward(config, params, x, tape)
    else:
        if x.shape[1] != 3 or x.shape[3] != config.node_count:
            raise ValueError(f"{config.representation} batch shape {x.shape} "
                             f"does not match config")
        if config.representation == "IMG":
            feats = _img_forward(config, params, x, tape)
        else:
            if bones is None:
                raise ValueError("STG encoder needs the bone list")
            feats = _stg_forward(config, params, x,
                                 graph_adjacency(bones, config.joints, x.dtype), tape)
    return feats, (tape if want_cache else None)


def encoder_backward(cache, dfeat: np.ndarray):
    return cache.replay(dfeat)


def head_forward(params: dict, feats: np.ndarray, want_cache: bool = False):
    """Two-layer projection plus exact L2 normalization; a projected vector
    with a (near-)zero norm raises `DegenerateEmbeddingError`."""
    hidden, c1 = nn.linear_forward(feats, params["head.w1"], params["head.b1"])
    hidden, r1 = nn.relu_forward(hidden)
    y, c2 = nn.linear_forward(hidden, params["head.w2"], params["head.b2"])
    norms = np.linalg.norm(y, axis=-1, keepdims=True)
    if np.any(norms < _NORM_FLOOR):
        bad = int(np.argmin(norms))
        raise DegenerateEmbeddingError(
            f"projected vector {bad} has norm {float(norms.flat[bad]):.3e}")
    z = y / norms
    cache = (c1, r1, c2, z, norms) if want_cache else None
    return z, cache


def head_backward(params: dict, cache, dz: np.ndarray):
    c1, r1, c2, z, norms = cache
    # y = z * norm; dL/dy = (dz - z (z . dz)) / norm
    dy = (dz - z * np.sum(z * dz, axis=-1, keepdims=True)) / norms
    dh, dw2, db2 = nn.linear_backward(dy, c2)
    dh = nn.relu_backward(dh, r1)
    dfeat, dw1, db1 = nn.linear_backward(dh, c1)
    return dfeat, {"head.w1": dw1, "head.b1": db1, "head.w2": dw2, "head.b2": db2}


def embed_forward(config, params, x, bones=None, want_cache=False):
    """views -> unit-norm embeddings; cache covers backbone and head."""
    feats, enc_cache = encoder_forward(config, params, x, bones, want_cache)
    z, head_cache = head_forward(params, feats, want_cache)
    return z, ((enc_cache, head_cache) if want_cache else None)


def embed_backward(config, params, cache, dz):
    enc_cache, head_cache = cache
    dfeat, grads = head_backward(params, head_cache, dz)
    grads.update(encoder_backward(enc_cache, dfeat))
    return grads


# ---------------------------------------------------------------------------
# checkpoint container
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


def write_json(path, record: dict) -> None:
    """A JSON artifact (sorted keys, one-space indent, trailing newline),
    written through `atomic_open`."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
        fh.write("\n")


def save_checkpoint(state: EncoderState, path) -> None:
    """Single-file container: magic, manifest length, JSON manifest, f32 blob."""
    names = sorted(state.params)
    index = {}
    offset = 0
    blob = io.BytesIO()
    for name in names:
        arr = np.ascontiguousarray(state.params[name], dtype="<f4")
        index[name] = {"offset": offset, "shape": list(arr.shape)}
        blob.write(arr.tobytes())
        offset += arr.size
    manifest = {
        "format": "CKPT1",
        "config": asdict(state.config),
        "step": state.step,
        "params": index,
    }
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        fh.write(blob.getvalue())


def load_checkpoint(path) -> EncoderState:
    """Read a `save_checkpoint` file. A file that is not CKPT1, whose header,
    manifest or parameter index is malformed, or whose parameters are not all
    finite or not the names and shapes its config builds, raises `ParseError`
    naming the file and, where one is at fault, the manifest key."""
    header = len(CHECKPOINT_MAGIC) + 4
    with open(path, "rb") as fh:
        head = fh.read(header)
        if len(head) < header:
            raise ParseError(f"{path}: {len(head)} bytes, shorter than the "
                             f"{header}-byte CKPT1 header")
        if not head.startswith(CHECKPOINT_MAGIC):
            raise ParseError(f"{path}: not a CKPT1 checkpoint")
        (mlen,) = struct.unpack("<I", head[len(CHECKPOINT_MAGIC):])
        payload = fh.read(mlen)
        blob = fh.read()
    manifest = parse_json_object(path, payload, "manifest", None,
                                 (("config", dict), ("step", int), ("params", dict)))
    fields = dict(manifest["config"])
    fields.pop("scale", None)  # written by older versions, unused
    actors = fields.pop("actors", NUM_ACTORS)  # written by older versions, always 2
    if actors != NUM_ACTORS:
        raise ParseError(f"{path}: manifest 'config.actors' is {actors!r}, the data "
                         f"holds {NUM_ACTORS} actors")
    try:
        config = EncoderConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: manifest 'config': {exc}") from None
    index = manifest["params"]
    sizes = {name: _param_size(path, name, meta) for name, meta in index.items()}
    if len(blob) != 4 * sum(sizes.values()):
        raise ParseError(f"{path}: parameter blob has {len(blob)} bytes, "
                         f"manifest needs {4 * sum(sizes.values())}")
    flat = np.frombuffer(blob, dtype="<f4")
    params, end = {}, 0
    for name in sorted(index, key=lambda k: index[k]["offset"]):   # must tile the blob
        offset = index[name]["offset"]
        if offset != end:
            raise ParseError(f"{path}: manifest 'params.{name}.offset' is {offset}, "
                             f"the parameters before it end at {end}")
        end += sizes[name]
        # a copy: a view of the read-only buffer could not be trained on resume
        params[name] = flat[offset:end].reshape(index[name]["shape"]).astype(np.float32)
        if not np.isfinite(params[name]).all():
            raise ParseError(f"{path}: 'params.{name}' holds NaN or infinite values")
    wanted = _param_shapes(config)
    for name in sorted(wanted.keys() | params.keys()):
        got, want = params[name].shape if name in params else "missing", wanted.get(name, "none")
        if got != want:
            raise ParseError(f"{path}: manifest 'params.{name}': shape {got}, the config's "
                             f"{config.representation} encoder wants {want}")
    return EncoderState(config=config, params=params, step=manifest["step"])


def _param_size(path, name, meta) -> int:
    """Element count of one parameter index entry, after checking that it is
    ``{"offset": int >= 0, "shape": [int >= 0, ...]}``."""
    def count(value):
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    if not isinstance(meta, dict) or not count(meta.get("offset")):
        raise ParseError(f"{path}: manifest 'params.{name}' needs a non-negative integer offset")
    shape = meta.get("shape")
    if not isinstance(shape, list) or not all(count(d) for d in shape):
        raise ParseError(f"{path}: manifest 'params.{name}.shape' is not a list of "
                         "non-negative integers")
    return math.prod(shape)
