"""Span tracer that wraps the public functions of the ``skelcon`` modules.

Nothing under ``src/`` is edited: the tracer replaces module attributes at
runtime and puts the originals back when it is uninstalled.  A function is
wrapped in every ``skelcon`` namespace that holds it (``contrast.embed_forward``
is the same object as ``encoders.embed_forward``), and methods are wrapped on
their class.  A table entry whose attribute no longer exists is recorded as
missing instead of raising, so the tracer keeps working while the API churns.

Every span records its name, start, end and parent span; all spans of one
run share the tracer's run id.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import uuid
from collections import defaultdict

import numpy as np

PACKAGE = "skelcon"
# Layers that are argument plumbing outside every hot path: never timed.
UNTIMED_LAYERS = {"config": "argument plumbing, outside every hot path",
                  "cli": "argument plumbing, outside every hot path"}


def _rep_of_config(name, args, kwargs):
    config = args[0] if args else kwargs.get("config")
    rep = getattr(config, "representation", None)
    return f"{name}.{rep}" if rep else name


def _size(x) -> int:
    return int(np.prod(np.shape(x)))


# Multiply-adds of the ops whose arithmetic dominates, from argument shapes.
def _linear_fwd_macs(args, kwargs):
    x, w = args[0], args[1]
    return _size(x) // w.shape[0] * w.shape[0] * w.shape[1]


def _linear_bwd_macs(args, kwargs):
    x, w = args[1]
    return 2 * (_size(x) // w.shape[0] * w.shape[0] * w.shape[1])


def _conv_macs(x_shape, w_shape, pad):
    n, _, h, wd = x_shape
    f, c, kh, kw = w_shape
    ho, wo = h + 2 * pad[0] - kh + 1, wd + 2 * pad[1] - kw + 1
    return n * ho * wo * f * c * kh * kw


def _conv2d_fwd_macs(args, kwargs):
    pad = args[3] if len(args) > 3 else kwargs.get("pad", (0, 0))
    return _conv_macs(args[0].shape, args[1].shape, pad)


def _conv2d_bwd_macs(args, kwargs):
    _, x_shape, w_shape, pad, _ = args[1]
    return 2 * _conv_macs(x_shape, w_shape, pad)


def _graph_conv_macs(x_shape, j, c_out):
    n, t, v, c = x_shape
    return n * t * v * j * c + n * t * v * c * c_out


def _graph_conv_fwd_macs(args, kwargs):
    x, a_hat, w = args[0], args[1], args[2]
    return _graph_conv_macs(x.shape, a_hat.shape[0], w.shape[1])


def _graph_conv_bwd_macs(args, kwargs):
    _, x_shape, a_hat, w, _ = args[1]
    return 2 * _graph_conv_macs(x_shape, a_hat.shape[0], w.shape[1])


def _gru_fwd_macs(args, kwargs):
    x, w, u = args[0], args[1], args[2]
    n, t, d = x.shape
    return n * t * (d + u.shape[0]) * u.shape[1]


def _gru_bwd_macs(args, kwargs):
    x, w, u = args[2][:3]
    return 2 * _gru_fwd_macs((x, w, u), {})


def _queue_rows(args, kwargs):
    negatives = args[2] if len(args) > 2 else kwargs["negatives"]
    return len(negatives)


def _pushed_rows(args, kwargs):
    return np.atleast_2d(args[1]).shape[0]


def _batch_len(args, kwargs):
    return len(args[1])


def _extracted(args, kwargs):
    samples = args[1] if len(args) > 1 else kwargs["samples"]
    return len(samples)


# (module, attribute) -> (namer, {counter: fn(args, kwargs)}).  A namer turns
# the base name into the span name; counters add to per-region totals.
SPAN_TABLE = {
    ("data", "generate_synthetic"): (None, {}),
    ("data", "make_split"): (None, {}),
    ("augment", "make_query_key_pair"): (None, {}),
    ("represent", "batch_views"): (None, {}),
    ("nn", "sigmoid"): (None, {}),
    ("nn", "linear_forward"): (None, {"nn.linear_forward.macs": _linear_fwd_macs}),
    ("nn", "linear_backward"): (None, {"nn.linear_backward.macs": _linear_bwd_macs}),
    ("nn", "relu_forward"): (None, {}),
    ("nn", "relu_backward"): (None, {}),
    ("nn", "mean_pool_forward"): (None, {}),
    ("nn", "mean_pool_backward"): (None, {}),
    ("nn", "conv2d_forward"): (None, {"nn.conv2d_forward.macs": _conv2d_fwd_macs}),
    ("nn", "conv2d_backward"): (None, {"nn.conv2d_backward.macs": _conv2d_bwd_macs}),
    ("nn", "gru_forward"): (None, {"nn.gru_forward.macs": _gru_fwd_macs}),
    ("nn", "gru_backward"): (None, {"nn.gru_backward.macs": _gru_bwd_macs}),
    ("nn", "graph_conv_forward"): (None, {"nn.graph_conv_forward.macs": _graph_conv_fwd_macs}),
    ("nn", "graph_conv_backward"): (None, {"nn.graph_conv_backward.macs": _graph_conv_bwd_macs}),
    ("encoders", "init_encoder"): (None, {}),
    ("encoders", "encoder_forward"): (_rep_of_config, {}),
    ("encoders", "encoder_backward"): (None, {}),
    ("encoders", "head_forward"): (None, {}),
    ("encoders", "head_backward"): (None, {}),
    ("encoders", "embed_forward"): (_rep_of_config, {}),
    ("encoders", "embed_backward"): (_rep_of_config, {}),
    ("encoders", "save_checkpoint"): (None, {}),
    ("encoders", "load_checkpoint"): (None, {}),
    ("contrast", "NegativeQueue.negatives"): (None, {}),
    ("contrast", "NegativeQueue.push"): (None, {"contrast.rows_pushed": _pushed_rows}),
    ("contrast", "info_nce"): (None, {"contrast.queue_rows_scanned": _queue_rows}),
    ("contrast", "momentum_update"): (None, {}),
    ("contrast", "make_trainer"): (None, {}),
    ("contrast", "train_step"): (None, {"contrast.samples_trained": _batch_len}),
    ("contrast", "warmup_queues"): (None, {}),
    ("contrast", "pretrain"): (None, {}),
    ("contrast", "save_trainer"): (None, {}),
    ("contrast", "load_trainer"): (None, {}),
    ("downstream", "center_crop"): (None, {}),
    ("downstream", "extract_features"): (None, {"downstream.samples_extracted": _extracted}),
    ("downstream", "linear_probe"): (None, {}),
    ("downstream", "build_index"): (None, {}),
    ("downstream", "knn_retrieve"): (None, {}),
    ("downstream", "combined_probe"): (None, {}),
    ("downstream", "finetune"): (None, {}),
}

REPRESENTATIONS = ("IMG", "SEQ", "STG")


def span_names() -> list[str]:
    """Every span name the table can produce, in table order."""
    names = []
    for (module, attr), (namer, _) in SPAN_TABLE.items():
        base = f"{module}.{attr}"
        if namer is None:
            names.append(base)
        else:
            names.extend(f"{base}.{rep}" for rep in REPRESENTATIONS)
    return names


def _resolve(module, dotted: str):
    """(owner, leaf attribute) for ``attr`` or ``Class.attr``; None if absent."""
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


class Tracer:
    """Wraps the table's functions while installed and keeps spans in memory.

    ``region`` tags the counters; the benchmark sets it to ``setup`` or
    ``timed`` and opens its own root spans with ``span``.
    """

    def __init__(self, table=None):
        self.table = SPAN_TABLE if table is None else table
        self.run_id = uuid.uuid4().hex
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.counters: dict[tuple[str, str], int] = defaultdict(int)
        self.missing: list[str] = []
        self.region = "setup"
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        self.missing = []
        modules = {name[len(PACKAGE) + 1:]: mod
                   for name, mod in list(sys.modules.items())
                   if name.startswith(PACKAGE + ".") and mod is not None}
        namespaces = [sys.modules[PACKAGE], *modules.values()]
        for (module_name, attr), (namer, counters) in self.table.items():
            module = modules.get(module_name)
            found = _resolve(module, attr) if module is not None else None
            if found is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner, leaf = found
            original = owner.__dict__.get(leaf, getattr(owner, leaf))
            wrapper = self._wrap(original, f"{module_name}.{attr}", namer, counters)
            if owner is module:
                # every namespace that looks the same function up by name
                for other in namespaces:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapper)
            else:
                self._patch(owner, leaf, wrapper)
        return self

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, name: str, start: int, end: int, parent: int) -> None:
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent))

    def _wrap(self, fn, name, namer, counters):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(name, args, kwargs) if namer else name
            sid, parent = tracer._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, span_name, start, clock(), parent)
                for counter, count in counters.items():
                    tracer.counters[(tracer.region, counter)] += count(args, kwargs)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, name, start, time.perf_counter_ns(), parent)

    # -- analysis ----------------------------------------------------------

    def roots(self, root_name: str) -> dict[int, int]:
        """Span id -> id of its nearest ancestor named ``root_name`` (a root
        maps to itself), for every span that has one."""
        by_id = {s[0]: s for s in self.spans}
        memo: dict[int, int] = {}

        def root_of(sid: int) -> int:
            path, found = [], 0
            while sid:
                if sid in memo:
                    found = memo[sid]
                    break
                path.append(sid)
                if by_id[sid][1] == root_name:
                    found = sid
                    break
                sid = by_id[sid][4]
            for p in path:
                memo[p] = found
            return found

        return {s[0]: r for s in self.spans if (r := root_of(s[0]))}

    def under(self, root_name: str) -> list[tuple[int, str, int, int, int]]:
        """Spans under a span named ``root_name``, the roots included."""
        inside = self.roots(root_name)
        return [s for s in self.spans if s[0] in inside]

    def write(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        record = {
            "run_id": self.run_id,
            "clock": "perf_counter_ns",
            "missing": self.missing,
            "names": names,
            "fields": ["span_id", "name_index", "start_ns", "end_ns", "parent_id"],
            "spans": [[sid, index[name], start, end, parent]
                      for sid, name, start, end, parent in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))
            fh.write("\n")


def self_times(spans) -> dict[str, list[int]]:
    """Per span name: [self ns, calls].  A span's self time is its duration
    minus the part covered by its direct children."""
    child_ns: dict[int, int] = defaultdict(int)
    for _, _, start, end, parent in spans:
        if parent:
            child_ns[parent] += end - start
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for sid, name, start, end, _ in spans:
        entry = totals[name]
        entry[0] += end - start - child_ns[sid]
        entry[1] += 1
    return dict(totals)
