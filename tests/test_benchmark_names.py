"""The benchmark's traced run wraps skelcon functions by name; a rename that
the tracer no longer finds must fail here rather than silently zero a
per-layer metric."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from skelcon import encoders
from skelcon.data import chain_tree_bones
from skelcon.represent import graph_adjacency

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("benchmark_tracer", _PATH)
tracer_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer_module)

# Every test here runs at one and two sample blocks per conv op.
pytestmark = pytest.mark.usefixtures("conv_workers")

SHAPES = {"IMG": (2, 3, 6, 10), "SEQ": (2, 6, 30), "STG": (2, 3, 6, 10)}
BACKWARD_OPS = {"IMG": "nn.conv2d_backward", "SEQ": "nn.gru_backward",
                "STG": "nn.graph_conv_backward"}


def test_every_traced_name_exists_and_the_encoder_tape_calls_through_nn():
    tracer = tracer_module.Tracer().install()
    try:
        assert tracer.missing == []
        a_hat = graph_adjacency(chain_tree_bones(5), 5, np.float32)
        for rep, shape in SHAPES.items():
            config = encoders.desk_config(rep, 5, hidden=4, projection_dim=8)
            params = encoders.init_encoder(config, seed=0).params
            x = np.random.default_rng(0).normal(size=shape).astype(np.float32)
            z, cache = encoders.embed_forward(config, params, x, a_hat, True)
            encoders.embed_backward(config, params, cache, np.ones_like(z))
            names = {span[1] for span in tracer.spans}
            assert BACKWARD_OPS[rep] in names, rep
    finally:
        tracer.uninstall()
    assert not hasattr(encoders.embed_forward, "__wrapped__")


def _conv_macs(n, c, f, h, w, kt):
    return n * f * h * w * c * kt          # stride 1, same padding


def _graph_macs(n, t, v, j, c, c_out):
    return n * t * v * j * c + n * t * v * c * c_out


def test_traced_mac_counters_match_the_encoder_shapes():
    """The ``.gmac`` metrics read the conv, graph-conv and GRU caches by
    position; a reshuffled cache must fail here instead of skewing the
    counters."""
    hidden, kt, joints = 4, 5, 5
    a_hat = graph_adjacency(chain_tree_bones(joints), joints, np.float32)
    n, c, t, v = SHAPES["IMG"]
    img_conv = (_conv_macs(n, c, hidden, t, v, 1)                 # conv_in
                + _conv_macs(n, hidden, hidden, t, v, kt)         # tconv0
                + _conv_macs(n, v, 2 * hidden, t, hidden, 1))     # cooc
    n, c, t, v = SHAPES["STG"]
    stg_conv = _conv_macs(n, hidden, hidden, t, v, kt)            # block0.tc
    stg_graph = _graph_macs(n, t, v, joints, c, hidden)           # block0.gc
    n, t, d = SHAPES["SEQ"]
    seq_gru = 2 * n * t * (d + hidden) * 3 * hidden               # gru0.fwd, gru0.bwd
    expected = {
        "SEQ": {"gru_forward": seq_gru, "gru_backward": 2 * seq_gru},
        "IMG": {"conv2d_forward": img_conv, "conv2d_backward": 2 * img_conv},
        "STG": {"conv2d_forward": stg_conv, "conv2d_backward": 2 * stg_conv,
                "graph_conv_forward": stg_graph, "graph_conv_backward": 2 * stg_graph},
    }
    tracer = tracer_module.Tracer().install()
    try:
        for rep, ops in expected.items():
            tracer.counters.clear()
            config = encoders.desk_config(rep, joints, hidden=hidden, projection_dim=8)
            assert config.temporal_kernel == kt and config.depth == 1
            params = encoders.init_encoder(config, seed=0).params
            x = np.random.default_rng(0).normal(size=SHAPES[rep]).astype(np.float32)
            z, cache = encoders.embed_forward(config, params, x, a_hat, True)
            encoders.embed_backward(config, params, cache, np.ones_like(z))
            for op in ("conv2d_forward", "conv2d_backward", "graph_conv_forward",
                       "graph_conv_backward", "gru_forward", "gru_backward"):
                assert tracer.counters[("setup", f"nn.{op}.macs")] == ops.get(op, 0), (rep, op)
    finally:
        tracer.uninstall()


def test_traced_gru_macs_count_both_packed_directions_of_every_layer():
    """A bidirectional layer is one `gru_forward` with a (H, 6H) `u`; the
    second layer reads D = 2H.  The counters must still sum both directions
    of every layer."""
    hidden, depth = 4, 2
    n, t, d = SHAPES["SEQ"]
    per_layer = [2 * n * t * (d_l + hidden) * 3 * hidden for d_l in (d, 2 * hidden)]
    config = encoders.desk_config("SEQ", 5, hidden=hidden, depth=depth, projection_dim=8)
    params = encoders.init_encoder(config, seed=0).params
    x = np.random.default_rng(0).normal(size=SHAPES["SEQ"]).astype(np.float32)
    tracer = tracer_module.Tracer().install()
    try:
        z, cache = encoders.embed_forward(config, params, x, None, True)
        encoders.embed_backward(config, params, cache, np.ones_like(z))
        assert tracer.counters[("setup", "nn.gru_forward.macs")] == sum(per_layer)
        assert tracer.counters[("setup", "nn.gru_backward.macs")] == 2 * sum(per_layer)
        for op in ("nn.gru_forward", "nn.gru_backward"):
            assert sum(span[1] == op for span in tracer.spans) == depth, op
    finally:
        tracer.uninstall()
