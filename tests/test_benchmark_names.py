"""The benchmark's traced run wraps skelcon functions by name; a rename that
the tracer no longer finds must fail here rather than silently zero a
per-layer metric."""

import importlib.util
from pathlib import Path

import numpy as np

from skelcon import encoders
from skelcon.data import chain_tree_bones
from skelcon.represent import graph_adjacency

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("benchmark_tracer", _PATH)
tracer_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer_module)

SHAPES = {"IMG": (2, 3, 6, 10), "SEQ": (2, 6, 30), "STG": (2, 6, 10, 3)}
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
