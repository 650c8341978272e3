"""The conv and graph-conv ops split their sample axis over `nn.conv_workers()`
threads; the worker count must never change a byte."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skelcon import encoders, nn
from skelcon.data import chain_tree_bones

ONE_CPU, FOUR_CPUS = {0}, {0, 1, 2, 3}


@pytest.mark.parametrize("cpus, env, want", [
    (FOUR_CPUS, {}, 1),                                             # BLAS uses every core
    (FOUR_CPUS, {"OPENBLAS_NUM_THREADS": "1"}, 4),
    (FOUR_CPUS, {"OPENBLAS_NUM_THREADS": "2"}, 2),
    (FOUR_CPUS, {"OPENBLAS_NUM_THREADS": "3"}, 1),
    (FOUR_CPUS, {"OPENBLAS_NUM_THREADS": "8"}, 1),
    (ONE_CPU, {"OPENBLAS_NUM_THREADS": "1"}, 1),
    (FOUR_CPUS, {"GOTO_NUM_THREADS": "2"}, 2),
    (FOUR_CPUS, {"OMP_NUM_THREADS": "1"}, 4),
    (FOUR_CPUS, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),  # first wins
    (FOUR_CPUS, {"OPENBLAS_NUM_THREADS": "0"}, 1),
    (FOUR_CPUS, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
    (FOUR_CPUS, {"OPENBLAS_NUM_THREADS": "two"}, 1),
    (FOUR_CPUS, {"OPENBLAS_NUM_THREADS": "1.5", "GOTO_NUM_THREADS": "1"}, 4),
])
def test_conv_workers_divides_the_usable_cpus_by_the_blas_threads(monkeypatch, cpus, env, want):
    for var in nn.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    assert nn.usable_cpus() == len(cpus)
    assert nn.conv_workers() == want


def test_conv_workers_counts_all_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert nn.conv_workers() == 3


def test_blas_core_is_none_where_the_blas_has_no_corename_symbol(monkeypatch):
    import ctypes
    assert nn.blas_core() is None or isinstance(nn.blas_core(), str)
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    assert nn.blas_core() is None


def _encoder_ops(rep, n, dtype):
    """(forward, backward, args, kwargs) of every conv and graph-conv call
    that the encoder runs on a batch of n at the benchmark's sizes (25
    joints, crop 32, hidden 32; STG two blocks deep, so its graph conv runs
    at 3 and 32 input channels)."""
    calls = []
    ops = {"conv2d_forward": nn.conv2d_backward, "graph_conv_forward": nn.graph_conv_backward}
    with pytest.MonkeyPatch.context() as mp:
        for name, backward in ops.items():
            def record(*args, _forward=getattr(nn, name), _backward=backward, **kwargs):
                calls.append((_forward, _backward, args, kwargs))
                return _forward(*args, **kwargs)
            mp.setattr(nn, name, record)
        rng = np.random.default_rng(17)
        config = encoders.desk_config(rep, 25, hidden=32, depth=2 if rep == "STG" else 1)
        params = {k: (v + rng.normal(scale=0.1, size=v.shape)).astype(dtype)
                  for k, v in encoders.init_encoder(config, seed=0).params.items()}
        x = rng.normal(size=(n, 3, 32, 50)).astype(dtype)
        encoders.encoder_forward(config, params, x, chain_tree_bones(25))
    return calls


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 3, 16])
@pytest.mark.parametrize("rep", ["IMG", "STG"])
def test_every_encoder_op_gives_the_same_bytes_at_one_two_and_three_workers(
        with_workers, rep, n, dtype):
    calls = _encoder_ops(rep, n, dtype)
    assert len(calls) == (3 if rep == "IMG" else 4)
    for forward, backward, args, kwargs in calls:
        assert kwargs["relu"] is True              # every encoder conv is followed by a ReLU
        outputs = []
        for workers in (1, 2, 3):
            with with_workers(workers):
                y, cache = forward(*args, **kwargs)
                grads = backward(np.cos(y), cache, relu_out=y)
            outputs.append([(a.dtype.str, a.shape, a.tobytes()) for a in (y, *grads)])
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0], forward.__name__


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, axes", [((16, 32, 32, 50), (0, 3, 2, 1)),
                                         ((3, 4, 5, 6), (0, 2, 3, 1)),
                                         ((1, 2, 3), (0, 2, 1))])
def test_transpose_copy_gives_the_contiguous_transpose_at_one_two_and_three_workers(
        with_workers, shape, axes, dtype):
    x = np.random.default_rng(5).normal(size=shape).astype(dtype)
    want = np.ascontiguousarray(x.transpose(axes))
    for workers in (1, 2, 3):
        with with_workers(workers):
            got = nn.transpose_copy(x, axes)
        assert got.flags.c_contiguous
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    with pytest.raises(ValueError, match="sample axis first"):
        nn.transpose_copy(x, axes[::-1])


def test_a_seq_encoder_makes_no_pool(monkeypatch):
    monkeypatch.setattr(nn, "_pool", None)
    config = encoders.desk_config("SEQ", 5, hidden=4, projection_dim=8)
    params = encoders.init_encoder(config, seed=0).params
    x = np.random.default_rng(0).normal(size=(3, 6, 30)).astype(np.float32)
    z, cache = encoders.embed_forward(config, params, x, None, True)
    encoders.embed_backward(config, params, cache, np.ones_like(z))
    assert nn._pool is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_drops_the_pool_of_its_parent(with_workers):
    """The child has none of the parent's pool threads: a conv there must
    make its own pool instead of waiting on them forever."""
    rng = np.random.default_rng(3)
    x, w, b = rng.normal(size=(4, 3, 8, 5)), rng.normal(size=(2, 3, 3, 1)), np.zeros(2)
    with with_workers(2):
        want, _ = nn.conv2d_forward(x, w, b, (1, 0))
        pid = os.fork()
        if pid == 0:                                    # the child never returns
            try:
                signal.alarm(60)                        # a hung child ends itself
                fresh = nn._pool is None
                got, _ = nn.conv2d_forward(x, w, b, (1, 0))
                os._exit(0 if fresh and got.tobytes() == want.tobytes() else 1)
            finally:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


# The inter3 config at which the conv ops run at the benchmark's shapes
# (25 joints, crop 32, hidden 32) and still finish in about a second.
INTER3 = ["dataset.num_classes=3", "dataset.samples_per_class=8", "dataset.frames=32",
          "augment.output_length=32", "trainer.mode=inter3",
          'trainer.representations=["IMG","SEQ","STG"]', "trainer.queue_size=64",
          "trainer.batch_size=8", "trainer.epochs=2", "trainer.checkpoint_every=1"]
_CLI = "import sys; from skelcon.cli import main; sys.exit(main(sys.argv[1:]))"


def _cli_in_subprocess(subcommand, out, extra=(), cpus=None):
    """`skelcon <subcommand> --out out` over the INTER3 config at one BLAS
    thread; returns the run's `environment` block."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    args = [subcommand, "--out", str(out), *(a for s in INTER3 for a in ("--set", s)), *extra]
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    done = subprocess.run([sys.executable, "-c", _CLI, *args], env=env,
                          preexec_fn=pin, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads((out / "run.json").read_text())["environment"]


def _pretrain_in_subprocess(out, cpus=None):
    return _cli_in_subprocess("pretrain", out, cpus=cpus)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_inter3_run_pinned_to_one_cpu_writes_the_bytes_of_an_unpinned_run(tmp_path):
    cpus = os.sched_getaffinity(0)
    pinned = _pretrain_in_subprocess(tmp_path / "pinned", {min(cpus)})
    free = _pretrain_in_subprocess(tmp_path / "free")
    assert pinned["conv_workers"] == 1 and free["conv_workers"] == len(cpus)
    names = sorted(p.name for p in (tmp_path / "pinned").iterdir()
                   if p.suffix in (".jsonl", ".ckpt", ".npz"))
    assert len(names) == 15        # the loss log, 2 epochs x (6 CKPT1 + 1 aux blob)
    assert sorted(p.name for p in (tmp_path / "free").iterdir()
                  if p.suffix in (".jsonl", ".ckpt", ".npz")) == names
    for name in names:
        assert (tmp_path / "pinned" / name).read_bytes() == \
            (tmp_path / "free" / name).read_bytes(), name
