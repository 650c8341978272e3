"""Encoder families: shapes, determinism, projection norms, checkpoints."""

import dataclasses
import json
import math
import re
import struct
import weakref

import numpy as np
import pytest

from skelcon import nn
from skelcon.data import chain_tree_bones, generate_synthetic
from skelcon.encoders import (
    CHECKPOINT_MAGIC,
    EncoderConfig,
    desk_config,
    embed_backward,
    embed_forward,
    encoder_forward,
    init_encoder,
    load_checkpoint,
    save_checkpoint,
)
from skelcon.errors import DegenerateEmbeddingError, ParseError
from skelcon.represent import batch_views

JOINTS = 5
BONES = chain_tree_bones(JOINTS)


def _sequences(n=3, t=8, seed=0):
    ds = generate_synthetic(2, (n + 1) // 2, t, JOINTS, seed=seed)
    return [s.sequence for s in ds.samples[:n]]


def _batch(rep, n=3):
    return batch_views(_sequences(n), rep)


@pytest.mark.parametrize("rep", ["IMG", "SEQ", "STG"])
def test_init_is_deterministic(rep):
    config = desk_config(rep, JOINTS, hidden=8)
    a = init_encoder(config, seed=7)
    b = init_encoder(config, seed=7)
    c = init_encoder(config, seed=8)
    assert a.params.keys() == b.params.keys()
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


@pytest.mark.parametrize("rep", ["IMG", "SEQ", "STG"])
def test_desk_encoders_stay_small(rep):
    state = init_encoder(desk_config(rep, 25, hidden=32), seed=0)
    assert sum(p.size for p in state.params.values()) < 100_000


def test_seq_feature_dim_must_be_twice_hidden():
    with pytest.raises(ValueError):
        EncoderConfig("SEQ", JOINTS, hidden=8, feature_dim=99)


@pytest.mark.parametrize("field,value", [
    ("depth", 0), ("hidden", 0), ("joints", 1), ("feature_dim", 1),
    ("temporal_kernel", -1),
])
def test_encoder_config_rejects_out_of_range_fields_by_name(field, value):
    """The message opens with the field, so the config maps it to its key."""
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        EncoderConfig(**{"representation": "IMG", "joints": JOINTS, field: value})


def test_forward_only_pass_frees_each_layer_cache_as_it_goes(monkeypatch):
    """Without want_cache no tape holds a layer's cache: when the second
    bidirectional layer starts, the first layer's packed GRU cache is gone.
    Each layer makes one `gru_forward` call for both directions."""
    config = desk_config("SEQ", JOINTS, hidden=4, depth=2)
    params = init_encoder(config, seed=0).params
    x = _batch("SEQ").astype(np.float32)
    gru_forward, gates, alive = nn.gru_forward, [], []

    def recording(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in gates))
        out = gru_forward(*args, **kwargs)
        gates.append(weakref.ref(out[2][3]))     # the cache's (T, 2, N, 2H) [z | r] gates
        return out

    monkeypatch.setattr(nn, "gru_forward", recording)
    kept, _ = encoder_forward(config, params, x, want_cache=True)
    assert alive == [0, 1]
    gates.clear()
    alive.clear()
    feats, cache = encoder_forward(config, params, x)
    assert cache is None and alive == [0, 0]
    assert feats.tobytes() == kept.tobytes()


@pytest.mark.parametrize("rep", ["IMG", "SEQ", "STG"])
def test_forward_shapes_and_embedding_norms(rep):
    config = desk_config(rep, JOINTS, hidden=8, projection_dim=16)
    state = init_encoder(config, seed=1)
    x = _batch(rep).astype(np.float32)
    feats, _ = encoder_forward(config, state.params, x, BONES)
    assert feats.shape == (3, config.feature_dim)
    z, _ = embed_forward(config, state.params, x, BONES)
    assert z.shape == (3, 16)
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-6)


@pytest.mark.parametrize("bones", [None, BONES[:-1], BONES[:-1] + ((0, JOINTS),),
                                   BONES[:-1] + ((0, 1),)],
                         ids=["none", "too-few", "out-of-range", "repeated-edge"])
def test_stg_forward_needs_a_bone_tree_over_the_config_joints(bones):
    """STG builds its adjacency from the bone list on every forward pass;
    no list, or one that is not a tree over `config.joints`, is refused."""
    config = desk_config("STG", JOINTS, hidden=8, projection_dim=16)
    state = init_encoder(config, seed=1)
    x = _batch("STG").astype(np.float32)
    with pytest.raises(ValueError, match="bone|tree"):
        encoder_forward(config, state.params, x, bones)
    with pytest.raises(ValueError, match="bone|tree"):
        embed_forward(config, state.params, x, bones)


def test_degenerate_embedding_raises():
    config = desk_config("SEQ", JOINTS, hidden=8)
    state = init_encoder(config, seed=4)
    state.params["head.w2"][:] = 0.0
    state.params["head.b2"][:] = 0.0
    x = _batch("SEQ").astype(np.float32)
    with pytest.raises(DegenerateEmbeddingError):
        embed_forward(config, state.params, x)


@pytest.mark.usefixtures("conv_workers")
@pytest.mark.parametrize("rep, pooling, depth",
                         [("IMG", "final", 1), ("SEQ", "final", 1), ("STG", "final", 1),
                          ("SEQ", "mean", 1), ("SEQ", "final", 2)],
                         ids=["IMG", "SEQ", "STG", "SEQ-mean", "SEQ-depth2"])
def test_embedding_gradients(fd_check, rep, pooling, depth):
    """End-to-end backbone+head gradient against central differences, for
    every parameter; at depth 2 only the last SEQ layer yields final states.

    The check runs at a generic parameter point: biases are nudged off
    zero first, because zero-initialized biases place ReLU pre-activations
    exactly at the kink (zero-padded actors and fully-clipped columns both
    produce exact zeros), where the loss is legitimately one-sided in the
    biases and finite differences measure the two-sided average."""
    rng = np.random.default_rng(10)
    config = dataclasses.replace(desk_config(rep, JOINTS, hidden=4, depth=depth,
                                             projection_dim=6), seq_pooling=pooling)
    state = init_encoder(config, seed=5, dtype=np.float64)
    for name, value in state.params.items():
        if ".b" in name:
            value += rng.normal(scale=0.05, size=value.shape)
    from skelcon.data import SkeletonSequence
    seqs = [SkeletonSequence(rng.normal(size=(8, 2, JOINTS, 3)), f"fd-{i}")
            for i in range(2)]
    x = batch_views(seqs, rep)

    z, cache = embed_forward(config, state.params, x, BONES, want_cache=True)
    probe = rng.normal(size=z.shape)

    def loss():
        out, _ = embed_forward(config, state.params, x, BONES)
        return float(np.sum(out * probe))

    grads = embed_backward(config, state.params, cache, probe)
    assert set(grads) == set(state.params)
    fd_check(loss, state.params, grads, rng, samples_per_array=3)


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    config = desk_config("STG", JOINTS, hidden=8)
    state = init_encoder(config, seed=9)
    state.step = 123
    path = tmp_path / "enc.ckpt"
    save_checkpoint(state, path)
    assert path.read_bytes().startswith(CHECKPOINT_MAGIC)
    back = load_checkpoint(path)
    assert back.config == config
    assert back.step == 123
    assert sorted(back.params) == sorted(state.params)
    for name in state.params:
        assert back.params[name].dtype == state.params[name].dtype
        assert np.array_equal(back.params[name], state.params[name])


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTCKPT" + b"\x00" * 64)
    with pytest.raises(Exception) as err:
        load_checkpoint(path)
    assert "CKPT1" in str(err.value) or "magic" in str(err.value).lower()


def test_checkpoint_rejects_a_truncated_blob(tmp_path):
    path = tmp_path / "enc.ckpt"
    save_checkpoint(init_encoder(desk_config("SEQ", JOINTS, hidden=4), seed=0), path)
    path.write_bytes(path.read_bytes()[:-6])
    with pytest.raises(ParseError, match="enc.ckpt"):
        load_checkpoint(path)


def _checkpoint_parts(path):
    """The JSON manifest and the parameter blob of a CKPT1 file."""
    raw = path.read_bytes()
    start = len(CHECKPOINT_MAGIC)
    (mlen,) = struct.unpack("<I", raw[start:start + 4])
    return json.loads(raw[start + 4:start + 4 + mlen]), raw[start + 4 + mlen:]


def _write_checkpoint_parts(path, manifest, blob):
    payload = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(payload)) + payload + blob)


def _write_checkpoint_with(path, edit, state=None):
    """Save `state` (by default a small STG encoder), then rewrite its
    manifest through `edit` (which returns the new manifest) and keep the
    parameter blob."""
    save_checkpoint(state or init_encoder(desk_config("STG", JOINTS, hidden=4), seed=0), path)
    manifest, blob = _checkpoint_parts(path)
    _write_checkpoint_parts(path, edit(manifest), blob)


def test_checkpoint_cut_inside_its_header_is_a_parse_error(tmp_path):
    path = tmp_path / "enc.ckpt"
    save_checkpoint(init_encoder(desk_config("SEQ", JOINTS, hidden=4), seed=0), path)
    path.write_bytes(path.read_bytes()[:len(CHECKPOINT_MAGIC) + 2])
    with pytest.raises(ParseError, match="enc.ckpt.*header"):
        load_checkpoint(path)


@pytest.mark.parametrize("manifest", [[1, 2], "CKPT1", 7])
def test_checkpoint_manifest_that_is_not_an_object_is_a_parse_error(tmp_path, manifest):
    path = tmp_path / "enc.ckpt"
    _write_checkpoint_with(path, lambda _: manifest)
    with pytest.raises(ParseError, match="enc.ckpt.*not an object"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["config", "step", "params"])
def test_checkpoint_manifest_missing_a_key_is_a_parse_error(tmp_path, key):
    path = tmp_path / "enc.ckpt"
    _write_checkpoint_with(path, lambda m: {k: v for k, v in m.items() if k != key})
    with pytest.raises(ParseError, match=f"enc.ckpt.*'{key}'"):
        load_checkpoint(path)


def _shift_first_offset(manifest):
    first = min(manifest["params"], key=lambda k: manifest["params"][k]["offset"])
    manifest["params"][first]["offset"] += 1
    return manifest


def _swap_two_shapes(manifest):
    a, b = sorted(manifest["params"], key=lambda k: manifest["params"][k]["offset"])[:2]
    params = manifest["params"]
    params[a]["shape"], params[b]["shape"] = params[b]["shape"], params[a]["shape"]
    return manifest


def _float_shape(manifest):
    name = sorted(manifest["params"])[0]
    manifest["params"][name]["shape"] = [1.5]
    return manifest


@pytest.mark.parametrize("edit, key", [
    (_shift_first_offset, r"params\..*\.offset"),    # a gap, same blob length
    (_swap_two_shapes, r"params\..*\.shape"),        # offsets match the config, shapes do not
    (_float_shape, r"params\..*\.shape"),
], ids=["shifted-offset", "swapped-shapes", "float-shape"])
def test_checkpoint_params_that_do_not_tile_the_blob_are_a_parse_error(tmp_path, edit, key):
    path = tmp_path / "enc.ckpt"
    _write_checkpoint_with(path, edit)
    with pytest.raises(ParseError, match=f"enc.ckpt.*{key}"):
        load_checkpoint(path)


def _index_entry_edits(entry):
    """(label, edited entry) for each edit of one CKPT1 index entry that a
    reader must refuse: the offset one off either way, and the offset or one
    shape entry as `true`, as the same number written as a float, or as a
    string. A shape entry of 1 as `true`, or any entry as a float, compares
    equal in Python, so only a type-exact reader refuses it."""
    yield "offset+1", {**entry, "offset": entry["offset"] + 1}
    yield "offset-1", {**entry, "offset": entry["offset"] - 1}
    for label, bad in (("true", lambda v: True), ("float", float), ("string", str)):
        yield f"offset={label}", {**entry, "offset": bad(entry["offset"])}
        for i in range(len(entry["shape"])):
            shape = list(entry["shape"])
            shape[i] = bad(shape[i])
            yield f"shape[{i}]={label}", {**entry, "shape": shape}


def test_every_edit_of_every_checkpoint_index_entry_is_a_parse_error(tmp_path):
    """Each entry of a tiny SEQ checkpoint's index (hidden 1, so the GRU's
    `u` has a shape entry of 1) edited as `_index_entry_edits` lists, dropped
    together with its bytes (so the rest still tiles the blob), or joined by
    an empty extra entry at its offset, raises `ParseError` naming the file
    and that entry."""
    path = tmp_path / "enc.ckpt"
    save_checkpoint(init_encoder(desk_config("SEQ", JOINTS, hidden=1, projection_dim=2),
                                 seed=0), path)
    manifest, blob = _checkpoint_parts(path)
    index = manifest["params"]
    cases = []
    for name, entry in index.items():
        cases += [(name, label, {**index, name: edited}, blob)
                  for label, edited in _index_entry_edits(entry)]
        size, start = math.prod(entry["shape"]), entry["offset"]
        rest = {other: {**e, "offset": e["offset"] - size * (e["offset"] > start)}
                for other, e in index.items() if other != name}
        cases.append((name, "dropped", rest, blob[:4 * start] + blob[4 * (start + size):]))
        cases.append((f"{name}.extra", "extra",
                      {**index, f"{name}.extra": {"offset": start, "shape": [0]}}, blob))
    assert len(cases) > 100
    for name, label, params, data in cases:
        _write_checkpoint_parts(path, {**manifest, "params": params}, data)
        with pytest.raises(ParseError) as caught:
            load_checkpoint(path)
        message = str(caught.value)
        assert str(path) in message, (name, label, message)
        assert re.search(rf"'params\.{re.escape(name)}(\.(offset|shape))?'", message), \
            (name, label, message)


@pytest.mark.parametrize("edit, key", [
    (lambda params: params.pop("head.w1"), "head.w1"),
    (lambda params: params.update({"gru0.fwd.u": params["gru0.fwd.u"].T.copy()}), "gru0.fwd.u"),
    (lambda params: params.update({"gru0.extra": np.zeros(3, np.float32)}), "gru0.extra"),
], ids=["missing", "wrong-shape", "extra"])
def test_checkpoint_params_that_do_not_match_the_config_are_a_parse_error(tmp_path, edit, key):
    state = init_encoder(desk_config("SEQ", JOINTS, hidden=4), seed=0)
    edit(state.params)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(state, path)
    with pytest.raises(ParseError, match=rf"enc.ckpt.*'params\.{key}'"):
        load_checkpoint(path)


def test_checkpoint_write_that_fails_midway_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "enc.ckpt"
    save_checkpoint(init_encoder(desk_config("SEQ", JOINTS, hidden=4), seed=0), path)
    before = path.read_bytes()

    def fail(*args, **kwargs):   # the length word follows the magic
        raise OSError("disk full")

    monkeypatch.setattr(struct, "pack", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(init_encoder(desk_config("SEQ", JOINTS, hidden=4), seed=1), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["enc.ckpt"]


def test_checkpoint_loads_the_older_scale_key(tmp_path):
    state = init_encoder(desk_config("SEQ", JOINTS, hidden=4), seed=0)
    path = tmp_path / "enc.ckpt"
    _write_checkpoint_with(path, lambda m: {**m, "config": {**m["config"], "scale": "desk"}},
                           state)
    back = load_checkpoint(path)
    assert back.config == state.config
    assert all(np.array_equal(back.params[k], v) for k, v in state.params.items())


@pytest.mark.parametrize("actors", [2, 1])
def test_checkpoint_loads_the_older_actors_key_only_at_two_actors(tmp_path, actors):
    state = init_encoder(desk_config("STG", JOINTS, hidden=4), seed=0)
    path = tmp_path / "enc.ckpt"
    _write_checkpoint_with(path, lambda m: {**m, "config": {**m["config"], "actors": actors}},
                           state)
    if actors != 2:
        with pytest.raises(ParseError, match="enc.ckpt.*'config.actors' is 1"):
            load_checkpoint(path)
        return
    back = load_checkpoint(path)
    assert back.config == state.config and back.step == state.step
    assert {k: v.tobytes() for k, v in back.params.items()} == \
        {k: v.tobytes() for k, v in state.params.items()}


def test_forward_rejects_wrong_rank():
    config = desk_config("SEQ", JOINTS, hidden=8)
    state = init_encoder(config, seed=0)
    with pytest.raises(ValueError):
        encoder_forward(config, state.params, np.zeros((4, 4), dtype=np.float32))

