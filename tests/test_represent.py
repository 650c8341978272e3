"""Round-trips and adjacency algebra for the three input representations."""

import numpy as np
import pytest

from skelcon.data import HUMAN25_BONES, SkeletonSequence, chain_tree_bones
from skelcon.represent import (
    REPRESENTATIONS,
    batch_views,
    bone_adjacency,
    graph_adjacency,
    image_to_coords,
    normalized_adjacency,
    sequence_to_coords,
    to_image,
    to_sequence,
)


def _seq(t=6, j=5, seed=0):
    coords = np.random.default_rng(seed).normal(size=(t, 2, j, 3))
    coords[:, 1] = 0.0
    return SkeletonSequence(coords, "s")


def test_representation_names():
    assert REPRESENTATIONS == ("IMG", "SEQ", "STG")


def test_image_view_shape_and_round_trip():
    seq = _seq()
    img = to_image(seq)
    assert img.shape == (3, 6, 10)          # (channels, T, M*J)
    back = image_to_coords(img)
    assert np.array_equal(back, seq.coords)


def test_sequence_view_shape_and_round_trip():
    seq = _seq()
    flat = to_sequence(seq)
    assert flat.shape == (6, 30)            # (T, M*J*3)
    back = sequence_to_coords(flat, joints=5)
    assert np.array_equal(back, seq.coords)


def test_graph_rejects_inconsistent_bones():
    with pytest.raises(ValueError):
        graph_adjacency(chain_tree_bones(5)[:-1], 5)        # too few edges
    with pytest.raises(ValueError):
        graph_adjacency(((0, 1), (1, 2), (2, 3), (3, 7)), 5)  # joint out of range


def test_bone_adjacency_structure():
    bones = chain_tree_bones(5)
    a = bone_adjacency(bones, 5)
    assert a.shape == (5, 5)
    assert np.array_equal(a, a.T)
    assert np.array_equal(np.diag(a), np.ones(5))
    for i, j in bones:
        assert a[i, j] == 1.0 and a[j, i] == 1.0
    assert a.sum() == 5 + 2 * len(bones)


def test_human25_adjacency_has_24_edges():
    a = bone_adjacency(HUMAN25_BONES, 25)
    assert a.sum() == 25 + 2 * 24


def test_normalized_adjacency_matches_oracle():
    a = bone_adjacency(chain_tree_bones(6), 6)
    a_hat = normalized_adjacency(a)
    degree = a.sum(axis=1)
    oracle = a / np.sqrt(np.outer(degree, degree))
    assert np.allclose(a_hat, oracle, atol=1e-12)
    assert np.array_equal(a_hat, a_hat.T)
    eigenvalues = np.linalg.eigvalsh(a_hat)
    assert np.all(eigenvalues <= 1.0 + 1e-10)


def test_batch_views_shapes():
    seqs = [_seq(seed=i) for i in range(3)]
    assert batch_views(seqs, "IMG").shape == (3, 3, 6, 10)
    assert batch_views(seqs, "SEQ").shape == (3, 6, 30)
    assert batch_views(seqs, "STG").shape == (3, 3, 6, 10)
    with pytest.raises(ValueError):
        batch_views(seqs, "VID")


def test_batch_views_match_single_views():
    seqs = [_seq(seed=i) for i in range(2)]
    imgs = batch_views(seqs, "IMG")
    for i, s in enumerate(seqs):
        assert np.array_equal(imgs[i], to_image(s))
    stg = batch_views(seqs, "STG")
    assert stg.flags.c_contiguous
    assert stg.dtype == imgs.dtype and stg.tobytes() == imgs.tobytes()
