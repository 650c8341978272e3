"""The input packings of a skeleton sequence: pseudo-image and time series.

Both are pure re-indexings of the same (T, M, J, 3) coordinates, so each
view is invertible back to raw coordinates.  Actors are concatenated along
the joint axis for the image view and along the feature axis for the
sequence view.  The spatio-temporal graph encoder reads the image view too,
as (C, T, V) node features over two disjoint joint-tree copies, with the
per-actor adjacency of `graph_adjacency`.
"""

from __future__ import annotations

import numpy as np

from .data import NUM_ACTORS, SkeletonSequence

REPRESENTATIONS = ("IMG", "SEQ", "STG")


def bone_adjacency(bones, joints: int) -> np.ndarray:
    """Symmetric 0/1 adjacency with self-loops from a bone edge list."""
    a = np.eye(joints)
    for i, j in bones:
        if not (0 <= i < joints and 0 <= j < joints):
            raise ValueError(f"bone ({i}, {j}) out of range for J={joints}")
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    degree = adjacency.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degree)
    return adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]


def graph_adjacency(bones, joints: int, dtype=np.float64) -> np.ndarray:
    """The graph encoders' D^{-1/2} (A + I) D^{-1/2} in `dtype`, after
    checking that `bones` is a tree: joints - 1 in-range edges that connect
    all `joints` joints."""
    adjacency = bone_adjacency(bones, joints)
    reached = adjacency[0] > 0
    for _ in range(joints):
        reached = adjacency[reached].any(axis=0)
    if len(bones) != joints - 1 or not reached.all():
        raise ValueError(f"{len(bones)} bones do not form a tree over J={joints} joints")
    return normalized_adjacency(adjacency).astype(dtype)


def _image_view(coords: np.ndarray) -> np.ndarray:
    t, m, j, _ = coords.shape
    return coords.reshape(t, m * j, 3).transpose(2, 0, 1)


def to_image(seq: SkeletonSequence) -> np.ndarray:
    """(T, M, J, 3) -> (3, T, M*J): coordinate channels first."""
    return np.ascontiguousarray(_image_view(seq.coords))


def to_sequence(seq: SkeletonSequence) -> np.ndarray:
    """(T, M, J, 3) -> (T, M*J*3): row-major per-frame flattening."""
    t = seq.coords.shape[0]
    return seq.coords.reshape(t, -1).copy()


def image_to_coords(view: np.ndarray) -> np.ndarray:
    c, t, mj = view.shape
    return np.ascontiguousarray(
        view.transpose(1, 2, 0).reshape(t, NUM_ACTORS, mj // NUM_ACTORS, c))


def sequence_to_coords(view: np.ndarray, joints: int) -> np.ndarray:
    t = view.shape[0]
    return view.reshape(t, NUM_ACTORS, joints, 3).copy()


# ---------------------------------------------------------------------------
# batched conversion used by the training loops
# ---------------------------------------------------------------------------

def batch_views(seqs: list[SkeletonSequence], representation: str,
                dtype=None) -> np.ndarray:
    """Per-sample views written straight into one C-contiguous batch array
    of `dtype` (by default the first sequence's coordinate dtype).

    IMG and STG -> (N, 3, T, M*J);  SEQ -> (N, T, M*J*3).
    Graph encoders receive `graph_adjacency` separately; the bone tree is
    checked there, once, and not per batch.
    """
    if representation not in REPRESENTATIONS:
        raise ValueError(f"unknown representation {representation!r}")
    if not seqs:
        raise ValueError("batch_views needs at least one sequence")
    t, m, j, c = seqs[0].coords.shape
    dtype = seqs[0].coords.dtype if dtype is None else dtype
    if representation == "SEQ":
        out = np.empty((len(seqs), t, m * j * c), dtype=dtype)
        for row, s in zip(out, seqs):
            row[...] = s.coords.reshape(t, -1)
    else:
        out = np.empty((len(seqs), c, t, m * j), dtype=dtype)
        for row, s in zip(out, seqs):
            row[...] = _image_view(s.coords)
    return out
