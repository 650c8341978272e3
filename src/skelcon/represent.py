"""The three input packings of a skeleton sequence: pseudo-image, time
series and spatio-temporal graph.

All three are pure re-indexings of the same (T, M, J, 3) coordinates, so
each view is invertible back to raw coordinates.  Actors are concatenated
along the joint axis for the image view, along the feature axis for the
sequence view, and form disjoint graph components for the graph view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NUM_ACTORS, SkeletonSequence

REPRESENTATIONS = ("IMG", "SEQ", "STG")


@dataclass(frozen=True)
class GraphView:
    """Node features (M*J, T, 3) plus the per-actor joint adjacency.

    `adjacency` is the normalized (J, J) matrix of `graph_adjacency` over
    the joints of one actor; encoders consume it directly.
    """

    nodes: np.ndarray
    adjacency: np.ndarray


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


def to_image(seq: SkeletonSequence) -> np.ndarray:
    """(T, M, J, 3) -> (3, T, M*J): coordinate channels first."""
    t, m, j, _ = seq.coords.shape
    return np.ascontiguousarray(seq.coords.reshape(t, m * j, 3).transpose(2, 0, 1))


def to_sequence(seq: SkeletonSequence) -> np.ndarray:
    """(T, M, J, 3) -> (T, M*J*3): row-major per-frame flattening."""
    t = seq.coords.shape[0]
    return seq.coords.reshape(t, -1).copy()


def to_graph(seq: SkeletonSequence, bones) -> GraphView:
    """(T, M, J, 3) -> nodes (M*J, T, 3) over two disjoint joint-tree copies."""
    t, m, j, _ = seq.coords.shape
    nodes = np.ascontiguousarray(seq.coords.reshape(t, m * j, 3).transpose(1, 0, 2))
    return GraphView(nodes=nodes, adjacency=graph_adjacency(bones, j))


def image_to_coords(view: np.ndarray) -> np.ndarray:
    c, t, mj = view.shape
    return np.ascontiguousarray(
        view.transpose(1, 2, 0).reshape(t, NUM_ACTORS, mj // NUM_ACTORS, c))


def sequence_to_coords(view: np.ndarray, joints: int) -> np.ndarray:
    t = view.shape[0]
    return view.reshape(t, NUM_ACTORS, joints, 3).copy()


def graph_to_coords(view: GraphView) -> np.ndarray:
    mj, t, c = view.nodes.shape
    return np.ascontiguousarray(
        view.nodes.transpose(1, 0, 2).reshape(t, NUM_ACTORS, mj // NUM_ACTORS, c))


# ---------------------------------------------------------------------------
# batched conversion used by the training loops
# ---------------------------------------------------------------------------

def batch_views(seqs: list[SkeletonSequence], representation: str) -> np.ndarray:
    """Stack per-sample views into one batch array.

    IMG -> (N, 3, T, M*J);  SEQ -> (N, T, M*J*3);  STG -> (N, T, M*J, 3).
    Graph encoders receive `graph_adjacency` separately; the bone tree is
    checked there, once, and not per batch.
    """
    if representation == "IMG":
        return np.stack([to_image(s) for s in seqs])
    if representation == "SEQ":
        return np.stack([to_sequence(s) for s in seqs])
    if representation == "STG":
        return np.stack([s.coords.reshape(s.frames, -1, 3) for s in seqs])
    raise ValueError(f"unknown representation {representation!r}")
