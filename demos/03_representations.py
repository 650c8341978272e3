"""One sequence, three input representations: IMG, SEQ, STG.

The same skeleton sequence is packed two ways, and three encoder families
read them:

  IMG - a (3, frames, joints*actors) pseudo-image for 2D convolutions, the
        coordinate channel playing the role of color;
  SEQ - a (frames, actors*joints*3) flat time series for recurrent models;
  STG - the IMG tensor read as (3, frames, nodes) node features, plus a
        normalized bone adjacency for graph convolutions.

Both packings are loss-free rearrangements: each has an exact inverse back
to the (frames, actors, joints, 3) coordinate array.
"""

import numpy as np

from skelcon.data import generate_synthetic
from skelcon.represent import (
    REPRESENTATIONS,
    batch_views,
    bone_adjacency,
    image_to_coords,
    normalized_adjacency,
    sequence_to_coords,
    to_image,
    to_sequence,
)

dataset = generate_synthetic(2, 3, frames=12, joints=5, seed=9)
seq = dataset.samples[0].sequence
print(f"representations: {REPRESENTATIONS}")
print(f"input coords: {seq.coords.shape}")

# --- the two packings and their exact inverses ------------------------------
image = to_image(seq)
flat = to_sequence(seq)
print(f"\nIMG and STG view: {image.shape}   SEQ view: {flat.shape}")

print("round-trips exact:",
      np.array_equal(image_to_coords(image), seq.coords),
      np.array_equal(sequence_to_coords(flat, joints=5), seq.coords))

# --- graph structure ---------------------------------------------------------
# One J x J adjacency describes the skeleton (self-loops included); both
# actor blocks share it.  Symmetric normalization keeps eigenvalues within
# [-1, 1], so repeated message passing cannot blow activations up.
adjacency = bone_adjacency(dataset.bones, joints=5)
a_hat = normalized_adjacency(adjacency)
eigenvalues = np.linalg.eigvalsh(a_hat)
print(f"\nadjacency: {adjacency.shape}, ones={int(adjacency.sum())} "
      f"(= J + 2 bones)")
print(f"normalized adjacency symmetric: {np.allclose(a_hat, a_hat.T)}; "
      f"eigenvalue range [{eigenvalues.min():.3f}, {eigenvalues.max():.3f}]")

# --- batching ----------------------------------------------------------------
seqs = [s.sequence for s in dataset.samples[:4]]
for rep in REPRESENTATIONS:
    batch = batch_views(seqs, rep)
    print(f"batch_views[{rep}]: {batch.shape}")
