"""Downstream evaluation: probe, retrieval, finetuning, embedding export.

Pretraining never sees a label; all supervision lives here.  The projection
head used by the contrastive loss is discarded — every task below consumes
the backbone features.

  linear probe     - logistic regression on frozen features (the standard
                     measure of representation quality);
  kNN retrieval    - label of the nearest gallery neighbor by cosine, k=1:
                     no training at all;
  finetuning       - encoder + classifier trained jointly on a small labeled
                     fraction, from the pretrained weights (semi-supervised)
                     or from random ones (supervised-only control);
  embedding export - JSONL records with optional 2-d PCA coordinates for
                     plotting.
"""

import json
import os
import tempfile
import warnings

import numpy as np

from skelcon.augment import AugmentationSpec
from skelcon.contrast import Schedule, TrainerConfig, make_trainer, pretrain, warmup_queues
from skelcon.data import generate_synthetic, make_split
from skelcon.downstream import (
    FinetuneSchedule,
    build_index,
    export_embeddings,
    extract_features,
    finetune,
    knn_retrieve,
    linear_probe,
)
from skelcon.encoders import desk_config, init_encoder

CROP = 16

dataset = generate_synthetic(3, 12, frames=24, joints=5, seed=1)
split = make_split(dataset, "random", 0.5, seed=0)
train = dataset.subset(list(split.train_ids))
test = dataset.subset(list(split.test_ids))
print(f"{len(train)} train / {len(test)} test samples, "
      f"{dataset.num_classes} classes")

# --- pretrain a small encoder on the train split (labels unused) -------------
aug = AugmentationSpec(output_length=CROP, jitter_joints=2)
config = TrainerConfig("intra", ("SEQ",), tau=0.07, momentum=0.9,
                       queue_size=64, lr=0.01)
encoders = {"SEQ": desk_config("SEQ", dataset.joint_count, hidden=8)}
trainer = make_trainer(config, encoders, aug, dataset.bones, seed=0)
warmup_queues(trainer, [s.sequence for s in train])
pretrain(trainer, [s.sequence for s in train], Schedule(epochs=30, batch_size=8))
state = trainer.pairs["SEQ"].query
print(f"pretrained {trainer.step} steps")

# --- frozen-feature tasks -----------------------------------------------------
f_train, y_train = extract_features(state, train, dataset.bones, CROP)
f_test, y_test = extract_features(state, test, dataset.bones, CROP)

probe = linear_probe(f_train, y_train, f_test, y_test)
print(f"\nlinear probe:   {probe.accuracy:.3f} "
      f"({probe.correct}/{probe.total}), per-class {probe.per_class}")

_, retrieval = knn_retrieve(build_index(f_train, y_train), f_test, y_test)
print(f"kNN-1 retrieval: {retrieval.accuracy:.3f} "
      f"({retrieval.correct}/{retrieval.total})")

random_state = init_encoder(state.config, seed=123)
r_train, _ = extract_features(random_state, train, dataset.bones, CROP)
r_test, _ = extract_features(random_state, test, dataset.bones, CROP)
random_probe = linear_probe(r_train, y_train, r_test, y_test)
print(f"random-init probe (control): {random_probe.accuracy:.3f}")

# --- finetuning on a 30% labeled fraction -------------------------------------
# Both arms draw the same labeled subset per seed, so the comparison is
# paired.  At this micro-scale (5 labeled sequences) the margin between the
# arms is pure noise; the acceptance suite runs the same comparison on the
# 5-class x 100-sample benchmark, where the pretrained-init edge is stable.
schedule = FinetuneSchedule(epochs=30, lr=1e-3, batch_size=8)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")      # tiny classes fall back to plain draws
    semi = finetune(state, train, test, dataset.bones, rho=0.3,
                    mode="semi-supervised", schedule=schedule,
                    seeds=(0, 1, 2), crop_length=CROP)
    solo = finetune(state, train, test, dataset.bones, rho=0.3,
                    mode="supervised-only", schedule=schedule,
                    seeds=(0, 1, 2), crop_length=CROP)
print(f"\nfinetune rho=0.3, 3 seeds (paired subsets):")
print(f"  semi-supervised  {semi.mean:.3f} +/- {semi.std:.3f}")
print(f"  supervised-only  {solo.mean:.3f} +/- {solo.std:.3f}")

# --- embedding export ----------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "embeddings.jsonl")
    count = export_embeddings(state, test, dataset.bones, path,
                              projector="pca2d", crop_length=CROP)
    with open(path, encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    print(f"\nexported {count} embeddings; first record: id={first['id']} "
          f"label={first['label']} |vector|={len(first['vector'])} "
          f"xy=({first['xy'][0]:+.2f}, {first['xy'][1]:+.2f})")
