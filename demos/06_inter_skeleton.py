"""Inter-skeleton contrast: two representations regularize each other.

Intra-skeleton contrast matches a query against keys *of the same packing*
(demo 04).  Inter-skeleton contrast runs one momentum pair per
representation and crosses the terms: the SEQ query must identify the STG
key of the same sample against STG negatives, and vice versa.  Each encoder
is thereby

  - pushed to agree with a structurally different view of the same motion;
  - contrasted against a negative set embedded by a different family.

The queues stay per-representation (a SEQ query never meets SEQ negatives
in inter mode).  At full scale this consistently lifts every individual
encoder; at desk scale the acceptance suite checks the 5-seed mean stays
within two points of intra.
"""

import numpy as np

from skelcon.augment import AugmentationSpec
from skelcon.contrast import (
    Schedule,
    TrainerConfig,
    make_trainer,
    pretrain,
    warmup_queues,
)
from skelcon.data import generate_synthetic, make_split
from skelcon.downstream import combined_probe, extract_features, linear_probe
from skelcon.encoders import desk_config

dataset = generate_synthetic(3, 12, frames=24, joints=5, seed=1)
split = make_split(dataset, "random", 0.5, seed=0)
train = dataset.subset(list(split.train_ids))
test = dataset.subset(list(split.test_ids))
train_seqs = [s.sequence for s in train]

aug = AugmentationSpec(output_length=16, jitter_joints=2)
schedule = Schedule(epochs=30, batch_size=8)


def pretrain_and_probe(mode, reps, seed=0):
    configs = {rep: desk_config(rep, dataset.joint_count, hidden=8)
               for rep in reps}
    config = TrainerConfig(mode, tuple(reps), tau=0.07, momentum=0.9,
                           queue_size=64, lr=0.01)
    trainer = make_trainer(config, configs, aug, dataset.bones, seed)
    warmup_queues(trainer, train_seqs)
    records = pretrain(trainer, train_seqs, schedule)
    accuracies, states = {}, []
    for rep in reps:
        state = trainer.pairs[rep].query
        f_train, y_train = extract_features(state, train, dataset.bones, 16)
        f_test, y_test = extract_features(state, test, dataset.bones, 16)
        accuracies[rep] = linear_probe(f_train, y_train, f_test, y_test).accuracy
        states.append(state)
    return records, accuracies, states


# --- intra baseline: each representation alone -------------------------------
_, intra_seq, _ = pretrain_and_probe("intra", ("SEQ",))
_, intra_stg, _ = pretrain_and_probe("intra", ("STG",))
print(f"intra(SEQ) probe: {intra_seq['SEQ']:.3f}")
print(f"intra(STG) probe: {intra_stg['STG']:.3f}")

# --- inter: SEQ and STG trained jointly with crossed terms -------------------
records, inter, _ = pretrain_and_probe("inter", ("SEQ", "STG"))
print(f"\ninter(SEQ,STG) probes: SEQ={inter['SEQ']:.3f} STG={inter['STG']:.3f}")

# The raw loss is a moving target in inter mode (the negatives improve as
# both encoders co-train), so alignment is better read off the logit gap:
# how much closer a query sits to its cross-representation key than to the
# queue average.
first, last = records[0], records[-1]
print(f"positive-vs-negative logit gap: "
      f"{first['pos_logit_mean'] - first['neg_logit_mean']:+.3f} (step 0) -> "
      f"{last['pos_logit_mean'] - last['neg_logit_mean']:+.3f} "
      f"(step {last['step']})")

# --- three-way variant --------------------------------------------------------
# inter3 crosses all three representations; `cross_terms="cycle"` keeps one
# directed term per pair instead of all six.
_, inter3, states3 = pretrain_and_probe("inter3", ("IMG", "SEQ", "STG"))
print(f"\ninter3(IMG,SEQ,STG) probes: "
      + "  ".join(f"{rep}={acc:.3f}" for rep, acc in sorted(inter3.items())))

# The three backbones' features side by side, probed as one representation.
# Each state has just extracted both splits, so this runs no encoder again.
combined = combined_probe(states3, train, test, dataset.bones, crop_length=16)
print(f"inter3 combined probe (IMG+SEQ+STG features): {combined.accuracy:.3f}")
print("\n(single-seed, 36-sample demo: expect these numbers to move seed to "
      "seed; the acceptance suite compares 5-seed means on 500 samples)")
