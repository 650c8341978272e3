"""The three benchmark workloads: set-up, one timed pass, and output checks.

All workloads share one set-up shape: ``generate_synthetic`` data with a
random 50/50 split, desk-scale encoders, crop 32, ``jitter_joints=15``,
batch 16, tau 0.07, momentum 0.9 and lr 0.01, all drawn from the workload
seed.  ``skelcon`` functions are always looked up on their module at call
time, so a tracer that swaps module attributes sees every call.

* ``intra-seq``: intra-mode SEQ pretraining at the MoCo queue of 16384;
  set-up fills the queue with ``warmup_queues`` over the training sequences
  cycled out to the queue length.  A pass is one public ``pretrain`` epoch.
* ``inter3``: inter3 pretraining over (IMG, SEQ, STG) with
  ``cross_terms="full"`` and queue 512.  A pass is one ``pretrain`` epoch.
* ``eval``: set-up runs a short inter3 pretraining and checkpoints it; a
  pass loads the three query checkpoints, extracts features, probes,
  retrieves, runs the combined probe and a semi-supervised SEQ finetune.
"""

from __future__ import annotations

import copy
import glob
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from skelcon import augment, contrast, data, downstream, encoders

REPS3 = ("IMG", "SEQ", "STG")


@dataclass(frozen=True)
class Size:
    classes: int = 5
    per_class: int = 100
    frames: int = 96
    joints: int = 25
    crop: int = 32
    hidden: int = 32
    projection: int = 128
    jitter: int = 15
    batch: int = 16
    intra_queue: int = 16384      # MoCo's reference queue
    inter_queue: int = 512        # the acceptance gate's queue
    eval_pretrain_seqs: int = 64  # the eval set-up's short pretraining
    finetune_epochs: int = 50
    min_passes: int = 2           # repeats to compare for reproducibility
    setups: int = 3               # set-up repeats for the setup_s median


FULL = Size()
# The full data with small encoders and queues, for the benchmark's smoke test.
TINY = Size(hidden=16, projection=32, intra_queue=64, inter_queue=16,
            eval_pretrain_seqs=16, finetune_epochs=2, setups=2)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass
class Split:
    bones: tuple
    train: list
    test: list

    @property
    def train_seqs(self) -> list:
        return [s.sequence for s in self.train]

    @property
    def chance(self) -> float:
        return 1.0 / len({s.label for s in self.train})


@dataclass
class PassResult:
    wall_s: float
    units: int                      # train steps, or eval tasks
    outputs: dict                   # name -> value compared across passes
    failures: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)


def make_split(size: Size, seed: int) -> Split:
    dataset = data.generate_synthetic(size.classes, size.per_class,
                                      frames=size.frames, joints=size.joints,
                                      seed=seed)
    split = data.make_split(dataset, "random", 0.5, seed=seed)
    return Split(bones=dataset.bones, train=dataset.subset(list(split.train_ids)),
                 test=dataset.subset(list(split.test_ids)))


def make_trainer(size: Size, split: Split, mode: str, reps, queue: int, seed: int):
    configs = {rep: encoders.desk_config(rep, size.joints, hidden=size.hidden,
                                         projection_dim=size.projection)
               for rep in reps}
    config = contrast.TrainerConfig(mode, tuple(reps), tau=0.07, momentum=0.9,
                                    queue_size=queue, lr=0.01, cross_terms="full")
    aug = augment.AugmentationSpec(output_length=size.crop, jitter_joints=size.jitter)
    return contrast.make_trainer(config, configs, aug, split.bones, seed)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def trainer_digest(trainer) -> str:
    arrays = []
    for rep in trainer.representations:
        pair = trainer.pairs[rep]
        for params in (pair.query.params, pair.key.params, trainer.velocities[rep]):
            arrays.extend(params[k] for k in sorted(params))
        arrays.extend(trainer.queues[rep].state_arrays()[k]
                      for k in ("buffer", "size", "head"))
    return digest(*arrays)


def _only(pattern: str) -> str:
    found = glob.glob(pattern)
    if len(found) != 1:
        raise RuntimeError(f"expected one file matching {pattern}, found {len(found)}")
    return found[0]


def _accuracies(split: Split, states: dict, size: Size) -> tuple[float, float, dict]:
    """(probe, kNN, per-encoder detail).  With several encoders the probe is
    the combined probe: one linear probe over the concatenated features."""
    f_train, f_test, detail = [], [], {}
    for rep, state in states.items():
        ftr, ytr = downstream.extract_features(state, split.train, split.bones,
                                               crop_length=size.crop, batch_size=64)
        fte, yte = downstream.extract_features(state, split.test, split.bones,
                                               crop_length=size.crop, batch_size=64)
        probe = downstream.linear_probe(ftr, ytr, fte, yte).accuracy
        _, knn = downstream.knn_retrieve(downstream.build_index(ftr, ytr), fte, yte)
        detail[rep] = {"probe_acc": probe, "knn_acc": knn.accuracy}
        f_train.append(ftr)
        f_test.append(fte)
    if len(states) == 1:
        probe = detail[next(iter(states))]["probe_acc"]
    else:
        probe = downstream.linear_probe(np.concatenate(f_train, axis=1), ytr,
                                        np.concatenate(f_test, axis=1), yte).accuracy
    knn = float(np.mean([d["knn_acc"] for d in detail.values()]))
    return probe, knn, detail


# ---------------------------------------------------------------------------
# pretraining workloads
# ---------------------------------------------------------------------------

class PretrainWorkload:
    unit = "step"
    expected_setup_spans = ("data.generate_synthetic", "contrast.warmup_queues")

    def __init__(self, name: str, mode: str, reps, queue_field: str,
                 min_steps: int, why: str):
        self.name, self.mode, self.reps = name, mode, tuple(reps)
        self.queue_field, self.min_steps, self.why = queue_field, min_steps, why
        self.expected_spans = (
            "contrast.pretrain", "contrast.train_step", "contrast.info_nce",
            "contrast.NegativeQueue.push", "contrast.momentum_update",
            "contrast.save_trainer", "augment.make_query_key_pair",
            "represent.batch_views",
            *(f"encoders.embed_forward.{rep}" for rep in self.reps),
            *(f"encoders.embed_backward.{rep}" for rep in self.reps))

    def setup(self, size: Size, seed: int, work_dir: str):
        split = make_split(size, seed)
        queue = getattr(size, self.queue_field)
        trainer = make_trainer(size, split, self.mode, self.reps, queue, seed)
        seqs = split.train_seqs
        # the queue stands for a dataset at least as large as itself
        contrast.warmup_queues(trainer, [seqs[i % len(seqs)] for i in range(queue)])
        return {"size": size, "split": split, "trainer": trainer}

    def setup_fingerprint(self, state) -> str:
        return trainer_digest(state["trainer"])

    def warm_up(self, state, out_dir: str) -> None:
        """Two untimed steps, so the first timed pass does not pay for the
        backward pass's first allocations."""
        size = state["size"]
        contrast.pretrain(copy.deepcopy(state["trainer"]),
                          state["split"].train_seqs[:2 * size.batch],
                          contrast.Schedule(epochs=1, batch_size=size.batch), out_dir)

    def run_pass(self, state, out_dir: str, timed) -> PassResult:
        """One ``pretrain`` epoch from the warmed-up trainer; the checks run
        after the timed block."""
        size, trainer = state["size"], copy.deepcopy(state["trainer"])
        seqs = state["split"].train_seqs
        schedule = contrast.Schedule(epochs=trainer.epoch + 1, batch_size=size.batch)
        start = time.perf_counter()
        with timed():
            records = contrast.pretrain(trainer, seqs, schedule, out_dir)
        wall = time.perf_counter() - start
        failures = []
        if not all(np.isfinite([r["total"] for r in records])):
            failures.append("non-finite loss")
        with open(os.path.join(out_dir, "loss_log.jsonl"), "rb") as fh:
            log = fh.read()
        lines = log.count(b"\n")
        if lines != len(records):
            failures.append(f"loss_log.jsonl has {lines} lines for {len(records)} steps")
        restored = contrast.load_trainer(_only(os.path.join(out_dir, "*.trainer.json")))
        if trainer_digest(restored) != trainer_digest(trainer):
            failures.append("load_trainer did not restore identical parameters")
        state["last"] = trainer
        return PassResult(wall_s=wall, units=len(records), failures=failures,
                          outputs={"loss_log": hashlib.sha256(log).hexdigest()},
                          timings={"batch_sizes": [len(seqs[i:i + size.batch])
                                                   for i in range(0, len(seqs), size.batch)]})

    def final_accuracy(self, state) -> tuple[float, float, dict]:
        trainer = state["last"]
        states = {rep: trainer.pairs[rep].query for rep in self.reps}
        return _accuracies(state["split"], states, state["size"])


# ---------------------------------------------------------------------------
# downstream read path
# ---------------------------------------------------------------------------

class EvalWorkload:
    name = "eval"
    unit = "pass"
    min_steps = 0
    why = ("downstream read path: CKPT1 loads, forward-only batch-64 extraction, probes, "
           "kNN, combined probe, Adam SEQ finetune; no augmentation or queue "
           "(layer map: benchmarks/README.md)")
    expected_setup_spans = ("data.generate_synthetic", "contrast.pretrain",
                            "contrast.save_trainer")
    expected_spans = ("encoders.load_checkpoint", "downstream.extract_features",
                      "downstream.linear_probe", "downstream.build_index",
                      "downstream.knn_retrieve", "downstream.combined_probe",
                      "downstream.finetune", "encoders.encoder_backward",
                      *(f"encoders.encoder_forward.{rep}" for rep in REPS3))

    def setup(self, size: Size, seed: int, work_dir: str):
        split = make_split(size, seed)
        trainer = make_trainer(size, split, "inter3", REPS3, size.inter_queue, seed)
        seqs = split.train_seqs
        contrast.warmup_queues(trainer, seqs)
        contrast.pretrain(trainer, seqs[:size.eval_pretrain_seqs],
                          contrast.Schedule(epochs=1, batch_size=size.batch), work_dir)
        with open(_only(os.path.join(work_dir, "*.trainer.json")), encoding="utf-8") as fh:
            manifest = json.load(fh)
        ckpts = {rep: os.path.join(work_dir, manifest["encoders"][rep]["query"])
                 for rep in REPS3}
        with open(os.path.join(work_dir, "loss_log.jsonl"), "rb") as fh:
            log = fh.read()
        return {"size": size, "split": split, "seed": seed, "ckpts": ckpts,
                "loss_log": hashlib.sha256(log).hexdigest()}

    def warm_up(self, state, out_dir: str) -> None:
        """Nothing to warm: set-up already ran the forward and backward passes."""

    def setup_fingerprint(self, state) -> str:
        blobs = []
        for path in state["ckpts"].values():
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        return state["loss_log"] + digest(*blobs)

    def run_pass(self, state, out_dir: str, timed) -> PassResult:
        size, split, bones = state["size"], state["split"], state["split"].bones
        seed = state["seed"]
        schedule = downstream.FinetuneSchedule(lr=1e-4, epochs=size.finetune_epochs)
        acc, feats, extract_s = {}, {}, {}
        start = time.perf_counter()
        with timed():
            states = {rep: encoders.load_checkpoint(path)
                      for rep, path in state["ckpts"].items()}
            for rep, enc in states.items():
                for part in ("train", "test"):
                    t0 = time.perf_counter()
                    feats[rep, part] = downstream.extract_features(
                        enc, getattr(split, part), bones, crop_length=size.crop,
                        batch_size=64)
                    extract_s[rep, part] = time.perf_counter() - t0
                (ftr, ytr), (fte, yte) = feats[rep, "train"], feats[rep, "test"]
                acc[f"probe.{rep}"] = downstream.linear_probe(ftr, ytr, fte, yte).accuracy
                index = downstream.build_index(ftr, ytr)
                acc[f"knn.{rep}"] = downstream.knn_retrieve(index, fte, yte)[1].accuracy
            acc["combined_probe"] = downstream.combined_probe(
                [states[rep] for rep in REPS3], split.train, split.test, bones,
                crop_length=size.crop).accuracy
            t0 = time.perf_counter()
            acc["finetune"] = downstream.finetune(
                states["SEQ"], split.train, split.test, bones, rho=0.1,
                mode="semi-supervised", schedule=schedule, seeds=[seed],
                crop_length=size.crop).mean
            finetune_s = time.perf_counter() - t0
        wall = time.perf_counter() - start

        failures = []
        outputs = {f"load.{rep}": digest(*(enc.params[k] for k in sorted(enc.params)))
                   for rep, enc in states.items()}
        for (rep, part), (f, _) in feats.items():
            outputs[f"extract.{rep}.{part}"] = digest(f)
            if not np.all(np.isfinite(f)):
                failures.append(f"extract.{rep}.{part}: non-finite features")
        outputs.update(acc)
        if acc["combined_probe"] <= split.chance:
            failures.append(f"combined_probe {acc['combined_probe']:.3f} "
                            f"not above chance {split.chance:.3f}")
        labels = np.array([s.label for s in split.train])
        labeled = len(downstream.stratified_subset(labels, 0.1, seed))
        state["last_outputs"] = outputs
        return PassResult(wall_s=wall, units=len(outputs), outputs=outputs,
                          failures=failures,
                          timings={"pairs": (len(split.train) + len(split.test)) * len(states),
                                   "extract": [(rep, len(f), extract_s[rep, part])
                                               for (rep, part), (f, _) in feats.items()],
                                   "finetune_s": finetune_s,
                                   "finetuned": labeled * size.finetune_epochs})

    def final_accuracy(self, state) -> tuple[float, float, dict]:
        out = state["last_outputs"]
        knn = float(np.mean([out[f"knn.{rep}"] for rep in REPS3]))
        detail = {rep: {"probe_acc": out[f"probe.{rep}"], "knn_acc": out[f"knn.{rep}"]}
                  for rep in REPS3}
        detail["finetune_acc"] = out["finetune"]
        return out["combined_probe"], knn, detail


WORKLOADS = {
    "intra-seq": PretrainWorkload(
        "intra-seq", "intra", ("SEQ",), "intra_queue", 100,
        "SEQ intra pretraining at MoCo's 16384-key queue: GRU and InfoNCE/queue layers "
        "dominate, no convolution; bypass for conv changes (layer map: benchmarks/README.md)"),
    "inter3": PretrainWorkload(
        # 100 steps would take 35 s a run at ~350 ms a step, more than the
        # benchmark's time budget allows; a run takes 2-3 epochs (32-48 steps)
        "inter3", "inter3", REPS3, "inter_queue", 0,
        "inter3 over IMG, SEQ, STG at queue 512: conv and graph conv dominate, contrast ~1%; "
        "bypass for queue and augmentation changes (layer map: benchmarks/README.md)"),
    "eval": EvalWorkload(),
}
