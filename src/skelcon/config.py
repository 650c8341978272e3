"""Experiment configuration: defaults, strict parsing, and overrides.

Config files are JSON documents mirroring the ``DEFAULTS`` tree below.  An
empty document is a valid config: every value falls back to the reference
hyperparameters (temperature 0.07, 15 jittered joints, minimum crop ratio
0.1, crop length 64, queue 16384, SGD lr 0.01 / weight decay 1e-4, 450
epochs).  Unknown keys are rejected by full dotted path; range violations
name the offending key.  Each rule lives in one place: this module checks
types and cross-field limits, the dataclasses it builds check their own
ranges, and their errors are raised again on the dotted key.  Command-line
overrides use the same dotted paths (``trainer.tau=0.05``).
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import re
from dataclasses import dataclass

from .augment import AugmentationSpec
from .contrast import Schedule, TrainerConfig
from .data import Dataset, generate_synthetic, load_dataset, make_split
from .downstream import FINETUNE_MODES, PROJECTORS, FinetuneSchedule, ProbeSchedule
from .encoders import EncoderConfig, write_json
from .errors import ConfigError

DEFAULTS: dict = {
    "seed": 0,
    "dataset": {
        "source": "synthetic",          # synthetic | file
        "path": None,                   # SKL1 file for source=file
        "num_classes": 5,
        "samples_per_class": 100,
        "frames": 96,
        "joints": 25,
        "noise": 0.01,
        "seed": 0,                      # dataset generation seed (not the run seed)
        "protocol": "random",
        "train_fraction": 0.5,
    },
    "augment": {
        "spatial_mode": "randomized",   # pose | jitter | randomized | none
        "temporal": True,
        "l_min": 0.1,
        "jitter_joints": 15,
        "output_length": 64,
    },
    "encoders": {
        "IMG": {"depth": 1, "hidden": 32, "feature_dim": None,
                "projection_dim": 128, "temporal_kernel": 5},
        "SEQ": {"depth": 1, "hidden": 32, "feature_dim": None,
                "projection_dim": 128, "temporal_kernel": 5,
                "seq_pooling": "final"},
        "STG": {"depth": 1, "hidden": 32, "feature_dim": None,
                "projection_dim": 128, "temporal_kernel": 5},
    },
    "trainer": {
        "mode": "intra",                # intra | inter | inter3
        "representations": ["SEQ"],
        "tau": 0.07,
        "momentum": 0.999,
        "queue_size": 16384,
        "lr": 0.01,
        "weight_decay": 0.0001,
        "opt_momentum": 0.9,
        "cross_terms": "full",          # inter3 only: full | cycle
        "epochs": 450,
        "batch_size": 16,
        "checkpoint_every": 0,
    },
    "downstream": {
        "checkpoint": None,             # CKPT1 file or TRAINER1 manifest
        "representation": None,         # which encoder of a trainer manifest
        "rho": 0.1,
        "finetune_mode": "semi-supervised",
        "seeds": [0, 1, 2, 3, 4],
        "projector": "none",            # embedding export: none | pca2d
        "min_accuracy": None,           # threshold for CI gating (exit 4)
        "probe": {"epochs": 80, "lr": 0.1, "momentum": 0.9,
                  "decay_epochs": [50, 70], "decay_factor": 0.1},
        "finetune": {"epochs": 50, "lr": 0.0001, "decay_epochs": [30, 40],
                     "decay_factor": 0.1, "batch_size": 16},
    },
    "sweep": {
        "key": None,                    # dotted config path varied over cells
        "values": None,
        "cells": None,                  # alternative: explicit override dicts
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(base[key], dict) and base[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected a section, got {value!r}")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _number(raw, path: str, low=None, high=None, integer=False):
    ok = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    _require(ok, path, f"expected a number, got {raw!r}")
    if integer:
        _require(float(raw) == int(raw), path, f"expected an integer, got {raw!r}")
        raw = int(raw)
    _require(low is None or raw >= low, path, f"value {raw} below minimum {low}")
    _require(high is None or raw <= high, path, f"value {raw} above maximum {high}")
    return raw


def _build(cls, section: str, **fields):
    """``cls(**fields)``, with its ValueError raised as a ConfigError on the
    dotted key; the dataclasses open each message with the field's name."""
    try:
        return cls(**fields)
    except ValueError as exc:
        name = re.match(r"\w*", str(exc)).group()
        key = f"{section}.{name}" if name in fields else section
        raise ConfigError(f"{key}: {exc}") from exc


def set_by_path(tree: dict, dotted: str, value) -> None:
    """Apply one ``a.b.c=value`` override to a plain config tree."""
    parts = dotted.split(".")
    node = tree
    for i, part in enumerate(parts[:-1]):
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def parse_override(text: str) -> tuple[str, object]:
    """``key=value`` with the value parsed as JSON, falling back to a string."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, _, raw = text.partition("=")
    key = key.strip()
    _require(bool(key), text, "empty override key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


@dataclass(frozen=True)
class DatasetSpec:
    source: str
    path: str | None
    num_classes: int
    samples_per_class: int
    frames: int
    joints: int
    noise: float
    seed: int
    protocol: str
    train_fraction: float

    def load(self) -> Dataset:
        if self.source == "file":
            return load_dataset(self.path)
        return generate_synthetic(self.num_classes, self.samples_per_class,
                                  self.frames, self.joints, self.seed,
                                  self.noise)

    def split(self, dataset: Dataset):
        return make_split(dataset, self.protocol, self.train_fraction, self.seed)


@dataclass(frozen=True)
class DownstreamSpec:
    checkpoint: str | None
    representation: str | None
    rho: float
    finetune_mode: str
    seeds: tuple[int, ...]
    projector: str
    min_accuracy: float | None
    probe: ProbeSchedule
    finetune: FinetuneSchedule


@dataclass(frozen=True)
class SweepSpec:
    cells: tuple[dict, ...]             # dotted-path override dicts, one per cell


@dataclass(frozen=True)
class ExperimentConfig:
    resolved: dict
    seed: int
    dataset: DatasetSpec
    aug: AugmentationSpec
    encoders: dict[str, EncoderConfig]
    trainer: TrainerConfig
    schedule: Schedule
    downstream: DownstreamSpec
    sweep: SweepSpec | None

    def run_id(self, subcommand: str) -> str:
        digest = hashlib.sha256()
        digest.update(subcommand.encode())
        digest.update(json.dumps(self.resolved, sort_keys=True).encode())
        return digest.hexdigest()[:16]


def _build_dataset(tree: dict) -> DatasetSpec:
    d = tree["dataset"]
    _require(d["source"] in ("synthetic", "file"), "dataset.source",
             f"must be 'synthetic' or 'file', got {d['source']!r}")
    if d["source"] == "file":
        _require(isinstance(d["path"], str) and d["path"], "dataset.path",
                 "source 'file' needs a path")
    _require(d["protocol"] in ("random", "cross-subject", "cross-view", "cross-setup"),
             "dataset.protocol", f"unknown protocol {d['protocol']!r}")
    return DatasetSpec(
        source=d["source"], path=d["path"],
        num_classes=_number(d["num_classes"], "dataset.num_classes", 2, integer=True),
        samples_per_class=_number(d["samples_per_class"], "dataset.samples_per_class", 1, integer=True),
        frames=_number(d["frames"], "dataset.frames", 8, integer=True),
        joints=_number(d["joints"], "dataset.joints", 5, integer=True),
        noise=float(_number(d["noise"], "dataset.noise", 0.0)),
        seed=_number(d["seed"], "dataset.seed", integer=True),
        protocol=d["protocol"],
        train_fraction=float(_number(d["train_fraction"], "dataset.train_fraction", 0.05, 0.95)),
    )


def _build_aug(tree: dict) -> AugmentationSpec:
    a = tree["augment"]
    _require(isinstance(a["temporal"], bool), "augment.temporal", "expected true/false")
    return _build(
        AugmentationSpec, "augment",
        spatial_mode=a["spatial_mode"], temporal=a["temporal"],
        l_min=float(_number(a["l_min"], "augment.l_min")),
        jitter_joints=_number(a["jitter_joints"], "augment.jitter_joints", integer=True),
        output_length=_number(a["output_length"], "augment.output_length", integer=True))


def _build_encoders(tree: dict, joints: int, output_length: int) -> dict[str, EncoderConfig]:
    out = {}
    for rep, e in tree["encoders"].items():
        path = f"encoders.{rep}"
        hidden = _number(e["hidden"], f"{path}.hidden", integer=True)
        depth = _number(e["depth"], f"{path}.depth", integer=True)
        feature = e["feature_dim"]
        if feature is None:
            feature = 2 * hidden
        feature = _number(feature, f"{path}.feature_dim", integer=True)
        kernel = _number(e["temporal_kernel"], f"{path}.temporal_kernel", integer=True)
        _require(kernel <= output_length, f"{path}.temporal_kernel",
                 f"kernel {kernel} exceeds crop length {output_length}")
        kwargs = {"seq_pooling": e["seq_pooling"]} if rep == "SEQ" else {}
        out[rep] = _build(
            EncoderConfig, path, representation=rep, joints=joints, depth=depth,
            hidden=hidden, feature_dim=feature,
            projection_dim=_number(e["projection_dim"], f"{path}.projection_dim", integer=True),
            temporal_kernel=kernel, **kwargs)
    return out


def _build_trainer(tree: dict) -> tuple[TrainerConfig, Schedule]:
    t = tree["trainer"]
    reps = t["representations"]
    _require(isinstance(reps, (list, tuple)) and all(isinstance(r, str) for r in reps),
             "trainer.representations", f"expected a list of names, got {reps!r}")
    trainer = _build(
        TrainerConfig, "trainer", mode=t["mode"], representations=tuple(reps),
        tau=float(_number(t["tau"], "trainer.tau")),
        momentum=float(_number(t["momentum"], "trainer.momentum")),
        queue_size=_number(t["queue_size"], "trainer.queue_size", integer=True),
        lr=float(_number(t["lr"], "trainer.lr", 0.0)),
        weight_decay=float(_number(t["weight_decay"], "trainer.weight_decay", 0.0)),
        opt_momentum=float(_number(t["opt_momentum"], "trainer.opt_momentum", 0.0, 1.0)),
        cross_terms=t["cross_terms"])
    schedule = _build(
        Schedule, "trainer",
        epochs=_number(t["epochs"], "trainer.epochs", integer=True),
        batch_size=_number(t["batch_size"], "trainer.batch_size", integer=True),
        checkpoint_every=_number(t["checkpoint_every"], "trainer.checkpoint_every", integer=True))
    return trainer, schedule


def _build_downstream(tree: dict) -> DownstreamSpec:
    d = tree["downstream"]
    rho = float(_number(d["rho"], "downstream.rho"))
    _require(0.0 < rho <= 1.0, "downstream.rho", f"{rho} outside (0, 1]")
    _require(d["finetune_mode"] in FINETUNE_MODES,
             "downstream.finetune_mode", f"unknown mode {d['finetune_mode']!r}")
    _require(d["projector"] in PROJECTORS, "downstream.projector",
             f"unknown projector {d['projector']!r}")
    seeds = d["seeds"]
    _require(isinstance(seeds, (list, tuple)) and len(seeds) >= 1,
             "downstream.seeds", "expected a nonempty list of integers")
    seeds = tuple(_number(s, "downstream.seeds", integer=True) for s in seeds)
    if d["min_accuracy"] is not None:
        _number(d["min_accuracy"], "downstream.min_accuracy", 0.0, 1.0)
    p, f = d["probe"], d["finetune"]
    probe = ProbeSchedule(
        epochs=_number(p["epochs"], "downstream.probe.epochs", 1, integer=True),
        lr=float(_number(p["lr"], "downstream.probe.lr", 0.0)),
        momentum=float(_number(p["momentum"], "downstream.probe.momentum", 0.0, 1.0)),
        decay_epochs=tuple(_number(e, "downstream.probe.decay_epochs", 0, integer=True)
                           for e in p["decay_epochs"]),
        decay_factor=float(_number(p["decay_factor"], "downstream.probe.decay_factor", 0.0, 1.0)))
    finetune = FinetuneSchedule(
        epochs=_number(f["epochs"], "downstream.finetune.epochs", 1, integer=True),
        lr=float(_number(f["lr"], "downstream.finetune.lr", 0.0)),
        decay_epochs=tuple(_number(e, "downstream.finetune.decay_epochs", 0, integer=True)
                           for e in f["decay_epochs"]),
        decay_factor=float(_number(f["decay_factor"], "downstream.finetune.decay_factor", 0.0, 1.0)),
        batch_size=_number(f["batch_size"], "downstream.finetune.batch_size", 1, integer=True))
    return DownstreamSpec(checkpoint=d["checkpoint"], representation=d["representation"],
                          rho=rho, finetune_mode=d["finetune_mode"], seeds=seeds,
                          projector=d["projector"], min_accuracy=d["min_accuracy"],
                          probe=probe, finetune=finetune)


def _build_sweep(tree: dict) -> SweepSpec | None:
    s = tree["sweep"]
    if s["key"] is None and s["cells"] is None:
        return None
    if s["cells"] is not None:
        _require(s["key"] is None, "sweep.key", "give either key+values or cells, not both")
        cells = s["cells"]
        _require(isinstance(cells, (list, tuple)) and cells and
                 all(isinstance(c, dict) for c in cells),
                 "sweep.cells", "expected a nonempty list of override objects")
        return SweepSpec(cells=tuple(dict(c) for c in cells))
    values = s["values"]
    _require(isinstance(values, (list, tuple)) and len(values) >= 1,
             "sweep.values", "expected a nonempty list")
    return SweepSpec(cells=tuple({s["key"]: v} for v in values))


def resolve_config(user_tree: dict, overrides=()) -> ExperimentConfig:
    """Merge a user tree and dotted overrides onto the defaults, validate,
    and build the typed experiment description."""
    if not isinstance(user_tree, dict):
        raise ConfigError(f"config root must be an object, got {type(user_tree).__name__}")
    tree = _merge(DEFAULTS, user_tree)
    for item in overrides:
        key, value = item if isinstance(item, tuple) else parse_override(item)
        probe_tree: dict = {}
        set_by_path(probe_tree, key, value)
        tree = _merge(tree, probe_tree)

    seed = _number(tree["seed"], "seed", integer=True)
    dataset = _build_dataset(tree)
    aug = _build_aug(tree)
    _require(aug.jitter_joints < dataset.joints, "augment.jitter_joints",
             f"must be smaller than the joint count {dataset.joints}")
    encoders = _build_encoders(tree, dataset.joints, aug.output_length)
    trainer, schedule = _build_trainer(tree)
    downstream = _build_downstream(tree)
    sweep = _build_sweep(tree)
    return ExperimentConfig(resolved=tree, seed=seed, dataset=dataset, aug=aug,
                            encoders=encoders, trainer=trainer, schedule=schedule,
                            downstream=downstream, sweep=sweep)


def parse_config(path, overrides=()) -> ExperimentConfig:
    """Read a JSON config file (empty file = all defaults) and resolve it."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        user_tree = {}
    else:
        try:
            user_tree = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return resolve_config(user_tree, overrides)


def write_resolved(config: ExperimentConfig, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.json")
    write_json(path, config.resolved)
    return path
