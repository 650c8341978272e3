"""Experiment configuration: defaults, strict parsing, and overrides.

Config files are JSON documents mirroring the ``DEFAULTS`` tree below.  An
empty document is a valid config: every value falls back to the reference
hyperparameters (temperature 0.07, 15 jittered joints, minimum crop ratio
0.1, crop length 64, queue 16384, SGD lr 0.01 / weight decay 1e-4, 450
epochs).  Each section's defaults are the field defaults of the dataclass
it builds, so each is written once; only the run ``seed``, the trainer's
``mode`` and ``representations`` and the ``sweep`` section, which no
dataclass holds, are written here.  Unknown keys are rejected by full
dotted path; type and range violations name the offending key.  Each rule
lives in one place: a field's type is its annotation, which
`build_dataclass` (shared with the CKPT1 and TRAINER1 readers) converts
each value to; its range is checked by that dataclass, whose ValueError is
raised again on the dotted key.  This module keeps only the
rules that span sections (``jitter_joints`` below the joint count, a
trained conv encoder's temporal kernel no longer than the crop, one
projection width for every trained encoder) and the sweep.  Command-line
overrides use the same dotted paths (``trainer.tau=0.05``).
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import os
from dataclasses import dataclass

from .augment import AugmentationSpec
from .contrast import Schedule, TrainerConfig, _check_projection_widths
from .data import DatasetSpec, build_dataclass, convert_json, require
from .downstream import DownstreamSpec
from .encoders import EncoderConfig, write_json
from .errors import ConfigError
from .represent import REPRESENTATIONS


def _section(cls, skip=()) -> dict:
    """The config section of `cls`: each field with a default, tuples as the
    lists JSON reads back and a dataclass default as a section of its own."""
    def plain(value):
        if dataclasses.is_dataclass(value):
            return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return list(value) if isinstance(value, tuple) else value
    return {f.name: plain(f.default) for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING and f.name not in skip}


DEFAULTS: dict = {
    "seed": 0,
    "dataset": _section(DatasetSpec),
    "augment": _section(AugmentationSpec),
    "encoders": {rep: _section(EncoderConfig, () if rep == "SEQ" else ("seq_pooling",))
                 for rep in REPRESENTATIONS},
    "trainer": {"mode": "intra", "representations": ["SEQ"],
                **_section(TrainerConfig), **_section(Schedule)},
    "downstream": _section(DownstreamSpec),
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


def _config_error(key: str, message: str) -> ConfigError:
    return ConfigError(f"{key}: {message}")


_require = functools.partial(require, _config_error)
_build = functools.partial(build_dataclass, _config_error)


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


def _build_encoders(tree: dict, joints: int, output_length: int,
                    trained: tuple[str, ...]) -> dict[str, EncoderConfig]:
    """One EncoderConfig per `encoders` section, with the rules that need
    more than that section: the joint count, and a temporal kernel no
    longer than the crop for each conv encoder (IMG, STG) in `trained`."""
    out = {}
    for rep, values in tree["encoders"].items():
        path = f"encoders.{rep}"
        config = _build(EncoderConfig, path, values, representation=rep, joints=joints)
        _require(rep == "SEQ" or rep not in trained or config.temporal_kernel <= output_length,
                 f"{path}.temporal_kernel",
                 f"kernel {config.temporal_kernel} exceeds crop length {output_length}")
        out[rep] = config
    return out


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
    _require(isinstance(s["key"], str), "sweep.key", f"expected a dotted key, got {s['key']!r}")
    values = s["values"]
    _require(isinstance(values, (list, tuple)) and len(values) >= 1,
             "sweep.values", "expected a nonempty list")
    return SweepSpec(cells=tuple({s["key"]: v} for v in values))


def resolve_config(user_tree: dict, overrides=()) -> ExperimentConfig:
    """Merge a user tree and dotted ``(key, value)`` overrides onto the
    defaults, validate, and build the typed experiment description."""
    if not isinstance(user_tree, dict):
        raise ConfigError(f"config root must be an object, got {type(user_tree).__name__}")
    tree = _merge(DEFAULTS, user_tree)
    for key, value in overrides:
        for part in reversed(key.split(".")):
            value = {part: value}
        tree = _merge(tree, value)

    seed = convert_json(_config_error, int, tree["seed"], "seed")
    _require(seed >= 0, "seed", f"must be >= 0, got {seed}")
    dataset = _build(DatasetSpec, "dataset", tree["dataset"])
    aug = _build(AugmentationSpec, "augment", tree["augment"])
    _require(aug.jitter_joints < dataset.joints, "augment.jitter_joints",
             f"must be smaller than the joint count {dataset.joints}")
    schedule = {key: tree["trainer"][key] for key in _section(Schedule)}
    trainer = _build(TrainerConfig, "trainer",
                     {k: v for k, v in tree["trainer"].items() if k not in schedule})
    encoders = _build_encoders(tree, dataset.joints, aug.output_length, trainer.representations)
    try:
        _check_projection_widths(trainer, encoders)
    except ValueError as exc:
        raise ConfigError(f"encoders.{exc}") from None
    return ExperimentConfig(resolved=tree, seed=seed, dataset=dataset, aug=aug,
                            encoders=encoders, trainer=trainer,
                            schedule=_build(Schedule, "trainer", schedule),
                            downstream=_build(DownstreamSpec, "downstream", tree["downstream"]),
                            sweep=_build_sweep(tree))


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
