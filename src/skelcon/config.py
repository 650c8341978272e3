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
lives in one place: a field's type is its annotation, which `_build`
converts each value to; its range is checked by that dataclass, whose
ValueError is raised again on the dotted key.  This module keeps only the
rules that span sections (``jitter_joints`` below the joint count, a
trained conv encoder's temporal kernel no longer than the crop) and the
sweep.  Command-line overrides use the same dotted paths
(``trainer.tau=0.05``).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import re
import types
import typing
from dataclasses import dataclass

from .augment import AugmentationSpec
from .contrast import Schedule, TrainerConfig
from .data import DatasetSpec
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


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _convert(kind, raw, key: str):
    """`raw` as the field type `kind`, or a ConfigError on `key`. A whole
    float counts as an int, and a bool is not a number."""
    if typing.get_origin(kind) in (types.UnionType, typing.Union):   # X | None
        inner = next(k for k in typing.get_args(kind) if k is not type(None))
        return None if raw is None else _convert(inner, raw, key)
    if typing.get_origin(kind) is tuple:                    # tuple[X, ...]
        _require(isinstance(raw, (list, tuple)), key, f"expected a list, got {raw!r}")
        return tuple(_convert(typing.get_args(kind)[0], item, key) for item in raw)
    if dataclasses.is_dataclass(kind):
        return _build(kind, key, raw)
    if kind is bool or kind is str:
        wanted = "true or false" if kind is bool else "a string"
        _require(isinstance(raw, kind), key, f"expected {wanted}, got {raw!r}")
        return raw
    _require(isinstance(raw, (int, float)) and not isinstance(raw, bool), key,
             f"expected a number, got {raw!r}")
    if kind is int:
        _require(isinstance(raw, int) or raw.is_integer(), key,
                 f"expected an integer, got {raw!r}")
        return int(raw)
    return float(raw)


def _field(cls, name: str, raw, key: str):
    """`raw` converted to the type of `cls`'s field `name` (see `_convert`)."""
    return _convert(typing.get_type_hints(cls)[name], raw, key)


def _build(cls, section: str, values: dict, **given):
    """`cls` from its config section `values`: every field that `given` does
    not set and `values` holds is converted to its annotated type, and
    `cls`'s own ValueError is raised again as a ConfigError on the dotted
    key; the dataclasses open each message with the field's name."""
    fields = dict(given)
    for f in dataclasses.fields(cls):
        if f.name not in fields and f.name in values:
            fields[f.name] = _field(cls, f.name, values[f.name], f"{section}.{f.name}")
    try:
        return cls(**fields)
    except ValueError as exc:
        name = re.match(r"\w*", str(exc)).group()
        key = f"{section}.{name}" if name in fields else section
        raise ConfigError(f"{key}: {exc}") from exc


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

    seed = _field(ExperimentConfig, "seed", tree["seed"], "seed")
    _require(seed >= 0, "seed", f"must be >= 0, got {seed}")
    dataset = _build(DatasetSpec, "dataset", tree["dataset"])
    aug = _build(AugmentationSpec, "augment", tree["augment"])
    _require(aug.jitter_joints < dataset.joints, "augment.jitter_joints",
             f"must be smaller than the joint count {dataset.joints}")
    trainer = _build(TrainerConfig, "trainer", tree["trainer"])
    encoders = _build_encoders(tree, dataset.joints, aug.output_length, trainer.representations)
    return ExperimentConfig(resolved=tree, seed=seed, dataset=dataset, aug=aug,
                            encoders=encoders, trainer=trainer,
                            schedule=_build(Schedule, "trainer", tree["trainer"]),
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
