"""Config resolution rules and the `skelcon` CLI end-to-end on a tiny run."""

import contextlib
import dataclasses
import itertools
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skelcon import cli
from skelcon.augment import AugmentationSpec, _resample_plan
from skelcon.cli import main
from skelcon.contrast import Schedule, TrainerConfig, load_trainer, make_trainer, pretrain
from skelcon.config import (
    DEFAULTS,
    parse_config,
    parse_override,
    resolve_config,
    write_resolved,
)
from skelcon.data import SYNTHETIC_MINIMUMS, generate_synthetic, save_dataset
from skelcon.downstream import FinetuneSchedule, ProbeSchedule, export_embeddings, summarize
from skelcon.encoders import (CHECKPOINT_MAGIC, EncoderConfig, EncoderState, desk_config,
                              init_encoder,
                              load_checkpoint, save_checkpoint, write_json)
from skelcon.errors import ConfigError, ParseError, SchemaError
from skelcon.nn import blas_core

# Overrides that shrink every knob so CLI runs finish in well under a second.
TINY = [
    "dataset.num_classes=3", "dataset.samples_per_class=4", "dataset.frames=16",
    "dataset.joints=5", "augment.output_length=8", "augment.jitter_joints=2",
    "encoders.SEQ.hidden=4", "encoders.SEQ.projection_dim=8",
    "trainer.queue_size=8", "trainer.epochs=2", "trainer.batch_size=4",
]


def _sets(extra=()):
    args = []
    for item in TINY + list(extra):
        args += ["--set", item]
    return args


def _pretrain(tmp_path, name="pre", extra=()):
    out = tmp_path / name
    assert main(["pretrain", "--out", str(out)] + _sets(extra)) == 0
    return out, out / "epoch0002.trainer.json"


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def test_empty_config_resolves_to_reference_defaults():
    config = resolve_config({})
    assert config.seed == 0
    assert config.trainer.tau == 0.07
    assert config.trainer.momentum == 0.999
    assert config.trainer.queue_size == 16384
    assert config.trainer.lr == 0.01
    assert config.trainer.weight_decay == 1e-4
    assert config.schedule.epochs == 450
    assert config.schedule.batch_size == 16
    assert config.aug.l_min == 0.1
    assert config.aug.jitter_joints == 15
    assert config.aug.output_length == 64
    assert config.aug.spatial_mode == "randomized" and config.aug.temporal
    assert config.dataset.num_classes == 5
    assert config.dataset.samples_per_class == 100
    assert config.dataset.joints == 25
    assert set(config.encoders) == {"IMG", "SEQ", "STG"}
    assert config.encoders["SEQ"].feature_dim == 64      # 2 * hidden
    assert all(e.projection_dim == 128 for e in config.encoders.values())
    assert config.trainer.mode == "intra"
    assert config.trainer.representations == ("SEQ",)
    assert config.downstream.rho == 0.1
    assert config.sweep is None


def test_unknown_keys_are_rejected_by_dotted_path():
    with pytest.raises(ConfigError, match="trainer.tua"):
        resolve_config({"trainer": {"tua": 0.05}})
    with pytest.raises(ConfigError, match="augment.jitterr"):
        resolve_config({}, [("augment.jitterr", 3)])
    with pytest.raises(ConfigError, match="bogus"):
        resolve_config({"bogus": 1})


@pytest.mark.parametrize("key,value", [
    ("trainer.tau", -0.5),
    ("augment.l_min", 0.0),
    ("augment.l_min", 1.5),
    ("dataset.train_fraction", 0.99),
    ("trainer.momentum", 1.5),
    ("downstream.rho", 0.0),
    ("downstream.min_accuracy", 2.0),
    ("encoders.SEQ.temporal_kernel", 4),
    ("augment.spatial_mode", "mirror"),
    ("augment.jitter_joints", 0),
    ("augment.output_length", 1),
    ("encoders.SEQ.seq_pooling", "max"),
    ("encoders.SEQ.feature_dim", 20),
    ("encoders.IMG.projection_dim", 1),
    ("trainer.mode", "solo"),
    ("trainer.mode", [1]),
    ("trainer.cross_terms", "ring"),
    ("trainer.queue_size", 0),
    ("trainer.epochs", 0),
    ("trainer.batch_size", 0),
    ("trainer.checkpoint_every", -1),
    ("encoders.STG.depth", 0),
    ("encoders.SEQ.hidden", 0),
    ("encoders.IMG.feature_dim", 1),
    ("encoders.IMG.temporal_kernel", -1),
    ("downstream.probe.decay_epochs", 5),
    ("downstream.finetune.decay_epochs", 5),
    ("downstream.representation", [1]),
    ("downstream.representation", "FOO"),
    ("downstream.checkpoint", 1),
    ("sweep.key", [1]),
    ("trainer.epochs", float("nan")),
    ("trainer.epochs", float("inf")),
    ("seed", -1),
    ("dataset.seed", -1),
    ("downstream.seeds", [-1]),
])
def test_range_violations_name_the_key(key, value, tmp_path):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        resolve_config({}, [(key, value)])
    assert main(["pretrain", "--out", str(tmp_path),
                 "--set", f"{key}={json.dumps(value)}"]) == 2


_DEFAULT = resolve_config({})


@pytest.mark.parametrize("instance,field,value", [
    (TrainerConfig("intra", ("SEQ",)), "lr", -1.0),
    (TrainerConfig("intra", ("SEQ",)), "weight_decay", -1e-4),
    (TrainerConfig("intra", ("SEQ",)), "opt_momentum", 5.0),
    (TrainerConfig("intra", ("SEQ",)), "tau", float("nan")),
    (ProbeSchedule(), "epochs", -3),
    (ProbeSchedule(), "lr", -0.1),
    (ProbeSchedule(), "momentum", 1.5),
    (ProbeSchedule(), "decay_epochs", (50, -1)),
    (ProbeSchedule(), "decay_factor", 2.0),
    (FinetuneSchedule(), "batch_size", 0),
    (FinetuneSchedule(), "epochs", 0),
    (FinetuneSchedule(), "decay_factor", -0.5),
    (_DEFAULT.dataset, "source", "disk"),
    (_DEFAULT.dataset, "frames", 7),
    (_DEFAULT.dataset, "noise", float("nan")),
    (_DEFAULT.dataset, "protocol", "cross-age"),
    (_DEFAULT.dataset, "train_fraction", 0.01),
    (dataclasses.replace(_DEFAULT.dataset, source="file", path="a.skl"), "path", ""),
    (_DEFAULT.downstream, "rho", 1.5),
    (_DEFAULT.downstream, "finetune_mode", "linear"),
    (_DEFAULT.downstream, "seeds", ()),
    (_DEFAULT.downstream, "projector", "tsne"),
    (_DEFAULT.downstream, "min_accuracy", -0.1),
], ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v) else None)
def test_config_dataclasses_reject_out_of_range_values_naming_the_field(instance, field, value):
    with pytest.raises(ValueError, match=f"^{field}"):
        dataclasses.replace(instance, **{field: value})


@pytest.mark.parametrize("name", sorted(SYNTHETIC_MINIMUMS))
def test_generator_and_dataset_spec_share_the_size_floor(name):
    below = {**SYNTHETIC_MINIMUMS, name: SYNTHETIC_MINIMUMS[name] - 1}
    with pytest.raises(ValueError, match=f"^{name}"):
        generate_synthetic(**below, seed=0)
    with pytest.raises(ValueError, match=f"^{name}"):
        dataclasses.replace(_DEFAULT.dataset, **below)
    assert len(generate_synthetic(**SYNTHETIC_MINIMUMS, seed=0)) == 2
    dataclasses.replace(_DEFAULT.dataset, **SYNTHETIC_MINIMUMS)


_ENCODER_GIVEN = {"representation", "joints"}
# (section, the dataclasses built from it, their fields that no key of the
# section sets: the builder gives them, or they keep their dataclass default)
_SECTIONS = [
    ("dataset", lambda c: [c.dataset], set()),
    ("augment", lambda c: [c.aug], set()),
    ("encoders.IMG", lambda c: [c.encoders["IMG"]], _ENCODER_GIVEN | {"seq_pooling"}),
    ("encoders.SEQ", lambda c: [c.encoders["SEQ"]], _ENCODER_GIVEN),
    ("encoders.STG", lambda c: [c.encoders["STG"]], _ENCODER_GIVEN | {"seq_pooling"}),
    ("trainer", lambda c: [c.trainer, c.schedule], set()),
    ("downstream", lambda c: [c.downstream], set()),
    ("downstream.probe", lambda c: [c.downstream.probe], set()),
    ("downstream.finetune", lambda c: [c.downstream.finetune], set()),
]


@pytest.mark.parametrize("section,built,not_in_section", _SECTIONS,
                         ids=[case[0] for case in _SECTIONS])
def test_every_defaults_key_is_a_field_of_the_dataclass_its_section_builds(
        section, built, not_in_section):
    defaults = DEFAULTS
    for part in section.split("."):
        defaults = defaults[part]
    objects = built(_DEFAULT)
    names = [f.name for obj in objects for f in dataclasses.fields(obj)]
    assert len(names) == len(set(names))           # each key builds one field
    assert set(defaults) == set(names) - not_in_section
    for key, value in defaults.items():            # and reaches it
        if not isinstance(value, dict) and (key, value) != ("feature_dim", None):
            got = next(getattr(obj, key) for obj in objects if hasattr(obj, key))
            assert got == (tuple(value) if isinstance(value, list) else value), key


def test_cross_field_validation():
    with pytest.raises(ConfigError, match="jitter_joints"):
        resolve_config({}, [("augment.jitter_joints", 25)])   # joints=25 default
    with pytest.raises(ConfigError, match="feature_dim"):
        resolve_config({"encoders": {"SEQ": {"hidden": 8, "feature_dim": 20}}})
    with pytest.raises(ConfigError, match="encoders.IMG.temporal_kernel"):
        resolve_config({}, [("augment.output_length", 3), ("trainer.mode", "inter"),
                            ("trainer.representations", ["IMG", "SEQ"])])   # kernel 5 > 3
    with pytest.raises(ConfigError, match="representations"):
        resolve_config({"trainer": {"mode": "inter",
                                    "representations": ["SEQ", "STG", "IMG"]}})


def test_temporal_kernel_rule_skips_encoders_the_run_does_not_train(tmp_path):
    """SEQ has no temporal conv, and an IMG or STG section that the trainer
    does not name is never built into a convolution."""
    config = resolve_config({}, [("augment.output_length", 4)])     # intra SEQ
    assert config.aug.output_length == 4
    assert config.encoders["IMG"].temporal_kernel == config.encoders["STG"].temporal_kernel == 5
    assert main(["pretrain", "--out", str(tmp_path)] + _sets(["augment.output_length=4"])) == 0


def test_parse_override_values_are_json_with_string_fallback():
    assert parse_override("trainer.tau=0.05") == ("trainer.tau", 0.05)
    assert parse_override("trainer.epochs=3") == ("trainer.epochs", 3)
    assert parse_override('trainer.representations=["SEQ","STG"]') == (
        "trainer.representations", ["SEQ", "STG"])
    assert parse_override("dataset.protocol=cross-view") == (
        "dataset.protocol", "cross-view")
    assert parse_override("downstream.checkpoint=null") == (
        "downstream.checkpoint", None)
    with pytest.raises(ConfigError):
        parse_override("no-equals-sign")


def test_overrides_change_the_resolved_tree():
    config = resolve_config({}, [("trainer.tau", 0.2),
                                 ("trainer.representations", ["SEQ", "STG"]),
                                 ("trainer.mode", "inter")])
    assert config.trainer.tau == 0.2
    assert config.trainer.mode == "inter"
    assert config.trainer.representations == ("SEQ", "STG")
    assert DEFAULTS["trainer"]["tau"] == 0.07      # defaults untouched


def test_sweep_key_values_and_cells():
    config = resolve_config({"sweep": {"key": "augment.l_min",
                                       "values": [0.1, 0.3]}})
    assert config.sweep.cells == ({"augment.l_min": 0.1}, {"augment.l_min": 0.3})
    explicit = resolve_config({"sweep": {"cells": [{"trainer.tau": 0.1}]}})
    assert explicit.sweep.cells == ({"trainer.tau": 0.1},)
    with pytest.raises(ConfigError, match="sweep"):
        resolve_config({"sweep": {"key": "augment.l_min", "values": [0.1],
                                  "cells": [{"trainer.tau": 0.1}]}})
    with pytest.raises(ConfigError, match="values"):
        resolve_config({"sweep": {"key": "augment.l_min", "values": []}})


def test_parse_config_file_handling(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "missing.json")
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert parse_config(empty).trainer.tau == 0.07
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"trainer": {"tau": 0.5}}))
    config = parse_config(good, [("trainer.lr", 0.123)])
    assert config.trainer.tau == 0.5 and config.trainer.lr == 0.123


def test_write_resolved_round_trips(tmp_path):
    config = resolve_config({}, [("trainer.tau", 0.11)])
    path = write_resolved(config, tmp_path)
    assert json.loads(open(path).read()) == config.resolved


@pytest.mark.parametrize("artifact", ["config.json", "run.json", "metrics.json"])
def test_json_artifact_write_that_fails_midway_keeps_the_previous_file(artifact, tmp_path):
    """The bad value sorts last, so the write fails after the keys before it
    reached the file; the previous artifact must survive untouched."""
    config, summary = resolve_config({}), summarize("probe", "random", [0], [0.5])
    writers = {
        "config.json": lambda value: write_resolved(
            dataclasses.replace(config, resolved={**config.resolved, "zz": value}), tmp_path),
        "run.json": lambda value: write_json(tmp_path / "run.json", {"a": 1, "zz": value}),
        "metrics.json": lambda value: write_json(
            tmp_path / "metrics.json", dataclasses.replace(summary, seeds=(value,)).to_record()),
    }
    writers[artifact](0)
    before = (tmp_path / artifact).read_bytes()
    with pytest.raises(TypeError, match="not JSON serializable"):
        writers[artifact](object())
    assert (tmp_path / artifact).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [artifact]


def _write_embeddings(tmp_path, monkeypatch, fail):
    """`export_embeddings`; with `fail`, the last sample's label is no integer."""
    ds = generate_synthetic(2, 3, 16, 5, seed=1)
    samples = ds.samples[:-1] + [dataclasses.replace(ds.samples[-1],
                                                     label="x" if fail else 1)]
    state = init_encoder(desk_config("SEQ", 5, hidden=4, projection_dim=8), seed=0)
    with pytest.raises(ValueError, match="'x'") if fail else contextlib.nullcontext():
        export_embeddings(state, samples, ds.bones, tmp_path / "embeddings.jsonl",
                          crop_length=8)


def _write_preview(tmp_path, monkeypatch, fail):
    """`skelcon augment-preview`; with `fail`, the last view cannot be made."""
    if fail:
        views, apply_view = itertools.count(1), cli.apply_view

        def failing(*args):
            if next(views) == 8:          # 4 previewed samples, 2 views each
                raise ValueError("view failed")
            return apply_view(*args)
        monkeypatch.setattr(cli, "apply_view", failing)
    assert main(["augment-preview", "--out", str(tmp_path)] + _sets()) == (3 if fail else 0)


def _write_dataset(tmp_path, monkeypatch, fail):
    """`save_dataset`; with `fail`, the last sample's label cannot be written."""
    ds = generate_synthetic(2, 3, 16, 5, seed=1)
    if fail:
        ds.samples[-1] = dataclasses.replace(ds.samples[-1], label=object())
    with pytest.raises(TypeError, match="not JSON serializable") if fail \
            else contextlib.nullcontext():
        save_dataset(ds, tmp_path / "dataset.skl")


@pytest.mark.parametrize("artifact,write", [("embeddings.jsonl", _write_embeddings),
                                            ("preview.jsonl", _write_preview),
                                            ("dataset.skl", _write_dataset)],
                         ids=["embeddings.jsonl", "preview.jsonl", "dataset"])
def test_jsonl_artifact_write_that_fails_midway_keeps_the_previous_file(
        artifact, write, tmp_path, monkeypatch):
    """The last record fails after the records before it were written; the
    previous artifact must survive untouched, with no temporary file left."""
    write(tmp_path, monkeypatch, fail=False)
    before = (tmp_path / artifact).read_bytes()
    write(tmp_path, monkeypatch, fail=True)
    assert (tmp_path / artifact).read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


def test_run_id_depends_on_config_and_subcommand():
    a = resolve_config({})
    b = resolve_config({}, [("trainer.tau", 0.2)])
    assert a.run_id("probe") == resolve_config({}).run_id("probe")
    assert a.run_id("probe") != a.run_id("retrieve")
    assert a.run_id("probe") != b.run_id("probe")


# ---------------------------------------------------------------------------
# CLI end-to-end (tiny synthetic runs)
# ---------------------------------------------------------------------------

def test_cli_pretrain_writes_replayable_artifacts(tmp_path):
    out, manifest = _pretrain(tmp_path)
    assert manifest.exists()
    assert (out / "config.json").exists()
    records = [json.loads(l) for l in (out / "loss_log.jsonl").read_text().splitlines()]
    assert len(records) == 4              # 2 epochs x 2 batches of 4 over 6 train
    assert all(np.isfinite(r["total"]) for r in records)
    assert [r["step"] for r in records] == [0, 1, 2, 3]
    run = json.loads((out / "run.json").read_text())
    assert run["subcommand"] == "pretrain"
    assert run["format_versions"] == {"dataset": "SKL1", "checkpoint": "CKPT1",
                                      "trainer": "TRAINER1"}
    assert "loss_log.jsonl" in run["artifacts"]
    env = run["environment"]
    assert set(env) == {"python", "numpy", "blas", "blas_version", "blas_core",
                        "usable_cpus", "blas_threads", "conv_workers"}
    assert env["numpy"] == np.__version__ and env["conv_workers"] >= 1
    assert env["blas_core"] == blas_core()
    assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                        "OMP_NUM_THREADS"}


def test_cli_pretrain_is_bitwise_reproducible(tmp_path):
    out1, _ = _pretrain(tmp_path, "run1")
    out2, _ = _pretrain(tmp_path, "run2")
    for name in ("loss_log.jsonl", "config.json", "run.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cli_probe_retrieve_export_preview(tmp_path):
    _, manifest = _pretrain(tmp_path)

    probe = tmp_path / "probe"
    assert main(["probe", "--out", str(probe), "--checkpoint", str(manifest)]
                + _sets()) == 0
    record = json.loads((probe / "metrics.json").read_text())
    assert record["task"] == "probe" and record["total"] == 6
    assert record["correct"] == round(record["mean"] * record["total"])
    assert "per_class" in record and record["protocol"] == "random"

    retrieve = tmp_path / "retrieve"
    assert main(["retrieve", "--out", str(retrieve), "--checkpoint", str(manifest)]
                + _sets()) == 0
    assert json.loads((retrieve / "metrics.json").read_text())["task"] == "retrieve/knn-1"

    export = tmp_path / "export"
    assert main(["export", "--out", str(export), "--checkpoint", str(manifest)]
                + _sets(["downstream.projector=pca2d"])) == 0
    rows = [json.loads(l) for l in (export / "embeddings.jsonl").read_text().splitlines()]
    assert len(rows) == 6                 # test split size
    assert all(len(r["vector"]) == 8 and len(r["xy"]) == 2 for r in rows)

    preview = tmp_path / "preview"
    assert main(["augment-preview", "--out", str(preview)] + _sets()) == 0
    views = [json.loads(l) for l in (preview / "preview.jsonl").read_text().splitlines()]
    assert len(views) == 4
    for record in views:
        assert [v["role"] for v in record["views"]] == ["query", "key"]
        for v in record["views"]:
            assert len(v["coords"]) == 8  # resampled to output_length
            assert v["kind"] in ("pose", "jitter", "none")


def test_cli_finetune_both_modes(tmp_path, capsys):
    _, manifest = _pretrain(tmp_path)
    extra = ["downstream.rho=0.5", "downstream.seeds=[0,1]",
             "downstream.finetune.epochs=2", "downstream.finetune.batch_size=4"]

    semi = tmp_path / "semi"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # tiny classes force the plain draw
        assert main(["finetune", "--out", str(semi), "--checkpoint", str(manifest)]
                    + _sets(extra)) == 0
    record = json.loads((semi / "metrics.json").read_text())
    assert record["task"] == "finetune/semi-supervised/rho=0.5"
    assert len(record["per_seed"]) == 2

    solo = tmp_path / "solo"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["finetune", "--out", str(solo)]
                    + _sets(extra + ["downstream.finetune_mode=supervised-only"])) == 0
    assert json.loads((solo / "metrics.json").read_text())["task"].startswith(
        "finetune/supervised-only")

    # supervised-only trains a fresh encoder: a checkpoint is a config error
    refused = tmp_path / "solo_with_checkpoint"
    assert main(["finetune", "--out", str(refused), "--checkpoint", str(manifest)]
                + _sets(extra + ["downstream.finetune_mode=supervised-only"])) == 2
    assert "config error: downstream.checkpoint" in capsys.readouterr().err
    assert not refused.exists()


def test_cli_refuses_a_representation_the_checkpoint_does_not_hold(tmp_path, capsys):
    out, manifest = _pretrain(tmp_path)
    ckpt = out / "epoch0002.SEQ.query.ckpt"
    for path in (manifest, ckpt):
        assert main(["probe", "--out", str(tmp_path / "img"), "--checkpoint", str(path)]
                    + _sets(["downstream.representation=IMG"])) == 2
        assert "config error: downstream.representation" in capsys.readouterr().err
    assert main(["probe", "--out", str(tmp_path / "seq"), "--checkpoint", str(ckpt)]
                + _sets(["downstream.representation=SEQ"])) == 0


def test_cli_exit_codes(tmp_path, capsys):
    # 2: configuration errors, before any work happens; --out is never created
    outs = (tmp_path / f"refused{i}" for i in itertools.count())

    def refused(argv, message):
        out = next(outs)
        assert main([argv[0], "--out", str(out)] + argv[1:]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    refused(["pretrain", "--set", "trainer.bogus=1"], "unknown config key 'trainer.bogus'")
    refused(["probe"] + _sets(), "downstream.checkpoint")                  # no checkpoint
    refused(["probe", "--checkpoint", str(tmp_path / "missing.ckpt")] + _sets(),
            "downstream.checkpoint")
    refused(["probe", "--checkpoint", str(tmp_path)] + _sets(),           # a directory
            "downstream.checkpoint")
    refused(["probe", "--config", str(tmp_path / "nope.json")] + _sets(),
            "config file not found")
    refused(["pretrain"] + _sets(["dataset.source=file",
                                  f"dataset.path={tmp_path / 'missing.skl'}"]),
            "dataset.path")
    refused(["pretrain", "--resume", str(tmp_path / "missing.trainer.json")] + _sets(),
            "--resume")
    refused(["pretrain", "--resume", str(tmp_path)] + _sets(), "--resume")   # a directory

    # 3: runtime failure (corrupt checkpoint payload), still before --out is made
    corrupt = tmp_path / "corrupt.ckpt"
    corrupt.write_bytes(b"not a checkpoint at all")
    assert main(["probe", "--out", str(tmp_path / "e"),
                 "--checkpoint", str(corrupt)] + _sets()) == 3
    assert not (tmp_path / "e").exists()

    # 4: metrics below the configured acceptance floor (observed accuracy 0.5)
    _, manifest = _pretrain(tmp_path)
    gated = tmp_path / "gated"
    assert main(["probe", "--out", str(gated), "--checkpoint", str(manifest)]
                + _sets(["downstream.min_accuracy=0.9"])) == 4
    record = json.loads((gated / "metrics.json").read_text())
    assert 0.0 < record["mean"] < 0.9     # metrics still written before gating


_NO_STEP = b'{"config": {}, "params": {}}'
_NO_PARAMS = b'{"config": {"representation": "SEQ", "joints": 5}, "params": {}, "step": 0}'


@pytest.mark.parametrize("content", [
    CHECKPOINT_MAGIC + b"\x00",
    CHECKPOINT_MAGIC + struct.pack("<I", len(_NO_STEP)) + _NO_STEP,
    CHECKPOINT_MAGIC + struct.pack("<I", len(_NO_PARAMS)) + _NO_PARAMS,
], ids=["cut-header", "no-step", "no-params"])
def test_cli_exits_3_on_a_malformed_checkpoint(tmp_path, capsys, content):
    path = tmp_path / "enc.ckpt"
    path.write_bytes(content)
    assert main(["probe", "--out", str(tmp_path / "p"), "--checkpoint", str(path)]
                + _sets()) == 3
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_cli_exits_3_on_a_checkpoint_parameter_that_is_not_finite(tmp_path, capsys, value):
    state = init_encoder(desk_config("SEQ", 5, hidden=4, projection_dim=8), seed=0)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)                      # finite parameters load as saved
    assert {k: v.tobytes() for k, v in loaded.params.items()} == \
        {k: v.tobytes() for k, v in state.params.items()}
    state.params["gru0.bwd.u"][1, 2] = value
    save_checkpoint(state, path)
    with pytest.raises(ParseError) as caught:
        load_checkpoint(path)
    assert str(path) in str(caught.value) and "'params.gru0.bwd.u'" in str(caught.value)
    assert main(["probe", "--out", str(tmp_path / "p"), "--checkpoint", str(path)]
                + _sets()) == 3
    assert "ParseError" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_bundle(tmp_path_factory):
    """A TINY SEQ pretraining run directory, shared by the mutation tests."""
    out, _ = _pretrain(tmp_path_factory.mktemp("bundle"))
    return out


def _edit_manifest(edit):
    def mutate(manifest_path, aux_path):
        record = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps(edit(record)))
    return mutate


def _edit_aux(edit):
    def mutate(manifest_path, aux_path):
        with np.load(aux_path) as aux:
            arrays = dict(aux)
        edit(arrays)
        with open(aux_path, "wb") as fh:
            np.savez(fh, **arrays)
    return mutate


def _cut_aux(manifest_path, aux_path):
    aux_path.write_bytes(aux_path.read_bytes()[:100])


def _key_of_another_config(manifest_path, aux_path):
    """A well-formed key checkpoint whose config builds the same parameters
    as the query's but differs from it."""
    path = manifest_path.parent / json.loads(manifest_path.read_text())["encoders"]["SEQ"]["key"]
    key = load_checkpoint(path)
    save_checkpoint(EncoderState(dataclasses.replace(key.config, seq_pooling="mean"),
                                 key.params), path)


def _drop(key):
    return lambda record: {k: v for k, v in record.items() if k != key}


_VELOCITY = "velocity.SEQ.gru0.fwd.w"
_BUFFER = "queue.SEQ.buffer"


def _queue_of_32_rows(arrays):
    """A full, valid queue four times the `trainer.queue_size` of 8."""
    arrays[_BUFFER] = np.concatenate([arrays[_BUFFER]] * 4)
    arrays["queue.SEQ.size"], arrays["queue.SEQ.head"] = np.array(32), np.array(0)


# (id, mutation, error, file the message names, key the message names)
_TRAINER_MUTATIONS = [
    ("manifest-list", _edit_manifest(lambda record: [record]), ParseError,
     "manifest", "JSON list"),
    ("no-aux", _edit_manifest(_drop("aux")), ParseError, "manifest", "'aux'"),
    ("trainer-no-representations", _edit_manifest(
        lambda record: {**record, "trainer": _drop("representations")(record["trainer"])}),
     ParseError, "manifest", "'trainer'"),
    ("bones-not-pairs", _edit_manifest(lambda record: {**record, "bones": [[0, 1.5]]}),
     ParseError, "manifest", "'bones'"),
    *((f"negative-{key}", _edit_manifest(lambda record, key=key: {**record, key: -1}),
       ParseError, "manifest", f"'{key}'") for key in ("seed", "epoch", "step")),
    ("no-encoder", _edit_manifest(lambda record: {**record, "encoders": {}}),
     SchemaError, "manifest", "'encoders.SEQ'"),
    ("key-config", _key_of_another_config, SchemaError, "manifest", "'encoders.SEQ'"),
    ("aux-cut", _cut_aux, ParseError, "aux", "aux blob"),
    ("velocity-missing", _edit_aux(lambda a: a.pop(_VELOCITY)), SchemaError,
     "aux", "gru0.fwd.w"),
    ("velocity-extra", _edit_aux(lambda a: a.update({"velocity.SEQ.extra": a[_VELOCITY]})),
     SchemaError, "aux", "'velocity.SEQ.extra'"),
    ("velocity-shape", _edit_aux(lambda a: a.update({_VELOCITY: a[_VELOCITY][:-1]})),
     SchemaError, "aux", _VELOCITY),
    ("velocity-nan", _edit_aux(lambda a: a[_VELOCITY].fill(np.nan)), SchemaError,
     "aux", _VELOCITY),
    ("velocity-int", _edit_aux(lambda a: a.update({_VELOCITY: a[_VELOCITY].astype(np.int32)})),
     SchemaError, "aux", _VELOCITY),
    ("queue-rows", _edit_aux(_queue_of_32_rows), SchemaError, "aux", _BUFFER),
    ("queue-width", _edit_aux(lambda a: a.update({_BUFFER: np.pad(a[_BUFFER], ((0, 0), (0, 8)))})),
     SchemaError, "aux", _BUFFER),
]


@pytest.mark.parametrize("mutate,error,names_file,names_key",
                         [m[1:] for m in _TRAINER_MUTATIONS],
                         ids=[m[0] for m in _TRAINER_MUTATIONS])
def test_load_trainer_names_the_file_and_key_of_a_malformed_bundle(
        tmp_path, capsys, tiny_bundle, mutate, error, names_file, names_key):
    bundle = tmp_path / "bundle"
    shutil.copytree(tiny_bundle, bundle)
    manifest = bundle / "epoch0002.trainer.json"
    aux = bundle / "epoch0002.aux.npz"
    mutate(manifest, aux)
    with pytest.raises(error) as caught:
        load_trainer(manifest)
    message = str(caught.value)
    assert str({"manifest": manifest, "aux": aux}[names_file]) in message
    assert names_key in message
    assert main(["probe", "--out", str(tmp_path / "p"), "--checkpoint", str(manifest)]
                + _sets()) == 3
    assert f"error: {error.__name__}" in capsys.readouterr().err


def _edit_checkpoint_config(path, edit):
    """Apply `edit` to the `config` object of the CKPT1 file at `path`,
    keeping its parameter blob."""
    raw = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 4
    (length,) = struct.unpack("<I", raw[len(CHECKPOINT_MAGIC):start])
    manifest = json.loads(raw[start:start + length])
    edit(manifest["config"])
    payload = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(payload)) + payload
                     + raw[start + length:])


def _edit_trainer_manifest(path, section, edit):
    """Apply `edit` to the TRAINER1 manifest at `path`, or to its `section`."""
    record = json.loads(path.read_text())
    edit(record if section is None else record[section])
    path.write_text(json.dumps(record))


# Values of another type for a field of each scalar type: a bool where a
# number belongs, a string, a non-whole float for an int, a number for a bool
# or a string.
_WRONG_TYPE = {int: (True, "x", 1.5), float: (True, "x"), bool: ("x", 1), str: (True, 1.5)}
# (dataclass, its config section, the file that stores it, its section there)
_STORED = [(EncoderConfig, "encoders.SEQ", "epoch0002.SEQ.query.ckpt", "config"),
           (TrainerConfig, "trainer", "epoch0002.trainer.json", "trainer"),
           (AugmentationSpec, "augment", "epoch0002.trainer.json", "aug")]


def _wrong_type_cases():
    for cls, section, name, stored in _STORED:
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            kind, args = hints[field.name], typing.get_args(hints[field.name])
            if type(None) in args:                                  # X | None
                kind = next(k for k in args if k is not type(None))
            for value in _WRONG_TYPE.get(kind, ()):
                yield pytest.param(section, name, stored, field.name, value,
                                   id=f"{stored}.{field.name}={value!r}")


@pytest.mark.parametrize("section,name,stored,field,value", list(_wrong_type_cases()))
def test_each_field_refuses_a_wrong_type_in_the_config_and_in_the_artifact(
        tmp_path, tiny_bundle, section, name, stored, field, value):
    """Every number, bool and str field of the dataclasses a CKPT1 or TRAINER1
    file stores follows one rule wherever it is read: a value of another type
    is a ConfigError naming the config key, and a ParseError naming the file
    and its key there."""
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{field}")):
        resolve_config({}, [(f"{section}.{field}", value)])
    path = tmp_path / name
    shutil.copy(tiny_bundle / name, path)
    if name.endswith(".ckpt"):
        _edit_checkpoint_config(path, lambda config: config.update({field: value}))
        read = load_checkpoint
    else:
        _edit_trainer_manifest(path, stored, lambda config: config.update({field: value}))
        read = load_trainer
    with pytest.raises(ParseError) as caught:
        read(path)
    assert str(path) in str(caught.value) and f"'{stored}.{field}'" in str(caught.value)


def test_cli_resume_continues_from_manifest(tmp_path):
    full, _ = _pretrain(tmp_path, "full", ["trainer.epochs=4"])
    head, manifest = _pretrain(tmp_path, "steps")
    assert main(["pretrain", "--out", str(tmp_path / "steps"),
                 "--resume", str(manifest)]
                + _sets(["trainer.epochs=4"])) == 0
    tail = (tmp_path / "steps" / "epoch0004.trainer.json")
    assert tail.exists()
    straight = [json.loads(l) for l
                in (full / "loss_log.jsonl").read_text().splitlines()]
    resumed = [json.loads(l) for l
               in (tmp_path / "steps" / "loss_log.jsonl").read_text().splitlines()]
    assert resumed == straight


# `pretrain` whose process dies (exit 9, no clean-up) as soon as the epoch-2
# bundle is written, as SIGKILL or the OOM killer would end it.
_DIE_AFTER_EPOCH_2 = """
import os, sys
from skelcon import cli, contrast
save = contrast.save_trainer
def save_then_die(trainer, out_dir, tag=None):
    path = save(trainer, out_dir, tag)
    if trainer.epoch == 2:
        os._exit(9)
    return path
contrast.save_trainer = save_then_die
sys.exit(cli.main(sys.argv[1:]))
"""


def test_cli_resume_from_the_bundle_written_just_before_a_crash(tmp_path):
    every = ["trainer.epochs=3", "trainer.checkpoint_every=1"]
    straight, _ = _pretrain(tmp_path, "straight", every)
    crashed = tmp_path / "crashed"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _DIE_AFTER_EPOCH_2, "pretrain",
                           "--out", str(crashed)] + _sets(every),
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 9, done.stderr[-2000:]
    assert main(["pretrain", "--out", str(crashed), "--resume",
                 str(crashed / "epoch0002.trainer.json")] + _sets(every)) == 0
    assert (crashed / "loss_log.jsonl").read_bytes() == \
        (straight / "loss_log.jsonl").read_bytes()


def _resume_tiny_bundle(tmp_path, tiny_bundle, edit_log):
    bundle = tmp_path / "bundle"
    shutil.copytree(tiny_bundle, bundle)
    log = bundle / "loss_log.jsonl"
    log.write_text(edit_log(log.read_text().splitlines(keepends=True)))
    code = main(["pretrain", "--out", str(bundle), "--resume",
                 str(bundle / "epoch0002.trainer.json")] + _sets(["trainer.epochs=4"]))
    return code, log


@pytest.mark.parametrize("bad_line", ['{"total": 1.0}', '[0]', '{"step": 1.0}', '{not json'],
                         ids=["no-step", "list", "float-step", "not-json"])
def test_cli_resume_names_the_file_and_line_of_a_malformed_loss_record(
        tmp_path, capsys, tiny_bundle, bad_line):
    code, log = _resume_tiny_bundle(tmp_path, tiny_bundle,
                                    lambda lines: "".join([lines[0], bad_line + "\n"] + lines[2:]))
    err = capsys.readouterr().err
    assert code == 3 and "error: ParseError" in err and f"{log}: line 2" in err


def test_cli_resume_drops_a_torn_last_loss_record(tmp_path, tiny_bundle):
    code, log = _resume_tiny_bundle(tmp_path, tiny_bundle,
                                    lambda lines: "".join(lines) + '{"step": 99, "to')
    steps = [json.loads(line)["step"] for line in log.read_text().splitlines()]
    assert code == 0 and steps == list(range(len(steps)))


@pytest.mark.parametrize("edit", [
    lambda lines: "".join(lines[:1] + lines[2:]),                 # step 1 missing
    lambda lines: "".join([lines[1], lines[0]] + lines[2:]),      # steps out of order
    lambda lines: "".join(lines[:2] + lines[1:]),                 # step 1 twice
], ids=["gap", "order", "repeat"])
def test_cli_resume_refuses_a_loss_log_whose_records_are_not_steps_0_to_step(
        tmp_path, capsys, tiny_bundle, edit):
    log = tmp_path / "bundle" / "loss_log.jsonl"
    code, _ = _resume_tiny_bundle(tmp_path, tiny_bundle, edit)
    err = capsys.readouterr().err
    assert code == 3 and "error: ParseError" in err and str(log) in err
    assert log.read_text() == edit((tiny_bundle / "loss_log.jsonl").read_text()
                                   .splitlines(keepends=True))


def test_cli_resume_refuses_a_loss_log_that_another_run_rewrote(tmp_path, capsys):
    """Run A checkpoints every epoch; a fresh run B in the same directory
    rewrites the loss log with its own, shorter history. Resuming A's last
    bundle there must not log A's later steps after B's records."""
    out = tmp_path / "run"
    every = ["trainer.checkpoint_every=1"]
    assert main(["pretrain", "--out", str(out)] + _sets(every)) == 0
    assert main(["pretrain", "--out", str(out)]
                + _sets(every + ["trainer.epochs=1", "trainer.lr=0.05"])) == 0
    b_log = (out / "loss_log.jsonl").read_bytes()
    capsys.readouterr()
    assert main(["pretrain", "--out", str(out), "--resume", str(out / "epoch0002.trainer.json")]
                + _sets(every + ["trainer.epochs=3"])) == 3
    err = capsys.readouterr().err
    assert "error: ParseError" in err and str(out / "loss_log.jsonl") in err
    assert (out / "loss_log.jsonl").read_bytes() == b_log


def _tree(path) -> dict:
    """Every file under `path`, by relative path, with its bytes."""
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


# One run per subcommand that is refused for what it reads, given the
# directory of a TINY pretraining run: (arguments after --out, exit code).
_REFUSALS = {
    "pretrain": (lambda run: ["--resume", str(run / "epoch0002.trainer.json")]
                 + _sets(), 2),                                  # no epochs left
    "probe": (lambda run: ["--checkpoint", str(run / "nope.ckpt")] + _sets(), 2),
    "retrieve": (lambda run: ["--checkpoint", str(run)] + _sets(), 2),      # a directory
    "finetune": (lambda run: ["--checkpoint", str(run / "loss_log.jsonl")]
                 + _sets(), 3),                                  # no checkpoint format
    "export": (lambda run: ["--checkpoint", str(run / "epoch0002.trainer.json")]
               + _sets(["downstream.representation=IMG"]), 2),
    "sweep": (lambda run: _sets(), 2),                           # no grid
    "augment-preview": (lambda run: _sets(["dataset.source=file",
                                           f"dataset.path={run / 'nope.skl'}"]), 2),
}


@pytest.mark.parametrize("into", ["fresh", "pretrain-run"])
@pytest.mark.parametrize("subcommand", sorted(_REFUSALS))
def test_a_refused_run_leaves_out_as_it_found_it(tmp_path, tiny_bundle, subcommand, into):
    """A refused run creates no absent --out, and a directory that holds an
    earlier run keeps every file's bytes."""
    run = tmp_path / "run"
    shutil.copytree(tiny_bundle, run)
    before = _tree(run)
    out = run if into == "pretrain-run" else tmp_path / "fresh"
    arguments, code = _REFUSALS[subcommand]
    assert main([subcommand, "--out", str(out)] + arguments(run)) == code
    assert _tree(run) == before
    assert out == run or not out.exists()


@pytest.mark.parametrize("epochs", [1, 2])
def test_resuming_a_finished_run_is_a_config_error_naming_trainer_epochs(
        tmp_path, capsys, tiny_bundle, epochs):
    run = tmp_path / "run"
    shutil.copytree(tiny_bundle, run)
    before = _tree(run)
    manifest = run / "epoch0002.trainer.json"
    assert main(["pretrain", "--out", str(run), "--resume", str(manifest)]
                + _sets([f"trainer.epochs={epochs}"])) == 2
    assert "config error: trainer.epochs" in capsys.readouterr().err
    assert _tree(run) == before
    sequences = [s.sequence for s in generate_synthetic(3, 4, 16, 5, seed=0).samples]
    with pytest.raises(ValueError, match="already at epoch 2"):   # the library's rule
        pretrain(load_trainer(manifest), sequences, Schedule(epochs=epochs, batch_size=4))


_BUNDLE_FILES = ("epoch0002.trainer.json", "epoch0002.SEQ.query.ckpt",
                 "epoch0002.SEQ.key.ckpt", "epoch0002.aux.npz")


def _probe_and_resume(tiny_bundle, damage):
    """Copy `tiny_bundle` and `damage(copy)`; then a probe from the copy and a
    resume of it end in exit 0, 2 or 3, never in an exception, and a refused
    one leaves its --out as it was."""
    with tempfile.TemporaryDirectory() as tmp:
        run, fresh = Path(tmp) / "run", Path(tmp) / "probe"
        shutil.copytree(tiny_bundle, run)
        damage(run)
        before = _tree(run)
        _resample_plan.cache_clear()      # as in a fresh process: no plan cached for an equal int
        manifest = str(run / "epoch0002.trainer.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["probe", "--out", str(fresh), "--checkpoint", manifest] + _sets())
        assert code in (0, 2, 3)
        assert code == 0 or not fresh.exists()
        assert _tree(run) == before
        code = main(["pretrain", "--out", str(run), "--resume", manifest]
                    + _sets(["trainer.epochs=4"]))
        assert code in (0, 2, 3)
        assert code == 0 or _tree(run) == before


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_damaged_bundle_is_refused_without_writing_out(tiny_bundle, data):
    """A bundle file cut at a drawn byte, or with a drawn bit flipped, is
    probed and resumed as `_probe_and_resume` states."""
    name = data.draw(st.sampled_from(_BUNDLE_FILES), label="file")
    raw = bytearray((tiny_bundle / name).read_bytes())
    if data.draw(st.booleans(), label="cut"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        raw[bit // 8] ^= 1 << (bit % 8)
    _probe_and_resume(tiny_bundle, lambda run: (run / name).write_bytes(bytes(raw)))


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Each field a type edit may hit, as (section of the manifest, or "config" of
# the query CKPT1, or None for the manifest itself; key), and each edit, as a
# function of the field's value (None drops the key).
_BUNDLE_FIELDS = ([("trainer", f.name) for f in dataclasses.fields(TrainerConfig)]
                  + [("aug", f.name) for f in dataclasses.fields(AugmentationSpec)]
                  + [(None, key) for key in ("seed", "epoch", "step", "bones", "encoders",
                                             "aux", "batch_size", "dataset_sha256")]
                  + [("config", f.name) for f in dataclasses.fields(EncoderConfig)])
_FIELD_EDITS = {
    "drop": None,
    "negative": lambda value: -value if _number(value) and value else -1,
    "float": lambda value: float(value) if _number(value) else 1.5,
    "true": lambda value: True, "string": lambda value: "x", "null": lambda value: None,
    "list": lambda value: [1], "object": lambda value: {},
}


@settings(max_examples=30, derandomize=True, deadline=None)
@given(field=st.sampled_from(_BUNDLE_FIELDS), edit=st.sampled_from(sorted(_FIELD_EDITS)))
@example(field=("aug", "output_length"), edit="float")
@example(field=(None, "epoch"), edit="negative")
@example(field=(None, "bones"), edit="list")
@example(field=(None, "encoders"), edit="object")
@example(field=(None, "aux"), edit="string")
@example(field=(None, "batch_size"), edit="negative")
@example(field=(None, "dataset_sha256"), edit="true")
def test_a_bundle_with_an_edited_field_is_refused_without_writing_out(tiny_bundle, field, edit):
    """One field of the bundle's manifest or query CKPT1 (`_BUNDLE_FIELDS`)
    dropped, given another type, or made negative (`_FIELD_EDITS`), is probed
    and resumed as `_probe_and_resume` states."""
    section, key = field

    def mutate(fields):
        if _FIELD_EDITS[edit] is None:
            del fields[key]
        else:
            fields[key] = _FIELD_EDITS[edit](fields[key])

    def damage(run):
        if section == "config":
            _edit_checkpoint_config(run / _BUNDLE_FILES[1], mutate)
        else:
            _edit_trainer_manifest(run / _BUNDLE_FILES[0], section, mutate)
    _probe_and_resume(tiny_bundle, damage)


def test_cli_sweep_grid_and_cell_isolation(tmp_path):
    ok = tmp_path / "sweep_ok"
    assert main(["sweep", "--out", str(ok)]
                + _sets(["sweep.key=augment.l_min", "sweep.values=[0.5,0.9]"])) == 0
    records = [json.loads(l) for l in (ok / "sweep.jsonl").read_text().splitlines()]
    assert [r["status"] for r in records] == ["ok", "ok"]
    for i, r in enumerate(records):
        assert r["index"] == i and r["task"] == "pretrain+probe"
        assert 0.0 <= r["accuracy"] <= 1.0
        assert r["correct"] == round(r["accuracy"] * r["total"])
        assert (ok / "cells" / f"cell{i:02d}" / "config.json").exists()

    mixed = tmp_path / "sweep_mixed"
    assert main(["sweep", "--out", str(mixed)]
                + _sets(["sweep.key=augment.l_min", "sweep.values=[0.5,2.0]"])) == 3
    records = [json.loads(l) for l in (mixed / "sweep.jsonl").read_text().splitlines()]
    assert records[0]["status"] == "ok"            # isolation: first cell survives
    assert records[1]["status"] == "failed"
    assert "l_min" in records[1]["error"]

    with pytest.raises(SystemExit):                # sweep needs a grid definition
        main(["sweep"])                            # argparse: missing --out
    assert main(["sweep", "--out", str(tmp_path / "nogrid")] + _sets()) == 2


def test_cli_sweep_cell_bundles_record_their_training_data(tmp_path):
    """A sweep cell pretrains as `pretrain` does, so its bundle records the
    same dataset hash and can be resumed with the data check."""
    _, manifest = _pretrain(tmp_path)
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--out", str(sweep)]
                + _sets(["sweep.key=trainer.tau", "sweep.values=[0.07]"])) == 0
    cell = json.loads((sweep / "cells" / "cell00" / "epoch0002.trainer.json").read_text())
    assert cell["dataset_sha256"] == json.loads(manifest.read_text())["dataset_sha256"]
    assert len(cell["dataset_sha256"]) == 64


def test_cli_resume_rejects_a_changed_config(tmp_path, capsys):
    out, manifest = _pretrain(tmp_path)
    before = (out / "config.json").read_bytes()
    for drift in (["trainer.tau=0.5"], ["augment.l_min=0.5"],
                  ["encoders.SEQ.hidden=6"], ["trainer.cross_terms=cycle"],
                  ["trainer.batch_size=2"]):
        assert main(["pretrain", "--out", str(out), "--resume", str(manifest)]
                    + _sets(["trainer.epochs=4"] + drift)) == 2
        assert drift[0].split("=")[0] in capsys.readouterr().err
    assert (out / "config.json").read_bytes() == before


@pytest.mark.parametrize("mode,reps", [("inter", ["SEQ", "STG"]),
                                       ("inter3", ["IMG", "SEQ", "STG"])])
def test_inter_modes_refuse_encoders_of_different_projection_widths(tmp_path, capsys,
                                                                     mode, reps):
    """Each representation's queries meet another's keys, so one width must
    hold for all: a ConfigError (exit 2) naming the key before --out is
    made, and a ValueError from `make_trainer` for a library caller."""
    out = tmp_path / "pre"
    extra = [f"trainer.mode={mode}", f"trainer.representations={json.dumps(reps)}",
             "encoders.IMG.projection_dim=8", "encoders.STG.projection_dim=64"]
    assert main(["pretrain", "--out", str(out)] + _sets(extra)) == 2
    assert "config error: encoders.STG.projection_dim: 64 differs" in capsys.readouterr().err
    assert not out.exists()
    encoders = {rep: desk_config(rep, 5, hidden=4, projection_dim=64 if rep == "STG" else 8)
                for rep in reps}
    with pytest.raises(ValueError, match="^STG.projection_dim: 64 differs"):
        make_trainer(TrainerConfig(mode, tuple(reps)), encoders,
                     AugmentationSpec(output_length=8, jitter_joints=2),
                     generate_synthetic(3, 4, 16, 5, seed=0).bones, 0)


def test_cli_resume_refuses_a_bundle_whose_step_is_not_its_epochs(tmp_path, tiny_bundle,
                                                                     capsys):
    """A 2-epoch TINY bundle takes 2 x ceil(6 / 4) = 4 steps; one edited to
    step 3 is a SchemaError naming 'step' (exit 3) that writes nothing, and
    the library's `pretrain` refuses it too."""
    run = tmp_path / "run"
    shutil.copytree(tiny_bundle, run)
    manifest = run / "epoch0002.trainer.json"
    _edit_trainer_manifest(manifest, None, lambda record: record.update(step=3))
    before = _tree(run)
    assert main(["pretrain", "--out", str(run), "--resume", str(manifest)]
                + _sets(["trainer.epochs=4"])) == 3
    err = capsys.readouterr().err
    assert f"error: SchemaError: {manifest}: manifest 'step' is 3" in err
    assert "take 4 steps" in err
    assert _tree(run) == before
    sequences = [s.sequence for s in generate_synthetic(3, 4, 16, 5, seed=0).samples[:6]]
    with pytest.raises(SchemaError, match="manifest 'step' is 3"):
        pretrain(load_trainer(manifest), sequences, Schedule(epochs=4, batch_size=4))


def test_cli_refuses_a_negative_seed_flag_before_writing_anything(tmp_path, capsys):
    out = tmp_path / "pre"
    assert main(["pretrain", "--out", str(out), "--seed", "-1"] + _sets()) == 2
    assert "config error: seed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_resume_refuses_other_training_data(tmp_path, capsys):
    out, _ = _pretrain(tmp_path, extra=["trainer.epochs=1"])
    manifest = out / "epoch0001.trainer.json"
    before = (out / "config.json").read_bytes()
    for drift in (["dataset.noise=0.5"], ["dataset.seed=7"], ["dataset.train_fraction=0.6"]):
        assert main(["pretrain", "--out", str(out), "--resume", str(manifest)]
                    + _sets(["trainer.epochs=2"] + drift)) == 2
        assert "config error: dataset" in capsys.readouterr().err
    assert (out / "config.json").read_bytes() == before
    assert not (out / "epoch0002.trainer.json").exists()


def test_cli_resume_of_a_manifest_without_a_dataset_hash_is_not_checked_for_it(tmp_path):
    """Older TRAINER1 manifests do not record the training data; they resume
    as before, and the bundles written after the resume record it."""
    out, _ = _pretrain(tmp_path, extra=["trainer.epochs=1"])
    manifest = out / "epoch0001.trainer.json"
    record = json.loads(manifest.read_text())
    recorded = record.pop("dataset_sha256")
    manifest.write_text(json.dumps(record))
    assert main(["pretrain", "--out", str(out), "--resume", str(manifest)]
                + _sets(["trainer.epochs=2", "dataset.noise=0.5"])) == 0
    resumed = json.loads((out / "epoch0002.trainer.json").read_text())["dataset_sha256"]
    assert len(recorded) == len(resumed) == 64 and resumed != recorded


def test_cli_reports_running_out_of_memory_as_a_runtime_failure(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 466. TiB for an array")
    monkeypatch.setattr(cli.contrast, "make_trainer", no_memory)
    assert main(["pretrain", "--out", str(tmp_path / "pre")] + _sets()) == 3
    assert "error: MemoryError: Unable to allocate" in capsys.readouterr().err


def test_cli_resume_of_a_manifest_without_a_batch_size_is_not_checked_for_it(tmp_path):
    """Older TRAINER1 manifests do not record the batch size; they resume
    as before."""
    out, manifest = _pretrain(tmp_path)
    record = json.loads(manifest.read_text())
    assert record.pop("batch_size") == 4
    manifest.write_text(json.dumps(record))
    assert main(["pretrain", "--out", str(out), "--resume", str(manifest)]
                + _sets(["trainer.epochs=3", "trainer.batch_size=2"])) == 0


def test_cli_refuses_a_dataset_file_whose_joint_count_is_not_the_config_s(tmp_path, capsys):
    path = tmp_path / "five_joints.skl"
    save_dataset(generate_synthetic(3, 4, 16, 5, seed=0), path)
    out = tmp_path / "pre"
    assert main(["pretrain", "--out", str(out)]
                + _sets(["dataset.source=file", f"dataset.path={path}",
                         "dataset.joints=25"])) == 2
    err = capsys.readouterr().err
    assert "config error: dataset.joints" in err and str(path) in err and "J=5" in err
    assert not (out / "loss_log.jsonl").exists()


def _unlabeled_dataset(tmp_path):
    ds = generate_synthetic(3, 4, 16, 5, seed=0)
    ds.samples[1] = dataclasses.replace(ds.samples[1], label=None)
    path = tmp_path / "partly_labeled.skl"
    save_dataset(ds, path)
    return ["dataset.source=file", f"dataset.path={path}",
            "downstream.rho=0.5", "downstream.seeds=[0]",
            "downstream.finetune.epochs=1"]


@pytest.mark.parametrize("task", ["probe", "retrieve", "finetune"])
def test_cli_scoring_tasks_refuse_unlabeled_samples(tmp_path, capsys, task):
    _, manifest = _pretrain(tmp_path)
    extra = _unlabeled_dataset(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([task, "--out", str(tmp_path / task), "--checkpoint", str(manifest)]
                    + _sets(extra))
    assert code == 3
    assert "DegenerateTaskError" in capsys.readouterr().err
    assert not (tmp_path / task).exists()


@pytest.mark.parametrize("extra", [
    ["trainer.queue_size=2"],
    ["trainer.queue_size=3", "trainer.mode=inter", 'trainer.representations=["SEQ","STG"]',
     "encoders.STG.hidden=4", "encoders.STG.projection_dim=8"],
    ["trainer.queue_size=5", "trainer.batch_size=100"],        # clipped to the 6 sequences
])
def test_cli_refuses_a_queue_smaller_than_a_batch_before_writing(tmp_path, capsys, extra):
    out = tmp_path / "pre"
    assert main(["pretrain", "--out", str(out)] + _sets(extra)) == 2
    err = capsys.readouterr().err
    assert "config error: trainer.queue_size: " in err and "cannot hold a batch" in err
    assert not out.exists()


def test_cli_trains_with_a_batch_larger_than_the_data_if_the_queue_holds_the_data(tmp_path):
    _pretrain(tmp_path, extra=["trainer.queue_size=6", "trainer.batch_size=100"])


def test_a_sweep_cell_whose_queue_cannot_hold_a_batch_is_a_failed_cell(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out)]
                + _sets(["sweep.key=trainer.queue_size", "sweep.values=[8,2]"])) == 3
    records = [json.loads(l) for l in (out / "sweep.jsonl").read_text().splitlines()]
    assert [r["status"] for r in records] == ["ok", "failed"]
    assert records[1]["error"].startswith("ConfigError: trainer.queue_size: ")
    assert not (out / "cells" / "cell01").exists()


def test_cli_refuses_a_labeled_subset_of_one_class_before_writing(tmp_path, capsys):
    _, manifest = _pretrain(tmp_path)
    out = tmp_path / "finetune"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # rho leaves classes empty: a plain draw
        code = main(["finetune", "--out", str(out), "--checkpoint", str(manifest)]
                    + _sets(["downstream.rho=0.01", "downstream.finetune.epochs=1"]))
    assert code == 3
    assert ("error: DegenerateTaskError: finetune needs >= 2 classes, labeled subset has 1"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_export_keeps_unlabeled_samples(tmp_path):
    _, manifest = _pretrain(tmp_path)
    extra = _unlabeled_dataset(tmp_path) + ["dataset.train_fraction=0.05"]
    out = tmp_path / "export"
    assert main(["export", "--out", str(out), "--checkpoint", str(manifest)]
                + _sets(extra)) == 0
    labels = [json.loads(line)["label"]
              for line in (out / "embeddings.jsonl").read_text().splitlines()]
    assert None in labels
    _pretrain(tmp_path, "unlabeled", extra)            # pretraining reads no labels


_TWO_SAMPLES = ["dataset.num_classes=2", "dataset.samples_per_class=1"]


@pytest.mark.parametrize("task,fraction,side", [
    ("pretrain", 0.05, "training"), ("probe", 0.05, "training"),
    ("retrieve", 0.05, "training"), ("finetune", 0.05, "training"),
    ("probe", 0.95, "test"), ("retrieve", 0.95, "test"),
    ("finetune", 0.95, "test"), ("export", 0.95, "test"),
])
def test_cli_refuses_an_empty_split_side_before_writing(tmp_path, tiny_bundle, capsys,
                                                        task, fraction, side):
    """Two samples split 0.05/0.95 leave the training side empty, and
    0.95/0.05 the test side: a task that reads that side is a config error
    naming the split fraction, and `--out` is never made."""
    out = tmp_path / task
    argv = [task, "--out", str(out)] + _sets(_TWO_SAMPLES + [f"dataset.train_fraction={fraction}"])
    if task != "pretrain":
        argv += ["--checkpoint", str(tiny_bundle / "epoch0002.trainer.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dataset.train_fraction: the random split of 2 "
                          f"samples leaves the {side} side empty, and {task} reads it")
    assert not out.exists()


@pytest.mark.parametrize("task,fraction", [("pretrain", 0.95), ("export", 0.05)])
def test_cli_runs_a_task_whose_own_split_side_is_nonempty(tmp_path, tiny_bundle, task,
                                                          fraction):
    """Pretraining reads no test side and export no training side."""
    argv = [task, "--out", str(tmp_path / task)] + _sets(
        _TWO_SAMPLES + [f"dataset.train_fraction={fraction}"])
    if task != "pretrain":
        argv += ["--checkpoint", str(tiny_bundle / "epoch0002.trainer.json")]
    assert main(argv) == 0
