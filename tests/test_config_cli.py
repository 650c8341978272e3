"""Config resolution rules and the `skelcon` CLI end-to-end on a tiny run."""

import dataclasses
import json
import struct
import warnings

import numpy as np
import pytest

from skelcon import cli
from skelcon.cli import main
from skelcon.config import (
    DEFAULTS,
    parse_config,
    parse_override,
    resolve_config,
    write_resolved,
)
from skelcon.data import generate_synthetic, save_dataset
from skelcon.downstream import summarize, write_report
from skelcon.encoders import CHECKPOINT_MAGIC
from skelcon.errors import ConfigError

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
])
def test_range_violations_name_the_key(key, value, tmp_path):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        resolve_config({}, [(key, value)])
    assert main(["pretrain", "--out", str(tmp_path),
                 "--set", f"{key}={json.dumps(value)}"]) == 2


def test_cross_field_validation():
    with pytest.raises(ConfigError, match="jitter_joints"):
        resolve_config({}, [("augment.jitter_joints", 25)])   # joints=25 default
    with pytest.raises(ConfigError, match="feature_dim"):
        resolve_config({"encoders": {"SEQ": {"hidden": 8, "feature_dim": 20}}})
    with pytest.raises(ConfigError, match="temporal_kernel"):
        resolve_config({}, [("augment.output_length", 3)])    # kernel 5 > 3
    with pytest.raises(ConfigError, match="representations"):
        resolve_config({"trainer": {"mode": "inter",
                                    "representations": ["SEQ", "STG", "IMG"]}})


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
        "run.json": lambda value: cli._write_json(tmp_path, "run.json", {"a": 1, "zz": value}),
        "metrics.json": lambda value: write_report(
            dataclasses.replace(summary, seeds=(value,)), tmp_path / "metrics.json"),
    }
    writers[artifact](0)
    before = (tmp_path / artifact).read_bytes()
    with pytest.raises(TypeError, match="not JSON serializable"):
        writers[artifact](object())
    assert (tmp_path / artifact).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [artifact]


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


def test_cli_pretrain_is_bitwise_reproducible(tmp_path):
    out1, _ = _pretrain(tmp_path, "run1")
    out2, _ = _pretrain(tmp_path, "run2")
    assert (out1 / "loss_log.jsonl").read_bytes() == (out2 / "loss_log.jsonl").read_bytes()
    assert (out1 / "config.json").read_bytes() == (out2 / "config.json").read_bytes()


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


def test_cli_finetune_both_modes(tmp_path):
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


def test_cli_exit_codes(tmp_path):
    # 2: configuration errors, before any work happens
    assert main(["pretrain", "--out", str(tmp_path / "a"),
                 "--set", "trainer.bogus=1"]) == 2
    assert main(["probe", "--out", str(tmp_path / "b")] + _sets()) == 2   # no checkpoint
    assert main(["probe", "--out", str(tmp_path / "c"),
                 "--checkpoint", str(tmp_path / "missing.ckpt")] + _sets()) == 2
    assert main(["probe", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "d")] + _sets()) == 2

    # 3: runtime failure (corrupt checkpoint payload)
    corrupt = tmp_path / "corrupt.ckpt"
    corrupt.write_bytes(b"not a checkpoint at all")
    assert main(["probe", "--out", str(tmp_path / "e"),
                 "--checkpoint", str(corrupt)] + _sets()) == 3

    # 4: metrics below the configured acceptance floor (observed accuracy 0.5)
    _, manifest = _pretrain(tmp_path)
    gated = tmp_path / "gated"
    assert main(["probe", "--out", str(gated), "--checkpoint", str(manifest)]
                + _sets(["downstream.min_accuracy=0.9"])) == 4
    record = json.loads((gated / "metrics.json").read_text())
    assert 0.0 < record["mean"] < 0.9     # metrics still written before gating


_NO_STEP = b'{"config": {}, "params": {}}'


@pytest.mark.parametrize("content", [
    CHECKPOINT_MAGIC + b"\x00",
    CHECKPOINT_MAGIC + struct.pack("<I", len(_NO_STEP)) + _NO_STEP,
], ids=["cut-header", "no-step"])
def test_cli_exits_3_on_a_malformed_checkpoint(tmp_path, capsys, content):
    path = tmp_path / "enc.ckpt"
    path.write_bytes(content)
    assert main(["probe", "--out", str(tmp_path / "p"), "--checkpoint", str(path)]
                + _sets()) == 3
    assert "ParseError" in capsys.readouterr().err


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


def test_cli_resume_rejects_a_changed_config(tmp_path, capsys):
    out, manifest = _pretrain(tmp_path)
    before = (out / "config.json").read_bytes()
    for drift in (["trainer.tau=0.5"], ["augment.l_min=0.5"],
                  ["encoders.SEQ.hidden=6"], ["trainer.cross_terms=cycle"]):
        assert main(["pretrain", "--out", str(out), "--resume", str(manifest)]
                    + _sets(["trainer.epochs=4"] + drift)) == 2
        assert drift[0].split("=")[0] in capsys.readouterr().err
    assert (out / "config.json").read_bytes() == before


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
    assert not (tmp_path / task / "metrics.json").exists()


def test_cli_export_keeps_unlabeled_samples(tmp_path):
    _, manifest = _pretrain(tmp_path)
    extra = _unlabeled_dataset(tmp_path) + ["dataset.train_fraction=0.05"]
    out = tmp_path / "export"
    assert main(["export", "--out", str(out), "--checkpoint", str(manifest)]
                + _sets(extra)) == 0
    labels = [json.loads(line)["label"]
              for line in (out / "embeddings.jsonl").read_text().splitlines()]
    assert None in labels
