"""``skelcon`` command-line front-end.

Subcommands: pretrain, probe, retrieve, finetune, sweep, augment-preview,
export.  Every run writes a resolved-config snapshot plus a deterministic
run manifest into ``--out``, so a run can be replayed bit-identically from
its artifact directory alone.

Exit codes: 0 success; 2 config error; 3 runtime failure, out of memory
included; 4 metrics below a configured acceptance threshold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict

import numpy as np

from . import contrast, downstream as ds
from .augment import draw_view, apply_view
from .config import (ExperimentConfig, parse_config, parse_override,
                     resolve_config, write_resolved)
from .data import Dataset
from .encoders import CHECKPOINT_MAGIC, EncoderState, atomic_open, load_checkpoint, write_json
from .errors import ConfigError, SkelconError
from .nn import BLAS_THREAD_VARS, blas_core, conv_workers, usable_cpus

FORMAT_VERSIONS = {"dataset": "SKL1", "checkpoint": "CKPT1", "trainer": "TRAINER1"}


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _build_config(args) -> ExperimentConfig:
    overrides = [parse_override(s) for s in (args.set or [])]
    if args.seed is not None:
        overrides.append(("seed", int(args.seed)))
    if getattr(args, "checkpoint", None):
        overrides.append(("downstream.checkpoint", args.checkpoint))
    if args.config is not None:
        return parse_config(args.config, overrides)
    return resolve_config({}, overrides)


def _load(config: ExperimentConfig):
    """Load and split the data: (dataset, split, train, test)."""
    dataset = config.dataset.load()
    split = config.dataset.split(dataset)
    return (dataset, split, dataset.subset(list(split.train_ids)),
            dataset.subset(list(split.test_ids)))


def _prepare(config: ExperimentConfig, out_dir):
    """Snapshot the resolved config into `out_dir`, then load and split the data."""
    write_resolved(config, out_dir)
    return _load(config)


def _write_json(out_dir, name: str, record: dict) -> None:
    write_json(os.path.join(out_dir, name), record)


def _environment() -> dict:
    """The numeric environment a run's bytes depend on; no timestamps or
    host names, so two runs on one host write the same block."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):      # numpy before 1.26 only prints its configuration
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": blas_core(),
        "usable_cpus": usable_cpus(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "conv_workers": conv_workers(),
    }


def _write_manifest(out_dir, subcommand: str, config: ExperimentConfig,
                    artifacts: list[str]) -> None:
    _write_json(out_dir, "run.json", {
        "run_id": config.run_id(subcommand),
        "subcommand": subcommand,
        "seed": config.seed,
        "format_versions": FORMAT_VERSIONS,
        "artifacts": sorted(artifacts),
        "environment": _environment(),
    })


def _representation(config: ExperimentConfig, offered, source: str) -> str:
    """The encoder a downstream task reads: `downstream.representation`, or
    when that is null the first of `offered`, the representations `source`
    holds. A representation that `source` does not hold is a ConfigError."""
    rep = config.downstream.representation or offered[0]
    if rep not in offered:
        raise ConfigError(f"downstream.representation: {source} has representations "
                          f"{tuple(offered)}, not {rep!r}")
    return rep


def _load_encoder(config: ExperimentConfig, need: str = "checkpoint") -> EncoderState:
    path = config.downstream.checkpoint
    if not path:
        raise ConfigError(
            f"downstream.checkpoint: {need} requires a pretrained encoder; "
            "pass --checkpoint PATH (a .ckpt file or a trainer manifest) "
            "or set downstream.checkpoint")
    if not os.path.exists(path):
        raise ConfigError(f"downstream.checkpoint: no such file: {path}")
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) == CHECKPOINT_MAGIC:
            state = load_checkpoint(path)
            _representation(config, (state.config.representation,), f"checkpoint {path}")
            return state
    trainer = contrast.load_trainer(path)
    return trainer.pairs[_representation(config, trainer.representations,
                                         f"trainer at {path}")].query


def _gate(config: ExperimentConfig, mean_accuracy: float) -> int:
    floor = config.downstream.min_accuracy
    if floor is not None and mean_accuracy < floor:
        print(f"accuracy {mean_accuracy:.4f} below configured floor {floor:.4f}",
              file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _resume(path, config: ExperimentConfig) -> contrast.TrainerState:
    """The trainer saved at `path`, refused if the config would train it
    differently from how it was started; only the epoch count may change. A
    manifest that does not record its batch size is not checked for it."""
    trainer = contrast.load_trainer(path)
    sections = [("trainer", trainer.config, config.trainer), ("augment", trainer.aug, config.aug)]
    sections += [(f"encoders.{rep}", trainer.pairs[rep].query.config, config.encoders[rep])
                 for rep in trainer.representations]
    drift = [f"{name}.{key}" for name, saved, wanted in sections
             for key, value in asdict(saved).items() if asdict(wanted)[key] != value]
    if trainer.batch_size not in (None, config.schedule.batch_size):
        drift.append("trainer.batch_size")
    if trainer.seed != config.seed:
        drift.append("seed")
    if drift:
        raise ConfigError(f"{', '.join(drift)}: differ from the run resumed from {path}")
    return trainer


def _dataset_sha256(sequences) -> str:
    """sha256 over each sequence's coords (dtype, shape and bytes), in order."""
    digest = hashlib.sha256()
    for seq in sequences:
        coords = np.ascontiguousarray(seq.coords)
        digest.update(f"{coords.dtype.str}{coords.shape}".encode())
        digest.update(coords.tobytes())
    return digest.hexdigest()


def _pretrain(config: ExperimentConfig, out_dir, resume=None):
    """Pretrain into `out_dir`, or continue the bundle at `resume`, and
    return the trainer, this call's loss records and `_load`'s data. A
    resumed bundle that records its training data must see the same data
    again; the config is written only after that check passes."""
    trainer = _resume(resume, config) if resume else None
    data = _load(config)
    sequences = [s.sequence for s in data[2]]
    fingerprint = _dataset_sha256(sequences)
    if trainer is not None and trainer.dataset_sha256 not in (None, fingerprint):
        raise ConfigError(f"dataset: the training sequences differ from those of the "
                          f"run resumed from {resume}")
    write_resolved(config, out_dir)
    if trainer is None:
        trainer = contrast.make_trainer(config.trainer, config.encoders,
                                        config.aug, data[0].bones, config.seed)
    trainer.dataset_sha256 = fingerprint
    records = contrast.pretrain(trainer, sequences, config.schedule, out_dir=out_dir)
    return trainer, records, data


def _cmd_pretrain(args, config: ExperimentConfig) -> int:
    trainer, records, _ = _pretrain(config, args.out, args.resume)
    manifest = f"epoch{trainer.epoch:04d}.trainer.json"
    _write_manifest(args.out, "pretrain", config,
                    ["config.json", "loss_log.jsonl", manifest])
    first, last = records[0]["total"], records[-1]["total"]
    print(f"pretrained {config.trainer.mode}({','.join(config.trainer.representations)}) "
          f"for {trainer.epoch} epochs, {trainer.step} steps: "
          f"loss {first:.4f} -> {last:.4f}")
    print(f"trainer manifest: {os.path.join(args.out, manifest)}")
    return 0


def _features(config: ExperimentConfig, state: EncoderState, dataset: Dataset,
              train, test) -> tuple:
    """(train features, train labels, test features, test labels)."""
    crop = config.aug.output_length
    return (*ds.extract_features(state, train, dataset.bones, crop),
            *ds.extract_features(state, test, dataset.bones, crop))


def _report(args, config: ExperimentConfig, task: str, protocol: str, metrics) -> int:
    """Write one scored task's metrics and run manifest, then gate on it."""
    record = ds.summarize(task, protocol, [config.seed], [metrics.accuracy]).to_record()
    record.update(correct=metrics.correct, total=metrics.total,
                  per_class={str(k): v for k, v in metrics.per_class.items()})
    _write_json(args.out, "metrics.json", record)
    _write_manifest(args.out, args.subcommand, config, ["config.json", "metrics.json"])
    print(f"{task.rsplit('/', 1)[-1]} accuracy {metrics.accuracy:.4f} "
          f"({metrics.correct}/{metrics.total})")
    return _gate(config, metrics.accuracy)


def _cmd_probe(args, config: ExperimentConfig) -> int:
    dataset, split, train, test = _prepare(config, args.out)
    state = _load_encoder(config, "probe")
    metrics = ds.linear_probe(*_features(config, state, dataset, train, test),
                              config.downstream.probe)
    return _report(args, config, "probe", split.protocol, metrics)


def _cmd_retrieve(args, config: ExperimentConfig) -> int:
    dataset, split, train, test = _prepare(config, args.out)
    state = _load_encoder(config, "retrieve")
    f_train, y_train, f_test, y_test = _features(config, state, dataset, train, test)
    _, metrics = ds.knn_retrieve(ds.build_index(f_train, y_train), f_test, y_test)
    return _report(args, config, "retrieve/knn-1", split.protocol, metrics)


def _cmd_finetune(args, config: ExperimentConfig) -> int:
    dataset, split, train, test = _prepare(config, args.out)
    mode = config.downstream.finetune_mode
    if mode == "supervised-only":     # a fresh encoder, by default of the first trained
        checkpoint = config.encoders[_representation(
            config, (*config.trainer.representations, *config.encoders), "the config")]
    else:
        checkpoint = _load_encoder(config, "finetune")
    summary = ds.finetune(checkpoint, train, test, dataset.bones,
                          rho=config.downstream.rho, mode=mode,
                          schedule=config.downstream.finetune,
                          seeds=config.downstream.seeds,
                          crop_length=config.aug.output_length,
                          protocol=split.protocol)
    _write_json(args.out, "metrics.json", summary.to_record())
    _write_manifest(args.out, "finetune", config, ["config.json", "metrics.json"])
    print(f"{summary.task}: mean accuracy {summary.mean:.4f} +/- {summary.std:.4f} "
          f"over seeds {list(summary.seeds)}")
    return _gate(config, summary.mean)


def _cmd_export(args, config: ExperimentConfig) -> int:
    dataset, split, _, test = _prepare(config, args.out)
    state = _load_encoder(config, "export")
    path = os.path.join(args.out, "embeddings.jsonl")
    count = ds.export_embeddings(state, test, dataset.bones, path,
                                 projector=config.downstream.projector,
                                 crop_length=config.aug.output_length)
    _write_manifest(args.out, "export", config, ["config.json", "embeddings.jsonl"])
    print(f"exported {count} embeddings ({config.downstream.projector}) to {path}")
    return 0


def _cmd_augment_preview(args, config: ExperimentConfig, count: int = 4) -> int:
    dataset, split, train, _ = _prepare(config, args.out)
    rng = np.random.default_rng((config.seed, 0xA96))
    path = os.path.join(args.out, "preview.jsonl")
    picked = train[:count]
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for sample in picked:
            seq = sample.sequence
            record = {"id": seq.sample_id, "label": sample.label,
                      "original": seq.coords.tolist(), "views": []}
            for role in ("query", "key"):
                draw = draw_view(config.aug, seq.frames, seq.joints, rng)
                view = apply_view(seq, draw, config.aug.output_length)
                record["views"].append({
                    "role": role,
                    "kind": draw.kind,
                    "crop": None if draw.crop is None else asdict(draw.crop),
                    "shear": None if draw.shear is None else asdict(draw.shear),
                    "jitter": None if draw.jitter is None else {
                        "joint_subset": list(draw.jitter.joint_subset),
                        "matrix": np.asarray(draw.jitter.matrix).tolist()},
                    "coords": view.coords.tolist(),
                })
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    _write_manifest(args.out, "augment-preview", config,
                    ["config.json", "preview.jsonl"])
    print(f"wrote {len(picked)} augmented previews to {path}")
    return 0


def _cmd_sweep(args, config: ExperimentConfig) -> int:
    write_resolved(config, args.out)
    if config.sweep is None:
        raise ConfigError("sweep.key: the sweep subcommand needs sweep.key+values "
                          "or sweep.cells in the config")
    sweep_path = os.path.join(args.out, "sweep.jsonl")
    failures = 0
    with open(sweep_path, "w", encoding="utf-8") as fh:
        for i, cell in enumerate(config.sweep.cells):
            cell_dir = os.path.join(args.out, "cells", f"cell{i:02d}")
            record = {"cell": cell, "index": i}
            try:
                cell_config = resolve_config(config.resolved, list(cell.items()))
                trainer, _, (dataset, _, train, test) = _pretrain(cell_config, cell_dir)
                rep = _representation(cell_config, trainer.representations, "the cell's trainer")
                metrics = ds.linear_probe(
                    *_features(cell_config, trainer.pairs[rep].query, dataset, train, test),
                    cell_config.downstream.probe)
                record.update(status="ok", task="pretrain+probe",
                              accuracy=metrics.accuracy,
                              correct=metrics.correct, total=metrics.total)
            except Exception as exc:  # cell isolation: one failure must not stop the grid
                failures += 1
                record.update(status="failed",
                              error=f"{type(exc).__name__}: {exc}")
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            shown = record.get("accuracy")
            print(f"cell {i:02d} {cell}: {record['status']}"
                  + (f" accuracy {shown:.4f}" if shown is not None else ""))
    _write_manifest(args.out, "sweep", config, ["config.json", "sweep.jsonl"])
    if failures:
        print(f"{failures}/{len(config.sweep.cells)} sweep cells failed",
              file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "probe": _cmd_probe,
    "retrieve": _cmd_retrieve,
    "finetune": _cmd_finetune,
    "sweep": _cmd_sweep,
    "augment-preview": _cmd_augment_preview,
    "export": _cmd_export,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelcon",
        description="Contrastive pretraining and evaluation for 3D skeleton sequences.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} task")
        p.add_argument("--config", default=None,
                       help="JSON experiment config (omit for all defaults)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-path config override, repeatable")
        p.add_argument("--out", required=True, help="artifact output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if name in ("probe", "retrieve", "finetune", "export"):
            p.add_argument("--checkpoint", default=None,
                           help="CKPT1 encoder file or TRAINER1 manifest")
        if name == "pretrain":
            p.add_argument("--resume", default=None,
                           help="TRAINER1 manifest to continue from")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        return _COMMANDS[args.subcommand](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SkelconError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
