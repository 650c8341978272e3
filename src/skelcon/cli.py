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
from .data import atomic_open
from .encoders import CHECKPOINT_MAGIC, EncoderConfig, EncoderState, load_checkpoint, write_json
from .errors import ConfigError, SchemaError, SkelconError
from .nn import BLAS_THREAD_VARS, blas_core, conv_workers, usable_cpus

FORMAT_VERSIONS = {"dataset": "SKL1", "checkpoint": "CKPT1", "trainer": "TRAINER1"}
_ENCODER_TASKS = ("probe", "retrieve", "finetune", "export")
_SCORED_TASKS = ("probe", "retrieve", "finetune", "sweep")  # each refuses unlabeled samples
_TRAINING_READERS = ("pretrain", "augment-preview", *_SCORED_TASKS)
# the config key of each `contrast.check_resume` refusal, by the name its ValueError begins with
_RESUME_KEYS = {"sequences": "dataset", "queue_size": "trainer.queue_size",
                "epochs": "trainer.epochs", "batch_size": "trainer.batch_size"}


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


def _load(config: ExperimentConfig, task: str):
    """Load and split the data, (dataset, split, train, test), and check it
    for `task` (a subcommand; a sweep cell pretrains and probes): each split
    side the task reads must be nonempty, and a scored task's samples must be
    labeled throughout (`downstream._scorable`). A protocol the samples lack
    the metadata for is a ConfigError on `dataset.protocol`."""
    dataset = config.dataset.load()
    try:
        split = config.dataset.split(dataset)
    except ValueError as exc:
        raise ConfigError(f"dataset.protocol: {exc}") from None
    data = (dataset, split, dataset.subset(list(split.train_ids)),
            dataset.subset(list(split.test_ids)))
    for side, samples, readers in (("training", data[2], _TRAINING_READERS),
                                   ("test", data[3], (*_ENCODER_TASKS, "sweep"))):
        if task in readers and not samples:
            protocol = config.dataset.protocol
            key = "train_fraction" if protocol == "random" else "protocol"
            raise ConfigError(f"dataset.{key}: the {protocol} split of {len(dataset.samples)} "
                              f"samples leaves the {side} side empty, and {task} reads it")
    if task in _SCORED_TASKS:
        ds._scorable(ds._labels(dataset.samples), task)
    return data


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


def _representation(config: ExperimentConfig, offered, source: str) -> str:
    """The encoder a downstream task reads: `downstream.representation`, or
    when that is null the first of `offered`, the representations `source`
    holds. A representation that `source` does not hold is a ConfigError."""
    rep = config.downstream.representation or offered[0]
    if rep not in offered:
        raise ConfigError(f"downstream.representation: {source} has representations "
                          f"{tuple(offered)}, not {rep!r}")
    return rep


def _encoder(config: ExperimentConfig, task: str) -> EncoderState | EncoderConfig:
    """The encoder `task` starts from, and the one reader of
    `downstream.checkpoint`: the query encoder that the CKPT1 file or trainer
    manifest there holds, or, for supervised-only finetuning, which trains a
    fresh encoder and so refuses a checkpoint, the config of the first
    trained representation."""
    path = config.downstream.checkpoint
    if task == "finetune" and config.downstream.finetune_mode == "supervised-only":
        if path:
            raise ConfigError(f"downstream.checkpoint: supervised-only finetuning trains "
                              f"a fresh encoder, so it takes no checkpoint, got {path}")
        return config.encoders[_representation(
            config, (*config.trainer.representations, *config.encoders), "the config")]
    if not path:
        raise ConfigError(
            f"downstream.checkpoint: {task} requires a pretrained encoder; "
            "pass --checkpoint PATH (a .ckpt file or a trainer manifest) "
            "or set downstream.checkpoint")
    if not os.path.isfile(path):
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


def _trainer(config: ExperimentConfig, out_dir, resume, data) -> tuple:
    """(trainer, kept): the trainer that pretrains into `out_dir` on `data`'s
    training split, a fresh one or the bundle at `resume`, refused if the
    config would train it differently (only the epoch count may change).
    Either way it must pass `contrast.check_resume`, whose `ValueError` is a
    `ConfigError` on the key it names and whose loss-log lines are `kept`,
    and it records the sha256 of its training sequences. The run trains it
    with `contrast._train_epochs`, which does not check it again."""
    sequences = [s.sequence for s in data[2]]
    if not resume:
        trainer = contrast.make_trainer(config.trainer, config.encoders,
                                        config.aug, data[0].bones, config.seed)
    else:
        if not os.path.isfile(resume):
            raise ConfigError(f"--resume: no such file: {resume}")
        trainer = contrast.load_trainer(resume)
        sections = [("trainer", trainer.config, config.trainer),
                    ("augment", trainer.aug, config.aug)]
        sections += [(f"encoders.{rep}", trainer.pairs[rep].query.config, config.encoders[rep])
                     for rep in trainer.representations]
        drift = [f"{name}.{key}" for name, saved, wanted in sections
                 for key, value in asdict(saved).items() if asdict(wanted)[key] != value]
        if trainer.seed != config.seed:
            drift.append("seed")
        if drift:
            raise ConfigError(f"{', '.join(drift)}: differ from the run resumed from {resume}")
    try:
        kept = contrast.check_resume(trainer, sequences, config.schedule, out_dir)
    except ValueError as exc:
        raise ConfigError(f"{_RESUME_KEYS[str(exc).split(' ', 1)[0]]}: {exc}") from None
    except SchemaError as exc:
        raise SchemaError(f"{resume}: {exc}") from None
    if trainer.step == 0 or trainer.dataset_sha256 is None:   # else check_resume compared it
        trainer.dataset_sha256 = contrast.sequences_sha256(sequences)
    return trainer, kept


def _inputs(args, config: ExperimentConfig) -> tuple:
    """Resolve and check everything `args.subcommand` reads, before anything
    is written: (what the run starts from, `_load`'s data). That is the
    encoder of a downstream task (`_encoder`), the trainer of `pretrain` and
    the loss-log lines it keeps (`_trainer`), the grid of `sweep` (each cell
    loads and checks its own data), or None. A finetune's seeds must each
    draw a labeled subset of two classes (`downstream.labeled_subsets`)."""
    if args.subcommand == "sweep":
        if config.sweep is None:
            raise ConfigError("sweep.key: the sweep subcommand needs sweep.key+values "
                              "or sweep.cells in the config")
        return config.sweep, None
    data = _load(config, args.subcommand)
    if args.subcommand == "pretrain":
        return _trainer(config, args.out, args.resume, data), data
    start = _encoder(config, args.subcommand) if args.subcommand in _ENCODER_TASKS else None
    if args.subcommand == "finetune":
        ds.labeled_subsets(ds._labels(data[2]), config.downstream.rho, config.downstream.seeds)
    return start, data


# ---------------------------------------------------------------------------
# subcommands: each returns its exit code and the artifacts it wrote
# ---------------------------------------------------------------------------

def _cmd_pretrain(args, config: ExperimentConfig, start, data):
    trainer, kept = start
    records = contrast._train_epochs(trainer, [s.sequence for s in data[2]],
                                     config.schedule, args.out, kept)
    manifest = f"epoch{trainer.epoch:04d}.trainer.json"
    first, last = records[0]["total"], records[-1]["total"]
    print(f"pretrained {config.trainer.mode}({','.join(config.trainer.representations)}) "
          f"for {trainer.epoch} epochs, {trainer.step} steps: "
          f"loss {first:.4f} -> {last:.4f}")
    print(f"trainer manifest: {os.path.join(args.out, manifest)}")
    return 0, ["loss_log.jsonl", manifest]


def _features(config: ExperimentConfig, state: EncoderState, data) -> tuple:
    """(train features, train labels, test features, test labels)."""
    dataset, _, train, test = data
    crop = config.aug.output_length
    return (*ds.extract_features(state, train, dataset.bones, crop),
            *ds.extract_features(state, test, dataset.bones, crop))


def _report(args, config: ExperimentConfig, task: str, protocol: str, metrics):
    """Write one scored task's metrics, then gate on it."""
    record = ds.summarize(task, protocol, [config.seed], [metrics.accuracy]).to_record()
    record.update(correct=metrics.correct, total=metrics.total,
                  per_class={str(k): v for k, v in metrics.per_class.items()})
    write_json(os.path.join(args.out, "metrics.json"), record)
    print(f"{task.rsplit('/', 1)[-1]} accuracy {metrics.accuracy:.4f} "
          f"({metrics.correct}/{metrics.total})")
    return _gate(config, metrics.accuracy), ["metrics.json"]


def _cmd_probe(args, config: ExperimentConfig, state, data):
    metrics = ds.linear_probe(*_features(config, state, data), config.downstream.probe)
    return _report(args, config, "probe", data[1].protocol, metrics)


def _cmd_retrieve(args, config: ExperimentConfig, state, data):
    f_train, y_train, f_test, y_test = _features(config, state, data)
    _, metrics = ds.knn_retrieve(ds.build_index(f_train, y_train), f_test, y_test)
    return _report(args, config, "retrieve/knn-1", data[1].protocol, metrics)


def _cmd_finetune(args, config: ExperimentConfig, start, data):
    dataset, split, train, test = data
    summary = ds.finetune(start, train, test, dataset.bones,
                          rho=config.downstream.rho, mode=config.downstream.finetune_mode,
                          schedule=config.downstream.finetune,
                          seeds=config.downstream.seeds,
                          crop_length=config.aug.output_length,
                          protocol=split.protocol)
    write_json(os.path.join(args.out, "metrics.json"), summary.to_record())
    print(f"{summary.task}: mean accuracy {summary.mean:.4f} +/- {summary.std:.4f} "
          f"over seeds {list(summary.seeds)}")
    return _gate(config, summary.mean), ["metrics.json"]


def _cmd_export(args, config: ExperimentConfig, state, data):
    dataset, _, _, test = data
    path = os.path.join(args.out, "embeddings.jsonl")
    count = ds.export_embeddings(state, test, dataset.bones, path,
                                 projector=config.downstream.projector,
                                 crop_length=config.aug.output_length)
    print(f"exported {count} embeddings ({config.downstream.projector}) to {path}")
    return 0, ["embeddings.jsonl"]


def _cmd_augment_preview(args, config: ExperimentConfig, _, data, count: int = 4):
    rng = np.random.default_rng((config.seed, 0xA96))
    path = os.path.join(args.out, "preview.jsonl")
    picked = data[2][:count]
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for sample in picked:
            seq = sample.sequence
            record = {"id": seq.sample_id, "label": sample.label,
                      "original": seq.coords.tolist(), "views": []}
            for role in ("query", "key"):
                draw = draw_view(config.aug, seq.frames, seq.joints, rng)
                view = apply_view(seq, draw, config.aug.output_length)
                record["views"].append({"role": role, **asdict(draw),
                                        "coords": view.coords.tolist()})
            # the jitter matrix is the one array a draw holds
            fh.write(json.dumps(record, sort_keys=True, default=np.ndarray.tolist) + "\n")
    print(f"wrote {len(picked)} augmented previews to {path}")
    return 0, ["preview.jsonl"]


def _cmd_sweep(args, config: ExperimentConfig, sweep, _):
    """Pretrain and probe each cell in `main`'s order (check, `config.json`,
    train); a failed cell is recorded and the grid goes on."""
    sweep_path = os.path.join(args.out, "sweep.jsonl")
    failures = 0
    with open(sweep_path, "w", encoding="utf-8") as fh:
        for i, cell in enumerate(sweep.cells):
            cell_dir = os.path.join(args.out, "cells", f"cell{i:02d}")
            record = {"cell": cell, "index": i}
            try:
                cell_config = resolve_config(config.resolved, list(cell.items()))
                data = _load(cell_config, "sweep")
                trainer, kept = _trainer(cell_config, cell_dir, None, data)
                write_resolved(cell_config, cell_dir)
                contrast._train_epochs(trainer, [s.sequence for s in data[2]],
                                       cell_config.schedule, cell_dir, kept)
                rep = _representation(cell_config, trainer.representations, "the cell's trainer")
                metrics = ds.linear_probe(
                    *_features(cell_config, trainer.pairs[rep].query, data),
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
    if failures:
        print(f"{failures}/{len(sweep.cells)} sweep cells failed", file=sys.stderr)
    return (3 if failures else 0), ["sweep.jsonl"]


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
        if name in _ENCODER_TASKS:
            p.add_argument("--checkpoint", default=None,
                           help="CKPT1 encoder file or TRAINER1 manifest")
        if name == "pretrain":
            p.add_argument("--resume", default=None,
                           help="TRAINER1 manifest to continue from")
    return parser


def main(argv=None) -> int:
    """Run one subcommand: check everything it reads (`_inputs`), then
    write `config.json`, run it, and last write `run.json` naming the
    artifacts it returns."""
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        start, data = _inputs(args, config)
        write_resolved(config, args.out)
        code, artifacts = _COMMANDS[args.subcommand](args, config, start, data)
        write_json(os.path.join(args.out, "run.json"), {
            "run_id": config.run_id(args.subcommand),
            "subcommand": args.subcommand,
            "seed": config.seed,
            "format_versions": FORMAT_VERSIONS,
            "artifacts": sorted(["config.json", *artifacts]),
            "environment": _environment(),
        })
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SkelconError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
