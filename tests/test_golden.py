"""Golden artifact digests: the INTER3 pretraining run of
`test_sample_workers` at one BLAS thread, an STG probe and a semi-supervised
SEQ finetune on its last bundle, and an augment preview must write the bytes
recorded in ``golden/inter3.json``.

The digests hold only in the numeric environment they were made in; in
another one the test skips and names each fact that differs.  A change
that alters numerics on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and says so; any other change leaves it alone.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from skelcon import cli
from test_sample_workers import _cli_in_subprocess, _pretrain_in_subprocess

GOLDEN = Path(__file__).resolve().parent / "golden" / "inter3.json"
# The facts of `cli._environment` that a run's bytes depend on, apart from
# the BLAS thread count, which the subprocesses pin to 1.
FACTS = ("numpy", "blas", "blas_version", "blas_core")


def environment() -> dict:
    env = cli._environment()
    return {fact: env[fact] for fact in FACTS}


def artifact_digests(tmp: Path) -> dict:
    """sha256 of the resolved config, loss log, every CKPT1, aux blob and
    TRAINER1 manifest of the run, of the probe's and the finetune's
    metrics.json and of the preview's preview.jsonl. The config.json of a
    run that reads the bundle names a temporary path, so it is left out."""
    run, probe, finetune, preview = (tmp / name for name in
                                     ("run", "probe", "finetune", "preview"))
    _pretrain_in_subprocess(run)
    bundle = ["--checkpoint", str(run / "epoch0002.trainer.json")]
    _cli_in_subprocess("probe", probe, [*bundle, "--set", "downstream.representation=STG"])
    _cli_in_subprocess("finetune", finetune, [
        *bundle, *(a for s in ("downstream.representation=SEQ", "downstream.rho=0.5",
                               "downstream.seeds=[0,1]", "downstream.finetune.epochs=2")
                   for a in ("--set", s))])
    _cli_in_subprocess("augment-preview", preview)
    files = [p for p in run.iterdir()
             if p.suffix in (".jsonl", ".ckpt", ".npz") or p.name.endswith(".trainer.json")]
    files += [run / "config.json", probe / "metrics.json", finetune / "metrics.json",
              preview / "preview.jsonl"]
    return {str(p.relative_to(tmp)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(files)}


def test_inter3_run_and_stg_probe_write_the_golden_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = environment()
    differ = [f"{fact} {golden['environment'][fact]!r} there, {here[fact]!r} here"
              for fact in FACTS if golden["environment"][fact] != here[fact]]
    if differ:
        pytest.skip(f"{GOLDEN.name} was made in another environment: " + "; ".join(differ))
    got = artifact_digests(tmp_path)
    assert sorted(got) == sorted(golden["sha256"])
    assert [name for name in got if got[name] != golden["sha256"][name]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), "sha256": artifact_digests(Path(tmp))}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(record['sha256'])} digests to {GOLDEN}", file=sys.stderr)
