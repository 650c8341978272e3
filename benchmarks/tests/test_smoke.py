"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest benchmarks/tests -q

Runs every workload through ``benchmarks/run.py --size tiny`` and checks
that every metric is printed with its unit, that the result line matches
``BENCHMARK.json``, and that the traced run's spans nest and their self
times add up to the traced wall time.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracer import Tracer  # noqa: E402

COMMON = {"setup_s": "s", "probe_acc": "frac", "knn_acc": "frac",
          "peak_rss_mb": "MB", "failed_frac": "frac"}
TRAINING = {"train_samples_per_s": "1/s", "step_ms_p50": "ms", "step_ms_p90": "ms"}
PRINTED = {
    "intra-seq": {**COMMON, **TRAINING},
    "inter3": {**COMMON, **TRAINING},
    "eval": {**COMMON, "eval_s": "s", "extract_samples_per_s": "1/s",
             "finetune_samples_per_s": "1/s"},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, workload, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    return proc


def _printed(stdout: str) -> dict[str, str]:
    found = {}
    for line in stdout.splitlines():
        m = re.fullmatch(r"(\w+) = (\S+) (\S+)", line)
        if m:
            float(m.group(2))
            found[m.group(1)] = m.group(3)
    return found


@pytest.mark.parametrize("workload", list(PRINTED))
def test_untraced_run_prints_every_metric(tmp_path, workload):
    proc = _run(tmp_path, workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    printed = _printed(proc.stdout)
    for name, unit in PRINTED[workload].items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(PRINTED))
def test_traced_run_self_times_add_up(tmp_path, workload):
    proc = _run(tmp_path, workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected

    detail = json.loads((tmp_path / f"{workload}-seed3-trace1.json").read_text())
    traced = detail["numbers"]["traced"]
    # self times partition the passes; untraced glue inside a pass is small
    assert traced["layer_self_s"] <= traced["pass_total_s"] <= traced["wall_s"]
    assert traced["layer_self_s"] >= 0.9 * traced["pass_total_s"]
    assert set(traced["overhead_pct"]) >= {"pass_s"}

    spans = json.loads(Path(detail["spans_file"]).read_text())
    assert spans["run_id"] and spans["fields"][-1] == "parent_id"
    by_id = {s[0]: s for s in spans["spans"]}
    for sid, _, start, end, parent in spans["spans"]:
        assert start <= end
        if parent:
            assert by_id[parent][2] <= start and end <= by_id[parent][3]


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "out", "eval", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_wraps_aliases_and_records_missing_names():
    from skelcon import contrast, encoders
    original = encoders.embed_forward
    tracer = Tracer(table={("encoders", "embed_forward"): (None, {}),
                           ("contrast", "NegativeQueue.push"): (None, {}),
                           ("nn", "no_such_op"): (None, {})})
    with tracer:
        assert encoders.embed_forward is not original
        assert contrast.embed_forward is encoders.embed_forward
        queue = contrast.NegativeQueue(4, 2)
        queue.push([[1.0, 0.0]])
    assert encoders.embed_forward is original and contrast.embed_forward is original
    assert tracer.missing == ["nn.no_such_op"]
    assert [s[1] for s in tracer.spans] == ["contrast.NegativeQueue.push"]
    assert len(queue) == 1


def test_warm_up_counters_stay_out_of_the_timed_region(tmp_path):
    import run
    from skelcon import contrast
    from workloads import TINY, PassResult

    class Pushes:
        min_steps = 0

        def warm_up(self, state, out_dir):
            state.push([[1.0, 0.0]] * 3)

        def run_pass(self, state, out_dir, timed):
            with timed():
                state.push([[0.0, 1.0]])
            return PassResult(wall_s=0.0, units=1, outputs={})

    tracer = Tracer(table={("contrast", "NegativeQueue.push"):
                           (None, {"contrast.rows_pushed": lambda a, k: len(a[1])})})
    with tracer:
        out = run.measure(Pushes(), contrast.NegativeQueue(8, 2), TINY, 0.0, tracer,
                          str(tmp_path))
    assert len(out["passes"]) == TINY.min_passes
    assert tracer.counters[("warmup", "contrast.rows_pushed")] == 3
    assert tracer.counters[("timed", "contrast.rows_pushed")] == TINY.min_passes
