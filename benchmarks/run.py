#!/usr/bin/env python3
"""skelcon benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload intra-seq --seed 1 --seconds 12 --trace 0

Run from any directory; the program under test is imported from ``src/``
next to this directory.  Each metric is printed on its own line with its
unit, followed by one JSON line with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  A traced run also measures untraced first, to
report the tracing overhead.  Details, machine facts and (traced) spans go
to ``.bench_out/`` in the checkout.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Metrics the regression gate compares, reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}
# Spans whose self time per set-up is reported from the traced set-up.
SETUP_LAYERS = ("data.generate_synthetic", "data.make_split", "contrast.make_trainer",
                "contrast.warmup_queues", "augment.make_query_key_pair",
                "represent.batch_views", "nn.gru_forward", "nn.sigmoid",
                "nn.conv2d_forward", "nn.graph_conv_forward", "contrast.pretrain",
                "contrast.save_trainer")
MAC_OPS = ("linear_forward", "linear_backward", "conv2d_forward", "conv2d_backward",
           "graph_conv_forward", "graph_conv_backward", "gru_forward", "gru_backward")
# The layers each workload was chosen to stress, for ``trace.target_share_pct``.
TARGET_LAYERS = {
    "intra-seq": ("contrast.info_nce", "nn.gru_forward", "nn.gru_backward", "nn.sigmoid"),
    "inter3": ("nn.conv2d_forward", "nn.conv2d_backward", "nn.graph_conv_forward",
               "nn.graph_conv_backward"),
    "eval": ("downstream.extract_features",),
}


def per_layer_units() -> dict[str, str]:
    from tracer import span_names
    units = {}
    for name in span_names():
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units["bench.glue.self_ms"] = "ms"
    for op in MAC_OPS:
        units[f"nn.{op}.gmac"] = "GMAC"
    units["contrast.queue_rows_scanned_per_row_pushed"] = "ratio"
    units["downstream.extractions_per_sample"] = "ratio"
    for name in SETUP_LAYERS:
        units[f"setup.{name}.self_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    units["trace.target_share_pct"] = "%"
    return units


def set_blas_threads() -> int:
    """Pin BLAS to one thread (at most nproc); must run before numpy loads.

    On a 2-vCPU machine two BLAS threads varied about 12% from pass to pass
    and one thread about 3%."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def machine_facts(nproc: int) -> dict:
    import numpy as np
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 only prints its configuration
        blas = {}
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

STEP_CLOCK = {("contrast", "train_step"): (None, {})}


def measure(workload, state, size, seconds: float, tracer, work: str) -> dict:
    """Time passes on the set-up ``state`` after one untimed warm-up.

    Passes run until ``seconds`` have been timed, with at least
    ``min_passes`` passes and the workload's ``min_steps`` train steps.
    ``tracer`` times the passes (spans ``bench.pass``) and whatever else its
    table wraps; its counters are tagged ``timed`` only during the passes.
    """
    tracer.region = "warmup"
    warm_dir = tempfile.mkdtemp(dir=work)
    workload.warm_up(state, warm_dir)
    shutil.rmtree(warm_dir, ignore_errors=True)
    tracer.region = "timed"
    passes, errors, elapsed = [], [], 0.0
    while not (elapsed >= seconds and len(passes) >= size.min_passes
               and sum(p.units for p in passes) >= workload.min_steps):
        out_dir = tempfile.mkdtemp(dir=work)
        start = time.perf_counter()
        try:
            passes.append(workload.run_pass(state, out_dir,
                                            lambda: tracer.span("bench.pass")))
        except Exception as exc:  # a crashed pass is a failed check, not a crash
            errors.append(f"{type(exc).__name__}: {exc}")
            break
        finally:
            elapsed += time.perf_counter() - start
            shutil.rmtree(out_dir, ignore_errors=True)
    root_of = tracer.roots("bench.pass")
    step_ns = {pid: [] for pid in sorted(set(root_of.values()))}
    for sid, name, t0, t1, _ in tracer.spans:
        if name == "contrast.train_step" and sid in root_of:
            step_ns[root_of[sid]].append(t1 - t0)
    return {"passes": passes, "errors": errors, "elapsed_s": elapsed,
            "step_ns": list(step_ns.values())[:len(passes)]}


def check_passes(workload, run: dict, reference: dict | None = None,
                 label: str = "pass 0") -> tuple[int, int, list[str]]:
    """(attempted units, failed units, failure messages) for one measurement.
    Every pass's outputs must equal ``reference`` (``label``), by default
    those of the measurement's own first pass."""
    attempted = failed = 0
    messages = list(run["errors"])
    if run["errors"]:
        attempted += 1
        failed += 1
    first = run["passes"][0].outputs if run["passes"] else {}
    if reference is not None:
        first = reference
    for i, (p, steps) in enumerate(zip(run["passes"], run["step_ns"])):
        problems = list(p.failures)
        if workload.unit == "step" and len(steps) != p.units:
            problems.append(f"{len(steps)} steps taken but {p.units} loss records")
        problems += [f"{k} differs from {label}" for k, v in p.outputs.items()
                     if first.get(k) != v]
        attempted += p.units
        if problems:
            failed += p.units
            messages += [f"pass {i}: {m}" for m in problems]
    return attempted, failed, messages


def end_to_end(workload, run: dict) -> dict:
    """Every end-to-end number of one measurement, by name."""
    passes = run["passes"]
    out = {"pass_s": statistics.median(p.wall_s for p in passes),
           "passes": len(passes), "pass_walls_s": [p.wall_s for p in passes]}
    if workload.unit == "step":
        # per-step rates: batch size over step time, median over all steps
        rates = [n / (t / 1e9) for p, ns in zip(passes, run["step_ns"])
                 for n, t in zip(p.timings["batch_sizes"], ns)]
        ms = [t / 1e6 for ns in run["step_ns"] for t in ns]
        q = statistics.quantiles(ms, n=10, method="inclusive")
        out.update(train_samples_per_s=statistics.median(rates),
                   samples_per_s=statistics.median(rates),
                   step_ms_p50=statistics.median(ms), step_ms_p90=q[8], steps=len(ms),
                   steps_beyond_p90=sum(t > q[8] for t in ms))
    else:
        # per encoder, the median seconds per sequence over its extract_features
        # calls; the rate counts (sequence, encoder) extractions per second with
        # every encoder extracting the same sequences, so each encoder weighs
        # by its share of the extraction time
        per_seq = defaultdict(list)
        for p in passes:
            for rep, n, t in p.timings["extract"]:
                per_seq[rep].append(t / n)
        extract_rate = len(per_seq) / sum(statistics.median(v) for v in per_seq.values())
        tune = [p.timings["finetuned"] / p.timings["finetune_s"] for p in passes]
        out.update(eval_s=out["pass_s"], extract_samples_per_s=extract_rate,
                   samples_per_s=extract_rate,
                   finetune_samples_per_s=statistics.median(tune))
    return out


PRINTED_UNITS = {"setup_s": "s", "pass_s": "s", "samples_per_s": "1/s",
               "train_samples_per_s": "1/s", "step_ms_p50": "ms", "step_ms_p90": "ms",
               "eval_s": "s", "extract_samples_per_s": "1/s",
               "finetune_samples_per_s": "1/s", "probe_acc": "frac", "knn_acc": "frac",
               "peak_rss_mb": "MB", "failed_frac": "frac"}


def per_layer(workload, tracer, run: dict, numbers: dict, setup_spans) -> dict:
    """Per-layer metrics from the traced measurement, per step or per pass."""
    from tracer import self_times
    timed = tracer.under("bench.pass")
    totals = self_times(timed)
    passes = run["passes"]
    per = sum(p.units for p in passes) if workload.unit == "step" else len(passes)
    units = per_layer_units()
    values = {name: 0.0 for name in units}
    for name, (ns, calls) in totals.items():
        key = "bench.glue" if name == "bench.pass" else name
        if f"{key}.self_ms" in values:
            values[f"{key}.self_ms"] = ns / 1e6 / per
        if f"{key}.calls" in values:
            values[f"{key}.calls"] = calls / per
    counters = {name: n for (region, name), n in tracer.counters.items() if region == "timed"}
    for op in MAC_OPS:
        values[f"nn.{op}.gmac"] = counters.get(f"nn.{op}.macs", 0) / 1e9 / per
    pushed = counters.get("contrast.rows_pushed", 0)
    if pushed:
        values["contrast.queue_rows_scanned_per_row_pushed"] = (
            counters.get("contrast.queue_rows_scanned", 0) / pushed)
    if workload.unit == "pass":
        # extractions of each (sample, encoder) pair in a pass
        pairs = sum(p.timings["pairs"] for p in passes)
        values["downstream.extractions_per_sample"] = (
            counters.get("downstream.samples_extracted", 0) / pairs)
    setup_totals = self_times(setup_spans)
    for name in SETUP_LAYERS:
        values[f"setup.{name}.self_ms"] = setup_totals.get(name, [0, 0])[0] / 1e6
    values["trace.overhead_pct"] = numbers["traced"]["overhead_pct"]["pass_s"]
    # share of the workload's target layers in step (or pass) time
    if workload.unit == "step":
        base = sum(t1 - t0 for _, n, t0, t1, _ in timed if n == "contrast.train_step")
        part = sum(totals.get(n, [0, 0])[0] for n in TARGET_LAYERS[workload.name])
    else:
        base = sum(t1 - t0 for _, n, t0, t1, _ in timed if n == "bench.pass")
        part = inclusive_ns(timed, TARGET_LAYERS[workload.name])
    values["trace.target_share_pct"] = 100.0 * part / base if base else 0.0
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def slowdown_pct(untraced: dict, traced: dict) -> dict:
    """How much slower each timing reads with tracing on, in percent."""
    out = {}
    for key, value in traced.items():
        if not isinstance(value, float) or key not in untraced:
            continue
        if key.endswith("per_s"):
            out[key] = 100.0 * (untraced[key] / value - 1.0)
        elif key.endswith("_s"):
            out[key] = 100.0 * (value / untraced[key] - 1.0)
    return out


def inclusive_ns(spans, names) -> int:
    """Total duration of the outermost spans with one of ``names``."""
    by_id = {s[0]: s for s in spans}
    total = 0
    for sid, name, t0, t1, parent in spans:
        if name not in names:
            continue
        while parent and by_id[parent][1] not in names:
            parent = by_id[parent][4]
        if not parent:
            total += t1 - t0
    return total


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def traced_run(workload, state, size, seconds, full, work, numbers, reference):
    """The traced measurement: (attempted, failed, failures, per-layer metrics
    or None).  Its passes must give the untraced pass 0's outputs
    ``reference``.  Adds the traced wall, self-time and overhead totals to
    ``numbers``."""
    from tracer import self_times
    full.install()
    try:
        traced = measure(workload, state, size, seconds, full, work)
    finally:
        full.uninstall()
    attempted, failed, failures = check_passes(workload, traced, reference,
                                               "the untraced pass 0")
    timed, setup_spans = full.under("bench.pass"), full.under("bench.setup")
    fired, fired_setup = {s[1] for s in timed}, {s[1] for s in setup_spans}
    silent = ([f"expected span {span} never fired"
               for span in workload.expected_spans if span not in fired]
              + [f"expected set-up span {span} never fired"
                 for span in workload.expected_setup_spans if span not in fired_setup])
    if silent:
        attempted, failed, failures = attempted + 1, failed + 1, failures + silent
    if not traced["passes"] or failures:
        return attempted, failed, failures, None
    traced_numbers = end_to_end(workload, traced)
    traced_numbers["setup_s"] = numbers["traced_setup_s"]
    numbers["traced"] = {
        "wall_s": traced["elapsed_s"],
        "pass_total_s": sum(t1 - t0 for _, n, t0, t1, _ in timed if n == "bench.pass") / 1e9,
        "layer_self_s": sum(ns for n, (ns, _) in self_times(timed).items()
                            if n != "bench.pass") / 1e9,
        "overhead_pct": slowdown_pct(numbers, traced_numbers),
    }
    layers = per_layer(workload, full, traced, numbers, setup_spans)
    return attempted, failed, failures, layers


def run_benchmark(name: str, size_name: str, seed: int, seconds: float,
                  trace: bool, out_root: Path, machine: dict) -> tuple[dict, dict]:
    from tracer import Tracer, UNTIMED_LAYERS
    from workloads import SIZES, WORKLOADS
    workload, size = WORKLOADS[name], SIZES[size_name]
    out_root.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{name}-", dir=out_root)
    failures, attempted, failed = [], 0, 0
    full = Tracer()
    try:
        # Untraced set-ups for the setup_s median, or one untraced and one
        # traced set-up (for the set-up layers) in a traced run.  All set-ups
        # of a run must be identical.
        setup_s, prints, state, numbers = [], [], None, {}
        untraced = 1 if trace else size.setups
        for i in range(untraced + trace):
            traced_setup = i == untraced
            if traced_setup:
                full.install()
                full.region = "setup"
            start = time.perf_counter()
            with full.span("bench.setup") if traced_setup else contextlib.nullcontext():
                built = workload.setup(size, seed, tempfile.mkdtemp(dir=work))
            wall = time.perf_counter() - start
            full.uninstall()
            prints.append(workload.setup_fingerprint(built))
            if traced_setup:
                numbers["traced_setup_s"] = wall
            else:
                setup_s.append(wall)
                state = built
        attempted += len(prints)
        if len(set(prints)) != 1:
            failed += len(prints)
            failures.append("set-ups from one seed are not identical")
        numbers.update(setup_s=statistics.median(setup_s), setup_walls_s=setup_s)

        clock = Tracer(table=STEP_CLOCK).install()
        try:
            run = measure(workload, state, size, seconds, clock, work)
        finally:
            clock.uninstall()
        a, f, msgs = check_passes(workload, run)
        attempted, failed, failures = attempted + a, failed + f, failures + msgs
        if run["passes"] and not run["errors"]:
            numbers.update(end_to_end(workload, run))
            probe, knn, detail = workload.final_accuracy(state)
            numbers.update(probe_acc=probe, knn_acc=knn)
            attempted += 1
            chance = state["split"].chance
            if not probe > chance:
                failed += 1
                failures.append(f"probe_acc {probe:.3f} not above chance {chance:.3f}")
        else:
            detail = {}
        layers, spans_path = None, None
        if trace and not failures:
            a, f, msgs, layers = traced_run(workload, state, size, seconds, full, work,
                                            numbers, run["passes"][0].outputs)
            attempted, failed, failures = attempted + a, failed + f, failures + msgs
            spans_path = out_root / f"{name}-seed{seed}.spans.json"
            full.write(spans_path)
        numbers["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        numbers["failed_frac"] = failed / max(attempted, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not failures and failed == 0
    if trace:
        metrics = layers or {}
    else:
        metrics = {k: {"value": numbers[k], "unit": u} for k, u in END_TO_END.items()
                   if k in numbers}
    result = {"correct": correct and bool(metrics), "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    detail_record = {
        "workload": name, "why": workload.why, "seed": seed, "size": size_name,
        "seconds": seconds, "trace": trace, "machine": machine,
        "untimed_layers": UNTIMED_LAYERS, "numbers": numbers, "accuracy": detail,
        "failures": failures, "missing_spans": full.missing,
        "spans_file": str(spans_path) if spans_path else None, "result": result,
    }
    return result, detail_record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("intra-seq", "inter3", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes are for the benchmark's smoke test")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for details, spans and scratch files")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skelcon" / "__init__.py").is_file():
        print(f"error: no skelcon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = set_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import skelcon
    if Path(skelcon.__file__).resolve().parent != ROOT / "src" / "skelcon":
        print(f"error: imported skelcon from {skelcon.__file__}", file=sys.stderr)
        return 2

    machine = machine_facts(nproc)
    result, detail = run_benchmark(args.workload, args.size, args.seed, args.seconds,
                                   bool(args.trace), args.out, machine)
    detail_path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")

    numbers = detail["numbers"]
    print(f"# workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {detail['why']}")
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    print("# untimed layers: " + "; ".join(f"{k} ({v})"
                                           for k, v in detail["untimed_layers"].items()))
    for key, unit in PRINTED_UNITS.items():
        if key in numbers:
            print(f"{key} = {numbers[key]:.6g} {unit}")
    print(f"# set-ups {numbers.get('setup_walls_s')} s; passes {numbers.get('pass_walls_s')} s; "
          f"{numbers.get('steps', 0)} steps, {numbers.get('steps_beyond_p90', 0)} beyond p90")
    if "traced" in numbers:
        print(f"# traced: {json.dumps(numbers['traced'], sort_keys=True)}")
    if detail["missing_spans"]:
        print(f"# missing spans: {', '.join(detail['missing_spans'])}")
    for message in detail["failures"]:
        print(f"# FAILED: {message}")
    print(f"# details: {detail_path}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
