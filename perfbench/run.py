"""flowseg benchmark: one workload, one run, one JSON line of metrics.

Usage (from the root of a flowseg checkout):

    python3 perfbench/run.py --workload far32k --seed 1 --seconds 30 --trace 0

Set-up makes the workload's inputs from ``--seed`` and warms up, three times
over.  The measured loop then feeds the inputs to flowseg one at a time (a
closed loop with one caller), in passes over the input list, until
``--seconds`` have passed and one pass is done; every output is checked, and
a repeated input must reproduce its first output exactly.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
half of the inputs untraced and traced back to back and reports the per-layer
metrics, the tracing overhead among them.  The last line of standard output is the JSON
result; the lines before it give the machine and each metric with its unit,
direction and sample count.  A record of the run and the spans of a traced
run are written under ``.perfbench_runs/`` in the checkout.  The design is in
``perfbench/DESIGN.md``.
"""
import os

# One thread per process: the pool's workers are the only parallelism.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_runs")
SETUP_REPS = 3

# name -> (unit, better), in report order
END_TO_END = {
    "pair_s.p50": ("s", "lower"),
    "seq_s.p50": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "epe3d_mm": ("mm", "lower"),
    "seg_accuracy_pct": ("%", "higher"),
    "rpe_trans_mm": ("mm", "lower"),
    "passed_pct": ("%", "higher"),
}

STAGES = (
    "geometry.SpatialIndex.build", "geometry.SpatialIndex.query",
    "flow.init_flow", "flow.refine_flow", "flow.fit_transforms",
    "segment.cluster", "segment.cluster_stats", "segment.classify",
    "losses.total_loss", "losses.chamfer_loss", "losses.motion_loss",
    "losses.flow_consistency_loss", "pipeline.run", "pipeline.initial_mask",
    "pipeline.mask_delta", "pipeline.flow_delta", "odometry.ego_motion",
    "odometry.accumulate", "datagen.read_sequence", "datagen.write_frame")
SELF_TIMED = ("flow.init_flow", "flow.refine_flow", "segment.cluster",
              "losses.chamfer_loss", "pipeline.run", "cli.cmd_run")
CALL_COUNTED = ("geometry.SpatialIndex.build", "geometry.SpatialIndex.query",
                "geometry.weighted_kabsch", "datagen.write_frame")
PER_OP_COUNTS = ("geometry.SpatialIndex.build_points",
                 "geometry.SpatialIndex.query_points",
                 "geometry.weighted_kabsch.degenerate")


def machine() -> dict:
    """The machine and library versions a result was measured on."""
    import numpy
    import scipy
    info = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(cache)) if os.path.isdir(cache) else ():
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(cache, entry, key), encoding="utf-8") as f:
                    fields[key] = f.read().strip()
        except OSError:
            continue
        if fields["level"] in ("2", "3") and fields["type"] != "Instruction":
            info["l" + fields["level"]] = fields["size"]
    return info


def set_up(workload, seed, work_dir, tracer):
    """One set-up: a fresh interpreter imports the cli (which also warms the
    file cache), then the workload makes its inputs and warms up.
    Returns (inputs, import seconds, set-up seconds)."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import flowseg.cli"], cwd=work_dir,
                   check=True)
    import_s = perf_counter() - start
    inputs = workload.setup(seed, work_dir, tracer)
    return inputs, import_s, perf_counter() - start


def measure(workload, inputs, seconds, tracer):
    """The closed loop, in passes over the inputs.

    The loop runs until ``seconds`` have passed and one pass is done, so
    every input runs at least once however slow the program is.
    Traced, each of the first half of the inputs runs untraced and traced back
    to back, the order alternating, so that a pass still fits the window.
    After the loop the first input runs once more, so that
    every run checks at least one repeat; an input whose output differs from
    its first run fails.  Returns (untraced outcomes, traced pairs
    ``(untraced, traced)``, all outcomes).
    """
    plain, traced, every = [], [], []
    first = {}
    if tracer is not None:
        inputs = inputs[:len(inputs) // 2]

    def execute(i, with_tracer=None):
        idx = i % len(inputs)
        out = workload.execute(inputs[idx], i, with_tracer)
        out.input, out.pass_no = idx, i // len(inputs)
        if out.error is None:
            expected = first.setdefault(idx, out.fingerprint)
            if expected != out.fingerprint:
                out.error = f"input {idx}: output differs from its first run"
        every.append(out)
        return out

    deadline = perf_counter() + seconds
    i = 0
    while i < len(inputs) or perf_counter() < deadline:
        if tracer is None:
            plain.append(execute(i))
        elif i % 2 == 0:
            untraced = execute(i)
            traced.append((untraced, execute(i, tracer)))
        else:
            spans = execute(i, tracer)
            traced.append((execute(i), spans))
        i += 1
    execute(len(inputs) * i)
    return plain, traced, every


def end_to_end(workload, plain, every, setup_s):
    """Each input weighs the same: its time is the mean of its runs, and the
    percentiles are taken over inputs, so a faster program that repeats more
    inputs within the window does not change the mix.  Quality comes from
    each input's first run: EPE and ego error as medians over inputs (a few
    pairs that break up or do not converge would dominate a mean of 20),
    segmentation accuracy as a mean."""
    by_input = {}
    for o in plain:
        by_input.setdefault(o.input, []).append(o)
    seq_s = [statistics.fmean(o.seconds for o in runs) for runs in by_input.values()]
    pairs = [runs[0].pairs for runs in by_input.values()]
    pair_s = [s / n for s, n in zip(seq_s, pairs)]
    checked = [runs[0] for runs in by_input.values() if runs[0].error is None]

    def over_inputs(stat, key):
        return stat(o.quality[key] for o in checked) if checked else float("nan")

    metrics = {
        "pair_s.p50": statistics.median(pair_s),
        "seq_s.p50": statistics.median(seq_s),
        "setup_s": setup_s,
        "peak_rss_mb": workload.peak_rss_kb(plain) / 1024.0,
        "epe3d_mm": over_inputs(statistics.median, "epe3d_mm"),
        "seg_accuracy_pct": over_inputs(statistics.fmean, "seg_accuracy_pct"),
        "rpe_trans_mm": over_inputs(statistics.median, "rpe_trans_mm"),
        "passed_pct": 100.0 * sum(o.error is None for o in every) / len(every),
    }
    notes = dict.fromkeys(("pair_s.p50", "seq_s.p50"),
                          f"n={len(by_input)} inputs, {len(plain)} runs")
    notes["seg_accuracy_pct"] = f"mean over {len(checked)} inputs"
    notes["epe3d_mm"] = notes["rpe_trans_mm"] = f"median over {len(checked)} inputs"
    lines = [f"pairs_per_s = {sum(pairs) / sum(seq_s):.6g} 1/s (higher is better) "
             f"[unbounded, reported per layer by --trace 1 as pipeline.pairs_per_s]"]
    for name, values in (("pair_s", pair_s), ("seq_s", seq_s)):
        n = len(values)
        pct = int(100 * (n - 10) / n) if n > 10 else 0
        lines.append(f"{name}.p{pct} = {statistics.quantiles(values, n=100)[pct - 1]:.6g} s"
                     if pct > 50 else
                     f"{name}: no percentile above the median has ten of its "
                     f"{n} samples beyond it")
    return metrics, notes, lines


def per_layer(traced, setup_imports, setup_tracer):
    """Per-layer metrics from the traced runs of the first pass, so that each
    input counts once and the counts repeat exactly for a seed; per operation
    unless the unit says otherwise (see DESIGN.md)."""
    from spans import summarize
    ops = [t for _, t in traced if t.pass_no == 0]
    n_ops = len(ops)
    calls, busy, own = summarize([s for o in ops for s in o.spans])
    counts, ctr = {}, {}
    for o in ops:
        for key, value in o.counts.items():
            counts[key] = counts.get(key, 0.0) + value
        for key, value in o.counters.items():
            ctr[key] = ctr.get(key, 0) + value
    pairs = max(ctr.get("pairs", 0), 1)
    points = max(ctr.get("points", 0), 1)
    m = {}
    for stage in STAGES:
        m[f"{stage}.busy_s"] = busy.get(stage, 0.0) / n_ops
    for stage in SELF_TIMED:
        m[f"{stage}.self_s"] = own.get(stage, 0.0) / n_ops
    for stage in CALL_COUNTED:
        m[f"{stage}.calls"] = calls.get(stage, 0) / n_ops
    for key in PER_OP_COUNTS:
        m[key] = counts.get(key, 0.0) / n_ops
    m.update({
        "flow.init_flow.unreliable_pct": 100.0 * ctr.get("unreliable", 0) / points,
        "flow.init_flow.disoccluded_pct": 100.0 * ctr.get("disoccluded", 0) / points,
        "flow.refine_flow.degenerate_clusters":
            ctr.get("degenerate_clusters", 0) / pairs,
        "segment.cluster.clusters": ctr.get("clusters", 0) / pairs,
        "segment.static_fallback_pct": 100.0 * ctr.get("fallback_iterations", 0)
            / max(ctr.get("iterations", 0), 1),
        "pipeline.iterations": ctr.get("iterations", 0) / pairs,
        "pipeline.converged_pct": 100.0 * ctr.get("converged", 0) / pairs,
        "datagen.read_sequence.bytes":
            sum(o.extra.get("read_bytes", 0) for o in ops) / n_ops,
        "datagen.write_frame.bytes":
            sum(o.extra.get("write_frame_bytes", 0) for o in ops) / n_ops,
        "datagen.generate.busy_s":
            summarize([setup_tracer.spans])[1].get("datagen.generate", 0.0),
    })
    untraced = [u for u, _ in traced if u.pass_no == 0]
    m["pipeline.pairs_per_s"] = (sum(u.pairs for u in untraced)
                                 / sum(u.seconds for u in untraced))
    run_imports = [o.extra["import_s"] for o in ops if "import_s" in o.extra]
    m["cli.import_s"] = statistics.median(run_imports or setup_imports)
    plain_s = sum(u.seconds for u, _ in traced)
    traced_s = sum(t.seconds for _, t in traced)
    m["trace.overhead_pct"] = 100.0 * (1.0 - plain_s / traced_s)
    return m


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    if name in ("cli.import_s", "datagen.generate.busy_s"):
        return "s"
    if name == "pipeline.pairs_per_s":
        return "1/s"
    suffixes = ((("_s",), "s/op"), (("_pct",), "%"), (("_mm",), "mm"),
                ((".calls", ".degenerate"), "calls/op"), (("_points",), "points/op"),
                ((".bytes",), "B/op"), ((".iterations",), "iters/pair"))
    for ends, unit in suffixes:
        if name.endswith(ends):
            return unit
    return "clusters/pair"


def main(argv=None) -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flowseg", "pipeline.py")):
        print(f"error: no flowseg sources under {SRC}; run from the root of a "
              "flowseg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    from spans import Tracer, write_spans

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    setup_tracer = Tracer()
    setups = []
    try:
        for rep in range(SETUP_REPS):
            inputs, import_s, setup_s = set_up(
                workload, args.seed, work_dir,
                setup_tracer if args.trace and rep == 0 else None)
            setups.append((import_s, setup_s))
        plain, traced, every = measure(workload, inputs, args.seconds,
                                       Tracer() if args.trace else None)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = [o.error for o in every if o.error is not None]
    lines, notes = [], {}
    if args.trace:
        metrics = per_layer(traced, [i for i, _ in setups], setup_tracer)
        write_spans(os.path.join(OUT_DIR, f"{args.workload}.spans.json"),
                    [s for _, t in traced for s in t.spans])
    else:
        metrics, notes, lines = end_to_end(
            workload, plain, every, statistics.median(s for _, s in setups))
    info = machine()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload}, seed {args.seed}: {len(every)} operations, "
          f"{len(failures)} failed")
    for error in failures:
        print(f"failed: {error}")
    for name, value in metrics.items():
        better = END_TO_END.get(name, (None, None))[1]
        print(f"{name} = {value:.6g} {unit_of(name)}"
              + (f" ({better} is better)" if better else "")
              + (f" [{notes[name]}]" if name in notes else ""))
    for line in lines:
        print(line)
    result = {"correct": not failures, "attempted": len(every),
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, machine=info, failures=failures,
                  setups=setups,
                  ops=[{"input": o.input, "pass": o.pass_no, "seconds": o.seconds,
                        "pairs": o.pairs, "error": o.error, **o.quality}
                       for o in every])
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
