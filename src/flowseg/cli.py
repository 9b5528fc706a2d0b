"""Command-line surface: generate data, run the pipeline, evaluate, plot.

Every command is reproducible: identical flags and inputs give byte-identical
outputs, plots included.  Exit codes: 0 success, 1 runtime or I/O failure,
2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import asdict
from fnmatch import fnmatchcase
from functools import partial

import numpy as np

from . import __version__
from ._svg import Series, render_chart
from .datagen import (generate, random_scene_spec, read_frame, read_sequence,
                      write_frame, write_sequence)
from .errors import FlowsegError
from .flow import FlowField
from .metrics import flow_metrics, seg_metrics
from .odometry import (Trajectory, accumulate, ego_motion, read_trajectory,
                       rpe, write_trajectory)
from .pipeline import IterationConfig, run as run_pipeline
from .segment import STRATEGIES, ClassifierConfig, SegmentationMask

RUN_MANIFEST = "run_manifest.json"
PARTIAL_MARKER = ".partial"
# every file run, eval and plot write into a run directory by default
RUN_ARTIFACTS = ("ssf_*.pcf", "report_*.json", "trajectory_est.txt",
                 RUN_MANIFEST, "eval.json", "trajectory.svg", "losses.svg",
                 "deltas.svg")
# the per-pair metrics eval prints and averages, in printing order
EVAL_KEYS = ("epe3d", "acc_strict", "acc_relaxed", "outliers", "seg_accuracy")
# plot's per-iteration charts: file, title, y label and report field
ITERATION_CHARTS = (
    ("losses.svg", "Total loss per iteration", "total loss", "total_loss"),
    ("deltas.svg", "State change per iteration", "delta_total", "delta_total"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowseg",
        description="Scene flow, motion segmentation, and odometry for "
                    "LiDAR-like point clouds, verified on synthetic scenes.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic sequence",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    g.add_argument("--seed", type=int, default=0, help="generator seed")
    g.add_argument("--frames", type=int, default=2, help="number of frames")
    g.add_argument("--points", type=int, default=8192, help="points per frame")
    g.add_argument("--objects", type=int, default=3, help="number of movers")
    g.add_argument("--points-per-object", type=int, default=None,
                   help="points per mover (default 150; not with --regime)")
    g.add_argument("--regime", choices=("dh", "dt"), default=None,
                   help="foreground sizing: dh ~100 total, dt ~4000 total")
    g.add_argument("--noise", type=float, default=0.01,
                   help="observation noise sigma, meters")
    g.add_argument("--dt", type=float, default=0.1, help="frame interval, s")
    g.add_argument("--occlusion", action="store_true",
                   help="drop points shadowed by a mover in any frame")
    g.add_argument("--shuffle", action="store_true",
                   help="permute each frame's point order independently")
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run the pipeline over a sequence",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    r.add_argument("--input", required=True, help="sequence directory")
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--epsilon", type=float, default=1e-3,
                   help="convergence threshold on delta_total")
    r.add_argument("--max-iters", type=int, default=20,
                   help="iteration cap per frame pair")
    r.add_argument("--alpha", type=float, default=1.0,
                   help="flow-change weight in delta_total")
    r.add_argument("--beta", type=float, default=1.0,
                   help="mask-change weight in delta_total")
    r.add_argument("--strategy", choices=STRATEGIES, default="auto",
                   help="static-cluster selection rule")
    r.add_argument("--theta", type=float, default=1.0,
                   help="ego-velocity tolerance for the velocity rule, m/s")
    r.add_argument("--workers", type=int, default=1,
                   help="parallel frame pairs (processes)")
    r.set_defaults(func=cmd_run)

    e = sub.add_parser("eval", help="score a run against ground truth",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    e.add_argument("--run", required=True, help="run output directory")
    e.add_argument("--data", required=True, help="ground-truth sequence directory")
    e.add_argument("--out", default=None,
                   help="report JSON path (default <run>/eval.json)")
    e.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="emit SVG figures for a run",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--run", required=True, help="run output directory")
    p.add_argument("--data", default=None,
                   help="sequence directory for the ground-truth overlay")
    p.add_argument("--out", default=None,
                   help="figure directory (default the run directory)")
    p.set_defaults(func=cmd_plot)
    return parser


def cmd_gen(args) -> int:
    spec = random_scene_spec(
        args.seed, n_frames=args.frames, n_points=args.points,
        n_objects=args.objects, points_per_object=args.points_per_object,
        regime=args.regime, noise_sigma=args.noise, dt=args.dt,
        occlusion=args.occlusion, shuffle=args.shuffle)
    records = generate(spec)
    manifest = write_sequence(records, args.out, dt=args.dt)
    print(f"wrote {len(records)} frames to {manifest}")
    return 0


def _process_pair(payload):
    p_t, p_t1, cfg = payload
    return run_pipeline(p_t, p_t1, cfg)


def _evaluated(ssf):
    """``ssf`` with its loss history computed: reading the transforms does it."""
    ssf.transforms
    return ssf


def _report_dict(report) -> dict:
    return {
        "alpha": report.alpha,
        "beta": report.beta,
        "epsilon": report.epsilon,
        "converged": report.converged,
        "n_unreliable": report.n_unreliable,
        "n_disoccluded": report.n_disoccluded,
        "iterations": [
            {"iteration": r.iteration, "flow_delta": r.flow_delta,
             "mask_delta": r.mask_delta, "delta_total": r.delta_total,
             "l_mot": r.losses.l_mot, "l_sc": r.losses.l_sc,
             "l_cd": r.losses.l_cd, "total_loss": r.losses.total,
             "n_clusters": r.n_clusters, "strategy": r.strategy,
             "static_fallback": r.static_fallback,
             "degenerate_clusters": r.degenerate_clusters, "v_ego": r.v_ego}
            for r in report.records],
    }


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_run(args) -> int:
    """Run every frame pair; the run directory counts as complete only once
    the manifest exists and the ``.partial`` marker is gone.

    Input and flags are checked before the directory is touched.  Then the
    artifacts of an earlier run, eval or plot in it are deleted, so none of
    them can pass for this run's; other files stay.
    """
    records = read_sequence(args.input)
    if len(records) < 2:
        print("error: need at least 2 frames to run", file=sys.stderr)
        return 1
    dt = records[1].cloud.timestamp - records[0].cloud.timestamp
    cfg = IterationConfig(
        alpha=args.alpha, beta=args.beta, epsilon=args.epsilon,
        max_iters=args.max_iters,
        classifier=ClassifierConfig(strategy=args.strategy, dt=dt,
                                    theta=args.theta))
    if args.workers < 1:
        print(f"error: --workers must be at least 1, got {args.workers}",
              file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    marker = os.path.join(args.out, PARTIAL_MARKER)
    manifest_path = os.path.join(args.out, RUN_MANIFEST)
    with open(marker, "w", encoding="utf-8") as f:
        f.write("run in progress\n")
    for name in os.listdir(args.out):
        path = os.path.join(args.out, name)
        if (any(fnmatchcase(name, pattern) for pattern in RUN_ARTIFACTS)
                and os.path.isfile(path)):
            os.remove(path)
    pairs = list(zip(records[:-1], records[1:]))

    def at_pair(i, what):
        return f"frame pair {i} -> {i + 1}: {what}"

    step = at_pair(0, "pipeline")
    try:
        payloads = [(a.cloud, b.cloud, cfg) for a, b in pairs]
        workers = min(args.workers, len(payloads))
        # a process pool forks every worker at its first submit, so one
        # worker gets none and runs each pair here; one thread computes pair
        # k's loss history while this one runs pair k+1, and a pool's results
        # arrive computed, as pickling a result computes it in the worker
        with (ProcessPoolExecutor(workers) if workers > 1 else nullcontext()
              ) as pool, ThreadPoolExecutor(max_workers=1) as reports:
            pending = [partial(_process_pair, p) if pool is None
                       else pool.submit(_process_pair, p).result
                       for p in payloads]
            evaluated = []
            for pair_index, result in enumerate(pending):
                step = at_pair(pair_index, "pipeline")
                evaluated.append(reports.submit(_evaluated, result()))
        increments = []
        pair_entries = []
        for pair_index, (rec_a, _) in enumerate(pairs):
            step = at_pair(pair_index, "pipeline")
            ssf = evaluated[pair_index].result()
            ssf_name = f"ssf_{pair_index:04d}.pcf"
            report_name = f"report_{pair_index:04d}.json"
            step = at_pair(pair_index, f"writing {ssf_name}")
            write_frame(os.path.join(args.out, ssf_name), rec_a.cloud.points,
                        flow=ssf.flow.vectors, labels=ssf.mask.labels)
            step = at_pair(pair_index, f"writing {report_name}")
            payload = _report_dict(ssf.report)
            payload["transforms"] = [[float(v) for v in t.matrix[:3].ravel()]
                                     for t in ssf.transforms]
            payload["clusters"] = [
                {"cluster_id": s.cluster_id, "size": s.size,
                 "mean_speed": s.mean_speed,
                 "centroid": [float(v) for v in s.centroid]}
                for s in ssf.stats]
            _write_json(os.path.join(args.out, report_name), payload)
            step = at_pair(pair_index, "ego fit")
            increments.append(
                ego_motion(rec_a.cloud, ssf.flow, ssf.mask).inverse())
            pair_entries.append(
                {"index": pair_index, "ssf": ssf_name, "report": report_name,
                 "converged": ssf.report.converged,
                 "iterations": ssf.report.n_iterations})
        step = "writing trajectory_est.txt"
        trajectory = accumulate(increments,
                                [r.cloud.timestamp for r in records])
        write_trajectory(trajectory, os.path.join(args.out, "trajectory_est.txt"))
        step = f"writing {RUN_MANIFEST}"
        manifest = {
            "version": __version__,
            "input": args.input,
            "dt": dt,
            "n_frames": len(records),
            "config": asdict(cfg),
            "pairs": pair_entries,
            "trajectory": "trajectory_est.txt",
        }
        _write_json(manifest_path + ".tmp", manifest)
        os.replace(manifest_path + ".tmp", manifest_path)
    except (FlowsegError, OSError, ValueError, BrokenProcessPool) as e:
        with open(marker, "w", encoding="utf-8") as f:
            f.write(f"failed at {step}\n")
        print(f"error: {step}: {e}", file=sys.stderr)
        return 1
    os.remove(marker)
    print(f"processed {len(pairs)} frame pairs into {args.out}")
    return 0


def _load_run(run_dir: str) -> dict:
    """The manifest of a complete run; refuses a run that failed or is still
    being written, whose outputs may mix old and new files."""
    if os.path.exists(os.path.join(run_dir, PARTIAL_MARKER)):
        raise FlowsegError(f"{run_dir} holds an incomplete run "
                           f"({PARTIAL_MARKER} present); rerun flowseg run")
    path = os.path.join(run_dir, RUN_MANIFEST)
    if not os.path.exists(path):
        raise FlowsegError(f"{run_dir} is not a complete run: no {RUN_MANIFEST}")
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def cmd_eval(args) -> int:
    manifest = _load_run(args.run)
    records = read_sequence(args.data)
    n_pairs = len(manifest["pairs"])
    if n_pairs != len(records) - 1:
        print(f"error: run has {n_pairs} pairs but the sequence has "
              f"{len(records) - 1}", file=sys.stderr)
        return 1
    dt = records[1].cloud.timestamp - records[0].cloud.timestamp
    print("# flow: epe3d in meters; acc_strict/acc_relaxed/outliers in percent")
    print("# seg_accuracy: binary static/dynamic point accuracy in percent; "
          "iou per GT dynamic cluster")
    pair_rows = []
    for pair in manifest["pairs"]:
        i = pair["index"]
        _, pred_flow, pred_labels = read_frame(os.path.join(args.run, pair["ssf"]))
        if pred_flow is None or pred_labels is None:
            print(f"error: {pair['ssf']} lacks flow or labels", file=sys.stderr)
            return 1
        gt = records[i]
        fm = flow_metrics(FlowField(pred_flow), gt.gt_flow)
        sm = seg_metrics(SegmentationMask(pred_labels), gt.gt_mask)
        row = {"index": i, **asdict(fm), "seg_accuracy": sm.accuracy,
               "iou": list(sm.per_cluster_iou)}
        pair_rows.append(row)
        for key in EVAL_KEYS:
            print(f"pair_{i:04d}.{key}={row[key]:.6g}")
    aggregate = {key: float(np.mean([row[key] for row in pair_rows]))
                 for key in EVAL_KEYS}
    for key, value in aggregate.items():
        print(f"aggregate.{key}={value:.6g}")
    estimated = read_trajectory(os.path.join(args.run, manifest["trajectory"]),
                                dt=dt)
    gt_traj = Trajectory(tuple(r.gt_ego for r in records))
    report = rpe(estimated, gt_traj)
    for channel in ("translational", "rotational"):
        stats = getattr(report, channel)
        scale = 1.0 if channel == "translational" else 180.0 / np.pi
        unit = "" if channel == "translational" else "_deg"
        for name in ("mean", "rmse", "sse", "std"):
            factor = scale ** 2 if name == "sse" else scale
            print(f"rpe.{channel}.{name}{unit}="
                  f"{getattr(stats, name) * factor:.6g}")
    payload = {
        "pairs": pair_rows,
        "aggregate": aggregate,
        "rpe": {
            "count": report.count,
            "translational": asdict(report.translational),
            "rotational_rad": asdict(report.rotational),
        },
    }
    out_path = args.out or os.path.join(args.run, "eval.json")
    _write_json(out_path, payload)
    return 0


def cmd_plot(args) -> int:
    manifest = _load_run(args.run)
    out_dir = args.out or args.run
    os.makedirs(out_dir, exist_ok=True)
    estimated = read_trajectory(os.path.join(args.run, manifest["trajectory"]))
    t_series = [Series("estimate",
                       [p.transform.translation[0] for p in estimated.poses],
                       [p.transform.translation[1] for p in estimated.poses])]
    if args.data:
        records = read_sequence(args.data)
        t_series.append(Series(
            "ground truth",
            [r.gt_ego.transform.translation[0] for r in records],
            [r.gt_ego.transform.translation[1] for r in records],
            dash=True))
    charts = [("trajectory.svg", render_chart(
        "Ego trajectory (top-down)", "x [m]", "y [m]", t_series,
        equal_aspect=True))]
    iterations = []
    for pair in manifest["pairs"]:
        with open(os.path.join(args.run, pair["report"]),
                  "r", encoding="utf-8") as f:
            iterations.append((pair["index"], json.load(f)["iterations"]))
    for name, title, ylabel, key in ITERATION_CHARTS if iterations else ():
        charts.append((name, render_chart(title, "iteration", ylabel, [
            Series(f"pair {index}", [row["iteration"] for row in rows],
                   [row[key] for row in rows]) for index, rows in iterations])))
    for name, svg in charts:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
            f.write(svg)
    for name, _ in charts:
        print(f"wrote {os.path.join(out_dir, name)}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (FlowsegError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
