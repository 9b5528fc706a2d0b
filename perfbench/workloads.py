"""The benchmark's workloads: inputs made from the seed, one operation, its check.

An operation is what the closed loop waits for: one ``run()`` call on a frame
pair (pair workloads) or one ``flowseg run`` process over a sequence
(``seq2k-cli``).  ``execute`` times the operation alone; the check that
follows is not timed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from spans import Instrumented

# A pair fails when it misses ground truth by more than the acceptance gates
# allow: gate 5's EPE3D bound, applied per pair, and gate 4's per-scene floor.
EPE_GATE_M = 0.05
SEG_FLOOR_PCT = 85.0

COUNTERS = ("pairs", "points", "iterations", "converged", "unreliable",
            "disoccluded", "degenerate_clusters", "fallback_iterations",
            "clusters")


@dataclass
class Outcome:
    """One operation: its time, what its check found, and its traces."""

    seconds: float
    pairs: int
    error: str = None
    fingerprint: str = ""
    quality: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    rss_kb: int = 0
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    input: int = -1
    pass_no: int = -1


def _is_canonical(labels: np.ndarray) -> bool:
    """Static cluster 0 present, dynamic ids 1.. by non-increasing size."""
    sizes = np.bincount(labels)
    return sizes[0] > 0 and bool((np.diff(sizes[1:]) <= 0).all())


class PairWorkload:
    """Two-frame scenes fed to ``run()`` by one in-process caller."""

    def __init__(self, name, n_points, regime, movers, n_inputs) -> None:
        self.name = name
        self.n_points = n_points
        self.regime = regime
        self.movers = movers
        self.n_inputs = n_inputs

    def setup(self, seed, work_dir, tracer=None):
        """Generate the scenes, then warm up on a small primer pair.

        Scene i moves as the acceptance suite's scene i does (ego and mover
        motions drawn from seed i); its geometry, placement and noise come
        from the workload seed.  The motions decide whether the far field
        breaks up, so fixing them keeps that share of pairs the same on
        every seed, while the seed still changes every point.
        """
        from flowseg import generate, random_scene_spec, run
        inputs = []
        for i in range(self.n_inputs):
            motions = random_scene_spec(
                i, n_points=self.n_points, regime=self.regime,
                n_objects=self.movers[i % len(self.movers)])
            spec = replace(motions, seed=1000 * seed + i)
            inputs.append(generate(spec) if tracer is None else
                          tracer.call("datagen.generate", generate, spec))
        primer = generate(random_scene_spec(1000 * seed + 999, n_points=2048,
                                            n_objects=2))
        run(primer[0].cloud, primer[1].cloud)
        return inputs

    def execute(self, records, op, tracer=None) -> Outcome:
        from flowseg import run
        a, b = records
        instrumented = None if tracer is None else Instrumented(tracer)
        start = perf_counter()
        try:
            if tracer is None:
                ssf = run(a.cloud, b.cloud)
            else:
                tracer.op = op
                ssf = tracer.call("pipeline.run", run, a.cloud, b.cloud)
            out = Outcome(perf_counter() - start, 1)
        except Exception as e:  # a raising run() is a failed pair, not a crash
            out = Outcome(perf_counter() - start, 1,
                          error=f"run() raised {type(e).__name__}: {e}")
        finally:
            if instrumented is not None:
                instrumented.close()
        if out.error is None:
            out.error = self._check(records, ssf, out, tracer)
        if tracer is not None:
            spans, out.counts = tracer.take()
            out.spans = [spans]
        return out

    def _check(self, records, ssf, out, tracer):
        from flowseg import (Trajectory, accumulate, ego_motion, flow_metrics,
                             rpe, seg_metrics)
        a, b = records
        flow = ssf.flow.vectors
        labels = ssf.mask.labels
        if flow.shape != a.cloud.points.shape or not np.isfinite(flow).all():
            return "flow is not finite or does not cover the cloud"
        if labels.shape[0] != len(a.cloud) or not _is_canonical(labels):
            return "mask is not canonical"

        def call(name, fn, *args):
            return fn(*args) if tracer is None else tracer.call(name, fn, *args)

        try:
            step = call("odometry.ego_motion", ego_motion,
                        a.cloud, ssf.flow, ssf.mask).inverse()
        except Exception as e:
            return f"ego_motion raised {type(e).__name__}: {e}"
        estimate = call("odometry.accumulate", accumulate, [step],
                        [a.cloud.timestamp, b.cloud.timestamp])
        epe = flow_metrics(ssf.flow, a.gt_flow).epe3d
        acc = seg_metrics(ssf.mask, a.gt_mask).accuracy
        trans = rpe(estimate, Trajectory((a.gt_ego, b.gt_ego))).translational.rmse
        out.quality = {"epe3d_mm": 1000.0 * epe, "seg_accuracy_pct": acc,
                       "rpe_trans_mm": 1000.0 * trans}
        report = ssf.report
        out.counters = {
            "pairs": 1, "points": len(a.cloud),
            "iterations": report.n_iterations,
            "converged": int(report.converged),
            "unreliable": report.n_unreliable,
            "disoccluded": report.n_disoccluded,
            "degenerate_clusters": sum(r.degenerate_clusters for r in report.records),
            "fallback_iterations": sum(r.static_fallback for r in report.records),
            "clusters": ssf.mask.n_clusters}
        digest = hashlib.sha256(flow.tobytes())
        digest.update(labels.tobytes())
        digest.update(repr((sorted(out.quality.items()), report.n_iterations))
                      .encode())
        out.fingerprint = digest.hexdigest()
        if epe > EPE_GATE_M:
            return f"EPE3D {epe:.4f} m above the {EPE_GATE_M} m gate"
        if acc < SEG_FLOOR_PCT:
            return f"segmentation accuracy {acc:.2f}% below {SEG_FLOOR_PCT}%"
        return None

    def peak_rss_kb(self, outcomes) -> int:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _file_bytes(directory, prefix="") -> int:
    return sum(e.stat().st_size for e in os.scandir(directory)
               if e.is_file() and e.name.startswith(prefix))


class CliWorkload:
    """Sequences written once by ``flowseg gen``, each processed by a
    ``flowseg run`` subprocess and checked by ``flowseg eval``."""

    RUN_CODE = "from flowseg.cli import entrypoint; entrypoint()"

    def __init__(self, name, frames, n_points, movers, workers, n_inputs) -> None:
        self.name = name
        self.frames = frames
        self.n_points = n_points
        self.movers = movers
        self.workers = workers
        self.n_inputs = n_inputs
        self.work_dir = None

    def setup(self, seed, work_dir, tracer=None):
        """Write the sequences with ``flowseg gen``."""
        from flowseg.cli import main
        self.work_dir = work_dir
        inputs = []
        instrumented = None if tracer is None else Instrumented(tracer)
        try:
            for i in range(self.n_inputs):
                path = os.path.join(work_dir, f"seq_{i:02d}")
                shutil.rmtree(path, ignore_errors=True)
                argv = ["gen", "--seed", str(1000 * seed + i),
                        "--frames", str(self.frames), "--points", str(self.n_points),
                        "--objects", str(self.movers), "--out", path]
                with contextlib.redirect_stdout(io.StringIO()):
                    if main(argv) != 0:
                        raise RuntimeError(f"flowseg {' '.join(argv)} failed")
                inputs.append(path)
        finally:
            if instrumented is not None:
                instrumented.close()
        return inputs

    def execute(self, seq_dir, op, tracer=None) -> Outcome:
        out_dir = os.path.join(self.work_dir, "run_" + os.path.basename(seq_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
        args = ["run", "--input", seq_dir, "--out", out_dir,
                "--workers", str(self.workers)]
        spans_path = os.path.join(self.work_dir, f"spans_{op}.json")
        if tracer is None:
            cmd = [sys.executable, "-c", self.RUN_CODE] + args
        else:
            cmd = [sys.executable,
                   os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "cli_traced.py"), spans_path] + args
        with open(os.path.join(self.work_dir, "stderr.txt"), "w+b") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work_dir,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace").strip()
        out = Outcome(seconds, self.frames - 1, rss_kb=usage.ru_maxrss)
        out.error = self._check(seq_dir, out_dir, proc.returncode, stderr, out)
        if tracer is not None and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as f:
                traced = json.load(f)
            os.remove(spans_path)
            out.spans = traced["processes"]
            out.counts = traced["counts"]
            out.extra["import_s"] = traced["import_s"]
        return out

    def _check(self, seq_dir, out_dir, code, stderr, out):
        from flowseg.cli import PARTIAL_MARKER, RUN_MANIFEST, main
        if code != 0:
            return f"flowseg run exited {code}: {stderr[-300:]}"
        if not os.path.exists(os.path.join(out_dir, RUN_MANIFEST)):
            return "flowseg run left no run_manifest.json"
        if os.path.exists(os.path.join(out_dir, PARTIAL_MARKER)):
            return "flowseg run left a .partial marker"
        digest = hashlib.sha256()
        for name in sorted(os.listdir(out_dir)):
            digest.update(name.encode())
            with open(os.path.join(out_dir, name), "rb") as f:
                digest.update(f.read())
        eval_path = os.path.join(self.work_dir, "eval.json")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["eval", "--run", out_dir, "--data", seq_dir,
                         "--out", eval_path])
        if code != 0:
            return f"flowseg eval exited {code}: {err.getvalue()[-300:]}"
        with open(eval_path, encoding="utf-8") as f:
            scores = json.load(f)
        out.quality = {
            "epe3d_mm": 1000.0 * scores["aggregate"]["epe3d"],
            "seg_accuracy_pct": scores["aggregate"]["seg_accuracy"],
            "rpe_trans_mm": 1000.0 * scores["rpe"]["translational"]["rmse"]}
        with open(os.path.join(out_dir, RUN_MANIFEST), encoding="utf-8") as f:
            manifest = json.load(f)
        counters = dict.fromkeys(COUNTERS, 0)
        for pair in manifest["pairs"]:
            with open(os.path.join(out_dir, pair["report"]), encoding="utf-8") as f:
                report = json.load(f)
            last = report["iterations"][-1]
            counters["pairs"] += 1
            counters["points"] += self.n_points
            counters["iterations"] += pair["iterations"]
            counters["converged"] += int(pair["converged"])
            counters["unreliable"] += report["n_unreliable"]
            counters["disoccluded"] += report["n_disoccluded"]
            counters["degenerate_clusters"] += sum(
                r["degenerate_clusters"] for r in report["iterations"])
            counters["fallback_iterations"] += sum(
                r["static_fallback"] for r in report["iterations"])
            counters["clusters"] += last["n_clusters"]
        out.counters = counters
        out.extra["read_bytes"] = _file_bytes(seq_dir)
        out.extra["write_frame_bytes"] = _file_bytes(out_dir, "ssf_")
        digest.update(repr((sorted(out.quality.items()),
                            counters["iterations"])).encode())
        out.fingerprint = digest.hexdigest()
        return None

    def peak_rss_kb(self, outcomes) -> int:
        return max(o.rss_kb for o in outcomes)


WORKLOADS = {
    w.name: w for w in (
        PairWorkload("far32k", 32768, None, (1, 2, 3, 4, 5), n_inputs=20),
        PairWorkload("dense8k", 8192, "dt", (3, 4, 5), n_inputs=24),
        CliWorkload("seq2k-cli", frames=20, n_points=2048, movers=2, workers=2,
                    n_inputs=20),
    )
}
