"""The benchmark's tracer resolves flowseg's names at run time, so a renamed
or deleted name breaks only ``perfbench/run.py --trace 1``; this checks every
name it swaps without running the benchmark, and runs its traced ``flowseg
run`` on a small sequence."""

import importlib
import os
import subprocess
import sys

import pytest

import flowseg
from flowseg.cli import main
from flowseg.geometry import SpatialIndex

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_instrumented_swaps_and_close_restores_every_name(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    targets = (list(spans.WRAPPED)
               + [(short, "weighted_kabsch") for short in spans.KABSCH_CALLERS]
               + [(short, "SpatialIndex") for short in spans.INDEX_USERS])
    originals = {}
    for short, attr in targets:
        mod = importlib.import_module(f"flowseg.{short}")
        originals[mod, attr] = getattr(mod, attr)
    instrumented = spans.Instrumented(spans.Tracer())
    try:
        swapped = [f"{mod.__name__}.{attr}" for (mod, attr), fn in originals.items()
                   if getattr(mod, attr) is not fn]
    finally:
        instrumented.close()
    assert len(swapped) == len(originals)
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr} not restored"
    # the traced index class overrides methods by name, so each must exist
    traced = spans._traced_index_class(spans.Tracer(), SpatialIndex)
    overridden = [name for name, value in vars(traced).items() if callable(value)]
    assert "query" in overridden
    for name in overridden:
        assert callable(getattr(SpatialIndex, name, None)), \
            f"the tracer overrides SpatialIndex.{name}, which does not exist"


@pytest.mark.parametrize("workers", [
    pytest.param(1, marks=pytest.mark.xfail(
        strict=True, reason="the tracer's stand-in for cli._process_pair "
        "takes the calling thread's spans when the pool is a thread: the "
        "still-open cli.cmd_run span then pops an empty stack")),
    2])
def test_traced_cli_run_exits_0(tmp_path, workers):
    seq = str(tmp_path / "seq")
    assert main(["gen", "--seed", "11", "--frames", "3", "--points", "1200",
                 "--objects", "2", "--out", seq]) == 0
    src = os.path.dirname(os.path.dirname(flowseg.__file__))
    # no bytecode written into perfbench/, as above
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "cli_traced.py"),
         str(tmp_path / "spans.json"), "run", "--input", seq,
         "--out", str(tmp_path / "run"), "--workers", str(workers)],
        capture_output=True, text=True, env=env, timeout=300)
    assert "IndexError: pop from empty list" not in done.stderr
    assert done.returncode == 0, done.stderr
