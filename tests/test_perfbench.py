"""The benchmark's tracer resolves flowseg's names at run time, so a renamed
or deleted name breaks only ``perfbench/run.py --trace 1``; this checks every
name it swaps without running the benchmark."""

import importlib
import os
import sys

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

