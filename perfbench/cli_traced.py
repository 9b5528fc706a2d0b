"""Run ``flowseg`` with spans recorded, for the traced runs of ``seq2k-cli``.

Usage: ``python3 perfbench/cli_traced.py SPANS_JSON <flowseg arguments>``.

Behaves like the ``flowseg`` command and exits with its code.  The process
that parses the arguments records the cli-side spans (``cli.cmd_run``, frame
I/O, ego motion); each pool worker records the spans of the pairs it runs and
appends them to a file of its own, because workers exit without running
``atexit`` hooks.  At the end all of them are merged into SPANS_JSON.

The pool inherits the wrappers only when it forks its workers, which is the
default start method on Linux before Python 3.14; elsewhere the worker-side
spans are missing and the workers' stages read zero.
"""
import glob
import json
import os
import sys
from time import perf_counter

from spans import Instrumented, Tracer

TRACER = Tracer()
WORKER_FILES = None
_process_pair = None


def traced_process_pair(payload):
    """Stands in for ``flowseg.cli._process_pair`` inside pool workers."""
    TRACER.take()  # drop what the fork copied from the parent
    TRACER.op = payload[0].frame_id
    try:
        return _process_pair(payload)
    finally:
        spans, counts = TRACER.take()
        with open(f"{WORKER_FILES}.{os.getpid()}", "a", encoding="utf-8") as f:
            f.write(json.dumps({"spans": spans, "counts": counts}) + "\n")


def main() -> int:
    global WORKER_FILES, _process_pair
    out_path, argv = sys.argv[1], sys.argv[2:]
    WORKER_FILES = out_path + ".worker"
    start = perf_counter()
    import flowseg.cli as cli
    import_s = perf_counter() - start
    instrumented = Instrumented(TRACER)
    _process_pair = cli._process_pair
    cli._process_pair = traced_process_pair
    try:
        code = cli.main(argv)
    finally:
        cli._process_pair = _process_pair
        instrumented.close()
    spans, counts = TRACER.take()
    processes = [spans]
    for path in sorted(glob.glob(WORKER_FILES + ".*")):
        with open(path, encoding="utf-8") as f:
            for line in f:
                record = json.loads(line)
                processes.append(record["spans"])
                for key, value in record["counts"].items():
                    counts[key] = counts.get(key, 0.0) + value
        os.remove(path)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"import_s": import_s, "exit": code, "counts": counts,
                   "processes": processes}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
