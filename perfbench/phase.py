"""One measured phase of a benchmark run, in a fresh interpreter.

`run.py` starts this script once per phase so that the package's caches
start cold, as they do for a user of the command line.  The phase sets up
(imports and seeded inputs), then runs whole cycles of items in a closed
loop until `--seconds` have passed, or exactly `--items` items, and writes
what it measured to `--out` as JSON.

Modes: `setup` stops after set-up; `timed` runs the items untraced; `traced`
runs them with spans recorded around the package's public functions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_package() -> None:
    """Import the package from this checkout's sources, never another copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import reconfcsp

    origin = Path(reconfcsp.__file__).resolve()
    if origin.parent != ROOT / "src" / "reconfcsp":
        raise ImportError(f"reconfcsp imported from {origin}, not from this checkout")


def run_items(workload, items, seconds: float, limit: int | None, recorder=None) -> dict:
    """Closed loop over whole cycles of items; checks every item's outputs."""
    from reconfcsp.core import ConstraintGraph

    cycle = len(workload.cycle)
    latencies, digests, failures = [], [], []
    probe_time = 0.0
    start = time.perf_counter()
    for index, item in enumerate(items):
        if index % cycle == 0 and index > 0:
            if limit is not None and index >= limit:
                break
            if limit is None and time.perf_counter() - start - probe_time >= seconds:
                break
        t0 = time.perf_counter()
        out, values = None, None
        try:
            if recorder is None:
                out, problems, values = attempt(workload, item)
            else:
                recorder.item = index
                out, problems, values = recorder.call("item", attempt, (workload, item), {})
        except Exception:
            problems = [traceback.format_exc(limit=-3)]
        latencies.append(time.perf_counter() - t0)
        if recorder is not None and out is not None and not problems:
            graph = workload.probe_graph(out)
            if graph is not None:
                p0 = time.perf_counter()
                recorder.call("core.graph_build", _rebuild, (ConstraintGraph, graph), {},
                              lambda args, kwargs, result: {"accepts": result})
                probe_time += time.perf_counter() - p0
        if hasattr(workload, "cleanup"):
            workload.cleanup(item)
        if problems:
            failures.append(f"item {index}: " + "; ".join(problems))
        digests.append(values)
    wall = time.perf_counter() - start - probe_time
    prefix = digests[: workload.digest_items]
    digest = hashlib.sha256(json.dumps(prefix, sort_keys=True).encode()).hexdigest()
    return {
        "latencies": latencies,
        "wall": wall,
        "failures": failures,
        "digest": digest,
        "digest_items": len(prefix),
    }


def attempt(workload, item):
    """Run one item and check its outputs: (outputs, problems, digest values)."""
    out = workload.execute(item)
    problems, values = workload.check(item, out)
    return out, problems, values


def _rebuild(constraint_graph, graph) -> int:
    """Rebuild a graph through the public constructor; return its accepted tuples."""
    rebuilt = constraint_graph(
        q=graph.q,
        vertices=graph.vertices,
        edges=graph.edges,
        alphabet=graph.alphabet,
        accepts=graph.accepts,
        vertex_alphabets=dict(graph.vertex_alphabets),
    )
    return sum(len(acc) for acc in rebuilt.accepts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--items", type=int, default=None, help="run exactly this many items")
    parser.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    load_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    count = args.items
    if count is None:
        count = math.ceil(args.seconds * workload.pool_per_second)
    cycle = len(workload.cycle)
    count = -(-count // cycle) * cycle
    items = workload.make_items(args.seed, count, workdir)
    setup_done = time.monotonic()
    result = {"setup_done": setup_done, "pool": len(items)}
    if args.mode != "setup":
        recorder = restore = None
        if args.mode == "traced":
            from spans import SpanRecorder, install

            recorder = SpanRecorder()
            restore = install(recorder)
        try:
            result.update(run_items(workload, items, args.seconds, args.items, recorder))
        finally:
            if restore is not None:
                restore()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if recorder is not None:
            result["spans"] = recorder.spans
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
