"""Benchmark of the reconfcsp toolkit: three seeded closed-loop workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload micro-pipeline --seed 1 --seconds 30 --trace 0

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics,
derived from spans recorded around the package's public functions.  Every
phase runs in a fresh interpreter started from this process, one at a time,
so the package's caches start cold and no two phases share a core.  See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Set-up is timed in this many fresh interpreters besides the timed phase's own.
SETUP_SAMPLES = 4
# Every run must end within this many seconds.
DEADLINE_S = 170.0


class PhaseError(RuntimeError):
    """A phase process failed or ran out of time."""


def run_phase(workload, seed, seconds, mode, workdir, deadline, items=None) -> dict:
    """Start one phase in a fresh interpreter and return what it measured."""
    out = workdir / f"{mode}-{time.monotonic_ns()}.json"
    command = [
        sys.executable, str(HERE / "phase.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        "--workdir", str(workdir / "items"), "--out", str(out),
    ]
    if items is not None:
        command += ["--items", str(items)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise PhaseError("out of time before the phase started")
    started = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=remaining,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise PhaseError(f"{mode} phase exceeded the time limit") from exc
    if done.returncode != 0:
        raise PhaseError(f"{mode} phase exited with {done.returncode}:\n{done.stderr.strip()}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["setup_done"] - started
    return result


def machine_facts() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def end_to_end(args, workdir, deadline):
    setups = [
        run_phase(args.workload, args.seed, args.seconds, "setup", workdir, deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    timed = run_phase(args.workload, args.seed, args.seconds, "timed", workdir, deadline)
    setups.append(timed["setup_s"])
    latencies = timed["latencies"]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(latencies) / timed["wall"],
        "item_p50_s": statistics.median(latencies),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]
    }
    info = {
        "items": len(latencies),
        "wall_s": timed["wall"],
        "error_rate": len(timed["failures"]) / len(latencies),
        "output_digest": timed["digest"],
        "digest_items": timed["digest_items"],
        "setup_samples_s": setups,
        "failures": timed["failures"][:5],
    }
    return metrics, info, [timed]


def per_layer(args, workdir, deadline):
    from spans import layer_metrics

    traced = run_phase(args.workload, args.seed, args.seconds, "traced", workdir, deadline)
    items = len(traced["latencies"])
    untraced = run_phase(args.workload, args.seed, args.seconds, "timed", workdir, deadline,
                         items=items)
    derived = layer_metrics(traced["spans"], items, traced["wall"], untraced["wall"])
    metrics = {
        m["name"]: {"value": derived[m["name"]], "unit": m["unit"]} for m in SPEC["per_layer"]
    }
    info = {
        "items": items,
        "traced_wall_s": traced["wall"],
        "untraced_wall_s": untraced["wall"],
        "spans": len(traced["spans"]),
        "output_digest": traced["digest"],
        "untraced_output_digest": untraced["digest"],
        "digest_items": traced["digest_items"],
        "failures": (traced["failures"] + untraced["failures"])[:5],
    }
    return metrics, info, [traced, untraced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "reconfcsp" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, info, phases = per_layer(args, workdir, deadline)
        else:
            metrics, info, phases = end_to_end(args, workdir, deadline)
    except PhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(len(p["latencies"]) for p in phases)
    failed = sum(len(p["failures"]) for p in phases)
    digests_agree = len({p["digest"] for p in phases}) == 1
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, machine=machine_facts())
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload} error_rate = {info['error_rate']:.6g} ratio "
              f"({failed}/{attempted} items failed)")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and digests_agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
