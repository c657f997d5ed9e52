"""In-memory span recorder and the per-layer metrics derived from its spans.

Spans are recorded from the benchmark's own files: `install` rebinds a fixed
list of the package's public functions, in every `reconfcsp` module namespace
that holds them, to a wrapper that times the call.  Classes and per-bit
methods are never wrapped, so the cost of tracing stays small; the benchmark
reports that cost as `trace.overhead_s`.

A span is the tuple `(name, start, end, parent, item, counts)`: `parent` is
the index of the enclosing span or -1, `item` the id of the benchmark item
being run, and `counts` a dict of work counted at the same boundary, or None.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter


class SpanRecorder:
    """Nested call spans of one single-threaded process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.item = -1
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, count=None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.item, None)
        if count is not None:
            counts = count(args, kwargs, result)
            self.spans[index] = (name, start, end, parent, self.item, counts)
        return result


def _targets():
    """(module, function, span name, work counter) for every traced function.

    A counter maps the call's arguments, by parameter name, and its result
    to a dict of work counts.
    """
    from reconfcsp.solver import state_space_size

    def arity_counts(arguments, result):
        return {
            "cells": sum(cell.alphabet for cell in result.cells),
            "accepts": sum(len(acc) for acc in result.instance.graph.accepts),
        }

    return [
        ("reconfcsp.core", "serialize", "core.serialize",
         lambda arguments, result: {"bytes": len(result)}),
        ("reconfcsp.core", "deserialize", "core.deserialize",
         lambda arguments, result: {"bytes": len(arguments["text"])}),
        ("reconfcsp.solver", "maxmin_value", "solver.maxmin_value", None),
        ("reconfcsp.solver", "reachable_at_threshold", "solver.reachable_at_threshold",
         lambda arguments, result: {"states": state_space_size(arguments["instance"].graph)}),
        ("reconfcsp.hadamard", "generate_codeword_path", "hadamard.generate_codeword_path",
         lambda arguments, result: {"steps": len(result.steps)}),
        ("reconfcsp.robustize", "robustize", "robustize.robustize", None),
        ("reconfcsp.robustize", "count_satisfied", "robustize.count_satisfied", None),
        ("reconfcsp.robustize", "completeness_sequence", "robustize.completeness_sequence", None),
        ("reconfcsp.robustize", "adversarial_block_sequence",
         "robustize.adversarial_block_sequence", None),
        ("reconfcsp.robustize", "extract_psi_sequence", "robustize.extract_psi_sequence",
         lambda arguments, result: {"steps": len(arguments["sigma_seq"])}),
        ("reconfcsp.robustize", "sat_inputs", "robustize.sat_inputs",
         lambda arguments, result: {"inputs": len(result)}),
        ("reconfcsp.robustize", "materialize_micro_csp", "robustize.materialize_micro_csp", None),
        ("reconfcsp.robustize", "write_system", "robustize.system_io", None),
        ("reconfcsp.robustize", "read_system", "robustize.system_io", None),
        ("reconfcsp.compose", "arity_reduce", "compose.arity_reduce", arity_counts),
        ("reconfcsp.compose", "compose_system", "compose.compose_system",
         lambda arguments, result: {"hyperedges": len(result.instance.graph.edges)}),
        ("reconfcsp.compose", "stage_maxmin", "compose.stage_maxmin", None),
        ("reconfcsp.compose", "full_pipeline", "compose.full_pipeline", None),
        ("reconfcsp.cli", "main", "cli.main",
         lambda arguments, result: {"nonzero": int(result != 0)}),
    ]


def install(recorder: SpanRecorder):
    """Wrap every traced function wherever a `reconfcsp` module binds it.

    Returns a callable that restores the original bindings.
    """
    undo = []
    for module_name, attr, span_name, count in _targets():
        original = getattr(importlib.import_module(module_name), attr)
        if count is not None:
            signature = inspect.signature(original)
            count = functools.partial(_count_bound, signature, count)

        def wrapper(*args, _fn=original, _name=span_name, _count=count, **kwargs):
            return recorder.call(_name, _fn, args, kwargs, _count)

        functools.update_wrapper(wrapper, original)
        for name, module in list(sys.modules.items()):
            if name != "reconfcsp" and not name.startswith("reconfcsp."):
                continue
            for key, bound in list(vars(module).items()):
                if bound is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))

    def restore():
        for module, key, original in reversed(undo):
            setattr(module, key, original)

    return restore


def _count_bound(signature, count, args, kwargs, result):
    arguments = signature.bind(*args, **kwargs)
    arguments.apply_defaults()
    return count(arguments.arguments, result)


# ---------------------------------------------------------------------------
# Deriving per-layer metrics from spans
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    out = []
    for index, (_, start, end, _, _, _) in enumerate(spans):
        intervals = sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children.get(index, ())
        )
        covered = 0.0
        reach = start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# metric -> span names whose self time it sums
SELF_TIME = {
    "core.serialize_s": ("core.serialize",),
    "core.deserialize_s": ("core.deserialize",),
    "core.graph_build_s": ("core.graph_build",),
    "solver.maxmin_s": ("solver.maxmin_value",),
    "solver.reach_s": ("solver.reachable_at_threshold",),
    "hadamard.path_generate_s": ("hadamard.generate_codeword_path",),
    "robustize.count_satisfied_s": ("robustize.count_satisfied",),
    "robustize.completeness_s": ("robustize.completeness_sequence",),
    "robustize.adversarial_walk_s": ("robustize.adversarial_block_sequence",),
    "robustize.extract_s": ("robustize.extract_psi_sequence",),
    "robustize.robustize_s": ("robustize.robustize",),
    "robustize.sat_inputs_s": ("robustize.sat_inputs",),
    "robustize.materialize_micro_s": ("robustize.materialize_micro_csp",),
    "robustize.system_io_s": ("robustize.system_io",),
    "compose.arity_reduce_s": ("compose.arity_reduce",),
    "compose.compose_system_s": ("compose.compose_system",),
    "compose.stage_maxmin_s": ("compose.stage_maxmin",),
    "compose.full_pipeline_s": ("compose.full_pipeline",),
    "cli.self_s": ("cli.main",),
}

# metric -> span name whose calls it counts
CALLS = {
    "solver.maxmin_calls": "solver.maxmin_value",
    "solver.bfs_passes": "solver.reachable_at_threshold",
    "hadamard.path_calls": "hadamard.generate_codeword_path",
    "robustize.count_satisfied_calls": "robustize.count_satisfied",
    "cli.commands": "cli.main",
}

# metric -> (span names, key of the work counted at those spans)
WORK = {
    "core.json_bytes": (("core.serialize", "core.deserialize"), "bytes"),
    "core.accept_tuples": (("core.graph_build",), "accepts"),
    "solver.states": (("solver.reachable_at_threshold",), "states"),
    "hadamard.path_steps": (("hadamard.generate_codeword_path",), "steps"),
    "robustize.extract_steps": (("robustize.extract_psi_sequence",), "steps"),
    "robustize.sat_inputs_total": (("robustize.sat_inputs",), "inputs"),
    "compose.cell_alphabet_total": (("compose.arity_reduce",), "cells"),
    "compose.binary_accept_tuples": (("compose.arity_reduce",), "accepts"),
    "compose.composed_hyperedges": (("compose.compose_system",), "hyperedges"),
    "cli.exit_nonzero": (("cli.main",), "nonzero"),
}

def layer_metrics(spans, items: int, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-item averages of every per-layer metric, plus the tracing metrics."""
    selfs = self_times(spans)
    self_by_name: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    work: dict[tuple[str, str], int] = {}
    for span, own in zip(spans, selfs):
        name, counts = span[0], span[5]
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        calls_by_name[name] = calls_by_name.get(name, 0) + 1
        for key, amount in (counts or {}).items():
            work[(name, key)] = work.get((name, key), 0) + amount
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(self_by_name.get(n, 0.0) for n in names) / items
    for metric, name in CALLS.items():
        out[metric] = calls_by_name.get(name, 0) / items
    for metric, (names, key) in WORK.items():
        out[metric] = sum(work.get((n, key), 0) for n in names) / items
    out["trace.overhead_s"] = (traced_wall - untraced_wall) / items
    # the benchmark records each item as a span named "item" around its layers
    out["trace.unattributed_s"] = self_by_name.get("item", 0.0) / items
    return out
