"""Exact maxmin-reconfiguration oracle for small instances.

States are assignments encoded as mixed-radix integers, vertex 0 least
significant.  The maxmin value is a maximum-capacity (widest) path over
single-vertex moves, where a state's capacity is its satisfied-edge count;
one bucket-queue search computes it, and the same search with a single
bucket is the breadth-first reachability check at a fixed threshold.  The
search reads every count from one array of 1-2 bytes per state, built with
numpy from the hyperedges' accept tables before the search starts; the
state budget bounds its size.  `dfs_maxmin` is a deliberately independent
second implementation used to cross-check the primary one; keep the two
from sharing code.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_BUDGET
from .core import (
    Assignment,
    ConstraintGraph,
    InstanceError,
    ReconfInstance,
    ReconfigSequence,
    Value,
    sequence_value,
    value,
)
from .seeding import stream


@dataclass(frozen=True)
class MaxminResult:
    optimum: Value
    witness: ReconfigSequence | None


class BudgetExceededError(InstanceError):
    """The assignment space is too large for exhaustive search."""


def state_space_size(graph: ConstraintGraph) -> int:
    return math.prod(graph.alphabets.values())


def _count_table(graph: ConstraintGraph, budget: int) -> memoryview:
    """Satisfied-hyperedge count of every state, indexed by state id.

    The counts live in one array of the smallest unsigned type that holds
    |E|, laid out so its flat index is the state id.  Hyperedges over the
    same vertices have their accept tables (`ConstraintGraph.vertex_table`)
    summed first, and each sum is broadcast-added once.  Vertices of
    alphabet 1 have no stride of their own, so they get no axis.
    """
    if not graph.edges:
        raise InstanceError("no constraints: graph has an empty hyperedge list")
    size = state_space_size(graph)
    if size > budget:
        raise BudgetExceededError(
            f"instance too large for exact search: {size} states exceed budget {budget}"
        )
    index = graph.vertex_index
    sizes = list(graph.alphabets.values())
    dtype = np.min_scalar_type(len(graph.edges))
    groups: dict[tuple[int, ...], np.ndarray] = {}
    for j in range(len(graph.edges)):
        distinct, table = graph.vertex_table(j)
        # axes in descending vertex order: the flat state id's last axis is vertex 0
        order = sorted(range(len(distinct)), key=lambda a: -index[distinct[a]])
        key = tuple(i for i in (index[distinct[a]] for a in order) if sizes[i] > 1)
        table = table.transpose(order).reshape([sizes[i] for i in key])
        groups[key] = groups[key] + table if key in groups else table.astype(dtype)
    live = [i for i in reversed(range(len(sizes))) if sizes[i] > 1]
    counts = np.zeros([sizes[i] for i in live], dtype=dtype)
    for key, total in groups.items():
        counts += total.reshape([sizes[i] if i in key else 1 for i in live])
    return memoryview(counts.reshape(-1))


def _witness(graph: ConstraintGraph, parents: dict[int, int], state_id: int) -> ReconfigSequence:
    chain = []
    while state_id != -1:
        chain.append(state_id)
        state_id = parents[state_id]
    steps = []
    for state_id in reversed(chain):
        symbols = {}
        for v, size in graph.alphabets.items():
            state_id, symbols[v] = divmod(state_id, size)
        steps.append(Assignment(symbols))
    return ReconfigSequence(tuple(steps))


def _search(
    instance: ReconfInstance, counts: memoryview, floor: int, cap: int
) -> tuple[int | None, ReconfigSequence | None]:
    """Widest-path search from psi_ini to psi_tar over single-vertex moves.

    Labels are min(cap, smallest satisfied count on the discovery path), and
    states below `floor` are never entered.  FIFO buckets pop highest label
    first, so a label never exceeds the popped level and is final when set.
    With floor == cap this is a plain BFS.  The endpoints must differ, and
    `counts` is `_count_table`'s.  Returns (label, witness) for the target,
    or (None, None) when no sequence stays at or above `floor`.
    """
    graph = instance.graph
    moves = []  # (stride, alphabet) of each vertex, in vertex order
    stride = 1
    for size in graph.alphabets.values():
        moves.append((stride, size))
        stride *= size
    ini_id, tar_id = (
        sum(psi.values[v] * stride for v, (stride, _) in zip(graph.vertices, moves))
        for psi in (instance.psi_ini, instance.psi_tar)
    )
    ini_count = counts[ini_id]
    if ini_count < floor or counts[tar_id] < floor:
        return None, None
    parents: dict[int, int] = {ini_id: -1}
    level = min(cap, ini_count)
    buckets = [deque() for _ in range(level - floor + 1)]
    buckets[level - floor].append(ini_id)
    while level >= floor:
        bucket = buckets[level - floor]
        if not bucket:
            level -= 1
            continue
        state_id = bucket.popleft()
        for stride, size in moves:
            # the move's other states, in symbol order; state_id itself is in parents
            base = state_id - (state_id // stride) % size * stride
            for nxt_id in range(base, base + size * stride, stride):
                if nxt_id in parents:
                    continue
                nxt_count = counts[nxt_id]
                if nxt_count < floor:
                    continue
                parents[nxt_id] = state_id
                label = min(level, nxt_count)
                if nxt_id == tar_id:
                    return label, _witness(graph, parents, tar_id)
                buckets[label - floor].append(nxt_id)
    return None, None


def reachable_at_threshold(
    instance: ReconfInstance, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[bool, ReconfigSequence | None]:
    """BFS over assignments satisfying at least k hyperedges.

    Returns (True, shortest witness sequence) when the target is reachable,
    (False, None) otherwise.  Never approximates: unless the endpoints are
    equal, a state space above the budget raises instead.
    """
    if instance.psi_ini == instance.psi_tar:  # no move to search, as in maxmin_value
        if value(instance.graph, instance.psi_ini).satisfied < k:
            return False, None
        return True, ReconfigSequence((instance.psi_ini,))
    label, witness = _search(instance, _count_table(instance.graph, budget), k, k)
    return label is not None, witness


def maxmin_value(instance: ReconfInstance, budget: int = DEFAULT_BUDGET) -> MaxminResult:
    """Largest k/|E| with the endpoints connected through >=k-satisfying states.

    The witness is the shortest sequence at that threshold.
    """
    graph = instance.graph
    total = len(graph.edges)
    if total == 0:
        raise InstanceError("no constraints: graph has an empty hyperedge list")
    if instance.psi_ini == instance.psi_tar:
        v = value(graph, instance.psi_ini)
        return MaxminResult(v, ReconfigSequence((instance.psi_ini,)))
    counts = _count_table(graph, budget)
    upper = min(value(graph, instance.psi_ini).satisfied, value(graph, instance.psi_tar).satisfied)
    # Threshold 0 admits every state, so the widest-path search always succeeds.
    best_k, witness = _search(instance, counts, 0, upper)
    if best_k < upper:
        # Only the top bucket is explored in BFS order; below it, rerun the
        # BFS at the optimum for the shortest witness.
        _, witness = _search(instance, counts, best_k, best_k)
    return MaxminResult(Value(best_k, total), witness)


def dfs_maxmin(instance: ReconfInstance, limit: int = 4096) -> Value:
    """Independent oracle: depth-first enumeration of paths with bottleneck relaxation.

    Explores every reconfiguration path (pruning only continuations that
    cannot improve the recorded bottleneck for a state), so it agrees with
    full sequence enumeration.  Intentionally shares no machinery with the
    widest-path search above.
    """
    graph = instance.graph
    if not graph.edges:
        raise InstanceError("no constraints: graph has an empty hyperedge list")
    if state_space_size(graph) > limit:
        raise BudgetExceededError(
            f"instance too large for exact search: {state_space_size(graph)} states exceed {limit}"
        )
    names = list(graph.vertices)
    sizes = graph.alphabets
    accepted = [set(acc) for acc in graph.accepts]

    def count_satisfied(assign: dict[str, int]) -> int:
        hit = 0
        for edge, acc in zip(graph.edges, accepted):
            if tuple(assign[v] for v in edge) in acc:
                hit += 1
        return hit

    start = dict(instance.psi_ini.values)
    goal = dict(instance.psi_tar.values)
    start_key = tuple(start[v] for v in names)
    goal_key = tuple(goal[v] for v in names)
    values: dict[tuple[int, ...], int] = {}

    def val(key: tuple[int, ...]) -> int:
        if key not in values:
            values[key] = count_satisfied(dict(zip(names, key)))
        return values[key]

    best: dict[tuple[int, ...], int] = {start_key: val(start_key)}
    stack = [start_key]
    while stack:
        key = stack.pop()
        bottleneck = best[key]
        for i, v in enumerate(names):
            for symbol in range(sizes[v]):
                if symbol == key[i]:
                    continue
                nxt = key[:i] + (symbol,) + key[i + 1 :]
                nb = min(bottleneck, val(nxt))
                if nb > best.get(nxt, -1):
                    best[nxt] = nb
                    stack.append(nxt)
    # Single-vertex moves connect the whole space, so the goal is always relaxed.
    return Value(best[goal_key], len(graph.edges))


def random_adversarial_sequence(
    instance: ReconfInstance, seed: int, steps: int = 32
) -> ReconfigSequence:
    """Seeded scramble-then-repair walk from psi_ini to psi_tar.

    The walk first performs `steps` random single-vertex changes, then fixes
    the remaining disagreements with psi_tar in a seeded order.  Output is a
    valid sequence with the requested endpoints, identical for equal seeds.
    """
    rng = stream(seed, "adversarial-walk")
    graph = instance.graph
    names = list(graph.vertices)
    walk = [instance.psi_ini]
    current = instance.psi_ini
    for _ in range(steps):
        v = rng.choice(names)
        size = graph.alphabet_of(v)
        if size < 2:
            continue
        symbol = rng.randrange(size - 1)
        if symbol >= current.values[v]:
            symbol += 1
        current = current.with_value(v, symbol)
        walk.append(current)
    order = list(names)
    rng.shuffle(order)
    for v in order:
        if current.values[v] != instance.psi_tar.values[v]:
            current = current.with_value(v, instance.psi_tar.values[v])
            walk.append(current)
    return ReconfigSequence(tuple(walk))


def _edge_skeleton(kind: str, names: list[str], edge_count: int, rng) -> list[tuple[str, str]]:
    if kind == "path-graph":
        return [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    if kind == "cycle":
        edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
        edges.append((names[-1], names[0]))
        return edges
    if kind == "random":
        edges = []
        for _ in range(edge_count):
            u, v = rng.sample(names, 2)
            edges.append((u, v))
        return edges
    raise InstanceError(f"unknown instance kind {kind!r}")


# Most walk entries or tuples a generated instance may draw.
MAX_DRAWN_TUPLES = 1 << 20
# Most vertices or edges it may have: 2^19 path-graph vertices do not fit in
# 1 GiB of address space.
MAX_GRAPH_SIZE = 1 << 18


def generate_instance(
    kind: str,
    vertices: int,
    alphabet: int,
    seed: int,
    satisfiable: bool,
    edge_count: int | None = None,
    walk_length: int | None = None,
    extra_tuples: int = 2,
) -> tuple[ReconfInstance, ReconfigSequence | None]:
    """Deterministic per-seed instance generator.

    With `satisfiable`, constraints are grown around a random one-vertex-move
    walk so both endpoints satisfy the graph and the walk itself is a
    satisfying reconfiguration sequence (returned alongside).  The walk's
    value is checked, and a walk that fails it raises instead of being redrawn.
    """
    if vertices < 2:
        raise InstanceError("need at least 2 vertices")
    if alphabet < 2:
        raise InstanceError("alphabet size must be at least 2")
    counts = {"--edges": (edge_count, 1), "--walk": (walk_length, 0), "--extra": (extra_tuples, 0)}
    for flag, (count, least) in counts.items():
        if count is not None and count < least:
            raise InstanceError(f"{flag} must be at least {least}, got {count}")
    if edge_count is None:
        edge_count = vertices
    if walk_length is None:
        walk_length = 2 * vertices
    edge_total = edge_count if kind == "random" else vertices - (kind == "path-graph")
    drawn = {  # flag: (its value, what it sizes, how many, most allowed)
        "--vertices": (vertices, "vertices", vertices, MAX_GRAPH_SIZE),
        "--edges": (edge_count, "edges", edge_total, MAX_GRAPH_SIZE),
    }
    if satisfiable:  # each walk step is a dict over the vertices, read on every edge
        steps = (walk_length + 1) * max(vertices, edge_total)
        drawn["--walk"] = (walk_length, "walk entries", steps, MAX_DRAWN_TUPLES)
        drawn["--extra"] = (extra_tuples, "extra tuples", edge_total * extra_tuples, MAX_DRAWN_TUPLES)
    else:
        drawn["--alphabet"] = (alphabet, "tuples at most", edge_total * (alphabet - 1), MAX_DRAWN_TUPLES)
    for flag, (given, what, count, most) in drawn.items():
        if count > most:
            raise InstanceError(f"{flag} {given}: the {kind} instance would hold {count} "
                                f"{what}, more than {most}")
    names = [f"v{i}" for i in range(vertices)]
    rng = stream(seed, "generate", kind, 0)
    edges = _edge_skeleton(kind, names, edge_count, rng)
    if not satisfiable:
        accepts = []
        for _ in edges:
            count = rng.randrange(1, max(2, alphabet))
            tuples = {
                (rng.randrange(alphabet), rng.randrange(alphabet)) for _ in range(count)
            }
            accepts.append(tuples)
        graph = ConstraintGraph(
            q=2,
            vertices=tuple(names),
            edges=tuple(edges),
            alphabet=alphabet,
            accepts=tuple(accepts),
        )
        psi_ini = Assignment({v: rng.randrange(alphabet) for v in names})
        psi_tar = Assignment({v: rng.randrange(alphabet) for v in names})
        return ReconfInstance(graph, psi_ini, psi_tar), None
    start = {v: rng.randrange(alphabet) for v in names}
    walk = [Assignment(dict(start))]
    current = dict(start)
    for _ in range(walk_length):
        v = rng.choice(names)
        symbol = rng.randrange(alphabet - 1)
        if symbol >= current[v]:
            symbol += 1
        current[v] = symbol
        walk.append(Assignment(dict(current)))
    pair_sets: list[set[tuple[int, int]]] = [set() for _ in edges]
    for step in walk:
        for i, (u, v) in enumerate(edges):
            pair_sets[i].add((step.values[u], step.values[v]))
    for pairs in pair_sets:
        for _ in range(extra_tuples):
            pairs.add((rng.randrange(alphabet), rng.randrange(alphabet)))
    graph = ConstraintGraph(
        q=2,
        vertices=tuple(names),
        edges=tuple(edges),
        alphabet=alphabet,
        accepts=tuple(pair_sets),
    )
    instance = ReconfInstance(graph, walk[0], walk[-1])
    seq = ReconfigSequence(tuple(walk))
    if sequence_value(graph, seq) != 1:  # each step's pairs were added to every edge
        raise InstanceError("the generated walk does not satisfy its own instance")
    return instance, seq
