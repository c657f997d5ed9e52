"""Exact maxmin-reconfiguration oracle for small instances.

States are assignments encoded as mixed-radix integers.  The maxmin value is
a maximum-capacity (widest) path over single-vertex moves, where a state's
capacity is its satisfied-edge count; one bucket-queue search computes it,
and the same search with a single bucket is the breadth-first reachability
check at a fixed threshold.  `dfs_maxmin` is a deliberately independent
second implementation used to cross-check the primary one; keep the two
from sharing code.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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
    size = 1
    for v in graph.vertices:
        size *= graph.alphabet_of(v)
    return size


class _Space:
    """Mixed-radix encoding plus incremental satisfied-edge counting."""

    def __init__(self, graph: ConstraintGraph):
        self.graph = graph
        self.vertices = graph.vertices
        self.sizes = [graph.alphabet_of(v) for v in self.vertices]
        self.strides = []
        acc = 1
        for size in self.sizes:
            self.strides.append(acc)
            acc *= size
        index = graph.vertex_index
        self.edge_coords = [tuple(index[v] for v in edge) for edge in graph.edges]
        # one tuple set per edge for the whole search: hashing a tuple is the
        # cheapest membership test in this hot loop
        self.accepts = [frozenset(acc) for acc in graph.accepts]
        self.incidence: list[list[int]] = [[] for _ in self.vertices]
        for j, coords in enumerate(self.edge_coords):
            for i in set(coords):
                self.incidence[i].append(j)

    def encode(self, symbols: tuple[int, ...]) -> int:
        return sum(s * stride for s, stride in zip(symbols, self.strides))

    def decode(self, state: int) -> tuple[int, ...]:
        out = []
        for size in self.sizes:
            out.append(state % size)
            state //= size
        return tuple(out)

    def from_assignment(self, psi: Assignment) -> tuple[int, ...]:
        return tuple(psi.values[v] for v in self.vertices)

    def to_assignment(self, symbols: tuple[int, ...]) -> Assignment:
        return Assignment(dict(zip(self.vertices, symbols)))

    def edge_ok(self, j: int, symbols: tuple[int, ...]) -> bool:
        return tuple(symbols[i] for i in self.edge_coords[j]) in self.accepts[j]

    def count(self, symbols: tuple[int, ...]) -> int:
        return sum(1 for j in range(len(self.edge_coords)) if self.edge_ok(j, symbols))

    def count_after_move(
        self, symbols: tuple[int, ...], count: int, vertex: int, symbol: int
    ) -> tuple[tuple[int, ...], int]:
        moved = list(symbols)
        moved[vertex] = symbol
        moved_t = tuple(moved)
        for j in self.incidence[vertex]:
            count += self.edge_ok(j, moved_t) - self.edge_ok(j, symbols)
        return moved_t, count


def _witness(space: _Space, parents: dict[int, int], state_id: int) -> ReconfigSequence:
    chain = []
    while state_id != -1:
        chain.append(state_id)
        state_id = parents[state_id]
    chain.reverse()
    return ReconfigSequence(tuple(space.to_assignment(space.decode(s)) for s in chain))


def _search(
    instance: ReconfInstance, floor: int, cap: int, budget: int
) -> tuple[int | None, ReconfigSequence | None]:
    """Widest-path search from psi_ini to psi_tar over single-vertex moves.

    Labels are min(cap, smallest satisfied count on the discovery path), and
    states below `floor` are never entered.  FIFO buckets pop highest label
    first, so a label never exceeds the popped level and is final when set.
    With floor == cap this is a plain BFS.  Returns (label, witness) for the
    target, or (None, None) when no sequence stays at or above `floor`.
    """
    graph = instance.graph
    if not graph.edges:
        raise InstanceError("no constraints: graph has an empty hyperedge list")
    size = state_space_size(graph)
    if size > budget:
        raise BudgetExceededError(
            f"instance too large for exact search: {size} states exceed budget {budget}"
        )
    space = _Space(graph)
    ini = space.from_assignment(instance.psi_ini)
    tar = space.from_assignment(instance.psi_tar)
    ini_count = space.count(ini)
    if ini_count < floor or space.count(tar) < floor:
        return None, None
    ini_id, tar_id = space.encode(ini), space.encode(tar)
    parents: dict[int, int] = {ini_id: -1}
    level = min(cap, ini_count)
    if ini_id == tar_id:
        return level, _witness(space, parents, tar_id)
    buckets = [deque() for _ in range(level - floor + 1)]
    buckets[level - floor].append((ini_id, ini, ini_count))
    while level >= floor:
        bucket = buckets[level - floor]
        if not bucket:
            level -= 1
            continue
        state_id, symbols, count = bucket.popleft()
        for vertex in range(len(space.vertices)):
            current = symbols[vertex]
            for symbol in range(space.sizes[vertex]):
                if symbol == current:
                    continue
                nxt_id = state_id + (symbol - current) * space.strides[vertex]
                if nxt_id in parents:
                    continue
                nxt, nxt_count = space.count_after_move(symbols, count, vertex, symbol)
                if nxt_count < floor:
                    continue
                parents[nxt_id] = state_id
                label = min(level, nxt_count)
                if nxt_id == tar_id:
                    return label, _witness(space, parents, tar_id)
                buckets[label - floor].append((nxt_id, nxt, nxt_count))
    return None, None


def reachable_at_threshold(
    instance: ReconfInstance, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[bool, ReconfigSequence | None]:
    """BFS over assignments satisfying at least k hyperedges.

    Returns (True, shortest witness sequence) when the target is reachable,
    (False, None) otherwise.  Never approximates: a state space above the
    budget raises instead.
    """
    label, witness = _search(instance, k, k, budget)
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
    upper = min(value(graph, instance.psi_ini).satisfied, value(graph, instance.psi_tar).satisfied)
    # Threshold 0 admits every state, so the widest-path search always succeeds.
    best_k, witness = _search(instance, 0, upper, budget)
    if best_k < upper:
        # Only the top bucket is explored in BFS order; below it, rerun the
        # BFS at the optimum for the shortest witness.
        _, witness = reachable_at_threshold(instance, best_k, budget)
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
    sizes = {v: graph.alphabet_of(v) for v in names}
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


def generate_instance(
    kind: str,
    vertices: int,
    alphabet: int,
    seed: int,
    satisfiable: bool,
    edge_count: int | None = None,
    walk_length: int | None = None,
    extra_tuples: int = 2,
    budget: int = DEFAULT_BUDGET,
    max_attempts: int = 20,
) -> tuple[ReconfInstance, ReconfigSequence | None]:
    """Deterministic per-seed instance generator.

    With `satisfiable`, constraints are grown around a random one-vertex-move
    walk so both endpoints satisfy the graph and the walk itself is a
    satisfying reconfiguration sequence (returned alongside); the claim is
    re-verified with the exact solver whenever the state space is in budget.
    """
    if vertices < 2:
        raise InstanceError("need at least 2 vertices")
    if alphabet < 2:
        raise InstanceError("alphabet size must be at least 2")
    names = [f"v{i}" for i in range(vertices)]
    if edge_count is None:
        edge_count = vertices
    if walk_length is None:
        walk_length = 2 * vertices
    for attempt in range(max_attempts):
        rng = stream(seed, "generate", kind, attempt)
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
        if sequence_value(graph, seq) != 1:
            continue
        if state_space_size(graph) <= min(budget, 1 << 20):
            ok, _ = reachable_at_threshold(instance, len(edges), budget=budget)
            if not ok:
                continue
        return instance, seq
    raise InstanceError(
        "satisfiable generation timed out; try smaller --vertices/--alphabet"
    )
