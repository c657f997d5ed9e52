"""Assignment-tester composition and the end-to-end alphabet-reduction pipeline.

The reference tester turns an explicitly enumerated satisfying set into a
binary constraint graph with one auxiliary variable whose alphabet indexes
that set; it has completeness 1 and effective rejection rate 1.  It stands
in for a constant-alphabet tester (whose target constants live in
`constants.THEORETICAL`, reporting only) behind the same interface, so a
conforming tester can be swapped in later.

Composition runs the tester twice per circuit, superimposes the twins into
rectangular 4-ary constraints (a hyperedge is violated iff both constituent
twin edges are), and the final arity reduction stores unordered value pairs
per coordinate so endpoint moves never need a simultaneous two-sided change.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .constants import DEFAULT_BUDGET, DEFAULT_SEED
from .core import (
    AcceptSet,
    Assignment,
    ConstraintGraph,
    InstanceError,
    ReconfInstance,
    ReconfigSequence,
    Value,
    validate_sequence,
    value,
)
from .robustize import (
    BlockAssignment,
    CircuitSystem,
    MICRO_MAX_N,
    RobustCircuit,
    concat_blocks,
    count_satisfied,
    materialize_micro_csp,
    robustize,
    sat_inputs,
    single_bit_change,
)
from .hadamard import BitFunction
from . import solver


@dataclass
class ReductionTrace:
    """Provenance of a reduced instance: where vertices and hyperedges came from."""

    stage: str
    vertex_origin: dict[str, dict] = field(default_factory=dict)
    hyperedge_origin: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Reference assignment tester
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssignmentTesterOutput:
    """Binary constraint graph over X and Y with a completeness witness.

    `rejection_rate` is the declared soundness slope: any input at relative
    distance d from the satisfying set violates at least a rejection_rate*d
    fraction of edges under every auxiliary assignment.
    """

    graph: ConstraintGraph
    x_vars: tuple[str, ...]
    y_vars: tuple[str, ...]
    rejection_rate: Fraction
    sat_list: tuple[int, ...]
    witness: Callable[[int], dict[str, int]]


def reference_tester(
    sat_list: Sequence[int], x_names: Sequence[str], y_name: str
) -> AssignmentTesterOutput:
    """Tester for the circuit whose satisfying inputs are exactly `sat_list`.

    One auxiliary variable `y_name` names a satisfying assignment; edge i
    checks that bit i of the named assignment equals input bit i.  Edge
    count is m; an input at Hamming distance d from the set violates at
    least d edges whatever y holds.
    """
    m = len(x_names)
    if m > 16:
        raise InstanceError(f"reference tester limited to 16 input bits, got {m}")
    sat_list = tuple(dict.fromkeys(int(s) for s in sat_list))
    if not sat_list:
        raise InstanceError("unsatisfiable circuit: empty satisfying set")
    if len(set(x_names)) != m:
        raise InstanceError("input bit names must be distinct")
    for s in sat_list:
        if not 0 <= s < (1 << m):
            raise InstanceError(f"satisfying input {s} does not fit in {m} bits")
    vertices = tuple(x_names) + (y_name,)
    edges = tuple((y_name, x) for x in x_names)
    accepts = tuple(
        frozenset((j, (s >> i) & 1) for j, s in enumerate(sat_list)) for i in range(m)
    )
    graph = ConstraintGraph(
        q=2,
        vertices=vertices,
        edges=edges,
        alphabet=2,
        accepts=accepts,
        vertex_alphabets={y_name: len(sat_list)},
    )
    index = {s: j for j, s in enumerate(sat_list)}

    def witness(sigma_bits: int) -> dict[str, int]:
        if sigma_bits not in index:
            raise InstanceError("witness requested for a non-satisfying input")
        return {y_name: index[sigma_bits]}

    return AssignmentTesterOutput(
        graph=graph,
        x_vars=tuple(x_names),
        y_vars=(y_name,),
        rejection_rate=Fraction(1),
        sat_list=sat_list,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Superimposition of tester twins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuperimposedGraph:
    graph: ConstraintGraph
    hyperedge_pairs: tuple[tuple[int, int], ...]


def superimpose(
    twin1: AssignmentTesterOutput, twin2: AssignmentTesterOutput
) -> SuperimposedGraph:
    """Product of two tester graphs sharing X: one 4-ary hyperedge per edge pair.

    A hyperedge (e1, e2) accepts (a1, b1, a2, b2) iff e1 accepts (a1, b1) or
    e2 accepts (a2, b2), so it is violated exactly when both twin edges are,
    and violated fractions multiply.
    """
    if twin1.x_vars != twin2.x_vars:
        raise InstanceError("twins must share the same input variables")
    if set(twin1.y_vars) & set(twin2.y_vars):
        raise InstanceError("twin auxiliary variables must be disjoint")
    if not twin1.graph.edges or not twin2.graph.edges:
        raise InstanceError("twin edge sets empty")
    g1, g2 = twin1.graph, twin2.graph
    vertices = tuple(twin1.x_vars) + tuple(twin1.y_vars) + tuple(twin2.y_vars)
    overrides = dict(g1.vertex_alphabets)
    overrides.update(g2.vertex_alphabets)

    tables1, tables2 = ([g.vertex_table(j)[1] for j in range(len(g.edges))] for g in (g1, g2))
    if any(table.ndim != 2 for table in tables1 + tables2):
        raise InstanceError("twin edges must join two distinct vertices")
    edges = []
    accepts = []
    pairs = []
    for i1, e1 in enumerate(g1.edges):
        for i2, e2 in enumerate(g2.edges):
            edges.append((e1[0], e1[1], e2[0], e2[1]))
            # argwhere lists the accepted (a1, b1, a2, b2) in lexicographic order
            accepts.append(np.argwhere(tables1[i1][:, :, None, None] | tables2[i2]))
            pairs.append((i1, i2))
    graph = ConstraintGraph(
        q=4,
        vertices=vertices,
        edges=tuple(edges),
        alphabet=2,
        accepts=tuple(accepts),
        vertex_alphabets=overrides,
    )
    return SuperimposedGraph(graph, tuple(pairs))


def pad_edge_groups(groups: list[list], mark=lambda item: item) -> list[list]:
    """Equalize group sizes by round-robin duplication of existing members."""
    target = max(len(g) for g in groups)
    out = []
    for group in groups:
        if not group:
            raise InstanceError("cannot pad an empty hyperedge group")
        padded = list(group)
        for i in range(target - len(group)):
            padded.append(mark(group[i % len(group)]))
        out.append(padded)
    return out


# ---------------------------------------------------------------------------
# Composition of a whole circuit system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComposedEdge:
    index: int
    circuit: RobustCircuit
    sat_index: dict[int, int]
    y1: str
    y2: str
    x_vars: tuple[str, ...]  # v-block bit names then w-block bit names


@dataclass(frozen=True)
class ComposedSystem:
    instance: ReconfInstance
    trace: ReductionTrace
    edges: tuple[ComposedEdge, ...]
    n: int


def _bit_name(vertex: str, position: int) -> str:
    return f"{vertex}@{position}"


def _edge_sigma_bits(edge: ComposedEdge, sigma: BlockAssignment) -> int:
    return concat_blocks(sigma.blocks[edge.circuit.v], sigma.blocks[edge.circuit.w])


def compose_system(system: CircuitSystem) -> ComposedSystem:
    """Run the reference tester twice per circuit and superimpose the twins.

    Produces a 4-ary instance over block bits plus two auxiliary variables
    per source edge; per-source-edge hyperedge counts are equalized by
    round-robin duplication.  Endpoints assign blocks from the system's
    sigma and both auxiliary twins to the completeness witness.
    """
    if system.n > MICRO_MAX_N:
        raise InstanceError(
            f"composition enumerates satisfying sets; requires n <= {MICRO_MAX_N}"
        )
    length = 1 << system.n
    block_vertices = tuple(
        _bit_name(v, x) for v in system.graph.vertices for x in range(length)
    )
    composed_edges = []
    groups = []
    overrides: dict[str, int] = {}
    trace = ReductionTrace(stage="compose")
    for v in system.graph.vertices:
        for x in range(length):
            trace.vertex_origin[_bit_name(v, x)] = {
                "kind": "block-bit",
                "vertex": v,
                "position": x,
            }
    for c in system.circuits:
        sats = sat_inputs(c)
        if not sats:
            raise InstanceError(f"edge {c.edge_index}: circuit has no satisfying inputs")
        x_names = tuple(_bit_name(c.v, x) for x in range(length)) + tuple(
            _bit_name(c.w, x) for x in range(length)
        )
        y1, y2 = f"y{c.edge_index}.1", f"y{c.edge_index}.2"
        twin1 = reference_tester(sats, x_names, y1)
        twin2 = reference_tester(sats, x_names, y2)
        sup = superimpose(twin1, twin2)
        overrides[y1] = len(sats)
        overrides[y2] = len(sats)
        trace.vertex_origin[y1] = {"kind": "aux", "edge": c.edge_index, "twin": 1}
        trace.vertex_origin[y2] = {"kind": "aux", "edge": c.edge_index, "twin": 2}
        group = [
            (edge, acc, {"source_edge": c.edge_index, "twin_pair": list(pair)})
            for edge, acc, pair in zip(sup.graph.edges, sup.graph.accepts, sup.hyperedge_pairs)
        ]
        groups.append(group)
        composed_edges.append(
            ComposedEdge(
                index=c.edge_index,
                circuit=c,
                sat_index={s: j for j, s in enumerate(sats)},
                y1=y1,
                y2=y2,
                x_vars=x_names,
            )
        )
    groups = pad_edge_groups(
        groups, mark=lambda item: (item[0], item[1], {**item[2], "padding": True})
    )
    edges = []
    accepts = []
    for group in groups:
        for edge, acc, origin in group:
            edges.append(edge)
            accepts.append(acc)
            trace.hyperedge_origin.append(origin)
    vertices = block_vertices + tuple(
        name for e in composed_edges for name in (e.y1, e.y2)
    )
    graph = ConstraintGraph(
        q=4,
        vertices=vertices,
        edges=tuple(edges),
        alphabet=2,
        accepts=tuple(accepts),
        vertex_alphabets=overrides,
    )

    def endpoint(sigma: BlockAssignment) -> Assignment:
        values: dict[str, int] = {}
        for v in system.graph.vertices:
            block = sigma.blocks[v]
            for x in range(length):
                values[_bit_name(v, x)] = block.bit(x)
        for e in composed_edges:
            bits = _edge_sigma_bits(e, sigma)
            if bits not in e.sat_index:
                raise InstanceError(
                    f"edge {e.index}: endpoint blocks do not satisfy the circuit"
                )
            values[e.y1] = values[e.y2] = e.sat_index[bits]
        return Assignment(values)

    instance = ReconfInstance(graph, endpoint(system.sigma_ini), endpoint(system.sigma_tar))
    trace.notes["hyperedges_per_source_edge"] = len(groups[0]) if groups else 0
    return ComposedSystem(instance, trace, tuple(composed_edges), system.n)


def staged_sequence(
    composed: ComposedSystem, sigma_seq: Sequence[BlockAssignment]
) -> ReconfigSequence:
    """Completeness schedule: per block-bit move, update Y1 twins, flip, update Y2.

    Every sigma step must satisfy every circuit (its restriction must appear
    in each satisfying set), which keeps one twin per source edge fully
    consistent at all times.
    """
    if not sigma_seq:
        raise InstanceError("sigma sequence must be non-empty")
    length = 1 << composed.n
    y_values: dict[str, int] = {}
    for e in composed.edges:
        bits = _edge_sigma_bits(e, sigma_seq[0])
        if bits not in e.sat_index:
            raise InstanceError(f"edge {e.index}: sigma step 0 does not satisfy the circuit")
        y_values[e.y1] = y_values[e.y2] = e.sat_index[bits]

    def materialize(sigma: BlockAssignment) -> Assignment:
        values: dict[str, int] = {}
        for v, block in sigma.blocks.items():
            for x in range(length):
                values[_bit_name(v, x)] = block.bit(x)
        values.update(y_values)
        return Assignment(values)

    steps = [materialize(sigma_seq[0])]
    for t in range(len(sigma_seq) - 1):
        change = single_bit_change(sigma_seq[t], sigma_seq[t + 1])
        if change is None:
            continue
        moved_vertex, _ = change
        affected = [
            e for e in composed.edges if moved_vertex in (e.circuit.v, e.circuit.w)
        ]
        targets = {}
        for e in affected:
            bits = _edge_sigma_bits(e, sigma_seq[t + 1])
            if bits not in e.sat_index:
                raise InstanceError(
                    f"edge {e.index}: sigma step {t + 1} does not satisfy the circuit"
                )
            targets[e.index] = e.sat_index[bits]
        for e in affected:
            if y_values[e.y1] != targets[e.index]:
                y_values[e.y1] = targets[e.index]
                steps.append(materialize(sigma_seq[t]))
        steps.append(materialize(sigma_seq[t + 1]))
        for e in affected:
            if y_values[e.y2] != targets[e.index]:
                y_values[e.y2] = targets[e.index]
                steps.append(materialize(sigma_seq[t + 1]))
    return ReconfigSequence(tuple(steps))


def restrict_to_blocks(
    composed: ComposedSystem, seq: ReconfigSequence, system_vertices: Sequence[str]
) -> list[BlockAssignment]:
    """Project a composed-instance sequence back to block assignments."""
    length = 1 << composed.n
    out = []
    for step in seq.steps:
        blocks = {}
        for v in system_vertices:
            bits = 0
            for x in range(length):
                if step.values[_bit_name(v, x)]:
                    bits |= 1 << x
            blocks[v] = BitFunction(composed.n, bits)
        out.append(BlockAssignment(composed.n, blocks))
    return out


# ---------------------------------------------------------------------------
# Arity reduction: 4-ary to binary
# ---------------------------------------------------------------------------


def pair_list(w: int) -> list[tuple[int, int]]:
    """Unordered value pairs over range(w), lexicographic; w(w+1)/2 entries."""
    return [(a, b) for a in range(w) for b in range(a, w)]


@dataclass(frozen=True)
class CellInfo:
    hyperedge: int
    name: str
    vertices: tuple[str, ...]
    pair_lists: tuple[tuple[tuple[int, int], ...], ...]
    alphabet: int

    def encode(self, pairs: Sequence[tuple[int, int]]) -> int:
        sym = 0
        for pl, pair in zip(reversed(self.pair_lists), reversed(list(pairs))):
            sym = sym * len(pl) + pl.index(pair)
        return sym

    def decode(self, sym: int) -> tuple[tuple[int, int], ...]:
        pairs = []
        for pl in self.pair_lists:
            sym, idx = divmod(sym, len(pl))
            pairs.append(pl[idx])
        return tuple(pairs)

    def singleton(self, values: Sequence[int]) -> int:
        return self.encode([(v, v) for v in values])

    def strides(self) -> np.ndarray:
        """Place value of each coordinate's pair index in a cell value."""
        return np.cumprod([1] + [len(pl) for pl in self.pair_lists[:-1]])


@dataclass(frozen=True)
class ArityReduction:
    instance: ReconfInstance
    trace: ReductionTrace
    cells: tuple[CellInfo, ...]


def _valid_cell_symbols(cell: CellInfo, distinct: tuple[str, ...], ok: np.ndarray) -> np.ndarray:
    """All valid cell values, ascending, enumerated over one pair choice per distinct vertex.

    A cell value is valid when its pairs agree on repeated vertices and every
    consistent selection of one value per pair is an accepted tuple.  `ok`
    is the hyperedge's accept table over its `distinct` vertices
    (`ConstraintGraph.vertex_table`).  A pair choice is valid iff all 2^d
    corners of its box (the low or high value of each vertex's pair) are
    accepted; ANDing the low and high slices of one vertex axis at a time
    checks every corner.
    """
    for axis, v in enumerate(distinct):
        lo, hi = np.array(cell.pair_lists[cell.vertices.index(v)]).T
        ok = ok.take(lo, axis=axis) & ok.take(hi, axis=axis)
    strides = cell.strides()
    vertex_strides = [strides[[u == v for u in cell.vertices]].sum() for v in distinct]
    return np.sort(sum(k * s for k, s in zip(np.nonzero(ok), vertex_strides)))


def _cell_edge_rows(
    valid: np.ndarray, stride: int, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Accepted (cell value, endpoint value) rows of one cell-to-coordinate edge.

    Cell value `sym` holds pair (sym // stride) % len(pairs) at the
    coordinate and is accepted with either value of that pair.  With `valid`
    ascending and each pair (a, b) having a <= b, the rows (sym, a) then, if
    b differs, (sym, b) come out in lexicographic order.
    """
    lo, hi = np.array(pairs, dtype=np.int64).T
    index = (valid // stride) % len(pairs)
    a, b = lo[index], hi[index]
    rows = np.stack([valid, a, valid, b], axis=1).reshape(-1, 2)
    keep = np.ones(len(rows), dtype=bool)
    keep[1::2] = a != b
    return rows[keep]


# Largest coordinate-value product space held as one boolean accept table.
_TABLE_COORDINATES = 1 << 20


def arity_reduce(inst4: ReconfInstance, cell_budget: int = 1 << 22) -> ArityReduction:
    """Approximation-preserving reduction from 4-ary to binary constraints.

    Each hyperedge gets a cell vertex holding one unordered value pair per
    coordinate (alphabet is the product of the per-coordinate pair counts,
    i.e. (w(w+1)/2)^4 for a uniform alphabet w).  A cell value is acceptable
    with endpoint i iff the endpoint's value lies in pair i and every
    selection consistent across repeated vertices is an accepted tuple.
    Completeness is constructive; the soundness loss factor is 4 (one
    violated binary edge per violated hyperedge, four binary edges per
    hyperedge).

    Valid cell values are enumerated once per distinct hyperedge (repetition
    pattern, alphabets, accepted tuples) by `_valid_cell_symbols`, and
    hyperedges alike share their four binary accept sets.  Cell alphabets
    are summed up front: exceeding `cell_budget` fails fast before any
    enumeration, since materializing the binary accept sets at that size
    would thrash rather than finish.  A hyperedge whose coordinate-value
    space exceeds 2^20, the largest boolean accept table built, fails the
    same way.
    """
    graph = inst4.graph
    if graph.q != 4:
        raise InstanceError(f"arity must be exactly 4, got {graph.q}")
    existing = set(graph.vertices)
    cells = []
    new_edges: list[tuple[str, str]] = []
    new_accepts: list[np.ndarray] = []
    overrides = dict(graph.vertex_alphabets)
    trace = ReductionTrace(stage="arity-reduce", notes={"soundness_loss_factor": 4})
    for v in graph.vertices:
        trace.vertex_origin[v] = {"kind": "source-vertex", "vertex": v}
    for j, edge in enumerate(graph.edges):
        name = f"cell{j}"
        while name in existing:
            name += "'"
        existing.add(name)
        pls = tuple(tuple(pair_list(graph.alphabet_of(v))) for v in edge)
        alphabet = 1
        for pl in pls:
            alphabet *= len(pl)
        cells.append(CellInfo(j, name, tuple(edge), pls, alphabet))
    total_cells = sum(c.alphabet for c in cells)
    if total_cells > cell_budget:
        worst = max(cells, key=lambda c: c.alphabet)
        raise InstanceError(
            f"cell alphabets total {total_cells} (largest {worst.alphabet} at "
            f"hyperedge {worst.hyperedge}), exceeding the budget {cell_budget}; "
            "constraints this rich are out of materialization range"
        )
    for cell in cells:
        coordinates = math.prod(graph.alphabet_of(v) for v in cell.vertices)
        if coordinates > _TABLE_COORDINATES:
            raise InstanceError(
                f"hyperedge {cell.hyperedge}: coordinate space {coordinates} exceeds "
                f"{_TABLE_COORDINATES}, too large for one boolean accept table"
            )
    # ConstraintGraph reuses these shared, immutable sets unchecked.
    edge_sets: dict[tuple, list[AcceptSet]] = {}
    for j, edge in enumerate(graph.edges):
        cell, acc = cells[j], graph.accepts[j]
        trace.vertex_origin[cell.name] = {"kind": "cell", "hyperedge": j}
        key = (tuple(edge.index(v) for v in edge), acc.sizes, acc.codes.tobytes())
        if key not in edge_sets:
            valid = _valid_cell_symbols(cell, *graph.vertex_table(j))
            edge_sets[key] = [
                AcceptSet(_cell_edge_rows(valid, stride, pl), (cell.alphabet, size))
                for stride, pl, size in zip(cell.strides(), cell.pair_lists, acc.sizes)
            ]
        for i, (v, edge_set) in enumerate(zip(edge, edge_sets[key])):
            new_edges.append((cell.name, v))
            new_accepts.append(edge_set)
            trace.hyperedge_origin.append({"hyperedge": j, "coordinate": i})
    for cell in cells:
        overrides[cell.name] = cell.alphabet
    binary_graph = ConstraintGraph(
        q=2,
        vertices=graph.vertices + tuple(c.name for c in cells),
        edges=tuple(new_edges),
        alphabet=graph.alphabet,
        accepts=tuple(new_accepts),
        vertex_alphabets=overrides,
    )

    def endpoint(psi: Assignment) -> Assignment:
        values = dict(psi.values)
        for cell in cells:
            tuple_values = [psi.values[v] for v in cell.vertices]
            values[cell.name] = cell.singleton(tuple_values)
        return Assignment(values)

    instance = ReconfInstance(binary_graph, endpoint(inst4.psi_ini), endpoint(inst4.psi_tar))
    return ArityReduction(instance, trace, tuple(cells))


def arity_reduce_sequence(
    reduction: ArityReduction, seq4: ReconfigSequence
) -> ReconfigSequence:
    """Lift a 4-ary sequence to the binary instance via the pair schedule.

    Per source move a -> b at vertex u: widen each affected cell's u-pairs
    to {a, b}, move u, then narrow the pairs to {b, b}.  If every source
    step satisfies the touched hyperedges, every lifted step satisfies the
    binary instance.
    """
    if validate_sequence(seq4):
        raise InstanceError("source sequence is not a valid reconfiguration sequence")
    cells_by_vertex: dict[str, list[CellInfo]] = {}
    for cell in reduction.cells:
        for v in set(cell.vertices):
            cells_by_vertex.setdefault(v, []).append(cell)
    current = dict(reduction.instance.psi_ini.values)
    first = seq4.steps[0].values
    for cell in reduction.cells:
        current[cell.name] = cell.singleton([first[v] for v in cell.vertices])
    for v, s in first.items():
        current[v] = s
    steps = [Assignment(dict(current))]
    for t in range(len(seq4.steps) - 1):
        before, after = seq4.steps[t], seq4.steps[t + 1]
        moved = before.changed_vertices(after)
        if not moved:
            continue
        (u,) = moved
        a, b = before.values[u], after.values[u]

        def set_pairs(pair: tuple[int, int]) -> None:
            for cell in cells_by_vertex.get(u, []):
                pairs = cell.decode(current[cell.name])
                current[cell.name] = cell.encode(
                    [pair if v == u else p for v, p in zip(cell.vertices, pairs)]
                )
                steps.append(Assignment(dict(current)))

        set_pairs((min(a, b), max(a, b)))
        current[u] = b
        steps.append(Assignment(dict(current)))
        set_pairs((b, b))
    return ReconfigSequence(tuple(steps))


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageReport:
    stage: str
    vertices: int
    edges: int
    max_alphabet: int
    maxmin: Value | None
    method: str | None


@dataclass
class PipelineResult:
    mode: str
    stages: list[StageReport]
    system: CircuitSystem
    trace: ReductionTrace
    micro_csp: ReconfInstance | None = None
    composed: ComposedSystem | None = None
    reduction: ArityReduction | None = None
    n9_steps: int | None = None
    n9_all_satisfied: bool | None = None


# Largest state space given the full maxmin search in a stage report.
SCAN_CAP = 4096


def stage_maxmin(
    instance: ReconfInstance, budget: int, scan_cap: int
) -> tuple[Value | None, str | None]:
    """Oracle policy for one pipeline stage.

    Equal endpoints need no search; small spaces get the full maxmin search;
    spaces within the budget get a satisfying-threshold reachability check
    that can only certify the value 1; anything larger is left blank.
    """
    total = len(instance.graph.edges)
    if instance.psi_ini == instance.psi_tar:
        return value(instance.graph, instance.psi_ini), "endpoint-value"
    size = solver.state_space_size(instance.graph)
    if size <= scan_cap:
        return solver.maxmin_value(instance, budget=budget).optimum, "bfs-scan"
    if size <= budget:
        ok, _ = solver.reachable_at_threshold(instance, total, budget=budget)
        if ok:
            return Value(total, total), "sat-reachability"
        return None, "sat-unreachable"
    return None, None


def _report(name: str, instance: ReconfInstance, budget: int | None) -> StageReport:
    """The stage's shape, plus its oracle value unless `budget` is None."""
    maxmin, method = (None, None) if budget is None else stage_maxmin(instance, budget, SCAN_CAP)
    return StageReport(
        stage=name,
        vertices=len(instance.graph.vertices),
        edges=len(instance.graph.edges),
        max_alphabet=max(map(instance.graph.alphabet_of, instance.graph.vertices)),
        maxmin=maxmin,
        method=method,
    )


@contextmanager
def _stage(name: str):
    """Tag an InstanceError raised inside the block with the pipeline stage."""
    try:
        yield
    except InstanceError as exc:
        raise InstanceError(f"stage {name}: {exc}") from exc


def _merge_traces(composed: ComposedSystem, reduction: ArityReduction) -> ReductionTrace:
    trace = ReductionTrace(stage="pipeline")
    trace.vertex_origin.update(composed.trace.vertex_origin)
    for name, origin in reduction.trace.vertex_origin.items():
        if origin.get("kind") == "cell":
            j = origin["hyperedge"]
            merged = dict(origin)
            merged.update(composed.trace.hyperedge_origin[j])
            trace.vertex_origin[name] = merged
    trace.hyperedge_origin = list(reduction.trace.hyperedge_origin)
    trace.notes.update(composed.trace.notes)
    trace.notes.update(reduction.trace.notes)
    return trace


def full_pipeline(
    instance: ReconfInstance,
    mode: str,
    seed: int = DEFAULT_SEED,
    budget: int = DEFAULT_BUDGET,
    psi_seq: ReconfigSequence | None = None,
) -> PipelineResult:
    """Run the alphabet-reduction stages end to end.

    micro mode (n <= 3 after padding) emits every stage plus oracle values
    where the state space permits; n9 mode robustizes at n = 9 and verifies
    the constructive completeness sequence for a supplied satisfying path
    (composition at n = 9 is out of oracle range by design).
    """
    if mode not in ("micro", "n9"):
        raise InstanceError(f"unknown pipeline mode {mode!r}")
    if mode == "n9" and psi_seq is None:
        raise InstanceError("n9 mode needs a satisfying reconfiguration sequence")
    with _stage("robustize"):
        system = robustize(instance)
        if mode == "micro" and system.n > MICRO_MAX_N:
            raise InstanceError(
                f"alphabet {instance.graph.alphabet} pads to n={system.n}; "
                "micro mode requires n <= 3"
            )
        if mode == "n9" and system.n != 9:
            raise InstanceError(f"n9 mode expects alphabet 512, got n={system.n}")
    if mode == "micro":
        stages = [_report("source", instance, budget)]
        with _stage("circuits"):
            micro_csp = materialize_micro_csp(system)
            stages.append(_report("circuits", micro_csp, budget))
        with _stage("compose"):
            composed = compose_system(system)
            stages.append(_report("composed-4ary", composed.instance, budget))
        with _stage("arity-reduce"):
            reduction = arity_reduce(composed.instance)
            stages.append(_report("binary", reduction.instance, budget))
        return PipelineResult(
            mode=mode,
            stages=stages,
            system=system,
            trace=_merge_traces(composed, reduction),
            micro_csp=micro_csp,
            composed=composed,
            reduction=reduction,
        )
    # Looked up at call time: callers may replace robustize.completeness_sequence.
    from .robustize import completeness_sequence

    stages = [_report("source", instance, None)]
    with _stage("completeness"):
        sigma_seq = completeness_sequence(system, psi_seq, seed=seed)
    all_ok = all(
        count_satisfied(system, sigma) == len(system.circuits) for sigma in sigma_seq
    )
    stages.append(
        StageReport(
            stage="circuits",
            vertices=len(system.graph.vertices) * (1 << system.n),
            edges=len(system.circuits),
            max_alphabet=2,
            maxmin=None,
            method=None,
        )
    )
    return PipelineResult(
        mode=mode,
        stages=stages,
        system=system,
        trace=ReductionTrace(stage="pipeline-n9"),
        n9_steps=len(sigma_seq),
        n9_all_satisfied=all_ok,
    )
