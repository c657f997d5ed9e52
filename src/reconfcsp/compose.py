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
A circuit over blocks of 2^n bits has 2^(n+1) input bits, and the tester has
one edge per input bit, so every source edge gets (2^(n+1))^2 hyperedges.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, product
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
    bit_name,
    bit_values,
    block_bits,
    circuit_bits,
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
        """The trace as a JSON object; it holds the fields themselves, not copies."""
        return dict(vars(self))


# ---------------------------------------------------------------------------
# Reference assignment tester
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssignmentTesterOutput:
    """Binary constraint graph over X and Y with a completeness witness."""

    graph: ConstraintGraph
    x_vars: tuple[str, ...]
    y_vars: tuple[str, ...]
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
    sats = np.array(sat_list, dtype=np.int64)  # edge i accepts (j, bit i of input j): code 2j + bit
    codes = 2 * np.arange(len(sats)) + (sats >> np.arange(m)[:, None] & 1)
    accepts = tuple(AcceptSet.from_codes(row, (len(sats), 2)) for row in codes)
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
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Superimposition of tester twins
# ---------------------------------------------------------------------------


def superimpose(twin1: AssignmentTesterOutput, twin2: AssignmentTesterOutput) -> ConstraintGraph:
    """Product of two tester graphs sharing X: one 4-ary hyperedge per edge pair.

    The pairs (i1, i2) run in row-major order, so hyperedge h joins twin edges
    divmod(h, len(twin2.graph.edges)).  A hyperedge (e1, e2) accepts
    (a1, b1, a2, b2) iff e1 accepts (a1, b1) or e2 accepts (a2, b2), so it is
    violated exactly when both twin edges are, and violated fractions
    multiply.  Hyperedges whose OR-tables are equal hold one `AcceptSet`.
    """
    if twin1.x_vars != twin2.x_vars:
        raise InstanceError("twins must share the same input variables")
    if set(twin1.y_vars) & set(twin2.y_vars):
        raise InstanceError("twin auxiliary variables must be disjoint")
    if not twin1.graph.edges or not twin2.graph.edges:
        raise InstanceError("twin edge sets empty")
    g1, g2 = twin1.graph, twin2.graph
    vertices = tuple(twin1.x_vars) + tuple(twin1.y_vars) + tuple(twin2.y_vars)
    overrides = {**g1.vertex_alphabets, **g2.vertex_alphabets}

    tables1, tables2 = ([g.vertex_table(j)[1] for j in range(len(g.edges))] for g in (g1, g2))
    if any(table.ndim != 2 for table in tables1 + tables2):
        raise InstanceError("twin edges must join two distinct vertices")
    # every pair's OR-table in one broadcast per pair of table shapes; rows
    # are keyed by shape and packed bits, so equal tables share one set
    sets, shared = {}, {}
    for rows1, stack1 in _stacks(tables1):
        for rows2, stack2 in _stacks(tables2):
            both = stack1[:, None, :, :, None, None] | stack2[None, :, None, None, :, :]
            flat = both.reshape(len(rows1) * len(rows2), -1)
            packed = np.packbits(flat, axis=1)
            data, width, shape = packed.tobytes(), packed.shape[1], both.shape[2:]
            for k, (i1, i2) in enumerate(product(rows1, rows2)):
                key = (shape, data[k * width : (k + 1) * width])
                if key not in shared:
                    shared[key] = AcceptSet.from_table(flat[k].reshape(shape))
                sets[i1, i2] = shared[key]
    pairs = list(product(range(len(g1.edges)), range(len(g2.edges))))
    edges = [(*g1.edges[i1], *g2.edges[i2]) for i1, i2 in pairs]
    accepts = list(map(sets.__getitem__, pairs))
    return ConstraintGraph(
        q=4,
        vertices=vertices,
        edges=tuple(edges),
        alphabet=2,
        accepts=tuple(accepts),
        vertex_alphabets=overrides,
    )


def _stacks(tables: list[np.ndarray]) -> list[tuple[list[int], np.ndarray]]:
    """The tables grouped by shape: each group's indices and its tables stacked."""
    groups: dict[tuple, list[int]] = {}
    for j, table in enumerate(tables):
        groups.setdefault(table.shape, []).append(j)
    return [(rows, np.stack([tables[j] for j in rows])) for rows in groups.values()]


# ---------------------------------------------------------------------------
# Composition of a whole circuit system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComposedEdge:
    circuit: RobustCircuit
    sat_index: dict[int, int]
    y1: str
    y2: str

    def aux_value(self, sigma: BlockAssignment, error: str) -> int:
        """Index of the circuit's input under `sigma` in its satisfying set.

        An input outside the set raises "edge <index>: <error>".
        """
        bits = concat_blocks(sigma.blocks[self.circuit.v], sigma.blocks[self.circuit.w])
        if bits not in self.sat_index:
            raise InstanceError(f"edge {self.circuit.edge_index}: {error}")
        return self.sat_index[bits]


@dataclass(frozen=True)
class ComposedSystem:
    instance: ReconfInstance
    trace: ReductionTrace
    edges: tuple[ComposedEdge, ...]
    n: int


# Most booleans the twin superimpositions of one composition may broadcast in
# all: a circuit of m input bits and k satisfying inputs broadcasts m^2 (2k)^2,
# and its accept codes take up to 6 bytes per boolean.  One n = 3 circuit with
# 256 satisfying inputs broadcasts 2^26 and peaks at about 510 MB.
MAX_SUPERIMPOSED_CELLS = 1 << 26


def compose_system(system: CircuitSystem) -> ComposedSystem:
    """Run the reference tester twice per circuit and superimpose the twins.

    Produces a 4-ary instance over block bits plus two auxiliary variables
    per source edge; each source edge owns the consecutive hyperedges of its
    twins' superimposition.  Endpoints assign blocks from the system's sigma
    and both auxiliary twins to the completeness witness.  A circuit joining
    a vertex to itself, and systems whose superimpositions would broadcast
    more than MAX_SUPERIMPOSED_CELLS booleans, are refused before any tester
    is built.
    """
    if system.n > MICRO_MAX_N:
        raise InstanceError(
            f"composition enumerates satisfying sets; requires n <= {MICRO_MAX_N}"
        )
    for c in system.circuits:
        if c.v == c.w:
            raise InstanceError(
                f"edge {c.edge_index}: joins vertex {c.v!r} to itself; "
                "composition needs two distinct blocks"
            )
    sats_of = [sat_inputs(c) for c in system.circuits]
    cells = [(2 << system.n) ** 2 * (2 * len(sats)) ** 2 for sats in sats_of]
    if sum(cells) > MAX_SUPERIMPOSED_CELLS:
        worst = max(range(len(cells)), key=cells.__getitem__)
        raise InstanceError(
            f"twin superimpositions would broadcast {sum(cells)} cells (largest {cells[worst]} "
            f"at edge {system.circuits[worst].edge_index}), more than {MAX_SUPERIMPOSED_CELLS}; "
            "satisfying sets this large are out of composition range"
        )
    composed_edges, edges, accepts, overrides = [], [], [], {}
    trace = ReductionTrace(stage="compose")
    for v in system.graph.vertices:
        for x in range(1 << system.n):
            trace.vertex_origin[bit_name(v, x)] = {"kind": "block-bit", "vertex": v, "position": x}
    for c, sats in zip(system.circuits, sats_of):
        if not sats:
            raise InstanceError(f"edge {c.edge_index}: circuit has no satisfying inputs")
        x_names = circuit_bits(c)
        y1, y2 = f"y{c.edge_index}.1", f"y{c.edge_index}.2"
        twin1 = reference_tester(sats, x_names, y1)
        twin2 = reference_tester(sats, x_names, y2)
        sup = superimpose(twin1, twin2)
        overrides[y1] = overrides[y2] = len(sats)
        trace.vertex_origin[y1] = {"kind": "aux", "edge": c.edge_index, "twin": 1}
        trace.vertex_origin[y2] = {"kind": "aux", "edge": c.edge_index, "twin": 2}
        edges += sup.edges
        accepts += sup.accepts
        trace.hyperedge_origin.extend(
            {"source_edge": c.edge_index, "twin_pair": list(divmod(h, len(twin2.graph.edges)))}
            for h in range(len(sup.edges))
        )
        composed_edges.append(ComposedEdge(c, {s: j for j, s in enumerate(sats)}, y1, y2))
    vertices = block_bits(system.n, system.graph.vertices) + tuple(
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
        values = bit_values(sigma)
        for e in composed_edges:
            values[e.y1] = values[e.y2] = e.aux_value(
                sigma, "endpoint blocks do not satisfy the circuit"
            )
        return Assignment(values)

    instance = ReconfInstance(graph, endpoint(system.sigma_ini), endpoint(system.sigma_tar))
    trace.notes["hyperedges_per_source_edge"] = len(edges) // len(composed_edges) if edges else 0
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
    y_values: dict[str, int] = {}
    for e in composed.edges:
        y_values[e.y1] = y_values[e.y2] = e.aux_value(
            sigma_seq[0], "sigma step 0 does not satisfy the circuit"
        )

    def materialize(sigma: BlockAssignment) -> Assignment:
        return Assignment({**bit_values(sigma), **y_values})

    steps = [materialize(sigma_seq[0])]
    for t in range(len(sigma_seq) - 1):
        change = single_bit_change(sigma_seq[t], sigma_seq[t + 1])
        if change is None:
            continue
        moved_vertex, _ = change
        affected = [
            e for e in composed.edges if moved_vertex in (e.circuit.v, e.circuit.w)
        ]
        error = f"sigma step {t + 1} does not satisfy the circuit"
        targets = [e.aux_value(sigma_seq[t + 1], error) for e in affected]
        for e, target in zip(affected, targets):
            if y_values[e.y1] != target:
                y_values[e.y1] = target
                steps.append(materialize(sigma_seq[t]))
        steps.append(materialize(sigma_seq[t + 1]))
        for e, target in zip(affected, targets):
            if y_values[e.y2] != target:
                y_values[e.y2] = target
                steps.append(materialize(sigma_seq[t + 1]))
    return ReconfigSequence(tuple(steps))


def restrict_to_blocks(
    composed: ComposedSystem, seq: ReconfigSequence, system_vertices: Sequence[str]
) -> list[BlockAssignment]:
    """Project a composed-instance sequence back to block assignments."""
    names = {v: block_bits(composed.n, (v,)) for v in system_vertices}
    out = []
    for step in seq.steps:
        blocks = {}
        for v, bits in names.items():
            block = sum(bool(step.values[name]) << x for x, name in enumerate(bits))
            blocks[v] = BitFunction(composed.n, block)
        out.append(BlockAssignment(composed.n, blocks))
    return out


# ---------------------------------------------------------------------------
# Arity reduction: 4-ary to binary
# ---------------------------------------------------------------------------


def _pair_index(w, a, b):
    """Position of the pair (a, b) in the lexicographic list of alphabet w's unordered pairs.

    Over alphabet w, the pairs (a', b') with a' < a number a*w - a*(a-1)/2, so
    (a, b) with a <= b < w sits at that count plus b - a.  Integers or
    equal-shaped integer arrays, elementwise.
    """
    ok = (0 <= a) & (a <= b) & (b < w)
    if ok is not True and not np.all(ok):  # integers give a bool: no numpy call for them
        raise ValueError(f"{(a, b)!r} is not in the pair list of alphabet {w}")
    return a * w - a * (a - 1) // 2 + (b - a)


@dataclass(frozen=True)
class CellInfo:
    hyperedge: int
    name: str
    vertices: tuple[str, ...]
    pair_lists: tuple[tuple[tuple[int, int], ...], ...]
    alphabet: int

    def encode(self, pairs: Sequence[tuple[int, int]]) -> int:
        sym = 0
        for pl, (a, b) in zip(reversed(self.pair_lists), reversed(list(pairs))):
            sym = sym * len(pl) + _pair_index(pl[-1][1] + 1, a, b)
        return sym

    def decode(self, sym: int) -> tuple[tuple[int, int], ...]:
        pairs = []
        for pl in self.pair_lists:
            sym, idx = divmod(sym, len(pl))
            pairs.append(pl[idx])
        return tuple(pairs)

    def singleton(self, values: Sequence[int]) -> int:
        return self.encode([(v, v) for v in values])


@dataclass(frozen=True)
class ArityReduction:
    instance: ReconfInstance
    trace: ReductionTrace
    cells: tuple[CellInfo, ...]


def _valid_cell_symbols(
    cell: CellInfo, distinct: tuple[str, ...], ok: np.ndarray, pairs: Sequence, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All valid cell values, ascending, and each coordinate's pair index at each of them.

    A cell value is valid when its pairs agree on repeated vertices and every
    consistent selection of one value per pair is an accepted tuple.  `ok`
    is the accept table over the `distinct` vertices (`ConstraintGraph.vertex_table`),
    `pairs[i]` the lows and highs of coordinate i's pairs, and `grid[i]` its
    pair index at every cell value.  ANDing the low and high slices of one
    vertex axis at a time checks all 2^d corners of each pair choice's box.
    With the last coordinate's axis first, flat indices are cell values; a
    repeated coordinate's unit axis is broadcast by ANDing in the equality
    of its pair index with its vertex's first coordinate's.
    """
    for axis, v in enumerate(distinct):
        lo, hi = pairs[cell.vertices.index(v)]
        ok = ok.take(lo, axis=axis) & ok.take(hi, axis=axis)
    first = [cell.vertices.index(v) for v in cell.vertices]
    backwards = range(len(first) - 1, -1, -1)
    table = ok.transpose().reshape([len(pairs[i][0]) if first[i] == i else 1 for i in backwards])
    for i, f in enumerate(first):
        if f != i:
            table = table & (grid[i] == grid[f]).reshape([len(pairs[i][0]) for i in backwards])
    valid = np.flatnonzero(table)
    return valid, grid.take(valid, axis=1)


def _cell_edge_codes(valid: np.ndarray, which: np.ndarray, low, high, size: int) -> np.ndarray:
    """Codes `sym * size + value` of one cell-to-coordinate edge's accepted tuples.

    Cell value `sym` holds pair (low[w], high[w]) at the coordinate, `w` its
    entry in `which`, and is accepted with either value.  With `valid`
    ascending and low <= high, the codes of (sym, low) then, if high
    differs, (sym, high) come out strictly increasing.
    """
    base = valid * size
    codes = np.empty((len(valid), 2), dtype=np.int64)
    codes[:, 0] = base + low[which]
    codes[:, 1] = base + high[which]
    keep = np.ones(codes.shape, dtype=bool)
    keep[:, 1] = codes[:, 0] != codes[:, 1]
    return codes[keep]


# Largest coordinate-value product space held as one boolean accept table.
_TABLE_COORDINATES = 1 << 20

# Largest total of cell alphabets `arity_reduce` materializes.
CELL_BUDGET = 1 << 22


class _TypeMemo:
    """Each hyperedge type's four binary accept sets, kept across `arity_reduce` calls.

    A type is a hyperedge's repetition pattern, coordinate alphabets and
    accepted codes, and the key holds all three.  An entry's size is its
    key's code bytes plus its four sets' codes; least recently used entries
    are evicted so that the bytes held stay at most `cap`, and an entry
    larger than `cap` is not kept.  Lookups and inserts hold the lock, so
    threads may reduce at once; enumeration runs outside it.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.held = 0
        self._entries: OrderedDict[tuple, tuple[tuple[AcceptSet, ...], int]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> tuple[AcceptSet, ...] | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: tuple, sets: tuple[AcceptSet, ...]) -> None:
        size = len(key[2]) + sum(s.codes.nbytes for s in sets)
        with self._lock:
            if size > self.cap or key in self._entries:
                return
            self._entries[key] = (sets, size)
            self.held += size
            while self.held > self.cap:
                _, (_, freed) = self._entries.popitem(last=False)
                self.held -= freed


# The whole process's memo.  The 69 types of the seed-1 micro-pipeline
# benchmark pool hold about 10 MB.
_TYPES = _TypeMemo(cap=16 << 20)


def arity_reduce(inst4: ReconfInstance) -> ArityReduction:
    """Approximation-preserving reduction from 4-ary to binary constraints.

    Each hyperedge gets a cell vertex holding one unordered value pair per
    coordinate (alphabet is the product of the per-coordinate pair counts,
    i.e. (w(w+1)/2)^4 for a uniform alphabet w).  A cell value is acceptable
    with endpoint i iff the endpoint's value lies in pair i and every
    selection consistent across repeated vertices is an accepted tuple.
    Completeness is constructive; the soundness loss factor is 4 (one
    violated binary edge per violated hyperedge, four binary edges per
    hyperedge).

    Valid cell values are enumerated by `_valid_cell_symbols` once per
    distinct hyperedge type (repetition pattern, alphabets, accepted
    tuples), and hyperedges alike share their four binary accept sets; the
    sets of each type are kept for later calls in `_TYPES`.  Cell alphabets
    are summed up front from the alphabet sizes: exceeding `CELL_BUDGET`
    fails fast before any pair list is built or any cell enumerated, since
    materializing the binary accept sets at that size would thrash rather
    than finish.  A hyperedge whose coordinate-value
    space exceeds 2^20, the largest boolean accept table built, fails the
    same way.
    """
    graph = inst4.graph
    if graph.q != 4:
        raise InstanceError(f"arity must be exactly 4, got {graph.q}")
    # per coordinate alphabets: the cell alphabet, counted before any pair list is built
    cell_alphabet = {
        sizes: math.prod(w * (w + 1) // 2 for w in sizes)
        for sizes in dict.fromkeys(acc.sizes for acc in graph.accepts)
    }
    alphabets = [cell_alphabet[acc.sizes] for acc in graph.accepts]
    if sum(alphabets) > CELL_BUDGET:
        worst = max(range(len(alphabets)), key=alphabets.__getitem__)
        raise InstanceError(
            f"cell alphabets total {sum(alphabets)} (largest {alphabets[worst]} at "
            f"hyperedge {worst}), exceeding the budget {CELL_BUDGET}; "
            "constraints this rich are out of materialization range"
        )
    wide = {sizes for sizes in cell_alphabet if math.prod(sizes) > _TABLE_COORDINATES}
    if wide:
        j = next(j for j, acc in enumerate(graph.accepts) if acc.sizes in wide)
        raise InstanceError(
            f"hyperedge {j}: coordinate space {math.prod(graph.accepts[j].sizes)} exceeds "
            f"{_TABLE_COORDINATES}, too large for one boolean accept table"
        )
    # per alphabet w: its w(w+1)/2 unordered value pairs, lexicographic, then their lows and highs
    pairs_of: dict[int, tuple] = {}
    for w in {w for sizes in cell_alphabet for w in sizes}:
        pl = tuple((a, b) for a in range(w) for b in range(a, w))
        pairs_of[w] = (pl, *np.array(pl, dtype=np.int64).T)
    shapes = {  # per coordinate alphabets: CellInfo's pair lists and alphabet
        sizes: (tuple(pairs_of[w][0] for w in sizes), alphabet)
        for sizes, alphabet in cell_alphabet.items()
    }
    existing, cells = set(graph.vertices), []
    for j, (edge, acc) in enumerate(zip(graph.edges, graph.accepts)):
        name = f"cell{j}"
        while name in existing:
            name += "'"
        existing.add(name)
        cells.append(CellInfo(j, name, tuple(edge), *shapes[acc.sizes]))
    # ConstraintGraph reuses these shared, immutable sets unchecked.  Held
    # per call too, so one call's hyperedges of a type share sets whatever
    # `_TYPES` evicts meanwhile.
    edge_sets: dict[tuple, tuple[AcceptSet, ...]] = {}
    # the same by (pattern, id of the set), looked up first: it needs no code bytes
    object_sets: dict[tuple, tuple[AcceptSet, ...]] = {}
    grids: dict[tuple, np.ndarray] = {}  # per alphabets: pair index per coordinate and cell value
    new_accepts = []
    for j, (edge, acc) in enumerate(zip(graph.edges, graph.accepts)):
        pattern = tuple(map(edge.index, edge))
        sets = object_sets.get((pattern, id(acc)))
        if sets is None:
            key = (pattern, acc.sizes, acc.codes.tobytes())
            sets = edge_sets.get(key) or _TYPES.get(key)
            if sets is None:
                cell, pairs = cells[j], [pairs_of[size][1:] for size in acc.sizes]
                if acc.sizes not in grids:
                    shape = [len(lo) for lo, _ in pairs[::-1]]
                    grids[acc.sizes] = np.indices(shape)[::-1].reshape(4, -1)
                distinct, ok = graph.vertex_table(j)
                valid, which = _valid_cell_symbols(cell, distinct, ok, pairs, grids[acc.sizes])
                sets = tuple(
                    AcceptSet.from_codes(_cell_edge_codes(valid, w, *lh, n), (cell.alphabet, n))
                    for w, lh, n in zip(which, pairs, acc.sizes)
                )
                _TYPES.put(key, sets)
            edge_sets[key] = object_sets[pattern, id(acc)] = sets
        new_accepts += sets
    trace = ReductionTrace(stage="arity-reduce", notes={"soundness_loss_factor": 4})
    trace.vertex_origin.update({v: {"kind": "source-vertex", "vertex": v} for v in graph.vertices})
    trace.vertex_origin.update({c.name: {"kind": "cell", "hyperedge": c.hyperedge} for c in cells})
    trace.hyperedge_origin = [
        {"hyperedge": j, "coordinate": i} for j in range(len(cells)) for i in range(4)
    ]
    overrides = dict(graph.vertex_alphabets)
    overrides.update((cell.name, cell.alphabet) for cell in cells)
    binary_graph = ConstraintGraph(
        q=2,
        vertices=graph.vertices + tuple(c.name for c in cells),
        edges=tuple((c.name, v) for c in cells for v in c.vertices),
        alphabet=graph.alphabet,
        accepts=tuple(new_accepts),
        vertex_alphabets=overrides,
    )

    # CellInfo.singleton of every cell at once: coordinate i holds the pair (s, s)
    # of its vertex's symbol s, at place value Π pair counts of coordinates < i
    occurrences = list(chain.from_iterable(graph.edges))
    sizes = np.array([acc.sizes for acc in graph.accepts], dtype=np.int64).reshape(-1, 4)
    place = np.ones_like(sizes)
    place[:, 1:] = np.cumprod(sizes[:, :-1] * (sizes[:, :-1] + 1) // 2, axis=1)
    names = [cell.name for cell in cells]

    def endpoint(psi: Assignment) -> Assignment:
        symbols = np.fromiter(map(psi.values.__getitem__, occurrences), np.int64, len(occurrences))
        symbols = symbols.reshape(sizes.shape)
        values = dict(psi.values)
        values.update(zip(names, (_pair_index(sizes, symbols, symbols) * place).sum(axis=1).tolist()))
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


def stage_maxmin(instance: ReconfInstance, budget: int) -> tuple[Value | None, str | None]:
    """Oracle policy for one pipeline stage.

    Equal endpoints need no search; small spaces get the full maxmin search;
    spaces within the budget get a satisfying-threshold reachability check
    that can only certify the value 1; anything larger is left blank.
    """
    total = len(instance.graph.edges)
    if instance.psi_ini == instance.psi_tar:
        return value(instance.graph, instance.psi_ini), "endpoint-value"
    size = solver.state_space_size(instance.graph)
    if size <= SCAN_CAP:
        return solver.maxmin_value(instance, budget=budget).optimum, "bfs-scan"
    if size <= budget:
        ok, _ = solver.reachable_at_threshold(instance, total, budget=budget)
        if ok:
            return Value(total, total), "sat-reachability"
        return None, "sat-unreachable"
    return None, None


def _report(name: str, instance: ReconfInstance, budget: int | None) -> StageReport:
    """The stage's shape, plus its oracle value unless `budget` is None."""
    maxmin, method = (None, None) if budget is None else stage_maxmin(instance, budget)
    return StageReport(
        stage=name,
        vertices=len(instance.graph.vertices),
        edges=len(instance.graph.edges),
        max_alphabet=max(instance.graph.alphabets.values()),
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
    state: dict = {}
    all_ok = all(
        count_satisfied(system, sigma, state) == len(system.circuits) for sigma in sigma_seq
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
