"""Robustization: binary constraints become circuits over codeword blocks.

Each vertex of the source graph gets a block of 2^n Boolean variables; each
edge gets a circuit that list-decodes the two blocks from their distances
to all 2^n codewords and checks the decoded pairs against the source
constraint.  Codewords sit 2^(n-1) apart, so a block whose nearest
distance d has d + radius < 2^(n-1) has that codeword as its only
candidate, and a block d < 2^(n-2) from a codeword has it as its nearest.
Along a walk, `count_satisfied` and `extract_psi_sequence` decode each
moved block from its vertex's last one: by one XOR with the last nearest
codeword while within 2^(n-2) of it, else from the last distances known
(one Hadamard sign row per flipped bit, or a popcount when far).
`count_satisfied` keeps the verdicts on a moved block whose symbol stays
and whose old and new nearest d have d + radius < 2^(n-1).  Spliced walks
are built with the slot setters, no `with_block` call per step.  Circuits
stay semantic (a predicate over two blocks and the padded graph's own
`AcceptSet`); only the micro oracle materializes their truth tables, n <= 3.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

from .constants import MIN_SOUND_N, clause_two_radius, quarter_radius
from .fileio import read_json, write_json
from .core import (
    AcceptSet,
    Assignment,
    ConstraintGraph,
    InstanceError,
    ReconfInstance,
    ReconfigSequence,
    validate_sequence,
    value,
)
from .hadamard import (
    MAX_N,
    BitFunction,
    bit_positions,
    codeword_distances,
    codeword_table,
    disagreement_set,
    generate_codeword_path,
    had_encode,
)
from .seeding import derive_seed, stream


@dataclass(frozen=True, slots=True)
class BlockAssignment:
    """One length-2^n block per source vertex (a truth assignment, blockwise)."""

    n: int
    blocks: dict[str, BitFunction]

    def with_block(self, vertex: str, block: BitFunction) -> "BlockAssignment":
        updated = dict(self.blocks)
        updated[vertex] = block
        sigma = object.__new__(BlockAssignment)  # skips the dataclass __init__
        _SET_N(sigma, self.n)
        _SET_BLOCKS(sigma, updated)
        return sigma

    def flip(self, vertex: str, position: int) -> "BlockAssignment":
        return self.with_block(vertex, self.blocks[vertex].flip(position))


# The slot setters behind BlockAssignment's frozen __setattr__
_SET_N, _SET_BLOCKS = BlockAssignment.n.__set__, BlockAssignment.blocks.__set__


@dataclass(frozen=True)
class RobustCircuit:
    """Decoding predicate attached to a source edge (v, w) with constraint `pairs`."""

    edge_index: int
    v: str
    w: str
    pairs: AcceptSet  # over (2^n, 2^n); other iterables of pairs are packed into one
    n: int
    weakened: bool = False  # radius exactly 1/4 in the decoding clause; negative tests only
    radius: int = field(init=False, repr=False, compare=False)  # of the decoding clause

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", AcceptSet(self.pairs, (1 << self.n,) * 2))
        if not self.pairs:
            raise InstanceError(f"edge {self.edge_index}: constraint set must be non-empty")
        object.__setattr__(self, "radius", clause_two_radius(self.n, self.weakened))


@dataclass(frozen=True)
class CircuitSystem:
    circuits: tuple[RobustCircuit, ...]
    graph: ConstraintGraph  # padded source graph (alphabet 2^n)
    sigma_ini: BlockAssignment
    sigma_tar: BlockAssignment
    n: int
    original_alphabet: int


class _Decoded:
    """A block and its nearest codeword (ties to the smaller symbol).

    `known` is (bits, distances to every codeword) of this block or of the
    block it was decoded from; the block's own distances replace it when
    first needed.
    """

    __slots__ = ("n", "bits", "best", "nearest", "known")

    def __init__(self, n: int, bits: int, best: int, nearest: int, known: tuple) -> None:
        self.n, self.bits, self.best, self.nearest, self.known = n, bits, best, nearest, known

    def distances(self) -> np.ndarray:
        known = self.known
        if known[0] != self.bits:
            known = self.known = (self.bits, codeword_distances(self.n, self.bits, known))
        return known[1]

    def candidates(self, radius: int) -> tuple[int, ...]:
        """The symbols within `radius`, ascending."""
        if self.nearest > radius:
            return ()
        if self.nearest + radius < 1 << (self.n - 1):  # codewords sit 2^(n-1) apart
            return (self.best,)
        return tuple(np.flatnonzero(self.distances() <= radius).tolist())


def _decode(n: int, bits: int, near: _Decoded | None = None) -> _Decoded:
    """Decode a block, from `near` (a decoded block of the same n) when one is given.

    A block d < 2^(n-2) from near's codeword has it as its only nearest one:
    every other codeword is at least 2^(n-1) - d > d away.  Otherwise the
    distances come from near's known ones, or from a popcount.
    """
    known = None
    if near is not None and near.n == n:
        d = (bits ^ codeword_table(n)[near.best]).bit_count()
        if 4 * d < 1 << n:
            return _Decoded(n, bits, near.best, d, near.known)
        known = near.known
    dist = codeword_distances(n, bits, known)
    best = int(dist.argmin())
    return _Decoded(n, bits, best, int(dist[best]), (bits, dist))


def decode_block(f: BitFunction) -> int:
    """Symbol whose codeword is nearest to f; ties break to the smaller symbol."""
    return _decode(f.n, f.bits).best


def _verdict(circuit: RobustCircuit, f: _Decoded, g: _Decoded) -> bool:
    n, radius = circuit.n, circuit.radius
    nearest = f.nearest if f.nearest > g.nearest else g.nearest
    if nearest > 1 << (n - 2):  # a block farther than 1/4 from every codeword
        return False
    if nearest + radius < 1 << (n - 1):  # one candidate each
        return circuit.pairs._accepts((f.best, g.best))
    return all(map(circuit.pairs._accepts, product(f.candidates(radius), g.candidates(radius))))


def eval_circuit(circuit: RobustCircuit, f: BitFunction, g: BitFunction) -> bool:
    """Semantic circuit evaluation by exhaustive list decoding.

    Accepts iff (i) each block is 1/4-close to at least one codeword, and
    (ii) every pair of symbols within the decoding radius of the respective
    blocks is an accepted pair of the source constraint.
    """
    _require_length(circuit, f, g)
    return _verdict(circuit, _decode(f.n, f.bits), _decode(g.n, g.bits))


def _require_length(circuit: RobustCircuit, *blocks: BitFunction) -> None:
    if any(block.n != circuit.n for block in blocks):
        raise InstanceError(f"length mismatch: circuit expects blocks of 2^{circuit.n} bits")


# The last `count_satisfied` call, replaced whole so concurrent callers can lose each
# other's work but never read mixed state: (system, (vertex, its circuit indices, their
# least 2^(n-1) - radius) per vertex, decoded block per vertex, verdict per circuit).
_last_count: tuple = (None, (), {}, [])


def count_satisfied(system: CircuitSystem, sigma: BlockAssignment) -> int:
    """How many circuits accept `sigma`: `eval_circuit` on each, summed.

    Only blocks that differ in n or bits from the last call's block of their
    vertex are decoded, from that block (see `_decode`).  Their circuits are
    judged again unless the nearest symbol is kept and the old and new nearest
    distances d have d + radius < 2^(n-1), so d < 2^(n-2) <= radius.  Then, for
    the other block g at e: e > 2^(n-2) fails; e + radius < 2^(n-1) tests (best,
    g.best); else e > d and best is the only candidate.  Each reads best alone.
    """
    global _last_count
    last_system, around, decoded, verdicts = _last_count
    circuits, blocks = system.circuits, sigma.blocks
    moved = last_system is not system
    try:
        if moved:
            circuits_of: dict[str, list[int]] = {}
            for i, c in enumerate(circuits):
                _require_length(c, blocks[c.v], blocks[c.w])
                for v in dict.fromkeys((c.v, c.w)):
                    circuits_of.setdefault(v, []).append(i)
            limits = [(1 << c.n - 1) - c.radius for c in circuits]
            around = tuple((v, on, min(limits[i] for i in on)) for v, on in circuits_of.items())
            decoded = {v: _decode(blocks[v].n, blocks[v].bits) for v in circuits_of}
            verdicts = [_verdict(c, decoded[c.v], decoded[c.w]) for c in circuits]
        for v, on, limit in around:
            block, old = blocks[v], decoded[v]
            if old.bits == block.bits and old.n == block.n:
                continue
            if not moved:  # copied before the first change, as the entry is replaced whole
                decoded, verdicts, moved = decoded.copy(), verdicts.copy(), True
            if old.n != block.n:  # `old` passed this check, so `block` fails it
                _require_length(circuits[on[0]], block)
            new = decoded[v] = _decode(block.n, block.bits, old)
            if new.best != old.best or old.nearest >= limit or new.nearest >= limit:
                for i in on:
                    c = circuits[i]
                    verdicts[i] = _verdict(c, decoded[c.v], decoded[c.w])
    except KeyError as exc:
        raise InstanceError(f"block assignment has no block for vertex {exc.args[0]!r}") from None
    if moved:
        _last_count = (system, around, decoded, verdicts)
    return sum(verdicts)


def pad_alphabet(instance: ReconfInstance) -> tuple[ReconfInstance, int]:
    """Pad the alphabet to 2^n (n >= 2) with dummy symbols that satisfy nothing."""
    graph = instance.graph
    if graph.vertex_alphabets:
        raise InstanceError("robustization requires one uniform source alphabet")
    n = max(2, (graph.alphabet - 1).bit_length())
    if n > MAX_N:
        raise InstanceError(
            f"alphabet {graph.alphabet} pads to n={n}; robustization supports n <= {MAX_N}"
        )
    if graph.alphabet == (1 << n):
        return instance, n
    padded = ConstraintGraph(
        q=graph.q,
        vertices=graph.vertices,
        edges=graph.edges,
        alphabet=1 << n,
        accepts=graph.accepts,
    )
    return ReconfInstance(padded, instance.psi_ini, instance.psi_tar), n


def robustize(instance: ReconfInstance, weakened: bool = False) -> CircuitSystem:
    """Build the circuit system and the blockwise-encoded endpoint assignments."""
    if instance.graph.q != 2:
        raise InstanceError("robustization expects a binary constraint graph")
    original = instance.graph.alphabet
    padded, n = pad_alphabet(instance)
    graph = padded.graph
    for label, psi in (("psi_ini", padded.psi_ini), ("psi_tar", padded.psi_tar)):
        if value(graph, psi) != 1:
            raise InstanceError(f"{label} must satisfy the graph before robustization")
    circuits = tuple(
        RobustCircuit(
            edge_index=i,
            v=edge[0],
            w=edge[1],
            pairs=graph.accepts[i],
            n=n,
            weakened=weakened,
        )
        for i, edge in enumerate(graph.edges)
    )

    def encode(psi: Assignment) -> BlockAssignment:
        return BlockAssignment(n, {v: had_encode(psi.values[v], n) for v in graph.vertices})

    return CircuitSystem(
        circuits=circuits,
        graph=graph,
        sigma_ini=encode(padded.psi_ini),
        sigma_tar=encode(padded.psi_tar),
        n=n,
        original_alphabet=original,
    )


def completeness_sequence(
    system: CircuitSystem, psi_seq: ReconfigSequence, seed: int = 0
) -> list[BlockAssignment]:
    """Splice a verified codeword path into each one-vertex move of `psi_seq`.

    Requires n >= 9 (below that the farness guarantee does not hold) and a
    valid sequence of graph-satisfying assignments matching the system's
    endpoints.  The result moves one bit per step, starts at sigma_ini, ends
    at sigma_tar, and blocks of unmoved vertices are bit-identical across a
    splice.
    """
    if system.n < MIN_SOUND_N:
        raise InstanceError(f"completeness splicing requires n >= {MIN_SOUND_N}")
    if validate_sequence(psi_seq):
        raise InstanceError("psi sequence is not a valid reconfiguration sequence")
    graph = system.graph
    for t, step in enumerate(psi_seq.steps):
        if value(graph, step) != 1:
            raise InstanceError(f"psi sequence step {t} does not satisfy the graph")
    if psi_seq.steps[0].values != {v: decode_block(b) for v, b in system.sigma_ini.blocks.items()}:
        raise InstanceError("psi sequence does not start at the system's initial assignment")
    if psi_seq.steps[-1].values != {v: decode_block(b) for v, b in system.sigma_tar.blocks.items()}:
        raise InstanceError("psi sequence does not end at the system's target assignment")
    out = [system.sigma_ini]
    n, blocks = system.sigma_ini.n, system.sigma_ini.blocks
    for t, (before, after) in enumerate(zip(psi_seq.steps, psi_seq.steps[1:])):
        moved = before.changed_vertices(after)
        if not moved:
            continue
        (v_star,) = moved
        alpha, beta = before.values[v_star], after.values[v_star]
        path = generate_codeword_path(alpha, beta, system.n, derive_seed(seed, "splice", t, v_star))
        for block in path.steps[1:]:  # as `with_block`, without a call per step
            blocks = blocks.copy()
            blocks[v_star] = block
            sigma = object.__new__(BlockAssignment)
            _SET_N(sigma, n)
            _SET_BLOCKS(sigma, blocks)
            out.append(sigma)
    return out


def single_bit_change(a: BlockAssignment, b: BlockAssignment) -> tuple[str, int] | None:
    """The (vertex, position) changed between two block assignments, or None.

    Raises if more than one bit changed.
    """
    changed, blocks = None, b.blocks
    for v, block in a.blocks.items():
        other = blocks[v]
        if block is other:  # `with_block` shares the blocks it leaves alone
            continue
        delta = block.bits ^ other.bits
        if not delta:
            continue
        if changed is not None or delta.bit_count() != 1:
            raise InstanceError("block assignments differ in more than one bit")
        changed = (v, delta.bit_length() - 1)
    return changed


def extract_psi_sequence(
    system: CircuitSystem, sigma_seq: Sequence[BlockAssignment]
) -> ReconfigSequence:
    """Decode each block to its nearest codeword, stepwise, collapsing duplicates.

    Every step is checked first: it holds a block for each vertex and no other,
    and changes at most one bit.  Then each moved block is decoded from its
    vertex's last one.
    """
    if not sigma_seq:
        raise InstanceError("sigma sequence must be non-empty")
    moves, vertices = [], system.graph.vertices
    try:
        for v in vertices:  # step 0; `single_bit_change` checks each next one
            sigma_seq[0].blocks[v]
        for a, b in zip(sigma_seq, sigma_seq[1:]):
            change = single_bit_change(a, b)
            if change is not None:
                moves.append((change[0], b.blocks[change[0]]))
    except KeyError as exc:
        t = next(t for t, sigma in enumerate(sigma_seq) if exc.args[0] not in sigma.blocks)
        raise InstanceError(f"sigma step {t} has no block for vertex {exc.args[0]!r}") from None
    # each step holds every vertex, so one with more blocks holds one the system lacks
    for t, sigma in enumerate(sigma_seq):
        if len(sigma.blocks) != len(vertices):
            extra = next(v for v in sigma.blocks if v not in system.graph.vertex_index)
            raise InstanceError(f"sigma step {t} has a block for vertex {extra!r}, "
                                "which the system does not have")
    last = {v: _decode(block.n, block.bits) for v, block in sigma_seq[0].blocks.items()}
    decoded = {v: d.best for v, d in last.items()}
    steps = [Assignment(dict(decoded))]
    for v, block in moves:
        last[v] = _decode(block.n, block.bits, last[v])
        if last[v].best != decoded[v]:
            decoded[v] = last[v].best
            steps.append(Assignment(dict(decoded)))
    return ReconfigSequence(tuple(steps))


def adversarial_block_sequence(
    system: CircuitSystem, seed: int, scramble: int = 64
) -> list[BlockAssignment]:
    """Seeded bit-level scramble-then-repair walk from sigma_ini to sigma_tar."""
    rng = stream(seed, "block-walk")
    vertices = list(system.graph.vertices)
    length = 1 << system.n
    walk = [system.sigma_ini]
    current = system.sigma_ini
    for _ in range(scramble):
        v = rng.choice(vertices)
        current = current.flip(v, rng.randrange(length))
        walk.append(current)
    diffs = [
        (v, x)
        for v in vertices
        for x in bit_positions(current.blocks[v].bits ^ system.sigma_tar.blocks[v].bits, system.n)
    ]
    rng.shuffle(diffs)
    for v, x in diffs:
        current = current.flip(v, x)
        walk.append(current)
    return walk


# ---------------------------------------------------------------------------
# Micro-scale oracle (n <= 3): exact distance to a circuit's satisfying set
# ---------------------------------------------------------------------------

MICRO_MAX_N = 3


def _micro_guard(n: int) -> None:
    if n > MICRO_MAX_N:
        raise InstanceError(f"micro oracle out of range: n={n} exceeds {MICRO_MAX_N}")


def concat_blocks(f: BitFunction, g: BitFunction) -> int:
    """f followed by g as one integer: f occupies the low 2^n bits."""
    return f.bits | (g.bits << f.length)


@lru_cache(maxsize=None)
def _side_profiles(n: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocks 1/4-close to a codeword at micro n, ascending, and their 0/1 candidate rows."""
    quarter = quarter_radius(n)
    close = [d for bits in range(1 << (1 << n)) if (d := _decode(n, bits)).nearest <= quarter]
    cands = np.array([d.distances() <= radius for d in close], dtype=np.int64)
    blocks = np.array([d.bits for d in close], dtype=np.int64)
    blocks.flags.writeable = cands.flags.writeable = False
    return blocks, cands


def sat_inputs(circuit: RobustCircuit) -> tuple[int, ...]:
    """All concatenated inputs accepted by the circuit, ascending, by full enumeration."""
    _micro_guard(circuit.n)
    blocks, cands = _side_profiles(circuit.n, circuit.radius)
    rejected = (~circuit.pairs.table()).astype(np.int64)
    # f.g is accepted iff no candidate pair is rejected; g-major order is ascending
    g, f = np.nonzero((cands @ rejected @ cands.T).T == 0)
    return tuple((blocks[f] | blocks[g] << (1 << circuit.n)).tolist())


def micro_distance_to_sat(circuit: RobustCircuit, f: BitFunction, g: BitFunction) -> Fraction:
    """Exact relative distance from f.g to the circuit's satisfying set."""
    _micro_guard(circuit.n)
    if f.n != circuit.n or g.n != circuit.n:
        raise InstanceError("length mismatch: blocks do not match the circuit")
    point = concat_blocks(f, g)
    best = min((point ^ s).bit_count() for s in sat_inputs(circuit))
    return Fraction(best, 2 * f.length)


def four_phase_block_path(
    n: int, alpha1: int, beta1: int, alpha2: int, beta2: int
) -> list[tuple[BitFunction, BitFunction]]:
    """A four-phase walk between two codeword pairs, used for negative testing.

    Phase 1 moves the first block halfway across its disagreement set (the
    lowest-numbered half, one bit at a time), phase 2 does the same on the
    second block, then phases 3 and 4 finish each block.  The midpoint after
    phase 2 is simultaneously 1/4-close to both codewords on each side.
    """
    if alpha1 == alpha2 or beta1 == beta2:
        raise ValueError("each side needs two distinct symbols")
    half = 1 << (n - 2)
    d_f = sorted(disagreement_set(alpha1, alpha2, n))
    d_g = sorted(disagreement_set(beta1, beta2, n))
    steps = [(had_encode(alpha1, n), had_encode(beta1, n))]
    for side, positions in ((0, d_f[:half]), (1, d_g[:half]), (0, d_f[half:]), (1, d_g[half:])):
        for x in positions:
            f, g = steps[-1]
            steps.append((f.flip(x), g) if side == 0 else (f, g.flip(x)))
    return steps


def bit_name(vertex: str, position: int) -> str:
    """The bit variable that holds bit `position` of `vertex`'s block."""
    return f"{vertex}@{position}"


def block_bits(n: int, vertices: Sequence[str]) -> tuple[str, ...]:
    """The bit variables of the blocks of `vertices`: block by block, each in position order."""
    return tuple(bit_name(v, x) for v in vertices for x in range(1 << n))


def circuit_bits(circuit: RobustCircuit) -> tuple[str, ...]:
    """A circuit's input bits, v's block then w's, the order of `concat_blocks`."""
    return block_bits(circuit.n, (circuit.v, circuit.w))


def bit_values(sigma: BlockAssignment) -> dict[str, int]:
    """Every block bit of `sigma`, by its bit variable."""
    length = 1 << sigma.n
    return {bit_name(v, x): f.bit(x) for v, f in sigma.blocks.items() for x in range(length)}


def materialize_micro_csp(system: CircuitSystem) -> ReconfInstance:
    """Express the circuit system as a (2*2^n)-ary constraint graph over bits.

    Only possible at micro scale: each circuit's accepted inputs are written
    out as rows of bits.  Single-vertex moves on the result are exactly
    single-bit moves on the block assignment.
    """
    _micro_guard(system.n)
    width = 2 << system.n
    micro_graph = ConstraintGraph(
        q=width,
        vertices=block_bits(system.n, system.graph.vertices),
        edges=tuple(circuit_bits(c) for c in system.circuits),
        alphabet=2,
        accepts=tuple(
            np.array(sat_inputs(c), dtype=np.int64)[:, None] >> np.arange(width) & 1
            for c in system.circuits
        ),
    )
    ini, tar = (Assignment(bit_values(sigma)) for sigma in (system.sigma_ini, system.sigma_tar))
    return ReconfInstance(micro_graph, ini, tar)


# ---------------------------------------------------------------------------
# On-disk format: descriptor JSON plus hex-encoded block assignments
# ---------------------------------------------------------------------------


def system_to_obj(system: CircuitSystem) -> dict:
    return {
        "n": system.n,
        "alphabet": 1 << system.n,
        "original_alphabet": system.original_alphabet,
        "weakened": any(c.weakened for c in system.circuits),
        "vertices": list(system.graph.vertices),
        "edges": [
            {
                "id": c.edge_index,
                "vertices": [c.v, c.w],
                "accept": [list(p) for p in c.pairs],
            }
            for c in system.circuits
        ],
    }


def blocks_to_obj(sigma: BlockAssignment) -> dict:
    return {v: block.to_hex() for v, block in sigma.blocks.items()}


_HEX_DIGITS = frozenset(string.hexdigits)


def blocks_from_obj(n: int, obj, vertices: Sequence[str], where: str) -> BlockAssignment:
    """Parse {vertex: hex block} with exactly `vertices` as keys.

    Raises InstanceError naming `where` and the offending vertex.
    """
    if not isinstance(obj, dict):
        raise InstanceError(f"{where}: expected an object mapping vertices to hex blocks")
    for v in vertices:
        if v not in obj:
            raise InstanceError(f"{where}: missing vertex {v!r}")
    unknown = sorted(obj.keys() - set(vertices))
    if unknown:
        raise InstanceError(f"{where}: unknown vertex {unknown[0]!r}")
    blocks = {}
    for v, text in obj.items():
        try:
            if not isinstance(text, str) or not text or not set(text) <= _HEX_DIGITS:
                raise ValueError("not a hex string")
            blocks[v] = BitFunction.from_hex(n, text)
        except ValueError as exc:
            raise InstanceError(
                f"{where}: vertex {v!r}: block {text!r} is not a 2^{n}-bit hex block ({exc})"
            ) from None
    return BlockAssignment(n, blocks)


def read_block_sequence(system: CircuitSystem, path: str | Path) -> list[BlockAssignment]:
    """Read a {"steps": [{vertex: hex block}, ...]} file checked against the system's vertices."""
    raw = read_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("steps"), list):
        raise InstanceError(f'{path}: expected an object with a "steps" list')
    if not raw["steps"]:
        raise InstanceError(f'{path}: "steps" must not be empty')
    return [
        blocks_from_obj(system.n, obj, system.graph.vertices, f"{path} step {t}")
        for t, obj in enumerate(raw["steps"])
    ]


def write_system(system: CircuitSystem, directory: str | Path) -> None:
    directory = Path(directory)
    write_json(directory / "system.json", system_to_obj(system))
    write_json(directory / "sigma_ini.json", blocks_to_obj(system.sigma_ini))
    write_json(directory / "sigma_tar.json", blocks_to_obj(system.sigma_tar))


# Each edge object's fields: (key, JSON type, how a message names it).
_EDGE_FIELDS = (("id", int, "an integer"), ("vertices", list, "a list"), ("accept", list, "a list"))


def read_system(directory: str | Path) -> CircuitSystem:
    directory = Path(directory)
    source = directory / "system.json"
    obj = read_json(source)
    try:
        if type(obj) is not dict:
            raise ValueError(f"top level must be an object, got {obj!r:.40}")
        n = obj["n"]
        if type(n) is not int or not 2 <= n <= MAX_N:
            raise ValueError(f'"n" must be an integer in 2..{MAX_N}, got {n!r:.40}')
        alphabet = obj.get("alphabet", 1 << n)
        if type(alphabet) is not int or alphabet != 1 << n:
            raise ValueError(f'"alphabet" must be 2^n = {1 << n}, got {alphabet!r:.40}')
        weakened = obj.get("weakened", False)
        if type(weakened) is not bool:
            raise ValueError(f'"weakened" must be true or false, got {weakened!r:.40}')
        original_alphabet = obj.get("original_alphabet", 1 << n)
        if type(original_alphabet) is not int or original_alphabet < 2:
            raise ValueError(
                f'"original_alphabet" must be an integer >= 2, got {original_alphabet!r:.40}'
            )
        vertices, edge_objs = obj["vertices"], obj["edges"]
        if type(vertices) is not list or set(map(type, vertices)) - {str}:
            raise ValueError(f'"vertices" must be a list of strings, got {vertices!r:.40}')
        if type(edge_objs) is not list:
            raise ValueError(f'"edges" must be a list, got {edge_objs!r:.40}')
        for i, e in enumerate(edge_objs):
            if type(e) is not dict:
                raise ValueError(f"edges[{i}] must be an object, got {e!r:.40}")
            for key, kind, what in _EDGE_FIELDS:
                if type(e[key]) is not kind:
                    raise ValueError(f'edges[{i}]: "{key}" must be {what}, got {e[key]!r:.40}')
        vertices = tuple(vertices)
        edges = tuple(tuple(e["vertices"]) for e in edge_objs)
        accepts = tuple(e["accept"] for e in edge_objs)
        graph = ConstraintGraph(q=2, vertices=vertices, edges=edges, alphabet=1 << n, accepts=accepts)
        circuits = tuple(
            RobustCircuit(e["id"], edge[0], edge[1], pairs, n, weakened=weakened)
            for e, edge, pairs in zip(edge_objs, edges, graph.accepts)
        )
    except KeyError as exc:
        raise InstanceError(f"{source}: missing key {exc.args[0]!r}") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise InstanceError(f"{source}: {exc}") from None

    def read_blocks(name: str) -> BlockAssignment:
        path = directory / name
        return blocks_from_obj(n, read_json(path), vertices, str(path))

    return CircuitSystem(
        circuits=circuits,
        graph=graph,
        sigma_ini=read_blocks("sigma_ini.json"),
        sigma_tar=read_blocks("sigma_tar.json"),
        n=n,
        original_alphabet=original_alphabet,
    )
