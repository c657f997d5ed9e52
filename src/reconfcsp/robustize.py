"""Robustization: binary constraints become circuits over codeword blocks.

Each vertex of the source graph gets a block of 2^n Boolean variables; each
edge gets a circuit that list-decodes the two blocks from their distances
to all 2^n codewords (one `hadamard.codeword_distances` kernel call per
block, behind a bounded cache) and checks the decoded pairs against the
source constraint.  Circuits stay semantic (a predicate over two blocks);
only the micro oracle ever materializes their truth tables, and only for
n <= 3.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .constants import MIN_SOUND_N, clause_two_radius, quarter_radius
from .fileio import read_json, write_json
from .core import (
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
    codeword_distances,
    disagreement_set,
    generate_codeword_path,
    had_encode,
)
from .seeding import derive_seed, stream


@dataclass(frozen=True)
class BlockAssignment:
    """One length-2^n block per source vertex (a truth assignment, blockwise)."""

    n: int
    blocks: dict[str, BitFunction]

    def with_block(self, vertex: str, block: BitFunction) -> "BlockAssignment":
        updated = dict(self.blocks)
        updated[vertex] = block
        return BlockAssignment(self.n, updated)

    def flip(self, vertex: str, position: int) -> "BlockAssignment":
        return self.with_block(vertex, self.blocks[vertex].flip(position))


@dataclass(frozen=True)
class RobustCircuit:
    """Decoding predicate attached to a source edge (v, w) with constraint `pairs`."""

    edge_index: int
    v: str
    w: str
    pairs: frozenset[tuple[int, int]]
    n: int
    weakened: bool = False  # radius exactly 1/4 in the decoding clause; negative tests only

    def __post_init__(self) -> None:
        if not self.pairs:
            raise InstanceError(f"edge {self.edge_index}: constraint set must be non-empty")


@dataclass(frozen=True)
class CircuitSystem:
    circuits: tuple[RobustCircuit, ...]
    graph: ConstraintGraph  # padded source graph (alphabet 2^n)
    sigma_ini: BlockAssignment
    sigma_tar: BlockAssignment
    n: int
    original_alphabet: int


@lru_cache(maxsize=4096)
def _decode_profile(n: int, bits: int, radius: int) -> tuple[int, int, tuple[int, ...]]:
    """(nearest symbol, nearest Hamming distance, symbols within `radius`).

    Computed from the distances to all 2^n codewords; nearest ties break
    toward the smallest symbol because argmin returns the first minimum.
    """
    dist = codeword_distances(n, bits)
    best = int(dist.argmin())
    return best, int(dist[best]), tuple(np.flatnonzero(dist <= radius).tolist())


def decode_block(f: BitFunction) -> int:
    """Symbol whose codeword is nearest to f; ties break to the smaller symbol."""
    return _decode_profile(f.n, f.bits, 0)[0]


def eval_circuit(circuit: RobustCircuit, f: BitFunction, g: BitFunction) -> bool:
    """Semantic circuit evaluation by exhaustive list decoding.

    Accepts iff (i) each block is 1/4-close to at least one codeword, and
    (ii) every pair of symbols within the decoding radius of the respective
    blocks is an accepted pair of the source constraint.
    """
    n = circuit.n
    if f.n != n or g.n != n:
        raise InstanceError(f"length mismatch: circuit expects blocks of 2^{n} bits")
    radius = clause_two_radius(n, circuit.weakened)
    _, fd, f_cands = _decode_profile(n, f.bits, radius)
    _, gd, g_cands = _decode_profile(n, g.bits, radius)
    quarter = quarter_radius(n)
    if fd > quarter or gd > quarter:
        return False
    return all((a, b) in circuit.pairs for a in f_cands for b in g_cands)


def count_satisfied(system: CircuitSystem, sigma: BlockAssignment) -> int:
    return sum(
        1
        for c in system.circuits
        if eval_circuit(c, sigma.blocks[c.v], sigma.blocks[c.w])
    )


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
            pairs=frozenset(graph.accepts[i]),
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
    current = system.sigma_ini
    for t in range(len(psi_seq.steps) - 1):
        before, after = psi_seq.steps[t], psi_seq.steps[t + 1]
        moved = before.changed_vertices(after)
        if not moved:
            continue
        (v_star,) = moved
        path = generate_codeword_path(
            before.values[v_star],
            after.values[v_star],
            system.n,
            derive_seed(seed, "splice", t, v_star),
        )
        for block in path.steps[1:]:
            current = current.with_block(v_star, block)
            out.append(current)
    return out


def single_bit_change(a: BlockAssignment, b: BlockAssignment) -> tuple[str, int] | None:
    """The (vertex, position) changed between two block assignments, or None.

    Raises if more than one bit changed.
    """
    changed = None
    for v, block in a.blocks.items():
        delta = block.bits ^ b.blocks[v].bits
        if delta == 0:
            continue
        if changed is not None or delta.bit_count() != 1:
            raise InstanceError("block assignments differ in more than one bit")
        changed = (v, delta.bit_length() - 1)
    return changed


def extract_psi_sequence(
    system: CircuitSystem, sigma_seq: Sequence[BlockAssignment]
) -> ReconfigSequence:
    """Decode each block to its nearest codeword, stepwise, collapsing duplicates."""
    if not sigma_seq:
        raise InstanceError("sigma sequence must be non-empty")
    decoded = {v: decode_block(b) for v, b in sigma_seq[0].blocks.items()}
    steps = [Assignment(dict(decoded))]
    for t in range(len(sigma_seq) - 1):
        change = single_bit_change(sigma_seq[t], sigma_seq[t + 1])
        if change is None:
            continue
        v, _ = change
        symbol = decode_block(sigma_seq[t + 1].blocks[v])
        if symbol != decoded[v]:
            decoded[v] = symbol
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
        for x in range(length)
        if current.blocks[v].bit(x) != system.sigma_tar.blocks[v].bit(x)
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
def _side_profiles(n: int, radius: int) -> tuple[tuple[bool, tuple[int, ...]], ...]:
    """(quarter-close?, candidate symbols) for every possible block at micro n."""
    quarter = quarter_radius(n)
    out = []
    for bits in range(1 << (1 << n)):
        _, dist, cands = _decode_profile(n, bits, radius)
        out.append((dist <= quarter, cands))
    return tuple(out)


def sat_inputs(circuit: RobustCircuit) -> tuple[int, ...]:
    """All concatenated inputs accepted by the circuit, by full enumeration."""
    _micro_guard(circuit.n)
    n = circuit.n
    radius = clause_two_radius(n, circuit.weakened)
    profiles = _side_profiles(n, radius)
    length = 1 << n
    good_f = [
        (bits, cands) for bits, (ok, cands) in enumerate(profiles) if ok
    ]
    sats = []
    pairs = circuit.pairs
    for g_bits, g_cands in good_f:
        for f_bits, f_cands in good_f:
            if all((a, b) in pairs for a in f_cands for b in g_cands):
                sats.append(f_bits | (g_bits << length))
    return tuple(sorted(sats))


def micro_distance_to_sat(circuit: RobustCircuit, f: BitFunction, g: BitFunction) -> Fraction:
    """Exact relative distance from f.g to the circuit's satisfying set."""
    _micro_guard(circuit.n)
    if f.n != circuit.n or g.n != circuit.n:
        raise InstanceError("length mismatch: blocks do not match the circuit")
    point = concat_blocks(f, g)
    sats = sat_inputs(circuit)
    best = min((point ^ s).bit_count() for s in sats)
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
    f = had_encode(alpha1, n)
    g = had_encode(beta1, n)
    steps = [(f, g)]
    for x in d_f[:half]:
        f = f.flip(x)
        steps.append((f, g))
    for x in d_g[:half]:
        g = g.flip(x)
        steps.append((f, g))
    for x in d_f[half:]:
        f = f.flip(x)
        steps.append((f, g))
    for x in d_g[half:]:
        g = g.flip(x)
        steps.append((f, g))
    return steps


def materialize_micro_csp(system: CircuitSystem) -> ReconfInstance:
    """Express the circuit system as a (2*2^n)-ary constraint graph over bits.

    Only possible at micro scale: each circuit's accepted inputs are written
    out as explicit bit tuples.  Single-vertex moves on the result are
    exactly single-bit moves on the block assignment.
    """
    _micro_guard(system.n)
    length = 1 << system.n
    graph = system.graph
    bit_names = {
        (v, x): f"{v}@{x}" for v in graph.vertices for x in range(length)
    }
    vertices = tuple(bit_names[(v, x)] for v in graph.vertices for x in range(length))
    edges = []
    accepts = []
    for c in system.circuits:
        edge = tuple(bit_names[(c.v, x)] for x in range(length)) + tuple(
            bit_names[(c.w, x)] for x in range(length)
        )
        tuples = frozenset(
            tuple((bits >> i) & 1 for i in range(2 * length)) for bits in sat_inputs(c)
        )
        edges.append(edge)
        accepts.append(tuples)
    micro_graph = ConstraintGraph(
        q=2 * length,
        vertices=vertices,
        edges=tuple(edges),
        alphabet=2,
        accepts=tuple(accepts),
    )

    def bits_of(sigma: BlockAssignment) -> Assignment:
        return Assignment(
            {
                bit_names[(v, x)]: sigma.blocks[v].bit(x)
                for v in graph.vertices
                for x in range(length)
            }
        )

    return ReconfInstance(micro_graph, bits_of(system.sigma_ini), bits_of(system.sigma_tar))


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
                "accept": [list(p) for p in sorted(c.pairs)],
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
    return [
        blocks_from_obj(system.n, obj, system.graph.vertices, f"{path} step {t}")
        for t, obj in enumerate(raw["steps"])
    ]


def write_system(system: CircuitSystem, directory: str | Path) -> None:
    directory = Path(directory)
    write_json(directory / "system.json", system_to_obj(system))
    write_json(directory / "sigma_ini.json", blocks_to_obj(system.sigma_ini))
    write_json(directory / "sigma_tar.json", blocks_to_obj(system.sigma_tar))


def read_system(directory: str | Path) -> CircuitSystem:
    directory = Path(directory)
    source = directory / "system.json"
    obj = read_json(source)
    try:
        n = obj["n"]
        if type(n) is not int or not 2 <= n <= MAX_N:
            raise ValueError(f'"n" must be an integer in 2..{MAX_N}, got {n!r:.40}')
        weakened = obj.get("weakened", False)
        if type(weakened) is not bool:
            raise ValueError(f'"weakened" must be true or false, got {weakened!r:.40}')
        original_alphabet = obj.get("original_alphabet", 1 << n)
        if type(original_alphabet) is not int or original_alphabet < 2:
            raise ValueError(
                f'"original_alphabet" must be an integer >= 2, got {original_alphabet!r:.40}'
            )
        for i, e in enumerate(obj["edges"]):
            if type(e["id"]) is not int:
                raise ValueError(f'edges[{i}]: "id" must be an integer, got {e["id"]!r:.40}')
        vertices = tuple(obj["vertices"])
        edges = tuple(tuple(e["vertices"]) for e in obj["edges"])
        accepts = tuple(frozenset(map(tuple, e["accept"])) for e in obj["edges"])
        graph = ConstraintGraph(q=2, vertices=vertices, edges=edges, alphabet=1 << n, accepts=accepts)
        circuits = tuple(
            RobustCircuit(e["id"], edge[0], edge[1], pairs, n, weakened=weakened)
            for e, edge, pairs in zip(obj["edges"], edges, accepts)
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
