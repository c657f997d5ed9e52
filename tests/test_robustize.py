import random
import re
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reconfcsp.constants import FARNESS_MARGIN, QUARTER, clause_two_radius, quarter_radius
from reconfcsp.core import (
    Assignment,
    InstanceError,
    ReconfInstance,
    ReconfigSequence,
    validate_sequence,
    value,
)
from reconfcsp.hadamard import (
    BitFunction,
    codeword_table,
    disagreement_set,
    generate_codeword_path,
    had_encode,
    hamming,
    rel_distance,
)
from reconfcsp.robustize import (
    BlockAssignment,
    RobustCircuit,
    adversarial_block_sequence,
    blocks_to_obj,
    completeness_sequence,
    concat_blocks,
    count_satisfied,
    decode_block,
    eval_circuit,
    extract_psi_sequence,
    four_phase_block_path,
    materialize_micro_csp,
    micro_distance_to_sat,
    pad_alphabet,
    read_block_sequence,
    read_system,
    robustize,
    sat_inputs,
    single_bit_change,
    write_system,
)
from reconfcsp import hadamard, robustize as rb, solver
from reconfcsp.fileio import write_json
from reconfcsp.seeding import stream

from conftest import single_edge


def circuit(pairs, n=2, weakened=False) -> RobustCircuit:
    return RobustCircuit(0, "u", "w", frozenset(pairs), n, weakened=weakened)


def path_graph_instance(alphabet, psis):
    """Chain u-v-w with constraints accepting exactly the listed assignments."""
    from reconfcsp.core import ConstraintGraph

    edges = (("u", "v"), ("v", "w"))
    pair_sets = [set(), set()]
    for psi in psis:
        pair_sets[0].add((psi["u"], psi["v"]))
        pair_sets[1].add((psi["v"], psi["w"]))
    graph = ConstraintGraph(
        2, ("u", "v", "w"), edges, alphabet, tuple(frozenset(p) for p in pair_sets)
    )
    return ReconfInstance(graph, Assignment(psis[0]), Assignment(psis[-1]))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_robustize_encodes_blocks_and_counts():
    inst = single_edge({(0, 0), (1, 1)}, 4, (0, 0), (1, 1))
    system = robustize(inst)
    assert len(system.circuits) == len(inst.graph.edges) == 1
    for v in inst.graph.vertices:
        assert system.sigma_ini.blocks[v] == had_encode(inst.psi_ini.values[v], system.n)
        assert system.sigma_tar.blocks[v] == had_encode(inst.psi_tar.values[v], system.n)
    assert count_satisfied(system, system.sigma_ini) == 1
    assert count_satisfied(system, system.sigma_tar) == 1


def test_robustize_rejects_bad_inputs():
    bad = single_edge({(0, 0)}, 4, (0, 1), (0, 0))
    with pytest.raises(InstanceError, match="must satisfy"):
        robustize(bad)
    from reconfcsp.core import ConstraintGraph

    ternary = ConstraintGraph(
        3, ("a", "b", "c"), (("a", "b", "c"),), 2, (frozenset({(0, 0, 0)}),)
    )
    inst = ReconfInstance(
        ternary, Assignment({"a": 0, "b": 0, "c": 0}), Assignment({"a": 0, "b": 0, "c": 0})
    )
    with pytest.raises(InstanceError, match="binary"):
        robustize(inst)


def test_alphabet_padding():
    inst = single_edge({(0, 0), (2, 2)}, 3, (0, 0), (2, 2))
    padded, n = pad_alphabet(inst)
    assert n == 2 and padded.graph.alphabet == 4
    # constraints untouched: the dummy symbol 3 satisfies nothing
    assert padded.graph.accepts == inst.graph.accepts
    system = robustize(inst)
    assert system.n == 2 and system.original_alphabet == 3
    dummy = had_encode(3, 2)
    assert not eval_circuit(system.circuits[0], dummy, dummy)


def test_clause_two_radius_values():
    assert quarter_radius(9) == 128
    assert clause_two_radius(9) == 128  # floor((1/4 + 1/800) * 512)
    assert clause_two_radius(10) == 257 and quarter_radius(10) == 256
    assert clause_two_radius(2, weakened=True) == 1 == clause_two_radius(2)
    for n in range(2, 17):
        length = 1 << n
        assert clause_two_radius(n) == int((QUARTER + FARNESS_MARGIN / 2) * length)
        assert clause_two_radius(n, weakened=True) == int(QUARTER * length)


# ---------------------------------------------------------------------------
# Evaluation and decoding
# ---------------------------------------------------------------------------


def test_eval_circuit_on_codeword_pairs():
    c = circuit({(0, 0), (1, 1)}, n=3)
    assert eval_circuit(c, had_encode(0, 3), had_encode(0, 3))
    assert eval_circuit(c, had_encode(1, 3), had_encode(1, 3))
    assert not eval_circuit(c, had_encode(0, 3), had_encode(1, 3))
    with pytest.raises(InstanceError, match="length mismatch"):
        eval_circuit(c, had_encode(0, 2), had_encode(0, 3))


def test_eval_circuit_accepts_path_midpoint_at_n9():
    alpha1, alpha2, beta = 17, 300, 5
    path = generate_codeword_path(alpha1, alpha2, 9, seed=2)
    midpoint = path.steps[len(path.steps) // 2]
    assert hamming(midpoint, had_encode(alpha1, 9)) == 128
    assert hamming(midpoint, had_encode(alpha2, 9)) == 128
    both = RobustCircuit(0, "u", "w", frozenset({(alpha1, beta), (alpha2, beta)}), 9)
    assert eval_circuit(both, midpoint, had_encode(beta, 9))
    # dropping one of the two pairs must reject the midpoint
    one = RobustCircuit(0, "u", "w", frozenset({(alpha1, beta)}), 9)
    assert not eval_circuit(one, midpoint, had_encode(beta, 9))


def _apply_position_map(f: BitFunction, matrix_rows):
    """Permute positions by the linear map x -> Mx (rows are bitmasks)."""
    bits = 0
    for x in range(f.length):
        image = 0
        for j, row in enumerate(matrix_rows):
            if (row & x).bit_count() & 1:
                image |= 1 << j
        if f.bit(image):
            bits |= 1 << x
    return BitFunction(f.n, bits)


def _symbol_map_for(matrix_rows, n):
    """The symbol bijection induced on codewords: alpha -> M^T alpha."""
    out = []
    for alpha in range(1 << n):
        image = 0
        for j, row in enumerate(matrix_rows):
            if (alpha >> j) & 1:
                image ^= row
        out.append(image)
    return out


def test_eval_verdict_transforms_with_linear_bijection():
    # permuting positions of both blocks by an invertible linear map permutes
    # the per-symbol distance profile; the verdict is preserved once the
    # constraint is renamed by the induced symbol bijection
    n = 3
    matrix = [0b001, 0b011, 0b111]  # invertible over F2
    symbol_map = _symbol_map_for(matrix, n)
    assert sorted(symbol_map) == list(range(8))
    c = circuit({(1, 2), (3, 3)}, n=n)
    mapped_pairs = frozenset((symbol_map[a], symbol_map[b]) for a, b in c.pairs)
    c_mapped = RobustCircuit(0, "u", "w", mapped_pairs, n)
    rng_blocks = [(5, 90), (17, 200), (0, 255), (170, 12)]
    for fb, gb in rng_blocks:
        f, g = BitFunction(n, fb), BitFunction(n, gb)
        fm = _apply_position_map(f, matrix)
        gm = _apply_position_map(g, matrix)
        for alpha in range(8):
            assert hamming(f, had_encode(alpha, n)) == hamming(
                fm, had_encode(symbol_map[alpha], n)
            )
        assert eval_circuit(c, f, g) == eval_circuit(c_mapped, fm, gm)


def test_decode_block_examples():
    for n in (2, 3, 4):
        for alpha in range(1 << n):
            assert decode_block(had_encode(alpha, n)) == alpha
    # all-zero with position 0 flipped at n=3: scan all 8 codewords directly
    f = BitFunction(3, 1)
    distances = [hamming(f, had_encode(a, 3)) for a in range(8)]
    assert distances[0] == 1 and all(d >= 3 for d in distances[1:])
    assert decode_block(f) == 0
    # exact midpoint between codewords 0 and 1: flip half of D, tie-break to 0
    from reconfcsp.hadamard import disagreement_set

    d = sorted(disagreement_set(0, 1, 3))
    mid = BitFunction(3, (1 << d[0]) | (1 << d[1]))
    assert hamming(mid, had_encode(0, 3)) == hamming(mid, had_encode(1, 3)) == 2
    assert decode_block(mid) == 0


def scan_decode_profile(n: int, bits: int, radius: int):
    """Independent oracle: popcount scan in ascending symbol order, strict improvement."""
    best_sym, best_dist, within = 0, 1 << n, []
    for sym, cw in enumerate(codeword_table(n)):
        d = (bits ^ cw).bit_count()
        if d < best_dist:
            best_sym, best_dist = sym, d
        if d <= radius:
            within.append(sym)
    return best_sym, best_dist, tuple(within)


def test_decode_profile_matches_scan_on_exact_ties():
    for n in (3, 5, 7, 9):
        rng = stream(n, "decode-ties")
        for trial in range(6):
            alpha, beta = rng.sample(range(1 << n), 2)
            path = generate_codeword_path(alpha, beta, n, seed=trial)
            half = len(path.steps) // 2
            mid = path.steps[half]
            assert hamming(mid, had_encode(alpha, n)) == hamming(mid, had_encode(beta, n))
            assert hamming(mid, had_encode(alpha, n)) == 1 << (n - 2)
            # the midpoint popcounted afresh, then reached one bit at a time from had(alpha)
            walked = rb._decode(n, path.steps[0].bits)
            for step in path.steps[1 : half + 1]:
                walked = rb._decode(n, step.bits, walked)
            fresh = rb._decode(n, mid.bits)
            for radius in (0, quarter_radius(n), clause_two_radius(n)):
                expected = scan_decode_profile(n, mid.bits, radius)
                assert (fresh.best, fresh.nearest, fresh.candidates(radius)) == expected
                assert (walked.best, walked.nearest, walked.candidates(radius)) == expected
            if n == 9:  # no third codeword is as close: the tie goes to the smaller symbol
                assert decode_block(mid) == min(alpha, beta)


def test_decode_profile_matches_scan_at_unique_decoding_boundary():
    # A block d bits from had(alpha), all inside D(alpha, beta), is 2^(n-1) - d from
    # had(beta); d + radius < 2^(n-1) is where a single candidate is certain.
    for n in range(2, 11):
        half = 1 << (n - 1)
        rng = stream(n, "decode-boundary")
        radii = {0, quarter_radius(n), clause_two_radius(n), clause_two_radius(n, weakened=True)}
        for radius in sorted(radii):
            for d in (radius, radius + 1, half - radius - 1, half - radius):
                if not 0 <= d <= half:
                    continue
                alpha, beta = rng.sample(range(1 << n), 2)
                inside = rng.sample(sorted(disagreement_set(alpha, beta, n)), d)
                anywhere = rng.sample(range(1 << n), d)
                for flips in (inside, anywhere):
                    bits = had_encode(alpha, n).bits
                    for x in flips:
                        bits ^= 1 << x
                    decoded = rb._decode(n, bits)
                    got = (decoded.best, decoded.nearest, decoded.candidates(radius))
                    assert got == scan_decode_profile(n, bits, radius)
                bits = had_encode(alpha, n).bits
                for x in inside:
                    bits ^= 1 << x
                decoded = rb._decode(n, bits)
                assert decoded.nearest == min(d, half - d)
                if d <= radius and half - d <= radius:  # the scan, not the shortcut
                    assert {alpha, beta} <= set(decoded.candidates(radius))


def test_decoding_from_a_near_block_matches_a_fresh_decode():
    # blocks 2^(n-2) - 1, 2^(n-2) and 2^(n-2) + 1 bits from had(beta): inside
    # D(alpha, beta), where 2^(n-2) is an exact tie won by the smaller alpha, or anywhere
    for n in list(range(2, 11)) + [12]:
        quarter = quarter_radius(n)
        radii = (clause_two_radius(n), clause_two_radius(n, weakened=True))
        rng = stream(n, "decode-near")
        alpha, beta = sorted(rng.sample(range(1 << n), 2))
        start = had_encode(beta, n).bits
        exact = rb._decode(n, start)
        nears = [exact]
        if n >= 3:  # a block decoded from `exact` by its codeword alone: no distances of its own
            nears.append(rb._decode(n, start ^ 1 << rng.randrange(1 << n), exact))
            assert nears[-1].known[0] != nears[-1].bits
        if n <= 10:  # another n, whose symbol is out of range at this n
            nears.append(rb._decode(n + 1, codeword_table(n + 1)[(1 << n) + beta]))
        for k in (quarter - 1, quarter, quarter + 1):
            inside = rng.sample(sorted(disagreement_set(alpha, beta, n)), k)
            for flips in (inside, rng.sample(range(1 << n), k)):
                bits = start
                for x in flips:
                    bits ^= 1 << x
                fresh = rb._decode(n, bits)
                for near in nears:
                    got = rb._decode(n, bits, near)
                    for radius in radii:
                        expected = scan_decode_profile(n, bits, radius)
                        assert (got.best, got.nearest, got.candidates(radius)) == expected
                        assert (fresh.best, fresh.nearest, fresh.candidates(radius)) == expected
                if flips is inside and k == quarter:
                    assert fresh.nearest == quarter and alpha in fresh.candidates(quarter)


# ---------------------------------------------------------------------------
# Completeness and extraction
# ---------------------------------------------------------------------------


def _satisfying_walk_instance(seed: int, alphabet: int = 512, vertices: int = 3):
    from reconfcsp.cli import generate_instance

    return generate_instance(
        "path-graph", vertices, alphabet, seed, satisfiable=True, walk_length=4
    )


def test_completeness_sequence_contract():
    inst, walk = _satisfying_walk_instance(seed=77)
    system = robustize(inst)
    sigma_seq = completeness_sequence(system, walk, seed=1)
    moves = sum(
        1
        for a, b in zip(walk.steps, walk.steps[1:])
        if a.changed_vertices(b)
    )
    assert len(sigma_seq) == moves * (1 << 8) + 1
    assert sigma_seq[0] == system.sigma_ini
    assert sigma_seq[-1] == system.sigma_tar
    total = len(system.circuits)
    for a, b in zip(sigma_seq, sigma_seq[1:]):
        assert single_bit_change(a, b) is not None
    assert all(count_satisfied(system, s) == total for s in sigma_seq)
    # blocks of unmoved vertices stay bit-identical across each splice
    for a, b in zip(sigma_seq, sigma_seq[1:]):
        moved_vertex, _ = single_bit_change(a, b)
        for v, block in a.blocks.items():
            if v != moved_vertex:
                assert block is b.blocks[v] or block == b.blocks[v]


def test_completeness_requires_large_n():
    inst = single_edge({(0, 0)}, 4, (0, 0), (0, 0))
    system = robustize(inst)
    seq = ReconfigSequence((inst.psi_ini,))
    with pytest.raises(InstanceError, match="n >= 9"):
        completeness_sequence(system, seq)


def test_completeness_refuses_a_psi_sequence_it_cannot_splice():
    inst, walk = _satisfying_walk_instance(seed=77)
    system = robustize(inst)
    ini, tar = walk.steps[0], walk.steps[-1]
    assert len(ini.changed_vertices(tar)) > 1
    unsatisfied = next(ini.with_value("v0", s) for s in range(512)
                       if value(inst.graph, ini.with_value("v0", s)) != 1)
    refusals = {
        "psi sequence is not a valid reconfiguration sequence": (ini, tar),
        "psi sequence step 1 does not satisfy the graph": (ini, unsatisfied, ini),
        "psi sequence does not start at the system's initial assignment": (tar,),
        "psi sequence does not end at the system's target assignment": (ini,),
    }
    for message, steps in refusals.items():
        with pytest.raises(InstanceError, match=f"^{message}$"):
            completeness_sequence(system, ReconfigSequence(steps))


def test_extract_round_trip_and_validity():
    inst, walk = _satisfying_walk_instance(seed=13)
    system = robustize(inst)
    sigma_seq = completeness_sequence(system, walk, seed=2)
    extracted = extract_psi_sequence(system, sigma_seq)
    collapsed = [walk.steps[0]]
    for step in walk.steps[1:]:
        if step != collapsed[-1]:
            collapsed.append(step)
    assert list(extracted.steps) == collapsed
    assert validate_sequence(extracted) == []


def test_extract_constant_sequence():
    inst = single_edge({(2, 2)}, 4, (2, 2), (2, 2))
    system = robustize(inst)
    seq = [system.sigma_ini, system.sigma_ini, system.sigma_ini]
    out = extract_psi_sequence(system, seq)
    assert len(out.steps) == 1
    assert out.steps[0].values == {"u": 2, "w": 2}


def test_extract_valid_for_arbitrary_single_bit_walks():
    inst = single_edge({(0, 0), (1, 1)}, 4, (0, 0), (1, 1))
    system = robustize(inst)
    walk = adversarial_block_sequence(system, seed=21, scramble=12)
    assert walk[0] == system.sigma_ini and walk[-1] == system.sigma_tar
    out = extract_psi_sequence(system, walk)
    assert validate_sequence(out) == []
    assert out.steps[0].values == {"u": 0, "w": 0}
    assert out.steps[-1].values == {"u": 1, "w": 1}
    assert adversarial_block_sequence(system, seed=21, scramble=12) == walk


def test_extract_rejects_multibit_steps():
    inst = single_edge({(0, 0)}, 4, (0, 0), (0, 0))
    system = robustize(inst)
    jumped = system.sigma_ini.with_block("u", had_encode(3, 2))
    with pytest.raises(InstanceError, match="more than one bit"):
        extract_psi_sequence(system, [system.sigma_ini, jumped])


def test_extract_and_count_name_a_vertex_without_a_block(monkeypatch):
    inst, _ = _satisfying_walk_instance(seed=13)
    system = robustize(inst)
    sigma = system.sigma_ini
    partial = BlockAssignment(sigma.n, {v: b for v, b in sigma.blocks.items() if v != "v0"})
    with pytest.raises(InstanceError, match="^sigma step 0 has no block for vertex 'v0'$"):
        extract_psi_sequence(system, [partial])
    with pytest.raises(InstanceError, match="^sigma step 2 has no block for vertex 'v0'$"):
        extract_psi_sequence(system, [sigma, sigma.flip("v1", 3), partial, sigma])
    # on the system's first call, and on a later one
    monkeypatch.setattr(rb, "_last_count", (None, {}, {}, []))
    missing = "^block assignment has no block for vertex 'v0'$"
    with pytest.raises(InstanceError, match=missing):
        count_satisfied(system, partial)
    assert count_satisfied(system, sigma) == len(system.circuits)
    with pytest.raises(InstanceError, match=missing):
        count_satisfied(system, partial)


def test_extract_refuses_a_block_for_a_vertex_the_system_lacks():
    inst, _ = _satisfying_walk_instance(seed=13)
    system = robustize(inst)
    sigma = system.sigma_ini
    extra = BlockAssignment(sigma.n, {**sigma.blocks, "zz": had_encode(7, sigma.n)})
    for t, walk in ((0, [extra]), (1, [sigma, extra]), (2, [sigma, sigma.flip("v1", 3), extra])):
        with pytest.raises(InstanceError, match=f"^sigma step {t} has a block for vertex 'zz', "
                                                "which the system does not have$"):
            extract_psi_sequence(system, walk)


def test_moved_assignments_equal_public_ones_and_share_unmoved_blocks():
    sigma = robustize(path_graph_instance(512, [{"u": 0, "v": 1, "w": 2}])).sigma_ini
    moved = sigma.flip("u", 5)
    public = BlockAssignment(9, {**sigma.blocks, "u": BitFunction(9, sigma.blocks["u"].bits ^ 32)})
    assert moved == public and repr(moved) == repr(public) and moved != sigma
    assert sigma.with_block("u", public.blocks["u"]) == moved
    for sigma_ in (moved, public):  # a dict field: neither hashes
        with pytest.raises(TypeError, match="unhashable"):
            hash(sigma_)
    with pytest.raises(ValueError, match="^position 512 out of range$"):
        sigma.flip("u", 512)
    assert all(moved.blocks[v] is sigma.blocks[v] for v in ("v", "w"))
    assert single_bit_change(sigma, moved) == single_bit_change(sigma, public) == ("u", 5)
    assert single_bit_change(moved, public) is None
    twice = moved.flip("w", 0)
    with pytest.raises(InstanceError, match="more than one bit"):
        single_bit_change(sigma, twice)


# ---------------------------------------------------------------------------
# Per-step decoding in count_satisfied and extract_psi_sequence
# ---------------------------------------------------------------------------


def fresh_count(system, sigma) -> int:
    return sum(eval_circuit(c, sigma.blocks[c.v], sigma.blocks[c.w]) for c in system.circuits)


def test_count_satisfied_matches_fresh_evaluation_along_walks(tmp_path):
    inst, walk = _satisfying_walk_instance(seed=31)
    system = robustize(inst)
    total = len(system.circuits)
    spliced = completeness_sequence(system, walk, seed=3)
    counts = [count_satisfied(system, s) for s in spliced]
    assert counts == [fresh_count(system, s) for s in spliced] == [total] * len(spliced)
    adversarial = [
        adversarial_block_sequence(system, seed=5, scramble=400),
        adversarial_block_sequence(system, seed=6),
    ]
    micro = robustize(path_graph_instance(4, [{"u": 0, "v": 1, "w": 2}, {"u": 3, "v": 1, "w": 2}]))
    for sys_, seq in [(system, w) for w in adversarial] + [
        (micro, adversarial_block_sequence(micro, seed=s)) for s in range(4)
    ]:
        counts = [count_satisfied(sys_, s) for s in seq]
        assert counts == [fresh_count(sys_, s) for s in seq]
        assert min(counts) < len(sys_.circuits)  # the walks do violate circuits
    # the same steps as new objects with equal bits, read back from disk
    path = tmp_path / "walk.json"
    write_json(path, {"steps": [blocks_to_obj(s) for s in adversarial[0]]})
    reread = read_block_sequence(system, path)
    assert reread == adversarial[0] and reread[0].blocks["v0"] is not adversarial[0][0].blocks["v0"]
    for old, new in zip(adversarial[0], reread):
        assert count_satisfied(system, old) == count_satisfied(system, new) == fresh_count(system, new)


def test_count_satisfied_alternating_strict_and_weakened_systems():
    # At n = 10 the strict decoding radius (257) exceeds the weakened one (256): a
    # block 255 bits from had(0) is 257 from had(1), a candidate for strict only.
    inst = single_edge({(0, 0), (1, 1)}, 1024, (0, 0), (1, 1))
    strict, weak = robustize(inst), robustize(inst, weakened=True)
    counts = []
    for f, g in four_phase_block_path(10, 0, 0, 1, 1):
        sigma = BlockAssignment(10, {"u": f, "w": g})
        for system in (strict, weak):
            counts.append(count_satisfied(system, sigma))
            assert counts[-1] == fresh_count(system, sigma)
            # one system at a time, never more, and one decoded block per vertex
            assert rb._last_count[0] is system and set(rb._last_count[2]) == {"u", "w"}
    assert counts[0::2] != counts[1::2]


def test_count_satisfied_reports_a_single_circuit_violation():
    # chain u-v-w: u is on the first circuit only (its f side), w on the second (its g side)
    inst = path_graph_instance(512, [{"u": 0, "v": 1, "w": 2}, {"u": 3, "v": 1, "w": 4}])
    system = robustize(inst)
    sigma = system.sigma_ini
    assert count_satisfied(system, sigma) == 2
    for vertex, bad in (("w", 7), ("u", 7), ("w", 4), ("u", 3)):
        moved = sigma.with_block(vertex, had_encode(bad, 9))
        assert count_satisfied(system, moved) == fresh_count(system, moved) == (bad in (3, 4)) + 1
        assert count_satisfied(system, sigma) == 2
    # had(0) is the all-zero block at every n: equal bits, wrong length
    short = sigma.with_block("u", had_encode(0, 8))
    assert short.blocks["u"].bits == sigma.blocks["u"].bits
    with pytest.raises(InstanceError, match="length mismatch"):
        count_satisfied(system, short)


def test_count_satisfied_reevaluates_only_moved_circuits(monkeypatch):
    inst, walk = _satisfying_walk_instance(seed=41, vertices=4)
    system = robustize(inst)
    spliced = completeness_sequence(system, walk, seed=1)
    n, decode, verdict = system.n, rb._decode, rb._verdict
    # verdicts on a block stand while it keeps its symbol, at most this far from it
    window = min(quarter_radius(n), (1 << (n - 1)) - 1 - clause_two_radius(n))
    expected = []
    for a, b in zip(spliced, spliced[1:]):
        moved, _ = single_bit_change(a, b)
        old, new = (decode(n, sigma.blocks[moved].bits) for sigma in (a, b))
        kept = old.best == new.best and max(old.nearest, new.nearest) <= window
        expected.append([] if kept else [c for c in system.circuits if moved in (c.v, c.w)])
    splices = sum(a != b for a, b in zip(walk.steps, walk.steps[1:]))
    # two steps of each splice pass 2^(n-2), where the symbol changes
    assert sum(map(bool, expected)) == 2 * splices and len(expected) == 256 * splices
    # the state left by the spies below must not outlive this test
    monkeypatch.setattr(rb, "_last_count", (None, {}, {}, []))
    decodes, judged = [], []

    def spy_decode(n, bits, near=None):
        decodes.append((bits, near))
        return decode(n, bits, near)

    def spy_verdict(c, f, g):
        judged.append(c)
        return verdict(c, f, g)

    monkeypatch.setattr(rb, "_decode", spy_decode)
    monkeypatch.setattr(rb, "_verdict", spy_verdict)
    count_satisfied(system, spliced[0])
    assert sorted(judged, key=lambda c: c.edge_index) == list(system.circuits)
    assert [near for _, near in decodes] == [None] * len(system.graph.vertices)
    for a, b, on_moved in zip(spliced, spliced[1:], expected):
        decodes.clear()
        judged.clear()
        assert count_satisfied(system, b) == len(system.circuits)
        moved, _ = single_bit_change(a, b)
        # the moved block alone is decoded, once, from its vertex's last block
        assert [(bits, near.bits) for bits, near in decodes] == [
            (b.blocks[moved].bits, a.blocks[moved].bits)
        ]
        assert sorted(judged, key=lambda c: c.edge_index) == on_moved


def spy_popcounts(monkeypatch) -> list[int]:
    """The n of every block popcounted against all codewords from now on."""
    popcounts = []
    words = hadamard.codeword_words
    monkeypatch.setattr(hadamard, "codeword_words", lambda n: popcounts.append(n) or words(n))
    return popcounts


def test_counting_a_spliced_walk_popcounts_at_most_twice_per_splice(monkeypatch):
    inst, walk = _satisfying_walk_instance(seed=41, vertices=4)
    system = robustize(inst)
    spliced = completeness_sequence(system, walk, seed=1)
    splices = sum(a != b for a, b in zip(walk.steps, walk.steps[1:]))
    assert splices > 1 and len(spliced) == 1 + 256 * splices
    monkeypatch.setattr(rb, "_last_count", (None, {}, {}, []))
    count_satisfied(system, spliced[0])
    popcounts = spy_popcounts(monkeypatch)
    assert [count_satisfied(system, s) for s in spliced] == [len(system.circuits)] * len(spliced)
    # blocks within 2^(n-2) of their last codeword are decoded by it alone
    assert 0 < len(popcounts) <= 2 * splices


def test_an_n12_walk_across_the_quarter_boundary_popcounts_once(monkeypatch):
    n = 12
    system = robustize(single_edge({(5, 5)}, 1 << n, (5, 5), (5, 5)))
    # u walks from had(5) to the tie with had(9), then back and forth across it
    order = stream(12, "boundary-walk").sample(sorted(disagreement_set(5, 9, n)), 1 << (n - 2))
    walk = [system.sigma_ini]
    for x in order + order[-1:] * 40:
        walk.append(walk[-1].flip("u", x))
    # had(9) is a candidate from 2^(n-1) - 1029 = 1019 bits on, and (9, 5) is not accepted
    expected = [int(t < 1019) for t in range(1025)] + [0] * 40
    monkeypatch.setattr(rb, "_last_count", (None, {}, {}, []))
    count_satisfied(system, walk[0])
    popcounts = spy_popcounts(monkeypatch)
    assert [count_satisfied(system, sigma) for sigma in walk] == expected
    # at step 1019, where the strict radius first needs every distance; the
    # blocks after it are answered by their codeword or one sign row
    assert popcounts == [n]
    for t in (1018, 1019, 1023, 1024, len(walk) - 1):
        assert fresh_count(system, walk[t]) == expected[t]


def test_count_satisfied_sees_blocks_changed_in_place():
    system = robustize(path_graph_instance(512, [{"u": 0, "v": 1, "w": 2}]))
    sigma = system.sigma_ini
    assert count_satisfied(system, sigma) == 2
    # the same block object with other bits, then the same assignment with another block
    object.__setattr__(sigma.blocks["u"], "bits", had_encode(7, 9).bits)
    assert count_satisfied(system, sigma) == fresh_count(system, sigma) == 1
    sigma.blocks["w"] = had_encode(7, 9)
    assert count_satisfied(system, sigma) == fresh_count(system, sigma) == 0


def test_concurrent_counts_match_fresh_evaluation():
    inst, walk = _satisfying_walk_instance(seed=43)
    systems = [robustize(inst), robustize(inst, weakened=True)]
    walks = [adversarial_block_sequence(systems[0], seed=s, scramble=200) for s in (1, 2)]
    expected = {
        (i, j): [fresh_count(system, sigma) for sigma in w]
        for i, system in enumerate(systems)
        for j, w in enumerate(walks)
    }

    def count(i, j, errors):
        try:
            if [count_satisfied(systems[i], sigma) for sigma in walks[j]] != expected[i, j]:
                errors.append((i, j))
        except Exception as exc:  # a thread's exception would otherwise be lost
            errors.append(exc)

    errors = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # two threads on each (system, walk): same system and walk, same system
        # and another walk, and another system, all at once
        threads = [
            threading.Thread(target=count, args=(*key, errors)) for key in list(expected) * 2
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# ---------------------------------------------------------------------------
# Both decoders against per-step references on random walks
# ---------------------------------------------------------------------------


def reference_extract(system, sigma_seq) -> ReconfigSequence:
    """Every moved block decoded on its own by `decode_block`, step by step."""
    decoded = {v: decode_block(b) for v, b in sigma_seq[0].blocks.items()}
    steps = [Assignment(dict(decoded))]
    for a, b in zip(sigma_seq, sigma_seq[1:]):
        change = single_bit_change(a, b)
        if change is None:
            continue
        symbol = decode_block(b.blocks[change[0]])
        if symbol != decoded[change[0]]:
            decoded[change[0]] = symbol
            steps.append(Assignment(dict(decoded)))
    return ReconfigSequence(tuple(steps))


MOVES = ("flip",) * 6 + ("jump", "repeat", "codeword", "midpoint", "wrong-n", "reread")


def random_walk_calls(n: int, moves, directory: Path):
    """(system, sigma) calls of a walk on the chain u-v-w, strict or weakened as `moves` say.

    Single-bit flips, multi-bit jumps, exact repeats, codewords, blocks a
    bit either side of a midpoint between two codewords, and steps read back
    from a written sequence file (new objects, equal bits) follow one
    another; a one-off call puts an all-zero block of another n in place.
    """
    alphabet = 1 << n
    inst = path_graph_instance(
        alphabet, [{"u": 0, "v": 1, "w": 2 % alphabet}, {"u": 3 % alphabet, "v": 1, "w": 0}]
    )
    systems = (robustize(inst), robustize(inst, weakened=True))
    sigma = systems[0].sigma_ini
    calls = [(systems[0], sigma)]
    for t, (kind, vertex, r, weakened) in enumerate(moves):
        system, v, rng = systems[weakened], "uvw"[vertex], random.Random(r)
        block = sigma.blocks[v]
        if kind == "flip":
            block = block.flip(r % block.length)
        elif kind == "jump":
            for x in rng.sample(range(block.length), min(block.length, rng.randint(2, 8))):
                block = block.flip(x)
        elif kind == "codeword":
            block = had_encode(r % alphabet, n)
        elif kind == "midpoint":
            alpha, beta = rng.sample(range(min(alphabet, 6)), 2)
            block = had_encode(alpha, n)
            flips = sorted(disagreement_set(alpha, beta, n))
            for x in flips[: (1 << (n - 2)) + rng.choice((-1, 0, 1))]:
                block = block.flip(x)
        elif kind == "wrong-n":
            wrong = BitFunction(n + 1 if r % 2 or n == 2 else n - 1, 0)
            calls.append((system, sigma.with_block(v, wrong)))
            continue
        if kind == "reread":
            path = directory / f"step{t}.json"
            write_json(path, {"steps": [blocks_to_obj(sigma)]})
            (sigma,) = read_block_sequence(system, path)
        elif kind != "repeat":
            sigma = sigma.with_block(v, block)
        calls.append((system, sigma))
    return calls


def bit_by_bit(calls):
    """The calls with every multi-bit change walked one bit at a time first.

    A block that changes n takes the larger n on the way.
    """
    out = [calls[0]]
    for system, target in calls[1:]:
        sigma = out[-1][1]
        for v, block in target.blocks.items():
            n = max(block.n, sigma.blocks[v].n)
            delta = sigma.blocks[v].bits ^ block.bits
            while delta:
                low = delta & -delta
                delta ^= low
                sigma = sigma.with_block(v, BitFunction(n, sigma.blocks[v].bits ^ low))
                out.append((system, sigma))
        out.append((system, target))
    return out


def assert_same_outcome(reference, tested, *args):
    """`tested(*args)` returns what `reference(*args)` does, or raises the same InstanceError."""
    try:
        expected = reference(*args)
    except InstanceError as exc:
        with pytest.raises(InstanceError, match=re.escape(str(exc))):
            tested(*args)
    else:
        assert tested(*args) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.just(10), st.integers(2, 9)),
    st.lists(
        st.tuples(
            st.sampled_from(MOVES), st.integers(0, 2), st.integers(0, 2**32), st.booleans()
        ),
        max_size=30,
    ),
)
def test_decoders_match_per_step_references_on_random_walks(n, moves):
    with tempfile.TemporaryDirectory() as directory:
        calls = random_walk_calls(n, moves, Path(directory))
    walked = bit_by_bit(calls)
    for system, sigma in calls + walked:
        assert_same_outcome(fresh_count, count_satisfied, system, sigma)
    for walk in ([sigma for _, sigma in calls], [sigma for _, sigma in walked]):
        assert_same_outcome(reference_extract, extract_psi_sequence, calls[0][0], walk)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((9, 10)),
    st.tuples(*[st.integers(-4, 3)] * 3),
    st.lists(
        st.tuples(
            st.integers(0, 2), st.sampled_from(("on", "off", "on", "off", "random", "mirror")),
            st.integers(0, 2**32), st.integers(0, 3),
        ),
        max_size=60,
    ),
)
@example(9, (0, 0, 0), [(1, "off", 0, 1)])  # from the tie at 2^(n-2) into the window
@example(10, (-1, -1, -1), [(1, "off", 0, 1)])  # from two candidates to one, same symbol
@example(9, (-3, -3, -3), [(1, "mirror", 0, 1)])  # a jump to another symbol, inside the window
def test_kept_verdicts_match_fresh_counts_across_the_quarter_and_window(n, offsets, moves):
    # Each block starts a few bits either side of 2^(n-2) into the positions where
    # its codeword and another differ, and steps along them ("on" toward the other
    # codeword, "off" back), flips any bit, or jumps to the mirror point the same
    # distance from the other codeword.  It so crosses 1/4, where the symbol
    # changes, and the edges of the window where a block has one candidate.
    inst = path_graph_instance(1 << n, [{"u": 0, "v": 1, "w": 2}, {"u": 3, "v": 1, "w": 0}])
    systems = (robustize(inst), robustize(inst, weakened=True))
    table, half = codeword_table(n), 1 << (n - 1)
    sides = {  # the other codewords: (6, 1) and (0, 5) are refused, (1, 0) accepted
        v: (table[alpha], stream(n, v).sample(sorted(disagreement_set(alpha, beta, n)), half))
        for v, alpha, beta in (("u", 0, 6), ("v", 1, 5), ("w", 2, 0))
    }
    flipped = {v: quarter_radius(n) + k for v, k in zip("uvw", offsets)}
    other = {v: 0 for v in "uvw"}  # bits flipped outside the walk along D

    def sigma():
        blocks = {}
        for v, (start, positions) in sides.items():
            bits = start ^ other[v]
            for x in positions[: flipped[v]]:
                bits ^= 1 << x
            blocks[v] = BitFunction(n, bits)
        return BlockAssignment(n, blocks)

    which, step = 0, sigma()
    assert count_satisfied(systems[0], step) == fresh_count(systems[0], step)
    for vertex, kind, r, switch in moves:
        v = "uvw"[vertex]
        if kind == "random":
            other[v] ^= 1 << (r % (1 << n))
        elif kind == "mirror":
            flipped[v] = half - flipped[v]
        else:
            flipped[v] = min(half, max(0, flipped[v] + (1 if kind == "on" else -1)))
        if switch == 0:  # now and then the other system: the kept state is replaced
            which ^= 1
        step = sigma()
        assert count_satisfied(systems[which], step) == fresh_count(systems[which], step)


def test_extracting_a_long_n12_walk_holds_one_chunk_of_distances():
    n = 12
    system = robustize(single_edge({(5, 5), (9, 5)}, 1 << n, (5, 5), (5, 5)))
    # 1,280 single-bit steps on vertex u, from had(5) past the midpoint to had(9)
    steps = 1280
    walk = [system.sigma_ini]
    for x in stream(4, "long-walk").sample(sorted(disagreement_set(5, 9, n)), steps):
        walk.append(walk[-1].flip("u", x))
    expected = reference_extract(system, walk)
    assert expected.steps[-1].values == {"u": 9, "w": 5}
    hadamard.hadamard_signs(n)  # the 16 MiB sign table is built once per n, not per walk
    tracemalloc.start()
    try:
        extracted = extract_psi_sequence(system, walk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert extracted == expected
    # a few rows of distances and the first row's popcount, not the walk's whole matrix
    assert peak < 8 << 20 < len(walk) * (4 << n) / 2


def test_soundness_triangle_inequality_witnesses_at_n9():
    # witnesses following the proof's three inequalities: f close to one
    # codeword, far from the decoded one, sigma-block nearest the decoded one
    n, length = 9, 512
    alpha_star, psi_v = 33, 450
    outside = [
        x for x in range(length) if x not in disagreement_set(alpha_star, psi_v, n)
    ]
    f = had_encode(alpha_star, n)
    for x in outside[:128]:
        f = f.flip(x)
    assert rel_distance(f, had_encode(alpha_star, n)) <= Fraction(1, 4)
    assert rel_distance(f, had_encode(psi_v, n)) > Fraction(1, 4) + FARNESS_MARGIN / 2
    sigma_v = had_encode(psi_v, n).flip(0).flip(5)
    assert decode_block(sigma_v) == psi_v
    assert rel_distance(sigma_v, had_encode(psi_v, n)) <= rel_distance(
        sigma_v, had_encode(alpha_star, n)
    )
    assert rel_distance(sigma_v, f) > FARNESS_MARGIN / 4


# ---------------------------------------------------------------------------
# Micro oracle
# ---------------------------------------------------------------------------


def test_micro_distance_zero_for_satisfying():
    c = circuit({(0, 0)}, n=2)
    f = g = had_encode(0, 2)
    assert micro_distance_to_sat(c, f, g) == 0


def test_micro_distance_positive_example():
    c = circuit({(0, 0)}, n=2)
    f = g = had_encode(1, 2)
    # independent oracle: evaluate the circuit on all 256 concatenated inputs
    sats = [
        concat_blocks(BitFunction(2, fb), BitFunction(2, gb))
        for fb in range(16)
        for gb in range(16)
        if eval_circuit(c, BitFunction(2, fb), BitFunction(2, gb))
    ]
    assert sorted(sats) == list(sat_inputs(c))
    point = concat_blocks(f, g)
    expected = Fraction(min((point ^ s).bit_count() for s in sats), 8)
    assert expected > 0
    assert micro_distance_to_sat(c, f, g) == expected


@pytest.mark.parametrize("n, pairs, weakened", [
    (2, {(0, 1), (1, 3), (2, 2), (3, 0)}, False),
    (2, {(0, 0), (0, 1), (0, 2), (1, 0), (2, 3)}, True),
    (3, {(0, 5), (1, 2), (2, 2), (5, 1), (6, 7), (7, 0)}, False),
    (3, {(0, 0), (0, 1), (1, 0), (1, 1), (3, 4), (6, 2)}, True),
], ids=["n2", "n2-weakened", "n3", "n3-weakened"])
def test_sat_inputs_match_exhaustive_eval_circuit(n, pairs, weakened):
    # asymmetric constraints, so a satisfying set read with the blocks' roles
    # swapped (the constraint transposed) differs from the true one
    assert pairs != {(b, a) for a, b in pairs}
    c = circuit(pairs, n=n, weakened=weakened)
    blocks = [BitFunction(n, bits) for bits in range(1 << (1 << n))]
    sats = [concat_blocks(f, g) for g in blocks for f in blocks if eval_circuit(c, f, g)]
    assert list(sat_inputs(c)) == sats
    assert sat_inputs(c) != sat_inputs(circuit({(b, a) for a, b in pairs}, n=n, weakened=weakened))


def test_micro_distance_swap_transpose_symmetry():
    pairs = {(0, 1), (2, 3), (1, 1)}
    c = circuit(pairs, n=2)
    transposed = circuit({(b, a) for a, b in pairs}, n=2)
    for fb, gb in [(3, 9), (0, 15), (7, 7)]:
        f, g = BitFunction(2, fb), BitFunction(2, gb)
        assert micro_distance_to_sat(c, f, g) == micro_distance_to_sat(transposed, g, f)


def test_micro_oracle_range_guard():
    c = circuit({(0, 0)}, n=4)
    with pytest.raises(InstanceError, match="micro oracle out of range"):
        micro_distance_to_sat(c, had_encode(0, 4), had_encode(0, 4))
    with pytest.raises(InstanceError, match="micro oracle out of range"):
        sat_inputs(c)


def test_weakened_circuit_failure_mode_n2():
    # two-pair constraint; the four-phase walk stays 1/2^n-close to the
    # weakened circuit's satisfying set at every step
    n = 2
    a1, b1, a2, b2 = 0, 0, 1, 1
    weak = circuit({(a1, b1), (a2, b2)}, n=n, weakened=True)
    sats = sat_inputs(weak)
    walk = four_phase_block_path(n, a1, b1, a2, b2)
    for f, g in walk:
        point = concat_blocks(f, g)
        dist = Fraction(min((point ^ s).bit_count() for s in sats), 2 * f.length)
        assert dist <= Fraction(1, 1 << n)
    # the strict circuit rejects the midpoint (the violation attempt)
    strict = circuit({(a1, b1), (a2, b2)}, n=n)
    midpoint = walk[2 * (1 << (n - 2))]
    assert not eval_circuit(strict, *midpoint)


# ---------------------------------------------------------------------------
# Materialization and serialization
# ---------------------------------------------------------------------------


def test_materialize_micro_csp_matches_circuit_counts():
    inst = single_edge({(0, 0), (1, 1)}, 4, (0, 0), (1, 1))
    system = robustize(inst)
    micro = materialize_micro_csp(system)
    assert solver.state_space_size(micro.graph) == 2 ** (2 * 4)
    assert value(micro.graph, micro.psi_ini) == 1
    import random

    rng = random.Random(3)
    for _ in range(25):
        blocks = BlockAssignment(
            2, {v: BitFunction(2, rng.randrange(16)) for v in inst.graph.vertices}
        )
        bit_psi = Assignment(
            {
                f"{v}@{x}": blocks.blocks[v].bit(x)
                for v in inst.graph.vertices
                for x in range(4)
            }
        )
        assert value(micro.graph, bit_psi).satisfied == count_satisfied(system, blocks)


def test_blocks_from_obj_names_what_it_refuses():
    system = robustize(single_edge({(0, 0)}, 4, (0, 0), (0, 0)))
    vertices, good = system.graph.vertices, blocks_to_obj(system.sigma_ini)
    assert rb.blocks_from_obj(2, good, vertices, "sigma") == system.sigma_ini
    with pytest.raises(InstanceError, match="^sigma: expected an object mapping vertices to hex "
                                            "blocks$"):
        rb.blocks_from_obj(2, list(good.values()), vertices, "sigma")
    with pytest.raises(InstanceError, match="^sigma: unknown vertex 'zz'$"):
        rb.blocks_from_obj(2, {**good, "zz": "0"}, vertices, "sigma")


def test_system_serialization_round_trip(tmp_path):
    inst = single_edge({(0, 0), (1, 3)}, 4, (0, 0), (1, 3))
    system = robustize(inst)
    write_system(system, tmp_path / "sys")
    loaded = read_system(tmp_path / "sys")
    assert loaded.n == system.n
    assert loaded.sigma_ini == system.sigma_ini
    assert loaded.sigma_tar == system.sigma_tar
    assert [c.pairs for c in loaded.circuits] == [c.pairs for c in system.circuits]
